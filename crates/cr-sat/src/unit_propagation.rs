//! Root-level unit propagation over a [`Cnf`].
//!
//! This is the engine behind the paper's `DeduceOrder` (Fig. 5): repeatedly
//! find a one-literal clause `C`, record it, and reduce the formula by `C`
//! and `¬C` — clauses containing `C` are removed, occurrences of `¬C` are
//! deleted from their clauses. Every literal found this way is implied by the
//! formula, which is what makes `DeduceOrder` sound (Lemma 6).
//!
//! The implementation uses occurrence lists and false-literal counters
//! instead of physically rewriting clauses, giving the same
//! `O(|Φ(Se)|)` total reduction cost the paper reports.
//!
//! # Per-group implication provenance
//!
//! Every derived root literal carries a 64-bit **group signature**: the
//! union, over its derivation cone, of the signatures of the retractable
//! clause groups the derivation passed through (group `g` hashes to bit
//! `g % 64`; permanent clauses contribute nothing). When
//! [`UnitPropagator::retract_group`] withdraws groups, only the literals
//! whose signature intersects the retracted set are unassigned, and only
//! the clauses touching those literals have their counters rebuilt and
//! their units re-queued — the replay is proportional to the *retracted
//! cone*, not to `O(|Φ|)`. Signature collisions (two groups sharing a bit)
//! can only over-invalidate: the extra literals are re-derived from their
//! surviving support on the next fixpoint run, so the final fixpoint always
//! equals a from-scratch re-derivation of the surviving formula
//! (differentially tested against exactly that). The lazy delta cursor
//! shrinks by just the invalidated prefix entries, so a
//! [`crate::LazyAxiomSource`] is re-consulted about re-derived literals
//! instead of the whole fixpoint — plus **both polarities of every
//! invalidated variable**. The extra redelivery is what keeps delta-scoped
//! sources sound under retraction: a source that skipped an axiom instance
//! because its conclusion was already true must get another look when the
//! retraction unassigns that conclusion while the premises survive — no
//! surviving premise ever re-enters the delta on its own, so without the
//! redelivery the instance would be lost and the propagator would
//! under-derive relative to a from-scratch run. The propagator falls back
//! to the full reset when it is in conflict or mid-propagation (pending
//! queue) — states where per-literal provenance is not a faithful cone
//! summary.

use crate::cnf::Cnf;
use crate::lit::{LBool, Lit};

/// Result of running unit propagation to fixpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpOutcome {
    /// Fixpoint reached; `implied` lists every literal fixed by propagation,
    /// in derivation order.
    Fixpoint {
        /// Implied literals in the order they were derived.
        implied: Vec<Lit>,
    },
    /// Propagation derived a contradiction: the formula is unsatisfiable.
    Conflict,
}

/// Reusable root-level unit propagation engine.
///
/// The propagator is **incremental**: [`UnitPropagator::add_clause`] (or
/// [`UnitPropagator::extend_from_cnf`]) may be called after a
/// [`UnitPropagator::run`] has reached a fixpoint, and the next `run`
/// resumes from that fixpoint — only the consequences of the new clauses
/// are propagated, and `implied` keeps accumulating across runs. This is
/// what lets the resolution framework keep one propagator alive across all
/// user-interaction rounds instead of re-reducing `Φ(Se)` from scratch.
pub struct UnitPropagator {
    /// Deduplicated clauses; tautologies marked satisfied at ingestion.
    clauses: Vec<Vec<Lit>>,
    satisfied: Vec<bool>,
    false_count: Vec<u32>,
    /// For each literal index, the clauses containing it.
    occurs: Vec<Vec<u32>>,
    assign: Vec<LBool>,
    /// Pending unit literals with the group signature of their derivation.
    queue: Vec<(Lit, u64)>,
    implied: Vec<Lit>,
    conflict: bool,
    /// Per-variable derivation signature (see the module docs), parallel to
    /// `assign`; 0 for unassigned variables and group-free derivations.
    var_sig: Vec<u64>,
    /// Clause group tags ([`NO_GROUP`] = permanent) and retraction flags.
    group_of: Vec<u32>,
    dead: Vec<bool>,
    /// Per-group clause chains, so retraction marks exactly a group's
    /// clauses instead of scanning every clause: `group_last[g]` is the
    /// newest clause of group `g` (indexed by tag; group tags are dense
    /// small integers) and `group_prev[ci]`, parallel to `clauses`, the
    /// previous clause of `ci`'s group (`NO_CLAUSE` ends a chain).
    group_last: Vec<u32>,
    group_prev: Vec<u32>,
    /// Prefix of `implied` already shown to a [`crate::LazyAxiomSource`]
    /// (see [`UnitPropagator::propagate_to_fixpoint_lazy`]); on retraction
    /// it shrinks by the invalidated prefix entries only, so re-derived
    /// fixpoints are re-delivered without re-scanning surviving literals.
    lazy_cursor: usize,
    /// Both polarities of every variable invalidated by a provenance
    /// replay, pending redelivery to the next lazy consult (see the module
    /// docs: retraction is the one non-monotone step, and an axiom instance
    /// can become unit *on* a freshly unassigned variable without any of
    /// its surviving literals re-entering the delta).
    redeliver: Vec<Lit>,
    /// Reused clause buffer of the lazy consultation loop.
    lazy_buf: crate::lazy::ClauseBuffer,
    /// Telemetry: provenance-scoped replays performed, literals they
    /// invalidated, and full `O(|Φ|)` fallback resets.
    replays: usize,
    replay_invalidated: usize,
    full_resets: usize,
}

/// Group tag of a permanent (non-retractable) clause.
pub const NO_GROUP: u32 = u32::MAX;

/// End of a per-group clause chain.
const NO_CLAUSE: u32 = u32::MAX;

/// 64-bit signature of one clause group (see the module docs): permanent
/// clauses have the empty signature.
#[inline]
fn group_sig(group: u32) -> u64 {
    if group == NO_GROUP {
        0
    } else {
        1u64 << (group % 64)
    }
}

impl UnitPropagator {
    /// Builds a propagator over the clauses of `cnf`.
    pub fn new(cnf: &Cnf) -> Self {
        let num_vars = cnf.num_vars() as usize;
        let mut up = UnitPropagator {
            clauses: Vec::with_capacity(cnf.num_clauses()),
            satisfied: Vec::with_capacity(cnf.num_clauses()),
            false_count: Vec::with_capacity(cnf.num_clauses()),
            occurs: vec![Vec::new(); num_vars * 2],
            assign: vec![LBool::Undef; num_vars],
            queue: Vec::new(),
            implied: Vec::new(),
            conflict: false,
            var_sig: vec![0; num_vars],
            group_of: Vec::with_capacity(cnf.num_clauses()),
            dead: Vec::with_capacity(cnf.num_clauses()),
            group_last: Vec::new(),
            group_prev: Vec::with_capacity(cnf.num_clauses()),
            lazy_cursor: 0,
            redeliver: Vec::new(),
            lazy_buf: crate::lazy::ClauseBuffer::new(),
            replays: 0,
            replay_invalidated: 0,
            full_resets: 0,
        };
        for clause in cnf.clauses() {
            up.add_clause(clause);
        }
        up
    }

    /// Grows the variable tables to hold at least `n` variables.
    pub fn ensure_vars(&mut self, n: usize) {
        if self.assign.len() < n {
            self.assign.resize(n, LBool::Undef);
            self.var_sig.resize(n, 0);
            self.occurs.resize(n * 2, Vec::new());
        }
    }

    /// Appends the clauses of `cnf` starting at clause index `from`,
    /// growing the variable tables as needed. Used to sync the propagator
    /// with a [`Cnf`] that was extended since the last call.
    pub fn extend_from_cnf(&mut self, cnf: &Cnf, from: usize) {
        self.ensure_vars(cnf.num_vars() as usize);
        for clause in cnf.clauses_from(from) {
            self.add_clause(clause);
        }
    }

    /// Adds one clause (used for incremental extension with user input).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.add_clause_grouped(lits, NO_GROUP);
    }

    /// Adds one clause tagged with a *retractable group*. All clauses of a
    /// group can later be withdrawn with [`UnitPropagator::retract_group`] —
    /// the mechanism behind the guard-literal clause groups of the
    /// incremental resolution engine (the engine strips the guard literal
    /// and passes the group tag instead, so the propagator's hot path never
    /// sees guard variables).
    pub fn add_clause_grouped(&mut self, lits: &[Lit], group: u32) {
        let mut clause: Vec<Lit> = lits.to_vec();
        clause.sort_unstable();
        clause.dedup();
        let tautology = clause.windows(2).any(|w| w[0] == w[1].negate());
        if let Some(max_var) = clause.iter().map(|l| l.var().index()).max() {
            self.ensure_vars(max_var + 1);
        }
        let idx = self.clauses.len() as u32;
        // Account for already-assigned literals.
        let mut sat = tautology;
        let mut n_false = 0;
        for &l in &clause {
            match self.value(l) {
                LBool::True => sat = true,
                LBool::False => n_false += 1,
                LBool::Undef => {}
            }
        }
        for &l in &clause {
            self.occurs[l.index()].push(idx);
        }
        if clause.is_empty() {
            self.conflict = true;
        } else if !sat {
            if n_false == clause.len() as u32 {
                self.conflict = true;
            } else if n_false == clause.len() as u32 - 1 {
                if let Some(unit) = clause.iter().find(|&&l| self.value(l) == LBool::Undef) {
                    // The derivation signature covers the clause's own
                    // group plus everything that falsified its other
                    // literals.
                    let sig = clause
                        .iter()
                        .filter(|&&l| self.value(l) == LBool::False)
                        .fold(group_sig(group), |s, l| s | self.var_sig[l.var().index()]);
                    self.queue.push((*unit, sig));
                }
            }
        }
        self.clauses.push(clause);
        self.satisfied.push(sat);
        self.false_count.push(n_false);
        self.group_of.push(group);
        self.dead.push(false);
        if group == NO_GROUP {
            self.group_prev.push(NO_CLAUSE);
        } else {
            let g = group as usize;
            if self.group_last.len() <= g {
                self.group_last.resize(g + 1, NO_CLAUSE);
            }
            self.group_prev.push(self.group_last[g]);
            self.group_last[g] = idx;
        }
    }

    /// Withdraws every clause of `group` and undoes exactly the retracted
    /// cone of the propagation state (see the module docs): literals whose
    /// derivation signature intersects the group are unassigned, the
    /// clauses touching them have their counters rebuilt, and the units of
    /// the reduced assignment are re-queued — the next
    /// [`UnitPropagator::propagate_to_fixpoint`] re-derives only what the
    /// retraction actually disturbed, instead of the whole `O(|Φ|)`
    /// fixpoint.
    pub fn retract_group(&mut self, group: u32) {
        self.retract_groups(&[group]);
    }

    /// [`UnitPropagator::retract_group`] for a batch: all groups are marked
    /// dead first (through the per-group clause chains, so marking costs the
    /// groups' own clauses, not a scan of every clause), then one replay
    /// covers the union of their cones.
    pub fn retract_groups(&mut self, groups: &[u32]) {
        if groups.is_empty() {
            return;
        }
        debug_assert!(groups.iter().all(|&g| g != NO_GROUP), "cannot retract permanent clauses");
        for &g in groups {
            let mut ci = self.group_last.get(g as usize).copied().unwrap_or(NO_CLAUSE);
            while ci != NO_CLAUSE {
                let c = ci as usize;
                if !self.dead[c] {
                    self.dead[c] = true;
                    // Permanently neutralised; the full-reset path
                    // recomputes this anyway, the replay path relies on it.
                    self.satisfied[c] = true;
                }
                ci = self.group_prev[c];
            }
        }
        // Provenance summarises completed derivations only: in conflict or
        // mid-propagation the recorded signatures are not a faithful cone,
        // so fall back to the full reset (rare — the engine retracts at
        // fixpoints, and conflicts only arise on invalid specifications).
        if self.conflict || !self.queue.is_empty() {
            self.full_resets += 1;
            self.reset_and_requeue();
            return;
        }
        let mask: u64 = groups.iter().fold(0, |s, &g| s | group_sig(g));
        self.replays += 1;
        let invalidated: Vec<Lit> = self
            .implied
            .iter()
            .copied()
            .filter(|l| self.var_sig[l.var().index()] & mask != 0)
            .collect();
        if invalidated.is_empty() {
            return; // nothing was ever derived through these groups
        }
        self.replay_invalidated += invalidated.len();
        for l in &invalidated {
            self.assign[l.var().index()] = LBool::Undef;
            self.var_sig[l.var().index()] = 0;
            // Queue the variable for redelivery to the lazy source: an
            // axiom instance skipped earlier (conclusion already true, or a
            // premise already false) can be unit on this variable now that
            // it is unassigned, and no surviving literal of that instance
            // will ever re-enter the delta.
            self.redeliver.push(l.var().positive());
            self.redeliver.push(l.var().negative());
        }
        // Shrink the implied list; the lazy delta cursor moves back by the
        // invalidated *prefix* entries only, so the axiom source is
        // re-consulted about re-derived literals (plus the redelivered
        // invalidated variables above), never the whole fixpoint.
        let removed_before_cursor = self.implied[..self.lazy_cursor]
            .iter()
            .filter(|l| self.assign[l.var().index()] == LBool::Undef)
            .count();
        self.lazy_cursor -= removed_before_cursor;
        self.implied.retain(|l| self.assign[l.var().index()] != LBool::Undef);
        // Rebuild the counters of every clause touching an invalidated
        // variable and re-queue the units of the reduced assignment — the
        // only clauses whose satisfied/false-count state can have changed.
        let mut touched: Vec<u32> = Vec::new();
        for l in &invalidated {
            touched.extend_from_slice(&self.occurs[l.index()]);
            touched.extend_from_slice(&self.occurs[l.negate().index()]);
        }
        touched.sort_unstable();
        touched.dedup();
        for ci in touched {
            let ci = ci as usize;
            if !self.dead[ci] {
                self.recompute_clause(ci);
            }
        }
    }

    /// Rebuilds one alive clause's satisfied flag and false-literal counter
    /// from the current assignment, re-queueing it if it is unit and
    /// raising the conflict flag if it is falsified.
    fn recompute_clause(&mut self, ci: usize) {
        let (sat, n_false, unit) = {
            let clause = &self.clauses[ci];
            // Clauses are sorted and deduplicated at ingestion, so a
            // tautology shows up as adjacent complementary literals.
            let mut sat = clause.windows(2).any(|w| w[0] == w[1].negate());
            let mut n_false: u32 = 0;
            for &l in clause {
                match self.value(l) {
                    LBool::True => sat = true,
                    LBool::False => n_false += 1,
                    LBool::Undef => {}
                }
            }
            let unit = if !sat && n_false + 1 == clause.len() as u32 {
                let mut sig = group_sig(self.group_of[ci]);
                let mut u = None;
                for &l in clause {
                    match self.value(l) {
                        LBool::False => sig |= self.var_sig[l.var().index()],
                        _ => u = Some(l), // the lone non-false literal (Undef)
                    }
                }
                u.map(|l| (l, sig))
            } else {
                None
            };
            (sat, n_false, unit)
        };
        self.satisfied[ci] = sat;
        self.false_count[ci] = n_false;
        if !sat && n_false == self.clauses[ci].len() as u32 {
            // Every remaining support was justified independently of the
            // retraction, so a full re-derivation would conflict too.
            self.conflict = true;
        }
        if let Some(q) = unit {
            self.queue.push(q);
        }
    }

    /// Clears all derived state and re-queues the units of the surviving
    /// clauses, as if the alive clauses had just been ingested fresh — the
    /// `O(|Φ|)` fallback of [`UnitPropagator::retract_groups`].
    fn reset_and_requeue(&mut self) {
        self.assign.fill(LBool::Undef);
        self.var_sig.fill(0);
        self.implied.clear();
        self.queue.clear();
        self.conflict = false;
        self.lazy_cursor = 0;
        // Cursor 0 re-delivers the whole re-derived fixpoint, which covers
        // every instance an invalidated variable could participate in.
        self.redeliver.clear();
        for ci in 0..self.clauses.len() {
            let clause = &self.clauses[ci];
            // Clauses are sorted and deduplicated at ingestion, so a
            // tautology shows up as adjacent complementary literals.
            let tautology = clause.windows(2).any(|w| w[0] == w[1].negate());
            self.satisfied[ci] = self.dead[ci] || tautology;
            self.false_count[ci] = 0;
            if !self.satisfied[ci] {
                match clause.len() {
                    0 => self.conflict = true,
                    1 => self.queue.push((clause[0], group_sig(self.group_of[ci]))),
                    _ => {}
                }
            }
        }
    }

    /// Queues both polarities of `v` for redelivery to the next lazy
    /// consult (see the module docs on retraction redelivery). The
    /// resolution engine calls this when a retired value is revived: the
    /// value's axiom instances re-enter the active scheme without any of
    /// its atoms re-entering the delta on their own.
    pub fn redeliver_var(&mut self, v: crate::lit::Var) {
        self.redeliver.push(v.positive());
        self.redeliver.push(v.negative());
    }

    /// Telemetry: `(provenance replays, literals they invalidated, full
    /// O(|Φ|) fallback resets)` since construction.
    pub fn replay_stats(&self) -> (usize, usize, usize) {
        (self.replays, self.replay_invalidated, self.full_resets)
    }

    fn value(&self, l: Lit) -> LBool {
        let v = self.assign[l.var().index()];
        if l.is_positive() {
            v
        } else {
            v.negate()
        }
    }

    /// Runs propagation to fixpoint and reports **all** implied literals
    /// accumulated so far (including those of earlier runs).
    ///
    /// Clones the accumulated set; resumed callers on a hot path should
    /// prefer [`UnitPropagator::propagate_to_fixpoint`], which borrows it.
    pub fn run(&mut self) -> UpOutcome {
        match self.propagate_to_fixpoint() {
            None => UpOutcome::Conflict,
            Some(implied) => UpOutcome::Fixpoint { implied: implied.to_vec() },
        }
    }

    /// Runs propagation to fixpoint, borrowing the accumulated implied set
    /// (all runs so far, in derivation order); `None` on contradiction.
    ///
    /// Unit clauses are queued at [`UnitPropagator::add_clause`] time, so a
    /// resumed run only performs work proportional to the consequences of
    /// the clauses added since the previous fixpoint.
    pub fn propagate_to_fixpoint(&mut self) -> Option<&[Lit]> {
        if self.conflict {
            return None;
        }
        while let Some((lit, sig)) = self.queue.pop() {
            match self.value(lit) {
                LBool::True => continue,
                LBool::False => {
                    self.conflict = true;
                    return None;
                }
                LBool::Undef => {}
            }
            self.assign[lit.var().index()] = LBool::from_bool(lit.is_positive());
            self.var_sig[lit.var().index()] = sig;
            self.implied.push(lit);

            // Clauses containing `lit` become satisfied (removed).
            let sat_list = std::mem::take(&mut self.occurs[lit.index()]);
            for &ci in &sat_list {
                self.satisfied[ci as usize] = true;
            }
            self.occurs[lit.index()] = sat_list;

            // Clauses containing `¬lit` shrink by one literal. The taken
            // occurrence list must be restored even on the conflict exit:
            // a post-conflict retraction resets and re-propagates over the
            // same occurrence structure, so losing entries here would
            // silently under-count false literals forever after.
            let neg = lit.negate();
            let shrink_list = std::mem::take(&mut self.occurs[neg.index()]);
            let mut conflicted = false;
            for &ci in &shrink_list {
                let ci = ci as usize;
                if self.satisfied[ci] {
                    continue;
                }
                self.false_count[ci] += 1;
                let remaining = self.clauses[ci].len() as u32 - self.false_count[ci];
                if remaining == 0 {
                    conflicted = true;
                    break;
                }
                if remaining == 1 {
                    // Locate the lone non-false literal, folding the false
                    // literals' derivation signatures into the unit's.
                    let mut sig = group_sig(self.group_of[ci]);
                    let mut unit = None;
                    for &l in &self.clauses[ci] {
                        match self.value(l) {
                            LBool::False => sig |= self.var_sig[l.var().index()],
                            _ => unit = Some(l),
                        }
                    }
                    let unit = unit.expect("remaining == 1 guarantees a non-false literal");
                    match self.value(unit) {
                        LBool::True => self.satisfied[ci] = true,
                        _ => self.queue.push((unit, sig)),
                    }
                }
            }
            self.occurs[neg.index()] = shrink_list;
            if conflicted {
                self.conflict = true;
                return None;
            }
        }
        Some(&self.implied)
    }

    /// [`UnitPropagator::propagate_to_fixpoint`] interleaved with lazy
    /// axiom instantiation: after each fixpoint, `source` is shown the
    /// literals assigned since it was last consulted (the `delta`) and every
    /// axiom clause it returns is added; propagation then resumes. The loop
    /// ends when a fixpoint provokes no further instantiation — at which
    /// point the accumulated implied set equals what unit propagation over
    /// the fully materialised axiom scheme would have derived (an eager
    /// propagation step needs a clause that is unit under the current
    /// assignment, and exactly those clauses are requested on demand).
    ///
    /// The delta cursor survives across calls (the engine re-enters this
    /// per interaction round) and is reset by group retraction together
    /// with the assignment, so re-derived fixpoints are re-delivered.
    pub fn propagate_to_fixpoint_lazy(
        &mut self,
        source: &mut dyn crate::LazyAxiomSource,
    ) -> Option<&[Lit]> {
        let mut clauses = std::mem::take(&mut self.lazy_buf);
        let result = loop {
            if self.propagate_to_fixpoint().is_none() {
                break false;
            }
            clauses.clear();
            let assignment = crate::lazy::Assignment::Lifted(&self.assign);
            if self.redeliver.is_empty() {
                let delta = &self.implied[self.lazy_cursor..];
                source.instantiate(assignment, Some(delta), &mut clauses);
            } else {
                // Retraction redelivery: prepend both polarities of the
                // invalidated variables so the source revisits instances
                // that are newly unit on them (module docs).
                self.redeliver.extend_from_slice(&self.implied[self.lazy_cursor..]);
                source.instantiate(assignment, Some(&self.redeliver), &mut clauses);
            }
            self.redeliver.clear();
            self.lazy_cursor = self.implied.len();
            if clauses.is_empty() {
                break true;
            }
            for clause in clauses.iter() {
                self.add_clause(clause);
            }
        };
        self.lazy_buf = clauses;
        result.then_some(&self.implied[..])
    }

    /// The current truth value of a literal after [`UnitPropagator::run`].
    pub fn literal_value(&self, l: Lit) -> Option<bool> {
        self.value(l).to_option()
    }
}

/// Convenience: one-shot unit propagation over `cnf`.
pub fn propagate_units(cnf: &Cnf) -> UpOutcome {
    UnitPropagator::new(cnf).run_owned()
}

impl UnitPropagator {
    fn run_owned(mut self) -> UpOutcome {
        self.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    #[test]
    fn derives_chain() {
        let mut cnf = Cnf::new();
        let v: Vec<Var> = (0..4).map(|_| cnf.new_var()).collect();
        cnf.add_clause([v[0].positive()]);
        cnf.add_clause([v[0].negative(), v[1].positive()]);
        cnf.add_clause([v[1].negative(), v[2].positive()]);
        cnf.add_clause([v[2].negative(), v[3].negative()]);
        match propagate_units(&cnf) {
            UpOutcome::Fixpoint { implied } => {
                assert_eq!(
                    implied,
                    vec![v[0].positive(), v[1].positive(), v[2].positive(), v[3].negative()]
                );
            }
            UpOutcome::Conflict => panic!("unexpected conflict"),
        }
    }

    #[test]
    fn no_units_no_implications() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause([a.positive(), b.positive()]);
        cnf.add_clause([a.negative(), b.negative()]);
        match propagate_units(&cnf) {
            UpOutcome::Fixpoint { implied } => assert!(implied.is_empty()),
            UpOutcome::Conflict => panic!(),
        }
    }

    #[test]
    fn detects_conflict() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause([a.positive()]);
        cnf.add_clause([a.negative(), b.positive()]);
        cnf.add_clause([b.negative()]);
        assert_eq!(propagate_units(&cnf), UpOutcome::Conflict);
    }

    #[test]
    fn duplicate_literals_counted_once() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause([a.positive(), a.positive(), b.positive()]);
        cnf.add_clause([a.negative()]);
        match propagate_units(&cnf) {
            UpOutcome::Fixpoint { implied } => {
                assert_eq!(implied, vec![a.negative(), b.positive()]);
            }
            UpOutcome::Conflict => panic!(),
        }
    }

    #[test]
    fn tautology_never_produces_units() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause([a.positive(), a.negative()]);
        cnf.add_clause([b.negative(), b.positive()]);
        match propagate_units(&cnf) {
            UpOutcome::Fixpoint { implied } => assert!(implied.is_empty()),
            UpOutcome::Conflict => panic!(),
        }
    }

    #[test]
    fn retracted_groups_never_propagate() {
        // Group 1: a → b. Permanent: a. After retraction, b must no longer
        // be implied — including implications *already derived* before the
        // retraction.
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        let c = cnf.new_var();
        cnf.add_clause([a.positive()]);
        let mut up = UnitPropagator::new(&cnf);
        up.add_clause_grouped(&[a.negative(), b.positive()], 1);
        up.add_clause_grouped(&[b.negative(), c.positive()], 1);
        match up.run() {
            UpOutcome::Fixpoint { implied } => {
                assert_eq!(implied, vec![a.positive(), b.positive(), c.positive()]);
            }
            UpOutcome::Conflict => panic!(),
        }
        up.retract_group(1);
        match up.run() {
            UpOutcome::Fixpoint { implied } => {
                assert_eq!(implied, vec![a.positive()], "group consequences must vanish");
            }
            UpOutcome::Conflict => panic!(),
        }
        assert_eq!(up.literal_value(b.positive()), None);
        assert_eq!(up.literal_value(c.positive()), None);
    }

    #[test]
    fn retraction_clears_group_conflicts() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        cnf.add_clause([a.positive()]);
        let mut up = UnitPropagator::new(&cnf);
        up.add_clause_grouped(&[a.negative()], 7);
        assert_eq!(up.run(), UpOutcome::Conflict);
        up.retract_group(7);
        match up.run() {
            UpOutcome::Fixpoint { implied } => assert_eq!(implied, vec![a.positive()]),
            UpOutcome::Conflict => panic!("conflict must die with its group"),
        }
    }

    #[test]
    fn clauses_added_after_retraction_propagate() {
        let mut up = UnitPropagator::new(&Cnf::new());
        let a = crate::lit::Var(0);
        let b = crate::lit::Var(1);
        up.add_clause_grouped(&[a.positive()], 1);
        assert!(matches!(up.run(), UpOutcome::Fixpoint { .. }));
        up.retract_group(1);
        up.add_clause_grouped(&[a.negative()], 2);
        up.add_clause(&[a.positive(), b.positive()]);
        match up.run() {
            UpOutcome::Fixpoint { implied } => {
                assert_eq!(implied, vec![a.negative(), b.positive()]);
            }
            UpOutcome::Conflict => panic!(),
        }
    }

    #[test]
    fn rederivation_through_another_group_survives_replay() {
        // `a` is implied by clauses of two different groups. Retracting one
        // group must keep `a` derivable through the other; only retracting
        // both removes it.
        let a = Var(0);
        let b = Var(1);
        let mut up = UnitPropagator::new(&Cnf::new());
        up.add_clause_grouped(&[a.positive()], 1);
        up.add_clause_grouped(&[a.positive()], 2);
        up.add_clause(&[a.negative(), b.positive()]); // permanent: a → b
        assert!(matches!(up.run(), UpOutcome::Fixpoint { .. }));
        assert_eq!(up.literal_value(b.positive()), Some(true));
        // Whichever group signed the first derivation, retracting one of
        // the two groups must re-derive `a` (and `b`) through the other.
        up.retract_group(2);
        match up.run() {
            UpOutcome::Fixpoint { implied } => {
                assert!(implied.contains(&a.positive()), "group 1 still implies a");
                assert!(implied.contains(&b.positive()));
            }
            UpOutcome::Conflict => panic!(),
        }
        up.retract_group(1);
        match up.run() {
            UpOutcome::Fixpoint { implied } => {
                assert!(implied.is_empty(), "both supports retracted: {implied:?}");
            }
            UpOutcome::Conflict => panic!(),
        }
    }

    #[test]
    fn replay_is_scoped_to_the_retracted_cone() {
        // One long permanent chain plus one short grouped chain: retracting
        // the group must invalidate only the grouped cone, leaving the
        // permanent chain's assignments untouched.
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..20).map(|_| cnf.new_var()).collect();
        cnf.add_clause([vars[0].positive()]);
        for w in vars[..16].windows(2) {
            cnf.add_clause([w[0].negative(), w[1].positive()]);
        }
        let mut up = UnitPropagator::new(&cnf);
        up.add_clause_grouped(&[vars[16].positive()], 3);
        up.add_clause_grouped(&[vars[16].negative(), vars[17].positive()], 3);
        assert!(matches!(up.run(), UpOutcome::Fixpoint { .. }));
        up.retract_group(3);
        let (replays, invalidated, full_resets) = up.replay_stats();
        assert_eq!(replays, 1);
        assert_eq!(invalidated, 2, "only the grouped cone is re-examined");
        assert_eq!(full_resets, 0);
        match up.run() {
            UpOutcome::Fixpoint { implied } => {
                assert_eq!(implied.len(), 16, "permanent chain survives untouched");
                assert!(implied.contains(&vars[15].positive()));
                assert!(!implied.contains(&vars[16].positive()));
            }
            UpOutcome::Conflict => panic!(),
        }
    }

    #[test]
    fn replay_lazy_cursor_redelivers_only_rederived_literals() {
        struct DeltaRecorder {
            seen: Vec<Vec<Lit>>,
        }
        impl crate::LazyAxiomSource for DeltaRecorder {
            fn instantiate(
                &mut self,
                _assignment: crate::lazy::Assignment<'_>,
                delta: Option<&[Lit]>,
                _out: &mut crate::lazy::ClauseBuffer,
            ) {
                let delta = delta.expect("UP always passes a delta");
                if !delta.is_empty() {
                    self.seen.push(delta.to_vec());
                }
            }
        }
        let a = Var(0);
        let b = Var(1);
        let c = Var(2);
        let mut up = UnitPropagator::new(&Cnf::new());
        up.add_clause(&[a.positive()]);
        up.add_clause_grouped(&[b.positive()], 1);
        up.add_clause_grouped(&[c.positive()], 2);
        let mut rec = DeltaRecorder { seen: Vec::new() };
        up.propagate_to_fixpoint_lazy(&mut rec).unwrap();
        assert_eq!(rec.seen.len(), 1, "one delta covering the initial fixpoint");
        // Retract group 1: only b is invalidated. The surviving a and c
        // must NOT be re-delivered to the source — but both polarities of
        // the unassigned b must be, so the source can revisit instances
        // that are newly unit on it (retraction is non-monotone: an
        // instance skipped while b was assigned can need b derived again).
        up.retract_group(1);
        rec.seen.clear();
        up.propagate_to_fixpoint_lazy(&mut rec).unwrap();
        assert_eq!(
            rec.seen,
            vec![vec![b.positive(), b.negative()]],
            "exactly the invalidated variable is re-delivered"
        );
        // A fresh grouped support re-derives b: the delta is exactly [b].
        up.add_clause_grouped(&[b.positive()], 4);
        rec.seen.clear();
        up.propagate_to_fixpoint_lazy(&mut rec).unwrap();
        assert_eq!(rec.seen, vec![vec![b.positive()]]);
    }

    /// Tiny deterministic PRNG (xorshift*) — the randomized differential
    /// below must not depend on the workspace's rand shim.
    struct Xorshift(u64);
    impl Xorshift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn randomized_replay_matches_full_rederivation() {
        // Random clause/group mixes, retracted group by group: after every
        // retraction the propagator's fixpoint must equal a from-scratch
        // propagator over the surviving clauses — including group ids that
        // collide in the 64-bit signature (66 ≡ 2 mod 64).
        let groups: [u32; 6] = [NO_GROUP, 1, 2, 5, 63, 66];
        for seed in 1..60u64 {
            let mut r = Xorshift(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
            let num_vars = 4 + r.below(16) as usize;
            let num_clauses = 6 + r.below(50) as usize;
            let mut clauses: Vec<(Vec<Lit>, u32)> = Vec::new();
            for _ in 0..num_clauses {
                let len = 1 + r.below(3) as usize;
                let mut lits: Vec<Lit> = (0..len)
                    .map(|_| {
                        let v = Var(r.below(num_vars as u64) as u32);
                        if r.below(2) == 0 {
                            v.positive()
                        } else {
                            v.negative()
                        }
                    })
                    .collect();
                lits.sort_unstable();
                lits.dedup();
                let group = groups[r.below(groups.len() as u64) as usize];
                clauses.push((lits, group));
            }
            let mut up = UnitPropagator::new(&Cnf::new());
            up.ensure_vars(num_vars);
            for (lits, group) in &clauses {
                up.add_clause_grouped(lits, *group);
            }
            let mut dead: Vec<u32> = Vec::new();
            let mut retractable: Vec<u32> = clauses
                .iter()
                .map(|&(_, g)| g)
                .filter(|&g| g != NO_GROUP)
                .collect();
            retractable.sort_unstable();
            retractable.dedup();
            // Interleave runs and retractions (run before retracting
            // ensures the provenance path is exercised, not the fallback).
            let _ = up.run();
            for g in retractable {
                up.retract_group(g);
                dead.push(g);
                let mut fresh = UnitPropagator::new(&Cnf::new());
                fresh.ensure_vars(num_vars);
                for (lits, group) in &clauses {
                    if !dead.contains(group) {
                        fresh.add_clause_grouped(lits, *group);
                    }
                }
                match (up.run(), fresh.run()) {
                    (UpOutcome::Conflict, UpOutcome::Conflict) => {}
                    (UpOutcome::Fixpoint { implied: a }, UpOutcome::Fixpoint { implied: b }) => {
                        let mut a = a;
                        let mut b = b;
                        a.sort_unstable();
                        b.sort_unstable();
                        assert_eq!(a, b, "fixpoint diverged (seed {seed}, dead {dead:?})");
                    }
                    (x, y) => panic!("outcome diverged (seed {seed}, dead {dead:?}): {x:?} vs {y:?}"),
                }
            }
        }
    }

    #[test]
    fn incremental_addition_reuses_state() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause([a.negative(), b.positive()]);
        let mut up = UnitPropagator::new(&cnf);
        match up.run() {
            UpOutcome::Fixpoint { implied } => assert!(implied.is_empty()),
            UpOutcome::Conflict => panic!(),
        }
        up.add_clause(&[a.positive()]);
        match up.run() {
            UpOutcome::Fixpoint { implied } => {
                assert_eq!(implied, vec![a.positive(), b.positive()])
            }
            UpOutcome::Conflict => panic!(),
        }
        assert_eq!(up.literal_value(b.positive()), Some(true));
    }
}
