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
//! # Retraction
//!
//! Clauses may carry a retractable group tag
//! ([`UnitPropagator::add_clause_grouped`]).
//! [`UnitPropagator::retract_groups`] marks the groups' clauses dead and
//! resets the propagation state to the surviving clauses' units, so the
//! next fixpoint run re-derives the surviving formula's fixpoint, order
//! theory included. A retraction thus costs at most the from-scratch
//! `DeduceOrder` the paper runs every round.
//!
//! # Order atoms
//!
//! [`UnitPropagator::register_order_domain`] hands the propagator the
//! atoms of a strict total order; the order axioms over them then take part
//! in every fixpoint without being clauses (see [`crate::order`]).

use crate::cnf::Cnf;
use crate::lit::{LBool, Lit, Var};
use crate::order::OrderTheory;

/// Reusable root-level unit propagation engine.
///
/// The propagator is **incremental**: [`UnitPropagator::add_clause`] may be
/// called after [`UnitPropagator::propagate_to_fixpoint`] has reached a
/// fixpoint, and the next call resumes from that fixpoint — only the
/// consequences of the new clauses are propagated, and the implied list
/// keeps accumulating across calls. This is what lets the resolution
/// framework keep one propagator alive across all user-interaction rounds
/// instead of re-reducing `Φ(Se)` from scratch.
pub struct UnitPropagator {
    /// Sorted, deduplicated clauses.
    clauses: Vec<Vec<Lit>>,
    satisfied: Vec<bool>,
    false_count: Vec<u32>,
    /// For each literal index, the clauses containing it.
    occurs: Vec<Vec<u32>>,
    assign: Vec<LBool>,
    /// Pending unit literals.
    queue: Vec<Lit>,
    implied: Vec<Lit>,
    conflict: bool,
    /// Clause group tags ([`NO_GROUP`] = permanent) and retraction flags.
    group_of: Vec<u32>,
    dead: Vec<bool>,
    /// The order axioms over the registered order atoms.
    order: OrderTheory,
    /// Telemetry: [`UnitPropagator::retract_groups`] calls that withdrew
    /// at least one group.
    retractions: usize,
}

/// Group tag of a permanent (non-retractable) clause.
pub const NO_GROUP: u32 = u32::MAX;

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
            group_of: Vec::with_capacity(cnf.num_clauses()),
            dead: Vec::with_capacity(cnf.num_clauses()),
            order: OrderTheory::default(),
            retractions: 0,
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
            self.occurs.resize(n * 2, Vec::new());
        }
    }

    /// Registers order domain `domain`: `n` values whose atom `lo ≺ hi`
    /// is `var(lo, hi)` for every `lo ≠ hi`. From then on every fixpoint
    /// includes the asymmetry, totality and transitivity axioms over these
    /// atoms (see [`crate::order`]). Registering the domain again with
    /// more values grows it; its atoms must be registered before any of
    /// them is assigned.
    pub fn register_order_domain(
        &mut self,
        domain: u32,
        n: usize,
        var: impl Fn(usize, usize) -> Var,
    ) {
        let num_vars = self.order.register_domain(domain, n, var, &self.assign);
        self.ensure_vars(num_vars);
    }

    /// Adds one clause (used for incremental extension with user input).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.add_clause_grouped(lits, NO_GROUP);
    }

    /// Adds one clause tagged with a *retractable group*. All clauses of a
    /// group can later be withdrawn with [`UnitPropagator::retract_groups`]
    /// — the mechanism behind the guard-literal clause groups of the
    /// incremental resolution engine (the engine strips the guard literal
    /// and passes the group tag instead, so the propagator's hot path never
    /// sees guard variables).
    ///
    /// A tautology needs no special case: whichever way its variable is
    /// assigned, the clause is satisfied before it can become unit.
    pub fn add_clause_grouped(&mut self, lits: &[Lit], group: u32) {
        let mut clause: Vec<Lit> = lits.to_vec();
        clause.sort_unstable();
        clause.dedup();
        if let Some(max_var) = clause.iter().map(|l| l.var().index()).max() {
            self.ensure_vars(max_var + 1);
        }
        let idx = self.clauses.len() as u32;
        // Account for already-assigned literals.
        let mut sat = false;
        let mut n_false = 0;
        let mut unit = None;
        for &l in &clause {
            match self.value(l) {
                LBool::True => sat = true,
                LBool::False => n_false += 1,
                LBool::Undef => unit = Some(l),
            }
            self.occurs[l.index()].push(idx);
        }
        if !sat {
            if n_false == clause.len() as u32 {
                self.conflict = true;
            } else if n_false + 1 == clause.len() as u32 {
                self.queue.extend(unit);
            }
        }
        self.clauses.push(clause);
        self.satisfied.push(sat);
        self.false_count.push(n_false);
        self.group_of.push(group);
        self.dead.push(false);
    }

    /// Withdraws every clause of `groups` and resets the propagation state
    /// to the units of the surviving clauses (see the module docs): the
    /// next [`UnitPropagator::propagate_to_fixpoint`] re-derives the
    /// surviving formula's fixpoint, in conflict or not.
    pub fn retract_groups(&mut self, groups: &[u32]) {
        if groups.is_empty() {
            return;
        }
        debug_assert!(
            groups.iter().all(|&g| g != NO_GROUP),
            "cannot retract permanent clauses"
        );
        self.retractions += 1;
        for (dead, g) in self.dead.iter_mut().zip(&self.group_of) {
            *dead |= groups.contains(g);
        }
        self.assign.fill(LBool::Undef);
        self.implied.clear();
        self.queue.clear();
        self.conflict = false;
        self.order.clear();
        self.false_count.fill(0);
        self.satisfied.copy_from_slice(&self.dead);
        for (clause, &dead) in self.clauses.iter().zip(&self.dead) {
            match (dead, &clause[..]) {
                (false, []) => self.conflict = true,
                (false, &[unit]) => self.queue.push(unit),
                _ => {}
            }
        }
    }

    /// Telemetry: retractions performed since construction.
    pub fn retractions(&self) -> usize {
        self.retractions
    }

    fn value(&self, l: Lit) -> LBool {
        let v = self.assign[l.var().index()];
        if l.is_positive() {
            v
        } else {
            v.negate()
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
        while let Some(lit) = self.queue.pop() {
            match self.value(lit) {
                LBool::True => continue,
                LBool::False => {
                    self.conflict = true;
                    return None;
                }
                LBool::Undef => {}
            }
            self.assign[lit.var().index()] = LBool::from_bool(lit.is_positive());
            self.implied.push(lit);
            self.order.on_assign(lit, &self.assign, &mut self.queue);

            // Clauses containing `lit` become satisfied (removed).
            for &ci in &self.occurs[lit.index()] {
                self.satisfied[ci as usize] = true;
            }

            // Clauses containing `¬lit` shrink by one literal.
            let neg = lit.negate();
            for &ci in &self.occurs[neg.index()] {
                let ci = ci as usize;
                if self.satisfied[ci] {
                    continue;
                }
                self.false_count[ci] += 1;
                let remaining = self.clauses[ci].len() as u32 - self.false_count[ci];
                if remaining == 0 {
                    self.conflict = true;
                    return None;
                }
                if remaining == 1 {
                    let unit = self.clauses[ci]
                        .iter()
                        .copied()
                        .find(|&l| self.value(l) != LBool::False)
                        .expect("remaining == 1 guarantees a non-false literal");
                    match self.value(unit) {
                        LBool::True => self.satisfied[ci] = true,
                        _ => self.queue.push(unit),
                    }
                }
            }
        }
        Some(&self.implied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    /// The fixpoint of `up` as an owned list (`None` on conflict).
    fn fixpoint(up: &mut UnitPropagator) -> Option<Vec<Lit>> {
        up.propagate_to_fixpoint().map(<[Lit]>::to_vec)
    }

    #[test]
    fn derives_chain() {
        let mut cnf = Cnf::new();
        let v: Vec<Var> = (0..4).map(|_| cnf.new_var()).collect();
        cnf.add_clause([v[0].positive()]);
        cnf.add_clause([v[0].negative(), v[1].positive()]);
        cnf.add_clause([v[1].negative(), v[2].positive()]);
        cnf.add_clause([v[2].negative(), v[3].negative()]);
        assert_eq!(
            fixpoint(&mut UnitPropagator::new(&cnf)),
            Some(vec![
                v[0].positive(),
                v[1].positive(),
                v[2].positive(),
                v[3].negative()
            ])
        );
    }

    #[test]
    fn no_units_no_implications() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause([a.positive(), b.positive()]);
        cnf.add_clause([a.negative(), b.negative()]);
        assert_eq!(fixpoint(&mut UnitPropagator::new(&cnf)), Some(vec![]));
    }

    #[test]
    fn detects_conflict() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause([a.positive()]);
        cnf.add_clause([a.negative(), b.positive()]);
        cnf.add_clause([b.negative()]);
        assert_eq!(fixpoint(&mut UnitPropagator::new(&cnf)), None);
    }

    #[test]
    fn duplicate_literals_counted_once() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause([a.positive(), a.positive(), b.positive()]);
        cnf.add_clause([a.negative()]);
        assert_eq!(
            fixpoint(&mut UnitPropagator::new(&cnf)),
            Some(vec![a.negative(), b.positive()])
        );
    }

    #[test]
    fn tautology_never_produces_units() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause([a.positive(), a.negative()]);
        cnf.add_clause([b.negative(), b.positive()]);
        assert_eq!(fixpoint(&mut UnitPropagator::new(&cnf)), Some(vec![]));
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
        assert_eq!(
            fixpoint(&mut up),
            Some(vec![a.positive(), b.positive(), c.positive()])
        );
        up.retract_groups(&[1]);
        assert_eq!(
            fixpoint(&mut up),
            Some(vec![a.positive()]),
            "group consequences must vanish"
        );
        assert_eq!(up.retractions(), 1);
    }

    #[test]
    fn retraction_clears_group_conflicts() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        cnf.add_clause([a.positive()]);
        let mut up = UnitPropagator::new(&cnf);
        up.add_clause_grouped(&[a.negative()], 7);
        assert_eq!(fixpoint(&mut up), None);
        up.retract_groups(&[7]);
        assert_eq!(
            fixpoint(&mut up),
            Some(vec![a.positive()]),
            "conflict must die with its group"
        );
    }

    #[test]
    fn clauses_added_after_retraction_propagate() {
        let mut up = UnitPropagator::new(&Cnf::new());
        let a = Var(0);
        let b = Var(1);
        up.add_clause_grouped(&[a.positive()], 1);
        assert!(fixpoint(&mut up).is_some());
        up.retract_groups(&[1]);
        up.add_clause_grouped(&[a.negative()], 2);
        up.add_clause(&[a.positive(), b.positive()]);
        assert_eq!(fixpoint(&mut up), Some(vec![a.negative(), b.positive()]));
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
        assert!(fixpoint(&mut up).unwrap().contains(&b.positive()));
        up.retract_groups(&[2]);
        let implied = fixpoint(&mut up).unwrap();
        assert!(implied.contains(&a.positive()), "group 1 still implies a");
        assert!(implied.contains(&b.positive()));
        up.retract_groups(&[1]);
        let implied = fixpoint(&mut up).unwrap();
        assert!(implied.is_empty(), "both supports retracted: {implied:?}");
    }

    /// Tiny deterministic PRNG (xorshift*) — the randomized differentials
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
        // propagator over the surviving clauses.
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
            // Interleave runs and retractions.
            let _ = fixpoint(&mut up);
            for g in retractable {
                up.retract_groups(&[g]);
                dead.push(g);
                let mut fresh = UnitPropagator::new(&Cnf::new());
                fresh.ensure_vars(num_vars);
                for (lits, group) in &clauses {
                    if !dead.contains(group) {
                        fresh.add_clause_grouped(lits, *group);
                    }
                }
                let sorted = |mut lits: Vec<Lit>| {
                    lits.sort_unstable();
                    lits
                };
                assert_eq!(
                    fixpoint(&mut up).map(sorted),
                    fixpoint(&mut fresh).map(sorted),
                    "fixpoint diverged (seed {seed}, dead {dead:?})"
                );
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
        assert_eq!(fixpoint(&mut up), Some(vec![]));
        up.add_clause(&[a.positive()]);
        assert_eq!(fixpoint(&mut up), Some(vec![a.positive(), b.positive()]));
    }
}
