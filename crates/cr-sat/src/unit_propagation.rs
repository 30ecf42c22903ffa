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
//! The propagator only grows: clauses and order domains are added, never
//! withdrawn. A caller whose formula lost clauses feeds what is left to a
//! new propagator, or to a cleared one ([`UnitPropagator::clear`]), which
//! reuses its allocations.
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
    /// The order axioms over the registered order atoms.
    order: OrderTheory,
    /// Emptied clause buffers that [`UnitPropagator::clear`] kept for the
    /// clauses added next.
    spare: Vec<Vec<Lit>>,
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
            order: OrderTheory::default(),
            spare: Vec::new(),
        };
        for clause in cnf.clauses() {
            up.add_clause(clause);
        }
        up
    }

    /// Empties the propagator, as `UnitPropagator::new(&Cnf::new())`
    /// would build it, but keeps its clause, occurrence and variable
    /// buffers for the clauses and domains added next: rebuilding a
    /// propagator for a formula that lost clauses then costs no allocation
    /// per clause.
    pub fn clear(&mut self) {
        self.spare.append(&mut self.clauses);
        for clause in &mut self.spare {
            clause.clear();
        }
        for occurs in &mut self.occurs {
            occurs.clear();
        }
        self.satisfied.clear();
        self.false_count.clear();
        self.assign.clear();
        self.queue.clear();
        self.implied.clear();
        self.conflict = false;
        self.order = OrderTheory::default();
    }

    /// Grows the variable tables to hold at least `n` variables.
    pub fn ensure_vars(&mut self, n: usize) {
        if self.assign.len() < n {
            self.assign.resize(n, LBool::Undef);
        }
        // A cleared propagator keeps its occurrence lists.
        if self.occurs.len() < n * 2 {
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
    ///
    /// A tautology needs no special case: whichever way its variable is
    /// assigned, the clause is satisfied before it can become unit.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        let mut clause = self.spare.pop().unwrap_or_default();
        clause.extend_from_slice(lits);
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

    /// A formula of tagged clauses that loses every clause of a tag at
    /// once (`Cnf::retain_clauses`). The propagator cannot follow a
    /// deletion, so each reading builds a new one over what is left — how
    /// the engine handles the CFD clauses an answer deletes.
    #[derive(Default)]
    struct Tagged {
        cnf: Cnf,
        tags: Vec<u32>,
    }

    impl Tagged {
        fn add(&mut self, lits: &[Lit], tag: u32) {
            self.cnf.add_clause(lits.iter().copied());
            self.tags.push(tag);
        }

        fn delete(&mut self, tag: u32) {
            let tags = &self.tags;
            self.cnf.retain_clauses(|idx| tags[idx] != tag);
            self.tags.retain(|&t| t != tag);
        }

        fn propagator(&self) -> UnitPropagator {
            UnitPropagator::new(&self.cnf)
        }
    }

    #[test]
    fn retracted_groups_never_propagate() {
        // Tag 1: a → b, b → c. Tag 0: a. Once tag 1's clauses are deleted,
        // b and c must no longer be implied, though a propagator over the
        // whole formula derived them.
        let (a, b, c) = (Var(0), Var(1), Var(2));
        let mut f = Tagged::default();
        f.add(&[a.positive()], 0);
        f.add(&[a.negative(), b.positive()], 1);
        f.add(&[b.negative(), c.positive()], 1);
        assert_eq!(
            fixpoint(&mut f.propagator()),
            Some(vec![a.positive(), b.positive(), c.positive()])
        );
        f.delete(1);
        assert_eq!(
            fixpoint(&mut f.propagator()),
            Some(vec![a.positive()]),
            "the deleted clauses' consequences must vanish"
        );
    }

    #[test]
    fn retraction_clears_group_conflicts() {
        let a = Var(0);
        let mut f = Tagged::default();
        f.add(&[a.positive()], 0);
        f.add(&[a.negative()], 7);
        assert_eq!(fixpoint(&mut f.propagator()), None);
        f.delete(7);
        assert_eq!(
            fixpoint(&mut f.propagator()),
            Some(vec![a.positive()]),
            "the conflict must go with its clauses"
        );
    }

    #[test]
    fn clauses_added_after_retraction_propagate() {
        // A propagator built after a deletion is incremental like any
        // other: clauses added to it later propagate from its fixpoint.
        let (a, b) = (Var(0), Var(1));
        let mut f = Tagged::default();
        f.add(&[a.positive()], 1);
        assert!(fixpoint(&mut f.propagator()).is_some());
        f.delete(1);
        f.add(&[a.negative()], 2);
        let mut up = f.propagator();
        assert_eq!(fixpoint(&mut up), Some(vec![a.negative()]));
        up.add_clause(&[a.positive(), b.positive()]);
        assert_eq!(fixpoint(&mut up), Some(vec![a.negative(), b.positive()]));
    }

    #[test]
    fn rederivation_through_another_group_survives_replay() {
        // `a` is implied by clauses of two tags. Deleting one tag must keep
        // `a` derivable through the other; only deleting both removes it.
        let (a, b) = (Var(0), Var(1));
        let mut f = Tagged::default();
        f.add(&[a.positive()], 1);
        f.add(&[a.positive()], 2);
        f.add(&[a.negative(), b.positive()], 0); // a → b
        assert!(fixpoint(&mut f.propagator())
            .unwrap()
            .contains(&b.positive()));
        f.delete(2);
        let implied = fixpoint(&mut f.propagator()).unwrap();
        assert!(implied.contains(&a.positive()), "tag 1 still implies a");
        assert!(implied.contains(&b.positive()));
        f.delete(1);
        let implied = fixpoint(&mut f.propagator()).unwrap();
        assert!(implied.is_empty(), "both supports deleted: {implied:?}");
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
        // Random clause/tag mixes, deleted tag by tag: after every deletion
        // a propagator over the compacted formula, new or cleared and
        // refilled, must reach the fixpoint of one built from the surviving
        // clauses directly.
        let tags: [u32; 6] = [0, 1, 2, 5, 63, 66];
        for seed in 1..60u64 {
            let mut r = Xorshift(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
            let num_vars = 4 + r.below(16) as u32;
            let num_clauses = 6 + r.below(50) as usize;
            let mut f = Tagged::default();
            let mut clauses: Vec<(Vec<Lit>, u32)> = Vec::new();
            for _ in 0..num_clauses {
                let len = 1 + r.below(3) as usize;
                let lits: Vec<Lit> = (0..len)
                    .map(|_| Var(r.below(num_vars as u64) as u32).lit(r.below(2) == 0))
                    .collect();
                let tag = tags[r.below(tags.len() as u64) as usize];
                f.add(&lits, tag);
                clauses.push((lits, tag));
            }
            let mut deleted: Vec<u32> = Vec::new();
            let mut cleared = f.propagator();
            let _ = fixpoint(&mut cleared);
            let sorted = |mut lits: Vec<Lit>| {
                lits.sort_unstable();
                lits
            };
            for &tag in &tags[1..] {
                f.delete(tag);
                deleted.push(tag);
                let mut fresh = UnitPropagator::new(&Cnf::new());
                for (lits, t) in &clauses {
                    if !deleted.contains(t) {
                        fresh.add_clause(lits);
                    }
                }
                let want = fixpoint(&mut fresh).map(sorted);
                assert_eq!(
                    fixpoint(&mut f.propagator()).map(sorted),
                    want,
                    "fixpoint diverged (seed {seed}, deleted {deleted:?})"
                );
                cleared.clear();
                for clause in f.cnf.clauses() {
                    cleared.add_clause(clause);
                }
                assert_eq!(
                    fixpoint(&mut cleared).map(sorted),
                    want,
                    "cleared propagator diverged (seed {seed}, deleted {deleted:?})"
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
