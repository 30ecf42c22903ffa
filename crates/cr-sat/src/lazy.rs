//! Lazy (on-demand) axiom instantiation — the solver side of lazy clause
//! generation à la SMT theory propagation.
//!
//! Large axiom schemes (the conflict-resolution encoder's `O(n³)`
//! transitivity clauses per attribute) usually constrain only a thin slice
//! of the search. Instead of materialising every instance up front, a
//! consumer registers a [`LazyAxiomSource`] — an oracle that, shown a
//! candidate assignment, returns the axiom instances the candidate violates
//! (or that have become unit under it). Two drivers integrate the oracle:
//!
//! * [`Solver::solve_lazy_with_assumptions`] runs the classic
//!   counterexample-guided loop: solve, show the model to the source, add
//!   the returned clauses, re-solve — until the model satisfies the full
//!   theory (`Sat`) or the accumulated formula is contradictory (`Unsat`).
//! * [`UnitPropagator::propagate_to_fixpoint_lazy`] interleaves root-level
//!   propagation with instantiation: after each fixpoint the source sees the
//!   literals assigned since its previous consultation and returns every
//!   axiom clause that is now unit or conflicting; propagation resumes until
//!   neither units nor instantiations remain. The combined fixpoint equals
//!   unit propagation over the fully materialised axiom set: any eager
//!   propagation step uses a clause that is unit under the partial
//!   assignment, and exactly those clauses are handed over on demand.
//!
//! The oracle sees the candidate through an [`Assignment`] view — the
//! caller's own assignment storage borrowed as a slice, so a source can
//! copy what it needs into its own scan structures (the conflict-resolution
//! encoder reads it into per-value bit rows once per consultation) — and
//! appends its clauses to a flat [`ClauseBuffer`] the caller reuses across
//! consultations, so handing over thousands of instances allocates nothing
//! per clause.
//!
//! Axiom instances injected this way are ordinary **problem clauses**: they
//! are theory-valid regardless of any retractable clause group, so they are
//! never guarded, survive group retraction (the propagator's
//! `retract_groups`, the solver's persistent-assumption changes), and are
//! exempt from learnt-database sweeps ([`Solver::compact_learnts`] only
//! deletes learnt clauses). A propagator retraction re-derives the fixpoint
//! and shows it to the source whole, so a delta-scoped source revisits
//! every instance the retraction may have re-opened.
//!
//! [`Solver::solve_lazy_with_assumptions`]: crate::Solver::solve_lazy_with_assumptions
//! [`UnitPropagator::propagate_to_fixpoint_lazy`]: crate::UnitPropagator::propagate_to_fixpoint_lazy
//! [`Solver::compact_learnts`]: crate::Solver::compact_learnts

use crate::lit::{LBool, Lit, Var};

/// A read-only view of the candidate assignment shown to a
/// [`LazyAxiomSource`]: the consulting solver's own assignment storage,
/// borrowed as a slice. Sources read it by [`Assignment::value`] — a slice
/// load, not a virtual call — which lets them copy the values an axiom
/// scheme needs into their own bit rows once per consultation.
#[derive(Clone, Copy, Debug)]
pub enum Assignment<'a> {
    /// Three-valued: the solver's model or the propagator's root
    /// assignment (`LBool::Undef` = unassigned).
    Lifted(&'a [LBool]),
    /// Two-valued: a total model from a solver that has no unassigned
    /// state (e.g. a MaxSAT assignment).
    Total(&'a [bool]),
}

impl Assignment<'_> {
    /// The candidate truth of `v` (`None` = unassigned, including every
    /// variable beyond the viewed slice).
    #[inline]
    pub fn value(&self, v: Var) -> Option<bool> {
        match self {
            Assignment::Lifted(s) => s.get(v.index()).and_then(|b| b.to_option()),
            Assignment::Total(s) => s.get(v.index()).copied(),
        }
    }
}

/// A flat, reusable buffer of clauses: every clause's literals are
/// appended to one arena, so handing over `k` axiom instances costs no
/// per-clause allocation. Callers keep one buffer per loop and clear it
/// before each consultation.
#[derive(Clone, Debug, Default)]
pub struct ClauseBuffer {
    lits: Vec<Lit>,
    /// End offset (exclusive) of each clause in `lits`.
    ends: Vec<u32>,
}

impl ClauseBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one clause.
    #[inline]
    pub fn push(&mut self, clause: &[Lit]) {
        self.lits.extend_from_slice(clause);
        self.ends.push(self.lits.len() as u32);
    }

    /// Number of clauses held.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True iff the buffer holds no clause.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Removes every clause, keeping the allocations.
    pub fn clear(&mut self) {
        self.lits.clear();
        self.ends.clear();
    }

    /// Clause `i` (in push order).
    pub fn clause(&self, i: usize) -> &[Lit] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.lits[start..self.ends[i] as usize]
    }

    /// The clauses from index `from` on, in push order.
    pub fn iter_from(&self, from: usize) -> impl Iterator<Item = &[Lit]> + '_ {
        (from..self.len()).map(move |i| self.clause(i))
    }

    /// All clauses, in push order.
    pub fn iter(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        self.iter_from(0)
    }
}

/// An oracle for on-demand axiom instantiation (see the module docs).
///
/// Implementors must guarantee two properties for the drivers to be sound
/// and terminating:
///
/// 1. **Validity** — every returned clause is entailed by the intended
///    theory (it may only cut assignments that no theory model has), and
/// 2. **Completeness at fixpoint** — if the candidate assignment satisfies
///    every instantiable axiom, nothing is returned; conversely a violated
///    (or, for partial candidates, unit) axiom not yet known to the caller
///    must eventually be returned. Since callers add everything handed to
///    them and their candidates satisfy all clauses they hold, returning
///    only *currently violated/unit* clauses never repeats work.
pub trait LazyAxiomSource {
    /// Inspects a candidate assignment and appends the axiom clauses it
    /// violates (or that are unit under it) to `out`.
    ///
    /// `assignment` is a view of the candidate (see [`Assignment`]);
    /// it does not change during the call, so a source may read it once
    /// into its own scan structures. `delta` is `Some(lits)` when the
    /// caller knows exactly which literals were assigned since this source
    /// was last consulted — root-level unit propagation passes its
    /// implied-literal tail, so the source may restrict attention to axioms
    /// touching those variables. `None` means the candidate is a fresh
    /// total model and everything must be inspected.
    ///
    /// Callers pass an empty `out`, reused across consultations, and add
    /// whatever it holds afterwards; an empty `out` means the candidate
    /// satisfies the theory.
    fn instantiate(
        &mut self,
        assignment: Assignment<'_>,
        delta: Option<&[Lit]>,
        out: &mut ClauseBuffer,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Cnf;
    use crate::solver::{SolveResult, Solver};
    use crate::unit_propagation::UnitPropagator;

    /// A toy theory: "x0, x1, x2 may not all be true" plus "x0 → x3",
    /// instantiated lazily. Mirrors the shape of the order-axiom source
    /// (violation detection from the candidate assignment only).
    struct ToySource {
        calls: usize,
    }

    impl LazyAxiomSource for ToySource {
        fn instantiate(
            &mut self,
            assignment: Assignment<'_>,
            _delta: Option<&[Lit]>,
            out: &mut ClauseBuffer,
        ) {
            self.calls += 1;
            let value = |v: Var| assignment.value(v);
            // ¬x0 ∨ ¬x1 ∨ ¬x2: inject when no literal is true and at most
            // one variable is unassigned.
            let vals = [value(Var(0)), value(Var(1)), value(Var(2))];
            let trues = vals.iter().filter(|v| **v == Some(true)).count();
            let unassigned = vals.iter().filter(|v| v.is_none()).count();
            if trues + unassigned == 3 && unassigned <= 1 {
                out.push(&[Var(0).negative(), Var(1).negative(), Var(2).negative()]);
            }
            // x0 → x3.
            if value(Var(0)) == Some(true) && value(Var(3)) != Some(true) {
                out.push(&[Var(0).negative(), Var(3).positive()]);
            }
        }
    }

    #[test]
    fn solver_cegar_loop_reaches_theory_model() {
        let mut s = Solver::new();
        for _ in 0..4 {
            s.new_var();
        }
        // Base formula pushes toward the violation: x0 ∧ x1.
        s.add_clause([Var(0).positive()]);
        s.add_clause([Var(1).positive()]);
        let mut src = ToySource { calls: 0 };
        assert_eq!(s.solve_lazy(&mut src), SolveResult::Sat);
        // The final model satisfies the full theory.
        assert_eq!(s.model_value(Var(2)), Some(false));
        assert_eq!(s.model_value(Var(3)), Some(true));
        assert!(src.calls >= 2, "at least one refinement round");
    }

    #[test]
    fn solver_cegar_loop_detects_theory_unsat() {
        let mut s = Solver::new();
        for _ in 0..4 {
            s.new_var();
        }
        for v in [0u32, 1, 2] {
            s.add_clause([Var(v).positive()]);
        }
        let mut src = ToySource { calls: 0 };
        assert_eq!(s.solve_lazy(&mut src), SolveResult::Unsat);
    }

    #[test]
    fn solver_lazy_respects_assumptions_and_stays_reusable() {
        let mut s = Solver::new();
        for _ in 0..4 {
            s.new_var();
        }
        let mut src = ToySource { calls: 0 };
        // Assume x0, x1: theory forces ¬x2 (and x3).
        let a = [Var(0).positive(), Var(1).positive()];
        assert_eq!(
            s.solve_lazy_with_assumptions(&a, &mut src),
            SolveResult::Sat
        );
        assert_eq!(s.model_value(Var(2)), Some(false));
        // Probing the forced literal is now Unsat under the assumptions.
        let b = [Var(0).positive(), Var(1).positive(), Var(2).positive()];
        assert_eq!(
            s.solve_lazy_with_assumptions(&b, &mut src),
            SolveResult::Unsat
        );
        // Without assumptions everything is satisfiable again.
        assert_eq!(s.solve_lazy(&mut src), SolveResult::Sat);
    }

    #[test]
    fn injected_axioms_survive_learnt_compaction() {
        let mut s = Solver::new();
        for _ in 0..4 {
            s.new_var();
        }
        s.add_clause([Var(0).positive()]);
        s.add_clause([Var(1).positive()]);
        let mut src = ToySource { calls: 0 };
        // Lazy probes materialise the cut and the implication.
        assert_eq!(
            s.solve_lazy_with_assumptions(&[Var(2).positive()], &mut src),
            SolveResult::Unsat
        );
        assert_eq!(
            s.solve_lazy_with_assumptions(&[Var(3).negative()], &mut src),
            SolveResult::Unsat
        );
        // A zero-cap sweep deletes every unlocked long learnt clause but
        // must not touch the injected problem clauses: the same probes stay
        // Unsat *without* consulting the source again.
        s.compact_learnts(0);
        assert_eq!(
            s.solve_with_assumptions(&[Var(2).positive()]),
            SolveResult::Unsat,
            "injected ¬x0∨¬x1∨¬x2 must survive the sweep"
        );
        assert_eq!(
            s.solve_with_assumptions(&[Var(3).negative()]),
            SolveResult::Unsat,
            "injected x0→x3 must survive the sweep"
        );
    }

    #[test]
    fn injected_axioms_survive_group_retraction() {
        // A guarded group forces x0; the lazy source then injects x0 → x3.
        // Retracting the group frees x0 but the axiom itself must remain:
        // re-asserting x0 by assumption still forces x3.
        let mut s = Solver::new();
        for _ in 0..4 {
            s.new_var();
        }
        let g = s.new_var();
        s.add_clause([g.negative(), Var(0).positive()]);
        s.add_clause([Var(1).negative()]); // keep the ToySource cut quiet
        s.set_persistent_assumptions(vec![g.positive()]);
        let mut src = ToySource { calls: 0 };
        assert_eq!(s.solve_lazy(&mut src), SolveResult::Sat);
        assert_eq!(s.model_value(Var(3)), Some(true));
        // Retract the group.
        s.set_persistent_assumptions(Vec::new());
        s.add_clause([g.negative()]);
        // x0 is free now…
        assert_eq!(
            s.solve_with_assumptions(&[Var(0).negative()]),
            SolveResult::Sat
        );
        // …but the injected implication is permanent.
        assert_eq!(
            s.solve_with_assumptions(&[Var(0).positive(), Var(3).negative()]),
            SolveResult::Unsat
        );
    }

    #[test]
    fn up_lazy_fixpoint_matches_eager_propagation() {
        // Base: x0, x1. Lazy theory: the ToySource cut + implication. The
        // combined fixpoint must derive ¬x2 and x3 exactly as if the axioms
        // had been present from the start.
        let mut cnf = Cnf::new();
        for _ in 0..4 {
            cnf.new_var();
        }
        cnf.add_clause([Var(0).positive()]);
        cnf.add_clause([Var(1).positive()]);
        let mut up = UnitPropagator::new(&cnf);
        let mut src = ToySource { calls: 0 };
        let implied = up
            .propagate_to_fixpoint_lazy(&mut src)
            .expect("consistent")
            .to_vec();
        assert!(implied.contains(&Var(2).negative()));
        assert!(implied.contains(&Var(3).positive()));
    }

    #[test]
    fn up_lazy_consults_only_the_delta() {
        struct DeltaRecorder {
            seen: Vec<Vec<Lit>>,
        }
        impl LazyAxiomSource for DeltaRecorder {
            fn instantiate(
                &mut self,
                _assignment: Assignment<'_>,
                delta: Option<&[Lit]>,
                _out: &mut ClauseBuffer,
            ) {
                self.seen
                    .push(delta.expect("UP always passes a delta").to_vec());
            }
        }
        let mut up = UnitPropagator::new(&Cnf::new());
        up.add_clause(&[Var(0).positive()]);
        let mut src = DeltaRecorder { seen: Vec::new() };
        up.propagate_to_fixpoint_lazy(&mut src).unwrap();
        assert_eq!(src.seen, vec![vec![Var(0).positive()]]);
        // A later run only reports the new assignments.
        up.add_clause(&[Var(1).positive()]);
        up.propagate_to_fixpoint_lazy(&mut src).unwrap();
        assert_eq!(src.seen.last().unwrap(), &vec![Var(1).positive()]);
    }

    #[test]
    fn up_lazy_redelivers_delta_after_retraction() {
        // Retraction resets the propagator's assignment, so the re-derived
        // fixpoint must be handed to the source from scratch — the
        // regression guard for axiom re-derivation after `retract_groups`.
        struct Chain;
        impl LazyAxiomSource for Chain {
            fn instantiate(
                &mut self,
                assignment: Assignment<'_>,
                _delta: Option<&[Lit]>,
                out: &mut ClauseBuffer,
            ) {
                // Theory: x0 → x1.
                let value = |v: Var| assignment.value(v);
                if value(Var(0)) == Some(true) && value(Var(1)) != Some(true) {
                    out.push(&[Var(0).negative(), Var(1).positive()]);
                }
            }
        }
        let mut up = UnitPropagator::new(&Cnf::new());
        up.add_clause_grouped(&[Var(0).positive()], 1);
        let implied = up.propagate_to_fixpoint_lazy(&mut Chain).unwrap();
        assert!(implied.contains(&Var(1).positive()));
        // Retract the group that seeded x0: both x0 and its lazily injected
        // consequence x1 must vanish…
        up.retract_groups(&[1]);
        let implied = up.propagate_to_fixpoint_lazy(&mut Chain).unwrap();
        assert!(
            implied.is_empty(),
            "retraction must clear lazy consequences"
        );
        // …and a fresh permanent x0 re-derives x1 through the (surviving)
        // injected axiom — and through re-consultation of the source.
        up.add_clause(&[Var(0).positive()]);
        let implied = up.propagate_to_fixpoint_lazy(&mut Chain).unwrap();
        assert!(implied.contains(&Var(0).positive()));
        assert!(implied.contains(&Var(1).positive()));
    }
}
