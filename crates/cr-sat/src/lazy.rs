//! Lazy (on-demand) axiom instantiation for the CDCL solver — the
//! counterexample-guided refinement (CEGAR) loop.
//!
//! Large axiom schemes (the conflict-resolution encoder's `O(n³)`
//! transitivity clauses per attribute) usually constrain only a thin slice
//! of the search. Instead of materialising every instance up front, a
//! consumer hands the solver a [`LazyAxiomSource`] — an oracle that, shown
//! a candidate model, returns the axiom instances the model violates.
//! There is one consultation driver:
//! [`Solver::solve_lazy_with_assumptions`] solves, shows the model to the
//! source, adds the returned clauses and re-solves, until the model
//! satisfies the full theory (`Sat`) or the accumulated formula is
//! contradictory (`Unsat`).
//!
//! Root-level unit propagation needs no oracle: the order axioms are a
//! theory inside [`UnitPropagator`] ([`crate::order`]), which derives
//! their consequences as literals are assigned, so its fixpoint equals
//! unit propagation over the fully materialised axiom set.
//!
//! The oracle sees the candidate through an [`Assignment`] view — the
//! solver's own model storage borrowed as a slice, so a source can copy
//! what it needs into its own scan structures (the conflict-resolution
//! encoder reads it into per-value bit rows once per consultation) — and
//! appends its clauses to a flat [`ClauseBuffer`] the solver reuses across
//! consultations, so handing over thousands of instances allocates nothing
//! per clause.
//!
//! Axiom instances injected this way are ordinary **problem clauses**: they
//! are theory-valid whatever else the formula holds, and are exempt from
//! learnt-database sweeps ([`Solver::compact_learnts`] only deletes learnt
//! clauses).
//!
//! [`Solver::solve_lazy_with_assumptions`]: crate::Solver::solve_lazy_with_assumptions
//! [`Solver::compact_learnts`]: crate::Solver::compact_learnts
//! [`UnitPropagator`]: crate::UnitPropagator

use crate::lit::{LBool, Lit, Var};

/// A read-only view of the candidate assignment shown to a
/// [`LazyAxiomSource`]: the consulting solver's own assignment storage,
/// borrowed as a slice. Sources read it by [`Assignment::value`] — a slice
/// load, not a virtual call — which lets them copy the values an axiom
/// scheme needs into their own bit rows once per consultation.
#[derive(Clone, Copy, Debug)]
pub enum Assignment<'a> {
    /// Three-valued: the solver's model (`LBool::Undef` = unassigned).
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
/// 2. **Completeness** — if the candidate model satisfies every axiom,
///    nothing is returned; otherwise at least one violated axiom is.
///    Since the solver adds everything handed to it and its models satisfy
///    all clauses it holds, returning only *currently violated* clauses
///    never repeats work.
pub trait LazyAxiomSource {
    /// Inspects a candidate model and appends the axiom clauses it
    /// violates to `out`.
    ///
    /// `assignment` is a view of the candidate (see [`Assignment`]); it
    /// does not change during the call, so a source may read it once into
    /// its own scan structures. Callers pass an empty `out`, reused across
    /// consultations, and add whatever it holds afterwards; an empty `out`
    /// means the candidate satisfies the theory.
    fn instantiate(&mut self, assignment: Assignment<'_>, out: &mut ClauseBuffer);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SolveResult, Solver};

    /// A toy theory: "x0, x1, x2 may not all be true" plus "x0 → x3",
    /// instantiated lazily. Mirrors the shape of the order-axiom source
    /// (violation detection from the candidate assignment only).
    struct ToySource {
        calls: usize,
    }

    impl LazyAxiomSource for ToySource {
        fn instantiate(&mut self, assignment: Assignment<'_>, out: &mut ClauseBuffer) {
            self.calls += 1;
            let value = |v: Var| assignment.value(v);
            // ¬x0 ∨ ¬x1 ∨ ¬x2: inject when no literal is true and at most
            // one variable is unassigned (unassigned model slots).
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
}
