//! Partial MaxSAT: maximise the weight of satisfied *soft* clauses subject
//! to all *hard* clauses holding.
//!
//! The paper's `GetSug` procedure (Section V-C) uses a MaxSAT solver \[24\]
//! (WalkSAT) to find a maximum subset of clique-selected derivation rules
//! that has no conflicts with the specification `Se`. This crate supplies:
//!
//! * [`exact`] — the solver the resolution engine uses: complete for
//!   unit-weight instances, it runs the CDCL solver from `cr-sat` with a
//!   sequential-counter cardinality encoding and one assumption per bound
//!   on the number of dropped soft clauses; [`exact::maximize`] runs the
//!   search on a caller's solver that already holds the hard clauses (for
//!   example one with a registered order theory), and
//! * [`walksat`] — a WalkSAT/SKC-style stochastic local search that treats
//!   hard clauses as infinitely heavy and tracks the best *feasible*
//!   assignment seen; [`exact::solve_exact`] falls back to it for weighted
//!   instances.

pub mod exact;
pub mod instance;
pub mod walksat;

pub use instance::{MaxSatInstance, MaxSatResult};

#[cfg(test)]
mod tests {
    use super::*;
    use cr_sat::Var;

    /// Hard: x0 ⊕ x1 (as CNF); soft: x0, x1, ¬x0. Optimum satisfies 2 of 3.
    fn small_instance() -> MaxSatInstance {
        let mut inst = MaxSatInstance::new(2);
        inst.add_hard([Var(0).positive(), Var(1).positive()]);
        inst.add_hard([Var(0).negative(), Var(1).negative()]);
        inst.add_soft([Var(0).positive()], 1);
        inst.add_soft([Var(1).positive()], 1);
        inst.add_soft([Var(0).negative()], 1);
        inst
    }

    #[test]
    fn exact_and_walksat_agree_on_optimum() {
        let inst = small_instance();
        for (name, res) in [
            ("exact", exact::solve_exact(&inst)),
            ("walksat", walksat::solve_walksat(&inst, 10_000, 1)),
        ] {
            let res = res.expect("hard clauses satisfiable");
            assert_eq!(res.total_weight, 2, "{name}");
            assert!(inst.hard_satisfied(&res.assignment));
        }
    }

    #[test]
    fn infeasible_hard_clauses_return_none() {
        let mut inst = MaxSatInstance::new(1);
        inst.add_hard([Var(0).positive()]);
        inst.add_hard([Var(0).negative()]);
        inst.add_soft([Var(0).positive()], 1);
        assert!(exact::solve_exact(&inst).is_none());
        assert!(walksat::solve_walksat(&inst, 1000, 3).is_none());
    }

    #[test]
    fn no_soft_clauses_is_plain_sat() {
        let mut inst = MaxSatInstance::new(1);
        inst.add_hard([Var(0).positive()]);
        let res = exact::solve_exact(&inst).unwrap();
        assert_eq!(res.total_weight, 0);
        assert!(res.assignment[0]);
    }
}
