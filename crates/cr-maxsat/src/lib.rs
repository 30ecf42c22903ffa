//! Partial MaxSAT: maximise the weight of satisfied *soft* clauses subject
//! to all *hard* clauses holding.
//!
//! The paper's `GetSug` procedure (Section V-C) uses a MaxSAT solver \[24\]
//! (WalkSAT) to find a maximum subset of clique-selected derivation rules
//! that has no conflicts with the specification `Se`. This crate supplies:
//!
//! * [`walksat`] — a WalkSAT/SKC-style stochastic local search that treats
//!   hard clauses as infinitely heavy and tracks the best *feasible*
//!   assignment seen, and
//! * [`exact`] — a complete solver for unit-weight instances that wraps the
//!   CDCL solver from `cr-sat` with a sequential-counter cardinality
//!   encoding, searching downward on the number of satisfied soft clauses.
//!
//! [`solve`] picks exact for small instances and local search otherwise;
//! [`exact::solve_exact_with`] solves exactly over solvers a caller
//! prepares (for example with a registered order theory).

pub mod exact;
pub mod instance;
pub mod walksat;

pub use instance::{MaxSatInstance, MaxSatResult};

/// Largest unit-weight soft-clause count [`solve`] still solves exactly.
const EXACT_SOFT_LIMIT: usize = 96;
/// WalkSAT flip budget of [`solve`] beyond the exact limit.
const WALKSAT_FLIPS: u64 = 200_000;
/// WalkSAT seed of [`solve`].
const WALKSAT_SEED: u64 = 0x5EED;

/// Solves a partial MaxSAT instance: exactly when it has at most 96 soft
/// clauses, all of unit weight, and otherwise by WalkSAT local search
/// (200,000 flips, seed `0x5EED`). Returns `None` when the hard clauses alone are
/// unsatisfiable.
pub fn solve(instance: &MaxSatInstance<'_>) -> Option<MaxSatResult> {
    if instance.soft_len() <= EXACT_SOFT_LIMIT && instance.has_unit_weights() {
        exact::solve_exact(instance)
    } else {
        walksat::solve_walksat(instance, WALKSAT_FLIPS, WALKSAT_SEED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_sat::Var;

    /// Hard: x0 ⊕ x1 (as CNF); soft: x0, x1, ¬x0. Optimum satisfies 2 of 3.
    fn small_instance() -> MaxSatInstance<'static> {
        let mut inst = MaxSatInstance::new(2);
        inst.add_hard([Var(0).positive(), Var(1).positive()]);
        inst.add_hard([Var(0).negative(), Var(1).negative()]);
        inst.add_soft([Var(0).positive()], 1);
        inst.add_soft([Var(1).positive()], 1);
        inst.add_soft([Var(0).negative()], 1);
        inst
    }

    #[test]
    fn auto_exact_and_walksat_agree_on_optimum() {
        let inst = small_instance();
        for (name, res) in [
            ("exact", exact::solve_exact(&inst)),
            ("walksat", walksat::solve_walksat(&inst, 10_000, 1)),
            ("solve", solve(&inst)),
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
        assert!(solve(&inst).is_none());
        assert!(exact::solve_exact(&inst).is_none());
        assert!(walksat::solve_walksat(&inst, 1000, 3).is_none());
    }

    #[test]
    fn no_soft_clauses_is_plain_sat() {
        let mut inst = MaxSatInstance::new(1);
        inst.add_hard([Var(0).positive()]);
        let res = solve(&inst).unwrap();
        assert_eq!(res.total_weight, 0);
        assert!(res.assignment[0]);
    }
}
