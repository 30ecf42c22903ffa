//! WalkSAT-style stochastic local search for partial MaxSAT.
//!
//! Hard clauses carry an effectively infinite weight; the search starts from
//! a hard-feasible model found by the CDCL solver, then hill-climbs on soft
//! weight with the classic WalkSAT/SKC move: pick an unsatisfied clause
//! (hard ones first), flip either a random variable in it (noise) or the
//! variable with the lowest *break count*.

use cr_sat::{Cnf, SolveResult, Solver};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use crate::instance::{clause_satisfied, MaxSatInstance, MaxSatResult};

/// Noise probability of the random-walk move.
const NOISE: f64 = 0.3;

/// Runs WalkSAT for at most `max_flips` flips. Returns `None` when the hard
/// clauses alone are unsatisfiable.
pub fn solve_walksat(
    instance: &MaxSatInstance<'_>,
    max_flips: u64,
    seed: u64,
) -> Option<MaxSatResult> {
    let n = instance.num_vars() as usize;

    // Hard feasibility and the starting point come from CDCL.
    let mut hard_cnf = Cnf::new();
    hard_cnf.ensure_vars(instance.num_vars());
    for c in instance.hard_iter() {
        hard_cnf.add_clause(c.iter().copied());
    }
    let mut sat = Solver::from_cnf(&hard_cnf);
    if sat.solve() == SolveResult::Unsat {
        return None;
    }
    let mut assignment = sat.model();
    assignment.resize(n, false);

    if instance.soft_len() == 0 || max_flips == 0 {
        return Some(MaxSatResult::from_assignment(
            instance,
            assignment,
            instance.soft_len() == 0,
        ));
    }

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut best = assignment.clone();
    let mut best_weight = instance.soft_weight(&assignment);
    let total = instance.total_soft_weight();

    // All clauses in one arena: (lits, weight, is_hard).
    struct LsClause<'a> {
        lits: &'a [cr_sat::Lit],
        weight: u64,
        hard: bool,
    }
    let clauses: Vec<LsClause> = instance
        .hard_iter()
        .map(|c| LsClause {
            lits: c,
            weight: 0,
            hard: true,
        })
        .chain(instance.soft().iter().map(|s| LsClause {
            lits: s.lits.as_slice(),
            weight: s.weight,
            hard: false,
        }))
        .collect();

    for _ in 0..max_flips {
        if best_weight == total {
            break; // everything satisfiable is satisfied
        }
        // Collect unsatisfied clauses; prefer hard ones if any exist.
        let unsat_hard: Vec<usize> = clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.hard && !clause_satisfied(c.lits, &assignment))
            .map(|(i, _)| i)
            .collect();
        let pool: Vec<usize> = if unsat_hard.is_empty() {
            clauses
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.hard && !clause_satisfied(c.lits, &assignment))
                .map(|(i, _)| i)
                .collect()
        } else {
            unsat_hard
        };
        let Some(&ci) = pool.choose(&mut rng) else {
            break; // fully satisfied
        };
        let clause = &clauses[ci];
        if clause.lits.is_empty() {
            continue;
        }
        let flip_var = if rng.gen_bool(NOISE) {
            clause.lits.choose(&mut rng).expect("non-empty").var()
        } else {
            // Minimise break: hard breaks dominate, then soft weight broken.
            let mut best_var = clause.lits[0].var();
            let mut best_cost = (u64::MAX, u64::MAX);
            for l in clause.lits {
                let v = l.var();
                assignment[v.index()] = !assignment[v.index()];
                let hard_breaks = clauses
                    .iter()
                    .filter(|c| c.hard && !clause_satisfied(c.lits, &assignment))
                    .count() as u64;
                let soft_broken: u64 = clauses
                    .iter()
                    .filter(|c| !c.hard && !clause_satisfied(c.lits, &assignment))
                    .map(|c| c.weight)
                    .sum();
                assignment[v.index()] = !assignment[v.index()];
                let cost = (hard_breaks, soft_broken);
                if cost < best_cost {
                    best_cost = cost;
                    best_var = v;
                }
            }
            best_var
        };
        assignment[flip_var.index()] = !assignment[flip_var.index()];

        if instance.hard_satisfied(&assignment) {
            let w = instance.soft_weight(&assignment);
            if w > best_weight {
                best_weight = w;
                best = assignment.clone();
            }
        }
    }
    Some(MaxSatResult::from_assignment(
        instance,
        best,
        best_weight == total,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_sat::Var;

    #[test]
    fn finds_full_satisfaction_when_possible() {
        let mut inst = MaxSatInstance::new(3);
        inst.add_hard([Var(0).positive(), Var(1).positive()]);
        inst.add_soft([Var(2).positive()], 5);
        inst.add_soft([Var(0).positive()], 2);
        let res = solve_walksat(&inst, 20_000, 11).unwrap();
        assert_eq!(res.total_weight, 7);
        assert!(res.optimal);
        assert!(inst.hard_satisfied(&res.assignment));
    }

    #[test]
    fn respects_hard_over_heavy_soft() {
        // Hard forces ¬x0; a heavy soft clause wants x0. Weight must stay 0
        // for that clause.
        let mut inst = MaxSatInstance::new(2);
        inst.add_hard([Var(0).negative()]);
        inst.add_soft([Var(0).positive()], 100);
        inst.add_soft([Var(1).positive()], 1);
        let res = solve_walksat(&inst, 20_000, 5).unwrap();
        assert!(!res.assignment[0]);
        assert_eq!(res.total_weight, 1);
    }

    #[test]
    fn weighted_tradeoff_prefers_heavier() {
        // x0 xor-ish conflict between two softs: w=10 beats w=1.
        let mut inst = MaxSatInstance::new(1);
        inst.add_soft([Var(0).positive()], 10);
        inst.add_soft([Var(0).negative()], 1);
        let res = solve_walksat(&inst, 5_000, 17).unwrap();
        assert_eq!(res.total_weight, 10);
        assert!(res.assignment[0]);
    }

    #[test]
    fn zero_flip_budget_still_feasible() {
        let mut inst = MaxSatInstance::new(1);
        inst.add_hard([Var(0).positive()]);
        inst.add_soft([Var(0).negative()], 1);
        let res = solve_walksat(&inst, 0, 1).unwrap();
        assert!(inst.hard_satisfied(&res.assignment));
    }
}
