//! Randomised cross-check: CDCL answers must match brute-force enumeration
//! on small random k-SAT instances, and reported models must satisfy the
//! formula.

use cr_sat::{Cnf, SolveResult, Solver};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Brute-force satisfiability by enumerating all assignments.
fn brute_force_sat(cnf: &Cnf) -> bool {
    let n = cnf.num_vars();
    assert!(n <= 20, "brute force capped at 20 vars");
    (0..(1u64 << n)).any(|bits| {
        let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        cnf.eval(&assignment)
    })
}

fn random_cnf(rng: &mut impl Rng, num_vars: u32, num_clauses: usize, max_len: usize) -> Cnf {
    let mut cnf = Cnf::new();
    cnf.ensure_vars(num_vars);
    for _ in 0..num_clauses {
        let len = rng.gen_range(1..=max_len);
        let clause: Vec<_> = (0..len)
            .map(|_| cr_sat::Var(rng.gen_range(0..num_vars)).lit(rng.gen_bool(0.5)))
            .collect();
        cnf.add_clause(clause);
    }
    cnf
}

#[test]
fn cdcl_agrees_with_brute_force_on_random_instances() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE);
    for round in 0..300 {
        let num_vars = rng.gen_range(3..=10);
        // Around the 4.26 clause/var hard region and beyond.
        let num_clauses = rng.gen_range(1..=(num_vars as usize * 6));
        let cnf = random_cnf(&mut rng, num_vars, num_clauses, 3);
        let expected = brute_force_sat(&cnf);
        let mut solver = Solver::from_cnf(&cnf);
        match solver.solve() {
            SolveResult::Sat => {
                assert!(
                    expected,
                    "round {round}: solver said SAT, brute force says UNSAT"
                );
                let model = solver.model();
                assert!(
                    cnf.eval(&model),
                    "round {round}: model does not satisfy formula"
                );
            }
            SolveResult::Unsat => {
                assert!(
                    !expected,
                    "round {round}: solver said UNSAT, brute force says SAT"
                );
            }
        }
    }
}

#[test]
fn assumptions_agree_with_clause_addition() {
    // solve_with_assumptions([l]) must match solving cnf + unit clause l.
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    for _ in 0..150 {
        let num_vars = rng.gen_range(3..=8);
        let num_clauses = rng.gen_range(1..=num_vars as usize * 5);
        let cnf = random_cnf(&mut rng, num_vars, num_clauses, 3);
        let lit = cr_sat::Var(rng.gen_range(0..num_vars)).lit(rng.gen_bool(0.5));

        let mut augmented = cnf.clone();
        augmented.add_clause([lit]);
        let expected = brute_force_sat(&augmented);

        let mut solver = Solver::from_cnf(&cnf);
        let got = solver.solve_with_assumptions(&[lit]);
        assert_eq!(got == SolveResult::Sat, expected);

        // The solver must remain reusable and consistent afterwards.
        let base = brute_force_sat(&cnf);
        assert_eq!(solver.solve() == SolveResult::Sat, base);
    }
}

#[test]
fn unit_propagation_literals_are_implied() {
    // Every literal DeduceOrder-style propagation derives (the root trail of
    // a solver that never searched) must hold in every model of the formula.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for _ in 0..150 {
        let num_vars = rng.gen_range(3..=8);
        let num_clauses = rng.gen_range(1..=num_vars as usize * 4);
        let cnf = random_cnf(&mut rng, num_vars, num_clauses, 3);
        let solver = Solver::from_cnf(&cnf);
        match solver.root_trail() {
            None => {
                assert!(!brute_force_sat(&cnf), "UP conflict on satisfiable formula");
            }
            Some(implied) => {
                let n = cnf.num_vars();
                for bits in 0..(1u64 << n) {
                    let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                    if cnf.eval(&assignment) {
                        for l in implied {
                            assert_eq!(
                                assignment[l.var().index()],
                                l.is_positive(),
                                "UP-implied literal violated by a model"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn repeated_assumption_probes_stay_consistent() {
    // NaiveDeduce-style usage: many single-literal assumption probes on one
    // solver instance.
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let cnf = random_cnf(&mut rng, 9, 25, 3);
    let mut solver = Solver::from_cnf(&cnf);
    for var in 0..9 {
        for sign in [true, false] {
            let lit = cr_sat::Var(var).lit(sign);
            let mut augmented = cnf.clone();
            augmented.add_clause([lit]);
            let expected = brute_force_sat(&augmented);
            let got = solver.solve_with_assumptions(&[lit]) == SolveResult::Sat;
            assert_eq!(got, expected, "probe {lit:?}");
        }
    }
}
