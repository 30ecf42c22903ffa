//! Property tests: exact MaxSAT vs brute force; WalkSAT feasibility and
//! bound.

use proptest::prelude::*;

use cr_maxsat::exact::solve_exact;
use cr_maxsat::walksat::solve_walksat;
use cr_maxsat::MaxSatInstance;
use cr_sat::Var;

#[derive(Clone, Debug)]
struct Inst {
    num_vars: u32,
    hard: Vec<Vec<i32>>,
    soft: Vec<Vec<i32>>,
}

fn to_instance(inst: &Inst) -> MaxSatInstance {
    let mut out = MaxSatInstance::new(inst.num_vars);
    for c in &inst.hard {
        out.add_hard(c.iter().map(|&l| lit(l, inst.num_vars)));
    }
    for c in &inst.soft {
        out.add_soft(c.iter().map(|&l| lit(l, inst.num_vars)), 1);
    }
    out
}

fn lit(code: i32, num_vars: u32) -> cr_sat::Lit {
    let var = Var((code.unsigned_abs() - 1) % num_vars);
    var.lit(code > 0)
}

/// Brute-force optimum: `None` if hard clauses are unsatisfiable.
fn brute_force(inst: &MaxSatInstance) -> Option<u64> {
    let n = inst.num_vars();
    let mut best: Option<u64> = None;
    for mask in 0u64..(1 << n) {
        let assignment: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
        if inst.hard_satisfied(&assignment) {
            let w = inst.soft_weight(&assignment);
            best = Some(best.map_or(w, |b: u64| b.max(w)));
        }
    }
    best
}

fn inst_strategy() -> impl Strategy<Value = Inst> {
    let clause = prop::collection::vec(
        (1i32..=6).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]),
        1..4,
    );
    (
        2u32..7,
        prop::collection::vec(clause.clone(), 0..6),
        prop::collection::vec(clause, 1..8),
    )
        .prop_map(|(num_vars, hard, soft)| Inst {
            num_vars,
            hard,
            soft,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn exact_matches_brute_force(inst in inst_strategy()) {
        let instance = to_instance(&inst);
        let expected = brute_force(&instance);
        match solve_exact(&instance) {
            None => prop_assert_eq!(expected, None),
            Some(result) => {
                prop_assert!(result.optimal);
                prop_assert!(instance.hard_satisfied(&result.assignment));
                prop_assert_eq!(Some(result.total_weight), expected);
                // satisfied_soft flags are consistent with the weight.
                let recount: u64 = instance
                    .soft()
                    .iter()
                    .zip(&result.satisfied_soft)
                    .filter(|(_, s)| **s)
                    .map(|(c, _)| c.weight)
                    .sum();
                prop_assert_eq!(recount, result.total_weight);
            }
        }
    }

    #[test]
    fn walksat_is_feasible_and_bounded(inst in inst_strategy()) {
        let instance = to_instance(&inst);
        let expected = brute_force(&instance);
        match solve_walksat(&instance, 3000, 7) {
            None => prop_assert_eq!(expected, None),
            Some(result) => {
                prop_assert!(instance.hard_satisfied(&result.assignment));
                prop_assert!(Some(result.total_weight) <= expected);
            }
        }
    }
}
