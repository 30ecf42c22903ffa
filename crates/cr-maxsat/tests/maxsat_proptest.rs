//! Property test: [`maximize`] on a solver loaded with random hard clauses
//! against brute force over the raw clause lists.

use proptest::prelude::*;

use cr_maxsat::maximize;
use cr_sat::{Lit, Solver, Var};

#[derive(Clone, Debug)]
struct Inst {
    num_vars: u32,
    hard: Vec<Vec<i32>>,
    soft: Vec<Vec<i32>>,
}

fn lit(code: i32, num_vars: u32) -> Lit {
    let var = Var((code.unsigned_abs() - 1) % num_vars);
    var.lit(code > 0)
}

fn clauses(inst: &Inst, raw: &[Vec<i32>]) -> Vec<Vec<Lit>> {
    raw.iter()
        .map(|c| c.iter().map(|&l| lit(l, inst.num_vars)).collect())
        .collect()
}

fn satisfied(clause: &[Lit], assignment: &[bool]) -> bool {
    clause
        .iter()
        .any(|l| assignment[l.var().index()] == l.is_positive())
}

/// Brute-force optimum: the most soft clauses any assignment satisfying
/// every hard clause satisfies; `None` if the hard clauses are
/// unsatisfiable.
fn brute_force(num_vars: u32, hard: &[Vec<Lit>], soft: &[Vec<Lit>]) -> Option<usize> {
    (0u64..1 << num_vars)
        .map(|mask| {
            (0..num_vars)
                .map(|i| mask >> i & 1 == 1)
                .collect::<Vec<_>>()
        })
        .filter(|a| hard.iter().all(|c| satisfied(c, a)))
        .map(|a| soft.iter().filter(|c| satisfied(c, &a)).count())
        .max()
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

    /// The model `maximize` returns satisfies every hard clause and as many
    /// soft clauses as the brute-force optimum; it is `None` exactly when
    /// no assignment satisfies the hard clauses.
    #[test]
    fn exact_matches_brute_force(inst in inst_strategy()) {
        let (hard, soft) = (clauses(&inst, &inst.hard), clauses(&inst, &inst.soft));
        let mut solver = Solver::new();
        while solver.num_vars() < inst.num_vars {
            solver.new_var();
        }
        for clause in &hard {
            solver.add_clause(clause.iter().copied());
        }
        let expected = brute_force(inst.num_vars, &hard, &soft);
        match maximize(&mut solver, soft.iter().map(|c| &c[..])) {
            None => prop_assert_eq!(expected, None),
            Some(model) => {
                prop_assert!(hard.iter().all(|c| satisfied(c, &model)));
                let kept = soft.iter().filter(|c| satisfied(c, &model)).count();
                prop_assert_eq!(Some(kept), expected);
            }
        }
    }
}
