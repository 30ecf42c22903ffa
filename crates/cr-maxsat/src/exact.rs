//! Complete partial-MaxSAT for unit weights via CDCL + cardinality bounds.
//!
//! Each soft clause `C_i` gets a selector `s_i` with `s_i → C_i`; a
//! sequential-counter encoding of `Σ s_i ≥ k` is added, and `k` is searched
//! downward from the soft-clause count. The first satisfiable `k` is the
//! optimum. Weighted instances fall back to the WalkSAT search.
//!
//! [`solve_exact_with`] hands every CDCL solver it builds to a caller's
//! hook before the solver loads a clause, so a caller whose hard clauses
//! rely on a solver theory (the conflict-resolution encoding's order
//! domains, see `cr_sat::order`) registers it there.

use cr_sat::{Cnf, Lit, SolveResult, Solver, Var};

use crate::instance::{MaxSatInstance, MaxSatResult};
use crate::walksat;

/// Solves exactly when all weights are 1; otherwise delegates to WalkSAT
/// with a generous budget (documented fallback).
pub fn solve_exact(instance: &MaxSatInstance<'_>) -> Option<MaxSatResult> {
    if !instance.has_unit_weights() {
        return walksat::solve_walksat(instance, 500_000, 0xFA11BACC);
    }
    solve_exact_with(instance, |_| {})
}

/// [`solve_exact`] for a unit-weight instance, calling `prepare` on every
/// empty CDCL solver before it loads the instance's clauses (see the
/// module docs). Panics on a weighted instance, which has no exact path.
pub fn solve_exact_with(
    instance: &MaxSatInstance<'_>,
    prepare: impl Fn(&mut Solver),
) -> Option<MaxSatResult> {
    assert!(
        instance.has_unit_weights(),
        "solve_exact_with needs unit weights"
    );
    let m = instance.soft_len();
    let load = |cnf: &Cnf| {
        let mut solver = Solver::new();
        prepare(&mut solver);
        solver.extend_from_cnf(cnf, 0);
        solver
    };

    // Base formula: hard clauses + selector implications.
    let mut base = Cnf::new();
    base.ensure_vars(instance.num_vars());
    for c in instance.hard_iter() {
        base.add_clause(c.iter().copied());
    }
    let selectors: Vec<Var> = (0..m).map(|_| base.new_var()).collect();
    for (i, s) in instance.soft().iter().enumerate() {
        let mut clause = s.lits.clone();
        clause.push(selectors[i].negative());
        base.add_clause(clause);
    }

    // Feasibility check (k = 0).
    let mut solver = load(&base);
    if solver.solve() == SolveResult::Unsat {
        return None;
    }
    let mut best_model = solver.model();

    for k in (1..=m).rev() {
        let mut cnf = base.clone();
        let sel_lits: Vec<Lit> = selectors.iter().map(|v| v.positive()).collect();
        encode_at_least_k(&mut cnf, &sel_lits, k);
        let mut solver = load(&cnf);
        if solver.solve() == SolveResult::Sat {
            best_model = solver.model();
            break;
        }
    }
    best_model.resize(instance.num_vars() as usize, false);
    best_model.truncate(instance.num_vars() as usize);
    Some(MaxSatResult::from_assignment(instance, best_model, true))
}

/// Adds clauses enforcing "at least `k` of `lits` are true" using the
/// complement sequential counter: at most `n - k` of the negations are true.
pub fn encode_at_least_k(cnf: &mut Cnf, lits: &[Lit], k: usize) {
    let n = lits.len();
    if k == 0 {
        return;
    }
    if k > n {
        cnf.add_clause([]); // impossible
        return;
    }
    let negs: Vec<Lit> = lits.iter().map(|l| l.negate()).collect();
    encode_at_most_k(cnf, &negs, n - k);
}

/// Adds clauses enforcing "at most `k` of `lits` are true" with the
/// sequential counter (Sinz 2005): registers `r[i][j]` = "at least j+1 of
/// the first i+1 literals are true".
pub fn encode_at_most_k(cnf: &mut Cnf, lits: &[Lit], k: usize) {
    let n = lits.len();
    if n == 0 || k >= n {
        return;
    }
    if k == 0 {
        for &l in lits {
            cnf.add_clause([l.negate()]);
        }
        return;
    }
    // r[i][j], i in 0..n-1, j in 0..k.
    let regs: Vec<Vec<Var>> = (0..n - 1)
        .map(|_| (0..k).map(|_| cnf.new_var()).collect())
        .collect();
    // First literal seeds the counter.
    cnf.add_clause([lits[0].negate(), regs[0][0].positive()]);
    for reg in &regs[0][1..] {
        cnf.add_clause([reg.negative()]);
    }
    for i in 1..n - 1 {
        // Carry: r[i][j] ← r[i-1][j].
        for (prev, cur) in regs[i - 1].iter().zip(&regs[i]) {
            cnf.add_clause([prev.negative(), cur.positive()]);
        }
        // Increment: r[i][0] ← lits[i]; r[i][j] ← lits[i] ∧ r[i-1][j-1].
        cnf.add_clause([lits[i].negate(), regs[i][0].positive()]);
        for j in 1..k {
            cnf.add_clause([
                lits[i].negate(),
                regs[i - 1][j - 1].negative(),
                regs[i][j].positive(),
            ]);
        }
        // Overflow forbidden: lits[i] ∧ r[i-1][k-1] → ⊥.
        cnf.add_clause([lits[i].negate(), regs[i - 1][k - 1].negative()]);
    }
    cnf.add_clause([lits[n - 1].negate(), regs[n - 2][k - 1].negative()]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::MaxSatInstance;

    fn count_models_with_bound(n: usize, k: usize, at_most: bool) -> usize {
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..n).map(|_| cnf.new_var()).collect();
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        if at_most {
            encode_at_most_k(&mut cnf, &lits, k);
        } else {
            encode_at_least_k(&mut cnf, &lits, k);
        }
        // Enumerate assignments of the original n vars; auxiliary vars are
        // existentially quantified, so count assignments extendable to a
        // model: check with the solver per assignment.
        let mut count = 0;
        for mask in 0u32..(1 << n) {
            let mut solver = Solver::from_cnf(&cnf);
            let assumptions: Vec<Lit> = (0..n).map(|i| vars[i].lit(mask >> i & 1 == 1)).collect();
            if solver.solve_with_assumptions(&assumptions) == SolveResult::Sat {
                count += 1;
            }
        }
        count
    }

    fn binom(n: usize, k: usize) -> usize {
        if k > n {
            return 0;
        }
        (0..k).fold(1usize, |acc, i| acc * (n - i) / (i + 1))
    }

    #[test]
    fn at_most_k_counts_match_binomials() {
        for n in 1..=5usize {
            for k in 0..=n {
                let expected: usize = (0..=k).map(|j| binom(n, j)).sum();
                assert_eq!(
                    count_models_with_bound(n, k, true),
                    expected,
                    "at-most n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn at_least_k_counts_match_binomials() {
        for n in 1..=5usize {
            for k in 0..=n {
                let expected: usize = (k..=n).map(|j| binom(n, j)).sum();
                assert_eq!(
                    count_models_with_bound(n, k, false),
                    expected,
                    "at-least n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn exact_optimum_on_conflicting_softs() {
        // Softs: x0, ¬x0, x1, ¬x1, (x0 ∨ x1). Best = 3.
        let mut inst = MaxSatInstance::new(2);
        inst.add_soft([Var(0).positive()], 1);
        inst.add_soft([Var(0).negative()], 1);
        inst.add_soft([Var(1).positive()], 1);
        inst.add_soft([Var(1).negative()], 1);
        inst.add_soft([Var(0).positive(), Var(1).positive()], 1);
        let res = solve_exact(&inst).unwrap();
        assert!(res.optimal);
        assert_eq!(res.total_weight, 3);
    }

    #[test]
    fn exact_with_hard_constraints() {
        // Hard: exactly-one-ish chain forcing ¬x0; softs want both true.
        let mut inst = MaxSatInstance::new(2);
        inst.add_hard([Var(0).negative(), Var(1).negative()]);
        inst.add_soft([Var(0).positive()], 1);
        inst.add_soft([Var(1).positive()], 1);
        let res = solve_exact(&inst).unwrap();
        assert_eq!(res.total_weight, 1);
        assert!(res.optimal);
        assert!(inst.hard_satisfied(&res.assignment));
    }

    #[test]
    fn exact_infeasible_returns_none() {
        let mut inst = MaxSatInstance::new(1);
        inst.add_hard([Var(0).positive()]);
        inst.add_hard([Var(0).negative()]);
        assert!(solve_exact(&inst).is_none());
    }

    #[test]
    fn prepared_solvers_enforce_the_order_theory() {
        // Atoms x_ab of a 3-value order domain, no hard clause; the softs
        // ask for the cycle 0 ≺ 1 ≺ 2 ≺ 0. Only with the domain registered
        // on every solver does the cycle cost a soft clause.
        let n = 3;
        let var = |a: usize, b: usize| Var((a * n + b) as u32);
        let mut inst = MaxSatInstance::new((n * n) as u32);
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            inst.add_soft([var(a, b).positive()], 1);
        }
        assert_eq!(solve_exact(&inst).unwrap().total_weight, 3);
        let res = solve_exact_with(&inst, |s| s.register_order_domain(0, n, var)).unwrap();
        assert_eq!(res.total_weight, 2);
        assert!(res.optimal);
    }

    #[test]
    fn all_softs_satisfiable() {
        let mut inst = MaxSatInstance::new(3);
        for i in 0..3 {
            inst.add_soft([Var(i).positive()], 1);
        }
        let res = solve_exact(&inst).unwrap();
        assert_eq!(res.total_weight, 3);
        assert_eq!(res.satisfied_soft, vec![true; 3]);
    }
}
