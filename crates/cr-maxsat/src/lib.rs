//! Partial MaxSAT with unit weights: maximise the number of satisfied
//! *soft* clauses subject to all *hard* clauses holding.
//!
//! The paper's `GetSug` procedure (Section V-C) uses a MaxSAT solver \[24\]
//! (WalkSAT) to find a maximum subset of clique-selected derivation rules
//! that has no conflicts with the specification `Se`. The engine instead
//! searches exactly, with one function: [`maximize`] runs on a solver the
//! caller loaded with the hard clauses, so a caller whose hard clauses rely
//! on a solver theory (the conflict-resolution encoding's order domains,
//! see `cr_sat::order`) hands over a solver that holds it.
//!
//! Everything runs on that one CDCL solver. Each soft clause `C_i` gets a
//! selector `s_i` with `s_i → C_i`, and one sequential counter over the
//! dropped selectors `¬s_i` yields a register per bound `d`: assuming its
//! negation allows at most `d` dropped soft clauses. The bound is searched
//! upward from `d = 0`, one assumption per solve, so clauses learnt under
//! one bound prune the next; the first satisfiable bound is the optimum.

use cr_sat::{Lit, SolveResult, Solver};

/// Maximises the number of satisfied `soft` clauses (unit weights) over
/// `solver`, which holds the hard clauses: adds a selector per soft clause
/// and the cardinality counter (see the crate docs), then searches the
/// bound. Returns a model of every variable of the solver, `None` when the
/// hard clauses are unsatisfiable.
pub fn maximize<'s>(
    solver: &mut Solver,
    soft: impl IntoIterator<Item = &'s [Lit]>,
) -> Option<Vec<bool>> {
    let dropped: Vec<Lit> = soft
        .into_iter()
        .map(|lits| {
            let dropped = solver.new_var().negative();
            solver.add_clause(lits.iter().copied().chain([dropped]));
            dropped
        })
        .collect();

    // Feasibility: every soft clause may be dropped.
    if solver.solve() == SolveResult::Unsat {
        return None;
    }
    let mut best_model = solver.model();
    for bound in at_least_registers(solver, &dropped) {
        if solver.solve_with_assumptions(&[bound.negate()]) == SolveResult::Sat {
            best_model = solver.model();
            break;
        }
    }
    Some(best_model)
}

/// Adds a sequential counter (Sinz 2005) over `lits` to `solver` and
/// returns its last row: the register at index `d` is forced true whenever
/// at least `d + 1` of `lits` are true, so assuming its negation enforces
/// "at most `d` of `lits`" for every `d < lits.len()`. Register `r[i][j]`
/// means "at least `j + 1` of the first `i + 1` literals", implied by
/// `r[i-1][j]` (carry) and by `lits[i] ∧ r[i-1][j-1]` (increment).
fn at_least_registers(solver: &mut Solver, lits: &[Lit]) -> Vec<Lit> {
    let mut row: Vec<Lit> = Vec::new();
    for &lit in lits {
        let next: Vec<Lit> = (0..=row.len())
            .map(|_| solver.new_var().positive())
            .collect();
        for (j, &reg) in next.iter().enumerate() {
            if let Some(&carry) = row.get(j) {
                solver.add_clause([carry.negate(), reg]);
            }
            match j.checked_sub(1).map(|below| row[below]) {
                None => solver.add_clause([lit.negate(), reg]),
                Some(below) => solver.add_clause([lit.negate(), below.negate(), reg]),
            };
        }
        row = next;
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_sat::Var;

    /// Assignments of `n` variables that have at most `k` true variables
    /// (`at_most`) or at least `k` (otherwise) under the counter, counted
    /// by solving under each assignment; the counter's registers are
    /// existentially quantified.
    fn count_models_with_bound(n: usize, k: usize, at_most: bool) -> usize {
        let mut solver = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| solver.new_var()).collect();
        // At least k true is at most n - k false.
        let (lits, bound): (Vec<Lit>, usize) = if at_most {
            (vars.iter().map(|v| v.positive()).collect(), k)
        } else {
            (vars.iter().map(|v| v.negative()).collect(), n - k)
        };
        let registers = at_least_registers(&mut solver, &lits);
        let mut count = 0;
        for mask in 0u32..(1 << n) {
            let mut assumptions: Vec<Lit> =
                (0..n).map(|i| vars[i].lit(mask >> i & 1 == 1)).collect();
            assumptions.extend(registers.get(bound).map(|r| r.negate()));
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
    fn infeasible_hard_clauses_return_none() {
        let mut solver = Solver::new();
        let x = solver.new_var();
        solver.add_clause([x.positive()]);
        solver.add_clause([x.negative()]);
        assert!(maximize(&mut solver, [&[x.positive()][..]]).is_none());
    }

    #[test]
    fn no_soft_clauses_is_plain_sat() {
        let mut solver = Solver::new();
        let x = solver.new_var();
        solver.add_clause([x.positive()]);
        let model = maximize(&mut solver, []).unwrap();
        assert_eq!(model, vec![true]);
    }

    #[test]
    fn prepared_solvers_enforce_the_order_theory() {
        // Atoms x_ab of a 3-value order domain, no hard clause; the softs
        // ask for the cycle 0 ≺ 1 ≺ 2 ≺ 0. On a bare solver all three hold;
        // with the domain registered the cycle costs one soft clause.
        let n = 3;
        let var = |a: usize, b: usize| Var((a * n + b) as u32);
        let soft: Vec<[Lit; 1]> = [(0, 1), (1, 2), (2, 0)]
            .into_iter()
            .map(|(a, b)| [var(a, b).positive()])
            .collect();
        let kept = |mut solver: Solver| {
            while solver.num_vars() < (n * n) as u32 {
                solver.new_var();
            }
            let model = maximize(&mut solver, soft.iter().map(|s| &s[..])).unwrap();
            soft.iter().filter(|[lit]| model[lit.var().index()]).count()
        };
        assert_eq!(kept(Solver::new()), 3);
        let mut ordered = Solver::new();
        ordered.register_order_domain(0, n, var);
        assert_eq!(kept(ordered), 2);
    }
}
