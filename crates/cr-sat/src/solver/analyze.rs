//! First-UIP conflict analysis with recursive clause minimisation.
//!
//! Both read what implied a literal through [`Solver::reason_lits`], so a
//! clause reason and an order-axiom reason rebuilt by the theory are
//! handled alike.

use super::{Conflict, Reason, Solver};
use crate::lit::Lit;

impl Solver {
    /// Analyzes a conflict, returning the learnt clause (asserting literal
    /// first) and the decision level to backtrack to.
    ///
    /// Standard first-UIP scheme: walk the implication graph backwards from
    /// the conflict, keeping literals from lower levels and resolving away
    /// current-level literals until exactly one remains.
    pub(crate) fn analyze(&mut self, conflict: Conflict) -> (Vec<Lit>, u32) {
        let current_level = self.decision_level();
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 = asserting literal
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let (mut reason, mut implied) = conflict;
        let mut lits = std::mem::take(&mut self.reason_buf);

        loop {
            if let Reason::Clause(cref) = reason {
                self.bump_clause_activity(cref);
            }
            self.reason_lits(reason, implied, &mut lits);
            // A reason's first literal is the one it implied: `p`.
            let start = usize::from(p.is_some());
            for &q in &lits[start..] {
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var_activity(v);
                    if self.level[v.index()] >= current_level {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next marked literal on the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            p = Some(lit);
            self.seen[lit.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                break;
            }
            reason = self.reason[lit.var().index()];
            implied = lit;
            debug_assert_ne!(
                reason,
                Reason::None,
                "non-decision literal on conflict path must have a reason"
            );
        }
        self.reason_buf = lits;
        learnt[0] = p.expect("conflict at level > 0 has a UIP").negate();

        // Minimise: drop literals implied by the rest of the clause.
        let original: Vec<Lit> = learnt.clone();
        let keep_mask: Vec<bool> = learnt
            .iter()
            .enumerate()
            .map(|(i, &l)| i == 0 || !self.literal_redundant(l))
            .collect();
        let mut i = 0;
        learnt.retain(|_| {
            let keep = keep_mask[i];
            i += 1;
            keep
        });
        self.stats.minimised_literals += keep_mask.iter().filter(|k| !**k).count() as u64;

        // Clear every `seen` mark set during analysis (kept *and* removed).
        for l in &original {
            self.seen[l.var().index()] = false;
        }

        // Compute the backtrack level: second-highest level in the clause.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for k in 2..learnt.len() {
                if self.level[learnt[k].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = k;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, bt_level)
    }

    /// True iff `lit` (a false literal of the learnt clause) is implied by
    /// the other (marked) literals of the clause — i.e. every path from
    /// its variable's reason bottoms out in marked or level-0 literals.
    /// Iterative DFS over the implication graph.
    fn literal_redundant(&mut self, lit: Lit) -> bool {
        let reason = self.reason[lit.var().index()];
        if reason == Reason::None {
            return false; // decision literal, not removable
        }
        let mut lits = std::mem::take(&mut self.reason_buf);
        // The reason's literals other than the one it implied (¬lit) are
        // the DFS frontier; track which vars we mark so they can be
        // cleared.
        self.reason_lits(reason, lit.negate(), &mut lits);
        let mut stack: Vec<Lit> = lits[1..].to_vec();
        let mut marked: Vec<u32> = Vec::new();
        let mut redundant = true;
        while let Some(q) = stack.pop() {
            let v = q.var();
            if self.seen[v.index()] || self.level[v.index()] == 0 {
                continue; // already known to be covered
            }
            let r = self.reason[v.index()];
            if r == Reason::None {
                // Reached an unmarked decision: `lit` is not redundant.
                redundant = false;
                break;
            }
            // Tentatively mark and recurse into its reason.
            self.seen[v.index()] = true;
            marked.push(v.0);
            self.reason_lits(r, q.negate(), &mut lits);
            stack.extend_from_slice(&lits[1..]);
        }
        self.reason_buf = lits;
        // analyze() clears `seen` only for the clause's literals, so clear
        // the temporary marks here.
        for m in marked {
            self.seen[m as usize] = false;
        }
        redundant
    }
}

#[cfg(test)]
mod tests {
    use crate::solver::{SolveResult, Solver};

    /// A formula whose refutation requires resolving learnt clauses.
    #[test]
    fn learns_and_refutes_xor_chain() {
        // x1 ⊕ x2 ⊕ x3 = 0 and x1 ⊕ x2 ⊕ x3 = 1 encoded in CNF: UNSAT.
        let mut s = Solver::new();
        let v: Vec<_> = (0..3).map(|_| s.new_var()).collect();
        let even = [[1i64, 2, -3], [1, -2, 3], [-1, 2, 3], [-1, -2, -3]];
        let odd = [[-1i64, -2, 3], [-1, 2, -3], [1, -2, -3], [1, 2, 3]];
        for c in even.iter().chain(odd.iter()) {
            s.add_clause(
                c.iter()
                    .map(|&x| v[(x.unsigned_abs() - 1) as usize].lit(x > 0)),
            );
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn minimisation_counter_moves() {
        // A modest pigeonhole instance exercises minimisation.
        let mut s = Solver::new();
        let n = 5;
        let p: Vec<Vec<_>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().map(|v| v.positive()));
        }
        for j in 0..n - 1 {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }
}
