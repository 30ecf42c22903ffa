//! First-UIP conflict analysis with recursive clause minimisation.

use super::{ClauseRef, Solver};
use crate::lit::Lit;

impl Solver {
    /// Analyzes a conflict, returning the learnt clause (asserting literal
    /// first) and the decision level to backtrack to.
    ///
    /// Standard first-UIP scheme: walk the implication graph backwards from
    /// the conflict, keeping literals from lower levels and resolving away
    /// current-level literals until exactly one remains.
    pub(crate) fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32) {
        let current_level = self.decision_level();
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 = asserting literal
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = conflict;

        loop {
            self.bump_clause_activity(confl);
            let start = usize::from(p.is_some());
            for k in start..self.clauses[confl as usize].lits.len() {
                let q = self.clauses[confl as usize].lits[k];
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
            confl = self.reason[lit.var().index()]
                .expect("non-decision literal on conflict path must have a reason");
        }
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

    /// True iff `lit` is implied by the other (marked) literals of the learnt
    /// clause — i.e. every path from `lit`'s reason bottoms out in marked or
    /// level-0 literals. Iterative DFS over the implication graph.
    fn literal_redundant(&mut self, lit: Lit) -> bool {
        let Some(reason0) = self.reason[lit.var().index()] else {
            return false; // decision literal, not removable
        };
        // DFS stack of (clause, next literal index). Track which vars we mark
        // so failures can roll back.
        let mut stack: Vec<(ClauseRef, usize)> = vec![(reason0, 1)];
        let mut marked: Vec<u32> = Vec::new();
        while let Some(&mut (cref, ref mut next)) = stack.last_mut() {
            if *next >= self.clauses[cref as usize].lits.len() {
                stack.pop();
                continue;
            }
            let q = self.clauses[cref as usize].lits[*next];
            *next += 1;
            let v = q.var();
            if self.seen[v.index()] || self.level[v.index()] == 0 {
                continue; // already known to be covered
            }
            match self.reason[v.index()] {
                None => {
                    // Reached an unmarked decision: `lit` is not redundant.
                    for m in marked {
                        self.seen[m as usize] = false;
                    }
                    return false;
                }
                Some(r) => {
                    // Tentatively mark and recurse into its reason.
                    self.seen[v.index()] = true;
                    marked.push(v.0);
                    stack.push((r, 1));
                }
            }
        }
        // All paths covered; keep the tentative marks (they are genuinely
        // implied and speed up sibling checks), remembering nothing to undo:
        // analyze() clears `seen` only for kept literals, so clear the
        // temporary marks here.
        for m in marked {
            self.seen[m as usize] = false;
        }
        true
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
