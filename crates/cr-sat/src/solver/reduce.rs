//! Learnt-clause database reduction.

use super::{ClauseRef, Reason, Solver};
use crate::lit::LBool;

const CLA_RESCALE_LIMIT: f32 = 1e20;
const CLA_RESCALE_FACTOR: f32 = 1e-20;

impl Solver {
    /// Bumps a learnt clause's activity (it participated in a conflict).
    pub(crate) fn bump_clause_activity(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref as usize];
        if !c.learnt {
            return;
        }
        c.activity += self.cla_inc;
        if c.activity > CLA_RESCALE_LIMIT {
            for r in &self.learnt_refs {
                self.clauses[*r as usize].activity *= CLA_RESCALE_FACTOR;
            }
            self.cla_inc *= CLA_RESCALE_FACTOR;
        }
    }

    /// Geometric decay of clause activities.
    pub(crate) fn decay_clause_activity(&mut self) {
        self.cla_inc /= self.cla_decay;
    }

    /// True iff the clause is the reason of a currently assigned literal and
    /// therefore must not be deleted.
    fn locked(&self, cref: ClauseRef) -> bool {
        let first = self.clauses[cref as usize].lits[0];
        self.value_lit(first) == LBool::True
            && self.reason[first.var().index()] == Reason::Clause(cref)
    }

    /// Deletes the least active half of the learnt clauses (keeping binary
    /// and locked clauses) and raises the budget for the next round.
    pub(crate) fn reduce_db(&mut self) {
        self.stats.db_reductions += 1;
        let target = self.learnt_refs.len() / 2;
        self.delete_least_active(target);
        self.max_learnts *= 1.1;
    }

    /// Compacts the learnt-clause database down to at most `max_keep`
    /// clauses, deleting the least active ones first (binary and locked
    /// clauses are always kept). Unlike the in-search `Solver::reduce_db`
    /// this is a *caller-driven* sweep: the incremental resolution engine
    /// invokes it at user-interaction round boundaries so learnt clauses
    /// stay bounded over arbitrarily long interactions, and it also resets
    /// the in-search reduction budget so the next solve does not inherit a
    /// budget inflated by earlier rounds.
    pub fn compact_learnts(&mut self, max_keep: usize) {
        debug_assert_eq!(self.decision_level(), 0);
        if self.learnt_refs.len() > max_keep {
            self.stats.db_reductions += 1;
            let target = self.learnt_refs.len() - max_keep;
            self.delete_least_active(target);
        }
        let floor = (self.clauses.len() as f64 / 3.0).max(2000.0);
        self.max_learnts = self.max_learnts.min(floor.max(max_keep as f64));
    }

    /// Detaches up to `target` learnt clauses, least useful first (long
    /// clauses with low activity; binary and locked clauses survive).
    fn delete_least_active(&mut self, target: usize) {
        let mut refs = std::mem::take(&mut self.learnt_refs);
        refs.sort_by(|&a, &b| {
            let ca = &self.clauses[a as usize];
            let cb = &self.clauses[b as usize];
            (ca.lits.len() > 2)
                .cmp(&(cb.lits.len() > 2))
                .reverse()
                .then(
                    ca.activity
                        .partial_cmp(&cb.activity)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        });
        let mut kept = Vec::with_capacity(refs.len().saturating_sub(target));
        for (i, cref) in refs.iter().copied().enumerate() {
            let c = &self.clauses[cref as usize];
            if i < target && c.lits.len() > 2 && !self.locked(cref) {
                self.detach_clause(cref);
                self.stats.deleted_clauses += 1;
            } else {
                kept.push(cref);
            }
        }
        self.learnt_refs = kept;
    }
}

#[cfg(test)]
mod tests {
    use crate::solver::{SolveResult, Solver};

    /// Push the solver through enough conflicts that at least one DB
    /// reduction happens, then check it still answers correctly.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn reduction_does_not_break_correctness() {
        let mut s = Solver::new();
        // A satisfiable but conflict-rich instance: overlapping pigeonhole
        // fragments plus a large satisfiable core.
        let n = 7;
        let p: Vec<Vec<_>> = (0..n)
            .map(|_| (0..n).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().map(|v| v.positive()));
        }
        for j in 0..n {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        // n pigeons, n holes: satisfiable (a permutation).
        assert_eq!(s.solve(), SolveResult::Sat);
        // Verify the model is a valid permutation assignment.
        for (i, row) in p.iter().enumerate() {
            assert!(
                row.iter().any(|v| s.model_value(*v) == Some(true)),
                "pigeon {i} unplaced"
            );
        }
    }
}
