//! Two-watched-literal Boolean constraint propagation, then the order
//! theory.

use super::{Conflict, Reason, Solver, Watcher};
use crate::lit::LBool;

impl Solver {
    /// Propagates all enqueued facts. Returns the falsified constraint if a
    /// clause became empty or the order theory implied a false literal,
    /// `None` when a fixpoint is reached.
    ///
    /// Each literal taken from the trail first visits its watches, then
    /// the order theory (see [`crate::order`]), which enqueues what the
    /// order axioms imply with the trigger literal as their reason.
    ///
    /// Invariant maintained: for every alive clause, `lits[0]` and `lits[1]`
    /// are its watched literals and appear in the watcher lists of those
    /// literals.
    pub(crate) fn propagate(&mut self) -> Option<Conflict> {
        let mut conflict = None;
        while conflict.is_none() && self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = p.negate();

            // Take the watcher list for the falsified literal; entries are
            // either written back or migrated to a new watch.
            let mut watchers = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut keep = 0;
            let mut idx = 0;
            'watchers: while idx < watchers.len() {
                let w = watchers[idx];
                idx += 1;
                // Blocker short-circuit: clause already satisfied.
                if self.value_lit(w.blocker) == LBool::True {
                    watchers[keep] = w;
                    keep += 1;
                    continue;
                }
                let clause = &mut self.clauses[w.cref as usize];
                debug_assert!(!clause.deleted, "watcher on deleted clause");
                // Normalise so the falsified literal sits at lits[1].
                if clause.lits[0] == false_lit {
                    clause.lits.swap(0, 1);
                }
                debug_assert_eq!(clause.lits[1], false_lit);
                let first = clause.lits[0];
                let new_watcher = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                if first != w.blocker && self.value_lit(first) == LBool::True {
                    watchers[keep] = new_watcher;
                    keep += 1;
                    continue;
                }
                // Look for a replacement watch among the tail literals.
                for k in 2..self.clauses[w.cref as usize].lits.len() {
                    let cand = self.clauses[w.cref as usize].lits[k];
                    if self.value_lit(cand) != LBool::False {
                        let clause = &mut self.clauses[w.cref as usize];
                        clause.lits.swap(1, k);
                        self.watches[cand.index()].push(new_watcher);
                        continue 'watchers;
                    }
                }
                // No replacement: clause is unit or conflicting.
                watchers[keep] = new_watcher;
                keep += 1;
                if self.value_lit(first) == LBool::False {
                    // Conflict: flush remaining watchers back and stop.
                    while idx < watchers.len() {
                        watchers[keep] = watchers[idx];
                        keep += 1;
                        idx += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some((Reason::Clause(w.cref), first));
                } else {
                    self.unchecked_enqueue(first, Reason::Clause(w.cref));
                }
            }
            watchers.truncate(keep);
            self.watches[false_lit.index()] = watchers;
            if conflict.is_some() {
                break;
            }

            let mut implied = std::mem::take(&mut self.theory_buf);
            self.theory.on_assign(p, &self.assigns, &mut implied);
            for &lit in &implied {
                match self.value_lit(lit) {
                    LBool::True => {}
                    LBool::Undef => self.unchecked_enqueue(lit, Reason::Order(p)),
                    LBool::False => {
                        self.qhead = self.trail.len();
                        conflict = Some((Reason::Order(p), lit));
                        break;
                    }
                }
            }
            implied.clear();
            self.theory_buf = implied;
        }
        conflict
    }
}

#[cfg(test)]
mod tests {
    use crate::lit::LBool;
    use crate::solver::{Reason, Solver};

    #[test]
    fn propagation_derives_unit_chain() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause([a.negative(), b.positive()]);
        s.add_clause([b.negative(), c.positive()]);
        s.add_clause([a.positive()]);
        assert!(s.propagate().is_none());
        assert_eq!(s.value(a), LBool::True);
        assert_eq!(s.value(b), LBool::True);
        assert_eq!(s.value(c), LBool::True);
    }

    #[test]
    fn conflict_detected_at_root() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.negative(), b.positive()]);
        s.add_clause([a.negative(), b.negative()]);
        s.add_clause([a.positive()]);
        assert!(s.propagate().is_some() || !s.ok);
    }

    #[test]
    fn watch_migration_keeps_clause_alive() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause([a.positive(), b.positive(), c.positive()]);
        // Kill the first two watched literals one at a time.
        s.new_decision_level();
        s.unchecked_enqueue(a.negative(), Reason::None);
        assert!(s.propagate().is_none());
        s.new_decision_level();
        s.unchecked_enqueue(b.negative(), Reason::None);
        assert!(s.propagate().is_none());
        // Clause is now unit: c must have been enqueued true.
        assert_eq!(s.value(c), LBool::True);
    }
}
