//! CNF formula builder.

use crate::lit::{Lit, Var};

/// A CNF formula under construction: a variable counter plus a clause list.
///
/// `Cnf` is the interchange format between the encoder (`cr-core`), the CDCL
/// [`crate::Solver`], the root-level [`crate::UnitPropagator`] and the MaxSAT
/// solvers. Clauses are stored exactly as added; normalisation (duplicate and
/// tautology removal) happens when a solver ingests the formula.
///
/// Clauses live in one **flat literal arena** (`lits` plus a bounds index):
/// appending a clause is an arena extend instead of a per-clause `Vec`
/// allocation — the encoder converts tens of thousands of instance
/// constraints per entity, and the per-clause mallocs of the boxed
/// representation dominated round-0 encode on wide workloads — and
/// consumers iterate contiguous memory.
#[derive(Clone, Debug)]
pub struct Cnf {
    num_vars: u32,
    /// All clause literals, concatenated.
    lits: Vec<Lit>,
    /// Clause `i` is `lits[bounds[i] as usize..bounds[i + 1] as usize]`;
    /// always one longer than the clause count (starts as `[0]`).
    bounds: Vec<u32>,
}

impl Default for Cnf {
    fn default() -> Self {
        Cnf {
            num_vars: 0,
            lits: Vec::new(),
            bounds: vec![0],
        }
    }
}

impl Cnf {
    /// An empty formula.
    pub fn new() -> Self {
        Cnf::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Ensures at least `n` variables exist.
    pub fn ensure_vars(&mut self, n: u32) {
        self.num_vars = self.num_vars.max(n);
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total number of literal occurrences (the `|Φ(Se)|` size measure used
    /// in the paper's complexity analysis).
    pub fn num_literals(&self) -> usize {
        self.lits.len()
    }

    /// Approximate heap footprint of the formula in bytes (the literal
    /// arena plus the clause-bounds index, counted at capacity). Feeds the
    /// benchmark's `encode.bytes_per_entity` metric.
    pub fn approx_bytes(&self) -> usize {
        self.lits.capacity() * std::mem::size_of::<Lit>()
            + self.bounds.capacity() * std::mem::size_of::<u32>()
    }

    /// Adds a clause (a disjunction of literals). An empty clause makes the
    /// formula trivially unsatisfiable.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let start = self.lits.len();
        self.lits.extend(lits);
        for i in start..self.lits.len() {
            let v = self.lits[i].var().0 + 1;
            self.ensure_vars(v);
        }
        self.bounds.push(self.lits.len() as u32);
    }

    /// [`Cnf::add_clause`] for clauses whose variables are already
    /// allocated: skips the per-literal variable-count scan. The encoder's
    /// bulk clause conversion (tens of thousands of clauses over a
    /// pre-allocated dense variable table) goes through here.
    pub fn add_clause_prealloc(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let start = self.lits.len();
        self.lits.extend(lits);
        debug_assert!(
            self.lits[start..].iter().all(|l| l.var().0 < self.num_vars),
            "add_clause_prealloc requires pre-allocated variables"
        );
        self.bounds.push(self.lits.len() as u32);
    }

    /// Reserves capacity for `n` additional clauses.
    pub fn reserve_clauses(&mut self, n: usize) {
        self.bounds.reserve(n);
    }

    /// Appends one literal of the clause under construction directly to the
    /// arena; [`Cnf::finish_clause`] terminates it. The literal's variable
    /// must already be allocated (bulk encoders only).
    #[inline]
    pub fn push_clause_lit(&mut self, l: Lit) {
        debug_assert!(
            l.var().0 < self.num_vars,
            "push_clause_lit requires an allocated variable"
        );
        self.lits.push(l);
    }

    /// Terminates the clause whose literals were appended with
    /// [`Cnf::push_clause_lit`] (an empty clause if none were).
    #[inline]
    pub fn finish_clause(&mut self) {
        self.bounds.push(self.lits.len() as u32);
    }

    /// Deletes every clause whose index `keep` rejects, compacting the
    /// literal arena in place; the survivors keep their relative order.
    /// Consumers that ingested the formula by clause index must rebuild.
    pub fn retain_clauses(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let (mut lits, mut clauses, mut end) = (0, 0, 0);
        for idx in 0..self.num_clauses() {
            // `bounds[idx + 1]` is read before any write can reach it.
            let start = end;
            end = self.bounds[idx + 1] as usize;
            if keep(idx) {
                self.lits.copy_within(start..end, lits);
                lits += end - start;
                clauses += 1;
                self.bounds[clauses] = lits as u32;
            }
        }
        self.lits.truncate(lits);
        self.bounds.truncate(clauses + 1);
    }

    /// Adds the implication `premises → conclusion` as the clause
    /// `¬p1 ∨ … ∨ ¬pk ∨ conclusion`. This is exactly the `ConvertToCNF`
    /// rewrite of Section V-A.
    pub fn add_implication(&mut self, premises: &[Lit], conclusion: Lit) {
        let mut clause: Vec<Lit> = premises.iter().map(|p| p.negate()).collect();
        clause.push(conclusion);
        self.add_clause(clause);
    }

    /// Adds `premises → false`, i.e. the clause `¬p1 ∨ … ∨ ¬pk`.
    pub fn add_negated_conjunction(&mut self, premises: &[Lit]) {
        self.add_clause(premises.iter().map(|p| p.negate()).collect::<Vec<_>>());
    }

    /// The clause at index `idx`, as a slice into the literal arena.
    #[inline]
    pub fn clause(&self, idx: usize) -> &[Lit] {
        &self.lits[self.bounds[idx] as usize..self.bounds[idx + 1] as usize]
    }

    /// Iterates the clauses in insertion order.
    pub fn clauses(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        self.clauses_from(0)
    }

    /// Iterates the clauses starting at index `from` — the tail-sync
    /// primitive of the incremental consumers (solver, unit propagator).
    pub fn clauses_from(&self, from: usize) -> impl Iterator<Item = &[Lit]> + '_ {
        self.bounds[from..]
            .windows(2)
            .map(|w| &self.lits[w[0] as usize..w[1] as usize])
    }

    /// Evaluates the formula under a total assignment (indexed by variable).
    /// Used by tests and by the MaxSAT local search.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.clauses().all(|c| {
            c.iter()
                .any(|l| assignment[l.var().index()] == l.is_positive())
        })
    }

    /// Counts clauses satisfied under a total assignment.
    pub fn count_satisfied(&self, assignment: &[bool]) -> usize {
        self.clauses()
            .filter(|c| {
                c.iter()
                    .any(|l| assignment[l.var().index()] == l.is_positive())
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_allocation_and_counts() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause([a.positive(), b.negative()]);
        cnf.add_clause([b.positive()]);
        assert_eq!(cnf.num_vars(), 2);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.num_literals(), 3);
    }

    #[test]
    fn add_clause_grows_vars() {
        let mut cnf = Cnf::new();
        cnf.add_clause([Var(9).positive()]);
        assert_eq!(cnf.num_vars(), 10);
    }

    #[test]
    fn implication_encoding() {
        let mut cnf = Cnf::new();
        let (a, b, c) = (cnf.new_var(), cnf.new_var(), cnf.new_var());
        cnf.add_implication(&[a.positive(), b.positive()], c.positive());
        assert_eq!(cnf.clause(0), [a.negative(), b.negative(), c.positive()]);
        cnf.add_negated_conjunction(&[a.positive()]);
        assert_eq!(cnf.clause(1), [a.negative()]);
    }

    #[test]
    fn retain_clauses_compacts_in_order() {
        let mut cnf = Cnf::new();
        let (a, b, c) = (cnf.new_var(), cnf.new_var(), cnf.new_var());
        cnf.add_clause([a.positive(), b.positive()]);
        cnf.add_clause([c.negative()]);
        cnf.add_clause([]);
        cnf.add_clause([b.negative(), c.positive(), a.negative()]);
        cnf.retain_clauses(|idx| idx != 1);
        let kept: Vec<&[Lit]> = cnf.clauses().collect();
        assert_eq!(
            kept,
            [
                &[a.positive(), b.positive()][..],
                &[],
                &[b.negative(), c.positive(), a.negative()]
            ]
        );
        assert_eq!(cnf.num_literals(), 5);
        cnf.retain_clauses(|_| false);
        assert_eq!((cnf.num_clauses(), cnf.num_literals()), (0, 0));
        assert_eq!(cnf.num_vars(), 3, "variables are never deleted");
    }

    #[test]
    fn eval_and_count() {
        let mut cnf = Cnf::new();
        let (a, b) = (cnf.new_var(), cnf.new_var());
        cnf.add_clause([a.positive(), b.positive()]);
        cnf.add_clause([a.negative()]);
        assert!(cnf.eval(&[false, true]));
        assert!(!cnf.eval(&[true, false]));
        assert_eq!(cnf.count_satisfied(&[true, false]), 1);
    }
}
