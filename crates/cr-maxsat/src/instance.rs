//! Partial MaxSAT instances and results.

use cr_sat::{Cnf, Lit};

/// A soft clause with a positive weight.
#[derive(Clone, Debug)]
pub struct SoftClause {
    /// Disjunction of literals.
    pub lits: Vec<Lit>,
    /// Reward for satisfying the clause.
    pub weight: u64,
}

/// A partial MaxSAT instance: hard clauses that must hold plus weighted soft
/// clauses to maximise.
///
/// The hard clauses come in two parts: an optional **borrowed base** — a
/// clause arena owned by someone else, typically the resolution engine's
/// already-encoded `Φ(Se)` — plus instance-owned extras. The `GetSug`
/// MaxSAT repair used to copy the whole of `Φ(Se)` into every instance; the
/// borrowed base makes instance construction `O(1)` in `|Φ(Se)|`, so the
/// repair can be re-issued on every suggestion round of a resolve without
/// re-copying the formula.
#[derive(Clone, Debug)]
pub struct MaxSatInstance<'a> {
    num_vars: u32,
    base: Option<&'a Cnf>,
    hard: Vec<Vec<Lit>>,
    soft: Vec<SoftClause>,
}

impl Default for MaxSatInstance<'_> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<'a> MaxSatInstance<'a> {
    /// An instance over `num_vars` variables (more are added on demand).
    pub fn new(num_vars: u32) -> Self {
        MaxSatInstance {
            num_vars,
            base: None,
            hard: Vec::new(),
            soft: Vec::new(),
        }
    }

    /// An instance whose hard clauses start as a **borrowed** formula (not
    /// copied); further `add_hard` clauses are owned extras on top. The
    /// instance starts with the formula's variable count.
    pub fn with_hard_base(base: &'a Cnf) -> Self {
        MaxSatInstance {
            num_vars: base.num_vars(),
            base: Some(base),
            hard: Vec::new(),
            soft: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// All hard clauses: the borrowed base followed by the owned extras.
    pub fn hard_iter(&self) -> impl Iterator<Item = &[Lit]> {
        self.base
            .into_iter()
            .flat_map(Cnf::clauses)
            .chain(self.hard.iter().map(Vec::as_slice))
    }

    /// Number of hard clauses.
    pub fn hard_len(&self) -> usize {
        self.base.map_or(0, Cnf::num_clauses) + self.hard.len()
    }

    /// Soft clauses.
    pub fn soft(&self) -> &[SoftClause] {
        &self.soft
    }

    /// Number of soft clauses.
    pub fn soft_len(&self) -> usize {
        self.soft.len()
    }

    /// True iff every soft clause has weight 1.
    pub fn has_unit_weights(&self) -> bool {
        self.soft.iter().all(|s| s.weight == 1)
    }

    /// Total soft weight available.
    pub fn total_soft_weight(&self) -> u64 {
        self.soft.iter().map(|s| s.weight).sum()
    }

    fn grow_vars(&mut self, lits: &[Lit]) {
        for l in lits {
            self.num_vars = self.num_vars.max(l.var().0 + 1);
        }
    }

    /// Adds a hard clause.
    pub fn add_hard(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let lits: Vec<Lit> = lits.into_iter().collect();
        self.grow_vars(&lits);
        self.hard.push(lits);
    }

    /// Adds a soft clause with the given weight (must be ≥ 1).
    pub fn add_soft(&mut self, lits: impl IntoIterator<Item = Lit>, weight: u64) {
        assert!(weight >= 1, "soft weights must be positive");
        let lits: Vec<Lit> = lits.into_iter().collect();
        self.grow_vars(&lits);
        self.soft.push(SoftClause { lits, weight });
    }

    /// True iff `assignment` satisfies every hard clause.
    pub fn hard_satisfied(&self, assignment: &[bool]) -> bool {
        self.hard_iter().all(|c| clause_satisfied(c, assignment))
    }

    /// Weight of soft clauses satisfied by `assignment`.
    pub fn soft_weight(&self, assignment: &[bool]) -> u64 {
        self.soft
            .iter()
            .filter(|s| clause_satisfied(&s.lits, assignment))
            .map(|s| s.weight)
            .sum()
    }
}

/// Evaluates one clause under a total assignment.
pub(crate) fn clause_satisfied(clause: &[Lit], assignment: &[bool]) -> bool {
    clause
        .iter()
        .any(|l| assignment[l.var().index()] == l.is_positive())
}

/// Result of a MaxSAT solve.
#[derive(Clone, Debug)]
pub struct MaxSatResult {
    /// The best feasible assignment found (one `bool` per variable).
    pub assignment: Vec<bool>,
    /// Per-soft-clause satisfaction flags under that assignment.
    pub satisfied_soft: Vec<bool>,
    /// Total satisfied soft weight.
    pub total_weight: u64,
    /// True iff the result is provably optimal.
    pub optimal: bool,
}

impl MaxSatResult {
    /// Builds a result by evaluating `assignment` against `instance`.
    pub fn from_assignment(
        instance: &MaxSatInstance<'_>,
        assignment: Vec<bool>,
        optimal: bool,
    ) -> Self {
        let satisfied_soft: Vec<bool> = instance
            .soft()
            .iter()
            .map(|s| clause_satisfied(&s.lits, &assignment))
            .collect();
        let total_weight = instance
            .soft()
            .iter()
            .zip(&satisfied_soft)
            .filter(|(_, sat)| **sat)
            .map(|(s, _)| s.weight)
            .sum();
        MaxSatResult {
            assignment,
            satisfied_soft,
            total_weight,
            optimal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_sat::Var;

    #[test]
    fn bookkeeping() {
        let mut inst = MaxSatInstance::new(0);
        inst.add_hard([Var(2).positive()]);
        inst.add_soft([Var(0).negative(), Var(1).positive()], 3);
        assert_eq!(inst.num_vars(), 3);
        assert!(!inst.has_unit_weights());
        assert_eq!(inst.total_soft_weight(), 3);
        let a = vec![false, false, true];
        assert!(inst.hard_satisfied(&a));
        assert_eq!(inst.soft_weight(&a), 3);
        let r = MaxSatResult::from_assignment(&inst, a, true);
        assert_eq!(r.total_weight, 3);
        assert_eq!(r.satisfied_soft, vec![true]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        MaxSatInstance::new(1).add_soft([Var(0).positive()], 0);
    }

    #[test]
    fn borrowed_hard_base_is_not_copied_but_counts() {
        let mut base = Cnf::new();
        base.add_clause([Var(0).positive(), Var(1).positive()]);
        base.add_clause([Var(0).negative(), Var(1).negative()]);
        let mut inst = MaxSatInstance::with_hard_base(&base);
        assert_eq!(inst.num_vars(), 2);
        assert_eq!(inst.hard_len(), 2);
        inst.add_hard([Var(2).positive()]);
        inst.add_soft([Var(0).positive()], 1);
        assert_eq!(inst.hard_len(), 3);
        assert_eq!(inst.hard_iter().count(), 3);
        assert!(inst.hard_satisfied(&[true, false, true]));
        assert!(!inst.hard_satisfied(&[true, true, true]));
        // Both solvers honour the borrowed base.
        let res = crate::exact::solve_exact(&inst).unwrap();
        assert_eq!(res.total_weight, 1);
        assert!(inst.hard_satisfied(&res.assignment));
        let ls = crate::walksat::solve_walksat(&inst, 1000, 1).unwrap();
        assert!(inst.hard_satisfied(&ls.assignment));
    }
}
