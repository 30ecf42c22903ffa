//! A strict-total-order theory for the CDCL solver.
//!
//! The conflict-resolution encoding orders each attribute's values with
//! one atom `x_ab` ("`a ≺ b`") per ordered pair of distinct values, under
//! the `O(n³)` order axioms: asymmetry `¬x_ab ∨ ¬x_ba`, totality
//! `x_ab ∨ x_ba` and transitivity `¬x_ab ∨ ¬x_bc ∨ x_ac`. Instead of
//! holding them as clauses, a solver registers the atoms of each *domain*
//! (`n` values) with
//! [`Solver::register_order_domain`](crate::Solver::register_order_domain)
//! and this theory derives their consequences as literals are assigned.
//!
//! Each value `x` keeps two bit rows, one bit per value `c`: *out*
//! (`x ≺ c` is true) and *in* (`c ≺ x` is true). On an assigned order
//! literal the theory updates the rows and pushes the implied literals
//! onto the solver's queue:
//!
//! * `¬x_ab` implies `x_ba` (totality);
//! * `x_ab` implies `¬x_ba` (asymmetry), `x_ac` for every `c` with `x_bc`
//!   true (forward transitivity) and `x_cb` for every `c` with `x_ca` true
//!   (backward transitivity), found by word operations over the rows.
//!
//! A false atom only triggers totality, since its true reverse atom scans
//! every transitivity instance of the pair; whichever premise of an
//! instance is assigned last sees the other in its rows. So the fixpoint,
//! or the conflict, is that of unit propagation over every axiom clause.
//! Conflicts surface when the solver meets an implied literal whose
//! negation holds.
//!
//! The solver unassigns literals when it backtracks: it clears a true
//! atom's bits then (`OrderTheory::on_unassign`), and when conflict
//! analysis asks why a literal holds it rebuilds the axiom instance from
//! the literal and the one trigger literal it stored
//! (`OrderTheory::explain`). No clause is ever allocated.

use crate::lit::{LBool, Lit, Var};

/// Domain of a variable that is no order atom.
const NO_DOMAIN: u32 = u32::MAX;

/// The diagonal slots of [`Domain::vars`].
const NO_VAR: u32 = u32::MAX;

/// One registered domain.
#[derive(Clone, Debug, Default)]
struct Domain {
    /// Number of values.
    n: usize,
    /// `u64` words per bit row.
    words: usize,
    /// `n × n` row-major atom variables (`lo * n + hi`).
    vars: Vec<u32>,
    /// Per value `x`, its out row then its in row.
    rows: Vec<u64>,
}

/// The order theory's state: the atom of every registered variable and
/// the bit rows of every domain (see the module docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct OrderTheory {
    /// Var index → `(domain, lo, hi)`, with domain [`NO_DOMAIN`] for
    /// other variables.
    atoms: Vec<(u32, u32, u32)>,
    domains: Vec<Domain>,
}

impl OrderTheory {
    /// Registers domain `domain` with `n` values, whose atom `lo ≺ hi` is
    /// `var(lo, hi)`. Registering a known domain again with more values
    /// grows it: only its own table and rows are laid out again for the
    /// new width (copied row by row), its old values keep their bits, and
    /// `var` is asked only for the new atoms. Values are only appended,
    /// and a new atom must be unassigned (it completes no axiom instance,
    /// so registration owes no propagation). Returns the number of
    /// variables the atoms need.
    pub(crate) fn register_domain(
        &mut self,
        domain: u32,
        n: usize,
        var: impl Fn(usize, usize) -> Var,
        assign: &[LBool],
    ) -> usize {
        let OrderTheory { atoms, domains } = self;
        let di = domain as usize;
        if domains.len() <= di {
            domains.resize_with(di + 1, Domain::default);
        }
        let old = &domains[di];
        debug_assert!(n >= old.n, "an order domain only grows");
        if n == old.n && !old.vars.is_empty() {
            return atoms.len();
        }
        let words = n.div_ceil(64);
        let mut rows = vec![0u64; 2 * n * words];
        for (r, old_row) in old.rows.chunks_exact(old.words.max(1)).enumerate() {
            rows[r * words..r * words + old.words].copy_from_slice(old_row);
        }
        debug_assert!(
            (0..old.n)
                .all(|lo| (0..old.n)
                    .all(|hi| hi == lo || var(lo, hi).0 == old.vars[lo * old.n + hi])),
            "a registered atom never changes"
        );
        let mut vars = vec![NO_VAR; n * n];
        for (lo, old_row) in old.vars.chunks_exact(old.n.max(1)).enumerate() {
            vars[lo * n..lo * n + old.n].copy_from_slice(old_row);
        }
        // Only the new values' row and column slots are new atoms.
        for lo in 0..n {
            let first_new = if lo < old.n { old.n } else { 0 };
            for hi in (first_new..n).filter(|&hi| hi != lo) {
                let v = var(lo, hi);
                debug_assert!(
                    assign.get(v.index()).is_none_or(|&b| b == LBool::Undef),
                    "order atom {v:?} registered after it was assigned"
                );
                vars[lo * n + hi] = v.0;
                if atoms.len() <= v.index() {
                    atoms.resize(v.index() + 1, (NO_DOMAIN, 0, 0));
                }
                atoms[v.index()] = (domain, lo as u32, hi as u32);
            }
        }
        domains[di] = Domain {
            n,
            words,
            vars,
            rows,
        };
        atoms.len()
    }

    /// Clears the bits `lit` set when it was assigned
    /// ([`OrderTheory::on_assign`]): a backtracking solver calls this for
    /// every literal it unassigns. Only a true atom sets bits, and
    /// clearing bits that were never set is harmless.
    #[inline]
    pub(crate) fn on_unassign(&mut self, lit: Lit) {
        if !lit.is_positive() {
            return;
        }
        let Some(&(domain, lo, hi)) = self.atoms.get(lit.var().index()) else {
            return;
        };
        if domain == NO_DOMAIN {
            return;
        }
        let d = &mut self.domains[domain as usize];
        let (a, b) = (lo as usize, hi as usize);
        d.rows[2 * a * d.words + b / 64] &= !(1 << (b % 64));
        d.rows[(2 * b + 1) * d.words + a / 64] &= !(1 << (a % 64));
    }

    /// Appends the axiom instance that made [`OrderTheory::on_assign`]
    /// push `implied` on the assignment of `trigger` to `out`, as a clause
    /// with `implied` first: `implied ∨ ¬trigger` for asymmetry and
    /// totality, plus the negated second premise for transitivity. The
    /// premise is recovered from the two atoms' values: forward
    /// `x_ab ∧ x_bc → x_ac` shares `lo` and its premise is `x_bc`;
    /// backward `x_ca ∧ x_ab → x_cb` shares `hi` and its premise is `x_ca`.
    pub(crate) fn explain(&self, implied: Lit, trigger: Lit, out: &mut Vec<Lit>) {
        let (domain, t_lo, t_hi) = self.atoms[trigger.var().index()];
        let (_, i_lo, i_hi) = self.atoms[implied.var().index()];
        out.push(implied);
        out.push(trigger.negate());
        if i_lo == t_hi && i_hi == t_lo {
            return;
        }
        let d = &self.domains[domain as usize];
        let (lo, hi) = if i_lo == t_lo {
            (t_hi, i_hi)
        } else {
            debug_assert_eq!(i_hi, t_hi, "a transitivity instance shares lo or hi");
            (i_lo, t_lo)
        };
        out.push(Var(d.vars[lo as usize * d.n + hi as usize]).negative());
    }

    /// Records the assignment of `lit` (already made in `assign`) and
    /// pushes the literals the order axioms imply onto `queue` (see the
    /// module docs). Variables that are no order atom are ignored.
    #[inline]
    pub(crate) fn on_assign(&mut self, lit: Lit, assign: &[LBool], queue: &mut Vec<Lit>) {
        let Some(&(domain, lo, hi)) = self.atoms.get(lit.var().index()) else {
            return;
        };
        if domain == NO_DOMAIN {
            return;
        }
        let d = &mut self.domains[domain as usize];
        let (n, words) = (d.n, d.words);
        let (a, b) = (lo as usize, hi as usize);
        let ba = Var(d.vars[b * n + a]);
        if !lit.is_positive() {
            // Totality: ¬x_ab → x_ba.
            if assign[ba.index()] != LBool::True {
                queue.push(ba.positive());
            }
            return;
        }
        // Asymmetry: x_ab → ¬x_ba.
        if assign[ba.index()] != LBool::False {
            queue.push(ba.negative());
        }
        let (out_a, in_a) = (2 * a * words, (2 * a + 1) * words);
        let (out_b, in_b) = (2 * b * words, (2 * b + 1) * words);
        d.rows[out_a + b / 64] |= 1 << (b % 64);
        d.rows[in_b + a / 64] |= 1 << (a % 64);
        for w in 0..words {
            // Forward: x_ab ∧ x_bc → x_ac, unless x_ac holds already. A set
            // bit `a` means x_ba, which asymmetry refutes.
            let mut fwd = d.rows[out_b + w] & !d.rows[out_a + w];
            if w == a / 64 {
                fwd &= !(1 << (a % 64));
            }
            while fwd != 0 {
                let c = w * 64 + fwd.trailing_zeros() as usize;
                fwd &= fwd - 1;
                queue.push(Var(d.vars[a * n + c]).positive());
            }
            // Backward: x_ca ∧ x_ab → x_cb, unless x_cb holds already.
            let mut bwd = d.rows[in_a + w] & !d.rows[in_b + w];
            if w == b / 64 {
                bwd &= !(1 << (b % 64));
            }
            while bwd != 0 {
                let c = w * 64 + bwd.trailing_zeros() as usize;
                bwd &= bwd - 1;
                queue.push(Var(d.vars[c * n + b]).positive());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::lit::{Lit, Var};
    use crate::solver::{SolveResult, Solver};

    /// SplitMix64: every random choice of a case derives from one seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n` (`n > 0`).
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// True with probability `1/k`.
        fn one_in(&mut self, k: u64) -> bool {
            self.next().is_multiple_of(k)
        }
    }

    /// A random order instance, built step by step: domains whose atoms
    /// are ordinary variables, extra variables that are no atom, and
    /// tagged clauses over both; deleting a tag's clauses rebuilds the
    /// solver on its recycled scratch and refills it with the survivors,
    /// as the engine does when an answer deletes a CFD's clauses. Each
    /// domain has a hidden ranking that most generated units agree with,
    /// so many cases reach a large consistent root fixpoint.
    #[derive(Default)]
    struct Instance {
        num_vars: u32,
        /// Per domain, `vars[lo][hi]` (the diagonal is unused).
        domains: Vec<Vec<Vec<Var>>>,
        /// Per domain, its values from least to most current.
        rankings: Vec<Vec<usize>>,
        extras: Vec<Var>,
        clauses: Vec<(Vec<Lit>, u32)>,
    }

    impl Instance {
        fn new_var(&mut self) -> Var {
            self.num_vars += 1;
            Var(self.num_vars - 1)
        }

        /// Appends `k` values to domain `d` (a new domain if `d` is the
        /// next index), allocating their atoms and one extra variable, and
        /// registers the grown domain with `solver`.
        fn grow(&mut self, solver: &mut Solver, d: usize, k: usize, rng: &mut Rng) {
            self.grow_values(d, k, rng);
            let vars = &self.domains[d];
            solver.register_order_domain(d as u32, vars.len(), |lo, hi| vars[lo][hi]);
        }

        /// [`Instance::grow`] without the registration.
        fn grow_values(&mut self, d: usize, k: usize, rng: &mut Rng) {
            if d == self.domains.len() {
                self.domains.push(Vec::new());
                self.rankings.push(Vec::new());
            }
            for _ in 0..k {
                let n = self.domains[d].len();
                let mut row = Vec::with_capacity(n + 1);
                for lo in 0..n {
                    let (up, down) = (self.new_var(), self.new_var());
                    self.domains[d][lo].push(up);
                    row.push(down);
                }
                row.push(Var(u32::MAX)); // diagonal
                self.domains[d].push(row);
                let at = rng.below(n + 1);
                self.rankings[d].insert(at, n);
            }
            let extra = self.new_var();
            self.extras.push(extra);
        }

        /// "`p ≺ q`" for two values of domain `d` close in its ranking:
        /// the ranked pair when `consistent`, reversed otherwise, stated
        /// as `x_pq` or as `¬x_qp`. The domain has at least two values.
        fn ranked_lit(&self, d: usize, consistent: bool, rng: &mut Rng) -> Lit {
            let ranking = &self.rankings[d];
            let i = rng.below(ranking.len() - 1);
            let j = (i + 1 + rng.below(3)).min(ranking.len() - 1);
            let (p, q) = if consistent {
                (ranking[i], ranking[j])
            } else {
                (ranking[j], ranking[i])
            };
            let x = &self.domains[d];
            if rng.one_in(2) {
                x[p][q].positive()
            } else {
                x[q][p].negative()
            }
        }

        fn add(&mut self, solver: &mut Solver, lits: Vec<Lit>, tag: u32) {
            solver.add_clause(lits.iter().copied());
            self.clauses.push((lits, tag));
        }

        /// Deletes the clauses tagged `tag`, then rebuilds `solver` on its
        /// scratch and refills it with every domain and the surviving
        /// clauses.
        fn delete(&mut self, solver: &mut Solver, tag: u32) {
            self.clauses.retain(|&(_, t)| t != tag);
            *solver = Solver::from_scratch(std::mem::take(solver).into_scratch());
            for (d, vars) in self.domains.iter().enumerate() {
                solver.register_order_domain(d as u32, vars.len(), |lo, hi| vars[lo][hi]);
            }
            for (lits, _) in &self.clauses {
                solver.add_clause(lits.iter().copied());
            }
        }

        /// Every asymmetry, totality and transitivity clause of every
        /// domain.
        fn axioms(&self) -> Vec<Vec<Lit>> {
            let mut axioms = Vec::new();
            for x in &self.domains {
                let n = x.len();
                for a in 0..n {
                    for b in (0..n).filter(|&b| b != a) {
                        if a < b {
                            axioms.push(vec![x[a][b].negative(), x[b][a].negative()]);
                            axioms.push(vec![x[a][b].positive(), x[b][a].positive()]);
                        }
                        for c in (0..n).filter(|&c| c != a && c != b) {
                            axioms.push(vec![
                                x[a][b].negative(),
                                x[b][c].negative(),
                                x[a][c].positive(),
                            ]);
                        }
                    }
                }
            }
            axioms
        }

        /// A fresh solver over the clauses plus every axiom clause.
        fn eager_solver(&self) -> Solver {
            let mut solver = Solver::new();
            while solver.num_vars() < self.num_vars {
                solver.new_var();
            }
            for lits in self
                .clauses
                .iter()
                .map(|(lits, _)| lits)
                .chain(&self.axioms())
            {
                solver.add_clause(lits.iter().copied());
            }
            solver
        }

        /// A random clause of one to three literals over the atoms and
        /// the extra variables; units mostly agree with the rankings.
        fn random_clause(&self, rng: &mut Rng) -> Vec<Lit> {
            let num_domains = self.domains.len();
            let len = 1 + rng.below(3).min(rng.below(3));
            let mut lits = Vec::with_capacity(len);
            for _ in 0..len {
                let d = rng.below(num_domains);
                if self.domains[d].len() < 2 || rng.one_in(8) {
                    let e = self.extras[rng.below(self.extras.len())];
                    lits.push(e.lit(rng.one_in(2)));
                } else {
                    let consistent = if len == 1 {
                        !rng.one_in(8)
                    } else {
                        rng.one_in(2)
                    };
                    lits.push(self.ranked_lit(d, consistent, rng));
                }
            }
            lits
        }

        /// A clause of two or three literals of either sign over atoms of
        /// any domain (one literal in eight an extra variable): unlike
        /// [`Instance::random_clause`], it leans on no ranking, so many
        /// solves need search through transitivity conflicts.
        fn any_clause(&self, rng: &mut Rng) -> Vec<Lit> {
            let len = 2 + rng.below(2);
            let mut lits = Vec::with_capacity(len);
            for _ in 0..len {
                let d = rng.below(self.domains.len());
                let n = self.domains[d].len();
                let var = if rng.one_in(8) {
                    self.extras[rng.below(self.extras.len())]
                } else {
                    let a = rng.below(n);
                    self.domains[d][a][(a + 1 + rng.below(n - 1)) % n]
                };
                lits.push(var.lit(rng.one_in(2)));
            }
            lits
        }
    }

    /// The root trail of `solver`, sorted (`None` on a root conflict).
    fn root_fixpoint(solver: &Solver) -> Option<Vec<Lit>> {
        let mut lits = solver.root_trail()?.to_vec();
        lits.sort_unstable();
        Some(lits)
    }

    #[test]
    fn chain_closes_and_cycle_conflicts() {
        let mut inst = Instance::default();
        let mut solver = Solver::new();
        inst.grow(&mut solver, 0, 4, &mut Rng(1));
        let x = inst.domains[0].clone();
        inst.add(&mut solver, vec![x[0][1].positive()], 0);
        inst.add(&mut solver, vec![x[2][1].negative()], 0); // 1 ≺ 2, by totality
        inst.add(&mut solver, vec![x[2][3].positive()], 1);
        let implied = root_fixpoint(&solver).unwrap();
        for (a, b) in [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)] {
            assert!(implied.contains(&x[a][b].positive()), "{a} ≺ {b}");
            assert!(implied.contains(&x[b][a].negative()), "not {b} ≺ {a}");
        }
        inst.add(&mut solver, vec![x[3][0].positive()], 0);
        assert!(solver.root_trail().is_none(), "3 ≺ 0 closes a cycle");
        inst.delete(&mut solver, 1);
        let implied = root_fixpoint(&solver).expect("the cycle lost 2 ≺ 3");
        assert!(implied.contains(&x[3][1].positive()));
        assert!(!implied.contains(&x[2][3].positive()));
    }

    /// One random case of `order_theory_matches_eager_axiom_clauses`; an
    /// `Err` names the step whose root fixpoints differ.
    fn run_case(num_domains: usize, wide: bool, rng: &mut Rng) -> Result<(), String> {
        let mut inst = Instance::default();
        let mut solver = Solver::new();
        for d in 0..num_domains {
            let n = if wide && d == 0 {
                60 + rng.below(6)
            } else {
                rng.below(7)
            };
            inst.grow(&mut solver, d, n, rng);
        }
        // Tag 0 is never deleted.
        let mut open_tags: Vec<u32> = vec![1];
        let mut next_tag = 2;
        let steps = 12 + rng.below(16);
        for step in 0..=steps {
            let tag = if rng.one_in(3) {
                open_tags[rng.below(open_tags.len())]
            } else {
                0
            };
            let d = rng.below(num_domains);
            let n = inst.domains[d].len();
            match if step == steps { 2 } else { rng.below(12) } {
                // Grow a domain after propagation.
                0 => inst.grow(&mut solver, d, 1 + rng.below(4), rng),
                // Delete a tag's clauses and rebuild; open another tag.
                1 => {
                    if let Some(t) = open_tags.pop() {
                        inst.delete(&mut solver, t);
                    }
                    open_tags.push(next_tag);
                    next_tag += 1;
                }
                // Compare with the eager clause set (a wide case's is
                // large: only at the end).
                2 | 3 if !wide || step == steps => {
                    let got = root_fixpoint(&solver);
                    let want = root_fixpoint(&inst.eager_solver());
                    if got != want {
                        return Err(format!("step {step}: theory {got:?}, eager {want:?}"));
                    }
                }
                // A chain of units along the ranking.
                4 if n >= 2 => {
                    let start = rng.below(n);
                    let end = (start + 2 + rng.below(n.min(24))).min(n);
                    for i in start + 1..end {
                        let (p, q) = (inst.rankings[d][i - 1], inst.rankings[d][i]);
                        inst.add(&mut solver, vec![inst.domains[d][p][q].positive()], tag);
                    }
                }
                _ => {
                    let lits = inst.random_clause(rng);
                    inst.add(&mut solver, lits, tag);
                }
            }
        }
        Ok(())
    }

    /// Whether `model` (one value per variable) satisfies every clause,
    /// every axiom instance and every assumption of the case; an `Err`
    /// names the first one it falsifies.
    fn check_model(inst: &Instance, model: &[bool], assumptions: &[Lit]) -> Result<(), String> {
        let holds = |l: &Lit| model[l.var().index()] == l.is_positive();
        let clauses = inst.clauses.iter().map(|(lits, _)| lits.clone());
        for clause in clauses.chain(inst.axioms()) {
            if !clause.iter().any(holds) {
                return Err(format!("the model falsifies {clause:?}"));
            }
        }
        match assumptions.iter().find(|l| !holds(l)) {
            Some(l) => Err(format!("the model falsifies assumption {l:?}")),
            None => Ok(()),
        }
    }

    /// One random case of `solver_theory_matches_eager_axiom_clauses`; an
    /// `Err` names the solve whose answers differ or whose model breaks a
    /// clause.
    fn run_solver_case(num_domains: usize, rng: &mut Rng) -> Result<(), String> {
        let mut inst = Instance::default();
        let mut solver = Solver::new();
        let register = |solver: &mut Solver, inst: &Instance, d: usize| {
            let vars = &inst.domains[d];
            solver.register_order_domain(d as u32, vars.len(), |lo, hi| vars[lo][hi]);
        };
        for d in 0..num_domains {
            inst.grow_values(d, 5 + rng.below(8), rng);
            register(&mut solver, &inst, d);
        }
        let solves = 5 + rng.below(4);
        for solve in 0..solves {
            // A domain grows between solves, before clauses mention its
            // new atoms.
            if solve > 0 && rng.one_in(3) {
                let d = rng.below(num_domains);
                inst.grow_values(d, 1 + rng.below(3), rng);
                register(&mut solver, &inst, d);
            }
            for _ in 0..8 + rng.below(16) {
                let lits = inst.any_clause(rng);
                solver.add_clause(lits.iter().copied());
                inst.clauses.push((lits, 0));
            }
            let mut assumptions = Vec::new();
            for _ in 0..rng.below(4) {
                let d = rng.below(num_domains);
                assumptions.push(inst.ranked_lit(d, rng.one_in(2), rng));
            }
            let got = solver.solve_with_assumptions(&assumptions);
            let want = inst.eager_solver().solve_with_assumptions(&assumptions);
            if got != want {
                return Err(format!("solve {solve}: theory {got:?}, eager {want:?}"));
            }
            if got == SolveResult::Sat {
                let model = solver.model();
                check_model(&inst, &model, &assumptions)
                    .map_err(|e| format!("solve {solve}: {e}"))?;
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(40))]

        /// The root fixpoint (or conflict) of a solver holding the theory
        /// equals that of a fresh solver holding every axiom clause, on
        /// random order instances whose clause additions, domain growth
        /// (atoms registered after propagation) and clause deletions (each
        /// rebuilding the solver) interleave. One case in six has a domain
        /// of 60–70 values, whose rows span two words.
        #[test]
        fn order_theory_matches_eager_axiom_clauses(
            num_domains in 1usize..4,
            wide in 0usize..6,
            seed in 0u64..u64::MAX,
        ) {
            let result = run_case(num_domains, wide == 0, &mut Rng(seed));
            proptest::prop_assert!(result.is_ok(), "{}", result.unwrap_err());
        }

        /// A solver with the theory registered answers like a solver over
        /// every axiom clause, and each of its models satisfies every
        /// axiom instance, on random order instances: 1–3 domains, random
        /// clauses over atoms and other variables, random assumptions,
        /// several solves on one warm solver and domains grown between
        /// solves.
        #[test]
        fn solver_theory_matches_eager_axiom_clauses(
            num_domains in 1usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let result = run_solver_case(num_domains, &mut Rng(seed));
            proptest::prop_assert!(result.is_ok(), "{}", result.unwrap_err());
        }
    }
}
