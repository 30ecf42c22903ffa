//! A strict-total-order theory for the root unit propagator.
//!
//! The conflict-resolution encoding orders each attribute's values with
//! one atom `x_ab` ("`a ≺ b`") per ordered pair of distinct values, under
//! the `O(n³)` order axioms: asymmetry `¬x_ab ∨ ¬x_ba`, totality
//! `x_ab ∨ x_ba` and transitivity `¬x_ab ∨ ¬x_bc ∨ x_ac`. Instead of
//! holding them as clauses, a [`UnitPropagator`](crate::UnitPropagator)
//! registers the atoms of each *domain* (`n` values) with
//! [`register_order_domain`](crate::UnitPropagator::register_order_domain)
//! and this theory derives their consequences as literals are assigned.
//!
//! Each value `x` keeps two persistent bit rows, one bit per value `c`:
//! *out* (`x ≺ c` is true) and *in* (`c ≺ x` is true). On an assigned
//! order literal the theory updates the rows and pushes the implied
//! literals straight onto the propagator's queue:
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
//! Conflicts surface when the propagator pops a literal whose negation
//! holds; at the root no reason clause is needed. The theory keeps no
//! provenance: a retraction resets the propagator, which clears the rows,
//! and the re-derived fixpoint sets them again.

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

    /// Clears every row: the propagator's assignment was reset.
    pub(crate) fn clear(&mut self) {
        for d in &mut self.domains {
            d.rows.fill(0);
        }
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
    use crate::cnf::Cnf;
    use crate::lit::{Lit, Var};
    use crate::unit_propagation::{UnitPropagator, NO_GROUP};

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
    /// grouped clauses over both. Each domain has a hidden ranking that
    /// most generated units agree with, so many cases reach a large
    /// consistent fixpoint.
    #[derive(Default)]
    struct Instance {
        num_vars: u32,
        /// Per domain, `vars[lo][hi]` (the diagonal is unused).
        domains: Vec<Vec<Vec<Var>>>,
        /// Per domain, its values from least to most current.
        rankings: Vec<Vec<usize>>,
        extras: Vec<Var>,
        clauses: Vec<(Vec<Lit>, u32)>,
        retracted: Vec<u32>,
    }

    impl Instance {
        fn new_var(&mut self) -> Var {
            self.num_vars += 1;
            Var(self.num_vars - 1)
        }

        /// Appends `k` values to domain `d` (a new domain if `d` is the
        /// next index), allocating their atoms and one extra variable, and
        /// registers the grown domain with `up`.
        fn grow(&mut self, up: &mut UnitPropagator, d: usize, k: usize, rng: &mut Rng) {
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
            let vars = &self.domains[d];
            up.register_order_domain(d as u32, vars.len(), |lo, hi| vars[lo][hi]);
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

        fn add(&mut self, up: &mut UnitPropagator, lits: Vec<Lit>, group: u32) {
            up.add_clause_grouped(&lits, group);
            self.clauses.push((lits, group));
        }

        /// A fresh propagator over the live clauses plus every asymmetry,
        /// totality and transitivity clause of every domain.
        fn eager(&self) -> UnitPropagator {
            let mut up = UnitPropagator::new(&Cnf::new());
            up.ensure_vars(self.num_vars as usize);
            for (lits, g) in &self.clauses {
                if !self.retracted.contains(g) {
                    up.add_clause_grouped(lits, *g);
                }
            }
            for x in &self.domains {
                let n = x.len();
                for a in 0..n {
                    for b in (0..n).filter(|&b| b != a) {
                        if a < b {
                            up.add_clause(&[x[a][b].negative(), x[b][a].negative()]);
                            up.add_clause(&[x[a][b].positive(), x[b][a].positive()]);
                        }
                        for c in (0..n).filter(|&c| c != a && c != b) {
                            up.add_clause(&[
                                x[a][b].negative(),
                                x[b][c].negative(),
                                x[a][c].positive(),
                            ]);
                        }
                    }
                }
            }
            up
        }
    }

    fn sorted(lits: &[Lit]) -> Vec<Lit> {
        let mut lits = lits.to_vec();
        lits.sort_unstable();
        lits
    }

    #[test]
    fn chain_closes_and_cycle_conflicts() {
        let mut inst = Instance::default();
        let mut up = UnitPropagator::new(&Cnf::new());
        inst.grow(&mut up, 0, 4, &mut Rng(1));
        let x = inst.domains[0].clone();
        up.add_clause(&[x[0][1].positive()]);
        up.add_clause(&[x[2][1].negative()]); // 1 ≺ 2, by totality
        up.add_clause_grouped(&[x[2][3].positive()], 1);
        let implied = up.propagate_to_fixpoint().unwrap().to_vec();
        for (a, b) in [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)] {
            assert!(implied.contains(&x[a][b].positive()), "{a} ≺ {b}");
            assert!(implied.contains(&x[b][a].negative()), "not {b} ≺ {a}");
        }
        up.add_clause(&[x[3][0].positive()]);
        assert!(up.propagate_to_fixpoint().is_none(), "3 ≺ 0 closes a cycle");
        up.retract_groups(&[1]);
        let implied = sorted(up.propagate_to_fixpoint().expect("the cycle lost 2 ≺ 3"));
        assert!(implied.contains(&x[3][1].positive()));
        assert!(!implied.contains(&x[2][3].positive()));
    }

    /// One random case of `order_theory_matches_eager_axiom_clauses`; an
    /// `Err` names the step whose fixpoints differ.
    fn run_case(num_domains: usize, wide: bool, rng: &mut Rng) -> Result<(), String> {
        let mut inst = Instance::default();
        let mut up = UnitPropagator::new(&Cnf::new());
        for d in 0..num_domains {
            let n = if wide && d == 0 {
                60 + rng.below(6)
            } else {
                rng.below(7)
            };
            inst.grow(&mut up, d, n, rng);
        }
        let mut open_groups: Vec<u32> = vec![1];
        let mut next_group = 2;
        let steps = 12 + rng.below(16);
        for step in 0..=steps {
            let group = if rng.one_in(3) {
                open_groups[rng.below(open_groups.len())]
            } else {
                NO_GROUP
            };
            let d = rng.below(num_domains);
            let n = inst.domains[d].len();
            match if step == steps { 2 } else { rng.below(12) } {
                // Grow a domain after propagation.
                0 => {
                    let _ = up.propagate_to_fixpoint();
                    inst.grow(&mut up, d, 1 + rng.below(4), rng);
                }
                // Retract a group; open another.
                1 => {
                    if let Some(g) = open_groups.pop() {
                        up.retract_groups(&[g]);
                        inst.retracted.push(g);
                    }
                    open_groups.push(next_group);
                    next_group += 1;
                }
                // Compare with the eager clause set (a wide case's is
                // large: only at the end).
                2 | 3 if !wide || step == steps => {
                    let got = up.propagate_to_fixpoint().map(sorted);
                    let want = inst.eager().propagate_to_fixpoint().map(sorted);
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
                        inst.add(&mut up, vec![inst.domains[d][p][q].positive()], group);
                    }
                }
                // A clause of one to three literals; units mostly agree
                // with the rankings.
                _ => {
                    let len = 1 + rng.below(3).min(rng.below(3));
                    let mut lits = Vec::with_capacity(len);
                    for _ in 0..len {
                        let d = rng.below(num_domains);
                        if inst.domains[d].len() < 2 || rng.one_in(8) {
                            let e = inst.extras[rng.below(inst.extras.len())];
                            lits.push(e.lit(rng.one_in(2)));
                        } else {
                            let consistent = if len == 1 {
                                !rng.one_in(8)
                            } else {
                                rng.one_in(2)
                            };
                            lits.push(inst.ranked_lit(d, consistent, rng));
                        }
                    }
                    inst.add(&mut up, lits, group);
                }
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(40))]

        /// The theory's fixpoint (or conflict) equals that of a fresh
        /// propagator holding every axiom clause, on random order
        /// instances whose clause additions, domain growth (atoms
        /// registered after propagation) and group retractions
        /// interleave. One case in six has a domain of 60–70 values,
        /// whose rows span two words.
        #[test]
        fn order_theory_matches_eager_axiom_clauses(
            num_domains in 1usize..4,
            wide in 0usize..6,
            seed in 0u64..u64::MAX,
        ) {
            let result = run_case(num_domains, wide == 0, &mut Rng(seed));
            proptest::prop_assert!(result.is_ok(), "{}", result.unwrap_err());
        }
    }
}
