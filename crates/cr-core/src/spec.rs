//! Specifications `Se = (It, Σ, Γ)` and their extension with user input.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use cr_constraints::{ConstantCfd, CurrencyConstraint};
use cr_types::{AttrId, EntityInstance, Schema, Tuple, TupleId, Value};

use crate::encode::CompiledProgram;
use crate::orders::PartialOrders;

/// A specification of an entity (Section II-C): the temporal instance
/// `It = (Ie, ⪯_A1, …, ⪯_An)` plus the currency constraints `Σ` and constant
/// CFDs `Γ`.
///
/// Alongside the constraints themselves, a specification caches their
/// **compiled constraint program** ([`CompiledProgram`]) — the per-dataset
/// derivations (referenced-attribute sets, premise shapes, CFD pattern
/// tableaus) the SAT encoder projects every entity through. The cache is
/// shared by clones, so all entities stamped by a dataset generator
/// ([`Specification::set_compiled_program`]) reuse one program. The
/// in-place mutators that leave Σ/Γ alone (user input, value replacement,
/// order and answer withdrawal) keep it; changing Σ/Γ
/// ([`Specification::remove_cfd`],
/// [`Specification::with_constraint_fraction`]) clears it.
///
/// Σ and Γ themselves sit behind `Arc`s, so a clone — and a session
/// restored from a snapshot — shares them instead of copying every
/// constraint.
#[derive(Clone, Debug)]
pub struct Specification {
    entity: EntityInstance,
    orders: PartialOrders,
    sigma: Arc<Vec<CurrencyConstraint>>,
    gamma: Arc<Vec<ConstantCfd>>,
    program: OnceLock<Arc<CompiledProgram>>,
}

impl Specification {
    /// Builds a specification. The orders' arity must match the schema.
    pub fn new(
        entity: EntityInstance,
        orders: PartialOrders,
        sigma: Vec<CurrencyConstraint>,
        gamma: Vec<ConstantCfd>,
    ) -> Self {
        assert_eq!(
            orders.arity(),
            entity.schema().arity(),
            "order arity must match schema arity"
        );
        Specification {
            entity,
            orders,
            sigma: Arc::new(sigma),
            gamma: Arc::new(gamma),
            program: OnceLock::new(),
        }
    }

    /// A specification over another temporal instance with this one's Σ/Γ
    /// and compiled program, both shared (nothing is copied or
    /// recompiled) — how sessions restored from snapshots rebuild their
    /// specification. The orders' arity must match the schema.
    pub(crate) fn with_instance(
        &self,
        entity: EntityInstance,
        orders: PartialOrders,
    ) -> Specification {
        assert_eq!(
            orders.arity(),
            entity.schema().arity(),
            "order arity must match schema arity"
        );
        let out = Specification {
            entity,
            orders,
            sigma: Arc::clone(&self.sigma),
            gamma: Arc::clone(&self.gamma),
            program: OnceLock::new(),
        };
        out.set_compiled_program(Arc::clone(self.compiled_program()));
        out
    }

    /// A specification with empty currency orders (the setting of all the
    /// paper's experiments: "we assumed empty currency orders in all the
    /// experiments even when partial timestamps were given").
    pub fn without_orders(
        entity: EntityInstance,
        sigma: Vec<CurrencyConstraint>,
        gamma: Vec<ConstantCfd>,
    ) -> Self {
        let arity = entity.schema().arity();
        Specification::new(entity, PartialOrders::empty(arity), sigma, gamma)
    }

    /// The entity instance `Ie`.
    pub fn entity(&self) -> &EntityInstance {
        &self.entity
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<Schema> {
        self.entity.schema()
    }

    /// The partial currency orders of `It`.
    pub fn orders(&self) -> &PartialOrders {
        &self.orders
    }

    /// The currency constraints `Σ`.
    pub fn sigma(&self) -> &[CurrencyConstraint] {
        &self.sigma
    }

    /// The constant CFDs `Γ`.
    pub fn gamma(&self) -> &[ConstantCfd] {
        &self.gamma
    }

    /// The compiled constraint program for Σ/Γ, compiling on first use.
    ///
    /// The lazy fallback compiles **without** a value table (constants keep
    /// `Value`-based matching); dataset generators instead stamp a program
    /// compiled once against the dataset's shared table via
    /// [`Specification::set_compiled_program`], which every clone of the
    /// specification then reuses.
    pub fn compiled_program(&self) -> &Arc<CompiledProgram> {
        self.program
            .get_or_init(|| Arc::new(CompiledProgram::compile(&self.sigma, &self.gamma, None)))
    }

    /// Installs a pre-compiled (dataset-shared) constraint program. No-op
    /// if a program is already cached. The program must have been compiled
    /// from this specification's Σ/Γ.
    pub fn set_compiled_program(&self, program: Arc<CompiledProgram>) {
        debug_assert_eq!(
            program.sizes(),
            (self.sigma.len(), self.gamma.len()),
            "compiled program does not match this specification's Σ/Γ"
        );
        let _ = self.program.set(program);
    }

    /// Extends the specification with a partial temporal order `Ot`
    /// (`Se ⊕ Ot` over the existing tuples; for user-supplied *values* see
    /// [`Specification::apply_user_input`]).
    #[must_use]
    pub fn extend_with_orders(&self, ot: &PartialOrders) -> Specification {
        let mut out = self.clone();
        out.orders.merge(ot);
        out
    }

    /// Applies user input per Section III Remark (1), in place: a fresh
    /// tuple `to` carrying the answered values (null elsewhere) is appended,
    /// ranked strictly above every existing tuple on each non-null
    /// attribute. Returns the new tuple's id and the size `|Ot|` of the
    /// induced order extension. Σ/Γ are untouched, so the cached compiled
    /// program stays valid.
    pub fn apply_user_input(&mut self, input: &UserInput) -> (TupleId, usize) {
        let arity = self.entity.schema().arity();
        let mut values = vec![Value::Null; arity];
        for (attr, v) in &input.values {
            values[attr.index()] = v.clone();
        }
        let existing = self.entity.len() as u32;
        let to = self
            .entity
            .push(Tuple::from_values(values))
            .expect("arity checked above");
        let mut added = 0;
        for (attr, v) in &input.values {
            if v.is_null() {
                continue;
            }
            for t in (0..existing).map(TupleId) {
                self.orders.add(*attr, t, to);
                added += 1;
            }
        }
        (to, added)
    }

    /// Per-attribute sizes useful for reporting: `(|Ie|, |Σ|, |Γ|)`.
    pub fn sizes(&self) -> (usize, usize, usize) {
        (self.entity.len(), self.sigma.len(), self.gamma.len())
    }

    /// Replaces the value at `(tid, attr)` in place and returns the previous
    /// value — the spec-level effect of an upstream *value revision* (see
    /// [`crate::ingest`]). Σ/Γ are untouched, so the cached compiled program
    /// stays valid.
    pub fn replace_value(&mut self, tid: TupleId, attr: AttrId, value: Value) -> Value {
        self.entity.replace_value(tid, attr, value)
    }

    /// Withdraws the base order `t1 ≺_attr t2` in place, returning whether
    /// it was present (withdrawing an absent pair is a no-op) — the
    /// spec-level effect of an upstream *order withdrawal*. The compiled
    /// program stays valid.
    pub fn withdraw_order(&mut self, attr: AttrId, t1: TupleId, t2: TupleId) -> bool {
        self.orders.remove(attr, t1, t2)
    }

    /// Withdraws the user answer `(attr, tuple)` in place — the spec-level
    /// effect of an upstream *answer withdrawal*: every order pair ranking
    /// `tuple` on top of `attr` is removed and the answered cell reverts to
    /// null (the input tuple itself remains, null-padded). Returns the
    /// removed pairs. The compiled program stays valid.
    pub fn withdraw_answer(&mut self, attr: AttrId, tuple: TupleId) -> Vec<(TupleId, TupleId)> {
        let removed = self.orders.remove_pairs_above(attr, tuple);
        self.entity.replace_value(tuple, attr, Value::Null);
        removed
    }

    /// Removes `gamma[cfd]` in place — the spec-level effect of an upstream
    /// *CFD retraction*. Γ changes, so the cached compiled program is
    /// cleared (the incremental engine never consults the program for a
    /// retired CFD and keeps its own Γ indexing intact instead — see
    /// [`crate::ingest`]).
    pub fn remove_cfd(&mut self, cfd: usize) {
        Arc::make_mut(&mut self.gamma).remove(cfd);
        self.program = OnceLock::new();
    }

    /// Returns a copy keeping only the first `frac·|Σ|` currency constraints
    /// and `frac·|Γ|` CFDs after a seeded shuffle — the constraint
    /// subsampling used when varying `|Σ|` and `|Γ|` in Fig. 8(f)–(p).
    #[must_use]
    pub fn with_constraint_fraction(
        &self,
        sigma_frac: f64,
        gamma_frac: f64,
        seed: u64,
    ) -> Specification {
        let mut out = self.clone();
        out.sigma = Arc::new(sample(&self.sigma, sigma_frac, seed));
        out.gamma = Arc::new(sample(&self.gamma, gamma_frac, seed.wrapping_add(1)));
        // Σ/Γ changed: the cached compiled program no longer applies.
        out.program = OnceLock::new();
        out
    }
}

/// Deterministic subsample of `frac·len` items using a SplitMix64 shuffle.
fn sample<T: Clone>(items: &[T], frac: f64, seed: u64) -> Vec<T> {
    let keep = ((items.len() as f64) * frac.clamp(0.0, 1.0)).round() as usize;
    if keep >= items.len() {
        return items.to_vec();
    }
    let mut idx: Vec<usize> = (0..items.len()).collect();
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    // Fisher–Yates.
    for i in (1..idx.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    idx.truncate(keep);
    idx.sort_unstable();
    idx.into_iter().map(|i| items[i].clone()).collect()
}

/// True values supplied by a user for a subset of attributes (the `V` of
/// Section III). Values may be outside the active domain ("new values").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UserInput {
    /// Attribute → asserted most-current value.
    pub values: BTreeMap<AttrId, Value>,
}

impl UserInput {
    /// Empty input (the user declined to answer).
    pub fn empty() -> Self {
        UserInput::default()
    }

    /// Input with one answered attribute.
    pub fn single(attr: AttrId, value: Value) -> Self {
        let mut values = BTreeMap::new();
        values.insert(attr, value);
        UserInput { values }
    }

    /// True iff the user answered nothing.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use cr_types::{Schema, Tuple};
    use proptest::collection::vec as vec_of;

    fn spec() -> Specification {
        let s = Schema::new("r", ["a", "b"]).unwrap();
        let e = EntityInstance::new(
            s,
            vec![
                Tuple::of([Value::int(1), Value::str("x")]),
                Tuple::of([Value::int(2), Value::str("y")]),
            ],
        )
        .unwrap();
        Specification::without_orders(e, vec![], vec![])
    }

    #[test]
    fn user_input_appends_ranked_tuple() {
        let sp = spec();
        let mut ext = sp.clone();
        let input = UserInput::single(AttrId(1), Value::str("z"));
        let (to, added) = ext.apply_user_input(&input);
        assert_eq!(ext.entity().len(), 3);
        assert_eq!(to, TupleId(2));
        assert_eq!(added, 2); // above both existing tuples on attr b
        assert!(ext.entity().tuple(to).get(AttrId(0)).is_null());
        assert_eq!(ext.entity().tuple(to).get(AttrId(1)), &Value::str("z"));
        assert_eq!(ext.orders().size(), 2);
        // The clone taken before the input is untouched.
        assert_eq!(sp.entity().len(), 2);
    }

    #[test]
    fn in_place_mutators_keep_or_clear_the_compiled_program() {
        let s = Schema::new("r", ["a", "b"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::int(1), Value::str("x")]),
                Tuple::of([Value::int(2), Value::str("y")]),
            ],
        )
        .unwrap();
        let cfd = cr_constraints::parser::parse_cfds(&s, "a = 1 -> b = \"x\"").unwrap();
        let mut sp = Specification::without_orders(e, vec![], cfd);
        let program = Arc::clone(sp.compiled_program());
        sp.apply_user_input(&UserInput::single(AttrId(0), Value::int(3)));
        sp.replace_value(TupleId(0), AttrId(1), Value::str("w"));
        sp.withdraw_order(AttrId(0), TupleId(0), TupleId(2));
        sp.withdraw_answer(AttrId(0), TupleId(2));
        assert!(
            Arc::ptr_eq(sp.compiled_program(), &program),
            "Σ/Γ unchanged: program kept"
        );
        sp.remove_cfd(0);
        assert!(sp.gamma().is_empty());
        assert_eq!(
            sp.compiled_program().sizes(),
            (0, 0),
            "Γ changed: program recompiled"
        );
    }

    /// The observable mutable state of a specification, as plain data: the
    /// rows (read through both the tuples and the dense id rows) and every
    /// order pair.
    #[derive(Clone, Debug, PartialEq)]
    struct Model {
        rows: Vec<Vec<Value>>,
        pairs: BTreeSet<(AttrId, TupleId, TupleId)>,
    }

    fn observe(sp: &Specification) -> Model {
        let e = sp.entity();
        let attrs: Vec<AttrId> = sp.schema().attr_ids().collect();
        let rows = e
            .tuple_ids()
            .map(|t| {
                attrs
                    .iter()
                    .map(|&a| {
                        let v = e.tuple(t).get(a).clone();
                        assert_eq!(e.dense_value(e.dense_id(t, a)), &v, "dense row out of sync");
                        assert_eq!(e.is_null_at(t, a), v.is_null());
                        v
                    })
                    .collect()
            })
            .collect();
        let pairs = attrs
            .iter()
            .flat_map(|&a| sp.orders().pairs(a).map(move |(lo, hi)| (a, lo, hi)))
            .collect();
        Model { rows, pairs }
    }

    fn cell(v: i64) -> Value {
        if v == 0 {
            Value::Null
        } else {
            Value::int(v)
        }
    }

    const ARITY: usize = 3;

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// Random sequences of the in-place mutators agree, step by step,
        /// with a plain model of rows and order pairs, and never reach a
        /// clone taken before the step.
        #[test]
        fn in_place_mutators_match_a_plain_model(
            base in vec_of(vec_of(0i64..5, ARITY), 1..5),
            seed_pairs in vec_of((0usize..ARITY, 0u32..4, 0u32..4), 0..6),
            steps in vec_of((0u8..4, 0usize..64, 0usize..64, 0i64..5, 0u8..8), 1..24),
        ) {
            let schema = Schema::new("r", ["a", "b", "c"]).unwrap();
            let rows: Vec<Vec<Value>> =
                base.iter().map(|r| r.iter().map(|&v| cell(v)).collect()).collect();
            let tuples = rows.iter().map(|r| Tuple::from_values(r.clone())).collect();
            let entity = EntityInstance::new(schema, tuples).unwrap();
            let mut orders = PartialOrders::empty(ARITY);
            let mut model = Model { rows, pairs: BTreeSet::new() };
            for &(a, lo, hi) in &seed_pairs {
                let n = model.rows.len() as u32;
                let (lo, hi) = (TupleId(lo % n), TupleId(hi % n));
                if lo != hi {
                    orders.add(AttrId(a as u16), lo, hi);
                    model.pairs.insert((AttrId(a as u16), lo, hi));
                }
            }
            let mut sp = Specification::new(entity, orders, vec![], vec![]);
            proptest::prop_assert_eq!(observe(&sp), model.clone());

            for (kind, x, y, v, mask) in steps {
                let before = sp.clone();
                let model_before = model.clone();
                let n = model.rows.len();
                let attr = AttrId((x % ARITY) as u16);
                let t = TupleId((y % n) as u32);
                match kind {
                    0 => {
                        // Answer the attributes in `mask`, with `v` (or null).
                        let mut input = UserInput::empty();
                        let mut row = vec![Value::Null; ARITY];
                        for a in (0..ARITY).filter(|a| mask & (1 << a) != 0) {
                            input.values.insert(AttrId(a as u16), cell(v + a as i64));
                            row[a] = cell(v + a as i64);
                        }
                        let to = TupleId(n as u32);
                        let mut added = 0;
                        for (&a, value) in &input.values {
                            if !value.is_null() {
                                for lo in 0..n as u32 {
                                    model.pairs.insert((a, TupleId(lo), to));
                                    added += 1;
                                }
                            }
                        }
                        model.rows.push(row);
                        proptest::prop_assert_eq!(sp.apply_user_input(&input), (to, added));
                    }
                    1 => {
                        let slot = &mut model.rows[t.index()][attr.index()];
                        let old = std::mem::replace(slot, cell(v));
                        proptest::prop_assert_eq!(sp.replace_value(t, attr, cell(v)), old);
                    }
                    2 => {
                        // Withdraw an asserted pair when one exists, else a
                        // random (usually absent) one.
                        let (a, lo, hi) = model
                            .pairs
                            .iter()
                            .nth(x % model.pairs.len().max(1))
                            .copied()
                            .filter(|_| mask % 2 == 0)
                            .unwrap_or((attr, TupleId((x % n) as u32), t));
                        let present = model.pairs.remove(&(a, lo, hi));
                        proptest::prop_assert_eq!(sp.withdraw_order(a, lo, hi), present);
                    }
                    _ => {
                        let removed: Vec<(TupleId, TupleId)> = model
                            .pairs
                            .iter()
                            .filter(|&&(a, _, hi)| a == attr && hi == t)
                            .map(|&(_, lo, hi)| (lo, hi))
                            .collect();
                        for &(lo, hi) in &removed {
                            model.pairs.remove(&(attr, lo, hi));
                        }
                        model.rows[t.index()][attr.index()] = Value::Null;
                        proptest::prop_assert_eq!(sp.withdraw_answer(attr, t), removed);
                    }
                }
                proptest::prop_assert_eq!(observe(&sp), model.clone());
                proptest::prop_assert_eq!(observe(&before), model_before);
            }
        }
    }

    #[test]
    fn extend_with_orders_merges() {
        let sp = spec();
        let mut ot = PartialOrders::empty(2);
        ot.add(AttrId(0), TupleId(0), TupleId(1));
        let ext = sp.extend_with_orders(&ot);
        assert_eq!(ext.orders().size(), 1);
        assert_eq!(sp.orders().size(), 0);
    }

    #[test]
    fn constraint_sampling_is_deterministic_and_sized() {
        let s = Schema::new("r", ["a", "b"]).unwrap();
        let e = EntityInstance::new(s.clone(), vec![Tuple::of([Value::int(1), Value::int(2)])])
            .unwrap();
        let sigma: Vec<_> = (0..10)
            .map(|i| {
                cr_constraints::CurrencyConstraintBuilder::new(&s, "a")
                    .unwrap()
                    .t1_cmp_const("a", cr_constraints::CompOp::Eq, i as i64)
                    .unwrap()
                    .build()
                    .unwrap()
            })
            .collect();
        let sp = Specification::without_orders(e, sigma, vec![]);
        let half = sp.with_constraint_fraction(0.5, 1.0, 7);
        assert_eq!(half.sigma().len(), 5);
        let again = sp.with_constraint_fraction(0.5, 1.0, 7);
        let names: Vec<_> = half.sigma().iter().map(|c| c.to_string()).collect();
        let names2: Vec<_> = again.sigma().iter().map(|c| c.to_string()).collect();
        assert_eq!(names, names2);
        let full = sp.with_constraint_fraction(1.0, 1.0, 7);
        assert_eq!(full.sigma().len(), 10);
    }
}
