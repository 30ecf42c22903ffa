//! `Instantiation(Se)`: from a specification to instance constraints Ω(Se).
//!
//! The hot loops — active-domain construction, base-order instantiation and
//! the per-constraint projection grouping and pair instantiation — run on
//! the entity's **instance-local dense value ids**
//! (`EntityInstance::dense_id`, contiguous `u32` rows): equality and null
//! tests are single integer compares, and dense → space-local id
//! translation is one load from a flat `attr × id` table sized by the
//! entity's own distinct-value count. Full [`Value`]s are only touched
//! where semantics require them (ordered comparison predicates, canonical
//! sorting of each value space).
//!
//! All per-constraint structure — referenced-attribute projection keys,
//! premise decomposition, CFD pattern constants in dense-id form — comes
//! from the dataset-level [`CompiledProgram`]: [`instantiate`] *projects*
//! an entity through the compiled program instead of re-deriving the
//! structure per entity. Unary (constant) comparison conjuncts are
//! evaluated once per distinct projection, never once per ordered pair,
//! and projection grouping sorts packed `u64` keys instead of hashing
//! per-tuple key vectors. The pre-compilation per-entity derivation is
//! kept outside this crate, over its public API, as `cr-oracle`'s
//! `omega_reference` — the baseline the compiled path is proven against.
//!
//! ## Projection classes and pinned lookup
//!
//! Σ instantiation does lookups, not enumeration:
//!
//! * **Projection classes.** Constraints with the same referenced
//!   attributes group an entity's tuples identically, so the grouping is
//!   done once per *class* (the compiled program's distinct
//!   referenced-attribute sets) and entity, in a [`ProjectionCache`] —
//!   not once per constraint. Generated Person specifications keep
//!   hundreds of constraints in two classes. The encode and the user-input
//!   extension both read the cache.
//! * **Pinned lookup.** A constraint side is *pinned* when its `Eq`
//!   conjuncts equate every referenced attribute to a string constant
//!   (e.g. `t1[status] = "working"`): at most one projection can pass it —
//!   the one carrying exactly those values — and it is found by turning the
//!   constants' table ids into the entity's local ids and binary-searching
//!   the class's packed keys. Only that projection has its constants
//!   evaluated. The lookup is conclusive only when every cell value has a
//!   table id (values pushed by user input or value revisions have none;
//!   such entities, and entities without a table, evaluate every
//!   projection) and only for string constants: numerically equal `Int`
//!   and `Float` values are semantically equal under different ids, so a
//!   numeric constant can match several projections and keeps the
//!   evaluated path.
//!
//! Both change which projections are *visited*, not what is emitted: each
//! side's candidates stay in tuple-id order and every constraint still
//! hints its pair bound to the sink, so the instance stream — hence the
//! CNF, clause for clause — equals the per-constraint emission, which is
//! kept as a test oracle.

use std::cell::OnceCell;
use std::collections::HashMap;

use cr_constraints::Predicate;
use cr_types::{AttrValueSpace, TupleId, Value, ValueId, NULL_VALUE_ID};

use super::program::{CompiledCfd, CompiledProgram};
use crate::spec::Specification;

/// A strict value-order atom `lo ≺v_attr hi` (distinct interned values of
/// one attribute).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OrderAtom {
    /// Attribute whose order is referenced.
    pub attr: cr_types::AttrId,
    /// Less-current value.
    pub lo: ValueId,
    /// More-current value.
    pub hi: ValueId,
}

/// Right-hand side of an instance constraint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Conclusion {
    /// The premise implies this order atom.
    Atom(OrderAtom),
    /// The premise is contradictory (e.g. a CFD forcing a value outside the
    /// active domain): at least one premise atom must be false.
    False,
}

/// Where an instance constraint came from — used by `TrueDer` to derive
/// rules only from currency orders and constraints (plus CFDs, handled
/// separately).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Origin {
    /// A pair of the base partial currency order of `It`.
    BaseOrder,
    /// Null-bottom axiom (`null ≺v a`).
    NullBottom,
    /// Instantiated from `sigma[i]` on a tuple-projection pair.
    Currency(usize),
    /// Instantiated from `gamma[i]`.
    Cfd(usize),
}

/// The premise conjunction of an [`InstanceConstraint`]: an inline
/// small-vector of up to two [`OrderAtom`]s that spills to the heap beyond
/// that. Σ instances overwhelmingly carry zero-, one- or two-atom premises
/// (order/comparison conjuncts of two-tuple constraints), and `Ω(Se)` holds
/// tens of thousands of them per entity — the per-premise heap allocation
/// of a plain `Vec` was a measurable slice of round-0 encode. CFD ωX
/// premises (one atom per dominated value) use the spill path.
///
/// Dereferences to `[OrderAtom]`; equality/hashing are content-based.
#[derive(Clone, Debug)]
pub struct Premise(PremiseRepr);

#[derive(Clone, Debug)]
enum PremiseRepr {
    /// Up to two atoms stored inline (the unread slots are `ZERO_ATOM`).
    Inline { len: u8, atoms: [OrderAtom; 2] },
    /// Three or more atoms on the heap.
    Spill(Vec<OrderAtom>),
}

/// Inline slots before spilling (the zero atom is never read beyond `len`).
const PREMISE_INLINE: usize = 2;
const ZERO_ATOM: OrderAtom = OrderAtom {
    attr: cr_types::AttrId(0),
    lo: ValueId(0),
    hi: ValueId(0),
};

impl Premise {
    /// An empty premise (`true →`).
    pub fn new() -> Self {
        Premise(PremiseRepr::Inline {
            len: 0,
            atoms: [ZERO_ATOM; PREMISE_INLINE],
        })
    }

    /// An empty premise with room for `n` atoms (pre-sizes the spill vector
    /// when `n` exceeds the inline capacity — CFD ωX emission).
    pub fn with_capacity(n: usize) -> Self {
        if n > PREMISE_INLINE {
            Premise(PremiseRepr::Spill(Vec::with_capacity(n)))
        } else {
            Premise::new()
        }
    }

    /// Appends an atom, spilling to the heap on the third.
    pub fn push(&mut self, atom: OrderAtom) {
        match &mut self.0 {
            PremiseRepr::Inline { len, atoms } => {
                let l = *len as usize;
                if l < PREMISE_INLINE {
                    atoms[l] = atom;
                    *len += 1;
                } else {
                    let mut spill = Vec::with_capacity(PREMISE_INLINE + 2);
                    spill.extend_from_slice(atoms);
                    spill.push(atom);
                    self.0 = PremiseRepr::Spill(spill);
                }
            }
            PremiseRepr::Spill(spill) => spill.push(atom),
        }
    }

    /// The atoms as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[OrderAtom] {
        match &self.0 {
            PremiseRepr::Inline { len, atoms } => &atoms[..*len as usize],
            PremiseRepr::Spill(spill) => spill,
        }
    }

    /// Sorts by `(attr, lo, hi)` and deduplicates — the canonical premise
    /// form every instantiation path emits.
    pub fn canonicalize(&mut self) {
        match &mut self.0 {
            PremiseRepr::Inline { len, atoms } => {
                if *len == 2 {
                    let key = |a: &OrderAtom| (a.attr, a.lo, a.hi);
                    if key(&atoms[0]) > key(&atoms[1]) {
                        atoms.swap(0, 1);
                    }
                    if atoms[0] == atoms[1] {
                        *len = 1;
                    }
                }
            }
            PremiseRepr::Spill(spill) => {
                spill.sort_unstable_by_key(|a| (a.attr, a.lo, a.hi));
                spill.dedup();
            }
        }
    }
}

impl Default for Premise {
    fn default() -> Self {
        Premise::new()
    }
}

impl std::ops::Deref for Premise {
    type Target = [OrderAtom];
    fn deref(&self) -> &[OrderAtom] {
        self.as_slice()
    }
}

impl PartialEq for Premise {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Premise {}

impl std::hash::Hash for Premise {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// One instance constraint `premise → conclusion` of Ω(Se). An empty premise
/// denotes `true →` (a unit).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct InstanceConstraint {
    /// Conjunction of value-order atoms.
    pub premise: Premise,
    /// Implied atom or `False`.
    pub conclusion: Conclusion,
    /// Provenance.
    pub origin: Origin,
}

/// Output of instantiation: the interned value spaces plus Ω(Se). The
/// encoder streams instances instead (see [`emit_sigma_gamma`]); this
/// collected form serves the standalone entry points and tests.
pub(crate) struct Instantiated {
    #[cfg_attr(not(test), allow(dead_code))]
    pub space: AttrValueSpace,
    pub omega: Vec<InstanceConstraint>,
}

/// Receiver of streamed Ω(Se) instances ([`emit_base`],
/// [`emit_sigma_gamma`]): either a plain collector ([`Vec`]) or the
/// encoder, which converts each instance to its clause on the spot.
pub(crate) trait OmegaSink {
    /// Upcoming-instance upper bound (per constraint) — reserve storage.
    fn hint(&mut self, _additional: usize) {}
    /// One streamed instance.
    fn emit(&mut self, c: InstanceConstraint);
}

impl OmegaSink for Vec<InstanceConstraint> {
    fn hint(&mut self, additional: usize) {
        self.reserve(additional);
    }
    fn emit(&mut self, c: InstanceConstraint) {
        self.push(c);
    }
}

/// `ins(ω, s1, s2)` (Section V-A): instantiates currency constraint
/// `sigma[ci]` on the ordered tuple pair `(t1, t2)`. Returns `None` when a
/// comparison conjunct fails or any order atom is **vacuous** — the two
/// values are equal (they satisfy only ⪯) or either side is null. A
/// premise instantiated on *missing* data is vacuous: were "null ≺ a"
/// premises counted true, the user-input tuple `to` (null everywhere but
/// the answered attributes) would fire rules like ϕ8 and claim the user's
/// answers are stale; a null conclusion carries no strict obligation (`to`
/// must not force "value ≺ null"). See the semantics notes in the
/// [`crate::encode`] module docs. The premise is canonicalised (sorted,
/// deduplicated).
///
/// Used by
/// [`EncodedSpec::extend_with_input`](super::EncodedSpec::extend_with_input)
/// for the pairs involving a freshly appended user-input tuple (which has
/// no dense row in the entity); the dense walk of [`emit_sigma_gamma`]
/// applies the same rules to id rows.
pub(crate) fn instantiate_pair(
    space: &AttrValueSpace,
    constraint: &cr_constraints::CurrencyConstraint,
    ci: usize,
    t1: &cr_types::Tuple,
    t2: &cr_types::Tuple,
) -> Option<InstanceConstraint> {
    let pair = |attr: cr_types::AttrId| {
        let (v1, v2) = (t1.get(attr), t2.get(attr));
        if v1 == v2 || v1.is_null() || v2.is_null() {
            return None;
        }
        Some(OrderAtom {
            attr,
            lo: space.get(attr, v1).expect("interned"),
            hi: space.get(attr, v2).expect("interned"),
        })
    };
    let mut premise = Premise::new();
    for p in constraint.premises() {
        match p {
            Predicate::Order { attr } => premise.push(pair(*attr)?),
            other => {
                if !other.eval_comparison(t1, t2).expect("comparison predicate") {
                    return None;
                }
            }
        }
    }
    let conclusion = pair(constraint.conclusion_attr())?;
    premise.canonicalize();
    Some(InstanceConstraint {
        premise,
        conclusion: Conclusion::Atom(conclusion),
        origin: Origin::Currency(ci),
    })
}

/// Sentinel in the global → local translation table: value not in this
/// attribute's space.
const G2L_UNSEEN: u32 = u32::MAX;
/// Transient marker between the distinct-scan and canonical interning.
const G2L_SEEN: u32 = u32::MAX - 1;

/// Flat global → local value-id translation, one row per attribute. Local
/// lookup of an already-validated global id is a single indexed load.
pub(crate) struct GlobalToLocal {
    table: Vec<u32>,
    bound: usize,
}

impl GlobalToLocal {
    #[inline]
    fn slot(&mut self, attr: cr_types::AttrId, gid: u32) -> &mut u32 {
        &mut self.table[attr.index() * self.bound + gid as usize]
    }

    /// Local id of a global id known to be in `attr`'s space.
    #[inline]
    pub(crate) fn local(&self, attr: cr_types::AttrId, gid: u32) -> ValueId {
        let raw = self.table[attr.index() * self.bound + gid as usize];
        debug_assert!(raw < G2L_SEEN, "gid not interned for this attribute");
        ValueId(raw)
    }

    /// Local id of a global id, or `None` when the value does not occur in
    /// `attr`'s space (it may occur in another attribute's).
    #[inline]
    fn get(&self, attr: cr_types::AttrId, gid: u32) -> Option<ValueId> {
        let raw = self.table[attr.index() * self.bound + gid as usize];
        (raw < G2L_SEEN).then_some(ValueId(raw))
    }

    /// The translation row of one attribute (indexed by entity-local id).
    #[inline]
    fn row(&self, attr: cr_types::AttrId) -> &[u32] {
        &self.table[attr.index() * self.bound..(attr.index() + 1) * self.bound]
    }
}

/// Step 1 of `Instantiation(Se)`: the per-attribute value spaces (active
/// domain in canonical order plus null when present) and the entity-local
/// dense-id → space-local translation table.
pub(crate) fn build_spaces(spec: &Specification) -> (AttrValueSpace, GlobalToLocal) {
    let schema = spec.schema();
    let entity = spec.entity();
    let arity = schema.arity();
    let mut space = AttrValueSpace::new(arity);

    // 1. Value spaces: active domain (canonical order) plus null if present.
    // One contiguous pass over the dense id matrix per attribute marks the
    // distinct values; only the distinct ones are materialised and sorted.
    // Dense ids are instance-local, so the translation table is sized by
    // the entity's own distinct-value count, never by the dataset.
    let id_bound = entity.dense_id_bound();
    let mut g2l = GlobalToLocal {
        table: vec![G2L_UNSEEN; arity * id_bound],
        bound: id_bound,
    };
    for attr in schema.attr_ids() {
        let mut distinct: Vec<u32> = Vec::new();
        let mut has_null = false;
        for tid in entity.tuple_ids() {
            let gid = entity.dense_id(tid, attr);
            if gid == NULL_VALUE_ID {
                has_null = true;
                continue;
            }
            let slot = g2l.slot(attr, gid);
            if *slot == G2L_UNSEEN {
                *slot = G2L_SEEN;
                distinct.push(gid);
            }
        }
        distinct.sort_unstable_by(|&a, &b| entity.dense_value(a).cmp(entity.dense_value(b)));
        for gid in distinct {
            let local = space.intern(attr, entity.dense_value(gid));
            *g2l.slot(attr, gid) = local.0;
        }
        if has_null {
            let local = space.intern(attr, &Value::Null);
            *g2l.slot(attr, NULL_VALUE_ID) = local.0;
        }
    }

    (space, g2l)
}

/// Steps 2–3 of `Instantiation(Se)` — null-bottom axioms and base currency
/// orders, streamed into `sink`. Shared verbatim by the compiled and
/// reference walks.
pub(crate) fn emit_base(
    spec: &Specification,
    space: &AttrValueSpace,
    g2l: &GlobalToLocal,
    sink: &mut impl OmegaSink,
) {
    emit_null_bottoms(spec, space, sink);
    emit_base_orders(spec, g2l, sink);
}

/// Step 2 of `Instantiation(Se)`: null-bottom axioms `null ≺v a` for every
/// non-null `a`.
pub(crate) fn emit_null_bottoms(
    spec: &Specification,
    space: &AttrValueSpace,
    sink: &mut impl OmegaSink,
) {
    for attr in spec.schema().attr_ids() {
        if let Some(null_id) = space.get(attr, &Value::Null) {
            for (vid, v) in space.attr(attr).iter() {
                if !v.is_null() {
                    sink.emit(InstanceConstraint {
                        premise: Premise::new(),
                        conclusion: Conclusion::Atom(OrderAtom {
                            attr,
                            lo: null_id,
                            hi: vid,
                        }),
                        origin: Origin::NullBottom,
                    });
                }
            }
        }
    }
}

/// Step 3 of `Instantiation(Se)`: base currency orders
/// (true → t1[Ai] ≺v t2[Ai]) for t1 ≺_Ai t2 with differing values.
pub(crate) fn emit_base_orders(
    spec: &Specification,
    g2l: &GlobalToLocal,
    sink: &mut impl OmegaSink,
) {
    let entity = spec.entity();
    for attr in spec.schema().attr_ids() {
        for (t1, t2) in spec.orders().pairs(attr) {
            let g1 = entity.dense_id(t1, attr);
            let g2 = entity.dense_id(t2, attr);
            if g1 == g2 || g1 == NULL_VALUE_ID || g2 == NULL_VALUE_ID {
                // Equal values are the reflexive part of ⪯; null-side pairs
                // carry no strict information (missing is ranked lowest).
                continue;
            }
            sink.emit(InstanceConstraint {
                premise: Premise::new(),
                conclusion: Conclusion::Atom(OrderAtom {
                    attr,
                    lo: g2l.local(attr, g1),
                    hi: g2l.local(attr, g2),
                }),
                origin: Origin::BaseOrder,
            });
        }
    }
}

/// The distinct projections of one entity's tuples on one projection
/// class's attributes.
pub(crate) struct ClassProjections {
    /// First-occurring representative of each distinct projection, sorted
    /// by tuple id (Ω(Se) must be deterministic — rule derivation is order
    /// sensitive).
    pub(crate) reps: Vec<TupleId>,
    /// `(packed key, representative)` sorted by key — the index pinned
    /// constraints look their projection up in. Empty when the keys do not
    /// pack into a `u64`.
    by_key: Vec<(u64, TupleId)>,
    /// Radix of the packed keys (the entity's dense-id bound).
    radix: u64,
}

impl ClassProjections {
    /// The representative whose projection carries exactly the table
    /// values `pin` (one per class attribute, in class order), if any.
    /// Sound only when every non-null value of `entity` has a table id
    /// (see [`table_interned`]) and the class's keys pack (`by_key` is
    /// non-empty for a non-empty entity).
    fn pinned(&self, entity: &cr_types::EntityInstance, pin: &[u32]) -> Option<TupleId> {
        let mut key = 0u64;
        for &gid in pin {
            key = key * self.radix + u64::from(entity.local_of_global(gid)?);
        }
        let i = self.by_key.binary_search_by_key(&key, |&(k, _)| k).ok()?;
        Some(self.by_key[i].1)
    }
}

/// Distinct projections of the entity's tuples on `attrs`, each with its
/// first-occurring representative.
///
/// Keys are the instance-local dense ids packed into one `u64` whenever
/// `dense_id_bound ^ |attrs|` fits, so grouping is a sort over plain
/// integers; the per-tuple key-vector hashing survives only as the
/// overflow fallback (very wide projections on very wide entities).
fn group_projections(
    entity: &cr_types::EntityInstance,
    attrs: &[cr_types::AttrId],
) -> ClassProjections {
    let radix = (entity.dense_id_bound() as u64).max(1);
    let packable = {
        let mut cap: u64 = 1;
        attrs.iter().all(|_| match cap.checked_mul(radix) {
            Some(c) => {
                cap = c;
                true
            }
            None => false,
        })
    };
    let (mut reps, by_key) = if packable {
        let mut keyed: Vec<(u64, TupleId)> = entity
            .tuple_ids()
            .map(|tid| {
                let mut key = 0u64;
                for &a in attrs {
                    key = key * radix + u64::from(entity.dense_id(tid, a));
                }
                (key, tid)
            })
            .collect();
        // Sorting by (key, tid) keeps the smallest — i.e. first-occurring —
        // tuple id of each projection, matching the reference grouping.
        keyed.sort_unstable();
        keyed.dedup_by_key(|&mut (key, _)| key);
        (keyed.iter().map(|&(_, tid)| tid).collect::<Vec<_>>(), keyed)
    } else {
        let mut map: HashMap<Vec<u32>, TupleId> = HashMap::new();
        for tid in entity.tuple_ids() {
            let key: Vec<u32> = attrs.iter().map(|&a| entity.dense_id(tid, a)).collect();
            map.entry(key).or_insert(tid);
        }
        (map.into_values().collect(), Vec::new())
    };
    reps.sort_unstable();
    ClassProjections {
        reps,
        by_key,
        radix,
    }
}

/// Per-entity cache of [`ClassProjections`], one slot per projection class
/// of a [`CompiledProgram`], each filled on first use — so an entity's
/// tuples are grouped once per class instead of once per constraint.
pub(crate) struct ProjectionCache {
    classes: Vec<OnceCell<ClassProjections>>,
}

impl ProjectionCache {
    pub(crate) fn new(program: &CompiledProgram) -> Self {
        ProjectionCache {
            classes: program.classes.iter().map(|_| OnceCell::new()).collect(),
        }
    }

    /// The projections of `entity` on `program`'s class `class`. Every
    /// call on one cache must pass the same entity.
    pub(crate) fn get(
        &self,
        program: &CompiledProgram,
        entity: &cr_types::EntityInstance,
        class: usize,
    ) -> &ClassProjections {
        self.classes[class].get_or_init(|| group_projections(entity, &program.classes[class]))
    }
}

/// True iff every non-null value of `entity` carries a table id — then a
/// string constant's table id leads to the one local id equal to it, and a
/// miss proves absence. Values pushed by user input or value revisions
/// have no table id; such entities take the evaluated path.
fn table_interned(entity: &cr_types::EntityInstance) -> bool {
    (1..entity.dense_id_bound() as u32)
        .all(|l| entity.global_of_local(l) != cr_types::NO_GLOBAL_VALUE)
}

/// Runs `Instantiation(Se)` (Section V-A) by projecting the entity through
/// the specification's [`CompiledProgram`] — the production path. Proven
/// equivalent to `cr_oracle::omega_reference` by
/// `tests/lazy_differential.rs`.
pub(crate) fn instantiate(spec: &Specification) -> Instantiated {
    let program = spec.compiled_program().clone();
    instantiate_with(spec, &program)
}

/// [`instantiate`] against an explicit compiled program.
pub(crate) fn instantiate_with(spec: &Specification, program: &CompiledProgram) -> Instantiated {
    let (space, g2l) = build_spaces(spec);
    let mut omega: Vec<InstanceConstraint> = Vec::new();
    emit_base(spec, &space, &g2l, &mut omega);
    emit_sigma_gamma(spec, program, &space, &g2l, &mut omega);
    Instantiated { space, omega }
}

/// Steps 4–5 of `Instantiation(Se)` over the compiled program, streamed
/// into `sink`. [`EncodedSpec::encode`] streams straight into clause
/// emission (no intermediate instance buffer);
/// [`instantiate_with`] collects into `Ω(Se)` for standalone consumers.
pub(crate) fn emit_sigma_gamma(
    spec: &Specification,
    program: &CompiledProgram,
    space: &AttrValueSpace,
    g2l: &GlobalToLocal,
    sink: &mut impl OmegaSink,
) {
    let projections = ProjectionCache::new(program);
    let entity = spec.entity();
    if let (Some(pt), Some(et)) = (program.table_token(), entity.table_token()) {
        debug_assert_eq!(
            pt, et,
            "CompiledProgram built from one ValueTable used with an entity \
             interned against another"
        );
    }
    // Dense global-id shortcuts are sound only when the program's constants
    // and the entity's cells reference the same id universe.
    let use_gids = program.table_token().is_some() && program.table_token() == entity.table_token();
    // Pinned lookups additionally need every cell value to carry its id.
    let pin_lookup = use_gids && table_interned(entity);

    // 4. Currency constraints, instantiated over distinct *projections*.
    //
    // Every predicate of ω references only the values of t1/t2 on the
    // constraint's attributes, so tuples sharing a projection on those
    // attributes produce identical instance constraints. Grouping tuples by
    // projection turns the paper's O(|Σ||It|²) instantiation into
    // O(Σ_ϕ #proj²) — the worst case is unchanged, but real entity
    // instances have few distinct projections (many near-duplicate tuples).
    // Constraints sharing a referenced-attribute set share one grouping
    // (the projection class), computed on first use.
    let mut t1_cands: Vec<TupleId> = Vec::new();
    let mut t2_cands: Vec<TupleId> = Vec::new();
    for (ci, cc) in program.sigma.iter().enumerate() {
        let proj = projections.get(program, entity, cc.class);
        let reps = &proj.reps;
        sink.hint(reps.len() * reps.len().saturating_sub(1));

        // Fast path for the dominant Σ shape — a pure propagation
        // constraint `t1 ≺[p] t2 → t1 ≺[c] t2` with distinct attributes:
        // pre-translate both columns to space-local ids once, then the
        // pair loop is integer compares and emission only.
        if cc.tuple_cmps.is_empty()
            && cc.t1_consts.is_empty()
            && cc.t2_consts.is_empty()
            && cc.order_premises.len() == 1
            && cc.order_premises[0] != cc.conclusion_attr
        {
            const VACUOUS: u32 = u32::MAX;
            let (ap, ac) = (cc.order_premises[0], cc.conclusion_attr);
            let (g2l_p, g2l_c) = (g2l.row(ap), g2l.row(ac));
            let translate = |attr: cr_types::AttrId, row: &[u32]| -> Vec<u32> {
                reps.iter()
                    .map(|&r| {
                        let g = entity.dense_id(r, attr);
                        if g == NULL_VALUE_ID {
                            VACUOUS
                        } else {
                            row[g as usize]
                        }
                    })
                    .collect()
            };
            let col_p = translate(ap, g2l_p);
            let col_c = translate(ac, g2l_c);
            for i in 0..reps.len() {
                let (p1, c1) = (col_p[i], col_c[i]);
                if p1 == VACUOUS || c1 == VACUOUS {
                    continue;
                }
                for j in 0..reps.len() {
                    let (p2, c2) = (col_p[j], col_c[j]);
                    if i == j || p2 == p1 || p2 == VACUOUS || c2 == c1 || c2 == VACUOUS {
                        continue;
                    }
                    let mut premise = Premise::new();
                    premise.push(OrderAtom {
                        attr: ap,
                        lo: ValueId(p1),
                        hi: ValueId(p2),
                    });
                    sink.emit(InstanceConstraint {
                        premise,
                        conclusion: Conclusion::Atom(OrderAtom {
                            attr: ac,
                            lo: ValueId(c1),
                            hi: ValueId(c2),
                        }),
                        origin: Origin::Currency(ci),
                    });
                }
            }
            continue;
        }

        // Unary conjuncts hold or fail per *projection*, not per pair: each
        // side's candidates are the representatives passing its constants,
        // in tuple-id order. A pinned side has at most one — the projection
        // carrying its constants, found by table-id lookup — so only that
        // one is evaluated.
        let candidates = |consts: &[super::program::CompiledConstCmp],
                          pin: Option<u32>,
                          out: &mut Vec<TupleId>| {
            out.clear();
            let ok = |r: TupleId| consts.iter().all(|c| c.eval_gated(entity, r, use_gids));
            match pin {
                Some(start) if pin_lookup && !proj.by_key.is_empty() => {
                    let pin = program.pin(cc, start);
                    out.extend(proj.pinned(entity, pin).filter(|&r| ok(r)));
                }
                _ => out.extend(reps.iter().copied().filter(|&r| ok(r))),
            }
        };
        candidates(&cc.t1_consts, cc.t1_pin, &mut t1_cands);
        if t1_cands.is_empty() {
            continue;
        }
        candidates(&cc.t2_consts, cc.t2_pin, &mut t2_cands);

        for &r1 in &t1_cands {
            let row1 = entity.dense_row(r1);
            'pair: for &r2 in &t2_cands {
                if r1 == r2 {
                    continue;
                }
                let row2 = entity.dense_row(r2);
                // Binary comparison conjuncts: null operands fail
                // (eval_comparison semantics). Equal dense ids mean equal
                // values, but distinct ids are *not* conclusive — the
                // semantic ordering equates e.g. `Int(3)` and `Float(3.0)`
                // — so only id equality short-circuits.
                for &(attr, op) in &cc.tuple_cmps {
                    let g1 = row1[attr.index()];
                    let g2 = row2[attr.index()];
                    if g1 == NULL_VALUE_ID || g2 == NULL_VALUE_ID {
                        continue 'pair;
                    }
                    let holds = if g1 == g2 {
                        op.eval_ordering(std::cmp::Ordering::Equal)
                    } else {
                        op.eval(entity.dense_value(g1), entity.dense_value(g2))
                    };
                    if !holds {
                        continue 'pair;
                    }
                }
                // Order premises and conclusion on dense ids; equal or null
                // sides make the atom vacuous and drop the instance
                // ([`instantiate_pair`] semantics).
                let pair = |attr: cr_types::AttrId| -> Option<(ValueId, ValueId)> {
                    let g1 = row1[attr.index()];
                    let g2 = row2[attr.index()];
                    if g1 == g2 || g1 == NULL_VALUE_ID || g2 == NULL_VALUE_ID {
                        return None;
                    }
                    Some((g2l.local(attr, g1), g2l.local(attr, g2)))
                };
                let mut premise = Premise::with_capacity(cc.order_premises.len());
                for &attr in &cc.order_premises {
                    match pair(attr) {
                        Some((lo, hi)) => premise.push(OrderAtom { attr, lo, hi }),
                        None => continue 'pair,
                    }
                }
                let Some((lo, hi)) = pair(cc.conclusion_attr) else {
                    continue;
                };
                premise.canonicalize();
                sink.emit(InstanceConstraint {
                    premise,
                    conclusion: Conclusion::Atom(OrderAtom {
                        attr: cc.conclusion_attr,
                        lo,
                        hi,
                    }),
                    origin: Origin::Currency(ci),
                });
            }
        }
    }

    // 5. Constant CFDs, patterns resolved through dense global ids.
    for (gi, cfd) in program.gamma.iter().enumerate() {
        for c in compiled_cfd_instances(space, g2l, entity, gi, cfd, use_gids) {
            sink.emit(c);
        }
    }
}

/// The per-constraint Σ emission [`emit_sigma_gamma`] replaced: it
/// regroups the entity's tuples for every constraint and evaluates every
/// side's constants on every projection. Kept as the oracle the
/// class-cached, pinned emission is proven against (event-sequence
/// equality, see the tests below).
#[cfg(test)]
fn emit_sigma_gamma_reference(
    spec: &Specification,
    program: &CompiledProgram,
    space: &AttrValueSpace,
    g2l: &GlobalToLocal,
    sink: &mut impl OmegaSink,
) {
    let entity = spec.entity();
    if let (Some(pt), Some(et)) = (program.table_token(), entity.table_token()) {
        debug_assert_eq!(
            pt, et,
            "CompiledProgram built from one ValueTable used with an entity \
             interned against another"
        );
    }
    // Dense global-id shortcuts are sound only when the program's constants
    // and the entity's cells reference the same id universe.
    let use_gids = program.table_token().is_some() && program.table_token() == entity.table_token();

    // 4. Currency constraints, instantiated over distinct *projections*.
    //
    // Every predicate of ω references only the values of t1/t2 on the
    // constraint's attributes, so tuples sharing a projection on those
    // attributes produce identical instance constraints. Grouping tuples by
    // projection turns the paper's O(|Σ||It|²) instantiation into
    // O(Σ_ϕ #proj²) — the worst case is unchanged, but real entity
    // instances have few distinct projections (many near-duplicate tuples).
    let mut t1_ok: Vec<bool> = Vec::new();
    let mut t2_ok: Vec<bool> = Vec::new();
    for (ci, cc) in program.sigma.iter().enumerate() {
        let reps = group_projections(entity, &cc.referenced_attrs).reps;
        sink.hint(reps.len() * reps.len().saturating_sub(1));

        // Fast path for the dominant Σ shape — a pure propagation
        // constraint `t1 ≺[p] t2 → t1 ≺[c] t2` with distinct attributes:
        // pre-translate both columns to space-local ids once, then the
        // pair loop is integer compares and emission only.
        if cc.tuple_cmps.is_empty()
            && cc.t1_consts.is_empty()
            && cc.t2_consts.is_empty()
            && cc.order_premises.len() == 1
            && cc.order_premises[0] != cc.conclusion_attr
        {
            const VACUOUS: u32 = u32::MAX;
            let (ap, ac) = (cc.order_premises[0], cc.conclusion_attr);
            let (g2l_p, g2l_c) = (g2l.row(ap), g2l.row(ac));
            let translate = |attr: cr_types::AttrId, row: &[u32]| -> Vec<u32> {
                reps.iter()
                    .map(|&r| {
                        let g = entity.dense_id(r, attr);
                        if g == NULL_VALUE_ID {
                            VACUOUS
                        } else {
                            row[g as usize]
                        }
                    })
                    .collect()
            };
            let col_p = translate(ap, g2l_p);
            let col_c = translate(ac, g2l_c);
            for i in 0..reps.len() {
                let (p1, c1) = (col_p[i], col_c[i]);
                if p1 == VACUOUS || c1 == VACUOUS {
                    continue;
                }
                for j in 0..reps.len() {
                    let (p2, c2) = (col_p[j], col_c[j]);
                    if i == j || p2 == p1 || p2 == VACUOUS || c2 == c1 || c2 == VACUOUS {
                        continue;
                    }
                    let mut premise = Premise::new();
                    premise.push(OrderAtom {
                        attr: ap,
                        lo: ValueId(p1),
                        hi: ValueId(p2),
                    });
                    sink.emit(InstanceConstraint {
                        premise,
                        conclusion: Conclusion::Atom(OrderAtom {
                            attr: ac,
                            lo: ValueId(c1),
                            hi: ValueId(c2),
                        }),
                        origin: Origin::Currency(ci),
                    });
                }
            }
            continue;
        }

        // Unary conjuncts hold or fail per *projection*, not per pair:
        // evaluate each side once per representative.
        t1_ok.clear();
        t1_ok.extend(reps.iter().map(|&r| {
            cc.t1_consts
                .iter()
                .all(|c| c.eval_gated(entity, r, use_gids))
        }));
        t2_ok.clear();
        t2_ok.extend(reps.iter().map(|&r| {
            cc.t2_consts
                .iter()
                .all(|c| c.eval_gated(entity, r, use_gids))
        }));

        for (i, &r1) in reps.iter().enumerate() {
            if !t1_ok[i] {
                continue;
            }
            let row1 = entity.dense_row(r1);
            'pair: for (j, &r2) in reps.iter().enumerate() {
                if i == j || !t2_ok[j] {
                    continue;
                }
                let row2 = entity.dense_row(r2);
                // Binary comparison conjuncts: null operands fail
                // (eval_comparison semantics). Equal dense ids mean equal
                // values, but distinct ids are *not* conclusive — the
                // semantic ordering equates e.g. `Int(3)` and `Float(3.0)`
                // — so only id equality short-circuits.
                for &(attr, op) in &cc.tuple_cmps {
                    let g1 = row1[attr.index()];
                    let g2 = row2[attr.index()];
                    if g1 == NULL_VALUE_ID || g2 == NULL_VALUE_ID {
                        continue 'pair;
                    }
                    let holds = if g1 == g2 {
                        op.eval_ordering(std::cmp::Ordering::Equal)
                    } else {
                        op.eval(entity.dense_value(g1), entity.dense_value(g2))
                    };
                    if !holds {
                        continue 'pair;
                    }
                }
                // Order premises and conclusion on dense ids; equal or null
                // sides make the atom vacuous and drop the instance
                // ([`instantiate_pair`] semantics).
                let pair = |attr: cr_types::AttrId| -> Option<(ValueId, ValueId)> {
                    let g1 = row1[attr.index()];
                    let g2 = row2[attr.index()];
                    if g1 == g2 || g1 == NULL_VALUE_ID || g2 == NULL_VALUE_ID {
                        return None;
                    }
                    Some((g2l.local(attr, g1), g2l.local(attr, g2)))
                };
                let mut premise = Premise::with_capacity(cc.order_premises.len());
                for &attr in &cc.order_premises {
                    match pair(attr) {
                        Some((lo, hi)) => premise.push(OrderAtom { attr, lo, hi }),
                        None => continue 'pair,
                    }
                }
                let Some((lo, hi)) = pair(cc.conclusion_attr) else {
                    continue;
                };
                premise.canonicalize();
                sink.emit(InstanceConstraint {
                    premise,
                    conclusion: Conclusion::Atom(OrderAtom {
                        attr: cc.conclusion_attr,
                        lo,
                        hi,
                    }),
                    origin: Origin::Currency(ci),
                });
            }
        }
    }

    // 5. Constant CFDs, patterns resolved through dense global ids.
    for (gi, cfd) in program.gamma.iter().enumerate() {
        for c in compiled_cfd_instances(space, g2l, entity, gi, cfd, use_gids) {
            sink.emit(c);
        }
    }
}

/// The instance constraints of one constant CFD over the given value
/// spaces — the ωX-premise/domination emission of `Instantiation(Se)` step
/// 5, factored out so [`EncodedSpec::extend_with_input`] can *re-emit* a
/// CFD, whose stale clauses it deleted, after a new value grows a
/// referenced attribute's space. Pattern constants are resolved by `Value` lookup;
/// the encode-time path resolves through dense global ids instead
/// ([`compiled_cfd_instances`]).
///
/// Returns an empty vector when an LHS pattern constant is outside the
/// active domain (the CFD can never fire); a missing RHS constant yields
/// the single `Conclusion::False` instance.
pub(crate) fn cfd_instances(
    space: &AttrValueSpace,
    gi: usize,
    cfd: &cr_constraints::ConstantCfd,
) -> Vec<InstanceConstraint> {
    let mut lhs_ids = Vec::with_capacity(cfd.lhs().len());
    for (attr, c) in cfd.lhs() {
        let Some(cid) = space.get(*attr, c) else {
            return Vec::new();
        };
        lhs_ids.push((*attr, cid));
    }
    let (battr, bval) = cfd.rhs();
    cfd_instances_ids(space, gi, &lhs_ids, *battr, space.get(*battr, bval))
}

/// [`cfd_instances`] after pattern resolution through the compiled
/// program's dense global ids: an integer lookup per constant instead of a
/// `Value` hash (falling back to `Value` lookup when the program was
/// compiled without a table or the id universes differ).
fn compiled_cfd_instances(
    space: &AttrValueSpace,
    g2l: &GlobalToLocal,
    entity: &cr_types::EntityInstance,
    gi: usize,
    cfd: &CompiledCfd,
    use_gids: bool,
) -> Vec<InstanceConstraint> {
    let resolve = |attr: cr_types::AttrId, v: &Value, gid: Option<u32>| -> Option<ValueId> {
        match gid {
            // Global-id fast path: a table-resolved constant that occurs in
            // the entity leads to the attribute's space slot by integer
            // lookups. A miss is NOT conclusive — a value equal to the
            // constant may have entered the entity *outside* the table
            // (user input pushes rows without table interning), so fall
            // back to the `Value` lookup before declaring absence.
            Some(g) if use_gids => entity
                .local_of_global(g)
                .and_then(|local| g2l.get(attr, local))
                .or_else(|| space.get(attr, v)),
            _ => space.get(attr, v),
        }
    };
    let mut lhs_ids = Vec::with_capacity(cfd.lhs.len());
    for (attr, v, gid) in &cfd.lhs {
        let Some(cid) = resolve(*attr, v, *gid) else {
            return Vec::new();
        };
        lhs_ids.push((*attr, cid));
    }
    let (battr, bval, bgid) = &cfd.rhs;
    cfd_instances_ids(space, gi, &lhs_ids, *battr, resolve(*battr, bval, *bgid))
}

/// Shared emission core: ωX premise plus domination conclusions, from
/// already-resolved pattern ids. `rhs_id == None` means the pattern's
/// B-value is outside the active domain (the premise must fail).
fn cfd_instances_ids(
    space: &AttrValueSpace,
    gi: usize,
    lhs_ids: &[(cr_types::AttrId, ValueId)],
    battr: cr_types::AttrId,
    rhs_id: Option<ValueId>,
) -> Vec<InstanceConstraint> {
    // ωX: every other value of each LHS attribute sits below the pattern
    // constant.
    let mut premise = Premise::new();
    for &(attr, cid) in lhs_ids {
        for (vid, v) in space.attr(attr).iter() {
            if vid != cid && !v.is_null() {
                premise.push(OrderAtom {
                    attr,
                    lo: vid,
                    hi: cid,
                });
            }
        }
    }
    let mut out = Vec::new();
    match rhs_id {
        Some(bid) => {
            for (vid, v) in space.attr(battr).iter() {
                if vid != bid && !v.is_null() {
                    out.push(InstanceConstraint {
                        premise: premise.clone(),
                        conclusion: Conclusion::Atom(OrderAtom {
                            attr: battr,
                            lo: vid,
                            hi: bid,
                        }),
                        origin: Origin::Cfd(gi),
                    });
                }
            }
        }
        None => {
            // The pattern's B-value cannot be the current one: premise
            // must fail. (With an empty premise the spec is invalid.)
            out.push(InstanceConstraint {
                premise,
                conclusion: Conclusion::False,
                origin: Origin::Cfd(gi),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orders::PartialOrders;
    use cr_constraints::parser::{parse_cfds, parse_currency_constraint};
    use cr_types::{EntityInstance, Schema, Tuple, TupleId};

    fn edith_like() -> Specification {
        let s = Schema::new("p", ["status", "job", "kids"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::str("working"), Value::str("nurse"), Value::int(0)]),
                Tuple::of([Value::str("retired"), Value::str("n/a"), Value::int(3)]),
                Tuple::of([Value::str("deceased"), Value::str("n/a"), Value::Null]),
            ],
        )
        .unwrap();
        let sigma = vec![
            parse_currency_constraint(
                &s,
                r#"t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2"#,
            )
            .unwrap(),
            parse_currency_constraint(&s, "t1 <[status] t2 -> t1 <[job] t2").unwrap(),
            parse_currency_constraint(&s, "t1[kids] < t2[kids] -> t1 <[kids] t2").unwrap(),
        ];
        Specification::without_orders(e, sigma, vec![])
    }

    #[test]
    fn null_becomes_strict_bottom() {
        let spec = edith_like();
        let inst = instantiate(&spec);
        let kids = spec.schema().attr_id("kids").unwrap();
        let nulls: Vec<_> = inst
            .omega
            .iter()
            .filter(|c| c.origin == Origin::NullBottom)
            .collect();
        // kids has null + {0, 3}: two bottom units.
        assert_eq!(nulls.len(), 2);
        assert!(nulls.iter().all(|c| c.premise.is_empty()));
        assert!(nulls.iter().all(|c| match c.conclusion {
            Conclusion::Atom(a) => a.attr == kids,
            Conclusion::False => false,
        }));
    }

    #[test]
    fn comparison_premises_prefilter_pairs() {
        let spec = edith_like();
        let inst = instantiate(&spec);
        // phi1 applies only to the (working, retired) ordered pair: exactly
        // one instance with empty premise concluding working ≺ retired.
        let status = spec.schema().attr_id("status").unwrap();
        let phi1: Vec<_> = inst
            .omega
            .iter()
            .filter(|c| c.origin == Origin::Currency(0))
            .collect();
        assert_eq!(phi1.len(), 1);
        assert!(phi1[0].premise.is_empty());
        match phi1[0].conclusion {
            Conclusion::Atom(a) => {
                assert_eq!(a.attr, status);
                assert_eq!(inst.space.value(status, a.lo), &Value::str("working"));
                assert_eq!(inst.space.value(status, a.hi), &Value::str("retired"));
            }
            Conclusion::False => panic!(),
        }
    }

    #[test]
    fn equal_value_conclusions_are_skipped() {
        let spec = edith_like();
        let inst = instantiate(&spec);
        // phi5 = order premise on status, conclusion job. The pair
        // (retired, deceased) has equal jobs (n/a) → skipped; pairs touching
        // "working" (job nurse) survive.
        let phi5: Vec<_> = inst
            .omega
            .iter()
            .filter(|c| c.origin == Origin::Currency(1))
            .collect();
        // Projections on (status, job): 3 distinct; ordered pairs 6; the two
        // (r2, r3)-style pairs with equal jobs are dropped → 4.
        assert_eq!(phi5.len(), 4);
        assert!(phi5.iter().all(|c| c.premise.len() == 1));
    }

    #[test]
    fn null_comparison_fires_phi4() {
        let spec = edith_like();
        let inst = instantiate(&spec);
        let kids = spec.schema().attr_id("kids").unwrap();
        // phi4 with null < k semantics: the pairs (null,0) and (null,3) fire
        // but their conclusions `null ≺ k` are already the null-bottom
        // axioms (skipped); only (0,3) yields an instance constraint.
        let phi4: Vec<_> = inst
            .omega
            .iter()
            .filter(|c| c.origin == Origin::Currency(2))
            .collect();
        assert_eq!(phi4.len(), 1);
        match phi4[0].conclusion {
            Conclusion::Atom(a) => {
                assert_eq!(a.attr, kids);
                assert_eq!(inst.space.value(kids, a.lo), &Value::int(0));
                assert_eq!(inst.space.value(kids, a.hi), &Value::int(3));
            }
            Conclusion::False => panic!(),
        }
        // The null-bottom axioms cover the null pairs.
        let bottoms = inst
            .omega
            .iter()
            .filter(|c| c.origin == Origin::NullBottom)
            .filter(|c| matches!(c.conclusion, Conclusion::Atom(a) if a.attr == kids))
            .count();
        assert_eq!(bottoms, 2);
    }

    #[test]
    fn base_orders_become_units() {
        let s = Schema::new("p", ["a"]).unwrap();
        let e = EntityInstance::new(
            s,
            vec![Tuple::of([Value::int(1)]), Tuple::of([Value::int(2)])],
        )
        .unwrap();
        let mut orders = PartialOrders::empty(1);
        orders.add(cr_types::AttrId(0), TupleId(0), TupleId(1));
        let spec = Specification::new(e, orders, vec![], vec![]);
        let inst = instantiate(&spec);
        let base: Vec<_> = inst
            .omega
            .iter()
            .filter(|c| c.origin == Origin::BaseOrder)
            .collect();
        assert_eq!(base.len(), 1);
        assert!(base[0].premise.is_empty());
    }

    #[test]
    fn cfd_with_missing_lhs_constant_is_vacuous() {
        let s = Schema::new("p", ["AC", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![Tuple::of([Value::int(212), Value::str("NY")])],
        )
        .unwrap();
        let gamma = parse_cfds(&s, "AC = 999 -> city = \"LA\"").unwrap();
        let spec = Specification::without_orders(e, vec![], gamma);
        let inst = instantiate(&spec);
        assert!(inst.omega.iter().all(|c| c.origin != Origin::Cfd(0)));
    }

    #[test]
    fn cfd_with_missing_rhs_constant_forces_negated_premise() {
        let s = Schema::new("p", ["AC", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::int(212), Value::str("NY")]),
                Tuple::of([Value::int(213), Value::str("NY")]),
            ],
        )
        .unwrap();
        let gamma = parse_cfds(&s, "AC = 213 -> city = \"LA\"").unwrap();
        let spec = Specification::without_orders(e, vec![], gamma);
        let inst = instantiate(&spec);
        let cfd: Vec<_> = inst
            .omega
            .iter()
            .filter(|c| c.origin == Origin::Cfd(0))
            .collect();
        assert_eq!(cfd.len(), 1);
        assert_eq!(cfd[0].conclusion, Conclusion::False);
        assert_eq!(cfd[0].premise.len(), 1); // 212 ≺ 213
    }

    #[test]
    fn cfd_in_domain_emits_domination_clauses() {
        let s = Schema::new("p", ["AC", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::int(212), Value::str("NY")]),
                Tuple::of([Value::int(213), Value::str("LA")]),
                Tuple::of([Value::int(415), Value::str("SFC")]),
            ],
        )
        .unwrap();
        let gamma = parse_cfds(&s, "AC = 213 -> city = \"LA\"").unwrap();
        let spec = Specification::without_orders(e, vec![], gamma);
        let inst = instantiate(&spec);
        let cfd: Vec<_> = inst
            .omega
            .iter()
            .filter(|c| c.origin == Origin::Cfd(0))
            .collect();
        // Two non-LA cities, each must sit below LA when AC=213 tops.
        assert_eq!(cfd.len(), 2);
        assert!(cfd.iter().all(|c| c.premise.len() == 2)); // 212≺213, 415≺213
    }

    /// Records the sink protocol — hints and instances in call order — so
    /// the Σ proptest compares capacities as well as clauses.
    #[derive(Debug, PartialEq)]
    enum SinkEvent {
        Hint(usize),
        Emit(InstanceConstraint),
    }

    impl OmegaSink for Vec<SinkEvent> {
        fn hint(&mut self, additional: usize) {
            self.push(SinkEvent::Hint(additional));
        }
        fn emit(&mut self, c: InstanceConstraint) {
            self.push(SinkEvent::Emit(c));
        }
    }

    /// Cell and constant pool of the Σ proptest: nulls, strings, and
    /// numerically equal `Int`/`Float` pairs. Indices from 8 on never
    /// occur in generated cells (out-of-domain constants).
    fn pool(i: u8) -> Value {
        match i {
            0 => Value::Null,
            1 => Value::str("s0"),
            2 => Value::str("s1"),
            3 => Value::str("s2"),
            4 => Value::int(1),
            5 => Value::float(1.0),
            6 => Value::int(2),
            7 => Value::float(2.0),
            8 => Value::str("s9"),
            _ => Value::int(9),
        }
    }

    /// `pool(i)` as a constraint-language literal.
    fn literal(i: u8) -> String {
        match pool(i) {
            Value::Str(s) => format!("{s:?}"),
            Value::Float(f) => format!("{:.1}", f.get()),
            v => v.to_string(),
        }
    }

    const SIGMA_ARITY: usize = 3;

    /// One generated currency constraint: `kind` picks the shape, `a`/`b`
    /// the attributes, `c`/`d` the constants and `op` a comparison.
    fn sigma_constraint(
        s: &std::sync::Arc<Schema>,
        (kind, a, b, c, d, op): (u8, usize, usize, u8, u8, u8),
    ) -> cr_constraints::CurrencyConstraint {
        let (a, b) = (format!("a{a}"), format!("a{b}"));
        let (c, d) = (literal(c), literal(d));
        let op = ["=", "!=", "<", "<="][op as usize % 4];
        let text = match kind {
            // Both sides pinned (one attribute).
            0 => format!("t1[{a}] = {c} && t2[{a}] = {d} -> t1 <[{a}] t2"),
            // Both sides pinned over two attributes.
            1 => format!(
                "t1[{a}] = {c} && t1[{b}] = {d} && t2[{a}] = {d} && t2[{b}] = {c} -> t1 <[{b}] t2"
            ),
            // Propagation (the fast path when a ≠ b).
            2 => format!("t1 <[{a}] t2 -> t1 <[{b}] t2"),
            // Binary comparison.
            3 => format!("t1[{a}] {op} t2[{a}] -> t1 <[{b}] t2"),
            // t1 pinned, t2 free.
            4 => format!("t1[{a}] = {c} && t1[{b}] = {d} -> t1 <[{a}] t2"),
            // t1 pinned, t2 filtered by a non-Eq constant.
            5 => format!("t1[{a}] = {c} && t2[{a}] {op} {d} -> t1 <[{a}] t2"),
            // Constants plus an order premise.
            6 => format!("t1[{a}] = {c} && t2[{a}] = {d} && t1 <[{b}] t2 -> t1 <[{a}] t2"),
            // Two Eq constants on one attribute of one side.
            _ => format!("t1[{a}] = {c} && t1[{a}] = {d} && t2[{a}] = {c} -> t1 <[{a}] t2"),
        };
        parse_currency_constraint(s, &text).unwrap_or_else(|e| panic!("{text}: {e}"))
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(192))]

        /// Σ emission with projection classes and pinned lookup produces
        /// exactly the event sequence (hints and instances, in order) of
        /// the per-constraint reference, before and after a value revision
        /// (the entity a session re-encodes after a correction). Covers
        /// nulls, duplicate projections, numerically equal `Int`/`Float`
        /// cells against string and numeric constants, out-of-domain
        /// constants, constants missing from the table, entities without a
        /// table and entities with pushed (table-less) values.
        #[test]
        fn class_cached_sigma_emission_matches_the_reference(
            rows in proptest::collection::vec(proptest::collection::vec(0u8..8, SIGMA_ARITY), 1..9),
            constraints in proptest::collection::vec(
                (0u8..8, 0usize..SIGMA_ARITY, 0usize..SIGMA_ARITY, 1u8..10, 1u8..10, 0u8..4),
                1..14,
            ),
            in_table in proptest::collection::vec(0u8..2, 10),
            table_mode in 0u8..3,
            pushed in proptest::collection::vec(0u8..10, SIGMA_ARITY),
            revision in (0usize..8, 0usize..SIGMA_ARITY, 0u8..10),
        ) {
            let s = Schema::new("p", ["a0", "a1", "a2"]).unwrap();
            let tuples: Vec<Tuple> =
                rows.iter().map(|r| Tuple::of(r.iter().map(|&i| pool(i)))).collect();
            let sigma: Vec<_> = constraints.iter().map(|&c| sigma_constraint(&s, c)).collect();
            let mut table = cr_types::ValueTable::new();
            table.intern_tuples(tuples.iter());
            // Some pool constants join the table without occurring in the
            // entity; the others stay out of it.
            for (i, &keep) in in_table.iter().enumerate() {
                if keep == 1 {
                    table.intern(&pool(i as u8));
                }
            }
            let mut entity = if table_mode == 0 {
                EntityInstance::new(s.clone(), tuples).unwrap()
            } else {
                EntityInstance::with_table(s.clone(), tuples, &table).unwrap()
            };
            if table_mode == 2 {
                entity.push(Tuple::of(pushed.iter().map(|&i| pool(i)))).unwrap();
            }
            let spec = Specification::without_orders(entity, sigma, vec![]);
            let program = std::sync::Arc::new(super::super::program::CompiledProgram::compile(
                spec.sigma(),
                spec.gamma(),
                (table_mode != 0).then_some(&table),
            ));
            spec.set_compiled_program(program.clone());
            let mut revised = spec.clone();
            let (tuple, attr, value) = revision;
            let tuple = TupleId((tuple % revised.entity().len()) as u32);
            revised.replace_value(tuple, cr_types::AttrId(attr as u16), pool(value));
            for sp in [&spec, &revised] {
                let (space, g2l) = build_spaces(sp);
                let mut production: Vec<SinkEvent> = Vec::new();
                emit_sigma_gamma(sp, &program, &space, &g2l, &mut production);
                let mut reference: Vec<SinkEvent> = Vec::new();
                emit_sigma_gamma_reference(sp, &program, &space, &g2l, &mut reference);
                proptest::prop_assert_eq!(&production, &reference);
            }
        }
    }
}
