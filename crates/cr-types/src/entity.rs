//! Entity instances: sets of tuples pertaining to one real-world entity.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::TypesError;
use crate::interner::{ValueTable, NULL_VALUE_ID};
use crate::schema::{AttrId, Schema};
use crate::tuple::Tuple;
use crate::value::Value;

/// Index of a tuple within an [`EntityInstance`] (dense, zero based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TupleId(pub u32);

impl TupleId {
    /// The tuple position as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An entity instance `Ie`: tuples of one schema, all describing the same
/// real-world entity (typically produced upstream by record linkage).
///
/// Entity instances are small relative to a database — the NBA dataset in the
/// paper averages 27 tuples per entity — so the representation favours simple
/// dense storage and cheap iteration.
///
/// Alongside the tuples, every instance carries a contiguous row-major
/// matrix of **instance-local dense value ids** (`dense[tid * arity +
/// attr]`, id [`NULL_VALUE_ID`] = null): two cells carry the same id iff
/// they carry the same value. The SAT encoder's instantiation and
/// projection grouping run entirely on these ids — integer compares over
/// flat buffers sized by the *entity's* distinct-value count — instead of
/// hashing full [`Value`]s per specification. A dataset-shared
/// [`ValueTable`] (see [`EntityInstance::with_table`]) canonicalises the
/// stored values so equal strings share one allocation across the whole
/// dataset and are hashed once per dataset, not once per entity.
#[derive(Clone)]
pub struct EntityInstance {
    schema: Arc<Schema>,
    tuples: Vec<Tuple>,
    /// `tuples.len() × arity` instance-local value ids, row-major.
    dense: Vec<u32>,
    /// Local id → value; `values_by_id[0]` is always `Null`.
    values_by_id: Vec<Value>,
    /// Reverse lookup for `push` (user input arrives tuple by tuple).
    ids_by_value: HashMap<Value, u32>,
    /// Local id → dataset-wide [`crate::GlobalValueId`]
    /// ([`NO_GLOBAL_VALUE`] when the value is not in the shared table or
    /// the instance was built without one), parallel to `values_by_id`.
    global_by_local: Vec<u32>,
    /// Reverse of `global_by_local` for the ids that have one — lets the
    /// encoder resolve table-interned constants (CFD patterns, Σ constant
    /// comparisons) to instance-local ids without hashing `Value`s.
    local_by_global: HashMap<u32, u32>,
    /// [`crate::ValueTable::token`] of the shared table, if any.
    table_token: Option<u64>,
}

/// Sentinel in [`EntityInstance::global_of_local`]: the local id has no
/// dataset-wide global id.
pub const NO_GLOBAL_VALUE: u32 = u32::MAX;

impl EntityInstance {
    /// Builds an entity instance, checking every tuple's arity. Dataset
    /// generators that share canonical values across many entities use
    /// [`EntityInstance::with_table`] instead.
    pub fn new(schema: Arc<Schema>, tuples: Vec<Tuple>) -> Result<Self, TypesError> {
        Self::build(schema, tuples, None)
    }

    /// Builds an entity instance whose stored values are canonicalised
    /// through a dataset-shared [`ValueTable`]: values found in the table
    /// are stored as clones of the table's instance (sharing its
    /// allocation); values missing from it are kept as-is, so a partially
    /// covering table is never wrong.
    pub fn with_table(
        schema: Arc<Schema>,
        tuples: Vec<Tuple>,
        table: &ValueTable,
    ) -> Result<Self, TypesError> {
        Self::build(schema, tuples, Some(table))
    }

    fn build(
        schema: Arc<Schema>,
        tuples: Vec<Tuple>,
        table: Option<&ValueTable>,
    ) -> Result<Self, TypesError> {
        for t in &tuples {
            if t.arity() != schema.arity() {
                return Err(TypesError::ArityMismatch {
                    expected: schema.arity(),
                    got: t.arity(),
                });
            }
        }
        let mut e = EntityInstance {
            schema,
            tuples: Vec::with_capacity(tuples.len()),
            dense: Vec::with_capacity(tuples.len()),
            values_by_id: vec![Value::Null],
            ids_by_value: HashMap::new(),
            global_by_local: vec![crate::NULL_VALUE_ID],
            local_by_global: HashMap::new(),
            table_token: table.map(|t| t.token()),
        };
        for t in tuples {
            e.append_dense_row(&t, table);
            e.tuples.push(t);
        }
        Ok(e)
    }

    /// An empty instance over `schema`.
    pub fn empty(schema: Arc<Schema>) -> Self {
        EntityInstance {
            schema,
            tuples: Vec::new(),
            dense: Vec::new(),
            values_by_id: vec![Value::Null],
            ids_by_value: HashMap::new(),
            global_by_local: vec![crate::NULL_VALUE_ID],
            local_by_global: HashMap::new(),
            table_token: None,
        }
    }

    /// Appends the dense-id row for `tuple` (which must have the right
    /// arity), assigning fresh local ids to unseen values — canonicalised
    /// through `table` when one is supplied.
    fn append_dense_row(&mut self, tuple: &Tuple, table: Option<&ValueTable>) {
        for v in tuple.values() {
            let id = if v.is_null() {
                NULL_VALUE_ID
            } else if let Some(&id) = self.ids_by_value.get(v) {
                id
            } else {
                let id = self.values_by_id.len() as u32;
                let gid = table.and_then(|t| t.get(v));
                let canonical = match (table, gid) {
                    (Some(t), Some(g)) => t.value(g).clone(),
                    _ => v.clone(),
                };
                self.global_by_local.push(gid.unwrap_or(NO_GLOBAL_VALUE));
                if let Some(g) = gid {
                    self.local_by_global.insert(g, id);
                }
                self.values_by_id.push(canonical.clone());
                self.ids_by_value.insert(canonical, id);
                id
            };
            self.dense.push(id);
        }
    }

    /// Instance-local dense id of `tuples[tid][attr]`: equal iff the values
    /// are equal, [`NULL_VALUE_ID`] iff null.
    #[inline]
    pub fn dense_id(&self, tid: TupleId, attr: AttrId) -> u32 {
        self.dense[tid.index() * self.schema.arity() + attr.index()]
    }

    /// The dense-id row of one tuple (one id per attribute).
    #[inline]
    pub fn dense_row(&self, tid: TupleId) -> &[u32] {
        let arity = self.schema.arity();
        &self.dense[tid.index() * arity..(tid.index() + 1) * arity]
    }

    /// Exclusive upper bound on this instance's dense ids (1 + its
    /// distinct non-null values) — per-entity scratch tables sized by this
    /// scale with the entity, never with the dataset.
    pub fn dense_id_bound(&self) -> usize {
        self.values_by_id.len()
    }

    /// The value behind an instance-local dense id.
    pub fn dense_value(&self, id: u32) -> &Value {
        &self.values_by_id[id as usize]
    }

    /// The dataset-wide [`crate::GlobalValueId`] behind an instance-local
    /// dense id, or [`NO_GLOBAL_VALUE`] when the instance was built without
    /// a shared [`ValueTable`] or the value (e.g. a pushed user answer) is
    /// not in it.
    #[inline]
    pub fn global_of_local(&self, id: u32) -> u32 {
        self.global_by_local[id as usize]
    }

    /// The instance-local dense id carrying the table value `gid`, if that
    /// value occurs in this instance. Integer-keyed — the encoder resolves
    /// table-interned constants through this instead of hashing `Value`s.
    #[inline]
    pub fn local_of_global(&self, gid: u32) -> Option<u32> {
        self.local_by_global.get(&gid).copied()
    }

    /// [`ValueTable::token`] of the shared table the instance was interned
    /// against, if any. Consumers holding table-resolved ids (the encoder's
    /// compiled constraint programs) check this before using them.
    pub fn table_token(&self) -> Option<u64> {
        self.table_token
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of tuples, `|Ie|`.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff the instance has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuple with the given id.
    pub fn tuple(&self, id: TupleId) -> &Tuple {
        &self.tuples[id.index()]
    }

    /// All tuples in insertion order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Iterates over `(TupleId, &Tuple)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, &Tuple)> {
        self.tuples
            .iter()
            .enumerate()
            .map(|(i, t)| (TupleId(i as u32), t))
    }

    /// All tuple ids.
    pub fn tuple_ids(&self) -> impl Iterator<Item = TupleId> + 'static {
        (0..self.tuples.len() as u32).map(TupleId)
    }

    /// True iff the value at `(tid, attr)` is null (single integer compare
    /// against the dense row).
    #[inline]
    pub fn is_null_at(&self, tid: TupleId, attr: AttrId) -> bool {
        self.dense_id(tid, attr) == NULL_VALUE_ID
    }

    /// Appends a tuple, returning its id. Used when extending a specification
    /// with user input (`Se ⊕ Ot`, Section III Remark (1)). Unseen values
    /// (user-supplied "new values") receive fresh local ids.
    pub fn push(&mut self, tuple: Tuple) -> Result<TupleId, TypesError> {
        if tuple.arity() != self.schema.arity() {
            return Err(TypesError::ArityMismatch {
                expected: self.schema.arity(),
                got: tuple.arity(),
            });
        }
        let id = TupleId(self.tuples.len() as u32);
        self.append_dense_row(&tuple, None);
        self.tuples.push(tuple);
        Ok(id)
    }

    /// Replaces the value at `(tid, attr)` in place, returning the previous
    /// value. Used by push-based correction ingestion (upstream revisions
    /// that withdraw or correct a previously reported cell): the tuple and
    /// its dense-id row are updated together, unseen values receive fresh
    /// local ids (like [`EntityInstance::push`]), and the instance's link to
    /// its shared [`ValueTable`] is preserved — a replacement value missing
    /// from the table simply has no global id, which every global-id
    /// consumer already handles (user-input pushes take the same path).
    pub fn replace_value(&mut self, tid: TupleId, attr: AttrId, value: Value) -> Value {
        let id = if value.is_null() {
            NULL_VALUE_ID
        } else if let Some(&id) = self.ids_by_value.get(&value) {
            id
        } else {
            let id = self.values_by_id.len() as u32;
            self.global_by_local.push(NO_GLOBAL_VALUE);
            self.values_by_id.push(value.clone());
            self.ids_by_value.insert(value.clone(), id);
            id
        };
        self.dense[tid.index() * self.schema.arity() + attr.index()] = id;
        self.tuples[tid.index()].set(attr, value)
    }

    /// The *active domain* `adom(Ie.Ai)`: distinct non-null values of
    /// attribute `attr` occurring in the instance, in canonical order.
    ///
    /// Nulls are excluded: a null never becomes a "most current" value (it is
    /// ranked lowest in every currency order), and the paper's encoder builds
    /// `≺v` over actual data values.
    pub fn active_domain(&self, attr: AttrId) -> Vec<Value> {
        let mut vals: Vec<Value> = self
            .tuples
            .iter()
            .map(|t| t.get(attr))
            .filter(|v| !v.is_null())
            .cloned()
            .collect();
        vals.sort();
        vals.dedup();
        vals
    }

    /// Tuples whose `attr` value equals `value`.
    pub fn tuples_with_value(&self, attr: AttrId, value: &Value) -> Vec<TupleId> {
        self.iter()
            .filter(|(_, t)| t.get(attr) == value)
            .map(|(id, _)| id)
            .collect()
    }

    /// Attributes on which the tuples disagree (carry ≥ 2 distinct values,
    /// counting null as a value). These are the *conflicting* attributes
    /// conflict resolution must settle.
    pub fn conflicting_attrs(&self) -> Vec<AttrId> {
        self.schema
            .attr_ids()
            .filter(|&a| {
                let mut it = self.tuples.iter().map(|t| t.get(a));
                match it.next() {
                    None => false,
                    Some(first) => it.any(|v| v != first),
                }
            })
            .collect()
    }
}

impl fmt::Debug for EntityInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EntityInstance over {} ({} tuples):",
            self.schema,
            self.tuples.len()
        )?;
        for (id, t) in self.iter() {
            writeln!(f, "  r{}: {}", id.0, t.display(&self.schema))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance() -> EntityInstance {
        let schema = Schema::new("person", ["name", "status", "kids"]).unwrap();
        let tuples = vec![
            Tuple::of([Value::str("Edith"), Value::str("working"), Value::int(0)]),
            Tuple::of([Value::str("Edith"), Value::str("retired"), Value::int(3)]),
            Tuple::of([Value::str("Edith"), Value::str("deceased"), Value::Null]),
        ];
        EntityInstance::new(schema, tuples).unwrap()
    }

    #[test]
    fn active_domain_excludes_null_and_dedups() {
        let e = instance();
        let kids = e.schema().attr_id("kids").unwrap();
        assert_eq!(e.active_domain(kids), vec![Value::int(0), Value::int(3)]);
        let name = e.schema().attr_id("name").unwrap();
        assert_eq!(e.active_domain(name), vec![Value::str("Edith")]);
    }

    #[test]
    fn conflicting_attrs_detects_disagreement() {
        let e = instance();
        let names: Vec<&str> = e
            .conflicting_attrs()
            .iter()
            .map(|&a| e.schema().attr_name(a))
            .collect();
        assert_eq!(names, vec!["status", "kids"]);
    }

    #[test]
    fn push_appends_with_fresh_id() {
        let mut e = instance();
        let id = e
            .push(Tuple::of([
                Value::str("Edith"),
                Value::str("deceased"),
                Value::int(3),
            ]))
            .unwrap();
        assert_eq!(id, TupleId(3));
        assert_eq!(e.len(), 4);
        assert!(e.push(Tuple::of([Value::Null])).is_err());
    }

    #[test]
    fn tuples_with_value_finds_matches() {
        let e = instance();
        let status = e.schema().attr_id("status").unwrap();
        assert_eq!(
            e.tuples_with_value(status, &Value::str("retired")),
            vec![TupleId(1)]
        );
    }

    #[test]
    fn dense_rows_mirror_values() {
        let e = instance();
        for (tid, t) in e.iter() {
            for attr in e.schema().attr_ids() {
                let id = e.dense_id(tid, attr);
                assert_eq!(e.dense_value(id), t.get(attr));
                assert_eq!(e.is_null_at(tid, attr), t.get(attr).is_null());
                assert_eq!(id == crate::NULL_VALUE_ID, t.get(attr).is_null());
            }
        }
        // Equal values share one id across tuples.
        let name = e.schema().attr_id("name").unwrap();
        assert_eq!(e.dense_id(TupleId(0), name), e.dense_id(TupleId(1), name));
        // The id bound is entity-proportional: 1 (null) + distinct values.
        assert_eq!(e.dense_id_bound(), 1 + 1 + 3 + 2); // name, status, kids
    }

    #[test]
    fn shared_table_canonicalises_and_push_reuses_ids() {
        let schema = Schema::new("p", ["a"]).unwrap();
        let mut table = ValueTable::new();
        table.intern(&Value::str("shared"));
        let mut e = EntityInstance::with_table(
            schema,
            vec![
                Tuple::of([Value::str("shared")]),
                Tuple::of([Value::int(2)]),
            ],
            &table,
        )
        .unwrap();
        // A value missing from the table still round-trips fine.
        assert_eq!(
            e.dense_value(e.dense_id(TupleId(1), AttrId(0))),
            &Value::int(2)
        );
        // Pushing a repeat of an existing value reuses its id.
        let before = e.dense_id_bound();
        e.push(Tuple::of([Value::int(2)])).unwrap();
        assert_eq!(e.dense_id_bound(), before);
        assert_eq!(
            e.dense_id(TupleId(2), AttrId(0)),
            e.dense_id(TupleId(1), AttrId(0))
        );
        // A genuinely new pushed value gets a fresh id.
        e.push(Tuple::of([Value::int(3)])).unwrap();
        assert_eq!(e.dense_id_bound(), before + 1);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let schema = Schema::new("r", ["a", "b"]).unwrap();
        let bad = vec![Tuple::of([Value::int(1)])];
        assert!(EntityInstance::new(schema, bad).is_err());
    }
}
