//! Value interning, at two granularities.
//!
//! * [`ValueTable`] — **dataset-level**: every value occurring anywhere in a
//!   dataset is interned exactly once into a dense `u32` id
//!   ([`GlobalValueId`]). Entity instances carry their tuples' values as
//!   contiguous rows of these ids (see `EntityInstance`), so equality and
//!   null tests on the encoder's hot paths are single integer compares over
//!   flat buffers instead of `Value` hashing per specification.
//! * [`AttrValueSpace`] / [`ValueInterner`] — **per-attribute, per
//!   encoding**: the SAT encoder (Section V-A) works with the strict value
//!   order `≺v_Ai` over `adom(Ie.Ai)`; interning each such value to a dense
//!   [`ValueId`] lets the encoder address order variables as integer pairs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::schema::AttrId;
use crate::value::Value;

/// Dataset-wide dense id of a value in a [`ValueTable`]. Id
/// [`NULL_VALUE_ID`] is always `Value::Null`.
pub type GlobalValueId = u32;

/// The reserved [`GlobalValueId`] of `Value::Null`.
pub const NULL_VALUE_ID: GlobalValueId = 0;

/// A dataset-level value interner: every distinct [`Value`] maps to one
/// dense [`GlobalValueId`], with `Null` pinned at id 0. Built once per
/// dataset (or per entity for standalone instances) and shared by all of the
/// dataset's entity instances via `Arc`.
#[derive(Clone, Debug)]
pub struct ValueTable {
    by_value: HashMap<Value, GlobalValueId>,
    values: Vec<Value>,
    /// Process-unique identity (see [`ValueTable::token`]).
    token: u64,
}

impl Default for ValueTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Source of process-unique [`ValueTable::token`] values. Starts at 1 so 0
/// can never collide with a real token.
static NEXT_TABLE_TOKEN: AtomicU64 = AtomicU64::new(1);

impl ValueTable {
    /// A table containing only `Null` (at id 0).
    pub fn new() -> Self {
        let mut by_value = HashMap::new();
        by_value.insert(Value::Null, NULL_VALUE_ID);
        ValueTable {
            by_value,
            values: vec![Value::Null],
            token: NEXT_TABLE_TOKEN.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A process-unique identity for this table's id universe. Two tables
    /// assign unrelated [`GlobalValueId`]s to the same values, so consumers
    /// that cache ids (entity instances, the encoder's compiled constraint
    /// programs) carry the token along and check it before mixing ids.
    /// Clones share the token — a clone extends the same id universe.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Interns `v`, returning its stable dataset-wide id.
    pub fn intern(&mut self, v: &Value) -> GlobalValueId {
        if let Some(&id) = self.by_value.get(v) {
            return id;
        }
        let id = self.values.len() as GlobalValueId;
        self.values.push(v.clone());
        self.by_value.insert(v.clone(), id);
        id
    }

    /// Interns every value of every tuple in `tuples`.
    pub fn intern_tuples<'a>(&mut self, tuples: impl IntoIterator<Item = &'a crate::tuple::Tuple>) {
        for t in tuples {
            for v in t.values() {
                self.intern(v);
            }
        }
    }

    /// Looks up an already interned value.
    pub fn get(&self, v: &Value) -> Option<GlobalValueId> {
        self.by_value.get(v).copied()
    }

    /// The value behind `id`.
    pub fn value(&self, id: GlobalValueId) -> &Value {
        &self.values[id as usize]
    }

    /// Number of interned values (including `Null`).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True iff only `Null` is interned.
    pub fn is_empty(&self) -> bool {
        self.values.len() == 1
    }
}

/// Dense id of an interned value within one attribute's value space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interner for the values of a single attribute. Interning never removes
/// ids: dense id spaces must stay stable for the SAT encoder's variable
/// tables.
#[derive(Clone, Default, Debug)]
pub struct ValueInterner {
    by_value: HashMap<Value, ValueId>,
    values: Vec<Value>,
}

impl ValueInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `v`, returning its stable id.
    pub fn intern(&mut self, v: &Value) -> ValueId {
        if let Some(&id) = self.by_value.get(v) {
            return id;
        }
        let id = ValueId(self.values.len() as u32);
        self.values.push(v.clone());
        self.by_value.insert(v.clone(), id);
        id
    }

    /// Looks up an already interned value.
    pub fn get(&self, v: &Value) -> Option<ValueId> {
        self.by_value.get(v).copied()
    }

    /// The value behind `id`.
    pub fn value(&self, id: ValueId) -> &Value {
        &self.values[id.index()]
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(ValueId, &Value)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &Value)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ValueId(i as u32), v))
    }

    /// All ids in interning order.
    pub fn ids(&self) -> impl Iterator<Item = ValueId> + 'static {
        (0..self.values.len() as u32).map(ValueId)
    }
}

/// One [`ValueInterner`] per attribute of a schema.
#[derive(Clone, Debug)]
pub struct AttrValueSpace {
    per_attr: Vec<ValueInterner>,
}

impl AttrValueSpace {
    /// Builds an empty space for a schema with `arity` attributes.
    pub fn new(arity: usize) -> Self {
        AttrValueSpace {
            per_attr: vec![ValueInterner::new(); arity],
        }
    }

    /// The interner for `attr`.
    pub fn attr(&self, attr: AttrId) -> &ValueInterner {
        &self.per_attr[attr.index()]
    }

    /// Interns `v` in the value space of `attr`.
    pub fn intern(&mut self, attr: AttrId, v: &Value) -> ValueId {
        self.per_attr[attr.index()].intern(v)
    }

    /// Looks up `(attr, v)` without interning.
    pub fn get(&self, attr: AttrId, v: &Value) -> Option<ValueId> {
        self.per_attr[attr.index()].get(v)
    }

    /// The value behind `(attr, id)`.
    pub fn value(&self, attr: AttrId, id: ValueId) -> &Value {
        self.per_attr[attr.index()].value(id)
    }

    /// Number of attributes covered.
    pub fn arity(&self) -> usize {
        self.per_attr.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_deduplicating() {
        let mut i = ValueInterner::new();
        let a = i.intern(&Value::str("x"));
        let b = i.intern(&Value::int(1));
        let a2 = i.intern(&Value::str("x"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
        assert_eq!(i.value(a), &Value::str("x"));
        assert_eq!(i.get(&Value::int(1)), Some(b));
        assert_eq!(i.get(&Value::int(2)), None);
    }

    #[test]
    fn attr_spaces_are_independent() {
        let mut s = AttrValueSpace::new(2);
        let v = Value::str("same");
        let id0 = s.intern(AttrId(0), &v);
        assert_eq!(s.get(AttrId(1), &v), None);
        let id1 = s.intern(AttrId(1), &v);
        assert_eq!(id0, ValueId(0));
        assert_eq!(id1, ValueId(0));
        assert_eq!(s.attr(AttrId(0)).len(), 1);
    }
}
