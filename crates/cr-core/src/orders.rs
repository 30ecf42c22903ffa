//! Partial currency orders `⪯_Ai` over the tuples of an entity instance.

use std::collections::BTreeSet;

use cr_types::{AttrId, EntityInstance, TupleId};

/// Per-attribute partial currency orders at the tuple level.
///
/// A pair `(t1, t2)` in attribute `Ai`'s set asserts `t1 ≺_Ai t2`: `t2`'s
/// `Ai`-value is more current than `t1`'s. Pairs whose two tuples share the
/// same `Ai`-value are allowed in the input (they are trivially satisfied
/// members of `⪯_Ai`) and simply carry no strict information.
///
/// The same type represents both the initial orders of `It` and the
/// additional partial temporal orders `Ot` used to extend a specification
/// (`Se ⊕ Ot`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartialOrders {
    per_attr: Vec<BTreeSet<(TupleId, TupleId)>>,
}

impl PartialOrders {
    /// Empty orders for a schema of `arity` attributes.
    pub fn empty(arity: usize) -> Self {
        PartialOrders {
            per_attr: vec![BTreeSet::new(); arity],
        }
    }

    /// Number of attributes covered.
    pub fn arity(&self) -> usize {
        self.per_attr.len()
    }

    /// Asserts `t1 ≺_attr t2`. Self-pairs are ignored.
    pub fn add(&mut self, attr: AttrId, t1: TupleId, t2: TupleId) {
        if t1 != t2 {
            self.per_attr[attr.index()].insert((t1, t2));
        }
    }

    /// The pairs recorded for `attr`.
    pub fn pairs(&self, attr: AttrId) -> impl Iterator<Item = (TupleId, TupleId)> + '_ {
        self.per_attr[attr.index()].iter().copied()
    }

    /// Withdraws `t1 ≺_attr t2`, returning whether it was present. Used by
    /// push-based correction ingestion (upstream revisions withdrawing a
    /// previously-asserted currency order).
    pub fn remove(&mut self, attr: AttrId, t1: TupleId, t2: TupleId) -> bool {
        self.per_attr[attr.index()].remove(&(t1, t2))
    }

    /// Withdraws every pair of `attr` whose *upper* tuple is `hi` — the
    /// order extension a user answer induced for one attribute (Section III
    /// Remark (1) ranks the answer tuple above every existing tuple).
    /// Returns the removed pairs.
    pub fn remove_pairs_above(&mut self, attr: AttrId, hi: TupleId) -> Vec<(TupleId, TupleId)> {
        let set = &mut self.per_attr[attr.index()];
        let removed: Vec<(TupleId, TupleId)> =
            set.iter().copied().filter(|&(_, t2)| t2 == hi).collect();
        for pair in &removed {
            set.remove(pair);
        }
        removed
    }

    /// True iff `t1 ≺_attr t2` is recorded.
    pub fn contains(&self, attr: AttrId, t1: TupleId, t2: TupleId) -> bool {
        self.per_attr[attr.index()].contains(&(t1, t2))
    }

    /// Total size `|Ot| = Σ_i |≺'_Ai|` (the minimisation objective of the
    /// conflict resolution problem).
    pub fn size(&self) -> usize {
        self.per_attr.iter().map(BTreeSet::len).sum()
    }

    /// True iff no pairs are recorded.
    pub fn is_empty(&self) -> bool {
        self.per_attr.iter().all(BTreeSet::is_empty)
    }

    /// Merges `other` into `self` (the `⊕` of `Se ⊕ Ot` on the order part).
    pub fn merge(&mut self, other: &PartialOrders) {
        assert_eq!(self.arity(), other.arity(), "order arity mismatch");
        for (mine, theirs) in self.per_attr.iter_mut().zip(&other.per_attr) {
            mine.extend(theirs.iter().copied());
        }
    }

    /// Checks that, projected to attribute values of `entity`, the recorded
    /// pairs are acyclic (i.e. they can be a fragment of a partial order on
    /// values). Returns the offending attribute on failure.
    ///
    /// Pairs between equal values are ignored: they assert nothing strict.
    pub fn check_acyclic(&self, entity: &EntityInstance) -> Result<(), AttrId> {
        for attr in entity.schema().attr_ids() {
            // Build the value-level digraph.
            let mut edges: BTreeSet<(String, String)> = BTreeSet::new();
            let mut nodes: BTreeSet<String> = BTreeSet::new();
            for (t1, t2) in self.pairs(attr) {
                let v1 = entity.tuple(t1).get(attr);
                let v2 = entity.tuple(t2).get(attr);
                if v1 == v2 {
                    continue;
                }
                let a = v1.to_token().into_owned();
                let b = v2.to_token().into_owned();
                nodes.insert(a.clone());
                nodes.insert(b.clone());
                edges.insert((a, b));
            }
            // Kahn's algorithm.
            let mut remaining = edges.clone();
            let mut alive: BTreeSet<String> = nodes.clone();
            loop {
                let source = alive
                    .iter()
                    .find(|n| !remaining.iter().any(|(_, to)| to == *n))
                    .cloned();
                match source {
                    Some(n) => {
                        remaining.retain(|(from, _)| from != &n);
                        alive.remove(&n);
                    }
                    None => break,
                }
            }
            if !alive.is_empty() {
                return Err(attr);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_types::{Schema, Tuple, Value};

    fn entity() -> EntityInstance {
        let s = Schema::new("r", ["a", "b"]).unwrap();
        EntityInstance::new(
            s,
            vec![
                Tuple::of([Value::int(1), Value::str("x")]),
                Tuple::of([Value::int(2), Value::str("y")]),
                Tuple::of([Value::int(3), Value::str("x")]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn add_merge_size() {
        let mut o1 = PartialOrders::empty(2);
        o1.add(AttrId(0), TupleId(0), TupleId(1));
        o1.add(AttrId(0), TupleId(0), TupleId(0)); // ignored
        let mut o2 = PartialOrders::empty(2);
        o2.add(AttrId(1), TupleId(1), TupleId(2));
        o2.add(AttrId(0), TupleId(0), TupleId(1)); // duplicate of o1's
        o1.merge(&o2);
        assert_eq!(o1.size(), 2);
        assert!(!o1.is_empty());
    }

    #[test]
    fn acyclic_check_accepts_chains_rejects_cycles() {
        let e = entity();
        let mut ok = PartialOrders::empty(2);
        ok.add(AttrId(0), TupleId(0), TupleId(1));
        ok.add(AttrId(0), TupleId(1), TupleId(2));
        assert!(ok.check_acyclic(&e).is_ok());

        let mut cyc = ok.clone();
        cyc.add(AttrId(0), TupleId(2), TupleId(0));
        assert_eq!(cyc.check_acyclic(&e), Err(AttrId(0)));
    }

    #[test]
    fn same_value_pairs_do_not_create_cycles() {
        let e = entity();
        let mut o = PartialOrders::empty(2);
        // tuples 0 and 2 share value "x" on attr b: both directions fine.
        o.add(AttrId(1), TupleId(0), TupleId(2));
        o.add(AttrId(1), TupleId(2), TupleId(0));
        assert!(o.check_acyclic(&e).is_ok());
    }
}
