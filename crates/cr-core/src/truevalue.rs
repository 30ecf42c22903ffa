//! True-value extraction (Section V-B) and the exact possible-current-value
//! analysis.

use cr_sat::SolveResult;
use cr_types::{AttrId, Value, ValueId};

use crate::deduce::DeducedOrders;
use crate::encode::EncodedSpec;

/// Per-attribute true values: `Some(v)` when the attribute's most current
/// value is the same in every valid completion reachable by the deduction
/// used, `None` when it is still ambiguous.
#[derive(Clone, Debug, PartialEq)]
pub struct TrueValues {
    per_attr: Vec<Option<Value>>,
}

impl TrueValues {
    /// Builds from a plain vector (one slot per attribute).
    pub fn new(per_attr: Vec<Option<Value>>) -> Self {
        TrueValues { per_attr }
    }

    /// The true value of `attr`, if known.
    pub fn get(&self, attr: AttrId) -> Option<&Value> {
        self.per_attr[attr.index()].as_ref()
    }

    /// Number of attributes with a known true value.
    pub fn known_count(&self) -> usize {
        self.per_attr.iter().filter(|v| v.is_some()).count()
    }

    /// True iff every attribute has a true value — i.e. `T(Se)` exists
    /// relative to the deduction performed.
    pub fn complete(&self) -> bool {
        self.per_attr.iter().all(Option::is_some)
    }

    /// Attributes whose true value is still unknown.
    pub fn unknown_attrs(&self) -> Vec<AttrId> {
        self.per_attr
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_none())
            .map(|(i, _)| AttrId(i as u16))
            .collect()
    }

    /// The full per-attribute vector.
    pub fn as_slice(&self) -> &[Option<Value>] {
        &self.per_attr
    }

    /// Assembles the current tuple `T(Se)` when complete.
    pub fn to_tuple(&self) -> Option<cr_types::Tuple> {
        if !self.complete() {
            return None;
        }
        Some(cr_types::Tuple::from_values(
            self.per_attr
                .iter()
                .map(|v| v.clone().expect("complete"))
                .collect(),
        ))
    }
}

/// Extracts true values from deduced orders: `a` is the true value of `Ai`
/// iff every other value of the space is deduced `≺v a` (Section V-B,
/// "True value deduction"). Attributes whose space is a single value
/// (including the all-null case) are trivially known.
pub fn true_values_from_orders(enc: &EncodedSpec, od: &DeducedOrders) -> TrueValues {
    let arity = enc.space().arity();
    let mut out = Vec::with_capacity(arity);
    for attr in (0..arity as u16).map(AttrId) {
        let interner = enc.space().attr(attr);
        let n = interner.len();
        if n == 0 {
            // Attribute entirely absent from the instance (no tuples at
            // all): nothing to resolve.
            out.push(Some(Value::Null));
            continue;
        }
        // `a` is the top iff every other value is deduced below it: count
        // distinct dominated values per candidate in one pass over the
        // deduced pairs instead of probing the set O(n²) times.
        let mut below = vec![0u32; n];
        for (_, hi) in od.pairs(attr) {
            below[hi.index()] += 1;
        }
        let top = interner.ids().find(|a| below[a.index()] as usize == n - 1);
        out.push(top.map(|t| enc.value(attr, t).clone()));
    }
    TrueValues::new(out)
}

/// The exact possible-current-value analysis: value `a` of `attr` is a
/// *possible* current value iff `Φ(Se) ∧ (b ≺v a for all b ≠ a)` is
/// satisfiable. The true value of `attr` exists iff exactly one value is
/// possible.
///
/// This is the complete counterpart of the candidate sets `V(A)` that
/// `DeriveVR` obtains heuristically from `Od`; it decides the (coNP-hard)
/// true-value problem exactly on the encoded instance. Probes run on one
/// solver from [`EncodedSpec::fresh_solver`] (it holds the order axioms
/// as its theory); clauses learnt by one probe sharpen the rest.
pub fn possible_current_values(enc: &EncodedSpec, attr: AttrId) -> Vec<ValueId> {
    let mut solver = enc.fresh_solver();
    if solver.solve() == SolveResult::Unsat {
        return Vec::new();
    }
    let mut possible = Vec::new();
    for v in enc.space().attr(attr).ids() {
        let assumptions: Vec<_> = enc.top_literals(attr, v).collect();
        if solver.solve_with_assumptions(&assumptions) == SolveResult::Sat {
            possible.push(v);
        }
    }
    possible
}

/// Exact true values for every attribute via [`possible_current_values`].
pub fn exact_true_values(enc: &EncodedSpec) -> TrueValues {
    let arity = enc.space().arity();
    let mut out = Vec::with_capacity(arity);
    for attr in (0..arity as u16).map(AttrId) {
        if enc.space().attr(attr).is_empty() {
            out.push(Some(Value::Null));
            continue;
        }
        let possible = possible_current_values(enc, attr);
        out.push(match possible.as_slice() {
            [only] => Some(enc.value(attr, *only).clone()),
            _ => None,
        });
    }
    TrueValues::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deduce::deduce_order;
    use crate::spec::Specification;
    use cr_constraints::parser::parse_currency_constraint;
    use cr_types::{EntityInstance, Schema, Tuple};

    fn chain_spec() -> Specification {
        let s = Schema::new("p", ["status", "kids"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::str("working"), Value::int(0)]),
                Tuple::of([Value::str("retired"), Value::int(3)]),
            ],
        )
        .unwrap();
        let sigma = vec![
            parse_currency_constraint(
                &s,
                r#"t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2"#,
            )
            .unwrap(),
            parse_currency_constraint(&s, "t1[kids] < t2[kids] -> t1 <[kids] t2").unwrap(),
        ];
        Specification::without_orders(e, sigma, vec![])
    }

    #[test]
    fn chain_gives_complete_true_values() {
        let spec = chain_spec();
        let enc = EncodedSpec::encode(&spec);
        let od = deduce_order(&enc).unwrap();
        let tv = true_values_from_orders(&enc, &od);
        assert!(tv.complete());
        let t = tv.to_tuple().unwrap();
        assert_eq!(t.values(), &[Value::str("retired"), Value::int(3)]);
    }

    #[test]
    fn ambiguous_attribute_stays_unknown() {
        let s = Schema::new("p", ["city"]).unwrap();
        let e = EntityInstance::new(
            s,
            vec![Tuple::of([Value::str("NY")]), Tuple::of([Value::str("LA")])],
        )
        .unwrap();
        let spec = Specification::without_orders(e, vec![], vec![]);
        let enc = EncodedSpec::encode(&spec);
        let od = deduce_order(&enc).unwrap();
        let tv = true_values_from_orders(&enc, &od);
        assert!(!tv.complete());
        assert_eq!(tv.known_count(), 0);
        assert_eq!(tv.unknown_attrs(), vec![AttrId(0)]);
        // Exact analysis agrees: both cities are possible tops.
        assert_eq!(possible_current_values(&enc, AttrId(0)).len(), 2);
        assert!(!exact_true_values(&enc).complete());
    }

    #[test]
    fn exact_agrees_with_up_on_chains() {
        let spec = chain_spec();
        let enc = EncodedSpec::encode(&spec);
        let od = deduce_order(&enc).unwrap();
        let heuristic = true_values_from_orders(&enc, &od);
        let exact = exact_true_values(&enc);
        assert_eq!(heuristic, exact);
    }

    #[test]
    fn single_value_attribute_is_trivially_known() {
        let s = Schema::new("p", ["name", "city"]).unwrap();
        let e = EntityInstance::new(
            s,
            vec![
                Tuple::of([Value::str("Edith"), Value::str("NY")]),
                Tuple::of([Value::str("Edith"), Value::str("LA")]),
            ],
        )
        .unwrap();
        let spec = Specification::without_orders(e, vec![], vec![]);
        let enc = EncodedSpec::encode(&spec);
        let od = deduce_order(&enc).unwrap();
        let tv = true_values_from_orders(&enc, &od);
        assert_eq!(tv.get(AttrId(0)), Some(&Value::str("Edith")));
        assert_eq!(tv.get(AttrId(1)), None);
    }

    #[test]
    fn null_never_beats_data() {
        let s = Schema::new("p", ["kids"]).unwrap();
        let e = EntityInstance::new(
            s,
            vec![Tuple::of([Value::Null]), Tuple::of([Value::int(3)])],
        )
        .unwrap();
        let spec = Specification::without_orders(e, vec![], vec![]);
        let enc = EncodedSpec::encode(&spec);
        let od = deduce_order(&enc).unwrap();
        let tv = true_values_from_orders(&enc, &od);
        assert_eq!(tv.get(AttrId(0)), Some(&Value::int(3)));
    }
}
