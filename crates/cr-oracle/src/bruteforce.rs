//! Reference semantics by exhaustive enumeration.
//!
//! For small specifications this module enumerates *every* value-level
//! completion — one total order of the non-null value space per attribute,
//! with nulls pinned at the bottom — and checks the definition of validity
//! directly (Section II-C): base orders contained, every currency constraint
//! satisfied on every tuple pair, every CFD satisfied by the current tuple.
//!
//! It exists to validate the SAT encoding and the deduction algorithms:
//! property tests assert `IsValid` ⇔ "some completion is valid",
//! `DeduceOrder ⊆` the orders shared by all valid completions, and the
//! true-value extraction matches the completions' consensus.

use cr_constraints::Predicate;
use cr_types::{AttrId, Value};

use cr_core::Specification;

/// All valid completions of `spec`, each given as one permutation of the
/// non-null active-domain values per attribute (least current first).
///
/// # Panics
/// Panics if the enumeration would exceed `limit` completions (guard against
/// accidental blow-up in tests).
pub fn valid_completions(spec: &Specification, limit: usize) -> Vec<Vec<Vec<Value>>> {
    let schema = spec.schema();
    let entity = spec.entity();
    let arity = schema.arity();

    // Value lists per attribute (non-null; null is a fixed bottom).
    let domains: Vec<Vec<Value>> = schema.attr_ids().map(|a| entity.active_domain(a)).collect();

    // Estimate the search space.
    let mut total: u128 = 1;
    for d in &domains {
        total = total.saturating_mul(factorial(d.len()) as u128);
    }
    assert!(
        total as usize <= limit,
        "brute force space {total} exceeds limit {limit}"
    );

    let mut completions = Vec::new();
    let mut current: Vec<Vec<Value>> = Vec::with_capacity(arity);
    enumerate(spec, &domains, 0, &mut current, &mut completions);
    completions
}

fn factorial(n: usize) -> u64 {
    (1..=n as u64).product::<u64>().max(1)
}

fn enumerate(
    spec: &Specification,
    domains: &[Vec<Value>],
    attr: usize,
    current: &mut Vec<Vec<Value>>,
    out: &mut Vec<Vec<Vec<Value>>>,
) {
    if attr == domains.len() {
        if satisfies(spec, current) {
            out.push(current.clone());
        }
        return;
    }
    for perm in permutations(&domains[attr]) {
        current.push(perm);
        enumerate(spec, domains, attr + 1, current, out);
        current.pop();
    }
}

/// All permutations of `items` (Heap's algorithm, materialised).
fn permutations(items: &[Value]) -> Vec<Vec<Value>> {
    if items.is_empty() {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    let mut work: Vec<Value> = items.to_vec();
    heap_permute(work.len(), &mut work, &mut out);
    out
}

fn heap_permute(k: usize, work: &mut Vec<Value>, out: &mut Vec<Vec<Value>>) {
    if k == 1 {
        out.push(work.clone());
        return;
    }
    for i in 0..k {
        heap_permute(k - 1, work, out);
        if k.is_multiple_of(2) {
            work.swap(i, k - 1);
        } else {
            work.swap(0, k - 1);
        }
    }
}

/// Position of `v` in the permutation of its attribute; nulls are below
/// every non-null value (`-1`), equal values share a position.
fn rank(completion: &[Vec<Value>], attr: AttrId, v: &Value) -> i64 {
    if v.is_null() {
        return -1;
    }
    completion[attr.index()]
        .iter()
        .position(|x| x == v)
        .map(|p| p as i64)
        .expect("value drawn from active domain")
}

/// `v1 ≺v_attr v2` under the completion: strictly more current, with null
/// strictly below every non-null value.
fn strictly_before(completion: &[Vec<Value>], attr: AttrId, v1: &Value, v2: &Value) -> bool {
    if v1 == v2 {
        return false;
    }
    rank(completion, attr, v1) < rank(completion, attr, v2)
}

/// Checks the specification's semantics against one completion.
fn satisfies(spec: &Specification, completion: &[Vec<Value>]) -> bool {
    let entity = spec.entity();

    // 1. Base orders: t1 ≺_Ai t2 pairs with differing values must agree with
    //    the completion (equal values are the reflexive part of ⪯).
    for attr in spec.schema().attr_ids() {
        for (t1, t2) in spec.orders().pairs(attr) {
            let v1 = entity.tuple(t1).get(attr);
            let v2 = entity.tuple(t2).get(attr);
            if v1 == v2 {
                continue;
            }
            if !strictly_before(completion, attr, v1, v2) {
                return false;
            }
        }
    }

    // 2. Currency constraints on every ordered tuple pair.
    for c in spec.sigma() {
        for (i1, t1) in entity.iter() {
            'pair: for (i2, t2) in entity.iter() {
                if i1 == i2 {
                    continue;
                }
                for p in c.premises() {
                    match p {
                        Predicate::Order { attr } => {
                            let v1 = t1.get(*attr);
                            let v2 = t2.get(*attr);
                            // Mirror the encoder: order premises over
                            // missing data are vacuous.
                            if v1.is_null()
                                || v2.is_null()
                                || !strictly_before(completion, *attr, v1, v2)
                            {
                                continue 'pair;
                            }
                        }
                        other => {
                            if !other.eval_comparison(t1, t2).expect("comparison") {
                                continue 'pair;
                            }
                        }
                    }
                }
                // Premise holds: conclusion must too. Equal values satisfy
                // it vacuously, and nulls carry no strict obligation.
                let ar = c.conclusion_attr();
                let w1 = t1.get(ar);
                let w2 = t2.get(ar);
                if w1 != w2
                    && !w1.is_null()
                    && !w2.is_null()
                    && !strictly_before(completion, ar, w1, w2)
                {
                    return false;
                }
            }
        }
    }

    // 3. CFDs on the current tuple.
    let lst = current_tuple(completion);
    for cfd in spec.gamma() {
        let matches = cfd
            .lhs()
            .iter()
            .all(|(a, v)| lst[a.index()].as_ref() == Some(v));
        if matches {
            let (b, bv) = cfd.rhs();
            if lst[b.index()].as_ref() != Some(bv) {
                return false;
            }
        }
    }
    true
}

/// The current tuple of a completion: the last (most current) value of each
/// attribute, `None` when the attribute has no non-null values.
pub fn current_tuple(completion: &[Vec<Value>]) -> Vec<Option<Value>> {
    completion.iter().map(|perm| perm.last().cloned()).collect()
}

/// Brute-force validity: at least one valid completion exists.
pub fn brute_force_valid(spec: &Specification, limit: usize) -> bool {
    !valid_completions(spec, limit).is_empty()
}

/// Brute-force true values: the per-attribute consensus of the current
/// tuples of all valid completions (`None` where completions disagree or
/// none exist). The boolean is `false` when the spec is invalid.
pub fn brute_force_true_values(spec: &Specification, limit: usize) -> (bool, Vec<Option<Value>>) {
    let completions = valid_completions(spec, limit);
    let arity = spec.schema().arity();
    if completions.is_empty() {
        return (false, vec![None; arity]);
    }
    let mut consensus: Vec<Option<Value>> = current_tuple(&completions[0])
        .into_iter()
        .map(|v| v.or(Some(Value::Null)))
        .collect();
    for c in &completions[1..] {
        let lst = current_tuple(c);
        for (slot, v) in consensus.iter_mut().zip(lst) {
            let v = v.or(Some(Value::Null));
            if *slot != v {
                *slot = None;
            }
        }
    }
    (true, consensus)
}

/// Brute-force implied orders: value pairs `(attr, v1, v2)` with
/// `v1 ≺v v2` in *every* valid completion.
pub fn brute_force_implied_orders(
    spec: &Specification,
    limit: usize,
) -> Vec<(AttrId, Value, Value)> {
    let completions = valid_completions(spec, limit);
    let mut out = Vec::new();
    if completions.is_empty() {
        return out;
    }
    for attr in spec.schema().attr_ids() {
        let dom = spec.entity().active_domain(attr);
        for v1 in &dom {
            for v2 in &dom {
                if v1 == v2 {
                    continue;
                }
                if completions.iter().all(|c| strictly_before(c, attr, v1, v2)) {
                    out.push((attr, v1.clone(), v2.clone()));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_constraints::parser::{parse_cfds, parse_currency_constraint};
    use cr_types::{EntityInstance, Schema, Tuple};

    #[test]
    fn unconstrained_pair_has_two_completions() {
        let s = Schema::new("p", ["a"]).unwrap();
        let e = EntityInstance::new(
            s,
            vec![Tuple::of([Value::int(1)]), Tuple::of([Value::int(2)])],
        )
        .unwrap();
        let spec = Specification::without_orders(e, vec![], vec![]);
        assert_eq!(valid_completions(&spec, 1000).len(), 2);
        let (valid, tv) = brute_force_true_values(&spec, 1000);
        assert!(valid);
        assert_eq!(tv, vec![None]);
    }

    #[test]
    fn constraint_pins_down_the_order() {
        let s = Schema::new("p", ["status"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::str("working")]),
                Tuple::of([Value::str("retired")]),
            ],
        )
        .unwrap();
        let sigma = vec![parse_currency_constraint(
            &s,
            r#"t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2"#,
        )
        .unwrap()];
        let spec = Specification::without_orders(e, sigma, vec![]);
        let comps = valid_completions(&spec, 1000);
        assert_eq!(comps.len(), 1);
        let (_, tv) = brute_force_true_values(&spec, 1000);
        assert_eq!(tv, vec![Some(Value::str("retired"))]);
        let implied = brute_force_implied_orders(&spec, 1000);
        assert_eq!(implied.len(), 1);
    }

    #[test]
    fn cfd_filters_completions() {
        let s = Schema::new("p", ["AC", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::int(212), Value::str("NY")]),
                Tuple::of([Value::int(213), Value::str("LA")]),
            ],
        )
        .unwrap();
        let gamma = parse_cfds(&s, "AC = 213 -> city = \"LA\"").unwrap();
        let spec = Specification::without_orders(e, vec![], gamma);
        // 2 AC orders × 2 city orders = 4; the (213 top, NY top) one dies.
        assert_eq!(valid_completions(&spec, 1000).len(), 3);
    }

    #[test]
    fn equal_value_conclusion_is_not_a_violation() {
        // phi: order premise on status, conclusion job; jobs equal → fine.
        let s = Schema::new("p", ["status", "job"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::str("retired"), Value::str("n/a")]),
                Tuple::of([Value::str("deceased"), Value::str("n/a")]),
            ],
        )
        .unwrap();
        let sigma = vec![
            parse_currency_constraint(
                &s,
                r#"t1[status] = "retired" && t2[status] = "deceased" -> t1 <[status] t2"#,
            )
            .unwrap(),
            parse_currency_constraint(&s, "t1 <[status] t2 -> t1 <[job] t2").unwrap(),
        ];
        let spec = Specification::without_orders(e, sigma, vec![]);
        assert!(brute_force_valid(&spec, 1000));
    }

    #[test]
    fn blowup_guard_panics() {
        let s = Schema::new("p", ["a"]).unwrap();
        let e =
            EntityInstance::new(s, (0..6).map(|i| Tuple::of([Value::int(i)])).collect()).unwrap();
        let spec = Specification::without_orders(e, vec![], vec![]);
        let res = std::panic::catch_unwind(|| valid_completions(&spec, 10));
        assert!(res.is_err());
    }
}
