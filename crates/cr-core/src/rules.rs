//! `TrueDer`: true-value derivation rules (Section V-C.1).
//!
//! A derivation rule `(X, P[X]) → (B, b)` asserts: *if `P[X]` are the true
//! values of the attributes `X`, then `b` is the true value of `B`*. Rules
//! are harvested from two sources:
//!
//! * constant CFDs whose pattern is compatible with the validated values and
//!   current candidate sets, and
//! * instance constraints `ω → bi ≺v b` of Ω(Se): interpreting each premise
//!   atom `a1 ≺v_Al a2` as "`a2` is `Al`'s true value" (sound because valid
//!   completions totally order each attribute's values, so a top value
//!   dominates everything), one covers every competing candidate `bi` of
//!   `U(B,b)` with compatible constraints.

use std::collections::HashMap;

use cr_types::{AttrId, Value, ValueId};

use crate::deduce::DeducedOrders;
use crate::encode::EncodedSpec;
use crate::spec::Specification;
use crate::truevalue::TrueValues;

/// A true-value derivation rule `(X, P[X]) → (B, b)` over interned values.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DerivationRule {
    /// The premise: attribute → asserted true value, sorted by attribute.
    pub lhs: Vec<(AttrId, ValueId)>,
    /// The conclusion `(B, b)`.
    pub rhs: (AttrId, ValueId),
}

impl DerivationRule {
    /// The value this rule asserts for `attr`, looking at both sides.
    pub fn asserted(&self, attr: AttrId) -> Option<ValueId> {
        if self.rhs.0 == attr {
            return Some(self.rhs.1);
        }
        self.lhs.iter().find(|(a, _)| *a == attr).map(|(_, v)| *v)
    }

    /// Human-readable rendering using the encoding's value table.
    pub fn display(&self, enc: &EncodedSpec, schema: &cr_types::Schema) -> String {
        let side = |pairs: &[(AttrId, ValueId)]| {
            pairs
                .iter()
                .map(|(a, v)| format!("{}={}", schema.attr_name(*a), enc.value(*a, *v)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "({}) -> ({}={})",
            side(&self.lhs),
            schema.attr_name(self.rhs.0),
            enc.value(self.rhs.0, self.rhs.1)
        )
    }
}

/// Derives rules for every attribute whose true value is still unknown.
///
/// `known` carries the validated/deduced true values `VB`; `od` the deduced
/// orders (for candidate sets and for skipping already-implied premises).
pub fn true_der(
    spec: &Specification,
    enc: &EncodedSpec,
    od: &DeducedOrders,
    known: &TrueValues,
) -> Vec<DerivationRule> {
    let mut rules = Vec::new();
    let arity = spec.schema().arity();

    // Candidate sets V(A) for unknown attributes.
    let candidates: Vec<Vec<ValueId>> = (0..arity as u16)
        .map(AttrId)
        .map(|a| {
            if known.get(a).is_some() {
                Vec::new()
            } else {
                od.candidates(enc, a)
            }
        })
        .collect();

    // Known true values as interned ids (new user values are in the space
    // after ⊕, so lookups succeed; unknown lookups are simply skipped).
    let known_ids: Vec<Option<ValueId>> = (0..arity as u16)
        .map(AttrId)
        .map(|a| known.get(a).and_then(|v| enc.value_id(a, v)))
        .collect();

    // (1) Rules from constant CFDs (paper: provided the pattern values do
    // not conflict with validated true values / candidate sets). CFDs
    // withdrawn by upstream corrections no longer license derivations
    // (engine sessions keep Γ's indexing intact and flag retired entries
    // on the encoding instead — see the ingest module docs).
    for (gi, cfd) in spec.gamma().iter().enumerate() {
        if enc.is_cfd_retired(gi) {
            continue;
        }
        let (battr, bval) = cfd.rhs();
        if known.get(*battr).is_some() {
            continue; // conclusion already settled
        }
        let Some(bid) = enc.value_id(*battr, bval) else {
            continue; // RHS outside the domain can never be a true value
        };
        if !candidates[battr.index()].contains(&bid) {
            continue; // dominated value cannot be the most current
        }
        let mut lhs: Vec<(AttrId, ValueId)> = Vec::with_capacity(cfd.lhs().len());
        let mut compatible = true;
        for (a, v) in cfd.lhs() {
            let Some(vid) = enc.value_id(*a, v) else {
                compatible = false;
                break;
            };
            match known_ids[a.index()] {
                Some(k) if k != vid => {
                    compatible = false;
                    break;
                }
                Some(_) => {} // matches the validated value: no premise needed
                None => {
                    if !candidates[a.index()].contains(&vid) {
                        compatible = false;
                        break;
                    }
                    lhs.push((*a, vid));
                }
            }
        }
        if compatible {
            lhs.sort_unstable_by_key(|(a, _)| *a);
            rules.push(DerivationRule {
                lhs,
                rhs: (*battr, bid),
            });
        }
    }

    // (2) Rules from instance constraints representing currency constraints
    // and currency orders: partition the order-rule implications of Ω(Se)
    // by conclusion (B, b), then cover U(B,b). The implications are re-read
    // straight from the CNF's clause arena
    // ([`EncodedSpec::for_each_order_rule`]) — Ω is not materialised. On a
    // never-extended encoding the scan visits exactly the
    // order-rule subsequence of `encode::omega_compiled`
    // (`tests/omega_free_rules.rs`).
    //
    // Conclusion filter: the scan keeps only conclusions bi ≺v b with both
    // values in V(B) of an undecided attribute B with |V(B)| ≥ 2. The
    // filter is exact: the cover below looks up the pool (B, b, bi) only
    // for such B, b ∈ V(B) and bi ∈ V(B) \ {b}, so no lookup reaches a rule
    // it drops. Most order rules conclude about decided attributes or
    // dominated values; they are dropped before their premise is rebuilt.
    let mut in_v: Vec<Vec<bool>> = vec![Vec::new(); arity];
    for (a, cands) in candidates.iter().enumerate().filter(|(_, c)| c.len() >= 2) {
        in_v[a] = vec![false; enc.space().attr(AttrId(a as u16)).len()];
        for v in cands {
            in_v[a][v.index()] = true;
        }
    }
    let in_v = |attr: AttrId, v: ValueId| in_v[attr.index()].get(v.index()) == Some(&true);

    // Index: (battr, b, bi) → the premises of the constraints concluding
    // bi ≺v b.
    type Premise = Vec<(AttrId, ValueId)>; // asserted tops, from ω atoms
    let mut pools: HashMap<(AttrId, ValueId, ValueId), Vec<Premise>> = HashMap::new();
    // Premise atoms a1 ≺ a2 become "a2 is the top of its attribute";
    // atoms already implied by Od need no assumption at all.
    enc.for_each_order_rule(
        |c| in_v(c.attr, c.lo) && in_v(c.attr, c.hi),
        |premise_atoms, atom| {
            let mut premise: Premise = Vec::new();
            let mut usable = true;
            for p in premise_atoms {
                if od.contains(p.attr, p.lo, p.hi) {
                    continue;
                }
                // Conflicting instantiation within one constraint: the same
                // attribute asserted at two different tops.
                if let Some((_, prev)) = premise.iter().find(|(a, _)| *a == p.attr) {
                    if *prev != p.hi {
                        usable = false;
                        break;
                    }
                    continue;
                }
                // Incompatible with a validated value.
                if let Some(k) = known_ids[p.attr.index()] {
                    if k != p.hi {
                        usable = false;
                        break;
                    }
                    continue;
                }
                premise.push((p.attr, p.hi));
            }
            if usable {
                pools
                    .entry((atom.attr, atom.hi, atom.lo))
                    .or_default()
                    .push(premise);
            }
        },
    );

    // Canonicalise the premise pools: shortest (weakest-assumption)
    // premises first, ties broken lexicographically, duplicates removed.
    // This makes the greedy cover below insensitive to the order in which
    // Ω(Se) was produced — in particular, the incremental engine appends
    // delta instances in a different order (and with different duplicates)
    // than a from-scratch instantiation of the extended specification.
    for premises in pools.values_mut() {
        premises.sort_unstable_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        premises.dedup();
    }

    for (battr, cands) in candidates.iter().enumerate() {
        let battr = AttrId(battr as u16);
        if cands.len() < 2 {
            continue; // nothing to decide (0/1 candidates)
        }
        'target: for &b in cands {
            // U(B,b): competing candidates that must be dominated.
            let competitors: Vec<ValueId> = cands.iter().copied().filter(|&x| x != b).collect();
            let mut accumulated: Premise = Vec::new();
            for bi in competitors {
                let Some(premises) = pools.get(&(battr, b, bi)) else {
                    continue 'target; // bi not coverable: no rule for (B,b)
                };
                // Greedily pick the first premise compatible with what we
                // have accumulated so far.
                let mut chosen: Option<&Premise> = None;
                'premise: for p in premises {
                    for (a, v) in p {
                        if let Some((_, prev)) = accumulated.iter().find(|(x, _)| x == a) {
                            if prev != v {
                                continue 'premise;
                            }
                        }
                        // A rule about B must not assume B's own top.
                        if *a == battr {
                            continue 'premise;
                        }
                    }
                    chosen = Some(p);
                    break;
                }
                let Some(p) = chosen else {
                    continue 'target;
                };
                for (a, v) in p {
                    if !accumulated.iter().any(|(x, _)| x == a) {
                        accumulated.push((*a, *v));
                    }
                }
            }
            if !accumulated.is_empty() {
                accumulated.sort_unstable_by_key(|(a, _)| *a);
                rules.push(DerivationRule {
                    lhs: accumulated,
                    rhs: (battr, b),
                });
            }
        }
    }

    rules.sort_by(|a, b| (a.rhs, &a.lhs).cmp(&(b.rhs, &b.lhs)));
    rules.dedup();
    rules
}

/// Candidate true values `V(A)` per attribute, as concrete values (the
/// suggestion payload shown to users).
pub fn candidate_values(enc: &EncodedSpec, od: &DeducedOrders, attr: AttrId) -> Vec<Value> {
    od.candidates(enc, attr)
        .into_iter()
        .map(|v| enc.value(attr, v).clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deduce::deduce_order;
    use crate::truevalue::true_values_from_orders;
    use cr_constraints::parser::{parse_cfds, parse_currency_file};
    use cr_types::{EntityInstance, Schema, Tuple};

    /// George (Fig. 2 E2) with the Fig. 3 constraints restricted to the
    /// attributes present here.
    fn george() -> Specification {
        let s = Schema::new("p", ["status", "job", "AC", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([
                    Value::str("working"),
                    Value::str("sailor"),
                    Value::int(401),
                    Value::str("Newport"),
                ]),
                Tuple::of([
                    Value::str("retired"),
                    Value::str("veteran"),
                    Value::int(212),
                    Value::str("NY"),
                ]),
                Tuple::of([
                    Value::str("unemployed"),
                    Value::str("n/a"),
                    Value::int(312),
                    Value::str("Chicago"),
                ]),
            ],
        )
        .unwrap();
        let sigma = parse_currency_file(
            &s,
            r#"
            phi1: t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2
            phi5: t1 <[status] t2 -> t1 <[job] t2
            phi6: t1 <[status] t2 -> t1 <[AC] t2
            "#,
        )
        .unwrap();
        let gamma = parse_cfds(&s, "psi2: AC = 212 -> city = \"NY\"").unwrap();
        Specification::without_orders(e, sigma, gamma)
    }

    #[test]
    fn rules_match_example_10_shape() {
        let spec = george();
        let enc = EncodedSpec::encode(&spec);
        let od = deduce_order(&enc).unwrap();
        let known = true_values_from_orders(&enc, &od);
        let rules = true_der(&spec, &enc, &od, &known);
        let s = spec.schema();
        let rendered: Vec<String> = rules.iter().map(|r| r.display(&enc, s)).collect();
        // n1/n6-style rules: status=retired → job=veteran, status=unemployed → job=n/a.
        assert!(
            rendered
                .iter()
                .any(|r| r == "(status=retired) -> (job=veteran)"),
            "missing n1-style rule in {rendered:?}"
        );
        assert!(
            rendered
                .iter()
                .any(|r| r == "(status=unemployed) -> (job=n/a)"),
            "missing n6-style rule in {rendered:?}"
        );
        // n2/n7-style: status → AC.
        assert!(rendered.iter().any(|r| r == "(status=retired) -> (AC=212)"));
        assert!(rendered
            .iter()
            .any(|r| r == "(status=unemployed) -> (AC=312)"));
        // n5-style from the CFD: AC=212 → city=NY.
        assert!(rendered.iter().any(|r| r == "(AC=212) -> (city=NY)"));
    }

    #[test]
    fn rules_never_conclude_known_attributes() {
        let spec = george();
        let enc = EncodedSpec::encode(&spec);
        let od = deduce_order(&enc).unwrap();
        let known = true_values_from_orders(&enc, &od);
        let rules = true_der(&spec, &enc, &od, &known);
        for r in &rules {
            assert!(known.get(r.rhs.0).is_none());
        }
    }

    #[test]
    fn cfd_rule_dropped_when_pattern_not_a_candidate() {
        // CFD on an AC value that is already dominated.
        let s = Schema::new("p", ["status", "AC", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([
                    Value::str("working"),
                    Value::int(401),
                    Value::str("Newport"),
                ]),
                Tuple::of([Value::str("retired"), Value::int(212), Value::str("NY")]),
            ],
        )
        .unwrap();
        let sigma = parse_currency_file(
            &s,
            r#"
            t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2
            t1 <[status] t2 -> t1 <[AC] t2
            "#,
        )
        .unwrap();
        // 401 is dominated by 212 after deduction → rule pattern dead.
        let gamma = parse_cfds(&s, "AC = 401 -> city = \"Newport\"").unwrap();
        let spec = Specification::without_orders(e, sigma, gamma);
        let enc = EncodedSpec::encode(&spec);
        let od = deduce_order(&enc).unwrap();
        let known = true_values_from_orders(&enc, &od);
        let rules = true_der(&spec, &enc, &od, &known);
        assert!(
            rules
                .iter()
                .all(|r| spec.schema().attr_name(r.rhs.0) != "city"),
            "dead CFD must not produce a city rule"
        );
    }
}
