//! Property tests: the SAT encoding against the brute-force reference
//! semantics on randomly generated small specifications.
//!
//! Every property runs on both encodings the engine relies on: the eager
//! one, whose CNF holds the order axioms, and the engine's lazy one, whose
//! consumers hold them as their order theory (`fresh_solver`,
//! `fresh_propagator`). So the oracle checks the theory-driven path
//! directly, not only through lazy ≡ eager.
//!
//! * `IsValid` must agree with "at least one valid completion exists".
//! * `DeduceOrder` results must hold in every valid completion (soundness).
//! * `NaiveDeduce` must derive exactly the brute-force implied orders
//!   (completeness of the probes under the totality encoding).
//! * True values from deduced orders must agree with the completions'
//!   consensus current tuple.

use proptest::prelude::*;

use cr_constraints::{CompOp, CurrencyConstraint, Predicate, TupleRef};
use cr_core::encode::EncodedSpec;
use cr_core::{deduce_order, naive_deduce, true_values_from_orders, Specification};
use cr_oracle::bruteforce::{
    brute_force_implied_orders, brute_force_true_values, brute_force_valid,
};
use cr_types::{AttrId, EntityInstance, Schema, Tuple, Value};

const ATTRS: usize = 3;
const VALUES_PER_ATTR: i64 = 3;

/// A compact generator language for random specs.
#[derive(Clone, Debug)]
struct SpecSeed {
    tuples: Vec<Vec<i64>>, // value indices per attribute; -1 = null
    constraints: Vec<ConstraintSeed>,
    cfds: Vec<CfdSeed>,
}

#[derive(Clone, Debug)]
enum ConstraintSeed {
    /// t1[a]=c1 && t2[a]=c2 -> t1 <[r] t2
    ConstPair {
        attr: usize,
        c1: i64,
        c2: i64,
        concl: usize,
    },
    /// t1[a] < t2[a] -> t1 <[r] t2
    Monotone { attr: usize, concl: usize },
    /// t1 <[a] t2 -> t1 <[r] t2
    OrderProp { attr: usize, concl: usize },
}

#[derive(Clone, Debug)]
struct CfdSeed {
    lhs_attr: usize,
    lhs_val: i64,
    rhs_attr: usize,
    rhs_val: i64,
}

fn schema() -> std::sync::Arc<Schema> {
    Schema::new("r", (0..ATTRS).map(|i| format!("a{i}"))).unwrap()
}

fn value(v: i64) -> Value {
    if v < 0 {
        Value::Null
    } else {
        Value::int(v)
    }
}

fn build_spec(seed: &SpecSeed) -> Option<Specification> {
    let s = schema();
    let tuples: Vec<Tuple> = seed
        .tuples
        .iter()
        .map(|row| Tuple::from_values(row.iter().map(|&v| value(v)).collect()))
        .collect();
    let entity = EntityInstance::new(s.clone(), tuples).ok()?;
    let mut sigma = Vec::new();
    for c in &seed.constraints {
        let constraint = match c {
            ConstraintSeed::ConstPair {
                attr,
                c1,
                c2,
                concl,
            } => CurrencyConstraint::new(
                s.clone(),
                None,
                vec![
                    Predicate::ConstCmp {
                        tuple: TupleRef::T1,
                        attr: AttrId(*attr as u16),
                        op: CompOp::Eq,
                        constant: value(*c1),
                    },
                    Predicate::ConstCmp {
                        tuple: TupleRef::T2,
                        attr: AttrId(*attr as u16),
                        op: CompOp::Eq,
                        constant: value(*c2),
                    },
                ],
                AttrId(*concl as u16),
            ),
            ConstraintSeed::Monotone { attr, concl } => CurrencyConstraint::new(
                s.clone(),
                None,
                vec![Predicate::TupleCmp {
                    attr: AttrId(*attr as u16),
                    op: CompOp::Lt,
                }],
                AttrId(*concl as u16),
            ),
            ConstraintSeed::OrderProp { attr, concl } => CurrencyConstraint::new(
                s.clone(),
                None,
                vec![Predicate::Order {
                    attr: AttrId(*attr as u16),
                }],
                AttrId(*concl as u16),
            ),
        }
        .ok()?;
        sigma.push(constraint);
    }
    let mut gamma = Vec::new();
    for c in &seed.cfds {
        if c.lhs_attr == c.rhs_attr || c.lhs_val < 0 || c.rhs_val < 0 {
            continue;
        }
        gamma.push(
            cr_constraints::ConstantCfd::new(
                s.clone(),
                None,
                vec![(AttrId(c.lhs_attr as u16), value(c.lhs_val))],
                (AttrId(c.rhs_attr as u16), value(c.rhs_val)),
            )
            .ok()?,
        );
    }
    Some(Specification::without_orders(entity, sigma, gamma))
}

fn seed_strategy() -> impl Strategy<Value = SpecSeed> {
    let tuple = prop::collection::vec(-1i64..VALUES_PER_ATTR, ATTRS);
    let tuples = prop::collection::vec(tuple, 1..4);
    let constraint = prop_oneof![
        (0..ATTRS, 0..VALUES_PER_ATTR, 0..VALUES_PER_ATTR, 0..ATTRS).prop_map(
            |(attr, c1, c2, concl)| ConstraintSeed::ConstPair {
                attr,
                c1,
                c2,
                concl
            }
        ),
        (0..ATTRS, 0..ATTRS).prop_map(|(attr, concl)| ConstraintSeed::Monotone { attr, concl }),
        (0..ATTRS, 0..ATTRS).prop_map(|(attr, concl)| ConstraintSeed::OrderProp { attr, concl }),
    ];
    let constraints = prop::collection::vec(constraint, 0..5);
    let cfd = (0..ATTRS, 0..VALUES_PER_ATTR, 0..ATTRS, 0..VALUES_PER_ATTR).prop_map(
        |(lhs_attr, lhs_val, rhs_attr, rhs_val)| CfdSeed {
            lhs_attr,
            lhs_val,
            rhs_attr,
            rhs_val,
        },
    );
    let cfds = prop::collection::vec(cfd, 0..3);
    (tuples, constraints, cfds).prop_map(|(tuples, constraints, cfds)| SpecSeed {
        tuples,
        constraints,
        cfds,
    })
}

const LIMIT: usize = 1_000_000;

/// The eager and the lazy (engine) encoding of `spec`, named.
fn encodings(spec: &Specification) -> [(&'static str, EncodedSpec); 2] {
    [
        ("eager", EncodedSpec::encode(spec)),
        ("lazy", EncodedSpec::encode_lazy(spec)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn isvalid_matches_bruteforce(seed in seed_strategy()) {
        let Some(spec) = build_spec(&seed) else { return Ok(()); };
        let expected = brute_force_valid(&spec, LIMIT);
        for (kind, enc) in encodings(&spec) {
            let got = enc.fresh_solver().solve() == cr_sat::SolveResult::Sat;
            prop_assert_eq!(got, expected, "IsValid ({}) disagreed with brute force", kind);
        }
    }

    #[test]
    fn deduce_order_is_sound(seed in seed_strategy()) {
        let Some(spec) = build_spec(&seed) else { return Ok(()); };
        if !brute_force_valid(&spec, LIMIT) {
            return Ok(());
        }
        let implied = brute_force_implied_orders(&spec, LIMIT);
        for (kind, enc) in encodings(&spec) {
            let od = deduce_order(&enc).expect("valid spec propagates without conflict");
            for attr in spec.schema().attr_ids() {
                for (lo, hi) in od.pairs(attr) {
                    let vlo = enc.value(attr, lo).clone();
                    let vhi = enc.value(attr, hi).clone();
                    if vlo.is_null() || vhi.is_null() {
                        continue; // null-bottom axioms are true by the semantics
                    }
                    prop_assert!(
                        implied.iter().any(|(a, x, y)| *a == attr && *x == vlo && *y == vhi),
                        "DeduceOrder ({kind}) derived {vlo:?} ≺ {vhi:?} on {attr:?}, not implied semantically"
                    );
                }
            }
        }
    }

    #[test]
    fn naive_deduce_is_exactly_the_implied_orders(seed in seed_strategy()) {
        let Some(spec) = build_spec(&seed) else { return Ok(()); };
        if !brute_force_valid(&spec, LIMIT) {
            return Ok(());
        }
        let implied = brute_force_implied_orders(&spec, LIMIT);
        for (kind, enc) in encodings(&spec) {
            let od = naive_deduce(&enc).expect("valid");
            // Completeness: every semantically implied pair is found.
            for (attr, vlo, vhi) in &implied {
                let lo = enc.value_id(*attr, vlo).unwrap();
                let hi = enc.value_id(*attr, vhi).unwrap();
                prop_assert!(
                    od.contains(*attr, lo, hi),
                    "NaiveDeduce ({kind}) missed implied order {vlo:?} ≺ {vhi:?}"
                );
            }
            // Soundness: every found non-null pair is semantically implied.
            for attr in spec.schema().attr_ids() {
                for (lo, hi) in od.pairs(attr) {
                    let vlo = enc.value(attr, lo).clone();
                    let vhi = enc.value(attr, hi).clone();
                    if vlo.is_null() || vhi.is_null() {
                        continue;
                    }
                    prop_assert!(
                        implied.iter().any(|(a, x, y)| *a == attr && *x == vlo && *y == vhi),
                        "NaiveDeduce ({kind}) over-derived {vlo:?} ≺ {vhi:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn true_values_agree_with_completion_consensus(seed in seed_strategy()) {
        let Some(spec) = build_spec(&seed) else { return Ok(()); };
        let (bf_valid, bf_truth) = brute_force_true_values(&spec, LIMIT);
        if !bf_valid {
            return Ok(());
        }
        for (kind, enc) in encodings(&spec) {
            let od = naive_deduce(&enc).expect("valid");
            let tv = true_values_from_orders(&enc, &od);
            for attr in spec.schema().attr_ids() {
                // Complete deduction must match the consensus exactly.
                let got = tv.get(attr);
                let expected = bf_truth[attr.index()].as_ref();
                prop_assert_eq!(
                    got, expected,
                    "true value mismatch ({}) on {:?}", kind, attr
                );
            }
        }
    }
}
