//! Integration tests reproducing the paper's worked examples end to end.

use conflict_resolution::core::framework::{Resolver, SilentOracle};
use conflict_resolution::core::{
    deduce_order, possible_current_values, suggest, true_values_from_orders, EncodedSpec,
    PartialOrders,
};
use conflict_resolution::data::vjday;
use conflict_resolution::types::{TupleId, Value};

/// Example 2: Edith's true tuple is derived fully automatically by
/// interleaving currency and consistency inferences.
#[test]
fn example_2_edith_resolves_automatically() {
    let spec = vjday::edith_spec();
    let outcome = Resolver::default_config().resolve(&spec, &mut SilentOracle);
    assert!(outcome.valid);
    assert!(outcome.complete);
    assert_eq!(outcome.interactions, 0);
    assert_eq!(
        outcome.resolved.to_tuple().expect("complete").values(),
        vjday::edith_truth().values()
    );
}

/// Example 2's step order: (a) status from ϕ1/ϕ2, (b) kids from ϕ4,
/// (c) job/AC/zip from ϕ5–ϕ7, (d) city from ψ1, (e) county from ϕ8.
#[test]
fn example_2_inference_steps_visible_in_orders() {
    let spec = vjday::edith_spec();
    let mut enc = EncodedSpec::encode(&spec);
    let od = deduce_order(&mut enc).expect("valid");
    let s = spec.schema();
    let check = |attr: &str, lo: Value, hi: Value| {
        let a = s.attr_id(attr).expect("attr");
        let lo = enc.value_id(a, &lo).expect("value");
        let hi = enc.value_id(a, &hi).expect("value");
        assert!(od.contains(a, lo, hi), "{attr}: expected order missing");
    };
    // (a) working ≺ retired ≺ deceased.
    check("status", Value::str("working"), Value::str("retired"));
    check("status", Value::str("retired"), Value::str("deceased"));
    // (b) 0 ≺ 3 on kids.
    check("kids", Value::int(0), Value::int(3));
    // (c) 212 ≺ 213 and 415 ≺ 213 on AC.
    check("AC", Value::int(212), Value::int(213));
    check("AC", Value::int(415), Value::int(213));
    // (d) NY ≺ LA and SFC ≺ LA on city, via ψ1 after (c).
    check("city", Value::str("NY"), Value::str("LA"));
    check("city", Value::str("SFC"), Value::str("LA"));
    // (e) Manhattan/Dogtown ≺ Vermont on county, via ϕ8 after (d).
    check("county", Value::str("Manhattan"), Value::str("Vermont"));
    check("county", Value::str("Dogtown"), Value::str("Vermont"));
}

/// Example 3: for George only (name, kids) are automatically derivable.
#[test]
fn example_3_george_partial_deduction() {
    let spec = vjday::george_spec();
    let mut enc = EncodedSpec::encode(&spec);
    let od = deduce_order(&mut enc).expect("valid");
    let known = true_values_from_orders(&enc, &od);
    let s = spec.schema();
    assert_eq!(
        known.get(s.attr_id("name").unwrap()),
        Some(&Value::str("George Mendonca"))
    );
    assert_eq!(known.get(s.attr_id("kids").unwrap()), Some(&Value::int(2)));
    assert_eq!(known.known_count(), 2);
}

/// Example 4/paper text: the exact possible current tuples for George have
/// the form (George, x_status, x_job, 2, x_city, x_AC, x_zip, x_county).
#[test]
fn example_4_possible_current_values() {
    let spec = vjday::george_spec();
    let mut enc = EncodedSpec::encode(&spec);
    let s = spec.schema();
    // status can still be retired or unemployed (working is dominated).
    let status = s.attr_id("status").unwrap();
    let possible: Vec<&Value> = possible_current_values(&mut enc, status)
        .into_iter()
        .map(|v| enc.value(status, v))
        .collect();
    assert_eq!(possible.len(), 2);
    assert!(possible.contains(&&Value::str("retired")));
    assert!(possible.contains(&&Value::str("unemployed")));
    // kids is pinned to 2.
    let kids = s.attr_id("kids").unwrap();
    assert_eq!(possible_current_values(&mut enc, kids).len(), 1);
}

/// Example 6: supplying the order r6 ≺_status r5 as a partial temporal
/// order Ot makes George's true tuple derivable.
#[test]
fn example_6_order_extension_completes_george() {
    let spec = vjday::george_spec();
    let mut ot = PartialOrders::empty(spec.schema().arity());
    let status = spec.schema().attr_id("status").unwrap();
    // r6 is tuple index 2, r5 is index 1 in E2.
    ot.add(status, TupleId(2), TupleId(1));
    let extended = spec.extend_with_orders(&ot);
    let mut enc = EncodedSpec::encode(&extended);
    let od = deduce_order(&mut enc).expect("valid");
    let known = true_values_from_orders(&enc, &od);
    assert!(known.complete(), "Ot = {{r6 ≺status r5}} suffices");
    assert_eq!(
        known.to_tuple().expect("complete").values(),
        vjday::george_truth().values()
    );
}

/// Examples 10–12: the suggestion for George asks exactly for `status` with
/// candidates {retired, unemployed}, deriving job/AC/zip/city/county.
#[test]
fn example_12_george_suggestion() {
    let spec = vjday::george_spec();
    let mut enc = EncodedSpec::encode(&spec);
    let od = deduce_order(&mut enc).expect("valid");
    let known = true_values_from_orders(&enc, &od);
    let sug = suggest(&spec, &mut enc, &od, &known);
    let s = spec.schema();
    let ask: Vec<&str> = sug.ask.keys().map(|a| s.attr_name(*a)).collect();
    assert_eq!(ask, vec!["status"]);
    let candidates = &sug.ask[&s.attr_id("status").unwrap()];
    assert_eq!(candidates.len(), 2);
    for attr in ["job", "AC", "zip", "city", "county"] {
        assert!(
            sug.derived.contains(&s.attr_id(attr).unwrap()),
            "{attr} should be derivable from the suggestion"
        );
    }
}

/// The framework loop on George with a ground-truth user finishes in one
/// interaction and produces Example 6's tuple.
#[test]
fn george_full_loop_with_user() {
    use conflict_resolution::core::framework::GroundTruthOracle;
    let spec = vjday::george_spec();
    let mut oracle = GroundTruthOracle::new(vjday::george_truth());
    let outcome = Resolver::default_config().resolve(&spec, &mut oracle);
    assert!(outcome.complete);
    assert_eq!(outcome.interactions, 1);
    assert_eq!(
        outcome.resolved.to_tuple().expect("complete").values(),
        vjday::george_truth().values()
    );
}
