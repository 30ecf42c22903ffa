//! Differential tests for the Ω-free encoding: the encoder keeps no
//! instantiated Ω(Se) constraint list, and `TrueDer` re-derives suggestion
//! rules on demand by scanning the CNF clause arena
//! (`EncodedSpec::for_each_order_rule`). These tests prove the scan is
//! *exactly* equivalent to the slice-fed baseline (`true_der_retained`
//! over `encode::omega_compiled`), after first proving that slice is
//! exactly what the encoder emitted.

use cr_core::encode::{omega_compiled, Conclusion, InstanceConstraint, Origin};
use cr_core::rules::{true_der, true_der_retained};
use cr_core::truevalue::true_values_from_orders;
use cr_core::{deduce_order, EncodeOptions, EncodedSpec, Specification};
use cr_data::gen::{scenario_from_raw, PowerLawConfig, PowerLawDataset};
use proptest::prelude::*;

/// A fresh unguarded lazy encode of `spec` and the Ω(Se) slice it was
/// emitted from, after asserting the two coincide clause for clause: the
/// encode's CNF is exactly the slice's instances converted in order
/// (premise atoms negated, then the conclusion atom, if any).
fn encode_with_omega(spec: &Specification) -> (EncodedSpec, Vec<InstanceConstraint>) {
    let enc = EncodedSpec::encode_with(spec, EncodeOptions::lazy());
    let omega = omega_compiled(spec);
    assert_eq!(enc.cnf().num_clauses(), omega.len(), "one clause per Ω instance");
    for (idx, c) in omega.iter().enumerate() {
        let var = |a: &cr_core::encode::OrderAtom| {
            enc.var_of(a.attr, a.lo, a.hi).expect("Ω atoms have order variables")
        };
        let mut expected: Vec<cr_sat::Lit> = c.premise.iter().map(|a| var(a).negative()).collect();
        if let Conclusion::Atom(a) = &c.conclusion {
            expected.push(var(a).positive());
        }
        assert_eq!(enc.cnf().clause(idx), &expected[..], "clause {idx} is not Ω instance {idx}");
    }
    (enc, omega)
}

/// Renders both paths' rule lists on one specification: the clause-arena
/// scan and the reference fed the emitted Ω slice, over the same encoding.
fn rules_both_paths(spec: &Specification) -> (Vec<String>, Vec<String>) {
    let (mut enc, omega) = encode_with_omega(spec);
    let od = deduce_order(&mut enc).unwrap();
    let known = true_values_from_orders(&enc, &od);
    let render = |rules: Vec<cr_core::rules::DerivationRule>| {
        rules.iter().map(|r| r.display(&enc, spec.schema())).collect::<Vec<_>>()
    };
    let scan = render(true_der(spec, &enc, &od, &known));
    let retained = render(true_der_retained(spec, &enc, &omega, &od, &known));
    (scan, retained)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized scenarios: the clause-arena scan and the slice-fed
    /// baseline must derive the *same rules in the same order* (the scan
    /// visits clauses in emission order, which is the slice's order
    /// filtered to order rules).
    #[test]
    fn scan_rules_equal_retained_rules(
        seed in 0u64..5_000,
        tuples in 2usize..16,
        domain in 2usize..10,
        density_pct in 0u32..100,
    ) {
        let s = scenario_from_raw(seed, tuples, domain, density_pct, false);
        if !cr_core::is_valid(&s.spec).valid {
            return Ok(()); // TrueDer is only meaningful on valid specs
        }
        let (scan, retained) = rules_both_paths(&s.spec);
        prop_assert_eq!(scan, retained);
    }
}

/// The scan reconstructs premises and conclusions faithfully on power-law
/// entities: its (premise, conclusion) pairs are exactly the order-rule
/// instances of the emitted Ω slice, in order.
#[test]
fn scan_visits_order_rules_with_reconstructed_premises() {
    let ds = PowerLawDataset::new(&PowerLawConfig {
        seed: 4,
        entities: 1,
        min_tuples: 12,
        max_tuples: 12,
        ..Default::default()
    });
    let spec = ds.spec(0);
    let (enc, omega) = encode_with_omega(&spec);

    // Collect (premise, conclusion) pairs from the scan and the emitted
    // slice; they must match pairwise in order.
    let mut scanned: Vec<(Vec<String>, String)> = Vec::new();
    enc.for_each_order_rule(|premise, conclusion| {
        scanned.push((
            premise.iter().map(|a| format!("{a:?}")).collect(),
            format!("{conclusion:?}"),
        ));
    });
    let retained: Vec<(Vec<String>, String)> = omega
        .iter()
        .filter_map(|c| match (&c.origin, &c.conclusion) {
            (Origin::Currency(_) | Origin::BaseOrder, Conclusion::Atom(a)) => Some((
                c.premise.iter().map(|x| format!("{x:?}")).collect(),
                format!("{a:?}"),
            )),
            _ => None,
        })
        .collect();
    assert!(!scanned.is_empty(), "power-law entities must emit order rules");
    assert_eq!(scanned, retained);
}
