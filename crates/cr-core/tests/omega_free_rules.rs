//! Differential tests for the Ω-free encoding: the encoder keeps no
//! instantiated Ω(Se) constraint list, and `TrueDer` re-derives suggestion
//! rules on demand by scanning the CNF clause arena
//! (`EncodedSpec::for_each_order_rule`). These tests prove the scan visits
//! *exactly* the order rules of `encode::omega_compiled`, in order, after
//! first proving that slice is exactly what the encoder emitted.

use cr_core::encode::{omega_compiled, Conclusion, InstanceConstraint, Origin};
use cr_core::{EncodedSpec, Specification};
use cr_data::gen::{scenario_from_raw, PowerLawConfig, PowerLawDataset};
use proptest::prelude::*;

/// A fresh encode of `spec` and the Ω(Se) slice it was emitted
/// from, after asserting the two coincide clause for clause: the encode's
/// CNF is exactly the slice's instances converted in order (premise atoms
/// negated, then the conclusion atom, if any).
fn encode_with_omega(spec: &Specification) -> (EncodedSpec, Vec<InstanceConstraint>) {
    let enc = EncodedSpec::encode(spec);
    let omega = omega_compiled(spec);
    assert_eq!(
        enc.cnf().num_clauses(),
        omega.len(),
        "one clause per Ω instance"
    );
    for (idx, c) in omega.iter().enumerate() {
        let var = |a: &cr_core::encode::OrderAtom| {
            enc.var_of(a.attr, a.lo, a.hi)
                .expect("Ω atoms have order variables")
        };
        let mut expected: Vec<cr_sat::Lit> = c.premise.iter().map(|a| var(a).negative()).collect();
        if let Conclusion::Atom(a) = &c.conclusion {
            expected.push(var(a).positive());
        }
        assert_eq!(
            enc.cnf().clause(idx),
            expected,
            "clause {idx} is not Ω instance {idx}"
        );
    }
    (enc, omega)
}

/// Rendered (premise atoms, conclusion atom) pairs.
type Rules = Vec<(Vec<String>, String)>;

/// The clause-arena scan's (premise, conclusion) sequence and the
/// order-rule subsequence (Σ-currency and base-order instances with an
/// atom conclusion) of the emitted Ω slice.
fn order_rules_both_ways(spec: &Specification) -> (Rules, Rules) {
    let (enc, omega) = encode_with_omega(spec);
    let mut scanned = Vec::new();
    enc.for_each_order_rule(
        |_| true,
        |premise, conclusion| {
            scanned.push((
                premise.iter().map(|a| format!("{a:?}")).collect(),
                format!("{conclusion:?}"),
            ));
        },
    );
    let emitted = omega
        .iter()
        .filter_map(|c| match (&c.origin, &c.conclusion) {
            (Origin::Currency(_) | Origin::BaseOrder, Conclusion::Atom(a)) => Some((
                c.premise.iter().map(|x| format!("{x:?}")).collect(),
                format!("{a:?}"),
            )),
            _ => None,
        })
        .collect();
    (scanned, emitted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized scenarios: `TrueDer` reads its order rules only through
    /// the clause-arena scan, which must visit exactly the order rules of
    /// the emitted Ω slice, premises and conclusions reconstructed, in
    /// emission order.
    #[test]
    fn scan_order_rules_equal_compiled_omega_order_rules(
        seed in 0u64..5_000,
        tuples in 2usize..16,
        domain in 2usize..10,
        density_pct in 0u32..100,
    ) {
        let s = scenario_from_raw(seed, tuples, domain, density_pct, false);
        let (scanned, emitted) = order_rules_both_ways(&s.spec);
        prop_assert_eq!(scanned, emitted);
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
    let (scanned, emitted) = order_rules_both_ways(&ds.spec(0));
    assert!(
        !scanned.is_empty(),
        "power-law entities must emit order rules"
    );
    assert_eq!(scanned, emitted);
}
