//! Differential tests for lazy axiom instantiation: resolution with the
//! lazy engine default must produce exactly the same outcome as the eager
//! engine and both from-scratch baselines — on curated specs, the seed
//! datasets, and randomized scenarios from `cr_data::gen` (including
//! out-of-domain and CFD-LHS user answers).
//!
//! Component-level equalities (validity, deduction, exact true values) are
//! checked too: they are what the outcome equality rests on.

use cr_core::framework::{DeductionMethod, GroundTruthOracle, ResolutionConfig, Resolver};
use cr_core::{
    deduce_order, exact_true_values, is_valid_encoded, naive_deduce, EncodeOptions, EncodedSpec,
    ResolutionOutcome, Specification,
};
use cr_data::gen::{scenario_from_raw, Scenario, ScenarioConfig};
use cr_types::Tuple;
use proptest::prelude::*;

/// Resolves `spec` on all four paths: (lazy, eager) × (incremental,
/// scratch). The lazy incremental configuration is the engine default.
fn resolve_four(spec: &Specification, truth: &Tuple, cap: usize) -> [ResolutionOutcome; 4] {
    let run = |encode: EncodeOptions, incremental: bool| {
        let config = ResolutionConfig { encode, incremental, ..Default::default() };
        let mut oracle = GroundTruthOracle::with_cap(truth.clone(), cap);
        Resolver::new(config).resolve(spec, &mut oracle)
    };
    [
        run(EncodeOptions::lazy(), true),
        run(EncodeOptions::eager(), true),
        run(EncodeOptions::lazy(), false),
        run(EncodeOptions::eager(), false),
    ]
}

fn assert_four_agree(spec: &Specification, truth: &Tuple, cap: usize) {
    let [lazy_inc, eager_inc, lazy_scr, eager_scr] = resolve_four(spec, truth, cap);
    for (label, other) in [
        ("eager incremental", &eager_inc),
        ("lazy scratch", &lazy_scr),
        ("eager scratch", &eager_scr),
    ] {
        assert_eq!(lazy_inc.valid, other.valid, "validity diverged vs {label}");
        assert_eq!(lazy_inc.complete, other.complete, "completeness diverged vs {label}");
        assert_eq!(lazy_inc.resolved, other.resolved, "resolved tuple diverged vs {label}");
        assert_eq!(
            lazy_inc.interactions, other.interactions,
            "interaction count diverged vs {label}"
        );
        assert_eq!(lazy_inc.user_values, other.user_values, "answer count diverged vs {label}");
        assert_eq!(lazy_inc.ot_size, other.ot_size, "|Ot| diverged vs {label}");
    }
    assert_eq!(eager_inc.injected_axioms, 0, "eager mode never injects");
    assert_eq!(eager_scr.injected_axioms, 0, "eager scratch never injects");
}

/// Component-level differential: validity, UP deduction, complete (NaiveSat)
/// deduction and the exact true values must agree between a lazy and an
/// eager encoding of the same spec.
fn assert_components_agree(spec: &Specification) {
    let eager = EncodedSpec::encode_with(spec, EncodeOptions::eager());
    let lazy = EncodedSpec::encode_with(spec, EncodeOptions::lazy());
    assert!(
        lazy.cnf().num_clauses() <= eager.cnf().num_clauses(),
        "lazy must not materialise more clauses than eager"
    );
    let v_eager = is_valid_encoded(&eager).valid;
    let v_lazy = is_valid_encoded(&lazy).valid;
    assert_eq!(v_eager, v_lazy, "validity diverged");
    if !v_eager {
        return;
    }
    // DeduceOrder (unit propagation + lazy instantiation).
    let od_eager = deduce_order(&eager).expect("valid");
    let od_lazy = deduce_order(&lazy).expect("valid");
    assert_eq!(od_eager.size(), od_lazy.size(), "UP deduction sizes diverged");
    for attr in spec.schema().attr_ids() {
        for (lo, hi) in od_eager.pairs(attr) {
            assert!(od_lazy.contains(attr, lo, hi), "UP pair missing under lazy");
        }
    }
    // NaiveDeduce (CEGAR probes) — complete, so sizes must match exactly.
    let nd_eager = naive_deduce(&eager).expect("valid");
    let nd_lazy = naive_deduce(&lazy).expect("valid");
    assert_eq!(nd_eager.size(), nd_lazy.size(), "NaiveDeduce sizes diverged");
    for attr in spec.schema().attr_ids() {
        for (lo, hi) in nd_eager.pairs(attr) {
            assert!(nd_lazy.contains(attr, lo, hi), "NaiveDeduce pair missing under lazy");
        }
    }
    // Exact true values (possible-current-value probes).
    assert_eq!(
        exact_true_values(&eager),
        exact_true_values(&lazy),
        "exact true values diverged"
    );
}

/// The compiled-program projection must produce **exactly** the reference
/// per-entity instantiation's Ω(Se) — same instances, same order (rule
/// derivation is order sensitive, so set equality is not enough).
fn assert_omega_matches_reference(spec: &Specification) {
    let reference = cr_core::encode::omega_reference(spec);
    let compiled = cr_core::encode::omega_compiled(spec);
    assert_eq!(
        reference.len(),
        compiled.len(),
        "compiled Ω(Se) has a different instance count"
    );
    assert_eq!(reference, compiled, "compiled Ω(Se) diverged from the reference path");
}

#[test]
fn compiled_omega_matches_reference_on_seed_datasets() {
    for spec in [cr_data::vjday::edith_spec(), cr_data::vjday::george_spec()] {
        assert_omega_matches_reference(&spec);
    }
    let nba = cr_data::nba::generate_with_sizes(&[27, 81], 7);
    let person = cr_data::person::generate_with_sizes(&[40, 120], 7);
    let career = cr_data::career::generate(cr_data::career::CareerConfig {
        entities: 3,
        seed: 7,
        ..Default::default()
    });
    for ds in [&nba, &person, &career] {
        for i in 0..ds.len() {
            let spec = ds.spec(i);
            assert_omega_matches_reference(&spec);
            // Constraint subsampling clears the dataset-stamped program; a
            // freshly (table-free) compiled program must agree too.
            assert_omega_matches_reference(&spec.with_constraint_fraction(0.6, 0.6, 11));
            // And after user input grows the entity with values outside the
            // shared table (no global ids — the fallback paths must agree).
            let input = cr_core::UserInput::single(
                cr_types::AttrId(0),
                ds.truth(i).get(cr_types::AttrId(0)).clone(),
            );
            if !input.values[&cr_types::AttrId(0)].is_null() {
                let mut extended = spec.clone();
                extended.apply_user_input(&input);
                assert_omega_matches_reference(&extended);
            }
        }
    }
}

#[test]
fn seed_datasets_agree_on_all_four_paths() {
    // The acceptance bar: lazy ≡ eager ≡ scratch on all four seed datasets.
    let vjday = [
        (cr_data::vjday::edith_spec(), cr_data::vjday::edith_truth()),
        (cr_data::vjday::george_spec(), cr_data::vjday::george_truth()),
    ];
    for (spec, truth) in &vjday {
        assert_four_agree(spec, truth, 1);
        assert_components_agree(spec);
    }
    let nba = cr_data::nba::generate_with_sizes(&[27, 81], 7);
    for i in 0..nba.len() {
        assert_four_agree(&nba.spec(i), nba.truth(i), 1);
    }
    let person = cr_data::person::generate_with_sizes(&[40, 120], 7);
    for i in 0..person.len() {
        // Person truths routinely carry out-of-domain values.
        assert_four_agree(&person.spec(i), person.truth(i), 1);
    }
    let career = cr_data::career::generate(cr_data::career::CareerConfig {
        entities: 3,
        seed: 7,
        ..Default::default()
    });
    for i in 0..career.len() {
        assert_four_agree(&career.spec(i), career.truth(i), 1);
    }
}

#[test]
fn lazy_engine_injects_fewer_clauses_than_eager_materialises() {
    // Wide-domain scenario: the lazy path must stay well under the eager
    // clause count while resolving identically.
    let s = cr_data::gen::scenario(&ScenarioConfig {
        seed: 11,
        attrs: 4,
        tuples: 30,
        domain: 24,
        conflict_density: 1.0,
        null_density: 0.0,
        sigma: 6,
        gamma: 2,
        ..Default::default()
    });
    let eager = EncodedSpec::encode_with(&s.spec, EncodeOptions::eager());
    let lazy = EncodedSpec::encode_with(&s.spec, EncodeOptions::lazy());
    let axiom_clauses = eager.cnf().num_clauses() - lazy.cnf().num_clauses();
    assert!(
        axiom_clauses > 10 * lazy.cnf().num_clauses(),
        "axioms must dominate the eager encoding on wide domains \
         (axioms {axiom_clauses}, instance clauses {})",
        lazy.cnf().num_clauses()
    );
    let [lazy_inc, ..] = resolve_four(&s.spec, &s.truth, 1);
    assert!(
        lazy_inc.injected_axioms < axiom_clauses / 2,
        "lazy resolution must not re-materialise the eager axiom set \
         (injected {} of {axiom_clauses})",
        lazy_inc.injected_axioms
    );
}

#[test]
fn naive_sat_deduction_agrees_across_modes() {
    let s = cr_data::gen::scenario(&ScenarioConfig { seed: 3, ..Default::default() });
    for incremental in [true, false] {
        let run = |encode: EncodeOptions| {
            let config = ResolutionConfig {
                deduction: DeductionMethod::NaiveSat,
                encode,
                incremental,
                ..Default::default()
            };
            let mut oracle = GroundTruthOracle::with_cap(s.truth.clone(), 1);
            Resolver::new(config).resolve(&s.spec, &mut oracle)
        };
        let lazy = run(EncodeOptions::lazy());
        let eager = run(EncodeOptions::eager());
        assert_eq!(lazy.resolved, eager.resolved, "NaiveSat resolution diverged");
        assert_eq!(lazy.interactions, eager.interactions);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized scenarios (in-domain answers): all four paths agree and
    /// components match.
    #[test]
    fn random_scenarios_agree(
        seed in 0u64..10_000,
        tuples in 2usize..24,
        domain in 2usize..16,
        density in 0u32..100,
        cap in 1usize..3,
    ) {
        let Scenario { spec, truth } = scenario_from_raw(seed, tuples, domain, density, false);
        assert_four_agree(&spec, &truth, cap);
    }

    /// Randomized scenarios whose truths carry out-of-domain values: oracle
    /// answers grow the value space mid-resolution (and retract CFD groups
    /// whose LHS/RHS attributes grew) — the retraction-heavy path.
    #[test]
    fn random_scenarios_with_new_values_agree(
        seed in 0u64..10_000,
        tuples in 2usize..20,
        domain in 2usize..12,
        density in 0u32..100,
    ) {
        let Scenario { spec, truth } = scenario_from_raw(seed, tuples, domain, density, true);
        assert_four_agree(&spec, &truth, 1);
    }

    /// Component-level equality on randomized scenarios (cheaper than full
    /// resolution, so it can afford the complete NaiveDeduce comparison).
    #[test]
    fn random_scenario_components_agree(
        seed in 0u64..10_000,
        tuples in 2usize..14,
        domain in 2usize..10,
        density in 0u32..100,
    ) {
        let Scenario { spec, .. } = scenario_from_raw(seed, tuples, domain, density, false);
        assert_components_agree(&spec);
    }

    /// Compiled-program encoding ≡ the per-entity reference path on
    /// randomized scenarios — exact Ω(Se) equality, with the dataset-style
    /// table-resolved program the generator stamps, with a table-free
    /// recompile, and after out-of-domain user input.
    #[test]
    fn compiled_omega_matches_reference_on_random_scenarios(
        seed in 0u64..10_000,
        tuples in 2usize..24,
        domain in 2usize..16,
        density in 0u32..100,
        new_values in 0u32..2,
    ) {
        let Scenario { spec, truth } = scenario_from_raw(seed, tuples, domain, density, new_values == 1);
        assert_omega_matches_reference(&spec);
        // Table-free recompile (subsampling keeps all constraints at 1.0
        // but clears the stamped program).
        assert_omega_matches_reference(&spec.with_constraint_fraction(1.0, 1.0, seed));
        // Grow the entity with the truth's values (out-of-domain when
        // new_values) and compare the grown instantiation too.
        let mut input = cr_core::UserInput::default();
        for attr in spec.schema().attr_ids() {
            let v = truth.get(attr);
            if !v.is_null() {
                input.values.insert(attr, v.clone());
            }
        }
        if !input.is_empty() {
            let mut extended = spec.clone();
            extended.apply_user_input(&input);
            assert_omega_matches_reference(&extended);
        }
    }
}
