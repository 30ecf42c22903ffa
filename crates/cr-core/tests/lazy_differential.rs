//! Differential tests for the lazy encoding, whose consumers hold the order
//! axioms as their theory: the lazy engine must
//! resolve exactly like its from-scratch loop, and after every answer its
//! session must agree with an eager, self-contained encode of the current
//! specification — on curated specs, the seed datasets, and randomized
//! scenarios from `cr_data::gen` (including out-of-domain and CFD-LHS user
//! answers).
//!
//! Component-level equalities (validity, deduction, exact true values) are
//! checked too: they are what the outcome equality rests on.

use cr_constraints::parser::{parse_cfds, parse_currency_constraint};
use cr_core::encode::{omega_compiled, Conclusion, Origin};
use cr_core::framework::{
    DeductionMethod, GroundTruthOracle, ResolutionConfig, Resolver, UserOracle,
};
use cr_core::{
    deduce_order, exact_true_values, is_valid_encoded, naive_deduce, suggest,
    true_values_from_orders, CompiledProgram, EncodedSpec, ResolutionOutcome, ResolutionSession,
    Specification,
};
use cr_data::gen::{scenario_from_raw, Scenario, ScenarioConfig};
use cr_oracle::omega_reference;
use cr_store::{check_session_against_scratch, SpecMirror};
use cr_types::{EntityInstance, Schema, Tuple, Value};
use proptest::prelude::*;

/// Resolves `spec` on the engine (lazy, incremental) and on the
/// from-scratch loop, asserts they agree, and re-runs the engine loop
/// round by round against the eager per-round oracle
/// ([`assert_rounds_match_eager`]). Returns the engine's outcome.
fn assert_paths_agree(
    spec: &Specification,
    truth: &Tuple,
    cap: usize,
    deduction: DeductionMethod,
) -> ResolutionOutcome {
    let run = |incremental: bool| {
        let config = ResolutionConfig {
            deduction,
            incremental,
            ..Default::default()
        };
        let mut oracle = GroundTruthOracle::with_cap(truth.clone(), cap);
        Resolver::new(config).resolve(spec, &mut oracle)
    };
    let engine = run(true);
    let scratch = run(false);
    assert_eq!(engine.valid, scratch.valid, "validity diverged vs scratch");
    assert_eq!(
        engine.complete, scratch.complete,
        "completeness diverged vs scratch"
    );
    assert_eq!(
        engine.resolved, scratch.resolved,
        "resolved tuple diverged vs scratch"
    );
    assert_eq!(
        engine.interactions, scratch.interactions,
        "interaction count diverged"
    );
    assert_eq!(
        engine.user_values, scratch.user_values,
        "answer count diverged vs scratch"
    );
    assert_eq!(engine.ot_size, scratch.ot_size, "|Ot| diverged vs scratch");
    assert_rounds_match_eager(spec, truth, cap, deduction);
    engine
}

/// Drives a lazy [`ResolutionSession`] through the Fig. 4 loop one public
/// call at a time (`is_valid` → `deduce` → `true_values` → `suggest` →
/// `apply_input`) and, before the first round and after every answer,
/// checks it with [`check_session_against_scratch`]: validity, deduced
/// value orders and true values must equal those of an eager,
/// self-contained encode of the session's current specification.
fn assert_rounds_match_eager(
    spec: &Specification,
    truth: &Tuple,
    cap: usize,
    deduction: DeductionMethod,
) {
    let config = ResolutionConfig {
        deduction,
        ..Default::default()
    };
    let mut session = ResolutionSession::new(&config, spec);
    let mut oracle = GroundTruthOracle::with_cap(truth.clone(), cap);
    let check = |session: &mut ResolutionSession, answers: usize| {
        let mirror = SpecMirror::new(session.current());
        if let Err(e) = check_session_against_scratch(session, &mirror) {
            panic!("session diverged from the eager oracle after {answers} answer rounds: {e}");
        }
    };
    check(&mut session, 0);
    for round in 0..=config.max_rounds {
        if !session.is_valid() {
            break;
        }
        let od = session.deduce(deduction).expect("valid specification");
        let values = session.true_values(&od);
        if values.complete() || round == config.max_rounds {
            break;
        }
        let sug = session.suggest(&od, &values);
        let input = oracle.provide(spec.schema(), &sug);
        if input.is_empty() {
            break;
        }
        session.apply_input(&input);
        check(&mut session, round + 1);
    }
}

/// Component-level differential: validity, UP deduction, complete (NaiveSat)
/// deduction, the exact true values and the suggestion must agree between
/// a lazy encoding, whose consumers hold the order axioms as their theory,
/// and an eager encoding of the same spec, whose CNF holds them.
fn assert_components_agree(spec: &Specification) {
    let eager = EncodedSpec::encode(spec);
    let lazy = EncodedSpec::encode_lazy(spec);
    assert!(
        lazy.cnf().num_clauses() <= eager.cnf().num_clauses(),
        "lazy must not materialise more clauses than eager"
    );
    let v_eager = is_valid_encoded(&eager).valid;
    let v_lazy = is_valid_encoded(&lazy).valid;
    assert_eq!(v_eager, v_lazy, "validity diverged");
    if v_eager {
        assert_valid_components_agree(spec, &eager, &lazy);
    }
}

/// The steps after a successful validity check, for
/// [`assert_components_agree`].
fn assert_valid_components_agree(spec: &Specification, eager: &EncodedSpec, lazy: &EncodedSpec) {
    // DeduceOrder (unit propagation; the lazy side's order theory).
    let od_eager = deduce_order(eager).expect("valid");
    let od_lazy = deduce_order(lazy).expect("valid");
    assert_eq!(
        od_eager.size(),
        od_lazy.size(),
        "UP deduction sizes diverged"
    );
    for attr in spec.schema().attr_ids() {
        for (lo, hi) in od_eager.pairs(attr) {
            assert!(od_lazy.contains(attr, lo, hi), "UP pair missing under lazy");
        }
    }
    // NaiveDeduce (solver probes; the lazy side's solver runs the order
    // theory) — complete, so sizes must match exactly.
    let nd_eager = naive_deduce(eager).expect("valid");
    let nd_lazy = naive_deduce(lazy).expect("valid");
    assert_eq!(
        nd_eager.size(),
        nd_lazy.size(),
        "NaiveDeduce sizes diverged"
    );
    for attr in spec.schema().attr_ids() {
        for (lo, hi) in nd_eager.pairs(attr) {
            assert!(
                nd_lazy.contains(attr, lo, hi),
                "NaiveDeduce pair missing under lazy"
            );
        }
    }
    // Exact true values (possible-current-value probes).
    assert_eq!(
        exact_true_values(eager),
        exact_true_values(lazy),
        "exact true values diverged"
    );
    // Suggest (clique probe + MaxSAT repair) from the UP deduction.
    let known = true_values_from_orders(eager, &od_eager);
    assert_eq!(
        known,
        true_values_from_orders(lazy, &od_lazy),
        "true values diverged"
    );
    let sug_eager = suggest(spec, eager, &od_eager, &known);
    let sug_lazy = suggest(spec, lazy, &od_lazy, &known);
    assert_eq!(sug_eager.ask, sug_lazy.ask, "suggested attributes diverged");
    assert_eq!(
        sug_eager.derived, sug_lazy.derived,
        "derivable attributes diverged"
    );
}

/// The compiled-program projection must produce **exactly** the reference
/// per-entity instantiation's Ω(Se) — same instances, same order (rule
/// derivation is order sensitive, so set equality is not enough).
fn assert_omega_matches_reference(spec: &Specification) {
    let reference = omega_reference(spec);
    let compiled = omega_compiled(spec);
    assert_eq!(
        reference.len(),
        compiled.len(),
        "compiled Ω(Se) has a different instance count"
    );
    assert_eq!(
        reference, compiled,
        "compiled Ω(Se) diverged from the reference path"
    );
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

/// Regression (review finding): a CFD constant present in the shared
/// table but entering the entity only through a *push* (user input
/// bypasses table interning, so the local id has no global id) must
/// still resolve — the compiled path falls back to the `Value` lookup
/// instead of declaring the constant out of domain.
#[test]
fn compiled_cfd_resolves_values_pushed_outside_the_table() {
    let s = Schema::new("p", ["AC", "city"]).unwrap();
    let rows = vec![
        Tuple::of([Value::int(212), Value::str("NY")]),
        Tuple::of([Value::int(213), Value::str("SF")]),
    ];
    let mut table = cr_types::ValueTable::new();
    table.intern_tuples(rows.iter());
    table.intern(&Value::str("LA")); // in the table, not in this entity
    let mut e = EntityInstance::with_table(s.clone(), rows, &table).unwrap();
    // User-input style push: "LA" gets a local id with NO global id.
    e.push(Tuple::of([Value::Null, Value::str("LA")])).unwrap();
    let gamma = parse_cfds(&s, "AC = 213 -> city = \"LA\"").unwrap();
    let spec = Specification::without_orders(e, vec![], gamma);
    spec.set_compiled_program(std::sync::Arc::new(CompiledProgram::compile(
        spec.sigma(),
        spec.gamma(),
        Some(&table),
    )));
    let compiled = omega_compiled(&spec);
    assert_eq!(omega_reference(&spec), compiled);
    // The CFD must emit real domination conclusions, not a False stub.
    assert!(compiled
        .iter()
        .any(|c| c.origin == Origin::Cfd(0) && matches!(c.conclusion, Conclusion::Atom(_))));
}

/// Regression (review finding): `Int(3)` and `Float(3.0)` intern to
/// distinct dense ids but compare semantically equal — dense-id
/// inequality must not decide Eq/Neq comparisons on either the binary
/// (tuple) or unary (constant, table-compiled) fast paths.
#[test]
fn compiled_eq_comparisons_honour_semantic_numeric_equality() {
    let s = Schema::new("p", ["kids", "status"]).unwrap();
    let rows = vec![
        Tuple::of([Value::int(3), Value::str("working")]),
        Tuple::of([Value::float(3.0), Value::str("retired")]),
    ];
    let mut table = cr_types::ValueTable::new();
    table.intern_tuples(rows.iter());
    table.intern(&Value::int(3));
    let e = EntityInstance::with_table(s.clone(), rows, &table).unwrap();
    let sigma = vec![
        // Binary: t1[kids] = t2[kids] holds across Int(3)/Float(3.0).
        parse_currency_constraint(&s, "t1[kids] = t2[kids] -> t1 <[status] t2").unwrap(),
        // Unary with a table-resolved constant: Float(3.0) = 3 holds
        // even though the global ids differ.
        parse_currency_constraint(&s, "t1[kids] = 3 -> t1 <[status] t2").unwrap(),
    ];
    let spec = Specification::without_orders(e, sigma, vec![]);
    spec.set_compiled_program(std::sync::Arc::new(CompiledProgram::compile(
        spec.sigma(),
        spec.gamma(),
        Some(&table),
    )));
    let compiled = omega_compiled(&spec);
    assert_eq!(omega_reference(&spec), compiled);
    for ci in 0..2 {
        assert!(
            compiled.iter().any(|c| c.origin == Origin::Currency(ci)),
            "constraint {ci} must instantiate despite distinct dense ids"
        );
    }
}

#[test]
fn seed_datasets_agree_with_scratch_and_the_eager_oracle() {
    // The acceptance bar: engine ≡ scratch ≡ per-round eager oracle on all
    // four seed datasets.
    let vjday = [
        (cr_data::vjday::edith_spec(), cr_data::vjday::edith_truth()),
        (
            cr_data::vjday::george_spec(),
            cr_data::vjday::george_truth(),
        ),
    ];
    for (spec, truth) in &vjday {
        assert_paths_agree(spec, truth, 1, DeductionMethod::UnitPropagation);
        assert_components_agree(spec);
    }
    let nba = cr_data::nba::generate_with_sizes(&[27, 81], 7);
    for i in 0..nba.len() {
        assert_paths_agree(
            &nba.spec(i),
            nba.truth(i),
            1,
            DeductionMethod::UnitPropagation,
        );
    }
    let person = cr_data::person::generate_with_sizes(&[40, 120], 7);
    for i in 0..person.len() {
        // Person truths routinely carry out-of-domain values.
        assert_paths_agree(
            &person.spec(i),
            person.truth(i),
            1,
            DeductionMethod::UnitPropagation,
        );
    }
    let career = cr_data::career::generate(cr_data::career::CareerConfig {
        entities: 3,
        seed: 7,
        ..Default::default()
    });
    for i in 0..career.len() {
        assert_paths_agree(
            &career.spec(i),
            career.truth(i),
            1,
            DeductionMethod::UnitPropagation,
        );
    }
}

#[test]
fn lazy_engine_injects_fewer_clauses_than_eager_materialises() {
    // Wide-domain scenario: the axioms dominate the eager encoding, and the
    // lazy engine resolves identically while adding none of them to its
    // CNF — its consumers hold them as their order theory.
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
    let eager = EncodedSpec::encode(&s.spec);
    let lazy = EncodedSpec::encode_lazy(&s.spec);
    let axiom_clauses = eager.cnf().num_clauses() - lazy.cnf().num_clauses();
    assert!(
        axiom_clauses > 10 * lazy.cnf().num_clauses(),
        "axioms must dominate the eager encoding on wide domains \
         (axioms {axiom_clauses}, instance clauses {})",
        lazy.cnf().num_clauses()
    );
    let lazy_inc = assert_paths_agree(&s.spec, &s.truth, 1, DeductionMethod::UnitPropagation);
    assert_eq!(
        lazy_inc.injected_axioms, 0,
        "no query adds an axiom clause to the lazy encoding"
    );
}

#[test]
fn wide_domain_components_agree() {
    // The same wide conflicting domain, step by step: every one-shot step
    // over the lazy encoding's theory-holding consumers answers like the
    // eager axiom clauses.
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
    assert_components_agree(&s.spec);
}

#[test]
fn naive_sat_deduction_agrees_across_modes() {
    // NaiveSat engine ≡ NaiveSat scratch, and the NaiveSat-driven session
    // matches the eager oracle after every answer.
    let s = cr_data::gen::scenario(&ScenarioConfig {
        seed: 3,
        ..Default::default()
    });
    assert_paths_agree(&s.spec, &s.truth, 1, DeductionMethod::NaiveSat);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized scenarios (in-domain answers): engine ≡ scratch ≡ the
    /// per-round eager oracle.
    #[test]
    fn random_scenarios_agree(
        seed in 0u64..10_000,
        tuples in 2usize..24,
        domain in 2usize..16,
        density in 0u32..100,
        cap in 1usize..3,
    ) {
        let Scenario { spec, truth } = scenario_from_raw(seed, tuples, domain, density, false);
        assert_paths_agree(&spec, &truth, cap, DeductionMethod::UnitPropagation);
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
        assert_paths_agree(&spec, &truth, 1, DeductionMethod::UnitPropagation);
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
