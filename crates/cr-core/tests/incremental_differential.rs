//! Differential tests: the incremental resolution engine must produce
//! exactly the same [`ResolutionOutcome`] as the from-scratch Fig. 4 loop
//! (a fresh session per round, re-encoded) — same resolved tuples, same
//! interaction counts, same order-extension sizes, same per-round progress
//! — on every workload, including rounds where user answers fall outside
//! the interned value space (which the engine absorbs by deleting and
//! re-emitting CFD clauses and rebuilding its solver, and the oracle by
//! re-encoding).

use cr_core::framework::{
    DeductionMethod, GroundTruthOracle, ResolutionConfig, Resolver, SilentOracle, UserOracle,
};
use cr_core::sched::{resolve_batch, SchedulerConfig};
use cr_core::{ResolutionOutcome, Specification};
use cr_types::{EntityInstance, Schema, Tuple, Value};
use proptest::prelude::*;

fn resolve_both(
    spec: &Specification,
    make_oracle: impl Fn() -> Box<dyn UserOracle>,
    config: ResolutionConfig,
) -> (ResolutionOutcome, ResolutionOutcome) {
    let incremental = Resolver::new(ResolutionConfig {
        incremental: true,
        ..config
    });
    let scratch = Resolver::new(ResolutionConfig {
        incremental: false,
        ..config
    });
    let a = incremental.resolve(spec, &mut *make_oracle());
    let b = scratch.resolve(spec, &mut *make_oracle());
    (a, b)
}

/// Per-round progress: `(known_after_deduce, suggestion_size,
/// user_answers)` of every round, so a skewed round shows up even when the
/// final outcomes coincide.
fn round_trace(outcome: &ResolutionOutcome) -> Vec<(usize, usize, usize)> {
    outcome
        .rounds
        .iter()
        .map(|r| (r.known_after_deduce, r.suggestion_size, r.user_answers))
        .collect()
}

fn assert_outcomes_match(
    spec: &Specification,
    truth: &Tuple,
    cap: usize,
    config: ResolutionConfig,
) {
    let (a, b) = resolve_both(
        spec,
        || Box::new(GroundTruthOracle::with_cap(truth.clone(), cap)),
        config,
    );
    assert_eq!(a.valid, b.valid, "validity diverged");
    assert_eq!(a.complete, b.complete, "completeness diverged");
    assert_eq!(a.resolved, b.resolved, "resolved tuples diverged");
    assert_eq!(
        a.interactions, b.interactions,
        "interaction counts diverged"
    );
    assert_eq!(a.user_values, b.user_values, "answer counts diverged");
    assert_eq!(a.ot_size, b.ot_size, "|Ot| diverged");
    assert_eq!(a.rounds.len(), b.rounds.len(), "round counts diverged");
    assert_eq!(
        round_trace(&a),
        round_trace(&b),
        "per-round progress diverged"
    );
}

fn default_config(max_rounds: usize) -> ResolutionConfig {
    ResolutionConfig {
        max_rounds,
        ..Default::default()
    }
}

#[test]
fn vjday_examples_identical() {
    for (spec, truth) in [
        (cr_data::vjday::edith_spec(), cr_data::vjday::edith_truth()),
        (
            cr_data::vjday::george_spec(),
            cr_data::vjday::george_truth(),
        ),
    ] {
        assert_outcomes_match(&spec, &truth, 1, default_config(10));
    }
}

#[test]
fn nba_dataset_identical() {
    let ds = cr_data::nba::generate_with_sizes(&[27, 81, 135], 7);
    for i in 0..ds.len() {
        assert_outcomes_match(&ds.spec(i), ds.truth(i), 1, default_config(10));
    }
}

#[test]
fn person_dataset_identical() {
    let ds = cr_data::person::generate_with_sizes(&[40, 90, 140], 7);
    for i in 0..ds.len() {
        // Person truths routinely carry values outside the active domain,
        // exercising CFD clause deletion and re-emission.
        assert_outcomes_match(&ds.spec(i), ds.truth(i), 1, default_config(10));
    }
}

#[test]
fn sparse_constraints_force_many_rounds_and_agree() {
    let ds = cr_data::person::generate_with_sizes(&[120], 7);
    let spec = ds.spec(0).with_constraint_fraction(0.5, 0.5, 3);
    assert_outcomes_match(&spec, ds.truth(0), 1, default_config(10));
}

#[test]
fn naive_sat_deduction_agrees() {
    let config = ResolutionConfig {
        deduction: DeductionMethod::NaiveSat,
        ..default_config(5)
    };
    let ds = cr_data::nba::generate_with_sizes(&[27], 5);
    assert_outcomes_match(&ds.spec(0), ds.truth(0), 1, config);
    // Out-of-domain answers on CFD attributes: the engine's NaiveSat probes
    // run on the engine's solver, rebuilt after each CFD clause deletion,
    // the oracle's on a fresh session per round.
    for (ac_new, city_new) in [(true, true), (true, false), (false, true)] {
        let (spec, truth) = cfd_lhs_spec(3, ac_new, city_new);
        assert_outcomes_match(&spec, &truth, 1, config);
    }
}

#[test]
fn multi_attribute_answers_agree() {
    let ds = cr_data::nba::generate_with_sizes(&[54], 9);
    // Uncapped oracle: several attributes answered per round.
    assert_outcomes_match(&ds.spec(0), ds.truth(0), usize::MAX, default_config(10));
}

#[test]
fn silent_oracle_agrees() {
    let ds = cr_data::person::generate_with_sizes(&[60], 11);
    let (a, b) = resolve_both(&ds.spec(0), || Box::new(SilentOracle), default_config(10));
    assert_eq!(a.resolved, b.resolved);
    assert_eq!(a.complete, b.complete);
    assert_eq!(a.interactions, 0);
    assert_eq!(b.interactions, 0);
}

#[test]
fn out_of_domain_answer_extends_in_place_and_agrees() {
    // City has two conflicting values; the user asserts a third one that is
    // not in the active domain — the incremental engine absorbs it as a
    // pure extension and still matches the scratch loop.
    let s = Schema::new("p", ["name", "city"]).unwrap();
    let e = EntityInstance::new(
        s,
        vec![
            Tuple::of([Value::str("X"), Value::str("NY")]),
            Tuple::of([Value::str("X"), Value::str("LA")]),
        ],
    )
    .unwrap();
    let spec = Specification::without_orders(e, vec![], vec![]);
    let truth = Tuple::of([Value::str("X"), Value::str("Chicago")]);
    assert_outcomes_match(&spec, &truth, 1, default_config(10));
    // And the resolution really adopts the new value.
    let outcome = Resolver::new(default_config(10))
        .resolve(&spec, &mut GroundTruthOracle::new(truth.clone()));
    assert!(outcome.complete);
    assert_eq!(
        outcome.resolved.to_tuple().unwrap().values(),
        truth.values()
    );
}

/// A conflict-heavy spec whose CFDs put `AC` on the LHS and `city` on the
/// RHS: the oracle's out-of-domain answers exercise CFD clause deletion
/// and re-emission on both sides.
fn cfd_lhs_spec(n: usize, ac_new: bool, city_new: bool) -> (Specification, Tuple) {
    let s = Schema::new("p", ["name", "status", "AC", "city"]).unwrap();
    let tuples: Vec<Tuple> = (0..n)
        .map(|i| {
            Tuple::of([
                Value::str("X"),
                Value::str(format!("st_{i}")),
                Value::int(200 + i as i64),
                Value::str(format!("city_{i}")),
            ])
        })
        .collect();
    let e = EntityInstance::new(s.clone(), tuples).unwrap();
    let gamma: Vec<_> = (0..n)
        .flat_map(|i| {
            cr_constraints::parser::parse_cfds(
                &s,
                &format!("AC = {} -> city = \"city_{}\"", 200 + i, i),
            )
            .unwrap()
        })
        .collect();
    let spec = Specification::without_orders(e, vec![], gamma);
    let truth = Tuple::of([
        Value::str("X"),
        Value::str("st_new"),
        if ac_new {
            Value::int(999)
        } else {
            Value::int(200 + n as i64 - 1)
        },
        if city_new {
            Value::str("city_new")
        } else {
            Value::str(format!("city_{}", n - 1))
        },
    ]);
    (spec, truth)
}

#[test]
fn out_of_domain_cfd_lhs_answer_never_rebuilds_and_agrees() {
    // The new AC value invalidates every CFD's ωX premise: the engine
    // deletes and re-emits their clauses instead of re-encoding.
    let (spec, truth) = cfd_lhs_spec(3, true, true);
    assert_outcomes_match(&spec, &truth, 1, default_config(10));
    let outcome = Resolver::new(default_config(10))
        .resolve(&spec, &mut GroundTruthOracle::with_cap(truth.clone(), 1));
    assert!(outcome.complete);
    assert_eq!(
        outcome.resolved.to_tuple().unwrap().values(),
        truth.values()
    );
}

#[test]
fn invalid_specification_agrees() {
    let s = Schema::new("p", ["a"]).unwrap();
    let e = EntityInstance::new(
        s.clone(),
        vec![Tuple::of([Value::int(1)]), Tuple::of([Value::int(2)])],
    )
    .unwrap();
    let sigma = cr_constraints::parser::parse_currency_file(
        &s,
        "t1[a] = 1 && t2[a] = 2 -> t1 <[a] t2\nt1[a] = 2 && t2[a] = 1 -> t1 <[a] t2\n",
    )
    .unwrap();
    let spec = Specification::without_orders(e, sigma, vec![]);
    let (a, b) = resolve_both(&spec, || Box::new(SilentOracle), default_config(10));
    assert!(!a.valid && !b.valid);
    assert_eq!(a.rounds.len(), b.rounds.len());
}

#[test]
fn parallel_fan_out_matches_serial_resolution() {
    let ds = cr_data::nba::generate_with_sizes(&[27, 41, 67, 81], 13);
    let specs: Vec<Specification> = (0..ds.len()).map(|i| ds.spec(i)).collect();
    let resolver = Resolver::new(default_config(10));
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (parallel, _) = resolve_batch(
        &resolver,
        &specs,
        &|i| GroundTruthOracle::with_cap(ds.truth(i).clone(), 1),
        &SchedulerConfig::with_workers(workers),
    );
    for (i, outcome) in parallel.iter().enumerate() {
        let mut oracle = GroundTruthOracle::with_cap(ds.truth(i).clone(), 1);
        let serial = resolver.resolve(&specs[i], &mut oracle);
        assert_eq!(outcome.resolved, serial.resolved, "entity {i} diverged");
        assert_eq!(outcome.interactions, serial.interactions);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generated Person entities across sizes, seeds, constraint fractions
    /// and answer caps: both paths must agree on the full outcome.
    #[test]
    fn generated_person_specs_agree(
        size in 5usize..60,
        seed in 0u64..500,
        frac_pct in 30u32..=100,
        cap in 1usize..3,
    ) {
        let ds = cr_data::person::generate_with_sizes(&[size], seed);
        let frac = frac_pct as f64 / 100.0;
        let spec = ds.spec(0).with_constraint_fraction(frac, frac, seed);
        let config = default_config(10);
        let (a, b) = resolve_both(
            &spec,
            || Box::new(GroundTruthOracle::with_cap(ds.truth(0).clone(), cap)),
            config,
        );
        prop_assert_eq!(&a.resolved, &b.resolved, "resolved diverged (size {} seed {})", size, seed);
        prop_assert_eq!(a.valid, b.valid);
        prop_assert_eq!(a.complete, b.complete);
        prop_assert_eq!(a.interactions, b.interactions);
        prop_assert_eq!(a.user_values, b.user_values);
        prop_assert_eq!(a.ot_size, b.ot_size);
        prop_assert_eq!(round_trace(&a), round_trace(&b), "per-round progress diverged");
    }

    /// Incremental resolution must equal from-scratch resolution on specs
    /// whose CFDs sit on attributes the user answers with out-of-domain
    /// values — the deletion path.
    #[test]
    fn out_of_domain_cfd_lhs_answers_agree(
        n in 2usize..6,
        ac_coin in 0u32..2,
        city_coin in 0u32..2,
        cap in 1usize..4,
    ) {
        let (spec, truth) = cfd_lhs_spec(n, ac_coin == 1, city_coin == 1);
        let config = default_config(10);
        let (a, b) = resolve_both(
            &spec,
            || Box::new(GroundTruthOracle::with_cap(truth.clone(), cap)),
            config,
        );
        prop_assert_eq!(&a.resolved, &b.resolved, "resolved diverged (n {})", n);
        prop_assert_eq!(a.valid, b.valid);
        prop_assert_eq!(a.complete, b.complete);
        prop_assert_eq!(a.interactions, b.interactions);
        prop_assert_eq!(a.user_values, b.user_values);
        prop_assert_eq!(a.ot_size, b.ot_size);
        prop_assert_eq!(round_trace(&a), round_trace(&b), "per-round progress diverged");
    }

    /// Same for NBA entities (deeper constraint chains, CFD-free).
    #[test]
    fn generated_nba_specs_agree(
        size in 3usize..40,
        seed in 0u64..500,
    ) {
        let ds = cr_data::nba::generate_with_sizes(&[size], seed);
        let config = default_config(10);
        let (a, b) = resolve_both(
            &ds.spec(0),
            || Box::new(GroundTruthOracle::with_cap(ds.truth(0).clone(), 1)),
            config,
        );
        prop_assert_eq!(&a.resolved, &b.resolved, "resolved diverged (size {} seed {})", size, seed);
        prop_assert_eq!(a.interactions, b.interactions);
        prop_assert_eq!(a.ot_size, b.ot_size);
    }
}
