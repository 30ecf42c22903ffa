//! Differential tests for the encoding, whose solvers hold the order
//! axioms as their theory: the engine must resolve exactly like its
//! from-scratch loop, and after every answer its session must agree with
//! the reference CNF (every axiom written out as a clause) of the current
//! specification — on curated specs, the seed datasets, and randomized
//! scenarios from `cr_data::gen` (including out-of-domain and CFD-LHS user
//! answers).
//!
//! Component-level equalities (validity, deduction, possible current
//! values) are checked too: they are what the outcome equality rests on.

use cr_constraints::parser::{parse_cfds, parse_currency_constraint};
use cr_core::encode::{omega_compiled, Conclusion, Origin};
use cr_core::framework::{
    DeductionMethod, GroundTruthOracle, ResolutionConfig, Resolver, UserOracle,
};
use cr_core::rules::true_der;
use cr_core::sat::{Cnf, Lit, Solver, Var};
use cr_core::{
    deduce_order, naive_deduce, true_values_from_orders, CompiledProgram, EncodedSpec,
    ResolutionOutcome, ResolutionSession, Specification,
};
use cr_data::gen::{scenario_from_raw, Scenario, ScenarioConfig};
use cr_maxsat::maximize;
use cr_oracle::omega_reference;
use cr_store::{
    check_session_against_scratch, check_theory_against_reference, reference_cnf, SpecMirror,
};
use cr_types::{AttrId, EntityInstance, Schema, Tuple, TupleId, Value, ValueId, ValueTable};
use proptest::prelude::*;

/// Resolves `spec` on the engine (incremental) and on the from-scratch
/// loop, asserts they agree, and re-runs the engine loop round by round
/// against the per-round oracle
/// ([`assert_rounds_match_reference`]). Returns the engine's outcome.
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
    assert_rounds_match_reference(spec, truth, cap, deduction);
    engine
}

/// Drives a [`ResolutionSession`] through the Fig. 4 loop one public
/// call at a time (`is_valid` → `deduce` → `true_values` → `suggest` →
/// `apply_input`) and, before the first round and after every answer,
/// checks it with [`check_session_against_scratch`]: validity, deduced
/// value orders and true values must equal those read from the reference
/// CNF of the session's current specification.
fn assert_rounds_match_reference(
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
            panic!("session diverged from the reference after {answers} answer rounds: {e}");
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

/// Component-level differential: validity, UP deduction, complete
/// (NaiveSat) deduction, the possible current values of every attribute
/// and the MaxSAT repair must agree between the engine's solvers, which
/// hold the order axioms as their theory, and bare solvers over the
/// reference CNF, which holds them as clauses.
fn assert_components_agree(spec: &Specification) {
    let enc = EncodedSpec::encode(spec);
    let reference = reference_cnf(&enc);
    if let Err(e) = check_theory_against_reference(&enc, &reference) {
        panic!("theory and reference diverged: {e}");
    }
    assert_repairs_agree(spec, &enc, &reference);
}

/// `Suggest`'s repair step (one selector per soft group, each selector
/// implying "these values are tops", then [`maximize`]) over
/// [`EncodedSpec::fresh_solver`] and over a bare solver on `reference`:
/// both optima must keep equally many selectors. The soft groups are one
/// per `(attr, v)` of the value space, one per tuple ("every value of the
/// tuple is current"; which tuples can be current together depends on Σ
/// and Γ), and one per `TrueDer` rule of the UP deduction — the rules
/// `suggest` repairs.
fn assert_repairs_agree(spec: &Specification, enc: &EncodedSpec, reference: &Cnf) {
    let mut groups: Vec<Vec<(AttrId, ValueId)>> = spec
        .schema()
        .attr_ids()
        .flat_map(|attr| enc.space().attr(attr).ids().map(move |v| vec![(attr, v)]))
        .collect();
    groups.extend(spec.entity().tuples().iter().map(|tuple| {
        spec.schema()
            .attr_ids()
            .filter_map(|attr| Some((attr, enc.value_id(attr, tuple.get(attr))?)))
            .collect()
    }));
    if let Some(od) = deduce_order(enc) {
        let known = true_values_from_orders(enc, &od);
        groups.extend(
            true_der(spec, enc, &od, &known)
                .into_iter()
                .map(|rule| rule.lhs.into_iter().chain([rule.rhs]).collect()),
        );
    }
    let kept = |mut solver: Solver| {
        let selectors: Vec<Var> = groups.iter().map(|_| solver.new_var()).collect();
        for (group, sel) in groups.iter().zip(&selectors) {
            for &(attr, v) in group {
                for lit in enc.top_literals(attr, v) {
                    solver.add_clause([sel.negative(), lit]);
                }
            }
        }
        let soft: Vec<[Lit; 1]> = selectors.iter().map(|sel| [sel.positive()]).collect();
        maximize(&mut solver, soft.iter().map(|s| &s[..]))
            .map(|model| selectors.iter().filter(|sel| model[sel.index()]).count())
    };
    assert_eq!(
        kept(enc.fresh_solver()),
        kept(Solver::from_cnf(reference)),
        "repair optima diverged ({} soft groups)",
        groups.len()
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
    // The acceptance bar: engine ≡ scratch ≡ per-round reference oracle on
    // all four seed datasets.
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
    // Wide-domain scenario: the axioms dominate the reference CNF, and the
    // engine resolves like it while adding none of them to its CNF — its
    // solvers hold them as their order theory.
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
    let enc = EncodedSpec::encode(&s.spec);
    let axiom_clauses = reference_cnf(&enc).num_clauses() - enc.cnf().num_clauses();
    assert!(
        axiom_clauses > 10 * enc.cnf().num_clauses(),
        "axioms must dominate the reference CNF on wide domains \
         (axioms {axiom_clauses}, instance clauses {})",
        enc.cnf().num_clauses()
    );
    let engine = assert_paths_agree(&s.spec, &s.truth, 1, DeductionMethod::UnitPropagation);
    assert_eq!(
        engine.injected_axioms, 0,
        "no query adds an axiom clause to the encoding"
    );
}

#[test]
fn wide_domain_components_agree() {
    // The same wide conflicting domain, step by step: every one-shot step
    // over the encoding's theory-holding solvers answers like the reference
    // CNF's axiom clauses.
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
    // matches the reference oracle after every answer.
    let s = cr_data::gen::scenario(&ScenarioConfig {
        seed: 3,
        ..Default::default()
    });
    assert_paths_agree(&s.spec, &s.truth, 1, DeductionMethod::NaiveSat);
}

#[test]
fn session_deduce_order_stays_unit_propagation_after_search() {
    // On this scenario NaiveDeduce finds one pair more than unit
    // propagation. The session's warm solver learns it while probing, so
    // a `DeduceOrder` that read the searched solver's root trail would
    // return it too; the session's never-searched deducer must not.
    let s = cr_data::gen::scenario(&ScenarioConfig {
        seed: 179,
        ..Default::default()
    });
    let enc = EncodedSpec::encode(&s.spec);
    let want = deduce_order(&enc).expect("a valid specification");
    assert_eq!(want.size(), 25);
    assert_eq!(naive_deduce(&enc).expect("valid").size(), 26);

    let mut session = ResolutionSession::new(&ResolutionConfig::default(), &s.spec);
    assert!(session.is_valid());
    session.deduce(DeductionMethod::NaiveSat).expect("valid");
    let got = session
        .deduce(DeductionMethod::UnitPropagation)
        .expect("valid");
    assert_eq!(got.size(), want.size(), "DeduceOrder grew after a search");
    for attr in s.spec.schema().attr_ids() {
        assert!(want.pairs(attr).all(|(lo, hi)| got.contains(attr, lo, hi)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized scenarios (in-domain answers): engine ≡ scratch ≡ the
    /// per-round reference oracle.
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

/// Cell and constant pool of the Σ proptest: nulls, strings, and
/// numerically equal `Int`/`Float` pairs. Indices from 8 on never occur in
/// generated cells (out-of-domain constants).
fn pool(i: u8) -> Value {
    match i {
        0 => Value::Null,
        1 => Value::str("s0"),
        2 => Value::str("s1"),
        3 => Value::str("s2"),
        4 => Value::int(1),
        5 => Value::float(1.0),
        6 => Value::int(2),
        7 => Value::float(2.0),
        8 => Value::str("s9"),
        _ => Value::int(9),
    }
}

/// `pool(i)` as a constraint-language literal.
fn literal(i: u8) -> String {
    match pool(i) {
        Value::Str(s) => format!("{s:?}"),
        Value::Float(f) => format!("{:.1}", f.get()),
        v => v.to_string(),
    }
}

const SIGMA_ARITY: usize = 3;

/// One generated currency constraint: `kind` picks the shape, `a`/`b` the
/// attributes, `c`/`d` the constants and `op` a comparison.
fn sigma_constraint(
    s: &std::sync::Arc<Schema>,
    (kind, a, b, c, d, op): (u8, usize, usize, u8, u8, u8),
) -> cr_constraints::CurrencyConstraint {
    let (a, b) = (format!("a{a}"), format!("a{b}"));
    let (c, d) = (literal(c), literal(d));
    let op = ["=", "!=", "<", "<="][op as usize % 4];
    let text = match kind {
        // Both sides pinned (one attribute).
        0 => format!("t1[{a}] = {c} && t2[{a}] = {d} -> t1 <[{a}] t2"),
        // Both sides pinned over two attributes.
        1 => format!(
            "t1[{a}] = {c} && t1[{b}] = {d} && t2[{a}] = {d} && t2[{b}] = {c} -> t1 <[{b}] t2"
        ),
        // Propagation (the fast path when a ≠ b).
        2 => format!("t1 <[{a}] t2 -> t1 <[{b}] t2"),
        // Binary comparison.
        3 => format!("t1[{a}] {op} t2[{a}] -> t1 <[{b}] t2"),
        // t1 pinned, t2 free.
        4 => format!("t1[{a}] = {c} && t1[{b}] = {d} -> t1 <[{a}] t2"),
        // t1 pinned, t2 filtered by a non-Eq constant.
        5 => format!("t1[{a}] = {c} && t2[{a}] {op} {d} -> t1 <[{a}] t2"),
        // Constants plus an order premise.
        6 => format!("t1[{a}] = {c} && t2[{a}] = {d} && t1 <[{b}] t2 -> t1 <[{a}] t2"),
        // Two Eq constants on one attribute of one side.
        _ => format!("t1[{a}] = {c} && t1[{a}] = {d} && t2[{a}] = {c} -> t1 <[{a}] t2"),
    };
    parse_currency_constraint(s, &text).unwrap_or_else(|e| panic!("{text}: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Σ emission with projection classes and pinned lookup produces
    /// exactly the reference Ω(Se), instance for instance and in order,
    /// before and after a value revision (the entity a session re-encodes
    /// after a correction). Covers nulls, duplicate projections,
    /// numerically equal `Int`/`Float` cells against string and numeric
    /// constants, out-of-domain constants, constants missing from the
    /// table, entities without a table and entities with pushed
    /// (table-less) values.
    #[test]
    fn class_cached_sigma_emission_matches_the_reference(
        rows in proptest::collection::vec(proptest::collection::vec(0u8..8, SIGMA_ARITY), 1..9),
        constraints in proptest::collection::vec(
            (0u8..8, 0usize..SIGMA_ARITY, 0usize..SIGMA_ARITY, 1u8..10, 1u8..10, 0u8..4),
            1..14,
        ),
        in_table in proptest::collection::vec(0u8..2, 10),
        table_mode in 0u8..3,
        pushed in proptest::collection::vec(0u8..10, SIGMA_ARITY),
        revision in (0usize..8, 0usize..SIGMA_ARITY, 0u8..10),
    ) {
        let s = Schema::new("p", ["a0", "a1", "a2"]).unwrap();
        let tuples: Vec<Tuple> =
            rows.iter().map(|r| Tuple::of(r.iter().map(|&i| pool(i)))).collect();
        let sigma: Vec<_> = constraints.iter().map(|&c| sigma_constraint(&s, c)).collect();
        let mut table = ValueTable::new();
        table.intern_tuples(tuples.iter());
        // Some pool constants join the table without occurring in the
        // entity; the others stay out of it.
        for (i, &keep) in in_table.iter().enumerate() {
            if keep == 1 {
                table.intern(&pool(i as u8));
            }
        }
        let mut entity = if table_mode == 0 {
            EntityInstance::new(s.clone(), tuples).unwrap()
        } else {
            EntityInstance::with_table(s.clone(), tuples, &table).unwrap()
        };
        if table_mode == 2 {
            entity.push(Tuple::of(pushed.iter().map(|&i| pool(i)))).unwrap();
        }
        let spec = Specification::without_orders(entity, sigma, vec![]);
        spec.set_compiled_program(std::sync::Arc::new(CompiledProgram::compile(
            spec.sigma(),
            spec.gamma(),
            (table_mode != 0).then_some(&table),
        )));
        let mut revised = spec.clone();
        let (tuple, attr, value) = revision;
        let tuple = TupleId((tuple % revised.entity().len()) as u32);
        revised.replace_value(tuple, AttrId(attr as u16), pool(value));
        for sp in [&spec, &revised] {
            prop_assert_eq!(omega_compiled(sp), omega_reference(sp));
        }
    }
}
