//! Push-based correction ingestion: session ≡ from-scratch re-resolution
//! on the post-revision specification.
//!
//! Most tests drive a [`ResolutionSession`] through
//! [`resolve_with_revisions_checked`], which — after **every** revision
//! batch — encodes the mirrored post-revision specification from scratch
//! and asserts that validity, the deduced value orders and the extracted
//! true values coincide with the session's engine; the rest drive the
//! session API by hand and run the same check. The deterministic cases
//! cover corrections that undo a derivation (a fired CFD, a load-bearing
//! order, an accepted answer), values that vanish from and return to the
//! instance, and the stale-engine interleavings: revisions followed by an
//! answer before any query, and a restore from a snapshot.

use cr_constraints::parser::{parse_cfd_file, parse_currency_file};
use cr_core::framework::{GroundTruthOracle, ResolutionConfig, Resolver};
use cr_core::ingest::{ResolutionSession, Revision, ScriptedRevisions};
use cr_core::spec::UserInput;
use cr_core::Specification;
use cr_oracle::resolve_with_revisions_checked;
use cr_types::{AttrId, EntityInstance, Schema, Tuple, TupleId, Value};

/// A spec whose CFD *fires* automatically at round 0 (status chain → AC
/// order → ωX satisfied → city derived) while `job` stays ambiguous, so
/// resolution needs at least one interaction round — the window in which
/// upstream corrections arrive.
fn firing_cfd_spec() -> (Specification, Tuple) {
    let s = Schema::new("p", ["status", "AC", "city", "job"]).unwrap();
    let e = EntityInstance::new(
        s.clone(),
        vec![
            Tuple::of([
                Value::str("working"),
                Value::int(1),
                Value::str("NY"),
                Value::str("nurse"),
            ]),
            Tuple::of([
                Value::str("retired"),
                Value::int(2),
                Value::str("LA"),
                Value::str("n/a"),
            ]),
        ],
    )
    .unwrap();
    let sigma = parse_currency_file(
        &s,
        r#"
        phi1: t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2
        phi2: t1 <[status] t2 -> t1 <[AC] t2
        "#,
    )
    .unwrap();
    let gamma = parse_cfd_file(&s, "psi1: AC = 2 -> city = \"LA\"").unwrap();
    let truth = Tuple::of([
        Value::str("retired"),
        Value::int(2),
        Value::str("LA"),
        Value::str("n/a"),
    ]);
    (Specification::without_orders(e, sigma, gamma), truth)
}

fn config() -> ResolutionConfig {
    ResolutionConfig::default()
}

#[test]
fn retracting_a_fired_cfd_matches_scratch() {
    let (spec, truth) = firing_cfd_spec();
    let mut oracle = GroundTruthOracle::new(truth);
    let mut source = ScriptedRevisions::new(vec![(1, Revision::RetractCfd { cfd: 0 })]);
    let checked = resolve_with_revisions_checked(&config(), &spec, &mut oracle, &mut source)
        .expect("replay must match scratch");
    assert!(checked.valid);
    assert!(checked.complete, "oracle answers the re-opened attributes");
    assert_eq!(checked.revisions.events, 1);
    assert!(checked.checks >= 2);
}

#[test]
fn withdrawing_a_load_bearing_order_reopens_the_attribute() {
    let (mut_spec, truth) = firing_cfd_spec();
    // Assert the city order explicitly instead of relying on the CFD, then
    // withdraw it mid-resolution.
    let city = mut_spec.schema().attr_id("city").unwrap();
    let mut orders = cr_core::PartialOrders::empty(mut_spec.schema().arity());
    orders.add(city, TupleId(0), TupleId(1));
    let spec = Specification::new(
        mut_spec.entity().clone(),
        orders,
        mut_spec.sigma().to_vec(),
        vec![], // no CFD: the explicit order carries the city derivation
    );
    let mut oracle = GroundTruthOracle::new(truth);
    let mut source = ScriptedRevisions::new(vec![(
        1,
        Revision::WithdrawOrder {
            attr: city,
            lo: TupleId(0),
            hi: TupleId(1),
        },
    )]);
    let checked = resolve_with_revisions_checked(&config(), &spec, &mut oracle, &mut source)
        .expect("replay must match scratch");
    assert!(checked.valid);
    assert!(checked.complete);
}

#[test]
fn value_replacement_shared_new_and_null_all_match_scratch() {
    let (spec, truth) = firing_cfd_spec();
    let city = spec.schema().attr_id("city").unwrap();
    let job = spec.schema().attr_id("job").unwrap();
    for (label, value) in [
        ("shared", Value::str("LA")),    // t0.city := LA (city space shrinks)
        ("fresh", Value::str("Boston")), // brand-new value mid-resolution
        ("null", Value::Null),           // the source withdraws the cell
    ] {
        let mut oracle = GroundTruthOracle::new(truth.clone());
        let mut source = ScriptedRevisions::new(vec![(
            1,
            Revision::ReplaceValue {
                tuple: TupleId(0),
                attr: city,
                value,
            },
        )]);
        let checked = resolve_with_revisions_checked(&config(), &spec, &mut oracle, &mut source)
            .unwrap_or_else(|e| panic!("{label}: replay diverged: {e}"));
        assert!(checked.valid, "{label}");
        assert_eq!(checked.revisions.events, 1, "{label}");
    }
    // Replacing the ambiguous job value away entirely: the attribute
    // settles without asking the user (its space collapses to one live
    // value), matching scratch.
    let mut oracle = GroundTruthOracle::new(truth);
    let mut source = ScriptedRevisions::new(vec![(
        1,
        Revision::ReplaceValue {
            tuple: TupleId(0),
            attr: job,
            value: Value::str("n/a"),
        },
    )]);
    let checked = resolve_with_revisions_checked(&config(), &spec, &mut oracle, &mut source)
        .expect("job replacement must match scratch");
    assert!(checked.valid);
}

#[test]
fn withdrawing_an_answer_reopens_it_and_matches_scratch() {
    let (spec, truth) = firing_cfd_spec();
    let job = spec.schema().attr_id("job").unwrap();
    // Round 0: the oracle answers `job` (the only ambiguous attr);
    // round 1 withdraws that answer — the engine must re-open the
    // attribute exactly like a spec that never got the answer, and the
    // oracle then re-answers.
    let to = TupleId(spec.entity().len() as u32);
    let mut oracle = GroundTruthOracle::new(truth);
    let mut source = ScriptedRevisions::new(vec![(
        1,
        Revision::WithdrawAnswer {
            attr: job,
            tuple: to,
        },
    )]);
    let checked = resolve_with_revisions_checked(&config(), &spec, &mut oracle, &mut source)
        .expect("answer withdrawal must match scratch");
    assert!(checked.valid);
    assert!(
        checked.complete,
        "the oracle re-answers after the withdrawal"
    );
    assert!(
        checked.interactions >= 2,
        "withdrawal forces a second interaction"
    );
}

#[test]
fn resolve_with_revisions_reports_telemetry_and_agrees_with_checked() {
    let (spec, truth) = firing_cfd_spec();
    let events = vec![(1, Revision::RetractCfd { cfd: 0 })];
    let mut oracle = GroundTruthOracle::new(truth.clone());
    let mut source = ScriptedRevisions::new(events.clone());
    let outcome = Resolver::new(config()).resolve_with_revisions(&spec, &mut oracle, &mut source);
    assert!(outcome.valid);
    assert!(outcome.complete);
    assert_eq!(outcome.revisions.events, 1);
    assert!(
        outcome.rounds.iter().any(|r| r.revisions.events > 0),
        "per-round revision telemetry must be stamped"
    );
    // The production path resolves to the same tuple as the checked one.
    let mut oracle2 = GroundTruthOracle::new(truth);
    let mut source2 = ScriptedRevisions::new(events);
    let checked = resolve_with_revisions_checked(&config(), &spec, &mut oracle2, &mut source2)
        .expect("checked replay");
    assert_eq!(outcome.resolved, checked.resolved);
    assert_eq!(outcome.interactions, checked.interactions);
}

#[test]
fn retired_values_drop_out_of_candidates_and_suggestions() {
    // Two city values; revising the only "NY" cell away removes NY from
    // the instance: the attribute then has a single value and settles
    // without any user interaction — exactly like the revised spec from
    // scratch.
    let s = Schema::new("p", ["name", "city"]).unwrap();
    let e = EntityInstance::new(
        s.clone(),
        vec![
            Tuple::of([Value::str("X"), Value::str("NY")]),
            Tuple::of([Value::str("X"), Value::str("LA")]),
        ],
    )
    .unwrap();
    let spec = Specification::without_orders(e, vec![], vec![]);
    let city = s.attr_id("city").unwrap();
    let mut oracle = cr_core::framework::SilentOracle;
    let mut source = ScriptedRevisions::new(vec![(
        0,
        Revision::ReplaceValue {
            tuple: TupleId(0),
            attr: city,
            value: Value::str("LA"),
        },
    )]);
    let checked = resolve_with_revisions_checked(&config(), &spec, &mut oracle, &mut source)
        .expect("retirement must match scratch");
    assert!(checked.valid);
    assert!(
        checked.complete,
        "after NY goes, LA is the unique value: {:?}",
        checked.resolved
    );
    assert_eq!(checked.resolved.get(city), Some(&Value::str("LA")));
}

#[test]
fn a_twin_that_skipped_an_event_is_caught_and_named() {
    // The batched ≡ sequential ≡ scratch check builds its scratch side
    // once and compares both sessions with it: a twin that missed the CFD
    // retraction still deduces the CFD's city order, and the error must
    // say which session diverged.
    use cr_store::{check_sessions_against_scratch, SpecMirror};
    let (spec, _) = firing_cfd_spec();
    let mut batched = ResolutionSession::new(&config(), &spec);
    let mut twin = ResolutionSession::new(&config(), &spec);
    let mut mirror = SpecMirror::new(&spec);
    let retract = Revision::RetractCfd { cfd: 0 };
    batched
        .absorb_revision_batch(std::slice::from_ref(&retract))
        .expect("well-formed");
    mirror.apply(&retract);
    check_sessions_against_scratch(&mirror, &mut [("batched", &mut batched)])
        .expect("the session that absorbed the event matches scratch");
    let err = check_sessions_against_scratch(
        &mirror,
        &mut [("batched", &mut batched), ("sequential", &mut twin)],
    )
    .expect_err("the twin skipped the retraction");
    assert!(
        err.starts_with("sequential session: "),
        "error must name the twin: {err}"
    );
    assert!(err.contains("deduced orders diverged"), "{err}");
}

#[test]
fn revived_value_returns_to_the_query_surface() {
    // Remove LA (replace it with NY), then replace it back: the session
    // must agree with scratch at both steps — including the revival, where
    // LA re-enters the candidates. Driven manually on the public session
    // API: the resolution loop would settle after the removal and never
    // see the revival.
    use cr_core::framework::DeductionMethod;
    use cr_store::{check_session_against_scratch, SpecMirror};
    let s = Schema::new("p", ["name", "city"]).unwrap();
    let e = EntityInstance::new(
        s.clone(),
        vec![
            Tuple::of([Value::str("X"), Value::str("NY")]),
            Tuple::of([Value::str("X"), Value::str("LA")]),
        ],
    )
    .unwrap();
    let spec = Specification::without_orders(e, vec![], vec![]);
    let city = s.attr_id("city").unwrap();
    let mut session = ResolutionSession::new(&config(), &spec);
    let mut mirror = SpecMirror::new(&spec);

    let retire = Revision::ReplaceValue {
        tuple: TupleId(1),
        attr: city,
        value: Value::str("NY"),
    };
    session
        .absorb_revision_batch(std::slice::from_ref(&retire))
        .expect("retirement is well-formed");
    mirror.apply(&retire);
    check_session_against_scratch(&mut session, &mirror).expect("retirement step");
    assert!(session.is_valid());
    let od = session.deduce(DeductionMethod::UnitPropagation).unwrap();
    assert_eq!(
        session.true_values(&od).get(city),
        Some(&Value::str("NY")),
        "NY is the unique city after LA goes"
    );

    let revive = Revision::ReplaceValue {
        tuple: TupleId(1),
        attr: city,
        value: Value::str("LA"),
    };
    session
        .absorb_revision_batch(std::slice::from_ref(&revive))
        .expect("revival is well-formed");
    mirror.apply(&revive);
    check_session_against_scratch(&mut session, &mirror).expect("revival step");
    let od = session.deduce(DeductionMethod::UnitPropagation).unwrap();
    assert_eq!(
        session.true_values(&od).get(city),
        None,
        "LA is back: the city is ambiguous again"
    );
    assert_eq!(session.revision_telemetry().events, 2);
}

#[test]
fn nulling_every_cell_of_an_attribute_interns_null_late_and_matches_scratch() {
    // Regression (review finding): the attribute has no nulls initially,
    // so its space lacks a null id; revising *every* cell to null leaves a
    // from-scratch encode of the revised spec with space {null}, which
    // trivially resolves the attribute to Null, and the session must
    // agree.
    let s = Schema::new("p", ["name", "city"]).unwrap();
    let e = EntityInstance::new(
        s.clone(),
        vec![
            Tuple::of([Value::str("X"), Value::str("NY")]),
            Tuple::of([Value::str("X"), Value::str("LA")]),
        ],
    )
    .unwrap();
    let spec = Specification::without_orders(e, vec![], vec![]);
    let city = s.attr_id("city").unwrap();
    let mut oracle = cr_core::framework::SilentOracle;
    let mut source = ScriptedRevisions::new(vec![
        (
            0,
            Revision::ReplaceValue {
                tuple: TupleId(0),
                attr: city,
                value: Value::Null,
            },
        ),
        (
            0,
            Revision::ReplaceValue {
                tuple: TupleId(1),
                attr: city,
                value: Value::Null,
            },
        ),
    ]);
    let checked = resolve_with_revisions_checked(&config(), &spec, &mut oracle, &mut source)
        .expect("an all-null attribute must match scratch");
    assert!(checked.valid);
    assert!(checked.complete);
    assert_eq!(checked.resolved.get(city), Some(&Value::Null));
}

#[test]
fn revisions_that_invalidate_the_spec_agree_with_scratch() {
    // Conflicting base orders at the value level, introduced by a value
    // revision: t0 ≺ t1 and t1 ≺ t0 on `a` are fine while the values
    // differ pairwise consistently... make them contradict by revising a
    // value so both pairs map to the same value pair in opposite
    // directions.
    let s = Schema::new("p", ["a"]).unwrap();
    let e = EntityInstance::new(
        s.clone(),
        vec![
            Tuple::of([Value::int(1)]),
            Tuple::of([Value::int(2)]),
            Tuple::of([Value::int(3)]),
        ],
    )
    .unwrap();
    let mut orders = cr_core::PartialOrders::empty(1);
    orders.add(AttrId(0), TupleId(0), TupleId(1)); // 1 ≺ 2
    orders.add(AttrId(0), TupleId(1), TupleId(2)); // 2 ≺ 3
    let spec = Specification::new(e, orders, vec![], vec![]);
    // Revise t2.a from 3 to 1: now 2 ≺ 1 joins 1 ≺ 2 — a cycle.
    let mut oracle = cr_core::framework::SilentOracle;
    let mut source = ScriptedRevisions::new(vec![(
        0,
        Revision::ReplaceValue {
            tuple: TupleId(2),
            attr: AttrId(0),
            value: Value::int(1),
        },
    )]);
    let checked = resolve_with_revisions_checked(&config(), &spec, &mut oracle, &mut source)
        .expect("replay and scratch must agree on invalidity");
    assert!(
        !checked.valid,
        "the revision introduces a value-level cycle"
    );
}

#[test]
fn randomized_timelines_replay_equals_scratch() {
    // Seeded scenarios × seeded revision timelines, checked after every
    // batch. Covers CFD retraction, order withdrawal, value replacement
    // (shared / fresh / null) and answer withdrawal interleaved with
    // ordinary (including out-of-domain) oracle answers.
    let mut applied = 0;
    for seed in 0..12u64 {
        let scenario = cr_data::gen::scenario(&cr_data::gen::ScenarioConfig {
            seed,
            attrs: 4,
            tuples: 8,
            domain: 6,
            sigma: 5,
            gamma: 2,
            order_density: 0.2,
            conflict_density: 0.7,
            null_density: 0.05,
            new_value_answers: seed % 3 == 0,
        });
        let mut source = cr_data::gen::revision_timeline(
            &scenario.spec,
            &cr_data::gen::RevisionTimelineConfig {
                seed: seed.wrapping_mul(31).wrapping_add(7),
                events: 5,
                rounds: 3,
                withdraw_answer_rounds: if seed % 2 == 0 { vec![2] } else { vec![] },
                ..Default::default()
            },
        );
        let mut oracle = GroundTruthOracle::with_cap(scenario.truth.clone(), 1);
        let checked =
            resolve_with_revisions_checked(&config(), &scenario.spec, &mut oracle, &mut source)
                .unwrap_or_else(|e| panic!("seed {seed}: replay diverged from scratch: {e}"));
        applied += checked.revisions.events;
    }
    assert!(
        applied > 0,
        "the randomized timelines must apply corrections"
    );
}

#[test]
fn empty_timeline_is_a_plain_resolution_with_a_final_check() {
    // A revision source that never delivers anything must behave exactly
    // like the plain interactive loop — zero events, zero batches, and the
    // final scratch check still runs.
    let (spec, truth) = firing_cfd_spec();
    let mut oracle = GroundTruthOracle::new(truth);
    let mut source = ScriptedRevisions::new(vec![]);
    let checked = resolve_with_revisions_checked(&config(), &spec, &mut oracle, &mut source)
        .expect("empty timeline must match scratch");
    assert!(checked.valid);
    assert!(checked.complete);
    assert_eq!(checked.revisions.events, 0);
    assert_eq!(checked.revisions.batches, 0);
    assert!(
        checked.checks >= 1,
        "the closing equivalence check always runs"
    );
}

#[test]
fn batch_targeting_an_already_retired_value_matches_scratch() {
    // One round-1 batch: the first event removes "NY" (the only cell
    // carrying it is replaced), the second — in the same batch — writes
    // it back. The session must never diverge from scratch.
    let (spec, truth) = firing_cfd_spec();
    let city = spec.schema().attr_id("city").unwrap();
    let mut oracle = GroundTruthOracle::new(truth);
    let mut source = ScriptedRevisions::new(vec![
        (
            1,
            Revision::ReplaceValue {
                tuple: TupleId(0),
                attr: city,
                value: Value::str("LA"),
            },
        ),
        (
            1,
            Revision::ReplaceValue {
                tuple: TupleId(0),
                attr: city,
                value: Value::str("NY"),
            },
        ),
    ]);
    let checked = resolve_with_revisions_checked(&config(), &spec, &mut oracle, &mut source)
        .expect("retire-then-revive must match scratch");
    assert!(checked.valid);
    assert!(checked.complete);
    assert_eq!(checked.revisions.events, 2);
}

#[test]
fn withdrawing_a_never_asked_answer_is_a_noop() {
    // The round-1 batch first nulls t0.job, then withdraws the "answer" on
    // that now-null cell: no order pairs rank t0 on job and the cell is
    // already null, so the withdrawal is a permissive no-op. The run must
    // end exactly where a run with only the nulling event ends — same
    // resolution, one extra (no-op) event.
    let (spec, truth) = firing_cfd_spec();
    let job = spec.schema().attr_id("job").unwrap();
    let null_job = Revision::ReplaceValue {
        tuple: TupleId(0),
        attr: job,
        value: Value::Null,
    };
    let mut oracle = GroundTruthOracle::new(truth.clone());
    let mut source = ScriptedRevisions::new(vec![
        (1, null_job.clone()),
        (
            1,
            Revision::WithdrawAnswer {
                attr: job,
                tuple: TupleId(0),
            },
        ),
    ]);
    let checked = resolve_with_revisions_checked(&config(), &spec, &mut oracle, &mut source)
        .expect("no-op withdrawal must match scratch");
    assert!(checked.valid);
    assert!(checked.complete);

    let mut oracle2 = GroundTruthOracle::new(truth);
    let mut baseline_src = ScriptedRevisions::new(vec![(1, null_job)]);
    let baseline =
        resolve_with_revisions_checked(&config(), &spec, &mut oracle2, &mut baseline_src)
            .expect("baseline");
    assert_eq!(checked.resolved, baseline.resolved);
    assert_eq!(checked.interactions, baseline.interactions);
    assert_eq!(checked.revisions.events, baseline.revisions.events + 1);
}

/// A session rebuilt from a snapshot reuses the base specification's Σ/Γ
/// and compiled program instead of deep-copying the constraints and
/// compiling a fresh, table-less program. Pointer identity, not a
/// `compile_count` delta: the global counter races with parallel tests.
#[test]
fn restored_session_shares_the_base_program_and_constraints() {
    let (spec, _) = firing_cfd_spec();
    let job = spec.schema().attr_id("job").unwrap();
    let mut session = ResolutionSession::new(&config(), &spec);
    session.apply_input(&UserInput::single(job, Value::str("n/a")));
    session
        .absorb_revision_batch(&[Revision::ReplaceValue {
            tuple: TupleId(0),
            attr: spec.schema().attr_id("city").unwrap(),
            value: Value::str("SF"),
        }])
        .unwrap();
    let restored = ResolutionSession::restore(&spec, session.state()).unwrap();
    let current = restored.current();
    assert!(std::sync::Arc::ptr_eq(
        current.compiled_program(),
        spec.compiled_program()
    ));
    assert!(
        std::ptr::eq(current.sigma(), spec.sigma()),
        "Σ shared, not copied"
    );
    assert!(
        std::ptr::eq(current.gamma(), spec.gamma()),
        "Γ shared, not copied"
    );
    assert_eq!(current.entity().len(), session.current().entity().len());
}

/// Regression: a session opened with the public `ResolutionSession::new`
/// absorbs corrections like any other. Withdrawing the only base order
/// behind a deduction un-derives it, and a later value replacement keeps
/// it withdrawn.
#[test]
fn a_plain_session_absorbs_an_order_withdrawal_then_a_replacement() {
    use cr_core::framework::DeductionMethod;
    use cr_store::{check_session_against_scratch, SpecMirror};
    let s = Schema::new("p", ["city", "name"]).unwrap();
    let e = EntityInstance::new(
        s.clone(),
        vec![
            Tuple::of([Value::str("NY"), Value::str("X")]),
            Tuple::of([Value::str("LA"), Value::str("X")]),
        ],
    )
    .unwrap();
    let city = s.attr_id("city").unwrap();
    let name = s.attr_id("name").unwrap();
    let mut orders = cr_core::PartialOrders::empty(2);
    orders.add(city, TupleId(0), TupleId(1));
    let spec = Specification::new(e, orders, vec![], vec![]);
    let mut session = ResolutionSession::new(&config(), &spec);
    let mut mirror = SpecMirror::new(&spec);
    check_session_against_scratch(&mut session, &mirror).expect("before the corrections");
    let od = session.deduce(DeductionMethod::UnitPropagation).unwrap();
    assert_eq!(session.true_values(&od).get(city), Some(&Value::str("LA")));

    for rev in [
        Revision::WithdrawOrder {
            attr: city,
            lo: TupleId(0),
            hi: TupleId(1),
        },
        Revision::ReplaceValue {
            tuple: TupleId(0),
            attr: name,
            value: Value::str("Y"),
        },
    ] {
        let (report, applied) = session
            .absorb_revision_batch(std::slice::from_ref(&rev))
            .expect("well-formed");
        assert_eq!((report.applied, applied), (1, vec![true]), "{rev:?}");
        mirror.apply(&rev);
        check_session_against_scratch(&mut session, &mirror)
            .unwrap_or_else(|e| panic!("after {rev:?}: {e}"));
    }
    let od = session.deduce(DeductionMethod::UnitPropagation).unwrap();
    assert_eq!(
        session.true_values(&od).get(city),
        None,
        "the city is ambiguous again"
    );
}

/// The stale-engine path, pinned down: two revision batches, then an
/// answer before any query, then a query. The session under test never
/// queries between the steps, so its `apply_input` rebuilds the engine;
/// a twin absorbing the same steps is checked against scratch after each
/// one, and the session is checked at the end.
#[test]
fn revisions_then_an_answer_before_any_query_match_scratch() {
    use cr_store::{check_session_against_scratch, diff_logical_states, SpecMirror};
    let (spec, _) = firing_cfd_spec();
    let attr = |n: &str| spec.schema().attr_id(n).unwrap();
    let batches = [
        vec![
            Revision::RetractCfd { cfd: 0 },
            Revision::ReplaceValue {
                tuple: TupleId(0),
                attr: attr("job"),
                value: Value::str("clerk"),
            },
        ],
        vec![Revision::ReplaceValue {
            tuple: TupleId(1),
            attr: attr("city"),
            value: Value::str("SF"),
        }],
    ];
    // An out-of-domain AC answer grows the attribute the retired CFD
    // reads: the extension must not re-emit it.
    let mut input = UserInput::single(attr("AC"), Value::int(3));
    input.values.insert(attr("job"), Value::str("n/a"));

    let mut session = ResolutionSession::new(&config(), &spec);
    let mut twin = ResolutionSession::new(&config(), &spec);
    let mut mirror = SpecMirror::new(&spec);
    for (i, batch) in batches.iter().enumerate() {
        session.absorb_revision_batch(batch).expect("well-formed");
        twin.absorb_revision_batch(batch).expect("well-formed");
        for rev in batch {
            mirror.apply(rev);
        }
        check_session_against_scratch(&mut twin, &mirror)
            .unwrap_or_else(|e| panic!("twin after batch {i}: {e}"));
    }
    session.apply_input(&input);
    twin.apply_input(&input);
    mirror.apply_input(&input);
    check_session_against_scratch(&mut twin, &mirror).expect("twin after the answer");
    check_session_against_scratch(&mut session, &mirror).expect("session after the answer");
    diff_logical_states(&session.state(), &twin.state()).expect("same logical state");
    assert_eq!(session.epoch(), twin.epoch());
}

/// A restore from a snapshot holding a retired CFD and a replaced value,
/// then a query, matches scratch — and so does a later answer.
#[test]
fn restore_with_a_retired_cfd_and_a_replaced_value_matches_scratch() {
    use cr_store::{check_session_against_scratch, SpecMirror};
    let (spec, _) = firing_cfd_spec();
    let attr = |n: &str| spec.schema().attr_id(n).unwrap();
    let batch = [
        Revision::RetractCfd { cfd: 0 },
        Revision::ReplaceValue {
            tuple: TupleId(0),
            attr: attr("city"),
            value: Value::str("SF"),
        },
    ];
    let mut session = ResolutionSession::new(&config(), &spec);
    let mut mirror = SpecMirror::new(&spec);
    session.absorb_revision_batch(&batch).expect("well-formed");
    for rev in &batch {
        mirror.apply(rev);
    }
    let state = session.state();
    assert_eq!(state.retired_cfds, vec![0]);
    let mut restored = ResolutionSession::restore(&spec, state).expect("consistent snapshot");
    check_session_against_scratch(&mut restored, &mirror).expect("restored session");

    let input = UserInput::single(attr("city"), Value::str("LA"));
    restored.apply_input(&input);
    mirror.apply_input(&input);
    check_session_against_scratch(&mut restored, &mirror).expect("restored session, answered");
}
