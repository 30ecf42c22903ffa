//! Batched ingestion and epochs: deterministic differentials.
//!
//! `absorb_revision_batch` seals one epoch per batch that applied at
//! least one event and none for an empty or all-degraded batch. These
//! tests pin that down one scenario at a time, next to the
//! duplicate-redelivery idempotence of re-opening corrections (the
//! double-count regression). Randomized batch-partition
//! equivalence lives in `tests/causal_proptest.rs` and
//! `tests/revision_proptest.rs` at the workspace level.

use cr_constraints::parser::{parse_cfd_file, parse_currency_file};
use cr_core::causal::{CausalRevision, ScriptedCausalRevisions};
use cr_core::framework::{DeductionMethod, GroundTruthOracle, ResolutionConfig};
use cr_core::ingest::{ResolutionSession, Revision};
use cr_core::Specification;
use cr_data::chaos::{chaos, ChaosConfig};
use cr_oracle::{resolve_causal_checked, CausalReplayConfig};
use cr_store::{check_session_against_scratch, SpecMirror};
use cr_types::{EntityInstance, Schema, SourceClock, SourceId, Tuple, TupleId, Value};

/// The PR 5 fixture: the CFD fires automatically (AC resolves to 2 through
/// the currency constraints, so `city` resolves to "LA") while `job` stays
/// ambiguous.
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

/// A minimal unconstrained spec for manual causal driving.
fn two_city_spec() -> Specification {
    let s = Schema::new("p", ["name", "city"]).unwrap();
    let e = EntityInstance::new(
        s.clone(),
        vec![
            Tuple::of([Value::str("X"), Value::str("NY")]),
            Tuple::of([Value::str("X"), Value::str("LA")]),
        ],
    )
    .unwrap();
    Specification::without_orders(e, vec![], vec![])
}

fn config() -> ResolutionConfig {
    ResolutionConfig::default()
}

/// A revision batch is one epoch: the epoch rises by exactly one per
/// applied batch, and the sealed state un-resolves what the CFD retraction
/// took away and matches scratch.
#[test]
fn a_batch_advances_one_epoch_and_matches_scratch() {
    let (spec, _) = firing_cfd_spec();
    let city = spec.schema().attr_id("city").unwrap();
    let mut session = ResolutionSession::new(&ResolutionConfig::default(), &spec);

    // Settled pre-batch reads: the CFD fires, so `city` resolves.
    let pre_epoch = session.epoch();
    assert!(session.is_valid());
    let pre_od = session
        .deduce(DeductionMethod::UnitPropagation)
        .expect("valid spec");
    assert_eq!(
        session.true_values(&pre_od).get(city),
        Some(&Value::str("LA")),
        "psi1 resolves city"
    );

    // Retracting the CFD un-resolves `city`.
    let batch = [
        Revision::RetractCfd { cfd: 0 },
        Revision::ReplaceValue {
            tuple: TupleId(0),
            attr: city,
            value: Value::str("Boston"),
        },
    ];
    let (report, applied) = session
        .absorb_revision_batch(&batch)
        .expect("batch applies");
    assert_eq!(applied, vec![true, true]);
    assert_eq!(report.applied, 2);
    assert_eq!(report.epoch, session.epoch());
    assert_eq!(
        session.epoch().0,
        pre_epoch.0 + 1,
        "one batch, one epoch bump"
    );

    assert!(session.is_valid());
    let post_od = session
        .deduce(DeductionMethod::UnitPropagation)
        .expect("still valid");
    assert_eq!(
        session.true_values(&post_od).get(city),
        None,
        "the CFD retraction un-resolves city"
    );

    let mut mirror = SpecMirror::new(&spec);
    for rev in &batch {
        mirror.apply(rev);
    }
    check_session_against_scratch(&mut session, &mirror).expect("sealed state ≡ scratch");

    // A second applied batch is a second epoch.
    let (report, _) = session
        .absorb_revision_batch(&[Revision::ReplaceValue {
            tuple: TupleId(1),
            attr: city,
            value: Value::str("SF"),
        }])
        .expect("batch applies");
    assert_eq!(
        report.epoch.0,
        pre_epoch.0 + 2,
        "one epoch per applied batch"
    );
}

/// An empty or all-degraded batch applies nothing and leaves the epoch
/// where it was; undrained competing cells survive it and drain exactly
/// once.
#[test]
fn degraded_batches_keep_the_epoch_and_competing_cells_drain_once() {
    let spec = two_city_spec();
    let city = spec.schema().attr_id("city").unwrap();
    let mut s1 = SourceClock::new(SourceId(1));
    let mut s2 = SourceClock::new(SourceId(2));
    let a = CausalRevision {
        stamp: s1.stamp(1),
        rev: Revision::ReplaceValue {
            tuple: TupleId(0),
            attr: city,
            value: Value::str("SF"),
        },
    };
    let b = CausalRevision {
        stamp: s2.stamp(2),
        rev: Revision::ReplaceValue {
            tuple: TupleId(0),
            attr: city,
            value: Value::str("Boston"),
        },
    };

    // Concurrent writes leave one undrained competing cell.
    let mut session = ResolutionSession::new(&ResolutionConfig::default(), &spec);
    session.ingest_causal(vec![a, b]).unwrap();
    let sealed_before = session.epoch();

    let (report, applied) = session.absorb_revision_batch(&[]).unwrap();
    assert_eq!(
        (report.events, report.applied),
        (0, 0),
        "an empty batch applies nothing"
    );
    assert!(applied.is_empty());
    assert_eq!(
        session.epoch(),
        sealed_before,
        "an empty batch does not advance the epoch"
    );

    let bad = [
        Revision::RetractCfd { cfd: 3 },
        Revision::ReplaceValue {
            tuple: TupleId(9),
            attr: city,
            value: Value::Null,
        },
    ];
    let (report, applied) = session.absorb_revision_batch(&bad).unwrap();
    assert_eq!(
        (report.events, report.applied),
        (2, 0),
        "both events degrade"
    );
    assert_eq!(applied, vec![false, false]);
    assert_eq!(report.epoch, sealed_before);
    assert_eq!(
        session.epoch(),
        sealed_before,
        "an all-degraded batch does not advance the epoch"
    );

    let drained = session.take_competing();
    assert_eq!(drained.len(), 1, "the concurrent cell survives the batches");
    assert_eq!((drained[0].tuple, drained[0].attr), (TupleId(0), city));
    assert!(session.take_competing().is_empty(), "drained exactly once");
}

/// The double-count regression: redelivering the correction that re-opened
/// an accepted answer — in the same poll and again in a later poll — is
/// dropped by `(source, hlc)` dedup. It must neither re-open the attribute
/// again nor double-bump `reopened`/the competing-cell buffer, and the
/// final resolution must match the duplicate-free run.
#[test]
fn duplicate_redelivery_of_a_reopening_correction_is_idempotent() {
    let (spec, truth) = firing_cfd_spec();
    let job = spec.schema().attr_id("job").unwrap();
    let make_correction = || {
        let mut s1 = SourceClock::new(SourceId(1));
        CausalRevision {
            stamp: s1.stamp(1),
            rev: Revision::ReplaceValue {
                tuple: TupleId(0),
                attr: job,
                value: Value::str("vet"), // contradicts the accepted "n/a"
            },
        }
    };
    let run = |timeline: Vec<(usize, CausalRevision)>| {
        let mut oracle = GroundTruthOracle::new(truth.clone());
        let mut source = ScriptedCausalRevisions::new(timeline);
        resolve_causal_checked(
            &config(),
            &spec,
            &mut oracle,
            &mut source,
            &CausalReplayConfig::default(),
        )
        .expect("causal replay must match scratch")
    };

    let base = run(vec![(1, make_correction())]);
    assert_eq!(base.revisions.reopened, 1);

    // Same-poll duplicate and later-poll redelivery.
    for (what, timeline) in [
        (
            "same poll",
            vec![(1, make_correction()), (1, make_correction())],
        ),
        (
            "later poll",
            vec![(1, make_correction()), (2, make_correction())],
        ),
    ] {
        let dup = run(timeline);
        assert_eq!(
            dup.revisions.reopened, 1,
            "{what}: re-open must not double-count"
        );
        assert_eq!(
            dup.revisions.duplicates_dropped, 1,
            "{what}: the copy is dropped"
        );
        assert_eq!(
            dup.interactions, base.interactions,
            "{what}: no extra re-ask from the duplicate"
        );
        let cells: Vec<_> = dup
            .round_reports
            .iter()
            .flat_map(|r| r.competing.iter())
            .collect();
        assert_eq!(
            cells.len(),
            1,
            "{what}: exactly one competing cell surfaces"
        );
        assert_eq!(dup.resolved, base.resolved, "{what}: same final resolution");
        assert_eq!(dup.valid, base.valid);
        assert_eq!(dup.complete, base.complete);
    }
}

/// The chaos-harness regression case for the same bug: the chaos adapter
/// redelivers the single re-opening correction of the timeline, and the
/// chaotic run must still re-open exactly once and converge to the
/// canonical outcome.
#[test]
fn chaos_duplicated_reopening_correction_reopens_once() {
    let (spec, truth) = firing_cfd_spec();
    let job = spec.schema().attr_id("job").unwrap();
    let mut s1 = SourceClock::new(SourceId(1));
    let timeline = vec![(
        1usize,
        CausalRevision {
            stamp: s1.stamp(1),
            rev: Revision::ReplaceValue {
                tuple: TupleId(0),
                attr: job,
                value: Value::str("vet"),
            },
        },
    )];

    let mut oracle = GroundTruthOracle::new(truth.clone());
    let mut canonical = ScriptedCausalRevisions::new(timeline.clone());
    let base = resolve_causal_checked(
        &config(),
        &spec,
        &mut oracle,
        &mut canonical,
        &CausalReplayConfig::default(),
    )
    .expect("canonical replay must match scratch");
    assert_eq!(base.revisions.reopened, 1);

    // With a single-event timeline every duplicate the chaos adapter
    // injects is a redelivery of the re-opening correction itself.
    let cfg = ChaosConfig {
        duplicates: 2,
        ..ChaosConfig::schedule_preserving(0xD0D0)
    };
    let mut oracle2 = GroundTruthOracle::new(truth);
    let mut chaotic = chaos(&timeline, &spec, &cfg);
    let run = resolve_causal_checked(
        &config(),
        &spec,
        &mut oracle2,
        &mut chaotic,
        &CausalReplayConfig::default(),
    )
    .expect("chaotic replay must match scratch");

    assert_eq!(
        run.revisions.duplicates_dropped, 2,
        "both copies are dropped"
    );
    assert_eq!(
        run.revisions.reopened, 1,
        "redelivery must not re-open again"
    );
    assert_eq!(run.interactions, base.interactions);
    assert_eq!(run.resolved, base.resolved);
    assert_eq!(run.valid, base.valid);
}
