//! Causally robust correction ingestion: deterministic differentials.
//!
//! These tests pin down the causal-frontier semantics one scenario at a
//! time — the re-open of a resolved attribute by a late causally-concurrent
//! correction (the acceptance case: exactly that attribute), convergence
//! of both delivery orders,
//! out-of-order buffering, `(source, hlc)` dedup, last-writer-wins over
//! branch tips, the typed [`RevisionError`] variants, and the degradation
//! policies. Randomized permutation/chaos convergence lives in
//! `tests/causal_proptest.rs` at the workspace level.

use cr_constraints::parser::{parse_cfd_file, parse_currency_file};
use cr_core::causal::{CausalRevision, ScriptedCausalRevisions};
use cr_core::framework::{GroundTruthOracle, ResolutionConfig};
use cr_core::ingest::{ResolutionSession, Revision, RevisionError, RevisionPolicy, QUARANTINE_CAP};
use cr_core::Specification;
use cr_oracle::{resolve_causal_checked, CausalReplayConfig};
use cr_store::{check_session_against_scratch, SpecMirror};
use cr_types::{EntityInstance, Schema, SourceClock, SourceId, Tuple, TupleId, Value};

/// The PR 5 fixture: the CFD fires automatically at round 0 while `job`
/// stays ambiguous, so resolution needs an interaction round — the window
/// in which late corrections arrive.
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

/// A minimal two-tuple spec for manual session driving.
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

/// Absorbs `rev` as a one-event batch: `Ok(true)` applied, `Ok(false)`
/// degraded, `Err` under `RevisionPolicy::Reject`.
fn absorb_one(session: &mut ResolutionSession, rev: &Revision) -> Result<bool, RevisionError> {
    session
        .absorb_revision_batch(std::slice::from_ref(rev))
        .map(|(_, applied)| applied[0])
}

/// The acceptance-criterion case: the user answers `job`, then a remote
/// correction that never saw the answer (causally concurrent) asserts a
/// conflicting job value. The session must re-open exactly that attribute
/// — withdraw the accepted answer (its orders were load-bearing), apply
/// the correction, re-ask — and still end at the truth.
#[test]
fn late_concurrent_correction_reopens_exactly_the_answered_attribute() {
    let (spec, truth) = firing_cfd_spec();
    let job = spec.schema().attr_id("job").unwrap();
    let mut s1 = SourceClock::new(SourceId(1));
    let correction = CausalRevision {
        stamp: s1.stamp(1),
        rev: Revision::ReplaceValue {
            tuple: TupleId(0),
            attr: job,
            value: Value::str("vet"), // contradicts the accepted "n/a"
        },
    };
    let mut oracle = GroundTruthOracle::new(truth);
    // Round 0: no events — the user answers job first. Round 1: the
    // concurrent correction lands.
    let mut source = ScriptedCausalRevisions::new(vec![(1, correction)]);
    let replay = resolve_causal_checked(
        &config(),
        &spec,
        &mut oracle,
        &mut source,
        &CausalReplayConfig::default(),
    )
    .expect("causal replay must match scratch");

    assert!(replay.valid);
    assert!(replay.complete, "the re-opened attribute is re-answered");
    assert_eq!(
        replay.revisions.reopened, 1,
        "exactly one attribute re-opens"
    );
    assert_eq!(
        replay.interactions, 2,
        "job is asked once before and once after the re-open"
    );
    assert_eq!(replay.resolved.get(job), Some(&Value::str("n/a")));
    assert!(replay.quarantined.is_empty());
    assert_eq!(replay.revisions.quarantined, 0);
}

/// The convergence half of the acceptance case: delivering the same
/// correction *before* the answer (so the answer causally sees it — no
/// concurrency, no re-open) must end at the identical final resolution.
#[test]
fn correction_before_answer_does_not_reopen_and_converges() {
    let (spec, truth) = firing_cfd_spec();
    let job = spec.schema().attr_id("job").unwrap();
    let make_correction = || {
        let mut s1 = SourceClock::new(SourceId(1));
        CausalRevision {
            stamp: s1.stamp(1),
            rev: Revision::ReplaceValue {
                tuple: TupleId(0),
                attr: job,
                value: Value::str("vet"),
            },
        }
    };

    let run = |round: usize| {
        let mut oracle = GroundTruthOracle::new(truth.clone());
        let mut source = ScriptedCausalRevisions::new(vec![(round, make_correction())]);
        resolve_causal_checked(
            &config(),
            &spec,
            &mut oracle,
            &mut source,
            &CausalReplayConfig::default(),
        )
        .expect("causal replay must match scratch")
    };

    let early = run(0); // delivered before the first ask: answer sees it
    let late = run(1); // delivered after the answer: concurrent, re-opens

    assert_eq!(early.revisions.reopened, 0, "the answer saw the correction");
    assert_eq!(early.interactions, 1);
    assert_eq!(late.revisions.reopened, 1);
    assert_eq!(
        early.resolved, late.resolved,
        "both delivery orders must converge to the same resolution"
    );
    assert_eq!(early.valid, late.valid);
    assert_eq!(early.complete, late.complete);
}

/// Out-of-order delivery buffers at the frontier and releases in causal
/// order; redelivery is dropped by `(source, hlc)` identity. The replayed
/// state stays equivalent to scratch throughout.
#[test]
fn out_of_order_events_buffer_and_duplicates_drop() {
    let spec = two_city_spec();
    let city = spec.schema().attr_id("city").unwrap();
    let mut s1 = SourceClock::new(SourceId(1));
    let e1 = CausalRevision {
        stamp: s1.stamp(1),
        rev: Revision::ReplaceValue {
            tuple: TupleId(0),
            attr: city,
            value: Value::str("SF"),
        },
    };
    let e2 = CausalRevision {
        stamp: s1.stamp(2),
        rev: Revision::ReplaceValue {
            tuple: TupleId(0),
            attr: city,
            value: Value::str("Chicago"),
        },
    };

    let mut session = ResolutionSession::new(&config(), &spec);
    let mut mirror = SpecMirror::new(&spec);

    // The successor arrives first: nothing deliverable yet.
    let eff = session.ingest_causal(vec![e2.clone()]).unwrap();
    assert!(eff.is_empty(), "out-of-order event must not apply early");
    assert_eq!(session.frontier().pending(), 1);
    assert_eq!(session.revision_telemetry().buffered, 1);

    // The predecessor arrives (twice): dedup drops the copy, delivery
    // cascades through the buffered successor.
    let eff = session.ingest_causal(vec![e1.clone(), e1.clone()]).unwrap();
    assert_eq!(session.revision_telemetry().duplicates_dropped, 1);
    assert_eq!(
        eff,
        vec![
            Revision::ReplaceValue {
                tuple: TupleId(0),
                attr: city,
                value: Value::str("SF")
            },
            Revision::ReplaceValue {
                tuple: TupleId(0),
                attr: city,
                value: Value::str("Chicago"),
            },
        ],
        "causal order restored: SF applies, then its successor Chicago"
    );
    assert_eq!(session.frontier().pending(), 0);
    for rev in &eff {
        mirror.apply(rev);
    }
    check_session_against_scratch(&mut session, &mirror).expect("replay ≡ scratch");
    assert_eq!(
        session.current().entity().tuple(TupleId(0)).get(city),
        &Value::str("Chicago")
    );

    // Redelivering the already-delivered successor is also dropped.
    let eff = session.ingest_causal(vec![e2]).unwrap();
    assert!(eff.is_empty());
    assert_eq!(session.revision_telemetry().duplicates_dropped, 2);
}

/// Causally-concurrent writes to the same cell resolve by last-writer-wins
/// over the branch tips — the same final value in either delivery order,
/// with both tips presented as competing values.
#[test]
fn concurrent_writes_converge_by_lww_in_either_delivery_order() {
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
        stamp: s2.stamp(2), // later HLC: the deterministic LWW winner
        rev: Revision::ReplaceValue {
            tuple: TupleId(0),
            attr: city,
            value: Value::str("Boston"),
        },
    };

    for order in [vec![a.clone(), b.clone()], vec![b.clone(), a.clone()]] {
        let mut session = ResolutionSession::new(&config(), &spec);
        let mut mirror = SpecMirror::new(&spec);
        for ev in order {
            for rev in session.ingest_causal(vec![ev]).unwrap() {
                mirror.apply(&rev);
            }
        }
        assert_eq!(
            session.current().entity().tuple(TupleId(0)).get(city),
            &Value::str("Boston"),
            "LWW over branch tips is delivery-order independent"
        );
        let tips = session.branch_tips(TupleId(0), city);
        assert_eq!(tips.len(), 2, "both concurrent writes are branch tips");
        assert!(tips.contains(&(SourceId(1), Value::str("SF"))));
        assert!(tips.contains(&(SourceId(2), Value::str("Boston"))));
        assert!(session.frontier().concurrent_conflicts() >= 1);
        // The concurrency is surfaced as a competing-candidate cell, not
        // just resolved silently: both tips are presented.
        let competing = session.take_competing();
        assert_eq!(competing.len(), 1, "one cell with concurrent candidates");
        let cell = &competing[0];
        assert_eq!((cell.tuple, cell.attr), (TupleId(0), city));
        assert!(!cell.reopened, "no accepted answer was involved");
        assert!(cell.candidates.contains(&(SourceId(1), Value::str("SF"))));
        assert!(cell
            .candidates
            .contains(&(SourceId(2), Value::str("Boston"))));
        assert!(session.take_competing().is_empty(), "take_competing drains");
        check_session_against_scratch(&mut session, &mirror).expect("replay ≡ scratch");
    }
}

/// Every malformed-event shape maps to its typed [`RevisionError`] variant,
/// and a failed application leaves the session state untouched (still
/// equivalent to a mirror that never saw the bad events). Under `Reject`
/// a batch returns its first error with the applied prefix sealed.
#[test]
fn malformed_revisions_return_typed_errors_and_leave_state_untouched() {
    let (spec, _) = firing_cfd_spec();
    let city = spec.schema().attr_id("city").unwrap();
    let job = spec.schema().attr_id("job").unwrap();
    let mut session = ResolutionSession::new(&config(), &spec);
    session.set_revision_policy(RevisionPolicy::Reject);
    let mut mirror = SpecMirror::new(&spec);

    assert_eq!(
        absorb_one(&mut session, &Revision::RetractCfd { cfd: 5 }),
        Err(RevisionError::UnknownCfd {
            cfd: 5,
            gamma_len: 1
        })
    );
    assert_eq!(
        absorb_one(
            &mut session,
            &Revision::WithdrawOrder {
                attr: cr_types::AttrId(99),
                lo: TupleId(0),
                hi: TupleId(1),
            }
        ),
        Err(RevisionError::UnknownAttr {
            attr: cr_types::AttrId(99),
            arity: 4
        })
    );
    assert_eq!(
        absorb_one(
            &mut session,
            &Revision::WithdrawOrder {
                attr: city,
                lo: TupleId(0),
                hi: TupleId(1),
            }
        ),
        Err(RevisionError::UnknownOrder {
            attr: city,
            lo: TupleId(0),
            hi: TupleId(1)
        }),
        "withdrawing a never-asserted pair is a typed error"
    );
    assert_eq!(
        absorb_one(
            &mut session,
            &Revision::ReplaceValue {
                tuple: TupleId(9),
                attr: city,
                value: Value::Null,
            }
        ),
        Err(RevisionError::UnknownTuple {
            tuple: TupleId(9),
            len: 2
        })
    );
    assert_eq!(
        absorb_one(
            &mut session,
            &Revision::WithdrawAnswer {
                attr: job,
                tuple: TupleId(7)
            }
        ),
        Err(RevisionError::UnknownTuple {
            tuple: TupleId(7),
            len: 2
        })
    );
    assert_eq!(session.epoch().0, 0, "rejected events seal no epoch");

    // A valid retraction still applies; repeating it is stale. The batch
    // stops at the stale event: the valid prefix is sealed, the event
    // after the error never runs.
    let trailing = Revision::ReplaceValue {
        tuple: TupleId(0),
        attr: city,
        value: Value::str("SF"),
    };
    assert_eq!(
        session.absorb_revision_batch(&[
            Revision::RetractCfd { cfd: 0 },
            Revision::RetractCfd { cfd: 0 },
            trailing,
        ]),
        Err(RevisionError::StaleCfd { cfd: 0 })
    );
    mirror.apply(&Revision::RetractCfd { cfd: 0 });
    assert_eq!(session.epoch().0, 1, "the applied prefix is sealed");

    // The errors above changed nothing: the session still matches a mirror
    // that only saw the one valid event.
    check_session_against_scratch(&mut session, &mirror)
        .expect("failed applications must leave the session untouched");
    assert_eq!(session.revision_telemetry().events, 1);
    assert!(session.quarantined().is_empty(), "reject logs nothing");

    // Display renders something useful for logs.
    let msg = RevisionError::UnknownCfd {
        cfd: 5,
        gamma_len: 1,
    }
    .to_string();
    assert!(msg.contains("unknown CFD"), "got: {msg}");
}

/// The two degradation policies: reject propagates, quarantine logs and
/// counts.
#[test]
fn degradation_policies_reject_and_quarantine() {
    let (spec, _) = firing_cfd_spec();
    let bad = Revision::RetractCfd { cfd: 42 };

    // Default policy: quarantine.
    let mut session = ResolutionSession::new(&config(), &spec);
    assert_eq!(absorb_one(&mut session, &bad), Ok(false));
    assert_eq!(session.revision_telemetry().quarantined, 1);
    assert_eq!(session.quarantined().len(), 1);
    assert_eq!(session.quarantined()[0].0, bad);
    assert_eq!(
        session.quarantined()[0].1,
        RevisionError::UnknownCfd {
            cfd: 42,
            gamma_len: 1
        }
    );
    // A good event still applies afterwards: the stream is not poisoned.
    assert_eq!(
        absorb_one(&mut session, &Revision::RetractCfd { cfd: 0 }),
        Ok(true)
    );
    assert_eq!(session.revision_telemetry().events, 1);

    // Reject: the error propagates, nothing is logged.
    let mut session = ResolutionSession::new(&config(), &spec);
    session.set_revision_policy(RevisionPolicy::Reject);
    assert_eq!(
        absorb_one(&mut session, &bad),
        Err(RevisionError::UnknownCfd {
            cfd: 42,
            gamma_len: 1
        })
    );
    assert!(session.quarantined().is_empty());
}

/// Corrupt events injected mid-stream under the quarantine policy are
/// logged without disturbing resolution: the clean part of the stream
/// still applies and the run still matches scratch.
#[test]
fn quarantined_corrupt_event_does_not_poison_the_causal_stream() {
    let (spec, truth) = firing_cfd_spec();
    let mut s1 = SourceClock::new(SourceId(1));
    let good = CausalRevision {
        stamp: s1.stamp(1),
        rev: Revision::RetractCfd { cfd: 0 },
    };
    let corrupt = CausalRevision {
        stamp: s1.stamp(2), // same source: quarantining must not block it
        rev: Revision::RetractCfd { cfd: 99 },
    };
    let trailing = CausalRevision {
        stamp: s1.stamp(3), // delivered only if the corrupt event advanced
        rev: Revision::ReplaceValue {
            tuple: TupleId(0),
            attr: spec.schema().attr_id("city").unwrap(),
            value: Value::str("LA"),
        },
    };
    let mut oracle = GroundTruthOracle::new(truth);
    let mut source =
        ScriptedCausalRevisions::new(vec![(1, good), (1, corrupt.clone()), (2, trailing)]);
    let replay = resolve_causal_checked(
        &config(),
        &spec,
        &mut oracle,
        &mut source,
        &CausalReplayConfig {
            policy: RevisionPolicy::Quarantine,
            ..Default::default()
        },
    )
    .expect("quarantine keeps the replay equivalent to scratch");
    assert!(replay.valid);
    assert_eq!(replay.revisions.quarantined, 1);
    assert_eq!(replay.quarantined.len(), 1);
    assert_eq!(replay.quarantined[0].0, corrupt.rev);
    assert_eq!(
        replay.revisions.events, 2,
        "the events around the corrupt one still apply"
    );
    assert_eq!(
        replay.revisions.buffered, 0,
        "quarantining advances the frontier"
    );
}

/// A re-open carries its competing candidates out through the round
/// reports: the interaction loop can present the withdrawn local answer
/// next to the remote correction instead of a bare re-ask.
#[test]
fn reopen_surfaces_competing_candidates_in_round_reports() {
    let (spec, truth) = firing_cfd_spec();
    let job = spec.schema().attr_id("job").unwrap();
    let mut s1 = SourceClock::new(SourceId(1));
    let correction = CausalRevision {
        stamp: s1.stamp(1),
        rev: Revision::ReplaceValue {
            tuple: TupleId(0),
            attr: job,
            value: Value::str("vet"),
        },
    };
    let mut oracle = GroundTruthOracle::new(truth);
    let mut source = ScriptedCausalRevisions::new(vec![(1, correction)]);
    let replay = resolve_causal_checked(
        &config(),
        &spec,
        &mut oracle,
        &mut source,
        &CausalReplayConfig::default(),
    )
    .expect("causal replay must match scratch");

    assert_eq!(replay.revisions.reopened, 1);
    let cells: Vec<_> = replay
        .round_reports
        .iter()
        .flat_map(|r| r.competing.iter())
        .collect();
    assert_eq!(cells.len(), 1, "exactly the re-opened cell competes");
    let cell = cells[0];
    assert_eq!((cell.tuple, cell.attr), (TupleId(0), job));
    assert!(cell.reopened, "the cell re-opened an accepted answer");
    assert!(
        cell.candidates.contains(&(SourceId(1), Value::str("vet"))),
        "the remote branch tip is a candidate: {:?}",
        cell.candidates
    );
    assert!(
        cell.candidates
            .contains(&(SourceId::LOCAL, Value::str("n/a"))),
        "the withdrawn local answer is presented alongside: {:?}",
        cell.candidates
    );
}

/// The quarantine log is bounded: beyond [`QUARANTINE_CAP`] the oldest
/// entries are evicted (newest kept) and every eviction is counted.
#[test]
fn quarantine_log_is_bounded_with_eviction_telemetry() {
    let (spec, _) = firing_cfd_spec();
    let mut session = ResolutionSession::new(&config(), &spec);
    let k = 2;
    let pushed = QUARANTINE_CAP + k;
    for cfd in 10..10 + pushed {
        assert_eq!(
            absorb_one(&mut session, &Revision::RetractCfd { cfd }),
            Ok(false)
        );
    }
    assert_eq!(
        session.revision_telemetry().quarantined,
        pushed,
        "every event counts"
    );
    assert_eq!(
        session.quarantined().len(),
        QUARANTINE_CAP,
        "only the cap is retained"
    );
    assert_eq!(
        session.quarantined()[0].0,
        Revision::RetractCfd { cfd: 10 + k }
    );
    assert_eq!(
        session.quarantined()[QUARANTINE_CAP - 1].0,
        Revision::RetractCfd {
            cfd: 10 + pushed - 1
        }
    );
    assert_eq!(session.revision_telemetry().quarantine_evicted, k);

    // The session itself is unharmed: a good event still applies.
    assert_eq!(
        absorb_one(&mut session, &Revision::RetractCfd { cfd: 0 }),
        Ok(true)
    );
}

/// Regression (found by the crash-and-rehydrate soak): a causal
/// `ReplaceValue` to Null followed by a user answer used to panic the
/// solver inside `is_valid`. The input extension allocated fresh guard
/// variables for emission groups whose instances were all vacuous — new
/// variables but **zero** new clauses — so the clause-watermark solver
/// sync skipped entirely and the persistent guard assumptions referenced
/// variables the solver had never seen.
#[test]
fn guard_vars_without_clauses_still_reach_the_solver() {
    use cr_core::spec::UserInput;
    use cr_data::gen::{causal_timeline, scenario_from_raw, CausalTimelineConfig, Scenario};
    use cr_types::AttrId;

    let seed = 18239472052751201364u64;
    let Scenario { spec, truth } = scenario_from_raw(seed, 2, 6, 78, false);
    let timeline = causal_timeline(
        &spec,
        &CausalTimelineConfig {
            seed: seed.wrapping_mul(131).wrapping_add(7),
            sources: 2,
            events: 4,
            rounds: 3,
            ..Default::default()
        },
    );
    // The first event of this timeline replaces (TupleId(0), AttrId(1))
    // with Null; the answer then re-fills the cell.
    let ev0 = timeline[0].1.clone();
    assert!(matches!(
        ev0.rev,
        Revision::ReplaceValue {
            value: Value::Null,
            ..
        }
    ));
    let mut input = UserInput::empty();
    input.values.insert(AttrId(1), truth.get(AttrId(1)).clone());

    let mut session = ResolutionSession::new(&config(), &spec);
    let mut mirror = SpecMirror::new(&spec);
    for rev in session.ingest_causal(vec![ev0]).unwrap() {
        mirror.apply(&rev);
    }
    session.apply_input(&input);
    mirror.apply_input(&input);

    assert!(session.is_valid(), "the re-filled cell satisfies the spec");
    check_session_against_scratch(&mut session, &mirror).unwrap();
}
