//! End-to-end behaviour of the serving front-end: admission and
//! load-shedding, round-robin fairness, deadline cancellation (in-queue
//! and mid-request), idempotent retries, and eviction racing admission.
//!
//! All tests drive the [`Server`] with explicit logical ticks over an
//! in-memory backend — no wall clock, fully deterministic.

use cr_core::framework::DeductionMethod;
use cr_core::spec::UserInput;
use cr_data::gen::scenario_from_raw;
use cr_server::proto::{Reply, Request, Response, ServeError};
use cr_server::{AdmissionConfig, Server};
use cr_store::{MemoryBackend, SessionId, SessionStore, StoreConfig};
use cr_types::wire::{Envelope, IdemKey, RequestId, TenantId};
use cr_types::{AttrId, Value};

fn server_with(
    admission: AdmissionConfig,
    store: StoreConfig,
    sessions: u64,
    seed: u64,
) -> Server<MemoryBackend> {
    let store = SessionStore::new(MemoryBackend::new(), store).unwrap();
    let mut server = Server::new(store, admission);
    for s in 0..sessions {
        let scenario = scenario_from_raw(seed.wrapping_add(s), 4, 3, 60, false);
        server.open(s, &scenario.spec);
    }
    server
}

fn env(tenant: u32, session: u64, rid: u64) -> Envelope {
    Envelope {
        request_id: RequestId(rid),
        tenant: TenantId(tenant),
        session,
        deadline: None,
        idempotency: None,
    }
}

fn ok_response(reply: &Reply) -> &Response {
    match &reply.outcome {
        Ok(resp) => resp,
        Err(e) => panic!("expected success, got {e}"),
    }
}

#[test]
fn serves_reads_and_mutations_end_to_end() {
    let mut server = server_with(AdmissionConfig::default(), StoreConfig::default(), 1, 11);
    assert!(server.submit(0, env(0, 0, 1), Request::IsValid).is_none());
    assert!(server
        .submit(
            0,
            env(0, 0, 2),
            Request::TrueValues {
                method: DeductionMethod::UnitPropagation
            }
        )
        .is_none());
    let mut input = UserInput::empty();
    let scenario = scenario_from_raw(11, 4, 3, 60, false);
    input
        .values
        .insert(AttrId(1), scenario.truth.get(AttrId(1)).clone());
    let mut menv = env(0, 0, 3);
    menv.idempotency = Some(IdemKey(1));
    assert!(server
        .submit(0, menv, Request::ApplyInput { input })
        .is_none());

    let replies = server.dispatch(1);
    assert_eq!(replies.len(), 3);
    assert_eq!(replies[0].request_id, RequestId(1));
    assert!(matches!(ok_response(&replies[0]), Response::Valid(_)));
    assert!(matches!(
        ok_response(&replies[1]),
        Response::TrueValues { .. }
    ));
    assert!(matches!(ok_response(&replies[2]), Response::Applied { .. }));
    let t = server.telemetry();
    assert_eq!(t.admitted, 3);
    assert_eq!(t.served, 3);
    assert_eq!(t.failed, 0);
    // The mutation landed durably.
    assert!(server.store().log_len(SessionId(0)).unwrap() > 0);
}

#[test]
fn unknown_session_is_rejected_at_submit() {
    let mut server = server_with(AdmissionConfig::default(), StoreConfig::default(), 1, 3);
    let reply = server
        .submit(0, env(0, 99, 7), Request::IsValid)
        .expect("immediate reject");
    assert_eq!(reply.request_id, RequestId(7));
    assert_eq!(
        reply.outcome,
        Err(ServeError::UnknownSession { session: 99 })
    );
}

#[test]
fn empty_token_bucket_sheds_with_honest_retry_after() {
    let admission = AdmissionConfig {
        refill_per_tick: 1,
        burst: 2,
        cost: 1,
        cold_cost: 0,
        ..AdmissionConfig::default()
    };
    let mut server = server_with(admission, StoreConfig::default(), 1, 5);
    assert!(server.submit(0, env(0, 0, 1), Request::IsValid).is_none());
    assert!(server.submit(0, env(0, 0, 2), Request::IsValid).is_none());
    let reply = server
        .submit(0, env(0, 0, 3), Request::IsValid)
        .expect("shed");
    match reply.outcome {
        Err(ServeError::Overloaded { retry_after }) => assert_eq!(retry_after, 1),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(server.telemetry().shed_rate, 1);
    // After the refill tick the same request is admitted.
    assert!(server.submit(1, env(0, 0, 4), Request::IsValid).is_none());
}

#[test]
fn full_queue_sheds_instead_of_growing() {
    let admission = AdmissionConfig {
        refill_per_tick: 100,
        burst: 100,
        cost: 1,
        cold_cost: 0,
        queue_cap: 3,
        ..AdmissionConfig::default()
    };
    let mut server = server_with(admission, StoreConfig::default(), 1, 5);
    for rid in 0..3 {
        assert!(server.submit(0, env(0, 0, rid), Request::IsValid).is_none());
    }
    let reply = server
        .submit(0, env(0, 0, 9), Request::IsValid)
        .expect("shed");
    assert!(
        matches!(reply.outcome, Err(ServeError::Overloaded { retry_after }) if retry_after > 0)
    );
    assert_eq!(server.telemetry().shed_queue, 1);
    assert_eq!(server.queued(), 3);
}

#[test]
fn round_robin_keeps_a_trickle_tenant_ahead_of_a_flooder() {
    let admission = AdmissionConfig {
        refill_per_tick: 100,
        burst: 100,
        cost: 1,
        cold_cost: 0,
        queue_cap: 16,
        max_in_flight: 2,
        ..AdmissionConfig::default()
    };
    let mut server = server_with(admission, StoreConfig::default(), 1, 5);
    // Tenant 0 floods ten requests; tenant 1 submits one.
    for rid in 0..10 {
        assert!(server.submit(0, env(0, 0, rid), Request::IsValid).is_none());
    }
    assert!(server.submit(0, env(1, 0, 100), Request::IsValid).is_none());
    // With an in-flight budget of 2, the first dispatch must serve one
    // request from EACH tenant — the flood cannot starve the trickle.
    let replies = server.dispatch(1);
    assert_eq!(replies.len(), 2);
    let ids: Vec<u64> = replies.iter().map(|r| r.request_id.0).collect();
    assert!(ids.contains(&100), "trickle tenant starved: served {ids:?}");
}

#[test]
fn deadline_cancellation_at_dequeue_time() {
    let mut server = server_with(AdmissionConfig::default(), StoreConfig::default(), 1, 5);
    let mut e = env(0, 0, 1);
    e.deadline = Some(3);
    assert!(server.submit(0, e, Request::IsValid).is_none());
    // Dispatch only happens at tick 10 — past the deadline, so the
    // request is cancelled without touching the engine.
    let replies = server.dispatch(10);
    assert_eq!(replies.len(), 1);
    assert_eq!(
        replies[0].outcome,
        Err(ServeError::DeadlineExceeded {
            deadline: 3,
            now: 10,
            queued: true
        })
    );
    let t = server.telemetry();
    assert_eq!(t.expired_in_queue, 1);
    assert_eq!(t.served, 0);
    // The engine was never built: the session is still cold.
    assert!(!server.store().is_live(SessionId(0)));
}

#[test]
fn multi_phase_read_expires_mid_request() {
    let admission = AdmissionConfig {
        cost_per_phase: 10,
        ..AdmissionConfig::default()
    };
    let mut server = server_with(admission, StoreConfig::default(), 1, 5);
    // Suggest spends 4 phases at 10 ticks each; a deadline of 15 admits
    // phases starting at ticks 0 and 10, then expires at 20 — mid-request.
    let mut e = env(0, 0, 1);
    e.deadline = Some(15);
    assert!(server
        .submit(
            0,
            e,
            Request::Suggest {
                method: DeductionMethod::UnitPropagation
            }
        )
        .is_none());
    let replies = server.dispatch(0);
    assert_eq!(replies.len(), 1);
    assert_eq!(
        replies[0].outcome,
        Err(ServeError::DeadlineExceeded {
            deadline: 15,
            now: 20,
            queued: false
        })
    );
    assert_eq!(server.telemetry().expired_mid_request, 1);
}

#[test]
fn idempotent_retry_replays_instead_of_reapplying() {
    let mut server = server_with(AdmissionConfig::default(), StoreConfig::default(), 1, 11);
    let scenario = scenario_from_raw(11, 4, 3, 60, false);
    let mut input = UserInput::empty();
    input
        .values
        .insert(AttrId(1), scenario.truth.get(AttrId(1)).clone());

    let mut e = env(0, 0, 1);
    e.idempotency = Some(IdemKey(42));
    assert!(server
        .submit(
            0,
            e.clone(),
            Request::ApplyInput {
                input: input.clone()
            }
        )
        .is_none());
    let first = server.dispatch(1);
    assert_eq!(first.len(), 1);
    let first_resp = ok_response(&first[0]).clone();
    let log_after_first = server.store().log_len(SessionId(0)).unwrap();

    // The client never saw the ack and retries the same logical mutation
    // (same idempotency key, fresh request id).
    e.request_id = RequestId(2);
    assert!(server.submit(2, e, Request::ApplyInput { input }).is_none());
    let second = server.dispatch(3);
    assert_eq!(second.len(), 1);
    assert_eq!(ok_response(&second[0]), &first_resp);
    // Nothing was re-applied: the durable log did not grow and the ledger
    // answered the retry.
    assert_eq!(
        server.store().log_len(SessionId(0)).unwrap(),
        log_after_first
    );
    assert_eq!(server.telemetry().idem_hits, 1);
}

/// A ledger entry that no longer decodes (the store's bytes went bad) is
/// answered with a typed store error, never a panic, and nothing is
/// re-applied.
#[test]
fn undecodable_ledger_reply_is_a_store_error() {
    let mut server = server_with(AdmissionConfig::default(), StoreConfig::default(), 1, 11);
    let scenario = scenario_from_raw(11, 4, 3, 60, false);
    let mut input = UserInput::empty();
    input
        .values
        .insert(AttrId(1), scenario.truth.get(AttrId(1)).clone());
    server
        .store_mut()
        .record_reply(SessionId(0), 9, vec![0xFF, 0x00, 0x13])
        .unwrap();
    let log_before = server.store().log_len(SessionId(0)).unwrap();

    let mut e = env(0, 0, 1);
    e.idempotency = Some(IdemKey(9));
    assert!(server.submit(0, e, Request::ApplyInput { input }).is_none());
    let replies = server.dispatch(1);
    assert_eq!(replies.len(), 1);
    match &replies[0].outcome {
        Err(ServeError::Store { message }) => {
            assert!(
                message.contains("corrupt"),
                "names the decode failure: {message}"
            )
        }
        other => panic!("expected a store error, got {other:?}"),
    }
    assert_eq!(server.store().log_len(SessionId(0)).unwrap(), log_before);
    assert_eq!(server.telemetry().idem_hits, 0);
    assert_eq!(server.telemetry().failed, 1);
}

/// The idempotency ledger is store-level, not engine state: a retry
/// arriving after the session was evicted still deduplicates.
#[test]
fn idempotent_retry_survives_eviction() {
    let mut server = server_with(AdmissionConfig::default(), StoreConfig::default(), 1, 11);
    let scenario = scenario_from_raw(11, 4, 3, 60, false);
    let mut input = UserInput::empty();
    input
        .values
        .insert(AttrId(1), scenario.truth.get(AttrId(1)).clone());

    let mut e = env(0, 0, 1);
    e.idempotency = Some(IdemKey(7));
    assert!(server
        .submit(
            0,
            e.clone(),
            Request::ApplyInput {
                input: input.clone()
            }
        )
        .is_none());
    let first = server.dispatch(1);
    let first_resp = ok_response(&first[0]).clone();
    let log_after_first = server.store().log_len(SessionId(0)).unwrap();

    assert!(server.store_mut().evict(SessionId(0)).unwrap());
    e.request_id = RequestId(2);
    assert!(server.submit(2, e, Request::ApplyInput { input }).is_none());
    let second = server.dispatch(3);
    assert_eq!(ok_response(&second[0]), &first_resp);
    assert_eq!(
        server.store().log_len(SessionId(0)).unwrap(),
        log_after_first
    );
    assert_eq!(server.telemetry().idem_hits, 1);
}

/// Satellite coverage: a request admitted for a session the LRU cap just
/// evicted must transparently rehydrate — `rehydrations` increments and
/// the client sees a normal reply, never an error.
#[test]
fn eviction_racing_admission_rehydrates_transparently() {
    let store_cfg = StoreConfig {
        max_live: 1,
        ..StoreConfig::default()
    };
    let mut server = server_with(AdmissionConfig::default(), store_cfg, 2, 23);

    // Warm session 0, then warm session 1 — the live cap evicts 0.
    assert!(server.submit(0, env(0, 0, 1), Request::IsValid).is_none());
    assert_eq!(server.dispatch(1).len(), 1);
    assert!(server.submit(2, env(0, 1, 2), Request::IsValid).is_none());
    assert_eq!(server.dispatch(3).len(), 1);
    assert!(
        !server.store().is_live(SessionId(0)),
        "live cap should have evicted session 0"
    );
    assert!(server.store().is_live(SessionId(1)));
    let evictions_before = server.store().recovery().evictions;
    let rehydrations_before = server.store().recovery().rehydrations;
    assert!(evictions_before >= 1);

    // A request races in for the just-evicted session: admission charges
    // the cold cost, execution rehydrates, the client never notices.
    assert!(server.submit(4, env(0, 0, 3), Request::IsValid).is_none());
    let replies = server.dispatch(5);
    assert_eq!(replies.len(), 1);
    assert!(matches!(ok_response(&replies[0]), Response::Valid(_)));
    assert_eq!(
        server.store().recovery().rehydrations,
        rehydrations_before + 1
    );
    assert!(server.store().is_live(SessionId(0)));
    assert_eq!(server.telemetry().failed, 0);
}

/// The cold-session surcharge is visible in admission: with a bucket that
/// exactly covers a warm request, a cold target is shed.
#[test]
fn cold_sessions_cost_more_to_admit() {
    let admission = AdmissionConfig {
        refill_per_tick: 1,
        burst: 1,
        cost: 1,
        cold_cost: 2,
        ..AdmissionConfig::default()
    };
    let mut server = server_with(admission, StoreConfig::default(), 1, 5);
    // Session 0 is cold: cost 3 > burst 1 → shed, retry_after covers the
    // 2-token deficit at 1 token/tick.
    let reply = server
        .submit(0, env(0, 0, 1), Request::IsValid)
        .expect("shed");
    assert_eq!(
        reply.outcome,
        Err(ServeError::Overloaded { retry_after: 2 })
    );
}

/// Regression: an `ApplyInput` naming an attribute past the schema's arity
/// used to be logged write-ahead and then panic the engine, and every later
/// rehydration replayed the record and panicked again. It is now refused
/// with a typed error before anything is logged, and the session keeps
/// serving — also after eviction and rehydration.
#[test]
fn out_of_range_apply_input_is_refused_before_logging() {
    let mut server = server_with(AdmissionConfig::default(), StoreConfig::default(), 1, 11);
    assert!(server.submit(0, env(0, 0, 1), Request::IsValid).is_none());
    assert!(matches!(
        ok_response(&server.dispatch(1)[0]),
        Response::Valid(_)
    ));
    let log_before = server.store().log_len(SessionId(0)).unwrap();

    let input = UserInput::single(AttrId(999), Value::int(1));
    assert!(server
        .submit(2, env(0, 0, 2), Request::ApplyInput { input })
        .is_none());
    let replies = server.dispatch(3);
    assert_eq!(replies.len(), 1);
    match &replies[0].outcome {
        Err(ServeError::Store { message }) => {
            assert!(message.contains("unknown attribute"), "got: {message}")
        }
        other => panic!("expected a typed store error, got {other:?}"),
    }
    assert_eq!(
        server.store().log_len(SessionId(0)).unwrap(),
        log_before,
        "nothing logged"
    );
    assert_eq!(server.telemetry().failed, 1);

    assert!(server.submit(4, env(0, 0, 3), Request::IsValid).is_none());
    assert!(matches!(
        ok_response(&server.dispatch(5)[0]),
        Response::Valid(_)
    ));

    let rehydrations = server.store().recovery().rehydrations;
    assert!(server.store_mut().evict(SessionId(0)).unwrap());
    assert!(server.submit(6, env(0, 0, 4), Request::IsValid).is_none());
    assert!(matches!(
        ok_response(&server.dispatch(7)[0]),
        Response::Valid(_)
    ));
    assert_eq!(server.store().recovery().rehydrations, rehydrations + 1);
}

/// An `ApplyInput` with no values carries no information: it is answered
/// with an empty extension, logs nothing and leaves the entity (and so
/// the encoding) as it was.
#[test]
fn empty_apply_input_logs_nothing_and_keeps_the_entity() {
    let mut server = server_with(AdmissionConfig::default(), StoreConfig::default(), 1, 11);
    let id = SessionId(0);
    let log_before = server.store().log_len(id).unwrap();
    let tuples_before = server
        .store_mut()
        .session(id)
        .unwrap()
        .current()
        .entity()
        .len();

    let input = UserInput::empty();
    assert!(server
        .submit(0, env(0, 0, 1), Request::ApplyInput { input })
        .is_none());
    let replies = server.dispatch(1);
    assert_eq!(replies.len(), 1);
    assert!(matches!(
        ok_response(&replies[0]),
        Response::Applied { added: 0 }
    ));

    assert_eq!(
        server.store().log_len(id).unwrap(),
        log_before,
        "nothing logged"
    );
    let session = server.store_mut().session(id).unwrap();
    assert_eq!(
        session.current().entity().len(),
        tuples_before,
        "no tuple pushed"
    );
}

mod hostile {
    //! Hostile requests: every request variant, decoded off the wire, with
    //! attribute, tuple and CFD ids drawn past the session's arity, entity
    //! length and |Γ|, and random values and causal stamps.

    use super::*;
    use cr_core::causal::CausalRevision;
    use cr_core::ingest::Revision;
    use cr_server::proto::{decode_message, encode_message, Message};
    use cr_types::{CausalStamp, Hlc, SourceId, TupleId, VectorClock};
    use proptest::prelude::*;

    fn value() -> BoxedStrategy<Value> {
        prop_oneof![
            Just(Value::Null),
            (-4i64..4).prop_map(Value::int),
            "[a-c]{0,2}".prop_map(Value::str),
        ]
        .boxed()
    }

    /// Arities are 3–5: ids past them, up to the largest id.
    fn attr() -> BoxedStrategy<AttrId> {
        prop_oneof![(0u16..8).prop_map(AttrId), Just(AttrId(u16::MAX))].boxed()
    }

    /// Entities start at 4 tuples and grow one per input.
    fn tuple_id() -> BoxedStrategy<TupleId> {
        prop_oneof![(0u32..12).prop_map(TupleId), Just(TupleId(u32::MAX))].boxed()
    }

    /// |Γ| is 0–3.
    fn cfd() -> BoxedStrategy<usize> {
        prop_oneof![0usize..6, Just(usize::MAX)].boxed()
    }

    fn revision() -> BoxedStrategy<Revision> {
        prop_oneof![
            cfd().prop_map(|cfd| Revision::RetractCfd { cfd }),
            (attr(), tuple_id(), tuple_id()).prop_map(|(attr, lo, hi)| Revision::WithdrawOrder {
                attr,
                lo,
                hi
            }),
            (attr(), tuple_id()).prop_map(|(attr, tuple)| Revision::WithdrawAnswer { attr, tuple }),
            (tuple_id(), attr(), value()).prop_map(|(tuple, attr, value)| Revision::ReplaceValue {
                tuple,
                attr,
                value
            }),
        ]
        .boxed()
    }

    fn stamp() -> BoxedStrategy<CausalStamp> {
        let vclock = prop::collection::vec(((0u32..4).prop_map(SourceId), 0u64..6), 0..3).prop_map(
            |entries| {
                let mut vc = VectorClock::new();
                for (s, n) in entries {
                    vc.observe(s, n);
                }
                vc
            },
        );
        ((0u32..4).prop_map(SourceId), (0u64..8, 0u32..2), vclock)
            .prop_map(|(source, (p, l), vclock)| CausalStamp {
                source,
                hlc: Hlc::new(p, l),
                vclock,
            })
            .boxed()
    }

    fn method() -> BoxedStrategy<DeductionMethod> {
        prop_oneof![
            Just(DeductionMethod::UnitPropagation),
            Just(DeductionMethod::NaiveSat)
        ]
        .boxed()
    }

    fn request() -> BoxedStrategy<Request> {
        prop_oneof![
            Just(Request::IsValid),
            method().prop_map(|method| Request::Deduce { method }),
            method().prop_map(|method| Request::TrueValues { method }),
            method().prop_map(|method| Request::Suggest { method }),
            prop::collection::vec((attr(), value()), 0..3).prop_map(|pairs| {
                let mut input = UserInput::empty();
                input.values.extend(pairs);
                Request::ApplyInput { input }
            }),
            prop::collection::vec(
                (stamp(), revision()).prop_map(|(stamp, rev)| CausalRevision { stamp, rev }),
                0..3,
            )
            .prop_map(|events| Request::IngestCausal { events }),
            prop::collection::vec(revision(), 0..3).prop_map(|revs| Request::AbsorbBatch { revs }),
            Just(Request::Snapshot),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every reply is `Ok` or a typed `ServeError`, nothing panics,
        /// the serving telemetry reconciles, and every session still
        /// rehydrates and serves a read after eviction.
        #[test]
        fn hostile_requests_get_typed_replies_and_sessions_rehydrate(
            seed in 0u64..64,
            // (session, idempotency key, request); session 2 is unknown.
            script in prop::collection::vec(
                (0u64..3, prop::option::of(0u64..4), request()),
                1..24,
            ),
        ) {
            let store = StoreConfig { snapshot_every: 4, ..StoreConfig::default() };
            let mut server = server_with(AdmissionConfig::default(), store, 2, seed);
            let mut now = 0;
            for (rid, (session, idem, req)) in script.into_iter().enumerate() {
                let mut e = env(0, session, rid as u64);
                e.idempotency = idem.map(IdemKey);
                let bytes = encode_message(&Message::Request { env: e, req });
                let Ok(Message::Request { env: e, req }) = decode_message(&bytes) else {
                    return Err(TestCaseError::fail("request did not decode"));
                };
                // Submit-time rejections and dispatched replies are both
                // `Reply`s: their outcome type admits only `Ok` or a
                // typed `ServeError`.
                let _ = server.submit(now, e, req);
                now += 1;
                let _ = server.dispatch(now);
            }
            while server.queued() > 0 {
                now += 1;
                let _ = server.dispatch(now);
            }
            let t = server.telemetry();
            prop_assert_eq!(
                t.admitted,
                t.served + t.failed + t.expired_in_queue + t.expired_mid_request,
                "telemetry does not reconcile: {}",
                t
            );

            for session in 0..2u64 {
                server.store_mut().evict(SessionId(session)).unwrap();
                let rehydrations = server.store().recovery().rehydrations;
                now += 1;
                prop_assert!(server.submit(now, env(1, session, 1_000 + session), Request::IsValid).is_none());
                let replies = server.dispatch(now);
                prop_assert_eq!(replies.len(), 1);
                prop_assert!(
                    matches!(replies[0].outcome, Ok(Response::Valid(_))),
                    "session {} did not serve after eviction: {:?}",
                    session,
                    replies[0].outcome
                );
                prop_assert_eq!(server.store().recovery().rehydrations, rehydrations + 1);
            }
        }
    }
}
