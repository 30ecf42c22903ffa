//! Roundtrip and decode-safety properties of the serving protocol codec.
//!
//! Every protocol record — all eight [`Request`] variants (with full
//! causal stamps on ingested events), every [`Response`] shape, every
//! [`ServeError`], [`Reply`]s in both outcomes, and complete [`Message`]s
//! in either direction — must roundtrip bit-exactly through
//! `encode_message`/`decode_message`. Decode must be total: truncation at
//! **every** byte yields a typed [`CodecError::Truncated`] (never a
//! panic), unknown versions and tags are typed errors, and trailing bytes
//! are rejected — mirroring the durable-log codec suite in
//! `cr-store/tests/codec_proptest.rs`.
//!
//! A frame fuzzer closes the loop: random byte strings, single-byte flips
//! and splices of valid encodings go through `decode_message`, and every
//! request that decodes is submitted to and dispatched on a live server —
//! nothing may panic, and every submission ends in one typed reply.

use cr_core::causal::CausalRevision;
use cr_core::framework::DeductionMethod;
use cr_core::ingest::Revision;
use cr_core::spec::UserInput;
use cr_data::gen::scenario_from_raw;
use cr_server::admission::AdmissionConfig;
use cr_server::proto::{
    decode_message, encode_message, Message, Reply, Request, Response, ServeError,
    PROTO_VERSION,
};
use cr_server::server::Server;
use cr_store::{MemoryBackend, SessionStore, StoreConfig};
use cr_types::codec::CodecError;
use cr_types::wire::{Envelope, IdemKey, RequestId, TenantId};
use cr_types::{AttrId, CausalStamp, Hlc, SourceId, TupleId, Value, VectorClock};
use proptest::prelude::*;

fn value() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        (-1_000_000i64..1_000_000).prop_map(Value::int),
        (-1_000_000i64..1_000_000).prop_map(|n| Value::float(n as f64 / 97.0)),
        "[a-z0-9_]{0,12}".prop_map(Value::str),
    ]
    .boxed()
}

fn source() -> BoxedStrategy<SourceId> {
    (0u32..6).prop_map(SourceId).boxed()
}

fn hlc() -> BoxedStrategy<Hlc> {
    ((0u64..1 << 40), (0u32..16)).prop_map(|(p, l)| Hlc::new(p, l)).boxed()
}

fn vclock() -> BoxedStrategy<VectorClock> {
    prop::collection::vec((source(), 1u64..64), 0..4)
        .prop_map(|entries| {
            let mut vc = VectorClock::new();
            for (s, n) in entries {
                vc.observe(s, n);
            }
            vc
        })
        .boxed()
}

fn stamp() -> BoxedStrategy<CausalStamp> {
    (source(), hlc(), vclock())
        .prop_map(|(source, hlc, vclock)| CausalStamp { source, hlc, vclock })
        .boxed()
}

fn attr() -> BoxedStrategy<AttrId> {
    (0u16..40).prop_map(AttrId).boxed()
}

fn tuple_id() -> BoxedStrategy<TupleId> {
    (0u32..40).prop_map(TupleId).boxed()
}

fn revision() -> BoxedStrategy<Revision> {
    prop_oneof![
        (0usize..1000).prop_map(|cfd| Revision::RetractCfd { cfd }),
        (attr(), tuple_id(), tuple_id())
            .prop_map(|(attr, lo, hi)| Revision::WithdrawOrder { attr, lo, hi }),
        (attr(), tuple_id()).prop_map(|(attr, tuple)| Revision::WithdrawAnswer { attr, tuple }),
        (tuple_id(), attr(), value())
            .prop_map(|(tuple, attr, value)| Revision::ReplaceValue { tuple, attr, value }),
    ]
    .boxed()
}

fn user_input() -> BoxedStrategy<UserInput> {
    prop::collection::vec((attr(), value()), 0..4)
        .prop_map(|pairs| {
            let mut input = UserInput::empty();
            for (a, v) in pairs {
                input.values.insert(a, v);
            }
            input
        })
        .boxed()
}

fn method() -> BoxedStrategy<DeductionMethod> {
    prop_oneof![Just(DeductionMethod::UnitPropagation), Just(DeductionMethod::NaiveSat)].boxed()
}

/// Every `Request` variant.
fn request() -> BoxedStrategy<Request> {
    prop_oneof![
        Just(Request::IsValid),
        method().prop_map(|method| Request::Deduce { method }),
        method().prop_map(|method| Request::TrueValues { method }),
        method().prop_map(|method| Request::Suggest { method }),
        user_input().prop_map(|input| Request::ApplyInput { input }),
        prop::collection::vec(
            (stamp(), revision()).prop_map(|(stamp, rev)| CausalRevision { stamp, rev }),
            0..4,
        )
        .prop_map(|events| Request::IngestCausal { events }),
        prop::collection::vec(revision(), 0..4).prop_map(|revs| Request::AbsorbBatch { revs }),
        Just(Request::Snapshot),
    ]
    .boxed()
}

fn opt_value() -> BoxedStrategy<Option<Value>> {
    prop_oneof![Just(None), value().prop_map(Some)].boxed()
}

/// Every `Response` variant.
fn response() -> BoxedStrategy<Response> {
    prop_oneof![
        (0u8..2).prop_map(|b| Response::Valid(b == 1)),
        ((0u8..2), (0u64..10_000)).prop_map(|(found, order_pairs)| Response::Deduced {
            found: found == 1,
            order_pairs,
        }),
        prop::collection::vec(opt_value(), 0..5)
            .prop_map(|values| Response::TrueValues { values }),
        (
            prop::collection::vec((attr(), prop::collection::vec(value(), 0..3)), 0..3),
            prop::collection::vec(attr(), 0..3),
        )
            .prop_map(|(ask, derived)| Response::Suggest { ask, derived }),
        (0u64..10_000).prop_map(|added| Response::Applied { added }),
        ((0u64..10_000), (0u64..10_000))
            .prop_map(|(effective, epoch)| Response::Ingested { effective, epoch }),
        ((0u64..10_000), prop::collection::vec((0u8..2).prop_map(|b| b == 1), 0..5))
            .prop_map(|(epoch, applied)| Response::Absorbed { epoch, applied }),
        (0u64..1 << 40).prop_map(|log_bytes| Response::Snapshotted { log_bytes }),
    ]
    .boxed()
}

/// Every `ServeError` variant.
fn serve_error() -> BoxedStrategy<ServeError> {
    prop_oneof![
        (0u64..1000).prop_map(|retry_after| ServeError::Overloaded { retry_after }),
        ((0u64..1 << 40), (0u64..1 << 40), (0u8..2)).prop_map(|(deadline, now, q)| {
            ServeError::DeadlineExceeded { deadline, now, queued: q == 1 }
        }),
        (0u64..1000).prop_map(|session| ServeError::UnknownSession { session }),
        "[a-z0-9 :_]{0,24}".prop_map(|message| ServeError::Store { message }),
    ]
    .boxed()
}

fn envelope() -> BoxedStrategy<Envelope> {
    (
        (0u64..1 << 40),
        (0u32..64),
        (0u64..1000),
        prop_oneof![Just(None), (0u64..1 << 40).prop_map(Some)],
        prop_oneof![Just(None), (0u64..1 << 40).prop_map(|k| Some(IdemKey(k)))],
    )
        .prop_map(|(rid, tenant, session, deadline, idempotency)| Envelope {
            request_id: RequestId(rid),
            tenant: TenantId(tenant),
            session,
            deadline,
            idempotency,
        })
        .boxed()
}

fn reply() -> BoxedStrategy<Reply> {
    (
        (0u64..1 << 40),
        prop_oneof![response().prop_map(Ok), serve_error().prop_map(Err)],
    )
        .prop_map(|(rid, outcome)| Reply { request_id: RequestId(rid), outcome })
        .boxed()
}

/// Every `Message` shape in either direction.
fn message() -> BoxedStrategy<Message> {
    prop_oneof![
        (envelope(), request()).prop_map(|(env, req)| Message::Request { env, req }),
        reply().prop_map(Message::Reply),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every message shape roundtrips bit-exactly through the versioned
    /// wire encoding.
    #[test]
    fn message_roundtrips(msg in message()) {
        let bytes = encode_message(&msg);
        prop_assert_eq!(bytes[0], PROTO_VERSION);
        let back = decode_message(&bytes)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(back, msg);
    }

    /// Truncating an encoded message at **every** byte yields a typed
    /// `Truncated` error — no panic, no bogus success. A decoder with no
    /// lookahead follows the identical step sequence on a strict prefix
    /// until it runs out of bytes, so nothing else is acceptable.
    #[test]
    fn truncation_at_every_byte_is_a_typed_error(msg in message()) {
        let bytes = encode_message(&msg);
        for cut in 0..bytes.len() {
            match decode_message(&bytes[..cut]) {
                Err(CodecError::Truncated { .. }) => {}
                other => {
                    return Err(TestCaseError::fail(format!(
                        "decode of {cut}-byte prefix of a {}-byte message returned {other:?}, \
                         expected CodecError::Truncated",
                        bytes.len()
                    )));
                }
            }
        }
    }

    /// Trailing bytes after a well-formed message are a typed error — the
    /// channel frames exactly one message per payload.
    #[test]
    fn trailing_bytes_are_rejected(msg in message()) {
        let mut bytes = encode_message(&msg);
        bytes.push(0);
        match decode_message(&bytes) {
            Err(CodecError::TrailingBytes { .. }) => {}
            other => {
                return Err(TestCaseError::fail(format!(
                    "expected TrailingBytes, got {other:?}"
                )));
            }
        }
    }
}

/// An unknown protocol version is a typed error, not a guess.
#[test]
fn unknown_protocol_version_is_rejected() {
    let msg = Message::Request {
        env: Envelope {
            request_id: RequestId(1),
            tenant: TenantId(0),
            session: 0,
            deadline: None,
            idempotency: None,
        },
        req: Request::IsValid,
    };
    let mut bytes = encode_message(&msg);
    bytes[0] = PROTO_VERSION + 1;
    match decode_message(&bytes) {
        Err(CodecError::UnsupportedVersion { version, .. }) => {
            assert_eq!(version, PROTO_VERSION + 1);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// An unknown message direction tag is a typed error.
#[test]
fn unknown_message_tag_is_rejected() {
    let bytes = vec![PROTO_VERSION, 0xEE];
    match decode_message(&bytes) {
        Err(CodecError::BadTag { tag: 0xEE, .. }) => {}
        other => panic!("expected BadTag, got {other:?}"),
    }
}

/// An unknown request tag is a typed error.
#[test]
fn unknown_request_tag_is_rejected() {
    let msg = Message::Request {
        env: Envelope {
            request_id: RequestId(1),
            tenant: TenantId(0),
            session: 0,
            deadline: None,
            idempotency: None,
        },
        req: Request::Snapshot,
    };
    let mut bytes = encode_message(&msg);
    // The request tag is the final byte of this message (Snapshot has no
    // payload).
    *bytes.last_mut().unwrap() = 0xEE;
    match decode_message(&bytes) {
        Err(CodecError::BadTag { tag: 0xEE, what }) => assert_eq!(what, "Request"),
        other => panic!("expected BadTag, got {other:?}"),
    }
}

/// The first two bytes of every encoded request: protocol version and
/// message direction.
fn request_header() -> Vec<u8> {
    let env = Envelope {
        request_id: RequestId(0),
        tenant: TenantId(0),
        session: 0,
        deadline: None,
        idempotency: None,
    };
    encode_message(&Message::Request { env, req: Request::IsValid })[..2].to_vec()
}

/// A valid request for session 0 or 1 (the fuzz server's) or 2 (unknown).
fn request_message() -> BoxedStrategy<Message> {
    (envelope(), request())
        .prop_map(|(mut env, req)| {
            env.session %= 3;
            Message::Request { env, req }
        })
        .boxed()
}

/// One fuzzed frame payload: random bytes (half of them behind a valid
/// request header), a valid request with one byte flipped, or the head of
/// one valid request spliced onto the tail of another — or, so mutated
/// requests meet sessions with state, an intact valid request.
fn fuzzed_bytes() -> BoxedStrategy<Vec<u8>> {
    prop_oneof![
        request_message().prop_map(|msg| encode_message(&msg)),
        ((0u8..2), prop::collection::vec(0u8..=255, 0..48)).prop_map(|(headed, tail)| {
            let mut bytes = if headed == 1 { request_header() } else { Vec::new() };
            bytes.extend(tail);
            bytes
        }),
        (request_message(), 0usize..4096, 1u8..=255).prop_map(|(msg, at, mask)| {
            let mut bytes = encode_message(&msg);
            let at = at % bytes.len();
            bytes[at] ^= mask;
            bytes
        }),
        (request_message(), request_message(), 0usize..4096, 0usize..4096).prop_map(
            |(head, tail, i, j)| {
                let (head, tail) = (encode_message(&head), encode_message(&tail));
                let mut bytes = head[..i % (head.len() + 1)].to_vec();
                bytes.extend_from_slice(&tail[j % (tail.len() + 1)..]);
                bytes
            }
        ),
    ]
    .boxed()
}

/// Decodes every input; each `Message::Request` that decodes is submitted
/// to a two-session server over an in-memory store (its session folded
/// onto 0, 1 or the unknown 2), and the queues are drained. Every
/// submission must end in exactly one reply for its request id — a typed
/// response or a typed `ServeError`, either at submit or at dispatch.
fn serve_fuzzed(inputs: &[Vec<u8>]) -> Result<(), TestCaseError> {
    let config = StoreConfig { snapshot_every: 4, ..StoreConfig::default() };
    let store = SessionStore::new(MemoryBackend::new(), config).unwrap();
    let mut server = Server::new(store, AdmissionConfig::default());
    for s in 0..2 {
        server.open(s, &scenario_from_raw(s, 4, 3, 60, false).spec);
    }
    let (mut submitted, mut replied) = (Vec::new(), Vec::new());
    let mut now = 0;
    for bytes in inputs {
        let Ok(Message::Request { mut env, req }) = decode_message(bytes) else {
            continue;
        };
        env.session %= 3;
        submitted.push(env.request_id);
        replied.extend(server.submit(now, env, req).map(|r| r.request_id));
        replied.extend(server.dispatch(now).iter().map(|r| r.request_id));
        now += 1;
    }
    while server.queued() > 0 {
        replied.extend(server.dispatch(now).iter().map(|r| r.request_id));
        now += 1;
    }
    submitted.sort();
    replied.sort();
    prop_assert_eq!(submitted, replied, "a submission ended without exactly one reply");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decode is total on fuzzed frames: a typed error or a message that
    /// roundtrips through its own encoding, never a panic.
    #[test]
    fn fuzzed_frames_decode_to_a_typed_result(bytes in fuzzed_bytes()) {
        if let Ok(msg) = decode_message(&bytes) {
            prop_assert_eq!(decode_message(&encode_message(&msg)), Ok(msg));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever decodes is served: every fuzzed request that survives
    /// decoding gets exactly one typed reply, and nothing panics.
    #[test]
    fn decoded_fuzzed_requests_get_typed_replies(
        inputs in prop::collection::vec(fuzzed_bytes(), 1..12),
    ) {
        serve_fuzzed(&inputs)?;
    }
}
