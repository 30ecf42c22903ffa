//! Roundtrip and decode-safety properties of the durable log codec.
//!
//! Every [`LogRecord`] shape — all four [`Revision`] variants (plain and
//! causally stamped, with full [`CausalStamp`]s), user inputs, batch-commit
//! markers, and snapshot records over arbitrary [`SessionState`]s
//! (competing cells, quarantine entries, and epoch included) — must
//! roundtrip bit-exactly
//! through `encode`/`decode`. Decode must be total: truncation at **every**
//! byte yields a typed [`CodecError`] (never a panic), and any bit flip in
//! a framed record is caught at the frame layer.

use cr_core::causal::{CausalRevision, FrontierState};
use cr_core::ingest::{
    AnswerState, CompetingCell, Revision, RevisionError, RevisionTelemetry, SessionState,
};
use cr_core::spec::UserInput;
use cr_store::event::SnapshotRecord;
use cr_store::{LogRecord, FORMAT_VERSION};
use cr_types::codec::{write_frame, CodecError, FrameScanner};
use cr_types::{AttrId, CausalStamp, Epoch, Hlc, SourceId, TupleId, Value, VectorClock};
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
    ((0u64..1 << 40), (0u32..16))
        .prop_map(|(p, l)| Hlc::new(p, l))
        .boxed()
}

fn vclock() -> BoxedStrategy<VectorClock> {
    // Nonzero sequence numbers only: the codec canonicalises zero entries
    // away (absent ≡ 0), which is checked separately below.
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
        .prop_map(|(source, hlc, vclock)| CausalStamp {
            source,
            hlc,
            vclock,
        })
        .boxed()
}

fn attr() -> BoxedStrategy<AttrId> {
    (0u16..40).prop_map(AttrId).boxed()
}

fn tuple_id() -> BoxedStrategy<TupleId> {
    (0u32..40).prop_map(TupleId).boxed()
}

/// Every `Revision` variant.
fn revision() -> BoxedStrategy<Revision> {
    prop_oneof![
        (0usize..1000).prop_map(|cfd| Revision::RetractCfd { cfd }),
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

fn frontier() -> BoxedStrategy<FrontierState> {
    (
        prop::collection::vec((source(), 1u64..64), 0..3),
        prop::collection::vec(
            (stamp(), revision()).prop_map(|(stamp, rev)| CausalRevision { stamp, rev }),
            0..3,
        ),
        prop::collection::vec((source(), hlc()), 0..3),
        prop::collection::vec(
            (
                tuple_id(),
                attr(),
                prop::collection::vec((stamp(), value()), 0..3),
            ),
            0..3,
        ),
        (0u64..100, 0u64..100, 0u64..100),
    )
        .prop_map(
            |(delivered, buffered, seen, writes, (d, b, c))| FrontierState {
                delivered,
                buffered,
                seen,
                writes,
                duplicates: d,
                buffered_total: b,
                concurrent_conflicts: c,
            },
        )
        .boxed()
}

/// Every `RevisionError` variant — quarantine entries persist the error
/// alongside the rejected revision.
fn revision_error() -> BoxedStrategy<RevisionError> {
    prop_oneof![
        (0usize..1000, 0usize..1000)
            .prop_map(|(cfd, gamma_len)| RevisionError::UnknownCfd { cfd, gamma_len }),
        (0usize..1000).prop_map(|cfd| RevisionError::StaleCfd { cfd }),
        (attr(), 0usize..64).prop_map(|(attr, arity)| RevisionError::UnknownAttr { attr, arity }),
        (tuple_id(), 0usize..64)
            .prop_map(|(tuple, len)| RevisionError::UnknownTuple { tuple, len }),
        (attr(), tuple_id(), tuple_id()).prop_map(|(attr, lo, hi)| RevisionError::UnknownOrder {
            attr,
            lo,
            hi
        }),
    ]
    .boxed()
}

fn competing() -> BoxedStrategy<CompetingCell> {
    (
        tuple_id(),
        attr(),
        (0u8..2).prop_map(|b| b == 1),
        prop::collection::vec((source(), value()), 0..3),
    )
        .prop_map(|(tuple, attr, reopened, candidates)| CompetingCell {
            tuple,
            attr,
            reopened,
            candidates,
        })
        .boxed()
}

fn session_state() -> BoxedStrategy<SessionState> {
    (
        prop::collection::vec(prop::collection::vec(value(), 0..4), 0..3),
        prop::collection::vec((attr(), tuple_id(), tuple_id()), 0..4),
        prop::collection::vec(0usize..32, 0..3),
        prop::collection::vec(
            (attr(), tuple_id(), value(), vclock()).prop_map(|(attr, tuple, value, deps)| {
                AnswerState {
                    attr,
                    tuple,
                    value,
                    deps,
                }
            }),
            0..3,
        ),
        frontier(),
        (
            prop::collection::vec(0usize..10_000, 10),
            prop::collection::vec(competing(), 0..3),
            prop::collection::vec((revision(), revision_error()), 0..3),
            0u64..10_000,
        ),
    )
        .prop_map(
            |(tuples, orders, retired_cfds, answers, frontier, (t, competing, quarantine, e))| {
                SessionState {
                    tuples,
                    orders,
                    retired_cfds,
                    answers,
                    frontier,
                    telemetry: RevisionTelemetry {
                        events: t[0],
                        duplicates_dropped: t[1],
                        buffered: t[2],
                        quarantined: t[3],
                        reopened: t[4],
                        quarantine_evicted: t[5],
                        batches: t[6],
                        events_coalesced: t[7],
                        cone_union: t[8],
                        replays_saved: t[9],
                    },
                    competing,
                    quarantine,
                    epoch: Epoch(e),
                }
            },
        )
        .boxed()
}

/// Every `LogRecord` shape, snapshot records included.
fn log_record() -> BoxedStrategy<LogRecord> {
    prop_oneof![
        user_input().prop_map(LogRecord::Input),
        (stamp(), revision())
            .prop_map(|(stamp, rev)| LogRecord::Causal(CausalRevision { stamp, rev })),
        revision().prop_map(LogRecord::Revision),
        ((0u64..1000), session_state()).prop_map(|(events_covered, state)| {
            LogRecord::Snapshot(Box::new(SnapshotRecord {
                events_covered,
                state,
            }))
        }),
        ((0u64..10_000), (0u64..1000))
            .prop_map(|(epoch, events)| LogRecord::BatchMark { epoch, events }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every record shape roundtrips bit-exactly through its versioned
    /// payload encoding.
    #[test]
    fn log_record_roundtrips(rec in log_record()) {
        let payload = rec.encode();
        prop_assert_eq!(payload[0], FORMAT_VERSION);
        let back = LogRecord::decode(&payload)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(back, rec);
    }

    /// Truncating a record payload at **every** byte yields a typed
    /// `Truncated` error — no panic, no bogus success. A decoder with no
    /// lookahead follows the identical step sequence on a strict prefix
    /// until it runs out of bytes, so nothing else is acceptable.
    #[test]
    fn truncation_at_every_byte_is_a_typed_error(rec in log_record()) {
        let payload = rec.encode();
        for cut in 0..payload.len() {
            match LogRecord::decode(&payload[..cut]) {
                Err(CodecError::Truncated { .. }) => {}
                other => {
                    return Err(TestCaseError::fail(format!(
                        "decode of {cut}-byte prefix of a {}-byte payload returned {other:?}, \
                         expected CodecError::Truncated",
                        payload.len()
                    )));
                }
            }
        }
    }

    /// A framed record cut at every byte scans as clean-empty (cut before
    /// any length byte) or a typed truncation — and the valid prefix length
    /// is always 0.
    #[test]
    fn framed_truncation_at_every_byte_is_safe(rec in log_record()) {
        let mut frame = Vec::new();
        write_frame(&mut frame, &rec.encode());
        for cut in 0..frame.len() {
            let mut scanner = FrameScanner::new(&frame[..cut]);
            match scanner.next() {
                Ok(None) if cut == 0 => {}
                Err(CodecError::Truncated { .. }) => {}
                other => {
                    return Err(TestCaseError::fail(format!(
                        "scan of {cut}-byte prefix returned {other:?}"
                    )));
                }
            }
            prop_assert_eq!(scanner.valid_len(), 0);
        }
    }

    /// Any single bit flip anywhere in a framed record is detected: the
    /// scan fails (checksum mismatch or implausible length) and never
    /// returns a frame whose payload decodes to a *different* record.
    #[test]
    fn bit_flips_in_framed_records_are_detected(
        rec in log_record(),
        byte_pick in 0u64..1 << 32,
        bit in 0u8..8,
    ) {
        let mut frame = Vec::new();
        write_frame(&mut frame, &rec.encode());
        let at = (byte_pick % frame.len() as u64) as usize;
        frame[at] ^= 1 << bit;
        let mut scanner = FrameScanner::new(&frame);
        match scanner.next() {
            Err(_) => {}
            Ok(None) => {}
            Ok(Some(payload)) => {
                // A flipped length byte can re-frame the bytes; the CRC
                // catching it elsewhere is what makes this astronomically
                // unlikely — but the hard guarantee is: no silent wrong
                // record.
                if let Ok(back) = LogRecord::decode(payload) {
                    prop_assert_eq!(back, rec);
                }
            }
        }
    }
}

/// Zero vector-clock entries are canonicalised away by the codec: a clock
/// that observed `(s, 0)` encodes identically to one that never saw `s`,
/// and `get` treats both as 0.
#[test]
fn zero_vclock_entries_canonicalise() {
    let mut with_zero = VectorClock::new();
    with_zero.observe(SourceId(3), 0);
    with_zero.observe(SourceId(5), 7);
    let mut without = VectorClock::new();
    without.observe(SourceId(5), 7);

    let rec = |vc: &VectorClock| {
        let stamp = CausalStamp {
            source: SourceId(5),
            hlc: Hlc::new(1, 0),
            vclock: vc.clone(),
        };
        LogRecord::Causal(CausalRevision {
            stamp,
            rev: Revision::RetractCfd { cfd: 1 },
        })
        .encode()
    };
    assert_eq!(rec(&with_zero), rec(&without));

    let back = LogRecord::decode(&rec(&with_zero)).unwrap();
    let LogRecord::Causal(ev) = back else {
        panic!("wrong variant")
    };
    assert_eq!(ev.stamp.vclock.get(SourceId(3)), 0);
    assert_eq!(ev.stamp.vclock.get(SourceId(5)), 7);
}

/// An unknown format version is a typed error, not a guess: recovery
/// treats it as corruption and truncates to the last understood frame.
#[test]
fn unknown_format_version_is_rejected() {
    let mut payload = LogRecord::Revision(Revision::RetractCfd { cfd: 2 }).encode();
    payload[0] = FORMAT_VERSION + 1;
    match LogRecord::decode(&payload) {
        Err(CodecError::UnsupportedVersion { version, .. }) => {
            assert_eq!(version, FORMAT_VERSION + 1);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// An unknown record tag is a typed error.
#[test]
fn unknown_record_tag_is_rejected() {
    let payload = vec![FORMAT_VERSION, 0xEE];
    match LogRecord::decode(&payload) {
        Err(CodecError::BadTag { tag: 0xEE, .. }) => {}
        other => panic!("expected BadTag, got {other:?}"),
    }
}

/// Trailing bytes after a well-formed record are a typed error — a frame
/// holds exactly one record.
#[test]
fn trailing_bytes_are_rejected() {
    let mut payload = LogRecord::Revision(Revision::RetractCfd { cfd: 2 }).encode();
    payload.push(0);
    match LogRecord::decode(&payload) {
        Err(CodecError::TrailingBytes { remaining: 1 }) => {}
        other => panic!("expected TrailingBytes, got {other:?}"),
    }
}
