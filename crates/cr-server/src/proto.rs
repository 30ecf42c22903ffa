//! The typed request/response protocol.
//!
//! Every client-visible operation of the serving layer is a [`Request`]
//! wrapped in a versioned [`Envelope`] (`cr_types::wire`); the server
//! answers with a [`Reply`] echoing the request id and carrying either a
//! [`Response`] or a typed [`ServeError`]. Both directions travel as a
//! [`Message`] encoded with the same hand-rolled binary codec the durable
//! log uses — payload codecs are shared with `cr_store::event`
//! (`encode_input`, `encode_revision`, `encode_causal`), so a request
//! byte string is decodable by exactly the machinery that will replay it.
//!
//! # Versioning and totality
//!
//! Every encoded [`Message`] begins with [`PROTO_VERSION`]; decoders
//! accept exactly the versions they know and fail with
//! [`CodecError::UnsupportedVersion`] otherwise. Decoding is **total**:
//! any byte string yields a value or a typed [`CodecError`], never a
//! panic — the proptests assert roundtrip plus
//! truncation-at-every-byte = `CodecError::Truncated` for every record,
//! mirroring the durable-log codec suite.

use cr_core::causal::CausalRevision;
use cr_core::framework::DeductionMethod;
use cr_core::ingest::Revision;
use cr_core::spec::UserInput;
use cr_store::event::{
    decode_causal, decode_input, decode_revision, encode_causal, encode_input, encode_revision,
};
use cr_types::codec::{
    decode_value, encode_value, get_attr, get_usize, put_attr, CodecError, Dec, Enc,
};
use cr_types::wire::{decode_envelope, encode_envelope, Envelope, RequestId};
use cr_types::{AttrId, Value};

/// Protocol format version; bumped on any incompatible encoding change.
pub const PROTO_VERSION: u8 = 1;

/// One client-visible operation on a durable session.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Is the session's current specification valid? (Fig. 4 step 1.)
    IsValid,
    /// Deduce implied currency orders (Fig. 4 step 2).
    Deduce {
        /// Deduction algorithm to run.
        method: DeductionMethod,
    },
    /// Run validity → deduction → true-value extraction (three budget
    /// phases) and return the per-attribute true values.
    TrueValues {
        /// Deduction algorithm to run.
        method: DeductionMethod,
    },
    /// Full suggestion pipeline (four budget phases): what should the
    /// user be asked, with which candidate values?
    Suggest {
        /// Deduction algorithm to run.
        method: DeductionMethod,
    },
    /// Mutation: absorb one round of user input durably.
    ApplyInput {
        /// The user's attribute → value answers.
        input: UserInput,
    },
    /// Mutation: ingest causally-stamped corrections as one atomic batch.
    IngestCausal {
        /// The stamped events, in delivery order.
        events: Vec<CausalRevision>,
    },
    /// Mutation: absorb plain (unstamped) revisions as one atomic batch.
    AbsorbBatch {
        /// The revisions, in delivery order.
        revs: Vec<Revision>,
    },
    /// Mutation: append a snapshot record at the current state.
    Snapshot,
}

impl Request {
    /// Whether the request mutates the durable log (and therefore must
    /// carry an idempotency key to be safely retried).
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            Request::ApplyInput { .. }
                | Request::IngestCausal { .. }
                | Request::AbsorbBatch { .. }
                | Request::Snapshot
        )
    }

    /// Short stable name for telemetry and bench labels.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::IsValid => "is_valid",
            Request::Deduce { .. } => "deduce",
            Request::TrueValues { .. } => "true_values",
            Request::Suggest { .. } => "suggest",
            Request::ApplyInput { .. } => "apply_input",
            Request::IngestCausal { .. } => "ingest_causal",
            Request::AbsorbBatch { .. } => "absorb_batch",
            Request::Snapshot => "snapshot",
        }
    }
}

/// A successful answer to a [`Request`] (same order of variants).
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::IsValid`].
    Valid(bool),
    /// Answer to [`Request::Deduce`].
    Deduced {
        /// False iff the specification was invalid (nothing deducible).
        found: bool,
        /// Number of deduced order pairs when `found`.
        order_pairs: u64,
    },
    /// Answer to [`Request::TrueValues`]: one slot per attribute, `None`
    /// = still ambiguous. Empty = the specification was invalid.
    TrueValues {
        /// Per-attribute true values.
        values: Vec<Option<Value>>,
    },
    /// Answer to [`Request::Suggest`]. Both empty = invalid or nothing
    /// to ask.
    Suggest {
        /// Attributes to ask the user about, with candidate values.
        ask: Vec<(AttrId, Vec<Value>)>,
        /// Attributes derivable from the selected conflict-free rules.
        derived: Vec<AttrId>,
    },
    /// Answer to [`Request::ApplyInput`].
    Applied {
        /// The engine's `|Ot|` extension size.
        added: u64,
    },
    /// Answer to [`Request::IngestCausal`].
    Ingested {
        /// Effective plain revisions applied (after dedup/buffering).
        effective: u64,
        /// The session epoch after the batch committed.
        epoch: u64,
    },
    /// Answer to [`Request::AbsorbBatch`].
    Absorbed {
        /// The session epoch after the batch committed.
        epoch: u64,
        /// Per-event applied flags (`false` = quarantined).
        applied: Vec<bool>,
    },
    /// Answer to [`Request::Snapshot`].
    Snapshotted {
        /// Durable log length after the snapshot landed.
        log_bytes: u64,
    },
}

/// A typed serving failure. Every variant is actionable by the client:
/// back off, retry, or give up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control shed the request — the tenant's token bucket is
    /// empty or its queue is full. Retry no sooner than `retry_after`
    /// ticks from now (plus client backoff/jitter).
    Overloaded {
        /// Minimum ticks until the tenant's budget can admit this
        /// request again.
        retry_after: u64,
    },
    /// The request ran past its deadline. `queued` tells where: `true` =
    /// cancelled at queue-dequeue time without touching the engine,
    /// `false` = expired between phases mid-request.
    DeadlineExceeded {
        /// The absolute deadline tick the request carried.
        deadline: u64,
        /// The tick the request had reached when it expired.
        now: u64,
        /// Whether it died in the queue (never executed).
        queued: bool,
    },
    /// The target session was never opened on this server.
    UnknownSession {
        /// The unknown session id.
        session: u64,
    },
    /// The durable store failed (I/O, corruption where not tolerable).
    Store {
        /// Human-readable store error.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { retry_after } => {
                write!(f, "overloaded: retry after {retry_after} ticks")
            }
            ServeError::DeadlineExceeded {
                deadline,
                now,
                queued,
            } => write!(
                f,
                "deadline {deadline} exceeded at tick {now} ({})",
                if *queued {
                    "cancelled in queue"
                } else {
                    "expired mid-request"
                }
            ),
            ServeError::UnknownSession { session } => {
                write!(f, "unknown session {session}")
            }
            ServeError::Store { message } => write!(f, "store error: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The server's answer to one request: the echoed request id plus either
/// a [`Response`] or a [`ServeError`].
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    /// The id of the request this answers.
    pub request_id: RequestId,
    /// The outcome.
    pub outcome: Result<Response, ServeError>,
}

/// A wire message: what actually travels on the (fault-injectable)
/// channel, in either direction.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Client → server: an enveloped request.
    Request {
        /// Routing + lifecycle metadata.
        env: Envelope,
        /// The operation.
        req: Request,
    },
    /// Server → client: a reply.
    Reply(Reply),
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

const REQ_IS_VALID: u8 = 0;
const REQ_DEDUCE: u8 = 1;
const REQ_TRUE_VALUES: u8 = 2;
const REQ_SUGGEST: u8 = 3;
const REQ_APPLY_INPUT: u8 = 4;
const REQ_INGEST_CAUSAL: u8 = 5;
const REQ_ABSORB_BATCH: u8 = 6;
const REQ_SNAPSHOT: u8 = 7;

const RESP_VALID: u8 = 0;
const RESP_DEDUCED: u8 = 1;
const RESP_TRUE_VALUES: u8 = 2;
const RESP_SUGGEST: u8 = 3;
const RESP_APPLIED: u8 = 4;
const RESP_INGESTED: u8 = 5;
const RESP_ABSORBED: u8 = 6;
const RESP_SNAPSHOTTED: u8 = 7;

const ERR_OVERLOADED: u8 = 0;
const ERR_DEADLINE: u8 = 1;
const ERR_UNKNOWN_SESSION: u8 = 2;
const ERR_STORE: u8 = 3;

const MSG_REQUEST: u8 = 0;
const MSG_REPLY: u8 = 1;

fn put_method(e: &mut Enc, m: DeductionMethod) {
    e.put_u8(match m {
        DeductionMethod::UnitPropagation => 0,
        DeductionMethod::NaiveSat => 1,
    });
}

fn get_method(d: &mut Dec<'_>) -> Result<DeductionMethod, CodecError> {
    match d.u8()? {
        0 => Ok(DeductionMethod::UnitPropagation),
        1 => Ok(DeductionMethod::NaiveSat),
        tag => Err(CodecError::BadTag {
            what: "DeductionMethod",
            tag,
        }),
    }
}

/// Encodes a [`Request`] body.
pub fn encode_request(e: &mut Enc, req: &Request) {
    match req {
        Request::IsValid => e.put_u8(REQ_IS_VALID),
        Request::Deduce { method } => {
            e.put_u8(REQ_DEDUCE);
            put_method(e, *method);
        }
        Request::TrueValues { method } => {
            e.put_u8(REQ_TRUE_VALUES);
            put_method(e, *method);
        }
        Request::Suggest { method } => {
            e.put_u8(REQ_SUGGEST);
            put_method(e, *method);
        }
        Request::ApplyInput { input } => {
            e.put_u8(REQ_APPLY_INPUT);
            encode_input(e, input);
        }
        Request::IngestCausal { events } => {
            e.put_u8(REQ_INGEST_CAUSAL);
            e.put_varint(events.len() as u64);
            for ev in events {
                encode_causal(e, ev);
            }
        }
        Request::AbsorbBatch { revs } => {
            e.put_u8(REQ_ABSORB_BATCH);
            e.put_varint(revs.len() as u64);
            for rev in revs {
                encode_revision(e, rev);
            }
        }
        Request::Snapshot => e.put_u8(REQ_SNAPSHOT),
    }
}

/// Decodes a [`Request`] body.
pub fn decode_request(d: &mut Dec<'_>) -> Result<Request, CodecError> {
    match d.u8()? {
        REQ_IS_VALID => Ok(Request::IsValid),
        REQ_DEDUCE => Ok(Request::Deduce {
            method: get_method(d)?,
        }),
        REQ_TRUE_VALUES => Ok(Request::TrueValues {
            method: get_method(d)?,
        }),
        REQ_SUGGEST => Ok(Request::Suggest {
            method: get_method(d)?,
        }),
        REQ_APPLY_INPUT => Ok(Request::ApplyInput {
            input: decode_input(d)?,
        }),
        REQ_INGEST_CAUSAL => {
            let count = get_usize(d)?;
            let mut events = Vec::new();
            for _ in 0..count {
                events.push(decode_causal(d)?);
            }
            Ok(Request::IngestCausal { events })
        }
        REQ_ABSORB_BATCH => {
            let count = get_usize(d)?;
            let mut revs = Vec::new();
            for _ in 0..count {
                revs.push(decode_revision(d)?);
            }
            Ok(Request::AbsorbBatch { revs })
        }
        REQ_SNAPSHOT => Ok(Request::Snapshot),
        tag => Err(CodecError::BadTag {
            what: "Request",
            tag,
        }),
    }
}

fn put_opt_value(e: &mut Enc, v: &Option<Value>) {
    match v {
        None => e.put_u8(0),
        Some(v) => {
            e.put_u8(1);
            encode_value(e, v);
        }
    }
}

fn get_opt_value(d: &mut Dec<'_>) -> Result<Option<Value>, CodecError> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some(decode_value(d)?)),
        tag => Err(CodecError::BadTag {
            what: "Option<Value>",
            tag,
        }),
    }
}

/// Encodes a [`Response`] body.
pub fn encode_response(e: &mut Enc, resp: &Response) {
    match resp {
        Response::Valid(v) => {
            e.put_u8(RESP_VALID);
            e.put_u8(u8::from(*v));
        }
        Response::Deduced { found, order_pairs } => {
            e.put_u8(RESP_DEDUCED);
            e.put_u8(u8::from(*found));
            e.put_varint(*order_pairs);
        }
        Response::TrueValues { values } => {
            e.put_u8(RESP_TRUE_VALUES);
            e.put_varint(values.len() as u64);
            for v in values {
                put_opt_value(e, v);
            }
        }
        Response::Suggest { ask, derived } => {
            e.put_u8(RESP_SUGGEST);
            e.put_varint(ask.len() as u64);
            for (attr, candidates) in ask {
                put_attr(e, *attr);
                e.put_varint(candidates.len() as u64);
                for v in candidates {
                    encode_value(e, v);
                }
            }
            e.put_varint(derived.len() as u64);
            for attr in derived {
                put_attr(e, *attr);
            }
        }
        Response::Applied { added } => {
            e.put_u8(RESP_APPLIED);
            e.put_varint(*added);
        }
        Response::Ingested { effective, epoch } => {
            e.put_u8(RESP_INGESTED);
            e.put_varint(*effective);
            e.put_varint(*epoch);
        }
        Response::Absorbed { epoch, applied } => {
            e.put_u8(RESP_ABSORBED);
            e.put_varint(*epoch);
            e.put_varint(applied.len() as u64);
            for a in applied {
                e.put_u8(u8::from(*a));
            }
        }
        Response::Snapshotted { log_bytes } => {
            e.put_u8(RESP_SNAPSHOTTED);
            e.put_varint(*log_bytes);
        }
    }
}

fn get_bool(d: &mut Dec<'_>, what: &'static str) -> Result<bool, CodecError> {
    match d.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(CodecError::BadTag { what, tag }),
    }
}

/// Decodes a [`Response`] body.
pub fn decode_response(d: &mut Dec<'_>) -> Result<Response, CodecError> {
    match d.u8()? {
        RESP_VALID => Ok(Response::Valid(get_bool(d, "Response::Valid")?)),
        RESP_DEDUCED => Ok(Response::Deduced {
            found: get_bool(d, "Response::Deduced")?,
            order_pairs: d.varint()?,
        }),
        RESP_TRUE_VALUES => {
            let count = get_usize(d)?;
            let mut values = Vec::new();
            for _ in 0..count {
                values.push(get_opt_value(d)?);
            }
            Ok(Response::TrueValues { values })
        }
        RESP_SUGGEST => {
            let ask_count = get_usize(d)?;
            let mut ask = Vec::new();
            for _ in 0..ask_count {
                let attr = get_attr(d)?;
                let candidate_count = get_usize(d)?;
                let mut candidates = Vec::new();
                for _ in 0..candidate_count {
                    candidates.push(decode_value(d)?);
                }
                ask.push((attr, candidates));
            }
            let derived_count = get_usize(d)?;
            let mut derived = Vec::new();
            for _ in 0..derived_count {
                derived.push(get_attr(d)?);
            }
            Ok(Response::Suggest { ask, derived })
        }
        RESP_APPLIED => Ok(Response::Applied { added: d.varint()? }),
        RESP_INGESTED => Ok(Response::Ingested {
            effective: d.varint()?,
            epoch: d.varint()?,
        }),
        RESP_ABSORBED => {
            let epoch = d.varint()?;
            let count = get_usize(d)?;
            let mut applied = Vec::new();
            for _ in 0..count {
                applied.push(get_bool(d, "Response::Absorbed")?);
            }
            Ok(Response::Absorbed { epoch, applied })
        }
        RESP_SNAPSHOTTED => Ok(Response::Snapshotted {
            log_bytes: d.varint()?,
        }),
        tag => Err(CodecError::BadTag {
            what: "Response",
            tag,
        }),
    }
}

/// Encodes a [`ServeError`] body.
pub fn encode_serve_error(e: &mut Enc, err: &ServeError) {
    match err {
        ServeError::Overloaded { retry_after } => {
            e.put_u8(ERR_OVERLOADED);
            e.put_varint(*retry_after);
        }
        ServeError::DeadlineExceeded {
            deadline,
            now,
            queued,
        } => {
            e.put_u8(ERR_DEADLINE);
            e.put_varint(*deadline);
            e.put_varint(*now);
            e.put_u8(u8::from(*queued));
        }
        ServeError::UnknownSession { session } => {
            e.put_u8(ERR_UNKNOWN_SESSION);
            e.put_varint(*session);
        }
        ServeError::Store { message } => {
            e.put_u8(ERR_STORE);
            e.put_str(message);
        }
    }
}

/// Decodes a [`ServeError`] body.
pub fn decode_serve_error(d: &mut Dec<'_>) -> Result<ServeError, CodecError> {
    match d.u8()? {
        ERR_OVERLOADED => Ok(ServeError::Overloaded {
            retry_after: d.varint()?,
        }),
        ERR_DEADLINE => Ok(ServeError::DeadlineExceeded {
            deadline: d.varint()?,
            now: d.varint()?,
            queued: get_bool(d, "ServeError::DeadlineExceeded")?,
        }),
        ERR_UNKNOWN_SESSION => Ok(ServeError::UnknownSession {
            session: d.varint()?,
        }),
        ERR_STORE => Ok(ServeError::Store {
            message: d.str()?.to_string(),
        }),
        tag => Err(CodecError::BadTag {
            what: "ServeError",
            tag,
        }),
    }
}

/// Encodes a [`Reply`] body.
pub fn encode_reply(e: &mut Enc, reply: &Reply) {
    e.put_varint(reply.request_id.0);
    match &reply.outcome {
        Ok(resp) => {
            e.put_u8(0);
            encode_response(e, resp);
        }
        Err(err) => {
            e.put_u8(1);
            encode_serve_error(e, err);
        }
    }
}

/// Decodes a [`Reply`] body.
pub fn decode_reply(d: &mut Dec<'_>) -> Result<Reply, CodecError> {
    let request_id = RequestId(d.varint()?);
    let outcome = match d.u8()? {
        0 => Ok(decode_response(d)?),
        1 => Err(decode_serve_error(d)?),
        tag => {
            return Err(CodecError::BadTag {
                what: "Reply::outcome",
                tag,
            })
        }
    };
    Ok(Reply {
        request_id,
        outcome,
    })
}

/// Encodes a full wire [`Message`], version byte first.
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut e = Enc::new();
    e.put_u8(PROTO_VERSION);
    match msg {
        Message::Request { env, req } => {
            e.put_u8(MSG_REQUEST);
            encode_envelope(&mut e, env);
            encode_request(&mut e, req);
        }
        Message::Reply(reply) => {
            e.put_u8(MSG_REPLY);
            encode_reply(&mut e, reply);
        }
    }
    e.into_bytes()
}

/// Decodes a full wire [`Message`], rejecting trailing bytes and unknown
/// protocol versions. Total: any input yields `Ok` or a typed error.
pub fn decode_message(bytes: &[u8]) -> Result<Message, CodecError> {
    let mut d = Dec::new(bytes);
    let version = d.u8()?;
    if version != PROTO_VERSION {
        return Err(CodecError::UnsupportedVersion {
            what: "Message",
            version,
        });
    }
    let msg = match d.u8()? {
        MSG_REQUEST => {
            let env = decode_envelope(&mut d)?;
            let req = decode_request(&mut d)?;
            Message::Request { env, req }
        }
        MSG_REPLY => Message::Reply(decode_reply(&mut d)?),
        tag => {
            return Err(CodecError::BadTag {
                what: "Message",
                tag,
            })
        }
    };
    d.finish()?;
    Ok(msg)
}
