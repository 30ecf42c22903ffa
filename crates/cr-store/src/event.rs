//! Record encodings for the durable session log.
//!
//! Every log frame's payload is `[FORMAT_VERSION][record tag][body]`,
//! encoded with the primitive codec of `cr_types::codec` (no serde — the
//! workspace is offline). Decoders return typed
//! [`CodecError`]s on any malformed byte string and never panic; a record
//! decode failure is treated by recovery exactly like a checksum failure
//! (truncate to the last fully-understood frame). See the crate docs for
//! the version policy.

use cr_core::causal::{CausalRevision, FrontierState};
use cr_core::ingest::{
    AnswerState, CompetingCell, Revision, RevisionError, RevisionTelemetry, SessionState,
};
use cr_core::spec::UserInput;
use cr_types::codec::{
    decode_hlc, decode_source, decode_stamp, decode_value, decode_vclock, encode_hlc,
    encode_source, encode_stamp, encode_value, encode_vclock, CodecError, Dec, Enc,
    FrameScanner,
};
use cr_types::{AttrId, Epoch, TupleId};

/// Current record format version. Bumped on any incompatible encoding
/// change; decoders reject unknown versions with a typed error.
///
/// *v2*: batch-boundary markers ([`LogRecord::BatchMark`]), coalescing
/// telemetry counters, and the competing / quarantine / epoch fields of
/// [`SessionState`].
pub const FORMAT_VERSION: u8 = 2;

const TAG_INPUT: u8 = 0;
const TAG_CAUSAL: u8 = 1;
const TAG_REVISION: u8 = 2;
const TAG_SNAPSHOT: u8 = 3;
const TAG_BATCH: u8 = 4;

/// One durable log record: an input the session absorbed, a batch-commit
/// marker, or a snapshot of its logical state.
#[derive(Clone, Debug, PartialEq)]
pub enum LogRecord {
    /// One round of user answers.
    Input(UserInput),
    /// One causally-stamped upstream correction.
    Causal(CausalRevision),
    /// One plain (unstamped) revision.
    Revision(Revision),
    /// Commits the run of `Causal`/`Revision` records appended since the
    /// previous non-event record as **one atomic revision batch**. The
    /// marker is appended *after* its events are applied, so a crash
    /// mid-batch leaves an unterminated run that recovery drops and
    /// physically truncates — rehydration always lands exactly on a batch
    /// boundary. Fields are diagnostic, not decoding inputs.
    BatchMark {
        /// The session epoch after the batch sealed.
        epoch: u64,
        /// Event records the marker commits.
        events: u64,
    },
    /// A periodic snapshot; rehydration replays only the records after the
    /// last one. Boxed: a snapshot dwarfs the event variants.
    Snapshot(Box<SnapshotRecord>),
}

/// A snapshot record: the session's logical state plus how many event
/// records preceded it (recovery telemetry, not a decoding input).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SnapshotRecord {
    /// Event records logged before this snapshot (inputs + revisions, not
    /// snapshots).
    pub events_covered: u64,
    /// The session's logical state at snapshot time.
    pub state: SessionState,
}

fn put_attr(e: &mut Enc, attr: AttrId) {
    e.put_varint(u64::from(attr.0));
}

fn get_attr(d: &mut Dec<'_>) -> Result<AttrId, CodecError> {
    Ok(AttrId(u16::try_from(d.varint()?).map_err(|_| CodecError::BadVarint)?))
}

fn put_tuple(e: &mut Enc, t: TupleId) {
    e.put_varint(u64::from(t.0));
}

fn get_tuple(d: &mut Dec<'_>) -> Result<TupleId, CodecError> {
    Ok(TupleId(u32::try_from(d.varint()?).map_err(|_| CodecError::BadVarint)?))
}

fn get_usize(d: &mut Dec<'_>) -> Result<usize, CodecError> {
    usize::try_from(d.varint()?).map_err(|_| CodecError::BadVarint)
}

/// Encodes a [`UserInput`] body.
pub fn encode_input(e: &mut Enc, input: &UserInput) {
    e.put_varint(input.values.len() as u64);
    for (attr, value) in &input.values {
        put_attr(e, *attr);
        encode_value(e, value);
    }
}

/// Decodes a [`UserInput`] body.
pub fn decode_input(d: &mut Dec<'_>) -> Result<UserInput, CodecError> {
    let count = get_usize(d)?;
    let mut input = UserInput::empty();
    for _ in 0..count {
        let attr = get_attr(d)?;
        let value = decode_value(d)?;
        input.values.insert(attr, value);
    }
    Ok(input)
}

const REV_RETRACT_CFD: u8 = 0;
const REV_WITHDRAW_ORDER: u8 = 1;
const REV_WITHDRAW_ANSWER: u8 = 2;
const REV_REPLACE_VALUE: u8 = 3;

/// Encodes a [`Revision`] body (tag byte + variant fields).
pub fn encode_revision(e: &mut Enc, rev: &Revision) {
    match rev {
        Revision::RetractCfd { cfd } => {
            e.put_u8(REV_RETRACT_CFD);
            e.put_varint(*cfd as u64);
        }
        Revision::WithdrawOrder { attr, lo, hi } => {
            e.put_u8(REV_WITHDRAW_ORDER);
            put_attr(e, *attr);
            put_tuple(e, *lo);
            put_tuple(e, *hi);
        }
        Revision::WithdrawAnswer { attr, tuple } => {
            e.put_u8(REV_WITHDRAW_ANSWER);
            put_attr(e, *attr);
            put_tuple(e, *tuple);
        }
        Revision::ReplaceValue { tuple, attr, value } => {
            e.put_u8(REV_REPLACE_VALUE);
            put_tuple(e, *tuple);
            put_attr(e, *attr);
            encode_value(e, value);
        }
    }
}

/// Decodes a [`Revision`] body.
pub fn decode_revision(d: &mut Dec<'_>) -> Result<Revision, CodecError> {
    match d.u8()? {
        REV_RETRACT_CFD => Ok(Revision::RetractCfd { cfd: get_usize(d)? }),
        REV_WITHDRAW_ORDER => Ok(Revision::WithdrawOrder {
            attr: get_attr(d)?,
            lo: get_tuple(d)?,
            hi: get_tuple(d)?,
        }),
        REV_WITHDRAW_ANSWER => {
            Ok(Revision::WithdrawAnswer { attr: get_attr(d)?, tuple: get_tuple(d)? })
        }
        REV_REPLACE_VALUE => Ok(Revision::ReplaceValue {
            tuple: get_tuple(d)?,
            attr: get_attr(d)?,
            value: decode_value(d)?,
        }),
        tag => Err(CodecError::BadTag { what: "Revision", tag }),
    }
}

/// Encodes a [`CausalRevision`] body (stamp + revision).
pub fn encode_causal(e: &mut Enc, ev: &CausalRevision) {
    encode_stamp(e, &ev.stamp);
    encode_revision(e, &ev.rev);
}

/// Decodes a [`CausalRevision`] body.
pub fn decode_causal(d: &mut Dec<'_>) -> Result<CausalRevision, CodecError> {
    let stamp = decode_stamp(d)?;
    let rev = decode_revision(d)?;
    Ok(CausalRevision { stamp, rev })
}

fn encode_frontier(e: &mut Enc, f: &FrontierState) {
    e.put_varint(f.delivered.len() as u64);
    for &(s, n) in &f.delivered {
        encode_source(e, s);
        e.put_varint(n);
    }
    e.put_varint(f.buffered.len() as u64);
    for ev in &f.buffered {
        encode_causal(e, ev);
    }
    e.put_varint(f.seen.len() as u64);
    for &(s, hlc) in &f.seen {
        encode_source(e, s);
        encode_hlc(e, &hlc);
    }
    e.put_varint(f.writes.len() as u64);
    for (tuple, attr, log) in &f.writes {
        put_tuple(e, *tuple);
        put_attr(e, *attr);
        e.put_varint(log.len() as u64);
        for (stamp, value) in log {
            encode_stamp(e, stamp);
            encode_value(e, value);
        }
    }
    e.put_varint(f.duplicates);
    e.put_varint(f.buffered_total);
    e.put_varint(f.concurrent_conflicts);
}

fn decode_frontier(d: &mut Dec<'_>) -> Result<FrontierState, CodecError> {
    let mut f = FrontierState::default();
    for _ in 0..get_usize(d)? {
        let s = decode_source(d)?;
        let n = d.varint()?;
        f.delivered.push((s, n));
    }
    for _ in 0..get_usize(d)? {
        f.buffered.push(decode_causal(d)?);
    }
    for _ in 0..get_usize(d)? {
        let s = decode_source(d)?;
        let hlc = decode_hlc(d)?;
        f.seen.push((s, hlc));
    }
    for _ in 0..get_usize(d)? {
        let tuple = get_tuple(d)?;
        let attr = get_attr(d)?;
        let mut log = Vec::new();
        for _ in 0..get_usize(d)? {
            let stamp = decode_stamp(d)?;
            let value = decode_value(d)?;
            log.push((stamp, value));
        }
        f.writes.push((tuple, attr, log));
    }
    f.duplicates = d.varint()?;
    f.buffered_total = d.varint()?;
    f.concurrent_conflicts = d.varint()?;
    Ok(f)
}

fn encode_telemetry(e: &mut Enc, t: &RevisionTelemetry) {
    e.put_varint(t.events as u64);
    e.put_varint(t.retracted_groups as u64);
    e.put_varint(t.invalidated as u64);
    e.put_varint(t.reemitted_clauses as u64);
    e.put_varint(t.duplicates_dropped as u64);
    e.put_varint(t.buffered as u64);
    e.put_varint(t.quarantined as u64);
    e.put_varint(t.reopened as u64);
    e.put_varint(t.quarantine_evicted as u64);
    e.put_varint(t.batches as u64);
    e.put_varint(t.events_coalesced as u64);
    e.put_varint(t.cone_union as u64);
    e.put_varint(t.replays_saved as u64);
}

fn decode_telemetry(d: &mut Dec<'_>) -> Result<RevisionTelemetry, CodecError> {
    Ok(RevisionTelemetry {
        events: get_usize(d)?,
        retracted_groups: get_usize(d)?,
        invalidated: get_usize(d)?,
        reemitted_clauses: get_usize(d)?,
        duplicates_dropped: get_usize(d)?,
        buffered: get_usize(d)?,
        quarantined: get_usize(d)?,
        reopened: get_usize(d)?,
        quarantine_evicted: get_usize(d)?,
        batches: get_usize(d)?,
        events_coalesced: get_usize(d)?,
        cone_union: get_usize(d)?,
        replays_saved: get_usize(d)?,
    })
}

const ERR_UNKNOWN_CFD: u8 = 0;
const ERR_STALE_CFD: u8 = 1;
const ERR_UNKNOWN_ATTR: u8 = 2;
const ERR_UNKNOWN_TUPLE: u8 = 3;
const ERR_UNKNOWN_ORDER: u8 = 4;

/// Encodes a [`RevisionError`] body (tag byte + variant fields).
pub fn encode_revision_error(e: &mut Enc, err: &RevisionError) {
    match err {
        RevisionError::UnknownCfd { cfd, gamma_len } => {
            e.put_u8(ERR_UNKNOWN_CFD);
            e.put_varint(*cfd as u64);
            e.put_varint(*gamma_len as u64);
        }
        RevisionError::StaleCfd { cfd } => {
            e.put_u8(ERR_STALE_CFD);
            e.put_varint(*cfd as u64);
        }
        RevisionError::UnknownAttr { attr, arity } => {
            e.put_u8(ERR_UNKNOWN_ATTR);
            put_attr(e, *attr);
            e.put_varint(*arity as u64);
        }
        RevisionError::UnknownTuple { tuple, len } => {
            e.put_u8(ERR_UNKNOWN_TUPLE);
            put_tuple(e, *tuple);
            e.put_varint(*len as u64);
        }
        RevisionError::UnknownOrder { attr, lo, hi } => {
            e.put_u8(ERR_UNKNOWN_ORDER);
            put_attr(e, *attr);
            put_tuple(e, *lo);
            put_tuple(e, *hi);
        }
    }
}

/// Decodes a [`RevisionError`] body.
pub fn decode_revision_error(d: &mut Dec<'_>) -> Result<RevisionError, CodecError> {
    match d.u8()? {
        ERR_UNKNOWN_CFD => {
            Ok(RevisionError::UnknownCfd { cfd: get_usize(d)?, gamma_len: get_usize(d)? })
        }
        ERR_STALE_CFD => Ok(RevisionError::StaleCfd { cfd: get_usize(d)? }),
        ERR_UNKNOWN_ATTR => {
            Ok(RevisionError::UnknownAttr { attr: get_attr(d)?, arity: get_usize(d)? })
        }
        ERR_UNKNOWN_TUPLE => {
            Ok(RevisionError::UnknownTuple { tuple: get_tuple(d)?, len: get_usize(d)? })
        }
        ERR_UNKNOWN_ORDER => Ok(RevisionError::UnknownOrder {
            attr: get_attr(d)?,
            lo: get_tuple(d)?,
            hi: get_tuple(d)?,
        }),
        tag => Err(CodecError::BadTag { what: "RevisionError", tag }),
    }
}

fn encode_competing(e: &mut Enc, c: &CompetingCell) {
    put_tuple(e, c.tuple);
    put_attr(e, c.attr);
    e.put_u8(u8::from(c.reopened));
    e.put_varint(c.candidates.len() as u64);
    for (source, value) in &c.candidates {
        encode_source(e, *source);
        encode_value(e, value);
    }
}

fn decode_competing(d: &mut Dec<'_>) -> Result<CompetingCell, CodecError> {
    let tuple = get_tuple(d)?;
    let attr = get_attr(d)?;
    let reopened = match d.u8()? {
        0 => false,
        1 => true,
        tag => return Err(CodecError::BadTag { what: "bool", tag }),
    };
    let mut candidates = Vec::new();
    for _ in 0..get_usize(d)? {
        let source = decode_source(d)?;
        let value = decode_value(d)?;
        candidates.push((source, value));
    }
    Ok(CompetingCell { tuple, attr, reopened, candidates })
}

/// Encodes a [`SessionState`] body.
pub fn encode_session_state(e: &mut Enc, s: &SessionState) {
    e.put_varint(s.tuples.len() as u64);
    for row in &s.tuples {
        e.put_varint(row.len() as u64);
        for v in row {
            encode_value(e, v);
        }
    }
    e.put_varint(s.orders.len() as u64);
    for &(attr, lo, hi) in &s.orders {
        put_attr(e, attr);
        put_tuple(e, lo);
        put_tuple(e, hi);
    }
    e.put_varint(s.retired_cfds.len() as u64);
    for &cfd in &s.retired_cfds {
        e.put_varint(cfd as u64);
    }
    e.put_varint(s.answers.len() as u64);
    for a in &s.answers {
        put_attr(e, a.attr);
        put_tuple(e, a.tuple);
        encode_value(e, &a.value);
        encode_vclock(e, &a.deps);
    }
    encode_frontier(e, &s.frontier);
    encode_telemetry(e, &s.telemetry);
    e.put_varint(s.competing.len() as u64);
    for cell in &s.competing {
        encode_competing(e, cell);
    }
    e.put_varint(s.quarantine.len() as u64);
    for (rev, err) in &s.quarantine {
        encode_revision(e, rev);
        encode_revision_error(e, err);
    }
    e.put_varint(s.quarantine_cap as u64);
    e.put_varint(s.epoch.0);
}

/// Decodes a [`SessionState`] body.
pub fn decode_session_state(d: &mut Dec<'_>) -> Result<SessionState, CodecError> {
    let mut s = SessionState::default();
    for _ in 0..get_usize(d)? {
        let mut row = Vec::new();
        for _ in 0..get_usize(d)? {
            row.push(decode_value(d)?);
        }
        s.tuples.push(row);
    }
    for _ in 0..get_usize(d)? {
        let attr = get_attr(d)?;
        let lo = get_tuple(d)?;
        let hi = get_tuple(d)?;
        s.orders.push((attr, lo, hi));
    }
    for _ in 0..get_usize(d)? {
        s.retired_cfds.push(get_usize(d)?);
    }
    for _ in 0..get_usize(d)? {
        let attr = get_attr(d)?;
        let tuple = get_tuple(d)?;
        let value = decode_value(d)?;
        let deps = decode_vclock(d)?;
        s.answers.push(AnswerState { attr, tuple, value, deps });
    }
    s.frontier = decode_frontier(d)?;
    s.telemetry = decode_telemetry(d)?;
    for _ in 0..get_usize(d)? {
        s.competing.push(decode_competing(d)?);
    }
    for _ in 0..get_usize(d)? {
        let rev = decode_revision(d)?;
        let err = decode_revision_error(d)?;
        s.quarantine.push((rev, err));
    }
    s.quarantine_cap = get_usize(d)?;
    s.epoch = Epoch(d.varint()?);
    Ok(s)
}

impl LogRecord {
    /// Encodes the record as a versioned frame payload
    /// (`[version][tag][body]`).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_u8(FORMAT_VERSION);
        match self {
            LogRecord::Input(input) => {
                e.put_u8(TAG_INPUT);
                encode_input(&mut e, input);
            }
            LogRecord::Causal(ev) => {
                e.put_u8(TAG_CAUSAL);
                encode_causal(&mut e, ev);
            }
            LogRecord::Revision(rev) => {
                e.put_u8(TAG_REVISION);
                encode_revision(&mut e, rev);
            }
            LogRecord::BatchMark { epoch, events } => {
                e.put_u8(TAG_BATCH);
                e.put_varint(*epoch);
                e.put_varint(*events);
            }
            LogRecord::Snapshot(snap) => {
                e.put_u8(TAG_SNAPSHOT);
                e.put_varint(snap.events_covered);
                encode_session_state(&mut e, &snap.state);
            }
        }
        e.into_bytes()
    }

    /// Decodes one frame payload. Rejects unknown versions and tags, short
    /// payloads, and trailing bytes with typed errors — never panics.
    pub fn decode(payload: &[u8]) -> Result<LogRecord, CodecError> {
        let mut d = Dec::new(payload);
        let version = d.u8()?;
        if version != FORMAT_VERSION {
            return Err(CodecError::UnsupportedVersion { what: "LogRecord", version });
        }
        let rec = match d.u8()? {
            TAG_INPUT => LogRecord::Input(decode_input(&mut d)?),
            TAG_CAUSAL => LogRecord::Causal(decode_causal(&mut d)?),
            TAG_REVISION => LogRecord::Revision(decode_revision(&mut d)?),
            TAG_BATCH => {
                let epoch = d.varint()?;
                let events = d.varint()?;
                LogRecord::BatchMark { epoch, events }
            }
            TAG_SNAPSHOT => {
                let events_covered = d.varint()?;
                let state = decode_session_state(&mut d)?;
                LogRecord::Snapshot(Box::new(SnapshotRecord { events_covered, state }))
            }
            tag => return Err(CodecError::BadTag { what: "LogRecord", tag }),
        };
        d.finish()?;
        Ok(rec)
    }

    /// True iff the record is an event (input/revision) — not a snapshot
    /// and not a batch marker.
    pub fn is_event(&self) -> bool {
        !matches!(self, LogRecord::Snapshot(_) | LogRecord::BatchMark { .. })
    }
}

/// Scans raw log bytes into decoded records. Returns the surviving prefix:
/// `(records, valid_len, error)` where `valid_len` is the byte offset just
/// past the last frame that passed both its checksum *and* record decode —
/// the truncation point recovery restores the log to — and `error` is the
/// corruption that stopped the scan (`None` on a clean log).
pub fn decode_log(bytes: &[u8]) -> (Vec<LogRecord>, usize, Option<CodecError>) {
    let (records, valid_len, error) = decode_log_offsets(bytes);
    (records.into_iter().map(|(rec, _)| rec).collect(), valid_len, error)
}

/// Like [`decode_log`], but each record rides with the byte offset just
/// past its frame — the log length to truncate to in order to keep exactly
/// that prefix. Recovery uses the offsets to cut an unterminated trailing
/// batch run back to its batch boundary.
pub fn decode_log_offsets(bytes: &[u8]) -> (Vec<(LogRecord, usize)>, usize, Option<CodecError>) {
    let mut scanner = FrameScanner::new(bytes);
    let mut records = Vec::new();
    let mut valid_len = 0;
    loop {
        match scanner.next() {
            Ok(Some(payload)) => match LogRecord::decode(payload) {
                Ok(rec) => {
                    valid_len = scanner.valid_len();
                    records.push((rec, valid_len));
                }
                Err(e) => return (records, valid_len, Some(e)),
            },
            Ok(None) => return (records, valid_len, None),
            Err(e) => return (records, valid_len, Some(e)),
        }
    }
}

/// One step of a batch-boundary-respecting replay of recovered records.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplayStep {
    /// One round of user answers.
    Input(UserInput),
    /// A marker-committed run of causal events, replayed as one
    /// [`ingest_causal`](cr_core::ingest::ResolutionSession::ingest_causal)
    /// batch.
    CausalBatch(Vec<CausalRevision>),
    /// A marker-committed run of plain revisions, replayed as one
    /// [`absorb_revision_batch`](cr_core::ingest::ResolutionSession::absorb_revision_batch)
    /// batch.
    RevisionBatch(Vec<Revision>),
    /// A snapshot record (derived state; replay skips it, rehydration may
    /// restore from it).
    Snapshot(Box<SnapshotRecord>),
}

/// A batch-boundary-respecting replay of recovered records: which steps to
/// feed the engine, how many leading records they cover, and how many
/// trailing events were dropped as an uncommitted (marker-less) batch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplayPlan {
    /// The steps to replay, in log order.
    pub steps: Vec<ReplayStep>,
    /// Records (events, markers and snapshots) fully represented by
    /// `steps` — always a prefix of the input. Recovery truncates the log
    /// to the byte offset of record `used_records - 1`.
    pub used_records: usize,
    /// Trailing event records dropped because no [`LogRecord::BatchMark`]
    /// committed them — a crash landed mid-batch.
    pub dropped_events: usize,
}

/// Groups recovered `records` into whole-batch replay steps. A
/// [`LogRecord::BatchMark`] commits the run of `Causal`/`Revision` records
/// since the previous non-event record as one batch step; an unterminated
/// run at the end of the log is an uncommitted batch and is **dropped**
/// (reported in [`ReplayPlan::dropped_events`]). Defensively, a run that
/// changes event type mid-way (a hand-built or damaged log; the store
/// writer never interleaves) is split per type, and a run implicitly
/// terminated by an `Input`/`Snapshot` record is committed as written.
///
/// Both [`rehydrate`](crate::SessionStore) and
/// [`reference_of`](crate::reference_of) replay through this one planner,
/// so the recovery differential compares like against like.
pub fn plan_replay(records: &[LogRecord]) -> ReplayPlan {
    plan_replay_owned(records.iter().cloned())
}

/// [`plan_replay`] over owned records, moved into the steps instead of
/// copied — what rehydration uses on a freshly decoded log.
pub(crate) fn plan_replay_owned(records: impl IntoIterator<Item = LogRecord>) -> ReplayPlan {
    // Runs flushed by a type split stay *staged* until a committing record
    // (marker, input or snapshot) arrives: everything after the last
    // committing record is one uncommitted suffix, dropped as a unit, so a
    // second recovery of the truncated log reaches the same state.
    fn flush(staged: &mut Vec<ReplayStep>, causal: &mut Vec<CausalRevision>, revs: &mut Vec<Revision>) {
        if !causal.is_empty() {
            staged.push(ReplayStep::CausalBatch(std::mem::take(causal)));
        }
        if !revs.is_empty() {
            staged.push(ReplayStep::RevisionBatch(std::mem::take(revs)));
        }
    }
    let mut plan = ReplayPlan::default();
    let mut staged: Vec<ReplayStep> = Vec::new();
    let mut causal: Vec<CausalRevision> = Vec::new();
    let mut revs: Vec<Revision> = Vec::new();
    for (i, rec) in records.into_iter().enumerate() {
        match rec {
            LogRecord::Causal(ev) => {
                if !revs.is_empty() {
                    flush(&mut staged, &mut causal, &mut revs);
                }
                causal.push(ev);
            }
            LogRecord::Revision(rev) => {
                if !causal.is_empty() {
                    flush(&mut staged, &mut causal, &mut revs);
                }
                revs.push(rev);
            }
            LogRecord::BatchMark { .. } => {
                flush(&mut staged, &mut causal, &mut revs);
                plan.steps.append(&mut staged);
                plan.used_records = i + 1;
            }
            LogRecord::Input(input) => {
                flush(&mut staged, &mut causal, &mut revs);
                plan.steps.append(&mut staged);
                plan.steps.push(ReplayStep::Input(input));
                plan.used_records = i + 1;
            }
            LogRecord::Snapshot(snap) => {
                flush(&mut staged, &mut causal, &mut revs);
                plan.steps.append(&mut staged);
                plan.steps.push(ReplayStep::Snapshot(snap));
                plan.used_records = i + 1;
            }
        }
    }
    flush(&mut staged, &mut causal, &mut revs);
    plan.dropped_events = staged.iter().map(ReplayStep::event_count).sum();
    plan
}

impl ReplayStep {
    /// Event records the step covers (snapshots cover none).
    pub fn event_count(&self) -> usize {
        match self {
            ReplayStep::Input(_) => 1,
            ReplayStep::CausalBatch(batch) => batch.len(),
            ReplayStep::RevisionBatch(batch) => batch.len(),
            ReplayStep::Snapshot(_) => 0,
        }
    }
}
