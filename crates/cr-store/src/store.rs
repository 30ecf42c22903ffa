//! The multi-session store: write-ahead logging, snapshots, eviction and
//! crash-and-rehydrate recovery.
//!
//! [`SessionStore`] hosts many durable [`ResolutionSession`]s over one
//! [`StorageBackend`]. Every mutation follows the write-ahead discipline:
//! the event is framed, appended, and synced **before** it is applied to
//! the in-memory engine — the log records inputs, never effects, so replay
//! is a pure function of the surviving bytes. Cold sessions are evicted
//! (engine state dropped, log kept) and transparently rehydrated on next
//! touch from the last intact snapshot plus the log tail, through the very
//! same `ingest_causal`/`apply_input` paths production traffic uses.
//! Recovery truncates corrupt tails (checksum or record-decode failures)
//! and counts everything it did in [`RecoveryTelemetry`].

use std::collections::BTreeMap;
use std::fmt;

use cr_core::causal::CausalRevision;
use cr_core::ingest::{BatchReport, ResolutionSession, Revision, RevisionPolicy};
use cr_core::spec::{Specification, UserInput};
use cr_core::ResolutionConfig;
use cr_types::codec::{write_frame, CodecError};
use cr_types::AttrId;

use crate::backend::{SessionId, StorageBackend};
use crate::event::{decode_log_offsets, plan_replay_owned, LogRecord, ReplayStep, SnapshotRecord};

/// Errors surfaced by the store and its backends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// A log frame or record failed to decode where corruption is not an
    /// acceptable answer (recovery itself *tolerates* corruption and
    /// truncates instead of erroring).
    Codec(CodecError),
    /// A backend I/O failure.
    Io(String),
    /// The session was never [`open`](SessionStore::open)ed in this store.
    UnknownSession(SessionId),
    /// A user input names an attribute outside the session's schema. A
    /// live input is refused before anything is logged; one already in a
    /// log (written before the check existed) fails its rehydration.
    UnknownAttr {
        /// The offending attribute.
        attr: AttrId,
        /// The schema's arity.
        arity: usize,
    },
    /// The store refuses [`RevisionPolicy::Reject`]: replay of a durable
    /// log must be total, and a policy that aborts mid-stream would leave
    /// rehydration unable to reach the log's end.
    RejectPolicy,
    /// A snapshot was internally consistent (checksums passed) but
    /// inconsistent with the session's base specification.
    Restore(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Codec(e) => write!(f, "log corrupt: {e}"),
            StoreError::Io(msg) => write!(f, "storage error: {msg}"),
            StoreError::UnknownSession(id) => write!(f, "unknown session {id}"),
            StoreError::UnknownAttr { attr, arity } => {
                write!(f, "input names unknown attribute {attr:?} (arity {arity})")
            }
            StoreError::RejectPolicy => {
                write!(f, "RevisionPolicy::Reject is not replayable; use Quarantine")
            }
            StoreError::Restore(msg) => write!(f, "snapshot restore failed: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

/// Store configuration.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Engine configuration for every hosted session.
    pub resolution: ResolutionConfig,
    /// Revision policy for every hosted session. Must not be
    /// [`RevisionPolicy::Reject`] (see [`StoreError::RejectPolicy`]).
    pub policy: RevisionPolicy,
    /// Append a snapshot record after this many logged events; `0` disables
    /// snapshots (rehydration replays the full log).
    pub snapshot_every: usize,
    /// Maximum sessions kept live in memory; beyond it the least recently
    /// used live session is evicted. `0` means unbounded.
    pub max_live: usize,
    /// Maximum recorded replies kept per session in the idempotency
    /// ledger ([`SessionStore::record_reply`]); beyond it the oldest
    /// recorded reply is forgotten. `0` disables the ledger entirely.
    pub idempotency_cap: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            resolution: ResolutionConfig::default(),
            policy: RevisionPolicy::Quarantine,
            snapshot_every: 32,
            max_live: 0,
            idempotency_cap: 128,
        }
    }
}

/// Counters of everything recovery and eviction did, store-wide.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryTelemetry {
    /// Sessions rebuilt from their log (cold touch or explicit reload).
    pub rehydrations: u64,
    /// Live sessions whose engine state was dropped.
    pub evictions: u64,
    /// Event records replayed through the engine during rehydration.
    pub events_replayed: u64,
    /// Rehydrations that started from a snapshot instead of scratch.
    pub snapshots_used: u64,
    /// Corrupt log tails truncated (checksum, torn frame, or record-decode
    /// failure).
    pub corrupt_truncations: u64,
    /// Total bytes discarded by those truncations.
    pub truncated_bytes: u64,
    /// Truncations whose cause was specifically a CRC-32 mismatch.
    pub checksum_failures: u64,
    /// Uncommitted trailing batch runs (events without their
    /// [`LogRecord::BatchMark`]) dropped and physically truncated — a
    /// crash landed mid-batch; recovery restored the previous batch
    /// boundary. Bytes cut land in `truncated_bytes`.
    pub partial_batch_truncations: u64,
    /// Rehydrations whose replay failed (a logged input naming an unknown
    /// attribute). Counted once per session: the entry keeps the error and
    /// later touches return it without reading the log again.
    pub failed_rehydrations: u64,
}

impl fmt::Display for RecoveryTelemetry {
    /// One human-readable row per store, for soak and harness failure
    /// output — e.g.
    /// `recovery: 3 rehydrations (2 via snapshot, 47 events replayed), 5 evictions, 1 corrupt truncations (12 bytes, 1 checksum), 0 partial batches, 0 failed rehydrations`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovery: {} rehydrations ({} via snapshot, {} events replayed), \
             {} evictions, {} corrupt truncations ({} bytes, {} checksum), \
             {} partial batches, {} failed rehydrations",
            self.rehydrations,
            self.snapshots_used,
            self.events_replayed,
            self.evictions,
            self.corrupt_truncations,
            self.truncated_bytes,
            self.checksum_failures,
            self.partial_batch_truncations,
            self.failed_rehydrations,
        )
    }
}

/// What admission control may learn about a session **without** touching
/// it: probing never bumps the LRU clock, never rehydrates, and never
/// evicts — an admission decision that ends in load-shedding must leave
/// the store exactly as it found it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionProbe {
    /// Whether the session currently holds live engine state. A cold
    /// session will pay a rehydration on first touch, so admission can
    /// charge it a higher token cost.
    pub live: bool,
    /// Byte length of the session's durable log — a proxy for how
    /// expensive that rehydration would be.
    pub log_bytes: u64,
}

struct Entry {
    base: Specification,
    live: Option<ResolutionSession>,
    /// Why the log does not replay, once a rehydration failed on it. Every
    /// store call that appends touches the session first, so the log stays
    /// as it was and every later touch returns this error instead of
    /// replaying again; re-[`open`](SessionStore::open)ing clears it.
    failed: Option<StoreError>,
    /// Events appended since the last snapshot record.
    events_since_snapshot: usize,
    /// Events appended over the session's lifetime (snapshot metadata).
    events_total: u64,
    /// LRU stamp from the store clock.
    last_used: u64,
    /// Idempotency ledger: recorded replies of acknowledged mutations,
    /// keyed by the client's idempotency key. Deliberately *not* part of
    /// the live engine state: it survives eviction, so a retry arriving
    /// after the session went cold still deduplicates. Bounded by
    /// [`StoreConfig::idempotency_cap`] in insertion order.
    idem: BTreeMap<u64, Vec<u8>>,
    /// Insertion order of `idem` keys, oldest first, for cap eviction.
    idem_order: Vec<u64>,
}

/// A durable multi-session host over a [`StorageBackend`].
pub struct SessionStore<B: StorageBackend> {
    backend: B,
    config: StoreConfig,
    entries: BTreeMap<u64, Entry>,
    clock: u64,
    recovery: RecoveryTelemetry,
}

impl<B: StorageBackend> SessionStore<B> {
    /// Creates a store over `backend`. Fails fast on a non-replayable
    /// policy.
    pub fn new(backend: B, config: StoreConfig) -> Result<Self, StoreError> {
        if matches!(config.policy, RevisionPolicy::Reject) {
            return Err(StoreError::RejectPolicy);
        }
        Ok(SessionStore {
            backend,
            config,
            entries: BTreeMap::new(),
            clock: 0,
            recovery: RecoveryTelemetry::default(),
        })
    }

    /// The store's accumulated recovery telemetry.
    pub fn recovery(&self) -> RecoveryTelemetry {
        self.recovery
    }

    /// The store configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Immutable access to the backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the backend (fault-injection harnesses reach the
    /// [`FaultyBackend`](crate::fault::FaultyBackend) through this).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Consumes the store, returning the backend.
    pub fn into_backend(self) -> B {
        self.backend
    }

    /// Registers a session with its base (pre-interaction) specification.
    /// Cheap: no engine is built and no log is read until the session is
    /// first touched. Re-opening a known session only updates the base.
    pub fn open(&mut self, id: SessionId, base: &Specification) {
        self.clock += 1;
        let clock = self.clock;
        self.entries
            .entry(id.0)
            .and_modify(|e| {
                e.base = base.clone();
                e.failed = None; // the new base may accept the log
                e.last_used = clock;
            })
            .or_insert_with(|| Entry {
                base: base.clone(),
                live: None,
                failed: None,
                events_since_snapshot: 0,
                events_total: 0,
                last_used: clock,
                idem: BTreeMap::new(),
                idem_order: Vec::new(),
            });
    }

    /// Sessions currently registered, ascending.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.entries.keys().map(|&k| SessionId(k)).collect()
    }

    /// Whether `id` currently holds live engine state.
    pub fn is_live(&self, id: SessionId) -> bool {
        self.entries.get(&id.0).is_some_and(|e| e.live.is_some())
    }

    /// Byte length of `id`'s durable log.
    pub fn log_len(&self, id: SessionId) -> Result<u64, StoreError> {
        self.backend.log_len(id)
    }

    /// Drops `id`'s in-memory engine state (the log stays). Returns whether
    /// the session was live. The next touch rehydrates it.
    pub fn evict(&mut self, id: SessionId) -> Result<bool, StoreError> {
        let entry =
            self.entries.get_mut(&id.0).ok_or(StoreError::UnknownSession(id))?;
        let was_live = entry.live.take().is_some();
        if was_live {
            self.recovery.evictions += 1;
        }
        Ok(was_live)
    }

    /// Side-effect-free admission probe: is the session live, and how big
    /// is its log? Unlike every other accessor this does **not** stamp the
    /// LRU clock — shedding a request must not reorder eviction victims.
    pub fn admission_probe(&self, id: SessionId) -> Result<AdmissionProbe, StoreError> {
        if !self.entries.contains_key(&id.0) {
            return Err(StoreError::UnknownSession(id));
        }
        Ok(AdmissionProbe {
            live: self.is_live(id),
            log_bytes: self.backend.log_len(id)?,
        })
    }

    /// Looks up the recorded reply for a mutation idempotency key. `Some`
    /// means the mutation was already acknowledged once: the server must
    /// replay this reply instead of re-applying. Survives eviction (the
    /// ledger is store-level, not engine state), so a retry landing after
    /// the session went cold still deduplicates — and underneath it, the
    /// causal frontier's `(source, hlc)` dedup catches stamped events that
    /// outlive even this process.
    pub fn idempotent_reply(&self, id: SessionId, key: u64) -> Option<&[u8]> {
        self.entries.get(&id.0)?.idem.get(&key).map(Vec::as_slice)
    }

    /// Records the encoded reply of an acknowledged mutation under its
    /// idempotency key. Bounded by [`StoreConfig::idempotency_cap`]:
    /// beyond the cap the oldest recorded reply is forgotten (a retry
    /// older than the whole window re-applies, and is then caught by the
    /// causal frontier for stamped events). Re-recording an existing key
    /// keeps the first reply — the first acknowledgement wins.
    pub fn record_reply(
        &mut self,
        id: SessionId,
        key: u64,
        reply: Vec<u8>,
    ) -> Result<(), StoreError> {
        if self.config.idempotency_cap == 0 {
            return Ok(());
        }
        let cap = self.config.idempotency_cap;
        let entry =
            self.entries.get_mut(&id.0).ok_or(StoreError::UnknownSession(id))?;
        if entry.idem.contains_key(&key) {
            return Ok(());
        }
        entry.idem.insert(key, reply);
        entry.idem_order.push(key);
        while entry.idem.len() > cap {
            let oldest = entry.idem_order.remove(0);
            entry.idem.remove(&oldest);
        }
        Ok(())
    }

    /// Number of replies currently held in `id`'s idempotency ledger.
    pub fn ledger_len(&self, id: SessionId) -> usize {
        self.entries.get(&id.0).map_or(0, |e| e.idem.len())
    }

    /// The live session for `id`, rehydrating from the log if cold.
    pub fn session(&mut self, id: SessionId) -> Result<&mut ResolutionSession, StoreError> {
        self.touch(id)?;
        Ok(self
            .entries
            .get_mut(&id.0)
            .expect("touch ensured the entry")
            .live
            .as_mut()
            .expect("touch ensured live state"))
    }

    /// Absorbs one round of user input durably: validated against the
    /// session's schema, logged and synced, then applied. Returns the
    /// engine's `|Ot|` extension size. An input with no values carries no
    /// information: it is answered `Ok(0)` without logging or touching the
    /// engine, as [`SessionStore::ingest_causal`] does for an empty poll.
    pub fn apply_input(&mut self, id: SessionId, input: &UserInput) -> Result<usize, StoreError> {
        let entry = self.entries.get(&id.0).ok_or(StoreError::UnknownSession(id))?;
        check_input(&entry.base, input)?;
        self.touch(id)?;
        if input.values.is_empty() {
            return Ok(0);
        }
        self.log_event(id, &LogRecord::Input(input.clone()))?;
        let entry = self.entries.get_mut(&id.0).expect("touched");
        let added = entry.live.as_mut().expect("touched").apply_input(input);
        self.after_event(id, 1)?;
        Ok(added)
    }

    /// Ingests causally-stamped corrections durably, as **one atomic
    /// batch**: every event is framed and appended, the log is synced
    /// once, the whole poll is applied through
    /// [`ResolutionSession::ingest_causal`] (one coalesced retraction and
    /// replay), and finally a [`LogRecord::BatchMark`] commits the batch.
    /// A crash before the marker lands makes recovery drop the entire
    /// batch — rehydration always restores exactly a batch boundary.
    /// Returns the effective plain revisions.
    pub fn ingest_causal(
        &mut self,
        id: SessionId,
        events: Vec<CausalRevision>,
    ) -> Result<Vec<Revision>, StoreError> {
        self.touch(id)?;
        if events.is_empty() {
            return Ok(Vec::new());
        }
        let count = events.len();
        for ev in &events {
            self.append_record(id, &LogRecord::Causal(ev.clone()))?;
        }
        self.backend.sync(id)?;
        let entry = self.entries.get_mut(&id.0).expect("touched");
        let live = entry.live.as_mut().expect("touched");
        let effective =
            live.ingest_causal(events).expect("store policy is never Reject");
        let epoch = live.epoch().0;
        self.commit_batch(id, epoch, count)?;
        self.after_event(id, count)?;
        Ok(effective)
    }

    /// Absorbs a batch of plain revisions durably and atomically: appended
    /// and synced, applied through
    /// [`ResolutionSession::absorb_revision_batch`] (one coalesced
    /// retraction and replay), then committed with a
    /// [`LogRecord::BatchMark`]. Returns the engine's batch report plus
    /// the per-event applied flags.
    pub fn absorb_revision_batch(
        &mut self,
        id: SessionId,
        revs: &[Revision],
    ) -> Result<(BatchReport, Vec<bool>), StoreError> {
        self.touch(id)?;
        if revs.is_empty() {
            return Ok((BatchReport::default(), Vec::new()));
        }
        for rev in revs {
            self.append_record(id, &LogRecord::Revision(rev.clone()))?;
        }
        self.backend.sync(id)?;
        let entry = self.entries.get_mut(&id.0).expect("touched");
        let live = entry.live.as_mut().expect("touched");
        let (report, applied) =
            live.absorb_revision_batch(revs).expect("store policy is never Reject");
        self.commit_batch(id, report.epoch.0, revs.len())?;
        self.after_event(id, revs.len())?;
        Ok((report, applied))
    }

    /// Appends + syncs the batch-commit marker. If the marker fails to
    /// land, the batch applied in memory but is uncommitted on disk: the
    /// live engine is dropped so the next touch rehydrates from the log,
    /// which recovery truncates back to the previous batch boundary.
    fn commit_batch(&mut self, id: SessionId, epoch: u64, events: usize) -> Result<(), StoreError> {
        let mark = LogRecord::BatchMark { epoch, events: events as u64 };
        let committed =
            self.append_record(id, &mark).and_then(|()| self.backend.sync(id));
        if let Err(e) = committed {
            self.entries.get_mut(&id.0).expect("touched").live = None;
            return Err(e);
        }
        Ok(())
    }

    /// Appends a snapshot of `id`'s current state and resets the snapshot
    /// cadence. Also available to callers that want a snapshot at a known
    /// boundary (e.g. before shutdown).
    pub fn snapshot(&mut self, id: SessionId) -> Result<(), StoreError> {
        self.touch(id)?;
        let entry = self.entries.get_mut(&id.0).expect("touched");
        let record = LogRecord::Snapshot(Box::new(SnapshotRecord {
            events_covered: entry.events_total,
            state: entry.live.as_ref().expect("touched").state(),
        }));
        self.append_record(id, &record)?;
        self.backend.sync(id)?;
        self.entries.get_mut(&id.0).expect("touched").events_since_snapshot = 0;
        Ok(())
    }

    fn append_record(&mut self, id: SessionId, record: &LogRecord) -> Result<(), StoreError> {
        let mut frame = Vec::new();
        write_frame(&mut frame, &record.encode());
        self.backend.append(id, &frame)
    }

    /// Write-ahead append + sync of one event record.
    fn log_event(&mut self, id: SessionId, record: &LogRecord) -> Result<(), StoreError> {
        self.append_record(id, record)?;
        self.backend.sync(id)
    }

    /// Post-apply bookkeeping: the snapshot cadence.
    fn after_event(&mut self, id: SessionId, count: usize) -> Result<(), StoreError> {
        let entry = self.entries.get_mut(&id.0).expect("caller touched");
        entry.events_total += count as u64;
        entry.events_since_snapshot += count;
        if self.config.snapshot_every > 0
            && entry.events_since_snapshot >= self.config.snapshot_every
        {
            self.snapshot(id)?;
        }
        Ok(())
    }

    /// Ensures `id` is registered and live, rehydrating from the log if
    /// necessary, and stamps its LRU clock. A rehydration is the only way a
    /// session becomes live, so it is also the only point where the live
    /// cap can be exceeded and has to be enforced.
    fn touch(&mut self, id: SessionId) -> Result<(), StoreError> {
        let entry = self.entries.get(&id.0).ok_or(StoreError::UnknownSession(id))?;
        if let Some(e) = &entry.failed {
            return Err(e.clone());
        }
        let cold = entry.live.is_none();
        self.clock += 1;
        let clock = self.clock;
        if cold {
            self.rehydrate(id)?;
            self.enforce_live_cap(id);
        }
        self.entries.get_mut(&id.0).expect("checked").last_used = clock;
        Ok(())
    }

    /// Rebuilds `id`'s engine from its durable log: scan frames, truncate
    /// any corrupt tail, drop (and truncate) an uncommitted trailing batch
    /// run, restore the last usable snapshot (or start from the base
    /// specification) and replay the committed tail **whole batch by whole
    /// batch** through the ordinary ingestion paths.
    fn rehydrate(&mut self, id: SessionId) -> Result<(), StoreError> {
        let bytes = self.backend.read_log(id)?;
        let (offsets, valid_len, error) = decode_log_offsets(&bytes);
        if let Some(err) = error {
            self.recovery.corrupt_truncations += 1;
            self.recovery.truncated_bytes += (bytes.len() - valid_len) as u64;
            if matches!(err, CodecError::BadCrc { .. }) {
                self.recovery.checksum_failures += 1;
            }
            self.backend.truncate(id, valid_len as u64)?;
            self.backend.sync(id)?;
        }

        let (records, ends): (Vec<LogRecord>, Vec<usize>) = offsets.into_iter().unzip();
        let mut plan = plan_replay_owned(records);
        if plan.used_records < ends.len() {
            // Events after the last commit point are an uncommitted batch
            // (the crash hit before its marker landed). Drop them and cut
            // the log back to the batch boundary, so every later recovery
            // of this log reaches the same state.
            let boundary = if plan.used_records == 0 {
                0
            } else {
                ends[plan.used_records - 1]
            };
            self.recovery.partial_batch_truncations += 1;
            self.recovery.truncated_bytes += (valid_len - boundary) as u64;
            self.backend.truncate(id, boundary as u64)?;
            self.backend.sync(id)?;
        }

        let base = &self.entries.get(&id.0).expect("caller checked").base;
        // Restore from the last usable snapshot; an unusable one (version
        // accepted but inconsistent with the base) falls back to the next
        // older snapshot, ultimately to a from-scratch replay — snapshots
        // are an optimization, never the source of truth. The tried
        // snapshot's state moves into the restore: replay below only needs
        // to know where the snapshots were.
        let mut start = 0;
        let mut session = None;
        for (i, step) in plan.steps.iter_mut().enumerate().rev() {
            if let ReplayStep::Snapshot(snap) = step {
                let state = std::mem::take(&mut snap.state);
                match ResolutionSession::restore(&self.config.resolution, base, state) {
                    Ok(s) => {
                        session = Some(s);
                        start = i + 1;
                        break;
                    }
                    Err(_) => continue,
                }
            }
        }
        let from_snapshot = session.is_some();
        let mut session = session
            .unwrap_or_else(|| ResolutionSession::new_revisable(&self.config.resolution, base));
        session.set_revision_policy(self.config.policy);

        let mut replayed = 0u64;
        let mut since_snapshot = 0usize;
        let mut total = 0u64;
        let mut failed = None;
        for (i, step) in plan.steps.into_iter().enumerate() {
            if let ReplayStep::Snapshot(_) = step {
                if i < start {
                    continue;
                }
                // A snapshot past the restore point still resets cadence.
                since_snapshot = 0;
                continue;
            }
            let count = step.event_count();
            total += count as u64;
            if i < start {
                continue;
            }
            since_snapshot += count;
            replayed += count as u64;
            match step {
                ReplayStep::Input(input) => {
                    if let Err(e) = check_input(base, &input) {
                        failed = Some(e);
                        break;
                    }
                    session.apply_input(&input);
                }
                ReplayStep::CausalBatch(batch) => {
                    session
                        .ingest_causal(batch)
                        .expect("store policy is never Reject");
                }
                ReplayStep::RevisionBatch(batch) => {
                    session
                        .absorb_revision_batch(&batch)
                        .expect("store policy is never Reject");
                }
                ReplayStep::Snapshot(_) => unreachable!("handled above"),
            }
        }

        let entry = self.entries.get_mut(&id.0).expect("caller checked");
        if let Some(e) = failed {
            // Cold for good: the failure is kept and counted once, and no
            // rehydration or snapshot use is counted.
            self.recovery.failed_rehydrations += 1;
            entry.failed = Some(e.clone());
            return Err(e);
        }
        self.recovery.rehydrations += 1;
        self.recovery.snapshots_used += u64::from(from_snapshot);
        self.recovery.events_replayed += replayed;
        entry.live = Some(session);
        entry.events_total = total;
        entry.events_since_snapshot = since_snapshot;
        Ok(())
    }

    /// Evicts least-recently-used live sessions (never `keep`) until the
    /// live count respects `max_live`.
    fn enforce_live_cap(&mut self, keep: SessionId) {
        if self.config.max_live == 0 {
            return;
        }
        loop {
            let live = self.entries.values().filter(|e| e.live.is_some()).count();
            if live <= self.config.max_live {
                return;
            }
            let victim = self
                .entries
                .iter()
                .filter(|(&k, e)| e.live.is_some() && k != keep.0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            let Some(victim) = victim else { return };
            let entry = self.entries.get_mut(&victim).expect("just found");
            entry.live = None;
            self.recovery.evictions += 1;
        }
    }
}

/// Refuses a user input naming an attribute outside `base`'s schema — the
/// one check the live path ([`SessionStore::apply_input`], before
/// logging), rehydration and the reference replay
/// ([`reference_of`](crate::harness::reference_of)) run before a logged
/// input, so an out-of-range input is a typed error on every path, never a
/// panic in the engine.
pub(crate) fn check_input(base: &Specification, input: &UserInput) -> Result<(), StoreError> {
    let arity = base.schema().arity();
    match input.values.keys().find(|a| a.index() >= arity) {
        Some(&attr) => Err(StoreError::UnknownAttr { attr, arity }),
        None => Ok(()),
    }
}
