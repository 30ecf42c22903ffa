//! Crash-and-rehydrate differentials: the recovery invariant at every
//! event boundary.
//!
//! Randomized scenarios × randomized causal timelines (with a user answer
//! interleaved) are driven through a [`SessionStore`] over a fault-
//! injecting backend. At **every** event boundary the log is checkpointed
//! and crashed under each [`Fault`] mode; a fresh store must rehydrate the
//! session to exactly what a from-scratch resolve of the surviving prefix
//! produces ([`verify_recovery`]), with honest telemetry: corrupt tails
//! truncated and counted, lost-sync crashes (intact shorter logs) never
//! reported as checksum failures.

use std::cell::Cell;

use cr_core::causal::CausalRevision;
use cr_core::ingest::{ResolutionSession, RevisionPolicy};
use cr_core::spec::{Specification, UserInput};
use cr_core::ResolutionConfig;
use cr_data::gen::{causal_timeline, scenario_from_raw, CausalTimelineConfig, Scenario};
use cr_store::{
    decode_log, decode_log_offsets, plan_replay, reference_of, verify_recovery, Fault,
    FaultyBackend, FileBackend, LogRecord, MemoryBackend, SessionId, SessionStore, StorageBackend,
    StoreConfig, StoreError, FORMAT_VERSION,
};
use cr_types::codec::write_frame;
use cr_types::AttrId;

const ID: SessionId = SessionId(7);

/// One logged step of a session's life.
#[derive(Clone)]
enum Step {
    Input(UserInput),
    Causal(CausalRevision),
}

/// A deterministic mixed workload: a causal timeline with one user answer
/// (the ground-truth value of attribute 1) interleaved a third of the way
/// in — so crashes cover accepted answers, not just corrections.
fn steps_for(spec: &Specification, truth: &cr_types::Tuple, seed: u64, events: usize) -> Vec<Step> {
    let timeline = causal_timeline(
        spec,
        &CausalTimelineConfig {
            seed: seed.wrapping_mul(131).wrapping_add(7),
            sources: 2,
            events,
            rounds: 3,
            ..Default::default()
        },
    );
    let mut steps: Vec<Step> = timeline
        .into_iter()
        .map(|(_, ev)| Step::Causal(ev))
        .collect();
    let mut input = UserInput::empty();
    input.values.insert(AttrId(1), truth.get(AttrId(1)).clone());
    steps.insert(steps.len() / 3, Step::Input(input));
    steps
}

fn store_config(snapshot_every: usize) -> StoreConfig {
    StoreConfig {
        snapshot_every,
        ..StoreConfig::default()
    }
}

fn fresh_store(snapshot_every: usize) -> SessionStore<FaultyBackend<MemoryBackend>> {
    SessionStore::new(
        FaultyBackend::new(MemoryBackend::new()).unwrap(),
        store_config(snapshot_every),
    )
    .unwrap()
}

fn apply_step<B: StorageBackend>(store: &mut SessionStore<B>, step: &Step) {
    match step {
        Step::Input(input) => {
            store.apply_input(ID, input).unwrap();
        }
        Step::Causal(ev) => {
            store.ingest_causal(ID, vec![ev.clone()]).unwrap();
        }
    }
}

/// Crashes `checkpoint` under `fault`, rehydrates a fresh store over the
/// damaged log, and verifies the recovery invariant against a from-scratch
/// replay of whatever survived. Returns the recovered store for extra
/// telemetry assertions.
fn crash_and_verify(
    checkpoint: &FaultyBackend<MemoryBackend>,
    spec: &Specification,
    snapshot_every: usize,
    fault: Fault,
    ctx: &str,
) -> SessionStore<FaultyBackend<MemoryBackend>> {
    let mut crashed = checkpoint.clone();
    crashed.crash(ID, fault).unwrap();
    let bytes = crashed.read_log(ID).unwrap();
    let (offsets, valid_len, scan_error) = decode_log_offsets(&bytes);
    let records: Vec<LogRecord> = offsets.iter().map(|(rec, _)| rec.clone()).collect();
    let lost = (bytes.len() - valid_len) as u64;
    // Frame-intact events stranded without their batch marker are an
    // uncommitted run: recovery must cut the log back to the last
    // committed boundary and count the partial batch.
    let plan = plan_replay(&records);
    let boundary_len = if plan.used_records == 0 {
        0
    } else {
        offsets[plan.used_records - 1].1
    };
    let partial_bytes = (valid_len - boundary_len) as u64;
    let dropped_run = plan.used_records < records.len();

    let config = ResolutionConfig::default();
    let mut reference = reference_of(&config, RevisionPolicy::Quarantine, spec, &records);

    let mut store = SessionStore::new(crashed, store_config(snapshot_every)).unwrap();
    store.open(ID, spec);
    let session = store
        .session(ID)
        .unwrap_or_else(|e| panic!("{ctx}: rehydrate failed: {e}"));
    verify_recovery(session, &mut reference).unwrap_or_else(|e| panic!("{ctx} ({fault:?}): {e}"));

    let t = store.recovery();
    assert_eq!(t.rehydrations, 1, "{ctx}: exactly one rehydration");
    if let Some(err) = scan_error {
        assert_eq!(t.corrupt_truncations, 1, "{ctx}: {err} must be counted");
    } else {
        assert_eq!(
            t.corrupt_truncations, 0,
            "{ctx}: clean log, no corrupt truncation"
        );
        assert_eq!(
            t.checksum_failures, 0,
            "{ctx}: clean log, no checksum failures"
        );
    }
    assert_eq!(
        t.truncated_bytes,
        lost + partial_bytes,
        "{ctx}: honest byte loss accounting (corrupt tail + partial batch)"
    );
    assert_eq!(
        t.partial_batch_truncations,
        u64::from(dropped_run),
        "{ctx}: partial-batch truncation counted iff an uncommitted run was dropped"
    );
    assert_eq!(
        store.log_len(ID).unwrap(),
        boundary_len as u64,
        "{ctx}: the log must be truncated to the last committed batch boundary"
    );
    if matches!(fault, Fault::LostSync) {
        assert!(
            scan_error.is_none(),
            "{ctx}: a lost fsync leaves an intact shorter log, got {scan_error:?}"
        );
        assert_eq!(
            t.checksum_failures, 0,
            "{ctx}: lost sync is not a checksum failure"
        );
    }
    store
}

/// The tentpole differential: every event boundary × every fault mode, on
/// randomized scenarios and causal timelines.
#[test]
fn every_boundary_every_fault_mode_recovers_to_surviving_prefix() {
    for seed in [3u64, 11] {
        let Scenario { spec, truth } = scenario_from_raw(seed, 4, 3, 60, false);
        let steps = steps_for(&spec, &truth, seed, 6);

        // Drive the full workload once, checkpointing the (log + sync
        // watermark) state at every boundary.
        let mut store = fresh_store(4);
        store.open(ID, &spec);
        store.session(ID).unwrap(); // materialise before the first event
        let mut checkpoints = vec![store.backend().clone()];
        for step in &steps {
            apply_step(&mut store, step);
            checkpoints.push(store.backend().clone());
        }

        for (boundary, checkpoint) in checkpoints.iter().enumerate() {
            let faults = [
                Fault::TornWrite { at: 0 },
                Fault::TornWrite { at: 1 },
                Fault::TornWrite { at: 13 },
                Fault::TruncatedTail { bytes: 1 },
                Fault::TruncatedTail { bytes: 7 },
                Fault::BitFlip {
                    byte: boundary as u64 * 31 + 7,
                    bit: (boundary % 8) as u8,
                },
                Fault::LostSync,
            ];
            for fault in faults {
                let ctx = format!("seed {seed} boundary {boundary}");
                crash_and_verify(checkpoint, &spec, 4, fault, &ctx);
            }
        }
    }
}

/// Exhaustive torn-write sweep: the final append — the batch-commit
/// marker of the last causal event — cut at **every** byte offset must
/// recover either to the full log (cut at the frame boundary) or to the
/// prefix without the final batch: a torn marker strands the batch's
/// event frames, and recovery must cut them too.
#[test]
fn torn_write_at_every_byte_of_the_final_append_recovers() {
    let seed = 5u64;
    let Scenario { spec, truth } = scenario_from_raw(seed, 4, 3, 50, false);
    let steps = steps_for(&spec, &truth, seed, 4);

    // No snapshots: the final step appends exactly one event frame plus
    // its batch marker.
    let mut store = fresh_store(0);
    store.open(ID, &spec);
    store.session(ID).unwrap();
    let mut before_last = 0;
    for (i, step) in steps.iter().enumerate() {
        if i + 1 == steps.len() {
            before_last = store.log_len(ID).unwrap();
        }
        apply_step(&mut store, step);
    }
    let full = store.log_len(ID).unwrap();
    assert!(full > before_last);
    let checkpoint = store.backend().clone();

    // The marker is the last record (and the last append, so TornWrite
    // tears it); its frame starts where the penultimate record ends.
    let (offsets, valid_len, scan_error) = decode_log_offsets(&checkpoint.read_log(ID).unwrap());
    assert!(scan_error.is_none());
    assert_eq!(valid_len as u64, full);
    assert!(matches!(
        offsets.last().unwrap().0,
        LogRecord::BatchMark { .. }
    ));
    let marker_start = offsets[offsets.len() - 2].1 as u64;
    let marker_len = full - marker_start;
    assert!(marker_len > 0);

    for at in 0..=marker_len {
        let ctx = format!("torn write at byte {at} of {marker_len}");
        let store = crash_and_verify(&checkpoint, &spec, 0, Fault::TornWrite { at }, &ctx);
        // A complete marker commits the batch; any shorter cut loses the
        // marker and with it the whole final batch.
        let expect = if at == marker_len { full } else { before_last };
        assert_eq!(store.log_len(ID).unwrap(), expect, "{ctx}");
    }
}

/// Snapshots bound replay: rehydration starts from the last snapshot and
/// replays only the tail.
#[test]
fn snapshots_bound_rehydration_replay() {
    let seed = 9u64;
    let Scenario { spec, truth } = scenario_from_raw(seed, 4, 3, 40, false);
    let steps = steps_for(&spec, &truth, seed, 7);
    let total = steps.len() as u64;

    let mut store = fresh_store(3);
    store.open(ID, &spec);
    for step in &steps {
        apply_step(&mut store, step);
    }
    // The first touch above rehydrated an empty log; measure the warm
    // rehydration as a delta.
    let t0 = store.recovery();
    assert!(store.evict(ID).unwrap());
    store.session(ID).unwrap();

    let t = store.recovery();
    assert_eq!(t.rehydrations - t0.rehydrations, 1);
    assert_eq!(t.evictions - t0.evictions, 1);
    assert_eq!(
        t.snapshots_used - t0.snapshots_used,
        1,
        "rehydration must start from the last snapshot"
    );
    let tail = total % 3;
    assert_eq!(
        t.events_replayed - t0.events_replayed,
        tail,
        "only the {tail} events after the last snapshot replay, not all {total}"
    );
    assert_eq!(t.corrupt_truncations, 0);
    assert_eq!(t.checksum_failures, 0);

    // The snapshot-restored session still matches a from-scratch replay.
    let (records, _, err) = decode_log(&store.backend().read_log(ID).unwrap());
    assert!(err.is_none());
    let mut reference = reference_of(
        &ResolutionConfig::default(),
        RevisionPolicy::Quarantine,
        &spec,
        &records,
    );
    verify_recovery(store.session(ID).unwrap(), &mut reference).unwrap();
}

/// The live cap evicts least-recently-used sessions; a cold session
/// rehydrates transparently on its next touch.
#[test]
fn lru_eviction_and_on_demand_rehydration() {
    let a = SessionId(1);
    let b = SessionId(2);
    let Scenario { spec, truth } = scenario_from_raw(13, 4, 3, 50, false);
    let steps = steps_for(&spec, &truth, 13, 3);

    let mut store = SessionStore::new(
        FaultyBackend::new(MemoryBackend::new()).unwrap(),
        StoreConfig {
            max_live: 1,
            snapshot_every: 0,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    store.open(a, &spec);
    store.open(b, &spec);

    for step in &steps {
        match step {
            Step::Input(input) => {
                store.apply_input(a, input).unwrap();
            }
            Step::Causal(ev) => {
                store.ingest_causal(a, vec![ev.clone()]).unwrap();
            }
        }
    }
    assert!(store.is_live(a));

    // Touching B forces A out (cap 1).
    store.session(b).unwrap();
    assert!(!store.is_live(a), "LRU session must be evicted at the cap");
    assert!(store.is_live(b));
    assert!(store.recovery().evictions >= 1);

    // Touching A rehydrates it to exactly the from-scratch state.
    let (records, _, err) = decode_log(&store.backend().read_log(a).unwrap());
    assert!(err.is_none());
    let mut reference = reference_of(
        &ResolutionConfig::default(),
        RevisionPolicy::Quarantine,
        &spec,
        &records,
    );
    let replayed_before = store.recovery().events_replayed;
    verify_recovery(store.session(a).unwrap(), &mut reference).unwrap();
    assert!(store.recovery().events_replayed > replayed_before);
    assert!(!store.is_live(b), "rehydrating A pushes B out in turn");
}

/// A record with an unknown format version is corruption: recovery
/// truncates it away (with telemetry) instead of guessing, and the session
/// recovers to the prefix before it.
#[test]
fn unknown_version_record_is_truncated_like_corruption() {
    let Scenario { spec, truth } = scenario_from_raw(21, 4, 3, 50, false);
    let steps = steps_for(&spec, &truth, 21, 3);

    let mut store = fresh_store(0);
    store.open(ID, &spec);
    for step in &steps {
        apply_step(&mut store, step);
    }
    let good_len = store.log_len(ID).unwrap();

    // A future-version record lands at the tail (say, after a partial
    // upgrade rollback).
    let mut payload =
        LogRecord::Revision(cr_core::ingest::Revision::RetractCfd { cfd: 0 }).encode();
    payload[0] = FORMAT_VERSION + 1;
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload);
    store.backend_mut().append(ID, &frame).unwrap();
    store.backend_mut().sync(ID).unwrap();

    assert!(store.evict(ID).unwrap());
    let (records, _, _) = decode_log(&store.backend().read_log(ID).unwrap());
    let mut reference = reference_of(
        &ResolutionConfig::default(),
        RevisionPolicy::Quarantine,
        &spec,
        &records,
    );
    verify_recovery(store.session(ID).unwrap(), &mut reference).unwrap();

    let t = store.recovery();
    assert_eq!(t.corrupt_truncations, 1);
    assert_eq!(
        t.checksum_failures, 0,
        "the frame CRC was fine; the record version was not"
    );
    assert_eq!(t.truncated_bytes, frame.len() as u64);
    assert_eq!(store.log_len(ID).unwrap(), good_len);
}

/// Counts `read_log` calls on the wrapped backend.
#[derive(Default)]
struct CountingReads {
    inner: MemoryBackend,
    reads: Cell<u64>,
}

impl StorageBackend for CountingReads {
    fn append(&mut self, id: SessionId, frame: &[u8]) -> Result<(), StoreError> {
        self.inner.append(id, frame)
    }
    fn read_log(&self, id: SessionId) -> Result<Vec<u8>, StoreError> {
        self.reads.set(self.reads.get() + 1);
        self.inner.read_log(id)
    }
    fn truncate(&mut self, id: SessionId, len: u64) -> Result<(), StoreError> {
        self.inner.truncate(id, len)
    }
    fn sync(&mut self, id: SessionId) -> Result<(), StoreError> {
        self.inner.sync(id)
    }
    fn sessions(&self) -> Result<Vec<SessionId>, StoreError> {
        self.inner.sessions()
    }
    fn remove(&mut self, id: SessionId) -> Result<(), StoreError> {
        self.inner.remove(id)
    }
}

/// An evicted session whose log ends in an input naming attribute 999,
/// appended straight to the backend (as a log written before inputs were
/// checked ahead of logging would hold it). Returns the store, the base
/// specification and the logged records.
fn poisoned_store(
    snapshot_every: usize,
    events: usize,
) -> (SessionStore<CountingReads>, Specification, Vec<LogRecord>) {
    let Scenario { spec, truth } = scenario_from_raw(23, 4, 3, 50, false);
    let mut store =
        SessionStore::new(CountingReads::default(), store_config(snapshot_every)).unwrap();
    store.open(ID, &spec);
    for step in &steps_for(&spec, &truth, 23, events) {
        apply_step(&mut store, step);
    }
    let mut frame = Vec::new();
    let record = LogRecord::Input(UserInput::single(AttrId(999), cr_types::Value::int(1)));
    write_frame(&mut frame, &record.encode());
    store.backend_mut().append(ID, &frame).unwrap();
    store.backend_mut().sync(ID).unwrap();
    assert!(store.evict(ID).unwrap());
    let (records, _, _) = decode_log(&store.backend().read_log(ID).unwrap());
    (store, spec, records)
}

/// A logged input naming an attribute outside the schema fails
/// rehydration with a typed error, every time the session is touched,
/// instead of panicking in the engine.
#[test]
fn out_of_range_logged_input_fails_rehydration_with_a_typed_error() {
    let (mut store, spec, _) = poisoned_store(0, 2);
    let arity = spec.schema().arity();
    for _ in 0..2 {
        match store.session(ID) {
            Err(StoreError::UnknownAttr { attr, arity: a }) => {
                assert_eq!((attr, a), (AttrId(999), arity));
            }
            Err(other) => panic!("expected UnknownAttr, got {other:?}"),
            Ok(_) => panic!("expected UnknownAttr, got a session"),
        }
        assert!(
            !store.is_live(ID),
            "a failed rehydration leaves the session cold"
        );
    }
}

/// The reference replay runs rehydration's input check: the same poisoned
/// log is a typed error from `store.session`, from `reference_of` and from
/// `verify_recovery`, and nothing panics.
#[test]
fn reference_replay_of_an_out_of_range_input_is_a_typed_error() {
    let (mut store, spec, records) = poisoned_store(0, 2);
    let expected = StoreError::UnknownAttr {
        attr: AttrId(999),
        arity: spec.schema().arity(),
    };
    assert_eq!(store.session(ID).err(), Some(expected.clone()));

    let config = store_config(0);
    let mut reference = reference_of(&config.resolution, config.policy, &spec, &records);
    assert_eq!(reference.error, Some(expected.clone()));
    let mut fresh = ResolutionSession::new(&config.resolution, &spec);
    let err = verify_recovery(&mut fresh, &mut reference).unwrap_err();
    assert!(err.contains(&expected.to_string()), "{err}");
}

/// A snapshot restores before the replay reaches a poisoned input: the
/// failed rehydration counts neither the rehydration nor the snapshot but
/// one failed rehydration, and the session keeps the error — the second
/// touch returns it without reading the log again.
#[test]
fn failed_replay_after_a_snapshot_counts_no_snapshot() {
    let (mut store, _, records) = poisoned_store(2, 4);
    assert!(
        records.iter().any(|r| matches!(r, LogRecord::Snapshot(_))),
        "the log holds a snapshot ahead of the poisoned input"
    );

    let t0 = store.recovery();
    let mut reads = Vec::new();
    for _ in 0..2 {
        let before = store.backend().reads.get();
        assert!(matches!(
            store.session(ID),
            Err(StoreError::UnknownAttr { .. })
        ));
        reads.push(store.backend().reads.get() - before);
    }
    let t = store.recovery();
    assert!(
        t.snapshots_used - t0.snapshots_used <= t.rehydrations - t0.rehydrations,
        "snapshots counted without a rehydration: {t0:?} -> {t:?}"
    );
    assert_eq!(
        t.failed_rehydrations - t0.failed_rehydrations,
        1,
        "{t0:?} -> {t:?}"
    );
    assert_eq!(
        reads,
        [1, 0],
        "the kept failure is returned without reading the log"
    );
}

/// Typed error paths: a Reject policy is refused up front, and touching an
/// unopened session is an [`StoreError::UnknownSession`].
#[test]
fn store_error_paths() {
    let err = SessionStore::new(
        MemoryBackend::new(),
        StoreConfig {
            policy: RevisionPolicy::Reject,
            ..StoreConfig::default()
        },
    )
    .err()
    .expect("Reject must be refused");
    assert_eq!(err, StoreError::RejectPolicy);
    assert!(err.to_string().contains("Reject"));

    let mut store = SessionStore::new(MemoryBackend::new(), StoreConfig::default()).unwrap();
    match store.session(SessionId(99)) {
        Err(StoreError::UnknownSession(id)) => assert_eq!(id, SessionId(99)),
        Err(other) => panic!("expected UnknownSession, got {other:?}"),
        Ok(_) => panic!("expected UnknownSession, got a session"),
    }
}

/// The file backend persists sessions across process lifetimes (modelled
/// as store drop + reopen) and rolls segment files without ever splitting
/// a frame.
#[test]
fn file_backend_persists_across_reopen_with_tiny_segments() {
    let root = std::env::temp_dir().join(format!(
        "cr-store-recovery-{}-{:x}",
        std::process::id(),
        0x5eedu32
    ));
    let _ = std::fs::remove_dir_all(&root);

    let Scenario { spec, truth } = scenario_from_raw(17, 4, 3, 50, false);
    let steps = steps_for(&spec, &truth, 17, 5);

    {
        // 64-byte segments: every couple of frames rolls a new file.
        let backend = FileBackend::with_segment_bytes(&root, 64).unwrap();
        let mut store = SessionStore::new(backend, store_config(3)).unwrap();
        store.open(ID, &spec);
        for step in &steps {
            match step {
                Step::Input(input) => {
                    store.apply_input(ID, input).unwrap();
                }
                Step::Causal(ev) => {
                    store.ingest_causal(ID, vec![ev.clone()]).unwrap();
                }
            }
        }
        let session_dir = root.join(format!("session-{:016x}", ID.0));
        let segments = std::fs::read_dir(&session_dir).unwrap().count();
        assert!(
            segments > 1,
            "tiny segments must roll, got {segments} file(s)"
        );
    } // store dropped: the only durable state is the log on disk

    let backend = FileBackend::with_segment_bytes(&root, 64).unwrap();
    assert_eq!(backend.sessions().unwrap(), vec![ID]);
    let (records, _, err) = decode_log(&backend.read_log(ID).unwrap());
    assert!(
        err.is_none(),
        "a cleanly closed file log scans clean: {err:?}"
    );
    let mut reference = reference_of(
        &ResolutionConfig::default(),
        RevisionPolicy::Quarantine,
        &spec,
        &records,
    );

    let mut store = SessionStore::new(backend, store_config(3)).unwrap();
    store.open(ID, &spec);
    verify_recovery(store.session(ID).unwrap(), &mut reference).unwrap();
    let t = store.recovery();
    assert_eq!(t.rehydrations, 1);
    assert_eq!(t.corrupt_truncations, 0);
    assert!(t.events_replayed > 0 || t.snapshots_used > 0);

    // Truncation across segment boundaries behaves like one contiguous log.
    let mut backend = store.into_backend();
    let full = backend.log_len(ID).unwrap();
    backend.truncate(ID, full / 2).unwrap();
    assert_eq!(backend.log_len(ID).unwrap(), full / 2);
    let (prefix_records, valid_len, _) = decode_log(&backend.read_log(ID).unwrap());
    assert!(valid_len as u64 <= full / 2);
    assert!(prefix_records.len() <= records.len());

    backend.remove(ID).unwrap();
    assert!(backend.sessions().unwrap().is_empty());
    let _ = std::fs::remove_dir_all(&root);
}
