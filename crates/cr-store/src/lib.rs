//! Durable resolution sessions: per-session write-ahead event logs with
//! checksummed frames, periodic snapshots, crash-and-rehydrate recovery,
//! and a multi-session store with cold-session eviction.
//!
//! A [`ResolutionSession`](cr_core::ResolutionSession) lives and dies with
//! its process; this crate gives it a durable identity. Every input a
//! session absorbs — a round of user answers, a causally-stamped upstream
//! correction, a plain revision — is first appended to a per-session log
//! held by a [`StorageBackend`] as a
//! length-prefixed CRC-32-checksummed frame (`cr_types::codec`), *then*
//! applied to the in-memory engine. The log records **inputs, not
//! effects**: replay is a pure function, so a session can always be rebuilt
//! by replaying its surviving log through the very same
//! `ingest_causal`/`apply_input` code paths production traffic uses.
//! Periodic [`SnapshotRecord`]s capture the
//! session's logical state ([`SessionState`](cr_core::SessionState)) so
//! rehydration replays only the tail after the last snapshot.
//!
//! Revision ingestion is **batch-atomic**: a poll's events are appended
//! and synced, applied as one coalesced engine batch, then committed by a
//! [`LogRecord::BatchMark`]. Recovery groups records into whole batches
//! ([`plan_replay`]) and drops an uncommitted trailing run — rehydration
//! always restores the session to exactly a batch boundary.
//!
//! # The recovery invariant
//!
//! > **A restored session is equivalent to a from-scratch resolve of the
//! > surviving event prefix.**
//!
//! After *any* crash — torn final write, truncated tail, bit-flipped
//! frame, lost final fsync ([`fault::Fault`]) — recovery scans the log,
//! detects corruption by checksum, truncates to the end of the last valid
//! frame, and rebuilds the session from the last intact snapshot plus the
//! surviving tail. The rebuilt session must agree with a *fresh* session
//! that replayed the same surviving records from scratch — on validity,
//! deduced value orders, true values (via
//! [`check_sessions_against_scratch`]: both sessions against one scratch
//! encoding of a [`SpecMirror`] of the surviving prefix), and on the full
//! logical state (entity rows, order pairs, retired CFDs, accepted
//! answers, causal frontier). [`harness`] packages that
//! differential; `cr-store`'s recovery tests and the `crash_soak` CI
//! binary drive it at **every** event boundary under all four fault modes.
//! Recovery is never silent: [`RecoveryTelemetry`]
//! counts rehydrations, replayed events, checksum failures and truncated
//! bytes.
//!
//! # Snapshot format version policy
//!
//! Every record payload begins with a format version byte
//! ([`event::FORMAT_VERSION`], currently 3). Decoders accept **exactly**
//! the versions they know and fail with a typed
//! [`CodecError::UnsupportedVersion`](cr_types::CodecError) otherwise —
//! recovery then treats the record like any other corruption: the log is
//! truncated to the last frame it fully understands. The version byte is
//! bumped whenever the encoding of any record changes incompatibly; new
//! fields must either come with a bump or be appended behind the existing
//! ones with decoders tolerating their absence. The *frame* layer
//! (`[len][payload][crc32]`) is version-free by design and must never
//! change: it is what lets any future build find frame boundaries in any
//! past log. Snapshots are an optimization, not a source of truth — a
//! decoder that cannot use a snapshot record may fall back to replaying
//! the full event log.

pub mod backend;
pub mod event;
pub mod fault;
pub mod harness;
pub mod store;

pub use backend::{FileBackend, MemoryBackend, SessionId, StorageBackend};
pub use event::{
    decode_log, decode_log_offsets, plan_replay, LogRecord, ReplayPlan, ReplayStep, SnapshotRecord,
    FORMAT_VERSION,
};
pub use fault::{CrashReport, Fault, FaultyBackend};
pub use harness::{
    check_session_against_scratch, check_sessions_against_scratch, check_theory_against_reference,
    diff_logical_states, reference_cnf, reference_of, verify_recovery, ReplayedReference,
    SpecMirror,
};
pub use store::{AdmissionProbe, RecoveryTelemetry, SessionStore, StoreConfig, StoreError};
