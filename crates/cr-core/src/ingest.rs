//! Push-based correction ingestion: streaming upstream revisions applied
//! mid-resolution.
//!
//! The Fig. 4 loop of the paper only ever *adds* user facts. Real
//! deployments also receive **corrections**: upstream sources withdraw
//! previously-trusted constant CFDs and currency orders, or revise a
//! reported value (cf. trust-mapping revisions in Gatterbauer & Suciu and
//! priority updates in Staworko & Chomicki). This module makes those
//! corrections first-class:
//!
//! * [`Revision`] — one upstream event: retract a CFD from Γ, withdraw a
//!   previously-asserted currency order or a whole user answer, or replace
//!   a tuple's attribute value;
//! * [`RevisionSource`] — a push stream of revisions polled between
//!   interaction rounds ([`ScriptedRevisions`] replays a fixed timeline);
//! * [`ResolutionSession`] — the round-persistent resolution engine
//!   (encoding + warm CDCL solver + root unit propagator), stepwise
//!   drivable. A correction edits only the session's specification and
//!   its retired-CFD set; the engine re-encodes the specification at its
//!   next call (see "Re-encoding" below).
//!
//! The differential harness lives outside this crate:
//! `cr_oracle::resolve_with_revisions_checked` drives a session against a
//! revision stream and, after every revision batch, proves the engine
//! state equivalent to a **from-scratch re-resolution of the
//! post-revision specification** (validity, deduced value orders and true
//! values compared on a fresh eager encoding of `cr_store`'s
//! `SpecMirror`).
//!
//! # Re-encoding
//!
//! The paper derives Φ(Se) from Se (`Instantiation` and `ConvertToCNF`,
//! Section V-A), and a correction only changes Se. An event lands in the
//! session's logical state alone: `current`, through the in-place
//! [`Specification`] mutators, and the set of retired CFDs. A revision
//! batch that applied an event marks the engine *stale*; the next engine
//! call ([`ResolutionSession::is_valid`], [`ResolutionSession::deduce`],
//! [`ResolutionSession::suggest`] or [`ResolutionSession::apply_input`])
//! re-encodes `current` with [`EncodedSpec::encode_lazy`], retracts the
//! retired CFDs (`EncodedSpec::retract_cfd`) and builds a fresh solver —
//! on the old solver's recycled allocations — and unit propagator over the
//! new CNF. A revised session is therefore the from-scratch encoding of its
//! specification by construction. However many events and batches arrive
//! between two engine calls, they cost one re-encode.
//!
//! CFD retraction keeps Γ's *indexing* intact on the session side (the
//! encoding flags the entry retired; `TrueDer` and extension skip it) so
//! the cached compiled program — keyed to the original Σ/Γ — stays valid
//! and nothing recompiles; the mirror's materialised specification drops
//! the CFD for real.
//!
//! # Causal correction streams
//!
//! Real correction sources are concurrent, duplicated, delayed and
//! sometimes wrong; [`crate::causal`] makes the session robust against all
//! four. Events arrive as [`CausalRevision`]s — a [`Revision`] tagged with a
//! `cr_types::CausalStamp` (source id, HLC timestamp, per-source vector
//! clock) — and route through [`ResolutionSession::ingest_causal`]:
//!
//! * a [`CausalFrontier`] deduplicates redelivery by `(source, hlc)`,
//!   buffers events whose causal predecessors have not arrived, and
//!   releases them in causal order (Birman–Schiper–Stephenson delivery);
//! * concurrent [`Revision::ReplaceValue`] writes to the same cell go into
//!   a per-cell write log; the applied value is the last-writer-wins pick
//!   over the causally-maximal **branch tips** (exposed via
//!   [`ResolutionSession::branch_tips`]), which makes the final cell state
//!   a function of the delivered event *set*, independent of arrival order;
//! * malformed events degrade per [`RevisionPolicy`]: rejected with a typed
//!   [`RevisionError`] or quarantined into a bounded per-session log —
//!   one bad event never poisons the stream (its stamp still advances the
//!   frontier, so later events from that source stay deliverable).
//!
//! # Re-opening a resolved attribute
//!
//! User answers are *local* events (source [`cr_types::SourceId::LOCAL`]):
//! remote corrections never causally observe them. When a correction to an
//! attribute's cell arrives that the accepted answer did not causally see
//! (the answer's recorded delivery frontier is behind the correction's
//! sequence number) and its asserted value contradicts the accepted one,
//! the two are causally concurrent and the session **re-opens** the
//! attribute: it withdraws the accepted answer (a
//! [`Revision::WithdrawAnswer`]: the answer-induced order pairs go and the
//! answered cell reverts to null), applies the correction, and the
//! interaction loop re-asks. Corrections the answer *did* see, and
//! concurrent corrections that agree (or assert null), leave the answer
//! standing — so whether the correction lands before or after the answer,
//! both delivery orders converge to the same final resolution. A later
//! re-answer extends the re-encoded engine exactly as a fresh answer
//! extends a specification that never held the withdrawn one.
//!
//! # Batched ingestion
//!
//! A bursty upstream delivers many corrections per poll;
//! [`ResolutionSession::absorb_revision_batch`] (and
//! [`ResolutionSession::ingest_causal`]) take them as one batch. Events
//! are validated and folded into the specification strictly in event
//! order — identical checks, identical quarantine decisions, identical
//! spec mutations as one-event batches, because every mid-stream decision
//! (validation, the re-open predicate, the write-log LWW pick) reads only
//! spec-level state. The seal advances the session's monotone
//! [`cr_types::Epoch`] once if at least one event applied (an absorbed
//! input round advances it too) and marks the engine stale.

use std::collections::{BTreeMap, BTreeSet};

use cr_types::{AttrId, EntityInstance, Epoch, SourceId, Tuple, TupleId, Value, VectorClock};

use crate::causal::{CausalFrontier, CausalRevision, FrontierState};
use crate::orders::PartialOrders;

use crate::deduce::{deduce_order_on, naive_deduce_on, DeducedOrders};
use crate::encode::{ClauseKind, EncodedSpec};
use crate::framework::{DeductionMethod, ResolutionConfig};
use crate::spec::{Specification, UserInput};
use crate::suggest::{suggest_on, Suggestion};
use crate::truevalue::{true_values_from_orders, TrueValues};

/// One upstream correction event.
#[derive(Clone, Debug, PartialEq)]
pub enum Revision {
    /// The source that asserted CFD `gamma[cfd]` withdrew it. The index
    /// refers to the *original* Γ of the specification the session was
    /// opened on (session-side indexing never shifts).
    RetractCfd {
        /// Index into the original Γ.
        cfd: usize,
    },
    /// A previously-asserted currency order `lo ≺_attr hi` is withdrawn —
    /// an initial base order of `It` or a single answer-induced pair.
    WithdrawOrder {
        /// The attribute whose order is revised.
        attr: AttrId,
        /// The formerly-less-current tuple.
        lo: TupleId,
        /// The formerly-more-current tuple.
        hi: TupleId,
    },
    /// A whole user answer is withdrawn: every order pair ranking `tuple`
    /// on top of `attr` goes, and the answered cell reverts to null (the
    /// input tuple itself remains, null-padded, exactly as a from-scratch
    /// specification that never received the answer on that attribute
    /// would look after `Se ⊕ Ot` with the remaining answers).
    WithdrawAnswer {
        /// The answered attribute being withdrawn.
        attr: AttrId,
        /// The user-input tuple carrying the answer.
        tuple: TupleId,
    },
    /// The upstream source corrected a reported cell: `(tuple, attr)` now
    /// carries `value` (possibly a brand-new value, possibly null).
    ReplaceValue {
        /// The revised tuple.
        tuple: TupleId,
        /// The revised attribute.
        attr: AttrId,
        /// The corrected value.
        value: Value,
    },
}

/// Why a revision could not be applied. Returned by
/// [`ResolutionSession::absorb_revision_batch`] under
/// [`RevisionPolicy::Reject`] instead of panicking; under
/// [`RevisionPolicy::Quarantine`] the `(revision, error)` pair lands in the
/// per-session quarantine log. The session state is always untouched by
/// the offending event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RevisionError {
    /// `RetractCfd` names an index outside the original Γ.
    UnknownCfd {
        /// The offending index.
        cfd: usize,
        /// `|Γ|` of the specification the session was opened on.
        gamma_len: usize,
    },
    /// `RetractCfd` names a CFD that was already retracted — a stale or
    /// duplicated withdrawal.
    StaleCfd {
        /// The already-retired index.
        cfd: usize,
    },
    /// The event names an attribute outside the schema.
    UnknownAttr {
        /// The offending attribute.
        attr: AttrId,
        /// The schema's arity.
        arity: usize,
    },
    /// The event names a tuple outside the current entity instance.
    UnknownTuple {
        /// The offending tuple id.
        tuple: TupleId,
        /// Tuples currently in the instance.
        len: usize,
    },
    /// `WithdrawOrder` names a pair the current order relation does not
    /// contain — never asserted, or already withdrawn.
    UnknownOrder {
        /// The attribute of the withdrawn pair.
        attr: AttrId,
        /// The formerly-less-current tuple.
        lo: TupleId,
        /// The formerly-more-current tuple.
        hi: TupleId,
    },
}

impl std::fmt::Display for RevisionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RevisionError::UnknownCfd { cfd, gamma_len } => {
                write!(f, "unknown CFD index {cfd} (|Γ| = {gamma_len})")
            }
            RevisionError::StaleCfd { cfd } => {
                write!(
                    f,
                    "CFD {cfd} already retracted (stale/duplicate withdrawal)"
                )
            }
            RevisionError::UnknownAttr { attr, arity } => {
                write!(f, "unknown attribute {attr:?} (arity {arity})")
            }
            RevisionError::UnknownTuple { tuple, len } => {
                write!(f, "unknown tuple {tuple:?} ({len} tuples in instance)")
            }
            RevisionError::UnknownOrder { attr, lo, hi } => {
                write!(f, "order {lo:?} ≺_{attr:?} {hi:?} not present (never asserted or already withdrawn)")
            }
        }
    }
}

impl std::error::Error for RevisionError {}

/// What to do with a revision that fails validation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RevisionPolicy {
    /// Propagate the [`RevisionError`] to the caller; the stream stops at
    /// the first bad event. The strict choice for differential harnesses.
    Reject,
    /// Log the `(revision, error)` pair in the per-session quarantine log
    /// ([`ResolutionSession::quarantined`]), count it, and keep going. The
    /// production default: one bad event never poisons the stream.
    #[default]
    Quarantine,
}

/// Bound on the per-session quarantine log: overflow evicts the oldest
/// entries, so a hostile stream of malformed events grows the eviction
/// *counter* ([`RevisionTelemetry::quarantine_evicted`]), not session
/// memory.
pub const QUARANTINE_CAP: usize = 256;

/// A push stream of upstream corrections, polled by the resolution loop
/// between rounds. `current` is the specification the session presently
/// represents, letting sources target state that only exists mid-resolution
/// (e.g. the tuple id of an earlier answer).
pub trait RevisionSource {
    /// The events that arrived before interaction round `round`.
    fn poll(&mut self, round: usize, current: &Specification) -> Vec<Revision>;
}

/// A [`RevisionSource`] replaying a fixed timeline of `(round, event)`
/// entries (the seeded generators in `cr_data::gen` produce these).
#[derive(Clone, Debug, Default)]
pub struct ScriptedRevisions {
    events: Vec<(usize, Revision)>,
}

impl ScriptedRevisions {
    /// A scripted stream from `(round, event)` pairs (any order).
    pub fn new(mut events: Vec<(usize, Revision)>) -> Self {
        events.sort_by_key(|(round, _)| *round);
        ScriptedRevisions { events }
    }

    /// Events not yet delivered.
    pub fn remaining(&self) -> usize {
        self.events.len()
    }
}

impl RevisionSource for ScriptedRevisions {
    fn poll(&mut self, round: usize, _current: &Specification) -> Vec<Revision> {
        let mut due = Vec::new();
        self.events.retain(|(r, e)| {
            if *r <= round {
                due.push(e.clone());
                false
            } else {
                true
            }
        });
        due
    }
}

/// Revision telemetry of one resolution: how many events were absorbed,
/// delivered and degraded, and how they were batched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RevisionTelemetry {
    /// Upstream events applied.
    pub events: usize,
    /// Redelivered events dropped by `(source, hlc)` dedup at the causal
    /// frontier (0 on non-causal streams).
    pub duplicates_dropped: usize,
    /// Events that arrived before their causal predecessors and had to be
    /// buffered at the frontier (each counted once, at buffering time; 0 on
    /// non-causal streams).
    pub buffered: usize,
    /// Events that failed validation and were quarantined per
    /// [`RevisionPolicy`].
    pub quarantined: usize,
    /// Resolved attributes re-opened because a late causally-concurrent
    /// correction contradicted the accepted answer.
    pub reopened: usize,
    /// Quarantined `(revision, error)` pairs evicted (oldest first) once
    /// the bounded quarantine log exceeded [`QUARANTINE_CAP`] — a hostile
    /// stream can grow the *count*, never the memory.
    pub quarantine_evicted: usize,
    /// Revision batches sealed with at least one applied event (a
    /// per-event apply counts as a batch of one).
    pub batches: usize,
    /// Events that shared a multi-event batch's single engine rebuild: Σ of
    /// the applied sizes of every sealed batch with ≥ 2 applied events. 0
    /// means ingestion never actually coalesced anything.
    pub events_coalesced: usize,
    /// Always 0: a correction no longer retracts clause groups in place,
    /// so there is no union retraction cone to measure. Kept because the
    /// benchmark reads it.
    pub cone_union: usize,
    /// Engine rebuilds saved by coalescing: Σ over multi-event batches of
    /// (applied events − 1).
    pub replays_saved: usize,
}

impl RevisionTelemetry {
    /// The counts accumulated since `before`, an earlier reading of the
    /// same session — one round's delta.
    pub fn since(&self, before: &RevisionTelemetry) -> RevisionTelemetry {
        RevisionTelemetry {
            events: self.events - before.events,
            duplicates_dropped: self.duplicates_dropped - before.duplicates_dropped,
            buffered: self.buffered - before.buffered,
            quarantined: self.quarantined - before.quarantined,
            reopened: self.reopened - before.reopened,
            quarantine_evicted: self.quarantine_evicted - before.quarantine_evicted,
            batches: self.batches - before.batches,
            events_coalesced: self.events_coalesced - before.events_coalesced,
            cone_union: self.cone_union - before.cone_union,
            replays_saved: self.replays_saved - before.replays_saved,
        }
    }
}

impl std::fmt::Display for RevisionTelemetry {
    /// One human-readable row per session, for soak and harness failure
    /// output — e.g.
    /// `revisions: 12 events in 5 batches (3 coalesced, 2 replays saved), dropped 1 dup, 0 buffered, 2 quarantined (1 evicted), 1 reopened`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "revisions: {} events in {} batches ({} coalesced, {} replays saved), \
             dropped {} dup, {} buffered, {} quarantined ({} evicted), {} reopened",
            self.events,
            self.batches,
            self.events_coalesced,
            self.replays_saved,
            self.duplicates_dropped,
            self.buffered,
            self.quarantined,
            self.quarantine_evicted,
            self.reopened,
        )
    }
}

/// Competing concurrent candidates observed on one cell while ingesting
/// causally-stamped corrections — what a user interface should present
/// instead of a bare re-open. Candidates are the causally-maximal *branch
/// tips* of the cell's write log ([`CausalFrontier::branch_tips`]); when a
/// re-open fired, the withdrawn local answer rides along as a
/// [`SourceId::LOCAL`] candidate so the user can re-confirm it.
#[derive(Clone, Debug, PartialEq)]
pub struct CompetingCell {
    /// The contested tuple.
    pub tuple: TupleId,
    /// The contested attribute.
    pub attr: AttrId,
    /// True iff an accepted answer on this attribute was withdrawn because
    /// a causally-concurrent correction contradicted it.
    pub reopened: bool,
    /// The competing `(asserting source, value)` candidates, branch tips
    /// first, the withdrawn local answer (if any) last.
    pub candidates: Vec<(SourceId, Value)>,
}

/// Outcome of one sealed revision batch
/// ([`ResolutionSession::absorb_revision_batch`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// The epoch the seal advanced to (unchanged if nothing applied).
    pub epoch: Epoch,
    /// Events pushed into the batch (applied + degraded).
    pub events: usize,
    /// Events that applied (validated and folded into the session).
    pub applied: usize,
}

/// Event counts of one open revision batch. Opened and sealed within a
/// single `&mut self` call, so no reader ever observes a half-applied
/// batch.
#[derive(Default)]
struct BatchState {
    /// Events pushed (applied + failed validation).
    pushed: usize,
    /// Events that applied (validated and folded into `current`).
    applied: usize,
}

/// Round-persistent state of the incremental resolution path: the
/// session's specification plus the engine over it — the extended
/// encoding, the warm CDCL solver and the root unit propagator kept in sync
/// with its CNF. It is the engine behind
/// [`Resolver::resolve`](crate::framework::Resolver::resolve), exposed as a
/// stepwise-drivable session so push-based correction ingestion (and its
/// differential harness) can interleave revisions with interaction rounds.
///
/// The solver and the propagator consume the CNF at different points, so
/// each carries its own watermark. The propagator also registers the
/// encoding's order atoms behind an atom watermark and holds the order
/// axioms as its theory; the axioms the solver's CEGAR loop records into
/// the CNF (the encoding is its axiom source) reach only later solves, and
/// the propagator's tail sync skips them. Corrections leave the engine
/// stale; the next engine call rebuilds it (see the module docs).
pub struct ResolutionSession {
    current: Specification,
    /// CFDs withdrawn upstream, as indices into the original Γ: `current`
    /// keeps Γ intact and every fresh encoding retracts these.
    retired: BTreeSet<usize>,
    enc: EncodedSpec,
    solver: cr_sat::Solver,
    up: cr_sat::UnitPropagator,
    /// Clauses of `enc.cnf()` already in `solver`.
    synced_solver: usize,
    /// Clauses and order atoms of `enc` already in `up`.
    synced_up: PropagatorSync,
    /// A revision batch applied an event since `enc` was encoded: the
    /// next engine call re-encodes `current`.
    stale: bool,
    /// Axioms recorded by the encodings, and retractions counted by the
    /// propagators, that rebuilds replaced — so
    /// [`ResolutionSession::injected_axioms`] and
    /// [`ResolutionSession::replays`] stay monotone.
    replaced_axioms: usize,
    replaced_retractions: usize,
    revisions: RevisionTelemetry,
    /// Degradation policy for revisions that fail validation.
    policy: RevisionPolicy,
    /// `(revision, error)` pairs quarantined under
    /// [`RevisionPolicy::Quarantine`], bounded by [`QUARANTINE_CAP`].
    quarantine: Vec<(Revision, RevisionError)>,
    /// Competing-candidate cells observed since the last
    /// [`ResolutionSession::take_competing`] drain.
    competing: Vec<CompetingCell>,
    /// Causal delivery state (dedup, buffering, per-cell write log).
    frontier: CausalFrontier,
    /// Accepted answers per attribute, stamped with the causal frontier at
    /// answer time — what decides whether a late correction is concurrent
    /// with (and may re-open) an accepted answer.
    answers: BTreeMap<AttrId, AcceptedAnswer>,
    /// Monotone session version: advanced once per committed mutation
    /// batch (an absorbed input round, a sealed revision batch that
    /// applied at least one event).
    epoch: Epoch,
}

/// One accepted user answer, with the causal knowledge it was given under.
#[derive(Clone, Debug)]
struct AcceptedAnswer {
    /// The user-input tuple carrying the answer.
    tuple: TupleId,
    /// The accepted most-current value.
    value: Value,
    /// The frontier's delivered vector when the answer was accepted: the
    /// remote events the user had (transitively) seen. A correction with a
    /// sequence number beyond this vector is causally concurrent with the
    /// answer.
    deps: VectorClock,
}

/// How far a unit propagator has consumed an encoding: the clauses of its
/// CNF and its order atoms (allocation order).
#[derive(Clone, Copy, Debug, Default)]
struct PropagatorSync {
    clauses: usize,
    atoms: usize,
}

/// The engine over a specification: its lazy encoding with the `retired`
/// CFDs retracted, a solver (built from `scratch` when given) with the
/// active guards as persistent assumptions, and a unit propagator, both
/// synced to the whole CNF.
fn build_engine(
    spec: &Specification,
    retired: &BTreeSet<usize>,
    scratch: Option<cr_sat::SolverScratch>,
) -> (EncodedSpec, cr_sat::Solver, cr_sat::UnitPropagator) {
    let mut enc = EncodedSpec::encode_lazy(spec);
    for &gi in retired {
        enc.retract_cfd(gi);
    }
    let mut solver = match scratch {
        Some(s) => cr_sat::Solver::from_cnf_with_scratch(enc.cnf(), s),
        None => cr_sat::Solver::from_cnf(enc.cnf()),
    };
    solver.set_persistent_assumptions(enc.active_guards());
    let mut up = cr_sat::UnitPropagator::new(&cr_sat::Cnf::new());
    ResolutionSession::sync_propagator(&mut up, &enc, PropagatorSync::default());
    (enc, solver, up)
}

impl ResolutionSession {
    /// Opens a session on `spec`: the lazy encoding
    /// ([`EncodedSpec::encode_lazy`]), whose guarded CFD groups let
    /// [`ResolutionSession::apply_input`] absorb every user answer — in the
    /// interned value space or not — as a pure extension of the encoding,
    /// and whose specification every correction edits (module docs).
    ///
    /// `_config` is inert — the encoding is fixed. The parameter stays
    /// because the benchmark (`perfbench/src/drive.rs`) passes it.
    pub fn new(_config: &ResolutionConfig, spec: &Specification) -> Self {
        Self::with_scratch(spec, None)
    }

    /// [`ResolutionSession::new`] with its solver built from `scratch`.
    /// The scheduler's workers pass the scratch of their previous
    /// resolution to recycle its solver allocations; a scratch-built solver
    /// is state-identical to a fresh one
    /// (`cr_sat::Solver::from_cnf_with_scratch`). The from-scratch loop
    /// opens one per round and never extends it.
    pub(crate) fn with_scratch(
        spec: &Specification,
        scratch: Option<cr_sat::SolverScratch>,
    ) -> Self {
        Self::open(spec.clone(), BTreeSet::new(), scratch)
    }

    /// A session on `current` with the `retired` CFDs withdrawn.
    fn open(
        current: Specification,
        retired: BTreeSet<usize>,
        scratch: Option<cr_sat::SolverScratch>,
    ) -> Self {
        let (enc, solver, up) = build_engine(&current, &retired, scratch);
        ResolutionSession {
            current,
            retired,
            synced_solver: enc.cnf().num_clauses(),
            synced_up: PropagatorSync {
                clauses: enc.cnf().num_clauses(),
                atoms: enc.num_order_vars(),
            },
            enc,
            solver,
            up,
            stale: false,
            replaced_axioms: 0,
            replaced_retractions: 0,
            revisions: RevisionTelemetry::default(),
            policy: RevisionPolicy::default(),
            quarantine: Vec::new(),
            competing: Vec::new(),
            frontier: CausalFrontier::new(),
            answers: BTreeMap::new(),
            epoch: Epoch::ZERO,
        }
    }

    /// Rebuilds a stale engine over `current` (see the module docs): a
    /// fresh lazy encoding with the retired CFDs retracted, a solver on the
    /// old solver's recycled allocations and a fresh propagator. A no-op
    /// while no correction applied since the last build.
    fn refresh(&mut self) {
        if !std::mem::take(&mut self.stale) {
            return;
        }
        let scratch = std::mem::take(&mut self.solver).into_scratch();
        let (enc, solver, up) = build_engine(&self.current, &self.retired, Some(scratch));
        self.replaced_axioms += self.enc.injected_axioms();
        self.replaced_retractions += self.up.retractions();
        self.synced_solver = enc.cnf().num_clauses();
        self.synced_up = PropagatorSync {
            clauses: enc.cnf().num_clauses(),
            atoms: enc.num_order_vars(),
        };
        (self.enc, self.solver, self.up) = (enc, solver, up);
    }

    /// Tears the session down into reusable solver scratch (cleared
    /// allocations: clause arena, watch lists, literal buffers). Scheduler
    /// workers call this between entities so per-entity solver allocation
    /// cost is paid once per worker, not once per entity.
    pub(crate) fn into_solver_scratch(self) -> cr_sat::SolverScratch {
        self.solver.into_scratch()
    }

    /// Sets the degradation policy for revisions that fail validation
    /// (default: [`RevisionPolicy::Quarantine`]).
    pub fn set_revision_policy(&mut self, policy: RevisionPolicy) {
        self.policy = policy;
    }

    /// Logs one failed event in the bounded quarantine and counts it;
    /// past [`QUARANTINE_CAP`] the oldest entry is evicted.
    fn quarantine_push(&mut self, rev: Revision, err: RevisionError) {
        self.quarantine.push((rev, err));
        self.revisions.quarantined += 1;
        if self.quarantine.len() > QUARANTINE_CAP {
            self.quarantine.remove(0);
            self.revisions.quarantine_evicted += 1;
        }
    }

    /// The `(revision, error)` pairs quarantined so far (only populated
    /// under [`RevisionPolicy::Quarantine`]; bounded by
    /// [`QUARANTINE_CAP`]).
    pub fn quarantined(&self) -> &[(Revision, RevisionError)] {
        &self.quarantine
    }

    /// Drains the competing-candidate cells observed since the last call —
    /// one [`CompetingCell`] per cell that currently holds multiple
    /// causally-concurrent branch tips, or whose accepted answer a
    /// concurrent correction re-opened. Surfaced per round through
    /// [`crate::framework::RoundReport::competing`].
    pub fn take_competing(&mut self) -> Vec<CompetingCell> {
        std::mem::take(&mut self.competing)
    }

    /// The causal delivery frontier (dedup, buffering, per-cell write log).
    pub fn frontier(&self) -> &CausalFrontier {
        &self.frontier
    }

    /// The causally-maximal competing writes recorded for `(tuple, attr)` —
    /// the *branch tips* a user interface would present when concurrent
    /// corrections disagree. Each entry is `(asserting source, value)`.
    pub fn branch_tips(&self, tuple: TupleId, attr: AttrId) -> Vec<(SourceId, Value)> {
        self.frontier
            .branch_tips(tuple, attr)
            .into_iter()
            .map(|(stamp, value)| (stamp.source, value.clone()))
            .collect()
    }

    /// The specification the session currently represents (initial spec
    /// plus the absorbed user input and revisions; a CFD retraction leaves
    /// Γ's indexing intact — see the module docs).
    pub fn current(&self) -> &Specification {
        &self.current
    }

    /// The engine's encoding. After a correction it still encodes the
    /// pre-correction specification until the next engine call rebuilds it.
    pub fn encoded(&self) -> &EncodedSpec {
        &self.enc
    }

    /// Revision telemetry accumulated so far.
    pub fn revision_telemetry(&self) -> RevisionTelemetry {
        self.revisions
    }

    /// Brings `up` up to date with `enc` from the watermark `from`: first
    /// registers the order atoms allocated since (their attributes are
    /// laid out again as order domains), then feeds the CNF tail,
    /// stripping guard literals from grouped clauses and tagging them with
    /// their group so they stay retractable. Recorded axiom clauses are
    /// skipped: the propagator's order theory covers them. Returns the new
    /// watermark.
    fn sync_propagator(
        up: &mut cr_sat::UnitPropagator,
        enc: &EncodedSpec,
        from: PropagatorSync,
    ) -> PropagatorSync {
        up.ensure_vars(enc.cnf().num_vars() as usize);
        let atoms = if from.atoms < enc.num_order_vars() {
            enc.register_order_atoms(up, from.atoms)
        } else {
            from.atoms
        };
        for (i, clause) in enc.cnf().clauses_from(from.clauses).enumerate() {
            let idx = from.clauses + i;
            if enc.clause_kind(idx) == ClauseKind::Axiom {
                continue;
            }
            match enc.clause_group(idx) {
                Some((group, guard)) => {
                    // A group can be retracted after emission but before
                    // this sync (a retired CFD on a fresh encoding). Its
                    // clauses must never enter the propagator live — the
                    // solver side is neutralised by the group's ¬g unit in
                    // the same tail.
                    if !enc.is_group_active(group) {
                        continue;
                    }
                    let stripped: Vec<cr_sat::Lit> = clause
                        .iter()
                        .copied()
                        .filter(|l| l.var() != guard)
                        .collect();
                    up.add_clause_grouped(&stripped, group);
                }
                None => up.add_clause(clause),
            }
        }
        PropagatorSync {
            clauses: enc.cnf().num_clauses(),
            atoms,
        }
    }

    /// Brings the warm solver up to date with the CNF (axioms recorded by
    /// one-shot probes such as the suggestion's MaxSAT repair, extension
    /// deltas). Variables can
    /// grow without any new clause — an input extension may allocate guard
    /// variables for emission groups whose instances are all vacuous — and
    /// those guards still enter the persistent assumptions, so the var
    /// check cannot be folded into the clause-watermark check.
    pub(crate) fn sync_solver(&mut self) {
        if self.synced_solver < self.enc.cnf().num_clauses()
            || self.solver.num_vars() < self.enc.cnf().num_vars()
        {
            self.solver
                .extend_from_cnf(self.enc.cnf(), self.synced_solver);
            self.synced_solver = self.enc.cnf().num_clauses();
        }
    }

    /// Total lazily recorded axioms, over every encoding the session has
    /// built.
    pub fn injected_axioms(&self) -> usize {
        self.replaced_axioms + self.enc.injected_axioms()
    }

    /// Retraction telemetry of the session's unit propagators:
    /// `(retractions, 0, 0)`. Each retraction re-derives the propagator's
    /// fixpoint (see `cr_sat::unit_propagation`); the last two fields are
    /// always 0 and kept only because the benchmark reads this triple, as
    /// it does [`RevisionTelemetry::cone_union`].
    pub fn replays(&self) -> (usize, usize, usize) {
        (self.replaced_retractions + self.up.retractions(), 0, 0)
    }

    /// Absorbs one round of user input: extends the encoding by the delta
    /// clauses (rebuilding a stale engine first), then `current` in place
    /// by the induced tuple/orders. Returns the size of the induced order
    /// extension `|Ot|` added.
    pub fn apply_input(&mut self, input: &UserInput) -> usize {
        self.refresh();
        // The encoder derives the delta from the pre-input specification.
        let retracted_groups = self.enc.extend_with_input(&self.current, input);
        let (to, added) = self.current.apply_user_input(input);
        // Record each accepted answer with the causal knowledge it was
        // given under (the frontier's delivered vector): a later correction
        // beyond that vector is concurrent with the answer and may re-open
        // the attribute (see `ingest_causal`).
        let deps = self.frontier.delivered_vector();
        for (attr, value) in &input.values {
            if !value.is_null() {
                self.answers.insert(
                    *attr,
                    AcceptedAnswer {
                        tuple: to,
                        value: value.clone(),
                        deps: deps.clone(),
                    },
                );
            }
        }
        self.up.retract_groups(&retracted_groups);
        self.sync_solver();
        self.synced_up = Self::sync_propagator(&mut self.up, &self.enc, self.synced_up);
        // Guard set may have changed (retractions and fresh CFD emissions).
        self.solver
            .set_persistent_assumptions(self.enc.active_guards());
        // Round-boundary sweep: learnt clauses accumulate over a resolve();
        // keep the database proportional to the formula.
        let cap = (self.enc.cnf().num_clauses() / 2).max(2_000);
        self.solver.compact_learnts(cap);
        // An absorbed input round is a committed mutation batch of its
        // own: it seals an epoch.
        self.epoch = self.epoch.next();
        added
    }

    /// Validates `rev` against the current session state without touching
    /// anything: every panic path of the underlying spec application
    /// (`remove_cfd`, `withdraw_order`, `replace_value` on ids that don't
    /// exist) is caught here and reported as a typed [`RevisionError`]
    /// instead.
    fn validate_revision(&self, rev: &Revision) -> Result<(), RevisionError> {
        let len = self.current.entity().len();
        let arity = self.current.schema().arity();
        let check_attr = |attr: AttrId| {
            if attr.index() >= arity {
                Err(RevisionError::UnknownAttr { attr, arity })
            } else {
                Ok(())
            }
        };
        let check_tuple = |tuple: TupleId| {
            if tuple.index() >= len {
                Err(RevisionError::UnknownTuple { tuple, len })
            } else {
                Ok(())
            }
        };
        match rev {
            Revision::RetractCfd { cfd } => {
                let gamma_len = self.current.gamma().len();
                if *cfd >= gamma_len {
                    return Err(RevisionError::UnknownCfd {
                        cfd: *cfd,
                        gamma_len,
                    });
                }
                if self.retired.contains(cfd) {
                    return Err(RevisionError::StaleCfd { cfd: *cfd });
                }
            }
            Revision::WithdrawOrder { attr, lo, hi } => {
                check_attr(*attr)?;
                check_tuple(*lo)?;
                check_tuple(*hi)?;
                if !self.current.orders().contains(*attr, *lo, *hi) {
                    return Err(RevisionError::UnknownOrder {
                        attr: *attr,
                        lo: *lo,
                        hi: *hi,
                    });
                }
            }
            Revision::WithdrawAnswer { attr, tuple } => {
                check_attr(*attr)?;
                check_tuple(*tuple)?;
                // An in-range withdrawal of a never-asked answer (null
                // cell, no pairs) is a permissive no-op, exactly like the
                // scratch spec application.
            }
            Revision::ReplaceValue { tuple, attr, .. } => {
                check_attr(*attr)?;
                check_tuple(*tuple)?;
            }
        }
        Ok(())
    }

    /// Validates and applies one event to the session's logical state:
    /// `current` (Γ kept intact — a CFD retraction joins the retired set)
    /// and the accepted answers. Later events validate against the updated
    /// state, exactly like one-event batches. An `Err` leaves the session
    /// untouched by the offending event.
    fn push_revision(
        &mut self,
        batch: &mut BatchState,
        rev: &Revision,
    ) -> Result<(), RevisionError> {
        batch.pushed += 1;
        self.validate_revision(rev)?;
        match rev {
            Revision::RetractCfd { cfd } => {
                self.retired.insert(*cfd);
            }
            Revision::WithdrawOrder { attr, lo, hi } => {
                self.current.withdraw_order(*attr, *lo, *hi);
            }
            Revision::WithdrawAnswer { attr, tuple } => {
                self.current.withdraw_answer(*attr, *tuple);
                if self.answers.get(attr).is_some_and(|a| a.tuple == *tuple) {
                    self.answers.remove(attr);
                }
            }
            Revision::ReplaceValue { tuple, attr, value } => {
                self.current.replace_value(*tuple, *attr, value.clone());
            }
        }
        batch.applied += 1;
        Ok(())
    }

    /// [`ResolutionSession::push_revision`] with a validation failure
    /// routed through the session policy: `Ok(true)` applied, `Ok(false)`
    /// degraded, `Err` only under [`RevisionPolicy::Reject`].
    fn push_or_degrade(
        &mut self,
        batch: &mut BatchState,
        rev: &Revision,
    ) -> Result<bool, RevisionError> {
        match self.push_revision(batch, rev) {
            Ok(()) => Ok(true),
            Err(err) => self.degrade(rev.clone(), err).map(|()| false),
        }
    }

    /// Seals `batch`: a batch that applied an event counts in the
    /// telemetry, advances the epoch and marks the engine stale; one that
    /// applied nothing is a no-op.
    fn close_batch(&mut self, batch: BatchState) -> BatchReport {
        if batch.applied > 0 {
            self.stale = true;
            self.revisions.events += batch.applied;
            self.revisions.batches += 1;
            if batch.applied > 1 {
                self.revisions.events_coalesced += batch.applied;
                self.revisions.replays_saved += batch.applied - 1;
            }
            self.epoch = self.epoch.next();
        }
        BatchReport {
            epoch: self.epoch,
            events: batch.pushed,
            applied: batch.applied,
        }
    }

    /// Absorbs a poll's worth of upstream corrections as one batch — the
    /// one entry point for plain revisions. Each applied event edits the
    /// session's specification; the engine re-encodes it at its next call
    /// (module docs), once for the whole batch.
    ///
    /// Events validate and fold into the specification strictly in event
    /// order. Invalid events degrade per the session [`RevisionPolicy`];
    /// the flags say which applied (`true`) and which degraded (`false`) —
    /// what a replay harness needs to mirror exactly the applied subset.
    /// Under [`RevisionPolicy::Reject`] the already-pushed prefix is sealed
    /// and the first error is returned.
    pub fn absorb_revision_batch(
        &mut self,
        revs: &[Revision],
    ) -> Result<(BatchReport, Vec<bool>), RevisionError> {
        let mut batch = BatchState::default();
        let applied: Result<Vec<bool>, RevisionError> = revs
            .iter()
            .map(|rev| self.push_or_degrade(&mut batch, rev))
            .collect();
        let report = self.close_batch(batch);
        Ok((report, applied?))
    }

    /// The session's current epoch: the number of committed mutation
    /// batches (input rounds + sealed revision batches that applied at
    /// least one event) absorbed so far.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Ingests one poll's worth of causally-stamped events: the frontier
    /// deduplicates and buffers them, releases what is causally deliverable,
    /// and each delivered event is absorbed under the session policy —
    /// `ReplaceValue` through the per-cell write log (last-writer-wins over
    /// branch tips, so the applied cell state is independent of delivery
    /// order), everything else directly. A delivered correction that is
    /// causally concurrent with an accepted answer on the same attribute
    /// and contradicts it **re-opens** the attribute first (withdraws the
    /// answer; the interaction loop re-asks).
    ///
    /// Returns the *effective* plain revisions applied to the session, in
    /// application order — exactly what `cr_store`'s `SpecMirror` must
    /// replay to stay equivalent. `Err` is only possible under
    /// [`RevisionPolicy::Reject`].
    ///
    /// The whole poll is one revision batch: every delivered event
    /// (including buffered predecessors the frontier just released)
    /// stages into a single batch, and the engine re-encodes once, at its
    /// next call (module docs).
    pub fn ingest_causal(
        &mut self,
        events: Vec<CausalRevision>,
    ) -> Result<Vec<Revision>, RevisionError> {
        let delivered = self.frontier.ingest(events);
        self.revisions.duplicates_dropped = self.frontier.duplicates_dropped();
        self.revisions.buffered = self.frontier.buffered_events();
        let mut batch = BatchState::default();
        let effective = self.deliver_causal(&mut batch, delivered);
        self.close_batch(batch);
        effective
    }

    /// Stages the frontier's delivered events into `batch` (the body of
    /// [`ResolutionSession::ingest_causal`]); returns the effective plain
    /// revisions, or the first error under [`RevisionPolicy::Reject`].
    fn deliver_causal(
        &mut self,
        batch: &mut BatchState,
        delivered: Vec<CausalRevision>,
    ) -> Result<Vec<Revision>, RevisionError> {
        let mut effective = Vec::new();
        for ev in delivered {
            let Revision::ReplaceValue { tuple, attr, value } = &ev.rev else {
                if self.push_or_degrade(batch, &ev.rev)? {
                    effective.push(ev.rev);
                }
                continue;
            };
            // Validate before the write log: a malformed correction is
            // quarantined per policy and never pollutes the branch-tip
            // state (its stamp already advanced the frontier, so the
            // source stays deliverable).
            if let Err(err) = self.validate_revision(&ev.rev) {
                // push_revision's attempt counter never saw this event;
                // account it so `BatchReport::events` still covers
                // degraded deliveries.
                batch.pushed += 1;
                self.degrade(ev.rev.clone(), err)?;
                continue;
            }
            // Re-open: the accepted answer did not causally see this
            // correction (its recorded frontier is behind the
            // correction's sequence number) and the asserted value
            // contradicts it.
            let reopen = self.answers.get(attr).and_then(|ans| {
                let concurrent = ans.deps.get(ev.stamp.source) < ev.stamp.seq();
                let conflicts = !value.is_null() && *value != ans.value;
                (concurrent && conflicts).then(|| (ans.tuple, ans.value.clone()))
            });
            let mut withdrawn_answer = None;
            if let Some((answer_tuple, answer_value)) = reopen {
                let withdraw = Revision::WithdrawAnswer {
                    attr: *attr,
                    tuple: answer_tuple,
                };
                self.push_revision(batch, &withdraw)
                    .expect("recorded answer tuple is always in range");
                self.revisions.reopened += 1;
                withdrawn_answer = Some(answer_value);
                effective.push(withdraw);
            }
            let canonical = self.frontier.record_write(*tuple, *attr, &ev.stamp, value);
            let old = self.current.entity().tuple(*tuple).get(*attr);
            if canonical != *old {
                let rev = Revision::ReplaceValue {
                    tuple: *tuple,
                    attr: *attr,
                    value: canonical,
                };
                self.push_revision(batch, &rev)
                    .expect("canonical write was validated above");
                effective.push(rev);
            }
            self.record_competing(*tuple, *attr, withdrawn_answer);
        }
        Ok(effective)
    }

    /// Updates the competing-candidate buffer for `(tuple, attr)` after a
    /// delivered write: a cell with multiple branch tips — or a freshly
    /// re-opened one — gets (or refreshes) a [`CompetingCell`] entry;
    /// `withdrawn_answer` is the re-opened local answer, appended as a
    /// [`SourceId::LOCAL`] candidate.
    fn record_competing(&mut self, tuple: TupleId, attr: AttrId, withdrawn_answer: Option<Value>) {
        let reopened = withdrawn_answer.is_some();
        let mut candidates: Vec<(SourceId, Value)> = self
            .frontier
            .branch_tips(tuple, attr)
            .into_iter()
            .map(|(stamp, value)| (stamp.source, value.clone()))
            .collect();
        if candidates.len() < 2 && !reopened {
            return;
        }
        if let Some(value) = withdrawn_answer {
            candidates.push((SourceId::LOCAL, value));
        }
        match self
            .competing
            .iter_mut()
            .find(|c| c.tuple == tuple && c.attr == attr)
        {
            Some(cell) => {
                cell.reopened |= reopened;
                cell.candidates = candidates;
            }
            None => {
                self.competing.push(CompetingCell {
                    tuple,
                    attr,
                    reopened,
                    candidates,
                });
            }
        }
    }

    /// Routes one failed event through the session policy — the one place
    /// a [`RevisionPolicy`] is decided.
    fn degrade(&mut self, rev: Revision, err: RevisionError) -> Result<(), RevisionError> {
        match self.policy {
            RevisionPolicy::Reject => Err(err),
            RevisionPolicy::Quarantine => {
                self.quarantine_push(rev, err);
                Ok(())
            }
        }
    }

    /// Step (1) of Fig. 4 on the warm engine: is the current specification
    /// valid?
    pub fn is_valid(&mut self) -> bool {
        self.refresh();
        self.sync_solver();
        let ResolutionSession { enc, solver, .. } = self;
        let sat = solver.solve_lazy(enc);
        // Everything recorded during the lazy solve is already in the
        // solver (the CEGAR loop adds each handed-out clause).
        self.synced_solver = self.enc.cnf().num_clauses();
        sat == cr_sat::SolveResult::Sat
    }

    /// Step (2) of Fig. 4: deduce implied value orders on the warm engine.
    pub fn deduce(&mut self, method: DeductionMethod) -> Option<DeducedOrders> {
        self.refresh();
        match method {
            DeductionMethod::UnitPropagation => {
                self.synced_up = Self::sync_propagator(&mut self.up, &self.enc, self.synced_up);
                deduce_order_on(&mut self.up, &self.enc)
            }
            DeductionMethod::NaiveSat => {
                self.sync_solver();
                let ResolutionSession { enc, solver, .. } = self;
                let od = naive_deduce_on(solver, enc);
                self.synced_solver = self.enc.cnf().num_clauses();
                od
            }
        }
    }

    /// True values extracted from `od`, the orders this session's latest
    /// [`ResolutionSession::deduce`] returned.
    pub fn true_values(&self, od: &DeducedOrders) -> TrueValues {
        true_values_from_orders(&self.enc, od)
    }

    /// Step (4) of Fig. 4: a suggestion against the warm solver, recording
    /// probe/repair axiom injections into the shared CNF.
    pub fn suggest(&mut self, od: &DeducedOrders, known: &TrueValues) -> Suggestion {
        self.refresh();
        self.sync_solver();
        let (sug, solver_synced) = {
            let ResolutionSession {
                current,
                enc,
                solver,
                ..
            } = self;
            suggest_on(current, enc, od, known, solver)
        };
        self.synced_solver = solver_synced;
        sug
    }

    /// Snapshots the session's *logical* state as plain data — everything
    /// needed to rebuild an equivalent session on top of the base
    /// specification it was opened on: the current entity rows and order
    /// pairs (user input and value corrections folded in), retired CFD
    /// indices, accepted answers with their causal dependency vectors, the
    /// full delivery frontier, the undrained competing-cell buffer, the
    /// quarantine log, the session epoch, and the revision telemetry.
    /// Engine internals (CNF, solver, propagator) are *derived* state and
    /// deliberately excluded.
    pub fn state(&self) -> SessionState {
        let orders = self
            .current
            .schema()
            .attr_ids()
            .flat_map(|a| {
                self.current
                    .orders()
                    .pairs(a)
                    .map(move |(lo, hi)| (a, lo, hi))
            })
            .collect();
        SessionState {
            tuples: self
                .current
                .entity()
                .tuples()
                .iter()
                .map(|t| t.values().to_vec())
                .collect(),
            orders,
            retired_cfds: self.retired.iter().copied().collect(),
            answers: self
                .answers
                .iter()
                .map(|(&attr, a)| AnswerState {
                    attr,
                    tuple: a.tuple,
                    value: a.value.clone(),
                    deps: a.deps.clone(),
                })
                .collect(),
            frontier: self.frontier.state(),
            telemetry: self.revisions,
            competing: self.competing.clone(),
            quarantine: self.quarantine.clone(),
            epoch: self.epoch,
        }
    }

    /// Rebuilds a session from a [`SessionState`] snapshot taken against
    /// `base` — the specification (schema, Σ, Γ, *original* entity and
    /// orders are ignored in favour of the snapshot's) the original session
    /// was opened on. The restored session is behaviourally equivalent to
    /// the snapshotted one: the current specification, retired CFDs,
    /// accepted answers and delivery frontier fully determine all
    /// subsequent `ingest_causal`/`apply_input` behaviour. Its engine is
    /// the encoding of the snapshot's specification with the retired CFDs
    /// retracted — what the snapshotted session would build at its next
    /// call.
    ///
    /// Fails with a descriptive error — never panics — when the snapshot is
    /// inconsistent with `base` (wrong arity, out-of-range ids, an unknown
    /// or repeated retired CFD), which a checksummed log should have made
    /// impossible.
    pub fn restore(base: &Specification, state: SessionState) -> Result<ResolutionSession, String> {
        let schema = base.schema().clone();
        let arity = schema.arity();
        let mut tuples = Vec::with_capacity(state.tuples.len());
        for row in state.tuples {
            if row.len() != arity {
                return Err(format!(
                    "snapshot row arity {} does not match schema arity {arity}",
                    row.len()
                ));
            }
            tuples.push(Tuple::from_values(row));
        }
        let entity = EntityInstance::new(schema, tuples)
            .map_err(|e| format!("snapshot entity rejected: {e}"))?;
        let mut orders = PartialOrders::empty(arity);
        for &(attr, lo, hi) in &state.orders {
            if attr.index() >= arity || lo.index() >= entity.len() || hi.index() >= entity.len() {
                return Err(format!(
                    "snapshot order {lo:?} <_{attr:?} {hi:?} out of range"
                ));
            }
            orders.add(attr, lo, hi);
        }
        let spec = base.with_instance(entity, orders);
        let mut retired = BTreeSet::new();
        for &cfd in &state.retired_cfds {
            // A snapshot naming an unknown or repeated CFD is inconsistent.
            if cfd >= spec.gamma().len() || !retired.insert(cfd) {
                return Err(format!("snapshot retires CFD {cfd} twice or out of range"));
            }
        }
        let mut session = ResolutionSession::open(spec, retired, None);
        for a in state.answers {
            if a.attr.index() >= arity || a.tuple.index() >= session.current.entity().len() {
                return Err(format!(
                    "snapshot answer on {:?} at {:?} out of range",
                    a.attr, a.tuple
                ));
            }
            session.answers.insert(
                a.attr,
                AcceptedAnswer {
                    tuple: a.tuple,
                    value: a.value,
                    deps: a.deps,
                },
            );
        }
        session.frontier = CausalFrontier::from_state(state.frontier);
        // Buffers the snapshot captured verbatim: the undrained competing
        // cells, the quarantine log and the epoch — a rehydrated session
        // must not silently lose what its twin still holds (the
        // eviction/rehydration state-loss regression).
        session.competing = state.competing;
        session.quarantine = state.quarantine;
        session.epoch = state.epoch;
        session.revisions = state.telemetry;
        Ok(session)
    }
}

/// One accepted answer in a [`SessionState`] snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct AnswerState {
    /// The answered attribute.
    pub attr: AttrId,
    /// The user-input tuple carrying the answer.
    pub tuple: TupleId,
    /// The accepted most-current value.
    pub value: Value,
    /// The delivery frontier the answer was accepted under.
    pub deps: VectorClock,
}

/// A plain-data snapshot of a [`ResolutionSession`]'s logical state
/// ([`ResolutionSession::state`] / [`ResolutionSession::restore`]) — what
/// the durable session log (`cr-store`) persists in snapshot records so
/// rehydration replays only the log tail.
///
/// Two sessions that processed the same events agree on every field here
/// *except possibly the batch-shape counters inside `telemetry`* and the
/// epoch (both depend on how the events were batched); equivalence
/// harnesses compare the logical fields.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionState {
    /// Entity rows of the current specification (base rows plus
    /// user-input tuples, value corrections folded in).
    pub tuples: Vec<Vec<Value>>,
    /// All current order pairs, flattened as `(attr, lo, hi)`.
    pub orders: Vec<(AttrId, TupleId, TupleId)>,
    /// Retired CFD indices (into the base specification's Γ).
    pub retired_cfds: Vec<usize>,
    /// Accepted answers with their causal dependency vectors.
    pub answers: Vec<AnswerState>,
    /// The causal delivery frontier.
    pub frontier: FrontierState,
    /// Cumulative revision telemetry at snapshot time.
    pub telemetry: RevisionTelemetry,
    /// Undrained competing-candidate cells (the
    /// [`ResolutionSession::take_competing`] buffer).
    pub competing: Vec<CompetingCell>,
    /// Quarantined `(revision, error)` pairs, bounded by [`QUARANTINE_CAP`].
    pub quarantine: Vec<(Revision, RevisionError)>,
    /// The session epoch at snapshot time.
    pub epoch: Epoch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_types::Schema;

    /// The order-atom literals of a fixpoint, sorted (`None` on conflict).
    fn order_fixpoint(
        up: &mut cr_sat::UnitPropagator,
        enc: &EncodedSpec,
    ) -> Option<Vec<cr_sat::Lit>> {
        let mut lits: Vec<cr_sat::Lit> = up
            .propagate_to_fixpoint()?
            .iter()
            .copied()
            .filter(|l| enc.order_atom(l.var()).is_some())
            .collect();
        lits.sort_unstable();
        Some(lits)
    }

    #[test]
    fn warm_propagator_registers_grown_domains() {
        // An out-of-domain answer appends a value, and its atoms, to
        // `city`. The warm propagator must register the grown attribute
        // again: its fixpoint then equals a fresh propagator's over the
        // grown encoding, including the asymmetry consequences ¬(SF ≺ w)
        // of the answer's base-order units w ≺ SF.
        let s = Schema::new("p", ["name", "city"]).unwrap();
        let e = EntityInstance::new(
            s,
            vec![
                Tuple::of([Value::str("X"), Value::str("NY")]),
                Tuple::of([Value::str("X"), Value::str("LA")]),
            ],
        )
        .unwrap();
        let spec = Specification::without_orders(e, vec![], vec![]);
        let mut session = ResolutionSession::new(&ResolutionConfig::default(), &spec);
        let city = AttrId(1);
        session.apply_input(&UserInput::single(city, Value::str("SF")));
        assert!(session.deduce(DeductionMethod::UnitPropagation).is_some());
        let enc = &session.enc;
        let sf = enc.value_id(city, &Value::str("SF")).unwrap();
        let ny = enc.value_id(city, &Value::str("NY")).unwrap();
        let warm = order_fixpoint(&mut session.up, enc).unwrap();
        assert!(warm.contains(&enc.var_of(city, sf, ny).unwrap().negative()));
        assert_eq!(Some(warm), order_fixpoint(&mut enc.fresh_propagator(), enc));
    }
}
