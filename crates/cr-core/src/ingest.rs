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
//!   (encoding + warm CDCL solver + never-searched deducer), stepwise
//!   drivable. A correction edits only the session's specification and
//!   its retired-CFD set; the engine re-encodes the specification at its
//!   next call (see "Re-encoding" below).
//!
//! The differential harness lives outside this crate:
//! `cr_oracle::resolve_with_revisions_checked` drives a session against a
//! revision stream and, after every revision batch, proves the engine
//! state equivalent to a **from-scratch re-resolution of the
//! post-revision specification** (validity, deduced value orders and true
//! values compared with the reference CNF of `cr_store`'s `SpecMirror`).
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
//! re-encodes `current` with [`EncodedSpec::encode`], deletes the
//! retired CFDs' clauses (`EncodedSpec::retract_cfd`) and rebuilds its
//! two solvers from the new CNF (see "Consumers are views
//! of Φ(Se)" in [`crate::framework`]). A revised session is therefore the
//! from-scratch encoding of its specification by construction. However
//! many events and batches arrive between two engine calls, they cost one
//! re-encode.
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
use crate::encode::EncodedSpec;
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
    /// Always 0: a correction re-encodes the specification, so there is
    /// no union retraction cone to measure. Kept because the
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
/// encoding and two CDCL solvers kept in sync with its CNF. It is the
/// engine behind [`Resolver::resolve`](crate::framework::Resolver::resolve),
/// exposed as a stepwise-drivable session so push-based correction
/// ingestion (and its differential harness) can interleave revisions with
/// interaction rounds.
///
/// Both solvers are loaded the same way (`EncodedSpec::load_solver`):
/// each registers the order atoms and holds the order axioms as its
/// theory, so nothing is ever added to the CNF at query time. The warm
/// solver answers `IsValid`, `NaiveDeduce` and `Suggest` and keeps what
/// it learns across rounds. The *deducer* is never searched, so its root
/// trail is exactly the unit-propagation fixpoint `DeduceOrder` reads.
/// The encoding grows only in [`ResolutionSession::apply_input`], which
/// feeds both solvers the delta (an attribute an answer grew is
/// registered again), so they sit at the end of the encoding at every
/// engine call. Both are views of the encoding: a correction re-encodes
/// the specification, an answer may delete CFD clauses from the CNF, and
/// either way the next engine call rebuilds them from it.
pub struct ResolutionSession {
    current: Specification,
    /// CFDs withdrawn upstream, as indices into the original Γ: `current`
    /// keeps Γ intact and every fresh encoding deletes their clauses.
    retired: BTreeSet<usize>,
    enc: EncodedSpec,
    /// The warm solver of `IsValid`, `NaiveDeduce` and `Suggest`.
    solver: cr_sat::Solver,
    /// The solver `DeduceOrder` reads: loaded like `solver`, never
    /// searched.
    deducer: cr_sat::Solver,
    /// A revision batch applied an event since `enc` was encoded: the
    /// next engine call re-encodes `current`.
    stale: bool,
    /// `enc` deleted clauses since `solver` and `deducer` were built from
    /// it: the next engine call rebuilds them.
    rebuild: bool,
    /// Answers whose extension deleted CFD clauses, each costing one
    /// rebuild ([`ResolutionSession::replays`]).
    answer_rebuilds: usize,
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

/// How far a solver has taken in an encoding: the clauses of its CNF and
/// its order atoms (allocation order).
#[derive(Clone, Copy, Debug)]
struct Synced {
    clauses: usize,
    atoms: usize,
}

impl Synced {
    /// The end of `enc`: everything taken in.
    fn end_of(enc: &EncodedSpec) -> Self {
        Synced {
            clauses: enc.cnf().num_clauses(),
            atoms: enc.num_order_vars(),
        }
    }

    /// Feeds `solver`, which holds `enc` up to this mark, the rest: first
    /// the order atoms allocated since (their attributes are registered
    /// again, at decision level zero, before any clause can assign the new
    /// atoms), then the CNF's tail, which also allocates every variable an
    /// assumption can name.
    fn feed(self, enc: &EncodedSpec, solver: &mut cr_sat::Solver) {
        enc.register_order_atoms(self.atoms, |d, n, var| {
            solver.register_order_domain(d, n, var)
        });
        solver.extend_from_cnf(enc.cnf(), self.clauses);
    }
}

/// The engine's encoding of `spec`: its encoding with the `retired` CFDs'
/// clauses deleted.
fn encode_engine(spec: &Specification, retired: &BTreeSet<usize>) -> EncodedSpec {
    let mut enc = EncodedSpec::encode(spec);
    for &gi in retired {
        enc.retract_cfd(gi);
    }
    enc
}

impl ResolutionSession {
    /// Opens a session on `spec`: its encoding
    /// ([`EncodedSpec::encode`]), which
    /// [`ResolutionSession::apply_input`] extends with every user answer —
    /// in the interned value space or not — and whose specification every
    /// correction edits (module docs).
    ///
    /// `_config` is inert — the encoding is fixed. The parameter stays
    /// because the benchmark (`perfbench/src/drive.rs`) passes it.
    pub fn new(_config: &ResolutionConfig, spec: &Specification) -> Self {
        Self::with_scratch(spec, None)
    }

    /// [`ResolutionSession::new`] with its warm solver built from
    /// `scratch`. The scheduler's workers pass the scratch of their
    /// previous resolution to recycle its solver allocations; a
    /// scratch-built solver is state-identical to a fresh one
    /// (`cr_sat::Solver::from_scratch`). The from-scratch loop opens one
    /// per round and never extends it.
    pub(crate) fn with_scratch(
        spec: &Specification,
        scratch: Option<cr_sat::SolverScratch>,
    ) -> Self {
        Self::open(spec.clone(), BTreeSet::new(), scratch.unwrap_or_default())
    }

    /// A session on `current` with the `retired` CFDs withdrawn.
    fn open(
        current: Specification,
        retired: BTreeSet<usize>,
        scratch: cr_sat::SolverScratch,
    ) -> Self {
        let mut session = ResolutionSession {
            enc: encode_engine(&current, &retired),
            current,
            retired,
            solver: cr_sat::Solver::from_scratch(scratch),
            deducer: cr_sat::Solver::new(),
            stale: false,
            rebuild: false,
            answer_rebuilds: 0,
            revisions: RevisionTelemetry::default(),
            policy: RevisionPolicy::default(),
            quarantine: Vec::new(),
            competing: Vec::new(),
            frontier: CausalFrontier::new(),
            answers: BTreeMap::new(),
            epoch: Epoch::ZERO,
        };
        session.rebuild_solvers();
        session
    }

    /// Brings the engine up to date by one rule: a specification change
    /// re-encodes `current` (module docs), and a deletion from the encoding
    /// rebuilds both solvers from Φ(Se). A re-encode replaces the whole
    /// CNF, so it rebuilds them too. A no-op while neither happened since
    /// the last call.
    fn refresh(&mut self) {
        if std::mem::take(&mut self.stale) {
            self.enc = encode_engine(&self.current, &self.retired);
            self.rebuild = true;
        }
        if std::mem::take(&mut self.rebuild) {
            self.rebuild_solvers();
        }
    }

    /// Rebuilds both solvers over the whole encoding, each on its own
    /// recycled allocations.
    fn rebuild_solvers(&mut self) {
        for solver in [&mut self.solver, &mut self.deducer] {
            let scratch = std::mem::take(solver).into_scratch();
            *solver = self.enc.load_solver(cr_sat::Solver::from_scratch(scratch));
        }
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

    /// Always 0: the order axioms are the solvers' theory, so no query
    /// adds a clause to Φ(Se). Kept only because the benchmark reads it
    /// (`perfbench/src/drive.rs`), like [`RevisionTelemetry::cone_union`].
    pub fn injected_axioms(&self) -> usize {
        0
    }

    /// Rebuild telemetry: `(rebuilds, 0, 0)`, where `rebuilds` counts the
    /// answers whose extension deleted CFD clauses, each of which costs the
    /// engine a rebuild of its two solvers at its next call. The last
    /// two fields are always 0 and kept only because the benchmark reads
    /// this triple, as it does [`RevisionTelemetry::cone_union`].
    pub fn replays(&self) -> (usize, usize, usize) {
        (self.answer_rebuilds, 0, 0)
    }

    /// Absorbs one round of user input: extends the encoding by the delta
    /// clauses (bringing the engine up to date first), then `current` in
    /// place by the induced tuple/orders, and feeds the delta to both
    /// solvers — unless the extension deleted CFD clauses, which leaves
    /// their rebuild to the next engine call. This is the one place the
    /// encoding grows. Returns the size of the induced order extension
    /// `|Ot|` added.
    pub fn apply_input(&mut self, input: &UserInput) -> usize {
        self.refresh();
        let synced = Synced::end_of(&self.enc);
        // The encoder derives the delta from the pre-input specification.
        if self.enc.extend_with_input(&self.current, input) {
            self.rebuild = true;
            self.answer_rebuilds += 1;
        }
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
        if !self.rebuild {
            for solver in [&mut self.solver, &mut self.deducer] {
                synced.feed(&self.enc, solver);
            }
            // Round-boundary sweep: learnt clauses accumulate over a
            // resolve(); keep the database proportional to the formula.
            let cap = (self.enc.cnf().num_clauses() / 2).max(2_000);
            self.solver.compact_learnts(cap);
        }
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
        self.solver.solve() == cr_sat::SolveResult::Sat
    }

    /// Step (2) of Fig. 4: deduce implied value orders on the warm engine.
    pub fn deduce(&mut self, method: DeductionMethod) -> Option<DeducedOrders> {
        self.refresh();
        match method {
            DeductionMethod::UnitPropagation => deduce_order_on(&self.deducer, &self.enc),
            DeductionMethod::NaiveSat => naive_deduce_on(&mut self.solver, &self.enc),
        }
    }

    /// True values extracted from `od`, the orders this session's latest
    /// [`ResolutionSession::deduce`] returned.
    pub fn true_values(&self, od: &DeducedOrders) -> TrueValues {
        true_values_from_orders(&self.enc, od)
    }

    /// Step (4) of Fig. 4: a suggestion against the warm solver.
    pub fn suggest(&mut self, od: &DeducedOrders, known: &TrueValues) -> Suggestion {
        self.refresh();
        suggest_on(&self.current, &self.enc, od, known, &mut self.solver)
    }

    /// Snapshots the session's *logical* state as plain data — everything
    /// needed to rebuild an equivalent session on top of the base
    /// specification it was opened on: the current entity rows and order
    /// pairs (user input and value corrections folded in), retired CFD
    /// indices, accepted answers with their causal dependency vectors, the
    /// full delivery frontier, the undrained competing-cell buffer, the
    /// quarantine log, the session epoch, and the revision telemetry.
    /// Engine internals (CNF, solvers) are *derived* state and
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
    /// the encoding of the snapshot's specification with the retired CFDs'
    /// clauses deleted — what the snapshotted session would build at its
    /// next call.
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
        let mut session = ResolutionSession::open(spec, retired, Default::default());
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

    /// The order-atom literals of a solver's root trail, sorted (`None` on
    /// conflict).
    fn order_fixpoint(solver: &cr_sat::Solver, enc: &EncodedSpec) -> Option<Vec<cr_sat::Lit>> {
        let mut lits: Vec<cr_sat::Lit> = solver
            .root_trail()?
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
        // `city`. The session's deducer must register the grown attribute
        // again: its root trail then equals a fresh solver's over the
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
        let warm = order_fixpoint(&session.deducer, enc).unwrap();
        assert!(warm.contains(&enc.var_of(city, sf, ny).unwrap().negative()));
        assert_eq!(Some(warm), order_fixpoint(&enc.fresh_solver(), enc));
    }

    #[test]
    fn warm_solver_registers_grown_domains() {
        // Σ says SF ≺ NY, but SF is no value of the entity. The answer
        // city = SF appends it, with its atoms, and puts every old value
        // below it, which closes the cycle NY ≺ SF ≺ NY. No CFD clause is
        // deleted, so the warm solver takes the delta: it must register
        // the grown attribute again, or its order theory never sees the
        // new atoms and the cycle passes as valid.
        let s = Schema::new("p", ["name", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::str("X"), Value::str("NY")]),
                Tuple::of([Value::str("X"), Value::str("LA")]),
            ],
        )
        .unwrap();
        let sigma = vec![cr_constraints::parser::parse_currency_constraint(
            &s,
            r#"t1[city] = "SF" && t2[city] = "NY" -> t1 <[city] t2"#,
        )
        .unwrap()];
        let spec = Specification::without_orders(e, sigma, vec![]);
        let config = ResolutionConfig::default();
        let mut session = ResolutionSession::new(&config, &spec);
        assert!(session.is_valid());
        let input = UserInput::single(AttrId(1), Value::str("SF"));
        session.apply_input(&input);
        assert_eq!(session.replays().0, 0, "the warm solver took the delta");
        let mut answered = spec.clone();
        answered.apply_user_input(&input);
        assert!(!ResolutionSession::new(&config, &answered).is_valid());
        assert!(!session.is_valid(), "the answer closes an order cycle");
    }

    /// Deduced order pairs `lo ≺ hi` on `attr`, as values.
    type ValueOrders = Vec<(AttrId, Value, Value)>;

    /// Validity and the orders both deduction methods find, with value ids
    /// read back as values so sessions with different encodings compare.
    /// Pairs with a null side are left out: an extended session never
    /// interns the null cells of its user-input tuples.
    fn engine_view(session: &mut ResolutionSession) -> (bool, Vec<ValueOrders>) {
        let valid = session.is_valid();
        let orders = [DeductionMethod::UnitPropagation, DeductionMethod::NaiveSat]
            .map(|method| {
                let od = session.deduce(method).expect("a valid specification");
                let enc = session.encoded();
                let value = |attr, id| enc.value(attr, id).clone();
                let mut pairs: ValueOrders = (0..enc.space().arity())
                    .map(|i| AttrId(i as u16))
                    .flat_map(|attr| {
                        od.pairs(attr)
                            .map(move |(lo, hi)| (attr, value(attr, lo), value(attr, hi)))
                    })
                    .filter(|(_, lo, hi)| !lo.is_null() && !hi.is_null())
                    .collect();
                pairs.sort_unstable();
                pairs
            })
            .to_vec();
        (valid, orders)
    }

    #[test]
    fn out_of_domain_answer_on_a_fired_cfd_matches_a_fresh_session() {
        // CFD: AC = 2 → city = "LA" fires: the base order puts AC 1 ≺ 2,
        // so 2 tops AC and NY ≺ LA is deduced. The answer AC = 9 then tops
        // AC, so the CFD must stop firing: its clauses over the old space
        // are deleted, and the warm solver and the deducer, which hold them,
        // must be rebuilt before the next deduction.
        let s = Schema::new("p", ["AC", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::int(1), Value::str("NY")]),
                Tuple::of([Value::int(2), Value::str("LA")]),
            ],
        )
        .unwrap();
        let mut orders = PartialOrders::empty(2);
        orders.add(AttrId(0), TupleId(0), TupleId(1));
        let gamma = cr_constraints::parser::parse_cfds(&s, "AC = 2 -> city = \"LA\"").unwrap();
        let spec = Specification::new(e, orders, vec![], gamma);
        let config = ResolutionConfig::default();
        let mut session = ResolutionSession::new(&config, &spec);
        let fired = (AttrId(1), Value::str("NY"), Value::str("LA"));
        let (valid, before) = engine_view(&mut session);
        assert!(valid);
        assert!(before.iter().all(|od| od.contains(&fired)));

        let input = UserInput::single(AttrId(0), Value::int(9));
        session.apply_input(&input);
        assert_eq!(session.replays().0, 1, "the answer deleted CFD clauses");
        let mut answered = spec.clone();
        answered.apply_user_input(&input);
        let after = engine_view(&mut session);
        assert!(after.1.iter().all(|od| !od.contains(&fired)));
        assert_eq!(
            after,
            engine_view(&mut ResolutionSession::new(&config, &answered))
        );
    }
}
