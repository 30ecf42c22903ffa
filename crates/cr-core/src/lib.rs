//! Conflict resolution by inferring data currency and consistency.
//!
//! This crate implements the model, algorithms and framework of
//! *"Inferring Data Currency and Consistency for Conflict Resolution"*
//! (Fan, Geerts, Tang, Yu — ICDE 2013):
//!
//! * [`spec`] — specifications `Se = (It, Σ, Γ)`: an entity instance with
//!   partial currency orders, currency constraints and constant CFDs
//!   (Section II);
//! * [`encode`] — the `Instantiation`/`ConvertToCNF` reduction of a
//!   specification to a CNF `Φ(Se)` over value-order variables `x^A_{a1,a2}`
//!   (Section V-A);
//! * [`isvalid`] — `IsValid`, validity checking via the CDCL solver;
//! * [`deduce`] — `DeduceOrder` (unit-propagation heuristic, Fig. 5) and
//!   `NaiveDeduce` (complete, repeated SAT probes) for deriving implied
//!   currency orders (Section V-B);
//! * [`truevalue`] — true-value extraction from deduced orders, plus the
//!   exact SAT-based possible-current-value analysis;
//! * [`rules`], [`compat`], [`suggest`](mod@suggest) — `TrueDer`, compatibility graphs,
//!   `MaxClique` + `MaxSat`-repair and suggestion generation (Section V-C);
//! * [`framework`] — the interactive loop of Fig. 4 with pluggable user
//!   oracles;
//! * [`sched`] — the bounded-queue scheduler behind dataset-wide parallel
//!   resolution, with streaming backpressure and telemetry;
//! * [`implication`] — the `Se |= Ot` decision procedure (Section IV) and
//!   minimal-core explanations for invalid specifications;
//! * [`pick`] — the traditional `Pick` baseline used in the evaluation;
//! * [`metrics`] — precision / recall / F-measure accounting (Section VI).
//!
//! The oracles the engine is tested against — exhaustive completion
//! enumeration, the checked replay harnesses and the reference Ω(Se) — live
//! in the `cr-oracle` crate and use only this crate's public API.

pub mod causal;
pub mod compat;
pub mod deadline;
pub mod deduce;
pub mod encode;
pub mod framework;
pub mod implication;
pub mod ingest;
pub mod isvalid;
pub mod metrics;
pub mod orders;
pub mod pick;
pub mod rules;
pub mod sched;
pub mod spec;
pub mod suggest;
pub mod truevalue;

pub use deduce::{deduce_order, naive_deduce, naive_deduce_fresh, DeducedOrders};
pub use encode::{compile_count, CompiledProgram, EncodedSpec};
pub use deadline::{DeadlineExceeded, PhaseDeadline};
pub use framework::{ResolutionConfig, ResolutionOutcome, Resolver, RoundReport};
pub use causal::{
    CausalFrontier, CausalRevision, CausalRevisionSource, FrontierState, ScriptedCausalRevisions,
};
pub use ingest::{
    AnswerState, BatchReport, CompetingCell, ResolutionSession, Revision, RevisionError,
    RevisionPolicy, RevisionSource, RevisionTelemetry, ScriptedRevisions, SessionState,
    QUARANTINE_CAP,
};
pub use implication::{explain_invalidity, implies, ConflictPart};
pub use isvalid::{is_valid, is_valid_encoded, Validity};
pub use metrics::{Accuracy, FMeasure};
pub use orders::PartialOrders;
pub use pick::pick_baseline;
pub use sched::{resolve_batch, resolve_stream, SchedTelemetry, SchedulerConfig};
pub use spec::{Specification, UserInput};
pub use suggest::{suggest, Suggestion};
pub use truevalue::{
    exact_true_values, possible_current_values, true_values_from_orders, TrueValues,
};
