//! Reduction of a specification to CNF (Section V-A).
//!
//! `Instantiation(Se)` expresses the currency orders, currency constraints
//! and constant CFDs of a specification as *instance constraints* over the
//! strict value orders `≺v_Ai`; `ConvertToCNF` then maps each value-order
//! atom `a1 ≺v_Ai a2` to a Boolean variable `x^Ai_{a1,a2}` and each
//! implication to a clause, adding transitivity and asymmetry axioms so that
//! satisfying assignments correspond to valid completions (Lemma 5).
//!
//! ## Encoding modes
//!
//! The axioms are the bulk of `Φ(Se)` — `O(n³)` transitivity clauses per
//! attribute over `n` realised values, versus `O(|Ω|)` instance clauses.
//! The resolution engine always produces them lazily; eager encodings
//! are one-shot:
//!
//! * **Lazy** ([`AxiomMode::Lazy`], the engine's only mode): the dense
//!   `attr × lo × hi` variable table is still fully allocated (`O(n²)`),
//!   but **no** axiom clauses are emitted. The encoding is itself the
//!   [`cr_sat::LazyAxiomSource`] its solvers and propagators consult:
//!   [`EncodedSpec::violated_axioms`] inspects a candidate assignment via
//!   the dense table and appends exactly the axiom instances the candidate
//!   violates (or that became unit under it), which the solver/propagator
//!   then injects and re-checks until the theory is satisfied; the
//!   encoding records each injected instance into its own CNF, so every
//!   later consumer starts from it. Resolution
//!   outcomes are **identical** to an eager encoding of the same
//!   specification (differentially tested, see below); round-0 encode cost
//!   drops from `O(n³)` to `O(n²)`. Only lazy encodings are ever extended
//!   with user input or revised.
//! * **Eager** ([`AxiomMode::Eager`], the [`EncodeOptions::default`]):
//!   every asymmetry/totality/transitivity instance is materialised at
//!   encode time. `Φ(Se)` is then self-contained: any SAT solver or unit
//!   propagator over [`EncodedSpec::cnf`] is complete without further
//!   cooperation, and the encoding answers every axiom consultation with
//!   nothing — the Fig. 4 steps run one body over both modes, and this
//!   module is the only one that reads the mode. It is one-shot — encoded
//!   once, queried, never extended — and serves standalone consumers
//!   (`implication`, the Fig. 8 ablations), the paper-faithful baseline and
//!   the oracles of the `cr-oracle` crate (exhaustive-completion
//!   comparisons, the per-round session ≡ scratch check).
//! * **Guarded CFDs** ([`EncodeOptions::guarded_cfds`]): each CFD's
//!   instance constraints form a retractable clause group, which is what
//!   lets the interactive session absorb every user answer — out-of-domain
//!   values included — as a pure extension of the encoding. Extending an
//!   *unguarded* encoding with an out-of-domain answer is a programming
//!   error (it panics); the session always guards, while the from-scratch
//!   loop encodes unguarded and re-encodes every round instead of
//!   extending. The full emission → activation → retraction lifecycle is
//!   documented in the `cnf` module docs; the engine side lives in
//!   `framework`'s module docs. Lazily injected axiom clauses are never
//!   guarded — they are theory-valid regardless of any CFD, so they
//!   survive retraction.
//!
//! ## Compiled constraint programs
//!
//! Every encode — any mode — projects the entity through a dataset-level
//! [`CompiledProgram`]. The lifecycle is **build once per dataset →
//! project per entity → extend per round**:
//!
//! 1. *Build once per dataset.* [`CompiledProgram::compile`] derives, from
//!    Σ/Γ plus the dataset's shared `ValueTable`, everything per-entity
//!    encoding would otherwise re-derive: each constraint's sorted
//!    referenced-attribute projection key, its premise decomposed into
//!    order premises, binary tuple comparisons and per-side constant
//!    comparisons (pre-resolved to dense global value ids), and each CFD's
//!    pattern tableau in dense-id form. Dataset generators compile once
//!    and stamp the program onto every entity specification
//!    (`Specification::set_compiled_program`); `Specification` otherwise
//!    compiles lazily (without a table) on first encode, and clones share
//!    the cache. [`compile_count`] counts compilations so the
//!    workspace's `tests/compile_once.rs` can enforce
//!    compile-once-per-dataset.
//! 2. *Project per entity.* `Instantiation(Se)` walks instance-local
//!    `u32` rows against the compiled tableaus: projection grouping sorts
//!    packed integer keys once per projection class (not per constraint),
//!    unary conjuncts are evaluated once per distinct projection (never per
//!    ordered pair) — or, for sides pinned by string constants, only on the
//!    one projection a key lookup finds — and CFD patterns resolve by
//!    global-id lookup. A `debug_assert` rejects projecting a program
//!    compiled against one `ValueTable` onto an entity interned against
//!    another (in release the dense-id shortcuts are simply bypassed).
//! 3. *Extend per round.* `EncodedSpec::extend_with_input`, driven by
//!    [`ResolutionSession::apply_input`](crate::ingest::ResolutionSession::apply_input),
//!    reuses the compiled premise shapes to filter Σ and locate affected
//!    CFDs; the program itself never changes during a resolution (user
//!    input adds tuples and values, not constraints), so every round of
//!    every entity of a dataset shares one `Arc<CompiledProgram>` —
//!    including across the worker threads of `sched::resolve_batch`
//!    (`CompiledProgram` is immutable after compile, hence freely
//!    `Send + Sync`-shared; entities only read it).
//!
//! The guarded-CFD mode interacts with the program only at *emission*: the
//! compiled tableau decides which instances a CFD produces, the guard
//! machinery decides which clause group they land in, and re-emission
//! after value growth re-reads the same compiled pattern (resolving any
//! grown, non-table value by `Value` lookup). `cr-oracle` keeps a
//! per-entity derivation over this crate's public API as the differential
//! baseline (`tests/lazy_differential.rs` proves `omega_compiled` ≡
//! reference Ω(Se) exactly on the seed datasets and randomized scenarios).
//!
//! **Defaults.** [`EncodeOptions::default`] is *eager and unguarded* so
//! that standalone `EncodedSpec::encode` + `Solver::from_cnf` pipelines
//! stay complete with zero cooperation. The engine's encodings are fixed:
//! an interactive session encodes with
//! `EncodeOptions::lazy().with_guarded_cfds()`, a revisable one with
//! `EncodeOptions::lazy().with_revisable()`, and the from-scratch oracle
//! (`ResolutionConfig::incremental` off) with plain unguarded
//! [`EncodeOptions::lazy`]. Every encode runs the compiled projection —
//! the program is orthogonal to the axiom and guard modes.
//!
//! **Differential testing.** The lazy engine is checked against its
//! from-scratch loop on the four seed datasets
//! (`tests/incremental_differential.rs`, the workspace's
//! `tests/compile_once.rs`) and,
//! after every answer, against an eager self-contained encode of the
//! current specification on the seed datasets and on randomized scenarios
//! from `cr_data::gen` (`tests/lazy_differential.rs`), including
//! out-of-domain and CFD-LHS user answers.
//!
//! ## Semantics notes
//!
//! * The value space of attribute `Ai` is its active domain plus `null` when
//!   null occurs; nulls are *strict bottoms* (unit clauses `null ≺v a`),
//!   reflecting "an attribute with value missing is ranked the lowest".
//! * A premise order atom instantiated on equal values is `false` (a value
//!   is never strictly more current than itself) — the instance is dropped.
//! * A conclusion atom on equal values is vacuously satisfied — the instance
//!   is skipped (required for Example 2 of the paper to type-check: ϕ5 fires
//!   on Edith's (r2, r3) whose jobs are both `n/a`).
//! * A CFD whose LHS pattern constant is outside the active domain can never
//!   fire and is skipped; one whose RHS constant is outside the active
//!   domain forces `¬ωX` (the current tuple draws its values from `Ie`).

mod cnf;
mod omega;
mod program;

pub use cnf::{ClauseKind, EncodedSpec, GroupId};
pub use omega::{Conclusion, InstanceConstraint, OrderAtom, Origin, Premise};
pub use program::{compile_count, CompiledProgram};

/// The instance constraints Ω(Se) via the compiled-program projection —
/// exactly the instances an unguarded encode emits, in emission order.
/// The one test hook into instantiation: differential tests compare it
/// with `cr_oracle::omega_reference` and with the clause arena.
#[doc(hidden)]
pub fn omega_compiled(spec: &crate::spec::Specification) -> Vec<InstanceConstraint> {
    omega::instantiate(spec).omega
}

use cr_types::{AttrId, ValueId};

/// How the order axioms (asymmetry, totality, transitivity) of `Φ(Se)` are
/// produced — see the "Encoding modes" section of the [module docs](self).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AxiomMode {
    /// Materialise every axiom instance at encode time: `O(n³)` transitivity
    /// clauses per attribute (the paper's encoding). `Φ(Se)` is
    /// self-contained.
    #[default]
    Eager,
    /// Allocate the dense order-variable table but emit no axiom clauses;
    /// the encoding instantiates violated/unit instances on demand as the
    /// [`cr_sat::LazyAxiomSource`] of its consumers (see
    /// [`EncodedSpec::violated_axioms`]) and records them into its CNF.
    Lazy,
}

/// Options controlling CNF generation.
#[derive(Clone, Copy, Debug)]
pub struct EncodeOptions {
    /// Eager or lazy order-axiom generation. [`EncodeOptions::default`] is
    /// [`AxiomMode::Eager`] (self-contained CNF for one-shot consumers);
    /// the resolution engine always encodes with [`AxiomMode::Lazy`].
    pub axioms: AxiomMode,
    /// Include totality clauses `x^A_{a,b} ∨ x^A_{b,a}` for every value pair
    /// (eagerly or through the lazy source, per [`EncodeOptions::axioms`]).
    ///
    /// **Reproduction finding.** The paper's encoding has transitivity and
    /// asymmetry but *not* totality, so satisfying assignments of `Φ(Se)`
    /// are partial orders that may not extend to a valid completion, and
    /// literals can hold in every valid completion without being implied by
    /// `Φ(Se)` (Lemmas 5/6 break on corner cases — see
    /// `encoding_gaps::paper_encoding_misses_disjunctive_facts`). With
    /// totality the models of `Φ(Se)` are exactly the value-level
    /// completions. Default `true`; set `false` for the paper-faithful
    /// ablation.
    pub totality: bool,
    /// Emit every CFD's instance constraints as a *guard-literal clause
    /// group* (see the guard-group lifecycle in the `cnf` module docs).
    /// Guarded CFD clauses carry an extra `¬g` literal and are only active
    /// while `g` is asserted — via [`EncodedSpec::active_guards`] units in
    /// fresh solvers, or as persistent assumptions on the incremental
    /// engine's warm solver — which makes them *retractable*: when a user
    /// answer introduces a new value, the affected CFDs' stale groups are
    /// withdrawn and re-emitted over the grown value space instead of
    /// rebuilding the whole encoding. Default `false` (one-shot encodings
    /// never retract and skip the guard plumbing); the incremental
    /// resolution engine turns it on. Orthogonal to the compiled
    /// constraint program (see the module docs): the compiled CFD tableau
    /// decides *which* instances are emitted, this flag decides whether
    /// they land in a retractable group.
    pub guarded_cfds: bool,
    /// Emit **every revision-sensitive** clause retractably, not just the
    /// CFDs: base currency orders land in one clause group per tuple-level
    /// order pair, Σ instances in one group per currency constraint, and
    /// user-answer rankings in per-pair groups — so push-based correction
    /// ingestion ([`crate::ingest`]) can withdraw an upstream CFD, a
    /// previously-asserted order or a user answer, or replace a tuple's
    /// attribute value, all without rebuilding the encoding. Implies the
    /// full guard-group lifecycle of [`EncodeOptions::guarded_cfds`] and
    /// additionally maintains per-value *liveness* refcounts (a value whose
    /// last occurrence is revised away is retired from the query surface —
    /// tops, candidates, ωX premises — while its order variables stay
    /// allocated). Default `false`: one-shot encodings and the ordinary
    /// interactive engine skip the extra guard variables.
    pub revisable: bool,
}

impl Default for EncodeOptions {
    fn default() -> Self {
        EncodeOptions {
            axioms: AxiomMode::Eager,
            totality: true,
            guarded_cfds: false,
            revisable: false,
        }
    }
}

impl EncodeOptions {
    /// Lazy axiom instantiation with totality, unguarded — the
    /// from-scratch oracle's encoding; sessions add guarded CFDs or full
    /// revision support on top.
    pub fn lazy() -> Self {
        EncodeOptions { axioms: AxiomMode::Lazy, ..Default::default() }
    }

    /// The fully materialised encoding (synonym of [`EncodeOptions::default`],
    /// spelled out for differential-test call sites).
    pub fn eager() -> Self {
        EncodeOptions::default()
    }

    /// The encoding exactly as described in Section V-A of the paper
    /// (eager, no totality clauses).
    pub fn paper_faithful() -> Self {
        EncodeOptions { totality: false, ..Default::default() }
    }

    /// These options with guarded CFD emission enabled.
    pub fn with_guarded_cfds(self) -> Self {
        EncodeOptions { guarded_cfds: true, ..self }
    }

    /// These options with full revision support enabled (implies guarded
    /// CFDs — see [`EncodeOptions::revisable`]).
    pub fn with_revisable(self) -> Self {
        EncodeOptions { revisable: true, guarded_cfds: true, ..self }
    }

    /// True iff axioms are lazily instantiated.
    pub fn is_lazy(&self) -> bool {
        self.axioms == AxiomMode::Lazy
    }
}

/// A value-order literal `(attr, lo, hi)` read as `lo ≺v_attr hi`, plus a
/// sign for deduced results.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ValuePair {
    /// The attribute whose order is constrained.
    pub attr: AttrId,
    /// The less-current value.
    pub lo: ValueId,
    /// The more-current value.
    pub hi: ValueId,
}
