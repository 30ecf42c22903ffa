//! Reduction of a specification to CNF (Section V-A).
//!
//! `Instantiation(Se)` expresses the currency orders, currency constraints
//! and constant CFDs of a specification as *instance constraints* over the
//! strict value orders `≺v_Ai`; `ConvertToCNF` then maps each value-order
//! atom `a1 ≺v_Ai a2` to a Boolean variable `x^Ai_{a1,a2}` and each
//! implication to a clause, adding transitivity and asymmetry axioms so that
//! satisfying assignments correspond to valid completions (Lemma 5).
//!
//! ## One encoding, and the oracle's reference CNF
//!
//! The axioms are the bulk of the formula Section V-A writes out —
//! `O(n³)` transitivity clauses per attribute over `n` realised values,
//! versus `O(|Ω|)` instance clauses. [`EncodedSpec::encode`] writes none
//! of them: the dense `attr × lo × hi` variable table is fully allocated
//! (`O(n²)`), and Φ(Se) holds exactly the instance constraints. Every
//! solver over an encoding comes from [`EncodedSpec::fresh_solver`] (or,
//! inside the session, the same loader on recycled scratch), which
//! registers the tables as order domains, so the solver holds asymmetry,
//! totality and transitivity as its order theory (`cr_sat::order`): it
//! applies them inside its propagation, so its root trail before any
//! search is `DeduceOrder`'s fixpoint, and it rebuilds an axiom instance
//! as a reason clause only when conflict analysis asks. A bare
//! `Solver::from_cnf(enc.cnf())` knows no axiom.
//!
//! A session extends its encoding with every user answer; an
//! out-of-domain answer deletes the clauses of the CFDs over the grown
//! attribute and re-emits them (see the `cnf` module docs), and the
//! session's solver, a view of Φ(Se), is rebuilt from it at the engine's
//! next call (`framework`'s module docs). Upstream
//! corrections ([`crate::ingest`]) never edit an encoding: they edit the
//! session's specification, which the session then re-encodes, deleting
//! withdrawn CFDs' clauses (`EncodedSpec::retract_cfd`). Round-0 encode
//! cost is `O(n²)`.
//!
//! The axioms survive as clauses only in the oracles' **reference CNF**
//! (`cr_store::harness::reference_cnf`): Φ(Se) plus every asymmetry,
//! totality and transitivity clause, built over this module's public API
//! and solved on a solver that registers no order domain, so the oracle
//! stays independent of `cr_sat::order`. The per-round session ≡ scratch
//! check and the encoder ≡ brute-force properties compare the engine
//! with it.
//!
//! **Reproduction finding:** Section V-A as written has no totality
//! clauses `x^A_{a,b} ∨ x^A_{b,a}`. Without them, satisfying assignments
//! of the formula are partial orders that may not extend to a valid
//! completion, and literals can hold in every valid completion without
//! being implied by it (Lemmas 5/6 break on corner cases — see
//! `tests/encoding_gaps.rs`, which drops the totality clauses from the
//! reference CNF, and
//! `deduce::tests::naive_deduce_catches_disjunctive_inference_up_misses`).
//! With totality the models are exactly the value-level completions, so
//! the order theory includes it.
//!
//! ## Compiled constraint programs
//!
//! Every encode projects the entity through a dataset-level
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
//! A CFD's clauses meet the program only at *emission*: the compiled
//! tableau decides which instances a CFD produces, and re-emission after
//! value growth re-reads the same compiled pattern (resolving any
//! grown, non-table value by `Value` lookup). `cr-oracle` keeps a
//! per-entity derivation over this crate's public API as the differential
//! baseline (`tests/lazy_differential.rs` proves `omega_compiled` ≡
//! reference Ω(Se) exactly on the seed datasets and randomized scenarios).
//!
//! **Differential testing.** The incremental engine is checked against
//! its from-scratch loop (a fresh session per round, re-encoded and never
//! extended) on the four seed datasets
//! (`tests/incremental_differential.rs`, the workspace's
//! `tests/compile_once.rs`) and, after every answer, against the
//! reference CNF of the current specification on the seed datasets and
//! on randomized scenarios from `cr_data::gen` (`tests/lazy_differential.rs`),
//! including out-of-domain and CFD-LHS user answers.
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

pub use cnf::EncodedSpec;
pub use omega::{Conclusion, InstanceConstraint, OrderAtom, Origin, Premise};
pub use program::{compile_count, CompiledProgram};

/// The instance constraints Ω(Se) via the compiled-program projection —
/// exactly the instances every encode emits, in emission order.
/// The one test hook into instantiation: differential tests compare it
/// with `cr_oracle::omega_reference` and with the clause arena.
#[doc(hidden)]
pub fn omega_compiled(spec: &crate::spec::Specification) -> Vec<InstanceConstraint> {
    omega::instantiate(spec).omega
}

use cr_types::{AttrId, ValueId};

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
