//! Session ≡ scratch, defined once: the checks every differential of a
//! [`ResolutionSession`] runs.
//!
//! * [`SpecMirror`] folds the revisions and inputs a session absorbed into
//!   a plain [`Specification`];
//! * [`reference_cnf`] writes out Φ(Se) of an encoding plus every order
//!   axiom as a clause — the oracle's formula, solved on a solver that
//!   registers no order domain, so the oracle does not rely on the order
//!   theory (`cr_sat::order`) it checks;
//! * [`check_theory_against_reference`] compares the engine's solvers over
//!   an encoding with solvers over such a reference (theory ≡ reference);
//! * [`check_session_against_scratch`] compares a session with the
//!   reference CNF of a fresh encoding of that mirror (validity, deduced
//!   value orders, true values); [`check_sessions_against_scratch`]
//!   compares several sessions with one such reference;
//! * [`diff_logical_states`] compares two sessions' logical
//!   [`SessionState`]s.
//!
//! The crash-and-rehydrate differential is built from them: **a restored
//! session must be equivalent to a from-scratch resolve of the surviving
//! event prefix**. [`reference_of`] replays the records recovery managed
//! to read back into a *fresh* session plus mirror, and
//! [`verify_recovery`] compares the rehydrated session against it — first
//! semantically, then on the logical state (entity rows, order pairs,
//! retired CFDs, accepted answers, causal frontier, competing cells,
//! quarantine log and epoch). Telemetry is excluded: snapshot-plus-tail
//! replay legally does less engine work than a full replay.
//!
//! The `cr-store` recovery tests and the `crash_soak` CI binary drive this
//! differential at every event boundary under every [`crate::fault::Fault`]
//! mode; the `cr-oracle` checked replay harnesses run the same checks after
//! every revision batch.

use std::collections::BTreeSet;
use std::fmt::Debug;

use cr_core::deduce::{deduce_order_on, naive_deduce_on, DeducedOrders};
use cr_core::framework::DeductionMethod;
use cr_core::ingest::{
    ResolutionSession, Revision, RevisionPolicy, RevisionTelemetry, SessionState,
};
use cr_core::sat::{Cnf, Lit, SolveResult, Solver};
use cr_core::spec::{Specification, UserInput};
use cr_core::true_values_from_orders;
use cr_core::{EncodedSpec, ResolutionConfig, TrueValues};
use cr_types::{AttrId, Value, ValueId};

use crate::event::{plan_replay, LogRecord, ReplayStep};
use crate::store::{check_input, StoreError};

/// The *post-revision* specification, materialised: the mirror a session
/// is checked against. Tracks retired CFDs separately so revision events
/// can keep referring to original Γ indices, and materialises a plain
/// [`Specification`] (with retired CFDs actually removed) on demand.
pub struct SpecMirror {
    spec: Specification,
    retired_cfds: BTreeSet<usize>,
}

impl SpecMirror {
    /// A mirror starting at `spec`.
    pub fn new(spec: &Specification) -> Self {
        SpecMirror {
            spec: spec.clone(),
            retired_cfds: BTreeSet::new(),
        }
    }

    /// Folds one revision into the mirror.
    pub fn apply(&mut self, rev: &Revision) {
        match rev {
            Revision::RetractCfd { cfd } => {
                self.retired_cfds.insert(*cfd);
            }
            Revision::WithdrawOrder { attr, lo, hi } => {
                self.spec.withdraw_order(*attr, *lo, *hi);
            }
            Revision::WithdrawAnswer { attr, tuple } => {
                self.spec.withdraw_answer(*attr, *tuple);
            }
            Revision::ReplaceValue { tuple, attr, value } => {
                self.spec.replace_value(*tuple, *attr, value.clone());
            }
        }
    }

    /// Folds one round of user input into the mirror (`Se ⊕ Ot`).
    pub fn apply_input(&mut self, input: &UserInput) {
        self.spec.apply_user_input(input);
    }

    /// The materialised post-revision specification: retired CFDs removed
    /// for real. Shares the mirror's Σ (and, while no CFD is retired, its Γ
    /// and compiled program); removing a CFD copies Γ once and leaves the
    /// program to be recompiled on first encode.
    pub fn materialise(&self) -> Specification {
        let mut out = self.spec.clone();
        // Descending, so the remaining original indices stay valid.
        for &gi in self.retired_cfds.iter().rev() {
            out.remove_cfd(gi);
        }
        out
    }
}

/// The oracle's formula for `enc`: Φ(Se) plus, per attribute, every
/// asymmetry clause `¬x_ab ∨ ¬x_ba`, totality clause `x_ab ∨ x_ba` and
/// transitivity clause `¬x_ab ∨ ¬x_bc ∨ x_ac` over the interned values —
/// the `O(n³)` axioms Section V-A writes out and the engine's solvers hold
/// as their order theory instead. Any solver over it is complete without
/// a registered order domain. A totality clause is the only clause with
/// two positive literals (an instance clause has at most one).
pub fn reference_cnf(enc: &EncodedSpec) -> Cnf {
    let mut cnf = enc.cnf().clone();
    for ai in 0..enc.space().arity() as u16 {
        let attr = AttrId(ai);
        let ids: Vec<ValueId> = enc.space().attr(attr).ids().collect();
        let x = |lo: ValueId, hi: ValueId| enc.var_of(attr, lo, hi).expect("dense variable table");
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                cnf.add_clause([x(a, b).negative(), x(b, a).negative()]);
                cnf.add_clause([x(a, b).positive(), x(b, a).positive()]);
            }
        }
        for &a in &ids {
            for &b in ids.iter().filter(|&&b| b != a) {
                for &c in ids.iter().filter(|&&c| c != a && c != b) {
                    cnf.add_clause([x(a, b).negative(), x(b, c).negative(), x(a, c).positive()]);
                }
            }
        }
    }
    cnf
}

/// Theory ≡ reference: the solvers the engine builds over `enc`
/// ([`EncodedSpec::fresh_solver`], holding the order axioms as their
/// theory) against bare solvers over `reference` (normally
/// [`reference_cnf`]`(enc)`, holding them as clauses). Compares validity,
/// `DeduceOrder`, `NaiveDeduce` and every attribute's possible current
/// values; the error names the first step that diverged and the facts
/// only one side has.
pub fn check_theory_against_reference(enc: &EncodedSpec, reference: &Cnf) -> Result<(), String> {
    let mut theory = enc.fresh_solver();
    let mut clauses = Solver::from_cnf(reference);
    let up = |solver: &Solver| deduce_order_on(solver, enc).map(|od| order_ids(enc, &od));
    diverged("DeduceOrder", up(&theory), up(&clauses))?;
    let (valid, reference_valid) = (
        theory.solve() == SolveResult::Sat,
        clauses.solve() == SolveResult::Sat,
    );
    if valid != reference_valid {
        return Err(format!(
            "validity diverged: theory {valid}, reference {reference_valid}"
        ));
    }
    let naive = |solver: &mut Solver| naive_deduce_on(solver, enc).map(|od| order_ids(enc, &od));
    diverged("NaiveDeduce", naive(&mut theory), naive(&mut clauses))?;
    for ai in 0..enc.space().arity() as u16 {
        let attr = AttrId(ai);
        let possible = |solver: &mut Solver| {
            let ids = enc.space().attr(attr).ids();
            Some(BTreeSet::from_iter(ids.filter(|&v| {
                let top: Vec<Lit> = enc.top_literals(attr, v).collect();
                solver.solve_with_assumptions(&top) == SolveResult::Sat
            })))
        };
        diverged(
            &format!("possible current values of {attr:?}"),
            possible(&mut theory),
            possible(&mut clauses),
        )?;
    }
    Ok(())
}

/// Deduced orders as a set of `(attr, lo, hi)` over one encoding's ids.
fn order_ids(enc: &EncodedSpec, od: &DeducedOrders) -> BTreeSet<(AttrId, ValueId, ValueId)> {
    (0..enc.space().arity() as u16)
        .map(AttrId)
        .flat_map(|attr| od.pairs(attr).map(move |(lo, hi)| (attr, lo, hi)))
        .collect()
}

/// One step of [`check_theory_against_reference`] must agree: the same
/// facts, or a conflict (`None`) on both sides.
fn diverged<T: Ord + Debug>(
    step: &str,
    theory: Option<BTreeSet<T>>,
    reference: Option<BTreeSet<T>>,
) -> Result<(), String> {
    match (theory, reference) {
        (Some(t), Some(r)) if t != r => Err(format!(
            "{step} diverged: only theory {:?}, only reference {:?}",
            t.difference(&r).collect::<Vec<_>>(),
            r.difference(&t).collect::<Vec<_>>()
        )),
        (t, r) if t.is_some() != r.is_some() => Err(format!(
            "{step} diverged: conflict on the {} side only",
            if t.is_none() { "theory" } else { "reference" }
        )),
        _ => Ok(()),
    }
}

/// One engine-vs-scratch equivalence check: encode the mirror's
/// materialised specification from scratch, solve its [`reference_cnf`]
/// on a solver with no order domain, and compare validity, deduced value
/// orders and true values against the session. Public so custom callers (tests, benches) can interleave their
/// own revision/input schedules with verification.
pub fn check_session_against_scratch(
    session: &mut ResolutionSession,
    mirror: &SpecMirror,
) -> Result<(), String> {
    Scratch::of(mirror)?.check(session)
}

/// [`check_session_against_scratch`] of several sessions absorbing the
/// same history: the scratch side is built once and every session is
/// compared with it. The error names the first session that diverged.
pub fn check_sessions_against_scratch(
    mirror: &SpecMirror,
    sessions: &mut [(&str, &mut ResolutionSession)],
) -> Result<(), String> {
    let scratch = Scratch::of(mirror)?;
    for (name, session) in sessions.iter_mut() {
        scratch
            .check(session)
            .map_err(|e| format!("{name} session: {e}"))?;
    }
    Ok(())
}

/// Deduced value orders compared at the value level over non-null lower
/// bounds: the two encodings number their variables differently, and an
/// extended session never interns the null cells of its user-input tuples
/// (filtered with the null side). Actual `Value`s, not renderings —
/// `Int(3)` and `Str("3")` display alike but must never be conflated.
type ValuePairs = BTreeSet<(AttrId, Value, Value)>;

fn value_pairs(enc: &EncodedSpec, od: &DeducedOrders) -> ValuePairs {
    let mut out = BTreeSet::new();
    for ai in 0..enc.space().arity() as u16 {
        let attr = AttrId(ai);
        for (lo, hi) in od.pairs(attr) {
            let (lo_v, hi_v) = (enc.value(attr, lo), enc.value(attr, hi));
            if !lo_v.is_null() && !hi_v.is_null() {
                out.insert((attr, lo_v.clone(), hi_v.clone()));
            }
        }
    }
    out
}

/// The scratch side of a session ≡ scratch check, built once per mirror
/// state: `None` when the materialised specification is invalid, else its
/// deduced value pairs and true values, all read from one solver over the
/// reference CNF.
struct Scratch(Option<(ValuePairs, TrueValues)>);

impl Scratch {
    fn of(mirror: &SpecMirror) -> Result<Self, String> {
        let scratch = EncodedSpec::encode(&mirror.materialise());
        let mut solver = Solver::from_cnf(&reference_cnf(&scratch));
        let od = deduce_order_on(&solver, &scratch);
        if solver.solve() == SolveResult::Unsat {
            return Ok(Scratch(None));
        }
        let od = od.ok_or_else(|| "scratch deduced a conflict".to_string())?;
        Ok(Scratch(Some((
            value_pairs(&scratch, &od),
            true_values_from_orders(&scratch, &od),
        ))))
    }

    fn check(&self, session: &mut ResolutionSession) -> Result<(), String> {
        let scratch_valid = self.0.is_some();
        let session_valid = session.is_valid();
        if session_valid != scratch_valid {
            return Err(format!(
                "validity diverged: replay says {session_valid}, scratch says {scratch_valid}"
            ));
        }
        let Some((scratch_pairs, scratch_tv)) = &self.0 else {
            return Ok(()); // both invalid: nothing further to compare
        };

        let session_od = session
            .deduce(DeductionMethod::UnitPropagation)
            .ok_or_else(|| "replay deduced a conflict on a valid spec".to_string())?;
        let replay_pairs = value_pairs(session.encoded(), &session_od);
        if &replay_pairs != scratch_pairs {
            let only_replay: Vec<_> = replay_pairs.difference(scratch_pairs).take(5).collect();
            let only_scratch: Vec<_> = scratch_pairs.difference(&replay_pairs).take(5).collect();
            return Err(format!(
                "deduced orders diverged: only-replay {only_replay:?}, only-scratch {only_scratch:?}"
            ));
        }

        let replay_tv = session.true_values(&session_od);
        if &replay_tv != scratch_tv {
            return Err(format!(
                "true values diverged: replay {replay_tv:?}, scratch {scratch_tv:?}"
            ));
        }
        Ok(())
    }
}

/// One named field of two states must agree.
fn field<T: PartialEq + Debug>(name: &str, a: &T, b: &T) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{name} diverged: {a:?} vs {b:?}"))
    }
}

/// The logical fields every equivalence of two sessions compares: entity
/// rows, order pairs, retired CFDs, accepted answers, the causal frontier,
/// the competing-cell buffer (assuming neither side drained
/// `take_competing` differently) and the quarantine log.
fn diff_logical_fields(a: &SessionState, b: &SessionState) -> Result<(), String> {
    field("entity rows", &a.tuples, &b.tuples)?;
    field("order pairs", &a.orders, &b.orders)?;
    field("retired CFDs", &a.retired_cfds, &b.retired_cfds)?;
    field("answers", &a.answers, &b.answers)?;
    field("frontier", &a.frontier, &b.frontier)?;
    field("competing cells", &a.competing, &b.competing)?;
    field("quarantine logs", &a.quarantine, &b.quarantine)
}

/// Compares the batching-independent fields of two [`SessionState`]s: the
/// logical state plus the delivery-level telemetry that must not depend on
/// how events were partitioned into batches (applied events, duplicates,
/// buffering, quarantining, re-opens, evictions). The batch-shape
/// counters (batches, coalescing, epoch) legitimately differ between
/// batched and sequential ingestion of the same stream and are excluded.
pub fn diff_logical_states(a: &SessionState, b: &SessionState) -> Result<(), String> {
    diff_logical_fields(a, b)?;
    let delivery = |t: &RevisionTelemetry| {
        (
            t.events,
            t.duplicates_dropped,
            t.buffered,
            t.quarantined,
            t.reopened,
            t.quarantine_evicted,
        )
    };
    field(
        "delivery telemetry",
        &delivery(&a.telemetry),
        &delivery(&b.telemetry),
    )
}

/// A fresh session plus the mirror of everything it absorbed — the
/// "ground truth" side of the recovery differential ([`reference_of`]) and
/// the checked state of the `cr-oracle` replay harnesses.
pub struct ReplayedReference {
    /// The from-scratch session.
    pub session: ResolutionSession,
    /// Mirror of the cumulative *effective* revisions and inputs, whose
    /// materialisation is the replayed prefix's specification.
    pub mirror: SpecMirror,
    /// Why the replay stopped early: a logged input naming an attribute
    /// outside the schema ([`StoreError::UnknownAttr`], the error
    /// rehydration returns for the same log). `None` after a full replay.
    pub error: Option<StoreError>,
}

impl ReplayedReference {
    /// A session over `base` under `policy`, and its mirror.
    pub fn new(policy: RevisionPolicy, base: &Specification) -> Self {
        let mut session = ResolutionSession::new(&ResolutionConfig::default(), base);
        session.set_revision_policy(policy);
        ReplayedReference {
            session,
            mirror: SpecMirror::new(base),
            error: None,
        }
    }

    /// Absorbs one round of user input into the session and the mirror.
    pub fn apply_input(&mut self, input: &UserInput) {
        self.session.apply_input(input);
        self.mirror.apply_input(input);
    }

    /// [`check_session_against_scratch`] of the session against its mirror.
    pub fn check(&mut self) -> Result<(), String> {
        check_session_against_scratch(&mut self.session, &self.mirror)
    }
}

/// Replays `records` (as recovered from a damaged log) into a fresh
/// session over `base`, mirroring every effective revision. Records are
/// grouped into whole batches by [`plan_replay`] — the same planner
/// rehydration uses — so an uncommitted trailing batch run is dropped on
/// both sides of the differential. Snapshot records are skipped: they are
/// derived state, not inputs. Each logged input passes rehydration's
/// attribute check first; the replay stops at the first that fails and
/// records the error in [`ReplayedReference::error`].
///
/// `policy` must not be [`RevisionPolicy::Reject`] — replay of a durable
/// log is total by construction. `_config` is inert (the reference opens
/// like `ResolutionSession::new`, whose encoding is fixed); it stays
/// because the benchmark's `serve` workload (`perfbench/src/serve.rs`)
/// passes it.
pub fn reference_of(
    _config: &ResolutionConfig,
    policy: RevisionPolicy,
    base: &Specification,
    records: &[LogRecord],
) -> ReplayedReference {
    assert!(
        !matches!(policy, RevisionPolicy::Reject),
        "reference replay requires a non-Reject policy"
    );
    let mut reference = ReplayedReference::new(policy, base);
    for step in plan_replay(records).steps {
        match step {
            ReplayStep::Input(input) => {
                if let Err(e) = check_input(base, &input) {
                    reference.error = Some(e);
                    break;
                }
                reference.apply_input(&input);
            }
            ReplayStep::CausalBatch(batch) => {
                let effective = reference
                    .session
                    .ingest_causal(batch)
                    .expect("non-Reject policy never propagates errors");
                for rev in &effective {
                    reference.mirror.apply(rev);
                }
            }
            ReplayStep::RevisionBatch(batch) => {
                let (_, applied) = reference
                    .session
                    .absorb_revision_batch(&batch)
                    .expect("non-Reject policy never propagates errors");
                for (rev, applied) in batch.iter().zip(applied) {
                    if applied {
                        reference.mirror.apply(rev);
                    }
                }
            }
            ReplayStep::Snapshot(_) => {}
        }
    }
    reference
}

/// Checks the recovery invariant: `rehydrated` (a session rebuilt from
/// snapshot + log tail) must be equivalent to `reference` (the same
/// surviving records replayed from scratch). A reference whose replay
/// stopped on a bad input is an error.
///
/// Equivalence is checked two ways: both sessions against one scratch
/// encoding of the reference mirror's materialised specification
/// (validity / deduced orders / true values), then on the logical state
/// ([`diff_logical_states`]'s fields) plus the epoch. Telemetry is *not*
/// compared (cost counters depend on engine history).
pub fn verify_recovery(
    rehydrated: &mut ResolutionSession,
    reference: &mut ReplayedReference,
) -> Result<(), String> {
    if let Some(e) = &reference.error {
        return Err(format!("surviving prefix does not replay: {e}"));
    }
    check_sessions_against_scratch(
        &reference.mirror,
        &mut [
            ("rehydrated", rehydrated),
            ("reference", &mut reference.session),
        ],
    )
    .map_err(|e| format!("diverged from the surviving prefix: {e}"))?;
    let (got, want) = (rehydrated.state(), reference.session.state());
    diff_logical_fields(&got, &want)
        .and_then(|()| field("epoch", &got.epoch, &want.epoch))
        .map_err(|e| format!("rehydrated vs scratch: {e}"))
}
