//! Session ≡ scratch, defined once: the checks every differential of a
//! [`ResolutionSession`] runs.
//!
//! * [`SpecMirror`] folds the revisions and inputs a session absorbed into
//!   a plain [`Specification`];
//! * [`check_session_against_scratch`] compares a session with a fresh
//!   eager encoding of that mirror (validity, deduced value orders, true
//!   values);
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

use cr_core::deduce::DeducedOrders;
use cr_core::framework::DeductionMethod;
use cr_core::ingest::{
    ResolutionSession, Revision, RevisionPolicy, RevisionTelemetry, SessionState,
};
use cr_core::spec::{Specification, UserInput};
use cr_core::{deduce_order, is_valid_encoded, true_values_from_orders};
use cr_core::{EncodeOptions, EncodedSpec, ResolutionConfig};
use cr_types::{AttrId, Value};

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
        SpecMirror { spec: spec.clone(), retired_cfds: BTreeSet::new() }
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

/// One engine-vs-scratch equivalence check: encode the mirror's
/// materialised specification from scratch (eager, self-contained) and
/// compare validity, deduced value orders and true values against the
/// session. Public so custom callers (tests, benches) can interleave their
/// own revision/input schedules with verification.
pub fn check_session_against_scratch(
    session: &mut ResolutionSession,
    mirror: &SpecMirror,
) -> Result<(), String> {
    let scratch_spec = mirror.materialise();
    let mut scratch = EncodedSpec::encode_with(&scratch_spec, EncodeOptions::eager());
    let scratch_valid = is_valid_encoded(&mut scratch).valid;
    let session_valid = session.is_valid();
    if session_valid != scratch_valid {
        return Err(format!(
            "validity diverged: replay says {session_valid}, scratch says {scratch_valid}"
        ));
    }
    if !session_valid {
        return Ok(()); // both invalid: nothing further to compare
    }

    let session_od = session
        .deduce(DeductionMethod::UnitPropagation)
        .ok_or_else(|| "replay deduced a conflict on a valid spec".to_string())?;
    let scratch_od =
        deduce_order(&mut scratch).ok_or_else(|| "scratch deduced a conflict".to_string())?;

    // Compare at the value level over non-null lower bounds: the two
    // encodings number their variables differently, and the replay's space
    // retains retired values (which never appear in implied literals) plus
    // permanent null-bottom units for them (filtered with the null side).
    // Actual `Value`s, not renderings — `Int(3)` and `Str("3")` display
    // alike but must never be conflated.
    let project = |enc: &EncodedSpec, od: &DeducedOrders| -> BTreeSet<(AttrId, Value, Value)> {
        let mut out = BTreeSet::new();
        for ai in 0..enc.space().arity() as u16 {
            let attr = AttrId(ai);
            for (lo, hi) in od.pairs(attr) {
                let lo_v = enc.value(attr, lo);
                let hi_v = enc.value(attr, hi);
                if lo_v.is_null() || hi_v.is_null() {
                    continue;
                }
                out.insert((attr, lo_v.clone(), hi_v.clone()));
            }
        }
        out
    };
    let replay_pairs = project(session.encoded(), &session_od);
    let scratch_pairs = project(&scratch, &scratch_od);
    if replay_pairs != scratch_pairs {
        let only_replay: Vec<_> = replay_pairs.difference(&scratch_pairs).take(5).collect();
        let only_scratch: Vec<_> = scratch_pairs.difference(&replay_pairs).take(5).collect();
        return Err(format!(
            "deduced orders diverged: only-replay {only_replay:?}, only-scratch {only_scratch:?}"
        ));
    }

    let replay_tv = session.true_values(&session_od);
    let scratch_tv = true_values_from_orders(&scratch, &scratch_od);
    if replay_tv != scratch_tv {
        return Err(format!(
            "true values diverged: replay {replay_tv:?}, scratch {scratch_tv:?}"
        ));
    }
    Ok(())
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
/// `take_competing` differently), the quarantine log and its cap.
fn diff_logical_fields(a: &SessionState, b: &SessionState) -> Result<(), String> {
    field("entity rows", &a.tuples, &b.tuples)?;
    field("order pairs", &a.orders, &b.orders)?;
    field("retired CFDs", &a.retired_cfds, &b.retired_cfds)?;
    field("answers", &a.answers, &b.answers)?;
    field("frontier", &a.frontier, &b.frontier)?;
    field("competing cells", &a.competing, &b.competing)?;
    field("quarantine logs", &a.quarantine, &b.quarantine)?;
    field("quarantine caps", &a.quarantine_cap, &b.quarantine_cap)
}

/// Compares the batching-independent fields of two [`SessionState`]s: the
/// logical state plus the delivery-level telemetry that must not depend on
/// how events were partitioned into batches (applied events, duplicates,
/// buffering, quarantining, re-opens, evictions). Engine-cost counters
/// (invalidated cones, re-emitted clauses) and the batch-shape counters
/// (batches, coalescing, epoch) legitimately differ between batched and
/// sequential ingestion of the same stream and are excluded.
pub fn diff_logical_states(a: &SessionState, b: &SessionState) -> Result<(), String> {
    diff_logical_fields(a, b)?;
    let delivery = |t: &RevisionTelemetry| {
        (t.events, t.duplicates_dropped, t.buffered, t.quarantined, t.reopened,
         t.quarantine_evicted)
    };
    field("delivery telemetry", &delivery(&a.telemetry), &delivery(&b.telemetry))
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
    /// A revisable session over `base` under `policy`, and its mirror.
    pub fn new(config: &ResolutionConfig, policy: RevisionPolicy, base: &Specification) -> Self {
        let mut session = ResolutionSession::new_revisable(config, base);
        session.set_revision_policy(policy);
        ReplayedReference { session, mirror: SpecMirror::new(base), error: None }
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
/// log is total by construction.
pub fn reference_of(
    config: &ResolutionConfig,
    policy: RevisionPolicy,
    base: &Specification,
    records: &[LogRecord],
) -> ReplayedReference {
    assert!(
        !matches!(policy, RevisionPolicy::Reject),
        "reference replay requires a non-Reject policy"
    );
    let mut reference = ReplayedReference::new(config, policy, base);
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
/// Equivalence is checked two ways: both sessions against the reference
/// mirror's materialised specification (validity / deduced orders / true
/// values), then on the logical state ([`diff_logical_states`]'s fields)
/// plus the epoch. Telemetry is *not* compared (cost counters depend on
/// engine history).
pub fn verify_recovery(
    rehydrated: &mut ResolutionSession,
    reference: &mut ReplayedReference,
) -> Result<(), String> {
    if let Some(e) = &reference.error {
        return Err(format!("surviving prefix does not replay: {e}"));
    }
    check_session_against_scratch(rehydrated, &reference.mirror)
        .map_err(|e| format!("rehydrated session diverged from surviving prefix: {e}"))?;
    reference
        .check()
        .map_err(|e| format!("reference replay diverged from its own mirror: {e}"))?;
    let (got, want) = (rehydrated.state(), reference.session.state());
    diff_logical_fields(&got, &want)
        .and_then(|()| field("epoch", &got.epoch, &want.epoch))
        .map_err(|e| format!("rehydrated vs scratch: {e}"))
}
