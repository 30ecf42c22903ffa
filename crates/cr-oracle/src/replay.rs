//! Checked replay harnesses: the Fig. 4 loop on a session fed by a
//! revision stream, with the session proven equivalent to a from-scratch
//! re-resolution of the post-revision specification after every batch
//! ([`cr_store::check_sessions_against_scratch`] against the session's
//! [`cr_store::SpecMirror`]).
//!
//! * [`resolve_with_revisions_checked`] — plain revisions, batched and
//!   sequential ingestion side by side (`tests/revision_differential.rs`,
//!   `tests/revision_proptest.rs`); the unchecked production path is
//!   [`Resolver::resolve_with_revisions`](cr_core::Resolver::resolve_with_revisions).
//! * [`resolve_causal_checked`] — causally-stamped streams under chaos
//!   (`tests/causal_differential.rs`, `tests/causal_proptest.rs`, the
//!   `chaos_soak` binary).

use std::time::Duration;

use cr_core::causal::CausalRevisionSource;
use cr_core::framework::{ResolutionConfig, RoundReport, UserOracle};
use cr_core::ingest::{
    ResolutionSession, Revision, RevisionError, RevisionPolicy, RevisionSource, RevisionTelemetry,
};
use cr_core::{Specification, TrueValues};
use cr_store::{check_sessions_against_scratch, diff_logical_states, ReplayedReference};

/// Result of a checked replay (see [`resolve_with_revisions_checked`]).
pub struct CheckedReplay {
    /// Resolution outcome of the revision-driven session.
    pub resolved: TrueValues,
    /// True iff the final specification was valid.
    pub valid: bool,
    /// True iff all attributes resolved.
    pub complete: bool,
    /// Interaction rounds that involved the user.
    pub interactions: usize,
    /// Revision telemetry of the session.
    pub revisions: RevisionTelemetry,
    /// Engine-vs-scratch equivalence checks performed.
    pub checks: usize,
}

/// Runs the Fig. 4 loop on a [`ResolutionSession`] fed by `source`, and
/// after **every** revision batch differentially verifies the engine state
/// against a from-scratch re-resolution of the post-revision
/// specification: validity, deduced value orders (compared at the value
/// level) and extracted true values must all
/// coincide with the reference CNF of a fresh encoding of the mirror
/// (`cr_store::check_session_against_scratch`). Returns an error
/// describing the first divergence, if any.
///
/// The primary session absorbs each poll as one batch
/// ([`ResolutionSession::absorb_revision_batch`]); an event-at-a-time twin
/// absorbs the same events as one-event batches, and both are checked
/// against the scratch mirror *and* against each other on the full logical
/// state ([`diff_logical_states`]) — the three-way batched ≡ sequential ≡
/// scratch differential. Both run under [`RevisionPolicy::Reject`], so a
/// malformed scripted event is an error, never a silent quarantine.
pub fn resolve_with_revisions_checked(
    config: &ResolutionConfig,
    spec: &Specification,
    oracle: &mut dyn UserOracle,
    source: &mut dyn RevisionSource,
) -> Result<CheckedReplay, String> {
    let mut checked = ReplayedReference::new(RevisionPolicy::Reject, spec);
    let mut twin = ResolutionSession::new(config, spec);
    twin.set_revision_policy(RevisionPolicy::Reject);
    let mut checks = 0;
    // Both sessions against one scratch encoding of the mirror, then
    // against each other.
    let mut check_both = |checked: &mut ReplayedReference, twin: &mut ResolutionSession| {
        check_sessions_against_scratch(
            &checked.mirror,
            &mut [("batched", &mut checked.session), ("sequential", twin)],
        )?;
        checks += 2;
        diff_logical_states(&checked.session.state(), &twin.state())
            .map_err(|e| format!("batched vs sequential ingestion diverged: {e}"))
    };
    let mut interactions = 0;
    let mut last_values = TrueValues::new(vec![None; spec.schema().arity()]);
    let mut valid = true;

    for round in 0..=config.max_rounds {
        let revs = source.poll(round, checked.session.current());
        if !revs.is_empty() {
            checked
                .session
                .absorb_revision_batch(&revs)
                .map_err(|e| format!("scripted revision rejected by batch: {e}"))?;
            for rev in &revs {
                twin.absorb_revision_batch(std::slice::from_ref(rev))
                    .map_err(|e| format!("scripted revision rejected: {e} ({rev:?})"))?;
                checked.mirror.apply(rev);
            }
            check_both(&mut checked, &mut twin)?;
        }

        let session = &mut checked.session;
        if !session.is_valid() {
            valid = false;
            break;
        }
        let od = session
            .deduce(config.deduction)
            .expect("deduction cannot conflict on a valid specification");
        last_values = session.true_values(&od);
        if last_values.complete() || round == config.max_rounds {
            break;
        }
        let sug = session.suggest(&od, &last_values);
        let input = oracle.provide(spec.schema(), &sug);
        if input.is_empty() {
            break;
        }
        interactions += 1;
        checked.apply_input(&input);
        twin.apply_input(&input);
    }

    // Final state check — covers the case where the last event batch
    // arrived on the closing round.
    check_both(&mut checked, &mut twin).map_err(|e| format!("at close: {e}"))?;

    Ok(CheckedReplay {
        complete: last_values.complete(),
        resolved: last_values,
        valid,
        interactions,
        revisions: checked.session.revision_telemetry(),
        checks,
    })
}

/// How [`resolve_causal_checked`] drives the session.
#[derive(Clone, Copy, Debug)]
pub struct CausalReplayConfig {
    /// Degradation policy for events that fail validation.
    /// [`RevisionPolicy::Reject`] makes the harness strict (any bad event
    /// is a harness error); [`RevisionPolicy::Quarantine`] lets corrupt
    /// chaos events through into the quarantine log.
    pub policy: RevisionPolicy,
    /// When `false`, the user-interaction loop is held off until the
    /// stream is fully drained (source exhausted *and* frontier empty):
    /// the post-drain state is then a pure function of the event set, so
    /// *arbitrary* delivery schedules (cross-round delays included)
    /// converge. When `true`, interactions interleave with delivery —
    /// convergence then holds for schedule-preserving permutations
    /// (within-round reorder, duplicates), and late concurrent corrections
    /// exercise the re-open path.
    pub interact_while_streaming: bool,
    /// Maximum events per [`ResolutionSession::ingest_causal`] call: `0`
    /// feeds the whole poll as one batch (the production shape — one
    /// re-encode per poll), `1` feeds events one at a time
    /// (each a batch of one), `k` splits the poll into chunks of at most
    /// `k`. Soaks seed this to interleave batched and per-event
    /// ingestion; the delivered state must not depend on it.
    pub max_batch: usize,
}

impl Default for CausalReplayConfig {
    fn default() -> Self {
        CausalReplayConfig {
            policy: RevisionPolicy::Reject,
            interact_while_streaming: true,
            max_batch: 0,
        }
    }
}

/// Result of a checked causal replay (see [`resolve_causal_checked`]).
pub struct CausalCheckedReplay {
    /// Final resolution of the revision-driven session. All-`None` when
    /// the final specification is invalid: an invalid spec has no
    /// resolution, and reporting the last valid round's values would make
    /// `resolved` depend on delivery *timing* rather than on the delivered
    /// event set (breaking convergence comparisons between runs that go
    /// invalid at different points of their drains).
    pub resolved: TrueValues,
    /// True iff the final specification was valid.
    pub valid: bool,
    /// True iff all attributes resolved.
    pub complete: bool,
    /// Interaction rounds that involved the user.
    pub interactions: usize,
    /// Total rounds (delivery + interaction).
    pub rounds: usize,
    /// Per-round reports (zero durations — the checked harness measures
    /// nothing), carrying the revision deltas and the competing-candidate
    /// cells ([`RoundReport::competing`]) each round surfaced: the branch
    /// tips a caller presents instead of a bare re-open.
    pub round_reports: Vec<RoundReport>,
    /// Revision telemetry of the session (applied / duplicate-dropped /
    /// buffered / quarantined / reopened).
    pub revisions: RevisionTelemetry,
    /// Engine-vs-scratch equivalence checks performed.
    pub checks: usize,
    /// The session's quarantine log (empty in clean runs).
    pub quarantined: Vec<(Revision, RevisionError)>,
}

/// Runs the Fig. 4 loop on a [`ResolutionSession`] fed by a
/// causally-stamped stream, and after every effective revision batch
/// differentially verifies the replayed engine against a from-scratch
/// re-resolution of the mirrored post-revision specification.
///
/// Unlike [`resolve_with_revisions_checked`], transient invalidity does
/// **not** end the run: a later delivery may withdraw the offending
/// constraint, so the loop skips deduction for that round and keeps
/// draining; it only concludes once the source is exhausted and the
/// frontier holds nothing undeliverable.
pub fn resolve_causal_checked(
    config: &ResolutionConfig,
    spec: &Specification,
    oracle: &mut dyn UserOracle,
    source: &mut dyn CausalRevisionSource,
    causal: &CausalReplayConfig,
) -> Result<CausalCheckedReplay, String> {
    let mut checked = ReplayedReference::new(causal.policy, spec);
    let mut interactions = 0;
    let mut checks = 0;
    let arity = spec.schema().arity();
    let mut last_values = TrueValues::new(vec![None; arity]);
    // Assigned on every loop iteration before any break.
    let mut valid;
    let mut round = 0;
    // Interaction budget plus slack for delayed deliveries: scripted and
    // chaos schedules bound their round assignments well below this.
    let cap = config.max_rounds + source.remaining() + 8;
    let mut round_reports: Vec<RoundReport> = Vec::new();
    loop {
        let session = &mut checked.session;
        let events = source.poll(round, session.current());
        let telemetry_before = session.revision_telemetry();
        let rejected = |e| format!("causal revision rejected: {e}");
        let effective = if causal.max_batch == 0 || events.len() <= causal.max_batch {
            session.ingest_causal(events).map_err(rejected)?
        } else {
            // Seeded batch split: the poll is fed in chunks of at most
            // `max_batch` events, interleaving batched and per-event
            // ingestion — the delivered state must be identical either way
            // (the scratch check below proves it).
            let mut effective = Vec::new();
            for chunk in events.chunks(causal.max_batch) {
                effective.extend(session.ingest_causal(chunk.to_vec()).map_err(rejected)?);
            }
            effective
        };
        for rev in &effective {
            checked.mirror.apply(rev);
        }
        if !effective.is_empty() {
            checked.check()?;
            checks += 1;
        }
        let session = &mut checked.session;
        round_reports.push(RoundReport {
            round,
            validity: Duration::ZERO,
            deduce: Duration::ZERO,
            suggest: Duration::ZERO,
            known_after_deduce: 0,
            suggestion_size: 0,
            user_answers: 0,
            revisions: session.revision_telemetry().since(&telemetry_before),
            competing: session.take_competing(),
        });
        let streaming = source.remaining() > 0 || session.frontier().pending() > 0;
        valid = session.is_valid();
        if valid {
            let od = session
                .deduce(config.deduction)
                .expect("deduction cannot conflict on a valid specification");
            last_values = session.true_values(&od);
            if last_values.complete() && !streaming {
                break;
            }
            let may_interact = causal.interact_while_streaming || !streaming;
            if may_interact && !last_values.complete() && interactions < config.max_rounds {
                let sug = session.suggest(&od, &last_values);
                let input = oracle.provide(spec.schema(), &sug);
                if input.is_empty() {
                    if !streaming {
                        break;
                    }
                } else {
                    interactions += 1;
                    if let Some(r) = round_reports.last_mut() {
                        r.user_answers = input.values.len();
                    }
                    checked.apply_input(&input);
                }
            } else if !streaming {
                break; // interaction budget exhausted, stream drained
            }
        } else if !streaming {
            break; // invalid with nothing left that could cure it
        }
        round += 1;
        if round > cap {
            if streaming {
                return Err(format!(
                    "stream not drained after {round} rounds: {} undelivered, {} buffered",
                    source.remaining(),
                    checked.session.frontier().pending()
                ));
            }
            break;
        }
    }

    // Final state check — covers runs that ended on an interaction round.
    checked.check()?;
    checks += 1;

    let session = &checked.session;
    Ok(CausalCheckedReplay {
        complete: valid && last_values.complete(),
        resolved: if valid {
            last_values
        } else {
            TrueValues::new(vec![None; arity])
        },
        valid,
        interactions,
        rounds: round,
        round_reports,
        revisions: session.revision_telemetry(),
        checks,
        quarantined: session.quarantined().to_vec(),
    })
}
