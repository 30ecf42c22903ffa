//! Property tests for push-based correction ingestion: randomized revision
//! timelines (CFD retractions, order withdrawals, value replacements —
//! shared, fresh and null — and user-answer withdrawals) interleaved with
//! ordinary oracle answers must keep the session's engine exactly
//! equivalent to a from-scratch re-resolution of the post-revision
//! specification, with sane batching telemetry throughout.

use conflict_resolution::core::framework::{GroundTruthOracle, ResolutionConfig, Resolver};
use conflict_resolution::core::ingest::{ResolutionSession, RevisionSource, RevisionTelemetry};
use conflict_resolution::data::gen::{
    revision_timeline, scenario_from_raw, RevisionTimelineConfig, Scenario,
};
use cr_oracle::resolve_with_revisions_checked;
use cr_store::{check_session_against_scratch, diff_logical_states, SpecMirror};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Session ≡ from-scratch re-resolution on the post-revision spec,
    /// checked after every revision batch, across randomized scenarios ×
    /// randomized timelines. Also asserts telemetry sanity: batches only
    /// exist when events were applied.
    #[test]
    fn random_revision_timelines_replay_equals_scratch(
        seed in 0u64..10_000,
        tuples in 2usize..16,
        domain in 2usize..10,
        density in 0u32..100,
        events in 1usize..7,
        new_values_sel in 0u32..2,
        withdraw_sel in 0u32..2,
    ) {
        let Scenario { spec, truth } = scenario_from_raw(seed, tuples, domain, density, new_values_sel == 1);
        let mut source = revision_timeline(&spec, &RevisionTimelineConfig {
            seed: seed.wrapping_mul(97).wrapping_add(13),
            events,
            rounds: 4,
            withdraw_answer_rounds: if withdraw_sel == 1 { vec![1, 3] } else { vec![] },
            ..Default::default()
        });
        let mut oracle = GroundTruthOracle::with_cap(truth.clone(), 1);
        let config = ResolutionConfig::default();
        let checked = resolve_with_revisions_checked(&config, &spec, &mut oracle, &mut source)
            .map_err(|e| TestCaseError::fail(format!("replay diverged from scratch: {e}")))?;

        // Telemetry sanity: batches exist only when events were actually
        // absorbed; every check ran.
        prop_assert!(checked.checks >= 1);
        prop_assert_eq!(checked.revisions.batches == 0, checked.revisions.events == 0);
    }

    /// The unchecked production path (`Resolver::resolve_with_revisions`)
    /// agrees with the checked harness outcome on the same scripted
    /// timeline and stamps per-round revision telemetry consistent with the
    /// totals.
    #[test]
    fn production_revision_path_matches_checked_and_never_rebuilds(
        seed in 0u64..10_000,
        tuples in 2usize..14,
        domain in 2usize..10,
        density in 0u32..100,
        events in 1usize..6,
    ) {
        let Scenario { spec, truth } = scenario_from_raw(seed, tuples, domain, density, false);
        let timeline = |salt: u64| revision_timeline(&spec, &RevisionTimelineConfig {
            seed: seed.wrapping_mul(193).wrapping_add(salt),
            events,
            rounds: 3,
            ..Default::default()
        });
        let config = ResolutionConfig::default();

        let mut oracle = GroundTruthOracle::with_cap(truth.clone(), 1);
        let mut source = timeline(5);
        let outcome = Resolver::new(config).resolve_with_revisions(&spec, &mut oracle, &mut source);

        let mut oracle2 = GroundTruthOracle::with_cap(truth.clone(), 1);
        let mut source2 = timeline(5);
        let checked = resolve_with_revisions_checked(&config, &spec, &mut oracle2, &mut source2)
            .map_err(|e| TestCaseError::fail(format!("replay diverged from scratch: {e}")))?;
        prop_assert_eq!(outcome.valid, checked.valid);
        prop_assert_eq!(outcome.complete, checked.complete);
        prop_assert_eq!(outcome.resolved, checked.resolved);
        prop_assert_eq!(outcome.interactions, checked.interactions);
        prop_assert_eq!(outcome.revisions.events, checked.revisions.events);

        // Per-round stamps sum to the totals.
        let round_events: usize = outcome.rounds.iter().map(|r| r.revisions.events).sum();
        let round_batches: usize = outcome.rounds.iter().map(|r| r.revisions.batches).sum();
        prop_assert_eq!(round_events, outcome.revisions.events);
        prop_assert_eq!(round_batches, outcome.revisions.batches);
    }

    /// Batched ≡ sequential ≡ scratch: every generated timeline, polled
    /// round by round under a sampled burst size, must leave a session
    /// that ingests each poll as **one batch** logically identical to a
    /// twin that absorbs the same events **one at a time** — and both
    /// equivalent to a from-scratch encode of the [`SpecMirror`]'s
    /// materialised spec after every round. Also pins the coalescing
    /// telemetry: a batch of one coalesces nothing, and the batched epoch
    /// advances once per applied batch (not once per event).
    #[test]
    fn batched_ingestion_equals_sequential_and_scratch(
        seed in 0u64..10_000,
        tuples in 2usize..14,
        domain in 2usize..10,
        density in 0u32..100,
        events in 1usize..7,
        burst in 1usize..4,
    ) {
        batched_ingestion_matches(seed, tuples, domain, density, events, burst)?;
    }
}

/// Batched ≡ sequential ≡ scratch on one generated scenario and timeline
/// (see `batched_ingestion_equals_sequential_and_scratch`). Returns the
/// batched session's revision telemetry.
fn batched_ingestion_matches(
    seed: u64,
    tuples: usize,
    domain: usize,
    density: u32,
    events: usize,
    burst: usize,
) -> Result<RevisionTelemetry, TestCaseError> {
    let Scenario { spec, .. } = scenario_from_raw(seed, tuples, domain, density, false);
    let rounds = 4usize;
    let mut source = revision_timeline(&spec, &RevisionTimelineConfig {
        seed: seed.wrapping_mul(61).wrapping_add(29),
        events,
        rounds,
        burst,
        ..Default::default()
    });
    let config = ResolutionConfig::default();
    let mut batched = ResolutionSession::new(&config, &spec);
    let mut sequential = ResolutionSession::new(&config, &spec);
    let mut mirror = SpecMirror::new(&spec);

    let mut applied_batches = 0usize;
    let mut expected_saved = 0usize;
    for round in 0..rounds {
        let poll = source.poll(round, batched.current());
        let (report, applied) = batched
            .absorb_revision_batch(&poll)
            .map_err(|e| TestCaseError::fail(format!("batched ingestion rejected: {e:?}")))?;
        prop_assert_eq!(report.events, poll.len(), "every pushed event is accounted");
        if report.applied > 0 {
            applied_batches += 1;
            expected_saved += report.applied - 1;
        }

        // The sequential twin absorbs the identical poll one event at
        // a time; the mirror replays exactly the applied subset.
        for (rev, ok) in poll.iter().zip(&applied) {
            let (_, twin_ok) = sequential
                .absorb_revision_batch(std::slice::from_ref(rev))
                .map_err(|e| TestCaseError::fail(format!("sequential twin rejected: {e:?}")))?;
            prop_assert_eq!(twin_ok[0], *ok, "batched and sequential validation agree");
            if *ok {
                mirror.apply(rev);
            }
        }

        diff_logical_states(&batched.state(), &sequential.state())
            .map_err(|e| TestCaseError::fail(format!("round {round}: batched ≠ sequential: {e}")))?;
        check_session_against_scratch(&mut batched, &mirror)
            .map_err(|e| TestCaseError::fail(format!("round {round}: batched ≠ scratch: {e}")))?;
    }

    // Coalescing telemetry: the per-event twin never coalesces; the
    // batched run saves exactly one replay per coalesced event beyond
    // each batch's first; epochs advance per batch vs per event.
    let b = batched.revision_telemetry();
    let s = sequential.revision_telemetry();
    prop_assert_eq!(s.events_coalesced, 0, "a batch of one coalesces nothing");
    prop_assert_eq!(s.replays_saved, 0);
    prop_assert_eq!(b.events, s.events, "same applied event set");
    prop_assert_eq!(b.replays_saved, expected_saved);
    prop_assert_eq!(batched.epoch().0 as usize, applied_batches, "one epoch per applied batch");
    prop_assert_eq!(sequential.epoch().0 as usize, s.events, "one epoch per applied event");
    Ok(b)
}

/// The coalescing path is live: a multi-event round is absorbed as one
/// batch, with one engine rebuild instead of one per event.
#[test]
fn multi_event_rounds_coalesce_into_one_replay() {
    let b = batched_ingestion_matches(5, 8, 4, 60, 6, 3).expect("batched ≡ sequential ≡ scratch");
    assert!(b.events_coalesced >= 2, "no multi-event batch was coalesced: {b:?}");
    assert!(b.replays_saved >= 1, "coalescing saved no replay: {b:?}");
}
