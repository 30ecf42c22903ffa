//! Chaos convergence properties for causally-stamped correction streams.
//!
//! Randomized scenarios × randomized causal timelines, delivered through
//! the fault-injecting chaos adapter, must resolve **exactly** like
//! canonical in-order delivery — which `resolve_causal_checked` itself
//! verifies against from-scratch re-resolution after every effective
//! batch. Two convergence regimes:
//!
//! 1. **Schedule-preserving chaos** (within-round reorder + duplicates)
//!    with interleaved interaction: every event still applies in its
//!    canonical round, so the full interactive trajectory — answers,
//!    re-opens included — matches canonical delivery.
//! 2. **Adversarial chaos** (cross-round delays = batch splits/merges,
//!    forcing frontier buffering) with drain-first interaction: the
//!    post-drain state is a pure function of the delivered event *set*,
//!    so arbitrary delivery schedules converge.
//!
//! A third property checks graceful degradation: corrupt events injected
//! from dedicated sources land in the quarantine log — all of them, only
//! them — without disturbing the clean stream's resolution.

use conflict_resolution::core::causal::ScriptedCausalRevisions;
use conflict_resolution::core::framework::{GroundTruthOracle, ResolutionConfig};
use conflict_resolution::core::ingest::RevisionPolicy;
use conflict_resolution::data::chaos::{chaos, ChaosConfig};
use conflict_resolution::data::gen::{
    causal_timeline, scenario_from_raw, CausalTimelineConfig, Scenario,
};
use cr_oracle::{resolve_causal_checked, CausalReplayConfig};
use proptest::prelude::*;

fn timeline_cfg(seed: u64, events: usize, sources: usize) -> CausalTimelineConfig {
    CausalTimelineConfig {
        seed: seed.wrapping_mul(131).wrapping_add(7),
        sources,
        events,
        rounds: 3,
        // Seeded burst polls: rounds carry multi-event batches, so the
        // batched-ingestion path sees real coalescing under chaos.
        burst: 1 + (seed % 3) as usize,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Prong 1: schedule-preserving permutations (within-round reorder,
    /// duplicated deliveries) with interaction interleaved into the stream
    /// converge to the canonical run — same resolution, same validity,
    /// with every duplicate dropped and nothing quarantined.
    #[test]
    fn schedule_preserving_chaos_converges_interactively(
        seed in 0u64..10_000,
        tuples in 2usize..14,
        domain in 2usize..10,
        density in 0u32..100,
        events in 1usize..7,
        sources in 1usize..4,
        perm_seed in 0u64..1_000,
    ) {
        let Scenario { spec, truth } = scenario_from_raw(seed, tuples, domain, density, false);
        let timeline = causal_timeline(&spec, &timeline_cfg(seed, events, sources));
        let config = ResolutionConfig::default();
        let causal = CausalReplayConfig::default(); // strict, interactive

        let mut oracle = GroundTruthOracle::with_cap(truth.clone(), 1);
        let mut canonical = ScriptedCausalRevisions::new(timeline.clone());
        let base = resolve_causal_checked(&config, &spec, &mut oracle, &mut canonical, &causal)
            .map_err(|e| TestCaseError::fail(format!("canonical replay diverged: {e}")))?;
        // Canonical delivery is causally clean by construction.
        prop_assert_eq!(base.revisions.duplicates_dropped, 0);
        prop_assert_eq!(base.revisions.buffered, 0);
        prop_assert_eq!(base.revisions.quarantined, 0);

        let cfg = ChaosConfig { duplicates: 2, ..ChaosConfig::schedule_preserving(perm_seed) };
        let mut oracle2 = GroundTruthOracle::with_cap(truth.clone(), 1);
        let mut chaotic = chaos(&timeline, &spec, &cfg);
        let run = resolve_causal_checked(&config, &spec, &mut oracle2, &mut chaotic, &causal)
            .map_err(|e| TestCaseError::fail(format!("chaotic replay diverged: {e}")))?;

        prop_assert_eq!(&run.resolved, &base.resolved, "resolution must be permutation-independent");
        prop_assert_eq!(run.valid, base.valid);
        prop_assert_eq!(run.complete, base.complete);
        prop_assert_eq!(run.interactions, base.interactions);
        prop_assert_eq!(run.revisions.reopened, base.revisions.reopened);
        if !timeline.is_empty() {
            prop_assert_eq!(run.revisions.duplicates_dropped, cfg.duplicates);
        }
        prop_assert_eq!(run.revisions.quarantined, 0, "clean chaos must quarantine nothing");
    }

    /// Prong 2: fully adversarial schedules (delays split and merge
    /// batches; successors overtake predecessors and must buffer at the
    /// frontier) converge under drain-first interaction, where the
    /// post-drain state depends only on the delivered event set.
    #[test]
    fn adversarial_chaos_converges_drain_first(
        seed in 0u64..10_000,
        tuples in 2usize..14,
        domain in 2usize..10,
        density in 0u32..100,
        events in 2usize..8,
        sources in 1usize..4,
        chaos_seed in 0u64..1_000,
        max_batch in 0usize..4,
    ) {
        let Scenario { spec, truth } = scenario_from_raw(seed, tuples, domain, density, false);
        let timeline = causal_timeline(&spec, &timeline_cfg(seed, events, sources));
        let config = ResolutionConfig::default();
        let causal = CausalReplayConfig {
            policy: RevisionPolicy::Reject,
            interact_while_streaming: false,
            max_batch,
        };

        let mut oracle = GroundTruthOracle::with_cap(truth.clone(), 1);
        let mut canonical = ScriptedCausalRevisions::new(timeline.clone());
        let base = resolve_causal_checked(&config, &spec, &mut oracle, &mut canonical, &causal)
            .map_err(|e| TestCaseError::fail(format!("canonical replay diverged: {e}")))?;

        let mut oracle2 = GroundTruthOracle::with_cap(truth.clone(), 1);
        let mut chaotic = chaos(&timeline, &spec, &ChaosConfig::adversarial(chaos_seed));
        let run = resolve_causal_checked(&config, &spec, &mut oracle2, &mut chaotic, &causal)
            .map_err(|e| TestCaseError::fail(format!("adversarial replay diverged: {e}")))?;

        prop_assert_eq!(&run.resolved, &base.resolved, "drain-first resolution is schedule-independent");
        prop_assert_eq!(run.valid, base.valid);
        prop_assert_eq!(run.complete, base.complete);
        prop_assert_eq!(run.revisions.events, base.revisions.events, "same effective event set");
        prop_assert_eq!(run.revisions.quarantined, 0);
    }

    /// Graceful degradation: corrupt events injected mid-stream are
    /// quarantined — exactly the injected count — and the surviving clean
    /// stream still converges to the canonical resolution.
    #[test]
    fn corrupt_events_quarantine_without_disturbing_convergence(
        seed in 0u64..10_000,
        tuples in 2usize..12,
        domain in 2usize..8,
        density in 0u32..100,
        events in 1usize..6,
        corrupt in 1usize..4,
        chaos_seed in 0u64..1_000,
        max_batch in 0usize..4,
    ) {
        let Scenario { spec, truth } = scenario_from_raw(seed, tuples, domain, density, false);
        let timeline = causal_timeline(&spec, &timeline_cfg(seed, events, 2));
        let config = ResolutionConfig::default();
        let causal = CausalReplayConfig {
            policy: RevisionPolicy::Quarantine,
            interact_while_streaming: false,
            max_batch,
        };

        let mut oracle = GroundTruthOracle::with_cap(truth.clone(), 1);
        let mut canonical = ScriptedCausalRevisions::new(timeline.clone());
        let base = resolve_causal_checked(&config, &spec, &mut oracle, &mut canonical, &causal)
            .map_err(|e| TestCaseError::fail(format!("canonical replay diverged: {e}")))?;
        prop_assert_eq!(base.revisions.quarantined, 0, "clean canonical run quarantines nothing");

        let cfg = ChaosConfig { corrupt, ..ChaosConfig::adversarial(chaos_seed) };
        let mut oracle2 = GroundTruthOracle::with_cap(truth.clone(), 1);
        let mut chaotic = chaos(&timeline, &spec, &cfg);
        let run = resolve_causal_checked(&config, &spec, &mut oracle2, &mut chaotic, &causal)
            .map_err(|e| TestCaseError::fail(format!("corrupt replay diverged: {e}")))?;

        prop_assert_eq!(run.revisions.quarantined, corrupt, "all corrupt events, only corrupt events");
        prop_assert_eq!(run.quarantined.len(), corrupt);
        prop_assert_eq!(&run.resolved, &base.resolved, "quarantining must not disturb resolution");
        prop_assert_eq!(run.valid, base.valid);
    }
}
