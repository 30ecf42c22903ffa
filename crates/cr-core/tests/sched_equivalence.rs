//! Differential tests for the sharded work-stealing scheduler
//! (`cr_core::sched`): resolution outcomes must be *identical* to the
//! single-threaded baseline at every worker count, placement, batching
//! and splitting configuration — scheduling must only move work between
//! threads, never change it.

use cr_core::framework::{GroundTruthOracle, ResolutionConfig, Resolver};
use cr_core::sched::{resolve_batch, resolve_stream, Placement, SchedulerConfig};
use cr_core::{ResolutionOutcome, Specification};
use cr_data::gen::{PowerLawConfig, PowerLawDataset};
use proptest::prelude::*;
use std::sync::Mutex;

fn dataset(seed: u64, entities: usize, giants: usize) -> PowerLawDataset {
    PowerLawDataset::new(&PowerLawConfig {
        seed,
        entities,
        max_tuples: 96,
        giants,
        ..Default::default()
    })
}

fn serial_outcomes(
    resolver: &Resolver,
    ds: &PowerLawDataset,
    specs: &[Specification],
) -> Vec<ResolutionOutcome> {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut oracle = GroundTruthOracle::with_cap(ds.truth(i).clone(), 1);
            resolver.resolve(spec, &mut oracle)
        })
        .collect()
}

fn assert_outcomes_equal(label: &str, serial: &[ResolutionOutcome], other: &[ResolutionOutcome]) {
    assert_eq!(serial.len(), other.len(), "{label}: length");
    for (i, (s, o)) in serial.iter().zip(other).enumerate() {
        assert_eq!(s.valid, o.valid, "{label}: entity {i} validity diverged");
        assert_eq!(s.resolved, o.resolved, "{label}: entity {i} resolution diverged");
        assert_eq!(
            s.interactions, o.interactions,
            "{label}: entity {i} interaction count diverged"
        );
        assert_eq!(
            s.rounds.len(),
            o.rounds.len(),
            "{label}: entity {i} round count diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seeded power-law batches across worker widths and both placements:
    /// every configuration must reproduce the single-threaded outcomes.
    #[test]
    fn width_sweep_matches_serial(seed in 0u64..200, inc_bit in 0u32..2) {
        let incremental = inc_bit == 1;
        let ds = dataset(seed, 24, 1);
        let specs = ds.specs();
        let resolver = Resolver::new(ResolutionConfig { incremental, ..Default::default() });
        let serial = serial_outcomes(&resolver, &ds, &specs);
        let make_oracle = |i: usize| GroundTruthOracle::with_cap(ds.truth(i).clone(), 1);
        for workers in [1usize, 2, 4, 8] {
            for placement in [Placement::RoundRobin, Placement::Skewed] {
                let config = SchedulerConfig {
                    placement,
                    // Low thresholds so batching AND splitting genuinely
                    // engage on these small test datasets.
                    batch_max_entities: 4,
                    large_tuple_threshold: 12,
                    split_tuple_threshold: 48,
                    ..SchedulerConfig::with_workers(workers)
                };
                let (outcomes, telemetry) = resolve_batch(&resolver, &specs, &make_oracle, &config);
                let label = format!("workers={workers} placement={placement:?} incremental={incremental}");
                assert_outcomes_equal(&label, &serial, &outcomes);
                prop_assert_eq!(telemetry.workers, workers.min(specs.len()));
                prop_assert!(telemetry.tasks > 0);
            }
        }
    }
}

/// One pinned oversized entity with a low split threshold: the scheduler
/// must actually split it (deterministic task construction ⇒ exact
/// telemetry), and the split-instantiated encoding must resolve to the
/// serial outcome.
#[test]
fn split_tasks_reproduce_serial_outcomes() {
    let ds = dataset(77, 6, 1);
    assert!(ds.sizes()[0] >= 96, "giant pinned to max_tuples");
    let specs = ds.specs();
    let resolver = Resolver::new(ResolutionConfig::default());
    assert!(resolver.config().incremental, "split path needs the incremental engine");
    let serial = serial_outcomes(&resolver, &ds, &specs);
    let make_oracle = |i: usize| GroundTruthOracle::with_cap(ds.truth(i).clone(), 1);
    let config = SchedulerConfig {
        split_tuple_threshold: 90,
        split_max_subtasks: 3,
        ..SchedulerConfig::with_workers(4)
    };
    let (outcomes, telemetry) = resolve_batch(&resolver, &specs, &make_oracle, &config);
    assert_outcomes_equal("split", &serial, &outcomes);
    assert_eq!(telemetry.split_entities, 1, "exactly the giant splits");
    assert!(
        (2..=3).contains(&telemetry.split_subtasks),
        "subtasks bounded by config, got {}",
        telemetry.split_subtasks
    );

    // The same batch with splitting disabled also agrees — splitting is
    // purely a scheduling decision.
    let no_split = SchedulerConfig {
        split_tuple_threshold: usize::MAX,
        ..SchedulerConfig::with_workers(4)
    };
    let (outcomes2, telemetry2) = resolve_batch(&resolver, &specs, &make_oracle, &no_split);
    assert_outcomes_equal("no-split", &serial, &outcomes2);
    assert_eq!(telemetry2.split_entities, 0);
}

/// Small entities with batching engaged: batch telemetry is deterministic
/// and the fused tasks resolve identically.
#[test]
fn batched_small_entities_match_serial() {
    let ds = PowerLawDataset::new(&PowerLawConfig {
        seed: 5,
        entities: 30,
        min_tuples: 2,
        max_tuples: 6, // everything is "small"
        ..Default::default()
    });
    let specs = ds.specs();
    let resolver = Resolver::new(ResolutionConfig::default());
    let serial = serial_outcomes(&resolver, &ds, &specs);
    let make_oracle = |i: usize| GroundTruthOracle::with_cap(ds.truth(i).clone(), 1);
    let config = SchedulerConfig {
        batch_max_entities: 8,
        large_tuple_threshold: 100,
        ..SchedulerConfig::with_workers(3)
    };
    let (outcomes, telemetry) = resolve_batch(&resolver, &specs, &make_oracle, &config);
    assert_outcomes_equal("batched", &serial, &outcomes);
    // 30 small entities at batch size 8 → deterministic 4 run tasks.
    assert_eq!(telemetry.tasks, 4);
    assert_eq!(telemetry.batch_tasks, 4);
    assert_eq!(telemetry.batched_entities, 30);
    assert_eq!(telemetry.max_batch, 8);
}

/// Streaming resolution through the bounded ingestion queue: outcomes
/// match serial, occupancy respects the cap, and nothing deadlocks even
/// with a tiny queue.
#[test]
fn stream_matches_serial_and_respects_queue_cap() {
    let ds = dataset(13, 40, 0);
    let specs = ds.specs();
    let resolver = Resolver::new(ResolutionConfig::default());
    let serial = serial_outcomes(&resolver, &ds, &specs);
    let make_oracle = |i: usize| GroundTruthOracle::with_cap(ds.truth(i).clone(), 1);
    for (workers, cap) in [(1usize, 1usize), (2, 2), (4, 8)] {
        let config = SchedulerConfig {
            queue_cap: cap,
            ..SchedulerConfig::with_workers(workers)
        };
        let slots: Vec<Mutex<Option<ResolutionOutcome>>> =
            specs.iter().map(|_| Mutex::new(None)).collect();
        let telemetry = resolve_stream(
            &resolver,
            ds.stream(),
            &make_oracle,
            &config,
            &|i, outcome| {
                let prev = slots[i].lock().unwrap().replace(outcome);
                assert!(prev.is_none(), "entity {i} resolved twice");
            },
        );
        let outcomes: Vec<ResolutionOutcome> = slots
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("every entity resolved"))
            .collect();
        assert_outcomes_equal(&format!("stream workers={workers} cap={cap}"), &serial, &outcomes);
        assert_eq!(telemetry.tasks, specs.len());
        assert!(
            telemetry.queue_high_water <= cap,
            "occupancy {} exceeded cap {cap}",
            telemetry.queue_high_water
        );
    }
}

/// The public batch entry point (`resolve_batch` with
/// `SchedulerConfig::with_workers`) stays width-invariant, including
/// degenerate widths.
#[test]
fn public_parallel_entry_point_is_width_invariant() {
    let ds = dataset(29, 12, 0);
    let specs = ds.specs();
    let resolver = Resolver::new(ResolutionConfig::default());
    let serial = serial_outcomes(&resolver, &ds, &specs);
    let oracle = |i: usize| GroundTruthOracle::with_cap(ds.truth(i).clone(), 1);
    for workers in [0usize, 1, 3, 16] {
        let (outcomes, _) =
            resolve_batch(&resolver, &specs, &oracle, &SchedulerConfig::with_workers(workers));
        assert_outcomes_equal(&format!("workers={workers}"), &serial, &outcomes);
    }
    let empty: Vec<Specification> = Vec::new();
    let (outcomes, _) =
        resolve_batch(&resolver, &empty, &oracle, &SchedulerConfig::with_workers(4));
    assert!(outcomes.is_empty());
}
