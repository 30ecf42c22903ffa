//! Differential tests for the scheduler (`cr_core::sched`): resolution
//! outcomes must be *identical* to the single-threaded baseline at every
//! worker count and queue capacity — scheduling must only move whole
//! entities between threads, never change their resolution.

use cr_core::framework::{GroundTruthOracle, ResolutionConfig, Resolver};
use cr_core::sched::{resolve_batch, resolve_stream, SchedulerConfig};
use cr_core::{ResolutionOutcome, Specification, TrueValues};
use cr_data::gen::{PowerLawConfig, PowerLawDataset};
use proptest::prelude::*;
use std::borrow::Borrow;
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

/// Serial ≡ parallel, entity by entity: the first entity whose validity,
/// resolved values, interaction count or round count differs, named with
/// the field.
fn diff_outcomes(
    label: &str,
    serial: &[ResolutionOutcome],
    other: &[ResolutionOutcome],
) -> Result<(), String> {
    if serial.len() != other.len() {
        return Err(format!(
            "{label}: {} outcomes vs {}",
            serial.len(),
            other.len()
        ));
    }
    for (i, (s, o)) in serial.iter().zip(other).enumerate() {
        let fields = [
            ("validity", s.valid != o.valid),
            ("resolved values", s.resolved != o.resolved),
            ("interaction count", s.interactions != o.interactions),
            ("round count", s.rounds.len() != o.rounds.len()),
        ];
        if let Some((field, _)) = fields.iter().find(|(_, differs)| *differs) {
            return Err(format!("{label}: entity {i} {field} diverged"));
        }
    }
    Ok(())
}

/// Collects a [`resolve_stream`] run over `n` entities into input order,
/// asserting each entity is resolved exactly once.
fn stream_outcomes<I>(
    resolver: &Resolver,
    n: usize,
    entities: I,
    make_oracle: &(impl Fn(usize) -> GroundTruthOracle + Sync),
    config: &SchedulerConfig,
) -> (Vec<ResolutionOutcome>, cr_core::SchedTelemetry)
where
    I: Iterator,
    I::Item: Borrow<Specification> + Send,
{
    let slots: Vec<Mutex<Option<ResolutionOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let telemetry = resolve_stream(resolver, entities, make_oracle, config, &|i, outcome| {
        let prev = slots[i].lock().unwrap().replace(outcome);
        assert!(prev.is_none(), "entity {i} resolved twice");
    });
    let outcomes = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every entity resolved"))
        .collect();
    (outcomes, telemetry)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seeded power-law batches with one giant entity across worker
    /// widths: every width must reproduce the single-threaded outcomes.
    #[test]
    fn width_sweep_matches_serial(seed in 0u64..200, inc_bit in 0u32..2) {
        let incremental = inc_bit == 1;
        let ds = dataset(seed, 24, 1);
        let specs = ds.specs();
        let resolver = Resolver::new(ResolutionConfig { incremental, ..Default::default() });
        let serial = serial_outcomes(&resolver, &ds, &specs);
        let make_oracle = |i: usize| GroundTruthOracle::with_cap(ds.truth(i).clone(), 1);
        for workers in [1usize, 2, 4, 8] {
            let config = SchedulerConfig::with_workers(workers);
            let (outcomes, telemetry) = resolve_batch(&resolver, &specs, &make_oracle, &config);
            let label = format!("workers={workers} incremental={incremental}");
            diff_outcomes(&label, &serial, &outcomes).expect("serial ≡ parallel");
            prop_assert_eq!(telemetry.workers, workers.min(specs.len()));
            prop_assert_eq!(telemetry.tasks, specs.len());
        }
    }
}

/// The batch entry point and the stream entry point are one scheduler:
/// on the same seeded batch with a giant entity, in both engine modes and
/// at every width from 0 to 16, `resolve_batch` ≡ `resolve_stream` ≡
/// serial, entity by entity.
#[test]
fn batch_and_stream_match_serial_at_every_width() {
    let ds = dataset(41, 16, 1);
    assert!(ds.sizes()[0] >= 96, "giant pinned to max_tuples");
    let specs = ds.specs();
    let make_oracle = |i: usize| GroundTruthOracle::with_cap(ds.truth(i).clone(), 1);
    for incremental in [true, false] {
        let resolver = Resolver::new(ResolutionConfig {
            incremental,
            ..Default::default()
        });
        let serial = serial_outcomes(&resolver, &ds, &specs);
        for workers in 0usize..=16 {
            let config = SchedulerConfig::with_workers(workers);
            let label = format!("workers={workers} incremental={incremental}");
            let (batch, telemetry) = resolve_batch(&resolver, &specs, &make_oracle, &config);
            diff_outcomes(&format!("batch {label}"), &serial, &batch).expect("serial ≡ batch");
            assert_eq!(telemetry.workers, workers.clamp(1, specs.len()), "{label}");
            let (stream, telemetry) =
                stream_outcomes(&resolver, specs.len(), specs.iter(), &make_oracle, &config);
            diff_outcomes(&format!("stream {label}"), &serial, &stream).expect("serial ≡ stream");
            assert_eq!(telemetry.tasks, specs.len(), "{label}");
        }
    }
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
        let (outcomes, telemetry) =
            stream_outcomes(&resolver, specs.len(), ds.stream(), &make_oracle, &config);
        diff_outcomes(
            &format!("stream workers={workers} cap={cap}"),
            &serial,
            &outcomes,
        )
        .expect("serial ≡ stream");
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
/// degenerate widths and an empty batch.
#[test]
fn public_parallel_entry_point_is_width_invariant() {
    let ds = dataset(29, 12, 0);
    let specs = ds.specs();
    let resolver = Resolver::new(ResolutionConfig::default());
    let serial = serial_outcomes(&resolver, &ds, &specs);
    let oracle = |i: usize| GroundTruthOracle::with_cap(ds.truth(i).clone(), 1);
    for workers in [0usize, 1, 3, 16] {
        let (outcomes, _) = resolve_batch(
            &resolver,
            &specs,
            &oracle,
            &SchedulerConfig::with_workers(workers),
        );
        diff_outcomes(&format!("workers={workers}"), &serial, &outcomes)
            .expect("serial ≡ parallel");
    }
    let empty: Vec<Specification> = Vec::new();
    let (outcomes, telemetry) = resolve_batch(
        &resolver,
        &empty,
        &oracle,
        &SchedulerConfig::with_workers(4),
    );
    assert!(outcomes.is_empty());
    assert_eq!(telemetry.workers, 0, "an empty batch starts no worker");
}

/// A stream whose queue holds every entity never fills, so the producer
/// never blocks: any backpressure stall recorded here is a false positive.
#[test]
fn never_full_stream_records_no_stalls() {
    let ds = dataset(37, 24, 0);
    let specs = ds.specs();
    let resolver = Resolver::new(ResolutionConfig::default());
    let make_oracle = |i: usize| GroundTruthOracle::with_cap(ds.truth(i).clone(), 1);
    let config = SchedulerConfig {
        queue_cap: specs.len() + 1,
        ..SchedulerConfig::with_workers(2)
    };
    let telemetry = resolve_stream(&resolver, ds.stream(), &make_oracle, &config, &|_, _| {});
    assert_eq!(telemetry.tasks, specs.len());
    assert_eq!(
        telemetry.backpressure_stalls, 0,
        "a never-full queue cannot stall"
    );
}

/// The serial ≡ parallel comparison can fail: a real 2-worker outcome list
/// with one entity's resolved values changed is caught, and the error
/// names that entity and the field.
#[test]
fn a_parallel_outcome_with_changed_values_is_caught_and_named() {
    let ds = dataset(29, 12, 0);
    let specs = ds.specs();
    let resolver = Resolver::new(ResolutionConfig::default());
    let serial = serial_outcomes(&resolver, &ds, &specs);
    let oracle = |i: usize| GroundTruthOracle::with_cap(ds.truth(i).clone(), 1);
    let config = SchedulerConfig::with_workers(2);
    let (mut parallel, _) = resolve_batch(&resolver, &specs, &oracle, &config);
    diff_outcomes("workers=2", &serial, &parallel).expect("unplanted run agrees");

    let planted = 5;
    let mut values = parallel[planted].resolved.as_slice().to_vec();
    values[0] = Some(cr_types::Value::str("planted"));
    parallel[planted].resolved = TrueValues::new(values);
    assert_eq!(
        diff_outcomes("workers=2", &serial, &parallel),
        Err(format!(
            "workers=2: entity {planted} resolved values diverged"
        ))
    );
}
