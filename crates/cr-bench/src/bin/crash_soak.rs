//! Time-boxed crash-and-rehydrate soak for durable sessions.
//!
//! Loops over randomized scenarios × causal timelines (with a user answer
//! interleaved) for `--seconds` wall-clock seconds (default 60). Each
//! iteration seeds a **batch split** — causal events are ingested through
//! the store per-event or coalesced into chunks of 2–3, interleaved across
//! seeds — and drives a [`SessionStore`] over a fault-injecting in-memory
//! backend, checkpointing the full storage state (log bytes + sync
//! watermark) at **every** batch boundary; each checkpoint is then crashed
//! five ways — clean cut, torn final write, truncated tail, bit flip, lost
//! final fsync — and a fresh store must rehydrate the session to exactly
//! what a from-scratch resolve of the surviving prefix produces
//! ([`verify_recovery`]: scratch-equivalence of validity / deduced orders /
//! true values, plus the full logical state).
//!
//! Hard expectations beyond the differential: a corrupt tail is truncated
//! to the last valid frame and counted honestly; a crash that strands
//! events without their batch marker (e.g. a lost fsync reverting to the
//! mid-batch sync point) is truncated further, to the previous **batch
//! boundary** ([`cr_store::plan_replay`]), and counted as a partial-batch
//! truncation; a lost fsync leaves an intact shorter log and must report
//! **zero** checksum failures; a clean cut recovers with no truncation at
//! all.
//!
//! Exits nonzero on any divergence, printing the failing **seed and
//! iteration**. Designed for CI: `--seconds 45` keeps the step well under
//! its budget. Flags: `--seconds S` (default 60), `--seed S` (base seed,
//! default 1).

use std::time::Instant;

use cr_bench::{arg_or, arg_seed};
use cr_core::causal::CausalRevision;
use cr_core::ingest::RevisionPolicy;
use cr_core::spec::UserInput;
use cr_core::ResolutionConfig;
use cr_data::gen::{causal_timeline, scenario_from_raw, CausalTimelineConfig, Scenario};
use cr_store::{
    decode_log_offsets, plan_replay, reference_of, verify_recovery, Fault, FaultyBackend,
    LogRecord, MemoryBackend, SessionId, SessionStore, StorageBackend, StoreConfig,
};
use cr_types::AttrId;

const ID: SessionId = SessionId(1);

enum Step {
    Input(UserInput),
    Causal(Vec<CausalRevision>),
}

struct Totals {
    iterations: u64,
    boundaries: u64,
    crashes: u64,
    truncations: u64,
    checksum_failures: u64,
    events_replayed: u64,
    snapshots_used: u64,
}

fn main() {
    let budget: f64 = arg_or("seconds", 60.0);
    let base_seed = arg_seed(1);
    let config = ResolutionConfig::default();

    let mut totals = Totals {
        iterations: 0,
        boundaries: 0,
        crashes: 0,
        truncations: 0,
        checksum_failures: 0,
        events_replayed: 0,
        snapshots_used: 0,
    };
    let start = Instant::now();
    let mut iter = 0u64;
    while start.elapsed().as_secs_f64() < budget {
        // Reproduce any failure with `--seed <base_seed>` and the printed
        // iteration: the failing seed is derived, not sequential.
        let iteration = iter;
        let seed = base_seed.wrapping_add(iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        iter += 1;
        // Small shapes keep one crash+verify in the low milliseconds so the
        // soak covers many seeds × boundaries × fault modes.
        let tuples = 2 + (seed % 6) as usize;
        let domain = 2 + (seed / 6 % 5) as usize;
        let density = (seed / 30 % 100) as u32;
        let events = 2 + (seed / 7 % 5) as usize;
        let sources = 1 + (seed / 5 % 3) as usize;
        // Cycle the snapshot cadence: never / every 2 / every 4 events, so
        // recovery exercises scratch replay, snapshot + tail, and
        // snapshot-at-the-crash-point alike.
        let snapshot_every = [0usize, 2, 4][(seed % 3) as usize];
        let Scenario { spec, truth } = scenario_from_raw(seed, tuples, domain, density, false);
        let timeline = causal_timeline(
            &spec,
            &CausalTimelineConfig {
                seed: seed.wrapping_mul(131).wrapping_add(7),
                sources,
                events,
                rounds: 3,
                // Burst polls: generated rounds carry multi-event batches.
                burst: 1 + (seed / 17 % 3) as usize,
                ..Default::default()
            },
        );
        // Seeded batch split: 1 ingests event-at-a-time, 2/3 coalesce
        // consecutive events into one atomic store batch. Interleaved
        // across seeds so recovery sees both granularities.
        let chunk = 1 + (seed / 13 % 3) as usize;
        let events_only: Vec<CausalRevision> = timeline.into_iter().map(|(_, ev)| ev).collect();
        let mut steps: Vec<Step> = events_only
            .chunks(chunk)
            .map(|c| Step::Causal(c.to_vec()))
            .collect();
        let mut input = UserInput::empty();
        input.values.insert(AttrId(1), truth.get(AttrId(1)).clone());
        steps.insert(steps.len() / 3, Step::Input(input));

        // Drive the workload once, checkpointing at every boundary.
        let store_config = StoreConfig {
            snapshot_every,
            ..StoreConfig::default()
        };
        let mut store = SessionStore::new(
            FaultyBackend::new(MemoryBackend::new()).unwrap(),
            store_config,
        )
        .unwrap();
        store.open(ID, &spec);
        store.session(ID).unwrap();
        let mut checkpoints = vec![store.backend().clone()];
        for step in &steps {
            match step {
                Step::Input(input) => {
                    store.apply_input(ID, input).unwrap();
                }
                Step::Causal(batch) => {
                    store.ingest_causal(ID, batch.clone()).unwrap();
                }
            }
            checkpoints.push(store.backend().clone());
        }

        for (boundary, checkpoint) in checkpoints.iter().enumerate() {
            let faults = [
                Fault::TruncatedTail { bytes: 0 }, // clean cut
                Fault::TornWrite {
                    at: (seed.wrapping_add(boundary as u64 * 3)) % 23,
                },
                Fault::TruncatedTail {
                    bytes: 1 + seed % 11,
                },
                Fault::BitFlip {
                    byte: seed.wrapping_add(boundary as u64 * 31),
                    bit: (boundary % 8) as u8,
                },
                Fault::LostSync,
            ];
            for fault in faults {
                let mut crashed = checkpoint.clone();
                crashed.crash(ID, fault).unwrap();
                let bytes = crashed.read_log(ID).unwrap();
                let (offsets, valid_len, scan_error) = decode_log_offsets(&bytes);
                let records: Vec<LogRecord> = offsets.iter().map(|(rec, _)| rec.clone()).collect();
                let lost = (bytes.len() - valid_len) as u64;
                // The batch boundary recovery must restore the log to: the
                // end of the last record a marker (or input/snapshot)
                // committed. Frame-intact events past it are an
                // uncommitted batch and must be cut too.
                let plan = plan_replay(&records);
                let boundary_len = if plan.used_records == 0 {
                    0
                } else {
                    offsets[plan.used_records - 1].1
                };
                let partial_bytes = (valid_len - boundary_len) as u64;
                let dropped_run = plan.used_records < records.len();

                let mut reference =
                    reference_of(&config, RevisionPolicy::Quarantine, &spec, &records);
                let mut recovered = SessionStore::new(crashed, store_config).unwrap();
                recovered.open(ID, &spec);
                let session = recovered.session(ID).unwrap_or_else(|e| {
                    eprintln!(
                        "FAIL: seed {seed} iteration {iteration}: boundary {boundary} \
                         {fault:?}: rehydration errored: {e}"
                    );
                    std::process::exit(1);
                });
                if let Err(e) = verify_recovery(session, &mut reference) {
                    eprintln!(
                        "FAIL: seed {seed} iteration {iteration}: boundary {boundary} \
                         {fault:?}: {e}"
                    );
                    std::process::exit(1);
                }

                let t = recovered.recovery();
                let fail = |msg: &str| {
                    eprintln!(
                        "FAIL: seed {seed} iteration {iteration}: boundary {boundary} \
                         {fault:?}: {msg} (telemetry {t:?})"
                    );
                    std::process::exit(1);
                };
                match scan_error {
                    Some(_) => {
                        if t.corrupt_truncations != 1 || t.truncated_bytes != lost + partial_bytes {
                            fail("corrupt tail not truncated/counted honestly");
                        }
                    }
                    None => {
                        if t.corrupt_truncations != 0 || t.checksum_failures != 0 {
                            fail("clean log reported corruption");
                        }
                        if t.truncated_bytes != partial_bytes {
                            fail("partial-batch bytes not counted honestly");
                        }
                    }
                }
                if t.partial_batch_truncations != u64::from(dropped_run) {
                    fail("partial-batch truncation miscounted");
                }
                if recovered.log_len(ID).unwrap() != boundary_len as u64 {
                    fail("log not truncated to the batch boundary");
                }
                if matches!(fault, Fault::LostSync) && scan_error.is_some() {
                    fail("lost fsync must leave an intact (shorter) log");
                }

                totals.crashes += 1;
                totals.truncations += t.corrupt_truncations;
                totals.checksum_failures += t.checksum_failures;
                totals.events_replayed += t.events_replayed;
                totals.snapshots_used += t.snapshots_used;
            }
            totals.boundaries += 1;
        }
        totals.iterations += 1;
    }

    println!(
        "crash soak OK: {} scenarios in {:.1}s — {} boundaries, {} crash-and-rehydrate \
         differentials, {} corrupt tails truncated ({} checksum failures), {} events \
         replayed, {} snapshot restores",
        totals.iterations,
        start.elapsed().as_secs_f64(),
        totals.boundaries,
        totals.crashes,
        totals.truncations,
        totals.checksum_failures,
        totals.events_replayed,
        totals.snapshots_used,
    );
    if totals.iterations == 0 {
        eprintln!("FAIL: soak budget too small to run a single scenario");
        std::process::exit(1);
    }
}
