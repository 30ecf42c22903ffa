//! Benchmarks the incremental resolution engine against the from-scratch
//! Fig. 4 loop on the multi-round end-to-end scenario and writes a
//! machine-readable `BENCH_<n>.json` report.
//!
//! The workload reproduces the interactive setting of the paper's Fig. 8:
//! entities at the seed bin sizes, a simulated user answering one attribute
//! per round, and a 0.6 constraint fraction (the paper's |Σ|,|Γ| sweeps) so
//! that entities genuinely need several interaction rounds — the regime the
//! incremental engine targets. A synthetic *wide-domain* workload
//! (`cr_data::gen`, conflict density 1.0) isolates the `O(n³)` transitivity
//! cost that lazy axiom instantiation removes.
//!
//! Every dataset is resolved on the engine (lazy, incremental) and on the
//! from-scratch loop (lazy, a fresh session per round), and the run
//! **fails loudly** on any outcome divergence or zero recorded axiom
//! telemetry where injection was expected. `--smoke` runs exactly those
//! checks in CI. The JSON report additionally records round-0 encode
//! clause counts and wall time of a lazy and a one-shot eager encode plus
//! the injected-axiom counts of the engine's resolutions.
//!
//! Three further invariants are enforced alongside the outcome checks:
//! **compile-once** — every workload's constraint program is compiled at
//! setup (once per dataset, or once per heterogeneous scenario) and the
//! global [`cr_core::compile_count`] must not move during any resolution
//! or encode measurement — **live retraction telemetry** — the new-value
//! workloads must report provenance-scoped retraction replays, with
//! per-round invalidation costs recorded in the report — and **live
//! revision ingestion**: the `ingest` workload streams upstream
//! corrections (CFD retractions, order withdrawals, value revisions) into
//! resolutions mid-flight, its revision replay is proven ≡ a from-scratch
//! re-resolution of the post-revision specification
//! (`cr_core::ingest::resolve_with_revisions_checked`), and its retraction
//! cones must be **non-empty** (`revision invalidated > 0`) — the
//! partial-invalidation path the interactive workloads cannot reach.
//! Revision/retraction telemetry is reported uniformly for *every*
//! workload, so a dead counter is distinguishable from a workload that
//! legitimately has no revision stream.
//!
//! The `ingest-chaos` workload extends this to **causally-stamped**
//! streams: each entity's timeline carries vector-clocked corrections from
//! two remote sources, including a zip correction that is causally
//! concurrent with the user's round-0 zip answer — the run must **re-open**
//! that attribute (`reopened > 0`). Each entity is resolved four ways —
//! canonical interactive, schedule-preserving chaos (reorder + duplicates,
//! must converge interactively), and canonical vs deterministically-swapped
//! delivery drain-first (the successor overtakes its predecessor, forcing
//! frontier buffering, and must converge post-drain) — and the smoke gates
//! require nonzero duplicate-drops and buffering, zero quarantines on the
//! clean streams, and exact convergence everywhere.
//!
//! The `ingest-batch` workload proves the **coalesced batch path** live:
//! every entity's revision timeline is applied twice — event-at-a-time and
//! as whole per-round batches (`apply_revision_batch`, one union-cone
//! retraction + one replay per batch) — with the batched session, the
//! sequential twin and a `SpecMirror` scratch reference compared after
//! every batch, fanned out at the requested `--threads` width. The smoke
//! gates fail the run on any batched-vs-sequential divergence, zero
//! coalesced events (the single-replay saving never materialised), or any
//! batch whose union cone undercuts its largest member cone.
//!
//! The `rehydrate` workload covers **durable sessions** (`cr-store`): a
//! causal timeline is logged through a [`SessionStore`], the session is
//! evicted and recovered — once by full log replay, once from the last
//! snapshot plus tail — with each recovery differentially verified against
//! a from-scratch resolve of the decoded log. The smoke gates fail the run
//! if recovery replays zero events or a clean log reports any checksum
//! failure or truncation.
//!
//! The `serve` workload drives the **serving layer** (`cr-server`) with
//! the simulated client fleet (`cr_data::fleet`): one run over a clean
//! wire and one over the fully hostile wire (drop + duplicate + delay +
//! disconnect) with clients folded onto few tenants against a tight
//! admission budget, so shedding and retries genuinely occur. Each run is
//! self-verifying (exactly-once mutations, canonical-replay equivalence);
//! the report records throughput (acknowledged ops per tick and per
//! second) and p50/p95/p99 submit-to-acknowledge latency in ticks for
//! both wires. The smoke gates fail the run if the clean wire needed any
//! retry, or if the faulty-wire run produced **zero** load-shedding or
//! zero client retries — a dead fault path must not pass.
//!
//! The `sched` workload drives the **work-stealing scheduler**
//! (`cr_core::sched`) with a seeded power-law entity population: a
//! serial reference pass, then `resolve_batch` under the adversarial
//! `Placement::Skewed` (every task starts on shard 0, so workers 1..N
//! live entirely off steals) and a `resolve_stream` run through the
//! bounded ingestion queue — each proven outcome-identical to serial.
//! The smoke gates fail the run on zero steals, zero batch tasks, zero
//! split entities (the pinned giant must split), or any backpressure
//! stall on the clean stream (whose queue capacity exceeds the entity
//! count, so a stall there is a false positive). The same workload
//! records the engine encoding's bytes per entity over a sample of
//! entities. Outside smoke, a `--sched-entities`-sized power-law
//! dataset (default 10⁵) is resolved end-to-end twice — serially and
//! through `resolve_stream` at the `--threads` width under the default
//! bounded queue — with an order-insensitive outcome digest proving
//! serial ≡ parallel at scale.
//!
//! Flags: `--entities N` (per generated dataset, default 10), `--seed S`,
//! `--rounds R` (max user rounds, default 10), `--reps K` (timing
//! repetitions, default 3), `--frac F` (constraint fraction, default 0.6),
//! `--threads T` (parallel fan-out width, default = available cores; the
//! smoke mode runs a serial-vs-parallel agreement pass at this width),
//! `--sched-entities N` (scale of the non-smoke scheduler run, default
//! 100000), `--out PATH` (default `BENCH_10.json`), `--smoke` (tiny CI
//! mode: check agreement, compile-once, live-cone,
//! parallel-path, scheduler, durability and serving invariants, skip the
//! timing sweep).

use std::time::Instant;

use std::sync::Arc;

use cr_bench::{arg_entities, arg_flag, arg_seed, arg_value, json::BenchReport, quick};
use cr_core::causal::{
    resolve_causal_checked, CausalReplayConfig, CausalRevision, ScriptedCausalRevisions,
};
use cr_core::framework::{GroundTruthOracle, ResolutionConfig, ResolutionOutcome, Resolver};
use cr_core::ingest::{
    check_session_against_scratch, diff_logical_states, resolve_with_revisions_checked,
    ResolutionSession, Revision, RevisionPolicy, ScriptedRevisions, SpecMirror,
};
use cr_core::sched::{resolve_batch, resolve_stream, Placement, SchedTelemetry, SchedulerConfig};
use cr_core::{compile_count, CompiledProgram, EncodeOptions, EncodedSpec, Specification};
use cr_constraints::parser::{parse_cfd_file, parse_currency_file};
use cr_core::spec::UserInput;
use cr_data::chaos::{chaos, ChaosConfig};
use cr_data::fleet::{run_fleet, ChannelFaults, FleetConfig, FleetReport};
use cr_data::gen::{
    causal_timeline, scenario_from_raw, CausalTimelineConfig, PowerLawConfig, PowerLawDataset,
    Scenario, ScenarioConfig,
};
use cr_data::{nba, person, vjday};
use cr_server::admission::AdmissionConfig;
use cr_store::{
    decode_log, reference_of, verify_recovery, MemoryBackend, SessionId, SessionStore,
    StorageBackend, StoreConfig,
};
use cr_types::{AttrId, EntityInstance, Schema, SourceClock, SourceId, Tuple, TupleId, Value};

struct Workload {
    label: &'static str,
    specs: Vec<Specification>,
    truths: Vec<Tuple>,
}

/// A deterministic retraction-heavy workload: every entity forces the
/// oracle to answer an out-of-domain `AC` (and then `city`) value, so each
/// resolution retracts CFD guard groups mid-interaction — the path whose
/// cost the provenance-scoped replay bounds. (The generated workloads only
/// retract occasionally: a *fired* CFD's attributes are already settled
/// and never asked again, so interactive retraction cones are usually
/// empty — exactly the case the replay turns into a near-no-op.)
fn retraction_workload(entities: usize) -> Workload {
    let schema = Schema::new("p", ["status", "AC", "city"]).expect("static schema");
    let sigma = parse_currency_file(
        &schema,
        r#"phi1: t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2"#,
    )
    .expect("static constraints");
    let mut specs = Vec::new();
    let mut truths = Vec::new();
    for e in 0..entities.max(2) as i64 {
        let gamma = parse_cfd_file(
            &schema,
            &format!(
                "psi1: AC = {} -> city = \"LA{e}\"\npsi2: AC = {} -> city = \"NY{e}\"",
                201 + e,
                200 + e
            ),
        )
        .expect("static CFDs");
        let entity = EntityInstance::new(
            schema.clone(),
            vec![
                Tuple::of([Value::str("working"), Value::int(200 + e), Value::str(format!("NY{e}"))]),
                Tuple::of([Value::str("retired"), Value::int(201 + e), Value::str(format!("LA{e}"))]),
                Tuple::of([Value::str("retired"), Value::int(202 + e), Value::str(format!("SF{e}"))]),
            ],
        )
        .expect("static entity");
        specs.push(Specification::without_orders(entity, sigma.clone(), gamma));
        truths.push(Tuple::of([
            Value::str("retired"),
            Value::int(999 + e),
            Value::str(format!("Boston{e}")),
        ]));
    }
    let w = Workload { label: "retract", specs, truths };
    share_workload_program(&w.specs[..1], None);
    // Γ differs per entity (distinct CFD constants): one program each.
    for spec in &w.specs[1..] {
        spec.compiled_program();
    }
    w
}

/// The push-based ingestion workload: every entity resolves under a
/// streaming revision timeline whose events *must* land in live derivation
/// cones — the CFD has fired by the time it is retracted (round 1) and the
/// withdrawn base order carries the `job` derivation — so the
/// provenance-scoped replay runs its partial-invalidation path end-to-end
/// (`revision invalidated > 0`, enforced by `--smoke`). A later value
/// revision rewrites `city` to a brand-new value, exercising domain growth
/// and value retirement mid-resolution. The `zip` attribute stays
/// unconstrained so the oracle is consulted across several rounds — the
/// window the stream pushes into.
struct IngestWorkload {
    specs: Vec<Specification>,
    truths: Vec<Tuple>,
    timelines: Vec<Vec<(usize, Revision)>>,
}

fn ingest_workload(entities: usize) -> IngestWorkload {
    let schema =
        Schema::new("p", ["status", "AC", "city", "job", "zip"]).expect("static schema");
    let sigma = parse_currency_file(
        &schema,
        r#"
        phi1: t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2
        phi2: t1 <[status] t2 -> t1 <[AC] t2
        "#,
    )
    .expect("static constraints");
    let job = schema.attr_id("job").expect("static attr");
    let city = schema.attr_id("city").expect("static attr");
    let mut specs = Vec::new();
    let mut truths = Vec::new();
    let mut timelines = Vec::new();
    for e in 0..entities.max(2) as i64 {
        let gamma = parse_cfd_file(
            &schema,
            &format!("psi1: AC = {} -> city = \"LA{e}\"", 200 + e),
        )
        .expect("static CFDs");
        let entity = EntityInstance::new(
            schema.clone(),
            vec![
                Tuple::of([
                    Value::str("working"),
                    Value::int(100 + e),
                    Value::str(format!("NY{e}")),
                    Value::str("nurse"),
                    Value::str(format!("Z1_{e}")),
                ]),
                Tuple::of([
                    Value::str("retired"),
                    Value::int(200 + e),
                    Value::str(format!("LA{e}")),
                    Value::str("vet"),
                    Value::str(format!("Z2_{e}")),
                ]),
            ],
        )
        .expect("static entity");
        // Base order carrying the job derivation (withdrawn at round 2).
        let mut orders = cr_core::PartialOrders::empty(schema.arity());
        orders.add(job, TupleId(0), TupleId(1));
        specs.push(Specification::new(entity, orders, sigma.clone(), gamma));
        truths.push(Tuple::of([
            Value::str("retired"),
            Value::int(200 + e),
            Value::str(format!("LA{e}")),
            Value::str("vet"),
            Value::str(format!("Z2_{e}")),
        ]));
        timelines.push(vec![
            (1, Revision::RetractCfd { cfd: 0 }),
            (2, Revision::WithdrawOrder { attr: job, lo: TupleId(0), hi: TupleId(1) }),
            (2, Revision::ReplaceValue {
                tuple: TupleId(0),
                attr: city,
                value: Value::str(format!("Boston{e}")),
            }),
        ]);
    }
    // Γ differs per entity (distinct CFD constants): one program each,
    // materialised at setup so nothing compiles during measurement.
    for spec in &specs {
        spec.compiled_program();
    }
    IngestWorkload { specs, truths, timelines }
}

/// Per-workload revision-ingestion telemetry (the `ingest` workload's
/// counterpart of [`RetractionStats`]).
#[derive(Default)]
struct IngestStats {
    events: usize,
    retracted_groups: usize,
    invalidated: usize,
    reemitted_clauses: usize,
}

/// Differentially verifies the ingest workload — the revision replay must
/// equal a from-scratch re-resolution of the post-revision specification
/// after every event batch — and collects its telemetry. Aborts the bench
/// on any divergence. (Run during setup: the scratch mirrors compile their
/// own programs.)
fn check_ingest(w: &IngestWorkload, rounds: usize) -> IngestStats {
    let config = ResolutionConfig { max_rounds: rounds, ..Default::default() };
    let mut stats = IngestStats::default();
    for ((spec, truth), timeline) in w.specs.iter().zip(&w.truths).zip(&w.timelines) {
        let mut oracle = GroundTruthOracle::with_cap(truth.clone(), 1);
        let mut source = ScriptedRevisions::new(timeline.clone());
        let checked = resolve_with_revisions_checked(&config, spec, &mut oracle, &mut source)
            .unwrap_or_else(|e| {
                eprintln!("  ingest: REPLAY-VS-SCRATCH DIVERGENCE: {e}");
                std::process::exit(1);
            });
        assert!(checked.valid, "ingest workload stays valid");
        stats.events += checked.revisions.events;
        stats.retracted_groups += checked.revisions.retracted_groups;
        stats.invalidated += checked.revisions.invalidated;
        stats.reemitted_clauses += checked.revisions.reemitted_clauses;
    }
    stats
}

/// Serial wall-clock seconds for one pass of the unchecked production path
/// (`resolve_with_revisions`) over the ingest workload (best of `reps`).
fn time_ingest(w: &IngestWorkload, rounds: usize, reps: usize) -> f64 {
    let r = Resolver::new(ResolutionConfig { max_rounds: rounds, ..Default::default() });
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        for ((spec, truth), timeline) in w.specs.iter().zip(&w.truths).zip(&w.timelines) {
            let mut oracle = GroundTruthOracle::with_cap(truth.clone(), 1);
            let mut source = ScriptedRevisions::new(timeline.clone());
            std::hint::black_box(r.resolve_with_revisions(spec, &mut oracle, &mut source));
        }
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Batched-ingestion telemetry summed over the `ingest-batch` differential
/// (explicit zeros: a dead coalescing counter must be distinguishable from
/// a clean run).
#[derive(Clone, Copy, Default)]
struct BatchStats {
    batches: usize,
    events: usize,
    coalesced: usize,
    cone_union: usize,
    max_member_cone: usize,
    replays_saved: usize,
}

/// Groups a scripted timeline into its per-round revision batches, in
/// round order — the poll granularity `resolve_with_revisions` hands to
/// `apply_revision_batch`.
fn round_batches(timeline: &[(usize, Revision)]) -> Vec<Vec<Revision>> {
    let mut rounds: std::collections::BTreeMap<usize, Vec<Revision>> =
        std::collections::BTreeMap::new();
    for (round, rev) in timeline {
        rounds.entry(*round).or_default().push(rev.clone());
    }
    rounds.into_values().collect()
}

/// The batched-vs-sequential differential: every entity's timeline is
/// applied per-round-batch to one session (`apply_revision_batch`: one
/// union-cone retraction + one replay per batch) and event-at-a-time to a
/// twin, with both checked against a [`SpecMirror`] scratch reference and
/// against each other ([`diff_logical_states`]) after **every** batch.
/// Entities are fanned out across `threads` OS threads so the CI width
/// (`--threads 2`) exercises the batch path concurrently. Aborts the bench
/// on any divergence or on a union cone smaller than its largest member
/// cone (structurally impossible unless coalescing is broken).
fn check_ingest_batch(w: &IngestWorkload, threads: usize) -> BatchStats {
    let config = ResolutionConfig::default();
    let jobs: Vec<(usize, &Specification, Vec<Vec<Revision>>)> = w
        .specs
        .iter()
        .zip(&w.timelines)
        .enumerate()
        .map(|(i, (spec, timeline))| (i, spec, round_batches(timeline)))
        .collect();
    let chunk = jobs.len().div_ceil(threads.max(1));
    let stats = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(chunk.max(1))
            .map(|chunk| {
                let config = &config;
                scope.spawn(move || {
                    let mut stats = BatchStats::default();
                    for (i, spec, batches) in chunk {
                        let mut batched = ResolutionSession::new_revisable(config, spec);
                        let mut twin = ResolutionSession::new_revisable(config, spec);
                        let mut mirror = SpecMirror::new(spec);
                        for batch in batches {
                            let report =
                                batched.apply_revision_batch(batch).unwrap_or_else(|e| {
                                    eprintln!("  ingest-batch: entity {i}: batch rejected: {e}");
                                    std::process::exit(1);
                                });
                            for rev in batch {
                                twin.apply_revision(rev).unwrap_or_else(|e| {
                                    eprintln!(
                                        "  ingest-batch: entity {i}: sequential twin rejected: {e}"
                                    );
                                    std::process::exit(1);
                                });
                                mirror.apply(rev);
                            }
                            if report.union_cone < report.max_member_cone {
                                eprintln!(
                                    "  ingest-batch: entity {i}: union cone {} < largest member cone {}",
                                    report.union_cone, report.max_member_cone
                                );
                                std::process::exit(1);
                            }
                            let check = check_session_against_scratch(&mut batched, &mirror)
                                .and_then(|()| check_session_against_scratch(&mut twin, &mirror))
                                .and_then(|()| {
                                    diff_logical_states(&batched.state(), &twin.state())
                                });
                            if let Err(e) = check {
                                eprintln!(
                                    "  ingest-batch: BATCHED-VS-SEQUENTIAL DIVERGENCE on entity {i}: {e}"
                                );
                                std::process::exit(1);
                            }
                            stats.batches += 1;
                            stats.events += report.applied;
                            if report.applied >= 2 {
                                stats.coalesced += report.applied;
                                stats.replays_saved += report.applied - 1;
                            }
                            stats.cone_union += report.union_cone;
                            stats.max_member_cone += report.max_member_cone;
                        }
                    }
                    stats
                })
            })
            .collect();
        let mut total = BatchStats::default();
        for h in handles {
            let s = h.join().expect("ingest-batch worker panicked");
            total.batches += s.batches;
            total.events += s.events;
            total.coalesced += s.coalesced;
            total.cone_union += s.cone_union;
            total.max_member_cone += s.max_member_cone;
            total.replays_saved += s.replays_saved;
        }
        total
    });
    stats
}

/// Best-of-`reps` wall-clock seconds for one pass over the workload's
/// timelines: event-at-a-time (`apply_revision`) vs whole-round batches
/// (`apply_revision_batch`) — the per-event vs coalesced replay cost the
/// report records.
fn time_ingest_batch(w: &IngestWorkload, reps: usize) -> (f64, f64) {
    let config = ResolutionConfig::default();
    let batched_jobs: Vec<Vec<Vec<Revision>>> =
        w.timelines.iter().map(|t| round_batches(t)).collect();
    let mut per_event = f64::INFINITY;
    let mut batched = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        for (spec, batches) in w.specs.iter().zip(&batched_jobs) {
            let mut session = ResolutionSession::new_revisable(&config, spec);
            for batch in batches {
                for rev in batch {
                    session.apply_revision(rev).expect("valid timeline");
                }
            }
            std::hint::black_box(session.epoch());
        }
        per_event = per_event.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for (spec, batches) in w.specs.iter().zip(&batched_jobs) {
            let mut session = ResolutionSession::new_revisable(&config, spec);
            for batch in batches {
                session.apply_revision_batch(batch).expect("valid timeline");
            }
            std::hint::black_box(session.epoch());
        }
        batched = batched.min(t.elapsed().as_secs_f64());
    }
    (per_event, batched)
}

/// The causally-stamped chaos workload: the ingest schema/entities with
/// vector-clocked timelines from two remote sources. The `zip` correction
/// is delivered at round 1 — causally concurrent with the user's round-0
/// `zip` answer and contradicting it, so every canonical interactive run
/// must re-open the attribute.
struct ChaosWorkload {
    specs: Vec<Specification>,
    truths: Vec<Tuple>,
    timelines: Vec<Vec<(usize, CausalRevision)>>,
}

fn chaos_workload(entities: usize) -> ChaosWorkload {
    let ingest = ingest_workload(entities);
    let schema = ingest.specs[0].schema().clone();
    let job = schema.attr_id("job").expect("static attr");
    let city = schema.attr_id("city").expect("static attr");
    let zip = schema.attr_id("zip").expect("static attr");
    let timelines = (0..ingest.specs.len() as i64)
        .map(|e| {
            let mut s1 = SourceClock::new(SourceId(1));
            let mut s2 = SourceClock::new(SourceId(2));
            vec![
                (1, CausalRevision { stamp: s1.stamp(1), rev: Revision::RetractCfd { cfd: 0 } }),
                // Concurrent with (and contradicting) the round-0 zip
                // answer `Z2_{e}`: the re-open trigger.
                (1, CausalRevision {
                    stamp: s2.stamp(1),
                    rev: Revision::ReplaceValue {
                        tuple: TupleId(0),
                        attr: zip,
                        value: Value::str(format!("Z9_{e}")),
                    },
                }),
                (2, CausalRevision {
                    stamp: s1.stamp(2),
                    rev: Revision::WithdrawOrder { attr: job, lo: TupleId(0), hi: TupleId(1) },
                }),
                (2, CausalRevision {
                    stamp: s2.stamp(2),
                    rev: Revision::ReplaceValue {
                        tuple: TupleId(0),
                        attr: city,
                        value: Value::str(format!("Boston{e}")),
                    },
                }),
            ]
        })
        .collect();
    ChaosWorkload { specs: ingest.specs, truths: ingest.truths, timelines }
}

/// Causal-stream telemetry summed over the chaos workload's runs (explicit
/// zeros: a dead counter must be distinguishable from a clean run).
#[derive(Default)]
struct ChaosStats {
    applied: usize,
    duplicates_dropped: usize,
    buffered: usize,
    quarantined: usize,
    reopened: usize,
    secs: f64,
}

/// Resolves every chaos-workload entity four ways — canonical interactive,
/// schedule-preserving chaos interactive, and canonical vs
/// deterministically-swapped delivery drain-first — asserting exact
/// convergence between each pair (each run is additionally verified ≡
/// scratch after every effective batch by `resolve_causal_checked`
/// itself). Aborts the bench on any divergence. Run during setup: the
/// scratch mirrors compile their own programs.
fn check_chaos(w: &ChaosWorkload, rounds: usize, seed: u64) -> ChaosStats {
    let config = ResolutionConfig { max_rounds: rounds, ..Default::default() };
    let interactive = CausalReplayConfig::default();
    let drain_first = CausalReplayConfig {
        policy: RevisionPolicy::Reject,
        interact_while_streaming: false,
        max_batch: 0,
    };
    let mut stats = ChaosStats::default();
    let t = Instant::now();
    for (i, ((spec, truth), timeline)) in
        w.specs.iter().zip(&w.truths).zip(&w.timelines).enumerate()
    {
        let mut run = |source: ScriptedCausalRevisions, causal: &CausalReplayConfig, what| {
            let mut oracle = GroundTruthOracle::with_cap(truth.clone(), 1);
            let mut source = source;
            let replay = resolve_causal_checked(&config, spec, &mut oracle, &mut source, causal)
                .unwrap_or_else(|e| {
                    eprintln!("  ingest-chaos: {what} run diverged from scratch on entity {i}: {e}");
                    std::process::exit(1);
                });
            stats.quarantined += replay.revisions.quarantined;
            replay
        };

        let canonical = run(
            ScriptedCausalRevisions::new(timeline.clone()),
            &interactive,
            "canonical",
        );
        assert!(canonical.valid && canonical.complete, "entity {i}: canonical run must settle");
        stats.applied += canonical.revisions.events;
        stats.reopened += canonical.revisions.reopened;

        // Schedule-preserving chaos (reorder + duplicates) must converge
        // with the full interactive trajectory.
        let chaotic = run(
            chaos(timeline, spec, &ChaosConfig::schedule_preserving(seed ^ (i as u64 + 1))),
            &interactive,
            "schedule-preserving chaos",
        );
        assert_eq!(
            canonical.resolved, chaotic.resolved,
            "entity {i}: chaotic delivery diverged from canonical"
        );
        assert_eq!(canonical.interactions, chaotic.interactions, "entity {i}");
        assert_eq!(canonical.revisions.reopened, chaotic.revisions.reopened, "entity {i}");
        stats.duplicates_dropped += chaotic.revisions.duplicates_dropped;

        // Deterministic out-of-order delivery: source 2's first event moves
        // past its successor, which must buffer at the frontier; drain-first
        // runs of both schedules must converge.
        let mut swapped = timeline.clone();
        for entry in &mut swapped {
            if entry.1.stamp.source == SourceId(2) && entry.1.stamp.seq() == 1 {
                entry.0 = 3;
            }
        }
        let base = run(ScriptedCausalRevisions::new(timeline.clone()), &drain_first, "drain-first");
        let ooo = run(ScriptedCausalRevisions::new(swapped), &drain_first, "out-of-order");
        assert_eq!(
            base.resolved, ooo.resolved,
            "entity {i}: out-of-order drain-first delivery diverged"
        );
        assert!(
            ooo.revisions.buffered > 0,
            "entity {i}: the overtaken predecessor must force buffering"
        );
        stats.buffered += ooo.revisions.buffered;
    }
    stats.secs = t.elapsed().as_secs_f64();
    stats
}

/// One serial-vs-parallel agreement pass at the requested fan-out width
/// (run in smoke so `--threads N` exercises the parallel path in CI).
fn check_parallel(w: &Workload, rounds: usize, threads: usize) {
    let r = resolver(true, rounds);
    let serial: Vec<_> = w
        .specs
        .iter()
        .zip(&w.truths)
        .map(|(spec, truth)| r.resolve(spec, &mut GroundTruthOracle::with_cap(truth.clone(), 1)))
        .collect();
    let (parallel, _) = resolve_batch(
        &r,
        &w.specs,
        &|i| GroundTruthOracle::with_cap(w.truths[i].clone(), 1),
        &SchedulerConfig::with_workers(threads),
    );
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s.resolved, p.resolved,
            "{}: parallel fan-out diverged from serial on entity {i}",
            w.label
        );
    }
}

fn resolver(incremental: bool, max_rounds: usize) -> Resolver {
    Resolver::new(ResolutionConfig { max_rounds, incremental, ..Default::default() })
}

/// Serial wall-clock seconds for one pass over the workload (best of `reps`).
fn time_serial(w: &Workload, incremental: bool, rounds: usize, reps: usize) -> f64 {
    let r = resolver(incremental, rounds);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        for (spec, truth) in w.specs.iter().zip(&w.truths) {
            let mut oracle = GroundTruthOracle::with_cap(truth.clone(), 1);
            std::hint::black_box(r.resolve(spec, &mut oracle));
        }
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Parallel fan-out wall-clock seconds on the incremental engine.
fn time_parallel(w: &Workload, rounds: usize, reps: usize, threads: usize) -> f64 {
    let r = resolver(true, rounds);
    let config = SchedulerConfig::with_workers(threads);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(resolve_batch(
            &r,
            &w.specs,
            &|i| GroundTruthOracle::with_cap(w.truths[i].clone(), 1),
            &config,
        ));
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Stamps one shared compiled program (built against `table` when the
/// dataset has one) onto every spec of a homogeneous workload — the
/// compile-once-per-dataset contract the smoke check enforces. Specs whose
/// programs are already stamped (career via `Dataset::spec`, wide via
/// `cr_data::gen`) are forced to materialise them here instead, so *no*
/// compilation can happen during the measured phase.
fn share_workload_program(specs: &[Specification], table: Option<&cr_types::ValueTable>) {
    let Some(first) = specs.first() else { return };
    let program = Arc::new(CompiledProgram::compile(first.sigma(), first.gamma(), table));
    for spec in specs {
        spec.set_compiled_program(program.clone());
    }
}

/// Retraction-replay telemetry summed over a workload's incremental
/// resolutions.
#[derive(Default)]
struct RetractionStats {
    replays: usize,
    invalidated: usize,
    full_resets: usize,
    /// Interaction rounds that actually retracted (nonzero invalidation).
    rounds_with_retraction: usize,
}

/// The incremental engine and the from-scratch loop must produce identical
/// resolution outcomes. Returns the engine's injected-axiom count and its
/// retraction telemetry.
fn check_agreement(w: &Workload, rounds: usize) -> (usize, RetractionStats) {
    let (engine, scratch) = (resolver(true, rounds), resolver(false, rounds));
    let mut injected = 0;
    let mut retraction = RetractionStats::default();
    for (spec, truth) in w.specs.iter().zip(&w.truths) {
        let oracle = || GroundTruthOracle::with_cap(truth.clone(), 1);
        let reference = engine.resolve(spec, &mut oracle());
        let outcome = scratch.resolve(spec, &mut oracle());
        assert_eq!(
            reference.resolved, outcome.resolved,
            "{}: resolved tuples diverged on scratch",
            w.label
        );
        assert_eq!(
            reference.interactions, outcome.interactions,
            "{}: interaction counts diverged on scratch",
            w.label
        );
        assert_eq!(
            reference.user_values, outcome.user_values,
            "{}: answer counts diverged on scratch",
            w.label
        );
        injected += reference.injected_axioms;
        retraction.replays += reference.retraction_replays;
        retraction.invalidated += reference.retraction_invalidated;
        retraction.full_resets += reference.retraction_full_resets;
        retraction.rounds_with_retraction += reference
            .rounds
            .iter()
            .filter(|r| r.retraction_invalidated > 0)
            .count();
    }
    (injected, retraction)
}

/// Round-0 encode comparison: clause counts and encode wall time per axiom
/// mode, summed over the workload's specs.
struct EncodeStats {
    eager_clauses: usize,
    lazy_clauses: usize,
    eager_secs: f64,
    lazy_secs: f64,
}

/// Best of `reps` timed passes over the workload per axiom mode (the same
/// best-of policy as the end-to-end timings — single-core containers are
/// noisy and a single cold pass can read 20–30% high).
fn encode_stats(w: &Workload, reps: usize) -> EncodeStats {
    let mut stats =
        EncodeStats { eager_clauses: 0, lazy_clauses: 0, eager_secs: f64::INFINITY, lazy_secs: f64::INFINITY };
    for rep in 0..reps.max(1) {
        // One mode per pass: interleaving would measure every lazy encode
        // against caches just evicted by a multi-million-clause eager one.
        let t = Instant::now();
        for spec in &w.specs {
            let lazy = EncodedSpec::encode_with(spec, EncodeOptions::lazy());
            if rep == 0 {
                stats.lazy_clauses += lazy.cnf().num_clauses();
            }
            std::hint::black_box(lazy);
        }
        stats.lazy_secs = stats.lazy_secs.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for spec in &w.specs {
            let eager = EncodedSpec::encode_with(spec, EncodeOptions::eager());
            if rep == 0 {
                stats.eager_clauses += eager.cnf().num_clauses();
            }
            std::hint::black_box(eager);
        }
        stats.eager_secs = stats.eager_secs.min(t.elapsed().as_secs_f64());
    }
    stats
}

struct RehydrateStats {
    events_logged: u64,
    log_bytes: u64,
    events_replayed: u64,
    snapshots_used: u64,
    checksum_failures: u64,
    corrupt_truncations: u64,
    full_replay_secs: f64,
    snapshot_tail_secs: f64,
}

/// Durable-session rehydration workload: a causal timeline (with one user
/// answer interleaved) is logged through a [`SessionStore`], the session is
/// evicted, and recovery is timed — once replaying the whole log from
/// scratch (`snapshot_every: 0`) and once restoring the last snapshot and
/// replaying only the tail. Each rehydrated session is differentially
/// verified against a from-scratch resolve of the decoded log
/// ([`verify_recovery`]), and the run aborts on divergence. Run at setup:
/// the scratch references compile/encode their own programs, which must
/// not count against the compile-once invariant of the measured phase.
fn check_rehydrate(seed: u64, events: usize, reps: usize) -> RehydrateStats {
    let id = SessionId(1);
    let config = ResolutionConfig::default();
    let Scenario { spec, truth } = scenario_from_raw(seed.wrapping_add(23), 6, 4, 60, false);
    let timeline = causal_timeline(
        &spec,
        &CausalTimelineConfig {
            seed: seed.wrapping_mul(131).wrapping_add(7),
            sources: 2,
            events,
            rounds: 3,
            ..Default::default()
        },
    );
    let mut input = UserInput::empty();
    input.values.insert(AttrId(1), truth.get(AttrId(1)).clone());

    let mut stats = RehydrateStats {
        events_logged: 0,
        log_bytes: 0,
        events_replayed: 0,
        snapshots_used: 0,
        checksum_failures: 0,
        corrupt_truncations: 0,
        full_replay_secs: 0.0,
        snapshot_tail_secs: 0.0,
    };
    for snapshot_every in [0usize, 4] {
        let mut store = SessionStore::new(
            MemoryBackend::new(),
            StoreConfig { snapshot_every, ..StoreConfig::default() },
        )
        .expect("store config");
        store.open(id, &spec);
        for (i, (_, ev)) in timeline.iter().enumerate() {
            if i == timeline.len() / 3 {
                store.apply_input(id, &input).expect("log user input");
            }
            store.ingest_causal(id, vec![ev.clone()]).expect("log causal event");
        }

        // Timed evict + rehydrate cycles. The drive above already paid the
        // first-touch rehydration of the empty log, so measure as a delta.
        let t0 = store.recovery();
        let started = Instant::now();
        for _ in 0..reps.max(1) {
            assert!(store.evict(id).expect("evict"), "session must be live before eviction");
            store.session(id).expect("rehydrate");
        }
        let secs = started.elapsed().as_secs_f64() / reps.max(1) as f64;
        let t = store.recovery();

        // The rehydrated session ≡ a from-scratch resolve of the log.
        let bytes = store.backend().read_log(id).expect("read log");
        let (records, _, scan_error) = decode_log(&bytes);
        assert!(scan_error.is_none(), "clean log must scan clean: {scan_error:?}");
        let mut reference = reference_of(&config, RevisionPolicy::Quarantine, &spec, &records);
        verify_recovery(store.session(id).expect("session"), &mut reference)
            .expect("rehydrated session diverged from a scratch replay of its own log");

        stats.events_logged = records.iter().filter(|r| r.is_event()).count() as u64;
        stats.log_bytes = stats.log_bytes.max(bytes.len() as u64);
        stats.events_replayed += t.events_replayed - t0.events_replayed;
        stats.snapshots_used += t.snapshots_used - t0.snapshots_used;
        stats.checksum_failures += t.checksum_failures;
        stats.corrupt_truncations += t.corrupt_truncations;
        if snapshot_every == 0 {
            stats.full_replay_secs = secs;
        } else {
            stats.snapshot_tail_secs = secs;
        }
    }
    stats
}

/// Work-stealing scheduler telemetry plus the engine encoding's memory
/// accounting (explicit zeros: the smoke gates below distinguish a dead
/// steal/batch/split counter from a clean run).
struct SchedStats {
    liveness_entities: usize,
    /// Telemetry of the skewed-placement `resolve_batch` liveness run.
    batch: SchedTelemetry,
    /// Telemetry of the clean (never-saturated) `resolve_stream` run.
    stream: SchedTelemetry,
    /// Telemetry of the non-smoke at-scale stream run, when one ran.
    scale: Option<SchedTelemetry>,
    scale_entities: usize,
    scale_serial_secs: f64,
    scale_stream_secs: f64,
    /// Entities behind the bytes-per-entity sample.
    sample: usize,
    /// Summed `approx_bytes` of the sample's engine encodings.
    lean_bytes: usize,
}

/// Order-insensitive digest of one entity's outcome — summed with
/// wrapping addition so out-of-order stream sinks can be compared
/// against an in-order serial pass.
fn outcome_digest(i: usize, o: &ResolutionOutcome) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    i.hash(&mut h);
    o.valid.hash(&mut h);
    o.complete.hash(&mut h);
    o.interactions.hash(&mut h);
    format!("{:?}", o.resolved).hash(&mut h);
    h.finish()
}

/// Drives the work-stealing scheduler over seeded power-law populations
/// and proves every parallel path outcome-identical to a serial pass.
/// Aborts the bench on any divergence; the liveness gates on the returned
/// telemetry run in `main`. Run at setup: each dataset compiles its one
/// shared program at construction.
fn check_sched(seed: u64, smoke: bool, threads: usize, scale_entities: usize) -> SchedStats {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    let workers = threads.clamp(2, 8);
    let resolver = Resolver::new(ResolutionConfig::default());

    // Liveness population: heavy-tailed with one giant pinned to
    // `max_tuples`, large enough that skewed placement forces real steals
    // even when the workers share a single core.
    let liveness = PowerLawDataset::new(&PowerLawConfig {
        seed: seed ^ 0x5EED,
        entities: 160,
        max_tuples: 48,
        giants: 1,
        ..Default::default()
    });
    let specs = liveness.specs();
    let serial: Vec<ResolutionOutcome> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| resolver.resolve(s, &mut GroundTruthOracle::with_cap(liveness.truth(i), 1)))
        .collect();

    // Adversarial placement: every task starts on shard 0, so workers
    // 1..N live entirely off steals — nonzero `steals` proves the steal
    // path is alive, not just reachable. The giant (48 tuples) clears
    // `split_tuple_threshold`, so its Ω instantiation must split.
    let skewed = SchedulerConfig {
        placement: Placement::Skewed,
        large_tuple_threshold: 24,
        split_tuple_threshold: 40,
        ..SchedulerConfig::with_workers(workers)
    };
    let (outcomes, batch) = resolve_batch(
        &resolver,
        &specs,
        &|i| GroundTruthOracle::with_cap(liveness.truth(i), 1),
        &skewed,
    );
    for (i, (s, p)) in serial.iter().zip(&outcomes).enumerate() {
        assert_eq!(s.valid, p.valid, "sched: validity diverged on entity {i}");
        assert_eq!(s.resolved, p.resolved, "sched: skewed batch diverged from serial on entity {i}");
        assert_eq!(s.interactions, p.interactions, "sched: interactions diverged on entity {i}");
    }

    // Clean stream: queue capacity above the entity count, so the
    // producer can never block — a backpressure stall recorded here is a
    // false positive (gated in `main`). Outcomes arrive out of order;
    // the wrapping digest proves the set ≡ serial.
    let clean =
        SchedulerConfig { queue_cap: specs.len() + 1, ..SchedulerConfig::with_workers(workers) };
    let serial_digest = serial
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, o)| acc.wrapping_add(outcome_digest(i, o)));
    let digest = AtomicU64::new(0);
    let drained = AtomicUsize::new(0);
    let stream = resolve_stream(
        &resolver,
        liveness.stream(),
        &|i| GroundTruthOracle::with_cap(liveness.truth(i), 1),
        &clean,
        &|i, o| {
            digest.fetch_add(outcome_digest(i, &o), Ordering::Relaxed);
            drained.fetch_add(1, Ordering::Relaxed);
        },
    );
    assert_eq!(drained.into_inner(), specs.len(), "sched: stream dropped entities");
    assert_eq!(
        digest.into_inner(),
        serial_digest,
        "sched: stream outcomes diverged from serial"
    );

    // Memory accounting: the encoding keeps no Ω(Se) list beside its
    // clauses (suggestion rules are scanned from the clause arena —
    // `cr-core/tests/omega_free_rules.rs`).
    let sample = specs.len().min(12);
    let lean_bytes: usize = specs
        .iter()
        .take(sample)
        .map(|spec| EncodedSpec::encode_with(spec, EncodeOptions::lazy()).approx_bytes())
        .sum();

    // At-scale run (non-smoke): a `--sched-entities` power-law population
    // resolved serially and through the default bounded queue, compared
    // by digest. The default `queue_cap` keeps the in-flight window (and
    // so producer memory) bounded regardless of the population size.
    let mut scale = None;
    let (mut scale_serial_secs, mut scale_stream_secs) = (0.0, 0.0);
    if !smoke && scale_entities > 0 {
        let ds = PowerLawDataset::new(&PowerLawConfig {
            seed: seed ^ 0xCA1E,
            entities: scale_entities,
            max_tuples: 64,
            giants: 2,
            ..Default::default()
        });
        let t = Instant::now();
        let mut serial_digest = 0u64;
        for i in 0..ds.len() {
            let o = resolver
                .resolve(&ds.spec(i), &mut GroundTruthOracle::with_cap(ds.truth(i), 1));
            serial_digest = serial_digest.wrapping_add(outcome_digest(i, &o));
        }
        scale_serial_secs = t.elapsed().as_secs_f64();
        let digest = AtomicU64::new(0);
        let drained = AtomicUsize::new(0);
        let config = SchedulerConfig::with_workers(workers);
        let t = Instant::now();
        let telemetry = resolve_stream(
            &resolver,
            ds.stream(),
            &|i| GroundTruthOracle::with_cap(ds.truth(i), 1),
            &config,
            &|i, o| {
                digest.fetch_add(outcome_digest(i, &o), Ordering::Relaxed);
                drained.fetch_add(1, Ordering::Relaxed);
            },
        );
        scale_stream_secs = t.elapsed().as_secs_f64();
        assert_eq!(drained.into_inner(), ds.len(), "sched: at-scale stream dropped entities");
        assert_eq!(
            digest.into_inner(),
            serial_digest,
            "sched: at-scale stream outcomes diverged from serial"
        );
        scale = Some(telemetry);
    }

    SchedStats {
        liveness_entities: specs.len(),
        batch,
        stream,
        scale,
        scale_entities: if smoke { 0 } else { scale_entities },
        scale_serial_secs,
        scale_stream_secs,
        sample,
        lean_bytes,
    }
}

/// The `p`-th percentile of an ascending latency sample (nearest-rank).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// One serving-layer fleet run plus its wall time.
struct ServeRun {
    report: FleetReport,
    secs: f64,
}

/// Drives the serving layer with the simulated client fleet twice — over a
/// clean wire, then over the fully hostile wire with clients folded onto
/// two tenants against a tight admission budget (so load-shedding
/// genuinely occurs). Both runs self-verify the exactly-once and
/// canonical-replay differentials (`run_fleet` aborts the bench on any
/// violation). Run at setup: the fleet's scenario compiles its own
/// program, which must not count against the compile-once invariant of
/// the measured phase.
fn check_serve(seed: u64, smoke: bool) -> (ServeRun, ServeRun) {
    let run = |label: &str, cfg: &FleetConfig| {
        let t = Instant::now();
        let report = run_fleet(cfg).unwrap_or_else(|e| {
            eprintln!("  serve: {label} fleet violated the serving contract: {e}");
            std::process::exit(1);
        });
        ServeRun { report, secs: t.elapsed().as_secs_f64() }
    };
    let clean_cfg = FleetConfig {
        seed,
        clients: if smoke { 4 } else { 6 },
        causal_events: if smoke { 10 } else { 24 },
        inputs_per_client: if smoke { 3 } else { 5 },
        reads_per_client: if smoke { 4 } else { 8 },
        ..FleetConfig::default()
    };
    let clean = run("clean-wire", &clean_cfg);
    let faulty_cfg = FleetConfig {
        clients: if smoke { 6 } else { 8 },
        tenants: 2,
        faults: ChannelFaults::faulty(),
        max_attempts: 40,
        max_ticks: 30_000,
        admission: AdmissionConfig {
            refill_per_tick: 1,
            burst: 3,
            queue_cap: 3,
            max_in_flight: 4,
            ..AdmissionConfig::default()
        },
        ..clean_cfg
    };
    let faulty = run("faulty-wire", &faulty_cfg);
    (clean, faulty)
}

fn main() {
    let entities = arg_entities(10);
    let seed = arg_seed(7);
    let rounds: usize = arg_value("rounds").and_then(|v| v.parse().ok()).unwrap_or(10);
    let reps: usize = arg_value("reps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);
    let frac: f64 = arg_value("frac").and_then(|v| v.parse().ok()).unwrap_or(0.6);
    let threads: usize = arg_value("threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1);
    let sched_entities: usize = arg_value("sched-entities")
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let smoke = arg_flag("smoke");
    let out = arg_value("out").unwrap_or_else(|| "BENCH_10.json".to_string());

    // Entity sizes follow the seed's Fig. 8(a) bins: NBA up to 135 tuples,
    // Person at 1/10 paper scale up to 200.
    let nba_sizes: Vec<usize> = (0..entities).map(|i| 27 + (i * 108) / entities.max(1)).collect();
    let person_sizes: Vec<usize> =
        (0..entities).map(|i| 100 + (i * 150) / entities.max(1)).collect();

    let subsample =
        |spec: &Specification| spec.with_constraint_fraction(frac, frac, seed.wrapping_add(11));
    let workloads = [
        {
            // Both vjday entities share Fig. 3's Σ/Γ: one program.
            let w = Workload {
                label: "vjday",
                specs: vec![vjday::edith_spec(), vjday::george_spec()],
                truths: vec![vjday::edith_truth(), vjday::george_truth()],
            };
            share_workload_program(&w.specs, None);
            w
        },
        {
            // Subsampling clears the dataset-stamped program (Σ/Γ change),
            // so the identical subsets get one shared recompile against the
            // dataset's value table.
            let ds = nba::generate_with_sizes(&nba_sizes, seed);
            let w = Workload {
                label: "nba",
                truths: (0..ds.len()).map(|i| ds.truth(i).clone()).collect(),
                specs: (0..ds.len()).map(|i| subsample(&ds.spec(i))).collect(),
            };
            share_workload_program(&w.specs, ds.value_table().map(|t| t.as_ref()));
            w
        },
        {
            let ds = person::generate_with_sizes(&person_sizes, seed);
            let w = Workload {
                label: "person",
                truths: (0..ds.len()).map(|i| ds.truth(i).clone()).collect(),
                specs: (0..ds.len()).map(|i| subsample(&ds.spec(i))).collect(),
            };
            share_workload_program(&w.specs, ds.value_table().map(|t| t.as_ref()));
            w
        },
        {
            let ds = quick::career(entities.min(65), seed);
            Workload {
                label: "career",
                truths: (0..ds.len()).map(|i| ds.truth(i).clone()).collect(),
                specs: (0..ds.len()).map(|i| ds.spec(i)).collect(),
            }
        },
        // Wide realised value spaces: the regime where transitivity clause
        // generation dominated round-0 encode (ROADMAP "Remaining perf
        // ideas", PR 2 profiling).
        {
            let n = if smoke { 2 } else { entities.clamp(2, 6) };
            let scenarios: Vec<_> = (0..n)
                .map(|i| {
                    cr_data::gen::scenario(&ScenarioConfig {
                        seed: seed.wrapping_add(i as u64),
                        attrs: 5,
                        tuples: if smoke { 24 } else { 60 },
                        domain: if smoke { 20 } else { 48 },
                        conflict_density: 1.0,
                        null_density: 0.02,
                        sigma: 8,
                        gamma: 3,
                        order_density: 0.1,
                        new_value_answers: i % 2 == 1,
                    })
                })
                .collect();
            Workload {
                label: "wide",
                truths: scenarios.iter().map(|s| s.truth.clone()).collect(),
                specs: scenarios.into_iter().map(|s| s.spec).collect(),
            }
        },
        retraction_workload(entities.clamp(2, 8)),
    ];

    // Push-based ingestion workload: built AND differentially verified at
    // setup (the replay-vs-scratch checker encodes post-revision mirror
    // specifications from scratch, which compiles their programs — that
    // must not count against the compile-once invariant of the measured
    // phase below).
    let ingest = ingest_workload(entities.clamp(2, 8));
    let ingest_stats = check_ingest(&ingest, rounds);

    // Batched-vs-sequential differential at the requested thread width:
    // run at setup for the same compile-once reason (the scratch mirrors
    // compile their own programs).
    let batch_stats = check_ingest_batch(&ingest, threads);

    // Causally-stamped chaos workload: all four delivery regimes are
    // resolved AND cross-checked here at setup, for the same reason —
    // `resolve_causal_checked`'s scratch mirrors compile their own
    // programs, which must not count against the measured phase.
    let chaos_w = chaos_workload(entities.clamp(2, 6));
    let chaos_stats = check_chaos(&chaos_w, rounds, seed);

    // Durable-session rehydration workload: verified AND timed at setup
    // (the scratch references compile their own programs — see
    // `check_rehydrate`).
    let rehydrate =
        check_rehydrate(seed, if smoke { 8 } else { 40 }, if smoke { 1 } else { reps });

    // Serving-layer fleet workload: self-verified AND timed at setup (the
    // fleet's scenario compiles its own program — see `check_serve`).
    let (serve_clean, serve_faulty) = check_serve(seed, smoke);

    // Work-stealing scheduler + encoding bytes per entity: agreement proven AND
    // timed at setup (each power-law dataset compiles its one shared
    // program at construction — see `check_sched`).
    let sched_stats = check_sched(seed, smoke, threads, sched_entities);

    // Career specs were stamped by `Dataset::spec`, wide scenarios by
    // `cr_data::gen` — every workload's program now exists. From here on,
    // nothing may compile: resolutions and encode measurements only
    // *project* entities through the per-dataset programs.
    let compiles_at_setup = compile_count();

    let mut report = BenchReport::new("compiled-program-engine");
    report.context("entities_per_dataset", entities);
    report.context("seed", seed);
    report.context("max_rounds", rounds);
    report.context("reps", reps);
    report.context("threads", threads);
    report.context("programs_compiled_at_setup", compiles_at_setup);

    let mut total_scratch = 0.0;
    let mut total_lazy = 0.0;
    let mut lazy_injection_seen = false;
    let mut retraction_replays_seen = 0;
    for w in &workloads {
        let (injected, retraction) = check_agreement(w, rounds);
        lazy_injection_seen |= injected > 0;
        retraction_replays_seen += retraction.replays;
        report.context(format!("injected_axioms/{}", w.label), injected);
        report.context(format!("retraction/{}/replays", w.label), retraction.replays);
        report.context(format!("retraction/{}/invalidated", w.label), retraction.invalidated);
        report.context(format!("retraction/{}/full_resets", w.label), retraction.full_resets);
        let per_round = if retraction.rounds_with_retraction > 0 {
            retraction.invalidated as f64 / retraction.rounds_with_retraction as f64
        } else {
            0.0
        };
        report.context(
            format!("retraction/{}/invalidated_per_round", w.label),
            format!("{per_round:.2}"),
        );
        println!(
            "{:>8}: injected axioms {injected}, retraction replays {} ({} literals invalidated, {:.2}/round, {} full resets)",
            w.label, retraction.replays, retraction.invalidated, per_round,
            retraction.full_resets,
        );
        // Uniform revision telemetry: interactive workloads have no
        // revision stream, so the explicit zero distinguishes "nothing
        // scheduled" from a dead counter on the ingest workload below.
        report.context(format!("revisions/{}/events", w.label), 0);
        report.context(format!("revisions/{}/invalidated", w.label), 0);
        println!(
            "{:>8}: revisions 0 events, 0 cone literals (no revision stream scheduled)",
            w.label
        );

        let enc = encode_stats(w, if smoke { 1 } else { reps });
        report.context(format!("encode_clauses/{}/eager", w.label), enc.eager_clauses);
        report.context(format!("encode_clauses/{}/lazy", w.label), enc.lazy_clauses);
        report.measure(format!("encode_round0/{}/eager", w.label), enc.eager_secs);
        report.measure(format!("encode_round0/{}/lazy", w.label), enc.lazy_secs);
        println!(
            "{:>8}: round-0 clauses eager {} -> lazy {} ({:.1}x fewer), encode {:.4}s -> {:.4}s",
            w.label,
            enc.eager_clauses,
            enc.lazy_clauses,
            enc.eager_clauses as f64 / enc.lazy_clauses.max(1) as f64,
            enc.eager_secs,
            enc.lazy_secs,
        );
        if smoke {
            // Exercise the parallel fan-out at the requested width so the
            // multi-thread path cannot rot silently in CI.
            check_parallel(w, rounds, threads);
            continue;
        }

        let scratch = time_serial(w, false, rounds, reps);
        let lazy = time_serial(w, true, rounds, reps);
        let parallel = time_parallel(w, rounds, reps, threads);
        total_scratch += scratch;
        total_lazy += lazy;
        report.measure(format!("end_to_end/{}/scratch_lazy", w.label), scratch);
        report.measure(format!("end_to_end/{}/incremental", w.label), lazy);
        report.measure(format!("end_to_end/{}/incremental_parallel", w.label), parallel);
        println!(
            "{:>8}: scratch(lazy) {:>8.4}s  incremental {:>8.4}s  ({:.2}x vs scratch)  parallel {:>8.4}s",
            w.label,
            scratch,
            lazy,
            scratch / lazy,
            parallel,
        );
    }
    // Push-based ingestion: replay-vs-scratch was verified at setup
    // (`check_ingest` aborts on divergence); report its telemetry and time
    // the unchecked production path (`resolve_with_revisions`).
    let ingest_secs = time_ingest(&ingest, rounds, if smoke { 1 } else { reps });
    report.context("revisions/ingest/events", ingest_stats.events);
    report.context("revisions/ingest/retracted_groups", ingest_stats.retracted_groups);
    report.context("revisions/ingest/invalidated", ingest_stats.invalidated);
    report.context("revisions/ingest/reemitted_clauses", ingest_stats.reemitted_clauses);
    println!(
        "{:>8}: revisions {} events, {} groups retracted, {} cone literals, {} clauses re-emitted (replay ≡ scratch verified)",
        "ingest",
        ingest_stats.events,
        ingest_stats.retracted_groups,
        ingest_stats.invalidated,
        ingest_stats.reemitted_clauses,
    );
    if !smoke {
        report.measure("end_to_end/ingest/incremental_revisions", ingest_secs);
        println!(
            "{:>8}: revision-streamed end-to-end {ingest_secs:.4}s (lazy incremental)",
            "ingest",
        );
    }

    // Batched ingestion: divergence and cone gates already enforced inside
    // `check_ingest_batch` (it aborts); report the coalescing telemetry and
    // the per-event vs batched cost.
    report.context("revisions/ingest-batch/batches", batch_stats.batches);
    report.context("revisions/ingest-batch/events", batch_stats.events);
    report.context("revisions/ingest-batch/events_coalesced", batch_stats.coalesced);
    report.context("revisions/ingest-batch/cone_union", batch_stats.cone_union);
    report.context("revisions/ingest-batch/max_member_cone", batch_stats.max_member_cone);
    report.context("revisions/ingest-batch/replays_saved", batch_stats.replays_saved);
    println!(
        "{:>8}: {} batches / {} events, {} coalesced, union cones {} (members max {}), {} replays saved (batched ≡ sequential ≡ scratch verified, {} threads)",
        "in-batch",
        batch_stats.batches,
        batch_stats.events,
        batch_stats.coalesced,
        batch_stats.cone_union,
        batch_stats.max_member_cone,
        batch_stats.replays_saved,
        threads,
    );
    if !smoke {
        let (per_event_secs, batched_secs) = time_ingest_batch(&ingest, reps);
        report.measure("end_to_end/ingest-batch/per_event", per_event_secs);
        report.measure("end_to_end/ingest-batch/batched", batched_secs);
        println!(
            "{:>8}: per-event {per_event_secs:.4}s -> batched {batched_secs:.4}s ({:.2}x)",
            "in-batch",
            per_event_secs / batched_secs.max(1e-9),
        );
    }

    // Causal chaos workload: telemetry with explicit zeros, convergence
    // already enforced by `check_chaos` (it aborts on divergence).
    report.context("revisions/ingest-chaos/applied", chaos_stats.applied);
    report.context(
        "revisions/ingest-chaos/duplicates_dropped",
        chaos_stats.duplicates_dropped,
    );
    report.context("revisions/ingest-chaos/buffered", chaos_stats.buffered);
    report.context("revisions/ingest-chaos/quarantined", chaos_stats.quarantined);
    report.context("revisions/ingest-chaos/reopened", chaos_stats.reopened);
    println!(
        "{:>8}: {} applied, {} duplicates dropped, {} buffered, {} quarantined, {} re-opened (4-way convergence verified)",
        "in-chaos",
        chaos_stats.applied,
        chaos_stats.duplicates_dropped,
        chaos_stats.buffered,
        chaos_stats.quarantined,
        chaos_stats.reopened,
    );
    if !smoke {
        report.measure("end_to_end/ingest-chaos/causal_checked", chaos_stats.secs);
    }

    // Durable-session rehydration: telemetry always, timings outside smoke.
    report.context("rehydrate/events_logged", rehydrate.events_logged);
    report.context("rehydrate/log_bytes", rehydrate.log_bytes);
    report.context("rehydrate/events_replayed", rehydrate.events_replayed);
    report.context("rehydrate/snapshots_used", rehydrate.snapshots_used);
    report.context("rehydrate/checksum_failures", rehydrate.checksum_failures);
    report.context("rehydrate/corrupt_truncations", rehydrate.corrupt_truncations);
    println!(
        "{:>8}: {} events logged ({} bytes), {} replayed across recoveries, {} snapshot restores (rehydrate ≡ scratch verified)",
        "rehydr8",
        rehydrate.events_logged,
        rehydrate.log_bytes,
        rehydrate.events_replayed,
        rehydrate.snapshots_used,
    );
    if !smoke {
        report.measure("rehydrate/full_replay", rehydrate.full_replay_secs);
        report.measure("rehydrate/snapshot_tail", rehydrate.snapshot_tail_secs);
        println!(
            "{:>8}: full replay {:.4}s -> snapshot+tail {:.4}s per recovery ({:.2}x)",
            "rehydr8",
            rehydrate.full_replay_secs,
            rehydrate.snapshot_tail_secs,
            rehydrate.full_replay_secs / rehydrate.snapshot_tail_secs.max(1e-9),
        );
    }

    // Serving layer: throughput and latency percentiles per wire, plus the
    // admission/retry telemetry the gates below inspect. The differentials
    // (exactly-once, canonical replay) already ran inside `check_serve`.
    for (wire, run) in [("clean", &serve_clean), ("faulty", &serve_faulty)] {
        let r = &run.report;
        let mut lat = r.latencies.clone();
        lat.sort_unstable();
        let (p50, p95, p99) =
            (percentile(&lat, 50.0), percentile(&lat, 95.0), percentile(&lat, 99.0));
        report.context(format!("serve/{wire}/ops"), r.ops);
        report.context(format!("serve/{wire}/ticks"), r.ticks);
        report.context(format!("serve/{wire}/retries"), r.retries);
        report.context(format!("serve/{wire}/shed"), r.serve.shed_rate + r.serve.shed_queue);
        report.context(format!("serve/{wire}/idem_replays"), r.serve.idem_hits);
        report.context(format!("serve/{wire}/disconnects"), r.disconnects);
        report.context(format!("serve/{wire}/latency_ticks_p50"), p50);
        report.context(format!("serve/{wire}/latency_ticks_p95"), p95);
        report.context(format!("serve/{wire}/latency_ticks_p99"), p99);
        if !smoke {
            report.measure(format!("serve/{wire}/wall"), run.secs);
            report.context(
                format!("serve/{wire}/ops_per_sec"),
                format!("{:.0}", r.ops as f64 / run.secs.max(1e-9)),
            );
        }
        println!(
            "{:>8}: {wire} wire {} ops / {} ticks ({:.3} ops/tick), latency p50/p95/p99 \
             {p50}/{p95}/{p99} ticks, {} retries, {} shed, {} idempotent replays",
            "serve",
            r.ops,
            r.ticks,
            r.ops as f64 / r.ticks.max(1) as f64,
            r.retries,
            r.serve.shed_rate + r.serve.shed_queue,
            r.serve.idem_hits,
        );
    }

    // Work-stealing scheduler: serial ≡ parallel was asserted inside
    // `check_sched` (it aborts on divergence); report the telemetry and
    // the encoding bytes per entity, then gate on liveness below.
    let sb = &sched_stats.batch;
    report.context("sched/entities", sched_stats.liveness_entities);
    report.context("sched/workers", sb.workers);
    report.context("sched/tasks", sb.tasks);
    report.context("sched/steals", sb.steals);
    report.context("sched/batch_tasks", sb.batch_tasks);
    report.context("sched/batched_entities", sb.batched_entities);
    report.context("sched/max_batch", sb.max_batch);
    report.context("sched/split_entities", sb.split_entities);
    report.context("sched/split_subtasks", sb.split_subtasks);
    report.context("sched/scratch_reuses", sb.scratch_reuses);
    report.context("sched/stream/queue_high_water", sched_stats.stream.queue_high_water);
    report.context("sched/stream/backpressure_stalls", sched_stats.stream.backpressure_stalls);
    println!(
        "{:>8}: {} entities / {} workers: {} tasks ({} steals), {} batches fusing {} entities (max {}), {} split into {} subtasks, {} scratch reuses (skewed batch ≡ serial verified)",
        "sched",
        sched_stats.liveness_entities,
        sb.workers,
        sb.tasks,
        sb.steals,
        sb.batch_tasks,
        sb.batched_entities,
        sb.max_batch,
        sb.split_entities,
        sb.split_subtasks,
        sb.scratch_reuses,
    );
    println!(
        "{:>8}: clean stream high-water {} / cap {}, {} backpressure stalls (stream ≡ serial verified)",
        "sched",
        sched_stats.stream.queue_high_water,
        sched_stats.liveness_entities + 1,
        sched_stats.stream.backpressure_stalls,
    );
    let bytes_per_entity = sched_stats.lean_bytes / sched_stats.sample.max(1);
    report.context("sched/bytes_per_entity/omega_free", bytes_per_entity);
    println!(
        "{:>8}: engine encoding over {} sampled entities: {} B/entity",
        "sched", sched_stats.sample, bytes_per_entity,
    );
    if let Some(st) = &sched_stats.scale {
        report.context("sched/scale/entities", sched_stats.scale_entities);
        report.context("sched/scale/tasks", st.tasks);
        report.context("sched/scale/steals", st.steals);
        report.context("sched/scale/queue_high_water", st.queue_high_water);
        report.context("sched/scale/backpressure_stalls", st.backpressure_stalls);
        report.measure("end_to_end/sched/serial", sched_stats.scale_serial_secs);
        report.measure("end_to_end/sched/stream", sched_stats.scale_stream_secs);
        println!(
            "{:>8}: {} entities at scale: serial {:.2}s, streamed {:.2}s ({} tasks, {} steals, queue high-water {}, {} stalls; digest ≡ serial)",
            "sched",
            sched_stats.scale_entities,
            sched_stats.scale_serial_secs,
            sched_stats.scale_stream_secs,
            st.tasks,
            st.steals,
            st.queue_high_water,
            st.backpressure_stalls,
        );
    }

    if !smoke {
        let speedup = total_scratch / total_lazy;
        report.measure("end_to_end/total/scratch_lazy", total_scratch);
        report.measure("end_to_end/total/incremental", total_lazy);
        report.context("speedup_lazy_vs_scratch", format!("{speedup:.2}"));
        println!("overall: incremental {speedup:.2}x vs scratch (lazy)");
        report.write(&out).expect("write bench report");
        println!("wrote {out}");
    }
    if !lazy_injection_seen {
        eprintln!("FAIL: lazy path recorded no injected axioms on any workload (telemetry dead?)");
        std::process::exit(1);
    }
    // Compile-once invariant: every program was compiled during workload
    // setup; resolving entities (any path, any round count) and measuring
    // encodes must never trigger another compilation.
    let late_compiles = compile_count() - compiles_at_setup;
    if late_compiles != 0 {
        eprintln!(
            "FAIL: {late_compiles} constraint program(s) compiled during              resolution (expected 0 — compile-once-per-dataset violated)"
        );
        std::process::exit(1);
    }
    // The wide workload's new-value answers retract CFD groups: the
    // provenance replay telemetry must be alive.
    if retraction_replays_seen == 0 {
        eprintln!("FAIL: no retraction replays recorded on any workload (telemetry dead?)");
        std::process::exit(1);
    }
    // The ingest workload's corrections withdraw *fired* CFDs and
    // load-bearing orders: its retraction cones must be non-empty — the
    // end-to-end proof that provenance-scoped partial invalidation runs on
    // a live path, not just at the cr-sat unit level.
    if ingest_stats.invalidated == 0 {
        eprintln!(
            "FAIL: ingest workload invalidated no literals (revision cones empty — telemetry dead or events missed their derivations)"
        );
        std::process::exit(1);
    }
    if ingest_stats.events == 0 {
        eprintln!("FAIL: ingest workload applied no revision events");
        std::process::exit(1);
    }
    // Coalescing gates: the batched path must actually merge multi-event
    // rounds into single replays (its divergence and per-batch cone gates
    // already ran inside `check_ingest_batch`).
    if batch_stats.coalesced == 0 {
        eprintln!(
            "FAIL: ingest-batch coalesced no events (batched ingestion never merged a multi-event round)"
        );
        std::process::exit(1);
    }
    if batch_stats.cone_union < batch_stats.max_member_cone {
        eprintln!(
            "FAIL: ingest-batch union cones {} smaller than member cones {}",
            batch_stats.cone_union, batch_stats.max_member_cone
        );
        std::process::exit(1);
    }
    // Causal-stream gates: the chaos workload must actually exercise the
    // re-open, dedup and buffering paths, and its clean streams must never
    // quarantine anything.
    if chaos_stats.reopened == 0 {
        eprintln!("FAIL: ingest-chaos re-opened no attributes (concurrent-correction path dead)");
        std::process::exit(1);
    }
    if chaos_stats.duplicates_dropped == 0 {
        eprintln!("FAIL: ingest-chaos dropped no duplicates (frontier dedup path dead)");
        std::process::exit(1);
    }
    if chaos_stats.buffered == 0 {
        eprintln!("FAIL: ingest-chaos buffered no events (causal gating path dead)");
        std::process::exit(1);
    }
    if chaos_stats.quarantined != 0 {
        eprintln!(
            "FAIL: ingest-chaos quarantined {} events on clean streams (expected 0)",
            chaos_stats.quarantined
        );
        std::process::exit(1);
    }
    // Serving gates: the clean-wire fleet must converge without a single
    // retry, and the hostile-wire fleet must actually exercise admission
    // control and the retry loop — zero shed or zero retries means the
    // fault injection (or its telemetry) is dead.
    if serve_clean.report.retries != 0 {
        eprintln!(
            "FAIL: clean-wire serve workload retried {} times (expected 0)",
            serve_clean.report.retries
        );
        std::process::exit(1);
    }
    if serve_faulty.report.serve.shed_rate + serve_faulty.report.serve.shed_queue == 0 {
        eprintln!("FAIL: faulty serve workload shed nothing (admission control dead?)");
        std::process::exit(1);
    }
    if serve_faulty.report.retries == 0 {
        eprintln!("FAIL: faulty serve workload needed no retries (fault injection dead?)");
        std::process::exit(1);
    }
    // Scheduler gates: under skewed placement the non-owner workers live
    // entirely off steals, small entities must fuse into batch tasks, the
    // pinned giant must split, and the clean stream (queue capacity above
    // the entity count) must never record a backpressure stall.
    if sched_stats.batch.steals == 0 {
        eprintln!("FAIL: sched recorded no steals under skewed placement (steal path dead)");
        std::process::exit(1);
    }
    if sched_stats.batch.batch_tasks == 0 {
        eprintln!("FAIL: sched fused no small-entity batches (batching path dead)");
        std::process::exit(1);
    }
    if sched_stats.batch.split_entities == 0 {
        eprintln!("FAIL: sched split no giant entities (Ω-split path dead)");
        std::process::exit(1);
    }
    if sched_stats.stream.backpressure_stalls != 0 {
        eprintln!(
            "FAIL: clean stream recorded {} backpressure stalls (expected 0 — the queue was never full)",
            sched_stats.stream.backpressure_stalls
        );
        std::process::exit(1);
    }
    // Durability gates: recovery must actually replay the log, and a clean
    // log must never report corruption.
    if rehydrate.events_replayed == 0 {
        eprintln!("FAIL: rehydrate workload replayed no events (recovery path dead)");
        std::process::exit(1);
    }
    if rehydrate.checksum_failures != 0 || rehydrate.corrupt_truncations != 0 {
        eprintln!(
            "FAIL: rehydrate workload reported corruption on a clean log ({} checksum failures, {} truncations)",
            rehydrate.checksum_failures, rehydrate.corrupt_truncations
        );
        std::process::exit(1);
    }
    println!(
        "compile-once OK ({compiles_at_setup} programs at setup, 0 during resolution);          retraction replays {retraction_replays_seen}, revision cone literals {}",
        ingest_stats.invalidated
    );
}
