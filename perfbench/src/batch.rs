//! `batch`: a dataset-wide cleaning job. A seeded sample of a power-law
//! population is pre-materialised and streamed through
//! `cr_core::sched::resolve_stream` at two workers with the default
//! scheduler configuration; every entity is answered by a ground-truth user
//! capped at one attribute per round. The population (and so its Σ/Γ and
//! compiled program) is fixed; the seed picks which entities are cleaned,
//! so runs under different seeds measure the same constraint program.
//!
//! The benchmark sees the job from outside: the entity iterator it hands
//! the scheduler, the per-entity oracle (`make_oracle`), each answer the
//! oracle gives, and the sink. From those it measures, per entity: the
//! job's time on it (`make_oracle` → result) as `read`, the producer's
//! hand-off (push, including backpressure stalls) as `write`,
//! `make_oracle` → first suggestion or result as `first_response`, and
//! answer → next suggestion or result as `round`. Submit → result is not
//! reported: behind a full bounded queue it is `queue_cap` ÷ throughput,
//! which `entities_per_s` already says.
//!
//! The traced half of a traced run re-drives a seeded sample through the
//! session API (`crate::drive`) so the engine layers show; the scheduler
//! layer comes from the streamed passes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use cr_core::framework::{GroundTruthOracle, ResolutionConfig, Resolver, UserOracle};
use cr_core::sched::{resolve_stream, SchedTelemetry, SchedulerConfig};
use cr_core::spec::UserInput;
use cr_core::suggest::Suggestion;
use cr_core::Specification;
use cr_data::gen::{PowerLawConfig, PowerLawDataset};
use cr_types::{Schema, Tuple};

use crate::drive::{drive, scratch_config, set_engine_layers, Counts, Decided, Latencies};
use crate::stats::{median, Samples};
use crate::{pick, run_passes, set_user_metrics, Options, PassResult, Report, Scale};

/// Shard workers (the container's `nproc`).
pub const WORKERS: usize = 2;

/// Seed of the fixed population the runs sample from.
const POPULATION_SEED: u64 = 0x00C0_FFEE;

struct Sizes {
    /// Entities in the fixed population.
    population: usize,
    /// Entities cleaned per pass.
    entities: usize,
    /// Entities re-driven through the session API in the traced half.
    traced_sample: usize,
    /// Entities checked against the from-scratch loop.
    scratch_sample: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            population: 100_000,
            entities: 16_000,
            traced_sample: 2_000,
            scratch_sample: 48,
        },
        Scale::Small => Sizes {
            population: 2_000,
            entities: 400,
            traced_sample: 60,
            scratch_sample: 8,
        },
    }
}

fn dataset_config(population: usize) -> PowerLawConfig {
    PowerLawConfig {
        seed: POPULATION_SEED,
        entities: population,
        max_tuples: 64,
        ..PowerLawConfig::default()
    }
}

/// Per-entity timestamps (ns since the pass origin, 0 = not yet) and the
/// user-visible waits of one streamed pass.
struct Clocks {
    origin: Instant,
    start: Vec<AtomicU64>,
    answered: Vec<AtomicU64>,
    end: Vec<AtomicU64>,
    first_response: Mutex<Samples>,
    round: Mutex<Samples>,
    outcomes: Vec<OnceLock<Decided>>,
}

impl Clocks {
    fn new(n: usize) -> Self {
        let zeros = || (0..n).map(|_| AtomicU64::new(0)).collect();
        Clocks {
            origin: Instant::now(),
            start: zeros(),
            answered: zeros(),
            end: zeros(),
            first_response: Mutex::new(Samples::default()),
            round: Mutex::new(Samples::default()),
            outcomes: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64 + 1
    }

    /// Closes the wait in progress for entity `i` at `now`.
    fn settle(&self, i: usize, now: u64) {
        let answered = self.answered[i].load(Ordering::Relaxed);
        let (samples, since) = if answered == 0 {
            (&self.first_response, self.start[i].load(Ordering::Relaxed))
        } else {
            (&self.round, answered)
        };
        samples
            .lock()
            .expect("sample lock")
            .push_ms((now - since) as f64 / 1e6);
    }
}

/// The ground-truth user, timing every suggestion it receives.
struct TimedOracle<'a> {
    inner: GroundTruthOracle,
    i: usize,
    clocks: &'a Clocks,
}

impl UserOracle for TimedOracle<'_> {
    fn provide(&mut self, schema: &Schema, suggestion: &Suggestion) -> UserInput {
        self.clocks.settle(self.i, self.clocks.now());
        let input = self.inner.provide(schema, suggestion);
        self.clocks.answered[self.i].store(self.clocks.now(), Ordering::Relaxed);
        input
    }
}

/// The producer side: hands the scheduler pre-materialised entities and
/// stamps each hand-off (`yields[i]` is when entity `i` was yielded, which
/// is also when the push of entity `i - 1` returned).
struct Feed<'a> {
    specs: std::vec::IntoIter<Specification>,
    clocks: &'a Clocks,
    yields: Vec<u64>,
}

impl Iterator for Feed<'_> {
    type Item = Specification;

    fn next(&mut self) -> Option<Specification> {
        self.yields.push(self.clocks.now());
        self.specs.next()
    }
}

/// One streamed pass over the whole population.
struct Pass {
    wall_s: f64,
    /// `read` is the per-entity service time (`make_oracle` → sink).
    lat: Latencies,
    queue_wait: Samples,
    service_ns: u64,
    telemetry: SchedTelemetry,
    outcomes: Vec<Option<Decided>>,
}

fn stream_pass(
    resolver: &Resolver,
    sched: &SchedulerConfig,
    specs: Vec<Specification>,
    truths: &[Tuple],
) -> Pass {
    let n = specs.len();
    let clocks = Clocks::new(n);
    let mut feed = Feed {
        specs: specs.into_iter(),
        clocks: &clocks,
        yields: Vec::with_capacity(n + 1),
    };
    let began = Instant::now();
    let telemetry = resolve_stream(
        resolver,
        &mut feed,
        &|i| {
            clocks.start[i].store(clocks.now(), Ordering::Relaxed);
            TimedOracle {
                inner: GroundTruthOracle::with_cap(truths[i].clone(), 1),
                i,
                clocks: &clocks,
            }
        },
        sched,
        &|i, outcome| {
            let now = clocks.now();
            clocks.settle(i, now);
            clocks.end[i].store(now, Ordering::Relaxed);
            let _ = clocks.outcomes[i].set(Decided::of(&outcome));
        },
    );
    let wall_s = began.elapsed().as_secs_f64();

    let yields = feed.yields;
    let ms = |a: u64, b: u64| b.saturating_sub(a) as f64 / 1e6;
    let mut lat = Latencies::default();
    let mut queue_wait = Samples::default();
    let mut service_ns = 0;
    for i in 0..n {
        let start = clocks.start[i].load(Ordering::Relaxed);
        let end = clocks.end[i].load(Ordering::Relaxed);
        lat.read.push_ms(ms(start, end));
        lat.write.push_ms(ms(yields[i], yields[i + 1]));
        queue_wait.push_ms(ms(yields[i], start));
        service_ns += end.saturating_sub(start);
    }
    lat.first_response = clocks.first_response.into_inner().expect("sample lock");
    lat.round = clocks.round.into_inner().expect("sample lock");
    Pass {
        wall_s,
        lat,
        queue_wait,
        service_ns,
        telemetry,
        outcomes: clocks
            .outcomes
            .into_iter()
            .map(OnceLock::into_inner)
            .collect(),
    }
}

pub fn run(opts: &Options) -> Report {
    let sz = sizes(opts.scale);
    let cfg = dataset_config(sz.population);
    let mut report = Report::default();

    // Inputs, materialised before any timing, without the compiled program
    // the dataset stamps on them: stamping it back is set-up.
    let ds = PowerLawDataset::new(&cfg);
    let picked = pick(ds.len(), sz.entities, opts.seed);
    let program = ds.spec(picked[0]).compiled_program().clone();
    let bare: Vec<Specification> = picked
        .iter()
        .map(|&i| ds.spec(i).with_constraint_fraction(1.0, 1.0, 0))
        .collect();
    let truths: Vec<Tuple> = picked.iter().map(|&i| ds.truth(i)).collect();
    drop(ds);

    // Set-up, before every pass: the dataset's shared structure — value
    // pool, Σ/Γ and the one `CompiledProgram::compile` every entity shares —
    // then that program stamped on every entity. A dataset of no entities
    // builds exactly the shared structure (Σ/Γ are seeded apart from the
    // entity sizes), leaving out the benchmark's own draw of the population.
    let shared = PowerLawConfig {
        entities: 0,
        ..cfg.clone()
    };
    let mut setups = Vec::new();
    let mut set_up = || {
        let specs = bare.clone();
        let t = Instant::now();
        drop(PowerLawDataset::new(&shared));
        for spec in &specs {
            spec.set_compiled_program(program.clone());
        }
        setups.push(t.elapsed().as_secs_f64());
        specs
    };
    let resolver = Resolver::new(ResolutionConfig::default());
    let sched = SchedulerConfig::with_workers(WORKERS);

    let stream_budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (mut spent, mut passes) = (0.0, 0u64);
    let mut results = Vec::new();
    let (mut service, mut queue_wait) = (Samples::default(), Samples::default());
    let (mut service_ns, mut walls) = (0u64, Vec::new());
    let mut first: Option<Pass> = None;
    let mut stalls = Vec::new();
    loop {
        let pass = stream_pass(&resolver, &sched, set_up(), &truths);
        spent += pass.wall_s;
        passes += 1;
        walls.push(pass.wall_s);
        let rate = bare.len() as f64 / pass.wall_s;
        results.push(PassResult {
            entities_per_s: rate,
            requests_per_s: rate,
            lat: pass.lat.clone(),
        });
        service.extend(&pass.lat.read);
        queue_wait.extend(&pass.queue_wait);
        service_ns += pass.service_ns;
        stalls.push(pass.telemetry.backpressure_stalls as f64);
        match &first {
            None => first = Some(pass),
            Some(f) => report.check(f.outcomes == pass.outcomes, || {
                format!("batch: pass {passes} outcomes differ from pass 1")
            }),
        }
        if spent >= stream_budget {
            break;
        }
    }
    let first = first.expect("at least one pass");
    report.attempted = passes * bare.len() as u64;
    report.set("setup_s", median(&setups));
    // The checks below run the entities as the passes did.
    for spec in &bare {
        spec.set_compiled_program(program.clone());
    }
    let specs = bare;
    report.failed = first.outcomes.iter().filter(|o| o.is_none()).count() as u64 * passes;

    // Output checks, outside the timed region.
    for (i, (o, truth)) in first.outcomes.iter().zip(&truths).enumerate() {
        let Some(o) = o else {
            report
                .problems
                .push(format!("batch: entity {i} produced no outcome"));
            continue;
        };
        let agrees = (0..truth.arity()).all(|a| {
            let attr = cr_types::AttrId(a as u16);
            o.resolved.get(attr).is_none_or(|v| v == truth.get(attr))
        });
        report.check(o.valid && agrees, || {
            format!("batch: entity {i} resolved against its truth: {o:?}")
        });
    }
    let scratch = Resolver::new(scratch_config());
    for i in pick(specs.len(), sz.scratch_sample, opts.seed) {
        let want = Decided::of(&scratch.resolve(
            &specs[i],
            &mut GroundTruthOracle::with_cap(truths[i].clone(), 1),
        ));
        let got = first.outcomes[i].as_ref();
        report.check(got.is_some_and(|g| g.same_answer(&want)), || {
            format!("batch: entity {i} streamed {got:?}, from-scratch loop {want:?}")
        });
    }

    if !opts.trace {
        set_user_metrics(&mut report, &results, opts.scale);
        return report;
    }

    // Scheduler layer, from the streamed passes.
    let wall: f64 = walls.iter().sum();
    report.set(
        "sched.busy_ratio",
        service_ns as f64 / 1e9 / (WORKERS as f64 * wall),
    );
    report.set("sched.service_p50_ms", service.p50());
    report.set("sched.service_p99_ms", service.p99());
    report.set("sched.queue_wait_p50_ms", queue_wait.p50());
    report.set("sched.tasks", first.telemetry.tasks as f64);
    report.set("sched.backpressure_stalls", median(&stalls));
    report.set(
        "sched.queue_high_water",
        first.telemetry.queue_high_water as f64,
    );

    // Engine layers, from a seeded sample re-driven through the session API,
    // alternating untraced and traced passes.
    let config = ResolutionConfig::default();
    let picked = pick(specs.len(), sz.traced_sample, opts.seed);
    let reference: Vec<Decided> = picked
        .iter()
        .map(|&i| {
            Decided::of(&resolver.resolve(
                &specs[i],
                &mut GroundTruthOracle::with_cap(truths[i].clone(), 1),
            ))
        })
        .collect();
    let passes = run_passes(opts.seconds / 2.0, true, |tr| {
        let (mut lat, mut counts) = (Latencies::default(), Counts::default());
        let t = Instant::now();
        let out: Vec<Decided> = picked
            .iter()
            .map(|&i| {
                let mut oracle = GroundTruthOracle::with_cap(truths[i].clone(), 1);
                drive(
                    &config,
                    &specs[i],
                    &mut oracle,
                    tr,
                    i as u64,
                    &mut lat,
                    &mut counts,
                )
            })
            .collect();
        (t.elapsed().as_secs_f64(), (out, counts))
    });
    for (out, _) in passes.plain.iter().chain(&passes.traced) {
        for (k, (got, want)) in out.iter().zip(&reference).enumerate() {
            report.check(got == want, || {
                format!(
                    "batch: session drive of entity {} gave {got:?}, Resolver::resolve {want:?}",
                    picked[k]
                )
            });
        }
    }
    passes.set_trace_metrics(&mut report, "batch");
    set_engine_layers(&mut report, &passes.traced[0].1, &passes);
    report
}
