//! The repository benchmark: three workloads (`batch`, `interactive`,
//! `serve`) that drive the conflict-resolution stack through its public
//! entry points, check the outputs against independent references, and
//! report end-to-end metrics (untraced runs) or per-layer metrics (traced
//! runs). `WORKLOADS.md` describes each workload and defines every metric.

mod batch;
mod drive;
mod interactive;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

use stats::Samples;
use trace::{layers, write_spans, Layer, Span, Tracer};

/// End-to-end metrics, printed by every untraced run, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("entities_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("first_response_p50_ms", "ms"),
    ("first_response_p99_ms", "ms"),
    ("round_p50_ms", "ms"),
    ("round_p99_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run, with their units. A
/// metric a workload cannot measure reports 0 (`WORKLOADS.md` lists which).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sched.busy_ratio", "ratio"),
    ("sched.service_p50_ms", "ms"),
    ("sched.service_p99_ms", "ms"),
    ("sched.queue_wait_p50_ms", "ms"),
    ("sched.tasks", "count"),
    ("sched.backpressure_stalls", "count"),
    ("sched.queue_high_water", "count"),
    ("encode.busy_ms", "ms"),
    ("encode.open_p99_ms", "ms"),
    ("encode.clauses_per_entity", "count"),
    ("encode.vars_per_entity", "count"),
    ("encode.bytes_per_entity", "B"),
    ("isvalid.busy_ms", "ms"),
    ("isvalid.calls", "count"),
    ("isvalid.injected_axioms", "count"),
    ("deduce.busy_ms", "ms"),
    ("deduce.calls", "count"),
    ("deduce.injected_axioms", "count"),
    ("truevalue.busy_ms", "ms"),
    ("truevalue.calls", "count"),
    ("suggest.busy_ms", "ms"),
    ("suggest.calls", "count"),
    ("suggest.injected_axioms", "count"),
    ("suggest.mean_size", "count"),
    ("ingest.input_busy_ms", "ms"),
    ("ingest.inputs", "count"),
    ("ingest.ot_added", "count"),
    ("ingest.retraction_replays", "count"),
    ("ingest.retraction_invalidated", "count"),
    ("ingest.revision_events", "count"),
    ("ingest.cone_union", "count"),
    ("ingest.replays_saved", "count"),
    ("ingest.quarantined", "count"),
    ("store.append_calls", "count"),
    ("store.append_bytes", "B"),
    ("store.append_busy_ms", "ms"),
    ("store.sync_calls", "count"),
    ("store.sync_busy_ms", "ms"),
    ("store.read_log_calls", "count"),
    ("store.read_log_bytes", "B"),
    ("store.rehydrations", "count"),
    ("store.events_replayed", "count"),
    ("store.snapshots_used", "count"),
    ("store.evictions", "count"),
    ("store.cold_ratio", "ratio"),
    ("store.write_amplification", "ratio"),
    ("store.disk_bytes_per_mutation", "B"),
    ("server.submit_busy_ms", "ms"),
    ("server.dispatch_busy_ms", "ms"),
    ("server.requests_per_dispatch", "count"),
    ("server.queue_wait_p99_ms", "ms"),
    ("server.shed", "count"),
    ("server.expired", "count"),
    ("server.max_queue_depth", "count"),
    ("server.error_ratio", "ratio"),
    ("server.is_valid_p50_ms", "ms"),
    ("server.deduce_p50_ms", "ms"),
    ("server.true_values_p50_ms", "ms"),
    ("server.suggest_p50_ms", "ms"),
    ("server.apply_input_p50_ms", "ms"),
    ("server.ingest_causal_p50_ms", "ms"),
    ("server.absorb_batch_p50_ms", "ms"),
    ("server.snapshot_p50_ms", "ms"),
    ("proto.encode_busy_ms", "ms"),
    ("proto.decode_busy_ms", "ms"),
    ("proto.request_bytes_mean", "B"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Input sizes: `Full` is what the benchmark measures; `Small` keeps the
/// same shapes at a size the package's own tests can afford.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

impl Scale {
    /// Samples every timed population must have in one untraced run, so
    /// that at least ten lie beyond its p99.
    fn min_samples(self) -> usize {
        match self {
            Scale::Full => 1000,
            Scale::Small => 1,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    /// Measured time of the run; passes repeat until it is spent (every run
    /// makes at least one pass, a traced run one untraced and one traced).
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// The result line of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed; the run is correct iff this is empty.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name);
        assert!(known, "metric {name} is not declared");
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The single-line JSON result: every end-to-end metric (untraced run)
    /// or every per-layer metric (traced run), each with its unit.
    pub fn to_json(&self, traced: bool) -> String {
        let declared = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => *v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What one untraced pass gave its users: throughputs and every wait.
pub(crate) struct PassResult {
    pub(crate) entities_per_s: f64,
    pub(crate) requests_per_s: f64,
    pub(crate) lat: drive::Latencies,
}

/// Sets the throughput and latency metrics of an untraced run. Rates and
/// p50s are medians over passes of the pass's own value, so one disturbed
/// pass cannot move them. A p99 is the median over groups of consecutive
/// passes, each group the fewest passes holding `scale.min_samples()`
/// samples (a short last group joins the one before), of the group's p99:
/// every estimate has at least ten samples beyond it, and a few disturbed
/// passes cannot move the result. A run without one full group fails.
pub(crate) fn set_user_metrics(report: &mut Report, passes: &[PassResult], scale: Scale) {
    let over =
        |f: &dyn Fn(&PassResult) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    report.set("entities_per_s", over(&|p| p.entities_per_s));
    report.set("requests_per_s", over(&|p| p.requests_per_s));
    report.set(
        "first_response_p50_ms",
        over(&|p| p.lat.first_response.p50()),
    );
    report.set("round_p50_ms", over(&|p| p.lat.round.p50()));
    report.set("read_p50_ms", over(&|p| p.lat.read.p50()));
    report.set("write_p50_ms", over(&|p| p.lat.write.p50()));
    let min = scale.min_samples();
    for (name, per_pass) in [
        (
            "first_response_p99_ms",
            passes
                .iter()
                .map(|p| &p.lat.first_response)
                .collect::<Vec<_>>(),
        ),
        (
            "round_p99_ms",
            passes.iter().map(|p| &p.lat.round).collect(),
        ),
        ("read_p99_ms", passes.iter().map(|p| &p.lat.read).collect()),
        (
            "write_p99_ms",
            passes.iter().map(|p| &p.lat.write).collect(),
        ),
    ] {
        let (p99, first) = grouped_p99(&per_pass, min);
        report.set(name, p99);
        report.check(first >= min, || {
            format!("{name} rests on {first} samples, fewer than {min}")
        });
    }
}

/// The median, over groups of consecutive passes, of each group's p99:
/// each group is the fewest passes holding `min` samples, and a short last
/// group joins the one before. Also returns the size of the first group.
fn grouped_p99(per_pass: &[&Samples], min: usize) -> (f64, usize) {
    let mut groups: Vec<Samples> = vec![Samples::default()];
    for samples in per_pass {
        if groups.last().is_some_and(|g| g.len() >= min) {
            groups.push(Samples::default());
        }
        groups.last_mut().expect("a group").extend(samples);
    }
    if groups.len() > 1 && groups.last().is_some_and(|g| g.len() < min) {
        let short = groups.pop().expect("a group");
        groups.last_mut().expect("a group").extend(&short);
    }
    let p99s: Vec<f64> = groups.iter().map(Samples::p99).collect();
    (stats::median(&p99s), groups[0].len())
}

/// The passes of one run. Untraced passes repeat until `seconds` of
/// measured time are spent; a traced run alternates untraced and traced
/// passes, starting untraced, and makes at least one of each.
pub(crate) struct Passes<P> {
    /// What each untraced pass returned.
    pub(crate) plain: Vec<P>,
    /// What each traced pass returned.
    pub(crate) traced: Vec<P>,
    plain_walls: Vec<f64>,
    traced_walls: Vec<f64>,
    /// Every layer's spans over all traced passes.
    layers: BTreeMap<&'static str, Layer>,
    /// The spans of the last traced pass.
    spans: Vec<Span>,
}

/// Runs passes of one workload. `pass` records spans on the tracer it is
/// given (a disabled one on untraced passes) and returns the pass's
/// measured wall time, in seconds, with its result.
pub(crate) fn run_passes<P>(
    seconds: f64,
    trace: bool,
    mut pass: impl FnMut(&Tracer) -> (f64, P),
) -> Passes<P> {
    let mut out = Passes {
        plain: Vec::new(),
        traced: Vec::new(),
        plain_walls: Vec::new(),
        traced_walls: Vec::new(),
        layers: BTreeMap::new(),
        spans: Vec::new(),
    };
    let mut spent = 0.0;
    loop {
        let traced = trace && out.plain.len() > out.traced.len();
        let tracer = Tracer::new(traced);
        let (wall, result) = pass(&tracer);
        spent += wall;
        if traced {
            let spans = tracer.take();
            for (name, layer) in layers(&spans) {
                out.layers.entry(name).or_default().merge(&layer);
            }
            out.spans = spans;
            out.traced_walls.push(wall);
            out.traced.push(result);
        } else {
            out.plain_walls.push(wall);
            out.plain.push(result);
        }
        if spent >= seconds && (!trace || !out.traced.is_empty()) {
            return out;
        }
    }
}

impl<P> Passes<P> {
    /// Self time of the layers whose span names start with `prefix`, per
    /// traced pass, in ms.
    pub(crate) fn busy_ms(&self, prefix: &str) -> f64 {
        let ns: u64 = self
            .layers
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, l)| l.self_ns)
            .sum();
        ns as f64 / 1e6 / self.traced.len().max(1) as f64
    }

    /// p99 of the inclusive durations of the spans named `name` over the
    /// traced passes, in ms.
    pub(crate) fn span_p99_ms(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| l.durations.p99())
    }

    /// Sets `trace.unattributed_ratio` ((wall − Σ self time) ÷ wall of the
    /// traced passes) and `trace.overhead_ratio` (median traced ÷ median
    /// untraced pass wall), and writes the last traced pass's spans to
    /// `spans-<workload>.tsv` in [`work_dir`].
    pub(crate) fn set_trace_metrics(&self, report: &mut Report, workload: &str) {
        let attributed: u64 = self.layers.values().map(|l| l.self_ns).sum();
        let traced_s: f64 = self.traced_walls.iter().sum();
        report.set(
            "trace.unattributed_ratio",
            1.0 - attributed as f64 / 1e9 / traced_s,
        );
        report.set(
            "trace.overhead_ratio",
            stats::median(&self.traced_walls) / stats::median(&self.plain_walls),
        );
        let path = work_dir().join(format!("spans-{workload}.tsv"));
        let _ = write_spans(&path, &self.spans);
    }
}

/// Runs one workload.
pub fn run(workload: &str, opts: &Options) -> Result<Report, String> {
    let mut report = match workload {
        "batch" => batch::run(opts),
        "interactive" => interactive::run(opts),
        "serve" => serve::run(opts),
        other => {
            return Err(format!(
                "unknown workload {other:?} (batch, interactive, serve)"
            ))
        }
    };
    if !opts.trace {
        report.set("peak_rss_mb", peak_rss_mb());
    }
    Ok(report)
}

/// SplitMix64 finaliser: the benchmark's seeded choices.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded choice of `k` distinct indices out of `n`, ascending.
pub(crate) fn pick(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut keyed: Vec<(u64, usize)> = (0..n).map(|i| (mix(seed ^ mix(i as u64)), i)).collect();
    keyed.sort_unstable();
    let mut picked: Vec<usize> = keyed.into_iter().take(k).map(|(_, i)| i).collect();
    picked.sort_unstable();
    picked
}

/// Scratch space inside the working directory, for span dumps. Listed in
/// the repository's `.gitignore`.
pub(crate) fn work_dir() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench")
}

/// Linux's `struct rusage` on 64-bit targets: two `timeval`s (four
/// `long`s), then `ru_maxrss` and thirteen more `long` counters.
#[repr(C)]
struct Rusage {
    _times: [i64; 4],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set of this process (the kernel's high-water mark), MiB.
fn peak_rss_mb() -> f64 {
    let mut usage = Rusage {
        _times: [0; 4],
        counters: [0; 14],
    };
    // SAFETY: `Rusage` has the size and layout of `struct rusage` on 64-bit
    // Linux, and `getrusage` only writes into the struct it is given.
    // RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.counters[0] as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disturbed_pass_does_not_move_the_p99() {
        let pass = |ms: f64| {
            let mut s = Samples::default();
            for _ in 0..600 {
                s.push_ms(ms);
            }
            s
        };
        // Seven passes of 600 samples make groups of passes 0–1, 2–3 and
        // 4–6; only the middle group holds the disturbed pass.
        let passes: Vec<Samples> = (0..7)
            .map(|i| pass(if i == 2 { 100.0 } else { 1.0 }))
            .collect();
        let refs: Vec<&Samples> = passes.iter().collect();
        assert_eq!(grouped_p99(&refs, 1000), (1.0, 1200));
        assert_eq!(grouped_p99(&refs[..1], 1000), (1.0, 600));
    }
}
