//! The benchmark's own checks: a seed fixes every work count, each layer is
//! busy on the workload built for it and idle elsewhere, and the metric
//! declarations match `BENCHMARK.json`.

use perfbench::{run, Options, Report, Scale, END_TO_END, PER_LAYER};

/// Counts that must repeat exactly for a given seed.
const COUNTS: &[&str] = &[
    "sched.tasks",
    "encode.clauses_per_entity",
    "isvalid.injected_axioms",
    "deduce.injected_axioms",
    "suggest.injected_axioms",
    "store.append_bytes",
    "store.sync_calls",
    "store.rehydrations",
    "store.disk_bytes_per_mutation",
];

fn traced(workload: &str, seed: u64) -> Report {
    let opts = Options {
        seed,
        seconds: 0.0,
        trace: true,
        scale: Scale::Small,
    };
    let report = run(workload, &opts).expect("a known workload");
    assert!(
        report.correct(),
        "{workload}: output checks failed: {:?}",
        report.problems
    );
    report
}

fn metric(r: &Report, name: &str) -> f64 {
    r.metrics.get(name).copied().unwrap_or(0.0)
}

#[test]
fn same_seed_repeats_every_count() {
    for workload in ["batch", "interactive", "serve"] {
        let (a, b) = (traced(workload, 7), traced(workload, 7));
        for name in COUNTS {
            assert_eq!(
                metric(&a, name),
                metric(&b, name),
                "{workload}: {name} changed between runs"
            );
        }
    }
}

#[test]
fn each_layer_is_busy_where_it_should_be() {
    let batch = traced("batch", 3);
    let interactive = traced("interactive", 3);
    let serve = traced("serve", 3);
    assert!(metric(&batch, "sched.tasks") > 0.0);
    assert_eq!(metric(&interactive, "sched.tasks"), 0.0);
    assert_eq!(metric(&serve, "sched.tasks"), 0.0);
    for r in [&batch, &interactive] {
        assert!(metric(r, "encode.clauses_per_entity") > 0.0);
        assert!(metric(r, "isvalid.calls") > 0.0);
        assert_eq!(metric(r, "store.append_bytes"), 0.0);
        assert_eq!(metric(r, "server.dispatch_busy_ms"), 0.0);
    }
    assert!(metric(&interactive, "ingest.inputs") > 0.0);
    assert!(metric(&batch, "encode.busy_ms") > 0.0);
    assert!(metric(&serve, "encode.clauses_per_entity") > 0.0);
    assert!(metric(&serve, "store.append_bytes") > 0.0);
    assert!(metric(&serve, "store.rehydrations") > 0.0);
    assert!(metric(&serve, "server.dispatch_busy_ms") > 0.0);
    assert!(metric(&serve, "proto.request_bytes_mean") > 0.0);
    assert!(metric(&serve, "ingest.revision_events") > 0.0);
    assert_eq!(metric(&serve, "server.error_ratio"), 0.0);
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    for workload in ["batch", "interactive", "serve"] {
        let opts = Options {
            seed: 5,
            seconds: 0.0,
            trace: false,
            scale: Scale::Small,
        };
        let report = run(workload, &opts).expect("a known workload");
        assert!(report.correct(), "{workload}: {:?}", report.problems);
        for (name, _) in END_TO_END {
            let v = metric(&report, name);
            assert!(v > 0.0, "{workload}: {name} = {v}");
        }
        let line = report.to_json(false);
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
    }
}

#[test]
fn declarations_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = json.matches("\"name\": ").count();
    assert_eq!(
        declared,
        3 + END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json declares other metrics"
    );
}
