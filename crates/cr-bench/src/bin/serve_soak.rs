//! Time-boxed serving-layer soak: the simulated client fleet against the
//! fault-injected wire, across randomized shapes and fault profiles.
//!
//! Loops for `--seconds` wall-clock seconds (default 60) over seeded
//! [`FleetConfig`]s: fleet size, tenant folding, traffic mix and causal
//! timeline shape all vary with the iteration seed, and each iteration
//! cycles through a fault profile — clean wire, drop-heavy, duplicate-heavy,
//! delay/reorder, disconnect-mid-batch, everything at once, and an
//! overload profile (many clients folded onto few tenants against a tight
//! token budget and short queues). Every run is self-verifying
//! ([`run_fleet`]): all operations must be acknowledged within the retry
//! budget, every acknowledged mutation must appear in the durable log
//! **exactly once** (inputs by content, causal events by dedup key, plain
//! revisions by content), overload must shed with typed `Overloaded`
//! errors that clients absorb by honouring the retry-after hint, and the
//! final session state must equal a canonical single-client replay of the
//! surviving log.
//!
//! The soak additionally fails if, across the whole budget, the fault
//! profiles never actually struck (no drops, no duplicates, no idempotent
//! replays, no disconnects, no load-shedding): a soak that exercises
//! nothing must not pass silently.
//!
//! Exits nonzero on any violation, printing the failing **seed and
//! iteration**. Designed for CI: `--seconds 45` keeps the step well under
//! its budget. Flags: `--seconds S` (default 60), `--seed S` (base seed,
//! default 1).

use std::time::Instant;

use cr_bench::{arg_or, arg_seed};
use cr_data::fleet::{run_fleet, ChannelFaults, FleetConfig};
use cr_server::admission::AdmissionConfig;

struct Totals {
    iterations: u64,
    ops: u64,
    retries: u64,
    dropped: u64,
    duplicated: u64,
    delayed: u64,
    disconnects: u64,
    shed: u64,
    idem_replays: u64,
    expired: u64,
    ticks: u64,
}

fn main() {
    let budget: f64 = arg_or("seconds", 60.0);
    let base_seed = arg_seed(1);

    let mut totals = Totals {
        iterations: 0,
        ops: 0,
        retries: 0,
        dropped: 0,
        duplicated: 0,
        delayed: 0,
        disconnects: 0,
        shed: 0,
        idem_replays: 0,
        expired: 0,
        ticks: 0,
    };
    let start = Instant::now();
    let mut iter = 0u64;
    while start.elapsed().as_secs_f64() < budget {
        // Reproduce any failure with `--seed <base_seed>` and the printed
        // iteration: the failing seed is derived, not sequential.
        let iteration = iter;
        let seed = base_seed.wrapping_add(iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        iter += 1;

        // Small fleets keep one run in the tens of milliseconds so the
        // soak covers many seeds × profiles.
        let mut cfg = FleetConfig {
            seed,
            clients: 2 + (seed % 4) as usize,
            inputs_per_client: 1 + (seed / 5 % 3) as usize,
            reads_per_client: 1 + (seed / 7 % 4) as usize,
            batches_per_client: (seed / 11 % 3) as usize,
            causal_events: 4 + (seed / 13 % 8) as usize,
            ..FleetConfig::default()
        };
        let profile = (iteration % 7) as usize;
        let label = match profile {
            0 => "clean",
            1 => {
                cfg.faults = ChannelFaults { drop: 0.15, ..ChannelFaults::clean() };
                "drop"
            }
            2 => {
                cfg.faults = ChannelFaults {
                    duplicate: 0.3,
                    max_delay: 4,
                    ..ChannelFaults::clean()
                };
                "duplicate"
            }
            3 => {
                cfg.faults =
                    ChannelFaults { delay: 0.5, max_delay: 8, ..ChannelFaults::clean() };
                "delay"
            }
            4 => {
                cfg.faults = ChannelFaults {
                    disconnect: 0.4,
                    disconnect_ticks: 10,
                    ..ChannelFaults::clean()
                };
                "disconnect"
            }
            5 => {
                cfg.faults = ChannelFaults::faulty();
                "all-faults"
            }
            _ => {
                // Overload: clients folded onto two tenants against a
                // tight budget — admission must shed, clients must
                // converge on the sustainable rate.
                cfg.clients = 6 + (seed % 4) as usize;
                cfg.tenants = 2;
                cfg.max_attempts = 40;
                cfg.max_ticks = 30_000;
                cfg.admission = AdmissionConfig {
                    refill_per_tick: 1,
                    burst: 3,
                    queue_cap: 3,
                    max_in_flight: 4,
                    ..AdmissionConfig::default()
                };
                "overload"
            }
        };

        match run_fleet(&cfg) {
            Ok(report) => {
                totals.iterations += 1;
                totals.ops += report.ops;
                totals.retries += report.retries;
                totals.dropped += report.dropped;
                totals.duplicated += report.duplicated;
                totals.delayed += report.delayed;
                totals.disconnects += report.disconnects;
                totals.shed += report.serve.shed_rate + report.serve.shed_queue;
                totals.idem_replays += report.serve.idem_hits;
                totals.expired +=
                    report.serve.expired_in_queue + report.serve.expired_mid_request;
                totals.ticks += report.ticks;
            }
            Err(e) => {
                eprintln!("FAIL: seed {seed} iteration {iteration} (profile {label}): {e}");
                std::process::exit(1);
            }
        }
    }

    println!(
        "serve soak OK: {} fleets in {:.1}s — {} ops acknowledged exactly-once over {} \
         ticks, {} retries, wire {}/{}/{} drop/dup/delay, {} disconnects, {} shed, {} \
         idempotent replays, {} deadline expiries",
        totals.iterations,
        start.elapsed().as_secs_f64(),
        totals.ops,
        totals.ticks,
        totals.retries,
        totals.dropped,
        totals.duplicated,
        totals.delayed,
        totals.disconnects,
        totals.shed,
        totals.idem_replays,
        totals.expired,
    );
    if totals.iterations < 7 {
        eprintln!(
            "FAIL: soak budget too small to cover every fault profile \
             ({} iterations)",
            totals.iterations
        );
        std::process::exit(1);
    }
    // A soak that never exercised its faults must not pass silently.
    let dead = [
        ("drops", totals.dropped),
        ("duplicates", totals.duplicated),
        ("delays", totals.delayed),
        ("disconnects", totals.disconnects),
        ("sheds", totals.shed),
        ("idempotent replays", totals.idem_replays),
        ("retries", totals.retries),
    ];
    for (what, count) in dead {
        if count == 0 {
            eprintln!("FAIL: the soak produced zero {what} — fault injection dead?");
            std::process::exit(1);
        }
    }
}
