//! The simulated-fleet differential: every acknowledged mutation is
//! durably applied exactly once and the final state equals a canonical
//! single-client replay — under a clean wire, under each channel fault in
//! isolation, under all of them at once, and under deliberate overload.
//!
//! `run_fleet` performs the verification itself at teardown (log scan,
//! exactly-once per mutation category, `verify_recovery` against the
//! replayed reference); these tests drive it through the fault matrix and
//! additionally pin the telemetry each profile must produce.

use cr_data::fleet::{run_fleet, ChannelFaults, FleetConfig};
use cr_server::admission::AdmissionConfig;

fn base(seed: u64) -> FleetConfig {
    FleetConfig {
        seed,
        ..FleetConfig::default()
    }
}

#[test]
fn clean_wire_fleet_converges_without_retries() {
    for seed in 0..4 {
        let report = run_fleet(&base(seed)).expect("clean fleet converges");
        assert_eq!(report.acked, report.ops);
        assert_eq!(report.dropped + report.duplicated + report.delayed, 0);
        assert_eq!(
            report.retries, 0,
            "a clean wire needs no retries (seed {seed})"
        );
        assert_eq!(report.serve.idem_hits, 0);
        assert!(report.mutations_acked > 0);
    }
}

#[test]
fn dropped_messages_are_recovered_by_retry() {
    let mut saw_drop = false;
    for seed in 0..6 {
        let cfg = FleetConfig {
            faults: ChannelFaults {
                drop: 0.2,
                ..ChannelFaults::clean()
            },
            ..base(seed)
        };
        let report = run_fleet(&cfg).expect("drop-only fleet converges");
        assert_eq!(report.acked, report.ops);
        saw_drop |= report.dropped > 0;
        if report.dropped > 0 {
            assert!(report.retries > 0, "drops must force retries (seed {seed})");
        }
    }
    assert!(
        saw_drop,
        "a 20% drop rate must strike at least once across seeds"
    );
}

#[test]
fn duplicated_messages_are_absorbed_by_the_ledger() {
    let mut saw_replay = false;
    for seed in 0..6 {
        let cfg = FleetConfig {
            faults: ChannelFaults {
                duplicate: 0.35,
                max_delay: 4,
                ..ChannelFaults::clean()
            },
            ..base(seed)
        };
        let report = run_fleet(&cfg).expect("duplicate-only fleet converges");
        assert_eq!(report.acked, report.ops);
        saw_replay |= report.serve.idem_hits > 0;
    }
    assert!(
        saw_replay,
        "a 35% duplication rate must produce at least one idempotent replay"
    );
}

#[test]
fn delayed_and_reordered_messages_preserve_exactly_once() {
    for seed in 0..6 {
        let cfg = FleetConfig {
            faults: ChannelFaults {
                delay: 0.5,
                max_delay: 8,
                ..ChannelFaults::clean()
            },
            ..base(seed)
        };
        let report = run_fleet(&cfg).expect("delay-only fleet converges");
        assert_eq!(report.acked, report.ops);
        assert!(
            report.delayed > 0,
            "a 50% delay rate must strike (seed {seed})"
        );
    }
}

#[test]
fn mid_batch_disconnects_do_not_lose_or_double_apply_corrections() {
    let mut saw_disconnect = false;
    for seed in 0..8 {
        let cfg = FleetConfig {
            faults: ChannelFaults {
                disconnect: 0.5,
                disconnect_ticks: 10,
                ..ChannelFaults::clean()
            },
            ..base(seed)
        };
        let report = run_fleet(&cfg).expect("disconnect-only fleet converges");
        assert_eq!(report.acked, report.ops);
        saw_disconnect |= report.disconnects > 0;
    }
    assert!(
        saw_disconnect,
        "a 50% disconnect rate must sever at least one batch"
    );
}

#[test]
fn fully_hostile_wire_preserves_the_differential() {
    for seed in 0..6 {
        let cfg = FleetConfig {
            faults: ChannelFaults::faulty(),
            ..base(seed)
        };
        let report = run_fleet(&cfg).expect("hostile-wire fleet converges");
        assert_eq!(report.acked, report.ops);
        assert!(report.latencies.len() as u64 == report.ops);
    }
}

/// Eight clients folded onto two tenants, against a tight token budget and
/// short queues.
fn overloaded(faults: ChannelFaults) -> FleetConfig {
    FleetConfig {
        clients: 8,
        tenants: 2,
        faults,
        max_attempts: 40,
        max_ticks: 20_000,
        admission: AdmissionConfig {
            refill_per_tick: 1,
            burst: 3,
            queue_cap: 3,
            max_in_flight: 4,
            ..AdmissionConfig::default()
        },
        ..base(7)
    }
}

#[test]
fn overloaded_tenants_are_shed_with_typed_errors_and_still_finish() {
    // Admission must shed, clients must back off on the retry-after hint,
    // and every operation must still complete.
    let cfg = overloaded(ChannelFaults::clean());
    let report = run_fleet(&cfg).expect("overloaded fleet converges");
    assert_eq!(report.acked, report.ops);
    assert!(
        report.serve.shed_rate + report.serve.shed_queue > 0,
        "this profile must shed: {}",
        report.serve
    );
    assert_eq!(
        report.overloaded_replies,
        report.serve.shed_rate + report.serve.shed_queue,
        "every shed surfaces to a client as a typed Overloaded reply"
    );
    assert!(report.retries > 0);
}

/// The hostile wire under the same overload: admission control must still
/// shed, clients must retry, and the run must still converge exactly once.
#[test]
fn hostile_wire_under_overload_sheds_and_retries() {
    let report = run_fleet(&overloaded(ChannelFaults::faulty())).expect("hostile fleet converges");
    assert_eq!(report.acked, report.ops);
    let shed = report.serve.shed_rate + report.serve.shed_queue;
    assert!(shed > 0, "this profile must shed: {}", report.serve);
    assert!(
        report.overloaded_replies <= shed,
        "a dropped reply never reaches the client"
    );
    assert!(report.retries > 0, "a hostile wire must force retries");
}
