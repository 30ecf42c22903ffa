//! Time-boxed chaos soak for causally-stamped correction ingestion.
//!
//! Loops over randomized scenarios × causal timelines for `--seconds`
//! wall-clock seconds (default 60), and for each scenario runs four
//! delivery regimes through [`resolve_causal_checked`] — which itself
//! verifies the replayed engine ≡ from-scratch re-resolution after every
//! effective batch:
//!
//! 1. **canonical interactive** — the causally-clean baseline;
//! 2. **schedule-preserving chaos** (within-round reorder + duplicates),
//!    interactive — must converge to the exact canonical outcome;
//! 3. **canonical vs adversarial chaos** (cross-round delays splitting and
//!    merging batches), both drain-first — must converge post-drain;
//! 4. **corrupt injection** under the quarantine policy — exactly the
//!    injected events must land in the quarantine log, and the clean
//!    remainder must still converge;
//! 5. **per-event vs batched ingestion** — the canonical timeline is
//!    re-run with `max_batch = 1` (every event its own batch) and must
//!    reproduce the seeded-split baseline's exact outcome and trajectory.
//!
//! Each iteration seeds a batch split (`CausalReplayConfig::max_batch` ∈
//! {0 = whole poll, 1 = per event, 2, 3}) applied to every regime, so the
//! soak interleaves coalesced and event-at-a-time ingestion across seeds
//! — delivered state must never depend on the partition.
//!
//! Exits nonzero on any convergence divergence, any quarantine in a clean
//! run, a wrong quarantine count in the corrupt run, or any panic
//! (propagated). Designed for CI: `--seconds 45` keeps the step well under
//! its 90-second budget.
//!
//! Flags: `--seconds S` (default 60), `--seed S` (base seed, default 1).

use std::time::Instant;

use cr_bench::{arg_or, arg_seed};
use cr_core::causal::{
    resolve_causal_checked, CausalCheckedReplay, CausalReplayConfig, ScriptedCausalRevisions,
};
use cr_core::framework::{GroundTruthOracle, ResolutionConfig};
use cr_core::ingest::RevisionPolicy;
use cr_data::chaos::{chaos, ChaosConfig};
use cr_data::gen::{causal_timeline, scenario_from_raw, CausalTimelineConfig, Scenario};

struct Totals {
    scenarios: usize,
    events: usize,
    coalesced: usize,
    duplicates: usize,
    buffered: usize,
    reopened: usize,
    quarantined: usize,
    checks: usize,
}

fn main() {
    let budget: f64 = arg_or("seconds", 60.0);
    let base_seed = arg_seed(1);
    let config = ResolutionConfig::default();

    let mut totals = Totals {
        scenarios: 0,
        events: 0,
        coalesced: 0,
        duplicates: 0,
        buffered: 0,
        reopened: 0,
        quarantined: 0,
        checks: 0,
    };
    let start = Instant::now();
    let mut iter = 0u64;
    while start.elapsed().as_secs_f64() < budget {
        // Reproduce any failure with `--seed <base_seed>` and the printed
        // iteration: the failing seed is derived, not sequential.
        let iteration = iter;
        let seed = base_seed.wrapping_add(iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        iter += 1;
        // Scenario shapes cycle through small sizes so one iteration stays
        // in the tens of milliseconds and the soak covers many seeds.
        let tuples = 2 + (seed % 12) as usize;
        let domain = 2 + (seed / 12 % 8) as usize;
        let density = (seed / 96 % 100) as u32;
        let events = 2 + (seed / 7 % 6) as usize;
        let sources = 1 + (seed / 5 % 3) as usize;
        // Seeded batch split, applied to every regime this iteration: 0
        // ingests each poll as one coalesced batch, 1 degenerates to
        // event-at-a-time, 2/3 chunk polls mid-stream. Delivered state
        // must never depend on the partition.
        let max_batch = (seed / 11 % 4) as usize;
        let interactive = CausalReplayConfig { max_batch, ..CausalReplayConfig::default() };
        let per_event = CausalReplayConfig { max_batch: 1, ..CausalReplayConfig::default() };
        let drain_first = CausalReplayConfig {
            policy: RevisionPolicy::Reject,
            interact_while_streaming: false,
            max_batch,
        };
        let quarantine = CausalReplayConfig {
            policy: RevisionPolicy::Quarantine,
            interact_while_streaming: false,
            max_batch,
        };
        let Scenario { spec, truth } =
            scenario_from_raw(seed, tuples, domain, density, iter.is_multiple_of(2));
        let timeline = causal_timeline(
            &spec,
            &CausalTimelineConfig {
                seed: seed.wrapping_mul(131).wrapping_add(7),
                sources,
                events,
                rounds: 3,
                // Burst polls: generated rounds carry multi-event batches,
                // so coalescing has real work across seeds.
                burst: 1 + (seed / 17 % 3) as usize,
                ..Default::default()
            },
        );

        let run = |source: ScriptedCausalRevisions,
                   causal: &CausalReplayConfig,
                   what: &str|
         -> CausalCheckedReplay {
            let mut oracle = GroundTruthOracle::with_cap(truth.clone(), 1);
            let mut source = source;
            resolve_causal_checked(&config, &spec, &mut oracle, &mut source, causal)
                .unwrap_or_else(|e| {
                    eprintln!(
                        "FAIL: seed {seed} iteration {iteration}: {what} run diverged from scratch: {e}"
                    );
                    std::process::exit(1);
                })
        };
        let diverged = |what: &str, a: &CausalCheckedReplay, b: &CausalCheckedReplay| {
            if a.resolved != b.resolved || a.valid != b.valid || a.complete != b.complete {
                eprintln!(
                    "FAIL: seed {seed} iteration {iteration}: {what} diverged from its baseline"
                );
                std::process::exit(1);
            }
        };

        // 1+2: canonical vs schedule-preserving chaos, fully interactive.
        let base = run(ScriptedCausalRevisions::new(timeline.clone()), &interactive, "canonical");
        let sp = run(
            chaos(&timeline, &spec, &ChaosConfig::schedule_preserving(seed ^ 0xA5)),
            &interactive,
            "schedule-preserving",
        );
        diverged("schedule-preserving chaos", &sp, &base);
        if sp.interactions != base.interactions || sp.revisions.reopened != base.revisions.reopened
        {
            eprintln!(
                "FAIL: seed {seed} iteration {iteration}: schedule-preserving trajectory diverged"
            );
            std::process::exit(1);
        }
        if base.revisions.quarantined + sp.revisions.quarantined != 0 {
            eprintln!(
                "FAIL: seed {seed} iteration {iteration}: clean interactive runs quarantined events"
            );
            std::process::exit(1);
        }

        // 5: per-event vs batched ingestion of the same canonical stream —
        // the partition must not leak into outcome or trajectory.
        let pe = run(
            ScriptedCausalRevisions::new(timeline.clone()),
            &per_event,
            "per-event",
        );
        diverged("per-event vs batched ingestion", &pe, &base);
        if pe.interactions != base.interactions || pe.revisions.reopened != base.revisions.reopened
        {
            eprintln!(
                "FAIL: seed {seed} iteration {iteration}: per-event trajectory diverged from batched (max_batch {max_batch})"
            );
            std::process::exit(1);
        }

        // 3: adversarial delays, drain-first both sides.
        let base_df =
            run(ScriptedCausalRevisions::new(timeline.clone()), &drain_first, "drain-first");
        let adv = run(
            chaos(&timeline, &spec, &ChaosConfig::adversarial(seed ^ 0x5A)),
            &drain_first,
            "adversarial",
        );
        diverged("adversarial chaos", &adv, &base_df);
        if base_df.revisions.quarantined + adv.revisions.quarantined != 0 {
            eprintln!(
                "FAIL: seed {seed} iteration {iteration}: clean drain-first runs quarantined events"
            );
            std::process::exit(1);
        }

        // 4: corrupt injection — all of it quarantined, nothing else, and
        // the clean remainder still converges.
        let corrupt = 1 + (seed % 3) as usize;
        let cor = run(
            chaos(
                &timeline,
                &spec,
                &ChaosConfig { corrupt, ..ChaosConfig::adversarial(seed ^ 0xC0) },
            ),
            &quarantine,
            "corrupt",
        );
        if cor.revisions.quarantined != corrupt || cor.quarantined.len() != corrupt {
            eprintln!(
                "FAIL: seed {seed} iteration {iteration}: {} of {corrupt} corrupt events quarantined",
                cor.revisions.quarantined
            );
            std::process::exit(1);
        }
        diverged("corrupt-stream remainder", &cor, &base_df);

        totals.scenarios += 1;
        totals.events += base.revisions.events;
        totals.coalesced += base.revisions.events_coalesced;
        totals.duplicates += sp.revisions.duplicates_dropped + adv.revisions.duplicates_dropped;
        totals.buffered += adv.revisions.buffered + cor.revisions.buffered;
        totals.reopened += base.revisions.reopened;
        totals.quarantined += cor.revisions.quarantined;
        totals.checks +=
            base.checks + sp.checks + pe.checks + base_df.checks + adv.checks + cor.checks;
    }

    println!(
        "chaos soak OK: {} scenarios in {:.1}s — {} events applied ({} coalesced), {} duplicates dropped, {} buffered, {} re-opened, {} corrupt quarantined, {} scratch-equivalence checks",
        totals.scenarios,
        start.elapsed().as_secs_f64(),
        totals.events,
        totals.coalesced,
        totals.duplicates,
        totals.buffered,
        totals.reopened,
        totals.quarantined,
        totals.checks,
    );
    if totals.scenarios == 0 {
        eprintln!("FAIL: soak budget too small to run a single scenario");
        std::process::exit(1);
    }
}
