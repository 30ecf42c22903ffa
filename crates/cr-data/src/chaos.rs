//! Fault-injecting delivery for causal revision streams.
//!
//! [`chaos`] takes a canonical `(round, event)` schedule (from
//! [`crate::gen::causal_timeline`]) and applies seeded delivery faults:
//!
//! * **reorder-within-window** — each round's batch is shuffled (the
//!   window is the poll batch);
//! * **duplicate** — selected events are re-delivered at the same or a
//!   later round (the frontier's `(source, hlc)` dedup must drop them);
//! * **delay** — selected events move to later rounds. Because delivery is
//!   per-round polling, a delay is simultaneously a **batch split** (the
//!   event leaves its original batch) and a **batch merge** (it joins
//!   another round's batch), and it forces frontier buffering whenever a
//!   causal successor now arrives first;
//! * **corrupt-event injection** — malformed revisions (unknown CFD /
//!   tuple / attribute / order targets) from dedicated corruptor sources.
//!   Corrupt events carry *valid* stamps (sequence 1, no dependencies), so
//!   quarantining them never blocks a stream — exactly the degradation
//!   path [`cr_core::ingest::RevisionPolicy`] exists for.
//!
//! The transformed schedule is fed back through
//! [`cr_core::causal::ScriptedCausalRevisions`]; the convergence
//! differentials then assert that every chaotic delivery resolves exactly
//! like the canonical one and like scratch re-resolution.

use cr_core::causal::{CausalRevision, ScriptedCausalRevisions};
use cr_core::ingest::Revision;
use cr_core::Specification;
use cr_types::{AttrId, CausalStamp, Hlc, SourceId, TupleId, VectorClock};
use rand::prelude::*;

use crate::gen_util::rng;

/// Knobs of one seeded chaos transformation.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// RNG seed; equal configs produce identical fault schedules.
    pub seed: u64,
    /// Shuffle each round's batch (reorder within the delivery window).
    pub reorder: bool,
    /// Events to re-deliver (at the original round or up to 2 rounds
    /// later); the frontier must drop every one.
    pub duplicates: usize,
    /// Per-event probability of being delayed to a later round.
    pub delay_density: f64,
    /// Maximum delay in rounds (≥ 1 when `delay_density > 0`).
    pub delay_max: usize,
    /// Malformed events to inject from dedicated corruptor sources
    /// (`SourceId(900)`, `SourceId(901)`, …).
    pub corrupt: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            reorder: true,
            duplicates: 2,
            delay_density: 0.0,
            delay_max: 3,
            corrupt: 0,
        }
    }
}

impl ChaosConfig {
    /// A schedule-preserving profile: within-round reorder plus duplicates
    /// only. Every event still *applies* in its canonical round, so even
    /// interleaved interaction (answers between deliveries, re-opens)
    /// converges with canonical delivery.
    pub fn schedule_preserving(seed: u64) -> Self {
        ChaosConfig {
            seed,
            ..Default::default()
        }
    }

    /// A fully adversarial profile: reorder, duplicates and cross-round
    /// delays (splits/merges batches and forces buffering). Convergence
    /// with canonical delivery is guaranteed for drain-first runs
    /// (`cr_oracle::CausalReplayConfig { interact_while_streaming: false, .. }`),
    /// where the post-drain state is a pure function of the event set.
    pub fn adversarial(seed: u64) -> Self {
        ChaosConfig {
            seed,
            delay_density: 0.6,
            ..Default::default()
        }
    }
}

/// Applies the seeded fault schedule to a canonical `(round, event)`
/// schedule and returns the chaotic delivery source. `spec` is only used
/// to craft corrupt targets that are guaranteed out of range.
pub fn chaos(
    schedule: &[(usize, CausalRevision)],
    spec: &Specification,
    cfg: &ChaosConfig,
) -> ScriptedCausalRevisions {
    let mut r = rng(cfg.seed ^ 0x0DD5_0CC5_DEAD_BEEFu64);
    let mut out: Vec<(usize, CausalRevision)> = schedule.to_vec();

    // Delay: move events to later rounds (split from their batch, merged
    // into another). The frontier re-establishes causal order.
    if cfg.delay_density > 0.0 && cfg.delay_max > 0 {
        for entry in &mut out {
            if r.gen_bool(cfg.delay_density.clamp(0.0, 1.0)) {
                entry.0 += r.gen_range(1..=cfg.delay_max);
            }
        }
    }

    // Duplicates: re-deliver existing events at the same or a later round.
    if !out.is_empty() {
        for _ in 0..cfg.duplicates {
            let i = r.gen_range(0..out.len());
            let (round, ev) = out[i].clone();
            out.push((round + r.gen_range(0..3usize), ev));
        }
    }

    // Corrupt injections: each from its own corruptor source with a valid
    // first-and-only stamp, rotating through the malformed-target kinds.
    let gamma_len = spec.gamma().len();
    let len = spec.entity().len();
    let arity = spec.schema().arity();
    let max_round = out.iter().map(|(r, _)| *r).max().unwrap_or(0);
    for k in 0..cfg.corrupt {
        let source = SourceId(900 + k as u32);
        let mut vclock = VectorClock::new();
        vclock.observe(source, 1);
        let stamp = CausalStamp {
            source,
            hlc: Hlc::new(1, k as u32),
            vclock,
        };
        let rev = match k % 4 {
            0 => Revision::RetractCfd { cfd: gamma_len + 7 },
            1 => Revision::ReplaceValue {
                tuple: TupleId((len + 9) as u32),
                attr: AttrId(0),
                value: cr_types::Value::Null,
            },
            2 => Revision::WithdrawOrder {
                attr: AttrId((arity + 3) as u16),
                lo: TupleId(0),
                hi: TupleId(0),
            },
            _ => Revision::WithdrawAnswer {
                attr: AttrId(0),
                tuple: TupleId((len + 4) as u32),
            },
        };
        out.push((
            r.gen_range(0..=max_round.max(1)),
            CausalRevision { stamp, rev },
        ));
    }

    // Reorder within each round's batch (stable sort by round in
    // `ScriptedCausalRevisions::new` preserves the shuffled order).
    if cfg.reorder {
        let mut rounds: Vec<usize> = out.iter().map(|(round, _)| *round).collect();
        rounds.sort_unstable();
        rounds.dedup();
        let mut shuffled: Vec<(usize, CausalRevision)> = Vec::with_capacity(out.len());
        for round in rounds {
            let mut batch: Vec<CausalRevision> = out
                .iter()
                .filter(|(rd, _)| *rd == round)
                .map(|(_, ev)| ev.clone())
                .collect();
            batch.shuffle(&mut r);
            shuffled.extend(batch.into_iter().map(|ev| (round, ev)));
        }
        out = shuffled;
    }

    ScriptedCausalRevisions::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{causal_timeline, scenario_from_raw, CausalTimelineConfig, Scenario};
    use cr_core::causal::CausalRevisionSource;

    fn drain(src: &mut ScriptedCausalRevisions, spec: &Specification) -> Vec<CausalRevision> {
        let mut all = Vec::new();
        let mut round = 0;
        while src.remaining() > 0 {
            all.extend(src.poll(round, spec));
            round += 1;
        }
        all
    }

    #[test]
    fn chaos_preserves_the_event_multiset_modulo_faults() {
        let Scenario { spec, .. } = scenario_from_raw(3, 8, 5, 40, false);
        let timeline = causal_timeline(&spec, &CausalTimelineConfig::default());
        let cfg = ChaosConfig {
            seed: 9,
            duplicates: 3,
            corrupt: 2,
            ..ChaosConfig::adversarial(9)
        };
        let mut chaotic = chaos(&timeline, &spec, &cfg);
        let delivered = drain(&mut chaotic, &spec);
        assert_eq!(
            delivered.len(),
            timeline.len() + cfg.duplicates + cfg.corrupt
        );
        // Every original event survives (by stamp identity).
        for (_, ev) in &timeline {
            assert!(
                delivered.iter().any(|d| d.stamp == ev.stamp),
                "chaos must never drop events permanently"
            );
        }
        // Determinism: the same config reproduces the same fault schedule.
        let again = drain(&mut chaos(&timeline, &spec, &cfg), &spec);
        assert_eq!(delivered, again);
    }

    #[test]
    fn schedule_preserving_chaos_keeps_rounds() {
        let Scenario { spec, .. } = scenario_from_raw(5, 6, 4, 30, false);
        let timeline = causal_timeline(&spec, &CausalTimelineConfig::default());
        let mut chaotic = chaos(&timeline, &spec, &ChaosConfig::schedule_preserving(11));
        // Collect delivery rounds per original stamp: each original event
        // must still first arrive at its canonical round (duplicates may
        // trail later).
        let mut first_arrival = std::collections::BTreeMap::new();
        let mut round = 0;
        while chaotic.remaining() > 0 {
            for ev in chaotic.poll(round, &spec) {
                first_arrival.entry(ev.stamp.dedup_key()).or_insert(round);
            }
            round += 1;
        }
        for (canonical_round, ev) in &timeline {
            assert_eq!(
                first_arrival.get(&ev.stamp.dedup_key()),
                Some(canonical_round)
            );
        }
    }
}
