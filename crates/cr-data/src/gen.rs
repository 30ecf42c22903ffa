//! Seeded randomized scenario generator for differential testing.
//!
//! Unlike the shape-faithful dataset emulators ([`nba`](crate::nba),
//! [`person`](crate::person), [`career`](crate::career)), this module
//! produces *adversarial* single-entity specifications with controllable
//! knobs — attribute count, instance width, value-space width, conflict
//! density, base-order density, constraint/CFD counts, nulls, and whether
//! the ground truth carries values outside the active domain ("new
//! values") — for property tests that compare resolution paths (order
//! theory vs axiom clauses, incremental vs from-scratch) on inputs no
//! curated dataset would cover.
//!
//! Generation follows the paper's history model: every entity evolves along
//! a hidden timeline, each attribute stepping monotonically through a
//! ranked value pool (`conflict_density` controls how many states the
//! timeline visits, i.e. how wide the realised value space is). Currency
//! constraints are drawn consistent with that timeline — pattern
//! constraints order two ranked values, propagation constraints transfer
//! the order of one evolving attribute to another, the numeric attribute
//! gets the ϕ4-style comparison rule — so generated specifications are
//! almost always valid; CFDs sample attribute snapshots at random
//! timestamps and may genuinely conflict, which is part of the coverage
//! (both resolution paths must agree on invalid specifications too).

use cr_constraints::parser::{parse_cfds, parse_currency_constraint};
use cr_core::causal::CausalRevision;
use cr_core::ingest::{Revision, RevisionSource, ScriptedRevisions};
use cr_core::{PartialOrders, Specification};
use cr_types::{
    AttrId, CausalStamp, EntityInstance, Schema, SourceClock, SourceId, Tuple, TupleId, Value,
};
use rand::prelude::*;

use crate::gen_util::rng;

/// Knobs of one randomized scenario (see the module docs).
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// RNG seed; equal configs generate identical scenarios.
    pub seed: u64,
    /// Total attributes (≥ 2): attribute 0 is numeric ("seq"), the rest are
    /// labelled string attributes.
    pub attrs: usize,
    /// Tuples in the entity instance (the history length).
    pub tuples: usize,
    /// Value-pool size per attribute — the width ceiling of the realised
    /// value space (wide domains are what lazy transitivity targets).
    pub domain: usize,
    /// Currency constraints to generate.
    pub sigma: usize,
    /// Constant CFDs to generate.
    pub gamma: usize,
    /// Fraction of (attribute, tuple-pair) combinations given a base
    /// currency order (consistent with the hidden timeline).
    pub order_density: f64,
    /// Fraction of the value pool the timeline actually visits per
    /// attribute (≥ 2 states ⇒ the attribute genuinely conflicts).
    pub conflict_density: f64,
    /// Per-cell probability of a missing (null) value.
    pub null_density: f64,
    /// When true, roughly half the attributes get a ground-truth value
    /// outside the active domain, so oracle answers exercise the
    /// out-of-domain extension (and CFD retraction) paths.
    pub new_value_answers: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 0,
            attrs: 4,
            tuples: 8,
            domain: 6,
            sigma: 6,
            gamma: 2,
            order_density: 0.15,
            conflict_density: 0.6,
            null_density: 0.05,
            new_value_answers: false,
        }
    }
}

/// A generated scenario: the specification plus the simulated user's ground
/// truth (feed it to `GroundTruthOracle`).
pub struct Scenario {
    /// The single-entity specification.
    pub spec: Specification,
    /// Ground-truth current tuple (its values top the hidden timeline; with
    /// [`ScenarioConfig::new_value_answers`] some lie outside the active
    /// domain).
    pub truth: Tuple,
}

/// Generates one scenario from `cfg` (deterministic in `cfg`).
pub fn scenario(cfg: &ScenarioConfig) -> Scenario {
    let attrs = cfg.attrs.max(2);
    let tuples = cfg.tuples.max(1);
    let domain = cfg.domain.max(2);
    let mut r = rng(cfg.seed);

    let names: Vec<String> = std::iter::once("seq".to_string())
        .chain((1..attrs).map(|i| format!("a{i}")))
        .collect();
    let schema = Schema::new("scenario", names.iter().map(String::as_str)).unwrap();

    // Hidden timeline: each attribute visits `states[i]` of its `domain`
    // pool slots, stepping monotonically with the tuple timestamp.
    let states: Vec<usize> = (0..attrs)
        .map(|_| {
            let width = ((domain as f64) * cfg.conflict_density).round() as usize;
            width.clamp(2, domain).min(tuples.max(2))
        })
        .collect();
    let rank_at = |attr: usize, t: usize| -> usize {
        if tuples <= 1 {
            states[attr] - 1
        } else {
            states[attr]
                .saturating_sub(1)
                .min(states[attr] * t / tuples)
        }
    };
    let value_of = |attr: usize, rank: usize| -> Value {
        if attr == 0 {
            Value::int(rank as i64)
        } else {
            Value::str(format!("a{attr}_v{rank}"))
        }
    };

    // Entity instance: one tuple per timestamp, shuffled, with nulls mixed
    // in. Timestamp order is hidden from the instance (conflicts!).
    let mut stamps: Vec<usize> = (0..tuples).collect();
    stamps.shuffle(&mut r);
    let mut rows: Vec<Tuple> = Vec::with_capacity(tuples);
    for &t in &stamps {
        let values: Vec<Value> = (0..attrs)
            .map(|a| {
                if cfg.null_density > 0.0 && r.gen_bool(cfg.null_density.clamp(0.0, 1.0)) {
                    Value::Null
                } else {
                    value_of(a, rank_at(a, t))
                }
            })
            .collect();
        rows.push(Tuple::from_values(values));
    }
    // A scenario is a single-entity "dataset": intern its values into a
    // private table and (below) compile Σ/Γ against it once, so scenarios
    // exercise the compiled-program projection with dense-id constants
    // exactly like the shape-faithful dataset generators.
    let mut table = cr_types::ValueTable::new();
    table.intern_tuples(rows.iter());
    let entity = EntityInstance::with_table(schema.clone(), rows, &table).unwrap();

    // Base currency orders, consistent with the timeline: for a sampled
    // (attr, pair) the strictly older-ranked tuple sits below the newer.
    let mut orders = PartialOrders::empty(attrs);
    for a in 0..attrs {
        for i in 0..tuples {
            for j in 0..tuples {
                if i == j || !r.gen_bool(cfg.order_density.clamp(0.0, 1.0)) {
                    continue;
                }
                let (ri, rj) = (rank_at(a, stamps[i]), rank_at(a, stamps[j]));
                let attr = AttrId(a as u16);
                let (vi, vj) = (
                    entity.tuple(TupleId(i as u32)).get(attr),
                    entity.tuple(TupleId(j as u32)).get(attr),
                );
                if vi.is_null() || vj.is_null() {
                    continue;
                }
                if ri < rj {
                    orders.add(attr, TupleId(i as u32), TupleId(j as u32));
                } else if rj < ri {
                    orders.add(attr, TupleId(j as u32), TupleId(i as u32));
                }
            }
        }
    }

    // Currency constraints: pattern / propagation / numeric-comparison mix.
    let mut sigma = Vec::with_capacity(cfg.sigma);
    let mut numeric_done = false;
    for _ in 0..cfg.sigma {
        let form = r.gen_range(0..3u32);
        let text = match form {
            0 if !numeric_done => {
                numeric_done = true;
                "t1[seq] < t2[seq] -> t1 <[seq] t2".to_string()
            }
            1 if attrs > 1 => {
                // Pattern: two ranked values of one string attribute.
                let a = r.gen_range(1..attrs);
                if states[a] < 2 {
                    continue;
                }
                let lo = r.gen_range(0..states[a] - 1);
                let hi = r.gen_range(lo + 1..states[a]);
                format!(
                    "t1[{n}] = \"a{a}_v{lo}\" && t2[{n}] = \"a{a}_v{hi}\" -> t1 <[{n}] t2",
                    n = names[a]
                )
            }
            _ => {
                // Propagation between two distinct attributes.
                let a = r.gen_range(0..attrs);
                let mut b = r.gen_range(0..attrs);
                if a == b {
                    b = (b + 1) % attrs;
                }
                format!("t1 <[{}] t2 -> t1 <[{}] t2", names[a], names[b])
            }
        };
        sigma.push(parse_currency_constraint(&schema, &text).unwrap());
    }

    // CFDs: snapshot two attributes at a random timestamp. Snapshots at the
    // end of the timeline are truth-consistent derivation rules; earlier
    // ones may be dead (LHS dominated) or genuinely conflicting.
    let mut gamma = Vec::with_capacity(cfg.gamma);
    for _ in 0..cfg.gamma {
        if attrs < 2 {
            break;
        }
        let a = r.gen_range(1..attrs);
        let mut b = r.gen_range(1..attrs);
        if a == b {
            b = 1 + (b % (attrs - 1));
        }
        let t = r.gen_range(0..tuples);
        let text = format!(
            "{} = \"a{a}_v{}\" -> {} = \"a{b}_v{}\"",
            names[a],
            rank_at(a, t),
            names[b],
            rank_at(b, t),
        );
        gamma.extend(parse_cfds(&schema, &text).unwrap());
    }

    // Ground truth: the timeline's final state per attribute — or a value
    // beyond the pool when new-value answers are requested.
    let truth = Tuple::from_values(
        (0..attrs)
            .map(|a| {
                if cfg.new_value_answers && r.gen_bool(0.5) {
                    if a == 0 {
                        Value::int(domain as i64 + 1)
                    } else {
                        Value::str(format!("a{a}_new"))
                    }
                } else {
                    value_of(a, states[a] - 1)
                }
            })
            .collect(),
    );

    let spec = Specification::new(entity, orders, sigma, gamma);
    spec.set_compiled_program(std::sync::Arc::new(cr_core::CompiledProgram::compile(
        spec.sigma(),
        spec.gamma(),
        Some(&table),
    )));
    Scenario { spec, truth }
}

/// Knobs of a seeded **revision timeline**: a stream of upstream correction
/// events (CFD retractions, order withdrawals, value replacements, user
/// answer withdrawals) generated against a specification and spread over
/// the interaction rounds — the push-based ingestion counterpart of
/// [`ScenarioConfig`]. Feed the resulting source to
/// `Resolver::resolve_with_revisions` or the checked differential harness
/// (`cr_oracle::resolve_with_revisions_checked`).
#[derive(Clone, Debug)]
pub struct RevisionTimelineConfig {
    /// RNG seed; equal configs generate identical timelines.
    pub seed: u64,
    /// Scripted events to generate (the actually generated count can be
    /// lower when the specification has too few CFDs/orders to revise).
    pub events: usize,
    /// Rounds `0..rounds` over which the events are spread.
    pub rounds: usize,
    /// Batch-size knob: consecutive events are assigned to the *same*
    /// round in runs of `1..=burst`, so each poll hands the session a
    /// multi-event batch of roughly this size. `0`/`1` draw every event's
    /// round independently (the legacy per-event shape).
    pub burst: usize,
    /// Generate `RetractCfd` events (each CFD at most once).
    pub retract_cfds: bool,
    /// Generate `WithdrawOrder` events on the initial base orders.
    pub withdraw_orders: bool,
    /// Generate `ReplaceValue` events (shared, brand-new and null
    /// replacement values — exercising value revival, domain growth and
    /// retirement).
    pub replace_values: bool,
    /// Additionally withdraw one previously-given user answer per listed
    /// round (resolved dynamically at poll time — answer tuples only exist
    /// mid-resolution).
    pub withdraw_answer_rounds: Vec<usize>,
}

impl Default for RevisionTimelineConfig {
    fn default() -> Self {
        RevisionTimelineConfig {
            seed: 0,
            events: 4,
            rounds: 4,
            burst: 1,
            retract_cfds: true,
            withdraw_orders: true,
            replace_values: true,
            withdraw_answer_rounds: Vec::new(),
        }
    }
}

/// A seeded revision stream: a scripted timeline generated against the
/// initial specification, plus (optionally) dynamically-resolved user
/// answer withdrawals. Deterministic in its config.
pub struct GeneratedRevisions {
    script: ScriptedRevisions,
    withdraw_answer_rounds: Vec<usize>,
    initial_tuples: usize,
}

impl RevisionSource for GeneratedRevisions {
    fn poll(&mut self, round: usize, current: &Specification) -> Vec<Revision> {
        let mut out = self.script.poll(round, current);
        if self.withdraw_answer_rounds.contains(&round) {
            // Withdraw the earliest still-standing answer: the first
            // user-input tuple (ids beyond the initial instance) with a
            // non-null cell.
            'search: for t in self.initial_tuples..current.entity().len() {
                let tid = TupleId(t as u32);
                for attr in current.schema().attr_ids() {
                    if !current.entity().tuple(tid).get(attr).is_null() {
                        out.push(Revision::WithdrawAnswer { attr, tuple: tid });
                        break 'search;
                    }
                }
            }
        }
        out
    }
}

/// Generates a seeded revision timeline for `spec` (see
/// [`RevisionTimelineConfig`]). Event targets are drawn from the
/// specification's own structure: CFD retractions hit existing Γ indices
/// (each at most once), order withdrawals hit recorded base-order pairs
/// (each at most once), and value replacements pick an initial tuple and
/// attribute and rotate its value to a *shared* value (another tuple's),
/// a *brand-new* one, or null — covering revival, domain growth and
/// retirement of interned values.
pub fn revision_timeline(spec: &Specification, cfg: &RevisionTimelineConfig) -> GeneratedRevisions {
    let mut r = rng(cfg.seed ^ 0xC0FF_EE00_D00D_F00Du64);
    let entity = spec.entity();
    let arity = spec.schema().arity();

    let mut cfds: Vec<usize> = (0..spec.gamma().len()).collect();
    cfds.shuffle(&mut r);
    let mut orders: Vec<(AttrId, TupleId, TupleId)> = spec
        .schema()
        .attr_ids()
        .flat_map(|a| spec.orders().pairs(a).map(move |(t1, t2)| (a, t1, t2)))
        .collect();
    orders.shuffle(&mut r);

    let mut events: Vec<(usize, Revision)> = Vec::new();
    let mut fresh = 0usize;
    let rounds = cfg.rounds.max(1);
    // Burst state: `run_left` events still owed to `run_round` before the
    // next round draw — this is what makes polls multi-event batches.
    let burst = cfg.burst.max(1);
    let mut run_round = 0usize;
    let mut run_left = 0usize;
    for _ in 0..cfg.events {
        if run_left == 0 {
            run_round = r.gen_range(0..rounds);
            run_left = if burst > 1 {
                1 + r.gen_range(0..burst)
            } else {
                1
            };
        }
        run_left -= 1;
        let round = run_round;
        // Pick an event kind with remaining candidates; replacement is
        // always available on non-empty entities.
        let kind = r.gen_range(0..3u32);
        let rev = match kind {
            0 if cfg.retract_cfds && !cfds.is_empty() => Revision::RetractCfd {
                cfd: cfds.pop().expect("non-empty"),
            },
            1 if cfg.withdraw_orders && !orders.is_empty() => {
                let (attr, lo, hi) = orders.pop().expect("non-empty");
                Revision::WithdrawOrder { attr, lo, hi }
            }
            _ if cfg.replace_values && !entity.is_empty() => {
                let tuple = TupleId(r.gen_range(0..entity.len()) as u32);
                let attr = AttrId(r.gen_range(0..arity) as u16);
                let old = entity.tuple(tuple).get(attr);
                let value = match r.gen_range(0..4u32) {
                    // A value another tuple already carries (sharing or
                    // revival after an earlier replacement).
                    0 | 1 => {
                        let donor = TupleId(r.gen_range(0..entity.len()) as u32);
                        entity.tuple(donor).get(attr).clone()
                    }
                    // A brand-new value: grows the space mid-resolution.
                    2 => {
                        fresh += 1;
                        match old {
                            Value::Int(_) => Value::int(9_000 + fresh as i64),
                            _ => Value::str(format!("rev_{fresh}")),
                        }
                    }
                    // The source withdraws the cell entirely.
                    _ => Value::Null,
                };
                Revision::ReplaceValue { tuple, attr, value }
            }
            _ => continue,
        };
        events.push((round, rev));
    }

    GeneratedRevisions {
        script: ScriptedRevisions::new(events),
        withdraw_answer_rounds: cfg.withdraw_answer_rounds.clone(),
        initial_tuples: entity.len(),
    }
}

/// Knobs of a seeded **causal timeline**: a multi-source, causally-stamped
/// revision stream (the chaos-robust counterpart of
/// [`RevisionTimelineConfig`]). Every event carries a
/// `cr_types::CausalStamp` from its emitting source's `SourceClock`;
/// sources occasionally *sync* (observe another source's latest stamp),
/// creating genuine cross-source causal dependencies the delivery frontier
/// must respect. Event targets are globally unique for CFD retractions and
/// order withdrawals, so the canonical delivery of a clean timeline never
/// quarantines; value replacements deliberately revisit cells across
/// sources, producing causally-concurrent branch tips.
#[derive(Clone, Debug)]
pub struct CausalTimelineConfig {
    /// RNG seed; equal configs generate identical timelines.
    pub seed: u64,
    /// Remote correction sources (`SourceId(1)..=SourceId(sources)`;
    /// `SourceId(0)` is the local session).
    pub sources: usize,
    /// Events to generate (the actual count can be lower when the
    /// specification has too few CFDs/orders to revise).
    pub events: usize,
    /// Rounds `0..rounds` over which the canonical schedule is spread
    /// (nondecreasing with generation order, so canonical delivery is
    /// causally clean — zero buffering, zero duplicates).
    pub rounds: usize,
    /// Batch-size knob: round slots are drawn in runs of `1..=burst`
    /// events sharing one round, so each poll delivers a multi-event
    /// batch of roughly this size. `0`/`1` draw every slot independently
    /// (the legacy per-event shape).
    pub burst: usize,
    /// Per-event probability that the emitting source first observes
    /// another source's latest stamp (a causal dependency).
    pub sync_density: f64,
    /// Generate `RetractCfd` events (each CFD at most once, globally).
    pub retract_cfds: bool,
    /// Generate `WithdrawOrder` events (each base pair at most once,
    /// globally).
    pub withdraw_orders: bool,
    /// Generate `ReplaceValue` events (shared / brand-new / null values;
    /// repeated cells across sources are deliberate concurrency coverage).
    pub replace_values: bool,
}

impl Default for CausalTimelineConfig {
    fn default() -> Self {
        CausalTimelineConfig {
            seed: 0,
            sources: 3,
            events: 6,
            rounds: 3,
            burst: 1,
            sync_density: 0.35,
            retract_cfds: true,
            withdraw_orders: true,
            replace_values: true,
        }
    }
}

/// Generates a seeded causal timeline for `spec`: `(round, event)` pairs in
/// canonical order (generation order; rounds nondecreasing). Feed it to
/// `cr_core::causal::ScriptedCausalRevisions` for canonical delivery, or
/// through [`crate::chaos`] for adversarial delivery.
pub fn causal_timeline(
    spec: &Specification,
    cfg: &CausalTimelineConfig,
) -> Vec<(usize, CausalRevision)> {
    let mut r = rng(cfg.seed ^ 0xCA05_A117_BEEF_0001u64);
    let entity = spec.entity();
    let arity = spec.schema().arity();
    let sources = cfg.sources.max(1);

    let mut cfds: Vec<usize> = (0..spec.gamma().len()).collect();
    cfds.shuffle(&mut r);
    let mut orders: Vec<(AttrId, TupleId, TupleId)> = spec
        .schema()
        .attr_ids()
        .flat_map(|a| spec.orders().pairs(a).map(move |(t1, t2)| (a, t1, t2)))
        .collect();
    orders.shuffle(&mut r);

    // Emitter clocks plus each source's latest stamp (sync targets).
    let mut clocks: Vec<SourceClock> = (1..=sources)
        .map(|s| SourceClock::new(SourceId(s as u32)))
        .collect();
    let mut latest: Vec<Option<CausalStamp>> = vec![None; sources];

    // Canonical rounds: draw then sort, so generation order (= causal
    // order) is nondecreasing in rounds and delivers without buffering.
    // Bursts draw one round for a run of up to `burst` events, so polls
    // carry multi-event batches (sorting keeps runs contiguous).
    let rounds = cfg.rounds.max(1);
    let burst = cfg.burst.max(1);
    let mut slots: Vec<usize> = Vec::with_capacity(cfg.events);
    while slots.len() < cfg.events {
        let round = r.gen_range(0..rounds);
        let run = if burst > 1 {
            1 + r.gen_range(0..burst)
        } else {
            1
        };
        for _ in 0..run.min(cfg.events - slots.len()) {
            slots.push(round);
        }
    }
    slots.sort_unstable();

    let mut events: Vec<(usize, CausalRevision)> = Vec::new();
    let mut fresh = 0usize;
    for tick in 0..cfg.events {
        let kind = r.gen_range(0..3u32);
        let rev = match kind {
            0 if cfg.retract_cfds && !cfds.is_empty() => Revision::RetractCfd {
                cfd: cfds.pop().expect("non-empty"),
            },
            1 if cfg.withdraw_orders && !orders.is_empty() => {
                let (attr, lo, hi) = orders.pop().expect("non-empty");
                Revision::WithdrawOrder { attr, lo, hi }
            }
            _ if cfg.replace_values && !entity.is_empty() => {
                let tuple = TupleId(r.gen_range(0..entity.len()) as u32);
                let attr = AttrId(r.gen_range(0..arity) as u16);
                let old = entity.tuple(tuple).get(attr);
                let value = match r.gen_range(0..4u32) {
                    0 | 1 => {
                        let donor = TupleId(r.gen_range(0..entity.len()) as u32);
                        entity.tuple(donor).get(attr).clone()
                    }
                    2 => {
                        fresh += 1;
                        match old {
                            Value::Int(_) => Value::int(9_000 + fresh as i64),
                            _ => Value::str(format!("rev_{fresh}")),
                        }
                    }
                    _ => Value::Null,
                };
                Revision::ReplaceValue { tuple, attr, value }
            }
            _ => continue,
        };
        let src = r.gen_range(0..sources);
        // Occasional cross-source sync: the emitter observes another
        // source's latest stamp, so this event causally depends on it.
        if sources > 1 && r.gen_bool(cfg.sync_density.clamp(0.0, 1.0)) {
            let other = (src + 1 + r.gen_range(0..sources - 1)) % sources;
            if let Some(stamp) = &latest[other] {
                clocks[src].observe(stamp);
            }
        }
        let stamp = clocks[src].stamp(tick as u64 + 1);
        latest[src] = Some(stamp.clone());
        events.push((slots[events.len()], CausalRevision { stamp, rev }));
    }
    events
}

/// Knobs of a seeded **power-law dataset**: many independent entities
/// whose sizes follow a heavy-tailed (Pareto) distribution — the shape
/// of a dataset sweep through the scheduler (`cr_core::sched`). Most
/// entities are a few tuples, a few are hundreds.
///
/// Unlike [`ScenarioConfig`] (one adversarial entity per call, private
/// value table, private Σ/Γ), a power-law dataset shares one value pool,
/// one Σ/Γ set and one [`cr_core::CompiledProgram`] across every entity,
/// like a real dataset would: entities differ only in their instance and
/// base orders. Every attribute steps through the *same* global rank
/// timeline, so the shared CFDs (`aᵢ = v_k → aⱼ = v_k`) are consistent
/// with each entity's hidden history and generated specifications are
/// valid.
#[derive(Clone, Debug)]
pub struct PowerLawConfig {
    /// RNG seed; equal configs generate identical datasets.
    pub seed: u64,
    /// Entity count.
    pub entities: usize,
    /// Total attributes (≥ 2): attribute 0 is numeric ("seq").
    pub attrs: usize,
    /// Smallest entity (the Pareto scale parameter).
    pub min_tuples: usize,
    /// Size cap — the tail is clamped here.
    pub max_tuples: usize,
    /// Pareto shape α (> 0): smaller ⇒ heavier tail. Sizes are
    /// `min_tuples · u^(−1/α)` clamped to `max_tuples`.
    pub alpha: f64,
    /// Ranks in the global per-attribute value pool (the timeline length
    /// every attribute steps through).
    pub domain: usize,
    /// Currency constraints shared by all entities.
    pub sigma: usize,
    /// Constant CFDs shared by all entities.
    pub gamma: usize,
    /// Base-order edges per entity ≈ `order_density · tuples · attrs`
    /// (sampled linearly, consistent with the timeline).
    pub order_density: f64,
    /// The first `giants` entities are pinned to `max_tuples` — a
    /// deterministic way for tests to guarantee an oversized entity.
    pub giants: usize,
}

impl Default for PowerLawConfig {
    fn default() -> Self {
        PowerLawConfig {
            seed: 0,
            entities: 1_000,
            attrs: 4,
            min_tuples: 2,
            max_tuples: 384,
            alpha: 1.1,
            domain: 8,
            sigma: 5,
            gamma: 2,
            order_density: 0.5,
            giants: 0,
        }
    }
}

/// A seeded power-law dataset. Construction draws only the per-entity
/// *sizes* and the shared structure (schema, value pool, Σ/Γ, compiled
/// program); entities themselves are built on demand — [`Self::spec`]
/// for random access, [`Self::stream`] for a memory-bounded pass — so a
/// 10⁵-entity dataset can be resolved without ever materialising it.
pub struct PowerLawDataset {
    seed: u64,
    attrs: usize,
    states: usize,
    order_density: f64,
    sizes: Vec<usize>,
    schema: std::sync::Arc<Schema>,
    sigma: Vec<cr_constraints::currency::CurrencyConstraint>,
    gamma: Vec<cr_constraints::cfd::ConstantCfd>,
    table: cr_types::ValueTable,
    program: std::sync::Arc<cr_core::CompiledProgram>,
}

impl PowerLawDataset {
    /// Builds the shared structure and draws the size distribution
    /// (deterministic in `cfg`).
    pub fn new(cfg: &PowerLawConfig) -> Self {
        let attrs = cfg.attrs.max(2);
        let states = cfg.domain.max(2);
        let min_t = cfg.min_tuples.max(1);
        let max_t = cfg.max_tuples.max(min_t);
        let alpha = if cfg.alpha > 0.0 { cfg.alpha } else { 1.0 };

        let names: Vec<String> = std::iter::once("seq".to_string())
            .chain((1..attrs).map(|i| format!("a{i}")))
            .collect();
        let schema = Schema::new("powerlaw", names.iter().map(String::as_str)).unwrap();

        // Shared value pool: the full rank timeline of every attribute.
        let mut table = cr_types::ValueTable::new();
        for rank in 0..states {
            table.intern(&Value::int(rank as i64));
            for a in 1..attrs {
                table.intern(&Value::str(format!("a{a}_v{rank}")));
            }
        }

        // Pareto sizes (heavy tail, clamped), with optional pinned giants.
        let mut r = rng(cfg.seed ^ 0x9E37_79B9_7F4A_7C15u64);
        let sizes: Vec<usize> = (0..cfg.entities)
            .map(|i| {
                if i < cfg.giants {
                    return max_t;
                }
                let u: f64 = r.gen::<f64>().max(1e-9);
                let n = (min_t as f64) * u.powf(-1.0 / alpha);
                (n as usize).clamp(min_t, max_t)
            })
            .collect();

        // Shared Σ: the ϕ4-style numeric rule, then alternating pattern
        // and propagation constraints over the string attributes.
        let mut r = rng(cfg.seed ^ 0x5151_5151_0000_0001u64);
        let mut sigma = Vec::with_capacity(cfg.sigma.max(1));
        sigma
            .push(parse_currency_constraint(&schema, "t1[seq] < t2[seq] -> t1 <[seq] t2").unwrap());
        while sigma.len() < cfg.sigma.max(1) {
            let text = if r.gen_bool(0.5) && attrs > 1 {
                let a = r.gen_range(1..attrs);
                let lo = r.gen_range(0..states - 1);
                let hi = r.gen_range(lo + 1..states);
                format!(
                    "t1[{n}] = \"a{a}_v{lo}\" && t2[{n}] = \"a{a}_v{hi}\" -> t1 <[{n}] t2",
                    n = names[a]
                )
            } else {
                let a = r.gen_range(0..attrs);
                let b = (a + 1 + r.gen_range(0..attrs - 1)) % attrs;
                format!("t1 <[{}] t2 -> t1 <[{}] t2", names[a], names[b])
            };
            sigma.push(parse_currency_constraint(&schema, &text).unwrap());
        }

        // Shared Γ: same-rank snapshots. All attributes advance through
        // ranks in lockstep, so `aᵢ = v_k → aⱼ = v_k` holds on every
        // entity's timeline.
        let mut gamma = Vec::with_capacity(cfg.gamma);
        for _ in 0..cfg.gamma {
            if attrs < 3 {
                break;
            }
            let a = r.gen_range(1..attrs);
            let b = 1 + ((a - 1 + 1 + r.gen_range(0..attrs - 2)) % (attrs - 1));
            let k = r.gen_range(0..states);
            let text = format!(
                "{} = \"a{a}_v{k}\" -> {} = \"a{b}_v{k}\"",
                names[a], names[b]
            );
            gamma.extend(parse_cfds(&schema, &text).unwrap());
        }

        let program = std::sync::Arc::new(cr_core::CompiledProgram::compile(
            &sigma,
            &gamma,
            Some(&table),
        ));
        PowerLawDataset {
            seed: cfg.seed,
            attrs,
            states,
            order_density: cfg.order_density.clamp(0.0, 1.0),
            sizes,
            schema,
            sigma,
            gamma,
            table,
            program,
        }
    }

    /// Entity count.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether the dataset has no entities.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// The drawn per-entity sizes (tuples).
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Timeline rank of time `t` in an `n`-tuple entity (shared by all
    /// attributes — ranks advance in lockstep).
    fn rank_at(&self, t: usize, n: usize) -> usize {
        if n <= 1 {
            self.states - 1
        } else {
            (self.states - 1).min(self.states * t / n)
        }
    }

    fn value_of(&self, attr: usize, rank: usize) -> Value {
        if attr == 0 {
            Value::int(rank as i64)
        } else {
            Value::str(format!("a{attr}_v{rank}"))
        }
    }

    /// Builds entity `i` on demand (deterministic in `(seed, i)`): its
    /// shuffled history rows, timeline-consistent sampled base orders,
    /// shared Σ/Γ clones and the shared compiled program.
    pub fn spec(&self, i: usize) -> Specification {
        let n = self.sizes[i];
        let mut r = rng(self.seed
            ^ (i as u64)
                .wrapping_mul(0xD134_2543_DE82_EF95)
                .wrapping_add(1));
        let mut stamps: Vec<usize> = (0..n).collect();
        stamps.shuffle(&mut r);
        let rows: Vec<Tuple> = stamps
            .iter()
            .map(|&t| {
                Tuple::from_values(
                    (0..self.attrs)
                        .map(|a| self.value_of(a, self.rank_at(t, n)))
                        .collect(),
                )
            })
            .collect();
        let entity = EntityInstance::with_table(self.schema.clone(), rows, &self.table).unwrap();

        // Linear order sampling (quadratic sweeps would dwarf resolution
        // itself on the tail entities): `density · n · attrs` random
        // (attr, row-pair) draws, each edged consistently with the
        // timeline when the ranks differ.
        let mut orders = PartialOrders::empty(self.attrs);
        let draws = (self.order_density * n as f64 * self.attrs as f64) as usize;
        for _ in 0..draws {
            if n < 2 {
                break;
            }
            let a = AttrId(r.gen_range(0..self.attrs) as u16);
            let i1 = r.gen_range(0..n);
            let mut i2 = r.gen_range(0..n);
            if i1 == i2 {
                i2 = (i2 + 1) % n;
            }
            let (r1, r2) = (self.rank_at(stamps[i1], n), self.rank_at(stamps[i2], n));
            if r1 < r2 {
                orders.add(a, TupleId(i1 as u32), TupleId(i2 as u32));
            } else if r2 < r1 {
                orders.add(a, TupleId(i2 as u32), TupleId(i1 as u32));
            }
        }

        let spec = Specification::new(entity, orders, self.sigma.clone(), self.gamma.clone());
        spec.set_compiled_program(self.program.clone());
        spec
    }

    /// Ground truth of entity `i`: the top rank its timeline visits, per
    /// attribute. O(attrs) — usable without building the entity.
    pub fn truth(&self, i: usize) -> Tuple {
        let n = self.sizes[i];
        let top = self.rank_at(n.saturating_sub(1), n);
        Tuple::from_values((0..self.attrs).map(|a| self.value_of(a, top)).collect())
    }

    /// All specifications, materialised (small datasets / batch tests).
    pub fn specs(&self) -> Vec<Specification> {
        (0..self.len()).map(|i| self.spec(i)).collect()
    }

    /// A lazy pass over all entities in index order — the producer side
    /// of `cr_core::sched::resolve_stream`.
    pub fn stream(&self) -> impl Iterator<Item = Specification> + '_ {
        (0..self.len()).map(move |i| self.spec(i))
    }
}

/// Convenience: a scenario drawn from raw proptest-style integers, mapping
/// them onto the interesting ranges (used by the differential proptests).
pub fn scenario_from_raw(
    seed: u64,
    tuples: usize,
    domain: usize,
    density_pct: u32,
    new_values: bool,
) -> Scenario {
    scenario(&ScenarioConfig {
        seed,
        attrs: 3 + (seed % 3) as usize,
        tuples: tuples.clamp(2, 40),
        domain: domain.clamp(2, 24),
        sigma: 3 + (seed % 5) as usize,
        gamma: (seed % 4) as usize,
        order_density: f64::from(density_pct % 30) / 100.0,
        conflict_density: 0.3 + f64::from(density_pct % 70) / 100.0,
        null_density: f64::from(density_pct % 12) / 100.0,
        new_value_answers: new_values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::is_valid;

    #[test]
    fn scenarios_are_deterministic() {
        let cfg = ScenarioConfig {
            seed: 42,
            ..Default::default()
        };
        let a = scenario(&cfg);
        let b = scenario(&cfg);
        assert_eq!(a.truth.values(), b.truth.values());
        assert_eq!(a.spec.entity().len(), b.spec.entity().len());
        assert_eq!(a.spec.sigma().len(), b.spec.sigma().len());
        for (x, y) in a.spec.sigma().iter().zip(b.spec.sigma()) {
            assert_eq!(x.to_string(), y.to_string());
        }
    }

    #[test]
    fn scenarios_are_mostly_valid_and_conflicting() {
        let mut valid = 0;
        let mut with_conflicts = 0;
        for seed in 0..40 {
            let s = scenario(&ScenarioConfig {
                seed,
                gamma: 0,
                ..Default::default()
            });
            if is_valid(&s.spec).valid {
                valid += 1;
            }
            // At least one attribute realises ≥ 2 values.
            let e = s.spec.entity();
            if s.spec
                .schema()
                .attr_ids()
                .any(|a| e.active_domain(a).len() >= 2)
            {
                with_conflicts += 1;
            }
        }
        assert!(
            valid >= 38,
            "CFD-free timeline scenarios must be valid ({valid}/40)"
        );
        assert_eq!(with_conflicts, 40, "every scenario must have conflicts");
    }

    #[test]
    fn new_value_truths_leave_the_active_domain() {
        let mut saw_new = false;
        for seed in 0..20 {
            let s = scenario(&ScenarioConfig {
                seed,
                new_value_answers: true,
                null_density: 0.0,
                ..Default::default()
            });
            let e = s.spec.entity();
            for attr in s.spec.schema().attr_ids() {
                let v = s.truth.get(attr);
                if !v.is_null() && !e.active_domain(attr).contains(v) {
                    saw_new = true;
                }
            }
        }
        assert!(saw_new, "new-value truths must actually be out of domain");
    }

    #[test]
    fn revision_timelines_are_deterministic_and_well_targeted() {
        let s = scenario(&ScenarioConfig {
            seed: 11,
            gamma: 3,
            order_density: 0.3,
            ..Default::default()
        });
        let cfg = RevisionTimelineConfig {
            seed: 5,
            events: 8,
            rounds: 3,
            ..Default::default()
        };
        let drain = |mut src: GeneratedRevisions| -> Vec<Revision> {
            (0..4).flat_map(|r| src.poll(r, &s.spec)).collect()
        };
        let a = drain(revision_timeline(&s.spec, &cfg));
        let b = drain(revision_timeline(&s.spec, &cfg));
        assert_eq!(a, b, "equal configs must generate identical timelines");
        assert!(!a.is_empty());
        for rev in &a {
            match rev {
                Revision::RetractCfd { cfd } => assert!(*cfd < s.spec.gamma().len()),
                Revision::WithdrawOrder { attr, lo, hi } => {
                    assert!(
                        s.spec.orders().contains(*attr, *lo, *hi),
                        "withdraws real pairs"
                    );
                }
                Revision::ReplaceValue { tuple, .. } => {
                    assert!(tuple.index() < s.spec.entity().len());
                }
                Revision::WithdrawAnswer { .. } => panic!("not scripted statically"),
            }
        }
        // CFD retractions never repeat an index.
        let mut cfds: Vec<usize> = a
            .iter()
            .filter_map(|r| match r {
                Revision::RetractCfd { cfd } => Some(*cfd),
                _ => None,
            })
            .collect();
        let before = cfds.len();
        cfds.sort_unstable();
        cfds.dedup();
        assert_eq!(cfds.len(), before, "each CFD retracted at most once");
    }

    #[test]
    fn power_law_datasets_are_deterministic_heavy_tailed_and_shared() {
        let cfg = PowerLawConfig {
            seed: 3,
            entities: 400,
            max_tuples: 200,
            giants: 1,
            ..Default::default()
        };
        let a = PowerLawDataset::new(&cfg);
        let b = PowerLawDataset::new(&cfg);
        assert_eq!(a.sizes(), b.sizes(), "equal configs draw equal sizes");
        assert_eq!(a.sizes()[0], 200, "pinned giant");
        let small = a.sizes().iter().filter(|&&n| n <= 4).count();
        let large = a.sizes().iter().filter(|&&n| n >= 64).count();
        assert!(small > 200, "most entities are small ({small}/400)");
        assert!(large >= 1, "the tail reaches large entities");

        // On-demand builds are deterministic and share structure.
        let s1 = a.spec(7);
        let s2 = b.spec(7);
        assert_eq!(s1.entity().len(), s2.entity().len());
        for ((_, t1), (_, t2)) in s1.entity().iter().zip(s2.entity().iter()) {
            assert_eq!(t1.values(), t2.values());
        }
        assert_eq!(a.truth(7).values(), b.truth(7).values());
        assert!(
            std::sync::Arc::ptr_eq(s1.compiled_program(), a.spec(8).compiled_program()),
            "all entities share one compiled program"
        );

        // Timeline-consistent generation: entities are valid.
        let mut valid = 0;
        for i in 0..40 {
            if is_valid(&a.spec(i)).valid {
                valid += 1;
            }
        }
        assert_eq!(valid, 40, "lockstep timelines keep Σ/Γ consistent");
    }

    #[test]
    fn power_law_stream_matches_random_access() {
        let ds = PowerLawDataset::new(&PowerLawConfig {
            seed: 9,
            entities: 25,
            ..Default::default()
        });
        for (i, spec) in ds.stream().enumerate() {
            let direct = ds.spec(i);
            assert_eq!(spec.entity().len(), direct.entity().len());
            for ((_, t1), (_, t2)) in spec.entity().iter().zip(direct.entity().iter()) {
                assert_eq!(t1.values(), t2.values());
            }
        }
    }

    #[test]
    fn knobs_scale_the_scenario() {
        let wide = scenario(&ScenarioConfig {
            seed: 7,
            tuples: 30,
            domain: 20,
            conflict_density: 1.0,
            null_density: 0.0,
            ..Default::default()
        });
        let e = wide.spec.entity();
        let max_width = wide
            .spec
            .schema()
            .attr_ids()
            .map(|a| e.active_domain(a).len())
            .max()
            .unwrap();
        assert!(
            max_width >= 10,
            "wide config must realise wide domains, got {max_width}"
        );
        let narrow = scenario(&ScenarioConfig {
            seed: 7,
            tuples: 30,
            domain: 20,
            conflict_density: 0.1,
            null_density: 0.0,
            ..Default::default()
        });
        let e = narrow.spec.entity();
        let narrow_width = narrow
            .spec
            .schema()
            .attr_ids()
            .map(|a| e.active_domain(a).len())
            .max()
            .unwrap();
        assert!(
            narrow_width <= 3,
            "narrow config stays narrow, got {narrow_width}"
        );
    }
}
