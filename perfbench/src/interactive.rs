//! `interactive`: one simulated user on one thread, in a closed loop,
//! answering one attribute per round (the paper's setting). Entities are
//! conflict-dense: NBA and Person at the Fig. 8 bin sizes with a 0.6
//! constraint fraction, and wide-domain `cr_data::gen::scenario` entities,
//! half of whose true values lie outside the active domain, so answers grow
//! domains and retract CFD guards. Every entity runs through the session
//! API in `crate::drive`.
//!
//! The entity population is fixed; the seed draws the order in which the
//! user works through it, so runs under different seeds resolve the same
//! entities and measure the same constraint programs.

use std::sync::Arc;
use std::time::Instant;

use cr_core::framework::{GroundTruthOracle, ResolutionConfig, Resolver};
use cr_core::{CompiledProgram, Specification};
use cr_data::gen::{scenario, ScenarioConfig};
use cr_data::{nba, person, Dataset};
use cr_types::Tuple;

use crate::drive::{drive, scratch_config, set_engine_layers, Counts, Decided, Latencies};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{mix, pick, run_passes, set_user_metrics, Options, PassResult, Report, Scale};

/// The paper's constraint-subsampling fraction for |Σ| and |Γ|.
const CONSTRAINT_FRACTION: f64 = 0.6;
/// Seed of the fixed population (entities, and which 60% of Σ/Γ are kept).
const POPULATION_SEED: u64 = 0x1A7E_2AC7;

struct Sizes {
    /// NBA entities per Fig. 8(a) size bin (five bins up to 135 tuples).
    nba_per_bin: usize,
    /// Person entities, spread over 10–250 tuples.
    person: usize,
    /// Wide-domain scenario entities.
    wide: usize,
    /// Entities checked against the from-scratch loop.
    scratch_sample: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            nba_per_bin: 140,
            person: 200,
            wide: 120,
            scratch_sample: 12,
        },
        Scale::Small => Sizes {
            nba_per_bin: 2,
            person: 3,
            wide: 4,
            scratch_sample: 3,
        },
    }
}

/// A dataset whose entities share one Σ/Γ subset (and so one program).
struct Group {
    specs: Vec<Specification>,
    dataset: Dataset,
}

struct Inputs {
    groups: Vec<Group>,
    /// Wide scenarios carry their own programs, compiled at generation.
    wide: Vec<Specification>,
    /// `(group or usize::MAX for wide, index)` in the seeded visiting order.
    order: Vec<(usize, usize)>,
    truths: Vec<Tuple>,
}

fn generate(seed: u64, sz: &Sizes) -> Inputs {
    let bins = [(1, 27), (28, 54), (55, 81), (82, 108), (109, 135)];
    let nba_sizes: Vec<usize> = bins
        .iter()
        .flat_map(|&(lo, hi)| {
            (0..sz.nba_per_bin).map(move |k| lo + (hi - lo) * (2 * k + 1) / (2 * sz.nba_per_bin))
        })
        .collect();
    let person_sizes: Vec<usize> = (0..sz.person)
        .map(|k| 10 + (240 * k) / sz.person.max(1))
        .collect();
    let subsample = |ds: Dataset| Group {
        specs: (0..ds.len())
            .map(|i| {
                ds.spec(i).with_constraint_fraction(
                    CONSTRAINT_FRACTION,
                    CONSTRAINT_FRACTION,
                    POPULATION_SEED,
                )
            })
            .collect(),
        dataset: ds,
    };
    let groups = vec![
        subsample(nba::generate_with_sizes(&nba_sizes, POPULATION_SEED)),
        subsample(person::generate_with_sizes(
            &person_sizes,
            POPULATION_SEED + 1,
        )),
    ];
    let scenarios: Vec<_> = (0..sz.wide)
        .map(|k| {
            scenario(&ScenarioConfig {
                seed: POPULATION_SEED
                    .wrapping_mul(1_000_003)
                    .wrapping_add(k as u64),
                attrs: 5,
                tuples: 24 + (k % 2) * 8,
                domain: 48,
                sigma: 8,
                gamma: 3,
                order_density: 0.1,
                conflict_density: 1.0,
                null_density: 0.02,
                new_value_answers: k % 2 == 1,
            })
        })
        .collect();

    let mut order: Vec<(usize, usize)> = Vec::new();
    let mut truths = Vec::new();
    for (g, group) in groups.iter().enumerate() {
        for i in 0..group.specs.len() {
            order.push((g, i));
            truths.push(group.dataset.truth(i).clone());
        }
    }
    for (k, s) in scenarios.iter().enumerate() {
        order.push((usize::MAX, k));
        truths.push(s.truth.clone());
    }
    // A seeded interleaving, fixed for every pass of the run.
    let mut keyed: Vec<(u64, (usize, usize), Tuple)> = order
        .into_iter()
        .zip(truths)
        .enumerate()
        .map(|(j, (o, t))| (mix(seed ^ j as u64), o, t))
        .collect();
    keyed.sort_by_key(|(k, ..)| *k);
    Inputs {
        groups,
        wide: scenarios.into_iter().map(|s| s.spec).collect(),
        order: keyed.iter().map(|(_, o, _)| *o).collect(),
        truths: keyed.into_iter().map(|(.., t)| t).collect(),
    }
}

/// Fresh, program-less copies of the dataset entities, then the timed
/// set-up: one `CompiledProgram::compile` per dataset against its value
/// table, stamped on every entity. Returns the entities in visiting order
/// and the set-up time.
fn prepare(inputs: &Inputs) -> (Vec<Specification>, f64) {
    let fresh: Vec<Vec<Specification>> = inputs
        .groups
        .iter()
        .map(|g| {
            g.specs
                .iter()
                .map(|s| s.with_constraint_fraction(1.0, 1.0, 0))
                .collect()
        })
        .collect();
    let t = Instant::now();
    for (g, specs) in inputs.groups.iter().zip(&fresh) {
        let table = g.dataset.value_table().map(|t| t.as_ref());
        let program = Arc::new(CompiledProgram::compile(
            specs[0].sigma(),
            specs[0].gamma(),
            table,
        ));
        for s in specs {
            s.set_compiled_program(program.clone());
        }
    }
    let setup = t.elapsed().as_secs_f64();
    let specs = inputs
        .order
        .iter()
        .map(|&(g, i)| {
            if g == usize::MAX {
                inputs.wide[i].clone()
            } else {
                fresh[g][i].clone()
            }
        })
        .collect();
    (specs, setup)
}

struct Pass {
    wall_s: f64,
    lat: Latencies,
    counts: Counts,
    outcomes: Vec<Decided>,
}

fn pass(specs: &[Specification], truths: &[Tuple], tr: &Tracer) -> Pass {
    let config = ResolutionConfig::default();
    let mut lat = Latencies::default();
    let mut counts = Counts::default();
    let t = Instant::now();
    let outcomes = specs
        .iter()
        .zip(truths)
        .enumerate()
        .map(|(i, (spec, truth))| {
            let mut user = GroundTruthOracle::with_cap(truth.clone(), 1);
            drive(
                &config,
                spec,
                &mut user,
                tr,
                i as u64,
                &mut lat,
                &mut counts,
            )
        })
        .collect();
    Pass {
        wall_s: t.elapsed().as_secs_f64(),
        lat,
        counts,
        outcomes,
    }
}

pub fn run(opts: &Options) -> Report {
    let sz = sizes(opts.scale);
    let inputs = generate(opts.seed, &sz);
    let mut report = Report::default();

    let mut setups = Vec::new();
    let mut first: Option<(Vec<Specification>, Vec<Decided>)> = None;
    let passes = run_passes(opts.seconds, opts.trace, |tr| {
        let (specs, setup) = prepare(&inputs);
        setups.push(setup);
        let p = pass(&specs, &inputs.truths, tr);
        match &first {
            None => first = Some((specs, p.outcomes.clone())),
            Some((_, f)) => report.check(*f == p.outcomes, || {
                "interactive: a later pass decided differently".into()
            }),
        }
        (p.wall_s, p)
    });
    let (first_specs, outcomes) = first.expect("at least one pass");
    report.attempted = (passes.plain.len() + passes.traced.len()) as u64 * outcomes.len() as u64;

    // Output checks, outside the timed region: every driven resolution
    // against `Resolver::resolve`, a sample against the from-scratch loop.
    let resolver = Resolver::new(ResolutionConfig::default());
    for (i, (spec, truth)) in first_specs.iter().zip(&inputs.truths).enumerate() {
        let want = Decided::of(
            &resolver.resolve(spec, &mut GroundTruthOracle::with_cap(truth.clone(), 1)),
        );
        report.check(outcomes[i] == want, || {
            format!(
                "interactive: session drive of entity {i} gave {:?}, Resolver::resolve {want:?}",
                outcomes[i]
            )
        });
    }
    let scratch = Resolver::new(scratch_config());
    for i in pick(first_specs.len(), sz.scratch_sample, opts.seed) {
        let want = Decided::of(&scratch.resolve(
            &first_specs[i],
            &mut GroundTruthOracle::with_cap(inputs.truths[i].clone(), 1),
        ));
        report.check(outcomes[i].same_answer(&want), || {
            format!(
                "interactive: entity {i} drove to {:?}, from-scratch loop {want:?}",
                outcomes[i]
            )
        });
    }

    if !opts.trace {
        report.set("setup_s", median(&setups));
        let results: Vec<PassResult> = passes
            .plain
            .iter()
            .map(|p| PassResult {
                entities_per_s: p.outcomes.len() as f64 / p.wall_s,
                requests_per_s: (p.lat.first_response.len() + p.lat.round.len()) as f64 / p.wall_s,
                lat: p.lat.clone(),
            })
            .collect();
        set_user_metrics(&mut report, &results, opts.scale);
        return report;
    }
    passes.set_trace_metrics(&mut report, "interactive");
    set_engine_layers(&mut report, &passes.traced[0].counts, &passes);
    report
}
