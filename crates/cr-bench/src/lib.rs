//! Shared experiment harness for reproducing Fig. 8(a)–(p) of the paper.
//!
//! Each `fig8*` binary regenerates one panel group; the `summary` binary prints the
//! headline comparisons of Section VI. Binaries accept `--entities N`,
//! `--seed S` and `--full` (paper-scale sizes) via simple flags; the soak
//! binaries also take `--seconds T`. A flag whose value is missing or does
//! not parse exits with status 2 ([`arg_or`]).

use std::str::FromStr;
use std::time::{Duration, Instant};

use cr_core::framework::{DeductionMethod, GroundTruthOracle, ResolutionConfig, Resolver};
use cr_core::sched::{resolve_batch, SchedulerConfig};
use cr_core::{
    deduce_order, naive_deduce, pick_baseline, true_values_from_orders, Accuracy, EncodedSpec,
    Specification,
};
use cr_data::Dataset;

/// Simple CLI boolean flag: `--name`.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == format!("--{name}"))
}

/// The value of `--name` in `args` parsed as a `T`: `Ok(None)` when the
/// flag is absent, `Err` naming the flag when it has no value or its value
/// does not parse.
pub fn parse_flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let flag = format!("--{name}");
    let Some(i) = args.iter().position(|a| *a == flag) else {
        return Ok(None);
    };
    let value = args.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{flag} takes a {}, got {value:?}", std::any::type_name::<T>()))
}

/// Parses `--name` from the command line, defaulting to `default` when the
/// flag is absent. A missing or malformed value prints a usage message and
/// exits with status 2 instead of silently running the default.
pub fn arg_or<T: FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    match parse_flag(&args, name) {
        Ok(value) => value.unwrap_or(default),
        Err(msg) => {
            let bin = args.first().map_or("cr-bench", String::as_str);
            eprintln!("{bin}: {msg}");
            std::process::exit(2);
        }
    }
}

/// Parses `--entities`, defaulting to `default`.
pub fn arg_entities(default: usize) -> usize {
    arg_or("entities", default)
}

/// Parses `--seed`, defaulting to `default`.
pub fn arg_seed(default: u64) -> u64 {
    arg_or("seed", default)
}

/// The NBA size bins of Fig. 8(a): `\[1,27\] … \[109,135\]`.
pub fn nba_bins() -> Vec<(String, usize, usize)> {
    vec![
        ("[1,27]".into(), 1, 27),
        ("[28,54]".into(), 28, 54),
        ("[55,81]".into(), 55, 81),
        ("[82,108]".into(), 82, 108),
        ("[109,135]".into(), 109, 135),
    ]
}

/// The Person size bins of Fig. 8(a): `\[1,2000\] … \[8001,10000\]`.
pub fn person_bins(full: bool) -> Vec<(String, usize, usize)> {
    if full {
        vec![
            ("[1,2000]".into(), 1, 2000),
            ("[2001,4000]".into(), 2001, 4000),
            ("[4001,6000]".into(), 4001, 6000),
            ("[6001,8000]".into(), 6001, 8000),
            ("[8001,10000]".into(), 8001, 10000),
        ]
    } else {
        // Quick mode: same bin structure at 1/10 scale.
        vec![
            ("[1,200]".into(), 1, 200),
            ("[201,400]".into(), 201, 400),
            ("[401,600]".into(), 401, 600),
            ("[601,800]".into(), 601, 800),
            ("[801,1000]".into(), 801, 1000),
        ]
    }
}

/// Midpoint sample sizes inside a bin.
pub fn bin_sizes(lo: usize, hi: usize, n: usize) -> Vec<usize> {
    (0..n)
        .map(|i| lo + (hi - lo) * (2 * i + 1) / (2 * n))
        .map(|s| s.max(1))
        .collect()
}

/// Measured phase times for one specification.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Encode + SAT validity check.
    pub validity: Duration,
    /// `DeduceOrder` (unit propagation) on the encoded spec.
    pub deduce: Duration,
    /// Suggestion generation.
    pub suggest: Duration,
}

/// Times the three framework phases on one specification (one round, no
/// user input) — the measurement behind Fig. 8(a)/(c)/(d).
pub fn time_phases(spec: &Specification) -> PhaseTimes {
    let t0 = Instant::now();
    let enc = EncodedSpec::encode(spec);
    let mut solver = cr_sat::Solver::from_cnf(enc.cnf());
    let valid = solver.solve() == cr_sat::SolveResult::Sat;
    let validity = t0.elapsed();
    if !valid {
        return PhaseTimes { validity, ..Default::default() };
    }
    let t1 = Instant::now();
    let od = deduce_order(&enc).expect("valid spec");
    let known = true_values_from_orders(&enc, &od);
    let deduce = t1.elapsed();
    let t2 = Instant::now();
    if !known.complete() {
        let _ = cr_core::suggest(spec, &enc, &od, &known);
    }
    let suggest = t2.elapsed();
    PhaseTimes { validity, deduce, suggest }
}

/// Times `DeduceOrder` vs `NaiveDeduce` on one spec (Fig. 8(b)): returns
/// (unit propagation, incremental NaiveDeduce, paper-faithful fresh-solver
/// NaiveDeduce).
pub fn time_deduction(spec: &Specification) -> (Duration, Duration, Duration) {
    let enc = EncodedSpec::encode(spec);
    let t0 = Instant::now();
    let up = deduce_order(&enc);
    let up_time = t0.elapsed();
    let t1 = Instant::now();
    let naive = naive_deduce(&enc);
    let naive_time = t1.elapsed();
    let t2 = Instant::now();
    let _ = cr_core::naive_deduce_fresh(&enc);
    let fresh_time = t2.elapsed();
    // Sanity: both agree on validity; naive is a superset.
    if let (Some(a), Some(b)) = (up, naive) {
        debug_assert!(b.size() >= a.size());
    }
    (up_time, naive_time, fresh_time)
}

/// Resolution modes measured in the accuracy sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConstraintMode {
    /// Scale both Σ and Γ by the fraction (Fig. 8(f)/(j)/(n)).
    Both,
    /// Scale Σ; Γ empty (Fig. 8(g)/(k)/(o)).
    SigmaOnly,
    /// Scale Γ; Σ empty (Fig. 8(h)/(l)/(p)).
    GammaOnly,
}

impl ConstraintMode {
    /// Applies the mode to a spec.
    pub fn apply(&self, spec: &Specification, frac: f64, seed: u64) -> Specification {
        match self {
            ConstraintMode::Both => spec.with_constraint_fraction(frac, frac, seed),
            ConstraintMode::SigmaOnly => spec.with_constraint_fraction(frac, 0.0, seed),
            ConstraintMode::GammaOnly => spec.with_constraint_fraction(0.0, frac, seed),
        }
    }
}

/// Runs conflict resolution over every entity of `dataset` with at most
/// `max_rounds` user interactions, returning the accuracy accumulator and
/// the largest number of rounds any entity used.
///
/// Entities are independent, so they are fanned out across all cores via
/// [`resolve_batch`]; accuracy is accumulated from the
/// in-order results, keeping the output deterministic.
pub fn run_dataset(
    dataset: &Dataset,
    mode: ConstraintMode,
    frac: f64,
    max_rounds: usize,
    seed: u64,
) -> (Accuracy, usize) {
    let config = ResolutionConfig {
        max_rounds,
        deduction: DeductionMethod::UnitPropagation,
        ..Default::default()
    };
    let resolver = Resolver::new(config);
    let specs: Vec<Specification> = (0..dataset.len())
        .map(|i| mode.apply(&dataset.spec(i), frac, seed))
        .collect();
    // Like the paper's simulated users, answer sparingly (one attribute
    // per round) — k rounds therefore cost k answers. With max_rounds == 0
    // the oracle is never consulted, matching the old SilentOracle branch.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (outcomes, _) = resolve_batch(
        &resolver,
        &specs,
        &|i| GroundTruthOracle::with_cap(dataset.truth(i).clone(), 1),
        &SchedulerConfig::with_workers(workers),
    );
    let mut acc = Accuracy::new();
    let mut max_used = 0;
    for (i, outcome) in outcomes.iter().enumerate() {
        acc.add_entity(&dataset.entities[i].0, dataset.truth(i), &outcome.resolved);
        max_used = max_used.max(outcome.interactions);
    }
    (acc, max_used)
}


/// Runs the `Pick` baseline over every entity.
pub fn run_pick(dataset: &Dataset, seed: u64) -> Accuracy {
    let mut acc = Accuracy::new();
    for i in 0..dataset.len() {
        let spec = dataset.spec(i);
        let picked = pick_baseline(&spec, seed.wrapping_add(i as u64));
        acc.add_entity(&dataset.entities[i].0, dataset.truth(i), &picked);
    }
    acc
}

/// Formats a duration in ms with 1 decimal.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

/// Prints an aligned table: header row then data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Standard quick-mode datasets used across binaries.
pub mod quick {
    use cr_data::career::{self, CareerConfig};
    use cr_data::nba::{self, NbaConfig};
    use cr_data::person::{self, PersonConfig};
    use cr_data::Dataset;

    /// NBA at reduced entity count for fast runs.
    pub fn nba(entities: usize, seed: u64) -> Dataset {
        nba::generate(NbaConfig { entities, seed, ..Default::default() })
    }

    /// CAREER at its natural size (65 entities).
    pub fn career(entities: usize, seed: u64) -> Dataset {
        career::generate(CareerConfig { entities, seed, ..Default::default() })
    }

    /// Person with moderate instances.
    pub fn person(entities: usize, seed: u64) -> Dataset {
        person::generate(PersonConfig {
            entities,
            min_tuples: 2,
            max_tuples: 60,
            seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::parse_flag;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_flag_reads_absent_valid_and_malformed_values() {
        let cmd = args(&["soak", "--seconds", "4.5", "--seed", "4O", "--entities"]);
        assert_eq!(parse_flag::<f64>(&cmd, "seconds"), Ok(Some(4.5)));
        assert_eq!(parse_flag::<u64>(&cmd, "rounds"), Ok(None));
        let malformed = parse_flag::<u64>(&cmd, "seed").unwrap_err();
        assert!(malformed.contains("--seed") && malformed.contains("4O"), "{malformed}");
        let missing = parse_flag::<usize>(&cmd, "entities").unwrap_err();
        assert!(missing.contains("needs a value"), "{missing}");
    }
}
