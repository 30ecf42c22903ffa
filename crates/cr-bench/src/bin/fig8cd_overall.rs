//! Fig. 8(c)/(d): overall conflict-resolution time, broken into validity
//! checking, true-value deducing and suggestion generation.
//!
//! Paper shape: validity checking (the SAT call) dominates; deducing takes
//! the least; one full interaction round on NBA ≈ 380 ms, Person entities
//! of 8k–10k tuples ≈ 7 s in total.
//!
//! Run: `cargo run --release -p cr-bench --bin fig8cd_overall [--full]`.

use std::time::Duration;

use cr_bench::{arg_flag, arg_seed, bin_sizes, ms, nba_bins, person_bins, print_table};
use cr_core::framework::{GroundTruthOracle, ResolutionConfig, Resolver};
use cr_data::{nba, person, Dataset};

fn measure(ds: &Dataset) -> (Duration, Duration, Duration) {
    let resolver = Resolver::new(ResolutionConfig {
        max_rounds: 3,
        ..Default::default()
    });
    let (mut v, mut d, mut s) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for i in 0..ds.len() {
        let mut oracle = GroundTruthOracle::with_cap(ds.truth(i).clone(), 1);
        let outcome = resolver.resolve(&ds.spec(i), &mut oracle);
        for round in &outcome.rounds {
            v += round.validity;
            d += round.deduce;
            s += round.suggest;
        }
    }
    let n = ds.len() as u32;
    (v / n, d / n, s / n)
}

fn main() {
    let seed = arg_seed(8);
    let full = arg_flag("full");
    let reps = 3;

    let mut rows = Vec::new();
    for (label, lo, hi) in nba_bins() {
        let ds = nba::generate_with_sizes(&bin_sizes(lo.max(2), hi, reps), seed);
        let (v, d, s) = measure(&ds);
        rows.push(vec![
            "NBA".into(),
            label,
            ms(v),
            ms(d),
            ms(s),
            ms(v + d + s),
        ]);
    }
    for (label, lo, hi) in person_bins(full) {
        let ds = person::generate_with_sizes(&bin_sizes(lo, hi, reps), seed);
        let (v, d, s) = measure(&ds);
        rows.push(vec![
            "Person".into(),
            label,
            ms(v),
            ms(d),
            ms(s),
            ms(v + d + s),
        ]);
    }
    print_table(
        "Fig. 8(c)/(d) — overall time per entity (all interaction rounds)",
        &[
            "dataset",
            "bin",
            "validity (ms)",
            "deduce (ms)",
            "suggest (ms)",
            "total (ms)",
        ],
        &rows,
    );
    println!("\npaper shape: validity dominates, deduce is the cheapest phase");
    println!("paper reference: one NBA round ≈ 380 ms; Person [8001,10000] ≈ 7 s total");
}
