//! Resolving a season of simulated NBA player records (Section VI, Exp-3).
//!
//! Generates the NBA-shaped dataset, resolves a handful of players with the
//! unified currency+consistency method, and compares against the
//! traditional `Pick` baseline.
//!
//! Run: `cargo run --release --example nba_roster`

use conflict_resolution::core::framework::render_resolved;
use conflict_resolution::core::framework::{GroundTruthOracle, ResolutionConfig, Resolver};
use conflict_resolution::core::{pick_baseline, Accuracy};
use conflict_resolution::data::nba::{self, NbaConfig};

fn main() {
    let ds = nba::generate(NbaConfig {
        entities: 25,
        seed: 42,
        ..Default::default()
    });
    println!("dataset: {}", ds.stats());

    let resolver = Resolver::new(ResolutionConfig {
        max_rounds: 2,
        ..Default::default()
    });
    let mut unified = Accuracy::new();
    let mut pick = Accuracy::new();

    for i in 0..ds.len() {
        let spec = ds.spec(i);
        let truth = ds.truth(i);
        let mut oracle = GroundTruthOracle::with_cap(truth.clone(), 1);
        let outcome = resolver.resolve(&spec, &mut oracle);
        unified.add_entity(&ds.entities[i].0, truth, &outcome.resolved);
        pick.add_entity(
            &ds.entities[i].0,
            truth,
            &pick_baseline(&spec, 42 + i as u64),
        );

        if i < 3 {
            println!(
                "\nplayer_{i}: {} tuples, {} interaction round(s)",
                ds.entities[i].0.len(),
                outcome.interactions
            );
            println!(
                "  resolved: {}",
                render_resolved(&ds.schema, &outcome.resolved)
            );
            println!("  truth:    {}", truth.display(&ds.schema));
        }
    }

    let fu = unified.f_measure();
    let fp = pick.f_measure();
    println!(
        "\n== accuracy over {} players (≤2 interaction rounds) ==",
        ds.len()
    );
    println!(
        "unified currency+consistency: P={:.3} R={:.3} F={:.3}",
        fu.precision, fu.recall, fu.f_measure
    );
    println!(
        "Pick baseline:                P={:.3} R={:.3} F={:.3}",
        fp.precision, fp.recall, fp.f_measure
    );
    println!(
        "improvement: {:+.0}% (the paper reports +201% averaged over its datasets)",
        (fu.f_measure / fp.f_measure - 1.0) * 100.0
    );
}
