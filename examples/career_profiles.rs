//! Resolving researcher profiles from publication records (the CAREER
//! dataset of Section VI).
//!
//! Each researcher has one tuple per publication carrying the affiliation,
//! city and country at publication time. Citation-derived currency
//! constraints ("a citing paper's affiliation is more current than the
//! cited paper's") and `affiliation → city, country` CFD patterns resolve
//! most profiles without any user input.
//!
//! Run: `cargo run --release --example career_profiles`

use conflict_resolution::core::framework::render_resolved;
use conflict_resolution::core::framework::{Resolver, SilentOracle};
use conflict_resolution::core::Accuracy;
use conflict_resolution::data::career::{self, CareerConfig};

fn main() {
    let ds = career::generate(CareerConfig {
        entities: 30,
        seed: 11,
        ..Default::default()
    });
    println!("dataset: {}", ds.stats());
    println!(
        "(paper: 65 researchers, 2–175 papers each, 503 citation constraints, 347 CFD patterns)\n"
    );

    let resolver = Resolver::default_config();
    let mut acc = Accuracy::new();
    let mut auto_resolved = 0;

    for i in 0..ds.len() {
        let spec = ds.spec(i);
        // SilentOracle: automatic deduction only (0 interactions).
        let outcome = resolver.resolve(&spec, &mut SilentOracle);
        if outcome.complete {
            auto_resolved += 1;
        }
        acc.add_entity(&ds.entities[i].0, ds.truth(i), &outcome.resolved);
        if i < 3 {
            println!(
                "researcher {i}: {} papers → {}",
                ds.entities[i].0.len(),
                render_resolved(&ds.schema, &outcome.resolved)
            );
        }
    }

    println!(
        "\nfully auto-resolved: {}/{} researchers",
        auto_resolved,
        ds.len()
    );
    println!(
        "true values found automatically: {:.0}% (paper: 78% for CAREER)",
        acc.true_value_fraction() * 100.0
    );
    let f = acc.f_measure();
    println!("0-interaction F-measure: {:.3}", f.f_measure);
}
