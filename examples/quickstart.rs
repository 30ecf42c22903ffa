//! Quickstart: the paper's running example (Example 2).
//!
//! Three conflicting records describe the nurse from the "V-J Day in Times
//! Square" photograph — none carries a timestamp. Currency constraints
//! (ϕ1–ϕ8) and constant CFDs (ψ1–ψ2) let the resolver infer her single
//! most-current, consistent tuple fully automatically.
//!
//! Run: `cargo run --example quickstart`

use conflict_resolution::core::framework::render_resolved;
use conflict_resolution::core::framework::{Resolver, SilentOracle};
use conflict_resolution::data::vjday;

fn main() {
    let spec = vjday::edith_spec();

    println!("Entity instance E1 (Fig. 2):");
    for (id, tuple) in spec.entity().iter() {
        println!("  r{}: {}", id.0 + 1, tuple.display(spec.schema()));
    }
    println!("\nCurrency constraints (Fig. 3):");
    for c in spec.sigma() {
        println!("  {c}");
    }
    println!("Constant CFDs (Fig. 3):");
    for c in spec.gamma() {
        println!("  {c}");
    }

    // Resolve with no user at all: Example 2 needs zero interactions.
    let outcome = Resolver::default_config().resolve(&spec, &mut SilentOracle);

    println!("\nvalid: {}", outcome.valid);
    println!(
        "complete: {} (rounds of user interaction: {})",
        outcome.complete, outcome.interactions
    );
    println!(
        "resolved tuple:\n  {}",
        render_resolved(spec.schema(), &outcome.resolved)
    );

    let truth = vjday::edith_truth();
    assert_eq!(
        outcome.resolved.to_tuple().expect("complete").values(),
        truth.values(),
        "must match the paper's derived tuple"
    );
    println!("\nmatches the paper's Example 2 exactly:");
    println!("  (Edith Shain, deceased, n/a, 3, LA, 213, 90058, Vermont)");
}
