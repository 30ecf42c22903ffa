//! Fig. 8(e)/(i)/(m): fraction of true attribute values found vs the number
//! of user-interaction rounds.
//!
//! Paper reference: with Σ+Γ and no interaction, 35% (NBA), 78% (CAREER)
//! and 22% (Person) of true values are deduced automatically; all true
//! values are found within 2, 2 and 3 rounds respectively.
//!
//! Run: `cargo run --release -p cr-bench --bin fig8_interactions [--entities N]`.

use cr_bench::{arg_entities, arg_seed, print_table, run_dataset, ConstraintMode};

fn main() {
    let n = arg_entities(50);
    let seed = arg_seed(0xE1);
    let datasets = [
        cr_bench::quick::nba(n, seed),
        cr_bench::quick::career(n.min(65), seed),
        cr_bench::quick::person(n, seed),
    ];

    let mut rows = Vec::new();
    for ds in &datasets {
        for k in 0..=3usize {
            let (acc, _) = run_dataset(ds, ConstraintMode::Both, 1.0, k, seed);
            rows.push(vec![
                ds.name.clone(),
                k.to_string(),
                format!("{:.3}", acc.true_value_fraction()),
                format!("{:.3}", acc.fully_resolved_fraction()),
            ]);
        }
    }
    print_table(
        "Fig. 8(e)/(i)/(m) — true values found vs interaction rounds (Σ+Γ)",
        &[
            "dataset",
            "rounds",
            "% true values",
            "% entities fully resolved",
        ],
        &rows,
    );
    println!("\npaper reference: 0-interaction 35% (NBA) / 78% (CAREER) / 22% (Person);");
    println!("all values found within 2 / 2 / 3 rounds");
}
