//! Fig. 8(f)–(h), (j)–(l), (n)–(p): F-measure while varying the available
//! constraints — |Σ|+|Γ| together, |Σ| alone, |Γ| alone — at 0, 1, 2 (and 3
//! for Person) interaction rounds, with the `Pick` baseline on the combined
//! panels.
//!
//! Paper reference values at 100% constraints: Σ+Γ 0.930/0.958/0.903,
//! Σ-only 0.830/0.907/0.826, Γ-only 0.210/0.741/0.234 for NBA/CAREER/Person;
//! Pick trails the unified method by 201% on average; more constraints ⇒
//! higher F; the top two interaction curves overlap.
//!
//! Run: `cargo run --release -p cr-bench --bin fig8_accuracy [--entities N]`.

use cr_bench::{arg_entities, arg_seed, print_table, run_dataset, run_pick, ConstraintMode};
use cr_data::Dataset;

fn sweep(ds: &Dataset, mode: ConstraintMode, rounds: &[usize], seed: u64) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for frac in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let mut row = vec![format!("{:.0}%", frac * 100.0)];
        for &k in rounds {
            let (acc, _) = run_dataset(ds, mode, frac, k, seed);
            row.push(format!("{:.3}", acc.f_measure().f_measure));
        }
        if mode == ConstraintMode::Both {
            let pick = run_pick(ds, seed);
            row.push(format!("{:.3}", pick.f_measure().f_measure));
        }
        rows.push(row);
    }
    rows
}

fn main() {
    let n = arg_entities(40);
    let seed = arg_seed(0xACC);
    let datasets = [
        (
            cr_bench::quick::nba(n, seed),
            vec![0usize, 1, 2],
            ["(f)", "(g)", "(h)"],
        ),
        (
            cr_bench::quick::career(n.min(65), seed),
            vec![0, 1, 2],
            ["(j)", "(k)", "(l)"],
        ),
        (
            cr_bench::quick::person(n, seed),
            vec![0, 1, 2, 3],
            ["(n)", "(o)", "(p)"],
        ),
    ];

    for (ds, rounds, panels) in &datasets {
        let round_headers: Vec<String> =
            rounds.iter().map(|k| format!("{k}-interaction")).collect();
        let mut header: Vec<&str> = vec!["% constraints"];
        header.extend(round_headers.iter().map(String::as_str));

        let mut both_header = header.clone();
        both_header.push("Pick");
        print_table(
            &format!(
                "Fig. 8{} — {}: F-measure varying |Σ|+|Γ|",
                panels[0], ds.name
            ),
            &both_header,
            &sweep(ds, ConstraintMode::Both, rounds, seed),
        );
        print_table(
            &format!(
                "Fig. 8{} — {}: F-measure varying |Σ| (Γ = ∅)",
                panels[1], ds.name
            ),
            &header,
            &sweep(ds, ConstraintMode::SigmaOnly, rounds, seed),
        );
        print_table(
            &format!(
                "Fig. 8{} — {}: F-measure varying |Γ| (Σ = ∅)",
                panels[2], ds.name
            ),
            &header,
            &sweep(ds, ConstraintMode::GammaOnly, rounds, seed),
        );
    }
    println!("\npaper reference at 100%: Σ+Γ 0.930 / 0.958 / 0.903,");
    println!("Σ-only 0.830 / 0.907 / 0.826, Γ-only 0.210 / 0.741 / 0.234 (NBA/CAREER/Person)");
}
