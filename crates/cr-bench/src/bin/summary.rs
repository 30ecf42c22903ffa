//! Headline comparison of Section VI: unified currency+consistency vs the
//! `Pick` baseline, Σ-only and Γ-only, on all three datasets.
//!
//! Paper reference points: unified beats `Pick` by 201% on average;
//! Σ+Γ improves over Σ-only by 11% and over Γ-only by 236%; ≤ 2–3 rounds of
//! interaction suffice; F-measures at 100% constraints:
//! NBA 0.930 / CAREER 0.958 / Person 0.903 (Σ+Γ), 0.830 / 0.907 / 0.826
//! (Σ only) and 0.210 / 0.741 / 0.234 (Γ only).
//!
//! Run: `cargo run --release -p cr-bench --bin summary [--entities N]`.

use cr_bench::{arg_entities, arg_seed, print_table, run_dataset, run_pick, ConstraintMode};

fn main() {
    let n = arg_entities(60);
    let seed = arg_seed(0xD00D);
    let datasets = [
        cr_bench::quick::nba(n, seed),
        cr_bench::quick::career(n.min(65), seed),
        cr_bench::quick::person(n, seed),
    ];

    // Interaction budgets: the paper reports convergence within 2 rounds
    // for NBA and CAREER, 3 for Person (Fig. 8(e)/(i)/(m)).
    let budgets = [2usize, 2, 3];
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    let mut sigma_gain = Vec::new();
    let mut gamma_gain = Vec::new();
    for (ds, budget) in datasets.iter().zip(budgets) {
        let (both, rounds) = run_dataset(ds, ConstraintMode::Both, 1.0, budget, seed);
        let (sigma, _) = run_dataset(ds, ConstraintMode::SigmaOnly, 1.0, budget, seed);
        let (gamma, _) = run_dataset(ds, ConstraintMode::GammaOnly, 1.0, budget, seed);
        let pick = run_pick(ds, seed);
        let f_both = both.f_measure().f_measure;
        let f_sigma = sigma.f_measure().f_measure;
        let f_gamma = gamma.f_measure().f_measure;
        let f_pick = pick.f_measure().f_measure;
        rows.push(vec![
            ds.name.clone(),
            format!("{:.3}", f_both),
            format!("{:.3}", f_sigma),
            format!("{:.3}", f_gamma),
            format!("{:.3}", f_pick),
            rounds.to_string(),
        ]);
        if f_pick > 0.0 {
            ratios.push(f_both / f_pick);
        }
        if f_sigma > 0.0 {
            sigma_gain.push(f_both / f_sigma);
        }
        if f_gamma > 0.0 {
            gamma_gain.push(f_both / f_gamma);
        }
    }
    print_table(
        "Section VI summary (F-measure, 100% constraints, ground-truth oracle)",
        &[
            "dataset",
            "Sigma+Gamma",
            "Sigma only",
            "Gamma only",
            "Pick",
            "max rounds",
        ],
        &rows,
    );

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!();
    println!(
        "unified vs Pick: +{:.0}% (paper: +201%)",
        (avg(&ratios) - 1.0) * 100.0
    );
    println!(
        "unified vs Sigma-only: +{:.0}% (paper: +11%)",
        (avg(&sigma_gain) - 1.0) * 100.0
    );
    println!(
        "unified vs Gamma-only: +{:.0}% (paper: +236%)",
        (avg(&gamma_gain) - 1.0) * 100.0
    );
    for ds in &datasets {
        println!("{}: {}", ds.name, ds.stats());
    }
}
