//! Fig. 8(b): deducing true values — `DeduceOrder` vs `NaiveDeduce`.
//!
//! Paper series (log scale): DeduceOrder ≈ 51 ms on NBA \[109,135\] and
//! ≈ 914 ms on Person \[8001,10000\]; NaiveDeduce ≈ 13 585 ms on NBA's top
//! bin and over 20 minutes on Person (not plotted). Shape to reproduce:
//! DeduceOrder scales roughly linearly in |Φ(Se)| and beats NaiveDeduce by
//! orders of magnitude, while deducing the same orders in practice.
//!
//! Run: `cargo run --release -p cr-bench --bin fig8b_deduce [--full]`.

use cr_bench::{
    arg_flag, arg_seed, bin_sizes, ms, nba_bins, person_bins, print_table, time_deduction,
};
use cr_data::{nba, person};

fn main() {
    let seed = arg_seed(8);
    let full = arg_flag("full");
    let reps = 3;

    let mut rows = Vec::new();
    let run_bins = |name: &str,
                    bins: Vec<(String, usize, usize)>,
                    person: bool,
                    rows: &mut Vec<Vec<String>>| {
        for (label, lo, hi) in bins {
            let sizes = bin_sizes(if person { lo } else { lo.max(2) }, hi, reps);
            let ds = if person {
                person::generate_with_sizes(&sizes, seed)
            } else {
                nba::generate_with_sizes(&sizes, seed)
            };
            let (mut up, mut naive, mut fresh) = (
                std::time::Duration::ZERO,
                std::time::Duration::ZERO,
                std::time::Duration::ZERO,
            );
            for i in 0..ds.len() {
                let (u, n, f) = time_deduction(&ds.spec(i));
                up += u;
                naive += n;
                fresh += f;
            }
            let n = ds.len() as u32;
            rows.push(vec![
                name.into(),
                label,
                ms(up / n),
                ms(naive / n),
                ms(fresh / n),
            ]);
        }
    };
    run_bins("NBA", nba_bins(), false, &mut rows);
    run_bins("Person", person_bins(full), true, &mut rows);
    print_table(
        "Fig. 8(b) — deducing true values, avg per entity",
        &[
            "dataset",
            "bin",
            "DeduceOrder (ms)",
            "NaiveDeduce incr. (ms)",
            "NaiveDeduce paper (ms)",
        ],
        &rows,
    );
    println!("\npaper reference: NBA top bin 51 ms vs 13585 ms; Person top bin 914 ms vs >20 min");
}
