//! Fig. 8(a): validity-checking time vs entity-instance size.
//!
//! Paper series: NBA bins \[1,27\]…\[109,135\] with |Σ|=54, |Γ|=58 (≈220 ms at
//! the top bin on 2013 hardware); Person bins \[1,2000\]…\[8001,10000\] with
//! |Σ|=983, |Γ|=1000 (≈4.7 s at the top bin). The *shape* to reproduce:
//! time grows superlinearly with instance size and is dominated by the SAT
//! check; absolute numbers differ with hardware.
//!
//! Run: `cargo run --release -p cr-bench --bin fig8a_validity [--full]`.

use cr_bench::{
    arg_flag, arg_seed, bin_sizes, ms, nba_bins, person_bins, print_table, time_phases,
};
use cr_data::{nba, person};

fn main() {
    let seed = arg_seed(8);
    let full = arg_flag("full");
    let reps = 3;

    let mut rows = Vec::new();
    for (label, lo, hi) in nba_bins() {
        let sizes = bin_sizes(lo.max(2), hi, reps);
        let ds = nba::generate_with_sizes(&sizes, seed);
        let mut total = std::time::Duration::ZERO;
        for i in 0..ds.len() {
            total += time_phases(&ds.spec(i)).validity;
        }
        rows.push(vec![
            "NBA".into(),
            label,
            format!("{}", ds.stats().avg_tuples as usize),
            ms(total / ds.len() as u32),
        ]);
    }
    for (label, lo, hi) in person_bins(full) {
        let sizes = bin_sizes(lo, hi, reps);
        let ds = person::generate_with_sizes(&sizes, seed);
        let mut total = std::time::Duration::ZERO;
        for i in 0..ds.len() {
            total += time_phases(&ds.spec(i)).validity;
        }
        rows.push(vec![
            "Person".into(),
            label,
            format!("{}", ds.stats().avg_tuples as usize),
            ms(total / ds.len() as u32),
        ]);
    }
    print_table(
        "Fig. 8(a) — validity checking (IsValid = encode + SAT), avg per entity",
        &["dataset", "bin", "avg tuples", "time (ms)"],
        &rows,
    );
    println!(
        "\npaper reference: NBA [109,135] ≈ 220 ms; Person [8001,10000] ≈ 4700 ms (2013 hardware)"
    );
    if !full {
        println!("note: Person bins at 1/10 scale; pass --full for paper-scale sizes");
    }
}
