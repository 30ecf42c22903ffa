//! Documents the gap between the paper's encoding (Section V-A:
//! transitivity and asymmetry, **no totality**) and the completion
//! semantics, and shows the totality clauses close it. See
//! `EncodedSpec::encode_paper_faithful` and the "Encoding kinds" section
//! of the encode module docs.

use proptest::prelude::*;

use cr_constraints::parser::parse_cfd_file;
use cr_oracle::bruteforce::brute_force_valid;
use cr_core::encode::EncodedSpec;
use cr_core::Specification;
use cr_sat::{SolveResult, Solver};
use cr_types::{EntityInstance, Schema, Tuple, Value};

/// A specification with **no** valid completion that the paper-faithful
/// encoding nevertheless reports satisfiable:
///
/// * `AC ∈ {212, 213}`, and both `AC=212 → city=LA` and `AC=213 → city=LA`;
///   whichever AC value ends up most current, the city must be LA;
/// * `city=LA → zip=1`, but `1 ∉ adom(zip)` — so the firing CFD cannot be
///   satisfied. Every completion is invalid.
///
/// Without totality clauses, the solver can leave the two AC values
/// *unordered*, firing neither AC-CFD, and (vacuously) satisfy everything.
fn gap_spec() -> Specification {
    let s = Schema::new("p", ["AC", "city", "zip"]).unwrap();
    let e = EntityInstance::new(
        s.clone(),
        vec![
            Tuple::of([Value::int(212), Value::str("NY"), Value::int(2)]),
            Tuple::of([Value::int(213), Value::str("LA"), Value::int(2)]),
        ],
    )
    .unwrap();
    let gamma = parse_cfd_file(
        &s,
        r#"
        AC = 212 -> city = "LA"
        AC = 213 -> city = "LA"
        city = "LA" -> zip = 1
        "#,
    )
    .unwrap();
    Specification::without_orders(e, vec![], gamma)
}

#[test]
fn paper_encoding_reports_an_invalid_spec_as_valid() {
    let spec = gap_spec();
    assert!(
        !brute_force_valid(&spec, 1_000_000),
        "semantically there is no valid completion"
    );

    // Paper-faithful: Φ(Se) is satisfiable — the documented gap.
    let paper = EncodedSpec::encode_paper_faithful(&spec);
    let mut solver = Solver::from_cnf(paper.cnf());
    assert_eq!(
        solver.solve(),
        SolveResult::Sat,
        "the paper's encoding misses this invalidity"
    );

    // With totality (our default) the encoding agrees with the semantics.
    let fixed = EncodedSpec::encode(&spec);
    let mut solver = Solver::from_cnf(fixed.cnf());
    assert_eq!(solver.solve(), SolveResult::Unsat);
}

#[test]
fn totality_never_changes_the_answer_on_satisfiable_side() {
    // If the totality encoding is SAT, the paper encoding must be too
    // (its clause set is a subset).
    let spec = gap_spec();
    let full = EncodedSpec::encode(&spec);
    let paper = EncodedSpec::encode_paper_faithful(&spec);
    assert!(paper.cnf().num_clauses() < full.cnf().num_clauses());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One-sided property on random CFD-only specs: paper-faithful validity
    /// is implied by semantic validity (it can only over-approximate).
    #[test]
    fn paper_encoding_over_approximates_validity(
        rows in prop::collection::vec(prop::collection::vec(0i64..3, 2), 1..4),
        cfds in prop::collection::vec((0i64..3, 0i64..3), 0..4),
    ) {
        let s = Schema::new("p", ["x", "y"]).unwrap();
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|r| Tuple::of([Value::int(r[0]), Value::int(r[1])]))
            .collect();
        let e = EntityInstance::new(s.clone(), tuples).unwrap();
        let gamma: Vec<_> = cfds
            .iter()
            .map(|(a, b)| {
                cr_constraints::ConstantCfd::new(
                    s.clone(),
                    None,
                    vec![(s.attr_id("x").unwrap(), Value::int(*a))],
                    (s.attr_id("y").unwrap(), Value::int(*b)),
                )
                .unwrap()
            })
            .collect();
        let spec = Specification::without_orders(e, vec![], gamma);
        let semantic = brute_force_valid(&spec, 1_000_000);
        let paper = EncodedSpec::encode_paper_faithful(&spec);
        let mut solver = Solver::from_cnf(paper.cnf());
        let paper_valid = solver.solve() == SolveResult::Sat;
        // semantic ⇒ paper_valid.
        prop_assert!(!semantic || paper_valid);
        // And the default encoding is exact.
        let fixed = EncodedSpec::encode(&spec);
        let mut solver = Solver::from_cnf(fixed.cnf());
        prop_assert_eq!(solver.solve() == SolveResult::Sat, semantic);
    }
}
