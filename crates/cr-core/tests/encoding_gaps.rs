//! Documents the gap between the paper's encoding (Section V-A:
//! transitivity and asymmetry, **no totality**) and the completion
//! semantics, and shows the totality clauses close it. The paper's formula
//! is the reference CNF (`cr_store::reference_cnf`) without its totality
//! clauses; see the "One encoding, and the oracle's reference CNF" section
//! of the encode module docs.

use proptest::prelude::*;

use cr_constraints::parser::{parse_cfd_file, parse_cfds};
use cr_core::deduce::naive_deduce_on;
use cr_core::encode::EncodedSpec;
use cr_core::Specification;
use cr_oracle::bruteforce::brute_force_valid;
use cr_sat::{Cnf, SolveResult, Solver};
use cr_store::reference_cnf;
use cr_types::{EntityInstance, Schema, Tuple, Value};

/// Section V-A as written: Φ(Se) plus the asymmetry and transitivity
/// clauses — the reference CNF without its totality clauses, the only
/// clauses with two positive literals.
fn paper_cnf(enc: &EncodedSpec) -> Cnf {
    let mut cnf = reference_cnf(enc);
    let keep: Vec<bool> = cnf
        .clauses()
        .map(|c| c.iter().filter(|l| l.is_positive()).count() < 2)
        .collect();
    cnf.retain_clauses(|idx| keep[idx]);
    cnf
}

/// Satisfiability of a formula on a solver with no order domain.
fn satisfiable(cnf: &Cnf) -> bool {
    Solver::from_cnf(cnf).solve() == SolveResult::Sat
}

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

    // Paper-faithful: the formula is satisfiable — the documented gap.
    let enc = EncodedSpec::encode(&spec);
    assert!(
        satisfiable(&paper_cnf(&enc)),
        "the paper's encoding misses this invalidity"
    );

    // With totality the formula agrees with the semantics, and so does the
    // engine's order theory.
    assert!(!satisfiable(&reference_cnf(&enc)));
    assert_eq!(enc.fresh_solver().solve(), SolveResult::Unsat);
}

#[test]
fn paper_encoding_misses_disjunctive_facts() {
    // Γ forces city=LA whichever AC value tops: with ACs {212, 213} and
    // both CFDs pointing at LA, NY ≺ LA holds in all completions, and
    // NaiveDeduce finds it under totality
    // (`deduce::tests::naive_deduce_catches_disjunctive_inference_up_misses`).
    // Without the totality clauses it misses the fact, because the
    // formula then has models that are not completions.
    let s = Schema::new("p", ["AC", "city"]).unwrap();
    let e = EntityInstance::new(
        s.clone(),
        vec![
            Tuple::of([Value::int(212), Value::str("NY")]),
            Tuple::of([Value::int(213), Value::str("LA")]),
        ],
    )
    .unwrap();
    let gamma = [
        parse_cfds(&s, "AC = 212 -> city = \"LA\"").unwrap(),
        parse_cfds(&s, "AC = 213 -> city = \"LA\"").unwrap(),
    ]
    .concat();
    let spec = Specification::without_orders(e, vec![], gamma);
    let enc = EncodedSpec::encode(&spec);
    let city = spec.schema().attr_id("city").unwrap();
    let ny = enc.value_id(city, &Value::str("NY")).unwrap();
    let la = enc.value_id(city, &Value::str("LA")).unwrap();
    let naive = |cnf: &Cnf| naive_deduce_on(&mut Solver::from_cnf(cnf), &enc).unwrap();
    assert!(naive(&reference_cnf(&enc)).contains(city, ny, la));
    assert!(!naive(&paper_cnf(&enc)).contains(city, ny, la));
}

#[test]
fn totality_never_changes_the_answer_on_satisfiable_side() {
    // If the totality encoding is SAT, the paper encoding must be too
    // (its clause set is a subset).
    let enc = EncodedSpec::encode(&gap_spec());
    assert!(paper_cnf(&enc).num_clauses() < reference_cnf(&enc).num_clauses());
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
        let enc = EncodedSpec::encode(&spec);
        // semantic ⇒ paper-valid.
        prop_assert!(!semantic || satisfiable(&paper_cnf(&enc)));
        // And the reference and the engine's order theory are exact.
        prop_assert_eq!(satisfiable(&reference_cnf(&enc)), semantic);
        prop_assert_eq!(enc.fresh_solver().solve() == SolveResult::Sat, semantic);
    }
}
