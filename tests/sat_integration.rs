//! Cross-crate integration: the SAT/MaxSAT/clique substrates driven through
//! real encoded specifications.

use conflict_resolution::core::{deduce_order, naive_deduce, EncodedSpec};
use conflict_resolution::data::{nba, person, vjday};
use conflict_resolution::sat::{dimacs, SolveResult, Solver, UnitPropagator};

#[test]
fn encoded_specs_round_trip_through_dimacs() {
    let spec = vjday::edith_spec();
    let enc = EncodedSpec::encode(&spec);
    let text = dimacs::write(enc.cnf());
    let parsed = dimacs::parse(&text).expect("well-formed DIMACS");
    assert_eq!(parsed.num_vars(), enc.cnf().num_vars());
    assert_eq!(parsed.num_clauses(), enc.cnf().num_clauses());
    let mut a = Solver::from_cnf(enc.cnf());
    let mut b = Solver::from_cnf(&parsed);
    assert_eq!(a.solve(), b.solve());
}

#[test]
fn solver_models_satisfy_dataset_cnfs() {
    let ds = nba::generate(nba::NbaConfig { entities: 5, seed: 21, ..Default::default() });
    for i in 0..ds.len() {
        let enc = EncodedSpec::encode(&ds.spec(i));
        let mut solver = Solver::from_cnf(enc.cnf());
        assert_eq!(solver.solve(), SolveResult::Sat);
        let model = solver.model();
        assert!(enc.cnf().eval(&model), "model must satisfy Φ(Se)");
    }
}

#[test]
fn unit_propagation_agrees_with_cdcl_on_implied_literals() {
    let ds = person::generate(person::PersonConfig {
        entities: 4,
        min_tuples: 4,
        max_tuples: 25,
        seed: 33,
    });
    for i in 0..ds.len() {
        let enc = EncodedSpec::encode(&ds.spec(i));
        let mut up = UnitPropagator::new(enc.cnf());
        let implied = up.propagate_to_fixpoint().expect("valid spec");
        let mut solver = Solver::from_cnf(enc.cnf());
        assert_eq!(solver.solve(), SolveResult::Sat);
        for &lit in implied {
            assert_eq!(
                solver.solve_with_assumptions(&[lit.negate()]),
                SolveResult::Unsat,
                "UP literal must be CDCL-implied"
            );
        }
    }
}

#[test]
fn deduction_algorithms_agree_on_real_entities() {
    let ds = nba::generate(nba::NbaConfig { entities: 8, seed: 5, ..Default::default() });
    for i in 0..ds.len() {
        let enc = EncodedSpec::encode(&ds.spec(i));
        let up = deduce_order(&enc).expect("valid");
        let naive = naive_deduce(&enc).expect("valid");
        // DeduceOrder ⊆ NaiveDeduce, and in practice they find the same
        // orders on these instances (the paper's observation in Exp-2).
        for attr in ds.schema.attr_ids() {
            for (lo, hi) in up.pairs(attr) {
                assert!(naive.contains(attr, lo, hi));
            }
        }
        assert!(naive.size() >= up.size());
    }
}

#[test]
fn solver_statistics_accumulate() {
    let spec = vjday::george_spec();
    let enc = EncodedSpec::encode(&spec);
    let mut solver = Solver::from_cnf(enc.cnf());
    assert_eq!(solver.solve(), SolveResult::Sat);
    let stats = *solver.stats();
    assert!(stats.propagations > 0);
    // Re-solving keeps the solver usable and monotonically adds stats.
    assert_eq!(solver.solve(), SolveResult::Sat);
    assert!(solver.stats().propagations >= stats.propagations);
}
