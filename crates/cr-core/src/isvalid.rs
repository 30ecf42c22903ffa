//! `IsValid`: validity checking via SAT (Section V-A, step (1) of Fig. 4).

use cr_sat::SolveResult;

use crate::encode::EncodedSpec;
use crate::spec::Specification;

/// Result of a validity check, carrying solver statistics for reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Validity {
    /// True iff the specification admits a valid completion.
    pub valid: bool,
    /// Conflicts the SAT search needed.
    pub conflicts: u64,
    /// Decisions the SAT search needed.
    pub decisions: u64,
}

/// Checks whether `spec` is valid: encodes it to `Φ(Se)` and runs the CDCL
/// solver (Lemma 5: `Se` is valid iff `Φ(Se)` is satisfiable).
pub fn is_valid(spec: &Specification) -> Validity {
    is_valid_encoded(&EncodedSpec::encode(spec))
}

/// Validity of an already encoded specification (avoids re-encoding when the
/// caller also needs the encoding for deduction). The solver comes from
/// [`EncodedSpec::fresh_solver`], so on a lazy encoding it holds the order
/// axioms as its theory and its answer is that of the eager formula.
pub fn is_valid_encoded(enc: &EncodedSpec) -> Validity {
    let mut solver = enc.fresh_solver();
    let valid = solver.solve() == SolveResult::Sat;
    Validity {
        valid,
        conflicts: solver.stats().conflicts,
        decisions: solver.stats().decisions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_constraints::parser::{parse_cfds, parse_currency_constraint};
    use cr_types::{EntityInstance, Schema, Tuple, Value};

    #[test]
    fn consistent_spec_is_valid() {
        let s = Schema::new("p", ["status"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::str("working")]),
                Tuple::of([Value::str("retired")]),
            ],
        )
        .unwrap();
        let sigma = vec![parse_currency_constraint(
            &s,
            r#"t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2"#,
        )
        .unwrap()];
        assert!(is_valid(&Specification::without_orders(e, sigma, vec![])).valid);
    }

    #[test]
    fn cyclic_constraints_are_invalid() {
        let s = Schema::new("p", ["status"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![Tuple::of([Value::str("a")]), Tuple::of([Value::str("b")])],
        )
        .unwrap();
        let sigma = vec![
            parse_currency_constraint(
                &s,
                r#"t1[status] = "a" && t2[status] = "b" -> t1 <[status] t2"#,
            )
            .unwrap(),
            parse_currency_constraint(
                &s,
                r#"t1[status] = "b" && t2[status] = "a" -> t1 <[status] t2"#,
            )
            .unwrap(),
        ];
        assert!(!is_valid(&Specification::without_orders(e, sigma, vec![])).valid);
    }

    #[test]
    fn conflicting_cfds_are_invalid() {
        // Two CFDs force different cities for the same forced AC top.
        let s = Schema::new("p", ["AC", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::int(213), Value::str("NY")]),
                Tuple::of([Value::int(213), Value::str("LA")]),
            ],
        )
        .unwrap();
        // AC has a single value → it is trivially the top → both CFDs fire;
        // they demand both NY ≺ LA and LA ≺ NY.
        let gamma = [
            parse_cfds(&s, "AC = 213 -> city = \"LA\"").unwrap(),
            parse_cfds(&s, "AC = 213 -> city = \"NY\"").unwrap(),
        ]
        .concat();
        assert!(!is_valid(&Specification::without_orders(e, vec![], gamma)).valid);
    }

    #[test]
    fn cfd_rhs_outside_domain_invalidates_when_forced() {
        let s = Schema::new("p", ["AC", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![Tuple::of([Value::int(213), Value::str("NY")])],
        )
        .unwrap();
        // AC=213 is the only AC value (always top); city LA unobtainable.
        let gamma = parse_cfds(&s, "AC = 213 -> city = \"LA\"").unwrap();
        assert!(!is_valid(&Specification::without_orders(e, vec![], gamma)).valid);
    }
}
