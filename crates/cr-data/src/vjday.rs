//! The paper's running example: "V-J Day in Times Square" (Figs. 1–3).
//!
//! Entity instances `E1` (Edith Shain) and `E2` (George Mendonça) exactly as
//! in Fig. 2, the currency constraints ϕ1–ϕ8 and constant CFDs ψ1–ψ2 of
//! Fig. 3, and the true tuples the paper derives (Example 2 for Edith;
//! Example 6 for George).

use std::sync::Arc;

use cr_constraints::parser::{parse_cfd_file, parse_currency_file};
use cr_constraints::{ConstantCfd, CurrencyConstraint};
use cr_core::Specification;
use cr_types::{EntityInstance, Schema, Tuple, Value};

/// The `person` schema of Fig. 2.
pub fn schema() -> Arc<Schema> {
    Schema::new(
        "person",
        [
            "name", "status", "job", "kids", "city", "AC", "zip", "county",
        ],
    )
    .expect("static schema")
}

/// The currency constraints ϕ1–ϕ8 of Fig. 3.
pub fn sigma(schema: &Arc<Schema>) -> Vec<CurrencyConstraint> {
    parse_currency_file(
        schema,
        r#"
        phi1: t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2
        phi2: t1[status] = "retired" && t2[status] = "deceased" -> t1 <[status] t2
        phi3: t1[job] = "sailor" && t2[job] = "veteran" -> t1 <[job] t2
        phi4: t1[kids] < t2[kids] -> t1 <[kids] t2
        phi5: t1 <[status] t2 -> t1 <[job] t2
        phi6: t1 <[status] t2 -> t1 <[AC] t2
        phi7: t1 <[status] t2 -> t1 <[zip] t2
        phi8: t1 <[city] t2 && t1 <[zip] t2 -> t1 <[county] t2
        "#,
    )
    .expect("static constraints")
}

/// The constant CFDs ψ1–ψ2 of Fig. 3.
pub fn gamma(schema: &Arc<Schema>) -> Vec<ConstantCfd> {
    parse_cfd_file(
        schema,
        r#"
        psi1: AC = 213 -> city = "LA"
        psi2: AC = 212 -> city = "NY"
        "#,
    )
    .expect("static CFDs")
}

/// `E1`: the three tuples r1–r3 for Edith Shain (Fig. 2).
pub fn edith_instance() -> EntityInstance {
    let s = schema();
    EntityInstance::new(
        s,
        vec![
            Tuple::of([
                Value::str("Edith Shain"),
                Value::str("working"),
                Value::str("nurse"),
                Value::int(0),
                Value::str("NY"),
                Value::int(212),
                Value::str("10036"),
                Value::str("Manhattan"),
            ]),
            Tuple::of([
                Value::str("Edith Shain"),
                Value::str("retired"),
                Value::str("n/a"),
                Value::int(3),
                Value::str("SFC"),
                Value::int(415),
                Value::str("94924"),
                Value::str("Dogtown"),
            ]),
            Tuple::of([
                Value::str("Edith Shain"),
                Value::str("deceased"),
                Value::str("n/a"),
                Value::Null,
                Value::str("LA"),
                Value::int(213),
                Value::str("90058"),
                Value::str("Vermont"),
            ]),
        ],
    )
    .expect("static instance")
}

/// `E2`: the three tuples r4–r6 for George Mendonça (Fig. 2).
pub fn george_instance() -> EntityInstance {
    let s = schema();
    EntityInstance::new(
        s,
        vec![
            Tuple::of([
                Value::str("George Mendonca"),
                Value::str("working"),
                Value::str("sailor"),
                Value::int(0),
                Value::str("Newport"),
                Value::int(401),
                Value::str("02840"),
                Value::str("Rhode Island"),
            ]),
            Tuple::of([
                Value::str("George Mendonca"),
                Value::str("retired"),
                Value::str("veteran"),
                Value::int(2),
                Value::str("NY"),
                Value::int(212),
                Value::str("12404"),
                Value::str("Accord"),
            ]),
            Tuple::of([
                Value::str("George Mendonca"),
                Value::str("unemployed"),
                Value::str("n/a"),
                Value::int(2),
                Value::str("Chicago"),
                Value::int(312),
                Value::str("60653"),
                Value::str("Bronzeville"),
            ]),
        ],
    )
    .expect("static instance")
}

/// The specification of `E1` with the Fig. 3 constraints.
pub fn edith_spec() -> Specification {
    let s = schema();
    Specification::without_orders(edith_instance(), sigma(&s), gamma(&s))
}

/// The specification of `E2` with the Fig. 3 constraints.
pub fn george_spec() -> Specification {
    let s = schema();
    Specification::without_orders(george_instance(), sigma(&s), gamma(&s))
}

/// Edith's true tuple per Example 2: `(Edith Shain, deceased, n/a, 3, LA,
/// 213, 90058, Vermont)`.
pub fn edith_truth() -> Tuple {
    Tuple::of([
        Value::str("Edith Shain"),
        Value::str("deceased"),
        Value::str("n/a"),
        Value::int(3),
        Value::str("LA"),
        Value::int(213),
        Value::str("90058"),
        Value::str("Vermont"),
    ])
}

/// George's true tuple per Example 6: `(George, retired, veteran, 2, NY,
/// 212, 12404, Accord)`.
pub fn george_truth() -> Tuple {
    Tuple::of([
        Value::str("George Mendonca"),
        Value::str("retired"),
        Value::str("veteran"),
        Value::int(2),
        Value::str("NY"),
        Value::int(212),
        Value::str("12404"),
        Value::str("Accord"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::isvalid::is_valid;

    #[test]
    fn both_specs_are_valid() {
        assert!(is_valid(&edith_spec()).valid);
        assert!(is_valid(&george_spec()).valid);
    }

    #[test]
    fn constraint_counts_match_figure_3() {
        let s = schema();
        assert_eq!(sigma(&s).len(), 8);
        assert_eq!(gamma(&s).len(), 2);
    }

    #[test]
    fn instances_match_figure_2_shape() {
        assert_eq!(edith_instance().len(), 3);
        assert_eq!(george_instance().len(), 3);
        assert_eq!(schema().arity(), 8);
    }
}
