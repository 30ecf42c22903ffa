//! Fixtures shared by several integration-test binaries.

use conflict_resolution::constraints::parser::{parse_cfd_file, parse_currency_file};
use conflict_resolution::core::Specification;
use conflict_resolution::types::{EntityInstance, Schema, Tuple, Value};

/// A retraction-heavy population: every entity's truth carries an
/// out-of-domain `AC` and `city`, so the oracle's answers grow both value
/// spaces and delete the clauses of the CFDs over them mid-interaction. Γ
/// differs per entity (distinct CFD constants), so each entity compiles a
/// program of its own.
pub fn retraction_specs(entities: usize) -> Vec<(Specification, Tuple)> {
    let schema = Schema::new("p", ["status", "AC", "city"]).expect("static schema");
    let sigma = parse_currency_file(
        &schema,
        r#"phi1: t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2"#,
    )
    .expect("static constraints");
    (0..entities as i64)
        .map(|e| {
            let gamma = parse_cfd_file(
                &schema,
                &format!(
                    "psi1: AC = {} -> city = \"LA{e}\"\npsi2: AC = {} -> city = \"NY{e}\"",
                    201 + e,
                    200 + e
                ),
            )
            .expect("static CFDs");
            let row = |status: &str, ac: i64, city: String| {
                Tuple::of([Value::str(status), Value::int(ac), Value::str(city)])
            };
            let entity = EntityInstance::new(
                schema.clone(),
                vec![
                    row("working", 200 + e, format!("NY{e}")),
                    row("retired", 201 + e, format!("LA{e}")),
                    row("retired", 202 + e, format!("SF{e}")),
                ],
            )
            .expect("static entity");
            let spec = Specification::without_orders(entity, sigma.clone(), gamma);
            (spec, row("retired", 999 + e, format!("Boston{e}")))
        })
        .collect()
}
