//! Authoring your own specification: text syntax, the builder API, validity
//! checking and conflict detection.
//!
//! Models a small device-inventory scenario: firmware versions only move
//! forward, a device's port count never shrinks, and the firmware's major
//! series determines the config format.
//!
//! Run: `cargo run --example custom_constraints`

use conflict_resolution::constraints::parser::{parse_cfd_file, parse_currency_file};
use conflict_resolution::constraints::{CompOp, CurrencyConstraintBuilder};
use conflict_resolution::core::framework::render_resolved;
use conflict_resolution::core::{
    deduce_order, is_valid, true_values_from_orders, EncodedSpec, Specification,
};
use conflict_resolution::types::{EntityInstance, Schema, Tuple, Value};

fn main() {
    let schema =
        Schema::new("device", ["serial", "firmware", "ports", "config_format"]).expect("schema");

    // Three observations of the same switch from different scans.
    let entity = EntityInstance::new(
        schema.clone(),
        vec![
            Tuple::of([
                Value::str("SW-001"),
                Value::str("v1"),
                Value::int(24),
                Value::str("ini"),
            ]),
            Tuple::of([
                Value::str("SW-001"),
                Value::str("v2"),
                Value::int(48),
                Value::str("ini"),
            ]),
            Tuple::of([
                Value::str("SW-001"),
                Value::str("v3"),
                Value::int(48),
                Value::str("yaml"),
            ]),
        ],
    )
    .expect("entity");

    // Text syntax (see cr-constraints::parser docs for the grammar).
    let mut sigma = parse_currency_file(
        &schema,
        r#"
        # firmware series only move forward
        fw12: t1[firmware] = "v1" && t2[firmware] = "v2" -> t1 <[firmware] t2
        fw23: t1[firmware] = "v2" && t2[firmware] = "v3" -> t1 <[firmware] t2
        # newer firmware implies the port reading is newer too
        prop: t1 <[firmware] t2 -> t1 <[ports] t2
        "#,
    )
    .expect("parse sigma");

    // The same thing programmatically, via the builder.
    sigma.push(
        CurrencyConstraintBuilder::new(&schema, "ports")
            .expect("attr")
            .tuple_cmp("ports", CompOp::Lt)
            .expect("attr")
            .named("ports_monotone")
            .build()
            .expect("constraint"),
    );

    let gamma = parse_cfd_file(
        &schema,
        r#"
        cfg3: firmware = "v3" -> config_format = "yaml"
        "#,
    )
    .expect("parse gamma");

    let spec = Specification::without_orders(entity, sigma, gamma);
    let validity = is_valid(&spec);
    println!("specification valid: {}", validity.valid);

    let enc = EncodedSpec::encode(&spec);
    let od = deduce_order(&enc).expect("valid");
    let values = true_values_from_orders(&enc, &od);
    println!("resolved: {}", render_resolved(&schema, &values));
    assert!(values.complete());

    // Now poison the constraint set with a contradictory rule: v3 → v1.
    let mut bad_sigma = spec.sigma().to_vec();
    bad_sigma.extend(
        parse_currency_file(
            &schema,
            r#"back: t1[firmware] = "v3" && t2[firmware] = "v1" -> t1 <[firmware] t2"#,
        )
        .expect("parse"),
    );
    let bad =
        Specification::without_orders(spec.entity().clone(), bad_sigma, spec.gamma().to_vec());
    let bad_validity = is_valid(&bad);
    println!(
        "with the contradictory rule the specification is valid: {} (conflicts seen by SAT: {})",
        bad_validity.valid, bad_validity.conflicts
    );
    assert!(
        !bad_validity.valid,
        "cycle v1 -> v2 -> v3 -> v1 must be detected"
    );
}
