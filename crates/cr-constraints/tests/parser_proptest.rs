//! Property tests: Display → parse round trips for randomly built
//! constraints and CFDs.

use std::sync::Arc;

use proptest::prelude::*;

use cr_constraints::parser::{parse_cfds, parse_currency_constraint};
use cr_constraints::{CompOp, ConstantCfd, CurrencyConstraint, Predicate, TupleRef};
use cr_types::{AttrId, Schema, Value};

const ATTRS: &[&str] = &["alpha", "beta", "gamma", "delta"];

fn schema() -> Arc<Schema> {
    Schema::new("r", ATTRS.iter().copied()).unwrap()
}

fn op_strategy() -> impl Strategy<Value = CompOp> {
    prop_oneof![
        Just(CompOp::Eq),
        Just(CompOp::Neq),
        Just(CompOp::Lt),
        Just(CompOp::Leq),
        Just(CompOp::Gt),
        Just(CompOp::Geq),
    ]
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-100i64..100).prop_map(Value::int),
        "[a-z][a-z0-9_ ]{0,8}".prop_map(Value::str),
        "[a-z]{1,4}\"[a-z]{1,4}".prop_map(Value::str), // embedded quote
    ]
}

fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        (0..ATTRS.len()).prop_map(|a| Predicate::Order {
            attr: AttrId(a as u16)
        }),
        ((0..ATTRS.len()), op_strategy()).prop_map(|(a, op)| Predicate::TupleCmp {
            attr: AttrId(a as u16),
            op
        }),
        (
            prop_oneof![Just(TupleRef::T1), Just(TupleRef::T2)],
            0..ATTRS.len(),
            op_strategy(),
            value_strategy()
        )
            .prop_map(|(tuple, a, op, constant)| Predicate::ConstCmp {
                tuple,
                attr: AttrId(a as u16),
                op,
                constant,
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn currency_constraints_round_trip(
        premises in prop::collection::vec(predicate_strategy(), 0..4),
        conclusion in 0..ATTRS.len(),
        name in proptest::option::of("[a-z][a-z0-9]{0,6}"),
    ) {
        let s = schema();
        let built = CurrencyConstraint::new(
            s.clone(),
            name,
            premises,
            AttrId(conclusion as u16),
        )
        .expect("valid attrs");
        let text = built.to_string();
        let parsed = parse_currency_constraint(&s, &text)
            .unwrap_or_else(|e| panic!("failed to parse `{text}`: {e}"));
        prop_assert_eq!(parsed.premises(), built.premises(), "text: {}", text);
        prop_assert_eq!(parsed.conclusion_attr(), built.conclusion_attr());
        prop_assert_eq!(parsed.name(), built.name());
    }

    #[test]
    fn cfds_round_trip(
        lhs_attrs in prop::collection::btree_set(0..ATTRS.len() - 1, 0..3),
        lhs_vals in prop::collection::vec(value_strategy(), 3),
        rhs_val in value_strategy(),
    ) {
        let s = schema();
        let lhs: Vec<(AttrId, Value)> = lhs_attrs
            .iter()
            .zip(&lhs_vals)
            .filter(|(_, v)| !v.is_null())
            .map(|(&a, v)| (AttrId(a as u16), v.clone()))
            .collect();
        prop_assume!(!rhs_val.is_null());
        let built = ConstantCfd::new(
            s.clone(),
            None,
            lhs,
            (AttrId((ATTRS.len() - 1) as u16), rhs_val),
        )
        .expect("valid CFD");
        let text = built.to_string();
        let parsed = parse_cfds(&s, &text)
            .unwrap_or_else(|e| panic!("failed to parse `{text}`: {e}"));
        prop_assert_eq!(parsed.len(), 1);
        prop_assert_eq!(&parsed[0], &built, "text: {}", text);
    }
}
