//! Fluent programmatic construction of currency constraints.

use std::sync::Arc;

use cr_types::{Schema, Value};

use crate::currency::CurrencyConstraint;
use crate::error::ConstraintError;
use crate::op::CompOp;
use crate::predicate::{Predicate, TupleRef};

/// Builder for [`CurrencyConstraint`]s, resolving attribute names eagerly.
///
/// ```
/// use cr_types::Schema;
/// use cr_constraints::{CurrencyConstraintBuilder, CompOp};
///
/// let schema = Schema::new("person", ["status", "job", "kids"]).unwrap();
/// // phi1: t1[status]="working" && t2[status]="retired" -> t1 <[status] t2
/// let phi1 = CurrencyConstraintBuilder::new(&schema, "status").unwrap()
///     .t1_cmp_const("status", CompOp::Eq, "working").unwrap()
///     .t2_cmp_const("status", CompOp::Eq, "retired").unwrap()
///     .named("phi1")
///     .build().unwrap();
/// assert!(phi1.is_comparison_only());
/// ```
pub struct CurrencyConstraintBuilder {
    schema: Arc<Schema>,
    name: Option<String>,
    premises: Vec<Predicate>,
    conclusion: cr_types::AttrId,
}

impl CurrencyConstraintBuilder {
    /// Starts a constraint concluding `t1 ≺_conclusion t2`.
    pub fn new(schema: &Arc<Schema>, conclusion: &str) -> Result<Self, ConstraintError> {
        let attr = schema
            .attr_id(conclusion)
            .ok_or_else(|| ConstraintError::UnknownAttribute(conclusion.to_string()))?;
        Ok(CurrencyConstraintBuilder {
            schema: schema.clone(),
            name: None,
            premises: Vec::new(),
            conclusion: attr,
        })
    }

    /// Names the constraint (`phi1`, …).
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Adds an order premise `t1 ≺_attr t2`.
    pub fn order(mut self, attr: &str) -> Result<Self, ConstraintError> {
        let attr = self.resolve(attr)?;
        self.premises.push(Predicate::Order { attr });
        Ok(self)
    }

    /// Adds a tuple comparison `t1[attr] op t2[attr]`.
    pub fn tuple_cmp(mut self, attr: &str, op: CompOp) -> Result<Self, ConstraintError> {
        let attr = self.resolve(attr)?;
        self.premises.push(Predicate::TupleCmp { attr, op });
        Ok(self)
    }

    /// Adds a constant comparison `t1[attr] op c`.
    pub fn t1_cmp_const(
        self,
        attr: &str,
        op: CompOp,
        constant: impl Into<Value>,
    ) -> Result<Self, ConstraintError> {
        self.const_cmp(TupleRef::T1, attr, op, constant)
    }

    /// Adds a constant comparison `t2[attr] op c`.
    pub fn t2_cmp_const(
        self,
        attr: &str,
        op: CompOp,
        constant: impl Into<Value>,
    ) -> Result<Self, ConstraintError> {
        self.const_cmp(TupleRef::T2, attr, op, constant)
    }

    fn const_cmp(
        mut self,
        tuple: TupleRef,
        attr: &str,
        op: CompOp,
        constant: impl Into<Value>,
    ) -> Result<Self, ConstraintError> {
        let attr = self.resolve(attr)?;
        self.premises.push(Predicate::ConstCmp {
            tuple,
            attr,
            op,
            constant: constant.into(),
        });
        Ok(self)
    }

    fn resolve(&self, attr: &str) -> Result<cr_types::AttrId, ConstraintError> {
        self.schema
            .attr_id(attr)
            .ok_or_else(|| ConstraintError::UnknownAttribute(attr.to_string()))
    }

    /// Finalises the constraint.
    pub fn build(self) -> Result<CurrencyConstraint, ConstraintError> {
        CurrencyConstraint::new(self.schema, self.name, self.premises, self.conclusion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_currency_constraint;

    #[test]
    fn builder_matches_parser() {
        let s = Schema::new("person", ["status", "job", "kids"]).unwrap();
        let built = CurrencyConstraintBuilder::new(&s, "job")
            .unwrap()
            .order("status")
            .unwrap()
            .build()
            .unwrap();
        let parsed = parse_currency_constraint(&s, "t1 <[status] t2 -> t1 <[job] t2").unwrap();
        assert_eq!(built.premises(), parsed.premises());
        assert_eq!(built.conclusion_attr(), parsed.conclusion_attr());
    }

    #[test]
    fn builder_rejects_unknown_attrs() {
        let s = Schema::new("person", ["status"]).unwrap();
        assert!(CurrencyConstraintBuilder::new(&s, "nope").is_err());
        assert!(CurrencyConstraintBuilder::new(&s, "status")
            .unwrap()
            .order("nope")
            .is_err());
    }

    #[test]
    fn numeric_constants_convert() {
        let s = Schema::new("person", ["kids"]).unwrap();
        let c = CurrencyConstraintBuilder::new(&s, "kids")
            .unwrap()
            .t1_cmp_const("kids", CompOp::Lt, 3i64)
            .unwrap()
            .tuple_cmp("kids", CompOp::Lt)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(c.premises().len(), 2);
    }
}
