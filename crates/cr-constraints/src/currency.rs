//! Currency constraints `∀t1,t2 (ω → t1 ≺_Ar t2)`.

use std::fmt;
use std::sync::Arc;

use cr_types::{AttrId, Schema, Tuple};

use crate::error::ConstraintError;
use crate::predicate::Predicate;

/// A currency constraint (Section II-A): whenever the premise `ω` holds for
/// a tuple pair `(t1, t2)`, `t2`'s value of the conclusion attribute is more
/// current than `t1`'s.
///
/// Unlike the denial constraints of the earlier currency model, these are
/// two-tuple constraints, which is what brings the inference problems down
/// from `Σp2`/`Πp2` to NP/coNP (Section IV).
#[derive(Clone, Debug)]
pub struct CurrencyConstraint {
    schema: Arc<Schema>,
    name: Option<String>,
    premises: Vec<Predicate>,
    conclusion_attr: AttrId,
}

impl CurrencyConstraint {
    /// Builds a constraint after validating every attribute id against
    /// `schema`.
    pub fn new(
        schema: Arc<Schema>,
        name: Option<String>,
        premises: Vec<Predicate>,
        conclusion_attr: AttrId,
    ) -> Result<Self, ConstraintError> {
        let check = |attr: AttrId| -> Result<(), ConstraintError> {
            if attr.index() >= schema.arity() {
                Err(ConstraintError::AttrOutOfRange(attr.0))
            } else {
                Ok(())
            }
        };
        check(conclusion_attr)?;
        for p in &premises {
            check(p.attr())?;
        }
        Ok(CurrencyConstraint {
            schema,
            name,
            premises,
            conclusion_attr,
        })
    }

    /// The schema the constraint is defined over.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Optional constraint name (e.g. `phi1`).
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// The premise conjuncts `ω`.
    pub fn premises(&self) -> &[Predicate] {
        &self.premises
    }

    /// The conclusion attribute `Ar` of `t1 ≺_Ar t2`.
    pub fn conclusion_attr(&self) -> AttrId {
        self.conclusion_attr
    }

    /// Every attribute the constraint references — premise attributes plus
    /// the conclusion — sorted and deduplicated. This is the projection key
    /// of the encoder's instantiation: tuple pairs agreeing on these
    /// attributes produce identical instance constraints. Derived once per
    /// dataset by the compiled constraint program; per-entity encoding must
    /// not recompute it.
    pub fn referenced_attrs(&self) -> Vec<AttrId> {
        let mut attrs: Vec<AttrId> = self
            .premises
            .iter()
            .map(|p| p.attr())
            .chain(std::iter::once(self.conclusion_attr))
            .collect();
        attrs.sort_unstable();
        attrs.dedup();
        attrs
    }

    /// Attributes of the order predicates in the premise.
    pub fn order_premise_attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.premises.iter().filter_map(|p| match p {
            Predicate::Order { attr } => Some(*attr),
            _ => None,
        })
    }

    /// True iff the premise contains no order predicates — i.e. `ω` is a
    /// conjunction of comparison predicates only. The `Pick` baseline of the
    /// experimental study is allowed to exploit exactly these constraints.
    pub fn is_comparison_only(&self) -> bool {
        self.premises.iter().all(|p| !p.is_order())
    }

    /// Evaluates every *comparison* conjunct of `ω` on the ordered pair
    /// `(t1, t2)`. `Some(false)` means the premise is false outright on this
    /// pair; `Some(true)` means all data conjuncts hold (any order conjuncts
    /// remain to be resolved symbolically); this is the data half of the
    /// paper's `ins(ω, s1, s2)` instantiation.
    pub fn comparisons_hold(&self, t1: &Tuple, t2: &Tuple) -> bool {
        self.premises
            .iter()
            .all(|p| p.eval_comparison(t1, t2).unwrap_or(true))
    }
}

impl fmt::Display for CurrencyConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(n) = &self.name {
            write!(f, "{n}: ")?;
        }
        write!(f, "forall t1,t2 (")?;
        for (i, p) in self.premises.iter().enumerate() {
            if i > 0 {
                write!(f, " && ")?;
            }
            write!(f, "{}", p.display(&self.schema))?;
        }
        write!(
            f,
            " -> t1 <[{}] t2)",
            self.schema.attr_name(self.conclusion_attr)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::CompOp;
    use crate::predicate::TupleRef;
    use cr_types::Value;

    fn schema() -> Arc<Schema> {
        Schema::new("person", ["status", "job", "kids"]).unwrap()
    }

    fn phi1(s: &Arc<Schema>) -> CurrencyConstraint {
        let status = s.attr_id("status").unwrap();
        CurrencyConstraint::new(
            s.clone(),
            Some("phi1".into()),
            vec![
                Predicate::ConstCmp {
                    tuple: TupleRef::T1,
                    attr: status,
                    op: CompOp::Eq,
                    constant: Value::str("working"),
                },
                Predicate::ConstCmp {
                    tuple: TupleRef::T2,
                    attr: status,
                    op: CompOp::Eq,
                    constant: Value::str("retired"),
                },
            ],
            status,
        )
        .unwrap()
    }

    #[test]
    fn comparisons_hold_is_directional() {
        let s = schema();
        let c = phi1(&s);
        let working = Tuple::of([Value::str("working"), Value::str("nurse"), Value::int(0)]);
        let retired = Tuple::of([Value::str("retired"), Value::Null, Value::int(3)]);
        assert!(c.comparisons_hold(&working, &retired));
        assert!(!c.comparisons_hold(&retired, &working));
    }

    #[test]
    fn order_premises_are_listed() {
        let s = schema();
        let status = s.attr_id("status").unwrap();
        let job = s.attr_id("job").unwrap();
        let c = CurrencyConstraint::new(
            s.clone(),
            None,
            vec![Predicate::Order { attr: status }],
            job,
        )
        .unwrap();
        assert_eq!(c.order_premise_attrs().collect::<Vec<_>>(), vec![status]);
        assert!(!c.is_comparison_only());
        assert!(phi1(&s).is_comparison_only());
    }

    #[test]
    fn out_of_range_attr_rejected() {
        let s = schema();
        assert!(CurrencyConstraint::new(s.clone(), None, vec![], AttrId(99)).is_err());
    }

    #[test]
    fn display_is_paper_like() {
        let s = schema();
        assert_eq!(
            phi1(&s).to_string(),
            "phi1: forall t1,t2 (t1[status] = \"working\" && t2[status] = \"retired\" -> t1 <[status] t2)"
        );
    }
}
