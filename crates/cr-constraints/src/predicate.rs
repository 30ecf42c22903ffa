//! Predicates appearing in the premise `ω` of a currency constraint.

use std::fmt;

use cr_types::{AttrId, Schema, Tuple, Value};

use crate::op::CompOp;

/// Which of the two universally quantified tuples a constant comparison
/// refers to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TupleRef {
    /// The first tuple, `t1`.
    T1,
    /// The second tuple, `t2`.
    T2,
}

impl TupleRef {
    /// Selects the referenced tuple from the pair.
    pub fn pick<'a>(self, t1: &'a Tuple, t2: &'a Tuple) -> &'a Tuple {
        match self {
            TupleRef::T1 => t1,
            TupleRef::T2 => t2,
        }
    }
}

/// One conjunct of a premise `ω` (Section II-A):
///
/// 1. `t1 ≺_Al t2` — an order predicate, resolved symbolically by the
///    encoder;
/// 2. `t1[Al] op t2[Al]` — a tuple comparison, evaluated directly on data;
/// 3. `ti[Al] op c` — a constant comparison, evaluated directly on data.
#[derive(Clone, PartialEq, Debug)]
pub enum Predicate {
    /// `t1 ≺_attr t2`.
    Order {
        /// The attribute whose currency order is referenced.
        attr: AttrId,
    },
    /// `t1[attr] op t2[attr]`.
    TupleCmp {
        /// Compared attribute.
        attr: AttrId,
        /// Comparison operator.
        op: CompOp,
    },
    /// `tuple[attr] op constant`.
    ConstCmp {
        /// Which tuple is compared.
        tuple: TupleRef,
        /// Compared attribute.
        attr: AttrId,
        /// Comparison operator.
        op: CompOp,
        /// The constant right-hand side.
        constant: Value,
    },
}

impl Predicate {
    /// True iff this is an order predicate (encoder-resolved).
    pub fn is_order(&self) -> bool {
        matches!(self, Predicate::Order { .. })
    }

    /// Evaluates a *comparison* predicate on a concrete tuple pair; order
    /// predicates return `None` (they are not data-evaluable — the paper's
    /// `ins(ω, s1, s2)` keeps them as `≺v` literals).
    ///
    /// Comparisons involving a null operand evaluate to **false** (SQL-style
    /// three-valued logic): a missing value asserts nothing about currency.
    /// The paper's `null < k` reading of ϕ4 (Example 2(b)) is still honoured
    /// because nulls are ranked strictly lowest by the encoder's bottom
    /// axioms; evaluating `null < k` to *true* here would instead let a
    /// user-input tuple (null on unanswered attributes, Section III) fire
    /// constraints claiming its answers are *stale* — a contradiction.
    pub fn eval_comparison(&self, t1: &Tuple, t2: &Tuple) -> Option<bool> {
        match self {
            Predicate::Order { .. } => None,
            Predicate::TupleCmp { attr, op } => {
                let (a, b) = (t1.get(*attr), t2.get(*attr));
                Some(!a.is_null() && !b.is_null() && op.eval(a, b))
            }
            Predicate::ConstCmp {
                tuple,
                attr,
                op,
                constant,
            } => {
                let a = tuple.pick(t1, t2).get(*attr);
                Some(!a.is_null() && !constant.is_null() && op.eval(a, constant))
            }
        }
    }

    /// The attribute the predicate touches.
    pub fn attr(&self) -> AttrId {
        match self {
            Predicate::Order { attr }
            | Predicate::TupleCmp { attr, .. }
            | Predicate::ConstCmp { attr, .. } => *attr,
        }
    }

    /// Renders the predicate with attribute names from `schema`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> PredicateDisplay<'a> {
        PredicateDisplay { pred: self, schema }
    }
}

/// Pretty-printer for a predicate in the paper's syntax.
pub struct PredicateDisplay<'a> {
    pred: &'a Predicate,
    schema: &'a Schema,
}

impl fmt::Display for PredicateDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pred {
            Predicate::Order { attr } => {
                write!(f, "t1 <[{}] t2", self.schema.attr_name(*attr))
            }
            Predicate::TupleCmp { attr, op } => {
                let a = self.schema.attr_name(*attr);
                write!(f, "t1[{a}] {op} t2[{a}]")
            }
            Predicate::ConstCmp {
                tuple,
                attr,
                op,
                constant,
            } => {
                let t = match tuple {
                    TupleRef::T1 => "t1",
                    TupleRef::T2 => "t2",
                };
                let a = self.schema.attr_name(*attr);
                write!(f, "{t}[{a}] {op} ")?;
                crate::fmt_util::write_constant(f, constant)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_types::Tuple;

    fn schema() -> std::sync::Arc<Schema> {
        Schema::new("r", ["status", "kids"]).unwrap()
    }

    #[test]
    fn tuple_cmp_eval() {
        let s = schema();
        let kids = s.attr_id("kids").unwrap();
        let p = Predicate::TupleCmp {
            attr: kids,
            op: CompOp::Lt,
        };
        let t1 = Tuple::of([Value::str("working"), Value::int(0)]);
        let t2 = Tuple::of([Value::str("retired"), Value::int(3)]);
        assert_eq!(p.eval_comparison(&t1, &t2), Some(true));
        assert_eq!(p.eval_comparison(&t2, &t1), Some(false));
    }

    #[test]
    fn const_cmp_eval_and_tuple_ref() {
        let s = schema();
        let status = s.attr_id("status").unwrap();
        let p = Predicate::ConstCmp {
            tuple: TupleRef::T2,
            attr: status,
            op: CompOp::Eq,
            constant: Value::str("retired"),
        };
        let t1 = Tuple::of([Value::str("working"), Value::int(0)]);
        let t2 = Tuple::of([Value::str("retired"), Value::int(3)]);
        assert_eq!(p.eval_comparison(&t1, &t2), Some(true));
        assert_eq!(p.eval_comparison(&t2, &t1), Some(false));
    }

    #[test]
    fn order_predicate_is_symbolic() {
        let s = schema();
        let status = s.attr_id("status").unwrap();
        let p = Predicate::Order { attr: status };
        let t = Tuple::of([Value::Null, Value::Null]);
        assert!(p.is_order());
        assert_eq!(p.eval_comparison(&t, &t), None);
    }

    #[test]
    fn display_matches_parser_syntax() {
        let s = schema();
        let status = s.attr_id("status").unwrap();
        let kids = s.attr_id("kids").unwrap();
        assert_eq!(
            Predicate::Order { attr: status }.display(&s).to_string(),
            "t1 <[status] t2"
        );
        assert_eq!(
            Predicate::TupleCmp {
                attr: kids,
                op: CompOp::Lt
            }
            .display(&s)
            .to_string(),
            "t1[kids] < t2[kids]"
        );
        assert_eq!(
            Predicate::ConstCmp {
                tuple: TupleRef::T1,
                attr: status,
                op: CompOp::Eq,
                constant: Value::str("working"),
            }
            .display(&s)
            .to_string(),
            "t1[status] = \"working\""
        );
    }
}
