//! Comparison operators for constraint predicates.

use std::cmp::Ordering;
use std::fmt;

use cr_types::Value;

/// The comparison operators allowed in currency-constraint predicates:
/// `=, ≠, <, ≤, >, ≥`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CompOp {
    /// `=`
    Eq,
    /// `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Leq,
    /// `>`
    Gt,
    /// `>=`
    Geq,
}

impl CompOp {
    /// Evaluates the operator over two values using the semantic value
    /// ordering (nulls lowest, numerics numeric, strings lexicographic).
    /// Incomparable values satisfy only `!=`.
    pub fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        match lhs.semantic_cmp(rhs) {
            Some(ord) => self.eval_ordering(ord),
            None => self == CompOp::Neq,
        }
    }

    /// Evaluates the operator against a known ordering.
    pub fn eval_ordering(self, ord: Ordering) -> bool {
        match self {
            CompOp::Eq => ord == Ordering::Equal,
            CompOp::Neq => ord != Ordering::Equal,
            CompOp::Lt => ord == Ordering::Less,
            CompOp::Leq => ord != Ordering::Greater,
            CompOp::Gt => ord == Ordering::Greater,
            CompOp::Geq => ord != Ordering::Less,
        }
    }

    /// The operator with operands swapped (`a op b` ⇔ `b op.flip() a`).
    #[must_use]
    pub fn flip(self) -> CompOp {
        match self {
            CompOp::Eq => CompOp::Eq,
            CompOp::Neq => CompOp::Neq,
            CompOp::Lt => CompOp::Gt,
            CompOp::Leq => CompOp::Geq,
            CompOp::Gt => CompOp::Lt,
            CompOp::Geq => CompOp::Leq,
        }
    }

    /// Parses the ASCII spelling (`=`, `!=`, `<`, `<=`, `>`, `>=`).
    pub fn parse(s: &str) -> Option<CompOp> {
        Some(match s {
            "=" | "==" => CompOp::Eq,
            "!=" | "<>" => CompOp::Neq,
            "<" => CompOp::Lt,
            "<=" => CompOp::Leq,
            ">" => CompOp::Gt,
            ">=" => CompOp::Geq,
            _ => return None,
        })
    }
}

impl fmt::Display for CompOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompOp::Eq => "=",
            CompOp::Neq => "!=",
            CompOp::Lt => "<",
            CompOp::Leq => "<=",
            CompOp::Gt => ">",
            CompOp::Geq => ">=",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_basic() {
        assert!(CompOp::Lt.eval(&Value::int(1), &Value::int(2)));
        assert!(CompOp::Geq.eval(&Value::int(2), &Value::int(2)));
        assert!(CompOp::Neq.eval(&Value::str("a"), &Value::str("b")));
        assert!(!CompOp::Eq.eval(&Value::str("a"), &Value::str("b")));
    }

    #[test]
    fn null_is_less_than_everything() {
        assert!(CompOp::Lt.eval(&Value::Null, &Value::int(0)));
        assert!(CompOp::Eq.eval(&Value::Null, &Value::Null));
        assert!(!CompOp::Lt.eval(&Value::Null, &Value::Null));
    }

    #[test]
    fn incomparable_only_satisfies_neq() {
        let a = Value::str("1");
        let b = Value::int(1);
        for op in [CompOp::Eq, CompOp::Lt, CompOp::Leq, CompOp::Gt, CompOp::Geq] {
            assert!(!op.eval(&a, &b), "{op}");
        }
        assert!(CompOp::Neq.eval(&a, &b));
    }

    #[test]
    fn flip_is_involutive_and_correct() {
        let vals = [Value::int(1), Value::int(2)];
        for op in [
            CompOp::Eq,
            CompOp::Neq,
            CompOp::Lt,
            CompOp::Leq,
            CompOp::Gt,
            CompOp::Geq,
        ] {
            assert_eq!(op.flip().flip(), op);
            assert_eq!(
                op.eval(&vals[0], &vals[1]),
                op.flip().eval(&vals[1], &vals[0])
            );
        }
    }

    #[test]
    fn parse_round_trip() {
        for op in [
            CompOp::Eq,
            CompOp::Neq,
            CompOp::Lt,
            CompOp::Leq,
            CompOp::Gt,
            CompOp::Geq,
        ] {
            assert_eq!(CompOp::parse(&op.to_string()), Some(op));
        }
        assert_eq!(CompOp::parse("~"), None);
    }
}
