//! Dynamically typed attribute values with the comparison semantics of the
//! currency model.
//!
//! Two distinct comparison relations live on [`Value`]:
//!
//! * [`Value::semantic_cmp`] — the *data* ordering used when evaluating
//!   currency-constraint predicates such as `t1[kids] < t2[kids]`. Nulls rank
//!   below every non-null value (Example 2(b) of the paper assumes
//!   `null < k` for any number `k`), numerics compare numerically across
//!   `Int`/`Float`, strings lexicographically, and values of incomparable
//!   types are simply not ordered (`None`).
//! * The derived [`Ord`] — an arbitrary but total *canonical* ordering used
//!   only to keep containers (sorted active domains, BTree keys)
//!   deterministic. It never leaks into constraint semantics.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single attribute value.
///
/// Cloning is cheap: strings are reference counted.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// SQL-style missing value. Ranked lowest in every currency order.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// Finite 64-bit float (NaN is rejected at construction).
    Float(OrderedF64),
    /// Interned string.
    Str(Arc<str>),
}

/// A finite `f64` with total equality/ordering, used inside [`Value::Float`].
#[derive(Clone, Copy, PartialEq)]
pub struct OrderedF64(f64);

impl OrderedF64 {
    /// Wraps a finite float. Returns `None` for NaN (infinities are allowed —
    /// they are totally ordered).
    pub fn new(v: f64) -> Option<Self> {
        if v.is_nan() {
            None
        } else {
            // Normalise -0.0 so that Eq/Hash agree with ==.
            Some(OrderedF64(if v == 0.0 { 0.0 } else { v }))
        }
    }

    /// The wrapped float.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        // Safe: NaN excluded by construction.
        self.0
            .partial_cmp(&other.0)
            .expect("OrderedF64 is never NaN")
    }
}

impl std::hash::Hash for OrderedF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl fmt::Debug for OrderedF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Builds an integer value.
    pub fn int(v: i64) -> Self {
        Value::Int(v)
    }

    /// Builds a float value, panicking on NaN (callers deal with clean data).
    pub fn float(v: f64) -> Self {
        Value::Float(OrderedF64::new(v).expect("attribute values must not be NaN"))
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The *semantic* comparison used by currency-constraint predicates.
    ///
    /// * `Null` is a bottom element: equal to itself, less than everything
    ///   else.
    /// * `Int`/`Float` compare numerically (cross-type included).
    /// * `Str` compares lexicographically.
    /// * Any other cross-type pair is unordered (`None`); a constraint
    ///   predicate over such a pair evaluates to `false`.
    pub fn semantic_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, Null) => Some(Ordering::Equal),
            (Null, _) => Some(Ordering::Less),
            (_, Null) => Some(Ordering::Greater),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => Some(a.cmp(b)),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(&b.get()),
            (Float(a), Int(b)) => a.get().partial_cmp(&(*b as f64)),
            (Str(a), Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            _ => None,
        }
    }

    /// Semantic equality: like `==` but identifies numerically equal
    /// `Int`/`Float` pairs.
    pub fn semantic_eq(&self, other: &Value) -> bool {
        matches!(self.semantic_cmp(other), Some(Ordering::Equal))
    }

    /// Parses a display-form token back into a value: `null` (case
    /// insensitive) → `Null`, otherwise integer, otherwise float, otherwise
    /// string. This matches [`Value::to_token`].
    pub fn parse_token(tok: &str) -> Value {
        let t = tok.trim();
        if t.eq_ignore_ascii_case("null") {
            Value::Null
        } else if let Ok(i) = t.parse::<i64>() {
            Value::Int(i)
        } else if let Ok(f) = t.parse::<f64>() {
            OrderedF64::new(f)
                .map(Value::Float)
                .unwrap_or_else(|| Value::str(t))
        } else {
            Value::str(t)
        }
    }

    /// Renders the value as a bare token (no quoting); inverse of
    /// [`Value::parse_token`] for well-formed data.
    pub fn to_token(&self) -> Cow<'_, str> {
        match self {
            Value::Null => Cow::Borrowed("null"),
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Float(f) => Cow::Owned(format!("{:?}", f.get())),
            Value::Str(s) => Cow::Borrowed(s),
        }
    }

    /// Rank used by the canonical (container) ordering.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Str(_) => 2,
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Canonical total order for containers. Within numerics it agrees with
    /// the semantic order; ties between numerically equal `Int`/`Float` are
    /// broken by the variant so that `Ord` stays consistent with `Eq`.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Float(b)) => (*a as f64)
                .partial_cmp(&b.get())
                .unwrap_or(Ordering::Less)
                .then(Ordering::Less),
            (Float(a), Int(b)) => a
                .get()
                .partial_cmp(&(*b as f64))
                .unwrap_or(Ordering::Greater)
                .then(Ordering::Greater),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{:?}", x.get()),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{}", x.get()),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_bottom() {
        assert_eq!(
            Value::Null.semantic_cmp(&Value::Null),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Null.semantic_cmp(&Value::int(0)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Null.semantic_cmp(&Value::str("a")),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::int(-5).semantic_cmp(&Value::Null),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn numeric_cross_type_comparisons() {
        assert_eq!(
            Value::int(3).semantic_cmp(&Value::float(3.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::float(4.0).semantic_cmp(&Value::int(4)),
            Some(Ordering::Equal)
        );
        assert!(Value::int(4).semantic_eq(&Value::float(4.0)));
        assert!(!Value::int(4).semantic_eq(&Value::float(4.1)));
    }

    #[test]
    fn incomparable_types_are_unordered() {
        assert_eq!(Value::str("10").semantic_cmp(&Value::int(10)), None);
        assert_eq!(Value::int(1).semantic_cmp(&Value::str("1")), None);
    }

    #[test]
    fn string_ordering_is_lexicographic() {
        assert_eq!(
            Value::str("retired").semantic_cmp(&Value::str("working")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn canonical_order_is_total_and_consistent_with_eq() {
        let vals = vec![
            Value::Null,
            Value::int(1),
            Value::int(2),
            Value::float(1.5),
            Value::str("a"),
            Value::str("b"),
        ];
        for a in &vals {
            for b in &vals {
                let ord = a.cmp(b);
                assert_eq!(ord == Ordering::Equal, a == b, "{a:?} vs {b:?}");
                assert_eq!(b.cmp(a), ord.reverse());
            }
        }
    }

    #[test]
    fn token_round_trip() {
        for v in [
            Value::Null,
            Value::int(42),
            Value::float(2.5),
            Value::str("NY"),
        ] {
            assert_eq!(Value::parse_token(&v.to_token()), v);
        }
    }

    #[test]
    fn nan_rejected() {
        assert!(OrderedF64::new(f64::NAN).is_none());
        assert!(OrderedF64::new(f64::INFINITY).is_some());
    }

    #[test]
    fn negative_zero_normalised() {
        assert_eq!(Value::float(-0.0), Value::float(0.0));
    }
}
