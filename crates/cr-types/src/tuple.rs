//! Tuples of a relation schema.

use std::fmt;
use std::sync::Arc;

use crate::error::TypesError;
use crate::schema::{AttrId, Schema};
use crate::value::Value;

/// A tuple of attribute values conforming to a [`Schema`].
///
/// The schema is carried by the containing [`crate::EntityInstance`] (or by
/// the caller); the tuple itself stores only the dense value vector, keeping
/// large entity instances compact.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    values: Box<[Value]>,
}

impl Tuple {
    /// Builds a tuple after checking arity against `schema`.
    pub fn new(schema: &Schema, values: Vec<Value>) -> Result<Self, TypesError> {
        if values.len() != schema.arity() {
            return Err(TypesError::ArityMismatch {
                expected: schema.arity(),
                got: values.len(),
            });
        }
        Ok(Tuple {
            values: values.into_boxed_slice(),
        })
    }

    /// Builds a tuple without a schema check (for internal generators that
    /// construct values positionally from the same schema).
    pub fn from_values(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into_boxed_slice(),
        }
    }

    /// Convenience constructor from anything convertible to [`Value`].
    pub fn of<V: Into<Value>, I: IntoIterator<Item = V>>(values: I) -> Self {
        Tuple::from_values(values.into_iter().map(Into::into).collect())
    }

    /// The value of attribute `attr` (`t[Ai]` in the paper).
    pub fn get(&self, attr: AttrId) -> &Value {
        &self.values[attr.index()]
    }

    /// Mutable access to the value of attribute `attr`.
    pub fn get_mut(&mut self, attr: AttrId) -> &mut Value {
        &mut self.values[attr.index()]
    }

    /// Replaces the value of attribute `attr`, returning the previous one.
    pub fn set(&mut self, attr: AttrId, value: Value) -> Value {
        std::mem::replace(&mut self.values[attr.index()], value)
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// All values in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Renders the tuple with attribute names, e.g.
    /// `(status: retired, kids: 3)`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> TupleDisplay<'a> {
        TupleDisplay {
            tuple: self,
            schema,
        }
    }

    /// True iff the two tuples agree on every attribute in `attrs`.
    pub fn agrees_on(&self, other: &Tuple, attrs: &[AttrId]) -> bool {
        attrs.iter().all(|&a| self.get(a) == other.get(a))
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:?}")?;
        }
        write!(f, ")")
    }
}

/// Pretty-printer for a tuple in the context of its schema.
pub struct TupleDisplay<'a> {
    tuple: &'a Tuple,
    schema: &'a Schema,
}

impl fmt::Display for TupleDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (id, attr) in self.schema.iter() {
            if id.index() > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", attr.name(), self.tuple.get(id))?;
        }
        write!(f, ")")
    }
}

/// Builds a tuple for `schema` from `(attribute name, value)` pairs; missing
/// attributes become null.
pub fn tuple_from_pairs<'a, V: Into<Value>>(
    schema: &Schema,
    pairs: impl IntoIterator<Item = (&'a str, V)>,
) -> Result<Tuple, TypesError> {
    let mut values = vec![Value::Null; schema.arity()];
    for (name, v) in pairs {
        let id = schema.require_attr(name)?;
        values[id.index()] = v.into();
    }
    Ok(Tuple::from_values(values))
}

/// Shared handle to a schema, the form most APIs take.
pub type SchemaRef = Arc<Schema>;

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> SchemaRef {
        Schema::new("r", ["a", "b", "c"]).unwrap()
    }

    #[test]
    fn arity_checked() {
        let s = schema();
        assert!(Tuple::new(&s, vec![Value::int(1)]).is_err());
        assert!(Tuple::new(&s, vec![Value::int(1), Value::Null, Value::str("x")]).is_ok());
    }

    #[test]
    fn get_by_attr() {
        let s = schema();
        let t = Tuple::of([Value::int(1), Value::str("x"), Value::Null]);
        assert_eq!(t.get(s.attr_id("b").unwrap()), &Value::str("x"));
        assert!(t.get(s.attr_id("c").unwrap()).is_null());
    }

    #[test]
    fn from_pairs_fills_nulls() {
        let s = schema();
        let t = tuple_from_pairs(&s, [("c", Value::int(9))]).unwrap();
        assert!(t.get(AttrId(0)).is_null());
        assert_eq!(t.get(AttrId(2)), &Value::int(9));
        assert!(tuple_from_pairs(&s, [("zzz", Value::Null)]).is_err());
    }

    #[test]
    fn agrees_on_subset() {
        let t1 = Tuple::of([Value::int(1), Value::int(2), Value::int(3)]);
        let t2 = Tuple::of([Value::int(1), Value::int(9), Value::int(3)]);
        assert!(t1.agrees_on(&t2, &[AttrId(0), AttrId(2)]));
        assert!(!t1.agrees_on(&t2, &[AttrId(0), AttrId(1)]));
    }

    #[test]
    fn display_with_schema() {
        let s = schema();
        let t = Tuple::of([Value::int(1), Value::str("x"), Value::Null]);
        assert_eq!(t.display(&s).to_string(), "(a: 1, b: x, c: null)");
    }
}
