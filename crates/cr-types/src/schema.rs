//! Relation schemas `R = (A1, ..., An)`.

use std::fmt;
use std::sync::Arc;

use crate::error::TypesError;

/// Index of an attribute within its [`Schema`] (dense, zero based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AttrId(pub u16);

impl AttrId {
    /// The attribute position as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A named attribute of a relation schema.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Attribute {
    name: String,
}

impl Attribute {
    /// Creates an attribute with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Attribute { name: name.into() }
    }

    /// The attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A relation schema: an ordered list of uniquely named attributes.
///
/// Schemas are shared via [`Arc`] between tuples, entity instances and
/// constraint sets; equality is structural.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Schema {
    name: String,
    attrs: Vec<Attribute>,
}

impl Schema {
    /// Builds a schema from a relation name and attribute names.
    ///
    /// # Errors
    /// Returns [`TypesError::DuplicateAttribute`] if two attributes share a
    /// name, and [`TypesError::EmptySchema`] for an empty attribute list.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(
        name: impl Into<String>,
        attrs: I,
    ) -> Result<Arc<Self>, TypesError> {
        let attrs: Vec<Attribute> = attrs
            .into_iter()
            .map(|a| Attribute::new(a.into()))
            .collect();
        if attrs.is_empty() {
            return Err(TypesError::EmptySchema);
        }
        for (i, a) in attrs.iter().enumerate() {
            if attrs[..i].iter().any(|b| b.name() == a.name()) {
                return Err(TypesError::DuplicateAttribute(a.name().to_string()));
            }
        }
        if attrs.len() > u16::MAX as usize {
            return Err(TypesError::TooManyAttributes(attrs.len()));
        }
        Ok(Arc::new(Schema {
            name: name.into(),
            attrs,
        }))
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes, `|R|`.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// The attribute at position `id`.
    pub fn attribute(&self, id: AttrId) -> &Attribute {
        &self.attrs[id.index()]
    }

    /// The name of the attribute at position `id`.
    pub fn attr_name(&self, id: AttrId) -> &str {
        self.attrs[id.index()].name()
    }

    /// Looks up an attribute by name.
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.attrs
            .iter()
            .position(|a| a.name() == name)
            .map(|i| AttrId(i as u16))
    }

    /// Like [`Schema::attr_id`] but returns an error naming the attribute.
    pub fn require_attr(&self, name: &str) -> Result<AttrId, TypesError> {
        self.attr_id(name)
            .ok_or_else(|| TypesError::UnknownAttribute(name.to_string()))
    }

    /// Iterates over `(AttrId, &Attribute)` pairs in schema order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &Attribute)> {
        self.attrs
            .iter()
            .enumerate()
            .map(|(i, a)| (AttrId(i as u16), a))
    }

    /// Iterates over all attribute ids in schema order.
    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> + 'static {
        (0..self.attrs.len() as u16).map(AttrId)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", a.name())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_looks_up() {
        let s = Schema::new("person", ["name", "status", "kids"]).unwrap();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.attr_id("status"), Some(AttrId(1)));
        assert_eq!(s.attr_name(AttrId(2)), "kids");
        assert!(s.attr_id("missing").is_none());
        assert!(s.require_attr("missing").is_err());
    }

    #[test]
    fn rejects_duplicates_and_empty() {
        assert!(Schema::new("r", ["a", "a"]).is_err());
        assert!(Schema::new("r", Vec::<String>::new()).is_err());
    }

    #[test]
    fn displays_compactly() {
        let s = Schema::new("r", ["a", "b"]).unwrap();
        assert_eq!(s.to_string(), "r(a, b)");
    }

    #[test]
    fn attr_ids_cover_schema() {
        let s = Schema::new("r", ["a", "b", "c"]).unwrap();
        let ids: Vec<_> = s.attr_ids().collect();
        assert_eq!(ids, vec![AttrId(0), AttrId(1), AttrId(2)]);
    }
}
