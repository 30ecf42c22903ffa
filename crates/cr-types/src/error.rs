//! Error type for the relational substrate.

use std::fmt;

/// Errors raised while constructing schemas, tuples or entity instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypesError {
    /// A schema declared the same attribute name twice.
    DuplicateAttribute(String),
    /// A schema with no attributes was requested.
    EmptySchema,
    /// A schema exceeded the `u16` attribute-id space.
    TooManyAttributes(usize),
    /// An attribute name was not found in the schema.
    UnknownAttribute(String),
    /// A tuple was built with the wrong number of values.
    ArityMismatch {
        /// Attributes declared by the schema.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// Tuples from different schemas were mixed in one entity instance.
    SchemaMismatch,
    /// Malformed CSV input.
    Csv(String),
}

impl fmt::Display for TypesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypesError::DuplicateAttribute(a) => write!(f, "duplicate attribute `{a}` in schema"),
            TypesError::EmptySchema => write!(f, "schema must have at least one attribute"),
            TypesError::TooManyAttributes(n) => write!(f, "schema has {n} attributes (max 65535)"),
            TypesError::UnknownAttribute(a) => write!(f, "unknown attribute `{a}`"),
            TypesError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "tuple arity mismatch: schema has {expected} attributes, got {got}"
                )
            }
            TypesError::SchemaMismatch => write!(f, "tuples belong to different schemas"),
            TypesError::Csv(msg) => write!(f, "csv error: {msg}"),
        }
    }
}

impl std::error::Error for TypesError {}
