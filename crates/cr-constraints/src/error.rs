//! Error type for constraint construction and parsing.

use std::fmt;

/// Errors raised while building or parsing constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintError {
    /// An attribute id does not exist in the schema.
    AttrOutOfRange(u16),
    /// An attribute name does not exist in the schema.
    UnknownAttribute(String),
    /// A CFD's RHS attribute also appears in its LHS.
    CfdRhsInLhs(String),
    /// A CFD LHS mentions the same attribute twice.
    DuplicateCfdLhsAttr(String),
    /// CFD pattern constants must be non-null.
    NullPatternConstant,
    /// Parse error with a human-readable message and byte offset.
    Parse {
        /// What went wrong.
        message: String,
        /// Byte offset in the input.
        offset: usize,
    },
}

impl ConstraintError {
    /// Builds a parse error.
    pub fn parse(message: impl Into<String>, offset: usize) -> Self {
        ConstraintError::Parse {
            message: message.into(),
            offset,
        }
    }
}

impl fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintError::AttrOutOfRange(a) => write!(f, "attribute id {a} out of range"),
            ConstraintError::UnknownAttribute(a) => write!(f, "unknown attribute `{a}`"),
            ConstraintError::CfdRhsInLhs(a) => {
                write!(
                    f,
                    "CFD right-hand side attribute `{a}` also appears on the left"
                )
            }
            ConstraintError::DuplicateCfdLhsAttr(a) => {
                write!(f, "CFD left-hand side repeats attribute `{a}`")
            }
            ConstraintError::NullPatternConstant => {
                write!(f, "CFD pattern constants must be non-null")
            }
            ConstraintError::Parse { message, offset } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for ConstraintError {}
