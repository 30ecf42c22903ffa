//! Constant conditional functional dependencies `tp[X] → tp[B]`.

use std::fmt;
use std::sync::Arc;

use cr_types::{AttrId, Schema, Tuple, Value};

use crate::error::ConstraintError;

/// A constant CFD (Section II-B): if the current tuple's `X` attributes
/// match the pattern constants, its `B` attribute must equal the pattern's
/// `B` constant.
///
/// Constant CFDs suffice here because they are interpreted on the *single*
/// current tuple `LST(Ict)` of a completion; the general two-tuple CFDs of
/// the consistency literature are not needed (see the remark after the CFD
/// semantics in the paper).
#[derive(Clone, Debug, PartialEq)]
pub struct ConstantCfd {
    schema: Arc<Schema>,
    name: Option<String>,
    /// The pattern over `X`: `(attribute, constant)` pairs, sorted by
    /// attribute for canonical form.
    lhs: Vec<(AttrId, Value)>,
    /// The consequent `(B, tp[B])`.
    rhs: (AttrId, Value),
}

impl ConstantCfd {
    /// Builds a CFD after validating the attributes. The LHS may be empty
    /// (an unconditional assertion about the current tuple), must not repeat
    /// attributes, and must not mention the RHS attribute.
    pub fn new(
        schema: Arc<Schema>,
        name: Option<String>,
        mut lhs: Vec<(AttrId, Value)>,
        rhs: (AttrId, Value),
    ) -> Result<Self, ConstraintError> {
        let check = |attr: AttrId| -> Result<(), ConstraintError> {
            if attr.index() >= schema.arity() {
                Err(ConstraintError::AttrOutOfRange(attr.0))
            } else {
                Ok(())
            }
        };
        check(rhs.0)?;
        for (a, v) in &lhs {
            check(*a)?;
            if *a == rhs.0 {
                return Err(ConstraintError::CfdRhsInLhs(
                    schema.attr_name(rhs.0).to_string(),
                ));
            }
            if v.is_null() {
                return Err(ConstraintError::NullPatternConstant);
            }
        }
        if rhs.1.is_null() {
            return Err(ConstraintError::NullPatternConstant);
        }
        lhs.sort_by_key(|(a, _)| *a);
        for w in lhs.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(ConstraintError::DuplicateCfdLhsAttr(
                    schema.attr_name(w[0].0).to_string(),
                ));
            }
        }
        Ok(ConstantCfd {
            schema,
            name,
            lhs,
            rhs,
        })
    }

    /// The schema the CFD is defined over.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Optional name (e.g. `psi1`).
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// The LHS pattern `(X, tp[X])`, sorted by attribute.
    pub fn lhs(&self) -> &[(AttrId, Value)] {
        &self.lhs
    }

    /// The consequent `(B, tp[B])`.
    pub fn rhs(&self) -> &(AttrId, Value) {
        &self.rhs
    }

    /// True iff `tuple[X] = tp[X]`.
    pub fn lhs_matches(&self, tuple: &Tuple) -> bool {
        self.lhs.iter().all(|(a, v)| tuple.get(*a) == v)
    }

    /// Checks the CFD on a single (current) tuple: `tl[X]=tp[X] → tl[B]=tp[B]`.
    pub fn satisfied_by(&self, tuple: &Tuple) -> bool {
        !self.lhs_matches(tuple) || tuple.get(self.rhs.0) == &self.rhs.1
    }
}

impl fmt::Display for ConstantCfd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(n) = &self.name {
            write!(f, "{n}: ")?;
        }
        write!(f, "(")?;
        for (i, (a, v)) in self.lhs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write_pair(f, &self.schema, *a, v)?;
        }
        write!(f, " -> ")?;
        write_pair(f, &self.schema, self.rhs.0, &self.rhs.1)?;
        write!(f, ")")
    }
}

fn write_pair(f: &mut fmt::Formatter<'_>, schema: &Schema, attr: AttrId, v: &Value) -> fmt::Result {
    write!(f, "{} = ", schema.attr_name(attr))?;
    crate::fmt_util::write_constant(f, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Schema::new("person", ["AC", "city", "zip"]).unwrap()
    }

    fn psi1(s: &Arc<Schema>) -> ConstantCfd {
        ConstantCfd::new(
            s.clone(),
            Some("psi1".into()),
            vec![(s.attr_id("AC").unwrap(), Value::int(213))],
            (s.attr_id("city").unwrap(), Value::str("LA")),
        )
        .unwrap()
    }

    #[test]
    fn satisfaction_on_single_tuple() {
        let s = schema();
        let cfd = psi1(&s);
        let good = Tuple::of([Value::int(213), Value::str("LA"), Value::int(90058)]);
        let bad = Tuple::of([Value::int(213), Value::str("NY"), Value::int(90058)]);
        let vacuous = Tuple::of([Value::int(212), Value::str("NY"), Value::int(10036)]);
        assert!(cfd.satisfied_by(&good));
        assert!(!cfd.satisfied_by(&bad));
        assert!(cfd.satisfied_by(&vacuous));
    }

    #[test]
    fn validation_rejects_bad_patterns() {
        let s = schema();
        let ac = s.attr_id("AC").unwrap();
        let city = s.attr_id("city").unwrap();
        // RHS attr in LHS.
        assert!(ConstantCfd::new(
            s.clone(),
            None,
            vec![(city, Value::str("LA"))],
            (city, Value::str("LA"))
        )
        .is_err());
        // Duplicate LHS attr.
        assert!(ConstantCfd::new(
            s.clone(),
            None,
            vec![(ac, Value::int(1)), (ac, Value::int(2))],
            (city, Value::str("LA"))
        )
        .is_err());
        // Null pattern constant.
        assert!(ConstantCfd::new(
            s.clone(),
            None,
            vec![(ac, Value::Null)],
            (city, Value::str("LA"))
        )
        .is_err());
        // Out-of-range attr.
        assert!(ConstantCfd::new(s.clone(), None, vec![], (AttrId(9), Value::int(1))).is_err());
    }

    #[test]
    fn lhs_is_canonically_sorted() {
        let s = schema();
        let zip = s.attr_id("zip").unwrap();
        let ac = s.attr_id("AC").unwrap();
        let cfd = ConstantCfd::new(
            s.clone(),
            None,
            vec![(zip, Value::int(90058)), (ac, Value::int(213))],
            (s.attr_id("city").unwrap(), Value::str("LA")),
        )
        .unwrap();
        assert_eq!(cfd.lhs()[0].0, ac);
        assert_eq!(cfd.lhs()[1].0, zip);
    }

    #[test]
    fn display_is_paper_like() {
        let s = schema();
        assert_eq!(psi1(&s).to_string(), "psi1: (AC = 213 -> city = \"LA\")");
    }
}
