//! The constraint language of the conflict-resolution model (Section II).
//!
//! Two constraint classes are provided:
//!
//! * [`CurrencyConstraint`] — `∀t1,t2 (ω → t1 ≺_Ar t2)` where `ω` conjoins
//!   order predicates `t1 ≺_Al t2`, tuple comparisons `t1[Al] op t2[Al]` and
//!   constant comparisons `ti[Al] op c` (Section II-A);
//! * [`ConstantCfd`] — constant conditional functional dependencies
//!   `tp[X] → tp[B]`, interpreted on the current tuple of a completion
//!   (Section II-B).
//!
//! Constraints can be built programmatically ([`builder`]) or parsed from a
//! text syntax mirroring the paper's Fig. 3 ([`parser`]):
//!
//! ```
//! use cr_types::Schema;
//! use cr_constraints::parser::{parse_currency_constraint, parse_cfds};
//!
//! let schema = Schema::new("person", ["status", "job", "AC", "city"]).unwrap();
//! let phi1 = parse_currency_constraint(
//!     &schema,
//!     r#"t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2"#,
//! ).unwrap();
//! assert_eq!(schema.attr_name(phi1.conclusion_attr()), "status");
//!
//! let psi = parse_cfds(&schema, r#"AC = 213 -> city = "LA""#).unwrap();
//! assert_eq!(psi.len(), 1);
//! ```

pub mod builder;
pub mod cfd;
pub mod currency;
pub mod error;
pub(crate) mod fmt_util;
pub mod op;
pub mod parser;
pub mod predicate;

pub use builder::CurrencyConstraintBuilder;
pub use cfd::ConstantCfd;
pub use currency::CurrencyConstraint;
pub use error::ConstraintError;
pub use op::CompOp;
pub use predicate::{Predicate, TupleRef};
