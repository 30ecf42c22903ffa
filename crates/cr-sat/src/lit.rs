//! Variables and literals.

use std::fmt;

/// A propositional variable, numbered densely from zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub u32);

impl Var {
    /// The variable index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    pub fn negative(self) -> Lit {
        Lit(self.0 << 1 | 1)
    }

    /// The literal of this variable with the given sign
    /// (`true` → positive).
    pub fn lit(self, positive: bool) -> Lit {
        if positive {
            self.positive()
        } else {
            self.negative()
        }
    }
}

/// A literal: a variable with a sign, encoded as `var << 1 | negated`.
///
/// The encoding makes negation a single XOR and lets watcher lists be
/// indexed directly by `Lit::index`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(pub u32);

impl Lit {
    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True iff the literal is the positive occurrence of its variable.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    #[must_use]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index for literal-indexed arrays (watcher lists).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a literal from a DIMACS-style signed integer (`3` → positive
    /// literal of variable 2, `-1` → negative literal of variable 0).
    /// Returns `None` for zero.
    pub fn from_dimacs(code: i64) -> Option<Lit> {
        if code == 0 {
            return None;
        }
        let var = Var((code.unsigned_abs() - 1) as u32);
        Some(var.lit(code > 0))
    }

    /// The DIMACS-style signed integer for this literal.
    pub fn to_dimacs(self) -> i64 {
        let v = (self.var().0 + 1) as i64;
        if self.is_positive() {
            v
        } else {
            -v
        }
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            if self.is_positive() { "" } else { "¬" },
            self.var().0
        )
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dimacs())
    }
}

/// Ternary assignment value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Unassigned.
    Undef,
}

impl LBool {
    /// Converts a `bool`.
    pub fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// Flips true/false, leaves `Undef` untouched.
    #[must_use]
    pub fn negate(self) -> LBool {
        match self {
            LBool::True => LBool::False,
            LBool::False => LBool::True,
            LBool::Undef => LBool::Undef,
        }
    }

    /// `Some(bool)` when assigned.
    pub fn to_option(self) -> Option<bool> {
        match self {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let v = Var(7);
        assert_eq!(v.positive().var(), v);
        assert_eq!(v.negative().var(), v);
        assert!(v.positive().is_positive());
        assert!(!v.negative().is_positive());
        assert_eq!(v.positive().negate(), v.negative());
        assert_eq!(v.negative().negate(), v.positive());
        assert_eq!(v.lit(true), v.positive());
    }

    #[test]
    fn dimacs_round_trip() {
        for code in [-5i64, -1, 1, 9] {
            let lit = Lit::from_dimacs(code).unwrap();
            assert_eq!(lit.to_dimacs(), code);
        }
        assert!(Lit::from_dimacs(0).is_none());
    }

    #[test]
    fn lbool_ops() {
        assert_eq!(LBool::True.negate(), LBool::False);
        assert_eq!(LBool::Undef.negate(), LBool::Undef);
        assert_eq!(LBool::from_bool(true).to_option(), Some(true));
        assert_eq!(LBool::Undef.to_option(), None);
    }
}
