//! Variables and literals.

use std::fmt;
use std::ops::Not;

/// A propositional variable, numbered from 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Var(pub(crate) u32);

impl Var {
    /// How many variables a [`Lit`] can address: its `u32` packs the
    /// index above one sign bit, so indices stop at `2^31 - 1`.
    pub const MAX_COUNT: usize = 1 << 31;

    /// Builds a variable from its 0-based index. The index must have been
    /// allocated on the target [`crate::Solver`] before use.
    #[inline]
    pub fn from_index(index: usize) -> Var {
        Var(index as u32)
    }

    /// The variable's 0-based index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit(self.0 << 1 | 1)
    }

    /// Builds a literal with the given sign (`true` = positive).
    #[inline]
    pub fn lit(self, positive: bool) -> Lit {
        if positive {
            self.positive()
        } else {
            self.negative()
        }
    }
}

/// A literal: a variable or its negation, packed as `var << 1 | sign`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The literal's variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` if this is the positive literal.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Dense index usable for watch lists (`2 * var + sign`).
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Builds a literal from a DIMACS-style signed integer (non-zero;
    /// positive `n` means variable `n-1` positive).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `|n|` exceeds [`Var::MAX_COUNT`].
    pub fn from_dimacs(n: i64) -> Lit {
        assert!(n != 0, "DIMACS literal must be non-zero");
        assert!(
            n.unsigned_abs() <= Var::MAX_COUNT as u64,
            "DIMACS literal {n} exceeds the variable limit"
        );
        let var = Var((n.unsigned_abs() - 1) as u32);
        var.lit(n > 0)
    }

    /// Converts to a DIMACS-style signed integer.
    pub fn to_dimacs(self) -> i64 {
        let v = (self.var().0 + 1) as i64;
        if self.is_positive() {
            v
        } else {
            -v
        }
    }
}

impl Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dimacs())
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dimacs())
    }
}

/// Tri-state assignment value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum LBool {
    True,
    False,
    Undef,
}

impl LBool {
    #[inline]
    pub(crate) fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_roundtrip() {
        let v = Var(4);
        assert_eq!(v.positive().var(), v);
        assert_eq!(v.negative().var(), v);
        assert!(v.positive().is_positive());
        assert!(!v.negative().is_positive());
        assert_eq!(!v.positive(), v.negative());
        assert_eq!(!!v.positive(), v.positive());
    }

    #[test]
    fn dimacs_conversion() {
        assert_eq!(Lit::from_dimacs(1), Var(0).positive());
        assert_eq!(Lit::from_dimacs(-3), Var(2).negative());
        assert_eq!(Lit::from_dimacs(-3).to_dimacs(), -3);
        assert_eq!(Lit::from_dimacs(7).to_dimacs(), 7);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn dimacs_zero_rejected() {
        let _ = Lit::from_dimacs(0);
    }

    #[test]
    fn codes_are_dense() {
        assert_eq!(Var(0).positive().code(), 0);
        assert_eq!(Var(0).negative().code(), 1);
        assert_eq!(Var(1).positive().code(), 2);
    }
}
