//! Binary and ternary boolean operations on the node table.

use crate::budget::BddError;
use crate::node::NodeId;
use crate::table::{CacheOp, Inner};

const F: u32 = NodeId::FALSE.0;
const T: u32 = NodeId::TRUE.0;

/// Binary boolean operators supported by [`Inner::apply`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum BinOp {
    And,
    Or,
    Diff,
    Xor,
    Biimp,
}

impl BinOp {
    pub(crate) fn cache_op(self) -> CacheOp {
        match self {
            BinOp::And => CacheOp::And,
            BinOp::Or => CacheOp::Or,
            BinOp::Diff => CacheOp::Diff,
            BinOp::Xor => CacheOp::Xor,
            BinOp::Biimp => CacheOp::Biimp,
        }
    }

    /// Commutative operators may sort their cache keys.
    pub(crate) fn commutative(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Biimp)
    }

    /// Resolves the operation when at least one argument is terminal (or the
    /// arguments are equal). Returns `None` when recursion is required.
    pub(crate) fn terminal_case(self, a: u32, b: u32) -> Option<u32> {
        match self {
            BinOp::And => {
                if a == F || b == F {
                    Some(F)
                } else if a == T {
                    Some(b)
                } else if b == T || a == b {
                    Some(a)
                } else {
                    None
                }
            }
            BinOp::Or => {
                if a == T || b == T {
                    Some(T)
                } else if a == F {
                    Some(b)
                } else if b == F || a == b {
                    Some(a)
                } else {
                    None
                }
            }
            BinOp::Diff => {
                if a == F || b == T || a == b {
                    Some(F)
                } else if b == F {
                    Some(a)
                } else {
                    None
                }
            }
            BinOp::Xor => {
                if a == b {
                    Some(F)
                } else if a == F {
                    Some(b)
                } else if b == F {
                    Some(a)
                } else {
                    None
                }
            }
            BinOp::Biimp => {
                if a == b {
                    Some(T)
                } else if a == T {
                    Some(b)
                } else if b == T {
                    Some(a)
                } else {
                    None
                }
            }
        }
    }
}

impl Inner {
    /// Top-level entry for binary operations: records the operand shape
    /// once, then runs the memoised recursion.
    pub(crate) fn apply(&mut self, op: BinOp, a: u32, b: u32) -> Result<u32, BddError> {
        self.record_op_shape(&[a, b]);
        self.apply_rec(op, a, b)
    }

    /// The standard Bryant `apply` with memoisation.
    ///
    /// Fails only when a budget or fail plan is active (see
    /// [`Inner::mk`]); a failed call leaves the table consistent because
    /// partial results carry no external references.
    pub(crate) fn apply_rec(&mut self, op: BinOp, a: u32, b: u32) -> Result<u32, BddError> {
        if let Some(r) = op.terminal_case(a, b) {
            return Ok(r);
        }
        self.step()?;
        // Paged managers fault the operand blocks in here, where failures
        // (torn pages, I/O errors) can surface typed; the `level` reads
        // below then hit resident frames.
        self.prefault(&[a, b])?;
        let (ka, kb) = if op.commutative() && a > b {
            (b, a)
        } else {
            (a, b)
        };
        if let Some(r) = self.cache_lookup(op.cache_op(), ka, kb, 0) {
            return Ok(r);
        }
        let m = self.level(a).min(self.level(b));
        let (a0, a1) = self.cofactor_pair(a, m)?;
        let (b0, b1) = self.cofactor_pair(b, m)?;
        let r0 = self.apply_rec(op, a0, b0)?;
        let r1 = self.apply_rec(op, a1, b1)?;
        let r = self.mk(m, r0, r1)?;
        self.cache_store(op.cache_op(), ka, kb, 0, r);
        Ok(r)
    }

    /// Decides `a => b` (set containment `a ⊆ b`) without building the
    /// difference BDD: the recursion only ever returns terminals, so a
    /// frontier-emptiness probe allocates no nodes at all. Results are
    /// memoised under [`CacheOp::Subset`] (not commutative — no key
    /// sorting) with the answer stored as the `TRUE`/`FALSE` terminal id,
    /// which always survives cache sweeps.
    pub(crate) fn subset(&mut self, a: u32, b: u32) -> Result<bool, BddError> {
        if a == F || b == T || a == b {
            return Ok(true);
        }
        if b == F || a == T {
            // a is not FALSE / b is not TRUE after the cases above.
            return Ok(false);
        }
        self.step()?;
        self.prefault(&[a, b])?;
        if let Some(r) = self.cache_lookup(CacheOp::Subset, a, b, 0) {
            return Ok(r == T);
        }
        let m = self.level(a).min(self.level(b));
        // In chain mode the cofactor of a chain node may allocate a tail
        // node, so the probe is no longer allocation-free there; plain
        // managers keep the zero-allocation property.
        let (a0, a1) = self.cofactor_pair(a, m)?;
        let (b0, b1) = self.cofactor_pair(b, m)?;
        let r = self.subset(a0, b0)? && self.subset(a1, b1)?;
        self.cache_store(CacheOp::Subset, a, b, 0, if r { T } else { F });
        Ok(r)
    }

    /// Negation, implemented as `true - f` (set complement).
    pub(crate) fn not(&mut self, a: u32) -> Result<u32, BddError> {
        self.apply(BinOp::Diff, T, a)
    }

    /// If-then-else: `f ? g : h`.
    pub(crate) fn ite(&mut self, f: u32, g: u32, h: u32) -> Result<u32, BddError> {
        if f == T {
            return Ok(g);
        }
        if f == F {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == T && h == F {
            return Ok(f);
        }
        self.step()?;
        self.prefault(&[f, g, h])?;
        if let Some(r) = self.cache_lookup(CacheOp::Ite, f, g, h) {
            return Ok(r);
        }
        let m = self.level(f).min(self.level(g)).min(self.level(h));
        let (f0, f1) = self.cofactor_pair(f, m)?;
        let (g0, g1) = self.cofactor_pair(g, m)?;
        let (h0, h1) = self.cofactor_pair(h, m)?;
        let r0 = self.ite(f0, g0, h0)?;
        let r1 = self.ite(f1, g1, h1)?;
        let r = self.mk(m, r0, r1)?;
        self.cache_store(CacheOp::Ite, f, g, h, r);
        Ok(r)
    }
}
