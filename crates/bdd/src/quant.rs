//! Existential/universal quantification and the fused and-exists
//! ("relational product") used to implement Jedd's composition operator.

use crate::budget::BddError;
use crate::node::NodeId;
use crate::ops::BinOp;
use crate::table::{CacheOp, Inner};

const F: u32 = NodeId::FALSE.0;
const T: u32 = NodeId::TRUE.0;

impl Inner {
    /// Existentially quantifies the variables of the positive cube `cube`
    /// out of `f`.
    pub(crate) fn exists(&mut self, f: u32, cube: u32) -> Result<u32, BddError> {
        if f <= 1 || cube == T {
            return Ok(f);
        }
        debug_assert_ne!(cube, F, "exists: cube must be a positive cube");
        self.step()?;
        self.prefault(&[f, cube])?;
        // Skip cube variables above f's top level.
        let mut c = cube;
        let lf = self.level(f);
        while c != T && self.level(c) < lf {
            c = self.high(c);
        }
        if c == T {
            return Ok(f);
        }
        if let Some(r) = self.cache_lookup(CacheOp::Exists, f, c, 0) {
            return Ok(r);
        }
        let lc = self.level(c);
        // Splitting at f's top level keeps chain nodes correct: the
        // cofactor of a chain node is its (tail, FALSE) pair, and the tail
        // re-exposes the remaining chain levels so cube variables that fall
        // strictly inside a chain interval are quantified level by level.
        let (f0, f1) = self.cofactor_pair(f, lf)?;
        let r = if lf == lc {
            let next = self.high(c);
            let r0 = self.exists(f0, next)?;
            let r1 = self.exists(f1, next)?;
            self.apply(BinOp::Or, r0, r1)?
        } else {
            debug_assert!(lf < lc);
            let r0 = self.exists(f0, c)?;
            let r1 = self.exists(f1, c)?;
            self.mk(lf, r0, r1)?
        };
        self.cache_store(CacheOp::Exists, f, c, 0, r);
        Ok(r)
    }

    /// Universal quantification: `forall v. f == !exists v. !f`.
    pub(crate) fn forall(&mut self, f: u32, cube: u32) -> Result<u32, BddError> {
        let nf = self.not(f)?;
        let e = self.exists(nf, cube)?;
        self.not(e)
    }

    /// The fused relational product `exists cube. (f & g)`.
    ///
    /// This is the BDD-library primitive behind Jedd's composition (`<>`)
    /// operator; the paper notes it is implemented "more efficiently in one
    /// step" than a join followed by a projection.
    pub(crate) fn and_exists(&mut self, f: u32, g: u32, cube: u32) -> Result<u32, BddError> {
        if f == F || g == F {
            return Ok(F);
        }
        if cube == T {
            return self.apply(BinOp::And, f, g);
        }
        if f == T && g == T {
            return Ok(T);
        }
        self.step()?;
        self.prefault(&[f, g, cube])?;
        // Normalise commutative argument order for the cache.
        let (f, g) = if f > g { (g, f) } else { (f, g) };
        let (lf, lg) = (self.level(f), self.level(g));
        let m = lf.min(lg);
        // Skip cube variables above the top level of both operands.
        let mut c = cube;
        while c != T && self.level(c) < m {
            c = self.high(c);
        }
        if c == T {
            return self.apply(BinOp::And, f, g);
        }
        if let Some(r) = self.cache_lookup(CacheOp::AndExists, f, g, c) {
            return Ok(r);
        }
        let (f0, f1) = self.cofactor_pair(f, m)?;
        let (g0, g1) = self.cofactor_pair(g, m)?;
        let r = if self.level(c) == m {
            let next = self.high(c);
            let r0 = self.and_exists(f0, g0, next)?;
            if r0 == T {
                T
            } else {
                let r1 = self.and_exists(f1, g1, next)?;
                self.apply(BinOp::Or, r0, r1)?
            }
        } else {
            let r0 = self.and_exists(f0, g0, c)?;
            let r1 = self.and_exists(f1, g1, c)?;
            self.mk(m, r0, r1)?
        };
        self.cache_store(CacheOp::AndExists, f, g, c, r);
        Ok(r)
    }
}
