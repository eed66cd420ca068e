//! Existential/universal quantification and the fused and-exists
//! ("relational product") used to implement Jedd's composition operator.

use crate::budget::BddError;
use crate::node::NodeId;
use crate::ops::BinOp;
use crate::table::{CacheOp, Inner};

const F: u32 = NodeId::FALSE.0;
const T: u32 = NodeId::TRUE.0;

impl Inner {
    /// Top-level entry for existential quantification: routes large
    /// operands to the parallel apply engine, everything else to the
    /// sequential recursion. The cube is pre-skipped above `f`'s top level
    /// exactly as the sequential recursion would, so both paths share one
    /// cache key; splitting stops above the first quantified level, which
    /// keeps every master-phase combine a plain `mk`.
    pub(crate) fn exists(&mut self, f: u32, cube: u32) -> Result<u32, BddError> {
        self.record_op_shape(&[f]);
        if self.par_enabled() && f > 1 && cube > 1 {
            let lf = self.level(f);
            let mut c = cube;
            while c != T && self.level(c) < lf {
                c = self.high(c);
            }
            if c == T {
                return Ok(f);
            }
            let limit = self.level(c);
            match self.par_run(crate::par::Job::Exists { cube: c }, f, 0, limit)? {
                crate::par::ParAttempt::Done(r) => return Ok(r),
                crate::par::ParAttempt::Fallback => {}
            }
        }
        self.exists_rec(f, cube)
    }

    /// Existentially quantifies the variables of the positive cube `cube`
    /// out of `f`.
    pub(crate) fn exists_rec(&mut self, f: u32, cube: u32) -> Result<u32, BddError> {
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
            let r0 = self.exists_rec(f0, next)?;
            let r1 = self.exists_rec(f1, next)?;
            self.apply_rec(BinOp::Or, r0, r1)?
        } else {
            debug_assert!(lf < lc);
            let r0 = self.exists_rec(f0, c)?;
            let r1 = self.exists_rec(f1, c)?;
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

    /// Top-level entry for the fused relational product: routes large
    /// operand pairs to the parallel apply engine (same normalisation —
    /// commutative swap and cube skip — as the sequential recursion, so
    /// the cache keys coincide).
    pub(crate) fn and_exists(&mut self, f: u32, g: u32, cube: u32) -> Result<u32, BddError> {
        self.record_op_shape(&[f, g]);
        if self.par_enabled() && f > 1 && g > 1 && cube > 1 {
            let m = self.level(f).min(self.level(g));
            let mut c = cube;
            while c != T && self.level(c) < m {
                c = self.high(c);
            }
            if c == T {
                return self.apply(BinOp::And, f, g);
            }
            let limit = self.level(c);
            let (f2, g2) = if f > g { (g, f) } else { (f, g) };
            match self.par_run(crate::par::Job::AndExists { cube: c }, f2, g2, limit)? {
                crate::par::ParAttempt::Done(r) => return Ok(r),
                crate::par::ParAttempt::Fallback => {}
            }
        }
        self.and_exists_rec(f, g, cube)
    }

    /// The fused relational product `exists cube. (f & g)`.
    ///
    /// This is the BDD-library primitive behind Jedd's composition (`<>`)
    /// operator; the paper notes it is implemented "more efficiently in one
    /// step" than a join followed by a projection.
    pub(crate) fn and_exists_rec(&mut self, f: u32, g: u32, cube: u32) -> Result<u32, BddError> {
        if f == F || g == F {
            return Ok(F);
        }
        if cube == T {
            return self.apply_rec(BinOp::And, f, g);
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
            return self.apply_rec(BinOp::And, f, g);
        }
        if let Some(r) = self.cache_lookup(CacheOp::AndExists, f, g, c) {
            return Ok(r);
        }
        let (f0, f1) = self.cofactor_pair(f, m)?;
        let (g0, g1) = self.cofactor_pair(g, m)?;
        let r = if self.level(c) == m {
            let next = self.high(c);
            let r0 = self.and_exists_rec(f0, g0, next)?;
            if r0 == T {
                T
            } else {
                let r1 = self.and_exists_rec(f1, g1, next)?;
                self.apply_rec(BinOp::Or, r0, r1)?
            }
        } else {
            let r0 = self.and_exists_rec(f0, g0, c)?;
            let r1 = self.and_exists_rec(f1, g1, c)?;
            self.mk(m, r0, r1)?
        };
        self.cache_store(CacheOp::AndExists, f, g, c, r);
        Ok(r)
    }
}
