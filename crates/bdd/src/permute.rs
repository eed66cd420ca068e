//! Variable permutation (the BuDDy `replace` / CUDD `SwapVariables`
//! operation) used when a relation changes physical domains.
//!
//! Two implementations live here. The primary one is a direct recursion
//! memoised in the shared operation cache under `CacheOp::Replace`, keyed
//! on `(node, interned permutation id)`: where the permutation preserves
//! the level order of the remaining support it builds the result node with
//! a single `mk` at the mapped level, and only order-reversing segments
//! fall back to an `ite` rebuild. The secondary `replace_rebuild` is the
//! original per-call-`HashMap` + `ite` rewrite, kept as the correctness
//! oracle for property tests and the baseline for the `replace_cost`
//! bench.

use crate::budget::{BddError, PermutationFlaw};
use crate::node::Permutation;
use crate::table::{CacheOp, Inner};
use std::collections::HashMap;

impl Inner {
    /// Checks that `perm` is injective on the support of `f` and maps it
    /// inside the variable range. Must run before any recursion: an
    /// out-of-range target would otherwise index past `var2level`.
    fn validate_replace(&self, f: u32, perm: &Permutation) -> Result<(), BddError> {
        let support = self.support(f);
        let mut targets: Vec<u32> = support.iter().map(|&v| perm.apply(v)).collect();
        targets.sort_unstable();
        for w in targets.windows(2) {
            if w[0] == w[1] {
                return Err(BddError::InvalidPermutation {
                    var: w[0],
                    kind: PermutationFlaw::DuplicateTarget,
                });
            }
        }
        for &t in &targets {
            if t >= self.num_vars() {
                return Err(BddError::InvalidPermutation {
                    var: t,
                    kind: PermutationFlaw::OutOfRange,
                });
            }
        }
        Ok(())
    }

    /// Rewrites `f` with every variable `v` replaced by `perm.apply(v)`.
    ///
    /// Correct for arbitrary permutations, including order-reversing ones.
    /// Memoised in the shared operation cache, so repeated replaces with
    /// the same (interned) permutation hit across top-level calls.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::InvalidPermutation`] if two distinct support
    /// variables of `f` would map to the same target variable, or a target
    /// variable is out of range; resource errors under an active budget or
    /// fail plan.
    pub(crate) fn replace(&mut self, f: u32, perm: &Permutation) -> Result<u32, BddError> {
        if perm.is_identity() || f <= 1 {
            return Ok(f);
        }
        self.record_op_shape(&[f]);
        self.validate_replace(f, perm)?;
        let pid = self.intern_permutation(perm);
        if self.par_enabled() {
            // Splitting must stay above every level a moved variable can
            // come from or go to; above that boundary the permutation is
            // the identity, so the combine at a split level is a plain
            // `mk` at the unchanged level.
            let limit = perm
                .pairs()
                .iter()
                .map(|&(from, to)| self.level_of_var(from).min(self.level_of_var(to)))
                .min()
                .unwrap_or(0);
            match self.par_run(crate::par::Job::Replace { perm, pid }, f, 0, limit)? {
                crate::par::ParAttempt::Done(r) => return Ok(r),
                crate::par::ParAttempt::Fallback => {}
            }
        }
        self.replace_rec(f, perm, pid)
    }

    fn replace_rec(&mut self, f: u32, perm: &Permutation, pid: u32) -> Result<u32, BddError> {
        if f <= 1 {
            return Ok(f);
        }
        self.step()?;
        self.prefault(&[f])?;
        if let Some(r) = self.cache_lookup(CacheOp::Replace, f, pid, 0) {
            return Ok(r);
        }
        // Splitting at the top level (not the stored child edge) keeps
        // chain nodes correct: each chain level maps to its own target
        // variable, and the cofactor tail re-exposes the remaining levels.
        let lf = self.level(f);
        let (lo, hi) = self.cofactor_pair(f, lf)?;
        let lo2 = self.replace_rec(lo, perm, pid)?;
        let hi2 = self.replace_rec(hi, perm, pid)?;
        let new_var = perm.apply(self.var_at_level(lf));
        let new_level = self.level_of_var(new_var);
        // When the mapped variable still sits above both rewritten
        // children the order is locally preserved and one `mk` suffices
        // (terminals report `u32::MAX` as their level, so they always
        // pass). Only an order-reversing segment needs the `ite` rebuild,
        // which re-sorts the new variable to its canonical position.
        let r = if new_level < self.level(lo2) && new_level < self.level(hi2) {
            self.mk(new_level, lo2, hi2)?
        } else {
            let var = self.mk(new_level, 0, 1)?;
            self.ite(var, hi2, lo2)?
        };
        self.cache_store(CacheOp::Replace, f, pid, 0, r);
        Ok(r)
    }

    /// Reference implementation of [`Inner::replace`]: the original
    /// rewrite that rebuilds every node with `ite(newvar, high', low')`
    /// under a per-call `HashMap` memo, bypassing the shared cache.
    ///
    /// # Errors
    ///
    /// Same contract as [`Inner::replace`].
    pub(crate) fn replace_rebuild(&mut self, f: u32, perm: &Permutation) -> Result<u32, BddError> {
        if perm.is_identity() || f <= 1 {
            return Ok(f);
        }
        self.validate_replace(f, perm)?;
        let mut memo: HashMap<u32, u32> = HashMap::new();
        self.replace_rebuild_rec(f, perm, &mut memo)
    }

    fn replace_rebuild_rec(
        &mut self,
        f: u32,
        perm: &Permutation,
        memo: &mut HashMap<u32, u32>,
    ) -> Result<u32, BddError> {
        if f <= 1 {
            return Ok(f);
        }
        if let Some(&r) = memo.get(&f) {
            return Ok(r);
        }
        self.step()?;
        self.prefault(&[f])?;
        let level = self.level(f);
        let (lo, hi) = self.cofactor_pair(f, level)?;
        let lo2 = self.replace_rebuild_rec(lo, perm, memo)?;
        let hi2 = self.replace_rebuild_rec(hi, perm, memo)?;
        let new_var = perm.apply(self.var_at_level(level));
        // `ite(var, hi2, lo2)` places the new variable at its canonical
        // level even when the permutation reorders the support.
        let var = self.mk_var(new_var)?;
        let r = self.ite(var, hi2, lo2)?;
        memo.insert(f, r);
        Ok(r)
    }
}
