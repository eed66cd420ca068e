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
use std::collections::{HashMap, HashSet};

impl Inner {
    /// Checks that `perm` is injective on the support of `f` and maps it
    /// inside the variable range. Must run before any recursion: an
    /// out-of-range target would otherwise index past `var2level`.
    ///
    /// A permutation is injective on its own pairs, so only two things can
    /// fail: a pair `s -> t` whose target is not itself moved collides
    /// when both `s` and `t` are in the support, and a pair whose target
    /// is out of range fails when `s` is. The walk therefore only asks
    /// which of those variables the support holds: it never descends below
    /// the deepest of them, stops once all are found, and is skipped when
    /// there are none (an in-range pure swap). The reported flaw is the
    /// one a full support scan would report: the smallest colliding
    /// target, else the smallest out-of-range target.
    fn validate_replace(&mut self, f: u32, perm: &Permutation) -> Result<(), BddError> {
        let n = self.num_vars();
        let mut collide: Vec<(u32, u32)> = Vec::new();
        let mut out_of_range: Vec<(u32, u32)> = Vec::new();
        for &(s, t) in perm.pairs() {
            if s >= n {
                // Never in the support.
            } else if t >= n {
                out_of_range.push((s, t));
            } else if perm.apply(t) == t {
                collide.push((s, t));
            }
        }
        if collide.is_empty() && out_of_range.is_empty() {
            return Ok(());
        }
        let mut watched = vec![false; n as usize];
        for &(s, t) in &collide {
            watched[self.level_of_var(s) as usize] = true;
            watched[self.level_of_var(t) as usize] = true;
        }
        for &(s, _) in &out_of_range {
            watched[self.level_of_var(s) as usize] = true;
        }
        let mut missing = watched.iter().filter(|&&w| w).count();
        let deepest = watched.iter().rposition(|&w| w).unwrap_or(0) as u32;
        let mut found = vec![false; n as usize];
        let mut seen: HashSet<u32> = HashSet::new();
        let mut stack = vec![f];
        while let Some(id) = stack.pop() {
            if missing == 0 {
                break;
            }
            if id <= 1 || !seen.insert(id) {
                continue;
            }
            let node = self.nodes.try_read(id as usize)?;
            if node.level > deepest {
                continue;
            }
            // A chain node depends on every level of its interval.
            for l in node.level..=node.bot.min(deepest) {
                let l = l as usize;
                if watched[l] && !found[l] {
                    found[l] = true;
                    missing -= 1;
                }
            }
            stack.push(node.low);
            stack.push(node.high);
        }
        let held = |v: u32| found[self.level_of_var(v) as usize];
        let flaw = |pairs: &[(u32, u32)], both: bool| {
            pairs
                .iter()
                .filter(|&&(s, t)| held(s) && (!both || held(t)))
                .map(|&(_, t)| t)
                .min()
        };
        if let Some(var) = flaw(&collide, true) {
            return Err(BddError::InvalidPermutation {
                var,
                kind: PermutationFlaw::DuplicateTarget,
            });
        }
        if let Some(var) = flaw(&out_of_range, false) {
            return Err(BddError::InvalidPermutation {
                var,
                kind: PermutationFlaw::OutOfRange,
            });
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
        self.validate_replace(f, perm)?;
        let pid = self.intern_permutation(perm);
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
            self.stats.replace_rebuilds += 1;
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

#[cfg(test)]
mod tests {
    use crate::rng::XorShift64Star;
    use crate::table::Inner;
    use crate::{BddError, BddManager, Permutation, PermutationFlaw};

    /// The full-support validator `validate_replace` replaced: collect the
    /// whole support, map it, report the smallest duplicated target, else
    /// the smallest out-of-range one.
    fn validate_by_support(inner: &Inner, f: u32, perm: &Permutation) -> Result<(), BddError> {
        let mut targets: Vec<u32> = inner.support(f).iter().map(|&v| perm.apply(v)).collect();
        targets.sort_unstable();
        if let Some(w) = targets.windows(2).find(|w| w[0] == w[1]) {
            return Err(BddError::InvalidPermutation {
                var: w[0],
                kind: PermutationFlaw::DuplicateTarget,
            });
        }
        match targets.iter().find(|&&t| t >= inner.num_vars()) {
            Some(&var) => Err(BddError::InvalidPermutation {
                var,
                kind: PermutationFlaw::OutOfRange,
            }),
            None => Ok(()),
        }
    }

    #[test]
    fn pruned_validation_reports_what_the_support_scan_reports() {
        const N: u32 = 10;
        let mut rng = XorShift64Star::new(0x5eed);
        let (mut errors, mut checks) = (0, 0);
        for m in [
            BddManager::new(N as usize),
            BddManager::new_chained(N as usize),
        ] {
            for _ in 0..300 {
                // A random function: an OR of a few random cubes.
                let mut f = m.constant_false();
                for _ in 0..rng.gen_index(0..4) {
                    let mut cube = m.constant_true();
                    for _ in 0..rng.gen_index(1..5) {
                        let v = rng.gen_range(0..N as u64) as u32;
                        let lit = if rng.gen_bool(0.5) {
                            m.var(v)
                        } else {
                            m.nvar(v)
                        };
                        cube = cube.and(&lit);
                    }
                    f = f.or(&cube);
                }
                // Random pairs over a range a little past the variables, so
                // some sources and targets fall outside it.
                let pairs: Vec<(u32, u32)> = (0..rng.gen_index(0..6))
                    .map(|_| {
                        let s = rng.gen_range(0..N as u64 + 3) as u32;
                        (s, rng.gen_range(0..N as u64 + 3) as u32)
                    })
                    .collect();
                let Ok(perm) = Permutation::try_from_pairs(&pairs) else {
                    continue;
                };
                let mut inner = m.inner.borrow_mut();
                let want = validate_by_support(&inner, f.id, &perm);
                assert_eq!(inner.validate_replace(f.id, &perm), want, "pairs {pairs:?}");
                checks += 1;
                errors += usize::from(want.is_err());
            }
        }
        assert!(
            errors > 50 && checks - errors > 50,
            "{errors} of {checks} rejected"
        );
    }
}
