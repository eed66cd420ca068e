//! Tuple minterms: the one bottom-up builder behind
//! [`crate::BddManager::encode_value`], [`crate::BddManager::encode_values`]
//! and [`crate::BddManager::insert_values`], and the single-path OR that
//! adds one minterm to a relation.
//!
//! A tuple is a minterm over its fields' bits: one literal per bit, so
//! its BDD is a single path. ORing it into a relation only rebuilds the
//! nodes on that path — every branch the minterm leaves is the relation's
//! own cofactor, returned unchanged — so the recursion visits each level
//! once and needs no memo. It therefore skips the operation cache, which
//! a loader's stream of distinct tuples would only fill with entries that
//! never hit again.

use crate::budget::BddError;
use crate::node::NodeId;
use crate::ops::BinOp;
use crate::table::Inner;

const F: u32 = NodeId::FALSE.0;
const T: u32 = NodeId::TRUE.0;

/// One field of a tuple: `value` encoded over `bits`, most significant bit
/// first.
type Field<'a> = (&'a [u32], u64);

impl Inner {
    /// The literals `(level, positive)` of the conjunction of every field,
    /// sorted by level in the current order. A variable pinned twice to
    /// the same bit appears once; `None` when two fields pin one variable
    /// to both bits, so the conjunction is empty.
    fn minterm_literals(&self, fields: &[Field<'_>]) -> Option<Vec<(u32, bool)>> {
        let mut lits: Vec<(u32, bool)> =
            Vec::with_capacity(fields.iter().map(|(bits, _)| bits.len()).sum());
        for &(bits, value) in fields {
            let n = bits.len();
            for (i, &var) in bits.iter().enumerate() {
                lits.push((self.level_of_var(var), (value >> (n - 1 - i)) & 1 == 1));
            }
        }
        lits.sort_unstable();
        lits.dedup();
        if lits.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        Some(lits)
    }

    /// Builds the minterm of `lits` bottom-up, one `mk` per literal.
    /// `out[i]` is the node of the suffix `lits[i..]`: `out[0]` is the
    /// whole minterm and `out[lits.len()]` is `TRUE`.
    fn minterm_suffixes(&mut self, lits: &[(u32, bool)]) -> Result<Vec<u32>, BddError> {
        let mut out = vec![T; lits.len() + 1];
        for (i, &(level, positive)) in lits.iter().enumerate().rev() {
            let rest = out[i + 1];
            out[i] = if positive {
                self.mk(level, F, rest)?
            } else {
                self.mk(level, rest, F)?
            };
        }
        Ok(out)
    }

    /// The conjunction of every field's value encoding.
    pub(crate) fn encode_minterm(&mut self, fields: &[Field<'_>]) -> Result<u32, BddError> {
        match self.minterm_literals(fields) {
            Some(lits) => Ok(self.minterm_suffixes(&lits)?[0]),
            None => Ok(F),
        }
    }

    /// `f ∨ minterm(fields)`: builds the minterm, then ORs it in along its
    /// own path ([`Inner::or_minterm`]).
    pub(crate) fn insert_minterm(&mut self, f: u32, fields: &[Field<'_>]) -> Result<u32, BddError> {
        let Some(lits) = self.minterm_literals(fields) else {
            return Ok(f);
        };
        let suffix = self.minterm_suffixes(&lits)?;
        self.or_minterm(f, &lits, &suffix, 0)
    }

    /// `f ∨ suffix[i]`, where `f` sits below `lits[i - 1]`. At each
    /// literal the branch the minterm leaves is `f`'s own cofactor, so
    /// only the literal's branch recurses and no result is memoised.
    ///
    /// When `f` tests a level the minterm leaves free (above `lits[i]`),
    /// both of its branches gain the minterm: that is the general OR, so
    /// it falls back to the memoised `apply`. Relations built only from
    /// tuples over one schema never take this branch.
    fn or_minterm(
        &mut self,
        f: u32,
        lits: &[(u32, bool)],
        suffix: &[u32],
        i: usize,
    ) -> Result<u32, BddError> {
        if f == T || i == lits.len() {
            return Ok(T);
        }
        if f == F {
            return Ok(suffix[i]);
        }
        self.step()?;
        self.prefault(&[f])?;
        let (level, positive) = lits[i];
        if self.level(f) < level {
            return self.apply(BinOp::Or, f, suffix[i]);
        }
        // `f` either tests this level (a chain node yields its tail as the
        // 0-cofactor) or skips it (both cofactors are `f`).
        let (f0, f1) = self.cofactor_pair(f, level)?;
        let (r0, r1) = if positive {
            (f0, self.or_minterm(f1, lits, suffix, i + 1)?)
        } else {
            (self.or_minterm(f0, lits, suffix, i + 1)?, f1)
        };
        self.mk(level, r0, r1)
    }
}

#[cfg(test)]
mod tests {
    use crate::rng::XorShift64Star;
    use crate::{BddError, BddManager, Budget, FailPlan};

    /// Three 3-bit fields over 12 variables; field `k` owns variables
    /// `k, k + 3, k + 6` (interleaved), and variables 9..12 stay free.
    fn fields(k: usize) -> Vec<u32> {
        (0..3).map(|b| (k + 3 * b) as u32).collect()
    }

    fn managers() -> [BddManager; 2] {
        [BddManager::new(12), BddManager::new_chained(12)]
    }

    #[test]
    fn insert_equals_the_or_fold_of_encoded_tuples() {
        for m in managers() {
            let bits: Vec<Vec<u32>> = (0..3).map(fields).collect();
            let mut rng = XorShift64Star::new(5);
            let mut fold = m.constant_false();
            let mut ins = m.constant_false();
            for _ in 0..200 {
                let t: Vec<u64> = (0..3).map(|_| rng.gen_range(0..8)).collect();
                let fs: Vec<(&[u32], u64)> = bits
                    .iter()
                    .zip(&t)
                    .map(|(b, &v)| (b.as_slice(), v))
                    .collect();
                let mut enc = m.constant_true();
                for &(b, v) in &fs {
                    enc = enc.and(&m.encode_value(b, v));
                }
                assert_eq!(m.encode_values(&fs), enc);
                fold = fold.or(&enc);
                ins = m.insert_values(&ins, &fs);
                assert_eq!(ins, fold, "chained: {}", m.chain_mode());
            }
        }
    }

    #[test]
    fn insert_skips_the_op_cache_on_its_own_support() {
        let m = BddManager::new(12);
        let (a, b) = (fields(0), fields(1));
        let mut r = m.constant_false();
        let before = m.kernel_stats().cache_lookups;
        for v in 0..8u64 {
            r = m.insert_values(&r, &[(&a, v), (&b, 7 - v)]);
        }
        assert_eq!(m.kernel_stats().cache_lookups, before);
        assert_eq!(r.satcount_over(&[a.clone(), b.clone()].concat()), 8.0);
    }

    #[test]
    fn insert_falls_back_where_the_relation_tests_a_free_level() {
        for m in managers() {
            // `f` depends on variable 1, which the inserted tuple leaves
            // free: the general OR must still come out right.
            let f = m.var(1).and(&m.var(9));
            let fs: [(&[u32], u64); 1] = [(&[0, 10], 2)];
            assert_eq!(m.insert_values(&f, &fs), f.or(&m.encode_values(&fs)));
        }
    }

    #[test]
    fn shared_bits_conjoin() {
        let m = BddManager::new(4);
        // Both fields pin variable 1: agreeing values keep one literal,
        // clashing ones leave nothing to insert.
        let agree: [(&[u32], u64); 2] = [(&[0, 1], 1), (&[1, 2], 2)];
        let want = m.nvar(0).and(&m.var(1)).and(&m.nvar(2));
        assert_eq!(m.encode_values(&agree), want);
        let clash: [(&[u32], u64); 2] = [(&[0, 1], 1), (&[1, 2], 0)];
        assert!(m.encode_values(&clash).is_false());
        let f = m.var(3);
        assert_eq!(m.insert_values(&f, &clash), f);
    }

    #[test]
    fn insert_is_governed() {
        let m = BddManager::new(12);
        let a = fields(0);
        let r = m.insert_values(&m.constant_false(), &[(&a, 3)]);
        m.set_fail_plan(Some(FailPlan::fail_alloc_at(1)));
        assert!(matches!(
            m.try_insert_values(&r, &[(&a, 4)]),
            Err(BddError::FaultInjected { .. })
        ));
        m.set_fail_plan(None);
        m.set_budget(Budget::unlimited().with_max_steps(1));
        assert!(matches!(
            m.try_insert_values(&r, &[(&a, 2)]),
            Err(BddError::StepLimit { .. })
        ));
        m.set_budget(Budget::unlimited());
        let ok = m.try_insert_values(&r, &[(&a, 4)]).unwrap();
        assert_eq!(ok.satcount_over(&a), 2.0);
    }
}
