//! A zero-suppressed decision diagram (ZDD) kernel.
//!
//! The Jedd paper (§4.1) reports work in progress on a ZDD backend, since
//! ZDDs represent sparse tuple sets (like points-to relations) compactly.
//! This module provides that backend: a hash-consed ZDD store with the set
//! operations the relational layer needs, plus tuple construction and
//! enumeration. The `zdd_backend` bench compares it against the BDD kernel.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Index of a ZDD node. `0` is the empty family, `1` is the family
/// containing only the empty set.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ZddId(u32);

impl ZddId {
    /// The empty family of sets.
    pub const EMPTY: ZddId = ZddId(0);
    /// The family containing exactly the empty set.
    pub const UNIT: ZddId = ZddId(1);
}

/// A ZDD node: the sets without `var` (`low`) and the sets with `var`
/// removed (`high`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct ZNode {
    var: u32,
    low: u32,
    high: u32,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum ZOp {
    Union,
    Intersect,
    Diff,
    Change,
    Subset0,
    Subset1,
}

struct ZInner {
    nodes: Vec<ZNode>,
    unique: HashMap<ZNode, u32>,
    cache: HashMap<(ZOp, u32, u32), u32>,
    num_vars: u32,
}

impl ZInner {
    /// The canonical node for `(var, low, high)`; a node whose high edge is
    /// the empty family is suppressed to `low`.
    fn mk(&mut self, var: u32, low: u32, high: u32) -> u32 {
        if high == 0 {
            return low;
        }
        let key = ZNode { var, low, high };
        if let Some(&id) = self.unique.get(&key) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(key);
        self.unique.insert(key, id);
        id
    }

    /// The variable a node tests first (`u32::MAX` for terminals).
    fn top(&self, a: u32) -> u32 {
        self.nodes[a as usize].var
    }

    /// The cofactor pair of `a` at variable `m`: (sets without `m`, sets
    /// with `m` — `m` removed). Requires `m <= top(a)`; above the top the
    /// variable is absent from every set.
    fn zcof(&self, a: u32, m: u32) -> (u32, u32) {
        let n = self.nodes[a as usize];
        if n.var > m {
            (a, 0)
        } else {
            (n.low, n.high)
        }
    }

    fn union(&mut self, a: u32, b: u32) -> u32 {
        if a == b || b == 0 {
            return a;
        }
        if a == 0 {
            return b;
        }
        let (a, b) = if a > b { (b, a) } else { (a, b) };
        if let Some(&r) = self.cache.get(&(ZOp::Union, a, b)) {
            return r;
        }
        // Merge on the cofactors at the higher top variable (UNIT reports
        // `u32::MAX`, so `a == 1` descends b's low spine).
        let m = self.top(a).min(self.top(b));
        let (a0, a1) = self.zcof(a, m);
        let (b0, b1) = self.zcof(b, m);
        let lo = self.union(a0, b0);
        let hi = self.union(a1, b1);
        let r = self.mk(m, lo, hi);
        self.cache.insert((ZOp::Union, a, b), r);
        r
    }

    fn intersect(&mut self, a: u32, b: u32) -> u32 {
        if a == b {
            return a;
        }
        if a == 0 || b == 0 {
            return 0;
        }
        if a == 1 {
            return if self.contains_empty(b) { 1 } else { 0 };
        }
        if b == 1 {
            return if self.contains_empty(a) { 1 } else { 0 };
        }
        let (a, b) = if a > b { (b, a) } else { (a, b) };
        if let Some(&r) = self.cache.get(&(ZOp::Intersect, a, b)) {
            return r;
        }
        let m = self.top(a).min(self.top(b));
        let (a0, a1) = self.zcof(a, m);
        let (b0, b1) = self.zcof(b, m);
        let lo = self.intersect(a0, b0);
        let hi = self.intersect(a1, b1);
        let r = self.mk(m, lo, hi);
        self.cache.insert((ZOp::Intersect, a, b), r);
        r
    }

    fn diff(&mut self, a: u32, b: u32) -> u32 {
        if a == 0 || a == b {
            return 0;
        }
        if b == 0 {
            return a;
        }
        if let Some(&r) = self.cache.get(&(ZOp::Diff, a, b)) {
            return r;
        }
        let r = if a == 1 {
            if self.contains_empty(b) {
                0
            } else {
                1
            }
        } else {
            let m = self.top(a).min(self.top(b));
            let (a0, a1) = self.zcof(a, m);
            let (b0, b1) = self.zcof(b, m);
            let lo = self.diff(a0, b0);
            let hi = self.diff(a1, b1);
            self.mk(m, lo, hi)
        };
        self.cache.insert((ZOp::Diff, a, b), r);
        r
    }

    fn contains_empty(&self, mut a: u32) -> bool {
        while a > 1 {
            a = self.nodes[a as usize].low;
        }
        a == 1
    }

    /// Family of sets in `a` not containing `var`.
    fn subset0(&mut self, a: u32, var: u32) -> u32 {
        if a <= 1 {
            return a;
        }
        let na = self.nodes[a as usize];
        if na.var > var {
            return a;
        }
        let key = (ZOp::Subset0, a, var);
        if let Some(&r) = self.cache.get(&key) {
            return r;
        }
        let r = if var == na.var {
            na.low
        } else {
            let lo = self.subset0(na.low, var);
            let hi = self.subset0(na.high, var);
            self.mk(na.var, lo, hi)
        };
        self.cache.insert(key, r);
        r
    }

    /// Family of sets in `a` containing `var`, with `var` removed.
    fn subset1(&mut self, a: u32, var: u32) -> u32 {
        if a <= 1 {
            return 0;
        }
        let na = self.nodes[a as usize];
        if na.var > var {
            return 0;
        }
        let key = (ZOp::Subset1, a, var);
        if let Some(&r) = self.cache.get(&key) {
            return r;
        }
        let r = if var == na.var {
            na.high
        } else {
            let lo = self.subset1(na.low, var);
            let hi = self.subset1(na.high, var);
            self.mk(na.var, lo, hi)
        };
        self.cache.insert(key, r);
        r
    }

    /// Toggles membership of `var` in every set of the family.
    fn change(&mut self, a: u32, var: u32) -> u32 {
        if a == 0 {
            return 0;
        }
        let key = (ZOp::Change, a, var);
        if let Some(&r) = self.cache.get(&key) {
            return r;
        }
        let r = if a == 1 {
            self.mk(var, 0, 1)
        } else {
            let na = self.nodes[a as usize];
            if na.var > var {
                self.mk(var, 0, a)
            } else if var == na.var {
                self.mk(var, na.high, na.low)
            } else {
                let lo = self.change(na.low, var);
                let hi = self.change(na.high, var);
                self.mk(na.var, lo, hi)
            }
        };
        self.cache.insert(key, r);
        r
    }

    fn count(&self, a: u32, memo: &mut HashMap<u32, f64>) -> f64 {
        if a == 0 {
            return 0.0;
        }
        if a == 1 {
            return 1.0;
        }
        if let Some(&c) = memo.get(&a) {
            return c;
        }
        let n = self.nodes[a as usize];
        let c = self.count(n.low, memo) + self.count(n.high, memo);
        memo.insert(a, c);
        c
    }

    fn node_count(&self, a: u32) -> usize {
        if a <= 1 {
            return 0;
        }
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![a];
        while let Some(id) = stack.pop() {
            if id <= 1 || !seen.insert(id) {
                continue;
            }
            let n = self.nodes[id as usize];
            stack.push(n.low);
            stack.push(n.high);
        }
        seen.len()
    }
}

/// A shared ZDD kernel. Families of sets of variables; hash-consed with
/// memoised operations.
///
/// # Examples
///
/// ```
/// use jedd_bdd::ZddManager;
/// let z = ZddManager::new(8);
/// let a = z.family(&[vec![0, 2], vec![1]]);
/// let b = z.family(&[vec![1], vec![3]]);
/// assert_eq!(z.count(z.union(a, b)), 3.0);
/// assert_eq!(z.count(z.intersect(a, b)), 1.0);
/// ```
#[derive(Clone)]
pub struct ZddManager {
    inner: Rc<RefCell<ZInner>>,
}

impl fmt::Debug for ZddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("ZddManager")
            .field("num_vars", &inner.num_vars)
            .field("nodes", &inner.nodes.len())
            .finish()
    }
}

impl ZddManager {
    /// Creates a ZDD manager over `num_vars` variables.
    pub fn new(num_vars: usize) -> ZddManager {
        let terminal = |id| ZNode {
            var: u32::MAX,
            low: id,
            high: id,
        };
        ZddManager {
            inner: Rc::new(RefCell::new(ZInner {
                nodes: vec![terminal(0), terminal(1)],
                unique: HashMap::new(),
                cache: HashMap::new(),
                num_vars: num_vars as u32,
            })),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.inner.borrow().num_vars as usize
    }

    /// The family containing the single set with exactly the given
    /// variables.
    ///
    /// # Panics
    ///
    /// Panics if a variable is out of range.
    pub fn singleton(&self, vars: &[u32]) -> ZddId {
        let mut inner = self.inner.borrow_mut();
        let mut sorted = vars.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut acc = 1u32;
        for &v in sorted.iter().rev() {
            assert!(v < inner.num_vars, "zdd variable {v} out of range");
            acc = inner.mk(v, 0, acc);
        }
        ZddId(acc)
    }

    /// The family containing all the given sets.
    pub fn family(&self, sets: &[Vec<u32>]) -> ZddId {
        let mut acc = ZddId::EMPTY;
        for s in sets {
            let one = self.singleton(s);
            acc = self.union(acc, one);
        }
        acc
    }

    /// Set-family union.
    pub fn union(&self, a: ZddId, b: ZddId) -> ZddId {
        ZddId(self.inner.borrow_mut().union(a.0, b.0))
    }

    /// Set-family intersection.
    pub fn intersect(&self, a: ZddId, b: ZddId) -> ZddId {
        ZddId(self.inner.borrow_mut().intersect(a.0, b.0))
    }

    /// Set-family difference.
    pub fn diff(&self, a: ZddId, b: ZddId) -> ZddId {
        ZddId(self.inner.borrow_mut().diff(a.0, b.0))
    }

    /// The sets of `a` not containing `var`.
    pub fn subset0(&self, a: ZddId, var: u32) -> ZddId {
        ZddId(self.inner.borrow_mut().subset0(a.0, var))
    }

    /// The sets of `a` containing `var`, with `var` removed.
    pub fn subset1(&self, a: ZddId, var: u32) -> ZddId {
        ZddId(self.inner.borrow_mut().subset1(a.0, var))
    }

    /// Toggles `var` in every set of the family.
    pub fn change(&self, a: ZddId, var: u32) -> ZddId {
        ZddId(self.inner.borrow_mut().change(a.0, var))
    }

    /// "Existential quantification" of `var`: sets with and without `var`
    /// merged, `var` removed.
    pub fn abstract_var(&self, a: ZddId, var: u32) -> ZddId {
        let s0 = self.subset0(a, var);
        let s1 = self.subset1(a, var);
        self.union(s0, s1)
    }

    /// Number of sets in the family.
    pub fn count(&self, a: ZddId) -> f64 {
        let inner = self.inner.borrow();
        let mut memo = HashMap::new();
        inner.count(a.0, &mut memo)
    }

    /// Number of internal nodes of `a`.
    pub fn node_count(&self, a: ZddId) -> usize {
        self.inner.borrow().node_count(a.0)
    }

    /// Total nodes allocated by the manager.
    pub fn total_nodes(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// Collects every set in the family (sorted variable lists). Intended
    /// for tests and small families.
    pub fn sets(&self, a: ZddId) -> Vec<Vec<u32>> {
        let inner = self.inner.borrow();
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        fn rec(inner: &ZInner, id: u32, prefix: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
            if id == 0 {
                return;
            }
            if id == 1 {
                out.push(prefix.clone());
                return;
            }
            let n = inner.nodes[id as usize];
            rec(inner, n.low, prefix, out);
            prefix.push(n.var);
            rec(inner, n.high, prefix, out);
            prefix.pop();
        }
        rec(&inner, a.0, &mut prefix, &mut out);
        out.sort();
        out
    }

    /// Encodes a tuple of `(bits, value)` fields as a set: variable `b` is
    /// in the set iff the corresponding bit of `value` is 1 (MSB first).
    /// This is the ZDD analogue of `BddManager::encode_value`.
    pub fn encode_tuple(&self, fields: &[(&[u32], u64)]) -> ZddId {
        let mut vars = Vec::new();
        for &(bits, value) in fields {
            for (i, &b) in bits.iter().enumerate() {
                if (value >> (bits.len() - 1 - i)) & 1 == 1 {
                    vars.push(b);
                }
            }
        }
        self.singleton(&vars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_unit() {
        let z = ZddManager::new(4);
        assert_eq!(z.count(ZddId::EMPTY), 0.0);
        assert_eq!(z.count(ZddId::UNIT), 1.0);
        assert_eq!(z.sets(ZddId::UNIT), vec![Vec::<u32>::new()]);
    }

    #[test]
    fn union_intersect_diff() {
        let z = ZddManager::new(8);
        let a = z.family(&[vec![0], vec![1, 2], vec![3]]);
        let b = z.family(&[vec![1, 2], vec![4]]);
        assert_eq!(z.count(z.union(a, b)), 4.0);
        assert_eq!(z.count(z.intersect(a, b)), 1.0);
        assert_eq!(z.sets(z.intersect(a, b)), vec![vec![1, 2]]);
        assert_eq!(z.count(z.diff(a, b)), 2.0);
        assert_eq!(z.diff(a, a), ZddId::EMPTY);
    }

    #[test]
    fn union_idempotent_and_commutative() {
        let z = ZddManager::new(6);
        let a = z.family(&[vec![0, 1], vec![2]]);
        let b = z.family(&[vec![2], vec![5]]);
        assert_eq!(z.union(a, a), a);
        assert_eq!(z.union(a, b), z.union(b, a));
    }

    #[test]
    fn subset_and_change() {
        let z = ZddManager::new(4);
        let a = z.family(&[vec![0, 1], vec![1], vec![2]]);
        assert_eq!(z.sets(z.subset1(a, 1)), vec![vec![], vec![0]]);
        assert_eq!(z.sets(z.subset0(a, 1)), vec![vec![2]]);
        let c = z.change(a, 3);
        assert_eq!(z.sets(c), vec![vec![0, 1, 3], vec![1, 3], vec![2, 3]]);
    }

    #[test]
    fn abstract_var_merges() {
        let z = ZddManager::new(4);
        let a = z.family(&[vec![0, 1], vec![1], vec![0]]);
        let r = z.abstract_var(a, 0);
        // {1} appears from both {0,1} and {1}; {} from {0}.
        assert_eq!(z.sets(r), vec![vec![], vec![1]]);
    }

    #[test]
    fn encode_tuple_sets_msb_first() {
        let z = ZddManager::new(8);
        let bits = [0u32, 1, 2, 3];
        let t = z.encode_tuple(&[(&bits, 0b1010)]);
        assert_eq!(z.sets(t), vec![vec![0, 2]]);
    }

    #[test]
    fn empty_family_identities() {
        let z = ZddManager::new(4);
        let a = z.family(&[vec![0], vec![1]]);
        assert_eq!(z.union(a, ZddId::EMPTY), a);
        assert_eq!(z.intersect(a, ZddId::EMPTY), ZddId::EMPTY);
        assert_eq!(z.diff(ZddId::EMPTY, a), ZddId::EMPTY);
    }

    #[test]
    fn hash_consing_dedups() {
        let z = ZddManager::new(4);
        let a = z.singleton(&[1, 3]);
        let b = z.singleton(&[3, 1]);
        assert_eq!(a, b);
    }
}
