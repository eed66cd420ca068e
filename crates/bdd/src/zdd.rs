//! A zero-suppressed decision diagram (ZDD) kernel.
//!
//! The Jedd paper (§4.1) reports work in progress on a ZDD backend, since
//! ZDDs represent sparse tuple sets (like points-to relations) compactly.
//! This module provides that backend: a hash-consed ZDD store with the set
//! operations the relational layer needs, plus tuple construction and
//! enumeration. The `zdd_backend` bench compares it against the BDD kernel.

use crate::budget::BddError;
use crate::manager::ExportedNode;
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

/// A ZDD node. `bot` is the chain interval's bottom variable (Bryant's
/// CZDD reduction, TACAS 2018): a node with `bot > var` encodes a
/// don't-care chain over `var..bot-1` followed by the decision
/// `(¬x_bot·low + x_bot·high)` in ZDD semantics. Plain managers only ever
/// create the `bot == var` degenerate case.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct ZNode {
    var: u32,
    bot: u32,
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
    chain: bool,
}

impl ZInner {
    fn mk(&mut self, var: u32, low: u32, high: u32) -> u32 {
        self.mk_span(var, var, low, high)
    }

    /// The variable a node tests first (`u32::MAX` for terminals).
    fn top(&self, a: u32) -> u32 {
        self.nodes[a as usize].var
    }

    /// Chain-reduced constructor: the canonical node for the don't-care
    /// chain `DC(t..b-1) · (¬x_b·f0 + x_b·f1)`.
    ///
    /// Canonicalisation (Bryant, TACAS 2018, CZDD flavour):
    ///
    /// 1. `⟨t:b, f, 0⟩ ≡ ⟨t:b-1, f, f⟩` (and `⟨t:t, f, 0⟩ ≡ f`, the
    ///    plain zero-suppression rule) — an empty high edge folds the
    ///    bottom level into the don't-care chain;
    /// 2. `⟨t:b, f, f⟩` with `f = ⟨b+1:b2, g0, g1⟩` `≡ ⟨t:b2, g0, g1⟩` —
    ///    a don't-care bottom whose child continues directly below absorbs
    ///    the child's chain (chain mode only: plain ZDDs keep their
    ///    `low == high` don't-care nodes).
    ///
    /// The canonical invariant is `f1 != 0` and *not* (`f0 == f1` and
    /// `f0`'s top variable is `b + 1`). With chain mode off this
    /// degenerates to the plain rule (`t == b` always).
    fn mk_span(&mut self, t: u32, mut b: u32, mut f0: u32, mut f1: u32) -> u32 {
        debug_assert!(self.chain || t == b, "chain span in a plain zdd manager");
        loop {
            if f1 == 0 {
                if t == b {
                    return f0;
                }
                b -= 1;
                f1 = f0;
            } else if self.chain && f0 == f1 && f0 > 1 && self.nodes[f0 as usize].var == b + 1 {
                let c = self.nodes[f0 as usize];
                b = c.bot;
                f0 = c.low;
                f1 = c.high;
                // The child was canonical, so its (f0, f1) pair cannot
                // trigger either rule again.
                break;
            } else {
                break;
            }
        }
        let key = ZNode {
            var: t,
            bot: b,
            low: f0,
            high: f1,
        };
        if let Some(&id) = self.unique.get(&key) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(key);
        self.unique.insert(key, id);
        id
    }

    /// The cofactor pair of `a` at variable `m`: (sets without `m`, sets
    /// with `m` — `m` removed), both over variables `> m`. Requires
    /// `m <= top(a)`; above the top the variable is absent from every set.
    /// Don't-care chain levels cofactor to the same tail on both sides.
    fn zcof(&mut self, a: u32, m: u32) -> (u32, u32) {
        if a <= 1 {
            return (a, 0);
        }
        let n = self.nodes[a as usize];
        if n.var > m {
            return (a, 0);
        }
        debug_assert_eq!(n.var, m, "zcof below the top variable");
        if m == n.bot {
            (n.low, n.high)
        } else {
            let tail = self.mk_span(m + 1, n.bot, n.low, n.high);
            (tail, tail)
        }
    }

    /// `DC(t..end-1) · f`: a don't-care span over the half-open range
    /// `t..end` in front of `f` (identity when the range is empty).
    fn dc_span(&mut self, t: u32, end: u32, f: u32) -> u32 {
        if end <= t {
            f
        } else {
            self.mk_span(t, end - 1, f, f)
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
        // Generic merge on the cofactors at the higher top variable (UNIT
        // reports `u32::MAX`, so `a == 1` descends b's low spine as the
        // structural merge did). In a plain manager `zcof` is exactly the
        // stored child pair, so ids and cache behaviour are unchanged.
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
        let r = if var < na.bot {
            // A don't-care chain level: drop it from the chain, keep the
            // don't-care prefix above it.
            let tail = self.mk_span(var + 1, na.bot, na.low, na.high);
            self.dc_span(na.var, var, tail)
        } else if var == na.bot {
            // The decision level: keep the low branch under the prefix.
            self.dc_span(na.var, na.bot, na.low)
        } else {
            let lo = self.subset0(na.low, var);
            let hi = self.subset0(na.high, var);
            self.mk_span(na.var, na.bot, lo, hi)
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
        let r = if var < na.bot {
            // Don't-care level: the sets containing `var` biject (by
            // removing it) onto the sets without it — same result as
            // `subset0`.
            let tail = self.mk_span(var + 1, na.bot, na.low, na.high);
            self.dc_span(na.var, var, tail)
        } else if var == na.bot {
            self.dc_span(na.var, na.bot, na.high)
        } else {
            let lo = self.subset1(na.low, var);
            let hi = self.subset1(na.high, var);
            self.mk_span(na.var, na.bot, lo, hi)
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
            } else if var < na.bot {
                // Toggling a don't-care level permutes the family onto
                // itself.
                a
            } else if var == na.bot {
                self.mk_span(na.var, na.bot, na.high, na.low)
            } else {
                let lo = self.change(na.low, var);
                let hi = self.change(na.high, var);
                self.mk_span(na.var, na.bot, lo, hi)
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
        // Each don't-care chain level doubles the family.
        let c = (self.count(n.low, memo) + self.count(n.high, memo))
            * (2f64).powi((n.bot - n.var) as i32);
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
        ZddManager::new_inner(num_vars, false)
    }

    /// Creates a chain-reduced (CZDD) manager: nodes may carry a chain
    /// interval encoding a don't-care span (Bryant, TACAS 2018), so
    /// families where many variables are "present or absent freely" store
    /// one node per span. A CZDD never holds more nodes than the plain
    /// ZDD of the same family.
    pub fn new_chained(num_vars: usize) -> ZddManager {
        ZddManager::new_inner(num_vars, true)
    }

    fn new_inner(num_vars: usize, chain: bool) -> ZddManager {
        ZddManager {
            inner: Rc::new(RefCell::new(ZInner {
                nodes: vec![
                    ZNode {
                        var: u32::MAX,
                        bot: u32::MAX,
                        low: 0,
                        high: 0,
                    },
                    ZNode {
                        var: u32::MAX,
                        bot: u32::MAX,
                        low: 1,
                        high: 1,
                    },
                ],
                unique: HashMap::new(),
                cache: HashMap::new(),
                num_vars: num_vars as u32,
                chain,
            })),
        }
    }

    /// `true` when this manager applies chain reduction (created via
    /// [`ZddManager::new_chained`]).
    pub fn chain_mode(&self) -> bool {
        self.inner.borrow().chain
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
        // `top` is the effective top variable of `id`: chain nodes expand
        // their don't-care levels one at a time (both with and without the
        // variable) before the decision at `bot`.
        fn rec(inner: &ZInner, id: u32, top: u32, prefix: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
            if id == 0 {
                return;
            }
            if id == 1 {
                out.push(prefix.clone());
                return;
            }
            let n = inner.nodes[id as usize];
            if top < n.bot {
                rec(inner, id, top + 1, prefix, out);
                prefix.push(top);
                rec(inner, id, top + 1, prefix, out);
                prefix.pop();
                return;
            }
            rec(inner, n.low, inner.top(n.low), prefix, out);
            prefix.push(n.bot);
            rec(inner, n.high, inner.top(n.high), prefix, out);
            prefix.pop();
        }
        let top = inner.top(a.0);
        rec(&inner, a.0, top, &mut prefix, &mut out);
        out.sort();
        out
    }

    /// Serializes the sub-DAGs under `roots` as a children-first node
    /// table plus the slot of each root — the ZDD analogue of
    /// [`crate::BddManager::export_nodes`], using the same
    /// [`ExportedNode`]/slot encoding (slot 0 = [`ZddId::EMPTY`], slot 1 =
    /// [`ZddId::UNIT`], entry `i` = slot `i + 2`).
    pub fn export_nodes(&self, roots: &[ZddId]) -> (Vec<ExportedNode>, Vec<u32>) {
        let inner = self.inner.borrow();
        let mut slot: HashMap<u32, u32> = HashMap::new();
        slot.insert(0, 0);
        slot.insert(1, 1);
        let mut out: Vec<ExportedNode> = Vec::new();
        let mut stack: Vec<(u32, bool)> = Vec::new();
        for r in roots {
            stack.push((r.0, false));
            while let Some((id, expanded)) = stack.pop() {
                if slot.contains_key(&id) {
                    continue;
                }
                let n = inner.nodes[id as usize];
                if expanded {
                    // A chain node expands to its plain spine: the decision
                    // node at `bot`, then one don't-care `(next, next)` node
                    // per chain level walking back up to `var`. Plain
                    // managers emit exactly one entry per node, so their
                    // tables are unchanged. The id maps to the topmost slot.
                    out.push(ExportedNode {
                        var: n.bot,
                        low: slot[&n.low],
                        high: slot[&n.high],
                    });
                    let mut acc = out.len() as u32 + 1;
                    for l in (n.var..n.bot).rev() {
                        out.push(ExportedNode {
                            var: l,
                            low: acc,
                            high: acc,
                        });
                        acc = out.len() as u32 + 1;
                    }
                    slot.insert(id, acc);
                } else {
                    stack.push((id, true));
                    stack.push((n.high, false));
                    stack.push((n.low, false));
                }
            }
        }
        let root_slots = roots.iter().map(|r| slot[&r.0]).collect();
        (out, root_slots)
    }

    /// Rebuilds the ZDDs described by a node table from
    /// [`ZddManager::export_nodes`], returning an id per root slot. Entries
    /// are re-interned through the unique table, so importing into a fresh
    /// manager assigns the same node ids on every run (this kernel never
    /// garbage-collects, so ids are allocation-ordered).
    ///
    /// The whole table is validated before the first node is created.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::InvalidImport`] when the table is malformed:
    /// variable out of range, forward or self reference, the parent's
    /// variable not above a child's, or a zero-suppressible entry (high
    /// edge = empty family) that `mk` would have removed.
    pub fn import_nodes(
        &self,
        nodes: &[ExportedNode],
        roots: &[u32],
    ) -> Result<Vec<ZddId>, BddError> {
        const TERMINAL: u32 = u32::MAX;
        let mut inner = self.inner.borrow_mut();
        let mut vars: Vec<u32> = Vec::with_capacity(nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            let index = i as u32;
            if n.var >= inner.num_vars {
                return Err(BddError::InvalidImport {
                    index,
                    reason: "variable out of range",
                });
            }
            for child in [n.low, n.high] {
                if child as usize >= i + 2 {
                    return Err(BddError::InvalidImport {
                        index,
                        reason: "child slot is not an earlier entry",
                    });
                }
                let child_var = if child < 2 {
                    TERMINAL
                } else {
                    vars[child as usize - 2]
                };
                if n.var >= child_var {
                    return Err(BddError::InvalidImport {
                        index,
                        reason: "child does not sit below its parent in the order",
                    });
                }
            }
            if n.high == 0 {
                return Err(BddError::InvalidImport {
                    index,
                    reason: "zero-suppressible entry (empty high edge)",
                });
            }
            vars.push(n.var);
        }
        for (i, &r) in roots.iter().enumerate() {
            if r as usize >= nodes.len() + 2 {
                return Err(BddError::InvalidImport {
                    index: i as u32,
                    reason: "root slot out of range",
                });
            }
        }
        let mut ids: Vec<u32> = Vec::with_capacity(nodes.len() + 2);
        ids.push(0);
        ids.push(1);
        for n in nodes {
            let low = ids[n.low as usize];
            let high = ids[n.high as usize];
            let id = inner.mk(n.var, low, high);
            ids.push(id);
        }
        Ok(roots.iter().map(|&r| ZddId(ids[r as usize])).collect())
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
