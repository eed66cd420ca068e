//! Dynamic variable reordering by sifting (Rudell's algorithm) — the
//! BuDDy/CUDD facility behind the paper's §4.3 concern that "the ordering
//! of bits in a BDD determines its size".
//!
//! Each variable in turn is moved through every level position by
//! adjacent-level swaps; it is parked at the position minimising the total
//! live node count. Swaps are performed in place: every node id keeps the
//! boolean function it denoted, so external [`crate::Bdd`] handles and the
//! operation cache stay valid throughout.

use crate::node::{FREE_LEVEL, TERMINAL_LEVEL};
use crate::table::Inner;

impl Inner {
    /// Swaps the variables at `level` and `level + 1`.
    ///
    /// In-place Rudell swap: nodes at `level` that depend on the lower
    /// variable are rewritten (same id, same function); independent nodes
    /// are relabelled across the boundary. Every node id's function is
    /// preserved.
    pub(crate) fn swap_adjacent(&mut self, level: u32) {
        let l0 = level;
        let l1 = level + 1;
        debug_assert!(l1 < self.num_vars());

        // Collect the nodes at both levels.
        let mut at0: Vec<u32> = Vec::new();
        let mut at1: Vec<u32> = Vec::new();
        for (i, n) in self.nodes.iter().enumerate().skip(2) {
            if n.level == l0 {
                at0.push(i as u32);
            } else if n.level == l1 {
                at1.push(i as u32);
            }
        }

        // Remove them from the unique table: rebuild the buckets without
        // both levels (simple and safe; swaps are rare relative to mk).
        self.in_swap = true;
        self.rebuild_buckets_excluding(l0, l1);

        // Swap the variable <-> level maps first, so mk at these levels
        // during the rewrite sees the final geometry.
        let v0 = self.level2var[l0 as usize];
        let v1 = self.level2var[l1 as usize];
        self.level2var[l0 as usize] = v1;
        self.level2var[l1 as usize] = v0;
        self.var2level[v0 as usize] = l1;
        self.var2level[v1 as usize] = l0;

        // Pass 1: nodes at l0 NOT depending on l1 move down to l1
        // unchanged (they test the same variable, which now lives at l1).
        // They must be inserted before any `mk` can try to recreate them.
        let mut dependent: Vec<u32> = Vec::new();
        for &id in &at0 {
            let (lo, hi) = (self.nodes[id as usize].low, self.nodes[id as usize].high);
            let lo_l = self.nodes[lo as usize].level;
            let hi_l = self.nodes[hi as usize].level;
            if lo_l == l1 || hi_l == l1 {
                dependent.push(id);
            } else {
                self.nodes[id as usize].level = l1;
                self.nodes[id as usize].bot = l1;
                self.insert_unique(id);
            }
        }
        // Pass 2: nodes at l1 move up to l0 (same variable, new position).
        // Their children are strictly below l1, so ordering holds. They
        // may become garbage if only the rewritten nodes referenced them;
        // GC collects them later.
        for &id in &at1 {
            self.nodes[id as usize].level = l0;
            self.nodes[id as usize].bot = l0;
            self.insert_unique(id);
        }
        // Pass 3: rewrite the dependent nodes in place:
        //   N = (x, (y A B), (y C D))  =>  N' = (y, (x A C), (x B D))
        // with the convention that a child not testing y contributes
        // itself to both cofactors. x now lives at l1, y at l0.
        for &id in &dependent {
            let (lo, hi) = (self.nodes[id as usize].low, self.nodes[id as usize].high);
            // The old l1 nodes now carry level l0 (relabelled above).
            let (a, b) = if self.nodes[lo as usize].level == l0 {
                (self.nodes[lo as usize].low, self.nodes[lo as usize].high)
            } else {
                (lo, lo)
            };
            let (c, d) = if self.nodes[hi as usize].level == l0 {
                (self.nodes[hi as usize].low, self.nodes[hi as usize].high)
            } else {
                (hi, hi)
            };
            // Reordering runs with the governor suspended (see
            // `reorder_sift`), so `mk` cannot fail here.
            let new_lo = self
                .mk(l1, a, c)
                .expect("reordering is exempt from budgets");
            let new_hi = self
                .mk(l1, b, d)
                .expect("reordering is exempt from budgets");
            debug_assert_ne!(new_lo, new_hi, "swap of a reduced node cannot collapse");
            let n = &mut self.nodes[id as usize];
            n.level = l0;
            n.bot = l0;
            n.low = new_lo;
            n.high = new_hi;
            self.insert_unique(id);
        }
        self.in_swap = false;
        // Re-run the load-factor check that `in_swap` deferred: the swap
        // may have allocated enough rewritten nodes to overload the bucket
        // chains, and `mk` alone would not grow the table until the next
        // allocation happened to come along.
        self.maybe_grow_buckets();
    }

    /// Rebuilds the unique-table buckets, leaving out nodes at the two
    /// given levels (they are re-inserted by the swap).
    fn rebuild_buckets_excluding(&mut self, l0: u32, l1: u32) {
        let len = self.buckets_len();
        self.reset_buckets(len);
        for i in 2..self.nodes.len() {
            let n = self.nodes[i];
            if n.level == TERMINAL_LEVEL || n.level == FREE_LEVEL || n.level == l0 || n.level == l1
            {
                continue;
            }
            self.insert_unique(i as u32);
        }
    }

    /// Total live decision nodes (excluding terminals and free slots).
    fn live_decision_nodes(&self) -> usize {
        self.live_nodes() - 2
    }

    /// Sifts every variable to its locally optimal position, largest
    /// levels first. Returns the node count before and after.
    ///
    /// Must be called at a safe point (no recursion in flight); external
    /// handles stay valid.
    pub(crate) fn reorder_sift(&mut self) -> (usize, usize) {
        // A chain-mode manager is order-static: chain intervals are
        // contiguous level ranges, and an adjacent swap would have to
        // split every chain crossing the boundary. Reordering degrades to
        // a collection (the recovery ladder still gets its compaction);
        // an order reaches a chain manager only through `set_order`
        // before any node exists.
        // Paged managers are order-static too: the swap passes index the
        // arena slice directly, and level geometry rewrites would have to
        // stream every on-disk block through the pool per swap.
        if self.chain_mode() || self.paged() {
            self.gc();
            let n = self.live_nodes() - 2;
            return (n, n);
        }
        // Reordering is a compaction pass: it must be able to allocate
        // transient nodes even when the arena is over budget, so the
        // governor (and any fail plan) is suspended for its duration.
        let was_suspended = self.governor_suspended();
        self.suspend_governor(true);
        self.stats.sift_sweeps += 1;
        let result = self.reorder_sift_inner();
        self.suspend_governor(was_suspended);
        result
    }

    fn reorder_sift_inner(&mut self) -> (usize, usize) {
        // Start clean: collect garbage so counts reflect live nodes. The
        // operation cache is cleared wholesale up front — reordering is
        // the one event that changes what levels mean, and an empty cache
        // also lets the per-swap collections below skip their cache
        // sweeps entirely (no operations populate the cache mid-sift).
        self.clear_cache();
        self.gc();
        let before = self.live_decision_nodes();
        let n = self.num_vars();
        if n < 2 {
            return (before, before);
        }
        // Process variables by descending population of their level.
        let mut pop = vec![0usize; n as usize];
        for node in self.nodes.iter().skip(2) {
            if node.level != FREE_LEVEL && node.level != TERMINAL_LEVEL {
                pop[node.level as usize] += 1;
            }
        }
        let mut vars: Vec<u32> = (0..n).collect();
        vars.sort_by_key(|&v| std::cmp::Reverse(pop[self.var2level[v as usize] as usize]));

        for v in vars {
            let start_level = self.var2level[v as usize];
            let mut best_count = self.live_decision_nodes();
            let mut best_level = start_level;
            // Walk down to the bottom. A collection after each swap keeps
            // the node counts exact (swaps orphan the old lower-level
            // nodes); this is what makes sifting a deliberate, expensive
            // operation in every BDD library.
            let mut cur = start_level;
            while cur + 1 < n {
                self.swap_adjacent(cur);
                self.gc();
                cur += 1;
                let count = self.live_decision_nodes();
                if count < best_count {
                    best_count = count;
                    best_level = cur;
                }
            }
            // Walk up to the top.
            while cur > 0 {
                self.swap_adjacent(cur - 1);
                self.gc();
                cur -= 1;
                let count = self.live_decision_nodes();
                if count < best_count {
                    best_count = count;
                    best_level = cur;
                }
            }
            // Park at the best position.
            while cur < best_level {
                self.swap_adjacent(cur);
                cur += 1;
            }
            self.gc();
        }
        self.gc();
        (before, self.live_decision_nodes())
    }
}

#[cfg(test)]
mod tests {
    use crate::table::Inner;

    /// Regression test for the deferred-growth bug: growth requests that
    /// arrive while `in_swap` defers them must be re-evaluated when the
    /// swap pass ends, not silently dropped until some later allocation.
    #[test]
    fn deferred_growth_reruns_after_swap() {
        let mut inner = Inner::new(64);
        let buckets_before = inner.buckets_len();
        // Simulate a long swap pass: allocate well past the 1.5x load
        // factor with growth deferred.
        inner.in_swap = true;
        let values: u64 = (buckets_before as u64 * 3 / 2) / 50 + 8;
        for value in 0..values {
            let mut acc = 1u32; // TRUE
                                // Varying bits sit at the deepest levels so the per-value
                                // chains share almost nothing and the node count is ~62/value.
            for level in (2..64u32).rev() {
                let bit = (value >> (63 - level)) & 1 == 1;
                acc = if bit {
                    inner.mk(level, 0, acc).expect("no budget installed")
                } else {
                    inner.mk(level, acc, 0).expect("no budget installed")
                };
            }
        }
        assert!(
            inner.live_nodes() * 2 > inner.buckets_len() * 3,
            "setup must overload the table (live {} buckets {})",
            inner.live_nodes(),
            inner.buckets_len()
        );
        assert_eq!(inner.buckets_len(), buckets_before, "growth was deferred");
        // The swap pass ends: the deferred check must now run and grow
        // the table back under the load factor.
        inner.swap_adjacent(0);
        assert!(
            inner.buckets_len() > buckets_before,
            "deferred growth must re-run when the swap ends"
        );
        assert!(inner.live_nodes() * 2 <= inner.buckets_len() * 3);
    }
}
