//! The node arena, unique table, operation cache and garbage collector.

use crate::arena::Arena;
use crate::budget::{BddError, Budget, FailPlan};
use crate::node::{Node, NodeId, Permutation, FREE_LEVEL, NIL, TERMINAL_LEVEL};
use crate::pager::{PageError, PagerFaults};
use std::path::{Path, PathBuf};

/// Operation tags used as part of cache keys.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub(crate) enum CacheOp {
    And = 1,
    Or = 2,
    Diff = 3,
    Xor = 4,
    Ite = 5,
    Exists = 6,
    AndExists = 7,
    Biimp = 8,
    Replace = 9,
    Subset = 10,
    None = 0,
}

impl CacheOp {
    /// Index into [`KernelStats::per_op_cache`] / `CACHE_OP_NAMES`.
    #[inline]
    fn index(self) -> usize {
        debug_assert!(self != CacheOp::None);
        self as usize - 1
    }
}

#[derive(Clone, Copy)]
struct CacheEntry {
    op: CacheOp,
    a: u32,
    b: u32,
    c: u32,
    result: u32,
}

impl CacheEntry {
    const EMPTY: CacheEntry = CacheEntry {
        op: CacheOp::None,
        a: NIL,
        b: NIL,
        c: NIL,
        result: NIL,
    };
}

/// Per-operation slice of the operation-cache counters (see
/// [`KernelStats::per_op_cache`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCacheStats {
    /// Cache lookups issued by this operation.
    pub lookups: u64,
    /// Cache hits for this operation.
    pub hits: u64,
}

impl OpCacheStats {
    /// Hits as a fraction of lookups (0.0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Counters describing kernel activity, exposed through
/// [`crate::BddManager::kernel_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Nodes created since the manager was built (including reclaimed ones).
    pub nodes_created: u64,
    /// Unique-table hits in `mk` (node already existed).
    pub unique_hits: u64,
    /// Operation-cache hits.
    pub cache_hits: u64,
    /// Operation-cache lookups.
    pub cache_lookups: u64,
    /// Completed garbage collections.
    pub gc_runs: u64,
    /// Nodes reclaimed over all garbage collections.
    pub gc_reclaimed: u64,
    /// Recursion steps taken by governed operations.
    pub governed_steps: u64,
    /// Times the recovery ladder ran a GC after a node-limit hit.
    pub ladder_gc_retries: u64,
    /// Times the recovery ladder ran a reorder after GC was not enough.
    pub ladder_reorder_retries: u64,
    /// Governed operations that failed even after the recovery ladder.
    pub budget_failures: u64,
    /// Cache lookup/hit counters split by operation, in the order of
    /// [`KernelStats::CACHE_OP_NAMES`].
    pub per_op_cache: [OpCacheStats; 10],
    /// Nodes `replace` rebuilt through `ite` because the permutation
    /// reversed the level order below them; an order-preserving replace
    /// builds every node with one `mk` and leaves this at zero.
    pub replace_rebuilds: u64,
    /// Cache sweeps run by the garbage collector.
    pub cache_sweeps: u64,
    /// Cache entries dropped by sweeps (an operand or the result died).
    pub cache_entries_swept: u64,
    /// Cache entries that survived a sweep (all referenced nodes live).
    pub cache_entries_kept: u64,
    /// Chain nodes created (`bot > level`); always zero when chain
    /// reduction is off.
    pub chain_nodes_created: u64,
    /// Sum of chain interval lengths (`bot - level`) over all chain nodes
    /// created; `chain_len_sum / chain_nodes_created` is the mean chain
    /// length.
    pub chain_len_sum: u64,
    /// Longest chain interval created.
    pub chain_len_max: u64,
    /// Full sifting sweeps run (`reorder_sift` invocations).
    pub sift_sweeps: u64,
    /// Block fault-ins served by the pager (paged managers only). Equal to
    /// [`KernelStats::page_reads`] by construction: fresh blocks are born
    /// resident and count as neither.
    pub page_faults: u64,
    /// Blocks read back from the page file.
    pub page_reads: u64,
    /// Block writes attempted by eviction (counted on attempt, so
    /// `page_evictions <= page_writes` always holds).
    pub page_writes: u64,
    /// Frames successfully evicted to the page file.
    pub page_evictions: u64,
    /// High-water mark of simultaneously resident frames.
    pub page_max_resident: u64,
}

impl KernelStats {
    /// Operation names for [`KernelStats::per_op_cache`], in index order.
    pub const CACHE_OP_NAMES: [&'static str; 10] = [
        "and",
        "or",
        "diff",
        "xor",
        "ite",
        "exists",
        "and_exists",
        "biimp",
        "replace",
        "subset",
    ];

    /// The cache counters for the named operation (one of
    /// [`KernelStats::CACHE_OP_NAMES`]), or `None` for an unknown name.
    pub fn op_cache(&self, name: &str) -> Option<OpCacheStats> {
        Self::CACHE_OP_NAMES
            .iter()
            .position(|&n| n == name)
            .map(|i| self.per_op_cache[i])
    }
}

/// Mutable kernel state shared by all handles of one manager.
pub(crate) struct Inner {
    pub(crate) nodes: Arena,
    /// Unique-table bucket heads; chained through `Node::next`.
    buckets: Vec<u32>,
    bucket_mask: usize,
    free_head: u32,
    free_count: usize,
    cache: Vec<CacheEntry>,
    cache_mask: usize,
    /// Occupied (non-empty) cache slots; lets sweeps skip an empty cache.
    cache_occupied: usize,
    /// Interned permutations, giving each distinct `Permutation` a stable
    /// u32 id usable as a `CacheOp::Replace` cache key. Never shrinks.
    perms: Vec<Permutation>,
    num_vars: u32,
    /// Variable -> level position in the current order.
    pub(crate) var2level: Vec<u32>,
    /// Level position -> variable.
    pub(crate) level2var: Vec<u32>,
    pub(crate) stats: KernelStats,
    /// Arena occupancy threshold that triggers a GC attempt at the next
    /// top-level operation.
    gc_hint: usize,
    /// When true, a GC may run at the next safe point.
    pub(crate) gc_enabled: bool,
    /// Set during an adjacent-level swap: bucket growth is deferred
    /// because some nodes are temporarily out of the table.
    pub(crate) in_swap: bool,
    /// Resource limits applied to governed (`try_*`) operations.
    budget: Budget,
    /// Deterministic fault-injection schedule, if installed.
    fail_plan: Option<FailPlan>,
    /// Cached "any check could fire" flag so the ungoverned fast paths in
    /// `mk`/`step`/`cache_store` cost a single branch.
    checks_active: bool,
    /// When true the governor and fail plan are ignored — set while the
    /// recovery ladder itself runs GC/reordering (which allocate nodes).
    governor_suspended: bool,
    /// Recursion steps taken by the current top-level governed operation.
    steps: u64,
    /// Node allocations observed by the fail plan (since installation).
    alloc_count: u64,
    /// Cache inserts observed by the fail plan (since installation).
    cache_insert_count: u64,
    /// Chain reduction (CBDD node semantics). Only settable on an arena
    /// holding nothing but terminals; a chain-mode manager treats its
    /// variable order as static (reordering degrades to a collection).
    chain: bool,
    /// Disk-backed paging (see [`crate::pager`]). Like chain mode, only
    /// settable on an arena holding nothing but terminals; a paged manager
    /// keeps its variable order static. Cached outside the arena so the
    /// per-step sticky-error probe costs one branch for resident managers.
    paged: bool,
}

const INITIAL_BUCKETS: usize = 1 << 12;
const INITIAL_CACHE: usize = 1 << 14;
const MAX_CACHE: usize = 1 << 22;

#[inline]
fn triple_hash(level: u32, low: u32, high: u32) -> u64 {
    // Fibonacci-style mixing of the triple; cheap and well distributed.
    let mut h = (level as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= (low as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    h ^= (high as u64).wrapping_mul(0x1656_67b1_9e37_79f9);
    h ^= h >> 29;
    h
}

/// Unique-table hash over the full chain quadruple. Plain nodes have
/// `bot == level`, so a chain-off manager hashes exactly as many distinct
/// keys as before (ids are allocation-order and unaffected either way).
#[inline]
fn node_hash(level: u32, bot: u32, low: u32, high: u32) -> u64 {
    let mut h = ((level as u64) | ((bot as u64) << 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= (low as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    h ^= (high as u64).wrapping_mul(0x1656_67b1_9e37_79f9);
    h ^= h >> 29;
    h
}

impl Inner {
    pub(crate) fn new(num_vars: u32) -> Inner {
        let mut nodes = Arena::with_capacity(1024);
        nodes.push_resident(Node::terminal()); // FALSE
        nodes.push_resident(Node::terminal()); // TRUE
        Inner {
            nodes,
            buckets: vec![NIL; INITIAL_BUCKETS],
            bucket_mask: INITIAL_BUCKETS - 1,
            free_head: NIL,
            free_count: 0,
            cache: vec![CacheEntry::EMPTY; INITIAL_CACHE],
            cache_mask: INITIAL_CACHE - 1,
            cache_occupied: 0,
            perms: Vec::new(),
            num_vars,
            var2level: (0..num_vars).collect(),
            level2var: (0..num_vars).collect(),
            stats: KernelStats::default(),
            gc_hint: 1 << 16,
            gc_enabled: true,
            in_swap: false,
            budget: Budget::default(),
            fail_plan: None,
            checks_active: false,
            governor_suspended: false,
            steps: 0,
            alloc_count: 0,
            cache_insert_count: 0,
            chain: false,
            paged: false,
        }
    }

    /// `true` when this manager builds chain-reduced (CBDD) nodes.
    pub(crate) fn chain_mode(&self) -> bool {
        self.chain
    }

    /// Switches chain reduction on or off. Only legal while the arena
    /// holds nothing but the two terminals: plain and chain-reduced
    /// canonical forms differ, so flipping the mode under live nodes
    /// would leave the table non-canonical.
    pub(crate) fn set_chain_mode(&mut self, on: bool) -> Result<(), BddError> {
        if self.live_nodes() != 2 {
            return Err(BddError::InvalidImport {
                index: 0,
                reason: "chain mode requires an arena holding only terminals",
            });
        }
        self.chain = on;
        Ok(())
    }

    /// `true` when this manager pages its arena to disk.
    pub(crate) fn paged(&self) -> bool {
        self.paged
    }

    /// Switches the arena to disk-backed paging with a resident budget of
    /// `frames` (`0` = unbounded). Like [`Inner::set_chain_mode`], only
    /// legal while the arena holds nothing but the two terminals: paging
    /// an already-populated flat arena would need a bulk spill pass this
    /// kernel deliberately does not grow (managers decide their storage
    /// mode at construction).
    pub(crate) fn enable_paging(
        &mut self,
        frames: usize,
        dir: Option<&Path>,
    ) -> Result<(), BddError> {
        if self.live_nodes() != 2 {
            return Err(BddError::InvalidImport {
                index: 0,
                reason: "paging requires an arena holding only terminals",
            });
        }
        self.nodes
            .enable_paging(frames, dir)
            .map_err(|e| BddError::Page {
                block: e.block(),
                kind: e.kind(),
            })?;
        self.paged = self.nodes.is_paged();
        Ok(())
    }

    /// Faults the blocks holding `ids` in before a recursion descends, so
    /// cold operands surface fault-in failures (torn pages, I/O errors) as
    /// typed errors at the governed entry instead of panics mid-walk. Free
    /// for resident managers.
    #[inline]
    pub(crate) fn prefault(&mut self, ids: &[u32]) -> Result<(), BddError> {
        if !self.paged {
            return Ok(());
        }
        self.nodes.try_fault(ids)
    }

    /// Faults in every block of the sub-DAG under `root`, surfacing read
    /// failures typed. A no-op for resident managers; for paged ones this
    /// is the explicit "warm this relation" hook (and the test hook that
    /// turns a corrupted on-disk block into a typed error on demand).
    pub(crate) fn page_in(&mut self, root: u32) -> Result<(), BddError> {
        if !self.paged {
            return Ok(());
        }
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if id <= 1 || !seen.insert(id) {
                continue;
            }
            let n = self.nodes.try_read(id as usize)?;
            stack.push(n.low);
            stack.push(n.high);
        }
        Ok(())
    }

    /// Takes the full parked pager error, if any (see `BddError::Page`).
    pub(crate) fn take_page_error(&self) -> Option<PageError> {
        self.nodes.take_page_error()
    }

    /// Installs a pager crash-injection plan (no-op for resident managers).
    pub(crate) fn set_pager_faults(&self, faults: PagerFaults) {
        self.nodes.set_pager_faults(faults);
    }

    /// The backing page file of a paged manager.
    pub(crate) fn page_file(&self) -> Option<PathBuf> {
        self.nodes.page_file()
    }

    /// The kernel counters with the pager's counters merged in (they live
    /// in the pager, not in `stats`, so the merge happens at observation
    /// time).
    pub(crate) fn stats_snapshot(&self) -> KernelStats {
        let mut s = self.stats;
        if let Some(p) = self.nodes.page_stats() {
            s.page_faults = p.page_faults;
            s.page_reads = p.page_reads;
            s.page_writes = p.page_writes;
            s.page_evictions = p.evictions;
            s.page_max_resident = p.max_resident;
        }
        s
    }

    /// Installs (or clears, with `Budget::unlimited()`) the resource budget.
    pub(crate) fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
        self.refresh_checks();
    }

    /// The currently installed budget.
    pub(crate) fn budget(&self) -> Budget {
        self.budget.clone()
    }

    /// Installs or clears the fault-injection plan; the event counters
    /// restart from zero either way.
    pub(crate) fn set_fail_plan(&mut self, plan: Option<FailPlan>) {
        self.fail_plan = plan;
        self.alloc_count = 0;
        self.cache_insert_count = 0;
        self.refresh_checks();
    }

    /// Suspends or resumes the governor and fail plan. The recovery ladder
    /// suspends them while it runs GC/reordering, which themselves allocate.
    pub(crate) fn suspend_governor(&mut self, suspended: bool) {
        self.governor_suspended = suspended;
        self.refresh_checks();
    }

    pub(crate) fn governor_suspended(&self) -> bool {
        self.governor_suspended
    }

    fn refresh_checks(&mut self) {
        self.checks_active =
            !self.governor_suspended && (self.budget.is_limited() || self.fail_plan.is_some());
    }

    /// Starts a new top-level governed operation: the per-operation step
    /// counter restarts.
    pub(crate) fn begin_op(&mut self) {
        self.steps = 0;
    }

    /// One recursion step of a governed operation. Counts toward the step
    /// limit; probes the deadline and cancellation token on the
    /// operation's first step and then every [`Budget::CHECK_INTERVAL`]
    /// steps, so `Instant::now` stays off the per-node fast path while an
    /// operation too small to reach the interval still sees a cancelled
    /// token or an expired deadline.
    #[inline]
    pub(crate) fn step(&mut self) -> Result<(), BddError> {
        if self.paged {
            // A parked pager error (a failed eviction write) poisons the
            // manager: every governed operation reports it until the host
            // takes the full error and rebuilds.
            if let Some((block, kind)) = self.nodes.sticky_brief() {
                return Err(BddError::Page { block, kind });
            }
        }
        if !self.checks_active {
            return Ok(());
        }
        self.steps += 1;
        self.stats.governed_steps += 1;
        if let Some(limit) = self.budget.max_steps {
            if self.steps > limit {
                return Err(BddError::StepLimit {
                    steps: self.steps,
                    limit,
                });
            }
        }
        if self.steps == 1 || self.steps.is_multiple_of(Budget::CHECK_INTERVAL) {
            if let Some(token) = &self.budget.cancel {
                if token.is_cancelled() {
                    return Err(BddError::Cancelled);
                }
            }
            if let Some(deadline) = self.budget.deadline {
                if std::time::Instant::now() >= deadline {
                    return Err(BddError::Deadline);
                }
            }
        }
        Ok(())
    }

    /// The level holding `var` in the current order.
    #[inline]
    pub(crate) fn level_of_var(&self, var: u32) -> u32 {
        self.var2level[var as usize]
    }

    /// The variable sitting at `level`.
    #[inline]
    pub(crate) fn var_at_level(&self, level: u32) -> u32 {
        self.level2var[level as usize]
    }

    #[inline]
    pub(crate) fn num_vars(&self) -> u32 {
        self.num_vars
    }

    pub(crate) fn add_vars(&mut self, n: u32) -> std::ops::Range<u32> {
        let start = self.num_vars;
        self.num_vars += n;
        for v in start..self.num_vars {
            self.var2level.push(v);
            self.level2var.push(v);
        }
        start..self.num_vars
    }

    /// Installs a saved variable order wholesale. Only legal while the
    /// arena holds nothing but the two terminals: existing internal nodes
    /// store level indices, so rewriting the order under them would
    /// silently change every function in the table. Snapshot restore calls
    /// this after `add_vars` and before importing any node.
    pub(crate) fn set_order(&mut self, level2var: &[u32]) -> Result<(), BddError> {
        if self.live_nodes() != 2 {
            return Err(BddError::InvalidImport {
                index: 0,
                reason: "set_order requires an arena holding only terminals",
            });
        }
        if level2var.len() != self.num_vars as usize {
            return Err(BddError::InvalidImport {
                index: 0,
                reason: "set_order length does not match the variable count",
            });
        }
        let mut var2level = vec![NIL; level2var.len()];
        for (level, &var) in level2var.iter().enumerate() {
            let Some(slot) = var2level.get_mut(var as usize) else {
                return Err(BddError::InvalidImport {
                    index: level as u32,
                    reason: "set_order variable out of range",
                });
            };
            if *slot != NIL {
                return Err(BddError::InvalidImport {
                    index: level as u32,
                    reason: "set_order order is not a permutation",
                });
            }
            *slot = level as u32;
        }
        self.var2level = var2level;
        self.level2var = level2var.to_vec();
        Ok(())
    }

    #[inline]
    pub(crate) fn level(&self, id: u32) -> u32 {
        self.nodes.get(id as usize).level
    }

    #[inline]
    pub(crate) fn low(&self, id: u32) -> u32 {
        self.nodes.get(id as usize).low
    }

    #[inline]
    pub(crate) fn high(&self, id: u32) -> u32 {
        self.nodes.get(id as usize).high
    }

    /// Number of live (allocated, non-free) nodes including terminals.
    pub(crate) fn live_nodes(&self) -> usize {
        self.nodes.len() - self.free_count
    }

    /// Creates or finds the node `(level, low, high)`, applying the
    /// reduction rule `low == high => low` and, in chain mode, the CBDD
    /// chain rules (the node may come back as a chain node, or an
    /// existing chain may absorb it).
    ///
    /// Fails only under an active budget or fail plan: unique-table hits
    /// are always free, and the checks fire at the allocation point, where
    /// a node would actually be added. A failed `mk` leaves the table
    /// consistent — nothing has been inserted yet when the error returns.
    pub(crate) fn mk(&mut self, level: u32, low: u32, high: u32) -> Result<u32, BddError> {
        self.mk_span(level, level, low, high)
    }

    /// Chain-reduced constructor: the canonical node for
    /// `¬x_t ∧ … ∧ ¬x_{b-1} ∧ (¬x_b·f0 + x_b·f1)`.
    ///
    /// Canonicalisation (Bryant, TACAS 2018, OR-chain / CBDD flavour):
    ///
    /// 1. `⟨t:b, f, f⟩ ≡ ⟨t:b-1, f, 0⟩` (and `⟨t:t, f, f⟩ ≡ f`) — a
    ///    don't-care bottom level folds into the chain;
    /// 2. `⟨t:b, ⟨b+1:b2, g0, g1⟩, 0⟩ ≡ ⟨t:b2, g0, g1⟩` — a chain whose
    ///    low edge continues the chain absorbs it.
    ///
    /// The canonical invariant is therefore `f0 != f1` and *not*
    /// (`f1 == 0` and `f0`'s top level is `b + 1`). With chain mode off
    /// this degenerates to the plain reduction rule (`t == b` always).
    pub(crate) fn mk_span(
        &mut self,
        t: u32,
        mut b: u32,
        f0: u32,
        mut f1: u32,
    ) -> Result<u32, BddError> {
        debug_assert!(self.chain || t == b, "chain span in a plain manager");
        while f0 == f1 {
            if t == b {
                return Ok(f0);
            }
            b -= 1;
            f1 = 0;
        }
        if self.chain && f1 == 0 && f0 > 1 {
            let c = self.nodes.try_read(f0 as usize)?;
            if c.level == b + 1 {
                return self.mk_raw(t, c.bot, c.low, c.high);
            }
        }
        self.mk_raw(t, b, f0, f1)
    }

    /// Hash-conses the (already canonical) quadruple `(level, bot, low,
    /// high)`, allocating on a miss.
    fn mk_raw(&mut self, level: u32, bot: u32, low: u32, high: u32) -> Result<u32, BddError> {
        debug_assert!(low != high, "mk_raw: unreduced node");
        debug_assert!(
            level <= bot && bot < self.num_vars,
            "mk_raw: span {level}:{bot} out of range"
        );
        debug_assert!(
            self.nodes.get(low as usize).level > bot && self.nodes.get(high as usize).level > bot,
            "mk_raw: ordering violation at span {level}:{bot}"
        );
        let h = node_hash(level, bot, low, high) as usize & self.bucket_mask;
        let mut cur = self.buckets[h];
        while cur != NIL {
            let n = self.nodes.try_read(cur as usize)?;
            if n.level == level && n.bot == bot && n.low == low && n.high == high {
                self.stats.unique_hits += 1;
                return Ok(cur);
            }
            cur = n.next;
        }
        if self.checks_active {
            if let Some(plan) = &self.fail_plan {
                if let Some(n) = plan.fail_alloc_at {
                    self.alloc_count += 1;
                    if self.alloc_count == n {
                        return Err(BddError::FaultInjected {
                            kind: "alloc",
                            at: n,
                        });
                    }
                }
            }
            if let Some(limit) = self.budget.max_live_nodes {
                if self.live_nodes() >= limit {
                    return Err(BddError::NodeLimit {
                        live: self.live_nodes(),
                        limit,
                    });
                }
            }
        }
        // Allocate.
        let id = if self.free_head != NIL {
            let id = self.free_head;
            self.free_head = self.nodes.try_read(id as usize)?.low;
            self.free_count -= 1;
            id
        } else {
            self.nodes.try_append(Node::terminal())?
        };
        self.stats.nodes_created += 1;
        if bot > level {
            self.stats.chain_nodes_created += 1;
            let len = (bot - level) as u64;
            self.stats.chain_len_sum += len;
            self.stats.chain_len_max = self.stats.chain_len_max.max(len);
        }
        let next = self.buckets[h];
        self.nodes.try_update(id as usize, |n| {
            *n = Node {
                level,
                bot,
                low,
                high,
                next,
                ext_refs: 0,
                mark: false,
            };
        })?;
        self.buckets[h] = id;
        if !self.in_swap {
            self.maybe_grow_buckets();
        }
        Ok(id)
    }

    /// The chain interval's bottom level of `id` (equals the top level for
    /// plain nodes).
    #[inline]
    pub(crate) fn bot(&self, id: u32) -> u32 {
        self.nodes.get(id as usize).bot
    }

    /// The two cofactors of `f` with respect to the variable at level `m`
    /// (which must not be below `f`'s top level). For plain nodes this is
    /// the direct `(low, high)` split; for a chain node at its top level
    /// the 1-cofactor is `FALSE` and the 0-cofactor is the materialised
    /// chain tail `⟨m+1:bot, low, high⟩` (hash-consed, so repeated
    /// decompositions of one chain share tails; tails unreachable after
    /// the operation are ordinary garbage).
    pub(crate) fn cofactor_pair(&mut self, f: u32, m: u32) -> Result<(u32, u32), BddError> {
        if f <= 1 {
            return Ok((f, f));
        }
        let n = self.nodes.try_read(f as usize)?;
        if n.level > m {
            return Ok((f, f));
        }
        debug_assert_eq!(n.level, m, "cofactor_pair: level below the split");
        if n.bot == n.level {
            return Ok((n.low, n.high));
        }
        let tail = self.mk_span(m + 1, n.bot, n.low, n.high)?;
        Ok((tail, 0))
    }

    /// Grows the unique table if the load factor exceeds 1.5 nodes per
    /// bucket. Called by `mk` outside swaps, and again at the end of each
    /// adjacent-level swap to run the growth that `in_swap` deferred.
    pub(crate) fn maybe_grow_buckets(&mut self) {
        if self.live_nodes() * 2 > self.buckets.len() * 3 {
            self.grow_buckets();
        }
    }

    /// Number of unique-table buckets.
    pub(crate) fn buckets_len(&self) -> usize {
        self.buckets.len()
    }

    /// Clears the buckets to the given size (a power of two).
    pub(crate) fn reset_buckets(&mut self, len: usize) {
        debug_assert!(len.is_power_of_two());
        self.buckets.clear();
        self.buckets.resize(len, NIL);
        self.bucket_mask = len - 1;
    }

    /// Inserts node `id` into its unique-table bucket (no duplicate-id
    /// check for distinct ids; re-inserting the same id is a no-op).
    pub(crate) fn insert_unique(&mut self, id: u32) {
        let n = self.nodes.read(id as usize);
        let h = node_hash(n.level, n.bot, n.low, n.high) as usize & self.bucket_mask;
        // Idempotence: skip if this id is already chained here.
        let mut cur = self.buckets[h];
        while cur != NIL {
            if cur == id {
                return;
            }
            cur = self.nodes.read(cur as usize).next;
        }
        let head = self.buckets[h];
        self.nodes.update(id as usize, |n| n.next = head);
        self.buckets[h] = id;
    }

    fn grow_buckets(&mut self) {
        let new_len = self.buckets.len() * 2;
        self.buckets = vec![NIL; new_len];
        self.bucket_mask = new_len - 1;
        let mask = self.bucket_mask;
        let buckets = &mut self.buckets;
        self.nodes.scan_mut(0, &mut |i, n| {
            if n.level == TERMINAL_LEVEL || n.level == FREE_LEVEL {
                return;
            }
            let h = node_hash(n.level, n.bot, n.low, n.high) as usize & mask;
            n.next = buckets[h];
            buckets[h] = i as u32;
        });
        // Grow the cache alongside the table, up to a limit, rehashing the
        // surviving entries into the doubled table instead of discarding
        // a warm cache. Doubling adds one hash bit, so old entries land in
        // distinct new slots and none are lost to collisions.
        if self.cache.len() < MAX_CACHE && self.cache.len() < new_len {
            let target = (self.cache.len() * 2).min(MAX_CACHE);
            let old = std::mem::replace(&mut self.cache, vec![CacheEntry::EMPTY; target]);
            self.cache_mask = target - 1;
            for e in old {
                if e.op != CacheOp::None {
                    let h = triple_hash(e.a ^ ((e.op as u32) << 24), e.b, e.c) as usize
                        & self.cache_mask;
                    self.cache[h] = e;
                }
            }
        }
    }

    /// Interns `perm`, returning a stable id for `CacheOp::Replace` keys.
    /// Identical permutations (by value) share one id, so repeated
    /// replaces with equal permutations hit the shared cache.
    pub(crate) fn intern_permutation(&mut self, perm: &Permutation) -> u32 {
        if let Some(i) = self.perms.iter().position(|p| p == perm) {
            return i as u32;
        }
        self.perms.push(perm.clone());
        (self.perms.len() - 1) as u32
    }

    #[inline]
    pub(crate) fn cache_lookup(&mut self, op: CacheOp, a: u32, b: u32, c: u32) -> Option<u32> {
        self.stats.cache_lookups += 1;
        self.stats.per_op_cache[op.index()].lookups += 1;
        let h = triple_hash(a ^ ((op as u32) << 24), b, c) as usize & self.cache_mask;
        let e = &self.cache[h];
        if e.op == op && e.a == a && e.b == b && e.c == c {
            self.stats.cache_hits += 1;
            self.stats.per_op_cache[op.index()].hits += 1;
            Some(e.result)
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn cache_store(&mut self, op: CacheOp, a: u32, b: u32, c: u32, result: u32) {
        if self.checks_active {
            if let Some(k) = self
                .fail_plan
                .as_ref()
                .and_then(|p| p.skip_cache_insert_every)
            {
                self.cache_insert_count += 1;
                if self.cache_insert_count.is_multiple_of(k) {
                    // Cache inserts are semantically optional; dropping one
                    // only forces the recursion to recompute later.
                    return;
                }
            }
        }
        let h = triple_hash(a ^ ((op as u32) << 24), b, c) as usize & self.cache_mask;
        if self.cache[h].op == CacheOp::None {
            self.cache_occupied += 1;
        }
        self.cache[h] = CacheEntry {
            op,
            a,
            b,
            c,
            result,
        };
    }

    pub(crate) fn clear_cache(&mut self) {
        self.cache.fill(CacheEntry::EMPTY);
        self.cache_occupied = 0;
    }

    /// `true` if node `id` survives the collection in progress: terminals
    /// always do, internal nodes only when the mark phase reached them.
    /// Only meaningful between the GC mark and sweep phases.
    #[inline]
    fn node_survives(&self, id: u32) -> bool {
        id <= 1 || self.nodes.get(id as usize).mark
    }

    /// Sweep-style cache invalidation: drops exactly the entries that
    /// reference a node the collection in progress is about to free, and
    /// keeps everything else, so the cache stays warm across GCs. Must run
    /// between the GC mark and sweep phases, while the mark bits identify
    /// the survivors — once a dead id is on the free list it can be
    /// reused for a different function, and a stale entry would then
    /// resurrect the old result under the new node's key.
    fn sweep_cache_marked(&mut self) {
        self.stats.cache_sweeps += 1;
        if self.cache_occupied == 0 {
            return;
        }
        for i in 0..self.cache.len() {
            let e = self.cache[i];
            if e.op == CacheOp::None {
                continue;
            }
            // The `b` field of a Replace entry is an interned permutation
            // id, not a node id; permutations are interned forever, so
            // only the node fields decide survival.
            let survives = self.node_survives(e.a)
                && (e.op == CacheOp::Replace || self.node_survives(e.b))
                && self.node_survives(e.c)
                && self.node_survives(e.result);
            if survives {
                self.stats.cache_entries_kept += 1;
            } else {
                self.cache[i] = CacheEntry::EMPTY;
                self.cache_occupied -= 1;
                self.stats.cache_entries_swept += 1;
            }
        }
    }

    #[inline]
    pub(crate) fn inc_ref(&mut self, id: u32) {
        self.nodes.update(id as usize, |n| n.ext_refs += 1);
    }

    #[inline]
    pub(crate) fn dec_ref(&mut self, id: u32) {
        // `dec_ref` runs from `Drop`, so a pager fault here must not
        // panic (a panic in a destructor aborts). Failing to decrement
        // only leaks the node — it stays conservatively live — and the
        // underlying error is parked for `take_page_error`.
        let _ = self.nodes.try_update(id as usize, |n| {
            debug_assert!(n.ext_refs > 0, "dec_ref on node with zero refcount");
            n.ext_refs -= 1;
        });
    }

    /// Runs a GC if the arena has grown past the current hint. Must only be
    /// called at a safe point (no in-flight recursion results).
    pub(crate) fn maybe_gc(&mut self) {
        if self.gc_enabled && self.live_nodes() > self.gc_hint {
            let reclaimed = self.gc();
            // If less than a quarter was reclaimed, raise the bar so we do
            // not thrash.
            if reclaimed * 4 < self.gc_hint {
                self.gc_hint *= 2;
            }
        }
    }

    /// Mark-and-sweep collection from externally referenced roots.
    /// Returns the number of reclaimed nodes.
    pub(crate) fn gc(&mut self) -> usize {
        // Mark phase: roots are nodes with ext_refs > 0. A paged manager
        // streams blocks through the buffer pool here; marks written into
        // evicted frames persist on disk through the block format.
        let mut stack: Vec<u32> = Vec::new();
        self.nodes.scan_mut(2, &mut |i, n| {
            if n.level != FREE_LEVEL && n.ext_refs > 0 && !n.mark {
                stack.push(i as u32);
            }
        });
        while let Some(id) = stack.pop() {
            let children = self.nodes.update(id as usize, |n| {
                if n.mark || n.level == TERMINAL_LEVEL {
                    None
                } else {
                    n.mark = true;
                    Some((n.low, n.high))
                }
            });
            let Some((lo, hi)) = children else { continue };
            if lo > 1 {
                stack.push(lo);
            }
            if hi > 1 {
                stack.push(hi);
            }
        }
        // Cache sweep: while the marks still identify the survivors, drop
        // only the entries whose nodes are about to die (wholesale clears
        // remain only in reordering, where the level geometry changes).
        self.sweep_cache_marked();
        // Sweep phase: rebuild unique table with only marked nodes.
        self.buckets.fill(NIL);
        let mut reclaimed = 0usize;
        let mask = self.bucket_mask;
        let buckets = &mut self.buckets;
        let free_head = &mut self.free_head;
        let free_count = &mut self.free_count;
        self.nodes.scan_mut(2, &mut |i, node| {
            if node.level == FREE_LEVEL {
                return;
            }
            if node.mark {
                let h = node_hash(node.level, node.bot, node.low, node.high) as usize & mask;
                node.mark = false;
                node.next = buckets[h];
                buckets[h] = i as u32;
            } else {
                node.level = FREE_LEVEL;
                node.bot = FREE_LEVEL;
                node.low = *free_head;
                node.next = NIL;
                *free_head = i as u32;
                *free_count += 1;
                reclaimed += 1;
            }
        });
        self.stats.gc_runs += 1;
        self.stats.gc_reclaimed += reclaimed as u64;
        reclaimed
    }

    /// Returns the BDD of a single positive variable.
    pub(crate) fn mk_var(&mut self, var: u32) -> Result<u32, BddError> {
        assert!(var < self.num_vars, "variable {var} out of range");
        let level = self.level_of_var(var);
        self.mk(level, NodeId::FALSE.0, NodeId::TRUE.0)
    }

    /// Returns the negated variable BDD.
    pub(crate) fn mk_nvar(&mut self, var: u32) -> Result<u32, BddError> {
        assert!(var < self.num_vars, "variable {var} out of range");
        let level = self.level_of_var(var);
        self.mk(level, NodeId::TRUE.0, NodeId::FALSE.0)
    }

    /// Builds a positive cube (conjunction) over distinct variables.
    pub(crate) fn mk_cube(&mut self, vars: &[u32]) -> Result<u32, BddError> {
        let mut levels: Vec<u32> = vars.iter().map(|&v| self.level_of_var(v)).collect();
        levels.sort_unstable();
        levels.dedup();
        let mut acc = NodeId::TRUE.0;
        for &lvl in levels.iter().rev() {
            acc = self.mk(lvl, NodeId::FALSE.0, acc)?;
        }
        Ok(acc)
    }

    /// Node count of the sub-DAG rooted at `root` (excluding terminals).
    pub(crate) fn node_count(&self, root: u32) -> usize {
        if root <= 1 {
            return 0;
        }
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if id <= 1 || !seen.insert(id) {
                continue;
            }
            let n = self.nodes.get(id as usize);
            stack.push(n.low);
            stack.push(n.high);
        }
        seen.len()
    }

    /// Nodes per level for the sub-DAG rooted at `root`.
    pub(crate) fn shape(&self, root: u32) -> Vec<usize> {
        let mut out = vec![0usize; self.num_vars as usize];
        if root <= 1 {
            return out;
        }
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if id <= 1 || !seen.insert(id) {
                continue;
            }
            let n = self.nodes.get(id as usize);
            out[n.level as usize] += 1;
            stack.push(n.low);
            stack.push(n.high);
        }
        out
    }

    /// The set of variables appearing in the sub-DAG rooted at `root`,
    /// sorted by variable index.
    pub(crate) fn support(&self, root: u32) -> Vec<u32> {
        let mut vars = std::collections::BTreeSet::new();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if id <= 1 || !seen.insert(id) {
                continue;
            }
            let n = self.nodes.get(id as usize);
            // A chain node depends on every variable in its interval.
            for l in n.level..=n.bot {
                vars.insert(self.var_at_level(l));
            }
            stack.push(n.low);
            stack.push(n.high);
        }
        vars.into_iter().collect()
    }
}
