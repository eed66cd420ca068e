//! The parallel apply engine: hot top-level operations (`and`/`or`/`diff`,
//! `exists`, `and_exists`, `replace`) run on a work-pool of worker threads
//! that hash-cons **master node ids directly** into a shared concurrent
//! unique table. There is no scratch address space and no sequential
//! import replay — the serial bottleneck of the previous engine.
//!
//! # Architecture
//!
//! A parallel operation snapshots the master arena (frozen for its
//! duration) and builds a [`Kernel`]: a lock-free node allocator that
//! reserves ids `base + i` above the arena (`base = nodes.len()`), a
//! sharded concurrent unique table over the *new* triples, and a striped
//! shared op cache fronted by per-worker L1s. Worker `mk` ([`Worker::cmk`])
//! first probes the frozen master table lock-free (master triples keep
//! their existing ids), then dedups against the other workers through the
//! shard map, and only then reserves a fresh id with a CAS on the
//! allocation counter. At the join, the reserved block is committed to the
//! master arena in id order ([`Inner::commit_par_nodes`]) — an append, not
//! a replay: no re-hashing of children, no memo table, no `mk` calls.
//!
//! Two drivers sit on top of the kernel:
//!
//! - **Split tasks** ([`Inner::par_run`]): one big operation is unrolled
//!   for [`SPLIT_DEPTH`] levels into deduplicated subproblems, dealt into
//!   per-worker deques with work stealing, and recombined with plain `mk`
//!   calls at the end.
//! - **Batch expressions** ([`Inner::batch_run`]): many *independent*
//!   top-level operations (the delta rules of one fixpoint round) are
//!   evaluated as a dependency DAG, each expression a unit of work, so
//!   multi-core helps even when single operations are small.
//!
//! # Determinism
//!
//! Each boolean function keeps exactly **one** id: master nodes only ever
//! reference ids below `base`, so the frozen-table probe fires exactly
//! when a triple could already exist in the master arena, and the shard
//! map (the shard is picked from the triple hash, deterministically)
//! dedups all new triples. Which *fresh* id a new triple receives,
//! however, depends on the CAS interleaving — so the contract is:
//! **identical functions (identical relations/tuples) at any thread
//! count**, with node-id determinism retained at `threads = 1` (the
//! sequential path). The BTreeSet/ZDD differential fuzzer and the
//! Naive-strategy oracle in `jedd-core` are the safety net for this
//! contract.
//!
//! # Governor accounting
//!
//! Worker step counters flush to a shared governor every
//! [`Budget::CHECK_INTERVAL`] steps (step/deadline/cancel parity with the
//! sequential `step()`). The node limit is enforced at the *reservation*
//! point in `cmk` — the exact analogue of the sequential `mk`, which
//! checks `live_nodes() >= limit` before allocating — using
//! `master_live + reserved`. On any trip the commit is skipped wholesale,
//! leaving the master table untouched, so the recovery ladder can GC and
//! retry exactly as it does for a failed sequential operation.
//!
//! # GC safepoint protocol
//!
//! Collections only ever run between top-level operations, and a parallel
//! operation joins all its workers before returning. The join *is* the
//! quiescence point: when a GC runs, no worker holds a reference into the
//! arena. The kernel (allocator, shard maps, caches) is operation-local
//! and dropped — or fully committed — before any GC can observe it.

use crate::budget::{BddError, Budget, CancelToken, PermutationFlaw};
use crate::node::{Permutation, NIL};
use crate::ops::BinOp;
use crate::table::{triple_hash, CacheOp, Inner};
use std::collections::{HashMap, VecDeque};
use jedd_sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use jedd_sync::{Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Number of unique-table shards and cache stripes (a power of two).
const NUM_SHARDS: usize = 64;
/// Levels of the recursion tree unrolled by the split phase: at most
/// `2^SPLIT_DEPTH` leaf paths, deduplicated into tasks. This is the
/// subproblem granularity cutoff — everything below a task stays
/// sequential within one worker, so small subtrees never pay
/// synchronisation costs.
const SPLIT_DEPTH: u32 = 8;
/// Direct-mapped slots per shared-cache stripe.
const STRIPE_SLOTS: usize = 1 << 12;
/// Direct-mapped slots of each worker's private L1 cache.
const L1_SLOTS: usize = 1 << 12;
/// log2 of the node-allocator segment size.
const SEG_BITS: usize = 16;
/// Nodes per allocator segment.
const SEG_SIZE: usize = 1 << SEG_BITS;
/// Maximum segments per operation (2^28 new nodes — far above any real
/// single-operation result; the arena itself holds at most 2^32 ids).
const SEGMENTS: usize = 1 << 12;

#[inline]
fn cache_hash(op: CacheOp, a: u32, b: u32, c: u32) -> u64 {
    triple_hash(a ^ ((op as u32) << 24), b, c)
}

/// The lock-free node allocator of one parallel operation. Workers
/// reserve ids `base + i` with a CAS on `count` and publish the triple
/// into a lazily initialised segment; the commit phase reads the triples
/// back in reservation order. Ids above `base` are only ever *shared*
/// through synchronising channels (the shard mutexes, the striped cache
/// mutexes, `Release`/`Acquire` result slots, or the final join), so the
/// relaxed per-word atomics are never read before the writing thread's
/// stores are visible.
struct NodeAlloc {
    /// Master arena length at operation entry; the first fresh id.
    base: u32,
    /// Nodes reserved so far.
    count: AtomicUsize,
    /// Triple storage: `(level, low, high)` interleaved, 3 words per node.
    segs: Vec<OnceLock<Box<[AtomicU32]>>>,
}

impl NodeAlloc {
    fn new(base: u32) -> NodeAlloc {
        NodeAlloc {
            base,
            count: AtomicUsize::new(0),
            segs: (0..SEGMENTS).map(|_| OnceLock::new()).collect(),
        }
    }

    fn write(&self, i: usize, level: u32, low: u32, high: u32) {
        let seg = i >> SEG_BITS;
        assert!(seg < SEGMENTS, "parallel node allocator overflow");
        let s = self.segs[seg].get_or_init(|| {
            (0..SEG_SIZE * 3)
                .map(|_| AtomicU32::new(0))
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        let off = (i & (SEG_SIZE - 1)) * 3;
        s[off].store(level, Ordering::Relaxed);
        s[off + 1].store(low, Ordering::Relaxed);
        s[off + 2].store(high, Ordering::Relaxed);
    }

    fn read(&self, i: usize) -> (u32, u32, u32) {
        let s = self.segs[i >> SEG_BITS]
            .get()
            .expect("reading an unpublished parallel node");
        let off = (i & (SEG_SIZE - 1)) * 3;
        (
            s[off].load(Ordering::Relaxed),
            s[off + 1].load(Ordering::Relaxed),
            s[off + 2].load(Ordering::Relaxed),
        )
    }
}

#[derive(Clone, Copy)]
struct CEntry {
    op: CacheOp,
    a: u32,
    b: u32,
    c: u32,
    result: u32,
}

impl CEntry {
    const EMPTY: CEntry = CEntry {
        op: CacheOp::None,
        a: NIL,
        b: NIL,
        c: NIL,
        result: NIL,
    };
}

/// The striped shared operation cache: [`NUM_SHARDS`] stripes of
/// direct-mapped entries, each behind its own mutex. Sharing results
/// across workers is what keeps the parallel engine's total work close to
/// the sequential `O(|f||g|)` bound when subproblems overlap.
struct ParCache {
    stripes: Vec<Mutex<Vec<CEntry>>>,
}

impl ParCache {
    fn new() -> ParCache {
        ParCache {
            stripes: (0..NUM_SHARDS)
                .map(|_| Mutex::new(vec![CEntry::EMPTY; STRIPE_SLOTS]))
                .collect(),
        }
    }

    fn get(&self, h: u64, op: CacheOp, a: u32, b: u32, c: u32) -> Option<u32> {
        let stripe = self.stripes[(h >> 40) as usize & (NUM_SHARDS - 1)]
            .lock();
        let e = stripe[h as usize & (STRIPE_SLOTS - 1)];
        if e.op == op && e.a == a && e.b == b && e.c == c {
            Some(e.result)
        } else {
            None
        }
    }

    fn put(&self, h: u64, e: CEntry) {
        let mut stripe = self.stripes[(h >> 40) as usize & (NUM_SHARDS - 1)]
            .lock();
        stripe[h as usize & (STRIPE_SLOTS - 1)] = e;
    }
}

/// The shared governor: per-worker budget counters flush here, and the
/// first tripped limit aborts every worker at its next check.
struct SharedGov {
    /// Mirrors the master's `checks_active` at operation entry.
    active: bool,
    abort: AtomicBool,
    /// Recursion steps of the current top-level op (master steps taken so
    /// far seed the counter; workers add their flushed batches). Batch
    /// expressions use per-expression counters instead — each expression
    /// mirrors a sequential top-level operation's fresh counter.
    steps: AtomicU64,
    max_steps: Option<u64>,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    node_limit: Option<usize>,
    master_live: usize,
    error: Mutex<Option<BddError>>,
}

impl SharedGov {
    fn new(inner: &Inner) -> SharedGov {
        let budget = inner.budget();
        SharedGov {
            active: inner.checks_active(),
            abort: AtomicBool::new(false),
            steps: AtomicU64::new(inner.op_steps()),
            max_steps: budget.max_steps,
            deadline: budget.deadline,
            cancel: budget.cancel,
            node_limit: budget.max_live_nodes,
            master_live: inner.live_nodes(),
            error: Mutex::new(None),
        }
    }

    #[inline]
    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    /// Records the first error and raises the abort flag. Later errors are
    /// dropped — the first trip is the one reported, matching the
    /// sequential engine's single-error semantics.
    fn trip(&self, e: BddError) -> BddError {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
        self.abort.store(true, Ordering::Release);
        e
    }

    fn take_error(&self) -> Option<BddError> {
        self.error.lock().take()
    }
}

/// All shared state of one parallel operation: the node allocator, the
/// sharded unique table over the new triples, the striped op cache and
/// the governor. Deliberately holds no borrow of [`Inner`], so the owner
/// regains `&mut self` for the commit after the worker scope joins.
/// One shard of the fresh-node unique table: `(level, low, high)` → id.
type FreshShard = Mutex<HashMap<(u32, u32, u32), u32>>;

struct Kernel {
    alloc: NodeAlloc,
    shards: Vec<FreshShard>,
    cache: ParCache,
    gov: SharedGov,
}

impl Kernel {
    fn new(inner: &Inner) -> Kernel {
        Kernel {
            alloc: NodeAlloc::new(inner.nodes.len() as u32),
            shards: (0..NUM_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            cache: ParCache::new(),
            gov: SharedGov::new(inner),
        }
    }
}

/// What a parallel operation computes; carried by every worker.
#[derive(Clone, Copy)]
pub(crate) enum Job<'p> {
    /// A binary boolean operation.
    Bin(BinOp),
    /// `exists cube. f` — `cube` already skipped above `f`'s top level.
    Exists {
        /// Master id of the (pre-skipped) positive cube.
        cube: u32,
    },
    /// The fused relational product `exists cube. (f & g)`.
    AndExists {
        /// Master id of the (pre-skipped) positive cube.
        cube: u32,
    },
    /// Variable replacement under an interned permutation.
    Replace {
        /// The permutation (borrowed from the caller).
        perm: &'p Permutation,
        /// Its interned id, the `CacheOp::Replace` cache key.
        pid: u32,
    },
}

/// Outcome of a parallel attempt: either the finished master id, or a
/// deterministic decision to fall back to the sequential recursion
/// (e.g. the split produced fewer than two distinct tasks).
pub(crate) enum ParAttempt {
    /// The operation ran on the work pool; here is the master result.
    Done(u32),
    /// Not worth parallelising — caller should run the sequential path.
    Fallback,
}

enum PlanNode {
    /// Resolved during the split (terminal case or trivial operand).
    Done(u32),
    /// Index into the task list; the worker's result is the master id.
    Task(u32),
    /// Combine children with `mk` at this level (canonical order: lo, hi).
    Mk { level: u32, lo: u32, hi: u32 },
}

struct Plan {
    nodes: Vec<PlanNode>,
    tasks: Vec<(u32, u32)>,
    root: u32,
}

/// Unrolls the top `SPLIT_DEPTH` levels of the operation's recursion,
/// mirroring the sequential cofactoring exactly, and deduplicates the leaf
/// subproblems. Reads the master table only; fully deterministic.
fn build_plan(inner: &Inner, job: &Job, a: u32, b: u32, limit: u32) -> Plan {
    let mut plan = Plan {
        nodes: Vec::new(),
        tasks: Vec::new(),
        root: 0,
    };
    let mut dedup: HashMap<(u32, u32), u32> = HashMap::new();
    plan.root = expand(inner, job, &mut plan, &mut dedup, a, b, limit, SPLIT_DEPTH);
    plan
}

fn immediate(job: &Job, a: u32, b: u32) -> Option<u32> {
    match job {
        Job::Bin(op) => op.terminal_case(a, b),
        Job::Exists { .. } | Job::Replace { .. } => {
            if a <= 1 {
                Some(a)
            } else {
                None
            }
        }
        Job::AndExists { .. } => {
            if a == 0 || b == 0 {
                Some(0)
            } else if a == 1 && b == 1 {
                Some(1)
            } else {
                None
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn expand(
    inner: &Inner,
    job: &Job,
    plan: &mut Plan,
    dedup: &mut HashMap<(u32, u32), u32>,
    a: u32,
    b: u32,
    limit: u32,
    depth: u32,
) -> u32 {
    let node = if let Some(r) = immediate(job, a, b) {
        PlanNode::Done(r)
    } else {
        let pair_op = matches!(job, Job::Bin(_) | Job::AndExists { .. });
        let m = if pair_op {
            inner.level(a).min(inner.level(b))
        } else {
            inner.level(a)
        };
        if depth == 0 || m >= limit {
            let next = plan.tasks.len() as u32;
            let t = *dedup.entry((a, b)).or_insert_with(|| {
                plan.tasks.push((a, b));
                next
            });
            PlanNode::Task(t)
        } else {
            let (a0, a1) = if inner.level(a) == m {
                (inner.low(a), inner.high(a))
            } else {
                (a, a)
            };
            let (b0, b1) = if pair_op && inner.level(b) == m {
                (inner.low(b), inner.high(b))
            } else {
                (b, b)
            };
            let lo = expand(inner, job, plan, dedup, a0, b0, limit, depth - 1);
            let hi = expand(inner, job, plan, dedup, a1, b1, limit, depth - 1);
            PlanNode::Mk { level: m, lo, hi }
        }
    };
    plan.nodes.push(node);
    (plan.nodes.len() - 1) as u32
}

/// Per-worker counters, merged into [`crate::KernelStats`] after the join.
/// Each worker's `lookups >= hits` invariant holds locally, so it holds
/// for the merged totals too — no interleaving can undercount lookups.
#[derive(Clone, Copy)]
struct WorkerStats {
    steps: u64,
    lookups: u64,
    hits: u64,
    per_op: [(u64, u64); 10],
    created: u64,
    unique_hits: u64,
    steals: u64,
    replace_rebuilds: u64,
}

impl WorkerStats {
    fn new() -> WorkerStats {
        WorkerStats {
            steps: 0,
            lookups: 0,
            hits: 0,
            per_op: [(0, 0); 10],
            created: 0,
            unique_hits: 0,
            steals: 0,
            replace_rebuilds: 0,
        }
    }
}

/// One worker's view of the kernel: the frozen master table, the shared
/// allocator/unique-table/cache, a step counter to flush into (the
/// governor's op-wide counter for split tasks, a per-expression counter
/// in batch mode) and the private L1 cache.
struct Worker<'a> {
    inner: &'a Inner,
    k: &'a Kernel,
    /// Where flushed step batches accumulate for the step-limit check.
    steps_ctr: &'a AtomicU64,
    stats: WorkerStats,
    l1: Vec<CEntry>,
    /// Steps since the last governor flush.
    pending: u64,
}

impl<'a> Worker<'a> {
    fn new(inner: &'a Inner, k: &'a Kernel, steps_ctr: &'a AtomicU64) -> Worker<'a> {
        Worker {
            inner,
            k,
            steps_ctr,
            stats: WorkerStats::new(),
            l1: vec![CEntry::EMPTY; L1_SLOTS],
            pending: 0,
        }
    }

    /// Reads a node triple: master ids (below `base`) straight from the
    /// frozen arena, fresh ids from the operation's allocator.
    #[inline]
    fn node3(&self, id: u32) -> (u32, u32, u32) {
        if id < self.k.alloc.base {
            let inner = self.inner;
            (inner.level(id), inner.low(id), inner.high(id))
        } else {
            self.k.alloc.read((id - self.k.alloc.base) as usize)
        }
    }

    #[inline]
    fn level_any(&self, id: u32) -> u32 {
        if id < self.k.alloc.base {
            self.inner.level(id)
        } else {
            self.k.alloc.read((id - self.k.alloc.base) as usize).0
        }
    }

    /// One recursion step: counts locally, flushes to the shared governor
    /// every [`Budget::CHECK_INTERVAL`] steps.
    #[inline]
    fn tick(&mut self) -> Result<(), BddError> {
        self.stats.steps += 1;
        self.pending += 1;
        if self.pending >= Budget::CHECK_INTERVAL {
            self.flush()?;
        }
        Ok(())
    }

    /// Flushes the pending step batch and probes the step, cancellation
    /// and deadline limits — the same comparisons, in the same order, as
    /// the sequential `Inner::step`. The node limit is *not* probed here:
    /// the sequential governor only checks it at the allocation point
    /// (`mk`), and [`Worker::cmk`] is that point for workers. An abort
    /// raised by another worker surfaces as `Cancelled` here; the
    /// authoritative error is whatever the first tripping worker recorded.
    fn flush(&mut self) -> Result<(), BddError> {
        let gov = &self.k.gov;
        let pending = std::mem::take(&mut self.pending);
        if gov.aborted() {
            return Err(BddError::Cancelled);
        }
        if !gov.active {
            return Ok(());
        }
        let total = self.steps_ctr.fetch_add(pending, Ordering::Relaxed) + pending;
        if let Some(limit) = gov.max_steps {
            if total > limit {
                return Err(gov.trip(BddError::StepLimit { steps: total, limit }));
            }
        }
        if let Some(token) = &gov.cancel {
            if token.is_cancelled() {
                return Err(gov.trip(BddError::Cancelled));
            }
        }
        if let Some(deadline) = gov.deadline {
            if Instant::now() >= deadline {
                return Err(gov.trip(BddError::Deadline));
            }
        }
        Ok(())
    }

    /// Concurrent `mk`: the reduction rule, a lock-free probe of the
    /// frozen master table (master nodes only reference ids below `base`,
    /// so the probe fires exactly when the triple could already exist
    /// there), then find-or-reserve through the shard map. The node
    /// budget is enforced before the reservation, mirroring the
    /// sequential `mk`'s check-before-alloc semantics: the tripped error
    /// reports `master_live + reserved` as the live count.
    fn cmk(&mut self, level: u32, low: u32, high: u32) -> Result<u32, BddError> {
        if low == high {
            return Ok(low);
        }
        let base = self.k.alloc.base;
        if low < base && high < base {
            if let Some(id) = self.inner.lookup_frozen(level, low, high) {
                self.stats.unique_hits += 1;
                return Ok(id);
            }
        }
        let h = triple_hash(level, low, high);
        let mut shard = self.k.shards[(h >> 40) as usize & (NUM_SHARDS - 1)]
            .lock();
        if let Some(&id) = shard.get(&(level, low, high)) {
            self.stats.unique_hits += 1;
            return Ok(id);
        }
        let gov = &self.k.gov;
        let mut c = self.k.alloc.count.load(Ordering::Relaxed);
        loop {
            if gov.active {
                if let Some(limit) = gov.node_limit {
                    let live = gov.master_live + c;
                    if live >= limit {
                        return Err(gov.trip(BddError::NodeLimit { live, limit }));
                    }
                }
            }
            match self.k.alloc.count.compare_exchange_weak(
                c,
                c + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(cur) => c = cur,
            }
        }
        let id = base + c as u32;
        self.k.alloc.write(c, level, low, high);
        shard.insert((level, low, high), id);
        self.stats.created += 1;
        Ok(id)
    }

    #[inline]
    fn cache_get(&mut self, op: CacheOp, a: u32, b: u32, c: u32) -> Option<u32> {
        self.stats.lookups += 1;
        self.stats.per_op[op as usize - 1].0 += 1;
        let h = cache_hash(op, a, b, c);
        let slot = h as usize & (L1_SLOTS - 1);
        let e = self.l1[slot];
        if e.op == op && e.a == a && e.b == b && e.c == c {
            self.stats.hits += 1;
            self.stats.per_op[op as usize - 1].1 += 1;
            return Some(e.result);
        }
        if let Some(r) = self.k.cache.get(h, op, a, b, c) {
            self.l1[slot] = CEntry { op, a, b, c, result: r };
            self.stats.hits += 1;
            self.stats.per_op[op as usize - 1].1 += 1;
            return Some(r);
        }
        None
    }

    #[inline]
    fn cache_put(&mut self, op: CacheOp, a: u32, b: u32, c: u32, result: u32) {
        let h = cache_hash(op, a, b, c);
        let e = CEntry { op, a, b, c, result };
        self.l1[h as usize & (L1_SLOTS - 1)] = e;
        self.k.cache.put(h, e);
    }

    /// Bryant apply. Operands may be master ids or (in batch mode, where
    /// an expression's inputs can be results of earlier expressions)
    /// fresh ids from this operation's allocator.
    fn wapply(&mut self, op: BinOp, a: u32, b: u32) -> Result<u32, BddError> {
        if let Some(r) = op.terminal_case(a, b) {
            return Ok(r);
        }
        self.tick()?;
        let (ka, kb) = if op.commutative() && a > b { (b, a) } else { (a, b) };
        if let Some(r) = self.cache_get(op.cache_op(), ka, kb, 0) {
            return Ok(r);
        }
        let (la, alo, ahi) = self.node3(a);
        let (lb, blo, bhi) = self.node3(b);
        let m = la.min(lb);
        let (a0, a1) = if la == m { (alo, ahi) } else { (a, a) };
        let (b0, b1) = if lb == m { (blo, bhi) } else { (b, b) };
        let r0 = self.wapply(op, a0, b0)?;
        let r1 = self.wapply(op, a1, b1)?;
        let r = self.cmk(m, r0, r1)?;
        self.cache_put(op.cache_op(), ka, kb, 0, r);
        Ok(r)
    }

    /// Existential quantification; mirrors `Inner::exists`. The cube is
    /// always a master node (built before the workers start).
    fn wexists(&mut self, f: u32, cube: u32) -> Result<u32, BddError> {
        if f <= 1 || cube == 1 {
            return Ok(f);
        }
        self.tick()?;
        let inner = self.inner;
        let (lf, f0, f1) = self.node3(f);
        let mut c = cube;
        while c != 1 && inner.level(c) < lf {
            c = inner.high(c);
        }
        if c == 1 {
            return Ok(f);
        }
        if let Some(r) = self.cache_get(CacheOp::Exists, f, c, 0) {
            return Ok(r);
        }
        let lc = inner.level(c);
        let r = if lf == lc {
            let next = inner.high(c);
            let r0 = self.wexists(f0, next)?;
            let r1 = self.wexists(f1, next)?;
            self.wapply(BinOp::Or, r0, r1)?
        } else {
            debug_assert!(lf < lc);
            let r0 = self.wexists(f0, c)?;
            let r1 = self.wexists(f1, c)?;
            self.cmk(lf, r0, r1)?
        };
        self.cache_put(CacheOp::Exists, f, c, 0, r);
        Ok(r)
    }

    /// Fused relational product; mirrors `Inner::and_exists`.
    fn wand_exists(&mut self, f: u32, g: u32, cube: u32) -> Result<u32, BddError> {
        if f == 0 || g == 0 {
            return Ok(0);
        }
        if cube == 1 {
            return self.wapply(BinOp::And, f, g);
        }
        if f == 1 && g == 1 {
            return Ok(1);
        }
        self.tick()?;
        let inner = self.inner;
        let (f, g) = if f > g { (g, f) } else { (f, g) };
        let (lf, flo, fhi) = self.node3(f);
        let (lg, glo, ghi) = self.node3(g);
        let m = lf.min(lg);
        let mut c = cube;
        while c != 1 && inner.level(c) < m {
            c = inner.high(c);
        }
        if c == 1 {
            return self.wapply(BinOp::And, f, g);
        }
        if let Some(r) = self.cache_get(CacheOp::AndExists, f, g, c) {
            return Ok(r);
        }
        let (f0, f1) = if lf == m { (flo, fhi) } else { (f, f) };
        let (g0, g1) = if lg == m { (glo, ghi) } else { (g, g) };
        let r = if inner.level(c) == m {
            let next = inner.high(c);
            let r0 = self.wand_exists(f0, g0, next)?;
            if r0 == 1 {
                1
            } else {
                let r1 = self.wand_exists(f1, g1, next)?;
                self.wapply(BinOp::Or, r0, r1)?
            }
        } else {
            let r0 = self.wand_exists(f0, g0, c)?;
            let r1 = self.wand_exists(f1, g1, c)?;
            self.cmk(m, r0, r1)?
        };
        self.cache_put(CacheOp::AndExists, f, g, c, r);
        Ok(r)
    }

    /// Variable replacement; mirrors `Inner::replace_rec`, with the
    /// order-reversing fallback going through the worker's `ite`.
    fn wreplace(&mut self, f: u32, perm: &Permutation, pid: u32) -> Result<u32, BddError> {
        if f <= 1 {
            return Ok(f);
        }
        self.tick()?;
        if let Some(r) = self.cache_get(CacheOp::Replace, f, pid, 0) {
            return Ok(r);
        }
        let (lf, lo, hi) = self.node3(f);
        let lo2 = self.wreplace(lo, perm, pid)?;
        let hi2 = self.wreplace(hi, perm, pid)?;
        let inner = self.inner;
        let new_var = perm.apply(inner.var_at_level(lf));
        let new_level = inner.level_of_var(new_var);
        let r = if new_level < self.level_any(lo2) && new_level < self.level_any(hi2) {
            self.cmk(new_level, lo2, hi2)?
        } else {
            self.stats.replace_rebuilds += 1;
            let var = self.cmk(new_level, 0, 1)?;
            self.wite(var, hi2, lo2)?
        };
        self.cache_put(CacheOp::Replace, f, pid, 0, r);
        Ok(r)
    }

    /// If-then-else; mirrors `Inner::ite`. Only reachable from the
    /// order-reversing branch of `wreplace`.
    fn wite(&mut self, f: u32, g: u32, h: u32) -> Result<u32, BddError> {
        if f == 1 {
            return Ok(g);
        }
        if f == 0 {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == 1 && h == 0 {
            return Ok(f);
        }
        self.tick()?;
        if let Some(r) = self.cache_get(CacheOp::Ite, f, g, h) {
            return Ok(r);
        }
        let (lf, flo, fhi) = self.node3(f);
        let (lg, glo, ghi) = self.node3(g);
        let (lh, hlo, hhi) = self.node3(h);
        let m = lf.min(lg).min(lh);
        let (f0, f1) = if lf == m { (flo, fhi) } else { (f, f) };
        let (g0, g1) = if lg == m { (glo, ghi) } else { (g, g) };
        let (h0, h1) = if lh == m { (hlo, hhi) } else { (h, h) };
        let r0 = self.wite(f0, g0, h0)?;
        let r1 = self.wite(f1, g1, h1)?;
        let r = self.cmk(m, r0, r1)?;
        self.cache_put(CacheOp::Ite, f, g, h, r);
        Ok(r)
    }

    /// Mirrors `Inner::validate_replace` for operands that may live in the
    /// operation's allocator: walks the support through [`Worker::node3`]
    /// and reports the same typed errors, routed through the governor so
    /// the whole batch aborts with the sequential path's error.
    fn wvalidate_replace(&mut self, f: u32, perm: &Permutation) -> Result<(), BddError> {
        let mut vars = std::collections::BTreeSet::new();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(id) = stack.pop() {
            if id <= 1 || !seen.insert(id) {
                continue;
            }
            let (level, lo, hi) = self.node3(id);
            vars.insert(self.inner.var_at_level(level));
            stack.push(lo);
            stack.push(hi);
        }
        let mut targets: Vec<u32> = vars.iter().map(|&v| perm.apply(v)).collect();
        targets.sort_unstable();
        for w in targets.windows(2) {
            if w[0] == w[1] {
                return Err(self.k.gov.trip(BddError::InvalidPermutation {
                    var: w[0],
                    kind: PermutationFlaw::DuplicateTarget,
                }));
            }
        }
        for &t in &targets {
            if t >= self.inner.num_vars() {
                return Err(self.k.gov.trip(BddError::InvalidPermutation {
                    var: t,
                    kind: PermutationFlaw::OutOfRange,
                }));
            }
        }
        Ok(())
    }
}

/// Everything the split-task workers borrow for the parallel phase.
struct OpShared<'a, 'p> {
    inner: &'a Inner,
    k: &'a Kernel,
    job: Job<'p>,
    tasks: &'a [(u32, u32)],
    deques: &'a [Mutex<VecDeque<u32>>],
    results: &'a [AtomicU32],
}

/// Pops from the worker's own deque front, then steals from the back of
/// the other deques (round-robin from the right neighbour).
fn next_task(sh: &OpShared, idx: usize, stats: &mut WorkerStats) -> Option<u32> {
    if let Some(t) = sh.deques[idx].lock().pop_front() {
        return Some(t);
    }
    let n = sh.deques.len();
    for k in 1..n {
        let j = (idx + k) % n;
        if let Some(t) = sh.deques[j].lock().pop_back() {
            stats.steals += 1;
            return Some(t);
        }
    }
    None
}

fn worker_main(sh: &OpShared, idx: usize) -> WorkerStats {
    let mut w = Worker::new(sh.inner, sh.k, &sh.k.gov.steps);
    loop {
        if sh.k.gov.aborted() {
            break;
        }
        let Some(t) = next_task(sh, idx, &mut w.stats) else {
            break;
        };
        let (a, b) = sh.tasks[t as usize];
        let r = match sh.job {
            Job::Bin(op) => w.wapply(op, a, b),
            Job::Exists { cube } => w.wexists(a, cube),
            Job::AndExists { cube } => w.wand_exists(a, b, cube),
            Job::Replace { perm, pid } => w.wreplace(a, perm, pid),
        };
        match r {
            Ok(r) => sh.results[t as usize].store(r, Ordering::Release),
            // The error (if it was this worker's own trip) is already
            // recorded in the governor; stop draining tasks.
            Err(_) => break,
        }
    }
    // Flush the remainder below one check interval: a step limit smaller
    // than the interval must still fire even when every task is tiny.
    let _ = w.flush();
    w.stats
}

fn master_key(job: &Job, a: u32, b: u32) -> (CacheOp, u32, u32, u32) {
    match *job {
        Job::Bin(op) => {
            let (ka, kb) = if op.commutative() && a > b { (b, a) } else { (a, b) };
            (op.cache_op(), ka, kb, 0)
        }
        Job::Exists { cube } => (CacheOp::Exists, a, cube, 0),
        Job::AndExists { cube } => (CacheOp::AndExists, a, b, cube),
        Job::Replace { pid, .. } => (CacheOp::Replace, a, pid, 0),
    }
}

/// One expression of a [`Inner::batch_run`] dependency DAG. Operand
/// indices refer to earlier expressions in the same batch (`d < i`);
/// cube operands are master node ids, `Replace` carries an index into
/// the batch's permutation table.
#[derive(Clone, Copy)]
pub(crate) enum BatchExpr {
    /// An existing master node (an input relation).
    Leaf(u32),
    /// `exprs[a] op exprs[b]`.
    Bin(BinOp, usize, usize),
    /// `exists cube. exprs[f]`.
    Exists(usize, u32),
    /// `exists cube. (exprs[f] & exprs[g])`.
    AndExists(usize, usize, u32),
    /// `replace(exprs[f])` under the batch's `perms[p]`.
    Replace(usize, usize),
}

/// The ready-queue scheduler of one batch: expressions whose operands
/// have all resolved wait in `queue`; workers sleep on `ready_cv` when it
/// runs dry. All completion-side transitions (pending decrements, ready
/// pushes, the remaining count) happen under the queue mutex, so a waiter
/// that re-checks its exit conditions inside the wait loop can never miss
/// a wakeup.
struct BatchSched {
    queue: Mutex<VecDeque<usize>>,
    ready_cv: Condvar,
    /// Unresolved-operand counts, indexed by expression.
    pending: Vec<AtomicUsize>,
    /// Reverse dependency edges: who becomes ready when `i` resolves.
    parents: Vec<Vec<u32>>,
    /// Non-leaf expressions not yet resolved; 0 means everyone can stop.
    remaining: AtomicUsize,
}

/// Everything the batch workers borrow for the parallel phase.
struct BatchShared<'a> {
    inner: &'a Inner,
    k: &'a Kernel,
    exprs: &'a [BatchExpr],
    perms: &'a [Permutation],
    pids: &'a [u32],
    /// Resolved value of each expression (`NIL` until resolved).
    values: &'a [AtomicU32],
    /// Per-expression step counters: each expression mirrors a sequential
    /// top-level operation's fresh `begin_op` counter, so a step limit
    /// trips at the same per-operation granularity as threads = 1.
    steps: &'a [AtomicU64],
    sched: &'a BatchSched,
}

fn eval_expr(w: &mut Worker, sh: &BatchShared, i: usize) -> Result<u32, BddError> {
    let val = |d: usize| {
        let v = sh.values[d].load(Ordering::Acquire);
        debug_assert_ne!(v, NIL, "batch expression scheduled before its operands");
        v
    };
    match sh.exprs[i] {
        BatchExpr::Leaf(id) => Ok(id),
        BatchExpr::Bin(op, a, b) => w.wapply(op, val(a), val(b)),
        BatchExpr::Exists(f, cube) => w.wexists(val(f), cube),
        BatchExpr::AndExists(f, g, cube) => w.wand_exists(val(f), val(g), cube),
        BatchExpr::Replace(f, p) => {
            let fv = val(f);
            let perm = &sh.perms[p];
            if perm.is_identity() || fv <= 1 {
                return Ok(fv);
            }
            w.wvalidate_replace(fv, perm)?;
            w.wreplace(fv, perm, sh.pids[p])
        }
    }
}

fn batch_worker(sh: &BatchShared) -> WorkerStats {
    let mut w = Worker::new(sh.inner, sh.k, &sh.k.gov.steps);
    loop {
        let i = {
            let mut q = sh.sched.queue.lock();
            loop {
                if sh.k.gov.aborted() || sh.sched.remaining.load(Ordering::Relaxed) == 0 {
                    drop(q);
                    let _ = w.flush();
                    return w.stats;
                }
                if let Some(i) = q.pop_front() {
                    break i;
                }
                q = sh.sched.ready_cv.wait(q);
            }
        };
        w.steps_ctr = &sh.steps[i];
        // Flush inside the expression's own counter before moving on, so
        // sub-interval step limits fire per expression like a sequential
        // top-level op's final accounting.
        match eval_expr(&mut w, sh, i).and_then(|r| {
            w.flush()?;
            Ok(r)
        }) {
            Ok(r) => {
                sh.values[i].store(r, Ordering::Release);
                let mut q = sh.sched.queue.lock();
                for &p in &sh.sched.parents[i] {
                    if sh.sched.pending[p as usize].fetch_sub(1, Ordering::Relaxed) == 1 {
                        q.push_back(p as usize);
                    }
                }
                sh.sched.remaining.fetch_sub(1, Ordering::Relaxed);
                sh.sched.ready_cv.notify_all();
            }
            Err(_) => {
                // The governor already recorded the trip (or another
                // worker's); wake everyone so they observe the abort.
                let _q = sh.sched.queue.lock();
                sh.sched.ready_cv.notify_all();
                return w.stats;
            }
        }
    }
}

impl Inner {
    /// `true` when the parallel engine is switched on (resolved thread
    /// count >= 2). The *worker* count additionally clamps to the
    /// hardware parallelism; the engine stays engaged even when the clamp
    /// lands on one worker, so engagement remains a pure function of the
    /// requested configuration.
    pub(crate) fn par_enabled(&self) -> bool {
        // Chain-reduced managers always take the sequential path: the
        // frozen-table worker protocol hashes plain triples and cannot
        // intern chain tails created by cofactoring. Paged managers do
        // too: workers read the frozen master arena lock-free through
        // direct slot references, which a faulting buffer pool cannot
        // hand out.
        self.par_threads() >= 2 && !self.chain_mode() && !self.paged()
    }

    /// Resolves the worker count for one parallel operation against the
    /// task count and the hardware clamp, recording both the effective
    /// count and any clamp event into the stats.
    fn resolve_workers(&mut self, tasks: usize) -> usize {
        let requested = self.par_threads();
        let configured = self.par_workers();
        self.stats.par_threads_effective = configured as u64;
        if requested > configured {
            self.stats.par_thread_clamps += 1;
        }
        configured.min(tasks).max(1)
    }

    /// Merges per-worker counters into the shared [`crate::KernelStats`].
    /// Sums are order-independent, so the merged stats keep their
    /// invariants (`lookups >= hits`) regardless of scheduling. Worker
    /// steps are added to the op-wide governed counter only when
    /// `op_wide` is set — batch expressions keep per-expression counters
    /// and must not inflate the surrounding operation's step count.
    fn merge_worker_stats(&mut self, worker_stats: &[WorkerStats], active: bool, op_wide: bool) {
        let mut steps = 0u64;
        for w in worker_stats {
            steps += w.steps;
            self.stats.cache_lookups += w.lookups;
            self.stats.cache_hits += w.hits;
            for (i, &(l, h)) in w.per_op.iter().enumerate() {
                self.stats.per_op_cache[i].lookups += l;
                self.stats.per_op_cache[i].hits += h;
            }
            self.stats.unique_hits += w.unique_hits;
            self.stats.par_steals += w.steals;
            self.stats.replace_rebuilds += w.replace_rebuilds;
        }
        if active {
            self.stats.governed_steps += steps;
            if op_wide {
                self.add_op_steps(steps);
            }
        }
    }

    /// Commits the kernel's reserved node block into the master arena.
    /// Skipped entirely by the callers on a governor trip: the reserved
    /// triples are discarded with the kernel and the master table is
    /// untouched, so the recovery ladder can retry wholesale.
    fn commit_kernel(&mut self, k: &Kernel) {
        let count = k.alloc.count.load(Ordering::Relaxed);
        let created = self.commit_par_nodes(k.alloc.base, (0..count).map(|i| k.alloc.read(i)));
        self.stats.par_shared_nodes += created;
    }

    /// Runs one top-level operation on the work pool. `a`/`b` are the
    /// (pre-normalised) operands, `limit` the first level splitting must
    /// not cross. This is the whole engagement gate, cheapest test first:
    /// `Fallback` when `limit` leaves fewer than two levels to split on,
    /// when the bounded split yields fewer than two distinct tasks, or when
    /// the operands hold fewer than [`Inner::par_cutoff`] nodes. All three
    /// are structural properties of the operands, so the decision is
    /// identical for every thread count.
    pub(crate) fn par_run(
        &mut self,
        job: Job,
        a: u32,
        b: u32,
        limit: u32,
    ) -> Result<ParAttempt, BddError> {
        if limit < 2 {
            return Ok(ParAttempt::Fallback);
        }
        // The plan walks at most 2^SPLIT_DEPTH paths and most top-level
        // calls (a union with a one-tuple cube, say) yield a single task,
        // so it runs before the probe, which may walk `par_cutoff` nodes.
        let plan = build_plan(self, &job, a, b, limit);
        if plan.tasks.len() < 2 || !self.probe_at_least(&[a, b], self.par_cutoff()) {
            return Ok(ParAttempt::Fallback);
        }
        // A warm master cache answers repeated top-level operations (the
        // fixpoint engines re-issue many) without spawning anything.
        let (ck, ka, kb, kc) = master_key(&job, a, b);
        if let Some(r) = self.cache_lookup(ck, ka, kb, kc) {
            return Ok(ParAttempt::Done(r));
        }
        let workers = self.resolve_workers(plan.tasks.len());
        let k = Kernel::new(self);
        let results: Vec<AtomicU32> =
            (0..plan.tasks.len()).map(|_| AtomicU32::new(NIL)).collect();
        // Deal tasks round-robin; dealing order is deterministic, and
        // stealing only redistributes who computes a task, never what it
        // computes.
        let deques: Vec<Mutex<VecDeque<u32>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (t, dq) in (0..plan.tasks.len() as u32).zip((0..workers).cycle()) {
            deques[dq].lock().push_back(t);
        }
        let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(workers);
        {
            let shared = OpShared {
                inner: &*self,
                k: &k,
                job,
                tasks: &plan.tasks,
                deques: &deques,
                results: &results,
            };
            jedd_sync::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|i| {
                        let sh = &shared;
                        s.spawn(move || worker_main(sh, i))
                    })
                    .collect();
                for h in handles {
                    worker_stats.push(h.join().expect("parallel worker panicked"));
                }
            });
        }
        self.merge_worker_stats(&worker_stats, k.gov.active, true);
        self.stats.par_ops += 1;
        self.stats.par_tasks += plan.tasks.len() as u64;
        if let Some(e) = k.gov.take_error() {
            return Err(e);
        }
        // The join makes every worker's triples visible; committing the
        // reserved block turns the ids the workers handed out into real
        // arena nodes before the plan recombination reads them.
        self.commit_kernel(&k);
        let r = self.emit_plan(&plan, plan.root, &results)?;
        self.cache_store(ck, ka, kb, kc, r);
        Ok(ParAttempt::Done(r))
    }

    fn emit_plan(&mut self, plan: &Plan, idx: u32, results: &[AtomicU32]) -> Result<u32, BddError> {
        match plan.nodes[idx as usize] {
            PlanNode::Done(id) => Ok(id),
            PlanNode::Task(t) => {
                let r = results[t as usize].load(Ordering::Acquire);
                debug_assert_ne!(r, NIL, "parallel task finished without a result");
                Ok(r)
            }
            PlanNode::Mk { level, lo, hi } => {
                let l = self.emit_plan(plan, lo, results)?;
                let h = self.emit_plan(plan, hi, results)?;
                self.mk(level, l, h)
            }
        }
    }

    /// Evaluates a DAG of *independent* top-level expressions (one
    /// fixpoint round's delta rules) concurrently on the shared kernel:
    /// each non-leaf expression is a unit of work, dispatched as its
    /// operands resolve. Returns the master ids of all expressions in
    /// input order. Sequential fallback is the caller's job (this method
    /// always runs the concurrent engine; callers gate on
    /// [`Inner::par_enabled`]).
    pub(crate) fn batch_run(
        &mut self,
        exprs: &[BatchExpr],
        perms: &[Permutation],
    ) -> Result<Vec<u32>, BddError> {
        let pids: Vec<u32> = perms.iter().map(|p| self.intern_permutation(p)).collect();
        let values: Vec<AtomicU32> = (0..exprs.len()).map(|_| AtomicU32::new(NIL)).collect();
        let mut deps: Vec<[Option<usize>; 2]> = Vec::with_capacity(exprs.len());
        for (i, e) in exprs.iter().enumerate() {
            let d = match *e {
                BatchExpr::Leaf(id) => {
                    values[i].store(id, Ordering::Relaxed);
                    [None, None]
                }
                BatchExpr::Bin(_, a, b) | BatchExpr::AndExists(a, b, _) => [Some(a), Some(b)],
                BatchExpr::Exists(f, _) | BatchExpr::Replace(f, _) => [Some(f), None],
            };
            for dep in d.into_iter().flatten() {
                assert!(dep < i, "batch expression depends on a later expression");
            }
            deps.push(d);
        }
        let is_leaf = |j: usize| matches!(exprs[j], BatchExpr::Leaf(_));
        let mut parents: Vec<Vec<u32>> = vec![Vec::new(); exprs.len()];
        let mut pending: Vec<AtomicUsize> = Vec::with_capacity(exprs.len());
        let mut ready: VecDeque<usize> = VecDeque::new();
        let mut todo = 0usize;
        for (i, d) in deps.iter().enumerate() {
            if is_leaf(i) {
                pending.push(AtomicUsize::new(0));
                continue;
            }
            // Leaf operands resolve before any worker starts, so only
            // non-leaf operands gate readiness.
            let mut n = 0;
            for dep in d.iter().flatten() {
                if !is_leaf(*dep) {
                    parents[*dep].push(i as u32);
                    n += 1;
                }
            }
            pending.push(AtomicUsize::new(n));
            if n == 0 {
                ready.push_back(i);
            }
            todo += 1;
        }
        if todo == 0 {
            return Ok(values.iter().map(|v| v.load(Ordering::Relaxed)).collect());
        }
        let workers = self.resolve_workers(todo);
        let k = Kernel::new(self);
        let steps: Vec<AtomicU64> = (0..exprs.len()).map(|_| AtomicU64::new(0)).collect();
        let sched = BatchSched {
            queue: Mutex::new(ready),
            ready_cv: Condvar::new(),
            pending,
            parents,
            remaining: AtomicUsize::new(todo),
        };
        let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(workers);
        {
            let shared = BatchShared {
                inner: &*self,
                k: &k,
                exprs,
                perms,
                pids: &pids,
                values: &values,
                steps: &steps,
                sched: &sched,
            };
            jedd_sync::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let sh = &shared;
                        s.spawn(move || batch_worker(sh))
                    })
                    .collect();
                for h in handles {
                    worker_stats.push(h.join().expect("batch worker panicked"));
                }
            });
        }
        // Batch steps stay per-expression (`op_wide = false`): each
        // expression is its own top-level operation for budget purposes.
        self.merge_worker_stats(&worker_stats, k.gov.active, false);
        self.stats.par_ops += 1;
        self.stats.par_tasks += todo as u64;
        if let Some(e) = k.gov.take_error() {
            return Err(e);
        }
        self.commit_kernel(&k);
        Ok(values
            .iter()
            .map(|v| {
                let r = v.load(Ordering::Acquire);
                debug_assert_ne!(r, NIL, "batch finished with an unresolved expression");
                r
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Insert races on identical `(level, low, high)` triples must never
    /// yield duplicate nodes: 8 threads hammer the same triple pool in
    /// rotated orders and must agree on every id, the allocator must hold
    /// exactly one node per distinct triple, and the committed arena must
    /// resolve each triple to the id the workers handed out.
    #[test]
    fn concurrent_unique_table_dedups_races() {
        let mut inner = Inner::new(16);
        // Some frozen master nodes so the lock-free probe path is hit too.
        let masters: Vec<u32> = (8..16).map(|l| inner.mk(l, 0, 1).unwrap()).collect();
        // A pool of distinct triples over terminals and master children.
        let mut triples: Vec<(u32, u32, u32)> = Vec::new();
        for level in 0..8u32 {
            for (i, &m) in masters.iter().enumerate() {
                triples.push((level, 0, m));
                triples.push((level, m, 1));
                if i + 1 < masters.len() {
                    triples.push((level, m, masters[i + 1]));
                }
            }
        }
        let k = Kernel::new(&inner);
        let nthreads = 8;
        let ids: Vec<Vec<u32>> = jedd_sync::thread::scope(|s| {
            let handles: Vec<_> = (0..nthreads)
                .map(|t| {
                    let k = &k;
                    let inner = &inner;
                    let triples = &triples;
                    s.spawn(move || {
                        let mut w = Worker::new(inner, k, &k.gov.steps);
                        // Rotate the iteration order per thread so the
                        // same triples race from different directions.
                        let n = triples.len();
                        (0..n)
                            .map(|i| {
                                let (l, lo, hi) = triples[(i + t * 7) % n];
                                w.cmk(l, lo, hi).unwrap()
                            })
                            .collect::<Vec<u32>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Undo each thread's rotation and check exact id agreement.
        let n = triples.len();
        let mut canonical = vec![NIL; n];
        for (t, row) in ids.iter().enumerate() {
            for (i, &id) in row.iter().enumerate() {
                let slot = (i + t * 7) % n;
                if canonical[slot] == NIL {
                    canonical[slot] = id;
                } else {
                    assert_eq!(canonical[slot], id, "duplicate node for triple {slot}");
                }
            }
        }
        // One reservation per distinct triple, never more.
        assert_eq!(k.alloc.count.load(Ordering::Relaxed), n);
        // After the commit, the master table resolves every triple to the
        // exact id the workers handed out.
        let base = k.alloc.base;
        let count = k.alloc.count.load(Ordering::Relaxed);
        inner.commit_par_nodes(base, (0..count).map(|i| k.alloc.read(i)));
        for (slot, &(l, lo, hi)) in triples.iter().enumerate() {
            let id = inner.mk(l, lo, hi).unwrap();
            assert_eq!(id, canonical[slot], "commit re-keyed triple {slot}");
        }
    }
}

/// Model-checked variants of the shard protocols: the same invariants as
/// the threaded tests above, but swept across adversarial interleavings
/// by the `jedd-sync` deterministic scheduler instead of trusting the OS
/// to produce interesting ones.
#[cfg(all(test, feature = "model"))]
mod model_tests {
    use super::*;
    use jedd_sync::model::{self, Config};
    use std::sync::Mutex as StdMutex;

    /// Frozen-base snapshot vs. concurrent shard insert, exhaustively at
    /// two threads: workers probe the frozen master table lock-free while
    /// racing inserts of identical triples through the sharded unique
    /// table. On every explored schedule the threads must agree on every
    /// id, the allocator must hold exactly one reservation per distinct
    /// triple, and the commit must re-key nothing.
    #[test]
    fn frozen_base_vs_shard_insert_is_exhaustively_deduped() {
        let schedules_seen: StdMutex<u64> = StdMutex::new(0);
        let report = model::check(Config::dfs(1), || {
            let mut inner = Inner::new(8);
            // Frozen master nodes: the lock-free probe path must stay
            // coherent while the shards fill underneath it.
            let masters: Vec<u32> =
                (4..8).map(|l| inner.mk(l, 0, 1).unwrap()).collect();
            let mut triples: Vec<(u32, u32, u32)> = Vec::new();
            for level in 0..2u32 {
                for &m in &masters {
                    triples.push((level, 0, m));
                    triples.push((level, m, 1));
                }
            }
            let k = Kernel::new(&inner);
            let nthreads = 2;
            let ids: Vec<Vec<u32>> = jedd_sync::thread::scope(|s| {
                let handles: Vec<_> = (0..nthreads)
                    .map(|t| {
                        let k = &k;
                        let inner = &inner;
                        let triples = &triples;
                        s.spawn(move || {
                            let mut w = Worker::new(inner, k, &k.gov.steps);
                            let n = triples.len();
                            (0..n)
                                .map(|i| {
                                    let (l, lo, hi) = triples[(i + t * 3) % n];
                                    w.cmk(l, lo, hi).unwrap()
                                })
                                .collect::<Vec<u32>>()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let n = triples.len();
            let mut canonical = vec![NIL; n];
            for (t, row) in ids.iter().enumerate() {
                for (i, &id) in row.iter().enumerate() {
                    let slot = (i + t * 3) % n;
                    if canonical[slot] == NIL {
                        canonical[slot] = id;
                    } else {
                        assert_eq!(canonical[slot], id, "duplicate node for triple {slot}");
                    }
                }
            }
            assert_eq!(k.alloc.count.load(Ordering::Relaxed), n);
            let base = k.alloc.base;
            let count = k.alloc.count.load(Ordering::Relaxed);
            inner.commit_par_nodes(base, (0..count).map(|i| k.alloc.read(i)));
            for (slot, &(l, lo, hi)) in triples.iter().enumerate() {
                assert_eq!(inner.mk(l, lo, hi).unwrap(), canonical[slot]);
            }
            *schedules_seen.lock().unwrap() += 1;
        });
        report.assert_clean();
        assert!(report.complete, "DFS must exhaust the insert-race protocol");
        assert!(report.schedules >= 2, "the race must branch, got {}", report.schedules);
        assert_eq!(*schedules_seen.lock().unwrap(), report.schedules);
    }
}
