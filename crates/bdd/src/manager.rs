//! The public BDD manager and handle types.

use crate::budget::{BddError, Budget, FailPlan};
use crate::node::{NodeId, Permutation};
use crate::ops::BinOp;
use crate::table::{Inner, KernelStats};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A shared, reference-counted BDD kernel.
///
/// All [`Bdd`] handles created from one manager share a node arena, a unique
/// table and an operation cache. The manager is cheap to clone (it is a
/// reference-counted handle). Operations between BDDs of *different*
/// managers panic.
///
/// Garbage collection runs automatically between top-level operations once
/// the arena grows large; dropped [`Bdd`] handles release their nodes for
/// the next collection, mirroring the reference-counting discipline Jedd
/// generates for BuDDy/CUDD (paper §4.2).
///
/// A [`Budget`] installed with [`BddManager::set_budget`] bounds every
/// operation; the `try_*` variants ([`Bdd::try_and`] etc.) report
/// exhaustion as a [`BddError`] while the plain methods panic on it (they
/// never fail without a budget installed).
///
/// # Examples
///
/// ```
/// use jedd_bdd::BddManager;
/// let mgr = BddManager::new(3);
/// let f = mgr.var(0).or(&mgr.var(1));
/// let g = f.and(&mgr.nvar(2));
/// assert_eq!(g.satcount(), 3.0); // 110, 010, 100 over (v0,v1,v2)
/// ```
#[derive(Clone)]
pub struct BddManager {
    pub(crate) inner: Rc<RefCell<Inner>>,
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("BddManager")
            .field("num_vars", &inner.num_vars())
            .field("live_nodes", &inner.live_nodes())
            .finish()
    }
}

/// Runs `op` under the installed governor with the automatic recovery
/// ladder: on a node-limit failure, collect garbage and retry; if the limit
/// fires again, run a sifting reorder and retry once more; only then fail.
/// Other failures (step limit, deadline, cancellation, injected faults) are
/// returned immediately — retrying cannot help them.
pub(crate) fn run_governed<T>(
    mgr: &Rc<RefCell<Inner>>,
    mut op: impl FnMut(&mut Inner) -> Result<T, BddError>,
) -> Result<T, BddError> {
    let mut attempt = |inner: &mut Inner| {
        inner.begin_op();
        op(inner)
    };
    // `InvalidPermutation` is a caller mistake, not resource exhaustion:
    // it is returned as-is and never counted as a budget failure.
    fn record_failure(inner: &mut Inner, e: BddError) -> BddError {
        if !matches!(e, BddError::InvalidPermutation { .. }) {
            inner.stats.budget_failures += 1;
        }
        e
    }
    let mut inner = mgr.borrow_mut();
    inner.maybe_gc();
    let e1 = match attempt(&mut inner) {
        Ok(id) => return Ok(id),
        Err(e) => e,
    };
    if !matches!(e1, BddError::NodeLimit { .. }) {
        return Err(record_failure(&mut inner, e1));
    }
    // Rung 1: a full collection may reclaim enough dead nodes. Partial
    // results of the failed attempt carry no external references, so they
    // are reclaimed here too.
    inner.stats.ladder_gc_retries += 1;
    inner.gc();
    let e2 = match attempt(&mut inner) {
        Ok(id) => return Ok(id),
        Err(e) => e,
    };
    if !matches!(e2, BddError::NodeLimit { .. }) {
        return Err(record_failure(&mut inner, e2));
    }
    // Rung 2: sifting compacts the live nodes themselves; it suspends the
    // governor internally, since compaction must be free to allocate
    // transient nodes.
    inner.stats.ladder_reorder_retries += 1;
    inner.reorder_sift();
    match attempt(&mut inner) {
        Ok(id) => Ok(id),
        Err(e) => Err(record_failure(&mut inner, e)),
    }
}

/// One entry of a serialized node table, as produced by
/// [`BddManager::export_nodes`] and consumed by
/// [`BddManager::import_nodes`].
///
/// Entries refer to each other through *slots*: slot `0` is the `FALSE`
/// terminal, slot `1` is the `TRUE` terminal, and the `i`-th exported entry
/// is slot `i + 2`. The table is children-first (topologically ordered), so
/// `low` and `high` always point at earlier slots. Nodes record their
/// *variable*, not their level position, so a table survives being reloaded
/// under the same order installed via [`BddManager::set_order`] even though
/// levels are an internal notion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExportedNode {
    /// The variable this node tests.
    pub var: u32,
    /// Slot of the low (else) child.
    pub low: u32,
    /// Slot of the high (then) child.
    pub high: u32,
}

/// Unwraps a governed result for the infallible public API. Without a
/// budget or fail plan installed, governed operations cannot fail, so the
/// plain (non-`try_`) methods only panic when the caller installed limits
/// but did not switch to the `try_*` variants.
pub(crate) fn expect_within_budget<T>(op: &'static str, r: Result<T, BddError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!(
            "BDD operation `{op}` exhausted its resource budget ({e}); \
             use the try_* variants to handle exhaustion without panicking"
        ),
    }
}

fn assert_fields_fit(fields: &[(&[u32], u64)]) {
    for &(bits, value) in fields {
        assert!(
            bits.len() >= 64 || value < (1u64 << bits.len()),
            "value {value} does not fit in {} bits",
            bits.len()
        );
    }
}

impl BddManager {
    /// Creates a manager with `num_vars` boolean variables, at levels
    /// `0..num_vars` (level order == variable order).
    pub fn new(num_vars: usize) -> BddManager {
        BddManager {
            inner: Rc::new(RefCell::new(Inner::new(num_vars as u32))),
        }
    }

    /// Creates a manager with Bryant chain reduction (TACAS 2018) enabled:
    /// nodes may carry a chain interval `[level, bot]` encoding the
    /// OR-chain `¬x_level ∧ … ∧ ¬x_{bot-1} ∧ (¬x_bot·low + x_bot·high)`,
    /// so functions whose BDDs contain long "every variable false" spines
    /// (one-hot and sparse-set encodings) store one node per spine. A
    /// chain-reduced BDD never holds more decision nodes than the plain
    /// BDD of the same function under the same order.
    ///
    /// Chain managers are *order-static*: [`BddManager::reorder_sift`]
    /// degrades to a garbage collection. Install an order with
    /// [`BddManager::set_order`] before building nodes instead.
    pub fn new_chained(num_vars: usize) -> BddManager {
        let m = BddManager::new(num_vars);
        m.inner
            .borrow_mut()
            .set_chain_mode(true)
            .expect("fresh arena holds only terminals");
        m
    }

    /// `true` when this manager applies chain reduction (created via
    /// [`BddManager::new_chained`]).
    pub fn chain_mode(&self) -> bool {
        self.inner.borrow().chain_mode()
    }

    /// Creates a manager whose node arena is paged to disk through the
    /// buffer pool in [`crate::pager`]: at most `frames` blocks of
    /// [`crate::pager::BLOCK_NODES`] nodes are resident at once (`0` =
    /// unbounded), cold blocks are evicted to a scratch page file (under
    /// `JEDD_PAGE_DIR` when set, else the system temp dir) and faulted
    /// back transparently on access. This is the capacity lever for
    /// analyses whose live arena exceeds RAM: the governor's node budget
    /// bounds *live nodes*, the frame budget bounds *resident memory*.
    ///
    /// The determinism contract: a paged manager produces tuple-identical
    /// relations to a fully-resident one at any frame budget — in fact it
    /// allocates node ids in exactly the resident order. Paged managers
    /// are also order-static: [`BddManager::reorder_sift`] degrades to a
    /// garbage collection; install an order with
    /// [`BddManager::set_order`] before building nodes.
    ///
    /// # Panics
    ///
    /// Panics when the page file cannot be created (use
    /// [`BddManager::try_new_paged`] to handle that as an error).
    pub fn new_paged(num_vars: usize, frames: usize) -> BddManager {
        match BddManager::try_new_paged(num_vars, frames) {
            Ok(m) => m,
            Err(e) => panic!("failed to create paged manager: {e}"),
        }
    }

    /// Fallible form of [`BddManager::new_paged`], with chain reduction
    /// selectable: `chained = true` gives a paged CBDD manager (both
    /// contracts compose — the arena is chain-reduced *and* disk-backed).
    ///
    /// # Errors
    ///
    /// Returns [`BddError::Page`] when the page directory or file cannot
    /// be created.
    pub fn try_new_paged_full(
        num_vars: usize,
        frames: usize,
        chained: bool,
    ) -> Result<BddManager, BddError> {
        let m = BddManager::new(num_vars);
        {
            let mut inner = m.inner.borrow_mut();
            if chained {
                inner
                    .set_chain_mode(true)
                    .expect("fresh arena holds only terminals");
            }
            inner.enable_paging(frames, None)?;
        }
        Ok(m)
    }

    /// Fallible form of [`BddManager::new_paged`].
    ///
    /// # Errors
    ///
    /// Returns [`BddError::Page`] when the page directory or file cannot
    /// be created.
    pub fn try_new_paged(num_vars: usize, frames: usize) -> Result<BddManager, BddError> {
        BddManager::try_new_paged_full(num_vars, frames, false)
    }

    /// `true` when this manager pages its arena to disk (created via
    /// [`BddManager::new_paged`]).
    pub fn is_paged(&self) -> bool {
        self.inner.borrow().paged()
    }

    /// Takes the full pager error parked behind the most recent
    /// [`BddError::Page`], if any. The compact `Page` form carries only a
    /// block number and a failure-class tag; this carries the page-file
    /// path, the decode failure class, and the underlying I/O error.
    /// Clears the parked error, un-poisoning the manager.
    pub fn take_page_error(&self) -> Option<crate::pager::PageError> {
        self.inner.borrow().take_page_error()
    }

    /// Installs a deterministic pager crash-injection plan (tests only;
    /// no-op on a resident manager). See [`crate::pager::PagerFaults`].
    pub fn set_pager_faults(&self, faults: crate::pager::PagerFaults) {
        self.inner.borrow().set_pager_faults(faults);
    }

    /// The backing page file of a paged manager (`None` when resident).
    pub fn page_file(&self) -> Option<std::path::PathBuf> {
        self.inner.borrow().page_file()
    }

    /// Faults every block of `b`'s sub-DAG into the buffer pool, reporting
    /// read failures (torn pages, I/O errors) as typed errors. A no-op on
    /// a resident manager.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::Page`] on a fault-in failure; the full error is
    /// retrievable through [`BddManager::take_page_error`].
    pub fn try_page_in(&self, b: &Bdd) -> Result<(), BddError> {
        assert!(self.owns(b), "try_page_in: BDD from a different manager");
        self.inner.borrow_mut().page_in(b.id)
    }

    /// Installs a resource [`Budget`] governing all subsequent operations;
    /// `Budget::unlimited()` removes all limits.
    pub fn set_budget(&self, budget: Budget) {
        self.inner.borrow_mut().set_budget(budget);
    }

    /// The currently installed budget (unlimited by default).
    pub fn budget(&self) -> Budget {
        self.inner.borrow().budget()
    }

    /// Installs (`Some`) or removes (`None`) a deterministic
    /// fault-injection plan; the plan's event counters restart either way.
    /// Intended for tests of error paths.
    pub fn set_fail_plan(&self, plan: Option<FailPlan>) {
        self.inner.borrow_mut().set_fail_plan(plan);
    }

    /// Number of variables currently allocated.
    pub fn num_vars(&self) -> usize {
        self.inner.borrow().num_vars() as usize
    }

    /// Allocates `n` additional variables at the bottom of the order and
    /// returns their level range.
    pub fn add_vars(&self, n: usize) -> std::ops::Range<u32> {
        self.inner.borrow_mut().add_vars(n as u32)
    }

    /// The constant `false` / empty-set BDD.
    pub fn constant_false(&self) -> Bdd {
        self.wrap(NodeId::FALSE.0)
    }

    /// The constant `true` / full-set BDD.
    pub fn constant_true(&self) -> Bdd {
        self.wrap(NodeId::TRUE.0)
    }

    /// The BDD testing variable `var` positively.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range, or on budget exhaustion (see
    /// [`BddManager::try_var`]).
    pub fn var(&self, var: u32) -> Bdd {
        expect_within_budget("var", self.try_var(var))
    }

    /// Budget-aware form of [`BddManager::var`].
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion or injected faults.
    pub fn try_var(&self, var: u32) -> Result<Bdd, BddError> {
        let id = run_governed(&self.inner, |inner| inner.mk_var(var))?;
        Ok(self.wrap(id))
    }

    /// The BDD testing variable `var` negatively.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range, or on budget exhaustion (see
    /// [`BddManager::try_nvar`]).
    pub fn nvar(&self, var: u32) -> Bdd {
        expect_within_budget("nvar", self.try_nvar(var))
    }

    /// Budget-aware form of [`BddManager::nvar`].
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion or injected faults.
    pub fn try_nvar(&self, var: u32) -> Result<Bdd, BddError> {
        let id = run_governed(&self.inner, |inner| inner.mk_nvar(var))?;
        Ok(self.wrap(id))
    }

    /// A positive cube (conjunction) of the given variables, used as the
    /// quantification set of [`Bdd::exists`] and [`Bdd::and_exists`].
    pub fn cube(&self, vars: &[u32]) -> Bdd {
        expect_within_budget("cube", self.try_cube(vars))
    }

    /// Budget-aware form of [`BddManager::cube`].
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion or injected faults.
    pub fn try_cube(&self, vars: &[u32]) -> Result<Bdd, BddError> {
        let id = run_governed(&self.inner, |inner| inner.mk_cube(vars))?;
        Ok(self.wrap(id))
    }

    /// Encodes `value` in binary over `bits` (most significant bit first):
    /// the conjunction of the corresponding literals.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in `bits.len()` bits, or on budget
    /// exhaustion (see [`BddManager::try_encode_value`]).
    pub fn encode_value(&self, bits: &[u32], value: u64) -> Bdd {
        expect_within_budget("encode_value", self.try_encode_value(bits, value))
    }

    /// Budget-aware form of [`BddManager::encode_value`].
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion or injected faults.
    pub fn try_encode_value(&self, bits: &[u32], value: u64) -> Result<Bdd, BddError> {
        self.try_encode_values(&[(bits, value)])
    }

    /// Encodes a tuple: the conjunction of every field's `value` over its
    /// `bits` (most significant bit first), built bottom-up in the current
    /// level order with one `mk` per bit. A variable shared by two fields
    /// must agree between them, or the result is empty.
    ///
    /// # Panics
    ///
    /// Panics if a value does not fit in its bits, or on budget exhaustion
    /// (see [`BddManager::try_encode_values`]).
    pub fn encode_values(&self, fields: &[(&[u32], u64)]) -> Bdd {
        expect_within_budget("encode_values", self.try_encode_values(fields))
    }

    /// Budget-aware form of [`BddManager::encode_values`].
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion or injected faults.
    pub fn try_encode_values(&self, fields: &[(&[u32], u64)]) -> Result<Bdd, BddError> {
        assert_fields_fit(fields);
        let id = run_governed(&self.inner, |inner| inner.encode_minterm(fields))?;
        Ok(self.wrap(id))
    }

    /// Inserts one tuple into `f`: `f ∨ encode_values(fields)`, built
    /// without the operation cache. The tuple's minterm is ORed in along
    /// its own path, so only the nodes on that path are rebuilt; where `f`
    /// tests a variable the tuple leaves free, the general memoised OR
    /// takes over.
    ///
    /// # Panics
    ///
    /// Panics if `f` belongs to a different manager, if a value does not
    /// fit in its bits, or on budget exhaustion (see
    /// [`BddManager::try_insert_values`]).
    pub fn insert_values(&self, f: &Bdd, fields: &[(&[u32], u64)]) -> Bdd {
        expect_within_budget("insert_values", self.try_insert_values(f, fields))
    }

    /// Budget-aware form of [`BddManager::insert_values`]: one governed
    /// operation, so budgets, the GC → reorder recovery ladder and pager
    /// faults apply to it like to any other.
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion, injected faults or a
    /// failed page read.
    pub fn try_insert_values(&self, f: &Bdd, fields: &[(&[u32], u64)]) -> Result<Bdd, BddError> {
        assert!(self.owns(f), "insert_values: BDD from a different manager");
        assert_fields_fit(fields);
        let id = run_governed(&self.inner, |inner| inner.insert_minterm(f.id, fields))?;
        Ok(self.wrap(id))
    }

    /// The BDD asserting that the bit vectors `xs` and `ys` (MSB first, same
    /// length) hold equal values: `AND_i (xs[i] <-> ys[i])`.
    ///
    /// Used for Jedd's attribute-copy operation and for select-style joins.
    pub fn equal_vectors(&self, xs: &[u32], ys: &[u32]) -> Bdd {
        expect_within_budget("equal_vectors", self.try_equal_vectors(xs, ys))
    }

    /// Budget-aware form of [`BddManager::equal_vectors`].
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion or injected faults.
    pub fn try_equal_vectors(&self, xs: &[u32], ys: &[u32]) -> Result<Bdd, BddError> {
        assert_eq!(xs.len(), ys.len(), "bit vectors must have equal length");
        let id = run_governed(&self.inner, |inner| {
            let mut acc = NodeId::TRUE.0;
            // Conjunction built from the bottom pair upward keeps
            // intermediate BDDs small when the vectors are interleaved.
            let mut pairs: Vec<(u32, u32)> = xs.iter().copied().zip(ys.iter().copied()).collect();
            pairs.sort_unstable_by_key(|&(a, b)| std::cmp::Reverse(a.max(b)));
            for (x, y) in pairs {
                let vx = inner.mk_var(x)?;
                let vy = inner.mk_var(y)?;
                let eq = inner.apply(BinOp::Biimp, vx, vy)?;
                acc = inner.apply(BinOp::And, acc, eq)?;
            }
            Ok(acc)
        })?;
        Ok(self.wrap(id))
    }

    /// The BDD containing exactly the bit strings whose value over `bits`
    /// (MSB first) is strictly less than `bound`. Used to restrict a
    /// physical domain to the valid codes of a domain whose size is not a
    /// power of two.
    pub fn less_than(&self, bits: &[u32], bound: u64) -> Bdd {
        expect_within_budget("less_than", self.try_less_than(bits, bound))
    }

    /// Budget-aware form of [`BddManager::less_than`].
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion or injected faults.
    pub fn try_less_than(&self, bits: &[u32], bound: u64) -> Result<Bdd, BddError> {
        if bits.len() < 64 && bound >= (1u64 << bits.len()) {
            return Ok(self.constant_true());
        }
        let id = run_governed(&self.inner, |inner| {
            // Standard comparator: walk MSB to LSB accumulating "already
            // less": f = OR over positions where the bound bit is 1 of
            // (prefix equal so far) AND (bit i = 0).
            let mut acc = NodeId::FALSE.0;
            let n = bits.len();
            let mut prefix_eq = NodeId::TRUE.0;
            for (i, &var) in bits.iter().enumerate() {
                let b = (bound >> (n - 1 - i)) & 1;
                if b == 1 {
                    let nv = inner.mk_nvar(var)?;
                    let t = inner.apply(BinOp::And, prefix_eq, nv)?;
                    acc = inner.apply(BinOp::Or, acc, t)?;
                    let pv = inner.mk_var(var)?;
                    prefix_eq = inner.apply(BinOp::And, prefix_eq, pv)?;
                } else {
                    let nv = inner.mk_nvar(var)?;
                    prefix_eq = inner.apply(BinOp::And, prefix_eq, nv)?;
                }
            }
            Ok(acc)
        })?;
        Ok(self.wrap(id))
    }

    /// Total number of live nodes in the arena (all BDDs, including
    /// terminals).
    pub fn live_nodes(&self) -> usize {
        self.inner.borrow().live_nodes()
    }

    /// Number of unique-table buckets (diagnostics: the table grows to
    /// keep at most 1.5 nodes per bucket).
    pub fn unique_buckets(&self) -> usize {
        self.inner.borrow().buckets_len()
    }

    /// Forces a full garbage collection and returns the number of reclaimed
    /// nodes.
    pub fn gc(&self) -> usize {
        self.inner.borrow_mut().gc()
    }

    /// Enables or disables automatic garbage collection (enabled by
    /// default). Useful in benchmarks that measure raw operation cost.
    pub fn set_gc_enabled(&self, enabled: bool) {
        self.inner.borrow_mut().gc_enabled = enabled;
    }

    /// Snapshot of kernel activity counters. For paged managers this
    /// merges the pager's counters (`page_faults`, `page_reads`,
    /// `page_writes`, `page_evictions`, `page_max_resident`) into the
    /// snapshot; resident managers report zeros there.
    pub fn kernel_stats(&self) -> KernelStats {
        self.inner.borrow().stats_snapshot()
    }

    /// Runs Rudell sifting: every variable is moved to its locally optimal
    /// level position (the dynamic-reordering facility of BuDDy/CUDD; the
    /// paper's §4.3 profiler exists to guide this tuning by hand).
    ///
    /// Returns `(nodes_before, nodes_after)`. All existing [`Bdd`] handles
    /// remain valid and keep denoting the same boolean functions over the
    /// same variables; only the internal level ordering changes.
    ///
    /// This is an expensive, stop-the-world operation — call it between
    /// analysis phases, not inside hot loops. It is exempt from any
    /// installed budget: compaction must be free to allocate.
    pub fn reorder_sift(&self) -> (usize, usize) {
        self.inner.borrow_mut().reorder_sift()
    }

    /// The current variable order: the variable at each level position,
    /// top to bottom.
    pub fn current_order(&self) -> Vec<u32> {
        self.inner.borrow().level2var.clone()
    }

    /// The level position currently holding `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn level_of_var(&self, var: u32) -> u32 {
        self.inner.borrow().level_of_var(var)
    }

    /// Returns `true` if `a` and `b` were created by this manager.
    pub fn owns(&self, b: &Bdd) -> bool {
        Rc::ptr_eq(&self.inner, &b.mgr)
    }

    /// Installs a saved variable order wholesale (level position -> variable,
    /// top to bottom), the restore-side counterpart of
    /// [`BddManager::current_order`].
    ///
    /// Unlike [`BddManager::reorder_sift`], which migrates live nodes, this
    /// simply *declares* the order, so it is only legal while the arena
    /// holds nothing but the two terminals — in practice: on a fresh
    /// manager, after [`BddManager::add_vars`] and before any node is
    /// created. Snapshot restore uses it to reproduce the exact level
    /// layout a node table was exported under, which is what makes
    /// re-imported tables node-id-identical.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::InvalidImport`] if internal nodes already exist,
    /// the length does not match the variable count, or the order is not a
    /// permutation of the variables.
    pub fn set_order(&self, level2var: &[u32]) -> Result<(), BddError> {
        self.inner.borrow_mut().set_order(level2var)
    }

    /// Serializes the sub-DAGs under `roots` as a children-first node
    /// table plus the slot of each root, the dddmp-style interchange shape
    /// consumed by [`BddManager::import_nodes`].
    ///
    /// The traversal order is deterministic for a given root list, and
    /// shared structure is exported once, so the table size is the number
    /// of distinct internal nodes under all roots.
    ///
    /// # Panics
    ///
    /// Panics if any root belongs to a different manager.
    pub fn export_nodes(&self, roots: &[&Bdd]) -> (Vec<ExportedNode>, Vec<u32>) {
        for b in roots {
            assert!(self.owns(b), "export_nodes: root from a different manager");
        }
        let inner = self.inner.borrow();
        let mut slot: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        slot.insert(0, 0);
        slot.insert(1, 1);
        let mut out: Vec<ExportedNode> = Vec::new();
        let mut stack: Vec<(u32, bool)> = Vec::new();
        for b in roots {
            stack.push((b.id, false));
            while let Some((id, expanded)) = stack.pop() {
                if slot.contains_key(&id) {
                    continue;
                }
                let (low, high) = (inner.low(id), inner.high(id));
                if expanded {
                    // A chain node expands to its plain spine: the decision
                    // node at `bot`, then one `(next, FALSE)` node per chain
                    // level walking back up to `level`. Plain nodes have an
                    // empty interval and emit exactly one entry, so plain
                    // managers export byte-identical tables. The id maps to
                    // the topmost spine slot.
                    let top = inner.level(id);
                    let bot = inner.bot(id);
                    out.push(ExportedNode {
                        var: inner.var_at_level(bot),
                        low: slot[&low],
                        high: slot[&high],
                    });
                    let mut acc = out.len() as u32 + 1;
                    for l in (top..bot).rev() {
                        out.push(ExportedNode {
                            var: inner.var_at_level(l),
                            low: acc,
                            high: 0,
                        });
                        acc = out.len() as u32 + 1;
                    }
                    slot.insert(id, acc);
                } else {
                    stack.push((id, true));
                    stack.push((high, false));
                    stack.push((low, false));
                }
            }
        }
        let root_slots = roots.iter().map(|b| slot[&b.id]).collect();
        (out, root_slots)
    }

    /// Rebuilds the BDDs described by a node table from
    /// [`BddManager::export_nodes`], returning a handle per root slot.
    ///
    /// Every entry is re-interned through the unique table, so importing
    /// reconstructs hash-consing: importing the same table twice yields
    /// identical handles, and importing into a *fresh* manager carrying the
    /// same variable order (see [`BddManager::set_order`]) assigns the same
    /// node ids on every run.
    ///
    /// The whole table is validated before the first node is created, so a
    /// rejected import leaves the arena untouched.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::InvalidImport`] when the table is malformed
    /// (variable out of range, forward or self reference, level order
    /// violated, unreduced entry, root slot out of range), or any governed
    /// error ([`BddError::NodeLimit`] etc.) if a budget or fail plan is
    /// installed and fires during reconstruction.
    pub fn import_nodes(
        &self,
        nodes: &[ExportedNode],
        roots: &[u32],
    ) -> Result<Vec<Bdd>, BddError> {
        const TERMINAL: u32 = u32::MAX;
        {
            let inner = self.inner.borrow();
            let num_vars = inner.num_vars();
            let mut levels: Vec<u32> = Vec::with_capacity(nodes.len());
            for (i, n) in nodes.iter().enumerate() {
                let index = i as u32;
                if n.var >= num_vars {
                    return Err(BddError::InvalidImport {
                        index,
                        reason: "variable out of range",
                    });
                }
                let level = inner.level_of_var(n.var);
                for child in [n.low, n.high] {
                    if child as usize >= i + 2 {
                        return Err(BddError::InvalidImport {
                            index,
                            reason: "child slot is not an earlier entry",
                        });
                    }
                    let child_level = if child < 2 {
                        TERMINAL
                    } else {
                        levels[child as usize - 2]
                    };
                    if level >= child_level {
                        return Err(BddError::InvalidImport {
                            index,
                            reason: "child does not sit below its parent in the order",
                        });
                    }
                }
                if n.low == n.high {
                    return Err(BddError::InvalidImport {
                        index,
                        reason: "unreduced entry (equal children)",
                    });
                }
                levels.push(level);
            }
            for (i, &r) in roots.iter().enumerate() {
                if r as usize >= nodes.len() + 2 {
                    return Err(BddError::InvalidImport {
                        index: i as u32,
                        reason: "root slot out of range",
                    });
                }
            }
        }
        // Reconstruction runs as one governed operation: a fail plan or
        // budget can interrupt it exactly like any other kernel op, and the
        // recovery ladder may retry it wholesale (nodes from the failed
        // attempt carry no external references, so the ladder's GC reclaims
        // them before the retry re-interns from scratch).
        let mut ids: Vec<u32> = Vec::with_capacity(nodes.len() + 2);
        run_governed(&self.inner, |inner| {
            ids.clear();
            ids.push(0);
            ids.push(1);
            for n in nodes {
                let level = inner.level_of_var(n.var);
                let low = ids[n.low as usize];
                let high = ids[n.high as usize];
                let id = inner.mk(level, low, high)?;
                ids.push(id);
            }
            Ok(0)
        })?;
        Ok(roots.iter().map(|&r| self.wrap(ids[r as usize])).collect())
    }

    pub(crate) fn wrap(&self, id: u32) -> Bdd {
        self.inner.borrow_mut().inc_ref(id);
        Bdd {
            mgr: Rc::clone(&self.inner),
            id,
        }
    }
}

/// A handle to a BDD node, keeping the node (and everything it reaches)
/// alive until dropped.
///
/// Cloning a `Bdd` is cheap (a refcount bump). Equality compares the
/// canonical node identity, so it is constant time — the property the paper
/// relies on for relation comparison (§2.2.1).
pub struct Bdd {
    pub(crate) mgr: Rc<RefCell<Inner>>,
    pub(crate) id: u32,
}

impl Clone for Bdd {
    fn clone(&self) -> Bdd {
        self.mgr.borrow_mut().inc_ref(self.id);
        Bdd {
            mgr: Rc::clone(&self.mgr),
            id: self.id,
        }
    }
}

impl Drop for Bdd {
    fn drop(&mut self) {
        self.mgr.borrow_mut().dec_ref(self.id);
    }
}

impl PartialEq for Bdd {
    fn eq(&self, other: &Bdd) -> bool {
        Rc::ptr_eq(&self.mgr, &other.mgr) && self.id == other.id
    }
}

impl Eq for Bdd {}

impl std::hash::Hash for Bdd {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bdd")
            .field("id", &self.id)
            .field("nodes", &self.node_count())
            .finish()
    }
}

impl Bdd {
    fn check_same_mgr(&self, other: &Bdd) {
        assert!(
            Rc::ptr_eq(&self.mgr, &other.mgr),
            "BDD operands belong to different managers"
        );
    }

    fn try_binop(&self, other: &Bdd, op: BinOp) -> Result<Bdd, BddError> {
        self.check_same_mgr(other);
        let id = run_governed(&self.mgr, |inner| inner.apply(op, self.id, other.id))?;
        Ok(self.wrap(id))
    }

    pub(crate) fn wrap(&self, id: u32) -> Bdd {
        self.mgr.borrow_mut().inc_ref(id);
        Bdd {
            mgr: Rc::clone(&self.mgr),
            id,
        }
    }

    /// The manager this BDD belongs to.
    pub fn manager(&self) -> BddManager {
        BddManager {
            inner: Rc::clone(&self.mgr),
        }
    }

    /// Conjunction (set intersection).
    pub fn and(&self, other: &Bdd) -> Bdd {
        expect_within_budget("and", self.try_and(other))
    }

    /// Budget-aware conjunction; see [`Bdd::and`].
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] when an installed budget, deadline,
    /// cancellation token or fail plan interrupts the operation, after the
    /// recovery ladder (GC retry, then reorder retry) has been exhausted.
    pub fn try_and(&self, other: &Bdd) -> Result<Bdd, BddError> {
        self.try_binop(other, BinOp::And)
    }

    /// Disjunction (set union).
    pub fn or(&self, other: &Bdd) -> Bdd {
        expect_within_budget("or", self.try_or(other))
    }

    /// Budget-aware disjunction; see [`Bdd::or`] and [`Bdd::try_and`].
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion or injected faults.
    pub fn try_or(&self, other: &Bdd) -> Result<Bdd, BddError> {
        self.try_binop(other, BinOp::Or)
    }

    /// Difference `self & !other` (set difference).
    pub fn diff(&self, other: &Bdd) -> Bdd {
        expect_within_budget("diff", self.try_diff(other))
    }

    /// Budget-aware difference; see [`Bdd::diff`] and [`Bdd::try_and`].
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion or injected faults.
    pub fn try_diff(&self, other: &Bdd) -> Result<Bdd, BddError> {
        self.try_binop(other, BinOp::Diff)
    }

    /// Exclusive or (symmetric difference).
    pub fn xor(&self, other: &Bdd) -> Bdd {
        expect_within_budget("xor", self.try_xor(other))
    }

    /// Budget-aware exclusive or; see [`Bdd::xor`] and [`Bdd::try_and`].
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion or injected faults.
    pub fn try_xor(&self, other: &Bdd) -> Result<Bdd, BddError> {
        self.try_binop(other, BinOp::Xor)
    }

    /// Biimplication `self <-> other`.
    pub fn biimp(&self, other: &Bdd) -> Bdd {
        expect_within_budget("biimp", self.try_biimp(other))
    }

    /// Budget-aware biimplication; see [`Bdd::biimp`] and [`Bdd::try_and`].
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion or injected faults.
    pub fn try_biimp(&self, other: &Bdd) -> Result<Bdd, BddError> {
        self.try_binop(other, BinOp::Biimp)
    }

    /// Implication `self -> other`.
    pub fn implies(&self, other: &Bdd) -> Bdd {
        expect_within_budget("implies", self.try_implies(other))
    }

    /// Budget-aware implication; see [`Bdd::implies`] and [`Bdd::try_and`].
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion or injected faults.
    pub fn try_implies(&self, other: &Bdd) -> Result<Bdd, BddError> {
        self.try_not()?.try_or(other)
    }

    /// Negation (set complement).
    pub fn not(&self) -> Bdd {
        expect_within_budget("not", self.try_not())
    }

    /// Budget-aware negation; see [`Bdd::not`] and [`Bdd::try_and`].
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion or injected faults.
    pub fn try_not(&self) -> Result<Bdd, BddError> {
        let id = run_governed(&self.mgr, |inner| inner.not(self.id))?;
        Ok(self.wrap(id))
    }

    /// If-then-else `self ? g : h`.
    pub fn ite(&self, g: &Bdd, h: &Bdd) -> Bdd {
        expect_within_budget("ite", self.try_ite(g, h))
    }

    /// Budget-aware if-then-else; see [`Bdd::ite`] and [`Bdd::try_and`].
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion or injected faults.
    pub fn try_ite(&self, g: &Bdd, h: &Bdd) -> Result<Bdd, BddError> {
        self.check_same_mgr(g);
        self.check_same_mgr(h);
        let id = run_governed(&self.mgr, |inner| inner.ite(self.id, g.id, h.id))?;
        Ok(self.wrap(id))
    }

    /// Existential quantification over the variables of the positive cube
    /// `cube` (build one with [`BddManager::cube`]).
    pub fn exists(&self, cube: &Bdd) -> Bdd {
        expect_within_budget("exists", self.try_exists(cube))
    }

    /// Budget-aware existential quantification; see [`Bdd::exists`] and
    /// [`Bdd::try_and`].
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion or injected faults.
    pub fn try_exists(&self, cube: &Bdd) -> Result<Bdd, BddError> {
        self.check_same_mgr(cube);
        let id = run_governed(&self.mgr, |inner| inner.exists(self.id, cube.id))?;
        Ok(self.wrap(id))
    }

    /// Universal quantification over the variables of `cube`.
    pub fn forall(&self, cube: &Bdd) -> Bdd {
        expect_within_budget("forall", self.try_forall(cube))
    }

    /// Budget-aware universal quantification; see [`Bdd::forall`] and
    /// [`Bdd::try_and`].
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion or injected faults.
    pub fn try_forall(&self, cube: &Bdd) -> Result<Bdd, BddError> {
        self.check_same_mgr(cube);
        let id = run_governed(&self.mgr, |inner| inner.forall(self.id, cube.id))?;
        Ok(self.wrap(id))
    }

    /// Fused relational product `exists cube. (self & other)` — the
    /// primitive behind Jedd's composition operator.
    pub fn and_exists(&self, other: &Bdd, cube: &Bdd) -> Bdd {
        expect_within_budget("and_exists", self.try_and_exists(other, cube))
    }

    /// Budget-aware relational product; see [`Bdd::and_exists`] and
    /// [`Bdd::try_and`].
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion or injected faults.
    pub fn try_and_exists(&self, other: &Bdd, cube: &Bdd) -> Result<Bdd, BddError> {
        self.check_same_mgr(other);
        self.check_same_mgr(cube);
        let id = run_governed(&self.mgr, |inner| {
            inner.and_exists(self.id, other.id, cube.id)
        })?;
        Ok(self.wrap(id))
    }

    /// Set containment `self ⊆ other` (boolean implication), decided by a
    /// cached recursion that only ever returns terminals — no result BDD is
    /// materialised, so probing a frontier for emptiness allocates nothing.
    /// This is the kernel assist behind the semi-naive fixpoint engine's
    /// frontier checks.
    pub fn is_subset(&self, other: &Bdd) -> bool {
        expect_within_budget("is_subset", self.try_is_subset(other))
    }

    /// Budget-aware containment probe; see [`Bdd::is_subset`] and
    /// [`Bdd::try_and`].
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion or injected faults.
    pub fn try_is_subset(&self, other: &Bdd) -> Result<bool, BddError> {
        self.check_same_mgr(other);
        let id = run_governed(&self.mgr, |inner| {
            inner
                .subset(self.id, other.id)
                .map(|r| if r { NodeId::TRUE.0 } else { NodeId::FALSE.0 })
        })?;
        Ok(id == NodeId::TRUE.0)
    }

    /// `true` when `self \ other` is empty, without building the
    /// difference. Equivalent to [`Bdd::try_is_subset`]; named for the
    /// delta-fixpoint use site where the question is "did this rule derive
    /// anything new?".
    ///
    /// # Errors
    ///
    /// Returns a [`BddError`] on budget exhaustion or injected faults.
    pub fn try_diff_is_empty(&self, other: &Bdd) -> Result<bool, BddError> {
        self.try_is_subset(other)
    }

    /// Variable replacement (BuDDy `replace`, CUDD `SwapVariables`):
    /// rewrites this BDD under the given variable permutation.
    ///
    /// # Panics
    ///
    /// Panics if the permutation is not injective on the support of `self`
    /// or maps outside the variable range ([`Bdd::try_replace`] reports
    /// the same conditions as [`BddError::InvalidPermutation`] instead),
    /// or on budget exhaustion.
    pub fn replace(&self, perm: &Permutation) -> Bdd {
        match self.try_replace(perm) {
            Err(e @ BddError::InvalidPermutation { .. }) => panic!("replace: {e}"),
            r => expect_within_budget("replace", r),
        }
    }

    /// Budget-aware variable replacement; see [`Bdd::replace`] and
    /// [`Bdd::try_and`]. Never panics on a malformed permutation.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::InvalidPermutation`] if the permutation is not
    /// injective on the support of `self` or maps outside the variable
    /// range; other [`BddError`] variants on budget exhaustion or injected
    /// faults.
    pub fn try_replace(&self, perm: &Permutation) -> Result<Bdd, BddError> {
        let id = run_governed(&self.mgr, |inner| inner.replace(self.id, perm))?;
        Ok(self.wrap(id))
    }

    /// Reference implementation of [`Bdd::replace`]: rebuilds every node
    /// with a 3-operand `ite` under a per-call memo table, bypassing the
    /// shared operation cache. Kept as the correctness oracle for the
    /// property tests and the baseline the `replace_cost` bench compares
    /// the first-class replace recursion against.
    ///
    /// # Errors
    ///
    /// Same contract as [`Bdd::try_replace`].
    pub fn try_replace_rebuild(&self, perm: &Permutation) -> Result<Bdd, BddError> {
        let id = run_governed(&self.mgr, |inner| inner.replace_rebuild(self.id, perm))?;
        Ok(self.wrap(id))
    }

    /// Number of satisfying assignments over all manager variables.
    pub fn satcount(&self) -> f64 {
        self.mgr.borrow().satcount(self.id)
    }

    /// Number of satisfying assignments counting only the given variables
    /// (which must include the support).
    pub fn satcount_over(&self, vars: &[u32]) -> f64 {
        self.mgr.borrow().satcount_over(self.id, vars)
    }

    /// Number of decision nodes in this BDD (terminals excluded).
    pub fn node_count(&self) -> usize {
        self.mgr.borrow().node_count(self.id)
    }

    /// The canonical root node id inside this BDD's manager.
    ///
    /// Ids are arena indices, so they are only comparable between BDDs of
    /// the same manager — except that two single-threaded managers fed the
    /// identical operation sequence allocate identically, which is how the
    /// paged-vs-resident tests check that paging never perturbs structure.
    pub fn root_id(&self) -> u32 {
        self.id
    }

    /// Nodes per level — the "shape" plotted by the Jedd profiler (§4.3).
    pub fn shape(&self) -> Vec<usize> {
        self.mgr.borrow().shape(self.id)
    }

    /// The sorted set of variables this BDD depends on.
    pub fn support(&self) -> Vec<u32> {
        self.mgr.borrow().support(self.id)
    }

    /// `true` if this is the constant false/empty BDD (`0B` in Jedd).
    pub fn is_false(&self) -> bool {
        self.id == NodeId::FALSE.0
    }

    /// `true` if this is the constant true/full BDD (`1B` in Jedd).
    pub fn is_true(&self) -> bool {
        self.id == NodeId::TRUE.0
    }

    /// Enumerates satisfying assignments over exactly `vars` (sorted); see
    /// the relation iterators in `jedd-core` for the high-level version.
    /// The callback returns `false` to stop early.
    ///
    /// # Panics
    ///
    /// Panics if the support is not contained in `vars`.
    pub fn foreach_sat(&self, vars: &[u32], mut cb: impl FnMut(&[bool]) -> bool) {
        self.mgr.borrow().foreach_sat(self.id, vars, &mut cb);
    }

    /// Collects all satisfying assignments over `vars` as bit vectors.
    /// Intended for tests and small relations.
    pub fn sat_assignments(&self, vars: &[u32]) -> Vec<Vec<bool>> {
        let mut out = Vec::new();
        self.foreach_sat(vars, |a| {
            out.push(a.to_vec());
            true
        });
        out
    }

    /// The raw node id, for diagnostics and tests.
    pub fn raw_id(&self) -> NodeId {
        NodeId(self.id)
    }
}
