//! The universe: domains, attributes, physical domains and the shared BDD
//! manager backing all relations of a program.

use crate::error::JeddError;
use crate::profile::{OpEvent, ProfileSink};
use jedd_bdd::{Bdd, BddError, BddManager, Budget, FailPlan};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Identifier of a registered [domain](Universe::add_domain).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct DomainId(pub(crate) u32);

/// Identifier of a registered [attribute](Universe::add_attribute).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AttrId(pub(crate) u32);

/// Identifier of a registered
/// [physical domain](Universe::add_physical_domain).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PhysDomId(pub(crate) u32);

// Registration ids are sequential registry indices. The snapshot layer
// (`jedd-store`) serializes them as plain integers and reconstructs them
// after replaying registrations in the same order, so each id type exposes
// the raw index both ways. Constructing an id for an index that was never
// registered is not checked here; the accessors taking it will panic.
macro_rules! id_index {
    ($ty:ident, $what:literal) => {
        impl $ty {
            #[doc = concat!("The raw registry index of this ", $what, " id.")]
            pub fn index(self) -> u32 {
                self.0
            }

            #[doc = concat!("Reconstructs a ", $what, " id from a raw registry index")]
            #[doc = "(snapshot restore only; the caller must know the index is registered)."]
            pub fn from_index(index: u32) -> $ty {
                $ty(index)
            }
        }
    };
}

id_index!(DomainId, "domain");
id_index!(AttrId, "attribute");
id_index!(PhysDomId, "physical-domain");

#[derive(Debug)]
struct DomainInfo {
    name: String,
    size: u64,
    /// Optional element labels; indices without a label display as `#i`.
    elements: Vec<String>,
}

#[derive(Debug)]
struct AttrInfo {
    name: String,
    domain: DomainId,
}

#[derive(Debug)]
struct PhysDomInfo {
    name: String,
    /// BDD levels, most significant bit first.
    bits: Vec<u32>,
    /// True for scratch domains allocated on demand by the dynamic API.
    anonymous: bool,
}

/// Counters for the implicit work the relational layer performs; the
/// `replace_cost` ablation bench reads these.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UniverseStats {
    /// Replace operations inserted automatically to align physical
    /// domains.
    pub auto_replaces: u64,
    /// Relational operations executed.
    pub relational_ops: u64,
    /// Joins and composes that cut their right operand to the left
    /// operand's keys first, because the compared attributes sat below
    /// the right operand's kept ones in the variable order.
    pub key_restrictions: u64,
}

/// The BDD kernel a universe runs its relational algebra on.
///
/// Both kernels compute the same relations; they differ only in node
/// representation. A relation's zero-suppressed size is a measurement,
/// not a backend: [`crate::Relation::zdd_node_count`] re-encodes the
/// tuples into a plain ZDD on either kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Plain reduced ordered BDDs (the default).
    Bdd,
    /// Chain-reduced BDDs (CBDD): runs of forced-false levels collapse
    /// into one node. Order-static (reordering degrades to collection).
    Cbdd,
}

impl Backend {
    /// True when the kernel runs with chain-reduced nodes.
    pub fn is_chained(self) -> bool {
        self == Backend::Cbdd
    }

    /// The lowercase name used in bench output and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Bdd => "bdd",
            Backend::Cbdd => "cbdd",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

struct UniverseInner {
    mgr: BddManager,
    backend: Backend,
    domains: Vec<DomainInfo>,
    attrs: Vec<AttrInfo>,
    physdoms: Vec<PhysDomInfo>,
    stats: UniverseStats,
    profiler: Option<Rc<dyn ProfileSink>>,
    /// Label attached to profile events; set by plan executors.
    site: String,
}

/// The shared context in which relations live.
///
/// A `Universe` owns the BDD manager and the registries of domains,
/// attributes and physical domains — the runtime counterpart of Jedd's
/// `jedd.Domain`, `jedd.Attribute` and `jedd.PhysicalDomain` interfaces
/// (paper §2.1). It is a cheap-to-clone shared handle.
///
/// # Examples
///
/// ```
/// use jedd_core::Universe;
/// let u = Universe::new();
/// let ty = u.add_domain("Type", 64);
/// let rectype = u.add_attribute("rectype", ty);
/// let t1 = u.add_physical_domain("T1", 6);
/// assert_eq!(u.domain_name(ty), "Type");
/// assert_eq!(u.attribute_name(rectype), "rectype");
/// assert_eq!(u.physdom_bits(t1).len(), 6);
/// ```
#[derive(Clone)]
pub struct Universe {
    inner: Rc<RefCell<UniverseInner>>,
}

/// Parses `JEDD_PAGE_CACHE`: unset, empty, or unparseable means "stay
/// fully resident"; a number is the paged resident-frame budget (`0` =
/// paged, unbounded).
fn page_cache_from_env() -> Option<usize> {
    match std::env::var("JEDD_PAGE_CACHE") {
        Ok(v) if !v.is_empty() => v.parse().ok(),
        _ => None,
    }
}

impl Default for Universe {
    fn default() -> Self {
        Universe::new()
    }
}

impl fmt::Debug for Universe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Universe")
            .field("domains", &inner.domains.len())
            .field("attributes", &inner.attrs.len())
            .field("physical_domains", &inner.physdoms.len())
            .finish()
    }
}

impl Universe {
    /// Creates an empty universe with a fresh BDD manager on the plain
    /// [`Backend::Bdd`] kernel.
    ///
    /// Setting `JEDD_PAGE_CACHE=N` switches the manager to the
    /// disk-backed pager with a resident budget of `N` frames (`0` means
    /// paged but unbounded); unset or empty keeps the fully-resident
    /// arena. `JEDD_PAGE_DIR` picks the page-file directory. Only this
    /// default constructor reads the variables. The chain-reduced kernel
    /// is reached through the explicit-backend constructors.
    ///
    /// # Panics
    ///
    /// Panics when `JEDD_PAGE_CACHE` asks for paging and the page file
    /// cannot be created; use [`Universe::new_paged_with_backend`] to
    /// handle that as an error.
    pub fn new() -> Universe {
        match page_cache_from_env() {
            Some(frames) => Universe::new_paged(frames),
            None => Universe::new_with_backend(Backend::Bdd),
        }
    }

    /// Creates an empty, fully-resident universe on the given kernel.
    pub fn new_with_backend(backend: Backend) -> Universe {
        let mgr = if backend.is_chained() {
            BddManager::new_chained(0)
        } else {
            BddManager::new(0)
        };
        Universe::with_manager(backend, mgr)
    }

    /// Creates an empty universe whose node arena pages to disk under a
    /// resident budget of `frames` buffer-pool frames (`0` = paged but
    /// unbounded), on the default [`Backend::Bdd`].
    ///
    /// Paged universes produce tuple-identical relations to resident ones
    /// at any budget; they trade kernel speed for the ability to run
    /// analyses whose live node count exceeds memory.
    ///
    /// # Panics
    ///
    /// Panics when the page file cannot be created; use
    /// [`Universe::new_paged_with_backend`] to handle that as an error.
    pub fn new_paged(frames: usize) -> Universe {
        match Universe::new_paged_with_backend(Backend::Bdd, frames) {
            Ok(u) => u,
            Err(e) => panic!("failed to create the page file for a paged universe: {e}"),
        }
    }

    /// Creates an empty *paged* universe on an explicit kernel.
    ///
    /// # Errors
    ///
    /// Returns [`JeddError::ResourceExhausted`] with a
    /// [`BddError::Page`] cause when the page directory or file cannot be
    /// created.
    pub fn new_paged_with_backend(backend: Backend, frames: usize) -> Result<Universe, JeddError> {
        let mgr =
            BddManager::try_new_paged_full(0, frames, backend.is_chained()).map_err(|cause| {
                JeddError::ResourceExhausted {
                    op: "new_paged",
                    cause,
                    stats: Box::default(),
                }
            })?;
        Ok(Universe::with_manager(backend, mgr))
    }

    fn with_manager(backend: Backend, mgr: BddManager) -> Universe {
        Universe {
            inner: Rc::new(RefCell::new(UniverseInner {
                mgr,
                backend,
                domains: Vec::new(),
                attrs: Vec::new(),
                physdoms: Vec::new(),
                stats: UniverseStats::default(),
                profiler: None,
                site: String::new(),
            })),
        }
    }

    /// Whether this universe's node arena pages to disk.
    pub fn is_paged(&self) -> bool {
        self.bdd_manager().is_paged()
    }

    /// The decision-diagram backend this universe was created with.
    pub fn backend(&self) -> Backend {
        self.inner.borrow().backend
    }

    /// The underlying BDD manager.
    pub fn bdd_manager(&self) -> BddManager {
        self.inner.borrow().mgr.clone()
    }

    /// Installs a resource [`Budget`] on the underlying BDD manager.
    /// Relational operations that exhaust it — after the manager's GC and
    /// reorder recovery ladder — return
    /// [`JeddError::ResourceExhausted`].
    pub fn set_budget(&self, budget: Budget) {
        self.bdd_manager().set_budget(budget);
    }

    /// The currently installed resource budget.
    pub fn budget(&self) -> Budget {
        self.bdd_manager().budget()
    }

    /// Installs (or clears) a deterministic fault-injection plan on the
    /// underlying BDD manager. Testing aid; see [`FailPlan`].
    pub fn set_fail_plan(&self, plan: Option<FailPlan>) {
        self.bdd_manager().set_fail_plan(plan);
    }

    /// Registers a domain of `size` objects (object indices `0..size`).
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn add_domain(&self, name: &str, size: u64) -> DomainId {
        assert!(size > 0, "domain {name} must contain at least one object");
        let mut inner = self.inner.borrow_mut();
        let id = DomainId(inner.domains.len() as u32);
        inner.domains.push(DomainInfo {
            name: name.to_string(),
            size,
            elements: Vec::new(),
        });
        id
    }

    /// Registers a domain whose objects carry labels; the size is the
    /// number of labels.
    ///
    /// # Panics
    ///
    /// Panics if `elements` is empty.
    pub fn add_domain_with_elements(&self, name: &str, elements: &[&str]) -> DomainId {
        assert!(!elements.is_empty(), "domain {name} must not be empty");
        let mut inner = self.inner.borrow_mut();
        let id = DomainId(inner.domains.len() as u32);
        inner.domains.push(DomainInfo {
            name: name.to_string(),
            size: elements.len() as u64,
            elements: elements.iter().map(|s| s.to_string()).collect(),
        });
        id
    }

    /// Registers an attribute (a named use of a domain).
    pub fn add_attribute(&self, name: &str, domain: DomainId) -> AttrId {
        let mut inner = self.inner.borrow_mut();
        let id = AttrId(inner.attrs.len() as u32);
        inner.attrs.push(AttrInfo {
            name: name.to_string(),
            domain,
        });
        id
    }

    /// Registers a physical domain of `bits` BDD variables, allocated as a
    /// contiguous block at the bottom of the current variable order.
    pub fn add_physical_domain(&self, name: &str, bits: usize) -> PhysDomId {
        let mut inner = self.inner.borrow_mut();
        let range = inner.mgr.add_vars(bits);
        let id = PhysDomId(inner.physdoms.len() as u32);
        inner.physdoms.push(PhysDomInfo {
            name: name.to_string(),
            bits: range.collect(),
            anonymous: false,
        });
        id
    }

    /// Registers several physical domains with their bits *interleaved*
    /// (bit i of every domain is adjacent in the variable order). This is
    /// the ordering BuDDy's `fdd_extdomain` + interleaving gives, and is
    /// usually dramatically better for equality-heavy relations; the
    /// `var_order` bench quantifies the difference.
    ///
    /// All domains in the group receive `bits` variables.
    pub fn add_physical_domains_interleaved(&self, names: &[&str], bits: usize) -> Vec<PhysDomId> {
        let mut inner = self.inner.borrow_mut();
        let range = inner.mgr.add_vars(bits * names.len());
        let base = range.start;
        let n = names.len() as u32;
        let mut out = Vec::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            let id = PhysDomId(inner.physdoms.len() as u32);
            let bit_levels: Vec<u32> = (0..bits as u32).map(|b| base + b * n + i as u32).collect();
            inner.physdoms.push(PhysDomInfo {
                name: name.to_string(),
                bits: bit_levels,
                anonymous: false,
            });
            out.push(id);
        }
        out
    }

    /// Finds or creates an anonymous scratch physical domain with at least
    /// `bits` bits that is not in `in_use`. The dynamic relational API
    /// falls back to these when an operation must move an attribute out of
    /// the way and no declared domain keeps the level order; the jeddc
    /// path instead computes a global assignment and never needs them.
    pub fn scratch_physdom(&self, bits: usize, in_use: &[PhysDomId]) -> PhysDomId {
        {
            let inner = self.inner.borrow();
            for (i, pd) in inner.physdoms.iter().enumerate() {
                let id = PhysDomId(i as u32);
                if pd.anonymous && pd.bits.len() >= bits && !in_use.contains(&id) {
                    return id;
                }
            }
        }
        let mut inner = self.inner.borrow_mut();
        let range = inner.mgr.add_vars(bits);
        let id = PhysDomId(inner.physdoms.len() as u32);
        let name = format!("_S{}", id.0);
        inner.physdoms.push(PhysDomInfo {
            name,
            bits: range.collect(),
            anonymous: true,
        });
        id
    }

    /// Picks the physical domain an operand's attribute moves to when its
    /// current domain `from` is taken: an existing domain the move keeps
    /// order-preserving when there is one, otherwise a scratch domain
    /// from [`Universe::scratch_physdom`].
    ///
    /// `placed` gives, for every other physical domain the operand's
    /// support lives in, where it sits before and after the operation
    /// (`(p, p)` for one that stays). A candidate qualifies when it has
    /// `from`'s width, is neither `excluded` nor a `placed` target, and,
    /// at the manager's current levels, each of its bits falls in the same
    /// gap between the placed bits as the `from` bit it replaces, in the
    /// same relative order. The replace is then an order-preserving
    /// permutation, which the kernel rebuilds with one `mk` per node
    /// instead of an `ite`. Reading the current levels keeps the choice
    /// right after sifting and under an order installed by snapshot restore.
    pub(crate) fn relocation_physdom(
        &self,
        from: PhysDomId,
        placed: &[(PhysDomId, PhysDomId)],
        excluded: &[PhysDomId],
    ) -> PhysDomId {
        let found = {
            let inner = self.inner.borrow();
            let level = |v: u32| inner.mgr.level_of_var(v);
            let bits_of = |p: PhysDomId| &inner.physdoms[p.0 as usize].bits;
            // (level before, level after) of every placed bit, pairing
            // the low bits the way `apply_moves` does.
            let mut fixed: Vec<(u32, u32)> = Vec::new();
            for &(a, b) in placed {
                let (fa, fb) = (bits_of(a), bits_of(b));
                let n = fa.len().min(fb.len());
                for (&x, &y) in fa[fa.len() - n..].iter().zip(&fb[fb.len() - n..]) {
                    fixed.push((level(x), level(y)));
                }
            }
            let from_bits = bits_of(from);
            inner.physdoms.iter().enumerate().find_map(|(i, pd)| {
                let id = PhysDomId(i as u32);
                if id == from
                    || pd.bits.len() != from_bits.len()
                    || excluded.contains(&id)
                    || placed.iter().any(|&(_, b)| b == id)
                {
                    return None;
                }
                let moved: Vec<(u32, u32)> = from_bits
                    .iter()
                    .zip(&pd.bits)
                    .map(|(&x, &y)| (level(x), level(y)))
                    .collect();
                let keeps_order = moved.iter().enumerate().all(|(j, &(old, new))| {
                    moved[j + 1..]
                        .iter()
                        .chain(&fixed)
                        .all(|&(o, n)| (old < o) == (new < n))
                });
                keeps_order.then_some(id)
            })
        };
        found.unwrap_or_else(|| {
            let width = self.inner.borrow().physdoms[from.0 as usize].bits.len();
            let mut in_use = excluded.to_vec();
            in_use.extend(placed.iter().map(|&(_, b)| b));
            self.scratch_physdom(width, &in_use)
        })
    }

    /// Re-registers a physical domain from snapshot metadata: unlike
    /// [`Universe::add_physical_domain`] it does not allocate variables
    /// but adopts the recorded `bits` (variable indices, MSB first), which
    /// must already exist in the manager. Restore calls this after
    /// recreating the full variable block, replaying physical domains in
    /// registration order so ids come out identical.
    ///
    /// # Errors
    ///
    /// Returns [`JeddError::InvalidRestore`] if a bit index is outside the
    /// manager's variable range.
    pub fn restore_physical_domain(
        &self,
        name: &str,
        bits: &[u32],
        anonymous: bool,
    ) -> Result<PhysDomId, JeddError> {
        let mut inner = self.inner.borrow_mut();
        let num_vars = inner.mgr.num_vars() as u32;
        if let Some(&bad) = bits.iter().find(|&&b| b >= num_vars) {
            return Err(JeddError::InvalidRestore {
                detail: format!(
                    "physical domain {name} references variable {bad}, but only \
                     {num_vars} variables exist"
                ),
            });
        }
        let id = PhysDomId(inner.physdoms.len() as u32);
        inner.physdoms.push(PhysDomInfo {
            name: name.to_string(),
            bits: bits.to_vec(),
            anonymous,
        });
        Ok(id)
    }

    /// Overwrites the implicit-work counters; snapshot restore uses this
    /// to carry [`Universe::stats`] across a crash/resume boundary so
    /// profiling totals describe the whole logical run.
    pub fn restore_stats(&self, stats: UniverseStats) {
        self.inner.borrow_mut().stats = stats;
    }

    /// Number of registered domains.
    pub fn num_domains(&self) -> usize {
        self.inner.borrow().domains.len()
    }

    /// Number of registered attributes.
    pub fn num_attributes(&self) -> usize {
        self.inner.borrow().attrs.len()
    }

    /// The element labels of a domain (empty if the domain was registered
    /// by size only).
    pub fn domain_elements(&self, d: DomainId) -> Vec<String> {
        self.inner.borrow().domains[d.0 as usize].elements.clone()
    }

    /// Whether a physical domain is an anonymous scratch domain (see
    /// [`Universe::scratch_physdom`]).
    pub fn physdom_is_anonymous(&self, p: PhysDomId) -> bool {
        self.inner.borrow().physdoms[p.0 as usize].anonymous
    }

    /// Looks up an attribute id by name (first registration wins).
    pub fn find_attribute(&self, name: &str) -> Option<AttrId> {
        let inner = self.inner.borrow();
        inner
            .attrs
            .iter()
            .position(|a| a.name == name)
            .map(|i| AttrId(i as u32))
    }

    /// Looks up a physical-domain id by name (first registration wins).
    pub fn find_physdom(&self, name: &str) -> Option<PhysDomId> {
        let inner = self.inner.borrow();
        inner
            .physdoms
            .iter()
            .position(|p| p.name == name)
            .map(|i| PhysDomId(i as u32))
    }

    /// Looks up a domain id by name (first registration wins).
    pub fn find_domain(&self, name: &str) -> Option<DomainId> {
        let inner = self.inner.borrow();
        inner
            .domains
            .iter()
            .position(|d| d.name == name)
            .map(|i| DomainId(i as u32))
    }

    /// The name of a domain.
    pub fn domain_name(&self, d: DomainId) -> String {
        self.inner.borrow().domains[d.0 as usize].name.clone()
    }

    /// The number of objects in a domain.
    pub fn domain_size(&self, d: DomainId) -> u64 {
        self.inner.borrow().domains[d.0 as usize].size
    }

    /// The label of object `index` of domain `d` (`#index` if unlabelled).
    pub fn element_name(&self, d: DomainId, index: u64) -> String {
        let inner = self.inner.borrow();
        let info = &inner.domains[d.0 as usize];
        info.elements
            .get(index as usize)
            .cloned()
            .unwrap_or_else(|| format!("#{index}"))
    }

    /// Looks up an element index by label.
    pub fn element_index(&self, d: DomainId, label: &str) -> Option<u64> {
        let inner = self.inner.borrow();
        inner.domains[d.0 as usize]
            .elements
            .iter()
            .position(|e| e == label)
            .map(|i| i as u64)
    }

    /// The name of an attribute.
    pub fn attribute_name(&self, a: AttrId) -> String {
        self.inner.borrow().attrs[a.0 as usize].name.clone()
    }

    /// The domain of an attribute.
    pub fn attribute_domain(&self, a: AttrId) -> DomainId {
        self.inner.borrow().attrs[a.0 as usize].domain
    }

    /// The name of a physical domain.
    pub fn physdom_name(&self, p: PhysDomId) -> String {
        self.inner.borrow().physdoms[p.0 as usize].name.clone()
    }

    /// The BDD levels of a physical domain, most significant bit first.
    pub fn physdom_bits(&self, p: PhysDomId) -> Vec<u32> {
        self.inner.borrow().physdoms[p.0 as usize].bits.clone()
    }

    /// Number of registered physical domains.
    pub fn num_physdoms(&self) -> usize {
        self.inner.borrow().physdoms.len()
    }

    /// Checks that attribute `a`'s domain fits in physical domain `p`.
    pub fn check_fits(&self, a: AttrId, p: PhysDomId) -> Result<(), JeddError> {
        let inner = self.inner.borrow();
        let attr = &inner.attrs[a.0 as usize];
        let dom = &inner.domains[attr.domain.0 as usize];
        let bits = inner.physdoms[p.0 as usize].bits.len();
        let capacity = if bits >= 64 { u64::MAX } else { 1u64 << bits };
        if dom.size > capacity {
            return Err(JeddError::PhysicalDomainTooSmall {
                attribute: attr.name.clone(),
                physical: inner.physdoms[p.0 as usize].name.clone(),
                bits,
                domain_size: dom.size,
            });
        }
        Ok(())
    }

    /// The number of bits required to encode a domain.
    pub fn domain_bits(&self, d: DomainId) -> usize {
        let size = self.domain_size(d);
        (64 - (size - 1).leading_zeros() as usize).max(1)
    }

    /// Returns the BDD restricting physical domain `p` to the valid codes
    /// of domain `d` (`code < size`).
    pub fn valid_codes(&self, d: DomainId, p: PhysDomId) -> Bdd {
        let size = self.domain_size(d);
        let bits = self.physdom_bits(p);
        self.bdd_manager().less_than(&bits, size)
    }

    /// Budget-respecting form of [`Universe::valid_codes`].
    pub(crate) fn try_valid_codes(&self, d: DomainId, p: PhysDomId) -> Result<Bdd, BddError> {
        let size = self.domain_size(d);
        let bits = self.physdom_bits(p);
        self.bdd_manager().try_less_than(&bits, size)
    }

    /// Wraps a kernel-level budget failure in the relational-layer error,
    /// capturing the kernel counters at the point of failure.
    pub(crate) fn resource_exhausted(&self, op: &'static str, cause: BddError) -> JeddError {
        JeddError::ResourceExhausted {
            op,
            cause,
            stats: Box::new(self.bdd_manager().kernel_stats()),
        }
    }

    /// Runs the BDD kernel's dynamic variable reordering (Rudell sifting)
    /// and returns `(nodes_before, nodes_after)`. Relations remain valid:
    /// physical domains identify *variables*, which keep their identity
    /// across reordering; only the level positions change.
    ///
    /// This is the automated counterpart of the manual ordering tuning the
    /// paper's profiler supports (§4.3).
    pub fn reorder_sift(&self) -> (usize, usize) {
        self.bdd_manager().reorder_sift()
    }

    /// Statistics about implicit relational work.
    pub fn stats(&self) -> UniverseStats {
        self.inner.borrow().stats
    }

    pub(crate) fn count_auto_replace(&self) {
        self.inner.borrow_mut().stats.auto_replaces += 1;
    }

    pub(crate) fn count_key_restriction(&self) {
        self.inner.borrow_mut().stats.key_restrictions += 1;
    }

    pub(crate) fn count_op(&self) {
        self.inner.borrow_mut().stats.relational_ops += 1;
    }

    /// Installs a profiler sink receiving one event per relational
    /// operation (see `jedd-runtime` for the HTML profiler).
    pub fn set_profiler(&self, sink: Option<Rc<dyn ProfileSink>>) {
        self.inner.borrow_mut().profiler = sink;
    }

    /// Sets the source-site label attached to subsequent profile events.
    pub fn set_site(&self, site: &str) {
        self.inner.borrow_mut().site = site.to_string();
    }

    /// Sends an event to the installed profiler sink, if any. Drivers use
    /// this to record out-of-band events (such as graceful-degradation
    /// fallbacks) alongside the per-operation events the relational layer
    /// emits.
    pub fn profile(&self, event: OpEvent) {
        let sink = {
            let inner = self.inner.borrow();
            inner.profiler.clone()
        };
        if let Some(s) = sink {
            s.record(&event);
        }
    }

    pub(crate) fn current_site(&self) -> String {
        self.inner.borrow().site.clone()
    }

    pub(crate) fn profiler_enabled(&self) -> bool {
        self.inner.borrow().profiler.is_some()
    }

    pub(crate) fn profiler_wants_shapes(&self) -> bool {
        self.inner
            .borrow()
            .profiler
            .as_ref()
            .is_some_and(|p| p.wants_shapes())
    }

    /// Identity of the shared state; relations check this before
    /// combining.
    pub(crate) fn same_universe(&self, other: &Universe) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_roundtrip() {
        let u = Universe::new();
        let d = u.add_domain_with_elements("Type", &["A", "B", "C"]);
        assert_eq!(u.domain_size(d), 3);
        assert_eq!(u.element_name(d, 1), "B");
        assert_eq!(u.element_index(d, "C"), Some(2));
        assert_eq!(u.element_index(d, "Z"), None);
        let a = u.add_attribute("rectype", d);
        assert_eq!(u.attribute_name(a), "rectype");
        assert_eq!(u.attribute_domain(a), d);
    }

    #[test]
    fn physdoms_allocate_levels() {
        let u = Universe::new();
        let p1 = u.add_physical_domain("T1", 3);
        let p2 = u.add_physical_domain("T2", 3);
        assert_eq!(u.physdom_bits(p1), vec![0, 1, 2]);
        assert_eq!(u.physdom_bits(p2), vec![3, 4, 5]);
        assert_eq!(u.bdd_manager().num_vars(), 6);
    }

    #[test]
    fn interleaved_physdoms() {
        let u = Universe::new();
        let ids = u.add_physical_domains_interleaved(&["A", "B"], 3);
        assert_eq!(u.physdom_bits(ids[0]), vec![0, 2, 4]);
        assert_eq!(u.physdom_bits(ids[1]), vec![1, 3, 5]);
    }

    #[test]
    fn scratch_physdoms_are_reused() {
        let u = Universe::new();
        let s1 = u.scratch_physdom(4, &[]);
        let s2 = u.scratch_physdom(4, &[s1]);
        assert_ne!(s1, s2);
        let s3 = u.scratch_physdom(3, &[]);
        assert_eq!(s3, s1, "first free scratch domain should be reused");
    }

    #[test]
    fn domain_bits_and_fit() {
        let u = Universe::new();
        let d = u.add_domain("D", 5);
        assert_eq!(u.domain_bits(d), 3);
        let d1 = u.add_domain("One", 1);
        assert_eq!(u.domain_bits(d1), 1);
        let a = u.add_attribute("a", d);
        let small = u.add_physical_domain("S", 2);
        let big = u.add_physical_domain("B", 3);
        assert!(u.check_fits(a, small).is_err());
        assert!(u.check_fits(a, big).is_ok());
    }

    #[test]
    fn valid_codes_counts() {
        let u = Universe::new();
        let d = u.add_domain("D", 5);
        let p = u.add_physical_domain("P", 3);
        let v = u.valid_codes(d, p);
        assert_eq!(v.satcount_over(&u.physdom_bits(p)), 5.0);
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn empty_domain_rejected() {
        let u = Universe::new();
        let _ = u.add_domain("Empty", 0);
    }
}
