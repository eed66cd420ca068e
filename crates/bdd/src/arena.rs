//! The node arena: a flat vector in resident mode, a disk-backed buffer
//! pool ([`crate::pager::Pager`]) in paged mode.
//!
//! This is the paging seam: every node access in `table.rs` routes
//! through the accessors here, so `mk`, the apply caches and GC keep
//! operating on resident frames while cold blocks fault in
//! transparently. The two modes share node ids (`id == arena index`, so
//! `block == id / BLOCK_NODES`); a paged manager allocates
//! in exactly the order a resident one does, which is what makes the
//! paged-vs-resident differential rig able to demand *id*-identical
//! results, stronger than the tuple contract.
//!
//! Resident mode keeps the seed data layout (a plain `Vec<Node>`) and
//! costs one predictable branch per access. Paged mode holds the pager
//! in a `RefCell` so the `&self` read paths (`one_sat`, `satcount`,
//! enumeration, export, shape/support) can fault blocks in without any
//! signature changes. The kernel is single-threaded, so interior
//! mutability is all those paths need.
//!
//! Error discipline: fallible accessors (`try_*`) surface pager failures
//! as typed `BddError::Page` values and park the full
//! [`PageError`](crate::pager::PageError) for
//! `BddManager::take_page_error`. Infallible accessors panic on a fault
//! failure — they sit on API paths that have promised not to fail since
//! the seed — after parking the error, so diagnostics survive the
//! unwind.

use crate::budget::BddError;
use crate::node::Node;
use crate::pager::{PageError, PageStats, Pager, PagerFaults};
use std::cell::{RefCell, RefMut};
use std::ops::{Index, IndexMut};
use std::path::{Path, PathBuf};

pub(crate) struct Arena {
    /// Resident-mode storage. Empty (and unused) in paged mode.
    flat: Vec<Node>,
    /// Paged-mode storage. `None` in resident mode.
    paged: Option<RefCell<Pager>>,
    /// Shadow of the slot count, kept outside the cell so `len` never
    /// borrows it.
    len: usize,
}

fn page_panic(e: &BddError) -> ! {
    panic!("jedd-bdd pager failure on an infallible path: {e}");
}

impl Arena {
    pub(crate) fn with_capacity(cap: usize) -> Arena {
        Arena {
            flat: Vec::with_capacity(cap),
            paged: None,
            len: 0,
        }
    }

    /// Switches this arena to paged storage with a resident budget of
    /// `frames` (`0` = unbounded), moving the current nodes (the two
    /// terminals) into the pager.
    pub(crate) fn enable_paging(
        &mut self,
        frames: usize,
        dir: Option<&Path>,
    ) -> Result<(), PageError> {
        debug_assert!(self.paged.is_none(), "paging already enabled");
        let mut pager = Pager::new(frames, dir)?;
        for n in self.flat.drain(..) {
            pager.append(n)?;
        }
        self.paged = Some(RefCell::new(pager));
        Ok(())
    }

    pub(crate) fn is_paged(&self) -> bool {
        self.paged.is_some()
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Borrows the pager through a shared reference. No borrow outlives
    /// the accessor that takes it, so two can never overlap.
    fn pager(&self) -> RefMut<'_, Pager> {
        self.paged.as_ref().expect("arena is paged").borrow_mut()
    }

    fn pager_mut(&mut self) -> &mut Pager {
        self.paged.as_mut().expect("arena is paged").get_mut()
    }

    fn convert(pager: &mut Pager, e: PageError) -> BddError {
        let brief = BddError::Page {
            block: e.block(),
            kind: e.kind(),
        };
        pager.park_sticky(e);
        brief
    }

    /// Reads node `id` through a shared borrow, faulting its block in if
    /// cold. Panics on a pager failure (see module docs).
    #[inline]
    pub(crate) fn get(&self, id: usize) -> Node {
        match &self.paged {
            None => self.flat[id],
            Some(_) => {
                let mut pager = self.pager();
                match pager.node(id) {
                    Ok(n) => n,
                    Err(e) => {
                        let brief = Self::convert(&mut pager, e);
                        drop(pager);
                        page_panic(&brief);
                    }
                }
            }
        }
    }

    /// Reads node `id` through an exclusive borrow (no `RefCell` borrow
    /// in paged mode). Panics on a pager failure.
    #[inline]
    pub(crate) fn read(&mut self, id: usize) -> Node {
        match self.try_read(id) {
            Ok(n) => n,
            Err(e) => page_panic(&e),
        }
    }

    /// Fallible exclusive read: pager failures come back as typed
    /// [`BddError::Page`] errors.
    #[inline]
    pub(crate) fn try_read(&mut self, id: usize) -> Result<Node, BddError> {
        if self.paged.is_none() {
            return Ok(self.flat[id]);
        }
        let pager = self.pager_mut();
        pager.node(id).map_err(|e| Self::convert(pager, e))
    }

    /// Mutates node `id` in place. Panics on a pager failure.
    #[inline]
    pub(crate) fn update<R>(&mut self, id: usize, f: impl FnOnce(&mut Node) -> R) -> R {
        match self.try_update(id, f) {
            Ok(r) => r,
            Err(e) => page_panic(&e),
        }
    }

    /// Fallible in-place mutation of node `id`.
    #[inline]
    pub(crate) fn try_update<R>(
        &mut self,
        id: usize,
        f: impl FnOnce(&mut Node) -> R,
    ) -> Result<R, BddError> {
        if self.paged.is_none() {
            return Ok(f(&mut self.flat[id]));
        }
        let pager = self.pager_mut();
        pager
            .with_node_mut(id, f)
            .map_err(|e| Self::convert(pager, e))
    }

    /// Appends a node, returning its id. The fallible flavour `mk_raw`
    /// uses; in paged mode appending may evict to stay within budget.
    pub(crate) fn try_append(&mut self, n: Node) -> Result<u32, BddError> {
        if self.paged.is_none() {
            let id = self.flat.len() as u32;
            self.flat.push(n);
            self.len += 1;
            return Ok(id);
        }
        let pager = self.pager_mut();
        let id = pager.append(n).map_err(|e| Self::convert(pager, e))?;
        self.len += 1;
        Ok(id)
    }

    /// Resident-only append for manager construction, which runs before
    /// paging can be enabled.
    pub(crate) fn push_resident(&mut self, n: Node) -> u32 {
        assert!(self.paged.is_none(), "resident append on a paged arena");
        let id = self.flat.len() as u32;
        self.flat.push(n);
        self.len += 1;
        id
    }

    /// Walks slots `from..len` mutably, faulting blocks in sequentially —
    /// the GC / rehash bulk path. Panics on a pager failure.
    pub(crate) fn scan_mut(&mut self, from: usize, f: &mut dyn FnMut(usize, &mut Node)) {
        if self.paged.is_none() {
            for (i, n) in self.flat.iter_mut().enumerate().skip(from) {
                f(i, n);
            }
            return;
        }
        let pager = self.pager_mut();
        if let Err(e) = pager.scan_nodes(from, f) {
            let brief = Self::convert(pager, e);
            page_panic(&brief);
        }
    }

    /// Faults the blocks holding `ids` in, surfacing failures typed — the
    /// pre-fault seam at the top of the kernel recursions, a no-op branch
    /// in resident mode.
    #[inline]
    pub(crate) fn try_fault(&mut self, ids: &[u32]) -> Result<(), BddError> {
        if self.paged.is_none() {
            return Ok(());
        }
        for &id in ids {
            if id > 1 {
                self.try_read(id as usize)?;
            }
        }
        Ok(())
    }

    /// The `(block, kind)` summary of a parked pager error, if any.
    #[inline]
    pub(crate) fn sticky_brief(&mut self) -> Option<(u32, &'static str)> {
        match &mut self.paged {
            None => None,
            Some(_) => self.pager_mut().sticky_brief(),
        }
    }

    /// Takes the parked pager error (clearing it), if any.
    pub(crate) fn take_page_error(&self) -> Option<PageError> {
        self.paged.as_ref().and_then(|_| self.pager().take_sticky())
    }

    /// Installs a pager crash-injection plan. No-op in resident mode.
    pub(crate) fn set_pager_faults(&self, faults: PagerFaults) {
        if self.paged.is_some() {
            self.pager().set_faults(faults);
        }
    }

    /// Paging counters, when paged.
    pub(crate) fn page_stats(&self) -> Option<PageStats> {
        self.paged.as_ref().map(|_| self.pager().stats())
    }

    /// The backing page file, when paged.
    pub(crate) fn page_file(&self) -> Option<PathBuf> {
        self.paged
            .as_ref()
            .map(|_| self.pager().file_path().to_path_buf())
    }

    /// Iterates the resident storage (reorder-only; paged managers keep
    /// reordering degraded to collection, so this never runs paged).
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, Node> {
        debug_assert!(self.paged.is_none(), "slice iteration on a paged arena");
        self.flat.iter()
    }
}

/// Direct slot access for the resident-only reordering pass. Paged
/// managers never reach these: indexing an empty `flat` would panic, and
/// the mode guard in `reorder.rs` enforces the contract before any index
/// lands.
impl Index<usize> for Arena {
    type Output = Node;
    #[inline]
    fn index(&self, i: usize) -> &Node {
        &self.flat[i]
    }
}

impl IndexMut<usize> for Arena {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut Node {
        &mut self.flat[i]
    }
}
