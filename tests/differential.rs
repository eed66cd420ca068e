//! The mode matrix: random relational programs run in every kernel mode
//! the public API offers, and after every step the production
//! [`Relation`] must agree tuple-for-tuple with two independent
//! witnesses — a `BTreeSet` oracle and a ZDD family driven through
//! `ZddManager`'s algebra (plain or chain-reduced, matching the kernel).
//!
//! A [`Cell`] is one point of kernel {plain, chained} × storage
//! {resident, paged at 2 frames, paged at 16, paged unbounded} × budget
//! {none, tight node limit with the GC → reorder ladder} × churn {off,
//! on}: 32 cells. Each case builds a fresh universe (one domain of 6
//! objects encoded in 3 bits, five attributes over it) and applies a
//! random sequence of union / intersect / minus / project / rename /
//! join / compose steps to a pool of relations. Because the domain size
//! (6) is not a power of two, the invalid-code space of the binary
//! encoding is exercised too.
//!
//! One harness, `mode_matrix`, runs the cells; the five
//! `differential_fuzz_*` tests each run the cells `owner` gives them, so
//! together they cover the whole matrix once. Every failure names its
//! cell and seed; `run_cell(cell, seed)` replays it, so a regression test
//! is one line. `cases` gives each cell its seed count (256 by default
//! for the resident cells without budget or churn); set `JEDD_FUZZ_CASES`
//! to scale them all.
//!
//! The analysis row runs the Table-2 analyses on `Benchmark::Tiny` on
//! each kernel, resident and paged, against the plain resident run and
//! the explicit-set points-to baseline.

use jedd::analyses::baseline_sets;
use jedd::analyses::facts::Facts;
use jedd::analyses::pointsto::{self, CallGraphMode};
use jedd::analyses::synth::Benchmark;
use jedd::analyses::{callgraph, hierarchy, sideeffect};
use jedd::bdd::pager::{BLOCK_BYTES, BLOCK_NODES, HEADER_BYTES};
use jedd::bdd::rng::XorShift64Star;
use jedd::bdd::{ZddId, ZddManager};
use jedd::core::{AttrId, Backend, BddError, Budget, JeddError, PhysDomId, Relation, Universe};
use std::cell::RefCell;
use std::collections::BTreeSet;

const NATTRS: usize = 5;
const DOM: u64 = 6;
const BITS: usize = 3;

/// One point of the mode matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Cell {
    /// Chain-reduced kernel (CBDD relations against a CZDD family).
    chained: bool,
    /// `None` keeps the arena resident; `Some(frames)` pages it to disk
    /// with that resident-frame budget (`0` = paged but unbounded).
    frames: Option<usize>,
    /// Each relational operation runs under a node limit near the live
    /// count, so some trip `ResourceExhausted` after the manager's
    /// GC → reorder recovery ladder.
    budget: bool,
    /// A GC before every step and a sifting reorder every third step.
    churn: bool,
}

/// All 32 cells.
fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for chained in [false, true] {
        for frames in [None, Some(2), Some(16), Some(0)] {
            for (budget, churn) in [(false, false), (false, true), (true, false), (true, true)] {
                out.push(Cell { chained, frames, budget, churn });
            }
        }
    }
    out
}

/// What cases did: budget trips and completions, and page faults; the
/// `load_*` fields count the `from_tuples` calls that built base relations.
#[derive(Clone, Copy, Default)]
struct Tally {
    trips: u64,
    done: u64,
    faults: u64,
    load_trips: u64,
    load_faults: u64,
}

impl Tally {
    fn add(&mut self, t: Tally) {
        self.trips += t.trips;
        self.done += t.done;
        self.faults += t.faults;
        self.load_trips += t.load_trips;
        self.load_faults += t.load_faults;
    }
}

/// One shared evaluation context per case.
struct World {
    u: Universe,
    attrs: Vec<AttrId>,
    phys: Vec<PhysDomId>,
    z: ZddManager,
    /// Budget cells: draws each operation's node limit.
    limits: Option<RefCell<XorShift64Star>>,
    tally: RefCell<Tally>,
    /// Page faults of the warm-up, which the case's tally leaves out.
    warm_faults: u64,
}

impl World {
    /// The relation universe runs on the cell's kernel and storage; the
    /// ZDD family (plain or chain-reduced to match) and the oracle stay
    /// resident, so they cross-check a paged kernel from outside it.
    fn new(cell: Cell, seed: u64) -> World {
        let backend = if cell.chained { Backend::Cbdd } else { Backend::Bdd };
        let u = match cell.frames {
            Some(frames) => Universe::new_paged_with_backend(backend, frames).expect("page file"),
            None => Universe::new_with_backend(backend),
        };
        let d = u.add_domain("obj", DOM);
        let attrs: Vec<AttrId> = (0..NATTRS)
            .map(|i| u.add_attribute(&format!("a{i}"), d))
            .collect();
        let phys: Vec<PhysDomId> = (0..NATTRS)
            .map(|i| u.add_physical_domain(&format!("p{i}"), BITS))
            .collect();
        let mut warm_faults = 0;
        if let Some(frames) = cell.frames {
            // Grow the arena four blocks past the frame budget (an
            // unbounded pager as far as a 16-frame one) with throwaway
            // cubes and leave them uncollected: the pager has evicted
            // blocks before the case starts, and the case's unique-table
            // lookups walk chains through them until a collection (churn,
            // or a budget cell's recovery ladder) frees the slots for
            // reuse. Only the case's own faults count towards its tally.
            let mgr = u.bdd_manager();
            let bits: Vec<u32> = (0..(NATTRS * BITS) as u32).collect();
            let slots = (if frames == 0 { 16 } else { frames } + 4) * BLOCK_NODES;
            let mut warm_rng = XorShift64Star::new(0xfeed);
            let mut cubes = Vec::new();
            while mgr.live_nodes() < slots {
                cubes.push(mgr.encode_value(&bits, warm_rng.gen_range(0..1 << 15)));
            }
            drop(cubes);
            warm_faults = mgr.kernel_stats().page_faults;
        }
        let z = if cell.chained {
            ZddManager::new_chained(NATTRS * BITS)
        } else {
            ZddManager::new(NATTRS * BITS)
        };
        let limits = cell.budget.then(|| RefCell::new(XorShift64Star::new(seed ^ 0x00b0_d6e7)));
        World { u, attrs, phys, z, limits, tally: RefCell::default(), warm_faults }
    }

    /// Builds a base relation through `from_tuples`, as the analyses load
    /// their facts, and counts the page faults it takes. In a budget cell
    /// the load first runs under a tight node limit, where it may only
    /// trip with a `ResourceExhausted` that names `from_tuples`; a tripped
    /// load is repeated without the limit, so the case goes on.
    fn load(&self, schema: &[(AttrId, PhysDomId)], tuples: &[Vec<u64>]) -> Relation {
        let mgr = self.u.bdd_manager();
        let faults = mgr.kernel_stats().page_faults;
        let mut loaded = None;
        if let Some(rng) = &self.limits {
            let live = mgr.live_nodes();
            let limit = live / 2 + rng.borrow_mut().gen_index(0..live / 2 + 48);
            self.u
                .set_budget(Budget::unlimited().with_max_live_nodes(limit));
            let result = Relation::from_tuples(&self.u, schema, tuples);
            self.u.set_budget(Budget::unlimited());
            match result {
                Ok(rel) => loaded = Some(rel),
                Err(JeddError::ResourceExhausted {
                    op: "from_tuples",
                    cause: BddError::NodeLimit { .. },
                    ..
                }) => self.tally.borrow_mut().load_trips += 1,
                Err(e) => panic!("budgeted from_tuples failed with a non-budget error: {e}"),
            }
        }
        let rel = loaded.unwrap_or_else(|| {
            Relation::from_tuples(&self.u, schema, tuples).expect("valid base relation")
        });
        self.tally.borrow_mut().load_faults += mgr.kernel_stats().page_faults - faults;
        rel
    }

    /// Runs the relational side of one step. In a budget cell the
    /// manager carries a tight node limit for the duration of `op`;
    /// `None` means the operation tripped it even after the recovery
    /// ladder. Any other error fails the case.
    fn governed(&self, op: impl FnOnce() -> Result<Relation, JeddError>) -> Option<Relation> {
        let Some(rng) = &self.limits else {
            return Some(op().expect("unbudgeted operation"));
        };
        // The arena's live count includes garbage only the ladder's GC
        // reclaims, so the limit is drawn from half of it up to a little
        // above it: some operations fit outright, some only after the
        // ladder, and some trip.
        let live = self.u.bdd_manager().live_nodes();
        let limit = live / 2 + rng.borrow_mut().gen_index(0..live / 2 + 48);
        self.u.set_budget(Budget::unlimited().with_max_live_nodes(limit));
        let result = op();
        self.u.set_budget(Budget::unlimited());
        let mut tally = self.tally.borrow_mut();
        match result {
            Ok(rel) => {
                tally.done += 1;
                Some(rel)
            }
            Err(JeddError::ResourceExhausted { cause: BddError::NodeLimit { .. }, .. }) => {
                tally.trips += 1;
                None
            }
            Err(e) => panic!("budgeted operation failed with a non-budget error: {e}"),
        }
    }
}

/// Attribute `i` owns ZDD variables `3i..3i+2`, most significant first —
/// mirroring the bit order of `ZddManager::encode_tuple`.
fn zvar(attr: usize, bit: usize) -> u32 {
    (attr * BITS + bit) as u32
}

fn bit_set(value: u64, bit: usize) -> bool {
    (value >> (BITS - 1 - bit)) & 1 == 1
}

/// The ZDD set encoding one tuple over the (sorted) attribute indices.
fn row_vars(attrs: &[usize], row: &[u64]) -> Vec<u32> {
    let mut vars = Vec::new();
    for (k, &a) in attrs.iter().enumerate() {
        for j in 0..BITS {
            if bit_set(row[k], j) {
                vars.push(zvar(a, j));
            }
        }
    }
    vars
}

/// Decodes one ZDD set back into a tuple, checking no stray variables
/// outside the schema leaked into the family.
fn decode(attrs: &[usize], set: &[u32]) -> Vec<u64> {
    for &v in set {
        let a = v as usize / BITS;
        assert!(attrs.contains(&a), "ZDD set mentions out-of-schema var {v}");
    }
    attrs
        .iter()
        .map(|&a| {
            let mut value = 0u64;
            for j in 0..BITS {
                if set.contains(&zvar(a, j)) {
                    value |= 1 << (BITS - 1 - j);
                }
            }
            value
        })
        .collect()
}

/// One relation held by all three backends at once: the production BDD
/// relation, the ZDD family, and the oracle row set. `attrs` is the
/// sorted list of attribute indices (the column order of `rows` and of
/// `Relation::tuples`).
struct Rel3 {
    rel: Relation,
    zdd: ZddId,
    attrs: Vec<usize>,
    rows: BTreeSet<Vec<u64>>,
}

/// The cross-backend assertion: all three agree tuple-for-tuple. When
/// every attribute sits on its home physical domain (attribute `i` on
/// `p{i}`, whose bits are the family's variables `3i..3i+2`),
/// `Relation::zdd_node_count` must also measure exactly the witness
/// family.
fn check(w: &World, r: &Rel3, ctx: &str) {
    let expect: Vec<Vec<u64>> = r.rows.iter().cloned().collect();
    let mut got_bdd = r.rel.tuples();
    got_bdd.sort();
    got_bdd.dedup();
    assert_eq!(got_bdd, expect, "BDD backend diverged from oracle: {ctx}");
    let mut got_zdd: Vec<Vec<u64>> = w
        .z
        .sets(r.zdd)
        .iter()
        .map(|s| decode(&r.attrs, s))
        .collect();
    got_zdd.sort();
    got_zdd.dedup();
    assert_eq!(got_zdd, expect, "ZDD backend diverged from oracle: {ctx}");
    if r.attrs.iter().all(|&a| r.rel.physdom_of(w.attrs[a]) == Some(w.phys[a])) {
        assert_eq!(
            r.rel.zdd_node_count(),
            w.z.node_count(r.zdd),
            "zdd_node_count disagrees with the witness family: {ctx}"
        );
    }
}

fn make_base(w: &World, rng: &mut XorShift64Star, want: Option<Vec<usize>>) -> Rel3 {
    let attrs = want.unwrap_or_else(|| {
        let mut idx: Vec<usize> = (0..NATTRS).collect();
        // Partial Fisher-Yates: the first `k` entries become the schema.
        for i in 0..NATTRS - 1 {
            let j = i + rng.gen_index(0..NATTRS - i);
            idx.swap(i, j);
        }
        let k = rng.gen_index(2..5);
        let mut s = idx[..k].to_vec();
        s.sort_unstable();
        s
    });
    let nrows = rng.gen_index(0..11);
    let mut rows: BTreeSet<Vec<u64>> = BTreeSet::new();
    for _ in 0..nrows {
        rows.insert((0..attrs.len()).map(|_| rng.gen_range(0..DOM)).collect());
    }
    let schema: Vec<(AttrId, PhysDomId)> =
        attrs.iter().map(|&i| (w.attrs[i], w.phys[i])).collect();
    let tuples: Vec<Vec<u64>> = rows.iter().cloned().collect();
    let rel = w.load(&schema, &tuples);
    // Loading must build the very diagram a union of tuple literals does.
    let mut fold = Relation::empty(&w.u, &schema).expect("valid schema");
    for t in &tuples {
        let fields: Vec<_> = schema.iter().zip(t).map(|(&(a, p), &v)| (a, p, v)).collect();
        fold = fold.union(&Relation::tuple(&w.u, &fields).expect("tuple")).expect("union");
    }
    assert_eq!(rel.bdd(), fold.bdd(), "from_tuples differs from the union of its tuples");
    let sets: Vec<Vec<u32>> = rows.iter().map(|t| row_vars(&attrs, t)).collect();
    let zdd = w.z.family(&sets);
    let r = Rel3 { rel, zdd, attrs, rows };
    check(w, &r, "base relation");
    r
}

fn set_op(w: &World, a: &Rel3, b: &Rel3, kind: usize) -> Option<Rel3> {
    assert_eq!(a.attrs, b.attrs);
    let rel = w.governed(|| match kind {
        0 => a.rel.union(&b.rel),
        1 => a.rel.intersect(&b.rel),
        _ => a.rel.minus(&b.rel),
    })?;
    let (zdd, rows) = match kind {
        0 => (w.z.union(a.zdd, b.zdd), a.rows.union(&b.rows).cloned().collect()),
        1 => (w.z.intersect(a.zdd, b.zdd), a.rows.intersection(&b.rows).cloned().collect()),
        _ => (w.z.diff(a.zdd, b.zdd), a.rows.difference(&b.rows).cloned().collect()),
    };
    Some(Rel3 {
        rel,
        zdd,
        attrs: a.attrs.clone(),
        rows,
    })
}

fn project(w: &World, a: &Rel3, col: usize) -> Option<Rel3> {
    let away = a.attrs[col];
    let rel = w.governed(|| a.rel.project_away(&[w.attrs[away]]))?;
    let mut zdd = a.zdd;
    for j in 0..BITS {
        zdd = w.z.abstract_var(zdd, zvar(away, j));
    }
    let attrs: Vec<usize> = a.attrs.iter().copied().filter(|&x| x != away).collect();
    let rows: BTreeSet<Vec<u64>> = a
        .rows
        .iter()
        .map(|t| {
            t.iter()
                .enumerate()
                .filter(|&(k, _)| k != col)
                .map(|(_, &v)| v)
                .collect()
        })
        .collect();
    Some(Rel3 { rel, zdd, attrs, rows })
}

fn rename(w: &World, a: &Rel3, col: usize, to: usize) -> Option<Rel3> {
    let from = a.attrs[col];
    let rel = w.governed(|| a.rel.rename(w.attrs[from], w.attrs[to]))?;
    // Per-bit variable substitution: sets without the bit pass through,
    // sets with it have the bit moved to the target variable.
    let mut zdd = a.zdd;
    for j in 0..BITS {
        let keep = w.z.subset0(zdd, zvar(from, j));
        let moved = w.z.change(w.z.subset1(zdd, zvar(from, j)), zvar(to, j));
        zdd = w.z.union(keep, moved);
    }
    let mut attrs: Vec<usize> = a.attrs.iter().map(|&x| if x == from { to } else { x }).collect();
    attrs.sort_unstable();
    let rows: BTreeSet<Vec<u64>> = a
        .rows
        .iter()
        .map(|t| {
            // Re-emit the tuple in the new sorted column order.
            let named: Vec<(usize, u64)> = a
                .attrs
                .iter()
                .zip(t.iter())
                .map(|(&x, &v)| (if x == from { to } else { x }, v))
                .collect();
            attrs
                .iter()
                .map(|&x| named.iter().find(|&&(n, _)| n == x).expect("present").1)
                .collect()
        })
        .collect();
    Some(Rel3 { rel, zdd, attrs, rows })
}

/// Join on the shared attributes (compose additionally projects them
/// away). The ZDD side enumerates the left family and, per left tuple,
/// carves the matching right sets out with `subset0`/`subset1` chains
/// before re-inserting the left tuple's variables with `change`.
fn combine(w: &World, l: &Rel3, r: &Rel3, compose: bool) -> Option<Rel3> {
    let shared: Vec<usize> = l.attrs.iter().copied().filter(|x| r.attrs.contains(x)).collect();
    assert!(!shared.is_empty());
    let ids: Vec<AttrId> = shared.iter().map(|&i| w.attrs[i]).collect();
    let rel = w.governed(|| {
        if compose {
            l.rel.compose(&ids, &r.rel, &ids)
        } else {
            l.rel.join(&ids, &r.rel, &ids)
        }
    })?;

    let mut zdd = ZddId::EMPTY;
    for set in w.z.sets(l.zdd) {
        let tup = decode(&l.attrs, &set);
        let mut sel = r.zdd;
        for &s in &shared {
            let v = tup[l.attrs.iter().position(|&x| x == s).expect("shared")];
            for j in 0..BITS {
                sel = if bit_set(v, j) {
                    w.z.subset1(sel, zvar(s, j))
                } else {
                    w.z.subset0(sel, zvar(s, j))
                };
            }
        }
        // `sel` now holds only right-side remainder variables; re-insert
        // the whole left tuple (its variables are disjoint from them).
        for &v in &set {
            sel = w.z.change(sel, v);
        }
        zdd = w.z.union(zdd, sel);
    }

    let mut attrs: Vec<usize> = l.attrs.iter().chain(r.attrs.iter()).copied().collect();
    attrs.sort_unstable();
    attrs.dedup();
    if compose {
        attrs.retain(|x| !shared.contains(x));
        for &s in &shared {
            for j in 0..BITS {
                zdd = w.z.abstract_var(zdd, zvar(s, j));
            }
        }
    }
    let mut rows: BTreeSet<Vec<u64>> = BTreeSet::new();
    for lt in &l.rows {
        'rt: for rt in &r.rows {
            for &s in &shared {
                let lv = lt[l.attrs.iter().position(|&x| x == s).expect("shared")];
                let rv = rt[r.attrs.iter().position(|&x| x == s).expect("shared")];
                if lv != rv {
                    continue 'rt;
                }
            }
            let value = |x: usize| -> u64 {
                if let Some(k) = l.attrs.iter().position(|&a| a == x) {
                    lt[k]
                } else {
                    rt[r.attrs.iter().position(|&a| a == x).expect("from right")]
                }
            };
            rows.insert(attrs.iter().map(|&x| value(x)).collect());
        }
    }
    Some(Rel3 { rel, zdd, attrs, rows })
}

/// Replays one case: `seed` in `cell`. Panics on the first divergence
/// from the witnesses or broken pager invariant: every fault is one block
/// read, evictions never outnumber writes, and an unbounded pager never
/// evicts.
fn run_cell(cell: Cell, seed: u64) -> Tally {
    let w = World::new(cell, seed);
    let at = |step: usize| format!("run_cell({cell:?}, {seed}) step {step}");
    let mut rng = XorShift64Star::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut pool: Vec<Rel3> = (0..3).map(|_| make_base(&w, &mut rng, None)).collect();
    for step in 0..8 {
        if cell.churn {
            // Kernel churn between relational steps: a full collection
            // every step and a sifting reorder every third step (a
            // collection on chained and paged managers, which are
            // order-static). Neither may change any relation's tuples.
            let mgr = w.u.bdd_manager();
            mgr.gc();
            if step % 3 == 2 {
                mgr.reorder_sift();
            }
            for (i, r) in pool.iter().enumerate() {
                check(&w, r, &format!("{}: pool[{i}] after gc/reorder", at(step)));
            }
        }
        let kind = rng.gen_index(0..7);
        let next = match kind {
            0..=2 => {
                // union / intersect / minus need identical attribute
                // sets: reuse a pool partner when one exists, otherwise
                // synthesize a fresh right-hand side.
                let a = rng.gen_index(0..pool.len());
                let partner = pool
                    .iter()
                    .enumerate()
                    .filter(|&(i, p)| i != a && p.attrs == pool[a].attrs)
                    .map(|(i, _)| i)
                    .next();
                let fresh;
                let b = match partner {
                    Some(i) => &pool[i],
                    None => {
                        fresh = make_base(&w, &mut rng, Some(pool[a].attrs.clone()));
                        &fresh
                    }
                };
                set_op(&w, &pool[a], b, kind)
            }
            3 => {
                let wide: Vec<usize> = (0..pool.len()).filter(|&i| pool[i].attrs.len() >= 2).collect();
                if wide.is_empty() {
                    Some(make_base(&w, &mut rng, None))
                } else {
                    let a = wide[rng.gen_index(0..wide.len())];
                    let col = rng.gen_index(0..pool[a].attrs.len());
                    project(&w, &pool[a], col)
                }
            }
            4 => {
                let narrow: Vec<usize> =
                    (0..pool.len()).filter(|&i| pool[i].attrs.len() < NATTRS).collect();
                if narrow.is_empty() {
                    Some(make_base(&w, &mut rng, None))
                } else {
                    let a = narrow[rng.gen_index(0..narrow.len())];
                    let free: Vec<usize> =
                        (0..NATTRS).filter(|x| !pool[a].attrs.contains(x)).collect();
                    let col = rng.gen_index(0..pool[a].attrs.len());
                    let to = free[rng.gen_index(0..free.len())];
                    rename(&w, &pool[a], col, to)
                }
            }
            _ => {
                // join / compose need a pair overlapping on at least one
                // attribute; compose additionally needs the result schema
                // to stay nonempty.
                let mut pairs: Vec<(usize, usize)> = Vec::new();
                for i in 0..pool.len() {
                    for j in 0..pool.len() {
                        if i != j && pool[i].attrs.iter().any(|x| pool[j].attrs.contains(x)) {
                            pairs.push((i, j));
                        }
                    }
                }
                if pairs.is_empty() {
                    Some(make_base(&w, &mut rng, None))
                } else {
                    let (i, j) = pairs[rng.gen_index(0..pairs.len())];
                    let shared: Vec<usize> = pool[i]
                        .attrs
                        .iter()
                        .copied()
                        .filter(|x| pool[j].attrs.contains(x))
                        .collect();
                    let kept = pool[i].attrs.len() + pool[j].attrs.len() - 2 * shared.len();
                    let compose = kind == 6 && kept > 0;
                    combine(&w, &pool[i], &pool[j], compose)
                }
            }
        };
        match next {
            Some(next) => {
                check(&w, &next, &format!("{} kind {kind}", at(step)));
                pool.push(next);
                if pool.len() > 10 {
                    pool.remove(0);
                }
            }
            None => {
                // A budget trip must leave every live relation intact.
                for (i, r) in pool.iter().enumerate() {
                    let ctx = format!("{} kind {kind}: pool[{i}] after a budget trip", at(step));
                    check(&w, r, &ctx);
                }
            }
        }
    }
    let k = w.u.bdd_manager().kernel_stats();
    let pager = format!(
        "run_cell({cell:?}, {seed}): {} faults, {} reads, {} evictions, {} writes",
        k.page_faults, k.page_reads, k.page_evictions, k.page_writes
    );
    assert!(k.page_faults == k.page_reads && k.page_evictions <= k.page_writes, "{pager}");
    assert!(cell.frames != Some(0) || k.page_evictions == 0, "unbounded pager evicted: {pager}");
    let faults = k.page_faults - w.warm_faults;
    Tally { faults, ..w.tally.into_inner() }
}

/// Seeds per cell, from `JEDD_FUZZ_CASES` (default 256). The cells the
/// earlier per-mode rigs ran keep those rigs' counts: resident without
/// budget or churn all of it, resident with churn half (default 48), paged
/// with churn an eighth (default 10). Of the cells no earlier rig ran, the
/// resident budget cells run an eighth and the other paged cells, whose
/// cases take the longest, a 128th (at least 2 each).
fn cases(cell: Cell) -> u64 {
    let set: Option<u64> = std::env::var("JEDD_FUZZ_CASES").ok().and_then(|s| s.parse().ok());
    let (share, default) = match (cell.frames, cell.budget, cell.churn) {
        (None, false, false) => (1, 256),
        (None, false, true) => (2, 48),
        (None, true, _) => (8, 32),
        (Some(_), false, true) => (8, 10),
        (Some(_), _, _) => (128, 2),
    };
    set.map_or(default, |n| (n / share).max(2))
}

/// The Tier-1 test that runs `cell`. Every cell maps to exactly one
/// test, so the five together cover all 32: resident cells split by
/// kernel and churn, and every paged cell runs in one test.
fn owner(cell: Cell) -> &'static str {
    match (cell.frames, cell.chained, cell.churn) {
        (Some(_), _, _) => "differential_fuzz_paged_worlds",
        (None, false, false) => "differential_fuzz_bdd_zdd_sets",
        (None, false, true) => "differential_fuzz_thread_sweep_with_churn",
        (None, true, false) => "differential_fuzz_cbdd_czdd_sets",
        (None, true, true) => "differential_fuzz_chained_thread_sweep_with_churn",
    }
}

/// Every seed of the cells `test` owns against the witnesses, in order;
/// the first failure names its cell and seed. Then the coverage
/// contract: the cases of every bounded paged cell fault, and every
/// budget cell both trips and completes operations.
fn mode_matrix(test: &str) {
    let cells: Vec<Cell> = cells().into_iter().filter(|&c| owner(c) == test).collect();
    assert!(!cells.is_empty(), "{test} owns no cell of the matrix");
    for cell in cells {
        let mut sum = Tally::default();
        for seed in 0..cases(cell) {
            let t = std::panic::catch_unwind(|| run_cell(cell, seed))
                .unwrap_or_else(|_| panic!("failed: run_cell({cell:?}, {seed}) replays it"));
            sum.add(t);
        }
        if matches!(cell.frames, Some(n) if n > 0) {
            assert!(sum.faults > 0, "{cell:?}: the cases never paged");
        }
        if cell.frames == Some(2) {
            assert!(sum.load_faults > 0, "{cell:?}: from_tuples never paged");
        }
        if cell.budget {
            assert!(
                sum.trips > 0 && sum.done > 0 && sum.load_trips > 0,
                "{cell:?}: {} budget trips ({} of them in from_tuples) and {} completed \
                 operations; all must be non-zero",
                sum.trips,
                sum.load_trips,
                sum.done
            );
        }
    }
}

/// Plain kernel, resident, no churn, with and without a budget.
#[test]
fn differential_fuzz_bdd_zdd_sets() {
    mode_matrix("differential_fuzz_bdd_zdd_sets");
}

/// Plain kernel, resident, GC every step and sifting every third.
#[test]
fn differential_fuzz_thread_sweep_with_churn() {
    mode_matrix("differential_fuzz_thread_sweep_with_churn");
}

/// Chained kernel (CBDD relations, CZDD family), resident, no churn.
#[test]
fn differential_fuzz_cbdd_czdd_sets() {
    mode_matrix("differential_fuzz_cbdd_czdd_sets");
}

/// Chained kernel, resident, with churn.
#[test]
fn differential_fuzz_chained_thread_sweep_with_churn() {
    mode_matrix("differential_fuzz_chained_thread_sweep_with_churn");
}

/// The 24 paged cells: both kernels at 2, 16 and unbounded frames, every
/// budget and churn setting.
#[test]
fn differential_fuzz_paged_worlds() {
    mode_matrix("differential_fuzz_paged_worlds");
}

/// A torn page read inside `from_tuples` is a typed error, never a panic
/// or a wrong relation. On both kernels at 2 frames: load a relation, grow
/// the arena four blocks past it so its nodes are evicted, corrupt every
/// block on disk, then load the same tuples again. Re-interning the first
/// tuple's nodes reads their cold block back and fails its checksum.
#[test]
fn from_tuples_reports_a_torn_page_as_a_typed_error() {
    for backend in [Backend::Bdd, Backend::Cbdd] {
        let u = Universe::new_paged_with_backend(backend, 2).expect("page file");
        let mgr = u.bdd_manager();
        // A collection would stream the corrupt blocks back in itself.
        mgr.set_gc_enabled(false);
        let d = u.add_domain("obj", DOM);
        let schema: Vec<(AttrId, PhysDomId)> = (0..3)
            .map(|i| {
                let a = u.add_attribute(&format!("a{i}"), d);
                (a, u.add_physical_domain(&format!("p{i}"), BITS))
            })
            .collect();
        let mut tuples = Vec::new();
        for x in 0..DOM {
            for y in 0..DOM {
                tuples.push(vec![x, y, (x + y) % DOM]);
            }
        }
        let rel = Relation::from_tuples(&u, &schema, &tuples).expect("load");
        let pad = u.physdom_bits(u.add_physical_domain("pad", 16));
        let grow_to = mgr.live_nodes() + 4 * BLOCK_NODES;
        let mut rng = XorShift64Star::new(7);
        let mut cubes = Vec::new();
        while mgr.live_nodes() < grow_to {
            cubes.push(mgr.encode_value(&pad, rng.gen_range(0..1 << 16)));
        }
        let file = mgr.page_file().expect("paged");
        let mut bytes = std::fs::read(&file).expect("read page file");
        assert!(
            bytes.len() >= 4 * BLOCK_BYTES,
            "{backend}: the relation was never evicted"
        );
        for block in 0..bytes.len() / BLOCK_BYTES {
            bytes[block * BLOCK_BYTES + HEADER_BYTES + 1] ^= 0x40;
        }
        std::fs::write(&file, &bytes).expect("corrupt page file");
        match Relation::from_tuples(&u, &schema, &tuples) {
            Err(JeddError::ResourceExhausted {
                op: "from_tuples",
                cause: BddError::Page { .. },
                ..
            }) => {}
            Err(e) => panic!("{backend}: torn page surfaced as {e}"),
            Ok(_) => panic!("{backend}: a load over corrupt blocks succeeded"),
        }
        assert!(
            mgr.take_page_error().is_some(),
            "{backend}: no parked page error"
        );
        drop((rel, cubes));
    }
}

/// The benchmark's `pointsto_paged` workload must fault on compress at 256
/// frames (its must-fault guard), or the paged side measures a resident
/// run. Today the spill starts during the load: the per-tuple
/// path-copying inserts leave enough garbage to push the arena past 256
/// frames. A loader that stops that spill fails here, in `cargo test`,
/// rather than as failed benchmark calls; the frame budget has to be
/// retuned with it.
#[test]
fn pointsto_paged_compress_faults_at_256_frames() {
    const FRAMES: usize = 256;
    let p = Benchmark::Compress.generate();
    let f = Facts::load_paged(&p, FRAMES).expect("paged facts");
    let loaded = f.u.bdd_manager().kernel_stats().page_faults;
    let pt = pointsto::analyze(&f, CallGraphMode::OnTheFly).expect("paged points-to");
    let k = f.u.bdd_manager().kernel_stats();
    assert!(
        loaded > 0,
        "loading compress no longer faults at {FRAMES} frames"
    );
    assert!(k.page_faults >= loaded && k.page_max_resident as usize <= FRAMES);
    let resident = Facts::load_configured(&p, Universe::new_with_backend(Backend::Bdd), None)
        .expect("resident facts");
    let want = pointsto::analyze(&resident, CallGraphMode::OnTheFly).expect("points-to");
    assert_eq!(
        ts(&pt.pt),
        ts(&want.pt),
        "paged compress diverged from resident"
    );
}

type TupleSet = BTreeSet<Vec<u64>>;

fn ts(r: &Relation) -> TupleSet {
    r.tuples().into_iter().collect()
}

/// Runs the Table-2 analyses (points-to resolves virtual calls on the
/// fly) and returns every result relation's tuples, points-to first, and
/// the points-to relation.
fn run_analyses(f: &Facts) -> (Vec<TupleSet>, Relation) {
    let h = hierarchy::compute(f).expect("hierarchy");
    let pt = pointsto::analyze(f, CallGraphMode::OnTheFly).expect("points-to");
    let cg = callgraph::build(f, &pt.cg).expect("call graph");
    let se = sideeffect::compute(f, &pt.pt, &cg.edges).expect("side effects");
    let rels = [
        &pt.pt, &pt.field_pt, &pt.cg, &h.subtype_of, &cg.site_targets, &cg.edges, &cg.reachable,
        &se.reads, &se.writes, &se.reads_star, &se.writes_star,
    ];
    (rels.map(ts).into(), pt.pt.clone())
}

/// The analysis row: each kernel × {resident, paged at 4 frames, paged
/// unbounded} must match the plain resident run tuple-for-tuple, whose
/// points-to must match the explicit-set baseline. 4 frames (1024 node
/// slots) is below the tiny benchmark's live node count, so that run can
/// only complete by paging.
#[test]
fn analysis_row() {
    const FRAMES: usize = 4;
    let p = Benchmark::Tiny.generate();
    let sets: TupleSet = (baseline_sets::points_to(&p).pt.into_iter())
        .map(|(v, o)| vec![u64::from(v), u64::from(o)])
        .collect();
    let mut expected: Option<Vec<TupleSet>> = None;
    let mut pt_nodes = Vec::new();
    for backend in [Backend::Bdd, Backend::Cbdd] {
        for frames in [None, Some(FRAMES), Some(0)] {
            let name = format!("{backend}/{frames:?}");
            let u = match frames {
                Some(n) => Universe::new_paged_with_backend(backend, n).expect("page file"),
                None => Universe::new_with_backend(backend),
            };
            let f = Facts::load_configured(&p, u, None).expect("facts");
            let (got, pt) = run_analyses(&f);
            let expected = expected.get_or_insert_with(|| {
                assert_eq!(got[0], sets, "plain resident points-to vs the set baseline");
                let live = f.u.bdd_manager().live_nodes();
                assert!(live > FRAMES * 256, "{live} live nodes fit in {FRAMES} frames");
                got.clone()
            });
            assert_eq!(&got, expected, "{name}: diverged from plain resident");
            let k = f.u.bdd_manager().kernel_stats();
            match frames {
                Some(FRAMES) => {
                    assert!(k.page_faults > 0, "{name}: never paged");
                    assert_eq!(k.page_faults, k.page_reads, "{name}");
                    assert!(k.page_evictions <= k.page_writes, "{name}");
                    assert!(k.page_max_resident as usize <= FRAMES, "{name}: over budget");
                }
                Some(_) => assert_eq!(k.page_evictions, 0, "{name}: unbounded pager evicted"),
                None => pt_nodes.push((pt.node_count(), pt.zdd_node_count())),
            }
        }
    }
    // Chain reduction never grows a diagram: CBDD <= BDD and CZDD <= ZDD.
    let ((bdd, zdd), (cbdd, czdd)) = (pt_nodes[0], pt_nodes[1]);
    assert!(zdd > 0 && cbdd <= bdd && czdd <= zdd, "bdd {bdd} zdd {zdd} cbdd {cbdd} czdd {czdd}");
}

/// The `JEDD_PAGE_CACHE` seam, run by `ci.sh --paged`: with a tiny frame
/// count in the environment, `Facts::load` comes up paged, faults under
/// the budget, and matches a resident run of the analyses.
#[test]
#[ignore = "needs JEDD_PAGE_CACHE set; run from ci.sh --paged"]
fn page_cache_env_seam() {
    let frames: usize = std::env::var("JEDD_PAGE_CACHE")
        .ok()
        .and_then(|v| v.parse().ok())
        .expect("JEDD_PAGE_CACHE must be a frame count");
    assert!((2..=8).contains(&frames), "budget {frames} is too large to page the tiny benchmark");
    let p = Benchmark::Tiny.generate();
    let paged = Facts::load(&p).expect("env-paged facts");
    assert!(paged.u.is_paged(), "JEDD_PAGE_CACHE did not page Universe::new");
    let (got, _) = run_analyses(&paged);
    let k = paged.u.bdd_manager().kernel_stats();
    assert!(k.page_faults > 0 && k.page_max_resident as usize <= frames);
    let resident = Facts::load_configured(&p, Universe::new_with_backend(Backend::Bdd), None);
    assert_eq!(got, run_analyses(&resident.expect("resident facts")).0);
}
