//! Differential fuzzer: random relational programs evaluated on three
//! independent backends — the production BDD-backed [`Relation`], a ZDD
//! encoding driven through `ZddManager`'s family algebra, and a plain
//! `BTreeSet` oracle — must produce identical tuple sets after every
//! operation. Every case also runs with chain-reduced kernels (CBDD
//! relations against a CZDD family), so all four decision-diagram kinds
//! are checked against the same oracle.
//!
//! Each case builds a fresh universe (one domain of 6 objects encoded in
//! 3 bits, five attributes over it) and applies a random sequence of
//! union / intersect / minus / project / rename / join / compose steps to
//! a pool of relations. Because the domain size (6) is not a power of
//! two, the invalid-code space of the binary encoding is exercised too.
//!
//! 256 cases run by default; set `JEDD_FUZZ_CASES` to scale up or down.

use jedd::bdd::rng::XorShift64Star;
use jedd::bdd::{ZddId, ZddManager};
use jedd::core::{AttrId, Backend, PhysDomId, Relation, Universe};
use std::collections::BTreeSet;

const NATTRS: usize = 5;
const DOM: u64 = 6;
const BITS: usize = 3;

/// One shared evaluation context per fuzz case.
struct World {
    u: Universe,
    attrs: Vec<AttrId>,
    phys: Vec<PhysDomId>,
    z: ZddManager,
}

impl World {
    /// `chained` selects chain-reduced kernels on both sides: the
    /// relation universe runs on a CBDD manager and the family algebra on
    /// a CZDD manager. The relational and family APIs are identical, so
    /// every fuzz step below is backend-agnostic. `page_cache` puts the
    /// relation universe on the disk-backed pager with that
    /// resident-frame budget (the ZDD family and the oracle stay
    /// resident, so they cross-check the paged kernel from outside it).
    fn new_with(chained: bool, page_cache: Option<usize>) -> World {
        let backend = if chained { Backend::Cbdd } else { Backend::Bdd };
        let u = match page_cache {
            Some(frames) => Universe::new_paged_with_backend(backend, frames),
            None => Universe::new_with_backend(backend),
        };
        let d = u.add_domain("obj", DOM);
        let attrs: Vec<AttrId> = (0..NATTRS)
            .map(|i| u.add_attribute(&format!("a{i}"), d))
            .collect();
        let phys: Vec<PhysDomId> = (0..NATTRS)
            .map(|i| u.add_physical_domain(&format!("p{i}"), BITS))
            .collect();
        if page_cache.is_some() {
            // Pre-grow the arena past several pager blocks with a
            // throwaway dense BDD, then collect it: the freed slots are
            // reused across blocks, so the fuzz's small relations scatter
            // over the file and a tiny resident budget actually pages.
            let mgr = u.bdd_manager();
            let bits: Vec<u32> = (0..(NATTRS * BITS) as u32).collect();
            let mut warm_rng = XorShift64Star::new(0xfeed);
            let mut acc = mgr.constant_false();
            for _ in 0..160 {
                acc = acc.or(&mgr.encode_value(&bits, warm_rng.gen_range(0..1 << 15)));
            }
            drop(acc);
            mgr.gc();
        }
        let z = if chained {
            ZddManager::new_chained(NATTRS * BITS)
        } else {
            ZddManager::new(NATTRS * BITS)
        };
        World { u, attrs, phys, z }
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

/// The cross-backend assertion: all three agree tuple-for-tuple.
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
    let rel = Relation::from_tuples(&w.u, &schema, &tuples).expect("valid base relation");
    let sets: Vec<Vec<u32>> = rows.iter().map(|t| row_vars(&attrs, t)).collect();
    let zdd = w.z.family(&sets);
    let r = Rel3 { rel, zdd, attrs, rows };
    check(w, &r, "base relation");
    r
}

fn set_op(w: &World, a: &Rel3, b: &Rel3, kind: usize) -> Rel3 {
    assert_eq!(a.attrs, b.attrs);
    let (rel, zdd, rows) = match kind {
        0 => (
            a.rel.union(&b.rel),
            w.z.union(a.zdd, b.zdd),
            a.rows.union(&b.rows).cloned().collect(),
        ),
        1 => (
            a.rel.intersect(&b.rel),
            w.z.intersect(a.zdd, b.zdd),
            a.rows.intersection(&b.rows).cloned().collect(),
        ),
        _ => (
            a.rel.minus(&b.rel),
            w.z.diff(a.zdd, b.zdd),
            a.rows.difference(&b.rows).cloned().collect(),
        ),
    };
    Rel3 {
        rel: rel.expect("set op on same-schema operands"),
        zdd,
        attrs: a.attrs.clone(),
        rows,
    }
}

fn project(w: &World, a: &Rel3, col: usize) -> Rel3 {
    let away = a.attrs[col];
    let rel = a.rel.project_away(&[w.attrs[away]]).expect("attr present");
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
    Rel3 { rel, zdd, attrs, rows }
}

fn rename(w: &World, a: &Rel3, col: usize, to: usize) -> Rel3 {
    let from = a.attrs[col];
    let rel = a.rel.rename(w.attrs[from], w.attrs[to]).expect("free target attr");
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
    Rel3 { rel, zdd, attrs, rows }
}

/// Join on the shared attributes (compose additionally projects them
/// away). The ZDD side enumerates the left family and, per left tuple,
/// carves the matching right sets out with `subset0`/`subset1` chains
/// before re-inserting the left tuple's variables with `change`.
fn combine(w: &World, l: &Rel3, r: &Rel3, compose: bool) -> Rel3 {
    let shared: Vec<usize> = l.attrs.iter().copied().filter(|x| r.attrs.contains(x)).collect();
    assert!(!shared.is_empty());
    let ids: Vec<AttrId> = shared.iter().map(|&i| w.attrs[i]).collect();
    let rel = if compose {
        l.rel.compose(&ids, &r.rel, &ids)
    } else {
        l.rel.join(&ids, &r.rel, &ids)
    }
    .expect("combinable pair");

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
    Rel3 { rel, zdd, attrs, rows }
}

/// Per-case knobs: mid-run kernel churn — a GC and a sifting reorder
/// between steps, so the differential check also covers arena compaction
/// and variable moves — the chain-reduced backend, and an optional pager
/// resident-frame budget for the relation universe (`Some(0)` = paged
/// but unbounded).
#[derive(Clone, Copy, Default)]
struct CaseOpts {
    churn: bool,
    chained: bool,
    page_cache: Option<usize>,
}

fn run_case(seed: u64) {
    run_case_with(seed, CaseOpts::default());
}

/// Returns the universe manager's final kernel stats so paged sweeps can
/// assert the cache actually thrashed.
fn run_case_with(seed: u64, opts: CaseOpts) -> jedd::bdd::KernelStats {
    let w = World::new_with(opts.chained, opts.page_cache);
    let mut rng = XorShift64Star::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut pool: Vec<Rel3> = (0..3).map(|_| make_base(&w, &mut rng, None)).collect();
    for step in 0..8 {
        if opts.churn {
            // Kernel churn between relational steps: a full collection
            // every step and a sifting reorder every third step. Neither
            // may change any relation's tuples.
            let mgr = w.u.bdd_manager();
            mgr.gc();
            if step % 3 == 2 {
                mgr.reorder_sift();
            }
            for (i, r) in pool.iter().enumerate() {
                check(&w, r, &format!("seed {seed} step {step}: pool[{i}] after gc/reorder"));
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
                    make_base(&w, &mut rng, None)
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
                    make_base(&w, &mut rng, None)
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
                    make_base(&w, &mut rng, None)
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
        check(&w, &next, &format!("seed {seed} step {step} kind {kind}"));
        pool.push(next);
        if pool.len() > 10 {
            pool.remove(0);
        }
    }
    w.u.bdd_manager().kernel_stats()
}

#[test]
fn differential_fuzz_bdd_zdd_sets() {
    let cases: u64 = std::env::var("JEDD_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);
    for case in 0..cases {
        run_case(case);
    }
}

/// The churn sweep: seeds re-run with a GC before every step and a
/// sifting reorder every third step. Collection and sifting move nodes
/// and variables under live relations, so the oracle comparison inside
/// `check` enforces that both are invisible to every backend.
#[test]
fn differential_fuzz_thread_sweep_with_churn() {
    let cases: u64 = std::env::var("JEDD_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .map(|n: u64| (n / 2).max(2))
        .unwrap_or(48);
    for case in 0..cases {
        run_case_with(
            case,
            CaseOpts {
                churn: true,
                ..CaseOpts::default()
            },
        );
    }
}

/// The chain-reduced kinds against the same oracle: CBDD relations and a
/// CZDD family replay the same seeds as the plain run. Since the plain
/// run checks BDD/ZDD against the identical oracle rows, passing both
/// suites is a four-way differential across every decision-diagram kind.
#[test]
fn differential_fuzz_cbdd_czdd_sets() {
    let cases: u64 = std::env::var("JEDD_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);
    for case in 0..cases {
        run_case_with(
            case,
            CaseOpts {
                chained: true,
                ..CaseOpts::default()
            },
        );
    }
}

/// The paged worlds: the same seeds re-run with the relation universe on
/// the disk-backed pager at a thrashing budget (2 frames), a medium one
/// (16), and paged-but-unbounded (0) — each for both the plain and the
/// chain-reduced backend, with GC/reorder churn throughout. The ZDD
/// family and the `BTreeSet` oracle stay fully resident, so every check
/// compares a paged kernel against two resident witnesses; the contract
/// is tuple-identical results at any cache size. The tiny budget must
/// actually page (summed fault count over the sweep is pinned non-zero).
#[test]
fn differential_fuzz_paged_worlds() {
    let cases: u64 = std::env::var("JEDD_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .map(|n: u64| (n / 8).max(2))
        .unwrap_or(10);
    for &chained in &[false, true] {
        let mut tiny_faults = 0u64;
        for &frames in &[2usize, 16, 0] {
            for case in 0..cases {
                let stats = run_case_with(
                    case,
                    CaseOpts {
                        churn: true,
                        chained,
                        page_cache: Some(frames),
                    },
                );
                assert_eq!(
                    stats.page_faults, stats.page_reads,
                    "every fault is exactly one block read"
                );
                assert!(stats.page_evictions <= stats.page_writes);
                if frames == 2 {
                    tiny_faults += stats.page_faults;
                }
            }
        }
        assert!(
            tiny_faults > 0,
            "chained={chained}: a 2-frame budget never paged — the paged \
             world is not actually exercising the pager"
        );
    }
}

/// The churn sweep under chain-reduced kernels. Chained managers
/// degrade sifting to a collection, so what this enforces is exactly
/// that: mid-run GC/reorder calls must be invisible no-ops.
#[test]
fn differential_fuzz_chained_thread_sweep_with_churn() {
    let cases: u64 = std::env::var("JEDD_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .map(|n: u64| (n / 2).max(2))
        .unwrap_or(48);
    for case in 0..cases {
        run_case_with(
            case,
            CaseOpts {
                churn: true,
                chained: true,
                ..CaseOpts::default()
            },
        );
    }
}
