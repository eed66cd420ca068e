//! Ablation: the cost of `replace` operations and why the physical-domain
//! assignment minimises them (paper §3.3.2). Compares a propagation loop
//! under a good assignment (compared attributes share a physical domain;
//! no replace per iteration beyond the result move) against a pessimal
//! assignment that forces an extra replace of the large points-to relation
//! on every iteration.
//!
//! A second, kernel-level group measures the `replace` recursion itself:
//! the direct `mk`-based path with the shared op cache against the
//! seed's HashMap + ite-rebuild algorithm (kept as
//! `try_replace_rebuild`), on both an order-preserving shift and an
//! order-reversing permutation. Headline numbers land in the
//! `JEDD_BENCH_JSON` report when that variable is set.

use jedd_bdd::rng::XorShift64Star;
use jedd_bdd::{Bdd, BddManager, Permutation};
use jedd_bench::criterion::Criterion;
use jedd_bench::report::{write_section, JsonObject};
use jedd_core::{Relation, Universe};
use std::time::Instant;

struct Setup {
    u: Universe,
    edges: Relation,
    pt0: Relation,
    var: jedd_core::AttrId,
    dst: jedd_core::AttrId,
    v1: jedd_core::PhysDomId,
    v3: jedd_core::PhysDomId,
}

fn setup() -> Setup {
    let u = Universe::new();
    let var_d = u.add_domain("Var", 1 << 10);
    let obj_d = u.add_domain("Obj", 1 << 9);
    let vs = u.add_physical_domains_interleaved(&["V1", "V2", "V3"], 10);
    let h1 = u.add_physical_domain("H1", 9);
    let var = u.add_attribute("var", var_d);
    let dst = u.add_attribute("dst", var_d);
    let obj = u.add_attribute("obj", obj_d);
    let mut rng = XorShift64Star::new(11);
    let e: Vec<Vec<u64>> = (0..3000)
        .map(|_| vec![rng.gen_range(0..1 << 10), rng.gen_range(0..1 << 10)])
        .collect();
    let edges = Relation::from_tuples(&u, &[(dst, vs[1]), (var, vs[0])], &e).unwrap();
    let n: Vec<Vec<u64>> = (0..600)
        .map(|_| vec![rng.gen_range(0..1 << 10), rng.gen_range(0..1 << 9)])
        .collect();
    let pt0 = Relation::from_tuples(&u, &[(var, vs[0]), (obj, h1)], &n).unwrap();
    Setup {
        u,
        edges,
        pt0,
        var,
        dst,
        v1: vs[0],
        v3: vs[2],
    }
}

fn propagate(s: &Setup, pessimal: bool) -> Relation {
    let mut pt = s.pt0.clone();
    let before = s.u.stats().auto_replaces;
    loop {
        let pt_in = if pessimal {
            // Force the large relation onto the wrong physical domain so
            // the compose must replace it back — the "unnecessary replace"
            // the assignment algorithm exists to avoid.
            pt.with_assignment(&[(s.var, s.v3)]).unwrap()
        } else {
            pt.clone()
        };
        let step = s.edges.compose(&[s.var], &pt_in, &[s.var]).unwrap();
        let step = step
            .rename(s.dst, s.var)
            .unwrap()
            .with_assignment(&[(s.var, s.v1)])
            .unwrap();
        let next = pt.union(&step).unwrap();
        if next.equals(&pt).unwrap() {
            let _ = before;
            return next;
        }
        pt = next;
    }
}

fn bench_replace_cost(c: &mut Criterion) {
    let s = setup();
    let mut g = c.benchmark_group("replace_cost");
    g.bench_function("good_assignment", |b| b.iter(|| propagate(&s, false)));
    g.bench_function("pessimal_assignment", |b| b.iter(|| propagate(&s, true)));
    g.finish();
    // Sanity: same fixpoint either way.
    let (good, good_s) = jedd_bench::timed(|| propagate(&s, false));
    let (bad, bad_s) = jedd_bench::timed(|| propagate(&s, true));
    assert!(good.equals(&bad).unwrap());
    write_section(
        "replace_cost_relational",
        &JsonObject::new()
            .float("good_assignment_s", good_s)
            .float("pessimal_assignment_s", bad_s)
            .int("fixpoint_tuples", good.size()),
    );
}

/// A dense random function over the first 16 of 32 variables: an OR of
/// random 8-literal conjunctions, so both permutations below stay within
/// range and the order-reversing case exercises the ite-rebuild fallback.
fn dense(mgr: &BddManager, rng: &mut XorShift64Star, terms: usize) -> Bdd {
    let mut f = mgr.constant_false();
    for _ in 0..terms {
        let mut t = mgr.constant_true();
        for _ in 0..8 {
            let v = rng.gen_range(0..16) as u32;
            let lit = if rng.gen_bool(0.5) {
                mgr.var(v)
            } else {
                mgr.nvar(v)
            };
            t = t.and(&lit);
        }
        f = f.or(&t);
    }
    f
}

fn shift_perm() -> Permutation {
    let pairs: Vec<(u32, u32)> = (0..16).map(|i| (i, i + 16)).collect();
    Permutation::try_from_pairs(&pairs).expect("shift is injective")
}

fn reversal_perm() -> Permutation {
    // Swap the two halves pairwise in reverse: order-reversing on support.
    let pairs: Vec<(u32, u32)> = (0..16).map(|i| (i, 31 - i)).collect();
    Permutation::try_from_pairs(&pairs).expect("reversal is injective")
}

/// Times `runs` repetitions of `op` on a fresh manager, returning the
/// total seconds and the manager for counter inspection.
fn timed_runs(
    terms: usize,
    runs: usize,
    op: impl Fn(&Bdd, &Permutation) -> Bdd,
    perm: &Permutation,
) -> (f64, BddManager, Bdd) {
    let mgr = BddManager::new(32);
    let mut rng = XorShift64Star::new(7);
    let f = dense(&mgr, &mut rng, terms);
    let start = Instant::now();
    let mut r = op(&f, perm);
    for _ in 1..runs {
        r = op(&f, perm);
    }
    (start.elapsed().as_secs_f64(), mgr, r)
}

fn bench_kernel_replace(c: &mut Criterion) {
    let terms = 60;
    let mut g = c.benchmark_group("replace_kernel");
    for (label, perm) in [("shift", shift_perm()), ("reversal", reversal_perm())] {
        let mgr = BddManager::new(32);
        let mut rng = XorShift64Star::new(7);
        let f = dense(&mgr, &mut rng, terms);
        // Both algorithms must agree before we time anything.
        let direct = f.try_replace(&perm).expect("valid perm");
        let rebuilt = f.try_replace_rebuild(&perm).expect("valid perm");
        assert!(
            direct == rebuilt,
            "direct and rebuild replace disagree on {label}"
        );
        g.bench_function(&format!("direct/{label}"), |b| {
            b.iter(|| f.try_replace(&perm).expect("valid perm"))
        });
        g.bench_function(&format!("rebuild/{label}"), |b| {
            b.iter(|| f.try_replace_rebuild(&perm).expect("valid perm"))
        });
    }
    g.finish();

    // Headline JSON: fresh managers so each path's counters are its own.
    let runs = 50;
    let mut section = JsonObject::new()
        .int("terms", terms as u64)
        .int("runs", runs as u64);
    for (label, perm) in [("shift", shift_perm()), ("reversal", reversal_perm())] {
        let (direct_s, mgr, _r) =
            timed_runs(terms, runs, |f, p| f.try_replace(p).expect("valid"), &perm);
        let stats = mgr.kernel_stats();
        let replace_cache = stats.op_cache("replace").expect("known op");
        assert!(
            replace_cache.hits > 0,
            "repeated identical replaces must hit the shared cache ({label})"
        );
        let (rebuild_s, _mgr2, _r2) = timed_runs(
            terms,
            runs,
            |f, p| f.try_replace_rebuild(p).expect("valid"),
            &perm,
        );
        section = section.object(
            label,
            JsonObject::new()
                .float("direct_s", direct_s)
                .float("rebuild_s", rebuild_s)
                .int("direct_cache_lookups", replace_cache.lookups)
                .int("direct_cache_hits", replace_cache.hits)
                .float("direct_cache_hit_rate", replace_cache.hit_rate())
                .int("nodes_created", stats.nodes_created),
        );
    }
    write_section("replace_kernel", &section);
}

jedd_bench::criterion_group!(benches, bench_replace_cost, bench_kernel_replace);
jedd_bench::criterion_main!(benches);
