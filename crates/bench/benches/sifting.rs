//! Ablation: dynamic variable reordering (sifting) vs the static orders of
//! the `var_order` bench. Starting from the pessimal *blocked* order for
//! an equality-heavy relation, sifting should recover an interleaved-like
//! order and collapse the BDD.

use jedd_bdd::BddManager;
use jedd_bench::criterion::Criterion;
use jedd_bench::report::{write_section, JsonObject};

const BITS: usize = 11;

fn blocked_equality() -> (BddManager, jedd_bdd::Bdd) {
    let mgr = BddManager::new(2 * BITS);
    let xs: Vec<u32> = (0..BITS as u32).collect();
    let ys: Vec<u32> = (BITS as u32..2 * BITS as u32).collect();
    let eq = mgr.equal_vectors(&xs, &ys);
    (mgr, eq)
}

fn bench_sifting(c: &mut Criterion) {
    let mut g = c.benchmark_group("sifting");
    g.sample_size(10);
    g.bench_function("sift_blocked_equality", |b| {
        b.iter(|| {
            let (mgr, eq) = blocked_equality();
            let (before, after) = mgr.reorder_sift();
            std::hint::black_box((before, after, eq.node_count()))
        })
    });
    g.finish();

    let (mgr, eq) = blocked_equality();
    let before = eq.node_count();
    let count = eq.satcount();
    let (_, sift_s) = jedd_bench::timed(|| mgr.reorder_sift());
    let after = eq.node_count();
    assert_eq!(eq.satcount(), count, "sifting preserves the function");
    assert!(
        after * 20 < before,
        "sifting should collapse the blocked equality: {before} -> {after}"
    );
    eprintln!("blocked equality over {BITS}-bit vectors: {before} nodes -> {after} after sifting");

    write_section(
        "sifting",
        &JsonObject::new()
            .int("bits", BITS as u64)
            .int("nodes_before", before as u64)
            .int("nodes_after_sift", after as u64)
            .float("sift_s", sift_s)
            .int("sift_sweeps", mgr.kernel_stats().sift_sweeps),
    );
}

jedd_bench::criterion_group!(benches, bench_sifting);
jedd_bench::criterion_main!(benches);
