//! Ablation: the effect of the BDD variable ordering (paper §4.3 — the
//! profiler exists to tune exactly this). Builds the same equality-heavy
//! relation under interleaved and blocked physical-domain orders and
//! compares both construction time and node counts.

use jedd_bdd::BddManager;
use jedd_bench::criterion::Criterion;
use jedd_bench::report::{write_section, JsonObject};

const BITS: usize = 14;

/// Builds the equality relation x == y with the two bit vectors
/// interleaved (x0 y0 x1 y1 ...): linear-size BDD.
fn equality_interleaved() -> (f64, usize) {
    let mgr = BddManager::new(2 * BITS);
    let xs: Vec<u32> = (0..BITS as u32).map(|i| 2 * i).collect();
    let ys: Vec<u32> = (0..BITS as u32).map(|i| 2 * i + 1).collect();
    let eq = mgr.equal_vectors(&xs, &ys);
    (eq.satcount(), eq.node_count())
}

/// The same relation with blocked order (x0..xn y0..yn): exponential-size
/// BDD.
fn equality_blocked() -> (f64, usize) {
    let mgr = BddManager::new(2 * BITS);
    let xs: Vec<u32> = (0..BITS as u32).collect();
    let ys: Vec<u32> = (BITS as u32..2 * BITS as u32).collect();
    let eq = mgr.equal_vectors(&xs, &ys);
    (eq.satcount(), eq.node_count())
}

fn bench_var_order(c: &mut Criterion) {
    let mut g = c.benchmark_group("var_order_equality");
    g.sample_size(10);
    g.bench_function("interleaved", |b| b.iter(equality_interleaved));
    g.bench_function("blocked", |b| b.iter(equality_blocked));
    g.finish();

    let ((count_i, nodes_i), secs_i) = jedd_bench::timed(equality_interleaved);
    let ((count_b, nodes_b), secs_b) = jedd_bench::timed(equality_blocked);
    assert_eq!(count_i, count_b, "same relation under both orders");
    // The paper's point: ordering changes the size dramatically.
    assert!(
        nodes_b > nodes_i * 10,
        "blocked ({nodes_b}) should dwarf interleaved ({nodes_i})"
    );
    eprintln!(
        "equality over {BITS}-bit vectors: interleaved {nodes_i} nodes, blocked {nodes_b} nodes"
    );
    write_section(
        "var_order",
        &JsonObject::new()
            .int("bits", BITS as u64)
            .int("interleaved_nodes", nodes_i as u64)
            .int("blocked_nodes", nodes_b as u64)
            .float("interleaved_s", secs_i)
            .float("blocked_s", secs_b)
            .float("blowup", nodes_b as f64 / nodes_i as f64),
    );
}

jedd_bench::criterion_group!(benches, bench_var_order);
jedd_bench::criterion_main!(benches);
