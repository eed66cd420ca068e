//! Ablation: the ZDD backend (paper §4.1 future work — "several
//! researchers have suggested using zero-suppressed BDDs for our points-to
//! analysis algorithms"). Stores the same sparse points-to relation in the
//! BDD and ZDD kernels and compares build + set-algebra time and node
//! counts.

use jedd_bdd::rng::XorShift64Star;
use jedd_bdd::{BddManager, ZddManager};
use jedd_bench::criterion::Criterion;

const VAR_BITS: usize = 10;
const OBJ_BITS: usize = 9;
const PAIRS: usize = 1500;

fn pairs() -> Vec<(u64, u64)> {
    let mut rng = XorShift64Star::new(23);
    (0..PAIRS)
        .map(|_| {
            (
                rng.gen_range(0..1u64 << VAR_BITS),
                rng.gen_range(0..1u64 << OBJ_BITS),
            )
        })
        .collect()
}

fn build_bdd(pairs: &[(u64, u64)]) -> usize {
    let mgr = BddManager::new(VAR_BITS + OBJ_BITS);
    let vbits: Vec<u32> = (0..VAR_BITS as u32).collect();
    let obits: Vec<u32> = (VAR_BITS as u32..(VAR_BITS + OBJ_BITS) as u32).collect();
    let mut rel = mgr.constant_false();
    for &(v, o) in pairs {
        rel = rel.or(&mgr
            .encode_value(&vbits, v)
            .and(&mgr.encode_value(&obits, o)));
    }
    rel.node_count()
}

fn build_zdd(pairs: &[(u64, u64)]) -> usize {
    let z = ZddManager::new(VAR_BITS + OBJ_BITS);
    let vbits: Vec<u32> = (0..VAR_BITS as u32).collect();
    let obits: Vec<u32> = (VAR_BITS as u32..(VAR_BITS + OBJ_BITS) as u32).collect();
    let mut rel = jedd_bdd::ZddId::EMPTY;
    for &(v, o) in pairs {
        let t = z.encode_tuple(&[(&vbits, v), (&obits, o)]);
        rel = z.union(rel, t);
    }
    z.node_count(rel)
}

fn bench_zdd(c: &mut Criterion) {
    let ps = pairs();
    let mut g = c.benchmark_group("sparse_relation_backend");
    g.sample_size(10);
    g.bench_function("bdd_build", |b| {
        b.iter(|| build_bdd(std::hint::black_box(&ps)))
    });
    g.bench_function("zdd_build", |b| {
        b.iter(|| build_zdd(std::hint::black_box(&ps)))
    });
    g.finish();
    let (bn, zn) = (build_bdd(&ps), build_zdd(&ps));
    eprintln!("sparse relation of {PAIRS} tuples: BDD {bn} nodes, ZDD {zn} nodes");
}

jedd_bench::criterion_group!(benches, bench_zdd);
jedd_bench::criterion_main!(benches);
