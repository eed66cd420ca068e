//! Ablation: the paper's §2.2.3 claim that composition (`<>`) is
//! implemented "more efficiently than a join followed by a projection"
//! because the backend fuses the intersection with the quantification
//! (`and_exists`). This bench measures both forms of the same relational
//! product on a transitive-closure step.

use jedd_bdd::rng::XorShift64Star;
use jedd_bench::criterion::Criterion;
use jedd_core::{Relation, Universe};

struct Setup {
    reach: Relation,
    edge_mid: Relation,
    mid: jedd_core::AttrId,
}

fn setup(n: u64, edges: usize) -> Setup {
    let u = Universe::new();
    let node = u.add_domain("Node", n);
    let pds = u.add_physical_domains_interleaved(&["N1", "N2", "N3"], 10);
    let src = u.add_attribute("src", node);
    let dst = u.add_attribute("dst", node);
    let mid = u.add_attribute("mid", node);
    let mut rng = XorShift64Star::new(7);
    let tuples: Vec<Vec<u64>> = (0..edges)
        .map(|_| vec![rng.gen_range(0..n), rng.gen_range(0..n)])
        .collect();
    let edge = Relation::from_tuples(&u, &[(src, pds[0]), (dst, pds[1])], &tuples).unwrap();
    // reach(src, mid): edge with dst renamed to mid on N3.
    let reach = edge
        .rename(dst, mid)
        .unwrap()
        .with_assignment(&[(mid, pds[2])])
        .unwrap();
    // edge(mid, dst): edge with src renamed to mid on N3.
    let edge_mid = edge
        .rename(src, mid)
        .unwrap()
        .with_assignment(&[(mid, pds[2])])
        .unwrap();
    Setup {
        reach,
        edge_mid,
        mid,
    }
}

fn bench_compose(c: &mut Criterion) {
    let s = setup(1 << 10, 4000);
    let mut g = c.benchmark_group("relational_product");
    g.bench_function("compose_fused", |b| {
        b.iter(|| s.reach.compose(&[s.mid], &s.edge_mid, &[s.mid]).unwrap())
    });
    g.bench_function("join_then_project", |b| {
        b.iter(|| {
            s.reach
                .join(&[s.mid], &s.edge_mid, &[s.mid])
                .unwrap()
                .project_away(&[s.mid])
                .unwrap()
        })
    });
    g.finish();
    // Sanity: both forms agree.
    let fused = s.reach.compose(&[s.mid], &s.edge_mid, &[s.mid]).unwrap();
    let split = s
        .reach
        .join(&[s.mid], &s.edge_mid, &[s.mid])
        .unwrap()
        .project_away(&[s.mid])
        .unwrap();
    assert!(fused.equals(&split).unwrap());
}

jedd_bench::criterion_group!(benches, bench_compose);
jedd_bench::criterion_main!(benches);
