//! The paper's §2.2.1 note: relation equality "takes only constant time
//! in BDDs" (hash-consed canonical form), against the linear/log cost of
//! comparing explicit sets. This bench compares `Relation::equals` with
//! `BTreeSet` equality at growing sizes.

use jedd_bench::criterion::{BenchmarkId, Criterion};
use jedd_core::{Relation, Universe};
use std::collections::BTreeSet;

/// Two equal BDD relations and two equal explicit sets of size `n`.
type Fixtures = (
    Relation,
    Relation,
    BTreeSet<(u64, u64)>,
    BTreeSet<(u64, u64)>,
);

fn setup(n: u64) -> Fixtures {
    let u = Universe::new();
    let d = u.add_domain("D", 1 << 12);
    let pds = u.add_physical_domains_interleaved(&["A", "B"], 12);
    let a = u.add_attribute("a", d);
    let b = u.add_attribute("b", d);
    let tuples: Vec<Vec<u64>> = (0..n).map(|i| vec![i, (i * 7) % (1 << 12)]).collect();
    let r1 = Relation::from_tuples(&u, &[(a, pds[0]), (b, pds[1])], &tuples).unwrap();
    let r2 = Relation::from_tuples(&u, &[(a, pds[0]), (b, pds[1])], &tuples).unwrap();
    let s1: BTreeSet<(u64, u64)> = tuples.iter().map(|t| (t[0], t[1])).collect();
    let s2 = s1.clone();
    (r1, r2, s1, s2)
}

fn bench_equality(c: &mut Criterion) {
    let mut g = c.benchmark_group("equality");
    for n in [256u64, 1024, 4096] {
        let (r1, r2, s1, s2) = setup(n);
        g.bench_with_input(BenchmarkId::new("bdd_relation", n), &n, |bch, _| {
            bch.iter(|| r1.equals(std::hint::black_box(&r2)).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("btreeset", n), &n, |bch, _| {
            bch.iter(|| std::hint::black_box(&s1) == std::hint::black_box(&s2))
        });
    }
    g.finish();
}

jedd_bench::criterion_group!(benches, bench_equality);
jedd_bench::criterion_main!(benches);
