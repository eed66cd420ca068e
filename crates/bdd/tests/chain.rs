//! Differential tests for the chain-reduced (CBDD/CZDD) kernel modes
//! against the plain managers, plus the offline order-search lab.

use jedd_bdd::rng::XorShift64Star;
use jedd_bdd::{BddManager, Permutation, ZddManager};

const NVARS: usize = 16;

fn random_values(rng: &mut XorShift64Star, count: usize) -> Vec<u64> {
    let mut out: Vec<u64> = (0..count)
        .map(|_| rng.gen_range(0..1u64 << NVARS))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Builds the set-of-minterms BDD for `values` in `m`.
fn build_set(m: &BddManager, bits: &[u32], values: &[u64]) -> jedd_bdd::Bdd {
    let mut acc = m.constant_false();
    for &v in values {
        acc = acc.or(&m.encode_value(bits, v));
    }
    acc
}

#[test]
fn cbdd_matches_bdd_on_random_sets() {
    let bits: Vec<u32> = (0..NVARS as u32).collect();
    for seed in 0..6u64 {
        let mut rng = XorShift64Star::new(seed * 0x9e37 + 1);
        let plain = BddManager::new(NVARS);
        let chain = BddManager::new_chained(NVARS);
        assert!(chain.chain_mode() && !plain.chain_mode());

        let va = random_values(&mut rng, 24);
        let vb = random_values(&mut rng, 24);
        let pa = build_set(&plain, &bits, &va);
        let pb = build_set(&plain, &bits, &vb);
        let ca = build_set(&chain, &bits, &va);
        let cb = build_set(&chain, &bits, &vb);

        for (p, c) in [
            (pa.or(&pb), ca.or(&cb)),
            (pa.and(&pb), ca.and(&cb)),
            (pa.diff(&pb), ca.diff(&cb)),
            (pa.xor(&pb), ca.xor(&cb)),
            (pa.ite(&pb, &pb.not()), ca.ite(&cb, &cb.not())),
        ] {
            assert_eq!(p.satcount_exact(), c.satcount_exact(), "seed {seed}");
            assert_eq!(
                p.sat_assignments(&bits),
                c.sat_assignments(&bits),
                "seed {seed}"
            );
            assert!(
                c.node_count() <= p.node_count(),
                "seed {seed}: chain {} > plain {}",
                c.node_count(),
                p.node_count()
            );
        }
        assert_eq!(pa.is_subset(&pb), ca.is_subset(&cb), "seed {seed}");
        assert_eq!(
            pa.is_subset(&pa.or(&pb)),
            ca.is_subset(&ca.or(&cb)),
            "seed {seed}"
        );
    }
}

#[test]
fn cbdd_quantification_and_replace_match() {
    let bits: Vec<u32> = (0..NVARS as u32).collect();
    let quant: Vec<u32> = vec![1, 4, 9, 12];
    let perm = Permutation::from_pairs(&[(0, 15), (15, 0), (3, 7), (7, 3)]);
    for seed in 0..6u64 {
        let mut rng = XorShift64Star::new(seed * 0x51ed + 3);
        let plain = BddManager::new(NVARS);
        let chain = BddManager::new_chained(NVARS);
        let va = random_values(&mut rng, 20);
        let vb = random_values(&mut rng, 20);
        let pa = build_set(&plain, &bits, &va);
        let pb = build_set(&plain, &bits, &vb);
        let ca = build_set(&chain, &bits, &va);
        let cb = build_set(&chain, &bits, &vb);

        let p_cube = plain.cube(&quant);
        let c_cube = chain.cube(&quant);
        let p_ex = pa.exists(&p_cube);
        let c_ex = ca.exists(&c_cube);
        assert_eq!(
            p_ex.sat_assignments(&bits),
            c_ex.sat_assignments(&bits),
            "exists, seed {seed}"
        );
        let p_ae = pa.and_exists(&pb, &p_cube);
        let c_ae = ca.and_exists(&cb, &c_cube);
        assert_eq!(
            p_ae.sat_assignments(&bits),
            c_ae.sat_assignments(&bits),
            "and_exists, seed {seed}"
        );
        let p_fa = pa.forall(&p_cube);
        let c_fa = ca.forall(&c_cube);
        assert_eq!(
            p_fa.sat_assignments(&bits),
            c_fa.sat_assignments(&bits),
            "forall, seed {seed}"
        );
        let p_rp = pa.replace(&perm);
        let c_rp = ca.replace(&perm);
        assert_eq!(
            p_rp.sat_assignments(&bits),
            c_rp.sat_assignments(&bits),
            "replace, seed {seed}"
        );
        let c_rb = ca.try_replace_rebuild(&perm).unwrap();
        assert_eq!(c_rp, c_rb, "replace oracle, seed {seed}");
        assert_eq!(
            pa.cofactor(&[(2, true), (9, false)]).sat_assignments(&bits),
            ca.cofactor(&[(2, true), (9, false)]).sat_assignments(&bits),
            "cofactor, seed {seed}"
        );
    }
}

#[test]
fn cbdd_witnesses_and_dot() {
    let chain = BddManager::new_chained(12);
    let bits: Vec<u32> = (0..12).collect();
    // A single sparse minterm forces long chains.
    let f = chain.encode_value(&bits, 1);
    let sat = f.one_sat().expect("satisfiable");
    let mut cube = chain.constant_true();
    for (v, val) in &sat {
        cube = cube.and(&if *val { chain.var(*v) } else { chain.nvar(*v) });
    }
    assert_eq!(cube.and(&f), cube);
    let dot = f.to_dot("chain");
    assert!(dot.contains(".."), "chain interval label expected: {dot}");
    let stats = chain.kernel_stats();
    assert!(stats.chain_nodes_created > 0, "chains must form");
    assert!(stats.chain_len_max >= 2);
}

#[test]
fn chain_reduction_shrinks_sparse_cubes() {
    // A long run of negated variables ending in one positive literal is
    // the CBDD sweet spot: the whole spine collapses to one chain node.
    const N: usize = 24;
    let plain = BddManager::new(N);
    let chain = BddManager::new_chained(N);
    let cube = |m: &BddManager| {
        let mut f = m.constant_true();
        for v in 0..N as u32 - 1 {
            f = f.and(&m.nvar(v));
        }
        f.and(&m.var(N as u32 - 1))
    };
    let p = cube(&plain);
    let c = cube(&chain);
    assert_eq!(p.satcount_exact(), c.satcount_exact());
    assert_eq!(p.node_count(), N, "plain spine is one node per level");
    assert_eq!(c.node_count(), 1, "chain collapses the spine to one node");
    // An OR of two such tails still shrinks dramatically.
    let p2 = p.or(&plain.encode_value(&(0..N as u32).collect::<Vec<_>>(), 0));
    let c2 = c.or(&chain.encode_value(&(0..N as u32).collect::<Vec<_>>(), 0));
    assert_eq!(p2.satcount_exact(), c2.satcount_exact());
    assert!(
        c2.node_count() * 2 < p2.node_count(),
        "sparse union must shrink: chain {} plain {}",
        c2.node_count(),
        p2.node_count()
    );
}

#[test]
fn chain_export_round_trips_across_modes() {
    let bits: Vec<u32> = (0..NVARS as u32).collect();
    let mut rng = XorShift64Star::new(0xC0FFEE);
    let values = random_values(&mut rng, 30);
    let chain = BddManager::new_chained(NVARS);
    let plain = BddManager::new(NVARS);
    let c = build_set(&chain, &bits, &values);
    let p = build_set(&plain, &bits, &values);

    // Chain -> plain: the exported table is the plain spine expansion.
    let (nodes, roots) = chain.export_nodes(&[&c]);
    let into_plain = BddManager::new(NVARS);
    let got = into_plain.import_nodes(&nodes, &roots).unwrap();
    assert_eq!(got[0].sat_assignments(&bits), p.sat_assignments(&bits));
    assert_eq!(
        got[0].node_count(),
        p.node_count(),
        "expansion is the plain BDD"
    );

    // Plain -> chain: chain-aware mk re-forms the chains on import.
    let (pnodes, proots) = plain.export_nodes(&[&p]);
    let into_chain = BddManager::new_chained(NVARS);
    let got2 = into_chain.import_nodes(&pnodes, &proots).unwrap();
    assert_eq!(got2[0].sat_assignments(&bits), p.sat_assignments(&bits));
    assert_eq!(got2[0].node_count(), c.node_count(), "chains re-form");
}

#[test]
fn czdd_matches_zdd_on_random_families() {
    for seed in 0..6u64 {
        let mut rng = XorShift64Star::new(seed * 0xABCD + 7);
        let plain = ZddManager::new(NVARS);
        let chain = ZddManager::new_chained(NVARS);
        assert!(chain.chain_mode() && !plain.chain_mode());
        let fam = |rng: &mut XorShift64Star| -> Vec<Vec<u32>> {
            (0..12)
                .map(|_| {
                    let mask = rng.gen_range(0..1u64 << NVARS);
                    (0..NVARS as u32).filter(|b| (mask >> b) & 1 == 1).collect()
                })
                .collect()
        };
        let sa = fam(&mut rng);
        let sb = fam(&mut rng);
        let pa = plain.family(&sa);
        let pb = plain.family(&sb);
        let ca = chain.family(&sa);
        let cb = chain.family(&sb);
        assert_eq!(plain.sets(pa), chain.sets(ca), "family, seed {seed}");
        assert!(
            chain.node_count(ca) <= plain.node_count(pa),
            "seed {seed}: czdd {} > zdd {}",
            chain.node_count(ca),
            plain.node_count(pa)
        );

        let pairs = [
            (plain.union(pa, pb), chain.union(ca, cb)),
            (plain.intersect(pa, pb), chain.intersect(ca, cb)),
            (plain.diff(pa, pb), chain.diff(ca, cb)),
        ];
        for (i, &(p, c)) in pairs.iter().enumerate() {
            assert_eq!(plain.sets(p), chain.sets(c), "op {i}, seed {seed}");
            assert_eq!(plain.count(p), chain.count(c), "count {i}, seed {seed}");
            assert!(
                chain.node_count(c) <= plain.node_count(p),
                "op {i}, seed {seed}"
            );
        }
        for var in [0u32, 5, 11, 15] {
            assert_eq!(
                plain.sets(plain.subset0(pa, var)),
                chain.sets(chain.subset0(ca, var)),
                "subset0 v{var}, seed {seed}"
            );
            assert_eq!(
                plain.sets(plain.subset1(pa, var)),
                chain.sets(chain.subset1(ca, var)),
                "subset1 v{var}, seed {seed}"
            );
            assert_eq!(
                plain.sets(plain.change(pa, var)),
                chain.sets(chain.change(ca, var)),
                "change v{var}, seed {seed}"
            );
            assert_eq!(
                plain.sets(plain.abstract_var(pa, var)),
                chain.sets(chain.abstract_var(ca, var)),
                "abstract v{var}, seed {seed}"
            );
        }
    }
}

#[test]
fn czdd_dont_care_chains_shrink() {
    // A family of all subsets of {0..n-1} crossed with {n} is one long
    // don't-care chain in a CZDD.
    const N: u32 = 16;
    let plain = ZddManager::new(N as usize + 1);
    let chain = ZddManager::new_chained(N as usize + 1);
    let mut all: Vec<Vec<u32>> = vec![vec![]];
    for v in 0..N {
        let mut next = all.clone();
        for s in &all {
            let mut t = s.clone();
            t.push(v);
            next.push(t);
        }
        all = next;
        if all.len() > 4096 {
            break;
        }
    }
    for s in &mut all {
        s.push(N);
    }
    let p = plain.family(&all);
    let c = chain.family(&all);
    assert_eq!(plain.count(p), chain.count(c));
    assert!(
        chain.node_count(c) < plain.node_count(p),
        "don't-care chain must shrink: czdd {} zdd {}",
        chain.node_count(c),
        plain.node_count(p)
    );
}

#[test]
fn czdd_export_round_trips_across_modes() {
    let chain = ZddManager::new_chained(10);
    let plain = ZddManager::new(10);
    let sets: Vec<Vec<u32>> = vec![
        vec![9],
        vec![0, 9],
        vec![1, 9],
        vec![0, 1, 9],
        vec![2, 5, 7],
    ];
    let c = chain.family(&sets);
    let p = plain.family(&sets);
    let (nodes, roots) = chain.export_nodes(&[c]);
    let into_plain = ZddManager::new(10);
    let got = into_plain.import_nodes(&nodes, &roots).unwrap();
    assert_eq!(into_plain.sets(got[0]), plain.sets(p));
    let (pnodes, proots) = plain.export_nodes(&[p]);
    let into_chain = ZddManager::new_chained(10);
    let got2 = into_chain.import_nodes(&pnodes, &proots).unwrap();
    assert_eq!(into_chain.sets(got2[0]), chain.sets(c));
    assert_eq!(into_chain.node_count(got2[0]), chain.node_count(c));
}

#[test]
fn order_search_beats_bad_blocked_order() {
    // Blocked equality is the classic exponential-order case; the search
    // must land near the interleaved linear-size order.
    const BITS: u32 = 8;
    let m = BddManager::new((2 * BITS) as usize);
    let xs: Vec<u32> = (0..BITS).collect();
    let ys: Vec<u32> = (BITS..2 * BITS).collect();
    let f = m.equal_vectors(&xs, &ys);
    let count_before_search = f.satcount_exact();
    let rounds = std::env::var("JEDD_ORDER_SEARCH_ROUNDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(2);
    let (before, after) = m.order_search(rounds, 0xBEEF);
    assert!(
        after * 10 < before,
        "order search must collapse blocked equality: {before} -> {after}"
    );
    assert_eq!(
        f.satcount_exact(),
        count_before_search,
        "function preserved"
    );
    assert!(m.kernel_stats().sift_sweeps >= 1, "sweeps are counted");
}

#[test]
fn chain_managers_are_order_static() {
    let m = BddManager::new_chained(8);
    let bits: Vec<u32> = (0..8).collect();
    let f = build_set(&m, &bits, &[1, 2, 128, 129]);
    let (b, a) = m.reorder_sift();
    assert_eq!(b, a, "reorder degrades to a collection");
    let (b2, a2) = m.order_search(3, 42);
    assert_eq!(b2, a2, "order search degrades to a collection");
    assert_eq!(m.kernel_stats().sift_sweeps, 0, "no sweeps in chain mode");
    assert_eq!(f.satcount_exact(), Some(4));
}

#[test]
fn chained_manager_accepts_learned_order() {
    // The learned-order workflow: declare the order on a fresh chain
    // manager, then build; results must match a plain manager under the
    // same order.
    const BITS: u32 = 6;
    let order: Vec<u32> = (0..BITS).flat_map(|i| [i, i + BITS]).collect();
    let chain = BddManager::new_chained((2 * BITS) as usize);
    chain.set_order(&order).unwrap();
    let plain = BddManager::new((2 * BITS) as usize);
    plain.set_order(&order).unwrap();
    let xs: Vec<u32> = (0..BITS).collect();
    let ys: Vec<u32> = (BITS..2 * BITS).collect();
    let fc = chain.equal_vectors(&xs, &ys);
    let fp = plain.equal_vectors(&xs, &ys);
    assert_eq!(fc.satcount_exact(), fp.satcount_exact());
    assert!(fc.node_count() <= fp.node_count());
}

#[test]
fn op_shape_stats_recorded() {
    let m = BddManager::new(8);
    let f = m.var(0).or(&m.var(7));
    let g = m.var(3).and(&f);
    let _ = g.exists(&m.cube(&[3]));
    let stats = m.kernel_stats();
    assert!(stats.op_span_samples >= 3, "apply/exists entries sampled");
    assert!(stats.op_span_max as usize <= m.num_vars());
    assert!(stats.level_activity.iter().sum::<u64>() > 0);
}
