//! Differential tests for the chain-reduced (CBDD) kernel mode against
//! the plain manager.

use jedd_bdd::rng::XorShift64Star;
use jedd_bdd::{BddManager, Permutation};

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
fn chain_managers_are_order_static() {
    let m = BddManager::new_chained(8);
    let bits: Vec<u32> = (0..8).collect();
    let f = build_set(&m, &bits, &[1, 2, 128, 129]);
    let (b, a) = m.reorder_sift();
    assert_eq!(b, a, "reorder degrades to a collection");
    assert_eq!(m.kernel_stats().sift_sweeps, 0, "no sweeps in chain mode");
    assert_eq!(f.satcount_exact(), Some(4));
}

#[test]
fn chained_manager_accepts_a_declared_order() {
    // Snapshot restore declares the order on a fresh chain manager, then
    // builds; results must match a plain manager under the same order.
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
