//! Tests for dynamic variable reordering (sifting): function preservation,
//! handle stability, and actual size reduction on order-sensitive
//! functions.

use jedd_bdd::{BddManager, Permutation};

/// The classic order-sensitive function: x0*x1 + x2*x3 + ... built under a
/// bad order (all "left" variables first).
fn bad_order_products(m: &BddManager, pairs: usize) -> jedd_bdd::Bdd {
    // Variables 0..pairs are the "left" operands, pairs..2*pairs "right".
    let mut acc = m.constant_false();
    for i in 0..pairs as u32 {
        acc = acc.or(&m.var(i).and(&m.var(pairs as u32 + i)));
    }
    acc
}

#[test]
fn sifting_shrinks_product_sum() {
    let pairs = 7;
    let m = BddManager::new(2 * pairs);
    let f = bad_order_products(&m, pairs);
    let before_nodes = f.node_count();
    let before_count = f.satcount();
    let (b, a) = m.reorder_sift();
    assert!(b >= before_nodes);
    assert!(
        a < b / 2,
        "sifting should cut the exponential order at least in half: {b} -> {a}"
    );
    // Handles still valid, same function.
    assert_eq!(f.satcount(), before_count);
    assert!(f.node_count() < before_nodes);
    // The interleaved order pairs left/right variables adjacently.
    let order = m.current_order();
    assert_eq!(order.len(), 2 * pairs);
}

#[test]
fn sifting_preserves_all_semantics() {
    let m = BddManager::new(12);
    let bits: Vec<u32> = (0..12).collect();
    let values: Vec<u64> = (0..150u64).map(|k| (k * 2654435761) % 4096).collect();
    let mut f = m.constant_false();
    for &v in &values {
        f = f.or(&m.encode_value(&bits, v));
    }
    let g = m.var(0).biimp(&m.var(6));
    let fg = f.and(&g);
    let (count_f, count_g, count_fg) = (f.satcount(), g.satcount(), fg.satcount());

    m.reorder_sift();

    // Counts unchanged.
    assert_eq!(f.satcount(), count_f);
    assert_eq!(g.satcount(), count_g);
    assert_eq!(fg.satcount(), count_fg);
    // Tuple membership unchanged (checked through enumeration, which maps
    // variables through the new order).
    let mut seen: Vec<u64> = Vec::new();
    f.foreach_sat(&bits, |a| {
        let mut v = 0u64;
        for &b in a {
            v = (v << 1) | u64::from(b);
        }
        seen.push(v);
        true
    });
    seen.sort_unstable();
    seen.dedup();
    let mut expect: Vec<u64> = values.clone();
    expect.sort_unstable();
    expect.dedup();
    assert_eq!(seen, expect);
    // Fresh operations agree with pre-reorder results.
    assert_eq!(f.and(&g), fg);
    // encode_value still finds the same tuples.
    for &v in values.iter().take(10) {
        let t = m.encode_value(&bits, v);
        assert_eq!(t.and(&f), t);
    }
}

#[test]
fn sifting_then_replace_roundtrip() {
    let m = BddManager::new(16);
    let left: Vec<u32> = (0..8).collect();
    let right: Vec<u32> = (8..16).collect();
    let f = m.equal_vectors(&left, &right);
    m.reorder_sift();
    // A full exchange permutation (left <-> right in both directions).
    let exchange: Vec<(u32, u32)> = left
        .iter()
        .copied()
        .zip(right.iter().copied())
        .flat_map(|(l, r)| [(l, r), (r, l)])
        .collect();
    let p_exchange = Permutation::from_pairs(&exchange);
    // equal_vectors is symmetric under the exchange.
    assert_eq!(f.replace(&p_exchange), f);
    // A one-directional rename round-trips on a left-only function.
    let p = Permutation::from_pairs(
        &left
            .iter()
            .copied()
            .zip(right.iter().copied())
            .collect::<Vec<_>>(),
    );
    let g = m.encode_value(&left, 37);
    let h = g.replace(&p);
    assert_eq!(h.replace(&p.inverse()), g);
}

#[test]
fn sifting_idempotent_at_fixpoint() {
    let m = BddManager::new(10);
    let f = bad_order_products(&m, 5);
    let (_, after1) = m.reorder_sift();
    let (before2, after2) = m.reorder_sift();
    assert_eq!(after1, before2);
    assert!(after2 <= before2, "second sift cannot grow the table");
    let _ = f;
}

#[test]
fn order_and_level_queries_consistent() {
    let m = BddManager::new(6);
    let _f = bad_order_products(&m, 3);
    m.reorder_sift();
    let order = m.current_order();
    for (level, &var) in order.iter().enumerate() {
        assert_eq!(m.level_of_var(var), level as u32);
    }
    // The order is a permutation of all variables.
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..6).collect::<Vec<u32>>());
}

#[test]
fn empty_and_tiny_managers() {
    let m = BddManager::new(0);
    assert_eq!(m.reorder_sift(), (0, 0));
    let m1 = BddManager::new(1);
    let f = m1.var(0);
    let (b, a) = m1.reorder_sift();
    assert_eq!((b, a), (1, 1));
    assert_eq!(f.satcount(), 1.0);
}
