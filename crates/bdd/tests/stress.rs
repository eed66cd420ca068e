//! Stress tests for the kernel's memory management: automatic GC
//! triggering, unique-table growth, cache invalidation across
//! collections, and heavy churn with live roots.

use jedd_bdd::{BddManager, Permutation};

/// Builds a moderately large BDD (a comparator-like function).
fn big_function(m: &BddManager, shift: u64) -> jedd_bdd::Bdd {
    let bits: Vec<u32> = (0..20).collect();
    let mut acc = m.constant_false();
    for k in 0..200u64 {
        acc = acc.or(&m.encode_value(&bits, (k * 5003 + shift) % (1 << 20)));
    }
    acc
}

#[test]
fn automatic_gc_triggers_under_churn() {
    let m = BddManager::new(20);
    let keep = big_function(&m, 0);
    let count_before = keep.satcount();
    // Allocate and drop lots of garbage; the arena should not grow without
    // bound because maybe_gc fires between top-level operations.
    for round in 1..60u64 {
        let junk = big_function(&m, round * 977);
        let mixed = junk.xor(&keep);
        drop(mixed);
        drop(junk);
    }
    let stats = m.kernel_stats();
    assert!(
        stats.gc_runs >= 1,
        "expected at least one automatic collection, stats: {stats:?}"
    );
    assert!(stats.gc_reclaimed > 0);
    // The kept function survived every collection intact.
    assert_eq!(keep.satcount(), count_before);
}

#[test]
fn unique_table_grows_and_stays_canonical() {
    let m = BddManager::new(24);
    m.set_gc_enabled(false);
    let bits: Vec<u32> = (0..24).collect();
    let mut acc = m.constant_false();
    for k in 0..2000u64 {
        acc = acc.or(&m.encode_value(&bits, (k * 7919) % (1 << 24)));
    }
    assert_eq!(acc.satcount(), 2000.0);
    // Canonicity after many table growths: rebuilding one of the encoded
    // values yields a node already in `acc`'s closure.
    let probe = m.encode_value(&bits, 7919);
    assert_eq!(probe.and(&acc), probe);
    m.set_gc_enabled(true);
}

#[test]
fn results_stable_across_manual_gcs() {
    let m = BddManager::new(16);
    let bits: Vec<u32> = (0..16).collect();
    let a = big16(&m, 1);
    let b = big16(&m, 2);
    let and1 = a.and(&b);
    m.gc();
    // Recompute after collection: cache was cleared, result must be the
    // same canonical node.
    let and2 = a.and(&b);
    assert_eq!(and1, and2);
    let _ = bits;

    fn big16(m: &BddManager, seed: u64) -> jedd_bdd::Bdd {
        let bits: Vec<u32> = (0..16).collect();
        let mut acc = m.constant_false();
        for k in 0..300u64 {
            acc = acc.or(&m.encode_value(&bits, (k * 31 + seed * 7) % (1 << 16)));
        }
        acc
    }
}

#[test]
fn deep_replace_chain_with_gc() {
    // Repeatedly move a relation back and forth between two blocks while
    // garbage accumulates; semantics must hold throughout.
    let m = BddManager::new(32);
    let left: Vec<u32> = (0..16).collect();
    let right: Vec<u32> = (16..32).collect();
    let to_right = Permutation::from_pairs(
        &left
            .iter()
            .copied()
            .zip(right.iter().copied())
            .collect::<Vec<_>>(),
    );
    let to_left = to_right.inverse();
    let mut f = m.constant_false();
    for k in 0..100u64 {
        f = f.or(&m.encode_value(&left, k * 523 % (1 << 16)));
    }
    let original = f.clone();
    for _ in 0..25 {
        f = f.replace(&to_right);
        f = f.replace(&to_left);
    }
    assert_eq!(f, original);
    m.gc();
    assert_eq!(f.satcount(), original.satcount());
}

#[test]
fn thousands_of_live_handles() {
    // Many external handles at once: refcounts and GC must respect all.
    let m = BddManager::new(12);
    let bits: Vec<u32> = (0..12).collect();
    let handles: Vec<jedd_bdd::Bdd> = (0..3000u64)
        .map(|k| m.encode_value(&bits, k % (1 << 12)))
        .collect();
    m.gc();
    for (k, h) in handles.iter().enumerate() {
        assert_eq!(h.satcount(), 1.0, "handle {k} damaged by GC");
    }
}

#[test]
fn cache_hit_rate_is_nontrivial() {
    // Re-running the same op mix should mostly hit the operation cache.
    let m = BddManager::new(16);
    let a = m.var(0).xor(&m.var(5)).xor(&m.var(10));
    let b = m.var(3).or(&m.var(7));
    for _ in 0..50 {
        let _ = a.and(&b);
        let _ = a.or(&b);
        let _ = a.xor(&b);
    }
    let stats = m.kernel_stats();
    assert!(
        stats.cache_hits * 2 > stats.cache_lookups,
        "expected a cache-dominated workload: {stats:?}"
    );
}
