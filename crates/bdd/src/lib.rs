//! # jedd-bdd
//!
//! From-scratch reduced ordered binary decision diagram (ROBDD) and
//! zero-suppressed decision diagram (ZDD) kernels, built as the backend
//! substrate for the Jedd relational system (Lhoták & Hendren, PLDI 2004).
//!
//! The BDD kernel provides everything the original Jedd runtime obtained
//! from BuDDy/CUDD through JNI:
//!
//! * hash-consed nodes with a growable unique table and operation cache,
//! * the boolean operations `and`/`or`/`diff`/`xor`/`biimp`/`not`/`ite`,
//! * existential and universal quantification ([`Bdd::exists`],
//!   [`Bdd::forall`]),
//! * the fused relational product [`Bdd::and_exists`] (BuDDy's
//!   `bdd_appex`, used for Jedd's composition operator `<>`),
//! * variable permutation [`Bdd::replace`] (BuDDy `bdd_replace`, CUDD
//!   `SwapVariables`) for moving relations between physical domains,
//! * tuple construction and insertion ([`BddManager::encode_values`],
//!   [`BddManager::insert_values`]): one minterm per tuple, ORed into a
//!   relation along its own path without the operation cache,
//! * model counting ([`Bdd::satcount`]) and assignment enumeration for the
//!   relation iterators,
//! * reference-counted external handles with mark-and-sweep garbage
//!   collection (paper §4.2), and
//! * per-level shape statistics (paper §4.3's profiler views).
//!
//! The ZDD kernel ([`ZddManager`]) realises the paper's §4.1 future-work
//! backend for sparse tuple sets.
//!
//! # Examples
//!
//! ```
//! use jedd_bdd::{BddManager, Permutation};
//!
//! let mgr = BddManager::new(4);
//! // A relation over two 2-bit fields: {(1, 2)}.
//! let tuple = mgr.encode_value(&[0, 1], 1).and(&mgr.encode_value(&[2, 3], 2));
//! assert_eq!(tuple.satcount(), 1.0);
//!
//! // Move the first field onto the second field's bits.
//! let moved = tuple
//!     .exists(&mgr.cube(&[2, 3]))
//!     .replace(&Permutation::from_pairs(&[(0, 2), (1, 3)]));
//! assert_eq!(moved, mgr.encode_value(&[2, 3], 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod budget;
mod count;
pub mod crc32;
mod cube;
mod extras;
mod manager;
mod minterm;
mod node;
mod ops;
pub mod pager;
mod permute;
mod quant;
mod reorder;
pub mod rng;
mod table;
mod zdd;

pub use budget::{BddError, Budget, CancelToken, FailPlan, PermutationFlaw};
pub use manager::{Bdd, BddManager, ExportedNode};
pub use node::{NodeId, Permutation};
pub use table::{KernelStats, OpCacheStats};
pub use zdd::{ZddId, ZddManager};

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> BddManager {
        BddManager::new(8)
    }

    #[test]
    fn constants() {
        let m = mgr();
        assert!(m.constant_false().is_false());
        assert!(m.constant_true().is_true());
        assert_eq!(m.constant_false().satcount(), 0.0);
        assert_eq!(m.constant_true().satcount(), 256.0);
    }

    #[test]
    fn var_and_nvar() {
        let m = mgr();
        let v = m.var(3);
        let nv = m.nvar(3);
        assert_eq!(v.satcount(), 128.0);
        assert_eq!(v.and(&nv).satcount(), 0.0);
        assert_eq!(v.or(&nv), m.constant_true());
        assert_eq!(v.not(), nv);
    }

    #[test]
    fn and_or_diff_xor_laws() {
        let m = mgr();
        let a = m.var(0).or(&m.var(1));
        let b = m.var(1).or(&m.var(2));
        assert_eq!(a.and(&b), b.and(&a));
        assert_eq!(a.or(&b), b.or(&a));
        assert_eq!(a.diff(&b), a.and(&b.not()));
        assert_eq!(a.xor(&b), a.diff(&b).or(&b.diff(&a)));
        assert_eq!(a.and(&a), a);
        assert_eq!(a.or(&a), a);
        assert_eq!(a.diff(&a).satcount(), 0.0);
    }

    #[test]
    fn de_morgan() {
        let m = mgr();
        let a = m.var(0).and(&m.var(5));
        let b = m.var(2).xor(&m.var(3));
        assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
        assert_eq!(a.or(&b).not(), a.not().and(&b.not()));
    }

    #[test]
    fn ite_equivalences() {
        let m = mgr();
        let f = m.var(0);
        let g = m.var(1);
        let h = m.var(2);
        let ite = f.ite(&g, &h);
        let manual = f.and(&g).or(&f.not().and(&h));
        assert_eq!(ite, manual);
        assert_eq!(f.ite(&m.constant_true(), &m.constant_false()), f);
    }

    #[test]
    fn biimp_and_implies() {
        let m = mgr();
        let a = m.var(1);
        let b = m.var(4);
        assert_eq!(a.biimp(&b), a.and(&b).or(&a.not().and(&b.not())));
        assert_eq!(a.implies(&b), a.not().or(&b));
    }

    #[test]
    fn exists_quantifies() {
        let m = mgr();
        let f = m.var(0).and(&m.var(1));
        let e = f.exists(&m.cube(&[0]));
        assert_eq!(e, m.var(1));
        let e2 = f.exists(&m.cube(&[0, 1]));
        assert!(e2.is_true());
        // exists over a non-support variable is the identity.
        assert_eq!(f.exists(&m.cube(&[7])), f);
    }

    #[test]
    fn forall_quantifies() {
        let m = mgr();
        let f = m.var(0).or(&m.var(1));
        assert_eq!(f.forall(&m.cube(&[0])), m.var(1));
        assert!(m.constant_true().forall(&m.cube(&[0, 1])).is_true());
    }

    #[test]
    fn and_exists_equals_and_then_exists() {
        let m = mgr();
        let f = m.var(0).biimp(&m.var(2));
        let g = m.var(2).biimp(&m.var(4));
        let cube = m.cube(&[2]);
        let fused = f.and_exists(&g, &cube);
        let manual = f.and(&g).exists(&cube);
        assert_eq!(fused, manual);
        // Composition of equality relations is equality.
        assert_eq!(fused, m.var(0).biimp(&m.var(4)));
    }

    #[test]
    fn replace_moves_variables() {
        let m = mgr();
        let f = m.var(0).and(&m.var(1).not());
        let p = Permutation::from_pairs(&[(0, 4), (1, 5)]);
        let g = f.replace(&p);
        assert_eq!(g, m.var(4).and(&m.var(5).not()));
        assert_eq!(g.replace(&p.inverse()), f);
    }

    #[test]
    fn replace_order_reversing() {
        let m = mgr();
        let f = m.var(1).and(&m.var(2).not());
        let p = Permutation::from_pairs(&[(1, 2), (2, 1)]);
        let g = f.replace(&p);
        assert_eq!(g, m.var(2).and(&m.var(1).not()));
    }

    #[test]
    fn replace_identity_is_noop() {
        let m = mgr();
        let f = m.var(3).xor(&m.var(6));
        assert_eq!(f.replace(&Permutation::identity()), f);
    }

    #[test]
    #[should_panic(expected = "same target")]
    fn replace_rejects_collisions() {
        let m = mgr();
        let f = m.var(0).and(&m.var(1));
        let p = Permutation::from_pairs(&[(0, 2), (1, 2)]);
        let _ = f.replace(&p);
    }

    #[test]
    #[should_panic(expected = "same target")]
    fn replace_panics_on_support_collision() {
        let m = mgr();
        let f = m.var(0).and(&m.var(1));
        // Valid as a permutation, but moves v0 onto the unmoved support
        // variable v1 — only replace-time validation can catch this.
        let _ = f.replace(&Permutation::from_pairs(&[(0, 1)]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn replace_panics_on_out_of_range_target() {
        let m = mgr();
        let f = m.var(0);
        let _ = f.replace(&Permutation::from_pairs(&[(0, 100)]));
    }

    #[test]
    fn try_replace_never_panics_on_bad_permutations() {
        let m = mgr();
        let f = m.var(0).and(&m.var(1));
        // Two support variables collide on one target.
        assert_eq!(
            f.try_replace(&Permutation::from_pairs(&[(0, 1)])),
            Err(BddError::InvalidPermutation {
                var: 1,
                kind: PermutationFlaw::DuplicateTarget
            })
        );
        // Target outside the manager's variable range.
        assert_eq!(
            f.try_replace(&Permutation::from_pairs(&[(0, 100)])),
            Err(BddError::InvalidPermutation {
                var: 100,
                kind: PermutationFlaw::OutOfRange
            })
        );
        // A rejected permutation is a caller mistake, not a budget
        // failure, and leaves the manager fully usable.
        assert_eq!(m.kernel_stats().budget_failures, 0);
        let g = f.try_replace(&Permutation::from_pairs(&[(0, 4), (1, 5)])).unwrap();
        assert_eq!(g, m.var(4).and(&m.var(5)));
    }

    #[test]
    fn replace_hits_shared_cache_on_repeat() {
        let m = mgr();
        let f = m.var(0).xor(&m.var(1)).xor(&m.var(2));
        let p = Permutation::from_pairs(&[(0, 4), (1, 5), (2, 6)]);
        let a = f.replace(&p);
        let before = m.kernel_stats().op_cache("replace").unwrap();
        let b = f.replace(&p);
        let after = m.kernel_stats().op_cache("replace").unwrap();
        assert_eq!(a, b);
        assert!(
            after.hits > before.hits,
            "repeated identical replace must hit the shared cache \
             ({before:?} -> {after:?})"
        );
    }

    #[test]
    fn subset_agrees_with_diff_emptiness() {
        let m = mgr();
        let a = m.var(0).and(&m.var(1));
        let b = m.var(0);
        let c = m.var(2).or(&m.var(3));
        for (x, y) in [
            (&a, &b),
            (&b, &a),
            (&a, &c),
            (&c, &a),
            (&a, &a),
            (&b, &c),
        ] {
            assert_eq!(
                x.is_subset(y),
                x.diff(y).is_false(),
                "subset probe must agree with diff-then-empty"
            );
            assert_eq!(x.try_diff_is_empty(y).unwrap(), x.is_subset(y));
        }
        assert!(m.constant_false().is_subset(&a));
        assert!(a.is_subset(&m.constant_true()));
        assert!(!m.constant_true().is_subset(&a));
    }

    #[test]
    fn subset_probe_allocates_no_nodes() {
        let m = mgr();
        let a = m.var(0).xor(&m.var(1)).xor(&m.var(2));
        let b = a.or(&m.var(3).and(&m.var(4)));
        let before = m.kernel_stats().nodes_created;
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        let after = m.kernel_stats().nodes_created;
        assert_eq!(after, before, "subset must not materialise nodes");
    }

    #[test]
    fn subset_hits_shared_cache_on_repeat() {
        let m = mgr();
        let a = m.var(0).xor(&m.var(1)).xor(&m.var(2));
        let b = a.or(&m.var(3));
        assert!(a.is_subset(&b));
        let before = m.kernel_stats().op_cache("subset").unwrap();
        assert!(a.is_subset(&b));
        let after = m.kernel_stats().op_cache("subset").unwrap();
        assert!(
            after.hits > before.hits,
            "repeated identical subset must hit the shared cache \
             ({before:?} -> {after:?})"
        );
    }

    #[test]
    fn subset_is_not_symmetric_in_cache() {
        // Subset is not commutative: probing (a, b) must not poison the
        // cache for (b, a).
        let m = mgr();
        let a = m.var(0);
        let b = m.var(0).or(&m.var(1));
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
    }

    #[test]
    fn replace_rebuild_agrees_with_replace() {
        let m = mgr();
        let f = m.var(0).xor(&m.var(3)).and(&m.var(1).or(&m.var(2)));
        for pairs in [
            vec![(0u32, 4u32), (1, 5), (2, 6), (3, 7)],
            vec![(0, 3), (3, 0)],
            vec![(0, 7), (1, 6), (2, 5), (3, 4)], // order reversing
        ] {
            let p = Permutation::from_pairs(&pairs);
            assert_eq!(
                f.try_replace(&p).unwrap(),
                f.try_replace_rebuild(&p).unwrap(),
                "pairs {pairs:?}"
            );
        }
    }

    #[test]
    fn encode_value_msb_first() {
        let m = mgr();
        let f = m.encode_value(&[0, 1, 2], 0b101);
        let expect = m.var(0).and(&m.nvar(1)).and(&m.var(2));
        assert_eq!(f, expect);
        assert_eq!(f.satcount(), 32.0);
    }

    #[test]
    fn encode_value_zero_and_max() {
        let m = mgr();
        let zero = m.encode_value(&[4, 5], 0);
        assert_eq!(zero, m.nvar(4).and(&m.nvar(5)));
        let max = m.encode_value(&[4, 5], 3);
        assert_eq!(max, m.var(4).and(&m.var(5)));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn encode_value_rejects_overflow() {
        let m = mgr();
        let _ = m.encode_value(&[0, 1], 4);
    }

    #[test]
    fn equal_vectors_counts() {
        let m = mgr();
        let eq = m.equal_vectors(&[0, 1], &[2, 3]);
        // 4 equal pairs * 16 free assignments of v4..v7.
        assert_eq!(eq.satcount(), 64.0);
        for v in 0..4u64 {
            let both = m.encode_value(&[0, 1], v).and(&m.encode_value(&[2, 3], v));
            assert_eq!(both.and(&eq), both);
        }
    }

    #[test]
    fn less_than_bounds() {
        let m = mgr();
        let bits = [0u32, 1, 2];
        for bound in 0..=8u64 {
            let f = m.less_than(&bits, bound);
            let count = f.satcount_over(&bits);
            assert_eq!(count, bound.min(8) as f64, "bound {bound}");
        }
    }

    #[test]
    fn satcount_over_subset() {
        let m = mgr();
        let f = m.encode_value(&[0, 1], 2);
        assert_eq!(f.satcount_over(&[0, 1]), 1.0);
        assert_eq!(f.satcount_over(&[0, 1, 2]), 2.0);
    }

    #[test]
    fn node_count_and_shape() {
        let m = mgr();
        let f = m.var(0).xor(&m.var(1)).xor(&m.var(2));
        assert_eq!(f.node_count(), 1 + 2 + 2);
        let shape = f.shape();
        assert_eq!(shape[0], 1);
        assert_eq!(shape[1], 2);
        assert_eq!(shape[2], 2);
        assert_eq!(shape[3], 0);
    }

    #[test]
    fn support_reports_levels() {
        let m = mgr();
        let f = m.var(1).and(&m.var(6));
        assert_eq!(f.support(), vec![1, 6]);
        assert!(m.constant_true().support().is_empty());
    }

    #[test]
    fn foreach_sat_enumerates_with_wildcards() {
        let m = mgr();
        let f = m.var(0); // v1 unconstrained over vars [0, 1]
        let sats = f.sat_assignments(&[0, 1]);
        assert_eq!(sats, vec![vec![true, false], vec![true, true]]);
    }

    #[test]
    fn foreach_sat_early_stop() {
        let m = mgr();
        let f = m.constant_true();
        let mut n = 0;
        f.foreach_sat(&[0, 1, 2], |_| {
            n += 1;
            n < 3
        });
        assert_eq!(n, 3);
    }

    #[test]
    fn gc_reclaims_dead_nodes() {
        let m = BddManager::new(16);
        let keep = m.var(0).and(&m.var(1));
        {
            let mut junk = m.constant_false();
            for i in 0..14 {
                junk = junk.or(&m.var(i).and(&m.var(i + 1)));
            }
            assert!(m.live_nodes() > keep.node_count() + 2);
        }
        let reclaimed = m.gc();
        assert!(reclaimed > 0, "expected dead nodes to be reclaimed");
        assert_eq!(keep.satcount(), (2f64).powi(14));
        assert_eq!(keep, m.var(0).and(&m.var(1)));
    }

    #[test]
    fn gc_preserves_semantics_under_churn() {
        let m = BddManager::new(12);
        let mut acc = m.constant_false();
        for round in 0..50u64 {
            let bits: Vec<u32> = (0..12).collect();
            let t = m.encode_value(&bits, (round * 37) % 4096);
            acc = acc.or(&t);
            if round % 10 == 9 {
                m.gc();
            }
        }
        assert_eq!(acc.satcount(), 50.0);
    }

    #[test]
    fn kernel_stats_progress() {
        let m = mgr();
        let before = m.kernel_stats();
        let _ = m.var(0).and(&m.var(1));
        let after = m.kernel_stats();
        assert!(after.nodes_created > before.nodes_created);
    }

    #[test]
    #[should_panic(expected = "different managers")]
    fn cross_manager_ops_panic() {
        let a = BddManager::new(4);
        let b = BddManager::new(4);
        let _ = a.var(0).and(&b.var(0));
    }

    #[test]
    fn equality_is_canonical() {
        let m = mgr();
        let f = m.var(0).or(&m.var(1));
        let g = m.var(1).or(&m.var(0));
        assert_eq!(f, g);
        assert_eq!(f.raw_id(), g.raw_id());
    }

    #[test]
    fn add_vars_extends_range() {
        let m = BddManager::new(2);
        assert_eq!(m.num_vars(), 2);
        let r = m.add_vars(3);
        assert_eq!(r, 2..5);
        assert_eq!(m.num_vars(), 5);
        let v = m.var(4);
        assert_eq!(v.satcount(), 16.0);
    }

    #[test]
    fn export_import_round_trips() {
        let m = mgr();
        let f = m.var(0).xor(&m.var(3)).and(&m.var(1).or(&m.var(2)));
        let g = f.or(&m.var(5).and(&m.var(6)));
        let (nodes, roots) = m.export_nodes(&[&f, &g]);
        // Shared structure is exported once.
        assert!(nodes.len() <= f.node_count() + g.node_count());
        // Re-import into the same manager: hash-consing finds the originals.
        let back = m.import_nodes(&nodes, &roots).unwrap();
        assert_eq!(back[0], f);
        assert_eq!(back[1], g);
        // Import into a fresh manager under the same order: same functions,
        // and a second round trip is node-id-identical.
        let m2 = BddManager::new(0);
        m2.add_vars(m.num_vars());
        m2.set_order(&m.current_order()).unwrap();
        let fresh = m2.import_nodes(&nodes, &roots).unwrap();
        assert_eq!(fresh[0].satcount(), f.satcount());
        assert_eq!(fresh[1].satcount(), g.satcount());
        let (nodes2, roots2) = m2.export_nodes(&[&fresh[0], &fresh[1]]);
        assert_eq!(nodes, nodes2);
        assert_eq!(roots, roots2);
    }

    #[test]
    fn export_import_terminal_roots() {
        let m = mgr();
        let (nodes, roots) = m.export_nodes(&[&m.constant_false(), &m.constant_true()]);
        assert!(nodes.is_empty());
        assert_eq!(roots, vec![0, 1]);
        let back = m.import_nodes(&nodes, &roots).unwrap();
        assert!(back[0].is_false());
        assert!(back[1].is_true());
    }

    #[test]
    fn import_rejects_malformed_tables() {
        let m = mgr();
        let f = m.var(0).and(&m.var(1));
        let (nodes, roots) = m.export_nodes(&[&f]);
        let live_before = m.live_nodes();
        // Variable out of range.
        let mut bad = nodes.clone();
        bad[0].var = 99;
        assert!(matches!(
            m.import_nodes(&bad, &roots),
            Err(BddError::InvalidImport { .. })
        ));
        // Forward reference.
        let mut bad = nodes.clone();
        bad[0].low = 100;
        assert!(matches!(
            m.import_nodes(&bad, &roots),
            Err(BddError::InvalidImport { .. })
        ));
        // Unreduced entry.
        let mut bad = nodes.clone();
        bad[0].high = bad[0].low;
        assert!(matches!(
            m.import_nodes(&bad, &roots),
            Err(BddError::InvalidImport { .. })
        ));
        // Root slot out of range.
        assert!(matches!(
            m.import_nodes(&nodes, &[roots[0] + 50]),
            Err(BddError::InvalidImport { .. })
        ));
        // Level-order violation: same variable as parent and child.
        let dup = vec![
            ExportedNode { var: 2, low: 0, high: 1 },
            ExportedNode { var: 2, low: 0, high: 2 },
        ];
        assert!(matches!(
            m.import_nodes(&dup, &[3]),
            Err(BddError::InvalidImport { .. })
        ));
        // Rejected imports leave the arena untouched.
        assert_eq!(m.live_nodes(), live_before);
    }

    #[test]
    fn import_respects_fail_plan() {
        let m = mgr();
        let f = m.var(0).xor(&m.var(4));
        let (nodes, roots) = m.export_nodes(&[&f]);
        let m2 = BddManager::new(8);
        m2.set_fail_plan(Some(FailPlan::fail_alloc_at(1)));
        assert!(m2.import_nodes(&nodes, &roots).is_err());
        m2.set_fail_plan(None);
        let ok = m2.import_nodes(&nodes, &roots).unwrap();
        assert_eq!(ok[0].satcount(), f.satcount());
    }

    #[test]
    fn set_order_requires_empty_arena() {
        let m = BddManager::new(4);
        m.set_order(&[3, 1, 0, 2]).unwrap();
        assert_eq!(m.current_order(), vec![3, 1, 0, 2]);
        assert_eq!(m.level_of_var(3), 0);
        // Not a permutation.
        assert!(m.set_order(&[0, 0, 1, 2]).is_err());
        // Wrong length.
        assert!(m.set_order(&[0, 1, 2]).is_err());
        // Arena no longer empty.
        let _v = m.var(0);
        assert!(m.set_order(&[0, 1, 2, 3]).is_err());
    }

    #[test]
    fn export_import_survives_reordered_manager() {
        // Build under a sifted order, export, and reload into a fresh
        // manager carrying the same order: same functions, same table.
        let m = BddManager::new(6);
        let f = m
            .encode_value(&[0, 2, 4], 5)
            .or(&m.encode_value(&[1, 3, 5], 2));
        m.reorder_sift();
        let (nodes, roots) = m.export_nodes(&[&f]);
        let m2 = BddManager::new(0);
        m2.add_vars(6);
        m2.set_order(&m.current_order()).unwrap();
        let g = m2.import_nodes(&nodes, &roots).unwrap();
        assert_eq!(g[0].satcount(), f.satcount());
        let (nodes2, _) = m2.export_nodes(&[&g[0]]);
        assert_eq!(nodes, nodes2);
    }

    #[test]
    fn zdd_export_import_round_trips() {
        let z = ZddManager::new(8);
        let a = z.family(&[vec![0], vec![1, 2], vec![3, 5, 7]]);
        let b = z.family(&[vec![1, 2], vec![4]]);
        let (nodes, roots) = z.export_nodes(&[a, b]);
        let z2 = ZddManager::new(8);
        let back = z2.import_nodes(&nodes, &roots).unwrap();
        assert_eq!(z2.sets(back[0]), z.sets(a));
        assert_eq!(z2.sets(back[1]), z.sets(b));
        // The ZDD store never garbage-collects, so a fresh import is
        // id-identical on re-export.
        let (nodes2, roots2) = z2.export_nodes(&[back[0], back[1]]);
        assert_eq!(nodes, nodes2);
        assert_eq!(roots, roots2);
        // Terminals round-trip as bare slots.
        let (tn, tr) = z.export_nodes(&[ZddId::EMPTY, ZddId::UNIT]);
        assert!(tn.is_empty());
        assert_eq!(tr, vec![0, 1]);
    }

    #[test]
    fn zdd_import_rejects_malformed_tables() {
        let z = ZddManager::new(4);
        let a = z.family(&[vec![0, 1], vec![2]]);
        let (nodes, roots) = z.export_nodes(&[a]);
        let tweaks: [fn(&mut ExportedNode); 3] = [
            |n| n.var = 99,  // out of range
            |n| n.low = 100, // forward reference
            |n| n.high = 0,  // zero-suppressible
        ];
        for tweak in tweaks {
            let mut bad = nodes.clone();
            tweak(&mut bad[0]);
            assert!(matches!(
                z.import_nodes(&bad, &roots),
                Err(BddError::InvalidImport { .. })
            ));
        }
        assert!(z.import_nodes(&nodes, &[99]).is_err());
    }
}
