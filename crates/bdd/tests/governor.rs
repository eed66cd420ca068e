//! Tests for the resource governor: budgets, the GC/reorder recovery
//! ladder, cooperative cancellation, and fault injection.

use jedd_bdd::rng::XorShift64Star;
use jedd_bdd::{Bdd, BddError, BddManager, Budget, CancelToken, FailPlan};
use std::time::{Duration, Instant};

/// A dense BDD (a union of random minterms over `nbits` variables) whose
/// pairwise conjunctions take well over `Budget::CHECK_INTERVAL` recursion
/// steps, so periodic deadline/cancellation probes are guaranteed to fire.
fn dense(mgr: &BddManager, nbits: usize, terms: usize, seed: u64) -> Bdd {
    let mut rng = XorShift64Star::new(seed);
    let bits: Vec<u32> = (0..nbits as u32).collect();
    let mut acc = mgr.constant_false();
    for _ in 0..terms {
        let value = rng.next_u64() & ((1u64 << nbits) - 1);
        acc = acc.or(&mgr.encode_value(&bits, value));
    }
    acc
}

#[test]
fn unbudgeted_try_ops_agree_with_plain_ops() {
    let mgr = BddManager::new(8);
    let f = mgr.var(0).xor(&mgr.var(3));
    let g = mgr.var(1).or(&mgr.nvar(5));
    assert!(!mgr.budget().is_limited());
    assert_eq!(f.try_and(&g).unwrap(), f.and(&g));
    assert_eq!(f.try_or(&g).unwrap(), f.or(&g));
    assert_eq!(f.try_xor(&g).unwrap(), f.xor(&g));
    assert_eq!(f.try_not().unwrap(), f.not());
    assert_eq!(
        f.try_exists(&mgr.cube(&[0])).unwrap(),
        f.exists(&mgr.cube(&[0]))
    );
}

#[test]
fn step_limit_fires_and_reports_counts() {
    let mgr = BddManager::new(24);
    let f = dense(&mgr, 24, 200, 1);
    let g = dense(&mgr, 24, 200, 2);
    mgr.set_budget(Budget::unlimited().with_max_steps(100));
    match f.try_and(&g) {
        Err(BddError::StepLimit { steps, limit }) => {
            assert_eq!(limit, 100);
            assert!(steps > limit);
        }
        other => panic!("expected StepLimit, got {other:?}"),
    }
    assert!(mgr.kernel_stats().budget_failures >= 1);
    // Lifting the budget lets the same operation complete.
    mgr.set_budget(Budget::unlimited());
    let r = f.try_and(&g).unwrap();
    assert_eq!(r, f.and(&g));
}

#[test]
fn step_counter_resets_per_operation() {
    let mgr = BddManager::new(16);
    let f = mgr.var(0).xor(&mgr.var(1)).xor(&mgr.var(2));
    let g = mgr.var(3).xor(&mgr.var(4));
    mgr.set_budget(Budget::unlimited().with_max_steps(500));
    // Many small operations in sequence: each is far below the limit, so
    // none may fail even though the total step count exceeds it.
    for _ in 0..100 {
        f.try_and(&g).unwrap();
        f.try_xor(&g).unwrap();
    }
}

/// Two overlapping equality relations (x = y and y = z) whose conjunction
/// takes a couple of thousand recursion steps — comfortably past
/// `Budget::CHECK_INTERVAL`, so deadline/cancellation probes fire.
fn equality_chain(mgr: &BddManager) -> (Bdd, Bdd) {
    let xs: Vec<u32> = (0..8).collect();
    let ys: Vec<u32> = (8..16).collect();
    let zs: Vec<u32> = (16..24).collect();
    (mgr.equal_vectors(&xs, &ys), mgr.equal_vectors(&ys, &zs))
}

#[test]
fn deadline_fires_on_expensive_op() {
    let mgr = BddManager::new(24);
    let (f, g) = equality_chain(&mgr);
    mgr.set_budget(Budget::unlimited().with_deadline(Instant::now()));
    match f.try_and(&g) {
        Err(BddError::Deadline) => {}
        other => panic!("expected Deadline, got {other:?}"),
    }
    mgr.set_budget(Budget::unlimited().with_timeout(Duration::from_secs(3600)));
    assert_eq!(f.try_and(&g).unwrap(), {
        mgr.set_budget(Budget::unlimited());
        f.and(&g)
    });
}

#[test]
fn cancellation_is_observed() {
    let mgr = BddManager::new(24);
    let (f, g) = equality_chain(&mgr);
    let token = CancelToken::new();
    mgr.set_budget(Budget::unlimited().with_cancel(token.clone()));
    // Not cancelled: completes.
    let r = f.try_and(&g).unwrap();
    let r_count = r.satcount();
    // Cancelled: the next expensive operation observes the token. GC now
    // keeps cache entries whose nodes survive, so the result handle is
    // dropped first — its death makes the sweep evict the (f, g) entry
    // and forces a real recomputation.
    drop(r);
    mgr.gc();
    token.cancel();
    match f.try_and(&g) {
        Err(BddError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // Reset revives the manager.
    token.reset();
    assert_eq!(f.try_and(&g).unwrap().satcount(), r_count);
}

/// `CancelToken` is the kernel's one cross-thread surface: a watchdog on
/// another thread cancels an operation running on the kernel's thread.
#[test]
fn cancel_token_crosses_threads() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CancelToken>();
    assert_send_sync::<Budget>();
    assert_send_sync::<BddError>();

    let mgr = BddManager::new(24);
    let (f, g) = equality_chain(&mgr);
    let token = CancelToken::new();
    mgr.set_budget(Budget::unlimited().with_cancel(token.clone()));
    let watchdog = token.clone();
    std::thread::spawn(move || watchdog.cancel())
        .join()
        .unwrap();
    assert!(token.is_cancelled());
    match f.try_and(&g) {
        Err(BddError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn cache_entries_with_live_nodes_survive_gc() {
    let mgr = BddManager::new(24);
    let (f, g) = equality_chain(&mgr);
    // Populate the cache and keep every participant (operands and result)
    // externally referenced across the collection.
    let r = f.try_and(&g).unwrap();
    let before = mgr.kernel_stats();
    mgr.gc();
    let swept = mgr.kernel_stats();
    assert!(swept.cache_sweeps > before.cache_sweeps, "gc must sweep the cache");
    assert!(swept.cache_entries_kept > 0, "live entries must survive the sweep");
    // Replaying the operation now answers from the surviving cache: hits
    // grow, and the top-level entry resolves without a single new node.
    let nodes_before = swept.nodes_created;
    let r2 = f.try_and(&g).unwrap();
    let after = mgr.kernel_stats();
    assert_eq!(r2, r);
    assert!(
        after.cache_hits > swept.cache_hits,
        "surviving entries must hit after gc ({} -> {})",
        swept.cache_hits,
        after.cache_hits
    );
    assert_eq!(
        after.nodes_created, nodes_before,
        "a fully cached replay must allocate nothing"
    );
}

#[test]
fn cache_sweep_never_resurrects_freed_node_ids() {
    let mgr = BddManager::new(24);
    // Several rounds of: cache operations on short-lived functions, drop
    // them, collect (freeing their ids), then build fresh functions that
    // reuse those ids. A stale cache entry surviving its nodes would make
    // some later operation return a structurally wrong result.
    for round in 0..6u64 {
        {
            let junk_a = dense(&mgr, 24, 30, 1000 + round);
            let junk_b = dense(&mgr, 24, 30, 2000 + round);
            let _ = junk_a.try_and(&junk_b).unwrap();
            let _ = junk_a.try_or(&junk_b).unwrap();
        }
        mgr.gc();
        // Fresh functions now occupy recycled ids. Verify semantics
        // against a clean manager that never went through the cycle.
        let clean = BddManager::new(24);
        let fa = dense(&mgr, 24, 20, 3000 + round);
        let fb = dense(&mgr, 24, 20, 4000 + round);
        let ca = dense(&clean, 24, 20, 3000 + round);
        let cb = dense(&clean, 24, 20, 4000 + round);
        assert_eq!(
            fa.try_and(&fb).unwrap().satcount(),
            ca.and(&cb).satcount(),
            "round {round}: and diverged after id reuse"
        );
        assert_eq!(
            fa.try_xor(&fb).unwrap().satcount(),
            ca.xor(&cb).satcount(),
            "round {round}: xor diverged after id reuse"
        );
    }
    let stats = mgr.kernel_stats();
    assert!(
        stats.cache_entries_swept > 0,
        "the rounds above must actually have evicted dead entries"
    );
}

#[test]
fn node_limit_recovers_via_gc_retry() {
    let mgr = BddManager::new(16);
    let keep_a = dense(&mgr, 16, 40, 7);
    let keep_b = dense(&mgr, 16, 40, 8);
    // Pile up garbage: these intermediates die at the end of the scope but
    // stay in the arena until a collection runs.
    {
        let mut junk = mgr.constant_false();
        for i in 0..60 {
            junk = junk.or(&dense(&mgr, 16, 20, 100 + i));
        }
    }
    let live_with_garbage = mgr.live_nodes();
    // A budget the *live* data fits comfortably, but the garbage-laden
    // arena does not: the first attempt must hit NodeLimit and the ladder's
    // GC retry must save it.
    mgr.set_budget(Budget::unlimited().with_max_live_nodes(live_with_garbage));
    let before = mgr.kernel_stats();
    let r = keep_a.try_or(&keep_b).expect("GC retry should recover");
    let after = mgr.kernel_stats();
    assert!(
        after.ladder_gc_retries > before.ladder_gc_retries,
        "expected the recovery ladder's GC rung to run"
    );
    assert_eq!(after.budget_failures, before.budget_failures);
    mgr.set_budget(Budget::unlimited());
    assert_eq!(r, keep_a.or(&keep_b));
}

#[test]
fn node_limit_recovers_via_reorder_retry() {
    // equal_vectors over block-ordered variables is exponential in the
    // sequential order but linear once sifting interleaves the blocks: GC
    // alone cannot shrink the live data, only the reorder rung can.
    let mgr = BddManager::new(16);
    let xs: Vec<u32> = (0..8).collect();
    let ys: Vec<u32> = (8..16).collect();
    let eq = mgr.equal_vectors(&xs, &ys);
    mgr.gc();
    let live_before = mgr.live_nodes();
    assert!(live_before > 100, "sequential order should be large");
    mgr.set_budget(Budget::unlimited().with_max_live_nodes(live_before));
    let before = mgr.kernel_stats();
    let r = eq
        .try_and(&mgr.try_var(0).expect("var allocation within ladder"))
        .expect("reorder retry should recover");
    let after = mgr.kernel_stats();
    assert!(
        after.ladder_reorder_retries > before.ladder_reorder_retries,
        "expected the recovery ladder's reorder rung to run"
    );
    mgr.set_budget(Budget::unlimited());
    assert_eq!(r, eq.and(&mgr.var(0)));
    assert!(mgr.live_nodes() < live_before);
}

#[test]
fn node_limit_fails_after_ladder_and_arena_stays_consistent() {
    let mgr = BddManager::new(16);
    let f = dense(&mgr, 16, 60, 9);
    let g = dense(&mgr, 16, 60, 10);
    let f_count = f.satcount();
    mgr.gc();
    // Impossible budget: far below even the compacted live size.
    mgr.set_budget(Budget::unlimited().with_max_live_nodes(8));
    match f.try_or(&g) {
        Err(BddError::NodeLimit { live, limit }) => {
            assert_eq!(limit, 8);
            assert!(live >= limit);
        }
        other => panic!("expected NodeLimit, got {other:?}"),
    }
    assert!(mgr.kernel_stats().budget_failures >= 1);
    // The failed operation must not have corrupted anything.
    mgr.set_budget(Budget::unlimited());
    mgr.gc();
    assert_eq!(f.satcount(), f_count);
    assert_eq!(f.try_or(&g).unwrap(), f.or(&g));
}

#[test]
fn injected_alloc_failure_leaves_kernel_invariants_intact() {
    let mgr = BddManager::new(12);
    let f = dense(&mgr, 12, 30, 11);
    let g = dense(&mgr, 12, 30, 12);
    let vars: Vec<u32> = (0..12).collect();
    let f_sats = f.sat_assignments(&vars);
    mgr.gc();
    let live_clean = mgr.live_nodes();

    // Fail the 5th allocation after the plan is installed; the conjunction
    // needs far more, so it must abort mid-recursion.
    mgr.set_fail_plan(Some(FailPlan::fail_alloc_at(5)));
    match f.try_and(&g) {
        Err(BddError::FaultInjected { kind, at }) => {
            assert_eq!(kind, "alloc");
            assert_eq!(at, 5);
        }
        other => panic!("expected FaultInjected, got {other:?}"),
    }
    mgr.set_fail_plan(None);

    // Invariant 1: externally referenced BDDs are untouched.
    assert_eq!(f.sat_assignments(&vars), f_sats);
    // Invariant 2: the orphaned partial results carry no references, so a
    // collection returns the arena to its pre-failure size.
    mgr.gc();
    assert_eq!(mgr.live_nodes(), live_clean);
    // Invariant 3: the unique table still canonicalises — rebuilding an
    // existing function finds the identical node.
    let f2 = dense(&mgr, 12, 30, 11);
    assert_eq!(f2, f);
    // Invariant 4: the aborted operation runs correctly afterwards.
    let r = f.try_and(&g).unwrap();
    assert_eq!(r, f.and(&g));
}

#[test]
fn injected_alloc_failure_fires_exactly_once() {
    let mgr = BddManager::new(12);
    let f = dense(&mgr, 12, 30, 13);
    let g = dense(&mgr, 12, 30, 14);
    mgr.set_fail_plan(Some(FailPlan::fail_alloc_at(3)));
    assert!(f.try_or(&g).is_err());
    // The counter has moved past the trigger point: later operations on
    // the same plan succeed (one-shot semantics).
    let r = f.try_xor(&g).unwrap();
    mgr.set_fail_plan(None);
    assert_eq!(r, f.xor(&g));
}

#[test]
fn skipped_cache_inserts_do_not_change_results() {
    let plain = BddManager::new(14);
    let lossy = BddManager::new(14);
    lossy.set_fail_plan(Some(FailPlan::skip_cache_insert_every(3)));
    let fp = dense(&plain, 14, 50, 15);
    let gp = dense(&plain, 14, 50, 16);
    let fl = dense(&lossy, 14, 50, 15);
    let gl = dense(&lossy, 14, 50, 16);
    let vars: Vec<u32> = (0..14).collect();
    assert_eq!(
        fp.and(&gp).sat_assignments(&vars),
        fl.try_and(&gl).unwrap().sat_assignments(&vars)
    );
    assert_eq!(
        fp.exists(&plain.cube(&[0, 5])).sat_assignments(&vars),
        fl.try_exists(&lossy.cube(&[0, 5]))
            .unwrap()
            .sat_assignments(&vars)
    );
}

#[test]
fn reorder_is_exempt_from_budgets() {
    let mgr = BddManager::new(16);
    let xs: Vec<u32> = (0..8).collect();
    let ys: Vec<u32> = (8..16).collect();
    let eq = mgr.equal_vectors(&xs, &ys);
    mgr.gc();
    // Even under an impossible budget, explicit reordering must succeed
    // (it is the recovery mechanism, so it cannot itself be governed).
    mgr.set_budget(Budget::unlimited().with_max_live_nodes(4));
    let (before, after) = mgr.reorder_sift();
    assert!(after <= before);
    mgr.set_budget(Budget::unlimited());
    assert_eq!(eq, mgr.equal_vectors(&xs, &ys));
}

#[test]
#[should_panic(expected = "exhausted its resource budget")]
fn infallible_api_panics_on_exhaustion() {
    let mgr = BddManager::new(24);
    let f = dense(&mgr, 24, 200, 17);
    let g = dense(&mgr, 24, 200, 18);
    mgr.set_budget(Budget::unlimited().with_max_steps(50));
    let _ = f.and(&g);
}
