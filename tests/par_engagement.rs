//! The parallel kernel's engagement gate at the default cutoff. The gate
//! builds the bounded split plan first and probes operand size only when
//! the plan has at least two tasks, so operations the engine can never
//! split (the one-tuple unions of `Relation::from_tuples`) pay nothing
//! for it, while large operations still engage on exactly the same
//! structural condition at every thread count >= 2.

use jedd::bdd::rng::XorShift64Star;
use jedd::core::{AttrId, Backend, PhysDomId, Relation, Universe};

/// The kernel's default engagement cutoff. Set explicitly, because some
/// test passes lower it through `JEDD_PAR_CUTOFF`.
const DEFAULT_CUTOFF: usize = 8192;
/// Bits per physical domain; objects range over `0..1 << BITS`.
const BITS: usize = 12;

struct World {
    u: Universe,
    attrs: Vec<AttrId>,
    phys: Vec<PhysDomId>,
}

impl World {
    /// A plain-BDD universe (so `JEDD_CHAIN` cannot switch the engine
    /// off) with three attributes, each on its own physical domain.
    fn new(threads: usize) -> World {
        let u = Universe::new_with_backend(Backend::Bdd);
        let d = u.add_domain("obj", 1 << BITS);
        let attrs = (0..3).map(|i| u.add_attribute(&format!("a{i}"), d)).collect();
        let phys = (0..3)
            .map(|i| u.add_physical_domain(&format!("p{i}"), BITS))
            .collect();
        let mgr = u.bdd_manager();
        mgr.set_threads(threads);
        mgr.set_par_cutoff(DEFAULT_CUTOFF);
        World { u, attrs, phys }
    }

    /// A relation over attributes `cols`, each stored in the physical
    /// domain of the same index.
    fn relation(&self, cols: [usize; 2], tuples: &[Vec<u64>]) -> Relation {
        let schema: Vec<(AttrId, PhysDomId)> =
            cols.iter().map(|&c| (self.attrs[c], self.phys[c])).collect();
        Relation::from_tuples(&self.u, &schema, tuples).unwrap()
    }
}

/// `n` random pairs: the first column spans the whole domain, the second
/// only `0..join_range`, so compositions on it find partners.
fn pairs(n: usize, join_range: u64, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = XorShift64Star::new(seed);
    (0..n)
        .map(|_| vec![rng.gen_range(0..1 << BITS), rng.gen_range(0..join_range)])
        .collect()
}

#[test]
fn from_tuples_never_probes_at_two_threads() {
    let tuples = pairs(2_500, 1 << BITS, 7);
    let w2 = World::new(2);
    let r2 = w2.relation([0, 1], &tuples);
    // Past the cutoff, so a gate that probed before planning would visit
    // `DEFAULT_CUTOFF` nodes on every remaining union.
    assert!(
        r2.node_count() >= DEFAULT_CUTOFF,
        "the accumulator must outgrow the cutoff, got {} nodes",
        r2.node_count()
    );
    let s = w2.u.bdd_manager().kernel_stats();
    assert_eq!(s.par_probe_nodes, 0, "one-tuple unions must never reach the size probe");
    assert_eq!(s.par_ops, 0);
    let w1 = World::new(1);
    let r1 = w1.relation([0, 1], &tuples);
    assert_eq!(r1.tuples(), r2.tuples());
}

#[test]
fn large_compose_engages_identically_at_two_and_four_threads() {
    let left = pairs(2_500, 64, 11);
    let right: Vec<Vec<u64>> = pairs(2_500, 64, 12)
        .into_iter()
        .map(|t| vec![t[1], t[0]])
        .collect();
    let run = |threads: usize| {
        let w = World::new(threads);
        let r = w.relation([0, 1], &left);
        let s = w.relation([1, 2], &right);
        let before = w.u.bdd_manager().kernel_stats();
        let c = r.compose(&[w.attrs[1]], &s, &[w.attrs[1]]).unwrap();
        let after = w.u.bdd_manager().kernel_stats();
        let delta = (
            after.par_ops - before.par_ops,
            after.par_tasks - before.par_tasks,
            after.par_probe_nodes - before.par_probe_nodes,
        );
        (c.tuples(), delta)
    };
    let (t1, (ops1, _, _)) = run(1);
    let (t2, d2) = run(2);
    let (t4, d4) = run(4);
    assert_eq!(ops1, 0, "threads=1 must stay sequential");
    assert!(d2.0 >= 1, "the compose must engage the engine at 2 threads");
    assert!(d2.1 >= 2 * d2.0, "every engaged operation splits into >= 2 tasks");
    assert_eq!(d2, d4, "(par_ops, par_tasks, par_probe_nodes) at 2 vs 4 threads");
    assert!(!t1.is_empty());
    assert_eq!(t1, t2);
    assert_eq!(t1, t4);
}
