//! Key-restricted join and compose: when every compared attribute sits
//! below the right operand's kept attributes in the variable order, join
//! and compose first cut the right operand to the keys the left operand
//! holds (DESIGN.md "Alignment discipline"). The answers must not change,
//! the work must stay linear in the operands, and a budget trip inside the
//! cut must still name the join.

use jedd::bdd::rng::XorShift64Star;
use jedd::core::{AttrId, Backend, BddError, Budget, JeddError, PhysDomId, Relation, Universe};
use std::collections::BTreeSet;

/// A left relation `(x, site)` and a right relation `(site, y)`, both
/// with `x` and `y` on `A1` (so alignment moves `y` to its interleaved
/// partner `A2`), and `site` on `K`.
struct World {
    u: Universe,
    x: AttrId,
    site: AttrId,
    y: AttrId,
    a1: PhysDomId,
    a2: PhysDomId,
    k: PhysDomId,
}

const VALS: u64 = 12;
const SITES: u64 = 6;

/// `keys_at_bottom` declares `K` after the interleaved `A1`/`A2` block,
/// so its bits sit below them; otherwise `K` comes first, on top.
fn world(backend: Backend, frames: Option<usize>, keys_at_bottom: bool) -> World {
    let u = match frames {
        None => Universe::new_with_backend(backend),
        Some(n) => Universe::new_paged_with_backend(backend, n).expect("page file"),
    };
    let d_val = u.add_domain("Val", VALS);
    let d_site = u.add_domain("Site", SITES);
    let x = u.add_attribute("x", d_val);
    let site = u.add_attribute("site", d_site);
    let y = u.add_attribute("y", d_val);
    let (a, k) = if keys_at_bottom {
        let a = u.add_physical_domains_interleaved(&["A1", "A2"], 4);
        (a, u.add_physical_domain("K", 3))
    } else {
        let k = u.add_physical_domain("K", 3);
        (u.add_physical_domains_interleaved(&["A1", "A2"], 4), k)
    };
    World {
        u,
        x,
        site,
        y,
        a1: a[0],
        a2: a[1],
        k,
    }
}

fn random_pairs(rng: &mut XorShift64Star, first: u64, second: u64) -> BTreeSet<(u64, u64)> {
    let density = rng.gen_range(1..8) as f64 / 10.0;
    let mut out = BTreeSet::new();
    for a in 0..first {
        for b in 0..second {
            if rng.gen_bool(density) {
                out.insert((a, b));
            }
        }
    }
    out
}

fn relation(
    u: &Universe,
    schema: &[(AttrId, PhysDomId)],
    pairs: &BTreeSet<(u64, u64)>,
) -> Relation {
    let tuples: Vec<Vec<u64>> = pairs.iter().map(|&(a, b)| vec![a, b]).collect();
    Relation::from_tuples(u, schema, &tuples).expect("from_tuples")
}

/// Runs `seeds` random join/compose pairs against the `BTreeSet` oracle
/// and returns how many key restrictions they took.
fn check_against_oracle(w: &World, seeds: u64, ctx: &str) -> u64 {
    let before = w.u.stats().key_restrictions;
    for seed in 0..seeds {
        let mut rng = XorShift64Star::new(0x6b65_7973 ^ seed);
        let left = random_pairs(&mut rng, VALS, SITES);
        let right = random_pairs(&mut rng, SITES, VALS);
        let l = relation(&w.u, &[(w.x, w.a1), (w.site, w.k)], &left);
        let r = relation(&w.u, &[(w.site, w.k), (w.y, w.a1)], &right);

        let joined: BTreeSet<Vec<u64>> = l
            .join(&[w.site], &r, &[w.site])
            .expect("join")
            .tuples()
            .into_iter()
            .collect();
        let composed: BTreeSet<Vec<u64>> = l
            .compose(&[w.site], &r, &[w.site])
            .expect("compose")
            .tuples()
            .into_iter()
            .collect();
        let mut join_oracle = BTreeSet::new();
        let mut compose_oracle = BTreeSet::new();
        for &(x, s) in &left {
            for &(_, y) in right.range((s, 0)..(s + 1, 0)) {
                join_oracle.insert(vec![x, s, y]);
                compose_oracle.insert(vec![x, y]);
            }
        }
        assert_eq!(joined, join_oracle, "{ctx} seed {seed}: join");
        assert_eq!(composed, compose_oracle, "{ctx} seed {seed}: compose");
    }
    w.u.stats().key_restrictions - before
}

#[test]
fn keys_at_the_bottom_cut_the_right_operand_and_match_the_oracle() {
    for backend in [Backend::Bdd, Backend::Cbdd] {
        // Two resident frames fault on almost every node, so the paged
        // cells run fewer seeds.
        for (frames, seeds) in [(None, 24), (Some(2), 4)] {
            let ctx = format!("{backend:?} frames {frames:?}");
            let w = world(backend, frames, true);
            let cuts = check_against_oracle(&w, seeds, &ctx);
            assert_eq!(cuts, 2 * seeds, "{ctx}: every join and compose cuts");
        }
    }
}

#[test]
fn keys_on_top_leave_the_right_operand_whole() {
    for backend in [Backend::Bdd, Backend::Cbdd] {
        let w = world(backend, None, false);
        let cuts = check_against_oracle(&w, 8, &format!("{backend:?} keys on top"));
        assert_eq!(cuts, 0, "{backend:?}: no cut with the keys on top");
    }
}

/// The `call-edges` shape of points-to: a small delta `(dst, site)`
/// joined on `site` with a `(site, var)` relation giving every site its
/// receiver, `site` on `C1` below the interleaved `V1`/`V2`.
struct CallEdges {
    u: Universe,
    site: AttrId,
    site_recv: Relation,
    delta: Relation,
}

fn call_edges() -> CallEdges {
    const BITS: usize = 12;
    let n = 1u64 << BITS;
    let u = Universe::new_with_backend(Backend::Bdd);
    let d_var = u.add_domain("Var", n);
    let d_site = u.add_domain("Site", n);
    let dst = u.add_attribute("dst", d_var);
    let site = u.add_attribute("site", d_site);
    let var = u.add_attribute("var", d_var);
    let v = u.add_physical_domains_interleaved(&["V1", "V2"], BITS);
    let c1 = u.add_physical_domain("C1", BITS);
    let mut rng = XorShift64Star::new(70);
    let recv: Vec<Vec<u64>> = (0..n).map(|s| vec![s, rng.gen_range(0..n)]).collect();
    // `var` already sits on `V2`, so the join moves nothing.
    let site_recv = Relation::from_tuples(&u, &[(site, c1), (var, v[1])], &recv).expect("recv");
    let delta: Vec<Vec<u64>> = (0..16)
        .map(|_| vec![rng.gen_range(0..n), rng.gen_range(0..n)])
        .collect();
    let delta = Relation::from_tuples(&u, &[(dst, v[0]), (site, c1)], &delta).expect("delta");
    CallEdges {
        u,
        site,
        site_recv,
        delta,
    }
}

/// Without the cut the `and` pairs every `V1` path of the delta with
/// every `V2` path of the right operand before it compares a site, so
/// its lookups grow with their product. With the cut they stay within a
/// small multiple of the operands' nodes.
#[test]
fn call_edge_shaped_join_costs_lookups_linear_in_its_operands() {
    let c = call_edges();
    let linear = 4 * (c.delta.node_count() + c.site_recv.node_count()) as u64;
    let mgr = c.u.bdd_manager();
    let before = mgr.kernel_stats().cache_lookups;
    let joined = c
        .delta
        .join(&[c.site], &c.site_recv, &[c.site])
        .expect("join");
    let cut = mgr.kernel_stats().cache_lookups - before;
    assert_eq!(joined.size(), c.delta.size(), "one receiver per site");
    assert_eq!(c.u.stats().key_restrictions, 1);
    assert!(cut <= linear, "{cut} lookups, bound {linear}");

    // The same `and` without the cut, in a fresh universe so no cache
    // entry carries over: the bound above would not hold for it.
    let c = call_edges();
    let mgr = c.u.bdd_manager();
    let before = mgr.kernel_stats().cache_lookups;
    c.delta.bdd().try_and(c.site_recv.bdd()).expect("and");
    let uncut = mgr.kernel_stats().cache_lookups - before;
    assert!(
        uncut > 3 * linear,
        "{uncut} lookups without the cut, bound {linear}"
    );
}

#[test]
fn a_node_limit_inside_the_cut_names_the_join() {
    for backend in [Backend::Bdd, Backend::Cbdd] {
        let w = world(backend, None, true);
        // Every `x` and every `y` meets one site, so the left operand's
        // key set {0, 1, 2} is a diagram neither operand contains: the cut
        // must build new nodes before any `and` runs.
        let left: BTreeSet<(u64, u64)> = (0..VALS).map(|x| (x, x % 3)).collect();
        let right: BTreeSet<(u64, u64)> = (0..VALS).map(|y| (y % SITES, y)).collect();
        let l = relation(&w.u, &[(w.x, w.a1), (w.site, w.k)], &left);
        // `y` already sits on `A2`: alignment moves nothing, so the first
        // node the join asks for is the cut's.
        let r = relation(&w.u, &[(w.site, w.k), (w.y, w.a2)], &right);

        let mgr = w.u.bdd_manager();
        mgr.gc();
        let and_lookups = || mgr.kernel_stats().op_cache("and").expect("and").lookups;
        let ands = and_lookups();
        w.u.set_budget(Budget::unlimited().with_max_live_nodes(mgr.live_nodes()));
        let err = l
            .join(&[w.site], &r, &[w.site])
            .expect_err("the cut needs nodes the limit does not leave");
        w.u.set_budget(Budget::unlimited());
        // The cut's projection of `l` tripped: no `and` had started.
        assert_eq!(and_lookups(), ands, "{backend:?}: tripped in an and");
        match err {
            JeddError::ResourceExhausted {
                op,
                cause: BddError::NodeLimit { .. },
                ..
            } => assert_eq!(op, "join", "{backend:?}"),
            other => panic!("{backend:?}: expected a node-limit trip, got {other}"),
        }
        assert_eq!(w.u.stats().key_restrictions, 1, "{backend:?}");

        // Both operands survive the trip, and the join completes without
        // the limit.
        let joined = l.join(&[w.site], &r, &[w.site]).expect("join");
        let expect = left
            .iter()
            .map(|&(_, s)| right.range((s, 0)..(s + 1, 0)).count() as u64)
            .sum::<u64>();
        assert_eq!(joined.size(), expect, "{backend:?}");
    }
}
