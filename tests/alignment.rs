//! Physical-domain alignment: when a join or compose must move one of the
//! right operand's kept attributes off a domain the left operand uses, it
//! moves it into a free declared domain that keeps the level order (the
//! interleaved partner the hand-coded baseline uses) rather than a scratch
//! domain appended below every declared variable. A scratch domain is the
//! fallback only when no such domain exists.

use jedd::analyses::baseline_sets;
use jedd::analyses::facts::Facts;
use jedd::analyses::pointsto::{self, CallGraphMode};
use jedd::analyses::synth::Benchmark;
use jedd::core::{AttrId, Backend, PhysDomId, Relation, Universe};
use std::collections::BTreeSet;

#[test]
fn points_to_allocates_no_scratch_domain_and_matches_the_set_baseline() {
    for b in [Benchmark::Compress, Benchmark::Javac] {
        let p = b.generate();
        let f = Facts::load(&p).expect("facts");
        let declared = f.u.num_physdoms();
        let before = f.u.bdd_manager().kernel_stats();
        let r = pointsto::analyze(&f, CallGraphMode::OnTheFly).expect("points-to");
        let after = f.u.bdd_manager().kernel_stats();
        assert_eq!(
            f.u.num_physdoms(),
            declared,
            "{}: scratch domain created",
            b.name()
        );

        let got: BTreeSet<(u32, u32)> =
            r.pt.tuples()
                .into_iter()
                .map(|t| (t[0] as u32, t[1] as u32))
                .collect();
        assert_eq!(got, baseline_sets::points_to(&p).pt, "{}: pt", b.name());

        // The moves alignment issues are order-preserving; the few `ite`
        // rebuilds left come from explicit V1/V2 exchanges in the analysis.
        let rebuilds = after.replace_rebuilds - before.replace_rebuilds;
        let replace = after.op_cache("replace").unwrap().lookups
            - before.op_cache("replace").unwrap().lookups;
        assert!(
            rebuilds * 20 < replace,
            "{}: {rebuilds} of {replace} replace steps rebuilt through ite",
            b.name()
        );
    }
}

/// Var values fit in 3 bits, call sites in 2.
struct World {
    u: Universe,
    site: AttrId,
    src: AttrId,
    dst: AttrId,
    v1: PhysDomId,
    c1: PhysDomId,
}

/// A universe with 3-bit variable domains: the `above` group interleaved
/// above a 2-bit `C1` block, the `below` group interleaved beneath it.
/// Returns the world (with `v1` the first domain above) and the ids of
/// `above` then `below`.
fn world(above: &[&str], below: &[&str]) -> (World, Vec<PhysDomId>) {
    let u = Universe::new_with_backend(Backend::Bdd);
    let d_var = u.add_domain("Var", 8);
    let d_site = u.add_domain("Site", 4);
    let mut vars = u.add_physical_domains_interleaved(above, 3);
    let c1 = u.add_physical_domain("C1", 2);
    if !below.is_empty() {
        vars.extend(u.add_physical_domains_interleaved(below, 3));
    }
    let w = World {
        site: u.add_attribute("site", d_site),
        src: u.add_attribute("src", d_var),
        dst: u.add_attribute("dst", d_var),
        v1: vars[0],
        c1,
        u,
    };
    (w, vars)
}

const LEFT: [(u64, u64); 5] = [(0, 1), (0, 2), (1, 3), (2, 7), (3, 0)];
const RIGHT: [(u64, u64); 5] = [(0, 4), (1, 5), (1, 6), (2, 2), (3, 0)];

/// `left{site} <> right{site}` with both operands' variable attribute on
/// `V1`, so the right operand's kept `dst` must move. Returns the result
/// and the domain `dst` moved to, after checking the tuples against a
/// `BTreeSet` oracle.
fn compose_forcing_a_move(w: &World) -> (Relation, PhysDomId) {
    let rows = |r: &[(u64, u64)]| -> Vec<Vec<u64>> { r.iter().map(|&(s, v)| vec![s, v]).collect() };
    let left = Relation::from_tuples(&w.u, &[(w.site, w.c1), (w.src, w.v1)], &rows(&LEFT)).unwrap();
    let right =
        Relation::from_tuples(&w.u, &[(w.site, w.c1), (w.dst, w.v1)], &rows(&RIGHT)).unwrap();
    let out = left.compose(&[w.site], &right, &[w.site]).unwrap();

    let expect: BTreeSet<Vec<u64>> = LEFT
        .iter()
        .flat_map(|&(s, src)| {
            RIGHT
                .iter()
                .filter(move |&&(t, _)| t == s)
                .map(move |&(_, dst)| vec![src, dst])
        })
        .collect();
    // Tuples come in attribute-registration order: (src, dst).
    let got: BTreeSet<Vec<u64>> = out.tuples().into_iter().collect();
    assert_eq!(got, expect);
    let moved_to = out.physdom_of(w.dst).unwrap();
    (out, moved_to)
}

#[test]
fn kept_attribute_moves_into_the_free_interleaved_partner() {
    let (w, vars) = world(&["V1", "V2"], &[]);
    let declared = w.u.num_physdoms();
    let before = w.u.bdd_manager().kernel_stats().replace_rebuilds;
    let (_, moved_to) = compose_forcing_a_move(&w);
    assert_eq!(moved_to, vars[1], "dst should move to V2");
    assert_eq!(w.u.num_physdoms(), declared, "no scratch domain");
    assert_eq!(
        w.u.bdd_manager().kernel_stats().replace_rebuilds,
        before,
        "an order-preserving move needs no ite rebuild"
    );
}

#[test]
fn kept_attribute_falls_back_to_a_scratch_domain_when_none_keeps_the_order() {
    // X1 is free and as wide as V1, but sits below C1: moving V1's bits
    // there would carry them across C1's, reversing the order.
    let (w, vars) = world(&["V1"], &["X1"]);
    let declared = w.u.num_physdoms();
    let (_, moved_to) = compose_forcing_a_move(&w);
    assert_ne!(moved_to, vars[1], "X1 does not keep the order");
    assert!(w.u.physdom_is_anonymous(moved_to));
    assert_eq!(w.u.num_physdoms(), declared + 1);

    // No other 3-bit domain at all.
    let (w, _) = world(&["V1"], &[]);
    let declared = w.u.num_physdoms();
    let (_, moved_to) = compose_forcing_a_move(&w);
    assert!(w.u.physdom_name(moved_to).starts_with("_S"));
    assert_eq!(w.u.num_physdoms(), declared + 1);
}
