//! Hand-coded BDD points-to analysis — the Table 2 baseline.
//!
//! The paper compares Jedd-generated code against the hand-written C++
//! implementation of Berndl et al. \[5\], which manipulates the BDD library
//! directly: explicit physical domains, hand-placed `replace` operations
//! and raw `and`/`or`/`and_exists` calls. This module is that style of
//! implementation on our kernel: no relational layer, no schema checking,
//! no automatic alignment — just bit vectors and permutations. It computes
//! exactly the same solution as [`crate::pointsto::analyze`] (asserted by
//! tests), so timing both measures the relational abstraction's overhead.

use crate::ir::Program;
use jedd_bdd::{Bdd, BddManager, Permutation};

/// The explicit bit layout: identical variable order to
/// [`crate::facts::Facts`] so the comparison is apples-to-apples.
pub struct Layout {
    /// The manager.
    pub mgr: BddManager,
    /// Type domains (interleaved).
    pub t1: Vec<u32>,
    /// Second type domain.
    pub t2: Vec<u32>,
    /// Third type domain.
    pub t3: Vec<u32>,
    /// Signature domain.
    pub s1: Vec<u32>,
    /// Method domains.
    pub m1: Vec<u32>,
    /// Second method domain.
    pub m2: Vec<u32>,
    /// Field domain.
    pub f1: Vec<u32>,
    /// Variable domains (interleaved).
    pub v1: Vec<u32>,
    /// Second variable domain.
    pub v2: Vec<u32>,
    /// Object domains (interleaved).
    pub h1: Vec<u32>,
    /// Second object domain.
    pub h2: Vec<u32>,
    /// Third object domain.
    pub h3: Vec<u32>,
    /// Call-site domain.
    pub c1: Vec<u32>,
}

fn bits_for(n: usize) -> usize {
    let n = n.max(2) as u64;
    (64 - (n - 1).leading_zeros() as usize).max(1)
}

fn interleave(mgr: &BddManager, count: usize, bits: usize) -> Vec<Vec<u32>> {
    let range = mgr.add_vars(bits * count);
    let base = range.start;
    (0..count)
        .map(|i| {
            (0..bits as u32)
                .map(|b| base + b * count as u32 + i as u32)
                .collect()
        })
        .collect()
}

impl Layout {
    /// Allocates the layout for a program.
    pub fn new(p: &Program) -> Layout {
        let mgr = BddManager::new(0);
        let ts = interleave(&mgr, 3, bits_for(p.types));
        let s1: Vec<u32> = mgr.add_vars(bits_for(p.sigs)).collect();
        let ms = interleave(&mgr, 2, bits_for(p.methods));
        let f1: Vec<u32> = mgr.add_vars(bits_for(p.fields)).collect();
        let vs = interleave(&mgr, 2, bits_for(p.vars));
        let hs = interleave(&mgr, 3, bits_for(p.allocs));
        let c1: Vec<u32> = mgr.add_vars(bits_for(p.call_sites)).collect();
        let _p1: Vec<u32> = mgr.add_vars(1).collect();
        Layout {
            mgr,
            t1: ts[0].clone(),
            t2: ts[1].clone(),
            t3: ts[2].clone(),
            s1,
            m1: ms[0].clone(),
            m2: ms[1].clone(),
            f1,
            v1: vs[0].clone(),
            v2: vs[1].clone(),
            h1: hs[0].clone(),
            h2: hs[1].clone(),
            h3: hs[2].clone(),
            c1,
        }
    }

    fn perm(from: &[u32], to: &[u32]) -> Permutation {
        let pairs: Vec<(u32, u32)> = from.iter().copied().zip(to.iter().copied()).collect();
        Permutation::from_pairs(&pairs)
    }
}

/// The hand-coded analysis result (raw BDDs).
pub struct RawPointsTo {
    /// `pt(V1, H1)`.
    pub pt: Bdd,
    /// `fieldPt(H2, F1, H1)`.
    pub field_pt: Bdd,
    /// `cg(C1, M1)`.
    pub cg: Bdd,
    /// The layout (for decoding).
    pub layout: Layout,
}

impl RawPointsTo {
    /// Decodes `pt` into `(var, obj)` pairs, for validation.
    pub fn pt_pairs(&self) -> Vec<(u64, u64)> {
        decode_pairs(&self.pt, &self.layout.v1, &self.layout.h1)
    }

    /// Decodes `cg` into `(site, method)` pairs.
    pub fn cg_pairs(&self) -> Vec<(u64, u64)> {
        decode_pairs(&self.cg, &self.layout.c1, &self.layout.m1)
    }
}

fn decode_pairs(bdd: &Bdd, a: &[u32], b: &[u32]) -> Vec<(u64, u64)> {
    let mut vars: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
    vars.sort_unstable();
    let pos = |bits: &[u32], assignment: &[bool], vars: &[u32]| -> u64 {
        let mut v = 0u64;
        for &bit in bits {
            let i = vars.binary_search(&bit).expect("bit");
            v = (v << 1) | u64::from(assignment[i]);
        }
        v
    };
    let mut out = Vec::new();
    bdd.foreach_sat(&vars, |asg| {
        out.push((pos(a, asg, &vars), pos(b, asg, &vars)));
        true
    });
    out.sort_unstable();
    out.dedup();
    out
}

/// Runs the hand-coded points-to analysis with an on-the-fly call graph.
/// Mirrors [`crate::pointsto::analyze`] operation for operation, with all
/// physical-domain bookkeeping done by hand (the paper's baseline style).
pub fn analyze(p: &Program) -> RawPointsTo {
    let l = Layout::new(p);
    let mgr = l.mgr.clone();

    // --- Base relations, hand-encoded. ---
    // extend(T1=sub, T2=sup), declares(T2, S1, M1), objtype(H1, T1),
    // news(V1, H1), assigns(V2=dst, V1=src), loads(V2=dst, V1=base, F1),
    // stores(V1=base, F1, V2=src), siteRecv(C1, V1), siteSig(C1, S1),
    // methodThis(M1, V1), methodRet(M1, V1).
    let mut extend = mgr.constant_false();
    for &(s, t) in &p.extend {
        extend = mgr.insert_values(&extend, &[(&l.t1, s as u64), (&l.t2, t as u64)]);
    }
    let mut declares = mgr.constant_false();
    for &(t, s, m) in &p.declares {
        let x = [(&l.t2[..], t as u64), (&l.s1, s as u64), (&l.m1, m as u64)];
        declares = mgr.insert_values(&declares, &x);
    }
    let mut objtype = mgr.constant_false();
    for &(a, t) in &p.alloc_type {
        objtype = mgr.insert_values(&objtype, &[(&l.h1, a as u64), (&l.t1, t as u64)]);
    }
    let mut pt = mgr.constant_false();
    for &(_, v, a) in &p.news {
        pt = mgr.insert_values(&pt, &[(&l.v1, v as u64), (&l.h1, a as u64)]);
    }
    let mut assigns = mgr.constant_false();
    for &(_, d, s) in &p.assigns {
        assigns = mgr.insert_values(&assigns, &[(&l.v2, d as u64), (&l.v1, s as u64)]);
    }
    let mut loads = mgr.constant_false();
    for &(_, d, b, ff) in &p.loads {
        let x = [(&l.v2[..], d as u64), (&l.v1, b as u64), (&l.f1, ff as u64)];
        loads = mgr.insert_values(&loads, &x);
    }
    let mut stores = mgr.constant_false();
    for &(_, b, ff, s) in &p.stores {
        let x = [(&l.v1[..], b as u64), (&l.v2, s as u64), (&l.f1, ff as u64)];
        stores = mgr.insert_values(&stores, &x);
    }
    let mut site_recv = mgr.constant_false();
    let mut site_sig = mgr.constant_false();
    for c in &p.calls {
        let site = (&l.c1[..], c.site as u64);
        site_recv = mgr.insert_values(&site_recv, &[site, (&l.v1, c.recv as u64)]);
        site_sig = mgr.insert_values(&site_sig, &[site, (&l.s1, c.sig as u64)]);
    }
    let mut method_this = mgr.constant_false();
    for &(m, v) in &p.method_this {
        method_this = mgr.insert_values(&method_this, &[(&l.m1, m as u64), (&l.v1, v as u64)]);
    }
    let mut method_ret = mgr.constant_false();
    for &(m, v) in &p.method_ret {
        method_ret = mgr.insert_values(&method_ret, &[(&l.m1, m as u64), (&l.v1, v as u64)]);
    }
    // site args / method params with the param index expanded by hand
    // (small position counts; the hand-coded version simply burns one
    // relation pair per position, as the C++ implementation did).
    let max_idx = p
        .method_params
        .iter()
        .map(|&(_, i, _)| i + 1)
        .max()
        .unwrap_or(0);
    let mut site_arg_by_idx: Vec<Bdd> = Vec::new();
    let mut method_param_by_idx: Vec<Bdd> = Vec::new();
    for i in 0..max_idx {
        let mut sa = mgr.constant_false();
        for c in &p.calls {
            if let Some(&a) = c.args.get(i as usize) {
                sa = mgr.insert_values(&sa, &[(&l.c1, c.site as u64), (&l.v1, a as u64)]);
            }
        }
        site_arg_by_idx.push(sa);
        let mut mp = mgr.constant_false();
        for &(m, idx, v) in &p.method_params {
            if idx == i {
                mp = mgr.insert_values(&mp, &[(&l.m1, m as u64), (&l.v1, v as u64)]);
            }
        }
        method_param_by_idx.push(mp);
    }
    let mut site_ret = mgr.constant_false();
    for c in &p.calls {
        if let Some(r) = c.ret {
            site_ret = mgr.insert_values(&site_ret, &[(&l.c1, c.site as u64), (&l.v1, r as u64)]);
        }
    }

    // Precomputed cubes and permutations (the hand-coded style: every
    // replace spelled out).
    let cube_v1 = mgr.cube(&l.v1);
    let cube_h1 = mgr.cube(&l.h1);

    let cube_s1 = mgr.cube(&l.s1);
    let cube_t2 = mgr.cube(&l.t2);
    let cube_c1 = mgr.cube(&l.c1);
    let cube_m1 = mgr.cube(&l.m1);
    let cube_f1_h2 = mgr.cube(&[l.f1.clone(), l.h2.clone()].concat());
    let v2_to_v1 = Layout::perm(&l.v2, &l.v1);
    let v1_to_v2 = Layout::perm(&l.v1, &l.v2);
    let h1_to_h2 = Layout::perm(&l.h1, &l.h2);
    let t1_to_t2 = Layout::perm(&l.t1, &l.t2);
    let t3_to_t2 = Layout::perm(&l.t3, &l.t2);
    // extend moved from (T1, T2) to (T2, T3) for the hierarchy walk, in
    // one simultaneous permutation.
    let extend_walk = extend.replace(&Permutation::from_pairs(
        &l.t1
            .iter()
            .copied()
            .zip(l.t2.iter().copied())
            .chain(l.t2.iter().copied().zip(l.t3.iter().copied()))
            .collect::<Vec<_>>(),
    ));

    let mut field_pt = mgr.constant_false(); // (H2, F1, H1)
    let mut cg = mgr.constant_false(); // (C1, M1)
    let mut edges = assigns.clone(); // (V2, V1)

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        // 1. Copy propagation.
        loop {
            // step(V2, H1) = exists V1. edges(V2,V1) & pt(V1,H1)
            let step = edges.and_exists(&pt, &cube_v1);
            let step = step.replace(&v2_to_v1); // dst -> var position
            let next = pt.or(&step);
            if next == pt {
                break;
            }
            pt = next;
        }
        // pt with the object half moved to H2 (base-object form).
        let pt_base = pt.replace(&h1_to_h2); // (V1, H2)

        // 2. Stores: (F1, V2, H2) = exists V1. stores & pt_base; then
        //    (F1, H2, H1) = exists V2. (…)[V2->V1] & pt.
        let st = stores.and_exists(&pt_base, &cube_v1); // (F1, V2, H2)
        let st = st.replace(&v2_to_v1); // src to V1
        let st = st.and_exists(&pt, &cube_v1); // (F1, H2, H1)
        field_pt = field_pt.or(&st);

        // 3. Loads: (V2, F1, H2) = exists V1. loads & pt_base;
        //    (V2, H1) = exists F1,H2. (…) & field_pt.
        let ld = loads.and_exists(&pt_base, &cube_v1);
        let ld = ld.and_exists(&field_pt, &cube_f1_h2);
        let ld = ld.replace(&v2_to_v1);
        let pt_next = pt.or(&ld);

        // 4. Call graph: receiver objects -> types -> dispatch walk.
        // siteObj(C1, H1) = exists V1. site_recv & pt
        let site_objs = site_recv.and_exists(&pt_next, &cube_v1);
        // siteType(C1, T1) = exists H1. site_objs & objtype
        let site_types = site_objs.and_exists(&objtype, &cube_h1);
        // Pair with signatures: (C1, T1, S1).
        let with_sig = site_types.and(&site_sig);
        // Hierarchy walk (Fig. 4 by hand): cursor in T2.
        let mut to_resolve = with_sig.replace(&t1_to_t2); // (C1, T2, S1)
        let mut cg_next = mgr.constant_false();
        loop {
            // resolved(C1, T2, S1, M1) = to_resolve & declares
            let resolved = to_resolve.and(&declares);
            // answer(C1, M1) += exists T2,S1.
            let ans = resolved.exists(&cube_t2).exists(&cube_s1);
            cg_next = cg_next.or(&ans);
            // to_resolve -= exists M1. resolved
            let resolved_sites = resolved.exists(&cube_m1);
            to_resolve = to_resolve.diff(&resolved_sites);
            // Walk up: match the cursor (T2) with extend's subtype side.
            let stepped = to_resolve.and_exists(&extend_walk, &cube_t2); // (C1, T3, S1)
            to_resolve = stepped.replace(&t3_to_t2);
            if to_resolve.is_false() {
                break;
            }
        }

        // 5. Interprocedural edges.
        // this: (V2=this, V1=recv): cg(C1,M1) & method_this(M1,V1->V2),
        //       exists M1; join with site_recv(C1,V1), exists C1.
        let mt_dst = method_this.replace(&v1_to_v2); // (M1, V2)
        let te = cg_next.and_exists(&mt_dst, &cube_m1); // (C1, V2)
        let te = te.and_exists(&site_recv, &cube_c1); // (V2, V1)
        let mut new_edges = te;
        for i in 0..max_idx as usize {
            let mp_dst = method_param_by_idx[i].replace(&v1_to_v2);
            let pe = cg_next.and_exists(&mp_dst, &cube_m1);
            let pe = pe.and_exists(&site_arg_by_idx[i], &cube_c1);
            new_edges = new_edges.or(&pe);
        }
        // ret: src = method_ret var (V1), dst = site_ret var -> V2.
        let re = cg_next.and_exists(&method_ret, &cube_m1); // (C1, V1=retvar)
        let sr_dst = site_ret.replace(&v1_to_v2); // (C1, V2)
        let re = re.and_exists(&sr_dst, &cube_c1); // (V1, V2) with src=V1
        new_edges = new_edges.or(&re);
        let edges_next = edges.or(&new_edges);

        let done = pt_next == pt && cg_next == cg && edges_next == edges;
        pt = pt_next;
        cg = cg_next;
        edges = edges_next;
        if done {
            let _ = rounds;
            return RawPointsTo {
                pt,
                field_pt,
                cg,
                layout: l,
            };
        }
        assert!(rounds < 10_000, "hand-coded points-to failed to converge");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline_sets;
    use crate::synth::Benchmark;

    #[test]
    fn matches_set_baseline() {
        for b in [Benchmark::Tiny, Benchmark::Compress] {
            let p = b.generate();
            let raw = analyze(&p);
            let sets = baseline_sets::points_to(&p);
            let expect_pt: Vec<(u64, u64)> = {
                let mut v: Vec<(u64, u64)> =
                    sets.pt.iter().map(|&(a, b)| (a as u64, b as u64)).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(raw.pt_pairs(), expect_pt, "pt mismatch on {}", b.name());
            let expect_cg: Vec<(u64, u64)> = {
                let mut v: Vec<(u64, u64)> =
                    sets.cg.iter().map(|&(a, b)| (a as u64, b as u64)).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(raw.cg_pairs(), expect_cg, "cg mismatch on {}", b.name());
        }
    }
}
