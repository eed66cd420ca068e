//! The Points-to Analysis module (paper Fig. 2; algorithm of Berndl et
//! al., PLDI 2003 \[5\]): a flow-insensitive, field-sensitive, subset-based
//! points-to analysis over BDD relations, with an on-the-fly call graph
//! built through virtual call resolution — the "interrelated" part of the
//! paper's five analyses.

use crate::facts::Facts;
use crate::vcr;
use jedd_core::{DeltaRel, Fixpoint, JeddError, Relation, Strategy};

/// How receiver types are determined for call-graph construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallGraphMode {
    /// Resolve receivers from the current points-to sets, iterating the
    /// two analyses to a mutual fixpoint (the paper's configuration).
    OnTheFly,
    /// Assume every type reaches every receiver (a CHA-like
    /// over-approximation); one pass, no iteration.
    AllTypes,
}

/// The result of the points-to analysis.
pub struct PointsTo {
    /// `(var, obj)` points-to pairs.
    pub pt: Relation,
    /// `(baseobj, field, obj)` field points-to pairs.
    pub field_pt: Relation,
    /// `(site, method)` call edges discovered.
    pub cg: Relation,
    /// Outer fixpoint iterations.
    pub iterations: usize,
}

/// Runs the analysis to fixpoint with the default [`Strategy`]
/// (semi-naive; produces bit-identical relations to the naive oracle).
///
/// # Errors
///
/// Propagates relational-layer errors.
pub fn analyze(f: &Facts, mode: CallGraphMode) -> Result<PointsTo, JeddError> {
    analyze_with(f, mode, Strategy::default())
}

/// Runs the analysis to fixpoint under an explicit evaluation strategy.
///
/// # Errors
///
/// Propagates relational-layer errors.
pub fn analyze_with(
    f: &Facts,
    mode: CallGraphMode,
    strategy: Strategy,
) -> Result<PointsTo, JeddError> {
    analyze_impl(f, mode, None, strategy)
}

/// Runs the analysis with declared-type filtering: a variable may only
/// point to objects whose class is a subtype of the variable's declared
/// type. This consumes the Hierarchy module's `subtypeOf` closure — the
/// Fig. 2 arrow from Hierarchy into Points-to Analysis.
///
/// # Errors
///
/// Propagates relational-layer errors.
pub fn analyze_typed(
    f: &Facts,
    mode: CallGraphMode,
    subtype_of: &Relation,
) -> Result<PointsTo, JeddError> {
    analyze_typed_with(f, mode, subtype_of, Strategy::default())
}

/// [`analyze_typed`] under an explicit evaluation strategy.
///
/// # Errors
///
/// Propagates relational-layer errors.
pub fn analyze_typed_with(
    f: &Facts,
    mode: CallGraphMode,
    subtype_of: &Relation,
    strategy: Strategy,
) -> Result<PointsTo, JeddError> {
    let allowed = typed_filter(f, subtype_of)?;
    analyze_impl(f, mode, Some(&allowed), strategy)
}

/// `allowed(var, obj)`: the object's class is a subtype of the variable's
/// declared type. Consumes the Hierarchy module's `subtypeOf` closure —
/// shared by [`analyze_typed_with`] and the checkpointed driver.
pub(crate) fn typed_filter(f: &Facts, subtype_of: &Relation) -> Result<Relation, JeddError> {
    f.u.set_site("pointsto-filter");
    // (obj, ty) with ty renamed to subtype (already at a T domain).
    let obj_sub = f.objtype.rename(f.ty, f.subtype)?.with_assignment(&[(f.subtype, f.t1)])?;
    // (obj, supertype) = obj_sub{subtype} <> subtypeOf{subtype}
    let obj_sup = obj_sub.compose(&[f.subtype], subtype_of, &[f.subtype])?;
    // (obj, ty) at T2, matching var_type's type position.
    let obj_ok = obj_sup
        .rename(f.supertype, f.ty)?
        .with_assignment(&[(f.ty, f.t2)])?;
    // (var, obj) = var_type{ty} <> obj_ok{ty}
    f.var_type.compose(&[f.ty], &obj_ok, &[f.ty])
}

fn analyze_impl(
    f: &Facts,
    mode: CallGraphMode,
    allowed: Option<&Relation>,
    strategy: Strategy,
) -> Result<PointsTo, JeddError> {
    match strategy {
        Strategy::Naive => analyze_naive(f, mode, allowed),
        Strategy::SemiNaive => analyze_seminaive(f, mode, allowed),
    }
}

/// The naive oracle: every round re-derives from the full relations. Kept
/// verbatim (modulo the divergence guard) so the delta engine has a
/// bit-identical reference to be checked against.
fn analyze_naive(
    f: &Facts,
    mode: CallGraphMode,
    allowed: Option<&Relation>,
) -> Result<PointsTo, JeddError> {
    f.u.set_site("pointsto");
    let filter = |r: Relation| -> Result<Relation, JeddError> {
        match allowed {
            Some(a) => r.intersect(a),
            None => Ok(r),
        }
    };
    let mut pt = filter(f.news.clone())?;
    let mut field_pt = Relation::empty(
        &f.u,
        &[(f.baseobj, f.h2), (f.field, f.f1), (f.obj, f.h1)],
    )?;
    let mut cg = Relation::empty(&f.u, &[(f.site, f.c1), (f.method, f.m1)])?;
    let mut edges = f.assigns.clone();

    let mut fp = Fixpoint::new(&f.u, "pointsto");
    loop {
        fp.begin_round()?;
        // --- 1. Copy propagation to a local fixpoint. ---
        loop {
            // step(dst, obj) = ∃src. edges(dst, src) ∧ pt(src, obj)
            let step = edges.compose(&[f.src], &pt, &[f.var])?;
            let step = step
                .rename(f.dst, f.var)?
                .with_assignment(&[(f.var, f.v1)])?;
            let next = filter(pt.union(&step)?)?;
            if next.equals(&pt)? {
                break;
            }
            pt = next;
        }

        // pt with the object moved aside and named baseobj, for matching
        // base variables of loads/stores.
        let pt_base = pt
            .rename(f.obj, f.baseobj)?
            .with_assignment(&[(f.baseobj, f.h2)])?;

        // --- 2. Stores: base.field = src. ---
        // (field, src, baseobj) = stores{base} <> pt_base{var}
        let st = f.stores.compose(&[f.base], &pt_base, &[f.var])?;
        // (field, baseobj, obj) = st{src} <> pt{var}
        let st = st.compose(&[f.src], &pt, &[f.var])?;
        field_pt = field_pt.union(&st)?;

        // --- 3. Loads: dst = base.field. ---
        // (dst, field, baseobj) = loads{base} <> pt_base{var}
        let ld = f.loads.compose(&[f.base], &pt_base, &[f.var])?;
        // (dst, obj) = ld{baseobj, field} <> field_pt{baseobj, field}
        let ld = ld.compose(&[f.baseobj, f.field], &field_pt, &[f.baseobj, f.field])?;
        let ld = ld.rename(f.dst, f.var)?.with_assignment(&[(f.var, f.v1)])?;
        let pt_next = filter(pt.union(&ld)?)?;

        // --- 4. Call graph. ---
        let site_types = match mode {
            CallGraphMode::OnTheFly => {
                // (site, obj) = site_recv{var} <> pt{var}
                let site_objs = f.site_recv.compose(&[f.var], &pt_next, &[f.var])?;
                // (site, type) = site_objs{obj} <> objtype{obj}
                site_objs.compose(&[f.obj], &f.objtype, &[f.obj])?
            }
            CallGraphMode::AllTypes => {
                Relation::full(&f.u, &[(f.site, f.c1), (f.ty, f.t1)])?
            }
        };
        let cg_next = vcr::resolve(f, &site_types)?;
        f.u.set_site("pointsto");

        // --- 5. Interprocedural assignment edges from call edges. ---
        // this-parameter: this(callee) := recv(site).
        let this_edges = cg_next
            .join(&[f.method], &f.method_this, &[f.method])?
            .rename(f.var, f.dst)?
            .join(&[f.site], &f.site_recv, &[f.site])?
            .rename(f.var, f.src)?
            .project_onto(&[f.dst, f.src])?;
        // parameters: param(callee, i) := arg(site, i).
        let param_edges = cg_next
            .join(&[f.method], &f.method_param, &[f.method])?
            .rename(f.var, f.dst)?
            .join(&[f.site, f.idx], &f.site_arg, &[f.site, f.idx])?
            .rename(f.var, f.src)?
            .project_onto(&[f.dst, f.src])?;
        // returns: ret(site) := retvar(callee).
        let ret_edges = cg_next
            .join(&[f.method], &f.method_ret, &[f.method])?
            .rename(f.var, f.src)?
            .join(&[f.site], &f.site_ret, &[f.site])?
            .rename(f.var, f.dst)?
            .project_onto(&[f.dst, f.src])?;
        let new_edges = this_edges.union(&param_edges)?.union(&ret_edges)?;
        let edges_next = edges.union(&new_edges)?;

        let done = pt_next.equals(&pt)?
            && cg_next.equals(&cg)?
            && edges_next.equals(&edges)?;
        pt = pt_next;
        cg = cg_next;
        edges = edges_next;
        fp.end_round(&[]);
        if done {
            // One more propagation round ran with no change anywhere.
            return Ok(PointsTo {
                pt,
                field_pt,
                cg,
                iterations: fp.rounds() as usize,
            });
        }
    }
}

/// The mutable state of a semi-naive points-to run between outer rounds —
/// everything [`pt_round`] reads and writes, and exactly what a
/// checkpoint must persist to resume the run (`crate::persist`).
pub(crate) struct PtState {
    /// `(var, obj)` points-to pairs.
    pub(crate) pt: DeltaRel,
    /// `(baseobj, field, obj)` field points-to pairs.
    pub(crate) field_pt: DeltaRel,
    /// `(site, method)` discovered call edges.
    pub(crate) cg: DeltaRel,
    /// `(dst, src)` assignment edges (base plus interprocedural).
    pub(crate) edges: DeltaRel,
    /// `(site, type)` receiver types pending/consumed by resolution.
    pub(crate) site_types: DeltaRel,
    /// Everything in pt the store/load/call-graph rules have consumed so
    /// far: snapshotted each round just before the loads fire, so next
    /// round's delta for those rules is a single diff against it.
    pub(crate) pt_seen: Relation,
}

impl PtState {
    pub(crate) fn into_result(self, iterations: usize) -> PointsTo {
        PointsTo {
            pt: self.pt.into_current(),
            field_pt: self.field_pt.into_current(),
            cg: self.cg.into_current(),
            iterations,
        }
    }
}

fn filtered(allowed: Option<&Relation>, r: Relation) -> Result<Relation, JeddError> {
    match allowed {
        Some(a) => r.intersect(a),
        None => Ok(r),
    }
}

/// The initial [`PtState`]: pt seeded from `news` (filtered), edges from
/// `assigns`, everything else empty.
pub(crate) fn pt_init(f: &Facts, allowed: Option<&Relation>) -> Result<PtState, JeddError> {
    Ok(PtState {
        pt: DeltaRel::new("pt", filtered(allowed, f.news.clone())?),
        field_pt: DeltaRel::new(
            "field_pt",
            Relation::empty(
                &f.u,
                &[(f.baseobj, f.h2), (f.field, f.f1), (f.obj, f.h1)],
            )?,
        ),
        cg: DeltaRel::new(
            "cg",
            Relation::empty(&f.u, &[(f.site, f.c1), (f.method, f.m1)])?,
        ),
        edges: DeltaRel::new("edges", f.assigns.clone()),
        site_types: DeltaRel::new(
            "site_types",
            Relation::empty(&f.u, &[(f.site, f.c1), (f.ty, f.t1)])?,
        ),
        pt_seen: Relation::empty(&f.u, &[(f.var, f.v1), (f.obj, f.h1)])?,
    })
}

/// One outer semi-naive round (`begin_round` through `end_round`),
/// shared verbatim by [`analyze_seminaive`] and the checkpointed driver.
/// Returns whether another round is needed.
pub(crate) fn pt_round(
    f: &Facts,
    mode: CallGraphMode,
    allowed: Option<&Relation>,
    st: &mut PtState,
    fp: &mut Fixpoint,
) -> Result<bool, JeddError> {
    let filter = |r: Relation| filtered(allowed, r);
    // pt with the object moved aside and named baseobj, for matching base
    // variables of loads/stores.
    let to_base = |r: &Relation| -> Result<Relation, JeddError> {
        r.rename(f.obj, f.baseobj)?
            .with_assignment(&[(f.baseobj, f.h2)])
    };
    let PtState {
        pt,
        field_pt,
        cg,
        edges,
        site_types,
        pt_seen,
    } = st;

    fp.begin_round()?;

    // --- 1. Copy propagation to a local fixpoint (semi-naive). ---
    // Seed: new edges against all of pt, plus all edges against Δpt;
    // afterwards only the fresh frontier needs propagating. Both
    // frontiers empty (the confirming final round) means no seeding
    // at all — an O(1) decision on the canonical node ids.
    let mut inner = Fixpoint::new(&f.u, "pointsto-copy");
    inner.begin_round()?;
    // When Δpt is all of pt (the first round), the Δpt term alone is
    // already `edges <> pt` in full and the Δedges term is redundant.
    let pt_delta_is_all = pt.delta().equals(pt.current())?;
    let mut changed = if edges.has_delta() || pt.has_delta() {
        let seed = inner.rule("seed", || {
            let combined = if edges.has_delta() && !pt_delta_is_all {
                // Both delta terms read only last round's state.
                let via_new_pt = edges.current().compose(&[f.src], pt.delta(), &[f.var])?;
                let via_new_edges = edges.delta().compose(&[f.src], pt.current(), &[f.var])?;
                via_new_edges.union(&via_new_pt)?
            } else {
                edges.current().compose(&[f.src], pt.delta(), &[f.var])?
            };
            combined
                .rename(f.dst, f.var)?
                .with_assignment(&[(f.var, f.v1)])
        })?;
        pt.absorb(&filter(seed)?)?
    } else {
        false
    };
    inner.end_round(&[pt]);
    while changed {
        inner.begin_round()?;
        // step(dst, obj) = ∃src. edges(dst, src) ∧ Δpt(src, obj)
        let step = inner.rule("step", || {
            edges
                .current()
                .compose(&[f.src], pt.delta(), &[f.var])?
                .rename(f.dst, f.var)?
                .with_assignment(&[(f.var, f.v1)])
        })?;
        changed = pt.absorb(&filter(step)?)?;
        inner.end_round(&[pt]);
    }

    // This round's pt growth for the store/load/call-graph rules: the
    // loads frontier carried in from the previous round plus whatever
    // copy propagation just derived.
    let pt_new = pt.current().minus(pt_seen)?;
    let pt_grew = !pt_new.is_empty();
    // Round one processes all of pt, so the delta terms alone already
    // cover everything (O(1) to detect: same schema, same canonical
    // root) and the full-side terms are redundant.
    let pt_new_is_all = pt_new.equals(pt.current())?;
    let pt_base_full = to_base(pt.current())?;
    let pt_base_new = if pt_new_is_all {
        pt_base_full.clone()
    } else {
        to_base(&pt_new)?
    };
    // Snapshot before the loads fire: the loads frontier belongs to
    // the *next* round's pt_new.
    *pt_seen = pt.current().clone();

    // --- 2. Stores: base.field = src, one term per body literal. ---
    if pt_grew {
        let st = fp.rule("stores", || {
            if pt_new_is_all {
                // Δ(base) resolved first, then the full src side.
                return f
                    .stores
                    .compose(&[f.base], &pt_base_new, &[f.var])?
                    .compose(&[f.src], pt.current(), &[f.var]);
            }
            // Two independent chains — Δ(base) then full src, and Δ(src)
            // then full base — each a sequence of two composes.
            let via_new_base = f.stores.compose(&[f.base], &pt_base_new, &[f.var])?;
            let via_new_src = f.stores.compose(&[f.src], &pt_new, &[f.var])?;
            let via_new_base = via_new_base.compose(&[f.src], pt.current(), &[f.var])?;
            let via_new_src = via_new_src.compose(&[f.base], &pt_base_full, &[f.var])?;
            via_new_base.union(&via_new_src)
        })?;
        field_pt.stage(&st)?;
    }
    field_pt.advance()?;

    // --- 3. Loads: dst = base.field, one term per body literal. ---
    let loads_changed = if pt_grew || field_pt.has_delta() {
        let ld = fp.rule("loads", || {
            let combined = if pt_new_is_all {
                f.loads
                    .compose(&[f.base], &pt_base_new, &[f.var])?
                    .compose(&[f.baseobj, f.field], field_pt.current(), &[f.baseobj, f.field])?
            } else {
                // As with stores: two independent chains, Δ(base) and
                // Δ(field_pt).
                let via_new_base = f.loads.compose(&[f.base], &pt_base_new, &[f.var])?;
                let via_new_field = f.loads.compose(&[f.field], field_pt.delta(), &[f.field])?;
                let via_new_base = via_new_base.compose(
                    &[f.baseobj, f.field],
                    field_pt.current(),
                    &[f.baseobj, f.field],
                )?;
                let via_new_field = via_new_field.compose(
                    &[f.base, f.baseobj],
                    &pt_base_full,
                    &[f.var, f.baseobj],
                )?;
                via_new_base.union(&via_new_field)?
            };
            combined
                .rename(f.dst, f.var)?
                .with_assignment(&[(f.var, f.v1)])
        })?;
        pt.absorb(&filter(ld)?)?
    } else {
        false
    };

    // --- 4. Call graph, driven by this round's pt growth. ---
    // The load frontier has not been copy-propagated yet, but the
    // naive driver resolves receivers from pt *including* this
    // round's loads, so the delta fed to vcr must too.
    let pt_for_cg = if loads_changed {
        pt_new.union(pt.delta())?
    } else {
        pt_new.clone()
    };
    match mode {
        CallGraphMode::OnTheFly if !pt_for_cg.is_empty() => {
            let st_new = fp.rule("site-types", || {
                // (site, type) = site_recv{var} <> Δpt{var} <> objtype{obj}
                f.site_recv
                    .compose(&[f.var], &pt_for_cg, &[f.var])?
                    .compose(&[f.obj], &f.objtype, &[f.obj])
            })?;
            site_types.stage(&st_new)?;
        }
        CallGraphMode::OnTheFly => {}
        CallGraphMode::AllTypes => {
            // Constant: every type at every site, staged once.
            if fp.rounds() == 0 {
                site_types
                    .stage(&Relation::full(&f.u, &[(f.site, f.c1), (f.ty, f.t1)])?)?;
            }
        }
    }
    site_types.advance()?;
    if site_types.has_delta() {
        // Resolution is pointwise in (site, type), so resolving only
        // the frontier and accumulating unions is exact.
        let resolved = fp.rule("resolve", || {
            let r = vcr::resolve(f, site_types.delta());
            f.u.set_site("pointsto");
            r
        })?;
        cg.stage(&resolved)?;
    }
    cg.advance()?;

    // --- 5. Interprocedural assignment edges from new call edges. ---
    if cg.has_delta() {
        let new_edges = fp.rule("call-edges", || {
            let dcg = cg.delta();
            // this-parameter: this(callee) := recv(site).
            let this_edges = dcg
                .join(&[f.method], &f.method_this, &[f.method])?
                .rename(f.var, f.dst)?
                .join(&[f.site], &f.site_recv, &[f.site])?
                .rename(f.var, f.src)?
                .project_onto(&[f.dst, f.src])?;
            // parameters: param(callee, i) := arg(site, i).
            let param_edges = dcg
                .join(&[f.method], &f.method_param, &[f.method])?
                .rename(f.var, f.dst)?
                .join(&[f.site, f.idx], &f.site_arg, &[f.site, f.idx])?
                .rename(f.var, f.src)?
                .project_onto(&[f.dst, f.src])?;
            // returns: ret(site) := retvar(callee).
            let ret_edges = dcg
                .join(&[f.method], &f.method_ret, &[f.method])?
                .rename(f.var, f.src)?
                .join(&[f.site], &f.site_ret, &[f.site])?
                .rename(f.var, f.dst)?
                .project_onto(&[f.dst, f.src])?;
            this_edges.union(&param_edges)?.union(&ret_edges)
        })?;
        edges.stage(&new_edges)?;
    }
    edges.advance()?;

    // Same termination condition as the naive driver's `done` check:
    // loads, call edges and assignment edges all quiesced this round.
    // (Δfield_pt and Δsite_types are excluded — their only consumers
    // already ran against them above.)
    let more = pt.has_delta() || cg.has_delta() || edges.has_delta();
    fp.end_round(&[pt, field_pt, cg, edges]);
    Ok(more)
}

/// The semi-naive driver: each round derives new tuples only from the
/// frontiers of the previous round. Bilinear rules split into one term
/// per body literal — `Δa ⊗ b_full ∪ a_full ⊗ Δb` — with the composes
/// associated so every intermediate stays delta-restricted. The round
/// structure mirrors [`analyze_naive`] exactly (copy propagation runs to a
/// local fixpoint inside each outer round), so the two strategies take the
/// same number of outer rounds and reach the same least fixpoint.
fn analyze_seminaive(
    f: &Facts,
    mode: CallGraphMode,
    allowed: Option<&Relation>,
) -> Result<PointsTo, JeddError> {
    f.u.set_site("pointsto");
    let mut st = pt_init(f, allowed)?;
    let mut fp = Fixpoint::new(&f.u, "pointsto");
    loop {
        let more = pt_round(f, mode, allowed, &mut st, &mut fp)?;
        if !more {
            let iterations = fp.rounds() as usize;
            return Ok(st.into_result(iterations));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline_sets;
    use crate::ir::{Call, Program};
    use crate::synth::Benchmark;

    /// v0 = new A (h0); v1 = v0; v1.f = v0; v2 = v1.f.
    fn store_load_program() -> Program {
        Program {
            types: 2,
            sigs: 1,
            methods: 1,
            fields: 1,
            vars: 3,
            allocs: 1,
            call_sites: 0,
            extend: vec![(1, 0)],
            declares: vec![(1, 0, 0)],
            alloc_type: vec![(0, 1)],
            news: vec![(0, 0, 0)],
            assigns: vec![(0, 1, 0)],
            loads: vec![(0, 2, 1, 0)],
            stores: vec![(0, 1, 0, 0)],
            method_this: vec![(0, 0)],
            entry_points: vec![0],
            ..Program::default()
        }
    }

    #[test]
    fn store_then_load_flows() {
        let p = store_load_program();
        let f = Facts::load(&p).unwrap();
        let r = analyze(&f, CallGraphMode::OnTheFly).unwrap();
        // v0 -> h0 (new), v1 -> h0 (copy), v2 -> h0 (load of stored).
        assert!(r.pt.contains(&[0, 0]));
        assert!(r.pt.contains(&[1, 0]));
        assert!(r.pt.contains(&[2, 0]));
        assert_eq!(r.pt.size(), 3);
        // fieldPt: (h0, f0, h0).
        assert_eq!(r.field_pt.size(), 1);
        assert!(r.field_pt.contains(&[0, 0, 0]));
    }

    /// A virtual call whose resolution creates the flow: caller passes an
    /// object to the callee's this-parameter.
    fn call_program() -> Program {
        // Types: Object(0), A(1). A declares sig0 via m1. Caller m0.
        // m0: v0 = new A (h0); v0.sig0() [site 0, recv v0]
        // m1: this = v1. No body.
        Program {
            types: 2,
            sigs: 1,
            methods: 2,
            fields: 1,
            vars: 2,
            allocs: 1,
            call_sites: 1,
            extend: vec![(1, 0)],
            declares: vec![(1, 0, 1)],
            alloc_type: vec![(0, 1)],
            news: vec![(0, 0, 0)],
            method_this: vec![(1, 1)],
            calls: vec![Call {
                caller: 0,
                site: 0,
                recv: 0,
                sig: 0,
                args: vec![],
                ret: None,
            }],
            entry_points: vec![0],
            ..Program::default()
        }
    }

    #[test]
    fn call_graph_feeds_this_parameter() {
        let p = call_program();
        let f = Facts::load(&p).unwrap();
        let r = analyze(&f, CallGraphMode::OnTheFly).unwrap();
        // The call resolves to m1 and h0 flows into m1's this (v1).
        // cg column order is (method, site).
        assert!(r.cg.contains(&[1, 0]), "site 0 -> m1");
        assert!(r.pt.contains(&[1, 0]), "this of m1 points to h0");
    }

    #[test]
    fn matches_set_baseline_on_benchmarks() {
        for b in [Benchmark::Tiny, Benchmark::Compress] {
            let p = b.generate();
            let f = Facts::load(&p).unwrap();
            let bdd = analyze(&f, CallGraphMode::OnTheFly).unwrap();
            let sets = baseline_sets::points_to(&p);
            let got: std::collections::BTreeSet<(u64, u64)> = bdd
                .pt
                .tuples()
                .into_iter()
                .map(|t| (t[0], t[1]))
                .collect();
            let expect: std::collections::BTreeSet<(u64, u64)> = sets
                .pt
                .iter()
                .map(|&(v, o)| (v as u64, o as u64))
                .collect();
            assert_eq!(got, expect, "pt mismatch on {}", b.name());
            // cg column order is (method, site); normalise to (site, method).
            let got_cg: std::collections::BTreeSet<(u64, u64)> = bdd
                .cg
                .tuples()
                .into_iter()
                .map(|t| (t[1], t[0]))
                .collect();
            let expect_cg: std::collections::BTreeSet<(u64, u64)> = sets
                .cg
                .iter()
                .map(|&(s, m)| (s as u64, m as u64))
                .collect();
            assert_eq!(got_cg, expect_cg, "cg mismatch on {}", b.name());
        }
    }

    #[test]
    fn all_types_mode_over_approximates() {
        let p = Benchmark::Tiny.generate();
        let f = Facts::load(&p).unwrap();
        let precise = analyze(&f, CallGraphMode::OnTheFly).unwrap();
        let f2 = Facts::load(&p).unwrap();
        let cha = analyze(&f2, CallGraphMode::AllTypes).unwrap();
        // Every precise edge is also a CHA edge.
        for t in precise.cg.tuples() {
            assert!(
                cha.cg.contains(&t),
                "CHA must include on-the-fly edge {t:?}"
            );
        }
        assert!(cha.cg.size() >= precise.cg.size());
        assert!(cha.pt.size() >= precise.pt.size());
    }
}

#[cfg(test)]
mod strategy_tests {
    use super::*;
    use crate::facts::Facts;
    use crate::hierarchy;
    use crate::synth::Benchmark;

    /// The delta engine must be a pure evaluation-order change: on the
    /// same universe, naive and semi-naive runs must produce *the same
    /// canonical BDD nodes* for every result relation (`equals` on
    /// identical schemas is a node-id comparison), in no more rounds.
    #[test]
    fn seminaive_is_bit_identical_to_naive_across_benchmarks_and_modes() {
        for b in [Benchmark::Tiny, Benchmark::Compress, Benchmark::Javac] {
            let p = b.generate();
            for mode in [CallGraphMode::OnTheFly, CallGraphMode::AllTypes] {
                let f = Facts::load(&p).unwrap();
                let naive = analyze_with(&f, mode, Strategy::Naive).unwrap();
                let semi = analyze_with(&f, mode, Strategy::SemiNaive).unwrap();
                let ctx = format!("{} / {mode:?}", b.name());
                assert!(semi.pt.equals(&naive.pt).unwrap(), "pt differs: {ctx}");
                assert!(
                    semi.field_pt.equals(&naive.field_pt).unwrap(),
                    "field_pt differs: {ctx}"
                );
                assert!(semi.cg.equals(&naive.cg).unwrap(), "cg differs: {ctx}");
                assert!(semi.iterations >= 1, "no rounds ran: {ctx}");
                assert!(
                    semi.iterations <= naive.iterations,
                    "semi-naive took {} rounds, naive {}: {ctx}",
                    semi.iterations,
                    naive.iterations
                );
            }
        }
    }

    #[test]
    fn typed_seminaive_is_bit_identical_to_naive() {
        let p = Benchmark::Compress.generate();
        let f = Facts::load(&p).unwrap();
        let h = hierarchy::compute(&f).unwrap();
        let naive =
            analyze_typed_with(&f, CallGraphMode::OnTheFly, &h.subtype_of, Strategy::Naive)
                .unwrap();
        let semi =
            analyze_typed_with(&f, CallGraphMode::OnTheFly, &h.subtype_of, Strategy::SemiNaive)
                .unwrap();
        assert!(semi.pt.equals(&naive.pt).unwrap());
        assert!(semi.field_pt.equals(&naive.field_pt).unwrap());
        assert!(semi.cg.equals(&naive.cg).unwrap());
    }

    /// The divergence guard degrades instead of panicking: a bound of
    /// zero rounds must surface as a governor-ladder `ResourceExhausted`.
    /// (Exercised through [`Fixpoint::with_max_rounds`]; the analysis
    /// itself uses the default bound.)
    #[test]
    fn divergence_bound_is_an_error_not_a_panic() {
        let p = Benchmark::Tiny.generate();
        let f = Facts::load(&p).unwrap();
        let mut fp = Fixpoint::new(&f.u, "pointsto").with_max_rounds(0);
        match fp.begin_round() {
            Err(JeddError::ResourceExhausted { op, .. }) => assert_eq!(op, "pointsto"),
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod typed_tests {
    use super::*;
    use crate::baseline_sets;
    use crate::hierarchy;
    use crate::synth::Benchmark;
    use crate::facts::Facts;
    use std::collections::BTreeSet;

    #[test]
    fn typed_matches_set_baseline() {
        for b in [Benchmark::Tiny, Benchmark::Compress] {
            let p = b.generate();
            let f = Facts::load(&p).unwrap();
            let h = hierarchy::compute(&f).unwrap();
            let typed = analyze_typed(&f, CallGraphMode::OnTheFly, &h.subtype_of).unwrap();
            let sets = baseline_sets::points_to_typed(&p);
            let got: BTreeSet<(u64, u64)> = typed
                .pt
                .tuples()
                .into_iter()
                .map(|t| (t[0], t[1]))
                .collect();
            let expect: BTreeSet<(u64, u64)> = sets
                .pt
                .iter()
                .map(|&(v, o)| (v as u64, o as u64))
                .collect();
            assert_eq!(got, expect, "typed pt mismatch on {}", b.name());
        }
    }

    #[test]
    fn typed_is_subset_of_untyped() {
        let p = Benchmark::Compress.generate();
        let f = Facts::load(&p).unwrap();
        let h = hierarchy::compute(&f).unwrap();
        let untyped = analyze(&f, CallGraphMode::OnTheFly).unwrap();
        let f2 = Facts::load(&p).unwrap();
        let h2 = hierarchy::compute(&f2).unwrap();
        let _ = h;
        let typed = analyze_typed(&f2, CallGraphMode::OnTheFly, &h2.subtype_of).unwrap();
        // Compare as tuple sets (separate universes).
        let t: BTreeSet<Vec<u64>> = typed.pt.tuples().into_iter().collect();
        let u: BTreeSet<Vec<u64>> = untyped.pt.tuples().into_iter().collect();
        assert!(t.is_subset(&u), "filtering must only remove pairs");
        assert!(t.len() < u.len(), "the filter should remove something");
        // Call graphs shrink too (or stay equal).
        let tc: BTreeSet<Vec<u64>> = typed.cg.tuples().into_iter().collect();
        let uc: BTreeSet<Vec<u64>> = untyped.cg.tuples().into_iter().collect();
        assert!(tc.is_subset(&uc));
    }
}
