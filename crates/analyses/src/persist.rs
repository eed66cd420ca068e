//! Checkpointed execution and crash resume of the five analyses.
//!
//! Each `*_checkpointed` entry point runs the same round bodies as the
//! plain semi-naive drivers (the step functions are shared, not copied),
//! but cuts a [`Checkpointer`] checkpoint at round boundaries per the
//! active [`jedd_store::CheckpointPolicy`]: every N completed rounds,
//! and — for budget exhaustion and cooperative cancellation — the last
//! good round-boundary state just before the error propagates. Each
//! `*_resume` entry point loads the newest valid checkpoint from a
//! directory, rebuilds the universe and [`Facts`], re-arms the governor
//! with a fresh [`Budget`], and continues the run from the recorded
//! round; a resumed run lands on a tuple-identical least fixpoint
//! because semi-naive evaluation is determined by the
//! (`current`, `delta`) pairs the checkpoint persists.
//!
//! A checkpoint stores the 19 base fact relations (`base.*`), the
//! analysis inputs (`input.*`) and the in-flight fixpoint state
//! (`state.*`) in one snapshot, plus the round counter, a phase scalar
//! and an auxiliary word in the log record. Checkpoints are cut only at
//! round boundaries, where every [`DeltaRel`] has nothing staged, so the
//! pair is the tracker's complete state ([`DeltaRel::from_parts`]).
//!
//! Snapshot encoding walks existing BDD nodes without materialising new
//! ones, so the on-failure checkpoint works even when the budget that
//! killed the round is still exhausted.

use crate::callgraph::{self, CallGraph};
use crate::facts::Facts;
use crate::hierarchy::{self, Hierarchy};
use crate::pointsto::{self, CallGraphMode, PointsTo, PtState};
use crate::sideeffect::{self, SideEffects};
use crate::vcr;
use jedd_core::{BddError, Budget, DeltaRel, Fixpoint, JeddError, Relation};
use jedd_store::{resume_latest_bdd, BddResumePoint, CheckpointMeta, Checkpointer, StoreError};
use std::fmt;
use std::path::Path;

/// An error from a checkpointed run: either the analysis itself failed,
/// or the checkpoint store did.
#[derive(Debug)]
pub enum PersistError {
    /// A relational-layer failure (including budget exhaustion and
    /// cancellation, which propagate after the on-failure checkpoint).
    Jedd(JeddError),
    /// A checkpoint store failure — I/O, corruption, or an injected
    /// crash ([`StoreError::Killed`]).
    Store(StoreError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Jedd(e) => write!(f, "{e}"),
            PersistError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Jedd(e) => Some(e),
            PersistError::Store(e) => Some(e),
        }
    }
}

impl From<JeddError> for PersistError {
    fn from(e: JeddError) -> PersistError {
        PersistError::Jedd(e)
    }
}

impl From<StoreError> for PersistError {
    fn from(e: StoreError) -> PersistError {
        PersistError::Store(e)
    }
}

/// Whether the policy wants a last-good checkpoint for this failure:
/// exhaustion and cancellation are resumable conditions, anything else
/// is a bug to propagate uncheckpointed.
fn failure_checkpoint_due(cp: &Checkpointer, e: &JeddError) -> bool {
    match e {
        JeddError::ResourceExhausted { cause, .. } => {
            if matches!(cause, BddError::Cancelled) {
                cp.policy().on_cancel
            } else {
                cp.policy().on_exhausted
            }
        }
        _ => false,
    }
}

/// Commits one checkpoint: the base facts plus the given `input.*` and
/// `state.*` relations, under the analysis name and round counter.
fn cut(
    cp: &mut Checkpointer,
    f: &Facts,
    analysis: &'static str,
    round: u64,
    phase: u32,
    aux: u64,
    state: &[(&str, &Relation)],
) -> Result<(), StoreError> {
    let mut rels: Vec<(&str, &Relation)> = f.base_relations();
    rels.extend_from_slice(state);
    let meta = CheckpointMeta {
        analysis,
        round,
        phase,
        aux,
        rng: 0,
    };
    cp.checkpoint_bdd(&meta, &f.u, &rels)?;
    Ok(())
}

/// A relation restored by name, or [`JeddError::InvalidRestore`].
fn take_rel(rp: &BddResumePoint, name: &str) -> Result<Relation, JeddError> {
    rp.relation(name)
        .cloned()
        .ok_or_else(|| JeddError::InvalidRestore {
            detail: format!("checkpoint lacks relation {name}"),
        })
}

/// Rejects a checkpoint written by a different analysis.
fn expect_analysis(rp: &BddResumePoint, analysis: &str) -> Result<(), JeddError> {
    if rp.record.analysis == analysis {
        Ok(())
    } else {
        Err(JeddError::InvalidRestore {
            detail: format!(
                "checkpoint is for analysis {}, not {analysis}",
                rp.record.analysis
            ),
        })
    }
}

/// Reloads a checkpoint directory, verifies the analysis name, and
/// rebuilds the [`Facts`] with the governor re-armed to `budget`.
fn reopen(
    dir: &Path,
    analysis: &str,
    budget: Budget,
) -> Result<(BddResumePoint, Facts), PersistError> {
    let rp = resume_latest_bdd(dir)?;
    expect_analysis(&rp, analysis)?;
    let f = Facts::reattach(&rp.universe, &rp.relations)?;
    f.u.set_budget(budget);
    Ok((rp, f))
}

/// One single-`DeltaRel` transitive-closure loop (hierarchy, callgraph
/// reachability, each side-effect phase) under one checkpoint spec.
struct ClosureSpec<'a> {
    analysis: &'static str,
    phase: u32,
    rule: &'static str,
    /// Extra relations (inputs, earlier-phase results) persisted beside
    /// the closure state.
    extra: &'a [(&'a str, &'a Relation)],
}

fn cut_closure(
    cp: &mut Checkpointer,
    f: &Facts,
    spec: &ClosureSpec<'_>,
    state: &DeltaRel,
    round: u64,
) -> Result<(), StoreError> {
    let mut rels: Vec<(&str, &Relation)> = spec.extra.to_vec();
    rels.push(("state.current", state.current()));
    rels.push(("state.delta", state.delta()));
    cut(cp, f, spec.analysis, round, spec.phase, 0, &rels)
}

/// Drives `state` to its fixpoint with checkpoints. The round body is
/// exactly the plain semi-naive loop; a failed round leaves
/// `current`/`delta` at the previous round boundary ([`DeltaRel::stage`]
/// and [`DeltaRel::advance`] mutate them only on success), so the
/// in-place state *is* the last good state for the failure checkpoint.
fn drive_closure(
    f: &Facts,
    cp: &mut Checkpointer,
    spec: &ClosureSpec<'_>,
    state: &mut DeltaRel,
    fp: &mut Fixpoint,
    step: &dyn Fn(&Relation) -> Result<Relation, JeddError>,
) -> Result<(), PersistError> {
    while state.has_delta() {
        let res = (|| -> Result<(), JeddError> {
            fp.begin_round()?;
            let s = fp.rule(spec.rule, || step(state.delta()))?;
            state.absorb(&s)?;
            fp.end_round(&[&*state]);
            Ok(())
        })();
        match res {
            Ok(()) => {
                if cp.due_after_round(fp.rounds()) {
                    cut_closure(cp, f, spec, state, fp.rounds())?;
                }
            }
            Err(e) => {
                if failure_checkpoint_due(cp, &e) {
                    cut_closure(cp, f, spec, state, fp.rounds())?;
                }
                return Err(PersistError::Jedd(e));
            }
        }
    }
    Ok(())
}

// --- Hierarchy ---------------------------------------------------------

fn finish_hierarchy(
    f: &Facts,
    cp: &mut Checkpointer,
    closure: &mut DeltaRel,
    fp: &mut Fixpoint,
) -> Result<(), PersistError> {
    let spec = ClosureSpec {
        analysis: "hierarchy",
        phase: 0,
        rule: "hop",
        extra: &[],
    };
    drive_closure(f, cp, &spec, closure, fp, &|d| hierarchy::hop(f, d))
}

/// [`hierarchy::compute`] with checkpoints.
///
/// # Errors
///
/// Analysis and checkpoint-store failures ([`PersistError`]).
pub fn hierarchy_checkpointed(f: &Facts, cp: &mut Checkpointer) -> Result<Hierarchy, PersistError> {
    f.u.set_site("hierarchy");
    let mut closure = DeltaRel::new("subtype_of", hierarchy::initial(f)?);
    let mut fp = Fixpoint::new(&f.u, "hierarchy");
    finish_hierarchy(f, cp, &mut closure, &mut fp)?;
    Ok(Hierarchy {
        subtype_of: closure.into_current(),
    })
}

/// Resumes a [`hierarchy_checkpointed`] run from the newest valid
/// checkpoint in `dir` and drives it to completion.
///
/// # Errors
///
/// [`StoreError::NoCheckpoint`] when nothing resumable exists;
/// otherwise as [`hierarchy_checkpointed`].
pub fn hierarchy_resume(
    dir: &Path,
    budget: Budget,
    cp: &mut Checkpointer,
) -> Result<(Facts, Hierarchy), PersistError> {
    let (rp, f) = reopen(dir, "hierarchy", budget)?;
    f.u.set_site("hierarchy");
    let mut closure = DeltaRel::from_parts(
        "subtype_of",
        take_rel(&rp, "state.current")?,
        take_rel(&rp, "state.delta")?,
    )?;
    let mut fp = Fixpoint::new(&f.u, "hierarchy").with_start_round(rp.record.round);
    finish_hierarchy(&f, cp, &mut closure, &mut fp)?;
    Ok((
        f,
        Hierarchy {
            subtype_of: closure.into_current(),
        },
    ))
}

// --- Virtual call resolution -------------------------------------------

/// The Fig. 4 loop with checkpoints. Unlike the closure loops, `vcr`'s
/// round is pure — it returns the next `(to_resolve, answer)` pair
/// without mutating the old one — so the pre-round pair is the last good
/// state by construction.
fn finish_vcr(
    f: &Facts,
    cp: &mut Checkpointer,
    site_types: &Relation,
    to_resolve: &mut Relation,
    answer: &mut Relation,
    fp: &mut Fixpoint,
) -> Result<(), PersistError> {
    loop {
        // The plain loop always runs its first round (an empty worklist
        // still produces the empty answer); after that it stops as soon
        // as the worklist drains.
        if fp.rounds() > 0 && to_resolve.is_empty() {
            return Ok(());
        }
        let res = (|| -> Result<(), JeddError> {
            fp.begin_round()?;
            let (tr, ans) = vcr::round(f, to_resolve, answer)?;
            *to_resolve = tr;
            *answer = ans;
            fp.end_round(&[]);
            Ok(())
        })();
        let state = [
            ("input.site_types", site_types),
            ("state.to_resolve", &*to_resolve),
            ("state.answer", &*answer),
        ];
        match res {
            Ok(()) => {
                if cp.due_after_round(fp.rounds()) {
                    cut(cp, f, "vcr", fp.rounds(), 0, 0, &state)?;
                }
            }
            Err(e) => {
                if failure_checkpoint_due(cp, &e) {
                    cut(cp, f, "vcr", fp.rounds(), 0, 0, &state)?;
                }
                return Err(PersistError::Jedd(e));
            }
        }
    }
}

/// [`vcr::resolve`] with checkpoints.
///
/// # Errors
///
/// Analysis and checkpoint-store failures ([`PersistError`]).
pub fn vcr_checkpointed(
    f: &Facts,
    site_types: &Relation,
    cp: &mut Checkpointer,
) -> Result<Relation, PersistError> {
    f.u.set_site("vcr");
    let (mut to_resolve, mut answer) = vcr::init(f, site_types)?;
    let mut fp = Fixpoint::new(&f.u, "vcr");
    finish_vcr(f, cp, site_types, &mut to_resolve, &mut answer, &mut fp)?;
    Ok(answer)
}

/// Resumes a [`vcr_checkpointed`] run. Returns the rebuilt [`Facts`] and
/// the completed `(site, method)` answer.
///
/// # Errors
///
/// As [`hierarchy_resume`].
pub fn vcr_resume(
    dir: &Path,
    budget: Budget,
    cp: &mut Checkpointer,
) -> Result<(Facts, Relation), PersistError> {
    let (rp, f) = reopen(dir, "vcr", budget)?;
    f.u.set_site("vcr");
    let site_types = take_rel(&rp, "input.site_types")?;
    let mut to_resolve = take_rel(&rp, "state.to_resolve")?;
    let mut answer = take_rel(&rp, "state.answer")?;
    let mut fp = Fixpoint::new(&f.u, "vcr").with_start_round(rp.record.round);
    finish_vcr(&f, cp, &site_types, &mut to_resolve, &mut answer, &mut fp)?;
    Ok((f, answer))
}

// --- Call graph --------------------------------------------------------

fn finish_callgraph(
    f: &Facts,
    cp: &mut Checkpointer,
    site_targets: &Relation,
    edges: &Relation,
    reach: &mut DeltaRel,
    fp: &mut Fixpoint,
) -> Result<(), PersistError> {
    let extra = [("input.site_targets", site_targets), ("input.edges", edges)];
    let spec = ClosureSpec {
        analysis: "callgraph",
        phase: 0,
        rule: "callees",
        extra: &extra,
    };
    drive_closure(f, cp, &spec, reach, fp, &|d| {
        callgraph::callees(f, edges, d)
    })
}

/// [`callgraph::build`] with checkpoints.
///
/// # Errors
///
/// Analysis and checkpoint-store failures ([`PersistError`]).
pub fn callgraph_checkpointed(
    f: &Facts,
    site_targets: &Relation,
    cp: &mut Checkpointer,
) -> Result<CallGraph, PersistError> {
    f.u.set_site("callgraph");
    let edges = callgraph::derive_edges(f, site_targets)?;
    let mut reach = DeltaRel::new("reachable", f.entry.clone());
    let mut fp = Fixpoint::new(&f.u, "callgraph");
    finish_callgraph(f, cp, site_targets, &edges, &mut reach, &mut fp)?;
    Ok(CallGraph {
        site_targets: site_targets.clone(),
        edges,
        reachable: reach.into_current(),
    })
}

/// Resumes a [`callgraph_checkpointed`] run.
///
/// # Errors
///
/// As [`hierarchy_resume`].
pub fn callgraph_resume(
    dir: &Path,
    budget: Budget,
    cp: &mut Checkpointer,
) -> Result<(Facts, CallGraph), PersistError> {
    let (rp, f) = reopen(dir, "callgraph", budget)?;
    f.u.set_site("callgraph");
    let site_targets = take_rel(&rp, "input.site_targets")?;
    let edges = take_rel(&rp, "input.edges")?;
    let mut reach = DeltaRel::from_parts(
        "reachable",
        take_rel(&rp, "state.current")?,
        take_rel(&rp, "state.delta")?,
    )?;
    let mut fp = Fixpoint::new(&f.u, "callgraph").with_start_round(rp.record.round);
    finish_callgraph(&f, cp, &site_targets, &edges, &mut reach, &mut fp)?;
    Ok((
        f,
        CallGraph {
            site_targets,
            edges,
            reachable: reach.into_current(),
        },
    ))
}

// --- Side effects ------------------------------------------------------

/// The inputs and already-fixed relations a side-effect phase persists
/// beside its in-flight closure: phase 1 closes the reads, phase 2
/// closes the writes with the finished `reads_star` carried along.
struct SeCtx<'a> {
    pt: &'a Relation,
    edges: &'a Relation,
    reads: &'a Relation,
    writes: &'a Relation,
    reads_star: Option<&'a Relation>,
}

fn finish_sideeffect_phase(
    f: &Facts,
    cp: &mut Checkpointer,
    ctx: &SeCtx<'_>,
    phase: u32,
    star: &mut DeltaRel,
    fp: &mut Fixpoint,
) -> Result<(), PersistError> {
    let mut extra: Vec<(&str, &Relation)> = vec![
        ("input.pt", ctx.pt),
        ("input.edges", ctx.edges),
        ("state.reads", ctx.reads),
        ("state.writes", ctx.writes),
    ];
    if let Some(rs) = ctx.reads_star {
        extra.push(("state.reads_star", rs));
    }
    let spec = ClosureSpec {
        analysis: "sideeffect",
        phase,
        rule: "lift",
        extra: &extra,
    };
    drive_closure(f, cp, &spec, star, fp, &|d| {
        sideeffect::lift(f, ctx.edges, d)
    })
}

/// [`sideeffect::compute`] with checkpoints. The two transitive closures
/// run as phases 1 (reads) and 2 (writes) so a resume knows which one
/// was in flight.
///
/// # Errors
///
/// Analysis and checkpoint-store failures ([`PersistError`]).
pub fn sideeffect_checkpointed(
    f: &Facts,
    pt: &Relation,
    edges: &Relation,
    cp: &mut Checkpointer,
) -> Result<SideEffects, PersistError> {
    f.u.set_site("sideeffect");
    let (reads, writes) = sideeffect::direct_effects(f, pt)?;
    let ctx = SeCtx {
        pt,
        edges,
        reads: &reads,
        writes: &writes,
        reads_star: None,
    };
    let mut star = DeltaRel::new("rw_star", reads.clone());
    let mut fp = Fixpoint::new(&f.u, "sideeffect");
    finish_sideeffect_phase(f, cp, &ctx, 1, &mut star, &mut fp)?;
    let reads_star = star.into_current();

    let ctx = SeCtx {
        reads_star: Some(&reads_star),
        ..ctx
    };
    let mut star = DeltaRel::new("rw_star", writes.clone());
    let mut fp = Fixpoint::new(&f.u, "sideeffect");
    finish_sideeffect_phase(f, cp, &ctx, 2, &mut star, &mut fp)?;
    Ok(SideEffects {
        reads,
        writes,
        reads_star,
        writes_star: star.into_current(),
    })
}

/// Resumes a [`sideeffect_checkpointed`] run: finishes the interrupted
/// phase, then (when phase 1 was in flight) runs phase 2 in full.
///
/// # Errors
///
/// As [`hierarchy_resume`], plus [`JeddError::InvalidRestore`] for an
/// unknown phase scalar.
pub fn sideeffect_resume(
    dir: &Path,
    budget: Budget,
    cp: &mut Checkpointer,
) -> Result<(Facts, SideEffects), PersistError> {
    let (rp, f) = reopen(dir, "sideeffect", budget)?;
    f.u.set_site("sideeffect");
    let pt = take_rel(&rp, "input.pt")?;
    let edges = take_rel(&rp, "input.edges")?;
    let reads = take_rel(&rp, "state.reads")?;
    let writes = take_rel(&rp, "state.writes")?;
    let mut star = DeltaRel::from_parts(
        "rw_star",
        take_rel(&rp, "state.current")?,
        take_rel(&rp, "state.delta")?,
    )?;
    let reads_star = match rp.record.phase {
        1 => {
            let ctx = SeCtx {
                pt: &pt,
                edges: &edges,
                reads: &reads,
                writes: &writes,
                reads_star: None,
            };
            let mut fp = Fixpoint::new(&f.u, "sideeffect").with_start_round(rp.record.round);
            finish_sideeffect_phase(&f, cp, &ctx, 1, &mut star, &mut fp)?;
            let reads_star = star.into_current();
            star = DeltaRel::new("rw_star", writes.clone());
            let ctx = SeCtx {
                reads_star: Some(&reads_star),
                ..ctx
            };
            let mut fp = Fixpoint::new(&f.u, "sideeffect");
            finish_sideeffect_phase(&f, cp, &ctx, 2, &mut star, &mut fp)?;
            reads_star
        }
        2 => {
            let reads_star = take_rel(&rp, "state.reads_star")?;
            let ctx = SeCtx {
                pt: &pt,
                edges: &edges,
                reads: &reads,
                writes: &writes,
                reads_star: Some(&reads_star),
            };
            let mut fp = Fixpoint::new(&f.u, "sideeffect").with_start_round(rp.record.round);
            finish_sideeffect_phase(&f, cp, &ctx, 2, &mut star, &mut fp)?;
            reads_star
        }
        p => {
            return Err(JeddError::InvalidRestore {
                detail: format!("unknown sideeffect phase {p}"),
            }
            .into())
        }
    };
    Ok((
        f,
        SideEffects {
            reads,
            writes,
            reads_star,
            writes_star: star.into_current(),
        },
    ))
}

// --- Points-to ---------------------------------------------------------

/// `aux` word layout for points-to checkpoints.
const PT_AUX_ALL_TYPES: u64 = 1;
const PT_AUX_TYPED: u64 = 2;

fn pt_aux(mode: CallGraphMode, typed: bool) -> u64 {
    let mut aux = 0;
    if matches!(mode, CallGraphMode::AllTypes) {
        aux |= PT_AUX_ALL_TYPES;
    }
    if typed {
        aux |= PT_AUX_TYPED;
    }
    aux
}

/// Clones the full [`PtState`] at a round boundary — the last good state
/// for the failure checkpoint. Unlike the single-`DeltaRel` loops, a
/// points-to round mutates several trackers in sequence, so a failed
/// round can leave the in-place state past the boundary.
fn pt_state_rels(st: &PtState) -> Vec<(&'static str, Relation)> {
    vec![
        ("state.pt.current", st.pt.current().clone()),
        ("state.pt.delta", st.pt.delta().clone()),
        ("state.field_pt.current", st.field_pt.current().clone()),
        ("state.field_pt.delta", st.field_pt.delta().clone()),
        ("state.cg.current", st.cg.current().clone()),
        ("state.cg.delta", st.cg.delta().clone()),
        ("state.edges.current", st.edges.current().clone()),
        ("state.edges.delta", st.edges.delta().clone()),
        ("state.site_types.current", st.site_types.current().clone()),
        ("state.site_types.delta", st.site_types.delta().clone()),
        ("state.pt_seen", st.pt_seen.clone()),
    ]
}

fn cut_pt(
    cp: &mut Checkpointer,
    f: &Facts,
    aux: u64,
    allowed: Option<&Relation>,
    good: &(Vec<(&'static str, Relation)>, u64),
) -> Result<(), StoreError> {
    let mut rels: Vec<(&str, &Relation)> = good.0.iter().map(|(n, r)| (*n, r)).collect();
    if let Some(a) = allowed {
        rels.push(("input.allowed", a));
    }
    cut(cp, f, "pointsto", good.1, 0, aux, &rels)
}

/// Drives the points-to outer loop with checkpoints; returns the outer
/// iteration count at quiescence.
fn finish_pointsto(
    f: &Facts,
    cp: &mut Checkpointer,
    mode: CallGraphMode,
    allowed: Option<&Relation>,
    st: &mut PtState,
    fp: &mut Fixpoint,
) -> Result<usize, PersistError> {
    let aux = pt_aux(mode, allowed.is_some());
    let mut last_good = (pt_state_rels(st), fp.rounds());
    loop {
        // Same termination condition as [`pointsto::pt_round`] reports:
        // loads, call edges and assignment edges all quiesced. The first
        // round always runs (a fresh state starts with Δpt = pt).
        let more = st.pt.has_delta() || st.cg.has_delta() || st.edges.has_delta();
        if fp.rounds() > 0 && !more {
            return Ok(fp.rounds() as usize);
        }
        match pointsto::pt_round(f, mode, allowed, st, fp) {
            Ok(_) => {
                last_good = (pt_state_rels(st), fp.rounds());
                if cp.due_after_round(fp.rounds()) {
                    cut_pt(cp, f, aux, allowed, &last_good)?;
                }
            }
            Err(e) => {
                if failure_checkpoint_due(cp, &e) {
                    cut_pt(cp, f, aux, allowed, &last_good)?;
                }
                return Err(PersistError::Jedd(e));
            }
        }
    }
}

/// [`pointsto::analyze`] with checkpoints.
///
/// # Errors
///
/// Analysis and checkpoint-store failures ([`PersistError`]).
pub fn pointsto_checkpointed(
    f: &Facts,
    mode: CallGraphMode,
    cp: &mut Checkpointer,
) -> Result<PointsTo, PersistError> {
    f.u.set_site("pointsto");
    let mut st = pointsto::pt_init(f, None)?;
    let mut fp = Fixpoint::new(&f.u, "pointsto");
    let iterations = finish_pointsto(f, cp, mode, None, &mut st, &mut fp)?;
    Ok(st.into_result(iterations))
}

/// [`pointsto::analyze_typed`] with checkpoints: the declared-type
/// filter is computed once up front and persisted as `input.allowed`.
///
/// # Errors
///
/// Analysis and checkpoint-store failures ([`PersistError`]).
pub fn pointsto_checkpointed_typed(
    f: &Facts,
    mode: CallGraphMode,
    subtype_of: &Relation,
    cp: &mut Checkpointer,
) -> Result<PointsTo, PersistError> {
    let allowed = pointsto::typed_filter(f, subtype_of)?;
    f.u.set_site("pointsto");
    let mut st = pointsto::pt_init(f, Some(&allowed))?;
    let mut fp = Fixpoint::new(&f.u, "pointsto");
    let iterations = finish_pointsto(f, cp, mode, Some(&allowed), &mut st, &mut fp)?;
    Ok(st.into_result(iterations))
}

/// Resumes a [`pointsto_checkpointed`] (or `_typed`) run; the call-graph
/// mode and filter presence come back out of the record's `aux` word.
///
/// # Errors
///
/// As [`hierarchy_resume`].
pub fn pointsto_resume(
    dir: &Path,
    budget: Budget,
    cp: &mut Checkpointer,
) -> Result<(Facts, PointsTo), PersistError> {
    let (rp, f) = reopen(dir, "pointsto", budget)?;
    f.u.set_site("pointsto");
    let aux = rp.record.aux;
    let mode = if aux & PT_AUX_ALL_TYPES != 0 {
        CallGraphMode::AllTypes
    } else {
        CallGraphMode::OnTheFly
    };
    let allowed = if aux & PT_AUX_TYPED != 0 {
        Some(take_rel(&rp, "input.allowed")?)
    } else {
        None
    };
    let mut st = PtState {
        pt: DeltaRel::from_parts(
            "pt",
            take_rel(&rp, "state.pt.current")?,
            take_rel(&rp, "state.pt.delta")?,
        )?,
        field_pt: DeltaRel::from_parts(
            "field_pt",
            take_rel(&rp, "state.field_pt.current")?,
            take_rel(&rp, "state.field_pt.delta")?,
        )?,
        cg: DeltaRel::from_parts(
            "cg",
            take_rel(&rp, "state.cg.current")?,
            take_rel(&rp, "state.cg.delta")?,
        )?,
        edges: DeltaRel::from_parts(
            "edges",
            take_rel(&rp, "state.edges.current")?,
            take_rel(&rp, "state.edges.delta")?,
        )?,
        site_types: DeltaRel::from_parts(
            "site_types",
            take_rel(&rp, "state.site_types.current")?,
            take_rel(&rp, "state.site_types.delta")?,
        )?,
        pt_seen: take_rel(&rp, "state.pt_seen")?,
    };
    let mut fp = Fixpoint::new(&f.u, "pointsto").with_start_round(rp.record.round);
    let iterations = finish_pointsto(&f, cp, mode, allowed.as_ref(), &mut st, &mut fp)?;
    Ok((f, st.into_result(iterations)))
}
