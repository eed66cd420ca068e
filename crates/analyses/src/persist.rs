//! The semi-naive fixpoint loops of the five analyses, with optional
//! checkpoints and crash resume.
//!
//! Each semi-naive loop exists once, here: one loop for every
//! single-[`DeltaRel`] closure (hierarchy, call-graph reachability, both
//! side-effect phases), one for virtual call resolution and one for the
//! points-to outer loop. Each loop takes an `Option<&mut Checkpointer>`.
//! The plain entry points ([`hierarchy::compute`], [`vcr::resolve`],
//! [`callgraph::build`], [`sideeffect::compute`], [`pointsto::analyze`])
//! pass `None`: such a run never touches the store and takes no
//! per-round state snapshot. Each `*_checkpointed` entry point passes its
//! [`Checkpointer`] and cuts a checkpoint at round boundaries per the
//! active [`jedd_store::CheckpointPolicy`]: every N completed rounds,
//! and — for budget exhaustion and cooperative cancellation — the last
//! good round-boundary state just before the error propagates. Each
//! `*_resume` entry point loads the newest valid checkpoint from a
//! directory, rebuilds the universe and [`Facts`], re-arms the governor
//! with a fresh [`Budget`], and continues the same loop from the recorded
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

/// The error of a run without a checkpointer. Only a checkpointer writes
/// to the store, so such a run fails with [`PersistError::Jedd`] alone.
pub(crate) fn into_jedd(e: PersistError) -> JeddError {
    match e {
        PersistError::Jedd(e) => e,
        PersistError::Store(e) => {
            unreachable!("a run without a checkpointer reached the store: {e}")
        }
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

/// Settles one finished round against the checkpointer, if there is one:
/// after a good round, cuts the checkpoint the policy asks for; after a
/// failed round, cuts the last good state when the policy wants it, then
/// propagates the error. `cut` writes the in-place state, which is the
/// last good state either way for loops whose failed rounds leave it
/// untouched (the closures and `vcr`).
fn settle_round(
    cp: Option<&mut Checkpointer>,
    round: Result<(), JeddError>,
    rounds_done: u64,
    cut: impl FnOnce(&mut Checkpointer) -> Result<(), StoreError>,
) -> Result<(), PersistError> {
    let Some(cp) = cp else {
        return Ok(round?);
    };
    match round {
        Ok(()) if cp.due_after_round(rounds_done) => cut(cp)?,
        Ok(()) => {}
        Err(e) => {
            if failure_checkpoint_due(cp, &e) {
                cut(cp)?;
            }
            return Err(e.into());
        }
    }
    Ok(())
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

/// A restored `(current, delta)` tracker from `state.{prefix}current` and
/// `state.{prefix}delta`.
fn take_delta(
    rp: &BddResumePoint,
    name: &'static str,
    prefix: &str,
) -> Result<DeltaRel, JeddError> {
    DeltaRel::from_parts(
        name,
        take_rel(rp, &format!("state.{prefix}current"))?,
        take_rel(rp, &format!("state.{prefix}delta"))?,
    )
}

/// One single-`DeltaRel` transitive-closure loop (hierarchy, callgraph
/// reachability, each side-effect phase) under one checkpoint spec.
struct ClosureSpec<'a> {
    /// The fixpoint's name, and the analysis name in its checkpoints.
    analysis: &'static str,
    phase: u32,
    rule: &'static str,
    /// Extra relations (inputs, earlier-phase results) persisted beside
    /// the closure state.
    extra: &'a [(&'a str, &'a Relation)],
}

/// Drives `state` from round `start_round` to its fixpoint and returns
/// the closed relation: the one semi-naive loop of every single-`DeltaRel`
/// closure. A failed round leaves `current`/`delta` at the previous round
/// boundary ([`DeltaRel::absorb`] mutates them only on success), so the
/// in-place state *is* the last good state for the failure checkpoint.
fn drive_closure(
    f: &Facts,
    mut cp: Option<&mut Checkpointer>,
    spec: &ClosureSpec<'_>,
    mut state: DeltaRel,
    start_round: u64,
    step: &dyn Fn(&Relation) -> Result<Relation, JeddError>,
) -> Result<Relation, PersistError> {
    let mut fp = Fixpoint::new(&f.u, spec.analysis).with_start_round(start_round);
    while state.has_delta() {
        let round = (|| -> Result<(), JeddError> {
            fp.begin_round()?;
            let s = fp.rule(spec.rule, || step(state.delta()))?;
            state.absorb(&s)?;
            fp.end_round(&[&state]);
            Ok(())
        })();
        settle_round(cp.as_deref_mut(), round, fp.rounds(), |cp| {
            let mut rels: Vec<(&str, &Relation)> = spec.extra.to_vec();
            rels.push(("state.current", state.current()));
            rels.push(("state.delta", state.delta()));
            cut(cp, f, spec.analysis, fp.rounds(), spec.phase, 0, &rels)
        })?;
    }
    Ok(state.into_current())
}

// --- Hierarchy ---------------------------------------------------------

fn finish_hierarchy(
    f: &Facts,
    cp: Option<&mut Checkpointer>,
    closure: DeltaRel,
    start_round: u64,
) -> Result<Hierarchy, PersistError> {
    let spec = ClosureSpec {
        analysis: "hierarchy",
        phase: 0,
        rule: "hop",
        extra: &[],
    };
    let subtype_of = drive_closure(f, cp, &spec, closure, start_round, &|d| {
        hierarchy::hop(f, d)
    })?;
    Ok(Hierarchy { subtype_of })
}

/// The semi-naive [`hierarchy::compute`], checkpointed when `cp` is
/// given.
pub(crate) fn run_hierarchy(
    f: &Facts,
    cp: Option<&mut Checkpointer>,
) -> Result<Hierarchy, PersistError> {
    f.u.set_site("hierarchy");
    let closure = DeltaRel::new("subtype_of", hierarchy::initial(f)?);
    finish_hierarchy(f, cp, closure, 0)
}

/// [`hierarchy::compute`] with checkpoints.
///
/// # Errors
///
/// Analysis and checkpoint-store failures ([`PersistError`]).
pub fn hierarchy_checkpointed(f: &Facts, cp: &mut Checkpointer) -> Result<Hierarchy, PersistError> {
    run_hierarchy(f, Some(cp))
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
    let closure = take_delta(&rp, "subtype_of", "")?;
    let h = finish_hierarchy(&f, Some(cp), closure, rp.record.round)?;
    Ok((f, h))
}

// --- Virtual call resolution -------------------------------------------

/// The Fig. 4 loop (lines 5–11). Unlike the closure loops, `vcr`'s round
/// is pure — it returns the next `(to_resolve, answer)` pair without
/// mutating the old one — so the pre-round pair is the last good state by
/// construction. Returns the completed answer.
fn finish_vcr(
    f: &Facts,
    mut cp: Option<&mut Checkpointer>,
    site_types: &Relation,
    mut to_resolve: Relation,
    mut answer: Relation,
    start_round: u64,
) -> Result<Relation, PersistError> {
    let mut fp = Fixpoint::new(&f.u, "vcr").with_start_round(start_round);
    loop {
        // A fresh run always runs its first round (an empty worklist
        // still produces the empty answer); after that it stops as soon
        // as the worklist drains. A resumed run starts past round zero,
        // so the same guard makes it stop where the fresh run would.
        if fp.rounds() > 0 && to_resolve.is_empty() {
            return Ok(answer);
        }
        let round = (|| -> Result<(), JeddError> {
            fp.begin_round()?;
            let (tr, ans) = vcr::round(f, &to_resolve, &answer)?;
            to_resolve = tr;
            answer = ans;
            fp.end_round(&[]);
            Ok(())
        })();
        settle_round(cp.as_deref_mut(), round, fp.rounds(), |cp| {
            let state = [
                ("input.site_types", site_types),
                ("state.to_resolve", &to_resolve),
                ("state.answer", &answer),
            ];
            cut(cp, f, "vcr", fp.rounds(), 0, 0, &state)
        })?;
    }
}

/// The [`vcr::resolve`] loop, checkpointed when `cp` is given.
pub(crate) fn run_vcr(
    f: &Facts,
    site_types: &Relation,
    cp: Option<&mut Checkpointer>,
) -> Result<Relation, PersistError> {
    f.u.set_site("vcr");
    let (to_resolve, answer) = vcr::init(f, site_types)?;
    finish_vcr(f, cp, site_types, to_resolve, answer, 0)
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
    run_vcr(f, site_types, Some(cp))
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
    let to_resolve = take_rel(&rp, "state.to_resolve")?;
    let answer = take_rel(&rp, "state.answer")?;
    let round = rp.record.round;
    let answer = finish_vcr(&f, Some(cp), &site_types, to_resolve, answer, round)?;
    Ok((f, answer))
}

// --- Call graph --------------------------------------------------------

fn finish_callgraph(
    f: &Facts,
    cp: Option<&mut Checkpointer>,
    site_targets: Relation,
    edges: Relation,
    reach: DeltaRel,
    start_round: u64,
) -> Result<CallGraph, PersistError> {
    let extra = [
        ("input.site_targets", &site_targets),
        ("input.edges", &edges),
    ];
    let spec = ClosureSpec {
        analysis: "callgraph",
        phase: 0,
        rule: "callees",
        extra: &extra,
    };
    let reachable = drive_closure(f, cp, &spec, reach, start_round, &|d| {
        callgraph::callees(f, &edges, d)
    })?;
    Ok(CallGraph {
        site_targets,
        edges,
        reachable,
    })
}

/// The semi-naive [`callgraph::build`], checkpointed when `cp` is given.
pub(crate) fn run_callgraph(
    f: &Facts,
    site_targets: &Relation,
    cp: Option<&mut Checkpointer>,
) -> Result<CallGraph, PersistError> {
    f.u.set_site("callgraph");
    let edges = callgraph::derive_edges(f, site_targets)?;
    let reach = DeltaRel::new("reachable", f.entry.clone());
    finish_callgraph(f, cp, site_targets.clone(), edges, reach, 0)
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
    run_callgraph(f, site_targets, Some(cp))
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
    let reach = take_delta(&rp, "reachable", "")?;
    let cg = finish_callgraph(&f, Some(cp), site_targets, edges, reach, rp.record.round)?;
    Ok((f, cg))
}

// --- Side effects ------------------------------------------------------

/// The inputs and already-fixed relations a side-effect phase persists
/// beside its in-flight closure: phase 1 closes the reads, phase 2
/// closes the writes with the finished `reads_star` carried along, so
/// `reads_star` being present is what marks phase 2.
#[derive(Clone, Copy)]
struct SeCtx<'a> {
    pt: &'a Relation,
    edges: &'a Relation,
    reads: &'a Relation,
    writes: &'a Relation,
    reads_star: Option<&'a Relation>,
}

fn close_sideeffect_phase(
    f: &Facts,
    cp: Option<&mut Checkpointer>,
    ctx: &SeCtx<'_>,
    star: DeltaRel,
    start_round: u64,
) -> Result<Relation, PersistError> {
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
        phase: if ctx.reads_star.is_some() { 2 } else { 1 },
        rule: "lift",
        extra: &extra,
    };
    drive_closure(f, cp, &spec, star, start_round, &|d| {
        sideeffect::lift(f, ctx.edges, d)
    })
}

/// Finishes the side-effect phase in flight from `star`, then — when
/// that was phase 1 — runs phase 2 in full.
fn finish_sideeffect(
    f: &Facts,
    mut cp: Option<&mut Checkpointer>,
    ctx: SeCtx<'_>,
    star: DeltaRel,
    start_round: u64,
) -> Result<SideEffects, PersistError> {
    let (star, start_round, reads_star) = match ctx.reads_star {
        Some(rs) => (star, start_round, rs.clone()),
        None => {
            let rs = close_sideeffect_phase(f, cp.as_deref_mut(), &ctx, star, start_round)?;
            (DeltaRel::new("rw_star", ctx.writes.clone()), 0, rs)
        }
    };
    let phase2 = SeCtx {
        reads_star: Some(&reads_star),
        ..ctx
    };
    let writes_star = close_sideeffect_phase(f, cp, &phase2, star, start_round)?;
    Ok(SideEffects {
        reads: ctx.reads.clone(),
        writes: ctx.writes.clone(),
        reads_star,
        writes_star,
    })
}

/// The semi-naive [`sideeffect::compute`], checkpointed when `cp` is
/// given. The two transitive closures run as phases 1 (reads) and 2
/// (writes) so a resume knows which one was in flight.
pub(crate) fn run_sideeffect(
    f: &Facts,
    pt: &Relation,
    edges: &Relation,
    cp: Option<&mut Checkpointer>,
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
    let star = DeltaRel::new("rw_star", reads.clone());
    finish_sideeffect(f, cp, ctx, star, 0)
}

/// [`sideeffect::compute`] with checkpoints.
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
    run_sideeffect(f, pt, edges, Some(cp))
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
    let star = take_delta(&rp, "rw_star", "")?;
    let reads_star = match rp.record.phase {
        1 => None,
        2 => Some(take_rel(&rp, "state.reads_star")?),
        p => {
            return Err(JeddError::InvalidRestore {
                detail: format!("unknown sideeffect phase {p}"),
            }
            .into())
        }
    };
    let ctx = SeCtx {
        pt: &pt,
        edges: &edges,
        reads: &reads,
        writes: &writes,
        reads_star: reads_star.as_ref(),
    };
    let se = finish_sideeffect(&f, Some(cp), ctx, star, rp.record.round)?;
    Ok((f, se))
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

/// The `state.*` names of a [`PtState`] at a round boundary.
fn pt_state_rels(st: &PtState) -> [(&'static str, &Relation); 11] {
    [
        ("state.pt.current", st.pt.current()),
        ("state.pt.delta", st.pt.delta()),
        ("state.field_pt.current", st.field_pt.current()),
        ("state.field_pt.delta", st.field_pt.delta()),
        ("state.cg.current", st.cg.current()),
        ("state.cg.delta", st.cg.delta()),
        ("state.edges.current", st.edges.current()),
        ("state.edges.delta", st.edges.delta()),
        ("state.site_types.current", st.site_types.current()),
        ("state.site_types.delta", st.site_types.delta()),
        ("state.pt_seen", &st.pt_seen),
    ]
}

fn cut_pt(
    cp: &mut Checkpointer,
    f: &Facts,
    aux: u64,
    allowed: Option<&Relation>,
    state: &[(&'static str, &Relation)],
    round: u64,
) -> Result<(), StoreError> {
    let mut rels: Vec<(&str, &Relation)> = state.to_vec();
    if let Some(a) = allowed {
        rels.push(("input.allowed", a));
    }
    cut(cp, f, "pointsto", round, 0, aux, &rels)
}

/// Drives the points-to outer loop from `st` to quiescence. Each round
/// is [`pointsto::pt_round`]: it derives new tuples only from the
/// frontiers of the previous round, and mirrors the naive oracle's round
/// structure exactly, so both strategies take the same number of outer
/// rounds and reach the same least fixpoint.
fn finish_pointsto(
    f: &Facts,
    mut cp: Option<&mut Checkpointer>,
    mode: CallGraphMode,
    allowed: Option<&Relation>,
    mut st: PtState,
    start_round: u64,
) -> Result<PointsTo, PersistError> {
    let mut fp = Fixpoint::new(&f.u, "pointsto").with_start_round(start_round);
    let aux = pt_aux(mode, allowed.is_some());
    // A points-to round mutates several trackers in sequence, so a failed
    // round can leave the in-place state past the boundary. The failure
    // checkpoint therefore needs a copy of the last good state, taken
    // after every round — but only when the policy can ask for one.
    let keeps_last_good = cp.as_deref().is_some_and(|cp| {
        let policy = cp.policy();
        policy.on_exhausted || policy.on_cancel
    });
    let copy = |st: &PtState, round: u64| (pt_state_rels(st).map(|(n, r)| (n, r.clone())), round);
    let mut last_good = keeps_last_good.then(|| copy(&st, fp.rounds()));
    loop {
        // Loads, call edges and assignment edges all quiesced — the naive
        // oracle's `done` check. (Δfield_pt and Δsite_types are excluded:
        // their only consumers already ran against them.) A fresh run
        // always runs its first round (its Δpt is all of pt); a resumed
        // run starts past round zero and stops where the fresh run would.
        let more = st.pt.has_delta() || st.cg.has_delta() || st.edges.has_delta();
        if fp.rounds() > 0 && !more {
            let iterations = fp.rounds() as usize;
            return Ok(st.into_result(iterations));
        }
        let round = pointsto::pt_round(f, mode, allowed, &mut st, &mut fp);
        let Some(cp) = cp.as_deref_mut() else {
            round?;
            continue;
        };
        match round {
            Ok(()) => {
                if cp.due_after_round(fp.rounds()) {
                    cut_pt(cp, f, aux, allowed, &pt_state_rels(&st), fp.rounds())?;
                }
                if keeps_last_good {
                    last_good = Some(copy(&st, fp.rounds()));
                }
            }
            Err(e) => {
                if let Some((rels, round)) = &last_good {
                    if failure_checkpoint_due(cp, &e) {
                        let rels = rels.each_ref().map(|(n, r)| (*n, r));
                        cut_pt(cp, f, aux, allowed, &rels, *round)?;
                    }
                }
                return Err(e.into());
            }
        }
    }
}

/// The semi-naive [`pointsto::analyze`] (or, given the declared-type
/// filter `allowed`, [`pointsto::analyze_typed`]), checkpointed when
/// `cp` is given.
pub(crate) fn run_pointsto(
    f: &Facts,
    mode: CallGraphMode,
    allowed: Option<&Relation>,
    cp: Option<&mut Checkpointer>,
) -> Result<PointsTo, PersistError> {
    f.u.set_site("pointsto");
    let st = pointsto::pt_init(f, allowed)?;
    finish_pointsto(f, cp, mode, allowed, st, 0)
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
    run_pointsto(f, mode, None, Some(cp))
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
    run_pointsto(f, mode, Some(&allowed), Some(cp))
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
    let st = PtState {
        pt: take_delta(&rp, "pt", "pt.")?,
        field_pt: take_delta(&rp, "field_pt", "field_pt.")?,
        cg: take_delta(&rp, "cg", "cg.")?,
        edges: take_delta(&rp, "edges", "edges.")?,
        site_types: take_delta(&rp, "site_types", "site_types.")?,
        pt_seen: take_rel(&rp, "state.pt_seen")?,
    };
    let round = rp.record.round;
    let r = finish_pointsto(&f, Some(cp), mode, allowed.as_ref(), st, round)?;
    Ok((f, r))
}
