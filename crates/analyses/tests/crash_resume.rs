//! Crash-recovery fuzz: kill a checkpointed run at every class of kill
//! point — mid-snapshot-write, mid-rename, mid-log-append, and
//! mid-fixpoint-round via kernel fault injection — for each of the five
//! analyses, and assert the resumed run lands on the tuples of an oracle
//! that shares no fixpoint loop with it: the naive strategy, or for
//! `vcr` the IR's reference dispatcher.
//!
//! The case count is bounded by `JEDD_CRASH_CASES` (default: all), so CI
//! smoke stages can run a prefix.

use jedd_analyses::facts::Facts;
use jedd_analyses::persist::{self, PersistError};
use jedd_analyses::pointsto::{self, CallGraphMode};
use jedd_analyses::synth::Benchmark;
use jedd_analyses::{callgraph, hierarchy, ir::Program, sideeffect};
use jedd_core::{Budget, FailPlan, Relation, Strategy};
use jedd_store::{read_records, CheckpointPolicy, Checkpointer, StoreError, StoreFaults, LOG_FILE};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

type TupleSet = BTreeSet<Vec<u64>>;

fn ts(r: &Relation) -> TupleSet {
    r.tuples().into_iter().collect()
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("jedd-crash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Which {
    Hierarchy,
    Vcr,
    Callgraph,
    Sideeffect,
    Pointsto,
}

const ALL: [Which; 5] = [
    Which::Hierarchy,
    Which::Vcr,
    Which::Callgraph,
    Which::Sideeffect,
    Which::Pointsto,
];

#[derive(Clone, Copy, Debug)]
enum Killpoint {
    /// Tear the Nth snapshot temp-file write.
    Snapshot(u64),
    /// Crash before the Nth atomic rename.
    Rename(u64),
    /// Tear the Nth checkpoint-log append.
    LogAppend(u64),
    /// Kernel fault: the Nth node allocation after arming dies, killing
    /// the fixpoint round with `ResourceExhausted` and triggering the
    /// policy's on-exhausted checkpoint of the last good round.
    MidRound(u64),
}

/// Every receiver type at every site — a deterministic worst-case input
/// for virtual call resolution.
fn full_site_types(f: &Facts, p: &Program) -> Relation {
    let mut tuples = Vec::new();
    for c in &p.calls {
        for t in 0..p.types as u32 {
            tuples.push(vec![c.site as u64, t as u64]);
        }
    }
    Relation::from_tuples(&f.u, &[(f.site, f.c1), (f.ty, f.t1)], &tuples).unwrap()
}

/// The tuples every run must land on. The plain semi-naive entry points
/// share their loops with the checkpointed ones, so the oracle is the
/// `Strategy::Naive` entry points (naive all the way down the
/// prerequisites), and for `vcr`, which has no naive strategy, the IR's
/// reference dispatcher on every type at every site.
fn oracle(which: Which) -> Vec<TupleSet> {
    let p = Benchmark::Tiny.generate();
    let f = Facts::load(&p).unwrap();
    let naive = Strategy::Naive;
    let pt = || pointsto::analyze_with(&f, CallGraphMode::OnTheFly, naive).unwrap();
    match which {
        Which::Hierarchy => {
            let h = hierarchy::compute_with(&f, naive).unwrap();
            vec![ts(&h.subtype_of)]
        }
        Which::Vcr => {
            let mut answer = TupleSet::new();
            for c in &p.calls {
                for t in 0..p.types as u32 {
                    if let Some(m) = p.dispatch(t, c.sig) {
                        // The answer's column order: (method, site).
                        answer.insert(vec![m as u64, c.site as u64]);
                    }
                }
            }
            vec![answer]
        }
        Which::Callgraph => {
            let cg = callgraph::build_with(&f, &pt().cg, naive).unwrap();
            vec![ts(&cg.edges), ts(&cg.reachable)]
        }
        Which::Sideeffect => {
            let ptres = pt();
            let cg = callgraph::build_with(&f, &ptres.cg, naive).unwrap();
            let se = sideeffect::compute_with(&f, &ptres.pt, &cg.edges, naive).unwrap();
            vec![
                ts(&se.reads),
                ts(&se.writes),
                ts(&se.reads_star),
                ts(&se.writes_star),
            ]
        }
        Which::Pointsto => {
            let r = pt();
            vec![ts(&r.pt), ts(&r.field_pt), ts(&r.cg)]
        }
    }
}

/// Runs one analysis under the given store faults and/or kernel fail
/// plan, checkpointing into `dir`. Prerequisite analyses (points-to for
/// the call graph, etc.) run before the fail plan is armed, so the kill
/// always lands inside the analysis under test.
fn run_checkpointed(
    which: Which,
    dir: &Path,
    faults: Option<StoreFaults>,
    plan: Option<FailPlan>,
) -> Result<Vec<TupleSet>, PersistError> {
    let p = Benchmark::Tiny.generate();
    let f = Facts::load(&p).unwrap();
    let mut cp = Checkpointer::create(dir, CheckpointPolicy::default()).unwrap();
    if let Some(fa) = faults {
        cp.set_faults(fa);
    }
    let arm = |f: &Facts| {
        if let Some(pl) = plan {
            f.u.set_fail_plan(Some(pl));
        }
    };
    match which {
        Which::Hierarchy => {
            arm(&f);
            let h = persist::hierarchy_checkpointed(&f, &mut cp)?;
            Ok(vec![ts(&h.subtype_of)])
        }
        Which::Vcr => {
            let site_types = full_site_types(&f, &p);
            arm(&f);
            let answer = persist::vcr_checkpointed(&f, &site_types, &mut cp)?;
            Ok(vec![ts(&answer)])
        }
        Which::Callgraph => {
            let ptres = pointsto::analyze(&f, CallGraphMode::OnTheFly).unwrap();
            arm(&f);
            let cg = persist::callgraph_checkpointed(&f, &ptres.cg, &mut cp)?;
            Ok(vec![ts(&cg.edges), ts(&cg.reachable)])
        }
        Which::Sideeffect => {
            let ptres = pointsto::analyze(&f, CallGraphMode::OnTheFly).unwrap();
            let cg = callgraph::build(&f, &ptres.cg).unwrap();
            arm(&f);
            let se = persist::sideeffect_checkpointed(&f, &ptres.pt, &cg.edges, &mut cp)?;
            Ok(vec![
                ts(&se.reads),
                ts(&se.writes),
                ts(&se.reads_star),
                ts(&se.writes_star),
            ])
        }
        Which::Pointsto => {
            arm(&f);
            let r = persist::pointsto_checkpointed(&f, CallGraphMode::OnTheFly, &mut cp)?;
            Ok(vec![ts(&r.pt), ts(&r.field_pt), ts(&r.cg)])
        }
    }
}

/// Resumes from the newest valid checkpoint in `dir` and drives the
/// analysis to completion.
fn resume_run(which: Which, dir: &Path) -> Result<Vec<TupleSet>, PersistError> {
    let mut cp = Checkpointer::create(dir, CheckpointPolicy::default()).unwrap();
    let budget = Budget::unlimited();
    match which {
        Which::Hierarchy => {
            let (_, h) = persist::hierarchy_resume(dir, budget, &mut cp)?;
            Ok(vec![ts(&h.subtype_of)])
        }
        Which::Vcr => {
            let (_, answer) = persist::vcr_resume(dir, budget, &mut cp)?;
            Ok(vec![ts(&answer)])
        }
        Which::Callgraph => {
            let (_, cg) = persist::callgraph_resume(dir, budget, &mut cp)?;
            Ok(vec![ts(&cg.edges), ts(&cg.reachable)])
        }
        Which::Sideeffect => {
            let (_, se) = persist::sideeffect_resume(dir, budget, &mut cp)?;
            Ok(vec![
                ts(&se.reads),
                ts(&se.writes),
                ts(&se.reads_star),
                ts(&se.writes_star),
            ])
        }
        Which::Pointsto => {
            let (_, r) = persist::pointsto_resume(dir, budget, &mut cp)?;
            Ok(vec![ts(&r.pt), ts(&r.field_pt), ts(&r.cg)])
        }
    }
}

fn case_budget() -> usize {
    std::env::var("JEDD_CRASH_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX)
}

fn run_case(i: usize, which: Which, kill: Killpoint, expected: &[TupleSet]) {
    let dir = tmpdir(&format!("case-{i}"));
    let (faults, plan) = match kill {
        Killpoint::Snapshot(n) => (Some(StoreFaults::kill_snapshot(n, 64)), None),
        Killpoint::Rename(n) => (Some(StoreFaults::kill_rename(n)), None),
        Killpoint::LogAppend(n) => (Some(StoreFaults::kill_log(n, 6)), None),
        Killpoint::MidRound(n) => (None, Some(FailPlan::fail_alloc_at(n))),
    };
    let got = match run_checkpointed(which, &dir, faults, plan) {
        // The kill never fired (the run finished first): the results must
        // still match the oracle exactly.
        Ok(got) => got,
        Err(_) => match resume_run(which, &dir) {
            Ok(got) => got,
            Err(PersistError::Store(StoreError::NoCheckpoint { .. })) => {
                // The kill landed before any checkpoint committed; the
                // recovery story is a restart from scratch.
                let retry = tmpdir(&format!("case-{i}-retry"));
                run_checkpointed(which, &retry, None, None).unwrap()
            }
            Err(e) => panic!("resume failed for {which:?} {kill:?}: {e}"),
        },
    };
    assert_eq!(got, expected, "{which:?} {kill:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full kill matrix: every kill-point class against all five
/// analyses, asserting recovery onto the oracle's tuples each time.
#[test]
fn every_kill_point_resumes_tuple_identical() {
    let expected: Vec<Vec<TupleSet>> = ALL.iter().map(|&w| oracle(w)).collect();
    let kills = [
        Killpoint::Snapshot(1),
        Killpoint::Snapshot(2),
        Killpoint::Rename(2),
        Killpoint::LogAppend(2),
        Killpoint::MidRound(200),
        Killpoint::MidRound(2000),
    ];
    let mut cases = Vec::new();
    for (wi, &w) in ALL.iter().enumerate() {
        for &k in &kills {
            cases.push((w, k, wi));
        }
    }
    for (i, (w, k, wi)) in cases.into_iter().enumerate().take(case_budget()) {
        run_case(i, w, k, &expected[wi]);
    }
}

/// A checkpoint whose log append tears (the crash landing between the
/// snapshot write and the commit) must leave the *previous* committed
/// checkpoint resumable: the run dies at the torn commit, and resume
/// falls back one round and still completes tuple-identically.
#[test]
fn torn_commit_falls_back_to_previous_checkpoint() {
    // Probe: count how many checkpoints a clean hierarchy run commits.
    let probe = tmpdir("torn-probe");
    let expected = run_checkpointed(Which::Hierarchy, &probe, None, None).unwrap();
    let commits = read_records(&probe.join(LOG_FILE)).unwrap().len() as u64;
    let _ = std::fs::remove_dir_all(&probe);
    assert!(
        commits >= 2,
        "need at least two checkpoints for a fallback window, got {commits}"
    );

    // Tear the final commit's log append: its snapshot file lands but the
    // record never commits, so the previous checkpoint is the newest.
    let dir = tmpdir("torn-commit");
    let err = run_checkpointed(
        Which::Hierarchy,
        &dir,
        Some(StoreFaults::kill_log(commits, 6)),
        None,
    )
    .expect_err("torn commit must kill the run");
    assert!(
        matches!(err, PersistError::Store(StoreError::Killed { .. })),
        "unexpected error: {err}"
    );
    let records = read_records(&dir.join(LOG_FILE)).unwrap();
    assert_eq!(
        records.len() as u64,
        commits - 1,
        "torn record must not commit"
    );

    let got = resume_run(Which::Hierarchy, &dir).unwrap();
    assert_eq!(got, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A *paged* checkpointed run killed mid-eviction: the points-to
/// analysis runs on a disk-backed universe whose resident-frame budget
/// forces constant eviction, and `StoreFaults::kill_page_write` tears
/// the Nth eviction write after the first checkpoint arms the pager.
/// The run must die with a typed error (surfaced as resource
/// exhaustion, with the full pager error parked on the manager and
/// convertible to the store's vocabulary) — and resuming from the
/// committed checkpoint must land on the naive oracle's tuples. The
/// page file is scratch; only checkpoints are durable, so resume works
/// from a fresh manager.
#[test]
fn paged_run_killed_mid_eviction_resumes_tuple_identical() {
    let expected = oracle(Which::Pointsto);

    let dir = tmpdir("paged-kill");
    let p = Benchmark::Tiny.generate();
    let f = Facts::load_paged(&p, 4).unwrap();
    assert!(f.u.is_paged());
    let mut cp = Checkpointer::create(&dir, CheckpointPolicy::default()).unwrap();
    // The 3rd eviction write after arming dies half-way through a block.
    cp.set_faults(StoreFaults::kill_page_write(3, 64));
    let err = match persist::pointsto_checkpointed(&f, CallGraphMode::OnTheFly, &mut cp) {
        Ok(_) => panic!("a killed eviction write must kill the paged run"),
        Err(e) => e,
    };
    assert!(
        matches!(
            err,
            PersistError::Jedd(jedd_core::JeddError::ResourceExhausted { .. })
        ),
        "unexpected error: {err}"
    );
    // The full typed pager error is parked on the manager, and maps into
    // the store's error vocabulary as the injected kill it is.
    let page_err =
        f.u.bdd_manager()
            .take_page_error()
            .expect("pager error parked on the manager");
    let as_store: StoreError = page_err.into();
    assert!(
        matches!(as_store, StoreError::Killed { at: "page-write" }),
        "unexpected store mapping: {as_store}"
    );

    // At least one checkpoint committed before the kill, and resuming
    // from it completes tuple-identically.
    let got = resume_run(Which::Pointsto, &dir).unwrap();
    assert_eq!(got, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Budget exhaustion mid-round triggers the policy's on-exhausted
/// checkpoint of the last good round, and the error still propagates as
/// `ResourceExhausted` — the degradation-path contract, now with a
/// resumable checkpoint behind it.
#[test]
fn exhausted_round_checkpoints_last_good_state() {
    let dir = tmpdir("exhausted");
    let err = run_checkpointed(
        Which::Pointsto,
        &dir,
        None,
        Some(FailPlan::fail_alloc_at(400)),
    )
    .expect_err("fail plan must kill the run");
    match &err {
        PersistError::Jedd(jedd_core::JeddError::ResourceExhausted { .. }) => {}
        other => panic!("expected ResourceExhausted, got {other}"),
    }
    // The on-failure checkpoint committed, so resume works directly.
    let got = resume_run(Which::Pointsto, &dir).unwrap();
    assert_eq!(got, oracle(Which::Pointsto));
    let _ = std::fs::remove_dir_all(&dir);
}
