//! Checkpointed runs and crash resume of the five analyses.
//!
//! The plain semi-naive entry points and the `persist::*_checkpointed`
//! ones run the same fixpoint loops, so these tests hold them to an
//! oracle that shares no loop with either: the naive strategy (for
//! `vcr`, which has none, the reference dispatcher of the IR). On the
//! tiny preset, each analysis must give the same tuples through a clean
//! checkpointed run, the plain run and the oracle. A checkpointed run
//! killed mid-round by kernel fault injection must then resume from its
//! last good checkpoint and land on the same tuples, which exercises the
//! snapshot encoder, the decoder and every `*_resume` path.

use jedd::analyses::facts::Facts;
use jedd::analyses::ir::Program;
use jedd::analyses::persist::{self, PersistError};
use jedd::analyses::pointsto::{self, CallGraphMode};
use jedd::analyses::synth::Benchmark;
use jedd::analyses::{callgraph, hierarchy, sideeffect, vcr};
use jedd::core::{Budget, FailPlan, JeddError, Relation, Strategy};
use jedd::store::{CheckpointPolicy, Checkpointer, StoreError};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

type Tuples = Vec<BTreeSet<Vec<u64>>>;

fn ts(r: &Relation) -> BTreeSet<Vec<u64>> {
    r.tuples().into_iter().collect()
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("jedd-ckpt-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[derive(Clone, Copy, Debug)]
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

/// How an analysis is run.
enum Route<'a> {
    /// The `persist::*_checkpointed` entry point, under `cp`.
    Checkpointed(&'a mut Checkpointer),
    /// The plain entry point under the given strategy.
    Plain(Strategy),
}

/// Every receiver type at every site: the `vcr` input.
fn full_site_types(f: &Facts, p: &Program) -> Relation {
    let mut tuples = Vec::new();
    for c in &p.calls {
        for t in 0..p.types as u32 {
            tuples.push(vec![c.site as u64, t as u64]);
        }
    }
    Relation::from_tuples(&f.u, &[(f.site, f.c1), (f.ty, f.t1)], &tuples).unwrap()
}

/// Runs `which` on `f` by `route`. Its inputs (points-to for the call
/// graph, and so on) come from the plain runs first; `arm` then runs just
/// before the analysis under test, so a fault it installs lands inside
/// that analysis. Returns the result tuples and the node allocations the
/// analysis made.
fn run(
    which: Which,
    p: &Program,
    f: &Facts,
    route: Route<'_>,
    arm: impl FnOnce(&Facts),
) -> Result<(Tuples, u64), PersistError> {
    let allocs = |f: &Facts| f.u.bdd_manager().kernel_stats().nodes_created;
    let pt = || pointsto::analyze(f, CallGraphMode::OnTheFly).unwrap();
    let (tuples, before) = match which {
        Which::Hierarchy => {
            arm(f);
            let before = allocs(f);
            let h = match route {
                Route::Checkpointed(cp) => persist::hierarchy_checkpointed(f, cp)?,
                Route::Plain(s) => hierarchy::compute_with(f, s)?,
            };
            (vec![ts(&h.subtype_of)], before)
        }
        Which::Vcr => {
            let site_types = full_site_types(f, p);
            arm(f);
            let before = allocs(f);
            let answer = match route {
                Route::Checkpointed(cp) => persist::vcr_checkpointed(f, &site_types, cp)?,
                Route::Plain(_) => vcr::resolve(f, &site_types)?,
            };
            (vec![ts(&answer)], before)
        }
        Which::Callgraph => {
            let ptres = pt();
            arm(f);
            let before = allocs(f);
            let cg = match route {
                Route::Checkpointed(cp) => persist::callgraph_checkpointed(f, &ptres.cg, cp)?,
                Route::Plain(s) => callgraph::build_with(f, &ptres.cg, s)?,
            };
            (vec![ts(&cg.edges), ts(&cg.reachable)], before)
        }
        Which::Sideeffect => {
            let ptres = pt();
            let cg = callgraph::build(f, &ptres.cg).unwrap();
            arm(f);
            let before = allocs(f);
            let se = match route {
                Route::Checkpointed(cp) => {
                    persist::sideeffect_checkpointed(f, &ptres.pt, &cg.edges, cp)?
                }
                Route::Plain(s) => sideeffect::compute_with(f, &ptres.pt, &cg.edges, s)?,
            };
            let rels = [&se.reads, &se.writes, &se.reads_star, &se.writes_star];
            (rels.map(ts).to_vec(), before)
        }
        Which::Pointsto => {
            arm(f);
            let before = allocs(f);
            let r = match route {
                Route::Checkpointed(cp) => {
                    persist::pointsto_checkpointed(f, CallGraphMode::OnTheFly, cp)?
                }
                Route::Plain(s) => pointsto::analyze_with(f, CallGraphMode::OnTheFly, s)?,
            };
            (vec![ts(&r.pt), ts(&r.field_pt), ts(&r.cg)], before)
        }
    };
    Ok((tuples, allocs(f) - before))
}

/// A clean checkpointed run of `which` into `dir`, with its allocations.
fn checkpointed(which: Which, p: &Program, dir: &Path) -> (Tuples, u64) {
    let f = Facts::load(p).unwrap();
    let mut cp = Checkpointer::create(dir, CheckpointPolicy::default()).unwrap();
    run(which, p, &f, Route::Checkpointed(&mut cp), |_| {}).unwrap()
}

fn plain(which: Which, p: &Program, strategy: Strategy) -> Tuples {
    let f = Facts::load(p).unwrap();
    run(which, p, &f, Route::Plain(strategy), |_| {}).unwrap().0
}

/// The `vcr` answer on every type at every site, from the IR's reference
/// dispatcher. Tuples are `(method, site)`, the relation's column order.
fn dispatch_oracle(p: &Program) -> Tuples {
    let mut answer = BTreeSet::new();
    for c in &p.calls {
        for t in 0..p.types as u32 {
            if let Some(m) = p.dispatch(t, c.sig) {
                answer.insert(vec![m as u64, c.site as u64]);
            }
        }
    }
    vec![answer]
}

/// The result to hold every run to: the naive strategy, or the reference
/// dispatcher for `vcr`.
fn oracle(which: Which, p: &Program) -> Tuples {
    match which {
        Which::Vcr => dispatch_oracle(p),
        _ => plain(which, p, Strategy::Naive),
    }
}

#[test]
fn checkpointed_plain_and_naive_runs_agree() {
    let p = Benchmark::Tiny.generate();
    for which in ALL {
        let expected = oracle(which, &p);
        assert!(
            expected.iter().any(|r| !r.is_empty()),
            "{which:?}: the oracle derived nothing"
        );
        let dir = tmpdir(&format!("agree-{which:?}"));
        let (got, _) = checkpointed(which, &p, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(got, expected, "{which:?}: checkpointed run");
        assert_eq!(
            plain(which, &p, Strategy::SemiNaive),
            expected,
            "{which:?}: plain run"
        );
    }
}

/// Resumes `which` from the newest checkpoint in `dir` and finishes it.
fn resume(which: Which, dir: &Path) -> Result<Tuples, PersistError> {
    let mut cp = Checkpointer::create(dir, CheckpointPolicy::default()).unwrap();
    let budget = Budget::unlimited();
    Ok(match which {
        Which::Hierarchy => {
            let (_, h) = persist::hierarchy_resume(dir, budget, &mut cp)?;
            vec![ts(&h.subtype_of)]
        }
        Which::Vcr => {
            let (_, answer) = persist::vcr_resume(dir, budget, &mut cp)?;
            vec![ts(&answer)]
        }
        Which::Callgraph => {
            let (_, cg) = persist::callgraph_resume(dir, budget, &mut cp)?;
            vec![ts(&cg.edges), ts(&cg.reachable)]
        }
        Which::Sideeffect => {
            let (_, se) = persist::sideeffect_resume(dir, budget, &mut cp)?;
            [&se.reads, &se.writes, &se.reads_star, &se.writes_star]
                .map(ts)
                .to_vec()
        }
        Which::Pointsto => {
            let (_, r) = persist::pointsto_resume(dir, budget, &mut cp)?;
            vec![ts(&r.pt), ts(&r.field_pt), ts(&r.cg)]
        }
    })
}

/// Kills each analysis at every eighth of the node allocations a clean
/// run makes, the last one included. Under the default policy
/// (every round, and the last good state on exhaustion) a kill inside the
/// fixpoint loop leaves a checkpoint to resume from; a kill in the set-up
/// before the loop leaves none, and the recovery is a fresh start. At
/// least one kill per analysis must land in the loop.
#[test]
fn runs_killed_mid_round_resume_to_the_same_tuples() {
    let p = Benchmark::Tiny.generate();
    for which in ALL {
        let expected = oracle(which, &p);
        let clean = tmpdir(&format!("clean-{which:?}"));
        let (_, allocs) = checkpointed(which, &p, &clean);
        let _ = std::fs::remove_dir_all(&clean);

        let mut resumed = 0;
        for kill in (1..=8).map(|k| allocs * k / 8) {
            let dir = tmpdir(&format!("kill-{which:?}-{kill}"));
            let f = Facts::load(&p).unwrap();
            let mut cp = Checkpointer::create(&dir, CheckpointPolicy::default()).unwrap();
            let arm = |f: &Facts| f.u.set_fail_plan(Some(FailPlan::fail_alloc_at(kill)));
            match run(which, &p, &f, Route::Checkpointed(&mut cp), arm) {
                Err(PersistError::Jedd(JeddError::ResourceExhausted { .. })) => {}
                Err(e) => panic!("{which:?} killed at {kill}: unexpected error {e}"),
                Ok(_) => panic!("{which:?}: allocation {kill} of {allocs} never failed"),
            }
            match resume(which, &dir) {
                Ok(got) => {
                    assert_eq!(got, expected, "{which:?} killed at {kill}: resumed run");
                    resumed += 1;
                }
                Err(PersistError::Store(StoreError::NoCheckpoint { .. })) => {}
                Err(e) => panic!("{which:?} killed at {kill}: resume failed: {e}"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(resumed > 0, "{which:?}: no kill landed inside the loop");
    }
}
