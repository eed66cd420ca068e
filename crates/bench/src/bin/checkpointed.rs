//! Checkpointed analysis runs: the `--checkpoint-dir` quick-start.
//!
//! Runs one of the five analyses with crash-safe checkpointing enabled —
//! every completed fixpoint round (and any `ResourceExhausted` failure)
//! cuts a checksummed snapshot plus a write-ahead log record into the
//! given directory. A later `--resume` run loads the newest valid
//! checkpoint and drives the same fixpoint to completion.
//!
//! ```sh
//! # Run points-to under a node budget; exhaustion leaves a checkpoint.
//! cargo run --release -p jedd-bench --bin checkpointed -- \
//!     --checkpoint-dir /tmp/jedd-ckpt --analysis pointsto --max-nodes 20000
//! # Continue from the newest checkpoint, without the budget.
//! cargo run --release -p jedd-bench --bin checkpointed -- \
//!     --checkpoint-dir /tmp/jedd-ckpt --analysis pointsto --resume
//! ```

use jedd_analyses::callgraph;
use jedd_analyses::facts::Facts;
use jedd_analyses::ir::Program;
use jedd_analyses::persist::{self, PersistError};
use jedd_analyses::pointsto::{self, CallGraphMode};
use jedd_analyses::synth::Benchmark;
use jedd_core::{Budget, Relation};
use jedd_store::{CheckpointPolicy, Checkpointer};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    dir: PathBuf,
    analysis: String,
    benchmark: Benchmark,
    resume: bool,
    max_nodes: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: checkpointed --checkpoint-dir DIR [--analysis NAME] \
         [--benchmark NAME] [--resume] [--max-nodes N]\n\
         \n\
         --checkpoint-dir DIR  where snapshots and the checkpoint log live\n\
         --analysis NAME       hierarchy | vcr | callgraph | sideeffect |\n\
         \x20                     pointsto (default: pointsto)\n\
         --benchmark NAME      tiny | compress | javac | javac2 | sablecc |\n\
         \x20                     jedit (default: compress; ignored with --resume,\n\
         \x20                     the checkpoint carries its own inputs)\n\
         --resume              continue from the newest valid checkpoint\n\
         --max-nodes N         cap live BDD nodes (a fresh run that exhausts\n\
         \x20                     the cap checkpoints its last good round)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut dir = None;
    let mut analysis = "pointsto".to_string();
    let mut benchmark = Benchmark::Compress;
    let mut resume = false;
    let mut max_nodes = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--checkpoint-dir" => dir = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--analysis" => analysis = it.next().unwrap_or_else(|| usage()),
            "--benchmark" => {
                benchmark = match it.next().unwrap_or_else(|| usage()).as_str() {
                    "tiny" => Benchmark::Tiny,
                    "compress" => Benchmark::Compress,
                    "javac" => Benchmark::Javac,
                    "javac2" => Benchmark::Javac2,
                    "sablecc" => Benchmark::Sablecc,
                    "jedit" => Benchmark::Jedit,
                    other => {
                        eprintln!("unknown benchmark: {other}");
                        usage()
                    }
                }
            }
            "--resume" => resume = true,
            "--max-nodes" => {
                max_nodes = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            _ => usage(),
        }
    }
    let Some(dir) = dir else { usage() };
    Args {
        dir,
        analysis,
        benchmark,
        resume,
        max_nodes,
    }
}

/// Every receiver type at every site: a deterministic demo input for
/// virtual call resolution (real drivers feed points-to results here).
fn full_site_types(f: &Facts, p: &Program) -> Relation {
    let mut tuples = Vec::new();
    for c in &p.calls {
        for t in 0..p.types as u32 {
            tuples.push(vec![c.site as u64, t as u64]);
        }
    }
    Relation::from_tuples(&f.u, &[(f.site, f.c1), (f.ty, f.t1)], &tuples)
        .expect("site-type tuples are in range")
}

fn fresh(args: &Args, cp: &mut Checkpointer) -> Result<(&'static str, u64), PersistError> {
    let p = args.benchmark.generate();
    let f = Facts::load(&p)?;
    // Prerequisite analyses run unbudgeted; the budget (and with it the
    // chance of a checkpointed exhaustion) applies to the analysis under
    // `--analysis` only.
    let arm = |f: &Facts| {
        if let Some(n) = args.max_nodes {
            f.u.set_budget(Budget::unlimited().with_max_live_nodes(n as usize));
        }
    };
    match args.analysis.as_str() {
        "hierarchy" => {
            arm(&f);
            let h = persist::hierarchy_checkpointed(&f, cp)?;
            Ok(("subtype_of tuples", h.subtype_of.size()))
        }
        "vcr" => {
            let site_types = full_site_types(&f, &p);
            arm(&f);
            let answer = persist::vcr_checkpointed(&f, &site_types, cp)?;
            Ok(("resolved (site, method) pairs", answer.size()))
        }
        "callgraph" => {
            let ptres = pointsto::analyze(&f, CallGraphMode::OnTheFly)?;
            arm(&f);
            let cg = persist::callgraph_checkpointed(&f, &ptres.cg, cp)?;
            Ok(("reachable methods", cg.reachable.size()))
        }
        "sideeffect" => {
            let ptres = pointsto::analyze(&f, CallGraphMode::OnTheFly)?;
            let cg = callgraph::build(&f, &ptres.cg)?;
            arm(&f);
            let se = persist::sideeffect_checkpointed(&f, &ptres.pt, &cg.edges, cp)?;
            Ok(("transitive read pairs", se.reads_star.size()))
        }
        "pointsto" => {
            arm(&f);
            let r = persist::pointsto_checkpointed(&f, CallGraphMode::OnTheFly, cp)?;
            Ok(("points-to pairs", r.pt.size()))
        }
        other => {
            eprintln!("unknown analysis: {other}");
            usage()
        }
    }
}

fn resume(args: &Args, cp: &mut Checkpointer) -> Result<(&'static str, u64), PersistError> {
    // The checkpoint carries the full relation state; the resumed run gets
    // a fresh (by default unlimited) budget.
    let budget = match args.max_nodes {
        Some(n) => Budget::unlimited().with_max_live_nodes(n as usize),
        None => Budget::unlimited(),
    };
    match args.analysis.as_str() {
        "hierarchy" => {
            let (_, h) = persist::hierarchy_resume(&args.dir, budget, cp)?;
            Ok(("subtype_of tuples", h.subtype_of.size()))
        }
        "vcr" => {
            let (_, answer) = persist::vcr_resume(&args.dir, budget, cp)?;
            Ok(("resolved (site, method) pairs", answer.size()))
        }
        "callgraph" => {
            let (_, cg) = persist::callgraph_resume(&args.dir, budget, cp)?;
            Ok(("reachable methods", cg.reachable.size()))
        }
        "sideeffect" => {
            let (_, se) = persist::sideeffect_resume(&args.dir, budget, cp)?;
            Ok(("transitive read pairs", se.reads_star.size()))
        }
        "pointsto" => {
            let (_, r) = persist::pointsto_resume(&args.dir, budget, cp)?;
            Ok(("points-to pairs", r.pt.size()))
        }
        other => {
            eprintln!("unknown analysis: {other}");
            usage()
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Err(e) = std::fs::create_dir_all(&args.dir) {
        eprintln!("checkpointed: cannot create {}: {e}", args.dir.display());
        return ExitCode::FAILURE;
    }
    let mut cp = match Checkpointer::create(&args.dir, CheckpointPolicy::default()) {
        Ok(cp) => cp,
        Err(e) => {
            eprintln!(
                "checkpointed: cannot open store in {}: {e}",
                args.dir.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let res = if args.resume {
        resume(&args, &mut cp)
    } else {
        fresh(&args, &mut cp)
    };
    match res {
        Ok((what, n)) => {
            println!(
                "{}: {} = {} (checkpoints in {})",
                args.analysis,
                what,
                n,
                args.dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("checkpointed: {}: {e}", args.analysis);
            eprintln!(
                "checkpointed: if a checkpoint was cut (ResourceExhausted or \
                 cancellation), rerun with --resume to continue from it"
            );
            ExitCode::FAILURE
        }
    }
}
