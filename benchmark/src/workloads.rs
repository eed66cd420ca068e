//! The four workloads: which programs each runs, which public calls make
//! up one pass, and the oracle and mode guards every call is checked
//! against.

use crate::counters::Counters;
use crate::inputs::{Answer, Input, Pairs, Triples};
use crate::trace::{OpSink, Trace};
use jedd_analyses::facts::Facts;
use jedd_analyses::pointsto::{self, CallGraphMode};
use jedd_analyses::synth::Benchmark;
use jedd_analyses::{baseline_bdd, driver, jedd_src};
use jedd_core::{AttrId, JeddError, Relation, Strategy};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One way of computing a workload's answer; each is timed on its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Side {
    /// `baseline_bdd::analyze`: points-to hand-coded on the kernel.
    Hand,
    /// `Facts::load` + `pointsto::analyze_with(.., Strategy::Naive)`.
    Naive,
    /// `Facts::load` + `pointsto::analyze`: the analysis users run, on
    /// one kernel thread like every side but the next.
    Default,
    /// As [`Side::Default`] with `JEDD_THREADS=2`.
    TwoThreads,
    /// `Facts::load_paged` + `pointsto::analyze`.
    Paged,
    /// `driver::run_jedd`: the five mini-Jedd modules through jeddc.
    Jeddc,
    /// `driver::run`: the same five analyses through the Rust API.
    Library,
}

impl Side {
    /// The span name of this side.
    pub fn name(self) -> &'static str {
        match self {
            Side::Hand => "hand",
            Side::Naive => "naive",
            Side::Default => "default",
            Side::TwoThreads => "threads2",
            Side::Paged => "paged",
            Side::Jeddc => "jeddc",
            Side::Library => "library",
        }
    }
}

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 2, timed like for like.
    Table2,
    /// Default points-to at one and at two kernel threads.
    Pointsto2t,
    /// The five mini-Jedd modules compiled and run by jeddc.
    JeddcWholeProgram,
    /// Default points-to on the disk-backed pager.
    PointstoPaged,
}

/// A program of a workload: its preset, the pager's frame budget (0 for
/// a resident run), and whether that budget must make the pager fault.
struct Preset(Benchmark, usize, bool);

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Table2,
        Workload::Pointsto2t,
        Workload::JeddcWholeProgram,
        Workload::PointstoPaged,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2 => "table2",
            Workload::Pointsto2t => "pointsto_2t",
            Workload::JeddcWholeProgram => "jeddc_whole_program",
            Workload::PointstoPaged => "pointsto_paged",
        }
    }

    /// The workload named `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn presets(self) -> Vec<Preset> {
        use Benchmark::*;
        match self {
            Workload::Table2 => Benchmark::table2()
                .into_iter()
                .map(|b| Preset(b, 0, false))
                .collect(),
            // Small presets: at two threads loading is several times
            // slower, and a short pass keeps enough passes in a window.
            Workload::Pointsto2t => vec![Preset(Compress, 0, false), Preset(Javac, 0, false)],
            Workload::JeddcWholeProgram => vec![Preset(Javac, 0, false), Preset(Sablecc, 0, false)],
            // compress spills at 256 frames; javac fits in 1,024.
            Workload::PointstoPaged => {
                vec![Preset(Compress, 256, true), Preset(Javac, 1024, false)]
            }
        }
    }

    /// The sides one pass runs on every program, before rotation.
    pub fn sides(self) -> &'static [Side] {
        match self {
            Workload::Table2 => &[Side::Hand, Side::Naive, Side::Default],
            Workload::Pointsto2t => &[Side::Default, Side::TwoThreads],
            Workload::JeddcWholeProgram => &[Side::Jeddc, Side::Library],
            Workload::PointstoPaged => &[Side::Paged, Side::Default],
        }
    }

    /// The side whose time is `analysis_s`.
    pub fn subject(self) -> Side {
        match self {
            Workload::Table2 => Side::Default,
            Workload::Pointsto2t => Side::TwoThreads,
            Workload::JeddcWholeProgram => Side::Jeddc,
            Workload::PointstoPaged => Side::Paged,
        }
    }

    /// `overhead_ratio` is the time of the first side over the second's.
    pub fn ratio(self) -> (Side, Side) {
        match self {
            Workload::Table2 => (Side::Naive, Side::Hand),
            Workload::Pointsto2t => (Side::TwoThreads, Side::Default),
            Workload::JeddcWholeProgram => (Side::Jeddc, Side::Library),
            Workload::PointstoPaged => (Side::Paged, Side::Default),
        }
    }

    /// Generates the workload's programs from `seed` and computes their
    /// reference answers.
    pub fn setup(self, seed: u64) -> Vec<Input> {
        let whole_program = self == Workload::JeddcWholeProgram;
        self.presets()
            .into_iter()
            .map(|Preset(b, frames, must_fault)| {
                Input::new(b, frames, must_fault, seed, whole_program)
            })
            .collect()
    }
}

/// What one pass did.
#[derive(Debug, Default)]
pub struct Pass {
    /// Calls checked.
    pub attempted: u64,
    /// One line per failed call: error, panic, wrong answer or guard.
    pub failures: Vec<String>,
    /// Seconds of each (program, side) call.
    pub calls: BTreeMap<(&'static str, Side), f64>,
}

impl Pass {
    /// Seconds of all timed calls.
    pub fn total(&self) -> f64 {
        self.calls.values().sum()
    }

    /// Seconds of one side, over all programs.
    pub fn side(&self, side: Side) -> f64 {
        self.calls
            .iter()
            .filter(|(k, _)| k.1 == side)
            .map(|(_, t)| t)
            .sum()
    }
}

/// Each call's best (shortest) time over `window`. On a shared machine
/// interference only ever adds time, so the best of several passes is the
/// steadiest estimate of what a call costs.
pub fn best_calls(window: &[Pass]) -> BTreeMap<(&'static str, Side), f64> {
    let mut best: BTreeMap<(&'static str, Side), f64> = BTreeMap::new();
    for p in window {
        for (&k, &t) in &p.calls {
            let b = best.entry(k).or_insert(t);
            *b = b.min(t);
        }
    }
    best
}

/// Runs one pass of `w` over `inputs`, recording spans into `trace`.
/// The order of the sides rotates with `index`. With `traced`, a
/// profiler is installed on every relational universe after loading.
pub fn run_pass(
    w: Workload,
    inputs: &[Input],
    index: usize,
    traced: bool,
    trace: &mut Trace,
) -> Pass {
    let mut pass = Pass::default();
    let root = trace.enter("pass");
    for input in inputs {
        let program_span = trace.enter(input.name());
        let mut sides = w.sides().to_vec();
        sides.rotate_left(index % w.sides().len());
        for side in sides {
            pass.attempted += 1;
            let side_span = trace.enter(side.name());
            let result = catch_unwind(AssertUnwindSafe(|| run_side(side, input, traced, trace)));
            trace.close_to(side_span);
            // The side's time is its calls' time: decoding the answer and
            // dropping the universe stay outside it.
            let secs: f64 = trace
                .spans()
                .iter()
                .filter(|s| s.parent == Some(side_span))
                .map(|s| s.secs)
                .sum();
            pass.calls.insert((input.name(), side), secs);
            let failure = match result {
                Ok(Ok((answer, counters))) => check(side, input, &answer, &counters),
                Ok(Err(e)) => Some(e),
                Err(_) => Some("panicked".to_string()),
            };
            if let Some(f) = failure {
                pass.failures
                    .push(format!("{} {}: {f}", input.name(), side.name()));
            }
        }
        trace.exit(program_span);
    }
    trace.exit(root);
    pass
}

/// The oracle and the mode guards for one call.
fn check(side: Side, input: &Input, answer: &Answer, c: &Counters) -> Option<String> {
    if let Some(rel) = answer.mismatch(&input.reference) {
        return Some(format!("{rel} differs from the explicit-set reference"));
    }
    if side != Side::TwoThreads && c.value("par_ops") > 0.0 {
        return Some(format!(
            "{} parallel kernel ops on a 1-thread side",
            c.value("par_ops")
        ));
    }
    let faults = c.value("page_faults");
    if side != Side::Paged && faults > 0.0 {
        return Some(format!("{faults} page faults on a resident side"));
    }
    if side == Side::Paged && input.must_fault && faults == 0.0 {
        return Some(format!("no page faults at {} frames", input.frames));
    }
    None
}

/// Kernel counters that are levels or high-water marks, not running
/// totals: a call reports their value at its end, not a difference.
const LEVELS: [&str; 3] = ["live_nodes", "page_max_resident", "par_threads_effective"];

/// The counters of kernel `mgr`, plus its live node count.
fn kernel(mgr: &jedd_bdd::BddManager) -> Counters {
    let mut c = Counters::of(&mgr.kernel_stats());
    c.set("live_nodes", mgr.live_nodes() as f64);
    c
}

fn pairs(r: &Relation, a: AttrId, b: AttrId) -> Result<Pairs, JeddError> {
    Ok(r.tuples_by(&[a, b])?
        .into_iter()
        .map(|t| (t[0], t[1]))
        .collect())
}

fn triples(r: &Relation, a: AttrId, b: AttrId, c: AttrId) -> Result<Triples, JeddError> {
    Ok(r.tuples_by(&[a, b, c])?
        .into_iter()
        .map(|t| (t[0], t[1], t[2]))
        .collect())
}

/// Runs one side on one program inside the caller's side span; returns
/// the answer and the side's counters (summed over its calls).
fn run_side(
    side: Side,
    input: &Input,
    traced: bool,
    trace: &mut Trace,
) -> Result<(Answer, Counters), String> {
    let p = &input.program;
    // Set before every side, so a side that panicked cannot leave its
    // thread count to the next; the kernel reads it when it is created.
    std::env::set_var(
        "JEDD_THREADS",
        if side == Side::TwoThreads { "2" } else { "1" },
    );
    match side {
        Side::Hand => {
            let (id, raw) = trace.time("baseline_bdd.analyze", || baseline_bdd::analyze(p));
            let c = kernel(&raw.layout.mgr);
            trace.set_counters(id, c.clone());
            let pt = raw.pt_pairs().into_iter().collect();
            Ok((
                Answer {
                    pt,
                    ..Answer::default()
                },
                c,
            ))
        }
        Side::Naive => relational(input, 0, Strategy::Naive, traced, trace),
        Side::Default | Side::TwoThreads => {
            relational(input, 0, Strategy::default(), traced, trace)
        }
        Side::Paged => relational(input, input.frames, Strategy::default(), traced, trace),
        Side::Jeddc => {
            let (id, exec) = trace.time("driver.run_jedd", || driver::run_jedd(p));
            let exec = exec.map_err(|e| format!("run_jedd: {e}"))?;
            let mut c = kernel(&exec.universe().bdd_manager())
                .merge(Counters::of(&exec.universe().stats()));
            c.set("replaces", exec.replaces as f64);
            trace.set_counters(id, c.clone());
            let rel = |name: &str| exec.tuples(name).map_err(|e| format!("{name}: {e}"));
            let two = |name: &str| -> Result<Pairs, String> {
                Ok(rel(name)?.into_iter().map(|t| (t[0], t[1])).collect())
            };
            let answer = Answer {
                pt: two("pt")?,
                site_target: Some(two("siteTarget")?),
                subtype_of: Some(two("subtypeOf")?),
                reads_star: Some(
                    rel("readsStar")?
                        .into_iter()
                        .map(|t| (t[0], t[1], t[2]))
                        .collect(),
                ),
            };
            Ok((answer, c))
        }
        Side::Library => {
            let (id, wp) = trace.time("driver.run", || driver::run(p));
            let wp = wp.map_err(|e| format!("driver::run: {e}"))?;
            let f = &wp.facts;
            let c = kernel(&f.u.bdd_manager()).merge(Counters::of(&f.u.stats()));
            trace.set_counters(id, c.clone());
            let answer = (|| -> Result<Answer, JeddError> {
                Ok(Answer {
                    pt: pairs(&wp.points_to.pt, f.var, f.obj)?,
                    site_target: Some(pairs(&wp.call_graph.site_targets, f.site, f.method)?),
                    subtype_of: Some(pairs(&wp.hierarchy.subtype_of, f.subtype, f.supertype)?),
                    reads_star: Some(triples(
                        &wp.side_effects.reads_star,
                        f.method,
                        f.baseobj,
                        f.field,
                    )?),
                })
            })()
            .map_err(|e| format!("decoding results: {e}"))?;
            Ok((answer, c))
        }
    }
}

/// `Facts::load` (or `load_paged` when `frames` > 0), then points-to
/// under `strategy`, each in its own span.
fn relational(
    input: &Input,
    frames: usize,
    strategy: Strategy,
    traced: bool,
    trace: &mut Trace,
) -> Result<(Answer, Counters), String> {
    let p = &input.program;
    let (load_id, facts) = trace.time("facts.load", || {
        if frames > 0 {
            Facts::load_paged(p, frames)
        } else {
            Facts::load(p)
        }
    });
    let facts = facts.map_err(|e| format!("Facts::load: {e}"))?;
    let mgr = facts.u.bdd_manager();
    let loaded = kernel(&mgr);
    let loaded_u = Counters::of(&facts.u.stats());
    trace.set_counters(load_id, loaded.clone());
    let sink = traced.then(|| OpSink::install(&facts.u));
    let (fix_id, result) = trace.time("pointsto.fixpoint", || match strategy {
        Strategy::Naive => pointsto::analyze_with(&facts, CallGraphMode::OnTheFly, strategy),
        _ => pointsto::analyze(&facts, CallGraphMode::OnTheFly),
    });
    let result = result.map_err(|e| format!("points-to: {e}"))?;
    let now = kernel(&mgr);
    let mut c = now
        .since(&loaded)
        .merge(Counters::of(&facts.u.stats()).since(&loaded_u));
    for level in LEVELS {
        if let Some(v) = now.get(level) {
            c.set(level, v);
        }
    }
    c.set("rounds", result.iterations as f64);
    if let Some(sink) = sink {
        c = c.merge(sink.fold_into(trace, fix_id));
    }
    trace.set_counters(fix_id, c.clone());
    let pt = pairs(&result.pt, facts.var, facts.obj).map_err(|e| format!("decoding pt: {e}"))?;
    let mut side = loaded;
    side.add(&c);
    Ok((
        Answer {
            pt,
            ..Answer::default()
        },
        side,
    ))
}

/// Compiles the combined mini-Jedd source phase by phase under a
/// `jeddc.compile` root span: the per-phase split of the compile that
/// `driver::run_jedd` does inside its own call.
pub fn trace_compile(trace: &mut Trace) -> Result<(), String> {
    let src = jedd_src::combined();
    let root = trace.enter("jeddc.compile");
    let result = (|| {
        let (_, ast) = trace.time("jeddc.parse", || jeddc::parse::parse(&src));
        let ast = ast.map_err(|e| format!("parse: {e}"))?;
        let (_, typed) = trace.time("jeddc.check", || jeddc::check::check(&ast));
        let typed = typed.map_err(|e| format!("check: {e}"))?;
        let (id, asg) = trace.time("jeddc.assign", || {
            jeddc::assignc::assign_named(&typed, false, "Test.jedd")
                .map_err(|e| format!("assign: {e}"))
        });
        let asg = asg?;
        trace.set_counters(id, Counters::of(&asg.stats));
        Ok(())
    })();
    trace.close_to(root);
    result
}
