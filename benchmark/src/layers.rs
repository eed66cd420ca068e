//! Per-layer metrics: the traced pass's spans and counters, summed by the
//! module each public call belongs to. A layer a workload does not reach
//! reads 0, which for `par.*` and `pager.*` is also what the mode guards
//! require.

use crate::trace::{Span, Trace};
use crate::workloads::{best_calls, Pass, Side, Workload};

/// One metric line: name, value and unit.
pub struct Metric {
    /// The metric's name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The public calls whose spans carry kernel counters.
const CALLS: [&str; 5] = [
    "facts.load",
    "pointsto.fixpoint",
    "baseline_bdd.analyze",
    "driver.run_jedd",
    "driver.run",
];

/// Relational operations that report to the profiler and that the
/// points-to analyses run.
const OPS: [&str; 6] = ["join", "compose", "replace", "union", "minus", "project"];

/// Kernel caches whose hit ratio is reported on its own.
const CACHES: [&str; 6] = ["and", "or", "diff", "exists", "and_exists", "replace"];

/// The median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

struct Spans<'a>(&'a Trace);

impl Spans<'_> {
    fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s Span> + 's {
        self.0.spans().iter().filter(move |s| s.name == name)
    }

    fn secs(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.secs).sum()
    }

    fn sum(&self, name: &str, counter: &str) -> f64 {
        self.named(name).map(|s| s.counters.value(counter)).sum()
    }

    fn calls_sum(&self, counter: &str) -> f64 {
        CALLS.iter().map(|c| self.sum(c, counter)).sum()
    }

    fn calls_max(&self, counter: &str) -> f64 {
        CALLS
            .iter()
            .flat_map(|c| self.named(c))
            .map(|s| s.counters.value(counter))
            .fold(0.0, f64::max)
    }

    /// Sum of `counter` over calls named `name` made by side `side`.
    fn side_sum(&self, side: Side, name: &str, counter: &str) -> f64 {
        let spans = self.0.spans();
        self.named(name)
            .filter(|s| s.parent.is_some_and(|p| spans[p].name == side.name()))
            .map(|s| s.counters.value(counter))
            .sum()
    }
}

/// Every per-layer metric of workload `w`. `traced` is the traced pass
/// and its spans, `compile` the phase-by-phase jeddc compile (empty
/// outside `jeddc_whole_program`), `window` the untraced passes.
pub fn per_layer(
    w: Workload,
    traced: (&Pass, &Trace),
    compile: &Trace,
    window: &[Pass],
) -> Vec<Metric> {
    let (pass, trace) = traced;
    let t = Spans(trace);
    let c = Spans(compile);
    let mut out = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric {
            name: name.to_string(),
            value: value + 0.0, // an empty sum is -0.0
            unit,
        })
    };

    put("facts.load_s", t.secs("facts.load"), "s");
    put(
        "facts.nodes_created",
        t.sum("facts.load", "nodes_created"),
        "count",
    );
    put(
        "facts.cache_lookups",
        t.sum("facts.load", "cache_lookups"),
        "count",
    );

    let fix = "pointsto.fixpoint";
    put("pointsto.fixpoint_s", t.secs(fix), "s");
    put("pointsto.rounds", t.sum(fix, "rounds"), "count");
    put("fixpoint.round_s", t.sum(fix, "round_s"), "s");
    put("fixpoint.rule_s", t.sum(fix, "rule_s"), "s");
    put("fixpoint.delta_tuples", t.sum(fix, "delta_tuples"), "count");

    put("relational.ops", t.sum(fix, "relational_ops"), "count");
    put(
        "relational.auto_replaces",
        t.sum(fix, "auto_replaces"),
        "count",
    );
    let kernel_s: f64 = OPS.iter().map(|op| t.secs(&format!("op.{op}"))).sum();
    put("relational.kernel_s", kernel_s, "s");
    // Fixpoint time outside its operations' kernel calls: validation,
    // alignment planning, bookkeeping, and the profiler's own node counts.
    let selfs = trace.self_secs();
    let fix_self: f64 = trace
        .spans()
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == fix)
        .map(|(_, t)| t)
        .sum();
    put("relational.self_s", fix_self, "s");
    for op in OPS {
        let span = format!("op.{op}");
        put(
            &format!("relational.{op}.count"),
            t.sum(&span, "count"),
            "count",
        );
        put(&format!("relational.{op}.s"), t.secs(&span), "s");
    }
    let naive = |counter: &str| {
        t.side_sum(Side::Naive, "facts.load", counter) + t.side_sum(Side::Naive, fix, counter)
    };
    let hand = "baseline_bdd.analyze";
    put(
        "relational.over_hand_nodes",
        ratio(naive("nodes_created"), t.sum(hand, "nodes_created")),
        "ratio",
    );
    put(
        "relational.over_hand_lookups",
        ratio(naive("cache_lookups"), t.sum(hand, "cache_lookups")),
        "ratio",
    );

    put("hand.s", t.secs(hand), "s");
    put("hand.nodes_created", t.sum(hand, "nodes_created"), "count");
    put("hand.cache_lookups", t.sum(hand, "cache_lookups"), "count");

    let created = t.calls_sum("nodes_created");
    put("kernel.nodes_created", created, "count");
    let unique_hits = t.calls_sum("unique_hits");
    put(
        "kernel.unique_hit_ratio",
        ratio(unique_hits, unique_hits + created),
        "ratio",
    );
    put(
        "kernel.cache_hit_ratio",
        ratio(t.calls_sum("cache_hits"), t.calls_sum("cache_lookups")),
        "ratio",
    );
    for cache in CACHES {
        put(
            &format!("kernel.cache.{cache}.hit_ratio"),
            ratio(
                t.calls_sum(&format!("cache.{cache}.hits")),
                t.calls_sum(&format!("cache.{cache}.lookups")),
            ),
            "ratio",
        );
    }
    put("kernel.gc_runs", t.calls_sum("gc_runs"), "count");
    put("kernel.gc_reclaimed", t.calls_sum("gc_reclaimed"), "count");
    put("kernel.live_nodes_end", t.calls_max("live_nodes"), "count");

    put("par.load.ops", t.sum("facts.load", "par_ops"), "count");
    put("par.fixpoint.ops", t.sum(fix, "par_ops"), "count");
    put("par.tasks", t.calls_sum("par_tasks"), "count");
    put("par.steals", t.calls_sum("par_steals"), "count");
    put("par.shared_nodes", t.calls_sum("par_shared_nodes"), "count");
    put(
        "par.threads_effective",
        t.calls_max("par_threads_effective"),
        "count",
    );

    let faults = t.calls_sum("page_faults");
    put("pager.faults", faults, "count");
    put("pager.writes", t.calls_sum("page_writes"), "count");
    put("pager.evictions", t.calls_sum("page_evictions"), "count");
    put(
        "pager.max_resident",
        t.calls_max("page_max_resident"),
        "count",
    );
    let paged_created = t.side_sum(Side::Paged, "facts.load", "nodes_created")
        + t.side_sum(Side::Paged, fix, "nodes_created");
    put(
        "pager.faults_per_knode",
        ratio(faults, paged_created / 1000.0),
        "ratio",
    );

    let compile_s = c.secs("jeddc.parse") + c.secs("jeddc.check") + c.secs("jeddc.assign");
    put("jeddc.parse_s", c.secs("jeddc.parse"), "s");
    put("jeddc.check_s", c.secs("jeddc.check"), "s");
    put("jeddc.assign_s", c.secs("jeddc.assign"), "s");
    put("sat.solve_s", c.sum("jeddc.assign", "solve_seconds"), "s");
    put("sat.vars", c.sum("jeddc.assign", "sat_vars"), "count");
    put("sat.clauses", c.sum("jeddc.assign", "sat_clauses"), "count");

    let run_jedd = "driver.run_jedd";
    let runs = t.named(run_jedd).count() as f64;
    put(
        "exec.s",
        (t.secs(run_jedd) - runs * compile_s).max(0.0),
        "s",
    );
    put("exec.replaces", t.sum(run_jedd, "replaces"), "count");
    put(
        "exec.relational_ops",
        t.sum(run_jedd, "relational_ops"),
        "count",
    );
    put(
        "exec.nodes_created",
        t.sum(run_jedd, "nodes_created"),
        "count",
    );
    put(
        "exec.cache_hit_ratio",
        ratio(
            t.sum(run_jedd, "cache_hits"),
            t.sum(run_jedd, "cache_lookups"),
        ),
        "ratio",
    );

    let untraced = median(&window.iter().map(Pass::total).collect::<Vec<_>>());
    put(
        "trace.overhead",
        ratio(pass.total(), untraced) - 1.0,
        "ratio",
    );

    // The Table-2 rows, best of the untraced window: 0 on other workloads.
    let best = if w == Workload::Table2 {
        best_calls(window)
    } else {
        Default::default()
    };
    for b in jedd_analyses::synth::Benchmark::table2() {
        let name = b.name();
        let side = |s: Side| best.get(&(name, s)).copied().unwrap_or(0.0);
        put(&format!("table2.{name}.hand_s"), side(Side::Hand), "s");
        put(&format!("table2.{name}.naive_s"), side(Side::Naive), "s");
        put(
            &format!("table2.{name}.pointsto_s"),
            side(Side::Default),
            "s",
        );
        put(
            &format!("table2.{name}.jedd_over_hand"),
            ratio(side(Side::Naive), side(Side::Hand)),
            "ratio",
        );
    }
    out
}
