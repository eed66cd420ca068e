//! Naive vs semi-naive fixpoint evaluation of the points-to analysis
//! (the paper's flagship workload) across the synthetic benchmark family:
//! outer rounds, wall time, and node allocation for each strategy.
//!
//! With `JEDD_BENCH_JSON` set, a `fixpoint_seminaive` section is merged
//! into the report, one entry per benchmark. The bench itself asserts the
//! two strategies agree tuple-for-tuple and that the semi-naive round
//! count never exceeds the naive one, so a regression fails `ci.sh`.
//!
//! A second section, `fixpoint_seminaive_jeddc`, does the same on javac
//! for the mini-Jedd analyses run by jeddc's executor
//! (`driver::run_jedd`): its default semi-naive statements against
//! `Strategy::Naive`, which forces every statement onto the full path.
//! It asserts every global relation agrees and that the default mode
//! creates fewer kernel nodes.

use jedd_analyses::facts::Facts;
use jedd_analyses::ir::Program;
use jedd_analyses::pointsto::{self, CallGraphMode, PointsTo};
use jedd_analyses::synth::Benchmark;
use jedd_analyses::{driver, jedd_src};
use jedd_bench::criterion::Criterion;
use jedd_bench::report::{write_section, JsonObject};
use jedd_core::Strategy;
use std::collections::BTreeSet;

/// One measured analysis run on a fresh universe: result, wall seconds,
/// nodes allocated during the run, and nodes live at the end.
struct Run {
    result: PointsTo,
    secs: f64,
    nodes_created: u64,
    live_nodes: u64,
}

fn run_once(p: &Program, strategy: Strategy) -> Run {
    let f = Facts::load(p).unwrap();
    let before = f.u.bdd_manager().kernel_stats().nodes_created;
    let (result, secs) = jedd_bench::timed(|| {
        pointsto::analyze_with(&f, CallGraphMode::OnTheFly, strategy).unwrap()
    });
    let stats = f.u.bdd_manager().kernel_stats();
    Run {
        result,
        secs,
        nodes_created: stats.nodes_created - before,
        live_nodes: f.u.bdd_manager().live_nodes() as u64,
    }
}

/// Best wall time of three runs (fresh `Facts` each), keeping the first
/// run's relations and counters (they are deterministic across runs).
fn best_of_3(p: &Program, strategy: Strategy) -> Run {
    let mut best = run_once(p, strategy);
    for _ in 0..2 {
        let r = run_once(p, strategy);
        if r.secs < best.secs {
            best.secs = r.secs;
        }
        assert_eq!(r.result.iterations, best.result.iterations);
    }
    best
}

fn tuple_set(r: &jedd_core::Relation) -> BTreeSet<Vec<u64>> {
    r.tuples().into_iter().collect()
}

fn bench_fixpoint(c: &mut Criterion) {
    // Criterion timings on the mid-size benchmark; the JSON sweep below
    // covers the whole family.
    let p = Benchmark::Compress.generate();
    let mut g = c.benchmark_group("fixpoint_compress");
    g.sample_size(10);
    g.bench_function("naive", |b| {
        b.iter(|| {
            let f = Facts::load(std::hint::black_box(&p)).unwrap();
            pointsto::analyze_with(&f, CallGraphMode::OnTheFly, Strategy::Naive).unwrap()
        })
    });
    g.bench_function("semi_naive", |b| {
        b.iter(|| {
            let f = Facts::load(std::hint::black_box(&p)).unwrap();
            pointsto::analyze_with(&f, CallGraphMode::OnTheFly, Strategy::SemiNaive).unwrap()
        })
    });
    g.finish();

    let mut section = JsonObject::new();
    for b in Benchmark::table2() {
        let p = b.generate();
        let naive = best_of_3(&p, Strategy::Naive);
        let semi = best_of_3(&p, Strategy::SemiNaive);

        // The delta engine is an evaluation-order change only: same
        // relations, in no more rounds.
        assert_eq!(
            tuple_set(&semi.result.pt),
            tuple_set(&naive.result.pt),
            "pt mismatch on {}",
            b.name()
        );
        assert_eq!(
            tuple_set(&semi.result.field_pt),
            tuple_set(&naive.result.field_pt),
            "field_pt mismatch on {}",
            b.name()
        );
        assert_eq!(
            tuple_set(&semi.result.cg),
            tuple_set(&naive.result.cg),
            "cg mismatch on {}",
            b.name()
        );
        assert!(
            semi.result.iterations <= naive.result.iterations,
            "semi-naive took {} rounds on {}, naive {}",
            semi.result.iterations,
            b.name(),
            naive.result.iterations
        );

        section = section.object(
            b.name(),
            JsonObject::new()
                .float("naive_s", naive.secs)
                .float("semi_naive_s", semi.secs)
                .float("speedup", naive.secs / semi.secs)
                .int("naive_rounds", naive.result.iterations as u64)
                .int("semi_naive_rounds", semi.result.iterations as u64)
                .int("naive_nodes_created", naive.nodes_created)
                .int("semi_naive_nodes_created", semi.nodes_created)
                .int("naive_live_nodes", naive.live_nodes)
                .int("semi_naive_live_nodes", semi.live_nodes)
                .int("pt_pairs", semi.result.pt.size()),
        );
        println!(
            "fixpoint_seminaive {}: naive {:.3}s / semi {:.3}s ({:.2}x), rounds {} vs {}, nodes {} vs {}",
            b.name(),
            naive.secs,
            semi.secs,
            naive.secs / semi.secs,
            naive.result.iterations,
            semi.result.iterations,
            naive.nodes_created,
            semi.nodes_created,
        );
    }
    write_section("fixpoint_seminaive", &section);
}

/// One `driver::run_jedd` under `strategy`: every global relation's
/// tuples, wall seconds, and the kernel work of the rules — the work
/// loading does, the same under both strategies, excluded.
struct JeddRun {
    globals: Vec<Vec<Vec<u64>>>,
    secs: f64,
    nodes_created: u64,
    cache_lookups: u64,
}

fn run_jedd_once(p: &Program, strategy: Strategy) -> JeddRun {
    let loaded = driver::load_jedd(p)
        .unwrap()
        .universe()
        .bdd_manager()
        .kernel_stats();
    let (exec, secs) = jedd_bench::timed(|| driver::run_jedd_with(p, false, strategy).unwrap());
    let compiled = jeddc::compile(&jedd_src::combined()).unwrap();
    let globals = compiled
        .typed
        .vars
        .iter()
        .filter(|v| v.global)
        .map(|v| exec.tuples(&v.name).unwrap())
        .collect();
    let stats = exec.universe().bdd_manager().kernel_stats();
    JeddRun {
        globals,
        secs,
        nodes_created: stats.nodes_created - loaded.nodes_created,
        cache_lookups: stats.cache_lookups - loaded.cache_lookups,
    }
}

fn bench_jeddc(c: &mut Criterion) {
    let p = Benchmark::Javac.generate();
    let mut g = c.benchmark_group("fixpoint_jeddc_javac");
    g.sample_size(5);
    for (id, strategy) in [
        ("naive", Strategy::Naive),
        ("semi_naive", Strategy::SemiNaive),
    ] {
        g.bench_function(id, |b| {
            b.iter(|| driver::run_jedd_with(std::hint::black_box(&p), false, strategy).unwrap())
        });
    }
    g.finish();

    let best_of_3 = |strategy| {
        let mut best = run_jedd_once(&p, strategy);
        for _ in 0..2 {
            let r = run_jedd_once(&p, strategy);
            assert_eq!(
                r.nodes_created, best.nodes_created,
                "node counts are deterministic"
            );
            best.secs = best.secs.min(r.secs);
        }
        best
    };
    let naive = best_of_3(Strategy::Naive);
    let semi = best_of_3(Strategy::SemiNaive);
    assert!(
        semi.globals == naive.globals,
        "jeddc semi-naive statements changed a relation on javac"
    );
    assert!(
        semi.nodes_created < naive.nodes_created,
        "jeddc semi-naive created {} kernel nodes on javac, naive {}",
        semi.nodes_created,
        naive.nodes_created
    );
    println!(
        "fixpoint_seminaive jeddc javac: naive {:.3}s / semi {:.3}s ({:.2}x), \
         nodes {} vs {}, cache lookups {} vs {}",
        naive.secs,
        semi.secs,
        naive.secs / semi.secs,
        naive.nodes_created,
        semi.nodes_created,
        naive.cache_lookups,
        semi.cache_lookups,
    );
    let entry = JsonObject::new()
        .float("naive_s", naive.secs)
        .float("semi_naive_s", semi.secs)
        .float("speedup", naive.secs / semi.secs)
        .int("naive_nodes_created", naive.nodes_created)
        .int("semi_naive_nodes_created", semi.nodes_created)
        .int("naive_cache_lookups", naive.cache_lookups)
        .int("semi_naive_cache_lookups", semi.cache_lookups);
    write_section(
        "fixpoint_seminaive_jeddc",
        &JsonObject::new().object("javac", entry),
    );
}

jedd_bench::criterion_group!(benches, bench_fixpoint, bench_jeddc);
jedd_bench::criterion_main!(benches);
