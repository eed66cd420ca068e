//! Chain-reduced decision diagrams over the Table-2 analyses: node counts
//! and wall clock for both kernels, with the ZDD and CZDD counts measured
//! alongside, plus the order lab's cold-search vs warm-start comparison.
//!
//! One points-to run per kernel gives all four node counts: on the plain
//! kernel a relation's `node_count()` is the BDD and its
//! `zdd_node_count()` the ZDD; on the chained kernel the same two calls
//! give the CBDD and CZDD. The bench asserts the runs are tuple-identical
//! on every Table-2 preset and that the chain-reduced counts never exceed
//! their plain counterparts — so `min(CBDD, CZDD) <= min(BDD, ZDD)` holds
//! for every analysis, which is the paper-table claim `ci.sh` re-checks.
//! The order lab's cold search runs on `compress` only, the preset the
//! criterion group times.
//!
//! With `JEDD_BENCH_JSON` set, a `chain_reduction` section is merged into
//! the report, one entry per benchmark.

use jedd_analyses::facts::Facts;
use jedd_analyses::ir::Program;
use jedd_analyses::persist::{learn_and_save_order, load_learned_order};
use jedd_analyses::pointsto::{self, CallGraphMode, PointsTo};
use jedd_analyses::synth::Benchmark;
use jedd_bench::criterion::Criterion;
use jedd_bench::report::{write_section, JsonObject};
use jedd_core::{Backend, Universe};
use std::collections::BTreeSet;

/// One measured points-to run: the result, wall seconds, and the node
/// counts of the result relations in the decision-diagram kind the
/// manager runs on (`dd_nodes`) and re-encoded as a ZDD of the same
/// flavour (`zdd_nodes`).
struct Run {
    result: PointsTo,
    secs: f64,
    dd_nodes: u64,
    zdd_nodes: u64,
    live_nodes: u64,
}

fn run_backend(p: &Program, backend: Backend) -> Run {
    let f = Facts::load_configured(p, Universe::new_with_backend(backend), None).unwrap();
    let (result, secs) =
        jedd_bench::timed(|| pointsto::analyze(&f, CallGraphMode::OnTheFly).unwrap());
    let dd_nodes =
        (result.pt.node_count() + result.field_pt.node_count() + result.cg.node_count()) as u64;
    let zdd_nodes = (result.pt.zdd_node_count()
        + result.field_pt.zdd_node_count()
        + result.cg.zdd_node_count()) as u64;
    f.u.bdd_manager().gc();
    let live_nodes = f.u.bdd_manager().live_nodes() as u64;
    Run {
        result,
        secs,
        dd_nodes,
        zdd_nodes,
        live_nodes,
    }
}

fn tuple_set(r: &jedd_core::Relation) -> BTreeSet<Vec<u64>> {
    r.tuples().into_iter().collect()
}

fn search_rounds() -> usize {
    std::env::var("JEDD_ORDER_SEARCH_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// The order lab on one benchmark: a cold run (analysis + order search +
/// persist) against a warm run (learned order installed before building,
/// zero sifting sweeps). Returns the JSON entry.
fn order_lab(dir: &std::path::Path, name: &str, p: &Program, oracle: &PointsTo) -> JsonObject {
    let (cold, cold_secs) = jedd_bench::timed(|| {
        let f = Facts::load_configured(p, Universe::new_with_backend(Backend::Bdd), None).unwrap();
        let result = pointsto::analyze(&f, CallGraphMode::OnTheFly).unwrap();
        let (_, counts) = learn_and_save_order(dir, name, &f, search_rounds(), 0x0bdd).unwrap();
        (result, counts)
    });
    let (result, (search_before, search_after)) = cold;
    assert_eq!(tuple_set(&result.pt), tuple_set(&oracle.pt), "{name} cold");

    let record = load_learned_order(dir, name).unwrap().expect("just saved");
    let ((warm, sweeps), warm_secs) = jedd_bench::timed(|| {
        let u = Universe::new_with_backend(record.backend);
        let f = Facts::load_configured(p, u, Some(&record.level2var)).unwrap();
        let result = pointsto::analyze(&f, CallGraphMode::OnTheFly).unwrap();
        (result, f.u.bdd_manager().kernel_stats().sift_sweeps)
    });
    assert_eq!(tuple_set(&warm.pt), tuple_set(&oracle.pt), "{name} warm");
    assert_eq!(sweeps, 0, "{name}: a warm run must not sift");
    assert!(
        warm_secs < cold_secs,
        "{name}: warm {warm_secs:.3}s not faster than cold {cold_secs:.3}s"
    );
    JsonObject::new()
        .float("cold_s", cold_secs)
        .float("warm_s", warm_secs)
        .float("warm_speedup", cold_secs / warm_secs)
        .int("search_before_nodes", search_before as u64)
        .int("search_after_nodes", search_after as u64)
        .int("warm_sift_sweeps", sweeps)
}

fn bench_chain_reduction(c: &mut Criterion) {
    // Criterion timings on the mid-size benchmark; the JSON sweep below
    // covers the whole family.
    let p = Benchmark::Compress.generate();
    let mut g = c.benchmark_group("chain_reduction_compress");
    g.sample_size(10);
    for backend in [Backend::Bdd, Backend::Cbdd] {
        g.bench_function(backend.name(), |b| {
            b.iter(|| {
                let u = Universe::new_with_backend(backend);
                let f = Facts::load_configured(std::hint::black_box(&p), u, None).unwrap();
                pointsto::analyze(&f, CallGraphMode::OnTheFly).unwrap()
            })
        });
    }
    g.finish();

    let dir = std::env::temp_dir().join(format!("jedd-chain-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut section = JsonObject::new();
    for b in Benchmark::table2() {
        let p = b.generate();
        // Plain kernel: BDD and ZDD counts. Chained kernel: CBDD and CZDD.
        let plain = run_backend(&p, Backend::Bdd);
        let chained = run_backend(&p, Backend::Cbdd);

        // Chain reduction is a representation change only: identical
        // tuples, in the same number of rounds.
        for (rel, which) in [
            (
                tuple_set(&plain.result.pt) == tuple_set(&chained.result.pt),
                "pt",
            ),
            (
                tuple_set(&plain.result.field_pt) == tuple_set(&chained.result.field_pt),
                "field_pt",
            ),
            (
                tuple_set(&plain.result.cg) == tuple_set(&chained.result.cg),
                "cg",
            ),
        ] {
            assert!(rel, "{} mismatch on {}", which, b.name());
        }
        assert_eq!(
            plain.result.iterations,
            chained.result.iterations,
            "round count changed on {}",
            b.name()
        );
        // The paper-table claim: the chain-reduced kinds never lose to
        // their plain counterparts, so the best chained representation
        // matches or beats the best plain one on every analysis.
        assert!(
            chained.dd_nodes <= plain.dd_nodes,
            "{}: CBDD {} > BDD {}",
            b.name(),
            chained.dd_nodes,
            plain.dd_nodes
        );
        assert!(
            chained.zdd_nodes <= plain.zdd_nodes,
            "{}: CZDD {} > ZDD {}",
            b.name(),
            chained.zdd_nodes,
            plain.zdd_nodes
        );
        let best_chained = chained.dd_nodes.min(chained.zdd_nodes);
        let best_plain = plain.dd_nodes.min(plain.zdd_nodes);
        assert!(
            best_chained <= best_plain,
            "{}: best chained {} > best plain {}",
            b.name(),
            best_chained,
            best_plain
        );

        let mut entry = JsonObject::new()
            .int("pt_pairs", plain.result.pt.size())
            .int("rounds", plain.result.iterations as u64)
            .float("bdd_s", plain.secs)
            .float("cbdd_s", chained.secs)
            .int("bdd_nodes", plain.dd_nodes)
            .int("cbdd_nodes", chained.dd_nodes)
            .int("zdd_nodes", plain.zdd_nodes)
            .int("czdd_nodes", chained.zdd_nodes)
            .int("bdd_live_nodes", plain.live_nodes)
            .int("cbdd_live_nodes", chained.live_nodes);
        if b == Benchmark::Compress {
            entry = entry.object("order_lab", order_lab(&dir, b.name(), &p, &plain.result));
        }
        section = section.object(b.name(), entry);
        println!(
            "chain_reduction {}: bdd {:.3}s/{} nodes, cbdd {:.3}s/{} nodes, zdd {} nodes, czdd {} nodes",
            b.name(),
            plain.secs,
            plain.dd_nodes,
            chained.secs,
            chained.dd_nodes,
            plain.zdd_nodes,
            chained.zdd_nodes,
        );
    }
    write_section("chain_reduction", &section);
    let _ = std::fs::remove_dir_all(&dir);
}

jedd_bench::criterion_group!(benches, bench_chain_reduction);
jedd_bench::criterion_main!(benches);
