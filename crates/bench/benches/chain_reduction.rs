//! Chain-reduced decision diagrams over the Table-2 analyses: node counts
//! and wall clock for both kernels, with the ZDD count measured alongside.
//!
//! One points-to run per kernel gives the BDD and the CBDD node counts
//! (`node_count()` on each kernel), and the plain run's
//! `zdd_node_count()` gives the ZDD. The bench asserts the runs are
//! tuple-identical on every Table-2 preset and that the chain-reduced
//! count never exceeds the plain one, which `ci.sh` re-checks.
//!
//! With `JEDD_BENCH_JSON` set, a `chain_reduction` section is merged into
//! the report, one entry per benchmark.

use jedd_analyses::facts::Facts;
use jedd_analyses::ir::Program;
use jedd_analyses::pointsto::{self, CallGraphMode, PointsTo};
use jedd_analyses::synth::Benchmark;
use jedd_bench::criterion::Criterion;
use jedd_bench::report::{write_section, JsonObject};
use jedd_core::{Backend, Universe};
use std::collections::BTreeSet;

/// One measured points-to run: the result, wall seconds, and the node
/// count of the result relations in the decision-diagram kind the
/// manager runs on.
struct Run {
    result: PointsTo,
    secs: f64,
    dd_nodes: u64,
    live_nodes: u64,
}

fn run_backend(p: &Program, backend: Backend) -> Run {
    let f = Facts::load_configured(p, Universe::new_with_backend(backend)).unwrap();
    let (result, secs) =
        jedd_bench::timed(|| pointsto::analyze(&f, CallGraphMode::OnTheFly).unwrap());
    let dd_nodes =
        (result.pt.node_count() + result.field_pt.node_count() + result.cg.node_count()) as u64;
    f.u.bdd_manager().gc();
    let live_nodes = f.u.bdd_manager().live_nodes() as u64;
    Run {
        result,
        secs,
        dd_nodes,
        live_nodes,
    }
}

fn tuple_set(r: &jedd_core::Relation) -> BTreeSet<Vec<u64>> {
    r.tuples().into_iter().collect()
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
                let f = Facts::load_configured(std::hint::black_box(&p), u).unwrap();
                pointsto::analyze(&f, CallGraphMode::OnTheFly).unwrap()
            })
        });
    }
    g.finish();

    let mut section = JsonObject::new();
    for b in Benchmark::table2() {
        let p = b.generate();
        let plain = run_backend(&p, Backend::Bdd);
        let chained = run_backend(&p, Backend::Cbdd);
        let zdd_nodes = (plain.result.pt.zdd_node_count()
            + plain.result.field_pt.zdd_node_count()
            + plain.result.cg.zdd_node_count()) as u64;

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
        // The paper-table claim: chain reduction never adds nodes.
        assert!(
            chained.dd_nodes <= plain.dd_nodes,
            "{}: CBDD {} > BDD {}",
            b.name(),
            chained.dd_nodes,
            plain.dd_nodes
        );

        let entry = JsonObject::new()
            .int("pt_pairs", plain.result.pt.size())
            .int("rounds", plain.result.iterations as u64)
            .float("bdd_s", plain.secs)
            .float("cbdd_s", chained.secs)
            .int("bdd_nodes", plain.dd_nodes)
            .int("cbdd_nodes", chained.dd_nodes)
            .int("zdd_nodes", zdd_nodes)
            .int("bdd_live_nodes", plain.live_nodes)
            .int("cbdd_live_nodes", chained.live_nodes);
        section = section.object(b.name(), entry);
        println!(
            "chain_reduction {}: bdd {:.3}s/{} nodes, cbdd {:.3}s/{} nodes, zdd {} nodes",
            b.name(),
            plain.secs,
            plain.dd_nodes,
            chained.secs,
            chained.dd_nodes,
            zdd_nodes,
        );
    }
    write_section("chain_reduction", &section);
}

jedd_bench::criterion_group!(benches, bench_chain_reduction);
jedd_bench::criterion_main!(benches);
