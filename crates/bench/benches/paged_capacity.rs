//! Paged-vs-resident capacity bench: the on-the-fly points-to analysis
//! runs on a fully-resident universe and on disk-backed universes at a
//! tiny, a medium and an unbounded resident-frame budget. Each paged run
//! must land tuple-identical to the resident one (the pager's
//! correctness contract), and the tiny budget must actually page —
//! `page_faults > 0` with `page_max_resident` clamped to the budget —
//! which is the "analyses larger than RAM" capacity claim in measurable
//! form: the analysis completes while holding a fraction of its peak
//! live nodes in memory.
//!
//! With `JEDD_BENCH_JSON` set, a `paged_capacity` section records the
//! resident and per-budget wall clocks, the paging overhead ratio at the
//! tiny budget, and the page-fault / eviction / max-resident counters.

use jedd_analyses::facts::Facts;
use jedd_analyses::pointsto::{self, CallGraphMode, PointsTo};
use jedd_analyses::synth::Benchmark;
use jedd_bench::criterion::Criterion;
use jedd_bench::report::{write_section, JsonObject};
use std::collections::BTreeSet;
use std::time::Instant;

/// Frames held resident at the tiny budget: 4 blocks = 1024 node slots,
/// far below the points-to run's peak arena.
const TINY_FRAMES: usize = 4;
const MEDIUM_FRAMES: usize = 64;

fn tuples(pt: &PointsTo) -> BTreeSet<Vec<u64>> {
    pt.pt.tuples().into_iter().collect()
}

fn timed_resident() -> (f64, PointsTo, Facts) {
    let p = Benchmark::Tiny.generate();
    let f = Facts::load(&p).expect("resident facts");
    let start = Instant::now();
    let pt = pointsto::analyze(&f, CallGraphMode::OnTheFly).expect("points-to");
    (start.elapsed().as_secs_f64(), pt, f)
}

fn timed_paged(frames: usize) -> (f64, PointsTo, Facts) {
    let p = Benchmark::Tiny.generate();
    let f = Facts::load_paged(&p, frames).expect("paged facts");
    let start = Instant::now();
    let pt = pointsto::analyze(&f, CallGraphMode::OnTheFly).expect("paged points-to");
    (start.elapsed().as_secs_f64(), pt, f)
}

fn bench_paged_capacity(c: &mut Criterion) {
    let mut g = c.benchmark_group("paged_capacity");
    g.sample_size(2);
    g.bench_function("pointsto/resident", |b| b.iter(|| timed_resident().1));
    g.bench_function(&format!("pointsto/paged_{TINY_FRAMES}f"), |b| {
        b.iter(|| timed_paged(TINY_FRAMES).1)
    });
    g.finish();

    // Headline: one timed run per configuration, validated against each
    // other before anything is reported.
    let (resident_s, resident_pt, resident_f) = timed_resident();
    let expected = tuples(&resident_pt);
    let live_nodes = resident_f.u.bdd_manager().live_nodes();

    let mut section = JsonObject::new()
        .str("benchmark", "tiny")
        .float("resident_s", resident_s)
        .int("resident_live_nodes", live_nodes as u64)
        .int("pt_pairs", expected.len() as u64)
        .int("tiny_frames", TINY_FRAMES as u64);
    let mut tiny_s = resident_s;
    for frames in [TINY_FRAMES, MEDIUM_FRAMES, 0] {
        let (secs, pt, f) = timed_paged(frames);
        assert_eq!(
            tuples(&pt),
            expected,
            "paged points-to at {frames} frames diverged from resident"
        );
        let k = f.u.bdd_manager().kernel_stats();
        assert_eq!(k.page_faults, k.page_reads);
        assert!(k.page_evictions <= k.page_writes);
        let label = if frames == 0 {
            "unbounded".to_string()
        } else {
            format!("{frames}f")
        };
        if frames == TINY_FRAMES {
            tiny_s = secs;
            assert!(
                k.page_faults > 0,
                "the tiny budget never paged — the capacity claim is untested"
            );
            assert!(
                k.page_max_resident as usize <= frames,
                "resident frames exceeded the tiny budget"
            );
            assert!(
                live_nodes > frames * 256,
                "benchmark too small: {live_nodes} live nodes fit in {frames} frames"
            );
        } else if frames == 0 {
            assert_eq!(k.page_evictions, 0, "an unbounded budget evicted");
        }
        eprintln!(
            "paged_capacity: {label} {secs:.3}s ({} faults, {} evictions, max resident {})",
            k.page_faults, k.page_evictions, k.page_max_resident
        );
        section = section
            .float(&format!("paged_{label}_s"), secs)
            .int(&format!("page_faults_{label}"), k.page_faults)
            .int(&format!("page_evictions_{label}"), k.page_evictions)
            .int(&format!("page_max_resident_{label}"), k.page_max_resident);
    }
    let overhead = tiny_s / resident_s;
    eprintln!(
        "paged_capacity: resident {resident_s:.3}s, {TINY_FRAMES}-frame budget {tiny_s:.3}s \
         ({overhead:.2}x overhead, {live_nodes} live nodes vs {} resident slots)",
        TINY_FRAMES * 256
    );
    section = section.float("tiny_overhead_x", overhead);
    write_section("paged_capacity", &section);
}

jedd_bench::criterion_group!(benches, bench_paged_capacity);
jedd_bench::criterion_main!(benches);
