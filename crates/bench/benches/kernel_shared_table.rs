//! Shared-table kernel speedup on the points-to workload: the same
//! propagation rounds (compose / rename / union over a points-to-shaped
//! edge and points-to relation) run on fresh managers at 1, 2, 4 and 8
//! worker threads, and the 1-vs-2 and 1-vs-4 wall-clock ratios are the
//! headline numbers. Workers hash-cons directly into the shared
//! concurrent unique table — there is no import replay to serialise them
//! — so this is a measurement of the kernel the analyses actually run on.
//!
//! The physical domains are laid out so the quantified variables sit at
//! the *bottom* of the order (DST on top, then OBJ, then VAR): the
//! parallel engine splits on the top levels and stops above the first
//! quantified level, so this layout gives the relational product its full
//! split depth. Results are validated against each other (same tuple
//! count at every thread count) before anything is timed.
//!
//! With `JEDD_BENCH_JSON` set, a `kernel_shared_table` section with the
//! per-thread-count times and both speedups land in the report. The 1.5x
//! acceptance gate arms itself through
//! [`jedd_bench::speedup_gate`] (4+ CPUs, overridable with
//! `JEDD_BENCH_GATE=1`/`0`) and the report records whether it was armed
//! and why, so a disarmed run is visible.

use jedd_bench::criterion::Criterion;
use jedd_bench::report::{write_section, JsonObject};
use jedd_bdd::rng::XorShift64Star;
use jedd_core::{AttrId, Relation, Universe};
use std::time::Instant;

const VARS: u64 = 1 << 10;
const OBJS: u64 = 1 << 9;
const EDGES: usize = 8_000;
const SEEDS: usize = 3_000;
const ROUNDS: usize = 2;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Setup {
    edges: Relation,
    pt0: Relation,
    var: AttrId,
    dst: AttrId,
}

/// A fresh universe per timed run, so no run can feed another's op cache.
fn setup(threads: usize) -> Setup {
    let u = Universe::new();
    let var_d = u.add_domain("Var", VARS);
    let obj_d = u.add_domain("Obj", OBJS);
    // Allocation order is variable order: DST takes the top levels (where
    // the planner splits), VAR the bottom ones (where compose quantifies).
    let p_dst = u.add_physical_domain("DST", 10);
    let p_obj = u.add_physical_domain("OBJ", 9);
    let p_var = u.add_physical_domain("VAR", 10);
    let var = u.add_attribute("var", var_d);
    let dst = u.add_attribute("dst", var_d);
    let obj = u.add_attribute("obj", obj_d);
    u.bdd_manager().set_threads(threads);
    let mut rng = XorShift64Star::new(0x5eed);
    let e: Vec<Vec<u64>> = (0..EDGES)
        .map(|_| vec![rng.gen_range(0..VARS), rng.gen_range(0..VARS)])
        .collect();
    let edges = Relation::from_tuples(&u, &[(dst, p_dst), (var, p_var)], &e).expect("valid edges");
    let s: Vec<Vec<u64>> = (0..SEEDS)
        .map(|_| vec![rng.gen_range(0..VARS), rng.gen_range(0..OBJS)])
        .collect();
    let pt0 = Relation::from_tuples(&u, &[(var, p_var), (obj, p_obj)], &s).expect("valid seeds");
    Setup { edges, pt0, var, dst }
}

/// The points-to propagation kernel: `pt ∪= ∃var. edges(dst,var) ∧
/// pt(var,obj)`, renamed back onto `var`. Every round changes `pt`, so no
/// round is answered from the top-level op cache.
fn propagate(s: &Setup) -> Relation {
    let mut pt = s.pt0.clone();
    for _ in 0..ROUNDS {
        let step = s.edges.compose(&[s.var], &pt, &[s.var]).expect("compose");
        let step = step.rename(s.dst, s.var).expect("rename");
        pt = pt.union(&step).expect("union");
    }
    pt
}

fn timed_run(threads: usize) -> (f64, u64, jedd_bdd::KernelStats) {
    let s = setup(threads);
    let start = Instant::now();
    let pt = propagate(&s);
    let secs = start.elapsed().as_secs_f64();
    let stats = s.pt0.universe().bdd_manager().kernel_stats();
    (secs, pt.size(), stats)
}

fn bench_kernel_shared_table(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_shared_table");
    g.sample_size(3);
    for threads in [1usize, 4] {
        g.bench_function(&format!("pointsto_rounds/{threads}t"), |b| {
            let s = setup(threads);
            b.iter(|| propagate(&s));
        });
    }
    g.finish();

    // Headline: fresh managers, one timed propagation per thread count.
    let runs: Vec<(usize, f64, u64, jedd_bdd::KernelStats)> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            let (secs, n, k) = timed_run(t);
            (t, secs, n, k)
        })
        .collect();
    let (_, t1_s, n1, ref k1) = runs[0];
    for &(t, _, n, ref k) in &runs {
        assert_eq!(n1, n, "thread count {t} changed the fixpoint");
        if t == 1 {
            assert_eq!(k.par_ops, 0, "threads=1 must stay on the sequential path");
        } else {
            assert!(k.par_ops > 0, "threads={t} must engage the parallel kernel");
        }
    }
    assert_eq!(k1.par_ops, 0);
    let speedup_2t = t1_s / runs[1].1;
    let (_, t4_s, _, ref k4) = runs[2];
    let speedup = t1_s / t4_s;
    for &(t, secs, _, _) in &runs {
        eprintln!("kernel_shared_table: {t}t {secs:.3}s");
    }
    eprintln!("kernel_shared_table: speedup {speedup_2t:.2}x at 2 threads");
    eprintln!(
        "kernel_shared_table: speedup {:.2}x at 4 threads ({} parallel ops, {} tasks, \
         {} steals, {} shared nodes, {} effective threads)",
        speedup,
        k4.par_ops,
        k4.par_tasks,
        k4.par_steals,
        k4.par_shared_nodes,
        k4.par_threads_effective
    );
    let gate = jedd_bench::speedup_gate();
    let mut section = JsonObject::new()
        .int("rounds", ROUNDS as u64)
        .int("cpus", gate.cpus as u64)
        .int("pt_pairs", n1);
    for &(t, secs, _, _) in &runs {
        section = section.float(&format!("t{t}_s"), secs);
    }
    section = section
        .float("speedup_2t_x", speedup_2t)
        .float("speedup_4t_x", speedup)
        .int("par_ops_4t", k4.par_ops)
        .int("par_tasks_4t", k4.par_tasks)
        .int("par_steals_4t", k4.par_steals)
        .int("par_shared_nodes_4t", k4.par_shared_nodes)
        .int("par_threads_effective_4t", k4.par_threads_effective)
        .int("par_thread_clamps_4t", k4.par_thread_clamps)
        .int("gate_armed", gate.armed as u64)
        .str("gate_reason", &gate.reason);
    write_section("kernel_shared_table", &section);
    if gate.armed {
        assert!(
            speedup >= 1.5,
            "shared-table kernel gate: expected >= 1.5x at 4 threads, got {speedup:.2}x"
        );
    } else {
        eprintln!("kernel_shared_table: speedup gate disarmed ({})", gate.reason);
    }
}

jedd_bench::criterion_group!(benches, bench_kernel_shared_table);
jedd_bench::criterion_main!(benches);
