//! Criterion bench for Table 1's solve-time column: compiling each
//! analysis module (dominated by flow-path enumeration, CNF encoding and
//! the SAT solve). The combined program's problem size and its best
//! compile and solve times also go to the JSON report.

use jedd_bench::criterion::Criterion;
use jedd_bench::report::{write_section, JsonObject};

fn bench_domain_assignment(c: &mut Criterion) {
    let mut g = c.benchmark_group("domain_assignment");
    g.sample_size(10);
    for (name, src) in jedd_analyses::jedd_src::modules() {
        g.bench_function(name, |b| {
            b.iter(|| jeddc::compile(std::hint::black_box(&src)).expect("compiles"))
        });
    }
    let combined = jedd_analyses::jedd_src::combined();
    g.bench_function("All 5 combined", |b| {
        b.iter(|| jeddc::compile(std::hint::black_box(&combined)).expect("compiles"))
    });
    g.finish();

    let runs: Vec<_> = (0..5)
        .map(|_| jedd_bench::timed(|| jeddc::compile(&combined).expect("compiles")))
        .collect();
    let stats = runs[0].0.assignment.stats;
    let best = |secs: fn(&(jeddc::CompiledProgram, f64)) -> f64| {
        runs.iter().map(secs).fold(f64::MAX, f64::min)
    };
    let compile_s = best(|r| r.1);
    let solve_s = best(|r| r.0.assignment.stats.solve_seconds);
    write_section(
        "domain_assignment",
        &JsonObject::new()
            .int("combined_sat_vars", stats.sat_vars as u64)
            .int("combined_sat_clauses", stats.sat_clauses as u64)
            .float("combined_compile_s", compile_s)
            .float("combined_solve_s", solve_s),
    );
}

jedd_bench::criterion_group!(benches, bench_domain_assignment);
jedd_bench::criterion_main!(benches);
