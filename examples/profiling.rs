//! The Jedd profiler (paper §4.3): records every relational operation
//! during a points-to run and writes the browsable HTML report (the
//! paper's SQL + CGI views as a static page with SVG shape charts).
//!
//! Run with `cargo run --release --example profiling`; the report lands in
//! `target/jedd-profile.html`.

use jedd::analyses::pointsto::{self, CallGraphMode};
use jedd::analyses::{facts::Facts, synth::Benchmark};
use jedd::runtime::{render_html_with_kernel, render_sql, Profiler};
use std::rc::Rc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = Benchmark::Compress.generate();
    println!("profiling points-to on: {}", program.summary());

    let f = Facts::load(&program)?;
    let profiler = Rc::new(Profiler::with_shapes());
    f.u.set_profiler(Some(profiler.clone()));

    let result = pointsto::analyze(&f, CallGraphMode::OnTheFly)?;
    println!(
        "pt = {} tuples, {} events recorded",
        result.pt.size(),
        profiler.len()
    );

    println!("\nTop operations by total time:");
    for row in profiler.summary().into_iter().take(10) {
        println!(
            "  {:>10} at {:<10} x{:<5} {:>9.1} µs  (max result {} nodes)",
            row.op,
            row.site,
            row.count,
            row.total_nanos as f64 / 1000.0,
            row.max_result_nodes
        );
    }

    let kernel = f.u.bdd_manager().kernel_stats();
    let html = render_html_with_kernel(&profiler, Some(&kernel));
    let path = "target/jedd-profile.html";
    std::fs::write(path, html)?;
    println!("\nbrowsable report written to {path}");

    // The paper's §4.3 SQL dump, loadable into any database.
    let sql_path = "target/jedd-profile.sql";
    std::fs::write(sql_path, render_sql(&profiler))?;
    println!("SQL dump written to {sql_path}");

    // Dynamic variable reordering after the run (automating the ordering
    // tuning the profiler is designed to guide).
    let (before, after) = f.u.reorder_sift();
    println!("\nsifting the final BDDs: {before} nodes -> {after}");
    println!("pt still has {} tuples after reordering", result.pt.size());
    Ok(())
}
