//! Whole-program analysis demo: the five interrelated analyses of the
//! paper's Fig. 2 on a synthetic `javac`-scale program, with the
//! hand-coded BDD baseline cross-check.
//!
//! Run with `cargo run --release --example pointsto`.

use jedd::analyses::pointsto::CallGraphMode;
use jedd::analyses::synth::Benchmark;
use jedd::analyses::{
    baseline_bdd, callgraph, driver, facts::Facts, hierarchy, pointsto, sideeffect,
};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = Benchmark::Javac.generate();
    println!("program: {}", program.summary());

    // Run all five analyses through the relational layer.
    let start = Instant::now();
    let f = Facts::load(&program)?;
    let h = hierarchy::compute(&f)?;
    let pt = pointsto::analyze(&f, CallGraphMode::OnTheFly)?;
    let cg = callgraph::build(&f, &pt.cg)?;
    let se = sideeffect::compute(&f, &pt.pt, &cg.edges)?;
    let took = start.elapsed();

    println!("\nJedd relational analyses ({took:.2?}):");
    println!("  subtypeOf:    {:6} tuples", h.subtype_of.size());
    println!(
        "  pt:           {:6} tuples ({} BDD nodes)",
        pt.pt.size(),
        pt.pt.node_count()
    );
    println!("  fieldPt:      {:6} tuples", pt.field_pt.size());
    println!("  call targets: {:6} tuples", pt.cg.size());
    println!("  cg edges:     {:6} tuples", cg.edges.size());
    println!("  reachable:    {:6} methods", cg.reachable.size());
    println!("  reads*:       {:6} tuples", se.reads_star.size());
    println!("  writes*:      {:6} tuples", se.writes_star.size());
    println!("  outer iterations: {}", pt.iterations);
    println!(
        "  automatic replaces inserted by the relational layer: {}",
        f.u.stats().auto_replaces
    );

    // Cross-check against the hand-coded direct-BDD implementation.
    let start = Instant::now();
    let raw = baseline_bdd::analyze(&program);
    let raw_took = start.elapsed();
    let rel_pairs: Vec<(u64, u64)> = pt.pt.tuples().into_iter().map(|t| (t[0], t[1])).collect();
    assert_eq!(raw.pt_pairs(), rel_pairs, "hand-coded and relational agree");
    println!("\nhand-coded BDD baseline agrees exactly ({raw_took:.2?}).");

    // And the same through the mini-Jedd language.
    let start = Instant::now();
    let exec = driver::run_jedd(&program)?;
    println!(
        "mini-Jedd program through jeddc agrees: pt = {} tuples ({:.2?})",
        exec.tuples("pt")?.len(),
        start.elapsed()
    );
    Ok(())
}
