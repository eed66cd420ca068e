//! Extension experiment: declared-type filtering (the Fig. 2 arrow from
//! the Hierarchy module into Points-to Analysis). Compares the size of the
//! points-to relation and call graph with and without the filter, and the
//! cost of applying it.
//!
//! Run with `cargo run --release -p jedd-bench --bin precision`.

use jedd_analyses::pointsto::{analyze, analyze_typed, CallGraphMode};
use jedd_analyses::synth::Benchmark;
use jedd_analyses::{facts::Facts, hierarchy};

fn main() {
    println!("Type filtering: points-to precision and cost");
    println!();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for b in [Benchmark::Compress, Benchmark::Javac, Benchmark::Sablecc] {
        let p = b.generate();
        // A failed benchmark (bad facts, exhausted budget) degrades to a
        // skipped row rather than aborting the experiment.
        let run = || -> Result<_, Box<dyn std::error::Error>> {
            let f1 = Facts::load(&p)?;
            let (untyped, t_untyped) = jedd_bench::timed(|| analyze(&f1, CallGraphMode::OnTheFly));
            let untyped = untyped?;
            let f2 = Facts::load(&p)?;
            let (typed, t_typed) = jedd_bench::timed(|| -> Result<_, jedd_core::JeddError> {
                let h = hierarchy::compute(&f2)?;
                analyze_typed(&f2, CallGraphMode::OnTheFly, &h.subtype_of)
            });
            Ok((untyped, typed?, t_untyped, t_typed))
        };
        let (untyped, typed, t_untyped, t_typed) = match run() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("precision: skipping {}: {e}", b.name());
                continue;
            }
        };
        rows.push(vec![
            b.name().to_string(),
            untyped.pt.size().to_string(),
            typed.pt.size().to_string(),
            format!(
                "{:.1}%",
                100.0 * (1.0 - typed.pt.size() as f64 / untyped.pt.size() as f64)
            ),
            untyped.cg.size().to_string(),
            typed.cg.size().to_string(),
            format!("{t_untyped:.3}"),
            format!("{t_typed:.3}"),
        ]);
    }
    print!(
        "{}",
        jedd_bench::render_table(
            &[
                "Benchmark",
                "pt (untyped)",
                "pt (typed)",
                "pt removed",
                "cg (untyped)",
                "cg (typed)",
                "untyped (s)",
                "typed (s)",
            ],
            &rows
        )
    );
    println!();
    println!(
        "The typed variant consumes the Hierarchy module's subtypeOf closure\n\
         (hierarchy -> points-to arrow of the paper's Fig. 2); it can only\n\
         shrink the solution, at the cost of one intersection per step."
    );
}
