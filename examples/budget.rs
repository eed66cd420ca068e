//! Resource-governor demo: budgets, graceful degradation, cancellation
//! and fault injection, all through the public `jedd` facade.
//!
//! Run with `cargo run --release --example budget`.

use jedd::analyses::{driver, synth::Benchmark};
use jedd::core::{Budget, CancelToken, FailPlan, JeddError, Relation, Universe};
use std::collections::BTreeSet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = Benchmark::Javac.generate();
    println!("program: {}", program.summary());

    // 1. Unbudgeted run: everything stays on BDDs.
    let full = driver::run(&program)?;
    println!(
        "\nunbudgeted run: degraded phases = {:?}",
        full.degraded_phases
    );
    println!(
        "  pt: {} tuples, reads*: {} tuples",
        full.points_to.pt.size(),
        full.side_effects.reads_star.size()
    );

    // 2. A starved budget: every phase exhausts its step budget, the
    //    driver degrades to the explicit-set implementations, and the
    //    results are identical.
    let starved = driver::run_with_budget(&program, Budget::unlimited().with_max_steps(10))?;
    println!(
        "\nstarved run (10 steps/op): degraded phases = {:?}",
        starved.degraded_phases
    );
    let a: BTreeSet<_> = full.points_to.pt.tuples().into_iter().collect();
    let b: BTreeSet<_> = starved.points_to.pt.tuples().into_iter().collect();
    println!("  pt identical to unbudgeted run: {}", a == b);
    let a: BTreeSet<_> = full.side_effects.reads_star.tuples().into_iter().collect();
    let b: BTreeSet<_> = starved
        .side_effects
        .reads_star
        .tuples()
        .into_iter()
        .collect();
    println!("  reads* identical to unbudgeted run: {}", a == b);

    // 3. Cancellation is not degradable: a cancelled run aborts.
    let token = CancelToken::new();
    token.cancel();
    match driver::run_with_budget(&program, Budget::unlimited().with_cancel(token)) {
        Err(JeddError::ResourceExhausted { op, cause, .. }) => {
            println!("\ncancelled run aborted in `{op}`: {cause}")
        }
        Err(e) => println!("\ncancelled run failed differently: {e}"),
        Ok(_) => println!("\ncancelled run finished before the first probe"),
    }

    // 4. A node-limited universe: the error carries the kernel counters,
    //    including the GC and reorder retries of the recovery ladder.
    let u = Universe::new();
    let d = u.add_domain("D", 1 << 10);
    let pds = u.add_physical_domains_interleaved(&["A", "B"], 10);
    let x = u.add_attribute("x", d);
    let y = u.add_attribute("y", d);
    let schema = [(x, pds[0]), (y, pds[1])];
    u.set_budget(Budget::unlimited().with_max_live_nodes(24));
    let tuples: Vec<Vec<u64>> = (0..256).map(|i| vec![i, (i * 37) % 1024]).collect();
    match Relation::from_tuples(&u, &schema, &tuples) {
        Err(e) => println!("\nnode-starved build failed as expected:\n  {e}"),
        Ok(_) => println!("\nnode-starved build unexpectedly succeeded"),
    }

    // 5. Fault injection: a planned allocation failure makes one op fail;
    //    clearing the plan shows the kernel survived it unharmed.
    u.set_budget(Budget::unlimited());
    u.set_fail_plan(Some(FailPlan::fail_alloc_at(5)));
    let injected = Relation::from_tuples(&u, &schema, &tuples);
    println!(
        "\nwith injected allocation fault: {}",
        match &injected {
            Err(e) => format!("failed: {e}"),
            Ok(_) => "unexpectedly succeeded".into(),
        }
    );
    u.set_fail_plan(None);
    let r = Relation::from_tuples(&u, &schema, &tuples)?;
    println!(
        "after clearing the plan the same build succeeds: {} tuples",
        r.size()
    );

    Ok(())
}
