//! Budget trips at analysis level: a starved [`Budget`] must stop the
//! points-to analysis with the *typed error* of the limit that was hit,
//! echoing the configured limit. The degradation story (degradation.rs)
//! relies on this — the driver's fallback decision inspects the error
//! variant, so a kernel that reported `Deadline` where the limit was
//! `max_steps` would degrade wrongly.
//!
//! The generous-budget case lives in degradation.rs
//! (`generous_budget_runs_on_bdds_and_matches`), which runs the whole
//! driver under it.

use jedd_analyses::facts::Facts;
use jedd_analyses::pointsto::{self, CallGraphMode};
use jedd_analyses::synth::Benchmark;
use jedd_bdd::{BddError, Budget, CancelToken};
use jedd_core::{JeddError, Strategy};

/// Runs the points-to analysis on the Tiny benchmark with `budget`
/// installed, returning the outcome.
fn run(budget: Budget) -> Result<(), JeddError> {
    let p = Benchmark::Tiny.generate();
    let facts = Facts::load(&p).expect("fact loading is unbudgeted");
    facts.u.set_budget(budget);
    pointsto::analyze_with(&facts, CallGraphMode::OnTheFly, Strategy::SemiNaive).map(|_| ())
}

fn cause(r: Result<(), JeddError>) -> BddError {
    match r {
        Err(JeddError::ResourceExhausted { cause, .. }) => cause,
        Err(e) => panic!("expected ResourceExhausted, got {e}"),
        Ok(()) => panic!("a starved budget must trip"),
    }
}

#[test]
fn step_limit_trips_with_its_limit() {
    let c = cause(run(Budget::unlimited().with_max_steps(10)));
    assert!(matches!(c, BddError::StepLimit { limit: 10, .. }), "{c}");
}

#[test]
fn node_limit_trips_with_its_limit() {
    // A limit below what the fact base already occupies cannot be
    // recovered by the GC/reorder ladder.
    let c = cause(run(Budget::unlimited().with_max_live_nodes(16)));
    assert!(matches!(c, BddError::NodeLimit { limit: 16, .. }), "{c}");
}

#[test]
fn cancellation_trips_as_cancelled() {
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::unlimited()
        // Probe the token on every step, not every 1024th.
        .with_max_steps(u64::MAX)
        .with_cancel(token);
    assert_eq!(cause(run(budget)), BddError::Cancelled);
}

#[test]
fn expired_deadline_trips_as_deadline() {
    let budget = Budget::unlimited()
        // Probe the clock on every step.
        .with_max_steps(u64::MAX)
        .with_timeout(std::time::Duration::ZERO);
    assert_eq!(cause(run(budget)), BddError::Deadline);
}
