//! The five embedded analysis sources are the `jeddlint` corpus: they
//! must come out of `--lint --deny warnings` clean, and the replace-cost
//! pass's static site count must agree with what the profiler actually
//! measures when the points-to module runs.

use jedd_analyses::jedd_src;
use jedd_core::{OpEvent, ProfileSink};
use jeddc::Severity;
use std::cell::RefCell;
use std::rc::Rc;

fn lint_module(src: &str) -> (jeddc::assignc::Assignment, Vec<jeddc::Diagnostic>) {
    let prog = jeddc::parse::parse(src).expect("parse");
    let typed = jeddc::check::check_all(&prog).expect("check");
    let assignment = jeddc::assignc::assign(&typed, false).expect("assign");
    let diags = jeddc::lint::lint_program(&typed, Some(&assignment));
    (assignment, diags)
}

#[test]
fn all_modules_are_warning_clean() {
    for (name, src) in jedd_src::modules() {
        let (_, mut diags) = lint_module(&src);
        jeddc::lint::apply_deny(&mut diags, &["warnings".to_string()]);
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(
            errors.is_empty(),
            "{name} has deny-level lint diagnostics: {errors:#?}"
        );
    }
}

#[test]
fn combined_program_is_warning_clean() {
    let (_, mut diags) = lint_module(&jedd_src::combined());
    jeddc::lint::apply_deny(&mut diags, &["warnings".to_string()]);
    assert!(
        diags.iter().all(|d| d.severity != Severity::Error),
        "combined program has deny-level lint diagnostics"
    );
}

struct ReplaceCounter(RefCell<u64>);

impl ProfileSink for ReplaceCounter {
    fn record(&self, event: &OpEvent) {
        if event.op == "replace" {
            *self.0.borrow_mut() += 1;
        }
    }
}

/// The static replace-site count equals the number of replace operations
/// the profiler sees when every points-to rule body executes exactly
/// once. Empty fact relations make each `do/while` converge on its first
/// iteration, so one run of every rule touches each forced site once;
/// the ±2 tolerance leaves room for alignment replaces the grouping
/// cannot see (none today, but the bound is the contract, not zero).
#[test]
fn pointsto_static_replace_count_matches_profiler() {
    let src = format!("{}\n{}", jedd_src::PRELUDE, jedd_src::POINTSTO);
    let (assignment, _) = lint_module(&src);
    let static_sites = jeddc::lint::static_replace_sites(&assignment) as i64;
    assert!(static_sites > 0, "points-to is expected to force replaces");

    let compiled = jeddc::compile(&src).expect("compile");
    let mut exec = jeddc::Executor::new(&compiled).expect("executor");
    for d in [
        "Type",
        "Signature",
        "Method",
        "Field",
        "Var",
        "Obj",
        "Site",
        "ParamIdx",
    ] {
        exec.bind_domain_size(d, 4).expect("bind domain");
    }
    let sink = Rc::new(ReplaceCounter(RefCell::new(0)));
    // Prepare first so universe setup (building the empty globals) is
    // excluded from the count, then install the profiler.
    exec.prepare().expect("prepare");
    exec.universe().set_profiler(Some(sink.clone()));
    for rule in [
        "ptInit",
        "ptStep",
        "ptFilterInit",
        "ptFilter",
        "ptStepTyped",
    ] {
        exec.run(rule).expect(rule);
    }
    exec.universe().set_profiler(None);

    let measured = *sink.0.borrow() as i64;
    assert!(
        (static_sites - measured).abs() <= 2,
        "static replace-site count {static_sites} vs profiler-measured {measured}"
    );
    // The executor's own counter tallies the same conform operations.
    assert_eq!(measured, exec.replaces as i64);
}
