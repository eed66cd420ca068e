//! jeddc's semi-naive statements against the naive oracle: the five
//! mini-Jedd analyses, run through `driver::run_jedd` and
//! `driver::run_jedd_typed` with the default memoised executor and with
//! every statement forced onto the full path, must agree tuple for tuple
//! on every global relation — and with the explicit-set baseline.

use jedd::analyses::ir::Program;
use jedd::analyses::synth::Benchmark;
use jedd::analyses::{baseline_sets, driver, jedd_src};
use jedd::core::Strategy;
use jedd::jeddc::{Executor, Fallback};
use std::collections::BTreeSet;

fn globals() -> Vec<String> {
    let compiled = jedd::jeddc::compile(&jedd_src::combined()).unwrap();
    compiled
        .typed
        .vars
        .iter()
        .filter(|v| v.global)
        .map(|v| v.name.clone())
        .collect()
}

fn pairs(exec: &Executor, name: &str) -> BTreeSet<(u32, u32)> {
    exec.tuples(name)
        .unwrap()
        .into_iter()
        .map(|t| (t[0] as u32, t[1] as u32))
        .collect()
}

fn triples(exec: &Executor, name: &str) -> BTreeSet<(u32, u32, u32)> {
    exec.tuples(name)
        .unwrap()
        .into_iter()
        .map(|t| (t[0] as u32, t[1] as u32, t[2] as u32))
        .collect()
}

fn check(b: Benchmark, p: &Program, typed: bool) {
    let semi = driver::run_jedd_with(p, typed, Strategy::SemiNaive).unwrap();
    let naive = driver::run_jedd_with(p, typed, Strategy::Naive).unwrap();
    for name in globals() {
        assert_eq!(
            semi.tuples(&name).unwrap(),
            naive.tuples(&name).unwrap(),
            "{b:?} typed={typed}: `{name}` differs between semi-naive and naive"
        );
    }

    let pt = if typed {
        baseline_sets::points_to_typed(p)
    } else {
        baseline_sets::points_to(p)
    };
    let se = baseline_sets::side_effects(p, &pt);
    let at = |what: &str| format!("{b:?} typed={typed}: {what}");
    assert_eq!(pairs(&semi, "pt"), pt.pt, "{}", at("pt"));
    assert_eq!(triples(&semi, "fieldPt"), pt.field_pt, "{}", at("fieldPt"));
    assert_eq!(pairs(&semi, "siteTarget"), pt.cg, "{}", at("siteTarget"));
    assert_eq!(
        pairs(&semi, "subtypeOf"),
        baseline_sets::hierarchy(p),
        "{}",
        at("subtypeOf")
    );
    assert_eq!(triples(&semi, "reads"), se.reads, "{}", at("reads"));
    assert_eq!(triples(&semi, "writes"), se.writes, "{}", at("writes"));
    assert_eq!(
        triples(&semi, "readsStar"),
        se.reads_star,
        "{}",
        at("readsStar")
    );
    assert_eq!(
        triples(&semi, "writesStar"),
        se.writes_star,
        "{}",
        at("writesStar")
    );

    // The oracle really ran everything in full; the default mode really
    // ran the loop bodies on deltas.
    let delta_runs = |exec: &Executor| -> u64 {
        exec.rule_stats()
            .iter()
            .map(|r| r.statements.delta_executions)
            .sum()
    };
    assert_eq!(delta_runs(&naive), 0, "{b:?}: naive took a delta path");
    assert!(delta_runs(&semi) > 0, "{b:?}: no statement ran on deltas");
}

#[test]
fn seminaive_statements_match_the_naive_oracle_and_the_set_baseline() {
    for b in [Benchmark::Tiny, Benchmark::Compress, Benchmark::Javac] {
        let p = b.generate();
        check(b, &p, false);
        check(b, &p, true);
    }
}

#[test]
fn counters_show_where_the_deltas_run() {
    let p = Benchmark::Javac.generate();
    let exec = driver::run_jedd(&p).unwrap();
    let rules = exec.rule_stats();
    let rule = |name: &str| {
        rules
            .iter()
            .find(|r| r.rule == name)
            .unwrap_or_else(|| panic!("rule {name}"))
            .statements
            .clone()
    };
    for name in [
        "cgParamEdges",
        "mkSiteTypes",
        "hierarchy",
        "ptStep",
        "cgBuild",
        "sideEffects",
    ] {
        assert!(
            rule(name).delta_executions > 0,
            "{name} never ran a statement on deltas"
        );
    }
    // vcr's `toResolve -= ...` can remove tuples: always in full.
    let minus = exec
        .statement_stats()
        .find(|(plan, _)| plan.rule == "vcr" && plan.never_delta == Some(Fallback::NotMonotone))
        .expect("vcr has a -= statement");
    assert!(minus.1.executions > 0);
    assert_eq!(minus.1.fallback(Fallback::NotMonotone), minus.1.executions);
}
