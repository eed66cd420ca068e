//! Executor edge cases: domain binding, input validation, rule errors and
//! replace accounting.

use jeddc::{compile, compile_auto, Executor, Fallback};

const SRC: &str = "
    domain T { A, B, C };
    domain N;
    attribute x : T;
    attribute y : T;
    attribute n : N;
    physdom P1, P2, P3;
    relation <x:P1, y:P2> r;
    relation <n:P3> s;
    rule swap { r = (x=>y, y=>x) r; }
    rule clear { r = 0B; }
";

fn exec() -> Executor {
    let compiled = compile(SRC).unwrap();
    Executor::new(&compiled).unwrap()
}

#[test]
fn unbound_deferred_domain_reported() {
    let mut e = exec();
    let err = e.run("swap").unwrap_err();
    assert!(err.to_string().contains("has no size"), "{err}");
}

#[test]
fn binding_after_prepare_rejected() {
    let mut e = exec();
    e.bind_domain_size("N", 4).unwrap();
    e.run("clear").unwrap();
    let err = e.bind_domain_size("N", 8).unwrap_err();
    assert!(err.to_string().contains("after preparation"), "{err}");
}

#[test]
fn unknown_names_reported() {
    let mut e = exec();
    e.bind_domain_size("N", 4).unwrap();
    assert!(e.bind_domain_size("Nope", 4).is_err());
    assert!(e.set_input("nope", &[]).is_err());
    assert!(e.run("nope").is_err());
    assert!(e.tuples("nope").is_err());
}

#[test]
fn empty_domain_bindings_are_errors() {
    let mut e = exec();
    let err = e.bind_domain_size("N", 0).unwrap_err();
    assert!(err.to_string().contains("at least one object"), "{err}");
    let err = e.bind_domain_elements("N", &[]).unwrap_err();
    assert!(err.to_string().contains("at least one object"), "{err}");
    // Neither failed call bound the domain, and a valid binding still
    // works afterwards.
    let err = e.run("clear").unwrap_err();
    assert!(err.to_string().contains("has no size"), "{err}");
    e.bind_domain_size("N", 4).unwrap();
    e.run("clear").unwrap();
}

#[test]
fn out_of_range_input_rejected() {
    let mut e = exec();
    e.bind_domain_size("N", 4).unwrap();
    let err = e.set_input("r", &[vec![0, 7]]).unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
}

#[test]
fn swap_exchanges_columns() {
    let mut e = exec();
    e.bind_domain_size("N", 4).unwrap();
    e.set_input("r", &[vec![0, 1], vec![2, 2]]).unwrap();
    e.run("swap").unwrap();
    let mut got = e.tuples("r").unwrap();
    got.sort();
    assert_eq!(got, vec![vec![1, 0], vec![2, 2]]);
    // A simultaneous exchange costs replace work; the executor counts it.
    assert!(e.replaces > 0);
}

#[test]
fn rerunning_rules_is_idempotent_for_clear() {
    let mut e = exec();
    e.bind_domain_size("N", 4).unwrap();
    e.set_input("r", &[vec![0, 0]]).unwrap();
    e.run("clear").unwrap();
    e.run("clear").unwrap();
    assert!(e.tuples("r").unwrap().is_empty());
}

#[test]
fn element_labels_resolve_in_literals() {
    let src = "
        domain T { A, B, C };
        attribute x : T;
        physdom P1;
        relation <x:P1> r;
        rule add { r = r | new { C => x }; }
    ";
    let compiled = compile(src).unwrap();
    let mut e = Executor::new(&compiled).unwrap();
    e.run("add").unwrap();
    assert_eq!(e.tuples("r").unwrap(), vec![vec![2]]);
}

#[test]
fn bind_domain_elements_enables_labels() {
    let src = "
        domain T;
        attribute x : T;
        physdom P1;
        relation <x:P1> r;
        rule add { r = r | new { beta => x }; }
    ";
    let compiled = compile(src).unwrap();
    let mut e = Executor::new(&compiled).unwrap();
    e.bind_domain_elements("T", &["alpha", "beta"]).unwrap();
    e.run("add").unwrap();
    assert_eq!(e.tuples("r").unwrap(), vec![vec![1]]);
}

#[test]
fn unresolvable_label_reported_at_runtime() {
    let src = "
        domain T;
        attribute x : T;
        physdom P1;
        relation <x:P1> r;
        rule add { r = r | new { gamma => x }; }
    ";
    let compiled = compile(src).unwrap();
    let mut e = Executor::new(&compiled).unwrap();
    e.bind_domain_size("T", 2).unwrap();
    let err = e.run("add").unwrap_err();
    assert!(err.to_string().contains("not an element"), "{err}");
}

#[test]
fn short_input_row_is_an_error_not_a_panic() {
    let mut e = exec();
    e.bind_domain_size("N", 4).unwrap();
    let err = e.set_input("r", &[vec![0, 1], vec![2]]).unwrap_err();
    assert!(err.to_string().contains("1 columns"), "{err}");
    let err = e.set_input("s", &[vec![0, 1]]).unwrap_err();
    assert!(err.to_string().contains("2 columns"), "{err}");
}

/// A program with one statement per way a memoised statement can fall
/// back to the full path.
const DELTA_SRC: &str = "
    domain N 8;
    attribute a : N;
    attribute b : N;
    physdom P1, P2, P3;
    relation <a:P1, b:P2> e;
    relation <a:P1, b:P2> f;
    relation <a:P1> out;
    relation <a:P1> acc;
    relation <a:P1, b:P2> two;
    relation <a:P1, b:P2> sq;
    rule proj { out = (b=>) e; }
    rule clobber { out = new { 7 => a }; }
    rule grow { acc |= (b=>) e; }
    rule reset { acc = new { 6 => a }; }
    rule hop { two = e {b} <> f {a}; }
    rule square { sq = e {b} <> e {a}; }
    rule cut { acc -= (b=>) f; }
";

/// Runs `script` (rule runs and input loads) under both strategies and
/// checks every global agrees after each step; returns the semi-naive
/// executor.
fn replay(script: &[(&str, &[[u64; 2]])]) -> Executor {
    let compiled = compile_auto(DELTA_SRC).unwrap();
    let mut semi = Executor::new(&compiled).unwrap();
    let mut naive = Executor::new(&compiled).unwrap();
    naive.set_strategy(jedd_core::Strategy::Naive);
    for &(step, rows) in script {
        for x in [&mut semi, &mut naive] {
            match step.strip_prefix("load ") {
                Some(rel) => {
                    let rows: Vec<Vec<u64>> = rows.iter().map(|r| r.to_vec()).collect();
                    x.set_input(rel, &rows).unwrap();
                }
                None => x.run(step).unwrap(),
            }
        }
        for rel in ["e", "f", "out", "acc", "two", "sq"] {
            assert_eq!(
                semi.tuples(rel).unwrap(),
                naive.tuples(rel).unwrap(),
                "`{rel}` after `{step}`"
            );
        }
    }
    semi
}

/// The counters of the statement in `rule`.
fn counters(x: &Executor, rule: &str) -> jeddc::StmtStats {
    x.statement_stats()
        .find(|(plan, _)| plan.rule == rule)
        .map(|(_, s)| s.clone())
        .unwrap()
}

#[test]
fn first_run_is_full_and_an_unchanged_rerun_is_a_delta_noop() {
    let x = replay(&[("load e", &[[0, 1], [1, 2]]), ("proj", &[]), ("proj", &[])]);
    let s = counters(&x, "proj");
    assert_eq!(s.executions, 2);
    assert_eq!(s.fallback(Fallback::FirstRun), 1);
    assert_eq!((s.delta_executions, s.delta_tuples), (1, 0));
}

#[test]
fn growth_runs_on_the_delta_only() {
    let x = replay(&[
        ("load e", &[[0, 1]]),
        ("proj", &[]),
        ("load e", &[[0, 1], [3, 1], [4, 2]]),
        ("proj", &[]),
    ]);
    let s = counters(&x, "proj");
    assert_eq!(s.delta_executions, 1);
    assert_eq!(s.delta_tuples, 2, "only the two new rows are derived");
}

#[test]
fn host_shrinking_an_input_forces_a_full_run() {
    let x = replay(&[
        ("load e", &[[0, 1], [3, 1], [4, 2]]),
        ("proj", &[]),
        ("load e", &[[4, 2]]),
        ("proj", &[]),
    ]);
    let s = counters(&x, "proj");
    assert_eq!(s.fallback(Fallback::InputShrank), 1);
    assert_eq!(x.tuples("out").unwrap(), vec![vec![4]]);
}

#[test]
fn rewritten_union_target_forces_a_full_run() {
    let x = replay(&[
        ("load e", &[[0, 1]]),
        ("grow", &[]),
        ("reset", &[]),
        ("load e", &[[0, 1], [2, 1]]),
        ("grow", &[]),
    ]);
    let s = counters(&x, "grow");
    assert_eq!(s.fallback(Fallback::TargetRewritten), 1);
    assert_eq!(s.delta_executions, 0);
    // The full run re-derives row 0, which the reset had dropped.
    assert_eq!(x.tuples("acc").unwrap(), vec![vec![0], vec![2], vec![6]]);
}

#[test]
fn set_target_rewritten_by_another_rule_stays_correct() {
    // `out = ...` adds its delta to what it last wrote, not to whatever
    // `clobber` left in `out`.
    let x = replay(&[
        ("load e", &[[0, 1]]),
        ("proj", &[]),
        ("clobber", &[]),
        ("load e", &[[0, 1], [2, 1]]),
        ("proj", &[]),
    ]);
    let s = counters(&x, "proj");
    assert_eq!(s.delta_executions, 1);
    assert_eq!(x.tuples("out").unwrap(), vec![vec![0], vec![2]]);
}

#[test]
fn two_grown_join_operands_are_nonlinear() {
    let x = replay(&[
        ("load e", &[[0, 1]]),
        ("load f", &[[1, 2]]),
        ("hop", &[]),
        // Only `e` grows: one touched operand, a delta run.
        ("load e", &[[0, 1], [3, 1]]),
        ("hop", &[]),
        // Both grow: the compose meets two deltas.
        ("load e", &[[0, 1], [3, 1], [5, 4]]),
        ("load f", &[[1, 2], [4, 0]]),
        ("hop", &[]),
    ]);
    let s = counters(&x, "hop");
    assert_eq!(s.delta_executions, 1);
    assert_eq!(s.fallback(Fallback::Nonlinear), 1);
    // `e` meets itself in `square`: statically never a delta run.
    let compiled = compile_auto(DELTA_SRC).unwrap();
    let square = compiled
        .plan
        .statements
        .iter()
        .find(|p| p.rule == "square")
        .unwrap();
    assert_eq!(square.never_delta, Some(Fallback::Nonlinear));
    let x = replay(&[
        ("load e", &[[0, 1], [1, 2]]),
        ("square", &[]),
        ("square", &[]),
    ]);
    assert_eq!(counters(&x, "square").fallback(Fallback::Nonlinear), 2);
}

#[test]
fn minus_assignments_always_run_in_full() {
    let x = replay(&[
        ("load e", &[[0, 1], [2, 1]]),
        ("load f", &[[2, 0]]),
        ("grow", &[]),
        ("cut", &[]),
        ("cut", &[]),
    ]);
    let s = counters(&x, "cut");
    assert_eq!(s.fallback(Fallback::NotMonotone), 2);
    assert_eq!(x.tuples("acc").unwrap(), vec![vec![0]]);
}

#[test]
fn naive_strategy_never_takes_the_delta_path() {
    let compiled = compile_auto(DELTA_SRC).unwrap();
    let mut x = Executor::new(&compiled).unwrap();
    x.set_strategy(jedd_core::Strategy::Naive);
    x.set_input("e", &[vec![0, 1]]).unwrap();
    x.run("proj").unwrap();
    x.run("proj").unwrap();
    let s = counters(&x, "proj");
    assert_eq!((s.executions, s.delta_executions), (2, 0));
    assert_eq!(s.fallbacks, [0; 5], "the oracle records no fallback");
}

#[test]
fn static_report_names_the_statements_that_never_run_on_deltas() {
    let compiled = compile_auto(DELTA_SRC).unwrap();
    let report = compiled.plan.render(&compiled.typed);
    assert!(
        report.starts_with("delta_statements 5\nfull_statements 2\n"),
        "{report}"
    );
    for line in [
        "statement proj 12,17 out = delta",
        "statement grow 14,17 acc |= delta",
        "statement square 17,19 sq = full (nonlinear)",
        "statement cut 18,16 acc -= full (-=/&=)",
    ] {
        assert!(report.contains(line), "missing `{line}` in\n{report}");
    }
}
