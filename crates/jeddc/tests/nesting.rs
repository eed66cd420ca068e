//! Deeply nested source: past `parse::MAX_NESTING` the parser returns a
//! positioned error instead of overflowing the stack, and source at the
//! limit still goes through every later pass — check, physical-domain
//! assignment, execution and the executor's delta evaluator — on a
//! thread with a 2 MiB stack.

use jeddc::parse::MAX_NESTING;
use jeddc::{compile, Executor};

const DECLS: &str = "
    domain T 8;
    attribute a : T;
    physdom P1;
    relation <a:P1> r;
    relation <a:P1> out;
";

/// Runs `f` on a thread with a 2 MiB stack, as test threads get by
/// default, so a stack overflow aborts the test.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

fn rule(body: &str) -> String {
    format!("{DECLS} rule deep {{ {body} }}")
}

/// `r | (r | (... (r | r)))` with `levels` pairs of parentheses: a union
/// tree `levels + 1` high, nested `levels + 1` deep.
fn nested_unions(levels: usize) -> String {
    let mut e = String::from("r");
    for _ in 0..levels {
        e = format!("r | ({e})");
    }
    e
}

fn assert_too_deep(src: String) {
    let err = on_small_stack(move || compile(&src).map(|_| ()).unwrap_err());
    let msg = err.to_string();
    assert!(msg.contains("nesting deeper than"), "{msg}");
}

#[test]
fn two_hundred_thousand_parentheses_are_a_compile_error() {
    let n = 200_000;
    let src = rule(&format!("out = {}r{};", "(".repeat(n), ")".repeat(n)));
    let err = on_small_stack(move || compile(&src).map(|_| ()).unwrap_err());
    let jeddc::JeddcError::Compile(e) = &err else {
        panic!("expected a compile error, got {err}");
    };
    assert!(e.message.contains("nesting deeper than"), "{err}");
    // The span points at the parenthesis that crossed the limit.
    let line = rule("").lines().count() as u32;
    assert_eq!(e.pos.line, line);
}

/// `levels` nested `if` bodies around `stmt`.
fn in_bodies(levels: usize, stmt: &str) -> String {
    format!(
        "{}{stmt}{}",
        "if (r == r) { ".repeat(levels),
        " }".repeat(levels)
    )
}

/// `r | r | ... | r`: a left-leaning union tree `height` high.
fn chain(height: usize) -> String {
    format!("r{}", " | r".repeat(height - 1))
}

#[test]
fn over_the_limit_is_rejected_in_every_shape() {
    // Parentheses, casts, operator chains and statement bodies each
    // count toward the limit.
    let n = MAX_NESTING + 1;
    assert_too_deep(rule(&format!("out = {}r{};", "(".repeat(n), ")".repeat(n))));
    assert_too_deep(rule(&format!("out = {}r;", "(a=>a) ".repeat(n))));
    assert_too_deep(rule(&format!("out = {};", chain(n))));
    assert_too_deep(rule(&format!("out = {};", nested_unions(MAX_NESTING))));
    assert_too_deep(rule(&in_bodies(n, "out = r;")));
    // Statement bodies and the expression tree inside share the limit.
    let half = MAX_NESTING / 2;
    assert_too_deep(rule(&in_bodies(
        half,
        &format!("out = {};", chain(n - half)),
    )));
    // A 200,000-long chain builds no recursion in the parser, but would
    // in every later pass.
    assert_too_deep(rule(&format!("out = {};", chain(200_000))));
}

/// Compiles `src`, runs `deep` twice with `r` growing in between (so the
/// second run goes through the delta evaluator), and returns `out`.
fn run_twice(src: String) -> (Vec<Vec<u64>>, u64) {
    on_small_stack(move || {
        let compiled = compile(&src).expect("at the limit compiles");
        let mut x = Executor::new(&compiled).unwrap();
        x.set_input("r", &[vec![1]]).unwrap();
        x.run("deep").unwrap();
        x.set_input("r", &[vec![1], vec![5]]).unwrap();
        x.run("deep").unwrap();
        let deltas = x
            .rule_stats()
            .iter()
            .map(|r| r.statements.delta_executions)
            .sum();
        (x.tuples("out").unwrap(), deltas)
    })
}

#[test]
fn at_the_limit_everything_runs_on_a_small_stack() {
    let at_limit = [
        // A union tree MAX_NESTING high inside MAX_NESTING - 1
        // parentheses.
        format!("out = {};", nested_unions(MAX_NESTING - 1)),
        // A left-leaning chain MAX_NESTING high.
        format!("out = {};", chain(MAX_NESTING)),
        // Half the levels in statement bodies, half in the tree.
        in_bodies(
            MAX_NESTING / 2,
            &format!("out = {};", chain(MAX_NESTING - MAX_NESTING / 2)),
        ),
        // All but one in statement bodies.
        in_bodies(MAX_NESTING - 1, "out = r;"),
    ];
    for body in at_limit {
        let (out, deltas) = run_twice(rule(&body));
        assert_eq!(out, vec![vec![1], vec![5]], "{body}");
        assert!(deltas > 0, "the delta evaluator ran: {body}");
    }
}
