//! End-to-end tests: mini-Jedd source through the full pipeline (parse →
//! type check → physical domain assignment → execution), reproducing the
//! paper's running example and error scenarios.

use jeddc::{compile, compile_auto, emit_java_like, Executor, JeddcError};

/// The virtual-call-resolution program of the paper's Fig. 4, verbatim in
/// mini-Jedd (same physical-domain annotations as the paper).
const FIG4: &str = "
    domain Type { A, B };
    domain Signature { foo, bar };
    domain Method { A.foo, B.bar };

    attribute rectype : Type;
    attribute tgttype : Type;
    attribute type : Type;
    attribute subtype : Type;
    attribute supertype : Type;
    attribute signature : Signature;
    attribute method : Method;

    physdom T1, S1, T2, M1, T3;

    relation <rectype:T1, signature:S1> receiverTypes;
    relation <type, signature, method> declaresMethod;
    // As in the paper's fixed §3.3.3 declarations: subtype shares T2 with
    // tgttype (no replace in the compose); supertype gets its own T3.
    relation <subtype:T2, supertype:T3> extend;
    relation <rectype, signature, tgttype, method> answer;

    rule resolve {
        <rectype, signature, tgttype> toResolve =
            (rectype => rectype tgttype) receiverTypes;
        do {
            <rectype:T1, signature:S1, tgttype:T2, method:M1> resolved =
                toResolve {tgttype, signature} >< declaresMethod {type, signature};
            answer |= resolved;
            toResolve -= (method=>) resolved;
            toResolve = (supertype=>tgttype) (toResolve {tgttype} <> extend {subtype});
        } while (toResolve != 0B);
    }
";

fn run_fig4() -> Executor {
    let compiled = compile(FIG4).expect("Fig. 4 program must compile");
    let mut exec = Executor::new(&compiled).unwrap();
    // Fig. 4(a): receiver B at call sites foo() and bar().
    exec.set_input("receiverTypes", &[vec![1, 0], vec![1, 1]])
        .unwrap();
    // Fig. 3: A declares foo() as A.foo; B declares bar() as B.bar.
    exec.set_input("declaresMethod", &[vec![0, 0, 0], vec![1, 1, 1]])
        .unwrap();
    // Fig. 4(d): B extends A.
    exec.set_input("extend", &[vec![1, 0]]).unwrap();
    exec.run("resolve").unwrap();
    exec
}

#[test]
fn figure4_resolves_both_calls() {
    let exec = run_fig4();
    // Answer tuples in sorted-attr order (method, rectype, signature,
    // tgttype) — attributes sort by declaration: rectype < tgttype < type
    // < subtype < supertype < signature < method. Schema order is
    // declaration order sorted: rectype, tgttype, signature, method.
    let answer = exec.tuples("answer").unwrap();
    assert_eq!(answer.len(), 2);
    // (B, A, foo, A.foo) and (B, B, bar, B.bar) in (rectype, tgttype,
    // signature, method) order.
    assert!(answer.contains(&vec![1, 0, 0, 0]), "foo resolves to A.foo");
    assert!(answer.contains(&vec![1, 1, 1, 1]), "bar resolves to B.bar");
}

#[test]
fn figure4_empty_receivers_terminates() {
    let compiled = compile(FIG4).unwrap();
    let mut exec = Executor::new(&compiled).unwrap();
    exec.set_input("declaresMethod", &[vec![0, 0, 0]]).unwrap();
    exec.set_input("extend", &[vec![1, 0]]).unwrap();
    exec.run("resolve").unwrap();
    assert!(exec.tuples("answer").unwrap().is_empty());
}

#[test]
fn figure4_unresolvable_call_drops_out() {
    // Receiver A calling bar(), which nothing in the hierarchy declares:
    // walking up from A leaves the hierarchy, so the loop terminates with
    // no answer for that site.
    let compiled = compile(FIG4).unwrap();
    let mut exec = Executor::new(&compiled).unwrap();
    exec.set_input("receiverTypes", &[vec![0, 1]]).unwrap();
    exec.set_input("declaresMethod", &[vec![1, 1, 1]]).unwrap();
    exec.set_input("extend", &[vec![1, 0]]).unwrap();
    exec.run("resolve").unwrap();
    assert!(exec.tuples("answer").unwrap().is_empty());
}

#[test]
fn assignment_stats_populated() {
    let compiled = compile(FIG4).unwrap();
    let st = compiled.assignment.stats;
    assert!(
        st.exprs > 10,
        "Fig. 4 has many subexpressions: {}",
        st.exprs
    );
    assert!(st.attrs > st.exprs, "multiple attrs per expr");
    assert_eq!(st.physdoms, 5);
    assert!(st.conflict > 0);
    assert!(st.equality > 0);
    assert!(st.assignment > 0);
    assert!(st.sat_vars > 0 && st.sat_clauses > 0 && st.sat_literals > 0);
    assert_eq!(
        compiled.assignment.auto_pins, 0,
        "paper's annotations suffice"
    );
}

#[test]
fn emitted_java_mentions_physical_domains() {
    let compiled = compile(FIG4).unwrap();
    let java = emit_java_like(&compiled);
    assert!(java.contains("public class JeddProgram"));
    assert!(java.contains("join"));
    assert!(java.contains("compose"));
    assert!(java.contains("T2"));
    assert!(java.contains("replace"));
    assert!(java.contains("do {"));
}

#[test]
fn type_error_wrong_schema_assignment() {
    let src = "
        domain T { A };
        attribute x : T;
        attribute y : T;
        physdom P1, P2;
        relation <x:P1> r;
        relation <x:P1, y:P2> s;
        rule bad { r = s; }
    ";
    let err = compile(src).unwrap_err();
    let JeddcError::Compile(e) = err else {
        panic!("expected a compile error")
    };
    assert!(e.message.contains("schema mismatch"), "{}", e.message);
}

#[test]
fn type_error_join_overlap() {
    let src = "
        domain T { A };
        attribute x : T;
        attribute y : T;
        physdom P1, P2;
        relation <x:P1, y:P2> r;
        rule bad { r = r {x} >< r {x}; }
    ";
    let err = compile(src).unwrap_err();
    let JeddcError::Compile(e) = err else {
        panic!("expected a compile error")
    };
    assert!(e.message.contains("share attributes"), "{}", e.message);
}

#[test]
fn type_error_project_unknown_attribute() {
    let src = "
        domain T { A };
        attribute x : T;
        attribute y : T;
        physdom P1;
        relation <x:P1> r;
        rule bad { r = (y=>) r; }
    ";
    let err = compile(src).unwrap_err();
    let JeddcError::Compile(e) = err else {
        panic!("expected a compile error")
    };
    assert!(e.message.contains("not in operand schema"), "{}", e.message);
}

#[test]
fn section_3_3_3_conflict_error_through_language() {
    // The paper's §3.3.3 example: toResolve and extend force rectype and
    // supertype into T1 within one compose result.
    let src = "
        domain Type { A };
        domain Signature { s };
        attribute rectype : Type;
        attribute tgttype : Type;
        attribute subtype : Type;
        attribute supertype : Type;
        attribute signature : Signature;
        physdom T1, T2, S1;
        relation <rectype:T1, signature:S1, tgttype:T2> toResolve;
        relation <supertype:T1, subtype:T2> extend;
        relation <rectype, signature, supertype> result;
        rule bad {
            result = toResolve {tgttype} <> extend {subtype};
        }
    ";
    let err = compile(src).unwrap_err();
    let JeddcError::Assign(e) = err else {
        panic!("expected an assignment error, got {err:?}")
    };
    let msg = e.to_string();
    assert!(msg.contains("Conflict between"), "{msg}");
    assert!(msg.contains("over physical domain T1"), "{msg}");
    assert!(
        msg.contains("rectype") && msg.contains("supertype"),
        "{msg}"
    );
}

#[test]
fn section_3_3_3_fix_compiles() {
    // The paper's fix: pin supertype to a fresh T3 on the result.
    let src = "
        domain Type { A };
        domain Signature { s };
        attribute rectype : Type;
        attribute tgttype : Type;
        attribute subtype : Type;
        attribute supertype : Type;
        attribute signature : Signature;
        physdom T1, T2, S1, T3;
        relation <rectype:T1, signature:S1, tgttype:T2> toResolve;
        relation <supertype:T1, subtype:T2> extend;
        relation <rectype, signature, supertype:T3> result;
        rule fixed {
            result = toResolve {tgttype} <> extend {subtype};
        }
    ";
    compile(src).expect("the paper's fix must compile");
}

#[test]
fn unreachable_attribute_reported_through_language() {
    let src = "
        domain T { A };
        attribute x : T;
        physdom P1;
        relation <x> lonely;
        rule noop { lonely = lonely; }
    ";
    let err = compile(src).unwrap_err();
    let JeddcError::Assign(e) = err else {
        panic!("expected an assignment error")
    };
    assert!(e.to_string().contains("No physical domain reaches"));
}

#[test]
fn auto_mode_pins_unlabelled_components() {
    // The same program compiles in auto mode, with one pinned domain.
    let src = "
        domain T { A };
        attribute x : T;
        relation <x> lonely;
        rule noop { lonely = lonely; }
    ";
    let compiled = compile_auto(src).expect("auto mode must pin");
    assert!(compiled.assignment.auto_pins >= 1);
    let mut exec = Executor::new(&compiled).unwrap();
    exec.set_input("lonely", &[vec![0]]).unwrap();
    exec.run("noop").unwrap();
    assert_eq!(exec.tuples("lonely").unwrap(), vec![vec![0]]);
}

#[test]
fn auto_mode_handles_figure4_without_annotations() {
    // Strip every physical-domain annotation from Fig. 4: auto mode plays
    // the programmer's role.
    let src = FIG4
        .replace(":T1", "")
        .replace(":S1", "")
        .replace(":T2", "")
        .replace(":M1", "")
        .replace(":T3", "")
        .replace("physdom T1, S1, T2, M1, T3;", "");
    let compiled = compile_auto(&src).expect("auto mode must succeed");
    assert!(compiled.assignment.auto_pins >= 4);
    let mut exec = Executor::new(&compiled).unwrap();
    exec.set_input("receiverTypes", &[vec![1, 0], vec![1, 1]])
        .unwrap();
    exec.set_input("declaresMethod", &[vec![0, 0, 0], vec![1, 1, 1]])
        .unwrap();
    exec.set_input("extend", &[vec![1, 0]]).unwrap();
    exec.run("resolve").unwrap();
    assert_eq!(exec.tuples("answer").unwrap().len(), 2);
}

#[test]
fn deferred_domains_bound_at_runtime() {
    // Transitive closure over a deferred-size Node domain. As with any
    // BDD relational product, the composition needs a third physical
    // domain for the quantified middle attribute.
    let src = "
        domain Node;
        attribute src : Node;
        attribute dst : Node;
        attribute mid : Node;
        physdom N1, N2, N3;
        relation <src:N1, dst:N2> edge;
        relation <src:N1, dst:N2> reach;
        rule closure {
            reach = edge;
            <src:N1, dst:N2> old;
            do {
                old = reach;
                <src:N1, mid:N3> hop = (dst=>mid) reach;
                <src:N1, dst:N2> step = hop {mid} <> edge {src};
                reach = reach | step;
            } while (reach != old);
        }
    ";
    let compiled = compile(src).expect("closure program compiles");
    let mut exec = Executor::new(&compiled).unwrap();
    exec.bind_domain_size("Node", 16).unwrap();
    exec.set_input("edge", &[vec![0, 1], vec![1, 2], vec![2, 3]])
        .unwrap();
    exec.run("closure").unwrap();
    let reach = exec.tuples("reach").unwrap();
    assert_eq!(reach.len(), 6, "full transitive closure of the chain");
    assert!(reach.contains(&vec![0, 3]));
}

#[test]
fn literal_with_annotation_pins_domain() {
    let src = "
        domain T { A, B };
        attribute x : T;
        physdom P9;
        relation <x> r;
        rule add { r = r | new { B => x:P9 }; }
    ";
    let compiled = compile(src).unwrap();
    // The literal's annotation flows to everything connected.
    assert_eq!(compiled.assignment.auto_pins, 0);
    let mut exec = Executor::new(&compiled).unwrap();
    exec.run("add").unwrap();
    assert_eq!(exec.tuples("r").unwrap(), vec![vec![1]]);
}

#[test]
fn full_constant_respects_domain_sizes() {
    let src = "
        domain T 5;
        attribute x : T;
        attribute y : T;
        physdom P1, P2;
        relation <x:P1, y:P2> all;
        rule fill { all = 1B; }
    ";
    let compiled = compile(src).unwrap();
    let mut exec = Executor::new(&compiled).unwrap();
    exec.run("fill").unwrap();
    assert_eq!(exec.tuples("all").unwrap().len(), 25, "5 x 5 valid tuples");
}

#[test]
fn while_loop_executes() {
    let src = "
        domain T { A, B, C };
        attribute x : T;
        physdom P1;
        relation <x:P1> work;
        relation <x:P1> done;
        rule drain {
            while (work != 0B) {
                done = done | work;
                work = work - work;
            }
        }
    ";
    let compiled = compile(src).unwrap();
    let mut exec = Executor::new(&compiled).unwrap();
    exec.set_input("work", &[vec![0], vec![2]]).unwrap();
    exec.run("drain").unwrap();
    assert_eq!(exec.tuples("done").unwrap(), vec![vec![0], vec![2]]);
    assert!(exec.tuples("work").unwrap().is_empty());
}

#[test]
fn emitted_java_roundtrip_structure() {
    // The generated-code view contains one RelationContainer per global
    // and per local, and the loop structure survives.
    let compiled = compile(FIG4).unwrap();
    let java = emit_java_like(&compiled);
    for name in [
        "receiverTypes",
        "declaresMethod",
        "extend",
        "answer",
        "toResolve",
        "resolved",
    ] {
        assert!(
            java.contains(&format!("RelationContainer {name}")),
            "missing container for {name}"
        );
    }
    assert!(java.contains("} while (Jedd.v().notEquals"));
    // Every physical domain used in the program appears in the listing.
    for pd in ["T1", "S1", "T2", "M1"] {
        assert!(java.contains(pd), "physical domain {pd} not in listing");
    }
}

#[test]
fn compile_named_uses_filename_in_errors() {
    let src = "
        domain T { A };
        attribute x : T;
        physdom P1;
        relation <x> lonely;
        rule noop { lonely = lonely; }
    ";
    let err = jeddc::compile_named(src, "MyAnalysis.jedd").unwrap_err();
    assert!(err.to_string().contains("MyAnalysis.jedd"), "{err}");
}
