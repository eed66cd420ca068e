//! Static typing tests: one positive and at least one negative test per
//! rule of the paper's Fig. 6, enforced by the jeddc checker.

use jeddc::{compile, JeddcError};

/// Shared declarations for the typing tests.
const DECLS: &str = "
    domain T { A, B };
    domain U { X };
    attribute a : T;
    attribute b : T;
    attribute c : T;
    attribute d : T;
    attribute u : U;
    physdom P1, P2, P3;
    relation <a:P1> ra;
    relation <a:P1, b:P2> rab;
    relation <a:P1, b:P2, c:P3> rabc;
    relation <b:P1> rb;
    relation <c:P1, d:P2> rcd;
    relation <u:P3> ru;
";

fn with_rule(body: &str) -> String {
    format!("{DECLS}\nrule t {{ {body} }}")
}

fn compile_err(body: &str) -> String {
    match compile(&with_rule(body)) {
        Err(JeddcError::Compile(e)) => e.message,
        Err(JeddcError::Assign(e)) => panic!("expected a type error, got assignment error: {e}"),
        Ok(_) => panic!("expected a type error for `{body}`"),
    }
}

fn compile_ok(body: &str) {
    if let Err(e) = compile(&with_rule(body)) {
        panic!("`{body}` should type check, got: {e}");
    }
}

// --- [Literal] -------------------------------------------------------

#[test]
fn literal_accepts_distinct_attributes() {
    compile_ok("rab = new { A => a, B => b };");
}

#[test]
fn literal_rejects_duplicate_attribute() {
    let msg = compile_err("rab = new { A => a, B => a };");
    assert!(msg.contains("twice"), "{msg}");
}

#[test]
fn literal_rejects_unknown_element() {
    let msg = compile_err("ra = new { Z => a };");
    assert!(msg.contains("not an element"), "{msg}");
}

// --- [Project] -------------------------------------------------------

#[test]
fn project_removes_attribute() {
    compile_ok("ra = (b=>) rab;");
}

#[test]
fn project_requires_attribute_in_schema() {
    let msg = compile_err("rab = (c=>) rab;");
    assert!(msg.contains("not in operand schema"), "{msg}");
}

// --- [Rename] --------------------------------------------------------

#[test]
fn rename_swaps_attribute() {
    compile_ok("rb = (a=>b) ra;");
}

#[test]
fn rename_rejects_target_already_present() {
    // (a=>b) on <a, b> would duplicate b.
    let msg = compile_err("rab = (a=>b) rab;");
    assert!(msg.contains("already present"), "{msg}");
}

#[test]
fn rename_rejects_cross_domain_target() {
    let msg = compile_err("ru = (a=>u) ra;");
    assert!(msg.contains("different domains"), "{msg}");
}

#[test]
fn simultaneous_renames_may_exchange() {
    // (a=>b, b=>a) is legal: replacements are simultaneous.
    compile_ok("rab = (a=>b, b=>a) rab;");
}

// --- [Copy] ----------------------------------------------------------

#[test]
fn copy_duplicates_attribute() {
    compile_ok("rab = (a=>a b) ra;");
}

#[test]
fn copy_rejects_equal_targets() {
    let msg = compile_err("rab = (a=>b b) ra;");
    assert!(msg.contains("already present"), "{msg}");
}

#[test]
fn copy_rejects_target_clash_with_schema() {
    let msg = compile_err("rabc = (a=>b c) rab;");
    assert!(msg.contains("already present"), "{msg}");
}

// --- [SetOp] ---------------------------------------------------------

#[test]
fn setop_same_schema_ok() {
    compile_ok("rab = rab | rab & rab - rab;");
}

#[test]
fn setop_rejects_schema_mismatch() {
    let msg = compile_err("rab = rab | ra;");
    assert!(msg.contains("schema mismatch"), "{msg}");
}

#[test]
fn setop_constants_adapt() {
    compile_ok("rab = rab | 0B;");
    compile_ok("rab = 0B | rab;");
    compile_ok("rab = rab & 1B;");
}

// --- [Assign] --------------------------------------------------------

#[test]
fn assign_same_schema_ok() {
    compile_ok("rab = rab;");
    compile_ok("rab |= rab;");
    compile_ok("rab &= rab;");
    compile_ok("rab -= rab;");
}

#[test]
fn assign_rejects_schema_mismatch() {
    let msg = compile_err("ra = rab;");
    assert!(msg.contains("schema mismatch"), "{msg}");
}

#[test]
fn assign_constant_ok() {
    compile_ok("rab = 0B; rab = 1B;");
}

// --- [Compare] -------------------------------------------------------

#[test]
fn compare_same_schema_ok() {
    compile_ok("if (rab == rab) { ra = ra; }");
    compile_ok("if (rab != 0B) { ra = ra; }");
    compile_ok("if (0B != rab) { ra = ra; }");
}

#[test]
fn compare_rejects_schema_mismatch() {
    let msg = compile_err("if (rab == ra) { ra = ra; }");
    assert!(msg.contains("schema mismatch"), "{msg}");
}

#[test]
fn compare_two_constants_needs_context() {
    let msg = compile_err("if (0B == 1B) { ra = ra; }");
    assert!(msg.contains("cannot infer"), "{msg}");
}

// --- [Join] ----------------------------------------------------------

#[test]
fn join_keeps_compared_attributes() {
    // rab{b} >< rcd{c}: result <a, b, d>.
    compile_ok("<a:P1, b:P2, d:P3> j = rab {b} >< rcd {c};");
}

#[test]
fn join_rejects_unequal_list_lengths() {
    let msg = compile_err("<a:P1, b:P2, d:P3> j = rab {b} >< rcd {c, d};");
    assert!(msg.contains("different lengths"), "{msg}");
}

#[test]
fn join_rejects_missing_attribute() {
    let msg = compile_err("<a:P1, b:P2, d:P3> j = rab {c} >< rcd {c};");
    assert!(msg.contains("not in operand schema"), "{msg}");
}

#[test]
fn join_rejects_duplicate_compared() {
    let msg = compile_err("<a:P1, b:P2, d:P3> j = rab {b, b} >< rcd {c, d};");
    assert!(msg.contains("compared twice"), "{msg}");
}

#[test]
fn join_rejects_overlapping_result() {
    // Both sides keep `a`.
    let msg = compile_err("<a:P1, b:P2> j = rab {b} >< rab {b};");
    assert!(msg.contains("share attributes"), "{msg}");
}

#[test]
fn join_rejects_cross_domain_comparison() {
    let msg = compile_err("<a:P1, b:P2> j = rab {b} >< ru {u};");
    assert!(msg.contains("different domains"), "{msg}");
}

// --- [Compose] -------------------------------------------------------

#[test]
fn compose_projects_compared_attributes() {
    // rab{b} <> rcd{c}: result <a, d>. As in any BDD relational product,
    // the compared attribute needs a physical domain distinct from every
    // kept attribute, so it is staged onto P3 first.
    compile_ok("<a:P1, b:P3> hop = rab; <a:P1, d:P2> j = hop {b} <> rcd {c};");
}

#[test]
fn compose_without_a_free_domain_is_an_assignment_conflict() {
    // Without the staging, the merged attribute has only P1/P2 reachable,
    // both taken by kept attributes: a *conflict*, not a type error —
    // reported in the paper's §3.3.3 format.
    let err = compile(&with_rule("<a:P1, d:P2> j = rab {b} <> rcd {c};")).unwrap_err();
    let JeddcError::Assign(e) = err else {
        panic!("expected an assignment conflict")
    };
    assert!(e.to_string().contains("Conflict between"), "{e}");
}

#[test]
fn compose_rejects_overlap_of_kept_attributes() {
    // rabc{c} <> rcd{c} keeps a,b / d — fine; but rab{a} <> rab{a} keeps
    // b on both sides.
    let msg = compile_err("<b:P1> j = rab {a} <> rab {a};");
    assert!(msg.contains("share attributes"), "{msg}");
}

// --- name resolution and structure ------------------------------------

#[test]
fn unknown_relation_reported() {
    let msg = compile_err("nosuch = ra;");
    assert!(msg.contains("unknown relation"), "{msg}");
}

#[test]
fn unknown_attribute_in_schema_reported() {
    let err = compile(&format!("{DECLS}\nrelation <zz:P1> bad;")).unwrap_err();
    assert!(err.to_string().contains("unknown attribute"), "{err}");
}

#[test]
fn duplicate_rule_rejected() {
    let err = compile(&format!("{DECLS}\nrule r {{ ra = ra; }}\nrule r {{ ra = ra; }}"))
        .unwrap_err();
    assert!(err.to_string().contains("duplicate rule"), "{err}");
}

#[test]
fn locals_shadow_globals() {
    compile_ok("<a:P2> ra = 0B; ra = ra | new { A => a };");
}

#[test]
fn local_initialiser_must_match_declared_schema() {
    let msg = compile_err("<a:P1, b:P2> x = ra;");
    assert!(msg.contains("schema mismatch"), "{msg}");
}

// --- multi-error accumulation ----------------------------------------

#[test]
fn check_all_reports_every_independent_error() {
    let src = with_rule(
        "ra = nosuch;\n        rab = ra;\n        <a:P1> x = rb;\n        x = new { A => a };",
    );
    let prog = jeddc::parse::parse(&src).unwrap();
    let errs = jeddc::check::check_all(&prog).unwrap_err();
    // Three independent errors: the unknown relation, the ra/rab schema
    // mismatch, and the x/rb initialiser mismatch. The final statement
    // (a correct use of the recovered local `x`) adds none.
    assert_eq!(errs.len(), 3, "{errs:?}");
    assert!(errs[0].message.contains("unknown relation `nosuch`"), "{errs:?}");
    assert!(errs[1].message.contains("schema mismatch"), "{errs:?}");
    assert!(errs[2].message.contains("schema mismatch"), "{errs:?}");
    // Errors come back in source order.
    assert!(errs[0].pos.line < errs[1].pos.line && errs[1].pos.line < errs[2].pos.line);
}

#[test]
fn check_first_error_matches_check_all_head() {
    let src = with_rule("ra = nosuch;\n        rab = ra;");
    let prog = jeddc::parse::parse(&src).unwrap();
    let first = jeddc::check::check(&prog).unwrap_err();
    let all = jeddc::check::check_all(&prog).unwrap_err();
    assert_eq!(first, all[0]);
    assert_eq!(all.len(), 2);
}

#[test]
fn bad_local_schema_does_not_cascade() {
    // The local with the unknown attribute is still declared, so the
    // statement using it reports a mismatch against the empty schema
    // rather than an `unknown relation` storm.
    let src = with_rule("<zz:P1> x = 0B;\n        ra = ra;");
    let prog = jeddc::parse::parse(&src).unwrap();
    let errs = jeddc::check::check_all(&prog).unwrap_err();
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert!(errs[0].message.contains("unknown attribute `zz`"), "{errs:?}");
}

// --- domain declarations ---------------------------------------------

#[test]
fn zero_size_domain_is_rejected_at_its_declaration() {
    // An empty domain used to compile and then panic in the executor
    // when the universe registered it.
    let src = "domain T 2;\ndomain D 0;\nattribute d : D;\nphysdom P1;\nrelation <d:P1> r;";
    let prog = jeddc::parse::parse(src).unwrap();
    let errs = jeddc::check::check_all(&prog).unwrap_err();
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert!(
        errs[0].message.contains("domain `D` must contain at least one object"),
        "{errs:?}"
    );
    assert_eq!((errs[0].pos.line, errs[0].pos.col), (2, 1));
    assert!(matches!(compile(src), Err(JeddcError::Compile(_))));
}
