//! `jeddlint`: static analysis and lint passes over the typed mini-Jedd
//! IR.
//!
//! Five passes run over [`crate::check::TypedProgram`] (and, when
//! available, the solved physical-domain [`crate::assignc::Assignment`]):
//!
//! * `definite-assignment` — a rule-local may be read before any store on
//!   some path (forward must-dataflow over the rule CFG);
//! * `dead-store` / `never-read` — liveness: stores whose value no path
//!   reads, and locals never read at all (backward may-dataflow);
//! * `redundant-op` — operations that provably do nothing: identity
//!   casts, self-renames, set operations against `0B`/`1B`, mergeable
//!   projection chains;
//! * `replace-cost` — the replace operations the assignment forces
//!   (§3.3.2's broken assignment edges), one note per site, plus a
//!   what-if re-solve suggesting the ascription change that removes the
//!   most;
//! * `projection-pushdown` — projections that could run earlier: fused
//!   into a join as a compose, or pushed into an operand.
//!
//! Diagnostics carry severity, lint name, position, and an optional
//! suggestion; `// jedd:allow(<lint>)` comments on the same or the
//! preceding line suppress them.

pub mod cfg;
mod flow;
mod pushdown;
mod redundant;
mod replace_cost;

use crate::assignc::Assignment;
use crate::check::TypedProgram;
use crate::diag::{Allow, Diagnostic, Severity};

pub use replace_cost::static_replace_sites;

/// The names of every lint, as used by `--deny` and `jedd:allow`.
pub const LINTS: &[&str] = &[
    "definite-assignment",
    "dead-store",
    "never-read",
    "redundant-op",
    "replace-cost",
    "projection-pushdown",
];

/// Runs every lint pass over a typed program.
///
/// The physical-domain passes (`replace-cost`) only run when an
/// `assignment` is supplied; the dataflow and syntactic passes always
/// run. Diagnostics suppressed by the program's `jedd:allow` annotations
/// are dropped, and the result is sorted by source position.
pub fn lint_program(prog: &TypedProgram, assignment: Option<&Assignment>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rule in &prog.rules {
        flow::definite_assignment(prog, rule, &mut out);
        flow::liveness(prog, rule, &mut out);
        redundant::redundant_ops(prog, rule, &mut out);
        pushdown::pushdown(prog, rule, &mut out);
    }
    if let Some(a) = assignment {
        replace_cost::replace_cost(prog, a, &mut out);
    }
    out.retain(|d| !allowed(d, &prog.allows));
    out.sort_by_key(|d| (d.pos.line, d.pos.col, d.lint, d.message.clone()));
    out
}

/// Whether an allow annotation suppresses this diagnostic: the lint names
/// match and the annotation sits on the same line as the diagnostic or on
/// the line directly above it.
fn allowed(d: &Diagnostic, allows: &[Allow]) -> bool {
    let Some(lint) = d.lint else { return false };
    allows
        .iter()
        .any(|a| a.lint == lint && (a.line == d.pos.line || a.line + 1 == d.pos.line))
}

/// Applies `--deny` selections: `warnings` promotes every warning to an
/// error; a lint name promotes that lint's diagnostics (of any severity)
/// to errors. Unknown names are ignored here — the CLI validates them.
pub fn apply_deny(diags: &mut [Diagnostic], deny: &[String]) {
    let deny_warnings = deny.iter().any(|d| d == "warnings");
    for d in diags {
        let by_name = d.lint.is_some_and(|l| deny.iter().any(|n| n == l));
        if by_name || (deny_warnings && d.severity == Severity::Warning) {
            d.severity = Severity::Error;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Pos;

    const DECLS: &str = "
        domain T { A, B };
        attribute a : T;
        attribute b : T;
        attribute c : T;
        physdom P1, P2, P3;
        relation <a:P1> ga;
        relation <a:P1, b:P2> gab;
        relation <b:P2, c:P3> gbc;
        relation <a:P1, c:P3> gac;
    ";

    fn typed(body: &str) -> TypedProgram {
        let src = format!("{DECLS} rule r {{ {body} }}");
        let prog = crate::parse::parse(&src).expect("parse");
        crate::check::check(&prog).expect("check")
    }

    fn lints_of(body: &str) -> Vec<(String, u8)> {
        lint_program(&typed(body), None)
            .into_iter()
            .map(|d| {
                (
                    d.lint.unwrap_or("?").to_string(),
                    match d.severity {
                        Severity::Note => 0,
                        Severity::Warning => 1,
                        Severity::Error => 2,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn definite_assignment_fires_on_branchy_read() {
        let diags = lint_program(
            &typed(
                "<a> x;
                 if (ga == 0B) { x = ga; } else { }
                 ga = x;",
            ),
            None,
        );
        assert!(diags.iter().any(|d| d.lint == Some("definite-assignment")));
    }

    #[test]
    fn definite_assignment_silent_when_all_paths_assign() {
        let diags = lint_program(
            &typed(
                "<a> x;
                 if (ga == 0B) { x = ga; } else { x = 0B; }
                 ga = x;",
            ),
            None,
        );
        assert!(!diags.iter().any(|d| d.lint == Some("definite-assignment")));
    }

    #[test]
    fn do_while_body_assignment_reaches_condition() {
        // The body runs before the condition, so a body-assigned local
        // read in the condition is definitely assigned.
        let diags = lint_program(
            &typed(
                "<a> x;
                 do { x = ga; ga = x; } while (x != 0B);",
            ),
            None,
        );
        assert!(!diags.iter().any(|d| d.lint == Some("definite-assignment")));
    }

    #[test]
    fn dead_store_and_never_read() {
        let ls = lints_of("<a> x = ga; x = 0B; ga = x;");
        assert!(ls.iter().any(|(l, _)| l == "dead-store"), "{ls:?}");
        let ls = lints_of("<a> unused = ga;");
        assert!(ls.iter().any(|(l, _)| l == "never-read"), "{ls:?}");
        // Loop-carried value is not a dead store.
        let ls = lints_of("<a> x = ga; do { x = x & ga; } while (x != 0B); ga = x;");
        assert!(!ls.iter().any(|(l, _)| l == "dead-store"), "{ls:?}");
    }

    #[test]
    fn redundant_setops_fire() {
        let ls = lints_of("ga = ga | 0B;");
        assert!(ls.iter().any(|(l, _)| l == "redundant-op"), "{ls:?}");
        let ls = lints_of("ga = ga & ga;");
        assert!(!ls.iter().any(|(l, _)| l == "redundant-op"), "{ls:?}");
    }

    #[test]
    fn pushdown_fires_on_join_then_project_compared() {
        let ls = lints_of("gac = (b=>) (gab {b} >< gbc {b});");
        assert!(ls.iter().any(|(l, _)| l == "projection-pushdown"), "{ls:?}");
        // The compose spelling is the suggested rewrite and is silent.
        let ls = lints_of("gac = gab {b} <> gbc {b};");
        assert!(
            !ls.iter().any(|(l, _)| l == "projection-pushdown"),
            "{ls:?}"
        );
    }

    #[test]
    fn allow_suppresses_on_same_or_next_line() {
        let src = format!("{DECLS} rule r {{\n// jedd:allow(redundant-op)\nga = ga | 0B;\n}}");
        let prog = crate::parse::parse(&src).expect("parse");
        let typed = crate::check::check(&prog).expect("check");
        let diags = lint_program(&typed, None);
        assert!(
            !diags.iter().any(|d| d.lint == Some("redundant-op")),
            "{diags:?}"
        );
    }

    #[test]
    fn replace_cost_notes_and_suggestion() {
        let src = "
            domain T { A, B };
            attribute a : T;
            attribute b : T;
            physdom P1, P2, P3;
            relation <a:P1, b:P2> r;
            relation <a:P3, b:P2> s;
            rule mv { s = r; }
        ";
        let prog = crate::parse::parse(src).expect("parse");
        let typed = crate::check::check(&prog).expect("check");
        let assignment = crate::assignc::assign(&typed, false).expect("assign");
        assert_eq!(static_replace_sites(&assignment), 1);
        let diags = lint_program(&typed, Some(&assignment));
        assert!(
            diags
                .iter()
                .any(|d| d.lint == Some("replace-cost") && d.severity == Severity::Note),
            "{diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.lint == Some("replace-cost") && d.severity == Severity::Warning),
            "{diags:?}"
        );
    }

    #[test]
    fn deny_promotes_severity() {
        let mut diags = vec![Diagnostic {
            severity: Severity::Warning,
            lint: Some("dead-store"),
            pos: Pos { line: 1, col: 1 },
            message: "m".into(),
            suggestion: None,
        }];
        apply_deny(&mut diags, &["warnings".to_string()]);
        assert_eq!(diags[0].severity, Severity::Error);
    }
}
