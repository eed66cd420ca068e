//! Syntactic detection of relational operations that provably do
//! nothing: identity casts, renames of an attribute to itself, set
//! operations against the `0B`/`1B` constants, and chains of projection
//! casts that could be a single cast.

use crate::ast::SetOp;
use crate::check::{TCond, TExpr, TExprKind, TRule, TStmt, TypedProgram};
use crate::diag::{Diagnostic, Severity};

/// Runs the redundant-op pass over one rule, appending diagnostics.
pub fn redundant_ops(prog: &TypedProgram, rule: &TRule, out: &mut Vec<Diagnostic>) {
    for s in &rule.body {
        stmt(prog, s, out);
    }
}

fn stmt(prog: &TypedProgram, s: &TStmt, out: &mut Vec<Diagnostic>) {
    match s {
        TStmt::Local { init, .. } => {
            if let Some(e) = init {
                expr(prog, e, out);
            }
        }
        TStmt::Assign { expr: e, .. } => expr(prog, e, out),
        TStmt::DoWhile { body, cond } => {
            for s in body {
                stmt(prog, s, out);
            }
            cond_expr(prog, cond, out);
        }
        TStmt::While { cond, body } => {
            cond_expr(prog, cond, out);
            for s in body {
                stmt(prog, s, out);
            }
        }
        TStmt::If {
            cond,
            then_body,
            else_body,
        } => {
            cond_expr(prog, cond, out);
            for s in then_body.iter().chain(else_body) {
                stmt(prog, s, out);
            }
        }
    }
}

fn cond_expr(prog: &TypedProgram, c: &TCond, out: &mut Vec<Diagnostic>) {
    expr(prog, &c.left, out);
    expr(prog, &c.right, out);
}

fn warn(out: &mut Vec<Diagnostic>, pos: crate::diag::Pos, message: String, suggestion: String) {
    out.push(Diagnostic {
        severity: Severity::Warning,
        lint: Some("redundant-op"),
        pos,
        message,
        suggestion: Some(suggestion),
    });
}

fn expr(prog: &TypedProgram, e: &TExpr, out: &mut Vec<Diagnostic>) {
    match &e.kind {
        TExprKind::Var(_) | TExprKind::Empty | TExprKind::Full | TExprKind::Literal(_) => {}
        TExprKind::Replace {
            operand,
            projects,
            renames,
            copies,
        } => {
            for &(f, t) in renames {
                if f == t {
                    let a = &prog.attributes[f as usize].name;
                    warn(
                        out,
                        e.pos,
                        format!("rename of attribute `{a}` to itself has no effect"),
                        format!("drop `{a}=>{a}` from the cast"),
                    );
                }
            }
            if projects.is_empty() && copies.is_empty() && renames.iter().all(|&(f, t)| f == t) {
                warn(
                    out,
                    e.pos,
                    "replacement cast does not change the schema".to_string(),
                    "remove the cast".to_string(),
                );
            }
            if !projects.is_empty() && renames.is_empty() && copies.is_empty() {
                if let TExprKind::Replace {
                    projects: inner_projects,
                    renames: inner_renames,
                    copies: inner_copies,
                    ..
                } = &operand.kind
                {
                    if !inner_projects.is_empty()
                        && inner_renames.is_empty()
                        && inner_copies.is_empty()
                    {
                        warn(
                            out,
                            e.pos,
                            "consecutive projection casts can be a single cast".to_string(),
                            "merge both projection lists into one cast".to_string(),
                        );
                    }
                }
            }
            expr(prog, operand, out);
        }
        TExprKind::JoinLike { left, right, .. } => {
            expr(prog, left, out);
            expr(prog, right, out);
        }
        TExprKind::SetOp { op, left, right } => {
            match (op, &left.kind, &right.kind) {
                (SetOp::Union, TExprKind::Empty, _) | (SetOp::Union, _, TExprKind::Empty) => {
                    warn(
                        out,
                        e.pos,
                        "union with `0B` has no effect".to_string(),
                        "use the other operand directly".to_string(),
                    );
                }
                (SetOp::Union, _, TExprKind::Full) | (SetOp::Union, TExprKind::Full, _) => {
                    warn(
                        out,
                        e.pos,
                        "union with `1B` is always `1B`".to_string(),
                        "replace the whole expression with `1B`".to_string(),
                    );
                }
                (SetOp::Intersect, TExprKind::Full, _) | (SetOp::Intersect, _, TExprKind::Full) => {
                    warn(
                        out,
                        e.pos,
                        "intersection with `1B` has no effect".to_string(),
                        "use the other operand directly".to_string(),
                    );
                }
                (SetOp::Intersect, TExprKind::Empty, _)
                | (SetOp::Intersect, _, TExprKind::Empty) => {
                    warn(
                        out,
                        e.pos,
                        "intersection with `0B` is always `0B`".to_string(),
                        "replace the whole expression with `0B`".to_string(),
                    );
                }
                (SetOp::Minus, _, TExprKind::Empty) => {
                    warn(
                        out,
                        e.pos,
                        "subtracting `0B` has no effect".to_string(),
                        "use the left operand directly".to_string(),
                    );
                }
                (SetOp::Minus, TExprKind::Empty, _) => {
                    warn(
                        out,
                        e.pos,
                        "subtracting from `0B` is always `0B`".to_string(),
                        "replace the whole expression with `0B`".to_string(),
                    );
                }
                (SetOp::Minus, _, TExprKind::Full) => {
                    warn(
                        out,
                        e.pos,
                        "subtracting `1B` is always `0B`".to_string(),
                        "replace the whole expression with `0B`".to_string(),
                    );
                }
                _ => {}
            }
            expr(prog, left, out);
            expr(prog, right, out);
        }
    }
}
