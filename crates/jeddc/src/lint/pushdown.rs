//! The projection push-down advisory: a projection cast applied to the
//! result of a join can often run earlier — either fused into the join
//! itself (when the projected attributes are exactly the compared ones,
//! the combination *is* the paper's `<>` compose, implemented as the
//! single BDD `relprod`/`and_exists` operation) or pushed into the
//! operand that owns the attribute, shrinking the intermediate result.

use crate::check::{AttrIdx, TCond, TExpr, TExprKind, TRule, TStmt, TypedProgram};
use crate::diag::{Diagnostic, Severity};

/// Runs the push-down pass over one rule, appending diagnostics.
pub fn pushdown(prog: &TypedProgram, rule: &TRule, out: &mut Vec<Diagnostic>) {
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

fn expr(prog: &TypedProgram, e: &TExpr, out: &mut Vec<Diagnostic>) {
    if let TExprKind::Replace {
        operand, projects, ..
    } = &e.kind
    {
        if !projects.is_empty() {
            if let TExprKind::JoinLike {
                left,
                left_attrs,
                right,
                right_attrs,
                is_join: true,
            } = &operand.kind
            {
                report(prog, e, projects, left, left_attrs, right, right_attrs, out);
            }
        }
    }
    match &e.kind {
        TExprKind::Var(_) | TExprKind::Empty | TExprKind::Full | TExprKind::Literal(_) => {}
        TExprKind::Replace { operand, .. } => expr(prog, operand, out),
        TExprKind::JoinLike { left, right, .. } | TExprKind::SetOp { left, right, .. } => {
            expr(prog, left, out);
            expr(prog, right, out);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn report(
    prog: &TypedProgram,
    cast: &TExpr,
    projects: &[AttrIdx],
    left: &TExpr,
    left_attrs: &[AttrIdx],
    right: &TExpr,
    right_attrs: &[AttrIdx],
    out: &mut Vec<Diagnostic>,
) {
    let compared: Vec<AttrIdx> = left_attrs.iter().chain(right_attrs).copied().collect();
    let name = |a: AttrIdx| prog.attributes[a as usize].name.clone();

    // All compared attributes projected away right after the join: the
    // pair is exactly a compose, which fuses the projection into the
    // single relprod BDD operation.
    let all_compared_projected = compared.iter().all(|a| projects.contains(a));
    if all_compared_projected && projects.iter().all(|a| compared.contains(a)) {
        out.push(Diagnostic {
            severity: Severity::Warning,
            lint: Some("projection-pushdown"),
            pos: cast.pos,
            message: "projecting the compared attributes away after a join is a compose"
                .to_string(),
            suggestion: Some(
                "use `<>` instead of `><` and drop the projection cast; the projection \
                 then runs inside the join's relprod"
                    .to_string(),
            ),
        });
        return;
    }

    // Attributes projected away that were never compared belong to one
    // operand only; projecting them before the join shrinks the
    // intermediate relation the join builds.
    for &a in projects {
        if compared.contains(&a) {
            continue;
        }
        let side = if left.schema.contains(&a) {
            Some(("left", left))
        } else if right.schema.contains(&a) {
            Some(("right", right))
        } else {
            None
        };
        if let Some((which, _)) = side {
            out.push(Diagnostic {
                severity: Severity::Warning,
                lint: Some("projection-pushdown"),
                pos: cast.pos,
                message: format!(
                    "attribute `{}` is projected away immediately after the join",
                    name(a)
                ),
                suggestion: Some(format!(
                    "project `{}` from the {which} operand before joining to shrink the \
                     intermediate result",
                    name(a)
                )),
            });
        }
    }
}
