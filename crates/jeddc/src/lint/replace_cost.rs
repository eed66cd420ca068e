//! The replace-cost advisory: static accounting of the `replace`
//! operations a physical-domain assignment forces (§3.3.2's broken
//! assignment edges), plus a what-if search over declaration ascriptions
//! that would remove some of them.
//!
//! Every forced replace site gets a [`Severity::Note`]. On top of that,
//! the pass re-pins one declared `(variable, attribute)` ascription at a
//! time to the physical domain on the far side of one of its broken
//! edges, re-solves the constraint problem, and recounts; if some re-pin
//! strictly lowers the forced-site count, the best one is reported as a
//! [`Severity::Warning`] with the concrete ascription change.

use crate::assignc::Assignment;
use crate::check::{AttrIdx, TypedProgram, VarIdx};
use crate::diag::{Diagnostic, Severity};
use jedd_core::assign::{AssignmentProblem, OccId, PhysId, Solution};
use std::collections::HashMap;

/// Destination label of comparison occurrences; compare sites are
/// excluded from the static count because the executor's `equals` never
/// materialises a replace for them.
const COMPARE_LABEL: &str = "Compare_expression";

/// The number of forced replace *sites* (grouped broken assignment
/// edges) in an assignment, excluding comparison destinations. This is
/// the number the executor's `replaces` counter converges to when every
/// statement runs.
pub fn static_replace_sites(assignment: &Assignment) -> usize {
    assignment
        .forced
        .iter()
        .filter(|f| f.to_label != COMPARE_LABEL)
        .count()
}

/// Counts forced sites for an arbitrary (problem, solution) pair with the
/// same grouping as [`static_replace_sites`].
fn grouped_sites(problem: &AssignmentProblem, sol: &Solution) -> usize {
    let mut groups: Vec<(jedd_core::assign::ExprId, jedd_core::assign::ExprId)> = Vec::new();
    for (a, b) in problem.broken_assignment_edges(sol) {
        let key = (problem.occ_expr(a), problem.occ_expr(b));
        if problem.expr_label(key.1) == COMPARE_LABEL {
            continue;
        }
        if !groups.contains(&key) {
            groups.push(key);
        }
    }
    groups.len()
}

/// Runs the replace-cost pass, appending diagnostics.
pub fn replace_cost(prog: &TypedProgram, assignment: &Assignment, out: &mut Vec<Diagnostic>) {
    // Per-site notes.
    for f in &assignment.forced {
        if f.to_label == COMPARE_LABEL {
            continue;
        }
        let moves = f
            .moves
            .iter()
            .map(|(a, from, to)| format!("`{a}` moves {from} -> {to}"))
            .collect::<Vec<_>>()
            .join(", ");
        out.push(Diagnostic {
            severity: Severity::Note,
            lint: Some("replace-cost"),
            pos: f.to_pos,
            message: format!(
                "physical-domain assignment forces a replace here: {moves} \
                 (value flows from {} at {})",
                f.from_label, f.from_pos
            ),
            suggestion: None,
        });
    }

    let (Some(problem), Some(sol)) = (&assignment.problem, &assignment.solution) else {
        return;
    };
    let base = grouped_sites(problem, sol);
    if base == 0 {
        return;
    }

    // Candidate re-pins: for every broken edge touching a declaration
    // occurrence, try moving that declaration to the physical domain on
    // the far side of the edge.
    let occ_to_var: HashMap<OccId, (VarIdx, AttrIdx)> =
        assignment.var_occ.iter().map(|(&k, &o)| (o, k)).collect();
    let mut candidates: Vec<(VarIdx, AttrIdx, OccId, PhysId)> = Vec::new();
    for (a, b) in problem.broken_assignment_edges(sol) {
        for (this, other) in [(a, b), (b, a)] {
            if let Some(&(v, at)) = occ_to_var.get(&this) {
                let alt = sol.physdom_of(other);
                let cand = (v, at, this, alt);
                if !candidates.contains(&cand) {
                    candidates.push(cand);
                }
            }
        }
    }
    candidates.sort();
    candidates.truncate(8);

    let mut best: Option<(VarIdx, AttrIdx, PhysId, usize)> = None;
    for &(v, at, occ, alt) in &candidates {
        if problem.specified_physdom(occ) == Some(alt) {
            continue;
        }
        let mut alt_problem = problem.clone();
        alt_problem.respecify(occ, alt);
        let Ok(alt_sol) = alt_problem.solve() else {
            continue;
        };
        let count = grouped_sites(&alt_problem, &alt_sol);
        if count < base && best.as_ref().is_none_or(|&(_, _, _, c)| count < c) {
            best = Some((v, at, alt, count));
        }
    }

    if let Some((v, at, alt, count)) = best {
        let var = &prog.vars[v as usize];
        let attr = &prog.attributes[at as usize].name;
        let alt_name = problem.physdom_name(alt);
        let current = assignment
            .var_pd
            .get(&(v, at))
            .map(|&pd| assignment.physdom_names[pd as usize].as_str())
            .unwrap_or("?");
        let removed = base - count;
        out.push(Diagnostic {
            severity: Severity::Warning,
            lint: Some("replace-cost"),
            pos: var.pos,
            message: format!(
                "moving attribute `{attr}` of relation `{}` from {current} to {alt_name} \
                 removes {removed} of {base} forced replace(s)",
                var.name
            ),
            suggestion: Some(format!(
                "declare `{}` with `<{attr}:{alt_name}, ...>`",
                var.name
            )),
        });
    }
}
