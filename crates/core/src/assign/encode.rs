//! SAT encoding of the physical-domain-assignment problem (paper §3.3.2,
//! clause types 1–7) and unsat-core-based error reporting (§3.3.3).

use super::paths::enumerate_flow_paths;
use super::problem::{AssignError, AssignmentProblem, AssignmentStats, OccId, PhysId, Solution};
use jedd_sat::{Lit, SatOutcome, Solver, Var};
use std::time::Instant;

/// Clause provenance tags, mirroring the seven clause types of §3.3.2.
/// Tag 4 (conflict) carries enough detail to produce the paper's error
/// message.
#[derive(Clone, Debug, PartialEq, Eq)]
enum ClauseTag {
    /// 1: each occurrence gets some physical domain.
    AtLeastOne(OccId),
    /// 2: no occurrence gets two physical domains.
    AtMostOne(OccId),
    /// 3: specified occurrences get their specified domain.
    Specified(OccId),
    /// 4: conflicting occurrences avoid sharing each physical domain.
    Conflict(OccId, OccId, PhysId),
    /// 5: equality-connected occurrences share every physical domain.
    Equality(OccId, OccId),
    /// 6: at least one flow path to each occurrence is active.
    FlowExists(OccId),
    /// 7: an active flow path assigns its domain to every occurrence on it.
    FlowImplies(OccId),
}

impl AssignmentProblem {
    /// Solves the physical-domain-assignment problem.
    ///
    /// # Errors
    ///
    /// * [`AssignError::Unreachable`] when an occurrence has no flow path
    ///   from any specified occurrence (detected while constructing the
    ///   SAT input, as in the paper);
    /// * [`AssignError::Conflict`] when the SAT instance is
    ///   unsatisfiable — the conflict clause found in the unsat core is
    ///   converted into the paper's diagnostic format.
    // `AssignError` inlines the full §3.3.3 diagnostic (file, expression
    // labels, attribute names) and is built only on the cold error path.
    #[allow(clippy::result_large_err)]
    pub fn solve(&self) -> Result<Solution, AssignError> {
        let start = Instant::now();
        let n_occs = self.num_occurrences();
        let n_phys = self.num_physdoms();
        let (paths, by_endpoint) = enumerate_flow_paths(self);

        // Pre-check for clause type 6 being unconstructible.
        for (o, endpoint_paths) in by_endpoint.iter().enumerate() {
            if endpoint_paths.is_empty() {
                let occ = OccId(o as u32);
                let e = self.occ_expr(occ);
                return Err(AssignError::Unreachable {
                    file: self.file.clone(),
                    expr: self.expr_label(e).to_string(),
                    pos: self.expr_pos(e),
                    attr: self.occ_attr(occ).to_string(),
                });
            }
        }

        let mut solver = Solver::new();
        let mut tags: Vec<ClauseTag> = Vec::new();
        let mut literals = 0usize;
        // Variables e_a:p, dense layout occ * n_phys + p.
        let xvars: Vec<Var> = solver.new_vars(n_occs * n_phys);
        let x = |o: OccId, p: PhysId| xvars[o.0 as usize * n_phys + p.0 as usize];
        // One variable per flow path.
        let pivars: Vec<Var> = solver.new_vars(paths.len());

        let mut add =
            |solver: &mut Solver, tags: &mut Vec<ClauseTag>, lits: &[Lit], tag: ClauseTag| {
                solver.add_clause(lits);
                tags.push(tag);
                literals += lits.len();
            };

        // 1. Each attribute is assigned to some physical domain.
        for o in 0..n_occs {
            let occ = OccId(o as u32);
            let lits: Vec<Lit> = (0..n_phys)
                .map(|p| x(occ, PhysId(p as u32)).positive())
                .collect();
            add(&mut solver, &mut tags, &lits, ClauseTag::AtLeastOne(occ));
        }
        // 2. No attribute is assigned to multiple physical domains.
        for o in 0..n_occs {
            let occ = OccId(o as u32);
            for p1 in 0..n_phys {
                for p2 in (p1 + 1)..n_phys {
                    add(
                        &mut solver,
                        &mut tags,
                        &[
                            x(occ, PhysId(p1 as u32)).negative(),
                            x(occ, PhysId(p2 as u32)).negative(),
                        ],
                        ClauseTag::AtMostOne(occ),
                    );
                }
            }
        }
        // 3. Specified assignments hold.
        for &(occ, phys) in &self.specified {
            add(
                &mut solver,
                &mut tags,
                &[x(occ, phys).positive()],
                ClauseTag::Specified(occ),
            );
        }
        // 4. Conflict edges: all pairs within each expression.
        for e in &self.exprs {
            for (i, &a) in e.occs.iter().enumerate() {
                for &b in &e.occs[i + 1..] {
                    for p in 0..n_phys {
                        let phys = PhysId(p as u32);
                        add(
                            &mut solver,
                            &mut tags,
                            &[x(a, phys).negative(), x(b, phys).negative()],
                            ClauseTag::Conflict(a, b, phys),
                        );
                    }
                }
            }
        }
        // 5. Equality edges share every physical domain.
        for &(a, b) in &self.equality {
            for p in 0..n_phys {
                let phys = PhysId(p as u32);
                add(
                    &mut solver,
                    &mut tags,
                    &[x(a, phys).negative(), x(b, phys).positive()],
                    ClauseTag::Equality(a, b),
                );
                add(
                    &mut solver,
                    &mut tags,
                    &[x(a, phys).positive(), x(b, phys).negative()],
                    ClauseTag::Equality(a, b),
                );
            }
        }
        // 6. At least one flow path to each occurrence is active.
        for (o, endpoint_paths) in by_endpoint.iter().enumerate() {
            let occ = OccId(o as u32);
            let lits: Vec<Lit> = endpoint_paths
                .iter()
                .map(|&pi| pivars[pi].positive())
                .collect();
            add(&mut solver, &mut tags, &lits, ClauseTag::FlowExists(occ));
        }
        // 7. Active flow paths force their physical domain along the path.
        for (pi, path) in paths.iter().enumerate() {
            for &occ in &path.occs {
                add(
                    &mut solver,
                    &mut tags,
                    &[pivars[pi].negative(), x(occ, path.phys).positive()],
                    ClauseTag::FlowImplies(occ),
                );
            }
        }

        let mut stats = AssignmentStats {
            exprs: self.num_exprs(),
            attrs: n_occs,
            physdoms: n_phys,
            conflict: self.num_conflict_edges(),
            equality: self.num_equality_edges(),
            assignment: self.num_assignment_edges(),
            sat_vars: solver.num_vars(),
            sat_clauses: solver.num_clauses(),
            sat_literals: literals,
            flow_paths: paths.len(),
            solve_seconds: 0.0,
        };

        match solver.solve() {
            SatOutcome::Sat => {
                let mut assignment: Vec<PhysId> = Vec::with_capacity(n_occs);
                for o in 0..n_occs {
                    let occ = OccId(o as u32);
                    let p = (0..n_phys)
                        .find(|&p| solver.model_value(x(occ, PhysId(p as u32))))
                        .expect("clause 1 guarantees a domain");
                    assignment.push(PhysId(p as u32));
                }
                stats.solve_seconds = start.elapsed().as_secs_f64();
                Ok(Solution { assignment, stats })
            }
            SatOutcome::Unsat => {
                // Proposition (§3.3.3): for jeddc-constructed problems,
                // every unsatisfiable core contains a conflict clause;
                // report the first one in the paper's format.
                let core = solver.unsat_core();
                let conflict = core.iter().find_map(|cid| match &tags[cid.0 as usize] {
                    ClauseTag::Conflict(a, b, p) => Some((*a, *b, *p)),
                    _ => None,
                });
                if let Some((a, b, p)) = conflict {
                    let (ea, eb) = (self.occ_expr(a), self.occ_expr(b));
                    return Err(AssignError::Conflict {
                        file: self.file.clone(),
                        expr_a: self.expr_label(ea).to_string(),
                        pos_a: self.expr_pos(ea),
                        attr_a: self.occ_attr(a).to_string(),
                        expr_b: self.expr_label(eb).to_string(),
                        pos_b: self.expr_pos(eb),
                        attr_b: self.occ_attr(b).to_string(),
                        physdom: self.physdom_name(p).to_string(),
                    });
                }
                // No conflict clause: contradictory specifications met
                // through equality chains (possible only through the raw
                // API). Report the specified occurrences in the core.
                let mut spec_occs: Vec<OccId> = core
                    .iter()
                    .filter_map(|cid| match &tags[cid.0 as usize] {
                        ClauseTag::Specified(o) => Some(*o),
                        _ => None,
                    })
                    .collect();
                spec_occs.dedup();
                let a = spec_occs.first().copied().unwrap_or(OccId(0));
                let b = spec_occs.get(1).copied().unwrap_or(a);
                let (ea, eb) = (self.occ_expr(a), self.occ_expr(b));
                Err(AssignError::Inconsistent {
                    file: self.file.clone(),
                    expr_a: self.expr_label(ea).to_string(),
                    pos_a: self.expr_pos(ea),
                    attr_a: self.occ_attr(a).to_string(),
                    expr_b: self.expr_label(eb).to_string(),
                    pos_b: self.expr_pos(eb),
                    attr_b: self.occ_attr(b).to_string(),
                })
            }
        }
    }
}
