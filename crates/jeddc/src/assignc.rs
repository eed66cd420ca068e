//! Building the physical-domain-assignment problem from a typed program
//! (paper §3.3.2) and running it, including the automatic pinning loop
//! that plays the programmer's role in the paper's workflow (§5: "we
//! assigned just enough attributes to physical domains to allow the
//! physical domain assignment algorithm to assign the rest").

use crate::check::{AttrIdx, PdIdx, TCond, TExpr, TExprId, TExprKind, TStmt, TypedProgram, VarIdx};
use crate::diag::Pos;
use jedd_core::assign::{
    AssignError, AssignmentProblem, AssignmentStats, ExprId as PExprId, OccId, PhysId, Solution,
    SourcePos,
};
use std::collections::HashMap;

/// One replace operation the physical-domain assignment forces: all the
/// broken assignment edges between one (source expression, destination
/// expression) pair, which the executor performs as a single
/// `with_assignment` call at run time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForcedReplace {
    /// Label of the expression the value flows out of.
    pub from_label: String,
    /// Position of the source expression.
    pub from_pos: Pos,
    /// Label of the expression (or `relation <name>` declaration, or
    /// `Compare_expression`) the value flows into.
    pub to_label: String,
    /// Position of the destination expression.
    pub to_pos: Pos,
    /// `(attribute, from physdom, to physdom)` names per broken edge.
    pub moves: Vec<(String, String, String)>,
}

/// The computed attribute → physical-domain assignment for every
/// expression node and variable.
#[derive(Clone, Debug, Default)]
pub struct Assignment {
    /// Physical domain of each (expression, attribute) occurrence.
    pub expr_pd: HashMap<(TExprId, AttrIdx), PdIdx>,
    /// Physical domain of each compared-pair occurrence of a join/compose
    /// (keyed by pair index).
    pub cmp_pd: HashMap<(TExprId, usize), PdIdx>,
    /// Physical domain of each (variable, attribute).
    pub var_pd: HashMap<(VarIdx, AttrIdx), PdIdx>,
    /// Names of physical domains, including any auto-created `_A*` pins;
    /// indices beyond the program's declared physdoms are auto pins.
    pub physdom_names: Vec<String>,
    /// Interleave group per physdom (extends the declared groups with
    /// `None` for auto pins).
    pub physdom_groups: Vec<Option<u32>>,
    /// Table-1 statistics from the final successful solve.
    pub stats: AssignmentStats,
    /// Number of auto-pinned physical domains (0 when the program's own
    /// specifications sufficed).
    pub auto_pins: usize,
    /// The replace operations this assignment forces (broken assignment
    /// edges, grouped per site), for the replace-cost lint.
    pub forced: Vec<ForcedReplace>,
    /// The solved constraint problem, kept so the replace-cost advisory
    /// can re-pin a declaration and re-solve.
    pub problem: Option<AssignmentProblem>,
    /// The solution the runtime executes.
    pub solution: Option<Solution>,
    /// Problem occurrence of each (variable, attribute) declaration —
    /// the handles the advisory re-pins.
    pub var_occ: HashMap<(VarIdx, AttrIdx), OccId>,
}

struct Builder<'a> {
    prog: &'a TypedProgram,
    problem: AssignmentProblem,
    /// Problem physdom handles, aligned with program physdom indices
    /// (auto pins appended).
    phys: Vec<PhysId>,
    expr_occ: HashMap<(TExprId, AttrIdx), OccId>,
    cmp_occ: HashMap<(TExprId, usize), OccId>,
    var_occ: HashMap<(VarIdx, AttrIdx), OccId>,
    /// Problem expr of each variable declaration.
    var_expr: HashMap<VarIdx, PExprId>,
    /// Mirrors of the problem's edge and specification lists (the
    /// jedd-core problem does not expose them for reading).
    equality_edges: Vec<(OccId, OccId)>,
    assignment_edges: Vec<(OccId, OccId)>,
    specified: Vec<(OccId, PhysId)>,
}

fn to_pos(p: crate::diag::Pos) -> SourcePos {
    SourcePos {
        line: p.line,
        col: p.col,
    }
}

fn from_spos(p: SourcePos) -> Pos {
    Pos {
        line: p.line,
        col: p.col,
    }
}

impl<'a> Builder<'a> {
    fn new(prog: &'a TypedProgram) -> Builder<'a> {
        let mut problem = AssignmentProblem::new();
        let phys: Vec<PhysId> = prog
            .physdoms
            .iter()
            .map(|p| problem.add_physdom(&p.name))
            .collect();
        Builder {
            prog,
            problem,
            phys,
            expr_occ: HashMap::new(),
            cmp_occ: HashMap::new(),
            var_occ: HashMap::new(),
            var_expr: HashMap::new(),
            equality_edges: Vec::new(),
            assignment_edges: Vec::new(),
            specified: Vec::new(),
        }
    }

    fn eq_edge(&mut self, a: OccId, b: OccId) {
        self.problem.add_equality(a, b);
        self.equality_edges.push((a, b));
    }

    fn as_edge(&mut self, a: OccId, b: OccId) {
        self.problem.add_assignment(a, b);
        self.assignment_edges.push((a, b));
    }

    fn spec(&mut self, occ: OccId, p: PhysId) {
        self.problem.specify(occ, p);
        self.specified.push((occ, p));
    }

    fn build(&mut self) {
        // Variable declarations become problem expressions carrying the
        // declaration-site specifications.
        for (vi, v) in self.prog.vars.iter().enumerate() {
            let vi = vi as VarIdx;
            let e = self
                .problem
                .add_expr(&format!("relation {}", v.name), to_pos(v.pos));
            self.var_expr.insert(vi, e);
            for &(a, pd) in &v.schema {
                let name = self.prog.attributes[a as usize].name.clone();
                let occ = self.problem.add_occurrence(e, &name);
                self.var_occ.insert((vi, a), occ);
                if let Some(p) = pd {
                    let ph = self.phys[p as usize];
                    self.spec(occ, ph);
                }
            }
        }
        let rules: Vec<_> = self.prog.rules.iter().collect();
        for r in rules {
            self.build_block(&r.body);
        }
    }

    fn build_block(&mut self, body: &[TStmt]) {
        for s in body {
            match s {
                TStmt::Local { var, init, .. } => {
                    if let Some(e) = init {
                        self.build_expr(e);
                        self.connect_store(e, *var);
                    }
                }
                TStmt::Assign { var, expr, .. } => {
                    self.build_expr(expr);
                    self.connect_store(expr, *var);
                }
                TStmt::DoWhile { body, cond } => {
                    self.build_block(body);
                    self.build_cond(cond);
                }
                TStmt::While { cond, body } => {
                    self.build_cond(cond);
                    self.build_block(body);
                }
                TStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.build_cond(cond);
                    self.build_block(then_body);
                    self.build_block(else_body);
                }
            }
        }
    }

    /// Storing an expression into a variable wraps it in a dummy replace:
    /// assignment edges from the expression's attributes to the variable's.
    fn connect_store(&mut self, e: &TExpr, var: VarIdx) {
        for &a in &e.schema {
            let from = self.expr_occ[&(e.id, a)];
            let to = self.var_occ[&(var, a)];
            self.as_edge(from, to);
        }
    }

    /// A comparison requires its operands in the same physical domains:
    /// both sides get assignment edges into a compare node.
    fn build_cond(&mut self, c: &TCond) {
        self.build_expr(&c.left);
        self.build_expr(&c.right);
        let e = self
            .problem
            .add_expr("Compare_expression", to_pos(c.left.pos));
        for &a in &c.left.schema {
            let name = self.prog.attributes[a as usize].name.clone();
            let occ = self.problem.add_occurrence(e, &name);
            let l = self.expr_occ[&(c.left.id, a)];
            let r = self.expr_occ[&(c.right.id, a)];
            self.as_edge(l, occ);
            self.as_edge(r, occ);
        }
    }

    /// Registers an expression node in the problem: one occurrence per
    /// schema attribute (plus merged compared occurrences for join and
    /// compose), with the operation's equality/assignment edges.
    fn build_expr(&mut self, e: &TExpr) {
        let pe = self.problem.add_expr(e.label, to_pos(e.pos));
        for &a in &e.schema {
            let name = self.prog.attributes[a as usize].name.clone();
            let occ = self.problem.add_occurrence(pe, &name);
            self.expr_occ.insert((e.id, a), occ);
        }
        match &e.kind {
            TExprKind::Var(v) => {
                // A use shares the variable container's assignment.
                for &a in &e.schema {
                    let use_occ = self.expr_occ[&(e.id, a)];
                    let decl_occ = self.var_occ[&(*v, a)];
                    self.eq_edge(use_occ, decl_occ);
                }
            }
            TExprKind::Empty | TExprKind::Full => {
                // Constants adapt freely; their occurrences are constrained
                // only through the context edges added by the parent.
            }
            TExprKind::Literal(fields) => {
                for &(_, a, pd) in fields {
                    if let Some(p) = pd {
                        let occ = self.expr_occ[&(e.id, a)];
                        let ph = self.phys[p as usize];
                        self.spec(occ, ph);
                    }
                }
            }
            TExprKind::Replace {
                operand,
                projects,
                renames,
                copies,
            } => {
                self.build_expr(operand);
                // Kept attributes flow through a breakable boundary.
                for &a in &operand.schema {
                    if projects.contains(&a)
                        || renames.iter().any(|&(f, _)| f == a)
                        || copies.iter().any(|&(f, _, _)| f == a)
                    {
                        continue;
                    }
                    let from = self.expr_occ[&(operand.id, a)];
                    let to = self.expr_occ[&(e.id, a)];
                    self.as_edge(from, to);
                }
                for &(f, t) in renames {
                    let from = self.expr_occ[&(operand.id, f)];
                    let to = self.expr_occ[&(e.id, t)];
                    self.as_edge(from, to);
                }
                for &(f, t1, _t2) in copies {
                    // The first copy keeps the source's physical domain
                    // (breakable); the second floats and is pinned only by
                    // context and conflict edges.
                    let from = self.expr_occ[&(operand.id, f)];
                    let to1 = self.expr_occ[&(e.id, t1)];
                    self.as_edge(from, to1);
                }
            }
            TExprKind::JoinLike {
                left,
                left_attrs,
                right,
                right_attrs,
                is_join,
            } => {
                self.build_expr(left);
                self.build_expr(right);
                // Merged occurrences for compared pairs. For a join the
                // left compared attribute is already in the result schema;
                // for a compose we add a dedicated occurrence.
                for (i, (&la, &ra)) in left_attrs.iter().zip(right_attrs.iter()).enumerate() {
                    let merged = if *is_join {
                        self.expr_occ[&(e.id, la)]
                    } else {
                        let name = self.prog.attributes[la as usize].name.to_string();
                        let occ = self.problem.add_occurrence(pe, &name);
                        self.cmp_occ.insert((e.id, i), occ);
                        occ
                    };
                    let l = self.expr_occ[&(left.id, la)];
                    let r = self.expr_occ[&(right.id, ra)];
                    self.as_edge(l, merged);
                    self.as_edge(r, merged);
                }
                // Kept attributes.
                for &a in &left.schema {
                    if left_attrs.contains(&a) {
                        continue;
                    }
                    let from = self.expr_occ[&(left.id, a)];
                    let to = self.expr_occ[&(e.id, a)];
                    self.as_edge(from, to);
                }
                for &a in &right.schema {
                    if right_attrs.contains(&a) {
                        continue;
                    }
                    let from = self.expr_occ[&(right.id, a)];
                    let to = self.expr_occ[&(e.id, a)];
                    self.as_edge(from, to);
                }
            }
            TExprKind::SetOp { left, right, .. } => {
                self.build_expr(left);
                self.build_expr(right);
                for &a in &e.schema {
                    let to = self.expr_occ[&(e.id, a)];
                    let l = self.expr_occ[&(left.id, a)];
                    let r = self.expr_occ[&(right.id, a)];
                    self.as_edge(l, to);
                    self.as_edge(r, to);
                }
            }
        }
    }

    /// Pins one fresh physical domain per connected component that has no
    /// specified occurrence (auto mode).
    fn pin_unlabelled_components(&mut self) -> usize {
        let n = self.problem.num_occurrences();
        // Union-find over equality + assignment edges.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut r = x;
            while parent[r] != r {
                r = parent[r];
            }
            let mut c = x;
            while parent[c] != c {
                let next = parent[c];
                parent[c] = r;
                c = next;
            }
            r
        }
        let edges: Vec<(u32, u32)> = self
            .equality_edges
            .iter()
            .chain(self.assignment_edges.iter())
            .map(|&(a, b)| (a.0, b.0))
            .collect();
        for (a, b) in edges {
            let (ra, rb) = (find(&mut parent, a as usize), find(&mut parent, b as usize));
            parent[ra] = rb;
        }
        let mut specified_roots: Vec<bool> = vec![false; n];
        for &(occ, _) in &self.specified {
            let r = find(&mut parent, occ.0 as usize);
            specified_roots[r] = true;
        }
        let mut pins = 0usize;
        for o in 0..n {
            let r = find(&mut parent, o);
            if !specified_roots[r] {
                let name = format!("_A{}", self.phys.len());
                let p = self.problem.add_physdom(&name);
                self.phys.push(p);
                self.spec(OccId(o as u32), p);
                specified_roots[r] = true;
                pins += 1;
            }
        }
        pins
    }
}

/// Builds and solves the assignment problem for a typed program.
///
/// When `auto_pin` is set, components without programmer-specified
/// physical domains are pinned to fresh domains before solving, and
/// conflicts are repaired by pinning the second conflicting attribute to a
/// fresh domain — the fix the paper's §3.3.3 recommends to the programmer —
/// up to a bounded number of rounds.
///
/// # Errors
///
/// Returns the first unrecoverable [`AssignError`].
// `AssignError` inlines the full Â§3.3.3 diagnostic and is built only on
// the cold error path; see `AssignmentProblem::solve`.
#[allow(clippy::result_large_err)]
pub fn assign(prog: &TypedProgram, auto_pin: bool) -> Result<Assignment, AssignError> {
    assign_named(prog, auto_pin, "Test.jedd")
}

/// Like [`assign`], with an explicit source-file name used in error
/// messages.
///
/// # Errors
///
/// Same conditions as [`assign`].
#[allow(clippy::result_large_err)]
pub fn assign_named(
    prog: &TypedProgram,
    auto_pin: bool,
    file: &str,
) -> Result<Assignment, AssignError> {
    let mut b = Builder::new(prog);
    b.problem.set_file(file);
    b.build();
    if auto_pin {
        let pins = b.pin_unlabelled_components();
        let mut rounds = 0usize;
        loop {
            match b.problem.solve() {
                Ok(sol) => return Ok(b.to_assignment(sol, pins + rounds)),
                Err(AssignError::Conflict {
                    expr_b,
                    pos_b,
                    attr_b,
                    ..
                }) if rounds < 64 => {
                    // Pin the second conflicting attribute to a fresh
                    // domain, as the paper tells the programmer to do.
                    let Some(occ) = b.find_occ(&expr_b, pos_b, &attr_b) else {
                        return Err(AssignError::Conflict {
                            file: String::new(),
                            expr_a: String::new(),
                            pos_a: pos_b,
                            attr_a: String::new(),
                            expr_b,
                            pos_b,
                            attr_b,
                            physdom: String::new(),
                        });
                    };
                    let name = format!("_A{}", b.phys.len());
                    let p = b.problem.add_physdom(&name);
                    b.phys.push(p);
                    b.problem.specify(occ, p);
                    b.specified.push((occ, p));
                    rounds += 1;
                }
                Err(e) => return Err(e),
            }
        }
    } else {
        let sol = b.problem.solve()?;
        Ok(b.to_assignment(sol, 0))
    }
}

impl<'a> Builder<'a> {
    fn find_occ(&self, expr_label: &str, pos: SourcePos, attr: &str) -> Option<OccId> {
        for o in 0..self.problem.num_occurrences() {
            let occ = OccId(o as u32);
            let e = self.problem.occ_expr(occ);
            if self.problem.occ_attr(occ) == attr
                && self.problem.expr_label(e) == expr_label
                && self.problem.expr_pos(e).line == pos.line
                && self.problem.expr_pos(e).col == pos.col
            {
                return Some(occ);
            }
        }
        None
    }

    fn to_assignment(&self, sol: jedd_core::assign::Solution, auto_pins: usize) -> Assignment {
        let mut out = Assignment {
            auto_pins,
            stats: sol.stats(),
            ..Assignment::default()
        };
        // Forced replaces: broken assignment edges grouped by their
        // (source expression, destination expression) pair — one group
        // per runtime replace call.
        let mut groups: Vec<((PExprId, PExprId), ForcedReplace)> = Vec::new();
        for &(a, b) in &self.assignment_edges {
            let (pa, pb) = (sol.physdom_of(a), sol.physdom_of(b));
            if pa == pb {
                continue;
            }
            let key = (self.problem.occ_expr(a), self.problem.occ_expr(b));
            let mv = (
                self.problem.occ_attr(a).to_string(),
                self.problem.physdom_name(pa).to_string(),
                self.problem.physdom_name(pb).to_string(),
            );
            if let Some((_, g)) = groups.iter_mut().find(|(k, _)| *k == key) {
                g.moves.push(mv);
            } else {
                let (ea, eb) = key;
                groups.push((
                    key,
                    ForcedReplace {
                        from_label: self.problem.expr_label(ea).to_string(),
                        from_pos: from_spos(self.problem.expr_pos(ea)),
                        to_label: self.problem.expr_label(eb).to_string(),
                        to_pos: from_spos(self.problem.expr_pos(eb)),
                        moves: vec![mv],
                    },
                ));
            }
        }
        out.forced = groups.into_iter().map(|(_, g)| g).collect();
        out.var_occ = self.var_occ.clone();
        out.problem = Some(self.problem.clone());
        // Physdom names: program order + auto pins.
        for (i, p) in self.phys.iter().enumerate() {
            let _ = p;
            if i < self.prog.physdoms.len() {
                out.physdom_names.push(self.prog.physdoms[i].name.clone());
                out.physdom_groups.push(self.prog.physdoms[i].group);
            } else {
                out.physdom_names
                    .push(self.problem.physdom_name(self.phys[i]).to_string());
                out.physdom_groups.push(None);
            }
        }
        let phys_to_pd = |p: PhysId| -> PdIdx {
            self.phys
                .iter()
                .position(|&q| q == p)
                .expect("physdom registered") as PdIdx
        };
        for (&(eid, a), &occ) in &self.expr_occ {
            out.expr_pd
                .insert((eid, a), phys_to_pd(sol.physdom_of(occ)));
        }
        for (&(eid, i), &occ) in &self.cmp_occ {
            out.cmp_pd.insert((eid, i), phys_to_pd(sol.physdom_of(occ)));
        }
        for (&(v, a), &occ) in &self.var_occ {
            out.var_pd.insert((v, a), phys_to_pd(sol.physdom_of(occ)));
        }
        out.solution = Some(sol);
        out
    }
}
