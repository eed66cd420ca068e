//! The static half of jeddc's semi-naive statements.
//!
//! The executor keeps a memo for every `Local` initialiser and `Assign`
//! statement: the relations it last read and the relation it last wrote.
//! When every input only grew since then, the statement re-runs on the
//! inputs' deltas alone — provided its expression is linear in the grown
//! inputs. This module computes, once per compiled program, what that
//! decision needs from the program text: the variables every expression
//! node reads, and which statements can ever take the delta path
//! (DESIGN.md, "jeddc semi-naive statements").

use crate::ast::{AssignOp, SetOp};
use crate::check::{TExpr, TExprId, TExprKind, TStmt, TypedProgram, VarIdx};
use crate::diag::Pos;
use std::fmt;

/// Why one execution of a statement took the full path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fallback {
    /// The statement had not run before.
    FirstRun,
    /// An input lost tuples since the statement last read it.
    InputShrank,
    /// A `|=` target no longer contains what the statement last wrote.
    /// (An `=` statement adds its deltas to its own last write instead,
    /// so a rewritten `=` target never forces a full run.)
    TargetRewritten,
    /// The grown inputs meet in a join, compose or intersect, or one
    /// sits on the right of a minus.
    Nonlinear,
    /// The statement is a `-=` or `&=`, which can remove tuples.
    NotMonotone,
}

impl Fallback {
    /// The reason's position in declaration order, which indexes
    /// [`crate::StmtStats::fallbacks`].
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Fallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Fallback::FirstRun => "first run",
            Fallback::InputShrank => "input shrank",
            Fallback::TargetRewritten => "target rewritten",
            Fallback::Nonlinear => "nonlinear",
            Fallback::NotMonotone => "-=/&=",
        })
    }
}

/// One memoised statement: a `Local` with an initialiser (treated as
/// `=`) or an `Assign`.
#[derive(Clone, Debug, PartialEq)]
pub struct StmtPlan {
    /// The rule the statement belongs to.
    pub rule: String,
    /// Source position of the statement.
    pub pos: Pos,
    /// The variable it writes.
    pub target: VarIdx,
    /// Its operator; a `Local` initialiser is [`AssignOp::Set`].
    pub op: AssignOp,
    /// `None` if the statement runs on deltas whenever its only grown
    /// input is a suitable one; otherwise the reason it never does
    /// ([`Fallback::NotMonotone`] or [`Fallback::Nonlinear`]).
    pub never_delta: Option<Fallback>,
}

/// Per-expression read sets and per-statement delta eligibility of a
/// typed program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeltaPlan {
    /// The variables each expression node reads, sorted; indexed by
    /// expression id.
    reads: Vec<Vec<VarIdx>>,
    /// Statement index by expression id, for right-hand expressions.
    stmt_of: Vec<Option<u32>>,
    /// Every memoised statement, rule by rule in source order.
    pub statements: Vec<StmtPlan>,
}

impl DeltaPlan {
    /// Computes the plan of a typed program.
    pub fn build(typed: &TypedProgram) -> DeltaPlan {
        let n = typed.num_exprs as usize;
        let mut plan = DeltaPlan {
            reads: vec![Vec::new(); n],
            stmt_of: vec![None; n],
            statements: Vec::new(),
        };
        for rule in &typed.rules {
            plan.add_block(&rule.name, &rule.body);
        }
        plan
    }

    fn add_block(&mut self, rule: &str, body: &[TStmt]) {
        for s in body {
            match s {
                TStmt::Local {
                    var,
                    init: Some(e),
                    pos,
                } => self.add_statement(rule, *pos, *var, AssignOp::Set, e),
                TStmt::Local { init: None, .. } => {}
                TStmt::Assign { var, op, expr, pos } => {
                    self.add_statement(rule, *pos, *var, *op, expr)
                }
                TStmt::DoWhile { body, cond } | TStmt::While { cond, body } => {
                    self.add_reads(&cond.left);
                    self.add_reads(&cond.right);
                    self.add_block(rule, body);
                }
                TStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.add_reads(&cond.left);
                    self.add_reads(&cond.right);
                    self.add_block(rule, then_body);
                    self.add_block(rule, else_body);
                }
            }
        }
    }

    fn add_statement(&mut self, rule: &str, pos: Pos, target: VarIdx, op: AssignOp, e: &TExpr) {
        self.add_reads(e);
        let never_delta = if matches!(op, AssignOp::Intersect | AssignOp::Minus) {
            Some(Fallback::NotMonotone)
        } else if !self.reads(e.id).is_empty()
            && !self.reads(e.id).iter().any(|&v| self.linear(e, &[v]))
        {
            Some(Fallback::Nonlinear)
        } else {
            None
        };
        self.stmt_of[e.id as usize] = Some(self.statements.len() as u32);
        self.statements.push(StmtPlan {
            rule: rule.to_string(),
            pos,
            target,
            op,
            never_delta,
        });
    }

    /// Fills in the read sets of `e` and its subexpressions.
    fn add_reads(&mut self, e: &TExpr) {
        let reads = match &e.kind {
            TExprKind::Var(v) => vec![*v],
            TExprKind::Empty | TExprKind::Full | TExprKind::Literal(_) => Vec::new(),
            TExprKind::Replace { operand, .. } => {
                self.add_reads(operand);
                self.reads(operand.id).to_vec()
            }
            TExprKind::JoinLike { left, right, .. } | TExprKind::SetOp { left, right, .. } => {
                self.add_reads(left);
                self.add_reads(right);
                let mut both = self.reads(left.id).to_vec();
                both.extend_from_slice(self.reads(right.id));
                both.sort_unstable();
                both.dedup();
                both
            }
        };
        self.reads[e.id as usize] = reads;
    }

    /// The variables expression `e` reads, sorted.
    pub(crate) fn reads(&self, e: TExprId) -> &[VarIdx] {
        &self.reads[e as usize]
    }

    /// Whether expression `e` reads any of `vars`.
    pub(crate) fn touches(&self, e: TExprId, vars: &[VarIdx]) -> bool {
        self.reads(e).iter().any(|v| vars.contains(v))
    }

    /// The statement whose right-hand expression is `e`.
    pub(crate) fn statement_of(&self, e: TExprId) -> Option<usize> {
        self.stmt_of
            .get(e as usize)
            .copied()
            .flatten()
            .map(|i| i as usize)
    }

    /// Whether `e` is linear in the inputs `grown`: evaluating it on
    /// their deltas (and on the current value of everything else) yields
    /// exactly what their growth adds. Union and rename/project/copy
    /// always distribute; a join, compose or intersect may have at most
    /// one operand that reads a grown input; a minus may not have one on
    /// its right.
    pub(crate) fn linear(&self, e: &TExpr, grown: &[VarIdx]) -> bool {
        match &e.kind {
            TExprKind::Var(_) | TExprKind::Empty | TExprKind::Full | TExprKind::Literal(_) => true,
            TExprKind::Replace { operand, .. } => self.linear(operand, grown),
            TExprKind::SetOp {
                op: SetOp::Union,
                left,
                right,
            } => self.linear(left, grown) && self.linear(right, grown),
            TExprKind::SetOp {
                op: SetOp::Minus,
                left,
                right,
            } => !self.touches(right.id, grown) && self.linear(left, grown),
            TExprKind::SetOp { left, right, .. } | TExprKind::JoinLike { left, right, .. } => {
                match (self.touches(left.id, grown), self.touches(right.id, grown)) {
                    (true, true) => false,
                    (true, false) => self.linear(left, grown),
                    (false, true) => self.linear(right, grown),
                    (false, false) => true,
                }
            }
        }
    }

    /// The static report `jeddc --stats` prints: how many statements can
    /// ever run on deltas, then one line per statement — rule, position,
    /// target, operator, and `delta` or `full (<reason>)`.
    pub fn render(&self, typed: &TypedProgram) -> String {
        let delta = self
            .statements
            .iter()
            .filter(|s| s.never_delta.is_none())
            .count();
        let mut out = format!(
            "delta_statements {delta}\nfull_statements {}\n",
            self.statements.len() - delta
        );
        for s in &self.statements {
            let op = match s.op {
                AssignOp::Set => "=",
                AssignOp::Union => "|=",
                AssignOp::Intersect => "&=",
                AssignOp::Minus => "-=",
            };
            let how = match s.never_delta {
                None => "delta".to_string(),
                Some(reason) => format!("full ({reason})"),
            };
            out += &format!(
                "statement {} {} {} {op} {how}\n",
                s.rule, s.pos, typed.vars[s.target as usize].name
            );
        }
        out
    }
}
