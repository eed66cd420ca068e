//! Code generation: renders a compiled program as the Java-like code
//! jeddc would emit — every relational operation lowered to an explicit
//! runtime-library call with its physical domains spelled out, and the
//! automatically inserted `replace` operations visible (paper §3.2).
//!
//! The output is documentation-quality pseudo-Java: the *executable*
//! artefact is [`crate::Executor`], which interprets the same lowering.

use crate::assignc::Assignment;
use crate::check::{TCond, TExpr, TExprKind, TStmt, TypedProgram, VarIdx};
use crate::exec::CompiledProgram;
use std::fmt::Write as _;

/// Renders the generated-code view of a compiled program.
pub fn emit_java_like(compiled: &CompiledProgram) -> String {
    let mut e = Emitter {
        typed: &compiled.typed,
        assignment: &compiled.assignment,
        out: String::new(),
        tmp: 0,
        indent: 1,
    };
    let _ = writeln!(e.out, "// Generated by jeddc-rs (mini-Jedd translator)");
    let _ = writeln!(e.out, "public class JeddProgram {{");
    for (vi, v) in e.typed.vars.iter().enumerate() {
        if v.global {
            let schema = e.var_schema_str(vi as VarIdx);
            let _ = writeln!(
                e.out,
                "    final RelationContainer {} = new RelationContainer({schema});",
                v.name
            );
        }
    }
    let rules: Vec<String> = e.typed.rules.iter().map(|r| r.name.clone()).collect();
    for name in rules {
        let rule = e.typed.rule(&name).expect("rule").clone();
        let _ = writeln!(e.out, "\n    public void {}() {{", rule.name);
        e.indent = 2;
        e.emit_block(&rule.body);
        let _ = writeln!(e.out, "    }}");
    }
    let _ = writeln!(e.out, "}}");
    e.out
}

struct Emitter<'a> {
    typed: &'a TypedProgram,
    assignment: &'a Assignment,
    out: String,
    tmp: u32,
    indent: usize,
}

impl<'a> Emitter<'a> {
    fn pad(&self) -> String {
        "    ".repeat(self.indent)
    }

    fn fresh(&mut self) -> String {
        self.tmp += 1;
        format!("t{}", self.tmp)
    }

    fn attr_name(&self, a: u32) -> &str {
        &self.typed.attributes[a as usize].name
    }

    fn pd_name(&self, p: u32) -> &str {
        &self.assignment.physdom_names[p as usize]
    }

    fn var_schema_str(&self, v: VarIdx) -> String {
        let parts: Vec<String> = self.typed.vars[v as usize]
            .schema
            .iter()
            .map(|&(a, _)| {
                let pd = self.assignment.var_pd[&(v, a)];
                format!("{}:{}", self.attr_name(a), self.pd_name(pd))
            })
            .collect();
        format!("\"<{}>\"", parts.join(", "))
    }

    fn node_schema_str(&self, e: &TExpr) -> String {
        let parts: Vec<String> = e
            .schema
            .iter()
            .map(|&a| {
                let pd = self.assignment.expr_pd[&(e.id, a)];
                format!("{}:{}", self.attr_name(a), self.pd_name(pd))
            })
            .collect();
        format!("<{}>", parts.join(", "))
    }

    fn emit_block(&mut self, body: &[TStmt]) {
        for s in body {
            self.emit_stmt(s);
        }
    }

    fn emit_stmt(&mut self, s: &TStmt) {
        match s {
            TStmt::Local { var, init, .. } => {
                let name = self.typed.vars[*var as usize].name.clone();
                let schema = self.var_schema_str(*var);
                match init {
                    Some(e) => {
                        let r = self.emit_expr(e);
                        let _ = writeln!(
                            self.out,
                            "{}final RelationContainer {name} = new RelationContainer({schema}, {r});",
                            self.pad()
                        );
                    }
                    None => {
                        let _ = writeln!(
                            self.out,
                            "{}final RelationContainer {name} = new RelationContainer({schema});",
                            self.pad()
                        );
                    }
                }
            }
            TStmt::Assign { var, op, expr, .. } => {
                let r = self.emit_expr(expr);
                let name = self.typed.vars[*var as usize].name.clone();
                let method = match op {
                    crate::ast::AssignOp::Set => "eq",
                    crate::ast::AssignOp::Union => "eqUnion",
                    crate::ast::AssignOp::Intersect => "eqIntersect",
                    crate::ast::AssignOp::Minus => "eqMinus",
                };
                let _ = writeln!(self.out, "{}{name}.{method}({r});", self.pad());
            }
            TStmt::DoWhile { body, cond } => {
                let _ = writeln!(self.out, "{}do {{", self.pad());
                self.indent += 1;
                self.emit_block(body);
                self.indent -= 1;
                let c = self.emit_cond(cond);
                let _ = writeln!(self.out, "{}}} while ({c});", self.pad());
            }
            TStmt::While { cond, body } => {
                let c = self.emit_cond(cond);
                let _ = writeln!(self.out, "{}while ({c}) {{", self.pad());
                self.indent += 1;
                self.emit_block(body);
                self.indent -= 1;
                let _ = writeln!(self.out, "{}}}", self.pad());
            }
            TStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.emit_cond(cond);
                let _ = writeln!(self.out, "{}if ({c}) {{", self.pad());
                self.indent += 1;
                self.emit_block(then_body);
                self.indent -= 1;
                if else_body.is_empty() {
                    let _ = writeln!(self.out, "{}}}", self.pad());
                } else {
                    let _ = writeln!(self.out, "{}}} else {{", self.pad());
                    self.indent += 1;
                    self.emit_block(else_body);
                    self.indent -= 1;
                    let _ = writeln!(self.out, "{}}}", self.pad());
                }
            }
        }
    }

    fn emit_cond(&mut self, c: &TCond) -> String {
        let l = self.emit_expr(&c.left);
        let r = self.emit_expr(&c.right);
        let op = if c.eq { "equals" } else { "notEquals" };
        format!("Jedd.v().{op}({l}, {r})")
    }

    /// Emits the low-level operations for an expression, returning the
    /// temporary holding its value.
    fn emit_expr(&mut self, e: &TExpr) -> String {
        let schema = self.node_schema_str(e);
        match &e.kind {
            TExprKind::Var(v) => {
                let name = self.typed.vars[*v as usize].name.clone();
                format!("{name}.get()")
            }
            TExprKind::Empty => {
                let t = self.fresh();
                let _ = writeln!(
                    self.out,
                    "{}RelationInstance {t} = Jedd.v().falseBDD(); // 0B as {schema}",
                    self.pad()
                );
                t
            }
            TExprKind::Full => {
                let t = self.fresh();
                let _ = writeln!(
                    self.out,
                    "{}RelationInstance {t} = Jedd.v().trueBDD(); // 1B as {schema}",
                    self.pad()
                );
                t
            }
            TExprKind::Literal(fields) => {
                let t = self.fresh();
                let parts: Vec<String> = fields
                    .iter()
                    .map(|(obj, a, _)| {
                        let pd = self.assignment.expr_pd[&(e.id, *a)];
                        format!("{:?} => {}:{}", obj, self.attr_name(*a), self.pd_name(pd))
                    })
                    .collect();
                let _ = writeln!(
                    self.out,
                    "{}RelationInstance {t} = Jedd.v().literal(new Object[]{{ {} }});",
                    self.pad(),
                    parts.join(", ")
                );
                t
            }
            TExprKind::Replace {
                operand,
                projects,
                renames,
                copies,
            } => {
                let mut cur = self.emit_expr(operand);
                if !projects.is_empty() {
                    let t = self.fresh();
                    let pds: Vec<String> = projects
                        .iter()
                        .map(|&a| {
                            let pd = self.assignment.expr_pd[&(operand.id, a)];
                            self.pd_name(pd).to_string()
                        })
                        .collect();
                    let _ = writeln!(
                        self.out,
                        "{}RelationInstance {t} = Jedd.v().project({cur}, new PhysicalDomain[]{{ {} }});",
                        self.pad(),
                        pds.join(", ")
                    );
                    cur = t;
                }
                for &(f, t1, t2) in copies {
                    let t = self.fresh();
                    let (fn_, t1n, t2n) = (
                        self.attr_name(f).to_string(),
                        self.attr_name(t1).to_string(),
                        self.attr_name(t2).to_string(),
                    );
                    let _ = writeln!(
                        self.out,
                        "{}RelationInstance {t} = Jedd.v().copy({cur}, {fn_} => {t1n} {t2n});",
                        self.pad()
                    );
                    cur = t;
                }
                if !renames.is_empty() {
                    let pairs: Vec<String> = renames
                        .iter()
                        .map(|&(f, t)| format!("{} => {}", self.attr_name(f), self.attr_name(t)))
                        .collect();
                    let t = self.fresh();
                    let _ = writeln!(
                        self.out,
                        "{}RelationInstance {t} = Jedd.v().rename({cur}, {}); // no BDD work",
                        self.pad(),
                        pairs.join(", ")
                    );
                    cur = t;
                }
                self.emit_conform(&cur, &schema)
            }
            TExprKind::JoinLike {
                left,
                left_attrs,
                right,
                right_attrs,
                is_join,
            } => {
                let l = self.emit_expr(left);
                let r = self.emit_expr(right);
                let t = self.fresh();
                let op = if *is_join { "join" } else { "compose" };
                let cmp_pds: Vec<String> = (0..left_attrs.len())
                    .map(|i| {
                        let pd = if *is_join {
                            self.assignment.expr_pd[&(e.id, left_attrs[i])]
                        } else {
                            self.assignment.cmp_pd[&(e.id, i)]
                        };
                        self.pd_name(pd).to_string()
                    })
                    .collect();
                let _ = writeln!(
                    self.out,
                    "{}RelationInstance {t} = Jedd.v().{op}({l}, {r}, new PhysicalDomain[]{{ {} }}); // -> {schema}",
                    self.pad(),
                    cmp_pds.join(", ")
                );
                let _ = right_attrs;
                t
            }
            TExprKind::SetOp { op, left, right } => {
                let l = self.emit_expr(left);
                let r = self.emit_expr(right);
                let t = self.fresh();
                let name = match op {
                    crate::ast::SetOp::Union => "union",
                    crate::ast::SetOp::Intersect => "intersect",
                    crate::ast::SetOp::Minus => "minus",
                };
                let _ = writeln!(
                    self.out,
                    "{}RelationInstance {t} = Jedd.v().{name}({l}, {r}); // {schema}",
                    self.pad()
                );
                t
            }
        }
    }

    /// Emits an explicit replace when the context requires one.
    fn emit_conform(&mut self, cur: &str, schema: &str) -> String {
        let t = self.fresh();
        let _ = writeln!(
            self.out,
            "{}RelationInstance {t} = Jedd.v().replace({cur}, {schema});",
            self.pad()
        );
        t
    }
}
