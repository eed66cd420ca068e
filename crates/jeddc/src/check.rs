//! Semantic analysis: name resolution, schema inference and the static
//! typing rules of the paper's Fig. 6.
//!
//! The checker produces a typed program in which every relational
//! expression carries its inferred schema (sorted attribute indices) and a
//! unique expression id used by the physical-domain-assignment pass.

use crate::ast::{self, AssignOp, Decl, DomainSpec, Expr, LiteralObj, Program, Replacement, Stmt};
use crate::diag::{Allow, CompileError, Pos};

/// Index of a domain in the typed program.
pub type DomainIdx = u32;
/// Index of an attribute in the typed program.
pub type AttrIdx = u32;
/// Index of a physical domain in the typed program.
pub type PdIdx = u32;
/// Index of a relation variable (global or rule-local).
pub type VarIdx = u32;
/// Unique id of a typed relational expression.
pub type TExprId = u32;

/// A resolved schema annotation: the sorted `(attribute, optional
/// physdom)` pairs plus the attribute order as written in the source.
type ResolvedSchema = (Vec<(AttrIdx, Option<PdIdx>)>, Vec<AttrIdx>);

/// A typed domain declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomainDef {
    /// Domain name.
    pub name: String,
    /// Size specification.
    pub spec: DomainSpec,
}

/// A typed attribute declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttrDef {
    /// Attribute name.
    pub name: String,
    /// Its domain.
    pub domain: DomainIdx,
}

/// A typed physical-domain declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhysdomDef {
    /// Physical domain name.
    pub name: String,
    /// Interleaving group: physical domains declared in one
    /// `physdom interleaved ...;` share a group id.
    pub group: Option<u32>,
}

/// A relation variable: a global or a rule-local.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarDef {
    /// Variable name.
    pub name: String,
    /// Declared schema with optional specified physical domains, sorted by
    /// attribute index.
    pub schema: Vec<(AttrIdx, Option<PdIdx>)>,
    /// The attributes in the order they were written in the declaration;
    /// external tuple I/O uses this column order.
    pub written: Vec<AttrIdx>,
    /// True for top-level `relation` declarations.
    pub global: bool,
    /// Source position of the declaration.
    pub pos: Pos,
}

/// A typed relational expression node.
#[derive(Clone, Debug, PartialEq)]
pub struct TExpr {
    /// Unique id (index into [`TypedProgram::num_exprs`]).
    pub id: TExprId,
    /// The expression kind with typed children.
    pub kind: TExprKind,
    /// The inferred schema: sorted attribute indices.
    pub schema: Vec<AttrIdx>,
    /// Source position.
    pub pos: Pos,
    /// Display label for diagnostics (`Join_expression`, ...).
    pub label: &'static str,
}

/// Typed expression kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum TExprKind {
    /// A variable read.
    Var(VarIdx),
    /// `0B` adapted to the context schema.
    Empty,
    /// `1B` adapted to the context schema.
    Full,
    /// A tuple literal: (object, attribute, specified physdom).
    Literal(Vec<(TLiteralObj, AttrIdx, Option<PdIdx>)>),
    /// A replacement cast, decomposed.
    Replace {
        /// The operand.
        operand: Box<TExpr>,
        /// Attributes projected away.
        projects: Vec<AttrIdx>,
        /// Simultaneous renames `(from, to)`.
        renames: Vec<(AttrIdx, AttrIdx)>,
        /// Copies `(from, to1, to2)`.
        copies: Vec<(AttrIdx, AttrIdx, AttrIdx)>,
    },
    /// Join or compose.
    JoinLike {
        /// Left operand.
        left: Box<TExpr>,
        /// Left compared attributes (in list order).
        left_attrs: Vec<AttrIdx>,
        /// Right operand.
        right: Box<TExpr>,
        /// Right compared attributes (in list order).
        right_attrs: Vec<AttrIdx>,
        /// `true` = join, `false` = compose.
        is_join: bool,
    },
    /// Set operation.
    SetOp {
        /// The operator.
        op: ast::SetOp,
        /// Left operand.
        left: Box<TExpr>,
        /// Right operand.
        right: Box<TExpr>,
    },
}

/// A resolved literal object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TLiteralObj {
    /// Index into an enumerated domain, resolved at compile time.
    Index(u64),
    /// A label to resolve against host-provided element names at run time.
    Label(String),
}

/// A typed statement.
#[derive(Clone, Debug, PartialEq)]
pub enum TStmt {
    /// Local declaration with optional initialiser.
    Local {
        /// The declared variable.
        var: VarIdx,
        /// Optional initialiser.
        init: Option<TExpr>,
        /// Source position.
        pos: Pos,
    },
    /// Assignment (`=`, `|=`, `&=`, `-=`).
    Assign {
        /// Target variable.
        var: VarIdx,
        /// Operator.
        op: AssignOp,
        /// Right-hand side.
        expr: TExpr,
        /// Source position.
        pos: Pos,
    },
    /// `do { .. } while (cond);`
    DoWhile {
        /// Body statements.
        body: Vec<TStmt>,
        /// Condition.
        cond: TCond,
    },
    /// `while (cond) { .. }`
    While {
        /// Condition.
        cond: TCond,
        /// Body statements.
        body: Vec<TStmt>,
    },
    /// `if (cond) { .. } else { .. }`
    If {
        /// Condition.
        cond: TCond,
        /// Then branch.
        then_body: Vec<TStmt>,
        /// Else branch.
        else_body: Vec<TStmt>,
    },
}

/// A typed comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct TCond {
    /// Left operand.
    pub left: TExpr,
    /// Right operand.
    pub right: TExpr,
    /// `true` for `==`.
    pub eq: bool,
}

/// A typed rule.
#[derive(Clone, Debug, PartialEq)]
pub struct TRule {
    /// Rule name.
    pub name: String,
    /// Body.
    pub body: Vec<TStmt>,
}

/// The output of semantic analysis.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TypedProgram {
    /// Domains in declaration order.
    pub domains: Vec<DomainDef>,
    /// Attributes in declaration order.
    pub attributes: Vec<AttrDef>,
    /// Physical domains in declaration order.
    pub physdoms: Vec<PhysdomDef>,
    /// All variables: globals first, then rule locals.
    pub vars: Vec<VarDef>,
    /// Typed rules.
    pub rules: Vec<TRule>,
    /// Number of expression nodes allocated (ids are `0..num_exprs`).
    pub num_exprs: u32,
    /// `// jedd:allow(<lint>)` annotations, carried through from the
    /// lexer for the lint driver.
    pub allows: Vec<Allow>,
}

impl TypedProgram {
    /// Looks up a domain index by name.
    pub fn domain_idx(&self, name: &str) -> Option<DomainIdx> {
        self.domains
            .iter()
            .position(|d| d.name == name)
            .map(|i| i as u32)
    }

    /// Looks up an attribute index by name.
    pub fn attr_idx(&self, name: &str) -> Option<AttrIdx> {
        self.attributes
            .iter()
            .position(|a| a.name == name)
            .map(|i| i as u32)
    }

    /// Looks up a physical-domain index by name.
    pub fn physdom_idx(&self, name: &str) -> Option<PdIdx> {
        self.physdoms
            .iter()
            .position(|p| p.name == name)
            .map(|i| i as u32)
    }

    /// Looks up a global variable index by name.
    pub fn global_idx(&self, name: &str) -> Option<VarIdx> {
        self.vars
            .iter()
            .position(|v| v.global && v.name == name)
            .map(|i| i as u32)
    }

    /// Looks up a rule by name.
    pub fn rule(&self, name: &str) -> Option<&TRule> {
        self.rules.iter().find(|r| r.name == name)
    }

    /// The attribute names of a schema, for error messages.
    pub fn schema_names(&self, schema: &[AttrIdx]) -> Vec<String> {
        schema
            .iter()
            .map(|&a| self.attributes[a as usize].name.clone())
            .collect()
    }
}

struct Checker {
    prog: TypedProgram,
    next_expr: u32,
    /// Accumulated errors, in source order. The checker recovers after
    /// each one instead of aborting, so one run reports every
    /// independent error.
    errors: Vec<CompileError>,
}

/// Runs semantic analysis over a parsed program.
///
/// # Errors
///
/// Returns the first name-resolution or typing (Fig. 6) error — the same
/// error, byte for byte, that the single-shot seed checker produced. Use
/// [`check_all`] to get every independent error in one run.
pub fn check(program: &Program) -> Result<TypedProgram, CompileError> {
    check_all(program).map_err(|mut errs| errs.remove(0))
}

/// Runs semantic analysis, accumulating all independent errors.
///
/// The checker recovers after each error: a declaration with a bad
/// schema is still entered into scope (with an empty schema) so uses of
/// it don't cascade into `unknown relation` storms, and a statement that
/// fails to type is dropped while the rest of its block is still
/// checked. Errors come back in source order; the first one is exactly
/// what [`check`] returns.
///
/// # Errors
///
/// Returns every name-resolution or typing error found, in source order
/// (the list is never empty on `Err`).
pub fn check_all(program: &Program) -> Result<TypedProgram, Vec<CompileError>> {
    let mut c = Checker {
        prog: TypedProgram::default(),
        next_expr: 0,
        errors: Vec::new(),
    };
    c.collect_decls(program);
    c.check_rules(program);
    c.prog.num_exprs = c.next_expr;
    c.prog.allows = program.allows.clone();
    if c.errors.is_empty() {
        Ok(c.prog)
    } else {
        Err(c.errors)
    }
}

impl Checker {
    fn err(&self, pos: Pos, message: String) -> CompileError {
        CompileError { pos, message }
    }

    fn report(&mut self, pos: Pos, message: String) {
        self.errors.push(CompileError { pos, message });
    }

    fn fresh_id(&mut self) -> TExprId {
        let id = self.next_expr;
        self.next_expr += 1;
        id
    }

    fn collect_decls(&mut self, program: &Program) {
        let mut group_counter = 0u32;
        for d in &program.decls {
            match d {
                Decl::Domain { name, spec, pos } => {
                    if self.prog.domain_idx(name).is_some() {
                        self.report(*pos, format!("duplicate domain `{name}`"));
                        continue;
                    }
                    if *spec == DomainSpec::Fixed(0) {
                        self.report(
                            *pos,
                            format!("domain `{name}` must contain at least one object"),
                        );
                    }
                    self.prog.domains.push(DomainDef {
                        name: name.clone(),
                        spec: spec.clone(),
                    });
                }
                Decl::Attribute { name, domain, pos } => {
                    if self.prog.attr_idx(name).is_some() {
                        self.report(*pos, format!("duplicate attribute `{name}`"));
                        continue;
                    }
                    let Some(didx) = self.prog.domain_idx(domain) else {
                        self.report(*pos, format!("unknown domain `{domain}`"));
                        continue;
                    };
                    self.prog.attributes.push(AttrDef {
                        name: name.clone(),
                        domain: didx,
                    });
                }
                Decl::Physdom {
                    names,
                    interleaved,
                    pos,
                } => {
                    let group = if *interleaved {
                        group_counter += 1;
                        Some(group_counter)
                    } else {
                        None
                    };
                    for n in names {
                        if self.prog.physdom_idx(n).is_some() {
                            self.report(*pos, format!("duplicate physical domain `{n}`"));
                            continue;
                        }
                        self.prog.physdoms.push(PhysdomDef {
                            name: n.clone(),
                            group,
                        });
                    }
                }
                Decl::Relation { name, schema, pos } => {
                    if self.prog.global_idx(name).is_some() {
                        self.report(*pos, format!("duplicate relation `{name}`"));
                        continue;
                    }
                    // On a bad schema, declare the relation anyway (with
                    // an empty schema) so later uses don't cascade into
                    // `unknown relation` errors.
                    let (s, written) = match self.check_schema_ast(schema) {
                        Ok(x) => x,
                        Err(e) => {
                            self.errors.push(e);
                            (Vec::new(), Vec::new())
                        }
                    };
                    self.prog.vars.push(VarDef {
                        name: name.clone(),
                        schema: s,
                        written,
                        global: true,
                        pos: *pos,
                    });
                }
                Decl::Rule { .. } => {}
            }
        }
    }

    /// Resolves a schema annotation to sorted attribute/physdom indices,
    /// checking the "no relation may have two instances of one attribute"
    /// rule.
    /// Returns `(sorted schema, written attribute order)`.
    fn check_schema_ast(
        &self,
        schema: &ast::SchemaAst,
    ) -> Result<ResolvedSchema, CompileError> {
        let mut out: Vec<(AttrIdx, Option<PdIdx>)> = Vec::new();
        for (attr, pd) in &schema.attrs {
            let Some(aidx) = self.prog.attr_idx(attr) else {
                return Err(self.err(schema.pos, format!("unknown attribute `{attr}`")));
            };
            if out.iter().any(|&(a, _)| a == aidx) {
                return Err(self.err(
                    schema.pos,
                    format!("attribute `{attr}` appears twice in relation type"),
                ));
            }
            let pidx = match pd {
                Some(p) => Some(self.prog.physdom_idx(p).ok_or_else(|| {
                    self.err(schema.pos, format!("unknown physical domain `{p}`"))
                })?),
                None => None,
            };
            out.push((aidx, pidx));
        }
        let written: Vec<AttrIdx> = out.iter().map(|&(a, _)| a).collect();
        out.sort_by_key(|&(a, _)| a);
        Ok((out, written))
    }

    fn check_rules(&mut self, program: &Program) {
        for d in &program.decls {
            if let Decl::Rule { name, body, pos } = d {
                if self.prog.rule(name).is_some() {
                    self.report(*pos, format!("duplicate rule `{name}`"));
                    continue;
                }
                // Locals: name -> VarIdx, in scope from declaration on.
                let mut locals: Vec<(String, VarIdx)> = Vec::new();
                let tbody = self.check_block(body, &mut locals);
                self.prog.rules.push(TRule {
                    name: name.clone(),
                    body: tbody,
                });
            }
        }
    }

    fn lookup_var(&self, name: &str, locals: &[(String, VarIdx)]) -> Option<VarIdx> {
        // Innermost local shadows.
        for (n, v) in locals.iter().rev() {
            if n == name {
                return Some(*v);
            }
        }
        self.prog.global_idx(name)
    }

    /// Checks a statement block, recording each failing statement's
    /// errors and dropping only that statement — the rest of the block is
    /// still checked, so independent errors surface in one run.
    fn check_block(&mut self, body: &[Stmt], locals: &mut Vec<(String, VarIdx)>) -> Vec<TStmt> {
        let mut out = Vec::new();
        for s in body {
            if let Some(ts) = self.check_stmt(s, locals) {
                out.push(ts);
            }
        }
        out
    }

    /// Checks one statement, pushing any errors onto the accumulator (in
    /// source order) and returning `None` when the statement cannot be
    /// typed.
    fn check_stmt(&mut self, s: &Stmt, locals: &mut Vec<(String, VarIdx)>) -> Option<TStmt> {
        match s {
            Stmt::Local {
                name,
                schema,
                init,
                pos,
            } => {
                // Recover from a bad schema or initialiser: the local is
                // declared regardless, so later statements that use it
                // don't cascade into `unknown relation` errors.
                let (sch, written) = match self.check_schema_ast(schema) {
                    Ok(x) => x,
                    Err(e) => {
                        self.errors.push(e);
                        (Vec::new(), Vec::new())
                    }
                };
                let attrs: Vec<AttrIdx> = sch.iter().map(|&(a, _)| a).collect();
                let var = self.prog.vars.len() as VarIdx;
                self.prog.vars.push(VarDef {
                    name: name.clone(),
                    schema: sch,
                    written,
                    global: false,
                    pos: *pos,
                });
                let tinit = match init {
                    Some(e) => match self.check_expr(e, Some(&attrs), locals) {
                        Ok(te) => {
                            if let Err(e2) =
                                self.require_same_schema(&attrs, &te.schema, te.pos, "initialisation")
                            {
                                self.errors.push(e2);
                            }
                            Some(te)
                        }
                        Err(e) => {
                            self.errors.push(e);
                            None
                        }
                    },
                    None => None,
                };
                locals.push((name.clone(), var));
                Some(TStmt::Local {
                    var,
                    init: tinit,
                    pos: *pos,
                })
            }
            Stmt::Assign {
                name,
                op,
                expr,
                pos,
            } => {
                let Some(var) = self.lookup_var(name, locals) else {
                    self.report(*pos, format!("unknown relation `{name}`"));
                    return None;
                };
                let attrs: Vec<AttrIdx> = self.prog.vars[var as usize]
                    .schema
                    .iter()
                    .map(|&(a, _)| a)
                    .collect();
                let te = match self.check_expr(expr, Some(&attrs), locals) {
                    Ok(te) => te,
                    Err(e) => {
                        self.errors.push(e);
                        return None;
                    }
                };
                if let Err(e) = self.require_same_schema(&attrs, &te.schema, te.pos, "assignment") {
                    self.errors.push(e);
                    return None;
                }
                Some(TStmt::Assign {
                    var,
                    op: *op,
                    expr: te,
                    pos: *pos,
                })
            }
            Stmt::DoWhile { body, cond, pos } => {
                let scope = locals.len();
                let tbody = self.check_block(body, locals);
                let tcond = self.check_cond(cond, locals);
                locals.truncate(scope);
                let _ = pos;
                let tcond = match tcond {
                    Ok(c) => c,
                    Err(e) => {
                        self.errors.push(e);
                        return None;
                    }
                };
                Some(TStmt::DoWhile {
                    body: tbody,
                    cond: tcond,
                })
            }
            Stmt::While { cond, body, pos } => {
                let tcond = self.check_cond(cond, locals);
                if let Err(e) = &tcond {
                    self.errors.push(e.clone());
                }
                let scope = locals.len();
                let tbody = self.check_block(body, locals);
                locals.truncate(scope);
                let _ = pos;
                Some(TStmt::While {
                    cond: tcond.ok()?,
                    body: tbody,
                })
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                pos,
            } => {
                let tcond = self.check_cond(cond, locals);
                if let Err(e) = &tcond {
                    self.errors.push(e.clone());
                }
                let scope = locals.len();
                let tthen = self.check_block(then_body, locals);
                locals.truncate(scope);
                let telse = self.check_block(else_body, locals);
                locals.truncate(scope);
                let _ = pos;
                Some(TStmt::If {
                    cond: tcond.ok()?,
                    then_body: tthen,
                    else_body: telse,
                })
            }
        }
    }

    fn check_cond(
        &mut self,
        cond: &ast::Cond,
        locals: &mut Vec<(String, VarIdx)>,
    ) -> Result<TCond, CompileError> {
        // Infer the non-constant side first so 0B/1B adapt ([Compare]).
        let (tleft, tright) = if matches!(cond.left, Expr::Empty { .. } | Expr::Full { .. }) {
            let tr = self.check_expr(&cond.right, None, locals)?;
            let tl = self.check_expr(&cond.left, Some(&tr.schema.clone()), locals)?;
            (tl, tr)
        } else {
            let tl = self.check_expr(&cond.left, None, locals)?;
            let tr = self.check_expr(&cond.right, Some(&tl.schema.clone()), locals)?;
            (tl, tr)
        };
        self.require_same_schema(&tleft.schema, &tright.schema, cond.pos, "comparison")?;
        Ok(TCond {
            left: tleft,
            right: tright,
            eq: cond.eq,
        })
    }

    fn require_same_schema(
        &self,
        a: &[AttrIdx],
        b: &[AttrIdx],
        pos: Pos,
        what: &str,
    ) -> Result<(), CompileError> {
        if a != b {
            return Err(self.err(
                pos,
                format!(
                    "schema mismatch in {what}: <{}> vs <{}>",
                    self.prog.schema_names(a).join(", "),
                    self.prog.schema_names(b).join(", ")
                ),
            ));
        }
        Ok(())
    }

    fn check_expr(
        &mut self,
        e: &Expr,
        expected: Option<&[AttrIdx]>,
        locals: &mut Vec<(String, VarIdx)>,
    ) -> Result<TExpr, CompileError> {
        let pos = e.pos();
        let label = e.label();
        match e {
            Expr::Var { name, .. } => {
                let Some(var) = self.lookup_var(name, locals) else {
                    return Err(self.err(pos, format!("unknown relation `{name}`")));
                };
                let schema: Vec<AttrIdx> = self.prog.vars[var as usize]
                    .schema
                    .iter()
                    .map(|&(a, _)| a)
                    .collect();
                Ok(TExpr {
                    id: self.fresh_id(),
                    kind: TExprKind::Var(var),
                    schema,
                    pos,
                    label,
                })
            }
            Expr::Empty { .. } | Expr::Full { .. } => {
                let Some(schema) = expected else {
                    return Err(self.err(
                        pos,
                        "cannot infer the schema of 0B/1B here; bind it to a declared relation"
                            .to_string(),
                    ));
                };
                let kind = if matches!(e, Expr::Empty { .. }) {
                    TExprKind::Empty
                } else {
                    TExprKind::Full
                };
                Ok(TExpr {
                    id: self.fresh_id(),
                    kind,
                    schema: schema.to_vec(),
                    pos,
                    label,
                })
            }
            Expr::Literal { fields, .. } => {
                let mut tfields = Vec::new();
                let mut schema = Vec::new();
                for (obj, attr, pd) in fields {
                    let Some(aidx) = self.prog.attr_idx(attr) else {
                        return Err(self.err(pos, format!("unknown attribute `{attr}`")));
                    };
                    if schema.contains(&aidx) {
                        return Err(self.err(
                            pos,
                            format!("attribute `{attr}` appears twice in literal"),
                        ));
                    }
                    schema.push(aidx);
                    let pidx = match pd {
                        Some(p) => Some(self.prog.physdom_idx(p).ok_or_else(|| {
                            self.err(pos, format!("unknown physical domain `{p}`"))
                        })?),
                        None => None,
                    };
                    let tobj = match obj {
                        LiteralObj::Index(n) => TLiteralObj::Index(*n),
                        LiteralObj::Label(l) => {
                            // Resolve against enumerated domains now.
                            let dom =
                                &self.prog.domains[self.prog.attributes[aidx as usize].domain as usize];
                            match &dom.spec {
                                DomainSpec::Enumerated(els) => {
                                    match els.iter().position(|x| x == l) {
                                        Some(i) => TLiteralObj::Index(i as u64),
                                        None => {
                                            return Err(self.err(
                                                pos,
                                                format!(
                                                    "`{l}` is not an element of domain `{}`",
                                                    dom.name
                                                ),
                                            ))
                                        }
                                    }
                                }
                                _ => TLiteralObj::Label(l.clone()),
                            }
                        }
                    };
                    tfields.push((tobj, aidx, pidx));
                }
                schema.sort_unstable();
                Ok(TExpr {
                    id: self.fresh_id(),
                    kind: TExprKind::Literal(tfields),
                    schema,
                    pos,
                    label,
                })
            }
            Expr::Replace {
                replacements,
                operand,
                ..
            } => {
                let top = self.check_expr(operand, None, locals)?;
                let t = &top.schema;
                let mut projects = Vec::new();
                let mut renames = Vec::new();
                let mut copies = Vec::new();
                let mut sources: Vec<AttrIdx> = Vec::new();
                let lookup = |c: &Checker, n: &str| -> Result<AttrIdx, CompileError> {
                    c.prog
                        .attr_idx(n)
                        .ok_or_else(|| c.err(pos, format!("unknown attribute `{n}`")))
                };
                for r in replacements {
                    let from_name = match r {
                        Replacement::Project(a) | Replacement::Rename(a, _) | Replacement::Copy(a, _, _) => a,
                    };
                    let from = lookup(self, from_name)?;
                    if !t.contains(&from) {
                        // [Project]/[Rename]/[Copy]: a ∈ T.
                        return Err(self.err(
                            pos,
                            format!(
                                "attribute `{from_name}` not in operand schema <{}>",
                                self.prog.schema_names(t).join(", ")
                            ),
                        ));
                    }
                    if sources.contains(&from) {
                        return Err(self.err(
                            pos,
                            format!("attribute `{from_name}` replaced twice"),
                        ));
                    }
                    sources.push(from);
                    match r {
                        Replacement::Project(_) => projects.push(from),
                        Replacement::Rename(_, to) => renames.push((from, lookup(self, to)?)),
                        Replacement::Copy(_, to1, to2) => {
                            copies.push((from, lookup(self, to1)?, lookup(self, to2)?))
                        }
                    }
                }
                // Result schema: (T \ sources) ∪ targets, all disjoint.
                let mut schema: Vec<AttrIdx> =
                    t.iter().copied().filter(|a| !sources.contains(a)).collect();
                let add_target = |c: &Checker, schema: &mut Vec<AttrIdx>, to: AttrIdx, from: AttrIdx| -> Result<(), CompileError> {
                    // Domains must match: the objects do not change.
                    let (fd, td) = (
                        c.prog.attributes[from as usize].domain,
                        c.prog.attributes[to as usize].domain,
                    );
                    if fd != td {
                        return Err(c.err(
                            pos,
                            format!(
                                "cannot map attribute `{}` to `{}`: different domains",
                                c.prog.attributes[from as usize].name,
                                c.prog.attributes[to as usize].name
                            ),
                        ));
                    }
                    if schema.contains(&to) {
                        // [Rename]: b ∉ T; [Copy]: b,c ∉ T\{a}.
                        return Err(c.err(
                            pos,
                            format!(
                                "target attribute `{}` already present",
                                c.prog.attributes[to as usize].name
                            ),
                        ));
                    }
                    schema.push(to);
                    Ok(())
                };
                for &(from, to) in &renames {
                    add_target(self, &mut schema, to, from)?;
                }
                for &(from, to1, to2) in &copies {
                    add_target(self, &mut schema, to1, from)?;
                    add_target(self, &mut schema, to2, from)?;
                }
                schema.sort_unstable();
                Ok(TExpr {
                    id: self.fresh_id(),
                    kind: TExprKind::Replace {
                        operand: Box::new(top),
                        projects,
                        renames,
                        copies,
                    },
                    schema,
                    pos,
                    label,
                })
            }
            Expr::JoinLike {
                left,
                left_attrs,
                right,
                right_attrs,
                is_join,
                ..
            } => {
                let tl = self.check_expr(left, None, locals)?;
                let tr = self.check_expr(right, None, locals)?;
                if left_attrs.len() != right_attrs.len() {
                    return Err(self.err(
                        pos,
                        format!(
                            "compared attribute lists have different lengths ({} vs {})",
                            left_attrs.len(),
                            right_attrs.len()
                        ),
                    ));
                }
                let resolve_list = |c: &Checker, names: &[String], schema: &[AttrIdx]| -> Result<Vec<AttrIdx>, CompileError> {
                    let mut out = Vec::new();
                    for n in names {
                        let Some(a) = c.prog.attr_idx(n) else {
                            return Err(c.err(pos, format!("unknown attribute `{n}`")));
                        };
                        if !schema.contains(&a) {
                            return Err(c.err(
                                pos,
                                format!(
                                    "attribute `{n}` not in operand schema <{}>",
                                    c.prog.schema_names(schema).join(", ")
                                ),
                            ));
                        }
                        if out.contains(&a) {
                            return Err(c.err(pos, format!("attribute `{n}` compared twice")));
                        }
                        out.push(a);
                    }
                    Ok(out)
                };
                let la = resolve_list(self, left_attrs, &tl.schema)?;
                let ra = resolve_list(self, right_attrs, &tr.schema)?;
                // Domains of compared pairs must agree.
                for (&a, &b) in la.iter().zip(ra.iter()) {
                    let (da, db) = (
                        self.prog.attributes[a as usize].domain,
                        self.prog.attributes[b as usize].domain,
                    );
                    if da != db {
                        return Err(self.err(
                            pos,
                            format!(
                                "compared attributes `{}` and `{}` have different domains",
                                self.prog.attributes[a as usize].name,
                                self.prog.attributes[b as usize].name
                            ),
                        ));
                    }
                }
                // [Join]: T ∩ U' = ∅; [Compose]: T' ∩ U' = ∅.
                let t_kept: Vec<AttrIdx> = if *is_join {
                    tl.schema.clone()
                } else {
                    tl.schema
                        .iter()
                        .copied()
                        .filter(|a| !la.contains(a))
                        .collect()
                };
                let u_kept: Vec<AttrIdx> = tr
                    .schema
                    .iter()
                    .copied()
                    .filter(|a| !ra.contains(a))
                    .collect();
                let shared: Vec<AttrIdx> = t_kept
                    .iter()
                    .copied()
                    .filter(|a| u_kept.contains(a))
                    .collect();
                if !shared.is_empty() {
                    return Err(self.err(
                        pos,
                        format!(
                            "operand schemas share attributes: {}",
                            self.prog.schema_names(&shared).join(", ")
                        ),
                    ));
                }
                let mut schema: Vec<AttrIdx> =
                    t_kept.iter().chain(u_kept.iter()).copied().collect();
                schema.sort_unstable();
                Ok(TExpr {
                    id: self.fresh_id(),
                    kind: TExprKind::JoinLike {
                        left: Box::new(tl),
                        left_attrs: la,
                        right: Box::new(tr),
                        right_attrs: ra,
                        is_join: *is_join,
                    },
                    schema,
                    pos,
                    label,
                })
            }
            Expr::SetOp {
                op, left, right, ..
            } => {
                // Constants adapt to the other operand ([SetOp]).
                let (tl, tr) = if matches!(**left, Expr::Empty { .. } | Expr::Full { .. }) {
                    let tr = self.check_expr(right, expected, locals)?;
                    let tl = self.check_expr(left, Some(&tr.schema.clone()), locals)?;
                    (tl, tr)
                } else {
                    let tl = self.check_expr(left, expected, locals)?;
                    let tr = self.check_expr(right, Some(&tl.schema.clone()), locals)?;
                    (tl, tr)
                };
                self.require_same_schema(&tl.schema, &tr.schema, pos, "set operation")?;
                let schema = tl.schema.clone();
                Ok(TExpr {
                    id: self.fresh_id(),
                    kind: TExprKind::SetOp {
                        op: *op,
                        left: Box::new(tl),
                        right: Box::new(tr),
                    },
                    schema,
                    pos,
                    label,
                })
            }
        }
    }
}
