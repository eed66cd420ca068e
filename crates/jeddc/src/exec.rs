//! Executing compiled mini-Jedd programs.
//!
//! Plays the role of the Java code jeddc generates plus the Jedd runtime
//! library: it materialises the program's domains, attributes and physical
//! domains into a [`jedd_core::Universe`] (sizing each physical domain to
//! its largest assigned attribute, §3.2.1), then interprets rules over
//! relations, inserting exactly the replace operations the physical-domain
//! assignment dictates.

use crate::assignc::Assignment;
use crate::check::{
    AttrIdx, PdIdx, TCond, TExpr, TExprKind, TLiteralObj, TStmt, TypedProgram, VarIdx,
};
use crate::delta::{DeltaPlan, Fallback, StmtPlan};
use crate::diag::JeddcError;
use jedd_core::{AttrId, DomainId, JeddError, PhysDomId, Relation, Strategy, Universe};
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

use crate::ast::{AssignOp, DomainSpec, SetOp};

/// A fully compiled program: typed AST plus the physical-domain
/// assignment.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// The typed program.
    pub typed: TypedProgram,
    /// The attribute → physical-domain assignment of every expression.
    pub assignment: Assignment,
    /// Read sets and delta eligibility of every statement.
    pub plan: DeltaPlan,
}

/// Compiles mini-Jedd source. All connected components of the constraint
/// graph must carry a programmer-specified physical domain, exactly as in
/// the paper's jeddc.
///
/// # Errors
///
/// Returns lexical/syntactic/typing errors or an assignment failure
/// ([`jedd_core::assign::AssignError`]).
// `JeddcError` embeds `AssignError`, which inlines the full Â§3.3.3
// diagnostic; it is built only on the cold error path.
#[allow(clippy::result_large_err)]
pub fn compile(src: &str) -> Result<CompiledProgram, JeddcError> {
    compile_impl(src, false, "Test.jedd")
}

/// Like [`compile`], with an explicit source-file name used in assignment
/// error messages.
///
/// # Errors
///
/// Same conditions as [`compile`].
#[allow(clippy::result_large_err)]
pub fn compile_named(src: &str, file: &str) -> Result<CompiledProgram, JeddcError> {
    compile_impl(src, false, file)
}

/// Like [`compile`], but automatically pins fresh physical domains where
/// the programmer specified none, mimicking the paper's workflow of adding
/// "just enough" specifications guided by the error messages (§5).
///
/// # Errors
///
/// Same as [`compile`], except `Unreachable` and most `Conflict` failures
/// are repaired automatically.
#[allow(clippy::result_large_err)]
pub fn compile_auto(src: &str) -> Result<CompiledProgram, JeddcError> {
    compile_impl(src, true, "Test.jedd")
}

#[allow(clippy::result_large_err)]
fn compile_impl(src: &str, auto_pin: bool, file: &str) -> Result<CompiledProgram, JeddcError> {
    let ast = crate::parse::parse(src)?;
    let typed = crate::check::check(&ast)?;
    let assignment = crate::assignc::assign_named(&typed, auto_pin, file)?;
    let plan = DeltaPlan::build(&typed);
    Ok(CompiledProgram {
        typed,
        assignment,
        plan,
    })
}

/// A runtime error while preparing or running a compiled program.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ExecError {}

impl From<JeddError> for ExecError {
    fn from(e: JeddError) -> ExecError {
        ExecError {
            message: e.to_string(),
        }
    }
}

fn exec_err(message: impl Into<String>) -> ExecError {
    ExecError {
        message: message.into(),
    }
}

/// Interprets a [`CompiledProgram`] over concrete relations.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = "
///     domain T { A, B };
///     attribute x : T;
///     physdom P1;
///     relation <x:P1> r;
///     rule fill { r = r | new { B => x }; }
/// ";
/// let compiled = jeddc::compile(src)?;
/// let mut exec = jeddc::Executor::new(&compiled)?;
/// exec.run("fill")?;
/// assert_eq!(exec.tuples("r")?, vec![vec![1]]);
/// # Ok(())
/// # }
/// ```
pub struct Executor {
    compiled: CompiledProgram,
    universe: Universe,
    domain_sizes: Vec<Option<u64>>,
    domain_elements: Vec<Option<Vec<String>>>,
    domain_ids: Vec<Option<DomainId>>,
    attr_ids: Vec<Option<AttrId>>,
    physdom_ids: Vec<Option<PhysDomId>>,
    env: Vec<Option<Relation>>,
    prepared: bool,
    strategy: Strategy,
    /// What each statement last read and wrote, by statement index.
    memo: Vec<Option<Memo>>,
    stmt_stats: Vec<StmtStats>,
    rule_stats: Vec<RuleStats>,
    /// Replace operations executed on behalf of the assignment.
    pub replaces: u64,
}

/// The inputs that grew since a statement's last run, and what each
/// gained, in the same order.
struct Deltas {
    vars: Vec<VarIdx>,
    gained: Vec<Relation>,
}

/// The relation a delta run adds to, and the inputs' deltas.
type DeltaRun = (Relation, Deltas);

/// The relations a statement last read (one per variable in its read
/// set, in read-set order) and the relation it last wrote.
struct Memo {
    inputs: Vec<Relation>,
    written: Relation,
}

/// Execution counters of one statement, or summed over a rule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StmtStats {
    /// Times the statement ran.
    pub executions: u64,
    /// Runs that evaluated the expression on its inputs' deltas only.
    pub delta_executions: u64,
    /// Runs that took the full path, by [`Fallback::index`]. Under
    /// [`Strategy::Naive`] no reason is recorded.
    pub fallbacks: [u64; 5],
    /// Tuples the delta runs derived, before the union into the target.
    pub delta_tuples: u64,
    /// Wall-clock time spent in the statement.
    pub nanos: u64,
}

impl StmtStats {
    /// Full-path runs for one reason.
    pub fn fallback(&self, reason: Fallback) -> u64 {
        self.fallbacks[reason.index()]
    }

    fn add(&mut self, other: &StmtStats) {
        self.executions += other.executions;
        self.delta_executions += other.delta_executions;
        for (a, b) in self.fallbacks.iter_mut().zip(other.fallbacks) {
            *a += b;
        }
        self.delta_tuples += other.delta_tuples;
        self.nanos += other.nanos;
    }
}

/// Execution counters of one rule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// The rule's name.
    pub rule: String,
    /// Times the host ran it.
    pub runs: u64,
    /// Wall-clock time spent in it.
    pub nanos: u64,
    /// Its statements' counters, summed.
    pub statements: StmtStats,
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("prepared", &self.prepared)
            .field("replaces", &self.replaces)
            .finish()
    }
}

impl Executor {
    /// Creates an executor. Domains with fixed or enumerated sizes are
    /// bound immediately; deferred domains must be bound with
    /// [`Executor::bind_domain_size`] before the first run.
    ///
    /// # Errors
    ///
    /// Currently infallible, but reserved for future validation.
    pub fn new(compiled: &CompiledProgram) -> Result<Executor, ExecError> {
        let nd = compiled.typed.domains.len();
        let mut sizes: Vec<Option<u64>> = vec![None; nd];
        let mut elements: Vec<Option<Vec<String>>> = vec![None; nd];
        for (i, d) in compiled.typed.domains.iter().enumerate() {
            match &d.spec {
                DomainSpec::Fixed(n) => sizes[i] = Some(*n),
                DomainSpec::Enumerated(els) => {
                    sizes[i] = Some(els.len() as u64);
                    elements[i] = Some(els.clone());
                }
                DomainSpec::Deferred => {}
            }
        }
        Ok(Executor {
            compiled: compiled.clone(),
            universe: Universe::new(),
            domain_sizes: sizes,
            domain_elements: elements,
            domain_ids: vec![None; nd],
            attr_ids: vec![None; compiled.typed.attributes.len()],
            physdom_ids: vec![None; compiled.assignment.physdom_names.len()],
            env: vec![None; compiled.typed.vars.len()],
            prepared: false,
            strategy: Strategy::default(),
            memo: (0..compiled.plan.statements.len()).map(|_| None).collect(),
            stmt_stats: vec![StmtStats::default(); compiled.plan.statements.len()],
            rule_stats: compiled
                .typed
                .rules
                .iter()
                .map(|r| RuleStats {
                    rule: r.name.clone(),
                    ..RuleStats::default()
                })
                .collect(),
            replaces: 0,
        })
    }

    /// Binds the size of a deferred domain. Must be called before the
    /// universe is prepared (i.e. before the first `set_input`/`run`).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown domains, a size of zero, or after
    /// preparation.
    pub fn bind_domain_size(&mut self, name: &str, size: u64) -> Result<(), ExecError> {
        let i = self.deferred_domain(name, size)?;
        self.domain_sizes[i as usize] = Some(size);
        Ok(())
    }

    /// Binds element labels (and thereby the size) of a deferred domain.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown domains, an empty label list, or
    /// after preparation.
    pub fn bind_domain_elements(&mut self, name: &str, labels: &[&str]) -> Result<(), ExecError> {
        let i = self.deferred_domain(name, labels.len() as u64)?;
        self.domain_sizes[i as usize] = Some(labels.len() as u64);
        self.domain_elements[i as usize] = Some(labels.iter().map(|s| s.to_string()).collect());
        Ok(())
    }

    /// Resolves the domain a `bind_domain_*` call names, rejecting a
    /// binding after preparation and an empty domain.
    fn deferred_domain(&self, name: &str, size: u64) -> Result<u32, ExecError> {
        if self.prepared {
            return Err(exec_err("cannot bind domains after preparation"));
        }
        let Some(i) = self.compiled.typed.domain_idx(name) else {
            return Err(exec_err(format!("unknown domain `{name}`")));
        };
        if size == 0 {
            return Err(exec_err(format!(
                "domain `{name}` must contain at least one object"
            )));
        }
        Ok(i)
    }

    /// Builds the universe: registers domains and attributes, computes the
    /// width of every physical domain from the attributes assigned to it,
    /// and allocates BDD variables (interleaving groups declared
    /// `physdom interleaved ...`).
    ///
    /// Called implicitly by `set_input`/`run`.
    ///
    /// # Errors
    ///
    /// Returns an error if a deferred domain is still unbound.
    pub fn prepare(&mut self) -> Result<(), ExecError> {
        if self.prepared {
            return Ok(());
        }
        let typed = self.compiled.typed.clone();
        for (i, d) in typed.domains.iter().enumerate() {
            let Some(size) = self.domain_sizes[i] else {
                return Err(exec_err(format!(
                    "domain `{}` has no size; call bind_domain_size first",
                    d.name
                )));
            };
            let id = match &self.domain_elements[i] {
                Some(els) => {
                    let refs: Vec<&str> = els.iter().map(|s| s.as_str()).collect();
                    self.universe.add_domain_with_elements(&d.name, &refs)
                }
                None => self.universe.add_domain(&d.name, size),
            };
            self.domain_ids[i] = Some(id);
        }
        for (i, a) in typed.attributes.iter().enumerate() {
            let id = self
                .universe
                .add_attribute(&a.name, self.domain_ids[a.domain as usize].expect("domain"));
            self.attr_ids[i] = Some(id);
        }
        // Width of each physdom = bits of the widest attribute assigned to
        // it anywhere in the program (paper §3.2.1).
        let widths = self.physdom_widths();
        // Create physdoms in declaration order, materialising interleaved
        // groups together.
        let a = &self.compiled.assignment;
        let mut created: Vec<bool> = vec![false; a.physdom_names.len()];
        for i in 0..a.physdom_names.len() {
            if created[i] {
                continue;
            }
            match a.physdom_groups[i] {
                Some(g) => {
                    let members: Vec<usize> = (0..a.physdom_names.len())
                        .filter(|&j| a.physdom_groups[j] == Some(g))
                        .collect();
                    let names: Vec<&str> = members
                        .iter()
                        .map(|&j| a.physdom_names[j].as_str())
                        .collect();
                    let width = members.iter().map(|&j| widths[j]).max().unwrap_or(1);
                    let ids = self
                        .universe
                        .add_physical_domains_interleaved(&names, width);
                    for (&j, id) in members.iter().zip(ids) {
                        self.physdom_ids[j] = Some(id);
                        created[j] = true;
                    }
                }
                None => {
                    let id = self
                        .universe
                        .add_physical_domain(&a.physdom_names[i], widths[i]);
                    self.physdom_ids[i] = Some(id);
                    created[i] = true;
                }
            }
        }
        // Globals start empty.
        for (vi, v) in typed.vars.iter().enumerate() {
            if v.global {
                let schema = self.var_schema(vi as VarIdx)?;
                self.env[vi] = Some(Relation::empty(&self.universe, &schema)?);
            }
        }
        self.prepared = true;
        Ok(())
    }

    /// Computes the required bit width of each physical domain.
    fn physdom_widths(&self) -> Vec<usize> {
        let typed = &self.compiled.typed;
        let a = &self.compiled.assignment;
        let mut widths = vec![1usize; a.physdom_names.len()];
        let domain_bits = |didx: u32, sizes: &[Option<u64>]| -> usize {
            let size = sizes[didx as usize].unwrap_or(2).max(2);
            (64 - (size - 1).leading_zeros() as usize).max(1)
        };
        let bump = |pd: PdIdx, attr: AttrIdx, widths: &mut Vec<usize>| {
            let d = typed.attributes[attr as usize].domain;
            let bits = domain_bits(d, &self.domain_sizes);
            let w = &mut widths[pd as usize];
            *w = (*w).max(bits);
        };
        for (&(_, attr), &pd) in &a.expr_pd {
            bump(pd, attr, &mut widths);
        }
        for (&(v, attr), &pd) in &a.var_pd {
            let _ = v;
            bump(pd, attr, &mut widths);
        }
        // Compared (merged) occurrences of composes: find the left
        // attribute of the pair by walking the rules.
        let mut cmp_attr: HashMap<(u32, usize), AttrIdx> = HashMap::new();
        for r in &typed.rules {
            collect_cmp_attrs(&r.body, &mut cmp_attr);
        }
        for (&(eid, i), &pd) in &a.cmp_pd {
            if let Some(&attr) = cmp_attr.get(&(eid, i)) {
                bump(pd, attr, &mut widths);
            }
        }
        widths
    }

    fn attr_id(&self, a: AttrIdx) -> AttrId {
        self.attr_ids[a as usize].expect("prepared")
    }

    fn physdom_id(&self, p: PdIdx) -> PhysDomId {
        self.physdom_ids[p as usize].expect("prepared")
    }

    /// The concrete schema of a variable under the assignment.
    fn var_schema(&self, v: VarIdx) -> Result<Vec<(AttrId, PhysDomId)>, ExecError> {
        let a = &self.compiled.assignment;
        let mut out = Vec::new();
        for &(attr, _) in &self.compiled.typed.vars[v as usize].schema {
            let Some(&pd) = a.var_pd.get(&(v, attr)) else {
                return Err(exec_err(format!(
                    "no physical domain assigned for variable attribute {attr}"
                )));
            };
            out.push((self.attr_id(attr), self.physdom_id(pd)));
        }
        Ok(out)
    }

    /// Loads tuples into a global relation. Tuple columns follow the
    /// attribute order *as written* in the relation's declaration.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown relations or invalid tuples.
    pub fn set_input(&mut self, name: &str, tuples: &[Vec<u64>]) -> Result<(), ExecError> {
        self.prepare()?;
        let Some(v) = self.compiled.typed.global_idx(name) else {
            return Err(exec_err(format!("unknown relation `{name}`")));
        };
        let schema = self.var_schema(v)?;
        // Reorder the schema into the declaration's written order so the
        // caller's column order matches the source text.
        let written = self.compiled.typed.vars[v as usize].written.clone();
        let ordered: Vec<_> = written
            .iter()
            .map(|&w| {
                let aid = self.attr_id(w);
                *schema
                    .iter()
                    .find(|&&(a, _)| a == aid)
                    .expect("written attr")
            })
            .collect();
        let rel = Relation::from_tuples(&self.universe, &ordered, tuples)?;
        self.env[v as usize] = Some(rel);
        Ok(())
    }

    /// Runs a rule to completion.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown rules or runtime failures.
    pub fn run(&mut self, rule: &str) -> Result<(), ExecError> {
        self.prepare()?;
        let Some(ri) = self
            .compiled
            .typed
            .rules
            .iter()
            .position(|r| r.name == rule)
        else {
            return Err(exec_err(format!("unknown rule `{rule}`")));
        };
        let body = self.compiled.typed.rules[ri].body.clone();
        self.universe.set_site(rule);
        let start = Instant::now();
        let result = self.exec_block(&body);
        let stats = &mut self.rule_stats[ri];
        stats.runs += 1;
        stats.nanos += start.elapsed().as_nanos() as u64;
        result
    }

    /// Chooses how statements run. [`Strategy::SemiNaive`] (the default)
    /// re-runs a statement on what its inputs gained whenever that is
    /// exact; [`Strategy::Naive`] forces the full path everywhere and
    /// serves as the oracle. Switching to naive drops every memo.
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.strategy = strategy;
        if strategy == Strategy::Naive {
            self.memo.iter_mut().for_each(|m| *m = None);
        }
    }

    /// Every memoised statement's static plan with its counters, rule by
    /// rule in source order.
    pub fn statement_stats(&self) -> impl Iterator<Item = (&StmtPlan, &StmtStats)> {
        self.compiled.plan.statements.iter().zip(&self.stmt_stats)
    }

    /// Per-rule counters, in declaration order, each summing its
    /// statements.
    pub fn rule_stats(&self) -> Vec<RuleStats> {
        let mut out = self.rule_stats.clone();
        for (plan, stats) in self.statement_stats() {
            if let Some(r) = out.iter_mut().find(|r| r.rule == plan.rule) {
                r.statements.add(stats);
            }
        }
        out
    }

    /// The current value of a relation variable (globals only).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown or uninitialised relations.
    pub fn relation(&self, name: &str) -> Result<&Relation, ExecError> {
        let Some(v) = self.compiled.typed.global_idx(name) else {
            return Err(exec_err(format!("unknown relation `{name}`")));
        };
        self.env[v as usize]
            .as_ref()
            .ok_or_else(|| exec_err(format!("relation `{name}` has no value")))
    }

    /// The tuples of a global relation, sorted, with columns in the
    /// attribute order *as written* in the relation's declaration.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Executor::relation`].
    pub fn tuples(&self, name: &str) -> Result<Vec<Vec<u64>>, ExecError> {
        let v = self
            .compiled
            .typed
            .global_idx(name)
            .ok_or_else(|| exec_err(format!("unknown relation `{name}`")))?;
        let rel = self.relation(name)?;
        let sorted_attrs = rel.attributes();
        let written = &self.compiled.typed.vars[v as usize].written;
        // Column permutation: written position -> sorted position.
        let perm: Vec<usize> = written
            .iter()
            .map(|&w| {
                let aid = self.attr_id(w);
                sorted_attrs
                    .iter()
                    .position(|&a| a == aid)
                    .expect("written attr in schema")
            })
            .collect();
        let mut out: Vec<Vec<u64>> = rel
            .tuples()
            .into_iter()
            .map(|t| perm.iter().map(|&i| t[i]).collect())
            .collect();
        out.sort();
        Ok(out)
    }

    /// The universe backing this execution (for profiler installation and
    /// statistics).
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Installs a resource budget on the execution's BDD manager. Rules
    /// that exhaust it fail with the wrapped
    /// [`jedd_core::JeddError::ResourceExhausted`] error.
    pub fn set_budget(&self, budget: jedd_core::Budget) {
        self.universe.set_budget(budget);
    }

    /// The currently installed resource budget.
    pub fn budget(&self) -> jedd_core::Budget {
        self.universe.budget()
    }

    fn exec_block(&mut self, body: &[TStmt]) -> Result<(), ExecError> {
        for s in body {
            self.exec_stmt(s)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &TStmt) -> Result<(), ExecError> {
        match s {
            TStmt::Local {
                var, init: None, ..
            } => {
                let schema = self.var_schema(*var)?;
                self.env[*var as usize] = Some(Relation::empty(&self.universe, &schema)?);
                Ok(())
            }
            TStmt::Local {
                var, init: Some(e), ..
            } => self.exec_assign(*var, AssignOp::Set, e),
            TStmt::Assign { var, op, expr, .. } => self.exec_assign(*var, *op, expr),
            TStmt::DoWhile { body, cond } => {
                let mut fuel = 1_000_000u64;
                loop {
                    self.exec_block(body)?;
                    if !self.eval_cond(cond)? {
                        return Ok(());
                    }
                    fuel -= 1;
                    if fuel == 0 {
                        return Err(exec_err("do-while failed to converge"));
                    }
                }
            }
            TStmt::While { cond, body } => {
                let mut fuel = 1_000_000u64;
                while self.eval_cond(cond)? {
                    self.exec_block(body)?;
                    fuel -= 1;
                    if fuel == 0 {
                        return Err(exec_err("while failed to converge"));
                    }
                }
                Ok(())
            }
            TStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if self.eval_cond(cond)? {
                    self.exec_block(then_body)
                } else {
                    self.exec_block(else_body)
                }
            }
        }
    }

    /// Runs one memoised statement: on its inputs' deltas when the memo
    /// allows it, otherwise in full. Either way the memo then records
    /// what the statement read and wrote.
    fn exec_assign(&mut self, var: VarIdx, op: AssignOp, e: &TExpr) -> Result<(), ExecError> {
        let start = Instant::now();
        let si = self
            .compiled
            .plan
            .statement_of(e.id)
            .expect("every assignment has a plan");
        let decision = match self.strategy {
            Strategy::Naive => None,
            Strategy::SemiNaive => Some(self.try_delta(si, var, op, e)?),
        };
        let (next, delta_tuples) = match decision {
            Some(Ok((base, deltas))) => match self.eval_delta(e, &deltas)? {
                Some(d) => {
                    let d = self.conform_to_var(d, var)?;
                    let tuples = d.size();
                    (base.union(&d)?, Some(tuples))
                }
                None => (base, Some(0)),
            },
            fallback => {
                if let Some(Err(reason)) = fallback {
                    self.stmt_stats[si].fallbacks[reason.index()] += 1;
                }
                let r = self.eval(e)?;
                let r = self.conform_to_var(r, var)?;
                let next = match (op, self.env[var as usize].as_ref()) {
                    (AssignOp::Set, _) => r,
                    (AssignOp::Union, Some(c)) => c.union(&r)?,
                    (AssignOp::Intersect, Some(c)) => c.intersect(&r)?,
                    (AssignOp::Minus, Some(c)) => c.minus(&r)?,
                    (_, None) => {
                        return Err(exec_err("compound assignment to uninitialised relation"))
                    }
                };
                (next, None)
            }
        };
        if self.strategy == Strategy::SemiNaive
            && self.compiled.plan.statements[si].never_delta.is_none()
        {
            // Capture the inputs before the write: the target may be one.
            let inputs = self
                .compiled
                .plan
                .reads(e.id)
                .iter()
                .map(|&v| self.env[v as usize].clone().expect("read by eval"))
                .collect();
            self.memo[si] = Some(Memo {
                inputs,
                written: next.clone(),
            });
        }
        self.env[var as usize] = Some(next);
        let stats = &mut self.stmt_stats[si];
        stats.executions += 1;
        if let Some(tuples) = delta_tuples {
            stats.delta_executions += 1;
            stats.delta_tuples += tuples;
        }
        stats.nanos += start.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// Decides whether statement `si` may run on deltas. On success,
    /// returns the relation the deltas' result is added to — what the
    /// statement last wrote for `=`, the current target for `|=` — and
    /// the delta of every input that grew since its last run; otherwise
    /// the reason it must run in full. The checks run cheapest first:
    /// root equality, then a subset probe, and only then the
    /// differences.
    fn try_delta(
        &self,
        si: usize,
        var: VarIdx,
        op: AssignOp,
        e: &TExpr,
    ) -> Result<Result<DeltaRun, Fallback>, ExecError> {
        let plan = &self.compiled.plan;
        if let Some(reason) = plan.statements[si].never_delta {
            return Ok(Err(reason));
        }
        let Some(memo) = &self.memo[si] else {
            return Ok(Err(Fallback::FirstRun));
        };
        let mut grown = Vec::new();
        for (&v, last) in plan.reads(e.id).iter().zip(&memo.inputs) {
            let Some(now) = &self.env[v as usize] else {
                return Ok(Err(Fallback::InputShrank));
            };
            if now.equals(last)? {
                continue;
            }
            if !last.is_subset(now)? {
                return Ok(Err(Fallback::InputShrank));
            }
            grown.push((v, now, last));
        }
        // `=` recomputes its target from scratch, so what the statement
        // last wrote is exactly its expression on the last inputs, and
        // whatever happened to the target since does not matter. `|=`
        // adds to the target, which must still contain that last write.
        let base = match (op, &self.env[var as usize]) {
            (AssignOp::Set, _) => memo.written.clone(),
            (_, Some(t)) if t.equals(&memo.written)? || memo.written.is_subset(t)? => t.clone(),
            _ => return Ok(Err(Fallback::TargetRewritten)),
        };
        let vars: Vec<VarIdx> = grown.iter().map(|&(v, _, _)| v).collect();
        if !plan.linear(e, &vars) {
            return Ok(Err(Fallback::Nonlinear));
        }
        let mut gained = Vec::with_capacity(grown.len());
        for (_, now, last) in grown {
            gained.push(now.minus(last)?);
        }
        Ok(Ok((base, Deltas { vars, gained })))
    }

    /// Whether expression `e` reads an input that has a delta.
    fn touched(&self, e: &TExpr, deltas: &Deltas) -> bool {
        self.compiled.plan.touches(e.id, &deltas.vars)
    }

    /// Evaluates what `e` gains from `deltas`, `None` if it reads none of
    /// them. The statement's plan guarantees linearity: a join, compose
    /// or intersect has at most one touched operand, and the right side
    /// of a minus is untouched, so the other operand is evaluated in
    /// full on the current relations.
    fn eval_delta(&mut self, e: &TExpr, deltas: &Deltas) -> Result<Option<Relation>, ExecError> {
        if !self.touched(e, deltas) {
            return Ok(None);
        }
        let result = match &e.kind {
            TExprKind::Var(v) => {
                let i = deltas.vars.iter().position(|d| d == v);
                deltas.gained[i.expect("touched variable has a delta")].clone()
            }
            TExprKind::Empty | TExprKind::Full | TExprKind::Literal(_) => {
                unreachable!("constants read no variable")
            }
            TExprKind::Replace { operand, .. } => {
                let r = self.eval_delta(operand, deltas)?.expect("touched");
                self.replace(e, r)?
            }
            TExprKind::SetOp {
                op: SetOp::Union,
                left,
                right,
            } => {
                let node_schema = self.node_schema(e)?;
                let l = self.eval_delta(left, deltas)?;
                let r = self.eval_delta(right, deltas)?;
                match (l, r) {
                    (Some(l), Some(r)) => {
                        let l = self.conform(l, &node_schema)?;
                        let r = self.conform(r, &node_schema)?;
                        l.union(&r)?
                    }
                    (Some(d), None) | (None, Some(d)) => d,
                    (None, None) => unreachable!("touched"),
                }
            }
            TExprKind::SetOp { op, left, right } => {
                let (l, r) = self.eval_one_sided(left, right, deltas)?;
                self.set_op(e, *op, l, r)?
            }
            TExprKind::JoinLike { left, right, .. } => {
                let (l, r) = self.eval_one_sided(left, right, deltas)?;
                self.join_like(e, l, r)?
            }
        };
        let node_schema = self.node_schema(e)?;
        Ok(Some(self.conform(result, &node_schema)?))
    }

    /// The operands of a bilinear node with exactly one touched side:
    /// that side's delta and the other side's full value.
    fn eval_one_sided(
        &mut self,
        left: &TExpr,
        right: &TExpr,
        deltas: &Deltas,
    ) -> Result<(Relation, Relation), ExecError> {
        if self.touched(left, deltas) {
            let l = self.eval_delta(left, deltas)?.expect("touched");
            Ok((l, self.eval(right)?))
        } else {
            let l = self.eval(left)?;
            Ok((l, self.eval_delta(right, deltas)?.expect("touched")))
        }
    }

    fn eval_cond(&mut self, c: &TCond) -> Result<bool, ExecError> {
        // Constant sides never need alignment: `x == 0B` is an emptiness
        // test, and `x == 1B` compares against a full relation built
        // directly on `x`'s current physical domains. Both avoid the
        // schema-alignment replace `equals` would otherwise perform.
        let eq = match (&c.left.kind, &c.right.kind) {
            (TExprKind::Empty, _) => self.eval(&c.right)?.is_empty(),
            (_, TExprKind::Empty) => self.eval(&c.left)?.is_empty(),
            (TExprKind::Full, _) => {
                let r = self.eval(&c.right)?;
                r.equals(&Relation::full(&self.universe, r.schema())?)?
            }
            (_, TExprKind::Full) => {
                let l = self.eval(&c.left)?;
                l.equals(&Relation::full(&self.universe, l.schema())?)?
            }
            _ => {
                let l = self.eval(&c.left)?;
                let r = self.eval(&c.right)?;
                l.equals(&r)?
            }
        };
        Ok(if c.eq { eq } else { !eq })
    }

    /// The assigned schema of an expression node.
    fn node_schema(&self, e: &TExpr) -> Result<Vec<(AttrId, PhysDomId)>, ExecError> {
        let a = &self.compiled.assignment;
        let mut out = Vec::new();
        for &attr in &e.schema {
            let Some(&pd) = a.expr_pd.get(&(e.id, attr)) else {
                return Err(exec_err(format!(
                    "expression at {} has no assignment for attribute {attr}",
                    e.pos
                )));
            };
            out.push((self.attr_id(attr), self.physdom_id(pd)));
        }
        Ok(out)
    }

    /// Moves a relation onto an expression node's assigned physical
    /// domains, counting any real replace work.
    fn conform(
        &mut self,
        r: Relation,
        target: &[(AttrId, PhysDomId)],
    ) -> Result<Relation, ExecError> {
        let mut moves = Vec::new();
        for &(a, p) in target {
            if r.physdom_of(a) != Some(p) {
                moves.push((a, p));
            }
        }
        if moves.is_empty() {
            return Ok(r);
        }
        self.replaces += 1;
        Ok(r.with_assignment(&moves)?)
    }

    fn conform_to_var(&mut self, r: Relation, v: VarIdx) -> Result<Relation, ExecError> {
        let schema = self.var_schema(v)?;
        self.conform(r, &schema)
    }

    fn eval(&mut self, e: &TExpr) -> Result<Relation, ExecError> {
        let node_schema = self.node_schema(e)?;
        let result = match &e.kind {
            TExprKind::Var(v) => self.env[*v as usize]
                .clone()
                .ok_or_else(|| exec_err("use of uninitialised relation"))?,
            TExprKind::Empty => Relation::empty(&self.universe, &node_schema)?,
            TExprKind::Full => Relation::full(&self.universe, &node_schema)?,
            TExprKind::Literal(fields) => self.literal(fields, &node_schema)?,
            TExprKind::Replace { operand, .. } => {
                let r = self.eval(operand)?;
                self.replace(e, r)?
            }
            TExprKind::JoinLike { left, right, .. } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                self.join_like(e, l, r)?
            }
            TExprKind::SetOp { op, left, right } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                self.set_op(e, *op, l, r)?
            }
        };
        self.conform(result, &node_schema)
    }

    fn literal(
        &self,
        fields: &[(TLiteralObj, AttrIdx, Option<PdIdx>)],
        node_schema: &[(AttrId, PhysDomId)],
    ) -> Result<Relation, ExecError> {
        let mut concrete = Vec::new();
        for (obj, attr, _) in fields {
            let aid = self.attr_id(*attr);
            let pd = node_schema
                .iter()
                .find(|&&(a, _)| a == aid)
                .map(|&(_, p)| p)
                .expect("literal attr in node schema");
            let value = match obj {
                TLiteralObj::Index(n) => *n,
                TLiteralObj::Label(l) => {
                    let d = self.universe.attribute_domain(aid);
                    self.universe.element_index(d, l).ok_or_else(|| {
                        exec_err(format!(
                            "`{l}` is not an element of domain {}",
                            self.universe.domain_name(d)
                        ))
                    })?
                }
            };
            concrete.push((aid, pd, value));
        }
        Ok(Relation::tuple(&self.universe, &concrete)?)
    }

    /// Applies replace node `e`'s projections, copies and renames to its
    /// evaluated operand.
    fn replace(&mut self, e: &TExpr, mut r: Relation) -> Result<Relation, ExecError> {
        let TExprKind::Replace {
            projects,
            renames,
            copies,
            ..
        } = &e.kind
        else {
            unreachable!("replace node")
        };
        if !projects.is_empty() {
            let attrs: Vec<AttrId> = projects.iter().map(|&a| self.attr_id(a)).collect();
            r = r.project_away(&attrs)?;
        }
        for &(f, t1, t2) in copies {
            // Copy into a free domain beside `f`'s (a scratch one if none
            // is free); the final conform moves everything onto the
            // assigned domains in one step.
            r = r.copy(self.attr_id(f), self.attr_id(t1), self.attr_id(t2), None)?;
        }
        if !renames.is_empty() {
            let pairs: Vec<(AttrId, AttrId)> = renames
                .iter()
                .map(|&(f, t)| (self.attr_id(f), self.attr_id(t)))
                .collect();
            r = r.rename_many(&pairs)?;
        }
        Ok(r)
    }

    /// Joins or composes the evaluated operands of node `e`.
    fn join_like(&mut self, e: &TExpr, l: Relation, r: Relation) -> Result<Relation, ExecError> {
        let TExprKind::JoinLike {
            left,
            left_attrs,
            right,
            right_attrs,
            is_join,
        } = &e.kind
        else {
            unreachable!("join-like node")
        };
        let a = &self.compiled.assignment;
        // Targets: compared attrs onto the merged occurrence's domain,
        // kept attrs onto this node's domains.
        let merged_pd = |i: usize| -> Result<PhysDomId, ExecError> {
            if *is_join {
                let attr = left_attrs[i];
                let pd = a
                    .expr_pd
                    .get(&(e.id, attr))
                    .ok_or_else(|| exec_err("missing join assignment"))?;
                Ok(self.physdom_id(*pd))
            } else {
                let pd = a
                    .cmp_pd
                    .get(&(e.id, i))
                    .ok_or_else(|| exec_err("missing compose assignment"))?;
                Ok(self.physdom_id(*pd))
            }
        };
        let target = |operand: &TExpr, compared: &[AttrIdx]| {
            operand
                .schema
                .iter()
                .map(|&attr| {
                    let pd = match compared.iter().position(|&x| x == attr) {
                        Some(i) => merged_pd(i)?,
                        None => self.physdom_id(a.expr_pd[&(e.id, attr)]),
                    };
                    Ok((self.attr_id(attr), pd))
                })
                .collect::<Result<Vec<_>, ExecError>>()
        };
        let l_target = target(left, left_attrs)?;
        let r_target = target(right, right_attrs)?;
        let l = self.conform(l, &l_target)?;
        let r = self.conform(r, &r_target)?;
        let la: Vec<AttrId> = left_attrs.iter().map(|&x| self.attr_id(x)).collect();
        let ra: Vec<AttrId> = right_attrs.iter().map(|&x| self.attr_id(x)).collect();
        Ok(if *is_join {
            l.join(&la, &r, &ra)?
        } else {
            l.compose(&la, &r, &ra)?
        })
    }

    /// Applies set operator `op` of node `e` to its evaluated operands.
    fn set_op(
        &mut self,
        e: &TExpr,
        op: SetOp,
        l: Relation,
        r: Relation,
    ) -> Result<Relation, ExecError> {
        let node_schema = self.node_schema(e)?;
        let l = self.conform(l, &node_schema)?;
        let r = self.conform(r, &node_schema)?;
        Ok(match op {
            SetOp::Union => l.union(&r)?,
            SetOp::Intersect => l.intersect(&r)?,
            SetOp::Minus => l.minus(&r)?,
        })
    }
}

fn collect_cmp_attrs(body: &[TStmt], out: &mut HashMap<(u32, usize), AttrIdx>) {
    fn walk_expr(e: &TExpr, out: &mut HashMap<(u32, usize), AttrIdx>) {
        match &e.kind {
            TExprKind::JoinLike {
                left,
                left_attrs,
                right,
                is_join,
                ..
            } => {
                if !is_join {
                    for (i, &la) in left_attrs.iter().enumerate() {
                        out.insert((e.id, i), la);
                    }
                }
                walk_expr(left, out);
                walk_expr(right, out);
            }
            TExprKind::Replace { operand, .. } => walk_expr(operand, out),
            TExprKind::SetOp { left, right, .. } => {
                walk_expr(left, out);
                walk_expr(right, out);
            }
            _ => {}
        }
    }
    for s in body {
        match s {
            TStmt::Local { init: Some(e), .. } => walk_expr(e, out),
            TStmt::Local { .. } => {}
            TStmt::Assign { expr, .. } => walk_expr(expr, out),
            TStmt::DoWhile { body, cond } | TStmt::While { cond, body } => {
                walk_expr(&cond.left, out);
                walk_expr(&cond.right, out);
                collect_cmp_attrs(body, out);
            }
            TStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                walk_expr(&cond.left, out);
                walk_expr(&cond.right, out);
                collect_cmp_attrs(then_body, out);
                collect_cmp_attrs(else_body, out);
            }
        }
    }
}
