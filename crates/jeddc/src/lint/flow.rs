//! The dataflow passes: definite assignment (forward, must) and liveness
//! (backward, may).
//!
//! Both run on the shared [`Cfg`]. Definite assignment tracks the set of
//! variables assigned on *every* path (meet = intersection) and warns
//! when a rule-local declared without an initialiser is read before some
//! path has stored to it. Liveness tracks the set of variables whose
//! current value *may* still be read (join = union, seeded at the exit
//! with the globals, which are the rule's outputs) and warns about stores
//! whose value no path ever reads, plus rule-locals that are never read
//! at all.

use super::cfg::{Cfg, Event};
use crate::check::{TRule, TypedProgram, VarIdx};
use crate::diag::{Diagnostic, Severity};

/// A dense bitset over variable indices.
#[derive(Clone, PartialEq, Eq)]
struct VarSet {
    bits: Vec<bool>,
}

impl VarSet {
    fn empty(n: usize) -> VarSet {
        VarSet {
            bits: vec![false; n],
        }
    }

    fn full(n: usize) -> VarSet {
        VarSet {
            bits: vec![true; n],
        }
    }

    fn insert(&mut self, v: VarIdx) {
        self.bits[v as usize] = true;
    }

    fn remove(&mut self, v: VarIdx) {
        self.bits[v as usize] = false;
    }

    fn contains(&self, v: VarIdx) -> bool {
        self.bits[v as usize]
    }

    fn intersect_with(&mut self, other: &VarSet) {
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a = *a && *b;
        }
    }

    fn union_with(&mut self, other: &VarSet) {
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a = *a || *b;
        }
    }
}

/// Runs definite assignment over one rule, appending diagnostics.
pub fn definite_assignment(prog: &TypedProgram, rule: &TRule, out: &mut Vec<Diagnostic>) {
    let cfg = Cfg::build(&rule.body);
    let n = prog.vars.len();

    // Entry state: globals are always assigned (the executor initialises
    // them before any rule runs); locals are not.
    let mut entry = VarSet::empty(n);
    for (i, v) in prog.vars.iter().enumerate() {
        if v.global {
            entry.insert(i as VarIdx);
        }
    }

    // Forward must-analysis: in[b] = ∩ out[preds]; start everything at
    // top (all assigned) except the entry, and iterate to fixpoint.
    let mut ins: Vec<VarSet> = vec![VarSet::full(n); cfg.blocks.len()];
    ins[cfg.entry] = entry;
    let mut work: Vec<usize> = (0..cfg.blocks.len()).collect();
    while let Some(b) = work.pop() {
        let mut out_state = ins[b].clone();
        transfer_assigned(&cfg.blocks[b].events, &mut out_state);
        for &s in &cfg.blocks[b].succs {
            let mut next = ins[s].clone();
            next.intersect_with(&out_state);
            if next != ins[s] {
                ins[s] = next;
                if !work.contains(&s) {
                    work.push(s);
                }
            }
        }
    }

    // Report: walk each block with its fixpoint in-state; a read of a
    // local that is not definitely assigned fires once per variable, at
    // the earliest offending read.
    let mut firing: Vec<Option<Diagnostic>> = vec![None; n];
    for (b, block) in cfg.blocks.iter().enumerate() {
        let mut state = ins[b].clone();
        for ev in &block.events {
            match ev {
                Event::Read { var, pos } => {
                    if !state.contains(*var) && !prog.vars[*var as usize].global {
                        let name = &prog.vars[*var as usize].name;
                        let d = Diagnostic {
                            severity: Severity::Warning,
                            lint: Some("definite-assignment"),
                            pos: *pos,
                            message: format!("relation `{name}` may be read before it is assigned"),
                            suggestion: Some(format!(
                                "give `{name}` an initialiser, or assign it on every path \
                                 before this read"
                            )),
                        };
                        let slot = &mut firing[*var as usize];
                        let earlier = slot
                            .as_ref()
                            .is_some_and(|p| (p.pos.line, p.pos.col) <= (pos.line, pos.col));
                        if !earlier {
                            *slot = Some(d);
                        }
                    }
                }
                Event::Decl { var, init, .. } => {
                    if *init {
                        state.insert(*var);
                    }
                }
                Event::Store { var, .. } => state.insert(*var),
            }
        }
    }
    out.extend(firing.into_iter().flatten());
}

fn transfer_assigned(events: &[Event], state: &mut VarSet) {
    for ev in events {
        match ev {
            Event::Decl {
                var, init: true, ..
            }
            | Event::Store { var, .. } => state.insert(*var),
            _ => {}
        }
    }
}

/// Runs liveness over one rule, appending dead-store and never-read
/// diagnostics.
pub fn liveness(prog: &TypedProgram, rule: &TRule, out: &mut Vec<Diagnostic>) {
    let cfg = Cfg::build(&rule.body);
    let n = prog.vars.len();

    // Syntactic read counts decide `never-read`: a rule-local with zero
    // reads anywhere gets one diagnostic at its declaration and is then
    // exempt from per-store dead-store reports.
    let mut read_anywhere = VarSet::empty(n);
    let mut declared_here: Vec<Option<crate::diag::Pos>> = vec![None; n];
    for block in &cfg.blocks {
        for ev in &block.events {
            match ev {
                Event::Read { var, .. } => read_anywhere.insert(*var),
                Event::Decl { var, pos, .. } => declared_here[*var as usize] = Some(*pos),
                Event::Store { .. } => {}
            }
        }
    }
    let mut never_read = VarSet::empty(n);
    for (i, v) in prog.vars.iter().enumerate() {
        let Some(pos) = declared_here[i] else {
            continue;
        };
        if v.global || read_anywhere.contains(i as VarIdx) {
            continue;
        }
        never_read.insert(i as VarIdx);
        out.push(Diagnostic {
            severity: Severity::Warning,
            lint: Some("never-read"),
            pos,
            message: format!("relation `{}` is never read", v.name),
            suggestion: Some(format!("remove `{}` or use its value", v.name)),
        });
    }

    // Backward may-analysis: live-out[exit] = globals (rule outputs);
    // out[b] = ∪ in[succs].
    let mut exit_live = VarSet::empty(n);
    for (i, v) in prog.vars.iter().enumerate() {
        if v.global {
            exit_live.insert(i as VarIdx);
        }
    }
    let mut outs: Vec<VarSet> = vec![VarSet::empty(n); cfg.blocks.len()];
    outs[cfg.exit] = exit_live;
    let mut work: Vec<usize> = (0..cfg.blocks.len()).collect();
    while let Some(b) = work.pop() {
        let mut in_state = outs[b].clone();
        transfer_live(&cfg.blocks[b].events, &mut in_state);
        for &p in &cfg.blocks[b].preds {
            let mut next = outs[p].clone();
            next.union_with(&in_state);
            if next != outs[p] {
                outs[p] = next;
                if !work.contains(&p) {
                    work.push(p);
                }
            }
        }
    }

    // Report: walk each block backwards with its fixpoint out-state; a
    // store to a local that is not live afterwards is dead.
    for (b, block) in cfg.blocks.iter().enumerate() {
        let mut state = outs[b].clone();
        for ev in block.events.iter().rev() {
            match ev {
                Event::Read { var, .. } => state.insert(*var),
                Event::Store { var, pos, .. } => {
                    let local = !prog.vars[*var as usize].global;
                    if local && !state.contains(*var) && !never_read.contains(*var) {
                        let name = &prog.vars[*var as usize].name;
                        out.push(Diagnostic {
                            severity: Severity::Warning,
                            lint: Some("dead-store"),
                            pos: *pos,
                            message: format!("value stored to `{name}` is never read"),
                            suggestion: Some("remove this assignment".to_string()),
                        });
                    }
                    state.remove(*var);
                }
                Event::Decl { var, init, pos } => {
                    if *init {
                        let local = !prog.vars[*var as usize].global;
                        if local && !state.contains(*var) && !never_read.contains(*var) {
                            let name = &prog.vars[*var as usize].name;
                            out.push(Diagnostic {
                                severity: Severity::Warning,
                                lint: Some("dead-store"),
                                pos: *pos,
                                message: format!("initialiser of `{name}` is never read"),
                                suggestion: Some(
                                    "drop the initialiser or use its value".to_string(),
                                ),
                            });
                        }
                    }
                    state.remove(*var);
                }
            }
        }
    }
}

fn transfer_live(events: &[Event], state: &mut VarSet) {
    for ev in events.iter().rev() {
        match ev {
            Event::Read { var, .. } => state.insert(*var),
            Event::Store { var, .. } | Event::Decl { var, .. } => state.remove(*var),
        }
    }
}
