//! The CDCL solver: two-watched-literal propagation, VSIDS decisions,
//! first-UIP clause learning, Luby restarts and unsatisfiable-core
//! tracking.

use crate::lit::{LBool, Lit, Var};

/// Identifier of an *original* (problem) clause, as returned by
/// [`Solver::add_clause`]. Used to report unsatisfiable cores.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ClauseId(pub u32);

/// The outcome of [`Solver::solve`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatOutcome {
    /// A satisfying assignment was found; read it with
    /// [`Solver::model_value`].
    Sat,
    /// The formula is unsatisfiable; an unsat core of original clauses is
    /// available from [`Solver::unsat_core`].
    Unsat,
}

/// Search statistics, exposed for the paper's Table 1 harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decision variables chosen.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of conflicts analysed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learned clauses currently stored.
    pub learned_clauses: u64,
}

#[derive(Clone, Debug)]
struct Clause {
    lits: Vec<Lit>,
    /// `None` for learned clauses, `Some(id)` for original clauses.
    original: Option<ClauseId>,
    /// Original-clause ids used to derive this clause (resolution
    /// footprint). For original clauses this is just `[id]`.
    footprint: Vec<ClauseId>,
}

const INVALID: u32 = u32::MAX;

/// A CDCL boolean-satisfiability solver.
///
/// Mirrors the role zchaff plays in the Jedd translator: deciding the
/// physical-domain-assignment CNF and, when unsatisfiable, producing a
/// small core used for error reporting (paper §3.3.3, citing \[30\]).
///
/// # Examples
///
/// ```
/// use jedd_sat::{Solver, SatOutcome};
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[a.positive(), b.positive()]);
/// s.add_clause(&[a.negative()]);
/// assert_eq!(s.solve(), SatOutcome::Sat);
/// assert!(!s.model_value(a));
/// assert!(s.model_value(b));
/// ```
#[derive(Debug, Default)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// Watch lists indexed by `Lit::code()`: clause indices watching the
    /// literal.
    watches: Vec<Vec<u32>>,
    assign: Vec<LBool>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Reason clause index for each implied variable (INVALID for
    /// decisions / unassigned).
    reason: Vec<u32>,
    /// Assignment trail.
    trail: Vec<Lit>,
    /// Trail index where each decision level starts.
    trail_lim: Vec<usize>,
    /// Next trail position to propagate.
    qhead: usize,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    var_inc: f64,
    /// Decision candidates: a binary max-heap of variable indices ordered
    /// by activity, ties to the lower index. Every unassigned variable is
    /// in it; assigned ones leave lazily when they reach the top.
    heap: Vec<u32>,
    /// Position of each variable in `heap` (INVALID when absent).
    heap_pos: Vec<u32>,
    /// Saved phases for decision polarity.
    phase: Vec<bool>,
    next_original: u32,
    /// Set after solve(): the unsat core (original clause ids).
    core: Vec<ClauseId>,
    /// True when an empty clause was added directly.
    has_empty_clause: Option<Vec<ClauseId>>,
    /// Unit clauses pending until solve (enqueued at level 0).
    pending_units: Vec<(Lit, u32)>,
    stats: SolverStats,
    solved: Option<SatOutcome>,
    /// Test-only reference: pick decisions by a linear scan.
    #[cfg(test)]
    scan_picker: bool,
    /// Test-only record of every decision literal, in order.
    #[cfg(test)]
    decisions_made: Vec<Lit>,
    /// Test-only count of activity rescales.
    #[cfg(test)]
    rescales: u32,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(INVALID);
        self.activity.push(0.0);
        self.heap_pos.push(INVALID);
        self.heap_insert(v.index());
        self.phase.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Allocates `n` fresh variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of original (problem) clauses added.
    pub fn num_clauses(&self) -> usize {
        self.next_original as usize
    }

    /// Total number of literals over all original clauses.
    pub fn num_literals(&self) -> usize {
        self.clauses
            .iter()
            .filter(|c| c.original.is_some())
            .map(|c| c.lits.len())
            .sum()
    }

    /// Search statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Adds a problem clause and returns its id.
    ///
    /// Duplicate literals are removed; tautological clauses (containing
    /// `l` and `!l`) are kept as ids but never constrain the search.
    ///
    /// # Panics
    ///
    /// Panics if a literal refers to a variable that was not allocated,
    /// or if called after [`Solver::solve`].
    pub fn add_clause(&mut self, lits: &[Lit]) -> ClauseId {
        assert!(self.solved.is_none(), "add_clause after solve");
        let id = ClauseId(self.next_original);
        self.next_original += 1;
        let mut ls: Vec<Lit> = lits.to_vec();
        for l in &ls {
            assert!(
                l.var().index() < self.assign.len(),
                "literal {l} uses an unallocated variable"
            );
        }
        ls.sort_unstable();
        ls.dedup();
        // Tautology check.
        for w in ls.windows(2) {
            if w[0].var() == w[1].var() {
                return id; // contains l and !l: always satisfied
            }
        }
        match ls.len() {
            0 => {
                if self.has_empty_clause.is_none() {
                    self.has_empty_clause = Some(vec![id]);
                }
            }
            1 => {
                let cref = self.clauses.len() as u32;
                self.clauses.push(Clause {
                    lits: ls.clone(),
                    original: Some(id),
                    footprint: vec![id],
                });
                self.pending_units.push((ls[0], cref));
            }
            _ => {
                let cref = self.clauses.len() as u32;
                self.clauses.push(Clause {
                    lits: ls.clone(),
                    original: Some(id),
                    footprint: vec![id],
                });
                self.watch(ls[0], cref);
                self.watch(ls[1], cref);
            }
        }
        id
    }

    fn watch(&mut self, lit: Lit, cref: u32) {
        self.watches[lit.code()].push(cref);
    }

    #[inline]
    fn value(&self, lit: Lit) -> LBool {
        match self.assign[lit.var().index()] {
            LBool::Undef => LBool::Undef,
            LBool::True => LBool::from_bool(lit.is_positive()),
            LBool::False => LBool::from_bool(!lit.is_positive()),
        }
    }

    fn enqueue(&mut self, lit: Lit, reason: u32) -> bool {
        match self.value(lit) {
            LBool::True => true,
            LBool::False => false,
            LBool::Undef => {
                let v = lit.var().index();
                self.assign[v] = LBool::from_bool(lit.is_positive());
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.phase[v] = lit.is_positive();
                self.trail.push(lit);
                self.stats.propagations += 1;
                true
            }
        }
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Unit propagation. Returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let mut i = 0;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            while i < ws.len() {
                let cref = ws[i];
                // Make sure false_lit is at position 1.
                let (l0, l1) = {
                    let c = &mut self.clauses[cref as usize];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    (c.lits[0], c.lits[1])
                };
                debug_assert_eq!(l1, false_lit);
                if self.value(l0) == LBool::True {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                let len = self.clauses[cref as usize].lits.len();
                for k in 2..len {
                    let lk = self.clauses[cref as usize].lits[k];
                    if self.value(lk) != LBool::False {
                        self.clauses[cref as usize].lits.swap(1, k);
                        self.watches[lk.code()].push(cref);
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                if self.value(l0) == LBool::False {
                    self.watches[false_lit.code()] = ws;
                    // Re-append the remaining watches we haven't processed:
                    // they are already in ws, which we just restored.
                    return Some(cref);
                }
                let ok = self.enqueue(l0, cref);
                debug_assert!(ok);
                i += 1;
            }
            self.watches[false_lit.code()] = ws;
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            #[cfg(test)]
            {
                self.rescales += 1;
            }
            // Scaling can round distinct activities to equal ones, which
            // hands the order to the index tie-break: rebuild the heap.
            self.heap_rebuild();
        } else if self.heap_pos[v.index()] != INVALID {
            self.heap_up(self.heap_pos[v.index()] as usize);
        }
    }

    /// Whether variable `a` is picked before `b`: higher activity first,
    /// ties to the lower index (the order a linear scan would pick in).
    #[inline]
    fn heap_before(&self, a: u32, b: u32) -> bool {
        let (x, y) = (self.activity[a as usize], self.activity[b as usize]);
        x > y || (x == y && a < b)
    }

    fn heap_rebuild(&mut self) {
        for i in (0..self.heap.len() / 2).rev() {
            self.heap_down(i);
        }
    }

    fn heap_insert(&mut self, v: usize) {
        if self.heap_pos[v] != INVALID {
            return;
        }
        self.heap_pos[v] = self.heap.len() as u32;
        self.heap.push(v as u32);
        self.heap_up(self.heap.len() - 1);
    }

    fn heap_up(&mut self, mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !self.heap_before(v, p) {
                break;
            }
            self.heap[i] = p;
            self.heap_pos[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.heap_pos[v as usize] = i as u32;
    }

    fn heap_down(&mut self, mut i: usize) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child =
                if right < self.heap.len() && self.heap_before(self.heap[right], self.heap[left]) {
                    right
                } else {
                    left
                };
            let c = self.heap[child];
            if !self.heap_before(c, v) {
                break;
            }
            self.heap[i] = c;
            self.heap_pos[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.heap_pos[v as usize] = i as u32;
    }

    fn heap_pop(&mut self) -> Option<usize> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.heap_pos[top as usize] = INVALID;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_down(0);
        }
        Some(top as usize)
    }

    /// First-UIP conflict analysis. Returns the learned clause, the
    /// backtrack level and the footprint of the derivation.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32, Vec<ClauseId>) {
        let mut learnt: Vec<Lit> = Vec::new();
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut cref = confl;
        let mut idx = self.trail.len();
        let mut footprint: Vec<ClauseId> = Vec::new();
        let cur_level = self.decision_level();

        loop {
            {
                let c = &self.clauses[cref as usize];
                footprint.extend_from_slice(&c.footprint);
            }
            let lits = self.clauses[cref as usize].lits.clone();
            for &q in &lits {
                if Some(q) == p {
                    continue;
                }
                let v = q.var();
                if !seen[v.index()] && self.level[v.index()] > 0 {
                    seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next literal on the trail to resolve on.
            loop {
                idx -= 1;
                let l = self.trail[idx];
                if seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.unwrap().var();
            seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt.push(!p.unwrap());
                break;
            }
            cref = self.reason[pv.index()];
            debug_assert_ne!(cref, INVALID);
        }
        // The asserting literal goes first.
        let n = learnt.len();
        learnt.swap(0, n - 1);
        // Backtrack level: second-highest level in the clause.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        footprint.sort_unstable();
        footprint.dedup();
        (learnt, bt, footprint)
    }

    fn backtrack(&mut self, to_level: u32) {
        while self.decision_level() > to_level {
            let start = self.trail_lim.pop().unwrap();
            while self.trail.len() > start {
                let l = self.trail.pop().unwrap();
                let v = l.var().index();
                self.assign[v] = LBool::Undef;
                self.reason[v] = INVALID;
                self.heap_insert(v);
            }
        }
        self.qhead = self.trail.len();
    }

    /// The unassigned variable with the highest activity (lowest index
    /// among equals), at its saved phase.
    fn pick_branch(&mut self) -> Option<Lit> {
        #[cfg(test)]
        if self.scan_picker {
            return self.pick_branch_scan();
        }
        while let Some(v) = self.heap_pop() {
            if self.assign[v] == LBool::Undef {
                return Some(Var(v as u32).lit(self.phase[v]));
            }
        }
        None
    }

    /// Reference picker for the heap: scans every variable.
    #[cfg(test)]
    fn pick_branch_scan(&mut self) -> Option<Lit> {
        let mut best: Option<usize> = None;
        for v in 0..self.num_vars() {
            if self.assign[v] == LBool::Undef {
                match best {
                    None => best = Some(v),
                    Some(b) if self.activity[v] > self.activity[b] => best = Some(v),
                    _ => {}
                }
            }
        }
        best.map(|v| Var(v as u32).lit(self.phase[v]))
    }

    /// Computes the level-0 core closure starting from a conflicting
    /// clause: footprints of the clause and of all reasons transitively.
    fn root_core(&self, confl: u32) -> Vec<ClauseId> {
        let mut core: Vec<ClauseId> = Vec::new();
        let mut seen_clause = std::collections::HashSet::new();
        let mut seen_var = vec![false; self.num_vars()];
        let mut stack = vec![confl];
        while let Some(cref) = stack.pop() {
            if !seen_clause.insert(cref) {
                continue;
            }
            let c = &self.clauses[cref as usize];
            core.extend_from_slice(&c.footprint);
            for &l in &c.lits {
                let v = l.var().index();
                if !seen_var[v] {
                    seen_var[v] = true;
                    let r = self.reason[v];
                    if r != INVALID {
                        stack.push(r);
                    }
                }
            }
        }
        core.sort_unstable();
        core.dedup();
        core
    }

    /// Runs the CDCL search to completion.
    ///
    /// Can be called once; subsequent calls return the cached outcome.
    pub fn solve(&mut self) -> SatOutcome {
        if let Some(o) = self.solved {
            return o;
        }
        let outcome = self.solve_inner();
        self.solved = Some(outcome);
        outcome
    }

    fn solve_inner(&mut self) -> SatOutcome {
        if let Some(core) = self.has_empty_clause.take() {
            self.core = core;
            return SatOutcome::Unsat;
        }
        self.var_inc = 1.0;
        // Enqueue pending unit clauses at level 0.
        let units = std::mem::take(&mut self.pending_units);
        for (lit, cref) in units {
            if !self.enqueue(lit, cref) {
                // Conflicting units: core is the two unit clauses.
                let this = self.clauses[cref as usize].footprint.clone();
                let other_ref = self.reason[lit.var().index()];
                let mut core = this;
                if other_ref != INVALID {
                    core.extend_from_slice(&self.clauses[other_ref as usize].footprint);
                }
                core.sort_unstable();
                core.dedup();
                self.core = core;
                return SatOutcome::Unsat;
            }
        }
        let mut conflicts_since_restart = 0u64;
        let mut restart_idx = 1u64;
        let mut restart_limit = 32 * luby(restart_idx);
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.core = self.root_core(confl);
                    return SatOutcome::Unsat;
                }
                let (learnt, bt, footprint) = self.analyze(confl);
                self.backtrack(bt);
                if learnt.len() == 1 {
                    let cref = self.clauses.len() as u32;
                    self.clauses.push(Clause {
                        lits: learnt.clone(),
                        original: None,
                        footprint,
                    });
                    self.stats.learned_clauses += 1;
                    let ok = self.enqueue(learnt[0], cref);
                    if !ok {
                        let core = self.root_core(cref);
                        self.core = core;
                        return SatOutcome::Unsat;
                    }
                } else {
                    let cref = self.clauses.len() as u32;
                    let l0 = learnt[0];
                    let l1 = learnt[1];
                    self.clauses.push(Clause {
                        lits: learnt,
                        original: None,
                        footprint,
                    });
                    self.stats.learned_clauses += 1;
                    self.watch(l0, cref);
                    self.watch(l1, cref);
                    let ok = self.enqueue(l0, cref);
                    debug_assert!(ok);
                }
                self.var_inc *= 1.0 / 0.95;
            } else {
                if conflicts_since_restart >= restart_limit {
                    conflicts_since_restart = 0;
                    restart_idx += 1;
                    restart_limit = 32 * luby(restart_idx);
                    self.stats.restarts += 1;
                    self.backtrack(0);
                }
                match self.pick_branch() {
                    None => return SatOutcome::Sat,
                    Some(lit) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(lit, INVALID);
                        #[cfg(test)]
                        self.decisions_made.push(lit);
                        debug_assert!(ok);
                    }
                }
            }
        }
    }

    /// The value of `v` in the satisfying assignment.
    ///
    /// # Panics
    ///
    /// Panics if the solver has not returned [`SatOutcome::Sat`].
    pub fn model_value(&self, v: Var) -> bool {
        assert_eq!(
            self.solved,
            Some(SatOutcome::Sat),
            "model_value requires a SAT outcome"
        );
        match self.assign[v.index()] {
            LBool::True => true,
            LBool::False => false,
            // Unconstrained variables default to their saved phase.
            LBool::Undef => self.phase[v.index()],
        }
    }

    /// The unsatisfiable core: a subset of original clause ids whose
    /// conjunction is unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if the solver has not returned [`SatOutcome::Unsat`].
    pub fn unsat_core(&self) -> &[ClauseId] {
        assert_eq!(
            self.solved,
            Some(SatOutcome::Unsat),
            "unsat_core requires an UNSAT outcome"
        );
        &self.core
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...), 1-indexed.
fn luby(mut i: u64) -> u64 {
    loop {
        if (i + 1).is_power_of_two() {
            return i.div_ceil(2);
        }
        let k = 63 - (i + 1).leading_zeros() as u64; // floor(log2(i+1))
        i = i - (1u64 << k) + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jedd_bdd::rng::XorShift64Star;

    /// A random 3-CNF over `vars` variables with `clauses` clauses.
    fn random_3cnf(rng: &mut XorShift64Star, vars: usize, clauses: usize) -> Vec<Vec<Lit>> {
        (0..clauses)
            .map(|_| {
                (0..3)
                    .map(|_| Var(rng.gen_index(0..vars) as u32).lit(rng.gen_bool(0.5)))
                    .collect()
            })
            .collect()
    }

    /// Solves `cnf` with the heap picker and with the linear-scan
    /// reference, asserting identical decisions, outcomes and models.
    /// `activity` presets the variables' starting activities (empty: all
    /// zero).
    fn assert_pickers_agree(vars: usize, cnf: &[Vec<Lit>], activity: &[f64]) -> Solver {
        let run = |scan: bool| {
            let mut s = Solver::new();
            s.scan_picker = scan;
            s.new_vars(vars);
            if !activity.is_empty() {
                s.activity.copy_from_slice(activity);
                s.heap_rebuild();
            }
            for c in cnf {
                s.add_clause(c);
            }
            s.solve();
            s
        };
        let (heap, scan) = (run(false), run(true));
        assert_eq!(
            heap.decisions_made, scan.decisions_made,
            "decision trails differ"
        );
        assert_eq!(heap.solved, scan.solved);
        assert_eq!(heap.stats, scan.stats);
        if heap.solved == Some(SatOutcome::Sat) {
            for v in 0..vars {
                let v = Var(v as u32);
                assert_eq!(
                    heap.model_value(v),
                    scan.model_value(v),
                    "model differs at {v:?}"
                );
            }
        }
        heap
    }

    #[test]
    fn heap_picker_matches_linear_scan_on_random_cnfs() {
        let mut rng = XorShift64Star::new(0x4ea9);
        let mut sat = 0;
        for case in 0..64 {
            let vars = 20 + case % 40;
            // Around the 3-SAT threshold (ratio ~4.26), both outcomes occur.
            let clauses = vars * (380 + rng.gen_index(0..90)) / 100;
            let cnf = random_3cnf(&mut rng, vars, clauses);
            let s = assert_pickers_agree(vars, &cnf, &[]);
            sat += usize::from(s.solved == Some(SatOutcome::Sat));
        }
        assert!(
            sat > 0 && sat < 64,
            "want both outcomes, got {sat} sat of 64"
        );
    }

    #[test]
    fn heap_picker_survives_an_activity_rescale() {
        // Even variables start past the 1e100 threshold, so the first
        // conflict rescales. Odd ones start tiny and increasing with the
        // index; the rescale flushes them to zero, where the order flips
        // to the index tie-break.
        let mut rng = XorShift64Star::new(0x4eaa);
        let vars = 100;
        let cnf = random_3cnf(&mut rng, vars, vars * 426 / 100);
        let activity: Vec<f64> = (0..vars)
            .map(|v| {
                if v % 2 == 0 {
                    2e100
                } else {
                    (v + 1) as f64 * 1e-300
                }
            })
            .collect();
        let s = assert_pickers_agree(vars, &cnf, &activity);
        assert!(
            s.rescales > 0,
            "no rescale after {} conflicts",
            s.stats.conflicts
        );

        // The heap itself, drained after a rescale, yields the scan order:
        // every tiny activity flushes to zero, so the variables the heap
        // was built on highest index first must come out lowest first.
        let mut s = Solver::new();
        s.new_vars(vars);
        for (v, a) in s.activity.iter_mut().enumerate() {
            *a = if v == 0 {
                2e100
            } else {
                (v + 1) as f64 * 1e-300
            };
        }
        s.heap_rebuild();
        s.var_inc = 1.0;
        s.bump_var(Var(0));
        assert_eq!(s.rescales, 1);
        let drained: Vec<usize> = std::iter::from_fn(|| s.heap_pop()).collect();
        assert_eq!(drained, (0..vars).collect::<Vec<_>>());
    }

    #[test]
    fn luby_sequence() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64 + 1), e, "luby({})", i + 1);
        }
    }
}
