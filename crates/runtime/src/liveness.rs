//! Static liveness analysis on relation variables (paper §4.2).
//!
//! jeddc performs "a static liveness analysis on all relation variables,
//! and at each point where a variable may become dead, we decrement the
//! reference count of any BDD it may contain". This module implements the
//! standard backward dataflow over a statement-level control-flow graph
//! and reports, for each statement, the variables that die after it — the
//! points where the generated code calls [`crate::RelationContainer::kill`].

use std::collections::{BTreeSet, HashMap};

/// One statement: the variables it reads and the variables it writes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LivenessStmt {
    /// Variables read by the statement.
    pub uses: Vec<String>,
    /// Variables (re)defined by the statement.
    pub defs: Vec<String>,
}

impl LivenessStmt {
    /// Builds a statement from use/def name lists.
    pub fn new(uses: &[&str], defs: &[&str]) -> LivenessStmt {
        LivenessStmt {
            uses: uses.iter().map(|s| s.to_string()).collect(),
            defs: defs.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// A control-flow graph of statements. Statement `i`'s successors are
/// edges; the exit is implicit (no successors). Straight-line code has
/// edges `i -> i+1`.
#[derive(Clone, Debug, Default)]
pub struct LivenessCfg {
    stmts: Vec<LivenessStmt>,
    succs: Vec<Vec<usize>>,
}

impl LivenessCfg {
    /// Creates an empty CFG.
    pub fn new() -> LivenessCfg {
        LivenessCfg::default()
    }

    /// Creates a straight-line CFG from statements.
    pub fn straight_line(stmts: Vec<LivenessStmt>) -> LivenessCfg {
        let n = stmts.len();
        let succs = (0..n)
            .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
            .collect();
        LivenessCfg { stmts, succs }
    }

    /// Appends a statement and returns its index; no edges are added.
    pub fn push(&mut self, s: LivenessStmt) -> usize {
        self.stmts.push(s);
        self.succs.push(Vec::new());
        self.stmts.len() - 1
    }

    /// Adds a control-flow edge.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        assert!(from < self.stmts.len() && to < self.stmts.len());
        if !self.succs[from].contains(&to) {
            self.succs[from].push(to);
        }
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// True when the CFG has no statements.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Runs the backward liveness analysis to a fixpoint and returns the
    /// result.
    pub fn solve(&self) -> LivenessResult {
        let n = self.stmts.len();
        let mut live_in: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
        let mut live_out: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let mut out = BTreeSet::new();
                for &s in &self.succs[i] {
                    out.extend(live_in[s].iter().cloned());
                }
                // in = uses ∪ (out \ defs)
                let mut inn: BTreeSet<String> = self.stmts[i].uses.iter().cloned().collect();
                for v in &out {
                    if !self.stmts[i].defs.contains(v) {
                        inn.insert(v.clone());
                    }
                }
                if out != live_out[i] || inn != live_in[i] {
                    live_out[i] = out;
                    live_in[i] = inn;
                    changed = true;
                }
            }
        }
        LivenessResult {
            live_in,
            live_out,
            stmts: self.stmts.clone(),
        }
    }
}

/// The solution of a liveness analysis.
#[derive(Clone, Debug)]
pub struct LivenessResult {
    live_in: Vec<BTreeSet<String>>,
    live_out: Vec<BTreeSet<String>>,
    stmts: Vec<LivenessStmt>,
}

impl LivenessResult {
    /// Variables live on entry to statement `i`.
    pub fn live_in(&self, i: usize) -> &BTreeSet<String> {
        &self.live_in[i]
    }

    /// Variables live on exit from statement `i`.
    pub fn live_out(&self, i: usize) -> &BTreeSet<String> {
        &self.live_out[i]
    }

    /// The kill points: for each statement, the variables that are
    /// used-or-defined there but dead on exit — the spots where jeddc
    /// releases the container immediately rather than waiting for the
    /// finalizer (§4.2).
    pub fn kill_points(&self) -> HashMap<usize, Vec<String>> {
        let mut out = HashMap::new();
        for (i, s) in self.stmts.iter().enumerate() {
            let mut dead: Vec<String> = Vec::new();
            for v in s.uses.iter().chain(s.defs.iter()) {
                if !self.live_out[i].contains(v) && !dead.contains(v) {
                    dead.push(v.clone());
                }
            }
            if !dead.is_empty() {
                dead.sort();
                out.insert(i, dead);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_last_use() {
        // t = a ; b = t + t ; c = b  — t dies after stmt 1, b after 2.
        let cfg = LivenessCfg::straight_line(vec![
            LivenessStmt::new(&["a"], &["t"]),
            LivenessStmt::new(&["t"], &["b"]),
            LivenessStmt::new(&["b"], &["c"]),
        ]);
        let r = cfg.solve();
        let kills = r.kill_points();
        assert_eq!(kills[&0], vec!["a".to_string()]);
        assert_eq!(kills[&1], vec!["t".to_string()]);
        let k2 = &kills[&2];
        assert!(k2.contains(&"b".to_string()));
        assert!(k2.contains(&"c".to_string()), "dead store: c unused");
    }

    #[test]
    fn loop_keeps_carried_variables_alive() {
        // 0: x = init
        // 1: y = f(x)       <- loop head
        // 2: x = g(y)
        // 3: if (...) goto 1
        // 4: out = x
        let mut cfg = LivenessCfg::new();
        cfg.push(LivenessStmt::new(&["init"], &["x"]));
        cfg.push(LivenessStmt::new(&["x"], &["y"]));
        cfg.push(LivenessStmt::new(&["y"], &["x"]));
        cfg.push(LivenessStmt::new(&[], &[]));
        cfg.push(LivenessStmt::new(&["x"], &["out"]));
        cfg.add_edge(0, 1);
        cfg.add_edge(1, 2);
        cfg.add_edge(2, 3);
        cfg.add_edge(3, 1);
        cfg.add_edge(3, 4);
        let r = cfg.solve();
        // x is live around the back edge.
        assert!(r.live_out(3).contains("x"));
        assert!(r.live_in(1).contains("x"));
        // y dies after statement 2.
        assert!(!r.live_out(2).contains("y"));
        let kills = r.kill_points();
        assert_eq!(kills[&2], vec!["y".to_string()]);
        // The *current* value of x may be released after its use at
        // statement 1 — statement 2 assigns a fresh value before any other
        // read. x must not be killed at the loop exit test, though.
        assert!(!kills.contains_key(&3));
    }

    #[test]
    fn diamond_join() {
        // 0: t = a
        // 1: branch -> 2 or 3
        // 2: u = t
        // 3: v = t
        // 4: w = u? (only from 2) — model join at 4 using t no more.
        let mut cfg = LivenessCfg::new();
        cfg.push(LivenessStmt::new(&["a"], &["t"]));
        cfg.push(LivenessStmt::new(&[], &[]));
        cfg.push(LivenessStmt::new(&["t"], &["u"]));
        cfg.push(LivenessStmt::new(&["t"], &["v"]));
        cfg.push(LivenessStmt::new(&["u", "v"], &["w"]));
        cfg.add_edge(0, 1);
        cfg.add_edge(1, 2);
        cfg.add_edge(1, 3);
        cfg.add_edge(2, 4);
        cfg.add_edge(3, 4);
        let r = cfg.solve();
        // t live into both branches, dead after each use.
        assert!(r.live_in(2).contains("t"));
        assert!(r.live_in(3).contains("t"));
        assert!(!r.live_out(2).contains("t"));
        assert!(!r.live_out(3).contains("t"));
    }

    #[test]
    fn empty_cfg() {
        let cfg = LivenessCfg::new();
        assert!(cfg.is_empty());
        let r = cfg.solve();
        assert!(r.kill_points().is_empty());
    }
}
