//! Kernel extras: witness extraction, exact model counting and Graphviz
//! export (the visualization facility the related-work tools expose and
//! the Jedd profiler builds on).

use crate::manager::Bdd;
use crate::table::Inner;
use std::collections::HashMap;
use std::fmt::Write as _;

impl Inner {
    /// Returns one satisfying assignment as `(level, value)` pairs for the
    /// variables on the chosen path (other variables are free), or `None`
    /// if unsatisfiable.
    pub(crate) fn one_sat(&self, f: u32) -> Option<Vec<(u32, bool)>> {
        if f == 0 {
            return None;
        }
        let mut out = Vec::new();
        let mut cur = f;
        while cur > 1 {
            let n = self.nodes.get(cur as usize);
            // Chain levels (level..bot) are forced false on every path
            // through the node; plain nodes have an empty interval here.
            for l in n.level..n.bot {
                out.push((self.var_at_level(l), false));
            }
            let var = self.var_at_level(n.bot);
            // Prefer the low edge unless it is FALSE.
            if n.low != 0 {
                out.push((var, false));
                cur = n.low;
            } else {
                out.push((var, true));
                cur = n.high;
            }
        }
        out.sort_unstable_by_key(|&(v, _)| v);
        Some(out)
    }

    /// Exact satisfying-assignment count as `u128`; `None` when the count
    /// would not fit (more than 127 free variables of headroom).
    pub(crate) fn satcount_exact(&self, f: u32) -> Option<u128> {
        let nvars = self.num_vars();
        if nvars > 127 {
            return None;
        }
        fn rec(inner: &Inner, f: u32, memo: &mut HashMap<u32, u128>) -> u128 {
            if f == 0 {
                return 0;
            }
            if f == 1 {
                return 1;
            }
            if let Some(&c) = memo.get(&f) {
                return c;
            }
            // Gaps are measured from the chain bottom; forced chain levels
            // contribute factor 1 (see `Inner::satcount`).
            let bot = inner.bot(f);
            let level_of = |id: u32| -> u32 {
                if id <= 1 {
                    inner.num_vars()
                } else {
                    inner.level(id)
                }
            };
            let (lo, hi) = (inner.low(f), inner.high(f));
            let cl = rec(inner, lo, memo) << (level_of(lo) - bot - 1);
            let ch = rec(inner, hi, memo) << (level_of(hi) - bot - 1);
            let c = cl + ch;
            memo.insert(f, c);
            c
        }
        if f == 0 {
            return Some(0);
        }
        if f == 1 {
            return Some(1u128 << nvars);
        }
        let mut memo = HashMap::new();
        let below = rec(self, f, &mut memo);
        Some(below << self.level(f))
    }

    /// Cofactor: substitutes constants for the given variables.
    pub(crate) fn cofactor(
        &mut self,
        f: u32,
        assignment: &[(u32, bool)],
    ) -> Result<u32, crate::BddError> {
        if f <= 1 || assignment.is_empty() {
            return Ok(f);
        }
        // Translate variables to levels; the recursion matches on levels.
        let mut sorted: Vec<(u32, bool)> = assignment
            .iter()
            .map(|&(v, b)| (self.level_of_var(v), b))
            .collect();
        sorted.sort_unstable_by_key(|&(l, _)| l);
        for w in sorted.windows(2) {
            assert!(w[0].0 != w[1].0, "variable {} assigned twice", w[0].0);
        }
        let mut memo = HashMap::new();
        self.cofactor_rec(f, &sorted, &mut memo)
    }

    fn cofactor_rec(
        &mut self,
        f: u32,
        assignment: &[(u32, bool)],
        memo: &mut HashMap<u32, u32>,
    ) -> Result<u32, crate::BddError> {
        if f <= 1 {
            return Ok(f);
        }
        if let Some(&r) = memo.get(&f) {
            return Ok(r);
        }
        self.step()?;
        self.prefault(&[f])?;
        // Cofactoring at the top level keeps chain nodes correct: the tail
        // produced by `cofactor_pair` re-exposes the remaining chain levels.
        let level = self.level(f);
        let (lo, hi) = self.cofactor_pair(f, level)?;
        let r = match assignment.binary_search_by_key(&level, |&(v, _)| v) {
            Ok(i) => {
                let branch = if assignment[i].1 { hi } else { lo };
                self.cofactor_rec(branch, assignment, memo)?
            }
            Err(_) => {
                let l2 = self.cofactor_rec(lo, assignment, memo)?;
                let h2 = self.cofactor_rec(hi, assignment, memo)?;
                self.mk(level, l2, h2)?
            }
        };
        memo.insert(f, r);
        Ok(r)
    }

    /// Renders the sub-DAG rooted at `f` in Graphviz dot format.
    pub(crate) fn to_dot(&self, f: u32, name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{name}\" {{");
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  f [shape=none, label=\"{name}\"];");
        let _ = writeln!(out, "  n0 [shape=box, label=\"0\"];");
        let _ = writeln!(out, "  n1 [shape=box, label=\"1\"];");
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        let _ = writeln!(out, "  f -> n{f};");
        while let Some(id) = stack.pop() {
            if id <= 1 || !seen.insert(id) {
                continue;
            }
            let n = self.nodes.get(id as usize);
            let label = if n.bot > n.level {
                // Chain node: show the whole forced interval.
                format!(
                    "v{}..v{}",
                    self.var_at_level(n.level),
                    self.var_at_level(n.bot)
                )
            } else {
                format!("v{}", self.var_at_level(n.level))
            };
            let _ = writeln!(out, "  n{id} [shape=circle, label=\"{label}\"];");
            let _ = writeln!(out, "  n{id} -> n{} [style=dashed];", n.low);
            let _ = writeln!(out, "  n{id} -> n{} [style=solid];", n.high);
            stack.push(n.low);
            stack.push(n.high);
        }
        let _ = writeln!(out, "}}");
        out
    }
}

impl Bdd {
    /// Returns one satisfying assignment as `(variable, value)` pairs for
    /// the variables along a path to `true`; variables not listed are
    /// unconstrained. Returns `None` for the false BDD.
    pub fn one_sat(&self) -> Option<Vec<(u32, bool)>> {
        self.mgr.borrow().one_sat(self.id)
    }

    /// Exact satisfying-assignment count over all manager variables, or
    /// `None` when the manager has more than 127 variables.
    pub fn satcount_exact(&self) -> Option<u128> {
        self.mgr.borrow().satcount_exact(self.id)
    }

    /// Renders this BDD in Graphviz dot format (dashed = low/0 edge,
    /// solid = high/1 edge), for visual inspection of shapes.
    pub fn to_dot(&self, name: &str) -> String {
        self.mgr.borrow().to_dot(self.id, name)
    }

    /// Cofactor (BuDDy `bdd_restrict`): substitutes the given constant
    /// values for variables and simplifies.
    ///
    /// # Panics
    ///
    /// Panics if a variable is assigned twice, or if the operation exceeds
    /// an installed budget (use [`Bdd::try_cofactor`] then).
    pub fn cofactor(&self, assignment: &[(u32, bool)]) -> Bdd {
        crate::manager::expect_within_budget("cofactor", self.try_cofactor(assignment))
    }

    /// Budget-aware cofactor; see [`Bdd::cofactor`].
    ///
    /// # Errors
    ///
    /// Returns a [`crate::BddError`] when an installed budget, deadline,
    /// cancellation token or fail plan interrupts the operation.
    pub fn try_cofactor(&self, assignment: &[(u32, bool)]) -> Result<Bdd, crate::BddError> {
        let id =
            crate::manager::run_governed(&self.mgr, |inner| inner.cofactor(self.id, assignment))?;
        Ok(self.wrap(id))
    }
}

#[cfg(test)]
mod tests {
    use crate::BddManager;

    #[test]
    fn one_sat_satisfies() {
        let m = BddManager::new(6);
        let f = m.var(0).and(&m.nvar(3)).and(&m.var(5));
        let sat = f.one_sat().expect("satisfiable");
        // The witness must force the function true: check by building the
        // cube and intersecting.
        let mut cube = m.constant_true();
        for (v, val) in &sat {
            cube = cube.and(&if *val { m.var(*v) } else { m.nvar(*v) });
        }
        assert_eq!(cube.and(&f), cube);
        assert!(m.constant_false().one_sat().is_none());
        assert_eq!(m.constant_true().one_sat(), Some(vec![]));
    }

    #[test]
    fn satcount_exact_matches_float() {
        let m = BddManager::new(20);
        let f = m.var(0).or(&m.var(10)).and(&m.nvar(19));
        assert_eq!(f.satcount_exact().unwrap() as f64, f.satcount());
        assert_eq!(m.constant_true().satcount_exact(), Some(1u128 << 20));
        assert_eq!(m.constant_false().satcount_exact(), Some(0));
    }

    #[test]
    fn satcount_exact_large_counts() {
        // 80 variables: the f64 count is approximate at this scale, the
        // exact count is not.
        let m = BddManager::new(80);
        let f = m.var(0);
        assert_eq!(f.satcount_exact(), Some(1u128 << 79));
    }

    #[test]
    fn dot_output_well_formed() {
        let m = BddManager::new(3);
        let f = m.var(0).xor(&m.var(2));
        let dot = f.to_dot("xor");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("v0"));
        assert!(dot.contains("v2"));
        assert!(dot.trim_end().ends_with('}'));
        // Every node line has both edges.
        let dashed = dot.matches("style=dashed").count();
        let solid = dot.matches("style=solid").count();
        assert_eq!(dashed, solid);
        assert_eq!(dashed, f.node_count());
    }
}

#[cfg(test)]
mod cofactor_tests {
    use crate::BddManager;

    #[test]
    fn cofactor_substitutes_constants() {
        let m = BddManager::new(4);
        let f = m.var(0).and(&m.var(1)).or(&m.var(2));
        assert_eq!(f.cofactor(&[(0, true)]), m.var(1).or(&m.var(2)));
        assert_eq!(f.cofactor(&[(0, false)]), m.var(2));
        assert_eq!(f.cofactor(&[(0, true), (1, true)]), m.constant_true());
        assert_eq!(f.cofactor(&[(0, false), (2, false)]), m.constant_false());
        // Restricting a non-support variable is a no-op.
        assert_eq!(f.cofactor(&[(3, true)]), f);
    }

    #[test]
    fn cofactor_agrees_with_shannon_expansion() {
        let m = BddManager::new(5);
        let f = m.var(0).xor(&m.var(2)).and(&m.var(4).or(&m.var(1)));
        for v in 0..5u32 {
            let lo = f.cofactor(&[(v, false)]);
            let hi = f.cofactor(&[(v, true)]);
            let rebuilt = m.var(v).ite(&hi, &lo);
            assert_eq!(rebuilt, f, "Shannon expansion on v{v}");
        }
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn cofactor_rejects_duplicates() {
        let m = BddManager::new(2);
        let _ = m.var(0).cofactor(&[(0, true), (0, false)]);
    }
}
