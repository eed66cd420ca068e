//! The profiler: collects one event per relational operation and
//! aggregates them the way the paper's SQL-backed profiler does (§4.3) —
//! per-operation counts, total time, and the sizes and shapes of the BDDs
//! involved.

use jedd_core::{OpEvent, ProfileSink};
use std::cell::RefCell;
use std::rc::Rc;

/// One aggregated row of the overall profile view: all executions of one
/// relational operation at one source site.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileRow {
    /// Operation name (`join`, `compose`, `replace`, ...).
    pub op: &'static str,
    /// Source site label.
    pub site: String,
    /// Number of executions.
    pub count: u64,
    /// Total wall-clock nanoseconds.
    pub total_nanos: u64,
    /// Largest operand BDD seen (nodes).
    pub max_operand_nodes: usize,
    /// Largest result BDD seen (nodes).
    pub max_result_nodes: usize,
}

/// An in-memory profiler; install on a universe with
/// [`jedd_core::Universe::set_profiler`].
///
/// # Examples
///
/// ```
/// use jedd_core::{Relation, Universe};
/// use jedd_runtime::Profiler;
/// use std::rc::Rc;
///
/// # fn main() -> Result<(), jedd_core::JeddError> {
/// let u = Universe::new();
/// let profiler = Rc::new(Profiler::new());
/// u.set_profiler(Some(profiler.clone()));
/// let d = u.add_domain("D", 4);
/// let p = u.add_physical_domain("P", 2);
/// let a = u.add_attribute("a", d);
/// let r = Relation::from_tuples(&u, &[(a, p)], &[vec![1], vec![2]])?;
/// let _ = r.union(&r)?;
/// assert!(profiler.events().iter().any(|e| e.op == "union"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Profiler {
    events: RefCell<Vec<OpEvent>>,
    record_shapes: bool,
}

impl Profiler {
    /// Creates a profiler that records events without BDD shapes.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Creates a profiler that additionally records the per-level shape of
    /// every result BDD (costlier; used for the shape views).
    pub fn with_shapes() -> Profiler {
        Profiler {
            events: RefCell::new(Vec::new()),
            record_shapes: true,
        }
    }

    /// All recorded events, in execution order.
    pub fn events(&self) -> Vec<OpEvent> {
        self.events.borrow().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// Clears all recorded events.
    pub fn clear(&self) {
        self.events.borrow_mut().clear();
    }

    /// Aggregates events into overview rows (one per op/site pair), sorted
    /// by total time descending — the paper's "overall profile view".
    ///
    /// Groups through a hash index, so aggregation is linear in the event
    /// count; a long profiling run records millions of events. Rows keep
    /// first-encounter order before the stable sort, so ties order exactly
    /// as the previous linear-scan implementation did.
    pub fn summary(&self) -> Vec<ProfileRow> {
        let events = self.events.borrow();
        let mut rows: Vec<ProfileRow> = Vec::new();
        let mut index: std::collections::HashMap<(&'static str, &str), usize> =
            std::collections::HashMap::new();
        for e in events.iter() {
            match index.get(&(e.op, e.site.as_str())) {
                Some(&i) => {
                    let r = &mut rows[i];
                    r.count += 1;
                    r.total_nanos += e.nanos;
                    r.max_operand_nodes = r.max_operand_nodes.max(e.operand_nodes);
                    r.max_result_nodes = r.max_result_nodes.max(e.result_nodes);
                }
                None => {
                    index.insert((e.op, e.site.as_str()), rows.len());
                    rows.push(ProfileRow {
                        op: e.op,
                        site: e.site.clone(),
                        count: 1,
                        total_nanos: e.nanos,
                        max_operand_nodes: e.operand_nodes,
                        max_result_nodes: e.result_nodes,
                    });
                }
            }
        }
        rows.sort_by_key(|r| std::cmp::Reverse(r.total_nanos));
        rows
    }

    /// Convenience constructor returning the `Rc` form expected by
    /// [`jedd_core::Universe::set_profiler`].
    pub fn shared() -> Rc<Profiler> {
        Rc::new(Profiler::new())
    }
}

impl ProfileSink for Profiler {
    fn record(&self, event: &OpEvent) {
        self.events.borrow_mut().push(event.clone());
    }

    fn wants_shapes(&self) -> bool {
        self.record_shapes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: &'static str, site: &str, nanos: u64, nodes: usize) -> OpEvent {
        OpEvent {
            op,
            site: site.to_string(),
            nanos,
            operand_nodes: nodes,
            result_nodes: nodes * 2,
            shape: None,
        }
    }

    #[test]
    fn summary_aggregates_by_op_and_site() {
        let p = Profiler::new();
        p.record(&ev("join", "resolve", 100, 10));
        p.record(&ev("join", "resolve", 50, 20));
        p.record(&ev("union", "resolve", 400, 5));
        p.record(&ev("join", "other", 10, 1));
        let s = p.summary();
        assert_eq!(s.len(), 3);
        // Sorted by total time: union(400) first.
        assert_eq!(s[0].op, "union");
        let join_row = s
            .iter()
            .find(|r| r.op == "join" && r.site == "resolve")
            .unwrap();
        assert_eq!(join_row.count, 2);
        assert_eq!(join_row.total_nanos, 150);
        assert_eq!(join_row.max_operand_nodes, 20);
        assert_eq!(join_row.max_result_nodes, 40);
    }

    #[test]
    fn clear_resets() {
        let p = Profiler::new();
        p.record(&ev("join", "x", 1, 1));
        assert_eq!(p.len(), 1);
        p.clear();
        assert!(p.is_empty());
    }

    #[test]
    fn shapes_flag() {
        assert!(!Profiler::new().wants_shapes());
        assert!(Profiler::with_shapes().wants_shapes());
    }
}
