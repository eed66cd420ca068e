//! Benchmark-side spans, and the profiler hook that splits a fixpoint
//! span into the relational operations it ran.
//!
//! Spans are recorded around each public call the benchmark makes: name,
//! parent, duration and the counter deltas taken at the same boundaries.
//! They stay in memory and are printed when the run ends. The
//! [`OpSink`] is this benchmark's only compile-time coupling to the
//! system's profiler API; it lives here alone.

use crate::counters::Counters;
use jedd_core::{OpEvent, ProfileSink, Universe};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// One closed (or folded) span.
#[derive(Debug)]
pub struct Span {
    /// What ran: a preset, a side, a public call or an operation kind.
    pub name: String,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Wall-clock duration in seconds.
    pub secs: f64,
    /// Counter deltas taken at the span's boundaries.
    pub counters: Counters,
}

/// The spans of one pass, in the order they were opened.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Trace {
    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().map(|&(p, _)| p),
            secs: 0.0,
            counters: Counters::default(),
        });
        self.open.push((id, Instant::now()));
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let (top, start) = self.open.pop().expect("exit without a matching enter");
        assert_eq!(top, id, "spans must close innermost first");
        self.spans[id].secs = start.elapsed().as_secs_f64();
    }

    /// Closes every span opened since `id`, then `id` itself: the way
    /// out after a panic left inner spans open.
    pub fn close_to(&mut self, id: usize) {
        while let Some(&(top, _)) = self.open.last() {
            self.exit(top);
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (usize, T) {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        (id, r)
    }

    /// Attaches counters to a span.
    pub fn set_counters(&mut self, id: usize, counters: Counters) {
        self.spans[id].counters = counters;
    }

    /// Adds a child whose duration was measured by someone else (the
    /// profiler's events); it has no start, only a share of its parent.
    pub fn fold(&mut self, parent: usize, name: &str, secs: f64, counters: Counters) {
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            secs,
            counters,
        });
    }

    /// All spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Names from the root down to span `id`, joined by `/`.
    pub fn path(&self, id: usize) -> String {
        let mut names = vec![self.spans[id].name.as_str()];
        let mut cur = self.spans[id].parent;
        while let Some(p) = cur {
            names.push(&self.spans[p].name);
            cur = self.spans[p].parent;
        }
        names.reverse();
        names.join("/")
    }

    /// Each span's self time: its duration minus its children's, floored
    /// at zero so that children overrunning their parent show up as a sum
    /// larger than the root rather than cancelling out.
    pub fn self_secs(&self) -> Vec<f64> {
        let mut child_sum = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p] += s.secs;
            }
        }
        self.spans
            .iter()
            .zip(child_sum)
            .map(|(s, c)| (s.secs - c).max(0.0))
            .collect()
    }
}

/// Relational-operation and fixpoint events of one call, aggregated by
/// kind as they arrive.
#[derive(Default)]
pub struct OpSink {
    ops: RefCell<BTreeMap<&'static str, (u64, u64)>>,
    fixpoint: RefCell<Counters>,
}

impl ProfileSink for OpSink {
    fn record(&self, e: &OpEvent) {
        let mut fx = self.fixpoint.borrow_mut();
        let mut bump = |name: &str, by: f64| {
            let v = fx.value(name) + by;
            fx.set(name, v);
        };
        match e.op {
            // Only the outer loop's rounds: the inner fixpoints (copy
            // propagation, call resolution) run inside them.
            "fixpoint-round" if e.site == "pointsto" => bump("round_s", e.nanos as f64 * 1e-9),
            "fixpoint-round" => {}
            "fixpoint-rule" => bump("rule_s", e.nanos as f64 * 1e-9),
            "fixpoint-delta" => bump("delta_tuples", e.result_nodes as f64),
            op => {
                let mut ops = self.ops.borrow_mut();
                let slot = ops.entry(op).or_default();
                slot.0 += 1;
                slot.1 += e.nanos;
            }
        }
    }
}

impl OpSink {
    /// Installs a fresh sink on `u`.
    pub fn install(u: &Universe) -> Rc<OpSink> {
        let sink = Rc::new(OpSink::default());
        u.set_profiler(Some(sink.clone()));
        sink
    }

    /// Folds the operations into children of span `parent` (one per
    /// kind, named `op.<kind>`) and returns the fixpoint counters
    /// (`round_s`, `rule_s`, `delta_tuples`).
    pub fn fold_into(&self, trace: &mut Trace, parent: usize) -> Counters {
        for (op, (count, nanos)) in self.ops.borrow().iter() {
            let mut c = Counters::default();
            c.set("count", *count as f64);
            trace.fold(parent, &format!("op.{op}"), *nanos as f64 * 1e-9, c);
        }
        self.fixpoint.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_telescope_to_the_root() {
        let mut t = Trace::default();
        let root = t.enter("pass");
        let (child, ()) = t.time("call", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.fold(child, "op.union", 0.001, Counters::default());
        t.exit(root);
        let selfs = t.self_secs();
        let total: f64 = selfs.iter().sum();
        assert!((total - t.spans()[root].secs).abs() < 1e-9);
        assert_eq!(t.path(child + 1), "pass/call/op.union");
    }

    #[test]
    fn overrunning_children_show_in_the_sum() {
        let mut t = Trace::default();
        let (root, ()) = t.time("pass", || ());
        t.fold(root, "op.union", 1.0, Counters::default());
        let total: f64 = t.self_secs().iter().sum();
        assert!(total > t.spans()[root].secs + 0.5);
    }
}
