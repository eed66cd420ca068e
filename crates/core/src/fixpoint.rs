//! Semi-naive (delta) fixpoint evaluation for relational analyses.
//!
//! The analyses in the paper's flagship workload (§6) are mutually
//! recursive Datalog-style fixpoints. A naive driver re-derives from the
//! *full* relations every round, so each iteration's composes and unions
//! grow with everything accumulated so far. The semi-naive discipline from
//! the deductive-database tradition fixes this: each round derives new
//! tuples only from the *frontier* (delta) of the previous round, e.g.
//! `step = Δedges <> pt  ∪  edges <> Δpt`.
//!
//! With hash-consed BDDs the bookkeeping is nearly free: a frontier is one
//! `diff`, relation equality is an O(1) canonical-node-id comparison, and
//! the kernel's non-materialising subset probe ([`crate::Relation::is_subset`])
//! decides "did this round derive anything new?" without allocating a
//! single node.
//!
//! [`DeltaRel`] maintains the `current`/`delta` pair for one relation;
//! [`Fixpoint`] drives rounds, bounds divergence, and reports per-round
//! delta sizes and per-rule timings to the installed profiler.

use crate::error::JeddError;
use crate::relation::Relation;
use crate::universe::Universe;
use std::time::Instant;

/// Evaluation strategy for the relational fixpoint drivers: the semi-naive
/// delta engine, or the naive re-derive-everything oracle it is checked
/// against.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// Re-derive from the full relations every round. Kept as the
    /// correctness oracle; every driver must produce bit-identical
    /// relations under both strategies.
    Naive,
    /// Derive new tuples only from the per-round deltas (default).
    #[default]
    SemiNaive,
}

/// A monotonically growing relation tracked as `current` plus the
/// `delta` frontier discovered in the most recent round.
///
/// Round protocol: rules read [`DeltaRel::delta`] (and
/// [`DeltaRel::current`]) and [`DeltaRel::stage`] their derivations; at
/// the end of the round [`DeltaRel::advance`] turns everything staged
/// into the next frontier (`staged \ current`) and folds it into
/// `current`. [`DeltaRel::absorb`] combines both steps for
/// single-rule loops.
#[derive(Clone, Debug)]
pub struct DeltaRel {
    name: &'static str,
    current: Relation,
    delta: Relation,
    staged: Option<Relation>,
}

impl DeltaRel {
    /// Starts tracking `initial`; the whole initial relation is the first
    /// frontier (round zero must look at every tuple once).
    pub fn new(name: &'static str, initial: Relation) -> DeltaRel {
        DeltaRel {
            name,
            delta: initial.clone(),
            current: initial,
            staged: None,
        }
    }

    /// The label used in profiler events.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Everything derived so far.
    pub fn current(&self) -> &Relation {
        &self.current
    }

    /// The tuples first derived in the most recent round.
    pub fn delta(&self) -> &Relation {
        &self.delta
    }

    /// `true` while the frontier is non-empty — an O(1) check on the
    /// canonical node id.
    pub fn has_delta(&self) -> bool {
        !self.delta.is_empty()
    }

    /// Consumes the tracker, returning the accumulated relation.
    pub fn into_current(self) -> Relation {
        self.current
    }

    /// Adds `derived` to this round's staged derivations (tuples already
    /// in `current` are filtered out at [`DeltaRel::advance`]).
    ///
    /// `derived` is re-assigned to `current`'s physical domains here, at
    /// the point where it is smallest. Rule outputs routinely sit in
    /// scratch physdoms picked by join alignment; deferring the move to
    /// [`DeltaRel::advance`] would instead align the *accumulated*
    /// relation onto the scratch layout — a full replace of the large
    /// side on every round.
    ///
    /// # Errors
    ///
    /// Returns [`JeddError::SchemaMismatch`] unless `derived` has the
    /// same attribute set as the tracked relation.
    pub fn stage(&mut self, derived: &Relation) -> Result<(), JeddError> {
        let d = self.current.aligned(derived, "stage")?;
        self.staged = Some(match self.staged.take() {
            Some(s) => s.union(&d)?,
            None => d,
        });
        Ok(())
    }

    /// Ends the round for this relation: the next frontier becomes
    /// `staged \ current`, `current` absorbs it, and the stage empties.
    /// Returns `true` when the frontier is non-empty.
    ///
    /// The common convergence case — nothing staged is new — is decided by
    /// the kernel's subset probe, which materialises no nodes at all.
    ///
    /// # Errors
    ///
    /// Propagates schema mismatches and resource exhaustion from the
    /// underlying set operations.
    pub fn advance(&mut self) -> Result<bool, JeddError> {
        let staged = match self.staged.take() {
            Some(s) => s,
            None => {
                self.delta = self.empty()?;
                return Ok(false);
            }
        };
        if staged.is_subset(&self.current)? {
            self.delta = self.empty()?;
            return Ok(false);
        }
        let frontier = staged.minus(&self.current)?;
        self.current = self.current.union(&frontier)?;
        self.delta = frontier;
        Ok(true)
    }

    /// [`DeltaRel::stage`] followed by [`DeltaRel::advance`]: absorbs one
    /// round's derivations in a single call.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeltaRel::stage`] and [`DeltaRel::advance`].
    pub fn absorb(&mut self, derived: &Relation) -> Result<bool, JeddError> {
        self.stage(derived)?;
        self.advance()
    }

    /// Reconstructs a tracker from a checkpointed `current`/`delta` pair.
    /// Checkpoints are only taken at round boundaries, where nothing is
    /// staged, so the pair is the tracker's complete state.
    ///
    /// # Errors
    ///
    /// Returns [`JeddError::SchemaMismatch`] if the two relations disagree
    /// on their attribute schema.
    pub fn from_parts(
        name: &'static str,
        current: Relation,
        delta: Relation,
    ) -> Result<DeltaRel, JeddError> {
        // Aligning delta onto current's layout both validates the schema
        // and restores the invariant that the pair shares physdoms.
        let delta = current.aligned(&delta, "from_parts")?;
        Ok(DeltaRel {
            name,
            current,
            delta,
            staged: None,
        })
    }

    fn empty(&self) -> Result<Relation, JeddError> {
        Relation::empty(&self.current.universe, &self.current.schema)
    }
}

/// Drives a semi-naive fixpoint: counts rounds, bounds divergence, and
/// emits per-round profiler events (round timings, per-rule timings,
/// per-relation delta sizes) through the universe's installed profiler.
///
/// # Examples
///
/// ```
/// use jedd_core::fixpoint::{DeltaRel, Fixpoint};
/// use jedd_core::{Relation, Universe};
/// # fn main() -> Result<(), jedd_core::JeddError> {
/// let u = Universe::new();
/// let d = u.add_domain("N", 8);
/// let p1 = u.add_physical_domain("P1", 3);
/// let p2 = u.add_physical_domain("P2", 3);
/// let x = u.add_attribute("x", d);
/// let y = u.add_attribute("y", d);
/// // Transitive closure of a chain 0 -> 1 -> 2 -> 3.
/// let edges = Relation::from_tuples(
///     &u,
///     &[(x, p1), (y, p2)],
///     &[vec![0, 1], vec![1, 2], vec![2, 3]],
/// )?;
/// let mut reach = DeltaRel::new("reach", edges.clone());
/// let mut fp = Fixpoint::new(&u, "closure");
/// while reach.has_delta() {
///     fp.begin_round()?;
///     // New paths this round: Δreach(x, y) <> edges(y, z).
///     let step = reach
///         .delta()
///         .compose(&[y], &edges, &[x])?
///         .with_assignment(&[(y, p2)])?;
///     reach.absorb(&step)?;
///     fp.end_round(&[&reach]);
/// }
/// assert_eq!(reach.current().size(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Fixpoint {
    universe: Universe,
    name: &'static str,
    rounds: u64,
    max_rounds: u64,
    round_started: Option<Instant>,
}

/// Default divergence bound: analyses on realistic inputs converge in tens
/// of rounds, so ten thousand means a non-monotone rule or a broken delta.
pub const DEFAULT_MAX_ROUNDS: u64 = 10_000;

impl Fixpoint {
    /// Creates a driver; `name` labels the divergence error and all
    /// profiler events.
    pub fn new(universe: &Universe, name: &'static str) -> Fixpoint {
        Fixpoint {
            universe: universe.clone(),
            name,
            rounds: 0,
            max_rounds: DEFAULT_MAX_ROUNDS,
            round_started: None,
        }
    }

    /// Overrides the divergence bound.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Fixpoint {
        self.max_rounds = max_rounds;
        self
    }

    /// Starts the round counter at `rounds` instead of zero. Resume uses
    /// this so a continued fixpoint keeps the original divergence bound —
    /// the rounds already completed before the crash still count against
    /// `max_rounds` — and so profiler round numbering stays monotone
    /// across the crash/resume boundary.
    pub fn with_start_round(mut self, rounds: u64) -> Fixpoint {
        self.rounds = rounds;
        self
    }

    /// Completed rounds so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Starts a round.
    ///
    /// # Errors
    ///
    /// Returns a [`JeddError::ResourceExhausted`] divergence error once
    /// the round bound is hit, so a runaway fixpoint degrades through the
    /// governor ladder instead of aborting the process.
    pub fn begin_round(&mut self) -> Result<(), JeddError> {
        if self.rounds >= self.max_rounds {
            return Err(self.universe.resource_exhausted(
                self.name,
                jedd_bdd::BddError::StepLimit {
                    steps: self.rounds,
                    limit: self.max_rounds,
                },
            ));
        }
        self.round_started = Some(Instant::now());
        Ok(())
    }

    /// Times one rule application and reports it to the profiler as a
    /// `fixpoint-rule` event at site `"{fixpoint}: {rule}"` (one event per
    /// round, so the profile's detail view lists the per-round timings).
    ///
    /// # Errors
    ///
    /// Propagates the rule closure's error.
    pub fn rule(
        &self,
        rule: &str,
        f: impl FnOnce() -> Result<Relation, JeddError>,
    ) -> Result<Relation, JeddError> {
        if !self.universe.profiler_enabled() {
            return f();
        }
        let start = Instant::now();
        let result = f()?;
        self.universe.profile(crate::profile::OpEvent {
            op: "fixpoint-rule",
            site: format!("{}: {}", self.name, rule),
            nanos: start.elapsed().as_nanos() as u64,
            operand_nodes: 0,
            result_nodes: result.node_count(),
            shape: None,
        });
        Ok(result)
    }

    /// Ends a round: emits the round timing and each relation's delta size
    /// to the profiler, then reports whether any frontier is still
    /// non-empty (i.e. whether another round is needed).
    pub fn end_round(&mut self, deltas: &[&DeltaRel]) -> bool {
        let elapsed = self
            .round_started
            .take()
            .map(|s| s.elapsed().as_nanos() as u64)
            .unwrap_or(0);
        self.rounds += 1;
        if self.universe.profiler_enabled() {
            let mut total_tuples = 0u64;
            let mut total_nodes = 0usize;
            for d in deltas {
                let tuples = d.delta().size();
                let nodes = d.delta().node_count();
                total_tuples += tuples;
                total_nodes += nodes;
                self.universe.profile(crate::profile::OpEvent {
                    op: "fixpoint-delta",
                    site: format!("{}: Δ{}", self.name, d.name()),
                    nanos: 0,
                    operand_nodes: nodes,
                    result_nodes: tuples as usize,
                    shape: None,
                });
            }
            self.universe.profile(crate::profile::OpEvent {
                op: "fixpoint-round",
                site: self.name.to_string(),
                nanos: elapsed,
                operand_nodes: total_nodes,
                result_nodes: total_tuples as usize,
                shape: None,
            });
        }
        deltas.iter().any(|d| d.has_delta())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{AttrId, PhysDomId};

    struct Setup {
        u: Universe,
        x: AttrId,
        y: AttrId,
        p1: PhysDomId,
        p2: PhysDomId,
    }

    fn setup() -> Setup {
        let u = Universe::new();
        let d = u.add_domain("N", 16);
        let p1 = u.add_physical_domain("P1", 4);
        let p2 = u.add_physical_domain("P2", 4);
        let x = u.add_attribute("x", d);
        let y = u.add_attribute("y", d);
        Setup { u, x, y, p1, p2 }
    }

    fn edges(s: &Setup, pairs: &[(u64, u64)]) -> Relation {
        let tuples: Vec<Vec<u64>> = pairs.iter().map(|&(a, b)| vec![a, b]).collect();
        Relation::from_tuples(&s.u, &[(s.x, s.p1), (s.y, s.p2)], &tuples).unwrap()
    }

    /// Transitive closure of `e` via the delta engine.
    fn closure(s: &Setup, e: &Relation) -> (Relation, u64) {
        let mut reach = DeltaRel::new("reach", e.clone());
        let mut fp = Fixpoint::new(&s.u, "closure");
        while reach.has_delta() {
            fp.begin_round().unwrap();
            let step = reach
                .delta()
                .compose(&[s.y], e, &[s.x])
                .unwrap()
                .with_assignment(&[(s.y, s.p2)])
                .unwrap();
            reach.absorb(&step).unwrap();
            fp.end_round(&[&reach]);
        }
        (reach.into_current(), fp.rounds())
    }

    #[test]
    fn delta_closure_matches_naive_closure() {
        let s = setup();
        let e = edges(&s, &[(0, 1), (1, 2), (2, 3), (3, 4), (7, 8)]);
        let (got, _) = closure(&s, &e);
        // Naive oracle.
        let mut naive = e.clone();
        loop {
            let step = naive
                .compose(&[s.y], &e, &[s.x])
                .unwrap()
                .with_assignment(&[(s.y, s.p2)])
                .unwrap();
            let next = naive.union(&step).unwrap();
            if next.equals(&naive).unwrap() {
                break;
            }
            naive = next;
        }
        assert!(got.equals(&naive).unwrap());
        assert_eq!(got.size(), naive.size());
    }

    #[test]
    fn delta_goes_empty_at_fixpoint() {
        let s = setup();
        let e = edges(&s, &[(0, 1), (1, 2)]);
        let (got, rounds) = closure(&s, &e);
        assert_eq!(got.size(), 3); // (0,1) (1,2) (0,2)
        assert!(rounds >= 2, "needs at least a derive and a confirm round");
    }

    #[test]
    fn stage_accumulates_across_calls() {
        let s = setup();
        let a = edges(&s, &[(0, 1)]);
        let b = edges(&s, &[(2, 3)]);
        let mut dr = DeltaRel::new("r", edges(&s, &[]));
        dr.stage(&a).unwrap();
        dr.stage(&b).unwrap();
        assert!(dr.advance().unwrap());
        assert_eq!(dr.current().size(), 2);
        assert_eq!(dr.delta().size(), 2);
        // Re-staging known tuples yields an empty frontier without change.
        dr.stage(&a).unwrap();
        assert!(!dr.advance().unwrap());
        assert!(!dr.has_delta());
        assert_eq!(dr.current().size(), 2);
    }

    #[test]
    fn advance_without_stage_empties_delta() {
        let s = setup();
        let mut dr = DeltaRel::new("r", edges(&s, &[(0, 1)]));
        assert!(dr.has_delta());
        assert!(!dr.advance().unwrap());
        assert!(!dr.has_delta());
        assert_eq!(dr.current().size(), 1);
    }

    #[test]
    fn divergence_is_resource_exhausted_not_panic() {
        let s = setup();
        let mut fp = Fixpoint::new(&s.u, "diverging").with_max_rounds(3);
        let mut hit = None;
        for _ in 0..5 {
            match fp.begin_round() {
                Ok(()) => {
                    fp.end_round(&[]);
                }
                Err(e) => {
                    hit = Some(e);
                    break;
                }
            }
        }
        match hit.expect("must diverge") {
            JeddError::ResourceExhausted { op, cause, .. } => {
                assert_eq!(op, "diverging");
                assert!(matches!(cause, jedd_bdd::BddError::StepLimit { .. }));
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
    }

    #[test]
    fn profiler_sees_round_rule_and_delta_events() {
        use crate::profile::{OpEvent, ProfileSink};
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Sink(RefCell<Vec<OpEvent>>);
        impl ProfileSink for Sink {
            fn record(&self, event: &OpEvent) {
                self.0.borrow_mut().push(event.clone());
            }
            fn wants_shapes(&self) -> bool {
                false
            }
        }

        let s = setup();
        let sink = Rc::new(Sink::default());
        s.u.set_profiler(Some(sink.clone()));
        let e = edges(&s, &[(0, 1), (1, 2), (2, 3)]);
        let mut reach = DeltaRel::new("reach", e.clone());
        let mut fp = Fixpoint::new(&s.u, "closure");
        while reach.has_delta() {
            fp.begin_round().unwrap();
            let step = fp
                .rule("step", || {
                    reach
                        .delta()
                        .compose(&[s.y], &e, &[s.x])?
                        .with_assignment(&[(s.y, s.p2)])
                })
                .unwrap();
            reach.absorb(&step).unwrap();
            fp.end_round(&[&reach]);
        }
        s.u.set_profiler(None);
        let events = sink.0.borrow();
        let rounds = events.iter().filter(|e| e.op == "fixpoint-round").count();
        assert_eq!(rounds as u64, fp.rounds());
        assert!(events
            .iter()
            .any(|e| e.op == "fixpoint-rule" && e.site == "closure: step"));
        assert!(events
            .iter()
            .any(|e| e.op == "fixpoint-delta" && e.site == "closure: Δreach"));
        // Round events carry the post-round frontier tuple counts: the
        // chain 0→1→2→3 derives (0,2),(1,3) in round one, (0,3) in round
        // two, and an empty frontier in the confirming final round.
        let round_tuples: Vec<usize> = events
            .iter()
            .filter(|e| e.op == "fixpoint-round")
            .map(|e| e.result_nodes)
            .collect();
        assert_eq!(round_tuples, vec![2, 1, 0]);
    }
}
