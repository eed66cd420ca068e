//! # jedd-analyses
//!
//! The five interrelated whole-program analyses of the Jedd paper
//! (Lhoták & Hendren, PLDI 2004, Fig. 2 and §5), over a mini Java IR:
//!
//! * [`hierarchy`] — subtype closure of the `extend` relation;
//! * [`vcr`] — virtual call resolution, the paper's Fig. 4 algorithm;
//! * [`pointsto`] — subset-based points-to analysis with an on-the-fly
//!   call graph (Berndl et al. \[5\]);
//! * [`callgraph`] — method-level call edges and reachability;
//! * [`sideeffect`] — direct and transitive read/write sets.
//!
//! Substrates:
//!
//! * [`ir`] — the fact-based program representation;
//! * [`synth`] — seeded synthetic program generation at benchmark scales
//!   named after the paper's Table 2 benchmarks;
//! * [`facts`] — loading programs into Jedd relations;
//! * [`baseline_sets`] — explicit-set reference implementations (ground
//!   truth, and the "pure Java" side of the paper's §5 code-size claim);
//! * [`baseline_bdd`] — the hand-coded direct-BDD points-to analysis that
//!   plays the paper's Table 2 C++ baseline;
//! * [`driver`] — runs all five analyses together;
//! * [`jedd_src`] — the analyses as mini-Jedd sources compiled by
//!   `jeddc` (the input to the paper's Table 1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline_bdd;
pub mod baseline_sets;
pub mod callgraph;
pub mod driver;
pub mod facts;
pub mod hierarchy;
pub mod ir;
pub mod jedd_src;
pub mod persist;
pub mod pointsto;
pub mod sideeffect;
pub mod synth;
pub mod vcr;

use jedd_core::{Fixpoint, JeddError, Relation, Universe};

/// The naive closure oracle shared by the hierarchy, call-graph and
/// side-effect modules under [`jedd_core::Strategy::Naive`]: every round
/// re-derives `step` from the whole closure and unions it in, until a
/// round adds nothing. It shares no code with the semi-naive loops in
/// [`persist`], so it stays an independent reference for them.
pub(crate) fn naive_closure(
    u: &Universe,
    name: &'static str,
    seed: Relation,
    step: impl Fn(&Relation) -> Result<Relation, JeddError>,
) -> Result<Relation, JeddError> {
    let mut closure = seed;
    let mut fp = Fixpoint::new(u, name);
    loop {
        fp.begin_round()?;
        let next = closure.union(&step(&closure)?)?;
        let done = next.equals(&closure)?;
        closure = next;
        fp.end_round(&[]);
        if done {
            return Ok(closure);
        }
    }
}
