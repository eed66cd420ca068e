//! Resource budgets, cooperative cancellation and fault injection for the
//! BDD kernel.
//!
//! BDD operations can blow up superlinearly in node count; an unbounded
//! `apply` either exhausts memory or spins for hours. The [`Budget`] type
//! bounds a kernel operation's resource use (live nodes, apply steps,
//! wall-clock deadline, cooperative cancellation); the `try_*` operation
//! variants on [`crate::Bdd`] report exhaustion as a [`BddError`] instead
//! of panicking, and the manager's recovery ladder (GC, then reordering)
//! tries to shrink the table before giving up. [`FailPlan`] deterministically
//! injects failures so tests can exercise every error path.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An error from a budgeted (`try_*`) kernel operation.
///
/// Failure mid-operation is safe: nodes created by the failed operation
/// carry no external references and are reclaimed by the next garbage
/// collection; the unique table, reference counts and operation cache stay
/// consistent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BddError {
    /// The arena exceeded [`Budget::max_live_nodes`] and the recovery
    /// ladder (GC, then reordering) could not shrink it below the limit.
    NodeLimit {
        /// Live nodes at the point of failure.
        live: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The operation exceeded [`Budget::max_steps`] recursion steps.
    StepLimit {
        /// Steps taken by the failing top-level operation.
        steps: u64,
        /// The configured limit.
        limit: u64,
    },
    /// The wall-clock deadline passed mid-operation.
    Deadline,
    /// The operation's [`CancelToken`] was triggered.
    Cancelled,
    /// A [`FailPlan`] injected this failure (tests only).
    FaultInjected {
        /// Which hook fired (e.g. `"alloc"`).
        kind: &'static str,
        /// The hook's event count at the point of injection.
        at: u64,
    },
    /// The permutation handed to a `replace` is not valid for the operand:
    /// it is non-injective on the support, or maps outside the variable
    /// range. Returned by [`crate::Bdd::try_replace`] and
    /// [`crate::Permutation::try_from_pairs`]; unlike the resource errors
    /// this one is a caller mistake, so the recovery ladder never retries
    /// it and it does not count as a budget failure.
    InvalidPermutation {
        /// The variable the validation tripped over (a duplicated source,
        /// a collided target, or an out-of-range target, per `kind`).
        var: u32,
        /// What exactly is wrong with the permutation.
        kind: PermutationFlaw,
    },
    /// A node list handed to [`crate::BddManager::import_nodes`] is not a
    /// well-formed, children-first, reduced node table, or a
    /// [`crate::BddManager::set_order`] precondition failed. Like `InvalidPermutation` this is a caller (or corrupt-input)
    /// mistake, not resource exhaustion: the recovery ladder never retries
    /// it. Validation happens before any node is created, so a rejected
    /// import leaves the arena untouched.
    InvalidImport {
        /// Index of the offending entry in the imported node list.
        index: u32,
        /// What is wrong with the entry (e.g. `"variable out of range"`).
        reason: &'static str,
    },
    /// The disk-backed pager failed: an eviction write or block fault-in
    /// hit an I/O error, a torn (corrupt) block, or an injected kill. This
    /// is the compact `Copy` form; the full error (paths, the underlying
    /// I/O error) stays parked in the manager and is retrievable once via
    /// [`crate::BddManager::take_page_error`]. The recovery ladder never
    /// retries it — losing the page file is not recoverable by GC.
    Page {
        /// The page-file block involved.
        block: u32,
        /// Failure class: `"io"`, `"killed"`, or a block decode tag
        /// (`"checksum"`, `"truncated"`, `"bad-magic"`, …).
        kind: &'static str,
    },
}

/// Why a permutation was rejected (see [`BddError::InvalidPermutation`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PermutationFlaw {
    /// The same source variable is mapped twice.
    DuplicateSource,
    /// Two distinct variables map to the same target. At replace time this
    /// covers both two moved support variables colliding and a moved
    /// variable landing on an unmoved support variable.
    DuplicateTarget,
    /// A target variable is outside the manager's variable range.
    OutOfRange,
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BddError::NodeLimit { live, limit } => {
                write!(f, "node limit exceeded: {live} live nodes > limit {limit}")
            }
            BddError::StepLimit { steps, limit } => {
                write!(f, "step limit exceeded: {steps} steps > limit {limit}")
            }
            BddError::Deadline => write!(f, "wall-clock deadline exceeded"),
            BddError::Cancelled => write!(f, "operation cancelled"),
            BddError::FaultInjected { kind, at } => {
                write!(f, "injected fault: {kind} #{at}")
            }
            BddError::InvalidPermutation { var, kind } => match kind {
                PermutationFlaw::DuplicateSource => {
                    write!(f, "invalid permutation: maps variable {var} twice")
                }
                PermutationFlaw::DuplicateTarget => write!(
                    f,
                    "invalid permutation: two variables map to the same target {var}"
                ),
                PermutationFlaw::OutOfRange => {
                    write!(f, "invalid permutation: target variable {var} out of range")
                }
            },
            BddError::InvalidImport { index, reason } => {
                write!(f, "invalid node import at entry {index}: {reason}")
            }
            BddError::Page { block, kind } => {
                write!(f, "pager failure ({kind}) at block {block}")
            }
        }
    }
}

impl std::error::Error for BddError {}

/// A cooperative cancellation token, checked periodically inside kernel
/// recursions.
///
/// Cloning shares the flag, and the flag is atomic, so a token handed to
/// another thread (e.g. a watchdog) can cancel an operation running here.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; in-flight budgeted operations observe it at
    /// their next check point and return [`BddError::Cancelled`].
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Clears the flag so the token can be reused.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Relaxed);
    }

    /// `true` once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Resource limits applied to budgeted kernel operations.
///
/// The default budget is unlimited; limits compose freely. `max_steps`,
/// the deadline and the cancel token are scoped per top-level operation;
/// `max_live_nodes` bounds the shared arena. Deadline and cancellation are
/// probed on an operation's first recursion step and then only every
/// [`Budget::CHECK_INTERVAL`] steps, keeping the governed fast path to one
/// branch and one increment.
///
/// # Examples
///
/// ```
/// use jedd_bdd::{BddManager, Budget};
/// let mgr = BddManager::new(8);
/// mgr.set_budget(Budget::unlimited().with_max_steps(1_000_000));
/// let f = mgr.var(0).try_and(&mgr.var(1)).unwrap();
/// assert_eq!(f.satcount(), 64.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Maximum live nodes in the arena (checked at node allocation).
    pub max_live_nodes: Option<usize>,
    /// Maximum recursion steps per top-level operation.
    pub max_steps: Option<u64>,
    /// Wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation token.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// After an operation's first step, deadline and cancellation are
    /// probed every this many recursion steps, so `Instant::now` stays
    /// off the per-node fast path.
    pub const CHECK_INTERVAL: u64 = 1024;

    /// A budget with no limits (the manager default).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Bounds the total number of live nodes in the arena.
    pub fn with_max_live_nodes(mut self, n: usize) -> Budget {
        self.max_live_nodes = Some(n);
        self
    }

    /// Bounds the recursion steps of each top-level operation.
    pub fn with_max_steps(mut self, n: u64) -> Budget {
        self.max_steps = Some(n);
        self
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline(mut self, at: Instant) -> Budget {
        self.deadline = Some(at);
        self
    }

    /// Sets a deadline `d` from now.
    pub fn with_timeout(mut self, d: Duration) -> Budget {
        self.deadline = Some(Instant::now() + d);
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// `true` if any limit is configured.
    pub fn is_limited(&self) -> bool {
        self.max_live_nodes.is_some()
            || self.max_steps.is_some()
            || self.deadline.is_some()
            || self.cancel.is_some()
    }
}

/// Deterministic fault injection for tests.
///
/// A fail plan makes the kernel misbehave on a precise schedule so error
/// paths can be exercised without constructing pathological inputs:
///
/// * `fail_alloc_at`: the Nth node allocation (1-based, counted from when
///   the plan is installed) returns [`BddError::FaultInjected`];
/// * `skip_cache_insert_every`: every k-th operation-cache insert is
///   silently dropped. Cache inserts are semantically optional, so this
///   must not change any result — tests use it to stress the uncached
///   recursion paths.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FailPlan {
    /// Fail the Nth node allocation (1-based); `None` disables the hook.
    pub fail_alloc_at: Option<u64>,
    /// Drop every k-th cache insert; `None` disables the hook.
    pub skip_cache_insert_every: Option<u64>,
}

impl FailPlan {
    /// A plan that fails the `n`-th node allocation (1-based).
    pub fn fail_alloc_at(n: u64) -> FailPlan {
        FailPlan {
            fail_alloc_at: Some(n),
            ..FailPlan::default()
        }
    }

    /// A plan that drops every `k`-th operation-cache insert.
    pub fn skip_cache_insert_every(k: u64) -> FailPlan {
        FailPlan {
            skip_cache_insert_every: Some(k),
            ..FailPlan::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_builder_composes() {
        let b = Budget::unlimited()
            .with_max_live_nodes(10)
            .with_max_steps(20)
            .with_timeout(Duration::from_secs(3600));
        assert_eq!(b.max_live_nodes, Some(10));
        assert_eq!(b.max_steps, Some(20));
        assert!(b.deadline.is_some());
        assert!(b.is_limited());
        assert!(!Budget::unlimited().is_limited());
    }

    #[test]
    fn cancel_token_round_trip() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let shared = t.clone();
        shared.cancel();
        assert!(t.is_cancelled());
        t.reset();
        assert!(!shared.is_cancelled());
        assert!(Budget::unlimited().with_cancel(t).is_limited());
    }

    #[test]
    fn errors_display() {
        for e in [
            BddError::NodeLimit { live: 5, limit: 4 },
            BddError::StepLimit { steps: 9, limit: 8 },
            BddError::Deadline,
            BddError::Cancelled,
            BddError::FaultInjected {
                kind: "alloc",
                at: 3,
            },
            BddError::InvalidPermutation {
                var: 2,
                kind: PermutationFlaw::DuplicateSource,
            },
            BddError::InvalidPermutation {
                var: 2,
                kind: PermutationFlaw::DuplicateTarget,
            },
            BddError::InvalidPermutation {
                var: 99,
                kind: PermutationFlaw::OutOfRange,
            },
            BddError::InvalidImport {
                index: 7,
                reason: "variable out of range",
            },
            BddError::Page {
                block: 3,
                kind: "checksum",
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
