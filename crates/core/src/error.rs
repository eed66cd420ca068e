//! Error types for the relational layer.
//!
//! Jedd enforces its typing rules (paper Fig. 6) statically in the
//! translator; the runtime relational API enforces the same rules
//! dynamically and reports violations through [`JeddError`].

use std::fmt;

/// An error raised by a relational operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JeddError {
    /// Operands of a set operation, assignment or comparison do not have
    /// the same attribute schema (\[SetOp\]/\[Assign\]/\[Compare\] rules).
    SchemaMismatch {
        /// Schema of the left operand (attribute names).
        left: Vec<String>,
        /// Schema of the right operand (attribute names).
        right: Vec<String>,
        /// The operation that was attempted.
        op: &'static str,
    },
    /// An expression would contain the same attribute twice.
    DuplicateAttribute {
        /// The offending attribute name.
        attribute: String,
        /// The operation that was attempted.
        op: &'static str,
    },
    /// An attribute named in a projection, rename, copy, join or compose
    /// does not occur in the operand's schema.
    NoSuchAttribute {
        /// The missing attribute name.
        attribute: String,
        /// The operation that was attempted.
        op: &'static str,
    },
    /// Join/compose compared attribute lists have different lengths.
    ComparedListLength {
        /// Length of the left attribute list.
        left: usize,
        /// Length of the right attribute list.
        right: usize,
    },
    /// Two compared attributes draw from different domains.
    DomainMismatch {
        /// The left attribute name.
        left: String,
        /// The right attribute name.
        right: String,
    },
    /// The non-compared attributes of join/compose operands overlap
    /// (violates `T ∩ U\' = ∅` of the \[Join\]/\[Compose\] rules).
    OverlappingSchemas {
        /// The attributes present on both sides.
        shared: Vec<String>,
    },
    /// A domain does not fit in the physical domain assigned to it.
    PhysicalDomainTooSmall {
        /// The attribute being stored.
        attribute: String,
        /// The physical domain's name.
        physical: String,
        /// Bits available.
        bits: usize,
        /// Objects that must be representable.
        domain_size: u64,
    },
    /// An object index is outside its domain.
    ObjectOutOfRange {
        /// The domain name.
        domain: String,
        /// The out-of-range index.
        index: u64,
        /// The domain size.
        size: u64,
    },
    /// A tuple handed to a constructor has a different number of columns
    /// than the schema.
    TupleArity {
        /// Columns the schema has.
        expected: usize,
        /// Columns the tuple has.
        found: usize,
    },
    /// Relations from different universes were combined.
    UniverseMismatch,
    /// The BDD kernel exhausted its resource budget (node limit, step
    /// limit, deadline or cancellation) while executing a relational
    /// operation, even after the manager's GC-and-reorder recovery
    /// ladder.
    ResourceExhausted {
        /// The relational operation that hit the limit.
        op: &'static str,
        /// The kernel-level cause.
        cause: jedd_bdd::BddError,
        /// Kernel counters at the point of failure (boxed to keep the
        /// error type small).
        stats: Box<jedd_bdd::KernelStats>,
    },
    /// Serialized universe metadata does not describe a state this
    /// universe can be restored into: a replayed registration produced a
    /// different id, a bit index is out of range, or a relation refers to
    /// ids that were never registered. Raised by the snapshot-restore path
    /// (`jedd-store`); like the schema errors it indicates corrupt or
    /// mismatched input, not resource exhaustion.
    InvalidRestore {
        /// Human-readable description of the mismatch.
        detail: String,
    },
}

impl fmt::Display for JeddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JeddError::SchemaMismatch { left, right, op } => write!(
                f,
                "schema mismatch in {op}: <{}> vs <{}>",
                left.join(", "),
                right.join(", ")
            ),
            JeddError::DuplicateAttribute { attribute, op } => {
                write!(f, "duplicate attribute {attribute} in {op}")
            }
            JeddError::NoSuchAttribute { attribute, op } => {
                write!(f, "no attribute {attribute} in operand of {op}")
            }
            JeddError::ComparedListLength { left, right } => write!(
                f,
                "compared attribute lists have different lengths ({left} vs {right})"
            ),
            JeddError::DomainMismatch { left, right } => write!(
                f,
                "compared attributes {left} and {right} have different domains"
            ),
            JeddError::OverlappingSchemas { shared } => write!(
                f,
                "operand schemas share non-compared attributes: {}",
                shared.join(", ")
            ),
            JeddError::PhysicalDomainTooSmall {
                attribute,
                physical,
                bits,
                domain_size,
            } => write!(
                f,
                "physical domain {physical} ({bits} bits) cannot hold attribute {attribute} \
                 (domain size {domain_size})"
            ),
            JeddError::ObjectOutOfRange {
                domain,
                index,
                size,
            } => write!(
                f,
                "object index {index} out of range for domain {domain} (size {size})"
            ),
            JeddError::TupleArity { expected, found } => {
                write!(f, "tuple has {found} columns but the schema has {expected}")
            }
            JeddError::UniverseMismatch => {
                write!(f, "relations belong to different universes")
            }
            JeddError::ResourceExhausted { op, cause, stats } => write!(
                f,
                "resource budget exhausted in {op}: {cause} \
                 ({} governed steps, {} GC retries, {} reorder retries)",
                stats.governed_steps, stats.ladder_gc_retries, stats.ladder_reorder_retries
            ),
            JeddError::InvalidRestore { detail } => {
                write!(f, "invalid universe restore: {detail}")
            }
        }
    }
}

impl std::error::Error for JeddError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let errors = [
            JeddError::SchemaMismatch {
                left: vec!["a".into()],
                right: vec!["b".into()],
                op: "union",
            },
            JeddError::DuplicateAttribute {
                attribute: "x".into(),
                op: "rename",
            },
            JeddError::NoSuchAttribute {
                attribute: "x".into(),
                op: "project",
            },
            JeddError::ComparedListLength { left: 1, right: 2 },
            JeddError::DomainMismatch {
                left: "a".into(),
                right: "b".into(),
            },
            JeddError::OverlappingSchemas {
                shared: vec!["a".into()],
            },
            JeddError::PhysicalDomainTooSmall {
                attribute: "a".into(),
                physical: "T1".into(),
                bits: 2,
                domain_size: 10,
            },
            JeddError::ObjectOutOfRange {
                domain: "Type".into(),
                index: 9,
                size: 4,
            },
            JeddError::TupleArity {
                expected: 2,
                found: 1,
            },
            JeddError::UniverseMismatch,
            JeddError::ResourceExhausted {
                op: "join",
                cause: jedd_bdd::BddError::StepLimit {
                    steps: 101,
                    limit: 100,
                },
                stats: Box::default(),
            },
            JeddError::InvalidRestore {
                detail: "domain count mismatch".into(),
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
