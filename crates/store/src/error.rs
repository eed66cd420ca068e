//! The typed error surface of the persistent store.
//!
//! Every failure mode of the on-disk formats — I/O errors, truncation,
//! checksum mismatches, malformed structure, injected kills — is a
//! [`StoreError`] variant. The deserializers never panic on corrupt input;
//! the crash-recovery tests corrupt snapshots byte by byte to hold them to
//! that.

use std::fmt;
use std::path::PathBuf;

/// An error from the snapshot, log or checkpoint layer.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure.
    Io {
        /// What the store was doing (e.g. `"write snapshot"`).
        op: &'static str,
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file is shorter than its own framing claims — the signature of
    /// a torn write.
    Truncated {
        /// The file involved.
        path: PathBuf,
        /// Bytes the framing promised.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The payload checksum does not match its header.
    ChecksumMismatch {
        /// The file involved.
        path: PathBuf,
    },
    /// The fixed header is unreadable: wrong magic, unsupported version,
    /// or unknown backend tag.
    BadHeader {
        /// The file involved.
        path: PathBuf,
        /// What exactly is wrong.
        reason: &'static str,
    },
    /// The payload passed its checksum but does not parse as the declared
    /// structure (only reachable for files written by a different or
    /// buggy producer).
    Malformed {
        /// The file involved.
        path: PathBuf,
        /// What exactly failed to parse.
        reason: String,
    },
    /// Rebuilding kernel state from a structurally valid snapshot failed
    /// (node-table validation in the BDD import).
    Import(jedd_bdd::BddError),
    /// Rebuilding relational state from a structurally valid snapshot
    /// failed (universe replay or schema validation).
    Restore(jedd_core::JeddError),
    /// A resume was requested but the directory holds no loadable
    /// checkpoint at all.
    NoCheckpoint {
        /// The checkpoint directory.
        dir: PathBuf,
    },
    /// An injected fault ([`crate::StoreFaults`]) killed the process model
    /// at this point; the bytes written so far stay on disk exactly as a
    /// real crash would leave them.
    Killed {
        /// The kill point (`"snapshot-write"`, `"rename"`, `"log-append"`).
        at: &'static str,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(f, "{op} {}: {source}", path.display())
            }
            StoreError::Truncated {
                path,
                expected,
                actual,
            } => write!(
                f,
                "{} is truncated: framing claims {expected} bytes, found {actual}",
                path.display()
            ),
            StoreError::ChecksumMismatch { path } => {
                write!(f, "{}: payload checksum mismatch", path.display())
            }
            StoreError::BadHeader { path, reason } => {
                write!(f, "{}: bad header ({reason})", path.display())
            }
            StoreError::Malformed { path, reason } => {
                write!(f, "{}: malformed payload ({reason})", path.display())
            }
            StoreError::Import(e) => write!(f, "node import rejected: {e}"),
            StoreError::Restore(e) => write!(f, "universe restore rejected: {e}"),
            StoreError::NoCheckpoint { dir } => {
                write!(f, "no loadable checkpoint in {}", dir.display())
            }
            StoreError::Killed { at } => write!(f, "injected crash at {at}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Import(e) => Some(e),
            StoreError::Restore(e) => Some(e),
            _ => None,
        }
    }
}

impl From<jedd_bdd::BddError> for StoreError {
    fn from(e: jedd_bdd::BddError) -> StoreError {
        StoreError::Import(e)
    }
}

impl From<jedd_core::JeddError> for StoreError {
    fn from(e: jedd_core::JeddError) -> StoreError {
        StoreError::Restore(e)
    }
}

impl From<jedd_bdd::pager::PageError> for StoreError {
    /// A pager failure in the same vocabulary as the store's own on-disk
    /// failures: the page file is one more checksummed format, so a torn
    /// block maps to the variant a torn snapshot would produce.
    fn from(e: jedd_bdd::pager::PageError) -> StoreError {
        use jedd_bdd::pager::{BlockError, PageError};
        match e {
            PageError::Io {
                op, path, source, ..
            } => StoreError::Io { op, path, source },
            PageError::Corrupt { path, kind, .. } => match kind {
                BlockError::ChecksumMismatch => StoreError::ChecksumMismatch { path },
                BlockError::Truncated { expected, actual } => StoreError::Truncated {
                    path,
                    expected: expected as u64,
                    actual: actual as u64,
                },
                BlockError::BadMagic => StoreError::BadHeader {
                    path,
                    reason: "bad block magic",
                },
                BlockError::BadVersion(_) => StoreError::BadHeader {
                    path,
                    reason: "unsupported block version",
                },
                BlockError::WrongBlock { .. } => StoreError::BadHeader {
                    path,
                    reason: "block index mismatch",
                },
                BlockError::BadLength(_) => StoreError::BadHeader {
                    path,
                    reason: "impossible block payload length",
                },
            },
            PageError::Killed { at, .. } => StoreError::Killed { at },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let errors = [
            StoreError::Io {
                op: "write snapshot",
                path: "x".into(),
                source: std::io::Error::other("disk full"),
            },
            StoreError::Truncated {
                path: "x".into(),
                expected: 10,
                actual: 4,
            },
            StoreError::ChecksumMismatch { path: "x".into() },
            StoreError::BadHeader {
                path: "x".into(),
                reason: "wrong magic",
            },
            StoreError::Malformed {
                path: "x".into(),
                reason: "string underrun".into(),
            },
            StoreError::Import(jedd_bdd::BddError::InvalidImport {
                index: 0,
                reason: "variable out of range",
            }),
            StoreError::Restore(jedd_core::JeddError::UniverseMismatch),
            StoreError::NoCheckpoint { dir: "x".into() },
            StoreError::Killed { at: "rename" },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn page_errors_map_to_the_matching_store_variants() {
        use jedd_bdd::pager::{BlockError, PageError};
        let corrupt = |kind| PageError::Corrupt {
            block: 4,
            path: "nodes.jpgb".into(),
            kind,
        };
        assert!(matches!(
            StoreError::from(corrupt(BlockError::ChecksumMismatch)),
            StoreError::ChecksumMismatch { .. }
        ));
        assert!(matches!(
            StoreError::from(corrupt(BlockError::Truncated {
                expected: 20,
                actual: 3
            })),
            StoreError::Truncated {
                expected: 20,
                actual: 3,
                ..
            }
        ));
        assert!(matches!(
            StoreError::from(corrupt(BlockError::BadMagic)),
            StoreError::BadHeader { .. }
        ));
        assert!(matches!(
            StoreError::from(PageError::Killed {
                at: "page-write",
                block: 1
            }),
            StoreError::Killed { at: "page-write" }
        ));
        assert!(matches!(
            StoreError::from(PageError::Io {
                op: "read",
                block: 0,
                path: "nodes.jpgb".into(),
                source: std::io::Error::other("gone"),
            }),
            StoreError::Io { op: "read", .. }
        ));
    }
}
