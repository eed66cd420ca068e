//! Crash-safe persistence for Jedd relations: checksummed snapshots, a
//! write-ahead checkpoint log, and resume of interrupted fixpoint runs.
//!
//! This crate is the durability layer below the analyses (paper §6 runs
//! hours-long BDD analyses; losing one to a crash is expensive). It has
//! three pieces:
//!
//! - **Snapshots** ([`encode_bdd_snapshot`]/[`decode_bdd_snapshot`]): a
//!   versioned, length-prefixed, CRC32-checksummed
//!   binary image of a set of relations sharing one manager — the
//!   variable order, the universe registries, a children-first node table
//!   and per-relation roots. Decoding validates everything before
//!   touching a manager and returns typed [`StoreError`]s, never panics;
//!   round trips are node-id-identical under the same order.
//! - **The checkpoint log** ([`LogRecord`], [`read_records`]): an
//!   append-only, fsynced record stream committing snapshots in
//!   write-ahead order. Torn tails are skipped with a warning.
//! - **Checkpoint orchestration** ([`Checkpointer`],
//!   [`CheckpointPolicy`], [`resume_latest_bdd`]):
//!   sequence numbering, atomic-rename commits, pruning to the last two
//!   snapshots, and newest-first resume that falls back across corrupt
//!   checkpoints.
//!
//! Crash injection ([`StoreFaults`]) kills the I/O protocol at precise
//! points so the recovery path is tested against every torn state a real
//! power cut could leave.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod crc32;
mod error;
mod faults;
mod io;
mod snapshot;
mod wal;

pub use checkpoint::{
    resume_latest_bdd, BddResumePoint, CheckpointMeta, CheckpointPolicy, Checkpointer, LOG_FILE,
};
pub use error::StoreError;
pub use faults::{Kill, StoreFaults};
pub use snapshot::{
    decode_bdd_snapshot, encode_bdd_snapshot, load_bdd_snapshot, snapshot_backend, BddSnapshot,
    BACKEND_BDD, BACKEND_CBDD,
};
pub use wal::{read_records, read_records_prefix, LogRecord};
