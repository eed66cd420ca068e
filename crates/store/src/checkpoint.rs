//! Checkpoint orchestration: when to checkpoint, how a checkpoint commits,
//! and how a crashed run resumes.
//!
//! A checkpoint is two steps in write-ahead order: first the snapshot file
//! lands under its sequence-numbered name via atomic rename, then one
//! [`LogRecord`] referencing it is appended to `checkpoint.log`. Only the
//! log append commits the checkpoint — a crash between the two leaves an
//! orphaned snapshot the log never mentions, and the previous committed
//! checkpoint remains the resume point. Pruning keeps the two most recent
//! snapshots so that exact window always has a fallback.
//!
//! [`resume_latest_bdd`] walks the committed records newest-first and
//! returns the first whose snapshot still loads cleanly, logging a warning
//! for each corrupt or missing one it skips.

use crate::error::StoreError;
use crate::faults::{FaultClock, StoreFaults};
use crate::io::{truncate_synced, write_atomic};
use crate::snapshot::{encode_bdd_snapshot, load_bdd_snapshot, BACKEND_BDD};
use crate::wal::{append_record, read_records, read_records_prefix, LogRecord};
use jedd_core::{Relation, Universe, UniverseStats};
use std::path::{Path, PathBuf};

/// File name of the write-ahead checkpoint log inside a checkpoint
/// directory.
pub const LOG_FILE: &str = "checkpoint.log";

/// When the driver should cut a checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint after every `every_rounds` completed fixpoint rounds
    /// (0 disables round-driven checkpoints).
    pub every_rounds: u64,
    /// Checkpoint the last good state when a round dies with
    /// `ResourceExhausted`.
    pub on_exhausted: bool,
    /// Checkpoint the last good state on cooperative cancellation.
    pub on_cancel: bool,
}

impl Default for CheckpointPolicy {
    /// Every round, plus on exhaustion and on cancellation.
    fn default() -> CheckpointPolicy {
        CheckpointPolicy {
            every_rounds: 1,
            on_exhausted: true,
            on_cancel: true,
        }
    }
}

impl CheckpointPolicy {
    /// A policy checkpointing every `n` rounds (and on both failure kinds).
    pub fn every(n: u64) -> CheckpointPolicy {
        CheckpointPolicy {
            every_rounds: n,
            ..CheckpointPolicy::default()
        }
    }
}

/// Everything a checkpoint records besides the relations themselves.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointMeta<'a> {
    /// The analysis writing the checkpoint.
    pub analysis: &'a str,
    /// Fixpoint rounds completed at this state.
    pub round: u64,
    /// Analysis-specific phase scalar (0 when unused).
    pub phase: u32,
    /// Analysis-specific auxiliary word (0 when unused).
    pub aux: u64,
    /// Driver RNG word (0 when unused).
    pub rng: u64,
}

/// Writes checkpoints into one directory with write-ahead ordering,
/// sequence numbering, crash injection and pruning.
#[derive(Debug)]
pub struct Checkpointer {
    dir: PathBuf,
    policy: CheckpointPolicy,
    faults: FaultClock,
    next_seq: u64,
}

impl Checkpointer {
    /// Opens (creating if needed) a checkpoint directory. The next
    /// sequence number continues after the newest committed record, so a
    /// resumed run never reuses a sequence number. A torn tail left by a
    /// crash mid-append is truncated away first — otherwise every record
    /// appended after the tear would be committed but invisible, since the
    /// reader stops at the first bad frame.
    pub fn create(dir: &Path, policy: CheckpointPolicy) -> Result<Checkpointer, StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::Io {
            op: "create checkpoint directory",
            path: dir.to_path_buf(),
            source: e,
        })?;
        let log = dir.join(LOG_FILE);
        let (records, valid_len) = read_records_prefix(&log)?;
        if truncate_synced(&log, valid_len)? {
            eprintln!(
                "jedd-store: warning: {}: truncated torn log tail to {valid_len} byte(s)",
                log.display()
            );
        }
        let next_seq = records.iter().map(|r| r.seq + 1).max().unwrap_or(0);
        Ok(Checkpointer {
            dir: dir.to_path_buf(),
            policy,
            faults: FaultClock::default(),
            next_seq,
        })
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The active policy.
    pub fn policy(&self) -> CheckpointPolicy {
        self.policy
    }

    /// Installs a crash-injection plan; occurrence counters restart at
    /// zero.
    pub fn set_faults(&mut self, faults: StoreFaults) {
        self.faults.install(faults);
    }

    /// Whether the policy asks for a checkpoint after `rounds_done`
    /// completed rounds.
    pub fn due_after_round(&self, rounds_done: u64) -> bool {
        self.policy.every_rounds != 0 && rounds_done.is_multiple_of(self.policy.every_rounds)
    }

    fn commit(
        &mut self,
        meta: &CheckpointMeta<'_>,
        bytes: Vec<u8>,
        stats: UniverseStats,
    ) -> Result<u64, StoreError> {
        let seq = self.next_seq;
        let snapshot = format!("snap-{seq}");
        let snap_cap = self.faults.snapshot_cap();
        let rename_dies = self.faults.rename_dies();
        write_atomic(&self.dir.join(&snapshot), &bytes, snap_cap, rename_dies)?;
        let record = LogRecord {
            seq,
            analysis: meta.analysis.to_string(),
            round: meta.round,
            phase: meta.phase,
            aux: meta.aux,
            snapshot,
            backend: BACKEND_BDD,
            rng: meta.rng,
            auto_replaces: stats.auto_replaces,
            relational_ops: stats.relational_ops,
        };
        let append_cap = self.faults.append_cap();
        append_record(&self.dir.join(LOG_FILE), &record, append_cap)?;
        self.next_seq = seq + 1;
        self.prune(seq);
        Ok(seq)
    }

    /// Deletes snapshots older than the previous committed one (keeping
    /// `seq` and `seq - 1`), plus any leftover temp file below the window.
    /// Scans the actual `snap-*` directory entries rather than counting
    /// sequence numbers down, so gaps in the history (a failed commit that
    /// left no file) don't shadow older snapshots from reclamation. Best
    /// effort; a failed delete never fails the checkpoint.
    fn prune(&self, seq: u64) {
        let keep_from = seq.saturating_sub(1);
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix("snap-") else {
                continue;
            };
            let stem = rest.strip_suffix(".tmp").unwrap_or(rest);
            if stem.parse::<u64>().is_ok_and(|s| s < keep_from) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// Commits a checkpoint of BDD-backed relations sharing `universe`.
    /// Returns the sequence number.
    ///
    /// # Errors
    ///
    /// I/O failures and injected kills ([`StoreError::Killed`]); on any
    /// error the previous committed checkpoint is untouched.
    pub fn checkpoint_bdd(
        &mut self,
        meta: &CheckpointMeta<'_>,
        universe: &Universe,
        relations: &[(&str, &Relation)],
    ) -> Result<u64, StoreError> {
        // Arm any scheduled pager kill on this universe's kernel (once):
        // the first checkpoint of a paged run is the earliest point the
        // checkpointer sees the manager, and the kill then fires during a
        // later round's eviction write.
        if let Some(pf) = self.faults.take_pager_faults() {
            universe.bdd_manager().set_pager_faults(pf);
        }
        let bytes = encode_bdd_snapshot(universe, relations);
        self.commit(meta, bytes, universe.stats())
    }
}

/// A loaded BDD resume point: the committed record plus the rebuilt state.
pub struct BddResumePoint {
    /// The log record that committed this checkpoint.
    pub record: LogRecord,
    /// The rebuilt universe, with profiler counters restored from the
    /// record.
    pub universe: Universe,
    /// The relations, in snapshot order.
    pub relations: Vec<(String, Relation)>,
}

impl BddResumePoint {
    /// The relation with the given name, if present.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r)
    }
}

/// Whether a snapshot name read from the log may be joined onto the
/// checkpoint directory. The log is on-disk content and therefore
/// untrusted like everything else the store reads; a tampered record
/// naming `../../x` must not reach files outside the directory.
fn snapshot_name_is_safe(name: &str) -> bool {
    !name.is_empty() && name != "." && name != ".." && !name.contains(['/', '\\'])
}

/// Validates `record.snapshot` and joins it onto `dir`, or skips the
/// record (with the standard warning) by returning `None`.
fn safe_snapshot_path(dir: &Path, record: &LogRecord) -> Option<PathBuf> {
    if snapshot_name_is_safe(&record.snapshot) {
        return Some(dir.join(&record.snapshot));
    }
    let err = StoreError::Malformed {
        path: dir.join(LOG_FILE),
        reason: format!(
            "snapshot name {:?} escapes the checkpoint directory",
            record.snapshot
        ),
    };
    skip_warning(dir, record, &err);
    None
}

fn skip_warning(dir: &Path, record: &LogRecord, err: &StoreError) {
    eprintln!(
        "jedd-store: warning: checkpoint seq {} in {} is not loadable ({err}); falling back to the previous one",
        record.seq,
        dir.display()
    );
}

/// Loads the newest resumable BDD checkpoint from `dir`, skipping records
/// whose snapshot is corrupt, torn or of the wrong backend (each with a
/// warning on stderr).
///
/// # Errors
///
/// [`StoreError::NoCheckpoint`] when no committed record's snapshot loads;
/// [`StoreError::Io`] only if the log itself is unreadable.
pub fn resume_latest_bdd(dir: &Path) -> Result<BddResumePoint, StoreError> {
    let records = read_records(&dir.join(LOG_FILE))?;
    for record in records.into_iter().rev() {
        if record.backend != BACKEND_BDD {
            continue;
        }
        let Some(snap_path) = safe_snapshot_path(dir, &record) else {
            continue;
        };
        match load_bdd_snapshot(&snap_path) {
            Ok(snap) => {
                snap.universe.restore_stats(UniverseStats {
                    auto_replaces: record.auto_replaces,
                    relational_ops: record.relational_ops,
                    // The log does not record this counter; it restarts
                    // from zero on resume.
                    key_restrictions: 0,
                });
                return Ok(BddResumePoint {
                    record,
                    universe: snap.universe,
                    relations: snap.relations,
                });
            }
            Err(e) => skip_warning(dir, &record, &e),
        }
    }
    Err(StoreError::NoCheckpoint {
        dir: dir.to_path_buf(),
    })
}
