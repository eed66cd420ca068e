//! Durable file primitives: write-to-temp + fsync + atomic-rename, and
//! synced appends.
//!
//! The atomic-rename protocol is what makes snapshots crash-safe: the
//! final file name only ever points at a fully written, fsynced file, so a
//! crash at any byte offset leaves either the old snapshot or the new one
//! intact — never a hybrid. The injected kills model a crash by stopping
//! the protocol at the same points a power cut would.

use crate::error::StoreError;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

fn io_err(op: &'static str, path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        op,
        path: path.to_path_buf(),
        source,
    }
}

/// Fsyncs the directory containing `path`, making a just-completed rename
/// or append durable against the directory entry itself being lost. Best
/// effort on filesystems that reject directory syncs.
fn sync_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(d) = File::open(parent) {
            let _ = d.sync_all();
        }
    }
}

/// Writes `bytes` to `path` via temp file + fsync + atomic rename.
///
/// `kill_after` tears the temp-file write after that many bytes (the temp
/// file stays behind, truncated; `path` is untouched); `kill_rename`
/// crashes after the temp file is complete and synced but before the
/// rename. Both return [`StoreError::Killed`].
pub(crate) fn write_atomic(
    path: &Path,
    bytes: &[u8],
    kill_after: Option<u64>,
    kill_rename: bool,
) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp).map_err(|e| io_err("create temp for", path, e))?;
    if let Some(cap) = kill_after {
        let cap = (cap as usize).min(bytes.len());
        f.write_all(&bytes[..cap])
            .map_err(|e| io_err("write temp for", path, e))?;
        let _ = f.sync_all();
        return Err(StoreError::Killed {
            at: "snapshot-write",
        });
    }
    f.write_all(bytes)
        .map_err(|e| io_err("write temp for", path, e))?;
    f.sync_all().map_err(|e| io_err("sync temp for", path, e))?;
    drop(f);
    if kill_rename {
        return Err(StoreError::Killed { at: "rename" });
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err("rename into", path, e))?;
    sync_dir(path);
    Ok(())
}

/// Truncates `path` to `len` bytes and fsyncs, discarding anything after
/// the valid prefix (a torn tail). Returns whether anything was cut; a
/// missing file or one already at (or under) `len` is a no-op.
pub(crate) fn truncate_synced(path: &Path, len: u64) -> Result<bool, StoreError> {
    let f = match OpenOptions::new().write(true).open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(io_err("open for truncate", path, e)),
    };
    let actual = f
        .metadata()
        .map_err(|e| io_err("stat for truncate", path, e))?
        .len();
    if actual <= len {
        return Ok(false);
    }
    f.set_len(len).map_err(|e| io_err("truncate", path, e))?;
    f.sync_all().map_err(|e| io_err("sync", path, e))?;
    Ok(true)
}

/// Appends `bytes` to `path` (creating it if missing) and fsyncs.
///
/// `kill_after` tears the append after that many bytes, modelling a crash
/// mid-append: the file keeps its valid prefix plus a torn tail the log
/// reader skips.
pub(crate) fn append_synced(
    path: &Path,
    bytes: &[u8],
    kill_after: Option<u64>,
) -> Result<(), StoreError> {
    let mut f = OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
        .map_err(|e| io_err("open for append", path, e))?;
    if let Some(cap) = kill_after {
        let cap = (cap as usize).min(bytes.len());
        f.write_all(&bytes[..cap])
            .map_err(|e| io_err("append to", path, e))?;
        let _ = f.sync_all();
        return Err(StoreError::Killed { at: "log-append" });
    }
    f.write_all(bytes)
        .map_err(|e| io_err("append to", path, e))?;
    f.sync_all().map_err(|e| io_err("sync", path, e))?;
    sync_dir(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("jedd-store-io-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn atomic_write_round_trips() {
        let d = tmpdir("atomic");
        let p = d.join("file.bin");
        write_atomic(&p, b"hello", None, false).unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"hello");
        // Overwrite is atomic too.
        write_atomic(&p, b"world!", None, false).unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"world!");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_write_leaves_old_file_intact() {
        let d = tmpdir("torn");
        let p = d.join("file.bin");
        write_atomic(&p, b"old-content", None, false).unwrap();
        let e = write_atomic(&p, b"new-content", Some(4), false).unwrap_err();
        assert!(matches!(
            e,
            StoreError::Killed {
                at: "snapshot-write"
            }
        ));
        assert_eq!(std::fs::read(&p).unwrap(), b"old-content");
        // The torn temp file is what a crash would leave.
        assert_eq!(std::fs::read(p.with_extension("tmp")).unwrap(), b"new-");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn killed_rename_leaves_old_file_intact() {
        let d = tmpdir("rename");
        let p = d.join("file.bin");
        write_atomic(&p, b"old", None, false).unwrap();
        let e = write_atomic(&p, b"new", None, true).unwrap_err();
        assert!(matches!(e, StoreError::Killed { at: "rename" }));
        assert_eq!(std::fs::read(&p).unwrap(), b"old");
        // The complete temp file survives, as after a real pre-rename crash.
        assert_eq!(std::fs::read(p.with_extension("tmp")).unwrap(), b"new");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_append_keeps_valid_prefix() {
        let d = tmpdir("append");
        let p = d.join("log.bin");
        append_synced(&p, b"rec1", None).unwrap();
        let e = append_synced(&p, b"rec2", Some(2)).unwrap_err();
        assert!(matches!(e, StoreError::Killed { at: "log-append" }));
        assert_eq!(std::fs::read(&p).unwrap(), b"rec1re");
        let _ = std::fs::remove_dir_all(&d);
    }
}
