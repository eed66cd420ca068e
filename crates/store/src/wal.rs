//! The write-ahead checkpoint log.
//!
//! The log is an append-only sequence of self-framing records, one per
//! committed checkpoint. Each record carries everything the resume path
//! needs besides the snapshot itself: the sequence number, the analysis
//! name, the fixpoint round counter, a phase scalar and an auxiliary word
//! (analysis-specific loop position), the snapshot file name, the backend
//! tag, the RNG word, and the universe profiler counters.
//!
//! A record is framed as `marker u32 · payload-length u32 · payload CRC32
//! · payload`. Appends are fsynced; a crash mid-append leaves a torn tail
//! that fails the length or checksum test, and [`read_records`] stops
//! there with a logged warning rather than an error — everything before
//! the tear is still a valid checkpoint history.

use crate::crc32::crc32;
use crate::error::StoreError;
use crate::io::append_synced;
use std::path::Path;

/// Per-record frame marker (`"JLOG"` little-endian).
const MARKER: u32 = u32::from_le_bytes(*b"JLOG");

/// One committed checkpoint, as recorded in the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// Monotonic checkpoint sequence number (also names the snapshot).
    pub seq: u64,
    /// Which analysis wrote the checkpoint (e.g. `"pointsto"`).
    pub analysis: String,
    /// The fixpoint round counter at the checkpoint (rounds completed).
    pub round: u64,
    /// Analysis-specific phase scalar (e.g. which of sideeffect's two
    /// closure passes is running); 0 when unused.
    pub phase: u32,
    /// Analysis-specific auxiliary word (e.g. the points-to propagation
    /// mode); 0 when unused.
    pub aux: u64,
    /// File name of the snapshot this record commits, relative to the
    /// checkpoint directory.
    pub snapshot: String,
    /// Backend tag of the checkpoint: always [`crate::BACKEND_BDD`] (a
    /// chained universe's snapshot frame carries [`crate::BACKEND_CBDD`]).
    pub backend: u8,
    /// The driver's RNG word at the checkpoint, so resumed runs keep the
    /// same stochastic decisions.
    pub rng: u64,
    /// `UniverseStats::auto_replaces` at the checkpoint.
    pub auto_replaces: u64,
    /// `UniverseStats::relational_ops` at the checkpoint.
    pub relational_ops: u64,
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

impl LogRecord {
    fn encode_payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        put_u64(&mut p, self.seq);
        put_str(&mut p, &self.analysis);
        put_u64(&mut p, self.round);
        p.extend_from_slice(&self.phase.to_le_bytes());
        put_u64(&mut p, self.aux);
        put_str(&mut p, &self.snapshot);
        p.push(self.backend);
        put_u64(&mut p, self.rng);
        put_u64(&mut p, self.auto_replaces);
        put_u64(&mut p, self.relational_ops);
        p
    }

    /// The framed on-disk bytes of this record.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(12 + payload.len());
        out.extend_from_slice(&MARKER.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn decode_payload(p: &[u8]) -> Option<LogRecord> {
        let mut pos = 0usize;
        let u64_at = |pos: &mut usize| -> Option<u64> {
            let b = p.get(*pos..*pos + 8)?;
            *pos += 8;
            Some(u64::from_le_bytes(b.try_into().ok()?))
        };
        let str_at = |pos: &mut usize| -> Option<String> {
            let b = p.get(*pos..*pos + 4)?;
            let len = u32::from_le_bytes(b.try_into().ok()?) as usize;
            *pos += 4;
            let s = p.get(*pos..*pos + len)?;
            *pos += len;
            String::from_utf8(s.to_vec()).ok()
        };
        let seq = u64_at(&mut pos)?;
        let analysis = str_at(&mut pos)?;
        let round = u64_at(&mut pos)?;
        let phase = u32::from_le_bytes(p.get(pos..pos + 4)?.try_into().ok()?);
        pos += 4;
        let aux = u64_at(&mut pos)?;
        let snapshot = str_at(&mut pos)?;
        let backend = *p.get(pos)?;
        pos += 1;
        let rng = u64_at(&mut pos)?;
        let auto_replaces = u64_at(&mut pos)?;
        let relational_ops = u64_at(&mut pos)?;
        if pos != p.len() {
            return None;
        }
        Some(LogRecord {
            seq,
            analysis,
            round,
            phase,
            aux,
            snapshot,
            backend,
            rng,
            auto_replaces,
            relational_ops,
        })
    }
}

/// Appends one record to the log file, fsynced. `kill_after` tears the
/// append (crash injection).
pub(crate) fn append_record(
    path: &Path,
    record: &LogRecord,
    kill_after: Option<u64>,
) -> Result<(), StoreError> {
    append_synced(path, &record.encode(), kill_after)
}

/// Reads every intact record from the log, oldest first.
///
/// A missing file is an empty history. A torn or corrupt tail —
/// short frame, bad marker, length past end-of-file, checksum mismatch,
/// unparseable payload — ends the scan with a warning on stderr; the
/// records before it are returned. Only an OS-level read failure is an
/// error.
pub fn read_records(path: &Path) -> Result<Vec<LogRecord>, StoreError> {
    read_records_prefix(path).map(|(records, _)| records)
}

/// [`read_records`] plus the byte length of the valid record prefix, so a
/// writer reopening the log can truncate a torn tail before appending.
/// Without that truncation, records appended after the tear would sit
/// behind bytes the reader always stops at — committed but invisible.
pub fn read_records_prefix(path: &Path) -> Result<(Vec<LogRecord>, u64), StoreError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => {
            return Err(StoreError::Io {
                op: "read checkpoint log",
                path: path.to_path_buf(),
                source: e,
            })
        }
    };
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let warn = |what: &str| {
            eprintln!(
                "jedd-store: warning: {}: {what} at byte {pos}; ignoring the log tail ({} record(s) kept)",
                path.display(),
                records.len()
            );
        };
        let Some(frame) = bytes.get(pos..pos + 12) else {
            warn("torn record frame");
            break;
        };
        if u32::from_le_bytes(frame[0..4].try_into().unwrap()) != MARKER {
            warn("bad record marker");
            break;
        }
        let len = u32::from_le_bytes(frame[4..8].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(frame[8..12].try_into().unwrap());
        let Some(payload) = bytes.get(pos + 12..pos + 12 + len) else {
            warn("torn record payload");
            break;
        };
        if crc32(payload) != crc {
            warn("record checksum mismatch");
            break;
        }
        let Some(record) = LogRecord::decode_payload(payload) else {
            warn("unparseable record payload");
            break;
        };
        records.push(record);
        pos += 12 + len;
    }
    Ok((records, pos as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64) -> LogRecord {
        LogRecord {
            seq,
            analysis: "pointsto".into(),
            round: seq * 3,
            phase: 1,
            aux: 7,
            snapshot: format!("snap-{seq}"),
            backend: 0,
            rng: 0xdead_beef,
            auto_replaces: 11,
            relational_ops: 42,
        }
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("jedd-store-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d.join("checkpoint.log")
    }

    #[test]
    fn log_round_trips() {
        let p = tmpfile("roundtrip");
        for seq in 0..3 {
            append_record(&p, &rec(seq), None).unwrap();
        }
        let got = read_records(&p).unwrap();
        assert_eq!(got, vec![rec(0), rec(1), rec(2)]);
        let _ = std::fs::remove_dir_all(p.parent().unwrap());
    }

    #[test]
    fn missing_log_is_empty_history() {
        let p = tmpfile("missing");
        assert_eq!(read_records(&p.join("nope")).unwrap(), Vec::new());
        let _ = std::fs::remove_dir_all(p.parent().unwrap());
    }

    #[test]
    fn torn_tail_is_skipped_with_prefix_kept() {
        let p = tmpfile("torn");
        append_record(&p, &rec(0), None).unwrap();
        append_record(&p, &rec(1), None).unwrap();
        // Tear the third append after 5 bytes.
        let e = append_record(&p, &rec(2), Some(5)).unwrap_err();
        assert!(matches!(e, StoreError::Killed { at: "log-append" }));
        let got = read_records(&p).unwrap();
        assert_eq!(got, vec![rec(0), rec(1)]);
        let _ = std::fs::remove_dir_all(p.parent().unwrap());
    }

    #[test]
    fn prefix_offset_tracks_the_valid_records() {
        let p = tmpfile("prefix");
        append_record(&p, &rec(0), None).unwrap();
        let clean_len = std::fs::metadata(&p).unwrap().len();
        let (recs, off) = read_records_prefix(&p).unwrap();
        assert_eq!(recs, vec![rec(0)]);
        assert_eq!(off, clean_len, "clean log: offset is the file length");
        // A torn append extends the file but not the valid prefix.
        let _ = append_record(&p, &rec(1), Some(5)).unwrap_err();
        assert!(std::fs::metadata(&p).unwrap().len() > clean_len);
        let (recs, off) = read_records_prefix(&p).unwrap();
        assert_eq!(recs, vec![rec(0)]);
        assert_eq!(off, clean_len, "torn log: offset stops before the tear");
        let _ = std::fs::remove_dir_all(p.parent().unwrap());
    }

    #[test]
    fn corrupt_record_ends_scan_without_error() {
        let p = tmpfile("corrupt");
        append_record(&p, &rec(0), None).unwrap();
        append_record(&p, &rec(1), None).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let first_len = rec(0).encode().len();
        // Flip a byte inside the second record's payload.
        let idx = first_len + 20;
        bytes[idx] ^= 0xff;
        std::fs::write(&p, &bytes).unwrap();
        let got = read_records(&p).unwrap();
        assert_eq!(got, vec![rec(0)]);
        let _ = std::fs::remove_dir_all(p.parent().unwrap());
    }
}
