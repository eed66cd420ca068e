//! Integration tests for the persistent store: snapshot round trips,
//! byte-level corruption sweeps, and checkpoint/resume flows with
//! injected crashes.

use jedd_core::{Backend, Relation, Universe};
use jedd_store::{
    decode_bdd_snapshot, encode_bdd_snapshot, read_records, resume_latest_bdd, snapshot_backend,
    CheckpointMeta, CheckpointPolicy, Checkpointer, LogRecord, StoreError, StoreFaults,
    BACKEND_BDD, BACKEND_CBDD, LOG_FILE,
};
use std::path::{Path, PathBuf};

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("jedd-store-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A small but structurally rich universe: named and sized domains, an
/// interleaved physical-domain pair, and two relations sharing nodes.
fn sample_universe() -> (Universe, Vec<(String, Relation)>) {
    sample_universe_with(Backend::Bdd)
}

fn sample_universe_with(backend: Backend) -> (Universe, Vec<(String, Relation)>) {
    let u = Universe::new_with_backend(backend);
    let ty = u.add_domain("Type", 5);
    let method = u.add_domain_with_elements("Method", &["main", "clone", "toString"]);
    let sub = u.add_attribute("sub", ty);
    let sup = u.add_attribute("sup", ty);
    let m = u.add_attribute("m", method);
    let pair = u.add_physical_domains_interleaved(&["T1", "T2"], 3);
    let (t1, t2) = (pair[0], pair[1]);
    let m1 = u.add_physical_domain("M1", 2);

    let edges = Relation::from_tuples(
        &u,
        &[(sub, t1), (sup, t2)],
        &[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]],
    )
    .unwrap();
    let declares = Relation::from_tuples(
        &u,
        &[(m, m1), (sub, t1)],
        &[vec![0, 0], vec![1, 2], vec![2, 4]],
    )
    .unwrap();
    (
        u,
        vec![
            ("edges".to_string(), edges),
            ("declares".to_string(), declares),
        ],
    )
}

fn as_refs(rels: &[(String, Relation)]) -> Vec<(&str, &Relation)> {
    rels.iter().map(|(n, r)| (n.as_str(), r)).collect()
}

#[test]
fn bdd_snapshot_round_trips_tuple_identical() {
    let (u, rels) = sample_universe();
    let bytes = encode_bdd_snapshot(&u, &as_refs(&rels));
    assert_eq!(snapshot_backend(&bytes, Path::new("mem")).unwrap(), 0);

    let snap = decode_bdd_snapshot(&bytes, Path::new("mem")).unwrap();
    assert_eq!(snap.relations.len(), rels.len());
    for (name, original) in &rels {
        let restored = snap.relation(name).expect(name);
        assert_eq!(restored.tuples(), original.tuples(), "relation {name}");
        assert_eq!(restored.schema(), original.schema(), "schema of {name}");
    }
    // Universe metadata survives: names, element labels, registries.
    assert_eq!(snap.universe.num_domains(), u.num_domains());
    assert_eq!(snap.universe.num_attributes(), u.num_attributes());
    assert_eq!(snap.universe.num_physdoms(), u.num_physdoms());
    let method = snap.universe.find_domain("Method").unwrap();
    assert_eq!(
        snap.universe.domain_elements(method),
        vec!["main", "clone", "toString"]
    );

    // Round-tripping the restored state is byte-identical: registration
    // replay plus node import rebuilds identical ids under the same order.
    let bytes2 = encode_bdd_snapshot(&snap.universe, &as_refs(&snap.relations));
    assert_eq!(bytes, bytes2, "restore is not node-id-identical");
}

#[test]
fn bdd_snapshot_round_trips_after_reorder() {
    let (u, rels) = sample_universe();
    // Sift to a (likely) different order, so the snapshot must carry it.
    u.bdd_manager().reorder_sift();
    let bytes = encode_bdd_snapshot(&u, &as_refs(&rels));
    let snap = decode_bdd_snapshot(&bytes, Path::new("mem")).unwrap();
    for (name, original) in &rels {
        assert_eq!(
            snap.relation(name).expect(name).tuples(),
            original.tuples(),
            "relation {name} after reorder"
        );
    }
    let bytes2 = encode_bdd_snapshot(&snap.universe, &as_refs(&snap.relations));
    assert_eq!(bytes, bytes2);
}

#[test]
fn single_byte_corruption_never_panics() {
    let (u, rels) = sample_universe();
    let bytes = encode_bdd_snapshot(&u, &as_refs(&rels));
    let baseline: Vec<Vec<Vec<u64>>> = rels.iter().map(|(_, r)| r.tuples()).collect();
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x20;
        match decode_bdd_snapshot(&bad, Path::new("mem")) {
            // Every corruption must be a typed error...
            Err(
                StoreError::BadHeader { .. }
                | StoreError::ChecksumMismatch { .. }
                | StoreError::Truncated { .. }
                | StoreError::Malformed { .. }
                | StoreError::Import(_)
                | StoreError::Restore(_),
            ) => {}
            Err(other) => panic!("byte {i}: unexpected error class {other}"),
            // ...except a flip that the format genuinely tolerates, which
            // must then decode to exactly the original tuples (a CRC byte
            // flip cannot land here; this arm is unreachable in practice
            // and guards against silent acceptance).
            Ok(snap) => {
                for ((_, r), want) in snap.relations.iter().zip(&baseline) {
                    assert_eq!(&r.tuples(), want, "byte {i} silently changed a relation");
                }
            }
        }
    }
}

#[test]
fn truncation_at_every_length_never_panics() {
    let (u, rels) = sample_universe();
    let bytes = encode_bdd_snapshot(&u, &as_refs(&rels));
    for len in 0..bytes.len() {
        let err = match decode_bdd_snapshot(&bytes[..len], Path::new("mem")) {
            Ok(_) => panic!("truncated prefix must not decode"),
            Err(e) => e,
        };
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. } | StoreError::BadHeader { .. }
            ),
            "prefix of {len} bytes: unexpected error {err}"
        );
    }
}

#[test]
fn checkpoint_and_resume_latest() {
    let d = tmpdir("resume");
    let (u, rels) = sample_universe();
    let mut cp = Checkpointer::create(&d, CheckpointPolicy::default()).unwrap();
    for round in 1..=3u64 {
        let meta = CheckpointMeta {
            analysis: "hierarchy",
            round,
            phase: 0,
            aux: round * 10,
            rng: 0x5eed ^ round,
        };
        cp.checkpoint_bdd(&meta, &u, &as_refs(&rels)).unwrap();
    }
    let rp = resume_latest_bdd(&d).unwrap();
    assert_eq!(rp.record.round, 3);
    assert_eq!(rp.record.aux, 30);
    assert_eq!(rp.record.analysis, "hierarchy");
    for (name, original) in &rels {
        assert_eq!(rp.relation(name).expect(name).tuples(), original.tuples());
    }
    // Stats were restored from the record.
    assert_eq!(rp.universe.stats().relational_ops, u.stats().relational_ops);
    // Pruning kept exactly the last two snapshots.
    assert!(!d.join("snap-0").exists());
    assert!(d.join("snap-1").exists());
    assert!(d.join("snap-2").exists());
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn resume_skips_corrupt_newest_checkpoint() {
    let d = tmpdir("skip-corrupt");
    let (u, rels) = sample_universe();
    let mut cp = Checkpointer::create(&d, CheckpointPolicy::default()).unwrap();
    for round in 1..=2u64 {
        let meta = CheckpointMeta {
            analysis: "callgraph",
            round,
            phase: 0,
            aux: 0,
            rng: 0,
        };
        cp.checkpoint_bdd(&meta, &u, &as_refs(&rels)).unwrap();
    }
    // Corrupt the newest snapshot in place.
    let newest = d.join("snap-1");
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&newest, &bytes).unwrap();

    let rp = resume_latest_bdd(&d).unwrap();
    assert_eq!(rp.record.round, 1, "should fall back to the previous seq");
    for (name, original) in &rels {
        assert_eq!(rp.relation(name).expect(name).tuples(), original.tuples());
    }
    let _ = std::fs::remove_dir_all(&d);
}

/// A kill between the snapshot write and the log append (here: torn
/// snapshot, suppressed rename, torn log append — all three flavours)
/// leaves the previous committed checkpoint resumable.
#[test]
fn kill_between_snapshot_and_commit_preserves_previous_checkpoint() {
    let plans = [
        StoreFaults::kill_snapshot(1, 10),
        StoreFaults::kill_rename(1),
        StoreFaults::kill_log(1, 3),
    ];
    for (i, plan) in plans.into_iter().enumerate() {
        let d = tmpdir(&format!("kill-{i}"));
        let (u, rels) = sample_universe();
        let mut cp = Checkpointer::create(&d, CheckpointPolicy::default()).unwrap();
        let meta = CheckpointMeta {
            analysis: "vcr",
            round: 1,
            phase: 0,
            aux: 0,
            rng: 7,
        };
        cp.checkpoint_bdd(&meta, &u, &as_refs(&rels)).unwrap();

        cp.set_faults(plan);
        let meta2 = CheckpointMeta { round: 2, ..meta };
        let err = cp.checkpoint_bdd(&meta2, &u, &as_refs(&rels)).unwrap_err();
        assert!(matches!(err, StoreError::Killed { .. }), "plan {i}: {err}");

        // A fresh process resumes from the round-1 checkpoint.
        let rp = resume_latest_bdd(&d).unwrap();
        assert_eq!(rp.record.round, 1, "plan {i}");
        for (name, original) in &rels {
            assert_eq!(rp.relation(name).expect(name).tuples(), original.tuples());
        }
        // And a reopened checkpointer continues the sequence without
        // reusing seq numbers already committed.
        let cp2 = Checkpointer::create(&d, CheckpointPolicy::default()).unwrap();
        drop(cp2);
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn resume_from_empty_or_absent_directory_is_typed() {
    let d = tmpdir("empty");
    let err = match resume_latest_bdd(&d) {
        Ok(_) => panic!("empty dir must not resume"),
        Err(e) => e,
    };
    assert!(matches!(err, StoreError::NoCheckpoint { .. }));
    let err = match resume_latest_bdd(&d.join("does-not-exist")) {
        Ok(_) => panic!("absent dir must not resume"),
        Err(e) => e,
    };
    assert!(matches!(err, StoreError::NoCheckpoint { .. }));
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn log_with_torn_tail_still_resumes() {
    let d = tmpdir("torn-log");
    let (u, rels) = sample_universe();
    let mut cp = Checkpointer::create(&d, CheckpointPolicy::default()).unwrap();
    let meta = CheckpointMeta {
        analysis: "sideeffect",
        round: 1,
        phase: 1,
        aux: 0,
        rng: 0,
    };
    cp.checkpoint_bdd(&meta, &u, &as_refs(&rels)).unwrap();
    // Simulate a crash mid-append of the *next* record: garbage tail.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(d.join(LOG_FILE))
        .unwrap();
    f.write_all(b"JLOG\xff\xff").unwrap();
    drop(f);

    let rp = resume_latest_bdd(&d).unwrap();
    assert_eq!(rp.record.round, 1);
    assert_eq!(rp.record.phase, 1);
    let _ = std::fs::remove_dir_all(&d);
}

/// A crash mid-log-append, a resume, more commits, and a *second* crash:
/// reopening the directory must truncate the torn tail, or every
/// post-resume commit sits behind bytes the reader always stops at —
/// committed but invisible, and pruned out from under the reader.
#[test]
fn reopen_after_torn_append_truncates_tail_and_keeps_new_commits_visible() {
    let d = tmpdir("torn-reopen");
    let (u, rels) = sample_universe();
    let meta = CheckpointMeta {
        analysis: "pointsto",
        round: 1,
        phase: 0,
        aux: 0,
        rng: 0,
    };
    let mut cp = Checkpointer::create(&d, CheckpointPolicy::default()).unwrap();
    cp.checkpoint_bdd(&meta, &u, &as_refs(&rels)).unwrap();
    // Crash mid-append of the round-2 record.
    cp.set_faults(StoreFaults::kill_log(1, 3));
    let meta2 = CheckpointMeta { round: 2, ..meta };
    let err = cp.checkpoint_bdd(&meta2, &u, &as_refs(&rels)).unwrap_err();
    assert!(matches!(err, StoreError::Killed { at: "log-append" }));

    // The resumed process reopens the directory and commits three more
    // rounds (enough for pruning to pass over the pre-crash window).
    let mut cp2 = Checkpointer::create(&d, CheckpointPolicy::default()).unwrap();
    for round in 2..=4u64 {
        let m = CheckpointMeta { round, ..meta };
        cp2.checkpoint_bdd(&m, &u, &as_refs(&rels)).unwrap();
    }
    // Every post-crash commit is readable.
    let rounds: Vec<u64> = read_records(&d.join(LOG_FILE))
        .unwrap()
        .iter()
        .map(|r| r.round)
        .collect();
    assert_eq!(rounds, vec![1, 2, 3, 4]);
    // A second crash (plain process death) still resumes, at the newest
    // round — not NoCheckpoint, and not the stale pre-crash state.
    let rp = resume_latest_bdd(&d).unwrap();
    assert_eq!(rp.record.round, 4);
    for (name, original) in &rels {
        assert_eq!(rp.relation(name).expect(name).tuples(), original.tuples());
    }
    let _ = std::fs::remove_dir_all(&d);
}

/// Pruning reclaims stray snapshots below the keep window even when the
/// sequence history has gaps — it scans directory entries, so a missing
/// intermediate sequence doesn't shadow older files forever.
#[test]
fn prune_reclaims_snapshots_below_a_sequence_gap() {
    let d = tmpdir("prune-gap");
    let (u, rels) = sample_universe();
    let meta = CheckpointMeta {
        analysis: "hierarchy",
        round: 1,
        phase: 0,
        aux: 0,
        rng: 0,
    };
    let mut cp = Checkpointer::create(&d, CheckpointPolicy::default()).unwrap();
    for round in 1..=6u64 {
        let m = CheckpointMeta { round, ..meta };
        cp.checkpoint_bdd(&m, &u, &as_refs(&rels)).unwrap();
    }
    // Plant strays far below the keep window, with a gap above them.
    std::fs::write(d.join("snap-1"), b"stray").unwrap();
    std::fs::write(d.join("snap-0.tmp"), b"stray").unwrap();

    let m = CheckpointMeta { round: 7, ..meta };
    cp.checkpoint_bdd(&m, &u, &as_refs(&rels)).unwrap();
    assert!(!d.join("snap-1").exists(), "stray below the gap not pruned");
    assert!(!d.join("snap-0.tmp").exists(), "stray temp not pruned");
    assert!(d.join("snap-5").exists());
    assert!(d.join("snap-6").exists());
    let _ = std::fs::remove_dir_all(&d);
}

/// A tampered log record whose snapshot name points outside the
/// checkpoint directory is skipped, never followed.
#[test]
fn resume_rejects_snapshot_names_escaping_the_directory() {
    let d = tmpdir("escape");
    let ckpt = d.join("ckpt");
    std::fs::create_dir_all(&ckpt).unwrap();
    // A perfectly valid snapshot, but outside the checkpoint directory.
    let (u, rels) = sample_universe();
    std::fs::write(d.join("evil"), encode_bdd_snapshot(&u, &as_refs(&rels))).unwrap();
    let rec = LogRecord {
        seq: 0,
        analysis: "pointsto".into(),
        round: 9,
        phase: 0,
        aux: 0,
        snapshot: "../evil".into(),
        backend: BACKEND_BDD,
        rng: 0,
        auto_replaces: 0,
        relational_ops: 0,
    };
    std::fs::write(ckpt.join(LOG_FILE), rec.encode()).unwrap();
    let err = resume_latest_bdd(&ckpt).err().expect("must not resume");
    assert!(matches!(err, StoreError::NoCheckpoint { .. }), "{err}");
    let _ = std::fs::remove_dir_all(&d);
}

/// Property test: snapshots of randomly generated universes — random
/// domain sizes, physical-domain widths, schemas and tuple sets — decode
/// back tuple-identical, schema-identical, and re-encode byte-identical
/// (the node-id-identity property). Deterministically seeded so failures
/// reproduce.
#[test]
fn random_snapshot_round_trips() {
    let mut rng = jedd_bdd::rng::XorShift64Star::new(0xc0ffee);
    for case in 0..24u64 {
        let u = Universe::new();
        let ndoms = 1 + rng.gen_index(0..3);
        let doms: Vec<_> = (0..ndoms)
            .map(|i| {
                let bits = 1 + rng.gen_index(0..5);
                let d = u.add_domain(&format!("D{i}"), 1u64 << bits);
                let p = u.add_physical_domain(&format!("P{i}"), bits);
                (d, p, 1u64 << bits)
            })
            .collect();
        let nrels = 1 + rng.gen_index(0..3);
        let mut rels = Vec::new();
        for r in 0..nrels {
            let width = 1 + rng.gen_index(0..doms.len().min(3));
            let mut schema = Vec::new();
            let mut sizes = Vec::new();
            for a in 0..width {
                let (d, p, size) = doms[rng.gen_index(0..doms.len())];
                // Each attribute needs its own physical domain; reuse of a
                // physdom within one relation is a schema error, so give
                // every column a fresh one of the right width.
                let bits = size.trailing_zeros() as usize;
                let p = if schema.iter().any(|&(_, q)| q == p) {
                    u.add_physical_domain(&format!("P{r}_{a}"), bits)
                } else {
                    p
                };
                schema.push((u.add_attribute(&format!("a{r}_{a}"), d), p));
                sizes.push(size);
            }
            let ntuples = rng.gen_index(0..20);
            let tuples: Vec<Vec<u64>> = (0..ntuples)
                .map(|_| sizes.iter().map(|&s| rng.gen_range(0..s)).collect())
                .collect();
            let rel = Relation::from_tuples(&u, &schema, &tuples).unwrap();
            rels.push((format!("rel{r}"), rel));
        }
        let bytes = encode_bdd_snapshot(&u, &as_refs(&rels));
        let snap = decode_bdd_snapshot(&bytes, Path::new("mem"))
            .unwrap_or_else(|e| panic!("case {case}: decode failed: {e}"));
        for (name, original) in &rels {
            let restored = snap.relation(name).expect(name);
            assert_eq!(restored.tuples(), original.tuples(), "case {case} {name}");
            assert_eq!(restored.schema(), original.schema(), "case {case} {name}");
        }
        let bytes2 = encode_bdd_snapshot(&snap.universe, &as_refs(&snap.relations));
        assert_eq!(bytes, bytes2, "case {case}: restore not node-id-identical");
    }
}

#[test]
fn cbdd_snapshot_round_trips_and_keeps_backend() {
    let (u, rels) = sample_universe_with(Backend::Cbdd);
    assert!(u.bdd_manager().chain_mode());
    let bytes = encode_bdd_snapshot(&u, &as_refs(&rels));
    assert_eq!(
        snapshot_backend(&bytes, Path::new("mem")).unwrap(),
        BACKEND_CBDD
    );
    let snap = decode_bdd_snapshot(&bytes, Path::new("mem")).unwrap();
    assert_eq!(snap.universe.backend(), Backend::Cbdd);
    assert!(snap.universe.bdd_manager().chain_mode());
    for (name, original) in &rels {
        let restored = snap.relation(name).expect(name);
        assert_eq!(restored.tuples(), original.tuples(), "relation {name}");
        assert_eq!(restored.schema(), original.schema(), "schema of {name}");
    }
    // Re-encoding the restored state is byte-identical: the spine
    // expansion and chain re-formation are both deterministic.
    let bytes2 = encode_bdd_snapshot(&snap.universe, &as_refs(&snap.relations));
    assert_eq!(bytes, bytes2, "CBDD restore is not node-id-identical");

    // The plain-mode snapshot of the same data decodes into a plain
    // universe and carries identical tuples: the formats interconvert at
    // the tuple level, not the byte level.
    let (pu, prels) = sample_universe();
    let pbytes = encode_bdd_snapshot(&pu, &as_refs(&prels));
    assert_eq!(
        snapshot_backend(&pbytes, Path::new("mem")).unwrap(),
        BACKEND_BDD
    );
    let psnap = decode_bdd_snapshot(&pbytes, Path::new("mem")).unwrap();
    assert_eq!(psnap.universe.backend(), Backend::Bdd);
    for (name, original) in &rels {
        assert_eq!(
            psnap.relation(name).expect(name).tuples(),
            original.tuples()
        );
    }
}

#[test]
fn unknown_backend_bytes_fail_typed() {
    let (u, rels) = sample_universe();
    let bytes = encode_bdd_snapshot(&u, &as_refs(&rels));
    let mem = Path::new("mem");
    // The store has one snapshot kind, tagged 0 (plain) or 2 (chained).
    // Every other byte value, the retired ZDD (1), CZDD (3) and
    // learned-order (4) tags included, must be rejected at the frame
    // check, before the payload is interpreted.
    for tag in (0..=u8::MAX).filter(|&t| t != BACKEND_BDD && t != BACKEND_CBDD) {
        let mut bad = bytes.clone();
        bad[8] = tag;
        for err in [
            snapshot_backend(&bad, mem).err(),
            decode_bdd_snapshot(&bad, mem).err(),
        ] {
            let err = err.unwrap_or_else(|| panic!("backend byte {tag} must not decode"));
            assert!(
                matches!(err, StoreError::BadHeader { reason, .. } if reason == "unknown backend tag"),
                "backend byte {tag}: unexpected error {err}"
            );
        }
    }
    // CBDD shares the payload format (the checksum does not cover the
    // header byte), so retagging a plain snapshot is a legal decode into
    // the chained kernel, tuple-identical.
    let mut chained = bytes.clone();
    chained[8] = BACKEND_CBDD;
    let snap = decode_bdd_snapshot(&chained, mem).unwrap();
    assert_eq!(snap.universe.backend(), Backend::Cbdd);
    for (name, original) in &rels {
        assert_eq!(snap.relation(name).expect(name).tuples(), original.tuples());
    }
}

#[test]
fn cbdd_single_byte_corruption_never_panics() {
    let (u, rels) = sample_universe_with(Backend::Cbdd);
    let bytes = encode_bdd_snapshot(&u, &as_refs(&rels));
    let baseline: Vec<Vec<Vec<u64>>> = rels.iter().map(|(_, r)| r.tuples()).collect();
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x20;
        match decode_bdd_snapshot(&bad, Path::new("mem")) {
            Err(
                StoreError::BadHeader { .. }
                | StoreError::ChecksumMismatch { .. }
                | StoreError::Truncated { .. }
                | StoreError::Malformed { .. }
                | StoreError::Import(_)
                | StoreError::Restore(_),
            ) => {}
            Err(other) => panic!("byte {i}: unexpected error class {other}"),
            Ok(snap) => {
                for ((_, r), want) in snap.relations.iter().zip(&baseline) {
                    assert_eq!(&r.tuples(), want, "byte {i} silently changed a relation");
                }
            }
        }
    }
}
