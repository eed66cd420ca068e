//! Tests for the disk-backed node pager: block-codec properties
//! (round-trip, exhaustive corruption and truncation sweeps), eviction
//! policy (clock determinism, pin protocol), stats invariants, and the
//! paged-vs-resident kernel contract — at any cache size a paged manager
//! produces tuple-identical (in fact node-id-identical) results.

use jedd_bdd::pager::{
    decode_block, encode_block, BlockEntry, BlockError, PageError, Pager, PagerFaults, BLOCK_BYTES,
    BLOCK_NODES, ENTRY_BYTES, HEADER_BYTES,
};
use jedd_bdd::rng::XorShift64Star;
use jedd_bdd::{Bdd, BddError, BddManager};

fn random_entry(rng: &mut XorShift64Star) -> BlockEntry {
    BlockEntry {
        level: rng.next_u64() as u32,
        bot: rng.next_u64() as u32,
        low: rng.next_u64() as u32,
        high: rng.next_u64() as u32,
        next: rng.next_u64() as u32,
        // The mark bit shares the ext_refs word, so counts stay below 2^31.
        ext_refs: rng.next_u64() as u32 & 0x7fff_ffff,
        mark: rng.next_u64() & 1 == 1,
    }
}

fn random_batch(rng: &mut XorShift64Star, len: usize) -> Vec<BlockEntry> {
    (0..len).map(|_| random_entry(rng)).collect()
}

// ---------------------------------------------------------------------
// Block codec properties.
// ---------------------------------------------------------------------

#[test]
fn codec_round_trips_random_batches() {
    let mut rng = XorShift64Star::new(0xb10c);
    for case in 0..64usize {
        // Cover the empty block, the full block, and random lengths.
        let len = match case {
            0 => 0,
            1 => BLOCK_NODES,
            _ => rng.gen_range(0..(BLOCK_NODES as u64 + 1)) as usize,
        };
        let index = rng.next_u64() as u32;
        let entries = random_batch(&mut rng, len);
        let bytes = encode_block(index, &entries);
        assert_eq!(bytes.len(), BLOCK_BYTES, "blocks are fixed-size frames");
        let back = decode_block(index, &bytes).expect("clean block decodes");
        assert_eq!(back, entries, "case {case}: round-trip mismatch");
    }
}

#[test]
fn codec_rejects_every_single_byte_corruption() {
    // A full block, so the payload (and therefore CRC coverage) spans the
    // whole frame and the sweep is exhaustive over every stored byte.
    let mut rng = XorShift64Star::new(0xc0de);
    let entries = random_batch(&mut rng, BLOCK_NODES);
    let clean = encode_block(7, &entries);
    for at in 0..BLOCK_BYTES {
        let mut bytes = clean.clone();
        bytes[at] ^= 1 << (at % 8);
        let err = decode_block(7, &bytes).expect_err(&format!("flip at byte {at} must not decode"));
        // Every corruption class maps to the expected typed error.
        match at {
            0..=3 => assert_eq!(err, BlockError::BadMagic, "byte {at}"),
            4..=7 => assert!(
                matches!(err, BlockError::BadVersion(_)),
                "byte {at}: {err:?}"
            ),
            8..=11 => assert!(
                matches!(err, BlockError::WrongBlock { expected: 7, .. }),
                "byte {at}: {err:?}"
            ),
            12..=15 => assert!(
                // A flipped length word is impossible outright, promises
                // more bytes than the frame holds, or shortens the payload
                // out from under its checksum.
                matches!(
                    err,
                    BlockError::BadLength(_)
                        | BlockError::Truncated { .. }
                        | BlockError::ChecksumMismatch
                ),
                "byte {at}: {err:?}"
            ),
            _ => assert_eq!(err, BlockError::ChecksumMismatch, "byte {at}"),
        }
    }
}

#[test]
fn codec_rejects_every_truncation_length() {
    let mut rng = XorShift64Star::new(0x7a11);
    let entries = random_batch(&mut rng, BLOCK_NODES);
    let clean = encode_block(3, &entries);
    for len in 0..BLOCK_BYTES {
        let err = decode_block(3, &clean[..len])
            .expect_err(&format!("{len}-byte prefix must not decode"));
        match err {
            BlockError::Truncated { expected, actual } => {
                assert_eq!(actual, len);
                assert!(expected > len, "length {len}: expected {expected}");
            }
            other => panic!("length {len}: wrong error {other:?}"),
        }
    }
    // Sanity: the header geometry the sweep relies on.
    assert_eq!(HEADER_BYTES + BLOCK_NODES * ENTRY_BYTES, BLOCK_BYTES);
}

// ---------------------------------------------------------------------
// Eviction policy.
// ---------------------------------------------------------------------

/// Fills `pager` with `blocks` full blocks of distinct entries.
fn fill_blocks(pager: &mut Pager, blocks: usize) {
    for id in 0..blocks * BLOCK_NODES {
        let e = BlockEntry {
            level: id as u32,
            bot: id as u32,
            low: !(id as u32),
            high: id as u32 ^ 0x5555_5555,
            next: id as u32 ^ 0xaaaa_aaaa,
            ext_refs: (id % 7) as u32,
            mark: id % 3 == 0,
        };
        assert_eq!(pager.push_entry(e).expect("push"), id as u32);
    }
}

/// Runs a fixed access trace and returns the resident-set snapshot after
/// every access, plus the final stats.
fn run_trace(budget: usize, trace: &[usize]) -> (Vec<Vec<bool>>, jedd_bdd::pager::PageStats) {
    let mut pager = Pager::new(budget, None).expect("pager");
    fill_blocks(&mut pager, 4);
    let mut snapshots = Vec::new();
    for &block in trace {
        let id = block * BLOCK_NODES + 5;
        let e = pager.entry(id).expect("entry");
        assert_eq!(e.level, id as u32, "paged entry corrupted");
        snapshots.push((0..4).map(|b| pager.is_resident(b)).collect());
    }
    (snapshots, pager.stats())
}

#[test]
fn clock_hand_is_deterministic_on_a_fixed_trace() {
    let trace = [1, 2, 3, 1, 0, 2, 3, 3, 1, 2, 0, 1];
    let (snap_a, stats_a) = run_trace(2, &trace);
    let (snap_b, stats_b) = run_trace(2, &trace);
    // Two pagers fed the same trace evolve identically: same resident
    // sets after every access, same fault/eviction counters.
    assert_eq!(snap_a, snap_b);
    assert_eq!(stats_a, stats_b);
    assert!(stats_a.page_faults > 0, "budget 2 over 4 blocks must fault");
    assert!(stats_a.evictions > 0, "budget 2 over 4 blocks must evict");
    // Block 0 holds the terminals' permanent pin, so it is never evicted.
    for snap in &snap_a {
        assert!(snap[0], "block 0 evicted despite its pin");
    }
    // The block just accessed is always resident afterwards.
    for (snap, &block) in snap_a.iter().zip(&trace) {
        assert!(snap[block], "accessed block {block} not resident");
    }
}

#[test]
fn pinned_frames_survive_any_access_pressure() {
    let mut pager = Pager::new(2, None).expect("pager");
    fill_blocks(&mut pager, 4);
    pager.entry(BLOCK_NODES + 1).expect("fault block 1 in");
    pager.pin(1).expect("pin resident block");
    assert_eq!(pager.pin_count(1), 1);
    // Hammer the other blocks; the pinned frame must never leave.
    for round in 0..8 {
        for block in [2usize, 3, 2, 3] {
            pager.entry(block * BLOCK_NODES).expect("entry");
            assert!(pager.is_resident(1), "round {round}: pinned block evicted");
        }
    }
    pager.unpin(1);
    assert_eq!(pager.pin_count(1), 0);
    // Unpinned, the frame is evictable again under pressure.
    for block in [2usize, 3, 2, 3] {
        pager.entry(block * BLOCK_NODES).expect("entry");
    }
    assert!(!pager.is_resident(1), "unpinned block survived eviction");
    let s = pager.stats();
    assert_eq!(s.page_faults, s.page_reads);
    assert!(s.evictions <= s.page_writes);
}

#[test]
fn failed_eviction_write_parks_a_typed_sticky_error() {
    let mut pager = Pager::new(2, None).expect("pager");
    fill_blocks(&mut pager, 3);
    assert!(pager.take_sticky().is_none());
    // Kill the next page write (the one the coming eviction issues),
    // leaving a torn half-block prefix behind. Ordinals are relative to
    // installation, so 1 means "the very next write from now".
    pager.set_faults(PagerFaults::kill_write(1, BLOCK_BYTES as u64 / 2));
    // Fault a cold block in (after the fill only block 0, pinned, and
    // the tail block 2 are resident); making room needs an eviction
    // write, which dies. The victim must stay resident (over budget) and
    // the entry still reads correctly — a failed eviction never loses
    // nodes.
    assert!(!pager.is_resident(1), "block 1 should be cold after fill");
    let id = BLOCK_NODES + 9;
    let e = pager.entry(id).expect("entry survives failed eviction");
    assert_eq!(e.level, id as u32);
    let sticky = pager.take_sticky().expect("eviction failure parked");
    assert!(
        matches!(
            sticky,
            PageError::Killed {
                at: "page-write",
                ..
            }
        ),
        "{sticky:?}"
    );
    assert_eq!(sticky.kind(), "killed");
    assert!(pager.take_sticky().is_none(), "sticky error is taken once");
    // The pager keeps answering correctly after the fault is cleared.
    for id in [5usize, BLOCK_NODES + 4, 2 * BLOCK_NODES + 11] {
        assert_eq!(pager.entry(id).expect("entry").level, id as u32);
    }
}

// ---------------------------------------------------------------------
// Paged-vs-resident kernel contract and stats invariants.
// ---------------------------------------------------------------------

const NVARS: usize = 16;

fn random_values(rng: &mut XorShift64Star, count: usize) -> Vec<u64> {
    let mut out: Vec<u64> = (0..count)
        .map(|_| rng.gen_range(0..1u64 << NVARS))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn build_set(m: &BddManager, bits: &[u32], values: &[u64]) -> Bdd {
    let mut acc = m.constant_false();
    for &v in values {
        acc = acc.or(&m.encode_value(bits, v));
    }
    acc
}

/// Runs the same operation mix on one manager and returns the results.
fn workload(m: &BddManager, gc: bool) -> Vec<Bdd> {
    let bits: Vec<u32> = (0..NVARS as u32).collect();
    let mut rng = XorShift64Star::new(0x9a6e);
    let a = build_set(m, &bits, &random_values(&mut rng, 120));
    let b = build_set(m, &bits, &random_values(&mut rng, 120));
    let cube = m.cube(&bits[..6]);
    let mut out = vec![
        a.or(&b),
        a.and(&b),
        a.diff(&b),
        a.xor(&b),
        a.ite(&b, &b.not()),
        a.exists(&cube),
        a.and_exists(&b, &cube),
    ];
    if gc {
        // Churn: drop intermediates, collect, keep operating on the
        // survivors so eviction interleaves with the free list.
        m.gc();
        out.push(out[0].diff(&out[1]));
        m.gc();
    }
    out
}

#[test]
fn paged_managers_match_resident_at_any_cache_size() {
    let bits: Vec<u32> = (0..NVARS as u32).collect();
    let resident = BddManager::new(NVARS);
    let expect = workload(&resident, true);
    // Tiny (thrashing), medium, and unbounded resident-frame budgets.
    for frames in [2usize, 16, 0] {
        let paged = BddManager::new_paged(NVARS, frames);
        assert!(paged.is_paged());
        let got = workload(&paged, true);
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            assert_eq!(
                g.satcount_exact(),
                e.satcount_exact(),
                "frames {frames}: satcount diverged"
            );
            assert_eq!(
                g.sat_assignments(&bits),
                e.sat_assignments(&bits),
                "frames {frames}: tuples diverged"
            );
            // Stronger than the tuple contract: a paged manager
            // allocates in the identical order, so node ids match.
            assert_eq!(g.root_id(), e.root_id(), "frames {frames}: ids diverged");
            assert_eq!(g.node_count(), e.node_count(), "frames {frames}");
        }
        let stats = paged.kernel_stats();
        if frames == 2 {
            assert!(
                stats.page_faults > 0,
                "a thrashing cache must fault cold blocks in"
            );
            assert!(stats.page_evictions > 0, "a thrashing cache must evict");
        }
        if frames == 0 {
            assert_eq!(stats.page_evictions, 0, "unbounded budget never evicts");
        }
    }
}

#[test]
fn kernel_page_stats_hold_their_invariants_across_gc() {
    let paged = BddManager::new_paged(NVARS, 3);
    let check = |s: jedd_bdd::KernelStats, when: &str| {
        assert_eq!(s.page_faults, s.page_reads, "{when}: faults != reads");
        assert!(
            s.page_evictions <= s.page_writes,
            "{when}: evictions {} > writes {}",
            s.page_evictions,
            s.page_writes
        );
        assert!(s.page_max_resident <= 3, "{when}: over budget");
    };
    let _kept = workload(&paged, false);
    let before = paged.kernel_stats();
    check(before, "after workload");
    assert!(before.page_faults > 0, "3 frames must fault");
    paged.gc();
    let after = paged.kernel_stats();
    check(after, "after gc");
    // Counters are monotone across collection (GC scans fault blocks in,
    // it never resets paging history).
    assert!(after.page_faults >= before.page_faults);
    assert!(after.page_reads >= before.page_reads);
    assert!(after.page_writes >= before.page_writes);
    assert!(after.page_evictions >= before.page_evictions);
    assert!(after.page_max_resident >= before.page_max_resident);
    // A resident manager reports all-zero paging counters.
    let resident = BddManager::new(NVARS);
    let _r = workload(&resident, false);
    let s = resident.kernel_stats();
    assert_eq!(
        (s.page_faults, s.page_reads, s.page_writes, s.page_evictions),
        (0, 0, 0, 0)
    );
}

#[test]
fn torn_page_surfaces_as_a_typed_error_never_a_wrong_answer() {
    let paged = BddManager::new_paged(NVARS, 2);
    let kept = workload(&paged, false);
    let page_file = paged.page_file().expect("paged manager has a page file");
    // Corrupt one payload byte in every block on disk. Resident frames
    // are unaffected until rewritten, but with 2 frames the kept BDDs
    // span several cold blocks, so a fault must hit corruption.
    let mut bytes = std::fs::read(&page_file).expect("read page file");
    assert!(bytes.len() >= 3 * BLOCK_BYTES, "workload spans 3+ blocks");
    let mut block = 0;
    while (block + 1) * BLOCK_BYTES <= bytes.len() {
        bytes[block * BLOCK_BYTES + HEADER_BYTES + 1] ^= 0x40;
        block += 1;
    }
    std::fs::write(&page_file, &bytes).expect("write corruption");
    let err = paged
        .try_page_in(&kept[0])
        .expect_err("paging corrupt blocks in must fail");
    match err {
        BddError::Page { kind, .. } => assert_eq!(kind, "checksum"),
        other => panic!("wrong error: {other}"),
    }
    // The full typed error is parked for whoever wants the details.
    let full = paged.take_page_error().expect("parked page error");
    assert_eq!(full.kind(), "checksum");
    assert!(matches!(full, PageError::Corrupt { .. }), "{full:?}");
    assert!(
        paged.take_page_error().is_none(),
        "taking the error un-poisons the manager"
    );
    // Fallible ops on cold operands also report typed errors afterwards
    // (the corruption is still on disk) instead of wrong answers.
    let again = kept[0].try_and(&kept[1]);
    if let Err(e) = again {
        assert!(matches!(e, BddError::Page { .. }), "{e}");
        let _ = paged.take_page_error();
    }
}
