//! Page-mode writes of less than a page commit as their bytes — an
//! inline record in the commit record, recovered as a record update —
//! and a page written whole, in one write or in several, keeps its
//! detached block.
//!
//! Everything here goes through the public API: the commit steps
//! (`prepare_commit`, `flush_log`, `complete_commit`) to crash between
//! them, and `recover`, which reports the transactions it redid.
//! Offsets, lengths and orders come from the proptest shim
//! (`PROPTEST_BASE_SEED`, swept over 1/7/42 in CI).

use proptest::prelude::*;
use rhodos_disk_service::{BLOCK_SIZE, FRAGS_PER_BLOCK};
use rhodos_file_service::{FileId, FileService, FileServiceConfig, LockLevel};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
use rhodos_txn::{Prepared, PreparedCommit, TransactionService, TxnConfig, TxnId};

const BLOCK: u64 = BLOCK_SIZE as u64;
/// What the file holds before any test writes to it.
const SEED: u8 = 0x5e;

/// A quiet service with one page-level file of two blocks of `SEED`.
fn service() -> (TransactionService, FileId) {
    let fs = FileService::single_disk(
        DiskGeometry::medium(),
        LatencyModel::instant(),
        SimClock::new(),
        FileServiceConfig::default(),
    )
    .unwrap();
    let mut ts = TransactionService::new(fs, TxnConfig::default()).unwrap();
    let fid = ts.tcreate(LockLevel::Page).unwrap();
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    ts.twrite(t, fid, 0, &[SEED; 2 * BLOCK_SIZE]).unwrap();
    ts.tend(t).unwrap();
    ts.sync().unwrap();
    (ts, fid)
}

fn crash_and_recover(ts: &mut TransactionService) -> Vec<TxnId> {
    ts.file_service_mut().simulate_crash();
    ts.recover().expect("recovery after a crash")
}

fn contents(ts: &mut TransactionService, fid: FileId) -> Vec<u8> {
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    let got = ts.tread(t, fid, 0, 2 * BLOCK_SIZE).unwrap();
    ts.tend(t).unwrap();
    got
}

fn free(ts: &mut TransactionService) -> u64 {
    ts.file_service_mut().disk_mut(0).free_fragments()
}

/// A transaction that wrote `byte` over `range` of `fid`, open.
fn written(
    ts: &mut TransactionService,
    fid: FileId,
    range: std::ops::Range<u64>,
    byte: u8,
) -> TxnId {
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    let len = (range.end - range.start) as usize;
    ts.twrite(t, fid, range.start, &vec![byte; len]).unwrap();
    t
}

/// `t`'s `Commit` record, appended to the log and not yet forced.
fn logged(ts: &mut TransactionService, t: TxnId) -> PreparedCommit {
    match ts.prepare_commit(t).unwrap() {
        Prepared::Pending(p) => p,
        Prepared::Merged => unreachable!("a top-level commit"),
    }
}

fn fill(model: &mut [u8], range: &std::ops::Range<u64>, byte: u8) {
    model[range.start as usize..range.end as usize].fill(byte);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A partial page of the file's second block, crashed after its
    /// force and before its apply, then after its apply and before its
    /// `Completed` marker is durable: each time recovery redoes it once
    /// and the bytes read back where they were written. Then two commits
    /// to the same page, the second forced behind the first's marker: a
    /// crash redoes only the second, so nothing of the first is written
    /// over it.
    #[test]
    fn a_partial_page_is_redone_once_and_never_over_a_later_commit(
        lo in 0u64..BLOCK - 1,
        len in 1u64..BLOCK - 1,
        shift in 0u64..BLOCK,
    ) {
        let (mut ts, fid) = service();
        let mut model = vec![SEED; 2 * BLOCK_SIZE];
        let first = BLOCK + lo..BLOCK + lo + len.min(BLOCK - lo);
        let lo2 = first.start + shift % (first.end - first.start);
        let second = lo2..(lo2 + len).min(2 * BLOCK);
        let free_before = free(&mut ts);

        // Forced, not applied.
        let t = written(&mut ts, fid, first.clone(), 0xa1);
        prop_assert_eq!(free(&mut ts), free_before, "a partial page takes no block");
        let _unapplied = logged(&mut ts, t);
        ts.flush_log().unwrap();
        fill(&mut model, &first, 0xa1);
        prop_assert_eq!(crash_and_recover(&mut ts), vec![t]);
        prop_assert_eq!(&contents(&mut ts, fid), &model);
        prop_assert_eq!(crash_and_recover(&mut ts), vec![], "redone once");

        // Applied, its marker unforced.
        let t = written(&mut ts, fid, second.clone(), 0xb2);
        let p = logged(&mut ts, t);
        ts.flush_log().unwrap();
        ts.complete_commit(p).unwrap();
        fill(&mut model, &second, 0xb2);
        prop_assert_eq!(crash_and_recover(&mut ts), vec![t]);
        prop_assert_eq!(&contents(&mut ts, fid), &model);

        // A later commit to the same bytes: its force carries the
        // earlier one's marker.
        let early = written(&mut ts, fid, first.clone(), 0xc3);
        ts.tend(early).unwrap();
        let late = written(&mut ts, fid, second.clone(), 0xd4);
        ts.tend(late).unwrap();
        fill(&mut model, &first, 0xc3);
        fill(&mut model, &second, 0xd4);
        prop_assert_eq!(crash_and_recover(&mut ts), vec![late]);
        prop_assert_eq!(&contents(&mut ts, fid), &model);
        prop_assert_eq!(free(&mut ts), free_before);
        let fsck = ts.file_service_mut().fsck().unwrap();
        prop_assert!(fsck.is_clean(), "{:?}", fsck.issues);
    }

    /// A page written in two to six pieces, in any order. The dirty range
    /// is one interval — from the lowest byte written to the highest —
    /// so there is no block until pieces at both ends are in, one
    /// detached block from then on, none more for a write after that,
    /// and the commit applies the whole page and gives the block back.
    #[test]
    fn partial_writes_that_cover_a_page_fall_back_to_one_detached_block(
        cuts in proptest::collection::vec(1u64..BLOCK, 1..6),
        rotate in 0usize..6,
        reverse in any::<bool>(),
    ) {
        let (mut ts, fid) = service();
        let mut edges: Vec<u64> = cuts;
        edges.extend([0, BLOCK]);
        edges.sort_unstable();
        edges.dedup();
        let mut pieces: Vec<std::ops::Range<u64>> =
            edges.windows(2).map(|w| w[0]..w[1]).collect();
        if reverse {
            pieces.reverse();
        }
        let n = pieces.len();
        pieces.rotate_left(rotate % n);

        let free_before = free(&mut ts);
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        let mut model = vec![SEED; 2 * BLOCK_SIZE];
        let (mut lo, mut hi) = (BLOCK, 0);
        for (i, piece) in pieces.iter().enumerate() {
            let byte = i as u8 + 1;
            let len = (piece.end - piece.start) as usize;
            ts.twrite(t, fid, piece.start, &vec![byte; len]).unwrap();
            fill(&mut model, piece, byte);
            (lo, hi) = (lo.min(piece.start), hi.max(piece.end));
            let blocks = u64::from((lo, hi) == (0, BLOCK));
            prop_assert_eq!(free(&mut ts), free_before - blocks * FRAGS_PER_BLOCK, "piece {}", i);
        }
        ts.twrite(t, fid, 10, b"after").unwrap();
        model[10..15].copy_from_slice(b"after");
        prop_assert_eq!(free(&mut ts), free_before - FRAGS_PER_BLOCK, "still one block");
        ts.tend(t).unwrap();
        ts.sync().unwrap();
        prop_assert_eq!(free(&mut ts), free_before, "the block went back");
        prop_assert_eq!(&contents(&mut ts, fid), &model);
        prop_assert_eq!(crash_and_recover(&mut ts), vec![]);
        prop_assert_eq!(&contents(&mut ts, fid), &model);
    }
}

/// A nested child writes bytes 100..110 of a page whose bytes 0..10 its
/// parent wrote: the merged page carries both ranges, so both are there
/// after the commit, a crash and recovery — and after a crash that left
/// only the forced commit record to redo them from.
#[test]
fn a_nested_child_s_bytes_and_its_parent_s_are_both_recovered() {
    let (mut ts, fid) = service();
    let free_before = free(&mut ts);
    let mut model = vec![SEED; 2 * BLOCK_SIZE];
    for (page, unapplied) in [(0, false), (BLOCK, true)] {
        let parent = written(&mut ts, fid, page..page + 10, 0xaa);
        let child = ts.tbegin_nested(parent).unwrap();
        ts.twrite(child, fid, page + 100, &[0xbb; 10]).unwrap();
        ts.tend(child).unwrap();
        assert_eq!(free(&mut ts), free_before, "no block for a partial page");
        if unapplied {
            let _unapplied = logged(&mut ts, parent);
            ts.flush_log().unwrap();
        } else {
            ts.tend(parent).unwrap();
        }
        fill(&mut model, &(page..page + 10), 0xaa);
        fill(&mut model, &(page + 100..page + 110), 0xbb);
        assert_eq!(crash_and_recover(&mut ts), vec![parent]);
        assert_eq!(contents(&mut ts, fid), model);
    }
}
