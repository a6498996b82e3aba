//! A commit's only write is the force of its log record: its records land
//! in the block pool as dirty blocks, and the pool's write-back or a
//! checkpoint takes them home. What that asks of recovery and of the
//! pool, one rule at a time.
//!
//! Everything here goes through the public API — the commit steps to
//! crash between them, `sync` for a checkpoint, `simulate_crash` and
//! `recover`. Offsets and lengths that are random come from the proptest
//! shim (`PROPTEST_BASE_SEED`, swept over 1/7/42 in CI).

use proptest::prelude::*;
use rhodos_disk_service::BLOCK_SIZE;
use rhodos_file_service::{FileId, FileService, FileServiceConfig, LockLevel};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock, SECTOR_SIZE};
use rhodos_txn::{Prepared, TransactionService, TxnConfig, TxnId};
use std::ops::Range;

const BLOCK: u64 = BLOCK_SIZE as u64;
/// What the file holds before any test writes to it.
const SEED: u8 = 0x5e;

fn empty_service(config: FileServiceConfig) -> TransactionService {
    let fs = FileService::single_disk(
        DiskGeometry::medium(),
        LatencyModel::instant(),
        SimClock::new(),
        config,
    )
    .unwrap();
    TransactionService::new(fs, TxnConfig::default()).unwrap()
}

/// A quiet service with one page-level file of `blocks` blocks of `SEED`,
/// synced: nothing in the pool is dirty and the log is empty.
fn service(config: FileServiceConfig, blocks: usize) -> (TransactionService, FileId) {
    let mut ts = empty_service(config);
    let fid = ts.tcreate(LockLevel::Page).unwrap();
    commit(&mut ts, fid, 0, &vec![SEED; blocks * BLOCK_SIZE]);
    ts.sync().unwrap();
    (ts, fid)
}

fn two_blocks() -> (TransactionService, FileId) {
    service(FileServiceConfig::default(), 2)
}

fn begin_write(ts: &mut TransactionService, fid: FileId, offset: u64, bytes: &[u8]) -> TxnId {
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    ts.twrite(t, fid, offset, bytes).unwrap();
    t
}

fn commit(ts: &mut TransactionService, fid: FileId, offset: u64, bytes: &[u8]) -> TxnId {
    let t = begin_write(ts, fid, offset, bytes);
    ts.tend(t).unwrap();
    t
}

fn contents(ts: &mut TransactionService, fid: FileId) -> Vec<u8> {
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    let size = ts.tget_attribute(t, fid).unwrap().size as usize;
    let got = ts.tread(t, fid, 0, size).unwrap();
    ts.tend(t).unwrap();
    got
}

fn crash_and_recover(ts: &mut TransactionService) -> Vec<TxnId> {
    ts.file_service_mut().simulate_crash();
    ts.recover().expect("recovery after a crash")
}

fn fill(model: &mut [u8], range: &Range<u64>, byte: u8) {
    model[range.start as usize..range.end as usize].fill(byte);
}

fn fsck_is_clean(ts: &mut TransactionService) -> bool {
    ts.file_service_mut().fsck().unwrap().is_clean()
}

/// A plain write lands on bytes a commit wrote, after the commit, and a
/// `sync` makes it durable. `sync` is a checkpoint: the crash that
/// follows must not replay the older committed record over it.
#[test]
fn a_plain_write_made_durable_by_sync_outlives_an_older_commit() {
    let (mut ts, fid) = two_blocks();
    let mut model = vec![SEED; 2 * BLOCK_SIZE];
    commit(&mut ts, fid, 0, &[0xc1; 1024]);
    fill(&mut model, &(0..1024), 0xc1);
    let fs = ts.file_service_mut();
    fs.open(fid).unwrap();
    fs.write(fid, 512, vec![0xd2; 1024]).unwrap();
    fs.close(fid).unwrap();
    fill(&mut model, &(512..1536), 0xd2);
    ts.sync().unwrap();
    assert_eq!(crash_and_recover(&mut ts), vec![]);
    assert_eq!(contents(&mut ts, fid), model);
}

/// A record and then a whole page of the same block, both completed, and
/// a crash before any checkpoint: the page is not redone (its tentative
/// block is free again), so the record before it must not be either.
#[test]
fn a_record_is_not_redone_over_a_later_whole_page_of_its_block() {
    let (mut ts, fid) = two_blocks();
    let mut model = vec![SEED; 2 * BLOCK_SIZE];
    commit(&mut ts, fid, 100, &[0xe1; 1024]);
    commit(&mut ts, fid, 0, &[0xf2; BLOCK_SIZE]);
    fill(&mut model, &(0..BLOCK), 0xf2);
    // A third commit's force carries the page's `Completed` marker.
    let last = commit(&mut ts, fid, BLOCK + 10, &[0x33; 10]);
    fill(&mut model, &(BLOCK + 10..BLOCK + 20), 0x33);
    assert_eq!(contents(&mut ts, fid), model);
    assert_eq!(crash_and_recover(&mut ts), vec![last]);
    assert_eq!(contents(&mut ts, fid), model);
    assert!(fsck_is_clean(&mut ts));
}

/// A page-level file of four blocks that interleave with another file's,
/// so its whole pages commit by shadow swing.
fn fragmented() -> (TransactionService, FileId) {
    let mut ts = empty_service(FileServiceConfig::default());
    let fid = ts.tcreate(LockLevel::Page).unwrap();
    let other = ts.tcreate(LockLevel::Page).unwrap();
    let fs = ts.file_service_mut();
    fs.open(fid).unwrap();
    fs.open(other).unwrap();
    for i in 0..4 {
        fs.write(fid, i * BLOCK, vec![SEED; BLOCK_SIZE]).unwrap();
        fs.write(other, i * BLOCK, vec![0; BLOCK_SIZE]).unwrap();
    }
    fs.close(fid).unwrap();
    fs.close(other).unwrap();
    ts.sync().unwrap();
    let fit = ts.file_service_mut().fit_snapshot(fid).unwrap();
    assert!(fit.contiguity_ratio() < 1.0, "the file is fragmented");
    (ts, fid)
}

/// Regression: a shadow swing of one page dropped the whole file from the
/// pool — and with it another page's committed record, which was only
/// there, not yet home.
#[test]
fn a_shadow_swing_keeps_another_page_s_record_that_is_not_home_yet() {
    let (mut ts, fid) = fragmented();
    let mut model = vec![SEED; 4 * BLOCK_SIZE];
    commit(&mut ts, fid, BLOCK + 10, &[0x77; 100]);
    fill(&mut model, &(BLOCK + 10..BLOCK + 110), 0x77);
    let swings = ts.stats().shadow_pages;
    commit(&mut ts, fid, 0, &[0x88; BLOCK_SIZE]);
    fill(&mut model, &(0..BLOCK), 0x88);
    assert_eq!(ts.stats().shadow_pages, swings + 1, "a shadow swing");
    assert_eq!(contents(&mut ts, fid), model);
    crash_and_recover(&mut ts);
    assert_eq!(contents(&mut ts, fid), model);
    assert!(fsck_is_clean(&mut ts));
}

/// Free fragments of the disk once a checkpoint has released every
/// deferred free.
fn free_after_sync(ts: &mut TransactionService) -> u64 {
    ts.sync().unwrap();
    ts.file_service_mut().disk_mut(0).free_fragments()
}

/// A commit of two whole pages to a fragmented file swings both, and the
/// crash takes only its `Completed` marker: recovery redoes a commit whose
/// swings landed. Each page's descriptor already names its tentative
/// block, so the redo leaves it be — swung again, it would free the live
/// block as the "old" one.
#[test]
fn a_redo_leaves_a_swing_that_landed() {
    let (mut ts, fid) = fragmented();
    let (mut twin, twin_fid) = fragmented();
    let mut model = vec![SEED; 4 * BLOCK_SIZE];
    let swings = ts.stats().shadow_pages;
    let t = commit(&mut ts, fid, BLOCK, &[0x99; 2 * BLOCK_SIZE]);
    commit(&mut twin, twin_fid, BLOCK, &[0x99; 2 * BLOCK_SIZE]);
    fill(&mut model, &(BLOCK..3 * BLOCK), 0x99);
    assert_eq!(ts.stats().shadow_pages, swings + 2, "two shadow swings");
    assert_eq!(crash_and_recover(&mut ts), vec![t], "redone");
    assert_eq!(ts.stats().shadow_pages, swings + 2, "and swung no more");
    assert_eq!(contents(&mut ts, fid), model);
    assert!(fsck_is_clean(&mut ts));
    assert_eq!(free_after_sync(&mut ts), free_after_sync(&mut twin));
}

/// A commit writes two whole pages of a file and deletes it, and the
/// crash takes only its `Completed` marker: the redo finds no file, so
/// it applies nothing and frees the pages' tentative blocks.
#[test]
fn a_redo_skips_the_pages_of_a_file_its_commit_deleted() {
    let write_and_delete = |ts: &mut TransactionService, fid: FileId| {
        let t = begin_write(ts, fid, 0, &[0x99; 2 * BLOCK_SIZE]);
        ts.tdelete(t, fid).unwrap();
        ts.tend(t).unwrap();
        t
    };
    let (mut ts, fid) = two_blocks();
    let (mut twin, twin_fid) = two_blocks();
    let t = write_and_delete(&mut ts, fid);
    write_and_delete(&mut twin, twin_fid);
    assert_eq!(crash_and_recover(&mut ts), vec![t], "redone");
    assert!(!ts.file_service().exists(fid), "the file stays deleted");
    assert!(fsck_is_clean(&mut ts));
    assert_eq!(free_after_sync(&mut ts), free_after_sync(&mut twin));
}

/// Commits that are durable but not yet home — records in the pool, one
/// commit forced and never applied, whole pages among them — and a
/// recovery cut short: once right before its own force, its redo on the
/// platter as far as it got and its `Completed` markers not; then at
/// every sector write of the checkpoint that takes what it redid home.
/// Recovering again gives the same bytes each time.
fn recovery_cut_short(records: &[(u64, usize)]) -> Result<(), TestCaseError> {
    // A two-block pool: the redo evicts, so it writes as it goes.
    let config = FileServiceConfig {
        cache_blocks: 2,
        ..FileServiceConfig::default()
    };
    let build = || {
        let (mut ts, fid) = service(config, 4);
        let mut model = vec![SEED; 4 * BLOCK_SIZE];
        for (i, &(offset, len)) in records.iter().enumerate() {
            let byte = i as u8 + 1;
            commit(&mut ts, fid, offset, &vec![byte; len]);
            fill(&mut model, &(offset..offset + len as u64), byte);
        }
        commit(&mut ts, fid, 2 * BLOCK, &[0xaa; BLOCK_SIZE]);
        fill(&mut model, &(2 * BLOCK..3 * BLOCK), 0xaa);
        // Forced, never applied: a page and a record.
        let t = begin_write(&mut ts, fid, 3 * BLOCK, &[0xbb; BLOCK_SIZE]);
        ts.twrite(t, fid, 5, &[0xcc; 40]).unwrap();
        let Prepared::Pending(_unapplied) = ts.prepare_commit(t).unwrap() else {
            unreachable!("a top-level commit")
        };
        ts.flush_log().unwrap();
        fill(&mut model, &(3 * BLOCK..4 * BLOCK), 0xbb);
        fill(&mut model, &(5..45), 0xcc);
        (ts, fid, model)
    };

    // Cut right before the force: put the log's sectors back as the crash
    // left them, over everything else the redo wrote.
    let (mut ts, fid, model) = build();
    let log = ts.file_service().system_file().unwrap();
    let sectors: Vec<(usize, u64)> = (ts.file_service_mut().block_descriptors(log).unwrap())
        .iter()
        .flat_map(|d| (0..BLOCK / SECTOR_SIZE as u64).map(move |s| (d.disk as usize, d.addr + s)))
        .collect();
    let image = |ts: &mut TransactionService| -> Vec<Vec<u8>> {
        (sectors.iter())
            .map(|&(d, s)| {
                let disk = ts.file_service_mut().disk_mut(d).disk_mut();
                disk.peek_sector(s).unwrap().to_vec()
            })
            .collect()
    };
    let before = image(&mut ts);
    crash_and_recover(&mut ts);
    prop_assert!(image(&mut ts) != before, "the recovery forced its markers");
    for (&(d, s), bytes) in sectors.iter().zip(&before) {
        let disk = ts.file_service_mut().disk_mut(d).disk_mut();
        disk.write_sectors(s, bytes).unwrap();
    }
    crash_and_recover(&mut ts);
    prop_assert_eq!(&contents(&mut ts, fid), &model);
    prop_assert!(fsck_is_clean(&mut ts));

    // Cut while the checkpoint after it takes the redone blocks home.
    for n in 0.. {
        let (mut ts, fid, model) = build();
        crash_and_recover(&mut ts);
        let disk = ts.file_service_mut().disk_mut(0).disk_mut();
        disk.faults_mut().crash_after_sector_writes(n);
        let synced = ts.sync();
        let crashed = ts
            .file_service_mut()
            .disk_mut(0)
            .disk_mut()
            .faults()
            .is_crashed();
        crash_and_recover(&mut ts);
        prop_assert_eq!(&contents(&mut ts, fid), &model, "crash point {}", n);
        prop_assert!(fsck_is_clean(&mut ts), "crash point {}", n);
        if !crashed {
            prop_assert!(n > 0 && synced.is_ok());
            break;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two transactions write overlapping bytes of one block and commit
    /// in the opposite order to their `tbegin`s; a crash before any
    /// checkpoint redoes both, and the one that committed later wins.
    #[test]
    fn the_later_commit_wins_whatever_the_order_of_tbegins(
        lo in 0u64..BLOCK - 1,
        len in 1u64..BLOCK / 2,
        shift in 0u64..BLOCK,
    ) {
        let (mut ts, fid) = two_blocks();
        let mut model = vec![SEED; 2 * BLOCK_SIZE];
        let first = lo..(lo + len).min(BLOCK);
        let lo2 = first.start + shift % (first.end - first.start);
        let second = lo2..(lo2 + len).min(BLOCK);
        let older = ts.tbegin();
        let younger = ts.tbegin();
        for (t, range, byte) in [(younger, &first, 0xa1), (older, &second, 0xb2)] {
            ts.topen(t, fid).unwrap();
            let bytes = vec![byte; (range.end - range.start) as usize];
            ts.twrite(t, fid, range.start, &bytes).unwrap();
            ts.tend(t).unwrap();
            fill(&mut model, range, byte);
        }
        // A third commit's force carries both markers: neither commit is
        // redone as incomplete, both as records no checkpoint took home.
        let last = commit(&mut ts, fid, BLOCK, &[0x33; 10]);
        fill(&mut model, &(BLOCK..BLOCK + 10), 0x33);
        prop_assert_eq!(&contents(&mut ts, fid), &model);
        prop_assert_eq!(crash_and_recover(&mut ts), vec![last]);
        prop_assert_eq!(&contents(&mut ts, fid), &model);
    }

    /// See [`recovery_cut_short`].
    #[test]
    fn a_recovery_cut_short_redoes_to_the_same_bytes(
        records in proptest::collection::vec((0u64..2 * BLOCK - 2000, 1usize..2000), 1..5),
    ) {
        recovery_cut_short(&records)?;
    }
}
