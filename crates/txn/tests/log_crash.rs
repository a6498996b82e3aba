//! The intention log's tail is found, never trusted: crashes inside a
//! checkpoint — a compaction, or a marker behind an active transaction —
//! and inside a force, frames an earlier incarnation left on the log's
//! blocks, and damage to a frame that was forced.
//!
//! Everything here goes through the public API — the commit steps
//! (`prepare_commit`, `flush_log`, `complete_commit`), the disk's fault
//! injector and `recover`, which reports the transactions it redid: the
//! commit records the scan accepted that no `Completed` marker follows.
//! Sizes and positions that are random come from the proptest shim
//! (`PROPTEST_BASE_SEED`, swept over 1/7/42 in CI).

use proptest::prelude::*;
use rhodos_disk_service::BLOCK_SIZE;
use rhodos_file_service::{FileId, FileService, FileServiceConfig, LockLevel};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock, SimDisk, SECTOR_SIZE};
use rhodos_txn::{Prepared, PreparedCommit, TransactionService, TxnConfig, TxnId};

const BLOCK: u64 = BLOCK_SIZE as u64;
const SECTOR: u64 = SECTOR_SIZE as u64;
/// The header frame has the log's first sector; records start here.
const FIRST_RECORD: u64 = SECTOR;

fn service() -> TransactionService {
    let fs = FileService::single_disk(
        DiskGeometry::medium(),
        LatencyModel::instant(),
        SimClock::new(),
        FileServiceConfig::default(),
    )
    .unwrap();
    TransactionService::new(fs, TxnConfig::default()).unwrap()
}

fn main_disk(ts: &mut TransactionService) -> &mut SimDisk {
    ts.file_service_mut().disk_mut(0).disk_mut()
}

fn crash_and_recover(ts: &mut TransactionService) -> Vec<TxnId> {
    ts.file_service_mut().simulate_crash();
    ts.recover().expect("recovery after a crash")
}

/// A transaction that wrote `len` bytes at `offset` of the record-level
/// file `fid` and whose `Commit` record is in the log, unforced. In
/// record mode the bytes travel in the record, so as long as the write
/// does not grow the file the log is all that is written — and all that
/// a crash can tear.
fn logged(
    ts: &mut TransactionService,
    fid: FileId,
    offset: u64,
    len: usize,
) -> (TxnId, PreparedCommit) {
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    ts.twrite(t, fid, offset, &vec![t.0 as u8; len]).unwrap();
    match ts.prepare_commit(t).unwrap() {
        Prepared::Pending(p) => (t, p),
        Prepared::Merged => unreachable!("a top-level commit"),
    }
}

/// The sectors of the log's first three blocks, as the platter has them.
fn log_sectors(ts: &mut TransactionService) -> Vec<Vec<u8>> {
    let fs = ts.file_service_mut();
    let log = fs.system_file().unwrap();
    let blocks = fs.block_descriptors(log).unwrap();
    let mut sectors = Vec::new();
    for home in &blocks[..3] {
        let disk = fs.disk_mut(home.disk as usize).disk_mut();
        for s in 0..BLOCK / SECTOR {
            sectors.push(disk.peek_sector(home.addr + s).unwrap().to_vec());
        }
    }
    sectors
}

// ---- a crash during compaction -------------------------------------------

const PAGE: u64 = BLOCK;

fn three_commits() -> (TransactionService, FileId) {
    let mut ts = service();
    let fid = ts.tcreate(LockLevel::Page).unwrap();
    for i in 0..3u8 {
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.twrite(t, fid, u64::from(i) * PAGE, &[i + 1; 100])
            .unwrap();
        ts.tend(t).unwrap();
    }
    (ts, fid)
}

fn free_fragments(ts: &mut TransactionService) -> u64 {
    ts.file_service_mut().disk_mut(0).free_fragments()
}

/// Crashes the disk after every number of sector writes a compaction
/// makes: the write-back of the blocks the three commits left in the
/// pool, then the header. Whichever side of the header write the crash
/// falls on,
/// recovery must succeed, the three commits must read back, the volume
/// must be consistent and own exactly what an uninterrupted compaction
/// leaves it — and the service must go on committing.
#[test]
fn crash_at_every_sector_write_of_a_compaction() {
    let (mut twin, _) = three_commits();
    twin.sync().unwrap();
    crash_and_recover(&mut twin);
    let free = free_fragments(&mut twin);

    for n in 0.. {
        let (mut ts, fid) = three_commits();
        main_disk(&mut ts).faults_mut().crash_after_sector_writes(n);
        let compacted = ts.sync();
        let crashed = main_disk(&mut ts).faults().is_crashed();
        ts.file_service_mut().simulate_crash();
        if let Err(e) = ts.recover() {
            panic!("crash after {n} sector writes of a compaction ({compacted:?}): {e:?}");
        }
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        for i in 0..3u8 {
            let got = ts.tread(t, fid, u64::from(i) * PAGE, 100).unwrap();
            assert_eq!(got, vec![i + 1; 100], "commit {i}, crash point {n}");
        }
        ts.twrite(t, fid, 3 * PAGE, b"and on").unwrap();
        ts.tend(t).unwrap();
        crash_and_recover(&mut ts);
        let fsck = ts.file_service_mut().fsck().unwrap();
        assert!(fsck.is_clean(), "crash point {n}: {:?}", fsck.issues);
        // The fourth commit grew the file by one block.
        let grown = free_fragments(&mut ts) + BLOCK / SECTOR;
        assert_eq!(grown, free, "crash point {n} leaked an extent");
        if !crashed {
            // The compaction ran to its end: every point in it is covered.
            assert!(n > 0 && compacted.is_ok());
            break;
        }
    }
}

/// A checkpoint while a transaction is still active: every dirty block
/// goes home in one batch, then a `Checkpoint` marker is appended and
/// forced where a compaction would reset the log. Crashes at every sector
/// write of it — the write-back, then the marker — leave the three
/// commits readable, the volume consistent and owning exactly what an
/// uninterrupted checkpoint leaves it.
#[test]
fn crash_at_every_sector_write_of_a_checkpoint_behind_an_active_transaction() {
    // A whole page past the end of the file: the active transaction holds
    // a detached block the crash must give back.
    let active = |ts: &mut TransactionService, fid| {
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.twrite(t, fid, 3 * PAGE, &[9; BLOCK_SIZE]).unwrap();
    };
    let (mut twin, fid) = three_commits();
    active(&mut twin, fid);
    twin.sync().unwrap();
    assert_eq!(crash_and_recover(&mut twin), vec![], "nothing left to redo");
    let free = free_fragments(&mut twin);

    for n in 0.. {
        let (mut ts, fid) = three_commits();
        active(&mut ts, fid);
        let compactions = ts.stats().log_compactions;
        main_disk(&mut ts).faults_mut().crash_after_sector_writes(n);
        let synced = ts.sync();
        let crashed = main_disk(&mut ts).faults().is_crashed();
        assert_eq!(ts.stats().log_compactions, compactions, "the log stays");
        crash_and_recover(&mut ts);
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        for i in 0..3u8 {
            let got = ts.tread(t, fid, u64::from(i) * PAGE, 100).unwrap();
            assert_eq!(got, vec![i + 1; 100], "commit {i}, crash point {n}");
        }
        ts.tend(t).unwrap();
        let fsck = ts.file_service_mut().fsck().unwrap();
        assert!(fsck.is_clean(), "crash point {n}: {:?}", fsck.issues);
        assert_eq!(
            free_fragments(&mut ts),
            free,
            "crash point {n} leaked an extent"
        );
        if !crashed {
            assert!(n > 0 && synced.is_ok());
            break;
        }
    }
}

// ---- an older incarnation's frames ---------------------------------------

/// Lays the log out so that the scan of its second incarnation ends on a
/// block boundary where the first incarnation left a whole, valid
/// `Commit` frame with no `Completed` marker after it — the frame a scan
/// that trusted a magic number or a stored length would replay.
#[test]
fn an_older_incarnation_s_frames_are_not_replayed() {
    let files = |ts: &mut TransactionService| {
        let a = ts.tcreate(LockLevel::Record).unwrap();
        (a, ts.tcreate(LockLevel::Record).unwrap())
    };
    // How long a record must be for its frame to end the first block.
    let fill = {
        let mut ts = service();
        let (a, _) = files(&mut ts);
        logged(&mut ts, a, 0, 1000);
        ts.flush_log().unwrap();
        1000 + (BLOCK - ts.durable_lsn()) as usize
    };

    let mut ts = service();
    let (a, b) = files(&mut ts);
    let (_, first) = logged(&mut ts, a, 0, fill);
    ts.flush_log().unwrap();
    assert_eq!(ts.durable_lsn(), BLOCK, "the first frame ends the block");
    let (_, second) = logged(&mut ts, b, 0, 10);
    ts.flush_log().unwrap();
    // Both complete, but their markers are never forced: the compaction
    // below disowns the log they would have gone to.
    ts.complete_commit(first).unwrap();
    ts.complete_commit(second).unwrap();
    ts.sync().unwrap();

    let before = ts.durable_lsn();
    let (again, _) = logged(&mut ts, a, 0, fill);
    ts.flush_log().unwrap();
    assert_eq!(ts.durable_lsn() - before, BLOCK - FIRST_RECORD);
    // The platter now holds: the new header, the new frame up to the
    // block boundary, and at the boundary the old `Commit` of `second`.
    assert_eq!(crash_and_recover(&mut ts), vec![again]);
    assert_eq!(ts.stats().log_frames_rejected, 0, "a clean end");
}

/// A force of two records — one ending exactly on a block boundary, one
/// starting there — that the elevator serves first sector last: a read
/// left the disk head past the old tail's sector, so its rewrite waits
/// for the sweep to wrap, and a crash after every other sector leaves
/// the second record whole on the platter and the first without its
/// head. Recovery drops both; when a record is then logged behind the
/// mount's frame so that it ends where the first one did, the orphan sits
/// exactly where the next frame would, valid and of this incarnation —
/// and must still not be replayed, because it does not follow the frame
/// before it.
#[test]
fn a_frame_that_does_not_follow_its_predecessor_is_rejected() {
    let build = || {
        let mut ts = service();
        let a = ts.tcreate(LockLevel::Record).unwrap();
        let b = ts.tcreate(LockLevel::Record).unwrap();
        ts.file_service_mut().ensure_size(a, 2 * BLOCK).unwrap();
        ts.file_service_mut().ensure_size(b, BLOCK).unwrap();
        let (_, lead) = logged(&mut ts, b, 100, 5000);
        ts.flush_log().unwrap();
        ts.complete_commit(lead).unwrap();
        ts.flush_log().unwrap();
        (ts, a, b)
    };
    // The record length whose frame ends the log's second block, and the
    // platter once that record and a small one behind it are forced.
    let (head, fill) = {
        let (mut ts, a, _) = build();
        let head = ts.durable_lsn();
        logged(&mut ts, a, 0, 1000);
        ts.flush_log().unwrap();
        (head, 1000 + (2 * BLOCK - ts.durable_lsn()) as usize)
    };
    let written = {
        let (mut ts, a, b) = build();
        logged(&mut ts, a, 0, fill);
        assert_eq!(ts.durable_lsn(), head, "nothing forced yet");
        logged(&mut ts, b, 0, 10);
        ts.flush_log().unwrap();
        log_sectors(&mut ts)
    };

    // The force writes the head's sector through the one the small record
    // is in, at the block boundary: a crash after all but one of them,
    // with the disk head at the log's second block.
    let (mut ts, a, b) = build();
    let head_sector = (head / SECTOR) as usize;
    let fs = ts.file_service_mut();
    let second = fs.block_descriptors(fs.system_file().unwrap()).unwrap()[1];
    main_disk(&mut ts).read_sectors(second.addr, 1).unwrap();
    main_disk(&mut ts)
        .faults_mut()
        .crash_after_sector_writes(2 * BLOCK / SECTOR - head / SECTOR);
    logged(&mut ts, a, 0, fill);
    logged(&mut ts, b, 0, 10);
    ts.flush_log().unwrap_err();
    let landed = log_sectors(&mut ts);
    let after_head = head_sector + 1;
    assert_eq!(landed[after_head..], written[after_head..], "the rest");
    assert_ne!(landed[head_sector], written[head_sector], "not the head's");
    assert_eq!(crash_and_recover(&mut ts), vec![]);
    assert_eq!(ts.stats().log_frames_rejected, 0);

    // In its first incarnation the log's offsets are its LSNs.
    let mounted = ts.log_len() - head;
    let (again, _) = logged(&mut ts, a, 0, fill - mounted as usize);
    ts.flush_log().unwrap();
    assert_eq!(ts.durable_lsn(), 2 * BLOCK, "ends where the lost one did");
    assert_eq!(crash_and_recover(&mut ts), vec![again]);
    assert_eq!(ts.stats().log_frames_rejected, 1, "the orphan was met");
}

/// A redo must not chain a commit that was never acknowledged. A force of
/// a `Completed` marker that ends on a sector boundary and of a commit
/// behind it, torn so that only the commit's sector lands (the disk head
/// parked on it, the elevator writes it first), fails: the commit is an
/// orphan. Recovery redoes the first commit and appends its marker again
/// where the lost one was — behind the mount's frame, so not byte for
/// byte, and the orphan does not follow it: the second recovery redoes
/// nothing, and the orphan's bytes never reach the file.
#[test]
fn a_redo_does_not_chain_an_orphan_commit() {
    let build = || {
        let mut ts = service();
        let fid = ts.tcreate(LockLevel::Record).unwrap();
        ts.file_service_mut().ensure_size(fid, 2 * BLOCK).unwrap();
        (ts, fid)
    };
    // The record length whose `Commit` frame and marker end a sector.
    let len = {
        let (mut ts, fid) = build();
        let (_, p) = logged(&mut ts, fid, 0, 100);
        ts.flush_log().unwrap();
        ts.complete_commit(p).unwrap();
        ts.flush_log().unwrap();
        100 + ((SECTOR - ts.durable_lsn() % SECTOR) % SECTOR) as usize
    };
    let (mut ts, fid) = build();
    let (t, p) = logged(&mut ts, fid, 0, len);
    ts.flush_log().unwrap();
    ts.complete_commit(p).unwrap();
    let (_, _u) = logged(&mut ts, fid, BLOCK + 100, 10);
    // In its first incarnation the log's offsets are its LSNs.
    let fs = ts.file_service_mut();
    let log = fs.block_descriptors(fs.system_file().unwrap()).unwrap();
    let next = (ts.durable_lsn() / SECTOR + 1) * SECTOR;
    let orphan = log[(next / BLOCK) as usize].addr + next % BLOCK / SECTOR;
    main_disk(&mut ts).read_sectors(orphan, 1).unwrap();
    main_disk(&mut ts).faults_mut().crash_after_sector_writes(1);
    ts.flush_log().unwrap_err();
    let landed = main_disk(&mut ts).peek_sector(orphan).unwrap().to_vec();
    assert!(landed.iter().any(|&b| b != 0), "the orphan's sector landed");

    assert_eq!(crash_and_recover(&mut ts), vec![t]);
    assert_eq!(crash_and_recover(&mut ts), vec![]);
    let fs = ts.file_service_mut();
    fs.open(fid).unwrap();
    assert_eq!(fs.read(fid, BLOCK + 100, 10).unwrap(), vec![0; 10]);
}

/// Outside recovery, a force that writes the mount's frame first puts the
/// mount's epoch on the platter, so no later mount opens the log with the
/// same frame — here the checkpoint behind an in-doubt vote, which issues
/// no transaction id. A mount that forces nothing leaves its epoch to the
/// next one.
#[test]
fn the_mount_s_frame_leaves_under_a_claimed_epoch() {
    let mut ts = service();
    let fid = ts.tcreate(LockLevel::Record).unwrap();
    ts.file_service_mut().ensure_size(fid, BLOCK).unwrap();
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    ts.twrite(t, fid, 0, &[7; 10]).unwrap();
    ts.prepare_participant(t, 7).unwrap();
    ts.flush_log().unwrap();
    let epoch = |ts: &mut TransactionService| ts.file_service_mut().lease_manager().epoch();
    assert_eq!(crash_and_recover(&mut ts), vec![]);
    let mounted = epoch(&mut ts);
    assert_eq!(crash_and_recover(&mut ts), vec![]);
    assert_eq!(
        epoch(&mut ts),
        mounted,
        "nothing forced, the epoch is reused"
    );
    ts.sync().unwrap();
    assert_eq!(crash_and_recover(&mut ts), vec![]);
    assert_eq!(epoch(&mut ts), mounted + 1, "the frame's epoch was claimed");
}

// ---- what a force writes -------------------------------------------------

fn sector_writes(ts: &mut TransactionService) -> u64 {
    main_disk(ts).stats().sector_writes
}

/// A force must write every sector that holds a byte it makes durable —
/// those from the durable tail's to the new tail's — so a count of
/// exactly that many leaves room for no other: no sector wholly before
/// the durable tail's is rewritten. A small commit's force is one
/// sector, a record across a sector boundary two, and a reset writes the
/// header's sector alone, leaving the rest of the first block as it was.
#[test]
fn a_force_writes_only_the_sectors_its_bytes_are_in() {
    let mut ts = service();
    let fid = ts.tcreate(LockLevel::Record).unwrap();
    ts.file_service_mut().ensure_size(fid, BLOCK).unwrap();
    // Sectors written, and sectors the forced bytes are in (in its first
    // incarnation the log's offsets are its LSNs).
    let force = |ts: &mut TransactionService, len: usize| {
        let (from, before) = (ts.durable_lsn(), sector_writes(ts));
        let (_, commit) = logged(ts, fid, 0, len);
        ts.flush_log().unwrap();
        ts.complete_commit(commit).unwrap();
        let spanned = (ts.durable_lsn() - 1) / SECTOR - from / SECTOR + 1;
        (sector_writes(ts) - before, spanned)
    };
    // The header of a new log goes out with its first force.
    ts.flush_log().unwrap();
    assert_eq!(force(&mut ts, 100), (1, 1), "a small commit");
    assert_eq!(force(&mut ts, 100), (1, 1), "one more in the same sector");
    let from = ts.durable_lsn();
    let crossing = SECTOR_SIZE - (from % SECTOR) as usize;
    assert_eq!(force(&mut ts, crossing), (2, 2), "across a sector boundary");
    for len in [10, 700, 3000, 5000, 8000, 50] {
        let (written, spanned) = force(&mut ts, len);
        assert_eq!(written, spanned, "a {len}-byte record");
    }

    ts.sync().unwrap();
    let (before, writes) = (log_sectors(&mut ts), sector_writes(&mut ts));
    ts.sync().unwrap();
    assert_eq!(
        sector_writes(&mut ts) - writes,
        1,
        "a reset of a clean pool"
    );
    let after = log_sectors(&mut ts);
    assert_ne!(after[0], before[0], "the next incarnation's header");
    assert_eq!(after[1..], before[1..]);
}

/// A force that starts mid-sector rewrites the sector the durable tail is
/// in. A crash at any of its sector writes — served in address order,
/// and with a read having left the disk head past that sector, so that
/// it is written last — loses no commit acknowledged before the force,
/// redoes the new record only if all of it landed, and leaves a log the
/// next record is appended to and found in.
#[test]
fn crash_at_every_sector_write_of_a_force_that_starts_mid_sector() {
    // Three acknowledged commits that never complete, so that recovery
    // redoes each, and a durable tail inside the log's second sector.
    let build = || {
        let mut ts = service();
        let fid = ts.tcreate(LockLevel::Record).unwrap();
        ts.file_service_mut().ensure_size(fid, 2 * BLOCK).unwrap();
        let mut acked = Vec::new();
        for i in 0..3 {
            acked.push(logged(&mut ts, fid, i * 1000, 300).0);
            ts.flush_log().unwrap();
        }
        (ts, fid, acked)
    };
    for head_past in [false, true] {
        for n in 0.. {
            let (mut ts, fid, mut acked) = build();
            let mid = ts.durable_lsn();
            assert!(mid % SECTOR != 0 && mid / SECTOR == 1, "mid-sector");
            let fs = ts.file_service_mut();
            let old_tail =
                fs.block_descriptors(fs.system_file().unwrap()).unwrap()[0].addr + mid / SECTOR;
            if head_past {
                main_disk(&mut ts).read_sectors(old_tail + 1, 1).unwrap();
            }
            let durable = main_disk(&mut ts).peek_sector(old_tail).unwrap().to_vec();
            main_disk(&mut ts).faults_mut().crash_after_sector_writes(n);
            let (torn, _) = logged(&mut ts, fid, 4000, 5000);
            let forced = ts.flush_log();
            let crashed = main_disk(&mut ts).faults().is_crashed();
            if n == 1 {
                let first = main_disk(&mut ts).peek_sector(old_tail).unwrap() != durable;
                assert_eq!(first, !head_past, "the old tail's sector served first");
            }
            if forced.is_ok() {
                acked.push(torn);
            }
            let at = format!("crash after {n} sectors, head past: {head_past}");
            assert_eq!(crash_and_recover(&mut ts), acked, "{at}");
            let (next, _) = logged(&mut ts, fid, 12_000, 50);
            ts.flush_log().unwrap();
            assert_eq!(crash_and_recover(&mut ts), vec![next], "{at}");
            if !crashed {
                assert!(n > 1, "the force wrote several sectors");
                break;
            }
        }
    }
}

/// The log's blocks stay out of the block pool: no force puts one there.
/// Neither a force nor the recovery scan admits a block of the log to
/// the pool: the scan reads past it ([`FileService::read_through`]), so
/// after a recovery and a force no log block is pooled at all.
#[test]
fn the_log_stays_out_of_the_pool() {
    let mut ts = service();
    let fid = ts.tcreate(LockLevel::Record).unwrap();
    ts.file_service_mut().ensure_size(fid, BLOCK).unwrap();
    let log = ts.file_service().system_file().unwrap();
    let commit = |ts: &mut TransactionService, len: usize| {
        let (_, commit) = logged(ts, fid, 0, len);
        ts.flush_log().unwrap();
        ts.complete_commit(commit).unwrap();
    };
    for len in [6000, 6000, 100] {
        commit(&mut ts, len);
    }
    let pool = ts.file_service().cache_handle().unwrap();
    let forced = ts.durable_lsn().div_ceil(BLOCK);
    assert!(forced >= 2);
    for idx in 0..forced {
        assert!(!pool.contains(&(log, idx)), "a force pooled block {idx}");
    }

    crash_and_recover(&mut ts);
    commit(&mut ts, 3000);
    let pool = ts.file_service().cache_handle().unwrap();
    let blocks = ts.file_service_mut().block_descriptors(log).unwrap().len();
    for idx in 0..blocks as u64 {
        assert!(
            !pool.contains(&(log, idx)),
            "recovery pooled log block {idx}"
        );
    }
    assert!(ts.log_len() > BLOCK, "the scan read more than one block");
}

// ---- torn and damaged frames ---------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A record that spans two blocks, its force cut off after every
    /// number of sectors: the record is dropped whole unless all of it
    /// landed (and it is never acknowledged unless it did), the scan
    /// says so when it met the record's head, and the next record
    /// appended is found by the next recovery.
    #[test]
    fn a_record_torn_at_any_sector_is_dropped_whole(
        lead in 3000usize..5000,
        len in 3000usize..6000,
    ) {
        // A durable, completed record of `lead` bytes, then the record
        // under test logged behind it.
        let build = || {
            let mut ts = service();
            let fid = ts.tcreate(LockLevel::Record).unwrap();
            ts.file_service_mut().ensure_size(fid, BLOCK).unwrap();
            let (_, lead_commit) = logged(&mut ts, fid, 0, lead);
            ts.flush_log().unwrap();
            ts.complete_commit(lead_commit).unwrap();
            ts.flush_log().unwrap();
            (ts, fid)
        };
        // Where the record lies (in its first incarnation the log's
        // offsets are its LSNs) and what the log's first two blocks hold
        // once all of it is written.
        let (head, end, written) = {
            let (mut ts, fid) = build();
            let head = ts.durable_lsn();
            logged(&mut ts, fid, 0, len);
            ts.flush_log().unwrap();
            (head, ts.durable_lsn(), log_sectors(&mut ts))
        };
        prop_assert!(head < BLOCK && BLOCK < end && end < 2 * BLOCK, "spans two blocks");
        let record = (head / SECTOR) as usize..=((end - 1) / SECTOR) as usize;
        for n in 0.. {
            let (mut ts, fid) = build();
            main_disk(&mut ts).faults_mut().crash_after_sector_writes(n);
            let (torn, _) = logged(&mut ts, fid, 0, len);
            let forced = ts.flush_log();
            let crashed = main_disk(&mut ts).faults().is_crashed();
            // Which sectors of the record landed is the elevator's choice
            // (it may write the second block first): ask the platter.
            let landed = log_sectors(&mut ts);
            let whole = record.clone().all(|i| landed[i] == written[i]);
            prop_assert!(whole || forced.is_err(), "acknowledged, {} sectors", n);
            let redone = crash_and_recover(&mut ts);
            prop_assert_eq!(&redone, &[torn][..usize::from(whole)], "redone, {} sectors", n);
            let met_head = !whole && landed[*record.start()] == written[*record.start()];
            let rejected = ts.stats().log_frames_rejected;
            prop_assert_eq!(rejected, u64::from(met_head), "rejected, {} sectors", n);

            let (next, _) = logged(&mut ts, fid, 0, 50);
            ts.flush_log().unwrap();
            prop_assert_eq!(crash_and_recover(&mut ts), vec![next], "next, {} sectors", n);
            if !crashed {
                break;
            }
        }
    }

    /// One flipped bit in the second of three forced frames: the scan
    /// replays the first record, stops, and counts what stopped it —
    /// unless the bit was in the frame's magic, which leaves nothing to
    /// tell the frame from the junk past any log's end.
    #[test]
    fn a_flipped_bit_in_a_forced_frame_ends_the_prefix(
        lens in proptest::collection::vec(100usize..2000, 3),
        at in 0u64..1_000_000,
        bit in 0u8..8,
    ) {
        let mut ts = service();
        let fid = ts.tcreate(LockLevel::Record).unwrap();
        let mut ends = vec![ts.durable_lsn()];
        let mut txns = Vec::new();
        for (i, len) in lens.iter().enumerate() {
            txns.push(logged(&mut ts, fid, i as u64 * 4096, *len).0);
            ts.flush_log().unwrap();
            ends.push(ts.durable_lsn());
        }
        // In its first incarnation the log's offsets are its LSNs.
        let at = ends[1] + at % (ends[2] - ends[1]);
        let fs = ts.file_service_mut();
        let log = fs.system_file().unwrap();
        let home = fs.block_descriptors(log).unwrap()[(at / BLOCK) as usize];
        let sector = home.addr + at % BLOCK / SECTOR;
        let disk = fs.disk_mut(home.disk as usize).disk_mut();
        let mut bytes = disk.peek_sector(sector).unwrap().to_vec();
        bytes[(at % SECTOR) as usize] ^= 1 << bit;
        disk.write_sectors(sector, &bytes).unwrap();

        prop_assert_eq!(crash_and_recover(&mut ts), vec![txns[0]]);
        let in_magic = at - ends[1] < 4;
        prop_assert_eq!(ts.stats().log_frames_rejected, u64::from(!in_magic));
    }
}
