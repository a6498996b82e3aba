//! Disk references of the commit path, pinned where two metadata writes
//! used to be — the open count that `open`/`close` stored in the FIT, and
//! the size of the intention log that every append changed — where a
//! partial page used to take a detached block, and where a committed
//! record used to be written home before the acknowledgement.

use rhodos_disk_service::BLOCK_SIZE;
use rhodos_file_service::{
    FileId, FileService, FileServiceConfig, FileServiceError, LockLevel, ServiceType,
};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock, SECTOR_SIZE};
use rhodos_txn::{TransactionService, TxnConfig};

fn file_service() -> FileService {
    FileService::single_disk(
        DiskGeometry::medium(),
        LatencyModel::default(),
        SimClock::new(),
        FileServiceConfig::default(),
    )
    .unwrap()
}

/// References to the main disk and to both stable mirrors.
fn disk_refs(fs: &FileService) -> u64 {
    let [main, stable] = split_refs(fs);
    main + stable
}

/// References to the main disk, and to both stable mirrors.
fn split_refs(fs: &FileService) -> [u64; 2] {
    let disks = fs.stats().disks;
    let main = disks.iter().map(|d| d.disk.total_ops()).sum();
    [main, disks.iter().map(|d| d.stable.total_ops()).sum()]
}

/// A page-level file of two blocks, its first block warm in the pool, on
/// a quiet service (the seeding commit's marker forced, its detached
/// blocks freed).
fn warm_page_file() -> (TransactionService, FileId) {
    let mut ts = TransactionService::new(file_service(), TxnConfig::default()).unwrap();
    let fid = ts.tcreate(LockLevel::Page).unwrap();
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    ts.twrite(t, fid, 0, &vec![1; 2 * BLOCK_SIZE]).unwrap();
    ts.tend(t).unwrap();
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    ts.tread(t, fid, 0, 1024).unwrap();
    ts.tend(t).unwrap();
    ts.sync().unwrap();
    (ts, fid)
}

/// A warm 1 KiB write to a page-level file commits its bytes inline in
/// the log, and the force of the log's tail is its only disk reference:
/// the home block waits in the pool, covered by the log. Nothing goes to
/// stable storage. A read-only transaction behind it forces nothing — the
/// writer's `Completed` marker waits for the next force that has to
/// happen anyway. A `sync` then takes the home block to the platter, once,
/// and discards the log.
#[test]
fn a_warm_kilobyte_write_costs_only_the_force() {
    let (mut ts, fid) = warm_page_file();
    for round in 0..3u8 {
        let before = split_refs(ts.file_service());
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.twrite(t, fid, 2048, &[round; 1024]).unwrap();
        ts.tend(t).unwrap();
        let [main, stable] = split_refs(ts.file_service());
        assert_eq!(
            [main - before[0], stable - before[1]],
            [1, 0],
            "round {round}"
        );

        let before = disk_refs(ts.file_service());
        let flushes = ts.stats().log_flushes;
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        assert_eq!(ts.tread(t, fid, 2048, 1024).unwrap(), vec![round; 1024]);
        ts.tend(t).unwrap();
        assert_eq!(disk_refs(ts.file_service()) - before, 0, "round {round}");
        assert_eq!(ts.stats().log_flushes, flushes);
    }

    let home = ts.file_service_mut().block_descriptors(fid).unwrap()[0];
    let on_platter = |ts: &mut TransactionService| {
        let disk = ts.file_service_mut().disk_mut(home.disk as usize);
        let sector = home.addr + 2048 / SECTOR_SIZE as u64;
        disk.disk_mut().peek_sector(sector).unwrap()[0]
    };
    assert_eq!(on_platter(&mut ts), 1, "the home block is not written yet");
    let before = split_refs(ts.file_service());
    let compactions = ts.stats().log_compactions;
    ts.sync().unwrap();
    let [main, stable] = split_refs(ts.file_service());
    assert_eq!(
        [main - before[0], stable - before[1]],
        [2, 0],
        "the home block, then the log's header"
    );
    assert_eq!(ts.stats().log_compactions, compactions + 1);
    assert_eq!(on_platter(&mut ts), 2, "the last round's bytes are home");
}

/// Aborting a partial-page write has nothing to give back: the page
/// never owned a block.
#[test]
fn aborting_a_partial_write_frees_nothing_and_leaks_nothing() {
    let (mut ts, fid) = warm_page_file();
    let free = ts.file_service_mut().disk_mut(0).free_fragments();
    let before = disk_refs(ts.file_service());
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    ts.twrite(t, fid, 100, &[9; 1024]).unwrap();
    ts.twrite(t, fid, BLOCK_SIZE as u64 + 5, &[9; 10]).unwrap();
    assert_eq!(ts.file_service_mut().disk_mut(0).free_fragments(), free);
    ts.tabort(t).unwrap();
    assert_eq!(ts.file_service_mut().disk_mut(0).free_fragments(), free);
    assert_eq!(disk_refs(ts.file_service()) - before, 0);
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    assert_eq!(ts.tread(t, fid, 100, 1024).unwrap(), vec![1; 1024]);
    ts.tend(t).unwrap();
    let fsck = ts.file_service_mut().fsck().unwrap();
    assert!(fsck.is_clean(), "{:?}", fsck.issues);
}

/// A read-only transaction on a cached block touches no disk: nothing it
/// does changes anything a disk holds.
#[test]
fn a_read_transaction_on_a_cached_block_makes_no_disk_reference() {
    let mut ts = TransactionService::new(file_service(), TxnConfig::default()).unwrap();
    let fid = ts.tcreate(LockLevel::Page).unwrap();
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    ts.twrite(t, fid, 0, &[7; 1024]).unwrap();
    ts.tend(t).unwrap();
    let warm = ts.tbegin();
    ts.topen(warm, fid).unwrap();
    ts.tread(warm, fid, 0, 1024).unwrap();
    ts.tend(warm).unwrap();

    let before = disk_refs(ts.file_service());
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    assert_eq!(ts.tread(t, fid, 0, 1024).unwrap(), vec![7; 1024]);
    ts.tend(t).unwrap();
    assert_eq!(disk_refs(ts.file_service()) - before, 0);
}

/// 400 warm 1 KiB write transactions whose records carry the log across
/// the 64 blocks a file index table addresses directly: appending grows
/// nothing, so the transactions after that line cost what those before
/// it do.
#[test]
fn write_transactions_cost_the_same_on_both_sides_of_the_log_s_64_block_line() {
    const LINE: u64 = 64 * BLOCK_SIZE as u64;
    let mut ts = TransactionService::new(file_service(), TxnConfig::default()).unwrap();
    // Record mode: the kilobyte travels in the log record.
    let fid = ts.tcreate(LockLevel::Record).unwrap();
    let write = |ts: &mut TransactionService, len: usize| {
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.twrite(t, fid, 0, &vec![len as u8; len]).unwrap();
        ts.tend(t).unwrap();
    };
    // Bring the tail to about 200 transactions short of the line.
    while ts.durable_lsn() < LINE - 200 * 1100 {
        write(&mut ts, 32 * 1024);
    }
    let mut halves = [0u64; 2];
    for half in &mut halves {
        let before = disk_refs(ts.file_service());
        for _ in 0..200 {
            write(&mut ts, 1024);
        }
        *half = disk_refs(ts.file_service()) - before;
        assert!(*half > 0);
    }
    assert!(ts.durable_lsn() > LINE, "the log crossed its 64-block line");
    assert_eq!(ts.stats().log_compactions, 0);
    let [first, second] = halves;
    assert!(first + second <= 4 * 400, "{first} + {second} references");
    assert!(second <= first, "no step: {first} then {second}");
}

/// More files open at once than the fragment pool holds FITs (256): the
/// open table is beside the pool, not in it, so every file stays open
/// while its FIT comes and goes — and a crash closes them all.
#[test]
fn files_stay_open_while_their_fits_are_evicted() {
    let mut fs = file_service();
    let fids: Vec<_> = (0..300u32)
        .map(|i| {
            let fid = fs.create(ServiceType::Basic).unwrap();
            fs.open(fid).unwrap();
            fs.write(fid, 0, &i.to_le_bytes()[..]).unwrap();
            fid
        })
        .collect();
    fs.flush_file(fids[299]).unwrap();
    let before = disk_refs(&fs);
    fs.open(fids[299]).unwrap();
    fs.close(fids[299]).unwrap();
    assert_eq!(disk_refs(&fs) - before, 0, "a resident FIT, nothing dirty");
    for (i, &fid) in fids.iter().enumerate() {
        assert_eq!(fs.get_attribute(fid).unwrap().ref_count, 1);
        assert_eq!(fs.read(fid, 0, 4).unwrap(), (i as u32).to_le_bytes());
        assert_eq!(fs.delete(fid), Err(FileServiceError::Busy(fid)));
    }
    fs.flush_all().unwrap();
    fs.simulate_crash();
    fs.recover().unwrap();
    for &fid in &fids {
        assert_eq!(fs.get_attribute(fid).unwrap().ref_count, 0);
        assert_eq!(fs.read(fid, 0, 4), Err(FileServiceError::NotOpen(fid)));
        assert_eq!(fs.close(fid), Err(FileServiceError::NotOpen(fid)));
    }
    fs.delete(fids[0]).unwrap();
}
