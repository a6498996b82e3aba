//! Disk references of the commit path, pinned where two metadata writes
//! used to be: the open count that `open`/`close` stored in the FIT, and
//! the size of the intention log that every append changed.

use rhodos_disk_service::BLOCK_SIZE;
use rhodos_file_service::{
    FileService, FileServiceConfig, FileServiceError, LockLevel, ServiceType,
};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
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
    let disks = fs.stats().disks;
    disks
        .iter()
        .map(|d| d.disk.total_ops() + d.stable.total_ops())
        .sum()
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
