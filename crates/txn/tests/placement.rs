//! Where a committed file's blocks land (§4–§5, §6.7). A page-level file
//! created with one block and written whole in one transaction takes
//! its tentative blocks from the top of the disk and grows, at the
//! commit, from the bottom — next to its FIT and the intention log, in
//! one extent — so every page of it is applied by write-ahead logging.
//! The setup is `benchmark/`'s `txn-mix`: 48 files of four blocks on the
//! large single-disk server.

use rhodos_disk_service::{Extent, BLOCK_SIZE};
use rhodos_file_service::{FileService, FileServiceConfig, LockLevel};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
use rhodos_txn::{TransactionService, TxnConfig};

const FILES: usize = 48;
const FILE_BLOCKS: u64 = 4;

/// The lowest fragment free in `before` and allocated in `after` — free
/// runs in address order, each run of `after` inside one of `before`.
fn lowest_taken(before: &[Extent], after: &[Extent]) -> Option<u64> {
    before.iter().find_map(|b| {
        let mut at = b.start;
        for a in after
            .iter()
            .filter(|a| a.start >= b.start && a.end() <= b.end())
        {
            if a.start > at {
                return Some(at);
            }
            at = a.end();
        }
        (at < b.end()).then_some(at)
    })
}

fn free_runs(ts: &mut TransactionService) -> Vec<Extent> {
    ts.file_service_mut().disk_mut(0).bitmap().free_runs()
}

#[test]
fn files_written_whole_grow_low_in_one_extent_and_log_every_page() {
    let fs = FileService::single_disk(
        DiskGeometry::large(),
        LatencyModel::default(),
        SimClock::new(),
        FileServiceConfig::default(),
    )
    .unwrap();
    let mut ts = TransactionService::new(fs, TxnConfig::default()).unwrap();
    let image = vec![0xA5u8; (FILE_BLOCKS * BLOCK_SIZE as u64) as usize];
    let mut fids = Vec::new();
    // The lowest fragment a tentative block (an `allocate_top`) took.
    let mut top_floor = u64::MAX;
    for _ in 0..FILES {
        let fid = ts.tcreate(LockLevel::Page).unwrap();
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        let before = free_runs(&mut ts);
        ts.twrite(t, fid, 0, &image).unwrap();
        let taken = lowest_taken(&before, &free_runs(&mut ts)).expect("tentative blocks");
        top_floor = top_floor.min(taken);
        ts.tend(t).unwrap();
        fids.push(fid);
    }
    let stats = ts.stats();
    assert_eq!(stats.wal_pages, FILES as u64 * FILE_BLOCKS);
    assert_eq!(stats.shadow_pages, 0);
    for fid in fids {
        let descs = ts.file_service_mut().block_descriptors(fid).unwrap();
        assert_eq!(descs.len() as u64, FILE_BLOCKS);
        assert_eq!(descs[0].contig as u64, FILE_BLOCKS, "{fid:?} is one extent");
        let end = descs[descs.len() - 1].block_extent().end();
        assert!(
            end <= top_floor,
            "{fid:?} ends at fragment {end}, above a tentative block at {top_floor}"
        );
    }
}
