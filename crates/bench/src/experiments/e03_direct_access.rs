//! E3 — "for files up to half a megabyte, the maximum number of disk
//! references is two: one for the file index table and the other for file
//! data" (§7). Sweeps the file size across the 512 KiB boundary and counts
//! cold-start disk references for a whole-file read.

use crate::table::Table;
use crate::{Cell, Report};
use rhodos_file_service::ServiceType;

/// The claim, in a line.
pub const TITLE: &str = "Files <= 512 KiB in at most two disk references";

/// Runs the experiment.
pub fn measure(_: Cell) -> Report {
    let mut r = Report::default();
    let sizes_kib: [usize; 8] = [8, 64, 128, 256, 512, 640, 1024, 2048];
    let mut t = Table::new(&[
        "file size",
        "blocks",
        "disk refs (cold read)",
        "paper bound",
        "within bound",
    ]);
    for size_kib in sizes_kib {
        // Raw setup: no block pool, no track cache — count demand refs.
        let mut fs = crate::setups::file_service_raw();
        let fid = fs.create(ServiceType::Basic).unwrap();
        fs.open(fid).unwrap();
        let data = vec![0xABu8; size_kib * 1024];
        fs.write(fid, 0, &data).unwrap();
        // Cold start: no cached FIT, no cached blocks, no track cache.
        fs.evict_caches().unwrap();
        let before = fs.stats().disks[0].disk.read_ops;
        let back = fs.read(fid, 0, data.len()).unwrap();
        assert_eq!(back.len(), data.len());
        let refs = fs.stats().disks[0].disk.read_ops - before;
        // ≤ 512 KiB: FIT + one contiguous data run = 2. Larger files add
        // one reference per indirect block.
        let bound = if size_kib <= 512 {
            2
        } else {
            2 + rhodos_file_service::FileIndexTable::indirect_tables_needed(
                (size_kib as u64 * 1024).div_ceil(8192),
            ) as u64
        };
        t.row(&[
            &format!("{size_kib} KiB"),
            &format!("{}", (size_kib * 1024).div_ceil(8192)),
            &refs,
            &format!("<= {bound}"),
            &r.verdict(
                format!(
                    "a cold read of a {size_kib} KiB file takes at most {bound} disk references"
                ),
                refs <= bound,
            ),
        ]);
    }
    r.text.push_str(&t.render());
    r.text.push_str(
        "\npaper: two references suffice up to 512 KiB (64 direct descriptors x 8 KiB);\n\
         beyond that each indirect block costs one more reference.\n",
    );
    // Ablation: the FIT-adjacent-first-block design choice ("eliminating
    // the seek time to retrieve the first data block").
    let mut t = Table::new(&[
        "FIT placement",
        "seeks (FIT -> first byte)",
        "sim time (us)",
    ]);
    let [adjacent, separate] = [true, false].map(first_byte_cost);
    for (label, (seeks, us)) in [
        ("adjacent to first data block (RHODOS)", adjacent),
        ("separate metadata region (ablation)", separate),
    ] {
        t.row(&[&label, &seeks, &us]);
    }
    r.text
        .push_str("\nAblation: FIT placement vs time-to-first-byte of a small file:\n");
    r.text.push_str(&t.render());
    let ((adjacent_seeks, adjacent_us), (separate_seeks, separate_us)) = (adjacent, separate);
    r.claim(
        "a FIT adjacent to the first block reaches the first byte with no seek, and sooner \
         than a FIT in a separate region, which seeks",
        adjacent_seeks == 0 && separate_seeks > 0 && adjacent_us < separate_us,
    );
    r
}

/// Cold cost of reading the first byte of a fresh small file.
fn first_byte_cost(adjacent: bool) -> (u64, u64) {
    use rhodos_disk_service::{DiskService, DiskServiceConfig};
    use rhodos_file_service::{FileService, FileServiceConfig};
    use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
    let disk = DiskService::with_stable(
        DiskGeometry::large(),
        LatencyModel::default(),
        SimClock::new(),
        DiskServiceConfig {
            track_readahead: false,
            cache_tracks: 0,
        },
    );
    let mut fs = FileService::format(
        vec![disk],
        FileServiceConfig {
            cache_blocks: 64,
            fit_adjacent_first_block: adjacent,
            ..Default::default()
        },
    )
    .unwrap();
    let fid = fs.create(ServiceType::Basic).unwrap();
    fs.open(fid).unwrap();
    fs.write(fid, 0, b"small file body").unwrap();
    fs.evict_caches().unwrap();
    let clock = fs.clock();
    let s0 = fs.stats().disks[0].disk;
    let t0 = clock.now_us();
    let _ = fs.read(fid, 0, 1).unwrap();
    let s1 = fs.stats().disks[0].disk;
    (s1.seeks - s0.seeks, clock.now_us() - t0)
}
