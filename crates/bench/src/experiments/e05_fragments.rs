//! E5 — "for the storage of structural information of fairly small size
//! the use of fragments can substantially reduce communication overheads
//! and thereby improve performance" while "the use of fragments increases
//! the disk I/O to a disproportionate extent" when misapplied to file
//! data (§4). Stores small metadata records in fragments vs whole blocks
//! (utilisation), and bulk file data in fragment-sized vs block-sized
//! transfers (I/O cost).

use crate::table::Table;
use crate::{Cell, Report};
use rhodos_disk_service::{DiskServiceConfig, StablePolicy, BLOCK_SIZE, FRAGMENT_SIZE};

/// The claim, in a line.
pub const TITLE: &str = "Fragments for metadata: utilisation vs I/O";

/// Runs the experiment.
pub fn measure(_: Cell) -> Report {
    let mut r = Report::default();

    // ---- metadata records: fragments vs blocks --------------------------
    const RECORDS: u64 = 256;
    const RECORD_BYTES: u64 = 500; // a file index table entry batch
    let mut t = Table::new(&[
        "metadata unit",
        "allocated bytes",
        "payload bytes",
        "utilisation",
        "write refs",
    ]);
    let mut utilisation = Vec::new();
    for (label, unit) in [
        ("fragment (2 KiB)", FRAGMENT_SIZE),
        ("block (8 KiB)", BLOCK_SIZE),
    ] {
        let mut svc = crate::setups::disk_service(DiskServiceConfig::default());
        let before = svc.stats().disk.write_ops;
        for _ in 0..RECORDS {
            let e = svc
                .allocate_contiguous((unit / FRAGMENT_SIZE) as u64)
                .unwrap();
            let mut buf = vec![0u8; unit];
            buf[..RECORD_BYTES as usize].fill(0xEE);
            svc.put(e, &buf, StablePolicy::None).unwrap();
        }
        let refs = svc.stats().disk.write_ops - before;
        let allocated = RECORDS * unit as u64;
        let payload = RECORDS * RECORD_BYTES;
        let util = payload as f64 / allocated as f64 * 100.0;
        utilisation.push(util);
        t.row(&[&label, &allocated, &payload, &format!("{util:.1}%"), &refs]);
    }
    r.claim(
        "fragments hold small structural records at over 3x the utilisation of blocks",
        utilisation[0] > 3.0 * utilisation[1],
    );
    r.text.push_str("Small structural records (500 B each):\n");
    r.text.push_str(&t.render());

    // ---- bulk file data: fragment-sized vs block-sized transfers --------
    const DATA_BYTES: usize = 2 * 1024 * 1024;
    let mut t = Table::new(&[
        "data unit",
        "transfer refs",
        "sim time (us)",
        "time per MiB (us)",
    ]);
    let mut costs = Vec::new();
    for (label, unit_frags) in [("fragment (2 KiB)", 1u64), ("block (8 KiB)", 4u64)] {
        let mut svc = crate::setups::disk_service(DiskServiceConfig {
            track_readahead: false,
            cache_tracks: 0,
        });
        let clock = svc.clock();
        let n_units = DATA_BYTES as u64 / (unit_frags * FRAGMENT_SIZE as u64);
        let extents: Vec<_> = (0..n_units)
            .map(|_| svc.allocate_contiguous(unit_frags).unwrap())
            .collect();
        let buf = vec![0xAAu8; (unit_frags * FRAGMENT_SIZE as u64) as usize];
        let t0 = clock.now_us();
        let before = svc.stats().disk.write_ops;
        for e in &extents {
            svc.put(*e, &buf, StablePolicy::None).unwrap();
        }
        let refs = svc.stats().disk.write_ops - before;
        let dt = clock.now_us() - t0;
        costs.push((refs, dt));
        t.row(&[&label, &refs, &dt, &format!("{}", dt / 2)]);
    }
    let ((frag_refs, frag_us), (block_refs, block_us)) = (costs[0], costs[1]);
    r.claim(
        "blocks write 2 MiB of file data in a quarter of the fragments' disk references",
        block_refs * 4 <= frag_refs,
    );
    r.claim(
        "blocks write 2 MiB of file data in less time than fragments",
        block_us < frag_us,
    );
    r.text
        .push_str("\nBulk file data (2 MiB written unit-at-a-time):\n");
    r.text.push_str(&t.render());
    r.text.push_str(
        "\npaper: fragments win for small structural data (4x less slack),\n\
         blocks win for file data (4x fewer disk references per byte).\n",
    );
    r
}
