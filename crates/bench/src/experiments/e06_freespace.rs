//! E6 — the 64 × 64 free-extent array: "the objective of this array is to
//! check quickly whether a requested number of contiguous fragments or
//! blocks are available or not. The use of this array not only improves
//! the performance but also improves the storage utilization" (§4).
//! Compares allocation through the array against the naive bitmap
//! first-fit scan on a churned (fragmented) disk.

use crate::table::{speedup, Table};
use crate::{Cell, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhodos_disk_service::{Bitmap, Extent, FreeExtentArray};
use std::time::Instant;

/// The claim, in a line.
pub const TITLE: &str = "64x64 free-extent array vs bitmap scan";

const TOTAL: u64 = 1 << 16; // 64 Ki fragments = 128 MiB
const CHURN_OPS: usize = 8_000;
const MEASURE_OPS: usize = 2_000;

/// Pre-fragments the bitmap with a random alloc/free churn.
fn churn(bm: &mut Bitmap, idx: &mut FreeExtentArray, seed: u64) -> Vec<Extent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<Extent> = Vec::new();
    for _ in 0..CHURN_OPS {
        // Drive the disk to ~90% occupancy, then churn around it — the
        // regime where "check quickly whether a requested number of
        // contiguous fragments is available" actually matters (a first-fit
        // scan must walk deep into the bitmap to find a hole).
        let want_alloc = bm.free_fragments() > TOTAL / 10;
        if (want_alloc && rng.gen_bool(0.8)) || live.is_empty() {
            let len = rng.gen_range(1..=16u64);
            if let Some(e) = idx.allocate(bm, len) {
                live.push(e);
            }
        } else {
            let k = rng.gen_range(0..live.len());
            let e = live.swap_remove(k);
            idx.free(bm, e);
        }
    }
    live
}

/// Runs the experiment.
pub fn measure(_: Cell) -> Report {
    let mut r = Report::default();
    // Build two identical fragmented disks.
    let mut bm_idx = Bitmap::new_all_free(TOTAL);
    let mut idx = FreeExtentArray::new();
    idx.rebuild_from(&bm_idx);
    churn(&mut bm_idx, &mut idx, 11);
    let mut bm_scan = bm_idx.clone();

    let mut rng = StdRng::seed_from_u64(42);
    let requests: Vec<u64> = (0..MEASURE_OPS).map(|_| rng.gen_range(1..=16)).collect();

    // Extent-array allocation.
    let t0 = Instant::now();
    let mut array_served = 0u64;
    for len in &requests {
        if let Some(e) = idx.allocate(&mut bm_idx, *len) {
            array_served += 1;
            idx.free(&mut bm_idx, e); // keep occupancy constant
        }
    }
    let array_time = t0.elapsed();

    // Bitmap first-fit scan.
    let t1 = Instant::now();
    let mut scan_served = 0u64;
    for len in &requests {
        if let Some(start) = bm_scan.find_free_run_first_fit(*len) {
            bm_scan.mark_allocated(start, *len);
            scan_served += 1;
            bm_scan.mark_free(start, *len);
        }
    }
    let scan_time = t1.elapsed();

    let stats = idx.stats();
    let mut t = Table::new(&[
        "allocator",
        "requests served",
        "total time",
        "ns / allocation",
    ]);
    t.row(&[
        &"64x64 free-extent array",
        &array_served,
        &format!("{array_time:?}"),
        &format!("{}", array_time.as_nanos() as u64 / MEASURE_OPS as u64),
    ]);
    t.row(&[
        &"bitmap first-fit scan",
        &scan_served,
        &format!("{scan_time:?}"),
        &format!("{}", scan_time.as_nanos() as u64 / MEASURE_OPS as u64),
    ]);
    r.claim(
        format!("the extent array and the bitmap scan serve all {MEASURE_OPS} requests"),
        array_served == MEASURE_OPS as u64 && scan_served == MEASURE_OPS as u64,
    );
    r.text.push_str(&t.render());
    r.text.push_str(&format!(
        "\nspeedup: {} on a churned {}-fragment disk ({} index hits, {} bitmap fallbacks,\n\
         {} stale refs dropped, {} rebuilds during the whole run).\n",
        speedup(scan_time.as_nanos() as f64, array_time.as_nanos() as f64),
        TOTAL,
        stats.index_hits,
        stats.bitmap_fallbacks,
        stats.stale_dropped,
        stats.rebuilds,
    ));
    r
}
