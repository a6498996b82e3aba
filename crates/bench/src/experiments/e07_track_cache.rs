//! E7 — track read-ahead: "this service retrieves only those
//! blocks/fragments from a disk track which are necessary ... then the
//! disk service caches the rest of the data from the same track ... to
//! satisfy any subsequent requests to read data from blocks/fragments
//! pertaining to the same track" (§4). Replays a track-local small-read
//! workload with read-ahead on and off.

use crate::table::{speedup, Table};
use crate::{Cell, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhodos_disk_service::{DiskService, DiskServiceConfig, Extent, StablePolicy, FRAGMENT_SIZE};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};

/// The claim, in a line.
pub const TITLE: &str = "Track read-ahead cache";

const TRACKS: u64 = 16;
const READS: usize = 2_000;

fn workload(svc: &mut DiskService, seed: u64) -> (u64, u64, f64, u64, u64) {
    let geom = svc.geometry();
    let spt = geom.sectors_per_track();
    // Fill the first TRACKS tracks with data.
    let extent = svc.allocate_contiguous(TRACKS * spt).unwrap();
    let data = vec![0x3Cu8; (TRACKS * spt) as usize * FRAGMENT_SIZE];
    svc.put(extent, &data, StablePolicy::None).unwrap();
    svc.recover().unwrap(); // cold cache
                            // Track-local access pattern: pick a track, read several fragments
                            // from it (the paper's motivating pattern).
    let mut rng = StdRng::seed_from_u64(seed);
    let clock = svc.clock();
    let t0 = clock.now_us();
    let before = svc.stats();
    let mut track = 0u64;
    for i in 0..READS {
        if i % 8 == 0 {
            track = rng.gen_range(0..TRACKS);
        }
        let frag = extent.start + track * spt + rng.gen_range(0..spt);
        let _ = svc.get(Extent::new(frag, 1)).unwrap();
    }
    let after = svc.stats();
    let refs = after.disk.read_ops - before.disk.read_ops;
    let dt = clock.now_us() - t0;
    // Copy traffic on the serving path: gather-assembly of fragments
    // that span allocations, by the platter or the cache, vs bytes handed
    // out as shared cache views.
    let copied = (after.disk.bytes_copied - before.disk.bytes_copied)
        + (after.cache.bytes_copied - before.cache.bytes_copied);
    let borrowed = after.cache.bytes_borrowed - before.cache.bytes_borrowed;
    (refs, dt, after.cache.hit_rate(), copied, borrowed)
}

/// Runs the experiment.
pub fn measure(_: Cell) -> Report {
    let mut r = Report::default();
    let mut t = Table::new(&[
        "configuration",
        "disk refs",
        "sim time (us)",
        "cache hit %",
        "KiB copied",
        "KiB borrowed",
    ]);
    let mut times = Vec::new();
    let mut refs_of = Vec::new();
    for (label, readahead, tracks) in [
        ("no cache (every read hits the disk)", false, 0usize),
        ("cache, no read-ahead", false, 32),
        ("cache + track read-ahead", true, 32),
    ] {
        let mut svc = DiskService::new(
            DiskGeometry::large(),
            LatencyModel::default(),
            SimClock::new(),
            DiskServiceConfig {
                track_readahead: readahead,
                cache_tracks: tracks,
            },
        );
        let (refs, dt, rate, copied, borrowed) = workload(&mut svc, 5);
        times.push(dt);
        refs_of.push(refs);
        t.row(&[
            &label,
            &refs,
            &dt,
            &format!("{rate:.1}"),
            &(copied / 1024),
            &(borrowed / 1024),
        ]);
    }
    r.claim(
        "track read-ahead at least halves the disk references of no cache",
        refs_of[2] < refs_of[0] / 2,
    );
    r.claim(
        "track read-ahead is faster than no cache",
        times[2] < times[0],
    );
    r.claim(
        "track read-ahead is faster than a demand-only cache",
        times[2] < times[1],
    );
    r.text.push_str(&t.render());
    r.text.push_str(&format!(
        "\ntrack read-ahead is {} faster than no cache and {} faster than a\n\
         demand-only cache on a track-local read pattern ({READS} reads, {TRACKS} tracks).\n",
        speedup(times[0] as f64, times[2] as f64),
        speedup(times[1] as f64, times[2] as f64),
    ));
    r
}
