//! Striped read-ahead: a window of a striped file that sends any spindle
//! to the platter reads ahead on every spindle it touches, inside the
//! window's makespan, so the spindles cross their track boundaries
//! together instead of one request each.
//!
//! The volume is four round-robin disks (two blocks to a chunk, so a
//! 64 KiB window is two blocks on every spindle) with the default
//! latency model and track caches. Each spindle's share of a file starts
//! at a different offset in its track: a few fragments are allocated on
//! disks 1–3 before the file is created.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhodos_disk_service::{Extent, BLOCK_SIZE, FRAGS_PER_BLOCK};
use rhodos_file_service::{
    BlockDescriptor, FileId, FileService, FileServiceConfig, Redundancy, ServiceType, StripePolicy,
};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};

const DISKS: usize = 4;
/// Blocks in one 64 KiB window.
const WINDOW: u64 = 8;
/// Fragments allocated on disks 1–3 before the file is created.
const SKEW: [u64; 3] = [5, 29, 45];

fn geometry() -> DiskGeometry {
    DiskGeometry::medium()
}

fn striped(pool: usize) -> FileServiceConfig {
    FileServiceConfig {
        stripe: StripePolicy::RoundRobin { chunk_blocks: 2 },
        cache_blocks: pool,
        ..FileServiceConfig::default()
    }
}

/// A service over `disks` skewed disks.
fn service(disks: usize, config: FileServiceConfig) -> FileService {
    let mut fs = FileService::striped(
        disks,
        geometry(),
        LatencyModel::default(),
        SimClock::new(),
        config,
    )
    .expect("format");
    for (d, n) in (1..disks).zip(SKEW) {
        fs.disk_mut(d).allocate_contiguous(n).expect("skew");
    }
    fs
}

fn pattern(blocks: u64, salt: u8) -> Vec<u8> {
    (0..blocks as usize * BLOCK_SIZE)
        .map(|i| (i / 11 % 251) as u8 ^ salt)
        .collect()
}

/// Creates a file of `blocks` blocks, puts it on the platters and leaves
/// every cache cold. Returns it with its bytes and block descriptors.
fn cold_file(
    fs: &mut FileService,
    blocks: u64,
    salt: u8,
) -> (FileId, Vec<u8>, Vec<BlockDescriptor>) {
    let fid = fs.create(ServiceType::Basic).unwrap();
    fs.open(fid).unwrap();
    let data = pattern(blocks, salt);
    fs.write(fid, 0, data.clone()).unwrap();
    fs.flush_all().unwrap();
    let descs = fs.block_descriptors(fid).unwrap();
    fs.evict_caches().unwrap();
    (fid, data, descs)
}

fn read_ops(fs: &FileService) -> u64 {
    fs.stats().disks.iter().map(|d| d.disk.read_ops).sum()
}

fn bytes(data: &[u8], first: u64, blocks: u64) -> &[u8] {
    &data[first as usize * BLOCK_SIZE..(first + blocks) as usize * BLOCK_SIZE]
}

/// Reads `blocks` blocks of `fid` from block `first` as one window and
/// returns how many disk references it took.
fn window(fs: &mut FileService, fid: FileId, data: &[u8], first: u64, blocks: u64) -> u64 {
    let before = read_ops(fs);
    let at = first * BLOCK_SIZE as u64;
    let got = fs.read(fid, at, blocks as usize * BLOCK_SIZE).unwrap();
    assert_eq!(got, bytes(data, first, blocks), "window {first}+{blocks}");
    read_ops(fs) - before
}

/// Each disk's share of `descs`, as one fragment extent (the layout here
/// keeps every share contiguous), with the disk it is on.
fn shares(descs: &[BlockDescriptor]) -> Vec<(u16, Extent)> {
    (0..DISKS as u16)
        .filter_map(|d| {
            let mine = || descs.iter().filter(move |b| b.disk == d);
            let first = mine().map(|b| b.addr).min()?;
            let share = Extent::new(first, mine().count() as u64 * FRAGS_PER_BLOCK);
            assert!(mine().all(|b| b.block_extent().end() <= share.end()));
            Some((d, share))
        })
        .collect()
}

fn track_of(frag: u64) -> u64 {
    geometry().track_of(frag)
}

fn track_start(track: u64) -> u64 {
    geometry().track_start(track)
}

/// A 64 KiB sequential scan reads back the file's bytes, and a window
/// goes to the platter at most once per track a spindle crosses, plus
/// the cold first window: a spindle served from its track cache in a
/// window that sent another one to the platter fetches its next track
/// then, in the same makespan, instead of paying for it in a request of
/// its own (and again in the next one, for the track its run started
/// on).
#[test]
fn a_sequential_scan_crosses_its_tracks_together() {
    let mut fs = service(DISKS, striped(128));
    let blocks = 256;
    let (fid, data, descs) = cold_file(&mut fs, blocks, 0);
    let shares = shares(&descs);
    let offsets: Vec<u64> = shares
        .iter()
        .map(|(_, s)| geometry().sector_in_track(s.start))
        .collect();
    let mut distinct = offsets.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), DISKS, "shares start at {offsets:?}");
    let crossings: u64 = shares
        .iter()
        .map(|(_, s)| track_of(s.end() - 1) - track_of(s.start))
        .sum();
    let tracks = shares
        .iter()
        .map(|(_, s)| track_of(s.end() - 1) - track_of(s.start) + 1)
        .max()
        .unwrap();

    let clock = fs.clock();
    let start = clock.now_us();
    let mut platter_windows = 0;
    for first in (0..blocks).step_by(WINDOW as usize) {
        if window(&mut fs, fid, &data, first, WINDOW) > 0 {
            platter_windows += 1;
        }
    }
    let scan_us = clock.now_us() - start;
    assert!(
        platter_windows <= crossings + 1,
        "{platter_windows} windows went to the platter for {crossings} crossings"
    );
    // The spindles read in parallel, so the scan costs what one share
    // costs read track by track: each of its `tracks` tracks (and the
    // cold window's FIT) in at most two references — its demand part and
    // the rest of the track — each at most a full-stroke seek, a
    // rotation and a whole track's transfer.
    let m = LatencyModel::default();
    let g = geometry();
    let reference = m.seek_base_us
        + m.seek_per_track_us * g.tracks()
        + m.rotational_us
        + m.transfer_per_sector_us * g.sectors_per_track();
    let bound = (tracks + 1) * 2 * reference;
    assert!(scan_us <= bound, "scan took {scan_us} us, bound {bound} us");
}

/// Random windows over cold data send every spindle to the platter. Each
/// spindle then reads only tracks its run touched: the demand run, the
/// read-ahead of the track it starts on (as a single-disk read does),
/// and, for a run that crossed into a new track, the rest of that track.
/// The track after is never fetched.
#[test]
fn cold_windows_read_ahead_no_track_past_their_runs() {
    let mut fs = service(DISKS, striped(0));
    let blocks = 256;
    let (fid, data, descs) = cold_file(&mut fs, blocks, 1);
    fs.block_descriptors(fid).unwrap(); // the FIT is resident from here on
    let mut rng = StdRng::seed_from_u64(0x5712);
    let mut crossed = 0;
    for _ in 0..64 {
        // Every head parked past the file, so that each share is one
        // elevator run; then nothing cached.
        let last = geometry().total_sectors() - 1;
        for d in 0..DISKS {
            fs.disk_mut(d).get(Extent::new(last, 1)).unwrap();
            fs.disk_mut(d).drop_caches();
        }
        let first = rng.gen_range(0..blocks - 1);
        let n = rng.gen_range(2..=16).min(blocks - first);
        let shares = shares(&descs[first as usize..(first + n) as usize]);
        let mut expected = 0;
        for (_, s) in &shares {
            let (t0, t1) = (track_of(s.start), track_of(s.end() - 1));
            let start_rest = s.start > track_start(t0) || s.end() < track_start(t0 + 1);
            expected += 1 + u64::from(start_rest);
            if t1 != t0 && shares.len() >= 2 && s.end() < track_start(t1 + 1) {
                expected += 1;
                crossed += 1;
            }
        }
        assert_eq!(
            window(&mut fs, fid, &data, first, n),
            expected,
            "window {first}+{n} over {shares:?}"
        );
    }
    assert!(crossed > 0, "no window crossed a track");
}

/// A single-disk scan and a RAID-5 scan make exactly the references, in
/// exactly the virtual time, they made before striped read-ahead: a
/// single-spindle window reads ahead only the track each run starts on,
/// and the parity tier never reads ahead across its spindles.
#[test]
fn single_disk_and_parity_scans_are_unchanged() {
    let raid5 = FileServiceConfig {
        redundancy: Redundancy::Parity { k: 3, m: 1 },
        ..FileServiceConfig::default()
    };
    for (disks, config, refs, us) in [
        (1, FileServiceConfig::default(), 29, 1_363_925),
        (DISKS, raid5, 42, 1_683_620),
    ] {
        let mut fs = service(disks, config);
        let blocks = 192;
        let (fid, data, _) = cold_file(&mut fs, blocks, 2);
        let clock = fs.clock();
        let start = clock.now_us();
        let scan: u64 = (0..blocks)
            .step_by(WINDOW as usize)
            .map(|first| window(&mut fs, fid, &data, first, WINDOW))
            .sum();
        assert_eq!((scan, clock.now_us() - start), (refs, us), "{disks} disks");
    }
}

/// A media fault on a prefetched track costs the read-ahead, never the
/// window that issued it, and every later read that avoids the bad
/// sector succeeds.
#[test]
fn a_fault_on_a_prefetched_track_fails_no_read() {
    let mut fs = service(DISKS, striped(128));
    let blocks = 256;
    let (fid, data, descs) = cold_file(&mut fs, blocks, 3);
    let (next, next_data, next_descs) = cold_file(&mut fs, 64, 4);
    // Past the end of each spindle's share: the rest of its last track
    // and the first sector of the track after.
    let mut bad = Vec::new();
    for (d, s) in shares(&descs) {
        for sector in [s.end(), track_start(track_of(s.end() - 1) + 1)] {
            fs.disk_mut(d as usize)
                .disk_mut()
                .corrupt_sector(sector)
                .unwrap();
            bad.push((d, sector));
        }
    }
    let errors =
        |fs: &FileService| -> u64 { fs.stats().disks.iter().map(|d| d.disk.media_errors).sum() };
    for pass in 0..2 {
        for first in (0..blocks).step_by(WINDOW as usize) {
            window(&mut fs, fid, &data, first, WINDOW);
        }
        assert!(errors(&fs) > 0, "pass {pass}: no read-ahead met a fault");
        fs.evict_caches().unwrap();
    }
    // The next file's windows that hold no bad sector read back whole.
    let holds_bad = |b: &BlockDescriptor| {
        bad.iter()
            .any(|&(d, s)| b.disk == d && b.block_extent().start <= s && s < b.block_extent().end())
    };
    let mut clean = 0;
    for first in (0..64).step_by(WINDOW as usize) {
        let range = first as usize..(first + WINDOW) as usize;
        if !next_descs[range].iter().any(holds_bad) {
            window(&mut fs, next, &next_data, first, WINDOW);
            clean += 1;
        }
    }
    assert!(clean > 0, "every window of the next file held a bad sector");
}

/// A read-ahead may cache the platter's older copy of a block that is
/// dirty in the pool. The file service never serves it: reads return
/// the pool's bytes, and the write-back leaves the track cache holding
/// the new ones.
#[test]
fn a_prefetched_stale_copy_of_a_dirty_block_is_never_served() {
    let mut fs = service(DISKS, striped(128));
    let blocks = 64;
    let (fid, mut data, descs) = cold_file(&mut fs, blocks, 5);
    let old = data.clone();
    let dirty: Vec<u64> = (0..blocks).filter(|i| i % 3 == 2).collect();
    for &i in &dirty {
        let at = i as usize * BLOCK_SIZE;
        let new = vec![0xD0 ^ i as u8; BLOCK_SIZE];
        data[at..at + BLOCK_SIZE].copy_from_slice(&new);
        fs.write(fid, at as u64, new).unwrap();
    }
    for first in (0..blocks).step_by(WINDOW as usize) {
        window(&mut fs, fid, &data, first, WINDOW);
    }
    // Ask each dirty block's disk for it: the track cache holds the
    // platter's older copy of some of them.
    let probe = |fs: &mut FileService, i: u64| {
        let b = descs[i as usize];
        let before = read_ops(fs);
        let got = fs.disk_mut(b.disk as usize).get(b.block_extent()).unwrap();
        (got, read_ops(fs) == before)
    };
    let mut stale = 0;
    for &i in &dirty {
        let (got, cached) = probe(&mut fs, i);
        assert_eq!(
            got,
            bytes(&old, i, 1),
            "block {i} reached the platter early"
        );
        stale += u64::from(cached);
    }
    assert!(stale > 0, "no dirty block's old copy was prefetched");
    fs.flush_all().unwrap();
    for &i in &dirty {
        let (got, cached) = probe(&mut fs, i);
        assert!(cached, "block {i}'s track left the cache");
        assert_eq!(got, bytes(&data, i, 1), "block {i}");
    }
    for first in (0..blocks).step_by(WINDOW as usize) {
        window(&mut fs, fid, &data, first, WINDOW);
    }
}
