//! Write-behind on the read path: a read that evicts a dirty block of a
//! file writes, in the same batch, that file's other dirty blocks the
//! pool would write back before it next evicts a clean block — those last
//! touched below the least recently used clean block and before the read
//! began. They stay resident, clean, so the reads after it evict clean
//! blocks and write nothing. Write paths write exactly their evictions.
//!
//! The volume is four round-robin disks, two blocks to a chunk.

use rhodos_disk_service::BLOCK_SIZE;
use rhodos_file_service::{
    FileId, FileService, FileServiceConfig, ServiceType, ShardedBlockCache, StripePolicy,
};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
use std::sync::Arc;

const DISKS: usize = 4;
const BS: u64 = BLOCK_SIZE as u64;

fn service(pool: usize, shards: usize, model: LatencyModel) -> FileService {
    FileService::striped(
        DISKS,
        DiskGeometry::medium(),
        model,
        SimClock::new(),
        FileServiceConfig {
            stripe: StripePolicy::RoundRobin { chunk_blocks: 2 },
            cache_blocks: pool,
            cache_shards: shards,
            ..FileServiceConfig::default()
        },
    )
    .expect("format")
}

fn pattern(blocks: u64, salt: u8) -> Vec<u8> {
    (0..blocks as usize * BLOCK_SIZE)
        .map(|i| (i / 11 % 251) as u8 ^ salt)
        .collect()
}

fn bytes(data: &[u8], first: u64, blocks: u64) -> &[u8] {
    &data[(first * BS) as usize..((first + blocks) * BS) as usize]
}

/// Creates and opens a file and writes `data` to it, leaving it dirty in
/// the pool.
fn file(fs: &mut FileService, data: &[u8]) -> FileId {
    let fid = fs.create(ServiceType::Basic).unwrap();
    fs.open(fid).unwrap();
    fs.write(fid, 0, data.to_vec()).unwrap();
    fid
}

fn pool(fs: &FileService) -> Arc<ShardedBlockCache> {
    fs.cache_handle().expect("a block pool")
}

fn writebacks(fs: &FileService) -> u64 {
    fs.stats().cache.writebacks
}

fn refs(fs: &FileService) -> (u64, u64) {
    let disks = fs.stats().disks;
    let sum = |f: fn(&rhodos_simdisk::DiskStats) -> u64| disks.iter().map(|d| f(&d.disk)).sum();
    (sum(|d| d.read_ops), sum(|d| d.write_ops))
}

/// The keys of `fid`'s dirty blocks, taken out of the pool.
fn dirty_of(fs: &FileService, fid: FileId) -> Vec<u64> {
    let taken = pool(fs).take_dirty_for(fid);
    taken.into_iter().map(|((_, idx), _)| idx).collect()
}

/// The stream pattern, as `agent-stream` runs it: a file twice the
/// pool's size is written, and then a cold file is read window by
/// window. The first window evicts eight of the written file's dirty
/// blocks and writes them with the file's other 24 in one batch; the
/// next seven windows evict clean blocks and write nothing.
///
/// The scan costs 11 read and 4 write references — one batch, one
/// reference per spindle — and 251 120 µs of virtual time (244 120 while
/// every directory write was the whole region, which left disk 0's head
/// elsewhere). Before write-behind, each of the first four windows wrote
/// its own eight evictions: 11 read and 16 write references, 271 025 µs.
#[test]
fn a_read_writes_its_evictions_file_behind_them_and_the_next_reads_write_nothing() {
    let mut fs = service(32, 8, LatencyModel::default());
    let cold = pattern(64, 0x5A);
    let b = file(&mut fs, &cold);
    fs.evict_caches().unwrap();
    let hot = pattern(64, 0xA5);
    let a = file(&mut fs, &hot);
    assert_eq!(pool(&fs).dirty_blocks(), 32, "the file's second half");
    let clock = fs.clock();
    let (before, t0) = (refs(&fs), clock.now_us());
    for w in 0..8 {
        let (wb, (_, writes)) = (writebacks(&fs), refs(&fs));
        let got = fs.read(b, w * 8 * BS, 8 * BLOCK_SIZE).unwrap();
        assert!(got == bytes(&cold, w * 8, 8), "window {w}");
        let (wb, writes) = (writebacks(&fs) - wb, refs(&fs).1 - writes);
        if w == 0 {
            assert_eq!(wb, 32, "eight evictions and 24 blocks behind them");
            assert_eq!(pool(&fs).dirty_blocks(), 0);
        } else {
            assert_eq!((wb, writes), (0, 0), "window {w} writes nothing");
        }
    }
    let after = refs(&fs);
    let spent = (after.0 - before.0, after.1 - before.1, clock.now_us() - t0);
    assert_eq!(spent, (11, 4, 251_120), "(reads, writes, µs) of the scan");
    fs.evict_caches().unwrap();
    assert!(fs.read(a, 0, hot.len()).unwrap() == hot, "on the platter");
}

/// The set's two boundaries, on one shard and on eight: a dirty block
/// touched after the least recently used clean block stays dirty, and
/// so does a dirty block the read itself hit.
#[test]
fn a_block_newer_than_the_lru_clean_block_or_hit_by_the_read_stays_dirty() {
    for shards in [1, 8] {
        let mut fs = service(16, shards, LatencyModel::instant());
        let c = file(&mut fs, &pattern(1, 1));
        let b = file(&mut fs, &pattern(8, 2));
        fs.evict_caches().unwrap();
        let a = file(&mut fs, &pattern(8, 3));
        fs.read(c, 0, BLOCK_SIZE).unwrap();
        fs.write(a, 7 * BS, pattern(1, 4)).unwrap();
        let wb = writebacks(&fs);
        // Evicts block 0 of `a`; 1–6 are older than `c`'s clean block.
        fs.read(b, 0, 8 * BLOCK_SIZE).unwrap();
        assert_eq!(writebacks(&fs) - wb, 7, "{shards} shards");
        assert_eq!(dirty_of(&fs, a), [7], "{shards} shards");

        let mut fs = service(8, shards, LatencyModel::instant());
        let data = pattern(10, 5);
        let a = file(&mut fs, &data);
        fs.evict_caches().unwrap();
        fs.write(a, 0, pattern(8, 6)).unwrap();
        let wb = writebacks(&fs);
        // Hits 6 and 7, fetches 8 and 9, and so evicts 0 and 1.
        let got = fs.read(a, 6 * BS, 4 * BLOCK_SIZE).unwrap();
        assert!(got[2 * BLOCK_SIZE..] == *bytes(&data, 8, 2));
        assert_eq!(writebacks(&fs) - wb, 6, "{shards} shards");
        assert_eq!(dirty_of(&fs, a), [6, 7], "{shards} shards");
    }
}

/// Write paths write exactly their evictions: a delayed write, a
/// write-through batch and a read-modify-write fetch each evict one dirty
/// block of a file whose seven others are the oldest in the pool, and
/// write that one.
#[test]
fn a_write_writes_exactly_its_evictions() {
    type Write = fn(&mut FileService, FileId);
    let writes: [(&str, Write); 3] = [
        ("write_vectored", |fs, d| {
            fs.write(d, BS, pattern(1, 9)).unwrap()
        }),
        ("write_blocks", |fs, d| {
            fs.write_blocks(vec![(d, 0, pattern(1, 9).into())]).unwrap()
        }),
        ("read-modify-write", |fs, d| {
            fs.write(d, 10, vec![9; 100]).unwrap()
        }),
    ];
    for (name, write) in writes {
        let mut fs = service(8, 8, LatencyModel::instant());
        let d = file(&mut fs, &pattern(1, 7));
        fs.evict_caches().unwrap();
        let a = file(&mut fs, &pattern(8, 8));
        let wb = writebacks(&fs);
        write(&mut fs, d);
        assert_eq!(writebacks(&fs) - wb, 1, "{name}");
        assert_eq!(dirty_of(&fs, a), (1..8).collect::<Vec<_>>(), "{name}");
    }
}

/// A file whose eight blocks are dirty in an eight-block pool, over
/// their old bytes on the platter, and a cold two-block file. Reading
/// the cold file evicts blocks 0 and 1 of the first, and so writes blocks
/// 2–7 behind them. Returns the service, both files and the new bytes.
fn eight_dirty_blocks() -> (FileService, FileId, FileId, Vec<u8>) {
    let mut fs = service(8, 8, LatencyModel::instant());
    let b = file(&mut fs, &pattern(2, 0x10));
    let a = file(&mut fs, &pattern(8, 0x11));
    fs.evict_caches().unwrap();
    let new = pattern(8, 0x12);
    fs.write(a, 0, new.clone()).unwrap();
    (fs, a, b, new)
}

/// A rewrite after write-behind: the block is dirty again, a flush
/// writes the newest version, and a crash that drops the pool leaves the
/// version written behind.
#[test]
fn a_block_rewritten_after_write_behind_is_dirty_again() {
    let newest = pattern(1, 0x13);
    for crash in [false, true] {
        let (mut fs, a, b, mut want) = eight_dirty_blocks();
        fs.read(b, 0, 2 * BLOCK_SIZE).unwrap();
        assert_eq!(pool(&fs).dirty_blocks(), 0);
        fs.write(a, 5 * BS, newest.clone()).unwrap();
        assert_eq!(pool(&fs).dirty_blocks(), 1);
        if crash {
            fs.simulate_crash();
            fs.recover().unwrap();
            fs.open(a).unwrap();
        } else {
            fs.flush_all().unwrap();
            fs.evict_caches().unwrap();
            want[5 * BLOCK_SIZE..6 * BLOCK_SIZE].copy_from_slice(&newest);
        }
        assert!(fs.read(a, 0, want.len()).unwrap() == want, "crash {crash}");
    }
}

/// A failed write-behind loses nothing: a spindle that holds blocks
/// written behind crashes at its first sector write. The read fails, as
/// it does when an eviction's write-back fails; the blocks written behind
/// are dirty again; once the disk is repaired, a flush puts the newest
/// bytes on the platter.
#[test]
fn a_failed_write_behind_leaves_its_blocks_dirty() {
    let (mut fs, a, b, new) = eight_dirty_blocks();
    let homes: Vec<usize> = (fs.block_descriptors(a).unwrap().iter())
        .map(|d| usize::from(d.disk))
        .collect();
    let crashed = homes[7];
    assert!(!homes[..2].contains(&crashed), "evictions on {homes:?}");
    let faults = fs.disk_mut(crashed).disk_mut().faults_mut();
    faults.crash_after_sector_writes(0);
    let wb = writebacks(&fs);
    assert!(fs.read(b, 0, 2 * BLOCK_SIZE).is_err(), "the read fails");
    assert_eq!(writebacks(&fs) - wb, 8);
    assert_eq!(pool(&fs).dirty_blocks(), 6, "blocks 2-7 are dirty again");
    fs.disk_mut(crashed).disk_mut().repair();
    fs.flush_all().unwrap();
    assert_eq!(writebacks(&fs) - wb, 14);
    fs.evict_caches().unwrap();
    assert!(fs.read(a, 0, new.len()).unwrap() == new);
}
