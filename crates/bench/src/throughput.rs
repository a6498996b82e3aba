//! Throughput benchmarks of the block data path (sequential read, cached
//! re-read, striped read/write, scattered flush), shared between
//! `benches/hot_paths.rs` and the `bench_json` binary so both report the
//! same cases.
//!
//! Every case moves whole blocks through the public file-service API, so
//! the numbers track exactly the copies and disk references the zero-copy
//! `BlockBuf` pipeline and the per-spindle schedulers are meant to
//! eliminate. Each service is built *once* and moved into its bench
//! closure: the harness re-enters the closure for every sample, and
//! rebuilding multi-GiB simulated disks per sample both wastes time and
//! perturbs later cases through allocator churn.

use criterion::Criterion;
use rhodos_file_service::{FileService, FileServiceConfig, ServiceType, WritePolicy};
use rhodos_net::NetConfig;
use rhodos_replication::ReplicatedFiles;
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};

/// Bytes moved per measured operation, used to convert ns/op to MB/s.
pub const CASES: &[(&str, u64)] = &[
    ("throughput/seq_read_1m_cold", 1 << 20),
    ("throughput/seq_reread_1m_cached", 1 << 20),
    ("throughput/striped_read_4m", 4 << 20),
    ("throughput/striped_write_4m", 4 << 20),
    ("throughput/flush_1m_dirty", 1 << 20),
];

const BLOCK: u64 = rhodos_disk_service::BLOCK_SIZE as u64;

/// Registers the `throughput` group on `c`.
pub fn register(c: &mut Criterion) {
    let mut g = c.benchmark_group("throughput");

    // Cold sequential read: 1 MiB file read in one `read_into` request,
    // caches evicted before every pass, so each pass pays the full
    // disk-service path plus the copy into the caller's buffer — the same
    // API shape as the striped cases, for a fair per-MB comparison.
    g.bench_function("seq_read_1m_cold", {
        let mut fs = crate::setups::file_service(FileServiceConfig::default());
        let fid = fs.create(ServiceType::Basic).unwrap();
        fs.open(fid).unwrap();
        fs.write(fid, 0, vec![0xABu8; 1 << 20]).unwrap();
        fs.flush_all().unwrap();
        let mut out = vec![0u8; 1 << 20];
        move |b| {
            b.iter(|| {
                fs.evict_caches().unwrap();
                let n = fs.read_into(fid, 0, &mut out).unwrap();
                std::hint::black_box((n, &out));
            })
        }
    });

    // Cached sequential re-read: same 1 MiB, warm block pool. This is the
    // acceptance case for the zero-copy pipeline: every block is a cache
    // hit, so each op should be a handle clone rather than an 8 KiB copy.
    g.bench_function("seq_reread_1m_cached", {
        let mut fs = crate::setups::file_service(FileServiceConfig {
            cache_blocks: 256,
            ..Default::default()
        });
        let fid = fs.create(ServiceType::Basic).unwrap();
        fs.open(fid).unwrap();
        fs.write(fid, 0, vec![0xCDu8; 1 << 20]).unwrap();
        // Warm the pool.
        for idx in 0..(1 << 20) / BLOCK {
            fs.read_block(fid, idx).unwrap();
        }
        move |b| {
            b.iter(|| {
                for idx in 0..(1 << 20) / BLOCK {
                    std::hint::black_box(fs.read_block(fid, idx).unwrap());
                }
            })
        }
    });

    // Striped read: 4 MiB over 4 disks in one request window, block pool
    // evicted per pass. The window's misses reach all four per-spindle
    // schedulers as one batch each, and each spindle merges its chunks
    // into a handful of disk references.
    g.bench_function("striped_read_4m", {
        let mut fs = crate::setups::striped_file_service_raw(4, 16);
        let fid = fs.create(ServiceType::Basic).unwrap();
        fs.open(fid).unwrap();
        fs.write(fid, 0, vec![0xEFu8; 4 << 20]).unwrap();
        fs.flush_all().unwrap();
        let mut out = vec![0u8; 4 << 20];
        move |b| {
            b.iter(|| {
                fs.evict_caches().unwrap();
                let n = fs.read_into(fid, 0, &mut out).unwrap();
                std::hint::black_box((n, &out));
            })
        }
    });

    // Striped write: 4 MiB written in one call and flushed — delayed
    // writes coalesce into per-disk, address-sorted batches that the
    // schedulers push out.
    g.bench_function("striped_write_4m", {
        let mut fs = crate::setups::striped_file_service_raw(4, 16);
        let fid = fs.create(ServiceType::Basic).unwrap();
        fs.open(fid).unwrap();
        let data = vec![0x5Au8; 4 << 20];
        // First write allocates; measured passes overwrite in place.
        fs.write(fid, 0, data.clone()).unwrap();
        fs.flush_all().unwrap();
        move |b| {
            b.iter(|| {
                fs.write(fid, 0, data.clone()).unwrap();
                fs.flush_all().unwrap();
            })
        }
    });

    // Scattered flush: 1 MiB of dirty blocks spread over 16 files on
    // 4 disks. The old serial write-back grouped only same-file
    // consecutive blocks; the schedulers merge across files too.
    g.bench_function("flush_1m_dirty", {
        let mut fs = crate::setups::striped_file_service_raw(4, 2);
        let nfiles = 16u64;
        let per_file = (1 << 20) / nfiles; // 64 KiB = 8 blocks each
        let fids: Vec<_> = (0..nfiles)
            .map(|_| {
                let fid = fs.create(ServiceType::Basic).unwrap();
                fs.open(fid).unwrap();
                fs.write(fid, 0, vec![0x33u8; per_file as usize]).unwrap();
                fs.flush_all().unwrap();
                fid
            })
            .collect();
        let chunk = vec![0x44u8; per_file as usize];
        move |b| {
            b.iter(|| {
                for fid in &fids {
                    fs.write(*fid, 0, chunk.clone()).unwrap();
                }
                fs.flush_all().unwrap();
            })
        }
    });

    g.finish();
}

/// Replication and RPC-replay counters from a fixed deterministic
/// scenario — 3 write-through replicas over lossy channels (10% loss,
/// 10% duplication, seed 17), 200 mixed operations, one mid-run torn
/// write on replica 1 followed by a resync. Deterministic by
/// construction (simulated clock, seeded channels), so the emitted
/// numbers are a diffable baseline: a behaviour change in failover,
/// backoff, or replay pruning moves them.
pub fn replication_stat_records() -> Vec<(String, u64)> {
    let clock = SimClock::new();
    let replicas = (0..3)
        .map(|_| {
            FileService::single_disk(
                DiskGeometry::medium(),
                LatencyModel::instant(),
                clock.clone(),
                FileServiceConfig {
                    write_policy: WritePolicy::WriteThrough,
                    ..FileServiceConfig::default()
                },
            )
            .expect("format replica")
        })
        .collect();
    let mut rf = ReplicatedFiles::over_network(replicas, NetConfig::lossy(0.1, 0.1, 17));
    rf.set_max_attempts(64);
    let fid = rf.create(ServiceType::Basic).expect("create");
    rf.open(fid).expect("open");
    for i in 0..200u64 {
        if i == 100 {
            rf.replica_mut(1)
                .disk_mut(0)
                .disk_mut()
                .faults_mut()
                .crash_after_sector_writes(0);
        }
        match i % 4 {
            0..=2 => rf
                .write(fid, (i % 48) * 8, &i.to_le_bytes())
                .expect("write"),
            _ => {
                rf.read(fid, 0, 8).expect("read");
            }
        }
        if rf.is_failed(1) {
            rf.resync(1).expect("resync");
        }
    }
    let rep = rf.stats().clone();
    let rpc = rf.rpc_stats();
    let mut rows = vec![
        ("replication.failovers".to_string(), rep.failovers),
        ("replication.resyncs".to_string(), rep.resyncs),
        (
            "replication.resync_sectors_copied".to_string(),
            rep.resync_sectors_copied,
        ),
        ("replication.writes_skipped".to_string(), rep.writes_skipped),
        ("rpc.calls".to_string(), rpc.calls),
        ("rpc.retries".to_string(), rpc.retries),
        ("rpc.backoff_us".to_string(), rpc.backoff_us),
        ("rpc.executed".to_string(), rpc.executed),
        ("rpc.replayed".to_string(), rpc.replayed),
        ("rpc.peak_replay_entries".to_string(), rpc.peak_entries),
        ("rpc.unreachable".to_string(), rpc.unreachable),
        ("rpc.net_sent".to_string(), rpc.net_sent),
        ("rpc.net_lost".to_string(), rpc.net_lost),
        ("rpc.net_duplicated".to_string(), rpc.net_duplicated),
    ];
    for (i, reads) in rep.reads_per_replica.iter().enumerate() {
        rows.push((format!("replication.reads_replica_{i}"), *reads));
    }
    rows
}
