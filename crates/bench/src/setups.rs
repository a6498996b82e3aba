//! Standard service constructors shared by the experiments.

use rhodos_cluster::{Cluster, ClusterConfig};
use rhodos_disk_service::{DiskService, DiskServiceConfig};
use rhodos_file_service::{
    FileService, FileServiceConfig, LeaseParams, ParallelIo, Redundancy, StripePolicy, WritePolicy,
};
use rhodos_net::NetConfig;
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
use rhodos_txn::{TransactionService, TxnConfig};

/// A fresh disk server over a 1 GiB disk with stable storage.
pub fn disk_service(config: DiskServiceConfig) -> DiskService {
    DiskService::with_stable(
        DiskGeometry::large(),
        LatencyModel::default(),
        SimClock::new(),
        config,
    )
}

/// A single-disk file service with the given configuration.
pub fn file_service(config: FileServiceConfig) -> FileService {
    FileService::single_disk(
        DiskGeometry::large(),
        LatencyModel::default(),
        SimClock::new(),
        config,
    )
    .expect("format file service")
}

/// `n` disk servers on one clock with the track cache and read-ahead
/// disabled ("raw" disks).
fn raw_disks(n: usize) -> Vec<DiskService> {
    let clock = SimClock::new();
    (0..n)
        .map(|_| {
            DiskService::with_stable(
                DiskGeometry::large(),
                LatencyModel::default(),
                clock.clone(),
                DiskServiceConfig {
                    track_readahead: false,
                    cache_tracks: 0,
                },
            )
        })
        .collect()
}

/// A single-disk file service with the disk-level track cache and
/// read-ahead disabled — for experiments that count *demand* disk
/// references. The file-service block pool stays on: it is the mechanism
/// that lets one `get-block` of a contiguous run serve all its blocks
/// ("cached using one single invocation of get-block", §5).
pub fn file_service_raw() -> FileService {
    FileService::format(
        raw_disks(1),
        FileServiceConfig {
            cache_blocks: 512,
            ..Default::default()
        },
    )
    .expect("format raw file service")
}

/// A striped file service with raw (cache-less) disks and an explicit
/// I/O issue mode — lets experiments compare the per-spindle schedulers
/// against the pre-scheduler serial baseline ([`ParallelIo::Never`]).
pub fn striped_file_service_raw_mode(
    ndisks: usize,
    chunk_blocks: u64,
    parallel_io: ParallelIo,
) -> FileService {
    FileService::format(
        raw_disks(ndisks),
        FileServiceConfig {
            stripe: StripePolicy::RoundRobin { chunk_blocks },
            cache_blocks: 2048,
            parallel_io,
            ..Default::default()
        },
    )
    .expect("format raw striped file service")
}

/// A file service over `ndisks` raw (cache-less) disks carrying a k+m
/// erasure-coded parity tier (RAID-5 for m=1, RAID-6 for m=2), with an
/// explicit I/O issue mode — [`ParallelIo::Never`] is the naive
/// read-modify-write ablation of E21 (serial reads, serial writes, no
/// shared elevator pass).
pub fn parity_file_service_raw_mode(
    ndisks: usize,
    k: usize,
    m: usize,
    parallel_io: ParallelIo,
) -> FileService {
    FileService::format(
        raw_disks(ndisks),
        FileServiceConfig {
            redundancy: Redundancy::Parity { k, m },
            cache_blocks: 2048,
            parallel_io,
            ..Default::default()
        },
    )
    .expect("format parity file service")
}

/// The replicated store of the replication experiments (E17, E19): one
/// shard of `r` write-through members, each a medium disk with no
/// simulated latency, reached over lanes behaving as `net`. Returns the
/// cluster with one open file holding nothing yet, and its cluster id.
pub fn replica_set(r: usize, net: NetConfig) -> (Cluster, u64) {
    let mut c = Cluster::new(
        1,
        ClusterConfig {
            fs: FileServiceConfig {
                write_policy: WritePolicy::WriteThrough,
                ..FileServiceConfig::default()
            },
            data_net: net,
            replicas: r,
            ..ClusterConfig::default()
        },
    );
    c.set_max_attempts(64);
    let gid = c.create().expect("create");
    c.open(gid).expect("open");
    (c, gid)
}

/// A transaction service over a default single-disk file service.
pub fn transaction_service(cfg: TxnConfig) -> TransactionService {
    TransactionService::new(file_service(FileServiceConfig::default()), cfg)
        .expect("transaction service")
}

/// A transaction service over raw (cache-less) disks striped `ndisks`
/// wide — the group-commit rig of E18: log forces and intention applies
/// hit the per-spindle schedulers directly, so flush batching and
/// elevator coalescing show up in the disk counters.
pub fn striped_transaction_service(ndisks: usize, chunk_blocks: u64) -> TransactionService {
    TransactionService::new(
        striped_file_service_raw_mode(ndisks, chunk_blocks, ParallelIo::Auto),
        TxnConfig::default(),
    )
    .expect("striped transaction service")
}

/// A file service with every cache disabled (the "Bullet-server" baseline
/// of E8) — or with defaults when `caches` is true. Its lease term
/// outlives the run, as E22's does: E8 measures cache levels, and a
/// half-term renewal riding on simulated time would count round trips
/// that differ between the arms.
pub fn file_service_with_caches(caches: bool) -> FileService {
    let disks = if caches {
        vec![disk_service(DiskServiceConfig::default())]
    } else {
        raw_disks(1)
    };
    FileService::format(
        disks,
        FileServiceConfig {
            cache_blocks: if caches { 256 } else { 0 },
            write_policy: WritePolicy::DelayedWrite,
            lease: LeaseParams {
                term_us: 600_000_000,
            },
            ..Default::default()
        },
    )
    .expect("format")
}
