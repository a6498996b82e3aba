//! Folds each layer's public `stats()` into the driver's flat
//! [`Counts`], under `layer.counter` keys. Adding is cumulative, so a
//! workload with several servers folds them one after another.

use crate::driver::Counts;
use rhodos_agent::AgentStats;
use rhodos_cluster::ClusterStats;
use rhodos_file_service::{FileService, FileServiceStats};
use rhodos_net::NetStats;
use rhodos_simdisk::{DiskStats, SECTOR_SIZE};
use rhodos_txn::{FastPathStats, TransactionService, TxnStats};

/// Main-storage counters of one spindle.
pub fn fold_disk(c: &mut Counts, d: &DiskStats) {
    c.add("simdisk.read_refs", d.read_ops);
    c.add("simdisk.write_refs", d.write_ops);
    c.add("simdisk.sectors_read", d.sector_reads);
    c.add("simdisk.sectors_written", d.sector_writes);
    c.add("simdisk.seeks", d.seeks);
    c.add("simdisk.bytes_copied", d.bytes_copied);
}

/// Counters of one stable-storage mirror pair.
fn fold_stable(c: &mut Counts, d: &DiskStats) {
    c.add("simdisk.stable_refs", d.total_ops());
    c.add("simdisk.stable_sectors", d.sector_reads + d.sector_writes);
    c.add("simdisk.bytes_copied", d.bytes_copied);
}

pub fn fold_file_service(c: &mut Counts, fs: &FileService) {
    let s: FileServiceStats = fs.stats();
    for d in &s.disks {
        fold_disk(c, &d.disk);
        fold_stable(c, &d.stable);
        c.add("disk-service.track_hits", d.cache.fragment_hits);
        c.add("disk-service.track_misses", d.cache.fragment_misses);
        c.add("disk-service.merged", d.scheduler.merged_requests);
        c.add("disk-service.batches", d.scheduler.batches);
    }
    c.add("file-service.pool_hits", s.cache.hits);
    c.add("file-service.pool_misses", s.cache.misses);
    c.add("file-service.writebacks", s.cache.writebacks);
    c.add("file-service.bytes_copied", s.cache.bytes_copied);
    c.add("file-service.fit_loads", s.fit_loads);
    c.add(
        "file-service.lease_recalls",
        fs.lease_manager().stats().recalls,
    );
    // Every server of a workload shares one clock: a maximum, not a sum.
    c.max("sim.us", fs.clock().now_us());
}

pub fn fold_txn(c: &mut Counts, ts: &TransactionService) {
    let s: TxnStats = ts.stats();
    c.add("txn.committed", s.committed);
    c.add("txn.aborted", s.aborted);
    c.add("txn.would_blocks", s.would_blocks);
    c.add("txn.log_flushes", s.log_flushes);
    c.add("txn.records_flushed", s.records_flushed);
    c.add("txn.log_compactions", s.log_compactions);
    c.add("txn.wal_pages", s.wal_pages);
    c.add("txn.shadow_pages", s.shadow_pages);
    fold_file_service(c, ts.file_service());
}

pub fn fold_fast_path(c: &mut Counts, f: &FastPathStats) {
    c.add("txn.fast_hits", f.full_hits);
    c.add("txn.fast_fallbacks", f.fallbacks);
    c.add("txn.fast_conflicts", f.conflicts);
}

pub fn fold_net(c: &mut Counts, n: &NetStats) {
    c.add("net.sent", n.sent);
    c.add("net.transit_us", n.transit_us);
}

pub fn fold_agent(c: &mut Counts, a: &AgentStats) {
    c.add("agent.cache_hits", a.cache.hits);
    c.add("agent.cache_misses", a.cache.misses);
    c.add("agent.rpcs", a.rpcs_sent);
    c.add("agent.lease_served", a.rpcs_avoided_by_lease);
    c.add("agent.recalls", a.recalls);
    c.add("agent.renewals", a.lease_renewals);
}

pub fn fold_cluster(c: &mut Counts, s: &ClusterStats) {
    c.add("cluster.cross_commits", s.cross_commits);
    c.add("cluster.cross_aborts", s.cross_aborts);
    c.add("cluster.prepare_rpcs", s.prepare_rpcs);
    c.add("cluster.decision_forces", s.decision_forces);
}

/// Disk references over all spindles and stable mirrors.
pub fn disk_refs(c: &Counts) -> u64 {
    c.get("simdisk.read_refs") + c.get("simdisk.write_refs") + c.get("simdisk.stable_refs")
}

/// Bytes moved to or from any platter.
pub fn disk_bytes(c: &Counts) -> u64 {
    (c.get("simdisk.sectors_read")
        + c.get("simdisk.sectors_written")
        + c.get("simdisk.stable_sectors"))
        * SECTOR_SIZE as u64
}
