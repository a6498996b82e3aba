//! E19 — self-healing storage: per-sector checksums catch silent
//! corruption, the background scrubber finds latent faults *before* a
//! client does, repairs them from the nearest redundant copy (stable
//! mirror, block pool, or a peer replica) and remaps bad sectors to
//! spares, and `fsck_repair` reconciles allocation-metadata drift.
//!
//! Three exhibits:
//!
//! 1. a latent-fault sweep, scrub-off vs scrub-on: without scrubbing a
//!    bad sector sits undetected until a restart evicts the cached copy
//!    and a client read trips over it — by then the redundant copy is
//!    gone and the block is lost. With scrubbing the fault is found and
//!    repaired while the block pool still holds the data;
//! 2. the repair-source ladder: metadata heals from its stable mirror,
//!    resident data from the block pool, uncached data from a peer
//!    replica via the cluster scrub — and a fault with *no* surviving
//!    copy is reported as unrecoverable, never hidden;
//! 3. `fsck_repair` detecting and fixing bitmap/extent-map disagreement
//!    (leaked and double-allocated extents).

use crate::setups::replica_set;
use crate::table::Table;
use rhodos_cluster::Cluster;
use rhodos_file_service::{FileId, FileService, FileServiceConfig, ServiceType};
use rhodos_net::NetConfig;
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};

const BLOCK: u64 = rhodos_disk_service::BLOCK_SIZE as u64;
const NBLOCKS: u64 = 8;
const FILL: u8 = 0xA7;

/// A single-disk service holding one flushed 8-block file.
fn populated() -> (FileService, FileId) {
    let mut f = FileService::single_disk(
        DiskGeometry::medium(),
        LatencyModel::instant(),
        SimClock::new(),
        FileServiceConfig::default(),
    )
    .expect("format");
    let fid = f.create(ServiceType::Basic).unwrap();
    f.open(fid).unwrap();
    f.write(fid, 0, vec![FILL; (NBLOCKS * BLOCK) as usize])
        .unwrap();
    f.flush_all().unwrap();
    (f, fid)
}

/// A one-shard set of two write-through members (as in E17) holding one
/// flushed 8-block file, and the file's id on the members.
fn cluster() -> (Cluster, FileId) {
    let (mut c, gid) = replica_set(2, NetConfig::in_process());
    c.write(gid, 0, &vec![FILL; (NBLOCKS * BLOCK) as usize])
        .unwrap();
    for i in 0..c.server_count() {
        c.with_server(i, |fs| fs.flush_all().unwrap());
    }
    let fid = c.placement_of(gid).unwrap().1;
    (c, fid)
}

/// Silently rots block 1 of `fid` on member `i` and drops its caches, so
/// only a peer still holds the bytes.
fn rot_uncached(c: &Cluster, i: usize, fid: FileId) {
    c.with_server(i, |fs| {
        let addr = fs.block_descriptors(fid).unwrap()[1].addr;
        fs.disk_mut(0)
            .disk_mut()
            .silently_corrupt_sector(addr)
            .unwrap();
        fs.evict_caches().unwrap();
    });
}

/// Reads every block once; returns (clean reads, Some(faulted block)).
fn read_all(f: &mut FileService, fid: FileId) -> (u64, Option<u64>) {
    let mut clean = 0;
    for b in 0..NBLOCKS {
        match f.read(fid, b * BLOCK, 16) {
            Ok(d) if d == vec![FILL; 16] => clean += 1,
            _ => return (clean, Some(b)),
        }
    }
    (clean, None)
}

/// Latent bad sector in block 1 with the block pool still resident.
/// With `scrub` the fault is repaired (and the sector remapped) before
/// the redundant copy is lost; without it the restart evicts the only
/// good copy and a client read finds the hole.
fn latent_fault_case(scrub: bool) -> Vec<String> {
    let (mut f, fid) = populated();
    let addr = f.block_descriptors(fid).unwrap()[1].addr;
    f.disk_mut(0).disk_mut().corrupt_sector(addr).unwrap();

    // The fault is latent: every client read is served from the block
    // pool, nothing touches the bad platter sector.
    let (clean_before, hit_before) = read_all(&mut f, fid);
    assert!(hit_before.is_none());

    let (found, repaired) = if scrub {
        let r = f.scrub(None).unwrap();
        (r.stats.faults_found, r.stats.faults_repaired)
    } else {
        (0, 0)
    };

    // Restart: caches gone — the platter is all that is left.
    f.evict_caches().unwrap();
    let (clean_after, hit) = read_all(&mut f, fid);
    let detected_by = match (scrub, hit) {
        (true, None) => "background scrub pass".to_string(),
        (_, Some(_)) => "client read error after restart".to_string(),
        (false, None) => "never".to_string(),
    };
    vec![
        if scrub { "scrub on" } else { "scrub off" }.to_string(),
        format!("{}", clean_before + clean_after),
        detected_by,
        format!("{found} found / {repaired} repaired"),
        if hit.is_some() {
            "unreadable (no copy left)".to_string()
        } else {
            format!(
                "intact ({} sectors remapped to spares)",
                f.stats().disks[0].disk.remapped_sectors
            )
        },
    ]
}

/// Runs the experiment.
pub fn run() -> String {
    let mut out = String::new();

    // 1. Scrub-off vs scrub-on on the same latent fault.
    let mut sweep = Table::new(&[
        "mode",
        "clean reads",
        "fault detected by",
        "scrub found/repaired",
        "data after restart",
    ]);
    sweep.row_owned(latent_fault_case(false));
    sweep.row_owned(latent_fault_case(true));
    out.push_str("latent bad sector under a cached block (restart evicts the cache):\n");
    out.push_str(&sweep.render());

    // 2. The repair-source ladder.
    let mut ladder = Table::new(&["latent fault", "repair source", "outcome"]);

    // 2a. Silent FIT corruption: stable mirror.
    {
        let (mut f, fid) = populated();
        let fit_frag = f.block_descriptors(fid).unwrap()[0].addr - 1;
        f.disk_mut(0)
            .disk_mut()
            .silently_corrupt_sector(fit_frag)
            .unwrap();
        let r = f.scrub(None).unwrap();
        f.evict_caches().unwrap();
        let ok = read_all(&mut f, fid).1.is_none();
        ladder.row_owned(vec![
            "checksum mismatch on a FIT fragment".into(),
            "stable-storage mirror".into(),
            format!(
                "{} repaired, file {}",
                r.stats.faults_repaired,
                if ok { "intact" } else { "LOST" }
            ),
        ]);
    }

    // 2b. Bad data sector, pool copy resident: block-pool rewrite.
    {
        let (mut f, fid) = populated();
        let addr = f.block_descriptors(fid).unwrap()[2].addr;
        f.disk_mut(0).disk_mut().corrupt_sector(addr).unwrap();
        let r = f.scrub(None).unwrap();
        f.evict_caches().unwrap();
        let ok = read_all(&mut f, fid).1.is_none();
        ladder.row_owned(vec![
            "bad sector under a resident data block".into(),
            "block pool (sector remapped to a spare)".into(),
            format!(
                "{} repaired, file {}",
                r.stats.faults_repaired,
                if ok { "intact" } else { "LOST" }
            ),
        ]);
    }

    // 2c. Uncached silent data corruption: only a peer replica helps.
    {
        let (mut c, fid) = cluster();
        rot_uncached(&c, 0, fid);
        let r = c.scrub(None).unwrap();
        ladder.row_owned(vec![
            "silent corruption, uncached, one replica of two".into(),
            "peer replica (cluster scrub)".into(),
            format!(
                "{} peer repair(s), {} unrecoverable",
                r.peer_repairs, r.still_unrecoverable
            ),
        ]);
    }

    // 2d. Both replicas corrupted: reported, never hidden.
    {
        let (mut c, fid) = cluster();
        for i in 0..c.server_count() {
            rot_uncached(&c, i, fid);
        }
        let r = c.scrub(None).unwrap();
        ladder.row_owned(vec![
            "silent corruption of the same block on BOTH replicas".into(),
            "none survives".into(),
            format!(
                "{} unrecoverable finding(s) (one per copy) — reported, not masked",
                r.still_unrecoverable
            ),
        ]);
    }
    out.push_str("\nrepair-source ladder (nearest redundant copy wins):\n");
    out.push_str(&ladder.render());

    // 3. fsck repair of allocation-metadata drift.
    {
        let (mut f, fid) = populated();
        f.disk_mut(0).allocate_contiguous(4).unwrap(); // leak
        let extent = f.block_descriptors(fid).unwrap()[2].block_extent();
        f.disk_mut(0).free(extent).unwrap(); // double-allocation hazard
        let repair = f.fsck_repair().unwrap();
        out.push_str("\nfsck_repair on bitmap/extent-map disagreement:\n");
        for a in &repair.actions {
            out.push_str(&format!("  - {a}\n"));
        }
        out.push_str(&format!(
            "  before: {} issue(s); after: {} issue(s)\n",
            repair.before.issues.len(),
            repair.after.issues.len()
        ));
    }

    out.push_str(
        "\npaper: stable storage and replication give RHODOS its redundancy;\n\
         scrubbing spends idle disk time turning latent faults into repairs\n\
         while a redundant copy still exists, instead of client-visible loss.\n",
    );
    out
}

/// Deterministic counters for `BENCH_scrub.json`.
pub fn stat_records() -> Vec<(String, u64)> {
    let mut rows = Vec::new();

    // Single service: one pool-repairable bad sector, then (after the
    // caches are gone) one genuinely unrecoverable silent fault.
    {
        let (mut f, fid) = populated();
        let descs = f.block_descriptors(fid).unwrap();
        f.disk_mut(0)
            .disk_mut()
            .corrupt_sector(descs[1].addr)
            .unwrap();
        f.scrub(None).unwrap();
        f.evict_caches().unwrap();
        f.disk_mut(0)
            .disk_mut()
            .silently_corrupt_sector(descs[3].addr)
            .unwrap();
        f.scrub(None).unwrap();
        let s = f.stats();
        let disk = &s.disks[0].disk;
        rows.extend([
            (
                "scrub.single.sectors_scanned".to_string(),
                s.scrub.sectors_scanned,
            ),
            (
                "scrub.single.faults_found".to_string(),
                s.scrub.faults_found,
            ),
            (
                "scrub.single.faults_repaired".to_string(),
                s.scrub.faults_repaired,
            ),
            (
                "scrub.single.unrecoverable".to_string(),
                s.scrub.unrecoverable,
            ),
            (
                "scrub.single.passes_completed".to_string(),
                s.scrub.passes_completed,
            ),
            ("scrub.disk.media_errors".to_string(), disk.media_errors),
            (
                "scrub.disk.checksum_mismatches".to_string(),
                disk.checksum_mismatches,
            ),
            (
                "scrub.disk.remapped_sectors".to_string(),
                disk.remapped_sectors,
            ),
        ]);
    }

    // Cluster: an uncached fault on one replica heals from its peer; the
    // same fault on both replicas is reported as unrecoverable.
    {
        let (mut c, fid) = cluster();
        rot_uncached(&c, 0, fid);
        let healed = c.scrub(None).unwrap();
        rows.push((
            "scrub.cluster.peer_repairs".to_string(),
            healed.peer_repairs,
        ));

        let (mut c, fid) = cluster();
        for i in 0..c.server_count() {
            rot_uncached(&c, i, fid);
        }
        let lost = c.scrub(None).unwrap();
        rows.push((
            "scrub.cluster.still_unrecoverable".to_string(),
            lost.still_unrecoverable,
        ));
    }

    // fsck: leaked + double-allocated extents both repaired.
    {
        let (mut f, fid) = populated();
        f.disk_mut(0).allocate_contiguous(4).unwrap();
        let extent = f.block_descriptors(fid).unwrap()[2].block_extent();
        f.disk_mut(0).free(extent).unwrap();
        let repair = f.fsck_repair().unwrap();
        rows.push((
            "fsck.repair_actions".to_string(),
            repair.actions.len() as u64,
        ));
        rows.push((
            "fsck.issues_after".to_string(),
            repair.after.issues.len() as u64,
        ));
    }

    rows
}

#[cfg(test)]
mod tests {
    #[test]
    fn no_scenario_loses_recoverable_data() {
        let report = super::run();
        assert!(!report.contains("LOST"), "recoverable data lost:\n{report}");
        assert!(
            report.contains("1 peer repair(s), 0 unrecoverable"),
            "peer repair failed:\n{report}"
        );
        assert!(
            report.contains("2 unrecoverable finding(s) (one per copy) — reported"),
            "true loss not reported:\n{report}"
        );
    }

    #[test]
    fn stat_records_are_sane() {
        let rows = super::stat_records();
        let get = |k: &str| rows.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap();
        assert_eq!(get("scrub.single.faults_found"), 2);
        assert_eq!(get("scrub.single.faults_repaired"), 1);
        assert_eq!(get("scrub.single.unrecoverable"), 1);
        assert_eq!(get("scrub.single.passes_completed"), 2);
        assert!(get("scrub.disk.remapped_sectors") >= 1);
        assert_eq!(get("scrub.cluster.peer_repairs"), 1);
        // One unrecoverable finding per replica's copy of the block.
        assert_eq!(get("scrub.cluster.still_unrecoverable"), 2);
        assert_eq!(get("fsck.repair_actions"), 2);
        assert_eq!(get("fsck.issues_after"), 0);
    }
}
