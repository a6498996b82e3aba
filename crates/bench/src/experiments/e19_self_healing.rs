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
use crate::{Cell, Report};
use rhodos_cluster::Cluster;
use rhodos_file_service::{FileId, FileService, FileServiceConfig, ServiceType};
use rhodos_net::NetConfig;
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};

/// The claim, in a line.
pub const TITLE: &str = "Self-healing: checksums, scrubbing, sector remap, fsck repair";

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
fn latent_fault_case(scrub: bool, report: &mut Report, t: &mut Table) {
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
    report.claim(
        if scrub {
            "with scrubbing a latent bad sector is repaired while the pool still holds its block"
        } else {
            "without scrubbing a restart finds a latent bad sector unreadable"
        },
        hit.is_none() == scrub,
    );
    let detected_by = match (scrub, hit) {
        (true, None) => "background scrub pass".to_string(),
        (_, Some(_)) => "client read error after restart".to_string(),
        (false, None) => "never".to_string(),
    };
    t.row(&[
        &if scrub { "scrub on" } else { "scrub off" },
        &format!("{}", clean_before + clean_after),
        &detected_by,
        &format!("{found} found / {repaired} repaired"),
        &if hit.is_some() {
            "unreadable (no copy left)".to_string()
        } else {
            format!(
                "intact ({} sectors remapped to spares)",
                f.stats().disks[0].disk.remapped_sectors
            )
        },
    ]);
}

/// Runs the experiment. Its lane, `BENCH_scrub.json`, adds one scenario
/// of its own: a single service with a pool-repairable bad sector and,
/// after the caches are gone, an unrecoverable silent fault.
pub fn measure(_: Cell) -> Report {
    let mut r = Report::default();
    r.rows = single_service_rows(&mut r);

    // 1. Scrub-off vs scrub-on on the same latent fault.
    let mut sweep = Table::new(&[
        "mode",
        "clean reads",
        "fault detected by",
        "scrub found/repaired",
        "data after restart",
    ]);
    latent_fault_case(false, &mut r, &mut sweep);
    latent_fault_case(true, &mut r, &mut sweep);
    let out = &mut r.text;
    out.push_str("latent bad sector under a cached block (restart evicts the cache):\n");
    out.push_str(&sweep.render());

    // 2. The repair-source ladder.
    let mut ladder = Table::new(&["latent fault", "repair source", "outcome"]);

    // 2a. Silent FIT corruption heals from the stable mirror; 2b. a bad
    // data sector under a resident block, from the block pool. The
    // faulty sector is `back` before block `block` of the file.
    for (fault, source, block, back, silent) in [
        (
            "checksum mismatch on a FIT fragment",
            "stable-storage mirror",
            0,
            1,
            true,
        ),
        (
            "bad sector under a resident data block",
            "block pool (sector remapped to a spare)",
            2,
            0,
            false,
        ),
    ] {
        let (mut f, fid) = populated();
        let sector = f.block_descriptors(fid).unwrap()[block].addr - back;
        let disk = f.disk_mut(0).disk_mut();
        let injected = if silent {
            disk.silently_corrupt_sector(sector)
        } else {
            disk.corrupt_sector(sector)
        };
        injected.unwrap();
        let scrub = f.scrub(None).unwrap();
        f.evict_caches().unwrap();
        let healed = read_all(&mut f, fid).1.is_none();
        let ok = r.claim(format!("a {fault} heals from the {source}"), healed);
        let outcome = if ok { "intact" } else { "LOST" };
        let repaired = scrub.stats.faults_repaired;
        ladder.row(&[
            &fault,
            &source,
            &format!("{repaired} repaired, file {outcome}"),
        ]);
    }

    // 2c. Uncached silent data corruption: only a peer replica helps.
    let healed = {
        let (mut c, fid) = cluster();
        rot_uncached(&c, 0, fid);
        c.scrub(None).unwrap()
    };
    r.claim(
        "an uncached fault on one replica of two heals from its peer",
        healed.peer_repairs == 1 && healed.still_unrecoverable == 0,
    );
    ladder.row(&[
        &"silent corruption, uncached, one replica of two",
        &"peer replica (cluster scrub)",
        &format!(
            "{} peer repair(s), {} unrecoverable",
            healed.peer_repairs, healed.still_unrecoverable
        ),
    ]);

    // 2d. Both replicas corrupted: reported, never hidden.
    let lost = {
        let (mut c, fid) = cluster();
        for i in 0..c.server_count() {
            rot_uncached(&c, i, fid);
        }
        c.scrub(None).unwrap()
    };
    r.claim(
        "the same fault on both replicas is reported, one finding per copy",
        lost.still_unrecoverable == 2,
    );
    ladder.row(&[
        &"silent corruption of the same block on BOTH replicas",
        &"none survives",
        &format!(
            "{} unrecoverable finding(s) (one per copy) — reported, not masked",
            lost.still_unrecoverable
        ),
    ]);
    r.text
        .push_str("\nrepair-source ladder (nearest redundant copy wins):\n");
    r.text.push_str(&ladder.render());

    // 3. fsck repair of allocation-metadata drift.
    let repair = {
        let (mut f, fid) = populated();
        f.disk_mut(0).allocate_contiguous(4).unwrap(); // leak
        let extent = f.block_descriptors(fid).unwrap()[2].block_extent();
        f.disk_mut(0).free(extent).unwrap(); // double-allocation hazard
        f.fsck_repair().unwrap()
    };
    r.claim(
        "fsck_repair fixes a leaked and a double-allocated extent, leaving no issue",
        repair.actions.len() == 2 && repair.after.issues.is_empty(),
    );
    let out = &mut r.text;
    out.push_str("\nfsck_repair on bitmap/extent-map disagreement:\n");
    for a in &repair.actions {
        out.push_str(&format!("  - {a}\n"));
    }
    out.push_str(&format!(
        "  before: {} issue(s); after: {} issue(s)\n",
        repair.before.issues.len(),
        repair.after.issues.len()
    ));

    out.push_str(
        "\npaper: stable storage and replication give RHODOS its redundancy;\n\
         scrubbing spends idle disk time turning latent faults into repairs\n\
         while a redundant copy still exists, instead of client-visible loss.\n",
    );
    r.rows.extend([
        (
            "scrub.cluster.peer_repairs".to_string(),
            healed.peer_repairs,
        ),
        (
            "scrub.cluster.still_unrecoverable".to_string(),
            lost.still_unrecoverable,
        ),
        (
            "fsck.repair_actions".to_string(),
            repair.actions.len() as u64,
        ),
        (
            "fsck.issues_after".to_string(),
            repair.after.issues.len() as u64,
        ),
    ]);
    r
}

/// The single-service rows of the lane: one pool-repairable bad sector,
/// then (after the caches are gone) one unrecoverable silent fault.
fn single_service_rows(r: &mut Report) -> Vec<(String, u64)> {
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
    r.claim(
        "two passes find both faults, repair the one the pool holds and report the other",
        s.scrub.faults_found == 2
            && s.scrub.faults_repaired == 1
            && s.scrub.unrecoverable == 1
            && s.scrub.passes_completed == 2
            && disk.remapped_sectors >= 1,
    );
    [
        ("single.sectors_scanned", s.scrub.sectors_scanned),
        ("single.faults_found", s.scrub.faults_found),
        ("single.faults_repaired", s.scrub.faults_repaired),
        ("single.unrecoverable", s.scrub.unrecoverable),
        ("single.passes_completed", s.scrub.passes_completed),
        ("disk.media_errors", disk.media_errors),
        ("disk.checksum_mismatches", disk.checksum_mismatches),
        ("disk.remapped_sectors", disk.remapped_sectors),
    ]
    .map(|(name, v)| (format!("scrub.{name}"), v))
    .into()
}
