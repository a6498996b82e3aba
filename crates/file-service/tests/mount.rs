//! A crash is a drop: a server rebuilt from its platters alone. What it
//! must know afterwards is on the platter — the directory, every FIT, and
//! the server record in the directory header (the lease record and the
//! degraded disks) — and a service mounted over the disks another one
//! left knows exactly what that one knows after a crash and a recovery.

use rhodos_disk_service::{DiskService, BLOCK_SIZE};
use rhodos_file_service::{
    FileId, FileService, FileServiceConfig, LeaseMode, Redundancy, ServiceType,
};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i / 7 % 251) as u8 ^ salt).collect()
}

/// A 4+1 parity volume over five disks holding three patterned files of
/// several stripe rows each, flushed.
fn parity_volume() -> (FileService, Vec<(FileId, Vec<u8>)>) {
    let config = FileServiceConfig {
        redundancy: Redundancy::Parity { k: 4, m: 1 },
        ..FileServiceConfig::default()
    };
    let clock = SimClock::new();
    let (geometry, model) = (DiskGeometry::medium(), LatencyModel::default());
    let mut fs = FileService::striped(5, geometry, model, clock, config).unwrap();
    let mut files = Vec::new();
    for (salt, blocks) in [(1, 9), (2, 13), (3, 6)] {
        let fid = fs.create(ServiceType::Basic).unwrap();
        fs.open(fid).unwrap();
        let data = pattern(blocks * BLOCK_SIZE, salt);
        fs.write(fid, 0, data.clone()).unwrap();
        files.push((fid, data));
    }
    fs.flush_all().unwrap();
    (fs, files)
}

/// Every file reads back whole, from the platter.
fn reads_back(fs: &mut FileService, files: &[(FileId, Vec<u8>)]) {
    fs.evict_caches().unwrap();
    for (fid, data) in files {
        fs.open(*fid).unwrap();
        let read = fs.read(*fid, 0, data.len()).unwrap();
        assert!(read == *data, "{fid:?} reads back");
        fs.release(*fid).unwrap();
    }
}

/// A disk lost, a rebuild stopped part way, a crash: the mount finds the
/// disk degraded in the directory header — had it forgotten, it would
/// have recomputed parity from the blank spare and lost the disk's units
/// — reads reconstruct, fsck is clean, and the rebuild, which starts
/// over, completes. Disk 0, which holds the directory, and another.
#[test]
fn a_degraded_volume_survives_a_crash_mid_rebuild() {
    for lost in [0, 2] {
        let (mut fs, files) = parity_volume();
        fs.fail_disk(lost).unwrap();
        let partial = fs.rebuild(Some(3)).unwrap();
        assert!(!partial.complete && partial.pages > 0);

        fs.simulate_crash();
        fs.recover().unwrap();
        reads_back(&mut fs, &files);
        assert!(fs.fsck().unwrap().is_clean(), "disk {lost}");
        let degraded: Vec<bool> = (0..5).map(|d| d == lost).collect();
        assert_eq!(fs.degraded_disks(), degraded, "disk {lost}");

        while !fs.rebuild(Some(3)).unwrap().complete {}
        assert_eq!(fs.degraded_disks(), [false; 5]);
        // The clean set is on the platter too.
        fs.simulate_crash();
        fs.recover().unwrap();
        assert_eq!(fs.degraded_disks(), [false; 5]);
        reads_back(&mut fs, &files);
        assert!(fs.fsck().unwrap().is_clean());
        assert!(fs.scrub(None).unwrap().is_clean());
    }
}

/// Disk 0 lost: its blank spare gets the whole directory, not just the
/// fragments whose bytes changed — even when the spare is lost in turn,
/// before its rebuild, and nothing in the directory changes — so a
/// directory that spills past its first fragment is whole after the
/// crash that follows.
#[test]
fn a_spare_disk_0_gets_the_whole_directory() {
    let (mut fs, _) = parity_volume();
    for _ in 0..150 {
        fs.create(ServiceType::Basic).unwrap();
    }
    let files = fs.file_ids();
    fs.fail_disk(0).unwrap();
    fs.fail_disk(0).unwrap();
    fs.simulate_crash();
    fs.recover().unwrap();
    assert_eq!(fs.file_ids(), files);
}

/// A server with files, a lease held, and a holder fenced: its grave is
/// on the platter before the rival's grant is handed out.
fn leased_server() -> FileService {
    let config = FileServiceConfig::default();
    let clock = SimClock::new();
    let (geometry, model) = (DiskGeometry::medium(), LatencyModel::default());
    let mut fs = FileService::striped(2, geometry, model, clock, config).unwrap();
    let (held, fenced) = (
        fs.create(ServiceType::Basic).unwrap(),
        fs.create(ServiceType::Basic).unwrap(),
    );
    for fid in [held, fenced] {
        fs.open(fid).unwrap();
        fs.write(fid, 0, pattern(3 * BLOCK_SIZE, fid.0 as u8))
            .unwrap();
    }
    fs.lease_acquire(1, held, LeaseMode::Write).unwrap();
    let (silent, _) = fs.lease_acquire(2, fenced, LeaseMode::Write).unwrap();
    // Client 2 has no recall endpoint: client 3's round fences it.
    fs.lease_acquire(3, fenced, LeaseMode::Read).unwrap();
    assert_eq!(fs.lease_manager().dead_seq(fenced), Some(silent.token.seq));
    fs.flush_all().unwrap();
    fs
}

/// A service mounted over the disks a server left and the server itself
/// crashed and recovered know the same: statistics, directory, FITs and
/// lease record alike.
#[test]
fn a_mount_knows_what_a_recovery_knows() {
    let mut recovered = leased_server();
    recovered.simulate_crash();
    recovered.recover().unwrap();

    let mut dropped = leased_server();
    let config = *dropped.config();
    let disks: Vec<DiskService> = (0..dropped.disk_count())
        .map(|d| {
            let old = dropped.disk_mut(d);
            let (geometry, model) = (old.geometry(), old.disk_mut().model());
            let spare = DiskService::new(geometry, model, old.clock(), Default::default());
            std::mem::replace(old, spare)
        })
        .collect();
    drop(dropped);
    let mut mounted = FileService::mount(disks, config).unwrap();

    assert_eq!(
        format!("{:?}", mounted.stats()),
        format!("{:?}", recovered.stats())
    );
    assert_eq!(mounted.file_ids(), recovered.file_ids());
    assert_eq!(mounted.system_file(), recovered.system_file());
    for fid in recovered.file_ids() {
        let (a, b) = (
            mounted.fit_snapshot(fid).unwrap(),
            recovered.fit_snapshot(fid).unwrap(),
        );
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{fid:?}");
    }
    let (a, b) = (mounted.lease_manager(), recovered.lease_manager());
    assert_eq!((a.epoch(), a.record()), (b.epoch(), b.record()));
    assert_eq!(a.epoch(), 1, "the mount after epoch 0");
    assert!(a.grant_set().is_empty());
    for fid in recovered.file_ids() {
        assert_eq!(a.dead_seq(fid), b.dead_seq(fid));
    }
    let graves = recovered
        .file_ids()
        .into_iter()
        .filter_map(|f| a.dead_seq(f));
    assert_eq!(graves.count(), 1, "the fenced grant's grave survived");
}

/// A change of the server record writes the directory fragment it is in,
/// not the 16-fragment directory region: one sector on disk 0 and two on
/// each of its two stable mirrors (a stable record is a sector with a
/// header, so a fragment takes two), mount after mount — each claims its
/// epoch — and the record is on the platter for the next mount.
#[test]
fn a_record_change_writes_one_directory_fragment() {
    let mut fs = FileService::single_disk(
        DiskGeometry::medium(),
        LatencyModel::default(),
        SimClock::new(),
        FileServiceConfig::default(),
    )
    .unwrap();
    for _ in 0..40 {
        fs.create(ServiceType::Basic).unwrap();
    }
    let writes = |fs: &FileService| {
        let disk = &fs.stats().disks[0];
        (disk.disk.sector_writes, disk.stable.sector_writes)
    };
    for epoch in 1..=2 {
        fs.simulate_crash();
        fs.recover().unwrap();
        assert_eq!(fs.lease_manager().record().epoch, epoch - 1);
        let (disk, stable) = writes(&fs);
        fs.lease_manager_mut().claim_epoch();
        fs.record_leases().unwrap();
        let (disk_after, stable_after) = writes(&fs);
        assert_eq!(
            (disk_after - disk, stable_after - stable),
            (1, 4),
            "epoch {epoch}"
        );
    }
}
