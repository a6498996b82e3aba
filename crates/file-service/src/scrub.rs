//! Background scrubbing of allocated storage (self-healing, §6 of the
//! paper's reliability story).
//!
//! Latent media faults — sectors that went bad *after* they were written,
//! or silent corruption caught by the per-sector checksum lane — are only
//! discovered when something reads the sector. A file that is written once
//! and read rarely can therefore carry an undetected fault for a long
//! time, and by the time a client trips over it the redundant copy may be
//! gone too. [`FileService::scrub`](crate::FileService::scrub) closes that
//! window: it walks the allocated extents of every disk in coalesced runs
//! (through the per-spindle elevators), verifies each sector against its
//! checksum, and repairs what it can on the spot — metadata fragments from
//! their stable-storage mirrors, data blocks from the block pool, and (on
//! an erasure-coded tier) any stripe unit by reconstructing it from its
//! parity group. Faults it cannot repair locally are reported with enough
//! ownership detail for a higher layer (the replication service) to fetch
//! a peer's copy.

use crate::attrs::FileId;
use crate::error::FileServiceError;
use crate::plan::{Mode, WritePlan};
use crate::service::FileService;
use rhodos_disk_service::{Extent, FragmentAddr, SectorFaultKind};
use std::fmt;

/// Cumulative counters for the background scrubber.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Sectors verified against their checksums.
    pub sectors_scanned: u64,
    /// Latent faults discovered (bad sectors + checksum mismatches).
    pub faults_found: u64,
    /// Faults repaired in place (stable mirror or block-pool rewrite; the
    /// sector is remapped to a spare by the rewrite).
    pub faults_repaired: u64,
    /// Faults with no local redundant copy — reported upward, never
    /// silently dropped.
    pub unrecoverable: u64,
    /// Full passes over the allocated extents completed.
    pub passes_completed: u64,
}

impl ScrubStats {
    /// Adds another snapshot into this one (for aggregating across
    /// services in an agent).
    pub fn merge(&mut self, other: &ScrubStats) {
        self.sectors_scanned += other.sectors_scanned;
        self.faults_found += other.faults_found;
        self.faults_repaired += other.faults_repaired;
        self.unrecoverable += other.unrecoverable;
        self.passes_completed += other.passes_completed;
    }

    /// Returns the difference `self - earlier`, counter by counter.
    pub fn delta_since(&self, earlier: &ScrubStats) -> ScrubStats {
        ScrubStats {
            sectors_scanned: self.sectors_scanned - earlier.sectors_scanned,
            faults_found: self.faults_found - earlier.faults_found,
            faults_repaired: self.faults_repaired - earlier.faults_repaired,
            unrecoverable: self.unrecoverable - earlier.unrecoverable,
            passes_completed: self.passes_completed - earlier.passes_completed,
        }
    }
}

/// What an allocated extent belongs to — determines the repair source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubOwner {
    /// The reserved directory region (stable-backed if the disks are).
    Directory,
    /// A file index table fragment (stable-backed if the disks are).
    Fit(FileId),
    /// An indirect FIT block (stable-backed if the disks are).
    Indirect(FileId),
    /// A file data block — repairable from the block pool if resident,
    /// from its parity group when the service runs an erasure-coded
    /// tier, otherwise only from a peer replica.
    Data {
        /// Owning file.
        fid: FileId,
        /// Logical block index within the file.
        block: u64,
    },
    /// A parity unit of an erasure-coded stripe row — always
    /// recomputable from the row's data units.
    Parity {
        /// Owning file.
        fid: FileId,
        /// Parity-unit index (row `index / m`, slot `index % m`).
        index: u64,
    },
}

impl fmt::Display for ScrubOwner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScrubOwner::Directory => write!(f, "directory"),
            ScrubOwner::Fit(fid) => write!(f, "{fid} FIT"),
            ScrubOwner::Indirect(fid) => write!(f, "{fid} indirect"),
            ScrubOwner::Data { fid, block } => write!(f, "{fid} block {block}"),
            ScrubOwner::Parity { fid, index } => write!(f, "{fid} parity {index}"),
        }
    }
}

/// One latent fault discovered by a scrub pass.
#[derive(Debug, Clone, Copy)]
pub struct ScrubFinding {
    /// Disk the fault is on.
    pub disk: u16,
    /// Faulty sector (fragment address).
    pub addr: FragmentAddr,
    /// How the fault surfaced.
    pub kind: SectorFaultKind,
    /// What the sector belongs to.
    pub owner: ScrubOwner,
    /// The allocated extent the sector lies in (a repair rewrites the
    /// owner's whole unit, remapping the bad sector to a spare).
    pub extent: Extent,
    /// Whether the scrubber repaired it from a local redundant copy.
    pub repaired: bool,
}

/// Result of one [`FileService::scrub`](crate::FileService::scrub) call.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Every latent fault found this call, repaired or not.
    pub findings: Vec<ScrubFinding>,
    /// Counter deltas for this call only (cumulative totals live in
    /// [`FileServiceStats::scrub`](crate::FileServiceStats)).
    pub stats: ScrubStats,
    /// Whether the call covered every allocated extent (a full pass). A
    /// budgeted call that ran out of sectors resumes from its per-disk
    /// cursors next time.
    pub complete: bool,
}

impl ScrubReport {
    /// Findings the scrubber could not repair locally.
    pub fn unrecoverable(&self) -> impl Iterator<Item = &ScrubFinding> {
        self.findings.iter().filter(|f| !f.repaired)
    }

    /// Whether the scanned region is healthy (no faults at all).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

impl FileService {
    /// Walks the allocated extents of every disk verifying each sector
    /// against its checksum lane (bypassing the caches — the platter is
    /// what is being checked), and repairs latent faults from local
    /// redundant copies: metadata fragments from their stable-storage
    /// mirrors, data blocks from the block pool when resident. A repair
    /// rewrites the owner's unit, which quarantines the bad sector and
    /// remaps it to a spare. Faults with no local redundant copy are
    /// reported with their owners — never silently dropped — so the
    /// replication layer can fetch a peer's copy.
    ///
    /// `budget` caps the sectors scanned this call (`None` = full pass).
    /// A budgeted scrub resumes where it left off via per-disk cursors,
    /// so a periodic small-budget call amortises verification I/O across
    /// idle time. The scan is issued in address-sorted runs through the
    /// per-spindle schedulers, so contiguous extents coalesce into
    /// single disk references.
    ///
    /// # Errors
    ///
    /// Fails only on non-media I/O errors (e.g. a crashed disk). Media
    /// faults are findings, not errors.
    pub fn scrub(&mut self, budget: Option<u64>) -> Result<ScrubReport, FileServiceError> {
        // Every allocated extent on every disk with its owner, sorted by
        // address — what the metadata claims to own. A file whose FIT
        // copies are both unreadable (fsck's finding) still has its
        // fragment scanned, so the fault is counted, not hidden.
        let mut owned = vec![Vec::new(); self.volume.disks().len()];
        for (d, extent, owner) in self.store.walk(&mut self.volume, |_, _| Ok(()))? {
            owned[d as usize].push((extent, owner));
        }
        let mut report = ScrubReport::default();
        let mut remaining = budget.unwrap_or(u64::MAX);
        let mut complete = true;
        for (d, list) in owned.iter_mut().enumerate() {
            if list.is_empty() || self.volume.degraded()[d] {
                // A degraded disk's platter is being rebuilt from its
                // redundancy groups, not verified sector by sector.
                continue;
            }
            list.sort_by_key(|(e, _)| e.start);
            // Resume from this disk's cursor, wrapping around the sorted
            // extent list so every extent is eventually visited.
            let n = list.len();
            let start = list.partition_point(|(e, _)| e.start < self.scrub_cursors[d]) % n;
            let mut picked = Vec::new();
            let mut next = start;
            for step in 0..n {
                if remaining == 0 {
                    break;
                }
                let i = (start + step) % n;
                let len = list[i].0.len;
                if len > remaining && !picked.is_empty() {
                    break; // never split an extent across calls
                }
                remaining = remaining.saturating_sub(len);
                picked.push(i);
                next = (i + 1) % n;
            }
            if picked.len() < n {
                complete = false;
                self.scrub_cursors[d] = list[next].0.start;
            } else {
                self.scrub_cursors[d] = list[start].0.start;
            }
            let extents: Vec<Extent> = picked.iter().map(|&i| list[i].0).collect();
            let faults = self.volume.disk(d as u16).verify_extents(&extents)?;
            report.stats.sectors_scanned += extents.iter().map(|e| e.len).sum::<u64>();
            for fault in faults {
                // Map the faulty sector back to its owner.
                let at = list.partition_point(|(e, _)| e.start <= fault.addr);
                let Some(&(extent, owner)) = at.checked_sub(1).map(|i| &list[i]) else {
                    continue;
                };
                if fault.addr >= extent.end() {
                    continue;
                }
                report.stats.faults_found += 1;
                let repaired = self.repair_fault(d as u16, fault.addr, extent, owner);
                if repaired {
                    report.stats.faults_repaired += 1;
                } else {
                    report.stats.unrecoverable += 1;
                }
                report.findings.push(ScrubFinding {
                    disk: d as u16,
                    addr: fault.addr,
                    kind: fault.kind,
                    owner,
                    extent,
                    repaired,
                });
            }
        }
        report.complete = complete;
        if complete {
            report.stats.passes_completed = 1;
        }
        self.scrub_stats.merge(&report.stats);
        Ok(report)
    }

    /// Attempts to repair one faulty sector from a local redundant copy.
    /// Returns whether it succeeded; a failed repair (no redundant copy,
    /// or the stable mirror is lost too) leaves the fault for a higher
    /// layer and is never a scrub error.
    fn repair_fault(
        &mut self,
        disk: u16,
        addr: FragmentAddr,
        extent: Extent,
        owner: ScrubOwner,
    ) -> bool {
        // The repair-source ladder. Metadata has its stable mirror. A
        // unit the volume can rebuild from its redundancy group comes
        // back platter-consistent, so that is preferred over a
        // possibly-dirty pool copy; the pool is the last local source.
        if !matches!(owner, ScrubOwner::Data { .. } | ScrubOwner::Parity { .. }) {
            let disk = self.volume.disk(disk);
            return disk.repair_fragment_from_stable(addr).unwrap_or(false);
        }
        let mut copy = self.volume.reconstruct(&mut self.store, owner);
        if let (None, ScrubOwner::Data { fid, block }) = (&copy, owner) {
            copy = self.cache.as_ref().and_then(|c| c.peek(&(fid, block)));
        }
        copy.is_some_and(|buf| {
            let unit = [(disk, extent, &buf[..])];
            self.volume
                .submit(WritePlan::Extents(Mode::OneAtATime, &unit))
                .is_ok()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_delta_are_inverse() {
        let a = ScrubStats {
            sectors_scanned: 10,
            faults_found: 2,
            faults_repaired: 1,
            unrecoverable: 1,
            passes_completed: 1,
        };
        let mut b = a;
        let extra = ScrubStats {
            sectors_scanned: 5,
            faults_found: 1,
            faults_repaired: 1,
            unrecoverable: 0,
            passes_completed: 1,
        };
        b.merge(&extra);
        assert_eq!(b.delta_since(&a), extra);
    }

    #[test]
    fn owner_display() {
        let fid = FileId(7);
        assert_eq!(ScrubOwner::Directory.to_string(), "directory");
        assert_eq!(
            ScrubOwner::Data { fid, block: 3 }.to_string(),
            format!("{fid} block 3")
        );
    }

    mod service {
        use crate::scrub::{ScrubOwner, SectorFaultKind};
        use crate::{FileService, FileServiceConfig, ServiceType};
        use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};

        fn fs() -> FileService {
            FileService::single_disk(
                DiskGeometry::medium(),
                LatencyModel::instant(),
                SimClock::new(),
                FileServiceConfig::default(),
            )
            .unwrap()
        }

        fn populated(fs: &mut FileService) -> crate::FileId {
            let fid = fs.create(ServiceType::Basic).unwrap();
            fs.open(fid).unwrap();
            fs.write(fid, 0, vec![0xA7; 60_000]).unwrap();
            fs.flush_all().unwrap();
            fid
        }

        #[test]
        fn healthy_service_scrubs_clean() {
            let mut f = fs();
            populated(&mut f);
            let report = f.scrub(None).unwrap();
            assert!(report.is_clean(), "{:?}", report.findings);
            assert!(report.complete);
            assert!(report.stats.sectors_scanned > 0);
            assert_eq!(f.stats().scrub.passes_completed, 1);
        }

        #[test]
        fn silent_fit_corruption_is_found_and_repaired_from_stable() {
            let mut f = fs();
            let fid = populated(&mut f);
            let fit_frag = f.block_descriptors(fid).unwrap()[0].addr - 1;
            f.disk_mut(0)
                .disk_mut()
                .silently_corrupt_sector(fit_frag)
                .unwrap();
            let report = f.scrub(None).unwrap();
            assert_eq!(report.findings.len(), 1);
            let finding = report.findings[0];
            assert_eq!(finding.kind, SectorFaultKind::ChecksumMismatch);
            assert_eq!(finding.owner, ScrubOwner::Fit(fid));
            assert!(finding.repaired);
            assert_eq!(report.stats.faults_repaired, 1);
            // A second pass sees a healthy platter and the file survives a
            // cold restart on main storage alone.
            assert!(f.scrub(None).unwrap().is_clean());
            f.evict_caches().unwrap();
            assert_eq!(f.read(fid, 0, 16).unwrap(), vec![0xA7; 16]);
        }

        #[test]
        fn latent_bad_sector_in_data_is_repaired_from_block_pool() {
            let mut f = fs();
            let fid = populated(&mut f);
            let addr = f.block_descriptors(fid).unwrap()[2].addr;
            f.disk_mut(0).disk_mut().corrupt_sector(addr).unwrap();
            let report = f.scrub(None).unwrap();
            assert_eq!(report.findings.len(), 1);
            assert_eq!(report.findings[0].kind, SectorFaultKind::BadSector);
            assert!(report.findings[0].repaired, "block pool had the copy");
            assert!(matches!(
                report.findings[0].owner,
                ScrubOwner::Data { block: 2, .. }
            ));
            // The rewrite remapped the quarantined sector to a spare.
            assert!(f.disk_mut(0).disk_mut().remapped_sector_count() >= 1);
            assert!(f.scrub(None).unwrap().is_clean());
            f.evict_caches().unwrap();
            assert_eq!(f.read(fid, 17_000, 8).unwrap(), vec![0xA7; 8]);
        }

        #[test]
        fn uncached_data_fault_is_reported_unrecoverable_not_hidden() {
            let mut f = fs();
            let fid = populated(&mut f);
            f.evict_caches().unwrap();
            let addr = f.block_descriptors(fid).unwrap()[1].addr;
            f.disk_mut(0)
                .disk_mut()
                .silently_corrupt_sector(addr)
                .unwrap();
            let report = f.scrub(None).unwrap();
            assert_eq!(report.unrecoverable().count(), 1);
            assert_eq!(report.stats.unrecoverable, 1);
            let finding = *report.unrecoverable().next().unwrap();
            assert!(matches!(
                finding.owner,
                ScrubOwner::Data { fid: owner, block: 1 } if owner == fid
            ));
            // Still latent on the platter: the next pass reports it again
            // (no local redundancy — only a peer replica can heal it).
            assert_eq!(f.scrub(None).unwrap().unrecoverable().count(), 1);
        }

        #[test]
        fn budgeted_scrub_resumes_and_covers_everything() {
            let mut f = fs();
            let fid = populated(&mut f);
            let full = f.scrub(None).unwrap().stats.sectors_scanned;
            let addr = f.block_descriptors(fid).unwrap()[5].addr;
            f.disk_mut(0)
                .disk_mut()
                .silently_corrupt_sector(addr)
                .unwrap();
            // Small budget: several partial calls must find the fault the
            // one-shot pass would.
            let mut found = 0;
            let mut scanned = 0;
            for _ in 0..64 {
                let r = f.scrub(Some(8)).unwrap();
                scanned += r.stats.sectors_scanned;
                found += r.stats.faults_found;
                if scanned >= 2 * full {
                    break;
                }
            }
            assert!(scanned >= full, "cursors failed to advance");
            assert!(found >= 1, "budgeted passes missed the latent fault");
        }

        #[test]
        fn peer_repair_rewrite_block_heals_unrecoverable_fault() {
            let mut f = fs();
            let fid = populated(&mut f);
            f.evict_caches().unwrap();
            let addr = f.block_descriptors(fid).unwrap()[3].addr;
            f.disk_mut(0).disk_mut().corrupt_sector(addr).unwrap();
            assert_eq!(f.scrub(None).unwrap().unrecoverable().count(), 1);
            // What a replication peer would hand back.
            let good = vec![0xA7; rhodos_disk_service::BLOCK_SIZE];
            f.rewrite_block(fid, 3, &good).unwrap();
            assert!(f.scrub(None).unwrap().is_clean());
            f.evict_caches().unwrap();
            assert_eq!(f.read(fid, 3 * 8192, 4).unwrap(), vec![0xA7; 4]);
        }
    }
}
