//! Consistency checking of the on-disk structures ("fsck").
//!
//! The paper's reliability story rests on the structural metadata — the
//! directory, the file index tables and their contiguity counts — staying
//! consistent with each other and with the allocation state. This module
//! walks everything and reports violations instead of assuming them away.
//! Property tests run it after random operation sequences and crash
//! recoveries.

use crate::attrs::FileId;
use crate::scrub::ScrubOwner;
use crate::service::FileService;
use rhodos_disk_service::{Extent, FRAGS_PER_BLOCK};
use std::collections::BTreeMap;
use std::fmt;

/// One consistency violation found by [`FileService::fsck`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FsckIssue {
    /// Two allocated extents overlap (corrupt allocation metadata).
    OverlappingExtents {
        /// Disk number.
        disk: u16,
        /// First extent (owner description).
        a: (String, Extent),
        /// Second extent (owner description).
        b: (String, Extent),
    },
    /// A FIT's recorded size needs more blocks than it has.
    SizeBeyondBlocks {
        /// File affected.
        fid: FileId,
        /// Recorded size in bytes.
        size: u64,
        /// Blocks actually present.
        blocks: u64,
    },
    /// A contiguity count promises adjacency that the descriptors deny.
    BadContiguityCount {
        /// File affected.
        fid: FileId,
        /// Logical block index with the bad count.
        index: u64,
    },
    /// A descriptor points outside its disk.
    DescriptorOutOfRange {
        /// File affected.
        fid: FileId,
        /// Logical block index.
        index: u64,
    },
    /// A FIT could not be loaded at all.
    UnreadableFit {
        /// File affected.
        fid: FileId,
    },
    /// Fragments marked allocated in the bitmap that no metadata
    /// references — leaked space.
    LeakedExtent {
        /// Disk number.
        disk: u16,
        /// The unreferenced-but-allocated run.
        extent: Extent,
    },
    /// Fragments referenced by metadata but free in the bitmap — a later
    /// allocation could hand the same storage to a second owner.
    DoubleAllocated {
        /// Disk number.
        disk: u16,
        /// The referenced-but-free run.
        extent: Extent,
    },
}

impl fmt::Display for FsckIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsckIssue::OverlappingExtents { disk, a, b } => {
                write!(f, "disk {disk}: {} {} overlaps {} {}", a.0, a.1, b.0, b.1)
            }
            FsckIssue::SizeBeyondBlocks { fid, size, blocks } => {
                write!(f, "{fid}: size {size} exceeds {blocks} blocks")
            }
            FsckIssue::BadContiguityCount { fid, index } => {
                write!(f, "{fid}: contiguity count wrong at block {index}")
            }
            FsckIssue::DescriptorOutOfRange { fid, index } => {
                write!(f, "{fid}: descriptor {index} points off the disk")
            }
            FsckIssue::UnreadableFit { fid } => write!(f, "{fid}: file index table unreadable"),
            FsckIssue::LeakedExtent { disk, extent } => {
                write!(
                    f,
                    "disk {disk}: {extent} allocated but unreferenced (leaked)"
                )
            }
            FsckIssue::DoubleAllocated { disk, extent } => {
                write!(
                    f,
                    "disk {disk}: {extent} referenced by metadata but free in the bitmap"
                )
            }
        }
    }
}

/// Result of a consistency walk.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Violations found (empty = consistent).
    pub issues: Vec<FsckIssue>,
    /// Files examined.
    pub files_checked: u64,
    /// Data blocks examined.
    pub blocks_checked: u64,
}

impl FsckReport {
    /// Whether the walk found no violations.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

impl FileService {
    /// Walks the directory, every file index table and the allocation
    /// metadata, reporting structural inconsistencies. Read-only (beyond
    /// FIT cache population).
    ///
    /// # Errors
    ///
    /// Only fails on unexpected I/O errors while walking; *structural*
    /// problems are reported in the [`FsckReport`], not as errors.
    pub fn fsck(&mut self) -> Result<FsckReport, crate::FileServiceError> {
        let mut report = FsckReport::default();
        let disks = self.volume.disks().iter();
        let totals: Vec<u64> = disks.map(|d| d.geometry().total_sectors()).collect();
        let in_range = |disk: u16, extent: Extent| {
            let total = totals.get(disk as usize);
            total.is_some_and(|&t| extent.end() <= t)
        };
        let owned = self.store.walk(&mut self.volume, |fid, entry| {
            report.files_checked += 1;
            let Ok(entry) = entry else {
                report.issues.push(FsckIssue::UnreadableFit { fid });
                return Ok(());
            };
            let fit = &entry.fit;
            let descs = fit.descriptors();
            let blocks = descs.len() as u64;
            report.blocks_checked += blocks;
            if fit.attrs.size > blocks * rhodos_disk_service::BLOCK_SIZE as u64 {
                report.issues.push(FsckIssue::SizeBeyondBlocks {
                    fid,
                    size: fit.attrs.size,
                    blocks,
                });
            }
            // Verify the contiguity counts against the physical layout.
            for (i, d) in descs.iter().enumerate() {
                let c = d.contig as usize;
                // `None` when the count runs past the last block.
                let adjacent = descs.get(i..i + c).is_some_and(|run| {
                    let mut run = run.iter().zip(0..);
                    run.all(|(n, j)| n.disk == d.disk && n.addr == d.addr + j * FRAGS_PER_BLOCK)
                });
                if in_range(d.disk, d.block_extent()) && (c == 0 || !adjacent) {
                    report.issues.push(FsckIssue::BadContiguityCount {
                        fid,
                        index: i as u64,
                    });
                }
            }
            Ok(())
        })?;
        // (disk -> [(owner, extent)]) of everything that must not overlap.
        // Data and parity units are metadata-referenced storage alike:
        // unregistered they would read as leaks, and a bitmap that lost
        // one is a double-allocation hazard.
        let mut extents: BTreeMap<u16, Vec<(String, Extent)>> = BTreeMap::new();
        for (disk, extent, owner) in owned {
            match owner {
                ScrubOwner::Data { fid, block: index } | ScrubOwner::Parity { fid, index }
                    if !in_range(disk, extent) =>
                {
                    report
                        .issues
                        .push(FsckIssue::DescriptorOutOfRange { fid, index });
                }
                _ => extents
                    .entry(disk)
                    .or_default()
                    .push((owner.to_string(), extent)),
            }
        }
        // Cross-check the allocation bitmap against everything the
        // metadata references: allocated-but-unreferenced runs are leaks;
        // referenced-but-free runs are one allocation away from handing
        // the same storage to two owners.
        for (d, &total) in totals.iter().enumerate() {
            let mut referenced = vec![false; total as usize];
            if let Some(list) = extents.get(&(d as u16)) {
                for (_, e) in list {
                    for frag in e.start..e.end().min(total) {
                        referenced[frag as usize] = true;
                    }
                }
            }
            let bm = self.disk_mut(d).bitmap();
            let mut frag = 0u64;
            while frag < total {
                let allocated = !bm.is_free(frag);
                let refd = referenced[frag as usize];
                if allocated == refd {
                    frag += 1;
                    continue;
                }
                // Extend to the maximal run with the same disagreement.
                let start = frag;
                while frag < total
                    && bm.is_free(frag) != allocated
                    && referenced[frag as usize] == refd
                {
                    frag += 1;
                }
                let extent = Extent::new(start, frag - start);
                report.issues.push(if allocated {
                    FsckIssue::LeakedExtent {
                        disk: d as u16,
                        extent,
                    }
                } else {
                    FsckIssue::DoubleAllocated {
                        disk: d as u16,
                        extent,
                    }
                });
            }
        }
        // Overlap detection per disk.
        for (disk, mut list) in extents {
            list.sort_by_key(|(_, e)| e.start);
            for w in list.windows(2) {
                if w[0].1.overlaps(&w[1].1) {
                    report.issues.push(FsckIssue::OverlappingExtents {
                        disk,
                        a: w[0].clone(),
                        b: w[1].clone(),
                    });
                }
            }
        }
        Ok(report)
    }

    /// Runs [`Self::fsck`] and repairs what can be fixed without
    /// guessing: clamps sizes that exceed the blocks present, rebuilds
    /// contiguity counts from the physical layout, frees leaked extents
    /// and re-pins extents the metadata references but the bitmap lost.
    /// Overlapping extents, out-of-range descriptors and unreadable FITs
    /// have no safe automatic fix — they remain reported in `after`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the walk or from persisting repairs.
    pub fn fsck_repair(&mut self) -> Result<FsckRepairReport, crate::FileServiceError> {
        let before = self.fsck()?;
        let mut actions = Vec::new();
        let mut contig_rebuilt: Vec<FileId> = Vec::new();
        for issue in &before.issues {
            match issue {
                FsckIssue::SizeBeyondBlocks { fid, size, blocks } => {
                    let to = blocks * rhodos_disk_service::BLOCK_SIZE as u64;
                    self.clamp_size(*fid, to)?;
                    actions.push(FsckRepairAction::TruncatedSize {
                        fid: *fid,
                        from: *size,
                        to,
                    });
                }
                FsckIssue::BadContiguityCount { fid, .. } if !contig_rebuilt.contains(fid) => {
                    contig_rebuilt.push(*fid);
                    self.rebuild_contiguity(*fid)?;
                    actions.push(FsckRepairAction::RebuiltContiguity { fid: *fid });
                }
                FsckIssue::LeakedExtent { disk, extent } => {
                    self.disk_mut(*disk as usize).free(*extent)?;
                    actions.push(FsckRepairAction::FreedLeakedExtent {
                        disk: *disk,
                        extent: *extent,
                    });
                }
                FsckIssue::DoubleAllocated { disk, extent } => {
                    let repinned = self.disk_mut(*disk as usize).repin_extent(*extent);
                    if repinned {
                        actions.push(FsckRepairAction::RepinnedExtent {
                            disk: *disk,
                            extent: *extent,
                        });
                    }
                }
                _ => {}
            }
        }
        let after = self.fsck()?;
        Ok(FsckRepairReport {
            actions,
            before,
            after,
        })
    }
}

/// One repair applied by [`FileService::fsck_repair`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsckRepairAction {
    /// A recorded size exceeding the blocks present was clamped.
    TruncatedSize {
        /// File affected.
        fid: FileId,
        /// Size before the repair.
        from: u64,
        /// Size after the repair.
        to: u64,
    },
    /// Every contiguity count of the file was recomputed from the
    /// physical layout.
    RebuiltContiguity {
        /// File affected.
        fid: FileId,
    },
    /// A leaked extent was returned to free space.
    FreedLeakedExtent {
        /// Disk number.
        disk: u16,
        /// The freed run.
        extent: Extent,
    },
    /// A referenced-but-free extent was re-marked allocated.
    RepinnedExtent {
        /// Disk number.
        disk: u16,
        /// The re-pinned run.
        extent: Extent,
    },
}

impl fmt::Display for FsckRepairAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsckRepairAction::TruncatedSize { fid, from, to } => {
                write!(f, "{fid}: size clamped {from} -> {to}")
            }
            FsckRepairAction::RebuiltContiguity { fid } => {
                write!(f, "{fid}: contiguity counts rebuilt")
            }
            FsckRepairAction::FreedLeakedExtent { disk, extent } => {
                write!(f, "disk {disk}: leaked {extent} freed")
            }
            FsckRepairAction::RepinnedExtent { disk, extent } => {
                write!(f, "disk {disk}: {extent} re-pinned as allocated")
            }
        }
    }
}

/// Result of an [`FileService::fsck_repair`] run: what was fixed and
/// what the walk still reports afterwards.
#[derive(Debug, Clone, Default)]
pub struct FsckRepairReport {
    /// Repairs applied, in walk order.
    pub actions: Vec<FsckRepairAction>,
    /// The report that drove the repairs.
    pub before: FsckReport,
    /// The state after repairing (clean unless an issue has no safe
    /// automatic fix).
    pub after: FsckReport,
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn fresh_service_is_clean() {
        let mut f = fs();
        let report = f.fsck().unwrap();
        assert!(report.is_clean(), "{:?}", report.issues);
    }

    #[test]
    fn busy_service_stays_clean() {
        let mut f = fs();
        for i in 0..8 {
            let fid = f.create(ServiceType::Basic).unwrap();
            f.open(fid).unwrap();
            f.write(fid, 0, vec![i as u8; (i + 1) * 5000]).unwrap();
            if i % 2 == 0 {
                f.close(fid).unwrap();
            }
        }
        f.flush_all().unwrap();
        let report = f.fsck().unwrap();
        assert!(report.is_clean(), "{:?}", report.issues);
        assert_eq!(report.files_checked, 8);
    }

    #[test]
    fn clean_after_crash_recovery() {
        let mut f = fs();
        let fid = f.create(ServiceType::Basic).unwrap();
        f.open(fid).unwrap();
        f.write(fid, 0, vec![7u8; 100_000]).unwrap();
        f.flush_all().unwrap();
        f.simulate_crash();
        f.recover().unwrap();
        let report = f.fsck().unwrap();
        assert!(report.is_clean(), "{:?}", report.issues);
        assert!(report.blocks_checked >= 13);
    }

    #[test]
    fn leaked_extent_is_detected_and_repair_frees_it() {
        let mut f = fs();
        let fid = f.create(ServiceType::Basic).unwrap();
        f.open(fid).unwrap();
        f.write(fid, 0, vec![1u8; 20_000]).unwrap();
        f.flush_all().unwrap();
        // Allocate behind the file service's back: bitmap-allocated space
        // no metadata references.
        let free_before = f.disk_mut(0).free_fragments();
        let leak = f.disk_mut(0).allocate_contiguous(4).unwrap();
        let report = f.fsck().unwrap();
        assert!(report.issues.iter().any(
            |i| matches!(i, super::FsckIssue::LeakedExtent { disk: 0, extent } if *extent == leak)
        ));
        let repair = f.fsck_repair().unwrap();
        assert!(repair.after.is_clean(), "{:?}", repair.after.issues);
        assert!(repair
            .actions
            .iter()
            .any(|a| matches!(a, super::FsckRepairAction::FreedLeakedExtent { .. })));
        assert_eq!(f.disk_mut(0).free_fragments(), free_before);
    }

    #[test]
    fn double_allocated_extent_is_detected_and_repinned() {
        let mut f = fs();
        let fid = f.create(ServiceType::Basic).unwrap();
        f.open(fid).unwrap();
        f.write(fid, 0, vec![2u8; 40_000]).unwrap();
        f.flush_all().unwrap();
        // Free a referenced block behind the file service's back: the next
        // allocation could hand the same storage to a second file.
        let extent = f.block_descriptors(fid).unwrap()[2].block_extent();
        f.disk_mut(0).free(extent).unwrap();
        let report = f.fsck().unwrap();
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, super::FsckIssue::DoubleAllocated { disk: 0, .. })));
        let repair = f.fsck_repair().unwrap();
        assert!(repair.after.is_clean(), "{:?}", repair.after.issues);
        assert!(repair
            .actions
            .iter()
            .any(|a| matches!(a, super::FsckRepairAction::RepinnedExtent { .. })));
        // The file's data is intact and its storage is allocated again.
        assert_eq!(f.read(fid, 17_000, 4).unwrap(), vec![2u8; 4]);
    }

    #[test]
    fn repair_on_clean_service_is_a_no_op() {
        let mut f = fs();
        let fid = f.create(ServiceType::Basic).unwrap();
        f.open(fid).unwrap();
        f.write(fid, 0, vec![3u8; 9_000]).unwrap();
        f.flush_all().unwrap();
        let repair = f.fsck_repair().unwrap();
        assert!(repair.actions.is_empty());
        assert!(repair.before.is_clean() && repair.after.is_clean());
    }

    #[test]
    fn detects_corrupted_fit() {
        let mut f = fs();
        let fid = f.create(ServiceType::Basic).unwrap();
        f.open(fid).unwrap();
        f.write(fid, 0, b"data").unwrap();
        f.close(fid).unwrap();
        // Trash the FIT on the main disk AND its stable copy.
        let descs = f.block_descriptors(fid).unwrap();
        let fit_frag = descs[0].addr - 1;
        f.evict_caches().unwrap();
        f.disk_mut(0).disk_mut().corrupt_sector(fit_frag).unwrap();
        let stable = f.disk_mut(0).stable_mut().unwrap();
        stable.mirror_a_mut().corrupt_sector(2 * fit_frag).unwrap();
        stable.mirror_b_mut().corrupt_sector(2 * fit_frag).unwrap();
        let report = f.fsck().unwrap();
        assert!(!report.is_clean());
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, super::FsckIssue::UnreadableFit { .. })));
    }
}
