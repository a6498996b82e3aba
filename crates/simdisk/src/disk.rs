//! The simulated disk device.

use crate::checksum::{crc32, fnv1a, FNV_OFFSET};
use crate::clock::SimClock;
use crate::error::DiskError;
use crate::fault::{FaultInjector, WriteOutcome};
use crate::geometry::{DiskGeometry, SectorAddr};
use crate::model::LatencyModel;
use crate::stats::DiskStats;
use crate::SECTOR_SIZE;
use rhodos_buf::BlockBuf;
use std::collections::BTreeMap;
use std::ops::Range;

/// Kind of media fault found on a sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectorFaultKind {
    /// The sector is unreadable (hard media failure).
    BadSector,
    /// The sector reads, but its content fails CRC32 verification
    /// (silent corruption).
    ChecksumMismatch,
}

/// One latent fault located by [`SimDisk::scan_sectors`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectorFault {
    /// Logical sector address of the fault.
    pub addr: SectorAddr,
    /// What is wrong with it.
    pub kind: SectorFaultKind,
}

/// An in-memory disk with a track/sector geometry, a latency cost model,
/// per-operation statistics and fault injection.
///
/// One `SimDisk` stands in for one physical drive; the paper's disk service
/// runs "one disk server corresponding to each disk" (§4) on top of it.
///
/// Reads and writes operate on whole sectors (2 KiB — one RHODOS fragment).
/// Each call is one *disk reference*; the head position is tracked so that
/// contiguous multi-sector transfers are charged a single seek, which is the
/// physical basis for the paper's contiguity optimisations.
///
/// # Example
///
/// ```
/// use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock, SimDisk};
///
/// # fn main() -> Result<(), rhodos_simdisk::DiskError> {
/// let mut disk = SimDisk::new(DiskGeometry::small(), LatencyModel::default(), SimClock::new());
/// let frame = vec![7u8; 2 * 2048];
/// disk.write_sectors(10, &frame)?;
/// assert_eq!(disk.read_sectors(10, 2)?, frame);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SimDisk {
    geometry: DiskGeometry,
    model: LatencyModel,
    clock: SimClock,
    /// Sparse sector store: unwritten sectors read as zeros without
    /// consuming host memory, so gigabyte geometries are cheap to model.
    /// Slots beyond the addressable geometry are the spare-sector pool
    /// that bad sectors are reassigned to.
    data: Vec<Option<Box<Stored>>>,
    /// The content of every never-written sector: one shared zeroed
    /// sector that reads hand out views of.
    zero: BlockBuf,
    /// Persistent sector reassignments: logical address → spare slot. A
    /// remapped sector's original location is quarantined; reads and
    /// writes at the logical address go to the spare transparently.
    remap: BTreeMap<SectorAddr, SectorAddr>,
    /// Next unused spare slot (spares occupy
    /// `geometry.total_sectors()..data.len()`).
    spare_next: SectorAddr,
    head: SectorAddr,
    stats: DiskStats,
    faults: FaultInjector,
    /// Virtual time at which this spindle finishes its queued work — the
    /// per-spindle timeline that makes batch (parallel) accounting a
    /// makespan instead of a sum.
    free_at_us: u64,
    /// Nesting depth of [`Self::begin_batch`] calls.
    batch_depth: u32,
    /// Virtual time the current batch was issued (shared-clock reading at
    /// the outermost `begin_batch`).
    batch_start_us: u64,
}

/// One written sector as the platter holds it: the bytes and, beside
/// them, the sector's entry in the out-of-band CRC32 checksum lane (real
/// drives keep this in the sector trailer). The lane lives with the
/// bytes, not in tables of its own, so the slot table is the only
/// memory a disk takes for its capacity rather than for what was
/// written.
///
/// The bytes are a 2 KiB [`BlockBuf`] view of the buffer the sector was
/// written from: a write adopts the caller's allocation and a read hands
/// the view back, so the caller's handles, the caches above and the
/// platter may all share one allocation. Nothing can change it through
/// them — a `BlockBuf` is copy-on-write — and the one change the platter
/// makes itself, [`Stored::tamper`], detaches a private copy first.
///
/// The lane is sealed lazily. While `verified` is true the entry *is*
/// `crc32(bytes)`, stored in `sum` or, when `sum` is `None`, implied —
/// a write stores no checksum, just as real drives do ECC in hardware at
/// line speed. Only [`Stored::tamper`] changes bytes behind the lane's
/// back, and it computes the implied entry first, so whatever it changes
/// fails the check on the next read.
#[derive(Debug)]
struct Stored {
    bytes: BlockBuf,
    /// The checksum lane's entry, once sealed; `None` means
    /// `crc32(bytes)`, which only a verified sector can have.
    sum: Option<u32>,
    /// Verification memo: `true` while the content is known to match its
    /// checksum (written through the lane, never tampered with, or passed
    /// a verifying read), so reads and scrubs recompute nothing.
    verified: bool,
}

impl Stored {
    /// A sector as [`SimDisk::write_bufs`] lands it.
    fn written(bytes: BlockBuf) -> Box<Self> {
        Box::new(Self {
            bytes,
            sum: None,
            verified: true,
        })
    }

    /// The bytes, for a change that bypasses the checksum lane (fault
    /// injection): seals the lane's entry for the content as it stands,
    /// clears the verification memo, then detaches the sector from any
    /// allocation it shares, so the damage stays on the platter.
    fn tamper(&mut self) -> &mut [u8] {
        if self.verified && self.sum.is_none() {
            self.sum = Some(crc32(&self.bytes));
        }
        self.verified = false;
        self.bytes.make_mut()
    }

    /// Whether the content matches its checksum; a pass is memoised.
    fn verify(&mut self) -> bool {
        self.verified = self.verified || self.sum == Some(crc32(&self.bytes));
        self.verified
    }
}

impl SimDisk {
    /// Creates a zero-filled disk.
    pub fn new(geometry: DiskGeometry, model: LatencyModel, clock: SimClock) -> Self {
        let total = geometry.total_sectors();
        // Spare pool for sector reassignment: ~1.5% of capacity, the
        // ballpark real drives reserve for grown defects.
        let slots = total + (total / 64).max(8);
        // Written slot by slot rather than asked for zeroed: a zeroed
        // allocation is resident only where the allocator could hand out
        // fresh pages, and peak memory would differ from run to run.
        let data = (0..slots).map(|_| None).collect();
        Self {
            geometry,
            model,
            clock,
            data,
            zero: BlockBuf::zeroed(SECTOR_SIZE),
            remap: BTreeMap::new(),
            spare_next: total,
            head: 0,
            stats: DiskStats::default(),
            faults: FaultInjector::new(),
            free_at_us: 0,
            batch_depth: 0,
            batch_start_us: 0,
        }
    }

    /// Storage slot where the logical sector `addr` currently lives —
    /// `addr` itself unless the sector has been reassigned to a spare.
    fn resolve(&self, addr: SectorAddr) -> SectorAddr {
        self.remap.get(&addr).copied().unwrap_or(addr)
    }

    /// Whether the slot's content passes its checksum — a never-written
    /// slot has nothing to fail.
    fn verifies(&mut self, slot: usize) -> bool {
        self.data[slot]
            .as_mut()
            .is_none_or(|sector| sector.verify())
    }

    /// The slot's bytes for fault injection, through [`Stored::tamper`]; a
    /// never-written slot is materialised as zeros first.
    fn tamper(&mut self, slot: usize) -> &mut [u8] {
        self.data[slot]
            .get_or_insert_with(|| Stored::written(self.zero.clone()))
            .tamper()
    }

    /// The platter's view of logical sector `addr`.
    fn view(&self, addr: SectorAddr) -> &BlockBuf {
        match &self.data[self.resolve(addr) as usize] {
            Some(sector) => &sector.bytes,
            None => &self.zero,
        }
    }

    /// Reassigns logical sector `logical` (whose current slot `bad_slot`
    /// is a media fault) to a fresh spare slot, quarantining the
    /// original. Falls back to clearing the fault mark in place when the
    /// spare pool is exhausted (legacy behaviour, so writes still heal).
    fn reassign(&mut self, logical: SectorAddr, bad_slot: SectorAddr) -> SectorAddr {
        if self.spare_next < self.data.len() as u64 {
            let spare = self.spare_next;
            self.spare_next += 1;
            self.remap.insert(logical, spare);
            self.stats.remapped_sectors += 1;
            spare
        } else {
            self.faults.clear_bad_sector(bad_slot);
            bad_slot
        }
    }

    /// The disk's geometry.
    pub fn geometry(&self) -> DiskGeometry {
        self.geometry
    }

    /// The latency model in force.
    pub fn model(&self) -> LatencyModel {
        self.model
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Mutable access to the fault plan.
    pub fn faults_mut(&mut self) -> &mut FaultInjector {
        &mut self.faults
    }

    /// Read-only access to the fault plan.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Repairs a crashed disk (bad sectors stay bad).
    pub fn repair(&mut self) {
        self.faults.repair();
    }

    fn check_range(&self, start: SectorAddr, count: u64) -> Result<(), DiskError> {
        if !self.geometry.contains_range(start, count) {
            return Err(DiskError::OutOfRange {
                start,
                count,
                total: self.geometry.total_sectors(),
            });
        }
        Ok(())
    }

    /// Current head position (the last sector touched).
    pub fn head(&self) -> SectorAddr {
        self.head
    }

    /// Virtual time at which this spindle finishes its queued work.
    pub fn free_at_us(&self) -> u64 {
        self.free_at_us
    }

    /// Enters batch accounting: until the matching [`Self::end_batch`],
    /// operations extend this spindle's private timeline (`free_at_us`)
    /// without advancing the shared clock. A coordinator that batches
    /// several spindles and then ends every batch gets **makespan**
    /// accounting — the clock moves to the *max* of the spindle timelines,
    /// not their sum — which is how truly parallel hardware behaves.
    ///
    /// Calls never read the shared clock while batched, so the order in
    /// which the coordinator issues the spindles' batches does not matter.
    pub fn begin_batch(&mut self) {
        if self.batch_depth == 0 {
            self.batch_start_us = self.clock.now_us();
        }
        self.batch_depth += 1;
    }

    /// Leaves batch accounting; the outermost call publishes this
    /// spindle's finish time to the shared clock (monotonically — the
    /// clock never moves backwards).
    pub fn end_batch(&mut self) {
        debug_assert!(self.batch_depth > 0, "end_batch without begin_batch");
        self.batch_depth = self.batch_depth.saturating_sub(1);
        if self.batch_depth == 0 {
            self.clock.advance_to(self.free_at_us);
        }
    }

    fn charge(&mut self, to: SectorAddr, count: u64) {
        let cost = self
            .model
            .access_cost_us(&self.geometry, self.head, to, count);
        let (from, to_track) = (
            self.geometry.track_of(self.head),
            self.geometry.track_of(to),
        );
        if from != to_track {
            self.stats.seeks += 1;
            self.stats.seek_tracks += from.abs_diff(to_track);
        }
        self.stats.busy_us += cost;
        // The spindle starts this transfer when both the request has been
        // issued and the platter is free; batched requests were all issued
        // at `batch_start_us`, serial ones at the current shared time.
        let issued_at = if self.batch_depth > 0 {
            self.batch_start_us
        } else {
            self.clock.now_us()
        };
        self.free_at_us = issued_at.max(self.free_at_us) + cost;
        if self.batch_depth == 0 {
            self.clock.advance_to(self.free_at_us);
        }
        self.head = to + count.saturating_sub(1);
    }

    /// Reads `count` sectors starting at `start` in **one disk reference**.
    ///
    /// The result is [`SectorViews::join`] of the whole range: the view the
    /// sectors were written from when they are adjacent views of one
    /// allocation, otherwise a gather-copy into a fresh one (counted in
    /// [`DiskStats::bytes_copied`]).
    ///
    /// # Errors
    ///
    /// As [`Self::read_views`].
    pub fn read_sectors(&mut self, start: SectorAddr, count: u64) -> Result<BlockBuf, DiskError> {
        Ok(self.read_views(start, count)?.join(count, |_| {}))
    }

    /// Reads `count` sectors starting at `start` in **one disk reference**
    /// and hands out each sector as the platter holds it: a 2 KiB view of
    /// the buffer it was written from (never-written sectors share one
    /// zeroed sector). Charges, verifies and fails exactly like
    /// [`Self::read_sectors`], before the first view is handed out.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::Crashed`] if the disk is crashed,
    /// [`DiskError::OutOfRange`] for an invalid range,
    /// [`DiskError::BadSector`] if any sector in the range has a media
    /// fault, and [`DiskError::ChecksumMismatch`] if any sector fails
    /// CRC32 verification (the error names the first such sector).
    pub fn read_views(
        &mut self,
        start: SectorAddr,
        count: u64,
    ) -> Result<SectorViews<'_>, DiskError> {
        if self.faults.is_crashed() {
            return Err(DiskError::Crashed);
        }
        self.check_range(start, count)?;
        self.stats.read_ops += 1;
        self.charge(start, count);
        for s in start..start + count {
            let slot = self.resolve(s) as usize;
            if self.faults.is_bad(slot as u64) {
                self.stats.media_errors += 1;
                return Err(DiskError::BadSector(s));
            }
            if !self.verifies(slot) {
                self.stats.checksum_mismatches += 1;
                return Err(DiskError::ChecksumMismatch(s));
            }
        }
        self.stats.sector_reads += count;
        Ok(SectorViews {
            disk: self,
            addrs: start..start + count,
        })
    }

    /// Scrub scan: reads `count` sectors starting at `start` in one disk
    /// reference (charging normal read latency) and reports every latent
    /// fault in the range — bad sectors and checksum mismatches — instead
    /// of aborting at the first one. The background scrubber walks
    /// allocated extents through this call so faults are found and
    /// repaired before a client trips over them.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::Crashed`] or [`DiskError::OutOfRange`];
    /// per-sector media faults are what the scan is *for* and are
    /// returned in the fault list, not as errors.
    pub fn scan_sectors(
        &mut self,
        start: SectorAddr,
        count: u64,
    ) -> Result<Vec<SectorFault>, DiskError> {
        if self.faults.is_crashed() {
            return Err(DiskError::Crashed);
        }
        self.check_range(start, count)?;
        self.stats.read_ops += 1;
        self.charge(start, count);
        self.stats.sector_reads += count;
        let mut out = Vec::new();
        for s in start..start + count {
            let slot = self.resolve(s) as usize;
            if self.faults.is_bad(slot as u64) {
                self.stats.media_errors += 1;
                out.push(SectorFault {
                    addr: s,
                    kind: SectorFaultKind::BadSector,
                });
                continue;
            }
            if !self.verifies(slot) {
                self.stats.checksum_mismatches += 1;
                out.push(SectorFault {
                    addr: s,
                    kind: SectorFaultKind::ChecksumMismatch,
                });
            }
        }
        Ok(out)
    }

    /// Writes `data` (a whole number of sectors) starting at `start` in one
    /// disk reference: [`Self::write_bufs`] of one copy of `data`.
    ///
    /// # Errors
    ///
    /// As [`Self::write_bufs`].
    pub fn write_sectors(
        &mut self,
        start: SectorAddr,
        data: &[u8],
    ) -> Result<WriteOutcome, DiskError> {
        self.write_bufs(start, &[BlockBuf::from(data)])
    }

    /// Writes the concatenation of `parts`, each a whole number of
    /// sectors, starting at `start` in one disk reference. The platter
    /// adopts the buffers: each sector stores a view of its part, and no
    /// byte is copied.
    ///
    /// Returns the [`WriteOutcome`] — a crash injected mid-write leaves a
    /// *torn* write: only a prefix of the sectors lands on the platter.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::Crashed`] if the disk was already crashed,
    /// [`DiskError::UnalignedBuffer`] if a part's length is not a multiple
    /// of [`SECTOR_SIZE`], and [`DiskError::OutOfRange`] for an invalid
    /// range.
    pub fn write_bufs(
        &mut self,
        start: SectorAddr,
        parts: &[BlockBuf],
    ) -> Result<WriteOutcome, DiskError> {
        if let Some(p) = parts.iter().find(|p| !p.len().is_multiple_of(SECTOR_SIZE)) {
            return Err(DiskError::UnalignedBuffer { len: p.len() });
        }
        let count = parts.iter().map(|p| p.len() / SECTOR_SIZE).sum::<usize>() as u64;
        if self.faults.is_crashed() {
            return Err(DiskError::Crashed);
        }
        self.check_range(start, count)?;
        let outcome = self.faults.admit_write(count);
        let landed = match outcome {
            WriteOutcome::Complete => count,
            WriteOutcome::Torn(n) => n,
            WriteOutcome::Dropped => return Err(DiskError::Crashed),
        };
        self.stats.write_ops += 1;
        self.charge(start, landed.max(1));
        self.stats.sector_writes += landed;
        let sectors = parts.iter().flat_map(|p| {
            (0..p.len())
                .step_by(SECTOR_SIZE)
                .map(|a| p.slice(a..a + SECTOR_SIZE))
        });
        for (logical, bytes) in (start..start + landed).zip(sectors) {
            // Writing a bad sector reassigns it to a spare (persistent
            // remap; the original is quarantined): the fresh copy is
            // readable again at the same logical address.
            let mut slot = self.resolve(logical);
            if self.faults.is_bad(slot) {
                slot = self.reassign(logical, slot);
            }
            // A rewrite reuses its slot's box and swaps the view.
            match &mut self.data[slot as usize] {
                Some(sector) => {
                    sector.bytes = bytes;
                    sector.sum = None;
                    sector.verified = true;
                }
                empty => *empty = Some(Stored::written(bytes)),
            }
        }
        if let WriteOutcome::Torn(_) = outcome {
            return Err(DiskError::Crashed);
        }
        Ok(outcome)
    }

    /// Overwrites a sector with garbage and marks it as a media fault —
    /// models platter damage for recovery experiments.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::OutOfRange`] if `addr` is not on the disk.
    pub fn corrupt_sector(&mut self, addr: SectorAddr) -> Result<(), DiskError> {
        self.check_range(addr, 1)?;
        let slot = self.resolve(addr);
        for b in self.tamper(slot as usize) {
            *b ^= 0xFF;
        }
        self.faults.mark_bad_sector(slot);
        Ok(())
    }

    /// Flips a sector's bytes *without* marking it bad or updating the
    /// checksum lane — models silent (latent) corruption: the platter
    /// happily returns wrong bytes, and only CRC32 verification on read
    /// (or a scrub scan) can tell.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::OutOfRange`] if `addr` is not on the disk.
    pub fn silently_corrupt_sector(&mut self, addr: SectorAddr) -> Result<(), DiskError> {
        self.check_range(addr, 1)?;
        // The checksum keeps describing the pre-corruption content (a
        // never-written sector's, its zero content), so the flip is caught.
        for b in self.tamper(self.resolve(addr) as usize) {
            *b ^= 0x55;
        }
        Ok(())
    }

    /// Whether the logical sector currently fails on read due to a media
    /// fault, seen through the remap table (a reassigned sector is healthy
    /// even though its quarantined original is still bad).
    pub fn sector_faulty(&self, addr: SectorAddr) -> bool {
        self.faults.is_bad(self.resolve(addr))
    }

    /// Whether `addr` has been reassigned to a spare sector.
    pub fn is_remapped(&self, addr: SectorAddr) -> bool {
        self.remap.contains_key(&addr)
    }

    /// Number of sectors persistently reassigned to spares.
    pub fn remapped_sector_count(&self) -> usize {
        self.remap.len()
    }

    /// Spare sectors still available for reassignment.
    pub fn spare_sectors_remaining(&self) -> u64 {
        self.data.len() as u64 - self.spare_next
    }

    /// Reads a sector without charging latency, counting a reference, or
    /// honouring faults. Intended for test assertions and recovery scans
    /// that model an offline fsck pass.
    pub fn peek_sector(&self, addr: SectorAddr) -> Result<&[u8], DiskError> {
        self.check_range(addr, 1)?;
        Ok(self.view(addr))
    }

    /// Whether the sector has never been written (reads as zeros). O(1) —
    /// used by recovery scans to skip untouched regions cheaply.
    pub fn sector_untouched(&self, addr: SectorAddr) -> bool {
        self.data
            .get(self.resolve(addr) as usize)
            .is_none_or(|s| s.is_none())
    }

    /// FNV-1a fingerprint of the whole platter image (untouched sectors
    /// hash as zeros, exactly as they read). Two disks with equal
    /// fingerprints hold byte-identical images for practical purposes —
    /// the replication suite uses this to prove a resynchronised replica
    /// converged; use [`Self::first_image_divergence`] to locate a
    /// mismatch.
    pub fn image_fingerprint(&self) -> u64 {
        (0..self.geometry().total_sectors()).fold(FNV_OFFSET, |h, addr| fnv1a(h, self.view(addr)))
    }

    /// First sector whose bytes differ from `other`'s image, if any.
    /// Geometries must match (replicas are formatted in lock-step);
    /// differing geometries report sector 0.
    pub fn first_image_divergence(&self, other: &SimDisk) -> Option<SectorAddr> {
        if self.geometry().total_sectors() != other.geometry().total_sectors() {
            return Some(0);
        }
        (0..self.geometry().total_sectors()).find(|&addr| {
            self.peek_sector(addr).expect("in range") != other.peek_sector(addr).expect("in range")
        })
    }
}

/// The sector views of one verified read, in address order (see
/// [`SimDisk::read_views`]). Each item is a refcount bump, not a copy.
#[derive(Debug)]
pub struct SectorViews<'a> {
    disk: &'a mut SimDisk,
    addrs: Range<SectorAddr>,
}

impl Iterator for SectorViews<'_> {
    type Item = BlockBuf;

    fn next(&mut self) -> Option<BlockBuf> {
        let addr = self.addrs.next()?;
        Some(self.disk.view(addr).clone())
    }
}

impl SectorViews<'_> {
    /// The next `count` sectors as one buffer, through
    /// [`BlockBuf::join`]: a view when they are adjacent views of one
    /// allocation (counted in [`DiskStats::bytes_borrowed`]), else a
    /// gather-copy (counted in [`DiskStats::bytes_copied`]). `each` sees
    /// every sector's view on the way.
    pub fn join(&mut self, count: u64, mut each: impl FnMut(&BlockBuf)) -> BlockBuf {
        let (joined, copied) = BlockBuf::join(self.take(count as usize).inspect(|v| each(v)));
        let stats = &mut self.disk.stats;
        let counter = if copied {
            &mut stats.bytes_copied
        } else {
            &mut stats.bytes_borrowed
        };
        *counter += joined.len() as u64;
        joined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> SimDisk {
        SimDisk::new(
            DiskGeometry::small(),
            LatencyModel::default(),
            SimClock::new(),
        )
    }

    #[test]
    fn image_fingerprint_tracks_divergence() {
        let mut a = disk();
        let mut b = disk();
        assert_eq!(a.image_fingerprint(), b.image_fingerprint());
        assert_eq!(a.first_image_divergence(&b), None);
        a.write_sectors(7, &vec![9u8; SECTOR_SIZE]).unwrap();
        assert_ne!(a.image_fingerprint(), b.image_fingerprint());
        assert_eq!(a.first_image_divergence(&b), Some(7));
        // Writing the same bytes re-converges; explicit zeros equal
        // never-touched sectors.
        b.write_sectors(7, &vec![9u8; SECTOR_SIZE]).unwrap();
        b.write_sectors(3, &vec![0u8; SECTOR_SIZE]).unwrap();
        assert_eq!(a.image_fingerprint(), b.image_fingerprint());
        assert_eq!(a.first_image_divergence(&b), None);
    }

    #[test]
    fn round_trip_multi_sector() {
        let mut d = disk();
        let data: Vec<u8> = (0..3 * SECTOR_SIZE).map(|i| (i % 251) as u8).collect();
        d.write_sectors(4, &data).unwrap();
        assert_eq!(d.read_sectors(4, 3).unwrap(), data);
    }

    #[test]
    fn one_call_is_one_reference() {
        let mut d = disk();
        d.write_sectors(0, &vec![1u8; 8 * SECTOR_SIZE]).unwrap();
        d.read_sectors(0, 8).unwrap();
        assert_eq!(d.stats().read_ops, 1);
        assert_eq!(d.stats().write_ops, 1);
        assert_eq!(d.stats().sector_reads, 8);
    }

    #[test]
    fn unaligned_write_rejected() {
        let mut d = disk();
        assert!(matches!(
            d.write_sectors(0, &[0u8; 100]),
            Err(DiskError::UnalignedBuffer { len: 100 })
        ));
    }

    #[test]
    fn a_write_adopts_its_buffers_and_a_read_hands_them_back() {
        let mut d = disk();
        let whole = BlockBuf::from((0..4 * SECTOR_SIZE).map(|i| i as u8).collect::<Vec<_>>());
        let parts = [
            whole.slice(0..SECTOR_SIZE),
            whole.slice(SECTOR_SIZE..4 * SECTOR_SIZE),
        ];
        d.write_bufs(8, &parts).unwrap();
        assert_eq!(d.stats().write_ops, 1);
        // Adjacent views of one allocation: the read is that allocation.
        let back = d.read_sectors(8, 4).unwrap();
        assert_eq!(back, whole);
        assert_eq!(back.as_ptr(), whole.as_ptr());
        assert_eq!(d.stats().bytes_copied, 0);
        assert_eq!(d.stats().bytes_borrowed, 4 * SECTOR_SIZE as u64);
        // Sectors from two allocations are gathered into a fresh one.
        d.write_sectors(12, &[7u8; SECTOR_SIZE]).unwrap();
        assert_eq!(d.read_sectors(11, 2).unwrap()[SECTOR_SIZE], 7);
        assert_eq!(d.stats().bytes_copied, 2 * SECTOR_SIZE as u64);
    }

    #[test]
    fn never_written_sectors_are_views_of_one_zero_sector() {
        let mut d = disk();
        let views: Vec<BlockBuf> = d.read_views(40, 3).unwrap().collect();
        assert!(views.iter().all(|v| v.as_ptr() == views[0].as_ptr()));
        assert!(views
            .iter()
            .all(|v| v.len() == SECTOR_SIZE && v.iter().all(|&b| b == 0)));
        assert_eq!(d.stats().sector_reads, 3);
    }

    #[test]
    fn a_part_that_is_not_whole_sectors_is_rejected() {
        let mut d = disk();
        let parts = [BlockBuf::zeroed(SECTOR_SIZE), BlockBuf::zeroed(100)];
        assert_eq!(
            d.write_bufs(0, &parts),
            Err(DiskError::UnalignedBuffer { len: 100 })
        );
        assert_eq!(d.stats().write_ops, 0);
    }

    #[test]
    fn fault_injection_detaches_a_shared_sector() {
        for loud in [false, true] {
            let mut d = disk();
            let kept = BlockBuf::from(vec![0x3Cu8; 2 * SECTOR_SIZE]);
            d.write_bufs(4, std::slice::from_ref(&kept)).unwrap();
            let read = d.read_sectors(4, 2).unwrap();
            let zeros = d.read_sectors(6, 1).unwrap();
            if loud {
                d.corrupt_sector(5).unwrap();
                d.corrupt_sector(6).unwrap();
            } else {
                d.silently_corrupt_sector(5).unwrap();
                d.silently_corrupt_sector(6).unwrap();
            }
            // The platter is damaged; no handle to what it shared is.
            assert!(d.read_sectors(4, 2).is_err());
            assert!(d.read_sectors(6, 1).is_err());
            assert!(kept.iter().chain(read.iter()).all(|&b| b == 0x3C));
            assert!(zeros.iter().all(|&b| b == 0));
            assert!(d.read_sectors(7, 1).unwrap().iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = disk();
        let total = d.geometry().total_sectors();
        assert!(matches!(
            d.read_sectors(total, 1),
            Err(DiskError::OutOfRange { .. })
        ));
    }

    #[test]
    fn bad_sector_fails_read_and_counts() {
        let mut d = disk();
        d.corrupt_sector(2).unwrap();
        assert_eq!(d.read_sectors(2, 1), Err(DiskError::BadSector(2)));
        assert_eq!(d.stats().media_errors, 1);
    }

    #[test]
    fn silent_corruption_caught_by_checksum() {
        let mut d = disk();
        d.write_sectors(5, &vec![3u8; SECTOR_SIZE]).unwrap();
        d.read_sectors(5, 1).unwrap();
        d.silently_corrupt_sector(5).unwrap();
        // Not a bad sector — the platter reads; the checksum lane objects.
        assert!(!d.sector_faulty(5));
        assert_eq!(d.read_sectors(5, 1), Err(DiskError::ChecksumMismatch(5)));
        assert_eq!(d.stats().checksum_mismatches, 1);
        assert_eq!(d.stats().media_errors, 0);
    }

    #[test]
    fn silent_corruption_of_untouched_sector_detected() {
        let mut d = disk();
        d.silently_corrupt_sector(9).unwrap();
        assert_eq!(d.read_sectors(9, 1), Err(DiskError::ChecksumMismatch(9)));
    }

    #[test]
    fn rewrite_clears_checksum_mismatch() {
        let mut d = disk();
        d.write_sectors(5, &vec![3u8; SECTOR_SIZE]).unwrap();
        d.silently_corrupt_sector(5).unwrap();
        d.write_sectors(5, &vec![4u8; SECTOR_SIZE]).unwrap();
        assert!(d.read_sectors(5, 1).unwrap().iter().all(|&b| b == 4));
    }

    #[test]
    fn a_rewrite_in_place_leaves_no_stale_checksum() {
        let mut d = disk();
        d.write_sectors(5, &vec![0x11u8; SECTOR_SIZE]).unwrap();
        // Seals crc32(0x11…) and leaves 0x44… on the platter.
        d.silently_corrupt_sector(5).unwrap();
        // The rewrite lands in the same slot and reads back clean.
        d.write_sectors(5, &vec![0x44u8; SECTOR_SIZE]).unwrap();
        assert!(!d.is_remapped(5));
        assert!(d.read_sectors(5, 1).unwrap().iter().all(|&b| b == 0x44));
        // Flipping the new content gives back the old bytes: only a
        // checksum of the new content catches it; a stale one would not.
        d.silently_corrupt_sector(5).unwrap();
        assert_eq!(d.read_sectors(5, 1), Err(DiskError::ChecksumMismatch(5)));
        assert_eq!(d.stats().checksum_mismatches, 1);
    }

    #[test]
    fn a_second_corruption_keeps_the_first_sealed_checksum() {
        let mut d = disk();
        d.write_sectors(5, &vec![0x11u8; SECTOR_SIZE]).unwrap();
        d.silently_corrupt_sector(5).unwrap();
        d.corrupt_sector(5).unwrap();
        // Once the bad mark is lifted the content (0x11 ^ 0x55 ^ 0xFF) is
        // checked against the checksum of the written 0x11…, which it fails.
        d.faults_mut().clear_bad_sector(5);
        assert_eq!(d.read_sectors(5, 1), Err(DiskError::ChecksumMismatch(5)));
        // Two silent flips cancel: the first seal still describes what is
        // on the platter, so a reseal at the second flip would be a false
        // alarm.
        d.write_sectors(6, &vec![0x22u8; SECTOR_SIZE]).unwrap();
        d.silently_corrupt_sector(6).unwrap();
        d.silently_corrupt_sector(6).unwrap();
        assert!(d.read_sectors(6, 1).unwrap().iter().all(|&b| b == 0x22));
    }

    #[test]
    fn writing_bad_sector_reassigns_to_spare() {
        let mut d = disk();
        d.corrupt_sector(7).unwrap();
        assert!(d.sector_faulty(7));
        let spares = d.spare_sectors_remaining();
        d.write_sectors(7, &vec![0xCDu8; SECTOR_SIZE]).unwrap();
        // The logical sector is healthy again, served from a spare; the
        // original stays quarantined in the fault set.
        assert!(d.is_remapped(7));
        assert!(!d.sector_faulty(7));
        assert!(d.faults().is_bad(7));
        assert_eq!(d.spare_sectors_remaining(), spares - 1);
        assert_eq!(d.stats().remapped_sectors, 1);
        assert!(d.read_sectors(7, 1).unwrap().iter().all(|&b| b == 0xCD));
        // Reassignment survives crash repair (it is persistent).
        d.faults_mut().crash_now();
        d.repair();
        assert!(d.read_sectors(7, 1).unwrap().iter().all(|&b| b == 0xCD));
    }

    #[test]
    fn respawned_fault_on_spare_reassigns_again() {
        let mut d = disk();
        d.corrupt_sector(7).unwrap();
        d.write_sectors(7, &vec![1u8; SECTOR_SIZE]).unwrap();
        // The spare itself grows a defect.
        d.corrupt_sector(7).unwrap();
        assert!(d.sector_faulty(7));
        d.write_sectors(7, &vec![2u8; SECTOR_SIZE]).unwrap();
        assert!(!d.sector_faulty(7));
        assert_eq!(d.stats().remapped_sectors, 2);
        assert!(d.read_sectors(7, 1).unwrap().iter().all(|&b| b == 2));
    }

    #[test]
    fn fingerprint_follows_logical_content_across_remap() {
        let mut a = disk();
        let mut b = disk();
        a.write_sectors(3, &vec![8u8; SECTOR_SIZE]).unwrap();
        b.write_sectors(3, &vec![8u8; SECTOR_SIZE]).unwrap();
        // Replica `a` suffers a fault and heals by reassignment; the
        // logical images must still compare equal.
        a.corrupt_sector(3).unwrap();
        a.write_sectors(3, &vec![8u8; SECTOR_SIZE]).unwrap();
        assert!(a.is_remapped(3));
        assert_eq!(a.image_fingerprint(), b.image_fingerprint());
        assert_eq!(a.first_image_divergence(&b), None);
    }

    #[test]
    fn scan_sectors_reports_all_faults_without_aborting() {
        let mut d = disk();
        d.write_sectors(0, &vec![1u8; 8 * SECTOR_SIZE]).unwrap();
        d.corrupt_sector(2).unwrap();
        d.silently_corrupt_sector(5).unwrap();
        let faults = d.scan_sectors(0, 8).unwrap();
        assert_eq!(
            faults,
            vec![
                SectorFault {
                    addr: 2,
                    kind: SectorFaultKind::BadSector
                },
                SectorFault {
                    addr: 5,
                    kind: SectorFaultKind::ChecksumMismatch
                },
            ]
        );
        // One disk reference, latency charged like a read.
        assert!(d.stats().busy_us > 0);
        let clean = d.scan_sectors(6, 2).unwrap();
        assert!(clean.is_empty());
    }

    #[test]
    fn torn_write_leaves_prefix() {
        let mut d = disk();
        d.write_sectors(0, &vec![0xAAu8; 4 * SECTOR_SIZE]).unwrap();
        d.faults_mut().crash_after_sector_writes(2);
        let res = d.write_sectors(0, &vec![0xBBu8; 4 * SECTOR_SIZE]);
        assert_eq!(res, Err(DiskError::Crashed));
        // First two sectors new, last two old.
        assert!(d.peek_sector(0).unwrap().iter().all(|&b| b == 0xBB));
        assert!(d.peek_sector(1).unwrap().iter().all(|&b| b == 0xBB));
        assert!(d.peek_sector(2).unwrap().iter().all(|&b| b == 0xAA));
        assert!(d.peek_sector(3).unwrap().iter().all(|&b| b == 0xAA));
        // Repair restores service with data intact.
        d.repair();
        assert!(d.read_sectors(3, 1).unwrap().iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn clock_advances_with_io() {
        let mut d = disk();
        let t0 = d.clock().now_us();
        d.read_sectors(100, 4).unwrap();
        assert!(d.clock().now_us() > t0);
        assert_eq!(d.stats().busy_us, d.clock().now_us() - t0);
    }

    #[test]
    fn batched_spindles_advance_clock_by_makespan_not_sum() {
        let clock = SimClock::new();
        let mut a = SimDisk::new(
            DiskGeometry::small(),
            LatencyModel::default(),
            clock.clone(),
        );
        let mut b = SimDisk::new(
            DiskGeometry::small(),
            LatencyModel::default(),
            clock.clone(),
        );
        a.begin_batch();
        b.begin_batch();
        a.read_sectors(0, 8).unwrap();
        b.read_sectors(512, 2).unwrap();
        // Batched work does not move the shared clock...
        assert_eq!(clock.now_us(), 0);
        a.end_batch();
        b.end_batch();
        // ...ending the batch publishes the slowest spindle's finish time.
        let makespan = a.stats().busy_us.max(b.stats().busy_us);
        let sum = a.stats().busy_us + b.stats().busy_us;
        assert_eq!(clock.now_us(), makespan);
        assert!(clock.now_us() < sum);
    }

    #[test]
    fn serial_accounting_unchanged_by_timeline() {
        let clock = SimClock::new();
        let mut a = SimDisk::new(
            DiskGeometry::small(),
            LatencyModel::default(),
            clock.clone(),
        );
        let mut b = SimDisk::new(
            DiskGeometry::small(),
            LatencyModel::default(),
            clock.clone(),
        );
        a.read_sectors(0, 4).unwrap();
        b.read_sectors(0, 4).unwrap();
        // Un-batched ops on distinct spindles still serialise on the clock.
        assert_eq!(clock.now_us(), a.stats().busy_us + b.stats().busy_us);
    }

    #[test]
    fn contiguous_read_cheaper_than_scattered() {
        let mut a = disk();
        let mut b = disk();
        // 8 contiguous sectors in one reference.
        a.read_sectors(0, 8).unwrap();
        // 8 scattered single-sector reads across tracks.
        for i in 0..8 {
            b.read_sectors(i * 64, 1).unwrap();
        }
        assert!(a.stats().busy_us < b.stats().busy_us);
        assert!(a.stats().seeks < b.stats().seeks);
    }

    #[test]
    fn seek_tracks_sum_the_tracks_each_seek_crosses() {
        let mut d = disk();
        let spt = d.geometry().sectors_per_track();
        d.read_sectors(0, 1).unwrap();
        d.read_sectors(1, 1).unwrap(); // same track: no seek
        d.read_sectors(5 * spt, 1).unwrap(); // out 5 tracks
        d.read_sectors(2 * spt + 3, 1).unwrap(); // back 3
        assert_eq!(d.stats().seeks, 2);
        assert_eq!(d.stats().seek_tracks, 8);
    }
}
