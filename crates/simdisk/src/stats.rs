//! Per-disk operation statistics.
//!
//! The paper's performance claims are phrased in terms of *numbers of disk
//! references* ("for files up to half a megabyte, the maximum number of disk
//! references is two"), seeks avoided by contiguity, and track locality.
//! [`DiskStats`] records exactly those quantities, and the experiment
//! harness reports them alongside simulated time.

/// Counters accumulated by a [`SimDisk`](crate::SimDisk).
///
/// A *reference* is one `read_sectors`/`write_sectors` call — the unit the
/// paper counts when it says an operation "can be accomplished in one single
/// reference to the disk" (§4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Read operations (disk references for reading).
    pub read_ops: u64,
    /// Write operations (disk references for writing).
    pub write_ops: u64,
    /// Individual sectors read.
    pub sector_reads: u64,
    /// Individual sectors written.
    pub sector_writes: u64,
    /// Head movements that crossed tracks.
    pub seeks: u64,
    /// Tracks those head movements crossed, summed: `seek_tracks / seeks`
    /// is the mean seek length, which placement governs.
    pub seek_tracks: u64,
    /// Total virtual time spent in disk operations, microseconds.
    pub busy_us: u64,
    /// Reads that hit a bad (unreadable) sector.
    pub media_errors: u64,
    /// Reads whose sector content failed CRC32 verification (silent
    /// corruption caught by the checksum lane).
    pub checksum_mismatches: u64,
    /// Sectors persistently reassigned to spare sectors (the original is
    /// quarantined).
    pub remapped_sectors: u64,
    /// Bytes a read gather-copied into a fresh buffer because its sectors
    /// were not adjacent views of one allocation (the cost the zero-copy
    /// pipeline tracks).
    pub bytes_copied: u64,
    /// Bytes a read handed out as one shared
    /// [`BlockBuf`](rhodos_buf::BlockBuf) view, without copying.
    pub bytes_borrowed: u64,
}

impl DiskStats {
    /// Total disk references (reads + writes).
    pub fn total_ops(&self) -> u64 {
        self.read_ops + self.write_ops
    }

    /// Total bytes moved to or from the platter.
    pub fn bytes_transferred(&self) -> u64 {
        (self.sector_reads + self.sector_writes) * crate::SECTOR_SIZE as u64
    }

    /// Returns the difference `self - earlier`, counter by counter.
    ///
    /// Useful for measuring the cost of a single high-level operation:
    /// snapshot before, subtract after.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` has larger counters (the two
    /// snapshots were taken in the wrong order).
    pub fn delta_since(&self, earlier: &DiskStats) -> DiskStats {
        DiskStats {
            read_ops: self.read_ops - earlier.read_ops,
            write_ops: self.write_ops - earlier.write_ops,
            sector_reads: self.sector_reads - earlier.sector_reads,
            sector_writes: self.sector_writes - earlier.sector_writes,
            seeks: self.seeks - earlier.seeks,
            seek_tracks: self.seek_tracks - earlier.seek_tracks,
            busy_us: self.busy_us - earlier.busy_us,
            media_errors: self.media_errors - earlier.media_errors,
            checksum_mismatches: self.checksum_mismatches - earlier.checksum_mismatches,
            remapped_sectors: self.remapped_sectors - earlier.remapped_sectors,
            bytes_copied: self.bytes_copied - earlier.bytes_copied,
            bytes_borrowed: self.bytes_borrowed - earlier.bytes_borrowed,
        }
    }

    /// Adds another stats snapshot into this one (for aggregating a
    /// multi-disk array).
    pub fn merge(&mut self, other: &DiskStats) {
        self.read_ops += other.read_ops;
        self.write_ops += other.write_ops;
        self.sector_reads += other.sector_reads;
        self.sector_writes += other.sector_writes;
        self.seeks += other.seeks;
        self.seek_tracks += other.seek_tracks;
        self.busy_us += other.busy_us;
        self.media_errors += other.media_errors;
        self.checksum_mismatches += other.checksum_mismatches;
        self.remapped_sectors += other.remapped_sectors;
        self.bytes_copied += other.bytes_copied;
        self.bytes_borrowed += other.bytes_borrowed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_bytes() {
        let s = DiskStats {
            read_ops: 2,
            write_ops: 3,
            sector_reads: 4,
            sector_writes: 6,
            ..Default::default()
        };
        assert_eq!(s.total_ops(), 5);
        assert_eq!(s.bytes_transferred(), 10 * crate::SECTOR_SIZE as u64);
    }

    #[test]
    fn delta_and_merge_are_inverse() {
        let a = DiskStats {
            read_ops: 1,
            sector_reads: 2,
            busy_us: 10,
            ..Default::default()
        };
        let mut b = a;
        let extra = DiskStats {
            read_ops: 4,
            sector_reads: 8,
            busy_us: 90,
            seeks: 1,
            seek_tracks: 7,
            ..Default::default()
        };
        b.merge(&extra);
        assert_eq!(b.delta_since(&a), extra);
    }
}
