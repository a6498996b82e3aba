//! Lampson-style stable storage over a mirrored pair of disks.
//!
//! The paper requires that "stable storage is provided" so that "all the
//! important data structures used for file management ... are recoverable"
//! (§7), and the disk service's `put-block` can send data to its original
//! location *and* stable storage, as for the file index table (§4). This
//! module supplies the storage substrate that option is built on.
//!
//! Each stable *record* occupies one sector on each of two mirrored disks
//! and carries a header `(seq, len, checksum)`. A write goes to replica A,
//! then replica B, before the call returns. After a crash,
//! [`StableStore::recover`] restores the invariant that both replicas hold
//! the same, valid record:
//!
//! * one replica invalid → copy from the valid one;
//! * both valid but different sequence numbers → propagate the newer one;
//! * both invalid → the record is lost (reported, never silently ignored).

use crate::checksum::{fnv1a, FNV_OFFSET};
use crate::disk::SimDisk;
use crate::error::DiskError;
use crate::geometry::SectorAddr;
use crate::SECTOR_SIZE;

/// Bytes of header at the start of each stable sector.
const HEADER: usize = 20; // seq u64 | len u32 | checksum u64

/// Maximum payload of one stable record.
pub const STABLE_PAYLOAD: usize = SECTOR_SIZE - HEADER;

fn encode(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut sector = vec![0u8; SECTOR_SIZE];
    sector[0..8].copy_from_slice(&seq.to_le_bytes());
    sector[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    sector[12..20].copy_from_slice(&fnv1a(FNV_OFFSET, payload).to_le_bytes());
    sector[HEADER..HEADER + payload.len()].copy_from_slice(payload);
    sector
}

fn decode(sector: &[u8]) -> Option<(u64, Vec<u8>)> {
    let seq = u64::from_le_bytes(sector[0..8].try_into().ok()?);
    let len = u32::from_le_bytes(sector[8..12].try_into().ok()?) as usize;
    let sum = u64::from_le_bytes(sector[12..20].try_into().ok()?);
    if len > STABLE_PAYLOAD {
        return None;
    }
    let payload = &sector[HEADER..HEADER + len];
    if fnv1a(FNV_OFFSET, payload) != sum {
        return None;
    }
    Some((seq, payload.to_vec()))
}

/// Stable storage built from two mirrored [`SimDisk`]s.
///
/// Record `slot`s address sectors on both mirrors uniformly; the caller
/// (the disk service) decides which slot holds which structure.
///
/// # Example
///
/// ```
/// use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock, SimDisk};
/// use rhodos_simdisk::StableStore;
///
/// # fn main() -> Result<(), rhodos_simdisk::DiskError> {
/// let clock = SimClock::new();
/// let mk = || SimDisk::new(DiskGeometry::small(), LatencyModel::instant(), clock.clone());
/// let mut stable = StableStore::new(mk(), mk());
/// stable.write(3, b"file index table")?;
/// assert_eq!(stable.read(3)?.as_deref(), Some(&b"file index table"[..]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StableStore {
    a: SimDisk,
    b: SimDisk,
    next_seq: u64,
}

impl StableStore {
    /// Creates stable storage over two disks of identical geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometries differ.
    pub fn new(a: SimDisk, b: SimDisk) -> Self {
        assert_eq!(
            a.geometry(),
            b.geometry(),
            "stable storage mirrors must share a geometry"
        );
        Self { a, b, next_seq: 1 }
    }

    /// Number of record slots available.
    pub fn slots(&self) -> u64 {
        self.a.geometry().total_sectors()
    }

    /// Access to the primary mirror (for fault injection in experiments).
    pub fn mirror_a_mut(&mut self) -> &mut SimDisk {
        &mut self.a
    }

    /// Access to the secondary mirror (for fault injection in experiments).
    pub fn mirror_b_mut(&mut self) -> &mut SimDisk {
        &mut self.b
    }

    /// Combined statistics of both mirrors.
    pub fn stats(&self) -> crate::DiskStats {
        let mut s = self.a.stats();
        s.merge(&self.b.stats());
        s
    }

    /// Writes `payload` to record slot `slot`.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::UnalignedBuffer`] if the payload exceeds
    /// [`STABLE_PAYLOAD`], or any underlying disk error. The record is on
    /// both mirrors when this returns `Ok`.
    pub fn write(&mut self, slot: SectorAddr, payload: &[u8]) -> Result<(), DiskError> {
        if payload.len() > STABLE_PAYLOAD {
            return Err(DiskError::UnalignedBuffer { len: payload.len() });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let sector = encode(seq, payload);
        self.a.write_sectors(slot, &sector)?;
        self.b.write_sectors(slot, &sector)?;
        Ok(())
    }

    /// Writes `payloads` to the consecutive record slots starting at
    /// `first_slot` as one coalesced run per mirror: one replica-A write
    /// covering every sector, a verify pass re-reading and decoding the
    /// run (Lampson's careful write — a record is only trusted on A
    /// before B is allowed to be overwritten), then one replica-B write.
    /// Semantically identical to calling [`Self::write`] per slot; the
    /// per-slot mirror round trips are what it removes.
    ///
    /// # Errors
    ///
    /// [`DiskError::UnalignedBuffer`] if a payload exceeds
    /// [`STABLE_PAYLOAD`]; [`DiskError::StableLost`] if the verify pass
    /// cannot read back a just-written record; underlying disk errors.
    pub fn write_batch(
        &mut self,
        first_slot: SectorAddr,
        payloads: &[&[u8]],
    ) -> Result<(), DiskError> {
        if payloads.is_empty() {
            return Ok(());
        }
        if let [payload] = payloads {
            return self.write(first_slot, payload);
        }
        let mut run = Vec::with_capacity(payloads.len() * SECTOR_SIZE);
        let mut seqs = Vec::with_capacity(payloads.len());
        for payload in payloads {
            if payload.len() > STABLE_PAYLOAD {
                return Err(DiskError::UnalignedBuffer { len: payload.len() });
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            seqs.push(seq);
            run.extend_from_slice(&encode(seq, payload));
        }
        // Coalesced A-pass.
        self.a.write_sectors(first_slot, &run)?;
        // Verify: the whole run must decode with the sequence numbers just
        // assigned before replica B's previous records are overwritten.
        let back = self.a.read_sectors(first_slot, payloads.len() as u64)?;
        for (i, seq) in seqs.iter().enumerate() {
            let sector = &back[i * SECTOR_SIZE..(i + 1) * SECTOR_SIZE];
            match decode(sector) {
                Some((s, _)) if s == *seq => {}
                _ => return Err(DiskError::StableLost(first_slot + i as u64)),
            }
        }
        // Coalesced B-pass.
        self.b.write_sectors(first_slot, &run)?;
        Ok(())
    }

    /// Reads the record at `slot`, preferring mirror A and falling back to
    /// mirror B. Returns `Ok(None)` if the slot has never been written.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::StableLost`] if both replicas are unreadable or
    /// corrupt.
    pub fn read(&mut self, slot: SectorAddr) -> Result<Option<Vec<u8>>, DiskError> {
        let ra = self.a.read_sectors(slot, 1).ok().and_then(|s| decode(&s));
        if let Some((seq, data)) = ra {
            if seq > 0 {
                return Ok(Some(data));
            }
        }
        let rb = self.b.read_sectors(slot, 1).ok().and_then(|s| decode(&s));
        match rb {
            Some((seq, data)) if seq > 0 => Ok(Some(data)),
            _ => {
                // Distinguish "never written" (both decode as seq 0 /
                // zero-filled) from "lost".
                let a_blank = self.slot_blank_on(&MirrorSel::A, slot);
                let b_blank = self.slot_blank_on(&MirrorSel::B, slot);
                if a_blank && b_blank {
                    Ok(None)
                } else {
                    Err(DiskError::StableLost(slot))
                }
            }
        }
    }

    fn slot_blank_on(&self, sel: &MirrorSel, slot: SectorAddr) -> bool {
        let disk = match sel {
            MirrorSel::A => &self.a,
            MirrorSel::B => &self.b,
        };
        if disk.sector_untouched(slot) {
            return !disk.faults().is_bad(slot);
        }
        match disk.peek_sector(slot) {
            Ok(s) => s.iter().all(|&b| b == 0),
            Err(_) => false,
        }
    }

    /// Post-crash recovery scan: re-establishes mirror agreement for every
    /// slot and returns the slots that are unrecoverable (both replicas
    /// lost).
    ///
    /// # Errors
    ///
    /// Propagates disk errors other than per-sector media faults (which are
    /// what the scan is for).
    pub fn recover(&mut self) -> Result<Vec<SectorAddr>, DiskError> {
        self.a.repair();
        self.b.repair();
        let mut lost = Vec::new();
        let mut max_seq = 0u64;
        for slot in 0..self.slots() {
            // Fast path: both replicas blank (never written) — the common
            // case on a mostly empty disk. peek avoids charging I/O for
            // what is really an offline scan.
            if self.slot_blank_on(&MirrorSel::A, slot) && self.slot_blank_on(&MirrorSel::B, slot) {
                continue;
            }
            let da = self.a.read_sectors(slot, 1).ok().and_then(|s| decode(&s));
            let db = self.b.read_sectors(slot, 1).ok().and_then(|s| decode(&s));
            if let Some((s, _)) = &da {
                max_seq = max_seq.max(*s);
            }
            if let Some((s, _)) = &db {
                max_seq = max_seq.max(*s);
            }
            match (da, db) {
                (Some((sa, pa)), Some((sb, _))) if sa > sb => {
                    let sector = encode(sa, &pa);
                    self.b.write_sectors(slot, &sector)?;
                }
                (Some((sa, _)), Some((sb, pb))) if sb > sa => {
                    let sector = encode(sb, &pb);
                    self.a.write_sectors(slot, &sector)?;
                }
                (Some(_), Some(_)) => {} // equal — consistent
                (Some((sa, pa)), None) => {
                    if !self.slot_blank_on(&MirrorSel::B, slot) || sa > 0 {
                        let sector = encode(sa, &pa);
                        self.b.faults_mut().clear_bad_sector(slot);
                        self.b.write_sectors(slot, &sector)?;
                    }
                }
                (None, Some((sb, pb))) => {
                    if !self.slot_blank_on(&MirrorSel::A, slot) || sb > 0 {
                        let sector = encode(sb, &pb);
                        self.a.faults_mut().clear_bad_sector(slot);
                        self.a.write_sectors(slot, &sector)?;
                    }
                }
                (None, None) => {
                    let blank = self.slot_blank_on(&MirrorSel::A, slot)
                        && self.slot_blank_on(&MirrorSel::B, slot);
                    if !blank {
                        lost.push(slot);
                    }
                }
            }
        }
        // Track next_seq past anything on disk so future writes stay newest.
        self.next_seq = self.next_seq.max(max_seq + 1);
        Ok(lost)
    }
}

#[derive(Debug)]
enum MirrorSel {
    A,
    B,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskGeometry, LatencyModel, SimClock};

    fn store() -> StableStore {
        let clock = SimClock::new();
        let mk = || {
            SimDisk::new(
                DiskGeometry::new(4, 8),
                LatencyModel::instant(),
                clock.clone(),
            )
        };
        StableStore::new(mk(), mk())
    }

    #[test]
    fn write_read_round_trip() {
        let mut s = store();
        s.write(0, b"hello").unwrap();
        assert_eq!(s.read(0).unwrap().unwrap(), b"hello");
    }

    #[test]
    fn unwritten_slot_reads_none() {
        let mut s = store();
        assert_eq!(s.read(5).unwrap(), None);
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut s = store();
        let big = vec![0u8; STABLE_PAYLOAD + 1];
        assert!(s.write(0, &big).is_err());
    }

    #[test]
    fn survives_primary_media_failure() {
        let mut s = store();
        s.write(1, b"vital").unwrap();
        s.mirror_a_mut().corrupt_sector(1).unwrap();
        assert_eq!(s.read(1).unwrap().unwrap(), b"vital");
        // Recovery repairs the damaged mirror.
        let lost = s.recover().unwrap();
        assert!(lost.is_empty());
        assert_eq!(s.read(1).unwrap().unwrap(), b"vital");
    }

    #[test]
    fn both_replicas_lost_is_reported() {
        let mut s = store();
        s.write(1, b"vital").unwrap();
        s.mirror_a_mut().corrupt_sector(1).unwrap();
        s.mirror_b_mut().corrupt_sector(1).unwrap();
        assert_eq!(s.read(1), Err(DiskError::StableLost(1)));
        let lost = s.recover().unwrap();
        assert_eq!(lost, vec![1]);
    }

    /// Arms mirror B to crash at its next sector write: a write then
    /// lands on A only, the window between the two mirror writes.
    fn crash_mirror_b_next(s: &mut StableStore) {
        s.mirror_b_mut().faults_mut().crash_after_sector_writes(0);
    }

    #[test]
    fn a_write_torn_between_mirrors_is_closed_by_recover() {
        let mut s = store();
        s.write(2, b"old").unwrap();
        crash_mirror_b_next(&mut s);
        assert!(s.write(2, b"new").is_err());
        // Crash between the mirrors: replica B still has "old".
        let lost = s.recover().unwrap();
        assert!(lost.is_empty());
        // The newer record (A) won, on both mirrors.
        s.mirror_a_mut().corrupt_sector(2).unwrap();
        assert_eq!(s.read(2).unwrap().unwrap(), b"new");
    }

    #[test]
    fn write_batch_round_trips_and_mirrors() {
        let mut s = store();
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 5]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        s.write_batch(2, &refs).unwrap();
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(s.read(2 + i as u64).unwrap().unwrap(), *p);
        }
        // Mirror B holds the records too.
        for i in 0..4u64 {
            s.mirror_a_mut().corrupt_sector(2 + i).unwrap();
        }
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(s.read(2 + i as u64).unwrap().unwrap(), *p);
        }
    }

    #[test]
    fn torn_batch_a_pass_leaves_replica_b_recoverable() {
        let mut s = store();
        s.write(1, b"precious").unwrap();
        // The A-pass tears after one sector: slot 1's new A copy never
        // lands, and because B is only written after the A-pass verifies,
        // B still holds the old record.
        s.mirror_a_mut().faults_mut().crash_after_sector_writes(1);
        let payloads: Vec<&[u8]> = vec![b"x", b"y"];
        assert!(s.write_batch(0, &payloads).is_err());
        s.recover().unwrap();
        assert_eq!(s.read(1).unwrap().unwrap(), b"precious");
    }

    #[test]
    fn recover_is_idempotent() {
        let mut s = store();
        s.write(0, b"a").unwrap();
        crash_mirror_b_next(&mut s);
        assert!(s.write(1, b"b").is_err());
        s.recover().unwrap();
        s.recover().unwrap();
        assert_eq!(s.read(0).unwrap().unwrap(), b"a");
        assert_eq!(s.read(1).unwrap().unwrap(), b"b");
    }

    #[test]
    fn seq_numbers_keep_newest_after_recovery() {
        let mut s = store();
        for i in 0..5u8 {
            s.write(0, &[i]).unwrap();
        }
        s.recover().unwrap();
        // New write after recovery must still be the newest.
        crash_mirror_b_next(&mut s);
        assert!(s.write(0, b"final").is_err());
        s.recover().unwrap();
        assert_eq!(s.read(0).unwrap().unwrap(), b"final");
    }
}
