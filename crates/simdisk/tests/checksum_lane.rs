//! The checksum lane against an eager model.
//!
//! The model keeps, per sector, the bytes the platter holds, the bytes
//! its checksum describes (set by every write through the lane, left
//! alone by fault injection) and whether the sector is a media fault. A
//! sector fails its checksum exactly when the two byte images differ, so
//! the model is the lane's contract with no memo and no laziness in it.
//! Random scripts of multi-sector writes (rewrites, torn writes from the
//! fault plan, writes over bad sectors that use up the spare pool),
//! silent and loud corruption (of written and never-written sectors,
//! twice on one sector too), reads and scrub scans run on a disk and on
//! the model; every result and the fault counters must agree.
//!
//! The platter keeps views of the buffers it is written from and reads
//! hand them back, so the script also holds on to buffers it shares with
//! the platter: the allocations of `SharedWrite`s and every buffer a read
//! returned. Corruption damages the platter only: after every `Silent`
//! and `Loud`, each held buffer must still hold its bytes.
//!
//! Scripts come from the proptest shim (`PROPTEST_BASE_SEED`, swept over
//! 1/7/42 in CI).

use proptest::prelude::*;
use rhodos_simdisk::{
    BlockBuf, DiskError, DiskGeometry, LatencyModel, SectorFault, SectorFaultKind, SimClock,
    SimDisk, WriteOutcome, SECTOR_SIZE,
};

/// Sectors the scripts touch: few, so operations keep meeting.
const WINDOW: u64 = 10;
/// Byte fills for writes. They include each other's XOR images under the
/// fault injector's 0x55 and 0xFF flips, so a rewrite can land the bytes
/// a stale checksum would describe.
const FILLS: [u8; 5] = [0x00, 0x55, 0xAA, 0xFF, 0x3C];

#[derive(Debug, Clone)]
enum Op {
    /// `count` sectors from `start`, sector `i` filled with `FILLS[fill]`
    /// rotated by `i`.
    Write {
        start: u64,
        count: u64,
        fill: usize,
    },
    /// As `Write`, through `write_bufs` with two views of one allocation
    /// the script keeps.
    SharedWrite {
        start: u64,
        count: u64,
        fill: usize,
    },
    Silent(u64),
    Loud(u64),
    Read {
        start: u64,
        count: u64,
    },
    Scan {
        start: u64,
        count: u64,
    },
    /// Crash after `n` more sector writes: the write crossing it is torn.
    ArmCrash(u64),
    Repair,
}

fn range() -> impl Strategy<Value = (u64, u64)> {
    (0..WINDOW, 1u64..5).prop_map(|(start, count)| (start, count.min(WINDOW - start)))
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (range(), 0..FILLS.len()).prop_map(|((start, count), fill)| Op::Write { start, count, fill }),
        2 => (range(), 0..FILLS.len()).prop_map(|((start, count), fill)| Op::SharedWrite { start, count, fill }),
        3 => (0..WINDOW).prop_map(Op::Silent),
        2 => (0..WINDOW).prop_map(Op::Loud),
        4 => range().prop_map(|(start, count)| Op::Read { start, count }),
        2 => range().prop_map(|(start, count)| Op::Scan { start, count }),
        1 => (0u64..6).prop_map(Op::ArmCrash),
        2 => Just(Op::Repair),
    ]
}

fn sector(fill: usize, i: u64) -> Vec<u8> {
    vec![FILLS[(fill + i as usize) % FILLS.len()]; SECTOR_SIZE]
}

fn flip(bytes: &mut [u8], mask: u8) {
    bytes.iter_mut().for_each(|b| *b ^= mask);
}

#[derive(Debug, Clone)]
struct ModelSector {
    bytes: Vec<u8>,
    /// What the checksum lane describes.
    lane: Vec<u8>,
    bad: bool,
}

struct Model {
    sectors: Vec<ModelSector>,
    crashed: bool,
    /// Sector writes left before an armed crash fires.
    crash_after: Option<u64>,
    spares: u64,
    media_errors: u64,
    checksum_mismatches: u64,
    remapped_sectors: u64,
}

impl Model {
    fn new(spares: u64) -> Self {
        let zero = ModelSector {
            bytes: vec![0; SECTOR_SIZE],
            lane: vec![0; SECTOR_SIZE],
            bad: false,
        };
        Self {
            sectors: vec![zero; WINDOW as usize],
            crashed: false,
            crash_after: None,
            spares,
            media_errors: 0,
            checksum_mismatches: 0,
            remapped_sectors: 0,
        }
    }

    /// The first fault of sector `s`, counted.
    fn fault(&mut self, s: u64) -> Option<SectorFaultKind> {
        let sec = &self.sectors[s as usize];
        if sec.bad {
            self.media_errors += 1;
            Some(SectorFaultKind::BadSector)
        } else if sec.bytes != sec.lane {
            self.checksum_mismatches += 1;
            Some(SectorFaultKind::ChecksumMismatch)
        } else {
            None
        }
    }

    fn write(&mut self, start: u64, count: u64, fill: usize) -> Result<WriteOutcome, DiskError> {
        if self.crashed {
            return Err(DiskError::Crashed);
        }
        let landed = match self.crash_after.take() {
            Some(left) if left <= count => {
                self.crashed = true;
                left
            }
            Some(left) => {
                self.crash_after = Some(left - count);
                count
            }
            None => count,
        };
        for i in 0..landed {
            let sec = &mut self.sectors[(start + i) as usize];
            if sec.bad && self.spares > 0 {
                self.spares -= 1;
                self.remapped_sectors += 1;
            }
            sec.bad = false;
            sec.bytes = sector(fill, i);
            sec.lane = sec.bytes.clone();
        }
        if landed < count {
            Err(DiskError::Crashed)
        } else {
            Ok(WriteOutcome::Complete)
        }
    }

    fn read(&mut self, start: u64, count: u64) -> Result<Vec<u8>, DiskError> {
        if self.crashed {
            return Err(DiskError::Crashed);
        }
        for s in start..start + count {
            match self.fault(s) {
                Some(SectorFaultKind::BadSector) => return Err(DiskError::BadSector(s)),
                Some(SectorFaultKind::ChecksumMismatch) => {
                    return Err(DiskError::ChecksumMismatch(s))
                }
                None => {}
            }
        }
        Ok((start..start + count)
            .flat_map(|s| self.sectors[s as usize].bytes.clone())
            .collect())
    }

    fn scan(&mut self, start: u64, count: u64) -> Result<Vec<SectorFault>, DiskError> {
        if self.crashed {
            return Err(DiskError::Crashed);
        }
        Ok((start..start + count)
            .filter_map(|addr| self.fault(addr).map(|kind| SectorFault { addr, kind }))
            .collect())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_lane_matches_an_eager_model(spent in 0u64..9, script in proptest::collection::vec(op(), 1..60)) {
        // 64 sectors hold the minimum pool of 8 spares. `spent` of them go
        // to a sector outside the window first, so scripts also run out of
        // spares and heal bad sectors in place.
        let mut disk = SimDisk::new(DiskGeometry::new(4, 16), LatencyModel::instant(), SimClock::new());
        for _ in 0..spent {
            disk.corrupt_sector(WINDOW).unwrap();
            disk.write_sectors(WINDOW, &[0; SECTOR_SIZE]).unwrap();
        }
        let mut model = Model::new(disk.spare_sectors_remaining());
        model.remapped_sectors = spent;
        // Buffers the script shares with the platter, and their bytes.
        let mut held: Vec<(BlockBuf, Vec<u8>)> = Vec::new();
        for (step, op) in script.iter().enumerate() {
            match *op {
                Op::Write { start, count, fill } => {
                    let data: Vec<u8> = (0..count).flat_map(|i| sector(fill, i)).collect();
                    let (got, want) = (disk.write_sectors(start, &data), model.write(start, count, fill));
                    prop_assert!(got == want, "step {} {:?}: {:?}, model {:?}", step, op, got, want);
                }
                Op::SharedWrite { start, count, fill } => {
                    let data: Vec<u8> = (0..count).flat_map(|i| sector(fill, i)).collect();
                    let kept = BlockBuf::from(data.clone());
                    let cut = (count / 2) as usize * SECTOR_SIZE;
                    let parts = [kept.slice(0..cut), kept.slice(cut..data.len())];
                    let (got, want) = (disk.write_bufs(start, &parts), model.write(start, count, fill));
                    prop_assert!(got == want, "step {} {:?}: {:?}, model {:?}", step, op, got, want);
                    held.push((kept, data));
                }
                Op::Silent(addr) => {
                    disk.silently_corrupt_sector(addr).unwrap();
                    flip(&mut model.sectors[addr as usize].bytes, 0x55);
                }
                Op::Loud(addr) => {
                    disk.corrupt_sector(addr).unwrap();
                    let sec = &mut model.sectors[addr as usize];
                    flip(&mut sec.bytes, 0xFF);
                    sec.bad = true;
                }
                Op::Read { start, count } => {
                    let got = disk.read_sectors(start, count).map(|b| (b.clone(), b.to_vec()));
                    let want = model.read(start, count);
                    prop_assert!(got.as_ref().map(|(_, v)| v) == want.as_ref(), "step {} {:?}: {:?}, model {:?}", step, op, got.as_ref().map(|(_, v)| v[0]), want.map(|b| b[0]));
                    held.extend(got);
                }
                Op::Scan { start, count } => {
                    let (got, want) = (disk.scan_sectors(start, count), model.scan(start, count));
                    prop_assert!(got == want, "step {} {:?}: {:?}, model {:?}", step, op, got, want);
                }
                Op::ArmCrash(n) => {
                    disk.faults_mut().crash_after_sector_writes(n);
                    model.crash_after = Some(n);
                }
                Op::Repair => {
                    disk.repair();
                    model.crashed = false;
                    model.crash_after = None;
                }
            }
            if let Op::Silent(_) | Op::Loud(_) = op {
                for (i, (buf, bytes)) in held.iter().enumerate() {
                    prop_assert!(buf == bytes, "step {} {:?}: held buffer {} changed", step, op, i);
                }
            }
            let stats = disk.stats();
            prop_assert_eq!(
                (stats.media_errors, stats.checksum_mismatches, stats.remapped_sectors),
                (model.media_errors, model.checksum_mismatches, model.remapped_sectors),
                "counters after step {} {:?}", step, op
            );
        }
    }
}
