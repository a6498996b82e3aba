//! Deterministic fault injection for the simulated disk.
//!
//! The paper claims resilience "against system and media failure" (§1) and
//! that stable storage protects "all the vital structural information"
//! (§2.1). Those claims can only be exercised by making disks fail, so the
//! simulator supports:
//!
//! * **media faults** — specific sectors become unreadable;
//! * **crashes** — after a configured number of sector writes the disk
//!   "loses power": the in-flight write may be torn (only a prefix of its
//!   sectors hit the platter) and all subsequent operations fail until the
//!   disk is repaired.

use crate::geometry::SectorAddr;
use std::collections::BTreeSet;

/// What happened to a write issued through a [`FaultInjector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// All sectors were written.
    Complete,
    /// The disk crashed mid-write; only the first `n` sectors hit the
    /// platter.
    Torn(u64),
    /// The disk had already crashed; nothing was written.
    Dropped,
}

/// Deterministic fault plan for one disk.
///
/// # Example
///
/// ```
/// use rhodos_simdisk::FaultInjector;
///
/// let mut f = FaultInjector::new();
/// f.mark_bad_sector(17);
/// assert!(f.is_bad(17));
/// assert!(!f.is_bad(18));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    bad_sectors: BTreeSet<SectorAddr>,
    /// Remaining sector writes before the injected crash fires.
    crash_after_sector_writes: Option<u64>,
    crashed: bool,
}

impl FaultInjector {
    /// A fault plan with no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `addr` as a bad (unreadable) sector.
    pub fn mark_bad_sector(&mut self, addr: SectorAddr) {
        self.bad_sectors.insert(addr);
    }

    /// Clears a previously marked bad sector (e.g. after sector reassignment).
    pub fn clear_bad_sector(&mut self, addr: SectorAddr) {
        self.bad_sectors.remove(&addr);
    }

    /// Whether `addr` currently fails on read.
    pub fn is_bad(&self, addr: SectorAddr) -> bool {
        self.bad_sectors.contains(&addr)
    }

    /// Schedules a crash after `n` further sector writes. The write that
    /// crosses the threshold is torn at the crash point.
    pub fn crash_after_sector_writes(&mut self, n: u64) {
        self.crash_after_sector_writes = Some(n);
    }

    /// Crashes the disk immediately.
    pub fn crash_now(&mut self) {
        self.crashed = true;
        self.crash_after_sector_writes = None;
    }

    /// Whether the disk is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Repairs a crashed disk (models power-cycling the machine). Bad
    /// sectors remain bad.
    pub fn repair(&mut self) {
        self.crashed = false;
        self.crash_after_sector_writes = None;
    }

    /// Accounts for a write of `sectors` sectors and reports how much of it
    /// survived.
    pub fn admit_write(&mut self, sectors: u64) -> WriteOutcome {
        if self.crashed {
            return WriteOutcome::Dropped;
        }
        match self.crash_after_sector_writes {
            None => WriteOutcome::Complete,
            Some(remaining) if sectors < remaining => {
                self.crash_after_sector_writes = Some(remaining - sectors);
                WriteOutcome::Complete
            }
            Some(remaining) => {
                // Crash fires during this write: `remaining` sectors land.
                self.crashed = true;
                self.crash_after_sector_writes = None;
                if remaining >= sectors {
                    WriteOutcome::Complete
                } else {
                    WriteOutcome::Torn(remaining)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_sectors_toggle() {
        let mut f = FaultInjector::new();
        f.mark_bad_sector(5);
        assert!(f.is_bad(5));
        f.clear_bad_sector(5);
        assert!(!f.is_bad(5));
    }

    #[test]
    fn crash_fires_at_threshold_and_tears_write() {
        let mut f = FaultInjector::new();
        f.crash_after_sector_writes(5);
        assert_eq!(f.admit_write(3), WriteOutcome::Complete);
        // 2 remaining; a 4-sector write tears after 2.
        assert_eq!(f.admit_write(4), WriteOutcome::Torn(2));
        assert!(f.is_crashed());
        assert_eq!(f.admit_write(1), WriteOutcome::Dropped);
    }

    #[test]
    fn crash_exactly_on_boundary_completes_then_crashes() {
        let mut f = FaultInjector::new();
        f.crash_after_sector_writes(2);
        assert_eq!(f.admit_write(2), WriteOutcome::Complete);
        assert!(f.is_crashed());
    }

    #[test]
    fn repair_restores_service() {
        let mut f = FaultInjector::new();
        f.crash_now();
        assert_eq!(f.admit_write(1), WriteOutcome::Dropped);
        f.repair();
        assert_eq!(f.admit_write(1), WriteOutcome::Complete);
    }
}
