//! # rhodos-simdisk — simulated disk hardware for the RHODOS reproduction
//!
//! The 1994 RHODOS paper evaluates its distributed file facility on physical
//! disks attached to workstations. This crate substitutes a deterministic
//! in-memory disk model that preserves everything the paper's claims are
//! actually about: *counts* of disk references, seeks, track switches and
//! bytes transferred, plus a simulated-time cost model for seek, rotational
//! latency and transfer.
//!
//! The crate provides:
//!
//! * [`SimClock`] — a shared virtual clock in microseconds, used by every
//!   layer of the facility so experiments are reproducible.
//! * [`DiskGeometry`] — tracks × sectors-per-track × sector-size layout.
//!   A sector is 2 KiB, i.e. exactly one RHODOS *fragment*; a RHODOS
//!   *block* is four contiguous sectors.
//! * [`LatencyModel`] — seek/rotation/transfer costs.
//! * [`SimDisk`] — the disk itself: sector storage, head position, per-disk
//!   [`DiskStats`], [`FaultInjector`]-driven media failures and crashes, a
//!   per-sector CRC32 checksum lane (silent corruption surfaces as a typed
//!   [`DiskError::ChecksumMismatch`]), and persistent spare-sector
//!   reassignment of bad sectors on write. The platter is a store of
//!   [`BlockBuf`] views: [`SimDisk::write_bufs`] adopts the caller's
//!   buffers and [`SimDisk::read_views`] hands them back, so no byte is
//!   copied between a caller and the platter.
//! * [`StableStore`] — Lampson-style stable storage built from a mirrored
//!   pair of [`SimDisk`]s with checksum validation and a recovery scan.
//!
//! # Example
//!
//! ```
//! use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock, SimDisk};
//!
//! # fn main() -> Result<(), rhodos_simdisk::DiskError> {
//! let clock = SimClock::new();
//! let mut disk = SimDisk::new(DiskGeometry::small(), LatencyModel::default(), clock);
//! disk.write_sectors(0, &[0xAB; 2048])?;
//! let data = disk.read_sectors(0, 1)?;
//! assert!(data.iter().all(|&b| b == 0xAB));
//! assert_eq!(disk.stats().sector_reads, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checksum;
mod clock;
mod disk;
mod error;
mod fault;
mod geometry;
mod model;
mod stable;
mod stats;

pub use checksum::{crc32, fnv1a, FNV_OFFSET};
pub use clock::{Lanes, SimClock};
pub use disk::{SectorFault, SectorFaultKind, SectorViews, SimDisk};
pub use error::DiskError;
pub use fault::{FaultInjector, WriteOutcome};
pub use geometry::{DiskGeometry, SectorAddr, TrackNo};
pub use model::LatencyModel;
pub use rhodos_buf::BlockBuf;
pub use stable::{StableStore, STABLE_PAYLOAD};
pub use stats::DiskStats;

/// Size of one disk sector in bytes. Equal to one RHODOS *fragment* (2 KiB).
pub const SECTOR_SIZE: usize = 2048;
