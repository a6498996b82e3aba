//! Error type for the simulated disk.

use crate::geometry::SectorAddr;
use std::error::Error;
use std::fmt;

/// Errors returned by [`SimDisk`](crate::SimDisk) and
/// [`StableStore`](crate::StableStore) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// The requested sector range lies outside the disk geometry.
    OutOfRange {
        /// First sector requested.
        start: SectorAddr,
        /// Number of sectors requested.
        count: u64,
        /// Total sectors on the disk.
        total: u64,
    },
    /// A media failure (bad sector) was encountered while reading.
    BadSector(SectorAddr),
    /// A sector's content no longer matches its recorded CRC32 — silent
    /// corruption caught by the checksum lane on read.
    ChecksumMismatch(SectorAddr),
    /// The disk has crashed (power failure injected); no further operations
    /// succeed until [`SimDisk::repair`](crate::SimDisk::repair) is called.
    Crashed,
    /// A write was supplied with a buffer that is not a whole number of
    /// sectors.
    UnalignedBuffer {
        /// Length of the buffer supplied.
        len: usize,
    },
    /// Both replicas of a stable-storage sector are unreadable.
    StableLost(SectorAddr),
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::OutOfRange {
                start,
                count,
                total,
            } => write!(
                f,
                "sector range {start}..{} exceeds disk of {total} sectors",
                start.saturating_add(*count)
            ),
            DiskError::BadSector(addr) => write!(f, "media failure at sector {addr}"),
            DiskError::ChecksumMismatch(addr) => {
                write!(f, "checksum mismatch at sector {addr} (silent corruption)")
            }
            DiskError::Crashed => write!(f, "disk has crashed"),
            DiskError::UnalignedBuffer { len } => {
                write!(f, "buffer of {len} bytes is not sector aligned")
            }
            DiskError::StableLost(addr) => {
                write!(f, "both stable-storage replicas lost for sector {addr}")
            }
        }
    }
}

impl Error for DiskError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            DiskError::OutOfRange {
                start: 9,
                count: 3,
                total: 10,
            },
            DiskError::BadSector(7),
            DiskError::ChecksumMismatch(11),
            DiskError::Crashed,
            DiskError::UnalignedBuffer { len: 100 },
            DiskError::StableLost(3),
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase() || s.starts_with(char::is_numeric));
        }
    }
}
