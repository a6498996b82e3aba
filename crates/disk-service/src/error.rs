//! Error type for the disk service.

use rhodos_simdisk::DiskError;
use std::error::Error;
use std::fmt;

/// Errors returned by [`DiskService`](crate::DiskService) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskServiceError {
    /// Not enough (contiguous) free space for the request.
    NoSpace {
        /// Fragments requested.
        requested: u64,
        /// Largest contiguous free run available.
        largest_free: u64,
        /// Total free fragments.
        total_free: u64,
    },
    /// A stable-storage operation was requested but this disk server was
    /// configured without stable storage.
    NoStableStorage,
    /// The supplied buffer does not match the extent size.
    SizeMismatch {
        /// Bytes the extent can hold.
        expected: usize,
        /// Bytes supplied.
        got: usize,
    },
    /// The extent refers to fragments outside the disk.
    BadExtent,
    /// Underlying device failure.
    Disk(DiskError),
}

impl fmt::Display for DiskServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskServiceError::NoSpace {
                requested,
                largest_free,
                total_free,
            } => write!(
                f,
                "no space for {requested} contiguous fragments (largest run {largest_free}, {total_free} free)"
            ),
            DiskServiceError::NoStableStorage => {
                write!(f, "disk server has no stable storage configured")
            }
            DiskServiceError::SizeMismatch { expected, got } => {
                write!(f, "buffer of {got} bytes does not fill extent of {expected} bytes")
            }
            DiskServiceError::BadExtent => write!(f, "extent lies outside the disk"),
            DiskServiceError::Disk(e) => write!(f, "disk failure: {e}"),
        }
    }
}

impl Error for DiskServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DiskServiceError::Disk(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DiskError> for DiskServiceError {
    fn from(e: DiskError) -> Self {
        DiskServiceError::Disk(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = DiskServiceError::NoSpace {
            requested: 8,
            largest_free: 4,
            total_free: 12,
        };
        let s = e.to_string();
        assert!(s.contains('8') && s.contains('4') && s.contains("12"));
    }

    #[test]
    fn source_chains_to_disk_error() {
        let e = DiskServiceError::from(DiskError::Crashed);
        assert!(e.source().is_some());
    }
}
