//! Error type for the file service.

use crate::attrs::FileId;
use rhodos_disk_service::codec::DecodeError;
use rhodos_disk_service::DiskServiceError;
use std::error::Error;
use std::fmt;

/// Errors returned by [`FileService`](crate::FileService) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileServiceError {
    /// No file with this system name exists.
    NotFound(FileId),
    /// The file exists but is not open (operations other than `open`,
    /// `create` and `delete` require an open file).
    NotOpen(FileId),
    /// The file is still open elsewhere and cannot be deleted.
    Busy(FileId),
    /// A read beyond the end of the file.
    BeyondEof {
        /// File involved.
        fid: FileId,
        /// Requested offset.
        offset: u64,
        /// Current file size.
        size: u64,
    },
    /// The file has grown past what one file index table can describe on
    /// this service (use striping across services for larger files).
    FileTooLarge(FileId),
    /// The directory region is full — no more files can be created.
    DirectoryFull,
    /// An on-disk structure failed to decode (corruption).
    Corrupt(FileId),
    /// A writeback presented a dead lease token: a recall the client
    /// did not answer fenced it, or it was superseded. The client must
    /// drop its delegated state and re-read.
    LeaseFenced(FileId),
    /// A lease request could not be honoured (stale epoch, closed
    /// reattach window, or lost an HLC race to a competing claim).
    LeaseRejected(FileId),
    /// A parity stripe row has lost more units than its redundancy can
    /// reconstruct (more than `m` erasures).
    ParityLost {
        /// File involved.
        fid: FileId,
        /// Stripe row that cannot be reconstructed.
        row: u64,
    },
    /// A wire frame that does not decode: a request cut short, running
    /// on past its last operand, or carrying an opcode or code the server
    /// does not know — or a reply or reply payload the client cannot
    /// read.
    BadRequest,
    /// Underlying disk service failure.
    Disk(DiskServiceError),
}

impl fmt::Display for FileServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileServiceError::NotFound(fid) => write!(f, "{fid} does not exist"),
            FileServiceError::NotOpen(fid) => write!(f, "{fid} is not open"),
            FileServiceError::Busy(fid) => write!(f, "{fid} is still open"),
            FileServiceError::BeyondEof { fid, offset, size } => {
                write!(
                    f,
                    "read at offset {offset} beyond end of {fid} ({size} bytes)"
                )
            }
            FileServiceError::FileTooLarge(fid) => {
                write!(f, "{fid} exceeds the capacity of one file index table")
            }
            FileServiceError::DirectoryFull => write!(f, "file directory region is full"),
            FileServiceError::Corrupt(fid) => write!(f, "on-disk structures of {fid} are corrupt"),
            FileServiceError::LeaseFenced(fid) => {
                write!(f, "lease on {fid} was fenced; writeback rejected")
            }
            FileServiceError::LeaseRejected(fid) => {
                write!(f, "lease request on {fid} rejected")
            }
            FileServiceError::ParityLost { fid, row } => {
                write!(
                    f,
                    "stripe row {row} of {fid} lost more units than parity covers"
                )
            }
            FileServiceError::BadRequest => write!(f, "malformed request"),
            FileServiceError::Disk(e) => write!(f, "disk service failure: {e}"),
        }
    }
}

impl Error for FileServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FileServiceError::Disk(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DiskServiceError> for FileServiceError {
    fn from(e: DiskServiceError) -> Self {
        FileServiceError::Disk(e)
    }
}

impl FileServiceError {
    /// Wraps a codec failure as corruption of `fid`'s structures.
    pub fn corrupt(fid: FileId, _e: DecodeError) -> Self {
        FileServiceError::Corrupt(fid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_the_file() {
        let e = FileServiceError::BeyondEof {
            fid: FileId(9),
            offset: 100,
            size: 10,
        };
        let s = e.to_string();
        assert!(s.contains("file#9") && s.contains("100") && s.contains("10"));
    }

    #[test]
    fn disk_errors_chain() {
        let e = FileServiceError::from(DiskServiceError::NoStableStorage);
        assert!(e.source().is_some());
    }
}
