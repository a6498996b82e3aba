//! # rhodos-file-service — the RHODOS basic file service (§5 of the paper)
//!
//! A *flat* file service: it implements operations on a set of files
//! "without concern for any structure or relationship between the files"
//! (naming is a separate service). Files are mutable, as in NFS and LOCUS.
//!
//! Key mechanisms from the paper:
//!
//! * **File index table (FIT)** — one fragment per file holding the
//!   file-specific attributes and a sequence of block descriptors. Each
//!   descriptor carries a two-byte `count` of contiguous successive disk
//!   blocks, so "all successive blocks, which are contiguous, can be cached
//!   using one single invocation of get-block".
//! * **Direct access to 512 KiB** — the FIT holds 64 direct descriptors
//!   (64 × 8 KiB = half a megabyte); larger files chain through *indirect
//!   blocks*. "For files up to half a megabyte, the maximum number of disk
//!   references is two: one for the file index table and the other for
//!   file data."
//! * **Dynamic FIT creation** — the FIT is created when the file is
//!   created, contiguous with the first data block, and FITs are
//!   distributed across the disk.
//! * **Caching** — a block pool and fragment pool cache file data and FITs
//!   with a *delayed-write* policy; a committed transaction's records land
//!   in the block pool too, made durable by the intention log.
//! * **Striping** — a file "can be partitioned and therefore its contents
//!   can reside on more than one disk" (§7); block descriptors carry a
//!   disk number.
//!
//! # Example
//!
//! ```
//! use rhodos_file_service::{FileService, FileServiceConfig, ServiceType};
//! use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
//!
//! # fn main() -> Result<(), rhodos_file_service::FileServiceError> {
//! let mut fs = FileService::single_disk(
//!     DiskGeometry::medium(),
//!     LatencyModel::default(),
//!     SimClock::new(),
//!     FileServiceConfig::default(),
//! )?;
//! let fid = fs.create(ServiceType::Basic)?;
//! fs.open(fid)?;
//! fs.write(fid, 0, b"hello, distributed world")?;
//! assert_eq!(fs.read(fid, 7, 11)?, b"distributed");
//! fs.close(fid)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attrs;
mod cache;
mod config;
mod error;
mod fit;
mod fsck;
mod lease;
pub mod parity;
mod plan;
mod scrub;
mod service;
mod store;
mod stripe;
mod volume;

pub use attrs::{FileAttributes, FileId, LockLevel, ServiceType};
pub use cache::{BlockCache, BlockKey, CacheStats, ShardedBlockCache, WritePolicy};
pub use config::{FileServiceConfig, ParallelIo};
pub use error::FileServiceError;
pub use fit::{
    BlockDescriptor, FileIndexTable, DIRECT_BLOCKS, INDIRECT_CAP, MAX_DIRECT_BYTES,
    MAX_INDIRECT_TABLES,
};
pub use fsck::{FsckIssue, FsckRepairAction, FsckRepairReport, FsckReport};
pub use lease::{
    LeaseGrant, LeaseManager, LeaseMode, LeaseParams, LeaseStats, LeaseToken, PendingRecall,
    RecallAck, RecallTarget,
};
pub use parity::{ParityStats, RebuildReport, Redundancy};
pub use scrub::{ScrubFinding, ScrubOwner, ScrubReport, ScrubStats};
pub use service::{FileService, FileServiceStats};
pub use stripe::StripePolicy;
