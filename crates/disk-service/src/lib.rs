//! # rhodos-disk-service — the RHODOS disk service (§4 of the paper)
//!
//! One [`DiskService`] ("disk server") runs per disk. It implements the
//! paper's storage-unit scheme and service functions:
//!
//! * **Blocks and fragments** — logical units of 8 KiB and 2 KiB
//!   respectively; "four contiguous fragments makes one block". Blocks
//!   store file data; fragments store small structural information such as
//!   file index tables.
//! * **Free-space management** — a bitmap of the disk plus a 64 × 64
//!   [`FreeExtentArray`]: row *r* references runs of *r + 1* contiguous
//!   free fragments (row 63 holds longer runs), so a request for *n*
//!   contiguous fragments is answered without scanning the bitmap.
//! * **Track read-ahead cache** — after serving a read, the service caches
//!   the rest of the same track to satisfy subsequent requests to nearby
//!   fragments.
//! * **Stable storage** — `put` can direct data to its original location
//!   *and* stable storage (the file index table), returning after both
//!   stable mirrors are written.
//! * **Single-reference transfers** — any operation on a set of contiguous
//!   fragments is accomplished in one reference to the disk.
//!
//! # Example
//!
//! ```
//! use rhodos_disk_service::{DiskService, DiskServiceConfig, StablePolicy};
//! use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
//!
//! # fn main() -> Result<(), rhodos_disk_service::DiskServiceError> {
//! let mut svc = DiskService::with_stable(
//!     DiskGeometry::small(),
//!     LatencyModel::default(),
//!     SimClock::new(),
//!     DiskServiceConfig::default(),
//! );
//! // Allocate one block (4 contiguous fragments) and write it.
//! let extent = svc.allocate_contiguous(4)?;
//! let block = vec![0x5A; rhodos_disk_service::BLOCK_SIZE];
//! svc.put(extent, &block, StablePolicy::None)?;
//! assert_eq!(svc.get(extent)?, block);
//! svc.free(extent)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmap;
pub mod codec;
mod error;
mod extent_index;
mod scheduler;
mod service;
mod track_cache;
mod units;

pub use bitmap::Bitmap;
pub use error::DiskServiceError;
pub use extent_index::FreeExtentArray;
pub use rhodos_buf::BlockBuf;
pub use rhodos_simdisk::{SectorFault, SectorFaultKind};
pub use scheduler::SchedulerStats;
pub use service::{DiskService, DiskServiceConfig, DiskServiceStats, ReadSource, StablePolicy};
pub use track_cache::TrackCache;
pub use units::{Extent, FragmentAddr, BLOCK_SIZE, FRAGMENT_SIZE, FRAGS_PER_BLOCK};
