//! # rhodos-txn — the RHODOS transaction service (§6 of the paper)
//!
//! An *optional*, operating-system-level transaction service layered over
//! the basic file service: "the provision of a uniform yet optional
//! system-wide architecture for the implementation of a transaction
//! service has the potential to avoid the proliferation of ad hoc
//! mechanisms" (abstract). It provides the `t*` file operations —
//! `tbegin`, `tcreate`, `topen`, `tdelete`, `tread`, `twrite`, `tpread`,
//! `tpwrite`, `tget-attribute`, `tlseek`, `tclose`, `tend`, `tabort` —
//! with full concurrency control and recovery:
//!
//! * **Two-phase locking** ([`lock`]) with the paper's three lock modes —
//!   `read-only`, `Iread`, `Iwrite` — and the exact compatibility of
//!   Table 1, including lock conversion by the holding transaction.
//! * **Three optional locking granularities** — record, page and file —
//!   each with its own lock table ("it significantly reduces the number of
//!   records managed by each lock table").
//! * **Timeout-based deadlock resolution** — each lock is invulnerable for
//!   `LT`; if uncontended it is renewed, up to `N` times, after which the
//!   transaction is presumed deadlocked and aborted (§6.4).
//! * **Intentions-list recovery** ([`intentions`]) — tentative data items
//!   are recorded in an intention log; at commit the changes are made
//!   permanent by **write-ahead logging** when the file's data blocks are
//!   contiguous (preserving contiguity) and by the **shadow-page
//!   technique** when they are not (§6.7).
//!
//! Transactions here are *explicitly interleaved*: operations return
//! [`TxnError::WouldBlock`] instead of parking a thread, so experiments
//! can drive precise, reproducible schedules.
//!
//! # Example
//!
//! ```
//! use rhodos_file_service::{FileService, FileServiceConfig, LockLevel, ServiceType};
//! use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
//! use rhodos_txn::{TransactionService, TxnConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fs = FileService::single_disk(
//!     DiskGeometry::medium(),
//!     LatencyModel::default(),
//!     SimClock::new(),
//!     FileServiceConfig::default(),
//! )?;
//! let mut ts = TransactionService::new(fs, TxnConfig::default())?;
//! let fid = ts.tcreate(LockLevel::Page)?;
//!
//! let t = ts.tbegin();
//! ts.topen(t, fid)?;
//! ts.twrite(t, fid, 0, b"all or nothing")?;
//! ts.tend(t)?; // commit
//!
//! let t2 = ts.tbegin();
//! ts.topen(t2, fid)?;
//! assert_eq!(ts.tread(t2, fid, 0, 14)?, b"all or nothing");
//! ts.tabort(t2)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apply;
mod commit;
pub mod concurrent;
mod error;
pub mod intentions;
pub mod lock;
mod log;
mod recovery;
mod service;
pub mod table;
mod tentative;

pub use commit::{CommitReq, Prepared, PreparedCommit};
pub use concurrent::{FastPathStats, SharedTransactionService};
pub use error::TxnError;
pub use lock::{DataItem, LockMode};
pub use service::{TransactionService, TxnConfig, TxnId, TxnStats};
pub use table::{LockOutcome, LockTable, LockTableStats, StripedLockTable};
