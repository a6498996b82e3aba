//! # rhodos — reproduction of the RHODOS distributed file facility
//!
//! Umbrella crate re-exporting every layer of the facility described in
//! Panadiwal & Goscinski, *"A High Performance and Reliable Distributed
//! File Facility"*, ICDCS 1994. See `DESIGN.md` for the system inventory
//! and `EXPERIMENTS.md` for the paper-claim experiment index.

pub use rhodos_agent as agent;
pub use rhodos_cluster as cluster;
pub use rhodos_core as core;
pub use rhodos_disk_service as disk_service;
pub use rhodos_file_service as file_service;
pub use rhodos_naming as naming;
pub use rhodos_net as net;
pub use rhodos_replication as replication;
pub use rhodos_simdisk as simdisk;
pub use rhodos_txn as txn;

/// Commonly used items, re-exported for `use rhodos::prelude::*`.
pub mod prelude {
    pub use rhodos_core::Facility;
    pub use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
}
