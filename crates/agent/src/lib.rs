//! # rhodos-agent — client-side agents of the RHODOS file facility (§3)
//!
//! "On each machine, all client processes acquire the services of the
//! distributed file facility through special processes known as a **file
//! agent** and a **transaction agent** for basic file service and
//! transaction service, respectively. Also on each machine, there is one
//! process called a **device agent** which facilitates I/O on devices."
//!
//! This crate implements the three agents and the client-side machinery
//! around them:
//!
//! * [`ObjectDescriptor`] allocation with the paper's 100 000 split —
//!   device descriptors below, file descriptors above — and the standard
//!   stream redirection values;
//! * [`FileAgent`] — resolves attributed names through the naming
//!   service, keeps per-descriptor seek positions (`lseek` is agent
//!   state), caches file blocks client-side with a delayed-write policy,
//!   and charges simulated network round-trips for every server visit;
//! * [`TransactionAgent`] — the *event-driven* interface to the
//!   transaction service: it is brought into existence by the first
//!   `tbegin` on a machine and ceases to exist when the last transaction
//!   completes (§2.1 "Configurability");
//! * [`DeviceAgent`] and [`ProcessTable`] — TTY objects, standard stream
//!   environment variables, and the *mediumweight process* twin rules.
//!
//! The agents call the shared server object directly while charging
//! virtual network latency; the full lossy-RPC idempotency machinery
//! (retries, duplicate suppression) lives in `rhodos-net` and is
//! exercised end-to-end by experiment E9.
//!
//! # Example
//!
//! ```
//! use parking_lot::Mutex;
//! use rhodos_agent::FileAgent;
//! use rhodos_file_service::{FileService, FileServiceConfig};
//! use rhodos_naming::{AttributedName, NamingService};
//! use rhodos_net::{NetConfig, SimNetwork};
//! use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
//! use rhodos_txn::{TransactionService, TxnConfig};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let clock = SimClock::new();
//! let fs = FileService::single_disk(
//!     DiskGeometry::medium(), LatencyModel::default(), clock.clone(),
//!     FileServiceConfig::default(),
//! )?;
//! let server = Arc::new(Mutex::new(TransactionService::new(fs, TxnConfig::default())?));
//! let naming = Arc::new(Mutex::new(NamingService::new()));
//! let mut agent = FileAgent::new(
//!     0, server, naming,
//!     SimNetwork::new(clock, NetConfig::reliable()), 64,
//! );
//!
//! let name = AttributedName::parse("name=notes,owner=me")?;
//! agent.create(&name)?;
//! let od = agent.open(&name)?;          // object descriptor > 100 000
//! agent.write(od, b"dear diary")?;
//! agent.lseek(od, 5, 0)?;
//! assert_eq!(agent.read(od, 5)?, b"diary");
//! agent.close(od)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod descriptor;
mod device;
mod file_agent;
mod lease_station;
mod process;
mod txn_agent;

pub use descriptor::{
    is_device_descriptor, ObjectDescriptor, DEV_OD_LIMIT, FILE_OD_BASE, REDIR_STDERR, REDIR_STDIN,
    REDIR_STDOUT, STDERR, STDIN, STDOUT,
};
pub use device::{Device, DeviceAgent, DeviceError};
pub use file_agent::{AgentError, AgentStats, FileAgent, ServerHandle};
pub use lease_station::{ClientLease, LeaseConfig, Station, StationEndpoint, StationStats};
pub use process::{Process, ProcessError, ProcessTable};
pub use txn_agent::{AgentLifecycleEvent, TransactionAgent, TxnAgentStats};
