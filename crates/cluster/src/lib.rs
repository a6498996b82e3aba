//! Sharded, replicated cluster: a placement/metadata master in front of
//! N shards, each a lock-step replica set of data servers.
//!
//! The paper's file facility is a single server whose files "may be
//! replicated at several disk servers" (§3) — this crate spreads the
//! *namespace* across many of them, the way Lustre splits its metadata
//! server from object storage targets, and makes each shard a set of
//! [`ClusterConfig::replicas`] servers for availability. One [`Cluster`]
//! master owns the file → shard placement map; each data server is a
//! full transaction-service stack behind its own `rhodos-net` channel
//! speaking the wire protocol (`rhodos_replication::wire`). Writes fan
//! out to every current member of the home shard, reads rotate over
//! them, a faulty member is masked and later resynced — one front-end
//! for sharding and replication alike.
//!
//! The placement map lives in the master alone, and every data
//! operation goes through it: the master resolves the file's home shard
//! and calls that set over its channels. Every mutation of the map
//! bumps a **placement epoch**, which the 2PC coordinator re-checks
//! before it decides.
//!
//! Liveness is heartbeat-driven: the master probes every data server
//! each [`Cluster::heartbeat_pulse`]; enough consecutive misses mark the
//! server dead (its files stay mapped but unavailable), and a later
//! successful probe rejoins it — resyncing it from its set if it fell
//! out of step and garbage-collecting any local files the map no longer
//! assigns to it, so a flapping server cannot double-place files.
//! Background [`Cluster::rebalance`] migrates hot files
//! off busy spindles through chunked, fingerprint-verified copies over
//! the same wire protocol.

mod commit;
mod master;
mod replica_set;

pub use commit::{serve_txn, CommitOutcome, CrossOp, Wave};
pub use master::{
    Cluster, ClusterConfig, ClusterError, ClusterStats, Link, RebalanceReport, ServerHandle,
};
pub use replica_set::ClusterScrubReport;
