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
//! Coherence of client-side placement caches mirrors the PR 7 lease
//! epochs: every mutation of the placement map bumps a **placement
//! epoch**, published together with the map through a shared
//! [`PlacementDirectory`]. Clients compare their cached epoch against
//! the directory's on every operation and refresh only when it moved —
//! the steady-state data path never pays a master round trip.
//!
//! Liveness is heartbeat-driven: the master probes every data server
//! each [`Cluster::heartbeat_pulse`]; enough consecutive misses mark the
//! server dead (its files stay mapped but unavailable), and a later
//! successful probe rejoins it — resyncing it from its set if it fell
//! out of step, synchronising its placement epoch and
//! garbage-collecting any local files the map no longer assigns to it,
//! so a flapping server can neither double-place files nor serve a
//! stale epoch. Background [`Cluster::rebalance`] migrates hot files
//! off busy spindles through chunked, fingerprint-verified copies over
//! the same wire protocol.

mod commit;
mod master;
mod placement;
mod replica_set;

pub use commit::{serve_txn, CommitChaos, CommitOutcome, CrossOp, DecisionLog};
pub use master::{
    Cluster, ClusterConfig, ClusterError, ClusterStats, RebalanceReport, ServerHandle,
};
pub use placement::{PlacementDirectory, SharedDirectory};
pub use replica_set::ClusterScrubReport;
