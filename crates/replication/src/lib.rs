//! # rhodos-replication — the file-service wire protocol
//!
//! The design goals require that the facility "must have the provision to
//! support the concept of file replication" (§2.1). Replication itself is
//! a `rhodos-cluster` shard: a lock-step replica set of data servers
//! behind one placement entry, with write-all, read-one, failover,
//! resync and peer scrub. What this crate keeps is the transport every
//! such server is reached through: [`wire`]'s request/reply codec, its
//! [`wire::serve`] loop, and the per-machine [`wire::Channel`] — retried
//! with exponential backoff and jitter while the lane loses messages,
//! executed at most once per request id on the server, its reply decoded
//! back ("the RHODOS file service is 'nearly' stateless", §3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod wire;
