//! The paper-claim experiments E01–E19 and the extension experiments
//! E20–E24 (see `EXPERIMENTS.md`), each a `measure(Cell) -> Report`.
//!
//! E2 (Figure 1, the architecture) is validated by the integration test
//! `tests/architecture.rs` rather than a measurement, so it has no module
//! here.

pub mod e01_lock_table;
pub mod e03_direct_access;
pub mod e04_contiguity;
pub mod e05_fragments;
pub mod e06_freespace;
pub mod e07_track_cache;
pub mod e08_cache_levels;
pub mod e09_idempotency;
pub mod e10_granularity;
pub mod e11_deadlock;
pub mod e12_wal_shadow;
pub mod e13_striping;
pub mod e14_recovery;
pub mod e15_write_policy;
pub mod e16_agent_lifecycle;
pub mod e17_replication_failover;
pub mod e18_group_commit;
pub mod e19_self_healing;
pub mod e20_contention;
pub mod e21_raid;
pub mod e22_leases;
pub mod e23_scaleout;
pub mod e24_cross_shard;
