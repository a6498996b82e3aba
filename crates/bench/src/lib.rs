//! # rhodos-bench — experiment harness for the RHODOS reproduction
//!
//! The 1994 paper contains two exhibits (Figure 1, the architecture, and
//! Table 1, the lock-compatibility matrix) and a set of performance and
//! reliability *claims* stated in prose. This crate regenerates each of
//! them:
//!
//! * [`experiments`] — one module per experiment E1–E19 from
//!   `EXPERIMENTS.md`, each with a `run() -> String` that executes the
//!   workload, measures the claim's quantities on the simulated facility,
//!   and prints a paper-style table;
//! * `benches/paper_experiments.rs` — a `harness = false` bench target
//!   that runs every experiment (so `cargo bench` regenerates the paper);
//! * `src/bin/bench_json.rs` — the eight gated virtual-time `BENCH_*.json`
//!   lanes, one committed file each.
//!
//! The wall-clock measure of the data path is the stand-alone
//! `benchmark/` package (`agent-stream` and its per-layer ladder).
//!
//! Individual experiments are also runnable:
//! `cargo run --release -p rhodos-bench --bin exp -- e03`.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod latency;
pub mod loadgen;
pub mod setups;
pub mod table;

/// One experiment: `(id, title, runner)`. The runner's argument is the
/// `--smoke` flag: E20–E24 shrink their expensive cells under it, the
/// paper experiments are small already and ignore it.
pub type Experiment = (&'static str, &'static str, fn(bool) -> String);

/// Every experiment in order.
pub fn all_experiments() -> Vec<Experiment> {
    use experiments::*;
    vec![
        ("e01", "Table 1: lock compatibility matrix", |_| {
            e01_lock_table::run()
        }),
        (
            "e03",
            "Files <= 512 KiB in at most two disk references",
            |_| e03_direct_access::run(),
        ),
        (
            "e04",
            "Contiguity counts collapse a run into one reference",
            |_| e04_contiguity::run(),
        ),
        ("e05", "Fragments for metadata: utilisation vs I/O", |_| {
            e05_fragments::run()
        }),
        ("e06", "64x64 free-extent array vs bitmap scan", |_| {
            e06_freespace::run()
        }),
        ("e07", "Track read-ahead cache", |_| e07_track_cache::run()),
        (
            "e08",
            "Caching at every level vs a cache-less server",
            |_| e08_cache_levels::run(),
        ),
        (
            "e09",
            "Idempotent operations under duplication and loss",
            |_| e09_idempotency::run(),
        ),
        ("e10", "Lock granularity: concurrency vs overhead", |_| {
            e10_granularity::run()
        }),
        ("e11", "Timeout deadlock resolution under load", |_| {
            e11_deadlock::run()
        }),
        (
            "e12",
            "WAL vs shadow page: commit cost and contiguity",
            |_| e12_wal_shadow::run(),
        ),
        ("e13", "Striping across disks", |_| e13_striping::run()),
        ("e14", "Stable storage and crash recovery", |_| {
            e14_recovery::run()
        }),
        ("e15", "Delayed-write vs write-through", |_| {
            e15_write_policy::run()
        }),
        ("e16", "Event-driven transaction agent lifecycle", |_| {
            e16_agent_lifecycle::run()
        }),
        (
            "e17",
            "Replica failover, resync, and lossy-RPC replication",
            |_| e17_replication_failover::run(),
        ),
        (
            "e18",
            "Group commit: batched log flushes and coalesced apply",
            |_| e18_group_commit::run(),
        ),
        (
            "e19",
            "Self-healing: checksums, scrubbing, sector remap, fsck repair",
            |_| e19_self_healing::run(),
        ),
        (
            "e20",
            "Open-loop latency under contention: sharded locks + block pool",
            e20_contention::run,
        ),
        (
            "e21",
            "Erasure-coded striping: RAID-5/6 parity groups vs the mirror",
            e21_raid::run,
        ),
        (
            "e22",
            "Lease-based client cache coherence: zero-RPC hot reads",
            e22_leases::run,
        ),
        (
            "e23",
            "Scale-out: placement master + N data servers, byte-identical sharding",
            e23_scaleout::run,
        ),
        (
            "e24",
            "Cross-shard atomic commit: 2PC over group commit, crash-recovered",
            e24_cross_shard::run,
        ),
    ]
}

/// Runs every experiment and concatenates the reports.
pub fn run_all(smoke: bool) -> String {
    let mut out = String::new();
    out.push_str("RHODOS distributed file facility — paper experiment suite\n");
    out.push_str("==========================================================\n");
    for (id, title, run) in all_experiments() {
        out.push_str(&format!("\n[{id}] {title}\n"));
        out.push_str(&"-".repeat(title.len() + 7));
        out.push('\n');
        out.push_str(&run(smoke));
    }
    out
}
