//! E22 — lease-based client cache coherence: zero-RPC hot reads.
//!
//! The paper's agents "cache a substantial amount of file data to avoid
//! trying to access the file service for each request" (§5) — but the
//! seed reproduction's client cache was blind trust: safe only while one
//! process owned a file. The lease subsystem (PR 7) makes that caching
//! coherent: time-bounded read/write delegations, recall on conflicting
//! open, grant-sequence ordering, fencing of silent holders.
//!
//! This experiment drives real [`FileAgent`]s over one shared server
//! under two working sets:
//!
//! * **private** — every agent re-reads and rewrites its own files: the
//!   lease-held cache should serve hot reads with *no RPC at all*;
//! * **shared** — all agents hammer one Zipfian file population: every
//!   cross-agent hand-off goes through a recall, and the read/write
//!   history must be byte-identical to the leaseless ablation
//!   ([`LeaseConfig::Never`]: every read an RPC, every write pushed
//!   write-through — coherent because nothing is cached).
//!
//! Each operation records its virtual service time and whether it
//! visited the server; the E20 open-loop replay then turns both arms
//! into latency percentiles at a common offered rate. Claims: on the
//! private sweep the leases-on arm issues at least 5x fewer round trips
//! and holds a lower cached-read p99; on the shared sweep the two arms'
//! operation-stream fingerprints are identical (no stale bytes).
//!
//! `exp e22 --smoke` (`run(true)`) shrinks the cells;
//! [`stat_records`] uses a fixed mid-size cell for the committed
//! `BENCH_leases.json` lane.

use crate::loadgen::{OpClass, Replay, SplitMix64, Trace, Zipf};
use crate::table::Table;
use parking_lot::Mutex;
use rhodos_agent::{FileAgent, LeaseConfig, ServerHandle};
use rhodos_disk_service::BLOCK_SIZE;
use rhodos_file_service::{FileService, FileServiceConfig, LeaseParams};
use rhodos_naming::{AttributedName, NamingService};
use rhodos_net::{NetConfig, SimNetwork};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
use rhodos_txn::{TransactionService, TxnConfig};
use std::sync::Arc;

const BS: u64 = BLOCK_SIZE as u64;

/// One E22 cell.
#[derive(Debug, Clone, Copy)]
struct Cell {
    agents: usize,
    /// Files per agent (private) or in total (shared).
    files: usize,
    file_blocks: u64,
    ops: usize,
    read_pct: u64,
    skew: f64,
    seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sweep {
    Private,
    Shared,
}

/// One measured arm: counters plus the trace for latency replays.
struct Arm {
    trace: Trace,
    round_trips: u64,
    rpcs_avoided: u64,
    recalls: u64,
    renewals: u64,
    /// FNV-1a over every operation's observed bytes plus the final file
    /// contents — two coherent arms must agree on the shared sweep.
    fingerprint: u64,
}

fn run_arm(cell: &Cell, sweep: Sweep, lease: LeaseConfig) -> Arm {
    let clock = SimClock::new();
    let fs = FileService::single_disk(
        DiskGeometry::large(),
        LatencyModel::default(),
        clock.clone(),
        FileServiceConfig {
            lease: LeaseParams {
                // Longer than any cell's virtual run time: E22 measures
                // steady-state delegation, not term-expiry churn (the
                // expiry/fencing paths are exercised by
                // tests/lease_coherence.rs).
                term_us: 600_000_000,
            },
            ..FileServiceConfig::default()
        },
    )
    .expect("format e22 file service");
    let server: ServerHandle = Arc::new(Mutex::new(
        TransactionService::new(fs, TxnConfig::default()).expect("e22 transaction service"),
    ));
    let naming = Arc::new(Mutex::new(NamingService::new()));
    let mut agents: Vec<FileAgent> = (0..cell.agents)
        .map(|m| {
            FileAgent::with_lease_config(
                m as u32,
                vec![server.clone()],
                naming.clone(),
                SimNetwork::new(clock.clone(), NetConfig::reliable()),
                // Room for the whole working set a client touches.
                (cell.files * cell.file_blocks as usize) + 8,
                lease,
                NetConfig::reliable(),
            )
        })
        .collect();

    // Working set. Private: `files` files per agent, touched only by
    // their owner. Shared: `files` files total, opened by every agent.
    let file_bytes = (cell.file_blocks * BS) as usize;
    let mut ods = vec![Vec::new(); cell.agents];
    match sweep {
        Sweep::Private => {
            for (a, agent) in agents.iter_mut().enumerate() {
                for f in 0..cell.files {
                    let name = AttributedName::parse(&format!("name=e22-{a}-{f}")).expect("name");
                    let fid = agent.create(&name).expect("create");
                    let od = agent.open_fid(fid).expect("open");
                    agent
                        .pwrite(od, 0, &vec![0xA5u8; file_bytes])
                        .expect("seed");
                    agent.flush(od).expect("seed flush");
                    ods[a].push(od);
                }
            }
        }
        Sweep::Shared => {
            let mut fids = Vec::new();
            for f in 0..cell.files {
                let name = AttributedName::parse(&format!("name=e22-shared-{f}")).expect("name");
                let fid = agents[0].create(&name).expect("create");
                let od = agents[0].open_fid(fid).expect("open");
                agents[0]
                    .pwrite(od, 0, &vec![0xA5u8; file_bytes])
                    .expect("seed");
                agents[0].flush(od).expect("seed flush");
                ods[0].push(od);
                fids.push(fid);
            }
            for a in 1..cell.agents {
                for &fid in &fids {
                    ods[a].push(agents[a].open_fid(fid).expect("open shared"));
                }
            }
        }
    }

    let trips_at =
        |agents: &[FileAgent]| -> u64 { agents.iter().map(|a| a.net_stats().sent).sum() };
    let base_round_trips: u64 = agents.iter().map(|a| a.stats().rpcs_sent).sum();

    // The measured mix: open-loop sampled (agent, file, class, block).
    let zipf = Zipf::new(cell.files, cell.skew);
    let mut rng = SplitMix64::new(cell.seed);
    let mut ops = Vec::with_capacity(cell.ops);
    let mut fingerprint = rhodos_simdisk::FNV_OFFSET;
    for i in 0..cell.ops {
        let a = rng.below(cell.agents as u64) as usize;
        let f = match sweep {
            Sweep::Private => rng.below(cell.files as u64) as usize,
            Sweep::Shared => zipf.sample(&mut rng),
        };
        let od = ods[a][f];
        let class = if rng.below(100) < cell.read_pct {
            OpClass::Read
        } else {
            OpClass::Write
        };
        let block = rng.below(cell.file_blocks);
        let offset = block * BS;
        let sent0 = trips_at(&agents);
        let t0 = clock.now_us();
        match class {
            OpClass::Read | OpClass::Update => {
                let data = agents[a].pread(od, offset, 1024).expect("e22 read");
                fingerprint = rhodos_simdisk::fnv1a(fingerprint, &(i as u64).to_le_bytes());
                fingerprint = rhodos_simdisk::fnv1a(fingerprint, &data);
            }
            OpClass::Write => {
                let payload = vec![i as u8; 1024];
                agents[a].pwrite(od, offset, &payload).expect("e22 write");
            }
        }
        let service_us = (clock.now_us() - t0)
            + match class {
                OpClass::Read | OpClass::Update => 20,
                OpClass::Write => 40,
            };
        // A lease-served read (or delegated buffered write) never left
        // the client: it contends with nothing but its own agent. Any
        // server visit serialises on the server resource.
        let resources = if trips_at(&agents) > sent0 {
            vec![0u32]
        } else {
            Vec::new()
        };
        ops.push((class, a, service_us, resources));
    }

    // Push every delegated write back and fold the final file images in:
    // coherent arms must agree on what the server ends up holding.
    for a in 0..cell.agents {
        for &od in &ods[a] {
            agents[a].flush(od).expect("final flush");
        }
    }
    for (a, agent_ods) in ods.iter().enumerate() {
        if sweep == Sweep::Shared && a > 0 {
            break; // one copy of each shared file is enough
        }
        for &od in agent_ods {
            let fid = agents[a].fid_of(od).expect("open od");
            let mut srv = server.lock();
            let fs = srv.file_service_mut();
            let size = fs.get_attribute(fid).expect("attrs").size as usize;
            let data = fs.read(fid, 0, size).expect("final read");
            fingerprint = rhodos_simdisk::fnv1a(fingerprint, &data);
        }
    }

    let mut round_trips = 0;
    let mut rpcs_avoided = 0;
    let mut recalls = 0;
    let mut renewals = 0;
    for agent in &agents {
        let s = agent.stats();
        round_trips += s.rpcs_sent;
        rpcs_avoided += s.rpcs_avoided_by_lease;
        recalls += s.recalls;
        renewals += s.lease_renewals;
    }
    Arm {
        trace: Trace::from_ops(ops, 1, cell.agents),
        round_trips: round_trips - base_round_trips,
        rpcs_avoided,
        recalls,
        renewals,
        fingerprint,
    }
}

/// Both arms of one sweep, replayed at a common offered rate (90% of
/// the ablation arm's saturation — the server round trip is its wall).
struct SweepResult {
    auto_arm: Arm,
    never_arm: Arm,
    auto_replay: Replay,
    never_replay: Replay,
    offered: u64,
}

fn run_sweep(cell: &Cell, sweep: Sweep) -> SweepResult {
    let auto_arm = run_arm(cell, sweep, LeaseConfig::Auto);
    let never_arm = run_arm(cell, sweep, LeaseConfig::Never);
    let offered = (never_arm.trace.saturation_per_ks() * 9 / 10).max(1);
    SweepResult {
        auto_replay: auto_arm.trace.replay(offered),
        never_replay: never_arm.trace.replay(offered),
        auto_arm,
        never_arm,
        offered,
    }
}

fn row(t: &mut Table, sweep: &str, arm_name: &str, arm: &Arm, replay: &Replay, offered: u64) {
    t.row_owned(vec![
        sweep.to_string(),
        arm_name.to_string(),
        format!("{:.2}", offered as f64 / 1000.0),
        arm.round_trips.to_string(),
        arm.rpcs_avoided.to_string(),
        arm.recalls.to_string(),
        arm.renewals.to_string(),
        replay.read.p50.to_string(),
        replay.read.p99.to_string(),
        replay.write.p99.to_string(),
        format!("{:016x}", arm.fingerprint),
    ]);
}

fn cells(smoke: bool) -> (Cell, Cell) {
    let (agents, files, ops) = if smoke { (4, 3, 300) } else { (16, 6, 2500) };
    let private = Cell {
        agents,
        files,
        file_blocks: 4,
        ops,
        read_pct: 80,
        skew: 0.0,
        seed: 22,
    };
    let shared = Cell {
        skew: 0.9,
        ..private
    };
    (private, shared)
}

/// Runs the experiment.
pub fn run(smoke: bool) -> String {
    let (private_cell, shared_cell) = cells(smoke);
    let mut t = Table::new(&[
        "sweep",
        "arm",
        "offered ops/s",
        "round trips",
        "lease hits",
        "recalls",
        "renewals",
        "read p50",
        "read p99",
        "write p99",
        "fingerprint",
    ]);
    let private = run_sweep(&private_cell, Sweep::Private);
    let shared = run_sweep(&shared_cell, Sweep::Shared);
    for (name, s) in [("private", &private), ("shared", &shared)] {
        row(
            &mut t,
            name,
            "leases (Auto)",
            &s.auto_arm,
            &s.auto_replay,
            s.offered,
        );
        row(
            &mut t,
            name,
            "ablation (Never)",
            &s.never_arm,
            &s.never_replay,
            s.offered,
        );
    }
    let ratio = private.never_arm.round_trips as f64 / private.auto_arm.round_trips.max(1) as f64;
    let claim_trips = private.never_arm.round_trips >= 5 * private.auto_arm.round_trips.max(1);
    let claim_p99 = private.auto_replay.read.p50 < private.never_replay.read.p50
        && private.auto_replay.read.p99 < private.never_replay.read.p99;
    let claim_coherent = shared.auto_arm.fingerprint == shared.never_arm.fingerprint
        && private.auto_arm.fingerprint == private.never_arm.fingerprint;
    let mut out = t.render();
    out.push_str(&format!(
        "\nPrivate working sets: the lease-held client cache serves hot reads\n\
         with no RPC at all — {:.1}x fewer round trips (>= 5x: {}), lower\n\
         cached-read p50/p99 at the common offered rate: {}.\n\
         Shared Zipfian sweep: every cross-agent hand-off goes through a\n\
         recall, and the byte history matches the leaseless write-through\n\
         ablation exactly (no stale bytes): {}.\n",
        ratio,
        if claim_trips { "yes" } else { "NO" },
        if claim_p99 { "yes" } else { "NO" },
        if claim_coherent { "yes" } else { "NO" },
    ));
    out
}

/// The deterministic lane emitted as `BENCH_leases.json`: a fixed
/// mid-size cell (independent of the smoke flag), both sweeps, both
/// arms. `bench_json` diffs `read.p99_us` and `round_trips` against the
/// committed `BENCH_leases.json` with a 10% tolerance.
pub fn stat_records() -> Vec<(String, u64)> {
    let private_cell = Cell {
        agents: 8,
        files: 4,
        file_blocks: 4,
        ops: 1200,
        read_pct: 80,
        skew: 0.0,
        seed: 22,
    };
    let shared_cell = Cell {
        skew: 0.9,
        ..private_cell
    };
    let mut rows = Vec::new();
    for (tag, cell, sweep) in [
        ("private", &private_cell, Sweep::Private),
        ("shared", &shared_cell, Sweep::Shared),
    ] {
        let s = run_sweep(cell, sweep);
        for (arm_tag, arm, replay) in [
            ("auto", &s.auto_arm, &s.auto_replay),
            ("never", &s.never_arm, &s.never_replay),
        ] {
            let p = |k: &str| format!("leases.{tag}.{arm_tag}.{k}");
            rows.extend([
                (p("round_trips"), arm.round_trips),
                (p("rpcs_avoided"), arm.rpcs_avoided),
                (p("recalls"), arm.recalls),
                (p("renewals"), arm.renewals),
                (p("read.p50_us"), replay.read.p50),
                (p("read.p99_us"), replay.read.p99),
                (p("write.p99_us"), replay.write.p99),
                (p("fingerprint"), arm.fingerprint),
            ]);
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The E22 claim shape, on the smoke cell: strictly fewer RPCs and a
    /// lower cached-read p99 than the ablation on private working sets;
    /// byte-identical history on the shared sweep.
    #[test]
    fn leases_beat_the_ablation_and_stay_coherent() {
        let cell = Cell {
            agents: 4,
            files: 3,
            file_blocks: 3,
            ops: 400,
            read_pct: 80,
            skew: 0.0,
            seed: 22,
        };
        let private = run_sweep(&cell, Sweep::Private);
        assert!(
            private.never_arm.round_trips >= 5 * private.auto_arm.round_trips.max(1),
            "leases must cut round trips >= 5x on private sets: {} vs {}",
            private.auto_arm.round_trips,
            private.never_arm.round_trips
        );
        assert!(
            private.auto_arm.rpcs_avoided > 0,
            "hot reads must be served lease-locally"
        );
        assert!(
            private.auto_replay.read.p99 < private.never_replay.read.p99,
            "cached-read p99 must beat the ablation: {} vs {}",
            private.auto_replay.read.p99,
            private.never_replay.read.p99
        );
        assert_eq!(
            private.auto_arm.fingerprint, private.never_arm.fingerprint,
            "private sweeps must agree byte-for-byte"
        );
        let shared = run_sweep(&Cell { skew: 0.9, ..cell }, Sweep::Shared);
        assert_eq!(
            shared.auto_arm.fingerprint, shared.never_arm.fingerprint,
            "shared sweep must be byte-identical to the coherent ablation"
        );
        assert!(
            shared.auto_arm.recalls > 0,
            "shared sweep must exercise recalls"
        );
    }

    #[test]
    fn lane_records_are_stable() {
        assert_eq!(stat_records(), stat_records());
    }

    #[test]
    fn smoke_report_renders() {
        let r = run(true);
        assert!(r.contains("leases (Auto)"));
        assert!(r.contains("ablation (Never)"));
    }
}
