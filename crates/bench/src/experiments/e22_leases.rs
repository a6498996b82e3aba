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
//! `exp e22 --smoke` shrinks the cells; the committed
//! `BENCH_leases.json` lane is a fixed mid-size cell, and `bench_json`
//! gates its `read.p99_us` and `round_trips` with a 10% tolerance.

use crate::loadgen::{OpClass, Replay, SplitMix64, Trace, Zipf};
use crate::table::Table;
use crate::{Cell, Report};
use parking_lot::Mutex;
use rhodos_agent::{FileAgent, LeaseConfig, ServerHandle};
use rhodos_disk_service::BLOCK_SIZE;
use rhodos_file_service::{FileService, FileServiceConfig, LeaseParams};
use rhodos_naming::{AttributedName, NamingService};
use rhodos_net::{NetConfig, SimNetwork};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
use rhodos_txn::{TransactionService, TxnConfig};
use std::sync::Arc;

/// The claim, in a line.
pub const TITLE: &str = "Lease-based client cache coherence: zero-RPC hot reads";

const BS: u64 = BLOCK_SIZE as u64;

/// One E22 workload.
#[derive(Debug, Clone, Copy)]
struct Mix {
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

fn run_arm(mix: &Mix, sweep: Sweep, lease: LeaseConfig) -> Arm {
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
    let mut agents: Vec<FileAgent> = (0..mix.agents)
        .map(|m| {
            FileAgent::with_lease_config(
                m as u32,
                vec![server.clone()],
                naming.clone(),
                SimNetwork::new(clock.clone(), NetConfig::reliable()),
                // Room for the whole working set a client touches.
                (mix.files * mix.file_blocks as usize) + 8,
                lease,
                NetConfig::reliable(),
            )
        })
        .collect();

    // Working set. Private: `files` files per agent, touched only by
    // their owner. Shared: `files` files total, opened by every agent.
    let file_bytes = (mix.file_blocks * BS) as usize;
    let mut ods = vec![Vec::new(); mix.agents];
    match sweep {
        Sweep::Private => {
            for (a, agent) in agents.iter_mut().enumerate() {
                for f in 0..mix.files {
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
            for f in 0..mix.files {
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
            for a in 1..mix.agents {
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
    let zipf = Zipf::new(mix.files, mix.skew);
    let mut rng = SplitMix64::new(mix.seed);
    let mut ops = Vec::with_capacity(mix.ops);
    let mut fingerprint = rhodos_simdisk::FNV_OFFSET;
    for i in 0..mix.ops {
        let a = rng.below(mix.agents as u64) as usize;
        let f = match sweep {
            Sweep::Private => rng.below(mix.files as u64) as usize,
            Sweep::Shared => zipf.sample(&mut rng),
        };
        let od = ods[a][f];
        let class = if rng.below(100) < mix.read_pct {
            OpClass::Read
        } else {
            OpClass::Write
        };
        let block = rng.below(mix.file_blocks);
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
    for a in 0..mix.agents {
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
        trace: Trace::from_ops(ops, 1, mix.agents),
        round_trips: round_trips - base_round_trips,
        rpcs_avoided,
        recalls,
        renewals,
        fingerprint,
    }
}

/// Both arms of one sweep — leases, then the leaseless ablation — each
/// with its replay at a common offered rate, and that rate: 90% of the
/// ablation arm's saturation, where the server round trip is its wall.
fn run_sweep(mix: &Mix, sweep: Sweep) -> ([(Arm, Replay); 2], u64) {
    let arms = [LeaseConfig::Auto, LeaseConfig::Never].map(|lease| run_arm(mix, sweep, lease));
    let offered = (arms[1].trace.saturation_per_ks() * 9 / 10).max(1);
    let replayed = arms.map(|arm| {
        let replay = arm.trace.replay(offered);
        (arm, replay)
    });
    (replayed, offered)
}

/// Runs the experiment.
pub fn measure(cell: Cell) -> Report {
    let (agents, files, ops) = cell.pick((4, 3, 300), (16, 6, 2500), (8, 4, 1200));
    let private_mix = Mix {
        agents,
        files,
        file_blocks: 4,
        ops,
        read_pct: 80,
        skew: 0.0,
        seed: 22,
    };
    let shared_mix = Mix {
        skew: 0.9,
        ..private_mix
    };
    let mut r = Report::default();
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
    let private = run_sweep(&private_mix, Sweep::Private);
    let shared = run_sweep(&shared_mix, Sweep::Shared);
    for (name, (arms, offered)) in [("private", &private), ("shared", &shared)] {
        let labels = [("leases (Auto)", "auto"), ("ablation (Never)", "never")];
        for ((label, tag), (arm, replay)) in labels.iter().zip(arms) {
            t.row(&[
                &name,
                label,
                &format!("{:.2}", *offered as f64 / 1000.0),
                &arm.round_trips,
                &arm.rpcs_avoided,
                &arm.recalls,
                &arm.renewals,
                &replay.read.p50,
                &replay.read.p99,
                &replay.write.p99,
                &format!("{:016x}", arm.fingerprint),
            ]);
            let p = |k: &str| format!("leases.{name}.{tag}.{k}");
            r.rows.extend([
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
    let ([(auto, auto_replay), (never, never_replay)], _) = &private;
    let ([(shared_auto, _), (shared_never, _)], _) = &shared;
    r.claim(
        "on private sets the lease-held cache serves reads with no RPC",
        auto.rpcs_avoided > 0,
    );
    r.claim(
        "on the shared sweep cross-agent hand-offs go through recalls",
        shared_auto.recalls > 0,
    );
    let ratio = never.round_trips as f64 / auto.round_trips.max(1) as f64;
    let claim_trips = r.verdict(
        "on private sets leases cut round trips at least 5x",
        never.round_trips >= 5 * auto.round_trips.max(1),
    );
    let claim_p99 = r.verdict(
        "on private sets leases lower the read p50 and p99 at the common offered rate",
        auto_replay.read.p50 < never_replay.read.p50
            && auto_replay.read.p99 < never_replay.read.p99,
    );
    let claim_coherent = r.verdict(
        "both sweeps read and leave the same bytes as the leaseless ablation",
        shared_auto.fingerprint == shared_never.fingerprint
            && auto.fingerprint == never.fingerprint,
    );
    r.text.push_str(&t.render());
    r.text.push_str(&format!(
        "\nPrivate working sets: the lease-held client cache serves hot reads\n\
         with no RPC at all — {ratio:.1}x fewer round trips (>= 5x: {claim_trips}), lower\n\
         cached-read p50/p99 at the common offered rate: {claim_p99}.\n\
         Shared Zipfian sweep: every cross-agent hand-off goes through a\n\
         recall, and the byte history matches the leaseless write-through\n\
         ablation exactly (no stale bytes): {claim_coherent}.\n",
    ));
    r
}
