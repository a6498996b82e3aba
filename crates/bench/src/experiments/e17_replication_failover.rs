//! E17 — replicated files: "the file may be replicated at several disk
//! servers ... the failure of one such server does not stop the system"
//! (§3), with operations carried by the idempotent, nearly-stateless RPC
//! layer. A replicated file is a one-shard cluster whose shard is a
//! lock-step set of r data servers. Two exhibits:
//!
//! 1. a torn write on one member of a set of two and of three: the write
//!    path masks the fault, keeps the current members in agreement, and
//!    `resync` returns the victim byte-identical (regression test:
//!    `tests/replication_chaos.rs::torn_write_fails_over_and_resync_restores_byte_identity`);
//! 2. a lossy-network sweep over a set of three, showing writes survive
//!    message loss and duplication while each member's replay cache
//!    stays bounded by the in-flight window.

use crate::setups::replica_set;
use crate::table::Table;
use crate::{Cell, Report};
use rhodos_cluster::Cluster;
use rhodos_file_service::FileService;
use rhodos_net::NetConfig;
use rhodos_replication::wire::Channel;

/// The claim, in a line.
pub const TITLE: &str = "Replica failover, resync, and lossy-RPC replication";

const OLD: &[u8] = b"committed before fault";
const NEW: &[u8] = b"committed during fault";

fn fingerprints(fs: &mut FileService) -> Vec<u64> {
    let mut prints = Vec::new();
    for d in 0..fs.disk_count() {
        prints.push(fs.disk_mut(d).disk_mut().image_fingerprint());
        if let Some(stable) = fs.disk_mut(d).stable_mut() {
            prints.push(stable.mirror_a_mut().image_fingerprint());
            prints.push(stable.mirror_b_mut().image_fingerprint());
        }
    }
    prints
}

/// The torn-write scenario on a set of `r`, as a row of `t`. The
/// in-process lane costs no virtual time, so platter timestamps agree
/// across members and images compare byte for byte.
fn torn_write_case(r: usize, report: &mut Report, t: &mut Table) {
    let (mut c, gid) = replica_set(r, NetConfig::in_process());
    let fid = c.placement_of(gid).unwrap().1;
    c.write(gid, 0, OLD).unwrap();

    // Member 1's disk dies at its next sector write: the write-all
    // fan-out tears on that member only.
    c.with_server(1, |fs| {
        fs.disk_mut(0)
            .disk_mut()
            .faults_mut()
            .crash_after_sector_writes(0)
    });
    let outcome = c.write(gid, 0, NEW);

    // How many of the members still trusted with the file — the current
    // ones — actually hold the mutation on their platters? Caches are
    // evicted first: the torn member's block cache still holds the new
    // data its disk never accepted.
    let current: Vec<usize> = (0..r).filter(|&i| c.is_current(i)).collect();
    let live_new = current
        .iter()
        .filter(|&&i| {
            c.with_server(i, |fs| {
                let _ = fs.evict_caches();
                fs.read(fid, 0, NEW.len()).ok().as_deref() == Some(NEW)
            })
        })
        .count();
    let diverged = live_new != 0 && live_new != current.len();

    c.resync(1).unwrap();
    let prints: Vec<Vec<u64>> = (0..r)
        .map(|i| {
            c.with_server(i, |fs| {
                fs.flush_all().unwrap();
                fingerprints(fs)
            })
        })
        .collect();
    let identical = prints.iter().all(|p| *p == prints[0]);
    let clean = (0..r).all(|i| c.with_server(i, |fs| fs.fsck().unwrap().is_clean()));
    report.claim(
        format!("a write torn on one member of {r} succeeds"),
        outcome.is_ok(),
    );
    let consistent = report.claim(
        format!("the current members of {r} agree after the torn write"),
        !diverged,
    );
    let repaired = report.claim(
        format!("resync returns the torn member of {r} byte-identical and fsck-clean"),
        identical && clean,
    );

    t.row(&[
        &r,
        &"fail over, keep writing",
        &match outcome {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("error: {e}"),
        },
        &c.stats().failovers,
        &current.len(),
        &format!("{live_new}/{}", current.len()),
        &if consistent { "consistent" } else { "DIVERGED" },
        &if repaired {
            "byte-identical, fsck clean"
        } else {
            "STILL DIVERGED"
        },
    ]);
}

/// The RPC story over every member's channel, as named rows: sums of
/// calls, retries, backoff, executed and replayed requests and messages
/// sent, lost and duplicated, and the largest replay cache any member
/// held.
fn rpc_rows(c: &Cluster) -> Vec<(&'static str, u64)> {
    let channels: Vec<&Channel> = (0..c.server_count()).map(|i| c.channel(i)).collect();
    let sum = |f: fn(&Channel) -> u64| channels.iter().map(|ch| f(ch)).sum();
    let peak = channels.iter().map(|ch| ch.cache.stats().peak_entries);
    vec![
        ("calls", sum(|ch| ch.client.stats().calls)),
        ("retries", sum(|ch| ch.client.stats().retries)),
        ("backoff_us", sum(|ch| ch.client.stats().backoff_us)),
        ("executed", sum(|ch| ch.cache.stats().executed)),
        ("replayed", sum(|ch| ch.cache.stats().replayed)),
        ("peak_replay_entries", peak.max().unwrap_or(0)),
        ("net_sent", sum(|ch| ch.net.stats().sent)),
        ("net_lost", sum(|ch| ch.net.stats().lost)),
        ("net_duplicated", sum(|ch| ch.net.stats().duplicated)),
    ]
}

/// One lossy-RPC run, as a row of `t`.
fn lossy_case(drop_pm: u16, dup_pm: u16, report: &mut Report, t: &mut Table) {
    let net = NetConfig::lossy(f64::from(drop_pm) / 1000.0, f64::from(dup_pm) / 1000.0, 17);
    let (mut c, gid) = replica_set(3, net);
    let mut intact = true;
    for i in 0..120u64 {
        let payload = i.to_le_bytes();
        c.write(gid, (i % 32) * 8, &payload).unwrap();
        if i % 3 == 0 {
            let got = c.read(gid, (i % 32) * 8, 8).unwrap();
            intact &= got == payload;
        }
    }
    let rows = rpc_rows(&c);
    let rpc = |name: &str| rows.iter().find(|(n, _)| *n == name).map_or(0, |r| r.1);
    let (calls, retries) = (rpc("calls"), rpc("retries"));
    let live = (0..3).filter(|&i| c.is_current(i)).count();
    let loss = format!(
        "{:.1}% / {:.1}%",
        f64::from(drop_pm) / 10.0,
        f64::from(dup_pm) / 10.0
    );
    let peak = rpc("peak_replay_entries");
    report.claim(
        format!("at {loss} loss / dup no member holds more than one recorded reply"),
        peak <= 1,
    );
    let intact = report.claim(
        format!("at {loss} loss / dup every write lands once on all 3 members"),
        intact && live == 3,
    );
    // Request/reply exchanges actually put on the wire: every call costs
    // one round trip plus one per retry.
    let round_trips = calls + retries;
    t.row(&[
        &loss,
        &calls,
        &round_trips,
        &retries,
        &rpc("replayed"),
        &peak,
        &rpc("backoff_us"),
        &live,
        &if intact { "intact" } else { "LOST" },
    ]);
}

/// Runs the experiment. Its lane, `BENCH_replication.json`, is a
/// scenario of its own: a one-shard set of 3 write-through members over
/// lossy channels (10% loss, 10% duplication, seed 17), 200 mixed
/// operations, one mid-run torn write on member 1 followed by a resync
/// — a behaviour change in failover, backoff or replay pruning moves
/// its rows. Only the lane cell runs it: it prints nothing.
pub fn measure(cell: Cell) -> Report {
    let mut report = Report::default();
    let mut a = Table::new(&[
        "r",
        "write path",
        "write outcome",
        "failovers",
        "current",
        "applied (current)",
        "current members",
        "after repair",
    ]);
    for r in [2, 3] {
        torn_write_case(r, &mut report, &mut a);
    }

    let mut b = Table::new(&[
        "loss / dup",
        "rpcs",
        "round trips",
        "retries",
        "replayed",
        "peak replies held",
        "backoff us",
        "live",
        "data",
    ]);
    for (drop_pm, dup_pm) in [(0, 0), (50, 50), (150, 150), (300, 300)] {
        lossy_case(drop_pm, dup_pm, &mut report, &mut b);
    }

    let out = &mut report.text;
    out.push_str("torn write on member 1 of a one-shard set (write-through):\n");
    out.push_str(&a.render());
    out.push_str("\n120 replicated writes over lossy channels (r = 3, seed 17):\n");
    out.push_str(&b.render());
    out.push_str(
        "\npaper: replica failure does not stop the system (S3) and servers stay\n\
         nearly stateless (S4): the write path masks the fault and resync\n\
         returns the member byte-identical, while under loss and duplication\n\
         every write commits exactly once and no server ever holds more than\n\
         the in-flight window of recorded replies.\n",
    );
    if let Cell::Lane(_) = cell {
        report.rows = lane_rows();
    }
    report
}

/// The rows of `BENCH_replication.json` (see [`measure`]).
fn lane_rows() -> Vec<(String, u64)> {
    let (mut c, gid) = replica_set(3, NetConfig::lossy(0.1, 0.1, 17));
    for i in 0..200u64 {
        if i == 100 {
            c.with_server(1, |fs| {
                fs.disk_mut(0)
                    .disk_mut()
                    .faults_mut()
                    .crash_after_sector_writes(0)
            });
        }
        match i % 4 {
            0..=2 => c.write(gid, (i % 48) * 8, &i.to_le_bytes()).expect("write"),
            _ => {
                c.read(gid, 0, 8).expect("read");
            }
        }
        if !c.is_current(1) {
            c.resync(1).expect("resync");
        }
    }
    let s = c.stats();
    let mut rows = vec![
        ("replication.failovers".to_string(), s.failovers),
        ("replication.resyncs".to_string(), s.resyncs),
        (
            "replication.resync_sectors_copied".to_string(),
            s.resync_sectors_copied,
        ),
    ];
    for (name, v) in rpc_rows(&c) {
        rows.push((format!("rpc.{name}"), v));
    }
    for i in 0..c.server_count() {
        rows.push((format!("replication.reads_replica_{i}"), c.server_reads(i)));
    }
    rows
}
