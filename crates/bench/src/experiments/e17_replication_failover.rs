//! E17 — replicated files: "the file may be replicated at several disk
//! servers ... the failure of one such server does not stop the system"
//! (§3), with operations carried by the idempotent, nearly-stateless RPC
//! layer. Two exhibits:
//!
//! 1. a torn write on one replica of three: the write path masks the
//!    fault, keeps the live replicas in agreement, and `resync` returns
//!    the victim byte-identical (regression test:
//!    `tests/replication_chaos.rs::torn_write_fails_over_and_resync_restores_byte_identity`);
//! 2. a lossy-network sweep over the networked deployment, showing
//!    writes survive message loss and duplication while each replica's
//!    replay cache stays bounded by the in-flight window.

use crate::setups::replica;
use crate::table::Table;
use rhodos_file_service::{FileService, ServiceType};
use rhodos_net::NetConfig;
use rhodos_replication::ReplicatedFiles;
use rhodos_simdisk::SimClock;

const OLD: &[u8] = b"committed before fault";
const NEW: &[u8] = b"committed during fault";

/// Write-through replica so injected faults surface inside the faulting
/// call; instant latency keeps timestamps identical across replicas, so
/// platter images can be compared byte for byte.
fn cluster() -> ReplicatedFiles {
    let clock = SimClock::new();
    ReplicatedFiles::new((0..3).map(|_| replica(&clock)).collect())
}

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

/// The torn-write scenario; returns a report row.
fn torn_write_case() -> Vec<String> {
    let mut rf = cluster();
    let fid = rf.create(ServiceType::Basic).unwrap();
    rf.open(fid).unwrap();
    rf.write(fid, 0, OLD).unwrap();

    // Replica 1's disk dies at its next sector write: the write-all
    // fan-out tears on that replica only.
    rf.replica_mut(1)
        .disk_mut(0)
        .disk_mut()
        .faults_mut()
        .crash_after_sector_writes(0);
    let outcome = rf.write(fid, 0, NEW);

    // How many of the replicas still trusted with the file — the live
    // set — actually hold the mutation on their platters? Caches are
    // evicted first: the torn replica's block cache still holds the new
    // data its disk never accepted.
    let mut live_total = 0;
    let mut live_new = 0;
    for i in 0..3 {
        if rf.is_failed(i) {
            continue;
        }
        live_total += 1;
        let fs = rf.replica_mut(i);
        let _ = fs.evict_caches();
        if fs.read(fid, 0, NEW.len()).ok().as_deref() == Some(NEW) {
            live_new += 1;
        }
    }
    let live = rf.live_replicas();
    let diverged = live_new != 0 && live_new != live_total;

    rf.resync(1).unwrap();
    for i in 0..3 {
        rf.replica_mut(i).flush_all().unwrap();
    }
    let reference = fingerprints(rf.replica_mut(0));
    let identical = (1..3).all(|i| fingerprints(rf.replica_mut(i)) == reference);
    let clean = (0..3).all(|i| rf.replica_mut(i).fsck().unwrap().is_clean());
    let repaired = if identical && clean {
        "byte-identical, fsck clean"
    } else {
        "STILL DIVERGED"
    };

    vec![
        "fail over, keep writing".to_string(),
        match outcome {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("error: {e}"),
        },
        rf.stats().failovers.to_string(),
        live.to_string(),
        format!("{live_new}/{live_total}"),
        if diverged { "DIVERGED" } else { "consistent" }.to_string(),
        repaired.to_string(),
    ]
}

/// One lossy-RPC run; returns a report row.
fn lossy_case(drop_pm: u16, dup_pm: u16) -> Vec<String> {
    let clock = SimClock::new();
    let replicas = (0..3).map(|_| replica(&clock)).collect();
    let mut rf = ReplicatedFiles::over_network(
        replicas,
        NetConfig::lossy(f64::from(drop_pm) / 1000.0, f64::from(dup_pm) / 1000.0, 17),
    );
    rf.set_max_attempts(64);

    let fid = rf.create(ServiceType::Basic).unwrap();
    rf.open(fid).unwrap();
    let mut intact = true;
    for i in 0..120u64 {
        let payload = i.to_le_bytes();
        rf.write(fid, (i % 32) * 8, &payload).unwrap();
        if i % 3 == 0 {
            let got = rf.read(fid, (i % 32) * 8, 8).unwrap();
            intact &= got == payload;
        }
    }
    let s = rf.rpc_stats();
    vec![
        format!(
            "{:.1}% / {:.1}%",
            f64::from(drop_pm) / 10.0,
            f64::from(dup_pm) / 10.0
        ),
        s.calls.to_string(),
        // Request/reply exchanges actually put on the wire: every call
        // costs one round trip plus one per retry.
        (s.calls + s.retries).to_string(),
        s.retries.to_string(),
        s.replayed.to_string(),
        s.peak_entries.to_string(),
        s.backoff_us.to_string(),
        rf.live_replicas().to_string(),
        if intact && rf.live_replicas() == 3 {
            "intact"
        } else {
            "LOST"
        }
        .to_string(),
    ]
}

/// Runs the experiment.
pub fn run() -> String {
    let mut a = Table::new(&[
        "write path",
        "write outcome",
        "failovers",
        "live",
        "applied (live)",
        "live replicas",
        "after repair",
    ]);
    a.row_owned(torn_write_case());

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
        b.row_owned(lossy_case(drop_pm, dup_pm));
    }

    let mut out = String::from("torn write on replica 1 of 3 (write-through):\n");
    out.push_str(&a.render());
    out.push_str("\n120 replicated writes over lossy channels (3 replicas, seed 17):\n");
    out.push_str(&b.render());
    out.push_str(
        "\npaper: replica failure does not stop the system (S3) and servers stay\n\
         nearly stateless (S4): the write path masks the fault and resync\n\
         returns the replica byte-identical, while under loss and duplication\n\
         every write commits exactly once and no server ever holds more than\n\
         the in-flight window of recorded replies.\n",
    );
    out
}

/// The replication and RPC-replay counters emitted as
/// `BENCH_replication.json`, from a fixed deterministic scenario — 3
/// write-through replicas over lossy channels (10% loss, 10%
/// duplication, seed 17), 200 mixed operations, one mid-run torn write
/// on replica 1 followed by a resync. Deterministic by construction
/// (simulated clock, seeded channels), so the emitted numbers are a
/// diffable baseline: a behaviour change in failover, backoff, or replay
/// pruning moves them.
pub fn stat_records() -> Vec<(String, u64)> {
    let clock = SimClock::new();
    let replicas = (0..3).map(|_| replica(&clock)).collect();
    let mut rf = ReplicatedFiles::over_network(replicas, NetConfig::lossy(0.1, 0.1, 17));
    rf.set_max_attempts(64);
    let fid = rf.create(ServiceType::Basic).expect("create");
    rf.open(fid).expect("open");
    for i in 0..200u64 {
        if i == 100 {
            rf.replica_mut(1)
                .disk_mut(0)
                .disk_mut()
                .faults_mut()
                .crash_after_sector_writes(0);
        }
        match i % 4 {
            0..=2 => rf
                .write(fid, (i % 48) * 8, &i.to_le_bytes())
                .expect("write"),
            _ => {
                rf.read(fid, 0, 8).expect("read");
            }
        }
        if rf.is_failed(1) {
            rf.resync(1).expect("resync");
        }
    }
    let rep = rf.stats().clone();
    let rpc = rf.rpc_stats();
    let mut rows = vec![
        ("replication.failovers".to_string(), rep.failovers),
        ("replication.resyncs".to_string(), rep.resyncs),
        (
            "replication.resync_sectors_copied".to_string(),
            rep.resync_sectors_copied,
        ),
        ("replication.writes_skipped".to_string(), rep.writes_skipped),
        ("rpc.calls".to_string(), rpc.calls),
        ("rpc.retries".to_string(), rpc.retries),
        ("rpc.backoff_us".to_string(), rpc.backoff_us),
        ("rpc.executed".to_string(), rpc.executed),
        ("rpc.replayed".to_string(), rpc.replayed),
        ("rpc.peak_replay_entries".to_string(), rpc.peak_entries),
        ("rpc.unreachable".to_string(), rpc.unreachable),
        ("rpc.net_sent".to_string(), rpc.net_sent),
        ("rpc.net_lost".to_string(), rpc.net_lost),
        ("rpc.net_duplicated".to_string(), rpc.net_duplicated),
    ];
    for (i, reads) in rep.reads_per_replica.iter().enumerate() {
        rows.push((format!("replication.reads_replica_{i}"), *reads));
    }
    rows
}

#[cfg(test)]
mod tests {
    #[test]
    fn write_path_masks_faults_and_rpc_state_stays_bounded() {
        let report = super::run();
        let torn_row = report
            .lines()
            .find(|l| l.contains("fail over, keep writing"))
            .expect("torn-write row present");
        assert!(
            torn_row.contains("ok"),
            "the torn write must succeed:\n{report}"
        );
        assert!(
            torn_row.contains("consistent") && torn_row.contains("byte-identical"),
            "the write path must keep replicas consistent:\n{report}"
        );
        assert!(!report.contains("LOST"), "lossy sweep lost data:\n{report}");
        assert!(
            !report.contains("STILL DIVERGED"),
            "resync failed to restore byte identity:\n{report}"
        );
        // The "nearly stateless" bound: one synchronous client per
        // channel means at most one recorded reply per server.
        // Whitespace tokens per row: "0.0% / 0.0%" splits into three, so
        // rpcs=3, round trips=4, retries=5, replayed=6, peak=7.
        for line in report.lines().filter(|l| l.contains('%')) {
            let peak: u64 = line
                .split_whitespace()
                .nth(7)
                .and_then(|s| s.parse().ok())
                .unwrap_or(99);
            assert!(peak <= 1, "unbounded replay state: {line}");
            let rpcs: u64 = line
                .split_whitespace()
                .nth(3)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            let trips: u64 = line
                .split_whitespace()
                .nth(4)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            assert!(trips >= rpcs, "round trips can never undercut rpcs: {line}");
        }
    }
}
