//! E18 — group commit (§6.6): "the intentions list of the committing
//! transaction is written to the log ... several intentions lists may be
//! written to the log in a single disk operation". The pipeline decouples
//! log durability from `tend`: a leader appends every queued commit
//! record, forces the log **once**, then applies all the batched
//! intentions through the per-spindle elevator schedulers and coalesces
//! their `Completed` markers into the *next* force.
//!
//! This experiment sweeps the committer count: each wave of `committers`
//! transactions is one [`TransactionService::commit_batch`], exactly as
//! the leader forms it, and the one-committer wave — a force per commit —
//! is the reference. Reported per cell: commits, log flushes, intention
//! records per flush (avg/high-water), disk write references, the busiest
//! spindle's busy time, and simulated completion time. The batches are
//! driven deterministically so the table is byte-stable; the real
//! threaded leader/follower path is exercised by the `rhodos-txn`
//! concurrency tests and `benchmark/`'s `txn-contend` workload.

use crate::latency::LatencySummary;
use crate::table::{speedup, Table};
use rhodos_file_service::LockLevel;
use rhodos_txn::{CommitReq, TransactionService, TxnStats};

const NDISKS: usize = 4;
const CHUNK_BLOCKS: u64 = 4;
/// Every cell commits the same total work; only the batching differs.
const TOTAL_COMMITS: usize = 96;

struct Outcome {
    stats: TxnStats,
    write_refs: u64,
    busiest_us: u64,
    sim_us: u64,
    /// Per-commit virtual-time latency, enqueue to batch durable
    /// (followers wait for the leader's force, so the whole wave shares
    /// its completion point).
    commit_lat: LatencySummary,
}

fn rig() -> TransactionService {
    crate::setups::striped_transaction_service(NDISKS, CHUNK_BLOCKS)
}

/// Runs `TOTAL_COMMITS` two-page update transactions, `committers` at a
/// time; each wave commits as one batch (prepare × n, force once,
/// complete × n).
fn measure(committers: usize) -> Outcome {
    let mut ts = rig();
    let fids: Vec<_> = (0..committers)
        .map(|_| ts.tcreate(LockLevel::Page).unwrap())
        .collect();
    // A durable 4-block base extent per committer, so the measured
    // transactions update in place (steady state, not first growth).
    for &fid in &fids {
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.twrite(t, fid, 0, &vec![0u8; 4 * 8192]).unwrap();
        ts.tend(t).unwrap();
    }
    ts.flush_log().unwrap();
    let s0 = ts.stats();
    let (w0, b0): (Vec<u64>, Vec<u64>) = {
        let stats = ts.file_service_mut().stats();
        (
            stats.disks.iter().map(|d| d.disk.write_ops).collect(),
            stats.disks.iter().map(|d| d.disk.busy_us).collect(),
        )
    };
    let clock = ts.file_service_mut().clock();
    let t0 = clock.now_us();
    let mut commit_samples = Vec::with_capacity(TOTAL_COMMITS);
    let rounds = TOTAL_COMMITS / committers;
    for round in 0..rounds {
        let mut wave = Vec::with_capacity(committers);
        let mut enqueued_at = Vec::with_capacity(committers);
        for (i, &fid) in fids.iter().enumerate() {
            let t = ts.tbegin();
            ts.topen(t, fid).unwrap();
            // Two of the four pages, rotating, so the elevator sees
            // multi-page batches at shifting addresses.
            let base = (((round + i) % 2) * 8192) as u64;
            ts.twrite(t, fid, base, &vec![round as u8; 8192]).unwrap();
            ts.twrite(t, fid, base + 2 * 8192, &vec![i as u8; 8192])
                .unwrap();
            enqueued_at.push(clock.now_us());
            wave.push(CommitReq::Local(t));
        }
        // The leader: one force for the whole wave, then apply.
        for result in ts.commit_batch(&wave) {
            result.unwrap();
        }
        // Every commit in the wave becomes durable at the wave's end.
        let wave_done = clock.now_us();
        commit_samples.extend(enqueued_at.iter().map(|&at| wave_done - at));
    }
    // Force the tail `Completed` markers so every cell accounts the same
    // durable end state.
    ts.flush_log().unwrap();
    let s1 = ts.stats();
    let fs_stats = ts.file_service_mut().stats();
    let write_refs: u64 = fs_stats
        .disks
        .iter()
        .zip(&w0)
        .map(|(d, w)| d.disk.write_ops - w)
        .sum();
    let busiest_us = fs_stats
        .disks
        .iter()
        .zip(&b0)
        .map(|(d, b)| d.disk.busy_us - b)
        .max()
        .unwrap();
    let sim_us = ts.file_service_mut().clock().now_us() - t0;
    Outcome {
        stats: TxnStats {
            committed: s1.committed - s0.committed,
            log_flushes: s1.log_flushes - s0.log_flushes,
            records_flushed: s1.records_flushed - s0.records_flushed,
            records_per_flush_hwm: s1.records_per_flush_hwm,
            group_commits: s1.group_commits - s0.group_commits,
            commit_batch_pages: s1.commit_batch_pages - s0.commit_batch_pages,
            log_compactions: s1.log_compactions - s0.log_compactions,
            ..s1
        },
        write_refs,
        busiest_us,
        sim_us,
        commit_lat: LatencySummary::from_samples(&commit_samples),
    }
}

/// The cross-shard row: the same wave pattern, but every committer is a
/// 2PC *participant* — `prepare_participant` puts its durable `Prepared`
/// record on the wave's shared force exactly as local commit records
/// ride it, and the coordinator's commit decision (`resolve_prepared`)
/// applies afterwards. The flush columns count prepare forces and
/// `Prepared` records, so the table shows group commit amortising 2PC
/// phase one the same way it amortises local `tend`.
fn measure_cross(committers: usize) -> Outcome {
    let mut ts = rig();
    let fids: Vec<_> = (0..committers)
        .map(|_| ts.tcreate(LockLevel::Page).unwrap())
        .collect();
    for &fid in &fids {
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.twrite(t, fid, 0, &vec![0u8; 4 * 8192]).unwrap();
        ts.tend(t).unwrap();
    }
    ts.flush_log().unwrap();
    let s0 = ts.stats();
    let (w0, b0): (Vec<u64>, Vec<u64>) = {
        let stats = ts.file_service_mut().stats();
        (
            stats.disks.iter().map(|d| d.disk.write_ops).collect(),
            stats.disks.iter().map(|d| d.disk.busy_us).collect(),
        )
    };
    let clock = ts.file_service_mut().clock();
    let t0 = clock.now_us();
    let mut commit_samples = Vec::with_capacity(TOTAL_COMMITS);
    let rounds = TOTAL_COMMITS / committers;
    for round in 0..rounds {
        let mut gtids = Vec::with_capacity(committers);
        let mut enqueued_at = Vec::with_capacity(committers);
        for (i, &fid) in fids.iter().enumerate() {
            let t = ts.tbegin();
            ts.topen(t, fid).unwrap();
            let base = (((round + i) % 2) * 8192) as u64;
            ts.twrite(t, fid, base, &vec![round as u8; 8192]).unwrap();
            ts.twrite(t, fid, base + 2 * 8192, &vec![i as u8; 8192])
                .unwrap();
            let gtid = (round * committers + i) as u64 + 1;
            enqueued_at.push(clock.now_us());
            ts.prepare_participant(t, gtid).unwrap();
            gtids.push(gtid);
        }
        // One force covers every participant's vote in the wave.
        ts.flush_log().unwrap();
        let wave_durable = clock.now_us();
        commit_samples.extend(enqueued_at.iter().map(|&at| wave_durable - at));
        for gtid in gtids {
            assert!(ts.resolve_prepared(gtid, true).unwrap());
        }
    }
    ts.flush_log().unwrap();
    let s1 = ts.stats();
    let fs_stats = ts.file_service_mut().stats();
    let write_refs: u64 = fs_stats
        .disks
        .iter()
        .zip(&w0)
        .map(|(d, w)| d.disk.write_ops - w)
        .sum();
    let busiest_us = fs_stats
        .disks
        .iter()
        .zip(&b0)
        .map(|(d, b)| d.disk.busy_us - b)
        .max()
        .unwrap();
    let sim_us = ts.file_service_mut().clock().now_us() - t0;
    Outcome {
        // The flush columns report the 2PC phase-one accounting: forces
        // that carried `Prepared` records, and those records per force.
        stats: TxnStats {
            committed: s1.prepares - s0.prepares,
            log_flushes: s1.prepare_flushes - s0.prepare_flushes,
            records_flushed: s1.prepare_records_flushed - s0.prepare_records_flushed,
            records_per_flush_hwm: s1.records_per_flush_hwm,
            group_commits: s1.group_commits - s0.group_commits,
            commit_batch_pages: s1.commit_batch_pages - s0.commit_batch_pages,
            log_compactions: s1.log_compactions - s0.log_compactions,
            ..s1
        },
        write_refs,
        busiest_us,
        sim_us,
        commit_lat: LatencySummary::from_samples(&commit_samples),
    }
}

/// The deterministic commit counters emitted as `BENCH_txn_commit.json`
/// (8 committers) — a diffable baseline: any change to the pipeline's
/// batching, the elevator apply, or the flush accounting moves these
/// numbers.
pub fn stat_records() -> Vec<(String, u64)> {
    let o = measure(8);
    let avg_x100 = (o.stats.records_flushed * 100)
        .checked_div(o.stats.log_flushes)
        .unwrap_or(0);
    [
        ("committed", o.stats.committed),
        ("log_flushes", o.stats.log_flushes),
        ("records_per_flush_x100", avg_x100),
        ("group_commits", o.stats.group_commits),
        ("commit_batch_pages", o.stats.commit_batch_pages),
        ("write_refs", o.write_refs),
        ("busiest_us", o.busiest_us),
    ]
    .map(|(name, v)| (format!("txn_commit.group.{name}"), v))
    .into()
}

/// Runs the experiment.
pub fn run() -> String {
    let mut t = Table::new(&[
        "committers",
        "commit mode",
        "commits",
        "log flushes",
        "recs/flush",
        "flush hwm",
        "batch pages",
        "write refs",
        "busiest spindle (us)",
        "sim time (us)",
        "commit p50 (us)",
        "commit p99 (us)",
        "flushes vs 1 committer",
    ]);
    let cells = [1usize, 8, 32].map(|c| (c, measure(c), measure_cross(c)));
    let single = &cells[0].1;
    let mut worst_flush_ratio = f64::MAX;
    let mut makespan_ok = true;
    for (committers, group, cross) in &cells {
        for (name, o) in [("group commit", group), ("cross-shard prepare", cross)] {
            let avg = if o.stats.log_flushes == 0 {
                0.0
            } else {
                o.stats.records_flushed as f64 / o.stats.log_flushes as f64
            };
            t.row_owned(vec![
                committers.to_string(),
                name.to_string(),
                o.stats.committed.to_string(),
                o.stats.log_flushes.to_string(),
                format!("{avg:.1}"),
                o.stats.records_per_flush_hwm.to_string(),
                o.stats.commit_batch_pages.to_string(),
                o.write_refs.to_string(),
                o.busiest_us.to_string(),
                o.sim_us.to_string(),
                o.commit_lat.p50.to_string(),
                o.commit_lat.p99.to_string(),
                speedup(single.stats.log_flushes as f64, o.stats.log_flushes as f64),
            ]);
        }
        if *committers > 1 {
            worst_flush_ratio = worst_flush_ratio
                .min(single.stats.log_flushes as f64 / group.stats.log_flushes.max(1) as f64);
            makespan_ok &= group.busiest_us <= single.busiest_us;
        }
    }
    let mut out = t.render();
    out.push_str(&format!(
        "\nSame {TOTAL_COMMITS} two-page commits per cell over {NDISKS} striped spindles.\n\
         Group commit forces the log once per wave and folds `Completed`\n\
         markers into the next force; one committer forces once per commit.\n\
         The cross-shard row runs the wave as 2PC participants: its flush\n\
         columns count prepare forces and `Prepared` records per force —\n\
         phase one amortises exactly like local commit.\n\
         Concurrent-wave flush reduction >= 4x: {} (worst {:.1}x); busiest-spindle\n\
         makespan never worse than one committer: {}.\n",
        if worst_flush_ratio >= 4.0 {
            "yes"
        } else {
            "NO"
        },
        worst_flush_ratio,
        if makespan_ok { "yes" } else { "NO" },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_commit_amortises_at_scale() {
        let single = measure(1);
        let group = measure(32);
        assert_eq!(single.stats.committed, group.stats.committed);
        assert!(
            group.stats.log_flushes * 4 <= single.stats.log_flushes,
            "expected >=4x fewer flushes: 32 committers {} vs one {}",
            group.stats.log_flushes,
            single.stats.log_flushes
        );
        assert!(
            group.busiest_us <= single.busiest_us,
            "busiest spindle must not regress: 32 committers {} vs one {}",
            group.busiest_us,
            single.busiest_us
        );
        assert!(group.stats.group_commits > 0);
        assert!(group.stats.commit_batch_pages > 0, "batched apply unused");
        assert_eq!(group.commit_lat.count, single.commit_lat.count);
        assert!(group.commit_lat.p99 > 0, "commit latency must be sampled");
    }

    #[test]
    fn stat_records_are_stable_across_runs() {
        assert_eq!(stat_records(), stat_records());
    }

    #[test]
    fn report_renders() {
        let r = run();
        assert!(r.contains("group commit"));
        assert!(r.contains("yes"));
    }
}
