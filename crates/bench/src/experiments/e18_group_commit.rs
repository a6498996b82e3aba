//! E18 — group commit (§6.6): "the intentions list of the committing
//! transaction is written to the log ... several intentions lists may be
//! written to the log in a single disk operation". The pipeline decouples
//! log durability from `tend`: whoever holds the service lock commits
//! everyone queued — it appends every queued commit record, forces the
//! log **once**, then applies all the batched intentions through the
//! per-spindle elevator schedulers and coalesces their `Completed`
//! markers into the *next* force.
//!
//! This experiment sweeps the committer count: each wave of `committers`
//! transactions is one [`rhodos_txn::TransactionService::commit_batch`], exactly as
//! the lock holder forms it from the queue, and the one-committer wave —
//! a force per commit — is the reference. Reported per cell: commits, log
//! flushes, intention records per flush (avg/high-water), disk write
//! references, the busiest spindle's busy time, and simulated completion
//! time. The batches are driven deterministically so the table is
//! byte-stable; the real threaded path — a committer queued behind the
//! holder of the service lock — is exercised by the `rhodos-txn`
//! concurrency tests and `benchmark/`'s `txn-contend` workload.

use crate::latency::LatencySummary;
use crate::table::{speedup, Table};
use crate::{Cell, Report};
use rhodos_file_service::LockLevel;
use rhodos_txn::{CommitReq, TxnStats};

/// The claim, in a line.
pub const TITLE: &str = "Group commit: batched log flushes and coalesced apply";

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
    /// (every queued committer waits for the holder's force, so the whole
    /// wave shares its completion point).
    commit_lat: LatencySummary,
}

/// Runs `TOTAL_COMMITS` two-page update transactions, `committers` at a
/// time; each wave commits as one batch (prepare × n, force once,
/// complete × n).
///
/// With `participants` every committer is a 2PC *participant* instead —
/// `prepare_participant` puts its durable `Prepared` record on the
/// wave's shared force exactly as local commit records ride it, and the
/// coordinator's commit decision (`resolve_prepared`) applies afterwards.
/// The flush columns then count prepare forces and `Prepared` records,
/// so the table shows group commit amortising 2PC phase one the same way
/// it amortises local `tend`.
fn waves(committers: usize, participants: bool) -> Outcome {
    let mut ts = crate::setups::striped_transaction_service(NDISKS, CHUNK_BLOCKS);
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
        let mut gtids = Vec::with_capacity(committers);
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
            if participants {
                let gtid = (round * committers + i) as u64 + 1;
                ts.prepare_participant(t, gtid).unwrap();
                gtids.push(gtid);
            } else {
                wave.push(CommitReq::Local(t));
            }
        }
        if participants {
            // One force covers every participant's vote in the wave.
            ts.flush_log().unwrap();
        } else {
            // The lock holder: one force for the whole wave, then apply.
            for result in ts.commit_batch(&wave) {
                result.unwrap();
            }
        }
        // Every commit in the wave is durable at this point.
        let durable = clock.now_us();
        commit_samples.extend(enqueued_at.iter().map(|&at| durable - at));
        for gtid in gtids {
            assert!(ts.resolve_prepared(gtid, true).unwrap());
        }
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
    let (committed, log_flushes, records_flushed) = if participants {
        (
            s1.prepares - s0.prepares,
            s1.prepare_flushes - s0.prepare_flushes,
            s1.prepare_records_flushed - s0.prepare_records_flushed,
        )
    } else {
        (
            s1.committed - s0.committed,
            s1.log_flushes - s0.log_flushes,
            s1.records_flushed - s0.records_flushed,
        )
    };
    Outcome {
        stats: TxnStats {
            committed,
            log_flushes,
            records_flushed,
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

/// Runs the experiment. Its lane, `BENCH_txn_commit.json`, is the
/// 8-committer group-commit cell: any change to the batching, the
/// elevator apply or the flush accounting moves its rows.
pub fn measure(_: Cell) -> Report {
    let mut r = Report::default();
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
    let cells = [1usize, 8, 32].map(|c| (c, waves(c, false), waves(c, true)));
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
            t.row(&[
                &committers,
                &name,
                &o.stats.committed,
                &o.stats.log_flushes,
                &format!("{avg:.1}"),
                &o.stats.records_per_flush_hwm,
                &o.stats.commit_batch_pages,
                &o.write_refs,
                &o.busiest_us,
                &o.sim_us,
                &o.commit_lat.p50,
                &o.commit_lat.p99,
                &speedup(single.stats.log_flushes as f64, o.stats.log_flushes as f64),
            ]);
        }
        if *committers > 1 {
            worst_flush_ratio = worst_flush_ratio
                .min(single.stats.log_flushes as f64 / group.stats.log_flushes.max(1) as f64);
            makespan_ok &= group.busiest_us <= single.busiest_us;
        }
        r.claim(
            format!(
                "{committers} committers commit all {TOTAL_COMMITS} transactions, each sampled"
            ),
            group.stats.committed == TOTAL_COMMITS as u64
                && group.commit_lat.count == TOTAL_COMMITS
                && group.commit_lat.p99 > 0,
        );
    }
    let (_, big, _) = &cells[2];
    r.claim(
        "32 committers group their commits and batch the apply",
        big.stats.group_commits > 0 && big.stats.commit_batch_pages > 0,
    );
    let flushes_cut = r.verdict(
        "concurrent waves force the log at least 4x less often than one committer",
        worst_flush_ratio >= 4.0,
    );
    let makespan = r.verdict(
        "concurrent waves never make the busiest spindle busier than one committer",
        makespan_ok,
    );
    let o = &cells[1].1;
    let avg_x100 = (o.stats.records_flushed * 100)
        .checked_div(o.stats.log_flushes)
        .unwrap_or(0);
    r.rows = [
        ("committed", o.stats.committed),
        ("log_flushes", o.stats.log_flushes),
        ("records_per_flush_x100", avg_x100),
        ("group_commits", o.stats.group_commits),
        ("commit_batch_pages", o.stats.commit_batch_pages),
        ("write_refs", o.write_refs),
        ("busiest_us", o.busiest_us),
    ]
    .map(|(name, v)| (format!("txn_commit.group.{name}"), v))
    .into();
    r.text.push_str(&t.render());
    r.text.push_str(&format!(
        "\nSame {TOTAL_COMMITS} two-page commits per cell over {NDISKS} striped spindles.\n\
         Group commit forces the log once per wave and folds `Completed`\n\
         markers into the next force; one committer forces once per commit.\n\
         The cross-shard row runs the wave as 2PC participants: its flush\n\
         columns count prepare forces and `Prepared` records per force —\n\
         phase one amortises exactly like local commit.\n\
         Concurrent-wave flush reduction >= 4x: {} (worst {:.1}x); busiest-spindle\n\
         makespan never worse than one committer: {}.\n",
        flushes_cut, worst_flush_ratio, makespan,
    ));
    r
}
