//! E24 — cross-shard atomic commit: 2PC over group commit. A fixed
//! deterministic sequence of two-file transactions runs through the
//! cluster's two-phase-commit coordinator in three arms: a 1-server
//! **ablation** (both participants share a home — the protocol still
//! runs full 2PC, so this is the byte-identity reference), a 4-server
//! arm committing one transaction at a time, and a 4-server arm
//! committing **waves of 8**. All three go through the one coordinator,
//! [`Cluster::commit_batch`] (a single commit is a wave of one): one
//! prepare RPC (and thus one participant log force) per server per
//! wave, one decision-log force per wave. The batched arm's
//! flushes-per-commit must fall the way E18's group commit does
//! locally.
//!
//! A chaos epilogue re-runs the 4-server arm with the coordinator
//! crashing *after* its decision force mid-sequence: recovery replays
//! the decision log, the orphan sweep re-delivers the commit, and the
//! final content fingerprint must still equal the ablation's —
//! atomicity and byte-identity survive the crash.
//!
//! `exp e24 --smoke` shrinks the sequence for CI; the committed
//! `BENCH_2pc.json` lane is the 64-transaction cell's three clean arms
//! (commit p50/p99, flushes per commit, prepares, fingerprints), gated
//! with a 10% latency/flush tolerance by `bench_json`.

use crate::latency::LatencySummary;
use crate::table::Table;
use crate::{Cell, Report};
use rhodos_cluster::{Cluster, ClusterConfig, CommitOutcome, CrossOp};

/// The claim, in a line.
pub const TITLE: &str = "Cross-shard atomic commit: 2PC over group commit, crash-recovered";

const FILES: usize = 16;
const FILE_BLOCKS: u64 = 4;
const BS: u64 = 512;

/// Transaction `k` writes two files chosen so that any 8 consecutive
/// transactions (one batch wave) touch disjoint pairs — wave members
/// never contend, exactly the disjoint-client traffic batching is for.
/// Offsets cycle by wave, payloads vary by `k`, so the final bytes
/// encode the full commit order.
fn txn_ops(k: usize) -> Vec<CrossOp> {
    let a = (2 * k) % FILES;
    let b = (2 * k + 1) % FILES;
    let offset = ((k / 8) as u64 % FILE_BLOCKS) * BS;
    let payload = vec![(k as u8).wrapping_mul(37).wrapping_add(11); 256];
    vec![
        (a as u64 + 1, offset, payload.clone()),
        (b as u64 + 1, offset, payload),
    ]
}

/// One measured arm.
struct Arm {
    p50_us: u64,
    p99_us: u64,
    commits: u64,
    aborts: u64,
    /// Transactions whose outcome was `Committed` — the crashed arm's
    /// recovered one too, which `commits` (the coordinator's count of
    /// delivered commits) leaves out.
    committed: u64,
    prepares: u64,
    prepare_flushes: u64,
    decision_forces: u64,
    records_per_prepare_flush_x100: u64,
    fingerprint: u64,
    in_doubt: usize,
}

impl Arm {
    fn flushes_per_commit_x100(&self) -> u64 {
        (self.prepare_flushes + self.decision_forces) * 100 / self.commits.max(1)
    }
}

fn seeded_cluster(servers: usize) -> Cluster {
    let mut c = Cluster::new(servers, ClusterConfig::default());
    for _ in 0..FILES {
        let gid = c.create().expect("create");
        c.open(gid).expect("open");
        c.write(gid, 0, &vec![0xE4u8; (FILE_BLOCKS * BS) as usize])
            .expect("seed");
    }
    c.sync_all();
    c
}

/// Runs `txns` transactions: one at a time when `batch == 1`, else in
/// [`Cluster::commit_batch`] waves. `chaos_at` crashes the coordinator
/// after its decision force on that transaction and recovers it — the
/// transaction must still land.
fn run_arm(servers: usize, txns: usize, batch: usize, chaos_at: Option<usize>) -> Arm {
    let mut c = seeded_cluster(servers);
    let clock = c.clock();
    let mut lat: Vec<u64> = Vec::with_capacity(txns);
    let mut committed = 0;
    if batch <= 1 {
        for k in 0..txns {
            let ops = txn_ops(k);
            let t0 = clock.now_us();
            let out = if chaos_at == Some(k) {
                // The coordinator crashes once its decision is durable —
                // it drops the wave before delivering it.
                let wave = [ops];
                let mut w = c.wave(&wave).expect("commit");
                c.prepare_wave(&mut w);
                assert!(c.decide_wave(&mut w));
                let out = w.outcomes().next().expect("a wave of one");
                drop(w);
                // Coordinator recovery: the durable decision is
                // re-delivered to both orphans.
                c.recover_coordinator();
                out
            } else {
                c.commit_cross_shard(&ops).expect("commit")
            };
            committed += u64::from(out == CommitOutcome::Committed);
            lat.push(clock.now_us() - t0);
        }
    } else {
        for wave in (0..txns).collect::<Vec<_>>().chunks(batch) {
            let waves: Vec<Vec<CrossOp>> = wave.iter().map(|&k| txn_ops(k)).collect();
            let t0 = clock.now_us();
            let outs = c.commit_batch(&waves).expect("batch commit");
            let per_txn = (clock.now_us() - t0) / wave.len() as u64;
            committed += outs
                .iter()
                .filter(|o| **o == CommitOutcome::Committed)
                .count() as u64;
            lat.extend(std::iter::repeat_n(per_txn, wave.len()));
        }
    }
    let lat = LatencySummary::from_samples(&lat);
    let s = c.stats();
    let (mut prepares, mut prepare_flushes, mut records) = (0u64, 0u64, 0u64);
    for i in 0..c.server_count() {
        let h = c.server_handle(i);
        let ts = h.lock();
        prepares += ts.stats().prepares;
        prepare_flushes += ts.stats().prepare_flushes;
        records += ts.stats().prepare_records_flushed;
    }
    Arm {
        p50_us: lat.p50,
        p99_us: lat.p99,
        commits: s.cross_commits,
        aborts: s.cross_aborts,
        committed,
        prepares,
        prepare_flushes,
        decision_forces: s.decision_forces,
        records_per_prepare_flush_x100: records * 100 / prepare_flushes.max(1),
        fingerprint: c.content_fingerprint().expect("every home serves"),
        in_doubt: c.in_doubt_gtids().len(),
    }
}

fn row(t: &mut Table, name: &str, arm: &Arm) {
    t.row(&[
        &name,
        &arm.commits,
        &arm.aborts,
        &arm.p50_us,
        &arm.p99_us,
        &format!("{:.2}", arm.flushes_per_commit_x100() as f64 / 100.0),
        &format!("{:.2}", arm.records_per_prepare_flush_x100 as f64 / 100.0),
        &format!("{:016x}", arm.fingerprint),
    ]);
}

/// Runs the experiment.
pub fn measure(cell: Cell) -> Report {
    let txns = cell.pick(24, 64, 64);
    let mut r = Report::default();
    let mut t = Table::new(&[
        "arm",
        "commits",
        "aborts",
        "commit p50 us",
        "commit p99 us",
        "flushes/commit",
        "records/prep-flush",
        "content fingerprint",
    ]);
    let ablation = run_arm(1, txns, 1, None);
    let four = run_arm(4, txns, 1, None);
    let batched = run_arm(4, txns, 8, None);
    let chaotic = run_arm(4, txns, 1, Some(txns / 2));
    let arms = [
        ("1 server (ablation)", "ablation", &ablation),
        ("4 servers", "n4", &four),
        ("4 servers, batch=8", "n4_batch8", &batched),
        ("4 servers + coord crash", "", &chaotic),
    ];
    for (name, tag, arm) in arms {
        row(&mut t, name, arm);
        r.claim(
            format!("{name}: all {txns} transactions commit"),
            arm.committed == txns as u64,
        );
        if tag.is_empty() {
            continue;
        }
        let p = |s: &str| format!("2pc.{tag}.{s}");
        r.rows.extend([
            (p("commits"), arm.commits),
            (p("commit_p50_us"), arm.p50_us),
            (p("commit_p99_us"), arm.p99_us),
            (p("prepares"), arm.prepares),
            (p("flushes_per_commit_x100"), arm.flushes_per_commit_x100()),
            (
                p("records_per_prepare_flush_x100"),
                arm.records_per_prepare_flush_x100,
            ),
            (p("content_fingerprint"), arm.fingerprint),
        ]);
    }
    r.claim(
        "a wave of 8 puts more than one vote on each prepare force",
        batched.records_per_prepare_flush_x100 > 100,
    );
    let claim_bytes = r.verdict(
        "every arm's content fingerprint matches the single-server ablation",
        arms.iter()
            .all(|(_, _, a)| a.fingerprint == ablation.fingerprint),
    );
    let claim_amortise = r.verdict(
        "waves of 8 amortise prepare and decision forces",
        batched.flushes_per_commit_x100() < four.flushes_per_commit_x100(),
    );
    let claim_resolved = r.verdict(
        "no participant is left in doubt, the coordinator crash included",
        arms.iter().all(|(_, _, a)| a.in_doubt == 0),
    );

    r.text.push_str(&t.render());
    r.text.push_str(&format!(
        "\n{txns} two-file transactions over {FILES} files through the 2PC\n\
         coordinator. Every arm commits every transaction and the content\n\
         fingerprint matches the single-server ablation byte for byte\n\
         (sharding and batching change placement and timing, never bytes):\n\
         {claim_bytes}; wave-of-8 batching amortises prepare and decision forces\n\
         ({:.2} vs {:.2} flushes/commit): {claim_amortise}; a coordinator crash after the\n\
         decision force recovers by log replay + orphan sweep with no\n\
         participant left in doubt: {claim_resolved}.\n",
        batched.flushes_per_commit_x100() as f64 / 100.0,
        four.flushes_per_commit_x100() as f64 / 100.0,
    ));
    r
}
