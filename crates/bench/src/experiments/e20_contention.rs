//! E20 — tearing down the global-lock contention walls. The paper's
//! server is one process ("the file server is a single multi-threaded
//! task"), and our reproduction inherited three serialisation points:
//! one mutex around the whole transaction service, one lock table per
//! granularity, and one block pool. This experiment drives the E20
//! open-loop generator (see [`crate::loadgen`]) over a Zipfian mix at
//! rising skew and compares the sharded configuration (the default
//! `lock_shards`/`cache_shards`: striped lock tables + sharded block
//! pool + the `tread_shared` fast path) against the unsharded ablation
//! (both 1: exactly the pre-E20 behaviour).
//!
//! Reported per cell: saturation throughput and p50/p99/p999 latency
//! per op class at a common offered rate (90% of the ablation arm's
//! saturation, where the global mutex is the bottleneck). The claim:
//! with skew >= 0.9 the sharded arm both saturates higher and holds a
//! lower read p99, because cached reads bypass the global critical
//! section entirely.
//!
//! `exp e20 --smoke` shrinks the cell for CI; the committed
//! `BENCH_latency.json` lane is its own fixed mid-size cell (see
//! [`measure`]).

use crate::loadgen::{self, LoadgenConfig, Trace};
use crate::table::Table;
use crate::{Cell, Report};
use rhodos_txn::FastPathStats;

/// The claim, in a line.
pub const TITLE: &str = "Open-loop latency under contention: sharded locks + block pool";

const SKEWS: [f64; 3] = [0.0, 0.9, 1.2];

/// The sharded and the global arm's traces at one skew, each with its
/// saturation.
fn arms(skew: f64, ops: usize, agents: usize) -> [(Trace, u64); 2] {
    [true, false].map(|sharded| {
        let trace = loadgen::trace(&LoadgenConfig {
            skew,
            sharded,
            ops,
            agents,
            ..LoadgenConfig::default()
        });
        let saturation = trace.saturation_per_ks();
        (trace, saturation)
    })
}

/// Runs the experiment. Its lane, `BENCH_latency.json`, is a fixed
/// mid-size cell with both arms at all three skews; `bench_json` gates
/// it against the committed file with a 10% p99/saturation tolerance.
/// At [`Cell::Lane`] each skew's load is offered at the `offered_ops_ks`
/// the committed rows record for it, where they record one, else at 90%
/// of the global arm's saturation: a p99 is compared only with one taken
/// at the same offered rate.
pub fn measure(cell: Cell) -> Report {
    let mut r = Report::default();
    let (ops, agents) = cell.pick((600, 128), (4000, 2048), (2000, 512));
    let committed = match cell {
        Cell::Lane(rows) => rows,
        _ => &[],
    };
    let mut t = Table::new(&[
        "skew",
        "arm",
        "sat ops/s",
        "offered ops/s",
        "read p50",
        "read p99",
        "read p999",
        "write p99",
        "update p99",
        "fast hits",
        "fallbacks",
        "pool hit %",
    ]);
    let mut claim_sat = true;
    let mut claim_p99 = true;
    let mut fast_path = true;
    for skew in SKEWS {
        let tag = format!("s{:02}", (skew * 10.0).round() as u64);
        let key = format!("latency.{tag}.sharded.offered_ops_ks");
        let at = committed.iter().find(|(stat, _)| *stat == key);
        let arms = arms(skew, ops, agents);
        // Both arms are offered the committed rate, or by default 90% of
        // the global arm's saturation — the global mutex is near collapse
        // there, while the sharded arm has headroom.
        let offered = at.map_or((arms[1].1 * 9 / 10).max(1), |&(_, rate)| rate);
        let replays = arms.each_ref().map(|(trace, _)| trace.replay(offered));
        let [(sharded, sharded_sat), (global, global_sat)] = &arms;
        if skew >= 0.9 {
            claim_sat &= sharded_sat > global_sat;
            claim_p99 &= replays[0].read.p99 < replays[1].read.p99;
            fast_path &= sharded.fast.full_hits > 0;
        }
        fast_path &= global.fast == FastPathStats::default();
        let labels = [("sharded (8x8)", "sharded"), ("global (1x1)", "global")];
        for (((label, tag_arm), (trace, saturation)), replay) in
            labels.iter().zip(&arms).zip(&replays)
        {
            let fast = trace.fast;
            t.row(&[
                &format!("{skew:.1}"),
                label,
                &format!("{:.2}", *saturation as f64 / 1000.0),
                &format!("{:.2}", replay.offered_per_ks as f64 / 1000.0),
                &replay.read.p50,
                &replay.read.p99,
                &replay.read.p999,
                &replay.write.p99,
                &replay.update.p99,
                &fast.full_hits,
                &fast.fallbacks,
                &format!("{:.1}", trace.pool_hit_rate),
            ]);
            let p = |s: &str| format!("latency.{tag}.{tag_arm}.{s}");
            r.rows.extend([
                (p("saturation_ops_ks"), *saturation),
                (p("offered_ops_ks"), offered),
                (p("read.p50_us"), replay.read.p50),
                (p("read.p99_us"), replay.read.p99),
                (p("read.p999_us"), replay.read.p999),
                (p("write.p99_us"), replay.write.p99),
                (p("update.p99_us"), replay.update.p99),
                (p("fast_full_hits"), fast.full_hits),
            ]);
        }
    }
    r.claim(
        "at skew >= 0.9 the sharded arm's reads take the fast path; the global arm's never do",
        fast_path,
    );
    let claim_sat = r.verdict(
        "at skew >= 0.9 the sharded arm saturates higher than the global arm",
        claim_sat,
    );
    let claim_p99 = r.verdict(
        "at skew >= 0.9 the sharded arm serves a lower read p99 at the common offered rate",
        claim_p99,
    );
    r.text.push_str(&t.render());
    r.text.push_str(&format!(
        "\nOpen-loop mix (70/20/10 read/write/update, {ops} ops, {agents} agents),\n\
         latencies in us at a common offered rate (90% of the global arm's\n\
         saturation). At skew >= 0.9 the sharded arm saturates higher: {claim_sat};\n\
         and serves a lower read p99: {claim_p99} — cached reads ride the striped\n\
         lock shards and the sharded block pool instead of the one big mutex.\n",
    ));
    r
}
