//! E23 — scale-out: one placement master, N data servers. The paper's
//! facility is a single file server; PR 3 replicated it for
//! availability, and this experiment shards the *namespace* across
//! independent servers for capacity. The E20 open-loop generator's
//! multi-server mode ([`crate::loadgen::trace_cluster`]) executes one
//! byte-identical Zipfian read/write sequence against 1, 2, 4 and 8
//! data servers; the model charges every operation to exactly its home
//! server, so replay concurrency, and with it saturation throughput,
//! grows with the server count until the hottest server's popularity
//! share becomes the ceiling. That one hop is the model's charge: the
//! operations themselves go through the master's `Cluster::read`/
//! `write`, which holds the placement map alone. ROADMAP item 12's
//! `ClusterClient`, reaching the home server directly, makes it real.
//!
//! Reported per arm: aggregate saturation throughput, read p50/p99 and
//! write p99 at a common offered rate (90% of the single-server arm's
//! saturation — where one server is collapsing but a sharded cluster
//! has headroom), and the cluster-wide content fingerprint. The claims:
//! the 4-server arm saturates at >= 2.5x the single server, and every
//! arm's fingerprint is identical — sharding changes placement, never
//! bytes. A final 2-server cell runs greedy rebalance rounds after the
//! trace and must preserve the fingerprint through its migrations.
//!
//! `exp e23 --smoke` shrinks the cell for CI; the committed
//! `BENCH_cluster.json` lane is its own fixed mid-size cell, gated by
//! `bench_json` with a 10% p99/saturation tolerance (fingerprints are
//! identity rows, not gated).

use crate::loadgen::{self, ClusterLoadConfig, ClusterTrace};
use crate::table::Table;
use crate::{Cell, Report};

/// The claim, in a line.
pub const TITLE: &str = "Scale-out: placement master + N data servers, byte-identical sharding";

const SERVERS: [usize; 4] = [1, 2, 4, 8];

/// The Zipfian mix of `ops` operations from `agents` agents over
/// `servers` data servers, after `rebalance_rounds` rebalance rounds.
fn run(servers: usize, ops: usize, agents: usize, rebalance_rounds: usize) -> ClusterTrace {
    loadgen::trace_cluster(&ClusterLoadConfig {
        servers,
        ops,
        agents,
        rebalance_rounds,
        ..ClusterLoadConfig::default()
    })
}

/// Runs the experiment.
pub fn measure(cell: Cell) -> Report {
    let (ops, agents) = cell.pick((600, 128), (4000, 2048), (2000, 512));
    let mut r = Report::default();
    let mut t = Table::new(&[
        "servers",
        "sat ops/s",
        "speedup",
        "offered ops/s",
        "read p50",
        "read p99",
        "write p99",
        "content fingerprint",
    ]);
    let arms = SERVERS.map(|n| {
        let measured = run(n, ops, agents, 0);
        (n, measured.trace.saturation_per_ks(), measured)
    });
    let (baseline_sat, fingerprint) = (arms[0].1, arms[0].2.fingerprint);
    // Common offered rate: 90% of the single-server arm's saturation.
    let offered = (baseline_sat * 9 / 10).max(1);
    let mut read_p99 = Vec::new();
    for (n, saturation, measured) in &arms {
        let replay = measured.trace.replay(offered);
        read_p99.push(replay.read.p99);
        t.row(&[
            n,
            &format!("{:.2}", *saturation as f64 / 1000.0),
            &format!("{:.2}", *saturation as f64 / baseline_sat.max(1) as f64),
            &format!("{:.2}", replay.offered_per_ks as f64 / 1000.0),
            &replay.read.p50,
            &replay.read.p99,
            &replay.write.p99,
            &format!("{:016x}", measured.fingerprint),
        ]);
        let p = |s: &str| format!("cluster.n{n}.{s}");
        r.rows.extend([
            (p("saturation_ops_ks"), *saturation),
            (p("offered_ops_ks"), offered),
            (p("read.p50_us"), replay.read.p50),
            (p("read.p99_us"), replay.read.p99),
            (p("write.p99_us"), replay.write.p99),
            (p("content_fingerprint"), measured.fingerprint),
        ]);
    }
    r.claim(
        "4 servers serve a read p99 no worse than one at the common offered rate",
        read_p99[2] <= read_p99[0],
    );
    let claim_scale = r.verdict(
        "4 servers saturate at >= 2.5x one server",
        arms[2].1 * 10 >= baseline_sat * 25,
    );
    let claim_bytes = r.verdict(
        "every server count writes byte-identical content",
        arms.iter().all(|a| a.2.fingerprint == fingerprint),
    );

    // Rebalance epilogue on the 2-server cell — the one arm whose
    // round-robin placement leaves the rank-0 hot file's side loaded
    // past the greedy trigger, so migrations actually fire; they must
    // move bytes intact.
    let rebalanced = run(2, ops, agents, 3);
    let claim_rebalance = r.verdict(
        "rebalance migrations preserve the content fingerprint",
        rebalanced.fingerprint == fingerprint,
    );

    r.text.push_str(&t.render());
    r.text.push_str(&format!(
        "\nOpen-loop Zipf(0.9) 90/10 read/write mix over 48 files, {ops} ops,\n\
         {agents} agents; latencies in us at a common offered rate (90% of the\n\
         single server's saturation). 4 servers saturate >= 2.5x one server:\n\
         {claim_scale}; every arm writes byte-identical content (sharding moves placement,\n\
         never bytes): {claim_bytes}; {} rebalance migrations preserved the fingerprint: {claim_rebalance}.\n",
        rebalanced.migrations,
    ));
    r
}
