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
//! `exp e23 --smoke` (`run(true)`) shrinks the cell for
//! CI; [`stat_records`] uses its own fixed mid-size cell for the
//! committed `BENCH_cluster.json` lane.

use crate::loadgen::{self, ClusterLoadConfig, ClusterTrace, Replay};
use crate::table::Table;

const SERVERS: [usize; 4] = [1, 2, 4, 8];

fn cell_config(servers: usize, ops: usize, agents: usize) -> ClusterLoadConfig {
    ClusterLoadConfig {
        servers,
        ops,
        agents,
        ..ClusterLoadConfig::default()
    }
}

/// One measured arm at one server count.
struct Cell {
    measured: ClusterTrace,
    saturation: u64,
}

fn measure(servers: usize, ops: usize, agents: usize) -> Cell {
    let measured = loadgen::trace_cluster(&cell_config(servers, ops, agents));
    let saturation = measured.trace.saturation_per_ks();
    Cell {
        measured,
        saturation,
    }
}

fn row(t: &mut Table, servers: usize, cell: &Cell, baseline_sat: u64, replay: &Replay) {
    t.row_owned(vec![
        servers.to_string(),
        format!("{:.2}", cell.saturation as f64 / 1000.0),
        format!("{:.2}", cell.saturation as f64 / baseline_sat.max(1) as f64),
        format!("{:.2}", replay.offered_per_ks as f64 / 1000.0),
        replay.read.p50.to_string(),
        replay.read.p99.to_string(),
        replay.write.p99.to_string(),
        format!("{:016x}", cell.measured.fingerprint),
    ]);
}

/// Runs the experiment.
pub fn run(smoke: bool) -> String {
    let (ops, agents) = if smoke { (600, 128) } else { (4000, 2048) };
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
    let cells: Vec<(usize, Cell)> = SERVERS
        .iter()
        .map(|&n| (n, measure(n, ops, agents)))
        .collect();
    let baseline_sat = cells[0].1.saturation;
    // Common offered rate: 90% of the single-server arm's saturation.
    let offered = (baseline_sat * 9 / 10).max(1);
    for (n, cell) in &cells {
        let replay = cell.measured.trace.replay(offered);
        row(&mut t, *n, cell, baseline_sat, &replay);
    }
    let four = &cells.iter().find(|(n, _)| *n == 4).expect("4-server arm").1;
    let claim_scale = four.saturation * 10 >= baseline_sat * 25;
    let claim_bytes = cells
        .iter()
        .all(|(_, c)| c.measured.fingerprint == cells[0].1.measured.fingerprint);

    // Rebalance epilogue on the 2-server cell — the one arm whose
    // round-robin placement leaves the rank-0 hot file's side loaded
    // past the greedy trigger, so migrations actually fire; they must
    // move bytes intact.
    let rebalanced = loadgen::trace_cluster(&ClusterLoadConfig {
        rebalance_rounds: 3,
        ..cell_config(2, ops, agents)
    });
    let claim_rebalance = rebalanced.fingerprint == cells[0].1.measured.fingerprint;

    let mut out = t.render();
    out.push_str(&format!(
        "\nOpen-loop Zipf(0.9) 90/10 read/write mix over 48 files, {ops} ops,\n\
         {agents} agents; latencies in us at a common offered rate (90% of the\n\
         single server's saturation). 4 servers saturate >= 2.5x one server:\n\
         {}; every arm writes byte-identical content (sharding moves placement,\n\
         never bytes): {}; {} rebalance migrations preserved the fingerprint: {}.\n",
        if claim_scale { "yes" } else { "NO" },
        if claim_bytes { "yes" } else { "NO" },
        rebalanced.migrations,
        if claim_rebalance { "yes" } else { "NO" },
    ));
    out
}

/// The deterministic scale-out lane emitted as `BENCH_cluster.json`: a
/// fixed mid-size cell (independent of the smoke flag), all four server
/// counts. Values are integers (us and ops/ks), byte-stable across
/// runs; `bench_json` gates them against the committed
/// `BENCH_cluster.json` with a 10% p99/saturation tolerance
/// (fingerprints are identity rows, not gated).
pub fn stat_records() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    let cells: Vec<(usize, Cell)> = SERVERS
        .iter()
        .map(|&n| (n, measure(n, 2000, 512)))
        .collect();
    let offered = (cells[0].1.saturation * 9 / 10).max(1);
    for (n, cell) in &cells {
        let replay = cell.measured.trace.replay(offered);
        let p = |s: &str| format!("cluster.n{n}.{s}");
        rows.extend([
            (p("saturation_ops_ks"), cell.saturation),
            (p("offered_ops_ks"), offered),
            (p("read.p50_us"), replay.read.p50),
            (p("read.p99_us"), replay.read.p99),
            (p("write.p99_us"), replay.write.p99),
            (p("content_fingerprint"), cell.measured.fingerprint),
        ]);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_servers_scale_and_preserve_bytes() {
        let one = measure(1, 1200, 256);
        let four = measure(4, 1200, 256);
        assert!(
            four.saturation * 10 >= one.saturation * 25,
            "4 servers must saturate >= 2.5x one: {} vs {}",
            four.saturation,
            one.saturation
        );
        assert_eq!(
            one.measured.fingerprint, four.measured.fingerprint,
            "sharding must not change file content"
        );
        let offered = (one.saturation * 9 / 10).max(1);
        assert!(
            four.measured.trace.replay(offered).read.p99
                <= one.measured.trace.replay(offered).read.p99,
            "a sharded cluster with headroom must not serve a worse read p99"
        );
    }

    #[test]
    fn lane_records_are_stable() {
        assert_eq!(stat_records(), stat_records());
    }

    #[test]
    fn smoke_report_renders() {
        let r = run(true);
        assert!(r.contains("servers"));
        assert!(r.contains("speedup"));
    }
}
