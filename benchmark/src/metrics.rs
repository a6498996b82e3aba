//! Metric names, units and derivations. The contract — names, units,
//! directions and bounds — lives in `BENCHMARK.json` at the repository
//! root; it is compiled in here so that the binary and the contract
//! cannot drift apart, and a unit test checks every name both ways.

use crate::counts::{disk_bytes, disk_refs};
use crate::driver::{Counts, Phase};
use crate::gen::{COMMIT, READ, WRITE};
use crate::json::{self, Value};
use crate::stats;
use crate::trace::SpanLog;

pub const CONTRACT: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        // A ratio over an empty denominator is "did not happen": 0.
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// An end-to-end metric as the contract declares it.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn contract() -> Value {
    json::parse(CONTRACT).expect("BENCHMARK.json parses")
}

/// The `end_to_end` section of the contract.
pub fn declared_end_to_end() -> Vec<Declared> {
    contract()
        .get("end_to_end")
        .expect("end_to_end")
        .as_array()
        .iter()
        .map(|e| Declared {
            name: e.get("name").and_then(Value::as_str).expect("name").into(),
            higher_is_better: e.get("better").and_then(Value::as_str) == Some("higher"),
            bound: e.get("bound").and_then(Value::as_f64).expect("bound"),
        })
        .collect()
}

/// Names of one section (`workloads`, `end_to_end`, `per_layer`).
#[cfg(test)]
fn declared_names(section: &str) -> Vec<String> {
    contract()
        .get(section)
        .expect("section")
        .as_array()
        .iter()
        .map(|e| e.get("name").and_then(Value::as_str).expect("name").into())
        .collect()
}

/// What a user of the system would see, from an untraced phase.
pub fn end_to_end(phase: &Phase, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let ops = phase.tally.requests as f64;
    let c = &phase.counts;
    vec![
        m("ops_per_s", "1/s", phase.ops_per_s()),
        m("read_p50_us", "us", phase.latency_us(READ, |c| c.p50_ns)),
        m("write_p50_us", "us", phase.latency_us(WRITE, |c| c.p50_ns)),
        m(
            "commit_p50_us",
            "us",
            phase.latency_us(COMMIT, |c| c.p50_ns),
        ),
        m("sim_us_per_op", "us", c.get("sim.us") as f64 / ops),
        m("disk_refs_per_op", "1", disk_refs(c) as f64 / ops),
        m(
            "disk_bytes_per_user_byte",
            "B/B",
            disk_bytes(c) as f64 / phase.tally.user_bytes as f64,
        ),
        m("peak_rss_mb", "MB", peak_rss_mb),
        m("setup_s", "s", setup_s),
    ]
}

/// One rung of a measured ladder: the layer it belongs to and its
/// calibrated microseconds per request.
#[derive(Debug, Clone)]
pub struct RungCost {
    pub layer: &'static str,
    pub us_per_op: f64,
}

/// Layers that own an `added_us_per_op` row. `txn.direct` is folded
/// into `txn` (direct service + shared wrapper = the crate's cost).
const LADDER_LAYERS: [(&str, &str); 7] = [
    ("simdisk", "simdisk.added_us_per_op"),
    ("disk-service", "disk-service.added_us_per_op"),
    ("file-service", "file-service.added_us_per_op"),
    ("txn", "txn.added_us_per_op"),
    ("replication.wire", "replication.wire.added_us_per_op"),
    ("cluster", "cluster.added_us_per_op"),
    ("agent", "agent.added_us_per_op"),
];

/// What each layer adds: its rung minus the rung below. Telescopes, so
/// the rows sum to the top rung by construction; a negative row means
/// the layer's cache saves more than the layer costs.
pub fn ladder(rungs: &[RungCost]) -> Vec<Metric> {
    let mut out: Vec<Metric> = LADDER_LAYERS
        .iter()
        .map(|&(_, name)| m(name, "us", 0.0))
        .collect();
    let mut below = 0.0;
    for r in rungs {
        let owner = r.layer.split_once(".direct").map_or(r.layer, |(l, _)| l);
        let slot = LADDER_LAYERS
            .iter()
            .position(|&(layer, _)| layer == owner)
            .expect("ladder layer is declared");
        out[slot].value += r.us_per_op - below;
        below = r.us_per_op;
    }
    out.push(m("ladder.top_us_per_op", "us", below));
    out
}

const SPAN_METRICS: [(&str, &str); 14] = [
    ("txn.begin", "txn.begin_us"),
    ("txn.open", "txn.open_us"),
    ("txn.read", "txn.read_us"),
    ("txn.write", "txn.write_us"),
    ("txn.prepare_commit", "txn.prepare_commit_us"),
    ("txn.flush_log", "txn.flush_log_us"),
    ("txn.complete_commit", "txn.complete_commit_us"),
    ("agent.pread", "agent.pread_us"),
    ("agent.pwrite", "agent.pwrite_us"),
    ("agent.flush", "agent.flush_us"),
    ("cluster.read", "cluster.read_us"),
    ("cluster.write", "cluster.write_us"),
    ("cluster.cross_commit", "cluster.cross_commit_us"),
    ("naming.resolve", "naming.resolve_us"),
];

/// Mean calibrated duration of each public call, from the spans of the
/// traced phase. `scale` is that phase's calibrated/raw time ratio.
pub fn spans(log: Option<&SpanLog>, scale: f64, clone_slice_ns: f64) -> Vec<Metric> {
    let mut out: Vec<Metric> = SPAN_METRICS
        .iter()
        .map(|&(span, name)| {
            m(
                name,
                "us",
                log.map_or(0.0, |l| l.mean_ns(span)) * scale / 1e3,
            )
        })
        .collect();
    out.push(m("buf.clone_slice_ns", "ns", clone_slice_ns));
    out
}

fn share(part: u64, rest: u64) -> f64 {
    part as f64 / (part + rest) as f64
}

/// Per-layer counts of the untraced top-rung phase of a traced run.
/// `net` carries the net and replay counters (the top rung's own, or
/// the wire rung's where the top keeps its channels private) with the
/// request count they were taken over.
pub fn counts(phase: &Phase, net: (&Counts, u64)) -> Vec<Metric> {
    let c = &phase.counts;
    let ops = phase.tally.requests as f64;
    let per_op = |key: &str| c.get(key) as f64 / ops;
    let refs = c.get("simdisk.read_refs") + c.get("simdisk.write_refs");
    let commits = c.get("txn.committed") as f64;
    let cross = (c.get("cluster.cross_commits") + c.get("cluster.cross_aborts")) as f64;
    let (net_counts, net_ops) = net;
    vec![
        m("simdisk.read_refs_per_op", "1", per_op("simdisk.read_refs")),
        m(
            "simdisk.write_refs_per_op",
            "1",
            per_op("simdisk.write_refs"),
        ),
        m(
            "simdisk.sectors_written_per_op",
            "1",
            per_op("simdisk.sectors_written"),
        ),
        m("simdisk.seeks_per_op", "1", per_op("simdisk.seeks")),
        m(
            "simdisk.bytes_copied_per_op",
            "B",
            per_op("simdisk.bytes_copied"),
        ),
        m(
            "simdisk.stable_refs_per_op",
            "1",
            per_op("simdisk.stable_refs"),
        ),
        m(
            "disk-service.track_hit_share",
            "share",
            share(
                c.get("disk-service.track_hits"),
                c.get("disk-service.track_misses"),
            ),
        ),
        m(
            "disk-service.merged_share",
            "share",
            share(c.get("disk-service.merged"), refs),
        ),
        m(
            "disk-service.batches_per_op",
            "1",
            per_op("disk-service.batches"),
        ),
        m(
            "file-service.pool_hit_share",
            "share",
            share(
                c.get("file-service.pool_hits"),
                c.get("file-service.pool_misses"),
            ),
        ),
        m(
            "file-service.writebacks_per_op",
            "1",
            per_op("file-service.writebacks"),
        ),
        m(
            "file-service.fit_loads_per_op",
            "1",
            per_op("file-service.fit_loads"),
        ),
        m(
            "file-service.bytes_copied_per_op",
            "B",
            per_op("file-service.bytes_copied"),
        ),
        m(
            "file-service.lease_recalls_per_op",
            "1",
            per_op("file-service.lease_recalls"),
        ),
        m(
            "txn.log_flushes_per_commit",
            "1",
            c.get("txn.log_flushes") as f64 / commits,
        ),
        m(
            "txn.records_per_flush",
            "1",
            c.get("txn.records_flushed") as f64 / c.get("txn.log_flushes") as f64,
        ),
        m(
            "txn.fast_path_share",
            "share",
            share(
                c.get("txn.fast_hits"),
                c.get("txn.fast_fallbacks") + c.get("txn.fast_conflicts"),
            ),
        ),
        m(
            "txn.would_blocks_per_op",
            "1",
            (c.get("txn.would_blocks") + c.get("txn.fast_conflicts")) as f64 / ops,
        ),
        m("txn.aborts_per_op", "1", per_op("txn.aborted")),
        m(
            "txn.log_compactions",
            "count",
            c.get("txn.log_compactions") as f64,
        ),
        m(
            "txn.wal_share",
            "share",
            share(c.get("txn.wal_pages"), c.get("txn.shadow_pages")),
        ),
        m(
            "net.sent_per_op",
            "1",
            net_counts.get("net.sent") as f64 / net_ops as f64,
        ),
        m(
            "net.transit_us_per_op",
            "us",
            net_counts.get("net.transit_us") as f64 / net_ops as f64,
        ),
        m(
            "replication.replay_entries_hwm",
            "count",
            net_counts.get("hwm.replication.replay_entries") as f64,
        ),
        m(
            "cluster.prepare_rpcs_per_commit",
            "1",
            c.get("cluster.prepare_rpcs") as f64 / cross,
        ),
        m(
            "cluster.decision_forces_per_commit",
            "1",
            c.get("cluster.decision_forces") as f64 / cross,
        ),
        m(
            "agent.cache_hit_share",
            "share",
            share(c.get("agent.cache_hits"), c.get("agent.cache_misses")),
        ),
        m("agent.rpcs_per_op", "1", per_op("agent.rpcs")),
        m(
            "agent.lease_served_share",
            "share",
            share(c.get("agent.lease_served"), c.get("agent.rpcs")),
        ),
        m("agent.recalls_per_op", "1", per_op("agent.recalls")),
        m("agent.renewals_per_op", "1", per_op("agent.renewals")),
    ]
}

/// Tail latencies of the untraced top-rung phase. Demoted from the
/// end-to-end list: on this box their run-to-run spread (up to 35 % on
/// the microsecond-scale cluster requests) exceeds any bound worth
/// gating on, so they are reported beside the layers instead.
pub fn tails(plain: &Phase) -> Vec<Metric> {
    vec![
        m("read_p99_us", "us", plain.latency_us(READ, |c| c.p99_ns)),
        m("write_p99_us", "us", plain.latency_us(WRITE, |c| c.p99_ns)),
    ]
}

/// Process-level diagnostics of a traced run.
pub fn process(plain: &Phase, traced: &Phase) -> Vec<Metric> {
    let ops = plain.tally.requests as f64;
    let factors = plain.factors();
    let iqr = if factors.len() >= 2 {
        let (q1, q3) = stats::quartiles(&factors);
        q3 - q1
    } else {
        0.0
    };
    vec![
        m("heap.allocs_per_op", "1", plain.heap.0 as f64 / ops),
        m("heap.bytes_per_op", "B", plain.heap.1 as f64 / ops),
        m("raw.ops_per_s", "1/s", plain.raw_ops_per_s()),
        m("cal.factor_p50", "1", stats::median(&factors)),
        m("cal.factor_iqr", "1", iqr),
        m(
            "trace.overhead_share",
            "share",
            (traced.us_per_op() - plain.us_per_op()) / plain.us_per_op(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{ClassStats, Epoch, Tally};
    use crate::workloads::WORKLOADS;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn phase() -> Phase {
        Phase {
            epochs: vec![
                Epoch {
                    raw_ns: 1_000_000,
                    cal_ns: 1_000_000,
                    kernel_ns: crate::cal::CAL_NOMINAL_NS,
                    requests: 10,
                    classes: [
                        ClassStats {
                            samples: 2,
                            p50_ns: 1000,
                            p99_ns: 2000
                        },
                        ClassStats {
                            samples: 1,
                            p50_ns: 3000,
                            p99_ns: 3000
                        },
                        ClassStats::default(),
                    ],
                };
                2
            ],
            tally: Tally {
                requests: 20,
                failed: 0,
                user_bytes: 20_480,
            },
            counts: Counts::default(),
            heap: (40, 4000),
        }
    }

    #[test]
    fn every_emitted_name_is_well_formed_and_declared_and_vice_versa() {
        let p = phase();
        let e2e: Vec<&str> = end_to_end(&p, 1.0, 1.0).iter().map(|x| x.name).collect();
        let mut layer: Vec<&str> = Vec::new();
        layer.extend(ladder(&[]).iter().map(|x| x.name));
        layer.extend(spans(None, 1.0, 0.0).iter().map(|x| x.name));
        layer.extend(counts(&p, (&p.counts, 20)).iter().map(|x| x.name));
        layer.extend(tails(&p).iter().map(|x| x.name));
        layer.extend(process(&p, &p).iter().map(|x| x.name));
        for name in e2e.iter().chain(&layer) {
            assert!(name_ok(name), "{name}");
        }
        assert_eq!(e2e, declared_names("end_to_end"), "end_to_end section");
        assert_eq!(layer, declared_names("per_layer"), "per_layer section");
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert!(workloads.iter().all(|w| name_ok(w)));
        assert_eq!(workloads, declared_names("workloads"));
        let whys: Vec<String> = contract()
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| w.get("why").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(whys, WORKLOADS.iter().map(|w| w.1).collect::<Vec<_>>());
        assert!(whys.iter().all(|w| w.len() <= 200 && !w.contains('\n')));
    }

    #[test]
    fn contract_bounds_are_within_the_allowed_range() {
        let declared = declared_end_to_end();
        assert!(declared.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = declared
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(!setup.higher_is_better);
        assert!(
            declared.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn ladder_rows_sum_to_the_top_rung() {
        let rungs = [
            RungCost {
                layer: "simdisk",
                us_per_op: 2.0,
            },
            RungCost {
                layer: "disk-service",
                us_per_op: 5.0,
            },
            RungCost {
                layer: "file-service",
                us_per_op: 4.0,
            },
            RungCost {
                layer: "txn.direct",
                us_per_op: 30.0,
            },
            RungCost {
                layer: "txn",
                us_per_op: 36.0,
            },
        ];
        let rows = ladder(&rungs);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().value;
        assert_eq!(get("simdisk.added_us_per_op"), 2.0);
        assert_eq!(get("disk-service.added_us_per_op"), 3.0);
        assert_eq!(get("file-service.added_us_per_op"), -1.0);
        assert_eq!(get("txn.added_us_per_op"), 32.0);
        assert_eq!(get("agent.added_us_per_op"), 0.0);
        let sum: f64 = rows
            .iter()
            .filter(|r| r.name != "ladder.top_us_per_op")
            .map(|r| r.value)
            .sum();
        assert_eq!(sum, get("ladder.top_us_per_op"));
    }

    #[test]
    fn ratios_over_nothing_read_zero() {
        let p = phase();
        let rows = counts(&p, (&p.counts, 20));
        assert!(rows.iter().all(|r| r.value == 0.0), "{rows:?}");
        let e = end_to_end(&p, 2.5, 100.0);
        let get = |n: &str| e.iter().find(|r| r.name == n).unwrap().value;
        assert_eq!(get("ops_per_s"), 10_000.0);
        assert_eq!(get("read_p50_us"), 1.0);
        assert_eq!(tails(&p)[0].value, 2.0);
        assert_eq!(get("setup_s"), 2.5);
    }
}
