//! Emits the eight virtual-time lanes, one `BENCH_<lane>.json` each (the
//! [`LANES`] table): the rows of one experiment measured at its lane
//! cell ([`Cell::Lane`]) — deterministic counters and modelled
//! percentiles of fixed cells, so a behaviour change shows up as a diff.
//! What the rows of a lane mean is documented on its experiment's
//! `measure`.
//!
//! Every lane is *gated* against its own committed file, read before it
//! is overwritten: the run fails if a row named in the `GATES` table
//! (`p99_us`, `round_trips`, saturation, ...) regresses by more than 10%.
//! The latency lane offers 90% of the saturation it measures, so its
//! gated rows are measured again at the offered rates the committed file
//! records: a faster stack must not show as p99s taken at a higher rate.
//! The lanes are deterministic, so exactness is a separate, simpler
//! check: CI's `git diff --exit-code` over the same eight files. A lane
//! with no committed file yet (bootstrap) passes with a note.
//!
//! `cargo run --release -p rhodos-bench --bin bench_json`

use rhodos_bench::experiments::*;
use rhodos_bench::{Cell, Report};

/// One lane: the `<name>` of `BENCH_<name>.json` and the experiment
/// that fills it.
type Lane = (&'static str, fn(Cell) -> Report);

/// The lanes, in the order they run.
const LANES: &[Lane] = &[
    ("replication", e17_replication_failover::measure),
    ("txn_commit", e18_group_commit::measure),
    ("scrub", e19_self_healing::measure),
    ("latency", e20_contention::measure),
    ("leases", e22_leases::measure),
    ("cluster", e23_scaleout::measure),
    ("raid", e21_raid::measure),
    ("2pc", e24_cross_shard::measure),
];

fn main() {
    let mut ok = true;
    for (lane, measure) in LANES {
        let path = format!("BENCH_{lane}.json");
        let committed = std::fs::read_to_string(&path).ok();
        let fresh = measure(Cell::Lane(&[])).rows;
        write_stat_lane(&path, &fresh);
        let gated = match (*lane, &committed) {
            ("latency", Some(text)) => measure(Cell::Lane(&parse_stat_rows(text))).rows,
            _ => fresh,
        };
        ok &= gate(lane, committed.as_deref(), &gated);
    }
    if !ok {
        std::process::exit(1);
    }
}

/// Writes one `{"stat": .., "value": ..}` lane.
fn write_stat_lane(path: &str, records: &[(String, u64)]) {
    let rows: Vec<String> = records
        .iter()
        .map(|(stat, value)| format!("  {{\"stat\": \"{stat}\", \"value\": {value}}}"))
        .collect();
    let json = format!("[\n{}\n]\n", rows.join(",\n"));
    std::fs::write(path, &json).expect("write stat lane");
    println!("wrote {path}");
    print!("{json}");
}

/// Parses `{"stat": .., "value": ..}` rows from one of this binary's own
/// JSON files.
fn parse_stat_rows(text: &str) -> Vec<(String, u64)> {
    text.lines()
        .filter_map(|line| {
            let stat = line.split("\"stat\": \"").nth(1)?.split('"').next()?;
            let value = line
                .split("\"value\": ")
                .nth(1)?
                .trim_end_matches(['}', ',', ' '])
                .parse()
                .ok()?;
            Some((stat.to_string(), value))
        })
        .collect()
}

/// Which way a gated stat gets worse.
enum Worse {
    Higher,
    Lower,
}
use Worse::{Higher, Lower};

/// A gated row may be this much worse than its baseline before the run
/// fails.
const TOLERANCE_PCT: u64 = 10;

/// The regression gates of the modelled lanes: a fresh row of `lane`
/// whose stat ends in `suffix` fails the run when it is worse than the
/// same row of the committed `BENCH_<lane>.json` by more than
/// `TOLERANCE_PCT` of that value — or by more than `floor`, whichever is
/// larger, so tiny values do not trip on rounding. Rows no rule matches
/// (fingerprints, overhead percentages, technique counters) are
/// informational: the committed-JSON diff still catches their drift.
const GATES: &[(&str, &str, Worse, u64)] = &[
    // (lane, stat suffix, worse direction, absolute floor)
    ("latency", "p99_us", Higher, 25),
    ("latency", "saturation_ops_ks", Lower, 0),
    // The "zero-RPC hot reads" claim must not quietly erode.
    ("leases", "read.p99_us", Higher, 25),
    ("leases", "round_trips", Higher, 10),
    // Nor the scale-out win.
    ("cluster", "read.p99_us", Higher, 25),
    ("cluster", "saturation_ops_ks", Lower, 0),
    // Nor the full-stripe fast path and transparent degraded service.
    ("raid", "kb_s", Lower, 0),
    ("raid", "p99_us", Higher, 25),
    // Nor cross-shard commit latency and the group-commit amortisation
    // of 2PC forces.
    ("2pc", "commit_p99_us", Higher, 25),
    ("2pc", "flushes_per_commit_x100", Higher, 10),
];

/// The regressions of `fresh` against `baseline` under the [`GATES`]
/// rows of `lane`, one message each.
fn regressions(lane: &str, baseline: &[(String, u64)], fresh: &[(String, u64)]) -> Vec<String> {
    let mut found = Vec::new();
    for (stat, value) in fresh {
        let Some((_, base)) = baseline.iter().find(|(s, _)| s == stat) else {
            continue;
        };
        for (gated, suffix, worse, floor) in GATES {
            if *gated != lane || !stat.ends_with(suffix) {
                continue;
            }
            let slack = (base * TOLERANCE_PCT / 100).max(*floor);
            let regressed = match worse {
                Higher => *value > base + slack,
                Lower => *value < base.saturating_sub(slack),
            };
            if regressed {
                found.push(format!(
                    "REGRESSION on the {lane} lane: {stat} = {value} (baseline {base})"
                ));
            }
        }
    }
    found
}

/// Checks a fresh lane against the text of its committed file under the
/// [`GATES`] table. No committed file (bootstrap) passes with a note.
fn gate(lane: &str, committed: Option<&str>, fresh: &[(String, u64)]) -> bool {
    let Some(committed) = committed else {
        println!("no committed BENCH_{lane}.json; skipping regression gate");
        return true;
    };
    let found = regressions(lane, &parse_stat_rows(committed), fresh);
    for line in &found {
        println!("{line}");
    }
    if found.is_empty() {
        println!("lane within {TOLERANCE_PCT}% of the committed BENCH_{lane}.json");
    }
    found.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|(s, v)| (s.to_string(), *v)).collect()
    }

    /// Whether moving `stat` from `base` to `value` passes `lane`'s gates.
    fn passes(lane: &str, stat: &str, base: u64, value: u64) -> bool {
        regressions(lane, &rows(&[(stat, base)]), &rows(&[(stat, value)])).is_empty()
    }

    #[test]
    fn every_old_gate_boundary_is_pinned() {
        // Higher-is-worse rows: 10%, or the 25 us floor for tiny values.
        for (lane, stat) in [
            ("latency", "sharded.rate20.read.p99_us"),
            ("leases", "private.auto.read.p99_us"),
            ("cluster", "servers4.read.p99_us"),
            ("raid", "degraded.read.p99_us"),
            ("2pc", "wave8.commit_p99_us"),
        ] {
            assert!(passes(lane, stat, 200, 225), "{lane}: floor allows +25");
            assert!(!passes(lane, stat, 200, 226), "{lane}: +26 regresses");
            assert!(passes(lane, stat, 1000, 1100), "{lane}: 10% allowed");
            assert!(!passes(lane, stat, 1000, 1101), "{lane}: >10% regresses");
            assert!(passes(lane, stat, 1000, 1), "{lane}: better always passes");
        }
        // Lower-is-worse rows: 10% below, no floor.
        for (lane, stat) in [
            ("latency", "sharded.saturation_ops_ks"),
            ("cluster", "servers4.saturation_ops_ks"),
            ("raid", "full_stripe.write_kb_s"),
        ] {
            assert!(passes(lane, stat, 1000, 900), "{lane}");
            assert!(!passes(lane, stat, 1000, 899), "{lane}");
            assert!(passes(lane, stat, 5, 5), "{lane}: 10% of 5 rounds to 0");
            assert!(!passes(lane, stat, 5, 4), "{lane}");
            assert!(
                passes(lane, stat, 1000, 5000),
                "{lane}: better always passes"
            );
        }
        // Counter rows with a 10-point floor.
        for (lane, stat) in [
            ("leases", "private.auto.round_trips"),
            ("2pc", "wave8.flushes_per_commit_x100"),
        ] {
            assert!(passes(lane, stat, 50, 60), "{lane}: floor allows +10");
            assert!(!passes(lane, stat, 50, 61), "{lane}");
            assert!(passes(lane, stat, 1000, 1100), "{lane}");
            assert!(!passes(lane, stat, 1000, 1101), "{lane}");
        }
    }

    #[test]
    fn rules_belong_to_their_lane_and_unmatched_rows_are_informational() {
        // `round_trips` is gated on the lease lane only.
        assert!(passes("latency", "x.round_trips", 50, 500));
        // The latency lane gates every `p99_us`, the lease lane only reads.
        assert!(!passes("latency", "x.write.p99_us", 200, 400));
        assert!(passes("leases", "x.write.p99_us", 200, 400));
        // Fingerprints move freely; rows absent from the baseline too.
        assert!(passes("cluster", "content.fingerprint", 1, u64::MAX));
        let none = regressions("2pc", &rows(&[]), &rows(&[("new.commit_p99_us", 9_999)]));
        assert!(none.is_empty());
    }

    #[test]
    fn a_missing_baseline_passes() {
        let fresh = rows(&[("x.read.p99_us", u64::MAX)]);
        assert!(gate("latency", None, &fresh));
        let committed = "  {\"stat\": \"x.read.p99_us\", \"value\": 100}";
        assert!(!gate("latency", Some(committed), &fresh));
    }
}
