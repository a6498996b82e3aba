//! # rhodos-bench — experiment harness for the RHODOS reproduction
//!
//! The 1994 paper contains two exhibits (Figure 1, the architecture, and
//! Table 1, the lock-compatibility matrix) and a set of performance and
//! reliability *claims* stated in prose. This crate regenerates each of
//! them:
//!
//! * [`experiments`] — one module per experiment E01–E24 of
//!   `EXPERIMENTS.md`, each a `measure(Cell) -> Report` that runs every
//!   arm once on the simulated facility and returns a paper-style table,
//!   the rows of its `BENCH_*.json` lane (E17–E24) and its claims;
//! * `src/bin/exp.rs` — `exp all [--smoke]` or `exp e03 e12`: prints the
//!   reports and exits 1 naming every claim that does not hold
//!   (see [`exp`]);
//! * `src/bin/bench_json.rs` — the eight gated virtual-time
//!   `BENCH_*.json` lanes, each the rows of one experiment measured at
//!   its lane cell.
//!
//! The wall-clock measure of the data path is the stand-alone
//! `benchmark/` package (`agent-stream` and its per-layer ladder).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod latency;
pub mod loadgen;
pub mod setups;
pub mod table;

use std::io::{self, Write};

/// The size an experiment measures at. E20–E24 have a cell of each
/// kind; the others have one size and ignore it.
#[derive(Debug, Clone, Copy)]
pub enum Cell<'a> {
    /// The small cells of `exp --smoke`, which CI and the test run.
    Smoke,
    /// The cells `EXPERIMENTS.md` reports.
    Full,
    /// The fixed cell of the experiment's `BENCH_*.json` lane. The slice
    /// holds the rows of the committed file (empty for a fresh run):
    /// E20 offers its load at the rates they record.
    Lane(&'a [(String, u64)]),
}

impl Cell<'_> {
    /// `smoke`, `full` or `lane`, by the kind of this cell.
    pub fn pick<T>(self, smoke: T, full: T, lane: T) -> T {
        match self {
            Cell::Smoke => smoke,
            Cell::Full => full,
            Cell::Lane(_) => lane,
        }
    }
}

/// What one experiment measured.
#[derive(Debug, Default)]
pub struct Report {
    /// The tables and sentences `exp` prints.
    pub text: String,
    /// The rows `bench_json` writes to the experiment's lane (E17–E24).
    pub rows: Vec<(String, u64)>,
    /// Every claim the experiment checks: (statement, holds).
    pub claims: Vec<(String, bool)>,
}

impl Report {
    /// Records a claim and returns whether it holds, so that whatever is
    /// printed from the return value is the claim's verdict.
    pub fn claim(&mut self, statement: impl Into<String>, holds: bool) -> bool {
        self.claims.push((statement.into(), holds));
        holds
    }

    /// [`Self::claim`], printed as `yes` or `NO`.
    pub fn verdict(&mut self, statement: impl Into<String>, holds: bool) -> &'static str {
        if self.claim(statement, holds) {
            "yes"
        } else {
            "NO"
        }
    }

    /// The claims that do not hold, each as `[id] statement`.
    fn failed<'a>(&'a self, id: &'a str) -> impl Iterator<Item = String> + 'a {
        self.claims
            .iter()
            .filter(|(_, holds)| !holds)
            .map(move |(statement, _)| format!("[{id}] {statement}"))
    }
}

/// One experiment of `EXPERIMENTS.md`.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// `e01` … `e24`.
    pub id: &'static str,
    /// The claim, in a line.
    pub title: &'static str,
    /// Runs every arm once at the cell.
    pub measure: fn(Cell) -> Report,
}

/// Every experiment in order: `eNN_name::measure` under the id `eNN`
/// and the module's `TITLE`.
pub fn all_experiments() -> Vec<Experiment> {
    use experiments::*;
    macro_rules! experiment {
        ($module:ident) => {
            Experiment {
                id: &stringify!($module)[..3],
                title: $module::TITLE,
                measure: $module::measure,
            }
        };
    }
    vec![
        experiment!(e01_lock_table),
        experiment!(e03_direct_access),
        experiment!(e04_contiguity),
        experiment!(e05_fragments),
        experiment!(e06_freespace),
        experiment!(e07_track_cache),
        experiment!(e08_cache_levels),
        experiment!(e09_idempotency),
        experiment!(e10_granularity),
        experiment!(e11_deadlock),
        experiment!(e12_wal_shadow),
        experiment!(e13_striping),
        experiment!(e14_recovery),
        experiment!(e15_write_policy),
        experiment!(e16_agent_lifecycle),
        experiment!(e17_replication_failover),
        experiment!(e18_group_commit),
        experiment!(e19_self_healing),
        experiment!(e20_contention),
        experiment!(e21_raid),
        experiment!(e22_leases),
        experiment!(e23_scaleout),
        experiment!(e24_cross_shard),
    ]
}

/// Measures `experiments` at `cell`, in order. Returns the suite's text
/// as `exp all` prints it, and every claim that does not hold, as
/// `[id] statement`.
pub fn run_all(experiments: &[Experiment], cell: Cell) -> (String, Vec<String>) {
    let mut out = String::new();
    out.push_str("RHODOS distributed file facility — paper experiment suite\n");
    out.push_str("==========================================================\n");
    let mut failed = Vec::new();
    for e in experiments {
        let report = (e.measure)(cell);
        let rule = "-".repeat(e.title.len() + 7);
        out.push_str(&format!(
            "\n[{}] {}\n{rule}\n{}",
            e.id, e.title, report.text
        ));
        failed.extend(report.failed(e.id));
    }
    (out, failed)
}

/// The `exp` command over `experiments`: `exp e03 e12` measures those,
/// `exp all` (or no id) the whole suite through [`run_all`], and
/// `--smoke` picks [`Cell::Smoke`] over [`Cell::Full`]. Writes the
/// reports to `out` and each claim that does not hold to `err`, and
/// returns the exit status: 0, 1 when a claim does not hold, 2 for an
/// unknown flag or id (after listing the ids).
///
/// # Errors
///
/// A failed write to `out` or `err`.
pub fn exp(
    args: &[String],
    experiments: &[Experiment],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> io::Result<i32> {
    let mut cell = Cell::Full;
    let mut ids = Vec::new();
    for arg in args {
        match arg.strip_prefix("--") {
            Some("smoke") => cell = Cell::Smoke,
            Some(flag) => {
                writeln!(err, "unknown flag --{flag}; supported: --smoke")?;
                return Ok(2);
            }
            None => ids.push(arg.as_str()),
        }
    }
    let failed = if ids.is_empty() || ids.contains(&"all") {
        let (text, failed) = run_all(experiments, cell);
        writeln!(out, "{text}")?;
        failed
    } else {
        let mut failed = Vec::new();
        for want in ids {
            let Some(e) = experiments.iter().find(|e| e.id == want) else {
                writeln!(err, "unknown experiment {want:?}; available:")?;
                for e in experiments {
                    writeln!(err, "  {}  {}", e.id, e.title)?;
                }
                return Ok(2);
            };
            let report = (e.measure)(cell);
            writeln!(out, "[{}] {}\n{}", e.id, e.title, report.text)?;
            failed.extend(report.failed(e.id));
        }
        failed
    };
    for claim in &failed {
        writeln!(err, "claim does not hold: {claim}")?;
    }
    Ok(if failed.is_empty() { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Every experiment at its smoke cell, on as many threads as the host
    /// has cores. E14 runs nine times and every run must match the first,
    /// since its catastrophe row once depended on hash order.
    #[test]
    fn every_claim_holds_on_the_smoke_cells() {
        let experiments = all_experiments();
        let e14 = experiments.iter().find(|e| e.id == "e14").unwrap();
        let jobs: Vec<&Experiment> = experiments.iter().chain([e14; 8]).collect();
        let next = AtomicUsize::new(0);
        let reports = Mutex::new(Vec::new());
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    while let Some(e) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let report = (e.measure)(Cell::Smoke);
                        reports.lock().unwrap().push((e.id, report));
                    }
                });
            }
        });
        let reports = reports.into_inner().unwrap();
        assert_eq!(reports.len(), jobs.len());
        let failed: Vec<String> = reports.iter().flat_map(|(id, r)| r.failed(id)).collect();
        assert!(failed.is_empty(), "{failed:#?}");
        let mut e14_runs = reports
            .iter()
            .filter(|(id, _)| *id == "e14")
            .map(|(_, r)| (&r.text, &r.claims));
        let first = e14_runs.next().unwrap();
        assert!(e14_runs.all(|run| run == first));
    }

    fn stub(_: Cell) -> Report {
        let mut r = Report::default();
        r.text.push_str("a stub table\n");
        r.claim("one is less than two", 1 < 2);
        r.claim("two is less than one", 2 < 1);
        r
    }

    fn run(args: &[&str], experiments: &[Experiment]) -> (i32, String, String) {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let status = exp(&args, experiments, &mut out, &mut err).unwrap();
        let text = |v| String::from_utf8(v).unwrap();
        (status, text(out), text(err))
    }

    #[test]
    fn a_claim_that_does_not_hold_fails_the_run_by_name() {
        let stubs = [Experiment {
            id: "e99",
            title: "A stub",
            measure: stub,
        }];
        let (text, failed) = run_all(&stubs, Cell::Smoke);
        assert!(text.ends_with("\n[e99] A stub\n-------------\na stub table\n"));
        assert_eq!(failed, ["[e99] two is less than one"]);
        for args in [&["all", "--smoke"][..], &["e99"], &[]] {
            let (status, out, err) = run(args, &stubs);
            assert_eq!(status, 1, "{args:?}");
            assert!(out.contains("a stub table\n"));
            assert_eq!(err, "claim does not hold: [e99] two is less than one\n");
        }
        let (status, _, err) = run(&["e98"], &stubs);
        assert_eq!(status, 2);
        assert!(err.contains("e99  A stub"));
        assert_eq!(run(&["--fast"], &stubs).0, 2);
        let holding = [Experiment {
            measure: |_| Report::default(),
            ..stubs[0]
        }];
        assert_eq!(
            run(&["e99"], &holding),
            (0, "[e99] A stub\n\n".into(), String::new())
        );
    }
}
