//! `aa`: the same code measured as two (or more) interleaved sets of
//! runs, judged the way the driver judges a benchmark — per workload
//! and end-to-end metric, the quartile spread of each set must stay
//! inside the metric's bound, and no later set's median may be worse
//! than the first's by more than the bound.

use crate::json::{self, Value};
use crate::metrics::{declared_end_to_end, Declared};
use crate::stats;
use crate::workloads::WORKLOADS;
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// `values[set]` of one metric on one workload.
type Cell = Vec<Vec<f64>>;

/// One untraced run in a child process (peak RSS is per process).
fn child_run(workload: &str, seed: u64, args: &Args) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed}: exit {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    let v = json::parse(last)?;
    if v.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{workload} seed {seed}: incorrect"));
    }
    let Some(Value::Object(metrics)) = v.get("metrics") else {
        return Err("no metrics".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// Verdict on one cell: `(worst spread, worst worsening vs set 0)`.
fn judge(cell: &Cell, d: &Declared) -> (f64, f64) {
    let spread = cell.iter().map(|s| stats::spread(s)).fold(0.0, f64::max);
    let first = stats::median(&cell[0]);
    let worse = cell[1..]
        .iter()
        .map(|s| stats::worsening(first, stats::median(s), d.higher_is_better))
        .fold(f64::MIN, f64::max);
    (spread, worse)
}

pub fn run(args: &Args) -> ExitCode {
    let declared = declared_end_to_end();
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.0).collect(),
    };
    let mut outside = 0;
    println!(
        "A/A: {} sets x {} runs, {} s each, seeds {}.., sets interleaved A B B A",
        args.sets, args.runs, args.seconds, args.seed
    );
    println!(
        "| workload | metric | median A | median B | Q1..Q3 A | spread | B worse by | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for workload in names {
        let mut cells: BTreeMap<String, Cell> = BTreeMap::new();
        for run in 0..args.runs {
            // A B B A …: neither set always runs on the warmer machine.
            let mut order: Vec<usize> = (0..args.sets).collect();
            if run % 2 == 1 {
                order.reverse();
            }
            for set in order {
                match child_run(workload, args.seed + run as u64, args) {
                    Ok(metrics) => {
                        for (name, value) in metrics {
                            cells
                                .entry(name)
                                .or_insert_with(|| vec![Vec::new(); args.sets])[set]
                                .push(value);
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        for d in &declared {
            let cell = &cells[&d.name];
            let (spread, worse) = judge(cell, d);
            // The driver exempts `setup_s` from the spread rule only.
            let ok = worse <= d.bound && (spread <= d.bound || d.name == "setup_s");
            outside += usize::from(!ok);
            let (q1, q3) = stats::quartiles(&cell[0]);
            println!(
                "| {workload} | {} | {:.4} | {:.4} | {:.4}..{:.4} | {:.2}% | {:+.2}% | {:.0}% | {} |",
                d.name,
                stats::median(&cell[0]),
                stats::median(&cell[1]),
                q1,
                q3,
                spread * 100.0,
                worse * 100.0,
                d.bound * 100.0,
                if ok { "ok" } else { "OUTSIDE" },
            );
        }
    }
    if outside == 0 {
        println!("every cell inside its bound");
        ExitCode::SUCCESS
    } else {
        println!("{outside} cells outside their bound");
        ExitCode::FAILURE
    }
}
