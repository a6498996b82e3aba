//! Calibrated wall-clock benchmark of the RHODOS stack.
//!
//! ```text
//! rhodos-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! rhodos-benchmark aa  [--sets 2] [--runs 5] [--workload W] [--seed N] [--seconds S]
//! ```
//!
//! `run` drives one workload (all five when none is named) through the
//! public API of the default-configured stack, checks every byte it
//! reads back, prints every metric by name and unit, and ends with one
//! JSON object on the last line of standard output. See `README.md`.

mod aa;
mod alloc;
mod cal;
mod counts;
mod driver;
mod gen;
mod json;
mod ladder;
mod metrics;
mod model;
mod stats;
mod trace;
mod workloads;

use cal::Calibrator;
use driver::{epochs_for, measure, timed_setup, Phase};
use metrics::{Metric, RungCost};
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Scale, Top, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median and the last one is measured.
const SETUP_REPEATS: usize = 3;
/// A traced run replays the untraced run's whole request count on the
/// plain top rung — the workloads are not stationary (log growth makes
/// commits dearer as a run goes on), so only the same requests give the
/// same counts and a `ladder.top_us_per_op` that matches `ops_per_s` —
/// then spends these further shares of `--seconds` on the span-traced
/// top rung and on all lower rungs together.
const TRACE_SPANS: f64 = 0.15;
const TRACE_LOWER: f64 = 0.50;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub sets: usize,
    pub runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 42,
        seconds: 0.0,
        trace: false,
        smoke: false,
        sets: 2,
        runs: 5,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a name")?;
                if !WORKLOADS.iter().any(|(name, _)| *name == w) {
                    return Err(format!("unknown workload {w}"));
                }
                out.workload = Some(w);
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--sets" => {
                out.sets = value("a number")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--runs" => {
                out.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--smoke" => out.smoke = true,
            // `--trace 0|1` for the driver, bare `--trace` by hand.
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.seconds <= 0.0 {
        out.seconds = if out.smoke {
            1.0
        } else {
            metrics::contract()
                .get("run_seconds")
                .and_then(json::Value::as_f64)
                .expect("run_seconds")
        };
    }
    if out.sets < 2 || out.runs < 2 {
        return Err("aa needs at least two sets of two runs".into());
    }
    Ok(out)
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one workload's run produced.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line of the contract.
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("write to string");
        }
        out.push_str("}}");
        out
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// The untraced run: set up several times, measure, crash-verify.
fn run_end_to_end(workload: &str, args: &Args) -> Outcome {
    let scale = Scale { smoke: args.smoke };
    let mut cal = Calibrator::new();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut top: Option<Box<dyn Top>> = None;
    for _ in 0..SETUP_REPEATS {
        drop(top.take()); // one stack resident at a time
        let (built, s) = timed_setup(&mut cal, || workloads::build(workload, args.seed, scale));
        setups.push(s);
        top = Some(built);
    }
    let mut top = top.expect("SETUP_REPEATS > 0");
    let phase = measure(top.as_mut(), &mut cal, epochs_for(args.seconds, 1.0));
    let rss = peak_rss_mb();
    let verify_failed = top.verify();
    describe_phase(workload, args, &phase, top.sample_every());
    match dump_epochs(workload, args, &phase) {
        Ok(path) => println!("  per-epoch table written to {path}"),
        Err(e) => println!("  per-epoch table not written: {e}"),
    }
    println!("  set-up (calibrated s): {setups:.4?}; end-of-run check: {verify_failed} mismatches");
    let metrics = metrics::end_to_end(&phase, stats::median(&setups), rss);
    print_metrics(&metrics);
    Outcome {
        metrics,
        attempted: phase.tally.requests,
        failed: phase.tally.failed + verify_failed,
    }
}

/// `benchmark/out/`, created on demand.
fn out_dir() -> std::io::Result<&'static str> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    Ok(dir)
}

/// Writes the per-epoch table of an untraced run beside the traces —
/// what one looks at when a run disagrees with its neighbours.
fn dump_epochs(workload: &str, args: &Args, phase: &Phase) -> std::io::Result<String> {
    let mut out = String::from("raw_ns,kernel_ns,requests");
    for class in ["read", "write", "commit"] {
        write!(out, ",{class}_samples,{class}_p50_ns,{class}_p99_ns").expect("write to string");
    }
    out.push('\n');
    for e in &phase.epochs {
        write!(out, "{},{},{}", e.raw_ns, e.kernel_ns, e.requests).expect("write to string");
        for c in &e.classes {
            write!(out, ",{},{},{}", c.samples, c.p50_ns, c.p99_ns).expect("write to string");
        }
        out.push('\n');
    }
    let path = format!("{}/epochs-{workload}-{}.csv", out_dir()?, args.seed);
    std::fs::write(&path, out)?;
    Ok(path)
}

fn describe_phase(workload: &str, args: &Args, phase: &Phase, sample_every: u64) {
    let label = if args.smoke {
        " [SMOKE: numbers not for comparison]"
    } else {
        ""
    };
    println!(
        "{workload} seed {} — {} requests in {} epochs, {} failed, {} threads available{label}",
        args.seed,
        phase.tally.requests,
        phase.epochs.len(),
        phase.tally.failed,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let raw_ms: Vec<f64> = phase.epochs.iter().map(|e| e.raw_ns as f64 / 1e6).collect();
    println!(
        "  epochs: median {:.1} ms raw, longest {:.1} ms; calibration factor median {:.4}",
        stats::median(&raw_ms),
        raw_ms.iter().fold(0.0f64, |a, &b| a.max(b)),
        stats::median(&phase.factors()),
    );
    for (class, name) in ["read", "write", "commit"].iter().enumerate() {
        let per_epoch = phase.samples(class) / phase.epochs.len();
        let beyond = stats::samples_beyond(per_epoch, 990);
        println!(
            "  {name}: {} samples (1 request in {sample_every} timed), {per_epoch} per epoch, {beyond} beyond each epoch's p99{}",
            phase.samples(class),
            if beyond < 10 { " — too few to quote a p99" } else { "" },
        );
    }
}

/// Cost of handing a cached block to a reader: clone the shared handle
/// and slice a kilobyte out of it.
fn clone_slice_ns() -> f64 {
    const ROUNDS: u32 = 200_000;
    let block = rhodos_buf::BlockBuf::from(vec![0x5Au8; rhodos_disk_service::BLOCK_SIZE]);
    let t0 = Instant::now();
    for i in 0..ROUNDS {
        let at = (i as usize % 7) * 1024;
        black_box(black_box(&block).clone().slice(at..at + 1024));
    }
    t0.elapsed().as_nanos() as f64 / f64::from(ROUNDS)
}

/// The traced run: counts and spans on the top rung, then the same
/// stream on every lower rung. Never mixed with end-to-end numbers.
fn run_traced(workload: &str, args: &Args) -> Outcome {
    alloc::enable();
    let scale = Scale { smoke: args.smoke };
    let mut cal = Calibrator::new();
    let mut top = workloads::build(workload, args.seed, scale);
    let sample_every = top.sample_every();
    let plain = measure(top.as_mut(), &mut cal, epochs_for(args.seconds, 1.0));
    top.trace_spans();
    let traced = measure(
        top.as_mut(),
        &mut cal,
        epochs_for(args.seconds, TRACE_SPANS),
    );
    let spans = top.take_spans();
    let verify_failed = top.verify();
    drop(top);
    describe_phase(workload, args, &plain, sample_every);

    let (lower, top_layer) = workloads::ladder(workload, args.seed, scale);
    let share = TRACE_LOWER / lower.len() as f64;
    let mut rungs = Vec::new();
    let mut failed = plain.tally.failed + traced.tally.failed + verify_failed;
    let mut attempted = plain.tally.requests + traced.tally.requests;
    // Net and replay counters: the top rung's own, unless only a lower
    // rung can see them.
    let mut net = (plain.counts.clone(), plain.tally.requests);
    for rung in lower {
        let mut built = (rung.build)();
        let phase = measure(built.as_mut(), &mut cal, epochs_for(args.seconds, share));
        failed += phase.tally.failed;
        attempted += phase.tally.requests;
        if net.0.get("net.sent") == 0 && phase.counts.get("net.sent") > 0 {
            net = (phase.counts.clone(), phase.tally.requests);
        }
        rungs.push(RungCost {
            layer: rung.layer,
            us_per_op: phase.us_per_op(),
        });
    }
    rungs.push(RungCost {
        layer: top_layer,
        us_per_op: plain.us_per_op(),
    });

    let scale_traced = traced.epochs.iter().map(|e| e.cal_ns).sum::<u64>() as f64
        / traced.epochs.iter().map(|e| e.raw_ns).sum::<u64>().max(1) as f64;
    let mut metrics = metrics::ladder(&rungs);
    metrics.extend(metrics::spans(
        spans.as_ref(),
        scale_traced,
        clone_slice_ns(),
    ));
    metrics.extend(metrics::counts(&plain, (&net.0, net.1)));
    metrics.extend(metrics::tails(&plain));
    metrics.extend(metrics::process(&plain, &traced));
    print_metrics(&metrics);
    match write_trace_file(workload, args, &rungs, spans.as_ref(), &plain) {
        Ok(path) => println!("  trace written to {path}"),
        Err(e) => {
            println!("  trace file not written: {e}");
            failed += 1;
        }
    }
    Outcome {
        metrics,
        attempted,
        failed,
    }
}

/// `benchmark/out/trace-<workload>.json`: ladder, spans and counts.
fn write_trace_file(
    workload: &str,
    args: &Args,
    rungs: &[RungCost],
    spans: Option<&trace::SpanLog>,
    plain: &Phase,
) -> std::io::Result<String> {
    let path = format!("{}/trace-{workload}.json", out_dir()?);
    let mut out = format!(
        "{{\n\"workload\": \"{workload}\", \"seed\": {}, \"smoke\": {},\n\"ladder\": [",
        args.seed, args.smoke
    );
    let mut below = 0.0;
    for (i, r) in rungs.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            out,
            "{sep}\n  {{\"rung\": \"{}\", \"us_per_op\": {}, \"added_us_per_op\": {}}}",
            r.layer,
            r.us_per_op,
            r.us_per_op - below
        )
        .expect("write to string");
        below = r.us_per_op;
    }
    out.push_str("\n],\n\"counts\": {");
    for (i, (k, v)) in plain.counts.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(out, "{sep}\n  \"{k}\": {v}").expect("write to string");
    }
    write!(
        out,
        "\n}},\n\"requests\": {},\n\"spans_recorded\": {},\n\"spans\": {}\n}}\n",
        plain.tally.requests,
        spans.map_or(0, trace::SpanLog::total_spans),
        spans.map_or("[]".into(), trace::SpanLog::to_json),
    )
    .expect("write to string");
    std::fs::write(&path, out)?;
    Ok(path)
}

fn run(args: &Args) -> ExitCode {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.0).collect(),
    };
    let mut all_correct = true;
    for (i, name) in names.iter().enumerate() {
        let outcome = if args.trace {
            run_traced(name, args)
        } else {
            run_end_to_end(name, args)
        };
        all_correct &= outcome.correct();
        // The result line goes last; with several workloads each gets one.
        if i + 1 == names.len() {
            println!("{}", outcome.json());
        } else {
            println!("result {name}: {}", outcome.json());
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) if c == "run" || c == "aa" => (c.as_str(), rest),
        _ => {
            eprintln!("usage: rhodos-benchmark run|aa [options] (see README.md)");
            return ExitCode::from(2);
        }
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match command {
        "run" => run(&args),
        _ => aa::run(&args),
    }
}
