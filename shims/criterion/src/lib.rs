//! Offline stand-in for the `criterion` crate.
//!
//! Provides the API shape this workspace's benches use — `Criterion`,
//! `benchmark_group`, `bench_function`, `Bencher::{iter, iter_batched}`,
//! `BatchSize`, and the `criterion_group!`/`criterion_main!` macros — with
//! a simple median-of-samples timing harness instead of criterion's full
//! statistical machinery. Results print as `name  time: [median ns]` and
//! are also collected on the `Criterion` value so callers (e.g. the
//! `bench_json` binary) can serialize them.

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box`, criterion-style.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// How `iter_batched` amortizes setup cost (shape-compatible subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// `group/function` id.
    pub id: String,
    /// Median nanoseconds per iteration.
    pub ns_per_iter: f64,
}

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    sample_size: Option<usize>,
    measurements: Vec<Measurement>,
}

impl Criterion {
    /// Parses CLI args (accepted and ignored — harness flags like
    /// `--bench` don't change behaviour here).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: None,
        }
    }

    /// Benchmarks a single function outside a group.
    pub fn bench_function(&mut self, id: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let sample_size = self.sample_size.unwrap_or(DEFAULT_SAMPLES);
        let m = run_bench(id, sample_size, f);
        self.measurements.push(m);
        self
    }

    /// All measurements taken so far.
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    /// Prints the classic criterion closing line.
    pub fn final_summary(&self) {}
}

/// A named group sharing configuration (subset: `sample_size`).
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Benchmarks `f` under `group/id`.
    pub fn bench_function(&mut self, id: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        let samples = self.sample_size.unwrap_or(DEFAULT_SAMPLES);
        let m = run_bench(&full, samples, f);
        self.criterion.measurements.push(m);
        self
    }

    /// Ends the group (drop would do; kept for API parity).
    pub fn finish(self) {}
}

const DEFAULT_SAMPLES: usize = 30;
/// Target wall-clock spent per sample; keeps total runtime bounded.
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(8);

/// Timing context handed to each benchmark closure.
pub struct Bencher {
    iters_per_sample: u64,
    samples: Vec<f64>,
    calibrating: bool,
}

impl Bencher {
    /// Times `routine` back-to-back; the measured quantity is one call.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let n = self.iters_per_sample.max(1);
        let start = Instant::now();
        for _ in 0..n {
            std_black_box(routine());
        }
        let elapsed = start.elapsed();
        self.record(elapsed, n);
    }

    /// Times `routine` on inputs produced by `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let n = self.iters_per_sample.max(1);
        let inputs: Vec<I> = (0..n).map(|_| setup()).collect();
        let start = Instant::now();
        for input in inputs {
            std_black_box(routine(input));
        }
        let elapsed = start.elapsed();
        self.record(elapsed, n);
    }

    fn record(&mut self, elapsed: Duration, iters: u64) {
        let ns = elapsed.as_nanos() as f64 / iters as f64;
        if self.calibrating {
            // Scale the per-sample iteration count to hit the target time.
            let per_iter = ns.max(1.0);
            let want = TARGET_SAMPLE_TIME.as_nanos() as f64 / per_iter;
            self.iters_per_sample = (want.ceil() as u64).clamp(1, 10_000_000);
        } else {
            self.samples.push(ns);
        }
    }
}

fn run_bench(id: &str, samples: usize, mut f: impl FnMut(&mut Bencher)) -> Measurement {
    let mut b = Bencher {
        iters_per_sample: 1,
        samples: Vec::new(),
        calibrating: true,
    };
    // One calibration pass (also serves as warm-up), then timed samples.
    f(&mut b);
    b.calibrating = false;
    for _ in 0..samples.max(3) {
        f(&mut b);
    }
    let mut xs = b.samples.clone();
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = if xs.is_empty() { 0.0 } else { xs[xs.len() / 2] };
    println!("{id:<50} time: [{median:>12.1} ns/iter]");
    Measurement {
        id: id.to_string(),
        ns_per_iter: median,
    }
}

/// Declares a group function calling each benchmark fn in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            let _ = &$config;
            $( $target(c); )+
        }
    };
}

/// Declares `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $( $group(&mut c); )+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(5);
        g.bench_function("busy", |b| {
            b.iter(|| (0..100u64).sum::<u64>());
        });
        g.finish();
        assert_eq!(c.measurements().len(), 1);
        assert!(c.measurements()[0].ns_per_iter > 0.0);
        assert_eq!(c.measurements()[0].id, "g/busy");
    }

    #[test]
    fn iter_batched_excludes_setup() {
        let mut c = Criterion::default();
        c.bench_function("batched", |b| {
            b.iter_batched(|| vec![0u8; 64], |v| v.len(), BatchSize::SmallInput);
        });
        assert!(c.measurements()[0].ns_per_iter >= 0.0);
    }
}
