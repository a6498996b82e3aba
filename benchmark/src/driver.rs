//! The measured phase: a fixed number of fixed-size epochs of
//! pre-generated requests, each bracketed by the reference kernel.
//! Everything a run reports is derived from the [`Phase`] this returns.
//!
//! `--seconds` buys epochs at [`EPOCHS_PER_SECOND`], never a deadline:
//! the request count of a run is then a function of its arguments
//! alone, so every count a layer reports — and anything that grows
//! with the number of requests, like resident memory — repeats exactly
//! and means the same on a faster commit. Epoch lengths are sized so
//! that an epoch lasts about a quarter of a second on the machine
//! `CAL_NOMINAL_NS` was taken on, which is how long a run then lasts.

use crate::alloc;
use crate::cal::{Calibrator, CAL_NOMINAL_NS};
use crate::gen::{Kind, Req};
use crate::stats;
use crate::trace::SpanLog;
use std::collections::BTreeMap;
use std::time::Instant;

/// Epochs a second of `--seconds` pays for.
pub const EPOCHS_PER_SECOND: f64 = 4.0;

/// Epochs in `seconds × share` of a run (at least one).
pub fn epochs_for(seconds: f64, share: f64) -> usize {
    ((seconds * share * EPOCHS_PER_SECOND).round() as usize).max(1)
}

/// Latency samples pre-allocated per class and epoch (a vector grows
/// if an epoch draws more).
const SAMPLES_PER_EPOCH: usize = 1 << 16;

/// Raw latency samples of the three request classes, in nanoseconds,
/// for the epoch in progress.
#[derive(Debug, Default)]
pub struct Recorder {
    pub samples: [Vec<u64>; 3],
}

impl Recorder {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            samples: std::array::from_fn(|_| Vec::with_capacity(n)),
        }
    }

    pub fn push(&mut self, class: usize, ns: u64) {
        self.samples[class].push(ns);
    }

    pub fn append(&mut self, other: &mut Recorder) {
        for (mine, theirs) in self.samples.iter_mut().zip(&mut other.samples) {
            mine.append(theirs);
        }
    }
}

/// What one epoch (or a whole phase) got through.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub requests: u64,
    /// Requests that errored, were refused, or returned bytes that
    /// differ from the driver's model.
    pub failed: u64,
    /// Bytes the clients asked to read or write.
    pub user_bytes: u64,
}

impl Tally {
    /// Accounts for one executed request.
    pub fn count(&mut self, r: &Req, ok: bool) {
        self.requests += 1;
        self.failed += u64::from(!ok);
        self.user_bytes += r.user_bytes();
    }

    pub fn add(&mut self, other: Tally) {
        self.requests += other.requests;
        self.failed += other.failed;
        self.user_bytes += other.user_bytes;
    }
}

/// Cumulative counters read from the layers' public `stats()`, keyed
/// by `layer.counter`. Keys under `hwm.` are high-water marks and are
/// not differenced.
#[derive(Debug, Default, Clone)]
pub struct Counts(pub BTreeMap<&'static str, u64>);

impl Counts {
    pub fn add(&mut self, key: &'static str, value: u64) {
        *self.0.entry(key).or_insert(0) += value;
    }

    pub fn max(&mut self, key: &'static str, value: u64) {
        let slot = self.0.entry(key).or_insert(0);
        *slot = (*slot).max(value);
    }

    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    pub fn delta_since(&self, earlier: &Counts) -> Counts {
        Counts(
            self.0
                .iter()
                .map(|(&k, &v)| {
                    let base = if k.starts_with("hwm.") {
                        0
                    } else {
                        earlier.get(k)
                    };
                    (k, v - base)
                })
                .collect(),
        )
    }
}

/// Anything that can replay a request stream one epoch at a time: the
/// real top of a workload's stack, or a lower rung of its ladder.
pub trait Rung {
    /// Draws the next epoch's requests. Off the clock.
    fn prepare(&mut self);
    /// Executes them, recording raw per-request latencies.
    fn run(&mut self, rec: &mut Recorder) -> Tally;
    /// Counters of every layer at or below this rung, so far.
    fn counts(&self) -> Counts {
        Counts::default()
    }
}

/// Executes `reqs` one after another, timing each into its class.
pub fn replay(reqs: &[Req], rec: &mut Recorder, mut exec: impl FnMut(&Req) -> bool) -> Tally {
    let mut tally = Tally::default();
    for r in reqs {
        let t0 = Instant::now();
        let ok = exec(r);
        rec.push(r.kind.class(), t0.elapsed().as_nanos() as u64);
        tally.count(r, ok);
    }
    tally
}

/// [`replay`] with every request wrapped in a request span and its one
/// public call in a span called `name(kind)`.
pub fn replay_spans(
    reqs: &[Req],
    rec: &mut Recorder,
    log: &mut SpanLog,
    name: fn(Kind) -> &'static str,
    mut exec: impl FnMut(&Req) -> bool,
) -> Tally {
    let mut tally = Tally::default();
    for r in reqs {
        let (id, started) = log.begin_request();
        let ok = log.call(name(r.kind), id, || exec(r));
        rec.push(r.kind.class(), log.end_request(id, started));
        tally.count(r, ok);
    }
    tally
}

/// Calibrated latency of one request class within one epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    pub samples: usize,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// One closed epoch.
#[derive(Debug, Clone, Copy)]
pub struct Epoch {
    pub raw_ns: u64,
    pub cal_ns: u64,
    /// Mean of the kernel readings before and after.
    pub kernel_ns: u64,
    pub requests: u64,
    pub classes: [ClassStats; 3],
}

/// A finished measured phase.
#[derive(Debug)]
pub struct Phase {
    pub epochs: Vec<Epoch>,
    pub tally: Tally,
    pub counts: Counts,
    /// `(allocations, bytes)` over the phase; zero unless counting is on.
    pub heap: (u64, u64),
}

impl Phase {
    /// Requests per calibrated second: the median of the per-epoch
    /// rates. This box stalls whole epochs now and then; the median
    /// epoch is what the code does when it is left alone.
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .epochs
            .iter()
            .map(|e| stats::ops_per_s(e.requests, &[e.cal_ns]))
            .collect();
        stats::median(&rates)
    }

    /// Requests over the summed raw epoch time: the uncalibrated,
    /// unfiltered figure a stopwatch would give.
    pub fn raw_ops_per_s(&self) -> f64 {
        let raw: Vec<u64> = self.epochs.iter().map(|e| e.raw_ns).collect();
        stats::ops_per_s(self.tally.requests, &raw)
    }

    /// Calibrated microseconds per request.
    pub fn us_per_op(&self) -> f64 {
        1e6 / self.ops_per_s()
    }

    /// Samples a class drew over the whole phase.
    pub fn samples(&self, class: usize) -> usize {
        self.epochs.iter().map(|e| e.classes[class].samples).sum()
    }

    /// Median over the epochs of each epoch's own nearest-rank
    /// percentile of `class`, in calibrated microseconds; `pick`
    /// selects p50 or p99. 0 when the class drew no sample at all.
    pub fn latency_us(&self, class: usize, pick: fn(&ClassStats) -> u64) -> f64 {
        let per_epoch: Vec<f64> = self
            .epochs
            .iter()
            .map(|e| &e.classes[class])
            .filter(|c| c.samples > 0)
            .map(|c| pick(c) as f64 / 1e3)
            .collect();
        if per_epoch.is_empty() {
            0.0
        } else {
            stats::median(&per_epoch)
        }
    }

    /// Per-epoch calibration factors (kernel time over nominal).
    pub fn factors(&self) -> Vec<f64> {
        self.epochs
            .iter()
            .map(|e| e.kernel_ns as f64 / CAL_NOMINAL_NS as f64)
            .collect()
    }
}

/// Runs `count` epochs on `rung`.
pub fn measure(rung: &mut dyn Rung, cal: &mut Calibrator, count: usize) -> Phase {
    let mut rec = Recorder::with_capacity(SAMPLES_PER_EPOCH);
    let mut epochs = Vec::with_capacity(count);
    let mut tally = Tally::default();
    let counts0 = rung.counts();
    let heap0 = alloc::snapshot();
    cal.tick();
    for _ in 0..count {
        rung.prepare();
        let t0 = Instant::now();
        let t = rung.run(&mut rec);
        let raw_ns = t0.elapsed().as_nanos() as u64;
        let kernel_ns = cal.bracket();
        let classes = [0, 1, 2].map(|class| {
            let samples = &mut rec.samples[class];
            if samples.is_empty() {
                return ClassStats::default();
            }
            samples.sort_unstable();
            let stats = ClassStats {
                samples: samples.len(),
                p50_ns: stats::calibrate(
                    stats::percentile(samples, 500),
                    kernel_ns,
                    CAL_NOMINAL_NS,
                ),
                p99_ns: stats::calibrate(
                    stats::percentile(samples, 990),
                    kernel_ns,
                    CAL_NOMINAL_NS,
                ),
            };
            samples.clear();
            stats
        });
        epochs.push(Epoch {
            raw_ns,
            cal_ns: stats::calibrate(raw_ns, kernel_ns, CAL_NOMINAL_NS),
            kernel_ns,
            requests: t.requests,
            classes,
        });
        tally.add(t);
    }
    let heap1 = alloc::snapshot();
    Phase {
        epochs,
        tally,
        counts: rung.counts().delta_since(&counts0),
        heap: (heap1.0 - heap0.0, heap1.1 - heap0.1),
    }
}

/// Times `f` in calibrated seconds (set-up is calibrated like an epoch).
pub fn timed_setup<T>(cal: &mut Calibrator, f: impl FnOnce() -> T) -> (T, f64) {
    cal.tick();
    let t0 = Instant::now();
    let built = f();
    let raw_ns = t0.elapsed().as_nanos() as u64;
    let kernel_ns = cal.bracket();
    let cal_ns = stats::calibrate(raw_ns, kernel_ns, CAL_NOMINAL_NS);
    (built, cal_ns as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes a known ladder of latencies each epoch.
    struct Fake {
        epoch: u64,
    }

    impl Rung for Fake {
        fn prepare(&mut self) {
            self.epoch += 1;
        }

        fn run(&mut self, rec: &mut Recorder) -> Tally {
            for i in 1..=100u64 {
                rec.push(0, i * 1000 * self.epoch);
            }
            rec.push(2, 5000);
            Tally {
                requests: 101,
                failed: u64::from(self.epoch == 2),
                user_bytes: 1024,
            }
        }

        fn counts(&self) -> Counts {
            let mut c = Counts::default();
            c.add("layer.ops", 10 * self.epoch);
            c.max("hwm.layer.depth", 7);
            c
        }
    }

    #[test]
    fn a_phase_is_a_fixed_number_of_epochs_with_per_epoch_percentiles() {
        let mut cal = Calibrator::new();
        let phase = measure(&mut Fake { epoch: 0 }, &mut cal, 3);
        assert_eq!(phase.epochs.len(), 3);
        assert_eq!(
            phase.tally,
            Tally {
                requests: 303,
                failed: 1,
                user_bytes: 3072
            }
        );
        // Counters are differenced over the phase, high-water marks are not.
        assert_eq!(phase.counts.get("layer.ops"), 30);
        assert_eq!(phase.counts.get("hwm.layer.depth"), 7);
        assert_eq!(phase.samples(0), 300);
        assert_eq!(phase.samples(1), 0);
        assert_eq!(phase.latency_us(1, |c| c.p50_ns), 0.0);
        for (i, e) in phase.epochs.iter().enumerate() {
            let scale = |ns: u64| stats::calibrate(ns, e.kernel_ns, CAL_NOMINAL_NS);
            let k = i as u64 + 1;
            assert_eq!(e.classes[0].p50_ns, scale(50_000 * k));
            assert_eq!(e.classes[0].p99_ns, scale(99_000 * k));
            assert_eq!(e.classes[2].samples, 1);
            assert_eq!(e.cal_ns, scale(e.raw_ns));
        }
        // The reported latency is the middle epoch's, not the pooled one.
        let mid = phase.epochs[1].classes[0].p50_ns as f64 / 1e3;
        let all: Vec<f64> = phase
            .epochs
            .iter()
            .map(|e| e.classes[0].p50_ns as f64 / 1e3)
            .collect();
        assert_eq!(phase.latency_us(0, |c| c.p50_ns), stats::median(&all));
        assert!((phase.latency_us(0, |c| c.p50_ns) - mid).abs() / mid < 0.5);
        assert!(phase.ops_per_s() > 0.0 && phase.raw_ops_per_s() > 0.0);
    }

    #[test]
    fn seconds_buy_epochs() {
        assert_eq!(epochs_for(15.0, 1.0), 60);
        assert_eq!(epochs_for(15.0, 0.35), 21);
        assert_eq!(epochs_for(0.01, 0.1), 1);
    }
}
