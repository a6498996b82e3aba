//! Calibrated time. This box's speed drifts by ten percent between
//! back-to-back runs of the same code, so every epoch is bracketed by a
//! fixed reference kernel and its durations are divided by how slow the
//! kernel ran against a constant committed here.

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// What the reference kernel takes on the machine this benchmark was
/// calibrated on, in nanoseconds. A committed constant — never
/// re-measured at run time — so that two runs are rescaled to the same
/// ruler. Changing it rescales every timed metric: re-baseline.
pub const CAL_NOMINAL_NS: u64 = 2_700_000;

const BUF_BYTES: usize = 1 << 20;
const PASSES: usize = 2;

/// The reference kernel and its most recent timing.
pub struct Calibrator {
    buf: Vec<u8>,
    last_ns: u64,
}

impl Calibrator {
    /// Allocates the buffer and takes the first reading.
    pub fn new() -> Self {
        let mut cal = Self {
            buf: vec![0x5A; BUF_BYTES],
            last_ns: 0,
        };
        cal.tick(); // first touch of the buffer: not a reading
        cal.tick();
        cal
    }

    /// Runs the kernel once — a serial multiply-add chain threaded
    /// through a 1 MiB buffer, so it can be neither vectorised nor
    /// skipped — and returns `(previous reading, this reading)`.
    pub fn tick(&mut self) -> (u64, u64) {
        let r = black_box(0x9E37_79B9_7F4A_7C15u64);
        let t0 = Instant::now();
        let mut x = r;
        for _ in 0..PASSES {
            for b in self.buf.iter_mut() {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(u64::from(*b))
                    .wrapping_add(r);
                *b = x as u8;
            }
        }
        black_box(x);
        let now = t0.elapsed().as_nanos() as u64;
        let before = std::mem::replace(&mut self.last_ns, now);
        (before, now)
    }

    /// Closes a measurement that began right after the previous `tick`:
    /// returns the kernel time to divide it by.
    pub fn bracket(&mut self) -> u64 {
        let (before, after) = self.tick();
        stats::bracket(before, after)
    }
}
