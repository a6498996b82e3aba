//! Shared virtual clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared virtual clock measured in microseconds.
///
/// Every component of the simulated facility (disks, network, lock timeouts)
/// advances and reads the same clock, which makes latency-dependent
/// behaviour — seek costs, lock lease expiry, message delays — fully
/// deterministic and independent of the host machine.
///
/// `SimClock` is cheap to clone; clones share the same underlying counter.
///
/// # Example
///
/// ```
/// use rhodos_simdisk::SimClock;
///
/// let clock = SimClock::new();
/// let view = clock.clone();
/// clock.advance(150);
/// assert_eq!(view.now_us(), 150);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    micros: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a new clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.micros.load(Ordering::SeqCst)
    }

    /// Advances the clock by `delta_us` microseconds and returns the new time.
    pub fn advance(&self, delta_us: u64) -> u64 {
        self.micros.fetch_add(delta_us, Ordering::SeqCst) + delta_us
    }

    /// Moves the clock forward to `target_us` if it is currently behind it.
    ///
    /// Used when merging timelines of concurrently simulated devices; the
    /// clock never moves backwards.
    pub fn advance_to(&self, target_us: u64) {
        self.micros.fetch_max(target_us, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(SimClock::new().now_us(), 0);
    }

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        assert_eq!(c.advance(10), 10);
        assert_eq!(c.advance(5), 15);
        assert_eq!(c.now_us(), 15);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(42);
        assert_eq!(b.now_us(), 42);
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let c = SimClock::new();
        c.advance(100);
        c.advance_to(50);
        assert_eq!(c.now_us(), 100);
        c.advance_to(200);
        assert_eq!(c.now_us(), 200);
    }
}
