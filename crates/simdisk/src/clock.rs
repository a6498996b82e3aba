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
/// Time only moves forward, with one exception: a fork-join
/// ([`Self::lanes`]) moves it back to the fork instant between branches.
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
    /// clock never moves backwards here (only a [`Lanes`] branch does).
    pub fn advance_to(&self, target_us: u64) {
        self.micros.fetch_max(target_us, Ordering::SeqCst);
    }

    /// Forks the clock at the current instant: each [`Lanes::lane`] then
    /// runs from that instant, and [`Lanes::join`] leaves the clock at the
    /// latest lane's end — the makespan rule `SimDisk::begin_batch` gives
    /// spindles, for any branches that would run in parallel.
    ///
    /// Sound only when the branches touch disjoint nodes, so each node
    /// still sees its own time go forward, and one thread drives every
    /// node on this clock; a threaded caller must never fork. Calls made
    /// outside a fork still add up.
    ///
    /// ```
    /// use rhodos_simdisk::SimClock;
    ///
    /// let clock = SimClock::new();
    /// let mut lanes = clock.lanes();
    /// lanes.lane(0, || clock.advance(300));
    /// lanes.lane(1, || clock.advance(500));
    /// lanes.join();
    /// assert_eq!(clock.now_us(), 500);
    /// ```
    pub fn lanes(&self) -> Lanes {
        let fork = self.now_us();
        Lanes {
            clock: self.clone(),
            fork,
            end: fork,
            keys: Vec::new(),
        }
    }
}

/// A fork-join on a [`SimClock`], made by [`SimClock::lanes`]. Dropping
/// it joins, so an early return still charges the lanes that ran.
#[derive(Debug)]
pub struct Lanes {
    clock: SimClock,
    fork: u64,
    end: u64,
    /// Keys of the lanes run so far: debug builds check they differ,
    /// release builds leave it empty.
    keys: Vec<usize>,
}

impl Lanes {
    /// Runs one branch from the fork instant and records where it ends.
    /// `key` names the node (or group of nodes) the branch drives; no two
    /// lanes of one fork may share it.
    ///
    /// # Panics
    ///
    /// In debug builds, if `key` already ran in this fork.
    pub fn lane<R>(&mut self, key: usize, f: impl FnOnce() -> R) -> R {
        if cfg!(debug_assertions) {
            assert!(!self.keys.contains(&key), "lane {key} forked twice");
            self.keys.push(key);
        }
        self.clock.micros.store(self.fork, Ordering::SeqCst);
        let out = f();
        self.end = self.end.max(self.clock.now_us());
        out
    }

    /// Leaves the clock at the latest lane's end (the fork instant when
    /// no lane advanced it).
    pub fn join(self) {}
}

impl Drop for Lanes {
    fn drop(&mut self) {
        self.clock.advance_to(self.end);
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

    #[test]
    fn a_fork_join_costs_its_longest_lane() {
        let c = SimClock::new();
        c.advance(10);
        let mut lanes = c.lanes();
        for (key, cost) in [(0, 30), (1, 70), (2, 20)] {
            lanes.lane(key, || {
                assert_eq!(c.now_us(), 10, "every lane starts at the fork");
                c.advance(cost);
            });
        }
        lanes.join();
        assert_eq!(c.now_us(), 80, "the longest lane, not the sum (130)");
    }

    #[test]
    fn a_lane_forked_in_a_lane_ends_in_its_parent() {
        let c = SimClock::new();
        let mut outer = c.lanes();
        outer.lane(0, || {
            c.advance(5);
            let mut inner = c.lanes();
            inner.lane(0, || c.advance(40));
            inner.lane(1, || c.advance(15));
            inner.join();
            assert_eq!(c.now_us(), 45);
        });
        outer.lane(1, || c.advance(30));
        outer.join();
        assert_eq!(c.now_us(), 45);
    }

    #[test]
    fn a_lane_that_advances_nothing_leaves_the_clock() {
        let c = SimClock::new();
        c.advance(25);
        let mut lanes = c.lanes();
        lanes.lane(0, || ());
        lanes.join();
        assert_eq!(c.now_us(), 25);
    }

    #[test]
    fn a_join_with_no_lanes_leaves_the_clock() {
        let c = SimClock::new();
        c.advance(25);
        c.lanes().join();
        assert_eq!(c.now_us(), 25);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "forked twice")]
    fn a_lane_key_used_twice_panics() {
        let c = SimClock::new();
        let mut lanes = c.lanes();
        lanes.lane(3, || c.advance(1));
        lanes.lane(3, || c.advance(1));
    }
}
