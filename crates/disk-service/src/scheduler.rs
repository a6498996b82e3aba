//! Per-spindle request scheduling: C-SCAN elevator ordering and
//! adjacent-request merging.
//!
//! A batch of extents submitted to one disk server is sorted into elevator
//! order — ascending from the current head position, wrapping once to the
//! lowest outstanding address, like a C-SCAN sweep — and physically
//! adjacent requests are merged so the whole run moves in **one** disk
//! reference. The paper's contiguity rule ("any operation on a set of
//! contiguous blocks/fragments can be accomplished in one single reference
//! to the disk", §4) thus applies across request boundaries, not just
//! within one.

use crate::units::Extent;
use std::ops::Range;

/// Observability for one disk server's scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerStats {
    /// Largest batch ever queued on this spindle.
    pub queue_depth_hwm: u64,
    /// Requests absorbed into a neighbour by adjacent merging (a batch of
    /// `n` requests collapsing to one run counts `n - 1`).
    pub merged_requests: u64,
    /// C-SCAN wrap-arounds: the elevator finished its upward sweep and
    /// jumped back to the lowest outstanding address.
    pub direction_switches: u64,
    /// Batches submitted.
    pub batches: u64,
}

impl SchedulerStats {
    /// Accumulates another stats block into this one.
    pub fn merge(&mut self, other: &SchedulerStats) {
        self.queue_depth_hwm = self.queue_depth_hwm.max(other.queue_depth_hwm);
        self.merged_requests += other.merged_requests;
        self.direction_switches += other.direction_switches;
        self.batches += other.batches;
    }
}

/// One elevator-ordered, merged run.
#[derive(Debug)]
pub struct MergedRun {
    /// The merged extent: one disk reference.
    pub extent: Extent,
    /// The requests the run absorbed: a range of [`Schedule::order`],
    /// so they are in address order and each starts where the one
    /// before it ends.
    pub parts: Range<usize>,
}

/// A batch in elevator order: two vectors however many runs it has.
#[derive(Debug)]
pub struct Schedule {
    /// Input indices of the requests, in the order they are served.
    pub order: Vec<usize>,
    /// The merged runs, in the order they are served.
    pub runs: Vec<MergedRun>,
}

/// Orders a batch of per-request extents into a C-SCAN sweep starting at
/// `head` and merges physically adjacent requests into single runs.
///
/// Requests must be pairwise non-overlapping (they may be duplicates of
/// whole extents only if disjoint — overlapping extents are a caller bug
/// and are left unmerged, each becoming its own run).
pub fn order_and_merge(head: u64, requests: &[Extent], stats: &mut SchedulerStats) -> Schedule {
    stats.batches += 1;
    stats.queue_depth_hwm = stats.queue_depth_hwm.max(requests.len() as u64);
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| requests[i].start);
    // C-SCAN: serve addresses at or above the head first (ascending), then
    // wrap once to the lowest outstanding address and sweep up again.
    let pivot = order.partition_point(|&i| requests[i].start < head);
    if pivot > 0 && pivot < order.len() {
        stats.direction_switches += 1;
    }
    order.rotate_left(pivot);

    let mut runs: Vec<MergedRun> = Vec::new();
    for (k, &i) in order.iter().enumerate() {
        let req = requests[i];
        if let Some(last) = runs.last_mut() {
            if last.extent.end() == req.start {
                last.parts.end = k + 1;
                last.extent.len += req.len;
                stats.merged_requests += 1;
                continue;
            }
        }
        runs.push(MergedRun {
            extent: req,
            parts: k..k + 1,
        });
    }
    Schedule { order, runs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(start: u64, len: u64) -> Extent {
        Extent::new(start, len)
    }

    #[test]
    fn adjacent_requests_merge_into_one_run() {
        let mut stats = SchedulerStats::default();
        let s = order_and_merge(0, &[e(4, 4), e(0, 4), e(8, 4)], &mut stats);
        assert_eq!(s.runs.len(), 1);
        assert_eq!(s.runs[0].extent, e(0, 12));
        assert_eq!(s.order[s.runs[0].parts.clone()], [1, 0, 2]);
        assert_eq!(stats.merged_requests, 2);
        assert_eq!(stats.queue_depth_hwm, 3);
    }

    #[test]
    fn cscan_serves_ahead_of_head_first_then_wraps() {
        let mut stats = SchedulerStats::default();
        let runs = order_and_merge(100, &[e(10, 2), e(200, 2), e(150, 2)], &mut stats).runs;
        let starts: Vec<u64> = runs.iter().map(|r| r.extent.start).collect();
        assert_eq!(starts, vec![150, 200, 10]);
        assert_eq!(stats.direction_switches, 1);
    }

    #[test]
    fn no_wrap_when_all_requests_ahead() {
        let mut stats = SchedulerStats::default();
        let runs = order_and_merge(0, &[e(50, 2), e(10, 2)], &mut stats).runs;
        let starts: Vec<u64> = runs.iter().map(|r| r.extent.start).collect();
        assert_eq!(starts, vec![10, 50]);
        assert_eq!(stats.direction_switches, 0);
    }

    #[test]
    fn non_adjacent_requests_stay_separate() {
        let mut stats = SchedulerStats::default();
        let runs = order_and_merge(0, &[e(0, 4), e(8, 4)], &mut stats).runs;
        assert_eq!(runs.len(), 2);
        assert_eq!(stats.merged_requests, 0);
    }

    #[test]
    fn wrap_merge_does_not_cross_the_seam() {
        // Requests [8,12) and [0,8) are adjacent in address space but the
        // sweep starts at head 6, so [8,12) is served first and the wrapped
        // [0,8) must not merge backwards into it.
        let mut stats = SchedulerStats::default();
        let runs = order_and_merge(6, &[e(8, 4), e(0, 8)], &mut stats).runs;
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].extent, e(8, 4));
        assert_eq!(runs[1].extent, e(0, 8));
    }
}
