//! The 64 × 64 free-extent array (§4).
//!
//! "The disk server also maintains a two dimensional array of the order of
//! 64 rows and 64 columns for the maintenance of free spaces in the disk.
//! ... The first row stores the references to single free fragments
//! available on the disk. Each element of the second row is a reference to
//! a group of two contiguous free fragments in the disk" and so on. "The
//! objective of this array is to check quickly whether a requested number
//! of contiguous fragments or blocks are available or not."
//!
//! Design points the paper leaves open, and our choices:
//!
//! * Runs longer than 64 fragments: indexed in the last row (row 63), with
//!   the true length kept alongside the reference.
//! * Row overflow (more than 64 runs of one size): surplus runs are simply
//!   not indexed. They are rediscovered by the periodic/triggered bitmap
//!   scan ("initialization and subsequent updation of this array is carried
//!   out by scanning the bitmap"), which [`FreeExtentArray::rebuild_from`]
//!   implements.
//! * Staleness: entries are validated against the bitmap before use and
//!   dropped lazily if the referenced run is no longer entirely free.

use crate::bitmap::Bitmap;
use crate::units::{Extent, FragmentAddr};

/// Rows in the array; row `r` indexes runs of exactly `r + 1` fragments
/// (last row: `>= ROWS` fragments).
pub const ROWS: usize = 64;

/// Maximum references kept per row.
pub const COLS: usize = 64;

/// Statistics on how allocations were satisfied — the measurements behind
/// experiment **E6**.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtentIndexStats {
    /// Allocations satisfied directly from the array.
    pub index_hits: u64,
    /// Allocations that had to fall back to a bitmap scan.
    pub bitmap_fallbacks: u64,
    /// Stale references discarded during lookups.
    pub stale_dropped: u64,
    /// Full rebuilds performed.
    pub rebuilds: u64,
}

/// The free-extent index. The bitmap remains ground truth; this structure
/// answers "give me *n* contiguous fragments" in near-constant time.
///
/// # Example
///
/// ```
/// use rhodos_disk_service::{Bitmap, FreeExtentArray};
///
/// let mut bm = Bitmap::new_all_free(256);
/// let mut idx = FreeExtentArray::new();
/// idx.rebuild_from(&bm);
/// let run = idx.allocate(&mut bm, 8).unwrap();
/// assert_eq!(run.len, 8);
/// assert!(!bm.run_is_free(run.start, 1));
/// ```
#[derive(Debug, Clone)]
pub struct FreeExtentArray {
    /// `rows[r]` holds `(start, true_len)` references; for `r < ROWS-1`,
    /// `true_len == r + 1`.
    rows: Vec<Vec<(FragmentAddr, u64)>>,
    stats: ExtentIndexStats,
}

impl Default for FreeExtentArray {
    fn default() -> Self {
        Self::new()
    }
}

impl FreeExtentArray {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self {
            rows: vec![Vec::new(); ROWS],
            stats: ExtentIndexStats::default(),
        }
    }

    /// Usage statistics.
    pub fn stats(&self) -> ExtentIndexStats {
        self.stats
    }

    fn row_for(len: u64) -> usize {
        ((len - 1) as usize).min(ROWS - 1)
    }

    /// Rebuilds the index by scanning the bitmap, as the paper prescribes
    /// for initialisation and updates.
    pub fn rebuild_from(&mut self, bitmap: &Bitmap) {
        for row in &mut self.rows {
            row.clear();
        }
        for run in bitmap.free_runs() {
            self.insert_run(run);
        }
        self.stats.rebuilds += 1;
    }

    /// Indexes a free run (best effort: silently skipped if its row is
    /// full — the run remains discoverable via the bitmap).
    pub fn insert_run(&mut self, run: Extent) {
        let row = Self::row_for(run.len);
        if self.rows[row].len() < COLS {
            self.rows[row].push((run.start, run.len));
        }
    }

    /// Removes any indexed reference overlapping `extent` (used when the
    /// caller knows the entries became invalid, e.g. after a coalesce).
    pub fn remove_overlapping(&mut self, extent: Extent) {
        for row in &mut self.rows {
            row.retain(|&(start, len)| !Extent::new(start, len).overlaps(&extent));
        }
    }

    /// Allocates the head of the *lowest-addressed* indexed run of at
    /// least `len` fragments — the placement rule for file data, so a file
    /// grows next to its FIT and the low region stays dense while
    /// transients take the top ([`Self::allocate_top`]). Falls back to a
    /// bitmap first-fit scan (and records the fallback) when the index has
    /// no usable reference.
    ///
    /// On success the run is marked allocated in `bitmap` and any remainder
    /// of a split run is re-indexed. Returns `None` when no contiguous run
    /// of `len` exists on the disk at all.
    pub fn allocate(&mut self, bitmap: &mut Bitmap, len: u64) -> Option<Extent> {
        assert!(len > 0, "cannot allocate zero fragments");
        // Every row that can fit `len`, one pass each: stale entries are
        // dropped in place, the lowest usable start wins.
        let mut best: Option<(usize, usize, FragmentAddr)> = None;
        for row in Self::row_for(len)..ROWS {
            let mut i = 0;
            while i < self.rows[row].len() {
                let (start, rlen) = self.rows[row][i];
                if !bitmap.run_is_free(start, rlen) {
                    self.rows[row].swap_remove(i);
                    self.stats.stale_dropped += 1;
                    continue;
                }
                if rlen >= len && best.is_none_or(|(.., b)| start < b) {
                    best = Some((row, i, start));
                }
                i += 1;
            }
        }
        if let Some((row, i, _)) = best {
            let (start, rlen) = self.rows[row].swap_remove(i);
            let (head, rest) = Extent::new(start, rlen).split_at(len);
            bitmap.mark_allocated(head.start, head.len);
            if let Some(rest) = rest {
                self.insert_run(rest);
            }
            self.stats.index_hits += 1;
            return Some(head);
        }
        // Index miss: scan the bitmap and rebuild the index on the way.
        self.stats.bitmap_fallbacks += 1;
        let start = bitmap.find_free_run_first_fit(len)?;
        bitmap.mark_allocated(start, len);
        self.rebuild_from(bitmap);
        Some(Extent::new(start, len))
    }

    /// Allocates `len` contiguous fragments from the *highest-addressed*
    /// usable run — the placement policy for shadow pages, indirect FIT
    /// tables and other metadata that must not fragment the low region
    /// where file data grows contiguously. (The intention log is a file:
    /// it grows from the bottom like any other.)
    pub fn allocate_top(&mut self, bitmap: &mut Bitmap, len: u64) -> Option<Extent> {
        assert!(len > 0, "cannot allocate zero fragments");
        // Find the usable run with the highest end address across all rows.
        let mut best: Option<(usize, usize, FragmentAddr, u64)> = None;
        for (row, entries) in self.rows.iter().enumerate() {
            for (col, &(start, rlen)) in entries.iter().enumerate() {
                if rlen >= len && bitmap.run_is_free(start, rlen) {
                    let better = match best {
                        Some((_, _, bstart, blen)) => start + rlen > bstart + blen,
                        None => true,
                    };
                    if better {
                        best = Some((row, col, start, rlen));
                    }
                }
            }
        }
        if let Some((row, col, start, rlen)) = best {
            self.rows[row].remove(col);
            let run = Extent::new(start, rlen);
            // Take the *tail* of the run.
            let tail = Extent::new(run.end() - len, len);
            bitmap.mark_allocated(tail.start, tail.len);
            if rlen > len {
                self.insert_run(Extent::new(start, rlen - len));
            }
            self.stats.index_hits += 1;
            return Some(tail);
        }
        // Fallback: bitmap scan for the last fitting run.
        self.stats.bitmap_fallbacks += 1;
        let run = bitmap
            .free_runs()
            .into_iter()
            .rev()
            .find(|r| r.len >= len)?;
        let tail = Extent::new(run.end() - len, len);
        bitmap.mark_allocated(tail.start, tail.len);
        self.rebuild_from(bitmap);
        Some(tail)
    }

    /// Frees `extent`: clears the bitmap, coalesces with free neighbours,
    /// and indexes the merged run.
    ///
    /// # Panics
    ///
    /// Panics (via the bitmap) on double free.
    pub fn free(&mut self, bitmap: &mut Bitmap, extent: Extent) {
        bitmap.mark_free(extent.start, extent.len);
        let merged = bitmap.maximal_free_run_containing(extent.start);
        // Neighbouring runs that were separately indexed are now part of
        // `merged`; drop them so the index holds the coalesced run once.
        self.remove_overlapping(merged);
        self.insert_run(merged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(total: u64) -> (Bitmap, FreeExtentArray) {
        let bm = Bitmap::new_all_free(total);
        let mut idx = FreeExtentArray::new();
        idx.rebuild_from(&bm);
        (bm, idx)
    }

    #[test]
    fn allocate_marks_bitmap_and_reindexes_remainder() {
        let (mut bm, mut idx) = setup(128);
        let run = idx.allocate(&mut bm, 4).unwrap();
        assert_eq!(run.len, 4);
        assert!(!bm.run_is_free(run.start, 1));
        // Remainder is still allocatable without fallback.
        let before = idx.stats().bitmap_fallbacks;
        let run2 = idx.allocate(&mut bm, 100).unwrap();
        assert_eq!(run2.len, 100);
        assert_eq!(idx.stats().bitmap_fallbacks, before);
    }

    #[test]
    fn exact_row_preferred_over_split() {
        let (mut bm, mut idx) = setup(64);
        // Carve the disk into a 3-run and the rest.
        let a = idx.allocate(&mut bm, 3).unwrap();
        let _b = idx.allocate(&mut bm, 10).unwrap();
        idx.free(&mut bm, a); // a 3-run exists again, adjacent to nothing? It coalesces with nothing since neighbours allocated
        let got = idx.allocate(&mut bm, 3).unwrap();
        assert_eq!(got, a, "exact-size run should be reused");
    }

    #[test]
    fn free_coalesces_neighbours() {
        let (mut bm, mut idx) = setup(64);
        let a = idx.allocate(&mut bm, 8).unwrap();
        let b = idx.allocate(&mut bm, 8).unwrap();
        let c = idx.allocate(&mut bm, 8).unwrap();
        assert_eq!(b.start, a.end());
        assert_eq!(c.start, b.end());
        idx.free(&mut bm, a);
        idx.free(&mut bm, c);
        idx.free(&mut bm, b);
        // All 64 fragments are one run again.
        assert_eq!(bm.free_runs(), vec![Extent::new(0, 64)]);
        let whole = idx.allocate(&mut bm, 64).unwrap();
        assert_eq!(whole, Extent::new(0, 64));
    }

    #[test]
    fn exhaustion_returns_none() {
        let (mut bm, mut idx) = setup(16);
        assert!(idx.allocate(&mut bm, 16).is_some());
        assert!(idx.allocate(&mut bm, 1).is_none());
    }

    #[test]
    fn fragmented_disk_cannot_satisfy_large_contiguous_request() {
        let (mut bm, mut idx) = setup(32);
        // Allocate everything as 2-fragment runs, free every other one.
        let runs: Vec<Extent> = (0..16).map(|_| idx.allocate(&mut bm, 2).unwrap()).collect();
        for (i, run) in runs.iter().enumerate() {
            if i % 2 == 0 {
                idx.free(&mut bm, *run);
            }
        }
        assert_eq!(bm.free_fragments(), 16);
        assert!(idx.allocate(&mut bm, 4).is_none());
        assert!(idx.allocate(&mut bm, 2).is_some());
    }

    #[test]
    fn long_runs_live_in_last_row() {
        let (mut bm, mut idx) = setup(1000);
        // Whole-disk run (1000 > 64) must be allocatable via the index.
        let before = idx.stats().bitmap_fallbacks;
        let run = idx.allocate(&mut bm, 500).unwrap();
        assert_eq!(run.len, 500);
        assert_eq!(idx.stats().bitmap_fallbacks, before);
    }

    #[test]
    fn stale_entries_are_dropped_not_double_allocated() {
        let (mut bm, mut idx) = setup(64);
        // Make the index stale: allocate through the bitmap directly.
        bm.mark_allocated(0, 64);
        assert!(idx.allocate(&mut bm, 4).is_none());
        assert!(idx.stats().stale_dropped > 0 || idx.stats().bitmap_fallbacks > 0);
    }
}

#[cfg(test)]
mod top_allocation_tests {
    use super::*;

    #[test]
    fn top_allocations_come_from_the_high_end() {
        let mut bm = Bitmap::new_all_free(256);
        let mut idx = FreeExtentArray::new();
        idx.rebuild_from(&bm);
        let low = idx.allocate(&mut bm, 8).unwrap();
        let high = idx.allocate_top(&mut bm, 8).unwrap();
        assert_eq!(low.start, 0, "head allocation from the low end");
        assert_eq!(high.end(), 256, "top allocation from the high end");
        // The regions approach each other but never collide.
        let mid_low = idx.allocate(&mut bm, 4).unwrap();
        let mid_high = idx.allocate_top(&mut bm, 4).unwrap();
        assert!(mid_low.end() <= mid_high.start);
    }

    #[test]
    fn allocate_takes_the_lowest_fitting_run_over_a_higher_exact_hole() {
        let mut bm = Bitmap::new_all_free(256);
        let mut idx = FreeExtentArray::new();
        idx.rebuild_from(&bm);
        // A file's first run at the bottom; four shadow blocks at the top,
        // and a fragment of metadata below them.
        let file = idx.allocate(&mut bm, 5).unwrap();
        let shadows: Vec<Extent> = (0..4)
            .map(|_| idx.allocate_top(&mut bm, 4).unwrap())
            .collect();
        assert_eq!(idx.allocate_top(&mut bm, 1).unwrap().start, 239);
        // Freed, the shadows leave an exact 16-fragment hole at the top.
        for s in shadows {
            idx.free(&mut bm, s);
        }
        assert_eq!(
            bm.free_runs(),
            vec![Extent::new(5, 234), Extent::new(240, 16)]
        );
        // The file grows next to itself, not into the exact-size hole.
        let grown = idx.allocate(&mut bm, 16).unwrap();
        assert_eq!(grown.start, file.end());
        assert_eq!(idx.stats().bitmap_fallbacks, 0);
    }

    #[test]
    fn top_allocation_falls_back_when_index_is_stale() {
        let mut bm = Bitmap::new_all_free(64);
        let mut idx = FreeExtentArray::new();
        idx.rebuild_from(&bm);
        // Invalidate the index by allocating behind its back.
        bm.mark_allocated(32, 32);
        let e = idx.allocate_top(&mut bm, 8).unwrap();
        assert!(e.end() <= 32, "must respect the bitmap's truth");
    }

    #[test]
    fn top_allocation_exhaustion() {
        let mut bm = Bitmap::new_all_free(16);
        let mut idx = FreeExtentArray::new();
        idx.rebuild_from(&bm);
        assert!(idx.allocate_top(&mut bm, 16).is_some());
        assert!(idx.allocate_top(&mut bm, 1).is_none());
    }
}
