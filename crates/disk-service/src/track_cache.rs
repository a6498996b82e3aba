//! The disk service's own cache: track read-ahead (§4).
//!
//! "This service retrieves only those blocks/fragments from a disk track
//! which are necessary to immediately fulfill the requirement of a read
//! request. Then the disk service caches the rest of the data from the same
//! track ... in order to satisfy any subsequent requests to read data from
//! blocks/fragments pertaining to the same track."
//!
//! Fragments are held as [`BlockBuf`] views — the platter's own views of
//! the buffers they were written from — and a cache hit hands the same
//! allocation back: no per-fragment memcpy in either direction.

use rhodos_buf::BlockBuf;
use rhodos_simdisk::SECTOR_SIZE;
use std::collections::{HashMap, VecDeque};

/// Identifier of a cached track.
pub type TrackNo = u64;

/// Hit/miss counters for the track cache — measurements for **E7**.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrackCacheStats {
    /// Fragments served from the cache.
    pub fragment_hits: u64,
    /// Fragments that had to come from the disk.
    pub fragment_misses: u64,
    /// Tracks evicted to make room.
    pub evictions: u64,
    /// Bytes served from the cache via memcpy (gather-assembly of
    /// fragments that live in different allocations).
    pub bytes_copied: u64,
    /// Bytes served zero-copy, as shared [`BlockBuf`] views.
    pub bytes_borrowed: u64,
}

impl TrackCacheStats {
    /// Hit ratio in `[0, 1]`; `0` when nothing was requested.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.fragment_hits + self.fragment_misses;
        if total == 0 {
            0.0
        } else {
            self.fragment_hits as f64 / total as f64
        }
    }

    /// [`Self::hit_ratio`] as a percentage, for report tables.
    pub fn hit_rate(&self) -> f64 {
        self.hit_ratio() * 100.0
    }
}

/// An LRU cache of whole tracks, holding per-fragment [`BlockBuf`] slots
/// so a track can be partially populated (the requested fragments
/// immediately, the rest by read-ahead).
///
/// # Example
///
/// ```
/// use rhodos_disk_service::TrackCache;
///
/// let mut cache = TrackCache::new(4, 32);
/// assert!(cache.lookup_fragment(0, 3).is_none());
/// cache.fill_fragment(0, 3, vec![9u8; 2048]);
/// assert!(cache.lookup_fragment(0, 3).is_some());
/// ```
#[derive(Debug)]
pub struct TrackCache {
    capacity_tracks: usize,
    sectors_per_track: u64,
    tracks: HashMap<TrackNo, TrackEntry>,
    lru: VecDeque<TrackNo>,
    stats: TrackCacheStats,
}

#[derive(Debug)]
struct TrackEntry {
    /// One slot per sector of the track; fragments of one read-ahead all
    /// point into the same transfer allocation.
    slots: Vec<Option<BlockBuf>>,
}

impl TrackCache {
    /// Creates a cache holding up to `capacity_tracks` tracks of
    /// `sectors_per_track` fragments each.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(capacity_tracks: usize, sectors_per_track: u64) -> Self {
        assert!(capacity_tracks > 0, "cache needs capacity for one track");
        assert!(
            sectors_per_track > 0,
            "tracks must hold at least one sector"
        );
        Self {
            capacity_tracks,
            sectors_per_track,
            tracks: HashMap::new(),
            lru: VecDeque::new(),
            stats: TrackCacheStats::default(),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> TrackCacheStats {
        self.stats
    }

    /// Makes `track` the most recent. A run of fragments on one track —
    /// a read-ahead fills up to a track's worth — pays for the reorder
    /// once, not per fragment.
    fn touch(&mut self, track: TrackNo) {
        if self.lru.back() == Some(&track) {
            return;
        }
        self.lru.retain(|&t| t != track);
        self.lru.push_back(track);
    }

    fn evict_if_needed(&mut self) {
        while self.tracks.len() > self.capacity_tracks {
            if let Some(old) = self.lru.pop_front() {
                self.tracks.remove(&old);
                self.stats.evictions += 1;
            } else {
                break;
            }
        }
    }

    /// Looks up one fragment (`slot` within `track`). Records a hit or a
    /// miss. A hit is a zero-copy handle to the cached bytes.
    pub fn lookup_fragment(&mut self, track: TrackNo, slot: u64) -> Option<BlockBuf> {
        assert!(slot < self.sectors_per_track, "slot beyond track");
        let hit = self
            .tracks
            .get(&track)
            .and_then(|e| e.slots[slot as usize].clone());
        match hit {
            Some(data) => {
                self.stats.fragment_hits += 1;
                self.stats.bytes_borrowed += data.len() as u64;
                self.touch(track);
                Some(data)
            }
            None => {
                self.stats.fragment_misses += 1;
                None
            }
        }
    }

    /// Whether a fragment is resident without recording a hit/miss (used by
    /// the service to decide what it must fetch).
    pub fn peek_fragment(&self, track: TrackNo, slot: u64) -> bool {
        self.tracks
            .get(&track)
            .is_some_and(|e| e.slots[slot as usize].is_some())
    }

    /// Installs one fragment of data into the cache. Storing a slice of a
    /// transfer buffer shares the allocation — no copy.
    pub fn fill_fragment(&mut self, track: TrackNo, slot: u64, data: impl Into<BlockBuf>) {
        let data = data.into();
        assert_eq!(data.len(), SECTOR_SIZE, "fragment must be sector sized");
        assert!(slot < self.sectors_per_track, "slot beyond track");
        let spt = self.sectors_per_track as usize;
        let entry = self.tracks.entry(track).or_insert_with(|| TrackEntry {
            slots: vec![None; spt],
        });
        entry.slots[slot as usize] = Some(data);
        self.touch(track);
        self.evict_if_needed();
    }

    /// Records bytes the service had to memcpy while assembling a reply
    /// from cached fragments (kept here so copy traffic is reported next
    /// to the hit ratio it undermines).
    pub fn note_copied(&mut self, bytes: u64) {
        self.stats.bytes_copied += bytes;
    }

    /// Drops a fragment from the cache (after a free, or on a write in
    /// invalidate mode).
    pub fn invalidate_fragment(&mut self, track: TrackNo, slot: u64) {
        if let Some(e) = self.tracks.get_mut(&track) {
            e.slots[slot as usize] = None;
        }
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.tracks.clear();
        self.lru.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frag(b: u8) -> Vec<u8> {
        vec![b; SECTOR_SIZE]
    }

    #[test]
    fn miss_then_hit() {
        let mut c = TrackCache::new(2, 8);
        assert!(c.lookup_fragment(1, 0).is_none());
        c.fill_fragment(1, 0, frag(7));
        assert_eq!(c.lookup_fragment(1, 0).unwrap(), frag(7));
        assert_eq!(c.stats().fragment_hits, 1);
        assert_eq!(c.stats().fragment_misses, 1);
    }

    #[test]
    fn partial_track_validity() {
        let mut c = TrackCache::new(2, 8);
        c.fill_fragment(0, 3, frag(1));
        assert!(c.peek_fragment(0, 3));
        assert!(!c.peek_fragment(0, 4));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = TrackCache::new(2, 4);
        c.fill_fragment(0, 0, frag(0));
        c.fill_fragment(1, 0, frag(1));
        // Touch track 0 so track 1 is LRU.
        c.lookup_fragment(0, 0);
        c.fill_fragment(2, 0, frag(2));
        assert!(c.peek_fragment(0, 0));
        assert!(!c.peek_fragment(1, 0));
        assert!(c.peek_fragment(2, 0));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidate_removes_single_fragment() {
        let mut c = TrackCache::new(2, 4);
        c.fill_fragment(0, 0, frag(1));
        c.fill_fragment(0, 1, frag(2));
        c.invalidate_fragment(0, 0);
        assert!(!c.peek_fragment(0, 0));
        assert!(c.peek_fragment(0, 1));
    }

    #[test]
    fn hit_ratio_math() {
        let mut c = TrackCache::new(1, 4);
        c.fill_fragment(0, 0, frag(1));
        c.lookup_fragment(0, 0);
        c.lookup_fragment(0, 1);
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn hits_share_the_fill_allocation() {
        let mut c = TrackCache::new(1, 8);
        // One "transfer" allocation sliced into two fragments, as the
        // read-ahead path does.
        let transfer = BlockBuf::from(vec![3u8; 2 * SECTOR_SIZE]);
        c.fill_fragment(0, 0, transfer.slice(0..SECTOR_SIZE));
        c.fill_fragment(0, 1, transfer.slice(SECTOR_SIZE..2 * SECTOR_SIZE));
        let a = c.lookup_fragment(0, 0).unwrap();
        let b = c.lookup_fragment(0, 1).unwrap();
        // Adjacent slices of one allocation reassemble without copying.
        assert!(BlockBuf::try_concat(&[a, b]).is_some());
        assert_eq!(c.stats().bytes_borrowed, 2 * SECTOR_SIZE as u64);
        assert_eq!(c.stats().bytes_copied, 0);
    }
}
