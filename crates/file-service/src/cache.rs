//! The file service's block cache (§5).
//!
//! "We propose for RHODOS a caching system based on the main memory of the
//! client and file service. The objective ... is to reduce the cost of
//! accessing data by storing recently-used blocks in local memory ... and
//! reusing them when they are valid." Space comes from a bounded *block
//! pool*; the modification policy is *delayed-write* ("the delayed-write
//! together with write-through policies are adapted to save modifications
//! made to data cached by the file service"). A committed transactional
//! record lands in the pool as a dirty block like any delayed write: the
//! intention log, not the platter, is what makes it durable.
//!
//! Blocks are held as [`BlockBuf`] handles: a cache hit hands back a
//! shared view (a refcount bump, no memcpy), and flushing a dirty block
//! clones the handle rather than the bytes. Mutation goes through
//! [`BlockCache::get_mut`], which copies-on-write only when the block is
//! still shared with a reader.

use crate::attrs::FileId;
use parking_lot::Mutex;
use rhodos_buf::BlockBuf;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// When modified blocks are pushed down to the disk service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WritePolicy {
    /// Keep dirty blocks in the pool; write them on eviction or flush.
    /// Fewer disk references, wider loss window on a crash.
    #[default]
    DelayedWrite,
    /// Propagate every modification immediately.
    WriteThrough,
}

/// Hit/miss/write-back counters — measurements for experiments E8/E15.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Block lookups served from the pool.
    pub hits: u64,
    /// Block lookups that missed.
    pub misses: u64,
    /// Dirty blocks written back (eviction or flush).
    pub writebacks: u64,
    /// Blocks evicted clean.
    pub clean_evictions: u64,
    /// Bytes memcpy'd to serve or mutate cached data (copy-on-write
    /// detaches of blocks still shared with a reader).
    pub bytes_copied: u64,
    /// Bytes served zero-copy, as shared [`BlockBuf`] handles.
    pub bytes_borrowed: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Hit rate as a percentage in `[0, 100]`; 0 when nothing was looked
    /// up. The form the experiment tables report.
    pub fn hit_rate(&self) -> f64 {
        self.hit_ratio() * 100.0
    }

    /// Accumulates `other` into `self`, field by field. Lossless: merging
    /// per-shard (or per-server) stats yields exactly the counters an
    /// unsharded pool would have recorded for the same traffic.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.writebacks += other.writebacks;
        self.clean_evictions += other.clean_evictions;
        self.bytes_copied += other.bytes_copied;
        self.bytes_borrowed += other.bytes_borrowed;
    }
}

/// Key of a cached block: (file, logical block index).
pub type BlockKey = (FileId, u64);

/// Blocks, their LRU order and their counters, without a capacity: the
/// owner — a [`BlockCache`], or a [`ShardedBlockCache`] running one LRU
/// over many segments — keeps the capacity and the clock every touch is
/// stamped with, so each method that touches a block takes its tick.
#[derive(Debug, Default)]
struct Segment {
    blocks: HashMap<BlockKey, CachedBlock>,
    /// Lazy LRU queue: every touch appends `(key, tick)`; an entry is
    /// authoritative only if its tick matches the block's `touched`.
    /// Stale entries are purged by periodic compaction, so a touch is
    /// O(1) amortised instead of an O(pool) scan — cache hits are on the
    /// zero-copy fast path. Ticks grow, so the queue is in tick order,
    /// and the entry in front is always live: it is the least recently
    /// used block.
    lru: VecDeque<(BlockKey, u64)>,
    stats: CacheStats,
}

#[derive(Debug)]
struct CachedBlock {
    data: BlockBuf,
    dirty: bool,
    /// Tick of this block's most recent touch (see `Segment::lru`).
    touched: u64,
}

impl Segment {
    fn touch(&mut self, key: BlockKey, tick: u64) {
        if let Some(b) = self.blocks.get_mut(&key) {
            b.touched = tick;
        }
        self.push_touch(key, tick);
    }

    /// Queues a touch. Bounds the queue: when stale entries dominate, they
    /// all go at once. Amortised O(1) per touch.
    fn push_touch(&mut self, key: BlockKey, tick: u64) {
        self.lru.push_back((key, tick));
        if self.lru.len() > (self.blocks.len() + 1) * 4 {
            let blocks = &self.blocks;
            self.lru
                .retain(|(k, t)| blocks.get(k).is_some_and(|b| b.touched == *t));
        } else if self.lru.front().is_some_and(|(k, _)| *k == key) {
            // The least recently used block was touched: its entry in
            // front went stale.
            self.settle_front();
        }
    }

    /// Drops the stale entries in front of the least recently used
    /// block's.
    fn settle_front(&mut self) {
        while let Some((key, tick)) = self.lru.front() {
            if self.blocks.get(key).is_some_and(|b| b.touched == *tick) {
                return;
            }
            self.lru.pop_front();
        }
    }

    /// The hit path folds the LRU touch into the single map lookup (one
    /// hash of the key, not two) — this is the hottest operation in the
    /// system.
    #[inline]
    fn get(&mut self, key: &BlockKey, tick: u64) -> Option<BlockBuf> {
        let Some(b) = self.blocks.get_mut(key) else {
            self.stats.misses += 1;
            return None;
        };
        b.touched = tick;
        let data = b.data.clone();
        self.stats.hits += 1;
        self.stats.bytes_borrowed += data.len() as u64;
        self.push_touch(*key, tick);
        Some(data)
    }

    fn peek(&self, key: &BlockKey) -> Option<BlockBuf> {
        self.blocks.get(key).map(|b| b.data.clone())
    }

    /// Inserts (or overwrites) a block; returns whether it is new.
    fn insert(&mut self, key: BlockKey, data: BlockBuf, dirty: bool, tick: u64) -> bool {
        let block = CachedBlock {
            data,
            dirty,
            touched: 0,
        };
        let old = self.blocks.insert(key, block);
        // Dirtiness is sticky: overwriting a dirty block with clean data
        // still leaves un-persisted contents that need a write-back.
        if old.as_ref().is_some_and(|b| b.dirty) {
            self.mark_dirty(&key);
        }
        self.touch(key, tick);
        old.is_none()
    }

    fn mark_dirty(&mut self, key: &BlockKey) {
        if let Some(b) = self.blocks.get_mut(key) {
            b.dirty = true;
        }
    }

    /// See [`BlockCache::restore_dirty`].
    fn restore_dirty(&mut self, key: BlockKey, data: BlockBuf, tick: u64) {
        if let Some(b) = self.blocks.get_mut(&key) {
            b.dirty = true;
            return;
        }
        let block = CachedBlock {
            data,
            dirty: true,
            touched: 0,
        };
        self.blocks.insert(key, block);
        self.touch(key, tick);
    }

    fn get_mut(&mut self, key: &BlockKey, tick: u64) -> Option<&mut [u8]> {
        if !self.blocks.contains_key(key) {
            self.stats.misses += 1;
            return None;
        }
        self.stats.hits += 1;
        self.touch(*key, tick);
        let b = self.blocks.get_mut(key).expect("checked resident");
        if b.data.is_shared() {
            self.stats.bytes_copied += b.data.len() as u64;
        }
        Some(b.data.make_mut())
    }

    /// Tick of the least recently used block; `u64::MAX` when nothing is
    /// resident.
    fn oldest(&self) -> u64 {
        self.lru.front().map_or(u64::MAX, |&(_, tick)| tick)
    }

    /// Evicts the least recently used block, handing it to `out` if it is
    /// dirty. Returns whether there was one.
    fn evict_oldest(&mut self, out: &mut Vec<(BlockKey, BlockBuf)>) -> bool {
        let Some((victim, _)) = self.lru.pop_front() else {
            return false;
        };
        let block = self
            .blocks
            .remove(&victim)
            .expect("the front entry is live");
        if block.dirty {
            self.stats.writebacks += 1;
            out.push((victim, block.data));
        } else {
            self.stats.clean_evictions += 1;
        }
        self.settle_front();
        true
    }

    /// The dirty blocks — of `fid` only, when given — in key order, now
    /// clean in the pool; the handles share the pool's allocations.
    fn take_dirty(&mut self, fid: Option<FileId>) -> Vec<(BlockKey, BlockBuf)> {
        let mut out = Vec::new();
        for (k, b) in self.blocks.iter_mut() {
            if b.dirty && fid.is_none_or(|f| k.0 == f) {
                b.dirty = false;
                self.stats.writebacks += 1;
                out.push((*k, b.data.clone()));
            }
        }
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// The tick of the least recently used clean block, if it is below
    /// `bound`; else `bound`. Walks the queue from the front, so it
    /// visits only the entries older than the answer.
    fn clean_bound(&self, bound: u64) -> u64 {
        let blocks = &self.blocks;
        for (k, t) in self.lru.iter().take_while(|(_, t)| *t < bound) {
            if blocks.get(k).is_some_and(|b| b.touched == *t && !b.dirty) {
                return *t;
            }
        }
        bound
    }

    /// The dirty blocks of `fids` last touched below `bound`, in tick
    /// order, now clean in the pool.
    fn take_dirty_below(&mut self, fids: &[FileId], bound: u64) -> Vec<(BlockKey, BlockBuf)> {
        let (blocks, mut out) = (&mut self.blocks, Vec::new());
        for (k, t) in self.lru.iter().take_while(|(_, t)| *t < bound) {
            let live = blocks.get_mut(k).filter(|b| b.touched == *t && b.dirty);
            if let Some(b) = live.filter(|_| fids.contains(&k.0)) {
                b.dirty = false;
                self.stats.writebacks += 1;
                out.push((*k, b.data.clone()));
            }
        }
        out
    }

    fn dirty_blocks(&self) -> usize {
        self.blocks.values().filter(|b| b.dirty).count()
    }

    /// Drops one block; returns whether it was resident.
    fn invalidate(&mut self, key: &BlockKey) -> bool {
        let resident = self.blocks.remove(key).is_some();
        self.settle_front();
        resident
    }

    /// Drops every block of `fid`; returns how many there were.
    fn invalidate_file(&mut self, fid: FileId) -> usize {
        let before = self.blocks.len();
        self.blocks.retain(|k, _| k.0 != fid);
        self.lru.retain(|(k, _)| k.0 != fid);
        self.settle_front();
        before - self.blocks.len()
    }
}

/// A bounded LRU pool of file blocks with dirty tracking.
///
/// The pool does not perform I/O itself: [`BlockCache::insert`] hands
/// evicted dirty blocks back to the caller (the file service), which owns
/// the disk services. This keeps the cache purely a data structure and
/// the I/O paths explicit.
///
/// # Example
///
/// ```
/// use rhodos_file_service::{BlockCache, FileId};
///
/// let mut cache = BlockCache::new(2);
/// cache.insert((FileId(1), 0), vec![1; 8192], false);
/// assert!(cache.get(&(FileId(1), 0)).is_some());
/// assert!(cache.get(&(FileId(1), 9)).is_none());
/// ```
#[derive(Debug)]
pub struct BlockCache {
    capacity: usize,
    tick: u64,
    seg: Segment,
}

impl BlockCache {
    /// Creates a pool holding up to `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — use the service's no-cache
    /// configuration instead of a zero-sized pool.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "block pool needs capacity for one block");
        Self {
            capacity,
            tick: 0,
            seg: Segment::default(),
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.seg.stats
    }

    /// Number of blocks resident.
    pub fn len(&self) -> usize {
        self.seg.blocks.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.seg.blocks.is_empty()
    }

    /// Looks up a block, recording a hit or miss. A hit is a shared
    /// handle to the cached bytes — no copy.
    #[inline]
    pub fn get(&mut self, key: &BlockKey) -> Option<BlockBuf> {
        let tick = self.next_tick();
        self.seg.get(key, tick)
    }

    /// Whether a block is resident, without recording a hit/miss.
    pub fn contains(&self, key: &BlockKey) -> bool {
        self.seg.blocks.contains_key(key)
    }

    /// A shared handle to a resident block without recording a hit/miss
    /// or touching the LRU state. The scrubber repairs damaged on-disk
    /// blocks from the pool through this, so background repair does not
    /// skew the cache-behaviour counters the experiments report.
    pub fn peek(&self, key: &BlockKey) -> Option<BlockBuf> {
        self.seg.peek(key)
    }

    /// Inserts (or overwrites) a block; storing a shared handle costs no
    /// copy. Returns the evicted dirty blocks `(key, data)` the caller
    /// must write back.
    #[must_use = "evicted dirty blocks must be written back"]
    pub fn insert(
        &mut self,
        key: BlockKey,
        data: impl Into<BlockBuf>,
        dirty: bool,
    ) -> Vec<(BlockKey, BlockBuf)> {
        let tick = self.next_tick();
        self.seg.insert(key, data.into(), dirty, tick);
        let mut out = Vec::new();
        while self.seg.blocks.len() > self.capacity && self.seg.evict_oldest(&mut out) {}
        out
    }

    /// Marks a resident block dirty (after an in-place mutation via
    /// [`Self::get_mut`]).
    pub fn mark_dirty(&mut self, key: &BlockKey) {
        self.seg.mark_dirty(key);
    }

    /// Puts back, dirty, a block whose write-back failed. A resident
    /// block is only marked dirty — it is that version or a newer one. An
    /// evicted block returns without evicting anything: the pool stays
    /// over capacity until the next [`Self::insert`] trims it, so a
    /// failed write-back cannot cascade into further ones.
    pub fn restore_dirty(&mut self, key: BlockKey, data: BlockBuf) {
        let tick = self.next_tick();
        self.seg.restore_dirty(key, data, tick);
    }

    /// Mutable access to a resident block's bytes (counts as a hit).
    /// Copies-on-write only if the block is still shared with a reader or
    /// another cache level; exclusively-owned blocks mutate in place.
    pub fn get_mut(&mut self, key: &BlockKey) -> Option<&mut [u8]> {
        let tick = self.next_tick();
        self.seg.get_mut(key, tick)
    }

    /// Removes and returns all dirty blocks (flush); they become clean in
    /// the caller's hands. Blocks stay resident but marked clean; the
    /// returned handles share the pool's allocations.
    #[must_use = "flushed dirty blocks must be written back"]
    pub fn take_dirty(&mut self) -> Vec<(BlockKey, BlockBuf)> {
        self.seg.take_dirty(None)
    }

    /// Like [`Self::take_dirty`] but limited to one file.
    #[must_use = "flushed dirty blocks must be written back"]
    pub fn take_dirty_for(&mut self, fid: FileId) -> Vec<(BlockKey, BlockBuf)> {
        self.seg.take_dirty(Some(fid))
    }

    /// Count of dirty blocks currently resident (the crash-loss window of
    /// experiment E15).
    pub fn dirty_blocks(&self) -> usize {
        self.seg.dirty_blocks()
    }

    /// Drops every block of `fid` (delete / truncate), discarding dirty
    /// data deliberately.
    pub fn invalidate_file(&mut self, fid: FileId) {
        self.seg.invalidate_file(fid);
    }
}

/// A block pool striped into segments, each behind its own mutex, so
/// concurrent lookups of different blocks never contend on a shared lock
/// (E20) — and still one LRU of `capacity` blocks.
///
/// Each key maps to exactly one shard by hash, so the sharding is
/// transparent to callers: a block is resident in at most one place and
/// per-shard [`CacheStats`] merge losslessly into the totals. Capacity,
/// the resident count and the clock that stamps every touch belong to
/// the pool, and an eviction takes the least recently used block of the
/// whole pool — so the shard count changes locking only: which blocks
/// are resident, what is evicted, and in what order, are those of a
/// one-shard pool, and a skewed key distribution cannot fill one shard
/// early. (Eight LRUs of twelve blocks miss about a sixth more than one
/// of 96 under E20's Zipf load, and scatter `agent-stream`'s evictions
/// over the platter.)
///
/// A lookup or an insert that leaves the pool within capacity locks one
/// shard. So does an eviction: each shard publishes the tick of its
/// least recently used block in a word of its own, and the eviction
/// reads those words and locks the shard with the oldest. No visit holds
/// two shard guards, so no lock-ordering deadlock is possible.
#[derive(Debug)]
pub struct ShardedBlockCache {
    capacity: usize,
    shards: Vec<Mutex<Segment>>,
    /// Per shard, the tick of its least recently used block (`u64::MAX`
    /// for none), written under the shard's lock whenever that changes.
    /// Read without the lock, as a hint the eviction checks under it.
    heads: Vec<AtomicU64>,
    /// The clock every touch is stamped with, read under the touched
    /// shard's lock so each shard's queue stays in tick order.
    tick: AtomicU64,
    /// Blocks resident across all shards.
    resident: AtomicUsize,
}

// Every atomic here is a counter or a hint that publishes no other data:
// blocks are only ever reached through their shard's mutex. `Relaxed`
// throughout.
impl ShardedBlockCache {
    /// Creates a pool of `capacity` total blocks striped over `shards`
    /// segments. `shards` is clamped to `[1, capacity]`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — use the service's no-cache
    /// configuration instead of a zero-sized pool.
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "block pool needs capacity for one block");
        let shards = shards.clamp(1, capacity);
        Self {
            capacity,
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            heads: (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            tick: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
        }
    }

    /// Number of shards the pool is striped over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key maps to. Stable for the lifetime of the pool;
    /// exposed so the load generator can model which lock word an access
    /// touches.
    #[inline]
    pub fn shard_of(&self, key: &BlockKey) -> usize {
        // splitmix64 finalizer over (fid, block): cheap, and spreads the
        // low-entropy sequential block indices workloads actually use.
        let mut x = (key.0).0 ^ key.1.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        // Multiply-shift range reduction: uniform over the shard count
        // without the hardware divide a `%` costs on every block access.
        ((x as u128 * self.shards.len() as u128) >> 64) as usize
    }

    /// Runs `op` on shard `i` under its lock and publishes the shard's
    /// least recently used block if `op` changed it.
    #[inline]
    fn on_shard<R>(&self, i: usize, op: impl FnOnce(&mut Segment) -> R) -> R {
        let mut shard = self.shards[i].lock();
        let oldest = shard.oldest();
        let out = op(&mut shard);
        if shard.oldest() != oldest {
            self.heads[i].store(shard.oldest(), Relaxed);
        }
        out
    }

    /// The next tick, taken while the touched shard is locked.
    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Relaxed) + 1
    }

    /// Looks up a block, recording a hit or miss on its shard.
    #[inline]
    pub fn get(&self, key: &BlockKey) -> Option<BlockBuf> {
        self.on_shard(self.shard_of(key), |s| s.get(key, self.next_tick()))
    }

    /// Whether a block is resident, without recording a hit/miss.
    pub fn contains(&self, key: &BlockKey) -> bool {
        self.shards[self.shard_of(key)]
            .lock()
            .blocks
            .contains_key(key)
    }

    /// A shared handle to a resident block without touching stats or LRU
    /// state (see [`BlockCache::peek`]).
    pub fn peek(&self, key: &BlockKey) -> Option<BlockBuf> {
        self.shards[self.shard_of(key)].lock().peek(key)
    }

    /// Inserts (or overwrites) a block in its shard. Returns the evicted
    /// dirty blocks the caller must write back.
    #[must_use = "evicted dirty blocks must be written back"]
    pub fn insert(
        &self,
        key: BlockKey,
        data: impl Into<BlockBuf>,
        dirty: bool,
    ) -> Vec<(BlockKey, BlockBuf)> {
        let data = data.into();
        let i = self.shard_of(&key);
        if self.on_shard(i, |s| s.insert(key, data, dirty, self.next_tick())) {
            self.resident.fetch_add(1, Relaxed);
        }
        let mut out = Vec::new();
        while self.resident.load(Relaxed) > self.capacity {
            // The shard holding the oldest block, and the next oldest of
            // the others: the hint holds if that shard's block is still
            // the older one once its lock is held.
            let (mut oldest, mut first, mut second) = (0, u64::MAX, u64::MAX);
            for (j, head) in self.heads.iter().enumerate() {
                let head = head.load(Relaxed);
                if head < first {
                    (oldest, first, second) = (j, head, first);
                } else {
                    second = second.min(head);
                }
            }
            if first == u64::MAX {
                break;
            }
            let evicted =
                self.on_shard(oldest, |s| s.oldest() <= second && s.evict_oldest(&mut out));
            if evicted {
                self.resident.fetch_sub(1, Relaxed);
            }
        }
        out
    }

    /// Marks a resident block dirty.
    pub fn mark_dirty(&self, key: &BlockKey) {
        self.shards[self.shard_of(key)].lock().mark_dirty(key);
    }

    /// Flushes every shard's dirty blocks — of `fid` only, when given;
    /// the union is sorted by key so write-back batches stay
    /// elevator-ordered like a one-shard pool's.
    fn take_dirty_of(&self, fid: Option<FileId>) -> Vec<(BlockKey, BlockBuf)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().take_dirty(fid));
        }
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Flushes every shard's dirty blocks, sorted by key.
    #[must_use = "flushed dirty blocks must be written back"]
    pub fn take_dirty(&self) -> Vec<(BlockKey, BlockBuf)> {
        self.take_dirty_of(None)
    }

    /// Like [`Self::take_dirty`] but limited to one file.
    #[must_use = "flushed dirty blocks must be written back"]
    pub fn take_dirty_for(&self, fid: FileId) -> Vec<(BlockKey, BlockBuf)> {
        self.take_dirty_of(Some(fid))
    }

    /// The pool's clock: the tick of the latest touch. Every later touch
    /// is stamped above it.
    pub fn clock(&self) -> u64 {
        self.tick.load(Relaxed)
    }

    /// Write-behind for a read that began at pool clock `began` and
    /// evicted dirty blocks of `fids`: the dirty blocks of those files
    /// that the LRU would write back before it next evicts a clean block
    /// — last touched below the least recently used clean block — and
    /// that the read itself did not touch (at or before `began`). They
    /// stay resident, now clean, and are returned sorted by key.
    ///
    /// Two passes over each shard's queue, front first, one shard locked
    /// at a time: the first finds the bound — global, so the shard count
    /// does not change which blocks go — and the second takes the blocks
    /// below it. No shard changes under the passes in a way that matters:
    /// only the file service dirties, cleans or evicts a block, and it is
    /// the caller; a concurrent hit stamps its block above `began`, so at
    /// worst it takes that block out of the set.
    #[must_use = "write-behind blocks must be written back"]
    pub fn take_write_behind(&self, fids: &[FileId], began: u64) -> Vec<(BlockKey, BlockBuf)> {
        let bound = (self.shards.iter()).fold(began + 1, |b, s| s.lock().clean_bound(b));
        let mut out: Vec<_> = (self.shards.iter())
            .flat_map(|s| s.lock().take_dirty_below(fids, bound))
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Count of dirty blocks resident across all shards.
    pub fn dirty_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.lock().dirty_blocks()).sum()
    }

    /// Drops one block, discarding dirty data deliberately: what replaced
    /// it on the platter is newer.
    pub fn invalidate(&self, key: &BlockKey) {
        if self.on_shard(self.shard_of(key), |s| s.invalidate(key)) {
            self.resident.fetch_sub(1, Relaxed);
        }
    }

    /// Drops every block of `fid` from every shard, discarding dirty
    /// data deliberately.
    pub fn invalidate_file(&self, fid: FileId) {
        for i in 0..self.shards.len() {
            let dropped = self.on_shard(i, |s| s.invalidate_file(fid));
            self.resident.fetch_sub(dropped, Relaxed);
        }
    }

    /// Empties the pool as a restart finds it — no block, no count, the
    /// clock at zero — discarding dirty data, in place, so every handle
    /// to it stays valid.
    pub fn clear(&self) {
        for (shard, head) in self.shards.iter().zip(&self.heads) {
            *shard.lock() = Segment::default();
            head.store(u64::MAX, Relaxed);
        }
        self.tick.store(0, Relaxed);
        self.resident.store(0, Relaxed);
    }

    /// Merged statistics across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.merge(&shard.lock().stats);
        }
        total
    }

    /// Per-shard statistics, indexed by shard.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(|s| s.lock().stats).collect()
    }

    /// Number of blocks resident across all shards.
    pub fn len(&self) -> usize {
        self.resident.load(Relaxed)
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks the pool can take before an insert evicts.
    pub fn free_slots(&self) -> usize {
        self.capacity.saturating_sub(self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(b: u8) -> Vec<u8> {
        vec![b; 16]
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut c = BlockCache::new(4);
        assert!(c.get(&(FileId(1), 0)).is_none());
        let ev = c.insert((FileId(1), 0), blk(1), false);
        assert!(ev.is_empty());
        assert!(c.get(&(FileId(1), 0)).is_some());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn eviction_returns_dirty_blocks_only() {
        let mut c = BlockCache::new(2);
        assert!(c.insert((FileId(1), 0), blk(1), true).is_empty());
        assert!(c.insert((FileId(1), 1), blk(2), false).is_empty());
        let evicted = c.insert((FileId(1), 2), blk(3), false);
        // LRU victim is (1,0), which is dirty.
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, (FileId(1), 0));
        let evicted2 = c.insert((FileId(1), 3), blk(4), false);
        assert!(evicted2.is_empty()); // (1,1) clean
        assert_eq!(c.stats().clean_evictions, 1);
    }

    #[test]
    fn take_dirty_clears_dirty_bits() {
        let mut c = BlockCache::new(4);
        let _ = c.insert((FileId(1), 0), blk(1), true);
        let _ = c.insert((FileId(2), 0), blk(2), true);
        assert_eq!(c.dirty_blocks(), 2);
        let flushed = c.take_dirty();
        assert_eq!(flushed.len(), 2);
        assert_eq!(c.dirty_blocks(), 0);
        assert!(c.take_dirty().is_empty());
        // Blocks are still resident after flush.
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn take_dirty_for_scopes_to_file() {
        let mut c = BlockCache::new(4);
        let _ = c.insert((FileId(1), 0), blk(1), true);
        let _ = c.insert((FileId(2), 0), blk(2), true);
        let flushed = c.take_dirty_for(FileId(1));
        assert_eq!(flushed.len(), 1);
        assert_eq!(c.dirty_blocks(), 1);
    }

    #[test]
    fn overwrite_keeps_dirtiness_sticky() {
        let mut c = BlockCache::new(4);
        let _ = c.insert((FileId(1), 0), blk(1), true);
        let _ = c.insert((FileId(1), 0), blk(2), false);
        // A dirty block overwritten with clean data still needs a
        // write-back of the new contents.
        assert_eq!(c.dirty_blocks(), 1);
    }

    #[test]
    fn invalidate_file_discards_blocks() {
        let mut c = BlockCache::new(4);
        let _ = c.insert((FileId(1), 0), blk(1), true);
        let _ = c.insert((FileId(2), 0), blk(2), true);
        c.invalidate_file(FileId(1));
        assert!(!c.contains(&(FileId(1), 0)));
        assert!(c.contains(&(FileId(2), 0)));
    }

    #[test]
    fn get_mut_marks_nothing_until_told() {
        let mut c = BlockCache::new(4);
        let _ = c.insert((FileId(1), 0), blk(1), false);
        c.get_mut(&(FileId(1), 0)).unwrap()[0] = 99;
        assert_eq!(c.dirty_blocks(), 0);
        c.mark_dirty(&(FileId(1), 0));
        assert_eq!(c.dirty_blocks(), 1);
    }

    #[test]
    fn restore_dirty_evicts_nothing_and_never_replaces_a_resident_block() {
        let mut c = BlockCache::new(2);
        let _ = c.insert((FileId(1), 0), blk(1), false);
        let _ = c.insert((FileId(1), 1), blk(2), false);
        // Resident: marked dirty, contents kept.
        c.restore_dirty((FileId(1), 0), blk(9).into());
        assert_eq!(c.peek(&(FileId(1), 0)).unwrap(), blk(1));
        // Evicted: back in, over capacity, nothing pushed out.
        c.restore_dirty((FileId(2), 0), blk(3).into());
        assert_eq!((c.len(), c.dirty_blocks()), (3, 2));
        // The next insert trims the pool to its capacity again, oldest
        // first: both original blocks go, the dirty one to the caller.
        let evicted = c.insert((FileId(3), 0), blk(4), false);
        assert_eq!(c.len(), 2);
        assert_eq!(evicted, vec![((FileId(1), 0), BlockBuf::from(blk(1)))]);
    }

    #[test]
    fn hit_is_borrowed_not_copied() {
        let mut c = BlockCache::new(4);
        let _ = c.insert((FileId(1), 0), blk(5), false);
        let hit = c.get(&(FileId(1), 0)).unwrap();
        assert_eq!(hit, blk(5));
        assert_eq!(c.stats().bytes_borrowed, 16);
        assert_eq!(c.stats().bytes_copied, 0);
    }

    #[test]
    fn get_mut_copies_only_while_shared() {
        let mut c = BlockCache::new(4);
        let _ = c.insert((FileId(1), 0), blk(1), false);
        // No outstanding reader: mutation is in place.
        c.get_mut(&(FileId(1), 0)).unwrap()[0] = 2;
        assert_eq!(c.stats().bytes_copied, 0);
        // A reader holds a handle: mutation must copy-on-write.
        let reader = c.get(&(FileId(1), 0)).unwrap();
        c.get_mut(&(FileId(1), 0)).unwrap()[0] = 3;
        assert_eq!(c.stats().bytes_copied, 16);
        // The reader's view is unaffected by the mutation.
        assert_eq!(reader[0], 2);
        assert_eq!(c.get(&(FileId(1), 0)).unwrap()[0], 3);
    }

    #[test]
    fn sharded_cache_routes_each_key_to_one_shard() {
        let c = ShardedBlockCache::new(64, 8);
        assert_eq!(c.shard_count(), 8);
        for fid in 0..8u64 {
            for idx in 0..8u64 {
                let key = (FileId(fid), idx);
                let s = c.shard_of(&key);
                assert!(s < 8);
                assert_eq!(s, c.shard_of(&key), "shard mapping must be stable");
            }
        }
        // Insert spread across shards; every block stays findable.
        for fid in 0..8u64 {
            let _ = c.insert((FileId(fid), 0), blk(fid as u8), false);
        }
        for fid in 0..8u64 {
            assert!(c.contains(&(FileId(fid), 0)));
            assert_eq!(c.get(&(FileId(fid), 0)).unwrap()[0], fid as u8);
        }
        assert_eq!(c.len(), 8);
        assert_eq!(c.stats().hits, 8);
    }

    #[test]
    fn sharded_cache_clamps_shards_to_capacity() {
        let c = ShardedBlockCache::new(2, 16);
        assert_eq!(c.shard_count(), 2);
        let c = ShardedBlockCache::new(8, 0);
        assert_eq!(c.shard_count(), 1);
    }

    #[test]
    fn sharded_take_dirty_is_globally_key_sorted() {
        // Capacity well above the population: no shard may evict, no
        // matter how unevenly the hash spreads these 32 keys.
        let c = ShardedBlockCache::new(256, 8);
        for fid in (0..8u64).rev() {
            for idx in (0..4u64).rev() {
                let _ = c.insert((FileId(fid), idx), blk(1), true);
            }
        }
        let flushed = c.take_dirty();
        assert_eq!(flushed.len(), 32);
        let keys: Vec<BlockKey> = flushed.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "write-back batch must stay elevator-ordered");
        assert_eq!(c.dirty_blocks(), 0);
    }

    #[test]
    fn sharded_invalidate_and_clear_span_all_shards() {
        let c = ShardedBlockCache::new(64, 8);
        for fid in 0..4u64 {
            for idx in 0..8u64 {
                let _ = c.insert((FileId(fid), idx), blk(1), true);
            }
        }
        c.invalidate_file(FileId(2));
        for idx in 0..8u64 {
            assert!(!c.contains(&(FileId(2), idx)));
            assert!(c.contains(&(FileId(1), idx)));
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.dirty_blocks(), 0);
    }

    #[test]
    fn cache_stats_merge_is_lossless() {
        let a = CacheStats {
            hits: 3,
            misses: 1,
            writebacks: 2,
            clean_evictions: 5,
            bytes_copied: 7,
            bytes_borrowed: 11,
        };
        let b = CacheStats {
            hits: 10,
            misses: 20,
            writebacks: 30,
            clean_evictions: 40,
            bytes_copied: 50,
            bytes_borrowed: 60,
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(
            m,
            CacheStats {
                hits: 13,
                misses: 21,
                writebacks: 32,
                clean_evictions: 45,
                bytes_copied: 57,
                bytes_borrowed: 71,
            }
        );
        assert_eq!(
            CacheStats {
                hits: 1,
                misses: 3,
                ..a
            }
            .hit_rate(),
            25.0
        );
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}

#[cfg(test)]
mod sharded_equivalence {
    //! `ShardedBlockCache::new(cap, shards)` must be behaviourally
    //! identical to a plain `BlockCache::new(cap)` — same hit set, same
    //! evictions, same merged stats for the same trace — whatever the shard
    //! count: one shard is the E20 ablation arm, and the default eight
    //! change locking only.

    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Get(u64, u64),
        Insert(u64, u64, bool),
        MarkDirty(u64, u64),
        TakeDirty,
        TakeDirtyFor(u64),
        InvalidateFile(u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let fid = 0..4u64;
        let idx = 0..6u64;
        prop_oneof![
            4 => (fid.clone(), idx.clone()).prop_map(|(f, i)| Op::Get(f, i)),
            4 => (fid.clone(), idx.clone(), any::<bool>())
                .prop_map(|(f, i, d)| Op::Insert(f, i, d)),
            1 => (fid.clone(), idx).prop_map(|(f, i)| Op::MarkDirty(f, i)),
            1 => Just(Op::TakeDirty),
            1 => fid.clone().prop_map(Op::TakeDirtyFor),
            1 => fid.prop_map(Op::InvalidateFile),
        ]
    }

    fn check_trace(capacity: usize, ops: &[Op]) -> Result<(), TestCaseError> {
        check_sharded_trace(capacity, 1, ops)
    }

    fn check_sharded_trace(
        capacity: usize,
        shards: usize,
        ops: &[Op],
    ) -> Result<(), TestCaseError> {
        let mut plain = BlockCache::new(capacity);
        let sharded = ShardedBlockCache::new(capacity, shards);
        for (n, op) in ops.iter().enumerate() {
            match *op {
                Op::Get(f, i) => {
                    let key = (FileId(f), i);
                    let a = plain.get(&key);
                    let b = sharded.get(&key);
                    prop_assert_eq!(a, b, "op {}: hit set diverged on {:?}", n, key);
                }
                Op::Insert(f, i, d) => {
                    let key = (FileId(f), i);
                    let a = plain.insert(key, vec![(f ^ i) as u8; 16], d);
                    let b = sharded.insert(key, vec![(f ^ i) as u8; 16], d);
                    prop_assert_eq!(a, b, "op {}: evictions diverged", n);
                }
                Op::MarkDirty(f, i) => {
                    plain.mark_dirty(&(FileId(f), i));
                    sharded.mark_dirty(&(FileId(f), i));
                }
                Op::TakeDirty => {
                    prop_assert_eq!(plain.take_dirty(), sharded.take_dirty());
                }
                Op::TakeDirtyFor(f) => {
                    prop_assert_eq!(
                        plain.take_dirty_for(FileId(f)),
                        sharded.take_dirty_for(FileId(f))
                    );
                }
                Op::InvalidateFile(f) => {
                    plain.invalidate_file(FileId(f));
                    sharded.invalidate_file(FileId(f));
                }
            }
            prop_assert_eq!(plain.stats(), sharded.stats(), "op {}: stats diverged", n);
            prop_assert_eq!(plain.len(), sharded.len());
            prop_assert_eq!(plain.dirty_blocks(), sharded.dirty_blocks());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn single_shard_matches_plain_cache(
            capacity in 1..12usize,
            ops in proptest::collection::vec(op_strategy(), 1..120),
        ) {
            check_trace(capacity, &ops)?;
        }

        #[test]
        fn eight_shards_evict_like_one_lru(
            capacity in 1..12usize,
            ops in proptest::collection::vec(op_strategy(), 1..120),
        ) {
            check_sharded_trace(capacity, 8, &ops)?;
        }
    }
}
