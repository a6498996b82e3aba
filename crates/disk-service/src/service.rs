//! The disk server: allocation, transfer and stable-storage functions.
//!
//! The paper's disk service provides `allocate-block`, `free-block`,
//! `flush-block`, `get-block` and `put-block` (§4), with semantics
//! "designed in such a way that any operation on a set of contiguous
//! blocks/fragments can be accomplished in one single reference to the
//! disk". This module implements those functions over one [`SimDisk`] plus
//! an optional mirrored stable store; `flush-block` has nothing to do,
//! because a stable write is on both mirrors before `put` returns.

use crate::bitmap::Bitmap;
use crate::error::DiskServiceError;
use crate::extent_index::{ExtentIndexStats, FreeExtentArray};
use crate::scheduler::{order_and_merge, SchedulerStats};
use crate::track_cache::{TrackCache, TrackCacheStats};
use crate::units::{Extent, FragmentAddr, FRAGMENT_SIZE, FRAGS_PER_BLOCK};
use rhodos_buf::BlockBuf;
use rhodos_simdisk::{
    DiskGeometry, DiskStats, LatencyModel, SectorFault, SimClock, SimDisk, StableStore,
    STABLE_PAYLOAD,
};

/// Where `put` directs the data (§4's `put-block` stable-storage options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StablePolicy {
    /// Ordinary write: original location only.
    None,
    /// To the original location *and* stable storage — "as in the case of
    /// the file index table". The call returns after both stable mirrors
    /// are written.
    OriginalAndStable,
}

/// Where `get_from` reads the data (§4's `get-block` source option).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSource {
    /// Main storage (the default).
    Main,
    /// Stable storage.
    Stable,
}

/// Tunables for one disk server.
#[derive(Debug, Clone, Copy)]
pub struct DiskServiceConfig {
    /// Whether reads cache more of the platter than they asked for: the
    /// remainder of the track each run from the platter starts on
    /// ([`DiskService::get`], [`DiskService::get_batch`]), and the track
    /// a striped window's spindle reaches next
    /// ([`DiskService::read_ahead_next`]). Needs `cache_tracks > 0`.
    pub track_readahead: bool,
    /// Capacity of the track cache, in tracks. Zero disables caching
    /// entirely (the "Bullet server" baseline of experiment E8).
    pub cache_tracks: usize,
}

impl Default for DiskServiceConfig {
    fn default() -> Self {
        Self {
            track_readahead: true,
            cache_tracks: 16,
        }
    }
}

/// Aggregated observability for one disk server.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskServiceStats {
    /// Counters of the main disk.
    pub disk: DiskStats,
    /// Combined counters of the stable-storage mirrors (zero if absent).
    pub stable: DiskStats,
    /// Track-cache hits/misses.
    pub cache: TrackCacheStats,
    /// Free-extent-index behaviour.
    pub index: ExtentIndexStats,
    /// Batch scheduler behaviour (elevator ordering, merging).
    pub scheduler: SchedulerStats,
    /// Fragments currently free.
    pub free_fragments: u64,
    /// Total fragments on the disk.
    pub total_fragments: u64,
}

/// One disk server: "there is one disk server corresponding to each disk
/// in the RHODOS system" (§4).
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug)]
pub struct DiskService {
    disk: SimDisk,
    stable: Option<StableStore>,
    bitmap: Bitmap,
    index: FreeExtentArray,
    cache: Option<TrackCache>,
    config: DiskServiceConfig,
    scheduler: SchedulerStats,
}

impl DiskService {
    /// Creates a disk server without stable storage.
    pub fn new(
        geometry: DiskGeometry,
        model: LatencyModel,
        clock: SimClock,
        config: DiskServiceConfig,
    ) -> Self {
        let disk = SimDisk::new(geometry, model, clock);
        Self::from_disk(disk, None, config)
    }

    /// Creates a disk server with a mirrored stable store of matching
    /// capacity (two additional simulated disks).
    pub fn with_stable(
        geometry: DiskGeometry,
        model: LatencyModel,
        clock: SimClock,
        config: DiskServiceConfig,
    ) -> Self {
        let disk = SimDisk::new(geometry, model, clock.clone());
        // Two stable slots per fragment (a fragment's 2048 bytes split
        // across two records, each of which reserves header space).
        let stable_geom = DiskGeometry::new(geometry.tracks(), geometry.sectors_per_track() * 2);
        let a = SimDisk::new(stable_geom, model, clock.clone());
        let b = SimDisk::new(stable_geom, model, clock);
        Self::from_disk(disk, Some(StableStore::new(a, b)), config)
    }

    /// Builds a server over an existing disk (lets tests pre-fault it).
    pub fn from_disk(
        disk: SimDisk,
        stable: Option<StableStore>,
        config: DiskServiceConfig,
    ) -> Self {
        let total = disk.geometry().total_sectors();
        let bitmap = Bitmap::new_all_free(total);
        let mut index = FreeExtentArray::new();
        index.rebuild_from(&bitmap);
        let cache = (config.cache_tracks > 0)
            .then(|| TrackCache::new(config.cache_tracks, disk.geometry().sectors_per_track()));
        Self {
            disk,
            stable,
            bitmap,
            index,
            cache,
            config,
            scheduler: SchedulerStats::default(),
        }
    }

    /// The disk geometry.
    pub fn geometry(&self) -> DiskGeometry {
        self.disk.geometry()
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> SimClock {
        self.disk.clock().clone()
    }

    /// Mutable access to the underlying disk (fault injection).
    pub fn disk_mut(&mut self) -> &mut SimDisk {
        &mut self.disk
    }

    /// Mutable access to the stable store, if configured.
    pub fn stable_mut(&mut self) -> Option<&mut StableStore> {
        self.stable.as_mut()
    }

    /// Whether stable storage is configured.
    pub fn has_stable(&self) -> bool {
        self.stable.is_some()
    }

    /// Snapshot of all statistics.
    pub fn stats(&self) -> DiskServiceStats {
        DiskServiceStats {
            disk: self.disk.stats(),
            stable: self.stable.as_ref().map(|s| s.stats()).unwrap_or_default(),
            cache: self.cache.as_ref().map(|c| c.stats()).unwrap_or_default(),
            index: self.index.stats(),
            scheduler: self.scheduler,
            free_fragments: self.bitmap.free_fragments(),
            total_fragments: self.bitmap.total_fragments(),
        }
    }

    /// Fragments currently free.
    pub fn free_fragments(&self) -> u64 {
        self.bitmap.free_fragments()
    }

    /// Largest contiguous free run, in fragments.
    pub fn largest_free_run(&self) -> u64 {
        self.bitmap.largest_free_run()
    }

    // ---- allocation --------------------------------------------------

    /// Allocates `len` *contiguous* fragments (`allocate-block` for
    /// `len = 4·n`).
    ///
    /// # Errors
    ///
    /// Returns [`DiskServiceError::NoSpace`] when no contiguous run of
    /// `len` fragments exists.
    pub fn allocate_contiguous(&mut self, len: u64) -> Result<Extent, DiskServiceError> {
        self.index
            .allocate(&mut self.bitmap, len)
            .ok_or(DiskServiceError::NoSpace {
                requested: len,
                largest_free: self.bitmap.largest_free_run(),
                total_free: self.bitmap.free_fragments(),
            })
    }

    /// Allocates one block (four contiguous fragments).
    ///
    /// # Errors
    ///
    /// See [`Self::allocate_contiguous`].
    pub fn allocate_block(&mut self) -> Result<Extent, DiskServiceError> {
        self.allocate_contiguous(FRAGS_PER_BLOCK)
    }

    /// Allocates `len` contiguous fragments from the top of the disk —
    /// placement for shadow pages and other transient metadata, keeping
    /// the low region unfragmented for contiguous file growth.
    ///
    /// # Errors
    ///
    /// Returns [`DiskServiceError::NoSpace`] when no contiguous run of
    /// `len` fragments exists.
    pub fn allocate_contiguous_top(&mut self, len: u64) -> Result<Extent, DiskServiceError> {
        self.index
            .allocate_top(&mut self.bitmap, len)
            .ok_or(DiskServiceError::NoSpace {
                requested: len,
                largest_free: self.bitmap.largest_free_run(),
                total_free: self.bitmap.free_fragments(),
            })
    }

    /// Allocates `len` fragments, contiguously if possible, otherwise as
    /// several extents (largest-first). Used when a file's blocks "may or
    /// may not be contiguous on a storage medium" (§5).
    ///
    /// # Errors
    ///
    /// Returns [`DiskServiceError::NoSpace`] when fewer than `len`
    /// fragments are free in total.
    pub fn allocate_scattered(&mut self, len: u64) -> Result<Vec<Extent>, DiskServiceError> {
        if len > self.bitmap.free_fragments() {
            return Err(DiskServiceError::NoSpace {
                requested: len,
                largest_free: self.bitmap.largest_free_run(),
                total_free: self.bitmap.free_fragments(),
            });
        }
        let mut remaining = len;
        let mut extents = Vec::new();
        while remaining > 0 {
            let chunk = remaining.min(self.bitmap.largest_free_run());
            debug_assert!(chunk > 0);
            match self.index.allocate(&mut self.bitmap, chunk) {
                Some(e) => {
                    remaining -= e.len;
                    extents.push(e);
                }
                None => {
                    // Roll back partial allocation before reporting.
                    for e in extents {
                        self.index.free(&mut self.bitmap, e);
                    }
                    return Err(DiskServiceError::NoSpace {
                        requested: len,
                        largest_free: self.bitmap.largest_free_run(),
                        total_free: self.bitmap.free_fragments(),
                    });
                }
            }
        }
        Ok(extents)
    }

    /// Frees an extent (`free-block`). Invalidate any cached copies.
    ///
    /// # Errors
    ///
    /// Returns [`DiskServiceError::BadExtent`] if the extent exceeds the
    /// disk.
    ///
    /// # Panics
    ///
    /// Panics on double free — always a bug in the caller.
    pub fn free(&mut self, extent: Extent) -> Result<(), DiskServiceError> {
        if extent.end() > self.bitmap.total_fragments() {
            return Err(DiskServiceError::BadExtent);
        }
        self.index.free(&mut self.bitmap, extent);
        if let Some(cache) = &mut self.cache {
            let geom = self.disk.geometry();
            for f in extent.start..extent.end() {
                cache.invalidate_fragment(geom.track_of(f), geom.sector_in_track(f));
            }
        }
        Ok(())
    }

    // ---- transfer ----------------------------------------------------

    fn check_extent(&self, extent: Extent) -> Result<(), DiskServiceError> {
        if extent.end() > self.bitmap.total_fragments() {
            return Err(DiskServiceError::BadExtent);
        }
        Ok(())
    }

    /// Reads an extent from main storage (`get-block` with the default
    /// source): one disk reference for the whole contiguous run, or zero
    /// if fully cached.
    ///
    /// The result is a [`BlockBuf`]: an extent whose fragments are
    /// adjacent views of one allocation — the buffer they were written
    /// from — is served as a view of it, from the cache or the platter;
    /// only fragments that span allocations are gather-copied.
    ///
    /// # Errors
    ///
    /// Propagates device failures; see [`DiskServiceError`].
    pub fn get(&mut self, extent: Extent) -> Result<BlockBuf, DiskServiceError> {
        self.get_from(extent, ReadSource::Main)
    }

    /// Reads an extent from the chosen source (`get-block` with its
    /// stable-storage option).
    ///
    /// # Errors
    ///
    /// [`DiskServiceError::NoStableStorage`] if `source` is `Stable` and no
    /// stable store is configured; otherwise device failures.
    pub fn get_from(
        &mut self,
        extent: Extent,
        source: ReadSource,
    ) -> Result<BlockBuf, DiskServiceError> {
        self.check_extent(extent)?;
        match source {
            ReadSource::Main => {
                let mut out = None;
                self.get_run(extent, [extent], |_, buf| out = Some(buf))?;
                Ok(out.expect("a run serves its one part"))
            }
            ReadSource::Stable => self.get_stable(extent),
        }
    }

    /// Reads `run`, the concatenation of the adjacent extents `parts` in
    /// address order, from main storage: one disk reference, or none when
    /// the track cache holds all of it. Hands each part's buffer to `emit`
    /// with its position in `parts`: a view of the cached or platter
    /// fragments, copied only when they span allocations. Returns whether
    /// the run went to the platter.
    fn get_run(
        &mut self,
        run: Extent,
        parts: impl IntoIterator<Item = Extent>,
        mut emit: impl FnMut(usize, BlockBuf),
    ) -> Result<bool, DiskServiceError> {
        let geom = self.disk.geometry();
        let at = |f: u64| (geom.track_of(f), geom.sector_in_track(f));
        // Serve fully from cache when possible.
        if let Some(cache) = &mut self.cache {
            if (run.start..run.end())
                .map(at)
                .all(|(t, s)| cache.peek_fragment(t, s))
            {
                for (i, part) in parts.into_iter().enumerate() {
                    let frags = (part.start..part.end()).map(at).map(|(t, s)| {
                        let frag = cache.lookup_fragment(t, s);
                        frag.expect("peeked fragment must be resident")
                    });
                    let (joined, copied) = BlockBuf::join(frags);
                    if copied {
                        cache.note_copied(joined.len() as u64);
                    }
                    emit(i, joined);
                }
                return Ok(false);
            }
            // Record misses for the fragments we must fetch.
            for (track, slot) in (run.start..run.end()).map(at) {
                if !cache.peek_fragment(track, slot) {
                    let _ = cache.lookup_fragment(track, slot);
                }
            }
        }
        // One reference for the whole run; the cache keeps the platter's
        // own views, so filling it copies nothing.
        let mut views = self.disk.read_views(run.start, run.len)?;
        let mut f = run.start;
        for (i, part) in parts.into_iter().enumerate() {
            emit(
                i,
                views.join(part.len, |view| {
                    if let Some(cache) = &mut self.cache {
                        let (t, s) = at(f);
                        cache.fill_fragment(t, s, view.clone());
                    }
                    f += 1;
                }),
            );
        }
        if self.cache.is_some() && self.config.track_readahead {
            // Read-ahead is opportunistic: a media fault elsewhere on
            // the track must not fail the demand read that succeeded.
            // It takes the track the run *starts* on, deliberately: a
            // file's FIT and first run share that track (E3's two
            // references for half a megabyte), and a run that ends a
            // file reads nothing past its last block (E08's server-only
            // row). A striped window reads ahead where its runs end
            // through `read_ahead_next`.
            let _ = self.read_ahead_track(geom.track_of(run.start));
        }
        Ok(true)
    }

    /// Striped read-ahead: caches the track a sequential reader of this
    /// spindle needs after `last`, the last extent of its part of a
    /// window that sent some spindle to the platter. If this spindle
    /// `went` to the platter, that is the rest of the track `last` ends
    /// on; if its track cache served it, the whole track after that one.
    /// Issued inside the window's batch, every spindle's read-ahead
    /// shares the window's makespan.
    ///
    /// Opportunistic like the per-run read-ahead: an error is dropped and
    /// the demand read stands. Does nothing without a track cache or with
    /// [`DiskServiceConfig::track_readahead`] off.
    pub fn read_ahead_next(&mut self, last: Extent, went: bool) {
        if self.cache.is_none() || !self.config.track_readahead {
            return;
        }
        let geom = self.disk.geometry();
        let track = geom.track_of(last.end().saturating_sub(1)) + u64::from(!went);
        if track < geom.tracks() {
            let _ = self.read_ahead_track(track);
        }
    }

    /// Caches the not-yet-resident remainder of `track` ("the disk service
    /// caches the rest of the data from the same track", §4).
    fn read_ahead_track(&mut self, track: u64) -> Result<(), DiskServiceError> {
        let geom = self.disk.geometry();
        let cache = self.cache.as_mut().expect("read-ahead requires a cache");
        let start = geom.track_start(track);
        let mut missing = (0..geom.sectors_per_track()).filter(|&s| !cache.peek_fragment(track, s));
        let Some(lo) = missing.next() else {
            return Ok(());
        };
        let hi = missing.next_back().unwrap_or(lo);
        // One sequential reference covering the span of missing sectors;
        // every fragment cached is the platter's own view.
        let views = self.disk.read_views(start + lo, hi - lo + 1)?;
        for (s, view) in (lo..=hi).zip(views) {
            if !cache.peek_fragment(track, s) {
                cache.fill_fragment(track, s, view);
            }
        }
        Ok(())
    }

    fn get_stable(&mut self, extent: Extent) -> Result<BlockBuf, DiskServiceError> {
        let stable = self
            .stable
            .as_mut()
            .ok_or(DiskServiceError::NoStableStorage)?;
        let mut out = Vec::with_capacity(extent.len_bytes());
        for f in extent.start..extent.end() {
            let p0 = stable.read(2 * f)?.ok_or(DiskServiceError::Disk(
                rhodos_simdisk::DiskError::StableLost(2 * f),
            ))?;
            let p1 = stable.read(2 * f + 1)?.ok_or(DiskServiceError::Disk(
                rhodos_simdisk::DiskError::StableLost(2 * f + 1),
            ))?;
            out.extend_from_slice(&p0);
            out.extend_from_slice(&p1);
        }
        if out.len() != extent.len_bytes() {
            return Err(DiskServiceError::SizeMismatch {
                expected: extent.len_bytes(),
                got: out.len(),
            });
        }
        // Stable records are decoded piecewise; the assembled buffer is
        // fresh, so wrapping it is free.
        Ok(BlockBuf::from(out))
    }

    /// Writes `data` to `extent` (`put-block`). `policy` selects the
    /// paper's stable-storage options; the main-location write is one disk
    /// reference for the whole contiguous run.
    ///
    /// # Errors
    ///
    /// [`DiskServiceError::SizeMismatch`] if `data` does not exactly fill
    /// the extent; [`DiskServiceError::NoStableStorage`] if a stable policy
    /// is requested without stable storage; otherwise device failures.
    pub fn put(
        &mut self,
        extent: Extent,
        data: &[u8],
        policy: StablePolicy,
    ) -> Result<(), DiskServiceError> {
        self.check_extent(extent)?;
        if data.len() != extent.len_bytes() {
            return Err(DiskServiceError::SizeMismatch {
                expected: extent.len_bytes(),
                got: data.len(),
            });
        }
        // One copy of `data`, shared by the platter and the cache.
        let buf = BlockBuf::from(data);
        self.disk
            .write_bufs(extent.start, std::slice::from_ref(&buf))?;
        self.cache_written(extent, &buf);
        if policy == StablePolicy::OriginalAndStable {
            let stable = self
                .stable
                .as_mut()
                .ok_or(DiskServiceError::NoStableStorage)?;
            // Fragment f maps to slots 2f and 2f+1, so a contiguous extent
            // is a contiguous slot run: write it as one coalesced A-pass /
            // verify / B-pass instead of paying per-slot mirror round trips.
            let payloads: Vec<&[u8]> = data
                .chunks(FRAGMENT_SIZE)
                .flat_map(|frag| {
                    let (head, tail) = frag.split_at(STABLE_PAYLOAD);
                    [head, tail]
                })
                .collect();
            stable.write_batch(2 * extent.start, &payloads)?;
        }
        Ok(())
    }

    // ---- batched transfer (per-spindle scheduler) --------------------

    /// Enters batch clock accounting on the underlying spindle: virtual
    /// time for subsequent operations accumulates on this disk's private
    /// timeline and is published to the shared clock only at the matching
    /// [`Self::end_batch`]. A coordinator batching several disk servers
    /// this way gets makespan (max-over-spindles) accounting, the way
    /// truly parallel hardware behaves. Batched operations never read the
    /// shared clock, so the order in which the coordinator issues the
    /// disk servers' batches does not matter.
    pub fn begin_batch(&mut self) {
        self.disk.begin_batch();
    }

    /// Leaves batch accounting and publishes this spindle's finish time.
    pub fn end_batch(&mut self) {
        self.disk.end_batch();
    }

    /// Reads a batch of extents through the per-spindle scheduler: the
    /// requests are sorted into a C-SCAN elevator sweep from the current
    /// head position and physically adjacent requests are merged, so each
    /// merged run costs one disk reference (or zero when cached). Results
    /// are returned in **input order**, each joined from its own sectors'
    /// views as [`Self::get`] joins an extent's, together with whether
    /// any run went to the platter (`false` when the track cache served
    /// the whole batch).
    ///
    /// Requests must not overlap one another.
    ///
    /// # Errors
    ///
    /// Propagates device failures; see [`DiskServiceError`].
    pub fn get_batch(
        &mut self,
        extents: &[Extent],
    ) -> Result<(Vec<BlockBuf>, bool), DiskServiceError> {
        for e in extents {
            self.check_extent(*e)?;
        }
        let schedule = order_and_merge(self.disk.head(), extents, &mut self.scheduler);
        let mut out: Vec<Option<BlockBuf>> = vec![None; extents.len()];
        let mut went = false;
        for run in &schedule.runs {
            let order = &schedule.order[run.parts.clone()];
            let parts = order.iter().map(|&i| extents[i]);
            went |= self.get_run(run.extent, parts, |k, buf| out[order[k]] = Some(buf))?;
        }
        let bufs = out
            .into_iter()
            .map(|b| b.expect("scheduler serves every request"));
        Ok((bufs.collect(), went))
    }

    /// Writes a batch of `(extent, data)` pairs to main storage through
    /// the per-spindle scheduler. Adjacent requests are merged into single
    /// disk references; the platter and the cache adopt the callers'
    /// buffers, so no byte is copied.
    ///
    /// Batched writes go to the main location only (the delayed-write
    /// flush path); use [`Self::put`] for stable-storage policies.
    ///
    /// # Errors
    ///
    /// [`DiskServiceError::SizeMismatch`] if any buffer does not exactly
    /// fill its extent; otherwise device failures.
    pub fn put_batch(&mut self, requests: &[(Extent, BlockBuf)]) -> Result<(), DiskServiceError> {
        for (e, d) in requests {
            self.check_extent(*e)?;
            if d.len() != e.len_bytes() {
                return Err(DiskServiceError::SizeMismatch {
                    expected: e.len_bytes(),
                    got: d.len(),
                });
            }
        }
        let extents: Vec<Extent> = requests.iter().map(|(e, _)| *e).collect();
        let schedule = order_and_merge(self.disk.head(), &extents, &mut self.scheduler);
        let bufs: Vec<BlockBuf> = schedule
            .order
            .iter()
            .map(|&i| requests[i].1.clone())
            .collect();
        for run in &schedule.runs {
            self.disk
                .write_bufs(run.extent.start, &bufs[run.parts.clone()])?;
            for &i in &schedule.order[run.parts.clone()] {
                self.cache_written(requests[i].0, &requests[i].1);
            }
        }
        Ok(())
    }

    /// Write-update of the cache: cached fragments become views of the
    /// written buffer.
    fn cache_written(&mut self, extent: Extent, data: &BlockBuf) {
        if let Some(cache) = &mut self.cache {
            let geom = self.disk.geometry();
            for (i, f) in (extent.start..extent.end()).enumerate() {
                let a = i * FRAGMENT_SIZE;
                cache.fill_fragment(
                    geom.track_of(f),
                    geom.sector_in_track(f),
                    data.slice(a..a + FRAGMENT_SIZE),
                );
            }
        }
    }

    /// Discards cached state (the track cache) without running crash
    /// recovery. Unlike [`Self::recover`] this performs no stable-storage
    /// scan and touches nothing on disk — it is how benchmarks and cache
    /// eviction cold-start reads.
    pub fn drop_caches(&mut self) {
        if let Some(cache) = &mut self.cache {
            cache.clear();
        }
    }

    /// Resets the free-space state to "everything free" and re-marks the
    /// given extents as allocated, rebuilding the free-extent index.
    ///
    /// Used by the file service after a crash: the in-memory bitmap is
    /// reconstructed by walking the directory and every file index table —
    /// the moral equivalent of an fsck pass.
    ///
    /// # Panics
    ///
    /// Panics if the extents overlap each other (the on-disk metadata was
    /// corrupt in a way the caller should have detected).
    pub fn rebuild_allocation<I>(&mut self, allocated: I)
    where
        I: IntoIterator<Item = Extent>,
    {
        self.bitmap = Bitmap::new_all_free(self.disk.geometry().total_sectors());
        for e in allocated {
            self.bitmap.mark_allocated(e.start, e.len);
        }
        self.index.rebuild_from(&self.bitmap);
    }

    /// Re-marks `extent` as allocated if it is currently entirely free.
    /// Returns whether the pin took effect.
    ///
    /// Used by transaction recovery: the allocation rebuild only sees
    /// blocks referenced from file index tables, so the tentative blocks
    /// named by redo records must be pinned again before being replayed.
    pub fn repin_extent(&mut self, extent: Extent) -> bool {
        if extent.end() <= self.bitmap.total_fragments()
            && self.bitmap.run_is_free(extent.start, extent.len)
        {
            self.bitmap.mark_allocated(extent.start, extent.len);
            self.index.remove_overlapping(extent);
            true
        } else {
            false
        }
    }

    /// Runs stable-storage recovery after a crash; returns unrecoverable
    /// stable slots.
    ///
    /// # Errors
    ///
    /// Propagates device failures encountered while repairing mirrors.
    pub fn recover(&mut self) -> Result<Vec<FragmentAddr>, DiskServiceError> {
        self.disk.repair();
        if let Some(cache) = &mut self.cache {
            cache.clear();
        }
        match &mut self.stable {
            Some(s) => Ok(s.recover()?),
            None => Ok(Vec::new()),
        }
    }

    // ---- self-healing (scrub + repair) -------------------------------

    /// Read-only view of the allocation bitmap — fsck cross-checks it
    /// against the extents reachable from file metadata to find leaked
    /// fragments and double allocations.
    pub fn bitmap(&self) -> &Bitmap {
        &self.bitmap
    }

    /// Scrub pass over `extents`: verifies every sector on the *platter*
    /// (deliberately bypassing the track cache — a cached good copy must
    /// not mask latent media damage) and returns all faults found. The
    /// requests are routed through the per-spindle elevator like any other
    /// batch, so a scrub sweep is coalesced runs in C-SCAN order, not
    /// random single-sector probes.
    ///
    /// # Errors
    ///
    /// [`DiskServiceError::BadExtent`] for an extent beyond the disk, or a
    /// crashed-disk error; per-sector faults are the *result*, not errors.
    pub fn verify_extents(
        &mut self,
        extents: &[Extent],
    ) -> Result<Vec<SectorFault>, DiskServiceError> {
        for e in extents {
            self.check_extent(*e)?;
        }
        let schedule = order_and_merge(self.disk.head(), extents, &mut self.scheduler);
        let mut faults = Vec::new();
        for run in schedule.runs {
            faults.extend(self.disk.scan_sectors(run.extent.start, run.extent.len)?);
        }
        faults.sort_by_key(|f| f.addr);
        Ok(faults)
    }

    /// Read-repair of one fragment from its stable-storage copy: fetches
    /// the mirrored record pair and rewrites the main location. The write
    /// reassigns a bad sector to a spare (persistent remap), so the
    /// repaired fragment is readable at its original address afterwards.
    /// Returns `Ok(false)` if no stable store is configured.
    ///
    /// # Errors
    ///
    /// [`DiskError::StableLost`](rhodos_simdisk::DiskError::StableLost)
    /// (wrapped) when the stable copy is itself unreadable — the fault is
    /// unrecoverable at this layer; other device failures.
    pub fn repair_fragment_from_stable(
        &mut self,
        frag: FragmentAddr,
    ) -> Result<bool, DiskServiceError> {
        if self.stable.is_none() {
            return Ok(false);
        }
        let extent = Extent::new(frag, 1);
        let good = self.get_stable(extent)?;
        self.put(extent, &good, StablePolicy::None)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc() -> DiskService {
        DiskService::with_stable(
            DiskGeometry::small(),
            LatencyModel::default(),
            SimClock::new(),
            DiskServiceConfig::default(),
        )
    }

    fn svc_nocache() -> DiskService {
        DiskService::new(
            DiskGeometry::small(),
            LatencyModel::default(),
            SimClock::new(),
            DiskServiceConfig {
                track_readahead: false,
                cache_tracks: 0,
            },
        )
    }

    #[test]
    fn block_is_four_contiguous_fragments() {
        let mut s = svc();
        let b = s.allocate_block().unwrap();
        assert_eq!(b.len, FRAGS_PER_BLOCK);
    }

    #[test]
    fn put_get_round_trip() {
        let mut s = svc();
        let e = s.allocate_contiguous(3).unwrap();
        let data: Vec<u8> = (0..3 * FRAGMENT_SIZE).map(|i| (i % 256) as u8).collect();
        s.put(e, &data, StablePolicy::None).unwrap();
        assert_eq!(s.get(e).unwrap(), data);
    }

    #[test]
    fn size_mismatch_rejected() {
        let mut s = svc();
        let e = s.allocate_contiguous(2).unwrap();
        let err = s.put(e, &[0u8; 17], StablePolicy::None).unwrap_err();
        assert!(matches!(err, DiskServiceError::SizeMismatch { .. }));
    }

    #[test]
    fn contiguous_get_is_single_disk_reference() {
        let mut s = svc_nocache();
        let e = s.allocate_contiguous(8).unwrap();
        let data = vec![1u8; 8 * FRAGMENT_SIZE];
        s.put(e, &data, StablePolicy::None).unwrap();
        let before = s.stats().disk.read_ops;
        s.get(e).unwrap();
        assert_eq!(s.stats().disk.read_ops - before, 1);
    }

    #[test]
    fn cached_get_takes_no_disk_reference() {
        let mut s = svc();
        let e = s.allocate_contiguous(4).unwrap();
        let data = vec![2u8; 4 * FRAGMENT_SIZE];
        s.put(e, &data, StablePolicy::None).unwrap();
        let before = s.stats().disk.read_ops;
        assert_eq!(s.get(e).unwrap(), data); // write-update made it resident
        assert_eq!(s.stats().disk.read_ops - before, 0);
    }

    #[test]
    fn verify_extents_finds_latent_faults_behind_the_cache() {
        let mut s = svc();
        let e = s.allocate_contiguous(4).unwrap();
        let data = vec![7u8; 4 * FRAGMENT_SIZE];
        s.put(e, &data, StablePolicy::None).unwrap();
        // Cached reads still succeed after silent platter corruption...
        s.disk_mut().silently_corrupt_sector(e.start + 1).unwrap();
        assert_eq!(s.get(e).unwrap(), data);
        // ...but the scrub scan inspects the platter itself.
        let faults = s.verify_extents(&[e]).unwrap();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].addr, e.start + 1);
        assert_eq!(
            faults[0].kind,
            rhodos_simdisk::SectorFaultKind::ChecksumMismatch
        );
    }

    #[test]
    fn verify_extents_coalesces_runs_through_the_scheduler() {
        let mut s = svc_nocache();
        let e = s.allocate_contiguous(8).unwrap();
        let halves = [Extent::new(e.start, 4), Extent::new(e.start + 4, 4)];
        let before = s.stats().disk.read_ops;
        s.verify_extents(&halves).unwrap();
        // Adjacent extents merge into one scan reference.
        assert_eq!(s.stats().disk.read_ops - before, 1);
        assert!(s.stats().scheduler.merged_requests >= 1);
    }

    #[test]
    fn repair_fragment_from_stable_heals_bad_sector() {
        let mut s = svc();
        let e = s.allocate_contiguous(1).unwrap();
        let data = vec![9u8; FRAGMENT_SIZE];
        s.put(e, &data, StablePolicy::OriginalAndStable).unwrap();
        s.disk_mut().corrupt_sector(e.start).unwrap();
        assert!(s.repair_fragment_from_stable(e.start).unwrap());
        // The bad sector was reassigned to a spare; the fragment reads
        // again at its original address with the stable copy's content.
        assert!(!s.disk_mut().sector_faulty(e.start));
        assert_eq!(s.stats().disk.remapped_sectors, 1);
        s.drop_caches();
        assert_eq!(s.get(e).unwrap(), data);
    }

    #[test]
    fn repair_fragment_without_stable_reports_false() {
        let mut s = svc_nocache();
        let e = s.allocate_contiguous(1).unwrap();
        assert!(!s.repair_fragment_from_stable(e.start).unwrap());
    }

    #[test]
    fn track_readahead_serves_neighbours() {
        let mut s = svc();
        // Two separate extents on the same track.
        let a = s.allocate_contiguous(2).unwrap();
        let b = s.allocate_contiguous(2).unwrap();
        assert_eq!(
            s.geometry().track_of(a.start),
            s.geometry().track_of(b.start),
            "extents should share a track in this geometry"
        );
        // Fill from disk (cache is cold for reads — put updates cache, so
        // clear it first to model a cold start).
        s.put(a, &vec![1u8; a.len_bytes()], StablePolicy::None)
            .unwrap();
        s.put(b, &vec![2u8; b.len_bytes()], StablePolicy::None)
            .unwrap();
        s.recover().unwrap(); // clears the cache
        let r0 = s.stats().disk.read_ops;
        s.get(a).unwrap();
        let after_first = s.stats().disk.read_ops;
        s.get(b).unwrap(); // should be a read-ahead hit
        let after_second = s.stats().disk.read_ops;
        assert!(after_first > r0);
        assert_eq!(after_second, after_first, "read-ahead should serve b");
    }

    #[test]
    fn original_and_stable_writes_both() {
        let mut s = svc();
        let e = s.allocate_contiguous(2).unwrap();
        let data: Vec<u8> = (0..2 * FRAGMENT_SIZE)
            .map(|i| (i * 7 % 251) as u8)
            .collect();
        s.put(e, &data, StablePolicy::OriginalAndStable).unwrap();
        assert_eq!(s.get(e).unwrap(), data);
        assert_eq!(s.get_from(e, ReadSource::Stable).unwrap(), data);
    }

    #[test]
    fn stable_requires_configuration() {
        let mut s = svc_nocache();
        let e = s.allocate_contiguous(1).unwrap();
        let err = s
            .put(
                e,
                &vec![0u8; FRAGMENT_SIZE],
                StablePolicy::OriginalAndStable,
            )
            .unwrap_err();
        assert_eq!(err, DiskServiceError::NoStableStorage);
    }

    #[test]
    fn allocate_scattered_covers_fragmented_disk() {
        // A tiny 32-fragment disk that we can fragment completely.
        let mut s = DiskService::new(
            DiskGeometry::new(1, 32),
            LatencyModel::instant(),
            SimClock::new(),
            DiskServiceConfig {
                track_readahead: false,
                cache_tracks: 0,
            },
        );
        // Fragment the disk: allocate pairs covering everything, free alternating.
        let runs: Vec<Extent> = (0..16).map(|_| s.allocate_contiguous(2).unwrap()).collect();
        for (i, r) in runs.iter().enumerate() {
            if i % 2 == 0 {
                s.free(*r).unwrap();
            }
        }
        // 16 fragments free but max run is 2: scattered allocation works.
        let extents = s.allocate_scattered(10).unwrap();
        let total: u64 = extents.iter().map(|e| e.len).sum();
        assert_eq!(total, 10);
        assert!(extents.len() >= 5);
    }

    #[test]
    fn scattered_failure_rolls_back() {
        let mut s = svc_nocache();
        let free_before = s.free_fragments();
        let err = s.allocate_scattered(free_before + 1).unwrap_err();
        assert!(matches!(err, DiskServiceError::NoSpace { .. }));
        assert_eq!(s.free_fragments(), free_before);
    }

    #[test]
    fn free_invalidates_cache() {
        let mut s = svc();
        let e = s.allocate_contiguous(1).unwrap();
        s.put(e, &vec![5u8; FRAGMENT_SIZE], StablePolicy::None)
            .unwrap();
        s.free(e).unwrap();
        // Re-allocating the same extent and reading it must go to disk,
        // not serve the stale cached value.
        let e2 = s.allocate_contiguous(1).unwrap();
        // (Allocation order makes e2 == e on an empty disk region.)
        let _ = s.get(e2).unwrap();
        // No assertion on contents (disk still has old bytes) — the point
        // is that the service didn't panic and the read hit the disk.
        assert!(s.stats().cache.fragment_misses > 0);
    }

    #[test]
    fn stable_survives_main_disk_loss() {
        let mut s = svc();
        let e = s.allocate_contiguous(1).unwrap();
        let data = vec![0xCD; FRAGMENT_SIZE];
        s.put(e, &data, StablePolicy::OriginalAndStable).unwrap();
        s.disk_mut().corrupt_sector(e.start).unwrap();
        s.recover().unwrap(); // drop the cached copy; bad sector persists
        assert!(matches!(s.get(e), Err(DiskServiceError::Disk(_))));
        assert_eq!(s.get_from(e, ReadSource::Stable).unwrap(), data);
    }

    #[test]
    fn put_charges_exactly_one_write_reference() {
        let mut s = svc_nocache();
        let e = s.allocate_contiguous(16).unwrap();
        let before = s.stats().disk.write_ops;
        s.put(e, &vec![1u8; 16 * FRAGMENT_SIZE], StablePolicy::None)
            .unwrap();
        assert_eq!(s.stats().disk.write_ops - before, 1);
    }

    #[test]
    fn get_batch_merges_adjacent_into_one_reference() {
        let mut s = svc_nocache();
        let e = s.allocate_contiguous(12).unwrap();
        let data: Vec<u8> = (0..12 * FRAGMENT_SIZE).map(|i| (i % 251) as u8).collect();
        s.put(e, &data, StablePolicy::None).unwrap();
        // Split into three block-sized requests, submitted out of order.
        let reqs = [
            Extent::new(e.start + 8, 4),
            Extent::new(e.start, 4),
            Extent::new(e.start + 4, 4),
        ];
        let before = s.stats().disk.read_ops;
        let (got, went) = s.get_batch(&reqs).unwrap();
        assert!(went);
        assert_eq!(
            s.stats().disk.read_ops - before,
            1,
            "merged to one reference"
        );
        // Results come back in input order.
        for (req, buf) in reqs.iter().zip(&got) {
            let off = (req.start - e.start) as usize * FRAGMENT_SIZE;
            assert_eq!(&buf[..], &data[off..off + req.len_bytes()]);
        }
        assert_eq!(s.stats().scheduler.merged_requests, 2);
    }

    #[test]
    fn put_batch_merges_and_round_trips() {
        let mut s = svc_nocache();
        let e = s.allocate_contiguous(8).unwrap();
        let lo = BlockBuf::from(vec![0xAAu8; 4 * FRAGMENT_SIZE]);
        let hi = BlockBuf::from(vec![0xBBu8; 4 * FRAGMENT_SIZE]);
        let before = s.stats().disk.write_ops;
        s.put_batch(&[
            (Extent::new(e.start + 4, 4), hi.clone()),
            (Extent::new(e.start, 4), lo.clone()),
        ])
        .unwrap();
        assert_eq!(
            s.stats().disk.write_ops - before,
            1,
            "merged to one reference"
        );
        assert_eq!(s.get(Extent::new(e.start, 4)).unwrap(), lo);
        assert_eq!(s.get(Extent::new(e.start + 4, 4)).unwrap(), hi);
    }

    #[test]
    fn put_batch_concat_of_sliced_views_is_copy_free() {
        let mut s = svc_nocache();
        let e = s.allocate_contiguous(12).unwrap();
        // One allocation sliced into two adjacent views — the coalesced
        // flush shape — and a third request from an allocation of its own.
        let whole = BlockBuf::from(
            (0..8 * FRAGMENT_SIZE)
                .map(|i| (i % 83) as u8)
                .collect::<Vec<u8>>(),
        );
        let a = whole.slice(0..4 * FRAGMENT_SIZE);
        let b = whole.slice(4 * FRAGMENT_SIZE..8 * FRAGMENT_SIZE);
        let c = BlockBuf::from(vec![0xC0u8; 4 * FRAGMENT_SIZE]);
        s.put_batch(&[
            (Extent::new(e.start, 4), a),
            (Extent::new(e.start + 4, 4), b),
            (Extent::new(e.start + 8, 4), c.clone()),
        ])
        .unwrap();
        assert_eq!(s.stats().disk.write_ops, 1, "one merged reference");
        // The platter adopted the buffers: the reads are views of them.
        let back = s.get(Extent::new(e.start, 8)).unwrap();
        assert_eq!(back, whole);
        assert_eq!(back.as_ptr(), whole.as_ptr());
        let (got, _) = s
            .get_batch(&[Extent::new(e.start + 8, 4), Extent::new(e.start, 8)])
            .unwrap();
        assert_eq!(got[0].as_ptr(), c.as_ptr());
        assert_eq!(got[1].as_ptr(), whole.as_ptr());
        assert_eq!(s.stats().disk.bytes_copied, 0);
        // A read that spans the two allocations is the one gather-copy.
        assert_eq!(s.get(e).unwrap().len(), 12 * FRAGMENT_SIZE);
        assert_eq!(s.stats().disk.bytes_copied, 12 * FRAGMENT_SIZE as u64);
    }

    #[test]
    fn drop_caches_forces_next_read_to_disk_without_stable_scan() {
        let mut s = svc();
        let e = s.allocate_contiguous(4).unwrap();
        s.put(e, &vec![7u8; 4 * FRAGMENT_SIZE], StablePolicy::None)
            .unwrap();
        let stable_reads_before = s.stats().stable.read_ops + s.stats().stable.sector_reads;
        s.drop_caches();
        let r0 = s.stats().disk.read_ops;
        s.get(e).unwrap();
        assert!(s.stats().disk.read_ops > r0, "read went to disk");
        let stable_reads_after = s.stats().stable.read_ops + s.stats().stable.sector_reads;
        assert_eq!(stable_reads_before, stable_reads_after, "no stable scan");
    }
}
