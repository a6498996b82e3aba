//! The flat file service itself.
//!
//! Implements the paper's file operations (§5): `create`, `open`,
//! `delete`, `read`, `write`, `pread`, `pwrite`, `get-attribute` and
//! `close` (`lseek` is agent-side state), over one or more disk services,
//! with the three-step data location procedure: find the file service →
//! locate and cache the file index table → locate and cache the data
//! blocks.
//!
//! The service is cut along data ownership. The [`FitStore`] owns the
//! directory and the fragment pool (step two); the [`Volume`] owns the
//! disks and everything about which spindle a block lives on; what is
//! left here — the service core — owns the block pool (step three), the
//! byte-granular data path, the file lifecycle and the leases, and holds
//! no test of the redundancy class.

use crate::attrs::{FileAttributes, FileId, LockLevel, ServiceType};
use crate::cache::{BlockKey, CacheStats, ShardedBlockCache, WritePolicy};
use crate::config::FileServiceConfig;
use crate::error::FileServiceError;
use crate::fit::{BlockDescriptor, FileIndexTable};
use crate::lease::{LeaseGrant, LeaseManager, LeaseMode, LeaseToken, RecallAck};
use crate::parity::{ParityStats, RebuildReport};
use crate::plan::{Mode, WritePlan};
use crate::scrub::ScrubStats;
use crate::store::FitStore;
use crate::volume::Volume;
use rhodos_buf::BlockBuf;
use rhodos_disk_service::{
    DiskService, DiskServiceError, DiskServiceStats, Extent, FragmentAddr, BLOCK_SIZE,
    FRAGMENT_SIZE, FRAGS_PER_BLOCK,
};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Aggregated observability for a file service.
#[derive(Debug, Clone, Default)]
pub struct FileServiceStats {
    /// Block-pool cache behaviour, merged across shards.
    pub cache: CacheStats,
    /// Per-shard block-pool counters (empty when caching is disabled).
    /// Sums to `cache` field by field.
    pub cache_shards: Vec<CacheStats>,
    /// FIT fragments loaded from disk (step two of the location procedure).
    pub fit_loads: u64,
    /// FIT lookups served from the fragment pool.
    pub fit_cache_hits: u64,
    /// Cumulative background-scrubber counters.
    pub scrub: ScrubStats,
    /// Cumulative parity-tier counters (all zero without a parity
    /// tier): per-technique write counts, degraded reads, rebuild
    /// progress.
    pub parity: ParityStats,
    /// Per-disk statistics.
    pub disks: Vec<DiskServiceStats>,
}

impl FileServiceStats {
    /// Total disk references (reads + writes) across all disks, main
    /// storage only.
    pub fn total_disk_refs(&self) -> u64 {
        self.disks.iter().map(|d| d.disk.total_ops()).sum()
    }
}

/// The RHODOS basic file service over a set of disk servers.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug)]
pub struct FileService {
    /// The disks and the layout of files over them.
    pub(crate) volume: Volume,
    /// The directory and the fragment pool.
    pub(crate) store: FitStore,
    clock: SimClock,
    config: FileServiceConfig,
    pub(crate) cache: Option<Arc<ShardedBlockCache>>,
    /// Where the next budgeted scrub resumes on each disk. Volatile: a
    /// mount starts them at zero, which merely re-verifies.
    pub(crate) scrub_cursors: Vec<FragmentAddr>,
    /// Cumulative scrub counters across every pass since the mount.
    pub(crate) scrub_stats: ScrubStats,
    /// The lease protocol's server side: soft grant state, rebuilt by a
    /// mount from the lease record, and the recall endpoints.
    lease: LeaseManager,
}

impl FileService {
    /// The one way a server comes up: over `disks` and its configuration,
    /// every other field at its initial value — no file known, no lease,
    /// no count, an empty pool of its own. [`Self::format`] and
    /// [`Self::mount`] fill it in from there; a crash
    /// ([`Self::simulate_crash`]) leaves exactly this, with the wiring of
    /// the server before it.
    fn boot(disks: Vec<DiskService>, config: FileServiceConfig) -> Self {
        let volume = Volume::new(disks, &config);
        let clock = volume.disks()[0].clock();
        Self {
            scrub_cursors: vec![0; volume.disks().len()],
            volume,
            store: FitStore::default(),
            cache: (config.cache_blocks > 0).then(|| {
                Arc::new(ShardedBlockCache::new(
                    config.cache_blocks,
                    config.cache_shards,
                ))
            }),
            scrub_stats: ScrubStats::default(),
            lease: LeaseManager::new(clock.clone(), config.lease),
            clock,
            config,
        }
    }

    /// Creates a file service over freshly formatted `disks`.
    ///
    /// # Errors
    ///
    /// Fails if the directory region cannot be allocated or written.
    ///
    /// # Panics
    ///
    /// Panics if `disks` is empty, or if a parity redundancy geometry
    /// does not fit the disk count (`k >= 1`, `1 <= m <= 2`, at least
    /// `k + m` disks).
    pub fn format(
        disks: Vec<DiskService>,
        config: FileServiceConfig,
    ) -> Result<Self, FileServiceError> {
        let mut fs = Self::boot(disks, config);
        fs.store.format(&mut fs.volume)?;
        Ok(fs)
    }

    /// Brings up a file service over `disks` a server formatted with
    /// `config` left behind, from its platters alone: see
    /// [`Self::recover`] for what it reads. It has no recall endpoint.
    ///
    /// # Errors
    ///
    /// As [`Self::recover`].
    ///
    /// # Panics
    ///
    /// As [`Self::format`].
    pub fn mount(
        disks: Vec<DiskService>,
        config: FileServiceConfig,
    ) -> Result<Self, FileServiceError> {
        let mut fs = Self::boot(disks, config);
        fs.recover()?;
        Ok(fs)
    }

    /// Convenience: a service over one disk (with stable storage) of the
    /// given geometry.
    ///
    /// # Errors
    ///
    /// See [`Self::format`].
    pub fn single_disk(
        geometry: DiskGeometry,
        model: LatencyModel,
        clock: SimClock,
        config: FileServiceConfig,
    ) -> Result<Self, FileServiceError> {
        Self::striped(1, geometry, model, clock, config)
    }

    /// Convenience: a service striped over `ndisks` identical disks.
    ///
    /// # Errors
    ///
    /// See [`Self::format`].
    pub fn striped(
        ndisks: usize,
        geometry: DiskGeometry,
        model: LatencyModel,
        clock: SimClock,
        config: FileServiceConfig,
    ) -> Result<Self, FileServiceError> {
        let disks = (0..ndisks)
            .map(|_| DiskService::with_stable(geometry, model, clock.clone(), Default::default()))
            .collect();
        Self::format(disks, config)
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// The configuration the service was formatted with.
    pub fn config(&self) -> &FileServiceConfig {
        &self.config
    }

    /// A handle to the sharded block pool, if caching is enabled. The
    /// pool is wiring: a crash empties it in place and the recovered
    /// server keeps it, so the handle stays valid and lock-free readers
    /// may probe it without holding the service lock. A service built by
    /// [`Self::mount`] has a pool of its own.
    pub fn cache_handle(&self) -> Option<Arc<ShardedBlockCache>> {
        self.cache.clone()
    }

    /// Number of disks behind this service.
    pub fn disk_count(&self) -> usize {
        self.volume.disks().len()
    }

    /// Mutable access to disk `i` (fault injection in experiments).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn disk_mut(&mut self, i: usize) -> &mut DiskService {
        self.volume
            .disk(u16::try_from(i).expect("disk numbers fit a descriptor"))
    }

    /// Snapshot of all statistics.
    pub fn stats(&self) -> FileServiceStats {
        let (fit_loads, fit_cache_hits) = self.store.counters();
        FileServiceStats {
            cache: self.cache.as_ref().map(|c| c.stats()).unwrap_or_default(),
            cache_shards: self
                .cache
                .as_ref()
                .map(|c| c.shard_stats())
                .unwrap_or_default(),
            fit_loads,
            fit_cache_hits,
            scrub: self.scrub_stats,
            parity: self.volume.parity_stats(),
            disks: self.volume.disks().iter().map(|d| d.stats()).collect(),
        }
    }

    /// System names of all existing files, in order.
    pub fn file_ids(&self) -> Vec<FileId> {
        self.store.file_ids()
    }

    /// Whether `fid` exists.
    pub fn exists(&self, fid: FileId) -> bool {
        self.store.exists(fid)
    }

    /// The well-known system file (the transaction service's intention
    /// log), if one has been designated.
    pub fn system_file(&self) -> Option<FileId> {
        self.store.system_file()
    }

    /// Designates `fid` as the system file, persisted in the directory so
    /// it survives crashes.
    ///
    /// # Errors
    ///
    /// [`FileServiceError::NotFound`] if `fid` does not exist.
    pub fn set_system_file(&mut self, fid: FileId) -> Result<(), FileServiceError> {
        self.store.set_system_file(&mut self.volume, fid)
    }

    /// The attributes of `fid`, its FIT loaded into the fragment pool
    /// (counting one use of it).
    fn attrs(&mut self, fid: FileId) -> Result<&mut FileAttributes, FileServiceError> {
        Ok(&mut self.store.entry(&mut self.volume, fid)?.fit.attrs)
    }

    // ---- lifecycle operations -------------------------------------------

    /// `create`: makes a new file and returns its system name. The FIT is
    /// created dynamically, contiguous with the first data block when
    /// space permits (§5).
    ///
    /// # Errors
    ///
    /// Fails when the directory region is full or the disks are out of
    /// space.
    pub fn create(&mut self, service_type: ServiceType) -> Result<FileId, FileServiceError> {
        let attrs = FileAttributes::new(self.clock.now_us(), service_type);
        self.store.create(&mut self.volume, attrs)
    }

    /// `open`: bumps the reference count ("number of instances a file is
    /// opened simultaneously") in the store's open table and caches the
    /// FIT. Nothing is written: the count is soft state.
    ///
    /// # Errors
    ///
    /// [`FileServiceError::NotFound`] if the file does not exist.
    pub fn open(&mut self, fid: FileId) -> Result<(), FileServiceError> {
        self.store.open(&mut self.volume, fid)
    }

    /// `close`: [`Self::release`], then [`Self::flush_file`].
    ///
    /// # Errors
    ///
    /// [`FileServiceError::NotOpen`] if the file has no open instances.
    pub fn close(&mut self, fid: FileId) -> Result<(), FileServiceError> {
        self.release(fid)?;
        self.flush_file(fid)
    }

    /// Drops one reference and writes nothing: the file's dirty blocks
    /// stay in the pool. The transaction service closes this way — what
    /// its commits left dirty is covered by its log until write-back or a
    /// checkpoint takes it home.
    ///
    /// # Errors
    ///
    /// [`FileServiceError::NotOpen`] if the file has no open instances.
    pub fn release(&mut self, fid: FileId) -> Result<(), FileServiceError> {
        self.store.close(fid)
    }

    /// `delete`: removes a closed file and frees all its storage.
    ///
    /// # Errors
    ///
    /// [`FileServiceError::Busy`] while the file is open anywhere.
    pub fn delete(&mut self, fid: FileId) -> Result<(), FileServiceError> {
        self.store.entry(&mut self.volume, fid)?;
        if self.store.open_count(fid) > 0 {
            return Err(FileServiceError::Busy(fid));
        }
        if let Some(cache) = &self.cache {
            cache.invalidate_file(fid);
        }
        self.store.delete(&mut self.volume, fid)
    }

    /// `get-attribute`: the file-specific attributes from the FIT, and
    /// the reference count from the open table.
    ///
    /// # Errors
    ///
    /// [`FileServiceError::NotFound`] if the file does not exist.
    pub fn get_attribute(&mut self, fid: FileId) -> Result<FileAttributes, FileServiceError> {
        let ref_count = self.store.open_count(fid);
        Ok(FileAttributes {
            ref_count,
            ..*self.attrs(fid)?
        })
    }

    /// Sets the locking level recorded in the FIT (used by the transaction
    /// service).
    ///
    /// The caller sets the level on a file no transaction holds locks on:
    /// the transaction service keeps one lock table per level and checks a
    /// request against its own level's table only, so a file must not be
    /// locked at two levels at once (the paper's §6.1 constraint). Its one
    /// writer, `tcreate`, sets the level of a file it has just created.
    ///
    /// # Errors
    ///
    /// [`FileServiceError::NotFound`] if the file does not exist.
    pub fn set_lock_level(
        &mut self,
        fid: FileId,
        level: LockLevel,
    ) -> Result<(), FileServiceError> {
        self.attrs(fid)?.lock_level = level;
        self.store.persist(&mut self.volume, fid)
    }

    /// A snapshot of the file's index table (descriptor layout inspection
    /// for experiments and the transaction service).
    ///
    /// # Errors
    ///
    /// [`FileServiceError::NotFound`] if the file does not exist.
    pub fn fit_snapshot(&mut self, fid: FileId) -> Result<FileIndexTable, FileServiceError> {
        Ok(self.store.entry(&mut self.volume, fid)?.fit.clone())
    }

    // ---- data path -------------------------------------------------------

    /// The size of `fid`, which must be open.
    fn open_size(&mut self, fid: FileId) -> Result<u64, FileServiceError> {
        let size = self.attrs(fid)?.size;
        if self.store.open_count(fid) == 0 {
            return Err(FileServiceError::NotOpen(fid));
        }
        Ok(size)
    }

    /// Loads logical block `idx` of `fid` into the cache (if enabled) and
    /// returns a shared handle to its bytes. Contiguous neighbours within
    /// the same run are read ahead in the same disk reference, as many as
    /// the pool has free slots for: read-ahead never evicts, so a miss in
    /// a full pool transfers its own block only (the disk service's track
    /// cache still holds the rest of the track). Every block fetched
    /// (including the returned one) is a zero-copy view of the one
    /// transfer allocation. `began` is the pool clock when the read that
    /// fetches began — `None` inside a write (see [`Self::admit`]).
    fn fetch_block(
        &mut self,
        fid: FileId,
        idx: u64,
        began: Option<u64>,
    ) -> Result<BlockBuf, FileServiceError> {
        let mut room = u64::MAX;
        if let Some(cache) = &self.cache {
            if let Some(b) = cache.get(&(fid, idx)) {
                return Ok(b);
            }
            room = cache.free_slots() as u64;
        }
        let data = self.volume.read_run(&mut self.store, fid, idx, room)?;
        let block = |j: usize| data.slice(j * BLOCK_SIZE..(j + 1) * BLOCK_SIZE);
        let blocks = (0..data.len() / BLOCK_SIZE).map(|j| (idx + j as u64, block(j)));
        self.admit(fid, blocks, began)?;
        Ok(data.slice(0..BLOCK_SIZE.min(data.len())))
    }

    /// The pool clock now, as a read's `began`.
    fn read_began(&self) -> Option<u64> {
        self.cache.as_ref().map(|c| c.clock())
    }

    /// Admits freshly fetched blocks of `fid` to the pool and writes back
    /// what that evicted. A block that is already resident is never
    /// clobbered — it may hold newer delayed-write data — and residency is
    /// decided once, at transfer time: an insert below can evict a
    /// still-dirty neighbour fetched in the same transfer (whose
    /// write-back makes the platter newer than the transfer), and
    /// re-checking at insert time would then re-admit the stale
    /// pre-eviction bytes as clean. A fetch for a read (`began` is the
    /// pool clock when it began) writes its files' dirty tails behind its
    /// evictions; one inside a write (`None`) writes its evictions only
    /// (see [`Self::write_back_evicted`]).
    fn admit(
        &mut self,
        fid: FileId,
        fetched: impl IntoIterator<Item = (u64, BlockBuf)>,
        began: Option<u64>,
    ) -> Result<(), FileServiceError> {
        let Some(cache) = &self.cache else {
            return Ok(());
        };
        let absent = |(idx, _): &(u64, BlockBuf)| !cache.contains(&(fid, *idx));
        let absent: Vec<_> = fetched.into_iter().filter(absent).collect();
        let mut evicted = Vec::new();
        for (idx, block) in absent {
            evicted.extend(cache.insert((fid, idx), block, false));
        }
        self.write_back_evicted(evicted, began)
    }

    /// Puts a block that is on its way to the platter in the pool, clean,
    /// over whatever version was resident.
    fn admit_written(&mut self, key: BlockKey, data: BlockBuf) -> Result<(), FileServiceError> {
        let Some(cache) = &self.cache else {
            return Ok(());
        };
        let evicted = cache.insert(key, data, false);
        self.write_back_evicted(evicted, None)
    }

    /// Writes back the dirty blocks the pool evicted while serving one
    /// request — the last version of each key, in key order — as one
    /// batch. Callers collect their evictions and hand them over once,
    /// under three rules: the list reaches the platter before the same
    /// request reads any block from it (the evicted block may be the one
    /// fetched); a key evicted twice keeps only its last version (batch
    /// extents must not overlap); and the request fails if the write-back
    /// does, as it did when each eviction was written back on its own.
    ///
    /// A read (`began` is the pool clock when it began) also writes
    /// behind: the batch carries the dirty blocks of every file it
    /// evicted a dirty block of that the pool would write back before it
    /// next evicts a clean one ([`ShardedBlockCache::take_write_behind`]).
    /// They stay resident, clean, so the reads after this one evict clean
    /// blocks. If the batch fails they are dirty again. Write paths pass
    /// `None` and write their evictions only: a writer's pool is mostly
    /// dirty, so the search would walk far for few blocks.
    fn write_back_evicted(
        &mut self,
        evicted: Vec<(BlockKey, BlockBuf)>,
        began: Option<u64>,
    ) -> Result<(), FileServiceError> {
        if evicted.is_empty() {
            return Ok(());
        }
        let mut behind = Vec::new();
        if let (Some(cache), Some(began)) = (&self.cache, began) {
            let mut fids: Vec<FileId> = evicted.iter().map(|((fid, _), _)| *fid).collect();
            fids.sort_unstable();
            fids.dedup();
            behind = cache.take_write_behind(&fids, began);
        }
        let keys: Vec<BlockKey> = behind.iter().map(|(k, _)| *k).collect();
        let last: BTreeMap<BlockKey, BlockBuf> = evicted.into_iter().chain(behind).collect();
        let written = self.write_out(Mode::Batch, last);
        if let (Err(_), Some(cache)) = (&written, &self.cache) {
            keys.iter().for_each(|k| cache.mark_dirty(k));
        }
        written
    }

    /// `read`/`pread`: returns up to `len` bytes from `offset` (clamped at
    /// end of file).
    ///
    /// # Errors
    ///
    /// [`FileServiceError::NotOpen`] if the file is not open;
    /// [`FileServiceError::BeyondEof`] if `offset` is past the end.
    pub fn read(
        &mut self,
        fid: FileId,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, FileServiceError> {
        let size = self.open_size(fid)?;
        let mut out = vec![0u8; len.min(size.saturating_sub(offset) as usize)];
        let n = self.read_into(fid, offset, &mut out)?;
        debug_assert_eq!(n, out.len());
        Ok(out)
    }

    /// `read` into a caller-supplied buffer: fills `out` from `offset`
    /// (clamped at end of file) with exactly one copy per byte —
    /// cache/transfer buffer → `out`. Returns the bytes filled.
    ///
    /// # Errors
    ///
    /// As [`Self::read`].
    pub fn read_into(
        &mut self,
        fid: FileId,
        offset: u64,
        out: &mut [u8],
    ) -> Result<usize, FileServiceError> {
        let size = self.open_size(fid)?;
        if offset > size {
            return Err(FileServiceError::BeyondEof { fid, offset, size });
        }
        let len = out.len().min((size - offset) as usize);
        if len == 0 {
            return Ok(0);
        }
        let first = offset / BLOCK_SIZE as u64;
        let last = (offset + len as u64 - 1) / BLOCK_SIZE as u64;
        let blocks = self.fetch_window(fid, first, last)?;
        let mut filled = 0usize;
        for (block, idx) in blocks.iter().zip(first..=last) {
            let block_start = idx * BLOCK_SIZE as u64;
            let lo = offset.max(block_start) - block_start;
            let hi = (offset + len as u64).min(block_start + BLOCK_SIZE as u64) - block_start;
            let n = (hi - lo) as usize;
            out[filled..filled + n].copy_from_slice(&block[lo as usize..hi as usize]);
            filled += n;
        }
        self.store.loaded_mut(fid).fit.attrs.last_read_us = self.clock.now_us();
        Ok(filled)
    }

    /// Fetches logical blocks `first..=last` of the resident file `fid`,
    /// returning one view per block. Cache hits are refcount bumps; the
    /// misses go to the volume as one window. Reached from reads only, so
    /// its fetches write behind.
    fn fetch_window(
        &mut self,
        fid: FileId,
        first: u64,
        last: u64,
    ) -> Result<Vec<BlockBuf>, FileServiceError> {
        let began = self.read_began();
        if first == last || !self.volume.batches_windows() {
            // A single block goes through the run-fetching path, which
            // reads ahead as much of the block's contiguous run as the
            // pool has free slots for — as does every block of a window
            // the volume does not batch.
            return (first..=last)
                .map(|idx| self.fetch_block(fid, idx, began))
                .collect();
        }
        let mut blocks: BTreeMap<u64, BlockBuf> = BTreeMap::new();
        if let Some(cache) = &self.cache {
            blocks.extend((first..=last).filter_map(|idx| Some((idx, cache.get(&(fid, idx))?))));
        }
        let misses: Vec<u64> = (first..=last)
            .filter(|idx| !blocks.contains_key(idx))
            .collect();
        let fit = &self.store.loaded(fid).fit;
        let (fetched, deferred) = self.volume.read_window(fit, fid, &misses)?;
        blocks.extend(fetched.iter().cloned());
        self.admit(fid, fetched, began)?;
        // What the batch could not carry is fetched block by block, after
        // the batch's evictions have reached the platter.
        for idx in deferred {
            blocks.insert(idx, self.fetch_block(fid, idx, began)?);
        }
        Ok(blocks.into_values().collect())
    }

    /// `write`/`pwrite`: writes `data` at `offset`, growing the file as
    /// needed. Under [`WritePolicy::DelayedWrite`] the data may sit in the
    /// block pool until a flush; under [`WritePolicy::WriteThrough`] it is
    /// on disk when this returns.
    ///
    /// `data` is anything convertible to a [`BlockBuf`]: passing an owned
    /// `Vec<u8>` (or a `BlockBuf`) lets block-aligned spans be *adopted*
    /// into the cache as zero-copy views of the caller's allocation;
    /// borrowed slices are copied in once.
    ///
    /// # Errors
    ///
    /// [`FileServiceError::NotOpen`] if the file is not open; disk errors
    /// on allocation or transfer failures.
    pub fn write(
        &mut self,
        fid: FileId,
        offset: u64,
        data: impl Into<BlockBuf>,
    ) -> Result<(), FileServiceError> {
        self.write_vectored(fid, None, &[(offset, data.into())])
    }

    /// The one write body: applies `runs` — `(offset, data)` pairs, in
    /// order, so a later run overwrites an earlier one where they overlap
    /// — as a single request. The file grows once to the furthest end,
    /// the FIT is persisted once, and every dirty block the pool evicts
    /// on the way goes to the spindles as one batch. With a `token` this
    /// is a delegated writeback, gated on the write lease being live —
    /// checked once, so a dead token rejects the whole request.
    ///
    /// # Errors
    ///
    /// As [`Self::write`]; [`FileServiceError::LeaseFenced`] if the token
    /// is dead — a recall fenced it, it was superseded, or it belongs to
    /// a pre-crash epoch. No run is applied then.
    pub fn write_vectored(
        &mut self,
        fid: FileId,
        token: Option<&LeaseToken>,
        runs: &[(u64, BlockBuf)],
    ) -> Result<(), FileServiceError> {
        if let Some(token) = token {
            if !self.lease.validate(token, true) {
                self.lease.note_fenced_writeback();
                return Err(FileServiceError::LeaseFenced(fid));
            }
        }
        let old_size = self.open_size(fid)?;
        let new_size = runs
            .iter()
            .filter(|(_, data)| !data.is_empty())
            .map(|(offset, data)| offset + data.len() as u64)
            .fold(old_size, u64::max);
        let entry = self.store.loaded_mut(fid);
        let old_blocks = entry.fit.block_count();
        self.volume
            .grow(fid, entry, new_size.div_ceil(BLOCK_SIZE as u64))?;
        let mut evicted: Vec<(BlockKey, BlockBuf)> = Vec::new();
        let applied = self.insert_runs(fid, runs, old_size, &mut evicted);
        // What the pool evicted is written back even when a run failed.
        let written_back = self.write_back_evicted(evicted, None);
        applied.and(written_back)?;
        let fit = &mut self.store.loaded_mut(fid).fit;
        fit.attrs.size = new_size;
        // The FIT only needs re-persisting when the metadata changed —
        // overwrites in place leave it untouched.
        if new_size != old_size || fit.block_count() != old_blocks {
            self.store.persist(&mut self.volume, fid)?;
        }
        Ok(())
    }

    /// The per-block loop of [`Self::write_vectored`] over an already
    /// grown file: every block of every run goes into the pool (or
    /// through it), and the dirty blocks that displaces are left in
    /// `evicted` for the caller to write back.
    fn insert_runs(
        &mut self,
        fid: FileId,
        runs: &[(u64, BlockBuf)],
        old_size: u64,
        evicted: &mut Vec<(BlockKey, BlockBuf)>,
    ) -> Result<(), FileServiceError> {
        // Bytes below `written_to` exist: on the platter, in the pool, or
        // among this request's evictions.
        let mut written_to = old_size;
        for (offset, data) in runs.iter().filter(|(_, data)| !data.is_empty()) {
            let (offset, end) = (*offset, offset + data.len() as u64);
            for idx in offset / BLOCK_SIZE as u64..=(end - 1) / BLOCK_SIZE as u64 {
                let block_start = idx * BLOCK_SIZE as u64;
                let lo = offset.max(block_start);
                let hi = end.min(block_start + BLOCK_SIZE as u64);
                let full_block = lo == block_start && hi == block_start + BLOCK_SIZE as u64;
                let src_lo = (lo - offset) as usize;
                let src_hi = (hi - offset) as usize;
                // Blocks that existed before and are partially overwritten
                // need their old contents (read-modify-write).
                let block: BlockBuf = if full_block {
                    // Block-aligned span: adopt the caller's bytes as a view —
                    // consecutive blocks of one write share one allocation.
                    data.slice(src_lo..src_hi)
                } else {
                    let mut block = if block_start < written_to {
                        // The fetch reads the platter, and the block may be
                        // among the evictions still pending.
                        self.write_back_evicted(std::mem::take(evicted), None)?;
                        // Read-modify-write. If the old block is unreadable
                        // (media fault) its remaining bytes are already lost —
                        // proceed with zeros so the overwrite can repair it.
                        match self.fetch_block(fid, idx, None) {
                            Ok(b) => b,
                            Err(FileServiceError::Disk(_)) => BlockBuf::zeroed(BLOCK_SIZE),
                            Err(e) => return Err(e),
                        }
                    } else {
                        BlockBuf::zeroed(BLOCK_SIZE)
                    };
                    block.make_mut()[(lo - block_start) as usize..(hi - block_start) as usize]
                        .copy_from_slice(&data[src_lo..src_hi]);
                    block
                };
                // A delayed write stays in the pool, dirty; any other goes
                // through it — the clone is a refcount bump, so cache and
                // disk see the same allocation.
                let delayed =
                    self.cache.is_some() && self.config.write_policy == WritePolicy::DelayedWrite;
                if let Some(cache) = &self.cache {
                    evicted.extend(cache.insert((fid, idx), block.clone(), delayed));
                }
                if !delayed {
                    self.write_out(Mode::OneAtATime, [((fid, idx), block)])?;
                }
            }
            written_to = written_to.max(end);
        }
        Ok(())
    }

    /// Flushes the file's dirty blocks, grouping physically contiguous
    /// blocks into single disk references.
    ///
    /// # Errors
    ///
    /// Propagates disk failures; remaining dirty blocks are lost in that
    /// case (as they would be on a real device error).
    pub fn flush_file(&mut self, fid: FileId) -> Result<(), FileServiceError> {
        let dirty = match &self.cache {
            Some(c) => c.take_dirty_for(fid),
            None => return Ok(()),
        };
        self.write_out(Mode::Batch, dirty)
    }

    /// Flushes every dirty block in the pool.
    ///
    /// # Errors
    ///
    /// Propagates disk failures.
    pub fn flush_all(&mut self) -> Result<(), FileServiceError> {
        let dirty = match &self.cache {
            Some(c) => c.take_dirty(),
            None => return Ok(()),
        };
        self.write_out(Mode::Batch, dirty)
    }

    /// Writes whole blocks of files to their homes: blocks of deleted or
    /// truncated files are dropped.
    fn write_out(
        &mut self,
        mode: Mode,
        blocks: impl IntoIterator<Item = (BlockKey, BlockBuf)>,
    ) -> Result<(), FileServiceError> {
        let mut data =
            (blocks.into_iter()).map(|((fid, idx), buf)| ((fid, idx * FRAGS_PER_BLOCK), buf));
        self.volume
            .submit(WritePlan::Data(mode, &mut self.store, &mut data))
    }

    // ---- hooks for the transaction service -----------------------------

    /// Grows the file (blocks and recorded size) to at least `size` bytes
    /// without writing data — newly covered bytes read as zeros. Used by
    /// the transaction service when committing writes past the old end of
    /// file.
    ///
    /// # Errors
    ///
    /// Allocation or persistence failures.
    pub fn ensure_size(&mut self, fid: FileId, size: u64) -> Result<(), FileServiceError> {
        let entry = self.store.entry(&mut self.volume, fid)?;
        if entry.fit.attrs.size >= size {
            return Ok(());
        }
        self.volume
            .grow(fid, entry, size.div_ceil(BLOCK_SIZE as u64))?;
        entry.fit.attrs.size = size;
        self.store.persist(&mut self.volume, fid)
    }

    /// Reads one whole logical block as a shared handle — a cache hit is
    /// a refcount bump, not a copy.
    ///
    /// # Errors
    ///
    /// Fails if the block does not exist or the disk fails.
    pub fn read_block(&mut self, fid: FileId, idx: u64) -> Result<BlockBuf, FileServiceError> {
        let entry = self.store.entry(&mut self.volume, fid)?;
        if entry.fit.descriptor(idx).is_none() {
            return Err(FileServiceError::Corrupt(fid));
        }
        self.fetch_block(fid, idx, self.read_began())
    }

    /// Reads whole logical blocks `first..=last` as shared handles, one
    /// per block: pool hits are refcount bumps and the misses go to the
    /// spindles as one batch — the window form of [`Self::read_block`].
    ///
    /// A window that reaches past the file's last block returns only the
    /// blocks that exist (possibly none): a client that buffers writes
    /// knows a larger file than the server does, and what the server has
    /// no descriptor for yet is a hole, not damage.
    ///
    /// # Errors
    ///
    /// Fails on an empty window (`first > last`) or if a disk fails.
    pub fn read_blocks(
        &mut self,
        fid: FileId,
        first: u64,
        last: u64,
    ) -> Result<Vec<BlockBuf>, FileServiceError> {
        let count = self.store.entry(&mut self.volume, fid)?.fit.block_count();
        if first > last {
            return Err(FileServiceError::Corrupt(fid));
        }
        if first >= count {
            return Ok(Vec::new());
        }
        self.fetch_window(fid, first, last.min(count - 1))
    }

    /// [`Self::read`] as a server without a block pool makes it: the
    /// pool is neither searched nor filled — the read twin of
    /// [`Self::write_sectors`], for a file written that way, which the
    /// pool never holds.
    ///
    /// # Errors
    ///
    /// As [`Self::read`].
    pub fn read_through(
        &mut self,
        fid: FileId,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, FileServiceError> {
        let pool = self.cache.take();
        let read = self.read(fid, offset, len);
        self.cache = pool;
        read
    }

    /// Allocates a detached block (shadow page home) on the file's home
    /// disk and returns its location.
    ///
    /// # Errors
    ///
    /// Disk allocation failures.
    pub fn allocate_shadow_block(
        &mut self,
        fid: FileId,
    ) -> Result<(u16, FragmentAddr), FileServiceError> {
        let home = self.store.entry(&mut self.volume, fid)?.home;
        // Shadow pages come from the top of the disk so they never
        // fragment the low region where files grow contiguously.
        let e = self
            .volume
            .disk(home)
            .allocate_contiguous_top(FRAGS_PER_BLOCK)?;
        Ok((home, e.start))
    }

    /// Frees a detached block previously obtained from
    /// [`Self::allocate_shadow_block`].
    ///
    /// # Errors
    ///
    /// Disk failures.
    pub fn free_detached_block(
        &mut self,
        disk: u16,
        addr: FragmentAddr,
    ) -> Result<(), FileServiceError> {
        Ok(self
            .volume
            .disk(disk)
            .free(Extent::new(addr, FRAGS_PER_BLOCK))?)
    }

    /// Writes raw data to a detached block. Nothing goes to stable
    /// storage: the commit record that will point at the block is what
    /// the log makes durable.
    ///
    /// # Errors
    ///
    /// Disk failures.
    pub fn put_detached_block(
        &mut self,
        disk: u16,
        addr: FragmentAddr,
        data: &[u8],
    ) -> Result<(), FileServiceError> {
        let block = [(disk, Extent::new(addr, FRAGS_PER_BLOCK), data)];
        self.volume
            .submit(WritePlan::Extents(Mode::OneAtATime, &block))
    }

    /// Reads many detached blocks in one scheduler pass: one elevator
    /// batch per spindle under makespan clock accounting, exactly like
    /// the read window path. Results come back in input order.
    ///
    /// # Errors
    ///
    /// Disk failures.
    pub fn get_detached_blocks(
        &mut self,
        locs: &[(u16, FragmentAddr)],
    ) -> Result<Vec<BlockBuf>, FileServiceError> {
        self.volume.get_blocks(locs)
    }

    /// Writes a set of whole logical blocks write-through in one
    /// scheduler pass (a whole committed page is made permanent at its
    /// commit, §6.7). The blocks are inserted into the pool and the disk
    /// writes are resolved and handed to the per-spindle schedulers as
    /// one batch per disk, so physically adjacent blocks — across files —
    /// merge into single disk references in elevator order.
    ///
    /// # Errors
    ///
    /// Disk failures.
    pub fn write_blocks(
        &mut self,
        mut writes: Vec<(FileId, u64, BlockBuf)>,
    ) -> Result<(), FileServiceError> {
        if writes.is_empty() {
            return Ok(());
        }
        // Sorted order lets the pre-scheduler baseline join consecutive
        // blocks.
        writes.sort_by_key(|&(fid, idx, _)| (fid, idx));
        let mut evicted = Vec::new();
        for (fid, idx, data) in &writes {
            self.store.entry(&mut self.volume, *fid)?;
            if let Some(cache) = &self.cache {
                evicted.extend(cache.insert((*fid, *idx), data.clone(), false));
            }
        }
        // Evictions first: an evicted key may be rewritten by the batch.
        self.write_back_evicted(evicted, None)?;
        let blocks = writes
            .into_iter()
            .map(|(fid, idx, data)| ((fid, idx), data));
        self.write_out(Mode::Batch, blocks)
    }

    /// Writes whole sectors of `fid` write-through, from the file's
    /// sector `first` on, in one scheduler pass: adjacent sectors merge
    /// into one disk reference, and the disks keep each buffer as that
    /// sector's copy, so each should be an allocation of its own. The
    /// pool drops every block this touches, dirty or not, and admits none:
    /// a file written this way lives on the platter, and a later read
    /// fetches it from there. On the parity tier each touched block is
    /// written whole, its other sectors read from the platter first.
    ///
    /// # Errors
    ///
    /// [`FileServiceError::Corrupt`] for a sector past the file's blocks;
    /// [`DiskServiceError::SizeMismatch`] for a buffer that is not one
    /// sector; disk failures.
    pub fn write_sectors(
        &mut self,
        fid: FileId,
        first: u64,
        sectors: Vec<BlockBuf>,
    ) -> Result<(), FileServiceError> {
        if let Some(bad) = sectors.iter().find(|s| s.len() != FRAGMENT_SIZE) {
            let (expected, got) = (FRAGMENT_SIZE, bad.len());
            return Err(DiskServiceError::SizeMismatch { expected, got }.into());
        }
        let end = first + sectors.len() as u64;
        let blocks = first / FRAGS_PER_BLOCK..end.div_ceil(FRAGS_PER_BLOCK);
        let count = self.store.entry(&mut self.volume, fid)?.fit.block_count();
        if end > first && blocks.end > count {
            return Err(FileServiceError::Corrupt(fid));
        }
        if let Some(cache) = &self.cache {
            blocks.for_each(|idx| cache.invalidate(&(fid, idx)));
        }
        let mut data = (first..).zip(sectors).map(|(s, buf)| ((fid, s), buf));
        self.volume
            .submit(WritePlan::Data(Mode::Batch, &mut self.store, &mut data))
    }

    /// Swings the descriptor of logical block `idx` to a new location
    /// (shadow-page commit) and returns the old one for the caller to
    /// free. Persists the FIT and drops the cached copy of that block —
    /// of that block only: the file's other dirty blocks may hold
    /// committed records that have not reached the platter.
    ///
    /// # Errors
    ///
    /// Fails if the block does not exist or persistence fails.
    pub fn replace_block_descriptor(
        &mut self,
        fid: FileId,
        idx: u64,
        disk: u16,
        addr: FragmentAddr,
    ) -> Result<(u16, FragmentAddr), FileServiceError> {
        let old = self.store.entry(&mut self.volume, fid)?.fit.descriptor(idx);
        let old = old.ok_or(FileServiceError::Corrupt(fid))?;
        if let Some(cache) = &self.cache {
            cache.invalidate(&(fid, idx));
        }
        self.volume
            .swing_descriptor(&mut self.store, fid, idx, disk, addr)?;
        Ok((old.disk, old.addr))
    }

    // ---- leases ---------------------------------------------------------

    /// The server-side lease table (stats, epoch, event log).
    pub fn lease_manager(&self) -> &LeaseManager {
        &self.lease
    }

    /// The server-side lease table, mutably: agents attach their recall
    /// endpoints and release grants through it, and the transaction
    /// service runs the recall round and claims the epoch through it,
    /// then [`Self::record_leases`].
    pub fn lease_manager_mut(&mut self) -> &mut LeaseManager {
        &mut self.lease
    }

    /// Grants `client` a lease on `fid` through the lease manager's
    /// recall round ([`LeaseManager::acquire`]) and applies and flushes
    /// what the recalled holders surrendered before returning, so the
    /// grantee always starts from the latest durable bytes. Returns the
    /// grant plus the file's current size (delegated extends may have
    /// grown it since the grantee's `open`).
    ///
    /// # Errors
    ///
    /// [`FileServiceError::NotFound`] if the file does not exist; disk
    /// errors applying recalled writebacks.
    pub fn lease_acquire(
        &mut self,
        client: u64,
        fid: FileId,
        mode: LeaseMode,
    ) -> Result<(LeaseGrant, u64), FileServiceError> {
        self.attrs(fid)?;
        let (grant, acks) = self.lease.acquire(client, fid, mode);
        self.record_leases()?;
        for ack in acks {
            self.lease_apply_recalled(fid, ack)?;
        }
        Ok((grant, self.attrs(fid)?.size))
    }

    /// Applies a recalled holder's buffered delayed writes and flushes
    /// them to the platter, so a crash immediately after the recall
    /// cannot lose what the holder surrendered.
    ///
    /// # Errors
    ///
    /// Disk failures applying the writes.
    pub fn lease_apply_recalled(
        &mut self,
        fid: FileId,
        ack: RecallAck,
    ) -> Result<(), FileServiceError> {
        if ack.runs.is_empty() {
            return Ok(());
        }
        self.write_vectored(fid, None, &ack.runs)?;
        self.flush_file(fid)
    }

    /// Extends a lease the server still holds, lapsed or not, by one term.
    ///
    /// # Errors
    ///
    /// [`FileServiceError::LeaseRejected`] if the token is dead; the
    /// client must re-acquire.
    pub fn lease_renew(&mut self, token: &LeaseToken) -> Result<u64, FileServiceError> {
        let now = self.clock.now_us();
        self.lease
            .renew(token, now)
            .ok_or(FileServiceError::LeaseRejected(token.fid))
    }

    /// Reconstructs a grant from a client's reattach claim after a
    /// crash (see [`LeaseManager::reattach`]).
    ///
    /// # Errors
    ///
    /// [`FileServiceError::LeaseRejected`] if the window has closed, the
    /// claim's epoch is stale, or a competing claim was granted later;
    /// disk errors writing the lease record.
    pub fn lease_reattach(
        &mut self,
        token: &LeaseToken,
        mode: LeaseMode,
    ) -> Result<LeaseGrant, FileServiceError> {
        let now = self.clock.now_us();
        let grant = self.lease.reattach(now, token, mode);
        self.record_leases()?;
        grant.ok_or(FileServiceError::LeaseRejected(token.fid))
    }

    // ---- crash and recovery ---------------------------------------------

    /// Drops every cached file index table and cached block (losing
    /// nothing — a FIT is persisted whenever it changes; dirty blocks are
    /// flushed first; open files stay open). Used by experiments that need to measure cold-start disk
    /// reference counts.
    ///
    /// # Errors
    ///
    /// Propagates flush failures.
    pub fn evict_caches(&mut self) -> Result<(), FileServiceError> {
        self.flush_all()?;
        self.store.evict_all();
        if let Some(cache) = &self.cache {
            cache.clear();
        }
        self.volume.drop_caches();
        Ok(())
    }

    /// Simulates a file-server crash: the server keeps its disks and its
    /// wiring — clock, configuration, the block pool's handle, emptied,
    /// and the recall endpoints — and nothing else. Until
    /// [`Self::recover`] it knows no file.
    pub fn simulate_crash(&mut self) {
        let mut booted = Self::boot(std::mem::take(&mut self.volume.disks), self.config);
        if let Some(cache) = &self.cache {
            cache.clear();
        }
        booted.cache = self.cache.take();
        booted.lease.targets = std::mem::take(&mut self.lease.targets);
        *self = booted;
    }

    /// Mounts the service in place, as [`Self::mount`] over its own disks
    /// and wiring: crashes it ([`Self::simulate_crash`]), repairs the disks
    /// and stable mirrors, reloads the directory (from main storage,
    /// falling back to the stable copy) with the server record in its
    /// header — the lease record, from which the lease manager is rebuilt
    /// an epoch later, and the degraded disks — reloads every FIT in
    /// `FileId` order, and rebuilds the allocation bitmaps from what each
    /// of them owns — the fsck pass. It reads the platter and writes only
    /// what the volume recomputes from it, so a recovery interrupted by a
    /// second crash is simply run again.
    ///
    /// # Errors
    ///
    /// Fails if the directory is unrecoverable from both copies, or a
    /// file's index table from all of its.
    pub fn recover(&mut self) -> Result<(), FileServiceError> {
        self.simulate_crash();
        self.volume.recover_disks()?;
        let owned = self.store.mount(&mut self.volume)?;
        let (record, now) = (&self.store.lease, self.clock.now_us());
        let mounted = LeaseManager::from_record(self.clock.clone(), self.config.lease, record, now);
        self.lease.targets = std::mem::replace(&mut self.lease, mounted).targets;
        self.volume.after_recover(&mut self.store, owned)
    }

    /// Writes [`LeaseManager::record`] into the directory header if a
    /// call changed it since it was last written: every caller of the
    /// manager's recall round, reattach or epoch claim does, before the
    /// answer leaves the server.
    ///
    /// # Errors
    ///
    /// Disk errors writing the directory.
    pub fn record_leases(&mut self) -> Result<(), FileServiceError> {
        let old = std::mem::replace(&mut self.store.lease, self.lease.record());
        if old != self.store.lease {
            self.store.persist_directory(&mut self.volume)?;
        }
        Ok(())
    }

    // ---- repair hooks (replication peers, fsck) --------------------------

    /// Rewrites data block `block` of `fid` from `data` (a replication
    /// peer's copy), healing a fault the local scrub could not repair.
    /// The write lands through the normal put path, so the quarantined
    /// sector is remapped to a spare.
    ///
    /// # Errors
    ///
    /// [`FileServiceError::NotFound`] if the file or block does not
    /// exist; otherwise propagates disk failures.
    pub fn rewrite_block(
        &mut self,
        fid: FileId,
        block: u64,
        data: &[u8],
    ) -> Result<(), FileServiceError> {
        self.volume
            .rewrite_block(&mut self.store, fid, block, data)?;
        // The peer's copy is now the on-disk truth; a stale resident
        // block must not shadow it.
        self.admit_written((fid, block), data.to_vec().into())
    }

    /// Reads data block `block` of `fid` directly (cache first, then
    /// disk), for replication peer-repair. Returns `None` when the block
    /// is unreadable here too.
    pub fn read_block_for_repair(&mut self, fid: FileId, block: u64) -> Option<Vec<u8>> {
        self.attrs(fid).ok()?;
        if let Some(buf) = self.cache.as_ref().and_then(|c| c.peek(&(fid, block))) {
            return Some(buf.to_vec());
        }
        self.volume.read_for_repair(&mut self.store, fid, block)
    }

    /// Clamps `fid`'s recorded size to at most `to` bytes and persists
    /// the FIT (fsck repair of `SizeBeyondBlocks`).
    pub(crate) fn clamp_size(&mut self, fid: FileId, to: u64) -> Result<(), FileServiceError> {
        let attrs = self.attrs(fid)?;
        attrs.size = attrs.size.min(to);
        self.store.persist(&mut self.volume, fid)
    }

    /// Recomputes every contiguity count of `fid` from the physical
    /// layout and persists the FIT (fsck repair of `BadContiguityCount`).
    pub(crate) fn rebuild_contiguity(&mut self, fid: FileId) -> Result<(), FileServiceError> {
        let entry = self.store.entry(&mut self.volume, fid)?;
        entry.fit.rebuild_contiguity();
        self.store.persist(&mut self.volume, fid)
    }

    /// Descriptors of every block of `fid` (experiment support: layout
    /// inspection without copying the whole FIT).
    ///
    /// # Errors
    ///
    /// [`FileServiceError::NotFound`] if the file does not exist.
    pub fn block_descriptors(
        &mut self,
        fid: FileId,
    ) -> Result<Vec<BlockDescriptor>, FileServiceError> {
        let entry = self.store.entry(&mut self.volume, fid)?;
        Ok(entry.fit.descriptors().to_vec())
    }

    // ---- whole-disk loss (the volume's redundancy tier) -------------------

    /// Simulates the total loss of `disk` on the parity tier: a blank
    /// spare of the same geometry is swapped in, the disk is marked
    /// degraded, and every extent the metadata claims there is
    /// re-pinned on the spare (so rebuild writes land at the pinned
    /// addresses and new allocations avoid them). Metadata homed on
    /// the lost disk — directory, FIT fragments, indirect tables — is
    /// re-persisted from memory immediately; data and parity units are
    /// reconstructed by [`Self::rebuild`], and transparently on demand
    /// by degraded reads until it finishes.
    ///
    /// # Errors
    ///
    /// Metadata re-persistence failures.
    ///
    /// # Panics
    ///
    /// Panics without a parity redundancy config, or when `disk` is
    /// out of range.
    pub fn fail_disk(&mut self, disk: usize) -> Result<(), FileServiceError> {
        self.volume.fail_disk(&mut self.store, disk)
    }

    /// Budgeted online rebuild: reconstructs the stripe units homed on
    /// each degraded disk onto its spare, at most `budget` units per
    /// call (`None` = run to completion), resuming where the last call
    /// left off while foreground traffic continues. A disk whose last
    /// unit lands leaves degraded state; the report says how many
    /// units were written and whether every disk is clean again.
    ///
    /// # Errors
    ///
    /// [`FileServiceError::ParityLost`] when a row has lost more units
    /// than its parity covers; disk failures.
    pub fn rebuild(&mut self, budget: Option<u64>) -> Result<RebuildReport, FileServiceError> {
        self.volume.rebuild(&mut self.store, budget)
    }

    /// Per-disk degraded flags: `true` while a swapped-in spare is
    /// still being rebuilt from the parity groups.
    pub fn degraded_disks(&self) -> &[bool] {
        self.volume.degraded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::FIT_POOL_ENTRIES;
    use crate::{ParallelIo, Redundancy, StripePolicy};
    use rhodos_disk_service::StablePolicy;
    use rhodos_simdisk::DiskError;

    fn fs() -> FileService {
        FileService::single_disk(
            DiskGeometry::medium(),
            LatencyModel::default(),
            SimClock::new(),
            FileServiceConfig::default(),
        )
        .unwrap()
    }

    fn create_open(fs: &mut FileService) -> FileId {
        let fid = fs.create(ServiceType::Basic).unwrap();
        fs.open(fid).unwrap();
        fid
    }

    /// A run fetch must not resurrect stale platter bytes over a dirty
    /// neighbour it evicted mid-insert. With a one-block pool: write two
    /// contiguous blocks delayed (block 1 ends up dirty-resident, its
    /// platter copy stale), then demand-miss block 0 — the run transfer
    /// carries block 1's stale bytes, and inserting block 0 evicts dirty
    /// block 1. The follow-up read of block 1 must see the written data,
    /// not the pre-write-back transfer view.
    #[test]
    fn run_fetch_does_not_resurrect_stale_bytes_over_evicted_dirty_neighbour() {
        let mut f = FileService::single_disk(
            DiskGeometry::medium(),
            LatencyModel::default(),
            SimClock::new(),
            FileServiceConfig {
                cache_blocks: 1,
                cache_shards: 1,
                write_policy: WritePolicy::DelayedWrite,
                ..FileServiceConfig::default()
            },
        )
        .unwrap();
        let fid = create_open(&mut f);
        let mut data = vec![0x11u8; BLOCK_SIZE];
        data.extend_from_slice(&vec![0x22u8; BLOCK_SIZE]);
        f.write(fid, 0, data).unwrap();
        // Block 1 is the dirty resident; overwrite it so the platter copy
        // (if any) is definitely stale.
        f.write(fid, BLOCK_SIZE as u64, vec![0x33u8; BLOCK_SIZE])
            .unwrap();
        // Demand-miss block 0: fetches the whole contiguous run and evicts
        // dirty block 1 while caching it.
        assert_eq!(f.read(fid, 0, 1).unwrap(), vec![0x11]);
        assert_eq!(
            f.read(fid, BLOCK_SIZE as u64, BLOCK_SIZE).unwrap(),
            vec![0x33u8; BLOCK_SIZE],
            "evicted dirty block must not be shadowed by the stale run view"
        );
    }

    #[test]
    fn write_read_round_trip_small() {
        let mut f = fs();
        let fid = create_open(&mut f);
        f.write(fid, 0, b"hello world").unwrap();
        assert_eq!(f.read(fid, 0, 11).unwrap(), b"hello world");
        assert_eq!(f.read(fid, 6, 100).unwrap(), b"world");
    }

    #[test]
    fn write_read_round_trip_multi_block() {
        let mut f = fs();
        let fid = create_open(&mut f);
        let data: Vec<u8> = (0..3 * BLOCK_SIZE + 500).map(|i| (i % 251) as u8).collect();
        f.write(fid, 0, &data).unwrap();
        assert_eq!(f.read(fid, 0, data.len()).unwrap(), data);
        // Unaligned inner read.
        assert_eq!(f.read(fid, 8000, 9000).unwrap(), data[8000..17000].to_vec());
    }

    #[test]
    fn overwrite_middle() {
        let mut f = fs();
        let fid = create_open(&mut f);
        f.write(fid, 0, vec![b'a'; 20000]).unwrap();
        f.write(fid, 9000, b"XYZ").unwrap();
        let out = f.read(fid, 8999, 5).unwrap();
        assert_eq!(out, b"aXYZa");
        assert_eq!(f.get_attribute(fid).unwrap().size, 20000);
    }

    #[test]
    fn sparse_extension_zero_fills() {
        let mut f = fs();
        let fid = create_open(&mut f);
        f.write(fid, 0, b"head").unwrap();
        f.write(fid, 10_000, b"tail").unwrap();
        let gap = f.read(fid, 4, 100).unwrap();
        assert!(gap.iter().all(|&b| b == 0));
        assert_eq!(f.read(fid, 10_000, 4).unwrap(), b"tail");
    }

    #[test]
    fn read_past_eof_is_error_and_clamped() {
        let mut f = fs();
        let fid = create_open(&mut f);
        f.write(fid, 0, b"12345").unwrap();
        assert!(matches!(
            f.read(fid, 6, 1),
            Err(FileServiceError::BeyondEof { .. })
        ));
        assert_eq!(f.read(fid, 5, 1).unwrap(), b"");
        assert_eq!(f.read(fid, 3, 10).unwrap(), b"45");
    }

    #[test]
    fn unopened_file_rejects_io() {
        let mut f = fs();
        let fid = f.create(ServiceType::Basic).unwrap();
        assert!(matches!(
            f.write(fid, 0, b"x"),
            Err(FileServiceError::NotOpen(_))
        ));
        assert!(matches!(
            f.read(fid, 0, 1),
            Err(FileServiceError::NotOpen(_))
        ));
    }

    #[test]
    fn ref_counting_and_delete_protection() {
        let mut f = fs();
        let fid = f.create(ServiceType::Basic).unwrap();
        f.open(fid).unwrap();
        f.open(fid).unwrap();
        assert_eq!(f.get_attribute(fid).unwrap().ref_count, 2);
        assert!(matches!(f.delete(fid), Err(FileServiceError::Busy(_))));
        f.close(fid).unwrap();
        f.close(fid).unwrap();
        assert!(matches!(f.close(fid), Err(FileServiceError::NotOpen(_))));
        f.delete(fid).unwrap();
        assert!(!f.exists(fid));
        assert!(matches!(f.open(fid), Err(FileServiceError::NotFound(_))));
    }

    #[test]
    fn delete_frees_all_space() {
        let mut f = fs();
        let free0 = f.disk_mut(0).free_fragments();
        let fid = create_open(&mut f);
        f.write(fid, 0, vec![7u8; 100 * BLOCK_SIZE]).unwrap();
        f.close(fid).unwrap();
        assert!(f.disk_mut(0).free_fragments() < free0);
        f.delete(fid).unwrap();
        assert_eq!(f.disk_mut(0).free_fragments(), free0);
    }

    #[test]
    fn fit_contiguous_with_first_block() {
        let mut f = fs();
        let fid = create_open(&mut f);
        f.write(fid, 0, b"x").unwrap();
        let descs = f.block_descriptors(fid).unwrap();
        let dir = f.fit_snapshot(fid).unwrap();
        let _ = dir;
        // First data block directly follows the FIT fragment.
        let (_, fit_frag) = (0u16, descs[0].addr - 1);
        assert_eq!(descs[0].addr, fit_frag + 1);
    }

    #[test]
    fn single_write_file_is_contiguous() {
        let mut f = fs();
        let fid = create_open(&mut f);
        f.write(fid, 0, vec![1u8; 40 * BLOCK_SIZE]).unwrap();
        let fit = f.fit_snapshot(fid).unwrap();
        assert_eq!(fit.contiguity_ratio(), 1.0);
        assert_eq!(fit.descriptor(0).unwrap().contig as u64, fit.block_count());
    }

    #[test]
    fn large_file_uses_indirect_blocks_and_round_trips() {
        let mut f = FileService::single_disk(
            DiskGeometry::large(),
            LatencyModel::instant(),
            SimClock::new(),
            FileServiceConfig::default(),
        )
        .unwrap();
        let fid = create_open(&mut f);
        // > 512 KiB: needs indirect blocks.
        let data: Vec<u8> = (0..700 * 1024).map(|i| (i / 7 % 256) as u8).collect();
        f.write(fid, 0, &data).unwrap();
        f.flush_all().unwrap();
        // Force a cold reload of the FIT.
        f.simulate_crash();
        f.recover().unwrap();
        f.open(fid).unwrap();
        assert_eq!(f.read(fid, 0, data.len()).unwrap(), data);
        assert_eq!(f.get_attribute(fid).unwrap().size, data.len() as u64);
    }

    #[test]
    fn data_survives_crash_after_flush() {
        let mut f = fs();
        let fid = create_open(&mut f);
        f.write(fid, 0, b"persistent data").unwrap();
        f.flush_all().unwrap();
        f.simulate_crash();
        f.recover().unwrap();
        f.open(fid).unwrap();
        assert_eq!(f.read(fid, 0, 15).unwrap(), b"persistent data");
    }

    #[test]
    fn unflushed_delayed_writes_lost_in_crash() {
        let mut f = fs();
        let fid = create_open(&mut f);
        f.write(fid, 0, vec![b'A'; BLOCK_SIZE]).unwrap(); // sits in pool
        f.simulate_crash();
        f.recover().unwrap();
        f.open(fid).unwrap();
        let back = f.read(fid, 0, 4).unwrap();
        // Size was persisted via the FIT, but the data block was only in
        // the delayed-write pool: zeros come back.
        assert_eq!(back, vec![0u8; 4]);
    }

    #[test]
    fn write_through_survives_crash_without_flush() {
        let mut f = FileService::single_disk(
            DiskGeometry::medium(),
            LatencyModel::default(),
            SimClock::new(),
            FileServiceConfig {
                write_policy: WritePolicy::WriteThrough,
                ..Default::default()
            },
        )
        .unwrap();
        let fid = create_open(&mut f);
        f.write(fid, 0, b"durable").unwrap();
        f.simulate_crash();
        f.recover().unwrap();
        f.open(fid).unwrap();
        assert_eq!(f.read(fid, 0, 7).unwrap(), b"durable");
    }

    #[test]
    fn allocation_rebuilt_after_recovery() {
        let mut f = fs();
        let fid = create_open(&mut f);
        f.write(fid, 0, vec![5u8; 10 * BLOCK_SIZE]).unwrap();
        f.flush_all().unwrap();
        let free_before = f.disk_mut(0).free_fragments();
        f.simulate_crash();
        f.recover().unwrap();
        assert_eq!(f.disk_mut(0).free_fragments(), free_before);
        // New allocations do not collide with recovered files.
        let fid2 = create_open(&mut f);
        f.write(fid2, 0, vec![9u8; 4 * BLOCK_SIZE]).unwrap();
        f.open(fid).unwrap();
        assert_eq!(f.read(fid, 0, 1).unwrap(), vec![5]);
    }

    /// Recovery rebuilds the allocation maps from every file in the
    /// directory, not from the FITs the fragment pool happens to hold
    /// after loading them all: with more files than the pool has entries,
    /// the evicted ones' extents must not come back as free space.
    #[test]
    fn recover_with_more_files_than_the_fit_pool() {
        let mut f = fs();
        let files = FIT_POOL_ENTRIES + 44;
        let fids: Vec<FileId> = (0..files)
            .map(|i| {
                let fid = create_open(&mut f);
                f.write(fid, 0, vec![(i % 251) as u8 + 1; BLOCK_SIZE])
                    .unwrap();
                fid
            })
            .collect();
        f.flush_all().unwrap();
        let free_before = f.disk_mut(0).free_fragments();
        f.simulate_crash();
        f.recover().unwrap();
        assert_eq!(f.disk_mut(0).free_fragments(), free_before);
        let report = f.fsck().unwrap();
        assert!(report.is_clean(), "{:?}", report.issues);
        // New files must not be handed the old files' storage.
        for _ in 0..100 {
            let fid = create_open(&mut f);
            f.write(fid, 0, vec![0xEE; 4 * BLOCK_SIZE]).unwrap();
        }
        f.evict_caches().unwrap();
        for (i, fid) in fids.iter().enumerate() {
            f.open(*fid).unwrap();
            assert_eq!(
                f.read(*fid, 0, BLOCK_SIZE).unwrap(),
                vec![(i % 251) as u8 + 1; BLOCK_SIZE],
                "file {i} was overwritten after recovery"
            );
        }
    }

    /// `delete`, `recover`, the scrubber and `fsck` all see a file through
    /// the same walk — FIT fragment, indirect tables, data units, parity
    /// units — on every layout.
    #[test]
    fn everything_a_file_owns_is_walked_once() {
        let parity = |k, m| Redundancy::Parity { k, m };
        let round_robin = StripePolicy::RoundRobin { chunk_blocks: 2 };
        for (ndisks, stripe, redundancy) in [
            (1, StripePolicy::SingleDisk, Redundancy::None),
            (4, round_robin, Redundancy::None),
            (5, StripePolicy::SingleDisk, parity(4, 1)),
            (6, StripePolicy::SingleDisk, parity(4, 2)),
        ] {
            let config = FileServiceConfig {
                stripe,
                redundancy,
                ..FileServiceConfig::default()
            };
            let (geometry, model) = (DiskGeometry::medium(), LatencyModel::instant());
            let mut f =
                FileService::striped(ndisks, geometry, model, SimClock::new(), config).unwrap();
            let free = |f: &mut FileService| -> Vec<u64> {
                (0..ndisks)
                    .map(|d| f.disk_mut(d).free_fragments())
                    .collect()
            };
            let formatted = free(&mut f);
            let small = create_open(&mut f);
            f.write(small, 0, patterned(3 * BLOCK_SIZE, 5)).unwrap();
            // Past the 64 direct descriptors: indirect tables in play.
            let large = create_open(&mut f);
            f.write(large, 0, patterned(70 * BLOCK_SIZE, 9)).unwrap();
            f.flush_all().unwrap();
            let report = f.fsck().unwrap();
            assert!(report.is_clean(), "{config:?}: {:?}", report.issues);
            let allocated: u64 = (0..ndisks)
                .map(|d| geometry.total_sectors() - f.disk_mut(d).free_fragments())
                .sum();
            let scrub = f.scrub(None).unwrap();
            assert!(scrub.complete && scrub.is_clean(), "{config:?}");
            assert_eq!(scrub.stats.sectors_scanned, allocated, "{config:?}");
            let before = free(&mut f);
            f.simulate_crash();
            f.recover().unwrap();
            assert_eq!(free(&mut f), before, "{config:?}: recovery moved space");
            for fid in [small, large] {
                f.delete(fid).unwrap();
            }
            assert_eq!(free(&mut f), formatted, "{config:?}: delete left space");
        }
    }

    #[test]
    fn striped_file_spans_disks() {
        let mut f = FileService::striped(
            4,
            DiskGeometry::medium(),
            LatencyModel::default(),
            SimClock::new(),
            FileServiceConfig {
                stripe: StripePolicy::RoundRobin { chunk_blocks: 2 },
                ..Default::default()
            },
        )
        .unwrap();
        let fid = create_open(&mut f);
        let data: Vec<u8> = (0..16 * BLOCK_SIZE).map(|i| (i % 256) as u8).collect();
        f.write(fid, 0, &data).unwrap();
        let descs = f.block_descriptors(fid).unwrap();
        let disks_used: std::collections::HashSet<u16> = descs.iter().map(|d| d.disk).collect();
        assert_eq!(disks_used.len(), 4, "blocks should spread over all disks");
        assert_eq!(f.read(fid, 0, data.len()).unwrap(), data);
    }

    #[test]
    fn shadow_block_descriptor_swing() {
        let mut f = fs();
        let fid = create_open(&mut f);
        f.write(fid, 0, vec![b'o'; BLOCK_SIZE]).unwrap();
        f.flush_all().unwrap();
        let (disk, addr) = f.allocate_shadow_block(fid).unwrap();
        f.put_detached_block(disk, addr, &vec![b'n'; BLOCK_SIZE])
            .unwrap();
        let (old_disk, old_addr) = f.replace_block_descriptor(fid, 0, disk, addr).unwrap();
        f.free_detached_block(old_disk, old_addr).unwrap();
        assert_eq!(f.read(fid, 0, 1).unwrap(), vec![b'n']);
    }

    #[test]
    fn cache_hits_on_repeated_reads() {
        let mut f = fs();
        let fid = create_open(&mut f);
        f.write(fid, 0, vec![1u8; 4 * BLOCK_SIZE]).unwrap();
        f.flush_all().unwrap();
        let _ = f.read(fid, 0, 4 * BLOCK_SIZE).unwrap();
        let refs_before = f.stats().total_disk_refs();
        for _ in 0..5 {
            let _ = f.read(fid, 0, 4 * BLOCK_SIZE).unwrap();
        }
        assert_eq!(f.stats().total_disk_refs(), refs_before);
        assert!(f.stats().cache.hits > 0);
    }

    /// The pre-scheduler write-back (`ParallelIo::Never`) joins dirty
    /// blocks into one `put` only while they continue both a file and
    /// the platter: the last block of one file and the first of the next,
    /// and a file's blocks 0 and 2 with block 1 on another disk, touch on
    /// the platter and still go out as one reference each.
    #[test]
    fn a_pre_scheduler_write_back_joins_within_a_file_only() {
        let service = |ndisks, stripe| {
            let config = FileServiceConfig {
                parallel_io: ParallelIo::Never,
                stripe,
                ..FileServiceConfig::default()
            };
            let (geometry, model) = (DiskGeometry::medium(), LatencyModel::instant());
            FileService::striped(ndisks, geometry, model, SimClock::new(), config).unwrap()
        };
        // Dirties two blocks that touch on one disk and counts the
        // references their flush makes there.
        let flush_refs = |f: &mut FileService, blocks: [(FileId, u64); 2]| {
            let [x, y] = blocks.map(|(fid, idx)| f.block_descriptors(fid).unwrap()[idx as usize]);
            assert_eq!((x.disk, x.addr + FRAGS_PER_BLOCK), (y.disk, y.addr));
            for (fid, idx) in blocks {
                f.write(fid, idx * BLOCK_SIZE as u64, vec![2; BLOCK_SIZE])
                    .unwrap();
            }
            let writes = f.stats().disks[x.disk as usize].disk.write_ops;
            f.flush_all().unwrap();
            f.stats().disks[x.disk as usize].disk.write_ops - writes
        };
        // One disk: a's and b's second runs are laid down one after the
        // other.
        let mut f = service(1, StripePolicy::SingleDisk);
        let (a, b) = (create_open(&mut f), create_open(&mut f));
        for fid in [a, b] {
            f.write(fid, 0, vec![1; 3 * BLOCK_SIZE]).unwrap();
        }
        f.flush_all().unwrap();
        assert_eq!(flush_refs(&mut f, [(a, 2), (b, 1)]), 2, "across files");
        // Two disks, a block each in turn: blocks 0 and 2 share disk 0.
        let mut f = service(2, StripePolicy::RoundRobin { chunk_blocks: 1 });
        let a = create_open(&mut f);
        f.write(a, 0, vec![1; 3 * BLOCK_SIZE]).unwrap();
        f.flush_all().unwrap();
        assert_eq!(flush_refs(&mut f, [(a, 0), (a, 2)]), 2, "across a gap");
    }

    /// The write-back resolver's three outcomes, through `flush_all` on
    /// every flush path: a dirty block whose FIT was evicted from the
    /// fragment pool is reloaded and written; one whose file was deleted,
    /// or that lies past the file's last block, is dropped.
    #[test]
    fn fragment_pool_evicts_and_reloads_fits_safely() {
        // More files than the fragment pool holds, each with a dirty
        // block the block pool keeps until the flush.
        let files = FIT_POOL_ENTRIES + 6;
        let auto = FileServiceConfig {
            cache_blocks: 2 * files,
            ..Default::default()
        };
        let never = FileServiceConfig {
            parallel_io: ParallelIo::Never,
            ..auto
        };
        let parity = FileServiceConfig {
            redundancy: Redundancy::Parity { k: 3, m: 1 },
            ..auto
        };
        // (config, units written per flushed block: itself + its parity)
        for (config, units) in [(auto, 1), (never, 1), (parity, 2)] {
            let mut f = FileService::striped(
                4,
                DiskGeometry::medium(),
                LatencyModel::instant(),
                SimClock::new(),
                config,
            )
            .unwrap();
            let fids: Vec<FileId> = (0..files)
                .map(|i| {
                    let fid = create_open(&mut f);
                    f.write(fid, 0, &[(i % 251) as u8 + 1; 100]).unwrap();
                    fid
                })
                .collect();
            let gone = create_open(&mut f);
            f.close(gone).unwrap();
            f.delete(gone).unwrap();
            let pool = f.cache.as_mut().unwrap();
            let stray = BlockBuf::from(vec![0xEE; BLOCK_SIZE]);
            assert!(pool.insert((gone, 0), stray.clone(), true).is_empty());
            assert!(pool.insert((fids[0], 9), stray, true).is_empty());
            let written = |f: &FileService| -> u64 {
                f.stats().disks.iter().map(|d| d.disk.sector_writes).sum()
            };
            let before = written(&f);
            // Flush pushes dirty blocks of files whose FITs were evicted.
            f.flush_all().unwrap();
            assert_eq!(
                written(&f) - before,
                files as u64 * units * FRAGS_PER_BLOCK,
                "{config:?}: the live blocks and nothing else reach the disks"
            );
            for (i, fid) in fids.iter().enumerate() {
                assert_eq!(
                    f.read(*fid, 0, 1).unwrap(),
                    vec![(i % 251) as u8 + 1],
                    "{config:?}: file {i} lost its delayed write"
                );
            }
            assert_eq!(f.block_descriptors(fids[0]).unwrap().len(), 1);
            let stats = f.stats();
            assert!(
                stats.fit_loads > files as u64,
                "evictions must force FIT reloads ({} loads)",
                stats.fit_loads
            );
            // The pool evicts in least-recently-used order: of 257 FITs
            // used in turn, the coldest — the first — is the one that
            // made room, and the only one to be loaded again.
            for fid in &fids[..=FIT_POOL_ENTRIES] {
                f.get_attribute(*fid).unwrap();
            }
            let loads = f.stats().fit_loads;
            for fid in &fids[1..=FIT_POOL_ENTRIES] {
                f.get_attribute(*fid).unwrap();
            }
            assert_eq!(f.stats().fit_loads, loads, "{config:?}: a warm FIT went");
            f.get_attribute(fids[0]).unwrap();
            assert_eq!(
                f.stats().fit_loads,
                loads + 1,
                "{config:?}: the coldest stayed"
            );
            // And everything stays structurally consistent.
            let report = f.fsck().unwrap();
            assert!(report.is_clean(), "{config:?}: {:?}", report.issues);
        }
    }

    #[test]
    fn file_under_half_mb_needs_at_most_two_data_references() {
        // The paper's headline claim (E3): FIT + one contiguous data run.
        let mut f = FileService::single_disk(
            DiskGeometry::large(),
            LatencyModel::default(),
            SimClock::new(),
            FileServiceConfig {
                cache_blocks: 0, // count raw references
                ..Default::default()
            },
        )
        .unwrap();
        let fid = create_open(&mut f);
        let data = vec![3u8; 512 * 1024]; // exactly half a megabyte
        f.write(fid, 0, &data).unwrap();
        // Cold service: drop volatile state, reload from disk.
        f.simulate_crash();
        f.recover().unwrap();
        f.open(fid).unwrap();
        let before = f.stats().disks[0].disk.read_ops;
        let back = f.read(fid, 0, data.len()).unwrap();
        let refs = f.stats().disks[0].disk.read_ops - before;
        assert_eq!(back.len(), data.len());
        // recover() already loaded the FIT, so reading the data takes one
        // reference; FIT load itself was one more.
        assert!(refs <= 2, "took {refs} disk references");
    }

    #[test]
    fn cached_block_reread_copies_nothing() {
        let mut f = fs();
        let fid = create_open(&mut f);
        f.write(fid, 0, vec![0xA5u8; BLOCK_SIZE]).unwrap();
        f.flush_all().unwrap();
        let _ = f.read_block(fid, 0).unwrap(); // prime the pool
        let before = f.stats();
        let block = f.read_block(fid, 0).unwrap();
        assert!(block.iter().all(|&b| b == 0xA5));
        let after = f.stats();
        // A cached 8 KiB re-read is a refcount bump: zero disk references,
        // zero bytes memcpy'd, one block's worth of bytes borrowed.
        assert_eq!(after.total_disk_refs(), before.total_disk_refs());
        assert_eq!(after.cache.bytes_copied, before.cache.bytes_copied);
        assert_eq!(
            after.cache.bytes_borrowed - before.cache.bytes_borrowed,
            BLOCK_SIZE as u64
        );
    }

    #[test]
    fn fetch_block_copies_nothing_from_platter() {
        // The platter keeps views of the buffers it was written from, so
        // a cold run read hands the pool and the caller views of the one
        // written allocation: no byte is copied on the way up.
        let mut f = fs();
        let fid = create_open(&mut f);
        f.write(fid, 0, vec![3u8; 2 * BLOCK_SIZE]).unwrap();
        f.flush_all().unwrap();
        f.evict_caches().unwrap();
        let disk_copied =
            |s: &FileServiceStats| -> u64 { s.disks.iter().map(|d| d.disk.bytes_copied).sum() };
        let before = f.stats();
        let b0 = f.read_block(fid, 0).unwrap();
        let after = f.stats();
        assert!(b0.iter().all(|&b| b == 3));
        assert_eq!(disk_copied(&after), disk_copied(&before));
        assert_eq!(after.cache.bytes_copied, before.cache.bytes_copied);
        // The sibling block of the run is now a cache hit — no disk
        // reference, no copy — and the two blocks are adjacent views of
        // the written allocation.
        let refs_before = f.stats().total_disk_refs();
        let b1 = f.read_block(fid, 1).unwrap();
        assert!(b1.iter().all(|&b| b == 3));
        assert_eq!(f.stats().total_disk_refs(), refs_before);
        assert_eq!(f.stats().cache.bytes_copied, after.cache.bytes_copied);
        assert!(BlockBuf::try_concat(&[b0, b1]).is_some());
    }

    /// Read-ahead never evicts: a miss admits as much of its block's run
    /// as the pool has free slots for, and a miss in a full pool admits
    /// its own block alone, evicting one.
    #[test]
    fn run_read_ahead_takes_free_slots_only() {
        let mut f = FileService::single_disk(
            DiskGeometry::medium(),
            LatencyModel::default(),
            SimClock::new(),
            FileServiceConfig {
                cache_blocks: 12,
                cache_shards: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let mut file = |byte| {
            let fid = create_open(&mut f);
            f.write(fid, 0, vec![byte; 8 * BLOCK_SIZE]).unwrap();
            assert_eq!(f.block_descriptors(fid).unwrap()[0].contig, 8);
            fid
        };
        let (a, b) = (file(1), file(2));
        f.flush_all().unwrap();
        f.evict_caches().unwrap();
        let pool = f.cache_handle().unwrap();
        let resident = |fid| (0..8).filter(|&i| pool.contains(&(fid, i))).count();
        // Room for the run: all eight blocks.
        f.read_block(a, 0).unwrap();
        assert_eq!(resident(a), 8);
        // Room for four: the block and the three after it, no eviction.
        f.read_block(b, 0).unwrap();
        assert_eq!((resident(a), resident(b)), (8, 4));
        // A full pool: the block alone, one eviction.
        f.read_block(b, 6).unwrap();
        assert_eq!((resident(a), resident(b)), (7, 5));
        assert!(pool.contains(&(b, 6)) && !pool.contains(&(b, 7)));
        assert!(f.read_block(b, 7).unwrap().iter().all(|&x| x == 2));
    }

    /// Fault injection on a sector whose allocation the caller, the block
    /// pool and the track cache all share damages the platter alone.
    #[test]
    fn corrupting_a_shared_sector_leaves_every_held_handle_intact() {
        for loud in [false, true] {
            let mut f = fs();
            let fid = create_open(&mut f);
            let written = BlockBuf::from(vec![0x5Au8; BLOCK_SIZE]);
            f.write(fid, 0, written.clone()).unwrap();
            f.flush_all().unwrap();
            f.evict_caches().unwrap();
            let held = f.read_block(fid, 0).unwrap();
            let d = f.block_descriptors(fid).unwrap()[0];
            let extent = d.block_extent();
            let svc = f.disk_mut(d.disk as usize);
            let disk = svc.disk_mut();
            if loud {
                disk.corrupt_sector(extent.start + 1).unwrap();
            } else {
                disk.silently_corrupt_sector(extent.start + 1).unwrap();
            }
            // The platter refuses the damaged sector...
            assert!(matches!(
                disk.read_sectors(extent.start, extent.len),
                Err(DiskError::ChecksumMismatch(_) | DiskError::BadSector(_))
            ));
            // ...while the track cache, the pool, the caller's handle and
            // the written buffer keep the bytes they had.
            assert_eq!(svc.get(extent).unwrap(), written);
            assert_eq!(f.read_block(fid, 0).unwrap(), written);
            assert_eq!(held, written);
            assert!(written.iter().all(|&b| b == 0x5A));
        }
    }

    // ---- parity tier ---------------------------------------------------

    fn parity_fs(ndisks: usize, k: usize, m: usize) -> FileService {
        FileService::striped(
            ndisks,
            DiskGeometry::medium(),
            LatencyModel::default(),
            SimClock::new(),
            FileServiceConfig {
                redundancy: Redundancy::Parity { k, m },
                ..FileServiceConfig::default()
            },
        )
        .unwrap()
    }

    fn patterned(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn parity_full_stripe_write_round_trip() {
        let mut f = parity_fs(6, 4, 1);
        let fid = create_open(&mut f);
        let data = patterned(8 * BLOCK_SIZE, 3); // two complete rows
        f.write(fid, 0, &data).unwrap();
        f.flush_all().unwrap();
        let s = f.stats();
        assert!(s.parity.full_stripe_writes >= 2, "{:?}", s.parity);
        assert_eq!(s.parity.parity_delta_writes, 0);
        f.evict_caches().unwrap();
        assert_eq!(f.read(fid, 0, data.len()).unwrap(), data);
        assert!(f.fsck().unwrap().is_clean());
    }

    #[test]
    fn parity_delta_small_write_round_trip() {
        let mut f = parity_fs(6, 4, 1);
        let fid = create_open(&mut f);
        let data = patterned(8 * BLOCK_SIZE, 5);
        f.write(fid, 0, &data).unwrap();
        f.flush_all().unwrap();
        // One dirty unit of a settled row: 1 + m ≤ 3 unchanged, so the
        // delta technique must win over a whole-row reconstruction.
        let patch = patterned(BLOCK_SIZE, 9);
        f.write(fid, 0, &patch).unwrap();
        f.flush_all().unwrap();
        assert!(
            f.stats().parity.parity_delta_writes >= 1,
            "{:?}",
            f.stats().parity
        );
        f.evict_caches().unwrap();
        let mut want = data;
        want[..BLOCK_SIZE].copy_from_slice(&patch);
        assert_eq!(f.read(fid, 0, want.len()).unwrap(), want);
    }

    #[test]
    fn parity_round_trip_with_serial_io_ablation() {
        // The naive read-modify-write path (every unit its own disk
        // reference) must stay byte-correct — it is the E21 baseline.
        let mut f = FileService::striped(
            5,
            DiskGeometry::medium(),
            LatencyModel::default(),
            SimClock::new(),
            FileServiceConfig {
                redundancy: Redundancy::Parity { k: 3, m: 1 },
                parallel_io: ParallelIo::Never,
                ..FileServiceConfig::default()
            },
        )
        .unwrap();
        let fid = create_open(&mut f);
        let data = patterned(7 * BLOCK_SIZE + 300, 15);
        f.write(fid, 0, &data).unwrap();
        f.flush_all().unwrap();
        let patch = patterned(BLOCK_SIZE, 19);
        f.write(fid, BLOCK_SIZE as u64, &patch).unwrap();
        f.flush_all().unwrap();
        f.evict_caches().unwrap();
        let mut want = data;
        want[BLOCK_SIZE..2 * BLOCK_SIZE].copy_from_slice(&patch);
        assert_eq!(f.read(fid, 0, want.len()).unwrap(), want);
    }

    #[test]
    fn parity_survives_each_single_disk_loss() {
        let mut f = parity_fs(5, 3, 1);
        let fid = create_open(&mut f);
        let data = patterned(10 * BLOCK_SIZE + 777, 7);
        f.write(fid, 0, &data).unwrap();
        f.flush_all().unwrap();
        for disk in 0..5 {
            f.fail_disk(disk).unwrap();
            f.evict_caches().unwrap();
            assert_eq!(
                f.read(fid, 0, data.len()).unwrap(),
                data,
                "degraded read, disk {disk}"
            );
            let report = f.rebuild(None).unwrap();
            assert!(report.complete);
            assert!(!f.degraded_disks().iter().any(|&d| d));
            f.evict_caches().unwrap();
            assert_eq!(
                f.read(fid, 0, data.len()).unwrap(),
                data,
                "post-rebuild read, disk {disk}"
            );
        }
        let s = f.stats();
        assert!(s.parity.degraded_reads > 0);
        assert!(s.parity.rebuild_pages > 0);
        assert!(f.fsck().unwrap().is_clean());
    }

    #[test]
    fn raid6_survives_two_simultaneous_disk_losses() {
        let mut f = parity_fs(7, 4, 2);
        let fid = create_open(&mut f);
        let data = patterned(12 * BLOCK_SIZE + 100, 11);
        f.write(fid, 0, &data).unwrap();
        f.flush_all().unwrap();
        f.fail_disk(1).unwrap();
        f.fail_disk(4).unwrap();
        f.evict_caches().unwrap();
        assert_eq!(f.read(fid, 0, data.len()).unwrap(), data);
        assert!(f.rebuild(None).unwrap().complete);
        f.evict_caches().unwrap();
        assert_eq!(f.read(fid, 0, data.len()).unwrap(), data);
        assert!(f.fsck().unwrap().is_clean());
    }

    #[test]
    fn budgeted_rebuild_resumes_while_foreground_reads_continue() {
        let mut f = parity_fs(4, 2, 1);
        let fid = create_open(&mut f);
        let data = patterned(9 * BLOCK_SIZE, 13);
        f.write(fid, 0, &data).unwrap();
        f.flush_all().unwrap();
        f.fail_disk(2).unwrap();
        let mut calls = 0;
        loop {
            let r = f.rebuild(Some(2)).unwrap();
            calls += 1;
            assert!(r.pages <= 2);
            if r.complete {
                break;
            }
            assert_eq!(f.read(fid, 0, 64).unwrap(), data[..64].to_vec());
        }
        assert!(calls > 1, "a 2-unit budget must take several passes");
        f.evict_caches().unwrap();
        assert_eq!(f.read(fid, 0, data.len()).unwrap(), data);
    }

    #[test]
    fn writes_and_growth_during_degradation_survive_rebuild() {
        let mut f = parity_fs(5, 3, 1);
        let fid = create_open(&mut f);
        let mut model = patterned(6 * BLOCK_SIZE, 37);
        f.write(fid, 0, &model).unwrap();
        f.flush_all().unwrap();
        f.fail_disk(0).unwrap();
        // Overwrite everything (some units are homed on the lost disk:
        // their new bytes land on the writable spare) and grow the file
        // (new units must avoid the degraded disk).
        let over = patterned(6 * BLOCK_SIZE, 41);
        model.copy_from_slice(&over);
        f.write(fid, 0, &over).unwrap();
        let tail = patterned(2 * BLOCK_SIZE + 50, 43);
        f.write(fid, model.len() as u64, &tail).unwrap();
        model.extend_from_slice(&tail);
        f.flush_all().unwrap();
        assert_eq!(f.read(fid, 0, model.len()).unwrap(), model);
        assert!(f.rebuild(None).unwrap().complete);
        f.evict_caches().unwrap();
        assert_eq!(f.read(fid, 0, model.len()).unwrap(), model);
        assert!(f.fsck().unwrap().is_clean());
    }

    #[test]
    fn recovery_recomputes_parity_torn_from_its_data() {
        let mut f = parity_fs(5, 3, 1);
        let fid = create_open(&mut f);
        let data = patterned(6 * BLOCK_SIZE, 17);
        f.write(fid, 0, &data).unwrap();
        f.flush_all().unwrap();
        // Tear row 0: rewrite its first data unit directly on the
        // platter, leaving the parity stale — exactly what a crash
        // between a data write-back and its parity update leaves behind.
        let descs = f.block_descriptors(fid).unwrap();
        let stale = patterned(BLOCK_SIZE, 23);
        f.disk_mut(descs[0].disk as usize)
            .put(descs[0].block_extent(), &stale, StablePolicy::None)
            .unwrap();
        f.simulate_crash();
        f.recover().unwrap();
        f.open(fid).unwrap();
        // Reconstruction through the recomputed parity must agree with
        // the platter: lose block 1's disk and read block 1 back.
        f.fail_disk(descs[1].disk as usize).unwrap();
        f.evict_caches().unwrap();
        assert_eq!(
            f.read(fid, BLOCK_SIZE as u64, BLOCK_SIZE).unwrap(),
            data[BLOCK_SIZE..2 * BLOCK_SIZE].to_vec(),
            "parity must cohere with the platter after recovery"
        );
    }

    #[test]
    fn scrubber_repairs_from_parity_reconstruction() {
        let mut f = parity_fs(5, 3, 1);
        let fid = create_open(&mut f);
        let data = patterned(6 * BLOCK_SIZE, 29);
        f.write(fid, 0, &data).unwrap();
        f.flush_all().unwrap();
        f.evict_caches().unwrap(); // no pool copy: parity is the only redundancy
        let d1 = f.block_descriptors(fid).unwrap()[1];
        f.disk_mut(d1.disk as usize)
            .disk_mut()
            .silently_corrupt_sector(d1.addr)
            .unwrap();
        let r = f.scrub(None).unwrap();
        assert_eq!(
            r.stats.unrecoverable, 0,
            "the parity rung must repair: {:?}",
            r.findings
        );
        assert!(f.scrub(None).unwrap().is_clean());
        f.evict_caches().unwrap();
        assert_eq!(f.read(fid, 0, data.len()).unwrap(), data);
    }

    #[test]
    fn scrubber_repairs_a_corrupt_parity_unit() {
        let mut f = parity_fs(5, 3, 1);
        let fid = create_open(&mut f);
        f.write(fid, 0, patterned(6 * BLOCK_SIZE, 47)).unwrap();
        f.flush_all().unwrap();
        f.evict_caches().unwrap();
        let pd = f.fit_snapshot(fid).unwrap().parity_descriptors()[0];
        f.disk_mut(pd.disk as usize)
            .disk_mut()
            .silently_corrupt_sector(pd.addr)
            .unwrap();
        let r = f.scrub(None).unwrap();
        assert_eq!(r.stats.unrecoverable, 0, "{:?}", r.findings);
        assert!(f.scrub(None).unwrap().is_clean());
        // The recomputed parity actually works: lose the first data
        // unit's disk and the row must still reconstruct.
        let d0 = f.block_descriptors(fid).unwrap()[0];
        f.fail_disk(d0.disk as usize).unwrap();
        f.evict_caches().unwrap();
        assert_eq!(
            f.read(fid, 0, BLOCK_SIZE).unwrap(),
            patterned(6 * BLOCK_SIZE, 47)[..BLOCK_SIZE].to_vec()
        );
    }

    #[test]
    fn delete_frees_parity_units() {
        let mut f = parity_fs(4, 2, 1);
        let free_before: u64 = (0..4).map(|d| f.disk_mut(d).free_fragments()).sum();
        let fid = create_open(&mut f);
        f.write(fid, 0, patterned(5 * BLOCK_SIZE, 31)).unwrap();
        f.flush_all().unwrap();
        f.close(fid).unwrap();
        f.delete(fid).unwrap();
        let free_after: u64 = (0..4).map(|d| f.disk_mut(d).free_fragments()).sum();
        assert_eq!(free_after, free_before, "data, parity and FIT all freed");
        assert!(f.fsck().unwrap().is_clean());
    }

    #[test]
    fn losing_more_units_than_parity_covers_is_a_typed_error() {
        let mut f = parity_fs(5, 3, 1);
        let fid = create_open(&mut f);
        let data = patterned(3 * BLOCK_SIZE, 53);
        f.write(fid, 0, &data).unwrap();
        f.flush_all().unwrap();
        f.evict_caches().unwrap();
        f.fail_disk(0).unwrap();
        f.fail_disk(1).unwrap(); // two losses, m = 1
        let err = f.read(fid, 0, data.len()).unwrap_err();
        assert!(
            matches!(err, FileServiceError::ParityLost { fid: ef, .. } if ef == fid),
            "{err}"
        );
    }
}
