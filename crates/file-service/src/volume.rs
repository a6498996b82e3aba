//! The volume: the disks behind one file service and every decision
//! about which spindle a block lives on.
//!
//! This is the only module that knows the stripe policy, the redundancy
//! class (`k`, `m`, stripe rows, rotating parity placement), degraded
//! reconstruction and rebuild, and how a set of transfers is issued to the
//! per-spindle schedulers. The service core above it asks for blocks of a
//! file by logical index; a new redundancy class is added here and nowhere
//! else.
//!
//! Every platter write is a [`WritePlan`] handed to [`Volume::submit`],
//! which alone routes file data through the parity tier's row engine,
//! hands batches to the schedulers and applies [`ParallelIo::Never`].

use crate::attrs::FileId;
use crate::config::{FileServiceConfig, ParallelIo};
use crate::error::FileServiceError;
use crate::fit::{BlockDescriptor, FileIndexTable};
use crate::parity::{self, ParityStats, RebuildReport, Redundancy};
use crate::plan::{continues, Mode, Write, WritePlan};
use crate::scrub::ScrubOwner;
use crate::store::{FitEntry, FitStore, Owned};
use crate::stripe::StripePolicy;
use rhodos_buf::BlockBuf;
use rhodos_disk_service::{
    DiskService, DiskServiceError, Extent, FragmentAddr, ReadSource, StablePolicy, BLOCK_SIZE,
    FRAGMENT_SIZE, FRAGS_PER_BLOCK,
};
use std::collections::{BTreeMap, BTreeSet};

/// The disks of one file service and the layout of files over them.
#[derive(Debug)]
pub(crate) struct Volume {
    /// One disk server per spindle: what a crash hands the next boot.
    pub(crate) disks: Vec<DiskService>,
    stripe: StripePolicy,
    redundancy: Redundancy,
    parallel_io: ParallelIo,
    fit_adjacent_first_block: bool,
    /// Per-disk degraded flags (parity tier): a failed disk whose spare
    /// has been swapped in but not fully rebuilt. Reads of units homed
    /// there reconstruct from the parity group. Kept in the directory
    /// header: a mount that forgot one would recompute its parity from the
    /// blank spare.
    degraded: Vec<bool>,
    /// Stripe rows whose parity units have been allocated but never
    /// written — the on-platter parity is garbage until the row's first
    /// flush recomputes it. Volatile: a mount recomputes all parity.
    uninit_rows: BTreeSet<(FileId, u64)>,
    /// Cumulative parity-tier counters.
    parity_stats: ParityStats,
    /// Per-disk rebuild resume points: `(fid, unit)` of the next stripe
    /// unit to reconstruct onto the spare. Volatile: a rebuild is
    /// idempotent, so after a mount it starts over.
    rebuild_cursors: Vec<Option<(FileId, usize)>>,
}

/// A stripe row's number and an in-memory image of its units, data first.
type RowImage = (u64, Vec<Vec<u8>>);

/// The stripe row of logical block `idx`, and its slot in the row, with
/// `k` data units to a row.
fn data_slot(k: usize, idx: u64) -> (u64, usize) {
    (idx / k as u64, (idx % k as u64) as usize)
}

/// The allocation failure of a volume with no room for one more block.
fn no_space() -> FileServiceError {
    FileServiceError::Disk(DiskServiceError::NoSpace {
        requested: FRAGS_PER_BLOCK,
        largest_free: 0,
        total_free: 0,
    })
}

impl Volume {
    /// A volume over freshly formatted `disks`.
    ///
    /// # Panics
    ///
    /// Panics if `disks` is empty, or if a parity redundancy geometry
    /// does not fit the disk count (`k >= 1`, `1 <= m <= 2`, at least
    /// `k + m` disks).
    pub(crate) fn new(disks: Vec<DiskService>, config: &FileServiceConfig) -> Self {
        assert!(!disks.is_empty(), "file service needs at least one disk");
        if let Redundancy::Parity { k, m } = config.redundancy {
            assert!(k >= 1, "parity group needs at least one data unit");
            assert!(
                (1..=parity::MAX_PARITY).contains(&m),
                "parity units per row must be 1 (RAID-5) or 2 (RAID-6)"
            );
            assert!(k + m <= 255, "GF(256) P+Q code caps the group width");
            assert!(
                disks.len() >= k + m,
                "parity geometry {k}+{m} needs at least {} disks, have {}",
                k + m,
                disks.len()
            );
        }
        let ndisks = disks.len();
        Self {
            disks,
            stripe: config.stripe,
            redundancy: config.redundancy,
            parallel_io: config.parallel_io,
            fit_adjacent_first_block: config.fit_adjacent_first_block,
            degraded: vec![false; ndisks],
            uninit_rows: BTreeSet::new(),
            parity_stats: ParityStats::default(),
            rebuild_cursors: vec![None; ndisks],
        }
    }

    // ---- the disks, one at a time -----------------------------------------

    /// Disk `d`: raw extents (metadata homes, detached blocks), fault
    /// injection and statistics — nothing that depends on the layout.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub(crate) fn disk(&mut self, d: u16) -> &mut DiskService {
        &mut self.disks[d as usize]
    }

    pub(crate) fn disks(&self) -> &[DiskService] {
        &self.disks
    }

    pub(crate) fn parity_stats(&self) -> ParityStats {
        self.parity_stats
    }

    /// Per-disk degraded flags: `true` while a swapped-in spare is still
    /// being rebuilt.
    pub(crate) fn degraded(&self) -> &[bool] {
        &self.degraded
    }

    /// Marks disk `d` degraded, as the mounted directory names it.
    pub(crate) fn mark_degraded(&mut self, d: u16) {
        self.degraded[d as usize] = true;
    }

    /// Whether the unit `d` names sits on a degraded disk, out of reach.
    fn lost(&self, d: &BlockDescriptor) -> bool {
        self.degraded[d.disk as usize]
    }

    /// Reads a metadata extent from main storage, falling back to its
    /// stable-storage copy.
    pub(crate) fn get_meta(
        &mut self,
        d: u16,
        extent: Extent,
    ) -> Result<BlockBuf, FileServiceError> {
        let disk = self.disk(d);
        match disk.get(extent) {
            Ok(buf) => Ok(buf),
            Err(_) => Ok(disk.get_from(extent, ReadSource::Stable)?),
        }
    }

    /// Reads the whole block at a raw location.
    pub(crate) fn get_block(
        &mut self,
        d: u16,
        addr: FragmentAddr,
    ) -> Result<BlockBuf, FileServiceError> {
        Ok(self.disk(d).get(Extent::new(addr, FRAGS_PER_BLOCK))?)
    }

    // ---- the one issue path to the spindles -------------------------------

    /// Reads whole blocks at raw locations in one scheduler pass; results
    /// come back in input order.
    pub(crate) fn get_blocks(
        &mut self,
        locs: &[(u16, FragmentAddr)],
    ) -> Result<Vec<BlockBuf>, FileServiceError> {
        if locs.len() <= 1 {
            return locs.iter().map(|&(d, a)| self.get_block(d, a)).collect();
        }
        let reqs: Vec<(u16, Extent)> = locs
            .iter()
            .map(|&(d, a)| (d, Extent::new(a, FRAGS_PER_BLOCK)))
            .collect();
        self.read_batch(&reqs, false)
    }

    /// The one read path from block pool to spindle: reads `reqs` —
    /// `(disk, extent)` pairs — and returns the buffers in input order.
    /// The requests are grouped by spindle and each group goes to its
    /// scheduler as one elevator batch, so physically adjacent extents
    /// merge into single disk references. The batches are issued
    /// back-to-back on the caller's thread but all at the same virtual
    /// instant; ending them advances the shared clock to the busiest
    /// spindle's finish time, so the spindles work in parallel where it
    /// is modelled — in virtual time. [`ParallelIo::Never`] pays one
    /// reference per request instead.
    ///
    /// With `stripe_ahead`, a batch over two or more spindles that sent
    /// any of them to the platter reads ahead on every one of them, each
    /// past the last request of its share
    /// ([`DiskService::read_ahead_next`]), before the batches end: the
    /// spindles cross their track boundaries in the same makespan
    /// instead of one request each.
    fn read_batch(
        &mut self,
        reqs: &[(u16, Extent)],
        stripe_ahead: bool,
    ) -> Result<Vec<BlockBuf>, FileServiceError> {
        if self.parallel_io == ParallelIo::Never {
            return reqs
                .iter()
                .map(|&(d, e)| Ok(self.disk(d).get(e)?))
                .collect();
        }
        let mut per_disk: Vec<Vec<(usize, Extent)>> = vec![Vec::new(); self.disks.len()];
        for (i, &(d, extent)) in reqs.iter().enumerate() {
            per_disk[d as usize].push((i, extent));
        }
        let issue = |disk: &mut DiskService, reqs: &[(usize, Extent)]| {
            let extents: Vec<Extent> = reqs.iter().map(|&(_, e)| e).collect();
            disk.get_batch(&extents)
        };
        let read_ahead = |disks: &mut [DiskService], fetched: &[(usize, Result<_, _>)]| {
            let any_went = fetched.iter().any(|(_, r)| matches!(r, Ok((_, true))));
            if stripe_ahead && any_went && fetched.len() >= 2 {
                for (d, r) in fetched {
                    if let Ok((_, went)) = r {
                        let &(_, last) = per_disk[*d].last().expect("an involved spindle");
                        disks[*d].read_ahead_next(last, *went);
                    }
                }
            }
        };
        let fetched = self.batched(&per_disk, issue, read_ahead);
        let mut out: Vec<Option<BlockBuf>> = vec![None; reqs.len()];
        for (d, r) in fetched {
            for (&(i, _), buf) in per_disk[d].iter().zip(r?.0) {
                out[i] = Some(buf);
            }
        }
        Ok(out.into_iter().map(|b| b.expect("fetched")).collect())
    }

    /// Hands every spindle with requests in `per_disk` its share as one
    /// batch, all begun at the same virtual instant and ended together,
    /// and returns each involved disk's result. `then` sees every result
    /// while the batches are still open, so what it issues shares their
    /// makespan.
    fn batched<T, R>(
        &mut self,
        per_disk: &[Vec<T>],
        issue: impl Fn(&mut DiskService, &[T]) -> R,
        then: impl FnOnce(&mut [DiskService], &[(usize, R)]),
    ) -> Vec<(usize, R)> {
        let involved = (0..per_disk.len()).filter(|&d| !per_disk[d].is_empty());
        let involved: Vec<usize> = involved.collect();
        for &d in &involved {
            self.disks[d].begin_batch();
        }
        let issue = |&d: &usize| (d, issue(&mut self.disks[d], &per_disk[d]));
        let results: Vec<(usize, R)> = involved.iter().map(issue).collect();
        then(&mut self.disks, &results);
        for &d in &involved {
            self.disks[d].end_batch();
        }
        results
    }

    // ---- placement --------------------------------------------------------

    /// Places a new file: picks its home disk, allocates the FIT fragment
    /// there — contiguous with the first data block, which is appended to
    /// `fit`, when the layout allows (§5) — and returns `(home, fragment)`.
    pub(crate) fn place_file(
        &mut self,
        fit: &mut FileIndexTable,
    ) -> Result<(u16, FragmentAddr), FileServiceError> {
        // Home disk: most free space (keeps files whole); striping spreads
        // later blocks anyway. A degraded disk never hosts new metadata.
        let home = self
            .disks
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.degraded[*i])
            .max_by_key(|(_, d)| d.free_fragments())
            .map(|(i, _)| i as u16)
            .expect("at least one healthy disk");
        let disk = &mut self.disks[home as usize];
        let fit_frag = if self.redundancy.is_parity() {
            // Every data block is placed by stripe geometry instead.
            disk.allocate_contiguous(1)?.start
        } else if !self.fit_adjacent_first_block {
            // Ablation: FIT in the metadata (top) region, data elsewhere —
            // the pre-RHODOS layout the paper argues against.
            disk.allocate_contiguous_top(1)?.start
        } else if let Ok(run) = disk.allocate_contiguous(1 + FRAGS_PER_BLOCK) {
            fit.append_run(home, run.start + 1, 1);
            run.start
        } else {
            disk.allocate_contiguous(1)?.start
        };
        Ok((home, fit_frag))
    }

    /// Appends enough blocks to make the file `nblocks` long, honouring
    /// the layout and preferring contiguous allocation.
    pub(crate) fn grow(
        &mut self,
        fid: FileId,
        entry: &mut FitEntry,
        nblocks: u64,
    ) -> Result<(), FileServiceError> {
        if self.redundancy.is_parity() {
            return self.grow_parity(fid, &mut entry.fit, nblocks);
        }
        loop {
            let current = entry.fit.block_count();
            if current >= nblocks {
                return Ok(());
            }
            let limit = self.stripe.run_limit(current).min(nblocks - current);
            let target = self
                .stripe
                .disk_for_block(current, self.disks.len(), entry.home as usize);
            // Try the full run contiguously, then halve until it fits,
            // then spill to other disks.
            let mut allocated: Option<(usize, Extent, u64)> = None;
            let mut want = limit;
            while want >= 1 && allocated.is_none() {
                match self.disks[target].allocate_contiguous(want * FRAGS_PER_BLOCK) {
                    Ok(e) => allocated = Some((target, e, want)),
                    Err(_) => want /= 2,
                }
            }
            // Target disk exhausted: any disk with room for one block.
            let allocated = allocated.or_else(|| {
                let mut disks = self.disks.iter_mut().enumerate();
                disks.find_map(|(i, d)| Some((i, d.allocate_contiguous(FRAGS_PER_BLOCK).ok()?, 1)))
            });
            let (disk_no, extent, blocks) = allocated.ok_or_else(no_space)?;
            entry.fit.append_run(disk_no as u16, extent.start, blocks);
        }
    }

    /// Returns everything a deleted file owned to free space.
    pub(crate) fn free_file(
        &mut self,
        fid: FileId,
        owned: impl Iterator<Item = Owned>,
    ) -> Result<(), FileServiceError> {
        for (d, extent, _) in owned {
            self.disk(d).free(extent)?;
        }
        self.uninit_rows.retain(|(f, _)| *f != fid);
        Ok(())
    }

    // ---- reads ------------------------------------------------------------

    /// Whether a multi-block window goes to the spindles as one batch
    /// ([`Self::read_window`]); otherwise the caller fetches it a block at
    /// a time, one demand miss after the other.
    pub(crate) fn batches_windows(&self) -> bool {
        self.parallel_io != ParallelIo::Never
    }

    /// Reads logical block `idx` of the resident file `fid` together with
    /// the rest of the contiguous run it starts, up to `max_blocks` in all
    /// (the block itself always) — one disk reference, one allocation. A
    /// block homed on a degraded disk comes back alone, reconstructed
    /// from its parity group.
    pub(crate) fn read_run(
        &mut self,
        store: &mut FitStore,
        fid: FileId,
        idx: u64,
        max_blocks: u64,
    ) -> Result<BlockBuf, FileServiceError> {
        let d = store
            .loaded(fid)
            .fit
            .descriptor(idx)
            .ok_or(FileServiceError::Corrupt(fid))?;
        if self.lost(&d) {
            return Ok(self.read_degraded(store, fid, idx)?.into());
        }
        let blocks = (d.contig as u64).min(max_blocks.max(1));
        Ok(self
            .disk(d.disk)
            .get(Extent::new(d.addr, FRAGS_PER_BLOCK * blocks))?)
    }

    /// Reads logical blocks `idxs` of one file as one batch, returned
    /// with their indices in spindle-major order. Blocks homed on a
    /// degraded disk cannot be read there: they come back in the second
    /// list, for the caller to fetch one by one ([`Self::read_run`]) once
    /// it is done with the batch.
    ///
    /// A striped window reads ahead as one ([`Self::read_batch`]): if it
    /// sends any spindle to the platter, every spindle it touches caches
    /// the track its share of the file continues on, in the window's
    /// makespan. A single-spindle window reads ahead only the track each
    /// run starts on, and the parity tier never reads ahead across its
    /// spindles.
    #[allow(clippy::type_complexity)]
    pub(crate) fn read_window(
        &mut self,
        fit: &FileIndexTable,
        fid: FileId,
        idxs: &[u64],
    ) -> Result<(Vec<(u64, BlockBuf)>, Vec<u64>), FileServiceError> {
        let mut misses: Vec<(u64, u16, Extent)> = Vec::new();
        let mut degraded = Vec::new();
        for &idx in idxs {
            let d = fit.descriptor(idx).ok_or(FileServiceError::Corrupt(fid))?;
            if self.lost(&d) {
                degraded.push(idx);
            } else {
                misses.push((idx, d.disk, d.block_extent()));
            }
        }
        // Spindle-major: the pool's LRU — and so which dirty block a
        // later insert evicts — follows the order the caller admits in.
        misses.sort_by_key(|&(_, disk, _)| disk);
        let reqs: Vec<(u16, Extent)> = misses.iter().map(|&(_, d, e)| (d, e)).collect();
        let fetched = self.read_batch(&reqs, !self.redundancy.is_parity())?;
        let fetched = misses.iter().map(|&(idx, ..)| idx).zip(fetched).collect();
        Ok((fetched, degraded))
    }

    // ---- writes -----------------------------------------------------------

    /// The one write path to the spindles: every platter write of the file
    /// service is a plan handed here.
    ///
    /// File data goes through the parity tier's row engine when there is
    /// one ([`Self::write_back_parity`]), else each span to its home. A
    /// batch under [`ParallelIo::Never`] is one `put` per run that
    /// continues both a file and the platter — the pre-scheduler write-back
    /// of experiments E13/E15 — and one per unit on the parity tier, whose
    /// units never join: the naive read-modify-write arm of E21.
    pub(crate) fn submit(&mut self, plan: WritePlan<'_>) -> Result<(), FileServiceError> {
        let (mode, store, data) = match plan {
            WritePlan::Extents(mode, writes) => {
                let policy = if mode == Mode::Meta && self.disks[0].has_stable() {
                    StablePolicy::OriginalAndStable
                } else {
                    StablePolicy::None
                };
                for &(d, extent, bytes) in writes {
                    self.disk(d).put(extent, bytes, policy)?;
                }
                return Ok(());
            }
            WritePlan::Data(mode, store, data) => (mode, store, data),
        };
        let writes = if self.redundancy.is_parity() {
            self.write_back_parity(store, data)?
        } else {
            let batch = mode == Mode::Batch;
            let mut writes: Vec<Write> =
                Vec::with_capacity(if batch { data.size_hint().0 } else { 0 });
            for ((fid, s), buf) in data {
                let Some(d) = store.home_of(self, fid, s / FRAGS_PER_BLOCK)? else {
                    continue;
                };
                let sectors = (buf.len() / FRAGMENT_SIZE) as u64;
                let extent = Extent::new(d.addr + s % FRAGS_PER_BLOCK, sectors);
                if batch {
                    writes.push((Some((fid, s)), d.disk, extent, buf));
                } else {
                    self.disk(d.disk).put(extent, &buf, StablePolicy::None)?;
                }
            }
            writes
        };
        if writes.is_empty() {
            return Ok(());
        }
        if self.parallel_io == ParallelIo::Never {
            let mut rest = &writes[..];
            while let Some(&(_, d, head, _)) = rest.first() {
                let n = 1 + rest
                    .windows(2)
                    .take_while(|w| continues(&w[0], &w[1]))
                    .count();
                let (joined, _) = BlockBuf::join(rest[..n].iter().map(|w| w.3.clone()));
                let extent = Extent::new(head.start, rest[..n].iter().map(|w| w.2.len).sum());
                self.disk(d).put(extent, &joined, StablePolicy::None)?;
                rest = &rest[n..];
            }
            return Ok(());
        }
        let mut per_disk: Vec<Vec<(Extent, BlockBuf)>> = vec![Vec::new(); self.disks.len()];
        for (_, d, extent, buf) in writes {
            per_disk[d as usize].push((extent, buf));
        }
        let issue = |disk: &mut DiskService, writes: &[_]| disk.put_batch(writes);
        let results = self.batched(&per_disk, issue, |_, _| ());
        results.into_iter().try_for_each(|(_, r)| Ok(r?))
    }

    /// Swings the descriptor of the resident file's logical block `idx`
    /// to `(disk, addr)` (shadow-page commit), persists the FIT and
    /// brings the block's redundancy in line with its new contents.
    pub(crate) fn swing_descriptor(
        &mut self,
        store: &mut FitStore,
        fid: FileId,
        idx: u64,
        disk: u16,
        addr: FragmentAddr,
    ) -> Result<(), FileServiceError> {
        // Parity tier: capture a consistent image of the row *before*
        // the swing — afterwards the old parity no longer matches the
        // platter, so the old values could not be reconstructed.
        let image =
            self.row_replacing(store, fid, idx, |v| Ok(v.get_block(disk, addr)?.to_vec()))?;
        store.loaded_mut(fid).fit.replace_block(idx, disk, addr);
        store.persist(self, fid)?;
        image.map_or(Ok(()), |image| self.write_row_parity(store, fid, image))
    }

    /// Rewrites data block `block` of `fid` from a peer's copy. On the
    /// parity tier the target is treated as an erasure — its platter
    /// bytes are suspect — and the row's parity is written fresh.
    pub(crate) fn rewrite_block(
        &mut self,
        store: &mut FitStore,
        fid: FileId,
        block: u64,
        data: &[u8],
    ) -> Result<(), FileServiceError> {
        let desc = store.entry(self, fid)?.fit.descriptor(block);
        let desc = desc.ok_or(FileServiceError::NotFound(fid))?;
        let image = self.row_replacing(store, fid, block, |_| Ok(data.to_vec()))?;
        let unit = [(desc.disk, desc.block_extent(), data)];
        self.submit(WritePlan::Extents(Mode::OneAtATime, &unit))?;
        image.map_or(Ok(()), |image| self.write_row_parity(store, fid, image))
    }

    // ---- recovery, repair -------------------------------------------------

    /// Drops the disks' track caches only — no crash repair, no
    /// stable-storage scan.
    pub(crate) fn drop_caches(&mut self) {
        for d in &mut self.disks {
            d.drop_caches();
        }
    }

    /// Repairs every disk and its stable mirrors after a crash.
    pub(crate) fn recover_disks(&mut self) -> Result<(), FileServiceError> {
        for d in &mut self.disks {
            d.recover()?;
        }
        Ok(())
    }

    /// Rebuilds the allocation maps of a mounted volume from `owned` —
    /// everything the loaded metadata references — and brings every row's
    /// parity back in line with the surviving platter data: the uninit-row
    /// set died with the crash, and a crash between a row's data
    /// write-back and its parity update leaves the two torn. Rows with
    /// units on a disk the directory names degraded are skipped — their
    /// parity is the only copy of the lost units.
    pub(crate) fn after_recover(
        &mut self,
        store: &mut FitStore,
        owned: Vec<Owned>,
    ) -> Result<(), FileServiceError> {
        let mut per_disk: Vec<Vec<Extent>> = vec![Vec::new(); self.disks.len()];
        for (d, extent, _) in owned {
            per_disk[d as usize].push(extent);
        }
        for (disk, extents) in self.disks.iter_mut().zip(per_disk) {
            disk.rebuild_allocation(extents);
        }
        let Some((k, _)) = self.redundancy.params() else {
            return Ok(());
        };
        for fid in store.file_ids() {
            let nrows = store.entry(self, fid)?.fit.block_count().div_ceil(k as u64);
            for row in 0..nrows {
                let units = self.row_units(&store.loaded(fid).fit, row);
                if units.iter().flatten().any(|d| self.lost(d)) {
                    continue;
                }
                // From the data units on the platter (the cache is
                // bypassed: parity coheres with the disks).
                store.entry(self, fid)?;
                let locs: Vec<_> = units[..k]
                    .iter()
                    .flatten()
                    .map(|d| (d.disk, d.addr))
                    .collect();
                let data = self.get_blocks(&locs)?;
                let data = data.iter().map(|b| b.to_vec()).collect();
                self.write_row_parity(store, fid, (row, data))?;
            }
        }
        Ok(())
    }

    /// A copy of the unit `owner` names (a data or parity unit) rebuilt
    /// from the rest of its parity group, the unit itself treated as
    /// lost. `None` without a parity tier, or when the group cannot
    /// cover the loss.
    pub(crate) fn reconstruct(
        &mut self,
        store: &mut FitStore,
        owner: ScrubOwner,
    ) -> Option<BlockBuf> {
        self.slot_of(owner)?;
        let unit = self.reconstruct_unit(store, owner, true).ok()?;
        Some(unit.into())
    }

    /// Reads data block `block` of the resident file `fid` for a
    /// replication peer, bypassing the pool. `None` when it is unreadable
    /// here too.
    pub(crate) fn read_for_repair(
        &mut self,
        store: &mut FitStore,
        fid: FileId,
        block: u64,
    ) -> Option<Vec<u8>> {
        let desc = store.loaded(fid).fit.descriptor(block)?;
        if self.lost(&desc) {
            return self.read_degraded(store, fid, block).ok();
        }
        match self.get_block(desc.disk, desc.addr) {
            Ok(b) => Some(b.to_vec()),
            // Unreadable here: reconstruct it from the rest of its
            // parity group.
            Err(_) => Some(
                self.reconstruct(store, ScrubOwner::Data { fid, block })?
                    .to_vec(),
            ),
        }
    }

    // ---- parity tier (RAID-5/6 erasure-coded striping) --------------------

    /// The `(k, m)` stripe geometry.
    ///
    /// # Panics
    ///
    /// Panics without a parity tier.
    fn geometry(&self) -> (usize, usize) {
        self.redundancy.params().expect("parity tier")
    }

    /// The descriptors of stripe row `row`'s units — `k` data, then `m`
    /// parity — `None` where a unit is not allocated (data slots past the
    /// end of the file). Logical block `i` is data slot `i % k` of row
    /// `i / k`; parity unit `j` of row `r` is parity descriptor
    /// `r * m + j`.
    fn row_units(&self, fit: &FileIndexTable, row: u64) -> Vec<Option<BlockDescriptor>> {
        let (k, m) = self.geometry();
        let data = (0..k as u64).map(|s| fit.descriptor(row * k as u64 + s));
        let parity = (0..m as u64).map(|j| fit.parity_descriptor(row * m as u64 + j));
        data.chain(parity).collect()
    }

    /// The file, stripe row and unit slot (`0..k` data, `k..k + m`
    /// parity) of a data or parity unit; `None` for anything else, or
    /// without a parity tier.
    fn slot_of(&self, owner: ScrubOwner) -> Option<(FileId, u64, usize)> {
        let (k, m) = self.redundancy.params()?;
        match owner {
            ScrubOwner::Data { fid, block } => {
                let (row, slot) = data_slot(k, block);
                Some((fid, row, slot))
            }
            ScrubOwner::Parity { fid, index } => {
                let (row, j) = data_slot(m, index);
                Some((fid, row, k + j))
            }
            _ => None,
        }
    }

    /// Appends blocks under the parity geometry. A row's `m` parity
    /// units are allocated before its first data unit so no flush can
    /// find the parity homes missing. Placement prefers the rotating
    /// targets — data slot `s` of row `r` on disk `(r + s) % D`,
    /// parity `j` on disk `(r + k + j) % D` — so parity traffic
    /// spreads across spindles instead of pinning one (the RAID-4
    /// bottleneck).
    fn grow_parity(
        &mut self,
        fid: FileId,
        fit: &mut FileIndexTable,
        nblocks: u64,
    ) -> Result<(), FileServiceError> {
        let (k, m) = self.geometry();
        loop {
            let current = fit.block_count();
            if current >= nblocks {
                return Ok(());
            }
            let row = current / k as u64;
            while fit.parity_count() < (row + 1) * m as u64 {
                let j = (fit.parity_count() % m as u64) as usize;
                let (d, e) = self.allocate_unit(fit, row, row as usize + k + j)?;
                fit.push_parity(d, e.start);
                self.uninit_rows.insert((fid, row));
            }
            let slot = (current % k as u64) as usize;
            let (d, e) = self.allocate_unit(fit, row, row as usize + slot)?;
            fit.append_run(d, e.start, 1);
            // A recycled extent may hold stale bytes, so the row's
            // parity is stale until the next flush recomputes it.
            self.uninit_rows.insert((fid, row));
        }
    }

    /// One stripe unit on a healthy disk at or after `preferred` (taken
    /// modulo the disk count), falling back to any disk with space. The
    /// first pass refuses disks already holding a unit of this row (the
    /// fault-isolation invariant: a one-disk loss costs at most one
    /// erasure per row); a second pass lifts that constraint when the
    /// disks are too full, favouring completion over layout.
    fn allocate_unit(
        &mut self,
        fit: &FileIndexTable,
        row: u64,
        preferred: usize,
    ) -> Result<(u16, Extent), FileServiceError> {
        let ndisks = self.disks.len();
        let used: Vec<u16> = self
            .row_units(fit, row)
            .iter()
            .flatten()
            .map(|d| d.disk)
            .collect();
        for pass in 0..2 {
            for off in 0..ndisks {
                let d = (preferred + off) % ndisks;
                if self.degraded[d] || (pass == 0 && used.contains(&(d as u16))) {
                    continue;
                }
                if let Ok(e) = self.disks[d].allocate_contiguous(FRAGS_PER_BLOCK) {
                    return Ok((d as u16, e));
                }
            }
        }
        Err(no_space())
    }

    /// The parity tier's write-back engine: where [`Self::submit`] sends
    /// file data when [`Redundancy::Parity`] is on. It returns the writes
    /// of the new data and parity units, for `submit` to send.
    ///
    /// A span shorter than a block is widened to its whole unit first,
    /// the rest of the block read from the platter — or reconstructed, on
    /// a degraded disk — unless the spans cover it. Dirty blocks are
    /// grouped by stripe row and each row picks the cheapest correct
    /// technique for this request:
    ///
    /// * **full-stripe write** — every live unit of the row is dirty:
    ///   parity is computed in memory and nothing is read;
    /// * **parity-delta small write** — few dirty units: read the old
    ///   data and old parity, fold the XOR delta into each parity unit
    ///   (`P' = P ⊕ δ`, `Q' = Q ⊕ g^slot·δ`);
    /// * **reconstruct-write** — mid-sized rows (or rows whose
    ///   on-platter parity was never written): read the unchanged
    ///   units and recompute parity whole.
    ///
    /// All old-unit reads across every row go out as one scheduler
    /// pass ([`ParallelIo::Never`] reads them one at a time).
    fn write_back_parity(
        &mut self,
        store: &mut FitStore,
        data: &mut dyn Iterator<Item = ((FileId, u64), BlockBuf)>,
    ) -> Result<Vec<Write>, FileServiceError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Technique {
            Full,
            Delta,
            Reconstruct,
            Degraded,
        }
        struct RowPlan {
            fid: FileId,
            row: u64,
            dirty: Vec<(usize, BlockBuf)>,
            units: Vec<Option<BlockDescriptor>>,
            technique: Technique,
            /// The unit slots whose old contents the technique reads,
            /// and where in the batch of reads they start.
            old: Vec<usize>,
            read_base: usize,
        }
        let (k, m) = self.geometry();
        // Blocks of deleted or truncated files are dropped, and the
        // last write per block wins. Blocks sharing a stripe row share
        // one parity update, so a group-committed flush folds into
        // shared stripe passes.
        let mut rows: BTreeMap<(FileId, u64), BTreeMap<usize, BlockBuf>> = BTreeMap::new();
        let mut data = data.peekable();
        while let Some(((fid, s), buf)) = data.next() {
            let idx = s / FRAGS_PER_BLOCK;
            let Some(d) = store.home_of(self, fid, idx)? else {
                continue;
            };
            let buf = if buf.len() == BLOCK_SIZE {
                buf
            } else {
                // The spans that fill one block from `lo` to `hi` go out
                // as its whole unit, the rest as it is on the platter.
                let lo = (s % FRAGS_PER_BLOCK) as usize * FRAGMENT_SIZE;
                let (mut block, mut hi) = (vec![0; BLOCK_SIZE], lo + buf.len());
                block[lo..hi].copy_from_slice(&buf);
                let at = |hi: usize| (fid, idx * FRAGS_PER_BLOCK + (hi / FRAGMENT_SIZE) as u64);
                while let Some((_, span)) = data.next_if(|w| hi < BLOCK_SIZE && w.0 == at(hi)) {
                    block[hi..hi + span.len()].copy_from_slice(&span);
                    hi += span.len();
                }
                if lo > 0 || hi < BLOCK_SIZE {
                    let old = if self.lost(&d) {
                        self.read_degraded(store, fid, idx)?
                    } else {
                        self.get_block(d.disk, d.addr)?.to_vec()
                    };
                    block[..lo].copy_from_slice(&old[..lo]);
                    block[hi..].copy_from_slice(&old[hi..]);
                }
                BlockBuf::from(block)
            };
            let (row, slot) = data_slot(k, idx);
            rows.entry((fid, row)).or_default().insert(slot, buf);
        }
        // Classify each row and gather the old units it must read.
        let mut plans: Vec<RowPlan> = Vec::with_capacity(rows.len());
        let mut reads: Vec<(u16, FragmentAddr)> = Vec::new();
        for ((fid, row), dirty_slots) in rows {
            let fit = &store.entry(self, fid)?.fit;
            let units = self.row_units(fit, row);
            debug_assert!(
                units[k..].iter().all(Option::is_some),
                "parity allocated with the row"
            );
            let unchanged: Vec<usize> = (0..k)
                .filter(|s| units[*s].is_some() && !dirty_slots.contains_key(s))
                .collect();
            let degraded_row = units.iter().flatten().any(|d| self.lost(d));
            let uninit = self.uninit_rows.contains(&(fid, row));
            let (technique, old) = if unchanged.is_empty() {
                // Every live unit of the row is being rewritten: parity
                // comes straight from the new data, no reads at all.
                (Technique::Full, Vec::new())
            } else if degraded_row {
                // Old values of unreadable units come back through
                // reconstruction (per row, in the second pass).
                (Technique::Degraded, Vec::new())
            } else if !uninit && dirty_slots.len() + m <= unchanged.len() {
                // Small write: one delta per dirty unit folds into the
                // parity — fewer old units read than a reconstruction.
                let old = dirty_slots.keys().copied().chain(k..k + m);
                (Technique::Delta, old.collect())
            } else {
                (Technique::Reconstruct, unchanged)
            };
            let read_base = reads.len();
            let homes = old.iter().map(|&u| units[u].expect("unit exists"));
            reads.extend(homes.map(|d| (d.disk, d.addr)));
            match technique {
                Technique::Full => self.parity_stats.full_stripe_writes += 1,
                Technique::Delta => self.parity_stats.parity_delta_writes += 1,
                _ => self.parity_stats.reconstruct_writes += 1,
            }
            plans.push(RowPlan {
                fid,
                row,
                dirty: dirty_slots.into_iter().collect(),
                units,
                technique,
                old,
                read_base,
            });
        }
        // One scheduler pass for every old unit the whole batch needs
        // (the `Never` ablation reads them one at a time inside).
        let old = if reads.is_empty() {
            Vec::new()
        } else {
            self.get_blocks(&reads)?
        };
        // Parity math per row, then one write batch for everything.
        let zero = vec![0u8; BLOCK_SIZE];
        let mut writes: Vec<Write> = Vec::new();
        for plan in plans {
            let old_units = &old[plan.read_base..][..plan.old.len()];
            let new_parity: Vec<Vec<u8>> = if plan.technique == Technique::Delta {
                let (olds, parity) = old_units.split_at(plan.dirty.len());
                let news = plan.dirty.iter().zip(olds);
                parity::fold_deltas(parity, news.map(|((s, new), old)| (*s, &old[..], &new[..])))
            } else {
                // The row's data as the parity code sees it: absent units
                // zero, unchanged units as read or reconstructed, dirty
                // units new.
                let reconstructed;
                let mut refs: Vec<&[u8]> = vec![&zero; k];
                if plan.technique == Technique::Reconstruct {
                    for (&s, old) in plan.old.iter().zip(old_units) {
                        refs[s] = old;
                    }
                } else if plan.technique == Technique::Degraded {
                    reconstructed = self.load_row_reconstructed(store, plan.fid, plan.row, None)?;
                    for (unit, old) in refs.iter_mut().zip(&reconstructed) {
                        *unit = old;
                    }
                }
                for (s, buf) in &plan.dirty {
                    refs[*s] = buf;
                }
                parity::compute_parity(&refs, m, BLOCK_SIZE)
            };
            for (s, buf) in plan.dirty {
                let d = plan.units[s].expect("dirty slot exists");
                writes.push((None, d.disk, d.block_extent(), buf));
            }
            for (d, p) in plan.units[k..].iter().flatten().zip(new_parity) {
                writes.push((None, d.disk, d.block_extent(), BlockBuf::from(p)));
            }
            self.uninit_rows.remove(&(plan.fid, plan.row));
        }
        Ok(writes)
    }

    /// Loads every unit of `fid`'s stripe row `row` — `k` data then
    /// `m` parity — reconstructing the ones that cannot be read (units
    /// homed on a degraded disk, `extra_erased`, and any unit whose
    /// read fails) from the rest of the parity group. Data slots past
    /// the end of the file are virtual zero units. Reads bypass the
    /// block pool: parity coheres with the platter, not with dirty
    /// cached data.
    ///
    /// # Errors
    ///
    /// [`FileServiceError::ParityLost`] when more than `m` units of
    /// the row are gone.
    fn load_row_reconstructed(
        &mut self,
        store: &mut FitStore,
        fid: FileId,
        row: u64,
        extra_erased: Option<usize>,
    ) -> Result<Vec<Vec<u8>>, FileServiceError> {
        let (k, m) = self.geometry();
        let fit = &store.entry(self, fid)?.fit;
        let descs = self.row_units(fit, row);
        let mut units: Vec<Option<Vec<u8>>> = vec![None; k + m];
        let mut locs: Vec<(usize, u16, FragmentAddr)> = Vec::new();
        for (u, d) in descs.iter().enumerate() {
            match d {
                None => units[u] = Some(vec![0u8; BLOCK_SIZE]), // virtual zero unit
                Some(d) if self.lost(d) || extra_erased == Some(u) => {}
                Some(d) => locs.push((u, d.disk, d.addr)),
            }
        }
        let flat: Vec<(u16, FragmentAddr)> = locs.iter().map(|&(_, d, a)| (d, a)).collect();
        match self.get_blocks(&flat) {
            Ok(bufs) => {
                for (&(u, _, _), buf) in locs.iter().zip(bufs) {
                    units[u] = Some(buf.to_vec());
                }
            }
            Err(_) => {
                // A media fault somewhere in the batch: fall back to
                // per-unit reads so only the faulty unit is erased.
                for &(u, d, a) in &locs {
                    units[u] = self.get_block(d, a).ok().map(|b| b.to_vec());
                }
            }
        }
        parity::reconstruct(&mut units, k, BLOCK_SIZE)
            .map_err(|_| FileServiceError::ParityLost { fid, row })?;
        Ok(units
            .into_iter()
            .map(|u| u.expect("reconstructed"))
            .collect())
    }

    /// The data or parity unit `owner` names, read or rebuilt from the
    /// rest of its row; with `erased` the unit's own platter bytes are
    /// not trusted.
    fn reconstruct_unit(
        &mut self,
        store: &mut FitStore,
        owner: ScrubOwner,
        erased: bool,
    ) -> Result<Vec<u8>, FileServiceError> {
        let (fid, row, slot) = self.slot_of(owner).expect("a unit of the parity tier");
        let mut units = self.load_row_reconstructed(store, fid, row, erased.then_some(slot))?;
        Ok(std::mem::take(&mut units[slot]))
    }

    /// Serves a read whose home unit sits on a degraded disk by
    /// reconstructing it from the surviving units of its parity group —
    /// typed accounting, never an error while at most `m` units are
    /// lost.
    fn read_degraded(
        &mut self,
        store: &mut FitStore,
        fid: FileId,
        block: u64,
    ) -> Result<Vec<u8>, FileServiceError> {
        let unit = self.reconstruct_unit(store, ScrubOwner::Data { fid, block }, false)?;
        self.parity_stats.degraded_reads += 1;
        Ok(unit)
    }

    /// On the parity tier, a consistent image of data block `idx`'s
    /// stripe row as it will read once the block holds what `new`
    /// returns: the rest of the row is read, or reconstructed with the
    /// block's old unit treated as an erasure. `None` without a parity
    /// tier (and `new` is not called).
    fn row_replacing(
        &mut self,
        store: &mut FitStore,
        fid: FileId,
        idx: u64,
        new: impl FnOnce(&mut Self) -> Result<Vec<u8>, FileServiceError>,
    ) -> Result<Option<RowImage>, FileServiceError> {
        let Some((k, _)) = self.redundancy.params() else {
            return Ok(None);
        };
        let (row, slot) = data_slot(k, idx);
        let mut units = self.load_row_reconstructed(store, fid, row, Some(slot))?;
        units[slot] = new(self)?;
        units[slot].resize(BLOCK_SIZE, 0);
        Ok(Some((row, units)))
    }

    /// Computes and writes the parity units of the resident file `fid`'s
    /// row `row` from a complete in-memory image of its data units.
    fn write_row_parity(
        &mut self,
        store: &FitStore,
        fid: FileId,
        (row, units): RowImage,
    ) -> Result<(), FileServiceError> {
        let (k, m) = self.geometry();
        let refs: Vec<&[u8]> = units.iter().take(k).map(|u| u.as_slice()).collect();
        let par = parity::compute_parity(&refs, m, BLOCK_SIZE);
        let descs = self.row_units(&store.loaded(fid).fit, row);
        for (d, p) in descs[k..].iter().flatten().zip(par) {
            let unit = [(d.disk, d.block_extent(), &p[..])];
            self.submit(WritePlan::Extents(Mode::OneAtATime, &unit))?;
        }
        self.uninit_rows.remove(&(fid, row));
        Ok(())
    }

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
    /// # Panics
    ///
    /// Panics without a parity redundancy config, or when `disk` is
    /// out of range.
    pub(crate) fn fail_disk(
        &mut self,
        store: &mut FitStore,
        disk: usize,
    ) -> Result<(), FileServiceError> {
        assert!(
            self.redundancy.is_parity(),
            "fail_disk needs the parity tier (mirroring lives in the replication layer)"
        );
        // Preserve in memory, before touching anything, every FIT with a
        // fragment on the lost disk: its platter copy is about to vanish.
        let here = |o: &Owned| o.0 as usize == disk;
        let metadata = |o: &Owned| matches!(o.2, ScrubOwner::Fit(_) | ScrubOwner::Indirect(_));
        let mut preserved = Vec::new();
        let owned = store.walk(self, |fid, entry| {
            let entry = entry?;
            if entry.owned_extents(fid).any(|o| here(&o) && metadata(&o)) {
                preserved.push((fid, entry.clone()));
            }
            Ok(())
        })?;
        let old = &mut self.disks[disk];
        self.disks[disk] = DiskService::with_stable(
            old.geometry(),
            old.disk_mut().model(),
            old.clock(),
            Default::default(),
        );
        self.degraded[disk] = true;
        self.rebuild_cursors[disk] = None;
        if disk == 0 {
            store.forget_directory_image();
        }
        for (_, extent, _) in owned.into_iter().filter(here) {
            self.disks[disk].repin_extent(extent);
        }
        // The degraded set is on the platter before the spare takes a write.
        store.persist_directory(self)?;
        for (fid, entry) in preserved {
            store.insert(fid, entry);
            store.persist(self, fid)?;
        }
        Ok(())
    }

    /// Budgeted online rebuild: reconstructs the stripe units homed on
    /// each degraded disk onto its spare, at most `budget` units per
    /// call (`None` = run to completion), resuming where the last call
    /// left off while foreground traffic continues. A disk whose last
    /// unit lands leaves degraded state, in the directory header too; the
    /// report says how many units were written and whether every disk is
    /// clean again.
    ///
    /// # Errors
    ///
    /// [`FileServiceError::ParityLost`] when a row has lost more units
    /// than its parity covers; disk failures.
    pub(crate) fn rebuild(
        &mut self,
        store: &mut FitStore,
        budget: Option<u64>,
    ) -> Result<RebuildReport, FileServiceError> {
        let mut pages = 0u64;
        let mut remaining = budget.unwrap_or(u64::MAX);
        for disk in 0..self.disks.len() {
            if !self.degraded[disk] {
                continue;
            }
            let (from, resume) = self.rebuild_cursors[disk].unwrap_or((FileId(0), 0));
            let mut cursor = None;
            'files: for fid in store.file_ids().into_iter().filter(|&fid| fid >= from) {
                // The file's stripe units, data first, then parity.
                let owned = store.entry(self, fid)?.owned_extents(fid);
                let units = owned.filter(|o| self.slot_of(o.2).is_some()).enumerate();
                let resume = if fid == from { resume } else { 0 };
                let units: Vec<(usize, Owned)> = units.skip(resume).collect();
                for (unit, (d, extent, owner)) in units {
                    if remaining == 0 {
                        cursor = Some((fid, unit));
                        break 'files;
                    }
                    if d as usize == disk {
                        let buf = self.reconstruct_unit(store, owner, false)?;
                        let unit = [(d, extent, &buf[..])];
                        self.submit(WritePlan::Extents(Mode::OneAtATime, &unit))?;
                        pages += 1;
                        self.parity_stats.rebuild_pages += 1;
                        remaining -= 1;
                    }
                }
            }
            self.rebuild_cursors[disk] = cursor;
            if cursor.is_none() {
                self.degraded[disk] = false;
                store.persist_directory(self)?;
            }
        }
        Ok(RebuildReport {
            pages,
            complete: !self.degraded.iter().any(|&d| d),
        })
    }
}
