//! The FIT store: the file directory, the *fragment pool* of cached file
//! index tables, the table of open files, and the one walk over
//! everything a file owns.
//!
//! Nothing outside this module names a directory slot, a pool entry's
//! home fragment or its indirect tables. The store owns no disk — every
//! transfer goes through the [`Volume`] it is handed.

use crate::attrs::{FileAttributes, FileId};
use crate::error::FileServiceError;
use crate::fit::{BlockDescriptor, FileIndexTable, IndirectLocs, MAX_INDIRECT_TABLES};
use crate::lease::LeaseRecord;
use crate::plan::{Mode, WritePlan};
use crate::scrub::ScrubOwner;
use crate::volume::Volume;
use rhodos_disk_service::codec::{DecodeError, Decoder, Encoder};
use rhodos_disk_service::{Extent, FragmentAddr, FRAGMENT_SIZE, FRAGS_PER_BLOCK};
use std::collections::BTreeMap;

/// The file directory region: the first 16 fragments of disk 0, where
/// a mount looks for it. A directory write covers the fragments that
/// changed since the last image written or read.
const DIRECTORY: Extent = Extent { start: 0, len: 16 };

/// Capacity of the *fragment pool* — the cache of file index tables — in
/// FITs ("the space for caching a fragment and block is acquired from a
/// fragment-pool and block-pool", §5).
pub(crate) const FIT_POOL_ENTRIES: usize = 256;

const DIR_MAGIC: u32 = 0x52_48_44_46; // "RHDF"

/// One extent the metadata owns: the disk it is on, and what it is.
pub(crate) type Owned = (u16, Extent, ScrubOwner);

/// A file index table resident in the fragment pool.
#[derive(Debug, Clone)]
pub(crate) struct FitEntry {
    pub(crate) fit: FileIndexTable,
    /// The disk holding the FIT fragment (and new indirect tables).
    pub(crate) home: u16,
    fit_frag: FragmentAddr,
    indirect_locs: IndirectLocs,
    /// The pool's clock reading at the entry's last use (LRU order).
    last_use: u64,
}

impl FitEntry {
    /// Everything the file owns — data units, parity units, indirect
    /// tables, the FIT fragment — each with its owner tag. The order is
    /// the order `delete` frees them in, which the free-extent index of
    /// the disk service remembers.
    pub(crate) fn owned_extents(&self, fid: FileId) -> impl Iterator<Item = Owned> + '_ {
        let data = self
            .fit
            .descriptors()
            .iter()
            .zip(0..)
            .map(move |(d, block)| {
                let owner = ScrubOwner::Data { fid, block };
                (d.disk, d.block_extent(), owner)
            });
        let parity = self.fit.parity_descriptors().iter().zip(0..);
        let parity = parity.map(move |(d, index)| {
            let owner = ScrubOwner::Parity { fid, index };
            (d.disk, d.block_extent(), owner)
        });
        let indirect = self.indirect_locs.iter().map(move |&(d, a)| {
            let extent = Extent::new(a, FRAGS_PER_BLOCK);
            (d, extent, ScrubOwner::Indirect(fid))
        });
        let fit = (
            self.home,
            Extent::new(self.fit_frag, 1),
            ScrubOwner::Fit(fid),
        );
        data.chain(parity).chain(indirect).chain([fit])
    }
}

/// The directory and the fragment pool.
#[derive(Debug, Default)]
pub(crate) struct FitStore {
    /// Where every file's FIT fragment lives. Ordered: recovery, scrub,
    /// fsck and rebuild visit files in `FileId` order, every run.
    directory: BTreeMap<FileId, (u16, FragmentAddr)>,
    /// Well-known system file (the transaction service's intention log),
    /// persisted in the directory header so recovery can find it.
    system_fid: Option<FileId>,
    next_fid: u64,
    fits: BTreeMap<FileId, FitEntry>,
    /// "Number of instances a file is opened simultaneously", for the
    /// files that are open. Soft state beside the pool, never written to
    /// the platter: evicting the FIT of an open file loses nothing, and a
    /// crash closes every file.
    open_counts: BTreeMap<FileId, u32>,
    /// Counts pool uses; an entry's `last_use` is its reading.
    tick: u64,
    loads: u64,
    hits: u64,
    /// The lease record as the directory header last carried it.
    pub(crate) lease: LeaseRecord,
    /// The directory as the platter has it, once known
    /// ([`Self::encode_directory`]): what the next write is compared
    /// against.
    dir_image: Option<Vec<u8>>,
}

impl FitStore {
    /// Reserves the directory region on the blank disk 0 of `vol` and
    /// writes an empty directory into it.
    pub(crate) fn format(&mut self, vol: &mut Volume) -> Result<(), FileServiceError> {
        // Where a mount looks for it.
        assert_eq!(vol.disk(0).allocate_contiguous(DIRECTORY.len)?, DIRECTORY);
        self.next_fid = 1;
        self.persist_directory(vol)
    }

    /// `(FIT fragments loaded from disk, lookups served from the pool)`.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.loads, self.hits)
    }

    pub(crate) fn file_ids(&self) -> Vec<FileId> {
        self.directory.keys().copied().collect()
    }

    pub(crate) fn exists(&self, fid: FileId) -> bool {
        self.directory.contains_key(&fid)
    }

    pub(crate) fn system_file(&self) -> Option<FileId> {
        self.system_fid
    }

    pub(crate) fn set_system_file(
        &mut self,
        vol: &mut Volume,
        fid: FileId,
    ) -> Result<(), FileServiceError> {
        if !self.exists(fid) {
            return Err(FileServiceError::NotFound(fid));
        }
        self.system_fid = Some(fid);
        self.persist_directory(vol)
    }

    // ---- directory persistence ----------------------------------------

    /// The directory as it is laid out at the start of its region, the
    /// rest of which is zeros: a header — the next system name, the
    /// system file, and the server record (the lease record and the
    /// degraded disks of `vol`) — then every file's FIT address.
    fn encode_directory(&self, vol: &Volume) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u32(DIR_MAGIC)
            .u64(self.next_fid)
            .u64(self.system_fid.map(|f| f.0).unwrap_or(0))
            .u64(self.lease.epoch)
            .u32(self.lease.dead.len() as u32);
        for (fid, seq) in &self.lease.dead {
            e.u64(fid.0).u64(*seq);
        }
        let degraded = (0..).zip(vol.degraded()).filter(|(_, &lost)| lost);
        let degraded: Vec<u16> = degraded.map(|(d, _)| d).collect();
        e.u32(degraded.len() as u32);
        for d in degraded {
            e.u16(d);
        }
        e.u32(self.directory.len() as u32);
        for (fid, (disk, frag)) in &self.directory {
            e.u64(fid.0).u16(*disk).u64(*frag);
        }
        e.finish()
    }

    /// Writes the directory ([`Self::encode_directory`]): the fragments
    /// from the first that differs from the image last written or read to
    /// the last, so a change of the server record is one fragment — the
    /// whole region when the platter's copy is unknown.
    pub(crate) fn persist_directory(&mut self, vol: &mut Volume) -> Result<(), FileServiceError> {
        let image = self.encode_directory(vol);
        if image.len() > DIRECTORY.len_bytes() {
            return Err(FileServiceError::DirectoryFull);
        }
        // Fragment `f` of an image, as far as the image reaches: equal
        // slices are equal fragments, the rest of each being zeros.
        fn fragment(image: &[u8], f: usize) -> &[u8] {
            let at = |f: usize| (f * FRAGMENT_SIZE).min(image.len());
            &image[at(f)..at(f + 1)]
        }
        let old = self.dir_image.take();
        let changed = |&f: &usize| {
            old.as_deref()
                .is_none_or(|old| fragment(old, f) != fragment(&image, f))
        };
        let frags = 0..DIRECTORY.len as usize;
        if let (Some(first), Some(last)) = (frags.clone().find(changed), frags.rev().find(changed))
        {
            let mut buf = image.clone();
            buf.resize((last + 1) * FRAGMENT_SIZE, 0);
            let extent = Extent::new(DIRECTORY.start + first as u64, (last - first + 1) as u64);
            let region = [(0, extent, &buf[first * FRAGMENT_SIZE..])];
            vol.submit(WritePlan::Extents(Mode::Meta, &region))?;
        }
        self.dir_image = Some(image);
        Ok(())
    }

    /// Forgets the directory image: the next write is the whole region
    /// (disk 0 was replaced by a blank spare).
    pub(crate) fn forget_directory_image(&mut self) {
        self.dir_image = None;
    }

    /// Reads the directory region back into the store, and the degraded
    /// disks it names into `vol`.
    fn load_directory(&mut self, vol: &mut Volume) -> Result<(), FileServiceError> {
        let buf = vol.get_meta(0, DIRECTORY)?;
        let mut d = Decoder::new(&buf);
        let header = |e: DecodeError| FileServiceError::corrupt(FileId(0), e);
        if d.u32().map_err(header)? != DIR_MAGIC {
            return Err(FileServiceError::Corrupt(FileId(0)));
        }
        self.next_fid = d.u64().map_err(header)?;
        let system_raw = d.u64().map_err(header)?;
        self.system_fid = (system_raw != 0).then_some(FileId(system_raw));
        self.lease.epoch = d.u64().map_err(header)?;
        for _ in 0..d.u32().map_err(header)? {
            let fid = FileId(d.u64().map_err(header)?);
            self.lease.dead.insert(fid, d.u64().map_err(header)?);
        }
        for _ in 0..d.u32().map_err(header)? {
            vol.mark_degraded(d.u16().map_err(header)?);
        }
        for _ in 0..d.u32().map_err(header)? {
            let fid = FileId(d.u64().map_err(header)?);
            let disk_no = d.u16().map_err(|e| FileServiceError::corrupt(fid, e))?;
            let frag = d.u64().map_err(|e| FileServiceError::corrupt(fid, e))?;
            self.directory.insert(fid, (disk_no, frag));
        }
        self.dir_image = Some(self.encode_directory(vol));
        Ok(())
    }

    // ---- the fragment pool ----------------------------------------------

    /// The pool entry of `fid`, loaded from its home fragment (or the
    /// stable copy) and indirect tables when not resident — step two of
    /// the location procedure. Counts as a use of the entry.
    ///
    /// # Errors
    ///
    /// [`FileServiceError::NotFound`] if the directory has no such file;
    /// [`FileServiceError::Corrupt`] or a disk error if no copy decodes.
    pub(crate) fn entry(
        &mut self,
        vol: &mut Volume,
        fid: FileId,
    ) -> Result<&mut FitEntry, FileServiceError> {
        if self.fits.contains_key(&fid) {
            self.hits += 1;
        } else {
            let loaded = self.load(vol, fid)?;
            self.loads += 1;
            self.insert(fid, loaded);
        }
        self.tick += 1;
        let entry = self.fits.get_mut(&fid).expect("FIT loaded above");
        entry.last_use = self.tick;
        Ok(entry)
    }

    fn load(&self, vol: &mut Volume, fid: FileId) -> Result<FitEntry, FileServiceError> {
        let &(home, fit_frag) = self
            .directory
            .get(&fid)
            .ok_or(FileServiceError::NotFound(fid))?;
        let buf = vol.get_meta(home, Extent::new(fit_frag, 1))?;
        let (mut fit, _total, indirect_locs) = FileIndexTable::decode_fit_fragment(&buf)
            .map_err(|e| FileServiceError::corrupt(fid, e))?;
        for &(idisk, iaddr) in &indirect_locs {
            let chunk = vol.get_block(idisk, iaddr)?;
            fit.extend_from_indirect_chunk(&chunk)
                .map_err(|e| FileServiceError::corrupt(fid, e))?;
        }
        fit.seal();
        Ok(FitEntry {
            fit,
            home,
            fit_frag,
            indirect_locs,
            last_use: 0,
        })
    }

    /// Puts `entry` in the pool as the most recently used and evicts the
    /// coldest entries past the pool's capacity. Safe because every
    /// change to what a FIT says about the platter — size, descriptors,
    /// lock level — is persisted by the operation that makes it, so an
    /// evicted entry reloads from disk (or its stable copy) on next use;
    /// what is not persisted (the open count) does not live in the entry.
    pub(crate) fn insert(&mut self, fid: FileId, mut entry: FitEntry) {
        self.tick += 1;
        entry.last_use = self.tick;
        self.fits.insert(fid, entry);
        while self.fits.len() > FIT_POOL_ENTRIES {
            let coldest = self.fits.iter().min_by_key(|(_, e)| e.last_use);
            let Some(coldest) = coldest.map(|(fid, _)| *fid) else {
                break;
            };
            self.fits.remove(&coldest);
        }
    }

    /// The entry a caller's earlier [`Self::entry`] made resident.
    pub(crate) fn loaded(&self, fid: FileId) -> &FitEntry {
        self.fits.get(&fid).expect("FIT loaded by caller")
    }

    /// Mutable form of [`Self::loaded`].
    pub(crate) fn loaded_mut(&mut self, fid: FileId) -> &mut FitEntry {
        self.fits.get_mut(&fid).expect("FIT loaded by caller")
    }

    /// Where dirty block `idx` of `fid` is written back to. The FIT may
    /// have been evicted from the fragment pool while the block sat in
    /// the block pool — then it is reloaded; only the directory says a
    /// file is gone. `None` means the block has no home any more and is
    /// to be dropped: its file was deleted, or truncated below it.
    pub(crate) fn home_of(
        &mut self,
        vol: &mut Volume,
        fid: FileId,
        idx: u64,
    ) -> Result<Option<BlockDescriptor>, FileServiceError> {
        if !self.fits.contains_key(&fid) {
            if !self.directory.contains_key(&fid) {
                return Ok(None);
            }
            self.entry(vol, fid)?;
        }
        Ok(self.fits.get(&fid).and_then(|e| e.fit.descriptor(idx)))
    }

    /// Writes the resident FIT of `fid` to its home fragment, after
    /// provisioning (or releasing) the indirect tables it needs.
    pub(crate) fn persist(
        &mut self,
        vol: &mut Volume,
        fid: FileId,
    ) -> Result<(), FileServiceError> {
        let entry = self.loaded_mut(fid);
        let needed = entry.fit.indirect_tables_required();
        if needed > MAX_INDIRECT_TABLES {
            return Err(FileServiceError::FileTooLarge(fid));
        }
        while entry.indirect_locs.len() > needed {
            let (d, a) = entry.indirect_locs.pop().expect("nonempty");
            vol.disk(d).free(Extent::new(a, FRAGS_PER_BLOCK))?;
        }
        while entry.indirect_locs.len() < needed {
            // Indirect tables live in the top region, away from file data.
            let e = vol
                .disk(entry.home)
                .allocate_contiguous_top(FRAGS_PER_BLOCK)?;
            entry.indirect_locs.push((entry.home, e.start));
        }
        let chunks = entry.fit.encode_indirect_chunks();
        debug_assert_eq!(chunks.len(), entry.indirect_locs.len());
        for (chunk, &(d, a)) in chunks.iter().zip(&entry.indirect_locs) {
            let table = [(d, Extent::new(a, FRAGS_PER_BLOCK), &chunk[..])];
            vol.submit(WritePlan::Extents(Mode::Meta, &table))?;
        }
        let frag = entry.fit.encode_fit_fragment(&entry.indirect_locs);
        let fit = [(entry.home, Extent::new(entry.fit_frag, 1), &frag[..])];
        vol.submit(WritePlan::Extents(Mode::Meta, &fit))
    }

    /// Drops every pool entry (they reload on next use).
    pub(crate) fn evict_all(&mut self) {
        self.fits.clear();
    }

    // ---- the open table -------------------------------------------------

    /// How many times `fid` is open right now.
    pub(crate) fn open_count(&self, fid: FileId) -> u32 {
        self.open_counts.get(&fid).copied().unwrap_or(0)
    }

    /// Counts one more open instance of `fid`, whose FIT is brought into
    /// the pool. Writes nothing.
    pub(crate) fn open(&mut self, vol: &mut Volume, fid: FileId) -> Result<(), FileServiceError> {
        self.entry(vol, fid)?;
        *self.open_counts.entry(fid).or_default() += 1;
        Ok(())
    }

    /// Counts one open instance of `fid` fewer.
    pub(crate) fn close(&mut self, fid: FileId) -> Result<(), FileServiceError> {
        if !self.exists(fid) {
            return Err(FileServiceError::NotFound(fid));
        }
        match self.open_counts.get_mut(&fid) {
            None => return Err(FileServiceError::NotOpen(fid)),
            Some(1) => drop(self.open_counts.remove(&fid)),
            Some(n) => *n -= 1,
        }
        Ok(())
    }

    // ---- lifecycle ------------------------------------------------------

    /// Makes a new file: the next system name, a FIT placed by the volume,
    /// both persisted.
    pub(crate) fn create(
        &mut self,
        vol: &mut Volume,
        attrs: FileAttributes,
    ) -> Result<FileId, FileServiceError> {
        let fid = FileId(self.next_fid);
        self.next_fid += 1;
        let mut fit = FileIndexTable::new(attrs);
        let (home, fit_frag) = vol.place_file(&mut fit)?;
        let entry = FitEntry {
            fit,
            home,
            fit_frag,
            indirect_locs: Vec::new(),
            last_use: 0,
        };
        self.insert(fid, entry);
        self.directory.insert(fid, (home, fit_frag));
        self.persist(vol, fid)?;
        self.persist_directory(vol)?;
        Ok(fid)
    }

    /// Frees everything the resident file `fid` owns and strikes it from
    /// the directory.
    pub(crate) fn delete(&mut self, vol: &mut Volume, fid: FileId) -> Result<(), FileServiceError> {
        let entry = self
            .fits
            .remove(&fid)
            .ok_or(FileServiceError::NotFound(fid))?;
        vol.free_file(fid, entry.owned_extents(fid))?;
        self.directory.remove(&fid);
        self.persist_directory(vol)
    }

    // ---- the walk -------------------------------------------------------

    /// Everything the metadata owns: the directory region, then every
    /// file's [`FitEntry::owned_extents`], each FIT loaded in turn in
    /// `FileId` order — so the walk sees every file, not the pool's
    /// residents. `visit` gets each entry as it is loaded, or the reason
    /// it cannot be; its error ends the walk. A file whose FIT copies are
    /// all unreadable still owns the fragment the directory names.
    pub(crate) fn walk(
        &mut self,
        vol: &mut Volume,
        mut visit: impl FnMut(
            FileId,
            Result<&mut FitEntry, FileServiceError>,
        ) -> Result<(), FileServiceError>,
    ) -> Result<Vec<Owned>, FileServiceError> {
        let mut owned = vec![(0, DIRECTORY, ScrubOwner::Directory)];
        for (fid, (home, fit_frag)) in self.directory.clone() {
            match self.entry(vol, fid) {
                Ok(entry) => {
                    visit(fid, Ok(&mut *entry))?;
                    owned.extend(entry.owned_extents(fid));
                }
                Err(e) => {
                    owned.push((home, Extent::new(fit_frag, 1), ScrubOwner::Fit(fid)));
                    visit(fid, Err(e))?;
                }
            }
        }
        Ok(owned)
    }

    /// Fills the empty store of a mount: the directory (main storage,
    /// then the stable copy) and every FIT, and returns what they own. No
    /// file is open afterwards: the open table is soft state, like the
    /// lease grants.
    pub(crate) fn mount(&mut self, vol: &mut Volume) -> Result<Vec<Owned>, FileServiceError> {
        self.load_directory(vol)?;
        self.walk(vol, |_, entry| entry.map(drop))
    }
}
