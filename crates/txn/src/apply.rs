//! The one applier of a committed intentions list (§6.7): a live commit,
//! a resolved participant and a recovery redo all end here.
//!
//! This module owns one decision — *how* a committed change is made
//! permanent. A whole page goes by write-ahead logging when its file's
//! blocks are contiguous (preserving contiguity) and by a shadow swing
//! when they are not; a record, and a partial page, goes into the block
//! pool as a dirty block the log covers until write-back or a checkpoint
//! takes it home. A redo may run over an apply that already happened, so
//! the applier is idempotent. When a commit is applied is the commit
//! sequence's (`commit.rs`).

use crate::commit::PreparedCommit;
use crate::error::TxnError;
use crate::intentions::{Intention, Technique};
use crate::service::TransactionService;
use rhodos_disk_service::BLOCK_SIZE;
use rhodos_file_service::{FileId, FileIndexTable, LockLevel};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

impl TransactionService {
    /// The one applier of a committed intentions list — a live commit, a
    /// resolved participant and a recovery redo all end here: makes the
    /// changes permanent ([`Self::apply_intentions`]), performs the
    /// deferred deletions and marks the intentions applied by appending
    /// the `Completed` marker.
    pub(crate) fn apply_committed(&mut self, p: &PreparedCommit) -> Result<(), TxnError> {
        // Logical sizes first: intentions are block-granular and alone
        // would leave a size-extending commit short. (A redo may name a
        // file its own commit went on to delete.)
        for &(fid, size) in &p.sizes {
            if self.fs.exists(fid) {
                self.fs.ensure_size(fid, size)?;
            }
        }
        self.apply_intentions(&p.intentions)?;
        for &fid in &p.to_delete {
            // Close our own handle if we had one, then delete.
            if self.txn(p.txn)?.open_files.contains(&fid) {
                let _ = self.tclose(p.txn, fid);
            }
            self.fs.delete(fid)?;
        }
        if p.has_effects {
            self.log.append_outcome(p.txn, true);
        }
        Ok(())
    }

    /// The record applier. Records always use WAL: the log record *is*
    /// the log entry, applied in place — into the block pool, as a dirty
    /// block the log covers until the pool's write-back or a checkpoint
    /// takes it home. Nothing here writes the platter but the evictions
    /// the insert causes.
    fn apply_record(&mut self, fid: FileId, offset: u64, data: &[u8]) -> Result<(), TxnError> {
        self.fs.ensure_size(fid, offset + data.len() as u64)?;
        let attrs = self.fs.get_attribute(fid)?;
        let opened_here = attrs.ref_count == 0;
        if opened_here {
            self.fs.open(fid)?;
        }
        let written = self.fs.write(fid, offset, data);
        if opened_here {
            self.fs.release(fid)?;
        }
        written?;
        // On a page- or file-level file a record is a partial page:
        // page-mode WAL.
        if attrs.lock_level == LockLevel::Record {
            self.stats.record_intentions += 1;
        } else {
            self.stats.wal_pages += 1;
        }
        Ok(())
    }

    /// Applies an intentions list — every commit's, vote's and redo's the
    /// same way. The tentative blocks of its whole pages are fetched in one
    /// per-spindle elevator pass; each page is made permanent by the
    /// technique its file's layout picks (§6.7), WAL pages landing as one
    /// write batch (physically adjacent blocks merge into single disk
    /// references); then its records go, in order, into the pool.
    ///
    /// The apply may have run before a crash ate the `Completed` marker,
    /// so two guards make a redo idempotent. Both read in-memory state
    /// only:
    ///
    /// - an intention on a file its own commit went on to delete is
    ///   skipped — a page's tentative block is freed after the next force;
    /// - a page whose descriptor already names its tentative block is
    ///   skipped: that swing landed. Applied again as WAL, the live block
    ///   would be copied onto itself and then freed.
    fn apply_intentions(&mut self, intentions: &[Intention]) -> Result<(), TxnError> {
        // Pass 1: growth, in list order — growth can change a file's
        // layout, so finish all of it before snapshotting the FITs.
        let mut pages: Vec<(FileId, u64, u16, u64)> = Vec::new();
        for intent in intentions {
            let &Intention::Page {
                fid,
                index,
                tentative_disk,
                tentative_addr,
            } = intent
            else {
                continue;
            };
            if !self.fs.exists(fid) {
                self.log.defer_free(tentative_disk, tentative_addr);
                continue;
            }
            let nblocks = self.fs.get_attribute(fid)?.size.div_ceil(BLOCK_SIZE as u64);
            if index >= nblocks {
                self.fs.ensure_size(fid, (index + 1) * BLOCK_SIZE as u64)?;
            }
            pages.push((fid, index, tentative_disk, tentative_addr));
        }
        // One FIT snapshot per file picks the technique and guards the redo.
        let mut fits: HashMap<FileId, (FileIndexTable, Technique)> = HashMap::new();
        for &(fid, ..) in &pages {
            if let Entry::Vacant(e) = fits.entry(fid) {
                let fit = self.fs.fit_snapshot(fid)?;
                let technique = if fit.contiguity_ratio() >= 1.0 {
                    Technique::Wal
                } else {
                    Technique::Shadow
                };
                e.insert((fit, technique));
            }
        }
        pages.retain(|&(fid, index, td, ta)| {
            let live = fits[&fid].0.descriptor(index).map(|d| (d.disk, d.addr));
            live != Some((td, ta))
        });
        // Pass 2: one elevator batch reads every tentative block.
        let locs: Vec<(u16, u64)> = pages.iter().map(|&(_, _, d, a)| (d, a)).collect();
        let bufs = self.fs.get_detached_blocks(&locs)?;
        self.stats.commit_batch_pages += pages.len() as u64;
        // Pass 3: WAL pages become one write batch; shadow swings are FIT
        // surgery (no data transfer) and stay serial.
        let mut wal_writes: Vec<(FileId, u64, rhodos_buf::BlockBuf)> = Vec::new();
        let mut wal_frees: Vec<(u16, u64)> = Vec::new();
        for (&(fid, index, td, ta), buf) in pages.iter().zip(bufs) {
            match fits[&fid].1 {
                Technique::Wal => {
                    wal_writes.push((fid, index, buf));
                    wal_frees.push((td, ta));
                    self.stats.wal_pages += 1;
                }
                Technique::Shadow => {
                    let (od, oa) = self.fs.replace_block_descriptor(fid, index, td, ta)?;
                    self.fs.free_detached_block(od, oa)?;
                    self.stats.shadow_pages += 1;
                }
            }
        }
        self.fs.write_blocks(wal_writes)?;
        // The frees wait for the `Completed` marker to be durable.
        for (d, a) in wal_frees {
            self.log.defer_free(d, a);
        }
        // Pass 4: record intentions, in order, into the pool.
        for intent in intentions {
            if let Intention::Record { fid, offset, data } = intent {
                if self.fs.exists(*fid) {
                    self.apply_record(*fid, *offset, data)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::setup;
    use rhodos_file_service::LockLevel;

    #[test]
    fn contiguous_file_commits_via_wal_and_stays_contiguous() {
        let (mut ts, fid) = setup(LockLevel::Page);
        let t0 = ts.tbegin();
        ts.topen(t0, fid).unwrap();
        ts.twrite(t0, fid, 0, &vec![9u8; 8 * BLOCK_SIZE]).unwrap();
        ts.tend(t0).unwrap();
        let before = ts.file_service_mut().fit_snapshot(fid).unwrap();
        assert_eq!(before.contiguity_ratio(), 1.0);
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.twrite(t, fid, 3 * BLOCK_SIZE as u64, b"update in place")
            .unwrap();
        ts.tend(t).unwrap();
        let after = ts.file_service_mut().fit_snapshot(fid).unwrap();
        assert_eq!(
            after.contiguity_ratio(),
            1.0,
            "WAL must preserve contiguity"
        );
        assert!(ts.stats().wal_pages > 0);
        assert_eq!(ts.stats().shadow_pages, 0);
        // And the data is there.
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        assert_eq!(
            ts.tread(t2, fid, 3 * BLOCK_SIZE as u64, 15).unwrap(),
            b"update in place"
        );
        ts.tend(t2).unwrap();
    }

    /// A page-level file whose four blocks interleave with another's.
    fn fragmented() -> (TransactionService, FileId) {
        let (mut ts, fid) = setup(LockLevel::Page);
        // Build a deliberately fragmented file: interleave with another
        // file's allocations.
        let other = ts.tcreate(LockLevel::Page).unwrap();
        let fs = ts.file_service_mut();
        fs.open(fid).unwrap();
        fs.open(other).unwrap();
        for i in 0..4u64 {
            fs.write(fid, i * BLOCK_SIZE as u64, vec![1u8; BLOCK_SIZE])
                .unwrap();
            fs.write(other, i * BLOCK_SIZE as u64, vec![2u8; BLOCK_SIZE])
                .unwrap();
        }
        fs.flush_all().unwrap();
        fs.close(fid).unwrap();
        fs.close(other).unwrap();
        let ratio = ts
            .file_service_mut()
            .fit_snapshot(fid)
            .unwrap()
            .contiguity_ratio();
        assert!(
            ratio < 1.0,
            "setup should fragment the file (ratio {ratio})"
        );
        (ts, fid)
    }

    #[test]
    fn fragmented_file_commits_via_shadow_pages() {
        let (mut ts, fid) = fragmented();
        let mut page = vec![3u8; BLOCK_SIZE];
        page[..8].copy_from_slice(b"shadowed");
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.twrite(t, fid, 0, &page).unwrap();
        ts.tend(t).unwrap();
        assert!(ts.stats().shadow_pages > 0, "shadow technique expected");
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        assert_eq!(ts.tread(t2, fid, 0, BLOCK_SIZE).unwrap(), page);
        ts.tend(t2).unwrap();
    }

    #[test]
    fn a_partial_page_of_a_fragmented_file_commits_in_place() {
        let (mut ts, fid) = fragmented();
        let before = ts.file_service_mut().block_descriptors(fid).unwrap();
        let ratio = ts
            .file_service_mut()
            .fit_snapshot(fid)
            .unwrap()
            .contiguity_ratio();
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.twrite(t, fid, 100, b"in place").unwrap();
        ts.tend(t).unwrap();
        assert_eq!((ts.stats().wal_pages, ts.stats().shadow_pages), (1, 0));
        let fs = ts.file_service_mut();
        assert_eq!(fs.block_descriptors(fid).unwrap(), before, "no swing");
        assert_eq!(fs.fit_snapshot(fid).unwrap().contiguity_ratio(), ratio);
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        assert_eq!(
            ts.tread(t2, fid, 96, 16).unwrap(),
            b"\x01\x01\x01\x01in place\x01\x01\x01\x01"
        );
        ts.tend(t2).unwrap();
    }

    #[test]
    fn record_mode_log_carries_data_inline() {
        let (mut ts, fid) = setup(LockLevel::Record);
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.twrite(t, fid, 5, b"record-mode payload").unwrap();
        ts.tend(t).unwrap();
        assert_eq!(ts.stats().record_intentions, 1);
        assert_eq!(ts.stats().wal_pages + ts.stats().shadow_pages, 0);
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        assert_eq!(ts.tread(t2, fid, 5, 19).unwrap(), b"record-mode payload");
        ts.tend(t2).unwrap();
    }
}
