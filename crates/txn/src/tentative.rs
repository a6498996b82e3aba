//! What a transaction sees before it commits: its tentative pages and
//! records, the family chain a nested transaction reads through, the
//! nested merge, and abort.
//!
//! This module owns one decision — how an uncommitted write is held and
//! made visible to its own family only. A page-mode write keeps the whole
//! page in memory with its dirty range, and a page whose range covers the
//! block gets a detached block, which is what its commit record points
//! at; a child's first touch of a page copies the youngest ancestor's
//! version; the youngest copy wins a read. Nothing here writes the log or
//! a home block.

use crate::error::TxnError;
use crate::intentions::Intention;
use crate::service::{TransactionService, TxnId};
use rhodos_disk_service::BLOCK_SIZE;
use rhodos_file_service::FileId;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A page-mode tentative page: the whole page as the transaction sees it,
/// the range `[lo, hi)` of it that was written, and — only once that
/// range covers the whole block — the detached block holding it. A
/// commit logs a pointer to the block, or the dirty bytes themselves.
#[derive(Debug, Clone)]
struct TentativePage {
    shadow: Option<(u16, u64)>,
    lo: usize,
    hi: usize,
    data: Vec<u8>,
}

impl TentativePage {
    /// A page nothing has been written to yet.
    fn clean(data: Vec<u8>) -> Self {
        Self {
            shadow: None,
            lo: BLOCK_SIZE,
            hi: 0,
            data,
        }
    }

    fn is_whole(&self) -> bool {
        (self.lo, self.hi) == (0, BLOCK_SIZE)
    }

    /// Widens the dirty range to take in `[lo, hi)`.
    fn cover(&mut self, lo: usize, hi: usize) {
        self.lo = self.lo.min(lo);
        self.hi = self.hi.max(hi);
    }

    /// What the commit record carries for logical block `index` of
    /// `fid`: the detached block, or the dirty bytes inline — which are
    /// recovered as a record update.
    fn intention(&self, fid: FileId, index: u64) -> Intention {
        match self.shadow {
            Some((tentative_disk, tentative_addr)) => Intention::Page {
                fid,
                index,
                tentative_disk,
                tentative_addr,
            },
            None => Intention::Record {
                fid,
                offset: index * BLOCK_SIZE as u64 + self.lo as u64,
                data: self.data[self.lo..self.hi].to_vec(),
            },
        }
    }
}

#[derive(Debug)]
pub(crate) struct ActiveTxn {
    pub(crate) pid: u64,
    /// Parent transaction for nested transactions (§6.4 mentions nested
    /// transactions as a source of long-running work). `None` for
    /// top-level transactions.
    pub(crate) parent: Option<TxnId>,
    /// Files this transaction `topen`ed. Ordered: commit, abort and
    /// nested adoption each close them one by one, every close persists
    /// a FIT, and the order of those disk references must not depend on
    /// a per-process hash seed.
    pub(crate) open_files: BTreeSet<FileId>,
    /// Files visible through an ancestor's `topen` (no own reference).
    pub(crate) inherited_files: BTreeSet<FileId>,
    /// Ordered for the same reason as `open_files`: abort and nested
    /// merge free these blocks one by one.
    tentative_pages: BTreeMap<(FileId, u64), TentativePage>,
    /// Record-mode tentative writes, in order.
    pub(crate) tentative_records: Vec<(FileId, u64, Vec<u8>)>,
    /// Tentative file sizes (writes past the current end).
    pub(crate) tentative_sizes: HashMap<FileId, u64>,
    /// Files created inside this transaction (deleted again on abort).
    pub(crate) created: Vec<FileId>,
    /// Files whose deletion is deferred to commit.
    pub(crate) to_delete: Vec<FileId>,
    /// Per lock table (Record, Page, File), a mask of the shards holding
    /// a granted or queued record in this transaction's name. Only a
    /// family's root has bits set — its members lock in its name — and
    /// its end releases just those shards.
    pub(crate) lock_shards: [u64; 3],
}

impl ActiveTxn {
    pub(crate) fn new(pid: u64) -> Self {
        Self {
            pid,
            parent: None,
            open_files: BTreeSet::new(),
            inherited_files: BTreeSet::new(),
            tentative_pages: BTreeMap::new(),
            tentative_records: Vec::new(),
            tentative_sizes: HashMap::new(),
            created: Vec::new(),
            to_delete: Vec::new(),
            lock_shards: [0; 3],
        }
    }

    pub(crate) fn can_use(&self, fid: FileId) -> bool {
        self.open_files.contains(&fid) || self.inherited_files.contains(&fid)
    }

    /// The intentions list and tentative sizes a commit or prepare
    /// record carries. Both come out in a fixed order — pages by (file,
    /// index) then records in write order, sizes by file — so the
    /// record's bytes and the order `ensure_size` runs in do not depend
    /// on `HashMap` iteration.
    pub(crate) fn assemble_intentions(&self) -> (Vec<Intention>, Vec<(FileId, u64)>) {
        let mut intentions: Vec<Intention> = (self.tentative_pages.iter())
            .map(|((fid, idx), p)| p.intention(*fid, *idx))
            .collect();
        for (fid, off, bytes) in &self.tentative_records {
            intentions.push(Intention::Record {
                fid: *fid,
                offset: *off,
                data: bytes.clone(),
            });
        }
        let mut sizes: Vec<(FileId, u64)> =
            self.tentative_sizes.iter().map(|(f, s)| (*f, *s)).collect();
        sizes.sort_unstable();
        (intentions, sizes)
    }
}

impl TransactionService {
    /// `t` and its active ancestors, youngest first.
    fn family(&self, t: TxnId) -> impl Iterator<Item = (TxnId, &ActiveTxn)> + '_ {
        std::iter::successors(self.active.get(&t).map(|x| (t, x)), |(_, x)| {
            let p = x.parent?;
            self.active.get(&p).map(|x| (p, x))
        })
    }

    /// The top-level ancestor of `t` (itself, when not nested). Locks are
    /// held in the root's name so a family never conflicts with itself.
    pub(crate) fn root_of(&self, t: TxnId) -> TxnId {
        self.family(t).last().map_or(t, |(id, _)| id)
    }

    /// Whether `t` has an active child.
    pub(crate) fn has_children(&self, t: TxnId) -> bool {
        self.active.values().any(|x| x.parent == Some(t))
    }

    /// Direct children of `t` that are still active.
    pub(crate) fn children_of(&self, t: TxnId) -> Vec<TxnId> {
        let mut v: Vec<TxnId> = self
            .active
            .iter()
            .filter(|(_, x)| x.parent == Some(t))
            .map(|(id, _)| *id)
            .collect();
        v.sort();
        v
    }

    pub(crate) fn txn(&self, t: TxnId) -> Result<&ActiveTxn, TxnError> {
        self.active.get(&t).ok_or(TxnError::NotActive(t))
    }

    pub(crate) fn txn_mut(&mut self, t: TxnId) -> Result<&mut ActiveTxn, TxnError> {
        self.active.get_mut(&t).ok_or(TxnError::NotActive(t))
    }

    /// The size of `fid` as `t` sees it: the committed `base`, or the
    /// largest tentative size anywhere in its family chain.
    pub(crate) fn effective_size(&self, t: TxnId, fid: FileId, base: u64) -> u64 {
        self.family(t)
            .filter_map(|(_, x)| x.tentative_sizes.get(&fid).copied())
            .fold(base, u64::max)
    }

    /// Whether any member of `t`'s family holds tentative pages, records
    /// or sizes for `fid` (in which case a read needs the overlay logic).
    pub(crate) fn chain_has_overlay(&self, t: TxnId, fid: FileId) -> bool {
        self.family(t).any(|(_, x)| {
            x.tentative_sizes.contains_key(&fid)
                || x.tentative_pages.keys().any(|(f, _)| *f == fid)
                || x.tentative_records.iter().any(|(f, _, _)| *f == fid)
        })
    }

    /// Reads `[offset, offset+len)` of the committed file, overlaying this
    /// transaction's tentative pages and records.
    pub(crate) fn read_with_overlay(
        &mut self,
        t: TxnId,
        fid: FileId,
        offset: u64,
        len: usize,
        base_size: u64,
    ) -> Result<Vec<u8>, TxnError> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let bs = BLOCK_SIZE as u64;
        let first = offset / bs;
        let last = (offset + len as u64 - 1) / bs;
        let base_blocks = base_size.div_ceil(bs);
        let mut out = Vec::with_capacity(len);
        for idx in first..=last {
            let block_start = idx * bs;
            let lo = (offset.max(block_start) - block_start) as usize;
            let hi = ((offset + len as u64).min(block_start + bs) - block_start) as usize;
            // Youngest tentative copy wins (child shadows parent).
            let tentative = self
                .family(t)
                .find_map(|(_, x)| x.tentative_pages.get(&(fid, idx)));
            match tentative {
                Some(page) => out.extend_from_slice(&page.data[lo..hi]),
                None if idx < base_blocks => {
                    out.extend_from_slice(&self.fs.read_block(fid, idx)?[lo..hi]);
                }
                None => out.resize(out.len() + hi - lo, 0),
            }
        }
        self.overlay_records(t, fid, offset, &mut out);
        Ok(out)
    }

    /// The record-mode overlay of a read of `out.len()` bytes at
    /// `offset`: root first, then descendants, each in its own write
    /// order, so the youngest write wins.
    fn overlay_records(&self, t: TxnId, fid: FileId, offset: u64, out: &mut [u8]) {
        let Some(txn) = self.active.get(&t) else {
            return;
        };
        if let Some(parent) = txn.parent {
            self.overlay_records(parent, fid, offset, out);
        }
        for (rfid, roff, bytes) in &txn.tentative_records {
            if *rfid != fid {
                continue;
            }
            let rlo = *roff;
            let rhi = roff + bytes.len() as u64;
            let wlo = offset.max(rlo);
            let whi = (offset + out.len() as u64).min(rhi);
            if wlo < whi {
                let dst = (wlo - offset) as usize..(whi - offset) as usize;
                let src = (wlo - rlo) as usize..(whi - rlo) as usize;
                out[dst].copy_from_slice(&bytes[src]);
            }
        }
    }

    /// The page-mode half of `twrite`: copies `data` into `t`'s tentative
    /// pages, materialising each on its first touch.
    pub(crate) fn twrite_pages(
        &mut self,
        t: TxnId,
        fid: FileId,
        offset: u64,
        data: &[u8],
        base_size: u64,
    ) -> Result<(), TxnError> {
        let bs = BLOCK_SIZE as u64;
        let first = offset / bs;
        let last = (offset + data.len() as u64 - 1) / bs;
        let base_blocks = base_size.div_ceil(bs);
        for idx in first..=last {
            let block_start = idx * bs;
            let lo = offset.max(block_start);
            let hi = (offset + data.len() as u64).min(block_start + bs);
            // Materialise the tentative page. A nested transaction's
            // first touch of a page copies the youngest ancestor version
            // and its dirty range (copy-on-write down the chain), but not
            // its detached block.
            let existing = self.txn_mut(t)?.tentative_pages.remove(&(fid, idx));
            let mut page = match existing {
                Some(p) => p,
                None => {
                    let inherited = self.family(t).skip(1).find_map(|(_, x)| {
                        x.tentative_pages.get(&(fid, idx)).map(|p| TentativePage {
                            shadow: None,
                            ..p.clone()
                        })
                    });
                    match inherited {
                        Some(p) => p,
                        None if idx < base_blocks => {
                            TentativePage::clean(self.fs.read_block(fid, idx)?.to_vec())
                        }
                        None => TentativePage::clean(vec![0u8; BLOCK_SIZE]),
                    }
                }
            };
            let src = &data[(lo - offset) as usize..(hi - offset) as usize];
            let (lo, hi) = ((lo - block_start) as usize, (hi - block_start) as usize);
            page.data[lo..hi].copy_from_slice(src);
            page.cover(lo, hi);
            let persisted = self.persist_whole(fid, &mut page);
            self.txn_mut(t)?.tentative_pages.insert((fid, idx), page);
            persisted?;
        }
        Ok(())
    }

    /// Writes a tentative page whose dirty range covers the whole block
    /// to its detached block — allocated on the first such write — which
    /// is the durable copy its commit record will point at. A partial
    /// page stays in memory: its commit logs the dirty bytes instead.
    fn persist_whole(&mut self, fid: FileId, page: &mut TentativePage) -> Result<(), TxnError> {
        if !page.is_whole() {
            return Ok(());
        }
        let (disk, addr) = match page.shadow {
            Some(block) => block,
            None => *page.shadow.insert(self.fs.allocate_shadow_block(fid)?),
        };
        self.fs.put_detached_block(disk, addr, &page.data)?;
        Ok(())
    }

    /// Merges a committed nested transaction's tentative state into its
    /// parent. The child's page versions shadow the parent's (whose
    /// superseded tentative blocks are freed) and keep the union of both
    /// dirty ranges; records append in order; opened files and deferred
    /// operations transfer.
    pub(crate) fn tend_nested(&mut self, t: TxnId) -> Result<(), TxnError> {
        let mut child = self.active.remove(&t).expect("caller checked");
        let parent_id = child.parent.expect("nested");
        for (&(fid, idx), page) in &mut child.tentative_pages {
            let parent = self.active.get_mut(&parent_id).expect("parent is active");
            if let Some(old) = parent.tentative_pages.remove(&(fid, idx)) {
                page.cover(old.lo, old.hi);
                if let Some((d, a)) = old.shadow {
                    self.fs.free_detached_block(d, a)?;
                }
            }
            if page.shadow.is_none() {
                self.persist_whole(fid, page)?;
            }
        }
        let parent = self.active.get_mut(&parent_id).expect("parent is active");
        parent.tentative_pages.extend(child.tentative_pages);
        parent.tentative_records.extend(child.tentative_records);
        for (fid, sz) in child.tentative_sizes {
            let e = parent.tentative_sizes.entry(fid).or_insert(sz);
            *e = (*e).max(sz);
        }
        parent.created.extend(child.created);
        parent.to_delete.extend(child.to_delete);
        // The parent adopts the child's file references (and their fs
        // refcounts, released at top-level finish).
        for fid in child.open_files {
            if !parent.open_files.insert(fid) {
                // Parent already held its own reference: drop the extra.
                self.fs.release(fid)?;
            }
        }
        self.stats.committed += 1;
        Ok(())
    }

    /// `tabort`: discards every tentative effect and releases the locks.
    /// Nested children are aborted first; aborting a nested transaction
    /// discards only its own tentative state — the parent's survives, and
    /// so do the family's locks, which are held in the root's name.
    ///
    /// # Errors
    ///
    /// [`TxnError::NotActive`] if the transaction does not exist;
    /// [`TxnError::InDoubt`] for a prepared participant.
    pub fn tabort(&mut self, t: TxnId) -> Result<(), TxnError> {
        self.txn(t)?;
        if self.in_doubt(t) {
            return Err(TxnError::InDoubt(t));
        }
        for child in self.children_of(t) {
            self.tabort(child)?;
        }
        let txn = self.active.remove(&t).expect("checked");
        let (root, shards) = (txn.parent.is_none(), txn.lock_shards);
        let discarded = self.discard(txn);
        if root {
            self.end(t, shards, false);
        } else {
            self.stats.aborted += 1;
        }
        discarded
    }

    /// Throws away one transaction's own tentative state: its detached
    /// blocks are freed, the files it created deleted (they never
    /// existed) and its other file references released.
    fn discard(&mut self, txn: ActiveTxn) -> Result<(), TxnError> {
        for (d, a) in txn.tentative_pages.values().filter_map(|p| p.shadow) {
            self.fs.free_detached_block(d, a)?;
        }
        for fid in &txn.created {
            if txn.open_files.contains(fid) {
                let _ = self.fs.release(*fid);
            }
            let _ = self.fs.delete(*fid);
        }
        for fid in txn.open_files {
            if !txn.created.contains(&fid) {
                let _ = self.fs.release(fid);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{service, setup};
    use rhodos_file_service::LockLevel;

    #[test]
    fn tentative_writes_invisible_to_others_but_visible_to_self() {
        let (mut ts, fid) = setup(LockLevel::Record);
        let t0 = ts.tbegin();
        ts.topen(t0, fid).unwrap();
        ts.twrite(t0, fid, 0, b"AAAA").unwrap();
        ts.tend(t0).unwrap();

        let t1 = ts.tbegin();
        ts.topen(t1, fid).unwrap();
        ts.twrite(t1, fid, 0, b"BB").unwrap();
        // Own read sees the overlay.
        assert_eq!(ts.tread(t1, fid, 0, 4).unwrap(), b"BBAA");
        // Another transaction is blocked from the overlapping range
        // (Iwrite is exclusive)...
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        assert!(matches!(
            ts.tread(t2, fid, 0, 2),
            Err(TxnError::WouldBlock { .. })
        ));
        // ...but record locking lets it read a disjoint range and see only
        // committed data there.
        assert_eq!(ts.tread(t2, fid, 2, 2).unwrap(), b"AA");
        ts.tend(t1).unwrap();
        // After commit the waiter can read the new data.
        assert_eq!(ts.tread(t2, fid, 0, 2).unwrap(), b"BB");
        ts.tend(t2).unwrap();
    }

    #[test]
    fn created_file_rolled_back_on_abort() {
        let mut ts = service();
        let t = ts.tbegin();
        let fid = ts.tcreate_in(t, LockLevel::Page).unwrap();
        ts.twrite(t, fid, 0, b"temp").unwrap();
        ts.tabort(t).unwrap();
        assert!(!ts.file_service_mut().exists(fid));
    }

    #[test]
    fn tentative_size_growth_commits() {
        let (mut ts, fid) = setup(LockLevel::Page);
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        let far = 3 * BLOCK_SIZE as u64 + 17;
        ts.twrite(t, fid, far, b"tail").unwrap();
        assert_eq!(ts.tget_attribute(t, fid).unwrap().size, far + 4);
        ts.tend(t).unwrap();
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        assert_eq!(ts.tread(t2, fid, far, 4).unwrap(), b"tail");
        // The gap reads as zeros.
        assert!(ts.tread(t2, fid, 10, 8).unwrap().iter().all(|&b| b == 0));
        ts.tend(t2).unwrap();
    }
}

#[cfg(test)]
mod nested_tests {
    use super::*;
    use crate::service::TxnConfig;
    use rhodos_file_service::{FileService, FileServiceConfig, LockLevel};
    use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};

    fn setup() -> (TransactionService, FileId) {
        let fs = FileService::single_disk(
            DiskGeometry::medium(),
            LatencyModel::instant(),
            SimClock::new(),
            FileServiceConfig::default(),
        )
        .unwrap();
        let mut ts = TransactionService::new(fs, TxnConfig::default()).unwrap();
        let fid = ts.tcreate(LockLevel::Page).unwrap();
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.twrite(t, fid, 0, b"base state").unwrap();
        ts.tend(t).unwrap();
        (ts, fid)
    }

    #[test]
    fn child_commit_merges_into_parent() {
        let (mut ts, fid) = setup();
        let parent = ts.tbegin();
        ts.topen(parent, fid).unwrap();
        ts.twrite(parent, fid, 0, b"parent").unwrap();
        let child = ts.tbegin_nested(parent).unwrap();
        // Child sees parent's tentative state without topen.
        assert_eq!(ts.tread(child, fid, 0, 6).unwrap(), b"parent");
        ts.twrite(child, fid, 0, b"child!").unwrap();
        // Parent does not see it yet? (Flat model: parent read shows its
        // own page version, not the child's.)
        assert_eq!(ts.tread(parent, fid, 0, 6).unwrap(), b"parent");
        ts.tend(child).unwrap();
        // After the merge, the parent sees the child's update.
        assert_eq!(ts.tread(parent, fid, 0, 6).unwrap(), b"child!");
        ts.tend(parent).unwrap();
        // And after top-level commit it is durable.
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        assert_eq!(ts.tread(t, fid, 0, 6).unwrap(), b"child!");
        ts.tend(t).unwrap();
    }

    #[test]
    fn nested_commit_counted_exactly_once() {
        // Regression: the child's commit is tallied in `tend_nested` (via
        // the `Prepared::Merged` fast path) and the root's in `finish` —
        // the prepare/complete split must not double-count either.
        let (mut ts, fid) = setup();
        let before = ts.stats();
        let parent = ts.tbegin();
        ts.topen(parent, fid).unwrap();
        let child = ts.tbegin_nested(parent).unwrap();
        ts.twrite(child, fid, 0, b"once").unwrap();
        ts.tend(child).unwrap();
        ts.tend(parent).unwrap();
        let after = ts.stats();
        assert_eq!(after.begun - before.begun, 2, "root + child begun");
        assert_eq!(
            after.committed - before.committed,
            2,
            "child counted at merge, root at finish — each exactly once"
        );
        assert_eq!(after.aborted, before.aborted);
    }

    #[test]
    fn child_abort_discards_only_child_state() {
        let (mut ts, fid) = setup();
        let parent = ts.tbegin();
        ts.topen(parent, fid).unwrap();
        ts.twrite(parent, fid, 0, b"parent").unwrap();
        let child = ts.tbegin_nested(parent).unwrap();
        ts.twrite(child, fid, 0, b"doomed").unwrap();
        ts.tabort(child).unwrap();
        assert_eq!(ts.tread(parent, fid, 0, 6).unwrap(), b"parent");
        ts.tend(parent).unwrap();
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        assert_eq!(ts.tread(t, fid, 0, 6).unwrap(), b"parent");
        ts.tend(t).unwrap();
    }

    #[test]
    fn parent_abort_discards_committed_children_too() {
        let (mut ts, fid) = setup();
        let parent = ts.tbegin();
        ts.topen(parent, fid).unwrap();
        let child = ts.tbegin_nested(parent).unwrap();
        ts.twrite(child, fid, 0, b"merged").unwrap();
        ts.tend(child).unwrap(); // merged into parent
        ts.tabort(parent).unwrap(); // discards everything
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        assert_eq!(ts.tread(t, fid, 0, 10).unwrap(), b"base state");
        ts.tend(t).unwrap();
    }

    #[test]
    fn family_shares_locks_but_outsiders_conflict() {
        let (mut ts, fid) = setup();
        let parent = ts.tbegin();
        ts.topen(parent, fid).unwrap();
        ts.twrite(parent, fid, 0, b"held").unwrap();
        let child = ts.tbegin_nested(parent).unwrap();
        // Child writes the same page: no self-conflict.
        ts.twrite(child, fid, 0, b"fine").unwrap();
        // An outsider conflicts with the family's lock.
        let outsider = ts.tbegin();
        ts.topen(outsider, fid).unwrap();
        assert!(matches!(
            ts.twrite(outsider, fid, 0, b"nope"),
            Err(TxnError::WouldBlock { .. })
        ));
        ts.tend(child).unwrap();
        // Still held: locks release only at top-level commit (strict 2PL).
        assert!(ts.twrite(outsider, fid, 0, b"nope").is_err());
        ts.tend(parent).unwrap();
        ts.twrite(outsider, fid, 0, b"mine").unwrap();
        ts.tend(outsider).unwrap();
    }

    #[test]
    fn tend_with_active_children_is_refused() {
        let (mut ts, fid) = setup();
        let parent = ts.tbegin();
        ts.topen(parent, fid).unwrap();
        let child = ts.tbegin_nested(parent).unwrap();
        assert!(matches!(ts.tend(parent), Err(TxnError::ChildrenActive(_))));
        ts.tabort(child).unwrap();
        ts.tend(parent).unwrap();
    }

    #[test]
    fn parent_abort_aborts_running_children_recursively() {
        let (mut ts, fid) = setup();
        let parent = ts.tbegin();
        ts.topen(parent, fid).unwrap();
        let child = ts.tbegin_nested(parent).unwrap();
        let grandchild = ts.tbegin_nested(child).unwrap();
        ts.twrite(grandchild, fid, 0, b"deep").unwrap();
        ts.tabort(parent).unwrap();
        assert!(ts.active_transactions().is_empty());
        assert!(matches!(ts.tend(child), Err(TxnError::NotActive(_))));
        assert!(matches!(ts.tend(grandchild), Err(TxnError::NotActive(_))));
    }

    #[test]
    fn nested_file_creation_follows_the_family_outcome() {
        let (mut ts, _fid) = setup();
        let parent = ts.tbegin();
        let child = ts.tbegin_nested(parent).unwrap();
        let created = ts.tcreate_in(child, LockLevel::Page).unwrap();
        ts.twrite(child, created, 0, b"new file").unwrap();
        ts.tend(child).unwrap();
        assert!(ts.file_service_mut().exists(created));
        // Parent abort undoes the child's creation.
        ts.tabort(parent).unwrap();
        assert!(!ts.file_service_mut().exists(created));
    }

    #[test]
    fn grandchild_sees_chain_overlay() {
        let (mut ts, fid) = setup();
        let parent = ts.tbegin();
        ts.topen(parent, fid).unwrap();
        ts.twrite(parent, fid, 0, b"p----").unwrap();
        let child = ts.tbegin_nested(parent).unwrap();
        ts.twrite(child, fid, 1, b"c").unwrap();
        let grandchild = ts.tbegin_nested(child).unwrap();
        ts.twrite(grandchild, fid, 2, b"g").unwrap();
        assert_eq!(ts.tread(grandchild, fid, 0, 5).unwrap(), b"pcg--");
        ts.tend(grandchild).unwrap();
        ts.tend(child).unwrap();
        assert_eq!(ts.tread(parent, fid, 0, 5).unwrap(), b"pcg--");
        ts.tend(parent).unwrap();
    }
}
