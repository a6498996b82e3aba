//! The transaction service: its state, the `t*` operations, two-phase
//! locking (§6.1–6.5), the §6.4 timeouts and the recall of leases.
//!
//! This module owns one decision — *which locks an operation takes, and
//! when they go*. Every lock is taken here (`acquire`), under the
//! service lock, in the name of the family's root — every read's through
//! one step, `lock_read`, which the shared read fast path calls too — and
//! held until the top-level transaction commits or aborts, or a timeout
//! picks it as a victim. The rest of `TransactionService` is
//! split by job: tentative state and abort (`tentative.rs`), the commit
//! sequence and checkpoint (`commit.rs`), the applier (`apply.rs`) and
//! crash recovery (`recovery.rs`).

use crate::commit::{CommitReq, PreparedCommit};
use crate::error::TxnError;
use crate::lock::{DataItem, LockMode};
use crate::log::IntentionLog;
use crate::table::{LockOutcome, StripedLockTable};
use crate::tentative::ActiveTxn;
use rhodos_disk_service::BLOCK_SIZE;
use rhodos_file_service::{
    FileId, FileService, LeaseGrant, LeaseMode, LockLevel, RecallAck, ServiceType,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A transaction descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// Tunables of the transaction service: every field has two values in
/// use (a default and an experiment's or ablation's). What has one —
/// the log-compaction threshold — is a constant next to the code it
/// governs (`LOG_COMPACT_THRESHOLD` in `log.rs`).
#[derive(Debug, Clone, Copy)]
pub struct TxnConfig {
    /// Lock lease period LT, virtual microseconds (§6.4).
    pub lt_us: u64,
    /// Renewals N before an uncontested holder is presumed deadlocked.
    pub max_renewals: u32,
    /// Shards each lock table is striped over (lock-contention isolation,
    /// E20). `1` reproduces one unstriped table per granularity exactly —
    /// the E20 ablation arm.
    pub lock_shards: usize,
}

impl Default for TxnConfig {
    fn default() -> Self {
        Self {
            lt_us: 100_000,
            max_renewals: 3,
            lock_shards: 8,
        }
    }
}

/// Counters of transaction-service behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Transactions begun.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted (all causes).
    pub aborted: u64,
    /// Aborts caused by the deadlock timeout.
    pub timeout_aborts: u64,
    /// Page intentions applied with write-ahead logging.
    pub wal_pages: u64,
    /// Page intentions applied with the shadow-page technique.
    pub shadow_pages: u64,
    /// Record intentions applied.
    pub record_intentions: u64,
    /// Operations that returned `WouldBlock`.
    pub would_blocks: u64,
    /// Forces of the intention log that made records durable — the
    /// durability round trips group commit exists to amortise.
    pub log_flushes: u64,
    /// Flushes that made more than one log record durable at once.
    pub group_commits: u64,
    /// Log records made durable, total.
    pub records_flushed: u64,
    /// Most log records made durable by a single flush (high-water mark).
    pub records_per_flush_hwm: u64,
    /// Page intentions applied.
    pub commit_batch_pages: u64,
    /// Intention-log compactions performed.
    pub log_compactions: u64,
    /// Log scans that ended at something that starts like a frame and
    /// fails the checks — a record torn by the crash, damaged on the
    /// platter, or out of sequence — and dropped it with everything
    /// behind it.
    pub log_frames_rejected: u64,
    /// Cross-shard `Prepared` votes logged (2PC phase one).
    pub prepares: u64,
    /// Log flushes that made at least one `Prepared` record durable.
    pub prepare_flushes: u64,
    /// `Prepared` records made durable, total (per-flush average is
    /// [`TxnStats::records_per_prepare_flush`]).
    pub prepare_records_flushed: u64,
}

impl TxnStats {
    /// Average `Prepared` records made durable per prepare-carrying flush:
    /// above 1.0 means cross-shard prepares are riding shared log forces.
    pub fn records_per_prepare_flush(&self) -> f64 {
        if self.prepare_flushes == 0 {
            0.0
        } else {
            self.prepare_records_flushed as f64 / self.prepare_flushes as f64
        }
    }
}

/// Fresh lock tables, one per locking level, indexed by [`table_index`].
pub(crate) fn lock_tables(c: TxnConfig) -> [Arc<StripedLockTable>; 3] {
    let (lt, renewals, shards) = (c.lt_us, c.max_renewals, c.lock_shards);
    [(); 3].map(|()| Arc::new(StripedLockTable::new(lt, renewals, shards)))
}

/// Index of the lock table for each granularity.
pub(crate) fn table_index(level: LockLevel) -> usize {
    match level {
        LockLevel::Record => 0,
        LockLevel::Page => 1,
        LockLevel::File => 2,
    }
}

/// The RHODOS transaction service, owning the basic file service it
/// coordinates ("the file service is also responsible for coordinating
/// access to file data using the semantics of the transaction services").
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug)]
pub struct TransactionService {
    pub(crate) fs: FileService,
    config: TxnConfig,
    /// One striped lock table per locking level (§6.5). Every lock is
    /// taken and released under the service lock; the `Arc` serves only
    /// the handles [`Self::lock_tables`] lends E20's shard model.
    pub(crate) tables: [Arc<StripedLockTable>; 3],
    pub(crate) active: HashMap<TxnId, ActiveTxn>,
    /// In-doubt cross-shard participants by coordinator-assigned global
    /// transaction id. Entries survive [`Self::recover`] (rebuilt from
    /// durable `Prepared` records) and leave only via
    /// [`Self::resolve_prepared`].
    pub(crate) prepared: HashMap<u64, PreparedCommit>,
    /// The next transaction id: `epoch << 32 | n`, `n` counting the
    /// server epoch's transactions from one ([`Self::tbegin_for`]).
    pub(crate) next_txn: u64,
    pub(crate) log: IntentionLog,
    pub(crate) stats: TxnStats,
}

impl TransactionService {
    /// Creates the service over `fs`, creating (or re-attaching to) the
    /// durable intention log.
    ///
    /// # Errors
    ///
    /// Fails if the log file cannot be created or opened.
    pub fn new(mut fs: FileService, config: TxnConfig) -> Result<Self, TxnError> {
        let mut stats = TxnStats::default();
        let (log, _) = IntentionLog::open(&mut fs, &mut stats)?;
        Ok(Self {
            next_txn: fs.lease_manager().epoch() << 32 | 1,
            fs,
            config,
            tables: lock_tables(config),
            active: HashMap::new(),
            prepared: HashMap::new(),
            log,
            stats,
        })
    }

    /// The underlying basic file service (for non-transactional traffic —
    /// the transaction service is optional).
    pub fn file_service_mut(&mut self) -> &mut FileService {
        &mut self.fs
    }

    /// The configuration in force.
    pub fn config(&self) -> TxnConfig {
        self.config
    }

    /// Read access to the statistics.
    pub fn stats(&self) -> TxnStats {
        self.stats
    }

    /// The underlying basic file service, read-only.
    pub fn file_service(&self) -> &FileService {
        &self.fs
    }

    /// Statistics of the lock table for `level`, merged across shards.
    pub fn lock_table_stats(&self, level: LockLevel) -> crate::table::LockTableStats {
        self.tables[table_index(level)].stats()
    }

    /// Handles to the three striped lock tables, indexed Record, Page,
    /// File, for E20's shard model (`rhodos_bench::loadgen` reads their
    /// shard counts). Recovery builds fresh tables, so a handle taken
    /// before it sees none of the recovered server's locks; the service
    /// itself locks through them only under its own lock.
    pub fn lock_tables(&self) -> [Arc<StripedLockTable>; 3] {
        [
            Arc::clone(&self.tables[0]),
            Arc::clone(&self.tables[1]),
            Arc::clone(&self.tables[2]),
        ]
    }

    /// Whether `t` is currently active.
    pub fn is_active(&self, t: TxnId) -> bool {
        self.active.contains_key(&t)
    }

    /// Currently active transactions.
    pub fn active_transactions(&self) -> Vec<TxnId> {
        let mut v: Vec<TxnId> = self.active.keys().copied().collect();
        v.sort();
        v
    }

    // ---- lifecycle -----------------------------------------------------

    /// `tbegin`: starts a transaction for process `pid` 0.
    pub fn tbegin(&mut self) -> TxnId {
        self.tbegin_for(0)
    }

    /// `tbegin` with an explicit process identifier.
    pub fn tbegin_for(&mut self, pid: u64) -> TxnId {
        let id = self.issue_id();
        self.active.insert(id, ActiveTxn::new(pid));
        self.stats.begun += 1;
        id
    }

    /// The next transaction id. The epoch's first claims the server
    /// epoch ([`rhodos_file_service::LeaseManager::claim_epoch`]), so it
    /// is on the platter before an id of it leaves the server and no id
    /// is issued twice across a crash — a commit record lost to a torn
    /// force could otherwise be appended again byte for byte, and chain
    /// the frames the force left behind it. Should that write fail, a
    /// later mount may reuse the epoch.
    fn issue_id(&mut self) -> TxnId {
        if self.next_txn & u64::from(u32::MAX) == 1 {
            self.fs.lease_manager_mut().claim_epoch();
            let _ = self.fs.record_leases();
        }
        self.next_txn += 1;
        TxnId(self.next_txn - 1)
    }

    /// `tbegin` for a *nested* transaction: the child sees the parent's
    /// tentative state, locks on behalf of the whole family, and merges
    /// its effects into the parent on `tend` (or discards only its own on
    /// `tabort`). Durability still happens at top-level commit.
    ///
    /// # Errors
    ///
    /// [`TxnError::NotActive`] if `parent` is not an active transaction.
    pub fn tbegin_nested(&mut self, parent: TxnId) -> Result<TxnId, TxnError> {
        let (pid, visible) = {
            let p = self.txn(parent)?;
            let mut v = p.open_files.clone();
            v.extend(p.inherited_files.iter().copied());
            (p.pid, v)
        };
        let id = self.issue_id();
        let mut child = ActiveTxn::new(pid);
        child.parent = Some(parent);
        child.inherited_files = visible;
        self.active.insert(id, child);
        self.stats.begun += 1;
        Ok(id)
    }

    /// `tcreate` outside any transaction: a transaction-typed file with
    /// the given locking level.
    ///
    /// # Errors
    ///
    /// File-service failures.
    pub fn tcreate(&mut self, level: LockLevel) -> Result<FileId, TxnError> {
        let fid = self.fs.create(ServiceType::Transaction)?;
        self.fs.set_lock_level(fid, level)?;
        Ok(fid)
    }

    /// Lease acquisition whose recalled writebacks stay crash-atomic: the
    /// lease manager's recall round, as in [`FileService::lease_acquire`],
    /// but a surrendered write delegation on a *transaction-service* file
    /// is applied as one transaction — intention-logged, group-commit
    /// flushed, batch applied — so a crash mid-recall replays all of the
    /// holder's delegated writes or none of them. Basic-service files (and
    /// the rare recall that races an in-flight transaction's locks) take
    /// the file service's direct apply-and-flush. Every agent and the
    /// transaction-aware server's lease-acquire frame come here.
    ///
    /// # Errors
    ///
    /// File-service failures; commit-pipeline failures applying a
    /// recalled writeback.
    pub fn lease_acquire(
        &mut self,
        client: u64,
        fid: FileId,
        mode: LeaseMode,
    ) -> Result<(LeaseGrant, u64), TxnError> {
        let st = self.fs.get_attribute(fid)?.service_type;
        let (grant, acks) = self.fs.lease_manager_mut().acquire(client, fid, mode);
        self.fs.record_leases()?;
        for ack in acks {
            if st == ServiceType::Transaction && !ack.runs.is_empty() {
                match self.apply_recall_txn(fid, &ack) {
                    Ok(()) => continue,
                    // A live transaction holds conflicting locks: the
                    // recalled bytes must not wait behind it (the
                    // grantee is blocked on us), so apply directly.
                    Err(TxnError::WouldBlock { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
            self.fs.lease_apply_recalled(fid, ack)?;
        }
        let size = self.fs.get_attribute(fid)?.size;
        Ok((grant, size))
    }

    /// Applies one recalled writeback under a fresh transaction (the
    /// group-commit pipeline: intention log, flush, batched apply).
    fn apply_recall_txn(&mut self, fid: FileId, ack: &RecallAck) -> Result<(), TxnError> {
        let t = self.tbegin();
        if let Err(e) = self.apply_recall_txn_body(t, fid, ack) {
            let _ = self.tabort(t);
            return Err(e);
        }
        self.tend(t)
    }

    fn apply_recall_txn_body(
        &mut self,
        t: TxnId,
        fid: FileId,
        ack: &RecallAck,
    ) -> Result<(), TxnError> {
        self.topen(t, fid)?;
        for (offset, run) in &ack.runs {
            self.twrite(t, fid, *offset, run)?;
        }
        Ok(())
    }

    /// `tcreate` inside a transaction: the file exists durably only if the
    /// transaction commits.
    ///
    /// # Errors
    ///
    /// File-service failures; [`TxnError::NotActive`] for a dead
    /// transaction.
    pub fn tcreate_in(&mut self, t: TxnId, level: LockLevel) -> Result<FileId, TxnError> {
        self.txn(t)?;
        let fid = self.tcreate(level)?;
        self.fs.open(fid)?;
        let txn = self.txn_mut(t)?;
        txn.created.push(fid);
        txn.open_files.insert(fid);
        Ok(fid)
    }

    /// `topen`: opens a file under the transaction.
    ///
    /// # Errors
    ///
    /// [`TxnError::NotActive`]; file-service failures.
    pub fn topen(&mut self, t: TxnId, fid: FileId) -> Result<(), TxnError> {
        self.txn(t)?;
        self.fs.open(fid)?;
        self.txn_mut(t)?.open_files.insert(fid);
        Ok(())
    }

    /// `tclose`: closes a file under the transaction (its locks remain
    /// held until commit/abort — two-phase locking).
    ///
    /// # Errors
    ///
    /// [`TxnError::FileNotOpen`] if `topen` was never called.
    pub fn tclose(&mut self, t: TxnId, fid: FileId) -> Result<(), TxnError> {
        let txn = self.txn_mut(t)?;
        if !txn.open_files.remove(&fid) {
            return Err(TxnError::FileNotOpen(t));
        }
        self.fs.release(fid)?;
        Ok(())
    }

    /// `tdelete`: schedules deletion of `fid` at commit (aborting keeps
    /// the file). Takes a whole-file Iwrite lock.
    ///
    /// # Errors
    ///
    /// [`TxnError::WouldBlock`] while another transaction uses the file.
    pub fn tdelete(&mut self, t: TxnId, fid: FileId) -> Result<(), TxnError> {
        self.txn(t)?;
        self.acquire(t, DataItem::File(fid), LockMode::Iwrite, LockLevel::File)?;
        self.txn_mut(t)?.to_delete.push(fid);
        Ok(())
    }

    /// `tget-attribute`: attributes with this transaction's tentative size
    /// overlaid.
    ///
    /// # Errors
    ///
    /// [`TxnError::NotActive`]; file-service failures.
    pub fn tget_attribute(
        &mut self,
        t: TxnId,
        fid: FileId,
    ) -> Result<rhodos_file_service::FileAttributes, TxnError> {
        self.txn(t)?;
        let mut attrs = self.fs.get_attribute(fid)?;
        attrs.size = self.effective_size(t, fid, attrs.size);
        Ok(attrs)
    }

    // ---- locking helpers -------------------------------------------------

    fn lock_level_of(&mut self, fid: FileId) -> Result<LockLevel, TxnError> {
        Ok(self.fs.get_attribute(fid)?.lock_level)
    }

    fn acquire(
        &mut self,
        t: TxnId,
        item: DataItem,
        mode: LockMode,
        level: LockLevel,
    ) -> Result<(), TxnError> {
        let pid = self.txn(t)?.pid;
        let now = self.fs.clock().now_us();
        // Nested transactions lock in the root's name: the family shares
        // its locks and never conflicts with itself. The root's shard
        // mask takes the item's shard before the request, so a queued
        // waiter record is released at the root's end too.
        let owner = self.root_of(t);
        let table = &self.tables[table_index(level)];
        if let Some(root) = self.active.get_mut(&owner) {
            root.lock_shards[table_index(level)] |= 1 << table.shard_of(&item);
        }
        match table.set_lock(pid, owner.0, item, mode, now) {
            LockOutcome::Granted => Ok(()),
            LockOutcome::Queued => {
                self.stats.would_blocks += 1;
                Err(TxnError::WouldBlock { txn: t, item })
            }
        }
    }

    /// The data items covering `[offset, offset+len)` at the file's lock
    /// level.
    pub(crate) fn items_for_range(
        &mut self,
        fid: FileId,
        offset: u64,
        len: u64,
    ) -> Result<(LockLevel, Vec<DataItem>), TxnError> {
        let level = self.lock_level_of(fid)?;
        let items = match level {
            LockLevel::File => vec![DataItem::File(fid)],
            LockLevel::Record => vec![DataItem::Record(fid, offset, offset + len.max(1))],
            LockLevel::Page => {
                let first = offset / BLOCK_SIZE as u64;
                let last = (offset + len.max(1) - 1) / BLOCK_SIZE as u64;
                (first..=last).map(|b| DataItem::Page(fid, b)).collect()
            }
        };
        Ok((level, items))
    }

    // ---- reads -----------------------------------------------------------

    /// `tread`/`tpread`: reads under a read-only lock ("if the data item is
    /// needed to perform some query").
    ///
    /// # Errors
    ///
    /// [`TxnError::WouldBlock`] on lock conflict; [`TxnError::BeyondEof`].
    pub fn tread(
        &mut self,
        t: TxnId,
        fid: FileId,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, TxnError> {
        self.tread_mode(t, fid, offset, len, LockMode::ReadOnly)
    }

    /// `tread` with intent to modify: takes an `Iread` lock so the value
    /// cannot change (or be read-locked anew) before the update.
    ///
    /// # Errors
    ///
    /// As [`Self::tread`].
    pub fn tread_for_update(
        &mut self,
        t: TxnId,
        fid: FileId,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, TxnError> {
        self.tread_mode(t, fid, offset, len, LockMode::Iread)
    }

    /// The lock step of a read that needs no tentative overlay, for the
    /// shared read fast path: `None` when some member of `t`'s family
    /// holds tentative state of `fid` — the read then needs
    /// [`Self::tread`] — or else the read-only locks covering the range,
    /// held until `t`'s family ends, and the number of bytes from
    /// `offset` the committed file has of the `len` asked for. While the
    /// locks are held no commit can change those bytes, so the caller
    /// may copy them from the block pool without the service lock.
    ///
    /// # Errors
    ///
    /// As [`Self::tread`].
    pub fn lock_committed_read(
        &mut self,
        t: TxnId,
        fid: FileId,
        offset: u64,
        len: usize,
    ) -> Result<Option<usize>, TxnError> {
        if self.chain_has_overlay(t, fid) {
            return Ok(None);
        }
        let (_, len) = self.lock_read(t, fid, offset, len, LockMode::ReadOnly)?;
        Ok(Some(len))
    }

    fn tread_mode(
        &mut self,
        t: TxnId,
        fid: FileId,
        offset: u64,
        len: usize,
        mode: LockMode,
    ) -> Result<Vec<u8>, TxnError> {
        let (base_size, len) = self.lock_read(t, fid, offset, len, mode)?;
        self.read_with_overlay(t, fid, offset, len, base_size)
    }

    /// The one lock step of every read: takes `mode` on each item
    /// covering `[offset, offset+len)` and returns the committed size and
    /// how many of the `len` bytes `t` sees before its end of file.
    fn lock_read(
        &mut self,
        t: TxnId,
        fid: FileId,
        offset: u64,
        len: usize,
        mode: LockMode,
    ) -> Result<(u64, usize), TxnError> {
        if !self.txn(t)?.can_use(fid) {
            return Err(TxnError::FileNotOpen(t));
        }
        let (level, items) = self.items_for_range(fid, offset, len as u64)?;
        for item in items {
            self.acquire(t, item, mode, level)?;
        }
        let base_size = self.fs.get_attribute(fid)?.size;
        let size = self.effective_size(t, fid, base_size);
        if offset > size {
            return Err(TxnError::BeyondEof { offset, size });
        }
        Ok((base_size, (len as u64).min(size - offset) as usize))
    }

    // ---- writes ------------------------------------------------------------

    /// `twrite`/`tpwrite`: records a tentative update under an `Iwrite`
    /// lock (converting the transaction's `Iread` when present). The data
    /// is invisible to other transactions until commit.
    ///
    /// # Errors
    ///
    /// [`TxnError::WouldBlock`] on lock conflict.
    pub fn twrite(
        &mut self,
        t: TxnId,
        fid: FileId,
        offset: u64,
        data: &[u8],
    ) -> Result<(), TxnError> {
        if !self.txn(t)?.can_use(fid) {
            return Err(TxnError::FileNotOpen(t));
        }
        if data.is_empty() {
            return Ok(());
        }
        let (level, items) = self.items_for_range(fid, offset, data.len() as u64)?;
        for item in items {
            self.acquire(t, item, LockMode::Iwrite, level)?;
        }
        let base_size = self.fs.get_attribute(fid)?.size;
        match level {
            LockLevel::Record => {
                let txn = self.txn_mut(t)?;
                txn.tentative_records.push((fid, offset, data.to_vec()));
            }
            LockLevel::Page | LockLevel::File => {
                self.twrite_pages(t, fid, offset, data, base_size)?;
            }
        }
        let new_size = offset + data.len() as u64;
        let txn = self.txn_mut(t)?;
        let entry = txn.tentative_sizes.entry(fid).or_insert(base_size);
        *entry = (*entry).max(new_size).max(base_size);
        Ok(())
    }

    // ---- commit / abort --------------------------------------------------

    /// `tend`: commits the transaction — writes the intentions list to the
    /// durable log, makes the changes permanent (WAL when the file's data
    /// blocks are contiguous, shadow paging otherwise), erases the
    /// intentions and releases every lock. A [`Self::commit_batch`] of
    /// one.
    ///
    /// # Errors
    ///
    /// [`TxnError::NotActive`]; file-service failures (the log record, if
    /// already durable, will be replayed by recovery).
    pub fn tend(&mut self, t: TxnId) -> Result<(), TxnError> {
        self.commit_batch(&[CommitReq::Local(t)])
            .pop()
            .expect("one result per request")
    }

    /// Completes a transaction: releases its files — writing nothing: what
    /// its commit left in the pool, the log covers — and [`Self::end`]s
    /// it. A recovered in-doubt participant has no `ActiveTxn` to say
    /// which shards its re-taken locks are in, so its end sweeps every
    /// shard.
    pub(crate) fn finish(&mut self, t: TxnId, committed: bool) {
        let shards = match self.active.remove(&t) {
            Some(txn) => {
                for fid in txn.open_files {
                    let _ = self.fs.release(fid);
                }
                txn.lock_shards
            }
            None => [u64::MAX; 3],
        };
        self.end(t, shards, committed);
    }

    /// Ends top-level `t`, whose `ActiveTxn` is gone: releases its locks
    /// in the `shards` of each table (its `lock_shards`), wakes waiters
    /// and counts the outcome.
    pub(crate) fn end(&mut self, t: TxnId, shards: [u64; 3], committed: bool) {
        let now = self.fs.clock().now_us();
        for (table, mask) in self.tables.iter().zip(shards) {
            table.release_all(t.0, mask, now);
        }
        if committed {
            self.stats.committed += 1;
        } else {
            self.stats.aborted += 1;
        }
    }

    // ---- timeouts -------------------------------------------------------------

    /// Drives the timeout machinery (§6.4): transactions whose locks
    /// expired are aborted and returned. Call periodically (experiments
    /// call it whenever simulated time advances).
    pub fn tick(&mut self) -> Vec<TxnId> {
        let now = self.fs.clock().now_us();
        let mut victims: Vec<TxnId> = Vec::new();
        for table in &self.tables {
            for v in table.tick(now) {
                let id = TxnId(v);
                if !victims.contains(&id) {
                    victims.push(id);
                }
            }
        }
        for v in &victims {
            // In-doubt participants must never be timeout-aborted: their
            // vote is durable and only the coordinator's decision (or the
            // orphan sweep) may resolve them — 2PC's inherent blocking
            // window, bounded by orphan resolution rather than by LT.
            if self.active.contains_key(v) && !self.in_doubt(*v) {
                self.stats.timeout_aborts += 1;
                let _ = self.tabort(*v);
            }
        }
        victims
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rhodos_file_service::FileServiceConfig;
    use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};

    pub(crate) fn service() -> TransactionService {
        let fs = FileService::single_disk(
            DiskGeometry::medium(),
            LatencyModel::default(),
            SimClock::new(),
            FileServiceConfig::default(),
        )
        .unwrap();
        TransactionService::new(fs, TxnConfig::default()).unwrap()
    }

    pub(crate) fn setup(level: LockLevel) -> (TransactionService, FileId) {
        let mut ts = service();
        let fid = ts.tcreate(level).unwrap();
        (ts, fid)
    }

    #[test]
    fn commit_makes_writes_visible() {
        let (mut ts, fid) = setup(LockLevel::Page);
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.twrite(t, fid, 0, b"committed!").unwrap();
        ts.tend(t).unwrap();
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        assert_eq!(ts.tread(t2, fid, 0, 10).unwrap(), b"committed!");
        ts.tend(t2).unwrap();
        assert_eq!(ts.stats().committed, 2);
    }

    #[test]
    fn abort_discards_writes() {
        let (mut ts, fid) = setup(LockLevel::Page);
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.twrite(t, fid, 0, b"seed").unwrap();
        ts.tend(t).unwrap();
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        ts.twrite(t2, fid, 0, b"oops").unwrap();
        ts.tabort(t2).unwrap();
        let t3 = ts.tbegin();
        ts.topen(t3, fid).unwrap();
        assert_eq!(ts.tread(t3, fid, 0, 4).unwrap(), b"seed");
        ts.tend(t3).unwrap();
    }

    #[test]
    fn file_level_locking_serialises_whole_file() {
        let (mut ts, fid) = setup(LockLevel::File);
        let t1 = ts.tbegin();
        let t2 = ts.tbegin();
        ts.topen(t1, fid).unwrap();
        ts.topen(t2, fid).unwrap();
        ts.twrite(t1, fid, 0, b"x").unwrap();
        // Even a read of a distant offset blocks under file locking.
        assert!(matches!(
            ts.tread(t2, fid, 100_000, 1),
            Err(TxnError::WouldBlock { .. })
        ));
        ts.tend(t1).unwrap();
        assert!(ts.tread(t2, fid, 0, 1).is_ok());
        ts.tend(t2).unwrap();
    }

    #[test]
    fn page_level_locking_allows_disjoint_pages() {
        let (mut ts, fid) = setup(LockLevel::Page);
        // Seed two pages.
        let t0 = ts.tbegin();
        ts.topen(t0, fid).unwrap();
        ts.twrite(t0, fid, 0, &vec![1u8; 2 * BLOCK_SIZE]).unwrap();
        ts.tend(t0).unwrap();
        let t1 = ts.tbegin();
        let t2 = ts.tbegin();
        ts.topen(t1, fid).unwrap();
        ts.topen(t2, fid).unwrap();
        ts.twrite(t1, fid, 0, b"page zero").unwrap();
        // Disjoint page: no conflict.
        ts.twrite(t2, fid, BLOCK_SIZE as u64, b"page one").unwrap();
        // Same page: conflict.
        assert!(matches!(
            ts.twrite(t2, fid, 0, b"clash"),
            Err(TxnError::WouldBlock { .. })
        ));
        ts.tend(t1).unwrap();
        ts.tend(t2).unwrap();
    }

    #[test]
    fn read_for_update_prevents_new_readers() {
        let (mut ts, fid) = setup(LockLevel::Page);
        let t0 = ts.tbegin();
        ts.topen(t0, fid).unwrap();
        ts.twrite(t0, fid, 0, b"v1").unwrap();
        ts.tend(t0).unwrap();
        let t1 = ts.tbegin();
        let t2 = ts.tbegin();
        ts.topen(t1, fid).unwrap();
        ts.topen(t2, fid).unwrap();
        assert_eq!(ts.tread_for_update(t1, fid, 0, 2).unwrap(), b"v1");
        // New read-only lock refused once the Iread is in place.
        assert!(matches!(
            ts.tread(t2, fid, 0, 2),
            Err(TxnError::WouldBlock { .. })
        ));
        // The Iread holder converts and writes.
        ts.twrite(t1, fid, 0, b"v2").unwrap();
        ts.tend(t1).unwrap();
        assert_eq!(ts.tread(t2, fid, 0, 2).unwrap(), b"v2");
        ts.tend(t2).unwrap();
    }

    #[test]
    fn readers_share_read_only_locks() {
        let (mut ts, fid) = setup(LockLevel::Page);
        let t0 = ts.tbegin();
        ts.topen(t0, fid).unwrap();
        ts.twrite(t0, fid, 0, b"shared").unwrap();
        ts.tend(t0).unwrap();
        let readers: Vec<TxnId> = (0..5).map(|_| ts.tbegin()).collect();
        for &r in &readers {
            ts.topen(r, fid).unwrap();
            assert_eq!(ts.tread(r, fid, 0, 6).unwrap(), b"shared");
        }
        for r in readers {
            ts.tend(r).unwrap();
        }
    }

    #[test]
    fn deadlock_broken_by_timeout_and_survivor_proceeds() {
        let (mut ts, fid) = setup(LockLevel::Page);
        let t0 = ts.tbegin();
        ts.topen(t0, fid).unwrap();
        ts.twrite(t0, fid, 0, &vec![0u8; 2 * BLOCK_SIZE]).unwrap();
        ts.tend(t0).unwrap();
        let t1 = ts.tbegin();
        let t2 = ts.tbegin();
        ts.topen(t1, fid).unwrap();
        ts.topen(t2, fid).unwrap();
        ts.twrite(t1, fid, 0, b"a").unwrap(); // t1 holds page 0
        ts.twrite(t2, fid, BLOCK_SIZE as u64, b"b").unwrap(); // t2 holds page 1
        assert!(ts.twrite(t1, fid, BLOCK_SIZE as u64, b"x").is_err()); // t1 waits on page 1
        assert!(ts.twrite(t2, fid, 0, b"y").is_err()); // t2 waits on page 0 — deadlock
                                                       // Advance virtual time past LT and tick.
        let clock = ts.file_service_mut().clock();
        clock.advance(TxnConfig::default().lt_us + 1);
        let victims = ts.tick();
        assert_eq!(victims.len(), 1, "exactly one victim breaks the cycle");
        let survivor = if victims[0] == t1 { t2 } else { t1 };
        // Survivor's pending write now succeeds on retry.
        let off = if survivor == t1 { BLOCK_SIZE as u64 } else { 0 };
        ts.twrite(survivor, fid, off, b"won").unwrap();
        ts.tend(survivor).unwrap();
        assert_eq!(ts.stats().timeout_aborts, 1);
    }

    #[test]
    fn tdelete_applies_only_on_commit() {
        let (mut ts, fid) = setup(LockLevel::Page);
        let t = ts.tbegin();
        ts.tdelete(t, fid).unwrap();
        assert!(ts.file_service_mut().exists(fid));
        ts.tend(t).unwrap();
        assert!(!ts.file_service_mut().exists(fid));
    }

    #[test]
    fn tdelete_aborted_keeps_file() {
        let (mut ts, fid) = setup(LockLevel::Page);
        let t = ts.tbegin();
        ts.tdelete(t, fid).unwrap();
        ts.tabort(t).unwrap();
        assert!(ts.file_service_mut().exists(fid));
    }

    #[test]
    fn operations_on_dead_transactions_rejected() {
        let (mut ts, fid) = setup(LockLevel::Page);
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.tend(t).unwrap();
        assert!(matches!(
            ts.twrite(t, fid, 0, b"x"),
            Err(TxnError::NotActive(_))
        ));
        assert!(matches!(ts.tend(t), Err(TxnError::NotActive(_))));
        assert!(matches!(ts.tabort(t), Err(TxnError::NotActive(_))));
    }

    const BS: u64 = BLOCK_SIZE as u64;

    /// The first pages of `fid` that map to `n` different shards of the
    /// page table.
    fn pages_in_distinct_shards(ts: &TransactionService, fid: FileId, n: usize) -> Vec<u64> {
        let table = &ts.tables[table_index(LockLevel::Page)];
        let mut shards = Vec::new();
        let mut pages = Vec::new();
        for p in 0.. {
            let shard = table.shard_of(&DataItem::Page(fid, p));
            if !shards.contains(&shard) {
                shards.push(shard);
                pages.push(p);
                if pages.len() == n {
                    return pages;
                }
            }
        }
        unreachable!()
    }

    fn tables_empty(ts: &TransactionService) -> bool {
        ts.lock_tables().iter().all(|table| table.is_empty())
    }

    #[test]
    fn an_end_releases_every_shard_it_locked_in() {
        let mut ts = service();
        let paged = ts.tcreate(LockLevel::Page).unwrap();
        let recs = ts.tcreate(LockLevel::Record).unwrap();
        let whole = ts.tcreate(LockLevel::File).unwrap();
        let pages = pages_in_distinct_shards(&ts, paged, 3);
        let holder = ts.tbegin();
        let mut items: Vec<(FileId, u64)> = pages.iter().map(|&p| (paged, p * BS)).collect();
        items.extend([(recs, 0), (whole, 0)]);
        for &(fid, off) in &items {
            ts.topen(holder, fid).unwrap();
            ts.twrite(holder, fid, off, b"held").unwrap();
        }
        // A rival queued on every item, in all three tables.
        let rivals: Vec<TxnId> = (items.iter())
            .map(|&(fid, off)| {
                let r = ts.tbegin();
                ts.topen(r, fid).unwrap();
                let res = ts.twrite(r, fid, off, b"mine");
                assert!(matches!(res, Err(TxnError::WouldBlock { .. })));
                r
            })
            .collect();
        // One more gives up while queued: its end must take its waiter
        // record, in a shard where it holds nothing, with it.
        let quitter = ts.tbegin();
        ts.topen(quitter, paged).unwrap();
        assert!(ts.twrite(quitter, paged, pages[0] * BS, b"gone").is_err());
        ts.tabort(quitter).unwrap();
        ts.tend(holder).unwrap();
        for (&r, &(fid, off)) in rivals.iter().zip(&items) {
            ts.twrite(r, fid, off, b"mine").unwrap();
            ts.tend(r).unwrap();
        }
        assert!(tables_empty(&ts));
    }

    #[test]
    fn a_childs_locks_outlive_its_end_and_go_at_the_roots_commit() {
        let (mut ts, fid) = setup(LockLevel::Page);
        let pages = pages_in_distinct_shards(&ts, fid, 2);
        let root = ts.tbegin();
        ts.topen(root, fid).unwrap();
        ts.twrite(root, fid, pages[0] * BS, b"root").unwrap();
        // The child locks a page, in another shard, that the root never
        // touched itself.
        let child = ts.tbegin_nested(root).unwrap();
        ts.twrite(child, fid, pages[1] * BS, b"child").unwrap();
        let rival = ts.tbegin();
        ts.topen(rival, fid).unwrap();
        let blocked = |ts: &mut TransactionService| {
            let res = ts.twrite(rival, fid, pages[1] * BS, b"rival");
            matches!(res, Err(TxnError::WouldBlock { .. }))
        };
        assert!(blocked(&mut ts));
        ts.tend(child).unwrap();
        assert!(blocked(&mut ts), "held in the root's name");
        ts.tend(root).unwrap();
        assert!(!blocked(&mut ts));
        ts.tend(rival).unwrap();
        assert!(tables_empty(&ts));
    }

    #[test]
    fn a_recovered_in_doubt_vote_releases_every_shard_at_its_resolve() {
        for commit in [true, false] {
            let (mut ts, fid) = setup(LockLevel::Page);
            let pages = pages_in_distinct_shards(&ts, fid, 3);
            let t = ts.tbegin();
            ts.topen(t, fid).unwrap();
            for &p in &pages {
                ts.twrite(t, fid, p * BS, b"vote").unwrap();
            }
            ts.prepare_participant(t, 7).unwrap();
            ts.flush_log().unwrap();
            ts.file_service_mut().simulate_crash();
            ts.recover().unwrap();
            assert_eq!(ts.prepared_gtids(), vec![7]);
            assert!(!tables_empty(&ts), "recovery re-took the vote's locks");
            assert!(ts.resolve_prepared(7, commit).unwrap());
            assert!(tables_empty(&ts), "commit = {commit}");
        }
    }

    #[test]
    fn io_requires_topen() {
        let (mut ts, fid) = setup(LockLevel::Page);
        let t = ts.tbegin();
        assert!(matches!(
            ts.tread(t, fid, 0, 1),
            Err(TxnError::FileNotOpen(_))
        ));
        assert!(matches!(
            ts.twrite(t, fid, 0, b"x"),
            Err(TxnError::FileNotOpen(_))
        ));
        ts.tabort(t).unwrap();
    }
}
