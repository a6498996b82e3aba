//! The transaction service: `t*` operations, two-phase locking, commit
//! and recovery.

use crate::error::TxnError;
use crate::intentions::{Intention, Technique};
use crate::lock::{DataItem, LockMode};
use crate::log::IntentionLog;
use crate::table::{LockOutcome, StripedLockTable};
use rhodos_disk_service::{StablePolicy, BLOCK_SIZE};
use rhodos_file_service::{
    FileId, FileIndexTable, FileService, LeaseGrant, LeaseMode, LockLevel, RecallAck, ServiceType,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
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
    /// Cross-granularity conflict detection. The paper assumes "a file
    /// cannot be subjected to more than one level of locking by
    /// concurrent transactions" but notes "this constraint can be
    /// relaxed, if required, at a later stage" (§6.1) — enabling this
    /// implements the relaxation: a lock request also conflicts with
    /// overlapping locks held in the *other* granularities' tables.
    pub cross_granularity: bool,
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
            cross_granularity: false,
            lock_shards: 8,
        }
    }
}

/// What the shared-service read fast path needs from the brief
/// service-locked validation step (see
/// [`TransactionService::fast_read_meta`]).
#[derive(Debug, Clone)]
pub struct FastReadMeta {
    /// Requesting process id (recorded in lock records).
    pub pid: u64,
    /// Root of the transaction's family — locks are taken in its name.
    pub owner: u64,
    /// Index into [`TransactionService::lock_tables`] for the file's
    /// granularity level.
    pub table: usize,
    /// The data items covering the requested range.
    pub items: Vec<DataItem>,
}

/// Outcome of [`TransactionService::fast_read_recheck`].
#[derive(Debug, Clone, Copy)]
pub enum FastReadCheck {
    /// Still valid; read up to `size` from the cache.
    Proceed {
        /// Committed file size at recheck time.
        size: u64,
    },
    /// State changed in a way the fast path cannot serve (tentative
    /// overlay appeared, file vanished); retry via the classic path.
    UseClassic,
    /// The transaction died (timeout abort) between meta and recheck.
    Dead {
        /// Whether the family root is still active — if not, the fast
        /// path must release the shard locks it took in the root's name.
        root_active: bool,
    },
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
    /// Log records made durable, total (the per-flush average is
    /// [`TxnStats::records_per_flush_avg`]).
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
    /// Prepared transactions rolled back by presumed abort — the
    /// coordinator's decision log had no commit record for them.
    pub presumed_aborts: u64,
    /// In-doubt transactions resolved by the orphan sweep (coordinator
    /// lost, decision recovered from the master's decision log).
    pub orphan_resolutions: u64,
    /// Log flushes that made at least one `Prepared` record durable.
    pub prepare_flushes: u64,
    /// `Prepared` records made durable, total (per-flush average is
    /// [`TxnStats::records_per_prepare_flush`]).
    pub prepare_records_flushed: u64,
}

impl TxnStats {
    /// Average log records made durable per flush.
    pub fn records_per_flush_avg(&self) -> f64 {
        if self.log_flushes == 0 {
            0.0
        } else {
            self.records_flushed as f64 / self.log_flushes as f64
        }
    }

    /// Average `Prepared` records made durable per prepare-carrying flush
    /// — the 2PC analogue of [`TxnStats::records_per_flush_avg`]: above
    /// 1.0 means cross-shard prepares are riding shared log forces.
    pub fn records_per_prepare_flush(&self) -> f64 {
        if self.prepare_flushes == 0 {
            0.0
        } else {
            self.prepare_records_flushed as f64 / self.prepare_flushes as f64
        }
    }
}

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

/// One request of [`TransactionService::commit_batch`].
#[derive(Debug, Clone, Copy)]
pub enum CommitReq<'a> {
    /// Commit this local transaction (`tend`).
    Local(TxnId),
    /// Phase one of a cross-shard commit on this participant: perform
    /// `writes` — `(fid, offset, data)` runs — under a fresh local
    /// transaction and vote under the coordinator's `gtid`. `Ok` is a
    /// durable *yes*; `Err` is a *no*, already rolled back here.
    Participant {
        /// Coordinator-assigned global transaction id.
        gtid: u64,
        /// The transaction's writes on this server, in order.
        writes: &'a [(FileId, u64, Vec<u8>)],
    },
}

/// Outcome of [`TransactionService::prepare_commit`].
#[derive(Debug)]
pub enum Prepared {
    /// A nested commit — merged into its parent, nothing left to do.
    Merged,
    /// A top-level commit whose `Commit` record is in the log but not
    /// necessarily durable yet: flush, then complete.
    Pending(PreparedCommit),
}

/// A top-level commit between its two halves: the `Commit` record has
/// been appended to the log ([`TransactionService::prepare_commit`]) but
/// the changes are not yet permanent. A group-commit leader collects
/// many of these, makes them all durable with one
/// [`TransactionService::flush_log`], and applies each with
/// [`TransactionService::complete_commit`].
///
/// The same record is a participant's in-doubt half of a cross-shard
/// transaction: the `Prepared` record is durable, the locks are held,
/// and only the coordinator's decision (or the orphan sweep consulting
/// the recovered decision log) may resolve it — local aborts and
/// timeouts must not. And it is what recovery rebuilds from the log to
/// redo.
#[derive(Debug)]
pub struct PreparedCommit {
    pub(crate) txn: TxnId,
    pub(crate) intentions: Vec<Intention>,
    pub(crate) sizes: Vec<(FileId, u64)>,
    pub(crate) has_effects: bool,
    /// Deferred deletions (`tdelete`), performed between the apply and
    /// the completion marker. They are in no durable record, so only a
    /// live local commit carries any.
    pub(crate) to_delete: Vec<FileId>,
}

impl PreparedCommit {
    /// Whether the commit put a record in the log that its completion
    /// must wait for. One without (a read-only transaction) completes
    /// without a force.
    pub fn has_effects(&self) -> bool {
        self.has_effects
    }
}

#[derive(Debug)]
pub(crate) struct ActiveTxn {
    pid: u64,
    /// Parent transaction for nested transactions (§6.4 mentions nested
    /// transactions as a source of long-running work). `None` for
    /// top-level transactions.
    parent: Option<TxnId>,
    /// Files this transaction `topen`ed. Ordered: commit, abort and
    /// nested adoption each close them one by one, every close persists
    /// a FIT, and the order of those disk references must not depend on
    /// a per-process hash seed.
    open_files: BTreeSet<FileId>,
    /// Files visible through an ancestor's `topen` (no own reference).
    inherited_files: BTreeSet<FileId>,
    /// Ordered for the same reason as `open_files`: abort and nested
    /// merge free these blocks one by one.
    tentative_pages: BTreeMap<(FileId, u64), TentativePage>,
    /// Record-mode tentative writes, in order.
    tentative_records: Vec<(FileId, u64, Vec<u8>)>,
    /// Tentative file sizes (writes past the current end).
    tentative_sizes: HashMap<FileId, u64>,
    /// Files created inside this transaction (deleted again on abort).
    created: Vec<FileId>,
    /// Files whose deletion is deferred to commit.
    to_delete: Vec<FileId>,
}

impl ActiveTxn {
    fn new(pid: u64) -> Self {
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
        }
    }

    fn can_use(&self, fid: FileId) -> bool {
        self.open_files.contains(&fid) || self.inherited_files.contains(&fid)
    }

    /// The intentions list and tentative sizes a commit or prepare
    /// record carries. Both come out in a fixed order — pages by (file,
    /// index) then records in write order, sizes by file — so the
    /// record's bytes and the order `ensure_size` runs in do not depend
    /// on `HashMap` iteration.
    fn assemble_intentions(&self) -> (Vec<Intention>, Vec<(FileId, u64)>) {
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
    /// One striped lock table per locking level (§6.5). Behind `Arc` so
    /// lock-free fast paths (see `SharedTransactionService::tread_shared`)
    /// can acquire shard locks without holding the whole-service mutex;
    /// recovery resets the shards in place to keep those handles valid.
    pub(crate) tables: [Arc<StripedLockTable>; 3],
    pub(crate) active: HashMap<TxnId, ActiveTxn>,
    /// In-doubt cross-shard participants by coordinator-assigned global
    /// transaction id. Entries survive [`Self::recover`] (rebuilt from
    /// durable `Prepared` records) and leave only via
    /// [`Self::resolve_prepared`].
    pub(crate) prepared: HashMap<u64, PreparedCommit>,
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
        let log = IntentionLog::open(&mut fs, &mut stats)?;
        let mk = || {
            Arc::new(StripedLockTable::new(
                config.lt_us,
                config.max_renewals,
                config.lock_shards,
            ))
        };
        Ok(Self {
            fs,
            config,
            tables: [mk(), mk(), mk()],
            active: HashMap::new(),
            prepared: HashMap::new(),
            next_txn: 1,
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

    /// Per-shard statistics of the lock table for `level`.
    pub fn lock_table_shard_stats(&self, level: LockLevel) -> Vec<crate::table::LockTableStats> {
        self.tables[table_index(level)].shard_stats()
    }

    /// Handles to the three striped lock tables, indexed Record, Page,
    /// File. The handles stay valid across recovery (the shards are reset
    /// in place), so lock-free fast paths may acquire shard locks through
    /// them without holding the service lock.
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
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        self.active.insert(id, ActiveTxn::new(pid));
        self.stats.begun += 1;
        id
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
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        let mut child = ActiveTxn::new(pid);
        child.parent = Some(parent);
        child.inherited_files = visible;
        self.active.insert(id, child);
        self.stats.begun += 1;
        Ok(id)
    }

    /// The chain of ancestors of `t`, root first, ending with `t`.
    fn chain(&self, t: TxnId) -> Vec<TxnId> {
        let mut chain = vec![t];
        let mut cur = t;
        while let Some(p) = self.active.get(&cur).and_then(|x| x.parent) {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }

    /// The top-level ancestor of `t` (itself, when not nested). Locks are
    /// held in the root's name so a family never conflicts with itself.
    fn root_of(&self, t: TxnId) -> TxnId {
        *self.chain(t).first().expect("chain is never empty")
    }

    /// Direct children of `t` that are still active.
    fn children_of(&self, t: TxnId) -> Vec<TxnId> {
        let mut v: Vec<TxnId> = self
            .active
            .iter()
            .filter(|(_, x)| x.parent == Some(t))
            .map(|(id, _)| *id)
            .collect();
        v.sort();
        v
    }

    fn txn(&self, t: TxnId) -> Result<&ActiveTxn, TxnError> {
        self.active.get(&t).ok_or(TxnError::NotActive(t))
    }

    fn txn_mut(&mut self, t: TxnId) -> Result<&mut ActiveTxn, TxnError> {
        self.active.get_mut(&t).ok_or(TxnError::NotActive(t))
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

    /// Lease acquisition whose recalled writebacks stay crash-atomic:
    /// like [`FileService::lease_acquire`], but a surrendered write
    /// delegation on a *transaction-service* file is applied as one
    /// transaction — intention-logged, group-commit flushed, batch
    /// applied — so a crash mid-recall replays all of the holder's
    /// delegated writes or none of them. Basic-service files (and the
    /// rare recall that races an in-flight transaction's locks) fall
    /// back to the direct apply-and-flush path.
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
        let (grant, acks) = self.fs.lease_acquire_raw(client, fid, mode)?;
        for ack in acks {
            let st = self.fs.get_attribute(fid)?.service_type;
            if st == ServiceType::Transaction && !ack.dirty.is_empty() {
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
        for (idx, block) in &ack.dirty {
            let start = idx * BLOCK_SIZE as u64;
            let len = (BLOCK_SIZE as u64).min(ack.size.saturating_sub(start)) as usize;
            if len == 0 {
                continue;
            }
            self.twrite(t, fid, start, &block[..len])?;
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
        // its locks and never conflicts with itself.
        let owner = self.root_of(t).0;
        // Relaxed mode (§6.1): the same file may be locked at different
        // levels by concurrent transactions, so a request must also be
        // compatible with overlapping grants in the other tables.
        if self.config.cross_granularity {
            let idx = table_index(level);
            for (i, other) in self.tables.iter().enumerate() {
                if i != idx && other.would_conflict(owner, &item, mode) {
                    self.stats.would_blocks += 1;
                    return Err(TxnError::WouldBlock { txn: t, item });
                }
            }
        }
        match self.tables[table_index(level)].set_lock(pid, owner, item, mode, now) {
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

    fn effective_size(&self, t: TxnId, fid: FileId, base: u64) -> u64 {
        self.chain(t)
            .iter()
            .filter_map(|id| {
                self.active
                    .get(id)
                    .and_then(|x| x.tentative_sizes.get(&fid))
                    .copied()
            })
            .fold(base, u64::max)
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

    /// First half of the shared-service read fast path: under the (brief)
    /// service lock, validates the transaction and computes everything the
    /// lock-free half needs — or `None` when the read must take the
    /// classic path (cross-granularity mode, or tentative state of `fid`
    /// anywhere in the transaction's family would need overlaying).
    ///
    /// # Errors
    ///
    /// [`TxnError::NotActive`] / [`TxnError::FileNotOpen`]; file-service
    /// failures resolving the lock level.
    pub fn fast_read_meta(
        &mut self,
        t: TxnId,
        fid: FileId,
        offset: u64,
        len: usize,
    ) -> Result<Option<FastReadMeta>, TxnError> {
        let txn = self.txn(t)?;
        if !txn.can_use(fid) {
            return Err(TxnError::FileNotOpen(t));
        }
        let pid = txn.pid;
        // The relaxed §6.1 mode probes the *other* granularities' tables;
        // keep that logic in one place (the classic path).
        if self.config.cross_granularity {
            return Ok(None);
        }
        if self.chain_has_overlay(t, fid) {
            return Ok(None);
        }
        let (level, items) = self.items_for_range(fid, offset, len as u64)?;
        let owner = self.root_of(t).0;
        Ok(Some(FastReadMeta {
            pid,
            owner,
            table: table_index(level),
            items,
        }))
    }

    /// Whether any member of `t`'s family holds tentative pages, records
    /// or sizes for `fid` (in which case a read needs the overlay logic).
    fn chain_has_overlay(&self, t: TxnId, fid: FileId) -> bool {
        self.chain(t).iter().any(|id| {
            self.active.get(id).is_some_and(|x| {
                x.tentative_sizes.contains_key(&fid)
                    || x.tentative_pages.keys().any(|(f, _)| *f == fid)
                    || x.tentative_records.iter().any(|(f, _, _)| *f == fid)
            })
        })
    }

    /// Second half of the read fast path, after the shard locks are held:
    /// re-validates under the (brief) service lock. A writer may have
    /// committed — or this transaction been timeout-aborted — between
    /// [`Self::fast_read_meta`] and the shard-lock acquisition, so the
    /// base size is re-read and liveness re-checked here.
    pub fn fast_read_recheck(&mut self, t: TxnId, root: TxnId, fid: FileId) -> FastReadCheck {
        if !self.active.contains_key(&t) {
            return FastReadCheck::Dead {
                root_active: self.active.contains_key(&root),
            };
        }
        if self.chain_has_overlay(t, fid) {
            return FastReadCheck::UseClassic;
        }
        match self.fs.get_attribute(fid) {
            Ok(attrs) => FastReadCheck::Proceed { size: attrs.size },
            Err(_) => FastReadCheck::UseClassic,
        }
    }

    fn tread_mode(
        &mut self,
        t: TxnId,
        fid: FileId,
        offset: u64,
        len: usize,
        mode: LockMode,
    ) -> Result<Vec<u8>, TxnError> {
        self.txn(t)?;
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
        let len = (len as u64).min(size - offset) as usize;
        let mut out = self.read_with_overlay(t, fid, offset, len, base_size)?;
        out.truncate(len);
        Ok(out)
    }

    /// Reads `[offset, offset+len)` of the committed file, overlaying this
    /// transaction's tentative pages and records.
    fn read_with_overlay(
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
        let chain = self.chain(t);
        let mut out = Vec::with_capacity(len);
        for idx in first..=last {
            // Youngest tentative copy wins (child shadows parent).
            let tentative = chain.iter().rev().find_map(|id| {
                self.active
                    .get(id)
                    .and_then(|x| x.tentative_pages.get(&(fid, idx)))
                    .map(|p| p.data.clone())
            });
            let block = match tentative {
                Some(data) => data,
                None if idx < base_blocks => self.fs.read_block(fid, idx)?.to_vec(),
                None => vec![0u8; BLOCK_SIZE],
            };
            let block_start = idx * bs;
            let lo = offset.max(block_start) - block_start;
            let hi = (offset + len as u64).min(block_start + bs) - block_start;
            out.extend_from_slice(&block[lo as usize..hi as usize]);
        }
        // Record-mode overlay: root first, then descendants, each in its
        // own write order.
        for id in &chain {
            let Some(txn) = self.active.get(id) else {
                continue;
            };
            for (rfid, roff, bytes) in &txn.tentative_records {
                if *rfid != fid {
                    continue;
                }
                let rlo = *roff;
                let rhi = roff + bytes.len() as u64;
                let wlo = offset.max(rlo);
                let whi = (offset + len as u64).min(rhi);
                if wlo < whi {
                    let dst = (wlo - offset) as usize..(whi - offset) as usize;
                    let src = (wlo - rlo) as usize..(whi - rlo) as usize;
                    out[dst].copy_from_slice(&bytes[src]);
                }
            }
        }
        Ok(out)
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
        self.txn(t)?;
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

    fn twrite_pages(
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
                    let chain = self.chain(t);
                    let inherited = chain[..chain.len() - 1].iter().rev().find_map(|id| {
                        self.active
                            .get(id)
                            .and_then(|x| x.tentative_pages.get(&(fid, idx)))
                            .map(|p| TentativePage {
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
        self.fs
            .put_detached_block(disk, addr, &page.data, StablePolicy::None)?;
        Ok(())
    }

    // ---- commit / abort ------------------------------------------------------

    /// The one commit sequence — a local commit, a group-commit batch and
    /// the participant half of a cross-shard commit are all this:
    ///
    /// 1. **Prepare** every request in order: [`Self::prepare_commit`]
    ///    for a [`CommitReq::Local`]; for a [`CommitReq::Participant`],
    ///    its writes under a fresh local transaction and then
    ///    [`Self::prepare_participant`] — any failure on the way is a
    ///    *no* vote and an immediate local abort.
    /// 2. **Force** the log once ([`Self::flush_log`], §6.6) — unless no
    ///    request has anything to wait for: a commit with effects or a
    ///    vote. Earlier `Completed` markers ride this force; nothing
    ///    forces one of its own.
    /// 3. **Complete** each local commit ([`Self::complete_commit`]) and
    ///    acknowledge each now-durable vote. When the force failed, a
    ///    local commit stays active and reports the error; a vote is
    ///    rolled back locally and reports it — a vote that never became
    ///    durable must not be reported yes.
    /// 4. **Housekeeping**, once, after a successful force:
    ///    [`Self::maybe_compact_log`]. The commits are durable whatever
    ///    it returns, so its error replaces the batch's first `Ok` only.
    ///
    /// One result per request, in request order. The steps stay public
    /// for code that measures or crashes *between* them (`benchmark/`'s
    /// ladder, the crash-point tests); everything that just commits calls
    /// this. DESIGN.md §4 has the reasons.
    pub fn commit_batch(&mut self, reqs: &[CommitReq<'_>]) -> Vec<Result<(), TxnError>> {
        enum Step {
            Done(Result<(), TxnError>),
            Commit(PreparedCommit),
            Vote(u64),
        }
        let steps: Vec<Step> = reqs
            .iter()
            .map(|req| match *req {
                CommitReq::Local(t) => match self.prepare_commit(t) {
                    Ok(Prepared::Merged) => Step::Done(Ok(())),
                    Ok(Prepared::Pending(p)) => Step::Commit(p),
                    Err(e) => Step::Done(Err(e)),
                },
                CommitReq::Participant { gtid, writes } => {
                    match self.prepare_writes(gtid, writes) {
                        Ok(()) => Step::Vote(gtid),
                        Err(e) => Step::Done(Err(e)),
                    }
                }
            })
            .collect();
        let awaited = steps.iter().any(|s| match s {
            Step::Done(_) => false,
            Step::Commit(p) => p.has_effects(),
            Step::Vote(_) => true,
        });
        let forced = if awaited { self.flush_log() } else { Ok(()) };
        let mut results: Vec<Result<(), TxnError>> = steps
            .into_iter()
            .map(|step| match (step, &forced) {
                (Step::Done(r), _) => r,
                (Step::Commit(p), Ok(())) => self.complete_commit(p),
                (Step::Vote(_), Ok(())) => Ok(()),
                (Step::Commit(_), Err(e)) => Err(e.clone()),
                (Step::Vote(gtid), Err(e)) => {
                    let _ = self.decide(gtid, false);
                    Err(e.clone())
                }
            })
            .collect();
        if awaited && forced.is_ok() {
            if let Err(e) = self.maybe_compact_log() {
                if let Some(first) = results.iter_mut().find(|r| r.is_ok()) {
                    *first = Err(e);
                }
            }
        }
        results
    }

    /// The prepare step of a [`CommitReq::Participant`]: a fresh local
    /// transaction performs `writes` and votes under `gtid`, or is
    /// aborted at the first failure.
    fn prepare_writes(
        &mut self,
        gtid: u64,
        writes: &[(FileId, u64, Vec<u8>)],
    ) -> Result<(), TxnError> {
        let t = self.tbegin();
        let voted = writes
            .iter()
            .try_for_each(|(fid, offset, data)| {
                if !self.txn(t)?.open_files.contains(fid) {
                    self.topen(t, *fid)?;
                }
                self.twrite(t, *fid, *offset, data)
            })
            .and_then(|()| self.prepare_participant(t, gtid));
        if voted.is_err() {
            let _ = self.tabort(t);
        }
        voted
    }

    /// Step 2 of [`Self::commit_batch`]: makes every log record appended
    /// since the previous force durable with one write of the log's tail
    /// — the group-commit durability point. No I/O when nothing is
    /// pending.
    ///
    /// # Errors
    ///
    /// File-service failures.
    pub fn flush_log(&mut self) -> Result<(), TxnError> {
        self.log.force(&mut self.fs, &mut self.stats)
    }

    /// Makes everything the service still holds in memory durable — the
    /// pool's dirty blocks, committed records and plain delayed writes
    /// alike, and the log's unforced markers (`Completed`, `Aborted`) — by
    /// a checkpoint ([`Self::compact_log`] when nothing is active or in
    /// doubt). A server that crashes after this redoes nothing, so no
    /// older committed record is replayed over a plain write the sync
    /// made durable, and it is in doubt about nothing it had resolved.
    ///
    /// # Errors
    ///
    /// File-service failures.
    pub fn sync(&mut self) -> Result<(), TxnError> {
        self.checkpoint()
    }

    /// A checkpoint, the one way log records are discarded: writes back
    /// every dirty block of the pool — every block a completed record in
    /// the log dirtied among them — as one grouped batch, then either
    /// resets the log, when nothing is active or in doubt, or appends and
    /// forces a `Checkpoint` marker, behind which recovery redoes no
    /// completed record. A crash before the header or the marker lands
    /// leaves the log standing, and redo rewrites the same bytes.
    fn checkpoint(&mut self) -> Result<(), TxnError> {
        self.fs.flush_all()?;
        if self.active.is_empty() && self.prepared.is_empty() {
            self.log.reset(&mut self.fs, &mut self.stats)
        } else {
            self.log.append_checkpoint();
            self.flush_log()
        }
    }

    /// Log bytes made durable so far (monotonic across compactions).
    pub fn durable_lsn(&self) -> u64 {
        self.log.durable_lsn()
    }

    /// Bytes in the log since its last compaction (its tail offset).
    pub fn log_len(&self) -> u64 {
        self.log.tail()
    }

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

    /// Step 1 of [`Self::commit_batch`] for a local commit: assembles the
    /// intentions list and appends the `Commit` record to the log
    /// *without* forcing it to disk. [`Self::flush_log`] makes the batch
    /// durable (one flush can cover many prepared commits) and
    /// [`Self::complete_commit`] applies each. The transaction stays
    /// active — and keeps its locks — until then.
    ///
    /// Nested commits merge into the parent here and are already done
    /// ([`Prepared::Merged`]).
    ///
    /// # Errors
    ///
    /// [`TxnError::NotActive`], [`TxnError::InDoubt`],
    /// [`TxnError::ChildrenActive`]; file-service failures merging a
    /// nested commit.
    pub fn prepare_commit(&mut self, t: TxnId) -> Result<Prepared, TxnError> {
        self.txn(t)?;
        if self.in_doubt(t) {
            return Err(TxnError::InDoubt(t));
        }
        if !self.children_of(t).is_empty() {
            return Err(TxnError::ChildrenActive(t));
        }
        // Nested commit: merge into the parent; durability waits for the
        // top level.
        if self.txn(t)?.parent.is_some() {
            self.tend_nested(t)?;
            return Ok(Prepared::Merged);
        }
        Ok(Prepared::Pending(self.log_intentions(t, None)))
    }

    /// Assembles `t`'s intentions list and appends it to the log,
    /// unforced: as its `Commit` record (the intention flag moves to
    /// Commit) or, under a coordinator's `vote` id, as its `Prepared`
    /// record.
    fn log_intentions(&mut self, t: TxnId, vote: Option<u64>) -> PreparedCommit {
        let txn = self.active.get(&t).expect("caller checked");
        let (intentions, sizes) = txn.assemble_intentions();
        // Deferred deletions are in no durable record, so only a local
        // commit carries any.
        let to_delete = match vote {
            None => txn.to_delete.clone(),
            Some(_) => Vec::new(),
        };
        let has_effects = !intentions.is_empty() || !to_delete.is_empty();
        if has_effects {
            self.log.append_intentions(vote, t, &intentions, &sizes);
        }
        PreparedCommit {
            txn: t,
            intentions,
            sizes,
            has_effects,
            to_delete,
        }
    }

    /// Step 3 of [`Self::commit_batch`] for a local commit: makes the
    /// prepared changes permanent — whole pages by WAL or shadow swing,
    /// records into the block pool, where write-back or a checkpoint
    /// takes them home — performs deferred deletions, appends the
    /// `Completed` marker (deferred into the *next* flush — redo is
    /// idempotent) and releases the locks. It writes no home block of a
    /// record: the `Commit` record, which must already be durable
    /// ([`Self::flush_log`]), is what makes it permanent.
    ///
    /// # Errors
    ///
    /// File-service failures; the transaction then stays active and its
    /// durable commit record will be replayed by recovery.
    pub fn complete_commit(&mut self, p: PreparedCommit) -> Result<(), TxnError> {
        let t = p.txn;
        if !self.active.contains_key(&t) {
            return Err(TxnError::NotActive(t));
        }
        self.apply_committed(&p)?;
        self.finish(t, true);
        Ok(())
    }

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

    // ---- cross-shard 2PC participant ------------------------------------

    /// Whether `t` is the local half of an in-doubt cross-shard
    /// transaction (a durable `Prepared` vote awaiting its decision).
    fn in_doubt(&self, t: TxnId) -> bool {
        self.prepared.values().any(|p| p.txn == t)
    }

    /// Step 1 of [`Self::commit_batch`] for a cross-shard participant
    /// (phase one of 2PC): assembles the intentions list exactly as
    /// [`Self::prepare_commit`] would, appends a durable `Prepared`
    /// record under the coordinator's global transaction id, and parks
    /// the transaction *in doubt* — locks stay held, timeouts no longer
    /// apply, and only [`Self::resolve_prepared`] may finish it. The
    /// record is appended unforced so a batch of prepares rides one
    /// [`Self::flush_log`]; the vote must not be reported to the
    /// coordinator before that flush.
    ///
    /// Deferred deletions (`tdelete`) are not part of the cross-shard
    /// protocol, mirroring the single-shard limitation that deletes are
    /// absent from durable records.
    ///
    /// # Errors
    ///
    /// [`TxnError::NotActive`], [`TxnError::InDoubt`],
    /// [`TxnError::ChildrenActive`] (also returned for a nested `t` —
    /// only top-level transactions prepare).
    pub fn prepare_participant(&mut self, t: TxnId, gtid: u64) -> Result<(), TxnError> {
        self.txn(t)?;
        if self.in_doubt(t) {
            return Err(TxnError::InDoubt(t));
        }
        if !self.children_of(t).is_empty() || self.txn(t)?.parent.is_some() {
            return Err(TxnError::ChildrenActive(t));
        }
        let vote = self.log_intentions(t, Some(gtid));
        self.stats.prepares += 1;
        self.prepared.insert(gtid, vote);
        Ok(())
    }

    /// Phase two of a cross-shard commit, participant side: applies or
    /// rolls back the in-doubt transaction under `gtid`. Idempotent —
    /// an unknown `gtid` returns `Ok(false)` so at-most-once retries and
    /// duplicate decisions are harmless. Works both crash-free (the
    /// active transaction still holds its tentative state) and after
    /// [`Self::recover`] rebuilt the in-doubt entry from the log.
    ///
    /// The `Completed`/`Aborted` marker is appended unforced: a crash
    /// before it is durable merely re-enters the in-doubt state, and the
    /// orphan sweep re-delivers the same (idempotent) decision.
    ///
    /// A participant's `commit_batch` always ends with its votes in
    /// doubt, so a resolve is where it finds the log quiescent: each
    /// one that resolves something ends with [`Self::maybe_compact_log`].
    ///
    /// # Errors
    ///
    /// File-service failures applying intentions or writing the log.
    pub fn resolve_prepared(&mut self, gtid: u64, commit: bool) -> Result<bool, TxnError> {
        let resolved = self.decide(gtid, commit)?;
        if resolved {
            self.maybe_compact_log()?;
        }
        Ok(resolved)
    }

    /// [`Self::resolve_prepared`] without the housekeeping.
    fn decide(&mut self, gtid: u64, commit: bool) -> Result<bool, TxnError> {
        let Some(p) = self.prepared.remove(&gtid) else {
            return Ok(false);
        };
        let t = p.txn;
        if commit {
            self.apply_committed(&p)?;
            self.finish(t, true);
        } else {
            if p.has_effects {
                self.log.append_outcome(t, false);
            }
            if self.active.contains_key(&t) {
                // The prepared entry is gone, so the normal abort path —
                // which frees tentative blocks and deletes files created
                // inside the transaction — is permitted again.
                self.tabort(t)?;
            } else {
                // After a crash only the intentions name the tentative
                // blocks (re-pinned by recovery); free them directly.
                for i in &p.intentions {
                    if let Intention::Page {
                        tentative_disk,
                        tentative_addr,
                        ..
                    } = i
                    {
                        self.fs
                            .free_detached_block(*tentative_disk, *tentative_addr)?;
                    }
                }
                self.finish(t, false);
            }
        }
        Ok(true)
    }

    /// [`Self::resolve_prepared`] arriving via the orphan sweep — the
    /// participant lost its coordinator and the decision was recovered
    /// from the master's decision log (`commit == false` is a presumed
    /// abort: no durable decision record existed).
    ///
    /// # Errors
    ///
    /// As [`Self::resolve_prepared`].
    pub fn resolve_orphan(&mut self, gtid: u64, commit: bool) -> Result<bool, TxnError> {
        let resolved = self.decide(gtid, commit)?;
        if resolved {
            self.stats.orphan_resolutions += 1;
            if !commit {
                self.stats.presumed_aborts += 1;
            }
            self.maybe_compact_log()?;
        }
        Ok(resolved)
    }

    /// Global transaction ids of every in-doubt prepared participant,
    /// sorted — what an orphaned server reports to the recovering
    /// coordinator.
    pub fn prepared_gtids(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.prepared.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Whether any in-doubt prepared participant references `fid`.
    /// Such a file must not be migrated or deleted out from under the
    /// pending decision: the intentions name *this* replica, and after
    /// a crash the transaction no longer holds an open count to protect
    /// it.
    pub fn prepared_touches(&self, fid: FileId) -> bool {
        self.prepared.values().any(|p| {
            p.sizes.iter().any(|(f, _)| *f == fid) || p.intentions.iter().any(|i| i.file() == fid)
        })
    }

    /// Step 4 of [`Self::commit_batch`], quiescent housekeeping: when
    /// nothing is active, everything in the log has completed, so reclaim
    /// it ([`Self::compact_log`]) once it outgrows its threshold. Returns
    /// whether a compaction ran.
    ///
    /// # Errors
    ///
    /// File-service failures rewriting the log's header.
    pub fn maybe_compact_log(&mut self) -> Result<bool, TxnError> {
        if self.active.is_empty() && self.prepared.is_empty() && self.log.wants_compaction() {
            self.compact_log()?;
            return Ok(true);
        }
        Ok(false)
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

    /// Merges a committed nested transaction's tentative state into its
    /// parent. The child's page versions shadow the parent's (whose
    /// superseded tentative blocks are freed) and keep the union of both
    /// dirty ranges; records append in order; opened files and deferred
    /// operations transfer.
    fn tend_nested(&mut self, t: TxnId) -> Result<(), TxnError> {
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
    /// discards only its own tentative state (the parent's survives).
    ///
    /// # Errors
    ///
    /// [`TxnError::NotActive`] if the transaction does not exist.
    pub fn tabort(&mut self, t: TxnId) -> Result<(), TxnError> {
        self.txn(t)?;
        if self.in_doubt(t) {
            return Err(TxnError::InDoubt(t));
        }
        for child in self.children_of(t) {
            self.tabort(child)?;
        }
        if self.txn(t)?.parent.is_some() {
            return self.tabort_nested(t);
        }
        let txn = self.active.get(&t).expect("checked");
        let tentative: Vec<(u16, u64)> = txn
            .tentative_pages
            .values()
            .filter_map(|p| p.shadow)
            .collect();
        let created = txn.created.clone();
        for (d, a) in tentative {
            self.fs.free_detached_block(d, a)?;
        }
        // Files created inside the transaction never existed.
        for fid in created {
            if self
                .active
                .get(&t)
                .expect("checked")
                .open_files
                .contains(&fid)
            {
                let _ = self.tclose(t, fid);
            }
            let _ = self.fs.delete(fid);
        }
        self.finish(t, false);
        Ok(())
    }

    /// Aborts a nested transaction: its own tentative blocks, created
    /// files and file references go; the parent's state — and the
    /// family's locks, which are held in the root's name — survive.
    fn tabort_nested(&mut self, t: TxnId) -> Result<(), TxnError> {
        let child = self.active.remove(&t).expect("caller checked");
        for (d, a) in child.tentative_pages.values().filter_map(|p| p.shadow) {
            self.fs.free_detached_block(d, a)?;
        }
        for fid in &child.created {
            if child.open_files.contains(fid) {
                let _ = self.fs.release(*fid);
            }
            let _ = self.fs.delete(*fid);
        }
        for fid in child.open_files {
            if !child.created.contains(&fid) {
                let _ = self.fs.release(fid);
            }
        }
        self.stats.aborted += 1;
        Ok(())
    }

    /// Completes a transaction: releases its files — writing nothing: what
    /// its commit left in the pool, the log covers — and its locks in
    /// every table, and wakes waiters.
    fn finish(&mut self, t: TxnId, committed: bool) {
        if let Some(txn) = self.active.remove(&t) {
            for fid in txn.open_files {
                let _ = self.fs.release(fid);
            }
        }
        let now = self.fs.clock().now_us();
        for table in &self.tables {
            table.release_all(t.0, now);
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

    /// Compacts the intention log by a checkpoint: everything in it has
    /// completed, so once the blocks its records dirtied are written back
    /// the log starts over, empty, under a new incarnation. Call in a
    /// quiescent state (no active transactions).
    ///
    /// # Errors
    ///
    /// File-service failures.
    ///
    /// # Panics
    ///
    /// Panics if transactions are still active.
    pub fn compact_log(&mut self) -> Result<(), TxnError> {
        assert!(
            self.active.is_empty(),
            "compact_log requires a quiescent service"
        );
        assert!(
            self.prepared.is_empty(),
            "compact_log must not discard in-doubt Prepared records"
        );
        self.checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhodos_file_service::FileServiceConfig;
    use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};

    fn service() -> TransactionService {
        let fs = FileService::single_disk(
            DiskGeometry::medium(),
            LatencyModel::default(),
            SimClock::new(),
            FileServiceConfig::default(),
        )
        .unwrap();
        TransactionService::new(fs, TxnConfig::default()).unwrap()
    }

    fn setup(level: LockLevel) -> (TransactionService, FileId) {
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
    fn committed_but_incomplete_transaction_redone_after_crash() {
        let (mut ts, fid) = setup(LockLevel::Page);
        let t0 = ts.tbegin();
        ts.topen(t0, fid).unwrap();
        ts.twrite(t0, fid, 0, b"base").unwrap();
        ts.tend(t0).unwrap();
        // Forge a crash between the commit record and its application.
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.twrite(t, fid, 0, b"redo").unwrap();
        // Log what tend would, but skip the application.
        let _unapplied = ts.prepare_commit(t).unwrap();
        // Make the forged record durable (this also flushes t0's deferred
        // `Completed` marker, as the next group flush would).
        ts.flush_log().unwrap();
        ts.file_service_mut().simulate_crash();
        let redone = ts.recover().unwrap();
        assert_eq!(redone, vec![t]);
        // The redo applied the write.
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        assert_eq!(ts.tread(t2, fid, 0, 4).unwrap(), b"redo");
        ts.tend(t2).unwrap();
        // Recovery is idempotent: a second crash+recover redoes nothing.
        ts.file_service_mut().simulate_crash();
        assert!(ts.recover().unwrap().is_empty());
    }

    #[test]
    fn uncommitted_transaction_vanishes_after_crash() {
        let (mut ts, fid) = setup(LockLevel::Page);
        let t0 = ts.tbegin();
        ts.topen(t0, fid).unwrap();
        ts.twrite(t0, fid, 0, b"durable").unwrap();
        ts.tend(t0).unwrap();
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.twrite(t, fid, 0, b"ghost!!").unwrap();
        // Crash with no commit record. t0's `Completed` marker was
        // deferred into a flush that never happened, so recovery redoes
        // t0 (harmless — redo is idempotent); the uncommitted t must not
        // appear.
        ts.file_service_mut().simulate_crash();
        assert_eq!(ts.recover().unwrap(), vec![t0]);
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        assert_eq!(ts.tread(t2, fid, 0, 7).unwrap(), b"durable");
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

    #[test]
    fn log_auto_compacts_past_threshold() {
        use crate::log::LOG_COMPACT_THRESHOLD;
        // Record-mode commits carry their data in the log: 60 of these
        // are well over two thresholds' worth.
        const RECORD: usize = 160 * 1024;
        let (mut ts, fid) = setup(LockLevel::Record);
        for i in 0..60u8 {
            let t = ts.tbegin();
            ts.topen(t, fid).unwrap();
            ts.twrite(t, fid, 0, &vec![i; RECORD]).unwrap();
            ts.tend(t).unwrap();
            let len = ts.log_len();
            assert!(
                len <= LOG_COMPACT_THRESHOLD + 200,
                "log should stay near the threshold, is {len}"
            );
        }
        assert!(ts.stats().log_compactions >= 2);
        // Data is still intact after all the compactions.
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        assert_eq!(ts.tread(t, fid, 0, 16).unwrap(), vec![59u8; 16]);
        ts.tend(t).unwrap();
    }

    #[test]
    fn compact_log_resets_tail() {
        let (mut ts, fid) = setup(LockLevel::Page);
        let empty = ts.log_len();
        for _ in 0..5 {
            let t = ts.tbegin();
            ts.topen(t, fid).unwrap();
            ts.twrite(t, fid, 0, b"round").unwrap();
            ts.tend(t).unwrap();
        }
        assert!(ts.log_len() > empty);
        ts.compact_log().unwrap();
        assert_eq!(ts.log_len(), empty);
        // Service still works.
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.twrite(t, fid, 0, b"after").unwrap();
        ts.tend(t).unwrap();
    }

    // ---- cross-shard 2PC participant ------------------------------------

    fn prepared_write(ts: &mut TransactionService, fid: FileId, gtid: u64, data: &[u8]) -> TxnId {
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.twrite(t, fid, 0, data).unwrap();
        ts.prepare_participant(t, gtid).unwrap();
        ts.flush_log().unwrap();
        t
    }

    #[test]
    fn prepare_then_commit_applies_writes() {
        let (mut ts, fid) = setup(LockLevel::Page);
        prepared_write(&mut ts, fid, 77, b"cross");
        assert_eq!(ts.prepared_gtids(), vec![77]);
        assert!(ts.resolve_prepared(77, true).unwrap());
        assert!(ts.prepared_gtids().is_empty());
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        assert_eq!(ts.tread(t2, fid, 0, 5).unwrap(), b"cross");
        ts.tend(t2).unwrap();
        assert_eq!(ts.stats().prepares, 1);
        assert_eq!(ts.stats().committed, 2);
    }

    #[test]
    fn prepare_then_abort_discards_writes() {
        let (mut ts, fid) = setup(LockLevel::Page);
        let t0 = ts.tbegin();
        ts.topen(t0, fid).unwrap();
        ts.twrite(t0, fid, 0, b"base").unwrap();
        ts.tend(t0).unwrap();
        prepared_write(&mut ts, fid, 5, b"gone");
        assert!(ts.resolve_prepared(5, false).unwrap());
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        assert_eq!(ts.tread(t2, fid, 0, 4).unwrap(), b"base");
        ts.tend(t2).unwrap();
        // Unknown gtid: idempotent no-op.
        assert!(!ts.resolve_prepared(5, false).unwrap());
        assert!(!ts.resolve_prepared(999, true).unwrap());
    }

    #[test]
    fn in_doubt_blocks_tend_tabort_and_timeout() {
        let (mut ts, fid) = setup(LockLevel::Page);
        let t = prepared_write(&mut ts, fid, 9, b"held");
        assert_eq!(ts.tend(t), Err(TxnError::InDoubt(t)));
        assert_eq!(ts.tabort(t), Err(TxnError::InDoubt(t)));
        assert_eq!(ts.prepare_participant(t, 10), Err(TxnError::InDoubt(t)));
        // The deadlock timeout must never pick an in-doubt victim.
        let clock = ts.file_service_mut().clock();
        clock.advance(10 * TxnConfig::default().lt_us);
        assert!(ts.tick().is_empty());
        // The lock is genuinely still held: another writer blocks.
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        assert!(matches!(
            ts.twrite(t2, fid, 0, b"nope"),
            Err(TxnError::WouldBlock { .. })
        ));
        ts.tabort(t2).unwrap();
        assert!(ts.resolve_prepared(9, true).unwrap());
    }

    #[test]
    fn prepared_state_survives_crash_and_commits() {
        let (mut ts, fid) = setup(LockLevel::Page);
        prepared_write(&mut ts, fid, 41, b"vote");
        ts.file_service_mut().simulate_crash();
        assert!(ts.recover().unwrap().is_empty());
        // Still in doubt, and still isolated: the re-acquired lock blocks
        // a new writer.
        assert_eq!(ts.prepared_gtids(), vec![41]);
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        assert!(matches!(
            ts.twrite(t2, fid, 0, b"nope"),
            Err(TxnError::WouldBlock { .. })
        ));
        ts.tabort(t2).unwrap();
        // Late decision commits byte-identically.
        assert!(ts.resolve_prepared(41, true).unwrap());
        let t3 = ts.tbegin();
        ts.topen(t3, fid).unwrap();
        assert_eq!(ts.tread(t3, fid, 0, 4).unwrap(), b"vote");
        ts.tend(t3).unwrap();
    }

    #[test]
    fn a_recovered_partial_page_vote_locks_its_page_not_its_file() {
        let (mut ts, fid) = setup(LockLevel::Page);
        prepared_write(&mut ts, fid, 43, b"vote");
        ts.file_service_mut().simulate_crash();
        ts.recover().unwrap();
        assert_eq!(ts.prepared_gtids(), vec![43]);
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        assert!(matches!(
            ts.twrite(t, fid, 100, b"same page"),
            Err(TxnError::WouldBlock { .. })
        ));
        ts.twrite(t, fid, BLOCK_SIZE as u64, b"next page").unwrap();
        assert!(ts.resolve_prepared(43, true).unwrap());
        ts.tend(t).unwrap();
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        assert_eq!(ts.tread(t, fid, 0, 4).unwrap(), b"vote");
        assert_eq!(
            ts.tread(t, fid, BLOCK_SIZE as u64, 9).unwrap(),
            b"next page"
        );
        ts.tend(t).unwrap();
    }

    #[test]
    fn prepared_state_survives_crash_and_aborts() {
        let (mut ts, fid) = setup(LockLevel::Page);
        let t0 = ts.tbegin();
        ts.topen(t0, fid).unwrap();
        ts.twrite(t0, fid, 0, b"keep").unwrap();
        ts.tend(t0).unwrap();
        prepared_write(&mut ts, fid, 42, b"lose");
        ts.file_service_mut().simulate_crash();
        ts.recover().unwrap();
        assert_eq!(ts.prepared_gtids(), vec![42]);
        assert!(ts.resolve_orphan(42, false).unwrap());
        assert_eq!(ts.stats().orphan_resolutions, 1);
        assert_eq!(ts.stats().presumed_aborts, 1);
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        assert_eq!(ts.tread(t2, fid, 0, 4).unwrap(), b"keep");
        ts.tend(t2).unwrap();
        // A second crash+recover finds nothing in doubt (the `Aborted`
        // marker, flushed by resolve's next group flush, erased it) —
        // or, if the marker was still unflushed, the prepare re-surfaces
        // and the same presumed abort re-applies idempotently.
        ts.flush_log().unwrap();
        ts.file_service_mut().simulate_crash();
        ts.recover().unwrap();
        assert!(ts.prepared_gtids().is_empty());
    }

    #[test]
    fn resolve_after_crash_is_idempotent_when_marker_was_torn() {
        // Crash-after-apply-but-before-durable-marker: the decision is
        // re-delivered and must not double-apply or corrupt.
        let (mut ts, fid) = setup(LockLevel::Page);
        prepared_write(&mut ts, fid, 8, b"once");
        assert!(ts.resolve_prepared(8, true).unwrap());
        // The `Completed` marker is unforced — crash before any flush.
        ts.file_service_mut().simulate_crash();
        ts.recover().unwrap();
        // The prepare record is durable but the completion is gone: the
        // participant is in doubt again.
        assert_eq!(ts.prepared_gtids(), vec![8]);
        assert!(ts.resolve_prepared(8, true).unwrap());
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        assert_eq!(ts.tread(t2, fid, 0, 4).unwrap(), b"once");
        ts.tend(t2).unwrap();
    }

    #[test]
    fn prepare_flush_accounting_batches() {
        let (mut ts, fa) = setup(LockLevel::Page);
        let fb = ts.tcreate(LockLevel::Page).unwrap();
        let t1 = ts.tbegin();
        ts.topen(t1, fa).unwrap();
        ts.twrite(t1, fa, 0, b"one").unwrap();
        let t2 = ts.tbegin();
        ts.topen(t2, fb).unwrap();
        ts.twrite(t2, fb, 0, b"two").unwrap();
        ts.prepare_participant(t1, 1).unwrap();
        ts.prepare_participant(t2, 2).unwrap();
        ts.flush_log().unwrap();
        assert_eq!(ts.stats().prepare_flushes, 1);
        assert_eq!(ts.stats().prepare_records_flushed, 2);
        assert!((ts.stats().records_per_prepare_flush() - 2.0).abs() < f64::EPSILON);
        ts.resolve_prepared(1, true).unwrap();
        ts.resolve_prepared(2, true).unwrap();
    }
}

#[cfg(test)]
mod cross_granularity_tests {
    use super::*;
    use rhodos_file_service::FileServiceConfig;
    use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};

    fn service(cross: bool) -> TransactionService {
        let fs = FileService::single_disk(
            DiskGeometry::medium(),
            LatencyModel::instant(),
            SimClock::new(),
            FileServiceConfig::default(),
        )
        .unwrap();
        TransactionService::new(
            fs,
            TxnConfig {
                cross_granularity: cross,
                ..Default::default()
            },
        )
        .unwrap()
    }

    /// Two transactions lock the same file at different levels. Without
    /// the relaxation the conflict is invisible (the paper's assumed
    /// constraint must hold by convention); with it, it is detected.
    fn mixed_level_conflict(cross: bool) -> Result<(), TxnError> {
        let mut ts = service(cross);
        let fid = ts.tcreate(LockLevel::Page).unwrap();
        let t0 = ts.tbegin();
        ts.topen(t0, fid).unwrap();
        ts.twrite(t0, fid, 0, &vec![0u8; 8192]).unwrap();
        ts.tend(t0).unwrap();
        // T1 locks page 0 (page table).
        let t1 = ts.tbegin();
        ts.topen(t1, fid).unwrap();
        ts.twrite(t1, fid, 0, b"page-level hold").unwrap();
        // T2 arrives via file-level locking on the SAME file.
        ts.file_service_mut()
            .set_lock_level(fid, LockLevel::File)
            .unwrap();
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        let r = ts.twrite(t2, fid, 0, b"file-level write");
        ts.tabort(t1).unwrap();
        let _ = ts.tabort(t2);
        r
    }

    #[test]
    fn relaxation_detects_mixed_level_conflicts() {
        assert!(matches!(
            mixed_level_conflict(true),
            Err(TxnError::WouldBlock { .. })
        ));
    }

    #[test]
    fn default_mode_trusts_the_papers_assumption() {
        // Without the relaxation the write is (unsafely but by the
        // paper's stated assumption) granted — the tables are disjoint.
        assert!(mixed_level_conflict(false).is_ok());
    }

    #[test]
    fn relaxed_mode_still_allows_disjoint_items() {
        let mut ts = service(true);
        let fid = ts.tcreate(LockLevel::Page).unwrap();
        let t0 = ts.tbegin();
        ts.topen(t0, fid).unwrap();
        ts.twrite(t0, fid, 0, &vec![0u8; 2 * 8192]).unwrap();
        ts.tend(t0).unwrap();
        let t1 = ts.tbegin();
        let t2 = ts.tbegin();
        ts.topen(t1, fid).unwrap();
        ts.topen(t2, fid).unwrap();
        ts.twrite(t1, fid, 0, b"p0").unwrap();
        // Different page: no conflict even with cross checks on.
        ts.twrite(t2, fid, 8192, b"p1").unwrap();
        ts.tend(t1).unwrap();
        ts.tend(t2).unwrap();
    }

    #[test]
    fn relaxed_mode_unblocks_after_commit() {
        let mut ts = service(true);
        let fid = ts.tcreate(LockLevel::Page).unwrap();
        let t0 = ts.tbegin();
        ts.topen(t0, fid).unwrap();
        ts.twrite(t0, fid, 0, &vec![1u8; 8192]).unwrap();
        // File-level reader must wait while the page write is pending...
        ts.file_service_mut()
            .set_lock_level(fid, LockLevel::File)
            .unwrap();
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        assert!(ts.tread(t2, fid, 0, 4).is_err());
        // ...and proceed once it commits.
        ts.file_service_mut()
            .set_lock_level(fid, LockLevel::Page)
            .unwrap();
        ts.tend(t0).unwrap();
        ts.file_service_mut()
            .set_lock_level(fid, LockLevel::File)
            .unwrap();
        assert_eq!(ts.tread(t2, fid, 0, 4).unwrap(), vec![1u8; 4]);
        ts.tend(t2).unwrap();
    }
}

#[cfg(test)]
mod nested_tests {
    use super::*;
    use rhodos_file_service::FileServiceConfig;
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
