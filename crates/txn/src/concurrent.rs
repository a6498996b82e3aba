//! A thread-safe transaction runner over the shared service.
//!
//! The deterministic core ([`TransactionService`]) returns
//! [`TxnError::WouldBlock`] instead of parking a thread, which is ideal
//! for reproducible experiments but leaves real multi-threaded clients —
//! the paper's workstations all banging on one file server — to someone
//! else. This module is that someone: [`SharedTransactionService`] wraps
//! the service in a lock and provides [`run_txn`], a whole-transaction
//! retry loop. The service lock is taken **per operation**, not per
//! transaction, so concurrent transactions genuinely interleave: they
//! conflict on data items, queue, deadlock and get broken by the §6.4
//! timeouts, exactly like the paper's concurrent clients.
//!
//! [`run_txn`]: SharedTransactionService::run_txn

use crate::error::TxnError;
use crate::lock::LockMode;
use crate::service::{CommitReq, FastReadCheck, TransactionService, TxnId};
use crate::table::{LockOutcome, StripedLockTable};
use parking_lot::Mutex;
use rhodos_disk_service::BLOCK_SIZE;
use rhodos_file_service::{FileId, ShardedBlockCache};
use rhodos_simdisk::SimClock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Shared state of the group-commit pipeline.
#[derive(Debug, Default)]
struct PipeState {
    /// Commits waiting to be serviced by the current leader.
    queue: Vec<TxnId>,
    /// Whether some thread is currently acting as the leader.
    leader_active: bool,
    /// Outcomes published by the leader, keyed by transaction.
    outcomes: HashMap<TxnId, Result<(), TxnError>>,
}

/// The leader/follower group-commit pipeline (§6.6: "several intention
/// lists may be written to the log in a single disk operation").
///
/// Committers enqueue their transaction; the first arrival becomes the
/// *leader*, drains the queue, hands the batch to
/// [`TransactionService::commit_batch`] under the service lock (every
/// intentions list appended, the log forced **once**, every commit
/// applied), and finally publishes each transaction's outcome and wakes
/// the followers, which were parked on the condvar the whole time.
#[derive(Debug, Default)]
struct CommitPipeline {
    state: StdMutex<PipeState>,
    cv: Condvar,
}

impl CommitPipeline {
    /// Locks the pipeline state; a panicking leader must not poison
    /// commit outcomes for everyone else.
    fn state(&self) -> StdMutexGuard<'_, PipeState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Counters of the shared-service read fast path (see
/// [`SharedTransactionService::tread_shared`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Reads served entirely from the sharded block pool, never holding
    /// the whole-service lock across the data access.
    pub full_hits: u64,
    /// Reads that fell back to the classic service-locked path (overlay
    /// present, cross-granularity mode, cache miss, or state change
    /// between validate and recheck).
    pub fallbacks: u64,
    /// Reads rejected with `WouldBlock` by a shard lock conflict.
    pub conflicts: u64,
}

#[derive(Debug, Default)]
struct FastPathCounters {
    full_hits: AtomicU64,
    fallbacks: AtomicU64,
    conflicts: AtomicU64,
}

/// The lock-free half of the read path: handles to the striped lock
/// tables and the sharded block pool, valid for the service's lifetime
/// (both are reset in place on recovery, never replaced).
#[derive(Debug)]
struct FastPath {
    tables: [Arc<StripedLockTable>; 3],
    cache: Arc<ShardedBlockCache>,
    clock: SimClock,
    counters: FastPathCounters,
}

impl FastPath {
    /// Builds the fast path if the configuration warrants it: at least
    /// one layer actually sharded (the `lock_shards = cache_shards = 1`
    /// ablation keeps the classic path exclusively, reproducing pre-E20
    /// behaviour exactly) and server-side caching enabled.
    fn build(service: &mut TransactionService) -> Option<Arc<FastPath>> {
        let lock_shards = service.config().lock_shards;
        let cache_shards = service.file_service().config().cache_shards;
        if lock_shards <= 1 && cache_shards <= 1 {
            return None;
        }
        let cache = service.file_service_mut().cache_handle()?;
        Some(Arc::new(FastPath {
            tables: service.lock_tables(),
            cache,
            clock: service.file_service().clock(),
            counters: FastPathCounters::default(),
        }))
    }
}

/// A cloneable, thread-safe handle to one transaction service. Clones
/// share the service *and* its group-commit pipeline; there is no other
/// way to obtain a handle to the same service, so concurrent committers
/// always batch together.
///
/// # Example
///
/// ```
/// use rhodos_file_service::{FileService, FileServiceConfig, LockLevel};
/// use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
/// use rhodos_txn::{SharedTransactionService, TransactionService, TxnConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fs = FileService::single_disk(
///     DiskGeometry::medium(), LatencyModel::instant(), SimClock::new(),
///     FileServiceConfig::default(),
/// )?;
/// let shared = SharedTransactionService::new(TransactionService::new(fs, TxnConfig::default())?);
/// let fid = shared.lock().tcreate(LockLevel::Page)?;
/// shared.run_txn(|s, t| {
///     s.lock().topen(t, fid)?;
///     s.lock().twrite(t, fid, 0, b"thread safe")
/// })?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SharedTransactionService {
    inner: Arc<Mutex<TransactionService>>,
    pipeline: Arc<CommitPipeline>,
    /// Lock-free read fast path; `None` when the ablation configuration
    /// (`lock_shards = cache_shards = 1`) or a cacheless service makes it
    /// pointless.
    fast: Option<Arc<FastPath>>,
}

impl SharedTransactionService {
    /// Wraps a service for shared use.
    pub fn new(mut service: TransactionService) -> Self {
        let fast = FastPath::build(&mut service);
        Self {
            inner: Arc::new(Mutex::new(service)),
            pipeline: Arc::new(CommitPipeline::default()),
            fast,
        }
    }

    /// Locks the underlying service for one operation (or for
    /// non-transactional administration: `tcreate`, statistics, recovery).
    /// Do **not** hold the guard across blocking work.
    pub fn lock(&self) -> parking_lot::MutexGuard<'_, TransactionService> {
        self.inner.lock()
    }

    /// Whether the lock-free read fast path is active (at least one layer
    /// sharded and server-side caching enabled).
    pub fn fast_path_enabled(&self) -> bool {
        self.fast.is_some()
    }

    /// Snapshot of the fast-path counters (all zero when the fast path is
    /// disabled).
    pub fn fast_stats(&self) -> FastPathStats {
        match &self.fast {
            None => FastPathStats::default(),
            Some(f) => FastPathStats {
                full_hits: f.counters.full_hits.load(Ordering::Relaxed),
                fallbacks: f.counters.fallbacks.load(Ordering::Relaxed),
                conflicts: f.counters.conflicts.load(Ordering::Relaxed),
            },
        }
    }

    /// `tread` that shrinks the global critical section: when the read
    /// needs no tentative overlay, the service lock is held only for two
    /// brief validation steps — the read-only locks are acquired on the
    /// striped lock-table shards and the data served from the sharded
    /// block pool, so concurrent readers of unrelated items touch no
    /// common lock word (E20). Any condition the fast path cannot serve
    /// (cross-granularity mode, tentative state, a cache miss, a state
    /// change between validate and recheck) falls back to the classic
    /// service-locked [`TransactionService::tread`], which is always
    /// correct; with the fast path disabled this *is* the classic path.
    ///
    /// Coherence: a committed overlapping write requires an `Iwrite` on
    /// an item of the same granularity table, which the `ReadOnly` shard
    /// locks held here exclude; tentative (uncommitted) data never enters
    /// the block pool; and the pool is invalidated under `Iwrite` cover
    /// (delete, descriptor replacement) or with the file closed.
    ///
    /// # Errors
    ///
    /// As [`TransactionService::tread`]. Shard-lock conflicts surface as
    /// [`TxnError::WouldBlock`] (counted in [`FastPathStats::conflicts`],
    /// not in `TxnStats::would_blocks`); the queued waiter record is
    /// cleaned up by the retry loop's abort, exactly like a classic
    /// queued request.
    pub fn tread_shared(
        &self,
        t: TxnId,
        fid: FileId,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, TxnError> {
        let Some(fast) = &self.fast else {
            return self.inner.lock().tread(t, fid, offset, len);
        };
        // Step 1 — validate and plan under a brief service lock.
        let meta = {
            let mut svc = self.inner.lock();
            match svc.fast_read_meta(t, fid, offset, len)? {
                Some(meta) => meta,
                None => {
                    fast.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
                    return svc.tread(t, fid, offset, len);
                }
            }
        };
        // Step 2 — acquire read-only locks on the striped shards, without
        // the service lock. Each item touches exactly one shard mutex.
        let table = &fast.tables[meta.table];
        let now = fast.clock.now_us();
        for item in &meta.items {
            match table.set_lock(meta.pid, meta.owner, *item, LockMode::ReadOnly, now) {
                LockOutcome::Granted => {}
                LockOutcome::Queued => {
                    fast.counters.conflicts.fetch_add(1, Ordering::Relaxed);
                    return Err(TxnError::WouldBlock {
                        txn: t,
                        item: *item,
                    });
                }
            }
        }
        // Step 3 — recheck under a brief service lock: a writer may have
        // committed (or this transaction been timeout-aborted) between
        // steps 1 and 2; the locks held since step 2 freeze things now.
        let size = {
            let mut svc = self.inner.lock();
            match svc.fast_read_recheck(t, TxnId(meta.owner), fid) {
                FastReadCheck::Proceed { size } => size,
                FastReadCheck::UseClassic => {
                    fast.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
                    return svc.tread(t, fid, offset, len);
                }
                FastReadCheck::Dead { root_active } => {
                    drop(svc);
                    if !root_active {
                        // The family is gone; its `finish` ran before our
                        // step-2 acquisitions, so release the strays we
                        // registered in the dead root's name. (Ids are
                        // never reused, so this cannot hit a live txn.)
                        for table in &fast.tables {
                            table.release_all(meta.owner, fast.clock.now_us());
                        }
                    }
                    return Err(TxnError::NotActive(t));
                }
            }
        };
        if offset > size {
            return Err(TxnError::BeyondEof { offset, size });
        }
        let len = (len as u64).min(size - offset) as usize;
        if len == 0 {
            return Ok(Vec::new());
        }
        // Step 4 — serve from the sharded pool. A block that is not
        // resident sends the read to the classic path (re-acquiring the
        // same locks is idempotent), which fetches it — and is the one
        // lookup that counts its miss.
        let bs = BLOCK_SIZE as u64;
        let first = offset / bs;
        let last = (offset + len as u64 - 1) / bs;
        if !(first..=last).all(|idx| fast.cache.contains(&(fid, idx))) {
            fast.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
            return self.inner.lock().tread(t, fid, offset, len);
        }
        let mut out = Vec::with_capacity(len);
        for idx in first..=last {
            let Some(block) = fast.cache.get(&(fid, idx)) else {
                fast.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
                return self.inner.lock().tread(t, fid, offset, len);
            };
            let block_start = idx * bs;
            let lo = offset.max(block_start) - block_start;
            let hi = (offset + len as u64).min(block_start + bs) - block_start;
            out.extend_from_slice(&block[lo as usize..hi as usize]);
        }
        fast.counters.full_hits.fetch_add(1, Ordering::Relaxed);
        Ok(out)
    }

    /// Runs `body` as one transaction, retrying the *whole transaction*
    /// when it conflicts. The body receives this handle and the fresh
    /// transaction id and locks the service per operation, so other
    /// threads' transactions interleave with it. On
    /// [`TxnError::WouldBlock`] the attempt is aborted, the virtual clock
    /// advances (letting the §6.4 timeout machinery break deadlocks),
    /// waiters are promoted via `tick`, and the body re-executes under a
    /// fresh transaction. Commits on success.
    ///
    /// The body must be idempotent up to its transaction — exactly the
    /// property transactions exist to give it.
    ///
    /// # Errors
    ///
    /// Propagates non-conflict failures from the body or commit;
    /// [`TxnError::Aborted`] after 10 000 fruitless attempts
    /// (pathological starvation).
    pub fn run_txn<R>(
        &self,
        body: impl Fn(&Self, TxnId) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        const MAX_ATTEMPTS: u32 = 10_000;
        for attempt in 0..MAX_ATTEMPTS {
            let t = self.inner.lock().tbegin();
            match body(self, t) {
                Ok(value) => {
                    let commit = self.commit(t);
                    match commit {
                        Ok(()) => return Ok(value),
                        Err(TxnError::WouldBlock { .. }) | Err(TxnError::NotActive(_)) => {
                            self.backoff(t, attempt);
                        }
                        Err(e) => {
                            let _ = self.inner.lock().tabort(t);
                            return Err(e);
                        }
                    }
                }
                Err(TxnError::WouldBlock { .. })
                | Err(TxnError::Aborted(_))
                | Err(TxnError::NotActive(_)) => {
                    // NotActive: a timeout abort from another thread's tick
                    // already killed us — just retry.
                    self.backoff(t, attempt);
                }
                Err(e) => {
                    let _ = self.inner.lock().tabort(t);
                    return Err(e);
                }
            }
        }
        Err(TxnError::Aborted(TxnId(0)))
    }

    /// Commits transaction `t` through the group-commit pipeline.
    ///
    /// Concurrent committers share log forces: whichever thread finds
    /// the pipeline idle becomes the leader and commits everyone queued
    /// behind it with a single force; the rest park on a condvar until
    /// their outcome is published.
    ///
    /// # Errors
    ///
    /// Whatever the underlying commit reports for `t` — conflicts
    /// ([`TxnError::WouldBlock`]), timeouts, I/O failures. Each queued
    /// transaction gets its own verdict; one aborting does not poison
    /// its batch-mates.
    pub fn commit(&self, t: TxnId) -> Result<(), TxnError> {
        {
            let mut st = self.pipeline.state();
            st.queue.push(t);
            if st.leader_active {
                // Follower: the leader will service us and publish.
                loop {
                    if let Some(res) = st.outcomes.remove(&t) {
                        return res;
                    }
                    st = self.pipeline.cv.wait(st).unwrap_or_else(|p| p.into_inner());
                }
            }
            st.leader_active = true;
        }
        self.lead_commits();
        self.pipeline
            .state()
            .outcomes
            .remove(&t)
            .expect("leader drained the queue, so its own outcome is published")
    }

    /// Leader loop: drain the queue, commit the batch with one log
    /// flush, publish outcomes, repeat until the queue stays empty.
    fn lead_commits(&self) {
        loop {
            // Give concurrently-arriving committers a scheduling slice to
            // pile into the queue before we seal the batch.
            std::thread::yield_now();
            let batch: Vec<TxnId> = {
                let mut st = self.pipeline.state();
                if st.queue.is_empty() {
                    st.leader_active = false;
                    self.pipeline.cv.notify_all();
                    return;
                }
                std::mem::take(&mut st.queue)
            };
            let reqs: Vec<CommitReq<'_>> = batch.iter().map(|&t| CommitReq::Local(t)).collect();
            let results = self.inner.lock().commit_batch(&reqs);
            let mut st = self.pipeline.state();
            st.outcomes.extend(batch.into_iter().zip(results));
            self.pipeline.cv.notify_all();
        }
    }

    /// Abandons attempt `t`, nudges virtual time forward so a genuinely
    /// stuck holder's lease eventually expires, drives the timeouts and
    /// gives other threads real time to make progress. The nudge is a
    /// small fraction of LT: healthy holders finish many scheduling
    /// slices before their lease can be broken, while a deadlocked pair
    /// is still collapsed within ~50 backoffs.
    fn backoff(&self, t: TxnId, attempt: u32) {
        let mut ts = self.inner.lock();
        if ts.active_transactions().contains(&t) {
            let _ = ts.tabort(t);
        }
        let lt = ts.config().lt_us;
        let clock = ts.file_service_mut().clock();
        clock.advance(lt / 50 + 1);
        let _ = ts.tick();
        drop(ts);
        // Truncated exponential backoff with deterministic per-transaction
        // jitter. A constant sleep lets contending threads retry in
        // lockstep and re-create the same conflict forever — on a
        // single-CPU host that livelocks a deadlock-heavy workload all the
        // way to the attempt cap. The transaction id is fresh each
        // attempt, so hashing it desynchronises the herd without needing
        // a randomness source.
        let base = 50u64 << attempt.min(6);
        let jitter = t.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let sleep_us = base + jitter % (base / 2 + 1);
        std::thread::sleep(std::time::Duration::from_micros(sleep_us));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{TxnConfig, TxnStats};
    use rhodos_file_service::{FileService, FileServiceConfig, LockLevel};
    use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};

    fn shared(level: LockLevel) -> (SharedTransactionService, rhodos_file_service::FileId) {
        let fs = FileService::single_disk(
            DiskGeometry::medium(),
            LatencyModel::instant(),
            SimClock::new(),
            FileServiceConfig::default(),
        )
        .unwrap();
        let ts = TransactionService::new(
            fs,
            TxnConfig {
                lt_us: 5_000,
                max_renewals: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let s = SharedTransactionService::new(ts);
        let fid = s.lock().tcreate(level).unwrap();
        s.run_txn(|s, t| {
            s.lock().topen(t, fid)?;
            s.lock().twrite(t, fid, 0, &0u64.to_le_bytes())
        })
        .unwrap();
        (s, fid)
    }

    #[test]
    fn threads_increment_without_lost_updates() {
        for level in [LockLevel::Record, LockLevel::Page, LockLevel::File] {
            let (s, fid) = shared(level);
            const THREADS: usize = 8;
            const PER_THREAD: u64 = 25;
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    let s = s.clone();
                    scope.spawn(move || {
                        for _ in 0..PER_THREAD {
                            s.run_txn(|s, t| {
                                s.lock().topen(t, fid)?;
                                let raw = s.lock().tread_for_update(t, fid, 0, 8)?;
                                let v = u64::from_le_bytes(raw.try_into().expect("8 bytes"));
                                s.lock().twrite(t, fid, 0, &(v + 1).to_le_bytes())
                            })
                            .expect("transaction eventually succeeds");
                        }
                    });
                }
            });
            let total = s
                .run_txn(|s, t| {
                    s.lock().topen(t, fid)?;
                    s.lock().tread(t, fid, 0, 8)
                })
                .unwrap();
            assert_eq!(
                u64::from_le_bytes(total.try_into().unwrap()),
                (THREADS as u64) * PER_THREAD,
                "{level:?}: lost updates under real threads"
            );
        }
    }

    #[test]
    fn interleaving_produces_and_survives_real_conflicts() {
        // Two-page swaps in opposite orders from many threads: a classic
        // deadlock recipe. The runner + timeouts must keep everyone live,
        // and at least some conflicts must actually occur (the lock is
        // per-operation, so transactions interleave).
        let (s, fid) = shared(LockLevel::Page);
        s.run_txn(|s, t| {
            s.lock().topen(t, fid)?;
            s.lock().twrite(t, fid, 0, &vec![0u8; 2 * 8192])
        })
        .unwrap();
        std::thread::scope(|scope| {
            for w in 0..12usize {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..20usize {
                        let (first, second) = if (w + i) % 2 == 0 {
                            (0u64, 1u64)
                        } else {
                            (1, 0)
                        };
                        s.run_txn(|s, t| {
                            s.lock().topen(t, fid)?;
                            s.lock().twrite(t, fid, first * 8192, &[w as u8; 8])?;
                            // Hold the first page across a scheduling point
                            // so other transactions interleave.
                            std::thread::yield_now();
                            s.lock().twrite(t, fid, second * 8192, &[w as u8; 8])
                        })
                        .expect("stays live under deadlock pressure");
                    }
                });
            }
        });
        let stats = s.lock().stats();
        assert_eq!(stats.begun - 2, stats.committed - 2 + stats.aborted);
        assert!(
            stats.would_blocks > 0,
            "per-operation locking must produce real interleaving conflicts"
        );
    }

    /// Disjoint workload (one file per thread) so every commit succeeds
    /// first try; returns the service for stats inspection.
    fn disjoint_commits(threads: usize, per_thread: u64) -> TxnStats {
        let fs = FileService::single_disk(
            DiskGeometry::medium(),
            LatencyModel::instant(),
            SimClock::new(),
            FileServiceConfig::default(),
        )
        .unwrap();
        let config = TxnConfig {
            lt_us: 5_000,
            max_renewals: 0,
            ..Default::default()
        };
        let s = SharedTransactionService::new(TransactionService::new(fs, config).unwrap());
        let fids: Vec<_> = (0..threads)
            .map(|_| s.lock().tcreate(LockLevel::Page).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for fid in fids.clone() {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        s.run_txn(|s, t| {
                            s.lock().topen(t, fid)?;
                            s.lock().twrite(t, fid, 0, &i.to_le_bytes())
                        })
                        .expect("disjoint transactions commit");
                    }
                });
            }
        });
        for (w, fid) in fids.iter().enumerate() {
            let raw = s
                .run_txn(|s, t| {
                    s.lock().topen(t, *fid)?;
                    s.lock().tread(t, *fid, 0, 8)
                })
                .unwrap();
            assert_eq!(
                u64::from_le_bytes(raw.try_into().unwrap()),
                per_thread - 1,
                "thread {w} lost its final write"
            );
        }
        let guard = s.lock();
        guard.stats()
    }

    #[test]
    fn group_commit_amortises_log_flushes() {
        let stats = disjoint_commits(8, 25);
        assert!(stats.committed >= 8 * 25);
        assert!(
            stats.log_flushes < stats.committed,
            "leader must batch: {} flushes for {} commits",
            stats.log_flushes,
            stats.committed
        );
        assert!(stats.group_commits > 0, "no flush ever covered a batch");
        assert!(stats.records_per_flush_hwm >= 2);
    }

    #[test]
    fn group_commit_under_conflicts_stays_correct() {
        // Same contended counter as threads_increment_without_lost_updates,
        // but run through the pipeline's leader/follower path with aborts
        // and retries mixed into the batches.
        let (s, fid) = shared(LockLevel::Page);
        const THREADS: usize = 6;
        const PER_THREAD: u64 = 15;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..PER_THREAD {
                        s.run_txn(|s, t| {
                            s.lock().topen(t, fid)?;
                            let raw = s.lock().tread_for_update(t, fid, 0, 8)?;
                            let v = u64::from_le_bytes(raw.try_into().expect("8 bytes"));
                            s.lock().twrite(t, fid, 0, &(v + 1).to_le_bytes())
                        })
                        .expect("transaction eventually succeeds");
                    }
                });
            }
        });
        let total = s
            .run_txn(|s, t| {
                s.lock().topen(t, fid)?;
                s.lock().tread(t, fid, 0, 8)
            })
            .unwrap();
        assert_eq!(
            u64::from_le_bytes(total.try_into().unwrap()),
            (THREADS as u64) * PER_THREAD
        );
        let stats = s.lock().stats();
        assert_eq!(stats.begun, stats.committed + stats.aborted);
    }

    #[test]
    fn handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedTransactionService>();
    }

    #[test]
    fn non_conflict_errors_propagate() {
        let (s, _) = shared(LockLevel::Page);
        let missing = rhodos_file_service::FileId(999);
        let err = s.run_txn(|s, t| s.lock().topen(t, missing)).unwrap_err();
        assert!(matches!(err, TxnError::File(_)), "{err}");
    }

    #[test]
    fn fast_path_serves_cached_reads_and_matches_classic() {
        let (s, fid) = shared(LockLevel::Page);
        assert!(s.fast_path_enabled(), "default config shards both layers");
        // Write two pages of known data, committed.
        s.run_txn(|s, t| {
            s.lock().topen(t, fid)?;
            s.lock().twrite(t, fid, 0, &vec![7u8; 8192])?;
            s.lock().twrite(t, fid, 8192, &vec![9u8; 4096])
        })
        .unwrap();
        // A classic read warms the pool (shadow-page commits invalidate
        // the written blocks); the fast read then serves from it.
        let (via_fast, via_classic) = s
            .run_txn(|s, t| {
                s.lock().topen(t, fid)?;
                let classic = s.lock().tread(t, fid, 4096, 8192)?;
                let fast = s.tread_shared(t, fid, 4096, 8192)?;
                Ok((fast, classic))
            })
            .unwrap();
        assert_eq!(via_fast, via_classic);
        assert_eq!(&via_fast[..4096], &[7u8; 4096][..]);
        assert_eq!(&via_fast[4096..], &[9u8; 4096][..]);
        let fp = s.fast_stats();
        assert_eq!(fp.full_hits, 1, "{fp:?}");
        assert_eq!(fp.conflicts, 0);
    }

    #[test]
    fn fast_path_falls_back_on_own_tentative_writes() {
        let (s, fid) = shared(LockLevel::Page);
        s.run_txn(|s, t| {
            s.lock().topen(t, fid)?;
            s.lock().twrite(t, fid, 0, &[1u8; 16])?;
            // Uncommitted write ⇒ the fast path must overlay via the
            // classic path and still see the tentative bytes.
            let read = s.tread_shared(t, fid, 0, 16)?;
            assert_eq!(read, [1u8; 16]);
            Ok(())
        })
        .unwrap();
        let fp = s.fast_stats();
        assert!(fp.fallbacks >= 1, "{fp:?}");
    }

    #[test]
    fn fast_path_disabled_in_ablation_config() {
        let fs = FileService::single_disk(
            DiskGeometry::medium(),
            LatencyModel::instant(),
            SimClock::new(),
            FileServiceConfig {
                cache_shards: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let ts = TransactionService::new(
            fs,
            TxnConfig {
                lock_shards: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let s = SharedTransactionService::new(ts);
        assert!(!s.fast_path_enabled());
        let fid = s.lock().tcreate(LockLevel::Page).unwrap();
        s.run_txn(|s, t| {
            s.lock().topen(t, fid)?;
            s.lock().twrite(t, fid, 0, &[5u8; 8])
        })
        .unwrap();
        // tread_shared still works — it *is* the classic path here.
        let read = s
            .run_txn(|s, t| {
                s.lock().topen(t, fid)?;
                s.tread_shared(t, fid, 0, 8)
            })
            .unwrap();
        assert_eq!(read, [5u8; 8]);
        assert_eq!(s.fast_stats(), FastPathStats::default());
    }

    #[test]
    fn fast_reads_are_untorn_under_concurrent_writers() {
        // Writers rewrite a whole 8 KiB page with a uniform byte through
        // committed transactions while readers pull it through the fast
        // path. Every successful read must be a uniform page — a torn
        // read (mix of two writers' bytes) means the RO shard lock failed
        // to exclude a committing Iwrite.
        let (s, fid) = shared(LockLevel::Page);
        s.run_txn(|s, t| {
            s.lock().topen(t, fid)?;
            s.lock().twrite(t, fid, 0, &vec![0u8; 8192])
        })
        .unwrap();
        std::thread::scope(|scope| {
            for w in 1..=4u8 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..15 {
                        s.run_txn(|s, t| {
                            s.lock().topen(t, fid)?;
                            s.lock().twrite(t, fid, 0, &vec![w; 8192])
                        })
                        .expect("writer stays live");
                    }
                });
            }
            for _ in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..40 {
                        let page = s
                            .run_txn(|s, t| {
                                s.lock().topen(t, fid)?;
                                s.tread_shared(t, fid, 0, 8192)
                            })
                            .expect("reader stays live");
                        assert_eq!(page.len(), 8192);
                        let first = page[0];
                        assert!(
                            page.iter().all(|b| *b == first),
                            "torn fast read: page mixes {first} with other bytes"
                        );
                    }
                });
            }
        });
        let stats = s.lock().stats();
        assert_eq!(stats.begun, stats.committed + stats.aborted);
    }
}
