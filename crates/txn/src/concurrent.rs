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
//! Commits go through a group-commit pipeline whose only hand-off is the
//! service lock: whoever holds it commits everyone queued. Reads may go
//! through [`tread_shared`]: its locks are taken by the service's one lock
//! step, under the service lock like every other lock, and only the copy
//! out of the sharded block pool runs without it. This module takes no
//! lock of its own on a data item.
//!
//! [`run_txn`]: SharedTransactionService::run_txn
//! [`tread_shared`]: SharedTransactionService::tread_shared

use crate::commit::CommitReq;
use crate::error::TxnError;
use crate::service::{TransactionService, TxnId};
use parking_lot::Mutex;
use rhodos_disk_service::BLOCK_SIZE;
use rhodos_file_service::{FileId, ShardedBlockCache};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The group-commit pipeline (§6.6: "several intention lists may be
/// written to the log in a single disk operation"), combined flat
/// (Hendler et al., SPAA 2010): there is no leader. A committer queues its
/// transaction and takes the service lock; whoever holds that lock drains
/// the queue, hands the batch to [`TransactionService::commit_batch`]
/// (every intentions list appended, the log forced **once**, every commit
/// applied) and publishes each batch-mate's outcome. Whoever queued while
/// the lock was held is committed by the next holder.
///
/// Invariant: a batch's outcomes are published before the service lock
/// that committed them is released, so a committer that gets the lock
/// finds its transaction either published or still queued.
#[derive(Debug, Default)]
struct CommitPipeline {
    /// Commits waiting for the next holder of the service lock.
    queue: Vec<TxnId>,
    /// The last drained batch, emptied: the next holder swaps it in for
    /// the queue, so neither `Vec` is allocated again.
    spare: Vec<TxnId>,
    /// Outcomes published by an earlier holder, keyed by transaction.
    outcomes: HashMap<TxnId, Result<(), TxnError>>,
}

/// Counters of the shared-service read fast path (see
/// [`SharedTransactionService::tread_shared`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Reads whose bytes were copied from the sharded block pool without
    /// the whole-service lock.
    pub full_hits: u64,
    /// Reads that fell back to the classic service-locked path: the
    /// family had tentative state of the file, or a block was not
    /// resident.
    pub fallbacks: u64,
    /// Reads rejected with `WouldBlock` by a lock conflict. Each is also
    /// counted in `TxnStats::would_blocks`, as every conflict is.
    pub conflicts: u64,
}

#[derive(Debug, Default)]
struct FastPathCounters {
    full_hits: AtomicU64,
    fallbacks: AtomicU64,
    conflicts: AtomicU64,
}

/// The half of the read path that runs without the service lock: a
/// handle to the sharded block pool, valid for the service's lifetime
/// (reset in place on recovery, never replaced).
#[derive(Debug)]
struct FastPath {
    cache: Arc<ShardedBlockCache>,
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
            cache,
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
    pipeline: Arc<Mutex<CommitPipeline>>,
    /// The read fast path; `None` when the ablation configuration
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
            pipeline: Arc::default(),
            fast,
        }
    }

    /// Locks the underlying service for one operation (or for
    /// non-transactional administration: `tcreate`, statistics, recovery).
    /// Do **not** hold the guard across blocking work.
    pub fn lock(&self) -> parking_lot::MutexGuard<'_, TransactionService> {
        self.inner.lock()
    }

    /// Whether the read fast path is active (at least one layer
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

    /// `tread` that copies its bytes without the service lock. Under the
    /// lock, once, it takes its read-only locks through the same step as
    /// [`TransactionService::tread`]
    /// ([`TransactionService::lock_committed_read`]); then it drops the
    /// lock and copies from the sharded block pool, so concurrent readers
    /// of resident blocks share the service lock only for the lock step
    /// (E20). A read that needs the transaction's tentative overlay runs
    /// the classic `tread` under that same lock; a block that is not
    /// resident sends the read there too. With the fast path disabled this
    /// *is* the classic path.
    ///
    /// Coherence: a committed overlapping write needs an `Iwrite` that the
    /// read-only locks held here exclude (a file is locked at one level,
    /// so one table holds every lock on it, §6.1); tentative (uncommitted)
    /// data never enters the block pool; and the pool is invalidated
    /// under `Iwrite` cover (delete, descriptor replacement) or with the
    /// file closed.
    ///
    /// # Errors
    ///
    /// As [`TransactionService::tread`]. A lock conflict is
    /// [`TxnError::WouldBlock`], counted in [`FastPathStats::conflicts`]
    /// and in `TxnStats::would_blocks`; the queued waiter record is
    /// cleaned up by the retry loop's abort, as any queued request is.
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
        let len = {
            let mut svc = self.inner.lock();
            match svc.lock_committed_read(t, fid, offset, len) {
                Ok(Some(len)) => len,
                Ok(None) => {
                    fast.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
                    return svc.tread(t, fid, offset, len);
                }
                Err(e) => {
                    if matches!(e, TxnError::WouldBlock { .. }) {
                        fast.counters.conflicts.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(e);
                }
            }
        };
        if len == 0 {
            return Ok(Vec::new());
        }
        // A block that is not resident sends the read to the classic path
        // (re-acquiring the same locks is idempotent), which fetches it —
        // and is the one lookup that counts its miss.
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
    /// Concurrent committers share log forces: `t` is queued, then the
    /// service lock is taken; if an earlier holder already committed `t`
    /// its outcome is returned, otherwise this thread commits everyone
    /// queued with a single force and publishes their outcomes before it
    /// releases the lock.
    ///
    /// # Errors
    ///
    /// Whatever the underlying commit reports for `t` — conflicts
    /// ([`TxnError::WouldBlock`]), timeouts, I/O failures. Each queued
    /// transaction gets its own verdict; one aborting does not poison
    /// its batch-mates. [`TxnError::CommitLost`] when a holder took `t`
    /// off the queue and panicked before publishing its outcome.
    pub fn commit(&self, t: TxnId) -> Result<(), TxnError> {
        self.pipeline.lock().queue.push(t);
        let mut svc = self.inner.lock();
        let mut batch = {
            let mut pipe = self.pipeline.lock();
            if let Some(res) = pipe.outcomes.remove(&t) {
                return res;
            }
            if !pipe.queue.contains(&t) {
                return Err(TxnError::CommitLost(t));
            }
            let spare = std::mem::take(&mut pipe.spare);
            std::mem::replace(&mut pipe.queue, spare)
        };
        let reqs: Vec<CommitReq<'_>> = batch.iter().map(|&id| CommitReq::Local(id)).collect();
        let results = svc.commit_batch(&reqs);
        let mut pipe = self.pipeline.lock();
        let mut own = Err(TxnError::CommitLost(t));
        for (&id, res) in batch.iter().zip(results) {
            if id == t {
                own = res;
            } else {
                pipe.outcomes.insert(id, res);
            }
        }
        batch.clear();
        pipe.spare = batch;
        // `pipe` drops before `svc`: the outcomes are out before the lock.
        own
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
            "the lock holder must batch: {} flushes for {} commits",
            stats.log_flushes,
            stats.committed
        );
        assert!(stats.group_commits > 0, "no flush ever covered a batch");
        assert!(stats.records_per_flush_hwm >= 2);
    }

    type Verdicts = Vec<(FileId, Result<(), TxnError>)>;

    /// Four transactions, each with a tentative write to a file of its
    /// own, committed from four threads while this thread holds the
    /// service lock until all four are queued; returns each commit's
    /// verdict and the service statistics before and after.
    fn commit_four_queued(
        abort_one: bool,
    ) -> (SharedTransactionService, Verdicts, TxnStats, TxnStats) {
        let (s, _) = shared(LockLevel::Page);
        let mut pending = Vec::new();
        for i in 0..4u64 {
            let mut svc = s.lock();
            let fid = svc.tcreate(LockLevel::Page).unwrap();
            let t = svc.tbegin();
            svc.topen(t, fid).unwrap();
            svc.twrite(t, fid, 0, &(100 + i).to_le_bytes()).unwrap();
            if abort_one && i == 2 {
                svc.tabort(t).unwrap();
            }
            pending.push((fid, t));
        }
        let before = s.lock().stats();
        let verdicts = std::thread::scope(|scope| {
            let held = s.lock();
            let committers: Vec<_> = pending
                .iter()
                .map(|&(_, t)| {
                    let s = &s;
                    scope.spawn(move || s.commit(t))
                })
                .collect();
            while s.pipeline.lock().queue.len() < pending.len() {
                std::thread::yield_now();
            }
            drop(held);
            committers
                .into_iter()
                .map(|c| c.join().expect("committer does not panic"))
                .collect::<Vec<_>>()
        });
        let after = s.lock().stats();
        let fids = pending.iter().map(|&(fid, _)| fid);
        (s, fids.zip(verdicts).collect(), before, after)
    }

    fn read_u64(s: &SharedTransactionService, fid: FileId) -> u64 {
        let raw = s
            .run_txn(|s, t| {
                s.lock().topen(t, fid)?;
                s.lock().tread(t, fid, 0, 8)
            })
            .unwrap();
        u64::from_le_bytes(raw.try_into().unwrap())
    }

    #[test]
    fn the_lock_holder_commits_everyone_queued_with_one_force() {
        let (s, verdicts, before, after) = commit_four_queued(false);
        assert_eq!(after.log_flushes, before.log_flushes + 1);
        assert_eq!(after.group_commits, before.group_commits + 1);
        assert_eq!(after.committed, before.committed + 4);
        for (i, (fid, verdict)) in verdicts.into_iter().enumerate() {
            assert_eq!(verdict, Ok(()));
            assert_eq!(read_u64(&s, fid), 100 + i as u64);
        }
        assert!(s.pipeline.lock().outcomes.is_empty());
    }

    #[test]
    fn a_failing_batch_mate_gets_its_own_verdict() {
        let (s, verdicts, before, after) = commit_four_queued(true);
        assert_eq!(after.log_flushes, before.log_flushes + 1);
        assert_eq!(after.group_commits, before.group_commits + 1);
        assert_eq!(after.committed, before.committed + 3);
        for (i, (fid, verdict)) in verdicts.into_iter().enumerate() {
            if i == 2 {
                assert!(
                    matches!(verdict, Err(TxnError::NotActive(_))),
                    "{verdict:?}"
                );
                let read = s.run_txn(|s, t| {
                    s.lock().topen(t, fid)?;
                    s.lock().tread(t, fid, 0, 8)
                });
                assert_eq!(
                    read,
                    Ok(Vec::new()),
                    "the aborted write left the file empty"
                );
            } else {
                assert_eq!(verdict, Ok(()));
                assert_eq!(read_u64(&s, fid), 100 + i as u64);
            }
        }
        assert!(s.pipeline.lock().outcomes.is_empty());
    }

    #[test]
    fn a_commit_a_panicking_holder_drained_is_lost_not_hung() {
        let (s, _) = shared(LockLevel::Page);
        let t = s.lock().tbegin();
        let locked = std::sync::Barrier::new(2);
        let verdict = std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _svc = s.lock();
                locked.wait();
                while !s.pipeline.lock().queue.contains(&t) {
                    std::thread::yield_now();
                }
                // A holder's drain, then a panic before it publishes.
                std::mem::take(&mut s.pipeline.lock().queue);
                panic!("holder dies inside its batch");
            });
            locked.wait();
            let committer = scope.spawn(|| s.commit(t));
            assert!(holder.join().is_err());
            committer.join().expect("committer does not panic")
        });
        assert_eq!(verdict, Err(TxnError::CommitLost(t)));
    }

    #[test]
    fn group_commit_under_conflicts_stays_correct() {
        // Same contended counter as threads_increment_without_lost_updates,
        // but run through the pipeline's queue with aborts
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
    fn a_fast_read_s_lock_holds_off_a_writer_until_its_transaction_ends() {
        let (s, fid) = shared(LockLevel::Page);
        let a = s.lock().tbegin();
        s.lock().topen(a, fid).unwrap();
        assert_eq!(s.tread_shared(a, fid, 0, 8).unwrap(), 0u64.to_le_bytes());
        assert_eq!(s.fast_stats().full_hits, 1, "{:?}", s.fast_stats());
        let b = s.lock().tbegin();
        s.lock().topen(b, fid).unwrap();
        let blocked = s.lock().stats().would_blocks;
        let write = s.lock().twrite(b, fid, 0, b"writer");
        assert!(
            matches!(write, Err(TxnError::WouldBlock { .. })),
            "{write:?}"
        );
        assert_eq!(s.lock().stats().would_blocks, blocked + 1);
        s.commit(a).unwrap();
        s.lock().twrite(b, fid, 0, b"writer").unwrap();
        s.commit(b).unwrap();
    }

    #[test]
    fn a_fast_read_of_a_page_another_transaction_is_writing_would_block() {
        let (s, fid) = shared(LockLevel::Page);
        // T1 holds an uncommitted page-level write of page 0.
        let t1 = s.lock().tbegin();
        s.lock().topen(t1, fid).unwrap();
        s.lock().twrite(t1, fid, 0, b"page-level hold").unwrap();
        let t2 = s.lock().tbegin();
        s.lock().topen(t2, fid).unwrap();
        let blocked = s.lock().stats().would_blocks;
        let read = s.tread_shared(t2, fid, 0, 4);
        assert!(matches!(read, Err(TxnError::WouldBlock { .. })), "{read:?}");
        let expected = FastPathStats {
            full_hits: 0,
            fallbacks: 0,
            conflicts: 1,
        };
        assert_eq!(s.fast_stats(), expected);
        assert_eq!(s.lock().stats().would_blocks, blocked + 1);
        s.lock().tabort(t1).unwrap();
        s.lock().tabort(t2).unwrap();
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
