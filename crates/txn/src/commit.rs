//! The commit sequence (§6.6): `commit_batch` and its steps, the 2PC
//! participant's vote and resolve, and the checkpoint.
//!
//! This module owns one decision — *when* a transaction's effects become
//! durable and when the log may forget them. Every commit, whether `tend`,
//! a group-commit batch or a participant's prepare, appends its record
//! unforced, rides one force of the log, and only then is applied; a
//! checkpoint writes the pool back before the log is reset or marked. How
//! a committed list is applied is the applier's (`apply.rs`); where the
//! log lives and how its frames look is the log's (`log.rs`).

use crate::error::TxnError;
use crate::intentions::Intention;
use crate::service::{TransactionService, TxnId};
use rhodos_file_service::FileId;

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
        /// The transaction's writes on this server, in order; the bytes
        /// are borrowed from the request that carried them.
        writes: &'a [(FileId, u64, &'a [u8])],
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
/// the changes are not yet permanent. In group commit, whoever holds the
/// service lock collects many of these, makes them all durable with one
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

impl TransactionService {
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
        writes: &[(FileId, u64, &[u8])],
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
    /// since the previous force durable with one write-through of the
    /// log's changed sectors — from the one the durable tail is in to the
    /// one the new tail is in — the group-commit durability point. No
    /// I/O when nothing is pending.
    ///
    /// # Errors
    ///
    /// File-service failures.
    pub fn flush_log(&mut self) -> Result<(), TxnError> {
        if self.log.writes_mount_frame() {
            // The mount's frame leaves only under an epoch no later mount
            // reuses (see `log.rs`).
            self.fs.lease_manager_mut().claim_epoch();
            self.fs.record_leases()?;
        }
        self.log.force(&mut self.fs, &mut self.stats)
    }

    /// Makes everything the service still holds in memory durable — the
    /// pool's dirty blocks, committed records and plain delayed writes
    /// alike, and the log's unforced markers (`Completed`, `Aborted`) — by
    /// a checkpoint, which compacts the log when nothing is active or in
    /// doubt. A server that crashes after this redoes nothing, so no
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

    /// Step 4 of [`Self::commit_batch`], quiescent housekeeping: when
    /// nothing is active, everything in the log has completed, so reclaim
    /// it by a checkpoint once it outgrows its threshold. Returns whether
    /// a compaction ran.
    ///
    /// # Errors
    ///
    /// File-service failures rewriting the log's header.
    pub fn maybe_compact_log(&mut self) -> Result<bool, TxnError> {
        if self.active.is_empty() && self.prepared.is_empty() && self.log.wants_compaction() {
            self.checkpoint()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Log bytes made durable so far (monotonic across compactions).
    pub fn durable_lsn(&self) -> u64 {
        self.log.durable_lsn()
    }

    /// Bytes in the log since its last compaction (its tail offset).
    pub fn log_len(&self) -> u64 {
        self.log.tail()
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
        if self.has_children(t) {
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

    // ---- cross-shard 2PC participant ------------------------------------

    /// Whether `t` is the local half of an in-doubt cross-shard
    /// transaction (a durable `Prepared` vote awaiting its decision).
    pub(crate) fn in_doubt(&self, t: TxnId) -> bool {
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
        if self.has_children(t) || self.txn(t)?.parent.is_some() {
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
    /// [`Self::recover`] rebuilt the in-doubt entry from the log. The
    /// coordinator's own delivery and its recovery sweep send the same
    /// decision the same way; `commit == false` with no decision record
    /// behind it is a presumed abort.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::setup;
    use crate::service::TxnConfig;
    use rhodos_disk_service::BLOCK_SIZE;
    use rhodos_file_service::LockLevel;

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
        ts.sync().unwrap();
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
        assert!(ts.resolve_prepared(42, false).unwrap());
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
