//! Crash recovery of the transaction service (§6.6–6.7): the file
//! service is mounted first (directory, FITs, allocation), then every
//! other part of the service is built afresh — lock tables, the
//! intention log attached to the platter, the transaction counter from
//! the log — and the log is redone.
//!
//! A commit is durable once its `Commit` record is, and a `Completed`
//! marker says its intentions were applied: whole pages made permanent
//! (WAL or shadow swing, §6.7) and records written into the block pool —
//! which takes them home lazily, by write-back or at a checkpoint. So the
//! log, read in order, decides what each commit needs:
//!
//! - **No marker:** the apply may not have run. Redone whole through the
//!   one applier, which appends the marker.
//! - **Marker before the last `Checkpoint`:** home. Nothing to do.
//! - **Marker after it:** its pages are permanent — their tentative
//!   blocks may already be reused, so they are never redone — but its
//!   records may not have left the pool: they are redone, and the marker
//!   is not appended again.
//! - **A `Prepared` vote with no marker:** in doubt. Its tentative blocks
//!   are re-pinned and its locks re-taken until the decision arrives.
//!
//! Redo runs in log order, not in `TxnId` order: two clients can commit
//! to one block in the opposite order to their `tbegin`s. And a record is
//! not redone over a later completed whole page of its block — the page,
//! which is not redone, is the newer version.

use crate::commit::PreparedCommit;
use crate::error::TxnError;
use crate::intentions::{Intention, LogRecord};
use crate::lock::LockMode;
use crate::log::IntentionLog;
use crate::service::{lock_tables, table_index, TransactionService, TxnId, TxnStats};
use rhodos_disk_service::{Extent, BLOCK_SIZE, FRAGS_PER_BLOCK};
use rhodos_file_service::FileId;
use std::collections::HashMap;

const BLOCK: u64 = BLOCK_SIZE as u64;

/// A `Commit` or `Prepared` record of the log and what became of it.
struct Logged {
    /// The coordinator's id, for a `Prepared` vote.
    gtid: Option<u64>,
    commit: PreparedCommit,
    /// Where in the log its marker is, and whether it is `Completed`
    /// (else `Aborted`).
    marker: Option<(usize, bool)>,
}

impl TransactionService {
    /// Crash-recovers the whole stack: the file service is mounted in
    /// place, everything else but the configuration is rebuilt from the
    /// platter, and the log is redone, as the module documentation says —
    /// unfinished transactions simply never happened (their tentative
    /// blocks are reclaimed by the allocation rebuild). Returns the
    /// commits that had not completed, in log order; the records of
    /// completed ones that no checkpoint took home are redone too.
    ///
    /// # Errors
    ///
    /// Fails if the log itself is unrecoverable.
    pub fn recover(&mut self) -> Result<Vec<TxnId>, TxnError> {
        self.fs.recover()?;
        let mut stats = TxnStats::default();
        let (log, records) = IntentionLog::open(&mut self.fs, &mut stats)?;
        // Every field but the file service and the configuration starts
        // over; transaction ids go on from the mount's epoch, past every
        // one in the log.
        let (tables, next) = (lock_tables(self.config()), self.fs.lease_manager().epoch());
        (self.tables, self.next_txn, self.log, self.stats) = (tables, next << 32 | 1, log, stats);
        (self.active, self.prepared) = Default::default();
        let mut logged: Vec<Logged> = Vec::new();
        let mut at: HashMap<TxnId, usize> = HashMap::new();
        let mut checkpoint = None;
        for (pos, rec) in records.into_iter().enumerate() {
            let (gtid, txn, intentions, sizes) = match rec {
                LogRecord::Commit {
                    txn,
                    intentions,
                    sizes,
                } => (None, txn, intentions, sizes),
                LogRecord::Prepared {
                    gtid,
                    txn,
                    intentions,
                    sizes,
                } => (Some(gtid), txn, intentions, sizes),
                LogRecord::Completed { txn } | LogRecord::Aborted { txn } => {
                    let completed = matches!(rec, LogRecord::Completed { .. });
                    if let Some(&i) = at.get(&txn) {
                        logged[i].marker = Some((pos, completed));
                    }
                    continue;
                }
                LogRecord::Checkpoint => {
                    checkpoint = Some(pos);
                    continue;
                }
                LogRecord::Mounted { .. } => continue,
            };
            self.next_txn = self.next_txn.max(txn.0 + 1);
            at.insert(txn, logged.len());
            let commit = PreparedCommit {
                txn,
                intentions,
                sizes,
                has_effects: true,
                to_delete: Vec::new(),
            };
            let marker = None;
            logged.push(Logged {
                gtid,
                commit,
                marker,
            });
        }

        // The last completed whole page of each block, by log position.
        let mut last_page: HashMap<(FileId, u64), usize> = HashMap::new();
        for (i, e) in logged.iter().enumerate() {
            for intent in e.commit.intentions.iter() {
                if let (Intention::Page { fid, index, .. }, Some((_, true))) = (intent, e.marker) {
                    last_page.insert((*fid, *index), i);
                }
            }
        }
        let superseded = |i: usize, intent: &Intention| match intent {
            Intention::Record { fid, offset, data } => {
                let blocks = offset / BLOCK..=(offset + data.len().max(1) as u64 - 1) / BLOCK;
                blocks
                    .into_iter()
                    .any(|b| last_page.get(&(*fid, b)) > Some(&i))
            }
            Intention::Page { .. } => false,
        };

        let mut redo: Vec<PreparedCommit> = Vec::new();
        let mut in_doubt: Vec<(u64, PreparedCommit)> = Vec::new();
        for (
            i,
            Logged {
                gtid,
                mut commit,
                marker,
            },
        ) in logged.into_iter().enumerate()
        {
            match (marker, gtid) {
                (None, Some(gtid)) => in_doubt.push((gtid, commit)),
                (None, None) => {
                    commit.intentions.retain(|x| !superseded(i, x));
                    redo.push(commit);
                }
                // Completed after the last checkpoint: only its records,
                // and no second marker — it has nothing left to mark.
                (Some((done, true)), _) if checkpoint < Some(done) => {
                    let record = |x: &Intention| matches!(x, Intention::Record { .. });
                    commit.intentions.retain(|x| record(x) && !superseded(i, x));
                    commit.sizes.clear();
                    commit.has_effects = false;
                    redo.push(commit);
                }
                // Home, or aborted.
                (Some(_), _) => {}
            }
        }

        // The allocation rebuild of the mount freed every block no
        // FIT references — among them the tentative blocks of the commits
        // about to be redone and of the votes in doubt. Re-pin them all
        // before any redo allocates.
        for p in redo.iter().chain(in_doubt.iter().map(|(_, p)| p)) {
            self.repin_tentative_blocks(&p.intentions);
        }
        let mut redone = Vec::new();
        for p in &redo {
            self.apply_committed(p)?;
            if p.has_effects {
                redone.push(p.txn);
            }
        }
        // The in-doubt votes' locks died with the old tables: re-take them, so
        // the isolation the vote promised holds until the decision
        // arrives.
        for (gtid, p) in in_doubt {
            self.reacquire_locks(p.txn, &p.intentions)?;
            self.prepared.insert(gtid, p);
        }
        // One force covers every redo's `Completed` marker (and leaves
        // nothing deferred from before the crash).
        self.log.force(&mut self.fs, &mut self.stats)?;
        Ok(redone)
    }

    /// Re-establishes the locks an in-doubt prepared participant held
    /// before the crash: the items covering each intention's bytes at
    /// the granularity its file is configured for — so a partial page
    /// logged as a record locks its page, not its file. In-doubt
    /// transactions never conflict with each other (their grants predate
    /// the crash), so grant outcomes are not checked.
    fn reacquire_locks(&mut self, t: TxnId, intentions: &[Intention]) -> Result<(), TxnError> {
        let now = self.fs.clock().now_us();
        for i in intentions {
            let fid = i.file();
            if !self.fs.exists(fid) {
                continue;
            }
            let (offset, len) = match i {
                Intention::Page { index, .. } => (index * BLOCK, BLOCK),
                Intention::Record { offset, data, .. } => (*offset, data.len() as u64),
            };
            let (level, items) = self.items_for_range(fid, offset, len)?;
            for item in items {
                self.tables[table_index(level)].set_lock(t.0, t.0, item, LockMode::Iwrite, now);
            }
        }
        Ok(())
    }

    /// After the allocation rebuild, tentative blocks named by redo
    /// records are unallocated; reserve them again so redo can free or
    /// adopt them safely.
    fn repin_tentative_blocks(&mut self, intentions: &[Intention]) {
        for i in intentions {
            if let Intention::Page {
                tentative_disk,
                tentative_addr,
                ..
            } = i
            {
                // The extent may already be allocated if another FIT
                // adopted it; only pin when free.
                let extent = Extent::new(*tentative_addr, FRAGS_PER_BLOCK);
                self.fs
                    .disk_mut(*tentative_disk as usize)
                    .repin_extent(extent);
            }
        }
    }
}
