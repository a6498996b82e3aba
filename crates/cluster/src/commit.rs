//! Cross-shard atomic commit: two-phase commit with presumed abort.
//!
//! The master doubles as the 2PC coordinator (ROADMAP item 4, closing
//! the loop the paper's §6 transaction service left open once files got
//! homes on different servers). Phase one ships each participant's
//! writes in a [`Request::TxnPrepare`] batch — the participant runs them
//! under a fresh local transaction, appends a durable `Prepared` record,
//! and votes only after one log force covers the whole batch. Phase two
//! is governed by the coordinator's [`DecisionLog`]: a *commit* is
//! decided by forcing a decision record; everything else is **presumed
//! abort** — no record, no commit, so the coordinator never logs aborts
//! and a torn decision record simply reads as "abort".
//!
//! There is one coordinator, [`Cluster::commit_batch`]: a wave of
//! transactions shares one prepare per shard and one decision force,
//! and a single commit ([`Cluster::commit_cross_shard`]) is a wave of
//! one. It is four public steps over a [`Wave`] — [`Cluster::wave`]
//! (homes, gtids, the epoch snapshot), [`Cluster::prepare_wave`],
//! [`Cluster::decide_wave`] and [`Cluster::deliver_wave`] — and the
//! coordinator consults no fault schedule: a test crashes a participant,
//! cuts a link or migrates a file *between* two steps, and crashes the
//! coordinator by dropping the wave. A participant is a shard's whole
//! replica set: its prepare is forced on every current member before its
//! vote counts ([`Cluster::prepare`]). Every shard gets its prepare, and
//! later its decides, in a lane of its own on the shared clock
//! ([`rhodos_simdisk::SimClock::lanes`]): a wave costs its slowest
//! shard, not the sum of its shards. Two robustness properties are
//! load-bearing here:
//!
//! * **Orphan resolution** — a prepared participant that loses its
//!   coordinator holds locks but never blocks forever:
//!   [`Cluster::recover_coordinator`] replays the decision log and
//!   sweeps every live server's in-doubt list
//!   ([`Request::TxnPreparedList`]), re-delivering the durable decision or
//!   the presumed abort.
//! * **Reconfigurable commit** (after Bravo's *Reconfigurable Atomic
//!   Transaction Commit*) — the coordinator snapshots the placement
//!   epoch before phase one and re-checks it before deciding; a file
//!   migrated or failed over mid-prepare aborts the attempt and
//!   re-targets the whole wave by the new placement, so every member
//!   still commits or aborts atomically across the reconfiguration.

use crate::master::{Cluster, ClusterError};
use rhodos_file_service::FileServiceError;
use rhodos_replication::wire::{
    self, decode_gtid_list, decode_resolved, encode_gtid_list, encode_resolved, encode_votes,
    PrepareTxn, Request,
};
use rhodos_txn::{CommitReq, TransactionService, TxnError};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// One write of a cross-shard transaction: `(gid, offset, data)` in
/// cluster ids (the coordinator resolves homes).
pub type CrossOp = (u64, u64, Vec<u8>);

/// Bound on placement-change re-targets per wave; each retry
/// re-resolves against the current epoch, so two is already enough for
/// any single migration striking mid-prepare.
const MAX_RETARGETS: usize = 4;

// ---- the coordinator's durable decision record -------------------------

/// Marker byte framing each decision record (commit-only: presumed
/// abort means aborts are never logged).
const DECISION_MAGIC: u8 = 0xD5;

/// The coordinator's decision log, with the same crash discipline as
/// the participants' intention logs: appends are cheap and volatile
/// until [`DecisionLog::force`], a crash discards the unforced tail,
/// and a *torn* crash leaves a half-written record that recovery must
/// read as absence (presumed abort).
#[derive(Debug, Default)]
pub(crate) struct DecisionLog {
    buf: Vec<u8>,
    durable: usize,
}

impl DecisionLog {
    /// Appends (unforced) the commit decision for `gtid`.
    pub fn append_commit(&mut self, gtid: u64) {
        self.buf.push(DECISION_MAGIC);
        self.buf.extend_from_slice(&gtid.to_le_bytes());
    }

    /// Forces everything appended so far. One force may cover a whole
    /// batch of decisions.
    pub fn force(&mut self) {
        self.durable = self.buf.len();
    }

    /// Simulated coordinator crash: the unforced tail vanishes.
    pub fn crash(&mut self) {
        self.buf.truncate(self.durable);
    }

    /// Replays the durable log: the set of global transaction ids with
    /// a complete commit record. A torn tail terminates the scan and is
    /// *discarded*, so post-recovery appends start on a record boundary
    /// instead of burying every later decision behind the garbage.
    pub fn recover(&mut self) -> BTreeSet<u64> {
        let mut out = BTreeSet::new();
        let mut i = 0;
        while i + 9 <= self.durable {
            let Some(&[DECISION_MAGIC, a, b, c, d, e, f, g, h]) = self.buf.get(i..i + 9) else {
                break;
            };
            out.insert(u64::from_le_bytes([a, b, c, d, e, f, g, h]));
            i += 9;
        }
        self.buf.truncate(i);
        self.durable = i;
        out
    }
}

/// How one cross-shard commit attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Decision durable and delivered: every participant applied.
    Committed,
    /// Voted or presumed abort: no participant kept any effect.
    Aborted,
}

// ---- the server side ---------------------------------------------------

/// The transaction-aware server loop: decodes a frame once, serves the
/// 2PC requests and lease acquisition against the server's
/// [`TransactionService`] — which applies a recalled delegation on a
/// transaction-service file as one transaction, as it does for an agent
/// in process — and hands every other one to the plain file service's
/// [`wire::dispatch`]: one endpoint, both protocols, same at-most-once
/// replay cache. A frame that does not decode is answered
/// [`FileServiceError::BadRequest`].
pub fn serve_txn(ts: &mut TransactionService, req: &[u8]) -> Vec<u8> {
    use Request::{LeaseAcquire, TxnDecide, TxnPrepare, TxnPreparedList};
    let result = Request::decode(req)
        .map_err(|_| FileServiceError::BadRequest)
        .and_then(|req| match req {
            TxnPrepare(batch) => Ok(serve_prepare(ts, &batch)),
            LeaseAcquire(client, fid, mode) => ts
                .lease_acquire(client, fid, mode)
                .map(|(grant, size)| wire::encode_granted(&grant, size))
                .map_err(file_failure),
            TxnDecide(gtid, commit) => ts
                .resolve_prepared(gtid, commit)
                .map(encode_resolved)
                .map_err(file_failure),
            TxnPreparedList => Ok(encode_gtid_list(&ts.prepared_gtids())),
            file_op => wire::dispatch(ts.file_service_mut(), file_op),
        });
    wire::encode_reply(result)
}

/// A transaction-service failure as the file-service failure a reply
/// carries. Every failure of a decide or a checkpoint is a file-service
/// one today; any other — a recalled delegation whose transaction failed
/// — is answered [`FileServiceError::BadRequest`]: the server cannot
/// carry the request out, and it is not panicked.
pub(crate) fn file_failure(e: TxnError) -> FileServiceError {
    match e {
        TxnError::File(e) => e,
        _ => FileServiceError::BadRequest,
    }
}

/// Phase one on the participant: the whole batch is one
/// [`TransactionService::commit_batch`] — each transaction runs under a
/// fresh local transaction (any failure — missing file, lock conflict —
/// is a *no* vote and an immediate local abort), then **one** log force
/// makes every surviving `Prepared` record durable before any vote is
/// reported, and a vote whose force failed is rolled back and reported
/// *no*. This is the group-commit amortisation applied to 2PC:
/// records-per-prepare-flush scales with the batch, not with 1.
fn serve_prepare(ts: &mut TransactionService, batch: &[PrepareTxn<'_>]) -> Vec<u8> {
    let reqs: Vec<CommitReq<'_>> = batch
        .iter()
        .map(|(gtid, writes)| CommitReq::Participant {
            gtid: *gtid,
            writes,
        })
        .collect();
    let votes: Vec<bool> = ts.commit_batch(&reqs).iter().map(Result::is_ok).collect();
    encode_votes(&votes)
}

// ---- the coordinator ---------------------------------------------------

/// One wave of cross-shard transactions between the coordinator's steps
/// ([`Cluster::wave`], [`Cluster::prepare_wave`], [`Cluster::decide_wave`],
/// [`Cluster::deliver_wave`]). Dropping it is the coordinator's crash:
/// what the participants and the decision log hold is all that is left,
/// and [`Cluster::recover_coordinator`] finishes it.
#[derive(Debug)]
pub struct Wave<'a, T> {
    txns: &'a [T],
    gtids: Range<u64>,
    /// The placement epoch the homes were resolved in.
    epoch: u64,
    /// Each shard's prepare batch, until [`Cluster::prepare_wave`] sends it.
    by_server: BTreeMap<usize, Vec<PrepareTxn<'a>>>,
    /// The (shard, gtid) votes a commit needs.
    participants: BTreeSet<(usize, u64)>,
    /// The (shard, gtid) yes votes the coordinator learned of.
    yes: BTreeSet<(usize, u64)>,
    /// The gtids whose commit record [`Cluster::decide_wave`] forced.
    committing: BTreeSet<u64>,
}

impl<T> Wave<'_, T> {
    /// Each transaction's fate as decided so far, in wave order: a
    /// commit once its record is forced, else the presumed abort.
    pub fn outcomes(&self) -> impl Iterator<Item = CommitOutcome> + '_ {
        self.gtids.clone().map(|gtid| {
            if self.committing.contains(&gtid) {
                CommitOutcome::Committed
            } else {
                CommitOutcome::Aborted
            }
        })
    }
}

impl Cluster {
    /// Atomically commits a multi-file transaction whose files may live
    /// on different data servers: a [`Self::commit_batch`] wave of one —
    /// full two-phase commit, even when every file happens to share a
    /// home (uniformity keeps the single-shard ablation byte-identical).
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownFile`] for an unmapped gid; transport and
    /// vote failures are *not* errors — they surface as
    /// [`CommitOutcome::Aborted`].
    pub fn commit_cross_shard(&mut self, ops: &[CrossOp]) -> Result<CommitOutcome, ClusterError> {
        Ok(self.commit_batch(&[ops])?[0])
    }

    /// The 2PC coordinator: commits a wave of cross-shard transactions
    /// with one prepare RPC (and thus one participant log force) per
    /// server for the whole wave, and one decision-log force for every
    /// commit decision. This is E24's amortisation lever — flushes per
    /// commit fall with the wave size exactly as E18's group commit does
    /// locally. It runs the four steps in order; a placement change
    /// during phase one aborts the attempt and re-targets the whole wave
    /// under fresh gtids. One outcome per transaction, in wave order.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownFile`] for an unmapped gid.
    pub fn commit_batch<T: AsRef<[CrossOp]>>(
        &mut self,
        txns: &[T],
    ) -> Result<Vec<CommitOutcome>, ClusterError> {
        for _ in 0..MAX_RETARGETS {
            let mut w = self.wave(txns)?;
            self.prepare_wave(&mut w);
            if self.decide_wave(&mut w) {
                return Ok(self.deliver_wave(w));
            }
        }
        self.stats.cross_aborts += txns.len() as u64;
        Ok(vec![CommitOutcome::Aborted; txns.len()])
    }

    /// Step one: resolves every op against the *current* placement,
    /// assigns the wave its gtids and snapshots the placement epoch. The
    /// snapshot can go stale the moment it is taken — that is what
    /// [`Self::decide_wave`]'s re-check is for.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownFile`] for an unmapped gid.
    pub fn wave<'a, T: AsRef<[CrossOp]>>(
        &mut self,
        txns: &'a [T],
    ) -> Result<Wave<'a, T>, ClusterError> {
        let epoch = self.epoch();
        let gtids = self.next_gtid..self.next_gtid + txns.len() as u64;
        self.next_gtid = gtids.end;
        let mut by_server: BTreeMap<usize, Vec<PrepareTxn<'a>>> = BTreeMap::new();
        let mut participants: BTreeSet<(usize, u64)> = BTreeSet::new();
        for (gtid, ops) in gtids.clone().zip(txns) {
            let mut per: BTreeMap<usize, Vec<_>> = BTreeMap::new();
            for (gid, offset, data) in ops.as_ref() {
                let p = self.resolve(*gid)?;
                per.entry(p.shard)
                    .or_default()
                    .push((p.local, *offset, data.as_slice()));
            }
            for (server, server_ops) in per {
                participants.insert((server, gtid));
                by_server
                    .entry(server)
                    .or_default()
                    .push((gtid, server_ops));
            }
        }
        Ok(Wave {
            txns,
            gtids,
            epoch,
            by_server,
            participants,
            yes: BTreeSet::new(),
            committing: BTreeSet::new(),
        })
    }

    /// Step two, phase one: one prepare RPC per shard, fanned out to its
    /// members, each shard in a lane of its own — the wave costs its
    /// slowest shard. Records the yes votes that arrive.
    pub fn prepare_wave<T>(&mut self, w: &mut Wave<'_, T>) {
        let mut lanes = self.clock.lanes();
        for (server, batch) in std::mem::take(&mut w.by_server) {
            lanes.lane(server, || {
                self.stats.prepare_rpcs += 1;
                let batch_gtids: Vec<u64> = batch.iter().map(|(gtid, _)| *gtid).collect();
                let votes = self.prepare(server, &Request::TxnPrepare(batch));
                let voted = batch_gtids.into_iter().zip(votes).filter(|(_, vote)| *vote);
                w.yes.extend(voted.map(|(gtid, _)| (server, gtid)));
            });
        }
        lanes.join();
    }

    /// Step three, the decision. First the reconfiguration check
    /// (Bravo): deciding commit against a placement that changed under
    /// the wave could apply half a transaction to a moved file, so a
    /// changed epoch aborts the prepared votes and returns `false` — the
    /// caller re-targets by the new placement. Otherwise every
    /// transaction with all its votes is decided commit: a commit exists
    /// iff its record is durable in the decision log, and one force
    /// covers the wave.
    pub fn decide_wave<T>(&mut self, w: &mut Wave<'_, T>) -> bool {
        if self.epoch() != w.epoch {
            self.deliver(w);
            self.stats.retargets += 1;
            return false;
        }
        let missing: BTreeSet<u64> = w.participants.difference(&w.yes).map(|p| p.1).collect();
        w.committing = w.gtids.clone().filter(|g| !missing.contains(g)).collect();
        if !w.committing.is_empty() {
            for &gtid in &w.committing {
                self.decision_log.append_commit(gtid);
            }
            self.decision_log.force();
            self.stats.decision_forces += 1;
        }
        true
    }

    /// Step four, phase two: delivers the decision, then counts and
    /// returns one outcome per transaction, in wave order.
    pub fn deliver_wave<T: AsRef<[CrossOp]>>(&mut self, w: Wave<'_, T>) -> Vec<CommitOutcome> {
        self.deliver(&w);
        let outcomes: Vec<CommitOutcome> = w.outcomes().collect();
        for (ops, outcome) in w.txns.iter().zip(&outcomes) {
            if *outcome == CommitOutcome::Committed {
                self.stats.cross_commits += 1;
                self.note_cross_writes(ops.as_ref());
            } else {
                self.stats.cross_aborts += 1;
            }
        }
        outcomes
    }

    /// Delivers each yes-vote its transaction's fate (a no-voter already
    /// rolled back locally), each shard's decides in gtid order in a lane
    /// of its own. Idempotent; a missed participant is the orphan sweep's
    /// job.
    fn deliver<T>(&mut self, w: &Wave<'_, T>) {
        let mut lanes = self.clock.lanes();
        let mut next = w.yes.first().map(|&(server, _)| server);
        while let Some(server) = next {
            lanes.lane(server, || {
                for &(_, gtid) in w.yes.range((server, 0)..=(server, u64::MAX)) {
                    let commit = w.committing.contains(&gtid);
                    let _ = self.call_2pc(server, &Request::TxnDecide(gtid, commit));
                }
            });
            next = w.yes.range((server + 1, 0)..).next().map(|&(s, _)| s);
        }
        lanes.join();
    }

    /// Coordinator recovery: replays the durable decision log, then
    /// sweeps every live server's in-doubt list and re-delivers each
    /// orphan's fate — the logged commit, or the presumed abort.
    /// Returns `(committed, aborted)` orphan resolutions. Idempotent:
    /// a second sweep finds nothing in doubt.
    pub fn recover_coordinator(&mut self) -> (u64, u64) {
        self.stats.coordinator_recoveries += 1;
        self.decision_log.crash();
        let committed = self.decision_log.recover();
        let (mut commits, mut aborts) = (0, 0);
        let mut lanes = self.clock.lanes();
        for server in self.live_shards() {
            lanes.lane(server, || {
                let Ok((_, payload)) = self.call_one(server, &Request::TxnPreparedList) else {
                    return;
                };
                for gtid in decode_gtid_list(&payload).unwrap_or_default() {
                    let commit = committed.contains(&gtid);
                    if let Ok(replies) = self.call_2pc(server, &Request::TxnDecide(gtid, commit)) {
                        if decode_resolved(&replies[0].1) == Ok(true) {
                            self.stats.orphan_resolutions += 1;
                            if commit {
                                commits += 1;
                            } else {
                                aborts += 1;
                            }
                        }
                    }
                }
            });
        }
        lanes.join();
        (commits, aborts)
    }

    /// Global transaction ids currently in doubt anywhere in the
    /// cluster (empty once every coordinator decision has landed — the
    /// liveness bound of the chaos tests).
    pub fn in_doubt_gtids(&mut self) -> Vec<u64> {
        let mut out: BTreeSet<u64> = BTreeSet::new();
        let mut lanes = self.clock.lanes();
        for server in self.live_shards() {
            lanes.lane(server, || {
                if let Ok((_, payload)) = self.call_one(server, &Request::TxnPreparedList) {
                    out.extend(decode_gtid_list(&payload).unwrap_or_default());
                }
            });
        }
        lanes.join();
        out.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::{ClusterConfig, Link};
    use rhodos_file_service::FileId;

    /// A cluster with one seeded, synced file per server; file `k` lives
    /// on server `k` (least-loaded placement round-robins an empty
    /// cluster) and holds `blocks * 512` bytes of `k + 1`.
    impl DecisionLog {
        /// Simulated crash *during* the force: a prefix of the record
        /// being written reaches stable storage — recovery must treat the
        /// torn record as no decision at all.
        fn crash_torn(&mut self) {
            let keep = (self.buf.len() - self.durable).min(4);
            self.buf.truncate(self.durable + keep);
            self.durable = self.buf.len();
        }

        /// Durably recorded bytes.
        fn durable_len(&self) -> usize {
            self.durable
        }
    }

    fn cluster_with_files(n: usize, blocks: usize) -> (Cluster, Vec<u64>) {
        files_on(Cluster::new(n, ClusterConfig::default()), blocks)
    }

    fn files_on(mut c: Cluster, blocks: usize) -> (Cluster, Vec<u64>) {
        let n = c.server_count();
        let gids: Vec<u64> = (0..n)
            .map(|k| {
                let gid = c.create().unwrap();
                c.open(gid).unwrap();
                c.write(gid, 0, &vec![k as u8 + 1; blocks * 512]).unwrap();
                gid
            })
            .collect();
        c.sync_all();
        (c, gids)
    }

    fn two_shard_ops(gids: &[u64]) -> Vec<CrossOp> {
        vec![
            (gids[0], 3, b"alpha".to_vec()),
            (gids[1], 7, b"beta!".to_vec()),
        ]
    }

    fn assert_applied(c: &mut Cluster, gids: &[u64]) {
        assert_eq!(c.read(gids[0], 3, 5).unwrap(), b"alpha");
        assert_eq!(c.read(gids[1], 7, 5).unwrap(), b"beta!");
    }

    fn assert_untouched(c: &mut Cluster, gids: &[u64]) {
        assert_eq!(c.read(gids[0], 3, 5).unwrap(), vec![1u8; 5]);
        assert_eq!(c.read(gids[1], 7, 5).unwrap(), vec![2u8; 5]);
    }

    #[test]
    fn cross_shard_commit_applies_on_every_home() {
        let (mut c, gids) = cluster_with_files(3, 2);
        let out = c.commit_cross_shard(&two_shard_ops(&gids)).unwrap();
        assert_eq!(out, CommitOutcome::Committed);
        assert_applied(&mut c, &gids);
        let s = c.stats();
        assert_eq!(s.cross_commits, 1);
        assert_eq!(s.prepare_rpcs, 2, "one prepare per participant");
        assert_eq!(s.decision_forces, 1);
        assert!(c.in_doubt_gtids().is_empty());
    }

    /// Each phase of a two-shard commit costs its slower shard, so the
    /// commit costs what a one-shard commit does, give or take the
    /// network's jitter (four transmissions) — not twice as much.
    #[test]
    fn a_two_shard_commit_costs_its_slower_lanes() {
        use rhodos_net::NetConfig;
        use rhodos_simdisk::LatencyModel;
        let cost = |two_shards: bool| {
            let cfg = ClusterConfig {
                latency: LatencyModel::default(),
                ..ClusterConfig::default()
            };
            let (mut c, gids) = files_on(Cluster::new(2, cfg), 2);
            let second = if two_shards { gids[1] } else { gids[0] };
            let ops = vec![
                (gids[0], 3, b"alpha".to_vec()),
                (second, 700, b"beta!".to_vec()),
            ];
            let t0 = c.clock().now_us();
            assert_eq!(
                c.commit_cross_shard(&ops).unwrap(),
                CommitOutcome::Committed
            );
            c.clock().now_us() - t0
        };
        let (one, two) = (cost(false), cost(true));
        let jitter = 4 * NetConfig::reliable().jitter_us;
        assert!(
            one.abs_diff(two) <= jitter,
            "one shard {one} us, two {two} us"
        );
    }

    #[test]
    fn single_shard_txn_still_runs_full_two_phase() {
        // The ablation arm: both ops share a home, yet the protocol is
        // byte-identical — one prepare, one decision force.
        let (mut c, gids) = cluster_with_files(2, 2);
        let ops = vec![
            (gids[0], 0, b"one".to_vec()),
            (gids[0], 512, b"two".to_vec()),
        ];
        assert_eq!(
            c.commit_cross_shard(&ops).unwrap(),
            CommitOutcome::Committed
        );
        assert_eq!(c.read(gids[0], 0, 3).unwrap(), b"one");
        assert_eq!(c.read(gids[0], 512, 3).unwrap(), b"two");
        assert_eq!(c.stats().prepare_rpcs, 1);
        assert_eq!(c.stats().decision_forces, 1);
    }

    #[test]
    fn unreachable_participant_aborts_everywhere() {
        let (mut c, gids) = cluster_with_files(2, 2);
        c.set_max_attempts(2);
        c.set_link(1, Link::Down);
        let out = c.commit_cross_shard(&two_shard_ops(&gids)).unwrap();
        assert_eq!(out, CommitOutcome::Aborted);
        c.set_link(1, Link::Up);
        assert_untouched(&mut c, &gids);
        assert_eq!(c.stats().cross_aborts, 1);
        assert_eq!(c.stats().cross_commits, 0);
        assert!(
            c.in_doubt_gtids().is_empty(),
            "prepared voter got the abort"
        );
    }

    #[test]
    fn coordinator_crash_before_decision_presumes_abort() {
        let (mut c, gids) = cluster_with_files(2, 2);
        let txns = [two_shard_ops(&gids)];
        let mut w = c.wave(&txns).unwrap();
        c.prepare_wave(&mut w);
        // The coordinator crashes before it decides: nothing is logged.
        drop(w);
        assert_eq!(c.in_doubt_gtids().len(), 1, "both homes hold one orphan");
        let (commits, aborts) = c.recover_coordinator();
        assert_eq!((commits, aborts), (0, 2), "presumed abort on both homes");
        assert_untouched(&mut c, &gids);
        assert!(c.in_doubt_gtids().is_empty());
        assert_eq!(c.stats().orphan_resolutions, 2);
        assert_eq!(c.stats().coordinator_recoveries, 1);
    }

    #[test]
    fn coordinator_crash_after_decision_commits_orphans() {
        let (mut c, gids) = cluster_with_files(2, 2);
        let txns = [two_shard_ops(&gids)];
        let mut w = c.wave(&txns).unwrap();
        c.prepare_wave(&mut w);
        assert!(c.decide_wave(&mut w));
        assert!(w.outcomes().eq([CommitOutcome::Committed]));
        // The coordinator crashes before it delivers the durable decision.
        drop(w);
        let (commits, aborts) = c.recover_coordinator();
        assert_eq!((commits, aborts), (2, 0), "durable decision re-delivered");
        assert_applied(&mut c, &gids);
        assert!(c.in_doubt_gtids().is_empty());
    }

    #[test]
    fn participant_crash_after_prepare_recovers_in_doubt_and_commits() {
        let (mut c, gids) = cluster_with_files(2, 2);
        let txns = [two_shard_ops(&gids)];
        let mut w = c.wave(&txns).unwrap();
        c.prepare_wave(&mut w);
        // Server 1 crashes after its prepare force; recovery rebuilds the
        // in-doubt participant from the log and the decide lands on it.
        c.crash_server(1);
        assert!(c.decide_wave(&mut w));
        assert_eq!(c.deliver_wave(w), [CommitOutcome::Committed]);
        assert_applied(&mut c, &gids);
        assert!(c.in_doubt_gtids().is_empty());
    }

    #[test]
    fn participant_crash_before_decide_is_swept_to_commit() {
        let (mut c, gids) = cluster_with_files(2, 2);
        let txns = [two_shard_ops(&gids)];
        let mut w = c.wave(&txns).unwrap();
        c.prepare_wave(&mut w);
        assert!(c.decide_wave(&mut w));
        // Server 1 crashes, and is cut off until its decide is lost.
        c.crash_server(1);
        c.set_link(1, Link::Down);
        assert_eq!(c.deliver_wave(w), [CommitOutcome::Committed]);
        c.set_link(1, Link::Up);
        // Server 0 applied; server 1 is an orphan until the sweep.
        assert_eq!(c.read(gids[0], 3, 5).unwrap(), b"alpha");
        assert_eq!(c.in_doubt_gtids().len(), 1);
        let (commits, aborts) = c.recover_coordinator();
        assert_eq!((commits, aborts), (1, 0));
        assert_applied(&mut c, &gids);
    }

    #[test]
    fn lost_prepare_ack_leaves_orphan_the_sweep_aborts() {
        let (mut c, gids) = cluster_with_files(2, 2);
        let txns = [two_shard_ops(&gids)];
        let mut w = c.wave(&txns).unwrap();
        c.set_link(1, Link::RepliesLost);
        c.prepare_wave(&mut w);
        c.set_link(1, Link::Up);
        assert!(c.decide_wave(&mut w));
        assert_eq!(c.deliver_wave(w), [CommitOutcome::Aborted]);
        // Server 1 prepared durably but the coordinator never learned;
        // presumed abort resolves it without any decision record.
        assert_eq!(c.in_doubt_gtids().len(), 1);
        let (commits, aborts) = c.recover_coordinator();
        assert_eq!((commits, aborts), (0, 1));
        assert_untouched(&mut c, &gids);
        assert_eq!(c.decision_log.durable_len(), 0);
    }

    #[test]
    fn migration_mid_prepare_retargets_and_commits() {
        let (mut c, gids) = cluster_with_files(3, 2);
        let txns = [two_shard_ops(&gids)];
        // The file moves after the wave resolved its homes, so phase one
        // runs against stale placement and the decision refuses it.
        let mut w = c.wave(&txns).unwrap();
        c.migrate(gids[1], 2).unwrap();
        c.prepare_wave(&mut w);
        assert!(!c.decide_wave(&mut w), "the epoch moved");
        assert!(c.in_doubt_gtids().is_empty(), "the stale votes aborted");
        // The retry resolves server 2 as the new home.
        assert_eq!(c.commit_batch(&txns).unwrap(), [CommitOutcome::Committed]);
        assert_eq!(c.placement_of(gids[1]).unwrap().0, 2);
        assert_applied(&mut c, &gids);
        assert_eq!(c.stats().retargets, 1);
        assert!(c.in_doubt_gtids().is_empty());
        assert_eq!(c.stats().cross_commits, 1);
    }

    /// A placement change under a wave re-targets the wave, it does not
    /// abort it: the stale attempt's yes-votes are rolled back and the
    /// retry commits every member under the new placement.
    #[test]
    fn a_wave_retargets_across_a_migration() {
        let (mut c, gids) = cluster_with_files(4, 2);
        let wave = vec![
            two_shard_ops(&gids),
            vec![
                (gids[2], 3, b"gamma".to_vec()),
                (gids[3], 7, b"delta".to_vec()),
            ],
        ];
        let mut w = c.wave(&wave).unwrap();
        c.migrate(gids[1], 2).unwrap();
        c.prepare_wave(&mut w);
        assert!(!c.decide_wave(&mut w));
        let outs = c.commit_batch(&wave).unwrap();
        assert_eq!(outs, vec![CommitOutcome::Committed; 2]);
        let s = c.stats();
        assert_eq!((s.retargets, s.cross_commits, s.cross_aborts), (1, 2, 0));
        assert_eq!(s.decision_forces, 1);
        assert_eq!(c.placement_of(gids[1]).unwrap().0, 2);
        assert_applied(&mut c, &gids);
        assert_eq!(c.read(gids[2], 3, 5).unwrap(), b"gamma");
        assert_eq!(c.read(gids[3], 7, 5).unwrap(), b"delta");
        assert!(c.in_doubt_gtids().is_empty());
    }

    #[test]
    fn batch_commit_amortises_prepare_and_decision_forces() {
        // 16 files alternating over 2 servers: each wave transaction
        // touches its own pair, so the wave is conflict-free and every
        // member can ride the shared prepare flush.
        let (mut c, gids) = cluster_with_files(2, 2);
        let extra: Vec<u64> = (0..14)
            .map(|k| {
                let gid = c.create().unwrap();
                c.open(gid).unwrap();
                c.write(gid, 0, &vec![k as u8 + 3; 1024]).unwrap();
                gid
            })
            .collect();
        let gids: Vec<u64> = gids.into_iter().chain(extra).collect();
        let waves: Vec<Vec<CrossOp>> = (0..8u8)
            .map(|k| {
                vec![
                    (gids[2 * k as usize], u64::from(k) * 16, vec![0xA0 | k; 8]),
                    (
                        gids[2 * k as usize + 1],
                        u64::from(k) * 16,
                        vec![0xB0 | k; 8],
                    ),
                ]
            })
            .collect();
        let outs = c.commit_batch(&waves).unwrap();
        assert!(outs.iter().all(|o| *o == CommitOutcome::Committed));
        let s = c.stats();
        assert_eq!(s.cross_commits, 8);
        assert_eq!(s.prepare_rpcs, 2, "one batched prepare per server");
        assert_eq!(s.decision_forces, 1, "one force covers the wave");
        for k in 0..8u8 {
            assert_eq!(
                c.read(gids[2 * k as usize], u64::from(k) * 16, 8).unwrap(),
                vec![0xA0 | k; 8]
            );
            assert_eq!(
                c.read(gids[2 * k as usize + 1], u64::from(k) * 16, 8)
                    .unwrap(),
                vec![0xB0 | k; 8]
            );
        }
        // Participant-side accounting: the wave rode one prepare flush.
        let h = c.server_handle(0);
        let ts = h.lock();
        assert_eq!(ts.stats().prepares, 8);
        assert!(ts.stats().records_per_prepare_flush() > 1.0);
    }

    /// A plain write lands after a cross-shard commit to the same block
    /// and `sync_all` makes it durable. A sync is a checkpoint, so
    /// crashing every server does not replay the older committed record
    /// over it.
    #[test]
    fn a_synced_plain_write_outlives_an_older_cross_shard_commit() {
        let (mut c, gids) = cluster_with_files(2, 2);
        let out = c.commit_cross_shard(&two_shard_ops(&gids)).unwrap();
        assert_eq!(out, CommitOutcome::Committed);
        c.write(gids[0], 0, b"plain write").unwrap();
        c.sync_all();
        for i in 0..2 {
            c.crash_server(i);
        }
        assert_eq!(c.read(gids[0], 0, 11).unwrap(), b"plain write");
        assert_eq!(c.read(gids[1], 7, 5).unwrap(), b"beta!");
    }

    /// A server that is only ever a 2PC participant reaches a quiescent
    /// moment after its decisions, not after its prepare batches — that
    /// is where it compacts its log. Partial pages travel in the log as
    /// bytes, so without it the log would grow for as long as the server
    /// runs.
    #[test]
    fn participants_compact_their_logs_after_resolving() {
        use rhodos_disk_service::BLOCK_SIZE;
        const MIB: u64 = 1024 * 1024;
        const TXNS: u64 = 8;
        let (mut c, gids) = cluster_with_files(2, 2);
        let wave = |round: u64| -> Vec<Vec<CrossOp>> {
            (0..TXNS)
                .map(|k| {
                    let data = vec![(round + k) as u8; 4000];
                    let offset = k * BLOCK_SIZE as u64 + 100;
                    vec![(gids[0], offset, data.clone()), (gids[1], offset, data)]
                })
                .collect()
        };
        let log_len = |c: &Cluster, i: usize| c.server_handle(i).lock().log_len();
        let before = [log_len(&c, 0), log_len(&c, 1)];
        let outs = c.commit_batch(&wave(0)).unwrap();
        assert!(outs.iter().all(|o| *o == CommitOutcome::Committed));
        // What one wave adds to a participant's log.
        let batch = (0..2).map(|i| log_len(&c, i) - before[i]).max().unwrap();
        for round in 1..100 {
            let outs = c.commit_batch(&wave(round)).unwrap();
            assert!(outs.iter().all(|o| *o == CommitOutcome::Committed));
            for i in 0..2 {
                let len = log_len(&c, i);
                assert!(len <= MIB + batch, "server {i}, round {round}: {len} bytes");
            }
        }
        for i in 0..2 {
            let compactions = c.server_handle(i).lock().stats().log_compactions;
            assert!(compactions >= 2, "server {i}: {compactions} compactions");
        }
        let last = TXNS - 1;
        let offset = last * BLOCK_SIZE as u64 + 100;
        assert_eq!(
            c.read(gids[1], offset, 4000).unwrap(),
            vec![(99 + last) as u8; 4000]
        );
    }

    #[test]
    fn decision_log_recovery_scans_only_complete_records() {
        let mut log = DecisionLog::default();
        log.append_commit(7);
        log.append_commit(9);
        log.force();
        log.append_commit(11);
        log.crash_torn();
        let committed = log.recover();
        assert!(committed.contains(&7) && committed.contains(&9));
        assert!(!committed.contains(&11), "torn record is presumed abort");
        log.crash();
        assert_eq!(log.recover().len(), 2);
    }

    #[test]
    fn conflicting_cross_shard_txns_serialise_by_abort() {
        // Two waves touching the same pages: the in-doubt first txn
        // holds its locks, so batching both into one wave votes no for
        // the second and commits only the first.
        let (mut c, gids) = cluster_with_files(2, 2);
        let waves = vec![two_shard_ops(&gids), two_shard_ops(&gids)];
        let outs = c.commit_batch(&waves).unwrap();
        assert_eq!(outs[0], CommitOutcome::Committed);
        assert_eq!(outs[1], CommitOutcome::Aborted);
        assert_applied(&mut c, &gids);
        assert!(c.in_doubt_gtids().is_empty());
    }

    #[test]
    fn migration_refuses_in_doubt_file_until_decision_lands() {
        // Durable commit decision, then the participant crashes while
        // in doubt: its crash-rebuilt prepared state holds no open
        // count, so only the explicit in-doubt guard stops a migration
        // from deleting the replica the pending commit will apply to.
        let (mut c, gids) = cluster_with_files(2, 2);
        let home = c.placement_of(gids[0]).unwrap().0;
        let txns = [two_shard_ops(&gids)];
        let mut w = c.wave(&txns).unwrap();
        c.prepare_wave(&mut w);
        assert!(c.decide_wave(&mut w));
        drop(w);
        c.crash_server(home);
        let err = c.migrate(gids[0], (home + 1) % 2).unwrap_err();
        assert!(
            matches!(err, ClusterError::File(FileServiceError::Busy(_))),
            "in-doubt file must not move: {err:?}"
        );
        let (commits, _) = c.recover_coordinator();
        assert!(commits >= 1, "both orphaned shards resolve to commit");
        assert_applied(&mut c, &gids);
        // Decision applied — the file is free to move again.
        assert!(c.migrate(gids[0], (home + 1) % 2).is_ok());
        assert_applied(&mut c, &gids);
    }

    /// A lone participant, outside any cluster, holding one page-locked
    /// file.
    fn participant() -> (TransactionService, FileId) {
        use rhodos_file_service::{FileService, FileServiceConfig, LockLevel};
        use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};

        let fs = FileService::single_disk(
            DiskGeometry::small(),
            LatencyModel::instant(),
            SimClock::new(),
            FileServiceConfig::default(),
        )
        .unwrap();
        let mut ts = TransactionService::new(fs, Default::default()).unwrap();
        let fid = ts.tcreate(LockLevel::Page).unwrap();
        (ts, fid)
    }

    /// A 2PC frame cut short anywhere, or an opcode past the 2PC range,
    /// is answered with `BadRequest` — the server does not panic, and the
    /// whole frames still work afterwards.
    #[test]
    fn a_malformed_txn_frame_gets_an_error_reply() {
        use rhodos_replication::wire::decode_reply;

        let (mut ts, fid) = participant();
        let prepare = Request::TxnPrepare(vec![(11, vec![(fid, 0, &b"one"[..])])]).encode();
        let decide = Request::TxnDecide(11, true).encode();
        for frame in [&prepare, &decide] {
            for len in 0..frame.len() {
                let reply = serve_txn(&mut ts, &frame[..len]);
                assert_eq!(
                    decode_reply(&reply),
                    Err(FileServiceError::BadRequest),
                    "{len}-byte prefix of opcode {}",
                    frame[0]
                );
            }
            assert!(decode_reply(&serve_txn(&mut ts, frame)).is_ok());
        }
        for op in 16..=u8::MAX {
            let reply = serve_txn(&mut ts, &[op]);
            assert_eq!(
                decode_reply(&reply),
                Err(FileServiceError::BadRequest),
                "opcode {op}"
            );
        }
        assert!(ts.prepared_gtids().is_empty(), "the decide landed");
    }

    /// The participant route of `TransactionService::commit_batch`: a
    /// `Request::TxnPrepare` batch whose log force fails votes *no* on
    /// every transaction and leaves nothing of them behind — no in-doubt
    /// entry, no live transaction, no tentative block.
    #[test]
    fn a_prepare_whose_force_fails_votes_no_and_rolls_back() {
        use rhodos_replication::wire::{decode_reply, decode_votes};

        let sector_writes =
            |ts: &TransactionService| ts.file_service().stats().disks[0].disk.sector_writes;
        // What the batch writes before its force, counted on a twin driven
        // step by step: that many sector writes later the disk dies, which
        // puts the failure on the force itself.
        let (mut twin, fid) = participant();
        let batch: Vec<PrepareTxn> = vec![
            (11, vec![(fid, 0, &b"one"[..])]),
            (12, vec![(fid, 8192, &b"two"[..])]),
        ];
        let before = sector_writes(&twin);
        for (gtid, writes) in &batch {
            let t = twin.tbegin();
            twin.topen(t, fid).unwrap();
            twin.twrite(t, fid, writes[0].1, writes[0].2).unwrap();
            twin.prepare_participant(t, *gtid).unwrap();
        }
        let up_to_the_force = sector_writes(&twin) - before;

        let (mut ts, same_fid) = participant();
        assert_eq!(same_fid, fid);
        let free = ts.file_service_mut().disk_mut(0).free_fragments();
        let disk = ts.file_service_mut().disk_mut(0).disk_mut();
        disk.faults_mut().crash_after_sector_writes(up_to_the_force);
        let reply = serve_txn(&mut ts, &Request::TxnPrepare(batch).encode());
        let votes = decode_reply(&reply).and_then(|payload| decode_votes(&payload));
        assert_eq!(votes, Ok(vec![false, false]));
        assert_eq!(ts.stats().prepares, 2, "both got as far as the force");
        assert!(ts.prepared_gtids().is_empty());
        assert!(ts.active_transactions().is_empty());
        assert_eq!(ts.file_service_mut().disk_mut(0).free_fragments(), free);
    }
}
