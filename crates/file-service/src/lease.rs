//! Time-bounded client cache delegations (leases).
//!
//! The paper keeps its file servers "nearly stateless" — a crashed server
//! recovers from its disks plus whatever clients re-tell it. This module
//! adds the one piece of soft state that makes aggressive client caching
//! safe across processes: a table of *leases*, time-bounded read/write
//! delegations in the style of Lustre's distributed lock manager.
//!
//! * A **read lease** lets any number of clients serve reads of a file
//!   from their local cache with no RPC at all.
//! * A **write lease** is exclusive: one client may buffer delayed
//!   writes locally and flush them back on recall or close.
//! * A conflicting open triggers a **recall**; a client that does not
//!   answer within the recall timeout is waited out to its lease expiry
//!   and then **fenced** — its token dies with the grant, so a late
//!   writeback is rejected instead of clobbering newer data.
//! * Only the server ends a grant, and only when it is released,
//!   surrendered to a recall, fenced by one, superseded by its own
//!   client's upgrade, or forgotten in a crash. The term bounds how long
//!   a recall waits for a silent holder (Gray & Cheriton, SOSP 1989);
//!   a lapsed grant no rival has fenced still validates and renews, so
//!   an idle holder keeps its buffered writes.
//! * A grant's place in time is its sequence number `seq`: only the
//!   server issues one, never twice, and a reattached grant keeps it. All
//!   the grants a server judges are its own, so their order needs no
//!   clock. A grant of epoch `e` is `e << 32 | n`, its `n` counting the
//!   epoch's grants from one, so every grant of an epoch is ordered after
//!   every grant of an earlier one.
//! * Lease state is *soft*: a server crash wipes the table, and the
//!   mount bumps the **epoch**. Clients reconstruct the grant set by
//!   reattaching their old grants, lapsed ones too, during a reattach
//!   window one term long; conflicting write reattach claims are resolved
//!   by grant order (the later `seq` wins). What a crash keeps is the
//!   [`LeaseRecord`] on the platter: the epoch and the `seq` of each
//!   file's newest dead grant, so a claim the server fenced before the
//!   crash is refused after it.
//!
//! [`LeaseManager`] owns every server-side rule: the grant table, the
//! recall endpoints and the whole recall round ([`LeaseManager::acquire`]:
//! wait out the reattach window, recall each conflicting holder, wait out
//! and fence a silent one). The file service applies the delayed writes a
//! holder surrendered, directly or — on a transaction-service file — as
//! one transaction; the client side is the agent's station.
//! `tests/lease_model.rs` checks both sides together.

use crate::attrs::FileId;
use rhodos_buf::BlockBuf;
use rhodos_simdisk::SimClock;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// What a lease delegates to the holder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LeaseMode {
    /// Shared: serve reads from the local cache without RPCs.
    Read,
    /// Exclusive: additionally buffer delayed writes locally.
    Write,
}

/// Identifies one grant; presented back by the client on writeback,
/// renew and release. A token from a dead epoch — or whose grant was
/// fenced — validates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeaseToken {
    /// The client (station) the lease was granted to.
    pub client: u64,
    /// The file it covers.
    pub fid: FileId,
    /// The server epoch the grant belongs to.
    pub epoch: u64,
    /// Grant sequence number, in grant order: never reused; kept by a
    /// reattached grant.
    pub seq: u64,
}

/// A granted lease, as returned to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseGrant {
    /// The token to present on writeback/renew/release/reattach.
    pub token: LeaseToken,
    /// What was delegated.
    pub mode: LeaseMode,
    /// Virtual time at which the delegation lapses unless renewed.
    pub expiry_us: u64,
}

/// How long a recall waits for the holder before giving up and waiting
/// the holder's lease out instead, virtual microseconds.
const RECALL_TIMEOUT_US: u64 = 300_000;

/// Tunables for the lease subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseParams {
    /// Lease term: a grant lapses this long after issue/renewal.
    pub term_us: u64,
}

impl Default for LeaseParams {
    fn default() -> Self {
        Self { term_us: 2_000_000 }
    }
}

/// Counters for the lease subsystem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseStats {
    /// Leases granted (including upgrades, excluding reattaches).
    pub granted: u64,
    /// Leases released voluntarily by clients.
    pub released: u64,
    /// Recall requests issued to holders.
    pub recalls: u64,
    /// Recalls the holder answered in time.
    pub recall_acks: u64,
    /// Recalls that timed out; the holder was waited out and fenced.
    pub recall_timeouts: u64,
    /// Writebacks rejected because the presenting token was fenced.
    pub fenced_writebacks: u64,
    /// Lease term renewals.
    pub renewals: u64,
    /// Grants reconstructed from client reattach after a crash.
    pub reattaches: u64,
    /// Reattach claims rejected (window closed, stale epoch, fenced
    /// before the crash, no longer held, or lost to a competing claim
    /// granted later).
    pub reattach_rejected: u64,
}

/// What a recalled holder hands back: its buffered delayed writes, as
/// byte runs already cut at the file size its delegation grew the file
/// to.
#[derive(Debug, Clone)]
pub struct RecallAck {
    /// `(byte offset, bytes)` runs buffered under the write delegation,
    /// ready to write as they are. Empty for read leases.
    pub runs: Vec<(u64, BlockBuf)>,
}

/// A recall endpoint: how the server reaches one client station.
///
/// Implementations perform the (simulated, lossy) network exchange and
/// return `None` when the holder cannot be reached within the bounded
/// recall timeout — the server then waits the lease out and fences it.
pub trait RecallTarget: Send {
    /// The client id this endpoint serves.
    fn client_id(&self) -> u64;
    /// Asks the holder to surrender its grant `seq` on `fid`.
    fn recall(&mut self, fid: FileId, seq: u64) -> Option<RecallAck>;
}

/// Registered recall endpoints, owned by the [`LeaseManager`] that runs
/// the recall round. They are wiring, not lease state: a crashed file
/// service hands them to the manager its mount builds (clients reattach
/// over the same channels); a manager built by [`LeaseManager::new`] or
/// [`LeaseManager::from_record`] starts with none.
#[derive(Default)]
pub(crate) struct RecallRegistry {
    targets: Vec<Box<dyn RecallTarget>>,
}

impl fmt::Debug for RecallRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecallRegistry")
            .field("targets", &self.targets.len())
            .finish()
    }
}

impl RecallRegistry {
    /// Registers an endpoint (replacing any previous one for the client).
    fn attach(&mut self, target: Box<dyn RecallTarget>) {
        let id = target.client_id();
        self.targets.retain(|t| t.client_id() != id);
        self.targets.push(target);
    }

    /// The endpoint for `client`, if registered.
    fn get_mut(&mut self, client: u64) -> Option<&mut (dyn RecallTarget + '_)> {
        self.targets
            .iter_mut()
            .find(|t| t.client_id() == client)
            .map(|t| &mut **t as &mut dyn RecallTarget)
    }
}

#[derive(Debug, Clone, Copy)]
struct GrantEntry {
    client: u64,
    seq: u64,
    mode: LeaseMode,
    expiry_us: u64,
}

/// A grant that must be surrendered before a new acquire can proceed.
#[derive(Debug, Clone, Copy)]
pub struct PendingRecall {
    /// The holder to recall from.
    pub client: u64,
    /// Grant sequence number to recall.
    pub seq: u64,
    /// Lease expiry, the fencing deadline if the holder is silent.
    pub expiry_us: u64,
}

/// What of the lease state a server keeps on stable storage, and all a
/// mount rebuilds the [`LeaseManager`] from.
///
/// A claim is judged by the record of the epoch before its server's:
/// the graves dug in the claim's own epoch. An older grave refuses no
/// claim — every grant of an epoch is ordered after every grave of an
/// earlier one, and every claim it took back was granted after the
/// graves it was judged by — so the record holds one epoch's graves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeaseRecord {
    /// The newest epoch that has handed out a token, dug a grave or
    /// been claimed.
    pub epoch: u64,
    /// The `seq` of each file's newest grant that died in that epoch:
    /// fenced, or the loser of a reattach race.
    pub dead: BTreeMap<FileId, u64>,
}

/// The server side of the lease protocol: the grant table and the whole
/// recall round ([`Self::acquire`]). Owned by the file service, which
/// only applies the delayed writes a recalled holder surrenders, and
/// writes [`Self::record`] before it answers whatever changed it. The
/// table's methods take the current virtual time so expiry is
/// deterministic; the round reads and advances the shared clock.
#[derive(Debug)]
pub struct LeaseManager {
    params: LeaseParams,
    /// The shared virtual clock the recall round waits on.
    clock: SimClock,
    epoch: u64,
    grants: HashMap<FileId, Vec<GrantEntry>>,
    reattach_until: u64,
    /// The record this manager was built from: its graves judge the
    /// claims of the epoch before this one.
    kept: LeaseRecord,
    /// The graves dug in this epoch.
    dead: BTreeMap<FileId, u64>,
    /// Whether the epoch was claimed by another service ([`Self::claim_epoch`]).
    claimed: bool,
    stats: LeaseStats,
    /// Recall endpoints, one per client station.
    pub(crate) targets: RecallRegistry,
}

impl LeaseManager {
    /// Creates the empty lease table of a freshly formatted server, at
    /// epoch 0.
    pub fn new(clock: SimClock, params: LeaseParams) -> Self {
        let mut fresh = Self::from_record(clock, params, &LeaseRecord::default(), 0);
        (fresh.epoch, fresh.reattach_until) = (0, 0);
        fresh
    }

    /// The lease table a mount at `now` rebuilds from `record`: one epoch
    /// after the record's, with no grant and no recall endpoint, and a
    /// reattach window one term long from `now` for the claims of the
    /// record's epoch.
    pub fn from_record(
        clock: SimClock,
        params: LeaseParams,
        record: &LeaseRecord,
        now: u64,
    ) -> Self {
        let epoch = record.epoch + 1;
        Self {
            clock,
            params,
            epoch,
            grants: HashMap::new(),
            reattach_until: now + params.term_us,
            kept: record.clone(),
            dead: BTreeMap::new(),
            claimed: false,
            stats: LeaseStats::default(),
            targets: RecallRegistry::default(),
        }
    }

    /// What stable storage must hold before the answer to a call that
    /// changed it leaves the server: the record this manager was built
    /// from until the epoch hands out a token, digs a grave or is
    /// claimed, then this epoch and its graves. A mount whose server hands
    /// out nothing thus writes nothing — a resynchronised replica stays
    /// byte-identical to its peers — and the next mount reuses the epoch
    /// and judges the same claims.
    pub fn record(&self) -> LeaseRecord {
        let used = self.stats.granted + self.stats.reattaches > 0 || !self.dead.is_empty();
        if !(used || self.claimed) {
            return self.kept.clone();
        }
        let (epoch, dead) = (self.epoch, self.dead.clone());
        LeaseRecord { epoch, dead }
    }

    /// The tunables in force.
    pub fn params(&self) -> LeaseParams {
        self.params
    }

    /// Current server epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Makes the epoch the record's, as a token of it handed out does:
    /// for a service whose own numbers carry it (the transaction
    /// service's ids).
    pub fn claim_epoch(&mut self) {
        self.claimed = true;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LeaseStats {
        self.stats
    }

    /// Registers the recall endpoint of a client station (replacing any
    /// previous endpoint for the same client id).
    pub fn attach(&mut self, target: Box<dyn RecallTarget>) {
        self.targets.attach(target);
    }

    /// The recall round: grants `client` `mode` on `fid` once every
    /// conflicting holder has surrendered or been fenced, and returns the
    /// grant with the surrendered delayed writes, in recall order. The
    /// caller applies them before the grantee uses the grant.
    ///
    /// A new grant first waits out the reattach window: the window is one
    /// term long, so every pre-crash lease the rebooted server no longer
    /// remembers has expired by then. Each conflicting holder
    /// is recalled through its endpoint; one that answers surrenders its
    /// grant, one that is silent past the recall timeout is waited out to
    /// its lease expiry and fenced — its token dies with the grant.
    pub fn acquire(
        &mut self,
        client: u64,
        fid: FileId,
        mode: LeaseMode,
    ) -> (LeaseGrant, Vec<RecallAck>) {
        self.clock.advance_to(self.reattach_until);
        let mut acks = Vec::new();
        loop {
            match self.try_acquire(self.clock.now_us(), client, fid, mode) {
                Ok(grant) => return (grant, acks),
                Err(conflicts) => {
                    for c in conflicts {
                        acks.extend(self.recall(fid, c));
                    }
                }
            }
        }
    }

    /// Recalls one conflicting grant: its holder's surrender, or `None`
    /// once a silent holder has been waited out and fenced. A holder with
    /// no recall endpoint cannot be asked: the round only waits its lease
    /// out.
    fn recall(&mut self, fid: FileId, pending: PendingRecall) -> Option<RecallAck> {
        self.stats.recalls += 1;
        let target = self.targets.get_mut(pending.client);
        let reachable = target.is_some();
        let ack = target.and_then(|t| t.recall(fid, pending.seq));
        match &ack {
            Some(_) => self.complete_recall(fid, pending.client, pending.seq),
            None => {
                if reachable {
                    self.clock.advance(RECALL_TIMEOUT_US);
                }
                self.clock.advance_to(pending.expiry_us);
                self.fence(fid, pending.client, pending.seq);
            }
        }
        ack
    }

    /// The grants currently outstanding, as `(client, mode, seq)` per
    /// file — the set a crash forgets and reattach must reconstruct.
    pub fn grant_set(&self) -> Vec<(FileId, u64, LeaseMode, u64)> {
        let mut out: Vec<_> = self
            .grants
            .iter()
            .flat_map(|(fid, v)| v.iter().map(|g| (*fid, g.client, g.mode, g.seq)))
            .collect();
        out.sort();
        out
    }

    /// Attempts to acquire `mode` on `fid` for `client`. Returns either
    /// the grant or the list of conflicting grants the caller must
    /// recall (or wait out) first, in grant order — lapsed ones included:
    /// their holders may still buffer writes.
    pub fn try_acquire(
        &mut self,
        now: u64,
        client: u64,
        fid: FileId,
        mode: LeaseMode,
    ) -> Result<LeaseGrant, Vec<PendingRecall>> {
        let entries = self.grants.entry(fid).or_default();
        let conflicts: Vec<PendingRecall> = entries
            .iter()
            .filter(|g| {
                g.client != client && (mode == LeaseMode::Write || g.mode == LeaseMode::Write)
            })
            .map(|g| PendingRecall {
                client: g.client,
                seq: g.seq,
                expiry_us: g.expiry_us,
            })
            .collect();
        if !conflicts.is_empty() {
            return Err(conflicts);
        }
        // No cross-client conflict: grant (upgrading any same-client
        // entry in place — its old token keeps validating nothing).
        entries.retain(|g| g.client != client);
        // The epoch's grants so far count `n`.
        let n = u32::try_from(self.stats.granted + 1).expect("an epoch issues under 2^32 grants");
        let seq = self.epoch << 32 | u64::from(n);
        let expiry_us = now + self.params.term_us;
        entries.push(GrantEntry {
            client,
            seq,
            mode,
            expiry_us,
        });
        self.stats.granted += 1;
        Ok(LeaseGrant {
            token: LeaseToken {
                client,
                fid,
                epoch: self.epoch,
                seq,
            },
            mode,
            expiry_us,
        })
    }

    /// Whether `token` still names a grant in the table (and, when
    /// `for_write`, a write grant) — a lapsed one too, until a rival's
    /// recall fences it.
    pub fn validate(&self, token: &LeaseToken, for_write: bool) -> bool {
        token.epoch == self.epoch
            && self.grants.get(&token.fid).is_some_and(|entries| {
                entries.iter().any(|g| {
                    g.client == token.client
                        && g.seq == token.seq
                        && (!for_write || g.mode == LeaseMode::Write)
                })
            })
    }

    /// Counts a writeback rejected on a dead token.
    pub fn note_fenced_writeback(&mut self) {
        self.stats.fenced_writebacks += 1;
    }

    /// Removes the grant a recall target acknowledged surrendering.
    fn complete_recall(&mut self, fid: FileId, client: u64, seq: u64) {
        if let Some(entries) = self.grants.get_mut(&fid) {
            entries.retain(|g| !(g.client == client && g.seq == seq));
        }
        self.stats.recall_acks += 1;
    }

    /// Fences a grant whose holder did not answer the recall: the entry
    /// is dropped once its expiry has passed, killing the token, and its
    /// `seq` is kept as the file's newest dead grant.
    pub fn fence(&mut self, fid: FileId, client: u64, seq: u64) {
        if let Some(entries) = self.grants.get_mut(&fid) {
            if let Some(i) = entries
                .iter()
                .position(|g| g.client == client && g.seq == seq)
            {
                bury(&mut self.dead, fid, entries.remove(i).seq);
            }
        }
        self.stats.recall_timeouts += 1;
    }

    /// The `seq` of `fid`'s newest dead grant — fenced, or the loser of
    /// a reattach race — if any: no claim granted no later is taken.
    pub fn dead_seq(&self, fid: FileId) -> Option<u64> {
        self.dead.get(&fid).max(self.kept.dead.get(&fid)).copied()
    }

    /// Extends a grant still in the table, lapsed or not, to one lease
    /// term from `now`.
    ///
    /// Returns the new expiry, or `None` if the token is dead (the
    /// client must re-acquire).
    pub fn renew(&mut self, token: &LeaseToken, now: u64) -> Option<u64> {
        if !self.validate(token, false) {
            return None;
        }
        let expiry_us = now + self.params.term_us;
        let entries = self.grants.get_mut(&token.fid).expect("validated");
        let g = entries
            .iter_mut()
            .find(|g| g.client == token.client && g.seq == token.seq)
            .expect("validated");
        g.expiry_us = expiry_us;
        self.stats.renewals += 1;
        Some(expiry_us)
    }

    /// Releases a grant. Idempotent: releasing a dead token is a no-op.
    pub fn release(&mut self, token: &LeaseToken) {
        if token.epoch != self.epoch {
            return;
        }
        if let Some(entries) = self.grants.get_mut(&token.fid) {
            let before = entries.len();
            entries.retain(|g| !(g.client == token.client && g.seq == token.seq));
            if entries.len() < before {
                self.stats.released += 1;
            }
        }
    }

    /// End of the current reattach window (virtual us): a claim is taken
    /// only before it, a new grant only from it on.
    pub fn reattach_until(&self) -> u64 {
        self.reattach_until
    }

    /// A client re-presents a grant so the rebooted server can
    /// reconstruct its lease table — a lapsed grant too: the server ends
    /// a grant, not its term.
    ///
    /// A claim of the current epoch (the server did not crash) is
    /// confirmed as a renewal while the server still holds the grant.
    /// Otherwise it is accepted iff it is from exactly the previous
    /// epoch, the window is still open, its `seq` is of an earlier epoch
    /// than this one, and it was granted later than the file's newest dead grant
    /// ([`Self::dead_seq`]): a grant the server fenced before the crash
    /// stays dead. Competing *write* claims on the
    /// same file (two clients both believe they held the write lease —
    /// possible when a recall exchange raced the crash) resolve by grant
    /// order: the later `seq` wins, the earlier claim is rejected. The
    /// reconstructed grant keeps the claim's `seq` under the new epoch.
    pub fn reattach(
        &mut self,
        now: u64,
        token: &LeaseToken,
        mode: LeaseMode,
    ) -> Option<LeaseGrant> {
        if token.epoch == self.epoch {
            let Some(expiry_us) = self.renew(token, now) else {
                self.stats.reattach_rejected += 1;
                return None;
            };
            return Some(LeaseGrant {
                token: *token,
                mode,
                expiry_us,
            });
        }
        if token.epoch + 1 != self.epoch
            || now >= self.reattach_until
            || token.seq >> 32 >= self.epoch
            || self.dead_seq(token.fid) >= Some(token.seq)
        {
            self.stats.reattach_rejected += 1;
            return None;
        }
        let entries = self.grants.entry(token.fid).or_default();
        if mode == LeaseMode::Write || entries.iter().any(|g| g.mode == LeaseMode::Write) {
            // Cross-client conflict: keep whichever claim was granted
            // later. Every conflicting entry is a rival — a write claim
            // conflicts with *all* other holders, not just the first one
            // found (stopping at the first rival let a write reattach
            // land alongside surviving read grants, breaking single-writer
            // across a crash).
            let rivals: Vec<usize> = entries
                .iter()
                .enumerate()
                .filter(|(_, g)| {
                    g.client != token.client
                        && (mode == LeaseMode::Write || g.mode == LeaseMode::Write)
                })
                .map(|(i, _)| i)
                .collect();
            if rivals.iter().any(|&i| entries[i].seq > token.seq) {
                self.stats.reattach_rejected += 1;
                return None;
            }
            for &i in rivals.iter().rev() {
                bury(&mut self.dead, token.fid, entries.remove(i).seq);
                self.stats.reattach_rejected += 1;
            }
        }
        entries.retain(|g| g.client != token.client);
        let expiry_us = now + self.params.term_us;
        entries.push(GrantEntry {
            client: token.client,
            seq: token.seq,
            mode,
            expiry_us,
        });
        self.stats.reattaches += 1;
        Some(LeaseGrant {
            token: LeaseToken {
                epoch: self.epoch,
                ..*token
            },
            mode,
            expiry_us,
        })
    }
}

/// Keeps `seq` as `fid`'s newest grave in `dead`, if it is newer.
fn bury(dead: &mut BTreeMap<FileId, u64>, fid: FileId, seq: u64) {
    let newest = dead.entry(fid).or_insert(seq);
    *newest = (*newest).max(seq);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> (SimClock, LeaseManager) {
        let clock = SimClock::new();
        let m = LeaseManager::new(clock.clone(), LeaseParams::default());
        (clock, m)
    }

    /// A crash and a mount: the manager rebuilt from its record alone.
    fn crash(m: &mut LeaseManager, clock: &SimClock) {
        *m = LeaseManager::from_record(clock.clone(), m.params(), &m.record(), clock.now_us());
    }

    #[test]
    fn read_leases_are_shared_write_is_exclusive() {
        let (clock, mut m) = mgr();
        let now = clock.now_us();
        let f = FileId(1);
        m.try_acquire(now, 1, f, LeaseMode::Read).unwrap();
        m.try_acquire(now, 2, f, LeaseMode::Read).unwrap();
        let conflicts = m.try_acquire(now, 3, f, LeaseMode::Write).unwrap_err();
        assert_eq!(conflicts.len(), 2);
        let conflicts = m.try_acquire(now, 3, f, LeaseMode::Write).unwrap_err();
        for c in conflicts {
            m.fence(f, c.client, c.seq);
        }
        m.try_acquire(now, 3, f, LeaseMode::Write).unwrap();
        // Reads now conflict with the write holder.
        assert!(m.try_acquire(now, 1, f, LeaseMode::Read).is_err());
    }

    #[test]
    fn same_client_upgrade_needs_no_recall() {
        let (clock, mut m) = mgr();
        let f = FileId(1);
        let g1 = m
            .try_acquire(clock.now_us(), 1, f, LeaseMode::Read)
            .unwrap();
        let g2 = m
            .try_acquire(clock.now_us(), 1, f, LeaseMode::Write)
            .unwrap();
        assert_eq!(g2.mode, LeaseMode::Write);
        // The superseded token is dead.
        assert!(!m.validate(&g1.token, false));
        assert!(m.validate(&g2.token, true));
    }

    #[test]
    fn a_lapsed_grant_lives_until_a_rivals_unanswered_recall_fences_it() {
        let (clock, mut m) = mgr();
        let f = FileId(7);
        let g = m
            .try_acquire(clock.now_us(), 1, f, LeaseMode::Write)
            .unwrap();
        clock.advance_to(g.expiry_us + 1);
        assert!(m.validate(&g.token, true), "lapsed, but nobody fenced it");
        assert_eq!(m.stats().recall_timeouts, 0);
        // Client 1 has no recall endpoint: client 2's recall goes
        // unanswered, and the round fences the lapsed grant — at once,
        // since nobody can answer and the term is already out.
        let before = clock.now_us();
        let (rival, acks) = m.acquire(2, f, LeaseMode::Write);
        assert!(acks.is_empty());
        assert_eq!(clock.now_us(), before, "no recall timeout waited");
        assert!(!m.validate(&g.token, true));
        assert!(m.renew(&g.token, clock.now_us()).is_none());
        assert_eq!(m.stats().recall_timeouts, 1);
        assert_eq!(
            m.grant_set(),
            vec![(f, 2, LeaseMode::Write, rival.token.seq)]
        );
    }

    /// A lapsed grant nobody fenced reattaches after a crash; one fenced
    /// before the crash stays dead after it, though the crash forgot the
    /// rival that fenced it.
    #[test]
    fn a_claim_the_server_fenced_before_a_crash_stays_dead() {
        let (clock, mut m) = mgr();
        let (idle, fenced) = (FileId(1), FileId(2));
        let a = m.try_acquire(clock.now_us(), 1, idle, LeaseMode::Write);
        let b = m.try_acquire(clock.now_us(), 1, fenced, LeaseMode::Write);
        let (a, b) = (a.unwrap(), b.unwrap());
        clock.advance_to(b.expiry_us + 1);
        let (rival, _) = m.acquire(2, fenced, LeaseMode::Write);
        m.release(&rival.token);
        crash(&mut m, &clock);
        assert!(m.reattach(clock.now_us(), &a.token, a.mode).is_some());
        assert!(m.reattach(clock.now_us(), &b.token, b.mode).is_none());
        assert_eq!(m.grant_set().len(), 1);
        assert_eq!(m.stats().reattach_rejected, 1);
    }

    /// A reattached grant keeps its `seq` under the new epoch, and a claim
    /// of a `seq` the server never issued is refused: a grant issued after
    /// the window is ordered after every claim taken. Once a rival's
    /// recall has fenced the reattached grant, its claim after a second
    /// crash is refused.
    #[test]
    fn a_reattached_grant_keeps_its_place_in_grant_order() {
        let (clock, mut m) = mgr();
        let f = FileId(4);
        let g = m.try_acquire(clock.now_us(), 1, f, LeaseMode::Write);
        let g = g.unwrap();
        crash(&mut m, &clock);
        let forged = LeaseToken {
            seq: m.epoch() << 32 | 1,
            ..g.token
        };
        assert!(m.reattach(clock.now_us(), &forged, g.mode).is_none());
        let kept = m.reattach(clock.now_us(), &g.token, g.mode);
        let kept = kept.expect("inside the window");
        assert_eq!(kept.token.seq, g.token.seq);
        assert_eq!(kept.token.epoch, g.token.epoch + 1);
        // Client 1 has no recall endpoint: the rival's round waits out
        // the window and the term, then fences the reattached grant.
        let (rival, _) = m.acquire(2, f, LeaseMode::Write);
        assert!(clock.now_us() >= m.reattach_until());
        assert!(rival.token.seq > kept.token.seq);
        assert_eq!(m.dead_seq(f), Some(kept.token.seq));
        m.release(&rival.token);
        crash(&mut m, &clock);
        assert!(m.reattach(clock.now_us(), &kept.token, kept.mode).is_none());
        assert!(m.grant_set().is_empty());
    }

    /// A claim on a server that did not crash renews the grant it still
    /// holds, and is refused once that grant is gone.
    #[test]
    fn a_claim_without_a_crash_confirms_a_held_grant() {
        let (clock, mut m) = mgr();
        let f = FileId(1);
        let g = m.try_acquire(clock.now_us(), 1, f, LeaseMode::Write);
        let g = g.unwrap();
        clock.advance(m.params().term_us);
        let confirmed = m.reattach(clock.now_us(), &g.token, g.mode);
        let confirmed = confirmed.expect("still held");
        assert_eq!(confirmed.token, g.token);
        assert_eq!(confirmed.expiry_us, clock.now_us() + m.params().term_us);
        m.release(&g.token);
        assert!(m.reattach(clock.now_us(), &g.token, g.mode).is_none());
    }

    #[test]
    fn renewal_extends_the_term() {
        let (clock, mut m) = mgr();
        let f = FileId(7);
        let g = m
            .try_acquire(clock.now_us(), 1, f, LeaseMode::Read)
            .unwrap();
        clock.advance(m.params().term_us / 2);
        let new_expiry = m.renew(&g.token, clock.now_us()).unwrap();
        assert!(new_expiry > g.expiry_us);
        clock.advance_to(g.expiry_us + 1);
        assert!(m.validate(&g.token, false));
    }

    #[test]
    fn crash_bumps_epoch_and_reattach_reconstructs() {
        let (clock, mut m) = mgr();
        let f = FileId(3);
        let g = m
            .try_acquire(clock.now_us(), 1, f, LeaseMode::Write)
            .unwrap();
        let before = m.grant_set();
        crash(&mut m, &clock);
        assert!(m.grant_set().is_empty());
        assert!(!m.validate(&g.token, true));
        let g2 = m
            .reattach(clock.now_us(), &g.token, g.mode)
            .expect("inside window, previous epoch");
        assert_eq!(g2.token.epoch, 1);
        let after = m.grant_set();
        assert_eq!(
            before
                .iter()
                .map(|(f, c, m, _)| (*f, *c, *m))
                .collect::<Vec<_>>(),
            after
                .iter()
                .map(|(f, c, m, _)| (*f, *c, *m))
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn reattach_outside_window_or_wrong_epoch_rejected() {
        let (clock, mut m) = mgr();
        let f = FileId(3);
        let g = m
            .try_acquire(clock.now_us(), 1, f, LeaseMode::Read)
            .unwrap();
        crash(&mut m, &clock);
        // A mount that hands out nothing is not an epoch of its own: the
        // claim survives a second crash.
        crash(&mut m, &clock);
        assert_eq!(m.epoch(), 1);
        let g2 = m
            .reattach(clock.now_us(), &g.token, g.mode)
            .expect("the same epoch's claim");
        crash(&mut m, &clock);
        assert!(
            m.reattach(clock.now_us(), &g.token, g.mode).is_none(),
            "two epochs old"
        );
        clock.advance(m.params().term_us + 1);
        assert!(
            m.reattach(clock.now_us(), &g2.token, g2.mode).is_none(),
            "window closed"
        );
        assert_eq!(m.stats().reattach_rejected, 2);
    }

    #[test]
    fn competing_write_reattach_resolves_by_grant_order() {
        let (clock, mut m) = mgr();
        let f = FileId(3);
        let early = m
            .try_acquire(clock.now_us(), 1, f, LeaseMode::Write)
            .unwrap();
        // Client 2 acquired later, after an end of client 1's grant the
        // server keeps no record of.
        clock.advance(10);
        m.release(&early.token);
        let late = m
            .try_acquire(clock.now_us(), 2, f, LeaseMode::Write)
            .unwrap();
        assert!(late.token.seq > early.token.seq);
        crash(&mut m, &clock);
        // The stale claim lands first; the later claim still wins.
        m.reattach(clock.now_us(), &early.token, early.mode)
            .expect("provisionally accepted");
        let winner = m
            .reattach(clock.now_us(), &late.token, late.mode)
            .expect("later grant wins");
        assert_eq!(winner.token.client, 2);
        let set = m.grant_set();
        assert_eq!(set.len(), 1);
        assert_eq!(set[0].1, 2);
    }

    #[test]
    fn competing_write_reattach_rejects_stale_latecomer_too() {
        let (clock, mut m) = mgr();
        let f = FileId(3);
        let early = m
            .try_acquire(clock.now_us(), 1, f, LeaseMode::Write)
            .unwrap();
        clock.advance(10);
        let pending = m
            .try_acquire(clock.now_us(), 2, f, LeaseMode::Write)
            .unwrap_err();
        m.fence(f, pending[0].client, pending[0].seq);
        let late = m
            .try_acquire(clock.now_us(), 2, f, LeaseMode::Write)
            .unwrap();
        crash(&mut m, &clock);
        // Reversed arrival order: the later-granted claim lands first and
        // the stale claim is rejected outright.
        m.reattach(clock.now_us(), &late.token, late.mode)
            .expect("later claim accepted");
        assert!(m
            .reattach(clock.now_us(), &early.token, early.mode)
            .is_none());
        assert_eq!(m.grant_set()[0].1, 2);
    }

    #[test]
    fn write_reattach_fences_every_rival_read() {
        // Regression: two readers reattach first, then a write claim with
        // a later grant arrives. The write must fence BOTH reads —
        // the original code stopped at the first rival, leaving a live
        // read grant alongside the exclusive write.
        let (clock, mut m) = mgr();
        let f = FileId(9);
        let r2 = m
            .try_acquire(clock.now_us(), 2, f, LeaseMode::Read)
            .unwrap();
        let r3 = m
            .try_acquire(clock.now_us(), 3, f, LeaseMode::Read)
            .unwrap();
        // Client 1 acquires the write later, after ends of both reads the
        // server keeps no record of, so clients 2 and 3 still reattach
        // them.
        clock.advance(10);
        m.release(&r2.token);
        m.release(&r3.token);
        let w = m
            .try_acquire(clock.now_us(), 1, f, LeaseMode::Write)
            .unwrap();
        assert!(w.token.seq > r2.token.seq && w.token.seq > r3.token.seq);
        crash(&mut m, &clock);
        // Stale read claims land first and are provisionally accepted.
        m.reattach(clock.now_us(), &r2.token, r2.mode)
            .expect("read reattach accepted");
        m.reattach(clock.now_us(), &r3.token, r3.mode)
            .expect("read reattach accepted");
        // The later-granted write claim fences both.
        let winner = m
            .reattach(clock.now_us(), &w.token, w.mode)
            .expect("later grant wins");
        assert_eq!(winner.mode, LeaseMode::Write);
        let set = m.grant_set();
        assert_eq!(set.len(), 1, "write lease must be exclusive: {set:?}");
        assert_eq!((set[0].1, set[0].2), (1, LeaseMode::Write));
    }

    #[test]
    fn write_reattach_rejected_when_any_rival_is_later() {
        // Mirror case: if even one surviving rival was granted later,
        // the write claim must be rejected and every rival kept.
        let (clock, mut m) = mgr();
        let f = FileId(9);
        let w = m
            .try_acquire(clock.now_us(), 1, f, LeaseMode::Write)
            .unwrap();
        // Readers acquired after the write was recalled: later grants.
        clock.advance(10);
        for c in m
            .try_acquire(clock.now_us(), 2, f, LeaseMode::Read)
            .unwrap_err()
        {
            m.fence(f, c.client, c.seq);
        }
        let r2 = m
            .try_acquire(clock.now_us(), 2, f, LeaseMode::Read)
            .unwrap();
        let r3 = m
            .try_acquire(clock.now_us(), 3, f, LeaseMode::Read)
            .unwrap();
        assert!(r2.token.seq > w.token.seq && r3.token.seq > w.token.seq);
        crash(&mut m, &clock);
        m.reattach(clock.now_us(), &r2.token, r2.mode)
            .expect("read reattach accepted");
        m.reattach(clock.now_us(), &r3.token, r3.mode)
            .expect("read reattach accepted");
        assert!(m.reattach(clock.now_us(), &w.token, w.mode).is_none());
        let set = m.grant_set();
        assert_eq!(set.len(), 2, "both later reads survive: {set:?}");
    }
}
