//! Client-side lease state: the *station*.
//!
//! One station per reachable file server holds what the agent knows of
//! that server's files — one record per file, whatever number of
//! descriptors share it: the file's size, its blocks in the
//! lease-protected block cache and its lease — plus the recall endpoint
//! the server calls back through. A lease is known by its token; the
//! token's grant `seq`, issued by the server and kept by a reattached
//! grant, is all the order a claim or a recall needs.
//!
//! The station makes every client lease decision; the agent only makes
//! the server calls they ask for:
//!
//! * keep, renew past half-term — a lapsed lease too — or acquire; only
//!   the server's refusal of a renewal ends a lease
//!   ([`Station::lease_step`], [`Station::renewed`], [`Station::hold`]);
//! * serve from the cache only under a live lease
//!   ([`Station::authorized`], [`ClientLease::covers`]);
//! * push under the lease's token, cut at the file's size, fence a push
//!   no lease covers, and keep or drop what a failed push leaves
//!   ([`Station::push`], [`Station::trim`], [`Station::unpushed`]);
//! * surrender a recalled delegation's buffered writes, cut at the
//!   file's size ([`Station::serve_recall`]), and drop them when the
//!   server never heard the surrender ([`Station::surrender_lost`]);
//! * claim every lease, a lapsed one too, after a server crash, and keep
//!   or drop each claim by the answer ([`Station::reattach_claims`],
//!   [`Station::reattached`]).
//!
//! A buffered write is lost in one place, which counts it in
//! [`StationStats::fenced_drops`]. `tests/lease_model.rs` checks these
//! rules with the server's [`rhodos_file_service::LeaseManager`]
//! exhaustively on small configurations. The station sits behind an
//! `Arc<Mutex<..>>` because recalls arrive "from the network" — i.e. from
//! inside the server's `lease_acquire` — while the agent is blocked on
//! that very call.
//!
//! Lock order: the server lock is always taken *before* a station lock
//! (the server recalls into stations); the agent therefore never calls
//! the server while holding a station lock.

use parking_lot::Mutex;
use rhodos_buf::BlockBuf;
use rhodos_disk_service::BLOCK_SIZE;
use rhodos_file_service::{
    BlockCache, BlockKey, FileId, FileServiceError, LeaseGrant, LeaseMode, LeaseToken, RecallAck,
    RecallTarget,
};
use rhodos_net::{Delivery, SimNetwork};
use std::collections::HashMap;
use std::sync::Arc;

/// Client cache-coherence policy of a [`crate::FileAgent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LeaseConfig {
    /// Lease-protected caching: reads of a lease-held file are served
    /// from the local cache with **no RPC at all**, writes are buffered
    /// under an exclusive write lease, and the server recalls
    /// delegations on conflicting opens. Coherent across agents.
    #[default]
    Auto,
    /// Leaseless coherent ablation (E22): every read is a server RPC,
    /// every write is pushed write-through. Nothing is cached, so
    /// nothing can go stale.
    Never,
}

/// One lease as the client remembers it.
#[derive(Debug, Clone, Copy)]
pub struct ClientLease {
    /// Token to present on writeback/renew/release/reattach.
    pub token: LeaseToken,
    /// Delegation mode held.
    pub mode: LeaseMode,
    /// When the delegation lapses (shared virtual clock).
    pub expiry_us: u64,
    /// Grant term, for the renew-at-half-term heuristic.
    pub term_us: u64,
}

impl ClientLease {
    /// Whether the lease is live at `now` and covers `want` (a write
    /// lease covers reads).
    pub fn covers(&self, want: LeaseMode, now: u64) -> bool {
        self.expiry_us > now && (want == LeaseMode::Read || self.mode == LeaseMode::Write)
    }
}

/// Per-station counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct StationStats {
    /// Recalls this station answered.
    pub recalls_served: u64,
    /// Delegated (buffered) writes discarded because the lease had
    /// already been fenced when the agent next touched the file.
    pub fenced_drops: u64,
}

/// Client-side lease and cache state for one server.
#[derive(Debug)]
pub struct Station {
    /// This station's client id (the agent's machine number).
    pub client: u64,
    /// Lease-protected block cache.
    pub cache: BlockCache,
    /// Leases held, by file.
    pub leases: HashMap<FileId, ClientLease>,
    /// The size of each file the agent has open — one record however
    /// many descriptors share the file: raised to the server's at every
    /// open, advanced by local writes, replaced by a lease grant, and
    /// dropped at the file's last close.
    pub sizes: HashMap<FileId, u64>,
    /// Partition hook: an unresponsive station ignores recalls, forcing
    /// the server down the timeout-and-fence path.
    pub responsive: bool,
    /// The reply to each file's newest recall (by grant `seq`), so a
    /// retried recall (first reply lost) returns the same surrendered
    /// bytes instead of none. Grant sequence numbers only grow and a
    /// retry is always for the newest recall, so older replies are dead.
    served: HashMap<FileId, (u64, Vec<(u64, BlockBuf)>)>,
    /// Counters.
    pub stats: StationStats,
}

impl Station {
    /// A fresh station for `client`.
    pub fn new(client: u64, cache_blocks: usize) -> Self {
        Self {
            client,
            cache: BlockCache::new(cache_blocks.max(1)),
            leases: HashMap::new(),
            sizes: HashMap::new(),
            responsive: true,
            served: HashMap::new(),
            stats: StationStats::default(),
        }
    }

    /// Whether the station holds a live lease of at least `want` on
    /// `fid` at `now`.
    pub fn authorized(&self, fid: FileId, want: LeaseMode, now: u64) -> bool {
        self.leases.get(&fid).is_some_and(|l| l.covers(want, now))
    }

    /// The file's size as the agent knows it.
    pub fn size(&self, fid: FileId) -> u64 {
        self.sizes.get(&fid).copied().unwrap_or(0)
    }

    /// Raises the file's size to `end`; returns the size before.
    pub fn grow(&mut self, fid: FileId, end: u64) -> u64 {
        let size = self.sizes.entry(fid).or_insert(0);
        let before = *size;
        *size = before.max(end);
        before
    }

    /// The lease step the agent takes before using `fid` for `want` at
    /// `now`: `None` when the held lease covers `want` with more than half
    /// its term left; `Some(Some(token))` to renew a lease that covers
    /// `want` past half-term, or a lapsed one — only the server may end a
    /// lease: it refuses the renewal once a rival's recall has fenced it
    /// ([`Self::renewed`]); `Some(None)` to acquire, when no lease is held
    /// or a live one falls short of `want` (a live lease cannot have been
    /// fenced, so its cache needs no renewal first). After a renewal the
    /// agent acquires only when the renewed lease does not cover `want`
    /// ([`Self::authorized`]).
    pub fn lease_step(&self, fid: FileId, want: LeaseMode, now: u64) -> Option<Option<LeaseToken>> {
        match self.leases.get(&fid) {
            Some(l) if !l.covers(LeaseMode::Read, now) => Some(Some(l.token)),
            Some(l) if l.covers(want, now) => {
                (now + l.term_us / 2 >= l.expiry_us).then_some(Some(l.token))
            }
            _ => Some(None),
        }
    }

    /// Takes the server's answer to a renewal of `fid`'s lease: `true`
    /// when the lease runs on; `false` when the token was dead (fenced,
    /// superseded, pre-crash epoch), which drops the lease as fenced with
    /// everything buffered under it — a fresh grant must not carry writes
    /// the dead one delegated — and the agent must acquire afresh.
    ///
    /// # Errors
    ///
    /// Any other server failure, as given.
    pub fn renewed(
        &mut self,
        fid: FileId,
        reply: Result<u64, FileServiceError>,
    ) -> Result<bool, FileServiceError> {
        let expiry_us = match reply {
            Ok(expiry_us) => expiry_us,
            Err(e) => return self.refused(fid, e),
        };
        if let Some(l) = self.leases.get_mut(&fid) {
            l.expiry_us = expiry_us;
        }
        Ok(true)
    }

    /// A renewal or reattach claim of `fid`'s lease the server refused:
    /// the lease is dead, dropped as fenced. Any other failure is given
    /// back as it is.
    fn refused(&mut self, fid: FileId, e: FileServiceError) -> Result<bool, FileServiceError> {
        match e {
            FileServiceError::LeaseRejected(_) | FileServiceError::LeaseFenced(_) => {
                self.drop_fenced(fid, 0);
                Ok(false)
            }
            e => Err(e),
        }
    }

    /// Holds a grant: records it, with the term it runs for from `now`.
    pub fn hold(&mut self, grant: &LeaseGrant, now: u64) {
        self.leases.insert(
            grant.token.fid,
            ClientLease {
                token: grant.token,
                mode: grant.mode,
                expiry_us: grant.expiry_us,
                term_us: grant.expiry_us.saturating_sub(now),
            },
        );
    }

    /// Gives up everything held for `fid` under a lease: the lease and
    /// every cached block. Returns the dirty blocks among them.
    fn surrender(&mut self, fid: FileId) -> Vec<(BlockKey, BlockBuf)> {
        self.leases.remove(&fid);
        let dirty = self.cache.take_dirty_for(fid);
        self.cache.invalidate_file(fid);
        dirty
    }

    /// The one place buffered writes are lost: surrenders `fid` and
    /// counts its dirty blocks, plus `pushed` blocks already taken out of
    /// the cache for a push the lease no longer covers, as fenced drops.
    fn drop_fenced(&mut self, fid: FileId, pushed: usize) {
        let dropped = self.surrender(fid).len();
        self.stats.fenced_drops += (pushed + dropped) as u64;
    }

    /// The server never heard this station's surrender of grant `seq` on
    /// `fid` — every reply was lost — so it waits the grant out and fences
    /// it: the surrendered writes are dropped with it.
    pub fn surrender_lost(&mut self, fid: FileId, seq: u64) {
        let lost = self.served.get(&fid).filter(|(s, _)| *s == seq);
        if let Some(lost) = lost.map(|(_, runs)| runs.len()) {
            self.drop_fenced(fid, lost);
        }
    }

    /// The token a push of `fid`'s buffered blocks is written under.
    /// Without one — the delegation was recalled or refused while the
    /// blocks sat buffered — the push is fenced.
    ///
    /// # Errors
    ///
    /// [`FileServiceError::LeaseFenced`]; the caller hands it to
    /// [`Self::unpushed`].
    pub fn push(&self, fid: FileId) -> Result<LeaseToken, FileServiceError> {
        self.leases
            .get(&fid)
            .map(|l| l.token)
            .ok_or(FileServiceError::LeaseFenced(fid))
    }

    /// A push of `fid`'s `blocks` failed with `err`. Fenced: the server
    /// granted the file away past our silence, so the blocks and
    /// everything still buffered for the file are dropped. Otherwise the
    /// blocks are dirty again — newest version first: of a block evicted
    /// twice the last one is kept, and a resident one outranks both — so
    /// a retried `flush` pushes them.
    pub fn unpushed(
        &mut self,
        fid: FileId,
        blocks: &[(BlockKey, BlockBuf)],
        err: &FileServiceError,
    ) {
        if let FileServiceError::LeaseFenced(_) = err {
            self.drop_fenced(fid, blocks.len());
        } else {
            for (k, b) in blocks.iter().rev() {
                self.cache.restore_dirty(*k, b.clone());
            }
        }
    }

    /// The leases to re-present to a rebooted server, one per file — a
    /// lapsed one too: the server refuses a claim it fenced before the
    /// crash ([`rhodos_file_service::LeaseManager::reattach`]).
    pub fn reattach_claims(&self) -> Vec<ClientLease> {
        self.leases.values().copied().collect()
    }

    /// Takes the server's answer to a reattach claim on `fid`: `true` when
    /// the grant was reconstructed (the cached blocks stay — that is the
    /// point of reattaching); `false` when the claim was rejected (window
    /// closed, fenced before the crash, a rival granted later), which
    /// drops the lease, buffered writes and cached blocks as fenced.
    ///
    /// # Errors
    ///
    /// Any other server failure, as given.
    pub fn reattached(
        &mut self,
        fid: FileId,
        claim: Result<LeaseGrant, FileServiceError>,
        now: u64,
    ) -> Result<bool, FileServiceError> {
        match claim {
            Ok(grant) => {
                self.hold(&grant, now);
                Ok(true)
            }
            Err(e) => self.refused(fid, e),
        }
    }

    /// Cuts buffered blocks of `fid` into the `(offset, bytes)` runs to
    /// write: each ends at the file's size, so a partial tail block does
    /// not inflate the file, and a block wholly past it is left out.
    pub fn trim(&self, fid: FileId, blocks: &[(BlockKey, BlockBuf)]) -> Vec<(u64, BlockBuf)> {
        let size = self.size(fid);
        blocks
            .iter()
            .filter_map(|((_, idx), block)| {
                let start = idx * BLOCK_SIZE as u64;
                let len = (BLOCK_SIZE as u64).min(size.saturating_sub(start)) as usize;
                (len > 0).then(|| (start, block.slice(0..len)))
            })
            .collect()
    }

    /// Handles one recall request (idempotently): surrenders the lease
    /// and the file's cached blocks, handing back the buffered delayed
    /// writes as runs cut at the file's size.
    pub fn serve_recall(&mut self, fid: FileId, seq: u64) -> RecallAck {
        if let Some((_, runs)) = self.served.get(&fid).filter(|(s, _)| *s == seq) {
            // Retried recall (our earlier reply was lost): same answer.
            return RecallAck { runs: runs.clone() };
        }
        // A recall for a grant we no longer (or never) hold surrenders
        // nothing.
        let holds = self.leases.get(&fid).is_some_and(|l| l.token.seq == seq);
        let runs = if holds {
            let dirty = self.surrender(fid);
            self.trim(fid, &dirty)
        } else {
            Vec::new()
        };
        self.served.insert(fid, (seq, runs.clone()));
        self.stats.recalls_served += 1;
        RecallAck { runs }
    }
}

/// The server-side endpoint of one station's recall channel: owns the
/// (lossy) network lane the server uses to reach the client and retries
/// the two-leg exchange a bounded number of times.
pub struct StationEndpoint {
    station: Arc<Mutex<Station>>,
    net: SimNetwork,
    max_attempts: u32,
}

impl StationEndpoint {
    /// A recall endpoint for `station` over `net`.
    pub fn new(station: Arc<Mutex<Station>>, net: SimNetwork) -> Self {
        Self {
            station,
            net,
            max_attempts: 4,
        }
    }
}

impl RecallTarget for StationEndpoint {
    fn client_id(&self) -> u64 {
        self.station.lock().client
    }

    fn recall(&mut self, fid: FileId, seq: u64) -> Option<RecallAck> {
        if !self.station.lock().responsive {
            // Partitioned client: the server pays the recall timeout.
            return None;
        }
        let mut served = false;
        for _ in 0..self.max_attempts {
            // Server → client leg; each copy of a duplicated request is
            // served.
            let Delivery::Delivered { copies } = self.net.transmit() else {
                continue;
            };
            served = true;
            let ack = {
                let mut st = self.station.lock();
                (1..copies).for_each(|_| drop(st.serve_recall(fid, seq)));
                st.serve_recall(fid, seq)
            };
            // Client → server leg. A lost reply retries the whole
            // exchange; serve_recall is idempotent, so the retried
            // request returns the same surrendered bytes.
            if self.net.transmit_reply() != Delivery::Lost {
                return Some(ack);
            }
        }
        if served {
            self.station.lock().surrender_lost(fid, seq);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhodos_file_service::{LeaseManager, LeaseParams};
    use rhodos_net::NetConfig;
    use rhodos_simdisk::SimClock;

    fn grant(st: &mut Station, fid: FileId, seq: u64) {
        let token = LeaseToken {
            client: st.client,
            fid,
            epoch: 0,
            seq,
        };
        st.leases.insert(
            fid,
            ClientLease {
                token,
                mode: LeaseMode::Write,
                expiry_us: u64::MAX,
                term_us: 2_000_000,
            },
        );
    }

    fn block(value: u8) -> BlockBuf {
        let mut block = BlockBuf::zeroed(BLOCK_SIZE);
        block.make_mut()[0] = value;
        block
    }

    #[test]
    fn served_replies_stay_bounded_by_the_file_count_and_retries_replay() {
        let mut st = Station::new(1, 16);
        // 10 000 write -> conflicting-open cycles over 4 files: each one
        // is a fresh write grant, a buffered block, and its recall.
        for seq in 1..=10_000u64 {
            let fid = FileId(seq % 4);
            grant(&mut st, fid, seq);
            let _ = st.cache.insert((fid, 0), block(seq as u8), true);
            st.sizes.insert(fid, BLOCK_SIZE as u64);
            let ack = st.serve_recall(fid, seq);
            assert_eq!(ack.runs.len(), 1);
            assert_eq!(ack.runs[0].1[0], seq as u8);
            // The reply leg is lost: the retried recall must hand back
            // the same surrendered bytes, not the (now empty) cache.
            let retry = st.serve_recall(fid, seq);
            assert_eq!(retry.runs.len(), 1);
            assert_eq!(retry.runs[0].0, ack.runs[0].0);
            assert_eq!(retry.runs[0].1[..], ack.runs[0].1[..]);
            assert!(st.served.len() <= 4, "served grew to {}", st.served.len());
        }
        assert_eq!(st.stats.recalls_served, 10_000, "retries are not recounted");
    }

    /// A push no lease covers is fenced: the blocks taken out for it and
    /// everything the file still buffers are dropped and counted, and
    /// another file's buffer is left alone.
    #[test]
    fn a_push_with_no_lease_is_fenced_and_drops_the_files_whole_buffer() {
        let mut st = Station::new(1, 16);
        let (fid, other) = (FileId(5), FileId(6));
        // Two blocks taken out for a push; one more still buffered.
        let pushed = [((fid, 0), block(1)), ((fid, 1), block(2))];
        let _ = st.cache.insert((fid, 2), block(3), true);
        let _ = st.cache.insert((other, 0), block(4), true);
        let err = st.push(fid).unwrap_err();
        assert!(matches!(err, FileServiceError::LeaseFenced(f) if f == fid));
        st.unpushed(fid, &pushed, &err);
        assert_eq!(st.stats.fenced_drops, 3);
        assert!(st.cache.peek(&(fid, 2)).is_none());
        assert_eq!(st.cache.dirty_blocks(), 1, "the other file keeps its block");
    }

    /// A write lease reattached after a crash keeps its grant `seq`, which
    /// no grant before it had: a rival's recall of it surrenders the bytes
    /// buffered under it, not a replay of the reply the station gave an
    /// earlier recall of the file.
    #[test]
    fn a_recall_of_a_reattached_lease_surrenders_its_buffered_bytes() {
        let clock = SimClock::new();
        let mut mgr = LeaseManager::new(clock.clone(), LeaseParams::default());
        let station = Arc::new(Mutex::new(Station::new(1, 16)));
        let attach = |mgr: &mut LeaseManager| {
            let net = SimNetwork::new(clock.clone(), NetConfig::in_process());
            mgr.attach(Box::new(StationEndpoint::new(station.clone(), net)));
        };
        // A crash and a mount: the manager rebuilt from its record, the
        // endpoint (wiring) attached again.
        let crash = |mgr: &mut LeaseManager| {
            let now = clock.now_us();
            *mgr = LeaseManager::from_record(clock.clone(), mgr.params(), &mgr.record(), now);
            attach(mgr);
        };
        attach(&mut mgr);
        let fid = FileId(5);
        let write_under = |grant: &LeaseGrant, value: u8| {
            let mut st = station.lock();
            st.hold(grant, clock.now_us());
            st.grow(fid, BLOCK_SIZE as u64);
            let _ = st.cache.insert((fid, 0), block(value), true);
        };
        // A first delegation, recalled by client 2: the station keeps the
        // reply for a retry.
        let (first, _) = mgr.acquire(1, fid, LeaseMode::Write);
        write_under(&first, 1);
        let (rival, acks) = mgr.acquire(2, fid, LeaseMode::Write);
        assert_eq!(acks[0].runs[0].1[0], 1);
        mgr.release(&rival.token);
        // A crash, then a second delegation that buffers newer bytes
        // across another crash.
        crash(&mut mgr);
        let (second, _) = mgr.acquire(1, fid, LeaseMode::Write);
        write_under(&second, 2);
        crash(&mut mgr);
        let claims = station.lock().reattach_claims();
        let claim = mgr.reattach(clock.now_us(), &claims[0].token, claims[0].mode);
        let claim = claim.ok_or(FileServiceError::LeaseRejected(fid));
        assert!(station
            .lock()
            .reattached(fid, claim, clock.now_us())
            .unwrap());
        assert_eq!(station.lock().leases[&fid].token.seq, second.token.seq);
        let (_, acks) = mgr.acquire(2, fid, LeaseMode::Write);
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].runs.len(), 1);
        assert_eq!(acks[0].runs[0].1[0], 2, "the bytes buffered now");
        assert_eq!(station.lock().stats.fenced_drops, 0);
    }
}
