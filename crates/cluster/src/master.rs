//! The placement/metadata master and its data servers.
//!
//! One [`Cluster`] owns N shards, each a replica set of
//! [`ClusterConfig::replicas`] data servers. Each server is a full
//! transaction-service stack reached through its own lossy channel
//! speaking the wire protocol — every data operation is encoded, retried
//! with backoff, executed at most once per request id, and answered
//! through the server's replay cache. How a request meets the members of
//! a set (fan-out, rotation, masking, resync) is `replica_set.rs`'s
//! decision; this file owns placement and liveness.
//!
//! The master's own state is deliberately small, in the paper's
//! "nearly stateless" spirit: the placement map (file → home shard),
//! the placement epoch, per-file heat counters, and the heartbeat
//! bookkeeping. Everything else lives with the data servers.

use parking_lot::Mutex;
use rhodos_file_service::{
    FileAttributes, FileId, FileService, FileServiceConfig, FileServiceError, ServiceType,
};
use rhodos_net::{Delivery, NetConfig};
use rhodos_replication::wire::{decode_attributes, decode_created, Channel, Request};
use rhodos_simdisk::{fnv1a, DiskGeometry, LatencyModel, SimClock, FNV_OFFSET};
use rhodos_txn::{TransactionService, TxnConfig};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// A data server shared between the cluster master and any co-located
/// clients (`FileAgent` uses the same handle type).
pub type ServerHandle = Arc<Mutex<TransactionService>>;

/// Tunables of the cluster.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Disk geometry of each data server.
    pub geometry: DiskGeometry,
    /// Disk latency model of each data server.
    pub latency: LatencyModel,
    /// File-service tunables of each data server.
    pub fs: FileServiceConfig,
    /// Transaction-service tunables of each data server.
    pub txn: TxnConfig,
    /// Channel behaviour to each data server (per-server seeds are
    /// decorrelated, as across independent links).
    pub data_net: NetConfig,
    /// Members per shard (r): each shard is r data servers kept in
    /// lock-step. The default 1 makes a shard one server.
    pub replicas: usize,
}

/// Virtual time between heartbeat rounds.
const HEARTBEAT_INTERVAL_US: u64 = 50_000;
/// Consecutive missed heartbeats before a server is marked dead.
const HEARTBEAT_MISS_LIMIT: u32 = 3;
/// Bytes copied per migration RPC.
const MIGRATE_CHUNK: usize = 8192;
/// A rebalance round starts migrating when the hottest server holds more
/// than this percentage of the total load.
const REBALANCE_TRIGGER_PCT: u64 = 40;
/// Upper bound on migrations per [`Cluster::rebalance`] call.
const MAX_MIGRATIONS_PER_ROUND: usize = 8;

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            geometry: DiskGeometry::medium(),
            latency: LatencyModel::instant(),
            fs: FileServiceConfig::default(),
            txn: TxnConfig::default(),
            data_net: NetConfig::reliable(),
            replicas: 1,
        }
    }
}

/// Why a cluster operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// No placement recorded for this cluster file id.
    UnknownFile(u64),
    /// Every data server is dead, removed, or unreachable.
    NoLiveServers,
    /// The data server is currently marked dead.
    ServerUnavailable(usize),
    /// The channel to the server exhausted its retries.
    Unreachable(usize),
    /// The server was decommissioned.
    Removed(usize),
    /// A semantic file-service error from the home server.
    File(FileServiceError),
    /// A migrated copy failed its fingerprint check; the migration was
    /// rolled back.
    MigrationCorrupt {
        /// The cluster file id whose copy failed verification.
        gid: u64,
        /// Fingerprint of the source bytes.
        expected: u64,
        /// Fingerprint read back from the target.
        got: u64,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownFile(gid) => write!(f, "unknown cluster file {gid}"),
            Self::NoLiveServers => write!(f, "no live data servers"),
            Self::ServerUnavailable(i) => write!(f, "data server {i} is marked dead"),
            Self::Unreachable(i) => write!(f, "data server {i} unreachable"),
            Self::Removed(i) => write!(f, "data server {i} was decommissioned"),
            Self::File(e) => write!(f, "file service: {e}"),
            Self::MigrationCorrupt { gid, expected, got } => write!(
                f,
                "migrated copy of file {gid} failed verification \
                 (expected {expected:#018x}, got {got:#018x})"
            ),
        }
    }
}

impl Error for ClusterError {}

impl From<FileServiceError> for ClusterError {
    fn from(e: FileServiceError) -> Self {
        Self::File(e)
    }
}

/// Counters of cluster behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Files created.
    pub creates: u64,
    /// Files deleted.
    pub deletes: u64,
    /// Read operations served.
    pub reads: u64,
    /// Write operations served.
    pub writes: u64,
    /// Bytes returned by reads.
    pub bytes_read: u64,
    /// Bytes accepted by writes.
    pub bytes_written: u64,
    /// Completed migrations.
    pub migrations: u64,
    /// Bytes moved by migrations.
    pub migrated_bytes: u64,
    /// Migrations that aborted (unreachable target, busy source, failed
    /// verification) and were rolled back.
    pub migrations_aborted: u64,
    /// Heartbeat probes sent.
    pub heartbeats: u64,
    /// Heartbeat probes that went unanswered.
    pub heartbeat_misses: u64,
    /// Servers marked dead.
    pub deaths: u64,
    /// Dead servers that rejoined.
    pub rejoins: u64,
    /// Orphaned local files garbage-collected on rejoin.
    pub orphans_collected: u64,
    /// Shards added at runtime.
    pub servers_added: u64,
    /// Shards decommissioned.
    pub servers_removed: u64,
    /// Cross-shard transactions committed by the 2PC coordinator.
    pub cross_commits: u64,
    /// Cross-shard transactions aborted (voted no, unreachable
    /// participant, or presumed abort).
    pub cross_aborts: u64,
    /// Prepare RPCs sent; each may carry a whole wave of transactions.
    pub prepare_rpcs: u64,
    /// Decision-log forces; batched decisions share one force.
    pub decision_forces: u64,
    /// Commit attempts re-targeted after a placement-epoch change
    /// struck mid-prepare.
    pub retargets: u64,
    /// Coordinator recoveries (decision-log replays plus orphan sweep).
    pub coordinator_recoveries: u64,
    /// In-doubt participants resolved by the orphan sweep.
    pub orphan_resolutions: u64,
    /// Set members masked out of step: a fault struck them mid-call, or
    /// a mutation went on without them.
    pub failovers: u64,
    /// Members brought back in step by [`Cluster::resync`].
    pub resyncs: u64,
    /// Sectors copied onto returning members by [`Cluster::resync`].
    pub resync_sectors_copied: u64,
    /// Latent faults one member's scrub could not repair locally that
    /// were healed from a set peer by [`Cluster::scrub`].
    pub peer_repairs: u64,
}

/// Outcome of one [`Cluster::rebalance`] round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Files migrated this round.
    pub migrated: u64,
    /// Bytes moved this round.
    pub bytes: u64,
    /// Migrations attempted but rolled back.
    pub aborted: u64,
}

/// Where a cluster file lives. Set members allocate file ids in
/// lock-step, so one local id names the file on every member.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placement {
    pub(crate) shard: usize,
    pub(crate) local: FileId,
    /// Opens issued through the master and not yet closed: a restarted
    /// member gets this many back, so its count matches its peers'.
    opens: u32,
}

/// What crosses the link to a data server ([`Cluster::set_link`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Requests and replies.
    Up,
    /// Nothing.
    Down,
    /// Requests only: the server runs each request, and its reply is lost.
    RepliesLost,
}

/// One data server as the master sees it.
pub(crate) struct DataNode {
    pub(crate) handle: ServerHandle,
    chan: Channel,
    /// Fault injection: what crosses the link.
    link: Link,
    /// False while the server cannot mount its platters: it answers
    /// nothing until a restart mounts it.
    pub(crate) mounted: bool,
    /// Master's liveness verdict.
    pub(crate) alive: bool,
    missed: u32,
    pub(crate) removed: bool,
    /// Out of step with its set: skipped by every request until
    /// [`Cluster::resync`] copies it back.
    pub(crate) stale: bool,
    /// Reads this member served.
    reads: u64,
}

impl fmt::Debug for DataNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataNode")
            .field("link", &self.link)
            .field("mounted", &self.mounted)
            .field("alive", &self.alive)
            .field("missed", &self.missed)
            .field("removed", &self.removed)
            .field("stale", &self.stale)
            .finish_non_exhaustive()
    }
}

/// The placement/metadata master.
#[derive(Debug)]
pub struct Cluster {
    pub(crate) clock: SimClock,
    pub(crate) cfg: ClusterConfig,
    /// Every data server; shard `s` is `nodes[s * r..(s + 1) * r]`.
    pub(crate) nodes: Vec<DataNode>,
    /// Per shard, the member that served the last single-member request
    /// (an absolute index, so the rotation stays even while the set of
    /// serving members changes).
    pub(crate) last_read: Vec<usize>,
    map: BTreeMap<u64, Placement>,
    next_gid: u64,
    epoch: u64,
    heat: BTreeMap<u64, u64>,
    /// Local copies to delete once their server is reachable again
    /// (aborted migrations, deletes issued while the server was dead).
    pending_gc: Vec<(usize, FileId)>,
    /// The 2PC coordinator's durable commit-decision records (presumed
    /// abort: absence of a record is an abort).
    pub(crate) decision_log: crate::commit::DecisionLog,
    /// Next global (cross-shard) transaction id.
    pub(crate) next_gtid: u64,
    pub(crate) stats: ClusterStats,
}

impl Cluster {
    /// Creates a cluster of `n` shards of `cfg.replicas` freshly
    /// formatted data servers each, all sharing one virtual clock.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `cfg.replicas` is zero or a data server fails to
    /// format.
    pub fn new(n: usize, cfg: ClusterConfig) -> Self {
        assert!(n > 0, "need at least one shard");
        assert!(cfg.replicas > 0, "a shard needs at least one member");
        let clock = SimClock::new();
        let mut cluster = Self {
            clock,
            cfg,
            nodes: Vec::new(),
            last_read: Vec::new(),
            map: BTreeMap::new(),
            next_gid: 1,
            epoch: 0,
            heat: BTreeMap::new(),
            pending_gc: Vec::new(),
            decision_log: crate::commit::DecisionLog::default(),
            next_gtid: 1,
            stats: ClusterStats::default(),
        };
        for _ in 0..n {
            cluster.push_shard();
        }
        cluster
    }

    fn push_shard(&mut self) -> usize {
        let s = self.last_read.len();
        for _ in 0..self.cfg.replicas {
            self.push_node();
        }
        // One before the first member, so the first read lands on it.
        self.last_read.push(self.nodes.len() - 1);
        s
    }

    fn push_node(&mut self) {
        let i = self.nodes.len();
        let fs = FileService::single_disk(
            self.cfg.geometry,
            self.cfg.latency,
            self.clock.clone(),
            self.cfg.fs,
        )
        .expect("data server formats");
        let handle: ServerHandle = Arc::new(Mutex::new(
            TransactionService::new(fs, self.cfg.txn).expect("transaction service starts"),
        ));
        self.nodes.push(DataNode {
            handle,
            chan: Channel::new(self.clock.clone(), self.cfg.data_net, i),
            link: Link::Up,
            mounted: true,
            alive: true,
            missed: 0,
            removed: false,
            stale: false,
            reads: 0,
        });
    }

    // ---- accessors -----------------------------------------------------

    /// The shared virtual clock.
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Counters so far.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// The current placement epoch: bumped by every placement mutation
    /// (create, delete, migration), and re-checked by the 2PC
    /// coordinator before it decides.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The data servers of shard `s`.
    pub(crate) fn members(&self, s: usize) -> std::ops::Range<usize> {
        let r = self.cfg.replicas;
        s * r..(s + 1) * r
    }

    /// Number of shards, including removed ones.
    pub(crate) fn shard_count(&self) -> usize {
        self.last_read.len()
    }

    /// Handle to data server `i`, for co-located clients. A co-located
    /// client writes to one server only and resolves files by shard, so
    /// it is offered on one-member shards only, where server and shard
    /// indices agree; inspect a member of a larger set with
    /// [`Self::with_server`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or shards have more than one
    /// member.
    pub fn server_handle(&self, i: usize) -> ServerHandle {
        self.assert_one_member_shards();
        self.nodes[i].handle.clone()
    }

    fn assert_one_member_shards(&self) {
        assert_eq!(
            self.cfg.replicas, 1,
            "a co-located handle would reach one member of a replica set"
        );
    }

    /// Runs `f` on data server `i`'s file service, out of band (fault
    /// injection and inspection).
    pub fn with_server<R>(&self, i: usize, f: impl FnOnce(&mut FileService) -> R) -> R {
        f(self.nodes[i].handle.lock().file_service_mut())
    }

    /// Every data server handle in index order, for inspecting the
    /// servers out of band (the counters of each server's file service).
    ///
    /// # Panics
    ///
    /// As [`Self::server_handle`], when shards have more than one
    /// member.
    pub fn server_handles(&self) -> Vec<ServerHandle> {
        self.assert_one_member_shards();
        self.nodes.iter().map(|n| n.handle.clone()).collect()
    }

    /// Number of data servers, including dead and removed ones.
    pub fn server_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of servers currently considered live.
    pub fn live_servers(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive && !n.removed).count()
    }

    /// Whether the master currently considers server `i` live.
    pub fn is_alive(&self, i: usize) -> bool {
        self.nodes[i].alive && !self.nodes[i].removed
    }

    /// Whether server `i` holds its set's current copy (false while it
    /// waits for a [`Self::resync`]).
    pub fn is_current(&self, i: usize) -> bool {
        !self.nodes[i].stale
    }

    /// Reads server `i` served.
    pub fn server_reads(&self, i: usize) -> u64 {
        self.nodes[i].reads
    }

    /// The channel to server `i`, whose counters tell its RPC, replay
    /// and network story.
    pub fn channel(&self, i: usize) -> &Channel {
        &self.nodes[i].chan
    }

    /// Fault injection: what crosses the link to server `i` from now on
    /// — everything, nothing, or the requests alone (a one-way partition).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_link(&mut self, i: usize, link: Link) {
        self.nodes[i].link = link;
    }

    /// Current home shard of a cluster file, with its local id.
    pub fn placement_of(&self, gid: u64) -> Option<(usize, FileId)> {
        self.map.get(&gid).map(|p| (p.shard, p.local))
    }

    /// Files currently placed on shard `s`.
    pub fn files_on(&self, s: usize) -> usize {
        self.map.values().filter(|p| p.shard == s).count()
    }

    /// Accumulated heat (operation count) of shard `s`: the sum over
    /// its files of `1 + per-file heat`.
    pub fn server_load(&self, s: usize) -> u64 {
        self.map
            .iter()
            .filter(|(_, p)| p.shard == s)
            .map(|(gid, _)| 1 + self.heat.get(gid).copied().unwrap_or(0))
            .sum()
    }

    /// Local copies awaiting garbage collection (0 in steady state).
    pub fn pending_gc(&self) -> usize {
        self.pending_gc.len()
    }

    /// Recorded replies currently held by server `i`'s replay cache.
    pub fn replay_entries(&self, i: usize) -> usize {
        self.nodes[i].chan.cache.len()
    }

    /// Attempts per RPC before a data server is declared unreachable.
    pub fn set_max_attempts(&mut self, attempts: u32) {
        for n in &mut self.nodes {
            n.chan.client.max_attempts = attempts;
        }
    }

    // ---- the wire ------------------------------------------------------

    /// One request to data server `i` over its at-most-once channel. The
    /// endpoint is transaction-aware: 2PC opcodes are dispatched against
    /// the server's whole [`TransactionService`], plain file ops fall
    /// through to the file-service loop.
    pub(crate) fn call_node(&mut self, i: usize, req: &[u8]) -> Result<Vec<u8>, ClusterError> {
        let node = &mut self.nodes[i];
        if node.removed {
            return Err(ClusterError::Removed(i));
        }
        if node.link == Link::Down || !node.mounted {
            // The client times out against a severed link or a server
            // that is down; that timeout is heartbeat evidence too.
            node.missed = node.missed.saturating_add(1);
            return Err(ClusterError::Unreachable(i));
        }
        let handle = node.handle.clone();
        let mut guard = handle.lock();
        let mut served = node
            .chan
            .call_serve(req, |r| crate::commit::serve_txn(&mut guard, r));
        if node.link == Link::RepliesLost {
            // The request ran; its reply never arrives.
            served = Err(None);
        }
        match served {
            Ok(payload) => Ok(payload),
            Err(None) => {
                node.missed = node.missed.saturating_add(1);
                Err(ClusterError::Unreachable(i))
            }
            Err(Some(e)) => Err(ClusterError::File(e)),
        }
    }

    /// Fault injection: crash data server `i` — volatile caches and the
    /// unflushed log tail vanish, then local recovery replays the
    /// durable log (rebuilding any in-doubt prepared participants). The
    /// server's replay cache dies with the machine. A set member whose
    /// peers still serve is masked, since they kept delayed writes it
    /// lost: the next heartbeat it answers resyncs it from them. A server
    /// that cannot mount its platters stays down — calls to it fail as
    /// unreachable and heartbeats miss it — until a later restart mounts
    /// it, or, for a masked set member, until a heartbeat resyncs it from
    /// a current peer.
    pub fn crash_server(&mut self, i: usize) {
        let _ = self.restart(i);
        if !self.nodes[i].stale && self.has_serving_peer(i) {
            self.mask(i);
        }
    }

    /// Crashes and recovers server `i` in place: what survives is its
    /// platters, and every open the master issued comes back (open
    /// counts are volatile server state).
    ///
    /// # Errors
    ///
    /// The recovery's failure, when the platters do not mount; the
    /// server is down until a restart mounts it.
    pub(crate) fn restart(&mut self, i: usize) -> Result<(), ClusterError> {
        let handle = self.nodes[i].handle.clone();
        let mut guard = handle.lock();
        guard.file_service_mut().simulate_crash();
        self.nodes[i].chan.cache = rhodos_net::ReplayCache::new();
        let recovered = guard.recover();
        self.nodes[i].mounted = recovered.is_ok();
        recovered.map_err(|e| ClusterError::File(crate::commit::file_failure(e)))?;
        let s = i / self.cfg.replicas;
        for p in self.map.values().filter(|p| p.shard == s) {
            for _ in 0..p.opens {
                let _ = guard.file_service_mut().open(p.local);
            }
        }
        Ok(())
    }

    /// Checkpoints every data server ([`TransactionService::sync`]): its
    /// pool's dirty blocks — plain (non-transactional) writes and the
    /// committed records the log still covers alike — go to disk, and
    /// so do its log's unforced markers, so plain writes are
    /// crash-durable, no older committed record is replayed over them,
    /// and resolved votes stay resolved. Chaos tests and experiments call
    /// this after seeding baseline data, before any
    /// [`Self::crash_server`]. A commit is durable without it: its log
    /// record is forced before the acknowledgement. The servers
    /// checkpoint in parallel, one lane each.
    pub fn sync_all(&mut self) {
        let mut lanes = self.clock.lanes();
        for (i, n) in self.nodes.iter().enumerate() {
            lanes.lane(i, || {
                let _ = n.handle.lock().sync();
            });
        }
        lanes.join();
    }

    /// Accounting for a committed cross-shard transaction's writes.
    pub(crate) fn note_cross_writes(&mut self, ops: &[(u64, u64, Vec<u8>)]) {
        for (gid, _, data) in ops {
            *self.heat.entry(*gid).or_insert(0) += 1;
            self.stats.writes += 1;
            self.stats.bytes_written += data.len() as u64;
        }
    }

    /// Fails unless shard `s` has a current, live member.
    fn require_live(&self, s: usize) -> Result<(), ClusterError> {
        let first = self.members(s).start;
        if self.nodes[first].removed {
            return Err(ClusterError::Removed(first));
        }
        if self.members(s).any(|i| self.serves(i)) {
            Ok(())
        } else {
            Err(ClusterError::ServerUnavailable(first))
        }
    }

    pub(crate) fn resolve(&self, gid: u64) -> Result<Placement, ClusterError> {
        self.map
            .get(&gid)
            .copied()
            .ok_or(ClusterError::UnknownFile(gid))
    }

    fn resolve_mut(&mut self, gid: u64) -> Result<&mut Placement, ClusterError> {
        self.map.get_mut(&gid).ok_or(ClusterError::UnknownFile(gid))
    }

    // ---- namespace operations -----------------------------------------

    /// Creates a file on the least-loaded live shard and returns its
    /// cluster id.
    pub fn create(&mut self) -> Result<u64, ClusterError> {
        let target = self
            .live_shards()
            .into_iter()
            .min_by_key(|&s| (self.files_on(s), s))
            .ok_or(ClusterError::NoLiveServers)?;
        let reply = self.call_all(target, &Request::Create(ServiceType::Basic))?;
        let local = decode_created(&reply)?;
        let gid = self.next_gid;
        self.next_gid += 1;
        self.map.insert(
            gid,
            Placement {
                shard: target,
                local,
                opens: 0,
            },
        );
        self.stats.creates += 1;
        self.epoch += 1;
        Ok(gid)
    }

    /// Opens a cluster file on every member of its home shard.
    pub fn open(&mut self, gid: u64) -> Result<(), ClusterError> {
        let p = self.resolve(gid)?;
        self.call_all(p.shard, &Request::Open(p.local))?;
        self.resolve_mut(gid)?.opens += 1;
        Ok(())
    }

    /// Closes a cluster file on every member of its home shard.
    pub fn close(&mut self, gid: u64) -> Result<(), ClusterError> {
        let p = self.resolve(gid)?;
        self.call_all(p.shard, &Request::Close(p.local))?;
        let p = self.resolve_mut(gid)?;
        p.opens = p.opens.saturating_sub(1);
        Ok(())
    }

    /// Moves the open count of `local` on shard `s` from `from` to `to`,
    /// one open or close per step.
    fn step_opens(
        &mut self,
        s: usize,
        local: FileId,
        from: u32,
        to: u32,
    ) -> Result<(), ClusterError> {
        let step = if to > from {
            Request::Open(local)
        } else {
            Request::Close(local)
        };
        for _ in 0..from.abs_diff(to) {
            self.call_all(s, &step)?;
        }
        Ok(())
    }

    /// Deletes a cluster file. If its home shard is dead or
    /// unreachable, the mapping is removed immediately and the local
    /// copy is garbage-collected when a member next answers a
    /// heartbeat.
    pub fn delete(&mut self, gid: u64) -> Result<(), ClusterError> {
        let p = self.resolve(gid)?;
        if self.live_shards().contains(&p.shard) {
            self.step_opens(p.shard, p.local, p.opens, 0)?;
            match self.call_all(p.shard, &Request::Delete(p.local)) {
                Ok(_) => {}
                Err(ClusterError::Unreachable(_)) => {
                    self.pending_gc.push((p.shard, p.local));
                }
                Err(e) => return Err(e),
            }
        } else {
            self.pending_gc.push((p.shard, p.local));
        }
        self.map.remove(&gid);
        self.heat.remove(&gid);
        self.stats.deletes += 1;
        self.epoch += 1;
        Ok(())
    }

    /// Reads from a cluster file — one hop to one member of its home
    /// shard.
    pub fn read(&mut self, gid: u64, offset: u64, len: usize) -> Result<Vec<u8>, ClusterError> {
        let p = self.resolve(gid)?;
        let (i, data) = self.call_one(p.shard, &Request::Read(p.local, offset, len))?;
        self.nodes[i].reads += 1;
        *self.heat.entry(gid).or_insert(0) += 1;
        self.stats.reads += 1;
        self.stats.bytes_read += data.len() as u64;
        Ok(data)
    }

    /// Writes to a cluster file — one hop to every member of its home
    /// shard.
    pub fn write(&mut self, gid: u64, offset: u64, data: &[u8]) -> Result<(), ClusterError> {
        let p = self.resolve(gid)?;
        self.call_all(p.shard, &Request::Write(p.local, offset, data))?;
        *self.heat.entry(gid).or_insert(0) += 1;
        self.stats.writes += 1;
        self.stats.bytes_written += data.len() as u64;
        Ok(())
    }

    /// Attributes of a cluster file, from one member of its home shard.
    pub fn get_attr(&mut self, gid: u64) -> Result<FileAttributes, ClusterError> {
        let p = self.resolve(gid)?;
        let (_, reply) = self.call_one(p.shard, &Request::GetAttr(p.local))?;
        Ok(decode_attributes(&reply)?)
    }

    // ---- liveness ------------------------------------------------------

    /// Shards with a current member the master can reach.
    pub(crate) fn live_shards(&self) -> Vec<usize> {
        (0..self.shard_count())
            .filter(|&s| {
                self.members(s)
                    .any(|i| self.serves(i) && self.nodes[i].link == Link::Up)
            })
            .collect()
    }

    /// One heartbeat round: advances the clock by the heartbeat interval
    /// and probes every data server, each shard in a lane of its own (a
    /// member's resync and the shard's garbage collection reach its
    /// peers). Misses accumulate toward the death verdict; a probe
    /// answered by a dead server rejoins it and garbage-collects any
    /// local files the placement map no longer assigns to it. A member
    /// that answers while out of step is resynced from its set first, and
    /// so is one that cannot answer because its platters do not mount,
    /// when its link is up: the resync mounts it, and it rejoins.
    pub fn heartbeat_pulse(&mut self) {
        self.clock.advance(HEARTBEAT_INTERVAL_US);
        let mut lanes = self.clock.lanes();
        for s in 0..self.shard_count() {
            lanes.lane(s, || self.members(s).for_each(|i| self.probe(i)));
        }
        lanes.join();
    }

    /// One heartbeat probe of data server `i` (see
    /// [`Self::heartbeat_pulse`]).
    fn probe(&mut self, i: usize) {
        if self.nodes[i].removed {
            return;
        }
        self.stats.heartbeats += 1;
        let answered = self.nodes[i].link == Link::Up && self.nodes[i].mounted && {
            let net = &mut self.nodes[i].chan.net;
            net.transmit() != Delivery::Lost && net.transmit_reply() != Delivery::Lost
        };
        // A stale member that is down because its platters do not mount
        // never answers; with its link up, a resync from a current peer
        // copies them whole and mounts it.
        let node = &self.nodes[i];
        let healed = !answered
            && node.stale
            && !node.mounted
            && node.link == Link::Up
            && self.resync(i).is_ok();
        if !answered && !healed {
            self.stats.heartbeat_misses += 1;
            let node = &mut self.nodes[i];
            node.missed = node.missed.saturating_add(1);
            if node.alive && node.missed >= HEARTBEAT_MISS_LIMIT {
                node.alive = false;
                self.stats.deaths += 1;
            }
            return;
        }
        let was_dead = !self.nodes[i].alive;
        self.nodes[i].alive = true;
        self.nodes[i].missed = 0;
        if was_dead {
            self.stats.rejoins += 1;
        }
        if self.nodes[i].stale {
            // No current peer to copy from: it stays masked.
            let _ = self.resync(i);
        }
        // Orphan GC rides on the heartbeat exchange.
        self.collect_garbage(i / self.cfg.replicas);
    }

    /// Deletes local copies on shard `s` that the placement map no
    /// longer assigns to it.
    fn collect_garbage(&mut self, s: usize) {
        let mine: Vec<(usize, FileId)> = self
            .pending_gc
            .iter()
            .copied()
            .filter(|(g, _)| *g == s)
            .collect();
        if mine.is_empty() {
            return;
        }
        let mut done = Vec::new();
        for (_, local) in &mine {
            // Close is best-effort (the copy may never have been opened);
            // delete must succeed or the entry stays queued.
            let _ = self.call_all(s, &Request::Close(*local));
            match self.call_all(s, &Request::Delete(*local)) {
                Ok(_) | Err(ClusterError::File(_)) => {
                    done.push(*local);
                    self.stats.orphans_collected += 1;
                }
                Err(_) => {}
            }
        }
        self.pending_gc
            .retain(|(g, l)| !(*g == s && done.contains(l)));
    }

    // ---- elasticity ----------------------------------------------------

    /// Adds a fresh shard of [`ClusterConfig::replicas`] data servers
    /// and returns its index. New placements favour it immediately (it
    /// is the least-loaded shard).
    pub fn add_server(&mut self) -> usize {
        let s = self.push_shard();
        self.stats.servers_added += 1;
        s
    }

    /// Decommissions shard `s`: migrates every file off it, then
    /// removes its members from the placement pool. Fails without side
    /// effects if the shard (or every possible target) is unavailable.
    pub fn decommission(&mut self, s: usize) -> Result<(), ClusterError> {
        self.require_live(s)?;
        if !self.live_shards().contains(&s) {
            return Err(ClusterError::Unreachable(self.members(s).start));
        }
        let victims: Vec<u64> = self
            .map
            .iter()
            .filter(|(_, p)| p.shard == s)
            .map(|(gid, _)| *gid)
            .collect();
        for gid in victims {
            let target = self
                .live_shards()
                .into_iter()
                .filter(|&t| t != s)
                .min_by_key(|&t| (self.server_load(t), t))
                .ok_or(ClusterError::NoLiveServers)?;
            self.migrate(gid, target)?;
        }
        for i in self.members(s) {
            self.nodes[i].removed = true;
        }
        self.stats.servers_removed += 1;
        Ok(())
    }

    // ---- rebalancing ---------------------------------------------------

    /// One background rebalance round: while the hottest live server
    /// holds more than `REBALANCE_TRIGGER_PCT` percent of the total load
    /// and moving its hottest file strictly narrows the imbalance, that
    /// file is migrated to the coldest live server. Heat decays by half
    /// at the end of the round so old traffic stops driving placement.
    pub fn rebalance(&mut self) -> RebalanceReport {
        let mut report = RebalanceReport::default();
        for _ in 0..MAX_MIGRATIONS_PER_ROUND {
            let live = self.live_shards();
            let total: u64 = live.iter().map(|&i| self.server_load(i)).sum();
            let hot = live
                .iter()
                .max_by_key(|&&i| (self.server_load(i), std::cmp::Reverse(i)));
            let cold = live.iter().min_by_key(|&&i| (self.server_load(i), i));
            // No live shard ends the round, and so does one (`hot == cold`).
            let (Some(&hot), Some(&cold)) = (hot, cold) else {
                break;
            };
            if hot == cold || self.server_load(hot) * 100 <= total * REBALANCE_TRIGGER_PCT {
                break;
            }
            // The hottest file on the hot server whose move narrows the
            // gap; weight = 1 + heat.
            let gap = self.server_load(hot) - self.server_load(cold);
            let candidate = self
                .map
                .iter()
                .filter(|(_, p)| p.shard == hot)
                .map(|(gid, _)| (*gid, 1 + self.heat.get(gid).copied().unwrap_or(0)))
                .filter(|(_, w)| 2 * *w < gap)
                .max_by_key(|&(gid, w)| (w, std::cmp::Reverse(gid)));
            let Some((gid, _)) = candidate else { break };
            match self.migrate(gid, cold) {
                Ok(bytes) => {
                    report.migrated += 1;
                    report.bytes += bytes;
                }
                Err(_) => {
                    report.aborted += 1;
                    break;
                }
            }
        }
        for h in self.heat.values_mut() {
            *h /= 2;
        }
        report
    }

    /// Migrates one file to `target` through the physical-copy path:
    /// chunked reads from the source, writes to a fresh file on the
    /// target, optional fingerprint verification of the target copy, and
    /// only then deletion of the source. Any failure rolls back — the
    /// placement map never points at a partial copy.
    ///
    /// Returns the number of bytes moved.
    pub fn migrate(&mut self, gid: u64, target: usize) -> Result<u64, ClusterError> {
        let p = self.resolve(gid)?;
        if p.shard == target {
            return Ok(0);
        }
        self.require_live(p.shard)?;
        self.require_live(target)?;

        // A file referenced by an in-doubt prepared transaction must
        // not move: the pending decision's intentions name *this*
        // copy, and a crash-rebuilt participant holds no open count to
        // make the delete below fail. Surfaces as `Busy`, like any
        // other open conflict.
        let in_doubt = self
            .members(p.shard)
            .any(|i| self.nodes[i].handle.lock().prepared_touches(p.local));
        if in_doubt {
            return Err(ClusterError::File(FileServiceError::Busy(p.local)));
        }

        // Size from the source, fresh file on the target.
        let (_, attr_reply) = self.call_one(p.shard, &Request::GetAttr(p.local))?;
        let size = decode_attributes(&attr_reply)?.size;
        let reply = self.call_all(target, &Request::Create(ServiceType::Basic))?;
        let new_local = decode_created(&reply)?;

        match self.copy_file(gid, p, target, new_local, size) {
            Ok(()) => {}
            Err(e) => {
                self.abort_migration(target, new_local);
                return Err(e);
            }
        }

        // The chunked copy travelled the plain (delayed-write) path;
        // force it to disk before the placement flips, or a target
        // crash right after migration would lose the only copy.
        let flushed: Result<(), FileServiceError> = self
            .members(target)
            .filter(|&i| !self.nodes[i].stale)
            .try_for_each(|i| {
                self.nodes[i]
                    .handle
                    .lock()
                    .file_service_mut()
                    .flush_file(new_local)
            });
        if let Err(e) = flushed {
            self.abort_migration(target, new_local);
            return Err(ClusterError::File(e));
        }

        // Drop the tracked opens on the source (migration holds none of
        // its own by now) and delete it. `Busy` means a co-located
        // client still has it open outside the master's view — roll the
        // whole migration back rather than double-place the file.
        self.step_opens(p.shard, p.local, p.opens, 0)?;
        match self.call_all(p.shard, &Request::Delete(p.local)) {
            Ok(_) => {}
            Err(ClusterError::File(FileServiceError::Busy(_))) => {
                // Restore the tracked opens we just dropped.
                let _ = self.step_opens(p.shard, p.local, 0, p.opens);
                self.abort_migration(target, new_local);
                return Err(ClusterError::File(FileServiceError::Busy(p.local)));
            }
            Err(ClusterError::Unreachable(_)) => {
                // Copy is complete and verified; the stale source copy is
                // garbage, collected when the shard next answers.
                self.pending_gc.push((p.shard, p.local));
            }
            Err(e) => return Err(e),
        }

        self.map.insert(
            gid,
            Placement {
                shard: target,
                local: new_local,
                opens: p.opens,
            },
        );
        self.stats.migrations += 1;
        self.stats.migrated_bytes += size;
        self.epoch += 1;
        Ok(size)
    }

    /// Chunked copy source → target, with optional read-back
    /// verification. Leaves the target open as often as the file was
    /// tracked open (those references carry the clients' opens across
    /// the move).
    fn copy_file(
        &mut self,
        gid: u64,
        p: Placement,
        target: usize,
        new_local: FileId,
        size: u64,
    ) -> Result<(), ClusterError> {
        self.call_all(p.shard, &Request::Open(p.local))?;
        self.call_all(target, &Request::Open(new_local))?;
        let mut src_fp = FNV_OFFSET;
        let mut off = 0u64;
        let copy_result: Result<(), ClusterError> = loop {
            if off >= size {
                break Ok(());
            }
            let n = MIGRATE_CHUNK.min((size - off) as usize);
            let data = match self.call_one(p.shard, &Request::Read(p.local, off, n)) {
                Ok((_, d)) => d,
                Err(e) => break Err(e),
            };
            src_fp = fnv1a(src_fp, &data);
            if let Err(e) = self.call_all(target, &Request::Write(new_local, off, &data)) {
                break Err(e);
            }
            off += n as u64;
        };
        // The migration's own source open is dropped whatever happened.
        let _ = self.call_all(p.shard, &Request::Close(p.local));
        copy_result?;

        // Re-read and fingerprint-check the copy on the target before
        // the caller deletes the source.
        let mut dst_fp = FNV_OFFSET;
        let mut off = 0u64;
        while off < size {
            let n = MIGRATE_CHUNK.min((size - off) as usize);
            let (_, data) = self.call_one(target, &Request::Read(new_local, off, n))?;
            dst_fp = fnv1a(dst_fp, &data);
            off += n as u64;
        }
        if dst_fp != src_fp {
            return Err(ClusterError::MigrationCorrupt {
                gid,
                expected: src_fp,
                got: dst_fp,
            });
        }
        self.step_opens(target, new_local, 1, p.opens)
    }

    /// Rolls back a failed migration: the partial target copy is deleted
    /// (or queued for GC if the target is unreachable).
    fn abort_migration(&mut self, target: usize, local: FileId) {
        self.stats.migrations_aborted += 1;
        let _ = self.call_all(target, &Request::Close(local));
        match self.call_all(target, &Request::Delete(local)) {
            Ok(_) | Err(ClusterError::File(_)) => {}
            Err(_) => self.pending_gc.push((target, local)),
        }
    }

    // ---- verification --------------------------------------------------

    /// FNV-1a fingerprint over the whole namespace: every cluster file's
    /// id, size, and bytes, in cluster-id order. Reads a current member
    /// of each home shard directly (out of band — no channel traffic, no
    /// heat), so two clusters that executed the same logical operations
    /// fingerprint identically regardless of server count or placement.
    ///
    /// # Errors
    ///
    /// The file service's failure when a home cannot serve its file (its
    /// platters did not mount, a read fails).
    pub fn content_fingerprint(&self) -> Result<u64, ClusterError> {
        let mut fp = FNV_OFFSET;
        for (gid, p) in &self.map {
            let home = self
                .members(p.shard)
                .find(|&i| !self.nodes[i].stale)
                .ok_or(ClusterError::NoLiveServers)?;
            let handle = self.nodes[home].handle.clone();
            let mut guard = handle.lock();
            let fs = guard.file_service_mut();
            let size = fs.get_attribute(p.local)?.size;
            fp = fnv1a(fp, &gid.to_le_bytes());
            fp = fnv1a(fp, &size.to_le_bytes());
            if size > 0 {
                fs.open(p.local)?;
                let data = fs.read(p.local, 0, size as usize);
                fs.close(p.local)?;
                fp = fnv1a(fp, &data?);
            }
        }
        Ok(fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Cluster {
        /// Crashes every member of shard `s` at once. They lose the same
        /// volatile state, so the set stays in step.
        pub(crate) fn crash_shard(&mut self, s: usize) {
            for i in self.members(s) {
                let _ = self.restart(i);
            }
        }
    }

    fn cluster(n: usize) -> Cluster {
        Cluster::new(n, ClusterConfig::default())
    }

    fn seed_files(c: &mut Cluster, count: usize, blocks: usize) -> Vec<u64> {
        (0..count)
            .map(|k| {
                let gid = c.create().unwrap();
                c.open(gid).unwrap();
                c.write(gid, 0, &vec![k as u8 + 1; blocks * 512]).unwrap();
                gid
            })
            .collect()
    }

    #[test]
    fn files_spread_across_servers_and_round_trip() {
        let mut c = cluster(4);
        let gids = seed_files(&mut c, 8, 4);
        // Least-loaded placement spreads 8 files evenly over 4 servers.
        for i in 0..4 {
            assert_eq!(c.files_on(i), 2);
        }
        for (k, gid) in gids.iter().enumerate() {
            let data = c.read(*gid, 0, 4 * 512).unwrap();
            assert_eq!(data, vec![k as u8 + 1; 4 * 512]);
        }
        assert_eq!(c.stats().creates, 8);
        assert_eq!(c.stats().reads, 8);
    }

    #[test]
    fn epoch_bumps_on_placement_mutations_only() {
        let mut c = cluster(2);
        let e0 = c.epoch();
        let gid = c.create().unwrap();
        assert_eq!(c.epoch(), e0 + 1);
        c.open(gid).unwrap();
        c.write(gid, 0, b"hello").unwrap();
        let _ = c.read(gid, 0, 5).unwrap();
        assert_eq!(c.epoch(), e0 + 1, "data path never bumps the epoch");
        c.close(gid).unwrap();
        c.delete(gid).unwrap();
        assert_eq!(c.epoch(), e0 + 2);
    }

    #[test]
    fn heartbeat_death_and_rejoin() {
        let mut c = cluster(2);
        let gids = seed_files(&mut c, 4, 2);
        c.set_link(1, Link::Down);
        for _ in 0..HEARTBEAT_MISS_LIMIT {
            c.heartbeat_pulse();
        }
        assert!(!c.is_alive(1));
        assert_eq!(c.live_servers(), 1);
        // Files on the dead server are unavailable; others still serve.
        let (dead_gids, live_gids): (Vec<_>, Vec<_>) = gids
            .iter()
            .partition(|g| c.placement_of(**g).unwrap().0 == 1);
        assert!(matches!(
            c.read(dead_gids[0], 0, 16),
            Err(ClusterError::ServerUnavailable(1))
        ));
        assert!(c.read(live_gids[0], 0, 16).is_ok());
        // New placements avoid the dead server.
        let fresh = c.create().unwrap();
        assert_eq!(c.placement_of(fresh).unwrap().0, 0);
        // Rejoin: one good heartbeat brings it back.
        c.set_link(1, Link::Up);
        c.heartbeat_pulse();
        assert!(c.is_alive(1));
        assert_eq!(c.stats().rejoins, 1);
        assert!(c.read(dead_gids[0], 0, 16).is_ok());
    }

    /// The probes of one heartbeat round travel in parallel: four servers
    /// cost one probe's round trip.
    #[test]
    fn a_heartbeat_round_over_four_servers_costs_one_probe() {
        let cfg = ClusterConfig {
            latency: LatencyModel::default(),
            ..ClusterConfig::default()
        };
        let mut c = Cluster::new(4, cfg);
        let t0 = c.clock().now_us();
        c.heartbeat_pulse();
        let probe = c.clock().now_us() - t0 - HEARTBEAT_INTERVAL_US;
        let net = NetConfig::reliable();
        let round_trip = 2 * net.delay_us..=2 * (net.delay_us + net.jitter_us);
        assert!(round_trip.contains(&probe), "{probe} us");
        assert_eq!(c.stats().heartbeats, 4);
    }

    /// Marks bad (or clears) every copy of server 1's directory region:
    /// disk 0 and both stable mirrors.
    fn directory(c: &Cluster, bad: bool) {
        let mark = |disk: &mut rhodos_simdisk::SimDisk| {
            for sector in 0..16 {
                if bad {
                    disk.faults_mut().mark_bad_sector(sector);
                } else {
                    disk.faults_mut().clear_bad_sector(sector);
                }
            }
        };
        c.with_server(1, |fs| {
            let d = fs.disk_mut(0);
            mark(d.disk_mut());
            let stable = d.stable_mut().expect("a stable pair");
            mark(stable.mirror_a_mut());
            mark(stable.mirror_b_mut());
        });
    }

    /// A server whose directory is unreadable on every copy cannot mount:
    /// a crash leaves it down — calls to it fail, heartbeats miss it —
    /// while the other shard keeps serving, and a restart that mounts
    /// brings it back.
    #[test]
    fn a_server_that_cannot_mount_is_down_and_the_rest_serve() {
        let mut c = cluster(2);
        let gids = seed_files(&mut c, 4, 2);
        c.sync_all();
        directory(&c, true);
        c.crash_server(1);
        let (down, up): (Vec<u64>, Vec<u64>) = gids
            .iter()
            .partition(|g| c.placement_of(**g).unwrap().0 == 1);
        assert_eq!(c.read(down[0], 0, 16), Err(ClusterError::Unreachable(1)));
        for &gid in &up {
            c.write(gid, 0, b"still serving").unwrap();
            assert_eq!(c.read(gid, 0, 13).unwrap(), b"still serving");
        }
        let fresh = c.create().unwrap();
        assert_eq!(c.placement_of(fresh).unwrap().0, 0, "no placement on it");
        for _ in 0..HEARTBEAT_MISS_LIMIT {
            c.heartbeat_pulse();
        }
        assert!(!c.is_alive(1));
        assert_eq!(
            c.read(down[0], 0, 16),
            Err(ClusterError::ServerUnavailable(1))
        );
        // The sectors read again: the next restart mounts, and the next
        // heartbeat rejoins the server.
        directory(&c, false);
        c.crash_server(1);
        c.heartbeat_pulse();
        assert!(c.is_alive(1));
        assert_eq!(c.read(down[0], 0, 4).unwrap(), vec![2; 4]);
    }

    /// A home that cannot mount fails the fingerprint; it does not panic
    /// the master. Once it mounts, the fingerprint is what it was.
    #[test]
    fn a_home_that_cannot_mount_fails_the_fingerprint() {
        let mut c = cluster(2);
        seed_files(&mut c, 4, 2);
        c.sync_all();
        let fp = c.content_fingerprint().unwrap();
        directory(&c, true);
        c.crash_server(1);
        assert!(matches!(
            c.content_fingerprint(),
            Err(ClusterError::File(_))
        ));
        directory(&c, false);
        c.crash_server(1);
        assert_eq!(c.content_fingerprint(), Ok(fp));
    }

    #[test]
    fn delete_while_dead_gcs_on_rejoin() {
        let mut c = cluster(2);
        let gids = seed_files(&mut c, 4, 2);
        let victim = *gids
            .iter()
            .find(|g| c.placement_of(**g).unwrap().0 == 1)
            .unwrap();
        for g in &gids {
            c.close(*g).unwrap();
        }
        c.set_link(1, Link::Down);
        for _ in 0..3 {
            c.heartbeat_pulse();
        }
        assert!(!c.is_alive(1));
        c.delete(victim).unwrap();
        assert_eq!(c.pending_gc(), 1);
        assert!(c.placement_of(victim).is_none());
        c.set_link(1, Link::Up);
        c.heartbeat_pulse();
        assert_eq!(c.pending_gc(), 0, "rejoin collects the orphan");
        assert_eq!(c.stats().orphans_collected, 1);
    }

    #[test]
    fn rebalance_moves_hot_files_and_preserves_bytes() {
        let mut c = cluster(2);
        let gids = seed_files(&mut c, 6, 4);
        // Heat up every file on server 0.
        let hot: Vec<u64> = gids
            .iter()
            .copied()
            .filter(|g| c.placement_of(*g).unwrap().0 == 0)
            .collect();
        for _ in 0..50 {
            for g in &hot {
                let _ = c.read(*g, 0, 512).unwrap();
            }
        }
        // Kill server 1's share of the heat by adding two cold servers:
        // server 0 now holds nearly all the load.
        c.add_server();
        c.add_server();
        let fp_before = c.content_fingerprint().unwrap();
        let report = c.rebalance();
        assert!(report.migrated > 0, "hot server must shed load");
        assert_eq!(report.aborted, 0);
        assert_eq!(
            c.content_fingerprint(),
            Ok(fp_before),
            "bytes survive moves"
        );
        assert!(c.files_on(0) < hot.len(), "server 0 shed at least one file");
        // Reads still route correctly after the move.
        for (k, gid) in gids.iter().enumerate() {
            assert_eq!(c.read(*gid, 0, 512).unwrap(), vec![k as u8 + 1; 512]);
        }
    }

    #[test]
    fn decommission_drains_and_removes() {
        let mut c = cluster(3);
        let gids = seed_files(&mut c, 6, 2);
        let fp = c.content_fingerprint().unwrap();
        c.decommission(2).unwrap();
        assert_eq!(c.files_on(2), 0);
        assert_eq!(c.live_servers(), 2);
        assert_eq!(c.content_fingerprint(), Ok(fp));
        for gid in &gids {
            assert!(c.read(*gid, 0, 512).is_ok());
        }
        // The removed server takes no new placements and no heartbeats.
        let before = c.stats().heartbeats;
        c.heartbeat_pulse();
        assert_eq!(c.stats().heartbeats, before + 2);
        let fresh = c.create().unwrap();
        assert_ne!(c.placement_of(fresh).unwrap().0, 2);
    }

    #[test]
    fn lossy_channels_stay_exactly_once() {
        let cfg = ClusterConfig {
            data_net: NetConfig::lossy(0.3, 0.3, 42),
            ..ClusterConfig::default()
        };
        let mut c = Cluster::new(2, cfg);
        c.set_max_attempts(64);
        let gid = c.create().unwrap();
        c.open(gid).unwrap();
        for k in 0..50u64 {
            c.write(gid, k * 8, &k.to_le_bytes()).unwrap();
        }
        for k in 0..50u64 {
            assert_eq!(c.read(gid, k * 8, 8).unwrap(), k.to_le_bytes());
        }
        // Replay caches stay bounded by the synchronous in-flight window.
        assert!(c.replay_entries(0) <= 1);
        assert!(c.replay_entries(1) <= 1);
    }

    #[test]
    fn migration_of_externally_open_file_aborts_cleanly() {
        let mut c = cluster(2);
        let gid = c.create().unwrap();
        c.open(gid).unwrap();
        c.write(gid, 0, &[7u8; 2048]).unwrap();
        c.close(gid).unwrap();
        let (home, local) = c.placement_of(gid).unwrap();
        // A co-located client opens the file outside the master's view.
        let handle = c.server_handle(home);
        handle.lock().file_service_mut().open(local).unwrap();
        let target = 1 - home;
        let err = c.migrate(gid, target).unwrap_err();
        assert!(matches!(err, ClusterError::File(FileServiceError::Busy(_))));
        assert_eq!(c.placement_of(gid).unwrap().0, home, "map unchanged");
        assert_eq!(c.files_on(target), 0, "no partial copy left behind");
        assert_eq!(c.stats().migrations_aborted, 1);
        handle.lock().file_service_mut().close(local).unwrap();
        c.open(gid).unwrap();
        assert_eq!(c.read(gid, 0, 2048).unwrap(), vec![7u8; 2048]);
    }
}
