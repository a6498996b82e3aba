//! # rhodos-replication — the RHODOS replication service
//!
//! The design goals require that the facility "must have the provision to
//! support the concept of file replication" (§2.1), and the architecture
//! of Figure 1 places a replication service above the file service.
//!
//! This crate implements primary-copy replication over a set of
//! [`FileService`] replicas (each standing for a file server on a
//! different machine):
//!
//! * **write-all** — mutations are applied to every live replica;
//! * **read-one** — reads are served by one replica (round-robin across
//!   live replicas for load spreading), failing over transparently when a
//!   replica faults;
//! * **resynchronisation** — a repaired replica is rebuilt from the
//!   primary before rejoining.
//!
//! There is one front-end, [`ReplicatedFiles`], and every operation
//! reaches its replica as an encoded request over that replica's
//! [`wire::Channel`]: retried with exponential backoff + jitter while the
//! lane loses messages, executed at most once per request id on the
//! server, its reply decoded back ("the RHODOS file service is 'nearly'
//! stateless", §3). The two deployments differ only in the lane:
//! [`ReplicatedFiles::new`] co-locates the replicas (an in-process lane
//! that cannot lose and costs zero virtual time),
//! [`ReplicatedFiles::over_network`] puts each replica behind a lossy
//! link. A replica whose lane exhausts its retries is treated exactly
//! like one whose disk faulted — masked out of the live set, to be
//! brought back by [`ReplicatedFiles::resync`].
//!
//! File identifiers are allocated in lock-step on every replica, so one
//! [`FileId`] is valid cluster-wide.
//!
//! # Example
//!
//! ```
//! use rhodos_replication::ReplicatedFiles;
//! use rhodos_file_service::{FileService, FileServiceConfig, ServiceType};
//! use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let clock = SimClock::new();
//! let mk = || FileService::single_disk(
//!     DiskGeometry::medium(), LatencyModel::default(), clock.clone(),
//!     FileServiceConfig::default(),
//! ).unwrap();
//! let mut rf = ReplicatedFiles::new(vec![mk(), mk(), mk()]);
//! let fid = rf.create(ServiceType::Basic)?;
//! rf.open(fid)?;
//! rf.write(fid, 0, b"three copies")?;
//! assert_eq!(rf.read(fid, 0, 12)?, b"three copies");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod wire;

use rhodos_disk_service::codec::Decoder;
use rhodos_file_service::{
    FileAttributes, FileId, FileService, FileServiceError, LeaseGrant, LeaseMode, LeaseToken,
    ScrubFinding, ScrubOwner, ScrubReport, ServiceType,
};
use rhodos_net::{NetConfig, ReplayCache};
use rhodos_simdisk::{HlcStamp, SectorAddr, SimDisk};
use wire::{
    decode_grant, decode_stamp, encode_create, encode_fid_op, encode_lease_acquire,
    encode_lease_reattach, encode_read, encode_token_op, encode_write, encode_write_leased,
    Channel, OP_CLOSE, OP_DELETE, OP_GET_ATTR, OP_LEASE_RELEASE, OP_LEASE_RENEW, OP_OPEN,
};

/// Counters of replication behaviour.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Reads served per replica.
    pub reads_per_replica: Vec<u64>,
    /// Failovers: a replica faulted mid-read or mid-write (or became
    /// unreachable over RPC) and was masked out of the live set.
    pub failovers: u64,
    /// Replicas resynchronised.
    pub resyncs: u64,
    /// Writes suppressed because a replica was marked failed.
    pub writes_skipped: u64,
    /// Sectors copied onto returning replicas by [`ReplicatedFiles::resync`].
    pub resync_sectors_copied: u64,
    /// Latent faults one replica's scrub could not repair locally that
    /// were healed from a live peer's copy by [`ReplicatedFiles::scrub`].
    pub peer_repairs: u64,
}

/// Aggregate RPC-layer statistics across all replica channels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpcReplicationStats {
    /// Logical RPCs issued (all channels).
    pub calls: u64,
    /// Retries beyond the first attempt.
    pub retries: u64,
    /// Virtual time spent backing off between retries.
    pub backoff_us: u64,
    /// Operations the replica servers actually executed.
    pub executed: u64,
    /// Duplicate requests answered from replay caches.
    pub replayed: u64,
    /// Largest number of recorded replies any server held at once — the
    /// "nearly stateless" bound.
    pub peak_entries: u64,
    /// Replicas masked out because their channel exhausted its retries.
    pub unreachable: u64,
    /// Messages transmitted (both legs, all channels).
    pub net_sent: u64,
    /// Messages lost in transit.
    pub net_lost: u64,
    /// Extra duplicate copies delivered.
    pub net_duplicated: u64,
}

/// Errors returned by the replication service.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplicationError {
    /// Every replica failed the operation on this file.
    AllReplicasFailed(FileId),
    /// No live replica exists to serve an operation that is not tied to
    /// one file (`create`, or finding a resync source).
    NoLiveReplicas,
    /// The replica index is out of range.
    NoSuchReplica(usize),
    /// Replica file-id allocation diverged (internal invariant violated).
    Diverged,
    /// Underlying file-service failure (from the last replica tried).
    File(FileServiceError),
}

impl std::fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicationError::AllReplicasFailed(fid) => {
                write!(f, "every replica failed operating on {fid}")
            }
            ReplicationError::NoLiveReplicas => write!(f, "no live replica"),
            ReplicationError::NoSuchReplica(i) => write!(f, "no replica {i}"),
            ReplicationError::Diverged => write!(f, "replica state diverged"),
            ReplicationError::File(e) => write!(f, "file service failure: {e}"),
        }
    }
}

impl std::error::Error for ReplicationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplicationError::File(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FileServiceError> for ReplicationError {
    fn from(e: FileServiceError) -> Self {
        ReplicationError::File(e)
    }
}

/// Why one replica call produced no payload.
enum Miss {
    /// The replica is faulty and was masked out of the live set: its lane
    /// exhausted its retries (`None` — indistinguishable from a crashed
    /// machine) or its device faulted. Fail over; resync brings it back.
    Masked(Option<FileServiceError>),
    /// A semantic error. Replicas run in lock-step, so every replica
    /// would answer the same — propagate. (None has mutated: semantic
    /// checks precede mutation.)
    Semantic(FileServiceError),
}

/// Primary-copy replicated files over N file services.
#[derive(Debug)]
pub struct ReplicatedFiles {
    replicas: Vec<FileService>,
    /// One transport endpoint per replica; the server-side replay cache
    /// in it lives and dies with the replica's machine.
    channels: Vec<Channel>,
    failed: Vec<bool>,
    /// Absolute index of the replica that served the last read. Stored as
    /// a *replica* index, not an index into the live subset: the live set
    /// shrinks and grows across failovers and resyncs, and an index into
    /// it would skew the rotation every time it changed.
    last_read: usize,
    stats: ReplicationStats,
    /// Replicas masked out because their lane exhausted its retries.
    unreachable: u64,
    /// Logical open counts, restored onto a replica after resync (a
    /// recovered replica loses its volatile reference counts).
    open_counts: std::collections::HashMap<FileId, u32>,
}

impl ReplicatedFiles {
    /// Creates the service over freshly formatted, co-located replicas:
    /// requests cross an in-process lane that cannot lose a message and
    /// costs zero virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn new(replicas: Vec<FileService>) -> Self {
        Self::over_network(replicas, NetConfig::in_process())
    }

    /// Creates the service over freshly formatted replicas on other
    /// machines, one channel per replica behaving as `net_cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn over_network(replicas: Vec<FileService>, net_cfg: NetConfig) -> Self {
        assert!(!replicas.is_empty(), "need at least one replica");
        let n = replicas.len();
        let clock = replicas[0].clock();
        Self {
            channels: (0..n)
                .map(|i| Channel::new(clock.clone(), net_cfg, i))
                .collect(),
            replicas,
            failed: vec![false; n],
            // One before replica 0 in the rotation, so the first
            // round-robin read lands on replica 0.
            last_read: n - 1,
            stats: ReplicationStats {
                reads_per_replica: vec![0; n],
                ..Default::default()
            },
            unreachable: 0,
            open_counts: std::collections::HashMap::new(),
        }
    }

    /// Attempts per RPC before a replica is declared unreachable
    /// (applies to every channel).
    pub fn set_max_attempts(&mut self, attempts: u32) {
        for ch in &mut self.channels {
            ch.client.max_attempts = attempts;
        }
    }

    /// Number of replicas (live or failed).
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Number of replicas currently live.
    pub fn live_replicas(&self) -> usize {
        self.failed.iter().filter(|f| !**f).count()
    }

    /// Whether replica `i` is currently masked out of the live set.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn is_failed(&self, i: usize) -> bool {
        self.failed[i]
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ReplicationStats {
        &self.stats
    }

    /// RPC-layer statistics aggregated over all channels.
    pub fn rpc_stats(&self) -> RpcReplicationStats {
        let mut s = RpcReplicationStats {
            unreachable: self.unreachable,
            ..Default::default()
        };
        for ch in &self.channels {
            let c = ch.client.stats();
            s.calls += c.calls;
            s.retries += c.retries;
            s.backoff_us += c.backoff_us;
            let r = ch.cache.stats();
            s.executed += r.executed;
            s.replayed += r.replayed;
            s.peak_entries = s.peak_entries.max(r.peak_entries);
            let n = ch.net.stats();
            s.net_sent += n.sent;
            s.net_lost += n.lost;
            s.net_duplicated += n.duplicated;
        }
        s
    }

    /// Recorded replies currently held by replica `i`'s replay cache.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn replay_entries(&self, i: usize) -> usize {
        self.channels[i].cache.len()
    }

    /// Direct access to replica `i` (fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn replica_mut(&mut self, i: usize) -> &mut FileService {
        &mut self.replicas[i]
    }

    /// Marks replica `i` failed (e.g. its machine crashed); subsequent
    /// writes skip it and reads fail over.
    ///
    /// # Errors
    ///
    /// [`ReplicationError::NoSuchReplica`].
    pub fn mark_failed(&mut self, i: usize) -> Result<(), ReplicationError> {
        if i >= self.replicas.len() {
            return Err(ReplicationError::NoSuchReplica(i));
        }
        self.failed[i] = true;
        Ok(())
    }

    fn live_indices(&self) -> Vec<usize> {
        (0..self.replicas.len())
            .filter(|i| !self.failed[*i])
            .collect()
    }

    /// One request to replica `i` over its channel, its outcome
    /// classified here and nowhere else: a payload, a faulty replica
    /// (masked out on the spot), or a semantic error.
    fn call_replica(&mut self, i: usize, req: &[u8]) -> Result<Vec<u8>, Miss> {
        let err = match self.channels[i].call(&mut self.replicas[i], req) {
            Ok(payload) => return Ok(payload),
            Err(e) => e,
        };
        match err {
            // A machine or media fault, not an answer every replica
            // would give identically.
            None | Some(FileServiceError::Disk(_) | FileServiceError::Corrupt(_)) => {
                self.failed[i] = true;
                self.stats.failovers += 1;
                self.unreachable += u64::from(err.is_none());
                Err(Miss::Masked(err))
            }
            Some(e) => Err(Miss::Semantic(e)),
        }
    }

    /// Applies a mutation to every live replica ("write-all").
    ///
    /// A replica that faults mid-fan-out is masked out and the mutation
    /// continues on the remaining live replicas — the write-path mirror
    /// of the read path's failover — so the live set always agrees. The
    /// call errors only when **no** replica applied the mutation.
    fn write_all(&mut self, fid: Option<FileId>, req: &[u8]) -> Result<Vec<u8>, ReplicationError> {
        let mut result: Option<Vec<u8>> = None;
        let mut last_device_err: Option<FileServiceError> = None;
        for i in 0..self.replicas.len() {
            if self.failed[i] {
                self.stats.writes_skipped += 1;
                continue;
            }
            match self.call_replica(i, req) {
                Ok(payload) => match &result {
                    Some(prev) if *prev != payload => return Err(ReplicationError::Diverged),
                    Some(_) => {}
                    None => result = Some(payload),
                },
                Err(Miss::Masked(e)) => last_device_err = e.or(last_device_err),
                Err(Miss::Semantic(e)) => return Err(ReplicationError::File(e)),
            }
        }
        result.ok_or(match (last_device_err, fid) {
            (Some(e), _) => ReplicationError::File(e),
            (None, Some(fid)) => ReplicationError::AllReplicasFailed(fid),
            (None, None) => ReplicationError::NoLiveReplicas,
        })
    }

    /// One request to the first live replica in rotation order from
    /// `start`, failing over to the next while replicas turn out faulty.
    /// Returns the serving replica's index with its payload.
    fn first_live(
        &mut self,
        fid: FileId,
        start: usize,
        req: &[u8],
    ) -> Result<(usize, Vec<u8>), ReplicationError> {
        let n = self.replicas.len();
        let mut last_device_err: Option<FileServiceError> = None;
        for i in (0..n).map(|k| (start + k) % n) {
            if self.failed[i] {
                continue;
            }
            match self.call_replica(i, req) {
                Ok(payload) => return Ok((i, payload)),
                Err(Miss::Masked(e)) => last_device_err = e.or(last_device_err),
                Err(Miss::Semantic(e)) => return Err(ReplicationError::File(e)),
            }
        }
        Err(match last_device_err {
            Some(e) => ReplicationError::File(e),
            None => ReplicationError::AllReplicasFailed(fid),
        })
    }

    /// `create` on every replica; identifiers are allocated in lock-step.
    ///
    /// # Errors
    ///
    /// Propagates replica failures; [`ReplicationError::Diverged`] if the
    /// replicas returned different identifiers.
    pub fn create(&mut self, st: ServiceType) -> Result<FileId, ReplicationError> {
        let payload = self.write_all(None, &encode_create(st))?;
        Ok(FileId(Decoder::new(&payload).u64().expect("fid payload")))
    }

    /// Opens `fid` on every live replica.
    ///
    /// # Errors
    ///
    /// Replica failures.
    pub fn open(&mut self, fid: FileId) -> Result<(), ReplicationError> {
        self.write_all(Some(fid), &encode_fid_op(OP_OPEN, fid))?;
        *self.open_counts.entry(fid).or_insert(0) += 1;
        Ok(())
    }

    /// Closes `fid` on every live replica.
    ///
    /// # Errors
    ///
    /// Replica failures.
    pub fn close(&mut self, fid: FileId) -> Result<(), ReplicationError> {
        self.write_all(Some(fid), &encode_fid_op(OP_CLOSE, fid))?;
        if let Some(c) = self.open_counts.get_mut(&fid) {
            *c = c.saturating_sub(1);
            if *c == 0 {
                self.open_counts.remove(&fid);
            }
        }
        Ok(())
    }

    /// Deletes `fid` on every live replica.
    ///
    /// # Errors
    ///
    /// Replica failures.
    pub fn delete(&mut self, fid: FileId) -> Result<(), ReplicationError> {
        self.write_all(Some(fid), &encode_fid_op(OP_DELETE, fid))?;
        Ok(())
    }

    /// Writes through to every live replica ("write-all").
    ///
    /// # Errors
    ///
    /// Replica failures.
    pub fn write(&mut self, fid: FileId, offset: u64, data: &[u8]) -> Result<(), ReplicationError> {
        self.write_all(Some(fid), &encode_write(fid, offset, data))?;
        Ok(())
    }

    /// Attributes from the first live replica.
    ///
    /// # Errors
    ///
    /// Replica failures.
    pub fn get_attribute(&mut self, fid: FileId) -> Result<FileAttributes, ReplicationError> {
        let (_, payload) = self.first_live(fid, 0, &encode_fid_op(OP_GET_ATTR, fid))?;
        Ok(FileAttributes::decode(&mut Decoder::new(&payload)).expect("attrs payload"))
    }

    /// Reads from one replica ("read-one"), rotating round-robin from the
    /// replica after the last one that served a read (absolute index, so
    /// the rotation is even regardless of which replicas are currently
    /// failed) and failing over past faulty ones.
    ///
    /// # Errors
    ///
    /// [`ReplicationError::AllReplicasFailed`] when no replica can serve
    /// the read.
    pub fn read(
        &mut self,
        fid: FileId,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, ReplicationError> {
        let (i, data) = self.first_live(fid, self.last_read + 1, &encode_read(fid, offset, len))?;
        self.stats.reads_per_replica[i] += 1;
        self.last_read = i;
        Ok(data)
    }

    // Lease operations go to the first live replica: lease state is
    // coordination soft state, kept by the replica currently acting as
    // the read/lease coordinator, not replicated (a failed-over
    // coordinator starts with an empty lease table, which is exactly the
    // post-crash epoch story).

    /// Acquires a lease from the coordinator. Returns the grant plus the
    /// file's size at grant time.
    ///
    /// # Errors
    ///
    /// Replica failures; lease rejections shipped back over the wire.
    pub fn lease_acquire(
        &mut self,
        client: u64,
        fid: FileId,
        mode: LeaseMode,
    ) -> Result<(LeaseGrant, u64), ReplicationError> {
        let (_, payload) = self.first_live(fid, 0, &encode_lease_acquire(client, fid, mode))?;
        let mut d = Decoder::new(&payload);
        let grant = decode_grant(&mut d);
        let size = d.u64().expect("size payload");
        Ok((grant, size))
    }

    /// Releases a lease at the coordinator (idempotent server-side).
    ///
    /// # Errors
    ///
    /// Replica failures.
    pub fn lease_release(&mut self, token: &LeaseToken) -> Result<(), ReplicationError> {
        self.first_live(token.fid, 0, &encode_token_op(OP_LEASE_RELEASE, token))?;
        Ok(())
    }

    /// Renews a lease at the coordinator.
    ///
    /// # Errors
    ///
    /// [`FileServiceError::LeaseRejected`] (over the wire) if the token
    /// is dead; replica failures.
    pub fn lease_renew(&mut self, token: &LeaseToken) -> Result<(u64, HlcStamp), ReplicationError> {
        let (_, payload) =
            self.first_live(token.fid, 0, &encode_token_op(OP_LEASE_RENEW, token))?;
        let mut d = Decoder::new(&payload);
        let expiry_us = d.u64().expect("expiry payload");
        let stamp = decode_stamp(&mut d);
        Ok((expiry_us, stamp))
    }

    /// Re-presents a pre-crash grant to the (restarted) coordinator.
    ///
    /// # Errors
    ///
    /// [`FileServiceError::LeaseRejected`] (over the wire) if the window
    /// closed, the epoch is stale, or an HLC race was lost.
    pub fn lease_reattach(
        &mut self,
        token: &LeaseToken,
        mode: LeaseMode,
        stamp: HlcStamp,
    ) -> Result<LeaseGrant, ReplicationError> {
        let (_, payload) =
            self.first_live(token.fid, 0, &encode_lease_reattach(token, mode, stamp))?;
        Ok(decode_grant(&mut Decoder::new(&payload)))
    }

    /// A delegated writeback, gated on a live write-lease token at the
    /// coordinator. The mutation still fans out to every live replica —
    /// the lease gate is checked first, so a fenced token rejects the
    /// write before any replica applies it.
    ///
    /// # Errors
    ///
    /// [`FileServiceError::LeaseFenced`] (over the wire) if the token is
    /// dead; replica failures.
    pub fn write_leased(
        &mut self,
        fid: FileId,
        offset: u64,
        data: &[u8],
        token: &LeaseToken,
    ) -> Result<(), ReplicationError> {
        let (coordinator, _) =
            self.first_live(fid, 0, &encode_write_leased(fid, offset, data, token))?;
        // Every replica before the coordinator is failed; fan the raw
        // bytes out to the live ones after it so copies stay in lock-step.
        let req = encode_write(fid, offset, data);
        for i in coordinator + 1..self.replicas.len() {
            if self.failed[i] {
                continue;
            }
            if let Err(Miss::Semantic(e)) = self.call_replica(i, &req) {
                return Err(ReplicationError::File(e));
            }
        }
        Ok(())
    }

    /// Repairs and resynchronises replica `i` from the first other live
    /// replica, then rejoins it to the write set. The copy runs out of
    /// band (a repair crew, not an RPC).
    ///
    /// The resync is **physical**: the source flushes its dirty state,
    /// every sector of the returning replica's disks (main storage and
    /// stable mirrors) that differs from the source — or is marked bad —
    /// is re-copied in coalesced runs, and the replica rebuilds its
    /// volatile state from the repaired platters with
    /// [`FileService::recover`]. Afterwards the replica's disk images are
    /// byte-identical to the source's, whatever the divergence was: a
    /// missed write, a torn sector, a file it never saw created, or
    /// structures scrambled beyond what a logical per-file copy could
    /// reconcile. Logical open counts (volatile, lost in the crash) are
    /// restored last so `close`/`delete` sequencing keeps working.
    ///
    /// # Errors
    ///
    /// [`ReplicationError::NoLiveReplicas`] when no other live replica
    /// can act as the source; device faults of either side propagate (a
    /// bad *source* sector fails the copy rather than propagating
    /// garbage).
    pub fn resync(&mut self, i: usize) -> Result<(), ReplicationError> {
        if i >= self.replicas.len() {
            return Err(ReplicationError::NoSuchReplica(i));
        }
        let src = self
            .live_indices()
            .into_iter()
            .find(|&j| j != i)
            .ok_or(ReplicationError::NoLiveReplicas)?;
        let mut copied = 0u64;
        {
            let (src_fs, dst_fs) = two_mut(&mut self.replicas, src, i);
            // The source of truth must be on its platters before a
            // physical copy — including stable-storage writes still
            // queued for the second mirror.
            src_fs.flush_all()?;
            for d in 0..src_fs.disk_count() {
                if let Some(stable) = src_fs.disk_mut(d).stable_mut() {
                    stable.flush_deferred().map_err(wrap_disk_err)?;
                }
            }
            if src_fs.disk_count() != dst_fs.disk_count() {
                return Err(ReplicationError::Diverged);
            }
            for d in 0..src_fs.disk_count() {
                copied += copy_divergent_sectors(
                    src_fs.disk_mut(d).disk_mut(),
                    dst_fs.disk_mut(d).disk_mut(),
                )?;
                match (
                    src_fs.disk_mut(d).stable_mut(),
                    dst_fs.disk_mut(d).stable_mut(),
                ) {
                    (Some(s), Some(t)) => {
                        copied += copy_divergent_sectors(s.mirror_a_mut(), t.mirror_a_mut())?;
                        copied += copy_divergent_sectors(s.mirror_b_mut(), t.mirror_b_mut())?;
                    }
                    (None, None) => {}
                    _ => return Err(ReplicationError::Diverged),
                }
            }
        }
        self.stats.resync_sectors_copied += copied;
        // Rebuild the returning replica's volatile state (directory map,
        // FITs, allocation bitmaps, caches) from the copied platters.
        self.replicas[i].simulate_crash();
        self.replicas[i].recover()?;
        // Restore the logical open state the recovered replica lost.
        // Opening writes nothing, so the copied platters stay
        // byte-identical with the source.
        for (fid, count) in &self.open_counts {
            for _ in 0..*count {
                self.replicas[i].open(*fid)?;
            }
        }
        // A restarted server forgets its volatile request history, which
        // is safe precisely because the client never reuses request ids.
        self.channels[i].cache = ReplayCache::new();
        self.failed[i] = false;
        self.stats.resyncs += 1;
        Ok(())
    }

    /// Scrubs every live replica and heals cross-replica: latent faults a
    /// replica cannot repair from its own redundancy (stable mirror or
    /// block pool) are rewritten from the first live peer holding a good
    /// copy. Replication is the outermost redundancy tier, so a fault is
    /// counted `still_unrecoverable` only when **no** live replica can
    /// produce the data — and even then it is reported, never dropped.
    ///
    /// `budget` is the per-replica sector budget, as in
    /// [`FileService::scrub`]. A replica whose scrub fails outright (its
    /// disk crashed) is masked out of the live set like any other device
    /// fault — bring it back with [`Self::resync`].
    ///
    /// # Errors
    ///
    /// [`ReplicationError::NoLiveReplicas`] when every replica is failed.
    pub fn scrub(&mut self, budget: Option<u64>) -> Result<ClusterScrubReport, ReplicationError> {
        let n = self.replicas.len();
        let mut report = ClusterScrubReport {
            replicas: vec![None; n],
            peer_repairs: 0,
            still_unrecoverable: 0,
        };
        for i in 0..n {
            if self.failed[i] {
                continue;
            }
            let local = match self.replicas[i].scrub(budget) {
                Ok(r) => r,
                Err(_) => {
                    // The scrub walk itself failed (crashed disk): the
                    // replica is faulty, not the cluster scrub.
                    self.failed[i] = true;
                    self.stats.failovers += 1;
                    continue;
                }
            };
            for finding in local.unrecoverable() {
                if self.repair_from_peer(i, finding) {
                    report.peer_repairs += 1;
                    self.stats.peer_repairs += 1;
                } else {
                    report.still_unrecoverable += 1;
                }
            }
            report.replicas[i] = Some(local);
        }
        if report.replicas.iter().all(Option::is_none) {
            return Err(ReplicationError::NoLiveReplicas);
        }
        Ok(report)
    }

    /// Heals one unrecoverable finding on replica `i` from the first live
    /// peer with a good copy. Data blocks go through the file services'
    /// logical block paths; metadata fragments are copied physically
    /// (replicas run in lock-step, so the same fragment address holds the
    /// same bytes on every replica). Either way the local rewrite lands
    /// through the normal put path, quarantining and remapping the bad
    /// sector.
    fn repair_from_peer(&mut self, i: usize, finding: &ScrubFinding) -> bool {
        let peers: Vec<usize> = self
            .live_indices()
            .into_iter()
            .filter(|&j| j != i)
            .collect();
        match finding.owner {
            ScrubOwner::Data { fid, block } => {
                for j in peers {
                    let Some(good) = self.replicas[j].read_block_for_repair(fid, block) else {
                        continue;
                    };
                    if self.replicas[i].rewrite_block(fid, block, &good).is_ok() {
                        return true;
                    }
                }
                false
            }
            // Parity units are derived data, but lock-step replicas hold
            // identical bytes at identical addresses, so the physical
            // copy used for metadata fragments is equally valid here
            // (and the local scrubber already tried reconstruction).
            ScrubOwner::Directory
            | ScrubOwner::Fit(_)
            | ScrubOwner::Indirect(_)
            | ScrubOwner::Parity { .. } => {
                let d = finding.disk as usize;
                let frag = rhodos_disk_service::Extent::new(finding.addr, 1);
                for j in peers {
                    let Ok(good) = self.replicas[j].disk_mut(d).get(frag) else {
                        continue;
                    };
                    if self.replicas[i]
                        .disk_mut(d)
                        .put(frag, &good, rhodos_disk_service::StablePolicy::None)
                        .is_ok()
                    {
                        return true;
                    }
                }
                false
            }
        }
    }
}

/// Result of one cluster-wide [`ReplicatedFiles::scrub`].
#[derive(Debug, Clone, Default)]
pub struct ClusterScrubReport {
    /// Per-replica scrub reports (`None` for replicas that were failed or
    /// faulted during the walk).
    pub replicas: Vec<Option<ScrubReport>>,
    /// Faults healed from a live peer after local redundancy fell short.
    pub peer_repairs: u64,
    /// Faults no live replica could produce the data for — data loss,
    /// reported loudly.
    pub still_unrecoverable: u64,
}

impl ClusterScrubReport {
    /// Latent faults found across all replicas this call.
    pub fn faults_found(&self) -> u64 {
        self.replicas
            .iter()
            .flatten()
            .map(|r| r.stats.faults_found)
            .sum()
    }

    /// Whether every scanned replica was healthy.
    pub fn is_clean(&self) -> bool {
        self.replicas.iter().flatten().all(ScrubReport::is_clean)
    }
}

/// Disjoint `&mut` to two distinct elements of a slice.
fn two_mut<T>(v: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    assert_ne!(a, b, "resync source must differ from the target");
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// Copies every sector of `dst` that differs from `src` (or is marked as
/// a media fault on `dst`), coalescing adjacent sectors into runs so one
/// run costs one disk reference per side. Returns sectors copied.
///
/// Reads go through the source's normal fault-checked path — resyncing
/// from a source with its own media faults fails loudly instead of
/// propagating garbage. Writes heal the target's bad sectors via the
/// simulator's spare-sector remapping, and the target is power-cycled
/// (`repair`) first so a crashed disk accepts the copy.
fn copy_divergent_sectors(src: &mut SimDisk, dst: &mut SimDisk) -> Result<u64, ReplicationError> {
    let total = src.geometry().total_sectors();
    if dst.geometry().total_sectors() != total {
        return Err(ReplicationError::Diverged);
    }
    dst.repair();
    let mut runs: Vec<(SectorAddr, u64)> = Vec::new();
    for s in 0..total {
        // `sector_faulty` resolves the target's spare-sector remap, so a
        // re-failed spare is recognised as divergent too.
        let needs_copy = dst.sector_faulty(s)
            || src.peek_sector(s).expect("in range") != dst.peek_sector(s).expect("in range");
        if needs_copy {
            match runs.last_mut() {
                Some((start, len)) if *start + *len == s => *len += 1,
                _ => runs.push((s, 1)),
            }
        }
    }
    let mut copied = 0u64;
    for (start, len) in runs {
        let data = src.read_sectors(start, len).map_err(wrap_disk_err)?;
        dst.write_sectors(start, data.as_slice())
            .map_err(wrap_disk_err)?;
        copied += len;
    }
    Ok(copied)
}

fn wrap_disk_err(e: rhodos_simdisk::DiskError) -> ReplicationError {
    ReplicationError::File(FileServiceError::Disk(
        rhodos_disk_service::DiskServiceError::Disk(e),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhodos_file_service::FileServiceConfig;
    use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};

    fn cluster(n: usize) -> ReplicatedFiles {
        let clock = SimClock::new();
        let replicas = (0..n)
            .map(|_| {
                FileService::single_disk(
                    DiskGeometry::medium(),
                    LatencyModel::default(),
                    clock.clone(),
                    FileServiceConfig::default(),
                )
                .unwrap()
            })
            .collect();
        ReplicatedFiles::new(replicas)
    }

    #[test]
    fn write_all_read_one_round_trip() {
        let mut rf = cluster(3);
        let fid = rf.create(ServiceType::Basic).unwrap();
        rf.open(fid).unwrap();
        rf.write(fid, 0, b"replicated").unwrap();
        for _ in 0..6 {
            assert_eq!(rf.read(fid, 0, 10).unwrap(), b"replicated");
        }
        // Round-robin spread the reads.
        let spread = rf.stats().reads_per_replica.clone();
        assert!(spread.iter().filter(|&&c| c > 0).count() >= 2, "{spread:?}");
    }

    #[test]
    fn read_fails_over_when_a_replica_faults() {
        let mut rf = cluster(3);
        let fid = rf.create(ServiceType::Basic).unwrap();
        rf.open(fid).unwrap();
        rf.write(fid, 0, b"survive").unwrap();
        // Every replica must flush so the data is on its platter.
        for i in 0..3 {
            rf.replica_mut(i).flush_all().unwrap();
        }
        // Destroy the data block on every *disk* of replica 0 and drop its
        // caches so the fault is visible.
        let descs = rf.replica_mut(0).block_descriptors(fid).unwrap();
        for d in &descs {
            let addr = d.addr;
            rf.replica_mut(0)
                .disk_mut(d.disk as usize)
                .disk_mut()
                .corrupt_sector(addr)
                .unwrap();
        }
        rf.replica_mut(0).simulate_crash();
        rf.replica_mut(0).recover().unwrap();
        rf.replica_mut(0).open(fid).unwrap();
        // Reads keep succeeding (some will hit replica 0 first and fail
        // over).
        for _ in 0..6 {
            assert_eq!(rf.read(fid, 0, 7).unwrap(), b"survive");
        }
        assert!(rf.stats().failovers >= 1);
        assert_eq!(rf.live_replicas(), 2);
    }

    #[test]
    fn writes_skip_failed_replicas_and_resync_restores() {
        let mut rf = cluster(2);
        let fid = rf.create(ServiceType::Basic).unwrap();
        rf.open(fid).unwrap();
        rf.write(fid, 0, b"v1").unwrap();
        rf.mark_failed(1).unwrap();
        rf.write(fid, 0, b"v2").unwrap();
        assert!(rf.stats().writes_skipped > 0);
        // Resync brings replica 1 back with v2.
        rf.resync(1).unwrap();
        assert_eq!(rf.live_replicas(), 2);
        let mut check = |i: usize| {
            rf.replica_mut(i).open(fid).unwrap();
            let d = rf.replica_mut(i).read(fid, 0, 2).unwrap();
            rf.replica_mut(i).close(fid).unwrap();
            d
        };
        assert_eq!(check(0), b"v2");
        assert_eq!(check(1), b"v2");
    }

    #[test]
    fn all_replicas_failed_is_an_error() {
        let mut rf = cluster(2);
        let fid = rf.create(ServiceType::Basic).unwrap();
        rf.open(fid).unwrap();
        rf.mark_failed(0).unwrap();
        rf.mark_failed(1).unwrap();
        assert!(matches!(
            rf.read(fid, 0, 1),
            Err(ReplicationError::AllReplicasFailed(_))
        ));
        assert!(rf.write(fid, 0, b"x").is_err());
    }

    #[test]
    fn identifiers_allocated_in_lock_step() {
        let mut rf = cluster(3);
        let a = rf.create(ServiceType::Basic).unwrap();
        let b = rf.create(ServiceType::Basic).unwrap();
        assert_ne!(a, b);
        // Both exist on every replica.
        for i in 0..3 {
            assert!(rf.replica_mut(i).exists(a));
            assert!(rf.replica_mut(i).exists(b));
        }
    }

    #[test]
    fn semantic_errors_do_not_fail_over() {
        let mut rf = cluster(2);
        let fid = rf.create(ServiceType::Basic).unwrap();
        // Not open: the NotOpen error must propagate, not mark replicas
        // failed.
        assert!(matches!(
            rf.read(fid, 0, 1),
            Err(ReplicationError::File(FileServiceError::NotOpen(_)))
        ));
        assert_eq!(rf.live_replicas(), 2);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use rhodos_file_service::FileServiceConfig;
    use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};

    fn pair() -> ReplicatedFiles {
        let clock = SimClock::new();
        let mk = || {
            FileService::single_disk(
                DiskGeometry::medium(),
                LatencyModel::instant(),
                clock.clone(),
                FileServiceConfig::default(),
            )
            .unwrap()
        };
        ReplicatedFiles::new(vec![mk(), mk()])
    }

    #[test]
    fn attributes_are_consistent_across_replicas() {
        let mut rf = pair();
        let fid = rf.create(ServiceType::Basic).unwrap();
        rf.open(fid).unwrap();
        rf.write(fid, 0, b"12345").unwrap();
        assert_eq!(rf.get_attribute(fid).unwrap().size, 5);
        rf.close(fid).unwrap();
        assert_eq!(rf.get_attribute(fid).unwrap().ref_count, 0);
    }

    #[test]
    fn delete_applies_everywhere() {
        let mut rf = pair();
        let fid = rf.create(ServiceType::Basic).unwrap();
        rf.delete(fid).unwrap();
        for i in 0..2 {
            assert!(!rf.replica_mut(i).exists(fid));
        }
    }

    #[test]
    fn out_of_range_replica_operations_error() {
        let mut rf = pair();
        assert!(matches!(
            rf.mark_failed(9),
            Err(ReplicationError::NoSuchReplica(9))
        ));
        assert!(matches!(
            rf.resync(9),
            Err(ReplicationError::NoSuchReplica(9))
        ));
    }

    #[test]
    fn resync_needs_a_live_source() {
        let mut rf = pair();
        rf.mark_failed(0).unwrap();
        rf.mark_failed(1).unwrap();
        assert!(matches!(
            rf.resync(0),
            Err(ReplicationError::NoLiveReplicas)
        ));
    }

    #[test]
    fn round_robin_stays_even_while_a_replica_is_out() {
        // The old implementation stored the rotation cursor modulo the
        // *live-set length*, so the distribution skewed (and replica 0 was
        // skipped first) whenever the live set changed size. The cursor is
        // an absolute replica index now: with replica 1 of 3 failed the
        // remaining two must split reads evenly, and after resync all
        // three rotate again.
        let clock = SimClock::new();
        let mk = || {
            FileService::single_disk(
                DiskGeometry::medium(),
                LatencyModel::instant(),
                clock.clone(),
                FileServiceConfig::default(),
            )
            .unwrap()
        };
        let mut rf = ReplicatedFiles::new(vec![mk(), mk(), mk()]);
        let fid = rf.create(ServiceType::Basic).unwrap();
        rf.open(fid).unwrap();
        rf.write(fid, 0, b"spread").unwrap();
        rf.mark_failed(1).unwrap();
        for _ in 0..12 {
            rf.read(fid, 0, 6).unwrap();
        }
        assert_eq!(rf.stats().reads_per_replica, vec![6, 0, 6]);
        rf.resync(1).unwrap();
        for _ in 0..12 {
            rf.read(fid, 0, 6).unwrap();
        }
        let spread = rf.stats().reads_per_replica.clone();
        assert_eq!(spread, vec![10, 4, 10]);
    }

    /// A pair with write-through caching: mutations reach the platters
    /// inside the `write` call, so injected device faults surface there
    /// (with the default delayed-write policy they surface at flush).
    fn write_through_pair() -> ReplicatedFiles {
        let clock = SimClock::new();
        let mk = || {
            FileService::single_disk(
                DiskGeometry::medium(),
                LatencyModel::instant(),
                clock.clone(),
                FileServiceConfig {
                    write_policy: rhodos_file_service::WritePolicy::WriteThrough,
                    ..FileServiceConfig::default()
                },
            )
            .unwrap()
        };
        ReplicatedFiles::new(vec![mk(), mk()])
    }

    #[test]
    fn write_fault_fails_over_instead_of_diverging() {
        // Replica 0's next sector write tears mid-write: with failover the
        // mutation still lands on replica 1, replica 0 is masked out, and
        // the caller sees success.
        let mut rf = write_through_pair();
        let fid = rf.create(ServiceType::Basic).unwrap();
        rf.open(fid).unwrap();
        rf.write(fid, 0, b"seed data").unwrap();
        rf.replica_mut(0)
            .disk_mut(0)
            .disk_mut()
            .faults_mut()
            .crash_after_sector_writes(0);
        rf.write(fid, 0, b"new value").unwrap();
        assert_eq!(rf.stats().failovers, 1);
        assert_eq!(rf.live_replicas(), 1);
        assert_eq!(rf.read(fid, 0, 9).unwrap(), b"new value");
    }

    #[test]
    fn cluster_scrub_heals_uncached_data_fault_from_peer() {
        let mut rf = pair();
        let fid = rf.create(ServiceType::Basic).unwrap();
        rf.open(fid).unwrap();
        rf.write(fid, 0, &vec![0x3C; 50_000]).unwrap();
        for i in 0..2 {
            rf.replica_mut(i).flush_all().unwrap();
            rf.replica_mut(i).evict_caches().unwrap();
        }
        // Replica 0 silently loses a data sector; its block pool is cold,
        // so local scrub cannot repair it — only the peer can.
        let addr = rf.replica_mut(0).block_descriptors(fid).unwrap()[2].addr;
        rf.replica_mut(0)
            .disk_mut(0)
            .disk_mut()
            .silently_corrupt_sector(addr)
            .unwrap();
        let report = rf.scrub(None).unwrap();
        assert_eq!(report.faults_found(), 1);
        assert_eq!(report.peer_repairs, 1);
        assert_eq!(report.still_unrecoverable, 0);
        assert_eq!(rf.stats().peer_repairs, 1);
        // Replica 0's platter is healthy again and serves the bytes alone.
        assert!(rf.replica_mut(0).scrub(None).unwrap().is_clean());
        rf.mark_failed(1).unwrap();
        assert_eq!(rf.read(fid, 17_000, 4).unwrap(), vec![0x3C; 4]);
    }

    #[test]
    fn cluster_scrub_heals_metadata_when_stable_mirrors_are_gone_too() {
        let mut rf = pair();
        let fid = rf.create(ServiceType::Basic).unwrap();
        rf.open(fid).unwrap();
        rf.write(fid, 0, b"metadata matters").unwrap();
        for i in 0..2 {
            rf.replica_mut(i).flush_all().unwrap();
        }
        // Kill replica 0's FIT fragment on main storage AND both stable
        // mirrors: local repair has nothing left; the peer does.
        let fit_frag = rf.replica_mut(0).block_descriptors(fid).unwrap()[0].addr - 1;
        let r0 = rf.replica_mut(0);
        r0.evict_caches().unwrap();
        r0.disk_mut(0)
            .disk_mut()
            .silently_corrupt_sector(fit_frag)
            .unwrap();
        let stable = r0.disk_mut(0).stable_mut().unwrap();
        stable.mirror_a_mut().corrupt_sector(2 * fit_frag).unwrap();
        stable.mirror_b_mut().corrupt_sector(2 * fit_frag).unwrap();
        let report = rf.scrub(None).unwrap();
        assert!(report.peer_repairs >= 1, "{report:?}");
        assert_eq!(report.still_unrecoverable, 0);
        assert!(rf.replica_mut(0).scrub(None).unwrap().is_clean());
    }

    #[test]
    fn cluster_scrub_reports_loss_when_no_replica_has_the_data() {
        let mut rf = pair();
        let fid = rf.create(ServiceType::Basic).unwrap();
        rf.open(fid).unwrap();
        rf.write(fid, 0, &vec![0x42; 30_000]).unwrap();
        // The same block rots on BOTH replicas: genuine data loss. The
        // scrub must say so, not pretend. (Caches are dropped *after* the
        // injection so no cache level still holds the good bytes.)
        for i in 0..2 {
            rf.replica_mut(i).flush_all().unwrap();
            let addr = rf.replica_mut(i).block_descriptors(fid).unwrap()[1].addr;
            rf.replica_mut(i)
                .disk_mut(0)
                .disk_mut()
                .silently_corrupt_sector(addr)
                .unwrap();
            rf.replica_mut(i).evict_caches().unwrap();
        }
        let report = rf.scrub(None).unwrap();
        assert!(report.still_unrecoverable >= 1, "{report:?}");
    }

    #[test]
    fn resync_restores_open_counts_for_close_and_delete() {
        // A recovered replica loses its volatile reference counts; resync
        // must restore them or the next cluster-wide close/delete would
        // hit NotOpen on the rejoined replica and wrongly propagate.
        let mut rf = pair();
        let fid = rf.create(ServiceType::Basic).unwrap();
        rf.open(fid).unwrap();
        rf.open(fid).unwrap(); // ref_count 2
        rf.write(fid, 0, b"counted").unwrap();
        rf.mark_failed(1).unwrap();
        rf.write(fid, 0, b"counted!").unwrap();
        rf.resync(1).unwrap();
        // Both closes must sequence correctly on the rejoined replica.
        rf.close(fid).unwrap();
        rf.close(fid).unwrap();
        assert_eq!(rf.get_attribute(fid).unwrap().ref_count, 0);
        rf.delete(fid).unwrap();
        for i in 0..2 {
            assert!(!rf.replica_mut(i).exists(fid));
        }
    }
}

#[cfg(test)]
mod network_tests {
    use super::*;
    use rhodos_file_service::FileServiceConfig;
    use rhodos_net::SimNetwork;
    use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};

    fn rpc_cluster(n: usize, net_cfg: NetConfig) -> ReplicatedFiles {
        let clock = SimClock::new();
        let replicas = (0..n)
            .map(|_| {
                FileService::single_disk(
                    DiskGeometry::medium(),
                    LatencyModel::instant(),
                    clock.clone(),
                    FileServiceConfig::default(),
                )
                .unwrap()
            })
            .collect();
        ReplicatedFiles::over_network(replicas, net_cfg)
    }

    #[test]
    fn round_trip_over_a_reliable_network() {
        let mut rf = rpc_cluster(3, NetConfig::reliable());
        let fid = rf.create(ServiceType::Basic).unwrap();
        rf.open(fid).unwrap();
        rf.write(fid, 0, b"over the wire").unwrap();
        assert_eq!(rf.read(fid, 0, 13).unwrap(), b"over the wire");
        assert_eq!(rf.get_attribute(fid).unwrap().size, 13);
        rf.close(fid).unwrap();
        rf.delete(fid).unwrap();
        let s = rf.rpc_stats();
        assert!(s.calls > 0);
        assert_eq!(s.retries, 0);
        assert_eq!(s.net_lost, 0);
    }

    #[test]
    fn lossy_channels_retry_but_execute_exactly_once() {
        let mut rf = rpc_cluster(3, NetConfig::lossy(0.25, 0.25, 42));
        rf.set_max_attempts(64);
        let fid = rf.create(ServiceType::Basic).unwrap();
        rf.open(fid).unwrap();
        for round in 0..20u8 {
            rf.write(fid, 0, &[round; 64]).unwrap();
            assert_eq!(rf.read(fid, 0, 64).unwrap(), vec![round; 64]);
        }
        let s = rf.rpc_stats();
        assert!(s.retries > 0, "seed 42 must lose messages");
        assert!(s.replayed > 0, "seed 42 must duplicate messages");
        assert!(s.backoff_us > 0, "retries must back off");
        // Exactly-once despite duplication: replicas agree on contents.
        for i in 0..3 {
            rf.replica_mut(i).flush_all().unwrap();
            assert!(rf.replica_mut(i).fsck().unwrap().is_clean());
        }
        // Bounded server state: one synchronous client per channel.
        assert!(s.peak_entries <= 1, "peak {}", s.peak_entries);
    }

    #[test]
    fn unreachable_replica_is_masked_like_a_crashed_one() {
        let mut rf = rpc_cluster(2, NetConfig::reliable());
        let fid = rf.create(ServiceType::Basic).unwrap();
        rf.open(fid).unwrap();
        rf.write(fid, 0, b"before").unwrap();
        // Replica 1's link goes completely dark.
        rf.channels[1].net =
            SimNetwork::new(rf.channels[1].net.clock(), NetConfig::lossy(1.0, 0.0, 1));
        rf.set_max_attempts(3);
        rf.write(fid, 0, b"after!").unwrap();
        assert_eq!(rf.live_replicas(), 1);
        assert_eq!(rf.rpc_stats().unreachable, 1);
        assert_eq!(rf.stats().failovers, 1);
        assert_eq!(rf.read(fid, 0, 6).unwrap(), b"after!");
        // Link restored; resync rejoins the replica and wipes its replay
        // state.
        rf.channels[1].net = SimNetwork::new(rf.channels[1].net.clock(), NetConfig::reliable());
        rf.resync(1).unwrap();
        assert_eq!(rf.live_replicas(), 2);
        assert_eq!(rf.replay_entries(1), 0);
        for _ in 0..2 {
            assert_eq!(rf.read(fid, 0, 6).unwrap(), b"after!");
        }
    }

    #[test]
    fn semantic_errors_cross_the_wire_intact() {
        let mut rf = rpc_cluster(2, NetConfig::reliable());
        let fid = rf.create(ServiceType::Basic).unwrap();
        assert!(matches!(
            rf.read(fid, 0, 1),
            Err(ReplicationError::File(FileServiceError::NotOpen(f))) if f == fid
        ));
        assert_eq!(rf.live_replicas(), 2, "semantic errors must not fail over");
        rf.open(fid).unwrap();
        rf.write(fid, 0, b"xyz").unwrap();
        assert!(matches!(
            rf.read(fid, 100, 1),
            Err(ReplicationError::File(FileServiceError::BeyondEof {
                offset: 100,
                size: 3,
                ..
            }))
        ));
    }

    #[test]
    fn lease_ops_cross_the_wire() {
        let mut rf = rpc_cluster(3, NetConfig::lossy(0.15, 0.1, 9));
        rf.set_max_attempts(64);
        let fid = rf.create(ServiceType::Basic).unwrap();
        rf.open(fid).unwrap();
        // Acquire a write lease at the coordinator and push a delegated
        // writeback through it; the bytes must land on every replica.
        let (grant, size) = rf.lease_acquire(7, fid, LeaseMode::Write).unwrap();
        assert_eq!(size, 0);
        assert_eq!(grant.token.client, 7);
        rf.write_leased(fid, 0, b"delegated", &grant.token).unwrap();
        assert_eq!(rf.read(fid, 0, 9).unwrap(), b"delegated");
        // Renew extends the expiry; release kills the token.
        let (expiry, _) = rf.lease_renew(&grant.token).unwrap();
        assert!(expiry >= grant.expiry_us);
        rf.lease_release(&grant.token).unwrap();
        assert!(matches!(
            rf.write_leased(fid, 0, b"too late", &grant.token),
            Err(ReplicationError::File(FileServiceError::LeaseFenced(f))) if f == fid
        ));
        for i in 0..3 {
            rf.replica_mut(i).flush_all().unwrap();
            assert_eq!(rf.replica_mut(i).read(fid, 0, 9).unwrap(), b"delegated");
        }
    }

    #[test]
    fn resync_bumps_lease_epoch_and_honours_reattach() {
        let mut rf = rpc_cluster(2, NetConfig::reliable());
        let fid = rf.create(ServiceType::Basic).unwrap();
        rf.open(fid).unwrap();
        let (grant, _) = rf.lease_acquire(3, fid, LeaseMode::Write).unwrap();
        // The coordinator goes down and is resynced: its lease table is
        // soft state, so the epoch bumps and the old token is dead.
        rf.mark_failed(0).unwrap();
        rf.resync(0).unwrap();
        assert!(matches!(
            rf.write_leased(fid, 0, b"stale", &grant.token),
            Err(ReplicationError::File(FileServiceError::LeaseFenced(_)))
        ));
        // But a reattach claim inside the window reconstructs the grant.
        let g2 = rf
            .lease_reattach(&grant.token, grant.mode, grant.stamp)
            .unwrap();
        assert_eq!(g2.token.epoch, grant.token.epoch + 1);
        rf.write_leased(fid, 0, b"fresh", &g2.token).unwrap();
        assert_eq!(rf.read(fid, 0, 5).unwrap(), b"fresh");
    }

    /// One scripted op + fault sequence (a torn write, a silently rotted
    /// sector, two resyncs), run against either deployment.
    /// Returns everything a caller could observe: every read's bytes,
    /// each replica's final contents, and the replication counters.
    fn scripted_run(
        deploy: fn(Vec<FileService>) -> ReplicatedFiles,
    ) -> (Vec<Vec<u8>>, ReplicationStats) {
        let clock = SimClock::new();
        let replicas = (0..3)
            .map(|_| {
                FileService::single_disk(
                    DiskGeometry::medium(),
                    LatencyModel::instant(),
                    clock.clone(),
                    FileServiceConfig {
                        // Mutations reach the platter inside `write`, so
                        // the injected tear surfaces there.
                        write_policy: rhodos_file_service::WritePolicy::WriteThrough,
                        ..FileServiceConfig::default()
                    },
                )
                .unwrap()
            })
            .collect();
        let mut rf = deploy(replicas);
        let mut seen = Vec::new();
        let a = rf.create(ServiceType::Basic).unwrap();
        let b = rf.create(ServiceType::Basic).unwrap();
        rf.open(a).unwrap();
        rf.open(b).unwrap();
        rf.write(a, 0, &[0xA1; 20_000]).unwrap();
        rf.write(b, 0, b"second file").unwrap();
        for _ in 0..4 {
            seen.push(rf.read(a, 9_000, 64).unwrap());
        }
        // Replica 1's next sector write tears mid-write.
        rf.replica_mut(1)
            .disk_mut(0)
            .disk_mut()
            .faults_mut()
            .crash_after_sector_writes(0);
        rf.write(a, 8_000, &[0xB2; 5_000]).unwrap();
        assert!(rf.is_failed(1), "the torn replica is masked out");
        rf.write(b, 6, b" FILE").unwrap();
        seen.push(rf.read(a, 7_990, 32).unwrap());
        seen.push(rf.read(b, 0, 11).unwrap());
        seen.push(rf.get_attribute(a).unwrap().size.to_le_bytes().to_vec());
        rf.resync(1).unwrap();
        rf.write(a, 19_990, b"after the resync").unwrap();
        for _ in 0..3 {
            seen.push(rf.read(a, 19_980, 26).unwrap());
        }
        // A sector of replica 0 rots silently. With every cache cold, the
        // read that lands there fails its checksum: the replica is masked
        // out and a peer serves the bytes.
        let addr = rf.replica_mut(0).block_descriptors(a).unwrap()[0].addr;
        rf.replica_mut(0)
            .disk_mut(0)
            .disk_mut()
            .silently_corrupt_sector(addr)
            .unwrap();
        for i in 0..3 {
            rf.replica_mut(i).evict_caches().unwrap();
        }
        for _ in 0..3 {
            seen.push(rf.read(a, 0, 64).unwrap());
        }
        assert!(rf.is_failed(0), "the rotted replica is masked out");
        rf.resync(0).unwrap();
        rf.close(b).unwrap();
        rf.delete(b).unwrap();
        rf.close(a).unwrap();
        for i in 0..3 {
            let fs = rf.replica_mut(i);
            assert!(!fs.exists(b));
            fs.open(a).unwrap();
            seen.push(fs.read(a, 0, 20_006).unwrap());
        }
        (seen, rf.stats().clone())
    }

    #[test]
    fn both_deployments_run_the_same_script_identically() {
        let co_located = scripted_run(ReplicatedFiles::new);
        let networked = scripted_run(|r| ReplicatedFiles::over_network(r, NetConfig::reliable()));
        assert_eq!(co_located.0, networked.0, "observed bytes differ");
        // A real lane reaches each replica at a different virtual time,
        // so the timestamps in their file index tables differ and resync
        // has more sectors to copy; every other counter must agree.
        assert!(co_located.1.resync_sectors_copied > 0);
        assert!(networked.1.resync_sectors_copied >= co_located.1.resync_sectors_copied);
        let timeless = |s: &ReplicationStats| ReplicationStats {
            resync_sectors_copied: 0,
            ..s.clone()
        };
        assert_eq!(
            timeless(&co_located.1),
            timeless(&networked.1),
            "replication counters differ"
        );
        assert_eq!(co_located.1.failovers, 2);
        assert_eq!(co_located.1.resyncs, 2);
        // All three replicas end byte-identical.
        let finals = &co_located.0[co_located.0.len() - 3..];
        assert!(finals.iter().all(|f| f == &finals[0]));
    }

    #[test]
    fn co_located_lane_costs_no_virtual_time_and_cannot_lose() {
        let clock = SimClock::new();
        let mk = || {
            FileService::single_disk(
                DiskGeometry::medium(),
                LatencyModel::instant(),
                clock.clone(),
                FileServiceConfig::default(),
            )
            .unwrap()
        };
        let mut rf = ReplicatedFiles::new(vec![mk(), mk()]);
        let t0 = clock.now_us();
        let fid = rf.create(ServiceType::Basic).unwrap();
        rf.open(fid).unwrap();
        for round in 0..50u8 {
            rf.write(fid, 0, &[round; 32]).unwrap();
            assert_eq!(rf.read(fid, 0, 32).unwrap(), vec![round; 32]);
        }
        assert_eq!(clock.now_us(), t0, "instant disks + in-process lane");
        let s = rf.rpc_stats();
        assert_eq!((s.retries, s.net_lost, s.replayed), (0, 0, 0));
        assert!(s.peak_entries <= 1);
    }
}
