//! A shard is a lock-step replica set: how one request meets its
//! members.
//!
//! The paper asks that a file "may be replicated at several disk servers
//! ... the failure of one such server does not stop the system" (§3).
//! Every member of a set runs the same requests in the same order, so
//! file ids, allocations and platter images stay identical across it.
//! This file owns the one decision of how a request reaches a set:
//!
//! * **write-all** ([`Cluster::call_all`]) — a mutation goes to every
//!   current member; a member that faults, is skipped or answers an
//!   error while a peer applies it is *masked* (marked stale) and
//!   skipped from then on, as is a member that crashes
//!   ([`Cluster::crash_server`]) while a peer serves. The 2PC messages
//!   take the same loop without consulting heartbeats
//!   ([`Cluster::call_2pc`]);
//! * **read-one** ([`Cluster::call_one`]) — a read rotates over the
//!   current members and fails over past a faulty one;
//! * **one vote** ([`Cluster::prepare`]) — a 2PC prepare is forced on
//!   every current member before the set votes;
//! * **resync** ([`Cluster::resync`]) — a stale member gets every
//!   divergent sector copied from a current peer and recovers from the
//!   copied platters, then serves again;
//! * **peer scrub** ([`Cluster::scrub`]) — a latent fault a member cannot
//!   repair from its own redundancy is rewritten from a peer's copy.
//!
//! A member is masked only once a peer has answered in its place: when
//! no member can, nobody is masked and the error is the set's answer.
//! So a one-member shard (the default) behaves exactly as a single
//! server does.

use crate::master::{Cluster, ClusterError};
use rhodos_disk_service::{DiskServiceError, Extent, StablePolicy};
use rhodos_file_service::{FileServiceError, ScrubFinding, ScrubOwner, ScrubReport};
use rhodos_replication::wire::{decode_votes, Request};
use rhodos_simdisk::{SectorAddr, SimDisk};

/// Whether a failed call says the member is faulty rather than giving
/// the answer every member would give: an exhausted channel, or a
/// device or media fault.
fn is_fault(e: &ClusterError) -> bool {
    matches!(
        e,
        ClusterError::Unreachable(_)
            | ClusterError::File(FileServiceError::Disk(_) | FileServiceError::Corrupt(_))
    )
}

impl Cluster {
    /// Whether member `i` may serve a request: current, live, mounted
    /// and not decommissioned.
    pub(crate) fn serves(&self, i: usize) -> bool {
        let n = &self.nodes[i];
        !n.stale && n.alive && n.mounted && !n.removed
    }

    /// Whether another member of `i`'s set could carry it if `i` were
    /// masked.
    pub(crate) fn has_serving_peer(&self, i: usize) -> bool {
        let s = i / self.cfg.replicas;
        self.members(s).any(|j| j != i && self.serves(j))
    }

    /// Masks member `i` out of its set until [`Self::resync`].
    pub(crate) fn mask(&mut self, i: usize) {
        self.nodes[i].stale = true;
        self.stats.failovers += 1;
    }

    /// A mutation on every current member of shard `s` ("write-all")
    /// that the heartbeats hold live; returns one member's reply.
    pub(crate) fn call_all(
        &mut self,
        s: usize,
        req: &Request<'_>,
    ) -> Result<Vec<u8>, ClusterError> {
        self.fan_out(s, req, true)
            .map(|mut replies| replies.swap_remove(0).1)
    }

    /// A 2PC message on every current member of shard `s`, heartbeat
    /// verdicts aside: a decision is worth trying on a member whose link
    /// came back before a heartbeat did, and one still cut off answers
    /// `Unreachable` like any fault. Returns every member's reply, with
    /// the member.
    pub(crate) fn call_2pc(
        &mut self,
        s: usize,
        req: &Request<'_>,
    ) -> Result<Vec<(usize, Vec<u8>)>, ClusterError> {
        self.fan_out(s, req, false)
    }

    /// The loop under [`Self::call_all`] and [`Self::call_2pc`]. Once
    /// one member has applied the request, every current member that did
    /// not — faulty, skipped, or answering an error where the peer
    /// succeeded, which only a diverged member does — is masked. A
    /// semantic error from the first member that answers is the set's
    /// and returns at once, since lock-step members answer alike. Each
    /// member runs in a lane of its own: the request costs its slowest
    /// member.
    ///
    /// # Errors
    ///
    /// The last member's error when no member applied the request.
    fn fan_out(
        &mut self,
        s: usize,
        req: &Request<'_>,
        heed_heartbeats: bool,
    ) -> Result<Vec<(usize, Vec<u8>)>, ClusterError> {
        let frame = req.encode();
        let mut replies = Vec::with_capacity(1);
        let mut missed = Vec::new();
        let mut err = ClusterError::NoLiveServers;
        let mut lanes = self.clock.lanes();
        for i in self.members(s) {
            let n = &self.nodes[i];
            if n.stale {
                continue;
            }
            if heed_heartbeats && !n.removed && !n.alive {
                err = ClusterError::ServerUnavailable(i);
                missed.push(i);
                continue;
            }
            match lanes.lane(i, || self.call_node(i, &frame)) {
                Ok(payload) => replies.push((i, payload)),
                Err(e) if is_fault(&e) => {
                    err = e;
                    missed.push(i);
                }
                Err(_) if !replies.is_empty() => missed.push(i),
                Err(e) => return Err(e),
            }
        }
        if replies.is_empty() {
            return Err(err);
        }
        for i in missed {
            self.mask(i);
        }
        Ok(replies)
    }

    /// A 2PC prepare on every current member of shard `s`; returns the
    /// set's vote per transaction, none when no member answered. Members
    /// run the batch in lock-step and vote alike; a member that voted no
    /// where a peer forced a yes failed its own force and rolled back
    /// what its set prepared, so it is masked and the peers' yes stands.
    pub(crate) fn prepare(&mut self, s: usize, req: &Request<'_>) -> Vec<bool> {
        let Ok(replies) = self.call_2pc(s, req) else {
            return Vec::new();
        };
        let ballots: Vec<(usize, Vec<bool>)> = replies
            .iter()
            .map(|(i, p)| (*i, decode_votes(p).unwrap_or_default()))
            .collect();
        let mut votes = ballots[0].1.clone();
        for (_, ballot) in &ballots[1..] {
            for (vote, member) in votes.iter_mut().zip(ballot) {
                *vote |= member;
            }
        }
        for (i, ballot) in &ballots {
            if *ballot != votes {
                self.mask(*i);
            }
        }
        votes
    }

    /// One request to one current member of shard `s` ("read-one"),
    /// rotating from the member after the last one served and failing
    /// over past faulty ones, which are masked once a peer answers.
    /// Returns the serving member with its reply.
    ///
    /// # Errors
    ///
    /// The last member's error when none could answer; a semantic error
    /// at once.
    pub(crate) fn call_one(
        &mut self,
        s: usize,
        req: &Request<'_>,
    ) -> Result<(usize, Vec<u8>), ClusterError> {
        let frame = req.encode();
        let members = self.members(s);
        let r = members.len();
        let after = self.last_read[s] + 1 - members.start;
        let mut faulty = Vec::new();
        let mut err = ClusterError::NoLiveServers;
        for k in 0..r {
            let i = members.start + (after + k) % r;
            let n = &self.nodes[i];
            if n.stale {
                continue;
            }
            if n.removed {
                err = ClusterError::Removed(i);
                continue;
            }
            if !n.alive {
                err = ClusterError::ServerUnavailable(i);
                continue;
            }
            match self.call_node(i, &frame) {
                Ok(payload) => {
                    for j in faulty {
                        self.mask(j);
                    }
                    self.last_read[s] = i;
                    return Ok((i, payload));
                }
                Err(e) if is_fault(&e) => {
                    faulty.push(i);
                    err = e;
                }
                Err(e) => return Err(e),
            }
        }
        Err(err)
    }

    /// Brings member `i` back in step with its set and returns the
    /// sectors copied. The copy runs out of band (a repair crew, not an
    /// RPC) and is **physical**: every current member checkpoints
    /// ([`rhodos_txn::TransactionService::sync`]) so the set stays
    /// identical, then every sector of `i`'s platters — main storage and
    /// stable mirrors — that differs from a current peer's, or is marked
    /// bad, is re-copied in coalesced runs. `i` then restarts from the
    /// copied platters: whatever the divergence was (a missed write, a
    /// torn sector, a file it never saw created), it comes back
    /// byte-identical and serves again.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoLiveServers`] when no other current member can
    /// be the source; device faults of either side (a bad *source*
    /// sector fails the copy rather than propagating garbage).
    pub fn resync(&mut self, i: usize) -> Result<u64, ClusterError> {
        let s = i / self.cfg.replicas;
        let current: Vec<usize> = self
            .members(s)
            .filter(|&j| j != i && !self.nodes[j].stale && !self.nodes[j].removed)
            .collect();
        let &src = current.first().ok_or(ClusterError::NoLiveServers)?;
        for &j in &current {
            let mut ts = self.nodes[j].handle.lock();
            ts.sync()
                .map_err(|e| ClusterError::File(crate::commit::file_failure(e)))?;
        }
        let mut copied = 0;
        {
            let mut src_ts = self.nodes[src].handle.lock();
            let mut dst_ts = self.nodes[i].handle.lock();
            let (from, to) = (src_ts.file_service_mut(), dst_ts.file_service_mut());
            for d in 0..from.disk_count() {
                copied +=
                    copy_divergent_sectors(from.disk_mut(d).disk_mut(), to.disk_mut(d).disk_mut())?;
                if let (Some(a), Some(b)) =
                    (from.disk_mut(d).stable_mut(), to.disk_mut(d).stable_mut())
                {
                    copied += copy_divergent_sectors(a.mirror_a_mut(), b.mirror_a_mut())?;
                    copied += copy_divergent_sectors(a.mirror_b_mut(), b.mirror_b_mut())?;
                }
            }
        }
        // Restart from the copied platters: volatile state, open counts
        // and the replay cache all come back as after a crash.
        self.restart(i)?;
        self.nodes[i].stale = false;
        self.stats.resyncs += 1;
        self.stats.resync_sectors_copied += copied;
        Ok(copied)
    }

    /// Scrubs every serving member and heals across each set: a latent
    /// fault a member cannot repair from its own redundancy (stable
    /// mirror or block pool) is rewritten from the first current peer
    /// holding a good copy. A fault is counted `still_unrecoverable`
    /// only when no peer can produce the data — and even then it is
    /// reported, never dropped.
    ///
    /// `budget` is the per-member sector budget, as in
    /// [`rhodos_file_service::FileService::scrub`]. A member whose scrub
    /// fails outright (its disk crashed) is masked like any other fault.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoLiveServers`] when no member could be scrubbed.
    pub fn scrub(&mut self, budget: Option<u64>) -> Result<ClusterScrubReport, ClusterError> {
        let mut report = ClusterScrubReport {
            servers: vec![None; self.nodes.len()],
            ..ClusterScrubReport::default()
        };
        for i in 0..self.nodes.len() {
            if !self.serves(i) {
                continue;
            }
            let scrubbed = self.nodes[i].handle.lock().file_service_mut().scrub(budget);
            let Ok(local) = scrubbed else {
                if self.has_serving_peer(i) {
                    self.mask(i);
                }
                continue;
            };
            for finding in local.unrecoverable() {
                if self.repair_from_peer(i, finding) {
                    report.peer_repairs += 1;
                    self.stats.peer_repairs += 1;
                } else {
                    report.still_unrecoverable += 1;
                }
            }
            report.servers[i] = Some(local);
        }
        if report.servers.iter().all(Option::is_none) {
            return Err(ClusterError::NoLiveServers);
        }
        Ok(report)
    }

    /// Heals one unrecoverable finding on member `i` from a current
    /// peer. Data blocks go through the file services' logical block
    /// paths; metadata fragments and parity units are copied physically,
    /// since the same address holds the same bytes on every member.
    /// Either way the local rewrite lands through the normal put path,
    /// quarantining and remapping the bad sector.
    fn repair_from_peer(&mut self, i: usize, finding: &ScrubFinding) -> bool {
        let s = i / self.cfg.replicas;
        let peers: Vec<usize> = self
            .members(s)
            .filter(|&j| j != i && !self.nodes[j].stale && !self.nodes[j].removed)
            .collect();
        let frag = Extent::new(finding.addr, 1);
        let d = finding.disk as usize;
        for j in peers {
            let good = {
                let mut peer = self.nodes[j].handle.lock();
                let fs = peer.file_service_mut();
                match finding.owner {
                    ScrubOwner::Data { fid, block } => fs.read_block_for_repair(fid, block),
                    _ => fs.disk_mut(d).get(frag).ok().map(|b| b.to_vec()),
                }
            };
            let Some(good) = good else { continue };
            let mut me = self.nodes[i].handle.lock();
            let fs = me.file_service_mut();
            let healed = match finding.owner {
                ScrubOwner::Data { fid, block } => fs.rewrite_block(fid, block, &good).is_ok(),
                _ => fs.disk_mut(d).put(frag, &good, StablePolicy::None).is_ok(),
            };
            if healed {
                return true;
            }
        }
        false
    }
}

/// Result of one cluster-wide [`Cluster::scrub`].
#[derive(Debug, Clone, Default)]
pub struct ClusterScrubReport {
    /// Per-server scrub reports (`None` for servers that were not
    /// serving or faulted during the walk).
    pub servers: Vec<Option<ScrubReport>>,
    /// Faults healed from a set peer after local redundancy fell short.
    pub peer_repairs: u64,
    /// Faults no peer could produce the data for — data loss, reported
    /// loudly.
    pub still_unrecoverable: u64,
}

impl ClusterScrubReport {
    /// Latent faults found across all servers this call.
    pub fn faults_found(&self) -> u64 {
        self.servers
            .iter()
            .flatten()
            .map(|r| r.stats.faults_found)
            .sum()
    }

    /// Whether every scanned server was healthy.
    pub fn is_clean(&self) -> bool {
        self.servers.iter().flatten().all(ScrubReport::is_clean)
    }
}

/// Copies every sector of `dst` that differs from `src` (or is marked as
/// a media fault on `dst`), coalescing adjacent sectors into runs so one
/// run costs one disk reference per side. Returns sectors copied.
///
/// Reads go through the source's normal fault-checked path. Writes heal
/// the target's bad sectors via the simulator's spare-sector remapping,
/// and the target is power-cycled (`repair`) first so a crashed disk
/// accepts the copy.
fn copy_divergent_sectors(src: &mut SimDisk, dst: &mut SimDisk) -> Result<u64, ClusterError> {
    let total = src.geometry().total_sectors();
    assert_eq!(
        total,
        dst.geometry().total_sectors(),
        "set members share a geometry"
    );
    dst.repair();
    let mut runs: Vec<(SectorAddr, u64)> = Vec::new();
    for s in 0..total {
        // `sector_faulty` resolves the target's spare-sector remap, so a
        // re-failed spare is recognised as divergent too.
        let needs_copy = dst.sector_faulty(s)
            || src.peek_sector(s).map_err(disk_err)? != dst.peek_sector(s).map_err(disk_err)?;
        if needs_copy {
            match runs.last_mut() {
                Some((start, len)) if *start + *len == s => *len += 1,
                _ => runs.push((s, 1)),
            }
        }
    }
    let mut copied = 0;
    for (start, len) in runs {
        let data = src.read_sectors(start, len).map_err(disk_err)?;
        dst.write_bufs(start, &[data]).map_err(disk_err)?;
        copied += len;
    }
    Ok(copied)
}

fn disk_err(e: rhodos_simdisk::DiskError) -> ClusterError {
    ClusterError::File(FileServiceError::Disk(DiskServiceError::Disk(e)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::CommitOutcome;
    use crate::master::{ClusterConfig, Link};
    use rhodos_disk_service::codec::Decoder;
    use rhodos_file_service::{FileId, LeaseMode};
    use rhodos_net::NetConfig;
    use rhodos_replication::wire::decode_grant;

    /// `shards` shards of `r` co-located members (an in-process lane that
    /// cannot lose and costs no virtual time).
    fn sets(shards: usize, r: usize) -> Cluster {
        let cfg = ClusterConfig {
            data_net: NetConfig::in_process(),
            replicas: r,
            ..ClusterConfig::default()
        };
        Cluster::new(shards, cfg)
    }

    /// One shard of `r` with one open file holding `data`, flushed on
    /// every member: the cluster, the cluster id and the local id.
    fn one_file(r: usize, data: &[u8]) -> (Cluster, u64, FileId) {
        let mut c = sets(1, r);
        let gid = c.create().unwrap();
        c.open(gid).unwrap();
        c.write(gid, 0, data).unwrap();
        for i in 0..r {
            c.with_server(i, |fs| fs.flush_all().unwrap());
        }
        let fid = c.placement_of(gid).unwrap().1;
        (c, gid, fid)
    }

    fn reads(c: &Cluster) -> Vec<u64> {
        (0..c.server_count()).map(|i| c.server_reads(i)).collect()
    }

    /// A write reaches both members of a set of two in parallel lanes:
    /// it costs one member's round trip (give or take the jitter of its
    /// two transmissions), not two.
    #[test]
    fn a_write_to_a_set_of_two_costs_one_round_trip() {
        use rhodos_simdisk::LatencyModel;
        let cost = |r: usize| {
            let cfg = ClusterConfig {
                latency: LatencyModel::default(),
                replicas: r,
                ..ClusterConfig::default()
            };
            let mut c = Cluster::new(1, cfg);
            let gid = c.create().unwrap();
            c.open(gid).unwrap();
            let t0 = c.clock().now_us();
            c.write(gid, 0, &[7; 1024]).unwrap();
            c.clock().now_us() - t0
        };
        let (one, two) = (cost(1), cost(2));
        let jitter = 2 * NetConfig::reliable().jitter_us;
        assert!(
            one.abs_diff(two) <= jitter,
            "r = 1: {one} us, r = 2: {two} us"
        );
    }

    #[test]
    fn writes_reach_every_member_and_reads_rotate() {
        let (mut c, gid, fid) = one_file(3, b"replicated");
        for _ in 0..6 {
            assert_eq!(c.read(gid, 0, 10).unwrap(), b"replicated");
        }
        assert_eq!(reads(&c), vec![2, 2, 2]);
        for i in 0..3 {
            assert_eq!(
                c.with_server(i, |fs| fs.read(fid, 0, 10).unwrap()),
                b"replicated"
            );
        }
    }

    #[test]
    fn a_read_fails_over_past_a_member_whose_disk_failed() {
        let (mut c, gid, _) = one_file(3, b"survive");
        c.with_server(0, |fs| {
            fs.evict_caches().unwrap();
            fs.disk_mut(0).disk_mut().faults_mut().crash_now();
        });
        for _ in 0..6 {
            assert_eq!(c.read(gid, 0, 7).unwrap(), b"survive");
        }
        assert_eq!(c.stats().failovers, 1);
        assert!(!c.is_current(0));
        assert_eq!(reads(&c), vec![0, 3, 3]);
    }

    /// The rotation index is absolute: with member 1 of 3 masked the
    /// other two split reads evenly, and after the resync all three
    /// rotate again.
    #[test]
    fn the_rotation_stays_even_while_a_member_is_out() {
        let (mut c, gid, _) = one_file(3, b"spread");
        c.set_link(1, Link::Down);
        for _ in 0..12 {
            c.read(gid, 0, 6).unwrap();
        }
        assert_eq!(reads(&c), vec![6, 0, 6]);
        c.set_link(1, Link::Up);
        c.resync(1).unwrap();
        for _ in 0..12 {
            c.read(gid, 0, 6).unwrap();
        }
        assert_eq!(reads(&c), vec![10, 4, 10]);
    }

    /// One liveness machine: a member that misses a write is masked, and
    /// the heartbeat that finds it again resyncs it before it serves.
    #[test]
    fn a_member_that_missed_writes_is_resynced_when_it_answers_again() {
        let (mut c, gid, fid) = one_file(2, b"v1");
        c.set_link(1, Link::Down);
        c.write(gid, 0, b"v2").unwrap();
        assert!(!c.is_current(1), "the write went on without it");
        c.set_link(1, Link::Up);
        c.heartbeat_pulse();
        assert!(c.is_current(1));
        assert_eq!(c.stats().resyncs, 1);
        assert_eq!(c.with_server(1, |fs| fs.read(fid, 0, 2).unwrap()), b"v2");
        // Its open count came back with it, so the set closes and deletes
        // in step.
        c.close(gid).unwrap();
        c.delete(gid).unwrap();
        assert!((0..2).all(|i| !c.with_server(i, |fs| fs.exists(fid))));
    }

    /// A member restarted by a resync gets back every open the master
    /// issued, not just one: two opens, a resync, two closes and a delete
    /// run in step on the whole set, whichever member was resynced.
    #[test]
    fn a_resync_restores_every_open_for_close_and_delete() {
        for resynced in 0..2 {
            let (mut c, gid, fid) = one_file(2, b"counted");
            c.open(gid).unwrap();
            c.set_link(resynced, Link::Down);
            c.write(gid, 0, b"counted!").unwrap();
            c.set_link(resynced, Link::Up);
            c.resync(resynced).unwrap();
            c.close(gid).unwrap();
            c.close(gid).unwrap();
            assert_eq!(c.get_attr(gid).unwrap().ref_count, 0);
            c.delete(gid).unwrap();
            assert!((0..2).all(|i| c.is_current(i)), "member {resynced}");
            assert!((0..2).all(|i| !c.with_server(i, |fs| fs.exists(fid))));
        }
    }

    /// A member that crashes while a peer serves lost the delayed writes
    /// the peer kept: it is masked, reads go to the peer, and the next
    /// heartbeat resyncs it.
    #[test]
    fn a_crashed_member_is_masked_until_a_heartbeat_resyncs_it() {
        let (mut c, gid, fid) = one_file(2, b"old");
        c.write(gid, 0, b"new").unwrap();
        c.crash_server(0);
        assert!(!c.is_current(0));
        for _ in 0..2 {
            assert_eq!(c.read(gid, 0, 3).unwrap(), b"new");
        }
        c.heartbeat_pulse();
        assert!(c.is_current(0));
        assert_eq!(c.with_server(0, |fs| fs.read(fid, 0, 3).unwrap()), b"new");
        // A whole set that crashes together loses the same state and
        // stays in step.
        c.crash_shard(0);
        assert!((0..2).all(|i| c.is_current(i)));
    }

    /// A member whose platters do not mount is down, not only out of
    /// step, so it never answers a probe: the heartbeat resyncs it from
    /// its current peer — a physical copy, the bad directory sectors
    /// included — which mounts it, and it serves again.
    #[test]
    fn a_member_that_cannot_mount_is_healed_by_the_heartbeat() {
        use rhodos_simdisk::SimDisk;
        let (mut c, gid, fid) = one_file(2, b"old");
        c.write(gid, 0, b"new").unwrap();
        c.sync_all();
        // Every copy of member 1's directory region: disk 0 and both
        // stable mirrors.
        let bad = |disk: &mut SimDisk| (0..16).for_each(|s| disk.faults_mut().mark_bad_sector(s));
        c.with_server(1, |fs| {
            let d = fs.disk_mut(0);
            bad(d.disk_mut());
            let stable = d.stable_mut().expect("a stable pair");
            bad(stable.mirror_a_mut());
            bad(stable.mirror_b_mut());
        });
        c.crash_server(1);
        assert!(!c.is_current(1));
        for _ in 0..10 {
            c.heartbeat_pulse();
        }
        assert_eq!(c.stats().resyncs, 1);
        assert!(c.is_current(1) && c.is_alive(1));
        assert_eq!(c.with_server(1, |fs| fs.read(fid, 0, 3).unwrap()), b"new");
        let before = c.server_reads(1);
        for _ in 0..2 {
            assert_eq!(c.read(gid, 0, 3).unwrap(), b"new");
        }
        assert_eq!(c.server_reads(1), before + 1, "it takes its turn");
    }

    /// The lease protocol crosses the wire to every member: a delegated
    /// write lands on the whole set, renew extends the term, and a
    /// released token is fenced.
    #[test]
    fn lease_ops_cross_the_wire_to_every_member() {
        let mut c = Cluster::new(
            1,
            ClusterConfig {
                data_net: NetConfig::lossy(0.15, 0.1, 9),
                replicas: 3,
                ..ClusterConfig::default()
            },
        );
        c.set_max_attempts(64);
        let gid = c.create().unwrap();
        c.open(gid).unwrap();
        let fid = c.placement_of(gid).unwrap().1;
        let acquire = Request::LeaseAcquire(7, fid, LeaseMode::Write);
        let reply = c.call_all(0, &acquire).unwrap();
        let mut d = Decoder::new(&reply);
        let grant = decode_grant(&mut d).unwrap();
        assert_eq!(d.u64().unwrap(), 0, "the file is empty");
        assert_eq!(grant.token.client, 7);
        let write = |data: &'static [u8], token| Request::WriteLeased(fid, 0, data, token);
        c.call_all(0, &write(b"delegated", grant.token)).unwrap();
        assert_eq!(c.read(gid, 0, 9).unwrap(), b"delegated");
        let renewed = c.call_all(0, &Request::LeaseRenew(grant.token)).unwrap();
        assert!(Decoder::new(&renewed).u64().unwrap() >= grant.expiry_us);
        c.call_all(0, &Request::LeaseRelease(grant.token)).unwrap();
        assert_eq!(
            c.call_all(0, &write(b"too late", grant.token)),
            Err(ClusterError::File(FileServiceError::LeaseFenced(fid)))
        );
        assert!((0..3).all(|i| c.is_current(i)));
        for i in 0..3 {
            let got = c.with_server(i, |fs| {
                fs.flush_all().unwrap();
                fs.read(fid, 0, 9).unwrap()
            });
            assert_eq!(got, b"delegated", "member {i}");
        }
    }

    /// Lease tables are soft state: a set that restarts bumps its lease
    /// epoch on every member, the old token is fenced, and a reattach
    /// claim inside the window rebuilds the grant.
    #[test]
    fn a_restarted_set_fences_old_leases_and_honours_reattach() {
        let mut c = sets(1, 2);
        let gid = c.create().unwrap();
        c.open(gid).unwrap();
        let fid = c.placement_of(gid).unwrap().1;
        let acquire = Request::LeaseAcquire(3, fid, LeaseMode::Write);
        let reply = c.call_all(0, &acquire).unwrap();
        let grant = decode_grant(&mut Decoder::new(&reply)).unwrap();
        c.crash_shard(0);
        let write = |data: &'static [u8], token| Request::WriteLeased(fid, 0, data, token);
        assert_eq!(
            c.call_all(0, &write(b"stale", grant.token)),
            Err(ClusterError::File(FileServiceError::LeaseFenced(fid)))
        );
        let reattach = Request::LeaseReattach(grant.token, grant.mode);
        let reply = c.call_all(0, &reattach).unwrap();
        let again = decode_grant(&mut Decoder::new(&reply)).unwrap();
        assert_eq!(again.token.epoch, grant.token.epoch + 1);
        c.call_all(0, &write(b"fresh", again.token)).unwrap();
        assert!((0..2).all(|i| c.is_current(i)));
        for _ in 0..2 {
            assert_eq!(c.read(gid, 0, 5).unwrap(), b"fresh");
        }
    }

    #[test]
    fn the_last_current_member_answers_for_the_set() {
        let (mut c, gid, _) = one_file(2, b"x");
        c.set_link(0, Link::Down);
        c.set_link(1, Link::Down);
        assert_eq!(c.write(gid, 0, b"y"), Err(ClusterError::Unreachable(1)));
        assert!((0..2).all(|i| c.is_current(i)), "nothing applied it");
        assert_eq!(c.read(gid, 0, 1), Err(ClusterError::Unreachable(1)));
        c.set_link(0, Link::Up);
        c.write(gid, 0, b"y").unwrap();
        assert!(!c.is_current(1), "a peer applied it this time");
    }

    #[test]
    fn semantic_errors_do_not_fail_over() {
        let mut c = sets(1, 2);
        let gid = c.create().unwrap();
        assert!(matches!(
            c.read(gid, 0, 1),
            Err(ClusterError::File(FileServiceError::NotOpen(_)))
        ));
        assert!((0..2).all(|i| c.is_current(i)));
    }

    /// A member that answers an error where a peer applied the request
    /// has diverged: it is masked, the request stands, and a heartbeat
    /// resyncs it.
    #[test]
    fn a_member_that_dissents_from_a_peer_is_masked() {
        let (mut c, gid, fid) = one_file(2, b"x");
        c.with_server(1, |fs| fs.close(fid).unwrap());
        c.close(gid).unwrap();
        assert!(c.is_current(0) && !c.is_current(1));
        assert_eq!(c.stats().failovers, 1);
        c.heartbeat_pulse();
        c.delete(gid).unwrap();
        assert!((0..2).all(|i| c.is_current(i) && !c.with_server(i, |fs| fs.exists(fid))));
    }

    #[test]
    fn a_resync_needs_a_current_source() {
        let mut c = sets(1, 1);
        assert_eq!(c.resync(0), Err(ClusterError::NoLiveServers));
    }

    #[test]
    fn peer_scrub_heals_an_uncached_data_fault() {
        let (mut c, gid, fid) = one_file(2, &vec![0x3C; 50_000]);
        c.with_server(0, |fs| {
            fs.evict_caches().unwrap();
            let addr = fs.block_descriptors(fid).unwrap()[2].addr;
            fs.disk_mut(0)
                .disk_mut()
                .silently_corrupt_sector(addr)
                .unwrap();
        });
        let report = c.scrub(None).unwrap();
        assert_eq!(report.faults_found(), 1);
        assert_eq!((report.peer_repairs, report.still_unrecoverable), (1, 0));
        assert_eq!(c.stats().peer_repairs, 1);
        // Member 0's platter is healthy again and serves the bytes alone.
        assert!(c.with_server(0, |fs| fs.scrub(None).unwrap().is_clean()));
        c.set_link(1, Link::Down);
        assert_eq!(c.read(gid, 17_000, 4).unwrap(), vec![0x3C; 4]);
    }

    #[test]
    fn peer_scrub_heals_metadata_when_the_stable_mirrors_are_gone_too() {
        let (mut c, _, fid) = one_file(2, b"metadata matters");
        c.with_server(0, |fs| {
            // The FIT fragment on main storage AND both stable mirrors.
            let fit = fs.block_descriptors(fid).unwrap()[0].addr - 1;
            fs.evict_caches().unwrap();
            fs.disk_mut(0)
                .disk_mut()
                .silently_corrupt_sector(fit)
                .unwrap();
            let stable = fs.disk_mut(0).stable_mut().unwrap();
            stable.mirror_a_mut().corrupt_sector(2 * fit).unwrap();
            stable.mirror_b_mut().corrupt_sector(2 * fit).unwrap();
        });
        let report = c.scrub(None).unwrap();
        assert!(report.peer_repairs >= 1, "{report:?}");
        assert_eq!(report.still_unrecoverable, 0);
        assert!(c.with_server(0, |fs| fs.scrub(None).unwrap().is_clean()));
    }

    #[test]
    fn peer_scrub_reports_loss_when_no_member_has_the_data() {
        let (mut c, _, fid) = one_file(2, &vec![0x42; 30_000]);
        for i in 0..2 {
            c.with_server(i, |fs| {
                let addr = fs.block_descriptors(fid).unwrap()[1].addr;
                fs.disk_mut(0)
                    .disk_mut()
                    .silently_corrupt_sector(addr)
                    .unwrap();
                fs.evict_caches().unwrap();
            });
        }
        let report = c.scrub(None).unwrap();
        assert!(report.still_unrecoverable >= 1, "{report:?}");
    }

    /// A 2PC participant is a set: the prepare is forced on every current
    /// member, a member that cannot take it is masked rather than voting
    /// for its set, and the resync carries the commit to it.
    #[test]
    fn a_cross_shard_commit_lands_on_every_current_member() {
        let mut c = sets(2, 2);
        let gids: Vec<u64> = (0..2)
            .map(|k| {
                let gid = c.create().unwrap();
                c.open(gid).unwrap();
                c.write(gid, 0, &[k as u8 + 1; 1024]).unwrap();
                gid
            })
            .collect();
        assert_eq!(c.placement_of(gids[1]).unwrap().0, 1);
        c.sync_all();
        c.set_link(3, Link::Down);
        let ops = vec![
            (gids[0], 3, b"alpha".to_vec()),
            (gids[1], 7, b"beta!".to_vec()),
        ];
        assert_eq!(
            c.commit_cross_shard(&ops).unwrap(),
            CommitOutcome::Committed
        );
        assert_eq!(c.stats().prepare_rpcs, 2, "one prepare per shard");
        assert!(!c.is_current(3) && c.is_current(2));
        assert!(c.in_doubt_gtids().is_empty());
        c.set_link(3, Link::Up);
        c.heartbeat_pulse();
        assert!(c.is_current(3));
        // A member whose own prepare force fails votes no while its peer
        // forced a yes: it is masked, and the set's yes stands.
        c.with_server(2, |fs| {
            fs.disk_mut(0)
                .disk_mut()
                .faults_mut()
                .crash_after_sector_writes(0)
        });
        let again = vec![
            (gids[0], 3, b"alpha".to_vec()),
            (gids[1], 7, b"beta!".to_vec()),
        ];
        assert_eq!(
            c.commit_cross_shard(&again).unwrap(),
            CommitOutcome::Committed
        );
        assert!(!c.is_current(2) && c.is_current(3));
        assert!(c.in_doubt_gtids().is_empty());
        c.heartbeat_pulse();
        assert!(c.is_current(2));
        for i in 0..4 {
            let (shard, at, want) = if i < 2 {
                (0, 3, &b"alpha"[..])
            } else {
                (1, 7, &b"beta!"[..])
            };
            let fid = c.placement_of(gids[shard]).unwrap().1;
            assert_eq!(
                c.with_server(i, |fs| fs.read(fid, at, 5).unwrap()),
                want,
                "server {i}"
            );
        }
    }
}
