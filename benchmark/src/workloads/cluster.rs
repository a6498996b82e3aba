//! `cluster-rpc`: a `rhodos_cluster::Cluster` master and four data
//! servers, every request crossing `wire::Channel` — the codec, the
//! simulated net and the at-most-once replay cache — and one request in
//! twenty a cross-shard two-phase commit.

use super::{LowerRung, Scale, Top};
use crate::counts;
use crate::driver::{replay, replay_spans, Counts, Recorder, Rung, Tally};
use crate::gen::{ClusterMix, Kind, Layout, Req, Stream, SEED_BYTE};
use crate::ladder;
use crate::model::Model;
use crate::trace::SpanLog;
use rhodos_cluster::{Cluster, ClusterConfig, CommitOutcome};
use rhodos_file_service::{FileId, FileService};
use rhodos_net::{NetConfig, ReplayCache, RpcClient, SimNetwork};
use rhodos_replication::wire::{self, Channel};
use rhodos_simdisk::LatencyModel;

const SERVERS: usize = 4;
/// Requests per epoch (≈ 250 ms here).
const EPOCH: usize = 13_000;

fn stream(seed: u64, scale: Scale) -> ClusterMix {
    ClusterMix::new(seed, scale.epoch(EPOCH))
}

pub struct ClusterTop {
    c: Cluster,
    gids: Vec<u64>,
    layout: Layout,
    gen: ClusterMix,
    model: Model,
    reqs: Vec<Req>,
    spans: Option<SpanLog>,
}

impl ClusterTop {
    pub fn build(seed: u64, scale: Scale) -> Self {
        let gen = stream(seed, scale);
        let layout = gen.layout();
        // The cluster's own default is a zero-latency disk model; the
        // benchmark's rule is `LatencyModel::default()` everywhere, so
        // that `sim_us_per_op` means the same on every workload.
        let mut c = Cluster::new(
            SERVERS,
            ClusterConfig {
                latency: LatencyModel::default(),
                ..ClusterConfig::default()
            },
        );
        let image = vec![SEED_BYTE; layout.file_bytes as usize];
        let gids: Vec<u64> = (0..layout.files)
            .map(|_| {
                let gid = c.create().expect("cluster create");
                c.open(gid).expect("cluster open");
                c.write(gid, 0, &image).expect("seed cluster file");
                gid
            })
            .collect();
        c.sync_all();
        for &gid in &gids {
            c.read(gid, 0, image.len()).expect("warm read");
        }
        Self {
            c,
            gids,
            layout,
            model: Model::new(layout),
            gen,
            reqs: Vec::new(),
            spans: None,
        }
    }

    fn exec(&mut self, r: &Req) -> bool {
        let gid = self.gids[r.file as usize];
        match r.kind {
            Kind::Read => self
                .c
                .read(gid, r.offset, r.len as usize)
                .is_ok_and(|got| self.model.matches(r, &got)),
            Kind::Write => {
                self.model.write(r);
                self.c.write(gid, r.offset, &[r.byte; 1024]).is_ok()
            }
            Kind::Cross => {
                let payload = vec![r.byte; r.len as usize];
                let ops = [
                    (gid, r.offset, payload.clone()),
                    (self.gids[r.file2 as usize], r.offset, payload),
                ];
                let committed = matches!(
                    self.c.commit_cross_shard(&ops),
                    Ok(CommitOutcome::Committed)
                );
                // An abort must leave neither half behind: the model
                // only moves on an acknowledged commit.
                if committed {
                    self.model.write(r);
                }
                committed
            }
            Kind::Update | Kind::Flush => unreachable!("not in the cluster mix"),
        }
    }
}

fn span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Read => "cluster.read",
        Kind::Write => "cluster.write",
        _ => "cluster.cross_commit",
    }
}

impl Rung for ClusterTop {
    fn prepare(&mut self) {
        self.reqs.clear();
        self.gen.fill(&mut self.reqs);
    }

    fn run(&mut self, rec: &mut Recorder) -> Tally {
        let reqs = std::mem::take(&mut self.reqs);
        let tally = match self.spans.take() {
            Some(mut log) => {
                let t = replay_spans(&reqs, rec, &mut log, span_name, |r| self.exec(r));
                self.spans = Some(log);
                t
            }
            None => replay(&reqs, rec, |r| self.exec(r)),
        };
        self.reqs = reqs;
        tally
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        for handle in self.c.server_handles() {
            counts::fold_txn(&mut c, &handle.lock());
        }
        counts::fold_cluster(&mut c, &self.c.stats());
        c
    }
}

impl Top for ClusterTop {
    /// Makes the plain (delayed-write) writes durable, crashes and
    /// recovers every data server, and checks that nothing is left in
    /// doubt and that every file holds exactly the acknowledged writes
    /// — in particular no half of an unacknowledged cross-shard commit.
    fn verify(&mut self) -> u64 {
        self.c.sync_all();
        for i in 0..self.c.server_count() {
            self.c.crash_server(i);
        }
        let mut bad = self.c.in_doubt_gtids().len() as u64;
        let size = self.layout.file_bytes as usize;
        for (f, &gid) in self.gids.iter().enumerate() {
            let same = self
                .c
                .read(gid, 0, size)
                .is_ok_and(|got| got == self.model.file(f));
            bad += u64::from(!same);
        }
        bad
    }

    fn trace_spans(&mut self) {
        self.spans = Some(SpanLog::new());
    }

    fn take_spans(&mut self) -> Option<SpanLog> {
        self.spans.take()
    }
}

/// The wire rung: the same requests through one `wire::Channel` to one
/// default file service — codec, net and replay cache without the
/// master's placement, liveness and two-phase commit. A cross-shard
/// request is its two writes plus the flushes that make them durable.
struct WireRung {
    chan: Channel,
    fs: FileService,
    fids: Vec<FileId>,
    gen: ClusterMix,
    model: Model,
    reqs: Vec<Req>,
}

impl WireRung {
    fn new(seed: u64, scale: Scale) -> Self {
        let gen = stream(seed, scale);
        let mut fs = ladder::single_disk_fs();
        let fids = ladder::seed_files(&mut fs, gen.layout());
        let chan = Channel {
            net: SimNetwork::new(fs.clock(), NetConfig::reliable()),
            client: RpcClient::new(1),
            cache: ReplayCache::new(),
        };
        Self {
            chan,
            fs,
            fids,
            model: Model::new(gen.layout()),
            gen,
            reqs: Vec::new(),
        }
    }

    fn write(&mut self, file: u16, r: &Req) -> bool {
        let fid = self.fids[file as usize];
        let req = wire::encode_write(fid, r.offset, &[r.byte; 1024]);
        self.chan.call(&mut self.fs, &req).is_ok()
    }

    fn exec(&mut self, r: &Req) -> bool {
        let fid = self.fids[r.file as usize];
        match r.kind {
            Kind::Read => {
                let req = wire::encode_read(fid, r.offset, r.len as usize);
                self.chan
                    .call(&mut self.fs, &req)
                    .is_ok_and(|got| self.model.matches(r, &got))
            }
            Kind::Write => {
                self.model.write(r);
                self.write(r.file, r)
            }
            Kind::Cross => {
                self.model.write(r);
                self.write(r.file, r)
                    && self.write(r.file2, r)
                    && self.fs.flush_file(fid).is_ok()
                    && self.fs.flush_file(self.fids[r.file2 as usize]).is_ok()
            }
            Kind::Update | Kind::Flush => unreachable!("not in the cluster mix"),
        }
    }
}

impl Rung for WireRung {
    fn prepare(&mut self) {
        self.reqs.clear();
        self.gen.fill(&mut self.reqs);
    }

    fn run(&mut self, rec: &mut Recorder) -> Tally {
        let reqs = std::mem::take(&mut self.reqs);
        let tally = replay(&reqs, rec, |r| self.exec(r));
        self.reqs = reqs;
        tally
    }

    /// The master keeps its channels private, so the net and replay
    /// counters of this workload are read here, one rung down.
    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        counts::fold_net(&mut c, &self.chan.net.stats());
        c.max(
            "hwm.replication.replay_entries",
            self.chan.cache.stats().peak_entries,
        );
        c
    }
}

/// Only the cross-shard commit is on the platter when acknowledged.
fn durable(kind: Kind) -> bool {
    kind == Kind::Cross
}

pub fn lower_rungs(seed: u64, scale: Scale) -> Vec<LowerRung> {
    let mk = move || Box::new(stream(seed, scale)) as Box<dyn Stream>;
    let mut rungs = super::device_rungs(mk, ladder::single_disk_fs, durable);
    rungs.push(LowerRung {
        layer: "replication.wire",
        build: Box::new(move || Box::new(WireRung::new(seed, scale))),
    });
    rungs
}
