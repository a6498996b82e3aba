//! `agent-lease`: four `FileAgent`s under `LeaseConfig::Auto` on one
//! single-disk server. Each client cache holds its agent's whole set,
//! so private files must stay zero-RPC while the shared ones bounce
//! between agents through recalls.
//!
//! The one knob off its default is the lease term (see
//! [`super::run_long_leases`]).

use super::{LowerRung, Scale, Top};
use crate::counts;
use crate::driver::{replay_spans, Counts, Recorder, Rung, Tally};
use crate::gen::{
    Kind, LeaseMix, Req, Stream, LEASE_AGENTS, LEASE_FILE_BLOCKS, LEASE_PRIVATE, LEASE_SHARED,
    SEED_BYTE,
};
use crate::ladder;
use crate::model::Model;
use crate::trace::SpanLog;
use parking_lot::Mutex;
use rhodos_agent::{FileAgent, LeaseConfig, ObjectDescriptor, ServerHandle};
use rhodos_file_service::{FileId, FileService, FileServiceConfig};
use rhodos_naming::{AttributedName, NamingService};
use rhodos_net::{NetConfig, SimNetwork};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
use rhodos_txn::{TransactionService, TxnConfig};
use std::sync::Arc;
use std::time::Instant;

/// Requests per epoch (≈ 120 ms here). Shorter than the other
/// workloads' on purpose: every recall parks the surrendered blocks in
/// the station's `served` map for good, and past roughly six million
/// requests (1.1 GB) each epoch takes twice as long and jitters; a run
/// of sixty of these epochs stays on the near side of that cliff.
const EPOCH: usize = 85_000;
/// A private hit takes a fraction of a microsecond: time one request
/// in eight, so the clock reads neither dominate nor overflow memory.
const SAMPLE_EVERY: u64 = 8;

fn stream(seed: u64, scale: Scale) -> LeaseMix {
    LeaseMix::new(seed, scale.epoch(EPOCH))
}

pub struct LeaseTop {
    server: ServerHandle,
    agents: Vec<FileAgent>,
    /// `ods[agent][file]`: descriptor of global file index `file`.
    ods: Vec<Vec<Option<ObjectDescriptor>>>,
    /// Server file id of every global file index.
    fids: Vec<FileId>,
    gen: LeaseMix,
    model: Model,
    reqs: Vec<Req>,
    issued: u64,
    spans: Option<SpanLog>,
    naming: Arc<Mutex<NamingService>>,
}

fn name_of(file: usize) -> AttributedName {
    AttributedName::parse(&format!("name=lease-{file}")).expect("attributed name")
}

impl LeaseTop {
    pub fn build(seed: u64, scale: Scale) -> Self {
        let gen = stream(seed, scale);
        let layout = gen.layout();
        let fs = FileService::single_disk(
            DiskGeometry::large(),
            LatencyModel::default(),
            SimClock::new(),
            FileServiceConfig {
                lease: super::run_long_leases(),
                ..FileServiceConfig::default()
            },
        )
        .expect("format file service");
        let clock = fs.clock();
        let server: ServerHandle = Arc::new(Mutex::new(
            TransactionService::new(fs, TxnConfig::default()).expect("transaction service"),
        ));
        let naming = Arc::new(Mutex::new(NamingService::new()));
        let per_agent_blocks = (LEASE_PRIVATE + LEASE_SHARED) * LEASE_FILE_BLOCKS as usize;
        let mut agents: Vec<FileAgent> = (0..LEASE_AGENTS)
            .map(|m| {
                FileAgent::with_lease_config(
                    m as u32,
                    vec![server.clone()],
                    naming.clone(),
                    SimNetwork::new(clock.clone(), NetConfig::reliable()),
                    per_agent_blocks + 8,
                    LeaseConfig::Auto,
                    NetConfig::reliable(),
                )
            })
            .collect();
        let image = vec![SEED_BYTE; layout.file_bytes as usize];
        let mut ods = vec![vec![None; layout.files]; LEASE_AGENTS];
        let mut fids = Vec::with_capacity(layout.files);
        for file in 0..layout.files {
            // Private files belong to their agent; agent 0 makes the
            // shared ones and everybody else opens them by name.
            let shared = file >= LEASE_AGENTS * LEASE_PRIVATE;
            let owner = if shared { 0 } else { file / LEASE_PRIVATE };
            let fid = agents[owner].create(&name_of(file)).expect("create");
            let od = agents[owner].open_fid(fid).expect("open");
            agents[owner].pwrite(od, 0, &image).expect("seed");
            agents[owner].flush(od).expect("seed flush");
            ods[owner][file] = Some(od);
            fids.push(fid);
            if shared {
                for (agent, row) in agents.iter_mut().zip(&mut ods).skip(1) {
                    row[file] = Some(agent.open(&name_of(file)).expect("open shared"));
                }
            }
        }
        // Warm pass: every agent reads its whole set into its cache.
        for (agent, row) in agents.iter_mut().zip(&ods) {
            for od in row.iter().flatten() {
                agent.pread(*od, 0, image.len()).expect("warm read");
            }
        }
        Self {
            server,
            agents,
            ods,
            fids,
            model: Model::new(layout),
            gen,
            reqs: Vec::new(),
            issued: 0,
            spans: None,
            naming,
        }
    }

    fn exec(&mut self, r: &Req) -> bool {
        let agent = &mut self.agents[r.client as usize];
        let od = self.ods[r.client as usize][r.file as usize].expect("agent opened this file");
        match r.kind {
            Kind::Read => agent
                .pread(od, r.offset, r.len as usize)
                .is_ok_and(|got| self.model.matches(r, &got)),
            Kind::Write => {
                self.model.write(r);
                agent.pwrite(od, r.offset, &[r.byte; 1024]).is_ok()
            }
            Kind::Flush => agent.flush(od).is_ok(),
            Kind::Update | Kind::Cross => unreachable!("not in the lease mix"),
        }
    }
}

impl Rung for LeaseTop {
    fn prepare(&mut self) {
        self.reqs.clear();
        self.gen.fill(&mut self.reqs);
    }

    fn run(&mut self, rec: &mut Recorder) -> Tally {
        let reqs = std::mem::take(&mut self.reqs);
        let tally = if let Some(mut log) = self.spans.take() {
            let t = replay_spans(&reqs, rec, &mut log, super::agent_span, |r| self.exec(r));
            self.spans = Some(log);
            t
        } else {
            // Like `replay`, but the clock is read for one request in
            // `SAMPLE_EVERY` (and for every flush, which is rare).
            let mut tally = Tally::default();
            for r in &reqs {
                self.issued += 1;
                let ok = if r.kind == Kind::Flush || self.issued.is_multiple_of(SAMPLE_EVERY) {
                    let t0 = Instant::now();
                    let ok = self.exec(r);
                    rec.push(r.kind.class(), t0.elapsed().as_nanos() as u64);
                    ok
                } else {
                    self.exec(r)
                };
                tally.count(r, ok);
            }
            tally
        };
        self.reqs = reqs;
        tally
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        counts::fold_file_service(&mut c, self.server.lock().file_service());
        for a in &self.agents {
            counts::fold_agent(&mut c, &a.stats());
            counts::fold_net(&mut c, &a.net_stats());
        }
        c
    }
}

impl Top for LeaseTop {
    /// Flushes every agent and compares a fingerprint of what the
    /// server holds with the model's.
    fn verify(&mut self) -> u64 {
        let mut unflushed = 0;
        for (agent, row) in self.agents.iter_mut().zip(&self.ods) {
            for od in row.iter().flatten() {
                unflushed += u64::from(agent.flush(*od).is_err());
            }
        }
        unflushed + super::server_mismatches(&self.server, &self.fids, &self.model)
    }

    fn trace_spans(&mut self) {
        // What `open` by name pays in the naming service, once per file.
        let mut log = SpanLog::new();
        for file in 0..self.fids.len() {
            let (id, started) = log.begin_request();
            let resolved = log.call("naming.resolve", id, || {
                self.naming.lock().resolve(&name_of(file))
            });
            assert!(resolved.is_ok(), "every file is registered");
            log.end_request(id, started);
        }
        self.spans = Some(log);
    }

    fn take_spans(&mut self) -> Option<SpanLog> {
        self.spans.take()
    }

    fn sample_every(&self) -> u64 {
        SAMPLE_EVERY
    }
}

pub fn lower_rungs(seed: u64, scale: Scale) -> Vec<LowerRung> {
    let mk = move || Box::new(stream(seed, scale)) as Box<dyn Stream>;
    super::device_rungs(mk, ladder::single_disk_fs, super::flush_is_not_durable)
}
