//! `agent-stream`: one `FileAgent` streaming 64 KiB transfers to a
//! server striped over four disks. The 96 MiB file set is far larger
//! than the server's 1 MiB block pool and the agent's 1 MiB cache, so
//! every read is cold and every write is pushed down to the platters.

use super::{LowerRung, Scale, Top};
use crate::counts;
use crate::driver::{replay, replay_spans, Counts, Recorder, Rung, Tally};
use crate::gen::{Kind, Req, Stream, StreamMix, SEED_BYTE, STREAM_CHUNK};
use crate::model::Model;
use crate::trace::SpanLog;
use parking_lot::Mutex;
use rhodos_agent::{FileAgent, LeaseConfig, ObjectDescriptor, ServerHandle};
use rhodos_file_service::{FileId, FileService, FileServiceConfig, StripePolicy};
use rhodos_naming::{AttributedName, NamingService};
use rhodos_net::{NetConfig, SimNetwork};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
use rhodos_txn::{TransactionService, TxnConfig};
use std::sync::Arc;

const DISKS: usize = 4;
const FILES: usize = 48;
const FILE_BYTES: u64 = 2 << 20;
/// As much as the server's block pool, and half a file: the second
/// half of every file's writes evicts as it goes.
const CLIENT_CACHE_BLOCKS: usize = 128;
/// Requests per epoch (≈ 250 ms here): 42 write-flush-read cycles.
const EPOCH: usize = 42 * 65;

fn stream(seed: u64, scale: Scale) -> StreamMix {
    if scale.smoke {
        StreamMix::new(seed, 6, 4 * STREAM_CHUNK, scale.epoch(EPOCH))
    } else {
        StreamMix::new(seed, FILES, FILE_BYTES, EPOCH)
    }
}

/// The server's file service: every knob at its default except the
/// stripe policy, which is what "striped" means — 16 KiB chunks, so
/// one 64 KiB transfer fans out over all four spindles — and the lease
/// term (see [`super::run_long_leases`]).
fn striped_fs() -> FileService {
    FileService::striped(
        DISKS,
        DiskGeometry::large(),
        LatencyModel::default(),
        SimClock::new(),
        FileServiceConfig {
            stripe: StripePolicy::RoundRobin { chunk_blocks: 2 },
            lease: super::run_long_leases(),
            ..FileServiceConfig::default()
        },
    )
    .expect("format striped file service")
}

pub struct StreamTop {
    server: ServerHandle,
    agent: FileAgent,
    ods: Vec<ObjectDescriptor>,
    fids: Vec<FileId>,
    gen: StreamMix,
    model: Model,
    reqs: Vec<Req>,
    payload: Vec<u8>,
    spans: Option<SpanLog>,
}

impl StreamTop {
    pub fn build(seed: u64, scale: Scale) -> Self {
        let gen = stream(seed, scale);
        let layout = gen.layout();
        let fs = striped_fs();
        let clock = fs.clock();
        let server: ServerHandle = Arc::new(Mutex::new(
            TransactionService::new(fs, TxnConfig::default()).expect("transaction service"),
        ));
        let mut agent = FileAgent::with_lease_config(
            0,
            vec![server.clone()],
            Arc::new(Mutex::new(NamingService::new())),
            SimNetwork::new(clock, NetConfig::reliable()),
            CLIENT_CACHE_BLOCKS,
            LeaseConfig::Auto,
            NetConfig::reliable(),
        );
        let chunk = vec![SEED_BYTE; STREAM_CHUNK as usize];
        let mut ods = Vec::with_capacity(layout.files);
        let mut fids = Vec::with_capacity(layout.files);
        for file in 0..layout.files {
            let name = AttributedName::parse(&format!("name=stream-{file}")).expect("name");
            let fid = agent.create(&name).expect("create");
            let od = agent.open_fid(fid).expect("open");
            for at in (0..layout.file_bytes).step_by(chunk.len()) {
                agent.pwrite(od, at, &chunk).expect("seed");
            }
            agent.flush(od).expect("seed flush");
            ods.push(od);
            fids.push(fid);
        }
        // Warm pass: one file end to end, so leases, FITs and the
        // allocator have all been exercised before the clock starts.
        for at in (0..layout.file_bytes).step_by(chunk.len()) {
            agent.pread(ods[0], at, chunk.len()).expect("warm read");
        }
        Self {
            server,
            agent,
            ods,
            fids,
            model: Model::new(layout),
            gen,
            reqs: Vec::new(),
            payload: chunk,
            spans: None,
        }
    }

    fn exec(&mut self, r: &Req) -> bool {
        let od = self.ods[r.file as usize];
        match r.kind {
            Kind::Read => self
                .agent
                .pread(od, r.offset, r.len as usize)
                .is_ok_and(|got| self.model.matches(r, &got)),
            Kind::Write => {
                self.model.write(r);
                self.payload.fill(r.byte);
                self.agent.pwrite(od, r.offset, &self.payload).is_ok()
            }
            Kind::Flush => self.agent.flush(od).is_ok(),
            Kind::Update | Kind::Cross => unreachable!("not in the stream mix"),
        }
    }
}

impl Rung for StreamTop {
    fn prepare(&mut self) {
        self.reqs.clear();
        self.gen.fill(&mut self.reqs);
    }

    fn run(&mut self, rec: &mut Recorder) -> Tally {
        let reqs = std::mem::take(&mut self.reqs);
        let tally = match self.spans.take() {
            Some(mut log) => {
                let t = replay_spans(&reqs, rec, &mut log, super::agent_span, |r| self.exec(r));
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
        counts::fold_file_service(&mut c, self.server.lock().file_service());
        counts::fold_agent(&mut c, &self.agent.stats());
        counts::fold_net(&mut c, &self.agent.net_stats());
        c
    }
}

impl Top for StreamTop {
    /// Flushes everything and compares a fingerprint of what the
    /// server holds with the model's.
    fn verify(&mut self) -> u64 {
        let unflushed = self
            .ods
            .iter()
            .filter(|&&od| self.agent.flush(od).is_err())
            .count() as u64;
        unflushed + super::server_mismatches(&self.server, &self.fids, &self.model)
    }

    fn trace_spans(&mut self) {
        self.spans = Some(SpanLog::new());
    }

    fn take_spans(&mut self) -> Option<SpanLog> {
        self.spans.take()
    }
}

pub fn lower_rungs(seed: u64, scale: Scale) -> Vec<LowerRung> {
    let mk = move || Box::new(stream(seed, scale)) as Box<dyn Stream>;
    super::device_rungs(mk, striped_fs, super::flush_is_not_durable)
}
