//! The five workloads. Each builds its stack at `Default` configs
//! through public constructors only, exposes its real top rung (plain
//! and span-traced) and names the lower rungs its requests cross.

pub mod cluster;
pub mod lease;
pub mod stream;
pub mod txn;

use crate::driver::Rung;
use crate::gen::{Kind, Stream};
use crate::ladder::{self, FileServiceRung};
use crate::model::{fnv1a, Model, FNV_OFFSET};
use crate::trace::SpanLog;
use rhodos_agent::ServerHandle;
use rhodos_file_service::{FileId, FileService, LeaseParams};

/// `(name, one-line reason)` of every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "txn-mix",
        "one client, 70/20/10 transaction mix on a set larger than the pool: commit path (locks, log, stable store) does the work; agent, net and wire do none",
    ),
    (
        "txn-contend",
        "the same mix from two client threads: lock shards, the service mutex, group commit and retry backoff only matter with a rival",
    ),
    (
        "agent-lease",
        "four leased agents, 90% private / 10% shared files that fit the client cache: zero-RPC hits and recall traffic in one stream",
    ),
    (
        "agent-stream",
        "64 KiB sequential writes and cold reads over 4 striped disks, set far larger than every cache: extent allocation, elevator, memcpy and CRC",
    ),
    (
        "cluster-rpc",
        "master plus 4 data servers over the wire channel, set fits the pools: codec, net, replay cache and cross-shard 2PC",
    ),
];

/// How much work a run does: `smoke` shrinks epochs and files so that
/// every path executes in well under a second.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    /// Requests per epoch: `full` normally, a sliver of it in smoke runs.
    pub fn epoch(self, full: usize) -> usize {
        if self.smoke {
            (full / 25).max(8)
        } else {
            full
        }
    }
}

/// Lease terms that outlive any run — the one server knob the agent
/// workloads take off its default, because the default cannot complete
/// them. Under the default 2 s (virtual) term an agent that buffers a
/// write and leaves the file alone for a term finds the lease lapsed on
/// its next access and *drops* the write (`acquire_lease`: "dropped,
/// not pushed"), and a `flush` of a full client cache outlasts the term
/// on its own and is fenced half-way (`flush` does not renew): at
/// ~10 ms of simulated disk time per server visit, two virtual seconds
/// pass every thousand-odd requests. A workload on which no request
/// fails cannot combine delayed writes with that term; like E22, these
/// grant leases for thirty virtual years.
pub fn run_long_leases() -> LeaseParams {
    LeaseParams {
        term_us: 1_000_000_000_000_000,
        ..LeaseParams::default()
    }
}

/// The rung a workload really uses, built by its set-up.
pub trait Top: Rung {
    /// End-of-run output check (crash-recover or fingerprint); returns
    /// the number of checks that failed.
    fn verify(&mut self) -> u64;
    /// Switches the span-traced request path on.
    fn trace_spans(&mut self);
    /// Takes the spans recorded so far.
    fn take_spans(&mut self) -> Option<SpanLog>;
    /// Time every `k`-th request only (1 = all).
    fn sample_every(&self) -> u64 {
        1
    }
}

/// A lower rung of a workload's ladder, built on demand.
pub struct LowerRung {
    /// Crate the rung belongs to (`simdisk`, `disk-service`, …).
    pub layer: &'static str,
    pub build: Box<dyn FnOnce() -> Box<dyn Rung>>,
}

/// The three rungs every ladder starts with: a bare `SimDisk`, a
/// default disk server, and the workload's file service called
/// directly (`durable` names the request kinds that add a
/// `flush_file` there).
fn device_rungs(
    mk: impl Fn() -> Box<dyn Stream> + Copy + 'static,
    fs: fn() -> FileService,
    durable: fn(Kind) -> bool,
) -> Vec<LowerRung> {
    vec![
        LowerRung {
            layer: "simdisk",
            build: Box::new(move || ladder::simdisk_rung(mk())),
        },
        LowerRung {
            layer: "disk-service",
            build: Box::new(move || ladder::disk_service_rung(mk())),
        },
        LowerRung {
            layer: "file-service",
            build: Box::new(move || Box::new(FileServiceRung::new(fs(), mk(), durable))),
        },
    ]
}

/// An agent `flush` pushes to the server's delayed-write pool; nothing
/// in the agent workloads is forced to the platter.
fn flush_is_not_durable(_: Kind) -> bool {
    false
}

/// Span name of the one agent call a request makes.
fn agent_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Read => "agent.pread",
        Kind::Write => "agent.pwrite",
        _ => "agent.flush",
    }
}

/// Checks that failed when comparing an FNV-1a fingerprint of what
/// `server` holds in `fids` with the model's: unreadable files, plus
/// one if the fingerprints differ.
fn server_mismatches(server: &ServerHandle, fids: &[FileId], model: &Model) -> u64 {
    let mut srv = server.lock();
    let fs = srv.file_service_mut();
    let mut unreadable = 0;
    let mut h = FNV_OFFSET;
    for &fid in fids {
        let size = fs.get_attribute(fid).map_or(0, |a| a.size as usize);
        match fs.read(fid, 0, size) {
            Ok(bytes) => h = fnv1a(h, &bytes),
            Err(_) => unreadable += 1,
        }
    }
    unreadable + u64::from(h != model.fingerprint())
}

/// Set-up of `workload`: build, seed the files, one warm pass.
pub fn build(workload: &str, seed: u64, scale: Scale) -> Box<dyn Top> {
    match workload {
        "txn-mix" => Box::new(txn::TxnTop::build(seed, scale, 1)),
        "txn-contend" => Box::new(txn::TxnTop::build(seed, scale, 2)),
        "agent-lease" => Box::new(lease::LeaseTop::build(seed, scale)),
        "agent-stream" => Box::new(stream::StreamTop::build(seed, scale)),
        "cluster-rpc" => Box::new(cluster::ClusterTop::build(seed, scale)),
        other => panic!("unknown workload {other}"),
    }
}

/// The rungs below the top, bottom-up, and the layer the top belongs to.
pub fn ladder(workload: &str, seed: u64, scale: Scale) -> (Vec<LowerRung>, &'static str) {
    match workload {
        "txn-mix" | "txn-contend" => (txn::lower_rungs(seed, scale), "txn"),
        "agent-lease" => (lease::lower_rungs(seed, scale), "agent"),
        "agent-stream" => (stream::lower_rungs(seed, scale), "agent"),
        "cluster-rpc" => (cluster::lower_rungs(seed, scale), "cluster"),
        other => panic!("unknown workload {other}"),
    }
}
