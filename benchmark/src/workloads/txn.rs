//! `txn-mix` and `txn-contend`: client threads calling
//! `SharedTransactionService::run_txn` on a default single-disk server.
//!
//! One client is checked byte-exactly against its model. Two clients
//! race on the same files, so a read can only be required to be a
//! *uniform* kilobyte (a torn or half-applied write would not be), and
//! exactness moves to the end: after the crash-recover, every 1 KiB
//! region must hold what one of the clients wrote there last, and every
//! counter the sum of both clients' increments (no lost update).

use super::{LowerRung, Scale, Top};
use crate::counts;
use crate::driver::{replay, Counts, Recorder, Rung, Tally};
use crate::gen::{
    Kind, Layout, Req, SplitMix64, Stream, TxnMix, BS, COMMIT, COUNTER_AT, READ, SEED_BYTE, WRITE,
};
use crate::ladder;
use crate::model::Model;
use crate::trace::SpanLog;
use rhodos_file_service::{FileId, LockLevel};
use rhodos_txn::{
    Prepared, SharedTransactionService, TransactionService, TxnConfig, TxnError, TxnId,
};
use std::cell::Cell;
use std::time::Instant;

/// Requests per epoch, all clients together (≈ 270 ms with one client
/// here, ≈ 370 ms with two): 30 % of them are writes, and a thousand
/// writes is what it takes to leave ten samples beyond an epoch's p99.
const EPOCH: usize = 3400;

fn stream(seed: u64, epoch_len: usize) -> TxnMix {
    TxnMix::new(seed, epoch_len)
}

/// Per-client stream seeds: client 0 of a one-client run draws the
/// run's own seed, so `txn-mix` and the ladder replay the same stream.
fn client_seed(seed: u64, client: usize) -> u64 {
    if client == 0 {
        seed
    } else {
        SplitMix64::new(seed ^ client as u64).next_u64()
    }
}

struct Client {
    gen: TxnMix,
    reqs: Vec<Req>,
    model: Model,
    rec: Recorder,
}

pub struct TxnTop {
    s: SharedTransactionService,
    fids: Vec<FileId>,
    layout: Layout,
    clients: Vec<Client>,
    spans: Option<SpanLog>,
}

impl TxnTop {
    pub fn build(seed: u64, scale: Scale, nclients: usize) -> Self {
        let ts = TransactionService::new(ladder::single_disk_fs(), TxnConfig::default())
            .expect("transaction service");
        let s = SharedTransactionService::new(ts);
        let per_client = scale.epoch(EPOCH) / nclients;
        let clients: Vec<Client> = (0..nclients)
            .map(|c| {
                let gen = stream(client_seed(seed, c), per_client);
                Client {
                    model: Model::new(gen.layout()),
                    gen,
                    reqs: Vec::with_capacity(per_client),
                    rec: Recorder::with_capacity(if nclients == 1 { 0 } else { 1 << 20 }),
                }
            })
            .collect();
        let layout = clients[0].gen.layout();
        let image = vec![SEED_BYTE; layout.file_bytes as usize];
        let fids: Vec<FileId> = (0..layout.files)
            .map(|_| {
                let fid = s.lock().tcreate(LockLevel::Page).expect("tcreate");
                s.run_txn(|s, t| {
                    s.lock().topen(t, fid)?;
                    s.lock().twrite(t, fid, 0, &image)
                })
                .expect("seed file");
                fid
            })
            .collect();
        // Warm pass: one sweep through the classic read path.
        for &fid in &fids {
            s.run_txn(|s, t| {
                s.lock().topen(t, fid)?;
                s.lock().tread(t, fid, 0, image.len())
            })
            .expect("warm pool");
        }
        Self {
            s,
            fids,
            layout,
            clients,
            spans: None,
        }
    }
}

fn uniform(bytes: &[u8]) -> bool {
    bytes.windows(2).all(|w| w[0] == w[1])
}

/// One request through `run_txn`. `exact` compares with the model;
/// otherwise (a rival is writing too) reads must merely be whole.
fn exec(
    s: &SharedTransactionService,
    fid: FileId,
    r: &Req,
    model: &mut Model,
    exact: bool,
    rec: &mut Recorder,
) -> bool {
    match r.kind {
        Kind::Read => {
            let t0 = Instant::now();
            let res = s.run_txn(|s, t| {
                s.lock().topen(t, fid)?;
                s.tread_shared(t, fid, r.offset, r.len as usize)
            });
            rec.push(READ, t0.elapsed().as_nanos() as u64);
            res.is_ok_and(|got| {
                if exact {
                    model.matches(r, &got)
                } else {
                    got.len() == r.len as usize && uniform(&got)
                }
            })
        }
        Kind::Write => {
            let payload = [r.byte; 1024];
            let body_ns = Cell::new(0u64);
            let t0 = Instant::now();
            let res = s.run_txn(|s, t| {
                let b0 = Instant::now();
                // Two statements: each guard must drop before the next lock.
                let opened = s.lock().topen(t, fid);
                let out = opened.and_then(|()| s.lock().twrite(t, fid, r.offset, &payload));
                body_ns.set(b0.elapsed().as_nanos() as u64);
                out
            });
            let total = t0.elapsed().as_nanos() as u64;
            rec.push(WRITE, total);
            rec.push(COMMIT, total - body_ns.get());
            model.write(r);
            res.is_ok()
        }
        Kind::Update => {
            let body_ns = Cell::new(0u64);
            let t0 = Instant::now();
            let res = s.run_txn(|s, t| {
                let b0 = Instant::now();
                let out = (|| {
                    s.lock().topen(t, fid)?;
                    let raw = s.lock().tread_for_update(t, fid, r.offset, 8)?;
                    let v = u64::from_le_bytes(raw.try_into().unwrap_or([0; 8]));
                    s.lock()
                        .twrite(t, fid, r.offset, &v.wrapping_add(1).to_le_bytes())?;
                    Ok(v)
                })();
                body_ns.set(b0.elapsed().as_nanos() as u64);
                out
            });
            let total = t0.elapsed().as_nanos() as u64;
            rec.push(WRITE, total);
            rec.push(COMMIT, total - body_ns.get());
            let (before, _) = model.update(r);
            res.is_ok_and(|seen| !exact || seen == before)
        }
        Kind::Flush | Kind::Cross => unreachable!("not in the transaction mix"),
    }
}

/// The same request split into the public calls `run_txn` and the
/// commit pipeline make, each one a span. Single-threaded, so no call
/// can conflict and no retry loop is needed.
fn exec_spans(
    s: &SharedTransactionService,
    fid: FileId,
    r: &Req,
    model: &mut Model,
    exact: bool,
    log: &mut SpanLog,
    rec: &mut Recorder,
) -> bool {
    let (id, started) = log.begin_request();
    let t = log.call("txn.begin", id, || s.lock().tbegin());
    let body = (|| -> Result<bool, TxnError> {
        log.call("txn.open", id, || s.lock().topen(t, fid))?;
        Ok(match r.kind {
            Kind::Read => {
                let got = log.call("txn.read", id, || {
                    s.tread_shared(t, fid, r.offset, r.len as usize)
                })?;
                if exact {
                    model.matches(r, &got)
                } else {
                    got.len() == r.len as usize && uniform(&got)
                }
            }
            Kind::Write => {
                let payload = [r.byte; 1024];
                log.call("txn.write", id, || {
                    s.lock().twrite(t, fid, r.offset, &payload)
                })?;
                model.write(r);
                true
            }
            Kind::Update => {
                let raw = log.call("txn.read", id, || {
                    s.lock().tread_for_update(t, fid, r.offset, 8)
                })?;
                let v = u64::from_le_bytes(raw.try_into().unwrap_or([0; 8]));
                log.call("txn.write", id, || {
                    s.lock()
                        .twrite(t, fid, r.offset, &v.wrapping_add(1).to_le_bytes())
                })?;
                model.update(r).0 == v || !exact
            }
            Kind::Flush | Kind::Cross => unreachable!("not in the transaction mix"),
        })
    })();
    let commit = (|| -> Result<(), TxnError> {
        let mut svc = s.lock();
        let prepared = log.call("txn.prepare_commit", id, || svc.prepare_commit(t))?;
        log.call("txn.flush_log", id, || svc.flush_log())?;
        if let Prepared::Pending(p) = prepared {
            log.call("txn.complete_commit", id, || svc.complete_commit(p))?;
        }
        log.call("txn.maybe_compact_log", id, || svc.maybe_compact_log())?;
        Ok(())
    })();
    rec.push(r.kind.class(), log.end_request(id, started));
    matches!((body, commit), (Ok(true), Ok(())))
}

impl Client {
    fn run(&mut self, s: &SharedTransactionService, fids: &[FileId], exact: bool) -> Tally {
        let mut tally = Tally::default();
        for r in &self.reqs {
            let ok = exec(
                s,
                fids[r.file as usize],
                r,
                &mut self.model,
                exact,
                &mut self.rec,
            );
            tally.count(r, ok);
        }
        tally
    }
}

impl Rung for TxnTop {
    fn prepare(&mut self) {
        for c in &mut self.clients {
            c.reqs.clear();
            c.gen.fill(&mut c.reqs);
        }
    }

    fn run(&mut self, rec: &mut Recorder) -> Tally {
        let mut tally = Tally::default();
        if let Some(log) = &mut self.spans {
            // Traced: every client's requests, replayed by one thread
            // (each against its own model, as in the threaded run).
            let exact = self.clients.len() == 1;
            for c in &mut self.clients {
                for r in &c.reqs {
                    let fid = self.fids[r.file as usize];
                    let ok = exec_spans(&self.s, fid, r, &mut c.model, exact, log, rec);
                    tally.count(r, ok);
                }
            }
        } else if let [only] = &mut self.clients[..] {
            std::mem::swap(&mut only.rec, rec);
            tally = only.run(&self.s, &self.fids, true);
            std::mem::swap(&mut only.rec, rec);
        } else {
            let (s, fids) = (&self.s, &self.fids[..]);
            let tallies: Vec<Tally> = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .clients
                    .iter_mut()
                    .map(|c| scope.spawn(move || c.run(s, fids, false)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            });
            for (c, t) in self.clients.iter_mut().zip(tallies) {
                rec.append(&mut c.rec);
                tally.add(t);
            }
        }
        tally
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        counts::fold_txn(&mut c, &self.s.lock());
        counts::fold_fast_path(&mut c, &self.s.fast_stats());
        c
    }
}

impl Top for TxnTop {
    /// Crashes the server (volatile state and unflushed log tail gone),
    /// recovers, and checks every acknowledged write.
    fn verify(&mut self) -> u64 {
        {
            let mut ts = self.s.lock();
            ts.file_service_mut().simulate_crash();
            if ts.recover().is_err() {
                return 1;
            }
        }
        let mut bad = 0;
        let size = self.layout.file_bytes as usize;
        for (f, &fid) in self.fids.iter().enumerate() {
            let got = self.s.run_txn(|s, t| {
                s.lock().topen(t, fid)?;
                s.lock().tread(t, fid, 0, size)
            });
            let Ok(got) = got else {
                bad += 1;
                continue;
            };
            bad += u64::from(!self.file_is_acknowledged_state(f, &got));
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

impl TxnTop {
    /// Whether `got` is a state the acknowledged requests allow for
    /// file `f`: byte-exact for one client; for two, per 1 KiB region
    /// one of the clients' last writes, per counter the sum of both.
    fn file_is_acknowledged_state(&self, f: usize, got: &[u8]) -> bool {
        if let [only] = &self.clients[..] {
            return got == only.model.file(f);
        }
        if got.len() != self.layout.file_bytes as usize {
            return false;
        }
        let seed_counter = u64::from_le_bytes([SEED_BYTE; 8]);
        let counter = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        (0..self.layout.file_bytes / BS).all(|b| {
            let at = (b * BS) as usize;
            let ctr = at + COUNTER_AT as usize;
            let region_ok = self
                .clients
                .iter()
                .any(|c| c.model.file(f)[at..ctr] == got[at..ctr]);
            let increments = self.clients.iter().fold(0u64, |sum, c| {
                sum.wrapping_add(counter(&c.model.file(f)[ctr..ctr + 8]).wrapping_sub(seed_counter))
            });
            let counter_ok = counter(&got[ctr..ctr + 8]) == seed_counter.wrapping_add(increments);
            let rest_ok = got[ctr + 8..at + BS as usize]
                .iter()
                .all(|&x| x == SEED_BYTE);
            region_ok && counter_ok && rest_ok
        })
    }
}

/// `TransactionService` called directly — no shared wrapper, no retry
/// loop, the classic service-locked read path.
struct DirectRung {
    ts: TransactionService,
    fids: Vec<FileId>,
    gen: TxnMix,
    model: Model,
    reqs: Vec<Req>,
}

impl DirectRung {
    fn new(seed: u64, scale: Scale) -> Self {
        let gen = stream(seed, scale.epoch(EPOCH));
        let layout = gen.layout();
        let mut ts = TransactionService::new(ladder::single_disk_fs(), TxnConfig::default())
            .expect("transaction service");
        let image = vec![SEED_BYTE; layout.file_bytes as usize];
        let fids: Vec<FileId> = (0..layout.files)
            .map(|_| {
                let fid = ts.tcreate(LockLevel::Page).expect("tcreate");
                let t = ts.tbegin();
                ts.topen(t, fid).expect("topen");
                ts.twrite(t, fid, 0, &image).expect("seed");
                ts.tend(t).expect("tend");
                fid
            })
            .collect();
        Self {
            ts,
            fids,
            model: Model::new(layout),
            gen,
            reqs: Vec::new(),
        }
    }

    fn exec(&mut self, r: &Req) -> Result<bool, TxnError> {
        let fid = self.fids[r.file as usize];
        let ts = &mut self.ts;
        let t: TxnId = ts.tbegin();
        ts.topen(t, fid)?;
        let ok = match r.kind {
            Kind::Read => self
                .model
                .matches(r, &ts.tread(t, fid, r.offset, r.len as usize)?),
            Kind::Write => {
                ts.twrite(t, fid, r.offset, &[r.byte; 1024])?;
                self.model.write(r);
                true
            }
            Kind::Update => {
                let raw = ts.tread_for_update(t, fid, r.offset, 8)?;
                let v = u64::from_le_bytes(raw.try_into().unwrap_or([0; 8]));
                ts.twrite(t, fid, r.offset, &v.wrapping_add(1).to_le_bytes())?;
                self.model.update(r).0 == v
            }
            Kind::Flush | Kind::Cross => unreachable!("not in the transaction mix"),
        };
        ts.tend(t)?;
        Ok(ok)
    }
}

impl Rung for DirectRung {
    fn prepare(&mut self) {
        self.reqs.clear();
        self.gen.fill(&mut self.reqs);
    }

    fn run(&mut self, rec: &mut Recorder) -> Tally {
        let reqs = std::mem::take(&mut self.reqs);
        let tally = replay(&reqs, rec, |r| self.exec(r).unwrap_or(false));
        self.reqs = reqs;
        tally
    }
}

/// Committed writes and updates are on the platter when acknowledged.
fn durable(kind: Kind) -> bool {
    matches!(kind, Kind::Write | Kind::Update)
}

/// Both transaction workloads climb the same ladder; `txn-contend`'s
/// lower rungs replay its first client's stream from one thread.
pub fn lower_rungs(seed: u64, scale: Scale) -> Vec<LowerRung> {
    let mk = move || Box::new(stream(seed, scale.epoch(EPOCH))) as Box<dyn Stream>;
    let mut rungs = super::device_rungs(mk, ladder::single_disk_fs, durable);
    rungs.push(LowerRung {
        layer: "txn.direct",
        build: Box::new(move || Box::new(DirectRung::new(seed, scale))),
    });
    rungs
}
