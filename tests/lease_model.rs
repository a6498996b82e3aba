//! A bounded exhaustive check of the lease protocol where its rules live:
//! one real [`LeaseManager`] (the server side, recall round included) and
//! real [`Station`]s (every client lease decision), driven through a model
//! network and the shared model clock. The drivers below make the same
//! server calls `FileService` and `FileAgent` make under the default
//! [`rhodos_agent::LeaseConfig::Auto`], and nothing else: what they decide
//! is decided by the two types under test.
//!
//! The search is breadth-first over deduplicated states, in the style of
//! TLC (Lamport, *Specifying Systems*, 2002) and Stateright: every action
//! enabled in a state is applied to a fresh replay of the state's trace,
//! each resulting state is checked against every invariant and kept if it
//! was not seen before, up to each configuration's depth. A violation
//! prints the shortest trace that reaches it, since breadth-first search
//! meets short traces first. A state is fingerprinted up to renaming: write
//! values and grant sequence numbers by rank, times relative to
//! the clock (every past instant alike), epochs relative to the server's.
//!
//! Actions: read, write (a whole block), flush and close (then reopen) at
//! a client; recall delivery — each recall a step makes is delivered,
//! duplicated, or has its request or its reply lost on every retry of
//! `StationEndpoint`'s exchange; advancing the clock past half a term (the
//! renewal point), a term (a lease's expiry, and the reattach window) or
//! the recall timeout; a server crash, after which the manager is the
//! one `LeaseManager::from_record` rebuilds from its `record()` alone,
//! the recall lanes attached again; a client's reattach; a server
//! crash every client answers at once with its reattach, as
//! `Facility::recover_server_at` has them do. The server's
//! bytes are a durable store: the lease protocol, not the file service's
//! block pool, is under test.
//!
//! Invariants, in every state:
//!
//! 1. at most one unexpired write grant per file at the server;
//! 2. no client serves a cached byte under a lease whose term has passed;
//! 3. every acknowledged write is on the server, still buffered at its
//!    client, or counted in that client's `fenced_drops`;
//! 4. reads are linearizable against the server's write order: a read
//!    returns the server's bytes or its client's own newer buffered write,
//!    misses no write another client still holds under a live lease, and
//!    no write a read missed, or older than the server's, lands later;
//! 5. no grant — a reattached one included — coexists with a live write
//!    grant of another client on the same file;
//! 6. with one client, and no crash it does not answer at once with its
//!    reattach, no write is lost at all: nobody recalls a lone client's
//!    lease, so neither a lapse nor a recovered crash may end it.

use parking_lot::Mutex;
use rhodos_agent::{Station, StationEndpoint};
use rhodos_disk_service::BLOCK_SIZE;
use rhodos_file_service::{
    FileId, FileServiceError, LeaseManager, LeaseMode, LeaseParams, RecallAck, RecallTarget,
};
use rhodos_net::{NetConfig, SimNetwork};
use rhodos_simdisk::{BlockBuf, SimClock};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// The default lease term.
const TERM_US: u64 = 2_000_000;
/// `lease.rs`'s recall timeout.
const RECALL_TIMEOUT_US: u64 = 300_000;

/// What the model network does to one recall exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Deliver,
    /// The request arrives twice.
    Duplicate,
    /// Every request is lost: the holder never hears of the recall.
    LoseRequest,
    /// Every reply is lost: the holder surrenders, the server never hears.
    LoseReply,
}

const FATES: [Fate; 4] = [
    Fate::Deliver,
    Fate::Duplicate,
    Fate::LoseRequest,
    Fate::LoseReply,
];

impl Fate {
    /// The recall lane that does this to every exchange.
    fn lane(self) -> NetConfig {
        let lane = NetConfig::in_process();
        match self {
            Fate::Deliver => lane,
            Fate::Duplicate => NetConfig {
                duplicate_prob: 1.0,
                ..lane
            },
            Fate::LoseRequest => NetConfig {
                drop_prob: 1.0,
                ..lane
            },
            Fate::LoseReply => NetConfig {
                reply_drop_prob: Some(1.0),
                ..lane
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Read { c: usize, f: usize, b: u64 },
    Write { c: usize, f: usize, b: u64 },
    Flush { c: usize, f: usize },
    Close { c: usize, f: usize },
    Advance(u64),
    Crash,
    Reattach { c: usize },
    Recover,
}

/// One step of a trace: an operation, and the fates of the recalls it
/// makes, in order (recalls past the list are delivered).
#[derive(Debug, Clone)]
struct Action {
    op: Op,
    fates: Vec<Fate>,
}

impl std::fmt::Display for Action {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.op {
            Op::Read { c, f, b } => write!(out, "client {c} reads file {f} block {b}"),
            Op::Write { c, f, b } => write!(out, "client {c} writes file {f} block {b}"),
            Op::Flush { c, f } => write!(out, "client {c} flushes file {f}"),
            Op::Close { c, f } => write!(out, "client {c} closes and reopens file {f}"),
            Op::Advance(us) => write!(out, "the clock advances {us} us"),
            Op::Crash => write!(out, "the server crashes"),
            Op::Reattach { c } => write!(out, "client {c} reattaches its leases"),
            Op::Recover => write!(out, "the server crashes and every client reattaches"),
        }?;
        if !self.fates.is_empty() {
            write!(out, "; recalls: {:?}", self.fates)?;
        }
        Ok(())
    }
}

/// How the server crashes in a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Crash {
    Never,
    /// At any step; each client reattaches at any later step, or never.
    Any,
    /// At any step, every client reattaching in the same step; a client
    /// may also reattach at any step.
    Recovered,
}

/// One bounded configuration.
#[derive(Debug, Clone, Copy)]
struct Config {
    clients: usize,
    files: usize,
    blocks: u64,
    term_us: u64,
    crash: Crash,
    depth: usize,
}

impl Config {
    fn ops(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for c in 0..self.clients {
            for f in 0..self.files {
                for b in 0..self.blocks {
                    ops.push(Op::Read { c, f, b });
                    ops.push(Op::Write { c, f, b });
                }
                ops.push(Op::Flush { c, f });
                ops.push(Op::Close { c, f });
            }
        }
        for us in [self.term_us / 2, self.term_us, RECALL_TIMEOUT_US] {
            ops.push(Op::Advance(us + 1));
        }
        match self.crash {
            Crash::Never => return ops,
            Crash::Any => ops.push(Op::Crash),
            Crash::Recovered => ops.push(Op::Recover),
        }
        ops.extend((0..self.clients).map(|c| Op::Reattach { c }));
        ops
    }
}

/// The recall lane of one station: each exchange goes through a
/// `StationEndpoint` over a network that gives it the next of the
/// current step's fates.
struct ModelLane {
    station: Arc<Mutex<Station>>,
    clock: SimClock,
    fates: Arc<Mutex<(VecDeque<Fate>, usize)>>,
}

impl RecallTarget for ModelLane {
    fn client_id(&self) -> u64 {
        self.station.lock().client
    }

    fn recall(&mut self, fid: FileId, seq: u64) -> Option<RecallAck> {
        let fate = {
            let mut fates = self.fates.lock();
            fates.1 += 1;
            fates.0.pop_front().unwrap_or(Fate::Deliver)
        };
        let net = SimNetwork::new(self.clock.clone(), fate.lane());
        StationEndpoint::new(self.station.clone(), net).recall(fid, seq)
    }
}

/// An acknowledged write not yet on the server.
#[derive(Debug, Clone, Copy)]
struct Pending {
    c: usize,
    f: usize,
    b: u64,
    value: u8,
    /// A read missed it: it may be lost, never land.
    missed: bool,
}

struct World {
    cfg: Config,
    clock: SimClock,
    mgr: LeaseManager,
    stations: Vec<Arc<Mutex<Station>>>,
    fates: Arc<Mutex<(VecDeque<Fate>, usize)>>,
    /// The server's bytes: one value per block (0 = never written).
    store: Vec<Vec<u8>>,
    /// Acknowledged writes neither on the server nor superseded.
    pending: Vec<Pending>,
    /// Writes each client lost.
    lost: Vec<u64>,
    /// Each client's latest lease expiry per file, as granted, renewed or
    /// reattached.
    expiry: Vec<Vec<u64>>,
    /// Every grant's expiry at the server, by sequence number.
    grant_expiry: HashMap<u64, u64>,
    next_value: u8,
}

type Checked = Result<(), String>;

fn block_of(value: u8) -> BlockBuf {
    let mut block = BlockBuf::zeroed(BLOCK_SIZE);
    block.make_mut()[0] = value;
    block
}

fn fid(f: usize) -> FileId {
    FileId(f as u64 + 1)
}

impl World {
    fn new(cfg: Config) -> Self {
        let clock = SimClock::new();
        let params = LeaseParams {
            term_us: cfg.term_us,
        };
        let mut stations = Vec::new();
        for c in 0..cfg.clients {
            let mut st = Station::new(c as u64, cfg.files * cfg.blocks as usize);
            for f in 0..cfg.files {
                st.grow(fid(f), cfg.blocks * BLOCK_SIZE as u64);
            }
            stations.push(Arc::new(Mutex::new(st)));
        }
        let mut world = Self {
            cfg,
            mgr: LeaseManager::new(clock.clone(), params),
            clock,
            stations,
            fates: Arc::new(Mutex::new((VecDeque::new(), 0))),
            store: vec![vec![0; cfg.blocks as usize]; cfg.files],
            pending: Vec::new(),
            lost: vec![0; cfg.clients],
            expiry: vec![vec![0; cfg.files]; cfg.clients],
            grant_expiry: HashMap::new(),
            next_value: 0,
        };
        world.attach_lanes();
        world
    }

    /// Gives the lease manager every station's recall lane: the wiring a
    /// server keeps across a crash.
    fn attach_lanes(&mut self) {
        for st in &self.stations {
            self.mgr.attach(Box::new(ModelLane {
                station: st.clone(),
                clock: self.clock.clone(),
                fates: self.fates.clone(),
            }));
        }
    }

    /// A server crash and its mount: the lease manager is rebuilt from
    /// the record it kept on the platter alone, and wired up again.
    fn crash(&mut self) {
        let (record, now) = (self.mgr.record(), self.now());
        let params = self.mgr.params();
        self.mgr = LeaseManager::from_record(self.clock.clone(), params, &record, now);
        self.attach_lanes();
    }

    /// Replays `trace` on a fresh world, its prefix already checked, and
    /// checks its last step.
    fn replay(cfg: Config, trace: &[Action]) -> (Self, Checked) {
        let mut world = Self::new(cfg);
        let mut last = Ok(());
        for action in trace {
            last = world.step(action);
        }
        world.settle();
        let checked = last.and_then(|()| world.check());
        (world, checked)
    }

    /// Recalls the last step made.
    fn recalls(&self) -> usize {
        self.fates.lock().1
    }

    fn step(&mut self, action: &Action) -> Checked {
        *self.fates.lock() = (action.fates.iter().copied().collect(), 0);
        match action.op {
            Op::Read { c, f, b } => self.read(c, f, b)?,
            Op::Write { c, f, b } => self.write(c, f, b)?,
            Op::Flush { c, f } => {
                self.flush(c, f)?;
            }
            Op::Close { c, f } => self.close(c, f)?,
            Op::Advance(us) => {
                self.clock.advance(us);
            }
            Op::Crash => self.crash(),
            Op::Reattach { c } => self.reattach(c),
            Op::Recover => {
                self.crash();
                (0..self.cfg.clients).for_each(|c| self.reattach(c));
            }
        }
        Ok(())
    }

    fn now(&self) -> u64 {
        self.clock.now_us()
    }

    // ---- the server, as `FileService` drives the lease manager ---------

    /// Writes `runs` of file `f` to the server store: a delegated push
    /// under `token`, gated on it like `FileService::write_vectored`, or a
    /// recalled holder's surrender (`token: None`).
    fn apply(
        &mut self,
        f: usize,
        token: Option<rhodos_file_service::LeaseToken>,
        runs: &[(u64, BlockBuf)],
    ) -> Result<Checked, FileServiceError> {
        if let Some(token) = token {
            if !self.mgr.validate(&token, true) {
                self.mgr.note_fenced_writeback();
                return Err(FileServiceError::LeaseFenced(fid(f)));
            }
        }
        for (offset, bytes) in runs {
            let b = offset / BLOCK_SIZE as u64;
            let value = bytes[0];
            let server = self.store[f][b as usize];
            let landed = self
                .pending
                .iter()
                .position(|p| p.f == f && p.b == b && p.value == value);
            if let Some(i) = landed {
                if self.pending[i].missed {
                    return Ok(Err(format!(
                        "invariant 4: write {value} to file {f} block {b} landed after a read \
                         missed it"
                    )));
                }
                self.pending.remove(i);
            }
            if value < server {
                return Ok(Err(format!(
                    "invariant 4: write {value} to file {f} block {b} landed over the newer \
                     write {server}"
                )));
            }
            self.store[f][b as usize] = value;
        }
        Ok(Ok(()))
    }

    /// `FileService::lease_acquire` — the manager's recall round, then the
    /// surrendered runs applied — and the agent's hold of the grant.
    fn acquire(&mut self, c: usize, f: usize, want: LeaseMode) -> Checked {
        let (grant, acks) = self.mgr.acquire(c as u64, fid(f), want);
        for ack in acks {
            self.apply(f, None, &ack.runs)
                .expect("a surrender is not gated")?;
        }
        self.grant_expiry.insert(grant.token.seq, grant.expiry_us);
        let now = self.now();
        let mut st = self.stations[c].lock();
        st.hold(&grant, now);
        st.sizes.insert(fid(f), self.cfg.blocks * BLOCK_SIZE as u64);
        self.expiry[c][f] = grant.expiry_us;
        Ok(())
    }

    // ---- a client, as `FileAgent` drives its station --------------------

    /// `FileAgent::ensure_lease`.
    fn ensure(&mut self, c: usize, f: usize, want: LeaseMode) -> Checked {
        let now = self.now();
        let step = self.stations[c].lock().lease_step(fid(f), want, now);
        let Some(renew) = step else {
            return Ok(());
        };
        if let Some(token) = renew {
            let reply = self
                .mgr
                .renew(&token, now)
                .ok_or(FileServiceError::LeaseRejected(fid(f)));
            if let Ok(expiry) = reply {
                self.grant_expiry.insert(token.seq, expiry);
                self.expiry[c][f] = expiry;
            }
            let mut st = self.stations[c].lock();
            let renewed = st.renewed(fid(f), reply);
            if renewed.expect("a renewal fails only as rejected")
                && st.authorized(fid(f), want, now)
            {
                return Ok(());
            }
        }
        self.acquire(c, f, want)
    }

    /// `FileAgent::pread` of one block.
    fn read(&mut self, c: usize, f: usize, b: u64) -> Checked {
        self.ensure(c, f, LeaseMode::Read)?;
        let now = self.now();
        let key = (fid(f), b);
        let cached = {
            let mut st = self.stations[c].lock();
            if st.authorized(fid(f), LeaseMode::Read, now) {
                let expiry = st.leases[&fid(f)].expiry_us;
                st.cache.get(&key).map(|block| (block, expiry))
            } else {
                None
            }
        };
        let value = match cached {
            Some((block, expiry)) => {
                if expiry <= now {
                    return Err(format!(
                        "invariant 2: client {c} served file {f} block {b} from its cache \
                         under a lease that expired at {expiry} (now {now})"
                    ));
                }
                block[0]
            }
            None => {
                let value = self.store[f][b as usize];
                let mut st = self.stations[c].lock();
                if !st.cache.contains(&key) {
                    let evicted = st.cache.insert(key, block_of(value), false);
                    assert!(evicted.is_empty(), "the model cache holds every block");
                }
                value
            }
        };
        self.check_read(c, f, b, value)
    }

    /// Invariant 4 at a read of `value`.
    fn check_read(&mut self, c: usize, f: usize, b: u64, value: u8) -> Checked {
        self.settle();
        let server = self.store[f][b as usize];
        let own = self
            .pending
            .iter()
            .any(|p| p.c == c && p.f == f && p.b == b && p.value == value);
        if value != server && !(own && value > server) {
            return Err(format!(
                "invariant 4: client {c} read {value} from file {f} block {b}, the server \
                 holds {server}"
            ));
        }
        let now = self.now();
        for p in self.pending.iter_mut() {
            if p.f != f || p.b != b || p.value <= value {
                continue;
            }
            if self.expiry[p.c][f] > now {
                return Err(format!(
                    "invariant 4: client {c} read {value} from file {f} block {b}, missing \
                     write {} that client {} holds under a live lease",
                    p.value, p.c
                ));
            }
            p.missed = true;
        }
        Ok(())
    }

    /// `FileAgent::pwrite` of one whole block.
    fn write(&mut self, c: usize, f: usize, b: u64) -> Checked {
        self.ensure(c, f, LeaseMode::Write)?;
        self.next_value += 1;
        let value = self.next_value;
        let key = (fid(f), b);
        let mut st = self.stations[c].lock();
        if let Some(old) = st.cache.peek(&key) {
            // The write replaces its client's own buffered write.
            self.pending
                .retain(|p| !(p.c == c && p.f == f && p.b == b && p.value == old[0]));
        }
        let evicted = st.cache.insert(key, block_of(value), true);
        assert!(evicted.is_empty(), "the model cache holds every block");
        self.pending.push(Pending {
            c,
            f,
            b,
            value,
            missed: false,
        });
        Ok(())
    }

    /// `FileAgent::flush`, through `push_blocks`: whether the push went
    /// through.
    fn flush(&mut self, c: usize, f: usize) -> Result<bool, String> {
        let blocks = self.stations[c].lock().cache.take_dirty_for(fid(f));
        if blocks.is_empty() {
            return Ok(true);
        }
        let push = {
            let st = self.stations[c].lock();
            st.push(fid(f))
                .map(|token| (Some(token), st.trim(fid(f), &blocks)))
        };
        match push.and_then(|(token, runs)| self.apply(f, token, &runs)) {
            Ok(checked) => checked.map(|()| true),
            Err(e) => {
                self.stations[c].lock().unpushed(fid(f), &blocks, &e);
                Ok(false)
            }
        }
    }

    /// `FileAgent::close` of the client's last descriptor, then `open`.
    fn close(&mut self, c: usize, f: usize) -> Checked {
        if !self.flush(c, f)? {
            return Ok(());
        }
        let held = {
            let mut st = self.stations[c].lock();
            st.sizes.remove(&fid(f));
            st.cache.invalidate_file(fid(f));
            st.leases.remove(&fid(f))
        };
        if let Some(lease) = held {
            self.mgr.release(&lease.token);
        }
        let size = self.cfg.blocks * BLOCK_SIZE as u64;
        self.stations[c].lock().grow(fid(f), size);
        Ok(())
    }

    /// `FileAgent::reattach_leases`.
    fn reattach(&mut self, c: usize) {
        let claims = self.stations[c].lock().reattach_claims();
        for lease in claims {
            let now = self.now();
            let f = lease.token.fid.0 as usize - 1;
            let claim = self
                .mgr
                .reattach(now, &lease.token, lease.mode)
                .ok_or(FileServiceError::LeaseRejected(lease.token.fid));
            if let Ok(grant) = &claim {
                self.grant_expiry.insert(grant.token.seq, grant.expiry_us);
                self.expiry[c][f] = grant.expiry_us;
            }
            let mut st = self.stations[c].lock();
            st.reattached(lease.token.fid, claim, now)
                .expect("a claim fails only as rejected");
        }
    }

    // ---- the invariants --------------------------------------------------

    /// Moves every pending write its client no longer buffers to `lost`.
    fn settle(&mut self) {
        let stations = &self.stations;
        let lost = &mut self.lost;
        self.pending.retain(|p| {
            let buffered = stations[p.c]
                .lock()
                .cache
                .peek(&(fid(p.f), p.b))
                .is_some_and(|block| block[0] == p.value);
            lost[p.c] += u64::from(!buffered);
            buffered
        });
    }

    fn check(&self) -> Checked {
        let now = self.now();
        for f in 0..self.cfg.files {
            let live: Vec<_> = self
                .mgr
                .grant_set()
                .into_iter()
                .filter(|g| g.0 == fid(f) && self.grant_expiry[&g.3] > now)
                .collect();
            let writers = live.iter().filter(|g| g.2 == LeaseMode::Write).count();
            if writers > 1 {
                return Err(format!(
                    "invariant 1: {writers} unexpired write grants on file {f}: {live:?}"
                ));
            }
            if writers == 1 && live.len() > 1 {
                return Err(format!(
                    "invariant 5: a live write grant on file {f} shares it: {live:?}"
                ));
            }
        }
        for (c, st) in self.stations.iter().enumerate() {
            let dropped = st.lock().stats.fenced_drops;
            if self.lost[c] > dropped {
                return Err(format!(
                    "invariant 3: client {c} lost {} acknowledged writes, counted {dropped} \
                     fenced drops",
                    self.lost[c]
                ));
            }
            if self.cfg.clients == 1 && self.cfg.crash != Crash::Any && dropped > 0 {
                return Err(format!(
                    "invariant 6: the only client dropped {dropped} writes with no crash it \
                     did not reattach after"
                ));
            }
        }
        Ok(())
    }

    /// The state up to renaming (see the module doc), the least over
    /// every order of the clients.
    fn fingerprint(&self) -> Vec<u64> {
        let now = self.now();
        let rel = |t: u64| t.saturating_sub(now);
        let grants = self.mgr.grant_set();
        let stations: Vec<_> = self.stations.iter().map(|s| s.lock()).collect();
        let keys: Vec<_> = (0..self.cfg.files)
            .flat_map(|f| (0..self.cfg.blocks).map(move |b| (fid(f), b)))
            .collect();
        let cached: Vec<Vec<Option<u8>>> = stations
            .iter()
            .map(|st| {
                keys.iter()
                    .map(|k| st.cache.peek(k).map(|b| b[0]))
                    .collect()
            })
            .collect();
        let mut seqs: Vec<u64> = grants.iter().map(|g| g.3).collect();
        for st in &stations {
            seqs.extend(st.leases.values().map(|l| l.token.seq));
        }
        let mut values: Vec<u8> = cached.iter().flatten().flatten().copied().collect();
        values.extend(self.store.iter().flatten());
        seqs.sort_unstable();
        seqs.dedup();
        values.sort_unstable();
        values.dedup();
        let seq = |x: u64| seqs.partition_point(|&s| s < x) as u64;
        let value = |v: u8| values.partition_point(|&w| w < v) as u64;
        // What a crash keeps: whether the epoch is on the record yet, and
        // the graves the record holds, beside the graves judged now.
        let record = self.mgr.record();
        let grave =
            |dead: Option<u64>| dead.map_or(0, |d| seqs.partition_point(|&s| s <= d) as u64);
        let mut head = vec![
            rel(self.mgr.reattach_until()),
            u64::from(record.epoch == self.mgr.epoch()),
        ];
        head.extend((0..self.cfg.files).map(|f| grave(self.mgr.dead_seq(fid(f)))));
        head.extend((0..self.cfg.files).map(|f| grave(record.dead.get(&fid(f)).copied())));
        head.extend(self.store.iter().flatten().map(|&v| value(v)));
        let records: Vec<Vec<u64>> = stations
            .iter()
            .enumerate()
            .map(|(c, st)| {
                let mut out = Vec::new();
                for f in 0..self.cfg.files {
                    match st.leases.get(&fid(f)) {
                        Some(l) => out.extend([
                            1 + (self.mgr.epoch() - l.token.epoch).min(2),
                            seq(l.token.seq),
                            l.mode as u64,
                            rel(l.expiry_us),
                            l.term_us,
                        ]),
                        None => out.push(0),
                    }
                    out.push(st.size(fid(f)));
                    out.push(rel(self.expiry[c][f]));
                }
                out.extend(cached[c].iter().map(|v| v.map_or(0, |v| 1 + value(v))));
                out.push(st.stats.fenced_drops - self.lost[c]);
                out
            })
            .collect();
        let grants: Vec<[u64; 5]> = grants
            .iter()
            .map(|g| {
                [
                    g.0 .0,
                    g.1,
                    g.2 as u64,
                    seq(g.3),
                    rel(self.grant_expiry[&g.3]),
                ]
            })
            .collect();
        let pending: Vec<[u64; 5]> = self
            .pending
            .iter()
            .map(|p| [p.c as u64, p.f as u64, p.b, value(p.value), p.missed as u64])
            .collect();
        let mut least: Option<Vec<u64>> = None;
        for order in permutations(self.cfg.clients) {
            let mut at = vec![0; order.len()];
            for (i, &c) in order.iter().enumerate() {
                at[c] = i as u64;
            }
            let renamed = |rows: &[[u64; 5]], col: usize| {
                let mut rows = rows.to_vec();
                for row in &mut rows {
                    row[col] = at[row[col] as usize];
                }
                rows.sort_unstable();
                rows
            };
            let mut out = head.clone();
            out.extend(renamed(&grants, 1).into_iter().flatten());
            out.push(u64::MAX);
            for &c in &order {
                out.extend(&records[c]);
            }
            out.extend(renamed(&pending, 0).into_iter().flatten());
            if least.as_ref().is_none_or(|l| out < *l) {
                least = Some(out);
            }
        }
        least.expect("one order at least")
    }
}

/// Every order of `n` clients.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for shorter in permutations(n - 1) {
        for i in 0..n {
            let mut order = shorter.clone();
            order.insert(i, n - 1);
            out.push(order);
        }
    }
    out
}

/// Breadth-first search of `cfg` to its depth: the number of distinct
/// states explored, or the shortest trace to a violation.
fn explore(cfg: Config) -> Result<usize, String> {
    let ops = cfg.ops();
    let mut seen: HashSet<Vec<u64>> = HashSet::new();
    seen.insert(World::new(cfg).fingerprint());
    let mut frontier: Vec<Vec<Action>> = vec![Vec::new()];
    for _ in 0..cfg.depth {
        let mut next = Vec::new();
        for trace in &frontier {
            for &op in &ops {
                let mut variants = vec![Vec::new()];
                let mut i = 0;
                while i < variants.len() {
                    let mut t = trace.clone();
                    t.push(Action {
                        op,
                        fates: variants[i].clone(),
                    });
                    let (world, checked) = World::replay(cfg, &t);
                    if let Err(violation) = checked {
                        return Err(report(&t, &violation));
                    }
                    if i == 0 {
                        // Every other fate of each recall the step made.
                        let k = world.recalls() as u32;
                        variants.extend((1..4usize.pow(k)).map(|n| {
                            (0..k)
                                .map(|j| FATES[n / 4usize.pow(j) % 4])
                                .collect::<Vec<_>>()
                        }));
                    }
                    if seen.insert(world.fingerprint()) {
                        next.push(t);
                    }
                    i += 1;
                }
            }
        }
        frontier = next;
    }
    Ok(seen.len())
}

fn report(trace: &[Action], violation: &str) -> String {
    let mut out = format!("{violation}\nshortest trace ({} steps):\n", trace.len());
    for (i, action) in trace.iter().enumerate() {
        let _ = writeln!(out, "  {}. {action}", i + 1);
    }
    out
}

fn check(name: &str, cfg: Config) {
    let began = Instant::now();
    match explore(cfg) {
        Ok(states) => println!(
            "{name}: {states} distinct states to depth {} in {:.1?} ({cfg:?})",
            cfg.depth,
            began.elapsed()
        ),
        Err(trace) => panic!("{name}: {trace}"),
    }
}

/// Depth of the search: `debug` in a debug build (the tier-1 run, under
/// 10 s on two cores), `release` in a release build (CI).
fn depth(debug: usize, release: usize) -> usize {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

/// One client, one file of two blocks, no crash: nothing can end its
/// lease but its own close, so no write is ever dropped — however long
/// it stays idle.
#[test]
fn a_lone_client_never_drops_a_write() {
    check(
        "one client, one file of two blocks",
        Config {
            clients: 1,
            files: 1,
            blocks: 2,
            term_us: TERM_US,
            crash: Crash::Never,
            depth: depth(7, 10),
        },
    );
}

/// One client, one file of two blocks, and server crashes it reattaches
/// after at once, lapsed leases and all: no write is ever dropped, and a
/// reattach with no crash before it confirms what the server holds.
#[test]
fn a_lone_client_keeps_its_writes_across_a_recovered_crash() {
    check(
        "one client, one file of two blocks, recovered crashes",
        Config {
            clients: 1,
            files: 1,
            blocks: 2,
            term_us: TERM_US,
            crash: Crash::Recovered,
            depth: depth(6, 9),
        },
    );
}

/// Two clients sharing one file of two blocks: recalls under every fate,
/// renewals, fences and expiry.
#[test]
fn two_clients_one_file_hold_every_invariant() {
    check(
        "two clients, one file of two blocks",
        Config {
            clients: 2,
            files: 1,
            blocks: 2,
            term_us: TERM_US,
            crash: Crash::Never,
            depth: depth(5, 9),
        },
    );
}

/// Two clients and two files: a recall of one file amid the other's
/// buffered writes.
#[test]
fn two_clients_two_files_hold_every_invariant() {
    check(
        "two clients, two one-block files",
        Config {
            clients: 2,
            files: 2,
            blocks: 1,
            term_us: TERM_US,
            crash: Crash::Never,
            depth: depth(4, 6),
        },
    );
}

/// Two clients, one file, a server crash and reattach.
#[test]
fn crash_and_reattach_hold_every_invariant() {
    check(
        "two clients, one file, crash and reattach",
        Config {
            clients: 2,
            files: 1,
            blocks: 1,
            term_us: TERM_US,
            crash: Crash::Any,
            depth: depth(6, 9),
        },
    );
}

/// Three clients, one file, a server crash and reattach: a recall round
/// with two holders, and reattach claims with two rivals.
#[test]
fn three_clients_crash_and_reattach_hold_every_invariant() {
    check(
        "three clients, one file, crash and reattach",
        Config {
            clients: 3,
            files: 1,
            blocks: 1,
            term_us: TERM_US,
            crash: Crash::Any,
            depth: depth(5, 7),
        },
    );
}

/// The reattach window follows the term: at a term twice the default,
/// a grant issued when the window closes still cannot coexist with a
/// pre-crash lease its holder serves cached bytes under.
#[test]
fn a_longer_term_opens_a_reattach_window_as_long() {
    check(
        "two clients, one file, crash and reattach, a 4 s term",
        Config {
            clients: 2,
            files: 1,
            blocks: 1,
            term_us: 2 * TERM_US,
            crash: Crash::Any,
            depth: 5,
        },
    );
}
