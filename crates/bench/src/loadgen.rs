//! Deterministic open-loop workload generator (E20).
//!
//! The closed-loop experiments (E10, E18) measure *capacity*: every
//! client waits for its previous operation, so latency hides in the
//! think-time. An open-loop generator instead fires operations at a
//! configured arrival rate regardless of completions — the shape that
//! exposes queueing collapse at a contention wall. This module builds
//! such a workload in two deterministic phases:
//!
//! 1. **Trace**: the operation mix (reads/writes/read-modify-write
//!    transactions over a Zipfian file popularity distribution) executes
//!    serially against a *real* transaction service — reads through the
//!    E20 fast path ([`SharedTransactionService::tread_shared`]) — and
//!    each operation records its virtual-time service cost plus the
//!    *resources* it occupied: a fast-path full hit touches only its
//!    lock-table shard and block-pool shard; every other operation holds
//!    the whole-service lock (the `Global` resource).
//! 2. **Replay**: a pure queueing simulation pushes the trace through
//!    the recorded resources at an offered arrival rate — each
//!    operation starts at `max(arrival, its agent free, its resources
//!    free)` — yielding per-class latency percentiles and, swept over a
//!    doubling rate ladder, the saturation throughput.
//!
//! No wall clock, no floating-point transcendentals on the sampling
//! path (Zipf weights are quantised to integers), and a hand-rolled
//! splitmix64 RNG: the whole pipeline is byte-stable across runs and
//! platforms, so E20's numbers can be committed as a diffable baseline
//! (`BENCH_latency.json`).

use crate::latency::LatencySummary;
use rhodos_cluster::{Cluster, ClusterConfig};
use rhodos_disk_service::BLOCK_SIZE;
use rhodos_file_service::{FileService, FileServiceConfig, LockLevel, ParityStats, Redundancy};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
use rhodos_txn::{
    DataItem, FastPathStats, SharedTransactionService, TransactionService, TxnConfig,
};

const BS: u64 = BLOCK_SIZE as u64;

/// splitmix64 — the standard 64-bit mixing PRNG, hand-rolled so the
/// generator needs no external randomness source.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the stream.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Zipfian popularity over `n` ranks with exponent `skew` (`0.0` =
/// uniform). Weights `1/rank^skew` are quantised to integers (parts per
/// 1e9 of the top rank) so the CDF — and therefore every sample — is
/// identical across platforms despite `powf` on the construction path.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<u64>,
    total: u64,
}

impl Zipf {
    /// Builds the sampler (`n > 0`).
    pub fn new(n: usize, skew: f64) -> Self {
        assert!(n > 0, "zipf over zero ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0u64;
        for rank in 1..=n {
            let w = (1e9 / (rank as f64).powf(skew)).round() as u64;
            total += w.max(1);
            cdf.push(total);
        }
        Self { cdf, total }
    }

    /// Samples a rank in `0..n` (0 = most popular).
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let x = rng.below(self.total) + 1;
        self.cdf.partition_point(|&c| c < x)
    }
}

/// One operation class of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// 1 KiB read of one block (through the fast path when available).
    Read,
    /// 1 KiB committed overwrite within one block.
    Write,
    /// Read-modify-write transaction on an 8-byte counter.
    Update,
}

impl OpClass {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Read => "read",
            OpClass::Write => "write",
            OpClass::Update => "update",
        }
    }

    fn index(self) -> usize {
        match self {
            OpClass::Read => 0,
            OpClass::Write => 1,
            OpClass::Update => 2,
        }
    }

    /// Fixed CPU cost added to the measured virtual-time delta, so a
    /// pool hit (which moves the simulated clock not at all) still
    /// occupies its resources for a realistic request-processing slice.
    fn cpu_us(self) -> u64 {
        match self {
            OpClass::Read => 20,
            OpClass::Write => 40,
            OpClass::Update => 60,
        }
    }
}

/// Write payload sizes, in percent of write operations. The remainder
/// after `small_pct + partial_pct` rewrites the whole file — on a
/// parity-tier server with `file_blocks == k` that is a full stripe
/// row, so the mix controls how often the server sees the full-stripe
/// fast path versus the small-write read-modify-write penalty (E21).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSizeMix {
    /// Percent of writes that are 1 KiB sub-block overwrites.
    pub small_pct: u64,
    /// Percent that overwrite exactly one aligned block.
    pub partial_pct: u64,
}

impl Default for WriteSizeMix {
    /// 100% small writes — the classic E20 cell. The default draws no
    /// extra randomness, keeping the E20 RNG stream byte-identical.
    fn default() -> Self {
        Self {
            small_pct: 100,
            partial_pct: 0,
        }
    }
}

/// Percent of [`LoadgenConfig`] operations that are blind writes.
const WRITE_PCT: u64 = 20;

/// Workload shape. `Default` is the full E20 cell.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Simulated client agents; an agent issues at most one op at a time.
    pub agents: usize,
    /// Distinct files (Zipf ranks).
    pub files: usize,
    /// Blocks per file.
    pub file_blocks: u64,
    /// Server block-pool capacity.
    pub cache_blocks: usize,
    /// Zipf exponent of the file popularity distribution.
    pub skew: f64,
    /// Percent of operations that are reads; `WRITE_PCT` (20) more are
    /// blind writes and the rest are update transactions.
    pub read_pct: u64,
    /// Operations in the trace.
    pub ops: usize,
    /// RNG seed for the whole pipeline.
    pub seed: u64,
    /// The sharding arm: `true` keeps the default `lock_shards` and
    /// `cache_shards`; `false` sets both to 1 — the pre-E20 behaviour.
    pub sharded: bool,
    /// Payload-size mix of the write operations.
    pub write_sizes: WriteSizeMix,
    /// Disks behind the server: 1 is the classic single-disk E20 cell,
    /// more is a striped group (required for a parity tier).
    pub disks: usize,
    /// Redundancy tier of the backing file service.
    pub redundancy: Redundancy,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            agents: 2048,
            files: 48,
            file_blocks: 4,
            cache_blocks: 96,
            skew: 0.9,
            read_pct: 70,
            ops: 4000,
            seed: 42,
            sharded: true,
            write_sizes: WriteSizeMix::default(),
            disks: 1,
            redundancy: Redundancy::None,
        }
    }
}

/// The shared-mutex resource every non-fast-path operation occupies.
const GLOBAL: u32 = 0;

#[derive(Debug, Clone)]
struct TraceOp {
    class: OpClass,
    agent: usize,
    /// Virtual service time, microseconds.
    service_us: u64,
    /// Resource ids this op holds for its whole service time.
    resources: Vec<u32>,
}

/// A measured trace, ready for rate replays.
#[derive(Debug, Clone)]
pub struct Trace {
    ops: Vec<TraceOp>,
    nresources: usize,
    agents: usize,
    /// Fast-path counters accumulated while measuring the trace.
    pub fast: FastPathStats,
    /// Block-pool hit rate (percent) over the measured operations.
    pub pool_hit_rate: f64,
    /// Parity-tier technique counters over the measured operations
    /// (all zero without a parity redundancy tier).
    pub parity: ParityStats,
}

/// Latency percentiles and achieved throughput of one replay. Rates are
/// fixed-point ops per kilosecond (1 op/s = 1000 ops/ks), so the heavy
/// simulated-disk cells still get ~0.1% resolution from integer math.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// Offered open-loop arrival rate, ops/ks.
    pub offered_per_ks: u64,
    /// Completed-work throughput, ops/ks.
    pub achieved_per_ks: u64,
    /// Per-class summaries, one field per [`OpClass`].
    pub read: LatencySummary,
    pub write: LatencySummary,
    pub update: LatencySummary,
}

impl Trace {
    /// Builds a trace directly from measured `(class, agent, service_us,
    /// resources)` tuples — for experiments that drive their own
    /// client/server topology (E22) but want the same open-loop replay
    /// and saturation machinery. Resource ids index `0..nresources`; an
    /// empty resource list means the operation ran entirely client-side
    /// and contends only with its own agent.
    pub fn from_ops(
        ops: Vec<(OpClass, usize, u64, Vec<u32>)>,
        nresources: usize,
        agents: usize,
    ) -> Self {
        Self {
            ops: ops
                .into_iter()
                .map(|(class, agent, service_us, resources)| TraceOp {
                    class,
                    agent,
                    service_us,
                    resources,
                })
                .collect(),
            nresources: nresources.max(1),
            agents: agents.max(1),
            fast: FastPathStats::default(),
            pool_hit_rate: 0.0,
            parity: ParityStats::default(),
        }
    }

    /// Replays the trace at `offered_per_ks` arrivals per kilosecond.
    pub fn replay(&self, offered_per_ks: u64) -> Replay {
        let offered_per_ks = offered_per_ks.max(1);
        let mean_gap = 1_000_000_000 / offered_per_ks;
        let mut rng = SplitMix64::new(0x5EED ^ offered_per_ks);
        let mut free = vec![0u64; self.nresources];
        let mut agent_free = vec![0u64; self.agents];
        let mut samples: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut arrival = 0u64;
        let mut last_done = 0u64;
        for op in &self.ops {
            // Uniform gaps in [mean/2, 3*mean/2]: enough arrival jitter
            // to exercise queueing, integer-only for determinism.
            let gap = if mean_gap == 0 {
                0
            } else {
                mean_gap / 2 + rng.below(mean_gap + 1)
            };
            arrival += gap;
            let mut start = arrival.max(agent_free[op.agent]);
            for &r in &op.resources {
                start = start.max(free[r as usize]);
            }
            let done = start + op.service_us;
            agent_free[op.agent] = done;
            for &r in &op.resources {
                free[r as usize] = done;
            }
            last_done = last_done.max(done);
            samples[op.class.index()].push(done - arrival);
        }
        Replay {
            offered_per_ks,
            achieved_per_ks: (self.ops.len() as u64) * 1_000_000_000 / last_done.max(1),
            read: LatencySummary::from_samples(&samples[0]),
            write: LatencySummary::from_samples(&samples[1]),
            update: LatencySummary::from_samples(&samples[2]),
        }
    }

    /// Saturation throughput: the best achieved rate over a doubling
    /// offered-rate ladder (1 op/s .. ~8M ops/s).
    pub fn saturation_per_ks(&self) -> u64 {
        let mut best = 0u64;
        let mut offered = 1_000u64;
        for _ in 0..24 {
            best = best.max(self.replay(offered).achieved_per_ks);
            offered *= 2;
        }
        best
    }
}

/// Executes the configured mix serially against a real service and
/// measures each operation's service time and resource footprint.
pub fn trace(cfg: &LoadgenConfig) -> Trace {
    let mut fs_cfg = FileServiceConfig {
        cache_blocks: cfg.cache_blocks,
        redundancy: cfg.redundancy,
        ..FileServiceConfig::default()
    };
    let mut txn_cfg = TxnConfig::default();
    if !cfg.sharded {
        fs_cfg.cache_shards = 1;
        txn_cfg.lock_shards = 1;
    }
    let fs = if cfg.disks > 1 {
        FileService::striped(
            cfg.disks,
            DiskGeometry::large(),
            LatencyModel::default(),
            SimClock::new(),
            fs_cfg,
        )
    } else {
        FileService::single_disk(
            DiskGeometry::large(),
            LatencyModel::default(),
            SimClock::new(),
            fs_cfg,
        )
    }
    .expect("format loadgen file service");
    let ts = TransactionService::new(fs, txn_cfg).expect("loadgen transaction service");
    let s = SharedTransactionService::new(ts);
    let clock = s.lock().file_service().clock();
    let tables = s.lock().lock_tables();
    let cache = s.lock().file_service_mut().cache_handle();
    let lock_shards = tables[0].shard_count();
    let cache_shards = cache.as_ref().map_or(1, |c| c.shard_count());
    let nresources = 1 + lock_shards + cache_shards;

    // Working set: `files` files of `file_blocks` blocks, committed, then
    // one classic read sweep to warm the block pool.
    let file_bytes = (cfg.file_blocks * BS) as usize;
    let fids: Vec<_> = (0..cfg.files)
        .map(|_| {
            let fid = s.lock().tcreate(LockLevel::Page).expect("tcreate");
            s.run_txn(|s, t| {
                s.lock().topen(t, fid)?;
                s.lock().twrite(t, fid, 0, &vec![0xA5u8; file_bytes])
            })
            .expect("seed file");
            s.run_txn(|s, t| {
                s.lock().topen(t, fid)?;
                s.lock().tread(t, fid, 0, file_bytes)
            })
            .expect("warm pool");
            fid
        })
        .collect();

    let zipf = Zipf::new(cfg.files, cfg.skew);
    let mut rng = SplitMix64::new(cfg.seed);
    let (pool0, parity0) = {
        let mut guard = s.lock();
        let stats = guard.file_service_mut().stats();
        (stats.cache, stats.parity)
    };
    let mut ops = Vec::with_capacity(cfg.ops);
    for i in 0..cfg.ops {
        let class = match rng.below(100) {
            p if p < cfg.read_pct => OpClass::Read,
            p if p < cfg.read_pct + WRITE_PCT => OpClass::Write,
            _ => OpClass::Update,
        };
        let fid = fids[zipf.sample(&mut rng)];
        let block = rng.below(cfg.file_blocks);
        let offset = block * BS;
        let agent = rng.below(cfg.agents as u64) as usize;
        let hits0 = s.fast_stats().full_hits;
        let t0 = clock.now_us();
        match class {
            OpClass::Read => {
                s.run_txn(|s, t| {
                    s.lock().topen(t, fid)?;
                    s.tread_shared(t, fid, offset, 1024)
                })
                .expect("read op");
            }
            OpClass::Write => {
                // The default mix draws no randomness here, keeping the
                // classic E20 RNG stream byte-identical.
                let (woff, wlen) = if cfg.write_sizes == WriteSizeMix::default() {
                    (offset, 1024)
                } else {
                    match rng.below(100) {
                        p if p < cfg.write_sizes.small_pct => (offset, 1024),
                        p if p < cfg.write_sizes.small_pct + cfg.write_sizes.partial_pct => {
                            (offset, BS as usize)
                        }
                        _ => (0, file_bytes),
                    }
                };
                let payload = vec![i as u8; wlen];
                s.run_txn(|s, t| {
                    s.lock().topen(t, fid)?;
                    s.lock().twrite(t, fid, woff, &payload)
                })
                .expect("write op");
            }
            OpClass::Update => {
                s.run_txn(|s, t| {
                    s.lock().topen(t, fid)?;
                    let raw = s.lock().tread_for_update(t, fid, offset, 8)?;
                    let v = u64::from_le_bytes(raw.try_into().unwrap_or([0u8; 8]));
                    // A prior write op may have seeded 0xFF bytes here, so
                    // the counter must wrap rather than overflow.
                    s.lock()
                        .twrite(t, fid, offset, &v.wrapping_add(1).to_le_bytes())
                })
                .expect("update op");
            }
        }
        let service_us = (clock.now_us() - t0) + class.cpu_us();
        // A fast-path full hit never held the service lock across the
        // data access: it occupied exactly its lock shard and its block
        // shard. Everything else serialised on the Global resource.
        let resources = if s.fast_stats().full_hits > hits0 {
            let lock_shard = tables[0].shard_of(&DataItem::Page(fid, block)) as u32;
            let cache_shard = cache
                .as_ref()
                .map_or(0, |c| c.shard_of(&(fid, block)) as u32);
            vec![1 + lock_shard, 1 + lock_shards as u32 + cache_shard]
        } else {
            vec![GLOBAL]
        };
        ops.push(TraceOp {
            class,
            agent,
            service_us,
            resources,
        });
    }
    let (pool1, parity1) = {
        let mut guard = s.lock();
        let stats = guard.file_service_mut().stats();
        (stats.cache, stats.parity)
    };
    let delta = rhodos_file_service::CacheStats {
        hits: pool1.hits - pool0.hits,
        misses: pool1.misses - pool0.misses,
        ..Default::default()
    };
    Trace {
        ops,
        nresources,
        agents: cfg.agents.max(1),
        fast: s.fast_stats(),
        pool_hit_rate: delta.hit_rate(),
        parity: parity1.delta_since(&parity0),
    }
}

/// Workload shape of the multi-server (E23) mode. `Default` is the full
/// E23 cell at one server — the scale-out sweep varies `servers` only,
/// so every arm executes the byte-identical operation sequence.
#[derive(Debug, Clone)]
pub struct ClusterLoadConfig {
    /// Data servers behind the placement master.
    pub servers: usize,
    /// Simulated client agents.
    pub agents: usize,
    /// Distinct cluster files (Zipf ranks).
    pub files: usize,
    /// Blocks per file.
    pub file_blocks: u64,
    /// Zipf exponent of the file popularity distribution.
    pub skew: f64,
    /// Percent of operations that are reads (the rest are writes).
    pub read_pct: u64,
    /// Operations in the trace.
    pub ops: usize,
    /// RNG seed for the whole pipeline.
    pub seed: u64,
    /// Greedy rebalance rounds run after the measured ops (heat is
    /// accumulated by them), before the content fingerprint is taken —
    /// so the sweep also certifies that migration moves bytes intact.
    pub rebalance_rounds: usize,
}

impl Default for ClusterLoadConfig {
    fn default() -> Self {
        Self {
            servers: 1,
            agents: 2048,
            files: 48,
            file_blocks: 4,
            skew: 0.9,
            read_pct: 90,
            ops: 4000,
            seed: 42,
            rebalance_rounds: 0,
        }
    }
}

/// A measured multi-server trace plus the cluster-wide evidence rows.
#[derive(Debug, Clone)]
pub struct ClusterTrace {
    /// The open-loop trace, ready for [`Trace::replay`] /
    /// [`Trace::saturation_per_ks`]. Resource 0 is the master (never
    /// held: the model charges no master hop);
    /// resource `1 + i` is data server `i`, held for an operation's
    /// whole service time, so replay concurrency scales with servers.
    pub trace: Trace,
    /// FNV-1a over every file's `(gid, size, bytes)` in gid order,
    /// taken *after* any rebalance rounds. Placement-independent: every
    /// server-count arm of the same seed must produce the same value.
    pub fingerprint: u64,
    /// Files moved by the post-trace rebalance rounds.
    pub migrations: u64,
}

/// Executes the configured mix serially against a real sharded cluster
/// (placement master + `servers` data-server stacks over lossy-capable
/// `rhodos-net` channels) and measures each operation's service time and
/// home-server footprint.
pub fn trace_cluster(cfg: &ClusterLoadConfig) -> ClusterTrace {
    let mut c = Cluster::new(cfg.servers, ClusterConfig::default());
    let clock = c.clock();
    let file_bytes = (cfg.file_blocks * BS) as usize;
    // Working set: `files` cluster files, created (least-loaded placement
    // = deterministic round robin over empty servers), opened by the
    // master, and seeded full-size.
    let gids: Vec<u64> = (0..cfg.files)
        .map(|_| {
            let gid = c.create().expect("cluster create");
            c.open(gid).expect("cluster open");
            c.write(gid, 0, &vec![0xA5u8; file_bytes])
                .expect("seed cluster file");
            gid
        })
        .collect();

    let zipf = Zipf::new(cfg.files, cfg.skew);
    let mut rng = SplitMix64::new(cfg.seed);
    let mut ops = Vec::with_capacity(cfg.ops);
    for i in 0..cfg.ops {
        let class = if rng.below(100) < cfg.read_pct {
            OpClass::Read
        } else {
            OpClass::Write
        };
        let gid = gids[zipf.sample(&mut rng)];
        let block = rng.below(cfg.file_blocks);
        let offset = block * BS;
        let agent = rng.below(cfg.agents as u64) as usize;
        let (home, _) = c.placement_of(gid).expect("placed file");
        let t0 = clock.now_us();
        match class {
            OpClass::Read => {
                c.read(gid, offset, 1024).expect("cluster read");
            }
            OpClass::Write => {
                c.write(gid, offset, &vec![i as u8; 1024])
                    .expect("cluster write");
            }
            OpClass::Update => unreachable!("cluster mix is read/write only"),
        }
        let service_us = (clock.now_us() - t0) + class.cpu_us();
        // One hop: the model charges the op to its home data server
        // alone and leaves the master (resource 0) idle, although
        // `Cluster::read`/`write` resolved the placement in the master
        // (ROADMAP item 12 moves that off the data path).
        ops.push(TraceOp {
            class,
            agent,
            service_us,
            resources: vec![1 + home as u32],
        });
    }

    let mut migrations = 0;
    for _ in 0..cfg.rebalance_rounds {
        migrations += c.rebalance().migrated;
    }
    ClusterTrace {
        trace: Trace {
            ops,
            nresources: 1 + cfg.servers,
            agents: cfg.agents.max(1),
            fast: FastPathStats::default(),
            pool_hit_rate: 0.0,
            parity: ParityStats::default(),
        },
        fingerprint: c.content_fingerprint().expect("every home serves"),
        migrations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(sharded: bool) -> LoadgenConfig {
        LoadgenConfig {
            agents: 16,
            files: 6,
            file_blocks: 2,
            cache_blocks: 16,
            ops: 120,
            sharded,
            ..LoadgenConfig::default()
        }
    }

    #[test]
    fn zipf_skew_prefers_low_ranks() {
        let z = Zipf::new(16, 1.2);
        let mut rng = SplitMix64::new(7);
        let mut counts = [0usize; 16];
        for _ in 0..4000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(
            counts[0] > counts[15] * 4,
            "rank 0 must dominate: {counts:?}"
        );
        // Uniform when skew = 0: no rank dominates.
        let z0 = Zipf::new(16, 0.0);
        let mut counts0 = [0usize; 16];
        for _ in 0..4000 {
            counts0[z0.sample(&mut rng)] += 1;
        }
        assert!(
            counts0.iter().all(|&c| c > 100),
            "uniform draw: {counts0:?}"
        );
    }

    #[test]
    fn trace_is_deterministic_and_replay_repeats() {
        let cfg = tiny(true);
        let a = trace(&cfg);
        let b = trace(&cfg);
        assert_eq!(a.fast, b.fast);
        assert_eq!(a.pool_hit_rate, b.pool_hit_rate);
        let ra = a.replay(20_000);
        let rb = b.replay(20_000);
        assert_eq!(ra.read, rb.read);
        assert_eq!(ra.write, rb.write);
        assert_eq!(ra.achieved_per_ks, rb.achieved_per_ks);
        assert_eq!(a.saturation_per_ks(), b.saturation_per_ks());
    }

    #[test]
    fn sharded_arm_bypasses_global_where_ablation_cannot() {
        let sharded = trace(&tiny(true));
        let ablation = trace(&tiny(false));
        assert!(
            sharded.fast.full_hits > 0,
            "sharded arm must serve fast-path hits: {:?}",
            sharded.fast
        );
        assert_eq!(
            ablation.fast,
            FastPathStats::default(),
            "ablation arm must never use the fast path"
        );
        let total: usize = [
            sharded.replay(10_000).read.count,
            sharded.replay(10_000).write.count,
            sharded.replay(10_000).update.count,
        ]
        .iter()
        .sum();
        assert_eq!(total, 120, "every op produces one latency sample");
        assert!(sharded.saturation_per_ks() >= ablation.saturation_per_ks());
    }

    /// Both arms keep the same blocks resident — the pool is one LRU
    /// whatever its shard count — and count each access once: a read the
    /// fast path cannot serve is counted by the classic path it falls
    /// back to, not by both.
    #[test]
    fn both_arms_report_the_same_pool_hit_rate() {
        let small = |sharded| LoadgenConfig {
            cache_blocks: 8,
            ..tiny(sharded)
        };
        let (sharded, ablation) = (trace(&small(true)), trace(&small(false)));
        assert!(sharded.fast.fallbacks > 0, "{:?}", sharded.fast);
        assert!(ablation.pool_hit_rate < 100.0);
        assert_eq!(sharded.pool_hit_rate, ablation.pool_hit_rate);
    }

    fn tiny_cluster(servers: usize) -> ClusterLoadConfig {
        ClusterLoadConfig {
            servers,
            agents: 32,
            files: 8,
            file_blocks: 2,
            ops: 160,
            ..ClusterLoadConfig::default()
        }
    }

    #[test]
    fn cluster_trace_fingerprint_is_placement_independent() {
        let one = trace_cluster(&tiny_cluster(1));
        let two = trace_cluster(&tiny_cluster(2));
        let four = trace_cluster(&tiny_cluster(4));
        assert_eq!(
            one.fingerprint, two.fingerprint,
            "same seed must write the same bytes regardless of sharding"
        );
        assert_eq!(one.fingerprint, four.fingerprint);
        // Re-run is byte-stable.
        assert_eq!(trace_cluster(&tiny_cluster(2)).fingerprint, two.fingerprint);
        // More servers mean more replay concurrency.
        assert!(four.trace.saturation_per_ks() >= one.trace.saturation_per_ks());
    }

    #[test]
    fn cluster_rebalance_rounds_preserve_the_fingerprint() {
        let plain = trace_cluster(&tiny_cluster(4));
        let rebalanced = trace_cluster(&ClusterLoadConfig {
            rebalance_rounds: 3,
            ..tiny_cluster(4)
        });
        assert_eq!(
            plain.fingerprint, rebalanced.fingerprint,
            "migration must move bytes intact"
        );
    }
}
