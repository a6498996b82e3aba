//! Equivalence tests for the per-spindle I/O scheduler and for the
//! vectored exchanges that feed it.
//!
//! The scheduler changes *how* striped windows and coalesced flushes reach
//! the disks — elevator ordering, cross-file merging, per-spindle batches
//! under makespan accounting, the read-ahead a striped window issues on
//! every spindle it touches — but must never change *what* ends up on
//! them or what a read returns. These tests pit the two [`ParallelIo`] modes against each other
//! on identical workloads and require byte-identical disk images,
//! identical read results, and clean fsck walks; every read is also
//! checked against a byte model of the files.
//!
//! The second half does the same one layer up: an agent transfer is one
//! exchange carrying all of its blocks, and what the server's pool evicts
//! while serving it is written back as one batch. Random scripts run
//! against a byte model under every cache-coherence policy, with client
//! caches and a server pool smaller than one request, and the hazards
//! deferring a write-back opens are pinned one by one.

use parking_lot::Mutex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhodos_agent::{FileAgent, LeaseConfig, ServerHandle};
use rhodos_disk_service::{DiskService, DiskServiceConfig, BLOCK_SIZE};
use rhodos_file_service::{
    FileId, FileService, FileServiceConfig, LeaseParams, ParallelIo, Redundancy, ServiceType,
    StripePolicy,
};
use rhodos_naming::{AttributedName, NamingService};
use rhodos_net::{NetConfig, SimNetwork};
use rhodos_simdisk::{DiskGeometry, DiskStats, LatencyModel, SimClock};
use rhodos_txn::{TransactionService, TxnConfig};
use std::sync::Arc;

/// A striped service over small instant-latency disks. The instant model
/// keeps the simulated clock at zero in every mode, so FIT timestamps —
/// which land on disk — cannot differ between serial and batched issue.
fn build(ndisks: usize, chunk_blocks: u64, mode: ParallelIo) -> FileService {
    build_with(ndisks, chunk_blocks, mode, 64, 8)
}

fn build_with(
    ndisks: usize,
    chunk_blocks: u64,
    mode: ParallelIo,
    cache_blocks: usize,
    cache_shards: usize,
) -> FileService {
    let clock = SimClock::new();
    let disks = (0..ndisks)
        .map(|_| {
            DiskService::with_stable(
                DiskGeometry::small(),
                LatencyModel::instant(),
                clock.clone(),
                DiskServiceConfig::default(),
            )
        })
        .collect();
    FileService::format(
        disks,
        FileServiceConfig {
            stripe: StripePolicy::RoundRobin { chunk_blocks },
            cache_blocks,
            cache_shards,
            parallel_io: mode,
            ..Default::default()
        },
    )
    .expect("format")
}

#[derive(Debug, Clone)]
enum Op {
    /// Rewrite one whole block of one file with a fill byte.
    Write { file: usize, block: usize, fill: u8 },
    /// Rewrite a whole file with a fill byte in one request: its blocks
    /// go dirty together, so a later read that evicts one of them writes
    /// the others behind.
    Rewrite { file: usize, fill: u8 },
    /// Read a whole file back (exercises the windowed fetch path).
    Read { file: usize },
    /// Read one to three blocks of a file from `block` (clamped to the
    /// file): a read that evicts only the pool's oldest few blocks, so
    /// what it writes behind depends on the clean and dirty blocks after
    /// them.
    Window {
        file: usize,
        block: usize,
        blocks: usize,
    },
    /// Drop every track cache — and, if `cold`, flush and empty the pool
    /// too — then read a whole file front to back, `step` blocks at a
    /// time: a sequential scan whose windows read ahead on every spindle,
    /// among the pool's dirty blocks unless `cold`.
    Scan {
        file: usize,
        step: usize,
        cold: bool,
    },
    /// Flush all dirty blocks (exercises the coalesced write-back).
    Flush,
}

#[derive(Debug, Clone)]
struct Workload {
    ndisks: usize,
    chunk_blocks: u64,
    /// Size of each file in blocks.
    files: Vec<usize>,
    ops: Vec<Op>,
}

fn workloads() -> impl Strategy<Value = Workload> {
    (
        1usize..=4,
        1u64..=4,
        proptest::collection::vec(1usize..=10, 1..=4),
        proptest::collection::vec(
            prop_oneof![
                4 => (any::<usize>(), any::<usize>(), any::<u8>())
                    .prop_map(|(file, block, fill)| Op::Write { file, block, fill }),
                1 => (any::<usize>(), any::<u8>()).prop_map(|(file, fill)| Op::Rewrite { file, fill }),
                1 => any::<usize>().prop_map(|file| Op::Read { file }),
                4 => (any::<usize>(), any::<usize>(), 1usize..=3)
                    .prop_map(|(file, block, blocks)| Op::Window { file, block, blocks }),
                1 => (any::<usize>(), 2usize..=8, any::<bool>())
                    .prop_map(|(file, step, cold)| Op::Scan { file, step, cold }),
                1 => Just(Op::Flush),
            ],
            0..48,
        ),
    )
        .prop_map(|(ndisks, chunk_blocks, files, ops)| Workload {
            ndisks,
            chunk_blocks,
            files,
            ops,
        })
}

struct Outcome {
    /// Full image of every disk, concatenated sector by sector.
    images: Vec<Vec<u8>>,
    /// Every byte returned by the workload's reads, in order.
    reads: Vec<Vec<u8>>,
    fsck_clean: bool,
    /// Every disk's counters, main storage and stable mirrors, after
    /// each op and at the end.
    stats: Vec<Vec<(DiskStats, DiskStats)>>,
}

fn disk_stats(fs: &FileService) -> Vec<(DiskStats, DiskStats)> {
    (fs.stats().disks.iter())
        .map(|d| (d.disk, d.stable))
        .collect()
}

fn run_workload(w: &Workload, mode: ParallelIo, pool: usize) -> Outcome {
    run_on(build_with(w.ndisks, w.chunk_blocks, mode, pool, 8), w)
}

/// Runs `w` and checks every read against a byte model of the files.
fn run_on(mut fs: FileService, w: &Workload) -> Outcome {
    let mut model: Vec<Vec<u8>> = (w.files.iter().enumerate())
        .map(|(i, &blocks)| vec![(i as u8).wrapping_mul(17); blocks * BLOCK_SIZE])
        .collect();
    let fids: Vec<_> = model
        .iter()
        .map(|bytes| {
            let fid = fs.create(ServiceType::Basic).unwrap();
            fs.open(fid).unwrap();
            fs.write(fid, 0, bytes.clone()).unwrap();
            fid
        })
        .collect();
    fs.flush_all().unwrap();
    let (mut reads, mut stats) = (Vec::new(), Vec::new());
    for op in &w.ops {
        match *op {
            Op::Write { file, block, fill } => {
                let f = file % fids.len();
                let b = block % w.files[f];
                model[f][b * BLOCK_SIZE..][..BLOCK_SIZE].fill(fill);
                fs.write(fids[f], (b * BLOCK_SIZE) as u64, vec![fill; BLOCK_SIZE])
                    .unwrap();
            }
            Op::Rewrite { file, fill } => {
                let f = file % fids.len();
                model[f].fill(fill);
                fs.write(fids[f], 0, model[f].clone()).unwrap();
            }
            Op::Read { file } => {
                let f = file % fids.len();
                reads.push(fs.read(fids[f], 0, w.files[f] * BLOCK_SIZE).unwrap());
                assert!(reads.last() == Some(&model[f]), "{op:?} read stale bytes");
            }
            Op::Window {
                file,
                block,
                blocks,
            } => {
                let f = file % fids.len();
                let first = block % w.files[f];
                let n = blocks.min(w.files[f] - first) * BLOCK_SIZE;
                let at = first * BLOCK_SIZE;
                reads.push(fs.read(fids[f], at as u64, n).unwrap());
                assert!(reads.last().unwrap()[..] == model[f][at..at + n], "{op:?}");
            }
            Op::Scan { file, step, cold } => {
                let f = file % fids.len();
                let len = w.files[f] * BLOCK_SIZE;
                if cold {
                    fs.evict_caches().unwrap();
                }
                for d in 0..w.ndisks {
                    fs.disk_mut(d).drop_caches();
                }
                for at in (0..len).step_by(step * BLOCK_SIZE) {
                    let n = (step * BLOCK_SIZE).min(len - at);
                    reads.push(fs.read(fids[f], at as u64, n).unwrap());
                    assert!(reads.last().unwrap()[..] == model[f][at..at + n], "{op:?}");
                }
            }
            Op::Flush => fs.flush_all().unwrap(),
        }
        stats.push(disk_stats(&fs));
    }
    fs.flush_all().unwrap();
    stats.push(disk_stats(&fs));
    let fsck_clean = fs.fsck().unwrap().is_clean();
    let geometry = fs.disk_mut(0).geometry();
    let images = (0..w.ndisks)
        .map(|d| {
            let disk = fs.disk_mut(d).disk_mut();
            let mut image = Vec::new();
            for s in 0..geometry.total_sectors() {
                image.extend_from_slice(disk.peek_sector(s).unwrap());
            }
            image
        })
        .collect();
    Outcome {
        images,
        reads,
        fsck_clean,
        stats,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The coalesced, elevator-ordered flush and the windowed batch read
    /// leave every disk byte-identical to the pre-scheduler serial paths,
    /// return identical read results, and keep the file system
    /// fsck-clean — on a pool that holds every file, and on one far
    /// smaller, where reads evict dirty blocks and write their files'
    /// dirty tails behind.
    #[test]
    fn scheduler_modes_produce_identical_disks(w in workloads(), small in 1usize..12) {
        for pool in [64, small] {
            let serial = run_workload(&w, ParallelIo::Never, pool);
            let auto = run_workload(&w, ParallelIo::Auto, pool);
            prop_assert!(serial.fsck_clean);
            prop_assert!(auto.fsck_clean);
            prop_assert_eq!(&serial.reads, &auto.reads);
            for d in 0..w.ndisks {
                prop_assert_eq!(
                    &serial.images[d], &auto.images[d],
                    "disk {} differs between serial and auto issue (pool {})", d, pool
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The block pool is one LRU however many shards lock it: on a pool
    /// far smaller than the files, eight shards and one evict the same
    /// blocks in the same order and write the same blocks behind, so
    /// the same requests leave the same disks, count the same disk work
    /// request by request and read the same bytes.
    #[test]
    fn a_sharded_pool_evicts_like_one_lru(w in workloads(), pool in 1usize..12) {
        let build = |shards| build_with(w.ndisks, w.chunk_blocks, ParallelIo::Auto, pool, shards);
        let one = run_on(build(1), &w);
        let eight = run_on(build(8), &w);
        prop_assert!(one.fsck_clean && eight.fsck_clean);
        prop_assert_eq!(&one.reads, &eight.reads);
        prop_assert!(one.stats == eight.stats, "disk counters differ after an op");
        prop_assert!(one.images == eight.images, "disk images differ");
    }
}

/// Stress the batched window read: many random windows read as one
/// batch per spindle — the spindles concurrent in virtual time — must
/// match the serial baseline byte for byte, cold and warm.
#[test]
fn concurrent_striped_reads_match_serial_reads() {
    let mut batched = build(4, 2, ParallelIo::Auto);
    let mut serial = build(4, 2, ParallelIo::Never);
    let len = 256 * BLOCK_SIZE; // 2 MiB over 4 spindles
    let data: Vec<u8> = (0..len).map(|i| (i / 7 % 251) as u8).collect();
    let mut fids = Vec::new();
    for fs in [&mut batched, &mut serial] {
        let fid = fs.create(ServiceType::Basic).unwrap();
        fs.open(fid).unwrap();
        fs.write(fid, 0, data.clone()).unwrap();
        fs.flush_all().unwrap();
        fids.push(fid);
    }
    let mut rng = StdRng::seed_from_u64(0xD15C);
    for round in 0..200 {
        if round % 16 == 0 {
            batched.evict_caches().unwrap();
            serial.evict_caches().unwrap();
        }
        let off = rng.gen_range(0..len as u64 - 1);
        let n = rng.gen_range(1..=(len as u64 - off)) as usize;
        let a = batched.read(fids[0], off, n).unwrap();
        let b = serial.read(fids[1], off, n).unwrap();
        assert_eq!(a, b, "window {off}+{n} diverged on round {round}");
        assert_eq!(&a[..], &data[off as usize..off as usize + n]);
    }
}

// ---- vectored exchanges ------------------------------------------------

/// A server over four instant disks — striped, or one RAID-5 group —
/// whose pool holds `pool_blocks` blocks in one LRU segment, with a
/// lease term no script outlives.
fn small_pool_server(redundancy: Redundancy, pool_blocks: usize) -> FileService {
    FileService::striped(
        4,
        DiskGeometry::medium(),
        LatencyModel::instant(),
        SimClock::new(),
        FileServiceConfig {
            stripe: StripePolicy::RoundRobin { chunk_blocks: 2 },
            cache_blocks: pool_blocks,
            cache_shards: 1,
            redundancy,
            lease: LeaseParams {
                term_us: u64::MAX / 4,
            },
            ..Default::default()
        },
    )
    .expect("format")
}

fn agent_on(fs: FileService, lease: LeaseConfig, cache_blocks: usize) -> (FileAgent, ServerHandle) {
    let clock = fs.clock();
    let server: ServerHandle = Arc::new(Mutex::new(
        TransactionService::new(fs, TxnConfig::default()).expect("transaction service"),
    ));
    let agent = FileAgent::with_lease_config(
        0,
        vec![server.clone()],
        Arc::new(Mutex::new(NamingService::new())),
        SimNetwork::new(clock, NetConfig::in_process()),
        cache_blocks,
        lease,
        NetConfig::in_process(),
    );
    (agent, server)
}

/// What the server holds of `fid`, read at the server.
fn at_server(server: &ServerHandle, fid: FileId) -> Vec<u8> {
    let mut srv = server.lock();
    let fs = srv.file_service_mut();
    fs.open(fid).unwrap();
    let size = fs.get_attribute(fid).unwrap().size;
    let bytes = fs.read(fid, 0, size as usize).unwrap();
    fs.close(fid).unwrap();
    bytes
}

#[derive(Debug, Clone)]
enum AgentOp {
    Write {
        file: usize,
        off: usize,
        len: usize,
        fill: u8,
    },
    Read {
        file: usize,
        off: usize,
        len: usize,
    },
    Flush {
        file: usize,
    },
    /// Close and reopen: drops the file's client-cached blocks.
    Reopen {
        file: usize,
    },
}

/// Unaligned offsets, lengths from one byte to 200 KiB (half of them at
/// most a block and a bit), two files interleaved. A write lands where
/// it was drawn, so files grow with gaps below buffered writes.
fn agent_scripts() -> impl Strategy<Value = Vec<AgentOp>> {
    let span = || {
        (
            0usize..2,
            0usize..256 * 1024,
            prop_oneof![1usize..=9_000, 1usize..=200 * 1024],
        )
    };
    proptest::collection::vec(
        prop_oneof![
            4 => (span(), any::<u8>()).prop_map(|((file, off, len), fill)| AgentOp::Write {
                file,
                off,
                len,
                fill,
            }),
            4 => span().prop_map(|(file, off, len)| AgentOp::Read { file, off, len }),
            1 => (0usize..2).prop_map(|file| AgentOp::Flush { file }),
            1 => (0usize..2).prop_map(|file| AgentOp::Reopen { file }),
        ],
        1..20,
    )
}

/// Runs `script` through one agent, checking every read against the
/// byte model as it goes, and returns what the server ends up holding.
fn run_script(
    script: &[AgentOp],
    redundancy: Redundancy,
    lease: LeaseConfig,
    cache_blocks: usize,
) -> Vec<Vec<u8>> {
    let (mut agent, server) = agent_on(small_pool_server(redundancy, 4), lease, cache_blocks);
    let arm = format!("{redundancy:?} {lease:?} cache {cache_blocks}");
    let names: Vec<AttributedName> = (0..2)
        .map(|f| AttributedName::parse(&format!("name=vec-{f}")).unwrap())
        .collect();
    let fids: Vec<FileId> = names.iter().map(|n| agent.create(n).unwrap()).collect();
    let mut ods: Vec<_> = names.iter().map(|n| agent.open(n).unwrap()).collect();
    let mut model: Vec<Vec<u8>> = vec![Vec::new(); 2];
    for (step, op) in script.iter().enumerate() {
        match *op {
            AgentOp::Write {
                file,
                off,
                len,
                fill,
            } => {
                // Position-dependent bytes: a block that lands at the
                // wrong index, or shifted, cannot pass for the right one.
                let data: Vec<u8> = (off..off + len).map(|i| fill ^ (i / 7) as u8).collect();
                agent.pwrite(ods[file], off as u64, &data).unwrap();
                let m = &mut model[file];
                m.resize(m.len().max(off + len), 0);
                m[off..off + len].copy_from_slice(&data);
            }
            AgentOp::Read { file, off, len } => {
                let got = agent.pread(ods[file], off as u64, len).unwrap();
                let m = &model[file];
                let want = &m[off.min(m.len())..(off + len).min(m.len())];
                assert!(got == want, "{arm}: step {step} {op:?} read wrong bytes");
            }
            AgentOp::Flush { file } => agent.flush(ods[file]).unwrap(),
            AgentOp::Reopen { file } => {
                agent.close(ods[file]).unwrap();
                ods[file] = agent.open(&names[file]).unwrap();
            }
        }
    }
    for od in ods {
        agent.close(od).unwrap();
    }
    let held: Vec<Vec<u8>> = fids.iter().map(|&fid| at_server(&server, fid)).collect();
    for (file, (h, m)) in held.iter().zip(&model).enumerate() {
        assert_eq!(h.len(), m.len(), "{arm}: final size of file {file}");
        assert!(h == m, "{arm}: final contents of file {file}");
    }
    held
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the client cache holds — one block, two, seven, or the
    /// whole working set — every read returns the model's bytes and the
    /// server ends up holding the model: the leased cache agrees with
    /// `Never`, which sends each whole span in one RPC and caches nothing.
    #[test]
    fn vectored_exchanges_match_the_byte_model(script in agent_scripts()) {
        for redundancy in [Redundancy::None, Redundancy::Parity { k: 3, m: 1 }] {
            let reference = run_script(&script, redundancy, LeaseConfig::Never, 1);
            for cache_blocks in [1, 2, 7, 128] {
                let held = run_script(&script, redundancy, LeaseConfig::Auto, cache_blocks);
                prop_assert!(held == reference, "{:?} {}", redundancy, cache_blocks);
            }
        }
    }
}

/// `len` bytes that differ at every offset and per `salt`.
fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| salt ^ (i % 251) as u8).collect()
}

/// Invariant 1, server tier: a dirty tail block evicted by the earlier
/// blocks of the very write that then read-modify-writes it. A deferred
/// write-back that has not reached the platter by then hands the fetch
/// the stale block.
#[test]
fn server_rmw_sees_the_block_its_own_write_just_evicted() {
    for redundancy in [Redundancy::None, Redundancy::Parity { k: 3, m: 1 }] {
        let mut fs = small_pool_server(redundancy, 4);
        let fid = fs.create(ServiceType::Basic).unwrap();
        fs.open(fid).unwrap();
        let mut model = pattern(6 * BLOCK_SIZE, 0x11);
        fs.write(fid, 0, model.clone()).unwrap();
        fs.evict_caches().unwrap();
        // Block 5 becomes resident and dirty, alone in the pool.
        let patch = pattern(1000, 0x22);
        fs.write(fid, 5 * BLOCK_SIZE as u64 + 2000, patch.clone())
            .unwrap();
        model[5 * BLOCK_SIZE + 2000..][..1000].copy_from_slice(&patch);
        // Blocks 1–4 fill the four-block pool and evict it; the 100-byte
        // tail then needs its old contents back.
        let wide = pattern(4 * BLOCK_SIZE + 100, 0x33);
        fs.write(fid, BLOCK_SIZE as u64, wide.clone()).unwrap();
        model[BLOCK_SIZE..][..wide.len()].copy_from_slice(&wide);
        assert!(
            fs.read(fid, 0, model.len()).unwrap() == model,
            "{redundancy:?}: pooled view"
        );
        fs.evict_caches().unwrap();
        assert!(
            fs.read(fid, 0, model.len()).unwrap() == model,
            "{redundancy:?}: platter"
        );
    }
}

/// Invariant 1, agent tier: the same shape against a four-block client
/// cache — the old contents of the tail block must be the buffered
/// ones, not the server's.
#[test]
fn agent_rmw_sees_the_block_its_own_write_just_evicted() {
    let (mut a, server) = agent_on(small_pool_server(Redundancy::None, 4), LeaseConfig::Auto, 4);
    let name = AttributedName::parse("name=tail").unwrap();
    let fid = a.create(&name).unwrap();
    let od = a.open(&name).unwrap();
    let mut model = pattern(6 * BLOCK_SIZE, 0x11);
    a.pwrite(od, 0, &model).unwrap();
    a.close(od).unwrap();
    let od = a.open(&name).unwrap();
    let patch = pattern(1000, 0x22);
    a.pwrite(od, 5 * BLOCK_SIZE as u64 + 2000, &patch).unwrap();
    model[5 * BLOCK_SIZE + 2000..][..1000].copy_from_slice(&patch);
    let wide = pattern(4 * BLOCK_SIZE + 100, 0x33);
    a.pwrite(od, BLOCK_SIZE as u64, &wide).unwrap();
    model[BLOCK_SIZE..][..wide.len()].copy_from_slice(&wide);
    assert!(a.pread(od, 0, model.len()).unwrap() == model);
    a.close(od).unwrap();
    assert!(at_server(&server, fid) == model, "at the server");
}

/// Invariant 2, server tier: one request larger than the pool that
/// carries block 0 twice evicts it twice; only the later version may
/// reach the platter (and a batch must not carry overlapping extents).
#[test]
fn a_key_evicted_twice_in_one_request_keeps_its_last_version() {
    for redundancy in [Redundancy::None, Redundancy::Parity { k: 3, m: 1 }] {
        let mut fs = small_pool_server(redundancy, 4);
        let fid = fs.create(ServiceType::Basic).unwrap();
        fs.open(fid).unwrap();
        let bs = BLOCK_SIZE as u64;
        let (first, last) = (pattern(BLOCK_SIZE, 0x44), pattern(BLOCK_SIZE, 0x55));
        let filler = |blocks: usize, salt: u8| pattern(blocks * BLOCK_SIZE, salt);
        fs.write_vectored(
            fid,
            None,
            &[
                (0, first.into()),
                (bs, filler(5, 0x66).into()),
                (0, last.clone().into()),
                (6 * bs, filler(5, 0x77).into()),
            ],
        )
        .unwrap();
        fs.evict_caches().unwrap();
        assert!(
            fs.read(fid, 0, BLOCK_SIZE).unwrap() == last,
            "{redundancy:?}"
        );
        assert!(fs.read(fid, bs, 5 * BLOCK_SIZE).unwrap() == filler(5, 0x66));
        assert!(fs.read(fid, 6 * bs, 5 * BLOCK_SIZE).unwrap() == filler(5, 0x77));
    }
}

/// Invariant 2, agent tier: a `pwrite` through a two-block client cache
/// evicts the buffered block 3, rewrites it, and evicts it again — both
/// versions ride one exchange and the later one wins.
#[test]
fn a_pwrite_that_re_evicts_its_own_block_pushes_the_last_version() {
    let (mut a, server) = agent_on(small_pool_server(Redundancy::None, 4), LeaseConfig::Auto, 2);
    let name = AttributedName::parse("name=twice").unwrap();
    let fid = a.create(&name).unwrap();
    let od = a.open(&name).unwrap();
    a.pwrite(od, 3 * BLOCK_SIZE as u64, &pattern(BLOCK_SIZE, 0x44))
        .unwrap();
    let before = a.stats().rpcs_sent;
    let model = pattern(6 * BLOCK_SIZE, 0x55);
    a.pwrite(od, 0, &model).unwrap();
    assert_eq!(
        a.stats().rpcs_sent - before,
        1,
        "one exchange for all evictions"
    );
    a.close(od).unwrap();
    assert!(at_server(&server, fid) == model);
}
