//! Equivalence tests for the per-spindle I/O scheduler.
//!
//! The scheduler changes *how* striped windows and coalesced flushes reach
//! the disks — elevator ordering, cross-file merging, per-spindle batches
//! under makespan accounting — but must never change *what* ends up on
//! them. These tests pit the two [`ParallelIo`] modes against each other
//! on identical workloads and require byte-identical disk images,
//! identical read results, and clean fsck walks.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhodos_disk_service::{DiskService, DiskServiceConfig, BLOCK_SIZE};
use rhodos_file_service::{FileService, FileServiceConfig, ParallelIo, ServiceType, StripePolicy};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};

/// A striped service over small instant-latency disks. The instant model
/// keeps the simulated clock at zero in every mode, so FIT timestamps —
/// which land on disk — cannot differ between serial and batched issue.
fn build(ndisks: usize, chunk_blocks: u64, mode: ParallelIo) -> FileService {
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
            cache_blocks: 64,
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
    /// Read a whole file back (exercises the windowed fetch path).
    Read { file: usize },
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
                (any::<usize>(), any::<usize>(), any::<u8>())
                    .prop_map(|(file, block, fill)| Op::Write { file, block, fill }),
                any::<usize>().prop_map(|file| Op::Read { file }),
                Just(Op::Flush),
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
}

fn run_workload(w: &Workload, mode: ParallelIo) -> Outcome {
    let mut fs = build(w.ndisks, w.chunk_blocks, mode);
    let fids: Vec<_> = w
        .files
        .iter()
        .enumerate()
        .map(|(i, &blocks)| {
            let fid = fs.create(ServiceType::Basic).unwrap();
            fs.open(fid).unwrap();
            fs.write(
                fid,
                0,
                vec![(i as u8).wrapping_mul(17); blocks * BLOCK_SIZE],
            )
            .unwrap();
            fid
        })
        .collect();
    fs.flush_all().unwrap();
    let mut reads = Vec::new();
    for op in &w.ops {
        match *op {
            Op::Write { file, block, fill } => {
                let f = file % fids.len();
                let b = (block % w.files[f]) as u64;
                fs.write(fids[f], b * BLOCK_SIZE as u64, vec![fill; BLOCK_SIZE])
                    .unwrap();
            }
            Op::Read { file } => {
                let f = file % fids.len();
                reads.push(fs.read(fids[f], 0, w.files[f] * BLOCK_SIZE).unwrap());
            }
            Op::Flush => fs.flush_all().unwrap(),
        }
    }
    fs.flush_all().unwrap();
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
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The coalesced, elevator-ordered flush and the windowed batch read
    /// leave every disk byte-identical to the pre-scheduler serial paths,
    /// return identical read results, and keep the file system
    /// fsck-clean.
    #[test]
    fn scheduler_modes_produce_identical_disks(w in workloads()) {
        let serial = run_workload(&w, ParallelIo::Never);
        let auto = run_workload(&w, ParallelIo::Auto);
        prop_assert!(serial.fsck_clean);
        prop_assert!(auto.fsck_clean);
        prop_assert_eq!(&serial.reads, &auto.reads);
        for d in 0..w.ndisks {
            prop_assert_eq!(
                &serial.images[d], &auto.images[d],
                "disk {} differs between serial and auto issue", d
            );
        }
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
