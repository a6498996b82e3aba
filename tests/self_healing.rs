//! Property-based tests for the self-healing pipeline: random file
//! operations with injected latent media faults (bad sectors and silent
//! corruption caught by the checksum lane), crashes, and
//! allocation-metadata drift, then background scrubbing and
//! `fsck_repair`, asserting —
//!
//! 1. corrupted bytes are NEVER served: a read either matches the model
//!    of committed data or reports an error;
//! 2. every fault with a redundant copy (block pool, stable mirror, or a
//!    peer replica) is repaired and the data converges byte-identical to
//!    the model;
//! 3. faults with no surviving copy are reported as unrecoverable, never
//!    silently dropped;
//! 4. the on-disk structures converge fsck-clean, with leaked and
//!    double-allocated extents repaired.
//!
//! The fast subsets run in the normal test job; the full sweeps are
//! `#[ignore]`d and driven with `--ignored` (pinned `PROPTEST_BASE_SEED`
//! matrix) in the CI bench-smoke step.

use proptest::prelude::*;
use rhodos_cluster::{Cluster, ClusterConfig};
use rhodos_disk_service::BLOCK_SIZE;
use rhodos_file_service::{
    FileId, FileService, FileServiceConfig, Redundancy, ScrubOwner, ServiceType, WritePolicy,
};
use rhodos_net::NetConfig;
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};

// ---------------------------------------------------------- single service --

#[derive(Debug, Clone)]
enum Op {
    Write {
        offset: u16,
        data: Vec<u8>,
    },
    Read {
        offset: u16,
        len: u16,
    },
    Flush,
    /// Scrub-then-crash-then-recover: the background scrubber runs before
    /// the crash (while the block pool still holds every redundant copy),
    /// so every latent fault injected since the last crash is healable.
    CrashRecover,
    /// Silent corruption of an allocated sector (stale checksum).
    InjectSilent {
        pick: u16,
    },
    /// A sector that went bad after it was written.
    InjectBad {
        pick: u16,
    },
    /// Bitmap allocation behind the file service's back (a leak).
    LeakExtent {
        len: u8,
    },
    /// A budgeted background-scrub tick.
    ScrubTick {
        budget: u8,
    },
}

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (0u16..16_000, proptest::collection::vec(any::<u8>(), 1..300))
                .prop_map(|(offset, data)| Op::Write { offset, data }),
            3 => (0u16..16_000, 0u16..400).prop_map(|(offset, len)| Op::Read { offset, len }),
            1 => Just(Op::Flush),
            1 => Just(Op::CrashRecover),
            2 => (0u16..u16::MAX).prop_map(|pick| Op::InjectSilent { pick }),
            2 => (0u16..u16::MAX).prop_map(|pick| Op::InjectBad { pick }),
            1 => (1u8..4).prop_map(|len| Op::LeakExtent { len }),
            2 => (1u8..32).prop_map(|budget| Op::ScrubTick { budget }),
        ],
        1..max,
    )
}

/// Picks a corruptible allocated sector: a data-block fragment, or (one
/// pick in eight) the file's first FIT fragment.
fn fault_addr(fs: &mut FileService, fid: rhodos_file_service::FileId, pick: u16) -> Option<u64> {
    let descs = fs.block_descriptors(fid).ok()?;
    if descs.is_empty() {
        return None;
    }
    if pick % 8 == 7 {
        Some(descs[0].addr - 1) // the FIT fragment preceding block 0
    } else {
        Some(descs[pick as usize % descs.len()].addr)
    }
}

/// Single-service injection: a fault is only "healable" while a redundant
/// copy exists, so this targets blocks the model covers and warms the
/// block pool (a one-byte read) before corrupting the platter — the FIT
/// option needs no warming, its redundant copy is the stable mirror. The
/// warm read itself may trip over an earlier latent fault sharing the
/// track (the checksum lane erroring rather than serving garbage); the
/// injection is then skipped. `outstanding` counts injected-but-not-yet-
/// scrubbed faults (a superset: overwrites may cure some).
fn inject_healable(
    fs: &mut FileService,
    fid: rhodos_file_service::FileId,
    pick: u16,
    model_len: usize,
    silent: bool,
    outstanding: &mut u32,
) -> Result<(), TestCaseError> {
    fs.flush_all().unwrap();
    let Ok(descs) = fs.block_descriptors(fid) else {
        return Ok(());
    };
    if descs.is_empty() {
        return Ok(());
    }
    let addr = if pick % 8 == 7 {
        descs[0].addr - 1
    } else {
        let covered = model_len.div_ceil(BLOCK_SIZE).min(descs.len());
        if covered == 0 {
            return Ok(());
        }
        let b = pick as usize % covered;
        if fs.read(fid, (b * BLOCK_SIZE) as u64, 1).is_err() {
            prop_assert!(*outstanding > 0, "read failed with no latent fault");
            return Ok(());
        }
        descs[b].addr
    };
    let disk = fs.disk_mut(0).disk_mut();
    if silent {
        disk.silently_corrupt_sector(addr).unwrap();
    } else {
        disk.corrupt_sector(addr).unwrap();
    }
    *outstanding += 1;
    Ok(())
}

fn single_service_case(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut fs = FileService::single_disk(
        DiskGeometry::medium(),
        LatencyModel::instant(),
        SimClock::new(),
        FileServiceConfig::default(),
    )
    .unwrap();
    let fid = fs.create(ServiceType::Basic).unwrap();
    fs.open(fid).unwrap();
    let mut model: Vec<u8> = Vec::new();
    let mut outstanding = 0u32;

    for op in ops {
        match op {
            Op::Write { offset, data } => {
                let offset = offset as usize;
                // A partial-block write may need to read the block in
                // first, and that read may trip over a latent fault on
                // the same track: an error, never silent corruption, and
                // the file is left unmodified.
                match fs.write(fid, offset as u64, &data) {
                    Ok(()) => {
                        if model.len() < offset + data.len() {
                            model.resize(offset + data.len(), 0);
                        }
                        model[offset..offset + data.len()].copy_from_slice(&data);
                    }
                    Err(_) => {
                        prop_assert!(outstanding > 0, "write failed with no latent fault")
                    }
                }
            }
            Op::Read { offset, len } => {
                let offset = offset as usize;
                let len = len as usize;
                if offset <= model.len() {
                    // Never garbage: a read either matches the model or
                    // the checksum lane turns latent corruption into an
                    // error.
                    match fs.read(fid, offset as u64, len) {
                        Ok(got) => {
                            let want = &model[offset..(offset + len).min(model.len())];
                            prop_assert_eq!(got, want.to_vec());
                        }
                        Err(_) => {
                            prop_assert!(outstanding > 0, "read failed with no latent fault")
                        }
                    }
                }
            }
            Op::Flush => fs.flush_all().unwrap(),
            Op::CrashRecover => {
                fs.flush_all().unwrap();
                // Every fault injected so far still has its redundant
                // copy resident (warmed at injection, and the pool
                // survives flushes), so the pre-crash scrub must heal
                // all of them.
                let r = fs.scrub(None).unwrap();
                prop_assert_eq!(
                    r.stats.unrecoverable,
                    0,
                    "redundant copy existed for every fault"
                );
                outstanding = 0;
                fs.simulate_crash();
                fs.recover().unwrap();
                fs.open(fid).unwrap();
                if !model.is_empty() {
                    let got = fs.read(fid, 0, model.len()).unwrap();
                    prop_assert_eq!(&got, &model);
                }
            }
            Op::InjectSilent { pick } => {
                inject_healable(&mut fs, fid, pick, model.len(), true, &mut outstanding)?
            }
            Op::InjectBad { pick } => {
                inject_healable(&mut fs, fid, pick, model.len(), false, &mut outstanding)?
            }
            Op::LeakExtent { len } => {
                let _ = fs.disk_mut(0).allocate_contiguous(u64::from(len));
            }
            Op::ScrubTick { budget } => {
                let r = fs.scrub(Some(u64::from(budget))).unwrap();
                prop_assert_eq!(r.stats.unrecoverable, 0, "pool copy was resident");
                if r.complete {
                    outstanding = 0;
                }
            }
        }
    }

    // Convergence: scrub heals the platters, fsck_repair reconciles the
    // allocation metadata (including a double-allocation hazard injected
    // here), and the file reads back byte-identical — even cold.
    fs.flush_all().unwrap();
    let r = fs.scrub(None).unwrap();
    prop_assert_eq!(r.stats.unrecoverable, 0);
    prop_assert!(fs.scrub(None).unwrap().is_clean());

    let descs = fs.block_descriptors(fid).unwrap();
    if descs.len() >= 2 {
        fs.disk_mut(0).free(descs[1].block_extent()).unwrap();
    }
    let repair = fs.fsck_repair().unwrap();
    prop_assert!(repair.after.is_clean(), "fsck: {:?}", repair.after.issues);

    if !model.is_empty() {
        prop_assert_eq!(&fs.read(fid, 0, model.len()).unwrap(), &model);
    }

    // A genuinely unrecoverable fault: uncached silent corruption. It
    // must be *reported* (with its owner), then a peer-style
    // `rewrite_block` heals it and the bytes converge again.
    if descs.len() >= 2 {
        fs.evict_caches().unwrap();
        fs.disk_mut(0)
            .disk_mut()
            .silently_corrupt_sector(descs[1].addr)
            .unwrap();
        let r = fs.scrub(None).unwrap();
        prop_assert_eq!(r.unrecoverable().count(), 1, "loss must be reported");
        let finding = *r.unrecoverable().next().unwrap();
        prop_assert!(
            matches!(finding.owner, ScrubOwner::Data { fid: f, block: 1 } if f == fid),
            "owner: {}",
            finding.owner
        );
        let mut block1 = vec![0u8; BLOCK_SIZE];
        let have = model.len().min(2 * BLOCK_SIZE).saturating_sub(BLOCK_SIZE);
        block1[..have].copy_from_slice(&model[BLOCK_SIZE..BLOCK_SIZE + have]);
        fs.rewrite_block(fid, 1, &block1).unwrap();
        prop_assert!(fs.scrub(None).unwrap().is_clean());
    }

    fs.evict_caches().unwrap();
    if !model.is_empty() {
        prop_assert_eq!(&fs.read(fid, 0, model.len()).unwrap(), &model);
    }
    prop_assert!(fs.fsck().unwrap().is_clean());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fast subset for the normal test job.
    #[test]
    fn faults_with_redundancy_always_heal(ops in ops(24)) {
        single_service_case(ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Full sweep: longer scripts. Run with `--ignored` under a pinned
    /// `PROPTEST_BASE_SEED` matrix in CI's bench-smoke step.
    #[test]
    #[ignore = "full self-healing sweep; CI runs it with --ignored"]
    fn faults_with_redundancy_always_heal_full(ops in ops(64)) {
        single_service_case(ops)?;
    }
}

// ------------------------------------------------------- replicated pair --

#[derive(Debug, Clone)]
struct Round {
    writes: Vec<(u16, Vec<u8>)>,
    victim: u8,
    faults: Vec<u16>,
    evict: bool,
}

fn rounds(max: usize) -> impl Strategy<Value = Vec<Round>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(
                (0u16..16_000, proptest::collection::vec(any::<u8>(), 1..200)),
                1..5,
            ),
            any::<u8>(),
            proptest::collection::vec(0u16..u16::MAX, 0..4),
            any::<bool>(),
        )
            .prop_map(|(writes, victim, faults, evict)| Round {
                writes,
                victim,
                faults,
                evict,
            }),
        1..max,
    )
}

/// A one-shard set of two write-through members, with one open file:
/// the cluster, the file's cluster id and its id on the members.
fn mirror() -> (Cluster, u64, FileId) {
    let mut c = Cluster::new(
        1,
        ClusterConfig {
            fs: FileServiceConfig {
                write_policy: WritePolicy::WriteThrough,
                ..FileServiceConfig::default()
            },
            data_net: NetConfig::in_process(),
            replicas: 2,
            ..ClusterConfig::default()
        },
    );
    let gid = c.create().unwrap();
    c.open(gid).unwrap();
    let fid = c.placement_of(gid).unwrap().1;
    (c, gid, fid)
}

fn flush_members(c: &Cluster) {
    for i in 0..c.server_count() {
        c.with_server(i, |fs| fs.flush_all().unwrap());
    }
}

/// Faults strike one member per round and the cluster scrub runs before
/// the next round, so the peer always holds a good copy: zero data loss,
/// byte-identical convergence, fsck-clean members.
fn replicated_case(rounds: Vec<Round>) -> Result<(), TestCaseError> {
    let (mut c, gid, fid) = mirror();
    let mut model: Vec<u8> = Vec::new();

    for round in rounds {
        for (offset, data) in &round.writes {
            let offset = *offset as usize;
            c.write(gid, offset as u64, data).unwrap();
            if model.len() < offset + data.len() {
                model.resize(offset + data.len(), 0);
            }
            model[offset..offset + data.len()].copy_from_slice(data);
        }
        flush_members(&c);

        let v = round.victim as usize % c.server_count();
        c.with_server(v, |fs| {
            for pick in &round.faults {
                if let Some(addr) = fault_addr(fs, fid, *pick) {
                    fs.disk_mut(0)
                        .disk_mut()
                        .silently_corrupt_sector(addr)
                        .unwrap();
                }
            }
            if round.evict {
                fs.evict_caches().unwrap();
            }
        });

        let report = c.scrub(None).unwrap();
        prop_assert_eq!(
            report.still_unrecoverable,
            0,
            "the peer held a good copy of every faulted sector"
        );

        if !model.is_empty() {
            prop_assert_eq!(&c.read(gid, 0, model.len()).unwrap(), &model);
        }
    }

    // Convergence: both members clean and byte-identical to the model,
    // even reading cold from the platters.
    prop_assert!(c.scrub(None).unwrap().is_clean());
    for i in 0..c.server_count() {
        let (got, report) = c.with_server(i, |fs| {
            fs.evict_caches().unwrap();
            let got = (!model.is_empty()).then(|| fs.read(fid, 0, model.len()).unwrap());
            (got, fs.fsck().unwrap())
        });
        if let Some(got) = got {
            prop_assert_eq!(&got, &model, "member {} diverged", i);
        }
        prop_assert!(report.is_clean(), "member {}: {:?}", i, report.issues);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fast subset for the normal test job.
    #[test]
    fn replicated_scrub_loses_nothing_while_a_peer_survives(rounds in rounds(5)) {
        replicated_case(rounds)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full sweep. Run with `--ignored` under a pinned
    /// `PROPTEST_BASE_SEED` matrix in CI's bench-smoke step.
    #[test]
    #[ignore = "full self-healing sweep; CI runs it with --ignored"]
    fn replicated_scrub_loses_nothing_while_a_peer_survives_full(rounds in rounds(12)) {
        replicated_case(rounds)?;
    }
}

// --------------------------------------------------------- parity group --

/// One erasure-coded chaos script: writes land on a k+m parity group
/// AND a 2-way mirror ablation, up to `m` whole disks are lost, and a
/// budgeted online rebuild runs under foreground traffic — optionally
/// with a *second* disk loss striking mid-rebuild (RAID-6 only, still
/// within the parity budget). At every step the parity group must read
/// back byte-identical to the mirror.
#[derive(Debug, Clone)]
struct ParityScript {
    m: usize,
    writes: Vec<(u32, Vec<u8>)>,
    lose: Vec<u8>,
    mid_writes: Vec<(u32, Vec<u8>)>,
    budget: u8,
    second_loss: u8,
    chaos: bool,
}

fn parity_scripts() -> impl Strategy<Value = ParityScript> {
    (
        1usize..=2,
        proptest::collection::vec(
            (0u32..80_000, proptest::collection::vec(any::<u8>(), 1..400)),
            1..6,
        ),
        proptest::collection::vec(any::<u8>(), 1..=2),
        proptest::collection::vec(
            (0u32..80_000, proptest::collection::vec(any::<u8>(), 1..300)),
            0..3,
        ),
        1u8..16,
        (any::<u8>(), any::<bool>()),
    )
        .prop_map(
            |(m, writes, mut lose, mid_writes, budget, (second_loss, chaos))| {
                lose.truncate(m);
                ParityScript {
                    m,
                    writes,
                    lose,
                    mid_writes,
                    budget,
                    second_loss,
                    chaos,
                }
            },
        )
}

fn parity_case(s: ParityScript) -> Result<(), TestCaseError> {
    const K: usize = 4;
    let ndisks = K + s.m + 1;
    let mut fs = FileService::striped(
        ndisks,
        DiskGeometry::medium(),
        LatencyModel::instant(),
        SimClock::new(),
        FileServiceConfig {
            redundancy: Redundancy::Parity { k: K, m: s.m },
            ..FileServiceConfig::default()
        },
    )
    .unwrap();
    let (mut c, mgid, _) = mirror();
    let pfid = fs.create(ServiceType::Basic).unwrap();
    fs.open(pfid).unwrap();

    let mut len = 0usize;
    for (offset, data) in &s.writes {
        let offset = *offset as u64;
        fs.write(pfid, offset, data).unwrap();
        c.write(mgid, offset, data).unwrap();
        len = len.max(offset as usize + data.len());
    }
    fs.flush_all().unwrap();
    flush_members(&c);

    // Lose up to m whole disks (duplicates in the picks collapse).
    let mut failed: Vec<usize> = Vec::new();
    for pick in &s.lose {
        let d = *pick as usize % ndisks;
        if !failed.contains(&d) {
            fs.fail_disk(d).unwrap();
            failed.push(d);
        }
    }

    // Degraded reads reconstruct transparently: byte-identical to the
    // surviving mirror, never an error, while losses stay within m.
    if len > 0 {
        prop_assert_eq!(
            fs.read(pfid, 0, len).unwrap(),
            c.read(mgid, 0, len).unwrap(),
            "degraded read diverged from the mirror"
        );
    }

    // Foreground writes keep landing while the group is degraded.
    for (offset, data) in &s.mid_writes {
        let offset = *offset as u64;
        fs.write(pfid, offset, data).unwrap();
        c.write(mgid, offset, data).unwrap();
        len = len.max(offset as usize + data.len());
    }
    fs.flush_all().unwrap();
    flush_members(&c);

    // Budgeted online rebuild under load; for RAID-6 with one disk down
    // a second loss may strike mid-rebuild and must still be absorbed.
    let mut second_pending = s.chaos && s.m == 2 && failed.len() == 1;
    let mut ticks = 0u32;
    loop {
        let r = fs.rebuild(Some(u64::from(s.budget))).unwrap();
        ticks += 1;
        if second_pending && !r.complete {
            second_pending = false;
            let mut d = s.second_loss as usize % ndisks;
            while fs.degraded_disks()[d] {
                d = (d + 1) % ndisks;
            }
            fs.fail_disk(d).unwrap();
        }
        if len > 0 {
            prop_assert_eq!(
                fs.read(pfid, 0, len).unwrap(),
                c.read(mgid, 0, len).unwrap(),
                "foreground read diverged during rebuild"
            );
        }
        if r.complete {
            break;
        }
        prop_assert!(ticks < 100_000, "rebuild failed to converge");
    }
    prop_assert!(fs.degraded_disks().iter().all(|d| !d));

    // Post-rebuild: cold reads off the rebuilt spare(s) match the
    // mirror, and the allocation metadata is fsck-clean.
    fs.evict_caches().unwrap();
    if len > 0 {
        prop_assert_eq!(
            fs.read(pfid, 0, len).unwrap(),
            c.read(mgid, 0, len).unwrap(),
            "post-rebuild read diverged from the mirror"
        );
    }
    let report = fs.fsck().unwrap();
    prop_assert!(report.is_clean(), "fsck: {:?}", report.issues);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fast subset for the normal test job.
    #[test]
    fn parity_group_matches_mirror_through_loss_and_rebuild(s in parity_scripts()) {
        parity_case(s)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full sweep. Run with `--ignored` under a pinned
    /// `PROPTEST_BASE_SEED` matrix in CI's bench-smoke step.
    #[test]
    #[ignore = "full self-healing sweep; CI runs it with --ignored"]
    fn parity_group_matches_mirror_through_loss_and_rebuild_full(s in parity_scripts()) {
        parity_case(s)?;
    }
}
