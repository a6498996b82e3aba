//! Deterministic chaos sweep for the replication tentpole: replica
//! crashes mid-write, torn sectors, message loss/duplication, and
//! crash-then-resync-then-rejoin cycles, with three invariants checked
//! throughout —
//!
//! 1. no committed write is ever lost while at least one replica lives;
//! 2. live replicas never diverge (and a resynchronised replica comes
//!    back byte-identical);
//! 3. every replica's on-disk structures stay fsck-clean.
//!
//! The fast subset runs in the normal test job; the full sweep is
//! `#[ignore]`d and driven with `--ignored` (pinned `PROPTEST_BASE_SEED`
//! matrix) in the CI bench-smoke step.

use proptest::prelude::*;
use rhodos_file_service::{FileService, FileServiceConfig, ServiceType, WritePolicy};
use rhodos_net::NetConfig;
use rhodos_replication::ReplicatedFiles;
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};

/// A write-through replica: mutations reach the platters inside the call,
/// so injected device faults surface at the faulting operation instead of
/// at some later flush.
fn write_through_replica(clock: &SimClock) -> FileService {
    FileService::single_disk(
        DiskGeometry::medium(),
        LatencyModel::instant(),
        clock.clone(),
        FileServiceConfig {
            write_policy: WritePolicy::WriteThrough,
            ..FileServiceConfig::default()
        },
    )
    .unwrap()
}

fn direct_cluster(n: usize) -> ReplicatedFiles {
    let clock = SimClock::new();
    let replicas = (0..n).map(|_| write_through_replica(&clock)).collect();
    ReplicatedFiles::new(replicas)
}

fn rpc_cluster(n: usize, drop: f64, dup: f64, seed: u64) -> ReplicatedFiles {
    let clock = SimClock::new();
    let replicas = (0..n).map(|_| write_through_replica(&clock)).collect();
    ReplicatedFiles::over_network(replicas, NetConfig::lossy(drop, dup, seed))
}

/// Fingerprints of every platter image a replica owns: its disks plus
/// both stable-storage mirrors.
fn image_fingerprints(fs: &mut FileService) -> Vec<u64> {
    let mut prints = Vec::new();
    for d in 0..fs.disk_count() {
        prints.push(fs.disk_mut(d).disk_mut().image_fingerprint());
        if let Some(stable) = fs.disk_mut(d).stable_mut() {
            prints.push(stable.mirror_a_mut().image_fingerprint());
            prints.push(stable.mirror_b_mut().image_fingerprint());
        }
    }
    prints
}

/// The acceptance scenario from the issue: a disk fault on replica 1 of 3
/// mid-`write` must not abort the fan-out (the pre-fix bug) — the write
/// succeeds on the remaining replicas, the failover is counted, and a
/// subsequent `resync(1)` makes all three replicas' disk images
/// byte-identical again, fsck-clean on each.
#[test]
fn torn_write_fails_over_and_resync_restores_byte_identity() {
    let mut rf = direct_cluster(3);
    let fid = rf.create(ServiceType::Basic).unwrap();
    rf.open(fid).unwrap();
    rf.write(fid, 0, b"committed before the fault").unwrap();

    // Replica 1's disk crashes at its next sector write: the write-all
    // fan-out tears on that replica only, leaving it with the old data.
    rf.replica_mut(1)
        .disk_mut(0)
        .disk_mut()
        .faults_mut()
        .crash_after_sector_writes(0);
    rf.write(fid, 0, b"committed during the fault").unwrap();
    assert_eq!(rf.stats().failovers, 1, "the fault must be a failover");
    assert_eq!(rf.live_replicas(), 2);

    // The committed write survives on the live replicas.
    assert_eq!(rf.read(fid, 0, 26).unwrap(), b"committed during the fault");

    // Repair crew: resync replica 1 from a live source.
    rf.resync(1).unwrap();
    assert_eq!(rf.live_replicas(), 3);
    assert_eq!(rf.stats().resyncs, 1);
    assert!(rf.stats().resync_sectors_copied > 0);

    // All three replicas are byte-identical on every platter, and clean.
    for i in 0..3 {
        rf.replica_mut(i).flush_all().unwrap();
    }
    let reference = image_fingerprints(rf.replica_mut(0));
    for i in 1..3 {
        assert_eq!(
            image_fingerprints(rf.replica_mut(i)),
            reference,
            "replica {i} diverges after resync"
        );
    }
    for i in 0..3 {
        let report = rf.replica_mut(i).fsck().unwrap();
        assert!(report.is_clean(), "replica {i}: {:?}", report.issues);
    }

    // The rejoined replica serves reads again.
    for _ in 0..3 {
        assert_eq!(rf.read(fid, 0, 26).unwrap(), b"committed during the fault");
    }
    let spread = rf.stats().reads_per_replica.clone();
    assert!(spread[1] > 0, "rejoined replica serves reads: {spread:?}");
}

/// One chaos case: a scripted operation mix over a 3-replica RPC cluster
/// with lossy, duplicating channels. At most one replica is "the victim"
/// at any time; the repair crew (resync) brings it back before the next
/// fault is injected, so the no-lost-writes invariant is always
/// checkable against ≥ 1 live replica.
fn chaos_case(ops: &[(u8, u16, u8)], drop: f64, dup: f64, seed: u64) -> Result<(), TestCaseError> {
    let mut rf = rpc_cluster(3, drop, dup, seed);
    rf.set_max_attempts(64);
    let fid = rf.create(ServiceType::Basic).unwrap();
    rf.open(fid).unwrap();

    let mut model: Vec<u8> = Vec::new();
    let mut victim: Option<usize> = None;

    let repair = |rf: &mut ReplicatedFiles, victim: &mut Option<usize>| {
        if let Some(v) = victim.take() {
            if rf.is_failed(v) {
                rf.resync(v).unwrap();
            } else {
                // The pending fault never triggered; disarm it.
                rf.replica_mut(v).disk_mut(0).disk_mut().repair();
            }
        }
    };

    for &(action, off, byte) in ops {
        match action {
            // Writes: must succeed (≥ 1 replica always lives) and enter
            // the model of committed data.
            0..=4 => {
                let data = vec![byte ^ action; 1 + (byte as usize % 48)];
                let off = off as u64 % 1500;
                rf.write(fid, off, &data).unwrap();
                let end = off as usize + data.len();
                if model.len() < end {
                    model.resize(end, 0);
                }
                model[off as usize..end].copy_from_slice(&data);
            }
            // Reads: a committed prefix must come back intact whichever
            // replica round-robin lands on.
            5 | 6 => {
                if !model.is_empty() {
                    let len = 1 + (off as usize) % model.len();
                    let got = rf.read(fid, 0, len).unwrap();
                    prop_assert_eq!(&got[..], &model[..len], "lost committed data");
                }
            }
            // Torn write: the victim's disk crashes after a few more
            // sector writes, tearing some later operation mid-write.
            7 => {
                if victim.is_none() {
                    let v = byte as usize % 3;
                    rf.replica_mut(v)
                        .disk_mut(0)
                        .disk_mut()
                        .faults_mut()
                        .crash_after_sector_writes(u64::from(byte) % 3);
                    victim = Some(v);
                }
            }
            // Machine crash: mask the replica, scar its platter, and drop
            // its volatile state — resync must undo all of it.
            8 => {
                if victim.is_none() {
                    let v = byte as usize % 3;
                    rf.mark_failed(v).unwrap();
                    let total = rf
                        .replica_mut(v)
                        .disk_mut(0)
                        .disk_mut()
                        .geometry()
                        .total_sectors();
                    let addr = (u64::from(byte) * 37) % total;
                    rf.replica_mut(v)
                        .disk_mut(0)
                        .disk_mut()
                        .corrupt_sector(addr)
                        .unwrap();
                    rf.replica_mut(v).simulate_crash();
                    victim = Some(v);
                }
            }
            // Repair crew arrives.
            _ => repair(&mut rf, &mut victim),
        }
    }
    repair(&mut rf, &mut victim);

    // Convergence: every replica is live again, serves the full committed
    // contents, and is structurally clean.
    prop_assert_eq!(rf.live_replicas(), 3);
    for i in 0..3 {
        rf.replica_mut(i).flush_all().unwrap();
        let got = rf.replica_mut(i).read(fid, 0, model.len()).unwrap();
        prop_assert_eq!(&got[..], &model[..], "replica {} diverged", i);
        let report = rf.replica_mut(i).fsck().unwrap();
        prop_assert!(report.is_clean(), "replica {}: {:?}", i, report.issues);
    }
    // Bounded server state: one synchronous client per channel.
    prop_assert!(
        rf.rpc_stats().peak_entries <= 1,
        "replay state unbounded: {}",
        rf.rpc_stats().peak_entries
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fast chaos subset for the normal test job.
    #[test]
    fn chaos_writes_survive_faults_and_replicas_converge(
        ops in proptest::collection::vec((0u8..10, 0u16..1500, any::<u8>()), 8..24),
        drop_pm in 0u16..250,
        dup_pm in 0u16..250,
        seed: u64,
    ) {
        chaos_case(&ops, f64::from(drop_pm) / 1000.0, f64::from(dup_pm) / 1000.0, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Full sweep: longer scripts, harsher loss. Run with `--ignored`
    /// under a pinned `PROPTEST_BASE_SEED` matrix in CI's bench-smoke
    /// step.
    #[test]
    #[ignore = "full chaos sweep; CI runs it with --ignored"]
    fn chaos_full_sweep(
        ops in proptest::collection::vec((0u8..10, 0u16..1500, any::<u8>()), 24..64),
        drop_pm in 0u16..400,
        dup_pm in 0u16..400,
        seed: u64,
    ) {
        chaos_case(&ops, f64::from(drop_pm) / 1000.0, f64::from(dup_pm) / 1000.0, seed)?;
    }
}

/// The "nearly stateless" acceptance bound: across a 1 000-operation run
/// over lossy, duplicating channels, no replica's replay cache ever holds
/// more than the in-flight window (one synchronous request per client).
#[test]
fn replay_cache_stays_bounded_across_a_thousand_lossy_operations() {
    let mut rf = rpc_cluster(3, 0.2, 0.2, 42);
    rf.set_max_attempts(64);
    let fid = rf.create(ServiceType::Basic).unwrap();
    rf.open(fid).unwrap();
    for i in 0..1_000u64 {
        match i % 4 {
            0 | 1 => rf.write(fid, (i % 64) * 8, &i.to_le_bytes()).unwrap(),
            2 => {
                let _ = rf.read(fid, 0, 8).unwrap();
            }
            _ => {
                let _ = rf.get_attribute(fid).unwrap();
            }
        }
        for r in 0..3 {
            assert!(
                rf.replay_entries(r) <= 1,
                "op {i}: replica {r} holds {} replies",
                rf.replay_entries(r)
            );
        }
    }
    let s = rf.rpc_stats();
    assert!(s.retries > 0, "seed 42 must lose messages");
    assert!(s.replayed > 0, "seed 42 must duplicate messages");
    assert!(s.peak_entries <= 1, "peak {}", s.peak_entries);
    assert_eq!(rf.live_replicas(), 3, "no replica should be exhausted");
}
