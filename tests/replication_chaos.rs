//! Deterministic chaos sweep for replicated shards: member crashes
//! mid-write, torn sectors, message loss/duplication, and
//! crash-then-resync-then-rejoin cycles on a one-shard cluster whose
//! shard is a lock-step set of three, with three invariants checked
//! throughout —
//!
//! 1. no committed write is ever lost while at least one member lives;
//! 2. current members never diverge (and a resynchronised member comes
//!    back byte-identical);
//! 3. every member's on-disk structures stay fsck-clean.
//!
//! The fast subset runs in the normal test job; the full sweep is
//! `#[ignore]`d and driven with `--ignored` (pinned `PROPTEST_BASE_SEED`
//! matrix) in the CI bench-smoke step.

use proptest::prelude::*;
use rhodos_cluster::{Cluster, ClusterConfig, Link};
use rhodos_file_service::{FileId, FileService, FileServiceConfig, WritePolicy};
use rhodos_net::NetConfig;

/// A one-shard set of `r` write-through members behind lanes behaving as
/// `net` — mutations reach the platters inside the call, so injected
/// device faults surface at the faulting operation instead of at some
/// later flush — with one open file: the cluster, the file's cluster id
/// and its id on the members.
fn replica_set(r: usize, net: NetConfig) -> (Cluster, u64, FileId) {
    let mut c = Cluster::new(
        1,
        ClusterConfig {
            fs: FileServiceConfig {
                write_policy: WritePolicy::WriteThrough,
                ..FileServiceConfig::default()
            },
            data_net: net,
            replicas: r,
            ..ClusterConfig::default()
        },
    );
    c.set_max_attempts(64);
    let gid = c.create().unwrap();
    c.open(gid).unwrap();
    let fid = c.placement_of(gid).unwrap().1;
    (c, gid, fid)
}

/// The largest number of replies any member's replay cache ever held.
fn peak_replay_entries(c: &Cluster) -> u64 {
    (0..c.server_count())
        .map(|i| c.channel(i).cache.stats().peak_entries)
        .max()
        .unwrap_or(0)
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

/// A disk fault on member 1 of 3 mid-`write` must not abort the
/// fan-out: the write succeeds on the remaining members, the failover is
/// counted, and `resync(1)` makes all three members' disk images
/// byte-identical again, fsck-clean on each.
#[test]
fn torn_write_fails_over_and_resync_restores_byte_identity() {
    let (mut c, gid, _) = replica_set(3, NetConfig::in_process());
    c.write(gid, 0, b"committed before the fault").unwrap();

    // Member 1's disk crashes at its next sector write: the write-all
    // fan-out tears on that member only, leaving it with the old data.
    c.with_server(1, |fs| {
        fs.disk_mut(0)
            .disk_mut()
            .faults_mut()
            .crash_after_sector_writes(0)
    });
    c.write(gid, 0, b"committed during the fault").unwrap();
    assert_eq!(c.stats().failovers, 1, "the fault must be a failover");
    assert!(!c.is_current(1));

    // The committed write survives on the current members.
    assert_eq!(c.read(gid, 0, 26).unwrap(), b"committed during the fault");

    // Repair crew: resync member 1 from a current peer.
    c.resync(1).unwrap();
    assert!((0..3).all(|i| c.is_current(i)));
    assert_eq!(c.stats().resyncs, 1);
    assert!(c.stats().resync_sectors_copied > 0);

    // All three members are byte-identical on every platter, and clean.
    let prints: Vec<Vec<u64>> = (0..3)
        .map(|i| {
            c.with_server(i, |fs| {
                fs.flush_all().unwrap();
                image_fingerprints(fs)
            })
        })
        .collect();
    for (i, p) in prints.iter().enumerate().skip(1) {
        assert_eq!(*p, prints[0], "member {i} diverges after resync");
    }
    for i in 0..3 {
        let report = c.with_server(i, |fs| fs.fsck().unwrap());
        assert!(report.is_clean(), "member {i}: {:?}", report.issues);
    }

    // The rejoined member serves reads again.
    for _ in 0..3 {
        assert_eq!(c.read(gid, 0, 26).unwrap(), b"committed during the fault");
    }
    assert!(c.server_reads(1) > 0, "rejoined member serves reads");
}

/// One chaos case: a scripted operation mix over a set of three behind
/// lossy, duplicating channels. At most one member is "the victim" at
/// any time; the repair crew (resync) brings it back before the next
/// fault is injected, so the no-lost-writes invariant is always
/// checkable against ≥ 1 current member.
fn chaos_case(ops: &[(u8, u16, u8)], drop: f64, dup: f64, seed: u64) -> Result<(), TestCaseError> {
    let (mut c, gid, fid) = replica_set(3, NetConfig::lossy(drop, dup, seed));

    let mut model: Vec<u8> = Vec::new();
    // The victim, and whether its machine crashed (so it needs a resync
    // whether or not a request found it out).
    let mut victim: Option<(usize, bool)> = None;

    let repair = |c: &mut Cluster, victim: &mut Option<(usize, bool)>| {
        if let Some((v, crashed)) = victim.take() {
            c.set_link(v, Link::Up);
            if crashed || !c.is_current(v) {
                c.resync(v).unwrap();
            } else {
                // The pending fault never triggered; disarm it.
                c.with_server(v, |fs| fs.disk_mut(0).disk_mut().repair());
            }
        }
    };

    for &(action, off, byte) in ops {
        match action {
            // Writes: must succeed (≥ 1 member always lives) and enter
            // the model of committed data.
            0..=4 => {
                let data = vec![byte ^ action; 1 + (byte as usize % 48)];
                let off = off as u64 % 1500;
                c.write(gid, off, &data).unwrap();
                let end = off as usize + data.len();
                if model.len() < end {
                    model.resize(end, 0);
                }
                model[off as usize..end].copy_from_slice(&data);
            }
            // Reads: a committed prefix must come back intact whichever
            // member the rotation lands on.
            5 | 6 => {
                if !model.is_empty() {
                    let len = 1 + (off as usize) % model.len();
                    let got = c.read(gid, 0, len).unwrap();
                    prop_assert_eq!(&got[..], &model[..len], "lost committed data");
                }
            }
            // Torn write: the victim's disk crashes after a few more
            // sector writes, tearing some later operation mid-write.
            7 => {
                if victim.is_none() {
                    let v = byte as usize % 3;
                    c.with_server(v, |fs| {
                        fs.disk_mut(0)
                            .disk_mut()
                            .faults_mut()
                            .crash_after_sector_writes(u64::from(byte) % 3)
                    });
                    victim = Some((v, false));
                }
            }
            // Machine crash: the member drops off the network, its
            // platter is scarred and its volatile state lost — resync
            // must undo all of it.
            8 => {
                if victim.is_none() {
                    let v = byte as usize % 3;
                    c.set_link(v, Link::Down);
                    c.with_server(v, |fs| {
                        let disk = fs.disk_mut(0).disk_mut();
                        let addr = (u64::from(byte) * 37) % disk.geometry().total_sectors();
                        disk.corrupt_sector(addr).unwrap();
                        fs.simulate_crash();
                    });
                    victim = Some((v, true));
                }
            }
            // Repair crew arrives.
            _ => repair(&mut c, &mut victim),
        }
    }
    repair(&mut c, &mut victim);

    // Convergence: every member is current again, serves the full
    // committed contents, and is structurally clean.
    prop_assert!((0..3).all(|i| c.is_current(i)));
    for i in 0..3 {
        let (got, report) = c.with_server(i, |fs| {
            fs.flush_all().unwrap();
            (fs.read(fid, 0, model.len()).unwrap(), fs.fsck().unwrap())
        });
        prop_assert_eq!(&got[..], &model[..], "member {} diverged", i);
        prop_assert!(report.is_clean(), "member {}: {:?}", i, report.issues);
    }
    // Bounded server state: one synchronous client per channel.
    let peak = peak_replay_entries(&c);
    prop_assert!(peak <= 1, "replay state unbounded: {}", peak);
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
/// over lossy, duplicating channels, no member's replay cache ever holds
/// more than the in-flight window (one synchronous request per client).
#[test]
fn replay_cache_stays_bounded_across_a_thousand_lossy_operations() {
    let (mut c, gid, _) = replica_set(3, NetConfig::lossy(0.2, 0.2, 42));
    for i in 0..1_000u64 {
        match i % 4 {
            0 | 1 => c.write(gid, (i % 64) * 8, &i.to_le_bytes()).unwrap(),
            2 => {
                let _ = c.read(gid, 0, 8).unwrap();
            }
            _ => {
                let _ = c.get_attr(gid).unwrap();
            }
        }
        for r in 0..3 {
            assert!(
                c.replay_entries(r) <= 1,
                "op {i}: member {r} holds {} replies",
                c.replay_entries(r)
            );
        }
    }
    let (retries, replayed) = (0..3).fold((0, 0), |(t, p), i| {
        let ch = c.channel(i);
        (t + ch.client.stats().retries, p + ch.cache.stats().replayed)
    });
    assert!(retries > 0, "seed 42 must lose messages");
    assert!(replayed > 0, "seed 42 must duplicate messages");
    assert!(peak_replay_entries(&c) <= 1);
    assert!(
        (0..3).all(|i| c.is_current(i)),
        "no member should be exhausted"
    );
}
