//! Cross-crate recovery integration: crashes at randomized points in a
//! transactional workload, media failures under replication, and the
//! idempotent-RPC machinery driving real file operations (experiment E9's
//! correctness side).

use proptest::prelude::*;
use rhodos_cluster::{Cluster, ClusterConfig};
use rhodos_file_service::{FileId, FileService, FileServiceConfig, LockLevel, ServiceType};
use rhodos_net::{NetConfig, ReplayCache, RpcClient, SimNetwork};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock, SECTOR_SIZE};
use rhodos_txn::{TransactionService, TxnConfig};

fn service() -> TransactionService {
    let fs = FileService::single_disk(
        DiskGeometry::medium(),
        LatencyModel::instant(),
        SimClock::new(),
        FileServiceConfig::default(),
    )
    .unwrap();
    TransactionService::new(fs, TxnConfig::default()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash after a random number of committed transactions: recovery
    /// always yields exactly the committed prefix.
    #[test]
    fn committed_prefix_survives_random_crash_points(
        crash_after in 0usize..12,
        level in 0u8..3,
    ) {
        let level = match level {
            0 => LockLevel::Record,
            1 => LockLevel::Page,
            _ => LockLevel::File,
        };
        let mut ts = service();
        let fid = ts.tcreate(level).unwrap();
        let total = 12usize;
        for i in 0..total {
            let t = ts.tbegin();
            ts.topen(t, fid).unwrap();
            ts.twrite(t, fid, (i * 8) as u64, &(i as u64).to_le_bytes()).unwrap();
            ts.tend(t).unwrap();
            if i + 1 == crash_after {
                ts.file_service_mut().simulate_crash();
                ts.recover().unwrap();
            }
        }
        // One more crash at the end.
        ts.file_service_mut().simulate_crash();
        ts.recover().unwrap();
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        for i in 0..total {
            let raw = ts.tread(t, fid, (i * 8) as u64, 8).unwrap();
            prop_assert_eq!(u64::from_le_bytes(raw.try_into().unwrap()), i as u64);
        }
        ts.tend(t).unwrap();
    }
}

#[test]
fn replicated_store_survives_one_media_failure_per_round() {
    let mut c = Cluster::new(
        1,
        ClusterConfig {
            data_net: NetConfig::in_process(),
            replicas: 3,
            ..ClusterConfig::default()
        },
    );
    let gid = c.create().unwrap();
    c.open(gid).unwrap();
    let fid = c.placement_of(gid).unwrap().1;
    for round in 0..3usize {
        let payload = format!("round {round} payload");
        c.write(gid, 0, payload.as_bytes()).unwrap();
        for i in 0..3 {
            c.with_server(i, |fs| fs.flush_all().unwrap());
        }
        // Kill one member's data copy each round, then crash it.
        let victim = round % 3;
        c.with_server(victim, |fs| {
            for d in fs.block_descriptors(fid).unwrap() {
                fs.disk_mut(d.disk as usize)
                    .disk_mut()
                    .corrupt_sector(d.addr)
                    .unwrap();
            }
        });
        c.crash_server(victim);
        // Reads still succeed via failover (enough reads that the
        // rotation is guaranteed to try the damaged member).
        for _ in 0..4 {
            assert_eq!(c.read(gid, 0, payload.len()).unwrap(), payload.as_bytes());
        }
        // Repair and rejoin.
        c.resync(victim).unwrap();
        assert!((0..3).all(|i| c.is_current(i)));
    }
    assert!(c.stats().failovers >= 1);
    assert_eq!(c.stats().resyncs, 3);
}

#[test]
fn idempotent_rpc_drives_exactly_once_file_appends() {
    // E9's correctness half: duplicated/lost messages around real file
    // operations leave the file exactly as if each append ran once.
    for seed in [1u64, 7, 42] {
        let clock = SimClock::new();
        let mut fs = FileService::single_disk(
            DiskGeometry::medium(),
            LatencyModel::instant(),
            clock.clone(),
            FileServiceConfig::default(),
        )
        .unwrap();
        let fid = fs.create(ServiceType::Basic).unwrap();
        fs.open(fid).unwrap();
        let mut net = SimNetwork::new(clock, NetConfig::lossy(0.25, 0.35, seed));
        let mut client = RpcClient::new(9);
        let mut replay = ReplayCache::new();
        for i in 0..40u8 {
            let fs_ref = &mut fs;
            let offset = i as u64;
            let reply = client
                .call(&mut net, |rid| {
                    replay.execute(rid, || {
                        // The operation body runs at most once per request.
                        fs_ref.write(fid, offset, &[i]).unwrap();
                        vec![1]
                    })
                })
                .expect("rpc exhausted");
            assert_eq!(reply, vec![1]);
        }
        let data = fs.read(fid, 0, 40).unwrap();
        let want: Vec<u8> = (0..40u8).collect();
        assert_eq!(data, want, "seed {seed}: duplicates corrupted the file");
        assert_eq!(fs.get_attribute(fid).unwrap().size, 40);
        assert!(
            net.stats().lost + net.stats().duplicated > 0,
            "faults occurred"
        );
    }
}

#[test]
fn torn_log_tail_never_redoes_a_partial_commit() {
    // Crash the disk mid-way through writing the commit record: the torn
    // record must be treated as "never committed".
    let mut ts = service();
    let fid = ts.tcreate(LockLevel::Page).unwrap();
    let t0 = ts.tbegin();
    ts.topen(t0, fid).unwrap();
    ts.twrite(t0, fid, 0, b"stable base").unwrap();
    ts.tend(t0).unwrap();
    // Arrange a crash after 1 more sector write on disk 0 — the next
    // commit record write will tear: a force writes only the sectors it
    // changes, so the record carries enough bytes to span two of them.
    ts.file_service_mut()
        .disk_mut(0)
        .disk_mut()
        .faults_mut()
        .crash_after_sector_writes(1);
    let t1 = ts.tbegin();
    ts.topen(t1, fid).unwrap();
    let torn = b"torn commit".repeat(300);
    assert!(torn.len() > SECTOR_SIZE, "the record spans two sectors");
    let r = ts.twrite(t1, fid, 0, &torn).and_then(|_| ts.tend(t1));
    assert!(r.is_err(), "the injected crash must surface");
    ts.file_service_mut().simulate_crash();
    ts.recover().unwrap();
    let t2 = ts.tbegin();
    ts.topen(t2, fid).unwrap();
    let back = ts.tread(t2, fid, 0, 11).unwrap();
    ts.tend(t2).unwrap();
    assert_eq!(
        back, b"stable base",
        "a torn commit record must roll back, not replay garbage"
    );
}

#[test]
fn stable_storage_protects_the_fit_against_media_failure() {
    // "A copy of the file index table is always available in stable
    // storage" — destroy the primary FIT fragment and recover.
    let mut fs = FileService::single_disk(
        DiskGeometry::medium(),
        LatencyModel::instant(),
        SimClock::new(),
        FileServiceConfig::default(),
    )
    .unwrap();
    let fid = fs.create(ServiceType::Basic).unwrap();
    fs.open(fid).unwrap();
    fs.write(fid, 0, b"metadata matters").unwrap();
    fs.flush_all().unwrap();
    fs.close(fid).unwrap();
    // Find and corrupt the FIT fragment (it precedes the first data block).
    let descs = fs.block_descriptors(fid).unwrap();
    let fit_frag = descs[0].addr - 1;
    fs.disk_mut(0).disk_mut().corrupt_sector(fit_frag).unwrap();
    fs.simulate_crash();
    fs.recover().unwrap();
    fs.open(fid).unwrap();
    assert_eq!(fs.read(fid, 0, 16).unwrap(), b"metadata matters");
    let _ = FileId(0);
}
