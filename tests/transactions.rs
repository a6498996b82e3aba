//! Cross-crate transaction integration: serializability under random
//! interleavings, granularity behaviour, and timeout liveness.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhodos_file_service::{FileService, FileServiceConfig, LockLevel};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
use rhodos_txn::{TransactionService, TxnConfig, TxnError, TxnId};

fn service(level_cfg: TxnConfig) -> TransactionService {
    let fs = FileService::single_disk(
        DiskGeometry::medium(),
        LatencyModel::instant(),
        SimClock::new(),
        FileServiceConfig::default(),
    )
    .unwrap();
    TransactionService::new(fs, level_cfg).unwrap()
}

/// Runs `n_txns` increment transactions over one shared counter with a
/// random interleaving; 2PL must make the outcome equal to the serial one.
fn run_counter_workload(level: LockLevel, seed: u64, n_txns: usize) -> u64 {
    let mut ts = service(TxnConfig {
        lt_us: 10_000,
        max_renewals: 1,
        ..Default::default()
    });
    let fid = ts.tcreate(level).unwrap();
    // Seed the counter.
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    ts.twrite(t, fid, 0, &0u64.to_le_bytes()).unwrap();
    ts.tend(t).unwrap();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut committed = 0u64;
    let mut pending: Vec<(TxnId, Option<u64>)> = Vec::new(); // (txn, read value)
    let mut started = 0usize;
    let clock = ts.file_service_mut().clock();
    while committed < n_txns as u64 {
        // Randomly either start a transaction, advance one, or tick.
        let choice = rng.gen_range(0..10);
        if choice < 4 && started < n_txns && pending.len() < 4 {
            let t = ts.tbegin();
            ts.topen(t, fid).unwrap();
            pending.push((t, None));
            started += 1;
        } else if !pending.is_empty() {
            let i = rng.gen_range(0..pending.len());
            let (t, read) = pending[i];
            let step: Result<(), TxnError> = (|| {
                match read {
                    None => {
                        let raw = ts.tread_for_update(t, fid, 0, 8)?;
                        pending[i].1 = Some(u64::from_le_bytes(raw.try_into().unwrap()));
                    }
                    Some(v) => {
                        ts.twrite(t, fid, 0, &(v + 1).to_le_bytes())?;
                        ts.tend(t)?;
                        pending.remove(i);
                        committed += 1;
                    }
                }
                Ok(())
            })();
            match step {
                Ok(()) => {}
                Err(TxnError::WouldBlock { .. }) => {
                    // Stay queued; advance virtual time so timeouts can
                    // eventually fire if we deadlocked.
                    clock.advance(1_000);
                    let aborted = ts.tick();
                    // Restart any of our aborted transactions.
                    pending.retain(|(t, _)| !aborted.contains(t));
                }
                Err(TxnError::NotActive(_)) | Err(TxnError::Aborted(_)) => {
                    pending.remove(i);
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        } else {
            clock.advance(1_000);
            let aborted = ts.tick();
            pending.retain(|(t, _)| !aborted.contains(t));
        }
        // Any aborted-but-started work must be restarted to reach the
        // target count.
        if pending.is_empty() && started >= n_txns && committed < n_txns as u64 {
            started -= 1; // allow another start
        }
    }
    // Read the final value.
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    let raw = ts.tread(t, fid, 0, 8).unwrap();
    ts.tend(t).unwrap();
    u64::from_le_bytes(raw.try_into().unwrap())
}

#[test]
fn interleaved_increments_serialize_page_level() {
    for seed in 0..5 {
        let v = run_counter_workload(LockLevel::Page, seed, 12);
        assert_eq!(v, 12, "seed {seed}: lost update under page locking");
    }
}

#[test]
fn interleaved_increments_serialize_record_level() {
    for seed in 0..5 {
        let v = run_counter_workload(LockLevel::Record, seed, 12);
        assert_eq!(v, 12, "seed {seed}: lost update under record locking");
    }
}

#[test]
fn interleaved_increments_serialize_file_level() {
    for seed in 0..3 {
        let v = run_counter_workload(LockLevel::File, seed, 10);
        assert_eq!(v, 10, "seed {seed}: lost update under file locking");
    }
}

#[test]
fn record_level_allows_disjoint_concurrency_where_file_level_blocks() {
    // The paper's granularity claim in one test: two transactions touching
    // different records proceed under record locking and collide under
    // file locking.
    for (level, expect_conflict) in [(LockLevel::Record, false), (LockLevel::File, true)] {
        let mut ts = service(TxnConfig::default());
        let fid = ts.tcreate(level).unwrap();
        let t0 = ts.tbegin();
        ts.topen(t0, fid).unwrap();
        ts.twrite(t0, fid, 0, &[0u8; 64]).unwrap();
        ts.tend(t0).unwrap();
        let t1 = ts.tbegin();
        let t2 = ts.tbegin();
        ts.topen(t1, fid).unwrap();
        ts.topen(t2, fid).unwrap();
        ts.twrite(t1, fid, 0, b"left").unwrap();
        let r = ts.twrite(t2, fid, 32, b"right");
        if expect_conflict {
            assert!(matches!(r, Err(TxnError::WouldBlock { .. })), "{level:?}");
        } else {
            r.unwrap_or_else(|e| panic!("{level:?} should not conflict: {e}"));
        }
        ts.tabort(t1).unwrap();
        ts.tabort(t2).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random interleavings never lose increments (serializability), at
    /// any locking granularity.
    #[test]
    fn no_lost_updates_under_random_interleavings(seed in 0u64..1000, level in 0u8..3) {
        let level = match level {
            0 => LockLevel::Record,
            1 => LockLevel::Page,
            _ => LockLevel::File,
        };
        let v = run_counter_workload(level, seed, 8);
        prop_assert_eq!(v, 8);
    }
}

#[test]
fn timeout_guarantees_liveness_under_heavy_conflict() {
    // Many transactions fight over one page; with timeouts, the system
    // always makes progress (no permanent blocking).
    let mut ts = service(TxnConfig {
        lt_us: 5_000,
        max_renewals: 0,
        ..Default::default()
    });
    let fid = ts.tcreate(LockLevel::Page).unwrap();
    let t0 = ts.tbegin();
    ts.topen(t0, fid).unwrap();
    ts.twrite(t0, fid, 0, &[1u8; 8]).unwrap();
    ts.tend(t0).unwrap();
    let clock = ts.file_service_mut().clock();
    let mut committed = 0;
    let mut attempts = 0;
    while committed < 20 && attempts < 500 {
        attempts += 1;
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        match ts.twrite(t, fid, 0, &[2u8; 8]) {
            Ok(()) => {
                ts.tend(t).unwrap();
                committed += 1;
            }
            Err(TxnError::WouldBlock { .. }) => {
                clock.advance(6_000);
                ts.tick();
                let _ = ts.tabort(t);
            }
            Err(e) => panic!("{e}"),
        }
    }
    assert_eq!(committed, 20, "system must stay live ({attempts} attempts)");
}

// ---- nested transactions (extension; see DESIGN.md §5b) -----------------

#[derive(Debug, Clone)]
enum NestedOp {
    Write {
        offset: u16,
        byte: u8,
        len: u8,
    },
    ChildWrite {
        offset: u16,
        byte: u8,
        len: u8,
        commit: bool,
    },
}

fn nested_ops() -> impl Strategy<Value = Vec<NestedOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u16..2000, any::<u8>(), 1u8..64).prop_map(|(offset, byte, len)| NestedOp::Write {
                offset,
                byte,
                len
            }),
            (0u16..2000, any::<u8>(), 1u8..64, any::<bool>()).prop_map(
                |(offset, byte, len, commit)| NestedOp::ChildWrite {
                    offset,
                    byte,
                    len,
                    commit
                }
            ),
        ],
        1..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A parent transaction interleaved with nested children behaves, after
    /// top-level commit, exactly like the equivalent flat sequence where
    /// committed children's writes happen inline and aborted children's
    /// writes never happen.
    #[test]
    fn nested_equals_flat_model(ops in nested_ops(), level in 0u8..2) {
        let level = if level == 0 { LockLevel::Page } else { LockLevel::Record };
        let mut ts = service(TxnConfig::default());
        let fid = ts.tcreate(level).unwrap();
        let parent = ts.tbegin();
        ts.topen(parent, fid).unwrap();
        let mut model: Vec<u8> = Vec::new();
        let apply_model = |offset: u16, byte: u8, len: u8, model: &mut Vec<u8>| {
            let (o, l) = (offset as usize, len as usize);
            if model.len() < o + l {
                model.resize(o + l, 0);
            }
            model[o..o + l].fill(byte);
        };
        for op in ops {
            match op {
                NestedOp::Write { offset, byte, len } => {
                    ts.twrite(parent, fid, offset as u64, &vec![byte; len as usize]).unwrap();
                    apply_model(offset, byte, len, &mut model);
                }
                NestedOp::ChildWrite { offset, byte, len, commit } => {
                    let child = ts.tbegin_nested(parent).unwrap();
                    ts.twrite(child, fid, offset as u64, &vec![byte; len as usize]).unwrap();
                    if commit {
                        ts.tend(child).unwrap();
                        apply_model(offset, byte, len, &mut model);
                    } else {
                        ts.tabort(child).unwrap();
                    }
                }
            }
            // The parent's view always matches the model mid-flight.
            if !model.is_empty() {
                let got = ts.tread(parent, fid, 0, model.len()).unwrap();
                prop_assert_eq!(&got, &model);
            }
        }
        ts.tend(parent).unwrap();
        // Durable state matches the flat model.
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        if !model.is_empty() {
            let got = ts.tread(t, fid, 0, model.len()).unwrap();
            prop_assert_eq!(got, model);
        }
        ts.tend(t).unwrap();
        // And the on-disk structures survived the churn of tentative
        // blocks being allocated, merged and freed.
        let report = ts.file_service_mut().fsck().unwrap();
        prop_assert!(report.is_clean(), "fsck: {:?}", report.issues);
    }
}
