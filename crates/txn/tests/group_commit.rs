//! Crash equivalence for the group-commit pipeline (§6.6–6.7).
//!
//! Property: for any workload, crashing the service — including
//! mid-batch, with `Completed` markers and a prepared-but-unflushed commit
//! record pending — and recovering must yield exactly the state of the
//! transactions that were *acknowledged* committed, byte-for-byte equal
//! to a model that applies each acknowledged write in order. An
//! unacknowledged in-flight transaction may be redone or lost, but it
//! must be all-or-nothing.
//!
//! Cases are deterministic under the shimmed proptest runner; CI pins
//! `PROPTEST_BASE_SEED` over a small matrix. `crash_equivalence_full` is
//! the `#[ignore]`d long sweep.

use proptest::prelude::*;
use rhodos_file_service::{FileId, FileService, FileServiceConfig, LockLevel};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
use rhodos_txn::{TransactionService, TxnConfig, TxnError};

/// One single-write transaction in the generated workload.
type Op = (usize, u64, u8, usize); // (file, raw offset, fill byte, length)

const NFILES: usize = 3;

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

/// Creates the working files and commits one durable init byte in each,
/// mirroring the same init applied to `models`.
fn setup(ts: &mut TransactionService, models: &mut [Vec<u8>]) -> Vec<FileId> {
    let fids: Vec<FileId> = (0..NFILES)
        .map(|_| ts.tcreate(LockLevel::Page).unwrap())
        .collect();
    for (fid, model) in fids.iter().zip(models.iter_mut()) {
        let t = ts.tbegin();
        ts.topen(t, *fid).unwrap();
        ts.twrite(t, *fid, 0, &[7u8]).unwrap();
        ts.tend(t).unwrap();
        *model = vec![7u8];
    }
    fids
}

/// Applies one committed transaction to the service; the caller mirrors
/// it into the model with [`apply_to_model`].
fn run_op(ts: &mut TransactionService, fids: &[FileId], op: &Op, models: &[Vec<u8>]) {
    let (f, raw_off, byte, len) = *op;
    let file = f % NFILES;
    // Clamp the offset into the current extent so files grow without holes.
    let off = raw_off % (models[file].len() as u64 + 1);
    let t = ts.tbegin();
    ts.topen(t, fids[file]).unwrap();
    ts.twrite(t, fids[file], off, &vec![byte; len]).unwrap();
    ts.tend(t).unwrap();
}

fn apply_to_model(models: &mut [Vec<u8>], op: &Op) {
    let (f, raw_off, byte, len) = *op;
    let file = f % NFILES;
    let off = (raw_off % (models[file].len() as u64 + 1)) as usize;
    if models[file].len() < off + len {
        models[file].resize(off + len, 0);
    }
    models[file][off..off + len].fill(byte);
}

/// Whether `fid`'s contents are exactly `model` (prefix *and* length).
fn matches_model(ts: &mut TransactionService, fid: FileId, model: &[u8]) -> bool {
    let t = ts.tbegin();
    if ts.topen(t, fid).is_err() {
        return false;
    }
    let got = ts.tread(t, fid, 0, model.len());
    // At exactly EOF a read clamps to empty; anything non-empty (or an
    // offset error) means the file is a different length than the model.
    let over = ts.tread(t, fid, model.len() as u64, 1);
    let _ = ts.tend(t);
    matches!(got, Ok(d) if d == model) && matches!(over, Ok(d) if d.is_empty())
}

/// The property body shared by the fast subset and the full sweep.
fn check_case(ops: &[Op], crash_after: usize, inflight: bool) -> Result<(), TestCaseError> {
    let crash_after = crash_after.min(ops.len());
    let mut models: Vec<Vec<u8>> = vec![Vec::new(); NFILES];
    let mut ts = service();
    let fids = setup(&mut ts, &mut models);

    // Acknowledged prefix of the workload.
    for op in &ops[..crash_after] {
        run_op(&mut ts, &fids, op, &models);
        apply_to_model(&mut models, op);
    }

    // Optionally leave one transaction *inside* the batch: its commit
    // record is appended but the pipeline never acknowledged it —
    // commit()/flush_log never returned.
    let mut with_inflight = models.clone();
    if inflight {
        let marker = with_inflight[0][0] ^ 0xA5; // differs from current byte 0
        with_inflight[0][0] = marker;
        let t = ts.tbegin();
        ts.topen(t, fids[0]).unwrap();
        ts.twrite(t, fids[0], 0, &[marker]).unwrap();
        match ts.prepare_commit(t) {
            Ok(rhodos_txn::Prepared::Pending(_)) => {} // record appended, never flushed/applied
            other => panic!("in-flight prepare should pend: {other:?}"),
        }
    }

    // Crash mid-pipeline: deferred Completed markers and any unforced
    // commit record die with the delayed-write cache.
    ts.file_service_mut().simulate_crash();
    ts.recover()
        .map_err(|e| TestCaseError::fail(format!("recovery failed: {e}")))?;

    // Recovery must be idempotent under repeated crashes: the first
    // pass's own `Completed` markers are appended over any torn tail (at
    // the valid log prefix) and forced, so a second crash straight after
    // leaves nothing to redo.
    ts.file_service_mut().simulate_crash();
    let redone2 = ts
        .recover()
        .map_err(|e| TestCaseError::fail(format!("re-recovery failed: {e}")))?;
    prop_assert!(redone2.is_empty(), "second recovery re-redid {redone2:?}");

    for f in 0..NFILES {
        let ok = matches_model(&mut ts, fids[f], &models[f]);
        if inflight && f == 0 {
            // Atomicity, not equality: the unacknowledged transaction may
            // be redone (record durable) or lost (record torn) — but
            // nothing in between.
            let with = matches_model(&mut ts, fids[f], &with_inflight[f]);
            prop_assert!(
                ok || with,
                "file {f}: recovered state is neither with nor without the in-flight txn"
            );
        } else {
            prop_assert!(
                ok,
                "file {f}: recovered bytes differ from acknowledged-commit model"
            );
        }
    }

    // The recovered service must remain fully operational and converge
    // when the rest of the workload is replayed.
    if !inflight {
        for op in &ops[crash_after..] {
            run_op(&mut ts, &fids, op, &models);
            apply_to_model(&mut models, op);
        }
        for f in 0..NFILES {
            prop_assert!(
                matches_model(&mut ts, fids[f], &models[f]),
                "file {f}: post-recovery replay diverged"
            );
        }
    }
    Ok(())
}

fn op_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0usize..NFILES,
            0u64..40_000,
            any::<u8>(),
            // Mix sub-page records with multi-page writes so the batched
            // elevator apply path (npages > 1) is exercised.
            prop_oneof![1usize..1500, 7_000usize..18_000],
        ),
        1..=10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Fast subset: runs in the default CI test pass.
    #[test]
    fn crash_equivalence_fast(
        ops in op_strategy(),
        crash_after in 0usize..=10,
        inflight: bool,
    ) {
        check_case(&ops, crash_after, inflight)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    /// Full sweep: CI runs this `--ignored` under the pinned
    /// `PROPTEST_BASE_SEED` matrix alongside the replication chaos suite.
    #[test]
    #[ignore = "long sweep; exercised by the CI seed matrix"]
    fn crash_equivalence_full(
        ops in op_strategy(),
        crash_after in 0usize..=10,
        inflight: bool,
    ) {
        check_case(&ops, crash_after, inflight)?;
    }
}

/// A torn crash point *between* prepare and flush must lose the
/// transaction wholesale. Deterministic companion to the proptest,
/// pinning the one asymmetric crash window.
#[test]
fn inflight_prepare_is_all_or_nothing() {
    let mut ts = service();
    let mut models = vec![Vec::new(); NFILES];
    let fids = setup(&mut ts, &mut models);
    let t = ts.tbegin();
    ts.topen(t, fids[0]).unwrap();
    ts.twrite(t, fids[0], 0, b"torn").unwrap();
    match ts.prepare_commit(t).unwrap() {
        rhodos_txn::Prepared::Pending(_) => {}
        other => panic!("expected pending, got {other:?}"),
    }
    ts.file_service_mut().simulate_crash();
    let redone = ts.recover().unwrap();
    // Record never forced: the transaction vanishes wholesale. (The last
    // init txn's *deferred* Completed marker also died, so that one is
    // benignly redone — idempotent.)
    assert!(!redone.contains(&t), "unforced record must not redo");
    assert!(matches_model(&mut ts, fids[0], &[7u8]));
}

/// Regression: a crash inside the deferred-`Completed` window leaves the
/// log's recorded size covering a torn tail (the marker's append grew the
/// FIT durably but its bytes never flushed). Recovery must append its own
/// markers at the *valid prefix* — writing them after the tear would make
/// them unreachable (decode stops at the tear) and every subsequent
/// recovery would redo the same commit again.
#[test]
fn repeated_crashes_converge_after_deferred_marker() {
    let mut ts = service();
    let fid = ts.tcreate(LockLevel::Page).unwrap();
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    ts.twrite(t, fid, 0, b"durable").unwrap();
    ts.tend(t).unwrap();
    ts.file_service_mut().simulate_crash();
    assert_eq!(ts.recover().unwrap(), vec![t], "unmarked commit redone");
    ts.file_service_mut().simulate_crash();
    assert!(
        ts.recover().unwrap().is_empty(),
        "first recovery's marker must be durable and reachable"
    );
    let t2 = ts.tbegin();
    ts.topen(t2, fid).unwrap();
    assert_eq!(ts.tread(t2, fid, 0, 7).unwrap(), b"durable");
    ts.tend(t2).unwrap();
}

/// Nested commits through the group-commit split are tallied exactly once
/// for the child (at merge) and once for the root (at finish), even when
/// the root commits through prepare/complete with a deferred flush.
#[test]
fn nested_commit_accounting_survives_group_commit() {
    let mut ts = service();
    let mut models = vec![Vec::new(); NFILES];
    let fids = setup(&mut ts, &mut models);
    let before = ts.stats();
    let root = ts.tbegin();
    ts.topen(root, fids[0]).unwrap();
    let child = ts.tbegin_nested(root).unwrap();
    ts.twrite(child, fids[0], 0, b"nest").unwrap();
    ts.tend(child).unwrap();
    // Commit the root through the split path the pipeline leader uses.
    match ts.prepare_commit(root).unwrap() {
        rhodos_txn::Prepared::Pending(p) => {
            ts.flush_log().unwrap();
            ts.complete_commit(p).unwrap();
        }
        rhodos_txn::Prepared::Merged => panic!("root is top-level"),
    }
    let after = ts.stats();
    assert_eq!(after.begun - before.begun, 2);
    assert_eq!(after.committed - before.committed, 2);
    assert_eq!(after.aborted, before.aborted);
    // A double finish must fail, not double-count.
    assert!(matches!(ts.tend(root), Err(TxnError::NotActive(_))));
    assert_eq!(ts.stats().committed - before.committed, 2);
}
