//! `TransactionService::commit_batch` is the four sequences it replaced.
//!
//! Prepare → force → complete/vote → housekeeping used to be written out
//! in `tend`, in the group-commit leader, in `prepare_cross_shard` and in
//! the 2PC participant. The public steps are still there, so the
//! property is direct: any batch gives, through `commit_batch` and
//! through the steps driven by hand on a twin service, the same
//! per-request results, statistics, log bytes and disk images. The
//! deterministic tests pin the rules the copies disagreed on. CI pins
//! `PROPTEST_BASE_SEED` over a small matrix.

use proptest::prelude::*;
use rhodos_file_service::{FileId, FileService, FileServiceConfig, LockLevel};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
use rhodos_txn::{
    CommitReq, Prepared, SharedTransactionService, TransactionService, TxnConfig, TxnError, TxnId,
};

const NFILES: usize = 4;
const PAGE: u64 = 8 * 1024;

type Writes<'a> = Vec<(FileId, u64, &'a [u8])>;

fn service() -> TransactionService {
    let fs = FileService::single_disk(
        DiskGeometry::small(),
        LatencyModel::instant(),
        SimClock::new(),
        FileServiceConfig::default(),
    )
    .unwrap();
    TransactionService::new(fs, TxnConfig::default()).unwrap()
}

/// Three page-level files and a record-level one, three committed pages
/// in each.
fn setup(ts: &mut TransactionService) -> Vec<FileId> {
    let levels = [
        LockLevel::Page,
        LockLevel::Page,
        LockLevel::Page,
        LockLevel::Record,
    ];
    (levels.iter().zip(1u8..))
        .map(|(level, fill)| {
            let fid = ts.tcreate(*level).unwrap();
            let t = ts.tbegin();
            ts.topen(t, fid).unwrap();
            ts.twrite(t, fid, 0, &vec![fill; 3 * PAGE as usize])
                .unwrap();
            ts.tend(t).unwrap();
            fid
        })
        .collect()
}

/// One generated request: `(kind, file, page, offset in page, len, fill)`.
type Item = (u8, usize, u64, u64, usize, u8);

/// The write set of a participant item, writing `bytes` (the item's
/// `len` bytes of `fill`) twice. Its writes run inside the batch and
/// conflict with whatever the requests before it still hold; every
/// other one also names a file this server does not have.
fn vote_of<'a>(fids: &[FileId], item: &Item, bytes: &'a [u8]) -> Option<Writes<'a>> {
    let (kind, file, page, in_page, _, _) = *item;
    let second = if kind % 2 == 0 {
        fids[0]
    } else {
        FileId(9_999)
    };
    (kind % 10 >= 8).then(|| {
        vec![
            (fids[file], page * PAGE + in_page, bytes),
            (second, in_page, bytes),
        ]
    })
}

/// Performs everything that happens *before* the commit call for a local
/// `item` and returns the transactions to commit. Deterministic in the
/// service state, so twins stage identically. A write that conflicts
/// with a transaction staged earlier aborts its own — the request is then
/// a commit of an inactive transaction, one more case to agree on.
fn stage(ts: &mut TransactionService, fids: &[FileId], item: &Item) -> Vec<TxnId> {
    let (kind, file, page, in_page, len, fill) = *item;
    let (fid, off) = (fids[file], page * PAGE + in_page);
    let write = |ts: &mut TransactionService, t: TxnId| {
        let done = ts.topen(t, fid);
        if done
            .and_then(|()| ts.twrite(t, fid, off, &vec![fill; len]))
            .is_err()
        {
            let _ = ts.tabort(t);
        }
    };
    let root = ts.tbegin();
    match kind % 10 {
        // A read-only commit: nothing to log, nothing to wait for.
        3 => {
            let _ = ts
                .topen(root, fid)
                .and_then(|()| ts.tread(root, fid, off, len));
            vec![root]
        }
        // A nested commit — alone (the root outlives the batch) or
        // followed by its root.
        4 | 5 => {
            let child = ts.tbegin_nested(root).unwrap();
            write(ts, child);
            if kind % 10 == 4 {
                vec![child]
            } else {
                vec![child, root]
            }
        }
        // An inactive transaction.
        6 => {
            ts.tabort(root).unwrap();
            vec![root]
        }
        // A root whose child is still active.
        7 => {
            ts.tbegin_nested(root).unwrap();
            write(ts, root);
            vec![root]
        }
        // A plain write.
        _ => {
            write(ts, root);
            vec![root]
        }
    }
}

/// The commit sequence written out with the public steps — what `tend`,
/// the group-commit leader and the 2PC participant each spelled out
/// before `commit_batch`.
fn by_hand(ts: &mut TransactionService, reqs: &[CommitReq<'_>]) -> Vec<Result<(), TxnError>> {
    enum Step {
        Done(Result<(), TxnError>),
        Commit(rhodos_txn::PreparedCommit),
    }
    let mut steps = Vec::new();
    for req in reqs {
        steps.push(match *req {
            CommitReq::Local(t) => match ts.prepare_commit(t) {
                Ok(Prepared::Merged) => Step::Done(Ok(())),
                Ok(Prepared::Pending(p)) => Step::Commit(p),
                Err(e) => Step::Done(Err(e)),
            },
            CommitReq::Participant { gtid, writes } => {
                let t = ts.tbegin();
                let mut opened: Vec<FileId> = Vec::new();
                let mut vote = Ok(());
                for (fid, offset, data) in writes {
                    if vote.is_ok() && !opened.contains(fid) {
                        opened.push(*fid);
                        vote = ts.topen(t, *fid);
                    }
                    if vote.is_ok() {
                        vote = ts.twrite(t, *fid, *offset, data);
                    }
                }
                if vote.is_ok() {
                    vote = ts.prepare_participant(t, gtid);
                }
                if vote.is_err() {
                    let _ = ts.tabort(t);
                }
                Step::Done(vote)
            }
        });
    }
    // Force and housekeeping only when something waits for the force: a
    // commit with effects or a yes vote (nothing was in doubt before).
    let voted = !ts.prepared_gtids().is_empty();
    let awaited = voted || (steps.iter()).any(|s| matches!(s, Step::Commit(p) if p.has_effects()));
    if awaited {
        ts.flush_log().expect("the twins' disks do not fail");
    }
    let results = steps
        .into_iter()
        .map(|s| match s {
            Step::Done(r) => r,
            Step::Commit(p) => ts.complete_commit(p),
        })
        .collect();
    if awaited {
        ts.maybe_compact_log()
            .expect("the twins' disks do not fail");
    }
    results
}

fn log_bytes(ts: &mut TransactionService) -> Vec<u8> {
    let fs = ts.file_service_mut();
    let log = fs.system_file().expect("the service registered its log");
    let size = fs.get_attribute(log).unwrap().size;
    fs.read(log, 0, size as usize).unwrap()
}

/// Main disk and both stable mirrors.
fn fingerprints(ts: &mut TransactionService) -> Vec<u64> {
    let disk = ts.file_service_mut().disk_mut(0);
    let mut prints = vec![disk.disk_mut().image_fingerprint()];
    let stable = disk.stable_mut().expect("single_disk has stable storage");
    prints.push(stable.mirror_a_mut().image_fingerprint());
    prints.push(stable.mirror_b_mut().image_fingerprint());
    prints
}

fn assert_twins(
    a: &mut TransactionService,
    b: &mut TransactionService,
    when: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.stats(), b.stats(), "{}: statistics", when);
    prop_assert_eq!(a.prepared_gtids(), b.prepared_gtids(), "{}: votes", when);
    prop_assert_eq!(a.active_transactions(), b.active_transactions(), "{}", when);
    prop_assert!(log_bytes(a) == log_bytes(b), "{}: log bytes", when);
    prop_assert_eq!(fingerprints(a), fingerprints(b), "{}: disk images", when);
    Ok(())
}

fn check_case(items: &[Item]) -> Result<(), TestCaseError> {
    let mut batch = service();
    let mut hand = service();
    let fids = setup(&mut batch);
    prop_assert_eq!(&setup(&mut hand), &fids);
    let bytes: Vec<Vec<u8>> = items
        .iter()
        .map(|&(.., len, fill)| vec![fill; len])
        .collect();
    let votes: Vec<Option<Writes>> = (items.iter().zip(&bytes))
        .map(|(item, bytes)| vote_of(&fids, item, bytes))
        .collect();
    let mut reqs = Vec::new();
    for (i, item) in items.iter().enumerate() {
        match &votes[i] {
            Some(writes) => reqs.push(CommitReq::Participant {
                gtid: 100 + i as u64,
                writes,
            }),
            None => {
                let locals = stage(&mut batch, &fids, item);
                prop_assert_eq!(&stage(&mut hand, &fids, item), &locals);
                reqs.extend(locals.into_iter().map(CommitReq::Local));
            }
        }
    }
    let want = by_hand(&mut hand, &reqs);
    prop_assert_eq!(&batch.commit_batch(&reqs), &want, "results of {:?}", reqs);
    assert_twins(&mut batch, &mut hand, "after the batch")?;
    // Decide the votes (alternately), settle the markers, and compare
    // what reached the platters once more.
    for (k, gtid) in batch.prepared_gtids().into_iter().enumerate() {
        let decided = batch.resolve_prepared(gtid, k % 2 == 0);
        prop_assert_eq!(decided, hand.resolve_prepared(gtid, k % 2 == 0));
    }
    batch.flush_log().unwrap();
    hand.flush_log().unwrap();
    assert_twins(&mut batch, &mut hand, "after the decisions")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn commit_batch_is_the_steps_driven_by_hand(
        items in proptest::collection::vec(
            (
                any::<u8>(),
                0usize..NFILES,
                0u64..3,
                0u64..6_000,
                prop_oneof![1usize..600, 7_000usize..18_000],
                any::<u8>(),
            ),
            1..=8,
        ),
    ) {
        check_case(&items)?;
    }
}

// ---- a force that fails ------------------------------------------------

/// A fresh, set-up service whose main disk dies on the first sector write
/// after those `work` makes — `work` is run on a twin to count them, so
/// running it again here puts the crash *on* whatever comes next.
fn dies_after(
    work: impl Fn(&mut TransactionService, &[FileId]),
) -> (TransactionService, Vec<FileId>) {
    let sector_writes =
        |ts: &TransactionService| ts.file_service().stats().disks[0].disk.sector_writes;
    let mut twin = service();
    let fids = setup(&mut twin);
    let before = sector_writes(&twin);
    work(&mut twin, &fids);
    let admitted = sector_writes(&twin) - before;
    let mut ts = service();
    setup(&mut ts);
    let disk = ts.file_service_mut().disk_mut(0).disk_mut();
    disk.faults_mut().crash_after_sector_writes(admitted);
    (ts, fids)
}

/// A failed force leaves a local commit active and `Err` — through
/// `tend` and through the group-commit pipeline — so the caller may
/// retry or abort.
#[test]
fn a_failed_force_leaves_local_commits_active() {
    for through_pipeline in [false, true] {
        // Up to the force: the write and the unforced `Commit` record.
        let (ts, fids) = dies_after(|twin, fids| {
            let t = twin.tbegin();
            twin.topen(t, fids[0]).unwrap();
            twin.twrite(t, fids[0], 0, b"never durable").unwrap();
            assert!(matches!(twin.prepare_commit(t), Ok(Prepared::Pending(_))));
        });
        let shared = SharedTransactionService::new(ts);
        let t = shared.lock().tbegin();
        shared.lock().topen(t, fids[0]).unwrap();
        shared
            .lock()
            .twrite(t, fids[0], 0, b"never durable")
            .unwrap();
        let res = if through_pipeline {
            shared.commit(t)
        } else {
            shared.lock().tend(t)
        };
        assert!(matches!(res, Err(TxnError::File(_))), "{res:?}");
        let mut ts = shared.lock();
        assert!(ts.is_active(t), "a commit whose force failed stays active");
        assert_eq!(ts.stats().committed, NFILES as u64);
        ts.file_service_mut().disk_mut(0).disk_mut().repair();
        ts.tabort(t).unwrap();
    }
}

/// A vote whose force failed is rolled back here and reported `Err`: the
/// in-doubt entry is gone, the transaction is gone, its tentative blocks
/// are free again. (Only the 2PC participant did this before; the
/// group-commit leader left such a vote in doubt.)
#[test]
fn a_failed_force_rolls_votes_back() {
    let writes = |fids: &[FileId]| -> Writes {
        vec![
            (fids[0], 0, &[0xAA; 100]),
            (fids[1], PAGE, &[0xBB; 2 * PAGE as usize]),
        ]
    };
    let (mut ts, fids) = dies_after(|twin, fids| {
        let t = twin.tbegin();
        for (fid, off, data) in writes(fids) {
            twin.topen(t, fid).unwrap();
            twin.twrite(t, fid, off, data).unwrap();
        }
        twin.prepare_participant(t, 7).unwrap();
    });
    let free = ts.file_service_mut().disk_mut(0).free_fragments();
    // An empty local commit logs nothing: only the force can fail it.
    let local = ts.tbegin();
    let results = ts.commit_batch(&[
        CommitReq::Participant {
            gtid: 7,
            writes: &writes(&fids),
        },
        CommitReq::Local(local),
    ]);
    assert!(matches!(results[0], Err(TxnError::File(_))), "{results:?}");
    assert!(matches!(results[1], Err(TxnError::File(_))), "{results:?}");
    assert!(ts.prepared_gtids().is_empty(), "no vote stays in doubt");
    assert_eq!(ts.active_transactions(), vec![local]);
    let disk = ts.file_service_mut().disk_mut(0);
    assert_eq!(disk.free_fragments(), free, "tentative blocks freed");
    // Nothing of it survives a crash either.
    disk.disk_mut().repair();
    ts.file_service_mut().simulate_crash();
    ts.recover().unwrap();
    assert!(ts.prepared_gtids().is_empty());
}

// ---- one force for a mixed batch ---------------------------------------

/// One batch mixing local commits and participant prepares makes all of
/// them durable with a single log force. (Replaces
/// `cross_shard_prepares_ride_the_pipeline`, whose only subject —
/// `SharedTransactionService::prepare_cross_shard`, a route nothing but
/// that test called — is deleted; the sharing it checked is this.)
#[test]
fn one_force_covers_a_mixed_batch() {
    let mut ts = service();
    let fids = setup(&mut ts);
    let mut local = |fid| {
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.twrite(t, fid, 0, b"local").unwrap();
        CommitReq::Local(t)
    };
    let votes: [Writes; 2] = [
        vec![(fids[2], 0, b"vote one")],
        vec![(fids[2], PAGE, b"vote two")],
    ];
    let vote = |k: usize| CommitReq::Participant {
        gtid: 41 + k as u64,
        writes: &votes[k],
    };
    let reqs = [local(fids[0]), vote(0), local(fids[1]), vote(1)];
    let before = ts.stats();
    let results = ts.commit_batch(&reqs);
    assert!(results.iter().all(Result::is_ok), "{results:?}");
    let after = ts.stats();
    assert_eq!(after.log_flushes, before.log_flushes + 1);
    assert_eq!(after.prepare_flushes, before.prepare_flushes + 1);
    assert_eq!(after.prepare_records_flushed, 2);
    assert_eq!(after.committed, before.committed + 2);
    // Durable means it survives a crash: the local commits are redone or
    // already applied, the votes come back in doubt.
    ts.file_service_mut().simulate_crash();
    ts.recover().unwrap();
    assert_eq!(ts.prepared_gtids(), vec![41, 42]);
    assert!(ts.resolve_prepared(41, true).unwrap());
    assert!(ts.resolve_prepared(42, false).unwrap());
    let t = ts.tbegin();
    for (i, want) in [(0, &b"local"[..]), (1, b"local"), (2, b"vote one")] {
        ts.topen(t, fids[i]).unwrap();
        assert_eq!(ts.tread(t, fids[i], 0, want.len()).unwrap(), want);
    }
    assert_eq!(ts.tread(t, fids[2], PAGE, 8).unwrap(), vec![3u8; 8]);
    ts.tend(t).unwrap();
}
