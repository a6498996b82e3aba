//! Striped lock-table properties (E20).
//!
//! Three families of properties:
//!
//! 1. **Cross-shard deadlock resolution**: two transactions locking the
//!    same pair of pages in opposite orders deadlock; whether the pages
//!    map to one shard or two, the timeout tick must abort *exactly one*
//!    of them and the survivor must be able to take both locks afterwards.
//!    Exercised over arbitrary page pairs (the interesting cases — pages
//!    hashing to different shards — occur constantly at 8 shards), both
//!    acquisition orders.
//! 2. **Single-shard equivalence**: `StripedLockTable::new(lt, n, 1)`
//!    must behave identically to a plain `LockTable` for any request
//!    trace — same outcomes, same promotions in the same order, same tick
//!    victims, same stats. This is the E20 ablation arm's guarantee.
//! 3. **Release-by-mask equivalence**: an 8-shard table whose
//!    `release_all` visits only the shards a transaction's own
//!    `set_lock`s mapped to behaves identically to one that visits every
//!    shard — what lets a transaction's end skip the shards it never
//!    touched.
//!
//! Cases are deterministic under the shimmed proptest runner; CI pins
//! `PROPTEST_BASE_SEED` over the {1, 7, 42} matrix for the `--ignored`
//! full sweeps.

use proptest::prelude::*;
use rhodos_file_service::FileId;
use rhodos_txn::{DataItem, LockMode, LockOutcome, LockTable, StripedLockTable};

const LT: u64 = 1_000;

fn page(p: u64) -> DataItem {
    DataItem::Page(FileId(1), p)
}

/// Builds the classic two-transaction deadlock over `(pa, pb)` —
/// `order` flips which transaction starts with which page — then checks
/// exactly-one-victim and survivor progress.
fn check_deadlock_case(shards: usize, pa: u64, pb: u64, order: bool) -> Result<(), TestCaseError> {
    prop_assume!(pa != pb);
    let t = StripedLockTable::new(LT, 3, shards);
    let (first, second) = if order { (pa, pb) } else { (pb, pa) };
    // T10 holds `first`, T20 holds `second`; each then wants the other.
    prop_assert_eq!(
        t.set_lock(1, 10, page(first), LockMode::Iwrite, 0),
        LockOutcome::Granted
    );
    prop_assert_eq!(
        t.set_lock(2, 20, page(second), LockMode::Iwrite, 0),
        LockOutcome::Granted
    );
    prop_assert_eq!(
        t.set_lock(1, 10, page(second), LockMode::Iwrite, 0),
        LockOutcome::Queued
    );
    prop_assert_eq!(
        t.set_lock(2, 20, page(first), LockMode::Iwrite, 0),
        LockOutcome::Queued
    );
    let aborted = t.tick(LT);
    prop_assert_eq!(
        aborted.len(),
        1,
        "exactly one victim (shards={}, pa={}, pb={}, cross-shard={}): {:?}",
        shards,
        pa,
        pb,
        t.shard_of(&page(pa)) != t.shard_of(&page(pb)),
        aborted
    );
    let victim = aborted[0];
    let survivor = if victim == 10 { 20 } else { 10 };
    t.release_all(victim, u64::MAX, LT + 1);
    // The survivor's queued request was promoted by the release…
    let granted = t.granted_items(survivor);
    prop_assert!(
        granted.iter().all(|(_, m)| *m == LockMode::Iwrite),
        "survivor holds only Iwrite: {granted:?}"
    );
    prop_assert_eq!(granted.len(), 2, "survivor holds both pages: {:?}", granted);
    // …and re-requesting both is idempotent.
    prop_assert_eq!(
        t.set_lock(1, survivor, page(pa), LockMode::Iwrite, LT + 2),
        LockOutcome::Granted
    );
    prop_assert_eq!(
        t.set_lock(1, survivor, page(pb), LockMode::Iwrite, LT + 2),
        LockOutcome::Granted
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Fast subset: runs in the default CI test pass.
    #[test]
    fn cross_shard_deadlock_one_victim_fast(
        shards in prop_oneof![Just(1usize), Just(4), Just(8), Just(16)],
        pa in 0u64..64,
        pb in 0u64..64,
        order: bool,
    ) {
        check_deadlock_case(shards, pa, pb, order)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    /// Full sweep: CI runs this `--ignored` under the pinned
    /// `PROPTEST_BASE_SEED` matrix.
    #[test]
    #[ignore = "long sweep; exercised by the CI seed matrix"]
    fn cross_shard_deadlock_one_victim_full(
        shards in prop_oneof![Just(1usize), Just(2), Just(4), Just(8), Just(16), Just(32)],
        pa in 0u64..256,
        pb in 0u64..256,
        order: bool,
    ) {
        check_deadlock_case(shards, pa, pb, order)?;
    }
}

/// One request-trace step against both tables.
#[derive(Debug, Clone)]
enum Op {
    /// (txn, page, mode) at the next timestamp.
    SetLock(u64, u64, LockMode),
    /// Release everything a transaction holds.
    ReleaseAll(u64),
    /// Advance the timeout machinery by LT.
    Tick,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let txn = 10u64..16;
    let pg = 0u64..6;
    let mode = prop_oneof![
        Just(LockMode::ReadOnly),
        Just(LockMode::Iread),
        Just(LockMode::Iwrite),
    ];
    prop_oneof![
        6 => (txn.clone(), pg, mode).prop_map(|(t, p, m)| Op::SetLock(t, p, m)),
        2 => txn.prop_map(Op::ReleaseAll),
        1 => Just(Op::Tick),
    ]
}

/// Replays one trace against a plain table and a one-shard striped table,
/// requiring identical observable behaviour at every step.
fn check_equivalence(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut plain = LockTable::new(LT, 3);
    let striped = StripedLockTable::new(LT, 3, 1);
    let mut now = 0u64;
    for (n, op) in ops.iter().enumerate() {
        match *op {
            Op::SetLock(txn, p, mode) => {
                now += 1;
                let a = plain.set_lock(txn, txn, page(p), mode, now);
                let b = striped.set_lock(txn, txn, page(p), mode, now);
                prop_assert_eq!(a, b, "op {}: outcome diverged", n);
            }
            Op::ReleaseAll(txn) => {
                now += 1;
                let a = plain.release_all(txn, now);
                let b = striped.release_all(txn, u64::MAX, now);
                prop_assert_eq!(a, b, "op {}: promotions diverged", n);
            }
            Op::Tick => {
                now += LT;
                let a = plain.tick(now);
                let b = striped.tick(now);
                prop_assert_eq!(a, b, "op {}: tick victims diverged", n);
            }
        }
        prop_assert_eq!(plain.stats(), striped.stats(), "op {}: stats diverged", n);
        prop_assert_eq!(
            plain.len(),
            striped.len(),
            "op {}: record counts diverged",
            n
        );
        for txn in 10u64..16 {
            let mut a = plain.granted_items(txn);
            let mut b = striped.granted_items(txn);
            a.sort_by_key(|(i, m)| (format!("{i}"), *m));
            b.sort_by_key(|(i, m)| (format!("{i}"), *m));
            prop_assert_eq!(a, b, "op {}: granted items diverged for {}", n, txn);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Fast subset: runs in the default CI test pass.
    #[test]
    fn single_shard_matches_plain_table_fast(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        check_equivalence(&ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    /// Full sweep: CI runs this `--ignored` under the pinned
    /// `PROPTEST_BASE_SEED` matrix.
    #[test]
    #[ignore = "long sweep; exercised by the CI seed matrix"]
    fn single_shard_matches_plain_table_full(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        check_equivalence(&ops)?;
    }
}

/// Replays one trace against two 8-shard tables: one releases every
/// shard, the other only the shards the trace's own `set_lock`s gave the
/// transaction (through `shard_of`). Every observable must agree at
/// every step.
fn check_mask_equivalence(ops: &[Op]) -> Result<(), TestCaseError> {
    let full = StripedLockTable::new(LT, 3, 8);
    let masked = StripedLockTable::new(LT, 3, 8);
    let mut masks = [0u64; 16];
    let mut now = 0u64;
    for (n, op) in ops.iter().enumerate() {
        match *op {
            Op::SetLock(txn, p, mode) => {
                now += 1;
                masks[txn as usize] |= 1 << masked.shard_of(&page(p));
                let a = full.set_lock(txn, txn, page(p), mode, now);
                let b = masked.set_lock(txn, txn, page(p), mode, now);
                prop_assert_eq!(a, b, "op {}: outcome diverged", n);
            }
            Op::ReleaseAll(txn) => {
                now += 1;
                let a = full.release_all(txn, u64::MAX, now);
                let b = masked.release_all(txn, masks[txn as usize], now);
                masks[txn as usize] = 0;
                prop_assert_eq!(a, b, "op {}: promotions diverged", n);
            }
            Op::Tick => {
                now += LT;
                let a = full.tick(now);
                let b = masked.tick(now);
                prop_assert_eq!(a, b, "op {}: tick victims diverged", n);
            }
        }
        prop_assert_eq!(full.stats(), masked.stats(), "op {}: stats diverged", n);
        prop_assert_eq!(full.len(), masked.len(), "op {}: record counts diverged", n);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Fast subset: runs in the default CI test pass.
    #[test]
    fn masked_release_matches_full_sweep_fast(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        check_mask_equivalence(&ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    /// Full sweep: CI runs this `--ignored` under the pinned
    /// `PROPTEST_BASE_SEED` matrix.
    #[test]
    #[ignore = "long sweep; exercised by the CI seed matrix"]
    fn masked_release_matches_full_sweep_full(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        check_mask_equivalence(&ops)?;
    }
}

/// Deterministic companion: FIFO ordering within one item is preserved
/// through the striped API regardless of shard count.
#[test]
fn fifo_preserved_per_item_across_shard_counts() {
    for shards in [1usize, 4, 8] {
        let t = StripedLockTable::new(LT, 3, shards);
        t.set_lock(1, 10, page(0), LockMode::Iwrite, 0);
        t.set_lock(2, 20, page(0), LockMode::Iwrite, 0);
        t.set_lock(3, 30, page(0), LockMode::Iwrite, 0);
        assert_eq!(t.release_all(10, u64::MAX, 1), vec![20], "shards={shards}");
        assert_eq!(t.release_all(20, u64::MAX, 2), vec![30], "shards={shards}");
    }
}
