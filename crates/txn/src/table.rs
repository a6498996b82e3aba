//! The lock table (§6.5) and timeout-based deadlock handling (§6.4).
//!
//! "A lock table is a list of records: process identifier, transaction
//! descriptor, phase of the transaction, type of lock, lock granted or
//! not, retry count, descriptor of data item ..." — one lock table per
//! locking level, which "significantly reduces the number of records
//! managed by each lock table".
//!
//! Waiting requests form a FIFO per data item, "facilitating the first
//! transaction in the queue to set the lock on a data item as soon as the
//! transaction who holds the lock commits or gets aborted".
//!
//! Deadlocks are resolved by timeouts: a granted lock is *invulnerable*
//! for `LT` microseconds; on expiry it is renewed only if "no other
//! transaction is competing for the data item", for at most `N` periods,
//! after which the holding transaction "is suspected ... deadlocked and
//! therefore its lock is broken and the transaction is aborted".

use crate::lock::{may_grant, DataItem, LockMode};
use parking_lot::Mutex;

/// Identifier of a transaction (its *transaction descriptor*).
pub type TxnDescriptor = u64;

/// Result of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock is granted (possibly via conversion of an existing lock).
    Granted,
    /// The request was queued behind incompatible holders.
    Queued,
}

/// One record of the lock table, as the paper enumerates.
#[derive(Debug, Clone)]
pub struct LockRecord {
    /// Process identifier (informational; RHODOS records it).
    pub pid: u64,
    /// Transaction descriptor.
    pub txn: TxnDescriptor,
    /// The locked / requested data item.
    pub item: DataItem,
    /// Requested or held lock mode.
    pub mode: LockMode,
    /// Whether the lock is granted (false ⇒ waiting in the queue).
    pub granted: bool,
    /// Times the waiter retried / was passed over.
    pub retry_count: u32,
    /// Arrival order stamp (FIFO discipline).
    arrival: u64,
    /// Virtual time of grant or last lease renewal.
    lease_start_us: u64,
    /// Lease renewals so far.
    renewals: u32,
}

/// Counters of lock-table behaviour — inputs to experiments E10/E11.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockTableStats {
    /// Requests granted immediately.
    pub granted_immediately: u64,
    /// Requests that had to queue.
    pub queued: u64,
    /// Lock conversions performed.
    pub conversions: u64,
    /// Leases renewed quietly.
    pub renewals: u64,
    /// Transactions aborted by the timeout policy.
    pub timeout_aborts: u64,
    /// Waiters promoted when locks were released.
    pub promotions: u64,
}

impl LockTableStats {
    /// Accumulates `other` into `self`, field by field. Lossless: merging
    /// per-shard stats yields exactly the counters one unstriped table
    /// would have recorded for the same traffic.
    pub fn merge(&mut self, other: &LockTableStats) {
        self.granted_immediately += other.granted_immediately;
        self.queued += other.queued;
        self.conversions += other.conversions;
        self.renewals += other.renewals;
        self.timeout_aborts += other.timeout_aborts;
        self.promotions += other.promotions;
    }
}

/// One lock table (one per granularity level).
#[derive(Debug)]
pub struct LockTable {
    records: Vec<LockRecord>,
    /// Lock lease period LT, microseconds.
    lt_us: u64,
    /// Renewals before a holder is presumed deadlocked.
    max_renewals: u32,
    next_arrival: u64,
    stats: LockTableStats,
}

impl LockTable {
    /// Creates a table with lease period `lt_us` and `max_renewals` (the
    /// paper's `N`).
    pub fn new(lt_us: u64, max_renewals: u32) -> Self {
        Self {
            records: Vec::new(),
            lt_us,
            max_renewals,
            next_arrival: 0,
            stats: LockTableStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> LockTableStats {
        self.stats
    }

    /// Number of records currently in the table (granted + waiting) —
    /// "the time to search a record in the lock table" scales with this.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// `get-lock-record`: the record a transaction holds or waits on for
    /// an exactly matching item.
    pub fn get_lock_record(&self, txn: TxnDescriptor, item: &DataItem) -> Option<&LockRecord> {
        self.records
            .iter()
            .find(|r| r.txn == txn && r.item == *item)
    }

    /// All granted items of one transaction.
    pub fn granted_items(&self, txn: TxnDescriptor) -> Vec<(DataItem, LockMode)> {
        self.records
            .iter()
            .filter(|r| r.txn == txn && r.granted)
            .map(|r| (r.item, r.mode))
            .collect()
    }

    fn others_holding(&self, txn: TxnDescriptor, item: &DataItem) -> Vec<LockMode> {
        self.records
            .iter()
            .filter(|r| r.granted && r.txn != txn && r.item.overlaps(item))
            .map(|r| r.mode)
            .collect()
    }

    /// The strongest mode the transaction holds that fully *covers* the
    /// requested item. Partial range overlaps do not count: they would
    /// leave part of the request unprotected.
    fn own_mode(&self, txn: TxnDescriptor, item: &DataItem) -> Option<LockMode> {
        self.records
            .iter()
            .filter(|r| r.granted && r.txn == txn && r.item.covers(item))
            .map(|r| r.mode)
            .max()
    }

    /// Whether an earlier-arrived waiter conflicts with this request
    /// (prevents queue jumping; keeps the FIFO promise).
    fn earlier_conflicting_waiter(
        &self,
        txn: TxnDescriptor,
        item: &DataItem,
        arrival: u64,
    ) -> bool {
        self.records.iter().any(|r| {
            !r.granted
                && r.txn != txn
                && r.arrival < arrival
                && r.item.overlaps(item)
                && !(matches!(r.mode, LockMode::ReadOnly) && self.own_mode(txn, item).is_none())
        })
    }

    /// `set-lock`: requests `mode` on `item` for `txn` at virtual time
    /// `now_us`. Conversion requests (the transaction already holds a
    /// weaker lock on the item) upgrade in place when permitted.
    pub fn set_lock(
        &mut self,
        pid: u64,
        txn: TxnDescriptor,
        item: DataItem,
        mode: LockMode,
        now_us: u64,
    ) -> LockOutcome {
        // Already waiting for this item? Bump retry count, re-check.
        if let Some(pos) = self
            .records
            .iter()
            .position(|r| !r.granted && r.txn == txn && r.item == item)
        {
            // Upgrade the pending request mode if the caller now wants more.
            if self.records[pos].mode < mode {
                self.records[pos].mode = mode;
            }
            self.records[pos].retry_count += 1;
            let arrival = self.records[pos].arrival;
            let want = self.records[pos].mode;
            if self.try_grant(txn, &item, want, arrival, now_us) {
                // Drop the satisfied waiter record (the grant lives in a
                // separate, granted record).
                self.records
                    .retain(|r| r.granted || !(r.txn == txn && r.item == item));
                return LockOutcome::Granted;
            }
            return LockOutcome::Queued;
        }

        let own = self.own_mode(txn, &item);
        if let Some(own_mode) = own {
            if own_mode >= mode {
                return LockOutcome::Granted; // already covered
            }
        }
        let arrival = self.next_arrival;
        self.next_arrival += 1;
        if self.try_grant(txn, &item, mode, arrival, now_us) {
            self.stats.granted_immediately += 1;
            if own.is_some() {
                self.stats.conversions += 1;
            }
            return LockOutcome::Granted;
        }
        self.records.push(LockRecord {
            pid,
            txn,
            item,
            mode,
            granted: false,
            retry_count: 0,
            arrival,
            lease_start_us: now_us,
            renewals: 0,
        });
        self.stats.queued += 1;
        LockOutcome::Queued
    }

    /// Attempts the actual grant; on success installs/converts the record.
    fn try_grant(
        &mut self,
        txn: TxnDescriptor,
        item: &DataItem,
        mode: LockMode,
        arrival: u64,
        now_us: u64,
    ) -> bool {
        let others = self.others_holding(txn, item);
        let own = self.own_mode(txn, item);
        if !may_grant(&others, own, mode) {
            return false;
        }
        // Conversions (the transaction already holds the item) skip the
        // FIFO fairness check: any waiter queued behind the holder's
        // current lock is waiting *on this transaction* and can never be
        // scheduled first.
        if own.is_none() && self.earlier_conflicting_waiter(txn, item, arrival) {
            return false;
        }
        // Conversion: upgrade the existing granted record on the exact item.
        if let Some(rec) = self
            .records
            .iter_mut()
            .find(|r| r.granted && r.txn == txn && r.item == *item)
        {
            if rec.mode < mode {
                rec.mode = mode;
                rec.lease_start_us = now_us;
                rec.renewals = 0;
            }
            return true;
        }
        self.records.push(LockRecord {
            pid: 0,
            txn,
            item: *item,
            mode,
            granted: true,
            retry_count: 0,
            arrival,
            lease_start_us: now_us,
            renewals: 0,
        });
        true
    }

    /// `unlock`: releases every lock and pending request of `txn`
    /// (two-phase locking releases all locks at commit/abort). Returns the
    /// transactions whose queued requests became grantable.
    pub fn release_all(&mut self, txn: TxnDescriptor, now_us: u64) -> Vec<TxnDescriptor> {
        self.records.retain(|r| r.txn != txn);
        self.promote_waiters(now_us)
    }

    /// Promotes FIFO waiters whose conflicts have cleared; returns the
    /// transactions that acquired locks.
    pub fn promote_waiters(&mut self, now_us: u64) -> Vec<TxnDescriptor> {
        let mut promoted = Vec::new();
        loop {
            let mut waiters: Vec<(u64, usize)> = self
                .records
                .iter()
                .enumerate()
                .filter(|(_, r)| !r.granted)
                .map(|(i, r)| (r.arrival, i))
                .collect();
            waiters.sort();
            let mut advanced = false;
            for (_, idx) in waiters {
                let (txn, item, mode, arrival) = {
                    let r = &self.records[idx];
                    (r.txn, r.item, r.mode, r.arrival)
                };
                if self.try_grant(txn, &item, mode, arrival, now_us) {
                    // Remove the satisfied waiter record (try_grant added or
                    // converted the granted record).
                    self.records
                        .retain(|r| r.granted || !(r.txn == txn && r.item == item));
                    self.stats.promotions += 1;
                    promoted.push(txn);
                    advanced = true;
                    break; // indices shifted; rescan
                }
            }
            if !advanced {
                break;
            }
        }
        promoted
    }

    /// Advances the timeout machinery to `now_us`, returning transactions
    /// that must be aborted (presumed deadlocked / permanently blocked).
    pub fn tick(&mut self, now_us: u64) -> Vec<TxnDescriptor> {
        let mut to_abort = Vec::new();
        self.tick_with(now_us, &mut to_abort);
        to_abort
    }

    /// Like [`Self::tick`], but threads an accumulated victim set through:
    /// transactions already in `to_abort` (chosen by an earlier shard of a
    /// striped table) are skipped, and their waiters no longer count as
    /// competition. This preserves the exactly-one-victim property of
    /// timeout deadlock resolution when one deadlock cycle spans shards —
    /// without it, both sides of a two-shard deadlock would abort.
    pub fn tick_with(&mut self, now_us: u64, to_abort: &mut Vec<TxnDescriptor>) {
        for i in 0..self.records.len() {
            let (granted, lease_start, renewals, txn, item) = {
                let r = &self.records[i];
                (r.granted, r.lease_start_us, r.renewals, r.txn, r.item)
            };
            if !granted || to_abort.contains(&txn) {
                continue;
            }
            if now_us.saturating_sub(lease_start) < self.lt_us {
                continue;
            }
            // Waiters belonging to transactions already chosen as victims
            // this tick no longer count as competition — aborting one side
            // of a deadlock frees the other.
            let contested = self.records.iter().any(|w| {
                !w.granted && w.txn != txn && !to_abort.contains(&w.txn) && w.item.overlaps(&item)
            });
            if contested || renewals >= self.max_renewals {
                // "Its lock is broken and the transaction is aborted
                // regardless of whether other transactions are waiting."
                self.stats.timeout_aborts += 1;
                to_abort.push(txn);
            } else {
                let r = &mut self.records[i];
                r.renewals += 1;
                r.lease_start_us = now_us;
                self.stats.renewals += 1;
            }
        }
    }
}

/// A lock table striped into independent shards, each behind its own
/// mutex, so concurrent requests for unrelated items never contend on a
/// shared lock word (E20).
///
/// # Shard-key scheme
///
/// Conflicting items must land in the same shard, or conflicts would go
/// undetected. [`DataItem::Page`] items conflict only on an exact
/// `(file, page)` match, so they hash both; [`DataItem::Record`] ranges
/// of one file can overlap each other and [`DataItem::File`] items
/// conflict with everything in their file, so both hash the file id only.
/// This is sound under the paper's one-granularity-per-table discipline
/// (§6.1) — which the transaction service maintains by construction — but
/// NOT for a table mixing `Page` and `Record` items of one file with
/// `shards > 1`: their conservative cross-granularity overlap could span
/// shards. Such mixes must use `shards = 1`.
///
/// # Ordered acquisition invariant
///
/// No operation ever holds two shard mutexes at once: single-item calls
/// lock exactly one shard, and multi-shard calls (`release_all` over its
/// mask, and the whole-table sweeps `tick`, `stats`, …) visit shards in
/// ascending index order taking one guard at a time. Lock-ordering
/// deadlocks across shards are therefore impossible by construction, not
/// by convention.
///
/// # Release by shard mask
///
/// A transaction's end visits only the shards that hold a record in its
/// name: the caller keeps a `u64` mask with bit [`Self::shard_of`] set
/// for every item it requested, and [`Self::release_all`] skips the
/// rest. That loses nothing, because every grant condition reads only
/// its own shard's records and `promote_waiters` runs to a fixpoint, so
/// a shard the transaction never touched has no waiter its end could
/// promote. A table has at most 64 shards, so a mask names every one.
///
/// Two behavioural relaxations versus one big table, both invisible at
/// `shards = 1` (the E20 ablation arm): FIFO arrival order is per shard,
/// not global, and `tick` resolves cross-shard deadlock cycles by
/// threading its victim set shard to shard (see [`LockTable::tick_with`]).
#[derive(Debug)]
pub struct StripedLockTable {
    shards: Vec<Mutex<LockTable>>,
}

impl StripedLockTable {
    /// Creates a table striped over `shards` shards (clamped to ≥ 1),
    /// each with lease period `lt_us` and `max_renewals`.
    ///
    /// # Panics
    ///
    /// If `shards` exceeds 64: a [`Self::release_all`] mask could not
    /// name the shards beyond.
    pub fn new(lt_us: u64, max_renewals: u32, shards: usize) -> Self {
        assert!(shards <= 64, "a shard mask names at most 64 shards");
        let shards = shards.max(1);
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(LockTable::new(lt_us, max_renewals)))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard an item maps to. Stable for the lifetime of the table;
    /// exposed so the load generator can model which lock word a request
    /// touches.
    #[inline]
    pub fn shard_of(&self, item: &DataItem) -> usize {
        let (fid, sub) = match item {
            // Pages conflict only on exact (file, page) equality: spread
            // them by both so one hot file stripes across shards.
            DataItem::Page(f, p) => (f.0, *p),
            // Records of one file can overlap each other; File items
            // conflict with the whole file. Both must co-locate per file.
            DataItem::Record(f, _, _) | DataItem::File(f) => (f.0, u64::MAX),
        };
        // splitmix64 finalizer: cheap, spreads low-entropy sequential ids.
        let mut x = fid ^ sub.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        // Multiply-shift range reduction: uniform over the shard count
        // without a hardware divide on the lock fast path.
        ((x as u128 * self.shards.len() as u128) >> 64) as usize
    }

    /// `set-lock` on the item's shard (see [`LockTable::set_lock`]).
    pub fn set_lock(
        &self,
        pid: u64,
        txn: TxnDescriptor,
        item: DataItem,
        mode: LockMode,
        now_us: u64,
    ) -> LockOutcome {
        self.shards[self.shard_of(&item)]
            .lock()
            .set_lock(pid, txn, item, mode, now_us)
    }

    /// Releases every lock and pending request of `txn` in the shards
    /// whose bit is set in `shard_mask` (ascending order, one guard at a
    /// time); returns the transactions whose queued requests became
    /// grantable. The mask must cover every shard `txn` has a record in
    /// — `u64::MAX` visits them all.
    pub fn release_all(
        &self,
        txn: TxnDescriptor,
        shard_mask: u64,
        now_us: u64,
    ) -> Vec<TxnDescriptor> {
        let mut promoted = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            if shard_mask >> i & 1 == 1 {
                promoted.extend(shard.lock().release_all(txn, now_us));
            }
        }
        promoted
    }

    /// All granted items of one transaction, across all shards.
    pub fn granted_items(&self, txn: TxnDescriptor) -> Vec<(DataItem, LockMode)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().granted_items(txn));
        }
        out
    }

    /// Advances the timeout machinery shard by shard (ascending order),
    /// threading the victim set through so a deadlock cycle spanning
    /// shards still aborts exactly one side.
    pub fn tick(&self, now_us: u64) -> Vec<TxnDescriptor> {
        let mut to_abort = Vec::new();
        for shard in &self.shards {
            shard.lock().tick_with(now_us, &mut to_abort);
        }
        to_abort
    }

    /// Merged statistics across all shards.
    pub fn stats(&self) -> LockTableStats {
        let mut total = LockTableStats::default();
        for shard in &self.shards {
            total.merge(&shard.lock().stats());
        }
        total
    }

    /// Total records (granted + waiting) across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhodos_file_service::FileId;

    const LT: u64 = 1_000;

    fn table() -> LockTable {
        LockTable::new(LT, 3)
    }

    fn page(p: u64) -> DataItem {
        DataItem::Page(FileId(1), p)
    }

    #[test]
    fn grant_and_conflict() {
        let mut t = table();
        assert_eq!(
            t.set_lock(1, 10, page(0), LockMode::Iwrite, 0),
            LockOutcome::Granted
        );
        assert_eq!(
            t.set_lock(2, 20, page(0), LockMode::ReadOnly, 0),
            LockOutcome::Queued
        );
        assert_eq!(
            t.set_lock(3, 30, page(1), LockMode::Iwrite, 0),
            LockOutcome::Granted
        );
    }

    #[test]
    fn fifo_promotion_on_release() {
        let mut t = table();
        t.set_lock(1, 10, page(0), LockMode::Iwrite, 0);
        t.set_lock(2, 20, page(0), LockMode::Iwrite, 0);
        t.set_lock(3, 30, page(0), LockMode::Iwrite, 0);
        let promoted = t.release_all(10, 1);
        assert_eq!(promoted, vec![20], "first waiter gets the lock");
        let promoted = t.release_all(20, 2);
        assert_eq!(promoted, vec![30]);
    }

    #[test]
    fn shared_readers_promoted_together() {
        let mut t = table();
        t.set_lock(1, 10, page(0), LockMode::Iwrite, 0);
        t.set_lock(2, 20, page(0), LockMode::ReadOnly, 0);
        t.set_lock(3, 30, page(0), LockMode::ReadOnly, 0);
        let mut promoted = t.release_all(10, 1);
        promoted.sort();
        assert_eq!(
            promoted,
            vec![20, 30],
            "compatible readers advance together"
        );
    }

    #[test]
    fn conversion_upgrades_in_place() {
        let mut t = table();
        assert_eq!(
            t.set_lock(1, 10, page(0), LockMode::Iread, 0),
            LockOutcome::Granted
        );
        assert_eq!(
            t.set_lock(1, 10, page(0), LockMode::Iwrite, 0),
            LockOutcome::Granted
        );
        assert_eq!(
            t.get_lock_record(10, &page(0)).unwrap().mode,
            LockMode::Iwrite
        );
    }

    #[test]
    fn conversion_blocked_by_other_readers() {
        let mut t = table();
        t.set_lock(1, 10, page(0), LockMode::ReadOnly, 0);
        t.set_lock(2, 20, page(0), LockMode::Iread, 0);
        // IR holder cannot convert while the RO is held.
        assert_eq!(
            t.set_lock(2, 20, page(0), LockMode::Iwrite, 0),
            LockOutcome::Queued
        );
        let promoted = t.release_all(10, 1);
        assert_eq!(promoted, vec![20]);
        assert_eq!(
            t.get_lock_record(20, &page(0)).unwrap().mode,
            LockMode::Iwrite
        );
    }

    #[test]
    fn no_new_ro_after_ir() {
        let mut t = table();
        t.set_lock(1, 10, page(0), LockMode::ReadOnly, 0);
        t.set_lock(2, 20, page(0), LockMode::Iread, 0);
        assert_eq!(
            t.set_lock(3, 30, page(0), LockMode::ReadOnly, 0),
            LockOutcome::Queued
        );
    }

    #[test]
    fn uncontested_lease_renews_then_expires() {
        let mut t = table();
        t.set_lock(1, 10, page(0), LockMode::Iwrite, 0);
        assert!(t.tick(LT).is_empty()); // renewal 1
        assert!(t.tick(2 * LT).is_empty()); // renewal 2
        assert!(t.tick(3 * LT).is_empty()); // renewal 3 (max)
                                            // After the Nth expiry the holder is presumed deadlocked.
        assert_eq!(t.tick(4 * LT), vec![10]);
    }

    #[test]
    fn contested_lease_broken_at_first_expiry() {
        let mut t = table();
        t.set_lock(1, 10, page(0), LockMode::Iwrite, 0);
        t.set_lock(2, 20, page(0), LockMode::Iwrite, 10);
        assert!(t.tick(LT / 2).is_empty(), "invulnerable inside LT");
        assert_eq!(t.tick(LT), vec![10], "contested lock broken at expiry");
    }

    #[test]
    fn deadlock_resolved_by_timeout() {
        let mut t = table();
        // T10 holds page 0, T20 holds page 1; each wants the other.
        t.set_lock(1, 10, page(0), LockMode::Iwrite, 0);
        t.set_lock(2, 20, page(1), LockMode::Iwrite, 0);
        assert_eq!(
            t.set_lock(1, 10, page(1), LockMode::Iwrite, 0),
            LockOutcome::Queued
        );
        assert_eq!(
            t.set_lock(2, 20, page(0), LockMode::Iwrite, 0),
            LockOutcome::Queued
        );
        let aborted = t.tick(LT);
        assert!(!aborted.is_empty(), "timeout must break the deadlock");
        // Releasing the aborted transaction's locks unblocks the other.
        let survivor = if aborted.contains(&10) { 20 } else { 10 };
        for dead in &aborted {
            t.release_all(*dead, LT + 1);
        }
        assert!(t
            .granted_items(survivor)
            .iter()
            .any(|(i, m)| (*i == page(0) || *i == page(1)) && *m == LockMode::Iwrite));
    }

    #[test]
    fn queue_jumping_prevented() {
        let mut t = table();
        t.set_lock(1, 10, page(0), LockMode::Iread, 0);
        // Writer waits.
        assert_eq!(
            t.set_lock(2, 20, page(0), LockMode::Iwrite, 0),
            LockOutcome::Queued
        );
        // A later IR that would be compatible with the holder must not
        // jump ahead of the queued writer.
        assert_eq!(
            t.set_lock(3, 30, page(0), LockMode::Iread, 0),
            LockOutcome::Queued
        );
        let promoted = t.release_all(10, 1);
        assert_eq!(promoted[0], 20, "writer first");
    }

    #[test]
    fn record_ranges_conflict_only_on_overlap() {
        let mut t = table();
        let a = DataItem::Record(FileId(1), 0, 100);
        let b = DataItem::Record(FileId(1), 100, 200);
        let c = DataItem::Record(FileId(1), 50, 150);
        assert_eq!(
            t.set_lock(1, 10, a, LockMode::Iwrite, 0),
            LockOutcome::Granted
        );
        assert_eq!(
            t.set_lock(2, 20, b, LockMode::Iwrite, 0),
            LockOutcome::Granted
        );
        assert_eq!(
            t.set_lock(3, 30, c, LockMode::Iwrite, 0),
            LockOutcome::Queued
        );
    }

    #[test]
    fn partial_range_overlap_does_not_short_circuit() {
        // Regression: holding [0,48) must not make a request for [16,64)
        // "already granted" — the tail [48,64) would be unprotected.
        let mut t = table();
        let a = DataItem::Record(FileId(1), 0, 48);
        let b = DataItem::Record(FileId(1), 16, 64);
        assert_eq!(
            t.set_lock(1, 10, a, LockMode::Iwrite, 0),
            LockOutcome::Granted
        );
        assert_eq!(
            t.set_lock(1, 10, b, LockMode::Iwrite, 0),
            LockOutcome::Granted
        );
        // Another transaction must now conflict on [48, 96).
        let c = DataItem::Record(FileId(1), 48, 96);
        assert_eq!(
            t.set_lock(2, 20, c, LockMode::Iwrite, 0),
            LockOutcome::Queued
        );
    }

    #[test]
    fn release_clears_pending_requests_too() {
        let mut t = table();
        t.set_lock(1, 10, page(0), LockMode::Iwrite, 0);
        t.set_lock(2, 20, page(0), LockMode::Iwrite, 0);
        t.release_all(20, 1); // waiter gives up (abort)
        assert!(t.release_all(10, 2).is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn striped_conflicting_items_share_a_shard() {
        let t = StripedLockTable::new(LT, 3, 8);
        // Records of one file — possibly overlapping — all co-locate.
        let a = DataItem::Record(FileId(7), 0, 100);
        let b = DataItem::Record(FileId(7), 50, 150);
        assert_eq!(t.shard_of(&a), t.shard_of(&b));
        // File items co-locate with the file's records.
        assert_eq!(t.shard_of(&DataItem::File(FileId(7))), t.shard_of(&a));
        // Same page maps stably; conflicts are still detected through the
        // striped API.
        assert_eq!(
            t.set_lock(1, 10, page(3), LockMode::Iwrite, 0),
            LockOutcome::Granted
        );
        assert_eq!(
            t.set_lock(2, 20, page(3), LockMode::ReadOnly, 0),
            LockOutcome::Queued
        );
    }

    #[test]
    fn striped_release_promotes_across_shards() {
        let t = StripedLockTable::new(LT, 3, 8);
        // Hold writes on many pages (spread over shards); queue a waiter
        // behind each; releasing the holder promotes them all.
        for p in 0..16 {
            assert_eq!(
                t.set_lock(1, 10, page(p), LockMode::Iwrite, 0),
                LockOutcome::Granted
            );
            assert_eq!(
                t.set_lock(2, 20 + p, page(p), LockMode::Iwrite, 0),
                LockOutcome::Queued
            );
        }
        let mut promoted = t.release_all(10, u64::MAX, 1);
        promoted.sort();
        assert_eq!(promoted, (20..36).collect::<Vec<_>>());
        assert_eq!(t.stats().promotions, 16);
        assert_eq!(t.stats().queued, 16);
    }

    #[test]
    fn striped_tick_aborts_one_side_of_cross_shard_deadlock() {
        let t = StripedLockTable::new(LT, 3, 8);
        // Find two pages of one file on *different* shards.
        let (pa, pb) = (0..64)
            .flat_map(|a| (0..64).map(move |b| (a, b)))
            .find(|(a, b)| a != b && t.shard_of(&page(*a)) != t.shard_of(&page(*b)))
            .expect("some page pair must split across 8 shards");
        t.set_lock(1, 10, page(pa), LockMode::Iwrite, 0);
        t.set_lock(2, 20, page(pb), LockMode::Iwrite, 0);
        assert_eq!(
            t.set_lock(1, 10, page(pb), LockMode::Iwrite, 0),
            LockOutcome::Queued
        );
        assert_eq!(
            t.set_lock(2, 20, page(pa), LockMode::Iwrite, 0),
            LockOutcome::Queued
        );
        let aborted = t.tick(LT);
        assert_eq!(
            aborted.len(),
            1,
            "exactly one victim across shards: {aborted:?}"
        );
        let survivor = if aborted[0] == 10 { 20 } else { 10 };
        t.release_all(aborted[0], u64::MAX, LT + 1);
        assert!(t
            .granted_items(survivor)
            .iter()
            .any(|(i, m)| (*i == page(pa) || *i == page(pb)) && *m == LockMode::Iwrite));
    }

    #[test]
    fn lock_table_stats_merge_is_lossless() {
        let a = LockTableStats {
            granted_immediately: 1,
            queued: 2,
            conversions: 3,
            renewals: 4,
            timeout_aborts: 5,
            promotions: 6,
        };
        let mut m = a;
        m.merge(&a);
        assert_eq!(
            m,
            LockTableStats {
                granted_immediately: 2,
                queued: 4,
                conversions: 6,
                renewals: 8,
                timeout_aborts: 10,
                promotions: 12,
            }
        );
    }
}
