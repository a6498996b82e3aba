//! The intention log: where commit, prepare and completion records live,
//! how they are framed, and when they — and the tentative blocks they
//! point at — count as durable.
//!
//! [`IntentionLog`] is the only code that knows the log is an ordinary
//! file-service file registered as the system file, appended at a tail
//! offset and made durable by `flush_file`; everything above it appends
//! records, forces, scans after a crash and resets at a quiescent moment.
//! Moving the log somewhere else (a preallocated ring extent, ROADMAP
//! 1(a)) is a change to this file alone.

use crate::error::TxnError;
use crate::intentions::{Intention, LogRecord};
use crate::service::{TxnId, TxnStats};
use rhodos_file_service::{FileId, FileService, FileServiceError, ServiceType};

/// The log is compacted at the first quiescent moment after it grows
/// past this many bytes (everything before the tail has completed by
/// then, so the log is pure garbage).
pub(crate) const LOG_COMPACT_THRESHOLD: u64 = 4 * 1024 * 1024;

/// The durable intention log of one transaction service.
#[derive(Debug)]
pub(crate) struct IntentionLog {
    fid: FileId,
    /// Byte offset the next record is appended at.
    tail: u64,
    /// Total log bytes ever appended (monotonic across compactions — a
    /// log sequence number).
    appended_lsn: u64,
    /// `appended_lsn` at the last durable force.
    durable_lsn: u64,
    /// Records appended since the last force.
    unflushed_records: u64,
    /// `Prepared` records among `unflushed_records`.
    unflushed_prepares: u64,
    /// Tentative WAL blocks whose commits have applied but whose
    /// `Completed` markers are not yet durable. They stay allocated until
    /// the next force: were they freed (and reused) earlier, a crash
    /// would let redo follow the log's stale pointers into reused blocks.
    deferred_frees: Vec<(u16, u64)>,
    /// Every append forces itself (the `GroupCommit::Never` ablation).
    force_each_record: bool,
}

impl IntentionLog {
    /// Creates, or re-attaches to, the log of `fs`.
    pub(crate) fn open(fs: &mut FileService, force_each_record: bool) -> Result<Self, TxnError> {
        let fid = match fs.system_file() {
            Some(fid) => fid,
            None => {
                let fid = fs.create(ServiceType::Transaction)?;
                fs.set_system_file(fid)?;
                fid
            }
        };
        fs.open(fid)?;
        let tail = fs.get_attribute(fid)?.size;
        Ok(Self {
            fid,
            tail,
            appended_lsn: tail,
            durable_lsn: tail,
            unflushed_records: 0,
            unflushed_prepares: 0,
            deferred_frees: Vec::new(),
            force_each_record,
        })
    }

    /// Whether the log has outgrown [`LOG_COMPACT_THRESHOLD`].
    pub(crate) fn wants_compaction(&self) -> bool {
        self.tail > LOG_COMPACT_THRESHOLD
    }

    /// Log bytes made durable so far (monotonic across compactions).
    pub(crate) fn durable_lsn(&self) -> u64 {
        self.durable_lsn
    }

    /// Appends one encoded record *without* forcing it (unless every
    /// record forces itself). Durability is [`Self::force`].
    fn append(
        &mut self,
        fs: &mut FileService,
        stats: &mut TxnStats,
        bytes: &[u8],
        is_prepare: bool,
    ) -> Result<(), TxnError> {
        fs.write(self.fid, self.tail, bytes)?;
        self.tail += bytes.len() as u64;
        self.appended_lsn += bytes.len() as u64;
        self.unflushed_records += 1;
        self.unflushed_prepares += u64::from(is_prepare);
        if self.force_each_record {
            self.force(fs, stats)?;
        }
        Ok(())
    }

    /// Appends `txn`'s intentions list, encoded straight from the
    /// borrowed intentions: its `Commit` record or, under a coordinator's
    /// `vote` id, its `Prepared` record.
    pub(crate) fn append_intentions(
        &mut self,
        fs: &mut FileService,
        stats: &mut TxnStats,
        vote: Option<u64>,
        txn: TxnId,
        intentions: &[Intention],
        sizes: &[(FileId, u64)],
    ) -> Result<(), TxnError> {
        let bytes = match vote {
            None => LogRecord::encode_commit(txn, intentions, sizes),
            Some(gtid) => LogRecord::encode_prepared(gtid, txn, intentions, sizes),
        };
        self.append(fs, stats, &bytes, vote.is_some())
    }

    /// Appends the `Completed` (`committed`) or `Aborted` marker that
    /// erases `txn`'s intentions.
    pub(crate) fn append_outcome(
        &mut self,
        fs: &mut FileService,
        stats: &mut TxnStats,
        txn: TxnId,
        committed: bool,
    ) -> Result<(), TxnError> {
        let bytes = if committed {
            LogRecord::encode_completed(txn)
        } else {
            LogRecord::encode_aborted(txn)
        };
        self.append(fs, stats, &bytes, false)
    }

    /// Makes every record appended since the previous force durable with
    /// one `flush_file` — the group-commit durability point — and
    /// releases the tentative blocks whose `Completed` markers that made
    /// durable. No I/O when nothing is pending.
    pub(crate) fn force(
        &mut self,
        fs: &mut FileService,
        stats: &mut TxnStats,
    ) -> Result<(), TxnError> {
        if self.unflushed_records > 0 {
            fs.flush_file(self.fid)?;
            stats.log_flushes += 1;
            stats.records_flushed += self.unflushed_records;
            if self.unflushed_records > 1 {
                stats.group_commits += 1;
            }
            stats.records_per_flush_hwm = stats.records_per_flush_hwm.max(self.unflushed_records);
            if self.unflushed_prepares > 0 {
                stats.prepare_flushes += 1;
                stats.prepare_records_flushed += self.unflushed_prepares;
            }
            self.durable_lsn = self.appended_lsn;
            self.unflushed_records = 0;
            self.unflushed_prepares = 0;
        }
        self.release_deferred(fs)
    }

    /// Keeps the tentative block `(disk, addr)` of an applied commit
    /// allocated until that commit's `Completed` marker is durable.
    pub(crate) fn defer_free(&mut self, disk: u16, addr: u64) {
        self.deferred_frees.push((disk, addr));
    }

    fn release_deferred(&mut self, fs: &mut FileService) -> Result<(), TxnError> {
        for (d, a) in std::mem::take(&mut self.deferred_frees) {
            fs.free_detached_block(d, a)?;
        }
        Ok(())
    }

    /// After `fs.recover()`: re-attaches to the log and returns the
    /// records of its valid prefix, in order. Whatever was appended but
    /// unforced before the crash is gone, and so are the pre-crash
    /// deferred frees (the allocation rebuild reclaims unreferenced
    /// blocks itself).
    pub(crate) fn scan(&mut self, fs: &mut FileService) -> Result<Vec<LogRecord>, TxnError> {
        self.deferred_frees.clear();
        self.fid = fs
            .system_file()
            .ok_or(TxnError::File(FileServiceError::NotFound(FileId(0))))?;
        fs.open(self.fid)?;
        let size = fs.get_attribute(self.fid)?.size;
        let image = if size > 0 {
            fs.read(self.fid, 0, size as usize)?
        } else {
            Vec::new()
        };
        self.unflushed_records = 0;
        self.unflushed_prepares = 0;
        self.durable_lsn = self.appended_lsn;
        let (records, valid_len) = LogRecord::decode_log_prefix(&image);
        // Resume appending at the end of the *valid* prefix, not the
        // recorded file size: a crash inside the deferred-`Completed`
        // window can leave the size covering a torn tail (the append grew
        // the FIT durably but its bytes never flushed), and a record
        // appended after that garbage would be unreachable — every future
        // decode stops at the tear, so the redo would repeat on each
        // recovery instead of being marked done.
        self.tail = valid_len as u64;
        Ok(records)
    }

    /// Discards the whole log — the caller guarantees everything in it
    /// has completed — by deleting the file and recreating it empty.
    pub(crate) fn reset(
        &mut self,
        fs: &mut FileService,
        stats: &mut TxnStats,
    ) -> Result<(), TxnError> {
        fs.close(self.fid)?;
        fs.delete(self.fid)?;
        let fid = fs.create(ServiceType::Transaction)?;
        fs.set_system_file(fid)?;
        fs.open(fid)?;
        self.fid = fid;
        self.tail = 0;
        // Unforced `Completed` markers died with the old log file —
        // harmless, since the whole log they referred to is gone too, and
        // with the `Commit` records gone no redo can chase freed blocks.
        self.unflushed_records = 0;
        self.unflushed_prepares = 0;
        self.durable_lsn = self.appended_lsn;
        self.release_deferred(fs)?;
        stats.log_compactions += 1;
        Ok(())
    }
}
