//! The intention log: where commit, prepare and completion records live,
//! how they are framed, and when they — and the tentative blocks they
//! point at — count as durable.
//!
//! [`IntentionLog`] is the only code that knows where the log lives and
//! how its end is found; everything above it appends records, forces,
//! scans after a crash and resets at a quiescent checkpoint.
//!
//! The log is a file-service file, registered as the system file and
//! never deleted, whose blocks are allocated *ahead of* the tail — so an
//! append changes no metadata and a force is one write of whole blocks
//! from the in-memory image of the tail. Its first sector is a header
//! frame naming the current *incarnation*; the records follow as frames
//! that each carry the incarnation and the checksum of the frame before
//! (see [`LogRecord::frame_into`]). The tail is stored nowhere: a scan
//! walks the chain from the header and stops at the first frame that is
//! not the next one of this incarnation. Resetting the log is therefore
//! one atomic sector write — a header of the next incarnation, which
//! disowns every frame behind it — and a crash at any point of it leaves
//! either the old log, whole, or an empty one.

use crate::error::TxnError;
use crate::intentions::{Intention, LogRecord, Unframed, FRAME_HEADER};
use crate::service::{TxnId, TxnStats};
use rhodos_buf::BlockBuf;
use rhodos_disk_service::{BLOCK_SIZE, FRAGMENT_SIZE};
use rhodos_file_service::{FileId, FileService, FileServiceError, ServiceType};

/// The log is reset at the first quiescent moment after its tail passes
/// this many bytes — a checkpoint first takes home every block its
/// records dirtied, so the log is pure garbage by then. Partial pages
/// travel in the log as bytes, and a simulated platter holds every
/// sector ever written in memory, so a log cycled through a small region
/// keeps a server small.
pub(crate) const LOG_COMPACT_THRESHOLD: u64 = 1024 * 1024;

/// How far ahead of the tail the log's blocks are allocated whenever the
/// tail reaches the end of them, so a log that is reset in time is
/// allocated once, contiguously. The log never takes more than an eighth
/// of what is free this way; on disks too small for the whole of it the
/// log is allocated in such eighths.
///
/// This is placement as much as room: the 4.5 MiB extent sits at the
/// front of the disk and sets where every file after it starts, and so
/// how each one meets the track boundaries. It is deliberately not tied
/// to [`LOG_COMPACT_THRESHOLD`]: shrinking it along with the threshold
/// moves every file of a fresh volume, and striped sequential reads of
/// those files got slower.
const LOG_ALLOC_AHEAD: u64 = 4 * 1024 * 1024 + 512 * 1024;

/// The header frame's share of the log: one sector, which the disk
/// replaces atomically.
const HEADER_LEN: u64 = rhodos_simdisk::SECTOR_SIZE as u64;

/// Bytes a scan reads at a time.
const SCAN_WINDOW: usize = 8 * BLOCK_SIZE;

const BLOCK: u64 = BLOCK_SIZE as u64;

/// The durable intention log of one transaction service.
#[derive(Debug)]
pub(crate) struct IntentionLog {
    fid: FileId,
    /// Which life of the log the frames being appended belong to.
    incarnation: u64,
    /// Checksum of the last frame appended (the header's in an empty
    /// log) — what the next frame names as its predecessor.
    chain: u32,
    /// Byte offset the next record is appended at.
    tail: u64,
    /// The log's last bytes, from a block boundary to the tail: the
    /// tail block and every block before it that holds unforced bytes.
    /// A force writes it out as whole blocks, zero-padded, so the platter
    /// is never read to append.
    image: Vec<u8>,
    /// Whether `image` holds bytes the platter does not.
    dirty: bool,
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
}

impl IntentionLog {
    /// Creates, or re-attaches to, the log of `fs`.
    pub(crate) fn open(fs: &mut FileService, stats: &mut TxnStats) -> Result<Self, TxnError> {
        if fs.system_file().is_none() {
            let fid = fs.create(ServiceType::Transaction)?;
            fs.set_system_file(fid)?;
        }
        let mut log = Self {
            fid: FileId(0),
            incarnation: 0,
            chain: 0,
            tail: 0,
            image: Vec::new(),
            dirty: false,
            appended_lsn: 0,
            durable_lsn: 0,
            unflushed_records: 0,
            unflushed_prepares: 0,
            deferred_frees: Vec::new(),
        };
        log.scan(fs, stats)?;
        (log.appended_lsn, log.durable_lsn) = (log.tail, log.tail);
        log.reserve(fs, log.tail)?;
        Ok(log)
    }

    /// Whether the log has outgrown [`LOG_COMPACT_THRESHOLD`].
    pub(crate) fn wants_compaction(&self) -> bool {
        self.tail > LOG_COMPACT_THRESHOLD
    }

    /// Log bytes made durable so far (monotonic across compactions).
    pub(crate) fn durable_lsn(&self) -> u64 {
        self.durable_lsn
    }

    /// Byte offset the next record is appended at.
    pub(crate) fn tail(&self) -> u64 {
        self.tail
    }

    /// Appends one encoded record *without* forcing it: the frame joins
    /// the image and touches no disk. Durability is [`Self::force`].
    fn append(&mut self, body: &[u8], is_prepare: bool) {
        let before = self.image.len();
        self.chain = LogRecord::frame_into(&mut self.image, body, self.incarnation, self.chain);
        let framed = (self.image.len() - before) as u64;
        self.tail += framed;
        self.appended_lsn += framed;
        self.dirty = true;
        self.unflushed_records += 1;
        self.unflushed_prepares += u64::from(is_prepare);
    }

    /// Appends `txn`'s intentions list, encoded straight from the
    /// borrowed intentions: its `Commit` record or, under a coordinator's
    /// `vote` id, its `Prepared` record.
    pub(crate) fn append_intentions(
        &mut self,
        vote: Option<u64>,
        txn: TxnId,
        intentions: &[Intention],
        sizes: &[(FileId, u64)],
    ) {
        let bytes = match vote {
            None => LogRecord::encode_commit(txn, intentions, sizes),
            Some(gtid) => LogRecord::encode_prepared(gtid, txn, intentions, sizes),
        };
        self.append(&bytes, vote.is_some());
    }

    /// Appends the `Completed` (`committed`) or `Aborted` marker that
    /// resolves `txn`'s intentions.
    pub(crate) fn append_outcome(&mut self, txn: TxnId, committed: bool) {
        let bytes = if committed {
            LogRecord::encode_completed(txn)
        } else {
            LogRecord::encode_aborted(txn)
        };
        self.append(&bytes, false);
    }

    /// Appends a `Checkpoint` marker: every record completed before it
    /// is on the platter.
    pub(crate) fn append_checkpoint(&mut self) {
        self.append(&LogRecord::encode_checkpoint(), false);
    }

    /// Makes every record appended since the previous force durable with
    /// one write of the image — the group-commit durability point — and
    /// releases the tentative blocks whose `Completed` markers that made
    /// durable. No I/O when nothing is pending.
    pub(crate) fn force(
        &mut self,
        fs: &mut FileService,
        stats: &mut TxnStats,
    ) -> Result<(), TxnError> {
        if self.dirty {
            self.write_image(fs)?;
        }
        if self.unflushed_records > 0 {
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

    /// Writes the image through to the platter as whole blocks and keeps
    /// the tail block's share of it.
    fn write_image(&mut self, fs: &mut FileService) -> Result<(), TxnError> {
        self.reserve(fs, self.tail)?;
        // A block to an allocation: the caches below keep views of what
        // they are handed, and a finished block must not hold on to the
        // tail block's many rewrites.
        let first = (self.tail - self.image.len() as u64) / BLOCK;
        let blocks = (self.image.chunks(BLOCK_SIZE).zip(first..))
            .map(|(chunk, idx)| {
                let mut block = Vec::with_capacity(BLOCK_SIZE);
                block.extend_from_slice(chunk);
                block.resize(BLOCK_SIZE, 0);
                (self.fid, idx, BlockBuf::from(block))
            })
            .collect();
        fs.write_blocks(blocks)?;
        let whole_blocks = self.image.len() - (self.tail % BLOCK) as usize;
        self.image.drain(..whole_blocks);
        self.dirty = false;
        Ok(())
    }

    /// Makes sure the log file has blocks for its first `upto` bytes,
    /// allocating ahead of them when it has not — or, where even an
    /// eighth of the free space cannot be had, just what was asked for.
    fn reserve(&mut self, fs: &mut FileService, upto: u64) -> Result<(), TxnError> {
        if upto > fs.get_attribute(self.fid)?.size {
            let upto = upto.next_multiple_of(BLOCK);
            let free = (0..fs.disk_count()).map(|d| fs.disk_mut(d).free_fragments());
            let free = free.sum::<u64>() * FRAGMENT_SIZE as u64;
            let ahead = LOG_ALLOC_AHEAD.min(free / 8) / BLOCK * BLOCK;
            if fs.ensure_size(self.fid, upto + ahead).is_err() {
                fs.ensure_size(self.fid, upto)?;
            }
        }
        Ok(())
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

    /// Stops counting the records appended since the last force: they
    /// went with a crash or with the incarnation they were appended in.
    fn forget_unforced(&mut self) {
        self.unflushed_records = 0;
        self.unflushed_prepares = 0;
        self.durable_lsn = self.appended_lsn;
    }

    /// Starts the log over as `incarnation`: an image of nothing but the
    /// header frame, not yet written.
    fn begin_incarnation(&mut self, incarnation: u64) {
        self.incarnation = incarnation;
        self.image.clear();
        self.chain = LogRecord::frame_into(&mut self.image, &[], incarnation, 0);
        self.image.resize(HEADER_LEN as usize, 0);
        self.tail = HEADER_LEN;
        self.dirty = true;
    }

    /// After `fs.recover()`: re-attaches to the log, finds its tail and
    /// returns the records before it, in order — the frames that chain
    /// from the header, read a window at a time. Whatever was appended
    /// but unforced before the crash is gone, and so are the pre-crash
    /// deferred frees (the allocation rebuild reclaims unreferenced
    /// blocks itself).
    ///
    /// The scan ends at the first frame that is not the next one of this
    /// incarnation, and appending resumes *there*, over whatever follows:
    /// a record half-written when the crash came (say, the first of its
    /// two blocks landed and the second did not) fails its checksum and
    /// is dropped whole, and a record appended after such garbage rather
    /// than over it would be unreachable by every future scan. When what
    /// ends the scan starts like a frame but is not a whole one of an
    /// earlier incarnation — it is torn, damaged, or out of sequence —
    /// `stats.log_frames_rejected` counts it.
    pub(crate) fn scan(
        &mut self,
        fs: &mut FileService,
        stats: &mut TxnStats,
    ) -> Result<Vec<LogRecord>, TxnError> {
        self.deferred_frees.clear();
        self.forget_unforced();
        self.fid = fs
            .system_file()
            .ok_or(TxnError::File(FileServiceError::NotFound(FileId(0))))?;
        fs.open(self.fid)?;
        let capacity = fs.get_attribute(self.fid)?.size;

        // The log from its start, as far as it has been read.
        let mut buf = fs.read(self.fid, 0, SCAN_WINDOW)?;
        match LogRecord::unframe(&buf) {
            Unframed::Frame {
                incarnation,
                prev: 0,
                crc,
                body: [],
            } => (self.incarnation, self.chain) = (incarnation, crc),
            // A log whose header never reached the platter has no records.
            Unframed::Nothing => {
                self.begin_incarnation(1);
                return Ok(Vec::new());
            }
            _ => return Err(FileServiceError::Corrupt(self.fid).into()),
        }
        let mut records = Vec::new();
        let (mut pos, mut want) = (HEADER_LEN, FRAME_HEADER as u64);
        loop {
            while (buf.len() as u64) < (pos + want).min(capacity) {
                let more = fs.read(self.fid, buf.len() as u64, SCAN_WINDOW)?;
                buf.extend_from_slice(&more);
            }
            let ours = match LogRecord::unframe(&buf[pos as usize..]) {
                Unframed::Frame {
                    incarnation,
                    prev,
                    crc,
                    body,
                } if (incarnation, prev) == (self.incarnation, self.chain) => {
                    if let Ok(record) = LogRecord::decode(body) {
                        records.push(record);
                        self.chain = crc;
                        pos += (FRAME_HEADER + body.len()) as u64;
                        want = FRAME_HEADER as u64;
                        continue;
                    }
                    true
                }
                // Cut short by the window, not by a crash: read on.
                Unframed::Broken { len, .. }
                    if want < len as u64 && pos + len as u64 <= capacity =>
                {
                    want = len as u64;
                    continue;
                }
                // A whole frame some earlier incarnation left here is an
                // end like any other; one of this incarnation that does
                // not follow its predecessor is not.
                Unframed::Frame { incarnation, .. } => incarnation == self.incarnation,
                Unframed::Broken { .. } => true,
                Unframed::Nothing => false,
            };
            stats.log_frames_rejected += u64::from(ours);
            break;
        }
        self.image = buf[(pos / BLOCK * BLOCK) as usize..pos as usize].to_vec();
        self.tail = pos;
        self.dirty = false;
        Ok(records)
    }

    /// Discards the whole log — the caller guarantees everything in it
    /// has completed and is on the platter — by writing the header of the
    /// next incarnation over
    /// the old one. Until that sector lands the old log stands, with the
    /// tentative blocks it points at still allocated; once it has, no
    /// frame of the old log is one of this log's, wherever the tail goes.
    pub(crate) fn reset(
        &mut self,
        fs: &mut FileService,
        stats: &mut TxnStats,
    ) -> Result<(), TxnError> {
        // Unforced `Completed` markers die with the old incarnation —
        // harmless, since the whole log they referred to goes too, and
        // with the `Commit` records gone no redo can chase freed blocks.
        // Should the write fail, the header stays in the image, dirty,
        // and the next force retries it before anything is released.
        self.begin_incarnation(self.incarnation + 1);
        self.forget_unforced();
        self.write_image(fs)?;
        self.release_deferred(fs)?;
        stats.log_compactions += 1;
        Ok(())
    }
}
