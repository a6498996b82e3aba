//! The intentions list and its on-log representation (§6.6–6.7).
//!
//! "There are two commonly-used approaches to recovery from system and
//! media failures ... the intentions list approach and file version
//! approach. The file version approach is costly with respect to disk
//! operations. Thus ... we propose to use the intentions list approach."
//!
//! Each transaction accumulates [`Intention`]s describing its tentative
//! data items. At commit the list is written to the intention log (the
//! write-ahead step), the changes are made permanent — by the WAL
//! technique when the file's data blocks are contiguous, by the
//! shadow-page technique otherwise — and the list is erased.

use crate::service::TxnId;
use rhodos_disk_service::codec::{DecodeError, Decoder, Encoder};
use rhodos_file_service::FileId;
use rhodos_simdisk::crc32;

/// How a tentative item will be made permanent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// Write-ahead logging: data already on the log/tentative block is
    /// copied into the original block in place, preserving contiguity.
    Wal,
    /// Shadow paging: the file index table descriptor is swung to the
    /// tentative block; the original block is freed.
    Shadow,
}

/// One record of a transaction's intentions list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Intention {
    /// A whole tentative page (page or file mode): logical block `index`
    /// of `fid`, with the tentative contents parked in a detached block at
    /// `(tentative_disk, tentative_addr)`.
    Page {
        /// File modified.
        fid: FileId,
        /// Logical block index.
        index: u64,
        /// Disk holding the tentative block.
        tentative_disk: u16,
        /// Fragment address of the tentative block.
        tentative_addr: u64,
    },
    /// A tentative byte range: the bytes live inline in the log record
    /// ("there is no justification to tie up a complete block or
    /// fragment" for record updates — WAL is always used). Record mode
    /// writes these, and so does page mode for a page it wrote only part
    /// of.
    Record {
        /// File modified.
        fid: FileId,
        /// Byte offset of the update.
        offset: u64,
        /// The new bytes.
        data: Vec<u8>,
    },
}

impl Intention {
    /// The file this intention touches.
    pub fn file(&self) -> FileId {
        match self {
            Intention::Page { fid, .. } | Intention::Record { fid, .. } => *fid,
        }
    }

    fn encode(&self, e: &mut Encoder) {
        match self {
            Intention::Page {
                fid,
                index,
                tentative_disk,
                tentative_addr,
            } => {
                e.u8(0)
                    .u64(fid.0)
                    .u64(*index)
                    .u16(*tentative_disk)
                    .u64(*tentative_addr);
            }
            Intention::Record { fid, offset, data } => {
                e.u8(1).u64(fid.0).u64(*offset).bytes(data);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(Intention::Page {
                fid: FileId(d.u64()?),
                index: d.u64()?,
                tentative_disk: d.u16()?,
                tentative_addr: d.u64()?,
            }),
            1 => Ok(Intention::Record {
                fid: FileId(d.u64()?),
                offset: d.u64()?,
                data: d.bytes()?.to_vec(),
            }),
            _ => Err(DecodeError),
        }
    }
}

/// A durable log record: a commit or prepare record carrying a
/// transaction's full intentions list, the marker that resolves one, a
/// checkpoint, or the frame a mount opened the log with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// "This transaction commits with these intentions."
    Commit {
        /// Committing transaction.
        txn: TxnId,
        /// Its intentions, in application order.
        intentions: Vec<Intention>,
        /// Final logical sizes of the files it touched. Needed by redo: a
        /// group-commit crash can leave a durable commit record whose
        /// size-extending apply never ran, and block-granular intentions
        /// alone cannot reconstruct a byte-granular file length.
        sizes: Vec<(FileId, u64)>,
    },
    /// "This transaction's intentions have all been applied" — whole
    /// pages made permanent (their tentative blocks may be reused once
    /// the marker is durable), records written into the block pool.
    /// Recovery still redoes the records unless a later `Checkpoint`
    /// took them home.
    Completed {
        /// The finished transaction.
        txn: TxnId,
    },
    /// "This participant votes yes on global transaction `gtid` with these
    /// intentions" — the durable first phase of a cross-shard two-phase
    /// commit. A `Prepared` record with no later `Completed` or `Aborted`
    /// for the same transaction leaves the participant *in doubt*:
    /// recovery re-pins the tentative blocks and waits for the
    /// coordinator's decision instead of rolling the transaction back.
    Prepared {
        /// Coordinator-assigned global transaction id.
        gtid: u64,
        /// The local transaction holding the locks.
        txn: TxnId,
        /// Its intentions, in application order.
        intentions: Vec<Intention>,
        /// Final logical sizes of the files it touched (see `Commit`).
        sizes: Vec<(FileId, u64)>,
    },
    /// "This prepared transaction was decided abort and rolled back."
    /// Written unforced — presumed abort makes its durability optional: a
    /// crash that loses it merely re-enters the in-doubt state, and the
    /// orphan sweep re-delivers the same abort.
    Aborted {
        /// The rolled-back transaction.
        txn: TxnId,
    },
    /// "Every block a record completed before this point dirtied is on
    /// the platter": recovery redoes no record whose `Completed` marker
    /// precedes it.
    Checkpoint,
    /// "A server of `epoch` mounted here": the first frame appended after
    /// a scan found the log's end, so that what follows chains from a
    /// frame no earlier force wrote. Recovery reads past it.
    Mounted {
        /// The mounting server's epoch.
        epoch: u64,
    },
}

/// A transaction's intentions and the final sizes of the files it touched.
type Effects = (Vec<Intention>, Vec<(FileId, u64)>);

const LOG_MAGIC: u32 = 0x52_4C_4F_47; // "RLOG"

/// Bytes of a log frame before its body: magic, checksum, incarnation,
/// predecessor's checksum, body length.
pub const FRAME_HEADER: usize = 24;

/// What [`LogRecord::unframe`] finds at the front of a buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Unframed<'a> {
    /// No frame header: zeros, or bytes that never were one.
    Nothing,
    /// A frame header of `incarnation` announcing a frame of `len` bytes
    /// that the buffer cuts short (`len` exceeds it) or whose bytes fail
    /// the checksum — a half-written or damaged frame.
    Broken {
        /// The log incarnation the header claims.
        incarnation: u64,
        /// Length of the whole frame, header included.
        len: usize,
    },
    /// A whole frame whose checksum holds.
    Frame {
        /// The log incarnation the frame was appended in.
        incarnation: u64,
        /// Checksum of the frame appended before it.
        prev: u32,
        /// This frame's checksum.
        crc: u32,
        /// The encoded record.
        body: &'a [u8],
    },
}

impl LogRecord {
    /// Serialises a `Commit` record (unframed — see [`Self::frame_into`])
    /// directly from borrowed intentions, so the commit hot path never
    /// deep-copies the tentative records just to build an owned
    /// [`LogRecord`].
    pub fn encode_commit(txn: TxnId, intentions: &[Intention], sizes: &[(FileId, u64)]) -> Vec<u8> {
        let mut body = Encoder::new();
        body.u8(0).u64(txn.0);
        Self::encode_effects(&mut body, intentions, sizes);
        body.finish()
    }

    /// Serialises a `Completed` marker.
    pub fn encode_completed(txn: TxnId) -> Vec<u8> {
        let mut body = Encoder::new();
        body.u8(1).u64(txn.0);
        body.finish()
    }

    /// Serialises a `Prepared` record directly from borrowed intentions
    /// (see [`Self::encode_commit`]).
    pub fn encode_prepared(
        gtid: u64,
        txn: TxnId,
        intentions: &[Intention],
        sizes: &[(FileId, u64)],
    ) -> Vec<u8> {
        let mut body = Encoder::new();
        body.u8(2).u64(gtid).u64(txn.0);
        Self::encode_effects(&mut body, intentions, sizes);
        body.finish()
    }

    /// Serialises an `Aborted` marker.
    pub fn encode_aborted(txn: TxnId) -> Vec<u8> {
        let mut body = Encoder::new();
        body.u8(3).u64(txn.0);
        body.finish()
    }

    /// Serialises a `Checkpoint` marker.
    pub fn encode_checkpoint() -> Vec<u8> {
        let mut body = Encoder::new();
        body.u8(4);
        body.finish()
    }

    /// Serialises a `Mounted` frame.
    pub fn encode_mounted(epoch: u64) -> Vec<u8> {
        let mut body = Encoder::new();
        body.u8(5).u64(epoch);
        body.finish()
    }

    fn encode_effects(body: &mut Encoder, intentions: &[Intention], sizes: &[(FileId, u64)]) {
        body.u32(intentions.len() as u32);
        for i in intentions {
            i.encode(body);
        }
        body.u32(sizes.len() as u32);
        for (fid, size) in sizes {
            body.u64(fid.0).u64(*size);
        }
    }

    fn decode_effects(d: &mut Decoder<'_>) -> Result<Effects, DecodeError> {
        let intentions = (0..d.u32()?).map(|_| Intention::decode(d));
        let intentions = intentions.collect::<Result<_, _>>()?;
        let sizes = (0..d.u32()?).map(|_| Ok((FileId(d.u64()?), d.u64()?)));
        Ok((intentions, sizes.collect::<Result<_, _>>()?))
    }

    /// Decodes a record serialised by one of the `encode_*` functions.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on a truncated or malformed record.
    pub fn decode(body: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(body);
        Ok(match d.u8()? {
            0 => {
                let txn = TxnId(d.u64()?);
                let (intentions, sizes) = Self::decode_effects(&mut d)?;
                LogRecord::Commit {
                    txn,
                    intentions,
                    sizes,
                }
            }
            1 => LogRecord::Completed {
                txn: TxnId(d.u64()?),
            },
            2 => {
                let gtid = d.u64()?;
                let txn = TxnId(d.u64()?);
                let (intentions, sizes) = Self::decode_effects(&mut d)?;
                LogRecord::Prepared {
                    gtid,
                    txn,
                    intentions,
                    sizes,
                }
            }
            3 => LogRecord::Aborted {
                txn: TxnId(d.u64()?),
            },
            4 => LogRecord::Checkpoint,
            5 => LogRecord::Mounted { epoch: d.u64()? },
            _ => return Err(DecodeError),
        })
    }

    /// Appends `body` to `log` as one self-validating frame and returns
    /// the frame's checksum: a magic, a CRC32 over everything after it,
    /// the log `incarnation` the frame belongs to, the checksum `prev` of
    /// the frame before it, and a length — so a half-written tail, a
    /// frame left behind by an earlier incarnation and a frame that does
    /// not follow the one before it are each detected on their own.
    pub fn frame_into(log: &mut Vec<u8>, body: &[u8], incarnation: u64, prev: u32) -> u32 {
        let at = log.len();
        let mut head = Encoder::new();
        head.u32(LOG_MAGIC)
            .u32(0)
            .u64(incarnation)
            .u32(prev)
            .u32(body.len() as u32);
        log.extend_from_slice(&head.finish());
        log.extend_from_slice(body);
        let crc = crc32(&log[at + 8..]);
        log[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
        crc
    }

    /// Checks the frame at the front of `buf`.
    pub fn unframe(buf: &[u8]) -> Unframed<'_> {
        let mut d = Decoder::new(buf);
        let header =
            (|| Ok::<_, DecodeError>((d.u32()?, d.u32()?, d.u64()?, d.u32()?, d.u32()?)))();
        let Ok((LOG_MAGIC, crc, incarnation, prev, body_len)) = header else {
            return Unframed::Nothing;
        };
        let len = FRAME_HEADER + body_len as usize;
        if buf.len() < len || crc32(&buf[8..len]) != crc {
            return Unframed::Broken { incarnation, len };
        }
        Unframed::Frame {
            incarnation,
            prev,
            crc,
            body: &buf[FRAME_HEADER..len],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_commit() -> LogRecord {
        LogRecord::Commit {
            txn: TxnId(7),
            intentions: vec![
                Intention::Page {
                    fid: FileId(1),
                    index: 3,
                    tentative_disk: 0,
                    tentative_addr: 4040,
                },
                Intention::Record {
                    fid: FileId(2),
                    offset: 99,
                    data: b"xyz".to_vec(),
                },
            ],
            sizes: vec![(FileId(1), 30_000), (FileId(2), 102)],
        }
    }

    /// Serialises `rec` through the borrowed encoder of its kind.
    fn encode(rec: &LogRecord) -> Vec<u8> {
        match rec {
            LogRecord::Commit {
                txn,
                intentions,
                sizes,
            } => LogRecord::encode_commit(*txn, intentions, sizes),
            LogRecord::Completed { txn } => LogRecord::encode_completed(*txn),
            LogRecord::Prepared {
                gtid,
                txn,
                intentions,
                sizes,
            } => LogRecord::encode_prepared(*gtid, *txn, intentions, sizes),
            LogRecord::Aborted { txn } => LogRecord::encode_aborted(*txn),
            LogRecord::Checkpoint => LogRecord::encode_checkpoint(),
            LogRecord::Mounted { epoch } => LogRecord::encode_mounted(*epoch),
        }
    }

    #[test]
    fn record_round_trip() {
        let rec = sample_commit();
        assert_eq!(LogRecord::decode(&encode(&rec)).unwrap(), rec);
        let mut log = Vec::new();
        let crc = LogRecord::frame_into(&mut log, &encode(&rec), 3, 77);
        assert_eq!(log.len(), FRAME_HEADER + encode(&rec).len());
        assert_eq!(
            LogRecord::unframe(&log),
            Unframed::Frame {
                incarnation: 3,
                prev: 77,
                crc,
                body: &encode(&rec),
            }
        );
    }

    /// Decodes the chain of incarnation-1 frames at the front of `log`.
    fn decode_log(log: &[u8]) -> Vec<LogRecord> {
        let (mut out, mut pos, mut chain) = (Vec::new(), 0, 0);
        while let Unframed::Frame {
            incarnation: 1,
            prev,
            crc,
            body,
        } = LogRecord::unframe(&log[pos..])
        {
            if prev != chain {
                break;
            }
            out.push(LogRecord::decode(body).unwrap());
            pos += FRAME_HEADER + body.len();
            chain = crc;
        }
        out
    }

    #[test]
    fn log_of_multiple_records() {
        let mut log = Vec::new();
        let first = LogRecord::frame_into(&mut log, &encode(&sample_commit()), 1, 0);
        let done = LogRecord::Completed { txn: TxnId(7) };
        LogRecord::frame_into(&mut log, &encode(&done), 1, first);
        log.extend([0u8; 64]); // clean padding tail
        let records = decode_log(&log);
        assert_eq!(records.len(), 2);
        assert_eq!(records[1], done);
    }

    #[test]
    fn torn_tail_treated_as_uncommitted() {
        let mut log = Vec::new();
        let done = LogRecord::Completed { txn: TxnId(1) };
        let first = LogRecord::frame_into(&mut log, &encode(&done), 1, 0);
        let whole = log.len();
        LogRecord::frame_into(&mut log, &encode(&sample_commit()), 1, first);
        let torn = whole + (log.len() - whole) / 2;
        let records = decode_log(&log[..torn]);
        assert_eq!(records.len(), 1, "torn record must not surface");
        assert_eq!(
            LogRecord::unframe(&log[whole..torn]),
            Unframed::Broken {
                incarnation: 1,
                len: log.len() - whole
            }
        );
        // The same bytes at full length but with one flipped fail the
        // checksum, wherever the flip is.
        for at in whole + 8..log.len() {
            log[at] ^= 0x10;
            assert!(matches!(
                LogRecord::unframe(&log[whole..]),
                Unframed::Broken { .. } | Unframed::Nothing
            ));
            log[at] ^= 0x10;
        }
    }

    #[test]
    fn empty_log_decodes_empty() {
        assert_eq!(LogRecord::unframe(&[0u8; 128]), Unframed::Nothing);
        assert_eq!(LogRecord::unframe(&[]), Unframed::Nothing);
    }

    #[test]
    fn prepared_and_aborted_round_trip() {
        let LogRecord::Commit {
            txn, intentions, ..
        } = sample_commit()
        else {
            unreachable!()
        };
        let prep = LogRecord::Prepared {
            gtid: 41,
            txn,
            intentions,
            sizes: vec![(FileId(1), 30_000)],
        };
        assert_eq!(LogRecord::decode(&encode(&prep)).unwrap(), prep);
        let ab = LogRecord::Aborted { txn: TxnId(7) };
        assert_eq!(LogRecord::decode(&encode(&ab)).unwrap(), ab);
    }

    #[test]
    fn checkpoint_round_trips() {
        let bytes = LogRecord::encode_checkpoint();
        assert_eq!(LogRecord::decode(&bytes).unwrap(), LogRecord::Checkpoint);
        let mounted = LogRecord::Mounted { epoch: 3 };
        assert_eq!(LogRecord::decode(&encode(&mounted)).unwrap(), mounted);
    }

    #[test]
    fn intention_file_accessor() {
        let i = Intention::Record {
            fid: FileId(9),
            offset: 0,
            data: vec![],
        };
        assert_eq!(i.file(), FileId(9));
    }
}
