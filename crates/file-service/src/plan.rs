//! The write plan: what one `Volume::submit` — the file service's one
//! write path to the spindles — writes, and in which mode.
//!
//! Raw extents are written one `put` each: metadata mirrored to stable
//! storage when the disks have it ([`Mode::Meta`]), detached blocks and
//! repaired or rebuilt units not ([`Mode::OneAtATime`]). File data is
//! named by file and sector, and the volume finds its homes: a
//! write-through block is one `put`, a write-back or a run of sectors one
//! elevator batch per spindle ([`Mode::Batch`]).

use crate::attrs::FileId;
use crate::store::FitStore;
use rhodos_buf::BlockBuf;
use rhodos_disk_service::Extent;

/// How [`Volume::submit`](crate::volume::Volume::submit) sends a
/// plan's writes to the spindles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// One `put` per extent, mirrored to stable storage when the disks
    /// have it: the directory, FIT fragments and indirect tables.
    Meta,
    /// One `put` per write, in order.
    OneAtATime,
    /// One elevator batch per spindle, all begun at one virtual instant
    /// and ended together, so adjacent extents — across files — merge
    /// into single references: file data only, raw extents are always
    /// put one at a time.
    Batch,
}

/// What one `Volume::submit` writes, and how.
pub(crate) enum WritePlan<'a> {
    /// Raw extents as `(disk, extent, bytes)`, each its own `put`.
    Extents(Mode, &'a [(u16, Extent, &'a [u8])]),
    /// File data as `((fid, first sector), whole sectors)` in file order
    /// — whole blocks, or spans inside one block — [`Mode::OneAtATime`]
    /// or [`Mode::Batch`]. Data of a deleted file, or past its end, is
    /// dropped.
    Data(
        Mode,
        &'a mut FitStore,
        &'a mut dyn Iterator<Item = ((FileId, u64), BlockBuf)>,
    ),
}

/// One write of a batch: where in a file it starts (`None` for the
/// parity tier's units, which never join), its disk, extent and bytes.
pub(crate) type Write = (Option<(FileId, u64)>, u16, Extent, BlockBuf);

/// Whether write `b` continues write `a` both in a file and on the
/// platter: what `ParallelIo::Never` joins into one `put`.
pub(crate) fn continues((a_at, a_disk, a, _): &Write, (b_at, b_disk, b, _): &Write) -> bool {
    let next = a_at.map(|(fid, s)| (fid, s + a.len));
    next.is_some() && next == *b_at && a_disk == b_disk && a.end() == b.start
}
