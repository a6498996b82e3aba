//! The file index table (FIT) — §5 of the paper.
//!
//! "The sequence of block descriptors is stored in a separate data
//! structure called a file index table. This allows both sequential and
//! random access to a file's data." Each descriptor carries "a two byte
//! count to indicate the number of contiguous successive disk blocks", so
//! a contiguous run can be fetched "using one single invocation of
//! get-block, instead of count number of invocations".
//!
//! On disk the FIT is one fragment holding the file attributes, the first
//! [`DIRECT_BLOCKS`] *direct* descriptors (half a megabyte of directly
//! accessible data) and the locations of *indirect blocks* — whole disk
//! blocks that store further descriptors for large files.

use crate::attrs::FileAttributes;
use rhodos_disk_service::codec::{DecodeError, Decoder, Encoder};
use rhodos_disk_service::{Extent, FragmentAddr, BLOCK_SIZE, FRAGMENT_SIZE, FRAGS_PER_BLOCK};

/// Direct block descriptors held in the FIT fragment: 64 × 8 KiB = 512 KiB
/// of file data reachable with a single data-block reference.
pub const DIRECT_BLOCKS: usize = 64;

/// Bytes of file data reachable through direct descriptors (half a
/// megabyte — the paper's headline number).
pub const MAX_DIRECT_BYTES: usize = DIRECT_BLOCKS * BLOCK_SIZE;

/// Descriptors per indirect block (8192-byte block: 4-byte count +
/// 682 × 12-byte descriptors).
pub const INDIRECT_CAP: usize = (BLOCK_SIZE - 4) / 12;

/// Maximum indirect blocks referenced from one FIT fragment.
pub const MAX_INDIRECT_TABLES: usize = 120;

/// On-disk homes of a FIT's indirect blocks: `(disk, fragment)` pairs.
pub type IndirectLocs = Vec<(u16, FragmentAddr)>;

/// Reference to one data block, with the disk it lives on and the length
/// of the contiguous run it starts ("count").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDescriptor {
    /// Disk number within the file service ("a data block/indirect block
    /// can exist anywhere in the RHODOS system").
    pub disk: u16,
    /// First fragment of the block on that disk.
    pub addr: FragmentAddr,
    /// Number of successive blocks, from this one inclusive, that are
    /// contiguous on the same disk. Always ≥ 1.
    pub contig: u16,
}

impl BlockDescriptor {
    /// The extent of this single block (4 fragments).
    pub fn block_extent(&self) -> Extent {
        Extent::new(self.addr, FRAGS_PER_BLOCK)
    }

    fn encode(&self, e: &mut Encoder) {
        e.u16(self.disk).u64(self.addr).u16(self.contig);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            disk: d.u16()?,
            addr: d.u64()?,
            contig: d.u16()?,
        })
    }
}

/// A physical run of logically consecutive blocks, produced by
/// [`FileIndexTable::runs`]; the unit of one `get-block` invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRun {
    /// Disk holding the run.
    pub disk: u16,
    /// Fragments covered.
    pub extent: Extent,
    /// Logical index of the first block of the run within the file.
    pub first_block: u64,
    /// Number of blocks in the run.
    pub blocks: u64,
}

/// The in-memory file index table: attributes plus the full flat sequence
/// of block descriptors (persistence splits them into direct + indirect).
///
/// # Example
///
/// ```
/// use rhodos_file_service::{FileIndexTable, FileAttributes, ServiceType};
///
/// let mut fit = FileIndexTable::new(FileAttributes::new(0, ServiceType::Basic));
/// fit.append_run(0, 100, 3); // three contiguous blocks at fragment 100
/// assert_eq!(fit.block_count(), 3);
/// assert_eq!(fit.descriptor(0).unwrap().contig, 3);
/// assert_eq!(fit.descriptor(2).unwrap().contig, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FileIndexTable {
    /// The file-specific attributes stored in the FIT.
    pub attrs: FileAttributes,
    descriptors: Vec<BlockDescriptor>,
    /// Parity-unit descriptors when the service runs an erasure-coded
    /// stripe tier: row `r`'s `m` parity units live at indices
    /// `r*m .. (r+1)*m`. Empty in `Redundancy::None` mode.
    parity: Vec<BlockDescriptor>,
    /// While decoding: how many of the trailing entries streamed into
    /// `descriptors` are really parity descriptors (split off by
    /// [`Self::seal`]). Always zero for a sealed table.
    pending_parity: u64,
}

impl FileIndexTable {
    /// Creates a FIT for an empty file.
    pub fn new(attrs: FileAttributes) -> Self {
        Self {
            attrs,
            descriptors: Vec::new(),
            parity: Vec::new(),
            pending_parity: 0,
        }
    }

    /// Number of data blocks in the file.
    pub fn block_count(&self) -> u64 {
        self.descriptors.len() as u64
    }

    /// Number of parity units protecting the file (zero without a
    /// parity tier).
    pub fn parity_count(&self) -> u64 {
        self.parity.len() as u64
    }

    /// The descriptor of parity unit `index` (row `index / m`, parity
    /// slot `index % m`).
    pub fn parity_descriptor(&self, index: u64) -> Option<BlockDescriptor> {
        self.parity.get(index as usize).copied()
    }

    /// All parity descriptors, in row-major order.
    pub fn parity_descriptors(&self) -> &[BlockDescriptor] {
        &self.parity
    }

    /// Appends one parity-unit descriptor (block `start..start+4` on
    /// `disk`).
    pub fn push_parity(&mut self, disk: u16, start: FragmentAddr) {
        self.parity.push(BlockDescriptor {
            disk,
            addr: start,
            contig: 1,
        });
    }

    /// Data + parity descriptors — what persistence actually stores
    /// (one concatenated stream, parity after data).
    fn stored_count(&self) -> u64 {
        (self.descriptors.len() + self.parity.len()) as u64
    }

    /// Number of indirect blocks this table needs on disk (data and
    /// parity descriptors share the direct slots and indirect chain).
    pub fn indirect_tables_required(&self) -> usize {
        Self::indirect_tables_needed(self.stored_count())
    }

    /// The descriptor of logical block `index` (the paper's *block-index*).
    pub fn descriptor(&self, index: u64) -> Option<BlockDescriptor> {
        self.descriptors.get(index as usize).copied()
    }

    /// All descriptors, in logical order.
    pub fn descriptors(&self) -> &[BlockDescriptor] {
        &self.descriptors
    }

    /// Appends `nblocks` blocks starting at fragment `start` on `disk`
    /// (the fragments `start .. start + 4·nblocks` must be one allocated
    /// run) and updates the contiguity counts.
    ///
    /// # Panics
    ///
    /// Panics if `nblocks` is zero.
    pub fn append_run(&mut self, disk: u16, start: FragmentAddr, nblocks: u64) {
        assert!(nblocks > 0, "cannot append an empty run");
        for j in 0..nblocks {
            self.descriptors.push(BlockDescriptor {
                disk,
                addr: start + j * FRAGS_PER_BLOCK,
                contig: 1,
            });
        }
        self.recompute_contig();
    }

    /// Replaces the descriptor of logical block `index` (shadow-page
    /// commit swings descriptors this way) and fixes contiguity counts.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn replace_block(&mut self, index: u64, disk: u16, addr: FragmentAddr) {
        let d = &mut self.descriptors[index as usize];
        d.disk = disk;
        d.addr = addr;
        self.recompute_contig();
    }

    /// Removes all blocks from logical index `from` on, returning their
    /// descriptors (for the caller to free).
    pub fn truncate_blocks(&mut self, from: u64) -> Vec<BlockDescriptor> {
        let tail = self.descriptors.split_off(from as usize);
        self.recompute_contig();
        tail
    }

    /// Recomputes every `contig` count from the physical layout (fsck
    /// repair of corrupted counts).
    pub(crate) fn rebuild_contiguity(&mut self) {
        self.recompute_contig();
    }

    /// Recomputes every `contig` count in one backward scan.
    fn recompute_contig(&mut self) {
        let n = self.descriptors.len();
        for i in (0..n).rev() {
            let next_contig = if i + 1 < n {
                let (cur, next) = (self.descriptors[i], self.descriptors[i + 1]);
                if cur.disk == next.disk && cur.addr + FRAGS_PER_BLOCK == next.addr {
                    next.contig
                } else {
                    0
                }
            } else {
                0
            };
            self.descriptors[i].contig = next_contig.saturating_add(1);
        }
    }

    /// Groups logical blocks `[first, first + count)` into maximal physical
    /// runs, each retrievable in one disk reference.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the file's block count.
    pub fn runs(&self, first: u64, count: u64) -> Vec<BlockRun> {
        assert!(
            first + count <= self.block_count(),
            "block range {first}..{} beyond {} blocks",
            first + count,
            self.block_count()
        );
        let mut out = Vec::new();
        let mut i = first;
        let end = first + count;
        while i < end {
            let d = self.descriptors[i as usize];
            let run_blocks = (d.contig as u64).min(end - i);
            out.push(BlockRun {
                disk: d.disk,
                extent: Extent::new(d.addr, run_blocks * FRAGS_PER_BLOCK),
                first_block: i,
                blocks: run_blocks,
            });
            i += run_blocks;
        }
        out
    }

    /// Fraction of adjacent logical block pairs that are physically
    /// contiguous (1.0 for a fully contiguous file, 0.0 for fully
    /// scattered). The metric of experiment E12 (WAL preserves contiguity,
    /// shadow paging destroys it).
    pub fn contiguity_ratio(&self) -> f64 {
        if self.descriptors.len() < 2 {
            return 1.0;
        }
        let pairs = self.descriptors.len() - 1;
        let contiguous = self
            .descriptors
            .windows(2)
            .filter(|w| w[0].disk == w[1].disk && w[0].addr + FRAGS_PER_BLOCK == w[1].addr)
            .count();
        contiguous as f64 / pairs as f64
    }

    /// Number of indirect blocks needed to persist `nblocks` descriptors.
    pub fn indirect_tables_needed(nblocks: u64) -> usize {
        let spill = nblocks.saturating_sub(DIRECT_BLOCKS as u64) as usize;
        spill.div_ceil(INDIRECT_CAP)
    }

    /// Serialises the FIT fragment. `indirect_locs` are the homes of the
    /// indirect blocks (from [`Self::encode_indirect_chunks`]), `(disk,
    /// fragment)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `indirect_locs` does not match the number of indirect
    /// tables needed, or exceeds [`MAX_INDIRECT_TABLES`].
    pub fn encode_fit_fragment(&self, indirect_locs: &[(u16, FragmentAddr)]) -> Vec<u8> {
        assert_eq!(self.pending_parity, 0, "encoding an unsealed FIT");
        let needed = self.indirect_tables_required();
        assert_eq!(indirect_locs.len(), needed, "indirect location count");
        assert!(needed <= MAX_INDIRECT_TABLES, "file too large for one FIT");
        let mut e = Encoder::new();
        self.attrs.encode(&mut e);
        e.u32(self.stored_count() as u32);
        for d in self
            .descriptors
            .iter()
            .chain(self.parity.iter())
            .take(DIRECT_BLOCKS)
        {
            d.encode(&mut e);
        }
        e.u16(indirect_locs.len() as u16);
        for (disk, addr) in indirect_locs {
            e.u16(*disk).u64(*addr);
        }
        // Trailing parity count: old images decode this from the zero
        // padding, yielding zero parity units — backward compatible.
        e.u32(self.parity.len() as u32);
        let mut buf = e.finish();
        assert!(buf.len() <= FRAGMENT_SIZE, "FIT must fit in one fragment");
        buf.resize(FRAGMENT_SIZE, 0);
        buf
    }

    /// Serialises the spill descriptors into indirect-block images
    /// (each exactly [`BLOCK_SIZE`] bytes).
    pub fn encode_indirect_chunks(&self) -> Vec<Vec<u8>> {
        assert_eq!(self.pending_parity, 0, "encoding an unsealed FIT");
        let stored: Vec<&BlockDescriptor> = self
            .descriptors
            .iter()
            .chain(self.parity.iter())
            .skip(DIRECT_BLOCKS)
            .collect();
        stored
            .chunks(INDIRECT_CAP)
            .map(|chunk| {
                let mut e = Encoder::new();
                e.u32(chunk.len() as u32);
                for d in chunk {
                    d.encode(&mut e);
                }
                let mut buf = e.finish();
                buf.resize(BLOCK_SIZE, 0);
                buf
            })
            .collect()
    }

    /// Decodes a FIT fragment, returning the partially populated table
    /// (attributes + direct descriptors), the total block count, and the
    /// indirect block locations still to be loaded with
    /// [`Self::extend_from_indirect_chunk`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on a malformed fragment.
    pub fn decode_fit_fragment(buf: &[u8]) -> Result<(Self, u64, IndirectLocs), DecodeError> {
        let mut d = Decoder::new(buf);
        let attrs = FileAttributes::decode(&mut d)?;
        let total_stored = d.u32()? as u64;
        let direct_count = total_stored.min(DIRECT_BLOCKS as u64);
        let mut descriptors = Vec::with_capacity(total_stored as usize);
        for _ in 0..direct_count {
            descriptors.push(BlockDescriptor::decode(&mut d)?);
        }
        let n_ind = d.u16()? as usize;
        if n_ind > MAX_INDIRECT_TABLES {
            return Err(DecodeError);
        }
        let mut indirect = Vec::with_capacity(n_ind);
        for _ in 0..n_ind {
            let disk = d.u16()?;
            let addr = d.u64()?;
            indirect.push((disk, addr));
        }
        if Self::indirect_tables_needed(total_stored) != n_ind {
            return Err(DecodeError);
        }
        // Pre-parity images end here; their zero padding decodes as a
        // zero parity count.
        let pending_parity = d.u32().unwrap_or(0) as u64;
        if pending_parity > total_stored {
            return Err(DecodeError);
        }
        let mut fit = Self {
            attrs,
            descriptors,
            parity: Vec::new(),
            pending_parity,
        };
        if n_ind == 0 {
            fit.seal();
        }
        Ok((fit, total_stored, indirect))
    }

    /// Finishes loading a decoded table once every indirect chunk has
    /// been appended: the trailing parity descriptors are split off
    /// the concatenated stream into their own sequence. Idempotent;
    /// [`Self::decode_fit_fragment`] seals tables with no indirect
    /// chain itself.
    pub fn seal(&mut self) {
        if self.pending_parity == 0 {
            return;
        }
        let cut = self.descriptors.len() - (self.pending_parity as usize);
        self.parity = self.descriptors.split_off(cut);
        self.pending_parity = 0;
        // The stream's contig counts spanned the data/parity seam;
        // recompute them over data alone.
        self.recompute_contig();
        for p in &mut self.parity {
            p.contig = 1;
        }
    }

    /// Appends descriptors decoded from one indirect-block image.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on a malformed image.
    pub fn extend_from_indirect_chunk(&mut self, buf: &[u8]) -> Result<(), DecodeError> {
        let mut d = Decoder::new(buf);
        let count = d.u32()? as usize;
        if count > INDIRECT_CAP {
            return Err(DecodeError);
        }
        for _ in 0..count {
            self.descriptors.push(BlockDescriptor::decode(&mut d)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::ServiceType;

    fn fit() -> FileIndexTable {
        FileIndexTable::new(FileAttributes::new(0, ServiceType::Basic))
    }

    #[test]
    fn contig_counts_descend_within_a_run() {
        let mut t = fit();
        t.append_run(0, 40, 4);
        let counts: Vec<u16> = t.descriptors().iter().map(|d| d.contig).collect();
        assert_eq!(counts, vec![4, 3, 2, 1]);
    }

    #[test]
    fn adjacent_appends_merge_contiguity() {
        let mut t = fit();
        t.append_run(0, 40, 2); // blocks at 40, 44
        t.append_run(0, 48, 2); // 48, 52 — adjacent to 44
        assert_eq!(t.descriptor(0).unwrap().contig, 4);
        assert_eq!(t.contiguity_ratio(), 1.0);
    }

    #[test]
    fn discontiguous_appends_break_runs() {
        let mut t = fit();
        t.append_run(0, 40, 2);
        t.append_run(0, 100, 2);
        assert_eq!(t.descriptor(0).unwrap().contig, 2);
        assert_eq!(t.descriptor(2).unwrap().contig, 2);
        assert!((t.contiguity_ratio() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn cross_disk_blocks_never_contiguous() {
        let mut t = fit();
        t.append_run(0, 40, 1);
        t.append_run(1, 44, 1);
        assert_eq!(t.descriptor(0).unwrap().contig, 1);
    }

    #[test]
    fn runs_group_for_single_reference() {
        let mut t = fit();
        t.append_run(0, 0, 3);
        t.append_run(0, 100, 2);
        let runs = t.runs(0, 5);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].extent, Extent::new(0, 12));
        assert_eq!(runs[1].extent, Extent::new(100, 8));
        // Partial range inside a run.
        let partial = t.runs(1, 2);
        assert_eq!(partial.len(), 1);
        assert_eq!(partial[0].extent, Extent::new(4, 8));
    }

    #[test]
    fn replace_block_breaks_contiguity() {
        let mut t = fit();
        t.append_run(0, 0, 3);
        t.replace_block(1, 0, 200);
        assert_eq!(t.descriptor(0).unwrap().contig, 1);
        assert_eq!(t.descriptor(1).unwrap().contig, 1);
        assert_eq!(t.descriptor(2).unwrap().contig, 1);
    }

    #[test]
    fn truncate_returns_tail() {
        let mut t = fit();
        t.append_run(0, 0, 4);
        let tail = t.truncate_blocks(1);
        assert_eq!(tail.len(), 3);
        assert_eq!(t.block_count(), 1);
        assert_eq!(t.descriptor(0).unwrap().contig, 1);
    }

    #[test]
    fn small_fit_round_trips_through_fragment() {
        let mut t = fit();
        t.attrs.size = 10_000;
        t.append_run(0, 40, 2);
        let frag = t.encode_fit_fragment(&[]);
        assert_eq!(frag.len(), FRAGMENT_SIZE);
        let (decoded, total, ind) = FileIndexTable::decode_fit_fragment(&frag).unwrap();
        assert_eq!(total, 2);
        assert!(ind.is_empty());
        assert_eq!(decoded, t);
    }

    #[test]
    fn large_fit_round_trips_through_indirect_chunks() {
        let mut t = fit();
        // 64 direct + 1500 spill descriptors (three indirect blocks).
        t.append_run(0, 0, 64);
        for i in 0..1500u64 {
            t.append_run(0, 10_000 + i * 8, 1); // non-adjacent runs
        }
        let needed = FileIndexTable::indirect_tables_needed(t.block_count());
        assert_eq!(needed, 3);
        let chunks = t.encode_indirect_chunks();
        assert_eq!(chunks.len(), 3);
        let locs: Vec<(u16, FragmentAddr)> =
            (0..3).map(|i| (0u16, 90_000 + i as u64 * 4)).collect();
        let frag = t.encode_fit_fragment(&locs);
        let (mut decoded, total, ind) = FileIndexTable::decode_fit_fragment(&frag).unwrap();
        assert_eq!(total, 1564);
        assert_eq!(ind, locs);
        for c in &chunks {
            decoded.extend_from_indirect_chunk(c).unwrap();
        }
        assert_eq!(decoded, t);
    }

    #[test]
    fn direct_limit_is_half_a_megabyte() {
        assert_eq!(MAX_DIRECT_BYTES, 512 * 1024);
    }

    #[test]
    fn parity_fit_round_trips_through_fragment() {
        let mut t = fit();
        t.append_run(0, 40, 2);
        t.append_run(1, 40, 2);
        t.push_parity(2, 200);
        t.push_parity(3, 300);
        assert_eq!(t.parity_count(), 2);
        let frag = t.encode_fit_fragment(&[]);
        let (decoded, total, ind) = FileIndexTable::decode_fit_fragment(&frag).unwrap();
        assert_eq!(total, 6, "stored count covers data + parity");
        assert!(ind.is_empty());
        assert_eq!(decoded.block_count(), 4);
        assert_eq!(decoded.parity_descriptors(), t.parity_descriptors());
        assert_eq!(decoded, t);
    }

    #[test]
    fn parity_fit_round_trips_through_indirect_chunks() {
        let mut t = fit();
        // Enough data + parity that the parity tail spills past the
        // direct slots and across an indirect-chunk boundary.
        for i in 0..700u64 {
            t.append_run((i % 3) as u16, 10_000 + i * 8, 1);
        }
        for i in 0..175u64 {
            t.push_parity(3, 90_000 + i * 4);
        }
        let needed = t.indirect_tables_required();
        assert_eq!(needed, 2, "875 stored - 64 direct = 811 spill");
        let chunks = t.encode_indirect_chunks();
        assert_eq!(chunks.len(), needed);
        let locs: Vec<(u16, FragmentAddr)> = (0..needed)
            .map(|i| (0u16, 200_000 + i as u64 * 4))
            .collect();
        let frag = t.encode_fit_fragment(&locs);
        let (mut decoded, total, ind) = FileIndexTable::decode_fit_fragment(&frag).unwrap();
        assert_eq!(total, 875);
        assert_eq!(ind, locs);
        for c in &chunks {
            decoded.extend_from_indirect_chunk(c).unwrap();
        }
        decoded.seal();
        assert_eq!(decoded.block_count(), 700);
        assert_eq!(decoded.parity_count(), 175);
        assert_eq!(decoded, t);
    }

    #[test]
    fn corrupt_fragment_detected() {
        let frag = vec![0xFFu8; FRAGMENT_SIZE];
        assert!(FileIndexTable::decode_fit_fragment(&frag).is_err());
    }
}
