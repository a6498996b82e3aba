//! Shared block buffers for the zero-copy data path.
//!
//! Every layer of the facility (simulated disk → disk service → file
//! service → agent) moves 2 KiB fragments and 8 KiB blocks. Before this
//! crate each hand-off deep-copied the bytes into a fresh `Vec<u8>`; with
//! [`BlockBuf`] a hand-off is a refcount bump and a cache hit is a
//! `clone()` of a handle, not an 8 KiB memcpy.
//!
//! Ownership rules (see DESIGN.md §4):
//! * A `BlockBuf` is an immutable view `(Arc<Vec<u8>>, offset, len)`.
//!   Cloning and slicing never copy.
//! * Mutation goes through [`BlockBuf::make_mut`], which is copy-on-write:
//!   it copies only when the allocation is shared or the view is a
//!   sub-slice. A uniquely-owned full-range buffer mutates in place.
//! * A buffer handed to the disk stays one allocation down to the
//!   platter, which keeps per-sector views of it ([`BlockBuf::slice`]);
//!   [`BlockBuf::join`] reassembles adjacent views of one allocation
//!   without copying.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A cheaply clonable, sliceable, copy-on-write byte buffer.
#[derive(Clone)]
pub struct BlockBuf {
    data: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl BlockBuf {
    /// An empty buffer (no allocation is shared; `make_mut` is free).
    pub fn new() -> Self {
        Self::from(Vec::new())
    }

    /// A zero-filled buffer of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        Self::from(vec![0u8; len])
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes of this view.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }

    /// A zero-copy sub-view. `range` is relative to this view.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {range:?} out of bounds for BlockBuf of len {}",
            self.len
        );
        Self {
            data: Arc::clone(&self.data),
            off: self.off + range.start,
            len: range.end - range.start,
        }
    }

    /// Whether mutating this buffer would have to copy: the allocation is
    /// shared with other handles, or this view covers only part of it.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.data) > 1 || self.off != 0 || self.len != self.data.len()
    }

    /// Mutable access, copy-on-write: if the allocation is uniquely owned
    /// and the view covers all of it, mutates in place; otherwise detaches
    /// into a private copy first (use [`Self::is_shared`] to count that
    /// copy at the call site).
    pub fn make_mut(&mut self) -> &mut [u8] {
        if self.is_shared() {
            let detached = self.as_slice().to_vec();
            self.data = Arc::new(detached);
            self.off = 0;
        }
        let len = self.len;
        let v = Arc::get_mut(&mut self.data).expect("detached buffer is uniquely owned");
        &mut v[..len]
    }

    /// Concatenates adjacent views of the *same* allocation without
    /// copying. Returns `None` if the parts come from different
    /// allocations or are not contiguous in their backing store.
    pub fn try_concat(parts: &[BlockBuf]) -> Option<BlockBuf> {
        let first = parts.first()?;
        let mut end = first.off + first.len;
        for p in &parts[1..] {
            if !Arc::ptr_eq(&p.data, &first.data) || p.off != end {
                return None;
            }
            end += p.len;
        }
        Some(BlockBuf {
            data: Arc::clone(&first.data),
            off: first.off,
            len: end - first.off,
        })
    }

    /// Joins `parts` into one buffer: the zero-copy view of
    /// [`Self::try_concat`] when they are adjacent views of one
    /// allocation, otherwise (mixed provenance) a gather-copy into a
    /// fresh one. The flag reports whether the bytes had to be copied.
    ///
    /// The parts come from an iterator, so a caller that produces them
    /// one by one needs no vector of them: they are extended as one view
    /// while they stay adjacent in one allocation, and the first that is
    /// not turns the rest into a gather-copy.
    pub fn join(parts: impl IntoIterator<Item = BlockBuf>) -> (BlockBuf, bool) {
        let mut parts = parts.into_iter();
        let Some(mut run) = parts.next() else {
            return (BlockBuf::new(), false);
        };
        while let Some(p) = parts.next() {
            if Arc::ptr_eq(&p.data, &run.data) && p.off == run.off + run.len {
                run.len += p.len;
                continue;
            }
            let mut out = Vec::with_capacity(run.len + p.len * (1 + parts.size_hint().0));
            out.extend_from_slice(&run);
            out.extend_from_slice(&p);
            parts.for_each(|p| out.extend_from_slice(&p));
            return (BlockBuf::from(out), true);
        }
        (run, false)
    }
}

impl Default for BlockBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for BlockBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for BlockBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for BlockBuf {
    /// Adopts the vector's allocation — no copy.
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Self {
            data: Arc::new(v),
            off: 0,
            len,
        }
    }
}

impl From<&[u8]> for BlockBuf {
    fn from(s: &[u8]) -> Self {
        Self::from(s.to_vec())
    }
}

impl From<&Vec<u8>> for BlockBuf {
    fn from(v: &Vec<u8>) -> Self {
        Self::from(v.clone())
    }
}

impl<const N: usize> From<&[u8; N]> for BlockBuf {
    fn from(a: &[u8; N]) -> Self {
        Self::from(a.to_vec())
    }
}

impl From<BlockBuf> for Vec<u8> {
    fn from(b: BlockBuf) -> Vec<u8> {
        match Arc::try_unwrap(b.data) {
            // Sole owner of a full view: hand the allocation back.
            Ok(v) if b.off == 0 && b.len == v.len() => v,
            Ok(v) => v[b.off..b.off + b.len].to_vec(),
            Err(shared) => shared[b.off..b.off + b.len].to_vec(),
        }
    }
}

impl fmt::Debug for BlockBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_slice();
        let preview = &s[..s.len().min(8)];
        write!(
            f,
            "BlockBuf {{ len: {}, shared: {}, bytes: {:?}{} }}",
            self.len,
            self.is_shared(),
            preview,
            if s.len() > 8 { ", .." } else { "" }
        )
    }
}

impl PartialEq for BlockBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for BlockBuf {}

impl PartialEq<[u8]> for BlockBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for BlockBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for BlockBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<BlockBuf> for Vec<u8> {
    fn eq(&self, other: &BlockBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<BlockBuf> for [u8] {
    fn eq(&self, other: &BlockBuf) -> bool {
        self == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for BlockBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_and_slice_share_the_allocation() {
        let b = BlockBuf::from(vec![1u8, 2, 3, 4, 5, 6, 7, 8]);
        assert!(!b.is_shared());
        let c = b.clone();
        assert!(b.is_shared() && c.is_shared());
        let s = b.slice(2..6);
        assert_eq!(s, vec![3u8, 4, 5, 6]);
        assert_eq!(s.len(), 4);
        // Slicing a slice composes offsets.
        assert_eq!(s.slice(1..3), vec![4u8, 5]);
    }

    #[test]
    fn make_mut_in_place_when_unique() {
        let mut b = BlockBuf::from(vec![0u8; 4]);
        assert!(!b.is_shared());
        b.make_mut()[0] = 9;
        assert_eq!(b, vec![9u8, 0, 0, 0]);
    }

    #[test]
    fn make_mut_detaches_shared_buffers() {
        let mut b = BlockBuf::from(vec![1u8, 2, 3, 4]);
        let original = b.clone();
        assert!(b.is_shared());
        b.make_mut()[0] = 99;
        assert_eq!(original, vec![1u8, 2, 3, 4]);
        assert_eq!(b, vec![99u8, 2, 3, 4]);
        // After detaching, b is unique again.
        assert!(!b.is_shared());
    }

    #[test]
    fn make_mut_detaches_sub_slices() {
        let base = BlockBuf::from(vec![1u8, 2, 3, 4]);
        let mut s = base.slice(1..3);
        s.make_mut()[0] = 7;
        assert_eq!(s, vec![7u8, 3]);
        assert_eq!(base, vec![1u8, 2, 3, 4]);
    }

    #[test]
    fn try_concat_rejoins_adjacent_views() {
        let run = BlockBuf::from((0u8..16).collect::<Vec<_>>());
        let parts: Vec<_> = (0..4).map(|i| run.slice(i * 4..(i + 1) * 4)).collect();
        let joined = BlockBuf::try_concat(&parts).expect("adjacent views rejoin");
        assert_eq!(joined, run);
        assert_eq!(BlockBuf::join(parts.clone()), (run.clone(), false));

        // Views from different allocations do not concat — `join`
        // gathers them into a fresh buffer and says so.
        let foreign = BlockBuf::from(vec![0u8; 4]);
        let mixed = [parts[0].clone(), foreign];
        assert!(BlockBuf::try_concat(&mixed).is_none());
        assert_eq!(
            BlockBuf::join(mixed.clone()),
            (BlockBuf::from(vec![0u8, 1, 2, 3, 0, 0, 0, 0]), true)
        );

        // Non-adjacent views of the same allocation do not concat.
        assert!(BlockBuf::try_concat(&[parts[0].clone(), parts[2].clone()]).is_none());
    }

    #[test]
    fn vec_round_trip_recovers_the_allocation() {
        let v = vec![5u8; 1024];
        let p = v.as_ptr();
        let b = BlockBuf::from(v);
        let back: Vec<u8> = b.into();
        assert_eq!(back.as_ptr(), p, "unique full-view round trip is move");
    }
}
