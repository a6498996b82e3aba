//! Erasure-coded striping support: RAID-5/6 parity groups.
//!
//! Replication (PR 3) buys fault tolerance at Nx raw storage and Nx
//! write bandwidth. This module implements the cheap-redundancy tier
//! from ROADMAP item 3: file blocks are grouped into stripe *rows* of
//! `k` data units plus `m` parity units (`m = 1` is plain XOR, RAID-5;
//! `m = 2` adds a Reed-Solomon `Q` parity over GF(256), RAID-6), so a
//! group survives any `m` simultaneous unit losses at `(k+m)/k` raw
//! storage instead of `(m+1)x`.
//!
//! The GF(256) arithmetic uses the conventional polynomial `0x11d`
//! with table-driven multiply (const-fn built exp/log tables, the exp
//! table doubled so `exp[log a + log b]` needs no modular reduction).
//! The `Q` parity coefficient for data slot `u` is `g^u` where `g = 2`
//! is the field generator; `P` uses coefficient 1 for every slot, so
//! the two parities form a classic P+Q code with closed-form two-
//! erasure recovery (no general matrix inversion needed for `m <= 2`).
//!
//! [`reconstruct`] recovers any pattern of at most `m` lost units in a
//! row; [`compute_parity`] produces the parity units of a full row.
//! The write-path technique selection (full-stripe / parity-delta /
//! reconstruct-write) lives in the service layer, which calls into the
//! buffer kernels here ([`xor_into`], [`mul_acc`]).

/// Maximum number of parity units per stripe row. `m = 1` is RAID-5
/// (XOR only), `m = 2` is RAID-6 (P+Q); larger `m` would need general
/// Reed-Solomon decoding, which this tier deliberately avoids.
pub const MAX_PARITY: usize = 2;

/// Builds the GF(256) exp/log tables for polynomial `0x11d` at compile
/// time. `exp` is doubled (512 entries) so a product of two logs never
/// needs reduction mod 255.
const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11d;
        }
        i += 1;
    }
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    (exp, log)
}

const TABLES: ([u8; 512], [u8; 256]) = build_tables();
const GF_EXP: [u8; 512] = TABLES.0;
const GF_LOG: [u8; 256] = TABLES.1;

/// GF(256) multiply (polynomial `0x11d`).
#[inline]
pub fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        GF_EXP[GF_LOG[a as usize] as usize + GF_LOG[b as usize] as usize]
    }
}

/// GF(256) multiplicative inverse. Panics on zero (zero has none).
#[inline]
pub fn gf_inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no inverse in GF(256)");
    GF_EXP[255 - GF_LOG[a as usize] as usize]
}

/// The `Q`-parity coefficient for data slot `u`: `g^u` with `g = 2`.
#[inline]
fn gf_pow2(u: usize) -> u8 {
    GF_EXP[u % 255]
}

/// The coefficient of data slot `u` in parity `j`: all-ones for `P`
/// (`j = 0`), `g^u` for `Q` (`j = 1`). Public so the write path can
/// fold a data delta straight into each parity unit (`P' = P ⊕ δ`,
/// `Q' = Q ⊕ g^u·δ`) without re-reading the whole row.
#[inline]
pub fn coef(j: usize, u: usize) -> u8 {
    if j == 0 {
        1
    } else {
        gf_pow2(u)
    }
}

/// `dst ^= src`, byte-wise. The XOR kernel both parities reduce to
/// when the coefficient is 1 (all of RAID-5, and deltas with `c = 1`).
#[inline]
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= *s;
    }
}

/// `dst ^= c * src` in GF(256), byte-wise. Fast paths: `c = 0` is a
/// no-op, `c = 1` is a plain XOR; otherwise one exp-table base index
/// is hoisted out of the loop.
#[inline]
pub fn mul_acc(dst: &mut [u8], c: u8, src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    match c {
        0 => {}
        1 => xor_into(dst, src),
        _ => {
            let lc = GF_LOG[c as usize] as usize;
            for (d, s) in dst.iter_mut().zip(src) {
                if *s != 0 {
                    *d ^= GF_EXP[lc + GF_LOG[*s as usize] as usize];
                }
            }
        }
    }
}

/// `buf *= c` in GF(256), byte-wise.
fn scale_in_place(buf: &mut [u8], c: u8) {
    for b in buf.iter_mut() {
        *b = gf_mul(c, *b);
    }
}

/// Computes the `m` parity units of a full stripe row from its `k`
/// data units (each `len` bytes; a short slice is treated as
/// zero-padded — virtual zero units past end-of-file simply pass an
/// empty slice).
pub fn compute_parity(data: &[&[u8]], m: usize, len: usize) -> Vec<Vec<u8>> {
    assert!(m <= MAX_PARITY);
    (0..m)
        .map(|j| {
            let mut p = vec![0u8; len];
            for (u, d) in data.iter().enumerate() {
                mul_acc(&mut p[..d.len()], coef(j, u), d);
            }
            p
        })
        .collect()
}

/// The parity units of a row after a small write: each of `parity`
/// with every changed data unit's delta `δ = old ⊕ new` folded in
/// (`P' = P ⊕ δ`, `Q' = Q ⊕ g^slot·δ`). A `new` shorter than `old` is
/// zero-padded, so the tail of its δ is the old bytes.
pub fn fold_deltas<'a>(
    parity: &[impl AsRef<[u8]>],
    changes: impl IntoIterator<Item = (usize, &'a [u8], &'a [u8])>,
) -> Vec<Vec<u8>> {
    let mut parity: Vec<Vec<u8>> = parity.iter().map(|p| p.as_ref().to_vec()).collect();
    for (slot, old, new) in changes {
        let mut delta = old.to_vec();
        xor_into(&mut delta[..new.len()], new);
        for (j, p) in parity.iter_mut().enumerate() {
            mul_acc(p, coef(j, slot), &delta);
        }
    }
    parity
}

/// A row with more units lost than its parity count can recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyErasures {
    /// Units missing from the row.
    pub lost: usize,
    /// Parity units (= the row's erasure tolerance).
    pub tolerance: usize,
}

/// Recovers every missing unit of one stripe row in place.
///
/// `units` holds the row's `k` data units followed by its `m = len-k`
/// parity units; `None` marks an erased unit. All present units must
/// be `len` bytes. Succeeds whenever at most `m` units are missing
/// (the defining property of the P+Q code); on success every entry is
/// `Some`. Fails without touching anything if more than `m` units are
/// gone.
pub fn reconstruct(
    units: &mut [Option<Vec<u8>>],
    k: usize,
    len: usize,
) -> Result<(), TooManyErasures> {
    let m = units.len() - k;
    assert!(m <= MAX_PARITY, "at most {MAX_PARITY} parity units");
    let lost = units.iter().filter(|u| u.is_none()).count();
    if lost == 0 {
        return Ok(());
    }
    if lost > m {
        return Err(TooManyErasures { lost, tolerance: m });
    }
    let data_lost: Vec<usize> = (0..k).filter(|&u| units[u].is_none()).collect();
    match data_lost[..] {
        [] => {}
        [x] => {
            if let Some(p) = &units[k] {
                // P survives: d_x = P xor sum of the other data units.
                let mut acc = p.clone();
                for (u, unit) in units.iter().enumerate().take(k) {
                    if u != x {
                        xor_into(&mut acc, unit.as_ref().unwrap());
                    }
                }
                units[x] = Some(acc);
            } else {
                // P is the other casualty, so m = 2 and Q survives:
                // d_x = (Q xor sum g^u d_u) / g^x.
                let q = units[k + 1].as_ref().expect("lost <= m guarantees Q");
                let mut acc = q.clone();
                for (u, unit) in units.iter().enumerate().take(k) {
                    if u != x {
                        mul_acc(&mut acc, gf_pow2(u), unit.as_ref().unwrap());
                    }
                }
                scale_in_place(&mut acc, gf_inv(gf_pow2(x)));
                units[x] = Some(acc);
            }
        }
        [x, y] => {
            // Two data units gone: lost <= m = 2 means both parities
            // survive. With sp = d_x xor d_y and sq = g^x d_x xor
            // g^y d_y (the parity syndromes less the surviving data),
            // g^y sp xor sq = (g^x xor g^y) d_x.
            let p = units[k].as_ref().expect("lost <= m guarantees P");
            let q = units[k + 1].as_ref().expect("lost <= m guarantees Q");
            let mut sp = p.clone();
            let mut sq = q.clone();
            for (u, unit) in units.iter().enumerate().take(k) {
                if u != x && u != y {
                    let d = unit.as_ref().unwrap();
                    xor_into(&mut sp, d);
                    mul_acc(&mut sq, gf_pow2(u), d);
                }
            }
            let denom_inv = gf_inv(gf_pow2(x) ^ gf_pow2(y));
            let mut dx = vec![0u8; len];
            mul_acc(&mut dx, gf_mul(gf_pow2(y), denom_inv), &sp);
            mul_acc(&mut dx, denom_inv, &sq);
            let mut dy = sp;
            xor_into(&mut dy, &dx);
            units[x] = Some(dx);
            units[y] = Some(dy);
        }
        _ => unreachable!("lost <= m <= 2 bounds data erasures"),
    }
    // Data is now complete; recompute any lost parity from it.
    for j in 0..m {
        if units[k + j].is_none() {
            let mut p = vec![0u8; len];
            for (u, unit) in units.iter().enumerate().take(k) {
                mul_acc(&mut p, coef(j, u), unit.as_ref().unwrap());
            }
            units[k + j] = Some(p);
        }
    }
    Ok(())
}

/// How the service lays redundancy over its disks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Redundancy {
    /// No intra-service redundancy (replication, if any, happens a
    /// layer up). The default, and the only mode before this tier.
    #[default]
    None,
    /// Erasure-coded striping: every `k` consecutive file blocks form
    /// a stripe row protected by `m` parity units with rotating
    /// placement across the spindles. Requires at least `k + m` disks.
    Parity {
        /// Data units per stripe row.
        k: usize,
        /// Parity units per row (1 = RAID-5, 2 = RAID-6).
        m: usize,
    },
}

impl Redundancy {
    /// The `(k, m)` geometry, or `None` when parity is off.
    pub fn params(&self) -> Option<(usize, usize)> {
        match *self {
            Redundancy::None => None,
            Redundancy::Parity { k, m } => Some((k, m)),
        }
    }

    /// Whether this is a parity mode.
    pub fn is_parity(&self) -> bool {
        matches!(self, Redundancy::Parity { .. })
    }
}

/// Cumulative counters for the parity tier: which write technique the
/// service picked, how often reads ran degraded, and rebuild progress.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParityStats {
    /// Rows written with the no-read fast path (every live unit of the
    /// row was dirty, parity computed purely in memory).
    pub full_stripe_writes: u64,
    /// Rows written as read-old-data + read-old-parity + XOR-delta —
    /// the classic RAID small write, paid as one coalesced elevator
    /// batch.
    pub parity_delta_writes: u64,
    /// Rows written by reading the unchanged units and recomputing
    /// parity from scratch (mid-sized updates, or rows whose parity
    /// was not yet initialised).
    pub reconstruct_writes: u64,
    /// Block reads served by reconstructing from parity because the
    /// block's home disk is degraded. Never an error while at most `m`
    /// units of the row are lost.
    pub degraded_reads: u64,
    /// Stripe units rewritten onto a spare by the background rebuild.
    pub rebuild_pages: u64,
}

impl ParityStats {
    /// Adds another snapshot into this one (aggregation across the
    /// services of an agent).
    pub fn merge(&mut self, other: &ParityStats) {
        self.full_stripe_writes += other.full_stripe_writes;
        self.parity_delta_writes += other.parity_delta_writes;
        self.reconstruct_writes += other.reconstruct_writes;
        self.degraded_reads += other.degraded_reads;
        self.rebuild_pages += other.rebuild_pages;
    }

    /// Returns the difference `self - earlier`, counter by counter.
    pub fn delta_since(&self, earlier: &ParityStats) -> ParityStats {
        ParityStats {
            full_stripe_writes: self.full_stripe_writes - earlier.full_stripe_writes,
            parity_delta_writes: self.parity_delta_writes - earlier.parity_delta_writes,
            reconstruct_writes: self.reconstruct_writes - earlier.reconstruct_writes,
            degraded_reads: self.degraded_reads - earlier.degraded_reads,
            rebuild_pages: self.rebuild_pages - earlier.rebuild_pages,
        }
    }
}

/// Result of one [`FileService::rebuild`](crate::FileService::rebuild)
/// call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebuildReport {
    /// Stripe units rewritten onto the spare this call.
    pub pages: u64,
    /// Whether every degraded disk is fully rebuilt (and its degraded
    /// flag cleared). A budgeted call that ran out resumes from its
    /// cursor next time.
    pub complete: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny deterministic RNG (splitmix64) for test patterns.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next() as u8).collect()
        }
    }

    #[test]
    fn field_axioms_hold() {
        // Spot-check multiplicative structure over the whole field.
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a = {a}");
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(a, 0), 0);
        }
        // Known products for polynomial 0x11d.
        assert_eq!(gf_mul(2, 128), 0x1d);
        assert_eq!(gf_mul(0x53, 0xca), 0x8f);
    }

    #[test]
    fn mul_acc_matches_scalar_multiply() {
        let mut rng = Rng(7);
        let src = rng.bytes(64);
        for c in [0u8, 1, 2, 0x1d, 0xfe] {
            let mut dst = rng.bytes(64);
            let want: Vec<u8> = dst
                .iter()
                .zip(&src)
                .map(|(d, s)| d ^ gf_mul(c, *s))
                .collect();
            mul_acc(&mut dst, c, &src);
            assert_eq!(dst, want, "c = {c}");
        }
    }

    /// Every erasure pattern of every (k, m) geometry up to RAID-6
    /// must round-trip: compute parity, erase, reconstruct, compare.
    #[test]
    fn all_erasure_patterns_reconstruct() {
        const LEN: usize = 128;
        let mut rng = Rng(42);
        for k in 2..=5usize {
            for m in 1..=2usize {
                let data: Vec<Vec<u8>> = (0..k).map(|_| rng.bytes(LEN)).collect();
                let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
                let parity = compute_parity(&refs, m, LEN);
                let full: Vec<Vec<u8>> = data.iter().chain(parity.iter()).cloned().collect();
                let n = k + m;
                // All single erasures, and all pairs when m = 2.
                let mut patterns: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
                if m == 2 {
                    for i in 0..n {
                        for j in i + 1..n {
                            patterns.push(vec![i, j]);
                        }
                    }
                }
                for pat in patterns {
                    let mut units: Vec<Option<Vec<u8>>> =
                        full.iter().map(|u| Some(u.clone())).collect();
                    for &i in &pat {
                        units[i] = None;
                    }
                    reconstruct(&mut units, k, LEN)
                        .unwrap_or_else(|e| panic!("k={k} m={m} pattern {pat:?} failed: {e:?}"));
                    for (i, (got, want)) in units.iter().zip(&full).enumerate() {
                        assert_eq!(
                            got.as_ref().unwrap(),
                            want,
                            "k={k} m={m} pattern {pat:?} unit {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn too_many_erasures_is_a_typed_error() {
        let mut rng = Rng(3);
        let data: Vec<Vec<u8>> = (0..3).map(|_| rng.bytes(32)).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = compute_parity(&refs, 1, 32);
        let mut units: Vec<Option<Vec<u8>>> = data
            .iter()
            .chain(parity.iter())
            .map(|u| Some(u.clone()))
            .collect();
        units[0] = None;
        units[2] = None;
        assert_eq!(
            reconstruct(&mut units, 3, 32),
            Err(TooManyErasures {
                lost: 2,
                tolerance: 1
            })
        );
    }

    #[test]
    fn short_data_units_are_zero_padded() {
        // A virtual (beyond-EOF) unit enters as an empty slice and
        // must act like a zero unit.
        let a = vec![0xAB; 16];
        let parity = compute_parity(&[&a, &[]], 2, 16);
        assert_eq!(parity[0], a, "P of (a, 0) is a");
        let zeros = vec![0u8; 16];
        let mut units = vec![
            Some(a.clone()),
            None,
            Some(parity[0].clone()),
            Some(parity[1].clone()),
        ];
        reconstruct(&mut units, 2, 16).unwrap();
        assert_eq!(units[1].as_ref().unwrap(), &zeros);
    }

    #[test]
    fn parity_delta_identity_holds() {
        // newP = oldP xor delta and newQ = oldQ xor g^u * delta — the
        // small-write path must agree with full recomputation.
        let mut rng = Rng(11);
        const LEN: usize = 96;
        let old: Vec<Vec<u8>> = (0..4).map(|_| rng.bytes(LEN)).collect();
        let refs: Vec<&[u8]> = old.iter().map(|d| d.as_slice()).collect();
        let parity = compute_parity(&refs, 2, LEN);
        let slot = 2;
        let newdata = rng.bytes(LEN);
        let parity = fold_deltas(&parity, [(slot, &old[slot][..], &newdata[..])]);
        let mut fresh = old.clone();
        fresh[slot] = newdata;
        let fresh_refs: Vec<&[u8]> = fresh.iter().map(|d| d.as_slice()).collect();
        assert_eq!(parity, compute_parity(&fresh_refs, 2, LEN));
    }

    #[test]
    fn stats_merge_and_delta_are_inverse() {
        let a = ParityStats {
            full_stripe_writes: 4,
            parity_delta_writes: 3,
            reconstruct_writes: 2,
            degraded_reads: 1,
            rebuild_pages: 9,
        };
        let mut b = a;
        let extra = ParityStats {
            full_stripe_writes: 1,
            parity_delta_writes: 1,
            reconstruct_writes: 0,
            degraded_reads: 5,
            rebuild_pages: 2,
        };
        b.merge(&extra);
        assert_eq!(b.delta_since(&a), extra);
    }

    #[test]
    fn redundancy_params() {
        assert_eq!(Redundancy::None.params(), None);
        assert!(!Redundancy::None.is_parity());
        let r = Redundancy::Parity { k: 4, m: 2 };
        assert_eq!(r.params(), Some((4, 2)));
        assert!(r.is_parity());
        assert_eq!(Redundancy::default(), Redundancy::None);
    }
}
