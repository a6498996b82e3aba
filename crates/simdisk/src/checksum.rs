//! CRC32 sector checksums — the detection half of self-healing storage.
//!
//! The paper claims the facility withstands "system and media failure"
//! (§1); media failure includes *silent* corruption, where the platter
//! returns bytes that are simply wrong. The simulated drive keeps a CRC32
//! per sector in an out-of-band checksum lane (real drives put it in the
//! sector trailer next to the servo/ECC bytes) and verifies it on every
//! read, so a flipped sector surfaces as a typed
//! [`DiskError::ChecksumMismatch`](crate::DiskError::ChecksumMismatch)
//! instead of being handed to a client as good data.
//!
//! Real drives compute that ECC in hardware at line speed, so the
//! simulation computes a sector's CRC only when it has to: a write stores
//! none, and fault injection seals the checksum of the content it is about
//! to damage before touching it. Detection is the same as if every write
//! had computed it; see `Stored` in `disk.rs`.

/// CRC32 (IEEE 802.3, reflected) slice-by-8 lookup tables, built at
/// compile time. Table 0 is the classic byte-at-a-time table; table `t`
/// advances a byte through `t` further zero bytes, letting [`crc32`]
/// consume eight input bytes per step with no serial dependency between
/// the eight table lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC32 (IEEE) of `data`, slice-by-8 — the per-sector checksum of the
/// simulated drive's checksum lane, and the frame checksum of the
/// transaction service's intention log. The lane pays it only when fault
/// injection damages a sector and when a damaged sector is read or
/// scanned; the log pays it on every frame it writes and recovers.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a offset basis: the `h` a fingerprint starts from.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds `bytes` into the FNV-1a hash `h` — the stable-record checksum
/// and every content fingerprint (platter images, cluster namespaces,
/// the experiments' byte histories).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut sector = vec![0xA5u8; crate::SECTOR_SIZE];
        let good = crc32(&sector);
        sector[1000] ^= 0x01;
        assert_ne!(crc32(&sector), good);
    }
}
