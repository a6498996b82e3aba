//! The driver's own picture of what every file must contain. Every
//! rung of every workload applies its requests here as well as to the
//! program, and compares every byte it reads back.

use crate::gen::{Kind, Layout, Req, SEED_BYTE};

/// Byte-exact contents of all files of a [`Layout`].
#[derive(Debug, Clone)]
pub struct Model {
    files: Vec<Vec<u8>>,
}

impl Model {
    /// All files at their seeded state.
    pub fn new(layout: Layout) -> Self {
        Self {
            files: vec![vec![SEED_BYTE; layout.file_bytes as usize]; layout.files],
        }
    }

    pub fn file(&self, file: usize) -> &[u8] {
        &self.files[file]
    }

    /// Applies a write request (both files of a cross-shard one).
    pub fn write(&mut self, r: &Req) {
        let range = r.offset as usize..r.offset as usize + r.len as usize;
        self.files[r.file as usize][range.clone()].fill(r.byte);
        if r.kind == Kind::Cross {
            self.files[r.file2 as usize][range].fill(r.byte);
        }
    }

    /// Bumps the 8-byte little-endian counter of an update request and
    /// returns `(value before, value after)`.
    pub fn update(&mut self, r: &Req) -> (u64, u64) {
        let at = r.offset as usize;
        let cell = &mut self.files[r.file as usize][at..at + 8];
        let before = u64::from_le_bytes((&*cell).try_into().expect("8 bytes"));
        let after = before.wrapping_add(1);
        cell.copy_from_slice(&after.to_le_bytes());
        (before, after)
    }

    /// Whether `got` is what a read of `r` must return.
    pub fn matches(&self, r: &Req, got: &[u8]) -> bool {
        let at = r.offset as usize;
        got == &self.files[r.file as usize][at..at + r.len as usize]
    }

    /// FNV-1a over every file in order — compared with the same hash of
    /// the server's contents at the end of the agent workloads.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for f in &self.files {
            h = fnv1a(h, f);
        }
        h
    }
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

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

    fn req(kind: Kind, file: u16, offset: u64, len: u32, byte: u8) -> Req {
        Req {
            kind,
            client: 0,
            file,
            file2: 1,
            offset,
            len,
            byte,
        }
    }

    #[test]
    fn writes_updates_and_reads_agree() {
        let mut m = Model::new(Layout {
            files: 2,
            file_bytes: 64,
        });
        assert!(m.matches(&req(Kind::Read, 0, 8, 4, 0), &[SEED_BYTE; 4]));
        m.write(&req(Kind::Write, 0, 8, 4, 7));
        assert!(m.matches(
            &req(Kind::Read, 0, 6, 8, 0),
            &[0xA5, 0xA5, 7, 7, 7, 7, 0xA5, 0xA5]
        ));
        assert!(!m.matches(&req(Kind::Read, 0, 8, 4, 0), &[7, 7, 7, 8]));
        m.write(&req(Kind::Cross, 0, 0, 2, 9));
        assert_eq!(&m.file(1)[..3], &[9, 9, 0xA5]);
        let u = req(Kind::Update, 1, 16, 8, 0);
        m.write(&req(Kind::Write, 1, 16, 8, 0));
        assert_eq!(m.update(&u), (0, 1));
        assert_eq!(m.update(&u), (1, 2));
        let before = m.fingerprint();
        m.update(&u);
        assert_ne!(before, m.fingerprint());
    }
}
