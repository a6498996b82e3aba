//! Request streams. Everything the program under test sees is drawn
//! here from `--seed` — SplitMix64 plus a quantised Zipf sampler, both
//! integer-only on the sampling path so a seed means the same stream on
//! every machine — and handed over one epoch at a time, before that
//! epoch's clock starts.

/// Bytes per block of the file service (`rhodos_disk_service::BLOCK_SIZE`).
pub const BS: u64 = rhodos_disk_service::BLOCK_SIZE as u64;

/// splitmix64 — the standard 64-bit mixing PRNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Zipfian popularity over `n` ranks. Weights `1/rank^skew` are
/// quantised to integers (parts per 1e9 of the top rank), so the CDF is
/// identical across platforms despite `powf` on the construction path.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<u64>,
}

impl Zipf {
    pub fn new(n: usize, skew: f64) -> Self {
        assert!(n > 0, "zipf over zero ranks");
        let mut total = 0u64;
        let cdf = (1..=n)
            .map(|rank| {
                total += ((1e9 / (rank as f64).powf(skew)).round() as u64).max(1);
                total
            })
            .collect();
        Self { cdf }
    }

    /// Samples a rank in `0..n` (0 = most popular).
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let x = rng.below(*self.cdf.last().expect("n > 0")) + 1;
        self.cdf.partition_point(|&c| c < x)
    }
}

/// What one request asks for. The request *class* the metrics are
/// keyed by is [`Kind::class`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Read `len` bytes at `offset` of `file`.
    Read,
    /// Overwrite `len` bytes at `offset` of `file` with `byte`.
    Write,
    /// Read-modify-write of the 8-byte counter at `offset` of `file`.
    Update,
    /// Make `file`'s earlier writes reach the server (agent `flush`).
    Flush,
    /// Atomically write `len` × `byte` at `offset` of `file` and `file2`.
    Cross,
}

/// Request classes of the end-to-end metrics.
pub const READ: usize = 0;
pub const WRITE: usize = 1;
pub const COMMIT: usize = 2;

impl Kind {
    /// The latency vector a request of this kind reports into.
    pub fn class(self) -> usize {
        match self {
            Kind::Read => READ,
            Kind::Write | Kind::Update => WRITE,
            Kind::Flush | Kind::Cross => COMMIT,
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    pub kind: Kind,
    /// Issuing client (agent index; 0 where there is one client).
    pub client: u8,
    pub file: u16,
    /// Second file of a [`Kind::Cross`].
    pub file2: u16,
    pub offset: u64,
    pub len: u32,
    pub byte: u8,
}

impl Req {
    /// Bytes the client asks to move (a cross-shard commit writes twice).
    pub fn user_bytes(&self) -> u64 {
        u64::from(self.len) * if self.kind == Kind::Cross { 2 } else { 1 }
    }
}

/// Shape of the files a stream addresses — all the lower rungs of the
/// ladder need to lay the same byte ranges out on their own device.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    pub files: usize,
    pub file_bytes: u64,
}

/// Byte every file is filled with before the measured phase.
pub const SEED_BYTE: u8 = 0xA5;

/// A deterministic request source: `fill` appends one epoch's worth.
pub trait Stream {
    fn layout(&self) -> Layout;
    fn fill(&mut self, out: &mut Vec<Req>);
}

/// The E20 transaction mix: 70 % read txn (1 KiB), 20 % write txn
/// (1 KiB overwrite), 10 % update txn (8-byte counter), Zipf 0.9 over
/// 48 files × 4 blocks. The counter lives at byte 1024 of its block so
/// it shares the page lock with the 1 KiB region without sharing bytes:
/// a reader can then demand a uniform 1 KiB and an exact counter.
#[derive(Debug, Clone)]
pub struct TxnMix {
    rng: SplitMix64,
    zipf: Zipf,
    epoch_len: usize,
}

pub const TXN_FILES: usize = 48;
pub const TXN_FILE_BLOCKS: u64 = 4;
/// Offset of the update counter inside its block.
pub const COUNTER_AT: u64 = 1024;

impl TxnMix {
    pub fn new(seed: u64, epoch_len: usize) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            zipf: Zipf::new(TXN_FILES, 0.9),
            epoch_len,
        }
    }
}

impl Stream for TxnMix {
    fn layout(&self) -> Layout {
        Layout {
            files: TXN_FILES,
            file_bytes: TXN_FILE_BLOCKS * BS,
        }
    }

    fn fill(&mut self, out: &mut Vec<Req>) {
        for _ in 0..self.epoch_len {
            let p = self.rng.below(100);
            let file = self.zipf.sample(&mut self.rng) as u16;
            let block = self.rng.below(TXN_FILE_BLOCKS);
            let byte = self.rng.next_u64() as u8;
            let (kind, offset, len) = match p {
                0..70 => (Kind::Read, block * BS, 1024),
                70..90 => (Kind::Write, block * BS, 1024),
                _ => (Kind::Update, block * BS + COUNTER_AT, 8),
            };
            out.push(Req {
                kind,
                client: 0,
                file,
                file2: 0,
                offset,
                len,
                byte,
            });
        }
    }
}

/// Four agents, each with 16 private files and all sharing 8 more, of
/// 8 blocks each. Per request: random agent, 90 % private / 10 %
/// shared (Zipf 0.9 within the set), 80 % read / 20 % write of 1 KiB;
/// every 256th request of an agent is a `flush` of the file it drew.
#[derive(Debug, Clone)]
pub struct LeaseMix {
    rng: SplitMix64,
    private: Zipf,
    shared: Zipf,
    issued: [u32; LEASE_AGENTS],
    epoch_len: usize,
}

pub const LEASE_AGENTS: usize = 4;
pub const LEASE_PRIVATE: usize = 16;
pub const LEASE_SHARED: usize = 8;
pub const LEASE_FILE_BLOCKS: u64 = 8;
const LEASE_FLUSH_EVERY: u32 = 256;

impl LeaseMix {
    pub fn new(seed: u64, epoch_len: usize) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            private: Zipf::new(LEASE_PRIVATE, 0.9),
            shared: Zipf::new(LEASE_SHARED, 0.9),
            issued: [0; LEASE_AGENTS],
            epoch_len,
        }
    }
}

impl Stream for LeaseMix {
    /// Files `a*16 .. a*16+16` are agent `a`'s; the last 8 are shared.
    fn layout(&self) -> Layout {
        Layout {
            files: LEASE_AGENTS * LEASE_PRIVATE + LEASE_SHARED,
            file_bytes: LEASE_FILE_BLOCKS * BS,
        }
    }

    fn fill(&mut self, out: &mut Vec<Req>) {
        for _ in 0..self.epoch_len {
            let client = self.rng.below(LEASE_AGENTS as u64) as usize;
            let file = if self.rng.below(100) < 90 {
                client * LEASE_PRIVATE + self.private.sample(&mut self.rng)
            } else {
                LEASE_AGENTS * LEASE_PRIVATE + self.shared.sample(&mut self.rng)
            };
            let read = self.rng.below(100) < 80;
            let block = self.rng.below(LEASE_FILE_BLOCKS);
            let byte = self.rng.next_u64() as u8;
            self.issued[client] += 1;
            let kind = if self.issued[client].is_multiple_of(LEASE_FLUSH_EVERY) {
                Kind::Flush
            } else if read {
                Kind::Read
            } else {
                Kind::Write
            };
            out.push(Req {
                kind,
                client: client as u8,
                file: file as u16,
                file2: 0,
                offset: block * BS,
                len: if kind == Kind::Flush { 0 } else { 1024 },
                byte,
            });
        }
    }
}

/// Large sequential transfers: write a whole file in 64 KiB `pwrite`s,
/// flush it, then read the file written half a cycle earlier (long
/// evicted from every cache) in 64 KiB `pread`s; cycle, overwriting.
/// The seed picks the starting file and the payload bytes.
#[derive(Debug, Clone)]
pub struct StreamMix {
    rng: SplitMix64,
    files: usize,
    file_bytes: u64,
    /// Position in the endless write-flush-read cycle.
    file: usize,
    step: u64,
    epoch_len: usize,
}

pub const STREAM_CHUNK: u64 = 64 * 1024;

impl StreamMix {
    pub fn new(seed: u64, files: usize, file_bytes: u64, epoch_len: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let file = rng.below(files as u64) as usize;
        Self {
            rng,
            files,
            file_bytes,
            file,
            step: 0,
            epoch_len,
        }
    }
}

impl Stream for StreamMix {
    fn layout(&self) -> Layout {
        Layout {
            files: self.files,
            file_bytes: self.file_bytes,
        }
    }

    fn fill(&mut self, out: &mut Vec<Req>) {
        let chunks = self.file_bytes / STREAM_CHUNK;
        for _ in 0..self.epoch_len {
            let byte = self.rng.next_u64() as u8;
            let (kind, file, chunk) = if self.step < chunks {
                (Kind::Write, self.file, self.step)
            } else if self.step == chunks {
                (Kind::Flush, self.file, 0)
            } else {
                let cold = (self.file + self.files / 2) % self.files;
                (Kind::Read, cold, self.step - chunks - 1)
            };
            out.push(Req {
                kind,
                client: 0,
                file: file as u16,
                file2: 0,
                offset: chunk * STREAM_CHUNK,
                len: if kind == Kind::Flush {
                    0
                } else {
                    STREAM_CHUNK as u32
                },
                byte,
            });
            self.step += 1;
            if self.step == 2 * chunks + 1 {
                self.step = 0;
                self.file = (self.file + 1) % self.files;
            }
        }
    }
}

/// Cluster traffic: 70 % read, 25 % write of 1 KiB, 5 % cross-shard
/// commit of two 1 KiB writes to two distinct files; Zipf 0.9 over
/// 64 files × 4 blocks.
#[derive(Debug, Clone)]
pub struct ClusterMix {
    rng: SplitMix64,
    zipf: Zipf,
    epoch_len: usize,
}

pub const CLUSTER_FILES: usize = 64;
pub const CLUSTER_FILE_BLOCKS: u64 = 4;

impl ClusterMix {
    pub fn new(seed: u64, epoch_len: usize) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            zipf: Zipf::new(CLUSTER_FILES, 0.9),
            epoch_len,
        }
    }
}

impl Stream for ClusterMix {
    fn layout(&self) -> Layout {
        Layout {
            files: CLUSTER_FILES,
            file_bytes: CLUSTER_FILE_BLOCKS * BS,
        }
    }

    fn fill(&mut self, out: &mut Vec<Req>) {
        for _ in 0..self.epoch_len {
            let p = self.rng.below(100);
            let file = self.zipf.sample(&mut self.rng);
            // A different file: step a non-zero distance round the set.
            let file2 =
                (file + 1 + self.rng.below(CLUSTER_FILES as u64 - 1) as usize) % CLUSTER_FILES;
            let block = self.rng.below(CLUSTER_FILE_BLOCKS);
            let byte = self.rng.next_u64() as u8;
            let kind = match p {
                0..70 => Kind::Read,
                70..95 => Kind::Write,
                _ => Kind::Cross,
            };
            out.push(Req {
                kind,
                client: 0,
                file: file as u16,
                file2: file2 as u16,
                offset: block * BS,
                len: 1024,
                byte,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_epochs_concatenate() {
        let mut a = TxnMix::new(7, 100);
        let mut b = TxnMix::new(7, 50);
        let (mut va, mut vb) = (Vec::new(), Vec::new());
        a.fill(&mut va);
        b.fill(&mut vb);
        b.fill(&mut vb);
        assert_eq!(va.len(), vb.len());
        for (x, y) in va.iter().zip(&vb) {
            assert_eq!(
                (x.kind, x.file, x.offset, x.byte),
                (y.kind, y.file, y.offset, y.byte)
            );
        }
        let mut c = TxnMix::new(8, 100);
        let mut vc = Vec::new();
        c.fill(&mut vc);
        assert!(va.iter().zip(&vc).any(|(x, y)| x.file != y.file));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(16, 0.9);
        let mut rng = SplitMix64::new(1);
        let mut counts = [0u32; 16];
        for _ in 0..8000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[15] * 4, "{counts:?}");
    }

    #[test]
    fn stream_cycle_writes_flushes_then_reads_the_cold_file() {
        let mut s = StreamMix::new(3, 4, 4 * STREAM_CHUNK, 9);
        let mut v = Vec::new();
        s.fill(&mut v);
        let kinds: Vec<Kind> = v.iter().map(|r| r.kind).collect();
        assert_eq!(&kinds[..4], &[Kind::Write; 4]);
        assert_eq!(kinds[4], Kind::Flush);
        assert_eq!(&kinds[5..], &[Kind::Read; 4]);
        assert_eq!(v[5].file as usize, (v[0].file as usize + 2) % 4);
        assert_eq!(v[8].offset, 3 * STREAM_CHUNK);
    }

    #[test]
    fn cross_requests_name_two_distinct_files() {
        let mut s = ClusterMix::new(5, 4000);
        let mut v = Vec::new();
        s.fill(&mut v);
        assert!(v.iter().all(|r| r.file != r.file2));
        let cross = v.iter().filter(|r| r.kind == Kind::Cross).count();
        assert!((100..300).contains(&cross), "{cross}");
    }
}
