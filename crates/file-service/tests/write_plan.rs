//! How every write entry point of the file service reaches the platter.
//!
//! One fixed script — creates, a write across a block boundary, a
//! partial overwrite, sectors across a block boundary, whole blocks of
//! two files, a flush, a shadow page and its swing, a peer's rewrite,
//! and on the parity tier a lost disk, writes to degraded rows and a
//! rebuild — runs on every combination of issue mode, redundancy class
//! and write policy. After each step every disk's counters (references,
//! sectors, seeks, busy time, copied and borrowed bytes, stable-mirror
//! writes), its scheduler's batches and merges, the parity counters and
//! the clock are compared with the table at the bottom of this file,
//! after every file is read back against a byte model. The table fixes the
//! bytes, order and grouping of each transfer: a change to how writes
//! are issued that moves any of them fails here, with the whole new
//! table printed.

use rhodos_buf::BlockBuf;
use rhodos_disk_service::BLOCK_SIZE;
use rhodos_file_service::{
    FileId, FileService, FileServiceConfig, ParallelIo, Redundancy, ServiceType, StripePolicy,
    WritePolicy,
};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock, SECTOR_SIZE};

const SECTORS_PER_BLOCK: u64 = (BLOCK_SIZE / SECTOR_SIZE) as u64;

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i / 7 % 251) as u8 ^ salt).collect()
}

/// The service under test, the files it holds and what they must read.
struct Run {
    fs: FileService,
    files: Vec<(FileId, Vec<u8>)>,
    name: String,
    lines: Vec<String>,
}

impl Run {
    /// Writes `data` at `offset` into the model of file `f`.
    fn model(&mut self, f: usize, offset: usize, data: &[u8]) {
        let model = &mut self.files[f].1;
        if model.len() < offset + data.len() {
            model.resize(offset + data.len(), 0);
        }
        model[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Reads every file back after `step`, then records the counters.
    fn step(&mut self, step: &str) {
        for (fid, model) in &self.files {
            let read = self.fs.read(*fid, 0, model.len()).unwrap();
            assert!(read == *model, "{} {step}: {fid:?} reads back", self.name);
        }
        let stats = self.fs.stats();
        let p = stats.parity;
        let mut line = format!(
            "{} {step}: clock={} parity={}/{}/{}/{}/{}",
            self.name,
            self.fs.clock().now_us(),
            p.full_stripe_writes,
            p.parity_delta_writes,
            p.reconstruct_writes,
            p.degraded_reads,
            p.rebuild_pages,
        );
        for (d, s) in stats.disks.iter().enumerate() {
            let (m, st, q) = (s.disk, s.stable, s.scheduler);
            line += &format!(
                " | d{d} r={} w={} sw={} k={} b={} c={} o={} st={}/{} q={}/{}",
                m.read_ops,
                m.write_ops,
                m.sector_writes,
                m.seeks,
                m.busy_us,
                m.bytes_copied,
                m.bytes_borrowed,
                st.write_ops,
                st.sector_writes,
                q.batches,
                q.merged_requests,
            );
        }
        self.lines.push(line);
    }
}

/// The script on one configuration; returns one line per step.
fn script(
    parallel_io: ParallelIo,
    redundancy: Redundancy,
    write_policy: WritePolicy,
) -> Vec<String> {
    let config = FileServiceConfig {
        parallel_io,
        redundancy,
        write_policy,
        stripe: StripePolicy::RoundRobin { chunk_blocks: 2 },
        ..FileServiceConfig::default()
    };
    let clock = SimClock::new();
    let (geometry, model) = (DiskGeometry::medium(), LatencyModel::default());
    let fs = FileService::striped(4, geometry, model, clock, config).unwrap();
    let mut run = Run {
        fs,
        files: Vec::new(),
        name: format!("{parallel_io:?}/{redundancy:?}/{write_policy:?}"),
        lines: Vec::new(),
    };
    let b = BLOCK_SIZE;

    // Files a and b take ordinary writes; c is sized without data and
    // written a sector at a time, the way the intention log is.
    for _ in 0..3 {
        let fid = run.fs.create(ServiceType::Basic).unwrap();
        run.fs.open(fid).unwrap();
        run.files.push((fid, Vec::new()));
    }
    let (a, bf, c) = (run.files[0].0, run.files[1].0, run.files[2].0);
    run.fs.ensure_size(c, 4 * b as u64).unwrap();
    run.files[2].1 = vec![0; 4 * b];
    run.step("create");

    let data = pattern(3 * b, 1);
    run.fs.write(a, (b / 2) as u64, data.clone()).unwrap();
    run.model(0, b / 2, &data);
    let data = pattern(3 * b, 2);
    run.fs.write(bf, 0, data.clone()).unwrap();
    run.model(1, 0, &data);
    run.step("write across blocks");

    let data = pattern(1000, 3);
    run.fs.write(a, 100, data.clone()).unwrap();
    run.model(0, 100, &data);
    run.step("partial overwrite");

    let first = SECTORS_PER_BLOCK - 1;
    let data = pattern(2 * SECTOR_SIZE, 4);
    let sectors = data.chunks(SECTOR_SIZE).map(BlockBuf::from).collect();
    run.fs.write_sectors(c, first, sectors).unwrap();
    run.model(2, first as usize * SECTOR_SIZE, &data);
    run.step("write_sectors across blocks");

    let blocks = [(a, 0, 1, 5), (bf, 1, 0, 6), (a, 0, 2, 7)];
    let mut writes = Vec::new();
    for (fid, f, idx, salt) in blocks {
        let data = pattern(b, salt);
        run.model(f, idx as usize * b, &data);
        writes.push((fid, idx, BlockBuf::from(data)));
    }
    run.fs.write_blocks(writes).unwrap();
    run.step("write_blocks over two files");

    run.fs.flush_all().unwrap();
    run.step("flush_all");

    let (disk, addr) = run.fs.allocate_shadow_block(bf).unwrap();
    let data = pattern(b, 8);
    run.fs.put_detached_block(disk, addr, &data).unwrap();
    let got = run.fs.get_detached_blocks(&[(disk, addr)]).unwrap();
    assert!(
        got[0] == data[..],
        "{}: the shadow page reads back",
        run.name
    );
    run.step("put_detached_block");

    let (old_disk, old_addr) = run.fs.replace_block_descriptor(bf, 1, disk, addr).unwrap();
    run.fs.free_detached_block(old_disk, old_addr).unwrap();
    run.model(1, b, &data);
    run.step("swing");

    let data = pattern(b, 9);
    run.fs.rewrite_block(a, 0, &data).unwrap();
    run.model(0, 0, &data);
    run.step("rewrite_block");

    if redundancy.is_parity() {
        let lost = run.fs.block_descriptors(a).unwrap()[1].disk;
        run.fs.fail_disk(lost as usize).unwrap();
        run.step("fail_disk");

        let data = pattern(300, 10);
        run.fs.write(a, (b + 10) as u64, data.clone()).unwrap();
        run.model(0, b + 10, &data);
        run.fs.flush_all().unwrap();
        run.step("write to a degraded row");

        let first = 2 * SECTORS_PER_BLOCK + 1;
        let data = pattern(SECTOR_SIZE, 11);
        run.fs
            .write_sectors(c, first, vec![BlockBuf::from(&data[..])])
            .unwrap();
        run.model(2, first as usize * SECTOR_SIZE, &data);
        run.step("write_sectors to a degraded row");

        let report = run.fs.rebuild(None).unwrap();
        assert!(report.complete, "{}: rebuilt", run.name);
        run.step("rebuild");
    }

    run.fs.evict_caches().unwrap();
    run.step("from the platter");
    run.lines
}

#[test]
fn every_write_entry_point_keeps_its_grouping() {
    let mut lines = Vec::new();
    for parallel_io in [ParallelIo::Auto, ParallelIo::Never] {
        for redundancy in [
            Redundancy::None,
            Redundancy::Parity { k: 3, m: 1 },
            Redundancy::Parity { k: 2, m: 2 },
        ] {
            for policy in [WritePolicy::DelayedWrite, WritePolicy::WriteThrough] {
                lines.extend(script(parallel_io, redundancy, policy));
            }
        }
    }
    let expected: Vec<&str> = EXPECTED.lines().filter(|l| !l.is_empty()).collect();
    let first_diff = (0..lines.len().max(expected.len()))
        .find(|&i| lines.get(i).map(String::as_str) != expected.get(i).copied());
    if let Some(i) = first_diff {
        eprintln!("---- the whole table as measured ----");
        for line in &lines {
            eprintln!("{line}");
        }
        panic!(
            "line {i} differs\n  expected: {:?}\n  measured: {:?}",
            expected.get(i),
            lines.get(i)
        );
    }
}

/// One line per configuration and step: the clock, the parity counters
/// (full-stripe / delta / reconstruct writes, degraded reads, rebuilt
/// units), then per disk its reads, writes, sectors written, seeks, busy
/// µs, bytes copied and borrowed by reads, stable-mirror writes and
/// sectors, and scheduler batches and merged requests.
const EXPECTED: &str = "
Auto/None/DelayedWrite create: clock=389700 parity=0/0/0/0/0 | d0 r=0 w=4 sw=19 k=0 b=27300 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=1/1 | d2 r=2 w=1 sw=1 k=0 b=88600 c=16384 o=0 st=2/4 q=1/1 | d3 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0
Auto/None/DelayedWrite write across blocks: clock=461800 parity=0/0/0/0/0 | d0 r=0 w=4 sw=19 k=0 b=27300 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=1/1 | d2 r=2 w=2 sw=2 k=0 b=97900 c=16384 o=0 st=4/8 q=1/1 | d3 r=0 w=2 sw=2 k=0 b=2000 c=0 o=0 st=4/8 q=0/0
Auto/None/DelayedWrite partial overwrite: clock=461800 parity=0/0/0/0/0 | d0 r=0 w=4 sw=19 k=0 b=27300 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=1/1 | d2 r=2 w=2 sw=2 k=0 b=97900 c=16384 o=0 st=4/8 q=1/1 | d3 r=0 w=2 sw=2 k=0 b=2000 c=0 o=0 st=4/8 q=0/0
Auto/None/DelayedWrite write_sectors across blocks: clock=472100 parity=0/0/0/0/0 | d0 r=0 w=4 sw=19 k=0 b=27300 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=3/2 | d2 r=2 w=2 sw=2 k=0 b=97900 c=16384 o=0 st=4/8 q=1/1 | d3 r=0 w=2 sw=2 k=0 b=2000 c=0 o=0 st=4/8 q=0/0
Auto/None/DelayedWrite write_blocks over two files: clock=484400 parity=0/0/0/0/0 | d0 r=0 w=5 sw=23 k=0 b=39600 c=0 o=0 st=8/76 q=1/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=3/2 | d2 r=2 w=3 sw=6 k=0 b=110200 c=16384 o=0 st=4/8 q=2/1 | d3 r=0 w=3 sw=6 k=0 b=14300 c=0 o=0 st=4/8 q=1/0
Auto/None/DelayedWrite flush_all: clock=513000 parity=0/0/0/0/0 | d0 r=0 w=7 sw=31 k=0 b=64200 c=0 o=0 st=8/76 q=2/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=3/2 | d2 r=2 w=5 sw=14 k=0 b=134800 c=16384 o=0 st=4/8 q=3/1 | d3 r=0 w=5 sw=18 k=0 b=42900 c=0 o=0 st=4/8 q=2/1
Auto/None/DelayedWrite put_detached_block: clock=529855 parity=0/0/0/0/0 | d0 r=0 w=7 sw=31 k=0 b=64200 c=0 o=0 st=8/76 q=2/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=3/2 | d2 r=2 w=6 sw=18 k=1 b=151655 c=16384 o=0 st=4/8 q=3/1 | d3 r=0 w=5 sw=18 k=0 b=42900 c=0 o=0 st=4/8 q=2/1
Auto/None/DelayedWrite swing: clock=574610 parity=0/0/0/0/0 | d0 r=0 w=7 sw=31 k=0 b=64200 c=0 o=0 st=8/76 q=2/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=3/2 | d2 r=2 w=7 sw=19 k=2 b=165510 c=16384 o=0 st=6/12 q=4/1 | d3 r=0 w=5 sw=18 k=0 b=42900 c=0 o=0 st=4/8 q=2/1
Auto/None/DelayedWrite rewrite_block: clock=586910 parity=0/0/0/0/0 | d0 r=0 w=7 sw=31 k=0 b=64200 c=0 o=0 st=8/76 q=2/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=3/2 | d2 r=2 w=7 sw=19 k=2 b=165510 c=16384 o=0 st=6/12 q=4/1 | d3 r=0 w=6 sw=22 k=0 b=55200 c=0 o=0 st=4/8 q=2/1
Auto/None/DelayedWrite from the platter: clock=990165 parity=0/0/0/0/0 | d0 r=2 w=7 sw=31 k=0 b=148800 c=0 o=8192 st=8/76 q=3/0 | d1 r=4 w=3 sw=4 k=0 b=172500 c=16384 o=2048 st=4/8 q=4/3 | d2 r=6 w=7 sw=19 k=3 b=322965 c=16384 o=10240 st=6/12 q=6/2 | d3 r=3 w=6 sw=22 k=1 b=210105 c=0 o=2048 st=4/8 q=4/2
Auto/None/WriteThrough create: clock=389700 parity=0/0/0/0/0 | d0 r=0 w=4 sw=19 k=0 b=27300 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=1/1 | d2 r=2 w=1 sw=1 k=0 b=88600 c=16384 o=0 st=2/4 q=1/1 | d3 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0
Auto/None/WriteThrough write across blocks: clock=556200 parity=0/0/0/0/0 | d0 r=0 w=6 sw=27 k=0 b=51900 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=1/1 | d2 r=2 w=4 sw=10 k=0 b=122500 c=16384 o=0 st=4/8 q=1/1 | d3 r=0 w=5 sw=14 k=0 b=47200 c=0 o=0 st=4/8 q=0/0
Auto/None/WriteThrough partial overwrite: clock=568500 parity=0/0/0/0/0 | d0 r=0 w=6 sw=27 k=0 b=51900 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=1/1 | d2 r=2 w=4 sw=10 k=0 b=122500 c=16384 o=0 st=4/8 q=1/1 | d3 r=0 w=6 sw=18 k=0 b=59500 c=0 o=0 st=4/8 q=0/0
Auto/None/WriteThrough write_sectors across blocks: clock=578800 parity=0/0/0/0/0 | d0 r=0 w=6 sw=27 k=0 b=51900 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=3/2 | d2 r=2 w=4 sw=10 k=0 b=122500 c=16384 o=0 st=4/8 q=1/1 | d3 r=0 w=6 sw=18 k=0 b=59500 c=0 o=0 st=4/8 q=0/0
Auto/None/WriteThrough write_blocks over two files: clock=591100 parity=0/0/0/0/0 | d0 r=0 w=7 sw=31 k=0 b=64200 c=0 o=0 st=8/76 q=1/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=3/2 | d2 r=2 w=5 sw=14 k=0 b=134800 c=16384 o=0 st=4/8 q=2/1 | d3 r=0 w=7 sw=22 k=0 b=71800 c=0 o=0 st=4/8 q=1/0
Auto/None/WriteThrough flush_all: clock=591100 parity=0/0/0/0/0 | d0 r=0 w=7 sw=31 k=0 b=64200 c=0 o=0 st=8/76 q=1/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=3/2 | d2 r=2 w=5 sw=14 k=0 b=134800 c=16384 o=0 st=4/8 q=2/1 | d3 r=0 w=7 sw=22 k=0 b=71800 c=0 o=0 st=4/8 q=1/0
Auto/None/WriteThrough put_detached_block: clock=607955 parity=0/0/0/0/0 | d0 r=0 w=7 sw=31 k=0 b=64200 c=0 o=0 st=8/76 q=1/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=3/2 | d2 r=2 w=6 sw=18 k=1 b=151655 c=16384 o=0 st=4/8 q=2/1 | d3 r=0 w=7 sw=22 k=0 b=71800 c=0 o=0 st=4/8 q=1/0
Auto/None/WriteThrough swing: clock=652710 parity=0/0/0/0/0 | d0 r=0 w=7 sw=31 k=0 b=64200 c=0 o=0 st=8/76 q=1/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=3/2 | d2 r=2 w=7 sw=19 k=2 b=165510 c=16384 o=0 st=6/12 q=3/1 | d3 r=0 w=7 sw=22 k=0 b=71800 c=0 o=0 st=4/8 q=1/0
Auto/None/WriteThrough rewrite_block: clock=665010 parity=0/0/0/0/0 | d0 r=0 w=7 sw=31 k=0 b=64200 c=0 o=0 st=8/76 q=1/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=3/2 | d2 r=2 w=7 sw=19 k=2 b=165510 c=16384 o=0 st=6/12 q=3/1 | d3 r=0 w=8 sw=26 k=0 b=84100 c=0 o=0 st=4/8 q=1/0
Auto/None/WriteThrough from the platter: clock=1068265 parity=0/0/0/0/0 | d0 r=2 w=7 sw=31 k=0 b=148800 c=0 o=8192 st=8/76 q=2/0 | d1 r=4 w=3 sw=4 k=0 b=172500 c=16384 o=2048 st=4/8 q=4/3 | d2 r=6 w=7 sw=19 k=3 b=322965 c=16384 o=10240 st=6/12 q=5/2 | d3 r=3 w=8 sw=26 k=1 b=239005 c=0 o=2048 st=4/8 q=3/1
Auto/Parity { k: 3, m: 1 }/DelayedWrite create: clock=381700 parity=0/0/0/0/0 | d0 r=2 w=4 sw=19 k=0 b=91900 c=8192 o=0 st=8/76 q=1/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=1/1 | d2 r=2 w=1 sw=1 k=0 b=80600 c=8192 o=0 st=2/4 q=1/0 | d3 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0
Auto/Parity { k: 3, m: 1 }/DelayedWrite write across blocks: clock=453800 parity=0/0/0/0/0 | d0 r=2 w=4 sw=19 k=0 b=91900 c=8192 o=0 st=8/76 q=1/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=1/1 | d2 r=2 w=2 sw=2 k=0 b=89900 c=8192 o=0 st=4/8 q=1/0 | d3 r=0 w=2 sw=2 k=0 b=2000 c=0 o=0 st=4/8 q=0/0
Auto/Parity { k: 3, m: 1 }/DelayedWrite partial overwrite: clock=453800 parity=0/0/0/0/0 | d0 r=2 w=4 sw=19 k=0 b=91900 c=8192 o=0 st=8/76 q=1/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=1/1 | d2 r=2 w=2 sw=2 k=0 b=89900 c=8192 o=0 st=4/8 q=1/0 | d3 r=0 w=2 sw=2 k=0 b=2000 c=0 o=0 st=4/8 q=0/0
Auto/Parity { k: 3, m: 1 }/DelayedWrite write_sectors across blocks: clock=466100 parity=0/0/1/0/0 | d0 r=2 w=5 sw=23 k=0 b=104200 c=8192 o=0 st=8/76 q=3/0 | d1 r=2 w=3 sw=6 k=0 b=93900 c=16384 o=0 st=4/8 q=3/1 | d2 r=2 w=2 sw=2 k=0 b=89900 c=8192 o=0 st=4/8 q=1/0 | d3 r=0 w=3 sw=6 k=0 b=14300 c=0 o=0 st=4/8 q=1/0
Auto/Parity { k: 3, m: 1 }/DelayedWrite write_blocks over two files: clock=482400 parity=0/0/3/0/0 | d0 r=2 w=6 sw=27 k=0 b=116500 c=8192 o=0 st=8/76 q=5/0 | d1 r=2 w=4 sw=10 k=0 b=106200 c=16384 o=0 st=4/8 q=5/1 | d2 r=2 w=3 sw=6 k=0 b=102200 c=8192 o=0 st=4/8 q=3/0 | d3 r=0 w=4 sw=14 k=0 b=30600 c=0 o=0 st=4/8 q=2/1
Auto/Parity { k: 3, m: 1 }/DelayedWrite flush_all: clock=511000 parity=3/0/3/0/0 | d0 r=2 w=7 sw=39 k=0 b=136800 c=8192 o=0 st=8/76 q=6/2 | d1 r=2 w=6 sw=22 k=0 b=134800 c=16384 o=0 st=4/8 q=6/2 | d2 r=2 w=5 sw=14 k=0 b=126800 c=8192 o=0 st=4/8 q=4/0 | d3 r=0 w=5 sw=22 k=0 b=46900 c=0 o=0 st=4/8 q=3/2
Auto/Parity { k: 3, m: 1 }/DelayedWrite put_detached_block: clock=527855 parity=3/0/3/0/0 | d0 r=2 w=7 sw=39 k=0 b=136800 c=8192 o=0 st=8/76 q=6/2 | d1 r=2 w=6 sw=22 k=0 b=134800 c=16384 o=0 st=4/8 q=6/2 | d2 r=2 w=6 sw=18 k=1 b=143655 c=8192 o=0 st=4/8 q=4/0 | d3 r=0 w=5 sw=22 k=0 b=46900 c=0 o=0 st=4/8 q=3/2
Auto/Parity { k: 3, m: 1 }/DelayedWrite swing: clock=584910 parity=3/0/3/0/0 | d0 r=2 w=7 sw=39 k=0 b=136800 c=8192 o=0 st=8/76 q=7/2 | d1 r=2 w=6 sw=22 k=0 b=134800 c=16384 o=0 st=4/8 q=6/2 | d2 r=2 w=7 sw=19 k=2 b=157510 c=8192 o=0 st=6/12 q=6/0 | d3 r=0 w=6 sw=26 k=0 b=59200 c=0 o=0 st=4/8 q=4/2
Auto/Parity { k: 3, m: 1 }/DelayedWrite rewrite_block: clock=609510 parity=3/0/3/0/0 | d0 r=2 w=8 sw=43 k=0 b=149100 c=8192 o=0 st=8/76 q=7/2 | d1 r=2 w=6 sw=22 k=0 b=134800 c=16384 o=0 st=4/8 q=7/2 | d2 r=2 w=7 sw=19 k=2 b=157510 c=8192 o=0 st=6/12 q=7/0 | d3 r=0 w=7 sw=30 k=0 b=71500 c=0 o=0 st=4/8 q=5/2
Auto/Parity { k: 3, m: 1 }/DelayedWrite fail_disk: clock=665010 parity=3/0/3/0/0 | d0 r=2 w=9 sw=44 k=0 b=158400 c=8192 o=0 st=10/80 q=7/2 | d1 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=7 sw=19 k=2 b=157510 c=8192 o=0 st=6/12 q=7/0 | d3 r=0 w=7 sw=30 k=0 b=71500 c=0 o=0 st=4/8 q=5/2
Auto/Parity { k: 3, m: 1 }/DelayedWrite write to a degraded row: clock=677310 parity=3/0/4/0/0 | d0 r=2 w=9 sw=44 k=0 b=158400 c=8192 o=0 st=10/80 q=8/2 | d1 r=0 w=2 sw=5 k=0 b=13300 c=0 o=0 st=2/4 q=1/0 | d2 r=2 w=7 sw=19 k=2 b=157510 c=8192 o=0 st=6/12 q=8/0 | d3 r=0 w=8 sw=34 k=0 b=83800 c=0 o=0 st=4/8 q=7/2
Auto/Parity { k: 3, m: 1 }/DelayedWrite write_sectors to a degraded row: clock=689610 parity=3/0/5/0/0 | d0 r=2 w=9 sw=44 k=0 b=158400 c=8192 o=0 st=10/80 q=9/2 | d1 r=0 w=2 sw=5 k=0 b=13300 c=0 o=0 st=2/4 q=1/0 | d2 r=2 w=8 sw=23 k=2 b=169810 c=8192 o=0 st=6/12 q=11/0 | d3 r=0 w=9 sw=38 k=0 b=96100 c=0 o=0 st=4/8 q=9/2
Auto/Parity { k: 3, m: 1 }/DelayedWrite rebuild: clock=770710 parity=3/0/5/0/4 | d0 r=2 w=10 sw=45 k=0 b=159400 c=8192 o=0 st=12/84 q=11/2 | d1 r=0 w=6 sw=21 k=0 b=62500 c=0 o=0 st=2/4 q=1/0 | d2 r=2 w=8 sw=23 k=2 b=169810 c=8192 o=0 st=6/12 q=13/0 | d3 r=0 w=9 sw=38 k=0 b=96100 c=0 o=0 st=4/8 q=11/2
Auto/Parity { k: 3, m: 1 }/DelayedWrite from the platter: clock=1025065 parity=3/0/5/0/4 | d0 r=4 w=10 sw=45 k=0 b=244000 c=8192 o=8192 st=12/84 q=14/2 | d1 r=2 w=6 sw=21 k=0 b=151100 c=0 o=16384 st=2/4 q=3/2 | d2 r=6 w=8 sw=23 k=3 b=339565 c=8192 o=16384 st=6/12 q=16/0 | d3 r=2 w=9 sw=38 k=0 b=176700 c=0 o=2048 st=4/8 q=11/2
Auto/Parity { k: 3, m: 1 }/WriteThrough create: clock=381700 parity=0/0/0/0/0 | d0 r=2 w=4 sw=19 k=0 b=91900 c=8192 o=0 st=8/76 q=1/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=1/1 | d2 r=2 w=1 sw=1 k=0 b=80600 c=8192 o=0 st=2/4 q=1/0 | d3 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0
Auto/Parity { k: 3, m: 1 }/WriteThrough write across blocks: clock=548200 parity=1/4/2/0/0 | d0 r=2 w=7 sw=31 k=0 b=128800 c=8192 o=0 st=8/76 q=4/0 | d1 r=2 w=5 sw=14 k=0 b=118500 c=16384 o=0 st=4/8 q=8/1 | d2 r=2 w=4 sw=10 k=0 b=114500 c=8192 o=0 st=4/8 q=7/0 | d3 r=0 w=8 sw=26 k=0 b=84100 c=0 o=0 st=4/8 q=10/0
Auto/Parity { k: 3, m: 1 }/WriteThrough partial overwrite: clock=560500 parity=1/5/2/0/0 | d0 r=2 w=8 sw=35 k=0 b=141100 c=8192 o=0 st=8/76 q=6/0 | d1 r=2 w=5 sw=14 k=0 b=118500 c=16384 o=0 st=4/8 q=8/1 | d2 r=2 w=4 sw=10 k=0 b=114500 c=8192 o=0 st=4/8 q=7/0 | d3 r=0 w=9 sw=30 k=0 b=96400 c=0 o=0 st=4/8 q=12/0
Auto/Parity { k: 3, m: 1 }/WriteThrough write_sectors across blocks: clock=572800 parity=1/5/3/0/0 | d0 r=2 w=9 sw=39 k=0 b=153400 c=8192 o=0 st=8/76 q=8/0 | d1 r=2 w=6 sw=18 k=0 b=130800 c=16384 o=0 st=4/8 q=10/1 | d2 r=2 w=4 sw=10 k=0 b=114500 c=8192 o=0 st=4/8 q=7/0 | d3 r=0 w=10 sw=34 k=0 b=108700 c=0 o=0 st=4/8 q=13/0
Auto/Parity { k: 3, m: 1 }/WriteThrough write_blocks over two files: clock=589100 parity=1/6/4/0/0 | d0 r=2 w=10 sw=43 k=0 b=165700 c=8192 o=0 st=8/76 q=10/0 | d1 r=2 w=7 sw=22 k=0 b=143100 c=16384 o=0 st=4/8 q=11/1 | d2 r=2 w=5 sw=14 k=0 b=126800 c=8192 o=0 st=4/8 q=8/0 | d3 r=0 w=11 sw=42 k=0 b=125000 c=0 o=0 st=4/8 q=15/1
Auto/Parity { k: 3, m: 1 }/WriteThrough flush_all: clock=589100 parity=1/6/4/0/0 | d0 r=2 w=10 sw=43 k=0 b=165700 c=8192 o=0 st=8/76 q=10/0 | d1 r=2 w=7 sw=22 k=0 b=143100 c=16384 o=0 st=4/8 q=11/1 | d2 r=2 w=5 sw=14 k=0 b=126800 c=8192 o=0 st=4/8 q=8/0 | d3 r=0 w=11 sw=42 k=0 b=125000 c=0 o=0 st=4/8 q=15/1
Auto/Parity { k: 3, m: 1 }/WriteThrough put_detached_block: clock=605955 parity=1/6/4/0/0 | d0 r=2 w=10 sw=43 k=0 b=165700 c=8192 o=0 st=8/76 q=10/0 | d1 r=2 w=7 sw=22 k=0 b=143100 c=16384 o=0 st=4/8 q=11/1 | d2 r=2 w=6 sw=18 k=1 b=143655 c=8192 o=0 st=4/8 q=8/0 | d3 r=0 w=11 sw=42 k=0 b=125000 c=0 o=0 st=4/8 q=15/1
Auto/Parity { k: 3, m: 1 }/WriteThrough swing: clock=663010 parity=1/6/4/0/0 | d0 r=2 w=10 sw=43 k=0 b=165700 c=8192 o=0 st=8/76 q=11/0 | d1 r=2 w=7 sw=22 k=0 b=143100 c=16384 o=0 st=4/8 q=11/1 | d2 r=2 w=7 sw=19 k=2 b=157510 c=8192 o=0 st=6/12 q=10/0 | d3 r=0 w=12 sw=46 k=0 b=137300 c=0 o=0 st=4/8 q=16/1
Auto/Parity { k: 3, m: 1 }/WriteThrough rewrite_block: clock=687610 parity=1/6/4/0/0 | d0 r=2 w=11 sw=47 k=0 b=178000 c=8192 o=0 st=8/76 q=11/0 | d1 r=2 w=7 sw=22 k=0 b=143100 c=16384 o=0 st=4/8 q=12/1 | d2 r=2 w=7 sw=19 k=2 b=157510 c=8192 o=0 st=6/12 q=11/0 | d3 r=0 w=13 sw=50 k=0 b=149600 c=0 o=0 st=4/8 q=17/1
Auto/Parity { k: 3, m: 1 }/WriteThrough fail_disk: clock=743110 parity=1/6/4/0/0 | d0 r=2 w=12 sw=48 k=0 b=187300 c=8192 o=0 st=10/80 q=11/0 | d1 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=7 sw=19 k=2 b=157510 c=8192 o=0 st=6/12 q=11/0 | d3 r=0 w=13 sw=50 k=0 b=149600 c=0 o=0 st=4/8 q=17/1
Auto/Parity { k: 3, m: 1 }/WriteThrough write to a degraded row: clock=755410 parity=1/6/5/0/0 | d0 r=2 w=12 sw=48 k=0 b=187300 c=8192 o=0 st=10/80 q=12/0 | d1 r=0 w=2 sw=5 k=0 b=13300 c=0 o=0 st=2/4 q=1/0 | d2 r=2 w=7 sw=19 k=2 b=157510 c=8192 o=0 st=6/12 q=12/0 | d3 r=0 w=14 sw=54 k=0 b=161900 c=0 o=0 st=4/8 q=19/1
Auto/Parity { k: 3, m: 1 }/WriteThrough write_sectors to a degraded row: clock=767710 parity=1/6/6/0/0 | d0 r=2 w=12 sw=48 k=0 b=187300 c=8192 o=0 st=10/80 q=13/0 | d1 r=0 w=2 sw=5 k=0 b=13300 c=0 o=0 st=2/4 q=1/0 | d2 r=2 w=8 sw=23 k=2 b=169810 c=8192 o=0 st=6/12 q=15/0 | d3 r=0 w=15 sw=58 k=0 b=174200 c=0 o=0 st=4/8 q=21/1
Auto/Parity { k: 3, m: 1 }/WriteThrough rebuild: clock=848810 parity=1/6/6/0/4 | d0 r=2 w=13 sw=49 k=0 b=188300 c=8192 o=0 st=12/84 q=15/0 | d1 r=0 w=6 sw=21 k=0 b=62500 c=0 o=0 st=2/4 q=1/0 | d2 r=2 w=8 sw=23 k=2 b=169810 c=8192 o=0 st=6/12 q=17/0 | d3 r=0 w=15 sw=58 k=0 b=174200 c=0 o=0 st=4/8 q=23/1
Auto/Parity { k: 3, m: 1 }/WriteThrough from the platter: clock=1103165 parity=1/6/6/0/4 | d0 r=4 w=13 sw=49 k=0 b=272900 c=8192 o=8192 st=12/84 q=18/0 | d1 r=2 w=6 sw=21 k=0 b=151100 c=0 o=16384 st=2/4 q=3/2 | d2 r=6 w=8 sw=23 k=3 b=339565 c=8192 o=16384 st=6/12 q=20/0 | d3 r=2 w=15 sw=58 k=0 b=254800 c=0 o=2048 st=4/8 q=23/1
Auto/Parity { k: 2, m: 2 }/DelayedWrite create: clock=385700 parity=0/0/0/0/0 | d0 r=2 w=4 sw=19 k=0 b=91900 c=8192 o=0 st=8/76 q=1/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=1/1 | d2 r=2 w=1 sw=1 k=0 b=84600 c=8192 o=0 st=2/4 q=1/0 | d3 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0
Auto/Parity { k: 2, m: 2 }/DelayedWrite write across blocks: clock=457800 parity=0/0/0/0/0 | d0 r=2 w=4 sw=19 k=0 b=91900 c=8192 o=0 st=8/76 q=1/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=1/1 | d2 r=2 w=2 sw=2 k=0 b=93900 c=8192 o=0 st=4/8 q=1/0 | d3 r=0 w=2 sw=2 k=0 b=2000 c=0 o=0 st=4/8 q=0/0
Auto/Parity { k: 2, m: 2 }/DelayedWrite partial overwrite: clock=457800 parity=0/0/0/0/0 | d0 r=2 w=4 sw=19 k=0 b=91900 c=8192 o=0 st=8/76 q=1/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=1/1 | d2 r=2 w=2 sw=2 k=0 b=93900 c=8192 o=0 st=4/8 q=1/0 | d3 r=0 w=2 sw=2 k=0 b=2000 c=0 o=0 st=4/8 q=0/0
Auto/Parity { k: 2, m: 2 }/DelayedWrite write_sectors across blocks: clock=470100 parity=1/0/0/0/0 | d0 r=2 w=5 sw=23 k=0 b=104200 c=8192 o=0 st=8/76 q=3/0 | d1 r=2 w=3 sw=6 k=0 b=93900 c=16384 o=0 st=4/8 q=3/1 | d2 r=2 w=3 sw=6 k=0 b=106200 c=8192 o=0 st=4/8 q=2/0 | d3 r=0 w=3 sw=6 k=0 b=14300 c=0 o=0 st=4/8 q=1/0
Auto/Parity { k: 2, m: 2 }/DelayedWrite write_blocks over two files: clock=494700 parity=1/0/3/0/0 | d0 r=2 w=6 sw=31 k=0 b=120500 c=8192 o=0 st=8/76 q=5/1 | d1 r=2 w=4 sw=14 k=0 b=110200 c=16384 o=0 st=4/8 q=5/2 | d2 r=2 w=5 sw=14 k=0 b=130800 c=8192 o=0 st=4/8 q=4/0 | d3 r=0 w=4 sw=18 k=0 b=34600 c=0 o=0 st=4/8 q=2/2
Auto/Parity { k: 2, m: 2 }/DelayedWrite flush_all: clock=527300 parity=5/0/3/0/0 | d0 r=2 w=8 sw=47 k=0 b=153100 c=8192 o=0 st=8/76 q=6/3 | d1 r=2 w=6 sw=30 k=0 b=142800 c=16384 o=0 st=4/8 q=6/4 | d2 r=2 w=6 sw=26 k=0 b=151100 c=8192 o=0 st=4/8 q=5/2 | d3 r=0 w=6 sw=34 k=0 b=67200 c=0 o=0 st=4/8 q=3/4
Auto/Parity { k: 2, m: 2 }/DelayedWrite put_detached_block: clock=544155 parity=5/0/3/0/0 | d0 r=2 w=8 sw=47 k=0 b=153100 c=8192 o=0 st=8/76 q=6/3 | d1 r=2 w=6 sw=30 k=0 b=142800 c=16384 o=0 st=4/8 q=6/4 | d2 r=2 w=7 sw=30 k=1 b=167955 c=8192 o=0 st=4/8 q=5/2 | d3 r=0 w=6 sw=34 k=0 b=67200 c=0 o=0 st=4/8 q=3/4
Auto/Parity { k: 2, m: 2 }/DelayedWrite swing: clock=613510 parity=5/0/3/0/0 | d0 r=2 w=8 sw=47 k=0 b=153100 c=8192 o=0 st=8/76 q=7/3 | d1 r=2 w=6 sw=30 k=0 b=142800 c=16384 o=0 st=4/8 q=6/4 | d2 r=2 w=9 sw=35 k=2 b=194110 c=8192 o=0 st=6/12 q=7/2 | d3 r=0 w=7 sw=38 k=0 b=79500 c=0 o=0 st=4/8 q=4/4
Auto/Parity { k: 2, m: 2 }/DelayedWrite rewrite_block: clock=650410 parity=5/0/3/0/0 | d0 r=2 w=9 sw=51 k=0 b=165400 c=8192 o=0 st=8/76 q=7/3 | d1 r=2 w=6 sw=30 k=0 b=142800 c=16384 o=0 st=4/8 q=7/4 | d2 r=2 w=10 sw=39 k=2 b=206410 c=8192 o=0 st=6/12 q=8/2 | d3 r=0 w=8 sw=42 k=0 b=91800 c=0 o=0 st=4/8 q=5/4
Auto/Parity { k: 2, m: 2 }/DelayedWrite fail_disk: clock=705910 parity=5/0/3/0/0 | d0 r=2 w=10 sw=52 k=0 b=174700 c=8192 o=0 st=10/80 q=7/3 | d1 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=10 sw=39 k=2 b=206410 c=8192 o=0 st=6/12 q=8/2 | d3 r=0 w=8 sw=42 k=0 b=91800 c=0 o=0 st=4/8 q=5/4
Auto/Parity { k: 2, m: 2 }/DelayedWrite write to a degraded row: clock=718210 parity=5/0/4/0/0 | d0 r=2 w=10 sw=52 k=0 b=174700 c=8192 o=0 st=10/80 q=8/3 | d1 r=0 w=2 sw=5 k=0 b=13300 c=0 o=0 st=2/4 q=1/0 | d2 r=2 w=11 sw=43 k=2 b=218710 c=8192 o=0 st=6/12 q=10/2 | d3 r=0 w=9 sw=46 k=0 b=104100 c=0 o=0 st=4/8 q=7/4
Auto/Parity { k: 2, m: 2 }/DelayedWrite write_sectors to a degraded row: clock=790110 parity=5/0/5/2/0 | d0 r=2 w=11 sw=56 k=0 b=187000 c=8192 o=0 st=10/80 q=12/3 | d1 r=0 w=3 sw=9 k=0 b=25600 c=0 o=0 st=2/4 q=2/0 | d2 r=2 w=11 sw=43 k=2 b=218710 c=8192 o=0 st=6/12 q=13/2 | d3 r=2 w=10 sw=50 k=0 b=176000 c=8192 o=0 st=4/8 q=11/4
Auto/Parity { k: 2, m: 2 }/DelayedWrite rebuild: clock=891810 parity=5/0/5/2/5 | d0 r=2 w=12 sw=57 k=0 b=196300 c=8192 o=0 st=12/84 q=17/3 | d1 r=0 w=8 sw=29 k=0 b=87100 c=0 o=0 st=2/4 q=2/0 | d2 r=2 w=11 sw=43 k=2 b=218710 c=8192 o=0 st=6/12 q=17/2 | d3 r=2 w=10 sw=50 k=0 b=176000 c=8192 o=0 st=4/8 q=16/4
Auto/Parity { k: 2, m: 2 }/DelayedWrite from the platter: clock=1146165 parity=5/0/5/2/5 | d0 r=4 w=12 sw=57 k=0 b=280900 c=8192 o=8192 st=12/84 q=20/3 | d1 r=2 w=8 sw=29 k=0 b=175700 c=0 o=16384 st=2/4 q=5/2 | d2 r=6 w=11 sw=43 k=3 b=388465 c=8192 o=16384 st=6/12 q=20/2 | d3 r=4 w=10 sw=50 k=0 b=256600 c=8192 o=2048 st=4/8 q=16/4
Auto/Parity { k: 2, m: 2 }/WriteThrough create: clock=385700 parity=0/0/0/0/0 | d0 r=2 w=4 sw=19 k=0 b=91900 c=8192 o=0 st=8/76 q=1/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=1/1 | d2 r=2 w=1 sw=1 k=0 b=84600 c=8192 o=0 st=2/4 q=1/0 | d3 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0
Auto/Parity { k: 2, m: 2 }/WriteThrough write across blocks: clock=552200 parity=1/0/6/0/0 | d0 r=2 w=9 sw=39 k=0 b=153400 c=8192 o=0 st=8/76 q=6/0 | d1 r=2 w=6 sw=18 k=0 b=130800 c=16384 o=0 st=4/8 q=5/1 | d2 r=2 w=7 sw=22 k=0 b=155400 c=8192 o=0 st=4/8 q=6/0 | d3 r=0 w=9 sw=30 k=0 b=96400 c=0 o=0 st=4/8 q=7/0
Auto/Parity { k: 2, m: 2 }/WriteThrough partial overwrite: clock=564500 parity=1/0/7/0/0 | d0 r=2 w=10 sw=43 k=0 b=165700 c=8192 o=0 st=8/76 q=7/0 | d1 r=2 w=6 sw=18 k=0 b=130800 c=16384 o=0 st=4/8 q=5/1 | d2 r=2 w=8 sw=26 k=0 b=167700 c=8192 o=0 st=4/8 q=7/0 | d3 r=0 w=10 sw=34 k=0 b=108700 c=0 o=0 st=4/8 q=8/0
Auto/Parity { k: 2, m: 2 }/WriteThrough write_sectors across blocks: clock=576800 parity=2/0/7/0/0 | d0 r=2 w=11 sw=47 k=0 b=178000 c=8192 o=0 st=8/76 q=9/0 | d1 r=2 w=7 sw=22 k=0 b=143100 c=16384 o=0 st=4/8 q=7/1 | d2 r=2 w=9 sw=30 k=0 b=180000 c=8192 o=0 st=4/8 q=8/0 | d3 r=0 w=11 sw=38 k=0 b=121000 c=0 o=0 st=4/8 q=9/0
Auto/Parity { k: 2, m: 2 }/WriteThrough write_blocks over two files: clock=601400 parity=2/0/10/0/0 | d0 r=2 w=12 sw=55 k=0 b=194300 c=8192 o=0 st=8/76 q=11/1 | d1 r=2 w=8 sw=30 k=0 b=159400 c=16384 o=0 st=4/8 q=9/2 | d2 r=2 w=11 sw=38 k=0 b=204600 c=8192 o=0 st=4/8 q=10/0 | d3 r=0 w=12 sw=50 k=0 b=141300 c=0 o=0 st=4/8 q=10/2
Auto/Parity { k: 2, m: 2 }/WriteThrough flush_all: clock=601400 parity=2/0/10/0/0 | d0 r=2 w=12 sw=55 k=0 b=194300 c=8192 o=0 st=8/76 q=11/1 | d1 r=2 w=8 sw=30 k=0 b=159400 c=16384 o=0 st=4/8 q=9/2 | d2 r=2 w=11 sw=38 k=0 b=204600 c=8192 o=0 st=4/8 q=10/0 | d3 r=0 w=12 sw=50 k=0 b=141300 c=0 o=0 st=4/8 q=10/2
Auto/Parity { k: 2, m: 2 }/WriteThrough put_detached_block: clock=618255 parity=2/0/10/0/0 | d0 r=2 w=12 sw=55 k=0 b=194300 c=8192 o=0 st=8/76 q=11/1 | d1 r=2 w=8 sw=30 k=0 b=159400 c=16384 o=0 st=4/8 q=9/2 | d2 r=2 w=12 sw=42 k=1 b=221455 c=8192 o=0 st=4/8 q=10/0 | d3 r=0 w=12 sw=50 k=0 b=141300 c=0 o=0 st=4/8 q=10/2
Auto/Parity { k: 2, m: 2 }/WriteThrough swing: clock=687610 parity=2/0/10/0/0 | d0 r=2 w=12 sw=55 k=0 b=194300 c=8192 o=0 st=8/76 q=12/1 | d1 r=2 w=8 sw=30 k=0 b=159400 c=16384 o=0 st=4/8 q=9/2 | d2 r=2 w=14 sw=47 k=2 b=247610 c=8192 o=0 st=6/12 q=12/0 | d3 r=0 w=13 sw=54 k=0 b=153600 c=0 o=0 st=4/8 q=11/2
Auto/Parity { k: 2, m: 2 }/WriteThrough rewrite_block: clock=724510 parity=2/0/10/0/0 | d0 r=2 w=13 sw=59 k=0 b=206600 c=8192 o=0 st=8/76 q=12/1 | d1 r=2 w=8 sw=30 k=0 b=159400 c=16384 o=0 st=4/8 q=10/2 | d2 r=2 w=15 sw=51 k=2 b=259910 c=8192 o=0 st=6/12 q=13/0 | d3 r=0 w=14 sw=58 k=0 b=165900 c=0 o=0 st=4/8 q=12/2
Auto/Parity { k: 2, m: 2 }/WriteThrough fail_disk: clock=780010 parity=2/0/10/0/0 | d0 r=2 w=14 sw=60 k=0 b=215900 c=8192 o=0 st=10/80 q=12/1 | d1 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=15 sw=51 k=2 b=259910 c=8192 o=0 st=6/12 q=13/0 | d3 r=0 w=14 sw=58 k=0 b=165900 c=0 o=0 st=4/8 q=12/2
Auto/Parity { k: 2, m: 2 }/WriteThrough write to a degraded row: clock=792310 parity=2/0/11/0/0 | d0 r=2 w=14 sw=60 k=0 b=215900 c=8192 o=0 st=10/80 q=13/1 | d1 r=0 w=2 sw=5 k=0 b=13300 c=0 o=0 st=2/4 q=1/0 | d2 r=2 w=16 sw=55 k=2 b=272210 c=8192 o=0 st=6/12 q=15/0 | d3 r=0 w=15 sw=62 k=0 b=178200 c=0 o=0 st=4/8 q=14/2
Auto/Parity { k: 2, m: 2 }/WriteThrough write_sectors to a degraded row: clock=864210 parity=2/0/12/2/0 | d0 r=2 w=15 sw=64 k=0 b=228200 c=8192 o=0 st=10/80 q=17/1 | d1 r=0 w=3 sw=9 k=0 b=25600 c=0 o=0 st=2/4 q=2/0 | d2 r=2 w=16 sw=55 k=2 b=272210 c=8192 o=0 st=6/12 q=18/0 | d3 r=2 w=16 sw=66 k=0 b=250100 c=8192 o=0 st=4/8 q=18/2
Auto/Parity { k: 2, m: 2 }/WriteThrough rebuild: clock=965910 parity=2/0/12/2/5 | d0 r=2 w=16 sw=65 k=0 b=237500 c=8192 o=0 st=12/84 q=22/1 | d1 r=0 w=8 sw=29 k=0 b=87100 c=0 o=0 st=2/4 q=2/0 | d2 r=2 w=16 sw=55 k=2 b=272210 c=8192 o=0 st=6/12 q=22/0 | d3 r=2 w=16 sw=66 k=0 b=250100 c=8192 o=0 st=4/8 q=23/2
Auto/Parity { k: 2, m: 2 }/WriteThrough from the platter: clock=1220265 parity=2/0/12/2/5 | d0 r=4 w=16 sw=65 k=0 b=322100 c=8192 o=8192 st=12/84 q=25/1 | d1 r=2 w=8 sw=29 k=0 b=175700 c=0 o=16384 st=2/4 q=5/2 | d2 r=6 w=16 sw=55 k=3 b=441965 c=8192 o=16384 st=6/12 q=25/0 | d3 r=4 w=16 sw=66 k=0 b=330700 c=8192 o=2048 st=4/8 q=23/2
Never/None/DelayedWrite create: clock=469300 parity=0/0/0/0/0 | d0 r=0 w=4 sw=19 k=0 b=27300 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=1 sw=1 k=0 b=88600 c=16384 o=0 st=2/4 q=0/0 | d3 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0
Never/None/DelayedWrite write across blocks: clock=541400 parity=0/0/0/0/0 | d0 r=0 w=4 sw=19 k=0 b=27300 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=2 sw=2 k=0 b=97900 c=16384 o=0 st=4/8 q=0/0 | d3 r=0 w=2 sw=2 k=0 b=2000 c=0 o=0 st=4/8 q=0/0
Never/None/DelayedWrite partial overwrite: clock=541400 parity=0/0/0/0/0 | d0 r=0 w=4 sw=19 k=0 b=27300 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=2 sw=2 k=0 b=97900 c=16384 o=0 st=4/8 q=0/0 | d3 r=0 w=2 sw=2 k=0 b=2000 c=0 o=0 st=4/8 q=0/0
Never/None/DelayedWrite write_sectors across blocks: clock=551700 parity=0/0/0/0/0 | d0 r=0 w=4 sw=19 k=0 b=27300 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=2 sw=2 k=0 b=97900 c=16384 o=0 st=4/8 q=0/0 | d3 r=0 w=2 sw=2 k=0 b=2000 c=0 o=0 st=4/8 q=0/0
Never/None/DelayedWrite write_blocks over two files: clock=588600 parity=0/0/0/0/0 | d0 r=0 w=5 sw=23 k=0 b=39600 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=3 sw=6 k=0 b=110200 c=16384 o=0 st=4/8 q=0/0 | d3 r=0 w=3 sw=6 k=0 b=14300 c=0 o=0 st=4/8 q=0/0
Never/None/DelayedWrite flush_all: clock=658100 parity=0/0/0/0/0 | d0 r=0 w=6 sw=31 k=0 b=55900 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=5 sw=14 k=0 b=134800 c=16384 o=0 st=4/8 q=0/0 | d3 r=0 w=5 sw=18 k=0 b=42900 c=0 o=0 st=4/8 q=0/0
Never/None/DelayedWrite put_detached_block: clock=674955 parity=0/0/0/0/0 | d0 r=0 w=6 sw=31 k=0 b=55900 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=6 sw=18 k=1 b=151655 c=16384 o=0 st=4/8 q=0/0 | d3 r=0 w=5 sw=18 k=0 b=42900 c=0 o=0 st=4/8 q=0/0
Never/None/DelayedWrite swing: clock=719710 parity=0/0/0/0/0 | d0 r=0 w=6 sw=31 k=0 b=55900 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=7 sw=19 k=2 b=165510 c=16384 o=0 st=6/12 q=0/0 | d3 r=0 w=5 sw=18 k=0 b=42900 c=0 o=0 st=4/8 q=0/0
Never/None/DelayedWrite rewrite_block: clock=732010 parity=0/0/0/0/0 | d0 r=0 w=6 sw=31 k=0 b=55900 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=7 sw=19 k=2 b=165510 c=16384 o=0 st=6/12 q=0/0 | d3 r=0 w=6 sw=22 k=0 b=55200 c=0 o=0 st=4/8 q=0/0
Never/None/DelayedWrite from the platter: clock=1139265 parity=0/0/0/0/0 | d0 r=2 w=6 sw=31 k=0 b=144500 c=0 o=16384 st=8/76 q=0/0 | d1 r=4 w=3 sw=4 k=0 b=172500 c=16384 o=2048 st=4/8 q=0/0 | d2 r=6 w=7 sw=19 k=3 b=322965 c=16384 o=10240 st=6/12 q=0/0 | d3 r=2 w=6 sw=22 k=0 b=135800 c=0 o=2048 st=4/8 q=0/0
Never/None/WriteThrough create: clock=469300 parity=0/0/0/0/0 | d0 r=0 w=4 sw=19 k=0 b=27300 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=1 sw=1 k=0 b=88600 c=16384 o=0 st=2/4 q=0/0 | d3 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0
Never/None/WriteThrough write across blocks: clock=635800 parity=0/0/0/0/0 | d0 r=0 w=6 sw=27 k=0 b=51900 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=4 sw=10 k=0 b=122500 c=16384 o=0 st=4/8 q=0/0 | d3 r=0 w=5 sw=14 k=0 b=47200 c=0 o=0 st=4/8 q=0/0
Never/None/WriteThrough partial overwrite: clock=648100 parity=0/0/0/0/0 | d0 r=0 w=6 sw=27 k=0 b=51900 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=4 sw=10 k=0 b=122500 c=16384 o=0 st=4/8 q=0/0 | d3 r=0 w=6 sw=18 k=0 b=59500 c=0 o=0 st=4/8 q=0/0
Never/None/WriteThrough write_sectors across blocks: clock=658400 parity=0/0/0/0/0 | d0 r=0 w=6 sw=27 k=0 b=51900 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=4 sw=10 k=0 b=122500 c=16384 o=0 st=4/8 q=0/0 | d3 r=0 w=6 sw=18 k=0 b=59500 c=0 o=0 st=4/8 q=0/0
Never/None/WriteThrough write_blocks over two files: clock=695300 parity=0/0/0/0/0 | d0 r=0 w=7 sw=31 k=0 b=64200 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=5 sw=14 k=0 b=134800 c=16384 o=0 st=4/8 q=0/0 | d3 r=0 w=7 sw=22 k=0 b=71800 c=0 o=0 st=4/8 q=0/0
Never/None/WriteThrough flush_all: clock=695300 parity=0/0/0/0/0 | d0 r=0 w=7 sw=31 k=0 b=64200 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=5 sw=14 k=0 b=134800 c=16384 o=0 st=4/8 q=0/0 | d3 r=0 w=7 sw=22 k=0 b=71800 c=0 o=0 st=4/8 q=0/0
Never/None/WriteThrough put_detached_block: clock=712155 parity=0/0/0/0/0 | d0 r=0 w=7 sw=31 k=0 b=64200 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=6 sw=18 k=1 b=151655 c=16384 o=0 st=4/8 q=0/0 | d3 r=0 w=7 sw=22 k=0 b=71800 c=0 o=0 st=4/8 q=0/0
Never/None/WriteThrough swing: clock=756910 parity=0/0/0/0/0 | d0 r=0 w=7 sw=31 k=0 b=64200 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=7 sw=19 k=2 b=165510 c=16384 o=0 st=6/12 q=0/0 | d3 r=0 w=7 sw=22 k=0 b=71800 c=0 o=0 st=4/8 q=0/0
Never/None/WriteThrough rewrite_block: clock=769210 parity=0/0/0/0/0 | d0 r=0 w=7 sw=31 k=0 b=64200 c=0 o=0 st=8/76 q=0/0 | d1 r=2 w=3 sw=4 k=0 b=91900 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=7 sw=19 k=2 b=165510 c=16384 o=0 st=6/12 q=0/0 | d3 r=0 w=8 sw=26 k=0 b=84100 c=0 o=0 st=4/8 q=0/0
Never/None/WriteThrough from the platter: clock=1176465 parity=0/0/0/0/0 | d0 r=2 w=7 sw=31 k=0 b=152800 c=16384 o=0 st=8/76 q=0/0 | d1 r=4 w=3 sw=4 k=0 b=172500 c=16384 o=2048 st=4/8 q=0/0 | d2 r=6 w=7 sw=19 k=3 b=322965 c=16384 o=10240 st=6/12 q=0/0 | d3 r=2 w=8 sw=26 k=0 b=164700 c=0 o=2048 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/DelayedWrite create: clock=525900 parity=0/0/0/0/0 | d0 r=2 w=4 sw=19 k=0 b=91900 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=8192 o=0 st=4/8 q=0/0 | d2 r=2 w=1 sw=1 k=0 b=80600 c=8192 o=0 st=2/4 q=0/0 | d3 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0
Never/Parity { k: 3, m: 1 }/DelayedWrite write across blocks: clock=598000 parity=0/0/0/0/0 | d0 r=2 w=4 sw=19 k=0 b=91900 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=8192 o=0 st=4/8 q=0/0 | d2 r=2 w=2 sw=2 k=0 b=89900 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=2 sw=2 k=0 b=2000 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/DelayedWrite partial overwrite: clock=598000 parity=0/0/0/0/0 | d0 r=2 w=4 sw=19 k=0 b=91900 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=8192 o=0 st=4/8 q=0/0 | d2 r=2 w=2 sw=2 k=0 b=89900 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=2 sw=2 k=0 b=2000 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/DelayedWrite write_sectors across blocks: clock=634900 parity=0/0/1/0/0 | d0 r=2 w=5 sw=23 k=0 b=104200 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=3 sw=6 k=0 b=93900 c=8192 o=0 st=4/8 q=0/0 | d2 r=2 w=2 sw=2 k=0 b=89900 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=3 sw=6 k=0 b=14300 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/DelayedWrite write_blocks over two files: clock=696400 parity=0/0/3/0/0 | d0 r=2 w=6 sw=27 k=0 b=116500 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=4 sw=10 k=0 b=106200 c=8192 o=0 st=4/8 q=0/0 | d2 r=2 w=3 sw=6 k=0 b=102200 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=5 sw=14 k=0 b=38900 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/DelayedWrite flush_all: clock=819400 parity=3/0/3/0/0 | d0 r=2 w=9 sw=39 k=0 b=153400 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=7 sw=22 k=0 b=143100 c=8192 o=0 st=4/8 q=0/0 | d2 r=2 w=5 sw=14 k=0 b=126800 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=7 sw=22 k=0 b=63500 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/DelayedWrite put_detached_block: clock=836255 parity=3/0/3/0/0 | d0 r=2 w=9 sw=39 k=0 b=153400 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=7 sw=22 k=0 b=143100 c=8192 o=0 st=4/8 q=0/0 | d2 r=2 w=6 sw=18 k=1 b=143655 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=7 sw=22 k=0 b=63500 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/DelayedWrite swing: clock=893310 parity=3/0/3/0/0 | d0 r=2 w=9 sw=39 k=0 b=153400 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=7 sw=22 k=0 b=143100 c=8192 o=0 st=4/8 q=0/0 | d2 r=2 w=7 sw=19 k=2 b=157510 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=8 sw=26 k=0 b=75800 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/DelayedWrite rewrite_block: clock=917910 parity=3/0/3/0/0 | d0 r=2 w=10 sw=43 k=0 b=165700 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=7 sw=22 k=0 b=143100 c=8192 o=0 st=4/8 q=0/0 | d2 r=2 w=7 sw=19 k=2 b=157510 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=9 sw=30 k=0 b=88100 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/DelayedWrite fail_disk: clock=973410 parity=3/0/3/0/0 | d0 r=2 w=11 sw=44 k=0 b=175000 c=8192 o=0 st=10/80 q=0/0 | d1 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=7 sw=19 k=2 b=157510 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=9 sw=30 k=0 b=88100 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/DelayedWrite write to a degraded row: clock=998010 parity=3/0/4/0/0 | d0 r=2 w=11 sw=44 k=0 b=175000 c=8192 o=0 st=10/80 q=0/0 | d1 r=0 w=2 sw=5 k=0 b=13300 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=7 sw=19 k=2 b=157510 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=10 sw=34 k=0 b=100400 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/DelayedWrite write_sectors to a degraded row: clock=1022610 parity=3/0/5/0/0 | d0 r=2 w=11 sw=44 k=0 b=175000 c=8192 o=0 st=10/80 q=0/0 | d1 r=0 w=2 sw=5 k=0 b=13300 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=8 sw=23 k=2 b=169810 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=11 sw=38 k=0 b=112700 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/DelayedWrite rebuild: clock=1103710 parity=3/0/5/0/4 | d0 r=2 w=12 sw=45 k=0 b=176000 c=8192 o=0 st=12/84 q=0/0 | d1 r=0 w=6 sw=21 k=0 b=62500 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=8 sw=23 k=2 b=169810 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=11 sw=38 k=0 b=112700 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/DelayedWrite from the platter: clock=1523265 parity=3/0/5/0/4 | d0 r=4 w=12 sw=45 k=0 b=260600 c=8192 o=8192 st=12/84 q=0/0 | d1 r=2 w=6 sw=21 k=0 b=147100 c=0 o=8192 st=2/4 q=0/0 | d2 r=6 w=8 sw=23 k=3 b=339565 c=8192 o=16384 st=6/12 q=0/0 | d3 r=2 w=11 sw=38 k=0 b=193300 c=0 o=2048 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/WriteThrough create: clock=525900 parity=0/0/0/0/0 | d0 r=2 w=4 sw=19 k=0 b=91900 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=8192 o=0 st=4/8 q=0/0 | d2 r=2 w=1 sw=1 k=0 b=80600 c=8192 o=0 st=2/4 q=0/0 | d3 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0
Never/Parity { k: 3, m: 1 }/WriteThrough write across blocks: clock=778500 parity=1/4/2/0/0 | d0 r=2 w=7 sw=31 k=0 b=128800 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=5 sw=14 k=0 b=118500 c=8192 o=0 st=4/8 q=0/0 | d2 r=2 w=4 sw=10 k=0 b=114500 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=8 sw=26 k=0 b=84100 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/WriteThrough partial overwrite: clock=803100 parity=1/5/2/0/0 | d0 r=2 w=8 sw=35 k=0 b=141100 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=5 sw=14 k=0 b=118500 c=8192 o=0 st=4/8 q=0/0 | d2 r=2 w=4 sw=10 k=0 b=114500 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=9 sw=30 k=0 b=96400 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/WriteThrough write_sectors across blocks: clock=840000 parity=1/5/3/0/0 | d0 r=2 w=9 sw=39 k=0 b=153400 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=6 sw=18 k=0 b=130800 c=8192 o=0 st=4/8 q=0/0 | d2 r=2 w=4 sw=10 k=0 b=114500 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=10 sw=34 k=0 b=108700 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/WriteThrough write_blocks over two files: clock=901500 parity=1/6/4/0/0 | d0 r=2 w=10 sw=43 k=0 b=165700 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=7 sw=22 k=0 b=143100 c=8192 o=0 st=4/8 q=0/0 | d2 r=2 w=5 sw=14 k=0 b=126800 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=12 sw=42 k=0 b=133300 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/WriteThrough flush_all: clock=901500 parity=1/6/4/0/0 | d0 r=2 w=10 sw=43 k=0 b=165700 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=7 sw=22 k=0 b=143100 c=8192 o=0 st=4/8 q=0/0 | d2 r=2 w=5 sw=14 k=0 b=126800 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=12 sw=42 k=0 b=133300 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/WriteThrough put_detached_block: clock=918355 parity=1/6/4/0/0 | d0 r=2 w=10 sw=43 k=0 b=165700 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=7 sw=22 k=0 b=143100 c=8192 o=0 st=4/8 q=0/0 | d2 r=2 w=6 sw=18 k=1 b=143655 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=12 sw=42 k=0 b=133300 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/WriteThrough swing: clock=975410 parity=1/6/4/0/0 | d0 r=2 w=10 sw=43 k=0 b=165700 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=7 sw=22 k=0 b=143100 c=8192 o=0 st=4/8 q=0/0 | d2 r=2 w=7 sw=19 k=2 b=157510 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=13 sw=46 k=0 b=145600 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/WriteThrough rewrite_block: clock=1000010 parity=1/6/4/0/0 | d0 r=2 w=11 sw=47 k=0 b=178000 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=7 sw=22 k=0 b=143100 c=8192 o=0 st=4/8 q=0/0 | d2 r=2 w=7 sw=19 k=2 b=157510 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=14 sw=50 k=0 b=157900 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/WriteThrough fail_disk: clock=1055510 parity=1/6/4/0/0 | d0 r=2 w=12 sw=48 k=0 b=187300 c=8192 o=0 st=10/80 q=0/0 | d1 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=7 sw=19 k=2 b=157510 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=14 sw=50 k=0 b=157900 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/WriteThrough write to a degraded row: clock=1080110 parity=1/6/5/0/0 | d0 r=2 w=12 sw=48 k=0 b=187300 c=8192 o=0 st=10/80 q=0/0 | d1 r=0 w=2 sw=5 k=0 b=13300 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=7 sw=19 k=2 b=157510 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=15 sw=54 k=0 b=170200 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/WriteThrough write_sectors to a degraded row: clock=1104710 parity=1/6/6/0/0 | d0 r=2 w=12 sw=48 k=0 b=187300 c=8192 o=0 st=10/80 q=0/0 | d1 r=0 w=2 sw=5 k=0 b=13300 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=8 sw=23 k=2 b=169810 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=16 sw=58 k=0 b=182500 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/WriteThrough rebuild: clock=1185810 parity=1/6/6/0/4 | d0 r=2 w=13 sw=49 k=0 b=188300 c=8192 o=0 st=12/84 q=0/0 | d1 r=0 w=6 sw=21 k=0 b=62500 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=8 sw=23 k=2 b=169810 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=16 sw=58 k=0 b=182500 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 3, m: 1 }/WriteThrough from the platter: clock=1605365 parity=1/6/6/0/4 | d0 r=4 w=13 sw=49 k=0 b=272900 c=8192 o=8192 st=12/84 q=0/0 | d1 r=2 w=6 sw=21 k=0 b=147100 c=0 o=8192 st=2/4 q=0/0 | d2 r=6 w=8 sw=23 k=3 b=339565 c=8192 o=16384 st=6/12 q=0/0 | d3 r=2 w=16 sw=58 k=0 b=263100 c=0 o=2048 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/DelayedWrite create: clock=529900 parity=0/0/0/0/0 | d0 r=2 w=4 sw=19 k=0 b=91900 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=1 sw=1 k=0 b=84600 c=8192 o=0 st=2/4 q=0/0 | d3 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0
Never/Parity { k: 2, m: 2 }/DelayedWrite write across blocks: clock=602000 parity=0/0/0/0/0 | d0 r=2 w=4 sw=19 k=0 b=91900 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=2 sw=2 k=0 b=93900 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=2 sw=2 k=0 b=2000 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/DelayedWrite partial overwrite: clock=602000 parity=0/0/0/0/0 | d0 r=2 w=4 sw=19 k=0 b=91900 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=2 sw=2 k=0 b=93900 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=2 sw=2 k=0 b=2000 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/DelayedWrite write_sectors across blocks: clock=651200 parity=1/0/0/0/0 | d0 r=2 w=5 sw=23 k=0 b=104200 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=3 sw=6 k=0 b=93900 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=3 sw=6 k=0 b=106200 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=3 sw=6 k=0 b=14300 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/DelayedWrite write_blocks over two files: clock=761900 parity=1/0/3/0/0 | d0 r=2 w=7 sw=31 k=0 b=128800 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=5 sw=14 k=0 b=118500 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=5 sw=14 k=0 b=130800 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=6 sw=18 k=0 b=51200 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/DelayedWrite flush_all: clock=946400 parity=5/0/3/0/0 | d0 r=2 w=11 sw=47 k=0 b=178000 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=9 sw=30 k=0 b=167700 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=8 sw=26 k=0 b=167700 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=10 sw=34 k=0 b=100400 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/DelayedWrite put_detached_block: clock=963255 parity=5/0/3/0/0 | d0 r=2 w=11 sw=47 k=0 b=178000 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=9 sw=30 k=0 b=167700 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=9 sw=30 k=1 b=184555 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=10 sw=34 k=0 b=100400 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/DelayedWrite swing: clock=1032610 parity=5/0/3/0/0 | d0 r=2 w=11 sw=47 k=0 b=178000 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=9 sw=30 k=0 b=167700 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=11 sw=35 k=2 b=210710 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=11 sw=38 k=0 b=112700 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/DelayedWrite rewrite_block: clock=1069510 parity=5/0/3/0/0 | d0 r=2 w=12 sw=51 k=0 b=190300 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=9 sw=30 k=0 b=167700 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=12 sw=39 k=2 b=223010 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=12 sw=42 k=0 b=125000 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/DelayedWrite fail_disk: clock=1125010 parity=5/0/3/0/0 | d0 r=2 w=13 sw=52 k=0 b=199600 c=8192 o=0 st=10/80 q=0/0 | d1 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=12 sw=39 k=2 b=223010 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=12 sw=42 k=0 b=125000 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/DelayedWrite write to a degraded row: clock=1161910 parity=5/0/4/0/0 | d0 r=2 w=13 sw=52 k=0 b=199600 c=8192 o=0 st=10/80 q=0/0 | d1 r=0 w=2 sw=5 k=0 b=13300 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=13 sw=43 k=2 b=235310 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=13 sw=46 k=0 b=137300 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/DelayedWrite write_sectors to a degraded row: clock=1258410 parity=5/0/5/2/0 | d0 r=2 w=14 sw=56 k=0 b=211900 c=8192 o=0 st=10/80 q=0/0 | d1 r=0 w=3 sw=9 k=0 b=25600 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=13 sw=43 k=2 b=235310 c=8192 o=0 st=6/12 q=0/0 | d3 r=2 w=14 sw=50 k=0 b=209200 c=8192 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/DelayedWrite rebuild: clock=1360110 parity=5/0/5/2/5 | d0 r=2 w=15 sw=57 k=0 b=221200 c=8192 o=0 st=12/84 q=0/0 | d1 r=0 w=8 sw=29 k=0 b=87100 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=13 sw=43 k=2 b=235310 c=8192 o=0 st=6/12 q=0/0 | d3 r=2 w=14 sw=50 k=0 b=209200 c=8192 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/DelayedWrite from the platter: clock=1783665 parity=5/0/5/2/5 | d0 r=4 w=15 sw=57 k=0 b=305800 c=8192 o=8192 st=12/84 q=0/0 | d1 r=2 w=8 sw=29 k=0 b=175700 c=16384 o=0 st=2/4 q=0/0 | d2 r=6 w=13 sw=43 k=3 b=405065 c=8192 o=16384 st=6/12 q=0/0 | d3 r=4 w=14 sw=50 k=0 b=289800 c=8192 o=2048 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/WriteThrough create: clock=529900 parity=0/0/0/0/0 | d0 r=2 w=4 sw=19 k=0 b=91900 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=2 sw=2 k=0 b=81600 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=1 sw=1 k=0 b=84600 c=8192 o=0 st=2/4 q=0/0 | d3 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0
Never/Parity { k: 2, m: 2 }/WriteThrough write across blocks: clock=868600 parity=1/0/6/0/0 | d0 r=2 w=9 sw=39 k=0 b=153400 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=6 sw=18 k=0 b=130800 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=7 sw=22 k=0 b=155400 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=9 sw=30 k=0 b=96400 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/WriteThrough partial overwrite: clock=905500 parity=1/0/7/0/0 | d0 r=2 w=10 sw=43 k=0 b=165700 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=6 sw=18 k=0 b=130800 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=8 sw=26 k=0 b=167700 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=10 sw=34 k=0 b=108700 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/WriteThrough write_sectors across blocks: clock=954700 parity=2/0/7/0/0 | d0 r=2 w=11 sw=47 k=0 b=178000 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=7 sw=22 k=0 b=143100 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=9 sw=30 k=0 b=180000 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=11 sw=38 k=0 b=121000 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/WriteThrough write_blocks over two files: clock=1065400 parity=2/0/10/0/0 | d0 r=2 w=13 sw=55 k=0 b=202600 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=9 sw=30 k=0 b=167700 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=11 sw=38 k=0 b=204600 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=14 sw=50 k=0 b=157900 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/WriteThrough flush_all: clock=1065400 parity=2/0/10/0/0 | d0 r=2 w=13 sw=55 k=0 b=202600 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=9 sw=30 k=0 b=167700 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=11 sw=38 k=0 b=204600 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=14 sw=50 k=0 b=157900 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/WriteThrough put_detached_block: clock=1082255 parity=2/0/10/0/0 | d0 r=2 w=13 sw=55 k=0 b=202600 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=9 sw=30 k=0 b=167700 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=12 sw=42 k=1 b=221455 c=8192 o=0 st=4/8 q=0/0 | d3 r=0 w=14 sw=50 k=0 b=157900 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/WriteThrough swing: clock=1151610 parity=2/0/10/0/0 | d0 r=2 w=13 sw=55 k=0 b=202600 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=9 sw=30 k=0 b=167700 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=14 sw=47 k=2 b=247610 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=15 sw=54 k=0 b=170200 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/WriteThrough rewrite_block: clock=1188510 parity=2/0/10/0/0 | d0 r=2 w=14 sw=59 k=0 b=214900 c=8192 o=0 st=8/76 q=0/0 | d1 r=2 w=9 sw=30 k=0 b=167700 c=16384 o=0 st=4/8 q=0/0 | d2 r=2 w=15 sw=51 k=2 b=259910 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=16 sw=58 k=0 b=182500 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/WriteThrough fail_disk: clock=1244010 parity=2/0/10/0/0 | d0 r=2 w=15 sw=60 k=0 b=224200 c=8192 o=0 st=10/80 q=0/0 | d1 r=0 w=1 sw=1 k=0 b=1000 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=15 sw=51 k=2 b=259910 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=16 sw=58 k=0 b=182500 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/WriteThrough write to a degraded row: clock=1280910 parity=2/0/11/0/0 | d0 r=2 w=15 sw=60 k=0 b=224200 c=8192 o=0 st=10/80 q=0/0 | d1 r=0 w=2 sw=5 k=0 b=13300 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=16 sw=55 k=2 b=272210 c=8192 o=0 st=6/12 q=0/0 | d3 r=0 w=17 sw=62 k=0 b=194800 c=0 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/WriteThrough write_sectors to a degraded row: clock=1377410 parity=2/0/12/2/0 | d0 r=2 w=16 sw=64 k=0 b=236500 c=8192 o=0 st=10/80 q=0/0 | d1 r=0 w=3 sw=9 k=0 b=25600 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=16 sw=55 k=2 b=272210 c=8192 o=0 st=6/12 q=0/0 | d3 r=2 w=18 sw=66 k=0 b=266700 c=8192 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/WriteThrough rebuild: clock=1479110 parity=2/0/12/2/5 | d0 r=2 w=17 sw=65 k=0 b=245800 c=8192 o=0 st=12/84 q=0/0 | d1 r=0 w=8 sw=29 k=0 b=87100 c=0 o=0 st=2/4 q=0/0 | d2 r=2 w=16 sw=55 k=2 b=272210 c=8192 o=0 st=6/12 q=0/0 | d3 r=2 w=18 sw=66 k=0 b=266700 c=8192 o=0 st=4/8 q=0/0
Never/Parity { k: 2, m: 2 }/WriteThrough from the platter: clock=1902665 parity=2/0/12/2/5 | d0 r=4 w=17 sw=65 k=0 b=330400 c=8192 o=8192 st=12/84 q=0/0 | d1 r=2 w=8 sw=29 k=0 b=175700 c=16384 o=0 st=2/4 q=0/0 | d2 r=6 w=16 sw=55 k=3 b=441965 c=8192 o=16384 st=6/12 q=0/0 | d3 r=4 w=18 sw=66 k=0 b=347300 c=8192 o=2048 st=4/8 q=0/0
";
