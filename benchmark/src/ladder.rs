//! The lower rungs of the ladder: the same request stream replayed
//! against `SimDisk` sector I/O, `DiskService::get`/`put` and
//! `FileService::read`/`write`, so that what a layer adds is the
//! difference between its rung and the one below — the method of the
//! Linux RAID study (raw disk → partition → volume → RAID → filesystem).
//!
//! Each rung keeps the driver's content model and checks what it reads
//! back exactly like the top rung does, so the driver's own overhead is
//! the same on every rung and cancels in the subtraction.

use crate::driver::{replay, Recorder, Rung, Tally};
use crate::gen::{Kind, Layout, Req, Stream, SEED_BYTE};
use crate::model::Model;
use rhodos_disk_service::{BlockBuf, DiskService, DiskServiceConfig, Extent, StablePolicy};
use rhodos_file_service::{FileId, FileService, ServiceType};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock, SimDisk, SECTOR_SIZE};

const UNIT: u64 = SECTOR_SIZE as u64;

/// A device addressed in 2 KiB units (a sector is a fragment).
pub trait Device {
    fn get(&mut self, unit: u64, count: u64) -> Option<BlockBuf>;
    fn put(&mut self, unit: u64, data: &[u8]) -> bool;
}

impl Device for SimDisk {
    fn get(&mut self, unit: u64, count: u64) -> Option<BlockBuf> {
        self.read_sectors(unit, count).ok()
    }

    fn put(&mut self, unit: u64, data: &[u8]) -> bool {
        self.write_sectors(unit, data).is_ok()
    }
}

/// A disk server plus the first fragment of the one extent that holds
/// the whole layout.
pub struct DiskServer {
    svc: DiskService,
    base: u64,
}

impl Device for DiskServer {
    fn get(&mut self, unit: u64, count: u64) -> Option<BlockBuf> {
        self.svc.get(Extent::new(self.base + unit, count)).ok()
    }

    fn put(&mut self, unit: u64, data: &[u8]) -> bool {
        let extent = Extent::new(self.base + unit, data.len() as u64 / UNIT);
        self.svc.put(extent, data, StablePolicy::None).is_ok()
    }
}

/// Replays a stream against a [`Device`]: the byte range of every
/// request, widened to whole units.
pub struct DeviceRung<D: Device> {
    dev: D,
    stream: Box<dyn Stream>,
    layout: Layout,
    model: Model,
    reqs: Vec<Req>,
}

impl<D: Device> DeviceRung<D> {
    fn new(mut dev: D, stream: Box<dyn Stream>) -> Self {
        let layout = stream.layout();
        let file = vec![SEED_BYTE; layout.file_bytes as usize];
        for f in 0..layout.files as u64 {
            assert!(dev.put(f * layout.file_bytes / UNIT, &file), "seed device");
        }
        Self {
            dev,
            stream,
            layout,
            model: Model::new(layout),
            reqs: Vec::new(),
        }
    }

    /// Units covering `len` bytes at `offset` of `file`, and the model
    /// bytes of exactly those units.
    fn units(&self, file: u16, offset: u64, len: u32) -> (u64, u64, usize) {
        let first = offset / UNIT;
        let last = (offset + u64::from(len) - 1) / UNIT;
        let base = u64::from(file) * self.layout.file_bytes / UNIT;
        (base + first, last - first + 1, (first * UNIT) as usize)
    }

    fn put_from_model(&mut self, file: u16, offset: u64, len: u32) -> bool {
        let (unit, count, at) = self.units(file, offset, len);
        let bytes = &self.model.file(file as usize)[at..at + (count * UNIT) as usize];
        self.dev.put(unit, bytes)
    }

    fn exec(&mut self, r: &Req) -> bool {
        match r.kind {
            Kind::Read => {
                let (unit, count, at) = self.units(r.file, r.offset, r.len);
                let lo = r.offset as usize - at;
                self.dev
                    .get(unit, count)
                    .is_some_and(|got| self.model.matches(r, &got[lo..lo + r.len as usize]))
            }
            Kind::Write => {
                self.model.write(r);
                self.put_from_model(r.file, r.offset, r.len)
            }
            Kind::Update => {
                let (unit, count, at) = self.units(r.file, r.offset, r.len);
                let lo = r.offset as usize - at;
                let Some(got) = self.dev.get(unit, count) else {
                    return false;
                };
                let (before, _) = self.model.update(r);
                let seen = u64::from_le_bytes(got[lo..lo + 8].try_into().expect("8 bytes"));
                self.put_from_model(r.file, r.offset, r.len) && seen == before
            }
            Kind::Flush => true,
            Kind::Cross => {
                self.model.write(r);
                self.put_from_model(r.file, r.offset, r.len)
                    && self.put_from_model(r.file2, r.offset, r.len)
            }
        }
    }
}

impl<D: Device> Rung for DeviceRung<D> {
    fn prepare(&mut self) {
        self.reqs.clear();
        self.stream.fill(&mut self.reqs);
    }

    fn run(&mut self, rec: &mut Recorder) -> Tally {
        let reqs = std::mem::take(&mut self.reqs);
        let tally = replay(&reqs, rec, |r| self.exec(r));
        self.reqs = reqs;
        tally
    }
}

/// Bottom rung: one bare simulated disk.
pub fn simdisk_rung(stream: Box<dyn Stream>) -> Box<dyn Rung> {
    let disk = SimDisk::new(
        DiskGeometry::large(),
        LatencyModel::default(),
        SimClock::new(),
    );
    Box::new(DeviceRung::new(disk, stream))
}

/// Second rung: a default disk server (track cache, stable mirrors).
pub fn disk_service_rung(stream: Box<dyn Stream>) -> Box<dyn Rung> {
    let mut svc = DiskService::with_stable(
        DiskGeometry::large(),
        LatencyModel::default(),
        SimClock::new(),
        DiskServiceConfig::default(),
    );
    let layout = stream.layout();
    let frags = layout.files as u64 * layout.file_bytes / UNIT;
    let base = svc
        .allocate_contiguous(frags)
        .expect("extent for the layout")
        .start;
    Box::new(DeviceRung::new(DiskServer { svc, base }, stream))
}

/// Third rung: the file service, called directly. `durable` names the
/// request kinds whose top-rung acknowledgement means "on the platter";
/// those add a `flush_file` here.
pub struct FileServiceRung {
    fs: FileService,
    fids: Vec<FileId>,
    stream: Box<dyn Stream>,
    model: Model,
    reqs: Vec<Req>,
    durable: fn(Kind) -> bool,
}

impl FileServiceRung {
    pub fn new(mut fs: FileService, stream: Box<dyn Stream>, durable: fn(Kind) -> bool) -> Self {
        let layout = stream.layout();
        let fids = seed_files(&mut fs, layout);
        Self {
            fs,
            fids,
            stream,
            model: Model::new(layout),
            reqs: Vec::new(),
            durable,
        }
    }

    fn write(&mut self, file: u16, r: &Req) -> bool {
        let fid = self.fids[file as usize];
        let at = r.offset as usize;
        let bytes = &self.model.file(file as usize)[at..at + r.len as usize];
        self.fs.write(fid, r.offset, bytes).is_ok()
            && (!(self.durable)(r.kind) || self.fs.flush_file(fid).is_ok())
    }

    fn exec(&mut self, r: &Req) -> bool {
        let fid = self.fids[r.file as usize];
        match r.kind {
            Kind::Read => self
                .fs
                .read(fid, r.offset, r.len as usize)
                .is_ok_and(|got| self.model.matches(r, &got)),
            Kind::Write => {
                self.model.write(r);
                self.write(r.file, r)
            }
            Kind::Update => {
                let Ok(got) = self.fs.read(fid, r.offset, 8) else {
                    return false;
                };
                let (before, _) = self.model.update(r);
                let seen = u64::from_le_bytes(got.as_slice().try_into().unwrap_or([0; 8]));
                self.write(r.file, r) && seen == before
            }
            Kind::Flush => true,
            Kind::Cross => {
                self.model.write(r);
                self.write(r.file, r) && self.write(r.file2, r)
            }
        }
    }
}

impl Rung for FileServiceRung {
    fn prepare(&mut self) {
        self.reqs.clear();
        self.stream.fill(&mut self.reqs);
    }

    fn run(&mut self, rec: &mut Recorder) -> Tally {
        let reqs = std::mem::take(&mut self.reqs);
        let tally = replay(&reqs, rec, |r| self.exec(r));
        self.reqs = reqs;
        tally
    }
}

/// Creates, opens and fills every file of `layout` on a bare file
/// service, then flushes, so the measured phase starts from disk state.
pub fn seed_files(fs: &mut FileService, layout: Layout) -> Vec<FileId> {
    let chunk = vec![SEED_BYTE; (layout.file_bytes as usize).min(1 << 20)];
    let fids: Vec<FileId> = (0..layout.files)
        .map(|_| {
            let fid = fs.create(ServiceType::Basic).expect("create");
            fs.open(fid).expect("open");
            let mut at = 0;
            while at < layout.file_bytes {
                fs.write(fid, at, &chunk[..]).expect("seed write");
                at += chunk.len() as u64;
            }
            fid
        })
        .collect();
    fs.flush_all().expect("seed flush");
    fids
}

/// A default single-disk file service, as the txn, lease and cluster
/// servers have.
pub fn single_disk_fs() -> FileService {
    FileService::single_disk(
        DiskGeometry::large(),
        LatencyModel::default(),
        SimClock::new(),
        Default::default(),
    )
    .expect("format file service")
}
