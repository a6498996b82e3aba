//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;
use rhodos_disk_service::codec::{Decoder, Encoder};
use rhodos_disk_service::{Bitmap, Extent, FreeExtentArray};
use rhodos_file_service::{
    FileAttributes, FileId, FileIndexTable, FileService, FileServiceConfig, ServiceType,
};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock, SimDisk, StableStore};
use rhodos_txn::{DataItem, LockMode, LockTable};
use std::collections::HashMap;

// ---------------------------------------------------------------- codec --

proptest! {
    #[test]
    fn codec_round_trips(a: u8, b: u16, c: u32, d: u64, s in ".{0,64}", v in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut e = Encoder::new();
        e.u8(a).u16(b).u32(c).u64(d).str(&s).bytes(&v);
        let buf = e.finish();
        let mut dec = Decoder::new(&buf);
        prop_assert_eq!(dec.u8().unwrap(), a);
        prop_assert_eq!(dec.u16().unwrap(), b);
        prop_assert_eq!(dec.u32().unwrap(), c);
        prop_assert_eq!(dec.u64().unwrap(), d);
        prop_assert_eq!(dec.str().unwrap(), s);
        prop_assert_eq!(dec.bytes().unwrap(), v);
        prop_assert!(dec.is_empty());
    }

    #[test]
    fn codec_never_panics_on_garbage(garbage in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut d = Decoder::new(&garbage);
        // Any decode sequence either succeeds or reports DecodeError; it
        // must never panic.
        let _ = d.u64();
        let _ = d.bytes();
        let _ = d.str();
    }
}

// ---------------------------------------------------- free-space manager --

#[derive(Debug, Clone)]
enum AllocOp {
    Alloc(u64),
    AllocTop(u64),
    FreeNth(usize),
}

fn alloc_ops() -> impl Strategy<Value = Vec<AllocOp>> {
    proptest::collection::vec(
        prop_oneof![
            (1u64..20).prop_map(AllocOp::Alloc),
            (1u64..20).prop_map(AllocOp::AllocTop),
            (0usize..32).prop_map(AllocOp::FreeNth),
        ],
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn allocator_never_double_allocates_and_conserves_space(ops in alloc_ops()) {
        const TOTAL: u64 = 512;
        let mut bm = Bitmap::new_all_free(TOTAL);
        let mut idx = FreeExtentArray::new();
        idx.rebuild_from(&bm);
        let mut live: Vec<Extent> = Vec::new();
        for op in ops {
            match op {
                AllocOp::Alloc(n) => {
                    if let Some(e) = idx.allocate(&mut bm, n) {
                        prop_assert_eq!(e.len, n);
                        // No overlap with any live extent.
                        for l in &live {
                            prop_assert!(!e.overlaps(l), "overlap {} with {}", e, l);
                        }
                        live.push(e);
                    }
                }
                AllocOp::AllocTop(n) => {
                    if let Some(e) = idx.allocate_top(&mut bm, n) {
                        prop_assert_eq!(e.len, n);
                        for l in &live {
                            prop_assert!(!e.overlaps(l), "overlap {} with {}", e, l);
                        }
                        live.push(e);
                    }
                }
                AllocOp::FreeNth(k) => {
                    if !live.is_empty() {
                        let e = live.remove(k % live.len());
                        idx.free(&mut bm, e);
                    }
                }
            }
            // Conservation: free + allocated == total.
            let allocated: u64 = live.iter().map(|e| e.len).sum();
            prop_assert_eq!(bm.free_fragments() + allocated, TOTAL);
        }
        // Free everything: the disk must coalesce back to one run.
        for e in live.drain(..) {
            idx.free(&mut bm, e);
        }
        prop_assert_eq!(bm.free_fragments(), TOTAL);
        prop_assert_eq!(bm.largest_free_run(), TOTAL);
    }
}

// -------------------------------------------------------------- lock table --

#[derive(Debug, Clone)]
enum LockOp {
    Acquire { txn: u64, page: u64, mode: u8 },
    Release { txn: u64 },
}

fn lock_ops() -> impl Strategy<Value = Vec<LockOp>> {
    proptest::collection::vec(
        prop_oneof![
            (1u64..6, 0u64..4, 0u8..3).prop_map(|(txn, page, mode)| LockOp::Acquire {
                txn,
                page,
                mode
            }),
            (1u64..6).prop_map(|txn| LockOp::Release { txn }),
        ],
        1..120,
    )
}

fn mode_of(m: u8) -> LockMode {
    match m {
        0 => LockMode::ReadOnly,
        1 => LockMode::Iread,
        _ => LockMode::Iwrite,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Safety invariant of Table 1: at no point do two *different*
    /// transactions hold incompatible granted locks on overlapping items —
    /// in particular at most one IW (exclusive), at most one IR, and
    /// never IW together with anything else.
    #[test]
    fn lock_table_never_grants_incompatible_locks(ops in lock_ops()) {
        let mut table = LockTable::new(1_000_000, 3);
        let mut now = 0u64;
        for op in ops {
            now += 1;
            match op {
                LockOp::Acquire { txn, page, mode } => {
                    let _ = table.set_lock(txn, txn, DataItem::Page(FileId(1), page), mode_of(mode), now);
                }
                LockOp::Release { txn } => {
                    table.release_all(txn, now);
                }
            }
            // Check the invariant over every page.
            for page in 0..4u64 {
                let item = DataItem::Page(FileId(1), page);
                let mut holders: HashMap<u64, LockMode> = HashMap::new();
                for txn in 1..6u64 {
                    for (it, m) in table.granted_items(txn) {
                        if it == item {
                            holders.insert(txn, m);
                        }
                    }
                }
                let iw = holders.values().filter(|m| **m == LockMode::Iwrite).count();
                let ir = holders.values().filter(|m| **m == LockMode::Iread).count();
                prop_assert!(iw <= 1, "two Iwrite holders on {item:?}");
                prop_assert!(ir <= 1, "two Iread holders on {item:?}");
                if iw == 1 {
                    prop_assert_eq!(holders.len(), 1, "Iwrite shared on {:?}: {:?}", item, holders);
                }
            }
        }
    }
}

// ------------------------------------------------------------ file service --

#[derive(Debug, Clone)]
enum FileOp {
    Write { offset: u16, data: Vec<u8> },
    Read { offset: u16, len: u16 },
    Flush,
    CrashRecover,
}

fn file_ops() -> impl Strategy<Value = Vec<FileOp>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (0u16..20_000, proptest::collection::vec(any::<u8>(), 1..400))
                .prop_map(|(offset, data)| FileOp::Write { offset, data }),
            4 => (0u16..22_000, 0u16..600).prop_map(|(offset, len)| FileOp::Read { offset, len }),
            1 => Just(FileOp::Flush),
            1 => Just(FileOp::CrashRecover),
        ],
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The file service behaves like a simple byte array (the model),
    /// with the caveat that a crash loses unflushed delayed writes — so
    /// the model is only compared when all writes are flushed.
    #[test]
    fn file_service_matches_byte_array_model(ops in file_ops()) {
        let mut fs = FileService::single_disk(
            DiskGeometry::medium(),
            LatencyModel::instant(),
            SimClock::new(),
            FileServiceConfig::default(),
        ).unwrap();
        let fid = fs.create(ServiceType::Basic).unwrap();
        fs.open(fid).unwrap();
        let mut model: Vec<u8> = Vec::new();
        for op in ops {
            match op {
                FileOp::Write { offset, data } => {
                    if data.is_empty() {
                        continue; // empty writes are no-ops in both worlds
                    }
                    let offset = offset as usize;
                    fs.write(fid, offset as u64, &data).unwrap();
                    if model.len() < offset + data.len() {
                        model.resize(offset + data.len(), 0);
                    }
                    model[offset..offset + data.len()].copy_from_slice(&data);
                }
                FileOp::Read { offset, len } => {
                    let offset = offset as usize;
                    let len = len as usize;
                    if offset > model.len() {
                        prop_assert!(fs.read(fid, offset as u64, len).is_err());
                    } else {
                        let got = fs.read(fid, offset as u64, len).unwrap();
                        let want = &model[offset..(offset + len).min(model.len())];
                        prop_assert_eq!(got, want.to_vec());
                    }
                }
                FileOp::Flush => {
                    fs.flush_all().unwrap();
                }
                FileOp::CrashRecover => {
                    fs.flush_all().unwrap(); // make the model comparable
                    fs.simulate_crash();
                    fs.recover().unwrap();
                    fs.open(fid).unwrap();
                    // After recovery the whole file matches the model.
                    if !model.is_empty() {
                        let got = fs.read(fid, 0, model.len()).unwrap();
                        prop_assert_eq!(&got, &model);
                    }
                }
            }
            prop_assert_eq!(fs.get_attribute(fid).unwrap().size, model.len() as u64);
        }
        // Final full comparison.
        if !model.is_empty() {
            let got = fs.read(fid, 0, model.len()).unwrap();
            prop_assert_eq!(got, model);
        }
        // And the on-disk structures are internally consistent.
        let report = fs.fsck().unwrap();
        prop_assert!(report.is_clean(), "fsck: {:?}", report.issues);
    }
}

// ------------------------------------------------------------ FIT layout --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contiguity counts always describe physically contiguous runs, and
    /// `runs()` covers every requested block exactly once.
    #[test]
    fn fit_contiguity_counts_are_sound(
        runs in proptest::collection::vec((0u16..3, 0u64..1000, 1u64..8), 1..20)
    ) {
        let mut fit = FileIndexTable::new(FileAttributes::new(0, ServiceType::Basic));
        for (disk, start_block, nblocks) in runs {
            // Block addresses spaced so appended runs may or may not abut.
            fit.append_run(disk, start_block * 4, nblocks);
        }
        let n = fit.block_count();
        for i in 0..n {
            let d = fit.descriptor(i).unwrap();
            // Every block the count promises is physically adjacent.
            for j in 1..d.contig as u64 {
                let next = fit.descriptor(i + j).unwrap();
                prop_assert_eq!(next.disk, d.disk);
                prop_assert_eq!(next.addr, d.addr + j * 4);
            }
        }
        // runs() partitions any range exactly.
        if n > 0 {
            let covered: u64 = fit.runs(0, n).iter().map(|r| r.blocks).sum();
            prop_assert_eq!(covered, n);
        }
    }
}

// --------------------------------------------------------- stable storage --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After arbitrary single-mirror corruption, recovery either restores
    /// every record or reports it lost — data is never silently wrong.
    #[test]
    fn stable_storage_never_serves_garbage(
        writes in proptest::collection::vec((0u64..16, proptest::collection::vec(any::<u8>(), 1..64)), 1..24),
        corrupt_a in proptest::collection::vec(0u64..16, 0..6),
        corrupt_b in proptest::collection::vec(0u64..16, 0..6),
    ) {
        let clock = SimClock::new();
        let mk = || SimDisk::new(DiskGeometry::new(2, 8), LatencyModel::instant(), clock.clone());
        let mut stable = StableStore::new(mk(), mk());
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for (slot, data) in writes {
            stable.write(slot, &data).unwrap();
            model.insert(slot, data);
        }
        for s in &corrupt_a {
            stable.mirror_a_mut().corrupt_sector(*s).unwrap();
        }
        for s in &corrupt_b {
            stable.mirror_b_mut().corrupt_sector(*s).unwrap();
        }
        let lost = stable.recover().unwrap();
        for (slot, data) in &model {
            if lost.contains(slot) {
                // Only slots corrupted on BOTH mirrors may be lost.
                prop_assert!(corrupt_a.contains(slot) && corrupt_b.contains(slot));
            } else {
                let got = stable.read(*slot).unwrap();
                prop_assert_eq!(got.as_ref(), Some(data));
            }
        }
    }
}
