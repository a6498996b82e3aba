//! Criterion microbenchmarks of the facility's hot paths:
//! allocation (extent array vs bitmap), block transfer (contiguous vs
//! scattered), file read/write, lock acquire/release and commit.
//!
//! `cargo bench -p rhodos-bench --bench hot_paths`

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rhodos_disk_service::{Bitmap, DiskServiceConfig, FreeExtentArray, StablePolicy};
use rhodos_file_service::{FileServiceConfig, LockLevel, ServiceType};
use rhodos_txn::{DataItem, LockMode, LockTable, TxnConfig};

fn bench_allocation(c: &mut Criterion) {
    let mut g = c.benchmark_group("allocation");
    // Pre-fragment a bitmap.
    let mut base = Bitmap::new_all_free(1 << 16);
    let mut idx = FreeExtentArray::new();
    idx.rebuild_from(&base);
    let mut live = Vec::new();
    for i in 0..4000u64 {
        if let Some(e) = idx.allocate(&mut base, 1 + i % 9) {
            if i % 3 == 0 {
                idx.free(&mut base, e);
            } else {
                live.push(e);
            }
        }
    }
    g.bench_function("extent_array_alloc_free_8", |b| {
        b.iter_batched(
            || (base.clone(), idx.clone()),
            |(mut bm, mut ix)| {
                if let Some(e) = ix.allocate(&mut bm, 8) {
                    ix.free(&mut bm, e);
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("bitmap_first_fit_8", |b| {
        b.iter_batched(
            || base.clone(),
            |bm| bm.find_free_run_first_fit(8),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_disk_transfer(c: &mut Criterion) {
    let mut g = c.benchmark_group("disk_transfer");
    g.bench_function("put_get_one_block", |b| {
        let mut svc = rhodos_bench::setups::disk_service(DiskServiceConfig::default());
        let e = svc.allocate_block().unwrap();
        let buf = vec![7u8; rhodos_disk_service::BLOCK_SIZE];
        b.iter(|| {
            svc.put(e, &buf, StablePolicy::None).unwrap();
            std::hint::black_box(svc.get(e).unwrap());
        })
    });
    g.bench_function("put_get_16_block_run", |b| {
        let mut svc = rhodos_bench::setups::disk_service(DiskServiceConfig::default());
        let e = svc.allocate_contiguous(64).unwrap();
        let buf = vec![7u8; 64 * rhodos_disk_service::FRAGMENT_SIZE];
        b.iter(|| {
            svc.put(e, &buf, StablePolicy::None).unwrap();
            std::hint::black_box(svc.get(e).unwrap());
        })
    });
    g.finish();
}

fn bench_file_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("file_ops");
    g.bench_function("write_read_4k", |b| {
        let mut fs = rhodos_bench::setups::file_service(FileServiceConfig::default());
        let fid = fs.create(ServiceType::Basic).unwrap();
        fs.open(fid).unwrap();
        fs.write(fid, 0, vec![0u8; 64 * 1024]).unwrap();
        let buf = vec![5u8; 4096];
        let mut off = 0u64;
        b.iter(|| {
            fs.write(fid, off % 60_000, &buf).unwrap();
            std::hint::black_box(fs.read(fid, off % 60_000, 4096).unwrap());
            off += 4096;
        })
    });
    g.finish();
}

fn bench_locks(c: &mut Criterion) {
    let mut g = c.benchmark_group("locks");
    g.bench_function("acquire_release_page", |b| {
        let mut table = LockTable::new(1_000_000, 3);
        let item = DataItem::Page(rhodos_file_service::FileId(1), 0);
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            table.set_lock(0, 1, item, LockMode::Iwrite, now);
            table.release_all(1, now);
        })
    });
    g.bench_function("contended_queue_promote", |b| {
        b.iter_batched(
            || {
                let mut table = LockTable::new(1_000_000, 3);
                let item = DataItem::Page(rhodos_file_service::FileId(1), 0);
                table.set_lock(0, 1, item, LockMode::Iwrite, 0);
                for txn in 2..10u64 {
                    table.set_lock(0, txn, item, LockMode::Iwrite, txn);
                }
                table
            },
            |mut table| {
                for txn in 1..10u64 {
                    table.release_all(txn, 100 + txn);
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_commit(c: &mut Criterion) {
    let mut g = c.benchmark_group("transactions");
    g.sample_size(20);
    g.bench_function("begin_write_commit_page", |b| {
        let mut ts = rhodos_bench::setups::transaction_service(TxnConfig::default());
        let fid = ts.tcreate(LockLevel::Page).unwrap();
        let t0 = ts.tbegin();
        ts.topen(t0, fid).unwrap();
        ts.twrite(t0, fid, 0, &vec![0u8; 8192]).unwrap();
        ts.tend(t0).unwrap();
        b.iter(|| {
            let t = ts.tbegin();
            ts.topen(t, fid).unwrap();
            ts.twrite(t, fid, 0, &[1u8; 512]).unwrap();
            ts.tend(t).unwrap();
        })
    });
    g.bench_function("begin_write_commit_record", |b| {
        let mut ts = rhodos_bench::setups::transaction_service(TxnConfig::default());
        let fid = ts.tcreate(LockLevel::Record).unwrap();
        let t0 = ts.tbegin();
        ts.topen(t0, fid).unwrap();
        ts.twrite(t0, fid, 0, &vec![0u8; 8192]).unwrap();
        ts.tend(t0).unwrap();
        b.iter(|| {
            let t = ts.tbegin();
            ts.topen(t, fid).unwrap();
            ts.twrite(t, fid, 64, &[1u8; 64]).unwrap();
            ts.tend(t).unwrap();
        })
    });
    g.finish();
}

fn bench_commit_throughput(c: &mut Criterion) {
    use rhodos_txn::SharedTransactionService;
    let mut g = c.benchmark_group("commit_throughput");
    g.sample_size(10);
    // Real threads through the group-commit pipeline: each committer
    // updates its own page-locked file, so every wave is conflict-free
    // and the measured cost is the commit path itself (log force
    // amortisation across however many committers pile onto one leader).
    for committers in [1usize, 8, 32] {
        let shared = SharedTransactionService::new(rhodos_bench::setups::transaction_service(
            TxnConfig::default(),
        ));
        let fids: Vec<_> = (0..committers)
            .map(|_| {
                let fid = shared.lock().tcreate(LockLevel::Page).unwrap();
                shared
                    .run_txn(|s, t| {
                        s.lock().topen(t, fid)?;
                        s.lock().twrite(t, fid, 0, &vec![0u8; 8192])
                    })
                    .unwrap();
                fid
            })
            .collect();
        g.bench_function(&format!("committers_{committers}"), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for &fid in &fids {
                        let s = shared.clone();
                        scope.spawn(move || {
                            s.run_txn(|s, t| {
                                s.lock().topen(t, fid)?;
                                s.lock().twrite(t, fid, 0, &[1u8; 512])
                            })
                            .unwrap();
                        });
                    }
                });
            })
        });
    }
    g.finish();
}

fn bench_fit_codec(c: &mut Criterion) {
    use rhodos_file_service::{FileAttributes, FileIndexTable};
    let mut g = c.benchmark_group("fit_codec");
    // A 64-direct-block FIT (the common case).
    let mut fit = FileIndexTable::new(FileAttributes::new(0, ServiceType::Basic));
    fit.append_run(0, 100, 64);
    fit.attrs.size = 512 * 1024;
    g.bench_function("encode_direct_fit", |b| {
        b.iter(|| std::hint::black_box(fit.encode_fit_fragment(&[])))
    });
    let frag = fit.encode_fit_fragment(&[]);
    g.bench_function("decode_direct_fit", |b| {
        b.iter(|| std::hint::black_box(FileIndexTable::decode_fit_fragment(&frag).unwrap()))
    });
    g.finish();
}

fn bench_stable_storage(c: &mut Criterion) {
    use rhodos_simdisk::{
        DiskGeometry, LatencyModel, SimClock, SimDisk, StableStore, StableWriteMode,
    };
    let mut g = c.benchmark_group("stable_storage");
    let clock = SimClock::new();
    let mk = || {
        SimDisk::new(
            DiskGeometry::small(),
            LatencyModel::instant(),
            clock.clone(),
        )
    };
    let mut stable = StableStore::new(mk(), mk());
    let payload = vec![0xEEu8; 1024];
    g.bench_function("sync_record_write", |b| {
        b.iter(|| stable.write(3, &payload, StableWriteMode::Sync).unwrap())
    });
    g.bench_function("record_read", |b| {
        b.iter(|| std::hint::black_box(stable.read(3).unwrap()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_allocation,
    bench_disk_transfer,
    bench_file_ops,
    bench_locks,
    bench_commit,
    bench_commit_throughput,
    bench_fit_codec,
    bench_stable_storage
);
criterion_main!(benches);
