//! `FileService::write_sectors`, the write-through of whole sectors the
//! intention log forces with: its sectors reach the platter as one disk
//! reference on every issue path, the pool keeps no copy of a block it
//! touched, and on the parity tier — which needs whole units — the
//! touched blocks are written whole, parity and all, so losing a disk
//! after a partial-block write loses nothing.

use rhodos_buf::BlockBuf;
use rhodos_disk_service::BLOCK_SIZE;
use rhodos_file_service::{
    FileId, FileService, FileServiceConfig, ParallelIo, Redundancy, ServiceType,
};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock, SECTOR_SIZE};

const SECTORS_PER_BLOCK: usize = BLOCK_SIZE / SECTOR_SIZE;

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i / 7 % 251) as u8 ^ salt).collect()
}

/// A file of `blocks` patterned blocks, flushed, with the pool and the
/// track caches emptied.
fn file_of(fs: &mut FileService, blocks: usize) -> (FileId, Vec<u8>) {
    let fid = fs.create(ServiceType::Basic).unwrap();
    fs.open(fid).unwrap();
    let data = pattern(blocks * BLOCK_SIZE, 5);
    fs.write(fid, 0, &data).unwrap();
    fs.evict_caches().unwrap();
    (fid, data)
}

/// Sectors `first..first + n` of new bytes, one buffer each, and `model`
/// updated to hold them.
fn sectors(model: &mut [u8], first: usize, n: usize, salt: u8) -> Vec<BlockBuf> {
    let new = pattern(n * SECTOR_SIZE, salt);
    model[first * SECTOR_SIZE..][..new.len()].copy_from_slice(&new);
    new.chunks(SECTOR_SIZE).map(BlockBuf::from).collect()
}

/// Sectors across a block boundary are one disk reference whether the
/// scheduler merges them (`Auto`) or the serial path joins them
/// (`Never`), they read back, and the pool holds neither block after.
#[test]
fn sectors_across_a_block_boundary_are_one_reference_on_both_issue_paths() {
    for parallel_io in [ParallelIo::Auto, ParallelIo::Never] {
        let mut fs = FileService::single_disk(
            DiskGeometry::medium(),
            LatencyModel::instant(),
            SimClock::new(),
            FileServiceConfig {
                parallel_io,
                ..FileServiceConfig::default()
            },
        )
        .unwrap();
        let (fid, mut model) = file_of(&mut fs, 2);
        fs.read(fid, 0, model.len()).unwrap();
        let pool = fs.cache_handle().unwrap();
        assert!(pool.contains(&(fid, 0)) && pool.contains(&(fid, 1)));

        let first = SECTORS_PER_BLOCK - 1;
        let new = sectors(&mut model, first, 2, 0x3c);
        let writes = fs.stats().disks[0].disk.write_ops;
        fs.write_sectors(fid, first as u64, new).unwrap();
        let refs = fs.stats().disks[0].disk.write_ops - writes;
        assert_eq!(refs, 1, "{parallel_io:?}: one reference");
        assert!(!pool.contains(&(fid, 0)) && !pool.contains(&(fid, 1)));
        assert_eq!(fs.read(fid, 0, model.len()).unwrap(), model);
    }
}

/// A buffer that is not one sector is refused before anything is written.
#[test]
fn a_buffer_that_is_not_one_sector_is_refused() {
    let mut fs = FileService::single_disk(
        DiskGeometry::medium(),
        LatencyModel::instant(),
        SimClock::new(),
        FileServiceConfig::default(),
    )
    .unwrap();
    let (fid, model) = file_of(&mut fs, 1);
    let short = vec![BlockBuf::from(vec![1u8; SECTOR_SIZE]), vec![2u8; 10].into()];
    assert!(fs.write_sectors(fid, 0, short).is_err());
    assert_eq!(fs.read(fid, 0, model.len()).unwrap(), model);
}

/// Part of a block rewritten on a 4+1 group: the block's other sectors
/// are read and the unit goes out whole with its parity, so once the
/// block's disk fails, the degraded read reconstructs the new bytes and
/// neither scrub nor fsck finds anything.
#[test]
fn part_of_a_block_on_a_parity_volume_survives_losing_its_disk() {
    let mut fs = FileService::striped(
        5,
        DiskGeometry::medium(),
        LatencyModel::instant(),
        SimClock::new(),
        FileServiceConfig {
            redundancy: Redundancy::Parity { k: 4, m: 1 },
            ..FileServiceConfig::default()
        },
    )
    .unwrap();
    let (fid, mut model) = file_of(&mut fs, 8);
    // The middle two sectors of block 5, in the second stripe row.
    let first = 5 * SECTORS_PER_BLOCK + 1;
    let new = sectors(&mut model, first, 2, 0xa7);
    fs.write_sectors(fid, first as u64, new).unwrap();
    assert!(fs.scrub(None).unwrap().is_clean());

    let home = fs.block_descriptors(fid).unwrap()[5].disk;
    fs.fail_disk(home as usize).unwrap();
    let degraded = fs.stats().parity.degraded_reads;
    assert_eq!(fs.read(fid, 0, model.len()).unwrap(), model);
    assert!(
        fs.stats().parity.degraded_reads > degraded,
        "block 5 rebuilt"
    );
    assert!(fs.scrub(None).unwrap().is_clean());
    let fsck = fs.fsck().unwrap();
    assert!(fsck.is_clean(), "{:?}", fsck.issues);
}
