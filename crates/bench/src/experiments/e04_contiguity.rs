//! E4 — the contiguity `count` field: "all successive blocks, which are
//! contiguous, can be cached using one single invocation of get-block,
//! instead of count number of invocations" (§5). Reads the same logical
//! file laid out contiguously and fragmented, and compares references,
//! seeks and simulated time.

use crate::table::{speedup, Table};
use crate::{Cell, Report};
use rhodos_file_service::{FileService, ServiceType};

/// The claim, in a line.
pub const TITLE: &str = "Contiguity counts collapse a run into one reference";

const BLOCKS: u64 = 32;
const BS: usize = 8192;

fn build(fragmented: bool) -> (FileService, rhodos_file_service::FileId) {
    let mut fs = crate::setups::file_service_raw();
    let fid = fs.create(ServiceType::Basic).unwrap();
    fs.open(fid).unwrap();
    if fragmented {
        // Interleave with a decoy file so every block of `fid` is an
        // island.
        let decoy = fs.create(ServiceType::Basic).unwrap();
        fs.open(decoy).unwrap();
        for i in 0..BLOCKS {
            fs.write(fid, i * BS as u64, vec![1u8; BS]).unwrap();
            fs.flush_all().unwrap();
            fs.write(decoy, i * BS as u64, vec![2u8; BS]).unwrap();
            fs.flush_all().unwrap();
        }
    } else {
        fs.write(fid, 0, vec![1u8; BLOCKS as usize * BS]).unwrap();
        fs.flush_all().unwrap();
    }
    (fs, fid)
}

/// Runs the experiment.
pub fn measure(_: Cell) -> Report {
    let mut r = Report::default();
    let mut t = Table::new(&[
        "layout",
        "contiguity ratio",
        "max count field",
        "disk refs",
        "seeks",
        "sim time (us)",
    ]);
    let mut times = Vec::new();
    let mut refs = Vec::new();
    for fragmented in [false, true] {
        let (mut fs, fid) = build(fragmented);
        let fit = fs.fit_snapshot(fid).unwrap();
        let ratio = fit.contiguity_ratio();
        let max_count = fit
            .descriptors()
            .iter()
            .map(|d| d.contig)
            .max()
            .unwrap_or(0);
        fs.evict_caches().unwrap();
        let clock = fs.clock();
        let s0 = fs.stats().disks[0].disk;
        let t0 = clock.now_us();
        let back = fs.read(fid, 0, BLOCKS as usize * BS).unwrap();
        assert_eq!(back.len(), BLOCKS as usize * BS);
        let s1 = fs.stats().disks[0].disk;
        let dt = clock.now_us() - t0;
        times.push(dt);
        let read_refs = s1.read_ops - s0.read_ops;
        refs.push(read_refs);
        t.row(&[
            &if fragmented {
                "fragmented"
            } else {
                "contiguous"
            },
            &format!("{ratio:.2}"),
            &max_count,
            &read_refs,
            &(s1.seeks - s0.seeks),
            &dt,
        ]);
    }
    r.claim(
        format!("a contiguous {BLOCKS}-block file reads in at most two disk references"),
        refs[0] <= 2,
    );
    r.claim(
        "the contiguous layout reads faster than the fragmented one",
        times[0] < times[1],
    );
    r.text.push_str(&t.render());
    r.text.push_str(&format!(
        "\ncontiguous layout is {} faster than fragmented for a {}-block sequential read\n\
         (paper: one get-block per run instead of `count` invocations).\n",
        speedup(times[1] as f64, times[0] as f64),
        BLOCKS
    ));
    r
}
