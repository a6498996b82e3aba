//! E15 — modification policies (§5): "we decided to implement the
//! delayed-write policy to save modifications made to data cached by the
//! file agent. However, the delayed-write policy alone is not sufficient
//! ... the delayed-write together with write-through policies are adapted
//! to save modifications made to data cached by the file service."
//!
//! Measures the cost and the risk of each policy on a rewrite-heavy
//! workload: disk writes, simulated time, and the crash-loss window
//! (dirty blocks that a crash would lose).

use crate::setups::over_disks;
use crate::table::{speedup, Table};
use crate::{Cell, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhodos_file_service::{FileService, FileServiceConfig, ParallelIo, ServiceType, WritePolicy};

/// The claim, in a line.
pub const TITLE: &str = "Delayed-write vs write-through";

const OPS: usize = 800;
const FILE_BLOCKS: usize = 8;
const SCATTER_FILES: usize = 16;

struct PolicyOutcome {
    write_refs: u64,
    sim_us: u64,
    /// Dirty blocks resident after the rewrites: what a crash would lose.
    lost_after_crash: usize,
}

fn rewrite(policy: WritePolicy) -> PolicyOutcome {
    let mut fs = crate::setups::file_service(FileServiceConfig {
        write_policy: policy,
        ..Default::default()
    });
    let fid = fs.create(ServiceType::Basic).unwrap();
    fs.open(fid).unwrap();
    fs.write(fid, 0, vec![0u8; FILE_BLOCKS * 8192]).unwrap();
    fs.flush_all().unwrap();
    let clock = fs.clock();
    let mut rng = StdRng::seed_from_u64(17);
    let w0: u64 = fs.stats().disks[0].disk.write_ops;
    let t0 = clock.now_us();
    for _ in 0..OPS {
        let b = rng.gen_range(0..FILE_BLOCKS);
        let off = (b * 8192 + rng.gen_range(0..8000)) as u64;
        fs.write(fid, off, &[0xC4; 64]).unwrap();
    }
    // The crash-loss window: the dirty blocks a flush writes back now.
    let before = fs.stats().cache.writebacks;
    fs.flush_all().unwrap();
    let lost_after_crash = (fs.stats().cache.writebacks - before) as usize;
    let w1: u64 = fs.stats().disks[0].disk.write_ops;
    PolicyOutcome {
        write_refs: w1 - w0,
        sim_us: clock.now_us() - t0,
        lost_after_crash,
    }
}

struct ScatterOutcome {
    write_refs: u64,
    merged: u64,
    completion_us: u64,
}

/// Delayed writes from `SCATTER_FILES` different files, all flushed at
/// once over 4 striped disks — the workload where write-back grouping
/// matters most. The serial baseline groups only same-file consecutive
/// blocks; the per-spindle schedulers sort each disk's whole batch into
/// elevator order and merge physically adjacent blocks across files.
fn measure_scatter(mode: ParallelIo) -> ScatterOutcome {
    let mut fs = crate::setups::striped_file_service_raw_mode(4, 2, mode);
    let fids: Vec<_> = (0..SCATTER_FILES)
        .map(|_| {
            let fid = fs.create(ServiceType::Basic).unwrap();
            fs.open(fid).unwrap();
            fs.write(fid, 0, vec![0x31u8; FILE_BLOCKS * 8192]).unwrap();
            fid
        })
        .collect();
    fs.flush_all().unwrap();
    // Dirty every block of every file, then flush the lot in one call.
    for fid in &fids {
        fs.write(*fid, 0, vec![0x32u8; FILE_BLOCKS * 8192]).unwrap();
    }
    let clock = fs.clock();
    let writes = |fs: &FileService| over_disks(fs, |d| d.disk.write_ops);
    let merged = |fs: &FileService| over_disks(fs, |d| d.scheduler.merged_requests);
    let (w0, m0) = (writes(&fs), merged(&fs));
    let t0 = clock.now_us();
    fs.flush_all().unwrap();
    ScatterOutcome {
        write_refs: writes(&fs) - w0,
        merged: merged(&fs) - m0,
        completion_us: clock.now_us() - t0,
    }
}

/// Runs the experiment.
pub fn measure(_: Cell) -> Report {
    let mut r = Report::default();
    let mut t = Table::new(&[
        "policy",
        "disk write refs",
        "sim time (us)",
        "dirty blocks at crash",
    ]);
    let mut outcomes = Vec::new();
    for (label, policy) in [
        (
            "delayed-write (agent/basic traffic)",
            WritePolicy::DelayedWrite,
        ),
        (
            "write-through (transactional traffic)",
            WritePolicy::WriteThrough,
        ),
    ] {
        let o = rewrite(policy);
        t.row(&[&label, &o.write_refs, &o.sim_us, &o.lost_after_crash]);
        outcomes.push(o);
    }
    let (dw, wt) = (&outcomes[0], &outcomes[1]);
    r.claim(
        "delayed-write makes under a quarter of write-through's disk writes",
        dw.write_refs * 4 < wt.write_refs,
    );
    r.claim(
        "delayed-write leaves dirty blocks for a crash to lose, write-through none",
        dw.lost_after_crash > 0 && wt.lost_after_crash == 0,
    );
    r.text.push_str(&t.render());
    r.text.push_str(&format!(
        "\ndelayed-write needs {} fewer disk writes ({} vs {}) on {OPS} rewrites of a\n\
         {FILE_BLOCKS}-block file, at the price of a {}-block crash-loss window —\n\
         exactly why the file service pairs it with write-through for transactions.\n",
        speedup(wt.write_refs as f64, dw.write_refs as f64),
        dw.write_refs,
        wt.write_refs,
        dw.lost_after_crash,
    ));
    let mut t2 = Table::new(&[
        "flush issue mode",
        "write refs",
        "merged",
        "completion (us)",
    ]);
    let serial = measure_scatter(ParallelIo::Never);
    let sched = measure_scatter(ParallelIo::Auto);
    for (label, o) in [("serial", &serial), ("scheduler", &sched)] {
        t2.row(&[&label, &o.write_refs, &o.merged, &o.completion_us]);
    }
    r.claim(
        "the schedulers merge a scattered flush across files into fewer, sooner writes",
        sched.merged > 0
            && sched.write_refs < serial.write_refs
            && sched.completion_us < serial.completion_us,
    );
    r.text.push('\n');
    r.text.push_str(&t2.render());
    r.text.push_str(&format!(
        "\nflushing {SCATTER_FILES} dirty files ({FILE_BLOCKS} blocks each, striped over 4 disks)\n\
         in one call: the serial write-back groups only same-file consecutive blocks;\n\
         the per-spindle schedulers also merge across files and finish in the busiest\n\
         spindle's makespan. Crash-loss semantics are identical — both variants write\n\
         the same bytes to the same addresses, only the grouping differs.\n",
    ));
    r
}
