//! E13 — striping: "there is practically no limitation on the number of
//! disks ... a file can be partitioned and therefore its contents can
//! reside on more than one disk. Thus, the size of a file can be as large
//! as the total space available on all the disks" (§7). Sweeps the disk
//! count for a fixed large file and compares the pre-scheduler serial
//! baseline against the per-spindle schedulers: demand disk references,
//! requests merged by the elevator, the tracks the heads crossed, the
//! busiest spindle's busy time, the simulated completion time of the
//! read (serial = sum of operation costs, scheduler = busiest-spindle
//! makespan) and host wall-clock.

use crate::setups::over_disks;
use crate::table::{speedup, Table};
use crate::{Cell, Report};
use rhodos_disk_service::SchedulerStats;
use rhodos_file_service::{FileService, ParallelIo, ServiceType};
use std::time::Instant;

/// The claim, in a line.
pub const TITLE: &str = "Striping across disks";

const FILE_MIB: usize = 8;

struct StripeOutcome {
    /// Simulated clock advance over the read: the completion time seen by
    /// the caller. Serial issue sums every operation; batched issue
    /// advances only to the busiest spindle's finish time.
    completion_us: u64,
    /// Busy-time delta of the busiest spindle (the makespan component).
    busiest_disk_us: u64,
    /// Host wall-clock for the same read, checked but not printed, so
    /// the table stays byte-deterministic (the wall-clock measure of
    /// this path is `benchmark/`'s `agent-stream`).
    wall_us: u64,
    disks_used: usize,
    refs: u64,
    /// Tracks crossed by every seek of the read, all spindles together.
    seek_tracks: u64,
    sched: SchedulerStats,
}

fn read_striped(ndisks: usize, mode: ParallelIo) -> StripeOutcome {
    let mut fs = crate::setups::striped_file_service_raw_mode(ndisks, 4, mode);
    let fid = fs.create(ServiceType::Basic).unwrap();
    fs.open(fid).unwrap();
    let data: Vec<u8> = (0..FILE_MIB * 1024 * 1024)
        .map(|i| (i % 256) as u8)
        .collect();
    fs.write(fid, 0, &data).unwrap();
    fs.flush_all().unwrap();
    fs.evict_caches().unwrap();
    // Measure a full sequential read.
    let clock = fs.clock();
    let busy0: Vec<u64> = fs.stats().disks.iter().map(|d| d.disk.busy_us).collect();
    let reads = |fs: &FileService| over_disks(fs, |d| d.disk.read_ops);
    let tracks = |fs: &FileService| over_disks(fs, |d| d.disk.seek_tracks);
    let (refs0, tracks0) = (reads(&fs), tracks(&fs));
    let t0 = clock.now_us();
    let w0 = Instant::now();
    let back = fs.read(fid, 0, data.len()).unwrap();
    let wall_us = w0.elapsed().as_micros() as u64;
    assert_eq!(back.len(), data.len());
    let stats = fs.stats();
    let busy: Vec<u64> = stats
        .disks
        .iter()
        .zip(&busy0)
        .map(|(d, b0)| d.disk.busy_us - b0)
        .collect();
    let refs = reads(&fs) - refs0;
    let seek_tracks = tracks(&fs) - tracks0;
    let mut sched = SchedulerStats::default();
    for d in &stats.disks {
        sched.merge(&d.scheduler);
    }
    let descs = fs.block_descriptors(fid).unwrap();
    let used: std::collections::HashSet<u16> = descs.iter().map(|d| d.disk).collect();
    StripeOutcome {
        completion_us: clock.now_us() - t0,
        busiest_disk_us: *busy.iter().max().unwrap(),
        wall_us,
        disks_used: used.len(),
        refs,
        seek_tracks,
        sched,
    }
}

/// Runs the experiment.
pub fn measure(_: Cell) -> Report {
    let mut r = Report::default();
    let mut t = Table::new(&[
        "disks",
        "issue mode",
        "read refs",
        "merged",
        "qd hwm",
        "tracks crossed",
        "busiest spindle (us)",
        "completion (us)",
        "completion vs serial",
    ]);
    let mut timed = true;
    let mut busiest = Vec::new();
    for ndisks in [1usize, 2, 4, 8] {
        let serial = read_striped(ndisks, ParallelIo::Never);
        let sched = read_striped(ndisks, ParallelIo::Auto);
        r.claim(
            format!("the file spreads over all {ndisks} disks"),
            serial.disks_used == ndisks && sched.disks_used == ndisks,
        );
        timed &= serial.wall_us > 0 && sched.wall_us > 0;
        busiest.push(sched.busiest_disk_us);
        if ndisks == 4 {
            r.claim(
                "over 4 disks the schedulers merge requests, cut the references and finish \
                 in at most half the serial time",
                sched.sched.merged_requests > 0
                    && sched.refs < serial.refs
                    && sched.completion_us * 2 <= serial.completion_us,
            );
        }
        for (label, o, rel) in [
            ("serial", &serial, "1.00x".to_string()),
            (
                "scheduler",
                &sched,
                speedup(serial.completion_us as f64, sched.completion_us as f64),
            ),
        ] {
            t.row(&[
                &ndisks,
                &label,
                &o.refs,
                &o.sched.merged_requests,
                &o.sched.queue_depth_hwm,
                &o.seek_tracks,
                &o.busiest_disk_us,
                &o.completion_us,
                &rel,
            ]);
        }
    }
    r.claim(
        "over 4 disks the busiest spindle works under half as long as one disk",
        busiest[2] * 2 < busiest[0],
    );
    r.claim("the harness times the host wall clock of every read", timed);
    r.text.push_str(&t.render());
    r.text.push_str(&format!(
        "\n{FILE_MIB} MiB sequential read. serial = pre-scheduler baseline (per-block demand\n\
         fetches, completion is the sum of operation costs); scheduler = per-spindle C-SCAN\n\
         batches (adjacent chunks merge into single references, completion is the busiest\n\
         spindle's makespan). Host wall-clock is measured by the harness too but is\n\
         kept out of this table so the output stays byte-deterministic; the wall-clock\n\
         measure of this path is the agent-stream workload of benchmark/.\n\
         paper: file size is bounded only by total array space (demonstrated in\n\
         examples/striped_media_store.rs with a file larger than one disk).\n",
    ));
    r
}
