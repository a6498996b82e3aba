//! E14 — reliability: "provision of stable storage ensures that all the
//! important data structures used for file management in the distributed
//! file facility are recoverable" (§7) and the transaction service
//! "takes care of all sorts of failures (except for catastrophes)"
//! (§6.6). Sweeps fault scenarios and reports recovery outcomes.

use crate::table::Table;
use crate::{Cell, Report};
use rhodos_file_service::{
    FileId, FileService, FileServiceConfig, LockLevel, Redundancy, ServiceType,
};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
use rhodos_txn::{TransactionService, TxnConfig};

/// The claim, in a line.
pub const TITLE: &str = "Stable storage and crash recovery";

fn fresh() -> (TransactionService, FileId) {
    let mut ts = TransactionService::new(
        crate::setups::file_service(FileServiceConfig::default()),
        TxnConfig::default(),
    )
    .unwrap();
    let fid = ts.tcreate(LockLevel::Page).unwrap();
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    ts.twrite(t, fid, 0, b"vital committed data").unwrap();
    ts.tend(t).unwrap();
    ts.sync().unwrap();
    (ts, fid)
}

/// Disk fault counters (`media_errors/checksum_mismatches/remapped`) —
/// the self-healing telemetry of the checksum lane and spare-sector
/// remap, so each fault scenario shows what the disk layer observed.
fn fault_counters(ts: &mut TransactionService) -> String {
    let s = ts.file_service_mut().stats();
    let d = &s.disks[0].disk;
    format!(
        "{}/{}/{}",
        d.media_errors, d.checksum_mismatches, d.remapped_sectors
    )
}

/// Parity-tier technique counters (`full/delta/reconstruct+degraded`):
/// which write path the stripe rows took and how many reads ran through
/// reconstruction. All zeros for the non-parity scenarios.
fn fmt_parity(p: rhodos_file_service::ParityStats) -> String {
    format!(
        "{}/{}/{}+{}",
        p.full_stripe_writes, p.parity_delta_writes, p.reconstruct_writes, p.degraded_reads
    )
}

fn parity_counters(ts: &mut TransactionService) -> String {
    fmt_parity(ts.file_service_mut().stats().parity)
}

/// The FIT's fragment: the one before the file's first block.
fn fit_fragment(ts: &mut TransactionService, fid: FileId) -> u64 {
    ts.file_service_mut().block_descriptors(fid).unwrap()[0].addr - 1
}

/// Crashes `ts` after `fault`, recovers it and adds its row: the
/// committed data must be intact.
fn recovers(r: &mut Report, t: &mut Table, fault: &str, mut ts: TransactionService, fid: FileId) {
    ts.file_service_mut().simulate_crash();
    let redone = ts.recover().unwrap();
    let intact = check(&mut ts, fid);
    let survives = format!("committed data survives a {fault}");
    t.row(&[
        &fault,
        &"yes",
        &r.verdict(survives, intact),
        &redone.len(),
        &fault_counters(&mut ts),
        &parity_counters(&mut ts),
    ]);
}

fn check(ts: &mut TransactionService, fid: FileId) -> bool {
    let t = ts.tbegin();
    if ts.topen(t, fid).is_err() {
        return false;
    }
    let ok = ts
        .tread(t, fid, 0, 20)
        .map(|d| d == b"vital committed data")
        .unwrap_or(false);
    let _ = ts.tend(t);
    ok
}

/// Runs the experiment.
pub fn measure(_: Cell) -> Report {
    let mut r = Report::default();
    let mut t = Table::new(&[
        "fault injected",
        "recovered",
        "data intact",
        "redone txns",
        "bad/cksum/remap",
        "parity f/d/r+dr",
    ]);

    // 1. Pure crash (volatile state lost).
    let (ts, fid) = fresh();
    let fault = "server crash (caches, directory, lock tables lost)";
    recovers(&mut r, &mut t, fault, ts, fid);

    // 2. Media failure on the FIT fragment (stable copy saves it).
    let (mut ts, fid) = fresh();
    let fit_frag = fit_fragment(&mut ts, fid);
    let disk = ts.file_service_mut().disk_mut(0).disk_mut();
    disk.corrupt_sector(fit_frag).unwrap();
    recovers(
        &mut r,
        &mut t,
        "media failure on the file index table",
        ts,
        fid,
    );

    // 3. A crash right after a second commit: recovery redoes it
    // idempotently (a torn commit is row 4).
    let (mut ts, fid) = fresh();
    let t2 = ts.tbegin();
    ts.topen(t2, fid).unwrap();
    ts.twrite(t2, fid, 0, b"vital committed data").unwrap();
    ts.tend(t2).unwrap();
    recovers(
        &mut r,
        &mut t,
        "crash right after a commit completed",
        ts,
        fid,
    );

    // 4. Torn commit record (crash mid log write): rolled back. A force
    // writes only the sectors it changes, so the record carries enough
    // bytes to span two of them, and the crash lands between the two.
    {
        let (mut ts, fid) = fresh();
        ts.file_service_mut()
            .disk_mut(0)
            .disk_mut()
            .faults_mut()
            .crash_after_sector_writes(1);
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        let torn = ts
            .twrite(t2, fid, 0, &b"TORN TORN TORN TORN!".repeat(150))
            .and_then(|_| ts.tend(t2));
        let crashed = r.claim("the injected crash tears the commit record", torn.is_err());
        ts.file_service_mut().simulate_crash();
        let redone = ts.recover().unwrap();
        let intact = check(&mut ts, fid);
        t.row(&[
            &"crash tearing the commit record",
            &if crashed { "yes" } else { "n/a" },
            &format!(
                "{} (rolled back)",
                r.verdict("a torn commit rolls back to the committed data", intact)
            ),
            &redone.len(),
            &fault_counters(&mut ts),
            &parity_counters(&mut ts),
        ]);
    }

    // 5. Catastrophe: both stable mirrors of the FIT destroyed — the one
    // case the paper excludes.
    {
        let (mut ts, fid) = fresh();
        let fit_frag = fit_fragment(&mut ts, fid);
        let disk = ts.file_service_mut().disk_mut(0);
        disk.disk_mut().corrupt_sector(fit_frag).unwrap();
        let stable = disk.stable_mut().unwrap();
        for slot in [2 * fit_frag, 2 * fit_frag + 1] {
            stable.mirror_a_mut().corrupt_sector(slot).unwrap();
            stable.mirror_b_mut().corrupt_sector(slot).unwrap();
        }
        ts.file_service_mut().simulate_crash();
        let reported = r.claim(
            "a catastrophe (FIT and both stable mirrors lost) is reported, not hidden",
            ts.recover().is_err(),
        );
        t.row(&[
            &"catastrophe: FIT + both stable mirrors destroyed",
            &if reported { "no (reported)" } else { "yes" },
            &"n/a (excluded by the paper)",
            &"-",
            &fault_counters(&mut ts),
            &parity_counters(&mut ts),
        ]);
    }

    // 6. Whole-disk loss inside a RAID-5 parity group: reads keep being
    // served through reconstruction while a budgeted rebuild repopulates
    // the spare (E21).
    {
        let mut f = FileService::striped(
            5,
            DiskGeometry::medium(),
            LatencyModel::instant(),
            SimClock::new(),
            FileServiceConfig {
                redundancy: Redundancy::Parity { k: 4, m: 1 },
                ..FileServiceConfig::default()
            },
        )
        .expect("format parity group");
        let fid = f.create(ServiceType::Basic).unwrap();
        f.open(fid).unwrap();
        let payload: Vec<u8> = (0..8 * 8192u32).map(|i| i as u8).collect();
        f.write(fid, 0, payload.clone()).unwrap();
        f.flush_all().unwrap();
        f.fail_disk(2).unwrap();
        let degraded_ok = f.read(fid, 0, payload.len()).map(|d| d == payload) == Ok(true);
        let rebuild = f.rebuild(None).unwrap();
        f.evict_caches().unwrap();
        let rebuilt_ok = f.read(fid, 0, payload.len()).map(|d| d == payload) == Ok(true);
        t.row(&[
            &"whole-disk loss in a 4+1 parity group",
            &format!(
                "{} ({} pages rebuilt)",
                r.verdict("a 4+1 parity group rebuilds a lost disk", rebuild.complete),
                rebuild.pages
            ),
            &r.verdict(
                "a 4+1 parity group serves the data while degraded and after the rebuild",
                degraded_ok && rebuilt_ok,
            ),
            &"-",
            &"0/0/0",
            &fmt_parity(f.stats().parity),
        ]);
    }

    r.text.push_str(&t.render());
    r.text.push_str(
        "\nbad/cksum/remap = media_errors / checksum_mismatches / remapped_sectors\n\
         observed by the main disk's checksum lane and spare-sector remap (E19).\n\
         parity f/d/r+dr = full-stripe / parity-delta / reconstruct writes +\n\
         degraded reads in the erasure-coded striping tier (E21).\n\
         \npaper: every failure class except catastrophes recovers; catastrophes\n\
         (losing a structure AND both stable replicas) are reported, not hidden.\n",
    );
    r
}
