//! E14 — reliability: "provision of stable storage ensures that all the
//! important data structures used for file management in the distributed
//! file facility are recoverable" (§7) and the transaction service
//! "takes care of all sorts of failures (except for catastrophes)"
//! (§6.6). Sweeps fault scenarios and reports recovery outcomes.

use crate::table::Table;
use rhodos_file_service::{FileService, FileServiceConfig, LockLevel, Redundancy, ServiceType};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
use rhodos_txn::{TransactionService, TxnConfig};

fn fresh() -> (TransactionService, rhodos_file_service::FileId) {
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

fn check(ts: &mut TransactionService, fid: rhodos_file_service::FileId) -> bool {
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
pub fn run() -> String {
    let mut t = Table::new(&[
        "fault injected",
        "recovered",
        "data intact",
        "redone txns",
        "bad/cksum/remap",
        "parity f/d/r+dr",
    ]);

    // 1. Pure crash (volatile state lost).
    {
        let (mut ts, fid) = fresh();
        ts.file_service_mut().simulate_crash();
        let redone = ts.recover().unwrap();
        t.row_owned(vec![
            "server crash (caches, directory, lock tables lost)".into(),
            "yes".into(),
            if check(&mut ts, fid) { "yes" } else { "NO" }.into(),
            redone.len().to_string(),
            fault_counters(&mut ts),
            parity_counters(&mut ts),
        ]);
    }

    // 2. Media failure on the FIT fragment (stable copy saves it).
    {
        let (mut ts, fid) = fresh();
        let descs = ts.file_service_mut().block_descriptors(fid).unwrap();
        let fit_frag = descs[0].addr - 1; // FIT precedes the first block
        ts.file_service_mut()
            .disk_mut(0)
            .disk_mut()
            .corrupt_sector(fit_frag)
            .unwrap();
        ts.file_service_mut().simulate_crash();
        let redone = ts.recover().unwrap();
        t.row_owned(vec![
            "media failure on the file index table".into(),
            "yes".into(),
            if check(&mut ts, fid) { "yes" } else { "NO" }.into(),
            redone.len().to_string(),
            fault_counters(&mut ts),
            parity_counters(&mut ts),
        ]);
    }

    // 3. Crash between the commit record and its application (redo).
    {
        let (mut ts, fid) = fresh();
        // A second committed transaction whose application we interrupt by
        // crashing immediately after the log write; emulate by writing the
        // commit record path through a normal commit, then crash *after*
        // tend — and verify idempotent redo does not duplicate it. Then a
        // genuinely torn case is covered in the crate tests; here we replay
        // a full recover after a healthy commit to show "0 redo".
        let t2 = ts.tbegin();
        ts.topen(t2, fid).unwrap();
        ts.twrite(t2, fid, 0, b"vital committed data").unwrap();
        ts.tend(t2).unwrap();
        ts.file_service_mut().simulate_crash();
        let redone = ts.recover().unwrap();
        t.row_owned(vec![
            "crash right after a commit completed".into(),
            "yes".into(),
            if check(&mut ts, fid) { "yes" } else { "NO" }.into(),
            redone.len().to_string(),
            fault_counters(&mut ts),
            parity_counters(&mut ts),
        ]);
    }

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
        let r = ts
            .twrite(t2, fid, 0, &b"TORN TORN TORN TORN!".repeat(150))
            .and_then(|_| ts.tend(t2));
        let crashed = r.is_err();
        ts.file_service_mut().simulate_crash();
        let redone = ts.recover().unwrap();
        t.row_owned(vec![
            "crash tearing the commit record".into(),
            if crashed { "yes" } else { "n/a" }.into(),
            if check(&mut ts, fid) {
                "yes (rolled back)"
            } else {
                "NO"
            }
            .into(),
            redone.len().to_string(),
            fault_counters(&mut ts),
            parity_counters(&mut ts),
        ]);
    }

    // 5. Catastrophe: both stable mirrors of the FIT destroyed — the one
    // case the paper excludes.
    {
        let (mut ts, fid) = fresh();
        let descs = ts.file_service_mut().block_descriptors(fid).unwrap();
        let fit_frag = descs[0].addr - 1;
        let disk = ts.file_service_mut().disk_mut(0);
        disk.disk_mut().corrupt_sector(fit_frag).unwrap();
        let stable = disk.stable_mut().unwrap();
        for slot in [2 * fit_frag, 2 * fit_frag + 1] {
            stable.mirror_a_mut().corrupt_sector(slot).unwrap();
            stable.mirror_b_mut().corrupt_sector(slot).unwrap();
        }
        ts.file_service_mut().simulate_crash();
        let outcome = ts.recover();
        t.row_owned(vec![
            "catastrophe: FIT + both stable mirrors destroyed".into(),
            if outcome.is_ok() {
                "yes"
            } else {
                "no (reported)"
            }
            .into(),
            "n/a (excluded by the paper)".into(),
            "-".into(),
            fault_counters(&mut ts),
            parity_counters(&mut ts),
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
        let report = f.rebuild(None).unwrap();
        f.evict_caches().unwrap();
        let rebuilt_ok = f.read(fid, 0, payload.len()).map(|d| d == payload) == Ok(true);
        t.row_owned(vec![
            "whole-disk loss in a 4+1 parity group".into(),
            if report.complete {
                format!("yes ({} pages rebuilt)", report.pages)
            } else {
                "NO".into()
            },
            if degraded_ok && rebuilt_ok {
                "yes"
            } else {
                "NO"
            }
            .into(),
            "-".into(),
            "0/0/0".into(),
            fmt_parity(f.stats().parity),
        ]);
    }

    let mut out = t.render();
    out.push_str(
        "\nbad/cksum/remap = media_errors / checksum_mismatches / remapped_sectors\n\
         observed by the main disk's checksum lane and spare-sector remap (E19).\n\
         parity f/d/r+dr = full-stripe / parity-delta / reconstruct writes +\n\
         degraded reads in the erasure-coded striping tier (E21).\n\
         \npaper: every failure class except catastrophes recovers; catastrophes\n\
         (losing a structure AND both stable replicas) are reported, not hidden.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_recoverable_scenarios_keep_data() {
        let report = super::run();
        assert!(
            !report.contains(" NO"),
            "a recoverable scenario lost data:\n{report}"
        );
    }

    /// Recovery visits files in `FileId` order, so every row — the
    /// catastrophe's fault counters included — repeats exactly. (Hash
    /// order drew a fresh `RandomState` per service and flipped that row
    /// between `3/0/0` and `2/0/0`.)
    #[test]
    fn every_row_repeats_exactly() {
        let first = super::run();
        for _ in 0..8 {
            assert_eq!(super::run(), first);
        }
    }
}
