//! E12 — commit techniques (§6.7): "we propose to use the shadow page
//! technique when the data blocks are not contiguous and the wal technique
//! when the data blocks are contiguous", because WAL "retains the
//! performance gain achieved due to the contiguous allocation" while
//! shadow paging "destroys the contiguity of data blocks" but "requires
//! lesser I/O overhead ... in the commit phase".

use crate::setups::over_disks;
use crate::table::Table;
use crate::{Cell, Report};
use rhodos_file_service::{FileId, LockLevel, ServiceType};
use rhodos_txn::{TransactionService, TxnConfig};

/// The claim, in a line.
pub const TITLE: &str = "WAL vs shadow page: commit cost and contiguity";

const BLOCKS: usize = 16;

fn fresh(fragmented: bool) -> (TransactionService, FileId) {
    let mut ts = crate::setups::transaction_service(TxnConfig::default());
    let fid = ts.tcreate(LockLevel::Page).unwrap();
    if fragmented {
        let fs = ts.file_service_mut();
        let decoy = fs.create(ServiceType::Basic).unwrap();
        fs.open(fid).unwrap();
        fs.open(decoy).unwrap();
        for i in 0..BLOCKS {
            fs.write(fid, (i * 8192) as u64, vec![1u8; 8192]).unwrap();
            fs.flush_all().unwrap();
            fs.write(decoy, (i * 8192) as u64, vec![2u8; 8192]).unwrap();
            fs.flush_all().unwrap();
        }
        fs.close(fid).unwrap();
        fs.close(decoy).unwrap();
    } else {
        let t = ts.tbegin();
        ts.topen(t, fid).unwrap();
        ts.twrite(t, fid, 0, &vec![1u8; BLOCKS * 8192]).unwrap();
        ts.tend(t).unwrap();
    }
    (ts, fid)
}

/// Fraction of `fid`'s adjacent block pairs that are contiguous on disk.
fn contiguity(ts: &mut TransactionService, fid: FileId) -> f64 {
    let fit = ts.file_service_mut().fit_snapshot(fid).unwrap();
    fit.contiguity_ratio()
}

struct CommitCost {
    technique: &'static str,
    write_refs: u64,
    contiguity_before: f64,
    contiguity_after: f64,
}

fn commit_cost(fragmented: bool) -> CommitCost {
    let (mut ts, fid) = fresh(fragmented);
    let before = contiguity(&mut ts, fid);
    let w0 = over_disks(ts.file_service_mut(), |d| d.disk.write_ops);
    let wal0 = ts.stats().wal_pages;
    // One transaction updating four pages.
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    for p in [1usize, 5, 9, 13] {
        ts.twrite(t, fid, (p * 8192) as u64, &vec![7u8; 8192])
            .unwrap();
    }
    ts.tend(t).unwrap();
    let w1 = over_disks(ts.file_service_mut(), |d| d.disk.write_ops);
    let after = contiguity(&mut ts, fid);
    CommitCost {
        technique: if ts.stats().wal_pages > wal0 {
            "WAL"
        } else {
            "shadow page"
        },
        write_refs: w1 - w0,
        contiguity_before: before,
        contiguity_after: after,
    }
}

/// Ablation: force shadow-style descriptor swings on a *contiguous* file
/// to show what the paper's policy avoids.
fn forced_shadow_on_contiguous() -> (f64, f64) {
    let (mut ts, fid) = fresh(false);
    let before = contiguity(&mut ts, fid);
    let fs = ts.file_service_mut();
    for p in [1u64, 5, 9, 13] {
        let (d, a) = fs.allocate_shadow_block(fid).unwrap();
        fs.put_detached_block(d, a, &vec![7u8; 8192]).unwrap();
        let (od, oa) = fs.replace_block_descriptor(fid, p, d, a).unwrap();
        fs.free_detached_block(od, oa).unwrap();
    }
    let after = fs.fit_snapshot(fid).unwrap().contiguity_ratio();
    (before, after)
}

/// Runs the experiment.
pub fn measure(_: Cell) -> Report {
    let mut r = Report::default();
    let mut t = Table::new(&[
        "file layout",
        "technique chosen",
        "commit write refs",
        "contiguity before",
        "contiguity after",
    ]);
    for (layout, technique) in [("contiguous", "WAL"), ("fragmented", "shadow page")] {
        let c = commit_cost(layout == "fragmented");
        r.claim(
            format!("a {layout} file commits by {technique}"),
            c.technique == technique,
        );
        if technique == "WAL" {
            r.claim(
                "WAL keeps a contiguous file contiguous",
                c.contiguity_after == 1.0,
            );
        }
        t.row(&[
            &layout,
            &c.technique,
            &c.write_refs,
            &format!("{:.2}", c.contiguity_before),
            &format!("{:.2}", c.contiguity_after),
        ]);
    }
    r.text.push_str(&t.render());
    let (b, a) = forced_shadow_on_contiguous();
    r.claim(
        "shadow paging forced on a contiguous file destroys its contiguity",
        b == 1.0 && a < 1.0,
    );
    r.text.push_str(&format!(
        "\nablation — shadow paging forced on a contiguous file: contiguity {b:.2} -> {a:.2}\n\
         (the paper's per-file policy exists precisely to avoid this decay).\n",
    ));
    r
}
