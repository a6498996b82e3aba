//! E12 — commit techniques (§6.7): "we propose to use the shadow page
//! technique when the data blocks are not contiguous and the wal technique
//! when the data blocks are contiguous", because WAL "retains the
//! performance gain achieved due to the contiguous allocation" while
//! shadow paging "destroys the contiguity of data blocks" but "requires
//! lesser I/O overhead ... in the commit phase".

use crate::table::Table;
use rhodos_file_service::{LockLevel, ServiceType};
use rhodos_txn::{TransactionService, TxnConfig};

const BLOCKS: usize = 16;

fn fresh(fragmented: bool) -> (TransactionService, rhodos_file_service::FileId) {
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

struct CommitCost {
    technique: &'static str,
    write_refs: u64,
    contiguity_before: f64,
    contiguity_after: f64,
}

fn measure(fragmented: bool) -> CommitCost {
    let (mut ts, fid) = fresh(fragmented);
    let before = ts
        .file_service_mut()
        .fit_snapshot(fid)
        .unwrap()
        .contiguity_ratio();
    let w0: u64 = ts
        .file_service_mut()
        .stats()
        .disks
        .iter()
        .map(|d| d.disk.write_ops)
        .sum();
    let wal0 = ts.stats().wal_pages;
    // One transaction updating four pages.
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    for p in [1usize, 5, 9, 13] {
        ts.twrite(t, fid, (p * 8192) as u64, &vec![7u8; 8192])
            .unwrap();
    }
    ts.tend(t).unwrap();
    let w1: u64 = ts
        .file_service_mut()
        .stats()
        .disks
        .iter()
        .map(|d| d.disk.write_ops)
        .sum();
    let after = ts
        .file_service_mut()
        .fit_snapshot(fid)
        .unwrap()
        .contiguity_ratio();
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
    let before = ts
        .file_service_mut()
        .fit_snapshot(fid)
        .unwrap()
        .contiguity_ratio();
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
pub fn run() -> String {
    let mut t = Table::new(&[
        "file layout",
        "technique chosen",
        "commit write refs",
        "contiguity before",
        "contiguity after",
    ]);
    for fragmented in [false, true] {
        let c = measure(fragmented);
        t.row_owned(vec![
            if fragmented {
                "fragmented"
            } else {
                "contiguous"
            }
            .to_string(),
            c.technique.to_string(),
            c.write_refs.to_string(),
            format!("{:.2}", c.contiguity_before),
            format!("{:.2}", c.contiguity_after),
        ]);
    }
    let mut out = t.render();
    let (b, a) = forced_shadow_on_contiguous();
    out.push_str(&format!(
        "\nablation — shadow paging forced on a contiguous file: contiguity {b:.2} -> {a:.2}\n\
         (the paper's per-file policy exists precisely to avoid this decay).\n",
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn policy_matches_paper() {
        let contiguous = super::measure(false);
        assert_eq!(contiguous.technique, "WAL");
        assert_eq!(contiguous.contiguity_after, 1.0, "WAL preserves contiguity");
        let fragmented = super::measure(true);
        assert_eq!(fragmented.technique, "shadow page");
    }

    #[test]
    fn forced_shadow_destroys_contiguity() {
        let (before, after) = super::forced_shadow_on_contiguous();
        assert_eq!(before, 1.0);
        assert!(after < 1.0);
    }
}
