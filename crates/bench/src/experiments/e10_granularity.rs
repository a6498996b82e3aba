//! E10 — locking granularity: "record level locking is the most suitable
//! where the updates are small ... file level locking ... is most
//! suitable where the updates are extremely large ... however, file level
//! locking reduces concurrency" and fine granularity "involves higher
//! locking overhead, since more locks are requested" (§6.1).
//!
//! Runs the same interleaved small-update workload at each granularity
//! and measures conflicts, lock-table records (overhead) and completed
//! transactions.

use crate::setups::transaction_file;
use crate::table::Table;
use crate::{Cell, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhodos_file_service::LockLevel;
use rhodos_txn::{TxnConfig, TxnError, TxnId};

/// The claim, in a line.
pub const TITLE: &str = "Lock granularity: concurrency vs overhead";

const CLIENTS: usize = 8;
const TARGET_COMMITS: usize = 60;
const FILE_BYTES: u64 = 16 * 8192;

#[derive(Default)]
struct Outcome {
    commits: u64,
    conflicts: u64,
    timeout_aborts: u64,
    locks_granted: u64,
    steps: u64,
}

fn drive(level: LockLevel, small_updates: bool, seed: u64) -> Outcome {
    let cfg = TxnConfig {
        lt_us: 20_000,
        max_renewals: 1,
        ..Default::default()
    };
    let (mut ts, fid) = transaction_file(cfg, level, FILE_BYTES);
    let clock = ts.file_service_mut().clock();
    let mut rng = StdRng::seed_from_u64(seed);
    // Each simulated client: begin, update a random region across TWO
    // scheduler steps (so locks are held while other clients run), then
    // commit on the third step.
    let mut sessions: Vec<Option<(TxnId, u64, u8)>> = vec![None; CLIENTS];
    let mut out = Outcome::default();
    while out.commits < TARGET_COMMITS as u64 && out.steps < 40_000 {
        out.steps += 1;
        let c = rng.gen_range(0..CLIENTS);
        match sessions[c] {
            None => {
                let t = ts.tbegin();
                ts.topen(t, fid).unwrap();
                let offset = if small_updates {
                    rng.gen_range(0..FILE_BYTES - 128)
                } else {
                    rng.gen_range(0..2) * (FILE_BYTES / 2)
                };
                sessions[c] = Some((t, offset, 0));
            }
            Some((t, offset, step)) => {
                let len = if small_updates {
                    48
                } else {
                    (FILE_BYTES / 2) as usize
                };
                let res = match step {
                    0 => ts.twrite(t, fid, offset, &vec![c as u8; len]),
                    1 => ts.twrite(t, fid, offset + 16, &vec![c as u8; len.min(48)]),
                    _ => ts.tend(t),
                };
                match res {
                    Ok(()) => {
                        if step >= 2 {
                            out.commits += 1;
                            sessions[c] = None;
                        } else {
                            sessions[c] = Some((t, offset, step + 1));
                        }
                    }
                    Err(TxnError::WouldBlock { .. }) => {
                        out.conflicts += 1;
                        clock.advance(2_000);
                        let aborted = ts.tick();
                        out.timeout_aborts += aborted.len() as u64;
                        for s in &mut sessions {
                            if s.is_some_and(|(t, ..)| aborted.contains(&t)) {
                                *s = None;
                            }
                        }
                    }
                    Err(TxnError::NotActive(_)) | Err(TxnError::Aborted(_)) => {
                        sessions[c] = None;
                    }
                    Err(e) => panic!("{e}"),
                }
            }
        }
    }
    let table_stats = ts.lock_table_stats(level);
    out.locks_granted = table_stats.granted_immediately + table_stats.promotions;
    out
}

/// Locks one isolated transaction needs to update 8 disjoint 48-byte
/// records — the paper's structural "higher locking overhead, since more
/// locks are requested" claim, free of retry noise.
fn locks_for_isolated_txn(level: LockLevel) -> u64 {
    let (mut ts, fid) = transaction_file(TxnConfig::default(), level, FILE_BYTES);
    let before = ts.lock_table_stats(level).granted_immediately;
    let t = ts.tbegin();
    ts.topen(t, fid).unwrap();
    for k in 0..8u64 {
        ts.twrite(t, fid, k * 2 * 8192, &[k as u8; 48]).unwrap();
    }
    ts.tend(t).unwrap();
    ts.lock_table_stats(level).granted_immediately - before
}

/// Runs the experiment.
pub fn measure(_: Cell) -> Report {
    let mut r = Report::default();
    for (workload, small) in [
        ("small updates (48 B)", true),
        ("huge updates (half the file)", false),
    ] {
        let mut t = Table::new(&[
            "granularity",
            "commits",
            "conflicts",
            "timeout aborts",
            "locks granted",
            "scheduler steps",
        ]);
        let mut conflicts = Vec::new();
        for level in [LockLevel::Record, LockLevel::Page, LockLevel::File] {
            let o = drive(level, small, 99);
            conflicts.push(o.conflicts);
            t.row(&[
                &format!("{level:?}"),
                &o.commits,
                &o.conflicts,
                &o.timeout_aborts,
                &o.locks_granted,
                &o.steps,
            ]);
        }
        if small {
            r.claim(
                "record locking conflicts less than file locking on small updates",
                conflicts[0] < conflicts[2],
            );
        }
        r.text.push_str(&format!("\nWorkload: {workload}\n"));
        r.text.push_str(&t.render());
    }
    let mut t = Table::new(&["granularity", "locks per isolated 8-record txn"]);
    let levels = [LockLevel::Record, LockLevel::Page, LockLevel::File];
    let [record, page, file] = levels.map(locks_for_isolated_txn);
    for (level, locks) in levels.iter().zip([record, page, file]) {
        t.row(&[&format!("{level:?}"), &locks]);
    }
    r.claim(
        "for 8 records record locking takes a lock each, page locking fewer or as many, \
         file locking one",
        record >= 8 && record >= page && page > file && file == 1,
    );
    r.text
        .push_str("\nLocking overhead, isolated transaction updating 8 disjoint records:\n");
    r.text.push_str(&t.render());
    r.text.push_str(
        "\npaper: record locking maximises concurrency for small updates (fewest\n\
         conflicts) at the price of more locks to manage; file locking costs one\n\
         lock but serialises everything — fitting only huge updates.\n",
    );
    r
}
