//! E11 — timeout-based deadlock resolution (§6.4): deadlocks are broken
//! within N·LT; "the number of transactions timing out will increase as
//! the load on the RHODOS system increases. Secondly, transactions taking
//! a long time will be penalized."

use crate::setups::transaction_file;
use crate::table::Table;
use crate::{Cell, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhodos_file_service::{FileId, LockLevel};
use rhodos_txn::{TransactionService, TxnConfig, TxnError, TxnId};

/// The claim, in a line.
pub const TITLE: &str = "Timeout deadlock resolution under load";

const PAGES: u64 = 8;
const ROUNDS: usize = 2_000;

#[derive(Default)]
struct LoadOutcome {
    commits: u64,
    timeout_aborts: u64,
}

/// A `PAGES`-page file under a short lock timeout (one renewal).
fn rig() -> (TransactionService, FileId) {
    let cfg = TxnConfig {
        lt_us: 10_000,
        max_renewals: 1,
        ..Default::default()
    };
    transaction_file(cfg, LockLevel::Page, PAGES * 8192)
}

/// Clients repeatedly grab two random pages in random order — the classic
/// deadlock-prone pattern — at the given concurrency.
fn drive(clients: usize, seed: u64) -> LoadOutcome {
    let (mut ts, fid) = rig();
    let clock = ts.file_service_mut().clock();
    let mut rng = StdRng::seed_from_u64(seed);
    // Session: (txn, [page_a, page_b], next_step)
    let mut sessions: Vec<Option<(TxnId, [u64; 2], usize)>> = vec![None; clients];
    let mut out = LoadOutcome::default();
    for _ in 0..ROUNDS {
        let c = rng.gen_range(0..clients);
        match &mut sessions[c] {
            slot @ None => {
                let t = ts.tbegin();
                ts.topen(t, fid).unwrap();
                let a = rng.gen_range(0..PAGES);
                let b = (a + rng.gen_range(1..PAGES)) % PAGES;
                *slot = Some((t, [a, b], 0));
            }
            Some((t, pages, step)) => {
                let (t, pages, step_v) = (*t, *pages, *step);
                let result = if step_v < 2 {
                    ts.twrite(t, fid, pages[step_v] * 8192, &[1u8; 16])
                } else {
                    ts.tend(t)
                };
                match result {
                    Ok(()) => {
                        if step_v < 2 {
                            sessions[c] = Some((t, pages, step_v + 1));
                        } else {
                            out.commits += 1;
                            sessions[c] = None;
                        }
                    }
                    Err(TxnError::WouldBlock { .. }) => {
                        clock.advance(1_500);
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
    out
}

/// Long vs short transactions: the long one holds locks across many
/// scheduler steps and is penalised by the timeout policy.
fn long_txn_penalty() -> (u64, u64) {
    let (mut ts, fid) = rig();
    let clock = ts.file_service_mut().clock();
    let mut long_aborts = 0u64;
    let mut short_aborts = 0u64;
    for round in 0..40 {
        // The long transaction holds page 0 and "computes" for 3·LT.
        let long = ts.tbegin();
        ts.topen(long, fid).unwrap();
        ts.twrite(long, fid, 0, &[9u8; 8]).unwrap();
        // Short transactions keep arriving and competing for page 0.
        let mut survived = true;
        for _ in 0..3 {
            let short = ts.tbegin();
            ts.topen(short, fid).unwrap();
            let blocked = ts.twrite(short, fid, 0, &[1u8; 8]);
            clock.advance(11_000);
            let aborted = ts.tick();
            if aborted.contains(&long) {
                long_aborts += 1;
                survived = false;
            }
            for a in &aborted {
                if *a == short {
                    short_aborts += 1;
                }
            }
            match blocked {
                Ok(()) => {
                    let _ = ts.tend(short);
                }
                Err(_) => {
                    if ts.active_transactions().contains(&short) {
                        let _ = ts.tabort(short);
                    }
                }
            }
            if !survived {
                break;
            }
        }
        if survived && ts.active_transactions().contains(&long) {
            let _ = ts.tend(long);
        }
        let _ = round;
    }
    (long_aborts, short_aborts)
}

/// Runs the experiment.
pub fn measure(_: Cell) -> Report {
    let mut r = Report::default();
    let mut t = Table::new(&[
        "concurrent clients",
        "commits",
        "timeout aborts",
        "aborts per commit",
    ]);
    let mut rates = Vec::new();
    let mut progress = true;
    for clients in [2usize, 4, 8, 16] {
        let o = drive(clients, 31);
        progress &= o.commits > 0;
        let rate = o.timeout_aborts as f64 / o.commits.max(1) as f64;
        rates.push(rate);
        t.row(&[
            &clients,
            &o.commits,
            &o.timeout_aborts,
            &format!("{rate:.3}"),
        ]);
    }
    r.claim(
        "every load level commits transactions (no livelock)",
        progress,
    );
    r.claim(
        "the timeout-abort rate does not shrink from 2 to 16 clients",
        rates[3] >= rates[0],
    );
    r.text.push_str(&t.render());
    let (long, short) = long_txn_penalty();
    r.claim(
        "the long transaction is the timeout victim in more than half of 40 rounds",
        long > 20,
    );
    r.text.push_str(&format!(
        "\nlong-transaction penalty: a 3xLT \"computing\" transaction was timeout-aborted\n\
         {long}/40 times while competing short transactions were aborted {short} times\n\
         (paper: \"transactions taking a long time will be penalized\").\n\
         timeout-abort rate grows with load: {:.3} at 2 clients -> {:.3} at 16.\n",
        rates[0], rates[3],
    ));
    r
}
