//! E11 — timeout-based deadlock resolution (§6.4): deadlocks are broken
//! within N·LT; "the number of transactions timing out will increase as
//! the load on the RHODOS system increases. Secondly, transactions taking
//! a long time will be penalized."

use crate::table::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhodos_file_service::LockLevel;
use rhodos_txn::{TxnConfig, TxnError, TxnId};

const PAGES: u64 = 8;
const ROUNDS: usize = 2_000;

struct LoadOutcome {
    commits: u64,
    timeout_aborts: u64,
}

/// Clients repeatedly grab two random pages in random order — the classic
/// deadlock-prone pattern — at the given concurrency.
fn drive(clients: usize, seed: u64) -> LoadOutcome {
    let mut ts = crate::setups::transaction_service(TxnConfig {
        lt_us: 10_000,
        max_renewals: 1,
        ..Default::default()
    });
    let fid = ts.tcreate(LockLevel::Page).unwrap();
    let t0 = ts.tbegin();
    ts.topen(t0, fid).unwrap();
    ts.twrite(t0, fid, 0, &vec![0u8; (PAGES * 8192) as usize])
        .unwrap();
    ts.tend(t0).unwrap();
    let clock = ts.file_service_mut().clock();
    let mut rng = StdRng::seed_from_u64(seed);
    // Session: (txn, [page_a, page_b], next_step)
    let mut sessions: Vec<Option<(TxnId, [u64; 2], usize)>> = vec![None; clients];
    let mut out = LoadOutcome {
        commits: 0,
        timeout_aborts: 0,
    };
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
                        for s in sessions.iter_mut() {
                            if let Some((st, _, _)) = s {
                                if aborted.contains(st) {
                                    *s = None;
                                }
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
    let mut ts = crate::setups::transaction_service(TxnConfig {
        lt_us: 10_000,
        max_renewals: 1,
        ..Default::default()
    });
    let fid = ts.tcreate(LockLevel::Page).unwrap();
    let t0 = ts.tbegin();
    ts.topen(t0, fid).unwrap();
    ts.twrite(t0, fid, 0, &vec![0u8; (PAGES * 8192) as usize])
        .unwrap();
    ts.tend(t0).unwrap();
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
pub fn run() -> String {
    let mut t = Table::new(&[
        "concurrent clients",
        "commits",
        "timeout aborts",
        "aborts per commit",
    ]);
    let mut rates = Vec::new();
    for clients in [2usize, 4, 8, 16] {
        let o = drive(clients, 31);
        let rate = o.timeout_aborts as f64 / o.commits.max(1) as f64;
        rates.push(rate);
        t.row_owned(vec![
            clients.to_string(),
            o.commits.to_string(),
            o.timeout_aborts.to_string(),
            format!("{rate:.3}"),
        ]);
    }
    let mut out = t.render();
    let (long, short) = long_txn_penalty();
    out.push_str(&format!(
        "\nlong-transaction penalty: a 3xLT \"computing\" transaction was timeout-aborted\n\
         {long}/40 times while competing short transactions were aborted {short} times\n\
         (paper: \"transactions taking a long time will be penalized\").\n\
         timeout-abort rate grows with load: {:.3} at 2 clients -> {:.3} at 16.\n",
        rates[0], rates[3],
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn aborts_grow_with_load_and_progress_is_made() {
        let low = super::drive(2, 5);
        let high = super::drive(16, 5);
        assert!(low.commits > 0 && high.commits > 0, "no livelock");
        let low_rate = low.timeout_aborts as f64 / low.commits.max(1) as f64;
        let high_rate = high.timeout_aborts as f64 / high.commits.max(1) as f64;
        assert!(
            high_rate >= low_rate,
            "abort rate should not shrink with load: {low_rate} -> {high_rate}"
        );
    }

    #[test]
    fn long_transactions_are_penalised() {
        let (long, _short) = super::long_txn_penalty();
        assert!(
            long > 20,
            "long transactions should usually be the victims ({long}/40)"
        );
    }
}
