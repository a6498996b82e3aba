//! E9 — idempotent operations: "certain errors caused by computer
//! failures and communication delays may lead to repeated execution of
//! some operations. However, their repetition in RHODOS does not produce
//! any uncertain effect" (§3). Sweeps message loss/duplication rates and
//! compares a replay-cache-protected server against a naive one.

use crate::table::Table;
use crate::{Cell, Report};
use rhodos_file_service::{FileServiceConfig, ServiceType};
use rhodos_net::{NetConfig, ReplayCache, RpcClient, SimNetwork};

/// The claim, in a line.
pub const TITLE: &str = "Idempotent operations under duplication and loss";

const APPENDS: usize = 100;

/// Runs `APPENDS` single-byte appends through a faulty channel and
/// reports (executions, file-correct?).
fn drive(fault: f64, replay: bool, seed: u64) -> (u64, bool) {
    let mut fs = crate::setups::file_service(FileServiceConfig::default());
    let clock = fs.clock();
    let fid = fs.create(ServiceType::Basic).unwrap();
    fs.open(fid).unwrap();
    let mut net = SimNetwork::new(clock, NetConfig::lossy(fault, fault, seed));
    let mut client = RpcClient::new(1);
    client.max_attempts = 64;
    let mut cache = ReplayCache::new();
    let mut executions = 0u64;
    for i in 0..APPENDS {
        let fs_ref = &mut fs;
        let execs = &mut executions;
        // Each logical op appends one byte at a fixed offset — running it
        // twice is observable (size grows past APPENDS).
        let op = |rid| {
            let mut body = || {
                *execs += 1;
                let size = fs_ref.get_attribute(fid).unwrap().size;
                fs_ref.write(fid, size, &[i as u8]).unwrap();
                vec![0]
            };
            if replay {
                cache.execute(rid, body)
            } else {
                body()
            }
        };
        let _ = client.call(&mut net, op);
    }
    let size = fs.get_attribute(fid).unwrap().size;
    let mut correct = size == APPENDS as u64;
    if correct {
        let data = fs.read(fid, 0, APPENDS).unwrap();
        correct = data == (0..APPENDS).map(|i| i as u8).collect::<Vec<u8>>();
    }
    (executions, correct)
}

/// Runs the experiment.
pub fn measure(_: Cell) -> Report {
    let mut r = Report::default();
    let mut t = Table::new(&[
        "loss = dup prob",
        "server",
        "op executions (want 100)",
        "file state",
    ]);
    let mut naive_corrupted = false;
    for fault in [0.0, 0.1, 0.3, 0.5] {
        for replay in [true, false] {
            let (execs, mut ok) = drive(fault, replay, 1234 + (fault * 100.0) as u64);
            if replay {
                ok = r.claim(
                    format!("at loss = dup = {fault:.1} the replay cache leaves the file correct"),
                    ok,
                );
            } else {
                naive_corrupted |= !ok;
            }
            t.row(&[
                &format!("{fault:.1}"),
                &if replay {
                    "replay cache (RHODOS)"
                } else {
                    "naive (no request ids)"
                },
                &execs,
                &if ok { "correct" } else { "CORRUPT" },
            ]);
        }
    }
    r.claim(
        "under loss and duplication the naive server corrupts the file",
        naive_corrupted,
    );
    r.text.push_str(&t.render());
    r.text.push_str(
        "\npaper: with idempotent message semantics ('information about all past\n\
         requests') repetition has no uncertain effect; the naive server\n\
         over-executes under the same fault rates and corrupts the file.\n",
    );
    r
}
