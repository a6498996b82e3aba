//! E16 — configurability (§2.1, §3): "process(es) responsible for
//! providing access to the transaction service should be created only
//! when there is a need and they should cease to exist after providing
//! the service"; "the first request to initiate a transaction in a
//! client's machine brings this process into existence and it ceases to
//! exist as soon as the last transaction ... either completes
//! successfully or aborts."

use crate::latency::LatencySummary;
use crate::table::Table;
use crate::{Cell, Report};
use rhodos_agent::{AgentLifecycleEvent, TransactionAgent};
use rhodos_core::Facility;
use rhodos_file_service::LockLevel;

/// The claim, in a line.
pub const TITLE: &str = "Event-driven transaction agent lifecycle";

/// Transactions in the timed burst appended after the lifecycle probe.
const TIMED_TXNS: usize = 40;

/// Machine 0's transaction agent, which must exist.
fn agent(cluster: &mut Facility) -> &mut TransactionAgent {
    cluster.machine_mut(0).txn_agent_mut().unwrap()
}

/// Runs the experiment.
pub fn measure(_: Cell) -> Report {
    let mut r = Report::default();
    let mut cluster = Facility::builder().machines(1).build().unwrap();
    let mut t = Table::new(&["moment", "agent exists", "active txns"]);

    // Whether the agent exists at every moment it should, and only then.
    let mut lifecycle = true;
    let mut snap = |cluster: &mut Facility, label: &str, running: bool, t: &mut Table| {
        let m = cluster.machine_mut(0);
        let exists = m.has_transaction_agent();
        let active = m.txn_agent_mut().map(|a| a.active_count()).unwrap_or(0);
        lifecycle &= exists == running;
        t.row(&[&label, &if exists { "yes" } else { "no" }, &active]);
    };

    snap(&mut cluster, "before any transaction", false, &mut t);
    let t1 = cluster.machine_mut(0).tbegin();
    snap(&mut cluster, "after first tbegin", true, &mut t);
    let t2 = cluster.machine_mut(0).tbegin();
    let fid = agent(&mut cluster).tcreate(LockLevel::Page).unwrap();
    let od = agent(&mut cluster).topen(t1, fid).unwrap();
    agent(&mut cluster).twrite(od, b"work").unwrap();
    snap(&mut cluster, "two transactions running", true, &mut t);
    cluster.machine_mut(0).tend(t1).unwrap();
    snap(&mut cluster, "after first tend", true, &mut t);
    cluster.machine_mut(0).tabort(t2).unwrap();
    snap(&mut cluster, "after last transaction ends", false, &mut t);
    let t3 = cluster.machine_mut(0).tbegin();
    snap(&mut cluster, "a new tbegin later", true, &mut t);
    cluster.machine_mut(0).tend(t3).unwrap();
    snap(&mut cluster, "and after it ends", false, &mut t);

    // Third burst, timed: per-transaction virtual-time latency of the
    // whole tbegin/topen/twrite/tend cycle through the agent (E20
    // satellite — makespan alone hides the tail).
    let clock = cluster.clock();
    let mut samples = Vec::with_capacity(TIMED_TXNS);
    // A guard transaction keeps the agent alive across the burst, so the
    // burst is one lifecycle episode rather than forty.
    let guard = cluster.machine_mut(0).tbegin();
    let t0 = clock.now_us();
    for i in 0..TIMED_TXNS {
        let start = clock.now_us();
        let t = cluster.machine_mut(0).tbegin();
        let od = agent(&mut cluster).topen(t, fid).unwrap();
        agent(&mut cluster).twrite(od, &[i as u8; 64]).unwrap();
        cluster.machine_mut(0).tend(t).unwrap();
        samples.push(clock.now_us() - start);
    }
    let makespan = clock.now_us() - t0;
    cluster.machine_mut(0).tabort(guard).unwrap();
    let lat = LatencySummary::from_samples(&samples);
    r.claim(
        "the transaction agent exists exactly while transactions run",
        lifecycle,
    );
    r.claim(
        format!("the timed burst samples all {TIMED_TXNS} transactions' latency"),
        lat.count == TIMED_TXNS && lat.p50 > 0,
    );

    r.text.push_str(&t.render());
    let events = cluster.machine_mut(0).agent_lifecycle().to_vec();
    let created = events
        .iter()
        .filter(|e| matches!(e, AgentLifecycleEvent::Created { .. }))
        .count();
    // Every other event is a destruction.
    let destroyed = events.len() - created;
    r.claim(
        "three bursts create and destroy the agent three times each",
        created == 3 && destroyed == 3,
    );
    r.text.push_str(&format!(
        "\nlifecycle log: {created} creations, {destroyed} destructions across three bursts\n\
         (event-driven: the agent never outlives its last transaction).\n\
         timed burst: {TIMED_TXNS} one-write transactions, makespan {makespan}us,\n\
         per-txn latency {}.\n",
        lat.line(),
    ));
    r
}
