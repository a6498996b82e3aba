//! E16 — configurability (§2.1, §3): "process(es) responsible for
//! providing access to the transaction service should be created only
//! when there is a need and they should cease to exist after providing
//! the service"; "the first request to initiate a transaction in a
//! client's machine brings this process into existence and it ceases to
//! exist as soon as the last transaction ... either completes
//! successfully or aborts."

use crate::latency::LatencySummary;
use crate::table::Table;
use rhodos_agent::AgentLifecycleEvent;
use rhodos_core::Facility;
use rhodos_file_service::LockLevel;

/// Transactions in the timed burst appended after the lifecycle probe.
const TIMED_TXNS: usize = 40;

/// Runs the experiment.
pub fn run() -> String {
    let mut cluster = Facility::builder().machines(1).build().unwrap();
    let mut t = Table::new(&["moment", "agent exists", "active txns"]);

    let snap = |cluster: &mut Facility, label: &str, t: &mut Table| {
        let m = cluster.machine_mut(0);
        let exists = m.has_transaction_agent();
        let active = m.txn_agent_mut().map(|a| a.active_count()).unwrap_or(0);
        t.row_owned(vec![
            label.to_string(),
            if exists { "yes" } else { "no" }.to_string(),
            active.to_string(),
        ]);
    };

    snap(&mut cluster, "before any transaction", &mut t);
    let t1 = cluster.machine_mut(0).tbegin();
    snap(&mut cluster, "after first tbegin", &mut t);
    let t2 = cluster.machine_mut(0).tbegin();
    let fid = cluster
        .machine_mut(0)
        .txn_agent_mut()
        .unwrap()
        .tcreate(LockLevel::Page)
        .unwrap();
    let od = cluster
        .machine_mut(0)
        .txn_agent_mut()
        .unwrap()
        .topen(t1, fid)
        .unwrap();
    cluster
        .machine_mut(0)
        .txn_agent_mut()
        .unwrap()
        .twrite(od, b"work")
        .unwrap();
    snap(&mut cluster, "two transactions running", &mut t);
    cluster.machine_mut(0).tend(t1).unwrap();
    snap(&mut cluster, "after first tend", &mut t);
    cluster.machine_mut(0).tabort(t2).unwrap();
    snap(&mut cluster, "after last transaction ends", &mut t);
    let t3 = cluster.machine_mut(0).tbegin();
    snap(&mut cluster, "a new tbegin later", &mut t);
    cluster.machine_mut(0).tend(t3).unwrap();
    snap(&mut cluster, "and after it ends", &mut t);

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
        let od = cluster
            .machine_mut(0)
            .txn_agent_mut()
            .unwrap()
            .topen(t, fid)
            .unwrap();
        cluster
            .machine_mut(0)
            .txn_agent_mut()
            .unwrap()
            .twrite(od, &[i as u8; 64])
            .unwrap();
        cluster.machine_mut(0).tend(t).unwrap();
        samples.push(clock.now_us() - start);
    }
    let makespan = clock.now_us() - t0;
    cluster.machine_mut(0).tabort(guard).unwrap();
    let lat = LatencySummary::from_samples(&samples);

    let mut out = t.render();
    let events = cluster.machine_mut(0).agent_lifecycle().to_vec();
    let created = events
        .iter()
        .filter(|e| matches!(e, AgentLifecycleEvent::Created { .. }))
        .count();
    let destroyed = events
        .iter()
        .filter(|e| matches!(e, AgentLifecycleEvent::Destroyed { .. }))
        .count();
    out.push_str(&format!(
        "\nlifecycle log: {created} creations, {destroyed} destructions across three bursts\n\
         (event-driven: the agent never outlives its last transaction).\n\
         timed burst: {TIMED_TXNS} one-write transactions, makespan {makespan}us,\n\
         per-txn latency {}.\n",
        lat.line(),
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn agent_exists_exactly_while_transactions_run() {
        let report = super::run();
        for (moment, want) in [
            ("before any transaction", "no"),
            ("after first tbegin", "yes"),
            ("two transactions running", "yes"),
            ("after first tend", "yes"),
            ("after last transaction ends", "no"),
            ("a new tbegin later", "yes"),
            ("and after it ends", "no"),
        ] {
            let line = report
                .lines()
                .find(|l| l.trim_start().starts_with(moment))
                .unwrap_or_else(|| panic!("missing row {moment}: {report}"));
            assert!(line.contains(want), "{moment}: {line}");
        }
        assert!(report.contains("3 creations, 3 destructions"));
    }

    #[test]
    fn timed_burst_reports_latency_percentiles() {
        let report = super::run();
        let line = report
            .lines()
            .find(|l| l.contains("per-txn latency"))
            .expect("latency line");
        assert!(line.contains("p50="), "{line}");
        assert!(line.contains("p99="), "{line}");
        assert!(report.contains("makespan"));
    }
}
