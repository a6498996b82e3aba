//! Quickstart: the RHODOS distributed file facility in one file.
//!
//! Builds a two-machine cluster, exercises the basic file service through
//! the file agents (attributed names, object descriptors, lseek), then
//! runs an atomic update through the transaction service.
//!
//! Run with: `cargo run --example quickstart`

use rhodos_core::Facility;
use rhodos_naming::AttributedName;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One file server (one disk + stable-storage mirrors), two client
    // machines, all on a shared virtual clock.
    let mut cluster = Facility::builder().machines(2).disks(1).build()?;

    // --- Basic file service through the file agent -----------------------
    let report = AttributedName::parse("name=report,owner=alice,type=text")?;
    cluster.machine_mut(0).file_agent_mut().create(&report)?;

    let od = cluster.machine_mut(0).file_agent_mut().open(&report)?;
    println!("machine 0 opened {report} as object descriptor {od}");
    assert!(od > 100_000, "file descriptors sit above the device range");

    cluster
        .machine_mut(0)
        .file_agent_mut()
        .write(od, b"RHODOS: high performance and reliable.")?;
    cluster.machine_mut(0).file_agent_mut().lseek(od, 8, 0)?;
    let tail = cluster.machine_mut(0).file_agent_mut().read(od, 16)?;
    println!("machine 0 read back: {}", String::from_utf8_lossy(&tail));
    cluster.machine_mut(0).file_agent_mut().close(od)?;

    // Machine 1 resolves the same attributed name (a subset of the
    // attributes suffices) and sees machine 0's data.
    let query = AttributedName::parse("name=report")?;
    let od = cluster.machine_mut(1).file_agent_mut().open(&query)?;
    let data = cluster.machine_mut(1).file_agent_mut().read(od, 64)?;
    println!("machine 1 sees: {}", String::from_utf8_lossy(&data));
    cluster.machine_mut(1).file_agent_mut().close(od)?;

    // --- Transaction service through the transaction agent ---------------
    // The transaction agent is event driven: it does not exist until the
    // first tbegin and disappears after the last tend/tabort.
    assert!(!cluster.machine_mut(0).has_transaction_agent());
    let t = cluster.machine_mut(0).tbegin();
    assert!(cluster.machine_mut(0).has_transaction_agent());

    let fid = {
        let m = cluster.machine_mut(0);
        let agent = m.txn_agent_mut()?;
        let fid = agent.tcreate(rhodos_file_service::LockLevel::Page)?;
        let tod = agent.topen(t, fid)?;
        agent.twrite(tod, b"all-or-nothing update")?;
        fid
    };
    cluster.machine_mut(0).tend(t)?;
    assert!(!cluster.machine_mut(0).has_transaction_agent());
    println!(
        "transaction {t:?} committed; agent lifecycle: {:?}",
        cluster.machine_mut(0).agent_lifecycle()
    );

    // The committed data is visible through the basic service.
    let od = cluster.machine_mut(1).file_agent_mut().open_fid(fid)?;
    let data = cluster.machine_mut(1).file_agent_mut().read(od, 21)?;
    assert_eq!(data, b"all-or-nothing update");
    cluster.machine_mut(1).file_agent_mut().close(od)?;

    // --- Observability ----------------------------------------------------
    let server = cluster.server();
    let mut guard = server.lock();
    let stats = guard.file_service_mut().stats();
    println!(
        "server: {} disk references, cache hit ratio {:.2}, {} FIT loads",
        stats.total_disk_refs(),
        stats.cache.hit_ratio(),
        stats.fit_loads
    );
    drop(guard);
    println!("virtual time elapsed: {} us", cluster.clock().now_us());
    println!("quickstart OK");
    Ok(())
}
