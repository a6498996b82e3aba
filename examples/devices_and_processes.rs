//! Device I/O, standard-stream redirection and mediumweight processes
//! (§3 of the paper).
//!
//! * object descriptors: devices below 100 000, files above;
//! * `stdin`/`stdout`/`stderr` environment variables with the paper's
//!   fixed redirection values (100 001 / 100 002 / 100 003);
//! * `process-twin`: a mediumweight child inherits the parent's object
//!   descriptors — but only processes using basic-file semantics may
//!   twin ("inheritance of the transaction descriptors ... poses a
//!   serious threat to the serializability property").
//!
//! Run with: `cargo run --example devices_and_processes`

use rhodos_agent::{Device, ProcessError};
use rhodos_core::Facility;
use rhodos_naming::AttributedName;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cluster = Facility::builder().machines(1).build()?;
    let machine = cluster.machine_mut(0);

    // --- devices -----------------------------------------------------------
    // The device agent pre-opens the standard streams as descriptors 0-2.
    machine.device_agent_mut().write(1, b"hello, monitor\n")?;
    machine.device_agent_mut().write(2, b"warning: demo\n")?;
    // A serial port device, opened by system name.
    let serial = machine.device_agent_mut().register(Device::new("serial0"));
    let od = machine.device_agent_mut().open(serial)?;
    println!("serial port opened as descriptor {od} (device range: < 100000)");
    assert!(od < 100_000);
    machine
        .device_agent_mut()
        .device_mut(serial)
        .unwrap()
        .feed_input(b"AT+OK");
    let answer = machine.device_agent_mut().read(od, 16)?;
    println!("modem says: {}", String::from_utf8_lossy(&answer));
    machine.device_agent_mut().close(od)?;

    // --- processes and redirection -----------------------------------------
    let pid = machine.processes_mut().spawn();
    {
        let p = machine.processes_mut().get(pid).unwrap();
        println!(
            "process {pid}: stdin={} stdout={} stderr={}",
            p.stdin, p.stdout, p.stderr
        );
        assert_eq!((p.stdin, p.stdout, p.stderr), (0, 1, 2));
    }
    machine.processes_mut().redirect(pid, false, true, true)?;
    {
        let p = machine.processes_mut().get(pid).unwrap();
        println!(
            "after redirecting stdout+stderr: stdout={} stderr={} (paper's fixed values)",
            p.stdout, p.stderr
        );
        assert_eq!(p.stdout, 100_001);
        assert_eq!(p.stderr, 100_003);
    }

    // --- mediumweight twins -------------------------------------------------
    // Open a file and record the descriptor in the process's table.
    let name = AttributedName::parse("name=worklog")?;
    machine.file_agent_mut().create(&name)?;
    let file_od = machine.file_agent_mut().open(&name)?;
    machine
        .processes_mut()
        .get_mut(pid)
        .unwrap()
        .descriptors
        .insert(file_od);
    println!("process {pid} opened {name} as descriptor {file_od} (file range: > 100000)");

    // Twin it: the child inherits every descriptor.
    let child = machine.processes_mut().process_twin(pid)?;
    let c = machine.processes_mut().get(child).unwrap().clone();
    println!(
        "twin {child}: mediumweight={}, inherited descriptors={:?}",
        c.mediumweight,
        {
            let mut v: Vec<_> = c.descriptors.iter().collect();
            v.sort();
            v
        }
    );
    assert!(c.descriptors.contains(&file_od));

    // A transactional process may NOT twin.
    let tx_pid = machine.processes_mut().spawn();
    let t = machine.tbegin();
    machine
        .processes_mut()
        .get_mut(tx_pid)
        .unwrap()
        .transactions
        .insert(t.0);
    match machine.processes_mut().process_twin(tx_pid) {
        Err(ProcessError::HasTransactions(p)) => {
            println!("process {p} holds a transaction descriptor: twin refused (serializability)");
        }
        other => panic!("expected refusal, got {other:?}"),
    }
    machine.tend(t)?;
    machine.file_agent_mut().close(file_od)?;
    println!("devices & processes walk-through OK");
    Ok(())
}
