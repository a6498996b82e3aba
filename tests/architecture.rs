//! Experiment E2 (Figure 1): the layered architecture is wired end to end
//! and caching exists — and is observable — at every level: the client
//! agent, the file service, and the disk service.

use rhodos::prelude::*;
use rhodos_naming::AttributedName;

#[test]
fn all_layers_cooperate_with_caching_at_each_level() {
    let mut cluster = Facility::builder().machines(1).build().unwrap();
    let name = AttributedName::parse("name=arch,type=probe").unwrap();

    // Through the whole stack: naming → file agent → file service → disk.
    cluster
        .machine_mut(0)
        .file_agent_mut()
        .create(&name)
        .unwrap();
    let od = cluster.machine_mut(0).file_agent_mut().open(&name).unwrap();
    let blob = vec![0x5Au8; 64 * 1024];
    cluster
        .machine_mut(0)
        .file_agent_mut()
        .write(od, &blob)
        .unwrap();
    cluster.machine_mut(0).file_agent_mut().flush(od).unwrap();

    // Re-read several times: the agent cache should absorb repeats.
    for _ in 0..5 {
        let back = cluster
            .machine_mut(0)
            .file_agent_mut()
            .pread(od, 0, blob.len())
            .unwrap();
        assert_eq!(back, blob);
    }
    let agent_stats = cluster.machine_mut(0).file_agent_mut().stats();
    assert!(agent_stats.cache.hits > 0, "level 1: agent cache used");

    // The file service cache below it: read server-side (bypassing the
    // agent cache) so the block pool is exercised.
    let server = cluster.server();
    let mut guard = server.lock();
    let fid = {
        let fs = guard.file_service_mut();
        let fid = fs.file_ids().into_iter().last().unwrap();
        fs.open(fid).unwrap();
        for _ in 0..3 {
            let _ = fs.read(fid, 0, blob.len()).unwrap();
        }
        fs.close(fid).unwrap();
        fid
    };
    let fs_stats = guard.file_service_mut().stats();
    assert!(
        fs_stats.cache.hits + fs_stats.cache.misses > 0,
        "level 2: file service block pool used"
    );
    // The disk service track cache at the bottom: cold-start the server so
    // reads actually descend to the disk layer.
    {
        let fs = guard.file_service_mut();
        fs.flush_all().unwrap();
        fs.simulate_crash();
        fs.recover().unwrap();
        fs.open(fid).unwrap();
        let _ = fs.read(fid, 0, blob.len()).unwrap();
        fs.close(fid).unwrap();
    }
    let fs_stats = guard.file_service_mut().stats();
    let disk_cache = fs_stats.disks[0].cache;
    assert!(
        disk_cache.fragment_hits + disk_cache.fragment_misses > 0,
        "level 3: disk track cache used"
    );
    drop(guard);

    // The server crash invalidated open handles ("user processes and
    // servers must be able to recover easily from computer crashes"): the
    // agent's stale descriptor is now refused rather than misbehaving.
    assert!(cluster.machine_mut(0).file_agent_mut().close(od).is_err());
}

#[test]
fn descriptor_spaces_follow_the_hundred_thousand_split() {
    let mut cluster = Facility::builder().machines(1).build().unwrap();
    let name = AttributedName::parse("name=odsplit").unwrap();
    cluster
        .machine_mut(0)
        .file_agent_mut()
        .create(&name)
        .unwrap();
    let file_od = cluster.machine_mut(0).file_agent_mut().open(&name).unwrap();
    assert!(file_od > 100_000, "file agent descriptors above 100000");

    let m = cluster.machine_mut(0);
    let dev = m
        .device_agent_mut()
        .register(rhodos_agent::Device::new("tty9"));
    let dev_od = m.device_agent_mut().open(dev).unwrap();
    assert!(dev_od < 100_000, "device agent descriptors below 100000");

    // Standard stream redirection values.
    let pid = m.processes_mut().spawn();
    m.processes_mut().redirect(pid, true, true, true).unwrap();
    let p = m.processes_mut().get(pid).unwrap().clone();
    assert_eq!((p.stdout, p.stdin, p.stderr), (100_001, 100_002, 100_003));
}

#[test]
fn naming_service_resolves_and_caches() {
    let mut cluster = Facility::builder().machines(2).build().unwrap();
    let full = AttributedName::parse("name=db,owner=ops,version=3").unwrap();
    cluster
        .machine_mut(0)
        .file_agent_mut()
        .create(&full)
        .unwrap();
    // Resolve by two different attribute subsets from another machine.
    for q in ["name=db", "owner=ops,version=3"] {
        let query = AttributedName::parse(q).unwrap();
        let od = cluster
            .machine_mut(1)
            .file_agent_mut()
            .open(&query)
            .unwrap();
        cluster.machine_mut(1).file_agent_mut().close(od).unwrap();
    }
    let stats = cluster.naming().lock().stats();
    assert_eq!(stats.registered, 1);
    assert!(stats.cache_misses >= 2);
}

#[test]
fn basic_and_transactional_semantics_coexist_per_file() {
    // "At any moment a file can be used either as a basic file ... or as a
    // transaction file" — the same facility serves both, through different
    // interfaces.
    let mut cluster = Facility::builder().machines(1).build().unwrap();
    // Transactional file.
    let t = cluster.machine_mut(0).tbegin();
    let tfid = {
        let agent = cluster.machine_mut(0).txn_agent_mut().unwrap();
        let tfid = agent.tcreate(rhodos_file_service::LockLevel::File).unwrap();
        let tod = agent.topen(t, tfid).unwrap();
        agent.twrite(tod, b"transactional").unwrap();
        tfid
    };
    cluster.machine_mut(0).tend(t).unwrap();
    // Basic file, same facility.
    let bname = AttributedName::parse("name=plain").unwrap();
    cluster
        .machine_mut(0)
        .file_agent_mut()
        .create(&bname)
        .unwrap();
    let od = cluster
        .machine_mut(0)
        .file_agent_mut()
        .open(&bname)
        .unwrap();
    cluster
        .machine_mut(0)
        .file_agent_mut()
        .write(od, b"basic")
        .unwrap();
    cluster.machine_mut(0).file_agent_mut().close(od).unwrap();
    // Both readable; service types recorded in the FITs.
    let server = cluster.server();
    let mut guard = server.lock();
    let fs = guard.file_service_mut();
    let t_attrs = fs.get_attribute(tfid).unwrap();
    assert_eq!(
        t_attrs.service_type,
        rhodos_file_service::ServiceType::Transaction
    );
    assert_eq!(t_attrs.lock_level, rhodos_file_service::LockLevel::File);
}

/// The commit sequence is written once: outside tests, nothing under
/// `crates/{txn,cluster,agent}/src` calls a commit step except
/// `TransactionService::commit_batch` (with the private helper that
/// follows it) — and `recover`, which forces the redo markers. A second
/// caller is a second copy of the sequence.
#[test]
fn only_commit_batch_calls_the_commit_steps() {
    let steps = [
        ".prepare_commit(",
        ".complete_commit(",
        ".prepare_participant(",
    ];
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut dirs: Vec<_> = ["txn", "cluster", "agent"]
        .map(|c| root.join(c).join("src"))
        .into();
    let mut checked = 0;
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let mut code = text.split("#[cfg(test)]").next().unwrap().to_string();
            if path.ends_with("txn/src/service.rs") {
                // `commit_batch` and its helper run up to the next public
                // item; they must call every step, nothing else may.
                let start = code
                    .find("pub fn commit_batch")
                    .expect("the sequence exists");
                let end = start + code[start..].find("\n    pub fn flush_log").unwrap();
                assert!(steps.iter().all(|s| code[start..end].contains(s)));
                code.replace_range(start..end, "");
            } else {
                assert!(!code.contains(".flush_log("), "{path:?} forces the log");
            }
            for step in steps {
                assert!(!code.contains(step), "{path:?} calls `{step}`");
            }
            checked += 1;
        }
    }
    assert!(checked > 10, "found the sources");
}

/// A committed intentions list has one applier, whoever commits — `tend`,
/// a resolved vote, a recovery redo: outside tests, `crates/txn/src`
/// swings a descriptor in one place and fetches tentative blocks in one.
/// A second call is a second applier.
#[test]
fn one_applier_makes_the_intentions_permanent() {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/txn/src");
    let mut calls = [
        (".replace_block_descriptor(", 0),
        (".get_detached_blocks(", 0),
    ];
    for entry in std::fs::read_dir(src).unwrap() {
        let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
        let code = text.split("#[cfg(test)]").next().unwrap();
        for (call, n) in &mut calls {
            *n += code.matches(*call).count();
        }
    }
    assert_eq!(calls.map(|(_, n)| n), [1, 1], "{calls:?}");
}

/// The seam of the file service (DESIGN.md §3), kept by the source
/// text: the volume (`volume.rs`) is the only code that knows the
/// redundancy class, stripe rows, degraded state or how a batch reaches
/// the spindles. The service core, the scrubber and fsck must name none
/// of it — a new redundancy class is added in one module.
#[test]
fn only_the_volume_knows_the_layout() {
    let layout = [
        "is_parity",
        "redundancy.params",
        "Redundancy::",
        "degraded[",
        "uninit_rows",
        "rebuild_cursors",
        "ParallelIo::Never",
        "begin_batch",
        "end_batch",
        // The FIT store's: where the parity units are is its walk's business.
        "parity_descriptors",
    ];
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/file-service/src");
    for file in ["service.rs", "scrub.rs", "fsck.rs"] {
        let text = std::fs::read_to_string(src.join(file)).unwrap();
        let code = text.split("#[cfg(test)]").next().unwrap();
        for name in layout {
            assert!(!code.contains(name), "{file} names `{name}`");
        }
    }
    // And it is the volume that does (all but the last, the store's).
    let volume = std::fs::read_to_string(src.join("volume.rs")).unwrap();
    let named = |name: &&str| volume.contains(*name);
    assert!(layout[..layout.len() - 1].iter().all(named));
}
