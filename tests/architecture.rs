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
    let (mut checked, mut sequences) = (0, 0);
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let mut code = text.split("#[cfg(test)]").next().unwrap().to_string();
            let txn = path.starts_with(root.join("txn"));
            if let Some(start) = code.find("pub fn commit_batch(").filter(|_| txn) {
                // `commit_batch` and its helper run up to the next public
                // item; they must call every step, nothing else may.
                let end = start + code[start..].find("\n    pub fn flush_log").unwrap();
                assert!(steps.iter().all(|s| code[start..end].contains(s)));
                code.replace_range(start..end, "");
                sequences += 1;
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
    assert_eq!(sequences, 1, "one file defines the sequence");
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

/// Every read takes its locks through the transaction service's one lock
/// step, under the service lock: outside tests, the shared read fast path
/// neither takes nor releases a lock itself.
#[test]
fn the_read_fast_path_takes_no_lock_of_its_own() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/txn/src/concurrent.rs");
    let text = std::fs::read_to_string(path).unwrap();
    let code = text.split("#[cfg(test)]").next().unwrap();
    for call in [".set_lock(", ".release_all("] {
        assert!(!code.contains(call), "concurrent.rs calls `{call}`");
    }
}

/// The fast path's own two-visit lock protocol — validate, lock the
/// shards, validate again — is gone with its types.
#[test]
fn no_read_validates_twice() {
    let mut dirs = vec![std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            for name in ["FastReadMeta", "FastReadCheck", "fast_read_recheck"] {
                assert!(!text.contains(name), "{path:?} names `{name}`");
            }
        }
    }
}

/// Cross-shard commit has one coordinator, `Cluster::commit_batch`: a
/// single commit is a wave of one. Outside tests, `crates/cluster/src`
/// forces the decision log in one place and builds a prepare request in
/// one (the participant matches the variant by its bare name), and no
/// participant keeps a second resolve for orphans.
#[test]
fn one_coordinator_runs_two_phase_commit() {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut calls = [(".decision_log.force()", 0), ("Request::TxnPrepare(", 0)];
    let mut dirs = vec![crates];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(!text.contains("resolve_orphan"), "{path:?} names it");
            if path.to_string_lossy().contains("crates/cluster/src/") {
                let code = text.split("#[cfg(test)]").next().unwrap();
                for (call, n) in &mut calls {
                    *n += code.matches(*call).count();
                }
            }
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

/// Every platter write of the file service is one plan handed to one
/// write path. Outside tests a disk's `put` and `put_batch` are called
/// only inside `Volume::submit` — the service and the scrubber, the store
/// and the rebuild hand it plans — and the volume's write side decides
/// the parity tier once, in `submit`.
#[test]
fn every_platter_write_goes_through_submit() {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/file-service/src");
    let mut submit_seen = false;
    for (path, mut code) in non_test_sources(&src) {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        if file == "volume.rs" {
            let start = code.find("pub(crate) fn submit(").expect("Volume::submit");
            let end = start + code[start..].find("\n    }\n").expect("its end");
            code.replace_range(start..end, "");
            submit_seen = true;
        }
        for call in [".put(", ".put_batch("] {
            assert!(
                !code.contains(call),
                "{file} calls `{call}` outside `Volume::submit`"
            );
        }
    }
    assert!(submit_seen);
    let volume = std::fs::read_to_string(src.join("volume.rs")).unwrap();
    let writes = volume
        .split("// ---- writes")
        .nth(1)
        .expect("the write side");
    let writes = writes.split("// ----").next().unwrap();
    assert!(writes.contains("pub(crate) fn submit("));
    assert_eq!(
        writes.matches("is_parity()").count(),
        1,
        "one tier decision"
    );
}

/// Replication has one front-end: a cluster shard is a lock-step replica
/// set. The standalone replicated-files manager and its RPC statistics
/// are gone from every crate, and outside tests only the replica-set
/// module (`cluster/src/replica_set.rs`) sends a request to one data
/// server — placement, liveness and the 2PC coordinator reach a shard
/// through its write-all or read-one step.
#[test]
fn one_redundancy_front_end_reaches_the_data_servers() {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut dirs = vec![crates];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            for name in ["ReplicatedFiles", "RpcReplicationStats"] {
                assert!(!text.contains(name), "{path:?} names `{name}`");
            }
            let name = path.to_string_lossy();
            if name.contains("crates/cluster/src/") && !name.ends_with("replica_set.rs") {
                let code = text.split("#[cfg(test)]").next().unwrap();
                assert!(
                    !code.contains(".call_node("),
                    "{path:?} calls one data server directly"
                );
            }
        }
    }
}

/// Non-test source of every `.rs` file under `dir`, by path.
fn non_test_sources(dir: &std::path::Path) -> Vec<(std::path::PathBuf, String)> {
    let mut out = sources(dir);
    for (_, text) in &mut out {
        text.truncate(text.find("#[cfg(test)]").unwrap_or(text.len()));
    }
    out
}

/// The whole text of every `.rs` file under `dir`, tests included.
fn sources(dir: &std::path::Path) -> Vec<(std::path::PathBuf, String)> {
    let mut dirs = vec![dir.to_path_buf()];
    let mut out = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push((path.clone(), std::fs::read_to_string(&path).unwrap()));
            }
        }
    }
    out
}

/// A fork-join (`SimClock::lanes`) moves the shared clock back to the
/// fork instant between its branches. That is sound only where one
/// thread drives every node on the clock, as the cluster master does; a
/// threaded caller such as `SharedTransactionService` must never fork.
/// So lanes appear only under `crates/cluster/src` and in the clock's
/// own definition and tests.
#[test]
fn only_the_cluster_forks_the_clock() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let call = [".lanes", "("].concat();
    let mut users: Vec<String> = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        for (path, text) in sources(&root.join(dir)) {
            let path = path
                .strip_prefix(root)
                .unwrap()
                .to_string_lossy()
                .into_owned();
            if text.contains(&call) && !path.starts_with("crates/cluster/src/") {
                users.push(path);
            }
        }
    }
    assert_eq!(users, ["crates/simdisk/src/clock.rs"]);
}

/// No frame can panic a server: outside tests, the wire protocol
/// (`replication/src/wire.rs`) has no panic site — a request that does
/// not decode is answered `BadRequest`, a reply that does not decode
/// reads as it.
#[test]
fn the_wire_protocol_has_no_panic_site() {
    let wire =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/replication/src/wire.rs");
    let text = std::fs::read_to_string(wire).unwrap();
    let code = text.split("#[cfg(test)]").next().unwrap();
    assert!(code.contains("pub fn serve("), "found the server");
    for site in ["expect(", "unwrap()", "unreachable!", "panic!"] {
        assert!(!code.contains(site), "wire.rs names `{site}`");
    }
}

/// `wire::Request` owns the frame format: outside tests, the cluster and
/// the agent build and read no frame by hand — no codec of their own, no
/// opcode or reply-tag constant.
#[test]
fn only_the_wire_protocol_builds_frames() {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut checked = 0;
    for krate in ["cluster", "agent"] {
        for (path, code) in non_test_sources(&crates.join(krate).join("src")) {
            for name in ["Decoder::new", "Encoder::new", "OP_", "REPLY_"] {
                assert!(!code.contains(name), "{path:?} names `{name}`");
            }
            checked += 1;
        }
    }
    assert!(checked > 5, "found the sources");
}

/// No frame can panic the transaction-aware server: outside tests, the
/// cluster (`serve_txn` in `commit.rs`, and the master around it) names
/// no `unreachable!` or `panic!` — a decide or a checkpoint that fails
/// is an error reply or a `ClusterError` — and neither `commit.rs` nor
/// `replica_set.rs` names `.expect(`: a torn decision record ends the
/// log scan, a sector out of range is a disk error. `master.rs` names it
/// only in `push_node`, which formats fresh disks for `Cluster::new` and
/// `add_server`; a home that cannot serve fails the fingerprint.
#[test]
fn the_cluster_has_no_unreachable_or_panic_site() {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/cluster/src");
    let sources = non_test_sources(&src);
    let commit = sources.iter().find(|(path, _)| path.ends_with("commit.rs"));
    assert!(
        commit.is_some_and(|(_, code)| code.contains("pub fn serve_txn(")),
        "found the server"
    );
    for (path, code) in &sources {
        for site in ["unreachable!", "panic!"] {
            assert!(!code.contains(site), "{path:?} names `{site}`");
        }
        let mut code = code.clone();
        if path.ends_with("master.rs") {
            let start = code.find("    fn push_node(").expect("found `push_node`");
            let end = start + code[start..].find("\n    }\n").expect("its end");
            code.replace_range(start..end, "");
        }
        assert!(!code.contains(".expect("), "{path:?} names `.expect(`");
    }
}

/// The 2PC coordinator is four public steps — `wave`, `prepare_wave`,
/// `decide_wave`, `deliver_wave` — and a fault is something done to the
/// cluster between two of them: outside tests, only
/// `Cluster::commit_batch` calls the last three under the cluster, agent
/// and core crates, and no source of the workspace names a fault
/// schedule the coordinator consults.
#[test]
fn only_commit_batch_drives_the_coordinator_steps() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let steps = [".prepare_wave(", ".decide_wave(", ".deliver_wave("];
    let mut drivers = 0;
    for krate in ["cluster", "agent", "core"] {
        for (path, mut code) in non_test_sources(&root.join("crates").join(krate).join("src")) {
            if let Some(start) = code.find("    pub fn commit_batch<") {
                let end = start + code[start..].find("\n    }\n").unwrap();
                assert!(steps.iter().all(|s| code[start..end].contains(s)));
                code.replace_range(start..end, "");
                drivers += 1;
            }
            for step in steps {
                assert!(!code.contains(step), "{path:?} calls `{step}`");
            }
        }
    }
    assert_eq!(drivers, 1, "one coordinator drives the steps");
    let gone = [
        ["Commit", "Chaos"].concat(),
        ["arm", "_chaos"].concat(),
        ["Coordinator", "Crashed"].concat(),
    ];
    let mut checked = 0;
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        for (path, text) in sources(&root.join(dir)) {
            for name in &gone {
                assert!(!text.contains(name.as_str()), "{path:?} names `{name}`");
            }
            checked += 1;
        }
    }
    assert!(checked > 50, "found the sources");
}

/// A lease's place in time is the grant `seq` its server issued: outside
/// tests, no source under `crates/` names a hybrid logical clock.
#[test]
fn leases_are_ordered_by_grant_sequence_alone() {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let sources = non_test_sources(&crates);
    assert!(
        sources
            .iter()
            .any(|(path, code)| path.ends_with("lease.rs") && code.contains("pub seq: u64")),
        "found the grant sequence"
    );
    for (path, code) in &sources {
        assert!(!code.contains("Hlc"), "{path:?} names `Hlc`");
    }
}

/// The lease protocol has one owner per side: outside tests, only the
/// lease manager (`file-service/src/lease.rs`) grants, completes a recall
/// or fences — the recall round is its own — and only the client station
/// (`agent/src/lease_station.rs`) counts a buffered write as dropped.
#[test]
fn the_lease_rules_have_one_owner_per_side() {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let (mut server, mut client) = (0, 0);
    for (path, code) in non_test_sources(&crates) {
        let calls = [".try_acquire(", ".complete_recall(", ".fence("]
            .iter()
            .filter(|call| code.contains(*call))
            .count();
        if path.ends_with("file-service/src/lease.rs") {
            server += calls;
        } else {
            assert_eq!(calls, 0, "{path:?} runs a step of the recall round");
        }
        let counts = ["fenced_drops +=", "fenced_drops ="]
            .iter()
            .any(|write| code.contains(*write));
        if path.ends_with("agent/src/lease_station.rs") {
            client += usize::from(counts);
        } else {
            assert!(!counts, "{path:?} counts fenced drops");
        }
    }
    assert_eq!((server, client), (3, 1), "found the owners");
}

/// One client cache policy: leases are the default, so every `Facility`
/// machine caches under a lease, and a second machine reads the bytes a
/// first one still buffers — its read recalls them.
#[test]
fn every_facility_machine_caches_under_a_lease() {
    use rhodos_agent::LeaseConfig;
    assert_eq!(LeaseConfig::default(), LeaseConfig::Auto);
    let mut facility = Facility::builder().machines(2).build().unwrap();
    let name = AttributedName::parse("name=shared,type=probe").unwrap();
    let writer = facility.machine_mut(0).file_agent_mut();
    writer.create(&name).unwrap();
    let od = writer.open(&name).unwrap();
    writer.write(od, b"buffered at machine 0").unwrap();
    let reader = facility.machine_mut(1).file_agent_mut();
    let od = reader.open(&name).unwrap();
    assert_eq!(reader.pread(od, 0, 64).unwrap(), b"buffered at machine 0");
    assert!(reader.held_leases() > 0, "the read is served under a lease");
    assert_eq!(facility.machine_mut(0).file_agent_mut().stats().recalls, 1);
}

/// A crash is a drop (DESIGN.md, "The crash model"):
/// `FileService::simulate_crash` rebuilds the server from its disks and
/// its wiring, and recovery mounts it, so no layer keeps a list of what a
/// crash clears. Outside tests, no source under `crates/` defines a
/// `crash` method but the simulated disk's fault injection and the
/// coordinator's decision log, none names `server_crashed`, and the lock
/// table has no `reset`.
#[test]
fn a_crash_is_a_drop() {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let sources = non_test_sources(&crates);
    assert!(
        sources
            .iter()
            .any(|(path, code)| path.ends_with("service.rs") && code.contains("fn simulate_crash(")),
        "found the crash"
    );
    for (path, code) in &sources {
        let exempt = path.to_string_lossy().contains("crates/simdisk/")
            || path.ends_with("cluster/src/commit.rs");
        assert!(
            exempt || !code.contains("fn crash("),
            "{path:?} defines `crash`"
        );
        assert!(
            !code.contains("server_crashed"),
            "{path:?} names `server_crashed`"
        );
        if path.ends_with("txn/src/table.rs") {
            assert!(!code.contains("fn reset("), "{path:?} defines `reset`");
        }
    }
}

/// Files grow from the bottom (DESIGN.md, "Storage units"): outside
/// tests, the top of a disk is taken only by a transaction's shadow
/// blocks (`allocate_shadow_block`), a FIT's indirect tables (`persist`)
/// and the FIT-apart ablation of `place_file` — no path that grows a
/// file takes the holes transients leave there.
#[test]
fn only_transients_and_metadata_come_from_the_top() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut callers = Vec::new();
    for dir in ["crates", "src"] {
        for (path, code) in non_test_sources(&root.join(dir)) {
            for (at, _) in code.match_indices(".allocate_contiguous_top(") {
                let name = code[..at].rsplit("fn ").next().unwrap();
                let name = name.split(['(', '<']).next().unwrap();
                let file = path.file_name().unwrap().to_string_lossy().into_owned();
                callers.push(format!("{file}::{name}"));
            }
        }
    }
    callers.sort();
    assert_eq!(
        callers,
        [
            "service.rs::allocate_shadow_block",
            "store.rs::persist",
            "volume.rs::place_file"
        ],
    );
}
