//! Chaos sweep for the cross-shard atomic-commit tentpole: scripted
//! two-file transactions through the cluster's 2PC coordinator, one at a
//! time and in `commit_batch` waves of 2–3, interleaved with
//! deterministic crashes at every protocol step —
//! participant before/after its prepare force, lost prepare acks,
//! coordinator before/torn-during/after its decision force, participant
//! before its decide — plus file migration striking mid-prepare and
//! spontaneous data-server crashes, with three invariants checked:
//!
//! 1. **atomicity** — after healing, every file's bytes match a model
//!    that applied a transaction iff its commit decision became durable
//!    (presumed abort everywhere else): no crash point leaves half a
//!    transaction;
//! 2. **byte-identity vs the single-shard ablation** — replaying
//!    exactly the decided-commit sequence (a wave's decided members in
//!    wave order) through the same 2PC path on a 1-server cluster
//!    produces an identical content fingerprint;
//! 3. **no participant blocks forever** — the coordinator-recovery
//!    orphan sweep resolves every in-doubt prepared transaction, and a
//!    second sweep finds nothing.
//!
//! The fast subsets run in the normal test job; the full sweeps are
//! `#[ignore]`d and driven with `--ignored` (pinned `PROPTEST_BASE_SEED`
//! matrix) in the CI bench-smoke step.

use proptest::prelude::*;
use rhodos_cluster::{Cluster, ClusterConfig, CommitChaos, CommitOutcome, CrossOp};
use std::collections::HashMap;

const SERVERS: usize = 3;
const FILES: usize = 6;
const FILE_BYTES: usize = 4 * 512;

/// A fresh cluster with `FILES` seeded, synced files (gids 1..=FILES).
fn seeded(servers: usize) -> Cluster {
    let mut c = Cluster::new(servers, ClusterConfig::default());
    for k in 0..FILES {
        let gid = c.create().expect("create");
        c.open(gid).expect("open");
        c.write(gid, 0, &vec![k as u8 + 1; FILE_BYTES])
            .expect("seed");
    }
    c.sync_all();
    c
}

fn model_of() -> HashMap<u64, Vec<u8>> {
    (0..FILES)
        .map(|k| (k as u64 + 1, vec![k as u8 + 1; FILE_BYTES]))
        .collect()
}

/// The two-file op-set of scripted transaction `generation`.
fn txn_ops(a: u8, b: u8, pick: u16, generation: u64) -> Vec<CrossOp> {
    let gid_a = u64::from(a) % FILES as u64 + 1;
    let gid_b = u64::from(b) % FILES as u64 + 1;
    let offset = (u64::from(pick) % 31) * 64;
    let payload: Vec<u8> = (0..64)
        .map(|i| (generation.wrapping_mul(131) ^ i as u64) as u8)
        .collect();
    vec![
        (gid_a, offset, payload.clone()),
        (gid_b, offset + 17, payload),
    ]
}

fn apply_to_model(model: &mut HashMap<u64, Vec<u8>>, ops: &[CrossOp]) {
    for (gid, offset, data) in ops {
        let file = model.get_mut(gid).expect("modelled file");
        file[*offset as usize..*offset as usize + data.len()].copy_from_slice(data);
    }
}

/// One armed fault, chosen by `pick`, for transaction `ops`; the
/// server-indexed faults strike the home of its first file.
fn one_fault(c: &Cluster, ops: &[CrossOp], b: u8, pick: u16) -> CommitChaos {
    let victim = c.placement_of(ops[0].0).expect("placed").0;
    let mut chaos = CommitChaos::default();
    match pick % 8 {
        0 => chaos.crash_participant_before_prepare = Some(victim),
        1 => chaos.crash_participant_after_prepare = Some(victim),
        2 => chaos.lose_prepare_ack = Some(victim),
        3 => chaos.migrate_mid_prepare = Some((ops[0].0, usize::from(b) % SERVERS)),
        4 => chaos.crash_coordinator_before_decision = true,
        5 => chaos.torn_decision = true,
        6 => chaos.crash_coordinator_after_decision = true,
        _ => chaos.crash_participant_before_decide = Some(victim),
    }
    chaos
}

/// Whether a transaction happened: its decision is durable —
/// immediately (`Committed`) or at recovery (a crashed coordinator with
/// a forced decision record). A crash leaves the coordinator down.
fn decided(out: CommitOutcome, coordinator_down: &mut bool) -> bool {
    match out {
        CommitOutcome::Committed => true,
        CommitOutcome::Aborted => false,
        CommitOutcome::CoordinatorCrashed {
            decision_durable, ..
        } => {
            *coordinator_down = true;
            decision_durable
        }
    }
}

/// One scripted chaos case. Returns via `prop_assert!` failures.
#[allow(clippy::too_many_lines)]
fn chaos_case(script: &[(u8, u8, u8, u16)], seed: u64) -> Result<(), TestCaseError> {
    let mut c = seeded(SERVERS);
    let mut model = model_of();
    // The decided-commit sequence, for the single-shard ablation replay.
    let mut committed: Vec<Vec<CrossOp>> = Vec::new();
    let mut generation = seed;
    // A coordinator crash leaves the protocol down until the next use
    // recovers it (replaying the decision log + orphan sweep).
    let mut coordinator_down = false;

    for &(action, a, b, pick) in script {
        generation = generation.wrapping_add(1);
        match action % 9 {
            // Clean transactions (three slots: the common case).
            0..=2 => {
                if coordinator_down {
                    c.recover_coordinator();
                    coordinator_down = false;
                }
                let ops = txn_ops(a, b, pick, generation);
                let out = c.commit_cross_shard(&ops).expect("mapped gids");
                prop_assert!(
                    !matches!(out, CommitOutcome::CoordinatorCrashed { .. }),
                    "no chaos was armed"
                );
                if out == CommitOutcome::Committed {
                    apply_to_model(&mut model, &ops);
                    committed.push(ops);
                }
            }
            // A transaction with one armed crash point.
            3 => {
                if coordinator_down {
                    c.recover_coordinator();
                    coordinator_down = false;
                }
                let ops = txn_ops(a, b, pick, generation);
                c.arm_chaos(one_fault(&c, &ops, b, pick));
                let out = c.commit_cross_shard(&ops).expect("mapped gids");
                if decided(out, &mut coordinator_down) {
                    apply_to_model(&mut model, &ops);
                    committed.push(ops);
                }
            }
            // Coordinator restart: decision-log replay + orphan sweep.
            4 => {
                c.recover_coordinator();
                coordinator_down = false;
            }
            // Migration outside any transaction. May fail (in-doubt
            // participants hold the file open); must never corrupt.
            5 => {
                let gid = u64::from(a) % FILES as u64 + 1;
                let _ = c.migrate(gid, usize::from(b) % SERVERS);
            }
            // Spontaneous data-server crash: volatile state (including
            // any unflushed prepare tail and the replay cache) vanishes;
            // local recovery must rebuild durable in-doubt state.
            6 => c.crash_server(usize::from(b) % SERVERS),
            // Byte check mid-script — only meaningful when no decided
            // commit is still waiting on the orphan sweep.
            7 => {
                if !coordinator_down && c.in_doubt_gtids().is_empty() {
                    let gid = u64::from(a) % FILES as u64 + 1;
                    let want = &model[&gid];
                    let got = c.read(gid, 0, want.len()).expect("read");
                    prop_assert_eq!(&got, want, "file {} diverged mid-script", gid);
                }
            }
            // A wave of 2–3 transactions through one `commit_batch`,
            // every third one with an armed fault. Members whose writes
            // overlap cannot both prepare, so the decided members commute
            // and wave order is commit order.
            _ => {
                if coordinator_down {
                    c.recover_coordinator();
                    coordinator_down = false;
                }
                let wave: Vec<Vec<CrossOp>> = (0..2 + pick % 2)
                    .map(|i| {
                        generation = generation.wrapping_add(1);
                        let (da, db) = (i as u8, 3 * i as u8);
                        txn_ops(
                            a.wrapping_add(da),
                            b.wrapping_add(db),
                            pick + 5 * i,
                            generation,
                        )
                    })
                    .collect();
                if pick % 3 == 0 {
                    c.arm_chaos(one_fault(&c, &wave[0], b, pick / 3));
                }
                let outs = c.commit_batch(&wave).expect("mapped gids");
                for (ops, out) in wave.into_iter().zip(outs) {
                    if decided(out, &mut coordinator_down) {
                        apply_to_model(&mut model, &ops);
                        committed.push(ops);
                    }
                }
            }
        }
    }

    // Heal: one coordinator recovery resolves every surviving orphan.
    c.recover_coordinator();
    prop_assert!(
        c.in_doubt_gtids().is_empty(),
        "a prepared participant is still blocked after the sweep"
    );
    // Idempotence: a second sweep finds nothing to resolve.
    prop_assert_eq!(c.recover_coordinator(), (0, 0));

    // Atomicity: every byte matches the decided-commit model.
    for (gid, want) in &model {
        let got = c.read(*gid, 0, want.len()).expect("healed read");
        prop_assert_eq!(&got, want, "file {} lost atomicity", gid);
    }

    // Byte-identity: the same decided sequence, replayed through the
    // same full-2PC path on one server, fingerprints identically.
    let mut ablation = seeded(1);
    for ops in &committed {
        let out = ablation.commit_cross_shard(ops).expect("ablation commit");
        prop_assert_eq!(out, CommitOutcome::Committed, "ablation must not abort");
    }
    prop_assert_eq!(
        c.content_fingerprint(),
        ablation.content_fingerprint(),
        "sharded 2PC diverged from the single-shard ablation"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fast chaos subset for the normal test job.
    #[test]
    fn cross_shard_commit_is_atomic_under_chaos(
        script in proptest::collection::vec(
            (0u8..18, 0u8..8, 0u8..8, 0u16..256), 8..24),
        seed: u64,
    ) {
        chaos_case(&script, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full sweep: longer scripts. Run with `--ignored` under a pinned
    /// `PROPTEST_BASE_SEED` matrix in CI's bench-smoke step.
    #[test]
    #[ignore = "full cross-shard chaos sweep; CI runs it with --ignored"]
    fn cross_shard_chaos_full_sweep(
        script in proptest::collection::vec(
            (0u8..18, 0u8..8, 0u8..8, 0u16..256), 24..64),
        seed: u64,
    ) {
        chaos_case(&script, seed)?;
    }
}

/// The acceptance scenario spelled out in the issue: a participant's
/// file migrates mid-prepare while the coordinator crashes after its
/// decision on the next transaction — both transactions stay atomic,
/// recovery is byte-identical to the ablation, and nobody blocks.
#[test]
fn migration_mid_prepare_then_coordinator_crash_stays_atomic() {
    let mut c = seeded(SERVERS);
    let mut model = model_of();

    let ops1 = txn_ops(0, 3, 5, 1);
    let target = (c.placement_of(ops1[0].0).unwrap().0 + 1) % SERVERS;
    c.arm_chaos(CommitChaos {
        migrate_mid_prepare: Some((ops1[0].0, target)),
        ..CommitChaos::default()
    });
    let out1 = c.commit_cross_shard(&ops1).unwrap();
    assert_eq!(out1, CommitOutcome::Committed, "re-target must commit");
    assert!(c.stats().retargets >= 1);
    apply_to_model(&mut model, &ops1);

    let ops2 = txn_ops(1, 4, 9, 2);
    c.arm_chaos(CommitChaos {
        crash_coordinator_after_decision: true,
        ..CommitChaos::default()
    });
    let out2 = c.commit_cross_shard(&ops2).unwrap();
    assert!(matches!(
        out2,
        CommitOutcome::CoordinatorCrashed {
            decision_durable: true,
            ..
        }
    ));
    apply_to_model(&mut model, &ops2);

    let (commits, _) = c.recover_coordinator();
    assert!(commits >= 1, "durable decision must be re-delivered");
    assert!(c.in_doubt_gtids().is_empty());
    for (gid, want) in &model {
        assert_eq!(&c.read(*gid, 0, want.len()).unwrap(), want);
    }

    let mut ablation = seeded(1);
    ablation.commit_cross_shard(&ops1).unwrap();
    ablation.commit_cross_shard(&ops2).unwrap();
    assert_eq!(c.content_fingerprint(), ablation.content_fingerprint());
}
