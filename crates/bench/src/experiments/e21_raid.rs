//! E21 — the erasure-coded striping tier: RAID-5/6 parity groups as a
//! cheaper redundancy rung under the lock-step mirror of E17. The paper
//! buys reliability with duplicated stable storage ("each data item is
//! recorded twice", §7) — a 2x raw-capacity tax. A k+m parity group
//! spreads the same fault tolerance over k data units plus m parity
//! units per stripe row ((k+m)/k overhead, 1.25x for 4+1), at the price
//! of the classic small-write penalty: a sub-stripe write must read old
//! data and old parity before it can fold the delta in.
//!
//! Four exhibits:
//!
//! 1. **storage overhead** — fragments actually allocated for the same
//!    file: non-redundant striping, RAID-5 (4+1), RAID-6 (8+2), and the
//!    2-way mirror. Parity stays at or under 1.5x; the mirror pays 2x.
//! 2. **full-stripe fast path** — writing whole stripe rows computes
//!    parity in memory and issues no reads at all, so RAID-5 bandwidth
//!    lands within 15% of striping over the same k data spindles.
//! 3. **small-write penalty** — scattered single-block rewrites, the
//!    parity-delta path (read old data + old parity, XOR, write back)
//!    with the shared elevator batch versus the naive serial
//!    read-modify-write ablation ([`ParallelIo::Never`]): coalescing
//!    the group's parity traffic wins >= 1.5x on spindle makespan.
//! 4. **degraded service and rebuild** — after a whole-disk loss every
//!    read reconstructs transparently (byte-identical to the surviving
//!    mirror ablation), a budgeted background rebuild repopulates a
//!    spare while foreground reads keep flowing, and a 4+2 group
//!    survives a double loss the same way.
//!
//! `exp e21 --smoke` (`run(true)`) shrinks the cells for
//! CI; [`stat_records`] uses its own fixed mid-size cell for the
//! committed `BENCH_raid.json` lane.

use crate::latency::LatencySummary;
use crate::loadgen::{self, LoadgenConfig, WriteSizeMix};
use crate::setups;
use crate::table::Table;
use rhodos_cluster::{Cluster, ClusterConfig};
use rhodos_file_service::{FileId, FileService, ParallelIo, Redundancy, ServiceType};
use rhodos_net::NetConfig;
use rhodos_simdisk::{DiskGeometry, LatencyModel};

const BLOCK: u64 = rhodos_disk_service::BLOCK_SIZE as u64;
const K: usize = 4;

/// Deterministic test pattern: byte `i` of the file is a fixed mix of
/// its offset, so any dropped/duplicated/zeroed unit shifts the
/// fingerprint.
fn patterned(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add((i >> 8) as u8))
        .collect()
}

/// FNV-1a over the file's bytes — the cross-arm identity check.
fn fingerprint(bytes: &[u8]) -> u64 {
    rhodos_simdisk::fnv1a(rhodos_simdisk::FNV_OFFSET, bytes)
}

fn used_fragments(f: &FileService) -> u64 {
    f.stats()
        .disks
        .iter()
        .map(|d| d.total_fragments - d.free_fragments)
        .sum()
}

/// Creates one file, writes `bytes`, flushes, and returns the fragments
/// the write cost (allocation delta around create+write+flush).
fn write_cost(f: &mut FileService, bytes: &[u8]) -> (FileId, u64) {
    let before = used_fragments(f);
    let fid = f.create(ServiceType::Basic).unwrap();
    f.open(fid).unwrap();
    f.write(fid, 0, bytes.to_vec()).unwrap();
    f.flush_all().unwrap();
    (fid, used_fragments(f) - before)
}

/// A 2-member lock-step replica set holding `bytes` — the E17
/// redundancy ablation every parity arm is fingerprint-checked against.
/// Returns the file's id on the members and the fragments its
/// create+write+flush cost across the set.
fn mirror_with(bytes: &[u8]) -> (Cluster, FileId, u64) {
    let mut c = Cluster::new(
        1,
        ClusterConfig {
            geometry: DiskGeometry::large(),
            latency: LatencyModel::default(),
            data_net: NetConfig::in_process(),
            replicas: 2,
            ..ClusterConfig::default()
        },
    );
    let used = |c: &Cluster| -> u64 {
        (0..c.server_count())
            .map(|i| c.with_server(i, |fs| used_fragments(fs)))
            .sum()
    };
    let before = used(&c);
    let gid = c.create().unwrap();
    c.open(gid).unwrap();
    c.write(gid, 0, bytes).unwrap();
    for i in 0..c.server_count() {
        c.with_server(i, |fs| fs.flush_all().unwrap());
    }
    let after = used(&c);
    let fid = c.placement_of(gid).unwrap().1;
    (c, fid, after - before)
}

/// The bytes the surviving member 1 of the mirror serves cold, as a
/// fingerprint.
fn surviving_mirror_fp(c: &Cluster, fid: FileId, len: usize) -> u64 {
    c.with_server(1, |fs| {
        fs.evict_caches().unwrap();
        fingerprint(&fs.read(fid, 0, len).unwrap())
    })
}

/// Storage-overhead sweep: same payload, four redundancy tiers.
fn overhead_rows(rows: u64) -> (Table, [u64; 4]) {
    let bytes = patterned((rows * K as u64 * BLOCK) as usize);
    let mut striped = setups::striped_file_service_raw_mode(K, 1, ParallelIo::Auto);
    let (_, raw_frags) = write_cost(&mut striped, &bytes);
    let mut r5 = setups::parity_file_service_raw_mode(K + 1, K, 1, ParallelIo::Auto);
    let (_, r5_frags) = write_cost(&mut r5, &bytes);
    // RAID-6 amortises its second parity unit over a wider group: 8+2
    // keeps the two-disk fault bar at 1.25x instead of 4+2's 1.5x.
    let mut r6 = setups::parity_file_service_raw_mode(10, 8, 2, ParallelIo::Auto);
    let (_, r6_frags) = write_cost(&mut r6, &bytes);
    let (_, _, mirror_frags) = mirror_with(&bytes);

    let pct = |frags: u64| frags * 100 / raw_frags.max(1);
    let mut t = Table::new(&["redundancy tier", "fragments", "vs raw", "survives"]);
    for (name, frags, survives) in [
        ("striped, no redundancy", raw_frags, "nothing"),
        ("RAID-5 (4+1)", r5_frags, "any 1 disk"),
        ("RAID-6 (8+2)", r6_frags, "any 2 disks"),
        ("2-way mirror (E17)", mirror_frags, "1 replica"),
    ] {
        t.row_owned(vec![
            name.into(),
            frags.to_string(),
            format!("{:.2}x", pct(frags) as f64 / 100.0),
            survives.into(),
        ]);
    }
    (
        t,
        [
            pct(raw_frags),
            pct(r5_frags),
            pct(r6_frags),
            pct(mirror_frags),
        ],
    )
}

/// Full-stripe write bandwidth of one arm: virtual-time KB/s for
/// rewriting `rows` whole stripe rows of an existing file and flushing
/// them. The file is populated (and its metadata persisted) before the
/// timed section, so the number measures the steady-state data path —
/// not the one-time allocation and FIT-persist cost.
fn full_stripe_kb_s(f: &mut FileService, rows: u64) -> u64 {
    let bytes = patterned((rows * K as u64 * BLOCK) as usize);
    let (fid, _) = write_cost(f, &bytes);
    let clock = f.clock();
    let t0 = clock.now_us();
    f.write(fid, 0, bytes.clone()).unwrap();
    f.flush_all().unwrap();
    let dt = (clock.now_us() - t0).max(1);
    (bytes.len() as u64) * 1_000_000 / dt / 1024
}

/// Small-write makespan of one arm: `n` scattered single-block rewrites
/// against an existing `rows`-row file, flushed as one batch. Returns
/// (virtual makespan us, parity-delta writes taken).
fn small_write_us(f: &mut FileService, rows: u64, n: u64) -> (u64, u64) {
    let bytes = patterned((rows * K as u64 * BLOCK) as usize);
    let (fid, _) = write_cost(f, &bytes);
    let nblocks = rows * K as u64;
    let p0 = f.stats().parity;
    let clock = f.clock();
    let t0 = clock.now_us();
    for i in 0..n {
        // Stride-5 walk: scattered blocks, one dirty unit per touched
        // row, so every rewrite takes the read-modify-write path.
        let b = (i * 5 + 1) % nblocks;
        f.write(fid, b * BLOCK, vec![i as u8; BLOCK as usize])
            .unwrap();
    }
    f.flush_all().unwrap();
    let dt = clock.now_us() - t0;
    (dt, f.stats().parity.delta_since(&p0).parity_delta_writes)
}

/// One degraded/rebuild arm: patterned file on a k+m group, `lose`
/// disks failed, every block read back through reconstruction, then a
/// budgeted rebuild interleaved with foreground reads.
struct DegradedArm {
    degraded_fp: u64,
    rebuilt_fp: u64,
    read_p99_us: u64,
    rebuild_pages: u64,
    rebuild_us: u64,
    foreground_reads: u64,
    degraded_reads: u64,
}

fn degraded_arm(m: usize, lose: &[usize], rows: u64) -> DegradedArm {
    let bytes = patterned((rows * K as u64 * BLOCK) as usize);
    let mut f = setups::parity_file_service_raw_mode(K + m + 1, K, m, ParallelIo::Auto);
    let (fid, _) = write_cost(&mut f, &bytes);
    for &d in lose {
        f.fail_disk(d).unwrap();
    }
    f.evict_caches().unwrap();
    let parity0 = f.stats().parity;

    let clock = f.clock();
    let nblocks = rows * K as u64;
    let mut samples = Vec::with_capacity(nblocks as usize);
    let mut read_back = Vec::with_capacity(bytes.len());
    for b in 0..nblocks {
        let t0 = clock.now_us();
        read_back.extend(f.read(fid, b * BLOCK, BLOCK as usize).unwrap());
        samples.push(clock.now_us() - t0);
    }
    let degraded_fp = fingerprint(&read_back);

    // Budgeted rebuild with foreground traffic: every 8-page slice of
    // background work is interleaved with a client read.
    let p0 = f.stats().parity;
    let t0 = clock.now_us();
    let mut foreground_reads = 0;
    loop {
        let r = f.rebuild(Some(8)).unwrap();
        let b = foreground_reads % nblocks;
        assert_eq!(
            f.read(fid, b * BLOCK, 16).unwrap(),
            bytes[(b * BLOCK) as usize..(b * BLOCK) as usize + 16],
            "foreground read diverged during rebuild"
        );
        foreground_reads += 1;
        if r.complete {
            break;
        }
    }
    let rebuild_us = clock.now_us() - t0;
    let rebuild_pages = f.stats().parity.delta_since(&p0).rebuild_pages;

    f.evict_caches().unwrap();
    let rebuilt_fp = fingerprint(&f.read(fid, 0, bytes.len()).unwrap());
    DegradedArm {
        degraded_fp,
        rebuilt_fp,
        read_p99_us: LatencySummary::from_samples(&samples).p99,
        rebuild_pages,
        rebuild_us,
        foreground_reads,
        degraded_reads: f.stats().parity.delta_since(&parity0).degraded_reads,
    }
}

/// Runs the experiment.
pub fn run(smoke: bool) -> String {
    let (rows, rewrites, degraded_rows) = if smoke { (16, 12, 6) } else { (64, 48, 24) };
    let mut out = String::new();

    // 1. Storage overhead.
    let (t, _) = overhead_rows(rows);
    out.push_str("storage overhead (same payload, fragments actually allocated):\n");
    out.push_str(&t.render());

    // 2. Full-stripe fast path: parity computed in memory, zero reads.
    let mut striped = setups::striped_file_service_raw_mode(K, 1, ParallelIo::Auto);
    let base_kb_s = full_stripe_kb_s(&mut striped, rows);
    let mut r5 = setups::parity_file_service_raw_mode(K + 1, K, 1, ParallelIo::Auto);
    let p0 = r5.stats().parity;
    let r5_kb_s = full_stripe_kb_s(&mut r5, rows);
    let techniques = r5.stats().parity.delta_since(&p0);
    let mut t = Table::new(&["arm", "KB/s", "parity reads"]);
    t.row_owned(vec![
        format!("striped over {K} disks, no redundancy"),
        base_kb_s.to_string(),
        "-".into(),
    ]);
    t.row_owned(vec![
        "RAID-5 (4+1), full-stripe writes".into(),
        r5_kb_s.to_string(),
        format!(
            "0 ({} rows took the full-stripe path)",
            techniques.full_stripe_writes
        ),
    ]);
    out.push_str("\nfull-stripe write bandwidth (whole rows, parity folded in memory):\n");
    out.push_str(&t.render());

    // 3. Small-write penalty: coalesced parity-delta vs naive RMW.
    let mut naive = setups::parity_file_service_raw_mode(K + 1, K, 1, ParallelIo::Never);
    let (naive_us, _) = small_write_us(&mut naive, rows, rewrites);
    let mut coalesced = setups::parity_file_service_raw_mode(K + 1, K, 1, ParallelIo::Auto);
    let (coalesced_us, deltas) = small_write_us(&mut coalesced, rows, rewrites);
    let mut t = Table::new(&["arm", "makespan (us)", "speedup"]);
    t.row_owned(vec![
        "naive read-modify-write (serial per row)".into(),
        naive_us.to_string(),
        "1.00x".into(),
    ]);
    t.row_owned(vec![
        "parity-delta, shared elevator batch".into(),
        coalesced_us.to_string(),
        format!("{:.2}x", naive_us as f64 / coalesced_us.max(1) as f64),
    ]);
    out.push_str(&format!(
        "\nsmall-write penalty ({rewrites} scattered 1-block rewrites, {deltas} parity-delta rows):\n"
    ));
    out.push_str(&t.render());

    // 4. Degraded service + online rebuild, fingerprinted against the
    // surviving half of the 2-way mirror ablation.
    let bytes = patterned((degraded_rows * K as u64 * BLOCK) as usize);
    let (c, mfid, _) = mirror_with(&bytes);
    // The mirror ablation loses member 0 outright; the surviving member
    // serves the reference bytes.
    let mirror_fp = surviving_mirror_fp(&c, mfid, bytes.len());
    let r5 = degraded_arm(1, &[2], degraded_rows);
    let r6 = degraded_arm(2, &[1, 4], degraded_rows);
    let mut t = Table::new(&[
        "arm",
        "degraded == mirror",
        "rebuilt == mirror",
        "read p99 (us)",
        "rebuild pages",
        "rebuild (us)",
        "fg reads",
    ]);
    for (name, arm) in [("RAID-5, 1 disk lost", &r5), ("RAID-6, 2 disks lost", &r6)] {
        t.row_owned(vec![
            name.into(),
            if arm.degraded_fp == mirror_fp {
                "yes"
            } else {
                "NO"
            }
            .into(),
            if arm.rebuilt_fp == mirror_fp {
                "yes"
            } else {
                "NO"
            }
            .into(),
            arm.read_p99_us.to_string(),
            arm.rebuild_pages.to_string(),
            arm.rebuild_us.to_string(),
            arm.foreground_reads.to_string(),
        ]);
    }
    out.push_str("\ndegraded reads and online rebuild (vs the surviving mirror replica):\n");
    out.push_str(&t.render());

    // 5. The open-loop mix over a parity-backed server: the write-size
    // mix steers which technique each committed write takes.
    let trace = loadgen::trace(&LoadgenConfig {
        agents: 64,
        files: 12,
        ops: if smoke { 300 } else { 1200 },
        disks: K + 1,
        redundancy: Redundancy::Parity { k: K, m: 1 },
        write_sizes: WriteSizeMix {
            small_pct: 40,
            partial_pct: 30,
        },
        ..LoadgenConfig::default()
    });
    out.push_str(&format!(
        "\nopen-loop mix on RAID-5 (40% small / 30% block / 30% full-file writes):\n\
         full-stripe={} parity-delta={} reconstruct={} degraded-reads={}\n",
        trace.parity.full_stripe_writes,
        trace.parity.parity_delta_writes,
        trace.parity.reconstruct_writes,
        trace.parity.degraded_reads,
    ));

    out.push_str(
        "\npaper: stable storage duplicates every item (2x); a k+m parity group\n\
         holds the same single-fault bar at (k+m)/k, keeps full-stripe writes on\n\
         the in-memory fast path, and pays the RMW tax only for small writes —\n\
         where the shared elevator batch claws most of it back.\n",
    );
    out
}

/// Stat records for the committed `BENCH_raid.json` lane — a fixed
/// mid-size cell, independent of the smoke flag.
pub fn stat_records() -> Vec<(String, u64)> {
    const ROWS: u64 = 32;
    let (_, overhead) = overhead_rows(ROWS);

    let mut striped = setups::striped_file_service_raw_mode(K, 1, ParallelIo::Auto);
    let base_kb_s = full_stripe_kb_s(&mut striped, ROWS);
    let mut r5 = setups::parity_file_service_raw_mode(K + 1, K, 1, ParallelIo::Auto);
    let p0 = r5.stats().parity;
    let r5_kb_s = full_stripe_kb_s(&mut r5, ROWS);
    let full_writes = r5.stats().parity.delta_since(&p0).full_stripe_writes;

    let mut naive = setups::parity_file_service_raw_mode(K + 1, K, 1, ParallelIo::Never);
    let (naive_us, _) = small_write_us(&mut naive, ROWS, 32);
    let mut coalesced = setups::parity_file_service_raw_mode(K + 1, K, 1, ParallelIo::Auto);
    let (coalesced_us, delta_writes) = small_write_us(&mut coalesced, ROWS, 32);

    let arm = degraded_arm(1, &[2], 12);

    vec![
        ("raid.overhead.striped_pct".into(), overhead[0]),
        ("raid.overhead.raid5_pct".into(), overhead[1]),
        ("raid.overhead.raid6_pct".into(), overhead[2]),
        ("raid.overhead.mirror_pct".into(), overhead[3]),
        ("raid.full_stripe.striped_kb_s".into(), base_kb_s),
        ("raid.full_stripe.raid5_kb_s".into(), r5_kb_s),
        ("raid.small_write.naive_us".into(), naive_us),
        ("raid.small_write.coalesced_us".into(), coalesced_us),
        ("raid.degraded.read_p99_us".into(), arm.read_p99_us),
        ("raid.rebuild.pages".into(), arm.rebuild_pages),
        ("raid.counters.full_stripe_writes".into(), full_writes),
        ("raid.counters.parity_delta_writes".into(), delta_writes),
        ("raid.counters.degraded_reads".into(), arm.degraded_reads),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_and_fast_path_hold_the_acceptance_bars() {
        let (_, overhead) = overhead_rows(16);
        assert!(
            overhead[1] <= 150 && overhead[2] <= 150,
            "parity overhead above 1.5x raw: {overhead:?}"
        );
        assert!(
            overhead[3] >= 200,
            "mirror should cost at least 2x raw: {overhead:?}"
        );

        let mut striped = setups::striped_file_service_raw_mode(K, 1, ParallelIo::Auto);
        let base = full_stripe_kb_s(&mut striped, 16);
        let mut r5 = setups::parity_file_service_raw_mode(K + 1, K, 1, ParallelIo::Auto);
        let raid5 = full_stripe_kb_s(&mut r5, 16);
        assert!(
            raid5 * 100 >= base * 85,
            "full-stripe RAID-5 below 85% of striped: {raid5} vs {base} KB/s"
        );
    }

    #[test]
    fn coalesced_parity_delta_beats_naive_rmw() {
        let mut naive = setups::parity_file_service_raw_mode(K + 1, K, 1, ParallelIo::Never);
        let (naive_us, _) = small_write_us(&mut naive, 16, 12);
        let mut coalesced = setups::parity_file_service_raw_mode(K + 1, K, 1, ParallelIo::Auto);
        let (coalesced_us, deltas) = small_write_us(&mut coalesced, 16, 12);
        assert!(deltas > 0, "no rewrite took the parity-delta path");
        assert!(
            naive_us * 10 >= coalesced_us * 15,
            "coalesced parity-delta under 1.5x vs naive RMW: {naive_us} vs {coalesced_us}"
        );
    }

    #[test]
    fn degraded_arms_match_the_mirror_fingerprint() {
        let rows = 6u64;
        let bytes = patterned((rows * K as u64 * BLOCK) as usize);
        let (c, mfid, _) = mirror_with(&bytes);
        let mirror_fp = surviving_mirror_fp(&c, mfid, bytes.len());
        for (m, lose) in [(1usize, vec![2usize]), (2, vec![1, 4])] {
            let arm = degraded_arm(m, &lose, rows);
            assert_eq!(arm.degraded_fp, mirror_fp, "degraded read diverged (m={m})");
            assert_eq!(
                arm.rebuilt_fp, mirror_fp,
                "post-rebuild read diverged (m={m})"
            );
            assert!(arm.rebuild_pages > 0);
        }
    }

    #[test]
    fn report_has_no_failures_and_lane_is_stable() {
        let report = run(true);
        assert!(!report.contains(" NO"), "an arm failed:\n{report}");
        assert_eq!(stat_records(), stat_records());
    }
}
