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
//! `exp e21 --smoke` shrinks the cells for CI; the committed
//! `BENCH_raid.json` lane is its own fixed mid-size cell.

use crate::latency::LatencySummary;
use crate::loadgen::{self, LoadgenConfig, WriteSizeMix};
use crate::setups;
use crate::table::Table;
use crate::{Cell, Report};
use rhodos_cluster::{Cluster, ClusterConfig};
use rhodos_file_service::{FileId, FileService, ParallelIo, Redundancy, ServiceType};
use rhodos_net::NetConfig;
use rhodos_simdisk::{DiskGeometry, LatencyModel};

/// The claim, in a line.
pub const TITLE: &str = "Erasure-coded striping: RAID-5/6 parity groups vs the mirror";

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
    setups::over_disks(f, |d| d.total_fragments - d.free_fragments)
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

    let frags = [raw_frags, r5_frags, r6_frags, mirror_frags];
    let pct = frags.map(|f| f * 100 / raw_frags.max(1));
    let mut t = Table::new(&["redundancy tier", "fragments", "vs raw", "survives"]);
    for (i, (name, survives)) in [
        ("striped, no redundancy", "nothing"),
        ("RAID-5 (4+1)", "any 1 disk"),
        ("RAID-6 (8+2)", "any 2 disks"),
        ("2-way mirror (E17)", "1 replica"),
    ]
    .into_iter()
    .enumerate()
    {
        let vs_raw = format!("{:.2}x", pct[i] as f64 / 100.0);
        t.row(&[&name, &frags[i], &vs_raw, &survives]);
    }
    (t, pct)
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
pub fn measure(cell: Cell) -> Report {
    let (rows, rewrites, degraded_rows, mix_ops) =
        cell.pick((16, 12, 6, 300), (64, 48, 24, 1200), (32, 32, 12, 300));
    let mut r = Report::default();

    // 1. Storage overhead.
    let (t, overhead) = overhead_rows(rows);
    r.claim(
        "RAID-5 (4+1) and RAID-6 (8+2) cost at most 1.5x the raw fragments, the mirror 2x",
        overhead[1] <= 150 && overhead[2] <= 150 && overhead[3] >= 200,
    );
    r.text
        .push_str("storage overhead (same payload, fragments actually allocated):\n");
    r.text.push_str(&t.render());

    // 2. Full-stripe fast path: parity computed in memory, zero reads.
    let mut striped = setups::striped_file_service_raw_mode(K, 1, ParallelIo::Auto);
    let base_kb_s = full_stripe_kb_s(&mut striped, rows);
    let mut r5 = setups::parity_file_service_raw_mode(K + 1, K, 1, ParallelIo::Auto);
    let p0 = r5.stats().parity;
    let r5_kb_s = full_stripe_kb_s(&mut r5, rows);
    let techniques = r5.stats().parity.delta_since(&p0);
    r.claim(
        "every row of a whole-row write takes the full-stripe path",
        techniques.full_stripe_writes == 2 * rows
            && techniques.parity_delta_writes == 0
            && techniques.reconstruct_writes == 0,
    );
    r.claim(
        "full-stripe RAID-5 writes reach 85% of striping's bandwidth",
        r5_kb_s * 100 >= base_kb_s * 85,
    );
    let mut t = Table::new(&["arm", "KB/s", "parity reads"]);
    t.row(&[
        &format!("striped over {K} disks, no redundancy"),
        &base_kb_s,
        &"-",
    ]);
    t.row(&[
        &"RAID-5 (4+1), full-stripe writes",
        &r5_kb_s,
        &format!(
            "0 ({} rows took the full-stripe path)",
            techniques.full_stripe_writes
        ),
    ]);
    r.text
        .push_str("\nfull-stripe write bandwidth (whole rows, parity folded in memory):\n");
    r.text.push_str(&t.render());

    // 3. Small-write penalty: coalesced parity-delta vs naive RMW.
    let mut naive = setups::parity_file_service_raw_mode(K + 1, K, 1, ParallelIo::Never);
    let (naive_us, _) = small_write_us(&mut naive, rows, rewrites);
    let mut coalesced = setups::parity_file_service_raw_mode(K + 1, K, 1, ParallelIo::Auto);
    let (coalesced_us, deltas) = small_write_us(&mut coalesced, rows, rewrites);
    r.claim(
        "scattered rewrites take the parity-delta path, 1.5x faster than naive RMW",
        deltas > 0 && naive_us * 10 >= coalesced_us * 15,
    );
    let mut t = Table::new(&["arm", "makespan (us)", "speedup"]);
    t.row(&[
        &"naive read-modify-write (serial per row)",
        &naive_us,
        &"1.00x",
    ]);
    t.row(&[
        &"parity-delta, shared elevator batch",
        &coalesced_us,
        &format!("{:.2}x", naive_us as f64 / coalesced_us.max(1) as f64),
    ]);
    r.text.push_str(&format!(
        "\nsmall-write penalty ({rewrites} scattered 1-block rewrites, {deltas} parity-delta rows):\n"
    ));
    r.text.push_str(&t.render());

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
        r.claim(
            format!("{name}: the rebuild repopulates the spare"),
            arm.rebuild_pages > 0,
        );
        t.row(&[
            &name,
            &r.verdict(
                format!("{name}: degraded reads return the mirror's bytes"),
                arm.degraded_fp == mirror_fp,
            ),
            &r.verdict(
                format!("{name}: reads after the rebuild return the mirror's bytes"),
                arm.rebuilt_fp == mirror_fp,
            ),
            &arm.read_p99_us,
            &arm.rebuild_pages,
            &arm.rebuild_us,
            &arm.foreground_reads,
        ]);
    }
    r.text
        .push_str("\ndegraded reads and online rebuild (vs the surviving mirror replica):\n");
    r.text.push_str(&t.render());

    // 5. The open-loop mix over a parity-backed server: the write-size
    // mix steers which technique each committed write takes.
    let trace = loadgen::trace(&LoadgenConfig {
        agents: 64,
        files: 12,
        ops: mix_ops,
        disks: K + 1,
        redundancy: Redundancy::Parity { k: K, m: 1 },
        write_sizes: WriteSizeMix {
            small_pct: 40,
            partial_pct: 30,
        },
        ..LoadgenConfig::default()
    });
    r.text.push_str(&format!(
        "\nopen-loop mix on RAID-5 (40% small / 30% block / 30% full-file writes):\n\
         full-stripe={} parity-delta={} reconstruct={} degraded-reads={}\n",
        trace.parity.full_stripe_writes,
        trace.parity.parity_delta_writes,
        trace.parity.reconstruct_writes,
        trace.parity.degraded_reads,
    ));

    r.text.push_str(
        "\npaper: stable storage duplicates every item (2x); a k+m parity group\n\
         holds the same single-fault bar at (k+m)/k, keeps full-stripe writes on\n\
         the in-memory fast path, and pays the RMW tax only for small writes —\n\
         where the shared elevator batch claws most of it back.\n",
    );
    r.rows = [
        ("overhead.striped_pct", overhead[0]),
        ("overhead.raid5_pct", overhead[1]),
        ("overhead.raid6_pct", overhead[2]),
        ("overhead.mirror_pct", overhead[3]),
        ("full_stripe.striped_kb_s", base_kb_s),
        ("full_stripe.raid5_kb_s", r5_kb_s),
        ("small_write.naive_us", naive_us),
        ("small_write.coalesced_us", coalesced_us),
        ("degraded.read_p99_us", r5.read_p99_us),
        ("rebuild.pages", r5.rebuild_pages),
        ("counters.full_stripe_writes", techniques.full_stripe_writes),
        ("counters.parity_delta_writes", deltas),
        ("counters.degraded_reads", r5.degraded_reads),
    ]
    .map(|(name, v)| (format!("raid.{name}"), v))
    .into();
    r
}
