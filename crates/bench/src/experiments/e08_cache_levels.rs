//! E8 — caching at every level: "either the absence of caching in the
//! client machine as in the case of the 'Bullet server' of Amoeba or poor
//! implementation of caching could prove a major bottleneck ... a
//! significant gain in the performance due to the caching system alone can
//! be easily realised, provided it is made available at the transaction
//! level, the file service level and the disk service level" (§1).
//!
//! Replays a skewed re-read workload through a file agent with caches
//! progressively enabled: none (the Bullet-style baseline), server-side
//! only (file-service block pool + disk track cache), and server + client.

use crate::table::{speedup, Table};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhodos_agent::FileAgent;
use rhodos_naming::{AttributedName, NamingService};
use rhodos_net::{NetConfig, SimNetwork};
use rhodos_txn::{TransactionService, TxnConfig};
use std::sync::Arc;

const FILE_BLOCKS: usize = 32;
const OPS: usize = 600;

/// Per-configuration measurements of one replayed workload.
struct Measured {
    sim_us: u64,
    round_trips: u64,
    disk_refs: u64,
    copied: u64,
    borrowed: u64,
    /// Server block-pool hit rate over the measured reads, percent.
    server_pool_hit: f64,
    /// Client (agent) block-pool hit rate, percent.
    client_pool_hit: f64,
}

fn workload(server_caches: bool, client_blocks: usize) -> Measured {
    let fs = crate::setups::file_service_with_caches(server_caches);
    let clock = fs.clock();
    let ts = TransactionService::new(fs, TxnConfig::default()).unwrap();
    let server = Arc::new(Mutex::new(ts));
    let mut agent = FileAgent::new(
        0,
        server.clone(),
        Arc::new(Mutex::new(NamingService::new())),
        SimNetwork::new(
            clock.clone(),
            NetConfig {
                delay_us: 100,
                jitter_us: 0,
                ..NetConfig::reliable()
            },
        ),
        client_blocks.max(1), // 1-block pool ≈ no client caching
    );
    let name = AttributedName::parse("name=hot").unwrap();
    agent.create(&name).unwrap();
    let od = agent.open(&name).unwrap();
    let block = vec![9u8; 8192];
    for i in 0..FILE_BLOCKS {
        agent.pwrite(od, (i * 8192) as u64, &block).unwrap();
    }
    agent.flush(od).unwrap();
    server.lock().file_service_mut().flush_all().unwrap();
    server.lock().file_service_mut().evict_caches().unwrap();
    // Skewed re-reads: 80% of reads hit 20% of the blocks.
    let mut rng = StdRng::seed_from_u64(3);
    let t0 = clock.now_us();
    let agent0 = agent.stats();
    let server0 = server.lock().file_service_mut().stats();
    for _ in 0..OPS {
        let b = if rng.gen_bool(0.8) {
            rng.gen_range(0..FILE_BLOCKS / 5)
        } else {
            rng.gen_range(0..FILE_BLOCKS)
        };
        let _ = agent.pread(od, (b * 8192) as u64, 1024).unwrap();
    }
    let agent1 = agent.stats();
    let server1 = server.lock().file_service_mut().stats();
    let trips = agent1.rpcs_sent - agent0.rpcs_sent;
    let dt = clock.now_us() - t0;
    let refs = server1.total_disk_refs();
    // Copy traffic across the whole pipeline during the measured reads:
    // gather-copies by the platter plus any cache-level memcpys, vs bytes served as
    // shared handles by the client pool, server pool and track caches.
    let disk_copied = |s: &rhodos_file_service::FileServiceStats| -> (u64, u64) {
        s.disks.iter().fold((0, 0), |(c, b), d| {
            (
                c + d.disk.bytes_copied + d.cache.bytes_copied,
                b + d.cache.bytes_borrowed,
            )
        })
    };
    let (srv_copied0, srv_borrowed0) = disk_copied(&server0);
    let (srv_copied1, srv_borrowed1) = disk_copied(&server1);
    let copied = (srv_copied1 - srv_copied0)
        + (server1.cache.bytes_copied - server0.cache.bytes_copied)
        + (agent1.cache.bytes_copied - agent0.cache.bytes_copied);
    let borrowed = (srv_borrowed1 - srv_borrowed0)
        + (server1.cache.bytes_borrowed - server0.cache.bytes_borrowed)
        + (agent1.cache.bytes_borrowed - agent0.cache.bytes_borrowed);
    // Hit rates over the measured window, via the stats-delta trick:
    // a CacheStats of just the deltas reuses `hit_rate()` unchanged.
    let rate = |hits1: u64, hits0: u64, misses1: u64, misses0: u64| {
        rhodos_file_service::CacheStats {
            hits: hits1 - hits0,
            misses: misses1 - misses0,
            ..Default::default()
        }
        .hit_rate()
    };
    Measured {
        sim_us: dt,
        round_trips: trips,
        disk_refs: refs,
        copied,
        borrowed,
        server_pool_hit: rate(
            server1.cache.hits,
            server0.cache.hits,
            server1.cache.misses,
            server0.cache.misses,
        ),
        client_pool_hit: rate(
            agent1.cache.hits,
            agent0.cache.hits,
            agent1.cache.misses,
            agent0.cache.misses,
        ),
    }
}

/// Runs the experiment.
pub fn run() -> String {
    let mut t = Table::new(&[
        "caches enabled",
        "sim time (us)",
        "client->server round trips",
        "total disk refs",
        "KiB copied",
        "KiB borrowed",
        "server pool hit %",
        "client pool hit %",
    ]);
    let mut times = Vec::new();
    for (label, server, client) in [
        ("none (Bullet-style server)", false, 0usize),
        ("server only (file + disk level)", true, 0),
        ("server + client (all levels)", true, 128),
    ] {
        let m = workload(server, client);
        times.push(m.sim_us);
        t.row_owned(vec![
            label.to_string(),
            m.sim_us.to_string(),
            m.round_trips.to_string(),
            m.disk_refs.to_string(),
            (m.copied / 1024).to_string(),
            (m.borrowed / 1024).to_string(),
            format!("{:.1}", m.server_pool_hit),
            format!("{:.1}", m.client_pool_hit),
        ]);
    }
    let mut out = t.render();
    let verdict = if times[2] == 0 {
        "the full cache stack absorbs the workload's cost entirely (simulated time -> 0)"
            .to_string()
    } else {
        format!(
            "full caching is {} faster than the cache-less baseline",
            speedup(times[0] as f64, times[2] as f64)
        )
    };
    out.push_str(&format!(
        "\n{verdict} on a skewed re-read workload ({OPS} reads over a\n\
         {FILE_BLOCKS}-block file): server caches absorb disk references, the client\n\
         cache absorbs round trips.\n",
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn each_level_helps() {
        let none = super::workload(false, 0);
        let server = super::workload(true, 0);
        let all = super::workload(true, 128);
        // Server caches absorb disk references.
        assert!(
            server.disk_refs < none.disk_refs / 2,
            "{} vs {}",
            server.disk_refs,
            none.disk_refs
        );
        // The client cache absorbs round trips.
        assert!(
            all.round_trips < server.round_trips / 2,
            "{} vs {}",
            all.round_trips,
            server.round_trips
        );
        assert_eq!(
            none.round_trips, server.round_trips,
            "server caches don't change trips"
        );
        // And the full stack is fastest.
        assert!(
            all.sim_us < server.sim_us && server.sim_us <= none.sim_us,
            "{} {} {}",
            all.sim_us,
            server.sim_us,
            none.sim_us
        );
        // With every cache on, hot blocks are served as shared handles.
        assert!(all.borrowed > 0, "cache hits should be zero-copy borrows");
        // The hit-rate satellite: the server pool runs hot when enabled,
        // reports 0% when absent; same for the client pool.
        assert_eq!(none.server_pool_hit, 0.0);
        assert!(server.server_pool_hit > 50.0, "{}", server.server_pool_hit);
        assert!(all.client_pool_hit > 50.0, "{}", all.client_pool_hit);
    }
}
