//! # rhodos-net — simulated network and idempotent RPC
//!
//! The RHODOS facility is client–server: agents on each machine talk to
//! the file, transaction and naming services by message passing. The paper
//! claims that "certain errors caused by computer failures and
//! communication delays may lead to repeated execution of some operations.
//! However, their repetition in RHODOS does not produce any uncertain
//! effect. This is because the semantics of the messages exchanged ...
//! constitute idempotent operations. Due to idempotent file operations, a
//! file agent maintains both the state of files ... and the information
//! about all past requests. As a consequence, the RHODOS file service is
//! 'nearly' stateless." (§3)
//!
//! This crate substitutes the RHODOS microkernel transport with a
//! deterministic lossy channel ([`SimNetwork`]) and provides the two
//! halves of the idempotency machinery:
//!
//! * [`RpcClient`] — stamps each logical operation with a request id and
//!   retries until a reply arrives;
//! * [`ReplayCache`] — the server side's "information about all past
//!   requests": executes an operation at most once per request id and
//!   replays the recorded reply for duplicates.
//!
//! Experiment **E9** drives file operations through this machinery with
//! duplication and loss enabled and checks that effects are exactly-once.
//!
//! # Example
//!
//! ```
//! use rhodos_net::{NetConfig, ReplayCache, RpcClient, SimNetwork};
//! use rhodos_simdisk::SimClock;
//!
//! let mut net = SimNetwork::new(SimClock::new(), NetConfig::lossy(0.3, 0.3, 7));
//! let mut client = RpcClient::new(1);
//! let mut cache = ReplayCache::new();
//! let mut counter = 0u32; // server-side effect
//!
//! let reply = client
//!     .call(&mut net, |req_id| {
//!         cache.execute(req_id, || {
//!             counter += 1; // must happen exactly once
//!             counter.to_le_bytes().to_vec()
//!         })
//!     })
//!     .unwrap();
//! assert_eq!(counter, 1);
//! assert_eq!(reply, 1u32.to_le_bytes().to_vec());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhodos_simdisk::SimClock;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Behaviour of the simulated network.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Base one-way delay, virtual microseconds.
    pub delay_us: u64,
    /// Uniform extra jitter added to each transmission, microseconds.
    pub jitter_us: u64,
    /// Probability a transmission is lost entirely.
    pub drop_prob: f64,
    /// Loss probability for the *reply* leg of an RPC exchange, when it
    /// differs from the request leg. `None` keeps the lane symmetric
    /// (replies drop with `drop_prob`). A one-way-lossy lane
    /// (`drop_prob = 0`, `reply_drop_prob = Some(p)`) is the worst case
    /// for server replay state: every operation executes, but its reply
    /// — and the piggybacked ack it would have confirmed — keeps
    /// getting lost.
    pub reply_drop_prob: Option<f64>,
    /// Probability a delivered transmission arrives twice.
    pub duplicate_prob: f64,
    /// RNG seed — simulations are deterministic per seed.
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            delay_us: 500,
            jitter_us: 100,
            drop_prob: 0.0,
            reply_drop_prob: None,
            duplicate_prob: 0.0,
            seed: 0,
        }
    }
}

impl NetConfig {
    /// A reliable network (no loss, no duplication).
    pub fn reliable() -> Self {
        Self::default()
    }

    /// A lane between two services in one address space: nothing is lost
    /// or duplicated and a transmission costs zero virtual time.
    pub fn in_process() -> Self {
        Self {
            delay_us: 0,
            jitter_us: 0,
            ..Self::default()
        }
    }

    /// A faulty network with the given loss and duplication probabilities.
    pub fn lossy(drop_prob: f64, duplicate_prob: f64, seed: u64) -> Self {
        Self {
            drop_prob,
            duplicate_prob,
            seed,
            ..Self::default()
        }
    }

    /// A one-way-lossy lane: requests always arrive, replies drop with
    /// `reply_drop_prob`. Every operation executes server-side but its
    /// acknowledgement keeps getting lost — the adversarial case for
    /// replay-cache boundedness.
    pub fn reply_lossy(reply_drop_prob: f64, seed: u64) -> Self {
        Self {
            reply_drop_prob: Some(reply_drop_prob),
            seed,
            ..Self::default()
        }
    }
}

/// The fate of one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Arrived; `copies` is 1, or 2 when duplicated.
    Delivered {
        /// Number of copies that arrived.
        copies: u32,
    },
    /// Lost in transit.
    Lost,
}

/// Counters of network behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Transmissions attempted.
    pub sent: u64,
    /// Transmissions lost.
    pub lost: u64,
    /// Extra duplicate copies created.
    pub duplicated: u64,
    /// Total virtual time spent in transit.
    pub transit_us: u64,
}

/// A deterministic lossy channel that advances the shared virtual clock
/// for every transmission.
#[derive(Debug)]
pub struct SimNetwork {
    clock: SimClock,
    config: NetConfig,
    rng: StdRng,
    stats: NetStats,
}

impl SimNetwork {
    /// Creates a network over the shared clock.
    pub fn new(clock: SimClock, config: NetConfig) -> Self {
        Self {
            clock,
            rng: StdRng::seed_from_u64(config.seed),
            config,
            stats: NetStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// The shared clock.
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Sends one message, advancing the clock by its transit time (or the
    /// timeout-equivalent delay when it is lost).
    pub fn transmit(&mut self) -> Delivery {
        let p = self.config.drop_prob;
        self.transmit_with(p)
    }

    /// Sends one *reply-leg* message: drops with `reply_drop_prob` when
    /// the lane is asymmetric, with `drop_prob` otherwise. RNG draw order
    /// is identical to [`Self::transmit`], so symmetric configurations
    /// stay byte-for-byte deterministic with earlier traces.
    pub fn transmit_reply(&mut self) -> Delivery {
        let p = self.config.reply_drop_prob.unwrap_or(self.config.drop_prob);
        self.transmit_with(p)
    }

    fn transmit_with(&mut self, drop_prob: f64) -> Delivery {
        self.stats.sent += 1;
        let jitter = if self.config.jitter_us > 0 {
            self.rng.gen_range(0..=self.config.jitter_us)
        } else {
            0
        };
        let cost = self.config.delay_us + jitter;
        self.clock.advance(cost);
        self.stats.transit_us += cost;
        if self.rng.gen_bool(drop_prob.clamp(0.0, 1.0)) {
            self.stats.lost += 1;
            return Delivery::Lost;
        }
        let copies = if self
            .rng
            .gen_bool(self.config.duplicate_prob.clamp(0.0, 1.0))
        {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        Delivery::Delivered { copies }
    }
}

/// Nominal delay before the first RPC retry, virtual microseconds.
const RETRY_BASE_US: u64 = 500;
/// Ceiling on any single RPC retry delay, virtual microseconds.
const RETRY_CAP_US: u64 = 64_000;

/// The jittered delay of the `nth_retry`-th RPC retry (1-based), drawn
/// from `rng`.
///
/// A blind tight retry loop floods an already lossy channel; real RPC
/// stacks (and the failover designs in the related literature) space
/// retries out exponentially with randomised jitter so concurrent
/// clients do not resynchronise into retry storms. Delays are charged to
/// the simulation's [`SimClock`], so retry cost shows up in virtual time
/// exactly like disk seeks and message transit do.
///
/// The `n`-th retry waits `min(RETRY_CAP_US, RETRY_BASE_US * 2^(n-1))`
/// microseconds, "equal-jitter" randomised into `[delay/2, delay]` with
/// the client's own deterministic RNG.
fn retry_delay_us(nth_retry: u32, rng: &mut StdRng) -> u64 {
    let shift = (nth_retry - 1).min(32);
    let nominal = RETRY_BASE_US
        .saturating_mul(1u64 << shift)
        .min(RETRY_CAP_US);
    let half = nominal / 2;
    half + rng.gen_range(0..=nominal - half)
}

/// Counters of one client's RPC behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpcClientStats {
    /// Logical operations issued.
    pub calls: u64,
    /// Extra attempts beyond the first (request or reply leg lost).
    pub retries: u64,
    /// Total virtual time spent backing off between attempts.
    pub backoff_us: u64,
}

/// Error returned when every retry of an RPC was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcExhausted {
    /// Attempts made (original + retries).
    pub attempts: u32,
}

impl fmt::Display for RpcExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rpc failed after {} attempts", self.attempts)
    }
}

impl Error for RpcExhausted {}

/// Client half of the idempotent RPC machinery: stamps request ids and
/// retries lost exchanges.
#[derive(Debug)]
pub struct RpcClient {
    client_id: u64,
    next_seq: u64,
    rng: StdRng,
    stats: RpcClientStats,
    /// Attempts per call before giving up (original + retries).
    pub max_attempts: u32,
}

impl RpcClient {
    /// Creates a client with identity `client_id` (part of the request-id
    /// space so ids never collide across clients). Retries back off
    /// exponentially (see `retry_delay_us`).
    pub fn new(client_id: u64) -> Self {
        Self {
            client_id,
            next_seq: 1,
            rng: StdRng::seed_from_u64(client_id ^ 0x9E37_79B9_7F4A_7C15),
            stats: RpcClientStats::default(),
            max_attempts: 16,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> RpcClientStats {
        self.stats
    }

    /// Performs one logical operation through `net`. The `server` closure
    /// is invoked once per *arriving copy* of the request with the request
    /// id; it must return the reply bytes (typically via
    /// [`ReplayCache::execute`]). Returns the reply, retrying while
    /// requests or replies are lost.
    ///
    /// # Errors
    ///
    /// [`RpcExhausted`] if `max_attempts` exchanges were all lost.
    pub fn call<F>(&mut self, net: &mut SimNetwork, mut server: F) -> Result<Vec<u8>, RpcExhausted>
    where
        F: FnMut(RequestId) -> Vec<u8>,
    {
        self.call_with_ack(net, |req_id, _| server(req_id))
    }

    /// Like [`Self::call`], but each request also piggybacks the lowest
    /// sequence number still in flight for this client (here: the request's
    /// own, because calls are synchronous — every earlier operation has
    /// completed). The server passes it to [`ReplayCache::execute_acked`],
    /// which prunes replies for acknowledged requests so server-side
    /// replay state stays bounded by the in-flight window ("'nearly'
    /// stateless", §3).
    ///
    /// # Errors
    ///
    /// [`RpcExhausted`] if `max_attempts` exchanges were all lost.
    pub fn call_with_ack<F>(
        &mut self,
        net: &mut SimNetwork,
        mut server: F,
    ) -> Result<Vec<u8>, RpcExhausted>
    where
        F: FnMut(RequestId, u64) -> Vec<u8>,
    {
        let req_id = RequestId {
            client: self.client_id,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.stats.calls += 1;
        let min_live_seq = req_id.seq;
        for attempt in 1..=self.max_attempts {
            if attempt > 1 {
                // A lost leg means the channel (or server) is struggling:
                // space the retry out instead of hammering.
                self.stats.retries += 1;
                let delay = retry_delay_us(attempt - 1, &mut self.rng);
                net.clock().advance(delay);
                self.stats.backoff_us += delay;
            }
            // Request leg.
            let copies = match net.transmit() {
                Delivery::Delivered { copies } => copies,
                Delivery::Lost => continue,
            };
            let mut reply = Vec::new();
            for _ in 0..copies {
                reply = server(req_id, min_live_seq);
            }
            // Reply leg.
            match net.transmit_reply() {
                Delivery::Delivered { .. } => return Ok(reply),
                Delivery::Lost => continue,
            }
        }
        Err(RpcExhausted {
            attempts: self.max_attempts,
        })
    }
}

/// Identity of one logical request: client × sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId {
    /// Issuing client.
    pub client: u64,
    /// Per-client sequence number.
    pub seq: u64,
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req:{}:{}", self.client, self.seq)
    }
}

/// Statistics of a replay cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Operations actually executed.
    pub executed: u64,
    /// Duplicate requests answered from the cache.
    pub replayed: u64,
    /// High-water mark of recorded replies — the "nearly stateless" claim
    /// is that piggybacked acks keep this bounded by the in-flight window.
    pub peak_entries: u64,
}

/// Server half of the idempotency machinery: "information about all past
/// requests". An operation runs at most once per [`RequestId`]; duplicate
/// arrivals get the recorded reply.
#[derive(Debug, Default)]
pub struct ReplayCache {
    replies: HashMap<RequestId, Vec<u8>>,
    stats: ReplayStats,
}

impl ReplayCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Executes `op` for `req_id` unless a reply is already recorded, in
    /// which case the recorded reply is returned and `op` is not run.
    pub fn execute<F>(&mut self, req_id: RequestId, op: F) -> Vec<u8>
    where
        F: FnOnce() -> Vec<u8>,
    {
        if let Some(hit) = self.replies.get(&req_id) {
            self.stats.replayed += 1;
            return hit.clone();
        }
        self.stats.executed += 1;
        let reply = op();
        self.replies.insert(req_id, reply.clone());
        self.stats.peak_entries = self.stats.peak_entries.max(self.replies.len() as u64);
        reply
    }

    /// [`Self::execute`] preceded by pruning this client's acknowledged
    /// requests: `min_live_seq` is the lowest sequence number the client
    /// still has in flight (piggybacked on the request by
    /// [`RpcClient::call_with_ack`]), so everything older can be forgotten.
    pub fn execute_acked<F>(&mut self, req_id: RequestId, min_live_seq: u64, op: F) -> Vec<u8>
    where
        F: FnOnce() -> Vec<u8>,
    {
        self.prune(req_id.client, min_live_seq);
        self.execute(req_id, op)
    }

    /// Statistics so far.
    pub fn stats(&self) -> ReplayStats {
        self.stats
    }

    /// Number of recorded replies ("nearly stateless": this, plus nothing
    /// else, is what the server remembers about clients).
    pub fn len(&self) -> usize {
        self.replies.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.replies.is_empty()
    }

    /// Forgets requests older than `min_seq` for `client` (the agent tells
    /// the server how far it has advanced, bounding server state).
    pub fn prune(&mut self, client: u64, min_seq: u64) {
        self.replies
            .retain(|id, _| id.client != client || id.seq >= min_seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(drop: f64, dup: f64, seed: u64) -> SimNetwork {
        SimNetwork::new(SimClock::new(), NetConfig::lossy(drop, dup, seed))
    }

    #[test]
    fn reliable_network_delivers_once() {
        let mut n = SimNetwork::new(SimClock::new(), NetConfig::reliable());
        for _ in 0..100 {
            assert_eq!(n.transmit(), Delivery::Delivered { copies: 1 });
        }
        assert_eq!(n.stats().lost, 0);
        assert!(n.clock().now_us() > 0);
    }

    #[test]
    fn lossy_network_loses_and_duplicates() {
        let mut n = net(0.3, 0.3, 42);
        for _ in 0..500 {
            n.transmit();
        }
        let s = n.stats();
        assert!(s.lost > 50, "lost {}", s.lost);
        assert!(s.duplicated > 50, "dup {}", s.duplicated);
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = net(0.2, 0.2, 9);
        let mut b = net(0.2, 0.2, 9);
        for _ in 0..100 {
            assert_eq!(a.transmit(), b.transmit());
        }
    }

    #[test]
    fn rpc_executes_exactly_once_under_faults() {
        for seed in 0..20 {
            let mut n = net(0.3, 0.4, seed);
            let mut client = RpcClient::new(7);
            let mut cache = ReplayCache::new();
            let mut counter = 0u64;
            for i in 0..50u64 {
                let reply = client
                    .call(&mut n, |rid| {
                        cache.execute(rid, || {
                            counter += 1;
                            counter.to_le_bytes().to_vec()
                        })
                    })
                    .expect("attempts exhausted");
                assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), i + 1);
            }
            assert_eq!(counter, 50, "seed {seed}: non-idempotent execution");
            assert!(cache.stats().replayed + cache.stats().executed >= 50);
        }
    }

    #[test]
    fn without_replay_cache_duplicates_corrupt_state() {
        // The baseline of experiment E9: a non-idempotent server.
        let mut n = net(0.3, 0.4, 3);
        let mut client = RpcClient::new(7);
        let mut counter = 0u64;
        for _ in 0..50u64 {
            let _ = client.call(&mut n, |_| {
                counter += 1; // executed once per arriving copy & retry
                counter.to_le_bytes().to_vec()
            });
        }
        assert!(counter > 50, "faults should over-execute the baseline");
    }

    #[test]
    fn exhaustion_reported() {
        let mut n = net(1.0, 0.0, 0); // everything lost
        let mut client = RpcClient::new(1);
        client.max_attempts = 3;
        let err = client.call(&mut n, |_| Vec::new()).unwrap_err();
        assert_eq!(err.attempts, 3);
    }

    #[test]
    fn prune_bounds_server_state() {
        let mut cache = ReplayCache::new();
        for seq in 1..=10 {
            cache.execute(RequestId { client: 1, seq }, Vec::new);
        }
        cache.execute(RequestId { client: 2, seq: 1 }, Vec::new);
        cache.prune(1, 9);
        assert_eq!(cache.len(), 3); // client 1: seqs 9,10; client 2: 1
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    fn net(drop: f64, dup: f64, seed: u64) -> SimNetwork {
        SimNetwork::new(SimClock::new(), NetConfig::lossy(drop, dup, seed))
    }

    #[test]
    fn request_id_display() {
        let id = RequestId { client: 3, seq: 9 };
        assert_eq!(id.to_string(), "req:3:9");
    }

    #[test]
    fn transit_time_accumulates_on_the_shared_clock() {
        let clock = SimClock::new();
        let mut n = SimNetwork::new(clock.clone(), NetConfig::reliable());
        for _ in 0..10 {
            n.transmit();
        }
        assert_eq!(n.stats().transit_us, clock.now_us());
        assert!(clock.now_us() >= 10 * 500);
    }

    #[test]
    fn zero_jitter_network_is_constant_latency() {
        let cfg = NetConfig {
            delay_us: 250,
            jitter_us: 0,
            ..NetConfig::reliable()
        };
        let clock = SimClock::new();
        let mut n = SimNetwork::new(clock.clone(), cfg);
        n.transmit();
        assert_eq!(clock.now_us(), 250);
        n.transmit();
        assert_eq!(clock.now_us(), 500);
    }

    #[test]
    fn replay_cache_is_empty_then_not() {
        let mut c = ReplayCache::new();
        assert!(c.is_empty());
        c.execute(RequestId { client: 1, seq: 1 }, || vec![1]);
        assert!(!c.is_empty());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn retries_back_off_on_the_sim_clock() {
        // Every virtual microsecond is either transit or backoff: the
        // client spends extra time between attempts, and reports it.
        let clock = SimClock::new();
        let mut net = SimNetwork::new(clock.clone(), NetConfig::lossy(0.5, 0.0, 11));
        let mut client = RpcClient::new(4);
        let mut cache = ReplayCache::new();
        for _ in 0..30 {
            client
                .call(&mut net, |rid| cache.execute(rid, Vec::new))
                .unwrap();
        }
        assert!(client.stats().retries > 0, "seed 11 must force retries");
        assert!(client.stats().backoff_us >= client.stats().retries * RETRY_BASE_US / 2);
        assert_eq!(
            clock.now_us(),
            net.stats().transit_us + client.stats().backoff_us,
            "backoff time is charged to the virtual clock"
        );
    }

    #[test]
    fn backoff_delays_grow_exponentially_and_cap() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut prev_nominal = 0;
        for nth in 1..=10u32 {
            let d = retry_delay_us(nth, &mut rng);
            let nominal = (RETRY_BASE_US << (nth - 1)).min(RETRY_CAP_US);
            assert!(d >= nominal / 2 && d <= nominal, "retry {nth}: {d}");
            assert!(nominal >= prev_nominal);
            prev_nominal = nominal;
        }
        // Far past the cap the shift must not overflow.
        assert!(retry_delay_us(60, &mut rng) <= RETRY_CAP_US);
    }

    #[test]
    fn piggybacked_acks_bound_replay_state() {
        let mut n = net(0.3, 0.3, 5);
        let mut client = RpcClient::new(9);
        client.max_attempts = 64;
        let mut cache = ReplayCache::new();
        let mut counter = 0u64;
        for _ in 0..1_000u64 {
            client
                .call_with_ack(&mut n, |rid, ack| {
                    cache.execute_acked(rid, ack, || {
                        counter += 1;
                        counter.to_le_bytes().to_vec()
                    })
                })
                .expect("attempts exhausted");
            // One synchronous call in flight → at most its own entry
            // survives each prune.
            assert!(cache.len() <= 1, "cache grew to {}", cache.len());
        }
        assert_eq!(counter, 1_000, "still exactly-once under pruning");
        assert!(cache.stats().peak_entries <= 1);
        assert!(cache.stats().replayed > 0, "seed 5 must duplicate");
    }

    #[test]
    fn one_way_lossy_lane_drops_only_replies() {
        // reply_drop_prob = 1.0, drop_prob = 0.0: every request arrives
        // and executes, every reply is lost. The call exhausts its
        // attempts, but the replay cache holds exactly one entry — each
        // retry replays the same logical request id.
        let mut n = SimNetwork::new(SimClock::new(), NetConfig::reply_lossy(1.0, 11));
        let mut client = RpcClient::new(3);
        client.max_attempts = 8;
        let mut cache = ReplayCache::new();
        let mut executed = 0u32;
        let err = client
            .call_with_ack(&mut n, |rid, ack| {
                cache.execute_acked(rid, ack, || {
                    executed += 1;
                    vec![7]
                })
            })
            .unwrap_err();
        assert_eq!(err.attempts, 8);
        assert_eq!(executed, 1, "retries of one call replay, not re-execute");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().replayed, 7);
        // Symmetric configs are untouched: reply_lossy drops no requests.
        assert_eq!(n.stats().lost, 8, "only the 8 reply legs were lost");
    }

    #[test]
    fn duplicate_arrivals_within_one_call_are_suppressed() {
        // duplicate_prob = 1.0: every delivery arrives twice; the replay
        // cache must still execute once per logical call.
        let mut n = SimNetwork::new(SimClock::new(), NetConfig::lossy(0.0, 1.0, 4));
        let mut client = RpcClient::new(2);
        let mut cache = ReplayCache::new();
        let mut count = 0u32;
        for _ in 0..20 {
            client
                .call(&mut n, |rid| {
                    cache.execute(rid, || {
                        count += 1;
                        vec![]
                    })
                })
                .unwrap();
        }
        assert_eq!(count, 20);
        assert_eq!(cache.stats().replayed, 20, "each duplicate replayed");
    }
}
