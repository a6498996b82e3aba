//! The file agent: the client side of the basic file service (§3, §5).
//!
//! The agent resolves attributed names to system names through the naming
//! service, returns object descriptors above 100 000, keeps the seek
//! pointer for `read`/`write`/`lseek` (positional `pread`/`pwrite` bypass
//! it), and "caches a substantial amount of file data to avoid trying to
//! access the file service for each request from a client", using the
//! delayed-write policy the paper prescribes for agent caches.

use crate::descriptor::{ObjectDescriptor, FILE_OD_BASE};
use crate::lease_station::{LeaseConfig, Station, StationEndpoint};
use parking_lot::Mutex;
use rhodos_buf::BlockBuf;
use rhodos_disk_service::BLOCK_SIZE;
use rhodos_file_service::{
    BlockKey, CacheStats, FileAttributes, FileId, FileServiceError, LeaseMode, ServiceType,
};
use rhodos_naming::{AttributedName, NamingError, NamingService, SystemName};
use rhodos_net::{NetConfig, NetStats, SimNetwork};
use rhodos_txn::TxnError;
use std::collections::HashMap;
use std::sync::Arc;

pub use rhodos_cluster::ServerHandle;

/// Errors surfaced by the agents.
#[derive(Debug)]
#[non_exhaustive]
pub enum AgentError {
    /// The descriptor is not open at this agent.
    BadDescriptor(ObjectDescriptor),
    /// Name resolution failed.
    Naming(NamingError),
    /// The name resolved to something other than a file.
    NotAFile(SystemName),
    /// Server-side file-service failure.
    File(FileServiceError),
    /// Server-side transaction-service failure.
    Txn(TxnError),
}

impl std::fmt::Display for AgentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgentError::BadDescriptor(od) => write!(f, "descriptor {od} is not open"),
            AgentError::Naming(e) => write!(f, "naming failure: {e}"),
            AgentError::NotAFile(s) => write!(f, "{s} is not a file"),
            AgentError::File(e) => write!(f, "file service failure: {e}"),
            AgentError::Txn(e) => write!(f, "transaction failure: {e}"),
        }
    }
}

impl std::error::Error for AgentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AgentError::Naming(e) => Some(e),
            AgentError::File(e) => Some(e),
            AgentError::Txn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NamingError> for AgentError {
    fn from(e: NamingError) -> Self {
        AgentError::Naming(e)
    }
}

impl From<FileServiceError> for AgentError {
    fn from(e: FileServiceError) -> Self {
        AgentError::File(e)
    }
}

impl From<TxnError> for AgentError {
    fn from(e: TxnError) -> Self {
        AgentError::Txn(e)
    }
}

/// Client-side statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct AgentStats {
    /// Client block-cache behaviour.
    pub cache: CacheStats,
    /// RPCs issued to servers: one per request/reply *exchange*, however
    /// many blocks it carries — a `pread`'s misses, a `pwrite`'s
    /// evictions and a `flush`'s dirty set each ride one per file. Lease
    /// acquire/renew traffic is included.
    pub rpcs_sent: u64,
    /// Block reads served from the lease-protected client cache with no
    /// exchange at all — counted per block, so it is not in the unit of
    /// `rpcs_sent`. Zero under [`LeaseConfig::Never`], which caches
    /// nothing.
    pub rpcs_avoided_by_lease: u64,
    /// Recall requests this agent's stations answered.
    pub recalls: u64,
    /// Lease renewals issued.
    pub lease_renewals: u64,
}

/// One descriptor: where its file lives and its seek pointer. What the
/// agent knows of the file itself — its size, cached blocks and lease —
/// is one record in the server's [`Station`], shared by every descriptor
/// of the file.
#[derive(Debug, Clone, Copy)]
struct OpenFile {
    /// Index of the file server holding the file (attributed names
    /// resolve to `SystemName::File { server, fid }` — "these services can
    /// either co-exist on the same machine or be located separately").
    server: usize,
    fid: FileId,
    pos: u64,
}

/// The per-machine file agent.
#[derive(Debug)]
pub struct FileAgent {
    machine: u32,
    /// All reachable file servers; descriptor state routes each operation
    /// to the right one.
    servers: Vec<ServerHandle>,
    naming: Arc<Mutex<NamingService>>,
    net: SimNetwork,
    open: HashMap<ObjectDescriptor, OpenFile>,
    next_od: ObjectDescriptor,
    rpcs_sent: u64,
    /// Server that receives `create` calls (round-robin).
    next_create: usize,
    /// Cache-coherence policy.
    lease_config: LeaseConfig,
    /// One station per server (file ids are per-server): the client
    /// block cache and the leases protecting it, shared with the server's
    /// recall endpoint.
    stations: Vec<Arc<Mutex<Station>>>,
    /// Lane behaviour of the recall endpoints.
    station_net: NetConfig,
    /// Reads served from the lease-protected cache without an RPC.
    rpcs_avoided: u64,
    /// Lease renewals issued.
    lease_renewals: u64,
}

impl FileAgent {
    /// Creates the agent for `machine` talking to a single server, with a
    /// client cache of `cache_blocks` blocks.
    pub fn new(
        machine: u32,
        server: ServerHandle,
        naming: Arc<Mutex<NamingService>>,
        net: SimNetwork,
        cache_blocks: usize,
    ) -> Self {
        Self::with_servers(machine, vec![server], naming, net, cache_blocks)
    }

    /// Creates the agent for `machine` talking to several file servers,
    /// under the default [`LeaseConfig::Auto`] policy: its cache is
    /// protected by leases, so it stays coherent with every other agent
    /// of the same servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty.
    pub fn with_servers(
        machine: u32,
        servers: Vec<ServerHandle>,
        naming: Arc<Mutex<NamingService>>,
        net: SimNetwork,
        cache_blocks: usize,
    ) -> Self {
        Self::with_lease_config(
            machine,
            servers,
            naming,
            net,
            cache_blocks,
            LeaseConfig::default(),
            NetConfig::reliable(),
        )
    }

    /// Creates the agent with an explicit cache-coherence policy.
    ///
    /// Every server gets a *station* holding the client block cache for
    /// its files and the leases that protect it, and a recall endpoint
    /// over its own `station_net` lane is registered with the server so
    /// it can call delegations back. Under [`LeaseConfig::Never`] nothing
    /// is cached (every read is an RPC, every write is pushed
    /// write-through) — the coherent leaseless ablation.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty.
    pub fn with_lease_config(
        machine: u32,
        servers: Vec<ServerHandle>,
        naming: Arc<Mutex<NamingService>>,
        net: SimNetwork,
        cache_blocks: usize,
        lease_config: LeaseConfig,
        station_net: NetConfig,
    ) -> Self {
        assert!(!servers.is_empty(), "agent needs at least one file server");
        let mut agent = Self {
            machine,
            servers: Vec::new(),
            naming,
            net,
            open: HashMap::new(),
            next_od: FILE_OD_BASE,
            rpcs_sent: 0,
            next_create: 0,
            lease_config,
            stations: Vec::new(),
            station_net,
            rpcs_avoided: 0,
            lease_renewals: 0,
        };
        for server in servers {
            agent.add_server_handle(server, cache_blocks.max(1));
        }
        agent
    }

    /// The cache-coherence policy in force.
    pub fn lease_config(&self) -> LeaseConfig {
        self.lease_config
    }

    /// The agent's request-lane network counters.
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    /// Partition hook: an unresponsive agent's stations ignore recalls,
    /// forcing servers down the timeout-and-fence path.
    pub fn set_responsive(&mut self, responsive: bool) {
        for st in &self.stations {
            st.lock().responsive = responsive;
        }
    }

    /// Number of live (unexpired) leases held across all servers.
    pub fn held_leases(&self) -> usize {
        let now = self.net.clock().now_us();
        self.stations
            .iter()
            .map(|st| {
                st.lock()
                    .leases
                    .values()
                    .filter(|l| l.covers(LeaseMode::Read, now))
                    .count()
            })
            .sum()
    }

    /// Number of file servers this agent can reach.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// This agent's machine number.
    pub fn machine(&self) -> u32 {
        self.machine
    }

    /// Statistics so far (cache counters merged over all stations).
    pub fn stats(&self) -> AgentStats {
        let mut cache = CacheStats::default();
        let mut recalls = 0;
        for st in &self.stations {
            let st = st.lock();
            cache.merge(&st.cache.stats());
            recalls += st.stats.recalls_served;
        }
        AgentStats {
            cache,
            rpcs_sent: self.rpcs_sent,
            rpcs_avoided_by_lease: self.rpcs_avoided,
            recalls,
            lease_renewals: self.lease_renewals,
        }
    }

    /// One request/reply exchange with the server (latency accounting).
    fn round_trip(&mut self) {
        let _ = self.net.transmit();
        let _ = self.net.transmit();
        self.rpcs_sent += 1;
    }

    fn resolve_file(&mut self, name: &AttributedName) -> Result<(usize, FileId), AgentError> {
        self.round_trip(); // naming service visit
        let target = self.naming.lock().resolve(name)?;
        match target {
            SystemName::File { server, fid } => Ok((server as usize, FileId(fid))),
            other => Err(AgentError::NotAFile(other)),
        }
    }

    fn entry(&self, od: ObjectDescriptor) -> Result<OpenFile, AgentError> {
        self.open
            .get(&od)
            .copied()
            .ok_or(AgentError::BadDescriptor(od))
    }

    /// `create`: makes a file on the server and registers its attributed
    /// name. Returns the system name.
    ///
    /// # Errors
    ///
    /// Naming conflicts or server failures.
    pub fn create(&mut self, name: &AttributedName) -> Result<FileId, AgentError> {
        let server = self.next_create % self.servers.len();
        self.next_create += 1;
        self.create_on(server, name)
    }

    /// `create` on a specific file server.
    ///
    /// # Errors
    ///
    /// Naming conflicts or server failures.
    pub fn create_on(
        &mut self,
        server: usize,
        name: &AttributedName,
    ) -> Result<FileId, AgentError> {
        self.round_trip();
        let fid = self.servers[server]
            .lock()
            .file_service_mut()
            .create(ServiceType::Basic)?;
        self.naming
            .lock()
            .register(name.clone(), SystemName::file(server as u32, fid.0))?;
        Ok(fid)
    }

    /// `open` by attributed name: resolves, opens at the server and
    /// returns an object descriptor (> 100 000).
    ///
    /// # Errors
    ///
    /// Resolution or server failures.
    pub fn open(&mut self, name: &AttributedName) -> Result<ObjectDescriptor, AgentError> {
        let (server, fid) = self.resolve_file(name)?;
        self.open_at(server, fid)
    }

    /// `open` by system name on the first server (single-server setups).
    ///
    /// # Errors
    ///
    /// Server failures.
    pub fn open_fid(&mut self, fid: FileId) -> Result<ObjectDescriptor, AgentError> {
        self.open_at(0, fid)
    }

    /// `open` by (server, system name).
    ///
    /// # Errors
    ///
    /// Server failures.
    pub fn open_at(&mut self, server: usize, fid: FileId) -> Result<ObjectDescriptor, AgentError> {
        self.round_trip();
        let size = {
            let mut guard = self.servers[server].lock();
            let fs = guard.file_service_mut();
            fs.open(fid)?;
            fs.get_attribute(fid)?.size
        };
        // A descriptor already open here may have buffered writes past
        // the server's size; the file keeps the larger of the two.
        self.stations[server].lock().grow(fid, size);
        let od = self.next_od;
        self.next_od += 1;
        self.open.insert(
            od,
            OpenFile {
                server,
                fid,
                pos: 0,
            },
        );
        Ok(od)
    }

    /// Registers one more reachable file server: its station, and the
    /// recall endpoint the server calls it on.
    fn add_server_handle(&mut self, server: ServerHandle, cache_blocks: usize) {
        let i = self.servers.len();
        let clock = self.net.clock();
        let station = Arc::new(Mutex::new(Station::new(self.machine as u64, cache_blocks)));
        // Decorrelate each station's recall lane from the agent's request
        // lane and from other stations.
        let cfg = NetConfig {
            seed: self
                .station_net
                .seed
                .wrapping_add(self.machine as u64 * 104_729)
                .wrapping_add(i as u64 * 7919),
            ..self.station_net
        };
        let endpoint = StationEndpoint::new(station.clone(), SimNetwork::new(clock, cfg));
        server
            .lock()
            .file_service_mut()
            .lease_manager_mut()
            .attach(Box::new(endpoint));
        self.stations.push(station);
        self.servers.push(server);
    }

    /// `lseek`: moves the seek pointer. `whence` follows the classical
    /// 0/1/2 (set/cur/end) convention; returns the new position.
    ///
    /// # Errors
    ///
    /// [`AgentError::BadDescriptor`].
    pub fn lseek(
        &mut self,
        od: ObjectDescriptor,
        offset: i64,
        whence: u8,
    ) -> Result<u64, AgentError> {
        let OpenFile { server, fid, pos } = self.entry(od)?;
        let base = match whence {
            0 => 0i64,
            1 => pos as i64,
            _ => self.stations[server].lock().size(fid) as i64,
        };
        let pos = (base + offset).max(0) as u64;
        self.open.get_mut(&od).expect("checked").pos = pos;
        Ok(pos)
    }

    /// `read`: reads from the seek pointer and advances it.
    ///
    /// # Errors
    ///
    /// [`AgentError::BadDescriptor`]; server failures.
    pub fn read(&mut self, od: ObjectDescriptor, len: usize) -> Result<Vec<u8>, AgentError> {
        let pos = self.entry(od)?.pos;
        let data = self.pread(od, pos, len)?;
        self.open.get_mut(&od).expect("checked").pos += data.len() as u64;
        Ok(data)
    }

    /// `pread`: positional read through the client block cache.
    ///
    /// # Errors
    ///
    /// [`AgentError::BadDescriptor`]; server failures.
    pub fn pread(
        &mut self,
        od: ObjectDescriptor,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, AgentError> {
        match self.lease_config {
            LeaseConfig::Never => self.pread_never(od, offset, len),
            LeaseConfig::Auto => self.pread_cached(od, offset, len),
        }
    }

    /// The leaseless coherent ablation: the whole span is one server
    /// RPC; nothing is cached, so nothing can go stale.
    fn pread_never(
        &mut self,
        od: ObjectDescriptor,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, AgentError> {
        let OpenFile { server, fid, .. } = self.entry(od)?;
        self.round_trip();
        match self.servers[server]
            .lock()
            .file_service_mut()
            .read(fid, offset, len)
        {
            Ok(data) => Ok(data),
            Err(FileServiceError::BeyondEof { .. }) => Ok(Vec::new()),
            Err(e) => Err(e.into()),
        }
    }

    /// Cached read. Blocks resident in the station cache are served with
    /// **no RPC at all** while a live lease protects them — and
    /// [`Self::ensure_lease`] has just made sure one does; all the misses
    /// of the span are fetched as
    /// whole blocks in **one exchange** and populate the cache. A hit is
    /// a shared handle: the only memcpy on this path is into the caller's
    /// result buffer.
    fn pread_cached(
        &mut self,
        od: ObjectDescriptor,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, AgentError> {
        self.ensure_lease(od, LeaseMode::Read)?;
        let OpenFile { server, fid, .. } = self.entry(od)?;
        let now = self.net.clock().now_us();
        let mut st = self.stations[server].lock();
        let len = len.min(st.size(fid).saturating_sub(offset) as usize);
        if len == 0 {
            return Ok(Vec::new());
        }
        let bs = BLOCK_SIZE as u64;
        let first = offset / bs;
        let last = (offset + len as u64 - 1) / bs;
        let mut out = Vec::with_capacity(len);
        let mut copy_out = |idx: u64, block: Option<&BlockBuf>| {
            let block_start = idx * bs;
            let lo = (offset.max(block_start) - block_start) as usize;
            let hi = ((offset + len as u64).min(block_start + bs) - block_start) as usize;
            match block {
                Some(block) => out.extend_from_slice(&block[lo..hi]),
                // A hole reads as zeros.
                None => out.resize(out.len() + hi - lo, 0),
            }
        };
        // One pass for the hits, under the lock the size was read under.
        // Leading hits go straight to the result; from the first miss on,
        // blocks wait in `rest` (`None` = miss), so an all-hit read
        // allocates nothing but its result.
        let mut rest: Vec<Option<BlockBuf>> = Vec::new();
        let authorized = st.authorized(fid, LeaseMode::Read, now);
        for idx in first..=last {
            let cached = if authorized {
                st.cache.get(&(fid, idx))
            } else {
                None
            };
            self.rpcs_avoided += u64::from(cached.is_some());
            match cached {
                Some(block) if rest.is_empty() => copy_out(idx, Some(&block)),
                cached => rest.push(cached),
            }
        }
        drop(st);
        if rest.is_empty() {
            return Ok(out);
        }
        // Every maximal run of misses is one window of the one exchange.
        // A server-cache hit shares the server's allocation all the way
        // here. The station's size counts buffered, unpushed writes, so a
        // window may reach past the blocks the server has: it answers with
        // those that exist and the rest is a hole.
        let rest_first = last + 1 - rest.len() as u64;
        let mut fetched: Vec<(u64, BlockBuf)> = Vec::new();
        self.round_trip();
        {
            let mut srv = self.servers[server].lock();
            let fs = srv.file_service_mut();
            let mut lo = rest_first;
            for group in rest.chunk_by(|a, b| a.is_none() == b.is_none()) {
                let next = lo + group.len() as u64;
                if group[0].is_none() {
                    fetched.extend((lo..).zip(fs.read_blocks(fid, lo, next - 1)?));
                }
                lo = next;
            }
        }
        // A resident — possibly dirty — block is never overwritten.
        let mut evicted = Vec::new();
        {
            let mut st = self.stations[server].lock();
            for (idx, block) in fetched {
                if !st.cache.contains(&(fid, idx)) {
                    evicted.extend(st.cache.insert((fid, idx), block.clone(), false));
                }
                rest[(idx - rest_first) as usize] = Some(block);
            }
        }
        for (idx, block) in (rest_first..).zip(&rest) {
            copy_out(idx, block.as_ref());
        }
        // Delayed writes evicted from the client cache are pushed to the
        // server.
        self.push_blocks(server, evicted)?;
        Ok(out)
    }

    /// `write`: writes at the seek pointer and advances it.
    ///
    /// # Errors
    ///
    /// [`AgentError::BadDescriptor`]; server failures.
    pub fn write(&mut self, od: ObjectDescriptor, data: &[u8]) -> Result<(), AgentError> {
        let pos = self.entry(od)?.pos;
        self.pwrite(od, pos, data)?;
        self.open.get_mut(&od).expect("checked").pos = pos + data.len() as u64;
        Ok(())
    }

    /// `pwrite`: positional write, buffered in the client cache
    /// (delayed-write); data reaches the server on flush, close or cache
    /// eviction.
    ///
    /// # Errors
    ///
    /// [`AgentError::BadDescriptor`]; server failures on eviction pushes.
    pub fn pwrite(
        &mut self,
        od: ObjectDescriptor,
        offset: u64,
        data: &[u8],
    ) -> Result<(), AgentError> {
        if data.is_empty() {
            return Ok(());
        }
        match self.lease_config {
            LeaseConfig::Never => self.pwrite_never(od, offset, data),
            LeaseConfig::Auto => self.pwrite_cached(od, offset, data),
        }
    }

    /// Write-through ablation: every write is pushed to the server
    /// immediately; nothing stays buffered client-side.
    fn pwrite_never(
        &mut self,
        od: ObjectDescriptor,
        offset: u64,
        data: &[u8],
    ) -> Result<(), AgentError> {
        let OpenFile { server, fid, .. } = self.entry(od)?;
        self.round_trip();
        self.servers[server]
            .lock()
            .file_service_mut()
            .write(fid, offset, data)?;
        self.stations[server]
            .lock()
            .grow(fid, offset + data.len() as u64);
        Ok(())
    }

    /// Delayed write: buffered dirty in the station cache beneath an
    /// exclusive write lease; data reaches the server on flush, close,
    /// eviction — or when the server recalls the delegation. The caller's
    /// bytes are copied once; full blocks enter the cache as views of that
    /// one copy.
    fn pwrite_cached(
        &mut self,
        od: ObjectDescriptor,
        offset: u64,
        data: &[u8],
    ) -> Result<(), AgentError> {
        self.ensure_lease(od, LeaseMode::Write)?;
        let OpenFile { server, fid, .. } = self.entry(od)?;
        let end = offset + data.len() as u64;
        let bs = BLOCK_SIZE as u64;
        let first = offset / bs;
        let last = (end - 1) / bs;
        // The wholly written blocks; what is left of `first..=last` is a
        // partly written head and/or tail.
        let full = offset.div_ceil(bs)..end / bs;
        // The old contents of the partly written blocks are settled before
        // anything is inserted — resident handle, else one exchange for the
        // read-modify-write fetches, else zeros — so no fetch can race an
        // eviction this write causes. Under the same lock the file's size
        // rises before the blocks go in: a write larger than the cache
        // evicts its own early blocks, and `push_blocks` trims what it
        // pushes to that size. (`size` is the pre-write one — no block at
        // or past it can exist at the server.)
        let mut edges: [Option<(u64, Option<BlockBuf>)>; 2] = [None, None];
        let size = {
            let mut st = self.stations[server].lock();
            for (slot, idx) in [first, last].into_iter().enumerate() {
                if !full.contains(&idx) && (slot == 0 || last > first) {
                    edges[slot] = Some((idx, st.cache.get(&(fid, idx))));
                }
            }
            st.grow(fid, end)
        };
        // (`size` counts buffered writes through every descriptor of the
        // file, so a block below it may still be a hole at the server:
        // that fetch comes back empty and the block starts as zeros. The
        // exclusive delegation means the server copy cannot move under
        // us.)
        let missing = |e: &(u64, Option<BlockBuf>)| e.1.is_none() && e.0 * bs < size;
        if edges.iter().flatten().any(missing) {
            self.round_trip();
            let mut srv = self.servers[server].lock();
            for e in edges.iter_mut().flatten().filter(|e| missing(e)) {
                e.1 = srv.file_service_mut().read_blocks(fid, e.0, e.0)?.pop();
            }
        }
        // The caller's bytes are copied once: the whole blocks into one
        // buffer the cache holds views of, the edges into their blocks.
        let body = (!full.is_empty()).then(|| {
            BlockBuf::from(
                &data[(full.start * bs - offset) as usize..(full.end * bs - offset) as usize],
            )
        });
        let mut evicted = Vec::new();
        {
            let mut st = self.stations[server].lock();
            for idx in first..=last {
                let block_start = idx * bs;
                let block = if full.contains(&idx) {
                    let at = (block_start - full.start * bs) as usize;
                    body.as_ref()
                        .expect("has whole blocks")
                        .slice(at..at + BLOCK_SIZE)
                } else {
                    let lo = offset.max(block_start);
                    let hi = end.min(block_start + bs);
                    let base = edges.iter_mut().flatten().find(|e| e.0 == idx);
                    let mut block = base
                        .and_then(|e| e.1.take())
                        .unwrap_or_else(|| BlockBuf::zeroed(BLOCK_SIZE));
                    // Copy-on-write: detaches from the cached allocation
                    // only if the block is resident/shared.
                    block.make_mut()[(lo - block_start) as usize..(hi - block_start) as usize]
                        .copy_from_slice(&data[(lo - offset) as usize..(hi - offset) as usize]);
                    block
                };
                evicted.extend(st.cache.insert((fid, idx), block, true));
            }
        }
        self.push_blocks(server, evicted)
    }

    /// Ensures this station holds a live lease of at least `want` on the
    /// descriptor's file: the station decides ([`Station::lease_step`],
    /// [`Station::renewed`], [`Station::authorized`]), the agent makes the
    /// server calls.
    fn ensure_lease(&mut self, od: ObjectDescriptor, want: LeaseMode) -> Result<(), AgentError> {
        let OpenFile { server, fid, .. } = self.entry(od)?;
        let now = self.net.clock().now_us();
        let Some(renew) = self.stations[server].lock().lease_step(fid, want, now) else {
            return Ok(());
        };
        if let Some(token) = renew {
            self.round_trip();
            let reply = self.servers[server]
                .lock()
                .file_service_mut()
                .lease_renew(&token);
            let mut st = self.stations[server].lock();
            if st.renewed(fid, reply)? {
                self.lease_renewals += 1;
                if st.authorized(fid, want, now) {
                    return Ok(());
                }
            }
        }
        self.round_trip();
        let (grant, size) =
            self.servers[server]
                .lock()
                .lease_acquire(self.machine as u64, fid, want)?;
        let now = self.net.clock().now_us();
        let mut st = self.stations[server].lock();
        st.hold(&grant, now);
        st.sizes.insert(fid, size);
        Ok(())
    }

    /// Pushes dirty blocks to the server: **one exchange per file**
    /// carrying all of that file's blocks, each trimmed to the file's
    /// logical size so a partial tail block does not inflate the file —
    /// through the write-lease gate (the token is validated once per
    /// exchange). The pushed views share the client cache's allocations —
    /// the server adopts them without a copy. The versions of a block
    /// evicted twice travel in eviction order, so the last one wins.
    ///
    /// Every file's exchange is attempted; the first error is returned.
    /// What a failed exchange leaves is the station's call
    /// ([`Station::unpushed`]): a fence drops the file's buffered writes,
    /// any other failure leaves them dirty for a retried `flush`.
    fn push_blocks(
        &mut self,
        server: usize,
        mut blocks: Vec<(BlockKey, BlockBuf)>,
    ) -> Result<(), AgentError> {
        blocks.sort_by_key(|&(k, _)| k);
        let mut first_err = None;
        for file in blocks.chunk_by(|a, b| a.0 .0 == b.0 .0) {
            let fid = file[0].0 .0;
            let push = {
                let st = self.stations[server].lock();
                st.push(fid).map(|token| (token, st.trim(fid, file)))
            };
            let pushed = push.and_then(|(token, runs)| {
                if runs.is_empty() {
                    return Ok(());
                }
                self.round_trip();
                self.servers[server]
                    .lock()
                    .file_service_mut()
                    .write_vectored(fid, Some(&token), &runs)
            });
            if let Err(e) = pushed {
                self.stations[server].lock().unpushed(fid, file, &e);
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), |e| Err(e.into()))
    }

    /// Re-tells rebooted server `server` what the nearly-stateless
    /// server forgot of this agent, so it can serve it again: reopens
    /// every descriptor open on it (open counts are volatile server
    /// state) and re-presents every lease held on it, a lapsed one too,
    /// so the server can reconstruct its grant table; the station keeps
    /// or drops each claim ([`Station::reattached`]). Returns how many
    /// leases were reattached.
    ///
    /// # Errors
    ///
    /// Server failures other than a rejected claim.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn reattach_leases(&mut self, server: usize) -> Result<usize, AgentError> {
        let fids: Vec<FileId> = self
            .open
            .values()
            .filter(|e| e.server == server)
            .map(|e| e.fid)
            .collect();
        for fid in fids {
            self.round_trip();
            self.servers[server].lock().file_service_mut().open(fid)?;
        }
        let mut reattached = 0;
        let claims = self.stations[server].lock().reattach_claims();
        for lease in claims {
            self.round_trip();
            let claim = self.servers[server]
                .lock()
                .file_service_mut()
                .lease_reattach(&lease.token, lease.mode);
            let now = self.net.clock().now_us();
            let mut st = self.stations[server].lock();
            reattached += usize::from(st.reattached(lease.token.fid, claim, now)?);
        }
        Ok(reattached)
    }

    /// Flushes this descriptor's delayed writes to the server, in one
    /// exchange.
    ///
    /// # Errors
    ///
    /// [`AgentError::BadDescriptor`]; server failures. After a failure
    /// other than a fence the blocks are still dirty: flush again once
    /// the server is back.
    pub fn flush(&mut self, od: ObjectDescriptor) -> Result<(), AgentError> {
        let OpenFile { server, fid, .. } = self.entry(od)?;
        // (Write-through, `LeaseConfig::Never`, never buffers anything.)
        let dirty = self.stations[server].lock().cache.take_dirty_for(fid);
        self.push_blocks(server, dirty)
    }

    /// `close`: flushes and closes at the server. Closing the agent's
    /// last descriptor of the file also drops the station's record of it
    /// — size, cached blocks and lease, released on the same exchange.
    ///
    /// # Errors
    ///
    /// [`AgentError::BadDescriptor`]; server failures.
    pub fn close(&mut self, od: ObjectDescriptor) -> Result<(), AgentError> {
        self.flush(od)?;
        let OpenFile { server, fid, .. } = self.entry(od)?;
        let last = !self
            .open
            .iter()
            .any(|(&o, e)| o != od && e.server == server && e.fid == fid);
        let held = if last {
            let mut st = self.stations[server].lock();
            st.sizes.remove(&fid);
            st.cache.invalidate_file(fid);
            st.leases.remove(&fid)
        } else {
            None
        };
        self.round_trip();
        {
            let mut srv = self.servers[server].lock();
            let fs = srv.file_service_mut();
            fs.close(fid)?;
            // The release piggybacks on the close round trip.
            if let Some(lease) = held {
                fs.lease_manager_mut().release(&lease.token);
            }
        }
        self.open.remove(&od);
        Ok(())
    }

    /// `delete` by attributed name: unregisters and deletes.
    ///
    /// # Errors
    ///
    /// Resolution or server failures.
    pub fn delete(&mut self, name: &AttributedName) -> Result<(), AgentError> {
        let (server, fid) = self.resolve_file(name)?;
        self.round_trip();
        self.servers[server].lock().file_service_mut().delete(fid)?;
        self.naming.lock().unregister(name)?;
        Ok(())
    }

    /// `get-attribute` for an open descriptor.
    ///
    /// # Errors
    ///
    /// [`AgentError::BadDescriptor`]; server failures.
    pub fn get_attribute(&mut self, od: ObjectDescriptor) -> Result<FileAttributes, AgentError> {
        let OpenFile { server, fid, .. } = self.entry(od)?;
        self.round_trip();
        Ok(self.servers[server]
            .lock()
            .file_service_mut()
            .get_attribute(fid)?)
    }

    /// The system name behind an open descriptor.
    pub fn fid_of(&self, od: ObjectDescriptor) -> Option<FileId> {
        self.open.get(&od).map(|e| e.fid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhodos_file_service::{FileService, FileServiceConfig};
    use rhodos_net::NetConfig;
    use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
    use rhodos_txn::{TransactionService, TxnConfig};

    fn agent() -> FileAgent {
        let clock = SimClock::new();
        let fs = FileService::single_disk(
            DiskGeometry::medium(),
            LatencyModel::default(),
            clock.clone(),
            FileServiceConfig::default(),
        )
        .unwrap();
        let ts = TransactionService::new(fs, TxnConfig::default()).unwrap();
        FileAgent::new(
            0,
            Arc::new(Mutex::new(ts)),
            Arc::new(Mutex::new(NamingService::new())),
            SimNetwork::new(clock, NetConfig::reliable()),
            64,
        )
    }

    fn name(s: &str) -> AttributedName {
        AttributedName::parse(s).unwrap()
    }

    #[test]
    fn create_open_write_read_close() {
        let mut a = agent();
        a.create(&name("name=doc")).unwrap();
        let od = a.open(&name("name=doc")).unwrap();
        assert!(od > 100_000);
        a.write(od, b"hello ").unwrap();
        a.write(od, b"agent").unwrap();
        a.lseek(od, 0, 0).unwrap();
        assert_eq!(a.read(od, 11).unwrap(), b"hello agent");
        a.close(od).unwrap();
    }

    #[test]
    fn lseek_whence_semantics() {
        let mut a = agent();
        a.create(&name("name=f")).unwrap();
        let od = a.open(&name("name=f")).unwrap();
        a.write(od, b"0123456789").unwrap();
        assert_eq!(a.lseek(od, 2, 0).unwrap(), 2); // set
        assert_eq!(a.read(od, 3).unwrap(), b"234");
        assert_eq!(a.lseek(od, 1, 1).unwrap(), 6); // cur
        assert_eq!(a.read(od, 2).unwrap(), b"67");
        assert_eq!(a.lseek(od, -2, 2).unwrap(), 8); // end
        assert_eq!(a.read(od, 10).unwrap(), b"89");
    }

    #[test]
    fn client_cache_avoids_server_visits() {
        let mut a = agent();
        a.create(&name("name=cached")).unwrap();
        let od = a.open(&name("name=cached")).unwrap();
        a.write(od, &vec![7u8; 4 * BLOCK_SIZE]).unwrap();
        a.flush(od).unwrap();
        let _ = a.pread(od, 0, 4 * BLOCK_SIZE).unwrap(); // populate
        let trips_before = a.stats().rpcs_sent;
        for _ in 0..10 {
            let _ = a.pread(od, 0, 4 * BLOCK_SIZE).unwrap();
        }
        assert_eq!(a.stats().rpcs_sent, trips_before, "all from client cache");
        assert!(a.stats().cache.hits >= 40);
    }

    #[test]
    fn delayed_write_reaches_server_on_close() {
        let mut a = agent();
        let fid = a.create(&name("name=dw")).unwrap();
        let od = a.open(&name("name=dw")).unwrap();
        a.write(od, b"buffered").unwrap();
        // Not yet at the server (delayed write).
        {
            let mut server = a.servers[0].lock();
            let fs = server.file_service_mut();
            assert_eq!(fs.get_attribute(fid).unwrap().size, 0);
        }
        a.close(od).unwrap();
        let mut server = a.servers[0].lock();
        let fs = server.file_service_mut();
        fs.open(fid).unwrap();
        assert_eq!(fs.read(fid, 0, 8).unwrap(), b"buffered");
        fs.close(fid).unwrap();
    }

    #[test]
    fn delete_unregisters_name() {
        let mut a = agent();
        a.create(&name("name=gone")).unwrap();
        a.delete(&name("name=gone")).unwrap();
        assert!(matches!(
            a.open(&name("name=gone")),
            Err(AgentError::Naming(NamingError::NotFound(_)))
        ));
    }

    #[test]
    fn bad_descriptor_rejected() {
        let mut a = agent();
        assert!(matches!(
            a.read(999_999, 1),
            Err(AgentError::BadDescriptor(_))
        ));
        assert!(matches!(
            a.lseek(5, 0, 0),
            Err(AgentError::BadDescriptor(_))
        ));
    }

    fn lease_pair(
        config_a: LeaseConfig,
        config_b: LeaseConfig,
    ) -> (FileAgent, FileAgent, ServerHandle) {
        lease_pair_with_cache(64, config_a, config_b)
    }

    fn lease_pair_with_cache(
        cache_blocks: usize,
        config_a: LeaseConfig,
        config_b: LeaseConfig,
    ) -> (FileAgent, FileAgent, ServerHandle) {
        lease_pair_on(
            FileServiceConfig::default(),
            cache_blocks,
            config_a,
            config_b,
        )
    }

    fn lease_pair_on(
        server_config: FileServiceConfig,
        cache_blocks: usize,
        config_a: LeaseConfig,
        config_b: LeaseConfig,
    ) -> (FileAgent, FileAgent, ServerHandle) {
        let clock = SimClock::new();
        let fs = FileService::single_disk(
            DiskGeometry::medium(),
            LatencyModel::default(),
            clock.clone(),
            server_config,
        )
        .unwrap();
        let ts = TransactionService::new(fs, TxnConfig::default()).unwrap();
        let server: ServerHandle = Arc::new(Mutex::new(ts));
        let naming = Arc::new(Mutex::new(NamingService::new()));
        let mk = |machine: u32, cfg: LeaseConfig| {
            FileAgent::with_lease_config(
                machine,
                vec![server.clone()],
                naming.clone(),
                SimNetwork::new(clock.clone(), NetConfig::reliable()),
                cache_blocks,
                cfg,
                NetConfig::reliable(),
            )
        };
        (mk(1, config_a), mk(2, config_b), server)
    }

    /// One `pwrite` larger than the client cache evicts its own early
    /// blocks mid-loop; they must reach the server whole, not trimmed
    /// against the pre-write size (zero bytes for a new file).
    #[test]
    fn pwrite_larger_than_the_client_cache_loses_nothing() {
        // A term that outlives 72 pushes: the default one fences a long
        // flush half-way, which is not this test's subject.
        let server_config = FileServiceConfig {
            lease: rhodos_file_service::LeaseParams {
                term_us: 60_000_000,
            },
            ..FileServiceConfig::default()
        };
        let (mut a, _, server) =
            lease_pair_on(server_config, 64, LeaseConfig::Auto, LeaseConfig::Never);
        let fid = a.create(&name("name=big")).unwrap();
        let od = a.open(&name("name=big")).unwrap();
        // 72 blocks through a 64-block cache.
        let data: Vec<u8> = (0..72 * BLOCK_SIZE)
            .map(|i| (i / BLOCK_SIZE) as u8 + 1)
            .collect();
        a.pwrite(od, 0, &data).unwrap();
        a.flush(od).unwrap();
        let at_server = server
            .lock()
            .file_service_mut()
            .read(fid, 0, data.len())
            .unwrap();
        let intact = |b: usize| {
            at_server.get(b * BLOCK_SIZE..(b + 1) * BLOCK_SIZE)
                == Some(&data[b * BLOCK_SIZE..(b + 1) * BLOCK_SIZE])
        };
        assert_eq!((0..72).find(|&b| !intact(b)), None, "lost block");
    }

    /// The agent's `size` covers buffered, unpushed writes of a growing
    /// file, so a block below it may have no descriptor at the server
    /// yet. Such a block is a hole: it reads as zeros, a partial write
    /// into it starts from zeros, and a second agent sees the same bytes
    /// once the flush lands.
    #[test]
    fn a_gap_below_buffered_writes_reads_as_zeros() {
        let bs = BLOCK_SIZE as u64;
        let (mut a, mut b, _server) = lease_pair(LeaseConfig::Auto, LeaseConfig::Never);
        a.create(&name("name=sparse")).unwrap();
        let od = a.open(&name("name=sparse")).unwrap();
        a.pwrite(od, 5 * bs, &vec![7u8; BLOCK_SIZE]).unwrap();
        // No flush: the server still has an empty file.
        let gap = a.pread(od, 2 * bs, BLOCK_SIZE).unwrap();
        assert_eq!(gap, vec![0u8; BLOCK_SIZE]);
        // A span running from the gap into the buffered block.
        let mut span = vec![0u8; BLOCK_SIZE];
        span.extend_from_slice(&[7u8; BLOCK_SIZE]);
        assert_eq!(a.pread(od, 4 * bs, 2 * BLOCK_SIZE).unwrap(), span);
        // A partial write into the gap reads the old block back first.
        a.pwrite(od, 3 * bs + 10, b"mid").unwrap();
        let mut block3 = vec![0u8; BLOCK_SIZE];
        block3[10..13].copy_from_slice(b"mid");
        assert_eq!(a.pread(od, 3 * bs, BLOCK_SIZE).unwrap(), block3);
        a.flush(od).unwrap();
        let od_b = b.open(&name("name=sparse")).unwrap();
        assert_eq!(b.pread(od_b, 2 * bs, BLOCK_SIZE).unwrap(), gap);
        assert_eq!(b.pread(od_b, 3 * bs, BLOCK_SIZE).unwrap(), block3);
        assert_eq!(b.pread(od_b, 4 * bs, 2 * BLOCK_SIZE).unwrap(), span);
    }

    /// A flush that fails on anything but a fence must leave its blocks
    /// dirty: the retry after the repair pushes all of them.
    #[test]
    fn failed_flush_keeps_its_blocks_dirty_for_the_retry() {
        let mut a = agent();
        let fid = a.create(&name("name=retry")).unwrap();
        let od = a.open(&name("name=retry")).unwrap();
        let data: Vec<u8> = (0..4 * BLOCK_SIZE).map(|i| (i / 97) as u8).collect();
        a.write(od, &data).unwrap();
        let server = a.servers[0].clone();
        let crash = |down: bool| {
            let mut srv = server.lock();
            let disk = srv.file_service_mut().disk_mut(0).disk_mut();
            if down {
                disk.faults_mut().crash_now();
            } else {
                disk.repair();
            }
        };
        crash(true);
        assert!(matches!(
            a.flush(od),
            Err(AgentError::File(FileServiceError::Disk(_)))
        ));
        crash(false);
        a.flush(od).unwrap();
        let at_server = server
            .lock()
            .file_service_mut()
            .read(fid, 0, data.len())
            .unwrap();
        assert_eq!(at_server.len(), data.len(), "every block was pushed");
        assert_eq!(at_server, data);
    }

    /// A fenced exchange is all-or-nothing: no block of it is visible at
    /// the server, and the drop count covers the blocks it carried plus
    /// what was still buffered for the file.
    #[test]
    fn fenced_push_applies_nothing_and_counts_pushed_plus_buffered() {
        let (mut a, mut b, server) = lease_pair_with_cache(4, LeaseConfig::Auto, LeaseConfig::Auto);
        let x = a.create(&name("name=x")).unwrap();
        let od_x = a.open(&name("name=x")).unwrap();
        a.create(&name("name=y")).unwrap();
        let od_y = a.open(&name("name=y")).unwrap();
        a.pwrite(od_y, 0, &vec![2u8; 2 * BLOCK_SIZE]).unwrap();
        a.flush(od_y).unwrap();
        // Four delegated blocks of X fill the cache, unpushed.
        a.pwrite(od_x, 0, &vec![1u8; 4 * BLOCK_SIZE]).unwrap();
        // A goes silent; B's read of X recalls A's delegation, waits A's
        // term out and fences it. Reading Y then fetches two blocks that
        // evict two of X's: one exchange under X's dead token.
        a.set_responsive(false);
        let od_b = b.open_fid(x).unwrap();
        assert_eq!(b.pread(od_b, 0, BLOCK_SIZE).unwrap(), b"", "nothing pushed");
        a.set_responsive(true);
        assert!(matches!(
            a.pread(od_y, 0, 2 * BLOCK_SIZE),
            Err(AgentError::File(FileServiceError::LeaseFenced(f))) if f == x
        ));
        assert_eq!(
            a.stations[0].lock().stats.fenced_drops,
            4,
            "2 blocks in the exchange + 2 still buffered"
        );
        let mut srv = server.lock();
        assert_eq!(srv.file_service_mut().get_attribute(x).unwrap().size, 0);
    }

    /// One `pread` evicts the dirty blocks of two files; the lower-numbered
    /// file's lease was fenced meanwhile. Its exchange fails alone: the
    /// healthy file's evicted blocks still reach the server.
    #[test]
    fn a_fenced_file_does_not_take_a_healthy_files_evictions_with_it() {
        let (mut a, mut b, server) = lease_pair_with_cache(4, LeaseConfig::Auto, LeaseConfig::Auto);
        let clock = server.lock().file_service_mut().clock();
        let x = a.create(&name("name=x")).unwrap();
        let z = a.create(&name("name=z")).unwrap();
        assert!(x < z, "X's exchange goes first");
        a.create(&name("name=y")).unwrap();
        let od_y = a.open(&name("name=y")).unwrap();
        a.pwrite(od_y, 0, &vec![2u8; 4 * BLOCK_SIZE]).unwrap();
        a.close(od_y).unwrap();
        // Two delegated blocks each of X and Z fill the cache. Z's lease
        // is 1.5 s younger than X's.
        let od_x = a.open(&name("name=x")).unwrap();
        let od_z = a.open(&name("name=z")).unwrap();
        a.pwrite(od_x, 0, &vec![1u8; 2 * BLOCK_SIZE]).unwrap();
        clock.advance(1_500_000);
        let z_data: Vec<u8> = (0..2 * BLOCK_SIZE).map(|i| (i / 61) as u8).collect();
        a.pwrite(od_z, 0, &z_data).unwrap();
        // A goes silent; B takes X over once A's term on X has run out —
        // Z's has not.
        a.set_responsive(false);
        let od_b = b.open_fid(x).unwrap();
        b.pwrite(od_b, 0, b"new owner").unwrap();
        b.flush(od_b).unwrap();
        a.set_responsive(true);
        // Reading Y evicts all four blocks: X's exchange is fenced, Z's
        // is applied.
        let od_y = a.open(&name("name=y")).unwrap();
        assert!(matches!(
            a.pread(od_y, 0, 4 * BLOCK_SIZE),
            Err(AgentError::File(FileServiceError::LeaseFenced(f))) if f == x
        ));
        assert_eq!(a.stations[0].lock().stats.fenced_drops, 2, "X's two");
        a.flush(od_z).unwrap();
        let mut srv = server.lock();
        let fs = srv.file_service_mut();
        let z_at_server = fs.read(z, 0, z_data.len()).unwrap();
        assert!(z_at_server == z_data, "Z's evicted blocks were applied");
        assert_eq!(fs.read(x, 0, 9).unwrap(), b"new owner");
    }

    /// One `pwrite` evicts the dirty blocks of two files while the server
    /// disk is down. Every exchange fails; every evicted block returns to
    /// the cache dirty (over capacity) and is pushed after the repair.
    #[test]
    fn evictions_that_fail_to_push_return_to_the_cache_dirty() {
        let (mut a, _, server) = lease_pair_with_cache(4, LeaseConfig::Auto, LeaseConfig::Never);
        let data = |tag: u8, blocks: usize| -> Vec<u8> {
            (0..blocks * BLOCK_SIZE)
                .map(|i| tag ^ (i / 53) as u8)
                .collect()
        };
        let mut files = Vec::new();
        for (n, blocks) in [("name=x", 2), ("name=z", 2), ("name=y", 4)] {
            let fid = a.create(&name(n)).unwrap();
            let od = a.open(&name(n)).unwrap();
            files.push((fid, od, data(fid.0 as u8, blocks)));
        }
        let crash = |down: bool| {
            let mut srv = server.lock();
            let disk = srv.file_service_mut().disk_mut(0).disk_mut();
            if down {
                disk.faults_mut().crash_now();
            } else {
                disk.repair();
            }
        };
        a.pwrite(files[0].1, 0, &files[0].2).unwrap();
        a.pwrite(files[1].1, 0, &files[1].2).unwrap();
        crash(true);
        // Four whole blocks of Y evict X's and Z's two each.
        assert!(matches!(
            a.pwrite(files[2].1, 0, &files[2].2),
            Err(AgentError::File(FileServiceError::Disk(_)))
        ));
        assert_eq!(a.stations[0].lock().cache.dirty_blocks(), 8);
        // The returned blocks serve reads while the server is down.
        assert_eq!(a.pread(files[1].1, 0, 100).unwrap(), files[1].2[..100]);
        crash(false);
        for (fid, od, data) in &files {
            a.flush(*od).unwrap();
            let at_server = server.lock().file_service_mut().read(*fid, 0, data.len());
            assert!(at_server.unwrap() == *data, "{fid:?} is whole");
        }
    }

    /// Exchanges, not blocks, are what a transfer costs.
    #[test]
    fn one_exchange_per_transfer() {
        let mut a = agent(); // 64-block cache
        a.create(&name("name=wide")).unwrap();
        let od = a.open(&name("name=wide")).unwrap();
        a.pwrite(od, 0, &vec![9u8; 64 * BLOCK_SIZE]).unwrap();
        let trips = |a: &FileAgent| a.stats().rpcs_sent;
        let before = trips(&a);
        a.flush(od).unwrap();
        assert_eq!(trips(&a) - before, 1, "64 dirty blocks, one flush exchange");
        a.close(od).unwrap(); // drops the cached blocks and the lease
        let od = a.open(&name("name=wide")).unwrap();
        let granted = |a: &FileAgent| {
            let mut srv = a.servers[0].lock();
            srv.file_service_mut().lease_manager().stats().granted
        };
        let before = trips(&a);
        let grants = granted(&a);
        assert_eq!(
            a.pread(od, 100, 8 * BLOCK_SIZE - 100).unwrap().len(),
            8 * BLOCK_SIZE - 100
        );
        assert_eq!(
            granted(&a) - grants,
            1,
            "one lease acquired for the cold read"
        );
        assert_eq!(
            trips(&a) - before,
            2,
            "8 cold blocks: one lease-acquire exchange, one read exchange"
        );
        let _ = a.pread(od, 0, 8 * BLOCK_SIZE).unwrap();
        assert_eq!(trips(&a) - before, 2, "warm re-read: no exchange");
    }

    #[test]
    fn leased_hot_reread_is_zero_rpc() {
        let (mut a, _, _) = lease_pair(LeaseConfig::Auto, LeaseConfig::Never);
        a.create(&name("name=hot")).unwrap();
        let od = a.open(&name("name=hot")).unwrap();
        a.pwrite(od, 0, &vec![3u8; 4 * BLOCK_SIZE]).unwrap();
        a.flush(od).unwrap();
        let _ = a.pread(od, 0, 4 * BLOCK_SIZE).unwrap(); // populate
        let before = a.stats();
        for _ in 0..10 {
            assert_eq!(
                a.pread(od, 0, 4 * BLOCK_SIZE).unwrap().len(),
                4 * BLOCK_SIZE
            );
        }
        let after = a.stats();
        assert_eq!(
            after.rpcs_sent, before.rpcs_sent,
            "hot re-reads under a live lease must issue no RPC at all"
        );
        assert_eq!(
            after.rpcs_avoided_by_lease - before.rpcs_avoided_by_lease,
            40,
            "each of the 10 re-reads covers 4 blocks from the station cache"
        );
    }

    #[test]
    fn never_mode_pays_an_rpc_per_read() {
        let (_, mut b, _) = lease_pair(LeaseConfig::Auto, LeaseConfig::Never);
        b.create(&name("name=ablate")).unwrap();
        let od = b.open(&name("name=ablate")).unwrap();
        b.pwrite(od, 0, &vec![9u8; 2 * BLOCK_SIZE]).unwrap();
        let before = b.stats().rpcs_sent;
        for _ in 0..5 {
            let _ = b.pread(od, 0, 2 * BLOCK_SIZE).unwrap();
        }
        let s = b.stats();
        assert_eq!(s.rpcs_sent - before, 5, "one RPC per read, nothing cached");
        assert_eq!(s.rpcs_avoided_by_lease, 0);
    }

    #[test]
    fn conflicting_open_recalls_delegated_writes() {
        let (mut a, mut b, _) = lease_pair(LeaseConfig::Auto, LeaseConfig::Auto);
        let fid = a.create(&name("name=shared")).unwrap();
        let od_a = a.open(&name("name=shared")).unwrap();
        // A buffers delegated writes under a write lease; nothing is
        // pushed to the server yet.
        a.pwrite(od_a, 0, b"delegated-but-dirty").unwrap();
        // B's read forces the server to recall A's delegation; the
        // surrendered bytes must be visible to B's lease-protected read.
        let od_b = b.open_fid(fid).unwrap();
        assert_eq!(b.pread(od_b, 0, 19).unwrap(), b"delegated-but-dirty");
        assert_eq!(a.stats().recalls, 1, "A answered exactly one recall");
        // A's next read re-acquires (its lease was recalled) and sees its
        // own writes back from the server.
        assert_eq!(a.pread(od_a, 0, 19).unwrap(), b"delegated-but-dirty");
    }

    #[test]
    fn write_after_remote_write_stays_coherent() {
        let (mut a, mut b, _) = lease_pair(LeaseConfig::Auto, LeaseConfig::Auto);
        let fid = a.create(&name("name=pingpong")).unwrap();
        let od_a = a.open(&name("name=pingpong")).unwrap();
        let od_b = b.open_fid(fid).unwrap();
        a.pwrite(od_a, 0, b"aaaa").unwrap();
        b.pwrite(od_b, 0, b"bb").unwrap(); // recalls A's write lease
        assert_eq!(a.pread(od_a, 0, 4).unwrap(), b"bbaa");
        assert_eq!(b.pread(od_b, 0, 4).unwrap(), b"bbaa");
    }

    #[test]
    fn unresponsive_holder_is_fenced_and_writeback_rejected() {
        let (mut a, mut b, _) = lease_pair(LeaseConfig::Auto, LeaseConfig::Auto);
        let fid = a.create(&name("name=fence")).unwrap();
        let od_a = a.open(&name("name=fence")).unwrap();
        a.pwrite(od_a, 0, b"doomed delegated write").unwrap();
        // A goes silent: B's conflicting open must wait out the recall
        // timeout plus A's lease term, then proceed without A's bytes.
        a.set_responsive(false);
        let od_b = b.open_fid(fid).unwrap();
        assert_eq!(b.pread(od_b, 0, 32).unwrap(), b"", "fenced bytes are lost");
        b.pwrite(od_b, 0, b"new owner").unwrap();
        b.flush(od_b).unwrap();
        // A comes back and tries to flush its stale delegated write: the
        // fenced token must be rejected and the buffered data dropped.
        a.set_responsive(true);
        assert!(matches!(
            a.flush(od_a),
            Err(AgentError::File(FileServiceError::LeaseFenced(_)))
        ));
        // A's re-read goes through a fresh lease and sees B's bytes.
        assert_eq!(a.pread(od_a, 0, 9).unwrap(), b"new owner");
    }

    #[test]
    fn crash_reattach_preserves_lease_and_cache() {
        let (mut a, _, server) = lease_pair(LeaseConfig::Auto, LeaseConfig::Never);
        a.create(&name("name=durable")).unwrap();
        let od = a.open(&name("name=durable")).unwrap();
        a.pwrite(od, 0, &vec![5u8; 2 * BLOCK_SIZE]).unwrap();
        a.flush(od).unwrap();
        let _ = a.pread(od, 0, 2 * BLOCK_SIZE).unwrap(); // populate under lease
        {
            let mut srv = server.lock();
            let fs = srv.file_service_mut();
            fs.simulate_crash();
            fs.recover().unwrap();
        }
        assert_eq!(a.reattach_leases(0).unwrap(), 1);
        let before = a.stats().rpcs_sent;
        assert_eq!(
            a.pread(od, 0, 2 * BLOCK_SIZE).unwrap(),
            vec![5u8; 2 * BLOCK_SIZE]
        );
        assert_eq!(
            a.stats().rpcs_sent,
            before,
            "reattached lease keeps the cache hot: still zero RPCs"
        );
    }

    /// Two descriptors of one file in one agent share one record of it:
    /// the second builds on the first's pushed bytes instead of zeros,
    /// reads its buffered bytes, seeks to its end, and keeps the record
    /// when the first closes.
    #[test]
    fn two_descriptors_of_a_file_share_its_size_and_blocks() {
        for cfg in [LeaseConfig::Auto, LeaseConfig::Never] {
            // One client block: a write to another file pushes `hello`.
            let (mut a, _, server) = lease_pair_with_cache(1, cfg, LeaseConfig::Never);
            let fid = a.create(&name("name=f")).unwrap();
            a.create(&name("name=g")).unwrap();
            let od1 = a.open(&name("name=f")).unwrap();
            let od2 = a.open(&name("name=f")).unwrap();
            let od_g = a.open(&name("name=g")).unwrap();
            a.pwrite(od1, 0, b"hello").unwrap();
            a.pwrite(od_g, 0, b"next").unwrap();
            a.pwrite(od2, 5, b"world").unwrap();
            a.flush(od1).unwrap();
            a.flush(od2).unwrap();
            let at_server = server.lock().file_service_mut().read(fid, 0, 64);
            assert_eq!(at_server.unwrap(), b"helloworld", "{cfg:?}");

            let (mut a, _, _) = lease_pair_with_cache(1, cfg, LeaseConfig::Never);
            a.create(&name("name=f")).unwrap();
            let od1 = a.open(&name("name=f")).unwrap();
            let od2 = a.open(&name("name=f")).unwrap();
            a.pwrite(od1, 0, b"hello").unwrap();
            assert_eq!(a.pread(od2, 0, 64).unwrap(), b"hello", "{cfg:?}");
            assert_eq!(a.lseek(od2, 0, 2).unwrap(), 5, "{cfg:?}");
            a.close(od1).unwrap();
            assert_eq!(a.pread(od2, 0, 64).unwrap(), b"hello", "{cfg:?}");
        }
    }

    /// A buffered write left idle past its lease's term at the default
    /// terms: the lapsed lease is renewed — only the server may end it —
    /// so the write reads back and reaches the server whole.
    #[test]
    fn an_idle_buffered_write_outlives_the_default_term() {
        let mut a = agent();
        let server = a.servers[0].clone();
        let params = server.lock().file_service_mut().lease_manager().params();
        assert_eq!(params, rhodos_file_service::LeaseParams::default());
        let fid = a.create(&name("name=idle")).unwrap();
        let od = a.open(&name("name=idle")).unwrap();
        a.pwrite(od, 0, &[7u8; 100]).unwrap();
        server.lock().file_service_mut().clock().advance(5_000_000);
        assert_eq!(a.pread(od, 0, 100).unwrap(), [7u8; 100]);
        assert_eq!(a.stats().lease_renewals, 1, "the lapsed lease was renewed");
        a.flush(od).unwrap();
        let at_server = server.lock().file_service_mut().read(fid, 0, 100);
        assert_eq!(at_server.unwrap(), [7u8; 100]);
        assert_eq!(a.stations[0].lock().stats.fenced_drops, 0);
    }

    /// The same idle write across a server crash: the lapsed lease is
    /// claimed — nobody fenced it — so the write survives the crash.
    #[test]
    fn an_idle_buffered_write_outlives_a_server_crash() {
        let mut a = agent();
        let server = a.servers[0].clone();
        let fid = a.create(&name("name=idle")).unwrap();
        let od = a.open(&name("name=idle")).unwrap();
        a.pwrite(od, 0, &[7u8; 100]).unwrap();
        server.lock().file_service_mut().clock().advance(3_000_000);
        {
            let mut srv = server.lock();
            srv.file_service_mut().simulate_crash();
            srv.recover().unwrap();
        }
        assert_eq!(a.reattach_leases(0).unwrap(), 1, "the lapsed lease");
        assert_eq!(a.pread(od, 0, 100).unwrap(), [7u8; 100]);
        a.flush(od).unwrap();
        let at_server = server.lock().file_service_mut().read(fid, 0, 100);
        assert_eq!(at_server.unwrap(), [7u8; 100]);
        assert_eq!(a.stations[0].lock().stats.fenced_drops, 0);
    }

    /// A live read lease that a write needs upgraded is not renewed
    /// first, past half its term or not: the upgrade is one exchange.
    #[test]
    fn an_upgrade_past_half_term_is_one_exchange() {
        let mut a = agent();
        let server = a.servers[0].clone();
        a.create(&name("name=up")).unwrap();
        let od = a.open(&name("name=up")).unwrap();
        let _ = a.pread(od, 0, 10).unwrap(); // a read lease
        server.lock().file_service_mut().clock().advance(1_500_000);
        let before = a.stats();
        a.pwrite(od, 0, b"upgraded").unwrap();
        assert_eq!(a.stats().rpcs_sent - before.rpcs_sent, 1, "one acquire");
        assert_eq!(a.stats().lease_renewals, before.lease_renewals);
    }

    #[test]
    fn reads_clamped_to_size() {
        let mut a = agent();
        a.create(&name("name=small")).unwrap();
        let od = a.open(&name("name=small")).unwrap();
        a.write(od, b"abc").unwrap();
        assert_eq!(a.pread(od, 1, 100).unwrap(), b"bc");
        assert_eq!(a.pread(od, 3, 100).unwrap(), b"");
        assert_eq!(a.pread(od, 50, 1).unwrap(), b"");
    }
}
