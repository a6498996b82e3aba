//! # rhodos-core — the assembled RHODOS distributed file facility
//!
//! This crate wires every layer of Figure 1 into a runnable system:
//!
//! ```text
//!   client process            client process
//!        |                         |
//!   FILE AGENT ──┐            TRANSACTION AGENT (event driven)
//!        |       |                 |
//!   NAMING / DIRECTORY SERVICE     |
//!        |       |                 |
//!        └── FILE SERVICE ── TRANSACTION-ORIENTED FILE SERVICE
//!                 |     (caching at every level)
//!           BLOCK (DISK) SERVICE  +  stable storage mirrors
//! ```
//!
//! A [`Facility`] hosts one or more file/transaction servers (each over
//! any number of simulated disks) and any number of client [`Machine`]s,
//! each with its file agent, device agent, process table and — only while
//! transactions are active — a transaction agent. All components share
//! one virtual clock, so experiments measure deterministic simulated
//! time.
//!
//! # Example
//!
//! ```
//! use rhodos_core::Facility;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cluster = Facility::builder().machines(2).build()?;
//! // Machine 0 writes a named file.
//! let name = rhodos_naming::AttributedName::parse("name=shared")?;
//! let m0 = cluster.machine_mut(0);
//! m0.file_agent_mut().create(&name)?;
//! let od = m0.file_agent_mut().open(&name)?;
//! m0.file_agent_mut().write(od, b"hello from machine 0")?;
//! m0.file_agent_mut().close(od)?;
//! // Machine 1 reads it back through its own agent.
//! let m1 = cluster.machine_mut(1);
//! let od = m1.file_agent_mut().open(&name)?;
//! assert_eq!(m1.file_agent_mut().read(od, 20)?, b"hello from machine 0");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use parking_lot::Mutex;
use rhodos_agent::{
    AgentError, AgentLifecycleEvent, DeviceAgent, FileAgent, ProcessTable, ServerHandle,
    TransactionAgent,
};
use rhodos_file_service::{FileService, FileServiceConfig};
use rhodos_naming::NamingService;
use rhodos_net::{NetConfig, SimNetwork};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
use rhodos_txn::{TransactionService, TxnConfig, TxnError, TxnId};
use std::sync::Arc;

/// Builder for a [`Facility`].
#[derive(Debug, Clone)]
pub struct FacilityBuilder {
    machines: usize,
    file_servers: usize,
    disks: usize,
    geometry: DiskGeometry,
    latency: LatencyModel,
    net: NetConfig,
    fs_config: FileServiceConfig,
    txn_config: TxnConfig,
    client_cache_blocks: usize,
}

impl Default for FacilityBuilder {
    fn default() -> Self {
        Self {
            machines: 1,
            file_servers: 1,
            disks: 1,
            geometry: DiskGeometry::medium(),
            latency: LatencyModel::default(),
            net: NetConfig::reliable(),
            fs_config: FileServiceConfig::default(),
            txn_config: TxnConfig::default(),
            client_cache_blocks: 64,
        }
    }
}

impl FacilityBuilder {
    /// Number of client machines.
    pub fn machines(mut self, n: usize) -> Self {
        self.machines = n.max(1);
        self
    }

    /// Number of disks behind each file server.
    pub fn disks(mut self, n: usize) -> Self {
        self.disks = n.max(1);
        self
    }

    /// Number of file servers ("these services can either co-exist on the
    /// same machine or be located separately on different machines",
    /// §2.2). Attributed names resolve to `(server, fid)` system names and
    /// the file agents route accordingly.
    pub fn file_servers(mut self, n: usize) -> Self {
        self.file_servers = n.max(1);
        self
    }

    /// Geometry of each disk.
    pub fn geometry(mut self, g: DiskGeometry) -> Self {
        self.geometry = g;
        self
    }

    /// Disk latency model.
    pub fn latency(mut self, m: LatencyModel) -> Self {
        self.latency = m;
        self
    }

    /// Network behaviour between agents and servers.
    pub fn network(mut self, n: NetConfig) -> Self {
        self.net = n;
        self
    }

    /// File-service configuration (caching, write policy, striping).
    pub fn file_service(mut self, c: FileServiceConfig) -> Self {
        self.fs_config = c;
        self
    }

    /// Transaction-service configuration (LT, N).
    pub fn transactions(mut self, c: TxnConfig) -> Self {
        self.txn_config = c;
        self
    }

    /// Client-side cache size, in blocks.
    pub fn client_cache_blocks(mut self, n: usize) -> Self {
        self.client_cache_blocks = n;
        self
    }

    /// Builds the facility.
    ///
    /// # Errors
    ///
    /// Fails if the file or transaction service cannot be initialised.
    pub fn build(self) -> Result<Facility, TxnError> {
        let clock = SimClock::new();
        let mut servers: Vec<ServerHandle> = Vec::with_capacity(self.file_servers);
        for _ in 0..self.file_servers {
            let fs = FileService::striped(
                self.disks,
                self.geometry,
                self.latency,
                clock.clone(),
                self.fs_config,
            )?;
            let ts = TransactionService::new(fs, self.txn_config)?;
            servers.push(Arc::new(Mutex::new(ts)));
        }
        let naming = Arc::new(Mutex::new(NamingService::new()));
        let machines = (0..self.machines)
            .map(|i| {
                Machine::new(
                    i as u32,
                    servers.clone(),
                    naming.clone(),
                    clock.clone(),
                    self.net,
                    self.client_cache_blocks,
                )
            })
            .collect();
        Ok(Facility {
            clock,
            naming,
            servers,
            machines,
        })
    }
}

/// One client machine: its agents and processes.
#[derive(Debug)]
pub struct Machine {
    id: u32,
    /// All reachable file servers; the transaction agent binds to the
    /// first (distributed transactions across servers are out of the
    /// paper's scope).
    servers: Vec<ServerHandle>,
    clock: SimClock,
    net_config: NetConfig,
    file_agent: FileAgent,
    device_agent: DeviceAgent,
    processes: ProcessTable,
    txn_agent: Option<TransactionAgent>,
    lifecycle: Vec<AgentLifecycleEvent>,
    /// Per-process mapping behind the stdout redirection sentinel
    /// (env value 100 001 → which file descriptor receives the output).
    stdout_redirects: std::collections::HashMap<u64, rhodos_agent::ObjectDescriptor>,
}

impl Machine {
    fn new(
        id: u32,
        servers: Vec<ServerHandle>,
        naming: Arc<Mutex<NamingService>>,
        clock: SimClock,
        net: NetConfig,
        client_cache_blocks: usize,
    ) -> Self {
        let file_agent = FileAgent::with_servers(
            id,
            servers.clone(),
            naming,
            SimNetwork::new(clock.clone(), net),
            client_cache_blocks,
        );
        Self {
            id,
            servers,
            clock,
            net_config: net,
            file_agent,
            device_agent: DeviceAgent::new(),
            processes: ProcessTable::new(),
            txn_agent: None,
            lifecycle: Vec::new(),
            stdout_redirects: std::collections::HashMap::new(),
        }
    }

    /// This machine's number.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The machine's file agent.
    pub fn file_agent_mut(&mut self) -> &mut FileAgent {
        &mut self.file_agent
    }

    /// The machine's device agent.
    pub fn device_agent_mut(&mut self) -> &mut DeviceAgent {
        &mut self.device_agent
    }

    /// The machine's process table.
    pub fn processes_mut(&mut self) -> &mut ProcessTable {
        &mut self.processes
    }

    /// Whether a transaction agent currently exists on this machine.
    pub fn has_transaction_agent(&self) -> bool {
        self.txn_agent.is_some()
    }

    /// The lifecycle log of the transaction agent (experiment E16).
    pub fn agent_lifecycle(&self) -> &[AgentLifecycleEvent] {
        &self.lifecycle
    }

    /// `tbegin` on this machine: "the first request to initiate a
    /// transaction in a client's machine brings [the transaction agent]
    /// into existence".
    pub fn tbegin(&mut self) -> TxnId {
        if self.txn_agent.is_none() {
            self.lifecycle.push(AgentLifecycleEvent::Created {
                at_us: self.clock.now_us(),
            });
            self.txn_agent = Some(TransactionAgent::new(
                self.id,
                self.servers[0].clone(),
                SimNetwork::new(self.clock.clone(), self.net_config),
            ));
        }
        self.txn_agent.as_mut().expect("just created").tbegin()
    }

    /// The live transaction agent (after [`Self::tbegin`]).
    ///
    /// # Errors
    ///
    /// [`AgentError::Txn`] with `NotActive` when no agent exists.
    pub fn txn_agent_mut(&mut self) -> Result<&mut TransactionAgent, AgentError> {
        self.txn_agent
            .as_mut()
            .ok_or(AgentError::Txn(TxnError::NotActive(TxnId(0))))
    }

    /// `tend` with lifecycle management: commits, and destroys the agent
    /// when the last transaction on the machine finished.
    ///
    /// # Errors
    ///
    /// Server failures.
    pub fn tend(&mut self, t: TxnId) -> Result<(), AgentError> {
        let agent = self.txn_agent_mut()?;
        agent.tend(t)?;
        self.reap_agent();
        Ok(())
    }

    /// `tabort` with lifecycle management.
    ///
    /// # Errors
    ///
    /// Server failures.
    pub fn tabort(&mut self, t: TxnId) -> Result<(), AgentError> {
        let agent = self.txn_agent_mut()?;
        agent.tabort(t)?;
        self.reap_agent();
        Ok(())
    }

    /// Redirects `pid`'s standard output to an open file descriptor: the
    /// env variable takes the paper's sentinel value 100 001 and the
    /// machine records which file descriptor it stands for.
    ///
    /// # Errors
    ///
    /// Fails if the process does not exist or `od` is not an open file
    /// descriptor at the file agent.
    pub fn redirect_stdout_to_file(
        &mut self,
        pid: u64,
        od: rhodos_agent::ObjectDescriptor,
    ) -> Result<(), AgentError> {
        if self.file_agent.fid_of(od).is_none() {
            return Err(AgentError::BadDescriptor(od));
        }
        self.processes
            .redirect(pid, false, true, false)
            .map_err(|_| AgentError::BadDescriptor(od))?;
        self.stdout_redirects.insert(pid, od);
        Ok(())
    }

    /// Writes to `pid`'s standard output, routing by the descriptor value
    /// exactly as §3 prescribes: below 100 000 the write goes to the
    /// device agent (the monitor), at the redirection sentinel it goes to
    /// the recorded file descriptor through the file agent.
    ///
    /// # Errors
    ///
    /// Propagates agent failures.
    pub fn write_stdout(&mut self, pid: u64, data: &[u8]) -> Result<(), AgentError> {
        let stdout = self
            .processes
            .get(pid)
            .map(|p| p.stdout)
            .ok_or(AgentError::BadDescriptor(0))?;
        if rhodos_agent::is_device_descriptor(stdout) {
            self.device_agent
                .write(stdout, data)
                .map_err(|_| AgentError::BadDescriptor(stdout))?;
            Ok(())
        } else {
            let od = *self
                .stdout_redirects
                .get(&pid)
                .ok_or(AgentError::BadDescriptor(stdout))?;
            self.file_agent.write(od, data)
        }
    }

    /// Destroys the transaction agent if it has gone idle ("it ceases to
    /// exist as soon as the last transaction ... completes").
    fn reap_agent(&mut self) {
        if self
            .txn_agent
            .as_ref()
            .is_some_and(TransactionAgent::is_idle)
        {
            self.txn_agent = None;
            self.lifecycle.push(AgentLifecycleEvent::Destroyed {
                at_us: self.clock.now_us(),
            });
        }
    }
}

/// The assembled facility: one or more file/transaction servers, shared
/// naming, and client machines.
#[derive(Debug)]
pub struct Facility {
    clock: SimClock,
    naming: Arc<Mutex<NamingService>>,
    servers: Vec<ServerHandle>,
    machines: Vec<Machine>,
}

impl Facility {
    /// Starts building a facility.
    pub fn builder() -> FacilityBuilder {
        FacilityBuilder::default()
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Mutable access to machine `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn machine_mut(&mut self, i: usize) -> &mut Machine {
        &mut self.machines[i]
    }

    /// The first file server's handle (lock it to reach the transaction
    /// service and, through it, the file service).
    pub fn server(&self) -> ServerHandle {
        self.servers[0].clone()
    }

    /// Handle of file server `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn server_at(&self, i: usize) -> ServerHandle {
        self.servers[i].clone()
    }

    /// Number of file servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// The shared naming service.
    pub fn naming(&self) -> Arc<Mutex<NamingService>> {
        self.naming.clone()
    }

    /// Drives the transaction timeout machinery on every server; returns
    /// aborted transactions.
    pub fn tick(&mut self) -> Vec<TxnId> {
        let mut all = Vec::new();
        for s in &self.servers {
            all.extend(s.lock().tick());
        }
        all
    }

    /// Crashes file server `i`: all its volatile state (caches, FIT
    /// tables, directory map, lock tables, active transactions) is lost.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn crash_server_at(&mut self, i: usize) {
        self.servers[i].lock().file_service_mut().simulate_crash();
    }

    /// Crashes the first file server (single-server convenience).
    pub fn crash_server(&mut self) {
        self.crash_server_at(0);
    }

    /// Recovers file server `i` after a crash, then has every machine's
    /// file agent re-tell it what it forgot — the machine's open files
    /// and leases ([`FileAgent::reattach_leases`]) — so writes the
    /// machines still buffer reach it. Returns the redone transactions.
    ///
    /// # Errors
    ///
    /// Fails if the on-disk state is unrecoverable, or a machine's open
    /// file is gone from it.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn recover_server_at(&mut self, i: usize) -> Result<Vec<TxnId>, AgentError> {
        let redone = self.servers[i].lock().recover()?;
        for m in &mut self.machines {
            m.file_agent.reattach_leases(i)?;
        }
        Ok(redone)
    }

    /// Recovers the first file server (single-server convenience).
    ///
    /// # Errors
    ///
    /// See [`Self::recover_server_at`].
    pub fn recover_server(&mut self) -> Result<Vec<TxnId>, AgentError> {
        self.recover_server_at(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhodos_naming::AttributedName;

    fn name(s: &str) -> AttributedName {
        AttributedName::parse(s).unwrap()
    }

    #[test]
    fn cross_machine_file_sharing() {
        let mut c = Facility::builder().machines(2).build().unwrap();
        let n = name("name=shared,owner=m0");
        c.machine_mut(0).file_agent_mut().create(&n).unwrap();
        let od = c.machine_mut(0).file_agent_mut().open(&n).unwrap();
        c.machine_mut(0)
            .file_agent_mut()
            .write(od, b"cross-machine")
            .unwrap();
        c.machine_mut(0).file_agent_mut().close(od).unwrap();
        let od = c.machine_mut(1).file_agent_mut().open(&n).unwrap();
        assert_eq!(
            c.machine_mut(1).file_agent_mut().read(od, 13).unwrap(),
            b"cross-machine"
        );
        c.machine_mut(1).file_agent_mut().close(od).unwrap();
    }

    /// A server dropped and mounted over the disks it left, while three
    /// machines hold leases: the claim it never ended reattaches and its
    /// buffered write lands, the claim it fenced before the drop stays
    /// dead (the grave is in the server record), and a fresh grant is
    /// ordered after both — though the mounted server has no recall
    /// endpoint and remembers no grant.
    #[test]
    fn a_server_mounted_over_the_disks_it_left_judges_every_claim() {
        use rhodos_agent::ObjectDescriptor;
        use rhodos_disk_service::DiskService;
        let mut c = Facility::builder().machines(3).build().unwrap();
        let (a, b, fresh) = (name("name=a"), name("name=b"), name("name=c"));
        for n in [&a, &b, &fresh] {
            c.machine_mut(0).file_agent_mut().create(n).unwrap();
        }
        let mut open = |m: usize, n: &AttributedName| -> ObjectDescriptor {
            c.machine_mut(m).file_agent_mut().open(n).unwrap()
        };
        let (a0, b1, b2, c2) = (open(0, &a), open(1, &b), open(2, &b), open(2, &fresh));
        // Machine 0 buffers a write under its write lease on `a`; machine
        // 1's delegated write to `b` is fenced when it ignores machine
        // 2's recall.
        c.machine_mut(0)
            .file_agent_mut()
            .pwrite(a0, 0, b"kept")
            .unwrap();
        c.machine_mut(1)
            .file_agent_mut()
            .pwrite(b1, 0, b"doomed")
            .unwrap();
        c.machine_mut(1).file_agent_mut().set_responsive(false);
        assert_eq!(
            c.machine_mut(2).file_agent_mut().pread(b2, 0, 6).unwrap(),
            b""
        );
        c.machine_mut(1).file_agent_mut().set_responsive(true);
        let server = c.server();
        let claims = server.lock().file_service().lease_manager().grant_set();

        {
            let mut ts = server.lock();
            let fs = ts.file_service_mut();
            let config = *fs.config();
            let disks: Vec<DiskService> = (0..fs.disk_count())
                .map(|d| {
                    let old = fs.disk_mut(d);
                    let (geometry, model) = (old.geometry(), old.disk_mut().model());
                    let spare = DiskService::new(geometry, model, old.clock(), Default::default());
                    std::mem::replace(old, spare)
                })
                .collect();
            *fs = FileService::mount(disks, config).unwrap();
        }
        let reattached: Vec<usize> = (0..3)
            .map(|m| {
                c.machine_mut(m)
                    .file_agent_mut()
                    .reattach_leases(0)
                    .unwrap()
            })
            .collect();
        assert_eq!(reattached, [1, 0, 1], "machine 1's claim was fenced");
        c.machine_mut(0).file_agent_mut().flush(a0).unwrap();
        c.machine_mut(2)
            .file_agent_mut()
            .pwrite(c2, 0, b"new")
            .unwrap();

        let ts = server.lock();
        let leases = ts.file_service().lease_manager();
        assert_eq!(leases.epoch(), 1);
        let live = leases.grant_set();
        let kept: Vec<u64> = claims.iter().filter(|g| g.1 != 1).map(|g| g.3).collect();
        let taken: Vec<u64> = live
            .iter()
            .filter(|g| kept.contains(&g.3))
            .map(|g| g.3)
            .collect();
        assert_eq!(taken, kept, "both unfenced claims, each under its old seq");
        let newest = live.iter().map(|g| g.3).max().unwrap();
        assert!(
            kept.iter().all(|&s| s < newest),
            "the fresh grant is ordered last"
        );
        drop(ts);
        let ma = c.machine_mut(1).file_agent_mut().open(&a).unwrap();
        assert_eq!(
            c.machine_mut(1).file_agent_mut().pread(ma, 0, 4).unwrap(),
            b"kept"
        );
        assert_eq!(
            c.machine_mut(1).file_agent_mut().pread(b1, 0, 6).unwrap(),
            b""
        );
    }

    #[test]
    fn transaction_agent_is_event_driven() {
        let mut c = Facility::builder().machines(1).build().unwrap();
        let m = c.machine_mut(0);
        assert!(!m.has_transaction_agent());
        let t1 = m.tbegin();
        assert!(m.has_transaction_agent());
        let t2 = m.tbegin();
        m.tend(t1).unwrap();
        assert!(m.has_transaction_agent(), "agent lives while t2 active");
        m.tabort(t2).unwrap();
        assert!(!m.has_transaction_agent(), "agent dies with last txn");
        // Lifecycle: created once, destroyed once; a new tbegin recreates.
        assert_eq!(m.agent_lifecycle().len(), 2);
        let t3 = m.tbegin();
        assert!(m.has_transaction_agent());
        m.tend(t3).unwrap();
        assert_eq!(m.agent_lifecycle().len(), 4);
    }

    #[test]
    fn transactional_update_via_machine() {
        let mut c = Facility::builder().machines(1).build().unwrap();
        let fid = {
            let m = c.machine_mut(0);
            let t = m.tbegin();
            let fid = m
                .txn_agent_mut()
                .unwrap()
                .tcreate(Default::default())
                .unwrap();
            let od = m.txn_agent_mut().unwrap().topen(t, fid).unwrap();
            m.txn_agent_mut().unwrap().twrite(od, b"atomic").unwrap();
            m.tend(t).unwrap();
            fid
        };
        // Visible through the basic path.
        let m = c.machine_mut(0);
        let od = m.file_agent_mut().open_fid(fid).unwrap();
        assert_eq!(m.file_agent_mut().read(od, 6).unwrap(), b"atomic");
        m.file_agent_mut().close(od).unwrap();
    }

    #[test]
    fn server_crash_and_recovery_end_to_end() {
        let mut c = Facility::builder().machines(1).build().unwrap();
        let n = name("name=precious");
        let fid = c.machine_mut(0).file_agent_mut().create(&n).unwrap();
        let od = c.machine_mut(0).file_agent_mut().open(&n).unwrap();
        c.machine_mut(0)
            .file_agent_mut()
            .write(od, b"survives crashes")
            .unwrap();
        c.machine_mut(0).file_agent_mut().close(od).unwrap();
        {
            let mut s = c.server();
            let mut guard = s.lock();
            guard.file_service_mut().flush_all().unwrap();
            drop(guard);
            let _ = &mut s;
        }
        c.crash_server();
        c.recover_server().unwrap();
        let m = c.machine_mut(0);
        let od = m.file_agent_mut().open_fid(fid).unwrap();
        assert_eq!(
            m.file_agent_mut().read(od, 16).unwrap(),
            b"survives crashes"
        );
        m.file_agent_mut().close(od).unwrap();
    }

    /// A write a machine still buffers under its lease survives a server
    /// crash, whether its lease was live, past half its term or lapsed
    /// when the server went down: recovery has every machine re-present
    /// its leases, and the write reaches the server at close.
    #[test]
    fn a_buffered_write_survives_a_server_crash() {
        for idle_us in [0, 1_500_000, 3_000_000] {
            let mut c = Facility::builder().machines(2).build().unwrap();
            let n = name("name=buffered");
            c.machine_mut(0).file_agent_mut().create(&n).unwrap();
            let od = c.machine_mut(0).file_agent_mut().open(&n).unwrap();
            let agent = c.machine_mut(0).file_agent_mut();
            agent.write(od, b"not yet pushed").unwrap();
            c.clock().advance(idle_us);
            c.crash_server();
            c.recover_server().unwrap();
            c.clock().advance(1_500_000); // past half the term
            let agent = c.machine_mut(0).file_agent_mut();
            agent.lseek(od, 0, 0).unwrap();
            assert_eq!(agent.read(od, 14).unwrap(), b"not yet pushed", "{idle_us}");
            agent.close(od).unwrap();
            let agent = c.machine_mut(1).file_agent_mut();
            let od = agent.open(&n).unwrap();
            assert_eq!(agent.read(od, 14).unwrap(), b"not yet pushed", "{idle_us}");
        }
    }

    #[test]
    fn timeouts_flow_through_cluster_tick() {
        let mut c = Facility::builder().machines(2).build().unwrap();
        let fid = {
            let m = c.machine_mut(0);
            let t = m.tbegin();
            let fid = m
                .txn_agent_mut()
                .unwrap()
                .tcreate(Default::default())
                .unwrap();
            let od = m.txn_agent_mut().unwrap().topen(t, fid).unwrap();
            m.txn_agent_mut().unwrap().twrite(od, b"seed").unwrap();
            m.tend(t).unwrap();
            fid
        };
        // Machine 0 holds a lock and stalls; machine 1 wants it.
        let t0 = c.machine_mut(0).tbegin();
        {
            let m = c.machine_mut(0);
            let od = m.txn_agent_mut().unwrap().topen(t0, fid).unwrap();
            m.txn_agent_mut().unwrap().twrite(od, b"hold").unwrap();
        }
        let t1 = c.machine_mut(1).tbegin();
        {
            let m = c.machine_mut(1);
            let od = m.txn_agent_mut().unwrap().topen(t1, fid).unwrap();
            assert!(m.txn_agent_mut().unwrap().twrite(od, b"want").is_err());
        }
        // Advance past LT; the contested holder is aborted.
        c.clock()
            .advance(rhodos_txn::TxnConfig::default().lt_us + 1);
        let victims = c.tick();
        assert_eq!(victims, vec![t0]);
        // Machine 1 can now write.
        {
            let m = c.machine_mut(1);
            let od = m.txn_agent_mut().unwrap().topen(t1, fid).unwrap();
            m.txn_agent_mut().unwrap().twrite(od, b"want").unwrap();
            m.tend(t1).unwrap();
        }
    }
}

#[cfg(test)]
mod multi_server_tests {
    use super::*;
    use rhodos_naming::AttributedName;

    fn name(s: &str) -> AttributedName {
        AttributedName::parse(s).unwrap()
    }

    #[test]
    fn files_spread_over_servers_and_names_route() {
        let mut c = Facility::builder()
            .machines(1)
            .file_servers(3)
            .build()
            .unwrap();
        assert_eq!(c.server_count(), 3);
        // Round-robin creation lands one file per server.
        let names: Vec<AttributedName> = (0..3).map(|i| name(&format!("name=f{i}"))).collect();
        for n in &names {
            c.machine_mut(0).file_agent_mut().create(n).unwrap();
        }
        // Every name resolves to a distinct server.
        let mut servers = std::collections::HashSet::new();
        for n in &names {
            if let rhodos_naming::SystemName::File { server, .. } =
                c.naming().lock().resolve(n).unwrap()
            {
                servers.insert(server);
            }
        }
        assert_eq!(servers.len(), 3, "one file per server");
        // And I/O routes transparently through the agent.
        for (i, n) in names.iter().enumerate() {
            let od = c.machine_mut(0).file_agent_mut().open(n).unwrap();
            let payload = format!("stored on server {i}");
            c.machine_mut(0)
                .file_agent_mut()
                .write(od, payload.as_bytes())
                .unwrap();
            c.machine_mut(0).file_agent_mut().lseek(od, 0, 0).unwrap();
            assert_eq!(
                c.machine_mut(0)
                    .file_agent_mut()
                    .read(od, payload.len())
                    .unwrap(),
                payload.as_bytes()
            );
            c.machine_mut(0).file_agent_mut().close(od).unwrap();
        }
    }

    #[test]
    fn one_server_crash_leaves_the_others_serving() {
        let mut c = Facility::builder()
            .machines(1)
            .file_servers(2)
            .build()
            .unwrap();
        let a = name("name=on-a");
        let b = name("name=on-b");
        c.machine_mut(0).file_agent_mut().create_on(0, &a).unwrap();
        c.machine_mut(0).file_agent_mut().create_on(1, &b).unwrap();
        for n in [&a, &b] {
            let od = c.machine_mut(0).file_agent_mut().open(n).unwrap();
            c.machine_mut(0)
                .file_agent_mut()
                .write(od, b"data")
                .unwrap();
            c.machine_mut(0).file_agent_mut().close(od).unwrap();
        }
        c.server_at(0)
            .lock()
            .file_service_mut()
            .flush_all()
            .unwrap();
        c.crash_server_at(0);
        // Server 1 still serves its file while server 0 is down.
        let od = c.machine_mut(0).file_agent_mut().open(&b).unwrap();
        assert_eq!(
            c.machine_mut(0).file_agent_mut().read(od, 4).unwrap(),
            b"data"
        );
        c.machine_mut(0).file_agent_mut().close(od).unwrap();
        // After recovery, server 0's file is back too.
        c.recover_server_at(0).unwrap();
        let od = c.machine_mut(0).file_agent_mut().open(&a).unwrap();
        assert_eq!(
            c.machine_mut(0).file_agent_mut().read(od, 4).unwrap(),
            b"data"
        );
        c.machine_mut(0).file_agent_mut().close(od).unwrap();
    }

    #[test]
    fn fids_collide_across_servers_without_confusion() {
        // Both servers allocate FileId(2) (1 is their txn log); the agent
        // must keep the caches and routing apart.
        let mut c = Facility::builder()
            .machines(1)
            .file_servers(2)
            .build()
            .unwrap();
        let a = name("name=alpha");
        let b = name("name=beta");
        let fid_a = c.machine_mut(0).file_agent_mut().create_on(0, &a).unwrap();
        let fid_b = c.machine_mut(0).file_agent_mut().create_on(1, &b).unwrap();
        assert_eq!(
            fid_a, fid_b,
            "same per-server id — the collision under test"
        );
        let od_a = c.machine_mut(0).file_agent_mut().open(&a).unwrap();
        let od_b = c.machine_mut(0).file_agent_mut().open(&b).unwrap();
        c.machine_mut(0)
            .file_agent_mut()
            .write(od_a, b"AAAA")
            .unwrap();
        c.machine_mut(0)
            .file_agent_mut()
            .write(od_b, b"BBBB")
            .unwrap();
        assert_eq!(
            c.machine_mut(0).file_agent_mut().pread(od_a, 0, 4).unwrap(),
            b"AAAA"
        );
        assert_eq!(
            c.machine_mut(0).file_agent_mut().pread(od_b, 0, 4).unwrap(),
            b"BBBB"
        );
        c.machine_mut(0).file_agent_mut().close(od_a).unwrap();
        c.machine_mut(0).file_agent_mut().close(od_b).unwrap();
    }
}

#[cfg(test)]
mod redirection_tests {
    use super::*;
    use rhodos_naming::AttributedName;

    #[test]
    fn stdout_routes_by_descriptor_value() {
        let mut c = Facility::builder().machines(1).build().unwrap();
        let m = c.machine_mut(0);
        let pid = m.processes_mut().spawn();
        // Default: stdout goes to the monitor device.
        m.write_stdout(pid, b"to the monitor").unwrap();
        let monitor = m.device_agent_mut().resolve(1).unwrap();
        assert_eq!(
            m.device_agent_mut().device_mut(monitor).unwrap().output(),
            b"to the monitor"
        );
        // Redirect to a file: the env var takes the sentinel, writes land
        // in the file.
        let name = AttributedName::parse("name=stdout.log").unwrap();
        m.file_agent_mut().create(&name).unwrap();
        let od = m.file_agent_mut().open(&name).unwrap();
        m.redirect_stdout_to_file(pid, od).unwrap();
        assert_eq!(m.processes_mut().get(pid).unwrap().stdout, 100_001);
        m.write_stdout(pid, b"to the file").unwrap();
        m.file_agent_mut().flush(od).unwrap();
        assert_eq!(m.file_agent_mut().pread(od, 0, 11).unwrap(), b"to the file");
        // The monitor did not receive the redirected write.
        assert_eq!(
            m.device_agent_mut().device_mut(monitor).unwrap().output(),
            b"to the monitor"
        );
        m.file_agent_mut().close(od).unwrap();
    }

    #[test]
    fn redirecting_to_a_closed_descriptor_is_refused() {
        let mut c = Facility::builder().machines(1).build().unwrap();
        let m = c.machine_mut(0);
        let pid = m.processes_mut().spawn();
        assert!(m.redirect_stdout_to_file(pid, 999_999).is_err());
    }
}
