//! The distributed master: orchestration of Figure 1, with failure
//! handling.
//!
//! `ClusterRunner::run` executes the full protocol on a simulated
//! cluster of `N` node tasks × `P` workers:
//!
//! 1. orient the input once, with the master's `P` cores;
//! 2. split the oriented adjacency into `N·P` contiguous ranges;
//! 3. start the master's own node task immediately (the paper: "the
//!    master starts the triangle counting operations before the network
//!    transfer has finished"), then replicate the oriented graph to each
//!    remote node in turn, starting each node as soon as its copy lands;
//! 4. gather `Results` (and `Triangles`) messages and sum.
//!
//! # Failure model
//!
//! There is one gather loop and it tolerates failure: an event loop
//! that polls every live node with a short
//! [`Transport::recv_deadline`] and drives three mechanisms:
//!
//! * **Detection** — nodes heartbeat (`Message::Progress`) every
//!   [`ClusterConfig::heartbeat`] while working; a node silent for
//!   longer than [`ClusterConfig::node_deadline`] is declared failed,
//!   distinguishing a wedged node from a merely slow one. Disconnects
//!   and `NodeError` replies fail a node immediately.
//! * **Retry** — a failed replica copy is repeated and a failed node is
//!   respawned (same id, same replica) through the same loop
//!   (`Gather::retry`): up to [`RetryPolicy::max_attempts`] attempts of
//!   each, with deterministic exponential backoff between attempts.
//! * **Reassignment** — a node that exhausts its budget is recorded in
//!   [`ClusterReport::failed_nodes`] and its unfinished ranges are
//!   re-dispatched to surviving nodes (every node holds a full
//!   replica, so any node can compute any range). If *no* node
//!   survives, the master computes the orphans itself on an in-process
//!   fallback node. Each range is counted exactly once: results from a
//!   dispatch that later fails are discarded wholesale, and a range's
//!   summary is committed only when its `Results` message validates.

use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pdtl_core::balance::{plan_ranges, BalanceStrategy};
use pdtl_core::mgt::MgtOptions;
use pdtl_core::orient::{orient_to_disk_with, OrientedGraph};
use pdtl_graph::{DiskGraph, GraphError, Manifest};
use pdtl_io::diskfault::{DiskFaultKind, DiskFaultSpec};
use pdtl_io::{IoStats, MemoryBudget};

use crate::error::{ClusterError, Result};
use crate::fault::{FaultKind, FaultPlan, ResolvedFaults};
use crate::message::{Message, NodeDirectives, NodeFault, WorkerConfig, WorkerSummary};
use crate::netmodel::NetTraffic;
use crate::node::serve_node;
use crate::report::{ClusterReport, NetSnapshot, NodeReport};
use crate::transport::{in_proc_pair, TcpTransport, Transport};

/// How long each poll of a live node waits before rotating to the next.
const POLL: Duration = Duration::from_millis(10);

/// Which transport carries the master/node protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process channels (the default simulated cluster).
    #[default]
    InProc,
    /// Real TCP sockets on loopback — one listener per node task.
    Tcp,
}

/// Retry/backoff parameters for replica copies and node dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (>= 1) at each stage of a node's life — its
    /// replica copy, then its dispatches: the first attempt plus up to
    /// `max_attempts - 1` repeats.
    pub max_attempts: u32,
    /// Base backoff delay; the wait before retry `k` grows
    /// exponentially from it.
    pub base_delay: Duration,
    /// Seed for the deterministic backoff jitter, so retry schedules
    /// reproduce run over run.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_delay: Duration::from_millis(5),
            seed: 0x9D71,
        }
    }
}

impl RetryPolicy {
    /// Deterministic backoff before retrying `node` after `attempt`
    /// failed dispatches: exponential in the attempt, plus seeded
    /// jitter of up to one base delay so simultaneous respawns don't
    /// stampede in lockstep.
    pub fn backoff(&self, node: usize, attempt: u32) -> Duration {
        let exp = self.base_delay.saturating_mul(1u32 << attempt.min(10));
        let mut state = self.seed ^ ((node as u64) << 32) ^ u64::from(attempt);
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let jitter_ms = (state >> 33) % self.base_delay.as_millis().max(1) as u64;
        exp + Duration::from_millis(jitter_ms)
    }
}

/// Configuration of a distributed run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes `N` (>= 1; node 0 is the master).
    pub nodes: usize,
    /// Workers per node `P`.
    pub cores_per_node: usize,
    /// Memory budget per worker (the paper's `M`).
    pub budget: MemoryBudget,
    /// Range-splitting strategy.
    pub balance: BalanceStrategy,
    /// Collect full triangle lists (the `Θ(T)` network term).
    pub listing: bool,
    /// Transport carrying the protocol messages.
    pub transport: TransportKind,
    /// MGT engine knobs, shipped to every worker via its
    /// [`WorkerConfig`].
    pub mgt: MgtOptions,
    /// Retry/backoff budget for replica copies and node dispatches;
    /// what outlives it is reassigned.
    pub retry: RetryPolicy,
    /// Interval between node `Progress` heartbeats while workers run;
    /// zero disables heartbeats (and with them the silence deadline).
    pub heartbeat: Duration,
    /// How long a node may stay silent — no heartbeat, no reply —
    /// before the master declares it failed. Enforced only when
    /// heartbeats are on; keep it several multiples of `heartbeat`.
    pub node_deadline: Duration,
    /// Injected faults (none by default); every directive must be able
    /// to fire on this cluster, see [`ClusterRunner::new`].
    pub fault: FaultPlan,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            nodes: 2,
            cores_per_node: 2,
            budget: MemoryBudget::default(),
            balance: BalanceStrategy::InDegree,
            listing: false,
            transport: TransportKind::default(),
            mgt: MgtOptions::default(),
            retry: RetryPolicy::default(),
            heartbeat: Duration::from_millis(50),
            node_deadline: Duration::from_secs(5),
            fault: FaultPlan::none(),
        }
    }
}

/// The serving thread behind a dispatch, joined when the run ends.
type NodeHandle = JoinHandle<Result<()>>;

/// A live dispatch: one open connection to a serving node thread.
struct Live {
    endpoint: Box<dyn Transport>,
    handle: NodeHandle,
    /// Global range indices of the in-flight dispatch.
    assigned: Vec<usize>,
    /// Whether this dispatch consumed injected-fault charges (initial
    /// and respawn dispatches do; recovery dispatches never do — the
    /// plan models remote hosts failing, not the recovery path).
    faulted: bool,
    /// Triangles buffered for the current dispatch; merged into the
    /// run's listing only when its `Results` validates, discarded on
    /// failure, so a re-dispatched range never lists twice.
    triples: Vec<(u32, u32, u32)>,
    last_heard: Instant,
    started: Instant,
}

/// Liveness of one node slot.
enum SlotState {
    /// A dispatch is in flight.
    Running(Live),
    /// The last dispatch completed; the connection stays open so the
    /// slot can absorb reassigned ranges or a final `Shutdown`.
    Done(Live),
    /// Not serving: never started, terminally failed, or shut down.
    Dead,
}

/// One node's accumulated account across all its dispatches.
struct Slot {
    id: usize,
    /// Replica path dispatches against this slot read from.
    base: String,
    /// Wall time and size of the replica copy that landed (zero for
    /// the master's original and for a copy that never did).
    copy: Duration,
    copy_bytes: u64,
    /// Attempts made at the slot's current stage — replica copy, then
    /// dispatches (the retry budget counts these).
    attempts: u32,
    state: SlotState,
    /// Committed per-worker summaries, in acceptance order.
    summaries: Vec<WorkerSummary>,
    /// Busy wall time summed over successful dispatches.
    wall: Duration,
    /// Ranges absorbed from failed peers.
    reassigned: u64,
    /// Always spawn this slot's node in-process (the master-local
    /// fallback), regardless of the configured transport.
    local: bool,
    last_error: String,
}

impl Slot {
    fn new(id: usize, base: String, local: bool) -> Self {
        Slot {
            id,
            base,
            copy: Duration::ZERO,
            copy_bytes: 0,
            attempts: 0,
            state: SlotState::Dead,
            summaries: Vec::new(),
            wall: Duration::ZERO,
            reassigned: 0,
            local,
            last_error: String::new(),
        }
    }
}

/// Mutable state of one run's dispatch/gather machinery.
struct Gather<'a> {
    cfg: &'a ClusterConfig,
    traffic: Arc<NetTraffic>,
    /// The fault plan's remaining charges.
    faults: ResolvedFaults,
    /// All `N·P` ranges as `(start, end)` pairs, by global index.
    ranges: Vec<(u64, u64)>,
    /// Exactly-once ledger: `completed[g]` is set when range `g`'s
    /// summary is committed, and checked before any commit.
    completed: Vec<bool>,
    slots: Vec<Slot>,
    listed: Option<Vec<(u32, u32, u32)>>,
    retries: u64,
    reassigned: u64,
    failed: Vec<usize>,
    /// Handles of failed dispatches, joined once every endpoint is
    /// dropped (joining earlier could block on a wedged node).
    reap: Vec<NodeHandle>,
    /// The master's own oriented copy, for the local fallback node.
    master_base: String,
}

impl Gather<'_> {
    fn spawn_endpoint(&self, id: usize, local: bool) -> Result<(Box<dyn Transport>, NodeHandle)> {
        let kind = if local {
            TransportKind::InProc
        } else {
            self.cfg.transport
        };
        Ok(match kind {
            TransportKind::InProc => {
                let (master_end, node_end) = in_proc_pair(self.traffic.clone());
                let handle = std::thread::spawn(move || serve_node(&node_end));
                (Box::new(master_end) as Box<dyn Transport>, handle)
            }
            TransportKind::Tcp => {
                let node = crate::tcp::TcpNode::spawn(id, self.traffic.clone())?;
                let addr = node.addr.clone();
                let handle = std::thread::spawn(move || node.join());
                let master_end = TcpTransport::connect(&addr, self.traffic.clone())?;
                (Box::new(master_end), handle)
            }
        })
    }

    /// The `Config` record dispatching `assigned` to slot `i` — the one
    /// builder under initial, respawn and recovery dispatches.
    fn config(
        &self,
        i: usize,
        assigned: &[usize],
        fault: NodeFault,
        read_fault: Option<u64>,
    ) -> Message {
        let mgt = &self.cfg.mgt;
        Message::Config {
            node: self.slots[i].id as u32,
            graph_base: self.slots[i].base.clone(),
            workers: assigned
                .iter()
                .map(|&g| WorkerConfig {
                    start: self.ranges[g].0,
                    end: self.ranges[g].1,
                    budget_edges: self.cfg.budget.edges as u64,
                    scan_pruning: mgt.scan_pruning,
                    backend: mgt.backend,
                    io_latency_us: mgt.io_latency.as_micros().min(u32::MAX as u128) as u32,
                    read_fault,
                    codec: mgt.codec,
                })
                .collect(),
            listing: self.cfg.listing,
            directives: NodeDirectives {
                heartbeat_ms: self.cfg.heartbeat.as_millis().min(u32::MAX as u128) as u32,
                fault,
            },
        }
    }

    /// One dispatch attempt of `assigned` to slot `i`: over the slot's
    /// open connection when its last dispatch completed, to a freshly
    /// spawned node thread otherwise. Consumes fault charges when
    /// `faulted`. A connection that will not take the record is retired,
    /// so the next attempt spawns afresh from the slot's replica.
    fn try_dispatch(&mut self, i: usize, assigned: &[usize], faulted: bool) -> Result<()> {
        let (id, local) = (self.slots[i].id, self.slots[i].local);
        self.slots[i].attempts += 1;
        let (fault, read_fault) = if faulted {
            self.faults.dispatch_faults(id)
        } else {
            (NodeFault::None, None)
        };
        let (endpoint, handle) = match std::mem::replace(&mut self.slots[i].state, SlotState::Dead)
        {
            SlotState::Done(live) => (live.endpoint, live.handle),
            _ => self.spawn_endpoint(id, local)?,
        };
        if let Err(e) = endpoint.send(&self.config(i, assigned, fault, read_fault)) {
            drop(endpoint);
            self.reap.push(handle);
            return Err(e);
        }
        self.slots[i].state = SlotState::Running(Live {
            endpoint,
            handle,
            assigned: assigned.to_vec(),
            faulted,
            triples: Vec::new(),
            last_heard: Instant::now(),
            started: Instant::now(),
        });
        Ok(())
    }

    /// One replica-copy attempt for slot `i`: copy the oriented graph
    /// to the slot's base, apply any injected corruption, and digest the
    /// landed files against the manifest they shipped with — a mismatch
    /// is a failed copy, and the retry re-copies from the healthy master
    /// original (self-healing).
    fn try_copy(&mut self, i: usize, og: &OrientedGraph, stats: &Arc<IoStats>) -> Result<()> {
        let id = self.slots[i].id;
        self.slots[i].attempts += 1;
        let started = Instant::now();
        if self.faults.copy_fail(id) {
            return Err(pdtl_io::IoError::malformed(
                "<fault-injected>",
                format!("injected replica copy failure for node {id}"),
            )
            .into());
        }
        let base = Path::new(&self.slots[i].base);
        let bytes = og.replicate_to(base, stats)?;
        if let Some(target) = self.faults.corrupt_replica(id) {
            // Injected silent media corruption on the landed replica,
            // seeded per (node, attempt) so runs are reproducible.
            DiskFaultSpec {
                kind: DiskFaultKind::BitFlip,
                target,
                seed: 0x5D15_C0DE ^ ((id as u64) << 8) ^ u64::from(self.slots[i].attempts),
            }
            .apply(base)?;
        }
        verify_replica(base)?;
        self.traffic.add_graph(bytes);
        self.slots[i].copy = started.elapsed();
        self.slots[i].copy_bytes = bytes;
        Ok(())
    }

    /// The one retry loop, under replica copies and node dispatches
    /// alike: run `op` against slot `i` until it succeeds or the slot's
    /// attempt budget ([`RetryPolicy::max_attempts`]; `op` counts its
    /// own attempts) is spent, backing off before every repeat. `failure`
    /// is the error of an attempt already made and lost — a dispatch
    /// that died in flight. Exhaustion records the node as failed and
    /// leaves the slot dead, its ranges for reassignment.
    fn retry(
        &mut self,
        i: usize,
        mut failure: Option<String>,
        mut op: impl FnMut(&mut Self) -> Result<()>,
    ) -> bool {
        loop {
            if let Some(detail) = failure.take() {
                let policy = &self.cfg.retry;
                let slot = &mut self.slots[i];
                slot.last_error = detail;
                if slot.attempts >= policy.max_attempts {
                    slot.state = SlotState::Dead;
                    self.failed.push(slot.id);
                    return false;
                }
                self.retries += 1;
                std::thread::sleep(policy.backoff(slot.id, slot.attempts));
            }
            match op(self) {
                Ok(()) => return true,
                Err(e) => failure = Some(e.to_string()),
            }
        }
    }

    /// Dispatch `assigned` to slot `i`, retrying under the policy.
    fn start(&mut self, i: usize, assigned: Vec<usize>, faulted: bool) {
        self.retry(i, None, |g| g.try_dispatch(i, &assigned, faulted));
    }

    /// The one failure entry point for a dispatch in flight on slot
    /// `i` — error reply, bad `Results`, disconnect or deadline
    /// silence: the endpoint is dropped (unblocking the node thread,
    /// which is reaped later), its buffered triangles are discarded,
    /// and the same ranges are re-dispatched under the retry policy.
    fn fail(&mut self, i: usize, detail: String) {
        let state = std::mem::replace(&mut self.slots[i].state, SlotState::Dead);
        let SlotState::Running(live) = state else {
            self.slots[i].state = state;
            return;
        };
        drop(live.endpoint);
        self.reap.push(live.handle);
        self.retry(i, Some(detail), |g| {
            g.try_dispatch(i, &live.assigned, live.faulted)
        });
    }

    /// Validate and commit a `Results` message from slot `i`. An `Err`
    /// carries the mismatch detail and leaves the slot running so the
    /// caller can fail it (the dispatch's ranges stay uncommitted).
    fn accept(
        &mut self,
        i: usize,
        from: u32,
        workers: Vec<WorkerSummary>,
    ) -> std::result::Result<(), String> {
        let state = std::mem::replace(&mut self.slots[i].state, SlotState::Dead);
        let mut live = match state {
            SlotState::Running(l) => l,
            other => {
                self.slots[i].state = other;
                return Err("Results from a node with no dispatch in flight".into());
            }
        };
        let check = || -> std::result::Result<(), String> {
            if from as usize != self.slots[i].id {
                return Err(format!(
                    "Results claim node {from}, slot is node {}",
                    self.slots[i].id
                ));
            }
            if workers.len() != live.assigned.len() {
                return Err(format!(
                    "{} summaries for {} assigned ranges",
                    workers.len(),
                    live.assigned.len()
                ));
            }
            for (s, &g) in workers.iter().zip(live.assigned.iter()) {
                let (start, end) = self.ranges[g];
                if s.start != start || s.end != end {
                    return Err(format!(
                        "summary for [{}, {}) does not match assigned range [{start}, {end})",
                        s.start, s.end
                    ));
                }
                if self.completed[g] {
                    return Err(format!("range [{start}, {end}) already counted"));
                }
            }
            Ok(())
        };
        if let Err(detail) = check() {
            live.triples.clear();
            self.slots[i].state = SlotState::Running(live);
            return Err(detail);
        }
        for &g in &live.assigned {
            self.completed[g] = true;
        }
        if let Some(list) = self.listed.as_mut() {
            list.append(&mut live.triples);
        } else {
            live.triples.clear();
        }
        let slot = &mut self.slots[i];
        slot.wall += live.started.elapsed();
        slot.summaries.extend(workers);
        live.assigned.clear();
        slot.state = SlotState::Done(live);
        Ok(())
    }

    /// The gather loop: poll every running slot with a short deadline,
    /// commit results, and route every failure — error reply,
    /// disconnect, or deadline silence — through [`fail`](Self::fail).
    fn gather(&mut self) {
        while self
            .slots
            .iter()
            .any(|s| matches!(s.state, SlotState::Running(_)))
        {
            for i in 0..self.slots.len() {
                let SlotState::Running(live) = &mut self.slots[i].state else {
                    continue;
                };
                let event = live.endpoint.recv_deadline(POLL);
                if event.is_ok() {
                    live.last_heard = Instant::now();
                }
                match event {
                    Ok(Message::Progress { .. }) => {}
                    Ok(Message::Triangles { triples, .. }) => live.triples.extend(triples),
                    Ok(Message::Results { node, workers }) => {
                        if let Err(detail) = self.accept(i, node, workers) {
                            self.fail(i, detail);
                        }
                    }
                    Ok(Message::NodeError { detail, .. }) => self.fail(i, detail),
                    Ok(other) => self.fail(i, format!("unexpected message from node: {other:?}")),
                    Err(ClusterError::Timeout { .. }) => {
                        if self.cfg.heartbeat > Duration::ZERO
                            && live.last_heard.elapsed() > self.cfg.node_deadline
                        {
                            self.fail(
                                i,
                                format!("no progress within {:?}", self.cfg.node_deadline),
                            );
                        }
                    }
                    Err(e) => self.fail(i, e.to_string()),
                }
            }
        }
    }

    /// Reassign every uncompleted range until none remain: distribute
    /// orphans over surviving nodes, or — when no node survives — over
    /// a master-local in-process fallback. Recovery dispatches consume
    /// no fault charges: the plan models remote hosts failing, not the
    /// recovery path or the master's own process.
    fn recover(&mut self) -> Result<()> {
        let mut fallback_used = false;
        loop {
            let missing: Vec<usize> = (0..self.ranges.len())
                .filter(|&g| !self.completed[g])
                .collect();
            if missing.is_empty() {
                return Ok(());
            }
            self.reassigned += missing.len() as u64;
            let mut survivors: Vec<usize> = (0..self.slots.len())
                .filter(|&i| matches!(self.slots[i].state, SlotState::Done(_)))
                .collect();
            if survivors.is_empty() {
                if fallback_used {
                    let detail = self
                        .slots
                        .iter()
                        .rev()
                        .map(|s| s.last_error.clone())
                        .find(|e| !e.is_empty())
                        .unwrap_or_else(|| "no surviving node".into());
                    return Err(ClusterError::NodeFailed {
                        node: 0,
                        attempts: self.slots.iter().map(|s| s.attempts).sum(),
                        detail,
                    });
                }
                fallback_used = true;
                survivors.push(self.slots.len());
                self.slots
                    .push(Slot::new(0, self.master_base.clone(), true));
            }
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); survivors.len()];
            for (k, g) in missing.into_iter().enumerate() {
                groups[k % survivors.len()].push(g);
            }
            for (i, group) in survivors.into_iter().zip(groups) {
                if !group.is_empty() {
                    self.slots[i].reassigned += group.len() as u64;
                    self.start(i, group, false);
                }
            }
            self.gather();
        }
    }

    /// Shut every surviving node down and join all node threads. Safe
    /// only once no dispatch is in flight: endpoints are dropped
    /// first, so even wedged or panicked threads unblock and exit.
    fn finish(&mut self) {
        for slot in &mut self.slots {
            let state = std::mem::replace(&mut slot.state, SlotState::Dead);
            if let SlotState::Done(live) | SlotState::Running(live) = state {
                let _ = live.endpoint.send(&Message::Shutdown);
                drop(live.endpoint);
                self.reap.push(live.handle);
            }
        }
        for handle in self.reap.drain(..) {
            // Failures were already accounted when they happened; a
            // panic payload here belongs to a node we gave up on.
            let _ = handle.join();
        }
    }
}

/// The distributed PDTL runner (master side).
#[derive(Debug, Clone)]
pub struct ClusterRunner {
    config: ClusterConfig,
}

impl ClusterRunner {
    /// Build a runner, validating the configuration — including that
    /// every explicit fault directive can fire: one naming a node the
    /// cluster does not have, or a copy fault on node 0 (whose graph is
    /// the master's original, never copied), would leave a fault run
    /// silently fault-free. Seeded kills clamp to the node count.
    pub fn new(config: ClusterConfig) -> Result<Self> {
        if config.nodes == 0 {
            return Err(ClusterError::Config("nodes must be >= 1".into()));
        }
        if config.cores_per_node == 0 {
            return Err(ClusterError::Config("cores_per_node must be >= 1".into()));
        }
        // A zero budget would run as 1-edge chunks: |E*| iterations.
        if config.budget.edges == 0 {
            return Err(ClusterError::Config(
                "memory budget must be >= 1 edge".into(),
            ));
        }
        if config.retry.max_attempts == 0 {
            return Err(ClusterError::Config("max_attempts must be >= 1".into()));
        }
        for spec in &config.fault.specs {
            let copy = matches!(
                spec.kind,
                FaultKind::CopyFail | FaultKind::CorruptReplica(_)
            );
            let why = if spec.node as usize >= config.nodes {
                format!("the cluster has nodes 0..{}", config.nodes)
            } else if copy && spec.node == 0 {
                "node 0 runs on the master's original, which is never copied".into()
            } else {
                continue;
            };
            return Err(ClusterError::Config(format!(
                "fault `{spec}` can never fire: {why}"
            )));
        }
        Ok(Self { config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Run the full distributed protocol on the undirected PDTL-format
    /// graph at `input`, using `work_dir` for the oriented graph and the
    /// per-node replicas.
    pub fn run(&self, input: &DiskGraph, work_dir: &Path) -> Result<ClusterReport> {
        let cfg = &self.config;
        std::fs::create_dir_all(work_dir)
            .map_err(|e| pdtl_io::IoError::os("mkdir", work_dir, e))?;
        // Full-digest the input against its integrity manifest before
        // orienting or replicating anything: corruption must surface as
        // a typed error here, never as a wrong count downstream.
        input.verify_full()?;
        let wall_start = Instant::now();
        let master_stats = IoStats::new();
        let traffic = NetTraffic::new();

        // 1. Orientation, once, on the master's cores.
        let oriented_base = work_dir.join("oriented");
        let (og, orientation) = orient_to_disk_with(
            input,
            &oriented_base,
            cfg.cores_per_node,
            cfg.mgt.codec,
            &master_stats,
        )?;

        // 2. N*P contiguous ranges.
        let total_workers = cfg.nodes * cfg.cores_per_node;
        let (plan, balancing) = plan_ranges(&og, cfg.budget, total_workers, cfg.balance);

        let mut g = Gather {
            cfg,
            traffic: traffic.clone(),
            faults: cfg.fault.resolve(cfg.nodes),
            ranges: plan.iter().map(|(r, _)| (r.start, r.end)).collect(),
            completed: vec![false; plan.len()],
            slots: Vec::with_capacity(cfg.nodes),
            listed: cfg.listing.then(Vec::new),
            retries: 0,
            reassigned: 0,
            failed: Vec::new(),
            reap: Vec::new(),
            master_base: oriented_base.to_string_lossy().into_owned(),
        };

        // 3. Master's node starts immediately on the original oriented
        //    copy; remote nodes start as their replicas land ("the
        //    nodes start calculating as soon as they receive the
        //    files"). A node whose replica never lands stays dead, its
        //    ranges left for reassignment; one whose replica lands gets
        //    a fresh attempt budget for its dispatches. (Slot `id` is
        //    node `id` here; only the fallback slot comes later.)
        for id in 0..cfg.nodes {
            let base = match id {
                0 => g.master_base.clone(),
                _ => work_dir
                    .join(format!("node{id}"))
                    .join("oriented")
                    .to_string_lossy()
                    .into_owned(),
            };
            g.slots.push(Slot::new(id, base, false));
            if id == 0 || g.retry(id, None, |g| g.try_copy(id, &og, &master_stats)) {
                g.slots[id].attempts = 0;
                let assigned = (id * cfg.cores_per_node..(id + 1) * cfg.cores_per_node).collect();
                g.start(id, assigned, true);
            }
        }

        // 4. Gather, then reassign whatever failed nodes left behind.
        g.gather();
        g.recover()?;
        g.finish();
        debug_assert!(g.completed.iter().all(|&c| c), "every range accounted");

        // 5. Fold slot accounts into per-node reports (a node id can
        //    own several slots after the master-local fallback).
        let mut nodes: Vec<NodeReport> = Vec::new();
        for slot in &g.slots {
            if slot.summaries.is_empty() {
                continue;
            }
            if let Some(existing) = nodes.iter_mut().find(|n| n.node == slot.id) {
                existing.workers.extend(slot.summaries.iter().cloned());
                existing.wall += slot.wall;
                existing.reassigned_ranges += slot.reassigned;
            } else {
                nodes.push(NodeReport {
                    node: slot.id,
                    copy: slot.copy,
                    copy_bytes: slot.copy_bytes,
                    workers: slot.summaries.clone(),
                    wall: slot.wall,
                    reassigned_ranges: slot.reassigned,
                });
            }
        }
        nodes.sort_by_key(|n| n.node);
        let mut failed_nodes = g.failed.clone();
        failed_nodes.sort_unstable();
        failed_nodes.dedup();

        let triangles = nodes.iter().map(|n| n.triangles()).sum();
        Ok(ClusterReport {
            triangles,
            orientation,
            balancing,
            plan,
            nodes,
            network: NetSnapshot {
                config: traffic.config_bytes(),
                graph: traffic.graph_bytes(),
                result: traffic.result_bytes(),
                triangles: traffic.triangle_bytes(),
                control: traffic.control_bytes(),
            },
            wall: wall_start.elapsed(),
            listed: g.listed,
            retries: g.retries,
            reassigned_ranges: g.reassigned,
            failed_nodes,
        })
    }
}

/// Full-digest a freshly landed replica against the manifest it
/// shipped with. The master orients its own base, and orientation
/// always writes a manifest, so a replica without one is a failed copy
/// — as is any digest or length mismatch — and the retry re-copies it.
fn verify_replica(base: &Path) -> Result<()> {
    let Some(m) = Manifest::load(base)? else {
        return Err(GraphError::Corrupt {
            path: Manifest::path_for(base),
            detail: "replica landed without its manifest".into(),
        }
        .into());
    };
    m.verify_full(base)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netmodel::NetModel;
    use pdtl_core::theory;
    use pdtl_graph::gen::rmat::rmat;
    use pdtl_graph::verify::triangle_count;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("pdtl-cluster-tests")
            .join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_input(tag: &str, seed: u64) -> (DiskGraph, u64, u64, u32) {
        let g = rmat(7, seed).unwrap();
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, tmpdir(tag).join("g"), &stats).unwrap();
        (dg, triangle_count(&g), g.num_edges(), g.num_vertices())
    }

    fn cfg(nodes: usize, cores: usize) -> ClusterConfig {
        ClusterConfig {
            nodes,
            cores_per_node: cores,
            budget: MemoryBudget::edges(512),
            balance: BalanceStrategy::InDegree,
            listing: false,
            transport: TransportKind::default(),
            mgt: Default::default(),
            retry: RetryPolicy::default(),
            heartbeat: Duration::from_millis(25),
            node_deadline: Duration::from_secs(5),
            fault: FaultPlan::none(),
        }
    }

    #[test]
    fn counts_match_oracle_across_cluster_shapes() {
        let (input, expected, _, _) = write_input("shapes", 51);
        for (nodes, cores) in [(1, 1), (1, 4), (2, 2), (3, 1), (4, 2)] {
            let runner = ClusterRunner::new(cfg(nodes, cores)).unwrap();
            let report = runner
                .run(&input, &tmpdir(&format!("shapes-{nodes}x{cores}")))
                .unwrap();
            assert_eq!(report.triangles, expected, "{nodes}x{cores}");
            assert_eq!(report.nodes.len(), nodes);
            assert_eq!(report.node_triangle_sum(), expected);
            assert!(report.nodes.iter().all(|n| n.workers.len() == cores));
            assert_eq!(report.retries, 0);
            assert_eq!(report.reassigned_ranges, 0);
            assert!(report.failed_nodes.is_empty());
        }
    }

    #[test]
    fn replication_traffic_matches_graph_size() {
        let (input, _, _, _) = write_input("traffic", 52);
        let runner = ClusterRunner::new(cfg(3, 2)).unwrap();
        let report = runner.run(&input, &tmpdir("traffic-run")).unwrap();
        // graph copied to N-1 = 2 remote nodes
        let oriented_bytes: u64 = report.nodes[1].copy_bytes;
        assert!(oriented_bytes > 0);
        assert_eq!(report.network.graph, 2 * oriented_bytes);
        assert!(report.network.config > 0);
        assert!(report.network.result > 0);
        assert_eq!(report.network.triangles, 0, "no listing traffic");
        // the runner shuts nodes down over the control plane
        assert!(report.network.control > 0);
    }

    #[test]
    fn network_within_theorem_iv3_bound() {
        let (input, t, m, _) = write_input("bound", 53);
        let (nodes, cores) = (4usize, 2usize);
        let runner = ClusterRunner::new(cfg(nodes, cores)).unwrap();
        let report = runner.run(&input, &tmpdir("bound-run")).unwrap();
        let bound = theory::pdtl_network_bound_bytes(nodes as u64, cores as u64, m, 0);
        // The theorem bounds config + graph + result + triangle bytes;
        // control-plane liveness traffic scales with wall time, not
        // with N, P or T, and is excluded.
        assert!(
            report.network.theorem_bytes() <= 4 * bound,
            "traffic {} exceeds 4x bound {}",
            report.network.theorem_bytes(),
            bound
        );
        let _ = t;
    }

    #[test]
    fn listing_collects_every_triangle_with_traffic() {
        let (input, expected, _, _) = write_input("listing", 54);
        let mut c = cfg(2, 2);
        c.listing = true;
        let runner = ClusterRunner::new(c).unwrap();
        let report = runner.run(&input, &tmpdir("listing-run")).unwrap();
        let listed = report.listed.as_ref().unwrap();
        assert_eq!(listed.len() as u64, expected);
        assert!(report.network.triangles >= expected * 12);
        // no duplicates across the cluster
        let mut canon: Vec<_> = listed
            .iter()
            .map(|&(a, b, c)| {
                let mut t = [a, b, c];
                t.sort_unstable();
                t
            })
            .collect();
        canon.sort_unstable();
        canon.dedup();
        assert_eq!(canon.len() as u64, expected);
    }

    #[test]
    fn remote_nodes_record_copy_times() {
        let (input, _, _, _) = write_input("copy", 55);
        let runner = ClusterRunner::new(cfg(3, 1)).unwrap();
        let report = runner.run(&input, &tmpdir("copy-run")).unwrap();
        assert_eq!(report.nodes[0].copy_bytes, 0, "master owns the original");
        assert!(report.nodes[1].copy_bytes > 0);
        assert!(report.nodes[2].copy_bytes > 0);
        assert!(report.avg_copy() > Duration::ZERO);
        assert!(report.modeled_avg_copy(&NetModel::default()) > 0.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(ClusterRunner::new(cfg(0, 1)).is_err());
        assert!(ClusterRunner::new(cfg(1, 0)).is_err());
        let mut zero_attempts = cfg(2, 1);
        zero_attempts.retry.max_attempts = 0;
        assert!(ClusterRunner::new(zero_attempts).is_err());
        let mut zero_budget = cfg(2, 1);
        zero_budget.budget = MemoryBudget::edges(0);
        assert!(matches!(
            ClusterRunner::new(zero_budget),
            Err(ClusterError::Config(_))
        ));
    }

    #[test]
    fn fault_specs_that_can_never_fire_are_rejected() {
        let with_fault = |nodes, plan: &str| {
            let mut c = cfg(nodes, 1);
            c.fault = FaultPlan::parse(plan).unwrap();
            ClusterRunner::new(c)
        };
        for (nodes, plan) in [
            (2, "panic@5"),
            (2, "delay@2:10"),
            (3, "copyfail@0"),
            (3, "corrupt@0x1:adj"),
            (3, "panic@1;copyfail@3"),
        ] {
            let err = with_fault(nodes, plan).unwrap_err().to_string();
            assert!(err.contains("can never fire"), "{plan}: {err}");
        }
        let err = with_fault(2, "corrupt@0x1:adj").unwrap_err().to_string();
        assert!(err.contains("`corrupt@0x1:adj`"), "names the spec: {err}");
        for (nodes, plan) in [
            (2, "panic@1"),
            (1, "panic@0x1;shortread@0:8"),
            (3, "copyfail@2;corrupt@1:mft"),
            (2, "seed=1;kill=5"),
        ] {
            assert!(with_fault(nodes, plan).is_ok(), "{plan} on {nodes} nodes");
        }
    }

    #[test]
    fn tcp_transport_full_protocol() {
        let (input, expected, _, _) = write_input("tcp", 57);
        let mut c = cfg(3, 2);
        c.transport = TransportKind::Tcp;
        let report = ClusterRunner::new(c)
            .unwrap()
            .run(&input, &tmpdir("tcp-run"))
            .unwrap();
        assert_eq!(report.triangles, expected);
        // TCP frames include 4-byte headers, so traffic is strictly
        // larger than the in-proc encoding but still within the bound.
        assert!(report.network.config > 0);
    }

    #[test]
    fn equal_edges_strategy_also_correct() {
        let (input, expected, _, _) = write_input("naive", 56);
        let mut c = cfg(2, 3);
        c.balance = BalanceStrategy::EqualEdges;
        let report = ClusterRunner::new(c)
            .unwrap()
            .run(&input, &tmpdir("naive-run"))
            .unwrap();
        assert_eq!(report.triangles, expected);
    }

    #[test]
    fn a_replica_without_its_manifest_is_a_failed_copy() {
        let (input, _, _, _) = write_input("no-mft", 58);
        let dir = tmpdir("no-mft-run");
        let stats = IoStats::new();
        let codec = MgtOptions::default().codec;
        let (og, _) = orient_to_disk_with(&input, dir.join("oriented"), 1, codec, &stats).unwrap();
        let replica = dir.join("node1").join("oriented");
        og.replicate_to(&replica, &stats).unwrap();
        verify_replica(&replica).unwrap();
        std::fs::remove_file(Manifest::path_for(&replica)).unwrap();
        let err = verify_replica(&replica).unwrap_err().to_string();
        assert!(err.contains("without its manifest"), "{err}");
    }

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let rp = RetryPolicy::default();
        assert_eq!(rp.backoff(1, 1), rp.backoff(1, 1));
        assert!(rp.backoff(1, 4) > rp.backoff(1, 1));
        // jitter differs across nodes at the same attempt, at least
        // somewhere in a small sweep
        assert!((0..8).any(|n| rp.backoff(n, 1) != rp.backoff(n + 8, 1)));
    }
}
