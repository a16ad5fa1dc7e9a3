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
//! Every decision — that a node failed, whether to retry it (up to
//! [`RetryPolicy::max_attempts`] per stage, after a deterministic
//! backoff), where its ranges go, which `Results` commit — is made by
//! one pure state machine in `master.rs`. This module is the one loop
//! that drives it, owning the connections, node threads, replica copies
//! and the clock. It polls every dispatch in flight with a short
//! [`Transport::recv_deadline`], and a backoff is a deadline waited out
//! while every other node is polled. Nodes heartbeat every
//! [`ClusterConfig::heartbeat`], so a node silent past
//! [`ClusterConfig::node_deadline`] is wedged, not slow. Details:
//! `docs/ARCHITECTURE.md`, "Failure model".

use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pdtl_core::balance::{plan_ranges, BalanceStrategy};
use pdtl_core::mgt::MgtOptions;
use pdtl_core::orient::{orient_to_disk_with, OrientedGraph};
use pdtl_core::MAX_CORES;
use pdtl_graph::{DiskGraph, Manifest};
use pdtl_io::diskfault::DiskFaultSpec;
use pdtl_io::{IoStats, MemoryBudget};

use crate::error::{ClusterError, Result};
use crate::fault::{FaultKind, FaultPlan};
use crate::master::{Do, Event, Master, What};
use crate::message::Message;
use crate::node::serve_node;
use crate::report::{ClusterReport, NetSnapshot};
use crate::traffic::NetTraffic;
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
    /// replica copy, its own ranges, then each batch of ranges
    /// reassigned to it: the first attempt plus up to
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
    /// [`WorkerConfig`](crate::message::WorkerConfig).
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

/// The serving thread behind a connection, joined when the run ends.
type NodeHandle = JoinHandle<Result<()>>;

/// One open connection to a serving node thread.
struct Conn {
    endpoint: Box<dyn Transport>,
    handle: NodeHandle,
    /// The dispatch sent over it last; its frames answer this number.
    dispatch: u64,
    started: Instant,
    last_heard: Instant,
}

/// Performs what [`Master`] decides, and reports back.
struct Driver<'a> {
    cfg: &'a ClusterConfig,
    traffic: Arc<NetTraffic>,
    og: &'a OrientedGraph,
    stats: &'a Arc<IoStats>,
    /// Open connections, by node.
    conns: Vec<Option<Conn>>,
    /// Backoff deadlines: `(when, node, dispatch)`.
    waits: Vec<(Instant, usize, u64)>,
    /// Threads behind dropped connections, joined at the end (joining
    /// earlier could block on a wedged node).
    reap: Vec<NodeHandle>,
}

impl Driver<'_> {
    /// The one loop. Actions are performed depth first — one answered at
    /// once (a copy, a `Config` that does not go out) is stepped before
    /// the next, so each node starts as soon as its replica lands. Then
    /// a round feeds back the passed backoff deadlines and one poll of
    /// each dispatch in flight, none waiting past the earliest deadline;
    /// with nothing to poll (every live node backing off) it parks. Once
    /// the master has finished, every node is shut down.
    fn run(&mut self, master: &mut Master) {
        let silence = (!self.cfg.heartbeat.is_zero()).then_some(self.cfg.node_deadline);
        let mut todo = master.start();
        loop {
            todo.reverse();
            while let Some((i, dispatch, what)) = todo.pop() {
                if let Some(what) = self.perform(i, dispatch, what) {
                    todo.extend(master.step((i, dispatch, what)).into_iter().rev());
                }
            }
            if master.finished() {
                return self.finish();
            }
            let now = Instant::now();
            let (due, later) = self.waits.drain(..).partition(|w| w.0 <= now);
            self.waits = later;
            let mut events: Vec<Event> = due
                .into_iter()
                .map(|(_, i, d)| (i, d, What::Woke))
                .collect();
            let wait = self
                .waits
                .iter()
                .fold(POLL, |w, &(when, ..)| w.min(when - now));
            let mut polled = false;
            for (i, conn) in self.conns.iter_mut().enumerate() {
                let Some(conn) = conn.as_mut().filter(|c| master.awaits(i, c.dispatch)) else {
                    continue;
                };
                polled = true;
                let what = match conn.endpoint.recv_deadline(wait) {
                    Ok(msg) => {
                        conn.last_heard = Instant::now();
                        What::Frame(msg, conn.started.elapsed())
                    }
                    Err(ClusterError::Timeout { .. }) => {
                        match silence.filter(|&d| conn.last_heard.elapsed() > d) {
                            Some(d) => What::Lost(format!("no progress within {d:?}")),
                            None => continue,
                        }
                    }
                    Err(e) => What::Lost(e.to_string()),
                };
                events.push((i, conn.dispatch, what));
            }
            if !polled && events.is_empty() {
                std::thread::park_timeout(wait);
            }
            todo = events.into_iter().flat_map(|e| master.step(e)).collect();
        }
    }

    /// Perform one action; returns its answer when it has one at once.
    fn perform(&mut self, i: usize, dispatch: u64, what: Do) -> Option<What> {
        match what {
            Do::Copy(base, corrupt) => {
                let started = Instant::now();
                let landed = self.copy(Path::new(&base), corrupt);
                let landed = landed.map(|bytes| (started.elapsed(), bytes));
                Some(What::Copied(landed.map_err(|e| e.to_string())))
            }
            Do::Dispatch(config, local) => {
                let sent = self.dispatch(i, dispatch, &config, local);
                sent.err().map(|e| What::Lost(e.to_string()))
            }
            Do::Retire => {
                self.reap
                    .extend(self.conns[i].take().map(|conn| conn.handle));
                None
            }
            Do::Wait(delay) => {
                self.waits.push((Instant::now() + delay, i, dispatch));
                None
            }
        }
    }

    /// Copy the oriented graph to `base`, apply any injected corruption,
    /// and digest the landed files against the manifest they shipped
    /// with — a mismatch is a failed copy, and the retry re-copies from
    /// the healthy master original (self-healing).
    fn copy(&self, base: &Path, corrupt: Option<DiskFaultSpec>) -> Result<u64> {
        let bytes = self.og.replicate_to(base, self.stats)?;
        if let Some(spec) = corrupt {
            spec.apply(base)?;
        }
        verify_replica(base)?;
        self.traffic.add_graph(bytes);
        Ok(bytes)
    }

    /// Send `config` over node `i`'s idle connection, or a fresh one to
    /// a new node thread (in-process when `local`). A connection that
    /// will not take it is dropped: the next attempt starts afresh.
    fn dispatch(&mut self, i: usize, dispatch: u64, config: &Message, local: bool) -> Result<()> {
        let (endpoint, handle) = match self.conns[i].take() {
            Some(conn) => (conn.endpoint, conn.handle),
            None if local || self.cfg.transport == TransportKind::InProc => {
                let (master_end, node_end) = in_proc_pair(self.traffic.clone());
                let handle = std::thread::spawn(move || serve_node(&node_end));
                (Box::new(master_end) as Box<dyn Transport>, handle)
            }
            None => {
                let node = crate::tcp::TcpNode::spawn(i, self.traffic.clone())?;
                let endpoint = TcpTransport::connect(&node.addr, self.traffic.clone())?;
                (
                    Box::new(endpoint) as _,
                    std::thread::spawn(move || node.join()),
                )
            }
        };
        if let Err(e) = endpoint.send(config) {
            self.reap.push(handle);
            return Err(e);
        }
        let now = Instant::now();
        let (started, last_heard) = (now, now);
        self.conns[i] = Some(Conn {
            endpoint,
            handle,
            dispatch,
            started,
            last_heard,
        });
        Ok(())
    }

    /// Shut every open connection down and join all node threads.
    /// Endpoints are dropped first, so even wedged or panicked threads
    /// unblock and exit.
    fn finish(&mut self) {
        for conn in self.conns.iter_mut().filter_map(Option::take) {
            let _ = conn.endpoint.send(&Message::Shutdown);
            self.reap.push(conn.handle);
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
    /// silently fault-free. Seeded kills clamp to the node count. So
    /// would `mgt.read_fault`, which no cluster worker reads: the fault
    /// plan's `shortread@<node>:<u32s>` is the cluster's short read.
    pub fn new(config: ClusterConfig) -> Result<Self> {
        // Every node and every worker is a thread of this process.
        for (name, count) in [
            ("nodes", config.nodes),
            ("cores_per_node", config.cores_per_node),
        ] {
            if !(1..=MAX_CORES as usize).contains(&count) {
                return Err(ClusterError::Config(format!(
                    "{name} must be in 1..={MAX_CORES}, got {count}"
                )));
            }
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
        if config.mgt.read_fault.is_some() {
            let fix = "use a `shortread@<node>:<u32s>` fault directive";
            let why = format!("`mgt.read_fault` can never fire on a cluster: {fix}");
            return Err(ClusterError::Config(why));
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

        // 3–4. Node 0 starts at once on the master's original, every
        //    other node as soon as its replica lands ("the nodes start
        //    calculating as soon as they receive the files"); gather.
        let bases = (0..cfg.nodes)
            .map(|id| match id {
                0 => oriented_base.clone(),
                _ => work_dir.join(format!("node{id}")).join("oriented"),
            })
            .map(|base| base.to_string_lossy().into_owned())
            .collect();
        let ranges = plan.iter().map(|(r, _)| (r.start, r.end)).collect();
        let mut master = Master::new(cfg, ranges, bases);
        let mut driver = Driver {
            cfg,
            traffic: traffic.clone(),
            og: &og,
            stats: &master_stats,
            conns: (0..cfg.nodes).map(|_| None).collect(),
            waits: Vec::new(),
            reap: Vec::new(),
        };
        driver.run(&mut master);
        Ok(ClusterReport {
            orientation,
            balancing,
            plan,
            network: NetSnapshot {
                config: traffic.config_bytes(),
                graph: traffic.graph_bytes(),
                result: traffic.result_bytes(),
                triangles: traffic.triangle_bytes(),
                control: traffic.control_bytes(),
            },
            wall: wall_start.elapsed(),
            ..master.finish()?
        })
    }
}

/// Full-digest a freshly landed replica against the manifest it
/// shipped with. A replica without one (refused by
/// [`Manifest::load`]) is a failed copy — as is any digest or length
/// mismatch — and the retry re-copies it.
fn verify_replica(base: &Path) -> Result<()> {
    Manifest::load(base)?.verify_full(base)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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
    }

    #[test]
    fn thread_counts_above_the_cap_are_refused() {
        // Each node and each worker is a thread: 40 000 of them would
        // abort the process, so the count is refused up front.
        for (nodes, cores) in [(MAX_CORES as usize + 1, 1), (1, 40_000)] {
            let err = ClusterRunner::new(cfg(nodes, cores)).unwrap_err();
            assert!(matches!(err, ClusterError::Config(_)), "{err}");
            assert!(err.to_string().contains("1..=64"), "names the cap: {err}");
        }
        assert!(ClusterRunner::new(cfg(MAX_CORES as usize, MAX_CORES as usize)).is_ok());
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
        let mut read_fault = cfg(2, 1);
        read_fault.mgt.read_fault = Some(8);
        let err = ClusterRunner::new(read_fault).unwrap_err().to_string();
        assert!(err.contains("can never fire"), "{err}");
        assert!(
            err.contains("shortread@<node>:<u32s>"),
            "points at the directive: {err}"
        );
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
        let mft = Manifest::path_for(&replica);
        assert!(err.contains(&*mft.to_string_lossy()), "{err}");
        assert!(err.contains("never committed"), "{err}");
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
