//! `pdtl serve`: a resident graph-catalog daemon.
//!
//! One-shot runs pay orientation, page-cache warmup and process startup
//! on every query. The serve mode amortises all three: a [`Catalog`]
//! opens a directory of PDTL graphs **once** — each verified against
//! its integrity manifest at registration, then oriented to disk per
//! codec — and a [`Server`] answers concurrent [`Message::Query`]
//! requests against the warm replicas over the existing TCP transport
//! and [`Message`] framing (no second protocol).
//!
//! Resource discipline matches the one-shot path:
//!
//! * every query states its worst-case resident cost in edges
//!   (`cores × M`, plus `|E*|` when it materialises the graph for the
//!   analytics kernels) and is admitted through a [`BudgetLedger`] —
//!   concurrent MGT runs never oversubscribe the configured budget,
//!   and an impossible request is a typed rejection, not a deadlock;
//! * queries run on a bounded worker pool, so a stalled query occupies
//!   one worker, never the accept loop or other connections;
//! * failures — unknown graph, bad parameters, a mid-run engine error —
//!   are answered with [`Message::QueryError`] and the daemon keeps
//!   serving; a client that disconnects mid-query costs nothing but the
//!   undeliverable response.
//!
//! A [`Message::StatsRequest`] returns the catalog plus aggregate
//! counters (queries served, bytes read, decoded `u32`s, admission
//! high-water mark and a fixed-bucket latency histogram for p50/p99).
//! Shutdown — [`Server::shutdown`] or a client [`Message::Shutdown`] —
//! stops accepting, drains in-flight queries, and joins every thread.

use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pdtl_analytics::{clustering, ktruss};
use pdtl_core::mgt::MgtOptions;
use pdtl_core::orient::{orient_to_disk_with, OrientedGraph};
use pdtl_core::sink::{CollectSink, CountSink};
use pdtl_core::{BalanceStrategy, LocalConfig, LocalRunner, RunReport, ScratchDir};
use pdtl_graph::DiskGraph;
use pdtl_io::{BudgetLedger, Codec, IoStats, MemoryBudget};

use crate::error::{ClusterError, Result};
use crate::message::{
    CatalogGraphInfo, Message, QueryOperation, QueryOptions, ServerStats, WorkerSummary, MAX_CORES,
    MAX_LIST_LIMIT,
};
use crate::netmodel::NetTraffic;
use crate::node::summarize;
use crate::transport::{lock, TcpTransport, Transport};

/// How long connection threads sleep in `recv_deadline` between stop
/// checks: the upper bound on how stale an idle connection's view of a
/// shutdown can be.
const POLL: Duration = Duration::from_millis(100);

/// How many consecutive [`POLL`]s (2 s) a peer may sit on a frame it
/// has started and not finished before the connection is dropped: a
/// request is under a kilobyte, so a frame that long in flight is a
/// stalled or slow-loris client holding a thread and a buffer.
const FRAME_PATIENCE: u32 = 20;

/// Cap on DOULION trials, so one malformed request cannot ask the
/// daemon for unbounded work (the caps a frame size depends on,
/// `MAX_CORES` and `MAX_LIST_LIMIT`, live with the wire grammar).
const MAX_TRIALS: u32 = 4096;

/// Cap on `QueryOptions::io_latency_us`, which a pool worker sleeps
/// once per block read: unchecked, one frame could park a worker for
/// 71 minutes a block and a few frames the whole pool. 10 ms is five
/// times what any slow-query injection in the tree asks for.
const MAX_IO_LATENCY_US: u32 = 10_000;

// ---------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------

/// One registered graph: the verified input plus an oriented on-disk
/// replica per configured codec (kept from orientation time, so the
/// original degrees for in-degree load balancing survive).
struct CatalogEntry {
    input: DiskGraph,
    vertices: u32,
    m_star: u64,
    oriented: Vec<(Codec, OrientedGraph)>,
}

impl CatalogEntry {
    fn oriented_for(&self, codec: Codec) -> Option<&OrientedGraph> {
        self.oriented
            .iter()
            .find(|(c, _)| *c == codec)
            .map(|(_, og)| og)
    }
}

/// A directory of PDTL graphs opened for serving.
///
/// [`open`](Self::open) scans `dir` for `<name>.deg` bases and
/// registers each: `DiskGraph::open` (structural + quick manifest
/// tier), [`DiskGraph::verify_full`] (every byte digested against the
/// `.mft` manifest), then one [`orient_to_disk_with`] per codec into
/// the catalog's scratch directory. A graph that fails any step is
/// *rejected* — recorded with its typed error, never served — and the
/// rest of the catalog loads normally. The scratch directory (oriented
/// replicas) is removed when the catalog drops.
pub struct Catalog {
    entries: BTreeMap<String, Arc<CatalogEntry>>,
    rejected: Vec<(String, String)>,
    io: Arc<IoStats>,
    scratch: ScratchDir,
}

impl Catalog {
    /// Open every graph under `dir`, orienting replicas for `codecs`
    /// (with `threads`-way parallel orientation) into `work_dir`.
    ///
    /// `work_dir` is owned by the catalog and removed on drop.
    pub fn open(dir: &Path, work_dir: &Path, codecs: &[Codec], threads: usize) -> Result<Catalog> {
        let scratch = ScratchDir::create(work_dir)?;
        let io = IoStats::new();
        let mut names = Vec::new();
        let read = std::fs::read_dir(dir)
            .map_err(|e| ClusterError::Io(pdtl_io::IoError::os("read_dir", dir, e)))?;
        for entry in read {
            let entry =
                entry.map_err(|e| ClusterError::Io(pdtl_io::IoError::os("read_dir", dir, e)))?;
            let path = entry.path();
            if let Some(name) = path
                .file_name()
                .and_then(|f| f.to_str())
                .and_then(|f| f.strip_suffix(".deg"))
            {
                names.push((name.to_string(), dir.join(name)));
            }
        }
        names.sort();
        let mut catalog = Catalog {
            entries: BTreeMap::new(),
            rejected: Vec::new(),
            io,
            scratch,
        };
        for (name, base) in names {
            match catalog.register(&name, &base, codecs, threads) {
                Ok(()) => {}
                Err(e) => catalog.rejected.push((name, e.to_string())),
            }
        }
        Ok(catalog)
    }

    /// Register one graph base under `name`. Verification failures
    /// (corrupt or truncated files) surface as the typed
    /// `GraphError`-derived error of the failing tier.
    fn register(
        &mut self,
        name: &str,
        base: &Path,
        codecs: &[Codec],
        threads: usize,
    ) -> Result<()> {
        let input = DiskGraph::open(base, &self.io)?;
        // The quick tier inside `open` cannot see a bit flip deep in a
        // large file; serving a graph certifies every byte of it.
        input.verify_full()?;
        let mut oriented = Vec::with_capacity(codecs.len());
        for &codec in codecs {
            let out = self
                .scratch
                .path()
                .join(name)
                .join(codec.name().replace('-', "_"));
            if let Some(parent) = out.parent() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| ClusterError::Io(pdtl_io::IoError::os("mkdir", parent, e)))?;
            }
            let (og, _) = orient_to_disk_with(&input, &out, threads, codec, &self.io)?;
            oriented.push((codec, og));
        }
        let vertices = input.num_vertices();
        let m_star = oriented
            .first()
            .map(|(_, og)| og.m_star())
            .unwrap_or_default();
        self.entries.insert(
            name.to_string(),
            Arc::new(CatalogEntry {
                input,
                vertices,
                m_star,
                oriented,
            }),
        );
        Ok(())
    }

    /// Names of the graphs being served.
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Graphs that failed registration, with their typed error text.
    pub fn rejected(&self) -> &[(String, String)] {
        &self.rejected
    }

    /// The catalog rows a stats response carries.
    pub fn info(&self) -> Vec<CatalogGraphInfo> {
        self.entries
            .iter()
            .map(|(name, e)| CatalogGraphInfo {
                name: name.clone(),
                vertices: e.vertices,
                m_star: e.m_star,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------

/// Fixed power-of-two latency histogram: bucket `i` counts queries with
/// wall time in `[2^i, 2^{i+1})` microseconds. Lock-free to record,
/// 32 buckets cover 1µs to ~71 minutes.
struct Histogram {
    buckets: [AtomicU64; 32],
}

impl Histogram {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, wall: Duration) {
        let micros = (wall.as_micros() as u64).max(1);
        let idx = (micros.ilog2() as usize).min(self.buckets.len() - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// Serve-mode configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`"127.0.0.1:0"` = loopback, ephemeral port).
    pub addr: String,
    /// Bounded worker pool size: at most this many queries execute at
    /// once (admission may hold them below that).
    pub workers: usize,
    /// Cores used when a query asks for `cores = 0`.
    pub default_cores: usize,
    /// Total admission budget in edges across all in-flight queries.
    pub admission: MemoryBudget,
    /// Codecs to pre-orient each catalog graph for; a query for a
    /// codec outside this list is a typed rejection.
    pub codecs: Vec<Codec>,
    /// Orientation parallelism at registration.
    pub orient_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            default_cores: 2,
            admission: MemoryBudget::default(),
            codecs: vec![Codec::Raw, Codec::DeltaVarint],
            orient_threads: 4,
        }
    }
}

/// One admitted unit of work: the parsed query plus the connection to
/// answer on (shared, so the response outlives the connection thread).
struct Job {
    conn: Arc<TcpTransport>,
    id: u32,
    graph: String,
    op: QueryOperation,
    options: QueryOptions,
}

struct Shared {
    catalog: Catalog,
    config: ServeConfig,
    ledger: BudgetLedger,
    traffic: Arc<NetTraffic>,
    hist: Histogram,
    served: AtomicU64,
    failed: AtomicU64,
    inflight: AtomicU32,
    /// Responses that could not be delivered (client hung up mid-query).
    undeliverable: AtomicU64,
    /// Bytes read by MGT workers (their per-thread counters fold in
    /// here; catalog/graph loads are counted on `catalog.io` directly).
    mgt_bytes_read: AtomicU64,
    mgt_u32s_decoded: AtomicU64,
    stop: AtomicBool,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        ServerStats {
            served: self.served.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
            rejected_graphs: self.catalog.rejected.len() as u32,
            bytes_read: self.catalog.io.bytes_read() + self.mgt_bytes_read.load(Ordering::Relaxed),
            u32s_decoded: self.catalog.io.u32s_decoded()
                + self.mgt_u32s_decoded.load(Ordering::Relaxed),
            admitted_peak: self.ledger.peak(),
            budget_total: self.ledger.total(),
            latency_buckets: self.hist.snapshot(),
            graphs: self.catalog.info(),
        }
    }
}

/// A running serve-mode daemon. Spawned threads: one acceptor, one per
/// live connection, and a bounded worker pool. Use
/// [`shutdown`](Self::shutdown) (or send [`Message::Shutdown`] from a
/// client and [`wait`](Self::wait)) to drain and join them.
pub struct Server {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    jobs_tx: Option<Sender<Job>>,
}

impl Server {
    /// Bind, spawn the worker pool and the accept loop, and return.
    pub fn spawn(catalog: Catalog, config: ServeConfig) -> Result<Server> {
        if config.workers == 0 || !(1..=MAX_CORES as usize).contains(&config.default_cores) {
            return Err(ClusterError::Config(format!(
                "serve: workers must be >= 1 and default_cores in 1..={MAX_CORES}"
            )));
        }
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ClusterError::Io(pdtl_io::IoError::os("bind", &config.addr, e)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ClusterError::Io(pdtl_io::IoError::os("local_addr", &config.addr, e)))?;

        let ledger = BudgetLedger::new(config.admission);
        let shared = Arc::new(Shared {
            catalog,
            ledger,
            traffic: NetTraffic::new(),
            hist: Histogram::new(),
            served: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            inflight: AtomicU32::new(0),
            undeliverable: AtomicU64::new(0),
            mgt_bytes_read: AtomicU64::new(0),
            mgt_u32s_decoded: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            config,
        });

        let (jobs_tx, jobs_rx) = channel::<Job>();
        let jobs_rx: Arc<Mutex<Receiver<Job>>> = Arc::new(Mutex::new(jobs_rx));
        let workers = (0..shared.config.workers)
            .map(|_| {
                let shared = shared.clone();
                let rx = jobs_rx.clone();
                std::thread::spawn(move || loop {
                    // The lock is held to dequeue only (the guard drops
                    // with this statement), never while a query runs.
                    // `recv` errors only once every sender is dropped —
                    // the shutdown drain: finish what is queued, exit.
                    let Ok(job) = lock(&rx).recv() else {
                        return;
                    };
                    run_query(&shared, job);
                })
            })
            .collect();

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = shared.clone();
            let conns = conns.clone();
            let jobs_tx = jobs_tx.clone();
            std::thread::spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if shared.stop.load(Ordering::SeqCst) {
                            return; // the wake-up connection
                        }
                        let shared = shared.clone();
                        let jobs_tx = jobs_tx.clone();
                        let handle =
                            std::thread::spawn(move || serve_conn(&shared, stream, &jobs_tx));
                        lock(&conns).push(handle);
                    }
                    Err(_) => {
                        if shared.stop.load(Ordering::SeqCst) {
                            return;
                        }
                    }
                }
            })
        };

        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            workers,
            conns,
            jobs_tx: Some(jobs_tx),
        })
    }

    /// The bound address (`host:port`), for clients.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// The aggregate counters, as a stats response would report them.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Block until a client requests shutdown ([`Message::Shutdown`]),
    /// then drain and join. Returns the final counters.
    pub fn wait(mut self) -> ServerStats {
        while !self.shared.stop.load(Ordering::SeqCst) {
            std::thread::sleep(POLL);
        }
        self.finish();
        self.shared.stats()
    }

    /// Stop accepting, drain in-flight queries, join every thread, and
    /// return the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.finish();
        self.shared.stats()
    }

    fn finish(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection; the
        // acceptor re-checks `stop` and returns.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Connection threads notice `stop` within one POLL and exit,
        // dropping their job senders.
        for h in lock(&self.conns).drain(..) {
            let _ = h.join();
        }
        // With every sender gone the channel closes; workers finish the
        // jobs already queued (the drain) and exit.
        self.jobs_tx.take();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() || !self.workers.is_empty() {
            self.finish();
        }
    }
}

/// Per-connection loop: parse requests, enqueue queries, answer stats
/// inline. Returns on client disconnect, protocol garbage, or server
/// stop; a [`Message::Shutdown`] triggers the *daemon* shutdown (the
/// graceful path `pdtl query --shutdown` takes).
fn serve_conn(shared: &Arc<Shared>, stream: TcpStream, jobs: &Sender<Job>) {
    let Ok(transport) = TcpTransport::from_stream(stream, shared.traffic.clone()) else {
        return;
    };
    let conn = Arc::new(transport);
    let mut stalled = 0;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let event = conn.recv_deadline(POLL);
        stalled = match event {
            Err(ClusterError::Timeout { .. }) if conn.mid_frame() => stalled + 1,
            _ => 0,
        };
        if stalled > FRAME_PATIENCE {
            return;
        }
        match event {
            Ok(Message::Query {
                id,
                graph,
                op,
                options,
            }) => {
                let job = Job {
                    conn: conn.clone(),
                    id,
                    graph,
                    op,
                    options,
                };
                if jobs.send(job).is_err() {
                    // Shutdown raced the enqueue; the client sees the
                    // rejection rather than silence.
                    let _ = conn.send(&Message::QueryError {
                        id,
                        detail: "server is shutting down".into(),
                    });
                    return;
                }
            }
            Ok(Message::StatsRequest) => {
                if conn
                    .send(&Message::StatsResult {
                        stats: shared.stats(),
                    })
                    .is_err()
                {
                    return;
                }
            }
            Ok(Message::Shutdown) => {
                shared.stop.store(true, Ordering::SeqCst);
                return;
            }
            Ok(other) => {
                // A cluster-protocol message on a serve socket: typed
                // rejection, connection stays up.
                let _ = conn.send(&Message::QueryError {
                    id: 0,
                    detail: format!("unexpected message in serve mode: {}", kind_name(&other)),
                });
            }
            Err(ClusterError::Timeout { .. }) => continue,
            // Disconnect, garbage or an oversized frame: drop the
            // connection.
            Err(_) => return,
        }
    }
}

fn kind_name(msg: &Message) -> &'static str {
    match msg {
        Message::Config { .. } => "Config",
        Message::Results { .. } => "Results",
        Message::Triangles { .. } => "Triangles",
        Message::NodeError { .. } => "NodeError",
        Message::Progress { .. } => "Progress",
        Message::Shutdown => "Shutdown",
        Message::Query { .. } => "Query",
        Message::QueryResult { .. } => "QueryResult",
        Message::QueryError { .. } => "QueryError",
        Message::StatsRequest => "StatsRequest",
        Message::StatsResult { .. } => "StatsResult",
    }
}

/// The scalar payload of a successful query.
struct Reply {
    triangles: u64,
    value_bits: u64,
    aux: u64,
    workers: Vec<WorkerSummary>,
    triples: Vec<(u32, u32, u32)>,
}

/// Execute one admitted job end to end and answer on its connection.
/// Every failure path sends a [`Message::QueryError`]; none of them
/// touches the daemon's health.
fn run_query(shared: &Shared, job: Job) {
    let start = Instant::now();
    shared.inflight.fetch_add(1, Ordering::SeqCst);
    let outcome = execute(shared, &job);
    shared.inflight.fetch_sub(1, Ordering::SeqCst);
    let wall = start.elapsed();
    shared.hist.record(wall);
    let response = match outcome {
        Ok(reply) => {
            shared.served.fetch_add(1, Ordering::Relaxed);
            Message::QueryResult {
                id: job.id,
                triangles: reply.triangles,
                value_bits: reply.value_bits,
                aux: reply.aux,
                wall_nanos: wall.as_nanos() as u64,
                workers: reply.workers,
                triples: reply.triples,
            }
        }
        Err(detail) => {
            shared.failed.fetch_add(1, Ordering::Relaxed);
            Message::QueryError { id: job.id, detail }
        }
    };
    if job.conn.send(&response).is_err() {
        // The client hung up mid-query. The work is done, the ledger
        // lease is released, the daemon moves on.
        shared.undeliverable.fetch_add(1, Ordering::Relaxed);
    }
}

fn execute(shared: &Shared, job: &Job) -> std::result::Result<Reply, String> {
    let entry = shared
        .catalog
        .entries
        .get(&job.graph)
        .ok_or_else(|| format!("unknown graph {:?}", job.graph))?
        .clone();
    let opts = job.options;
    let cores = match opts.cores {
        0 => shared.config.default_cores,
        c if c > MAX_CORES => return Err(format!("cores {c} exceeds the cap of {MAX_CORES}")),
        c => c as usize,
    };
    if opts.io_latency_us > MAX_IO_LATENCY_US {
        return Err(format!(
            "io latency {} us exceeds the cap of {MAX_IO_LATENCY_US} us",
            opts.io_latency_us
        ));
    }
    validate_op(&job.op)?;

    // Worst-case resident cost in edges: each MGT worker holds up to a
    // budget's worth of chunk, and the analytics kernels additionally
    // materialise the graph (|E*| oriented edges / triples).
    let needs_graph = matches!(
        job.op,
        QueryOperation::Clustering | QueryOperation::KTruss { .. } | QueryOperation::Doulion { .. }
    );
    // The budget is a `u64` straight off the socket: a product that
    // wraps must be refused like any other cost the ledger cannot hold,
    // not admitted at whatever it wrapped to.
    let resident = if needs_graph { entry.m_star } else { 0 };
    let _lease = (cores as u64)
        .checked_mul(opts.budget_edges)
        .and_then(|chunks| chunks.checked_add(resident))
        .ok_or(pdtl_io::IoError::BudgetTooSmall {
            needed: usize::MAX,
            available: shared.ledger.total() as usize,
        })
        .and_then(|cost| shared.ledger.admit(cost))
        .map_err(|e| format!("admission: {e}"))?;

    match job.op {
        QueryOperation::Count => {
            let (report, _) = run_mgt(shared, &entry, &opts, cores, false)?;
            Ok(reply_from(&report, 0, 0, vec![]))
        }
        QueryOperation::List { limit } => {
            let (report, mut triples) = run_mgt(shared, &entry, &opts, cores, true)?;
            let listed = triples.len() as u64;
            triples.truncate(limit as usize);
            Ok(reply_from(&report, 0, listed, triples))
        }
        QueryOperation::Clustering => {
            let (report, triples) = run_mgt(shared, &entry, &opts, cores, true)?;
            let g = entry
                .input
                .load_csr(&shared.catalog.io)
                .map_err(|e| e.to_string())?;
            let global = clustering::global_clustering(&g, &triples);
            let trans = clustering::transitivity(&g, report.triangles);
            Ok(reply_from(
                &report,
                global.to_bits(),
                trans.to_bits(),
                vec![],
            ))
        }
        QueryOperation::KTruss { k } => {
            let (report, triples) = run_mgt(shared, &entry, &opts, cores, true)?;
            let g = entry
                .input
                .load_csr(&shared.catalog.io)
                .map_err(|e| e.to_string())?;
            let td = ktruss::truss_decomposition(&g, &triples);
            let edges = td.truss_edges(k).len() as u64;
            Ok(reply_from(&report, edges, td.max_k() as u64, vec![]))
        }
        QueryOperation::Doulion {
            p_ppm,
            seed,
            trials,
        } => {
            let g = entry
                .input
                .load_csr(&shared.catalog.io)
                .map_err(|e| e.to_string())?;
            let p = f64::from(p_ppm) / 1_000_000.0;
            let estimate =
                pdtl_analytics::doulion_mean(&g, p, trials, seed).map_err(|e| e.to_string())?;
            Ok(Reply {
                triangles: 0,
                value_bits: estimate.to_bits(),
                aux: u64::from(trials),
                workers: vec![],
                triples: vec![],
            })
        }
    }
}

fn validate_op(op: &QueryOperation) -> std::result::Result<(), String> {
    match *op {
        QueryOperation::List { limit } if limit > MAX_LIST_LIMIT => Err(format!(
            "list limit {limit} exceeds the cap of {MAX_LIST_LIMIT}"
        )),
        QueryOperation::Doulion { p_ppm, trials, .. } => {
            if p_ppm == 0 || p_ppm > 1_000_000 {
                Err(format!("doulion p must be in (0, 1]: got {p_ppm} ppm"))
            } else if trials == 0 || trials > MAX_TRIALS {
                Err(format!("doulion trials must be in 1..={MAX_TRIALS}"))
            } else {
                Ok(())
            }
        }
        _ => Ok(()),
    }
}

fn reply_from(
    report: &RunReport,
    value_bits: u64,
    aux: u64,
    triples: Vec<(u32, u32, u32)>,
) -> Reply {
    Reply {
        triangles: report.triangles,
        value_bits,
        aux,
        workers: report.workers.iter().map(summarize).collect(),
        triples,
    }
}

/// What an engine run hands back to the per-operation dispatch: the
/// run report plus the collected triples (empty unless listing).
type MgtOutcome = std::result::Result<(RunReport, Vec<(u32, u32, u32)>), String>;

/// One MGT run against the catalog's warm oriented replica for the
/// query's codec, with the query's own backend/budget/latency knobs.
fn run_mgt(
    shared: &Shared,
    entry: &CatalogEntry,
    opts: &QueryOptions,
    cores: usize,
    listing: bool,
) -> MgtOutcome {
    let og = entry.oriented_for(opts.codec).ok_or_else(|| {
        format!(
            "codec {} is not in this server's catalog (serving: {})",
            opts.codec.name(),
            shared
                .config
                .codecs
                .iter()
                .map(|c| c.name())
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    let runner = LocalRunner::new(LocalConfig {
        cores,
        budget: MemoryBudget::edges(opts.budget_edges as usize),
        balance: BalanceStrategy::InDegree,
        mgt: MgtOptions {
            scan_pruning: opts.scan_pruning,
            backend: opts.backend,
            io_latency: Duration::from_micros(u64::from(opts.io_latency_us)),
            read_fault: None,
            codec: opts.codec,
        },
    })
    .map_err(|e| e.to_string())?;
    let (report, sinks) = if listing {
        runner
            .run_oriented_with_sinks(og, CollectSink::default)
            .map(|(r, sinks)| (r, CollectSink::concat(sinks)))
    } else {
        runner
            .run_oriented_with_sinks(og, || CountSink)
            .map(|(r, _)| (r, Vec::new()))
    }
    .map_err(|e| e.to_string())?;
    let bytes: u64 = report.workers.iter().map(|w| w.io.bytes_read).sum();
    let decoded: u64 = report.workers.iter().map(|w| w.io.u32s_decoded).sum();
    shared.mgt_bytes_read.fetch_add(bytes, Ordering::Relaxed);
    shared
        .mgt_u32s_decoded
        .fetch_add(decoded, Ordering::Relaxed);
    Ok((report, sinks))
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A decoded serve-mode answer.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Echoed request id.
    pub id: u32,
    /// Exact triangle count (0 where the operation has none).
    pub triangles: u64,
    /// Primary per-operation value (see [`Message::QueryResult`]).
    pub value_bits: u64,
    /// Secondary per-operation value.
    pub aux: u64,
    /// Server-side wall time of the query.
    pub wall: Duration,
    /// Per-worker MGT counters.
    pub workers: Vec<WorkerSummary>,
    /// Listed triples (`list` only).
    pub triples: Vec<(u32, u32, u32)>,
}

impl QueryReply {
    /// `value_bits` as the `f64` it encodes (clustering coefficient,
    /// DOULION estimate).
    pub fn value_f64(&self) -> f64 {
        f64::from_bits(self.value_bits)
    }

    /// `aux` as the `f64` it encodes (transitivity).
    pub fn aux_f64(&self) -> f64 {
        f64::from_bits(self.aux)
    }
}

/// A client connection to a serve-mode daemon: sequential queries over
/// one socket. Concurrency comes from many clients, exactly like real
/// traffic.
pub struct ServeClient {
    conn: TcpTransport,
    next_id: u32,
}

impl ServeClient {
    /// Connect to `addr` (`host:port`).
    pub fn connect(addr: &str) -> Result<Self> {
        Ok(Self {
            conn: TcpTransport::connect(addr, NetTraffic::new())?,
            next_id: 1,
        })
    }

    /// Send a query without waiting for the answer; returns the
    /// request id. Pair with [`recv_reply`](Self::recv_reply).
    pub fn send_query(
        &mut self,
        graph: &str,
        op: QueryOperation,
        options: QueryOptions,
    ) -> Result<u32> {
        let id = self.next_id;
        self.next_id += 1;
        self.conn.send(&Message::Query {
            id,
            graph: graph.into(),
            op,
            options,
        })?;
        Ok(id)
    }

    /// Receive the next answer. A server-side rejection surfaces as
    /// the typed [`ClusterError::Query`].
    pub fn recv_reply(&mut self) -> Result<QueryReply> {
        match self.conn.recv()? {
            Message::QueryResult {
                id,
                triangles,
                value_bits,
                aux,
                wall_nanos,
                workers,
                triples,
            } => Ok(QueryReply {
                id,
                triangles,
                value_bits,
                aux,
                wall: Duration::from_nanos(wall_nanos),
                workers,
                triples,
            }),
            Message::QueryError { id, detail } => Err(ClusterError::Query { id, detail }),
            other => Err(ClusterError::Protocol(format!(
                "unexpected serve-mode answer: {}",
                kind_name(&other)
            ))),
        }
    }

    /// Run one query to completion.
    pub fn query(
        &mut self,
        graph: &str,
        op: QueryOperation,
        options: QueryOptions,
    ) -> Result<QueryReply> {
        self.send_query(graph, op, options)?;
        self.recv_reply()
    }

    /// Fetch the server's aggregate counters.
    pub fn stats(&mut self) -> Result<ServerStats> {
        self.conn.send(&Message::StatsRequest)?;
        match self.conn.recv()? {
            Message::StatsResult { stats } => Ok(stats),
            other => Err(ClusterError::Protocol(format!(
                "unexpected stats answer: {}",
                kind_name(&other)
            ))),
        }
    }

    /// Ask the daemon to shut down gracefully (drain, then exit).
    pub fn shutdown(self) -> Result<()> {
        self.conn.send(&Message::Shutdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two_micros() {
        let h = Histogram::new();
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(300));
        h.record(Duration::from_secs(4000)); // beyond the top bucket
        let snap = h.snapshot();
        assert_eq!(snap[0], 1);
        assert_eq!(snap[1], 1);
        assert_eq!(snap[8], 1); // 300µs in [256, 512)
        assert_eq!(snap[31], 1); // clamped
        assert_eq!(snap.iter().sum::<u64>(), 4);
    }

    #[test]
    fn validate_rejects_bad_doulion_params() {
        assert!(validate_op(&QueryOperation::Doulion {
            p_ppm: 0,
            seed: 1,
            trials: 4
        })
        .is_err());
        assert!(validate_op(&QueryOperation::Doulion {
            p_ppm: 2_000_000,
            seed: 1,
            trials: 4
        })
        .is_err());
        assert!(validate_op(&QueryOperation::Doulion {
            p_ppm: 500_000,
            seed: 1,
            trials: 0
        })
        .is_err());
        assert!(validate_op(&QueryOperation::Doulion {
            p_ppm: 500_000,
            seed: 1,
            trials: 16
        })
        .is_ok());
        assert!(validate_op(&QueryOperation::Count).is_ok());
    }

    #[test]
    fn catalog_registers_and_rejects_independently() {
        use pdtl_graph::gen::classic::complete;
        let dir = std::env::temp_dir().join(format!("pdtl-catalog-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let stats = IoStats::new();
        let good = complete(8).unwrap();
        DiskGraph::write(&good, dir.join("good"), &stats).unwrap();
        let bad = complete(9).unwrap();
        let bad_dg = DiskGraph::write(&bad, dir.join("bad"), &stats).unwrap();
        // Flip a bit deep in the adjacency: the quick tier passes, the
        // full digest at registration must not.
        let mut bytes = std::fs::read(bad_dg.adj_path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(bad_dg.adj_path(), &bytes).unwrap();

        let work = dir.join("work");
        let catalog = Catalog::open(&dir, &work, &[Codec::Raw], 2).unwrap();
        assert_eq!(catalog.names(), vec!["good".to_string()]);
        assert_eq!(catalog.rejected().len(), 1);
        assert_eq!(catalog.rejected()[0].0, "bad");
        assert!(
            catalog.rejected()[0].1.contains("corrupt")
                || catalog.rejected()[0].1.contains("truncated"),
            "typed error expected: {}",
            catalog.rejected()[0].1
        );
        let info = catalog.info();
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].m_star, good.num_edges());
        drop(catalog);
        assert!(!work.exists(), "catalog scratch cleaned on drop");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
