//! The wire protocol: master ↔ node, and serve-mode client ↔ daemon.
//!
//! One positional little-endian grammar covers every message: a tag
//! byte, a `u32` id (node id, query id, or zero), then every field of
//! the variant in declaration order. A record is its fields in
//! declaration order; a string or sequence is a `u32` count followed
//! by its elements; an enum travels as a whole discriminant byte and
//! an `Option<u64>` as a presence byte plus the `u64`. Nothing is
//! optional or skipped, so every record has one fixed size and the
//! exact byte counts are meaningful for the network accounting: the
//! `Θ(NP)` configuration term and the `Θ(T)` listing term of
//! Theorem IV.3 are measured from these encodings.
//!
//! Decoding is strict: a truncated field, an unknown tag or
//! discriminant, a bool byte other than 0/1, a non-zero argument an
//! operation does not use, a declared count the remaining bytes cannot
//! hold (rejected *before* anything is allocated) and a payload not
//! consumed to its last byte are all [`ClusterError::Protocol`]. The
//! encoding is therefore canonical — whatever decodes re-encodes to
//! the same bytes. Both ends are always the same binary (cluster nodes
//! are threads of the master's process; `pdtl query` and `pdtl serve`
//! are one executable), so there is no version negotiation.

use pdtl_io::{Codec, IoBackend};

use crate::error::{ClusterError, Result};

/// Most worker threads one serve query may ask for. With
/// [`MAX_LIST_LIMIT`] it keeps one malformed request from asking the
/// daemon for unbounded work — or for an answer that outgrows a frame.
pub const MAX_CORES: u32 = 64;
/// Most triples one `list` answer echoes back.
pub const MAX_LIST_LIMIT: u32 = 1 << 22;

/// Bytes of the `u32` payload length that opens a transport frame.
pub(crate) const FRAME_HEADER: usize = 4;

/// The largest payload either end of a connection writes or buffers
/// (~48 MiB). Not a setting: it is the size of the biggest legitimate
/// message, a `QueryResult` echoing [`MAX_LIST_LIMIT`] triples with
/// [`MAX_CORES`] worker summaries. Nodes ship listings in
/// [`TRIANGLE_BATCH`]-sized frames, so no other message comes close.
pub const MAX_FRAME: usize = 5
    + 4 * 8
    + (4 + MAX_CORES as usize * WorkerSummary::MIN_LEN)
    + (4 + MAX_LIST_LIMIT as usize * <(u32, u32, u32)>::MIN_LEN);

/// Triples per `Triangles` frame a node sends (768 KiB of payload):
/// a listing of `T` triangles costs `⌈T / TRIANGLE_BATCH⌉` frames of
/// 9 header bytes each (13 with the TCP length prefix) on top of its
/// `12 T` bytes.
pub const TRIANGLE_BATCH: usize = 1 << 16;

fn protocol(msg: String) -> ClusterError {
    ClusterError::Protocol(msg)
}

/// Little-endian reader over a borrowed payload: every read fails with
/// a typed error instead of running past the end.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.0.len() < n {
            return Err(protocol(format!(
                "truncated message: need {n}, have {}",
                self.0.len()
            )));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// The next value of whatever type the caller's field has.
    fn get<T: Wire>(&mut self) -> Result<T> {
        T::get(self)
    }

    /// A declared element count, rejected unless the remaining bytes
    /// can hold that many elements of at least `elem` bytes — so no
    /// caller allocates for a count the input cannot back.
    fn count(&mut self, elem: usize) -> Result<usize> {
        let n: u32 = self.get()?;
        // u32 × a record size cannot overflow u64.
        if u64::from(n) * elem as u64 > self.0.len() as u64 {
            return Err(protocol(format!(
                "count {n} × {elem} bytes exceeds the {} remaining",
                self.0.len()
            )));
        }
        Ok(n as usize)
    }

    fn finish(self) -> Result<()> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(protocol(format!("{n} trailing bytes"))),
        }
    }
}

/// A value's place in the grammar: how it is appended to a frame
/// buffer and read back.
trait Wire: Sized {
    /// Fewest bytes one value occupies (its exact size when fixed) —
    /// what a sequence checks its declared count against.
    const MIN_LEN: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader) -> Result<Self>;
}

/// A string or sequence length. Saturating, never truncating: a
/// collection past `u32::MAX` elements encodes to more than
/// [`MAX_FRAME`] bytes, so [`Message::frame`] refuses the message
/// before any peer could read the clamped count.
fn put_count(n: usize, out: &mut Vec<u8>) {
    u32::try_from(n).unwrap_or(u32::MAX).put(out);
}

macro_rules! wire_int {
    ($($ty:ty),+) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = std::mem::size_of::<$ty>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader) -> Result<Self> {
                Ok(<$ty>::from_le_bytes(r.array()?))
            }
        }
    )+};
}
wire_int!(u8, u32, u64);

/// A record is its fields in declaration order, nothing between them:
/// `$len` is the byte total (pinned by `record_lengths_match_encodings`).
macro_rules! wire_record {
    ($ty:ident: $len:expr; $($field:ident),+) => {
        impl Wire for $ty {
            const MIN_LEN: usize = $len;
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)+
            }
            fn get(r: &mut Reader) -> Result<Self> {
                Ok($ty { $($field: r.get()?),+ })
            }
        }
    };
}

impl Wire for bool {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(r: &mut Reader) -> Result<Self> {
        match r.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(protocol(format!("bool byte {b}"))),
        }
    }
}

/// Presence byte plus the `u64`, which is zero when absent.
impl Wire for Option<u64> {
    const MIN_LEN: usize = 1 + 8;
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        self.unwrap_or(0).put(out);
    }
    fn get(r: &mut Reader) -> Result<Self> {
        match (r.get()?, r.get()?) {
            (true, v) => Ok(Some(v)),
            (false, 0u64) => Ok(None),
            (false, v) => Err(protocol(format!("absent value carries {v}"))),
        }
    }
}

/// The workspace's one `IoBackend` ↔ wire byte mapping: the backend's
/// position in [`IoBackend::ALL`]. A platform that cannot serve a
/// decoded backend falls back in the engine (`IoBackend::resolve`),
/// never in the decoder.
impl Wire for IoBackend {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        let d = IoBackend::ALL.iter().position(|b| b == self);
        out.push(d.expect("IoBackend::ALL lists every backend") as u8);
    }
    fn get(r: &mut Reader) -> Result<Self> {
        let d: u8 = r.get()?;
        (IoBackend::ALL.get(d as usize).copied())
            .ok_or_else(|| protocol(format!("unknown backend {d}")))
    }
}

impl Wire for Codec {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.discriminant());
    }
    fn get(r: &mut Reader) -> Result<Self> {
        let d = r.get()?;
        Codec::from_discriminant(d).ok_or_else(|| protocol(format!("unknown codec {d}")))
    }
}

impl Wire for String {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        put_count(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader) -> Result<Self> {
        let n = r.count(1)?;
        std::str::from_utf8(r.take(n)?)
            .map(str::to_owned)
            .map_err(|_| protocol("invalid utf-8 string".into()))
    }
}

/// A listed triple `(u, v, w)`: the `Θ(T)` bulk of the protocol, so it
/// moves as one 12-byte copy, not three field reads (3× the MB/s).
impl Wire for (u32, u32, u32) {
    const MIN_LEN: usize = 3 * 4;
    fn put(&self, out: &mut Vec<u8>) {
        let mut t = [0u8; 12];
        t[..4].copy_from_slice(&self.0.to_le_bytes());
        t[4..8].copy_from_slice(&self.1.to_le_bytes());
        t[8..].copy_from_slice(&self.2.to_le_bytes());
        out.extend_from_slice(&t);
    }
    fn get(r: &mut Reader) -> Result<Self> {
        let t: [u8; 12] = r.array()?;
        let word = |i: usize| u32::from_le_bytes([t[i], t[i + 1], t[i + 2], t[i + 3]]);
        Ok((word(0), word(4), word(8)))
    }
}

/// A `u32` count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        put_count(self.len(), out);
        out.reserve(self.len() * T::MIN_LEN);
        for item in self {
            item.put(out);
        }
    }
    fn get(r: &mut Reader) -> Result<Self> {
        let n = r.count(T::MIN_LEN)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(r.get()?);
        }
        Ok(items)
    }
}

/// One logical processor's configuration `C_{i,j}` (Figure 1): its
/// memory budget, pivot-edge range and MGT engine flags. On the wire
/// it is one fixed 40-byte record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerConfig {
    /// Range start (oriented adjacency position).
    pub start: u64,
    /// Range end (exclusive).
    pub end: u64,
    /// Memory budget in edges.
    pub budget_edges: u64,
    /// Enable the rank-space scan pruning (bound skips + `vhigh` cap).
    pub scan_pruning: bool,
    /// Which I/O backend the worker's MGT engine streams through.
    pub backend: IoBackend,
    /// Emulated per-block device latency in microseconds (0 = real
    /// hardware) — see `MgtOptions::io_latency`.
    pub io_latency_us: u32,
    /// Injected read fault: deliver this many `u32`s through the scan
    /// source, then fail (`MgtOptions::read_fault`).
    pub read_fault: Option<u64>,
    /// On-disk codec the worker's node writes its oriented replica in
    /// (`MgtOptions::codec`).
    pub codec: Codec,
}

wire_record!(WorkerConfig: 3 * 8 + 1 + 1 + 4 + (1 + 8) + 1;
    start, end, budget_edges, scan_pruning, backend, io_latency_us, read_fault, codec);

/// A node-level fault directive injected by the master's
/// [`FaultPlan`](crate::FaultPlan), executed by `serve_node` when the
/// config arrives. On the wire it is a kind byte plus a `u32` argument
/// (zero for every kind but `Delay`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeFault {
    /// No injected fault.
    #[default]
    None,
    /// Panic the node thread (a crashed process).
    Panic,
    /// Return from the serve loop, dropping the connection.
    Drop,
    /// Accept the config and go silent: no heartbeats, no results (a
    /// wedged process). The node still honors `Shutdown`.
    Stall,
    /// Sleep this many milliseconds before starting work, while
    /// heartbeats keep flowing (a slow node, not a dead one).
    Delay(u32),
}

impl NodeFault {
    fn to_wire(self) -> (u8, u32) {
        match self {
            NodeFault::None => (0, 0),
            NodeFault::Panic => (1, 0),
            NodeFault::Drop => (2, 0),
            NodeFault::Stall => (3, 0),
            NodeFault::Delay(ms) => (4, ms),
        }
    }
}

impl Wire for NodeFault {
    const MIN_LEN: usize = 1 + 4;
    fn put(&self, out: &mut Vec<u8>) {
        let (kind, arg) = self.to_wire();
        kind.put(out);
        arg.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self> {
        // Canonical: only `Delay` takes an argument; the rest carry zero.
        match (r.get()?, r.get()?) {
            (0u8, 0u32) => Ok(NodeFault::None),
            (1, 0) => Ok(NodeFault::Panic),
            (2, 0) => Ok(NodeFault::Drop),
            (3, 0) => Ok(NodeFault::Stall),
            (4, ms) => Ok(NodeFault::Delay(ms)),
            (k, arg) => Err(protocol(format!(
                "unknown fault kind {k} with argument {arg}"
            ))),
        }
    }
}

/// Runtime directives for one node dispatch, the last record of a
/// `Config` message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeDirectives {
    /// Milliseconds between `Progress` heartbeats while workers run;
    /// `0` disables heartbeats.
    pub heartbeat_ms: u32,
    /// Injected fault for this dispatch.
    pub fault: NodeFault,
}

wire_record!(NodeDirectives: 4 + NodeFault::MIN_LEN; heartbeat_ms, fault);

/// One worker's result summary sent back to the master.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Worker index within the node.
    pub worker: u32,
    /// Range start.
    pub start: u64,
    /// Range end.
    pub end: u64,
    /// Triangles found.
    pub triangles: u64,
    /// MGT chunk iterations.
    pub iterations: u64,
    /// Counted CPU operations.
    pub cpu_ops: u64,
    /// Bytes read from disk.
    pub bytes_read: u64,
    /// Bytes written to disk.
    pub bytes_written: u64,
    /// Disk seeks.
    pub seeks: u64,
    /// Read + write operations.
    pub io_ops: u64,
    /// Nanoseconds of I/O activity. Under the prefetch backend this
    /// runs concurrently with compute (device time, not stall time),
    /// so it may approach or exceed `wall_nanos`.
    pub io_nanos: u64,
    /// Worker wall time in nanoseconds.
    pub wall_nanos: u64,
}

wire_record!(WorkerSummary: 4 + 11 * 8;
    worker, start, end, triangles, iterations, cpu_ops, bytes_read, bytes_written, seeks, io_ops,
    io_nanos, wall_nanos);

/// The analytics operation a serve-mode [`Message::Query`] requests.
///
/// On the wire every operation is one fixed 17-byte record — kind byte,
/// `u32` arg `a`, `u64` arg `b`, `u32` arg `c` — and an arg the
/// operation does not use must be zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOperation {
    /// Exact triangle count (kind 0).
    Count,
    /// Exact listing; at most `limit` triples are returned in the
    /// response (the count is always exact) (kind 1, `a = limit`).
    List {
        /// Maximum triples echoed back in the response.
        limit: u32,
    },
    /// Clustering coefficients: the response carries the average local
    /// coefficient and the transitivity ratio (kind 2).
    Clustering,
    /// K-truss: the response carries the `k`-truss edge count and the
    /// maximum `k` of the decomposition (kind 3, `a = k`).
    KTruss {
        /// The truss order requested.
        k: u32,
    },
    /// DOULION estimate averaged over `trials` sparsifications (kind 4,
    /// `a = p_ppm`, `b = seed`, `c = trials`).
    Doulion {
        /// Edge-keep probability in parts per million (`1_000_000` = 1.0);
        /// an integer so the wire stays free of float encodings.
        p_ppm: u32,
        /// Base RNG seed; trial `t` uses `seed + t`.
        seed: u64,
        /// Number of independent estimates averaged.
        trials: u32,
    },
}

impl QueryOperation {
    fn to_wire(self) -> (u8, u32, u64, u32) {
        match self {
            QueryOperation::Count => (0, 0, 0, 0),
            QueryOperation::List { limit } => (1, limit, 0, 0),
            QueryOperation::Clustering => (2, 0, 0, 0),
            QueryOperation::KTruss { k } => (3, k, 0, 0),
            QueryOperation::Doulion {
                p_ppm,
                seed,
                trials,
            } => (4, p_ppm, seed, trials),
        }
    }

    /// Human-readable operation name (CLI/report output).
    pub fn name(&self) -> &'static str {
        match self {
            QueryOperation::Count => "count",
            QueryOperation::List { .. } => "list",
            QueryOperation::Clustering => "clustering",
            QueryOperation::KTruss { .. } => "ktruss",
            QueryOperation::Doulion { .. } => "doulion",
        }
    }
}

impl Wire for QueryOperation {
    const MIN_LEN: usize = 1 + 4 + 8 + 4;
    fn put(&self, out: &mut Vec<u8>) {
        let (kind, a, b, c) = self.to_wire();
        kind.put(out);
        a.put(out);
        b.put(out);
        c.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self> {
        // Canonical: the args a kind does not use are zero.
        match (r.get()?, r.get()?, r.get()?, r.get()?) {
            (0u8, 0u32, 0u64, 0u32) => Ok(QueryOperation::Count),
            (1, limit, 0, 0) => Ok(QueryOperation::List { limit }),
            (2, 0, 0, 0) => Ok(QueryOperation::Clustering),
            (3, k, 0, 0) => Ok(QueryOperation::KTruss { k }),
            (4, p_ppm, seed, trials) => Ok(QueryOperation::Doulion {
                p_ppm,
                seed,
                trials,
            }),
            (kind, a, b, c) => Err(protocol(format!(
                "unknown operation kind {kind} with arguments ({a}, {b}, {c})"
            ))),
        }
    }
}

/// Per-query engine knobs carried by [`Message::Query`] — the serve-mode
/// analogue of a [`WorkerConfig`]: each query picks its own parallelism,
/// memory budget, I/O backend and codec. One fixed 19-byte record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOptions {
    /// Worker threads for this query; `0` means "server default".
    pub cores: u32,
    /// Per-worker memory budget in edges (the paper's `M`).
    pub budget_edges: u64,
    /// Enable rank-space scan pruning.
    pub scan_pruning: bool,
    /// I/O backend the MGT scan streams through.
    pub backend: IoBackend,
    /// Which oriented on-disk replica to run against.
    pub codec: Codec,
    /// Emulated per-block device latency in microseconds (0 = real
    /// hardware) — doubles as a deterministic slow-query injection.
    pub io_latency_us: u32,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            cores: 0,
            budget_edges: 1 << 20,
            scan_pruning: true,
            backend: IoBackend::default_from_env(),
            codec: Codec::default_from_env(),
            io_latency_us: 0,
        }
    }
}

wire_record!(QueryOptions: 4 + 8 + 1 + 1 + 1 + 4;
    cores, budget_edges, scan_pruning, backend, codec, io_latency_us);

/// One catalog entry in a [`Message::StatsResult`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogGraphInfo {
    /// Graph name (the catalog file stem).
    pub name: String,
    /// Vertex count.
    pub vertices: u32,
    /// Undirected edge count `|E*|`.
    pub m_star: u64,
}

// Smallest record: an empty name's count, `vertices`, `m_star`.
wire_record!(CatalogGraphInfo: 4 + 4 + 8; name, vertices, m_star);

/// Aggregate serve-mode counters returned by a stats request.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServerStats {
    /// Queries answered successfully since boot.
    pub served: u64,
    /// Queries that ended in a [`Message::QueryError`].
    pub failed: u64,
    /// Queries admitted and currently executing.
    pub inflight: u32,
    /// Catalog entries rejected at registration (failed verification).
    pub rejected_graphs: u32,
    /// Bytes read from disk across all queries.
    pub bytes_read: u64,
    /// `u32`s delivered by compressed-adjacency decoders.
    pub u32s_decoded: u64,
    /// High-water mark of concurrently admitted edges.
    pub admitted_peak: u64,
    /// Total edges the admission ledger allows at once.
    pub budget_total: u64,
    /// Fixed power-of-two latency histogram: bucket `i` counts queries
    /// whose wall time fell in `[2^i, 2^{i+1})` microseconds.
    pub latency_buckets: Vec<u64>,
    /// The graphs being served.
    pub graphs: Vec<CatalogGraphInfo>,
}

impl ServerStats {
    /// Upper bound (in microseconds) of the histogram bucket containing
    /// the `q`-quantile of recorded query latencies (`0.5` = p50,
    /// `0.99` = p99); 0 when nothing has been recorded.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let total: u64 = self.latency_buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &count) in self.latency_buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << self.latency_buckets.len()
    }
}

// Smallest record: the eight counters and two empty sequences.
wire_record!(ServerStats: 6 * 8 + 2 * 4 + 2 * 4;
    served, failed, inflight, rejected_graphs, bytes_read, u32s_decoded, admitted_peak,
    budget_total, latency_buckets, graphs);

/// Protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Master → node: the node's id, graph replica base path, and one
    /// config per local core.
    Config {
        /// Node id (0 = master's own node).
        node: u32,
        /// Base path of the node's local oriented-graph replica.
        graph_base: String,
        /// Per-core configurations.
        workers: Vec<WorkerConfig>,
        /// Whether to stream triangle lists back.
        listing: bool,
        /// Heartbeat cadence and injected fault for this dispatch.
        directives: NodeDirectives,
    },
    /// Node → master: per-worker summaries.
    Results {
        /// Node id.
        node: u32,
        /// Per-worker results.
        workers: Vec<WorkerSummary>,
    },
    /// Node → master: a batch of listed triangles (cone first).
    Triangles {
        /// Node id.
        node: u32,
        /// Triples `(u, v, w)`.
        triples: Vec<(u32, u32, u32)>,
    },
    /// Node → master: node failed with an error message.
    NodeError {
        /// Node id.
        node: u32,
        /// Human-readable failure description.
        detail: String,
    },
    /// Node → master: liveness heartbeat while workers run, so the
    /// master can tell a slow node from a wedged one.
    Progress {
        /// Node id.
        node: u32,
        /// Monotonic heartbeat sequence number within the dispatch.
        seq: u32,
    },
    /// Master → node: end the serve loop and exit cleanly.
    Shutdown,
    /// Client → server (serve mode): run one analytics operation
    /// against a named catalog graph.
    Query {
        /// Client-chosen request id, echoed in the response.
        id: u32,
        /// Catalog graph name.
        graph: String,
        /// The operation to run.
        op: QueryOperation,
        /// Per-query engine knobs.
        options: QueryOptions,
    },
    /// Server → client: a successful query answer. The meaning of the
    /// scalar fields is per-operation (see the serve-mode wire table in
    /// ARCHITECTURE.md): `triangles` is the exact count for the MGT
    /// operations, `value_bits` an `f64` in bits for clustering and
    /// DOULION (the `k`-truss edge count for `ktruss`), and `aux` the
    /// transitivity bits / max-`k` / kept-edge count.
    QueryResult {
        /// Echoed request id.
        id: u32,
        /// Exact triangle count (0 where the operation has none).
        triangles: u64,
        /// Primary per-operation value (often `f64::to_bits`).
        value_bits: u64,
        /// Secondary per-operation value.
        aux: u64,
        /// Server-side wall time of the query in nanoseconds.
        wall_nanos: u64,
        /// Per-worker MGT counters of the run (empty for operations
        /// that do not run the disk engine).
        workers: Vec<WorkerSummary>,
        /// Listed triples (`list` only, capped at the request's limit).
        triples: Vec<(u32, u32, u32)>,
    },
    /// Server → client: the query failed with a typed, human-readable
    /// reason; the server keeps serving.
    QueryError {
        /// Echoed request id.
        id: u32,
        /// Failure description.
        detail: String,
    },
    /// Client → server: request the aggregate serve-mode counters.
    StatsRequest,
    /// Server → client: catalog plus aggregate counters.
    StatsResult {
        /// The counters.
        stats: ServerStats,
    },
}

// Tags, in variant declaration order. Cluster and serve messages share
// the tag space — a serve-mode client and a cluster node share one
// decoder.
const TAG_CONFIG: u8 = 1;
const TAG_RESULTS: u8 = 2;
const TAG_TRIANGLES: u8 = 3;
const TAG_NODE_ERROR: u8 = 4;
const TAG_PROGRESS: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;
const TAG_QUERY: u8 = 7;
const TAG_QUERY_RESULT: u8 = 8;
const TAG_QUERY_ERROR: u8 = 9;
const TAG_STATS_REQUEST: u8 = 10;
const TAG_STATS_RESULT: u8 = 11;

impl Message {
    /// Append this message's payload to `out` — the one encoder behind
    /// [`encode`](Self::encode) and [`frame`](Self::frame). Every
    /// message opens `tag, u32 id`; one without an id carries zero.
    fn write(&self, out: &mut Vec<u8>) {
        macro_rules! put {
            ($tag:expr, $id:expr $(, $field:expr)*) => {{
                $tag.put(out);
                $id.put(out);
                $($field.put(out);)*
            }};
        }
        match self {
            Message::Config {
                node,
                graph_base,
                workers,
                listing,
                directives,
            } => put!(TAG_CONFIG, node, graph_base, workers, listing, directives),
            Message::Results { node, workers } => put!(TAG_RESULTS, node, workers),
            Message::Triangles { node, triples } => put!(TAG_TRIANGLES, node, triples),
            Message::NodeError { node, detail } => put!(TAG_NODE_ERROR, node, detail),
            Message::Progress { node, seq } => put!(TAG_PROGRESS, node, seq),
            Message::Shutdown => put!(TAG_SHUTDOWN, 0u32),
            Message::Query {
                id,
                graph,
                op,
                options,
            } => put!(TAG_QUERY, id, graph, op, options),
            Message::QueryResult {
                id,
                triangles,
                value_bits,
                aux,
                wall_nanos,
                workers,
                triples,
            } => put!(
                TAG_QUERY_RESULT,
                id,
                triangles,
                value_bits,
                aux,
                wall_nanos,
                workers,
                triples
            ),
            Message::QueryError { id, detail } => put!(TAG_QUERY_ERROR, id, detail),
            Message::StatsRequest => put!(TAG_STATS_REQUEST, 0u32),
            Message::StatsResult { stats } => put!(TAG_STATS_RESULT, 0u32, stats),
        }
    }

    /// Encode the payload (no frame header) into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write(&mut out);
        out
    }

    /// Encode as one transport frame, `[u32 payload length | payload]`,
    /// in a single buffer — the workspace's one frame writer. The
    /// header is reserved up front, so a socket send is one
    /// `write_all`. A payload past [`MAX_FRAME`] is a typed error, not
    /// a truncated length.
    pub fn frame(&self) -> Result<Vec<u8>> {
        let mut out = vec![0u8; FRAME_HEADER];
        self.write(&mut out);
        let len = out.len() - FRAME_HEADER;
        if len > MAX_FRAME {
            return Err(protocol(format!(
                "payload of {len} bytes exceeds the {MAX_FRAME}-byte frame cap"
            )));
        }
        // MAX_FRAME < u32::MAX, so the cast is exact.
        out[..FRAME_HEADER].copy_from_slice(&(len as u32).to_le_bytes());
        Ok(out)
    }

    /// Decode a payload produced by [`encode`](Self::encode), owned or
    /// borrowed. Strict: see the module docs.
    pub fn decode(buf: impl AsRef<[u8]>) -> Result<Self> {
        let mut r = Reader(buf.as_ref());
        let (tag, id): (u8, u32) = (r.get()?, r.get()?);
        // Canonical: a message without an id carries zero.
        if id != 0 && matches!(tag, TAG_SHUTDOWN | TAG_STATS_REQUEST | TAG_STATS_RESULT) {
            return Err(protocol(format!("tag {tag} carries id {id}, expected 0")));
        }
        let msg = match tag {
            TAG_CONFIG => Message::Config {
                node: id,
                graph_base: r.get()?,
                workers: r.get()?,
                listing: r.get()?,
                directives: r.get()?,
            },
            TAG_RESULTS => Message::Results {
                node: id,
                workers: r.get()?,
            },
            TAG_TRIANGLES => Message::Triangles {
                node: id,
                triples: r.get()?,
            },
            TAG_NODE_ERROR => Message::NodeError {
                node: id,
                detail: r.get()?,
            },
            TAG_PROGRESS => Message::Progress {
                node: id,
                seq: r.get()?,
            },
            TAG_SHUTDOWN => Message::Shutdown,
            TAG_QUERY => Message::Query {
                id,
                graph: r.get()?,
                op: r.get()?,
                options: r.get()?,
            },
            TAG_QUERY_RESULT => Message::QueryResult {
                id,
                triangles: r.get()?,
                value_bits: r.get()?,
                aux: r.get()?,
                wall_nanos: r.get()?,
                workers: r.get()?,
                triples: r.get()?,
            },
            TAG_QUERY_ERROR => Message::QueryError {
                id,
                detail: r.get()?,
            },
            TAG_STATS_REQUEST => Message::StatsRequest,
            TAG_STATS_RESULT => Message::StatsResult { stats: r.get()? },
            t => return Err(protocol(format!("unknown tag {t}"))),
        };
        r.finish()?;
        Ok(msg)
    }

    /// Encoded payload size in bytes (what the network accounting
    /// charges).
    pub fn wire_size(&self) -> u64 {
        self.encode().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary(i: u32) -> WorkerSummary {
        WorkerSummary {
            worker: i,
            start: 10 * i as u64,
            end: 10 * i as u64 + 10,
            triangles: 42 + i as u64,
            iterations: 3,
            cpu_ops: 1_000_000,
            bytes_read: 4096,
            bytes_written: 0,
            seeks: 2,
            io_ops: 7,
            io_nanos: 123_456,
            wall_nanos: 999_999,
        }
    }

    fn sample_worker(backend: IoBackend) -> WorkerConfig {
        WorkerConfig {
            start: 7,
            end: 900,
            budget_edges: 4096,
            scan_pruning: false,
            backend,
            io_latency_us: 50,
            read_fault: None,
            codec: Codec::Raw,
        }
    }

    #[test]
    fn config_round_trip() {
        let msg = Message::Config {
            node: 3,
            graph_base: "/data/node3/oriented".into(),
            workers: IoBackend::ALL.map(sample_worker).to_vec(),
            listing: true,
            directives: NodeDirectives::default(),
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn uring_config_round_trips_through_the_wire() {
        // Every backend has its own whole byte: its index in
        // `IoBackend::ALL`, after the three u64s and the pruning byte.
        for (d, &backend) in IoBackend::ALL.iter().enumerate() {
            let cfg = sample_worker(backend);
            let mut encoded = Vec::new();
            cfg.put(&mut encoded);
            assert_eq!(encoded[24], 0, "pruning byte");
            assert_eq!(encoded[25], d as u8, "{backend:?}");
            let mut r = Reader(&encoded);
            assert_eq!(r.get::<WorkerConfig>().unwrap(), cfg);
            r.finish().unwrap();
        }
        assert_eq!(IoBackend::ALL[3], IoBackend::Uring);
    }

    #[test]
    fn record_lengths_match_encodings() {
        // The `wire_record!` length literals against real encodings:
        // exact for fixed records, the empty-sequence floor otherwise.
        fn len(v: &impl Wire) -> usize {
            let mut out = Vec::new();
            v.put(&mut out);
            out.len()
        }
        let worker = sample_worker(IoBackend::Mmap);
        let faulty = WorkerConfig {
            read_fault: Some(9),
            ..worker
        };
        let graph = CatalogGraphInfo {
            name: String::new(),
            vertices: 1,
            m_star: 2,
        };
        for (got, declared) in [
            (len(&worker), WorkerConfig::MIN_LEN),
            (len(&faulty), 40), // a set fault changes no length
            (len(&NodeDirectives::default()), NodeDirectives::MIN_LEN),
            (len(&NodeFault::Delay(7)), NodeFault::MIN_LEN),
            (len(&sample_summary(1)), WorkerSummary::MIN_LEN),
            (len(&QueryOptions::default()), QueryOptions::MIN_LEN),
            (len(&QueryOperation::Count), QueryOperation::MIN_LEN),
            (len(&graph), CatalogGraphInfo::MIN_LEN),
            (len(&ServerStats::default()), ServerStats::MIN_LEN),
        ] {
            assert_eq!(got, declared);
        }
        // ~48 MiB, and representable in the u32 frame header.
        assert!(MAX_FRAME > 12 * MAX_LIST_LIMIT as usize && MAX_FRAME < u32::MAX as usize);
    }

    #[test]
    fn truncated_and_undersized_records_rejected() {
        let msg = Message::Config {
            node: 0,
            graph_base: "x".into(),
            workers: vec![sample_worker(IoBackend::Prefetch)],
            listing: false,
            directives: NodeDirectives::default(),
        };
        // record cut mid-field
        let enc = msg.encode();
        assert!(Message::decode(&enc[..enc.len() - 3]).is_err());
        // one worker declared, four bytes of record present
        let mut b = vec![TAG_CONFIG];
        0u32.put(&mut b);
        String::from("x").put(&mut b);
        1u32.put(&mut b);
        0u32.put(&mut b);
        let err = Message::decode(b).unwrap_err();
        assert!(err.to_string().contains("count 1 × 40"), "{err}");
    }

    #[test]
    fn results_round_trip() {
        let msg = Message::Results {
            node: 1,
            workers: (0..5).map(sample_summary).collect(),
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn triangles_round_trip() {
        let msg = Message::Triangles {
            node: 2,
            triples: vec![(1, 2, 3), (4, 5, 6), (7, 8, 9)],
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn node_error_round_trip() {
        let msg = Message::NodeError {
            node: 7,
            detail: "disk on fire".into(),
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn progress_and_shutdown_round_trip() {
        let msg = Message::Progress { node: 3, seq: 17 };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
        let msg = Message::Shutdown;
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn config_with_directives_and_read_fault_round_trips() {
        for fault in [
            NodeFault::None,
            NodeFault::Panic,
            NodeFault::Drop,
            NodeFault::Stall,
            NodeFault::Delay(40),
        ] {
            let msg = Message::Config {
                node: 2,
                graph_base: "/data/node2/oriented".into(),
                workers: vec![
                    WorkerConfig {
                        read_fault: Some(1000),
                        ..sample_worker(IoBackend::Prefetch)
                    },
                    sample_worker(IoBackend::Mmap),
                ],
                listing: false,
                directives: NodeDirectives {
                    heartbeat_ms: 250,
                    fault,
                },
            };
            assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn query_round_trips_every_operation() {
        for op in [
            QueryOperation::Count,
            QueryOperation::List { limit: 128 },
            QueryOperation::Clustering,
            QueryOperation::KTruss { k: 4 },
            QueryOperation::Doulion {
                p_ppm: 500_000,
                seed: 42,
                trials: 16,
            },
        ] {
            let msg = Message::Query {
                id: 7,
                graph: "rmat-12".into(),
                op,
                options: QueryOptions {
                    cores: 3,
                    budget_edges: 4096,
                    scan_pruning: true,
                    backend: IoBackend::Mmap,
                    codec: Codec::DeltaVarint,
                    io_latency_us: 50,
                },
            };
            assert_eq!(Message::decode(msg.encode()).unwrap(), msg, "{}", op.name());
        }
    }

    #[test]
    fn query_result_and_error_round_trip() {
        let msg = Message::QueryResult {
            id: 9,
            triangles: 1140,
            value_bits: 0.61f64.to_bits(),
            aux: 0.55f64.to_bits(),
            wall_nanos: 1_234_567,
            workers: (0..3).map(sample_summary).collect(),
            triples: vec![(1, 2, 3), (4, 5, 6)],
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
        let msg = Message::QueryError {
            id: 9,
            detail: "unknown graph \"orkut\"".into(),
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn stats_round_trip() {
        assert_eq!(
            Message::decode(Message::StatsRequest.encode()).unwrap(),
            Message::StatsRequest
        );
        let msg = Message::StatsResult {
            stats: ServerStats {
                served: 100,
                failed: 3,
                inflight: 2,
                rejected_graphs: 1,
                bytes_read: 1 << 30,
                u32s_decoded: 77,
                admitted_peak: 9000,
                budget_total: 10_000,
                latency_buckets: (0..32).map(|i| i as u64).collect(),
                graphs: vec![
                    CatalogGraphInfo {
                        name: "rmat-12".into(),
                        vertices: 4096,
                        m_star: 30_000,
                    },
                    CatalogGraphInfo {
                        name: "wheel".into(),
                        vertices: 21,
                        m_star: 40,
                    },
                ],
            },
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn unknown_operation_kind_rejected() {
        let mut b = vec![TAG_QUERY];
        0u32.put(&mut b);
        String::from("g").put(&mut b);
        b.push(99); // unassigned kind
        b.extend_from_slice(&[0; 16]);
        QueryOptions::default().put(&mut b);
        let err = Message::decode(b).unwrap_err();
        assert!(err.to_string().contains("operation kind"), "{err}");
    }

    #[test]
    fn truncated_query_result_rejected() {
        let msg = Message::QueryResult {
            id: 1,
            triangles: 5,
            value_bits: 0,
            aux: 0,
            wall_nanos: 10,
            workers: vec![sample_summary(0)],
            triples: vec![(1, 2, 3)],
        };
        let enc = msg.encode();
        for cut in [3usize, 20, enc.len() - 5] {
            assert!(Message::decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn stats_quantiles_come_from_the_histogram() {
        let mut stats = ServerStats {
            latency_buckets: vec![0; 32],
            ..Default::default()
        };
        assert_eq!(stats.quantile_micros(0.5), 0, "empty histogram");
        // 90 queries in [2^7, 2^8) µs, 10 in [2^10, 2^11) µs.
        stats.latency_buckets[7] = 90;
        stats.latency_buckets[10] = 10;
        assert_eq!(stats.quantile_micros(0.50), 1 << 8);
        assert_eq!(stats.quantile_micros(0.90), 1 << 8);
        assert_eq!(stats.quantile_micros(0.99), 1 << 11);
        assert_eq!(stats.quantile_micros(1.0), 1 << 11);
    }

    #[test]
    fn wire_size_matches_encoding() {
        let msg = Message::Triangles {
            node: 0,
            triples: vec![(1, 2, 3); 100],
        };
        // 1 tag + 4 node + 4 count + 100 * 12
        assert_eq!(msg.wire_size(), 9 + 1200);
        // a frame is the same payload behind its u32 length
        let frame = msg.frame().unwrap();
        assert_eq!(frame[..FRAME_HEADER], 1209u32.to_le_bytes());
        assert_eq!(frame[FRAME_HEADER..], msg.encode());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Message::decode([]).is_err());
        assert!(Message::decode([0, 0, 0, 0, 0]).is_err()); // no tag 0
        assert!(Message::decode([TAG_QUERY_RESULT, 0, 0, 0, 0]).is_err());
        assert!(Message::decode([TAG_SHUTDOWN, 1, 0, 0, 0]).is_err()); // id on an id-less tag
        let err = Message::decode([TAG_SHUTDOWN, 0, 0, 0, 0, 0]).unwrap_err();
        assert!(err.to_string().contains("1 trailing bytes"), "{err}");
    }

    #[test]
    fn empty_collections_round_trip() {
        let msg = Message::Results {
            node: 0,
            workers: vec![],
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
        let msg = Message::Triangles {
            node: 0,
            triples: vec![],
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }
}
