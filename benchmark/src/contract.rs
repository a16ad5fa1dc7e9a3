//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric
//! and workload each is expected to move. `BENCHMARK.json` at the repo
//! root is rendered from these tables (`bench --print-contract`); a
//! test keeps the two identical.

use pdtl_io::Codec;

use crate::json::quote;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;
/// Worker cores / client connections of every workload: the host's
/// `nproc`. Fixed rather than detected so rows from different hosts
/// describe the same configuration.
pub const CORES: usize = 2;
/// Where the benchmark lives; the only entry of `paths`.
pub const BENCH_DIR: &str = "benchmark";
/// `M` of the multi-pass workloads, in edges: about `|E*|/58` on
/// RMAT-17, so every worker streams its range dozens of times.
pub const MULTIPASS_BUDGET_EDGES: usize = 32 << 10;
/// `M` of `count-1pass`: at least `|E*|`, the whole oriented graph
/// resident.
pub const ONEPASS_BUDGET_EDGES: usize = 4 << 20;
/// Per-query budget of `serve-mix`.
pub const SERVE_BUDGET_EDGES: u64 = 1 << 16;
/// `List { limit }` of the `serve-mix` listing query.
pub const SERVE_LIST_LIMIT: u32 = 1000;

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `LocalRunner::run`, as `pdtl count`.
    Count {
        /// Per-core memory budget `M` in edges.
        budget_edges: usize,
        /// On-disk codec of the oriented adjacency.
        codec: Codec,
    },
    /// `LocalRunner::run_listing` then `FileSink`, as `pdtl list`.
    List,
    /// `ClusterRunner::run` over loopback TCP, as `pdtl cluster --tcp`.
    Cluster {
        /// Per-worker memory budget `M` in edges.
        budget_edges: usize,
    },
    /// `Catalog::open` → `Server::spawn` → closed-loop `ServeClient`s.
    Serve,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Final name; later issues cite it.
    pub name: &'static str,
    /// One sentence: which layer does the work here, and why it exists.
    pub why: &'static str,
    /// What it runs.
    pub kind: Kind,
    /// RMAT scale of its input graph.
    pub scale: u32,
}

impl Workload {
    /// RMAT scale under `--smoke`.
    pub fn scale_for(&self, smoke: bool) -> u32 {
        if smoke {
            self.scale.min(10)
        } else {
            self.scale
        }
    }
}

/// The six workloads.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "count-1pass",
        why: "RMAT-17 count, M >= |E*|: whole oriented graph resident, so orient + intersect + the mgt CPU loop dominate; transport and codec must not move this row",
        kind: Kind::Count {
            budget_edges: ONEPASS_BUDGET_EDGES,
            codec: Codec::Raw,
        },
        scale: 17,
    },
    Workload {
        name: "count-multipass",
        why: "same graph, M = 32 Ki edges (|E*|/58), raw: >100 chunk iterations stream the adjacency through U32Source, so pdtl-io transport, chunk-load/scan and balance show here",
        kind: Kind::Count {
            budget_edges: MULTIPASS_BUDGET_EDGES,
            codec: Codec::Raw,
        },
        scale: 17,
    },
    Workload {
        name: "count-varint",
        why: "same graph and M, delta-varint: same I/O plan, ~2.4x fewer bytes and a decode per block, so the codec layer does most of the work; diverges from count-multipass when transport changes",
        kind: Kind::Count {
            budget_edges: MULTIPASS_BUDGET_EDGES,
            codec: Codec::DeltaVarint,
        },
        scale: 17,
    },
    Workload {
        name: "list-file",
        why: "RMAT-15 run_listing then FileSink as pdtl list does: writes beside reads, CollectSink materialises T triples, rank-to-id translation and U32Writer show in wall_s and peak_rss_mb",
        kind: Kind::List,
        scale: 15,
    },
    Workload {
        name: "cluster-tcp",
        why: "RMAT-17, 2 nodes x 1 core, M = 32 Ki edges over loopback TCP: adds replica copy, post-copy CRC verify and message framing to the multipass engine",
        kind: Kind::Cluster {
            budget_edges: MULTIPASS_BUDGET_EDGES,
        },
        scale: 17,
    },
    Workload {
        name: "serve-mix",
        why: "RMAT-12 catalog, closed loop of 2 clients (seeded think < 16 ms) cycling count/raw, count/varint, list(1000), clustering: engine is a few ms, so daemon overhead is nearly the whole latency",
        kind: Kind::Serve,
        scale: 12,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload with `--trace 0`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// What it means (README / result document).
    pub meaning: &'static str,
}

/// The end-to-end metrics. Every workload reports every one of them.
///
/// The timing bounds are sized to the host, not to the program: ten
/// runs of one binary on this 2-core VM spread 8-21% (quartile distance
/// over median) whatever the repetition count, because the host speeds
/// up and slows down in phases of minutes. A comparison of two commits
/// therefore alternates them (README, "Comparing two commits").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "median wall of one complete operation, DiskGraph::open to result in hand (list-file: file written and closed; serve-mix: one query round trip, client side)",
    },
    EndToEnd {
        name: "calc_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "median of the paper's calculation time, the straggler worker: RunReport/ClusterReport::calc_wall() (serve-mix: QueryReply.wall, the engine's share of a query)",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: "operations completed per second of the measured window, back to back (serve-mix: queries per second over both clients)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        meaning: "VmHWM of the run child after its warm-up: one operation in a fresh process that only opens the written files (serve-mix: daemon plus clients after one cycle of the mix each) - the Theta(M)-per-core contract made visible",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "median over 3 set-ups of generate + write inputs (serve-mix: plus Catalog::open + Server::spawn)",
    },
];

/// A per-layer metric: reported by every workload with `--trace 1`; 0
/// where the layer is not on that workload's path.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// A *count*: must repeat exactly across repetitions of one run and
    /// across runs with the same seed; the bench asserts the former.
    pub count: bool,
    /// `metric@workload` pairs it is expected to move; written down
    /// before measuring.
    pub moves: &'static [&'static str],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [&'static str],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        count: false,
        moves,
    }
}

const fn count(name: &'static str, unit: &'static str, moves: &'static [&'static str]) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        count: true,
        moves,
    }
}

use Better::{Higher, Lower};

const SETUP_ALL: &[&str] = &["setup_s@count-1pass", "setup_s@serve-mix"];
const WALL_1PASS: &[&str] = &["wall_s@count-1pass"];
const WALL_ORIENT: &[&str] = &["wall_s@count-1pass", "wall_s@count-varint"];
const CALC_1PASS: &[&str] = &["calc_s@count-1pass"];
const CALC_MULTI: &[&str] = &["calc_s@count-multipass"];
const CALC_BALANCE: &[&str] = &["calc_s@count-multipass", "calc_s@count-varint"];
const CALC_IO: &[&str] = &["calc_s@count-multipass", "calc_s@cluster-tcp"];
const CALC_VARINT: &[&str] = &["calc_s@count-varint"];
const LIST: &[&str] = &["wall_s@list-file", "peak_rss_mb@list-file"];
const WALL_LIST: &[&str] = &["wall_s@list-file"];
const WALL_CLUSTER: &[&str] = &["wall_s@cluster-tcp"];
const SERVE_WALL: &[&str] = &["wall_s@serve-mix"];
const SERVE_WIRE: &[&str] = &["wall_s@serve-mix", "wall_s@cluster-tcp"];
const SERVE_BOTH: &[&str] = &["wall_s@serve-mix", "ops_per_s@serve-mix"];
const SERVE_CALC: &[&str] = &["calc_s@serve-mix"];
const VERIFY_COPY: &[&str] = &["wall_s@count-1pass", "wall_s@cluster-tcp"];
const NONE: &[&str] = &[];

/// The per-layer metrics, grouped by module.
pub const PER_LAYER: &[Layer] = &[
    // pdtl-graph
    layer("graph.gen_s", "s", Lower, SETUP_ALL),
    layer("graph.write_s", "s", Lower, SETUP_ALL),
    layer("graph.oracle_s", "s", Lower, NONE),
    layer("graph.open_s", "s", Lower, WALL_1PASS),
    layer("graph.verify_s", "s", Lower, WALL_1PASS),
    layer("graph.verify_mb_per_s", "MB/s", Higher, WALL_1PASS),
    // pdtl-core::orient
    layer("orient.raw_s", "s", Lower, WALL_ORIENT),
    layer("orient.varint_s", "s", Lower, WALL_ORIENT),
    count("orient.bytes_written_mb", "MB", WALL_ORIENT),
    count("orient.cpu_ops_m", "Mops", WALL_ORIENT),
    // pdtl-core::balance
    layer("balance.split_s", "s", Lower, WALL_1PASS),
    layer("balance.imbalance", "ratio", Lower, CALC_BALANCE),
    // pdtl-core::intersect
    layer("intersect.calib_scalar_ns", "ns", Lower, NONE),
    layer("intersect.linear_ns.1000x1000", "ns", Lower, CALC_1PASS),
    layer("intersect.linear_ns.100x10000", "ns", Lower, CALC_1PASS),
    layer("intersect.linear_ns.10x100000", "ns", Lower, CALC_1PASS),
    layer("intersect.gallop_ns.10x100000", "ns", Lower, CALC_1PASS),
    // pdtl-core::mgt
    layer("mgt.inmem_s", "s", Lower, CALC_1PASS),
    layer("mgt.disk_1core_s", "s", Lower, CALC_MULTI),
    count("mgt.iterations", "count", CALC_MULTI),
    count("mgt.cpu_ops_m", "Mops", CALC_1PASS),
    count("mgt.bytes_read_mb", "MB", CALC_IO),
    count("mgt.read_ops", "count", CALC_IO),
    count("mgt.seeks", "count", CALC_IO),
    count("mgt.u32s_decoded_m", "Mu32", CALC_VARINT),
    layer("mgt.io_wait_s", "s", Lower, CALC_IO),
    layer("mgt.read_amplification", "ratio", Lower, CALC_IO),
    // pdtl-io transport
    layer("io.scan_mb_per_s.blocking", "MB/s", Higher, CALC_IO),
    layer("io.scan_mb_per_s.prefetch", "MB/s", Higher, CALC_IO),
    layer("io.scan_mb_per_s.mmap", "MB/s", Higher, CALC_IO),
    layer("io.scan_mb_per_s.uring", "MB/s", Higher, CALC_IO),
    layer("io.write_mb_per_s", "MB/s", Higher, WALL_LIST),
    layer("io.crc32c_mb_per_s", "MB/s", Higher, VERIFY_COPY),
    layer("io.uring_supported", "bool", Higher, NONE),
    // pdtl-io::codec
    layer("codec.decode_mu32_per_s", "Mu32/s", Higher, CALC_VARINT),
    layer(
        "codec.encode_mu32_per_s",
        "Mu32/s",
        Higher,
        &["wall_s@count-varint"],
    ),
    Layer {
        name: "codec.bytes_ratio",
        unit: "ratio",
        better: Higher,
        count: true,
        moves: CALC_VARINT,
    },
    // pdtl-core::sink
    layer("sink.collect_s", "s", Lower, LIST),
    layer("sink.file_mtri_per_s", "Mtri/s", Higher, WALL_LIST),
    count("sink.out_mb", "MB", LIST),
    // pdtl-core::runner
    layer("runner.glue_s", "s", Lower, WALL_1PASS),
    // pdtl-cluster::message
    layer(
        "message.triangles_encode_mb_per_s",
        "MB/s",
        Higher,
        SERVE_WIRE,
    ),
    layer(
        "message.triangles_decode_mb_per_s",
        "MB/s",
        Higher,
        SERVE_WIRE,
    ),
    layer("message.config_roundtrip_us", "us", Lower, WALL_CLUSTER),
    layer("message.query_result_roundtrip_us", "us", Lower, SERVE_WALL),
    // pdtl-cluster::transport
    layer("transport.tcp_rtt_us", "us", Lower, SERVE_WIRE),
    layer("transport.inproc_rtt_us", "us", Lower, NONE),
    layer("transport.tcp_bulk_mb_per_s", "MB/s", Higher, SERVE_WIRE),
    // pdtl-cluster::runner
    layer("cluster.copy_s", "s", Lower, WALL_CLUSTER),
    layer("cluster.orient_s", "s", Lower, WALL_CLUSTER),
    count("cluster.net_mb.graph", "MB", WALL_CLUSTER),
    count("cluster.net_mb.config", "MB", WALL_CLUSTER),
    count("cluster.net_mb.result", "MB", WALL_CLUSTER),
    layer("cluster.net_mb.control", "MB", Lower, WALL_CLUSTER),
    layer("cluster.retries", "count", Lower, WALL_CLUSTER),
    // pdtl-cluster::server
    layer("server.catalog_open_s", "s", Lower, &["setup_s@serve-mix"]),
    layer("server.engine_p50_ms", "ms", Lower, SERVE_CALC),
    layer("server.overhead_p50_ms", "ms", Lower, SERVE_BOTH),
    layer("server.query_p95_ms", "ms", Lower, SERVE_BOTH),
    layer("server.query_p99_ms", "ms", Lower, SERVE_BOTH),
    layer("server.op_p50_ms.count_raw", "ms", Lower, SERVE_BOTH),
    layer("server.op_p50_ms.count_varint", "ms", Lower, SERVE_BOTH),
    layer("server.op_p50_ms.list", "ms", Lower, SERVE_BOTH),
    layer("server.op_p50_ms.clustering", "ms", Lower, SERVE_BOTH),
    layer("server.admission_peak_edges", "edges", Lower, NONE),
    layer(
        "server.rss_after_load_mb",
        "MiB",
        Lower,
        &["peak_rss_mb@serve-mix"],
    ),
    layer("server.samples", "count", Higher, NONE),
    // pdtl-analytics
    layer("analytics.clustering_s", "s", Lower, SERVE_BOTH),
    // the harness itself
    layer("trace.coverage", "ratio", Lower, NONE),
    layer("trace.untraced_wall_s", "s", Lower, NONE),
    layer("trace.staged_wall_s", "s", Lower, NONE),
    layer("trace.spans", "count", Higher, NONE),
];

/// `trace.coverage` must stay inside this band: the staged layer spans
/// sum to the untraced end-to-end row within noise.
pub const COVERAGE_BAND: (f64, f64) = (0.85, 1.15);

/// Render `BENCHMARK.json` (exactly the keys the contract prescribes).
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--bin",
        "bench",
        "--",
    ];
    let command: Vec<String> = command.iter().map(|c| quote(c)).collect();
    s.push_str(&format!("  \"command\": [{}],\n", command.join(", ")));
    s.push_str(&format!("  \"paths\": [{}],\n", quote(BENCH_DIR)));
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    s.push_str(&format!("  \"workloads\": [\n{}\n  ],\n", rows.join(",\n")));
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.word()),
                m.bound
            )
        })
        .collect();
    s.push_str(&format!(
        "  \"end_to_end\": [\n{}\n  ],\n",
        rows.join(",\n")
    ));
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.word())
            )
        })
        .collect();
    s.push_str(&format!(
        "  \"per_layer\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    ));
    s
}
