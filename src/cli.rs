//! Command-line interface logic for the `pdtl` binary.
//!
//! Subcommands:
//!
//! * `gen <dataset> <out-base> [--scale f]` — generate a
//!   dataset stand-in into PDTL binary format;
//! * `import <edges.txt> <out-base>` — convert a SNAP text edge list;
//! * `export <base> <edges.txt>` — write a graph back to text;
//! * `stats <base>` — print the Table-I row of a graph;
//! * `count <base> [--cores p] [--memory edges] [--naive]
//!   [--backend blocking|prefetch|mmap|uring]
//!   [--codec raw|delta-varint]` — multicore exact count; `--codec`
//!   selects the oriented graph's on-disk encoding (delta-varint cuts
//!   the multi-pass `bytes_read`);
//! * `cluster <base> [--nodes n] [--cores p] [--memory edges] [--tcp]
//!   [--backend b] [--codec c] [--fault plan]` — distributed exact
//!   count; `--fault` injects a deterministic fault plan (same grammar
//!   as `PDTL_FAULT`, e.g. `seed=42;kill=1`);
//! * `list <base> <out.bin> [--cores p]` — triangle listing to file;
//! * `verify <base>` — full integrity verification: open the graph
//!   (structural + quick manifest checks) and digest every file
//!   against the `.mft` manifest. Graphs written before the integrity
//!   layer (no manifest) pass with a note;
//! * `serve <dir> [--addr host:port] [--workers n] [--cores p]
//!   [--memory edges]` — resident daemon: verify + orient every graph
//!   under `<dir>` once, then answer concurrent queries until a client
//!   sends shutdown;
//! * `query <addr> stats|shutdown` or `query <addr> <graph>
//!   <count|list|clustering|ktruss|doulion> [--k k] [--p f] [--seed s]
//!   [--trials t] [--limit l] [--cores p] [--memory edges]
//!   [--backend b] [--codec c]` — one serve-mode request.
//!
//! A flag the command does not take is a usage error, not a no-op.
//! Parsing is kept dependency-free and fully unit-tested; the binary is
//! a thin wrapper around [`run`].

use std::path::{Path, PathBuf};

use pdtl_cluster::{
    Catalog, ClusterConfig, ClusterRunner, FaultPlan, QueryOperation, QueryOptions, ServeClient,
    ServeConfig, Server, TransportKind,
};
use pdtl_core::mgt::MgtOptions;
use pdtl_core::{BalanceStrategy, LocalConfig, LocalRunner, ScratchDir};
use pdtl_graph::datasets::Dataset;
use pdtl_graph::{DiskGraph, GraphStats};
use pdtl_io::{Codec, IoBackend, IoStats, MemoryBudget};

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a named dataset.
    Gen {
        /// Dataset name (`livejournal|orkut|twitter|yahoo|rmat-K`).
        dataset: String,
        /// Output base path.
        out: PathBuf,
        /// Scale factor.
        scale: f64,
    },
    /// Import a text edge list.
    Import {
        /// Input text file.
        input: PathBuf,
        /// Output base path.
        out: PathBuf,
    },
    /// Export to a text edge list.
    Export {
        /// Input base path.
        base: PathBuf,
        /// Output text file.
        out: PathBuf,
    },
    /// Print dataset statistics.
    Stats {
        /// Input base path.
        base: PathBuf,
    },
    /// Local multicore count.
    Count {
        /// Input base path.
        base: PathBuf,
        /// Cores.
        cores: usize,
        /// Memory budget in edges.
        memory: usize,
        /// Use the naive equal-edges split.
        naive: bool,
        /// I/O backend override (`None` = default / `PDTL_IO_BACKEND`).
        backend: Option<IoBackend>,
        /// On-disk codec override (`None` = default / `PDTL_CODEC`).
        codec: Option<Codec>,
    },
    /// Distributed count.
    Cluster {
        /// Input base path.
        base: PathBuf,
        /// Nodes.
        nodes: usize,
        /// Cores per node.
        cores: usize,
        /// Memory budget in edges.
        memory: usize,
        /// Use TCP transport.
        tcp: bool,
        /// I/O backend override (`None` = default / `PDTL_IO_BACKEND`).
        backend: Option<IoBackend>,
        /// Fault-injection plan (`None` = default / `PDTL_FAULT`).
        fault: Option<String>,
        /// On-disk codec override (`None` = default / `PDTL_CODEC`).
        codec: Option<Codec>,
    },
    /// Triangle listing to a binary file.
    List {
        /// Input base path.
        base: PathBuf,
        /// Output triangle file.
        out: PathBuf,
        /// Cores.
        cores: usize,
    },
    /// Full integrity verification against the `.mft` manifest.
    Verify {
        /// Input base path.
        base: PathBuf,
    },
    /// Resident graph-catalog daemon.
    Serve {
        /// Directory of PDTL graph bases to serve.
        dir: PathBuf,
        /// Bind address.
        addr: String,
        /// Worker-pool size.
        workers: usize,
        /// Default cores per query.
        cores: usize,
        /// Admission budget in edges across all in-flight queries.
        memory: usize,
    },
    /// One client request against a running daemon.
    Query {
        /// Daemon address (`host:port`).
        addr: String,
        /// What to ask.
        request: QueryRequest,
    },
}

/// The request a `pdtl query` invocation sends.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRequest {
    /// Fetch and print the daemon's aggregate counters.
    Stats,
    /// Ask the daemon to drain and exit.
    Shutdown,
    /// Run one analytics operation against a catalog graph.
    Run {
        /// Catalog graph name.
        graph: String,
        /// Operation to run.
        op: QueryOperation,
        /// Per-query engine knobs.
        options: QueryOptions,
    },
}

/// Usage text.
pub const USAGE: &str = "usage: pdtl \
<gen|import|export|stats|count|cluster|list|verify|serve|query> ... \
(see crate docs for flags)";

/// The `--flags` a command takes (`None`: no such command).
fn flags_of(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "import" | "export" | "stats" | "verify" => &[],
        "gen" => &["scale"],
        "count" => &["cores", "memory", "naive", "backend", "codec"],
        "cluster" => &[
            "nodes", "cores", "memory", "tcp", "backend", "codec", "fault",
        ],
        "list" => &["cores"],
        "serve" => &["addr", "workers", "cores", "memory"],
        "query" => &[
            "k", "p", "seed", "trials", "limit", "cores", "memory", "backend", "codec",
        ],
        _ => return None,
    })
}

/// Parse an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut pos: Vec<&String> = Vec::new();
    let mut named: Vec<&str> = Vec::new();
    let mut flags: std::collections::HashMap<String, String> = Default::default();
    let mut bools: std::collections::HashSet<String> = Default::default();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            named.push(name);
            match name {
                "naive" | "tcp" => {
                    bools.insert(name.to_string());
                }
                _ => {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("flag --{name} needs a value"))?;
                    flags.insert(name.to_string(), v.clone());
                }
            }
        } else {
            pos.push(a);
        }
    }
    // Parsed at the width of the field it fills — the wire width for a
    // query — so an out-of-range value is refused, never wrapped.
    fn get_num<T: std::str::FromStr>(
        flags: &std::collections::HashMap<String, String>,
        key: &str,
        default: T,
    ) -> Result<T, String> {
        match flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key}: {v:?}")),
        }
    }
    let get_backend =
        |flags: &std::collections::HashMap<String, String>| -> Result<Option<IoBackend>, String> {
            match flags.get("backend") {
                None => Ok(None),
                Some(v) => IoBackend::parse(v).map(Some).ok_or(format!(
                    "bad --backend: {v:?} (blocking|prefetch|mmap|uring)"
                )),
            }
        };
    let get_codec =
        |flags: &std::collections::HashMap<String, String>| -> Result<Option<Codec>, String> {
            match flags.get("codec") {
                None => Ok(None),
                Some(v) => Codec::parse(v)
                    .map(Some)
                    .ok_or(format!("bad --codec: {v:?} (raw|delta-varint)")),
            }
        };
    let cmd = pos.first().ok_or(USAGE.to_string())?.as_str();
    let unknown_command = || format!("unknown command {cmd:?}\n{USAGE}");
    let takes = flags_of(cmd).ok_or_else(unknown_command)?;
    if let Some(name) = named.iter().find(|name| !takes.contains(name)) {
        return Err(format!("{cmd}: unknown flag --{name}"));
    }
    let need = |i: usize, what: &str| -> Result<PathBuf, String> {
        pos.get(i)
            .map(PathBuf::from)
            .ok_or(format!("{cmd}: missing {what}"))
    };
    match cmd {
        "gen" => Ok(Command::Gen {
            dataset: pos
                .get(1)
                .ok_or("gen: missing dataset name".to_string())?
                .to_string(),
            out: need(2, "output base")?,
            scale: match flags.get("scale") {
                None => 1.0,
                Some(v) => v.parse().map_err(|_| format!("bad --scale: {v:?}"))?,
            },
        }),
        "import" => Ok(Command::Import {
            input: need(1, "input file")?,
            out: need(2, "output base")?,
        }),
        "export" => Ok(Command::Export {
            base: need(1, "input base")?,
            out: need(2, "output file")?,
        }),
        "stats" => Ok(Command::Stats {
            base: need(1, "input base")?,
        }),
        "count" => Ok(Command::Count {
            base: need(1, "input base")?,
            cores: get_num(&flags, "cores", 4)?,
            memory: get_num(&flags, "memory", 1 << 20)?,
            naive: bools.contains("naive"),
            backend: get_backend(&flags)?,
            codec: get_codec(&flags)?,
        }),
        "cluster" => Ok(Command::Cluster {
            base: need(1, "input base")?,
            nodes: get_num(&flags, "nodes", 2)?,
            cores: get_num(&flags, "cores", 2)?,
            memory: get_num(&flags, "memory", 1 << 20)?,
            tcp: bools.contains("tcp"),
            backend: get_backend(&flags)?,
            fault: flags.get("fault").cloned(),
            codec: get_codec(&flags)?,
        }),
        "list" => Ok(Command::List {
            base: need(1, "input base")?,
            out: need(2, "output file")?,
            cores: get_num(&flags, "cores", 4)?,
        }),
        "verify" => Ok(Command::Verify {
            base: need(1, "input base")?,
        }),
        "serve" => Ok(Command::Serve {
            dir: need(1, "catalog directory")?,
            addr: flags
                .get("addr")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:0".into()),
            workers: get_num(&flags, "workers", 4)?,
            cores: get_num(&flags, "cores", 2)?,
            memory: get_num(&flags, "memory", 1 << 22)?,
        }),
        "query" => {
            let addr = pos
                .get(1)
                .ok_or("query: missing daemon address".to_string())?
                .to_string();
            let sub = pos
                .get(2)
                .ok_or("query: missing <stats|shutdown|graph>".to_string())?
                .as_str();
            let request = match sub {
                "stats" => QueryRequest::Stats,
                "shutdown" => QueryRequest::Shutdown,
                graph => {
                    let opname = pos
                        .get(3)
                        .ok_or("query: missing operation".to_string())?
                        .as_str();
                    let op = match opname {
                        "count" => QueryOperation::Count,
                        "list" => QueryOperation::List {
                            limit: get_num(&flags, "limit", 1000)?,
                        },
                        "clustering" => QueryOperation::Clustering,
                        "ktruss" => QueryOperation::KTruss {
                            k: get_num(&flags, "k", 3)?,
                        },
                        "doulion" => {
                            let p: f64 = match flags.get("p") {
                                None => 0.5,
                                Some(v) => v.parse().map_err(|_| format!("bad --p: {v:?}"))?,
                            };
                            if !(0.0..=1.0).contains(&p) {
                                return Err(format!("bad --p: {p} (want 0..=1)"));
                            }
                            QueryOperation::Doulion {
                                p_ppm: (p * 1_000_000.0).round() as u32,
                                seed: get_num(&flags, "seed", 42)?,
                                trials: get_num(&flags, "trials", 8)?,
                            }
                        }
                        other => {
                            return Err(format!(
                                "unknown operation {other:?} \
                                 (count|list|clustering|ktruss|doulion)"
                            ))
                        }
                    };
                    let options = QueryOptions {
                        cores: get_num(&flags, "cores", 0)?,
                        budget_edges: get_num(&flags, "memory", 1 << 20)?,
                        backend: get_backend(&flags)?.unwrap_or_else(IoBackend::default_from_env),
                        codec: get_codec(&flags)?.unwrap_or_else(Codec::default_from_env),
                        ..Default::default()
                    };
                    QueryRequest::Run {
                        graph: graph.to_string(),
                        op,
                        options,
                    }
                }
            };
            Ok(Command::Query { addr, request })
        }
        _ => Err(unknown_command()),
    }
}

/// Resolve a dataset name.
pub fn dataset_by_name(name: &str) -> Result<Dataset, String> {
    let lower = name.to_ascii_lowercase();
    if let Some(k) = lower.strip_prefix("rmat-") {
        let k: u32 = k.parse().map_err(|_| format!("bad RMAT scale {k:?}"))?;
        if k >= 31 {
            return Err("RMAT scale must be < 31".to_string());
        }
        return Ok(Dataset::Rmat(k));
    }
    match lower.as_str() {
        "livejournal" | "livej1" | "lj" => Ok(Dataset::LiveJournal),
        "orkut" => Ok(Dataset::Orkut),
        "twitter" => Ok(Dataset::Twitter),
        "yahoo" => Ok(Dataset::Yahoo),
        other => Err(format!(
            "unknown dataset {other:?} (livejournal|orkut|twitter|yahoo|rmat-K)"
        )),
    }
}

fn work_dir(base: &Path, tag: &str) -> PathBuf {
    let name = base
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "graph".into());
    std::env::temp_dir().join(format!("pdtl-cli-{tag}-{name}-{}", std::process::id()))
}

/// Execute a parsed command, writing human output via `out`.
pub fn run(cmd: Command, out: &mut impl std::io::Write) -> Result<(), String> {
    let stats = IoStats::new();
    let fail = |e: &dyn std::fmt::Display| e.to_string();
    match cmd {
        Command::Gen {
            dataset,
            out: base,
            scale,
        } => {
            let ds = dataset_by_name(&dataset)?;
            let g = ds.build_scaled(scale).map_err(|e| fail(&e))?;
            let dg = DiskGraph::write(&g, &base, &stats).map_err(|e| fail(&e))?;
            writeln!(
                out,
                "wrote {} ({} vertices, {} edges)",
                dg.base().display(),
                g.num_vertices(),
                g.num_edges()
            )
            .map_err(|e| fail(&e))
        }
        Command::Import { input, out: base } => {
            let dg =
                pdtl_graph::text::import_edge_list(&input, &base, &stats).map_err(|e| fail(&e))?;
            writeln!(
                out,
                "imported {} vertices, {} adjacency entries",
                dg.num_vertices(),
                dg.adj_len()
            )
            .map_err(|e| fail(&e))
        }
        Command::Export { base, out: path } => {
            let dg = DiskGraph::open(&base, &stats).map_err(|e| fail(&e))?;
            let g = dg.load_csr(&stats).map_err(|e| fail(&e))?;
            pdtl_graph::text::write_edge_list(&g, &path).map_err(|e| fail(&e))?;
            writeln!(
                out,
                "exported {} edges to {}",
                g.num_edges(),
                path.display()
            )
            .map_err(|e| fail(&e))
        }
        Command::Stats { base } => {
            let dg = DiskGraph::open(&base, &stats).map_err(|e| fail(&e))?;
            let g = dg.load_csr(&stats).map_err(|e| fail(&e))?;
            writeln!(out, "{}", GraphStats::header()).map_err(|e| fail(&e))?;
            let name = base
                .file_name()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            writeln!(out, "{}", GraphStats::compute(name, &g).row()).map_err(|e| fail(&e))
        }
        Command::Count {
            base,
            cores,
            memory,
            naive,
            backend,
            codec,
        } => {
            let dg = DiskGraph::open(&base, &stats).map_err(|e| fail(&e))?;
            let mut mgt = MgtOptions::default();
            if let Some(b) = backend {
                mgt.backend = b;
            }
            if let Some(c) = codec {
                mgt.codec = c;
            }
            let runner = LocalRunner::new(LocalConfig {
                cores,
                budget: MemoryBudget::edges(memory),
                balance: if naive {
                    BalanceStrategy::EqualEdges
                } else {
                    BalanceStrategy::InDegree
                },
                mgt,
            })
            .map_err(|e| fail(&e))?;
            // Scratch cleanup must also run when `run` fails, or every
            // failed invocation leaks a work dir in /tmp.
            let scratch = ScratchDir::create(work_dir(&base, "count")).map_err(|e| fail(&e))?;
            let report = runner.run(&dg, scratch.path()).map_err(|e| fail(&e))?;
            writeln!(
                out,
                "triangles: {}\nwall: {:?} (orientation {:?}, calc {:?})",
                report.triangles,
                report.wall,
                report.orientation.breakdown.wall,
                report.calc_wall()
            )
            .map_err(|e| fail(&e))
        }
        Command::Cluster {
            base,
            nodes,
            cores,
            memory,
            tcp,
            backend,
            fault,
            codec,
        } => {
            let dg = DiskGraph::open(&base, &stats).map_err(|e| fail(&e))?;
            let mut mgt = MgtOptions::default();
            if let Some(b) = backend {
                mgt.backend = b;
            }
            if let Some(c) = codec {
                mgt.codec = c;
            }
            let runner = ClusterRunner::new(ClusterConfig {
                nodes,
                cores_per_node: cores,
                budget: MemoryBudget::edges(memory),
                transport: if tcp {
                    TransportKind::Tcp
                } else {
                    TransportKind::InProc
                },
                mgt,
                fault: match fault {
                    Some(plan) => {
                        FaultPlan::parse(&plan).map_err(|e| format!("bad --fault: {e}"))?
                    }
                    None => FaultPlan::default_from_env(),
                },
                ..Default::default()
            })
            .map_err(|e| fail(&e))?;
            let scratch = ScratchDir::create(work_dir(&base, "cluster")).map_err(|e| fail(&e))?;
            let report = runner.run(&dg, scratch.path()).map_err(|e| fail(&e))?;
            writeln!(
                out,
                "triangles: {}\nwall: {:?} (calc {:?}, avg copy {:?})\nnetwork: {} bytes",
                report.triangles,
                report.wall,
                report.calc_wall(),
                report.avg_copy(),
                report.network.total()
            )
            .map_err(|e| fail(&e))?;
            if report.retries > 0 || !report.failed_nodes.is_empty() {
                writeln!(
                    out,
                    "faults: {} retries, {} ranges reassigned, failed nodes {:?}",
                    report.retries, report.reassigned_ranges, report.failed_nodes
                )
                .map_err(|e| fail(&e))?;
            }
            Ok(())
        }
        Command::List {
            base,
            out: path,
            cores,
        } => {
            let dg = DiskGraph::open(&base, &stats).map_err(|e| fail(&e))?;
            let runner = LocalRunner::new(LocalConfig {
                cores,
                budget: MemoryBudget::default(),
                balance: BalanceStrategy::InDegree,
                ..Default::default()
            })
            .map_err(|e| fail(&e))?;
            let scratch = ScratchDir::create(work_dir(&base, "list")).map_err(|e| fail(&e))?;
            let (report, triangles) = runner
                .run_listing(&dg, scratch.path())
                .map_err(|e| fail(&e))?;
            let sink_stats = IoStats::new();
            let mut sink =
                pdtl_core::sink::FileSink::create(&path, sink_stats).map_err(|e| fail(&e))?;
            use pdtl_core::sink::TriangleSink;
            for (u, v, w) in triangles {
                sink.emit(u, v, w);
            }
            let written = sink.finish().map_err(|e| fail(&e))?;
            writeln!(
                out,
                "listed {} triangles to {} ({} bytes)",
                report.triangles,
                path.display(),
                written * 12
            )
            .map_err(|e| fail(&e))
        }
        Command::Verify { base } => {
            // `open` runs the structural checks plus the quick manifest
            // tier; `verify_full` then digests every covered file.
            let dg = DiskGraph::open(&base, &stats).map_err(|e| fail(&e))?;
            match dg.verify_full().map_err(|e| fail(&e))? {
                Some(report) => writeln!(
                    out,
                    "ok: {} files verified, {} bytes digested",
                    report.files, report.bytes
                )
                .map_err(|e| fail(&e)),
                None => writeln!(
                    out,
                    "ok (structural checks only): no manifest — graph predates \
                     the integrity layer; rewrite it to gain digests"
                )
                .map_err(|e| fail(&e)),
            }
        }
        Command::Serve {
            dir,
            addr,
            workers,
            cores,
            memory,
        } => {
            let catalog = Catalog::open(
                &dir,
                &work_dir(&dir, "serve"),
                &[Codec::Raw, Codec::DeltaVarint],
                cores.max(2),
            )
            .map_err(|e| fail(&e))?;
            for (name, why) in catalog.rejected() {
                writeln!(out, "rejected {name}: {why}").map_err(|e| fail(&e))?;
            }
            let names = catalog.names();
            let server = Server::spawn(
                catalog,
                ServeConfig {
                    addr,
                    workers,
                    default_cores: cores,
                    admission: MemoryBudget::edges(memory),
                    ..Default::default()
                },
            )
            .map_err(|e| fail(&e))?;
            writeln!(
                out,
                "serving {} graph(s) [{}] on {}",
                names.len(),
                names.join(", "),
                server.addr()
            )
            .map_err(|e| fail(&e))?;
            out.flush().map_err(|e| fail(&e))?;
            // Blocks until a client sends shutdown; drains in-flight
            // queries before returning.
            let final_stats = server.wait();
            writeln!(
                out,
                "shutdown: {} served, {} failed, p50 {}us, p99 {}us",
                final_stats.served,
                final_stats.failed,
                final_stats.quantile_micros(0.5),
                final_stats.quantile_micros(0.99)
            )
            .map_err(|e| fail(&e))
        }
        Command::Query { addr, request } => {
            let mut client = ServeClient::connect(&addr).map_err(|e| fail(&e))?;
            match request {
                QueryRequest::Stats => {
                    let s = client.stats().map_err(|e| fail(&e))?;
                    writeln!(
                        out,
                        "served: {} ({} failed, {} in flight)\n\
                         catalog: {} graph(s), {} rejected\n\
                         io: {} bytes read, {} u32s decoded\n\
                         admission: peak {} / {} edges\n\
                         latency: p50 {}us, p99 {}us",
                        s.served,
                        s.failed,
                        s.inflight,
                        s.graphs.len(),
                        s.rejected_graphs,
                        s.bytes_read,
                        s.u32s_decoded,
                        s.admitted_peak,
                        s.budget_total,
                        s.quantile_micros(0.5),
                        s.quantile_micros(0.99)
                    )
                    .map_err(|e| fail(&e))?;
                    for g in &s.graphs {
                        writeln!(
                            out,
                            "  {}: {} vertices, {} edges",
                            g.name, g.vertices, g.m_star
                        )
                        .map_err(|e| fail(&e))?;
                    }
                    Ok(())
                }
                QueryRequest::Shutdown => {
                    client.shutdown().map_err(|e| fail(&e))?;
                    writeln!(out, "shutdown requested").map_err(|e| fail(&e))
                }
                QueryRequest::Run { graph, op, options } => {
                    let reply = client.query(&graph, op, options).map_err(|e| fail(&e))?;
                    match op {
                        QueryOperation::Count => writeln!(
                            out,
                            "triangles: {} (server wall {:?})",
                            reply.triangles, reply.wall
                        ),
                        QueryOperation::List { .. } => writeln!(
                            out,
                            "triangles: {} ({} listed, {} returned)",
                            reply.triangles,
                            reply.aux,
                            reply.triples.len()
                        ),
                        QueryOperation::Clustering => writeln!(
                            out,
                            "triangles: {}\nglobal clustering: {:.6}\ntransitivity: {:.6}",
                            reply.triangles,
                            reply.value_f64(),
                            reply.aux_f64()
                        ),
                        QueryOperation::KTruss { k } => writeln!(
                            out,
                            "triangles: {}\n{}-truss: {} edges (max k = {})",
                            reply.triangles, k, reply.value_bits, reply.aux
                        ),
                        QueryOperation::Doulion { trials, .. } => writeln!(
                            out,
                            "estimate: {:.1} (mean of {} trials, server wall {:?})",
                            reply.value_f64(),
                            trials,
                            reply.wall
                        ),
                    }
                    .map_err(|e| fail(&e))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdtl-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn parses_gen() {
        let cmd = parse(&args("gen rmat-8 /tmp/g --scale 0.5")).unwrap();
        assert_eq!(
            cmd,
            Command::Gen {
                dataset: "rmat-8".into(),
                out: "/tmp/g".into(),
                scale: 0.5
            }
        );
    }

    #[test]
    fn parses_count_with_flags() {
        let cmd = parse(&args("count /tmp/g --cores 8 --memory 4096 --naive")).unwrap();
        assert_eq!(
            cmd,
            Command::Count {
                base: "/tmp/g".into(),
                cores: 8,
                memory: 4096,
                naive: true,
                backend: None,
                codec: None
            }
        );
    }

    #[test]
    fn parses_cluster_defaults() {
        let cmd = parse(&args("cluster /tmp/g")).unwrap();
        assert_eq!(
            cmd,
            Command::Cluster {
                base: "/tmp/g".into(),
                nodes: 2,
                cores: 2,
                memory: 1 << 20,
                tcp: false,
                backend: None,
                fault: None,
                codec: None
            }
        );
    }

    #[test]
    fn parses_cluster_fault_flags() {
        let cmd = parse(&args("cluster /tmp/g --tcp --fault seed=42;kill=1")).unwrap();
        assert_eq!(
            cmd,
            Command::Cluster {
                base: "/tmp/g".into(),
                nodes: 2,
                cores: 2,
                memory: 1 << 20,
                tcp: true,
                backend: None,
                fault: Some("seed=42;kill=1".into()),
                codec: None
            }
        );
        assert!(parse(&args("cluster /tmp/g --fault")).is_err());
    }

    #[test]
    fn parses_backend_flag() {
        for (name, backend) in [
            ("blocking", IoBackend::Blocking),
            ("prefetch", IoBackend::Prefetch),
            ("MMAP", IoBackend::Mmap),
            ("uring", IoBackend::Uring),
            ("io_uring", IoBackend::Uring),
        ] {
            let cmd = parse(&args(&format!("count /tmp/g --backend {name}"))).unwrap();
            let Command::Count { backend: got, .. } = cmd else {
                panic!("expected Count");
            };
            assert_eq!(got, Some(backend), "{name}");
        }
        let cmd = parse(&args("cluster /tmp/g --backend mmap")).unwrap();
        assert!(matches!(
            cmd,
            Command::Cluster {
                backend: Some(IoBackend::Mmap),
                ..
            }
        ));
        assert!(parse(&args("count /tmp/g --backend io-urng")).is_err());
    }

    #[test]
    fn parses_codec_flag() {
        for (name, codec) in [
            ("raw", Codec::Raw),
            ("delta-varint", Codec::DeltaVarint),
            ("delta_varint", Codec::DeltaVarint),
            ("VARINT", Codec::DeltaVarint),
        ] {
            let cmd = parse(&args(&format!("count /tmp/g --codec {name}"))).unwrap();
            let Command::Count { codec: got, .. } = cmd else {
                panic!("expected Count");
            };
            assert_eq!(got, Some(codec), "{name}");
        }
        let cmd = parse(&args("cluster /tmp/g --codec delta-varint")).unwrap();
        assert!(matches!(
            cmd,
            Command::Cluster {
                codec: Some(Codec::DeltaVarint),
                ..
            }
        ));
        assert!(parse(&args("count /tmp/g --codec gzip")).is_err());
    }

    #[test]
    fn parses_verify() {
        assert_eq!(
            parse(&args("verify /tmp/g")).unwrap(),
            Command::Verify {
                base: "/tmp/g".into()
            }
        );
        assert!(parse(&args("verify")).is_err());
    }

    #[test]
    fn parses_serve_and_query() {
        let cmd = parse(&args(
            "serve /tmp/catalog --addr 127.0.0.1:9999 --workers 2",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                dir: "/tmp/catalog".into(),
                addr: "127.0.0.1:9999".into(),
                workers: 2,
                cores: 2,
                memory: 1 << 22,
            }
        );
        assert!(parse(&args("serve")).is_err());

        assert_eq!(
            parse(&args("query localhost:1 stats")).unwrap(),
            Command::Query {
                addr: "localhost:1".into(),
                request: QueryRequest::Stats
            }
        );
        assert_eq!(
            parse(&args("query localhost:1 shutdown")).unwrap(),
            Command::Query {
                addr: "localhost:1".into(),
                request: QueryRequest::Shutdown
            }
        );
        let cmd = parse(&args(
            "query localhost:1 g ktruss --k 4 --cores 3 --memory 512 --codec delta-varint",
        ))
        .unwrap();
        let Command::Query {
            request: QueryRequest::Run { graph, op, options },
            ..
        } = cmd
        else {
            panic!("expected Run");
        };
        assert_eq!(graph, "g");
        assert_eq!(op, QueryOperation::KTruss { k: 4 });
        assert_eq!(options.cores, 3);
        assert_eq!(options.budget_edges, 512);
        assert_eq!(options.codec, Codec::DeltaVarint);

        let cmd = parse(&args("query localhost:1 g doulion --p 0.25 --trials 4")).unwrap();
        assert!(matches!(
            cmd,
            Command::Query {
                request: QueryRequest::Run {
                    op: QueryOperation::Doulion {
                        p_ppm: 250_000,
                        trials: 4,
                        ..
                    },
                    ..
                },
                ..
            }
        ));
        assert!(parse(&args("query localhost:1 g doulion --p 1.5")).is_err());
        assert!(parse(&args("query localhost:1 g frobnicate")).is_err());
        assert!(parse(&args("query localhost:1")).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&args("")).is_err());
        assert!(parse(&args("frobnicate x")).is_err());
        assert!(parse(&args("gen")).is_err());
        assert!(parse(&args("count /g --cores notanumber")).is_err());
        assert!(parse(&args("count /g --memory")).is_err());
        // A query flag past its wire width is refused, not wrapped into
        // a small value the daemon's caps would then accept.
        for (op, flag, value) in [
            ("list", "limit", "4294967297"),
            ("ktruss", "k", "4294967299"),
            ("doulion", "trials", "4294967304"),
            ("count", "cores", "4294967296"),
        ] {
            assert_eq!(
                parse(&args(&format!("query h:1 g {op} --{flag} {value}"))).unwrap_err(),
                format!("bad --{flag}: {value:?}")
            );
        }
        // A flag the command does not take is refused, not filed away
        // with the next token as its value: misspelt, removed, or
        // belonging to another command.
        for (line, flag) in [
            ("count /g --coers 8", "coers"),
            ("cluster /g --fail-fast --tcp", "fail-fast"),
            ("count /g --tcp", "tcp"),
            ("stats /g --cores 2", "cores"),
        ] {
            let cmd = line.split(' ').next().unwrap();
            assert_eq!(
                parse(&args(line)).unwrap_err(),
                format!("{cmd}: unknown flag --{flag}")
            );
        }
    }

    #[test]
    fn dataset_names_resolve() {
        assert_eq!(dataset_by_name("twitter").unwrap(), Dataset::Twitter);
        assert_eq!(dataset_by_name("LJ").unwrap(), Dataset::LiveJournal);
        assert_eq!(dataset_by_name("rmat-9").unwrap(), Dataset::Rmat(9));
        assert!(dataset_by_name("rmat-99").is_err());
        assert!(dataset_by_name("facebook").is_err());
    }

    #[test]
    fn end_to_end_gen_stats_count() {
        let base = tmp("e2e");
        let mut out = Vec::new();
        run(
            Command::Gen {
                dataset: "rmat-7".into(),
                out: base.clone(),
                scale: 1.0,
            },
            &mut out,
        )
        .unwrap();
        run(Command::Stats { base: base.clone() }, &mut out).unwrap();
        run(
            Command::Count {
                base: base.clone(),
                cores: 2,
                memory: 1024,
                naive: false,
                backend: Some(IoBackend::Mmap),
                codec: Some(Codec::DeltaVarint),
            },
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("wrote"));
        assert!(text.contains("MaxDeg"));
        assert!(text.contains("triangles:"));
        // the reported count matches the oracle
        let g = Dataset::Rmat(7).build().unwrap();
        let expected = pdtl_graph::verify::triangle_count(&g);
        assert!(text.contains(&format!("triangles: {expected}")));
    }

    #[test]
    fn end_to_end_verify() {
        let base = tmp("verify");
        let mut out = Vec::new();
        run(
            Command::Gen {
                dataset: "rmat-6".into(),
                out: base.clone(),
                scale: 1.0,
            },
            &mut out,
        )
        .unwrap();
        // Freshly written graph verifies clean.
        run(Command::Verify { base: base.clone() }, &mut out).unwrap();
        let text = String::from_utf8(out.clone()).unwrap();
        assert!(text.contains("files verified"), "{text}");

        // A flipped bit anywhere is a typed error, not a panic.
        let dg = DiskGraph::open(&base, &IoStats::new()).unwrap();
        let mut bytes = std::fs::read(dg.adj_path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(dg.adj_path(), &bytes).unwrap();
        let err = run(Command::Verify { base: base.clone() }, &mut out).unwrap_err();
        assert!(
            err.contains("corrupt") || err.contains("truncated"),
            "{err}"
        );
        bytes[mid] ^= 0x04;
        std::fs::write(dg.adj_path(), &bytes).unwrap();

        // A pre-integrity graph (no manifest) passes with a note.
        std::fs::remove_file(dg.mft_path()).unwrap();
        out.clear();
        run(Command::Verify { base }, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("no manifest"), "{text}");
    }

    /// `Write` target shareable with the thread running the blocking
    /// `serve` command, so the test can read the bound address out of
    /// its output while the daemon is still running.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn end_to_end_serve_query_shutdown() {
        let dir = tmp("serve-catalog");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let g = Dataset::Rmat(6).build().unwrap();
        DiskGraph::write(&g, dir.join("rmat6"), &IoStats::new()).unwrap();
        let expected = pdtl_graph::verify::triangle_count(&g);

        let serve_out = SharedBuf::default();
        let serve_thread = {
            let mut out = serve_out.clone();
            let dir = dir.clone();
            std::thread::spawn(move || {
                run(
                    Command::Serve {
                        dir,
                        addr: "127.0.0.1:0".into(),
                        workers: 2,
                        cores: 2,
                        memory: 1 << 22,
                    },
                    &mut out,
                )
            })
        };
        // The daemon prints its ephemeral address once the catalog is
        // up; poll for it.
        let addr = loop {
            let text = serve_out.text();
            if let Some(rest) = text.split(" on ").nth(1) {
                if let Some(addr) = rest.split_whitespace().next() {
                    break addr.to_string();
                }
            }
            assert!(!serve_thread.is_finished(), "serve exited: {}", text);
            std::thread::sleep(std::time::Duration::from_millis(20));
        };

        let mut out = Vec::new();
        run(
            Command::Query {
                addr: addr.clone(),
                request: QueryRequest::Run {
                    graph: "rmat6".into(),
                    op: QueryOperation::Count,
                    options: QueryOptions::default(),
                },
            },
            &mut out,
        )
        .unwrap();
        run(
            Command::Query {
                addr: addr.clone(),
                request: QueryRequest::Stats,
            },
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(&format!("triangles: {expected}")), "{text}");
        assert!(text.contains("served: 1"), "{text}");
        assert!(text.contains("rmat6"), "{text}");

        // Unknown graphs are typed rejections, not daemon failures.
        let err = run(
            Command::Query {
                addr: addr.clone(),
                request: QueryRequest::Run {
                    graph: "nope".into(),
                    op: QueryOperation::Count,
                    options: QueryOptions::default(),
                },
            },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.contains("unknown graph"), "{err}");

        let mut out = Vec::new();
        run(
            Command::Query {
                addr,
                request: QueryRequest::Shutdown,
            },
            &mut out,
        )
        .unwrap();
        serve_thread.join().unwrap().unwrap();
        let text = serve_out.text();
        assert!(text.contains("shutdown: 1 served, 1 failed"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn end_to_end_import_export_cluster_list() {
        let g = Dataset::Rmat(6).build().unwrap();
        let txt = tmp("roundtrip.txt");
        pdtl_graph::text::write_edge_list(&g, &txt).unwrap();
        let base = tmp("imported");
        let mut out = Vec::new();
        run(
            Command::Import {
                input: txt.clone(),
                out: base.clone(),
            },
            &mut out,
        )
        .unwrap();
        run(
            Command::Cluster {
                base: base.clone(),
                nodes: 2,
                cores: 2,
                memory: 512,
                tcp: false,
                backend: None,
                fault: None,
                codec: Some(Codec::DeltaVarint),
            },
            &mut out,
        )
        .unwrap();
        let listing = tmp("tri.bin");
        run(
            Command::List {
                base: base.clone(),
                out: listing.clone(),
                cores: 2,
            },
            &mut out,
        )
        .unwrap();
        let exported = tmp("exported.txt");
        run(
            Command::Export {
                base,
                out: exported.clone(),
            },
            &mut out,
        )
        .unwrap();

        let text = String::from_utf8(out).unwrap();
        let expected = pdtl_graph::verify::triangle_count(&g);
        assert!(text.contains(&format!("triangles: {expected}")));
        assert!(text.contains("listed"));
        // exported file re-imports to the same graph
        let (g2, _) = pdtl_graph::text::read_edge_list(&exported).unwrap();
        assert_eq!(pdtl_graph::verify::triangle_count(&g2), expected);
        // listing file has the right record count
        let stats = IoStats::new();
        let listed = pdtl_core::sink::read_triangle_file(&listing, stats).unwrap();
        assert_eq!(listed.len() as u64, expected);
    }
}
