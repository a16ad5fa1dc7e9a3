//! One complete operation of each batch workload, two ways.
//!
//! *Untraced*: the public entry point the CLI wraps, timed from
//! `DiskGraph::open` to the result in hand — this is what the
//! end-to-end metrics measure. *Staged*: the same pipeline re-executed
//! call by call from this file (`open → verify_full →
//! orient_to_disk_with → split_ranges → one scoped thread per range
//! calling mgt_count_range_opt → sum`), with a span around each call.
//! The staged run exists so layer times come from the same clock as
//! the end-to-end row and can be checked to add up to it.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pdtl_cluster::message::WorkerSummary;
use pdtl_cluster::{ClusterConfig, ClusterReport, ClusterRunner, TransportKind};
use pdtl_core::mgt::{mgt_count_range_opt, MgtOptions};
use pdtl_core::orient::{orient_to_disk_with, OrientedGraph};
use pdtl_core::sink::{CollectSink, CountSink, FileSink, TriangleSink};
use pdtl_core::{
    split_ranges, BalanceStrategy, EdgeRange, LocalConfig, LocalRunner, PhaseReport, RunReport,
    ScratchDir, WorkerReport,
};
use pdtl_graph::disk::suffixed;
use pdtl_graph::DiskGraph;
use pdtl_io::{Codec, IoStats, MemoryBudget};

use crate::contract::{Kind, Workload, CORES};
use crate::records::Records;
use crate::trace::{SpanId, Tracer};

/// Errors are reported, counted as failed operations, and never
/// unwound: a string is all the harness needs.
pub type Res<T> = Result<T, String>;

/// Any displayable error as a string.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// File layout under one run's scratch directory.
#[derive(Debug, Clone)]
pub struct Paths {
    /// `<target>/pdtl-bench/<pid>/`.
    pub scratch: PathBuf,
}

impl Paths {
    /// Directory of the generated input (the `serve-mix` catalog).
    pub fn input_dir(&self) -> PathBuf {
        self.scratch.join("input")
    }

    /// Base path of the generated graph.
    pub fn input_base(&self) -> PathBuf {
        self.input_dir().join("rmat")
    }

    /// A work directory for one operation.
    pub fn work(&self, tag: &str) -> PathBuf {
        self.scratch.join(format!("work-{tag}"))
    }

    /// The `list-file` output.
    pub fn out_file(&self) -> PathBuf {
        self.scratch.join("triangles.bin")
    }

    /// Oracle answers, written by the setup stage.
    pub fn expected(&self) -> PathBuf {
        self.scratch.join("expected")
    }
}

/// The oracle's answers for the generated graph.
#[derive(Debug, Clone, Copy)]
pub struct Expected {
    /// `pdtl_baselines::inmem::forward` on the generated `Graph`.
    pub triangles: u64,
    /// `clustering::transitivity` from the oracle count.
    pub transitivity: f64,
}

impl Expected {
    /// Read what the setup stage wrote.
    pub fn load(paths: &Paths) -> Res<Expected> {
        let text = std::fs::read_to_string(paths.expected()).map_err(err)?;
        let r = Records::parse(&text);
        match r.samples("expected.triangles") {
            [t] => Ok(Expected {
                triangles: *t as u64,
                transitivity: r.median("expected.transitivity"),
            }),
            _ => Err("expected file carries no oracle count".into()),
        }
    }
}

/// The engine options of a workload: the shipped defaults, plus the
/// codec where the workload names one.
fn mgt_options(kind: Kind) -> MgtOptions {
    match kind {
        Kind::Count { codec, .. } => MgtOptions {
            codec,
            ..MgtOptions::default()
        },
        _ => MgtOptions::default(),
    }
}

/// The per-core budget `M` of a workload.
pub fn budget(kind: Kind) -> MemoryBudget {
    match kind {
        Kind::Count { budget_edges, .. } | Kind::Cluster { budget_edges } => {
            MemoryBudget::edges(budget_edges)
        }
        Kind::List => MemoryBudget::default(),
        Kind::Serve => MemoryBudget::edges(crate::contract::SERVE_BUDGET_EDGES as usize),
    }
}

/// The configuration `pdtl count` / `pdtl list` would build.
pub fn local_config(kind: Kind) -> LocalConfig {
    LocalConfig {
        cores: CORES,
        budget: budget(kind),
        balance: BalanceStrategy::InDegree,
        mgt: mgt_options(kind),
    }
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// What one MGT worker reported, whichever report carried it.
struct WorkerCounts {
    iterations: u64,
    cpu_ops: u64,
    bytes_read: u64,
    read_ops: u64,
    seeks: u64,
    u32s_decoded: u64,
    io_s: f64,
    wall_s: f64,
}

impl From<&WorkerReport> for WorkerCounts {
    /// `WorkerReport.io` fields are read directly:
    /// `RunReport::total_worker_io()` drops `u32s_decoded`.
    fn from(w: &WorkerReport) -> Self {
        Self {
            iterations: w.iterations,
            cpu_ops: w.cpu_ops,
            bytes_read: w.io.bytes_read,
            read_ops: w.io.read_ops,
            seeks: w.io.seeks,
            u32s_decoded: w.io.u32s_decoded,
            io_s: w.breakdown.io.as_secs_f64(),
            wall_s: w.breakdown.wall.as_secs_f64(),
        }
    }
}

impl From<&WorkerSummary> for WorkerCounts {
    /// The wire summary carries no `u32s_decoded` and folds reads and
    /// writes into `io_ops`; the workers only read.
    fn from(w: &WorkerSummary) -> Self {
        Self {
            iterations: w.iterations,
            cpu_ops: w.cpu_ops,
            bytes_read: w.bytes_read,
            read_ops: w.io_ops,
            seeks: w.seeks,
            u32s_decoded: 0,
            io_s: w.io_nanos as f64 / 1e9,
            wall_s: w.wall_nanos as f64 / 1e9,
        }
    }
}

/// The `mgt.*` counts and `balance.imbalance` of one operation.
fn push_workers(rec: &mut Records, workers: &[WorkerCounts], adj_bytes: u64) {
    let sum = |f: fn(&WorkerCounts) -> u64| workers.iter().map(f).sum::<u64>() as f64;
    let bytes_read = sum(|w| w.bytes_read);
    rec.push("mgt.iterations", sum(|w| w.iterations));
    rec.push("mgt.cpu_ops_m", sum(|w| w.cpu_ops) / 1e6);
    rec.push("mgt.bytes_read_mb", bytes_read / 1e6);
    rec.push("mgt.read_ops", sum(|w| w.read_ops));
    rec.push("mgt.seeks", sum(|w| w.seeks));
    rec.push("mgt.u32s_decoded_m", sum(|w| w.u32s_decoded) / 1e6);
    rec.push("mgt.io_wait_s", workers.iter().map(|w| w.io_s).sum());
    rec.push(
        "mgt.read_amplification",
        bytes_read / adj_bytes.max(1) as f64,
    );
    // max ÷ mean of the workers' wall times
    let walls = workers.iter().map(|w| w.wall_s);
    let mean = walls.clone().sum::<f64>() / workers.len().max(1) as f64;
    rec.push(
        "balance.imbalance",
        if mean > 0.0 {
            walls.fold(0.0, f64::max) / mean
        } else {
            0.0
        },
    );
}

fn push_orientation(rec: &mut Records, orientation: &PhaseReport) {
    rec.push("orient.bytes_written_mb", mb(orientation.io.bytes_written));
    rec.push("orient.cpu_ops_m", orientation.cpu_ops as f64 / 1e6);
}

fn push_run_report(rec: &mut Records, report: &RunReport, adj_bytes: u64) {
    rec.push("calc_s", report.calc_wall().as_secs_f64());
    push_orientation(rec, &report.orientation);
    let workers: Vec<WorkerCounts> = report.workers.iter().map(Into::into).collect();
    push_workers(rec, &workers, adj_bytes);
}

fn adj_bytes_of(oriented_base: &Path) -> u64 {
    std::fs::metadata(suffixed(oriented_base, ".adj")).map_or(0, |m| m.len())
}

/// Write `triangles` through a [`FileSink`] exactly as `pdtl list`
/// does, then check the file is `12·T` bytes.
fn write_listing(path: &Path, triangles: Vec<(u32, u32, u32)>) -> Res<u64> {
    let mut sink = FileSink::create(path, IoStats::new()).map_err(err)?;
    for (u, v, w) in triangles {
        sink.emit(u, v, w);
    }
    let written = sink.finish().map_err(err)?;
    let len = std::fs::metadata(path).map_err(err)?.len();
    if len != written * 12 {
        return Err(format!("listing is {len} bytes, expected 12 x {written}"));
    }
    Ok(written)
}

/// One untraced operation of `w`; returns the triangle count it found.
/// Pushes `wall_s`, `calc_s` and the counts the report carries.
pub fn run_untraced(w: &Workload, paths: &Paths, rec: &mut Records) -> Res<u64> {
    let t0 = Instant::now();
    let dg = DiskGraph::open(paths.input_base(), &IoStats::new()).map_err(err)?;
    let scratch = ScratchDir::create(paths.work("run")).map_err(err)?;
    let oriented = scratch.path().join("oriented");
    let triangles = match w.kind {
        Kind::Count { .. } => {
            let runner = LocalRunner::new(local_config(w.kind)).map_err(err)?;
            let report = runner.run(&dg, scratch.path()).map_err(err)?;
            rec.push("wall_s", t0.elapsed().as_secs_f64());
            push_run_report(rec, &report, adj_bytes_of(&oriented));
            report.triangles
        }
        Kind::List => {
            let runner = LocalRunner::new(local_config(w.kind)).map_err(err)?;
            let (report, triangles) = runner.run_listing(&dg, scratch.path()).map_err(err)?;
            let written = write_listing(&paths.out_file(), triangles)?;
            rec.push("wall_s", t0.elapsed().as_secs_f64());
            push_run_report(rec, &report, adj_bytes_of(&oriented));
            rec.push("sink.out_mb", mb(written * 12));
            std::fs::remove_file(paths.out_file()).map_err(err)?;
            if written != report.triangles {
                return Err(format!(
                    "listed {written} triangles, counted {}",
                    report.triangles
                ));
            }
            written
        }
        Kind::Cluster { .. } => {
            let report = cluster_run(w.kind, &dg, scratch.path())?;
            rec.push("wall_s", t0.elapsed().as_secs_f64());
            push_cluster_report(rec, &report, adj_bytes_of(&oriented));
            report.triangles
        }
        Kind::Serve => return Err("serve-mix has no batch operation".into()),
    };
    Ok(triangles)
}

fn cluster_run(kind: Kind, dg: &DiskGraph, work: &Path) -> Res<ClusterReport> {
    let runner = ClusterRunner::new(ClusterConfig {
        nodes: 2,
        cores_per_node: 1,
        budget: budget(kind),
        transport: TransportKind::Tcp,
        ..ClusterConfig::default()
    })
    .map_err(err)?;
    let report = runner.run(dg, work).map_err(err)?;
    if report.retries > 0 || !report.failed_nodes.is_empty() {
        return Err(format!(
            "fault-free cluster run retried {} times, failed nodes {:?}",
            report.retries, report.failed_nodes
        ));
    }
    Ok(report)
}

fn push_cluster_report(rec: &mut Records, report: &ClusterReport, adj_bytes: u64) {
    rec.push("calc_s", report.calc_wall().as_secs_f64());
    rec.push("cluster.copy_s", report.avg_copy().as_secs_f64());
    rec.push(
        "cluster.orient_s",
        report.orientation.breakdown.wall.as_secs_f64(),
    );
    rec.push("cluster.net_mb.graph", mb(report.network.graph));
    rec.push("cluster.net_mb.config", mb(report.network.config));
    rec.push("cluster.net_mb.result", mb(report.network.result));
    rec.push("cluster.net_mb.control", mb(report.network.control));
    rec.push("cluster.retries", report.retries as f64);
    push_orientation(rec, &report.orientation);
    let workers: Vec<WorkerCounts> = report
        .nodes
        .iter()
        .flat_map(|n| &n.workers)
        .map(Into::into)
        .collect();
    push_workers(rec, &workers, adj_bytes);
}

/// Time `f`, record a span around it, and return its value.
fn spanned<T>(
    tracer: &mut Tracer,
    name: &str,
    run: u32,
    parent: SpanId,
    f: impl FnOnce() -> Res<T>,
) -> Res<(T, SpanId, Duration)> {
    let start = Instant::now();
    let value = f()?;
    let end = Instant::now();
    let id = tracer.record(name, run, Some(parent), 0, start, end);
    Ok((value, id, end - start))
}

/// The calculation phase, staged: one scoped thread per range calling
/// `mgt_count_range_opt`, exactly as `LocalRunner` wires it. Returns
/// each worker's report, sink and measured interval.
pub fn staged_calc<S: TriangleSink + Send>(
    og: &OrientedGraph,
    ranges: &[EdgeRange],
    budget: MemoryBudget,
    opts: MgtOptions,
    make_sink: impl Fn() -> S,
) -> Res<Vec<(WorkerReport, S, Instant, Instant)>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&range| {
                let mut sink = make_sink();
                scope.spawn(move || {
                    let start = Instant::now();
                    let report =
                        mgt_count_range_opt(og, range, budget, &mut sink, IoStats::new(), opts);
                    report.map(|r| (r, sink, start, Instant::now()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "worker panicked".to_string())?
                    .map_err(err)
            })
            .collect()
    })
}

/// Orient `dg` into `work/oriented` and split it for [`CORES`] workers
/// the way `LocalRunner` does.
pub fn orient_and_split(
    dg: &DiskGraph,
    work: &Path,
    codec: Codec,
) -> Res<(OrientedGraph, Vec<EdgeRange>)> {
    std::fs::create_dir_all(work).map_err(err)?;
    let (og, _) = orient_to_disk_with(dg, work.join("oriented"), CORES, codec, &IoStats::new())
        .map_err(err)?;
    let ranges = split(&og)?;
    Ok((og, ranges))
}

fn split(og: &OrientedGraph) -> Res<Vec<EdgeRange>> {
    let in_degrees = og
        .in_degrees()
        .ok_or("freshly oriented graph has no original degrees")?;
    Ok(split_ranges(&og.offsets, &in_degrees, CORES, BalanceStrategy::InDegree).0)
}

/// [`staged_calc`] with a `mgt.calc` span around it and one
/// `mgt.worker.<i>` child per thread carrying that worker's counts;
/// returns the triangles found and the workers' sinks.
#[allow(clippy::too_many_arguments)]
fn traced_calc<S: TriangleSink + Send>(
    tracer: &mut Tracer,
    run: u32,
    root: SpanId,
    og: &OrientedGraph,
    ranges: &[EdgeRange],
    kind: Kind,
    rec: &mut Records,
    make_sink: impl Fn() -> S,
) -> Res<(u64, Vec<S>)> {
    let start = Instant::now();
    let workers = staged_calc(og, ranges, budget(kind), mgt_options(kind), make_sink)?;
    let end = Instant::now();
    let calc = tracer.record("mgt.calc", run, Some(root), 0, start, end);
    rec.push("span.calc_s", (end - start).as_secs_f64());
    let mut triangles = 0;
    let mut sinks = Vec::with_capacity(workers.len());
    for (i, (report, sink, start, end)) in workers.into_iter().enumerate() {
        let track = 1 + i as u32;
        let id = tracer.record(
            &format!("mgt.worker.{i}"),
            run,
            Some(calc),
            track,
            start,
            end,
        );
        tracer.count(id, "triangles", report.triangles as f64);
        tracer.count(id, "iterations", report.iterations as f64);
        tracer.count(id, "bytes_read", report.io.bytes_read as f64);
        tracer.count(id, "cpu_ops", report.cpu_ops as f64);
        triangles += report.triangles;
        sinks.push(sink);
    }
    Ok((triangles, sinks))
}

/// One traced operation of `w`; returns the triangle count it found.
/// `count-*` and `list-file` are staged from this file with a span per
/// call; `cluster-tcp` gets a span around the public call with children
/// taken from the returned report. Pushes `staged_wall_s` and one
/// `span.<layer>_s` per span.
pub fn run_traced(
    w: &Workload,
    paths: &Paths,
    tracer: &mut Tracer,
    run: u32,
    rec: &mut Records,
) -> Res<u64> {
    let root_start = Instant::now();
    // The root span is recorded last (its end is not known yet) but its
    // children need its id: reserve it with a placeholder interval.
    let root = tracer.record(w.name, run, None, 0, root_start, root_start);
    let scratch = ScratchDir::create(paths.work("staged")).map_err(err)?;
    let (dg, _, open) = spanned(tracer, "graph.open", run, root, || {
        DiskGraph::open(paths.input_base(), &IoStats::new()).map_err(err)
    })?;
    rec.push("span.open_s", open.as_secs_f64());

    let triangles = match w.kind {
        Kind::Count { .. } | Kind::List => {
            let (verified, id, verify) = spanned(tracer, "graph.verify_full", run, root, || {
                dg.verify_full().map_err(err)
            })?;
            let digested = verified.map_or(0, |v| v.bytes);
            tracer.count(id, "bytes", digested as f64);
            rec.push("span.verify_s", verify.as_secs_f64());
            rec.push("span.verify_mb", mb(digested));

            let codec = mgt_options(w.kind).codec;
            let ((og, orientation), id, orient) =
                spanned(tracer, "orient.orient_to_disk_with", run, root, || {
                    orient_to_disk_with(
                        &dg,
                        scratch.path().join("oriented"),
                        CORES,
                        codec,
                        &IoStats::new(),
                    )
                    .map_err(err)
                })?;
            tracer.count(id, "bytes_written", orientation.io.bytes_written as f64);
            tracer.count(id, "cpu_ops", orientation.cpu_ops as f64);
            rec.push("span.orient_s", orient.as_secs_f64());

            let (ranges, _, balance) =
                spanned(tracer, "balance.split_ranges", run, root, || split(&og))?;
            rec.push("span.balance_s", balance.as_secs_f64());

            if w.kind == Kind::List {
                let sink = CollectSink::default;
                let (triangles, sinks) =
                    traced_calc(tracer, run, root, &og, &ranges, w.kind, rec, sink)?;
                let (all, _, collect) = spanned(tracer, "sink.collect", run, root, || {
                    let mut all = Vec::new();
                    for s in sinks {
                        all.extend(s.triangles);
                    }
                    Ok(all)
                })?;
                rec.push("span.sink_collect_s", collect.as_secs_f64());
                let (written, id, file) = spanned(tracer, "sink.file", run, root, || {
                    write_listing(&paths.out_file(), all)
                })?;
                tracer.count(id, "triangles", written as f64);
                rec.push("span.sink_file_s", file.as_secs_f64());
                std::fs::remove_file(paths.out_file()).map_err(err)?;
                if written != triangles {
                    return Err(format!("listed {written} triangles, counted {triangles}"));
                }
                triangles
            } else {
                traced_calc(tracer, run, root, &og, &ranges, w.kind, rec, || CountSink)?.0
            }
        }
        Kind::Cluster { .. } => {
            let call_start = Instant::now();
            let report = cluster_run(w.kind, &dg, scratch.path())?;
            let call_end = Instant::now();
            let call = tracer.record("cluster.run", run, Some(root), 0, call_start, call_end);
            // `ClusterReport.wall` starts after the runner's own
            // `verify_full`, so the rest of the call is the verify.
            let verify = (call_end - call_start).saturating_sub(report.wall);
            let orient = report.orientation.breakdown.wall;
            tracer.record_reported("graph.verify_full", call, Duration::ZERO, verify);
            tracer.record_reported("orient.orient_to_disk_with", call, verify, orient);
            tracer.record_reported("cluster.avg_copy", call, verify + orient, report.avg_copy());
            let calc_offset = (call_end - call_start).saturating_sub(report.calc_wall());
            let id = tracer.record_reported("mgt.calc", call, calc_offset, report.calc_wall());
            tracer.count(id, "net_bytes", report.network.total() as f64);
            rec.push("span.verify_s", verify.as_secs_f64());
            rec.push("span.orient_s", orient.as_secs_f64());
            rec.push("span.calc_s", report.calc_wall().as_secs_f64());
            report.triangles
        }
        Kind::Serve => return Err("serve-mix has no batch operation".into()),
    };

    let root_end = Instant::now();
    tracer.set_end(root, root_end);
    tracer.count(root, "triangles", triangles as f64);
    rec.push("staged_wall_s", (root_end - root_start).as_secs_f64());
    rec.push("span.glue_s", tracer.self_time(root).as_secs_f64());
    Ok(triangles)
}
