//! One experiment per table/figure of the paper.
//!
//! Each function renders a text table mirroring its paper artifact from
//! two sources only: the engines' exact counters (`cpu_ops`,
//! `bytes_read`, I/O ops, `iterations`, network bytes), which read the
//! same on any host, and walls measured on this host. A scaling cell
//! prints the counted speedup beside the measured wall: Σ worker
//! `cpu_ops` ÷ the struggler's `cpu_ops`, since "the struggler node
//! determines calculation time" (§IV-B1). A local run's cores claim
//! its ranges in whatever order the host's timing lets them, so its
//! struggler is counted by replaying the per-range `cpu_ops` through
//! the claim order (`replay_claims`): greedy, `cpu_ops` standing in for
//! time, the same on any host. A paper shape the counters
//! can express is checked and printed as holding or as a finding. A
//! local run whose budget holds all of `G*` orients into memory and
//! joins in place: its worker-read cells read `resident`, not a bare 0
//! (orientation still reads its input, so its bytes stay a counter).
//! PAPER.md ("Evaluation artefacts") maps each artifact to its id.

use std::fmt::{Display, Write as _};
use std::path::PathBuf;
use std::time::Duration;

use pdtl_baselines::optlike::{OptDatabase, OptReport};
use pdtl_baselines::powergraph::{PowerGraphConfig, PowerGraphReport, VertexCut};
use pdtl_baselines::{cttp, optlike, patric, powergraph, BaselineError};
use pdtl_cluster::message::WorkerSummary;
use pdtl_cluster::ClusterReport;
use pdtl_core::balance::BalanceStrategy;
use pdtl_core::runner::replay_claims;
use pdtl_core::{RunReport, RANGES_PER_CORE};
use pdtl_graph::datasets::Dataset;
use pdtl_graph::{Graph, GraphStats};
use pdtl_io::{IoStats, MemoryBudget};

use crate::workbench::{fmt_duration, Workbench};

/// All experiment ids in paper order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table3",
    "table4", "fig10", "fig11", "fig12", "fig13", "table5", "table6", "table7", "table8", "table9",
    "table10", "table11", "table12", "table13", "table14",
];

/// Run one experiment by id.
pub fn run_experiment(id: &str, wb: &mut Workbench) -> Option<String> {
    let out = match id {
        "table1" => table1(wb),
        "table2" => table2(wb),
        "fig2" => fig2(wb),
        "fig3" => fig3(wb),
        "fig4" => fig4(wb),
        "fig5" => fig5(wb),
        "fig6" => fig6(wb),
        "fig7" => fig7_8(wb, Dataset::Twitter, "Figure 7"),
        "fig8" => fig7_8(wb, Dataset::Yahoo, "Figure 8"),
        "fig9" => fig9(wb),
        "table3" => table3(wb),
        "table4" => table4(wb),
        "fig10" => fig10(wb),
        "fig11" => fig11(wb),
        "fig12" => fig12(wb),
        "fig13" => fig13(wb),
        "table5" => table5(wb),
        "table6" => table6(wb),
        "table7" => table7(wb),
        "table8" => table8(wb),
        "table9" => table9(wb),
        "table10" => table10(wb),
        "table11" => table11(wb),
        "table12" => table12_13(wb, true),
        "table13" => table12_13(wb, false),
        "table14" => table14(wb),
        _ => return None,
    };
    Some(out)
}

/// What `exp <ids>` prints, handed to `out` a piece at a time: a banner,
/// then each experiment's tables and the wall it took. Stops at the
/// first id that names no experiment and returns it.
pub fn run_listed<'a>(
    ids: &[&'a str],
    wb: &mut Workbench,
    mut out: impl FnMut(&str),
) -> Result<(), &'a str> {
    out(&format!(
        "PDTL experiment harness — profile: {:?} (counters are exact on any \
         host; walls are measured on this host)\n",
        wb.profile
    ));
    for &id in ids {
        let start = std::time::Instant::now();
        let tables = run_experiment(id, wb).ok_or(id)?;
        out(&format!(
            "{tables}[{id} regenerated in {:.1?}]\n",
            start.elapsed()
        ));
    }
    Ok(())
}

fn header(title: &str, note: &str) -> String {
    format!("\n=== {title} ===\n{note}\n\n")
}

/// One table row: a left-aligned label, then right-aligned cells.
fn row<T: Display>(s: &mut String, label: &str, cells: impl IntoIterator<Item = T>, width: usize) {
    let _ = write!(s, "{label:<16}");
    for cell in cells {
        let _ = write!(s, " {cell:>width$}");
    }
    let _ = writeln!(s);
}

/// Print a paper shape checked against the counters: as holding, or as
/// a finding when the counters contradict it.
fn shape(s: &mut String, holds: bool, claim: &str) {
    let verdict = if holds {
        "holds"
    } else {
        "FINDING, contradicted"
    };
    let _ = writeln!(s, "\nshape {verdict}: {claim}");
}

/// `a / b`, an empty denominator read as 1.
fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Every worker summary of a cluster run, across its nodes.
fn workers(r: &ClusterReport) -> impl Iterator<Item = &WorkerSummary> {
    r.nodes.iter().flat_map(|n| &n.workers)
}

/// One counter summed over a cluster run's workers.
fn total(r: &ClusterReport, counter: impl Fn(&WorkerSummary) -> u64) -> u64 {
    workers(r).map(counter).sum()
}

/// The workers' counted CPU operations: their sum and the struggler's.
#[derive(Debug, Clone, Copy)]
struct Work {
    sum: u64,
    max: u64,
}

impl Work {
    fn of(ops: impl IntoIterator<Item = u64>) -> Self {
        ops.into_iter().fold(Work { sum: 0, max: 0 }, |w, op| Work {
            sum: w.sum + op,
            max: w.max.max(op),
        })
    }

    /// The cores' work as their claims would split the ranges' counted
    /// `cpu_ops` (module doc).
    fn local(r: &RunReport) -> Self {
        let ops: Vec<u64> = r.ranges.iter().map(|w| w.cpu_ops).collect();
        let max = replay_claims(&ops, r.workers.len()).into_iter().max();
        Work {
            sum: ops.iter().sum(),
            max: max.unwrap_or(0),
        }
    }

    fn cluster(r: &ClusterReport) -> Self {
        Self::of(workers(r).map(|w| w.cpu_ops))
    }

    /// The counted speedup: the workers share `sum` and finish in the
    /// struggler's `max`.
    fn speedup(self) -> f64 {
        ratio(self.sum, self.max)
    }
}

/// A scaling cell: the counted speedup beside the measured wall.
fn scaled(work: Work, wall: Duration) -> String {
    format!("{:.2}x {}", work.speedup(), fmt_duration(wall))
}

/// Scaling cells of local runs over the profile's core sweep, each with
/// the wall `wall` picks.
fn local_sweep(wb: &mut Workbench, ds: Dataset, wall: fn(&RunReport) -> Duration) -> Vec<String> {
    let cores = wb.profile.core_sweep();
    cores
        .into_iter()
        .map(|c| {
            let r = wb.run_local(ds, c, wb.profile.budget(), BalanceStrategy::InDegree);
            scaled(Work::local(&r), wall(&r))
        })
        .collect()
}

/// Scaling cells of 4-core-per-node cluster runs at each node count,
/// each with its end-to-end wall.
fn cluster_sweep(
    wb: &mut Workbench,
    ds: Dataset,
    nodes: &[usize],
    budget: MemoryBudget,
) -> Vec<String> {
    nodes
        .iter()
        .map(|&n| {
            let r = wb.run_cluster(ds, n, 4, budget);
            scaled(Work::cluster(&r), r.wall)
        })
        .collect()
}

fn core_columns(wb: &Workbench) -> Vec<String> {
    let cores = wb.profile.core_sweep();
    cores.iter().map(|c| format!("{c} cores")).collect()
}

/// Run the PowerGraph-like baseline; `None` when it runs out of memory.
fn powergraph(
    g: &Graph,
    machines: usize,
    memory_bytes: u64,
    seed: u64,
) -> Option<PowerGraphReport> {
    let config = PowerGraphConfig {
        machines,
        memory_bytes,
        cut: VertexCut::Greedy,
        seed,
    };
    match powergraph::triangle_count(g, config) {
        Ok(report) => Some(report),
        Err(BaselineError::OutOfMemory { .. }) => None,
        Err(e) => panic!("unexpected powergraph error: {e}"),
    }
}

const PG_COLUMNS: [&str; 4] = ["PG calc", "PG setup", "PG net", "PG max mach"];

/// PowerGraph's own measured calc and setup walls, its network bytes
/// and its largest machine's bytes; `F` throughout when it ran out of
/// memory.
fn pg_cells(pg: Option<&PowerGraphReport>) -> [String; 4] {
    match pg {
        Some(r) => [
            fmt_duration(r.calc),
            fmt_duration(r.setup),
            r.network_bytes.to_string(),
            r.machine_bytes
                .iter()
                .max()
                .copied()
                .unwrap_or(0)
                .to_string(),
        ],
        None => ["F", "F", "F", "F"].map(String::from),
    }
}

/// Build the OPT-like baseline's database for `ds`; the caller removes
/// the returned directory.
fn opt_db(wb: &mut Workbench, ds: Dataset) -> (OptDatabase, PathBuf) {
    let input = wb.graph(ds).1.clone();
    let dir = wb.data_dir.join("optdb").join(ds.name());
    std::fs::create_dir_all(&dir).unwrap();
    let db = optlike::create_database(&input, &dir.join("db"), &IoStats::new()).expect("opt db");
    (db, dir)
}

/// Count with OPT on `cores` threads; its count must agree with PDTL's.
fn opt_count(db: &OptDatabase, cores: usize, pdtl: &RunReport) -> OptReport {
    let opt =
        optlike::count(db, cores, MemoryBudget::edges(1 << 22), &IoStats::new()).expect("opt");
    assert_eq!(opt.triangles, pdtl.triangles, "OPT must agree with PDTL");
    opt
}

const OPT_COLUMNS: [&str; 7] = [
    "PDTL orient",
    "PDTL calc",
    "PDTL read",
    "OPT db",
    "OPT db bytes",
    "OPT calc",
    "OPT read",
];

/// A local run's worker I/O counter as a cell: `resident` when its
/// budget held all of `G*`, so its workers joined in memory and read
/// nothing; the counter otherwise.
fn local_io(r: &RunReport, counter: u64) -> String {
    match r.oriented_base {
        None => "resident".into(),
        Some(_) => counter.to_string(),
    }
}

/// PDTL's orientation and calc walls and bytes read beside OPT's own
/// creation and calc walls and bytes.
fn opt_cells(r: &RunReport, db: &OptDatabase, opt: &OptReport) -> [String; 7] {
    [
        fmt_duration(r.orientation.breakdown.wall),
        fmt_duration(r.calc_wall()),
        local_io(r, r.total_worker_io().bytes_read),
        fmt_duration(db.creation.wall),
        db.creation_bytes.to_string(),
        fmt_duration(opt.calc.wall),
        opt.calc_bytes.to_string(),
    ]
}

/// Table I: dataset statistics.
fn table1(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table I — datasets",
        "Scaled stand-ins for the paper's graphs (triangles are exact, via PDTL).",
    );
    let _ = writeln!(s, "{}", GraphStats::header());
    for ds in wb.all_datasets() {
        let budget = wb.profile.budget();
        let report = wb.run_local(ds, 2, budget, BalanceStrategy::InDegree);
        let g = wb.graph(ds).0;
        let stats = GraphStats::compute(ds.name(), g).with_triangles(report.triangles);
        let _ = writeln!(s, "{}", stats.row());
    }
    s
}

/// Table II: preprocessing — PDTL orientation vs PowerGraph setup vs
/// OPT database creation.
fn table2(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table II — preprocessing: measured walls, counted ops and bytes",
        "Paper shape: PDTL orientation is 7x-75x faster than OPT db creation and \
         faster than PowerGraph setup on every graph.",
    );
    let columns = [
        "d*max",
        "orient",
        "orient ops",
        "orient bytes",
        "PG setup",
        "PG net",
        "OPT db",
        "OPT db bytes",
    ];
    row(&mut s, "Graph", columns, 12);
    let mut datasets = wb.real_datasets();
    datasets.push(Dataset::Rmat(wb.profile.rmat_base()));
    for ds in datasets {
        let local = wb.run_local(ds, 4, wb.profile.budget(), BalanceStrategy::InDegree);
        let g = wb.graph(ds).0.clone();
        let oriented = pdtl_core::orient::orient_csr(&g);
        let pg = powergraph(&g, 4, u64::MAX, 1).expect("pg");
        let (db, dir) = opt_db(wb, ds);
        let o = &local.orientation;
        let cells = [
            oriented.d_star_max.to_string(),
            fmt_duration(o.breakdown.wall),
            o.cpu_ops.to_string(),
            o.io.total_bytes().to_string(),
            fmt_duration(pg.setup),
            pg.network_bytes.to_string(),
            fmt_duration(db.creation.wall),
            db.creation_bytes.to_string(),
        ];
        row(&mut s, &ds.name(), cells, 12);
        let _ = std::fs::remove_dir_all(&dir);
    }
    s
}

/// Figure 2: multicore orientation scaling.
fn fig2(wb: &mut Workbench) -> String {
    let mut s = header(
        "Figure 2 — PDTL orientation scaling (measured wall per core count)",
        "Paper shape: near-linear speedup flattening past the disk's bandwidth cap \
         (the paper's SSD saturates at 16 threads). Orientation counts one cpu_ops \
         total (`ops`) whatever its thread count, so it has no counted speedup.",
    );
    let cores = wb.profile.core_sweep();
    let columns = std::iter::once("ops".to_string()).chain(core_columns(wb));
    row(&mut s, "Graph", columns, 10);
    let mut datasets = vec![Dataset::Twitter, Dataset::Yahoo];
    datasets.extend(wb.rmat_datasets());
    for ds in datasets {
        let phases: Vec<_> = cores
            .iter()
            .map(|&c| {
                let budget = wb.profile.budget();
                wb.run_local(ds, c, budget, BalanceStrategy::InDegree)
                    .orientation
            })
            .collect();
        let walls = phases.iter().map(|o| fmt_duration(o.breakdown.wall));
        row(
            &mut s,
            &ds.name(),
            std::iter::once(phases[0].cpu_ops.to_string()).chain(walls),
            10,
        );
    }
    s
}

/// Figure 3: local multicore total time.
fn fig3(wb: &mut Workbench) -> String {
    let mut s = header(
        "Figure 3 — PDTL local multicore: counted speedup and total wall",
        "Paper shape: 2 cores halve the time; scale-free graphs keep scaling to \
         ~13x at 24 cores while Yahoo saturates around 5x.",
    );
    row(&mut s, "Graph", core_columns(wb), 14);
    let mut datasets = vec![Dataset::Twitter, Dataset::Yahoo];
    datasets.extend(wb.rmat_datasets());
    for ds in datasets {
        let cells = local_sweep(wb, ds, |r| r.wall);
        row(&mut s, &ds.name(), cells, 14);
    }
    s
}

/// Figure 4: distributed total time.
fn fig4(wb: &mut Workbench) -> String {
    let mut s = header(
        "Figure 4 — PDTL in the cluster: counted speedup and total wall vs nodes",
        "Paper shape: Twitter scales well; Yahoo stops benefiting past ~16 cores; \
         RMAT graphs keep scaling to 4 nodes with negligible copy overhead.",
    );
    let nodes = wb.profile.node_sweep();
    row(
        &mut s,
        "Graph",
        nodes.iter().map(|n| format!("{n}N x 4P")),
        14,
    );
    let mut datasets = vec![Dataset::Twitter, Dataset::Yahoo];
    datasets.extend(wb.rmat_datasets());
    for ds in datasets {
        let cells = cluster_sweep(wb, ds, &nodes, wb.profile.budget());
        row(&mut s, &ds.name(), cells, 14);
    }
    s
}

/// Figure 5: memory budget vs calculation work.
fn fig5(wb: &mut Workbench) -> String {
    let mut s = header(
        "Figure 5 — memory budget M vs M/4: counted work (2N x 4P)",
        "Paper shape: limiting memory has negligible effect on calculation time — \
         the point of an external-memory engine: cpu_ops barely moves while the \
         smaller budget pays in bytes read and chunk iterations.",
    );
    let columns = [
        "ops M",
        "ops M/4",
        "ratio",
        "read M",
        "read M/4",
        "ratio",
        "iters M",
        "iters M/4",
    ];
    row(&mut s, "Graph", columns, 10);
    // The paper's sweep is 32GB vs 8GB per node — a 4x budget cut, with
    // the smaller budget still holding a worker's range in a few chunks.
    let hi_budget = wb.profile.budget();
    let lo_budget = MemoryBudget::edges(hi_budget.edges / 4);
    let mut rises = true;
    for ds in wb.all_datasets() {
        let hi = wb.run_cluster(ds, 2, 4, hi_budget);
        let lo = wb.run_cluster(ds, 2, 4, lo_budget);
        let ops = [total(&hi, |w| w.cpu_ops), total(&lo, |w| w.cpu_ops)];
        let read = [total(&hi, |w| w.bytes_read), total(&lo, |w| w.bytes_read)];
        let iters = [total(&hi, |w| w.iterations), total(&lo, |w| w.iterations)];
        rises &= read[1] > read[0] && iters[1] > iters[0];
        let cells = [
            ops[0].to_string(),
            ops[1].to_string(),
            format!("{:.2}x", ratio(ops[1], ops[0])),
            read[0].to_string(),
            read[1].to_string(),
            format!("{:.2}x", ratio(read[1], read[0])),
            iters[0].to_string(),
            iters[1].to_string(),
        ];
        row(&mut s, &ds.name(), cells, 10);
    }
    shape(
        &mut s,
        rises,
        "at M/4 the summed bytes_read and iterations rise on every dataset",
    );
    s
}

/// Figure 6: total CPU vs I/O breakdown.
fn fig6(wb: &mut Workbench) -> String {
    let mut s = header(
        "Figure 6 — total CPU vs I/O (counted, summed over workers)",
        "Paper shape: PDTL is not I/O-bound — I/O is a small share of compute, \
         growing with core count and worse for Yahoo than Twitter. `bytes/op` is \
         bytes read per counted CPU operation.",
    );
    let columns = ["config", "cpu_ops", "bytes_read", "I/O ops", "bytes/op"];
    row(&mut s, "Graph", columns, 12);
    for ds in [Dataset::Twitter, Dataset::Yahoo] {
        for &n in &wb.profile.node_sweep() {
            let r = wb.run_cluster(ds, n, 4, wb.profile.budget());
            let (ops, read) = (total(&r, |w| w.cpu_ops), total(&r, |w| w.bytes_read));
            let cells = [
                format!("{n}N"),
                ops.to_string(),
                read.to_string(),
                total(&r, |w| w.io_ops).to_string(),
                format!("{:.2}", ratio(read, ops)),
            ];
            row(&mut s, &ds.name(), cells, 12);
        }
    }
    s
}

/// Figures 7/8: per-node CPU and I/O breakdown.
fn fig7_8(wb: &mut Workbench, ds: Dataset, title: &str) -> String {
    let mut s = header(
        &format!("{title} — per-node CPU and I/O (counted), {}", ds.name()),
        "Paper shape: Twitter is well balanced across nodes; Yahoo is skewed, with \
         the high-I/O node also the high-CPU node.",
    );
    for &n in &[2usize, 4] {
        let r = wb.run_cluster(ds, n, 4, wb.profile.budget());
        row(
            &mut s,
            &format!("{n} nodes:"),
            ["cpu_ops", "I/O bytes", "I/O ops"],
            12,
        );
        for node in &r.nodes {
            let io_ops: u64 = node.workers.iter().map(|w| w.io_ops).sum();
            let cells = [node.cpu_ops(), node.io_bytes(), io_ops];
            row(&mut s, &format!("  node {}", node.node), cells, 12);
        }
    }
    s
}

/// Figure 9 (and Table X): load balancing on vs off.
fn fig9(wb: &mut Workbench) -> String {
    let mut s = header(
        "Figure 9 — load balancing: the struggler's counted cpu_ops and calc wall",
        &format!(
            "Paper shape: in-degree balancing improves calculation time, most on \
             skewed graphs (the paper reports up to 3x). The cores claim \
             {RANGES_PER_CORE} planned ranges each; the struggler is their replay."
        ),
    );
    let columns = [
        "cores",
        "max ops LB",
        "max ops no LB",
        "gain",
        "calc LB",
        "calc no LB",
    ];
    row(&mut s, "Graph", columns, 13);
    let mut below = true;
    let mut datasets = vec![Dataset::Twitter, Dataset::Yahoo];
    datasets.push(Dataset::Rmat(wb.profile.rmat_base()));
    for ds in datasets {
        for &cores in &[8usize, 16] {
            let budget = wb.profile.budget();
            let with = wb.run_local(ds, cores, budget, BalanceStrategy::InDegree);
            let without = wb.run_local(ds, cores, budget, BalanceStrategy::EqualEdges);
            let (w, o) = (Work::local(&with).max, Work::local(&without).max);
            below &= w < o;
            let cells = [
                cores.to_string(),
                w.to_string(),
                o.to_string(),
                format!("{:.2}x", ratio(o, w)),
                fmt_duration(with.calc_wall()),
                fmt_duration(without.calc_wall()),
            ];
            row(&mut s, &ds.name(), cells, 13);
        }
    }
    shape(
        &mut s,
        below,
        "in-degree balancing leaves the struggler fewer cpu_ops than equal-edges on every row",
    );
    s
}

/// Table III: total time and average copy time per node count.
fn table3(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table III — total wall, graph bytes per remote node and avg copy wall",
        "Paper shape: total time falls with nodes while avg copy time rises \
         (shared master uplink); Yahoo's copy anomaly at 4 nodes.",
    );
    let nodes = wb.profile.node_sweep();
    let columns = nodes.iter().flat_map(|n| {
        [
            format!("{n}N total"),
            "copy bytes".into(),
            "avg copy".into(),
        ]
    });
    row(&mut s, "Graph", columns, 11);
    let mut datasets = vec![Dataset::Twitter, Dataset::Yahoo];
    datasets.extend(wb.rmat_datasets());
    for ds in datasets {
        let cells: Vec<String> = nodes
            .iter()
            .flat_map(|&n| {
                let r = wb.run_cluster(ds, n, 4, wb.profile.budget());
                // Every remote node receives the whole replica.
                let copied = r.nodes.iter().map(|nd| nd.copy_bytes).find(|&b| b > 0);
                let (bytes, copy) = match copied {
                    Some(b) => (b.to_string(), fmt_duration(r.avg_copy())),
                    None => ("-".into(), "-".into()),
                };
                [fmt_duration(r.wall), bytes, copy]
            })
            .collect();
        row(&mut s, &ds.name(), cells, 11);
    }
    s
}

/// Table IV: per-node CPU and I/O totals — balance drift with N.
fn table4(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table IV — per node cpu_ops and I/O bytes (counted)",
        "Paper shape: node-to-node CPU discrepancies grow as nodes are added \
         (1%→13% on Twitter, 87%→130% on Yahoo).",
    );
    let mut datasets = vec![Dataset::Twitter, Dataset::Yahoo];
    datasets.push(Dataset::Rmat(wb.profile.rmat_base()));
    for ds in datasets {
        let _ = writeln!(s, "{}:", ds.name());
        for &n in &[2usize, 3, 4] {
            let r = wb.run_cluster(ds, n, 4, wb.profile.budget());
            let ops: Vec<u64> = r.nodes.iter().map(|nd| nd.cpu_ops()).collect();
            let (max, min) = (ops.iter().max().copied(), ops.iter().min().copied());
            let spread = (ratio(max.unwrap_or(0), min.unwrap_or(0)) - 1.0) * 100.0;
            let _ = write!(s, "  {n}N  cpu_ops:");
            for op in &ops {
                let _ = write!(s, " {op:>9}");
            }
            let _ = write!(s, "  (spread {spread:.0}%)  I/O bytes:");
            for nd in &r.nodes {
                let _ = write!(s, " {:>9}", nd.io_bytes());
            }
            let _ = writeln!(s);
        }
    }
    s
}

/// Figure 10: single-node performance across cores.
fn fig10(wb: &mut Workbench) -> String {
    let mut s = header(
        "Figure 10 — single node: counted speedup and calc wall across cores",
        "Paper shape: 2 cores halve the time for all real graphs.",
    );
    row(&mut s, "Graph", core_columns(wb), 14);
    for ds in wb.real_datasets() {
        let cells = local_sweep(wb, ds, RunReport::calc_wall);
        row(&mut s, &ds.name(), cells, 14);
    }
    s
}

/// Figure 11: speedup over single-core MGT.
fn fig11(wb: &mut Workbench) -> String {
    let mut s = header(
        "Figure 11 — distributed PDTL over single-core MGT: 1-core cpu_ops ÷ the \
         struggler's, and calc wall",
        "Paper shape: up to 55x at 4 nodes for RMAT graphs, ~30x for Twitter, \
         only ~4x for Yahoo.",
    );
    let nodes = wb.profile.node_sweep();
    let columns =
        std::iter::once("1 core ops".to_string()).chain(nodes.iter().map(|n| format!("{n}N x 4P")));
    row(&mut s, "Graph", columns, 16);
    let mut rises = true;
    let mut datasets = vec![Dataset::Twitter, Dataset::Yahoo];
    datasets.extend(wb.rmat_datasets());
    for ds in datasets {
        let one = wb.run_local(ds, 1, wb.profile.budget(), BalanceStrategy::InDegree);
        let base = Work::local(&one);
        let mut cells = vec![format!("{} {}", base.sum, fmt_duration(one.calc_wall()))];
        let mut last = base.speedup();
        for &n in &nodes {
            let r = wb.run_cluster(ds, n, 4, wb.profile.budget());
            let speedup = ratio(base.sum, Work::cluster(&r).max);
            rises &= speedup > last;
            last = speedup;
            cells.push(format!("{speedup:.2}x {}", fmt_duration(r.calc_wall())));
        }
        row(&mut s, &ds.name(), cells, 16);
    }
    shape(
        &mut s,
        rises,
        "the counted speedup strictly rises from 1 core through every N x 4P on every dataset",
    );
    s
}

/// Figure 12: PDTL vs OPT across cores on RMAT.
fn fig12(wb: &mut Workbench) -> String {
    let ds = Dataset::Rmat(wb.profile.rmat_base());
    let mut s = header(
        &format!("Figure 12 — PDTL vs OPT on {} across cores", ds.name()),
        "Paper shape: PDTL setup (orientation) is far below OPT setup (db \
         creation); calc times comparable, PDTL ahead.",
    );
    row(&mut s, "cores", OPT_COLUMNS, 12);
    let (db, dir) = opt_db(wb, ds);
    for &c in &wb.profile.core_sweep() {
        let r = wb.run_local(ds, c, wb.profile.budget(), BalanceStrategy::InDegree);
        let opt = opt_count(&db, c, &r);
        row(&mut s, &c.to_string(), opt_cells(&r, &db, &opt), 12);
    }
    let _ = std::fs::remove_dir_all(&dir);
    s
}

/// Figure 13: PDTL vs PowerGraph breakdown.
fn fig13(wb: &mut Workbench) -> String {
    let mut s = header(
        "Figure 13 — PDTL vs PowerGraph: calc vs total",
        "Paper shape: calc times are comparable; PowerGraph's setup makes its \
         total >2x PDTL's.",
    );
    let columns = ["PDTL calc", "PDTL total", "PDTL net"]
        .into_iter()
        .chain(PG_COLUMNS);
    row(&mut s, "Graph", columns, 12);
    for ds in [Dataset::Twitter, Dataset::Rmat(wb.profile.rmat_base() + 1)] {
        let r = wb.run_cluster(ds, 4, 4, wb.profile.budget());
        let g = wb.graph(ds).0.clone();
        let pg = powergraph(&g, 4, u64::MAX, 3).expect("pg");
        assert_eq!(pg.triangles, r.triangles);
        let pdtl = [
            fmt_duration(r.calc_wall()),
            fmt_duration(r.wall),
            r.network.theorem_bytes().to_string(),
        ];
        row(
            &mut s,
            &ds.name(),
            pdtl.into_iter().chain(pg_cells(Some(&pg))),
            12,
        );
    }
    s
}

/// Table V: PDTL vs OPT per graph.
fn table5(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table V — PDTL and OPT (24-core analogue: 8 cores)",
        "Paper shape: PDTL orientation beats OPT db creation by 7x-75x; calc \
         within 2x either way; totals favour PDTL up to 7.8x.",
    );
    row(&mut s, "Graph", OPT_COLUMNS, 12);
    let mut datasets = wb.real_datasets();
    datasets.push(Dataset::Rmat(wb.profile.rmat_base()));
    for ds in datasets {
        let cores = 8usize;
        let r = wb.run_local(ds, cores, wb.profile.budget(), BalanceStrategy::InDegree);
        let (db, dir) = opt_db(wb, ds);
        let opt = opt_count(&db, cores, &r);
        row(&mut s, &ds.name(), opt_cells(&r, &db, &opt), 12);
        let _ = std::fs::remove_dir_all(&dir);
    }
    s
}

/// Table VI: PDTL vs PowerGraph with OOM failures.
fn table6(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table VI — PDTL vs PowerGraph in the cluster (F = out of memory)",
        "Paper shape: PowerGraph fails on the largest graphs even with far more \
         memory than PDTL uses; PDTL completes everywhere.",
    );
    let columns = ["PDTL calc", "PDTL total", "PDTL max ops"]
        .into_iter()
        .chain(PG_COLUMNS);
    row(&mut s, "Graph", columns, 12);
    let mut failed = false;
    for ds in wb.all_datasets() {
        let budget = wb.profile.low_budget();
        let r = wb.run_cluster(ds, 4, 4, budget);
        // PowerGraph gets ~7x PDTL's *total* memory (the paper gave it
        // 244GB/node vs PDTL's 1GB/core) and still fails on the graphs
        // whose replicated neighbour sets exceed it.
        let g = wb.graph(ds).0.clone();
        let pg = powergraph(&g, 4, 7 * 16 * (budget.edges as u64) * 4, 5);
        if let Some(pg) = &pg {
            assert_eq!(pg.triangles, r.triangles);
        }
        failed |= pg.is_none();
        let pdtl = [
            fmt_duration(r.calc_wall()),
            fmt_duration(r.wall),
            Work::cluster(&r).max.to_string(),
        ];
        row(
            &mut s,
            &ds.name(),
            pdtl.into_iter().chain(pg_cells(pg.as_ref())),
            12,
        );
    }
    shape(
        &mut s,
        failed,
        "PowerGraph runs out of memory (F) on a dataset PDTL completes",
    );
    s
}

/// Table VII: total CPU and I/O across cores and nodes.
fn table7(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table VII — total cpu_ops and I/O vs cores and nodes (counted)",
        "Paper shape: total CPU grows slowly with parallelism (repeated scans); \
         total I/O grows with cores (more passes over the graph).",
    );
    row(
        &mut s,
        "Graph",
        ["config", "cpu_ops", "bytes_read", "I/O ops"],
        12,
    );
    for ds in [Dataset::Twitter, Dataset::Yahoo] {
        for &c in &wb.profile.core_sweep() {
            let r = wb.run_local(ds, c, wb.profile.budget(), BalanceStrategy::InDegree);
            let io = r.total_worker_io();
            let cells = [
                format!("{c} cores"),
                r.total_cpu_ops().to_string(),
                local_io(&r, io.bytes_read),
                local_io(&r, io.read_ops + io.write_ops),
            ];
            row(&mut s, &ds.name(), cells, 12);
        }
        for &n in &wb.profile.node_sweep()[1..] {
            let r = wb.run_cluster(ds, n, 4, wb.profile.budget());
            let cells = [
                format!("{n} nodes"),
                total(&r, |w| w.cpu_ops).to_string(),
                total(&r, |w| w.bytes_read).to_string(),
                total(&r, |w| w.io_ops).to_string(),
            ];
            row(&mut s, &ds.name(), cells, 12);
        }
    }
    s
}

/// Table VIII: full runtime grid.
fn table8(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table VIII — PDTL across cores and nodes: counted speedup and total wall",
        "Paper shape: monotone improvement with cores; remote nodes keep helping \
         on compute-heavy graphs.",
    );
    let cores = wb.profile.core_sweep();
    let nodes = wb.profile.node_sweep();
    let columns = cores
        .iter()
        .map(|c| format!("{c}c"))
        .chain(nodes[1..].iter().map(|n| format!("{n}N")));
    row(&mut s, "Graph", columns, 14);
    for ds in wb.all_datasets() {
        let mut cells = local_sweep(wb, ds, |r| r.wall);
        cells.extend(cluster_sweep(wb, ds, &nodes[1..], wb.profile.budget()));
        row(&mut s, &ds.name(), cells, 14);
    }
    s
}

/// Table IX: orientation time and d*_max per graph across cores.
fn table9(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table IX — orientation wall across cores, with d*max",
        "Paper shape: d*max is orders of magnitude below max degree (the point of \
         the degree order); orientation scales with cores.",
    );
    let cores = wb.profile.core_sweep();
    let columns = ["max deg", "d*max"].map(String::from).into_iter();
    row(&mut s, "Graph", columns.chain(core_columns(wb)), 10);
    let mut below = true;
    for ds in wb.all_datasets() {
        let g = wb.graph(ds).0.clone();
        let o = pdtl_core::orient::orient_csr(&g);
        below &= o.d_star_max < g.max_degree();
        let mut cells = vec![g.max_degree().to_string(), o.d_star_max.to_string()];
        for &c in &cores {
            let r = wb.run_local(ds, c, wb.profile.budget(), BalanceStrategy::InDegree);
            cells.push(fmt_duration(r.orientation.breakdown.wall));
        }
        row(&mut s, &ds.name(), cells, 10);
    }
    shape(
        &mut s,
        below,
        "d*max is below the maximum degree on every dataset",
    );
    s
}

/// Table X: runtime with and without load balancing.
fn table10(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table X — total wall and the struggler's cpu_ops with and without load balancing",
        "Note: the paper's Table X column labels appear swapped relative to the \
         Figure 9 text ('up to 3x improvement'); we report balanced as faster, \
         matching the text.",
    );
    let columns = [
        "cores",
        "wall LB",
        "wall no LB",
        "max ops LB",
        "max ops no LB",
    ];
    row(&mut s, "Graph", columns, 13);
    let mut datasets = vec![Dataset::Twitter, Dataset::Yahoo];
    datasets.push(Dataset::Rmat(wb.profile.rmat_base()));
    for ds in datasets {
        for &cores in &[8usize, 16] {
            let with = wb.run_local(ds, cores, wb.profile.budget(), BalanceStrategy::InDegree);
            let without = wb.run_local(ds, cores, wb.profile.budget(), BalanceStrategy::EqualEdges);
            let cells = [
                cores.to_string(),
                fmt_duration(with.wall),
                fmt_duration(without.wall),
                Work::local(&with).max.to_string(),
                Work::local(&without).max.to_string(),
            ];
            row(&mut s, &ds.name(), cells, 13);
        }
    }
    s
}

/// Table XI: local multicore runtimes.
fn table11(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table XI — local multicore: counted speedup and total wall",
        "Paper shape: near-halving per doubling of cores, with diminishing \
         returns on Yahoo.",
    );
    row(&mut s, "Graph", core_columns(wb), 14);
    for ds in wb.all_datasets() {
        let cells = local_sweep(wb, ds, |r| r.wall);
        row(&mut s, &ds.name(), cells, 14);
    }
    s
}

/// Tables XII/XIII: local cluster with low vs high memory per node.
fn table12_13(wb: &mut Workbench, low_memory: bool) -> String {
    let (label, budget) = if low_memory {
        (
            "Table XII — local cluster, 8GB/node analogue: counted speedup and total wall",
            MemoryBudget::edges(wb.profile.budget().edges / 4),
        )
    } else {
        (
            "Table XIII — local cluster, 32GB/node analogue: counted speedup and total wall",
            wb.profile.budget(),
        )
    };
    let mut s = header(
        label,
        "Paper shape: low memory changes totals only marginally — external \
         memory does its job.",
    );
    let nodes = wb.profile.node_sweep();
    row(&mut s, "Graph", nodes.iter().map(|n| format!("{n}N")), 14);
    for ds in wb.all_datasets() {
        let cells = cluster_sweep(wb, ds, &nodes, budget);
        row(&mut s, &ds.name(), cells, 14);
    }
    s
}

/// Table XIV: many-node PDTL vs PowerGraph with OOM.
fn table14(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table XIV — 7-node analogue: PDTL vs PowerGraph (F = out of memory)",
        "Paper shape: with 7 nodes PowerGraph fails on everything beyond the two \
         small graphs; PDTL completes all datasets.",
    );
    let columns = ["PDTL orient", "PDTL total", "PDTL net"]
        .into_iter()
        .chain(PG_COLUMNS);
    row(&mut s, "Graph", columns, 12);
    for ds in wb.all_datasets() {
        let budget = wb.profile.low_budget();
        let r = wb.run_cluster(ds, 4, 2, budget);
        let g = wb.graph(ds).0.clone();
        // Per the paper's Table XIV, PowerGraph gets much more memory
        // (40GB/node vs PDTL's 32GB total) and still fails beyond the
        // two small graphs; the scaled threshold sits just above the
        // small stand-ins' per-machine replicated footprint.
        let pg = powergraph(&g, 7, 64 * (budget.edges as u64) * 4, 9);
        let pdtl = [
            fmt_duration(r.orientation.breakdown.wall),
            fmt_duration(r.wall),
            r.network.theorem_bytes().to_string(),
        ];
        row(
            &mut s,
            &ds.name(),
            pdtl.into_iter().chain(pg_cells(pg.as_ref())),
            12,
        );
    }
    // CTTP sidebar (Section V-E4): shuffle blow-up.
    let g = wb.graph(Dataset::Twitter).0.clone();
    let ct = cttp::run(
        &g,
        cttp::CttpConfig {
            rho: 4,
            reducers: 8,
        },
    )
    .expect("cttp");
    let _ = writeln!(
        s,
        "\nCTTP sidebar: shuffle ships {} edge copies for |E| = {} ({}x blow-up) over {} rounds",
        ct.shuffle_records,
        g.num_edges(),
        ct.shuffle_records / g.num_edges().max(1),
        ct.rounds
    );
    // PATRIC sidebar: aggregate partition memory vs graph size.
    let pr = patric::partition_memory(
        &g,
        patric::PatricConfig {
            processors: 8,
            memory_bytes: u64::MAX,
            balance: patric::PatricBalance::ByDegreeSum,
        },
    );
    let _ = writeln!(
        s,
        "PATRIC sidebar: 8 overlapping partitions hold {} bytes vs {} graph bytes ({:.1}x)",
        pr.iter().sum::<u64>(),
        g.adj_len() * 4,
        pr.iter().sum::<u64>() as f64 / (g.adj_len() * 4) as f64
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workbench::Profile;

    /// The experiments that check a paper shape against the counters.
    const SHAPES: &[&str] = &["fig5", "fig9", "fig11", "table6", "table9"];

    /// `exp`'s output as the goldens hold it (`tests/regenerate.sh`):
    /// each time token (`[0-9]+(\.[0-9]+)?(ns|µs|us|ms|s)\b`) replaced
    /// by `T`, and each line's runs of whitespace collapsed to one space
    /// and trimmed, since column padding follows the walls' widths.
    fn masked(text: &str) -> String {
        let mut out = String::new();
        for line in text.lines() {
            let mut rest = line;
            let mut times = String::new();
            while let Some(c) = rest.chars().next() {
                let len = match time_token(rest) {
                    Some(len) => {
                        times.push('T');
                        len
                    }
                    None => {
                        times.push(c);
                        c.len_utf8()
                    }
                };
                rest = &rest[len..];
            }
            out += &times.split_whitespace().collect::<Vec<_>>().join(" ");
            out.push('\n');
        }
        out
    }

    /// The length of the time token `text` starts with, if any.
    fn time_token(text: &str) -> Option<usize> {
        let digits = |s: &str| s.bytes().take_while(u8::is_ascii_digit).count();
        let mut len = digits(text);
        if len == 0 {
            return None;
        }
        if let Some(frac) = text[len..].strip_prefix('.').map(digits) {
            len += if frac > 0 { 1 + frac } else { 0 };
        }
        let unit = ["ns", "µs", "us", "ms", "s"]
            .into_iter()
            .find(|unit| text[len..].starts_with(unit))?;
        len += unit.len();
        let word = |c: char| c.is_alphanumeric() || c == '_';
        (!text[len..].chars().next().is_some_and(word)).then_some(len)
    }

    /// The first `=== title ===` table of `got` that is not `want`'s,
    /// both printed; `None` when they are the same.
    fn first_differing_table(got: &str, want: &str) -> Option<String> {
        let (got, want): (Vec<_>, Vec<_>) = (
            got.split("\n=== ").collect(),
            want.split("\n=== ").collect(),
        );
        (0..got.len().max(want.len())).find_map(|i| {
            let (g, w) = (got.get(i).copied(), want.get(i).copied());
            (g != w).then(|| {
                let (g, w) = (g.unwrap_or("(missing)\n"), w.unwrap_or("(missing)\n"));
                format!("--- golden\n=== {w}+++ this run\n=== {g}")
            })
        })
    }

    /// Smoke-run every experiment at the Quick profile — the end-to-end
    /// test of the whole harness — under the default engine options and
    /// under mmap with delta-varint, and hold it to two things:
    ///
    /// * every counter reads as `tests/exp-quick*.golden` recorded it:
    ///   the masked output equals the golden, or the first table that
    ///   differs is printed (`tests/regenerate.sh` rewrites both goldens
    ///   when a change moves counted work on purpose);
    /// * each paper shape the counters express holds: Fig. 5 (a quarter
    ///   of the budget reads more bytes over more iterations), Fig. 9
    ///   (in-degree balancing leaves the struggler less work), Fig. 11
    ///   (counted speedup rises with N·P), Table VI (PowerGraph runs
    ///   out of memory where PDTL does not) and Table IX (`d*max` below
    ///   the maximum degree).
    #[test]
    fn all_experiments_run_quick() {
        use pdtl_core::mgt::MgtOptions;
        use pdtl_io::{Codec, IoBackend};
        let mmap_varint = MgtOptions {
            backend: IoBackend::Mmap,
            codec: Codec::DeltaVarint,
            ..MgtOptions::default()
        };
        let runs = [
            (
                MgtOptions::default(),
                include_str!("../tests/exp-quick.golden"),
            ),
            (
                mmap_varint,
                include_str!("../tests/exp-quick-mmap-varint.golden"),
            ),
        ];
        // A cluster's dispatch carries its replica's path, so network
        // bytes follow the data dir's spelling: the runs spell it as `exp`
        // does (relative to the package here), one after the other.
        let outputs: Vec<Vec<String>> = (runs.iter())
            .map(|&(mgt, _)| {
                let mut wb = Workbench::new(Profile::Quick, PathBuf::from("target/pdtl-data"));
                wb.mgt = mgt;
                let mut pieces = Vec::new();
                run_listed(ALL_EXPERIMENTS, &mut wb, |p| pieces.push(p.to_string()))
                    .unwrap_or_else(|id| panic!("unknown id {id}"));
                pieces
            })
            .collect();
        for ((mgt, golden), pieces) in runs.iter().zip(outputs) {
            let case = format!("{} {}", mgt.backend, mgt.codec);
            for (id, out) in ALL_EXPERIMENTS.iter().zip(&pieces[1..]) {
                assert!(out.contains("==="), "{case} {id} produced no table");
                assert!(out.len() > 100, "{case} {id} output suspiciously short");
                assert!(
                    !out.contains("FINDING"),
                    "{case} {id}: a paper shape failed\n{out}"
                );
                if SHAPES.contains(id) {
                    assert!(
                        out.contains("\nshape holds: "),
                        "{case} {id} checked no shape\n{out}"
                    );
                }
            }
            if let Some(diff) = first_differing_table(&masked(&pieces.concat()), golden) {
                panic!("{case}: counters moved from the golden\n{diff}");
            }
        }
    }

    #[test]
    fn masking_hides_walls_and_padding_only() {
        let line = "Twitter   1.82x 4ms  12.5µs 3s 7us/x 9ns_ 2 nodes 1.5ms, RMAT-9s 10.\n";
        let want = "Twitter 1.82x T T T T/x 9ns_ 2 nodes T, RMAT-T 10.\n";
        assert_eq!(masked(line), want);
        assert_eq!(masked(want), want);
        assert_eq!(
            first_differing_table("a\n=== x ===\n1\n", "a\n=== x ===\n1\n"),
            None
        );
        let diff = first_differing_table("a\n=== x ===\n1\n", "a\n=== x ===\n2\n").unwrap();
        assert_eq!(
            diff,
            "--- golden\n=== x ===\n2\n+++ this run\n=== x ===\n1\n"
        );
    }

    #[test]
    fn unknown_experiment_is_none() {
        let mut wb = Workbench::temp(Profile::Quick);
        assert!(run_experiment("tableXL", &mut wb).is_none());
    }
}
