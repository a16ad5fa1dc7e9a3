//! One experiment per table/figure of the paper.
//!
//! Each function renders a text table mirroring its paper artifact. The
//! `modeled` columns come from counted work under the default
//! [`CostModel`](pdtl_io::CostModel)/[`NetModel`](pdtl_cluster::NetModel)
//! and carry the scaling *shape*; `wall` columns are the host's measured
//! times. PAPER.md ("Evaluation artefacts") maps each artifact to its
//! id; the `exp` output itself is the paper-vs-measured record.

use std::fmt::Write as _;

use pdtl_baselines::{cttp, optlike, patric, powergraph};
use pdtl_core::balance::BalanceStrategy;
use pdtl_graph::datasets::Dataset;
use pdtl_graph::GraphStats;
use pdtl_io::{IoStats, MemoryBudget};

use crate::workbench::{fmt_duration, fmt_secs, Workbench};

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

fn header(title: &str, note: &str) -> String {
    format!("\n=== {title} ===\n{note}\n\n")
}

/// Modeled (calc, total) seconds for a successful PowerGraph-like run.
///
/// Calc: each machine intersects replicated neighbour sets along its
/// local edges (every triangle touched on 3 edges → ~6T merge steps).
/// Setup: load the graph from disk, partition it (hashing, replica
/// bookkeeping — ~30 counted ops/edge of allocation-heavy work), build
/// and replicate the neighbour sets over the interconnect.
fn pg_modeled(
    wb: &Workbench,
    m: u64,
    report: &powergraph::PowerGraphReport,
    machines: f64,
) -> (f64, f64) {
    let calc = wb.cost.cpu_seconds(6 * report.triangles + m) / machines;
    let setup = wb.cost.io_seconds(8 * m, 0)
        + wb.cost.cpu_seconds(30 * m) / machines
        + wb.net.transfer_secs(report.network_bytes);
    (calc, calc + setup)
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
        "Table II — preprocessing time",
        "Paper shape: PDTL orientation is 7x-75x faster than OPT db creation and \
         faster than PowerGraph setup on every graph.",
    );
    let _ = writeln!(
        s,
        "{:<16} {:>8} {:>14} {:>16} {:>12} {:>14}",
        "Graph", "d*max", "PDTL orient", "PDTL modeled", "PG setup", "OPT db"
    );
    let mut datasets = wb.real_datasets();
    datasets.push(Dataset::Rmat(wb.profile.rmat_base()));
    for ds in datasets {
        let budget = wb.profile.budget();
        let local = wb.run_local(ds, 4, budget, BalanceStrategy::InDegree);
        let d_star_max: u64 = local
            .workers
            .iter()
            .map(|w| w.range.len())
            .max()
            .unwrap_or(0); // placeholder replaced below
        let _ = d_star_max;
        let g = wb.graph(ds).0.clone();
        let oriented = pdtl_core::orient::orient_csr(&g);

        let pg = powergraph::triangle_count(
            &g,
            powergraph::PowerGraphConfig {
                machines: 4,
                memory_bytes: u64::MAX,
                cut: powergraph::VertexCut::Greedy,
                seed: 1,
            },
        )
        .expect("pg");

        let stats = IoStats::new();
        let (input, dir) = (
            wb.graph(ds).1.clone(),
            wb.data_dir.join("optdb").join(ds.name()),
        );
        std::fs::create_dir_all(&dir).unwrap();
        let db = optlike::create_database(&input, &dir.join("db"), &stats).expect("opt db");

        let _ = writeln!(
            s,
            "{:<16} {:>8} {:>14} {:>16} {:>12} {:>14}",
            ds.name(),
            oriented.d_star_max,
            fmt_duration(local.orientation.breakdown.wall),
            fmt_secs(local.orientation.modeled(&wb.cost).total_overlapped()),
            fmt_duration(pg.setup),
            fmt_duration(db.creation.wall),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    s
}

/// Figure 2: multicore orientation scaling.
fn fig2(wb: &mut Workbench) -> String {
    let mut s = header(
        "Figure 2 — PDTL orientation scaling (modeled seconds per core count)",
        "Paper shape: near-linear speedup flattening past the disk's bandwidth cap \
         (the paper's SSD saturates at 16 threads).",
    );
    let cores = wb.profile.core_sweep();
    let _ = write!(s, "{:<16}", "Graph");
    for &c in &cores {
        let _ = write!(s, " {:>10}", format!("{c} cores"));
    }
    let _ = writeln!(s);
    let mut datasets = vec![Dataset::Twitter, Dataset::Yahoo];
    datasets.extend(wb.rmat_datasets());
    for ds in datasets {
        let _ = write!(s, "{:<16}", ds.name());
        for &c in &cores {
            let budget = wb.profile.budget();
            let r = wb.run_local(ds, c, budget, BalanceStrategy::InDegree);
            let _ = write!(
                s,
                " {:>10}",
                fmt_secs(r.orientation.modeled(&wb.cost).total_overlapped())
            );
        }
        let _ = writeln!(s);
    }
    s
}

/// Figure 3: local multicore total time.
fn fig3(wb: &mut Workbench) -> String {
    let mut s = header(
        "Figure 3 — PDTL local multicore total time (modeled)",
        "Paper shape: 2 cores halve the time; scale-free graphs keep scaling to \
         ~13x at 24 cores while Yahoo saturates around 5x.",
    );
    let cores = wb.profile.core_sweep();
    let _ = write!(s, "{:<16}", "Graph");
    for &c in &cores {
        let _ = write!(s, " {:>10}", format!("{c} cores"));
    }
    let _ = writeln!(s, " {:>8}", "speedup");
    let mut datasets = vec![Dataset::Twitter, Dataset::Yahoo];
    datasets.extend(wb.rmat_datasets());
    for ds in datasets {
        let budget = wb.profile.budget();
        let _ = write!(s, "{:<16}", ds.name());
        let mut first = 0.0f64;
        let mut last = 0.0f64;
        for (i, &c) in cores.iter().enumerate() {
            let r = wb.run_local(ds, c, budget, BalanceStrategy::InDegree);
            let t = r.modeled_total(&wb.cost);
            if i == 0 {
                first = t;
            }
            last = t;
            let _ = write!(s, " {:>10}", fmt_secs(t));
        }
        let _ = writeln!(s, " {:>7.1}x", first / last.max(1e-12));
    }
    s
}

/// Figure 4: distributed total time.
fn fig4(wb: &mut Workbench) -> String {
    let mut s = header(
        "Figure 4 — PDTL in the cluster: total time (modeled) vs cores and nodes",
        "Paper shape: Twitter scales well; Yahoo stops benefiting past ~16 cores; \
         RMAT graphs keep scaling to 4 nodes with negligible copy overhead.",
    );
    let nodes = wb.profile.node_sweep();
    let p = 4usize;
    let _ = write!(s, "{:<16}", "Graph");
    for &n in &nodes {
        let _ = write!(s, " {:>12}", format!("{n}N x {p}P"));
    }
    let _ = writeln!(s);
    let mut datasets = vec![Dataset::Twitter, Dataset::Yahoo];
    datasets.extend(wb.rmat_datasets());
    for ds in datasets {
        let _ = write!(s, "{:<16}", ds.name());
        for &n in &nodes {
            let budget = wb.profile.budget();
            let r = wb.run_cluster(ds, n, p, budget);
            let _ = write!(s, " {:>12}", fmt_secs(r.modeled_total(&wb.cost, &wb.net)));
        }
        let _ = writeln!(s);
    }
    s
}

/// Figure 5: memory budget vs calculation time.
fn fig5(wb: &mut Workbench) -> String {
    let mut s = header(
        "Figure 5 — memory vs calc time (modeled)",
        "Paper shape: limiting memory has negligible effect on calculation time — \
         the point of an external-memory engine.",
    );
    let _ = writeln!(
        s,
        "{:<16} {:>16} {:>16} {:>9}",
        "Graph", "high-mem calc", "low-mem calc", "ratio"
    );
    // The paper's sweep is 32GB vs 8GB per node — a 4x budget cut, with
    // the smaller budget still holding a worker's range in a few chunks.
    let hi_budget = wb.profile.budget();
    let lo_budget = MemoryBudget::edges(hi_budget.edges / 4);
    for ds in wb.all_datasets() {
        let hi = wb.run_cluster(ds, 2, 4, hi_budget);
        let lo = wb.run_cluster(ds, 2, 4, lo_budget);
        let (thi, tlo) = (hi.modeled_calc(&wb.cost), lo.modeled_calc(&wb.cost));
        let _ = writeln!(
            s,
            "{:<16} {:>16} {:>16} {:>8.2}x",
            ds.name(),
            fmt_secs(thi),
            fmt_secs(tlo),
            tlo / thi.max(1e-12)
        );
    }
    s
}

/// Figure 6: total CPU vs I/O breakdown.
fn fig6(wb: &mut Workbench) -> String {
    let mut s = header(
        "Figure 6 — total CPU vs I/O (modeled seconds summed over workers)",
        "Paper shape: PDTL is not I/O-bound — I/O is a small share of compute, \
         growing with core count and worse for Yahoo than Twitter.",
    );
    let _ = writeln!(
        s,
        "{:<10} {:>8} {:>12} {:>12} {:>8}",
        "Graph", "config", "CPU", "I/O", "IO/CPU"
    );
    for ds in [Dataset::Twitter, Dataset::Yahoo] {
        for &n in &wb.profile.node_sweep() {
            let r = wb.run_cluster(ds, n, 4, wb.profile.budget());
            let cpu: f64 = r
                .nodes
                .iter()
                .map(|nd| wb.cost.cpu_seconds(nd.cpu_ops()))
                .sum();
            let io: f64 = r
                .nodes
                .iter()
                .map(|nd| wb.cost.io_seconds(nd.io_bytes(), 0))
                .sum();
            let _ = writeln!(
                s,
                "{:<10} {:>8} {:>12} {:>12} {:>7.1}%",
                ds.name(),
                format!("{n}N"),
                fmt_secs(cpu),
                fmt_secs(io),
                100.0 * io / cpu.max(1e-12)
            );
        }
    }
    s
}

/// Figures 7/8: per-node CPU and I/O breakdown.
fn fig7_8(wb: &mut Workbench, ds: Dataset, title: &str) -> String {
    let mut s = header(
        &format!("{title} — per-node CPU and I/O, {}", ds.name()),
        "Paper shape: Twitter is well balanced across nodes; Yahoo is skewed, with \
         the high-I/O node also the high-CPU node.",
    );
    for &n in &[2usize, 4] {
        let r = wb.run_cluster(ds, n, 4, wb.profile.budget());
        let _ = writeln!(s, "{n} nodes:");
        for node in &r.nodes {
            let cpu = wb.cost.cpu_seconds(node.cpu_ops());
            let io = wb.cost.io_seconds(node.io_bytes(), 0);
            let _ = writeln!(
                s,
                "  node {:<2} CPU {:>12}  I/O {:>12}",
                node.node,
                fmt_secs(cpu),
                fmt_secs(io)
            );
        }
    }
    s
}

/// Figure 9 (and Table X): load balancing on vs off.
fn fig9(wb: &mut Workbench) -> String {
    let mut s = header(
        "Figure 9 — load balancing (modeled struggler calc time)",
        "Paper shape: in-degree balancing improves calculation time, most on \
         skewed graphs (the paper reports up to 3x).",
    );
    let _ = writeln!(
        s,
        "{:<16} {:>6} {:>14} {:>14} {:>9}",
        "Graph", "cores", "w/ LB", "w/o LB", "gain"
    );
    let mut datasets = vec![Dataset::Twitter, Dataset::Yahoo];
    datasets.push(Dataset::Rmat(wb.profile.rmat_base()));
    for ds in datasets {
        for &cores in &[8usize, 16] {
            let budget = wb.profile.budget();
            let with = wb.run_local(ds, cores, budget, BalanceStrategy::InDegree);
            let without = wb.run_local(ds, cores, budget, BalanceStrategy::EqualEdges);
            let (tw, to) = (with.modeled_calc(&wb.cost), without.modeled_calc(&wb.cost));
            let _ = writeln!(
                s,
                "{:<16} {:>6} {:>14} {:>14} {:>8.2}x",
                ds.name(),
                cores,
                fmt_secs(tw),
                fmt_secs(to),
                to / tw.max(1e-12)
            );
        }
    }
    s
}

/// Table III: total time and average copy time per node count.
fn table3(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table III — total time and avg copy time per remote node (modeled)",
        "Paper shape: total time falls with nodes while avg copy time rises \
         (shared master uplink); Yahoo's copy anomaly at 4 nodes.",
    );
    let nodes = wb.profile.node_sweep();
    let _ = write!(s, "{:<16}", "Graph");
    for &n in &nodes {
        let _ = write!(s, " {:>12} {:>10}", format!("{n}N total"), "avg copy");
    }
    let _ = writeln!(s);
    let mut datasets = vec![Dataset::Twitter, Dataset::Yahoo];
    datasets.extend(wb.rmat_datasets());
    for ds in datasets {
        let _ = write!(s, "{:<16}", ds.name());
        for &n in &nodes {
            let r = wb.run_cluster(ds, n, 4, wb.profile.budget());
            let _ = write!(
                s,
                " {:>12} {:>10}",
                fmt_secs(r.modeled_total(&wb.cost, &wb.net)),
                if n == 1 {
                    "-".into()
                } else {
                    fmt_secs(r.modeled_avg_copy(&wb.net))
                }
            );
        }
        let _ = writeln!(s);
    }
    s
}

/// Table IV: per-node CPU and I/O totals — balance drift with N.
fn table4(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table IV — per node total CPU and I/O (modeled)",
        "Paper shape: node-to-node CPU discrepancies grow as nodes are added \
         (1%→13% on Twitter, 87%→130% on Yahoo).",
    );
    let mut datasets = vec![Dataset::Twitter, Dataset::Yahoo];
    datasets.push(Dataset::Rmat(wb.profile.rmat_base()));
    for ds in datasets {
        let _ = writeln!(s, "{}:", ds.name());
        for &n in &[2usize, 3, 4] {
            let r = wb.run_cluster(ds, n, 4, wb.profile.budget());
            let cpus: Vec<f64> = r
                .nodes
                .iter()
                .map(|nd| wb.cost.cpu_seconds(nd.cpu_ops()))
                .collect();
            let ios: Vec<f64> = r
                .nodes
                .iter()
                .map(|nd| wb.cost.io_seconds(nd.io_bytes(), 0))
                .collect();
            let spread = (cpus.iter().cloned().fold(0.0, f64::max)
                / cpus.iter().cloned().fold(f64::MAX, f64::min).max(1e-12)
                - 1.0)
                * 100.0;
            let _ = write!(s, "  {n}N  CPU:");
            for c in &cpus {
                let _ = write!(s, " {:>10}", fmt_secs(*c));
            }
            let _ = write!(s, "  (spread {spread:.0}%)  I/O:");
            for i in &ios {
                let _ = write!(s, " {:>9}", fmt_secs(*i));
            }
            let _ = writeln!(s);
        }
    }
    s
}

/// Figure 10: single-node performance across cores.
fn fig10(wb: &mut Workbench) -> String {
    let mut s = header(
        "Figure 10 — single node, calc time across cores (modeled)",
        "Paper shape: 2 cores halve the time for all real graphs.",
    );
    let cores = wb.profile.core_sweep();
    let _ = write!(s, "{:<16}", "Graph");
    for &c in &cores {
        let _ = write!(s, " {:>10}", format!("{c} cores"));
    }
    let _ = writeln!(s);
    for ds in wb.real_datasets() {
        let _ = write!(s, "{:<16}", ds.name());
        for &c in &cores {
            let r = wb.run_local(ds, c, wb.profile.budget(), BalanceStrategy::InDegree);
            let _ = write!(s, " {:>10}", fmt_secs(r.modeled_calc(&wb.cost)));
        }
        let _ = writeln!(s);
    }
    s
}

/// Figure 11: speedup over single-core MGT.
fn fig11(wb: &mut Workbench) -> String {
    let mut s = header(
        "Figure 11 — speedup of distributed PDTL over single-core MGT (modeled calc)",
        "Paper shape: up to 55x at 4 nodes for RMAT graphs, ~30x for Twitter, \
         only ~4x for Yahoo.",
    );
    let nodes = wb.profile.node_sweep();
    let p = 4usize;
    let _ = write!(s, "{:<16} {:>10}", "Graph", "1 core");
    for &n in &nodes {
        let _ = write!(s, " {:>10}", format!("{n}N x {p}P"));
    }
    let _ = writeln!(s);
    let mut datasets = vec![Dataset::Twitter, Dataset::Yahoo];
    datasets.extend(wb.rmat_datasets());
    for ds in datasets {
        let base = wb
            .run_local(ds, 1, wb.profile.budget(), BalanceStrategy::InDegree)
            .modeled_calc(&wb.cost);
        let _ = write!(s, "{:<16} {:>10}", ds.name(), fmt_secs(base));
        for &n in &nodes {
            let r = wb.run_cluster(ds, n, p, wb.profile.budget());
            let speedup = base / r.modeled_calc(&wb.cost).max(1e-12);
            let _ = write!(s, " {:>9.1}x", speedup);
        }
        let _ = writeln!(s);
    }
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
    let (input, dir) = (wb.graph(ds).1.clone(), wb.data_dir.join("fig12-optdb"));
    std::fs::create_dir_all(&dir).unwrap();
    let stats = IoStats::new();
    let db = optlike::create_database(&input, &dir.join("db"), &stats).expect("opt db");

    let _ = writeln!(
        s,
        "{:>6} {:>14} {:>14} {:>14} {:>14}",
        "cores", "PDTL setup", "PDTL calc", "OPT setup", "OPT calc"
    );
    for &c in &wb.profile.core_sweep() {
        let r = wb.run_local(ds, c, wb.profile.budget(), BalanceStrategy::InDegree);
        let ostats = IoStats::new();
        let opt = optlike::count(&db, c, MemoryBudget::edges(1 << 22), &ostats).expect("opt");
        // OPT's calc is in-memory parallel: model its CPU as ops/c.
        let opt_calc_modeled = wb.cost.cpu_seconds(3 * opt.triangles + 1) / c as f64
            + wb.cost.io_seconds(opt.calc_bytes, 0);
        let _ = writeln!(
            s,
            "{:>6} {:>14} {:>14} {:>14} {:>14}",
            c,
            fmt_secs(r.orientation.modeled(&wb.cost).total_overlapped()),
            fmt_secs(r.modeled_calc(&wb.cost)),
            fmt_secs(wb.cost.io_seconds(db.creation_bytes, 0)),
            fmt_secs(opt_calc_modeled),
        );
        assert_eq!(opt.triangles, r.triangles, "OPT must agree with PDTL");
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
    let _ = writeln!(
        s,
        "{:<16} {:>14} {:>14} {:>14} {:>14}",
        "Graph", "PDTL calc", "PDTL total", "PG calc", "PG total"
    );
    for ds in [Dataset::Twitter, Dataset::Rmat(wb.profile.rmat_base() + 1)] {
        let r = wb.run_cluster(ds, 4, 4, wb.profile.budget());
        let g = wb.graph(ds).0.clone();
        let pg = powergraph::triangle_count(
            &g,
            powergraph::PowerGraphConfig {
                machines: 4,
                memory_bytes: u64::MAX,
                cut: powergraph::VertexCut::Greedy,
                seed: 3,
            },
        )
        .expect("pg");
        assert_eq!(pg.triangles, r.triangles);
        let (pg_calc, pg_total) = pg_modeled(wb, g.num_edges(), &pg, 4.0);
        let _ = writeln!(
            s,
            "{:<16} {:>14} {:>14} {:>14} {:>14}",
            ds.name(),
            fmt_secs(r.modeled_calc(&wb.cost)),
            fmt_secs(r.modeled_total(&wb.cost, &wb.net)),
            fmt_secs(pg_calc),
            fmt_secs(pg_total),
        );
    }
    s
}

/// Table V: PDTL vs OPT per graph.
fn table5(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table V — PDTL and OPT (24-core analogue)",
        "Paper shape: PDTL orientation beats OPT db creation by 7x-75x; calc \
         within 2x either way; totals favour PDTL up to 7.8x.",
    );
    let _ = writeln!(
        s,
        "{:<16} {:>14} {:>12} {:>14} {:>12}",
        "Graph", "PDTL orient", "PDTL calc", "OPT db", "OPT calc"
    );
    let mut datasets = wb.real_datasets();
    datasets.push(Dataset::Rmat(wb.profile.rmat_base()));
    for ds in datasets {
        let cores = 8usize;
        let r = wb.run_local(ds, cores, wb.profile.budget(), BalanceStrategy::InDegree);
        let input = wb.graph(ds).1.clone();
        let dir = wb.data_dir.join("table5-optdb").join(ds.name());
        std::fs::create_dir_all(&dir).unwrap();
        let stats = IoStats::new();
        let db = optlike::create_database(&input, &dir.join("db"), &stats).expect("opt db");
        let ostats = IoStats::new();
        let opt = optlike::count(&db, cores, MemoryBudget::edges(1 << 22), &ostats).expect("opt");
        assert_eq!(opt.triangles, r.triangles);
        let _ = writeln!(
            s,
            "{:<16} {:>14} {:>12} {:>14} {:>12}",
            ds.name(),
            fmt_secs(r.orientation.modeled(&wb.cost).total_overlapped()),
            fmt_secs(r.modeled_calc(&wb.cost)),
            fmt_secs(wb.cost.io_seconds(db.creation_bytes, 0)),
            fmt_secs(
                wb.cost.cpu_seconds(6 * opt.triangles + 1) / cores as f64
                    + wb.cost.io_seconds(opt.calc_bytes, 0)
            ),
        );
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
    let _ = writeln!(
        s,
        "{:<16} {:>12} {:>12} {:>12} {:>12}",
        "Graph", "PDTL calc", "PDTL total", "PG calc", "PG total"
    );
    for ds in wb.all_datasets() {
        let budget = wb.profile.low_budget();
        let r = wb.run_cluster(ds, 4, 4, budget);
        // PowerGraph gets ~7x PDTL's *total* memory (the paper gave it
        // 244GB/node vs PDTL's 1GB/core) and still fails on the graphs
        // whose replicated neighbour sets exceed it.
        let g = wb.graph(ds).0.clone();
        let pg_budget = 7 * 16 * (budget.edges as u64) * 4;
        let pg = powergraph::triangle_count(
            &g,
            powergraph::PowerGraphConfig {
                machines: 4,
                memory_bytes: pg_budget,
                cut: powergraph::VertexCut::Greedy,
                seed: 5,
            },
        );
        let (pg_calc, pg_total) = match pg {
            Ok(rep) => {
                assert_eq!(rep.triangles, r.triangles);
                let (calc, total) = pg_modeled(wb, g.num_edges(), &rep, 4.0);
                (fmt_secs(calc), fmt_secs(total))
            }
            Err(pdtl_baselines::BaselineError::OutOfMemory { .. }) => ("F".into(), "F".into()),
            Err(e) => panic!("unexpected powergraph error: {e}"),
        };
        let _ = writeln!(
            s,
            "{:<16} {:>12} {:>12} {:>12} {:>12}",
            ds.name(),
            fmt_secs(r.modeled_calc(&wb.cost)),
            fmt_secs(r.modeled_total(&wb.cost, &wb.net)),
            pg_calc,
            pg_total
        );
    }
    s
}

/// Table VII: total CPU and I/O across cores and nodes.
fn table7(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table VII — total CPU and I/O vs cores and nodes (modeled)",
        "Paper shape: total CPU grows slowly with parallelism (repeated scans); \
         total I/O grows with cores (more passes over the graph).",
    );
    for ds in [Dataset::Twitter, Dataset::Yahoo] {
        let _ = writeln!(s, "{}:", ds.name());
        for &c in &wb.profile.core_sweep() {
            let r = wb.run_local(ds, c, wb.profile.budget(), BalanceStrategy::InDegree);
            let cpu = wb.cost.cpu_seconds(r.total_cpu_ops());
            let io = wb.cost.io_seconds(r.total_worker_io().total_bytes(), 0);
            let _ = writeln!(
                s,
                "  {:>2} cores   CPU {:>12}   I/O {:>12}",
                c,
                fmt_secs(cpu),
                fmt_secs(io)
            );
        }
        for &n in &wb.profile.node_sweep()[1..] {
            let r = wb.run_cluster(ds, n, 4, wb.profile.budget());
            let cpu: f64 = r
                .nodes
                .iter()
                .map(|nd| wb.cost.cpu_seconds(nd.cpu_ops()))
                .sum();
            let io: f64 = r
                .nodes
                .iter()
                .map(|nd| wb.cost.io_seconds(nd.io_bytes(), 0))
                .sum();
            let _ = writeln!(
                s,
                "  {:>2} nodes   CPU {:>12}   I/O {:>12}",
                n,
                fmt_secs(cpu),
                fmt_secs(io)
            );
        }
    }
    s
}

/// Table VIII: full runtime grid (and the OPT row).
fn table8(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table VIII — PDTL total time across cores and nodes (modeled)",
        "Paper shape: monotone improvement with cores; remote nodes keep helping \
         on compute-heavy graphs.",
    );
    let cores = wb.profile.core_sweep();
    let nodes = wb.profile.node_sweep();
    let _ = write!(s, "{:<16}", "Graph");
    for &c in &cores {
        let _ = write!(s, " {:>10}", format!("{c}c"));
    }
    for &n in &nodes[1..] {
        let _ = write!(s, " {:>10}", format!("{n}N"));
    }
    let _ = writeln!(s);
    for ds in wb.all_datasets() {
        let _ = write!(s, "{:<16}", ds.name());
        for &c in &cores {
            let r = wb.run_local(ds, c, wb.profile.budget(), BalanceStrategy::InDegree);
            let _ = write!(s, " {:>10}", fmt_secs(r.modeled_total(&wb.cost)));
        }
        for &n in &nodes[1..] {
            let r = wb.run_cluster(ds, n, 4, wb.profile.budget());
            let _ = write!(s, " {:>10}", fmt_secs(r.modeled_total(&wb.cost, &wb.net)));
        }
        let _ = writeln!(s);
    }
    s
}

/// Table IX: orientation time and d*_max per graph across cores.
fn table9(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table IX — orientation across cores, with d*max",
        "Paper shape: d*max is orders of magnitude below max degree (the point of \
         the degree order); orientation scales with cores.",
    );
    let cores = wb.profile.core_sweep();
    let _ = write!(s, "{:<16} {:>8}", "Graph", "d*max");
    for &c in &cores {
        let _ = write!(s, " {:>10}", format!("{c} cores"));
    }
    let _ = writeln!(s);
    for ds in wb.all_datasets() {
        let g = wb.graph(ds).0.clone();
        let o = pdtl_core::orient::orient_csr(&g);
        let _ = write!(s, "{:<16} {:>8}", ds.name(), o.d_star_max);
        for &c in &cores {
            let r = wb.run_local(ds, c, wb.profile.budget(), BalanceStrategy::InDegree);
            let _ = write!(
                s,
                " {:>10}",
                fmt_secs(r.orientation.modeled(&wb.cost).total_overlapped())
            );
        }
        let _ = writeln!(s);
    }
    s
}

/// Table X: runtime with and without load balancing.
fn table10(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table X — total runtime with and without load balancing (modeled)",
        "Note: the paper's Table X column labels appear swapped relative to the \
         Figure 9 text ('up to 3x improvement'); we report balanced as faster, \
         matching the text.",
    );
    let _ = writeln!(
        s,
        "{:<16} {:>6} {:>14} {:>14}",
        "Graph", "cores", "w/ LB", "w/o LB"
    );
    let mut datasets = vec![Dataset::Twitter, Dataset::Yahoo];
    datasets.push(Dataset::Rmat(wb.profile.rmat_base()));
    for ds in datasets {
        for &cores in &[8usize, 16] {
            let with = wb.run_local(ds, cores, wb.profile.budget(), BalanceStrategy::InDegree);
            let without = wb.run_local(ds, cores, wb.profile.budget(), BalanceStrategy::EqualEdges);
            let _ = writeln!(
                s,
                "{:<16} {:>6} {:>14} {:>14}",
                ds.name(),
                cores,
                fmt_secs(with.modeled_total(&wb.cost)),
                fmt_secs(without.modeled_total(&wb.cost)),
            );
        }
    }
    s
}

/// Table XI: local multicore runtimes.
fn table11(wb: &mut Workbench) -> String {
    let mut s = header(
        "Table XI — local multicore total runtime (modeled)",
        "Paper shape: near-halving per doubling of cores, with diminishing \
         returns on Yahoo.",
    );
    let cores = wb.profile.core_sweep();
    let _ = write!(s, "{:<16}", "Graph");
    for &c in &cores {
        let _ = write!(s, " {:>10}", format!("{c} cores"));
    }
    let _ = writeln!(s);
    for ds in wb.all_datasets() {
        let _ = write!(s, "{:<16}", ds.name());
        for &c in &cores {
            let r = wb.run_local(ds, c, wb.profile.budget(), BalanceStrategy::InDegree);
            let _ = write!(s, " {:>10}", fmt_secs(r.modeled_total(&wb.cost)));
        }
        let _ = writeln!(s);
    }
    s
}

/// Tables XII/XIII: local cluster with low vs high memory per node.
fn table12_13(wb: &mut Workbench, low_memory: bool) -> String {
    let (label, budget) = if low_memory {
        (
            "Table XII — local cluster, 8GB/node analogue (modeled)",
            MemoryBudget::edges(wb.profile.budget().edges / 4),
        )
    } else {
        (
            "Table XIII — local cluster, 32GB/node analogue (modeled)",
            wb.profile.budget(),
        )
    };
    let mut s = header(
        label,
        "Paper shape: low memory changes totals only marginally — external \
         memory does its job.",
    );
    let nodes = wb.profile.node_sweep();
    let _ = write!(s, "{:<16}", "Graph");
    for &n in &nodes {
        let _ = write!(s, " {:>10}", format!("{n}N"));
    }
    let _ = writeln!(s);
    for ds in wb.all_datasets() {
        let _ = write!(s, "{:<16}", ds.name());
        for &n in &nodes {
            let r = wb.run_cluster(ds, n, 4, budget);
            let _ = write!(s, " {:>10}", fmt_secs(r.modeled_total(&wb.cost, &wb.net)));
        }
        let _ = writeln!(s);
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
    let _ = writeln!(
        s,
        "{:<16} {:>12} {:>12} {:>10} {:>12}",
        "Graph", "PDTL orient", "PDTL total", "PG calc", "PG total"
    );
    for ds in wb.all_datasets() {
        let budget = wb.profile.low_budget();
        let r = wb.run_cluster(ds, 4, 2, budget);
        let g = wb.graph(ds).0.clone();
        // Per the paper's Table XIV, PowerGraph gets much more memory
        // (40GB/node vs PDTL's 32GB total) and still fails beyond the
        // two small graphs; the scaled threshold sits just above the
        // small stand-ins' per-machine replicated footprint.
        let pg_budget = 64 * (budget.edges as u64) * 4;
        let pg = powergraph::triangle_count(
            &g,
            powergraph::PowerGraphConfig {
                machines: 7,
                memory_bytes: pg_budget,
                cut: powergraph::VertexCut::Greedy,
                seed: 9,
            },
        );
        let (pg_calc, pg_total) = match pg {
            Ok(rep) => {
                let (calc, total) = pg_modeled(wb, g.num_edges(), &rep, 7.0);
                (fmt_secs(calc), fmt_secs(total))
            }
            Err(pdtl_baselines::BaselineError::OutOfMemory { .. }) => ("F".into(), "F".into()),
            Err(e) => panic!("unexpected powergraph error: {e}"),
        };
        let _ = writeln!(
            s,
            "{:<16} {:>12} {:>12} {:>10} {:>12}",
            ds.name(),
            fmt_secs(r.orientation.modeled(&wb.cost).total_overlapped()),
            fmt_secs(r.modeled_total(&wb.cost, &wb.net)),
            pg_calc,
            pg_total
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

    /// Smoke-run every experiment at the Quick profile; this is the
    /// end-to-end test of the whole harness.
    #[test]
    fn all_experiments_run_quick() {
        let mut wb = Workbench::temp(Profile::Quick);
        for id in ALL_EXPERIMENTS {
            let out = run_experiment(id, &mut wb).unwrap_or_else(|| panic!("unknown id {id}"));
            assert!(out.contains("==="), "{id} produced no table");
            assert!(out.len() > 100, "{id} output suspiciously short");
        }
    }

    #[test]
    fn unknown_experiment_is_none() {
        let mut wb = Workbench::temp(Profile::Quick);
        assert!(run_experiment("tableXL", &mut wb).is_none());
    }
}
