//! Quickstart: generate a graph, write it in PDTL binary format, count
//! its triangles with the full multicore pipeline, and check the result
//! against the paper's complexity bounds.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pdtl::core::{theory, BalanceStrategy, LocalConfig, LocalRunner, MgtOptions};
use pdtl::graph::datasets::Dataset;
use pdtl::graph::{DiskGraph, GraphStats};
use pdtl::io::{CostModel, IoBackend, IoStats, MemoryBudget};

fn main() {
    // 1. A scaled Twitter-like power-law graph (the paper's flagship
    //    dataset at 1/4000 of its size).
    let graph = Dataset::Twitter.build_scaled(0.1).expect("generate");
    println!("{}", GraphStats::header());
    println!("{}", GraphStats::compute("Twitter-like", &graph).row());

    // 2. Write it in the paper's binary .deg/.adj format.
    let dir = std::env::temp_dir().join("pdtl-quickstart");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let stats = IoStats::new();
    let input = DiskGraph::write(&graph, dir.join("twitter"), &stats).expect("write");
    println!(
        "\nwrote {} ({} vertices, {} adjacency entries)",
        input.base().display(),
        input.num_vertices(),
        input.adj_len()
    );

    // 3. Count with 4 cores and a deliberately tiny memory budget —
    //    external memory means the budget barely matters.
    //    A just-generated graph sits in the page cache, so the
    //    zero-copy mmap backend is the right pick (it degrades to
    //    blocking reads automatically where mapping is unsupported);
    //    see docs/ARCHITECTURE.md for the full decision matrix.
    let runner = LocalRunner::new(LocalConfig {
        cores: 4,
        budget: MemoryBudget::edges(8 << 10),
        balance: BalanceStrategy::InDegree,
        mgt: MgtOptions {
            backend: IoBackend::Mmap,
            ..MgtOptions::default()
        },
    })
    .expect("config");
    let report = runner.run(&input, &dir).expect("run");

    println!("\ntriangles           : {}", report.triangles);
    println!(
        "orientation wall    : {:?}",
        report.orientation.breakdown.wall
    );
    println!("calculation wall    : {:?}", report.calc_wall());
    println!("chunk iterations    : {}", report.total_iterations());
    let io = report.total_worker_io();
    println!(
        "worker I/O          : {} bytes read over {} ops",
        io.bytes_read, io.read_ops
    );

    // 4. Verify measured work sits inside Theorem IV.2's bound.
    let m = graph.num_edges();
    let bound =
        theory::mgt_io_bound_bytes(m, (8 << 10) / 2, 0) + 4 * m * report.workers.len() as u64;
    println!(
        "I/O bound check     : measured {} <= O-bound {} ✓",
        io.bytes_read, bound
    );
    assert!(
        io.bytes_read <= 4 * bound,
        "I/O must stay within the theorem"
    );

    // 5. Modeled time under the paper's hardware model (500 MB/s SSD).
    let cost = CostModel::default();
    println!(
        "modeled calc (paper hardware): {:.3}s",
        report.modeled_calc(&cost)
    );

    let _ = std::fs::remove_dir_all(&dir);
}
