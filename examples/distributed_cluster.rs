//! Distributed PDTL: run the full master/worker protocol of the paper's
//! Figure 1 on a simulated 4-node × 4-core cluster, and print the
//! per-node breakdown plus the network-bound check of Theorem IV.3.
//!
//! ```text
//! cargo run --release --example distributed_cluster
//! ```

use pdtl::cluster::{ClusterConfig, ClusterRunner, NetModel};
use pdtl::core::{theory, MgtOptions};
use pdtl::graph::datasets::Dataset;
use pdtl::graph::DiskGraph;
use pdtl::io::{CostModel, IoBackend, IoStats, MemoryBudget};

fn main() {
    let graph = Dataset::Rmat(11).build().expect("generate");
    let dir = std::env::temp_dir().join("pdtl-distributed");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let stats = IoStats::new();
    let input = DiskGraph::write(&graph, dir.join("rmat11"), &stats).expect("write");

    let (nodes, cores) = (4usize, 4usize);
    let runner = ClusterRunner::new(ClusterConfig {
        nodes,
        cores_per_node: cores,
        budget: MemoryBudget::edges(8 << 10),
        balance: Default::default(),
        listing: false,
        net: NetModel::default(),
        transport: Default::default(),
        // Real cluster nodes stream cold replicas from disk, where
        // overlapped I/O hides device waits. io_uring gets that overlap
        // from kernel submission queues (no prefetch threads) and
        // degrades to the thread-based prefetcher on kernels without
        // it; the choice ships to every worker in its wire
        // WorkerConfig (backend byte 3).
        mgt: MgtOptions {
            backend: IoBackend::Uring,
            ..MgtOptions::default()
        },
        // Failure handling: detect via heartbeats, retry with backoff
        // (this budget), reassign ranges off nodes that stay down. Export
        // PDTL_FAULT (e.g. `seed=42;kill=1`) to watch it recover.
        retry: Default::default(),
        heartbeat: std::time::Duration::from_millis(50),
        node_deadline: std::time::Duration::from_secs(5),
        fault: pdtl::cluster::FaultPlan::default_from_env(),
    })
    .expect("config");
    let report = runner.run(&input, &dir).expect("run");

    println!(
        "cluster: {nodes} nodes x {cores} cores, RMAT-11 ({} edges)",
        graph.num_edges()
    );
    println!("triangles : {}", report.triangles);
    println!(
        "wall      : {:?}  (calc: {:?})",
        report.wall,
        report.calc_wall()
    );
    println!("avg copy  : {:?}\n", report.avg_copy());

    let cost = CostModel::default();
    println!("per-node breakdown (modeled seconds on the paper's hardware):");
    for node in &report.nodes {
        println!(
            "  node {:<2} triangles {:>10}  cpu {:>8.3}s  io {:>7.3}s  copied {:>9} bytes",
            node.node,
            node.triangles(),
            cost.cpu_seconds(node.cpu_ops()),
            cost.io_seconds(node.io_bytes(), 0),
            node.copy_bytes,
        );
    }

    println!("\nnetwork traffic (Theorem IV.3: Θ(NP + N|E| + T)):");
    println!(
        "  config    : {:>12} bytes  (Θ(NP) term)",
        report.network.config
    );
    println!(
        "  graph     : {:>12} bytes  (Θ(N|E|) term)",
        report.network.graph
    );
    println!("  results   : {:>12} bytes", report.network.result);
    println!(
        "  control   : {:>12} bytes  (heartbeats/shutdown, outside the bound)",
        report.network.control
    );
    let bound = theory::pdtl_network_bound_bytes(nodes as u64, cores as u64, graph.num_edges(), 0);
    println!(
        "  theorem {} <= 4x bound {} ✓",
        report.network.theorem_bytes(),
        bound
    );
    assert!(report.network.theorem_bytes() <= 4 * bound);

    let _ = std::fs::remove_dir_all(&dir);
}
