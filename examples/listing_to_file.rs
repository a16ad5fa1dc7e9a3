//! Triangle *listing* to disk: stream every triangle of a graph into a
//! binary file the way `pdtl list` does, demonstrating the `T/B` output
//! term of Theorem IV.2, then read it back and verify.
//!
//! ```text
//! cargo run --release --example listing_to_file
//! ```

use pdtl::core::sink::read_triangle_file;
use pdtl::core::{LocalConfig, LocalRunner};
use pdtl::graph::datasets::Dataset;
use pdtl::graph::DiskGraph;
use pdtl::io::{IoStats, MemoryBudget};

fn main() {
    let graph = Dataset::LiveJournal.build_scaled(0.1).expect("generate");
    let dir = std::env::temp_dir().join("pdtl-listing");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let stats = IoStats::new();
    let input = DiskGraph::write(&graph, dir.join("lj"), &stats).expect("write");

    // Orient, plan and let two cores list their ranges into part files,
    // put together in range order.
    let runner = LocalRunner::new(LocalConfig {
        cores: 2,
        budget: MemoryBudget::edges(8 << 10),
        ..LocalConfig::default()
    })
    .expect("config");
    let out_path = dir.join("triangles.bin");
    let (report, written) = runner
        .run_listing_to_file(&input, &dir.join("work"), &out_path)
        .expect("list");
    let bytes = std::fs::metadata(&out_path).expect("stat").len();

    println!("triangles listed : {}", report.triangles);
    println!("file             : {}", out_path.display());
    println!(
        "output bytes     : {bytes} ({} per triangle — the T/B term)",
        bytes / written.max(1)
    );
    assert_eq!(written, report.triangles);

    // Read back and spot-check.
    let listed = read_triangle_file(&out_path, stats).expect("read");
    assert_eq!(listed.len() as u64, report.triangles);
    for &(u, v, w) in listed.iter().take(5) {
        println!("  triangle ({u}, {v}, {w})");
        assert!(graph.has_edge(u, v) && graph.has_edge(v, w) && graph.has_edge(u, w));
    }
    println!("verified all {} triples exist in the graph", listed.len());

    let _ = std::fs::remove_dir_all(&dir);
}
