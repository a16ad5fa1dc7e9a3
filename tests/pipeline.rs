//! End-to-end import pipeline: raw unsorted edge list → external sort →
//! PDTL binary format → orientation → distributed count, with every
//! intermediate verified.

use pdtl::core::{BalanceStrategy, LocalConfig, LocalRunner};
use pdtl::graph::datasets::Dataset;
use pdtl::graph::disk::from_sorted_packed_edges;
use pdtl::graph::verify::triangle_count;
use pdtl::graph::DiskGraph;
use pdtl::io::{external_sort_u64, extsort, IoStats, MemoryBudget};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("pdtl-pipeline")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn raw_edge_list_to_triangle_count() {
    let dir = tmpdir("full");
    let g = Dataset::Rmat(7).build().unwrap();
    let expected = triangle_count(&g);
    let n = g.num_vertices();

    // 1. Produce a deliberately shuffled raw edge file (both directions,
    //    with duplicates and self-loops thrown in).
    let stats = IoStats::new();
    let mut packed: Vec<u64> = Vec::new();
    for (u, v) in g.edges() {
        packed.push(((u as u64) << 32) | v as u64);
        packed.push(((v as u64) << 32) | u as u64);
    }
    packed.push((3u64 << 32) | 3); // self loop
    packed.push(packed[0]); // duplicate
                            // deterministic shuffle
    let mut state = 0x9E37u64;
    for i in (1..packed.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        packed.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let raw = dir.join("raw.edges");
    extsort::write_u64_records(&raw, &packed, &stats).unwrap();

    // 2. External sort under a tiny memory budget (forces many runs).
    let sorted = dir.join("sorted.edges");
    let total = external_sort_u64(&raw, &sorted, 1000, &stats).unwrap();
    assert_eq!(total, packed.len() as u64);

    // 3. Streaming import into the PDTL binary format.
    let imported = from_sorted_packed_edges(&sorted, n, dir.join("graph"), &stats).unwrap();
    let round_trip = imported.load_csr(&stats).unwrap();
    round_trip.validate().unwrap();
    assert_eq!(round_trip, g, "import must reproduce the original graph");

    // 4. Count with the full pipeline.
    let runner = LocalRunner::new(LocalConfig {
        cores: 3,
        budget: MemoryBudget::edges(512),
        balance: BalanceStrategy::InDegree,
        ..Default::default()
    })
    .unwrap();
    let report = runner.run(&imported, &dir).unwrap();
    assert_eq!(report.triangles, expected);
}

#[test]
fn replicas_are_bit_identical() {
    let dir = tmpdir("replica");
    let g = Dataset::Orkut.build_scaled(0.02).unwrap();
    let stats = IoStats::new();
    let dg = DiskGraph::write(&g, dir.join("src"), &stats).unwrap();
    let (copy, bytes) = dg.copy_to(dir.join("dst"), &stats).unwrap();
    // the copy ships the data files plus the integrity manifest
    let mft = std::fs::metadata(dg.mft_path()).unwrap().len();
    assert_eq!(bytes, dg.size_bytes() + mft);
    assert_eq!(
        std::fs::read(dg.adj_path()).unwrap(),
        std::fs::read(copy.adj_path()).unwrap()
    );
    assert_eq!(
        std::fs::read(dg.deg_path()).unwrap(),
        std::fs::read(copy.deg_path()).unwrap()
    );
}

#[test]
fn dataset_standins_have_documented_shapes() {
    // The shapes the stand-ins of PAPER.md's "Evaluation artefacts"
    // are defined by: Orkut densest, Yahoo the most skewed, Twitter
    // hub-heavy.
    let scale = 0.05;
    let avg = |ds: Dataset| {
        let g = ds.build_scaled(scale).unwrap();
        2.0 * g.num_edges() as f64 / g.num_vertices() as f64
    };
    let skew = |ds: Dataset| {
        let g = ds.build_scaled(scale).unwrap();
        g.max_degree() as f64 / (2.0 * g.num_edges() as f64 / g.num_vertices() as f64)
    };
    assert!(avg(Dataset::Orkut) > avg(Dataset::LiveJournal));
    assert!(avg(Dataset::Orkut) > avg(Dataset::Yahoo));
    assert!(skew(Dataset::Yahoo) > skew(Dataset::LiveJournal));
    assert!(skew(Dataset::Twitter) > skew(Dataset::LiveJournal));
}
