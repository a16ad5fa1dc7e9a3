//! Property tests of the distributed runner: arbitrary graphs, cluster
//! shapes and budgets must all produce the oracle's count with exactly
//! partitioned work.

use proptest::prelude::*;

use pdtl::cluster::{ClusterConfig, ClusterRunner};
use pdtl::core::orient::orient_to_disk_with;
use pdtl::core::{BalanceStrategy, MgtOptions};
use pdtl::graph::verify::triangle_count;
use pdtl::graph::{DiskGraph, Graph};
use pdtl::io::{Codec, IoStats, MemoryBudget};

fn arb_graph(n: u32, m: usize) -> impl Strategy<Value = Graph> {
    prop::collection::vec((0..n, 0..n), 0..m)
        .prop_map(move |edges| Graph::from_edges(n, &edges).unwrap())
}

fn tmpdir(case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("pdtl-cluster-props")
        .join(format!("{}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cluster_count_matches_oracle(
        g in arb_graph(40, 250),
        nodes in 1usize..4,
        cores in 1usize..4,
        budget in 4usize..2048,
        balanced in any::<bool>(),
        compressed in any::<bool>(),
        case in any::<u64>(),
    ) {
        let expected = triangle_count(&g);
        let codec = if compressed { Codec::DeltaVarint } else { Codec::Raw };
        let dir = tmpdir(case);
        let stats = IoStats::new();
        let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
        let report = ClusterRunner::new(ClusterConfig {
            nodes,
            cores_per_node: cores,
            budget: MemoryBudget::edges(budget),
            balance: if balanced {
                BalanceStrategy::InDegree
            } else {
                BalanceStrategy::EqualEdges
            },
            mgt: MgtOptions {
                codec,
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap()
        .run(&input, &dir)
        .unwrap();

        prop_assert_eq!(report.triangles, expected);
        prop_assert_eq!(report.node_triangle_sum(), expected);
        // every worker's range accounted for, covering |E*| exactly
        let covered: u64 = report
            .nodes
            .iter()
            .flat_map(|n| n.workers.iter())
            .map(|w| w.end - w.start)
            .sum();
        prop_assert_eq!(covered, g.num_edges());
        // replication traffic is exactly (N-1) * oriented size. What
        // one replica weighs depends on the codec — raw is exactly
        // (|E| + 4n) * 4 (adjacency + degrees + rank map + scan
        // sketches); delta-varint ships the compressed adjacency plus the
        // .hdr/.vix sidecars — so orient the same input once and
        // measure the file set the runner ships.
        let (oracle, _) =
            orient_to_disk_with(&input, dir.join("oracle-or"), 2, codec, &stats).unwrap();
        let replica_bytes: u64 = oracle
            .disk
            .file_set()
            .iter()
            .map(|p| std::fs::metadata(p).unwrap().len())
            .sum();
        let mft_bytes = std::fs::metadata(oracle.disk.mft_path()).unwrap().len();
        if codec == Codec::Raw {
            prop_assert_eq!(
                replica_bytes,
                (g.num_edges() + 4 * g.num_vertices() as u64) * 4 + mft_bytes
            );
        }
        prop_assert_eq!(report.network.graph, (nodes as u64 - 1) * replica_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn listing_mode_streams_every_triangle(
        g in arb_graph(24, 120),
        compressed in any::<bool>(),
        case in any::<u64>(),
    ) {
        let codec = if compressed { Codec::DeltaVarint } else { Codec::Raw };
        let dir = tmpdir(case.wrapping_add(1));
        let stats = IoStats::new();
        let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
        let report = ClusterRunner::new(ClusterConfig {
            nodes: 2,
            cores_per_node: 2,
            budget: MemoryBudget::edges(64),
            listing: true,
            mgt: MgtOptions {
                codec,
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap()
        .run(&input, &dir)
        .unwrap();
        let listed = report.listed.as_ref().unwrap();
        prop_assert_eq!(listed.len() as u64, triangle_count(&g));
        // triangle traffic matches the Θ(T) term: 12 bytes per triple
        prop_assert!(report.network.triangles >= listed.len() as u64 * 12);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
