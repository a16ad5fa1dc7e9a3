//! Measured-vs-proven: counted work must stay within a constant of the
//! paper's Theorem IV.2 / IV.3 bounds.

use pdtl::cluster::{ClusterConfig, ClusterRunner};
use pdtl::core::{count_triangles_with, orient_to_disk, theory, BalanceStrategy, LocalConfig};
use pdtl::graph::datasets::Dataset;
use pdtl::graph::DiskGraph;
use pdtl::io::{Codec, IoStats, MemoryBudget};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("pdtl-bounds")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn mgt_io_within_theorem_iv2() {
    let g = Dataset::Rmat(8).build().unwrap();
    let m = g.num_edges();
    // One core holds c*M = M/2 edges: 1 Mi edges hold G* (a resident
    // run, which reads nothing), 2m - 2 is one edge short of it and the
    // largest budget that still streams G* from disk.
    for mem in [1usize << 20, 2 * m as usize - 2, 2048, 256] {
        let report = count_triangles_with(
            &g,
            LocalConfig {
                cores: 1,
                budget: MemoryBudget::edges(mem),
                balance: BalanceStrategy::InDegree,
                ..Default::default()
            },
        )
        .unwrap();
        let measured = report.total_worker_io().bytes_read;
        assert_eq!(report.oriented_base.is_none(), mem == 1 << 20, "mem {mem}");
        assert_eq!(measured == 0, mem == 1 << 20, "mem {mem}");
        // chunk loader fills c*M with c = 1/2
        let bound = theory::mgt_io_bound_bytes(m, (mem / 2) as u64, 0);
        assert!(
            measured <= 4 * bound + 1024,
            "mem {mem}: measured {measured} > 4x bound {bound}"
        );
    }
}

#[test]
fn mgt_cpu_within_theorem_iv2() {
    let g = Dataset::Rmat(8).build().unwrap();
    let m = g.num_edges();
    let alpha = theory::arboricity_upper_bound(m);
    for mem in [1usize << 20, 1024] {
        let report = count_triangles_with(
            &g,
            LocalConfig {
                cores: 1,
                budget: MemoryBudget::edges(mem),
                balance: BalanceStrategy::InDegree,
                ..Default::default()
            },
        )
        .unwrap();
        let measured = report.total_cpu_ops();
        let bound = theory::mgt_cpu_bound_ops(m, (mem / 2) as u64, alpha);
        assert!(
            measured <= 8 * bound,
            "mem {mem}: measured {measured} > 8x bound {bound}"
        );
    }
}

#[test]
fn iterations_match_formula() {
    // R = ceil(S / cM) per range (Section IV-B2).
    let g = Dataset::Rmat(8).build().unwrap();
    let mem = 2048usize;
    let report = count_triangles_with(
        &g,
        LocalConfig {
            cores: 3,
            budget: MemoryBudget::edges(mem),
            balance: BalanceStrategy::EqualEdges,
            ..Default::default()
        },
    )
    .unwrap();
    for (i, r) in report.ranges.iter().enumerate() {
        let expected = MemoryBudget::edges(mem).iterations_for(r.range.len());
        assert_eq!(r.iterations, expected, "range {i}");
    }
    assert_eq!(report.ranges.len(), 3 * pdtl::core::RANGES_PER_CORE);
}

#[test]
fn cluster_network_within_theorem_iv3() {
    let g = Dataset::Rmat(7).build().unwrap();
    let stats = IoStats::new();
    let input = DiskGraph::write(&g, tmpdir("net").join("g"), &stats).unwrap();
    // What one replica weighs depends on the on-disk codec (raw:
    // exactly (|E| + 4n) * 4 for adjacency + degrees + rank map +
    // scan sketches; delta-varint: the compressed adjacency plus the
    // .hdr/.vix sidecars), so orient the same input once under the
    // session default and measure the file set the runner will ship.
    // Every replica also carries the constant-size integrity manifest.
    let (oracle, _) = orient_to_disk(&input, tmpdir("net-oracle").join("o"), 2, &stats).unwrap();
    let replica_bytes: u64 = oracle
        .disk
        .file_set()
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum();
    let mft_bytes = std::fs::metadata(oracle.disk.mft_path()).unwrap().len();
    if oracle.disk.codec() == Codec::Raw {
        assert_eq!(
            replica_bytes,
            (g.num_edges() + 4 * g.num_vertices() as u64) * 4 + mft_bytes,
            "raw replica: |E| adjacency + n degrees + n rank map + 2n sketch words + manifest"
        );
    } else {
        assert!(
            replica_bytes < (g.num_edges() + 4 * g.num_vertices() as u64) * 4 + mft_bytes,
            "a compressed replica must ship fewer bytes than raw"
        );
    }
    for (nodes, cores, listing) in [(2usize, 2usize, false), (4, 2, false), (2, 2, true)] {
        let report = ClusterRunner::new(ClusterConfig {
            nodes,
            cores_per_node: cores,
            budget: MemoryBudget::edges(512),
            listing,
            ..Default::default()
        })
        .unwrap()
        .run(&input, &tmpdir(&format!("net-{nodes}-{cores}-{listing}")))
        .unwrap();
        let t_term = if listing { report.triangles } else { 0 };
        let bound =
            theory::pdtl_network_bound_bytes(nodes as u64, cores as u64, g.num_edges(), t_term);
        assert!(
            report.network.total() <= 4 * bound,
            "{nodes}x{cores} listing={listing}: {} > 4x {bound}",
            report.network.total()
        );
        // and the graph-replication term alone matches Θ((N-1)|E*|):
        // every worker node past the master receives one full copy of
        // the oriented file set measured above.
        assert_eq!(report.network.graph, (nodes as u64 - 1) * replica_bytes);
    }
}

#[test]
fn memory_budget_does_not_change_the_answer_only_the_io() {
    // Figure 5's point, as an invariant.
    let g = Dataset::Twitter.build_scaled(0.03).unwrap();
    let run = |edges: usize| {
        count_triangles_with(
            &g,
            LocalConfig {
                cores: 2,
                budget: MemoryBudget::edges(edges),
                balance: BalanceStrategy::InDegree,
                ..Default::default()
            },
        )
        .unwrap()
    };
    // Two streamed runs: 2 cores hold c*M = M/2 edges each, so a budget
    // below |E*| = |E| leaves G* on disk.
    let m = g.num_edges() as usize;
    let (big, small) = (run(m / 2), run(256));
    assert!(big.oriented_base.is_some() && small.oriented_base.is_some());
    assert_eq!(big.triangles, small.triangles);
    assert!(
        small.total_worker_io().bytes_read > big.total_worker_io().bytes_read,
        "smaller memory must cost more I/O"
    );
    // A budget that holds G* joins in memory: same answer, no I/O.
    let resident = run(1 << 20);
    assert!(resident.oriented_base.is_none(), "1 Mi edges hold G*");
    assert_eq!(resident.triangles, small.triangles);
    assert_eq!(resident.total_worker_io().total_bytes(), 0);
}

#[test]
fn ordering_lemma_on_all_standins() {
    // Theorem IV.1's inequality on every dataset stand-in.
    for ds in Dataset::real_graphs() {
        let g = ds.build_scaled(0.02).unwrap();
        let o = pdtl::core::orient::orient_csr(&g);
        let d_star: Vec<u32> = (0..o.num_vertices()).map(|v| o.d_star(v)).collect();
        let lhs = theory::ordering_sum(&o.orig_degrees, &d_star);
        assert!(lhs <= g.min_degree_sum(), "{}", ds.name());
    }
}
