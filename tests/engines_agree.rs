//! Cross-crate integration: every engine in the workspace must report
//! the same exact triangle count on the same graphs.

use pdtl::baselines::{cttp, inmem, optlike, patric, powergraph};
use pdtl::cluster::{ClusterConfig, ClusterRunner};
use pdtl::core::{count_triangles_with, BalanceStrategy, LocalConfig, MgtOptions};
use pdtl::graph::datasets::Dataset;
use pdtl::graph::verify::triangle_count;
use pdtl::graph::{DiskGraph, Graph};
use pdtl::io::{Codec, IoStats, MemoryBudget};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("pdtl-integration")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn every_engine_count(g: &Graph, tag: &str) -> Vec<(&'static str, u64)> {
    let mut results = Vec::new();

    // PDTL local and distributed, under every on-disk codec
    let stats = IoStats::new();
    let input = DiskGraph::write(g, tmpdir(tag).join("g"), &stats).unwrap();
    for codec in Codec::ALL {
        let mgt = MgtOptions {
            codec,
            ..Default::default()
        };
        for (cores, budget) in [(1usize, 1usize << 20), (3, 512)] {
            let r = count_triangles_with(
                g,
                LocalConfig {
                    cores,
                    budget: MemoryBudget::edges(budget),
                    balance: BalanceStrategy::InDegree,
                    mgt,
                },
            )
            .unwrap();
            results.push(("pdtl-local", r.triangles));
        }

        let cr = ClusterRunner::new(ClusterConfig {
            nodes: 2,
            cores_per_node: 2,
            budget: MemoryBudget::edges(1024),
            mgt,
            ..Default::default()
        })
        .unwrap()
        .run(&input, &tmpdir(&format!("{tag}-cluster-{codec}")))
        .unwrap();
        results.push(("pdtl-cluster", cr.triangles));
    }

    // in-memory references
    results.push(("node-iterator", inmem::node_iterator(g)));
    results.push(("edge-iterator", inmem::edge_iterator(g)));
    results.push(("forward", inmem::forward(g)));

    // OPT-like
    let ostats = IoStats::new();
    let db = optlike::create_database(&input, &tmpdir(&format!("{tag}-opt")).join("db"), &ostats)
        .unwrap();
    let opt = optlike::count(&db, 2, MemoryBudget::edges(1 << 20), &ostats).unwrap();
    results.push(("opt-like", opt.triangles));
    let opt_ooc = optlike::count(&db, 1, MemoryBudget::edges(32), &ostats).unwrap();
    results.push(("opt-like-ooc", opt_ooc.triangles));

    // PATRIC-like
    let pr = patric::run(
        g,
        patric::PatricConfig {
            processors: 3,
            memory_bytes: u64::MAX,
            balance: patric::PatricBalance::ByDegreeSum,
        },
    )
    .unwrap();
    results.push(("patric-like", pr.triangles));

    // PowerGraph-like
    let pg = powergraph::triangle_count(
        g,
        powergraph::PowerGraphConfig {
            machines: 3,
            memory_bytes: u64::MAX,
            cut: powergraph::VertexCut::Greedy,
            seed: 1,
        },
    )
    .unwrap();
    results.push(("powergraph-like", pg.triangles));

    // CTTP-like
    let ct = cttp::run(
        g,
        cttp::CttpConfig {
            rho: 3,
            reducers: 2,
        },
    )
    .unwrap();
    results.push(("cttp-like", ct.triangles));

    results
}

#[test]
fn all_engines_agree_on_rmat() {
    let g = Dataset::Rmat(7).build().unwrap();
    let expected = triangle_count(&g);
    assert!(expected > 0);
    for (name, got) in every_engine_count(&g, "rmat") {
        assert_eq!(got, expected, "{name} disagrees with the oracle");
    }
}

#[test]
fn all_engines_agree_on_powerlaw_standin() {
    let g = Dataset::Yahoo.build_scaled(0.02).unwrap();
    let expected = triangle_count(&g);
    for (name, got) in every_engine_count(&g, "yahoo") {
        assert_eq!(got, expected, "{name} disagrees with the oracle");
    }
}

#[test]
fn all_engines_agree_on_dense_graph() {
    let g = pdtl::graph::gen::classic::complete(24).unwrap();
    let expected = 24 * 23 * 22 / 6;
    for (name, got) in every_engine_count(&g, "k24") {
        assert_eq!(got, expected, "{name} disagrees on K24");
    }
}

#[test]
fn listing_engines_agree_on_the_triangle_set() {
    let g = Dataset::Rmat(6).build().unwrap();
    let mut expected = pdtl::graph::verify::triangle_list(&g);
    expected.sort_unstable();

    let stats = IoStats::new();
    let input = DiskGraph::write(&g, tmpdir("listset").join("g"), &stats).unwrap();
    let cr = ClusterRunner::new(ClusterConfig {
        nodes: 2,
        cores_per_node: 2,
        budget: MemoryBudget::edges(256),
        listing: true,
        ..Default::default()
    })
    .unwrap()
    .run(&input, &tmpdir("listset-run"))
    .unwrap();
    let mut got: Vec<(u32, u32, u32)> = cr
        .listed
        .unwrap()
        .into_iter()
        .map(|(a, b, c)| {
            let mut t = [a, b, c];
            t.sort_unstable();
            (t[0], t[1], t[2])
        })
        .collect();
    got.sort_unstable();
    assert_eq!(got, expected);
}
