//! Test-depth pass over the analytics kernels: every kernel is pinned
//! against an *independent* brute-force oracle on arbitrary random
//! graphs, instead of only hand-picked fixtures.
//!
//! * clustering coefficients — per-vertex neighbour-pair counting,
//!   no triangle listing involved;
//! * k-truss — a fixed-point "delete weak edges until stable" oracle,
//!   no peeling order shared with the implementation;
//! * DOULION — seeded concentration around the exact count, exactness
//!   at `p = 1`, and determinism.

use std::collections::BTreeSet;

use proptest::prelude::*;

use pdtl_analytics::{clustering, doulion, doulion_mean, ktruss};
use pdtl_graph::gen::classic::complete;
use pdtl_graph::verify::{triangle_count, triangle_list};
use pdtl_graph::Graph;

fn arb_graph(n: u32, m: usize) -> impl Strategy<Value = Graph> {
    prop::collection::vec((0..n, 0..n), 0..m)
        .prop_map(move |edges| Graph::from_edges(n, &edges).unwrap())
}

/// Brute-force triangles-at-vertex: count adjacent neighbour pairs.
fn brute_vertex_triangles(g: &Graph, v: u32) -> u64 {
    let nbrs = g.neighbors(v);
    let mut t = 0u64;
    for (i, &a) in nbrs.iter().enumerate() {
        for &b in &nbrs[i + 1..] {
            if g.has_edge(a, b) {
                t += 1;
            }
        }
    }
    t
}

/// Brute-force k-truss: delete edges supported by fewer than `k - 2`
/// triangles *within the surviving subgraph* until a fixed point.
fn brute_k_truss(g: &Graph, k: u32) -> Vec<(u32, u32)> {
    let mut adj: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); g.num_vertices() as usize];
    for (u, v) in g.edges() {
        adj[u as usize].insert(v);
        adj[v as usize].insert(u);
    }
    loop {
        let mut doomed = Vec::new();
        for u in 0..g.num_vertices() {
            for &v in adj[u as usize].iter().filter(|&&v| v > u) {
                let support = adj[u as usize].intersection(&adj[v as usize]).count() as u32;
                if support < k.saturating_sub(2) {
                    doomed.push((u, v));
                }
            }
        }
        if doomed.is_empty() {
            break;
        }
        for (u, v) in doomed {
            adj[u as usize].remove(&v);
            adj[v as usize].remove(&u);
        }
    }
    let mut edges = Vec::new();
    for u in 0..g.num_vertices() {
        for &v in adj[u as usize].iter().filter(|&&v| v > u) {
            edges.push((u, v));
        }
    }
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn clustering_matches_neighbour_pair_oracle(g in arb_graph(24, 140)) {
        let triples = triangle_list(&g);
        let counts = clustering::per_vertex_counts(g.num_vertices(), &triples);
        let locals = clustering::clustering_coefficients(&g, &triples);
        for v in 0..g.num_vertices() {
            let brute = brute_vertex_triangles(&g, v);
            prop_assert_eq!(counts[v as usize], brute);
            let d = g.degree(v) as u64;
            let expect = if d < 2 {
                0.0
            } else {
                2.0 * brute as f64 / (d * (d - 1)) as f64
            };
            prop_assert!(
                (locals[v as usize] - expect).abs() < 1e-12,
                "vertex {}: {} vs {}", v, locals[v as usize], expect
            );
            prop_assert!((0.0..=1.0).contains(&locals[v as usize]));
        }
        // Transitivity from first principles: 3T over wedge count.
        let wedges: u64 = (0..g.num_vertices())
            .map(|v| {
                let d = g.degree(v) as u64;
                d * d.saturating_sub(1) / 2
            })
            .sum();
        let t = clustering::transitivity(&g, triples.len() as u64);
        if wedges == 0 {
            prop_assert_eq!(t, 0.0);
        } else {
            prop_assert!((t - 3.0 * triples.len() as f64 / wedges as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn ktruss_matches_fixed_point_oracle(g in arb_graph(18, 90)) {
        let triples = triangle_list(&g);
        let td = ktruss::truss_decomposition(&g, &triples);
        // Every k from trivial to just past the maximum.
        for k in 2..=td.max_k() + 1 {
            prop_assert_eq!(td.truss_edges(k), brute_k_truss(&g, k));
        }
        // Trussness is total: every edge gets a value, and the 2-truss
        // is the whole graph.
        prop_assert_eq!(td.truss_edges(2).len() as u64, g.num_edges());
    }

    #[test]
    fn doulion_with_p_one_is_exact(g in arb_graph(24, 140), seed in 0u64..1000) {
        let approx = doulion(&g, 1.0, seed).unwrap();
        prop_assert_eq!(approx.estimate, triangle_count(&g) as f64);
        prop_assert_eq!(approx.kept_edges, g.num_edges());
    }
}

/// Seeded DOULION concentrates: on a dense graph the mean of many
/// trials lands close to the exact count, single trials are unbiased
/// enough to stay within a loose band, and the whole thing is
/// deterministic per seed.
#[test]
fn doulion_concentration_on_dense_graph() {
    let g = complete(24).unwrap();
    let exact = triangle_count(&g) as f64; // C(24,3) = 2024
    let mean = doulion_mean(&g, 0.5, 64, 7).unwrap();
    let rel = (mean - exact).abs() / exact;
    assert!(
        rel < 0.10,
        "64-trial mean {mean} strays {rel:.3} from exact {exact}"
    );
    // More trials concentrate at least as well as one (same seed base).
    let single = doulion(&g, 0.5, 7).unwrap().estimate;
    let rel_single = (single - exact).abs() / exact;
    assert!(
        rel <= rel_single + 0.05,
        "mean ({mean}) should not be wilder than one trial ({single})"
    );
    // Determinism: same seeds, same bits.
    assert_eq!(
        doulion_mean(&g, 0.5, 64, 7).unwrap().to_bits(),
        mean.to_bits()
    );
    // Different seeds genuinely resample.
    assert_ne!(
        doulion_mean(&g, 0.5, 64, 8).unwrap().to_bits(),
        mean.to_bits()
    );
}
