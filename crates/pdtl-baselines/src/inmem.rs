//! Textbook in-memory triangle counters.
//!
//! Three classical algorithms, sequential and multicore, used as
//! correctness anchors and as the compute kernel of the OPT-like and
//! PowerGraph-like systems:
//!
//! * **node-iterator** — per vertex, test every neighbour pair; counts
//!   each triangle three times.
//! * **edge-iterator** — per edge, intersect endpoint lists; also 3×.
//! * **compact-forward** — intersect *oriented* out-lists along oriented
//!   edges; finds each triangle exactly once and is the asymptotically
//!   optimal `O(α|E|)` in-memory method (the same ordering idea MGT
//!   externalises).

use pdtl_core::intersect::intersect_count;
use pdtl_core::orient::{orient_csr, OrientedCsr};
use pdtl_core::par;
use pdtl_graph::Graph;

/// Node-iterator: for each vertex `v` and each neighbour pair
/// `u < w ∈ N(v)`, test edge `{u, w}`. Every triangle is seen from each
/// of its three corners.
pub fn node_iterator(g: &Graph) -> u64 {
    let mut triple_counted = 0u64;
    for v in 0..g.num_vertices() {
        let ns = g.neighbors(v);
        for (i, &u) in ns.iter().enumerate() {
            for &w in &ns[i + 1..] {
                if g.has_edge(u, w) {
                    triple_counted += 1;
                }
            }
        }
    }
    debug_assert_eq!(triple_counted % 3, 0);
    triple_counted / 3
}

/// Edge-iterator: `Σ_{(u,v) ∈ E} |N(u) ∩ N(v)| / 3`.
pub fn edge_iterator(g: &Graph) -> u64 {
    let mut triple_counted = 0u64;
    for (u, v) in g.edges() {
        triple_counted += intersect_count(g.neighbors(u), g.neighbors(v));
    }
    debug_assert_eq!(triple_counted % 3, 0);
    triple_counted / 3
}

/// Compact-forward over a prebuilt orientation: exact, each triangle
/// once.
pub fn forward_oriented(o: &OrientedCsr) -> u64 {
    let mut count = 0u64;
    for u in 0..o.num_vertices() {
        for &v in o.out(u) {
            count += intersect_count(o.out(u), o.out(v));
        }
    }
    count
}

/// Compact-forward from an undirected graph (orients internally).
pub fn forward(g: &Graph) -> u64 {
    forward_oriented(&orient_csr(g))
}

/// Multicore compact-forward: one contiguous vertex range per host
/// thread, the per-range counts summed. Deterministic result.
pub fn forward_parallel(o: &OrientedCsr) -> u64 {
    let at = |u: usize| -> u64 {
        let out_u = o.out(u as u32);
        out_u
            .iter()
            .map(|&v| intersect_count(out_u, o.out(v)))
            .sum()
    };
    let n = o.num_vertices() as usize;
    par::map_chunks(n, par::host_threads(), |us| us.map(at).sum::<u64>())
        .into_iter()
        .sum()
}

/// Multicore edge-iterator (3× counting, divided once).
pub fn edge_iterator_parallel(g: &Graph) -> u64 {
    let at = |u: usize| -> u64 {
        let ns = g.neighbors(u as u32);
        ns.iter()
            .filter(|&&v| (u as u32) < v)
            .map(|&v| intersect_count(ns, g.neighbors(v)))
            .sum()
    };
    let n = g.num_vertices() as usize;
    let triple: u64 = par::map_chunks(n, par::host_threads(), |us| us.map(at).sum::<u64>())
        .into_iter()
        .sum();
    debug_assert_eq!(triple % 3, 0);
    triple / 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdtl_graph::gen::classic::{complete, cycle, grid, wheel};
    use pdtl_graph::gen::rmat::rmat;
    use pdtl_graph::verify::triangle_count;

    fn all_counters(g: &Graph) -> Vec<(&'static str, u64)> {
        let o = orient_csr(g);
        vec![
            ("node_iterator", node_iterator(g)),
            ("edge_iterator", edge_iterator(g)),
            ("forward", forward(g)),
            ("forward_parallel", forward_parallel(&o)),
            ("edge_iterator_parallel", edge_iterator_parallel(g)),
        ]
    }

    #[test]
    fn all_agree_on_fixtures() {
        for g in [
            complete(9).unwrap(),
            cycle(10).unwrap(),
            wheel(11).unwrap(),
            grid(4, 7).unwrap(),
        ] {
            let expected = triangle_count(&g);
            for (name, got) in all_counters(&g) {
                assert_eq!(got, expected, "{name}");
            }
        }
    }

    #[test]
    fn all_agree_on_rmat() {
        for seed in [61, 62, 63] {
            let g = rmat(7, seed).unwrap();
            let expected = triangle_count(&g);
            for (name, got) in all_counters(&g) {
                assert_eq!(got, expected, "{name} seed {seed}");
            }
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = Graph::empty(5);
        for (name, got) in all_counters(&g) {
            assert_eq!(got, 0, "{name}");
        }
        let g = complete(3).unwrap();
        for (name, got) in all_counters(&g) {
            assert_eq!(got, 1, "{name}");
        }
    }
}
