//! Textbook in-memory triangle counters.
//!
//! Three classical algorithms, used as correctness anchors and as the
//! compute kernel of the OPT-like and PowerGraph-like systems:
//!
//! * **node-iterator** — per vertex, test every neighbour pair; counts
//!   each triangle three times.
//! * **edge-iterator** — per edge, intersect endpoint lists; also 3×.
//! * **compact-forward** — intersect *oriented* out-lists along oriented
//!   edges; finds each triangle exactly once and is the asymptotically
//!   optimal `O(α|E|)` in-memory method (the same ordering idea MGT
//!   externalises). It intersects by marking `N⁺(u)` in an `n`-byte
//!   array and probing each `w ∈ N⁺(v)` (Chiba–Nishizeki), not by
//!   merging (RMAT-17, one core: `graph.oracle_s` 0.23–0.33 s, and
//!   0.33–0.39 s when it marked bits; 1.45 s for the scalar merge).
//!   The loop is its own, not `pdtl_core::mgt`'s, so the
//!   benchmark's oracle shares no code with the engine.

use std::ops::Range;

use pdtl_core::intersect::intersect_count;
use pdtl_core::orient::{orient_csr, OrientedCsr};
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
    forward_range(o, 0..o.num_vertices() as usize)
}

/// Compact-forward from an undirected graph (orients internally).
pub fn forward(g: &Graph) -> u64 {
    forward_oriented(&orient_csr(g))
}

/// The triangles whose cone vertex lies in `us`: mark `N⁺(u)` in an
/// `n`-byte array, sum the mark bytes under every `w ∈ N⁺(v)` for each
/// `v ∈ N⁺(u)` (four independent sums, so the loads do not wait on one
/// add chain), clear the marks.
fn forward_range(o: &OrientedCsr, us: Range<usize>) -> u64 {
    let mut marks = vec![0u8; o.num_vertices() as usize];
    let mut count = 0u64;
    for u in us {
        let out_u = o.out(u as u32);
        for &w in out_u {
            marks[w as usize] = 1;
        }
        for &v in out_u {
            let out_v = o.out(v);
            let (mut a, mut b, mut c, mut d) = (0u32, 0u32, 0u32, 0u32);
            let mut quads = out_v.chunks_exact(4);
            for q in &mut quads {
                a += u32::from(marks[q[0] as usize]);
                b += u32::from(marks[q[1] as usize]);
                c += u32::from(marks[q[2] as usize]);
                d += u32::from(marks[q[3] as usize]);
            }
            for &w in quads.remainder() {
                a += u32::from(marks[w as usize]);
            }
            count += u64::from(a) + u64::from(b) + u64::from(c) + u64::from(d);
        }
        for &w in out_u {
            marks[w as usize] = 0;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdtl_graph::gen::classic::{complete, cycle, grid, wheel};
    use pdtl_graph::gen::rmat::rmat;
    use pdtl_graph::verify::triangle_count;

    fn all_counters(g: &Graph) -> Vec<(&'static str, u64)> {
        vec![
            ("node_iterator", node_iterator(g)),
            ("edge_iterator", edge_iterator(g)),
            ("forward", forward(g)),
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
