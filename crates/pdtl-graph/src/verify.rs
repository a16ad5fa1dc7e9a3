//! Brute-force triangle oracles.
//!
//! Every engine in the workspace — the MGT core, the distributed runner,
//! each baseline — is tested against these reference implementations.
//! [`triangle_count`] / [`triangle_list`] use the standard edge-iterator
//! with sorted-intersection (`O(Σ_e min(d(u), d(v)))`, fine up to millions
//! of edges); [`triangle_count_cubic`] is an independent `O(n³)`
//! implementation used to cross-check the oracle itself on tiny graphs.

use crate::csr::Graph;

/// Count triangles by intersecting neighbour lists along each edge
/// `(u, v)` with `u < v`, counting common neighbours `w > v`. Each
/// triangle `{u, v, w}` with `u < v < w` is found exactly once, at its
/// smallest edge.
pub fn triangle_count(g: &Graph) -> u64 {
    let mut count = 0u64;
    for (u, v) in g.edges() {
        count += intersect_above(g.neighbors(u), g.neighbors(v), v);
    }
    count
}

/// List all triangles as id-ordered triples `(u, v, w)`, `u < v < w`.
pub fn triangle_list(g: &Graph) -> Vec<(u32, u32, u32)> {
    let mut out = Vec::new();
    for (u, v) in g.edges() {
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (g.neighbors(u), g.neighbors(v));
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if a[i] > v {
                        out.push((u, v, a[i]));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    out
}

/// Count common elements of two sorted slices that exceed `floor`.
fn intersect_above(a: &[u32], b: &[u32], floor: u32) -> u64 {
    let (mut i, mut j) = (0usize, 0usize);
    let mut count = 0u64;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if a[i] > floor {
                    count += 1;
                }
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Independent `O(n³)` counter for cross-checking on tiny graphs.
pub fn triangle_count_cubic(g: &Graph) -> u64 {
    let n = g.num_vertices();
    let mut count = 0u64;
    for u in 0..n {
        for v in (u + 1)..n {
            if !g.has_edge(u, v) {
                continue;
            }
            for w in (v + 1)..n {
                if g.has_edge(u, w) && g.has_edge(v, w) {
                    count += 1;
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::classic::{complete, cycle, grid, wheel};
    use crate::gen::rmat::rmat;

    #[test]
    fn oracle_matches_cubic_on_fixtures() {
        for g in [
            complete(7).unwrap(),
            cycle(9).unwrap(),
            wheel(8).unwrap(),
            grid(4, 5).unwrap(),
        ] {
            assert_eq!(triangle_count(&g), triangle_count_cubic(&g));
        }
    }

    #[test]
    fn oracle_matches_cubic_on_random() {
        for seed in 0..5 {
            let g = crate::gen::classic::erdos_renyi(30, 120, seed).unwrap();
            assert_eq!(triangle_count(&g), triangle_count_cubic(&g), "seed {seed}");
        }
    }

    #[test]
    fn list_is_consistent_with_count() {
        let g = rmat(7, 2).unwrap();
        let list = triangle_list(&g);
        assert_eq!(list.len() as u64, triangle_count(&g));
    }

    #[test]
    fn list_triples_are_ordered_unique_triangles() {
        let g = complete(6).unwrap();
        let list = triangle_list(&g);
        assert_eq!(list.len(), 20); // C(6,3)
        let mut seen = std::collections::HashSet::new();
        for &(u, v, w) in &list {
            assert!(u < v && v < w);
            assert!(g.has_edge(u, v) && g.has_edge(v, w) && g.has_edge(u, w));
            assert!(seen.insert((u, v, w)), "duplicate {u},{v},{w}");
        }
    }

    #[test]
    fn arboricity_bound_holds() {
        // T <= (1/3) * Σ min(d(u), d(v)) — Theorem III.4 discussion.
        for seed in 0..3 {
            let g = rmat(7, seed).unwrap();
            assert!(3 * triangle_count(&g) <= g.min_degree_sum());
        }
    }
}
