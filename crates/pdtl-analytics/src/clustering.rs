//! Clustering coefficients and the transitivity ratio.
//!
//! Both metrics are pure functions of per-vertex triangle counts and
//! degrees (Watts–Strogatz \[24\]; Opsahl–Panzarasa \[18\]):
//!
//! * local coefficient: `C(v) = 2·T(v) / (d(v)·(d(v)−1))`;
//! * global (average) clustering: mean of `C(v)` over `d(v) ≥ 2`;
//! * transitivity: `3·T / Σ_v C(d(v), 2)` — closed triplets over all
//!   triplets.
//!
//! The per-vertex counts come from any triangle listing: these
//! functions consume the `(u, v, w)` triples PDTL emits as a slice, or
//! the engine counts them itself into one [`VertexCountSink`] per
//! worker, which lends the join `n` rank-indexed counters and never
//! holds a triple.

use pdtl_core::sink::TriangleSink;
use pdtl_graph::{Graph, RankMap};

/// Summary of a clustering analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringReport {
    /// `C(v)` per vertex (0 for degree < 2).
    pub local: Vec<f64>,
    /// Average clustering coefficient over vertices with degree >= 2.
    pub global: f64,
    /// Transitivity ratio `3T / #open-or-closed-triplets`.
    pub transitivity: f64,
    /// Total triangles.
    pub triangles: u64,
}

/// Per-vertex triangle counts of one engine worker, counted in the
/// join: the sink lends its `n` counters by rank
/// ([`TriangleSink::vertex_counts`]), so the engine adds each triangle
/// to its three vertices without producing it, and [`merge`](Self::merge)
/// translates the run's sum to ids once.
#[derive(Debug, Clone)]
pub struct VertexCountSink(Vec<u64>);

/// Set on a counter [`VertexCountSink::merge`] has already moved to its
/// id. No vertex lies on `2⁶³` triangles, so the bit is free.
const MOVED: u64 = 1 << 63;

impl VertexCountSink {
    /// Zeroed counters for ranks `0..n`.
    pub fn new(n: u32) -> Self {
        Self(vec![0; n as usize])
    }

    /// The per-vertex counts of a run over the graph ranked by `map`,
    /// indexed by id: the workers' rank-indexed counters summed into the
    /// first one's, then moved to id order in place, cycle by cycle of
    /// the permutation (zeros when no worker ran). No second `n`-vector
    /// is held beside the workers' counters.
    pub fn merge(map: &RankMap, sinks: Vec<VertexCountSink>) -> Vec<u64> {
        let mut sinks = sinks.into_iter();
        let Some(VertexCountSink(mut counts)) = sinks.next() else {
            return vec![0; map.len() as usize];
        };
        for s in sinks {
            counts.iter_mut().zip(s.0).for_each(|(c, x)| *c += x);
        }
        let ids = map.ids();
        for start in 0..counts.len() {
            if counts[start] & MOVED != 0 {
                continue;
            }
            // Carry rank `r`'s count to its id, pick up the count that
            // sat there, and go on until the cycle closes at `start`.
            let (mut r, mut carried) = (start, counts[start]);
            loop {
                let id = ids[r] as usize;
                let next = std::mem::replace(&mut counts[id], carried | MOVED);
                if id == start {
                    break;
                }
                (r, carried) = (id, next);
            }
        }
        counts.iter_mut().for_each(|c| *c &= !MOVED);
        counts
    }
}

impl TriangleSink for VertexCountSink {
    #[inline(always)]
    fn vertex_counts(&mut self) -> Option<&mut [u64]> {
        Some(&mut self.0)
    }

    /// Never called: the engine counts into the lent counters.
    fn emit(&mut self, u: u32, v: u32, w: u32) {
        unreachable!("({u}, {v}, {w}) emitted to a sink that lends its counters")
    }
}

/// Accumulate per-vertex triangle counts from listed triples.
pub fn per_vertex_counts(n: u32, triangles: &[(u32, u32, u32)]) -> Vec<u64> {
    let mut counts = vec![0; n as usize];
    for &(u, v, w) in triangles {
        counts[u as usize] += 1;
        counts[v as usize] += 1;
        counts[w as usize] += 1;
    }
    counts
}

/// Local clustering coefficients from a triangle listing.
pub fn clustering_coefficients(g: &Graph, triangles: &[(u32, u32, u32)]) -> Vec<f64> {
    local_from_counts(g, &per_vertex_counts(g.num_vertices(), triangles))
}

/// `C(v)` of a vertex of degree `d` on `t` triangles (0 below degree 2).
fn local(d: u32, t: u64) -> f64 {
    let d = u64::from(d);
    if d < 2 {
        0.0
    } else {
        2.0 * t as f64 / (d * (d - 1)) as f64
    }
}

/// Local clustering coefficients from per-vertex triangle counts.
pub fn local_from_counts(g: &Graph, counts: &[u64]) -> Vec<f64> {
    (0..g.num_vertices())
        .map(|v| local(g.degree(v), counts[v as usize]))
        .collect()
}

/// Average clustering coefficient over vertices of degree >= 2.
pub fn global_clustering(g: &Graph, triangles: &[(u32, u32, u32)]) -> f64 {
    global_from_counts(g, &per_vertex_counts(g.num_vertices(), triangles))
}

/// Average clustering coefficient from per-vertex triangle counts.
pub fn global_from_counts(g: &Graph, counts: &[u64]) -> f64 {
    global_from_degrees(&g.degrees(), counts)
}

/// Average clustering coefficient from per-vertex triangle counts and
/// the degrees they belong to, both indexed by vertex id: the
/// coefficients of the vertices of degree >= 2 summed in id order, so
/// a caller holding only the degrees gets [`global_from_counts`]'s
/// bits.
pub fn global_from_degrees(degrees: &[u32], counts: &[u64]) -> f64 {
    let eligible = || degrees.iter().zip(counts).filter(|&(&d, _)| d >= 2);
    let n = eligible().count();
    if n == 0 {
        0.0
    } else {
        eligible().map(|(&d, &t)| local(d, t)).sum::<f64>() / n as f64
    }
}

/// Transitivity ratio: `3T / Σ_v C(d(v), 2)`.
pub fn transitivity(g: &Graph, triangle_count: u64) -> f64 {
    transitivity_from_triplets(triplets(&g.degrees()), triangle_count)
}

/// `Σ_v C(d(v), 2)`: the connected triplets (paths of length two) of a
/// graph with these degrees.
pub fn triplets(degrees: &[u32]) -> u64 {
    (degrees.iter())
        .map(|&d| u64::from(d) * u64::from(d).saturating_sub(1) / 2)
        .sum()
}

/// Transitivity ratio `3T / triplets`, with [`triplets`] taken once.
pub fn transitivity_from_triplets(triplets: u64, triangle_count: u64) -> f64 {
    if triplets == 0 {
        0.0
    } else {
        3.0 * triangle_count as f64 / triplets as f64
    }
}

/// Run the full clustering analysis from a listing.
pub fn analyze(g: &Graph, triangles: &[(u32, u32, u32)]) -> ClusteringReport {
    ClusteringReport {
        local: clustering_coefficients(g, triangles),
        global: global_clustering(g, triangles),
        transitivity: transitivity(g, triangles.len() as u64),
        triangles: triangles.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdtl_graph::gen::classic::{complete, cycle, star, wheel};
    use pdtl_graph::verify::triangle_list;

    #[test]
    fn complete_graph_is_fully_clustered() {
        let g = complete(6).unwrap();
        let r = analyze(&g, &triangle_list(&g));
        assert!(r.local.iter().all(|&c| (c - 1.0).abs() < 1e-12));
        assert!((r.global - 1.0).abs() < 1e-12);
        assert!((r.transitivity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn triangle_free_graphs_are_zero() {
        for g in [cycle(8).unwrap(), star(9).unwrap()] {
            let r = analyze(&g, &triangle_list(&g));
            assert!(r.local.iter().all(|&c| c == 0.0));
            assert_eq!(r.global, 0.0);
            assert_eq!(r.transitivity, 0.0);
        }
    }

    #[test]
    fn wheel_hub_less_clustered_than_rim() {
        // Hub sees n-1 triangles over C(n-1, 2) pairs; each rim vertex
        // sees 2 triangles over C(3,2) = 3 pairs.
        let g = wheel(8).unwrap();
        let r = analyze(&g, &triangle_list(&g));
        let hub = r.local[0];
        let rim = r.local[1];
        assert!((rim - 2.0 / 3.0).abs() < 1e-12, "rim {rim}");
        assert!((hub - 7.0 / 21.0).abs() < 1e-12, "hub {hub}");
        assert!(rim > hub);
    }

    #[test]
    fn transitivity_matches_closed_form_on_wheel() {
        let g = wheel(8).unwrap();
        let t = triangle_list(&g).len() as u64;
        // 7 rim vertices with d=3 (3 triplets each) + hub d=7 (21)
        let triplets = 7 * 3 + 21;
        assert!((transitivity(&g, t) - 3.0 * t as f64 / triplets as f64).abs() < 1e-12);
    }

    #[test]
    fn degree_below_two_excluded_from_global() {
        // path of 2 + triangle: only triangle vertices count.
        let g = Graph::from_edges(5, &[(0, 1), (2, 3), (3, 4), (4, 2)]).unwrap();
        let r = analyze(&g, &triangle_list(&g));
        assert!((r.global - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worker_sinks_merge_to_the_listing_counts() {
        use pdtl_core::mgt::mgt_in_memory;
        use pdtl_core::orient::orient_csr;
        use pdtl_io::MemoryBudget;
        for g in [
            wheel(8).unwrap(),
            pdtl_graph::gen::rmat::rmat(8, 5).unwrap(),
        ] {
            let list = triangle_list(&g);
            let want = per_vertex_counts(g.num_vertices(), &list);
            let o = orient_csr(&g);
            for edges in [2usize, 64, 1 << 20] {
                let mut sink = VertexCountSink::new(g.num_vertices());
                let (t, _) = mgt_in_memory(&o, MemoryBudget::edges(edges), &mut sink);
                assert_eq!(t, list.len() as u64);
                // Two workers' counters: the run split between them.
                let half = VertexCountSink(sink.0.iter().map(|c| c / 2).collect());
                let rest = VertexCountSink(sink.0.iter().map(|c| c - c / 2).collect());
                let counts = VertexCountSink::merge(&o.map, vec![half, rest]);
                assert_eq!(counts, want, "{edges}");
                assert_eq!(VertexCountSink::merge(&o.map, vec![sink]), want);
                assert_eq!(
                    global_from_counts(&g, &counts).to_bits(),
                    global_clustering(&g, &list).to_bits()
                );
            }
        }
        assert_eq!(
            VertexCountSink::merge(&RankMap::identity(3), Vec::new()),
            [0; 3]
        );
    }

    #[test]
    fn merge_moves_every_rank_to_its_id() {
        // Fixed points, 2-cycles, one long cycle, and the empty map.
        for rank_to_id in [
            vec![],
            vec![0],
            vec![1, 0, 2],
            vec![3, 0, 1, 2, 4],
            vec![4, 2, 1, 0, 3, 6, 5],
            (0..64).map(|r| (r * 37 + 11) % 64).collect(),
        ] {
            let map = RankMap::from_rank_to_id(rank_to_id.clone());
            let by_rank: Vec<u64> = (0..map.len() as u64).map(|r| 10 * r + 1).collect();
            let counts = VertexCountSink::merge(&map, vec![VertexCountSink(by_rank.clone())]);
            for (r, &id) in rank_to_id.iter().enumerate() {
                assert_eq!(counts[id as usize], by_rank[r], "{rank_to_id:?} rank {r}");
            }
        }
    }

    #[test]
    fn global_from_degrees_sums_as_the_coefficient_vector_did() {
        // The average as it was taken before the degrees sufficed: the
        // local coefficients collected, filtered to degree >= 2, summed.
        let g = pdtl_graph::gen::rmat::rmat(8, 3).unwrap();
        let counts = per_vertex_counts(g.num_vertices(), &triangle_list(&g));
        let local = local_from_counts(&g, &counts);
        let eligible: Vec<f64> = (0..g.num_vertices())
            .filter(|&v| g.degree(v) >= 2)
            .map(|v| local[v as usize])
            .collect();
        let reference = eligible.iter().sum::<f64>() / eligible.len() as f64;
        let got = global_from_degrees(&g.degrees(), &counts);
        assert_eq!(got.to_bits(), reference.to_bits());
    }

    #[test]
    fn per_vertex_counts_sum() {
        let g = complete(5).unwrap();
        let list = triangle_list(&g);
        let counts = per_vertex_counts(5, &list);
        assert_eq!(counts.iter().sum::<u64>(), 3 * list.len() as u64);
    }
}
