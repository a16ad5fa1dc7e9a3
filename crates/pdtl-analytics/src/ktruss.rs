//! k-truss decomposition (Wang & Cheng \[22\]).
//!
//! The k-truss of `G` is the maximal subgraph in which every edge is
//! supported by at least `k − 2` triangles *within the subgraph*. The
//! decomposition assigns each edge its trussness: the largest `k` for
//! which it survives. The standard peeling algorithm starts from exact
//! per-edge triangle supports — precisely what PDTL's listing provides —
//! then repeatedly removes the weakest edge and decrements its
//! neighbours' supports.

use pdtl_graph::Graph;

/// Result of a truss decomposition: two vectors over the graph's edges,
/// each edge once, in lexicographic order of its ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrussDecomposition {
    /// The ends `(u, v)` of each edge, `u < v`, ascending.
    pub ends: Vec<(u32, u32)>,
    /// The trussness of each edge, in the order of `ends`.
    pub trussness: Vec<u32>,
}

impl TrussDecomposition {
    /// The largest k with a non-empty k-truss.
    pub fn max_k(&self) -> u32 {
        self.trussness.iter().copied().max().unwrap_or(0)
    }

    /// Edges of the k-truss: those with trussness >= k, ascending.
    pub fn truss_edges(&self, k: u32) -> Vec<(u32, u32)> {
        (self.ends.iter().zip(&self.trussness))
            .filter(|&(_, &t)| t >= k)
            .map(|(&e, _)| e)
            .collect()
    }
}

/// Full truss decomposition by support peeling.
///
/// `triangles` must be the exact triangle listing of `g` (any vertex
/// order within triples).
///
/// Edges are peeled weakest first from support buckets (Batagelj and
/// Zaversnik's bin sort, as Wang and Cheng use it): an edge leaves at
/// trussness `s + 2`, `s` its support when it is the weakest left, and
/// each triangle it closes with two remaining edges takes one from the
/// support of each of those that is still above `s`. Finding the next
/// edge and moving a decremented one are O(1), so peeling costs one
/// common-neighbour walk per edge, `O(Σ min(d(u), d(v)) log d)`.
pub fn truss_decomposition(g: &Graph, triangles: &[(u32, u32, u32)]) -> TrussDecomposition {
    let edges = EdgeIndex::new(g);
    let m = edges.ends.len();
    let id = |a: u32, b: u32| edges.id(a, b).expect("triangle edge in graph");
    let mut support = vec![0u32; m];
    for &(a, b, c) in triangles {
        for e in [id(a, b), id(b, c), id(a, c)] {
            support[e as usize] += 1;
        }
    }

    // `order` holds the edges by ascending support, bucket `s` starting
    // at `bin[s]`; `pos[e]` is `e`'s index in `order`.
    let max_support = support.iter().copied().max().unwrap_or(0) as usize;
    let mut bin = vec![0usize; max_support + 2];
    for &s in &support {
        bin[s as usize + 1] += 1;
    }
    for s in 1..bin.len() {
        bin[s] += bin[s - 1];
    }
    let mut order = vec![0u32; m];
    let mut pos = vec![0usize; m];
    let mut next = bin.clone();
    for (e, &s) in support.iter().enumerate() {
        pos[e] = next[s as usize];
        order[pos[e]] = e as u32;
        next[s as usize] += 1;
    }

    let mut alive = vec![true; m];
    let mut trussness = vec![0u32; m];
    for i in 0..m {
        let e = order[i] as usize;
        let s = support[e];
        let (u, v) = edges.ends[e];
        trussness[e] = s + 2;
        alive[e] = false;
        // Walk the shorter list; the other endpoint is a lookup.
        let (a, b) = if g.degree(u) <= g.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        for (w, &aw) in g.neighbors(a).iter().zip(edges.of(a)) {
            let aw = aw as usize;
            if !alive[aw] {
                continue;
            }
            let Some(bw) = edges.id(b, *w).map(|bw| bw as usize) else {
                continue;
            };
            if !alive[bw] {
                continue;
            }
            for f in [aw, bw] {
                let sf = support[f] as usize;
                if sf > s as usize {
                    // Swap `f` to the front of its bucket, then shift
                    // the bucket's start past it: `f` now opens
                    // bucket `sf − 1`.
                    let first = bin[sf];
                    let other = order[first] as usize;
                    order.swap(first, pos[f]);
                    pos.swap(f, other);
                    bin[sf] += 1;
                    support[f] -= 1;
                }
            }
        }
    }
    TrussDecomposition {
        ends: edges.ends,
        trussness,
    }
}

/// The edges of a graph numbered `0..m` in lexicographic order, each
/// once as `(u, v)` with `u < v`, and found again by its ends through
/// the graph's sorted adjacency.
struct EdgeIndex<'g> {
    g: &'g Graph,
    /// The ends of each edge.
    ends: Vec<(u32, u32)>,
    /// The edge at each adjacency position (both of an edge's positions
    /// hold its id).
    at: Vec<u32>,
}

impl<'g> EdgeIndex<'g> {
    fn new(g: &'g Graph) -> Self {
        let mut index = EdgeIndex {
            g,
            ends: Vec::with_capacity(g.num_edges() as usize),
            at: vec![0; g.adj_len() as usize],
        };
        for u in 0..g.num_vertices() {
            let base = g.offsets()[u as usize] as usize;
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                index.at[base + i] = if v > u {
                    index.ends.push((u, v));
                    index.ends.len() as u32 - 1
                } else {
                    // `v < u` numbered this edge from its own list.
                    index.id(v, u).expect("a symmetric adjacency")
                };
            }
        }
        index
    }

    /// The ids of `a`'s edges, in the order of its neighbours.
    fn of(&self, a: u32) -> &[u32] {
        let offsets = self.g.offsets();
        &self.at[offsets[a as usize] as usize..offsets[a as usize + 1] as usize]
    }

    /// The id of edge `{a, b}`, if the graph has it.
    fn id(&self, a: u32, b: u32) -> Option<u32> {
        let i = self.g.neighbors(a).binary_search(&b).ok()?;
        Some(self.of(a)[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use pdtl_graph::gen::classic::{complete, cycle, grid, wheel};
    use pdtl_graph::gen::rmat::rmat;
    use pdtl_graph::verify::{triangle_count, triangle_list};

    fn key(u: u32, v: u32) -> (u32, u32) {
        if u < v {
            (u, v)
        } else {
            (v, u)
        }
    }

    /// The peeling loop [`truss_decomposition`] replaced, kept as its
    /// reference: it rescans every remaining edge for the next one to
    /// peel, `O(|E|²)`.
    fn reference_truss(g: &Graph, triangles: &[(u32, u32, u32)]) -> TrussDecomposition {
        // support = number of triangles on each edge
        let mut support: HashMap<(u32, u32), u32> = g.edges().map(|(u, v)| ((u, v), 0)).collect();
        for &(a, b, c) in triangles {
            *support.get_mut(&key(a, b)).expect("triangle edge in graph") += 1;
            *support.get_mut(&key(b, c)).expect("triangle edge in graph") += 1;
            *support.get_mut(&key(a, c)).expect("triangle edge in graph") += 1;
        }

        // adjacency sets for triangle queries during peeling
        let mut adj: Vec<std::collections::BTreeSet<u32>> =
            vec![Default::default(); g.num_vertices() as usize];
        for (u, v) in g.edges() {
            adj[u as usize].insert(v);
            adj[v as usize].insert(u);
        }

        let mut trussness: HashMap<(u32, u32), u32> = HashMap::with_capacity(support.len());
        let mut remaining: Vec<((u32, u32), u32)> = support.into_iter().collect();
        let mut k = 2u32;
        while !remaining.is_empty() {
            // peel all edges with support <= k - 2
            while let Some(pos) = remaining.iter().position(|&(_, s)| s <= k - 2) {
                let ((u, v), _) = remaining.swap_remove(pos);
                trussness.insert((u, v), k);
                // removing (u,v) breaks every triangle through it
                let commons: Vec<u32> = adj[u as usize]
                    .intersection(&adj[v as usize])
                    .copied()
                    .collect();
                adj[u as usize].remove(&v);
                adj[v as usize].remove(&u);
                for w in commons {
                    for e in [key(u, w), key(v, w)] {
                        if let Some(entry) = remaining.iter_mut().find(|(edge, _)| *edge == e) {
                            entry.1 = entry.1.saturating_sub(1);
                        }
                    }
                }
            }
            k += 1;
        }
        let ends: Vec<(u32, u32)> = g.edges().collect();
        let trussness = ends.iter().map(|e| trussness[e]).collect();
        TrussDecomposition { ends, trussness }
    }

    /// The trussness of edge `(u, v)`, `u < v`.
    fn trussness_of(d: &TrussDecomposition, u: u32, v: u32) -> u32 {
        d.trussness[d.ends.binary_search(&(u, v)).unwrap()]
    }

    #[test]
    fn bucket_peeling_matches_the_reference_loop() {
        let mut graphs = vec![
            complete(2).unwrap(),
            complete(7).unwrap(),
            wheel(12).unwrap(),
        ];
        graphs.extend((8..=10).map(|k| rmat(k, 7).unwrap()));
        graphs.push(Graph::from_edges(5, &[]).unwrap());
        for g in &graphs {
            let list = triangle_list(g);
            // Edge for edge: the same ends in the same order, and the
            // same trussness for each.
            let got = truss_decomposition(g, &list);
            assert_eq!(got, reference_truss(g, &list));
            // Any vertex order within the triples.
            let turned: Vec<_> = list.iter().map(|&(a, b, c)| (c, a, b)).collect();
            assert_eq!(truss_decomposition(g, &turned), got);
        }
    }

    #[test]
    fn complete_graph_is_a_k_truss() {
        // Every edge of K_n lies in n-2 triangles: trussness n.
        let g = complete(6).unwrap();
        let d = truss_decomposition(&g, &triangle_list(&g));
        assert_eq!(d.max_k(), 6);
        assert!(d.trussness.iter().all(|&t| t == 6));
        assert_eq!(d.truss_edges(6).len(), 15);
        assert!(d.truss_edges(7).is_empty());
    }

    #[test]
    fn triangle_free_graphs_peel_at_two() {
        for g in [cycle(8).unwrap(), grid(4, 4).unwrap()] {
            let d = truss_decomposition(&g, &triangle_list(&g));
            assert_eq!(d.max_k(), 2);
        }
    }

    #[test]
    fn triangle_with_tail() {
        // K_3 plus a pendant edge: the triangle has trussness 3, the
        // tail 2.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
        let d = truss_decomposition(&g, &triangle_list(&g));
        assert_eq!(trussness_of(&d, 0, 1), 3);
        assert_eq!(trussness_of(&d, 1, 2), 3);
        assert_eq!(trussness_of(&d, 0, 2), 3);
        assert_eq!(trussness_of(&d, 2, 3), 2);
        assert_eq!(d.truss_edges(3), vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn two_cliques_share_a_bridge() {
        // Two K_4s joined by one edge: K_4 edges have trussness 4.
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v));
                edges.push((u + 4, v + 4));
            }
        }
        edges.push((0, 4));
        let g = Graph::from_edges(8, &edges).unwrap();
        let d = truss_decomposition(&g, &triangle_list(&g));
        assert_eq!(d.max_k(), 4);
        assert_eq!(d.truss_edges(4).len(), 12);
        assert_eq!(trussness_of(&d, 0, 4), 2);
    }

    #[test]
    fn truss_invariant_every_edge_supported() {
        // Property: in the k-truss subgraph, each edge closes >= k-2
        // triangles inside the subgraph.
        let g = rmat(6, 111).unwrap();
        let list = triangle_list(&g);
        let d = truss_decomposition(&g, &list);
        for k in 3..=d.max_k() {
            let edges = d.truss_edges(k);
            if edges.is_empty() {
                continue;
            }
            let edge_set: std::collections::HashSet<(u32, u32)> = edges.iter().copied().collect();
            let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
            for &(u, v) in &edges {
                adj.entry(u).or_default().push(v);
                adj.entry(v).or_default().push(u);
            }
            for &(u, v) in &edges {
                let nu = &adj[&u];
                let support = nu
                    .iter()
                    .filter(|&&w| edge_set.contains(&key(v, w)))
                    .count() as u32;
                assert!(
                    support >= k - 2,
                    "edge ({u},{v}) has support {support} < {k}-2"
                );
            }
        }
    }

    #[test]
    fn decomposition_covers_every_edge() {
        let g = rmat(6, 112).unwrap();
        let d = truss_decomposition(&g, &triangle_list(&g));
        assert_eq!(d.trussness.len() as u64, g.num_edges());
        assert_eq!(d.ends, g.edges().collect::<Vec<_>>());
        let _ = triangle_count(&g);
    }
}
