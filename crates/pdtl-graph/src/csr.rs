//! In-memory CSR representation of simple undirected graphs.
//!
//! A [`Graph`] stores the *bidirectional* adjacency of a simple undirected
//! graph: every edge `{u, v}` appears both in `N(u)` and `N(v)`, each list
//! sorted ascending — exactly the layout of PDTL's on-disk format, so a
//! `Graph` round-trips losslessly through [`DiskGraph`](crate::DiskGraph).

use pdtl_io::par;

use crate::error::{GraphError, Result};

/// A simple undirected graph in CSR form.
///
/// Invariants (established by all constructors, checked by
/// [`validate`](Graph::validate)):
/// * no self-loops, no parallel edges;
/// * each adjacency list sorted strictly ascending;
/// * symmetry: `v ∈ N(u)` iff `u ∈ N(v)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[u] .. offsets[u + 1]` indexes `adj` for vertex `u`;
    /// `offsets.len() == n + 1`.
    offsets: Vec<u64>,
    /// Concatenated sorted adjacency lists (length `2|E|`).
    adj: Vec<u32>,
}

impl Graph {
    /// The empty graph on `n` isolated vertices.
    pub fn empty(n: u32) -> Self {
        Self {
            offsets: vec![0; n as usize + 1],
            adj: Vec::new(),
        }
    }

    /// Build from an arbitrary list of undirected edges on vertices
    /// `0..n`. Self-loops are dropped, duplicates (in either direction)
    /// are merged, and adjacency is sorted — i.e. the input is
    /// "simplified" per the paper's assumption that graphs are simple.
    ///
    /// A counting sort, O(n + m) plus one sort per adjacency list: count
    /// degrees, prefix-sum them into offsets, scatter both directions of
    /// each edge into its lists, then sort, dedup and compact every list
    /// (the sorts split across threads by adjacency volume, so small
    /// inputs stay on the caller). Beside `edges` it holds 8 B per
    /// sample (two `u32` entries) plus 16 B per vertex. An edge naming a
    /// vertex `>= n` fails with the first such vertex in input order;
    /// buffers the host cannot allocate fail with
    /// [`GraphError::TooLarge`].
    pub fn from_edges(n: u32, edges: &[(u32, u32)]) -> Result<Self> {
        simplify(n, edges, threads_for(edges.len() as u64))
    }

    /// Build directly from CSR parts. The parts must already satisfy the
    /// `Graph` invariants; use [`validate`](Graph::validate) if unsure.
    pub fn from_parts(offsets: Vec<u64>, adj: Vec<u32>) -> Result<Self> {
        if offsets.is_empty() {
            return Err(GraphError::Invalid(
                "offsets must have length n+1 >= 1".into(),
            ));
        }
        if *offsets.last().unwrap() != adj.len() as u64 {
            return Err(GraphError::Invalid(format!(
                "last offset {} != adjacency length {}",
                offsets.last().unwrap(),
                adj.len()
            )));
        }
        let g = Self { offsets, adj };
        Ok(g)
    }

    /// Number of vertices `n = |V|`.
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of undirected edges `m = |E|`.
    pub fn num_edges(&self) -> u64 {
        self.adj.len() as u64 / 2
    }

    /// Length of the bidirectional adjacency array (`2|E|`).
    pub fn adj_len(&self) -> u64 {
        self.adj.len() as u64
    }

    /// Degree of `u`.
    pub fn degree(&self, u: u32) -> u32 {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as u32
    }

    /// Sorted neighbours of `u`.
    pub fn neighbors(&self, u: u32) -> &[u32] {
        &self.adj[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }

    /// The CSR offset array (`n + 1` entries).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw adjacency array.
    pub fn adjacency(&self) -> &[u32] {
        &self.adj
    }

    /// All degrees as a vector (the content of the `.deg` file).
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.num_vertices()).map(|u| self.degree(u)).collect()
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> u32 {
        (0..self.num_vertices())
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// True if `{u, v}` is an edge (binary search in the shorter list).
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        if u >= self.num_vertices() || v >= self.num_vertices() {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterate each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_vertices()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Check every structural invariant; returns a description of the
    /// first violation.
    pub fn validate(&self) -> Result<()> {
        let n = self.num_vertices();
        if self.offsets[0] != 0 {
            return Err(GraphError::Invalid("offsets[0] != 0".into()));
        }
        for u in 0..n as usize {
            if self.offsets[u] > self.offsets[u + 1] {
                return Err(GraphError::Invalid(format!("offsets decrease at {u}")));
            }
        }
        for u in 0..n {
            let ns = self.neighbors(u);
            for w in ns.windows(2) {
                if w[0] >= w[1] {
                    return Err(GraphError::Invalid(format!(
                        "adjacency of {u} not strictly ascending"
                    )));
                }
            }
            for &v in ns {
                if v >= n {
                    return Err(GraphError::VertexOutOfRange { vertex: v, n });
                }
                if v == u {
                    return Err(GraphError::Invalid(format!("self-loop at {u}")));
                }
                if self.neighbors(v).binary_search(&u).is_err() {
                    return Err(GraphError::Invalid(format!("asymmetric edge ({u}, {v})")));
                }
            }
        }
        Ok(())
    }

    /// Sum over edges of `min(d(u), d(v))` — the arboricity-related bound
    /// of Theorem III.4(3); `T <= bound / 3`.
    pub fn min_degree_sum(&self) -> u64 {
        self.edges()
            .map(|(u, v)| self.degree(u).min(self.degree(v)) as u64)
            .sum()
    }
}

/// Fewest edge samples worth a thread of their own, when sampling or
/// simplifying: below it, spawning costs more than the work it splits.
pub(crate) const MIN_SAMPLES_PER_THREAD: u64 = 1 << 16;

/// The threads `samples` edge samples are split across: the host's,
/// but no more than keeps [`MIN_SAMPLES_PER_THREAD`] on each.
pub(crate) fn threads_for(samples: u64) -> usize {
    let most = samples.div_ceil(MIN_SAMPLES_PER_THREAD).max(1);
    par::host_threads().min(usize::try_from(most).unwrap_or(usize::MAX))
}

/// An empty vector with room for exactly `len` entries, or a typed error
/// naming `what` when `len` overflows the address space or the allocator
/// refuses it — a graph too big for the host is an answer, not an abort.
pub(crate) fn try_vec<T>(len: u64, what: &'static str) -> Result<Vec<T>> {
    let mut v = Vec::new();
    usize::try_from(len)
        .ok()
        .and_then(|len| v.try_reserve_exact(len).ok())
        .ok_or(GraphError::TooLarge { what, entries: len })?;
    Ok(v)
}

/// [`Graph::from_edges`] with the per-list sorts split across `threads`.
/// The result does not depend on `threads`.
pub(crate) fn simplify(n: u32, edges: &[(u32, u32)], threads: usize) -> Result<Graph> {
    let n_us = n as usize;
    // Degrees, in input order, so the first out-of-range vertex named is
    // the first one the input holds.
    let mut offsets: Vec<u64> = try_vec(u64::from(n) + 1, "vertex offsets")?;
    offsets.resize(n_us + 1, 0);
    for &(u, v) in edges {
        for vertex in [u, v] {
            if vertex >= n {
                return Err(GraphError::VertexOutOfRange { vertex, n });
            }
        }
        if u != v {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
    }
    for i in 0..n_us {
        offsets[i + 1] += offsets[i];
    }
    let total = offsets[n_us];

    // Scatter both directions of every edge into its endpoints' lists.
    let mut adj: Vec<u32> = try_vec(total, "adjacency entries")?;
    adj.resize(total as usize, 0);
    let mut cursor = offsets[..n_us].to_vec();
    for &(u, v) in edges {
        if u != v {
            for (from, to) in [(u, v), (v, u)] {
                let at = &mut cursor[from as usize];
                adj[*at as usize] = to;
                *at += 1;
            }
        }
    }
    drop(cursor);

    // Sort and dedup every list, compacting each run of vertices within
    // its own part: runs of about equal adjacency volume, one per thread.
    let parts = threads.clamp(1, n_us.max(1));
    let mut bounds: Vec<usize> = (0..parts)
        .map(|t| {
            let target = total * t as u64 / parts as u64;
            offsets.partition_point(|&o| o < target).min(n_us)
        })
        .collect();
    bounds.push(n_us);
    bounds.dedup();
    let mut pieces = Vec::with_capacity(bounds.len());
    let mut rest = adj.as_mut_slice();
    for w in bounds.windows(2) {
        let (piece, tail) = rest.split_at_mut((offsets[w[1]] - offsets[w[0]]) as usize);
        pieces.push(piece);
        rest = tail;
    }
    let kept = par::map_parts(pieces, |t, piece| {
        let (lo, hi) = (bounds[t], bounds[t + 1]);
        let base = offsets[lo];
        let mut write = 0;
        let mut lens = Vec::with_capacity(hi - lo);
        for u in lo..hi {
            let (a, b) = (
                (offsets[u] - base) as usize,
                (offsets[u + 1] - base) as usize,
            );
            let list = &mut piece[a..b];
            list.sort_unstable();
            let len = dedup_sorted(list);
            piece.copy_within(a..a + len, write);
            write += len;
            lens.push(len as u64);
        }
        lens
    });

    // Move each part's compacted run down behind the previous one, and
    // rewrite the offsets to the kept lengths.
    let mut write = 0;
    for (w, lens) in bounds.windows(2).zip(&kept) {
        let from = offsets[w[0]] as usize;
        let len: u64 = lens.iter().sum();
        adj.copy_within(from..from + len as usize, write);
        write += len as usize;
    }
    for (u, len) in kept.into_iter().flatten().enumerate() {
        offsets[u + 1] = offsets[u] + len;
    }
    adj.truncate(write);
    adj.shrink_to_fit();
    Ok(Graph { offsets, adj })
}

/// Collapse runs of equal values in the sorted `list` to one value each,
/// in place, and return how many distinct values lead it.
fn dedup_sorted(list: &mut [u32]) -> usize {
    let mut len = 0;
    for i in 0..list.len() {
        if len == 0 || list[i] != list[len - 1] {
            list[len] = list[i];
            len += 1;
        }
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn builds_triangle() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        g.validate().unwrap();
    }

    #[test]
    fn drops_self_loops_and_duplicates() {
        let g = Graph::from_edges(3, &[(0, 0), (0, 1), (1, 0), (0, 1), (1, 2)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        g.validate().unwrap();
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Graph::from_edges(2, &[(0, 5)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange { vertex: 5, n: 2 }
        ));
    }

    /// The global-sort simplification `from_edges` replaced: symmetrise
    /// into `(src, dst)` pairs, sort, dedup, count.
    fn reference(n: u32, edges: &[(u32, u32)]) -> Result<Graph> {
        let bad = edges.iter().flat_map(|&(u, v)| [u, v]).find(|&x| x >= n);
        if let Some(vertex) = bad {
            return Err(GraphError::VertexOutOfRange { vertex, n });
        }
        let mut dir: Vec<(u32, u32)> = edges
            .iter()
            .filter(|(u, v)| u != v)
            .flat_map(|&(u, v)| [(u, v), (v, u)])
            .collect();
        dir.sort_unstable();
        dir.dedup();
        let mut offsets = vec![0u64; n as usize + 1];
        for &(u, _) in &dir {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n as usize {
            offsets[i + 1] += offsets[i];
        }
        Graph::from_parts(offsets, dir.into_iter().map(|(_, v)| v).collect())
    }

    #[test]
    fn simplify_matches_the_sort_reference() {
        let mut rng = crate::gen::SplitMix64::new(17);
        for case in 0..400 {
            // n in {0, 1} half the time; sparse to dense lists (so some
            // vertices stay isolated); a few hub endpoints so lists
            // repeat entries; loops and reversed duplicates appended.
            let n = match case % 4 {
                0 => (case / 4 % 2) as u32,
                _ => 1 + rng.next_bounded(60) as u32,
            };
            let mut edges: Vec<(u32, u32)> = (0..rng.next_bounded(250))
                .map(|_| {
                    let mut end = || match rng.next_bounded(4) {
                        0 => 0,
                        _ => rng.next_bounded(u64::from(n.max(1))) as u32,
                    };
                    (end(), end())
                })
                .collect();
            for i in 0..edges.len() / 4 {
                let (u, v) = edges[i];
                edges.push((v, u));
                edges.push((u, u));
            }
            if case % 5 == 0 && !edges.is_empty() {
                // An out-of-range endpoint, sometimes two: the error
                // names the first in input order.
                let at = rng.next_bounded(edges.len() as u64) as usize;
                edges[at].1 = n + rng.next_bounded(3) as u32;
                let late = rng.next_bounded(edges.len() as u64) as usize;
                edges[late].0 = n + 7;
            }
            let want = reference(n, &edges);
            for threads in [1, 2, 3, 5] {
                let got = simplify(n, &edges, threads);
                match (&got, &want) {
                    (Ok(g), Ok(w)) => {
                        assert_eq!(g, w, "case {case}, {threads} threads");
                        g.validate().unwrap();
                    }
                    (
                        Err(GraphError::VertexOutOfRange { vertex: a, .. }),
                        Err(GraphError::VertexOutOfRange { vertex: b, .. }),
                    ) => assert_eq!(a, b, "case {case}"),
                    _ => panic!("case {case}: {got:?} against {want:?}"),
                }
            }
        }
    }

    #[test]
    fn zero_and_one_vertex_inputs() {
        assert_eq!(Graph::from_edges(0, &[]).unwrap(), Graph::empty(0));
        let loops = Graph::from_edges(1, &[(0, 0), (0, 0)]).unwrap();
        assert_eq!(loops, Graph::empty(1));
        let err = Graph::from_edges(0, &[(0, 0)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange { vertex: 0, n: 0 }
        ));
    }

    #[test]
    fn has_edge_both_directions() {
        let g = triangle();
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = triangle();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn degrees_and_max() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.degrees(), vec![3, 1, 1, 1]);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.adj_len(), 6);
    }

    #[test]
    fn from_parts_validates_lengths() {
        assert!(Graph::from_parts(vec![], vec![]).is_err());
        assert!(Graph::from_parts(vec![0, 2], vec![1]).is_err());
        let g = Graph::from_parts(vec![0, 1, 2], vec![1, 0]).unwrap();
        g.validate().unwrap();
    }

    #[test]
    fn validate_catches_asymmetry() {
        let g = Graph {
            offsets: vec![0, 1, 1],
            adj: vec![1],
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_catches_unsorted() {
        let g = Graph {
            offsets: vec![0, 2, 3, 4],
            adj: vec![2, 1, 0, 0],
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn min_degree_sum_triangle() {
        // every edge has min-degree 2 -> sum 6; T=1 <= 6/3
        assert_eq!(triangle().min_degree_sum(), 6);
    }

    #[test]
    fn clone_and_eq() {
        let g = triangle();
        assert_eq!(g.clone(), g);
    }
}
