//! A PATRIC-like partitioned message-passing counter (Arifuzzaman et
//! al., CIKM'13).
//!
//! PATRIC partitions the vertex set across processors; each processor
//! stores its *core* vertices' adjacency **plus the adjacency of every
//! neighbour** (the one-hop halo needed to test pivot edges locally).
//! That overlap is PATRIC's defining cost: the paper notes it "requires
//! that each partition fits in memory" and "the total amount of memory
//! needed … can exceed |E|" — exactly what makes partitioning-based
//! frameworks fail on dense graphs while PDTL keeps running.
//!
//! This reimplementation reproduces the memory model faithfully (halo
//! accounting, hard OOM under a per-processor budget, aggregate memory
//! exceeding `|E|`), the degree-ordered surface counting (each triangle
//! counted at its cone vertex's owner), and PATRIC's two load-balancing
//! schemes (by vertex count, by degree sum).

use pdtl_core::intersect::intersect_visit;
use pdtl_core::order::DegreeOrder;
use pdtl_graph::Graph;

use crate::error::{BaselineError, Result};

/// How PATRIC assigns core vertices to processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PatricBalance {
    /// Contiguous ranges with equal vertex counts.
    ByVertices,
    /// Contiguous ranges with roughly equal degree sums (the scheme the
    /// PATRIC paper recommends).
    #[default]
    ByDegreeSum,
}

/// Configuration of a PATRIC-like run.
#[derive(Debug, Clone, Copy)]
pub struct PatricConfig {
    /// Number of processors (partitions).
    pub processors: usize,
    /// Memory budget per processor, in bytes.
    pub memory_bytes: u64,
    /// Core-vertex assignment scheme.
    pub balance: PatricBalance,
}

/// Outcome of a PATRIC-like run.
#[derive(Debug, Clone)]
pub struct PatricReport {
    /// Exact triangle count.
    pub triangles: u64,
    /// Bytes resident per partition (core + halo adjacency).
    pub partition_bytes: Vec<u64>,
    /// Total bytes sent to distribute the overlapping partitions.
    pub distribution_bytes: u64,
    /// Per-partition triangle counts.
    pub partition_triangles: Vec<u64>,
}

/// Run the PATRIC-like counter on an in-memory graph.
///
/// Fails with [`BaselineError::OutOfMemory`] if any partition (core +
/// halo) exceeds the per-processor budget — PATRIC has no out-of-core
/// fallback.
pub fn run(g: &Graph, config: PatricConfig) -> Result<PatricReport> {
    if config.processors == 0 {
        return Err(BaselineError::Config("processors must be >= 1".into()));
    }
    let n = g.num_vertices();
    let degrees = g.degrees();
    let ord = DegreeOrder::new(&degrees);
    let bounds = partition_bounds(g, config);

    let mut partition_bytes = Vec::with_capacity(bounds.len());
    let mut partition_triangles = Vec::with_capacity(bounds.len());
    let mut distribution_bytes = 0u64;

    for &(lo, hi) in &bounds {
        // Memory: core adjacency + halo adjacency (each distinct
        // neighbour's full list), 4 bytes per entry + 8 per offset.
        let mut resident = vec![false; n as usize];
        let mut bytes = 0u64;
        for v in lo..hi {
            if !resident[v as usize] {
                resident[v as usize] = true;
                bytes += 8 + 4 * degrees[v as usize] as u64;
            }
            for &w in g.neighbors(v) {
                if !resident[w as usize] {
                    resident[w as usize] = true;
                    bytes += 8 + 4 * degrees[w as usize] as u64;
                }
            }
        }
        distribution_bytes += bytes;
        if bytes > config.memory_bytes {
            return Err(BaselineError::OutOfMemory {
                system: "patric",
                needed: bytes,
                budget: config.memory_bytes,
            });
        }
        partition_bytes.push(bytes);

        // Surface counting: a triangle is counted by the owner of its
        // cone vertex (its ≺-minimum), using only resident lists.
        let mut local = 0u64;
        for u in lo..hi {
            let nu = g.neighbors(u);
            for &v in nu {
                if !ord.precedes(u, v) {
                    continue;
                }
                // count w ∈ N(u) ∩ N(v) with u ≺ v ≺ w
                let nv = g.neighbors(v);
                let mut cnt = 0u64;
                intersect_visit(nu, nv, |w| {
                    if ord.precedes(v, w) {
                        cnt += 1;
                    }
                });
                local += cnt;
            }
        }
        partition_triangles.push(local);
    }

    Ok(PatricReport {
        triangles: partition_triangles.iter().sum(),
        partition_bytes,
        distribution_bytes,
        partition_triangles,
    })
}

/// Contiguous core-vertex ranges under the chosen balance scheme.
pub fn partition_bounds(g: &Graph, config: PatricConfig) -> Vec<(u32, u32)> {
    let n = g.num_vertices();
    let p = config.processors as u64;
    match config.balance {
        PatricBalance::ByVertices => (0..p)
            .map(|i| ((n as u64 * i / p) as u32, (n as u64 * (i + 1) / p) as u32))
            .collect(),
        PatricBalance::ByDegreeSum => {
            let offsets = pdtl_graph::disk::offsets_from_degrees(&g.degrees());
            pdtl_core::orient::vertex_partition(&offsets, config.processors)
        }
    }
}

/// Pure memory estimate per partition without running the counter —
/// lets experiments probe OOM boundaries cheaply.
pub fn partition_memory(g: &Graph, config: PatricConfig) -> Vec<u64> {
    let n = g.num_vertices();
    let degrees = g.degrees();
    partition_bounds(g, config)
        .iter()
        .map(|&(lo, hi)| {
            let mut resident = vec![false; n as usize];
            let mut bytes = 0u64;
            for v in lo..hi {
                if !resident[v as usize] {
                    resident[v as usize] = true;
                    bytes += 8 + 4 * degrees[v as usize] as u64;
                }
                for &w in g.neighbors(v) {
                    if !resident[w as usize] {
                        resident[w as usize] = true;
                        bytes += 8 + 4 * degrees[w as usize] as u64;
                    }
                }
            }
            bytes
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdtl_graph::gen::classic::{complete, grid};
    use pdtl_graph::gen::rmat::rmat;
    use pdtl_graph::verify::triangle_count;

    fn cfg(p: usize, mem: u64) -> PatricConfig {
        PatricConfig {
            processors: p,
            memory_bytes: mem,
            balance: PatricBalance::ByDegreeSum,
        }
    }

    #[test]
    fn counts_match_oracle() {
        for seed in [81, 82] {
            let g = rmat(7, seed).unwrap();
            let expected = triangle_count(&g);
            for p in [1usize, 2, 4, 7] {
                let r = run(&g, cfg(p, u64::MAX)).unwrap();
                assert_eq!(r.triangles, expected, "p={p} seed={seed}");
            }
        }
    }

    #[test]
    fn both_balance_schemes_correct() {
        let g = rmat(7, 83).unwrap();
        let expected = triangle_count(&g);
        for balance in [PatricBalance::ByVertices, PatricBalance::ByDegreeSum] {
            let r = run(
                &g,
                PatricConfig {
                    processors: 4,
                    memory_bytes: u64::MAX,
                    balance,
                },
            )
            .unwrap();
            assert_eq!(r.triangles, expected, "{balance:?}");
        }
    }

    #[test]
    fn dense_graph_memory_exceeds_edge_total() {
        // On K_n with several partitions, halos replicate almost the
        // whole graph per partition: Σ memory >> graph size.
        let g = complete(60).unwrap();
        let r = run(&g, cfg(4, u64::MAX)).unwrap();
        let graph_bytes = g.adj_len() * 4;
        let total: u64 = r.partition_bytes.iter().sum();
        assert!(
            total > 3 * graph_bytes,
            "overlap: {total} vs graph {graph_bytes}"
        );
    }

    #[test]
    fn ooms_when_partition_exceeds_budget() {
        let g = complete(60).unwrap();
        let err = run(&g, cfg(4, 1000)).unwrap_err();
        assert!(matches!(
            err,
            BaselineError::OutOfMemory {
                system: "patric",
                ..
            }
        ));
    }

    #[test]
    fn sparse_graph_fits_where_dense_fails() {
        let g = grid(30, 30).unwrap();
        let budget = g.adj_len() * 4; // roughly graph-sized budget
        let r = run(&g, cfg(4, budget)).unwrap();
        assert_eq!(r.triangles, 0);
    }

    #[test]
    fn degree_sum_balance_is_no_worse_on_skewed_graph() {
        let g = rmat(9, 84).unwrap();
        let spread = |balance| {
            let bytes = partition_memory(
                &g,
                PatricConfig {
                    processors: 8,
                    memory_bytes: u64::MAX,
                    balance,
                },
            );
            let max = *bytes.iter().max().unwrap() as f64;
            let avg = bytes.iter().sum::<u64>() as f64 / bytes.len() as f64;
            max / avg
        };
        assert!(spread(PatricBalance::ByDegreeSum) <= spread(PatricBalance::ByVertices) * 1.25);
    }

    #[test]
    fn zero_processors_rejected() {
        let g = complete(4).unwrap();
        assert!(run(&g, cfg(0, 100)).is_err());
    }
}
