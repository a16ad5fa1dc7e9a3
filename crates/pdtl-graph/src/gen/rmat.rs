//! The RMAT recursive-matrix generator (Chakrabarti, Zhan, Faloutsos \[6\]).
//!
//! The paper's synthetic graphs are "scale-free graphs produced by the
//! RMAT generator, such that RMAT-n contains 2^n vertices and 2^(n+4)
//! edges". Each directed edge sample recursively descends the adjacency
//! matrix, choosing a quadrant with probabilities `(a, b, c, d)` plus a
//! small noise term; the resulting multigraph is simplified into a simple
//! undirected [`Graph`].
//!
//! Each sample draws exactly `5k` values — four quadrant jitters and one
//! quadrant pick per level — so sample `i` starts at draw `5k·i` of the
//! seeded stream. The samples split into one contiguous run per thread
//! (of a fixed minimum length, so a small graph stays on the caller),
//! each run jumping the stream to its first sample: the graph is the
//! serial one whatever the thread count.

use crate::csr::{threads_for, Graph};
use crate::error::{GraphError, Result};
use crate::gen::rng::SplitMix64;
use crate::gen::sample_edges;

/// RMAT quadrant probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Top-left quadrant probability.
    pub a: f64,
    /// Top-right.
    pub b: f64,
    /// Bottom-left.
    pub c: f64,
    /// Bottom-right (`1 - a - b - c`).
    pub d: f64,
    /// Per-level multiplicative noise amplitude (0 disables).
    pub noise: f64,
}

impl Default for RmatParams {
    /// The Graph500 / common literature parameters, heavy-tailed like the
    /// paper's RMAT family (their Table I shows avg degree ~60-70 with
    /// max degree in the 10^5-10^6 range — a strongly skewed a).
    fn default() -> Self {
        Self {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
            noise: 0.1,
        }
    }
}

/// Generate the paper's `RMAT-k`: `2^k` vertices and `2^(k+4)` directed
/// edge samples, simplified to an undirected simple graph.
pub fn rmat(k: u32, seed: u64) -> Result<Graph> {
    rmat_with(k, 16 * (1u64 << k), RmatParams::default(), seed)
}

/// Generate an RMAT graph with `2^k` vertices and `m_samples` edge
/// samples under explicit parameters. `k` must be below 31 (so `2^k`
/// fits a `u32`), and a sample count the host cannot hold is a
/// [`GraphError::TooLarge`], not an abort.
pub fn rmat_with(k: u32, m_samples: u64, params: RmatParams, seed: u64) -> Result<Graph> {
    let threads = threads_for(m_samples);
    let edges = rmat_samples(k, m_samples, params, seed, threads)?;
    Graph::from_edges(1 << k, &edges)
}

/// The `m_samples` RMAT edge samples, split across `threads`.
fn rmat_samples(
    k: u32,
    m_samples: u64,
    params: RmatParams,
    seed: u64,
    threads: usize,
) -> Result<Vec<(u32, u32)>> {
    if k >= 31 {
        return Err(GraphError::Invalid(format!(
            "RMAT scale {k} must be below 31 to keep 2^k within u32"
        )));
    }
    sample_edges(m_samples, 5 * u64::from(k), seed, threads, |rng| {
        sample_edge(k, params, rng)
    })
}

fn sample_edge(k: u32, p: RmatParams, rng: &mut SplitMix64) -> (u32, u32) {
    let mut u = 0u32;
    let mut v = 0u32;
    for _ in 0..k {
        // Noise keeps the generated graphs from having lattice-like
        // artefacts, as recommended by the RMAT authors.
        let jitter = |x: f64, rng: &mut SplitMix64| {
            let f = 1.0 + p.noise * (2.0 * rng.next_f64() - 1.0);
            x * f
        };
        let a = jitter(p.a, rng);
        let b = jitter(p.b, rng);
        let c = jitter(p.c, rng);
        let d = jitter(p.d, rng);
        let total = a + b + c + d;
        let r = rng.next_f64() * total;
        // The quadrant `r` falls in — top-left below `a`, top-right below
        // `a + b`, bottom-left below `a + b + c`, else bottom-right — as
        // bits, not branches: the pick is a coin flip the predictor
        // misses about once per level.
        let (past_a, past_b, past_c) = (r >= a, r >= a + b, r >= a + b + c);
        u = (u << 1) | u32::from(past_a & past_b);
        v = (v << 1) | u32::from(past_a & (!past_b | past_c));
    }
    (u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::simplify;

    #[test]
    fn sizes_match_paper_formula() {
        let g = rmat(8, 1).unwrap();
        assert_eq!(g.num_vertices(), 256);
        // 2^(8+4) = 4096 samples; simplification removes loops/dups so
        // the simple edge count is below but near that.
        assert!(g.num_edges() > 1000, "edges = {}", g.num_edges());
        assert!(g.num_edges() <= 4096);
        g.validate().unwrap();
    }

    #[test]
    fn deterministic_in_seed() {
        let a = rmat(6, 7).unwrap();
        let b = rmat(6, 7).unwrap();
        assert_eq!(a, b);
        let c = rmat(6, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn skewed_degree_distribution() {
        let g = rmat(10, 3).unwrap();
        let avg = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        let max = g.max_degree() as f64;
        // Scale-free: hubs should far exceed the average degree.
        assert!(
            max > 5.0 * avg,
            "max {max} should dwarf avg {avg} in a scale-free graph"
        );
    }

    #[test]
    fn custom_params_respected() {
        // Uniform quadrants (a=b=c=d) approximate Erdős–Rényi: much less
        // skew than the default.
        let uni = RmatParams {
            a: 0.25,
            b: 0.25,
            c: 0.25,
            d: 0.25,
            noise: 0.0,
        };
        let g_uni = rmat_with(10, 16 << 10, uni, 3).unwrap();
        let g_skew = rmat(10, 3).unwrap();
        assert!(g_uni.max_degree() < g_skew.max_degree());
    }

    #[test]
    fn graphs_have_triangles() {
        let g = rmat(8, 5).unwrap();
        let t = crate::verify::triangle_count(&g);
        assert!(t > 0, "RMAT graphs are triangle-dense");
    }

    #[test]
    fn rejects_oversized_scale() {
        let err = rmat_with(31, 1, RmatParams::default(), 0).unwrap_err();
        assert!(
            matches!(&err, GraphError::Invalid(msg) if msg.contains("u32")),
            "{err}"
        );
    }

    #[test]
    fn a_sample_count_the_host_cannot_hold_is_an_error() {
        let err = rmat_with(4, u64::MAX, RmatParams::default(), 0).unwrap_err();
        assert!(
            matches!(
                err,
                GraphError::TooLarge {
                    entries: u64::MAX,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn graphs_do_not_depend_on_the_thread_count() {
        // Every split point is a jump into the middle of the serial
        // stream, between two samples.
        for (k, seed) in [(8, 1), (10, 11)] {
            let m = 16 << k;
            let serial = rmat_samples(k, m, RmatParams::default(), seed, 1).unwrap();
            for threads in [1, 2, 3, 5] {
                let split = rmat_samples(k, m, RmatParams::default(), seed, threads).unwrap();
                assert!(split == serial, "k={k} seed={seed} threads={threads}");
                let g = simplify(1 << k, &split, threads).unwrap();
                assert_eq!(
                    g,
                    rmat(k, seed).unwrap(),
                    "k={k} seed={seed} threads={threads}"
                );
            }
        }
    }
}
