//! Chung–Lu expected-degree power-law generator.
//!
//! Used to build the scaled stand-ins for the paper's real datasets: given
//! a target vertex count, average degree and tail exponent, it samples
//! edges with endpoint probability proportional to per-vertex weights
//! drawn from a truncated power law. Matching the (avg degree, skew) pair
//! is what preserves the datasets' *behavioural* signatures — Twitter's
//! hub-heavy skew versus Yahoo's sparse low-average-degree shape — which
//! is what drives PDTL's scaling behaviour in the evaluation.
//!
//! Each edge sample draws exactly 2 values (one per endpoint), so sample
//! `i` starts at draw `2i` of the seeded stream, and the samples split
//! into one contiguous run per thread exactly as RMAT's do (a fixed
//! minimum run length keeps small graphs on the caller; the graph does
//! not depend on the thread count). The weights are drawn serially from
//! a stream of their own.

use crate::csr::{threads_for, Graph};
use crate::error::Result;
use crate::gen::rng::SplitMix64;
use crate::gen::sample_edges;

/// Draw `n` expected degrees from a power law with exponent `gamma`,
/// minimum `dmin` and maximum `dmax` (inverse-CDF sampling).
pub fn power_law_weights(
    n: u32,
    gamma: f64,
    dmin: f64,
    dmax: f64,
    rng: &mut SplitMix64,
) -> Vec<f64> {
    assert!(gamma > 1.0, "power-law exponent must exceed 1");
    assert!(dmin > 0.0 && dmax >= dmin);
    let g1 = 1.0 - gamma;
    let a = dmin.powf(g1);
    let b = dmax.powf(g1);
    (0..n)
        .map(|_| {
            let u = rng.next_f64();
            (a + u * (b - a)).powf(1.0 / g1)
        })
        .collect()
}

/// Generate a Chung–Lu graph: `m_samples` edges with endpoints chosen
/// proportionally to `weights`, simplified into a simple undirected
/// [`Graph`]. A sample count the host cannot hold is a
/// [`GraphError::TooLarge`](crate::GraphError::TooLarge), not an abort.
pub fn chung_lu(weights: &[f64], m_samples: u64, seed: u64) -> Result<Graph> {
    let threads = threads_for(m_samples);
    let edges = chung_lu_samples(weights, m_samples, seed, threads)?;
    Graph::from_edges(weights.len() as u32, &edges)
}

/// The `m_samples` Chung–Lu edge samples, split across `threads`.
fn chung_lu_samples(
    weights: &[f64],
    m_samples: u64,
    seed: u64,
    threads: usize,
) -> Result<Vec<(u32, u32)>> {
    let n = weights.len() as u32;
    // Cumulative weight table for O(log n) endpoint sampling.
    let mut cum = Vec::with_capacity(weights.len());
    let mut acc = 0.0f64;
    for &w in weights {
        acc += w.max(0.0);
        cum.push(acc);
    }
    let total = acc;
    assert!(total > 0.0, "total weight must be positive");

    let pick = |rng: &mut SplitMix64| -> u32 {
        let x = rng.next_f64() * total;
        match cum.binary_search_by(|c| c.partial_cmp(&x).unwrap()) {
            Ok(i) | Err(i) => (i as u32).min(n - 1),
        }
    };
    sample_edges(m_samples, 2, seed, threads, |rng| {
        let u = pick(rng);
        (u, pick(rng))
    })
}

/// Convenience: power-law graph with `n` vertices, about `m` edges and
/// tail exponent `gamma`, degree range `[dmin, dmax]`.
pub fn power_law_graph(
    n: u32,
    m: u64,
    gamma: f64,
    dmin: f64,
    dmax: f64,
    seed: u64,
) -> Result<Graph> {
    let mut rng = SplitMix64::new(seed ^ 0xC0FFEE);
    let weights = power_law_weights(n, gamma, dmin, dmax, &mut rng);
    // Oversample slightly: simplification removes duplicates/loops.
    chung_lu(&weights, m + m / 8, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_within_bounds() {
        let mut rng = SplitMix64::new(1);
        let w = power_law_weights(1000, 2.5, 2.0, 100.0, &mut rng);
        assert_eq!(w.len(), 1000);
        for &x in &w {
            assert!((2.0..=100.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn lower_gamma_means_heavier_tail() {
        let mut r1 = SplitMix64::new(2);
        let mut r2 = SplitMix64::new(2);
        let light = power_law_weights(5000, 3.0, 1.0, 10_000.0, &mut r1);
        let heavy = power_law_weights(5000, 1.8, 1.0, 10_000.0, &mut r2);
        let max = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
        assert!(max(&heavy) > max(&light));
    }

    #[test]
    fn graph_size_near_target() {
        let g = power_law_graph(2000, 20_000, 2.2, 2.0, 200.0, 5).unwrap();
        assert_eq!(g.num_vertices(), 2000);
        let m = g.num_edges();
        assert!(m > 12_000 && m < 24_000, "m = {m}");
        g.validate().unwrap();
    }

    #[test]
    fn deterministic_in_seed() {
        let a = power_law_graph(500, 3000, 2.0, 1.0, 50.0, 11).unwrap();
        let b = power_law_graph(500, 3000, 2.0, 1.0, 50.0, 11).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_sampling_respects_weights() {
        // One vertex with overwhelming weight should dominate adjacency.
        let mut weights = vec![1.0; 100];
        weights[7] = 10_000.0;
        let g = chung_lu(&weights, 2000, 3).unwrap();
        let dmax_v = (0..100u32).max_by_key(|&u| g.degree(u)).unwrap();
        assert_eq!(dmax_v, 7);
    }

    #[test]
    fn a_sample_count_the_host_cannot_hold_is_an_error() {
        let err = chung_lu(&[1.0; 8], u64::MAX, 0).unwrap_err();
        assert!(
            matches!(
                err,
                crate::GraphError::TooLarge {
                    entries: u64::MAX,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn graphs_do_not_depend_on_the_thread_count() {
        let mut rng = SplitMix64::new(3);
        let weights = power_law_weights(300, 2.1, 1.0, 40.0, &mut rng);
        let serial = chung_lu_samples(&weights, 5_000, 9, 1).unwrap();
        for threads in [1, 2, 3, 5] {
            let split = chung_lu_samples(&weights, 5_000, 9, threads).unwrap();
            assert!(split == serial, "threads={threads}");
            let g = crate::csr::simplify(300, &split, threads).unwrap();
            assert_eq!(
                g,
                chung_lu(&weights, 5_000, 9).unwrap(),
                "threads={threads}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn gamma_must_exceed_one() {
        let mut rng = SplitMix64::new(0);
        let _ = power_law_weights(10, 1.0, 1.0, 5.0, &mut rng);
    }
}
