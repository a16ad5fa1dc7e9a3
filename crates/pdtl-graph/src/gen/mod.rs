//! Deterministic graph generators.
//!
//! The paper's synthetic workloads are RMAT graphs ("RMAT-n contains 2^n
//! vertices and 2^(n+4) edges"); its real datasets are power-law social /
//! web graphs. [`rmat::rmat`] implements the recursive matrix model of
//! Chakrabarti et al. \[6\]; [`chunglu`] implements the Chung–Lu expected-
//! degree model used to build scaled stand-ins with a chosen average
//! degree and tail skew; [`classic`] provides structured graphs (complete,
//! cycle, grid, …) whose triangle counts are known in closed form — the
//! workspace's ground-truth fixtures.
//!
//! All generators are deterministic in their seed (they use the crate's
//! own SplitMix64, so outputs are stable across `rand` versions and
//! platforms). RMAT and Chung–Lu draw a fixed number of values per edge
//! sample, so their sampling splits across threads exactly: each thread
//! [`jump`](SplitMix64::jump)s the one seeded stream to its first sample,
//! and the graph does not depend on the thread count.

pub mod chunglu;
pub mod classic;
pub mod models;
pub mod rmat;
pub mod rng;

pub use chunglu::{chung_lu, power_law_weights};
pub use classic::{complete, cycle, erdos_renyi, grid, path, star, wheel};
pub use models::barabasi_albert;
pub use rmat::{rmat, RmatParams};
pub use rng::SplitMix64;

use pdtl_io::par;

use crate::csr::try_vec;
use crate::error::Result;

/// Draw `m_samples` edges from one SplitMix64 stream seeded with `seed`,
/// `sample` consuming exactly `draws` values per edge, split into
/// `threads` contiguous runs: the run from sample `lo` jumps the stream
/// `lo · draws` values ahead. The edges, in sample order, do not depend
/// on `threads`.
pub(crate) fn sample_edges<F>(
    m_samples: u64,
    draws: u64,
    seed: u64,
    threads: usize,
    sample: F,
) -> Result<Vec<(u32, u32)>>
where
    F: Fn(&mut SplitMix64) -> (u32, u32) + Sync,
{
    let mut edges = try_vec(m_samples, "edge samples")?;
    let len = m_samples as usize;
    edges.resize(len, (0, 0));
    let run = len.div_ceil(threads.max(1)).max(1);
    par::map_parts(edges.chunks_mut(run).collect(), |i, part| {
        let mut rng = SplitMix64::new(seed);
        rng.jump(((i * run) as u64).wrapping_mul(draws));
        for edge in part {
            *edge = sample(&mut rng);
        }
    });
    Ok(edges)
}
