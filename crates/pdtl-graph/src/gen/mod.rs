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
//! platforms).

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
