//! Triangle-based analytics — the applications that motivate PDTL.
//!
//! The paper's introduction lists the metrics exact triangle listing
//! unlocks: the clustering coefficient \[24\], the transitivity ratio
//! \[18\], and k-trusses \[22\] (plus spam/sybil detection built on them).
//! This crate implements those consumers on top of the PDTL listing API,
//! demonstrating that the framework's output — a stream of `(u, v, w)`
//! triples — is sufficient for the downstream algorithms.

pub mod approx;
pub mod clustering;
pub mod ktruss;

pub use approx::{doulion, doulion_mean, ApproxCount};
pub use clustering::{clustering_coefficients, global_clustering, transitivity, ClusteringReport};
pub use ktruss::TrussDecomposition;
