//! # PDTL — Parallel and Distributed Triangle Listing
//!
//! A full Rust reproduction of *"PDTL: Parallel and Distributed Triangle
//! Listing for Massive Graphs"* (Giechaskiel, Panagopoulos, Yoneki;
//! ICPP 2015 / UCAM-CL-TR-866): the first distributed triangle-listing
//! framework with provable CPU, I/O, memory and network bounds.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`io`] — external-memory substrate (counted block I/O, external sort,
//!   memory budgets).
//! * [`graph`] — graph substrate (CSR, the binary `.deg`/`.adj` disk
//!   format, generators, statistics, brute-force oracles).
//! * [`core`] — the PDTL core: degree-based orientation, the modified MGT
//!   engine, load balancing, and the multicore runner.
//! * [`cluster`] — the distributed runtime: master/worker protocol over
//!   pluggable transports with full network accounting.
//! * [`baselines`] — reimplementations of the systems the paper compares
//!   against (in-memory counters, OPT-like, PATRIC-like, PowerGraph-like
//!   GAS, CTTP-like MapReduce).
//! * [`analytics`] — triangle-based applications from the paper's intro:
//!   clustering coefficients, transitivity, k-truss.
//!
//! ## Quickstart
//!
//! ```
//! use pdtl::graph::gen::classic::complete;
//! use pdtl::core::count_triangles;
//!
//! let g = complete(100).unwrap();
//! let report = count_triangles(&g).unwrap();
//! assert_eq!(report.triangles, 161_700); // C(100, 3)
//! ```

pub mod cli;

pub use pdtl_analytics as analytics;
pub use pdtl_baselines as baselines;
pub use pdtl_cluster as cluster;
pub use pdtl_core as core;
pub use pdtl_graph as graph;
pub use pdtl_io as io;
