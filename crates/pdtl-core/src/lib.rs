//! PDTL core: the paper's primary contribution.
//!
//! The pipeline implemented here is exactly the paper's Section IV:
//!
//! 1. **Orientation** ([`orient`]): apply the degree-based total order `≺`
//!    (Definition III.2) to the undirected input, keeping edge `(u, v)`
//!    only when `u ≺ v`. The result `G*` is a DAG with `|E*| = |E|` and is
//!    computed sequentially or across all cores (Figure 2).
//! 2. **Load balancing** ([`balance`]): split the oriented adjacency into
//!    one *contiguous* range of pivot-edge positions per logical
//!    processor, either naively (equal edges) or weighted by
//!    post-orientation in-degrees (Section IV-B1, Figure 9).
//! 3. **MGT** ([`mgt`]): each processor runs the modified Massive Graph
//!    Triangulation engine (Algorithm 2) over its range: load `Θ(cM)`
//!    oriented edges into the `edg`/`ind` arrays, then stream every
//!    vertex's out-list through the `nm` scratch array and report
//!    triangles by marking it in a dense bit array and probing the
//!    resident segments it reaches — arrays, not hash sets, which the
//!    paper found >10× faster.
//! 4. **Aggregation** ([`runner`]): the multicore [`LocalRunner`] wires the
//!    phases together on one machine; the distributed runner lives in
//!    `pdtl-cluster`.
//!
//! [`theory`] encodes the paper's complexity bounds (Theorems IV.2/IV.3)
//! so tests can assert that measured work stays within them. [`par`] is
//! the one data-parallel map the orientation and the baselines run on.

pub mod balance;
pub mod error;
pub mod intersect;
pub mod metrics;
pub mod mgt;
pub mod order;
pub mod orient;
pub mod par;
pub mod runner;
pub mod sink;
pub mod theory;

pub use balance::{split_ranges, BalanceStrategy, EdgeRange};
pub use error::{CoreError, Result};
pub use metrics::{PhaseReport, RunReport, WorkerReport};
pub use mgt::{mgt_count_range, mgt_count_range_opt, mgt_in_memory, mgt_in_memory_opt, MgtOptions};
pub use order::DegreeOrder;
pub use orient::{orient_csr, orient_to_disk, OrientedCsr, OrientedGraph};
pub use runner::{
    count_triangles, count_triangles_with, run_workers, LocalConfig, LocalRunner, ScratchDir,
};
pub use sink::{CollectSink, CountSink, FileSink, TriangleSink};
