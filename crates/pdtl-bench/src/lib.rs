//! Experiment harness reproducing the PDTL paper's evaluation.
//!
//! Every table and figure of the paper maps to one experiment id (see
//! DESIGN.md §6); `cargo run -p pdtl-bench --release --bin exp -- all`
//! regenerates them all. Experiments run on scaled stand-ins of the
//! paper's datasets (see [`pdtl_graph::datasets`]) and report, for each
//! configuration, both the **measured** wall time on the current host
//! and the **modeled** time derived from counted work under the paper's
//! cost analysis (CPU operations, I/O bytes, network bytes through
//! [`pdtl_io::CostModel`] / [`pdtl_cluster::NetModel`]). The modeled
//! columns are what reproduce the paper's *scaling shapes*
//! deterministically — independent of the host's core count, disk cache
//! or CPU frequency.

pub mod experiments;
pub mod kernelbench;
pub mod workbench;

pub use workbench::{fmt_duration, fmt_secs, Workbench};
