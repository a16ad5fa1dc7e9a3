//! Experiment harness reproducing the PDTL paper's evaluation.
//!
//! Every table and figure of the paper maps to one experiment id (see
//! PAPER.md, "Evaluation artefacts");
//! `cargo run -p pdtl-bench --release --bin exp -- all` regenerates them
//! all. Experiments run on scaled stand-ins of the paper's datasets (see
//! [`pdtl_graph::datasets`]) and report, for each configuration, the
//! engines' **exact counters** — CPU operations, bytes read, I/O ops,
//! chunk iterations, network bytes — and the **measured** wall on the
//! current host. The counters carry the paper's *scaling shapes*
//! independent of the host's core count, disk cache or CPU frequency:
//! a scaling cell's counted speedup is Σ worker `cpu_ops` ÷ the
//! struggler's `cpu_ops`.

pub mod experiments;
pub mod kernelbench;
pub mod workbench;

pub use workbench::{fmt_duration, fmt_secs, Workbench};
