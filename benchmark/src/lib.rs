//! The repo's benchmark: one measurement spine for PDTL.
//!
//! `bench --workload W --seed N --seconds S --trace 0|1` (the form the
//! root `BENCHMARK.json` names) generates W's input from the seed,
//! runs it through the same public entry points the `pdtl` CLI wraps,
//! checks every answer against an independent oracle and prints one
//! JSON result line. Without `--workload` it runs all six workloads,
//! untraced and traced, and prints every metric by name with its unit.
//!
//! Every layer is measured *from outside*: by timing calls into the
//! workspace crates' public functions and reading the report structs
//! they return. Spans inside the program are a later change.
//!
//! Layout: [`contract`] is the single table of workloads and metrics
//! (`BENCHMARK.json` is rendered from it), [`stages`] holds the three
//! child-process stages (setup / run / trace), [`ops`] one complete
//! operation per workload (untraced and staged), [`serve`] the
//! closed-loop `serve-mix` driver, [`probes`] the isolated layer
//! probes, [`driver`] the parent that spawns the stages and reports.

pub mod contract;
pub mod driver;
pub mod env;
pub mod json;
pub mod ops;
pub mod probes;
pub mod records;
pub mod serve;
pub mod stages;
pub mod trace;
