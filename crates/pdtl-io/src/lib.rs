//! External-memory I/O substrate for PDTL.
//!
//! PDTL ([Giechaskiel, Panagopoulos, Yoneki; ICPP 2015]) is an
//! external-memory algorithm analysed in the Aggarwal–Vitter I/O model: a
//! disk transfers blocks of `B` bytes, a scan of `N` bytes costs
//! `ceil(N / B)` I/Os and an external merge sort of `N` items costs
//! `O((N/B) log_{M/B}(N/B))` I/Os. This crate provides the building blocks
//! the rest of the workspace uses to *implement and account for* that
//! model:
//!
//! * [`IoStats`] — shared atomic counters for bytes/ops/blocks and time
//!   spent blocked on I/O, so the triangle engines can report the CPU vs
//!   I/O breakdowns of the paper's Figures 6–8 and Table IV.
//! * [`BlockStream`] / [`U32Writer`] — buffered little-endian `u32`
//!   streams over files, the unit of every PDTL graph file (`.deg` /
//!   `.adj`). `BlockStream` is the one read cursor: position, block
//!   window, the skip rule and all read accounting live there, over a
//!   [`BlockFetch`] that only delivers blocks. The transports are that
//!   cursor over two fetchers, so backend ablations compare pure
//!   scheduling, not different I/O plans:
//!   [`U32Reader`] (synchronous reads; [`PrefetchReader`] is the same
//!   type under the `prefetch` backend's name) and
//!   [`MmapSource`] (the file mapped and lent zero-copy).
//!   [`IoBackend::open`] picks one at run time; consumers see the
//!   [`U32Source`] seam.
//! * [`Codec`] / [`VarintSource`] — the layer *above* the transports:
//!   how byte runs decode into `u32` runs. `Raw` is the identity;
//!   `DeltaVarint` stores each out-list as delta + varint bytes and
//!   decodes above any transport, cutting the real `bytes_read` the
//!   multi-pass `|E|²/(MB)` term pays while the decoded logical volume
//!   is counted separately ([`IoStats::record_decoded`]).
//! * [`external_sort_u64`] — a counted external merge sort used to bring
//!   raw edge lists into the sorted PDTL format.
//! * [`MemoryBudget`] — the per-processor memory parameter `M` (in edges)
//!   from the paper's analysis, enforced by the MGT chunk loader.
//! * [`par`] — the workspace's data-parallel primitives (a map over
//!   contiguous chunks, a map over disjoint mutable parts, a two-way
//!   join). They live here, the lowest crate, because both the graph
//!   generators and the triangle engine run on them.

#![warn(missing_docs)]

pub mod backend;
pub mod budget;
pub mod checksum;
pub mod codec;
pub mod diskfault;
pub mod error;
pub mod extsort;
pub mod fault;
pub mod mmap;
pub mod par;
pub mod prefetch;
pub mod stats;
pub mod stream;
pub mod timer;

pub use backend::IoBackend;
pub use budget::{BudgetLease, BudgetLedger, MemoryBudget};
pub use checksum::{crc32c, crc32c_of_file, Crc32c};
pub use codec::{Codec, VarintAdjWriter, VarintIndex, VarintSource};
pub use diskfault::{DiskFaultKind, DiskFaultPlan, DiskFaultSpec, FaultTarget};
pub use error::{IoError, Result};
pub use extsort::{external_sort_u64, merge_sorted_files};
pub use fault::FaultySource;
pub use mmap::{mmap_supported, MmapFetch, MmapSource};
pub use prefetch::{uring_supported, PrefetchReader, UringSource};
pub use stats::IoStats;
pub use stream::{
    BlockFetch, BlockStream, PreadFetch, SliceSource, U32Reader, U32Source, U32Writer,
    BYTES_PER_U32,
};
pub use timer::{CpuIoTimer, TimeBreakdown};
