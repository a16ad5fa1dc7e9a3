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
//!   [`BlockFetch`] that only delivers blocks. The four transports are
//!   that cursor over four fetchers, so backend ablations compare pure
//!   scheduling, not different I/O plans:
//!   [`U32Reader`] (synchronous reads), [`PrefetchReader`] (a read-ahead
//!   thread, re-aimed at the next chunk by [`BlockFetch::hint`]),
//!   [`MmapSource`] (the file mapped and lent zero-copy) and
//!   [`UringSource`] (several block reads in flight through `io_uring`,
//!   no threads). [`IoBackend::open`] picks one at run time; consumers
//!   see the [`U32Source`] seam.
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
//! * [`CostModel`] — converts the counted work (CPU operations, I/O bytes,
//!   network bytes) into deterministic *modeled seconds*, which is how the
//!   scaling experiments reproduce the paper's curves on arbitrary hosts.

#![warn(missing_docs)]

pub mod backend;
pub mod budget;
pub mod checksum;
pub mod codec;
pub mod cost;
pub mod diskfault;
pub mod error;
pub mod extsort;
pub mod fault;
pub mod mmap;
pub mod prefetch;
pub mod stats;
pub mod stream;
pub mod timer;
pub mod uring;

pub use backend::{IoBackend, BACKEND_ENV};
pub use budget::{BudgetLease, BudgetLedger, MemoryBudget};
pub use checksum::{crc32c, crc32c_of_file, Crc32c};
pub use codec::{Codec, VarintAdjWriter, VarintIndex, VarintSource, CODEC_ENV};
pub use cost::{CostModel, ModeledTime};
pub use diskfault::{DiskFaultKind, DiskFaultPlan, DiskFaultSpec, FaultTarget, DISK_FAULT_ENV};
pub use error::{IoError, Result};
pub use extsort::{external_sort_u64, merge_sorted_files};
pub use fault::FaultySource;
pub use mmap::{mmap_supported, MmapFetch, MmapSource};
pub use prefetch::{PrefetchReader, ProducerFetch};
pub use stats::IoStats;
pub use stream::{
    BlockFetch, BlockStream, PreadFetch, U32Reader, U32Source, U32Writer, BYTES_PER_U32,
};
pub use timer::{CpuIoTimer, TimeBreakdown};
pub use uring::{uring_supported, UringFetch, UringSource, URING_DISABLE_ENV};
