//! Names the benchmark harness compiles against, kept as shims over
//! the blocking reader until it stops naming them.
//!
//! * [`PrefetchReader`] *is* [`U32Reader`]: the `prefetch` backend's
//!   transport, one synchronous read per block on the caller's thread,
//!   so it counts exactly the same `bytes_read`, `read_ops` and `seeks`
//!   and pays an emulated device latency
//!   ([`set_read_latency`](crate::BlockStream::set_read_latency)) the
//!   same way, once per block.
//! * [`UringSource`] is [`U32Reader`] too, and [`uring_supported`] is
//!   always `false`: the `io_uring` transport was deleted after cold
//!   and warm paired runs found it slower than the blocking reader. The
//!   harness's `io.scan_mb_per_s.uring` row measures the prefetch
//!   reader when [`uring_supported`] reads `false`.
//!
//! Once the harness stops naming them, all three names (and
//! `IoBackend::Prefetch`) can be deleted.

use crate::error::Result;
use crate::stream::U32Reader;

/// The blocking transport, under the `prefetch` backend's name.
pub type PrefetchReader = U32Reader;

impl PrefetchReader {
    /// Return `reader` unchanged. Never fails; it returns a `Result`
    /// like every other transport constructor.
    pub fn new(reader: U32Reader) -> Result<Self> {
        Ok(reader)
    }
}

/// The blocking transport, under the deleted `io_uring` transport's name.
pub type UringSource = U32Reader;

/// Whether the `io_uring` transport can serve reads: never, since it
/// was deleted.
pub fn uring_supported() -> bool {
    false
}
