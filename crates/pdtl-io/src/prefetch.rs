//! The `prefetch` backend's transport: the blocking reader, under the
//! name the default backend and the benchmark harness use.
//!
//! [`PrefetchReader`] *is* [`U32Reader`]: one synchronous read per
//! block on the caller's thread, so it counts exactly the same
//! `bytes_read`, `read_ops` and `seeks` and pays an emulated device
//! latency ([`set_read_latency`](crate::BlockStream::set_read_latency))
//! the same way, once per block. Overlapping device waits with compute
//! is the `io_uring` backend's job ([`UringSource`](crate::UringSource)),
//! whose in-flight reads model a device queue.
//!
//! The names exist because the benchmark harness compiles against
//! them; once it stops naming [`PrefetchReader`] and
//! `IoBackend::Prefetch`, both can be deleted.

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
