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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{U32Source, U32Writer};
    use crate::IoStats;
    use std::path::PathBuf;
    use std::sync::Arc;
    use std::time::Duration;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdtl-prefetch-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn write_vals(name: &str, vals: &[u32]) -> PathBuf {
        let p = tmp(name);
        let stats = IoStats::new();
        let mut w = U32Writer::create(&p, stats).unwrap();
        w.write_all(vals).unwrap();
        w.finish().unwrap();
        p
    }

    /// Drive any `U32Source` through a mixed access pattern and return
    /// everything it produced.
    fn drive(r: &mut impl U32Source) -> Vec<u32> {
        let mut out = Vec::new();
        r.read_into(&mut out, 100).unwrap();
        r.skip(37).unwrap(); // short: read-through
        r.read_into(&mut out, 50).unwrap();
        r.skip(5000).unwrap(); // long: seek
        r.read_into(&mut out, 200).unwrap();
        r.seek_to(3).unwrap();
        r.read_into(&mut out, 10).unwrap();
        r.skip(u64::MAX).unwrap(); // clamps at EOF
        r.read_into(&mut out, 10).unwrap(); // nothing left
        out
    }

    #[test]
    fn matches_blocking_reader_values_and_accounting() {
        let vals: Vec<u32> = (0..20_000).map(|i| i * 7 + 1).collect();
        let p = write_vals("parity", &vals);

        let blocking_stats = IoStats::new();
        let mut blocking = U32Reader::with_buffer(&p, blocking_stats.clone(), 512).unwrap();
        let blocking_out = drive(&mut blocking);

        let prefetch_stats = IoStats::new();
        let mut prefetch =
            PrefetchReader::new(U32Reader::with_buffer(&p, prefetch_stats.clone(), 512).unwrap())
                .unwrap();
        let prefetch_out = drive(&mut prefetch);

        assert_eq!(prefetch_out, blocking_out, "identical value streams");
        assert_eq!(prefetch.position(), blocking.position());
        assert_eq!(
            prefetch_stats.bytes_read(),
            blocking_stats.bytes_read(),
            "the prefetch name must not change the byte accounting"
        );
        assert_eq!(
            prefetch_stats.seeks(),
            blocking_stats.seeks(),
            "the prefetch name must not change the seek accounting"
        );
    }

    #[test]
    fn sequential_read_all_round_trips() {
        let vals: Vec<u32> = (0..100_000).collect();
        let p = write_vals("seq", &vals);
        let stats = IoStats::new();
        let mut r =
            PrefetchReader::new(U32Reader::with_buffer(&p, stats.clone(), 1000).unwrap()).unwrap();
        let mut out = Vec::new();
        assert_eq!(r.read_into(&mut out, vals.len() + 5).unwrap(), vals.len());
        assert_eq!(out, vals);
        assert_eq!(stats.bytes_read(), vals.len() as u64 * 4);
        assert!(stats.io_time() > Duration::ZERO);
    }

    #[test]
    fn seek_discards_read_ahead_without_charging_it() {
        let vals: Vec<u32> = (0..50_000).collect();
        let p = write_vals("discard", &vals);
        let stats = IoStats::new();
        let mut r =
            PrefetchReader::new(U32Reader::with_buffer(&p, stats.clone(), 100).unwrap()).unwrap();
        let mut out = Vec::new();
        // Consume one block, then jump: the block skipped over is never
        // read, so never charged.
        r.read_into(&mut out, 100).unwrap();
        r.seek_to(40_000).unwrap();
        out.clear();
        r.read_into(&mut out, 100).unwrap();
        assert_eq!(out[0], 40_000);
        assert_eq!(
            stats.bytes_read(),
            2 * 100 * 4,
            "only the two consumed blocks are charged"
        );
        assert_eq!(stats.seeks(), 1);
    }

    #[test]
    fn repeated_rescans_deliver_identical_data() {
        // The MGT scan pass seeks back to 0 once per chunk iteration.
        let vals: Vec<u32> = (0..5_000).map(|i| i ^ 0xA5A5).collect();
        let p = write_vals("rescan", &vals);
        let mut r =
            PrefetchReader::new(U32Reader::with_buffer(&p, IoStats::new(), 64).unwrap()).unwrap();
        for _ in 0..5 {
            r.seek_to(0).unwrap();
            let mut out = Vec::new();
            r.read_into(&mut out, vals.len()).unwrap();
            assert_eq!(out, vals);
        }
    }

    /// A reader over `0..n` in 100-value blocks, every block read
    /// costing an emulated `latency_ms`.
    fn slow_reader(name: &str, n: u32, latency_ms: u64) -> (PrefetchReader, Arc<IoStats>) {
        let p = write_vals(name, &(0..n).collect::<Vec<u32>>());
        let stats = IoStats::new();
        let mut r = U32Reader::with_buffer(&p, stats.clone(), 100).unwrap();
        r.set_read_latency(Duration::from_millis(latency_ms));
        (PrefetchReader::new(r).unwrap(), stats)
    }

    #[test]
    fn hint_not_followed_is_discarded_uncharged() {
        let (mut r, stats) = slow_reader("hint-miss", 50_000, 1);
        let mut buf = Vec::new();
        r.hint_range(20_000, 600);
        r.range_run(0, 100, &mut buf).unwrap();
        let run = r.range_run(40_000, 150, &mut buf).unwrap();
        assert_eq!((run[0], run[149]), (40_000, 40_149));
        // Reading on from there fetches at a position no hint named.
        r.hint_range(100, 100);
        assert_eq!(r.range_run(300, 100, &mut buf).unwrap()[0], 300);
        assert_eq!(r.next_run(100, &mut buf).unwrap()[0], 400);
        assert_eq!(
            stats.bytes_read(),
            (1 + 2 + 1 + 1) * 100 * 4,
            "only consumed blocks are charged, never a hinted range"
        );
        assert_eq!(stats.seeks(), 3);
        // A hint is not a device read: five blocks, five emulated waits.
        assert!(stats.io_time() >= Duration::from_millis(5));
    }
}
