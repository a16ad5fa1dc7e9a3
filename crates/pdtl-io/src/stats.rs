//! Shared atomic I/O statistics in the Aggarwal–Vitter block model.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default block size `B` used for block accounting (64 KiB, a typical SSD
/// request size; the paper's analysis is parametric in `B`).
pub const DEFAULT_BLOCK_SIZE: u64 = 64 * 1024;

/// Thread-safe I/O counters.
///
/// One `IoStats` is shared (via `Arc`) by every reader/writer belonging to
/// a logical processor, so per-core and per-node I/O can be reported the
/// way the paper's Table IV and Figures 6–8 do. All counters use relaxed
/// atomics: they are statistics, not synchronisation.
#[derive(Debug, Default)]
pub struct IoStats {
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    read_ops: AtomicU64,
    write_ops: AtomicU64,
    seeks: AtomicU64,
    io_nanos: AtomicU64,
    u32s_decoded: AtomicU64,
}

impl IoStats {
    /// Create a fresh, zeroed counter set behind an `Arc`.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Record a read of `bytes` that took `elapsed` wall time.
    pub fn record_read(&self, bytes: u64, elapsed: Duration) {
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.read_ops.fetch_add(1, Ordering::Relaxed);
        self.io_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Record a write of `bytes` that took `elapsed` wall time.
    pub fn record_write(&self, bytes: u64, elapsed: Duration) {
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.write_ops.fetch_add(1, Ordering::Relaxed);
        self.io_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Record a seek (random access) without a byte transfer.
    pub fn record_seek(&self) {
        self.seeks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` logical `u32` values produced by a codec layer.
    ///
    /// This is the second accounting dimension introduced by the
    /// transport × codec split: `bytes_read`/`seeks` keep counting what
    /// the *device* moved (the Aggarwal–Vitter transfers that feed
    /// `theorem_bytes()`), while this counter measures the decoded
    /// logical volume above the codec. Under the `Raw` codec engines
    /// read transports directly (the codec layer is the identity) and
    /// this stays zero; under `DeltaVarint` it counts the `u32`s the
    /// decoder produced, and the gap between `u32s_decoded * 4` and the
    /// adjacency `bytes_read` is exactly the compression win. Only
    /// codec-layer objects call this; transports never do, so the
    /// dimensions cannot double count.
    pub fn record_decoded(&self, n: u64) {
        self.u32s_decoded.fetch_add(n, Ordering::Relaxed);
    }

    /// Total bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Total bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Number of read operations issued.
    pub fn read_ops(&self) -> u64 {
        self.read_ops.load(Ordering::Relaxed)
    }

    /// Number of write operations issued.
    pub fn write_ops(&self) -> u64 {
        self.write_ops.load(Ordering::Relaxed)
    }

    /// Number of seeks issued.
    pub fn seeks(&self) -> u64 {
        self.seeks.load(Ordering::Relaxed)
    }

    /// Logical `u32` values produced by codec layers so far.
    pub fn u32s_decoded(&self) -> u64 {
        self.u32s_decoded.load(Ordering::Relaxed)
    }

    /// Wall time spent blocked in I/O calls.
    pub fn io_time(&self) -> Duration {
        Duration::from_nanos(self.io_nanos.load(Ordering::Relaxed))
    }

    /// Block transfers in the Aggarwal–Vitter model with block size `b`:
    /// `ceil(bytes / b)` for the sequential byte volume, plus one transfer
    /// per seek (a random access touches at least one block).
    pub fn blocks(&self, b: u64) -> u64 {
        let bytes = self.bytes_read() + self.bytes_written();
        bytes.div_ceil(b.max(1)) + self.seeks()
    }

    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read() + self.bytes_written()
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.read_ops.store(0, Ordering::Relaxed);
        self.write_ops.store(0, Ordering::Relaxed);
        self.seeks.store(0, Ordering::Relaxed);
        self.io_nanos.store(0, Ordering::Relaxed);
        self.u32s_decoded.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            bytes_read: self.bytes_read(),
            bytes_written: self.bytes_written(),
            read_ops: self.read_ops(),
            write_ops: self.write_ops(),
            seeks: self.seeks(),
            io_time: self.io_time(),
            u32s_decoded: self.u32s_decoded(),
        }
    }
}

/// An immutable copy of [`IoStats`] counters, cheap to move between
/// threads and embed in experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Read operations issued.
    pub read_ops: u64,
    /// Write operations issued.
    pub write_ops: u64,
    /// Seeks issued.
    pub seeks: u64,
    /// Wall time spent blocked in I/O.
    pub io_time: Duration,
    /// Logical `u32` values produced by codec layers (see
    /// [`IoStats::record_decoded`]).
    pub u32s_decoded: u64,
}

impl IoSnapshot {
    /// What the counters accrued since `earlier`, a snapshot of the
    /// same [`IoStats`] taken before this one.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            read_ops: self.read_ops - earlier.read_ops,
            write_ops: self.write_ops - earlier.write_ops,
            seeks: self.seeks - earlier.seeks,
            io_time: self.io_time.saturating_sub(earlier.io_time),
            u32s_decoded: self.u32s_decoded - earlier.u32s_decoded,
        }
    }

    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Block transfers at block size `b` (see [`IoStats::blocks`]).
    pub fn blocks(&self, b: u64) -> u64 {
        self.total_bytes().div_ceil(b.max(1)) + self.seeks
    }
}

/// Counter-wise sum, for totals over workers or phases.
impl std::ops::Add for IoSnapshot {
    type Output = IoSnapshot;

    fn add(self, other: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            read_ops: self.read_ops + other.read_ops,
            write_ops: self.write_ops + other.write_ops,
            seeks: self.seeks + other.seeks,
            io_time: self.io_time + other.io_time,
            u32s_decoded: self.u32s_decoded + other.u32s_decoded,
        }
    }
}

/// Number of I/Os a sequential scan of `n` items of `item_bytes` each
/// performs at block size `b`: `scan(N) = ceil(N / B)`.
pub fn scan_ios(n: u64, item_bytes: u64, b: u64) -> u64 {
    (n * item_bytes).div_ceil(b.max(1))
}

/// Number of I/Os an external merge sort of `n` items performs at block
/// size `b` with memory for `m` items: `sort(N) = (N/B) * ceil(log_{M/B}(N/B))`
/// (the textbook bound; one merge pass when `n <= m * (m/B)`).
pub fn sort_ios(n: u64, item_bytes: u64, m_items: u64, b: u64) -> u64 {
    let b = b.max(1);
    let blocks = (n * item_bytes).div_ceil(b);
    let fan_in = ((m_items * item_bytes) / b).max(2);
    let mut passes = 1u64;
    let mut runs = (n * item_bytes).div_ceil(m_items.max(1) * item_bytes);
    while runs > 1 {
        runs = runs.div_ceil(fan_in);
        passes += 1;
    }
    2 * blocks * passes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_back() {
        let s = IoStats::new();
        s.record_read(100, Duration::from_millis(2));
        s.record_write(50, Duration::from_millis(1));
        s.record_seek();
        assert_eq!(s.bytes_read(), 100);
        assert_eq!(s.bytes_written(), 50);
        assert_eq!(s.read_ops(), 1);
        assert_eq!(s.write_ops(), 1);
        assert_eq!(s.seeks(), 1);
        assert_eq!(s.io_time(), Duration::from_millis(3));
        assert_eq!(s.total_bytes(), 150);
    }

    #[test]
    fn blocks_round_up_and_count_seeks() {
        let s = IoStats::new();
        s.record_read(1, Duration::ZERO);
        assert_eq!(s.blocks(4096), 1);
        s.record_read(4096, Duration::ZERO);
        assert_eq!(s.blocks(4096), 2); // 4097 bytes -> 2 blocks
        s.record_seek();
        assert_eq!(s.blocks(4096), 3);
    }

    #[test]
    fn decoded_dimension_is_independent_of_byte_counters() {
        let s = IoStats::new();
        s.record_decoded(1000);
        assert_eq!(s.u32s_decoded(), 1000);
        assert_eq!(s.bytes_read(), 0, "decoding moves no device bytes");
        assert_eq!(s.blocks(4096), 0, "A-V transfers see only real I/O");
        assert_eq!(s.snapshot().u32s_decoded, 1000);
        s.reset();
        assert_eq!(s.u32s_decoded(), 0);
    }

    #[test]
    fn reset_zeroes() {
        let s = IoStats::new();
        s.record_write(10, Duration::from_nanos(1));
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn snapshot_matches_counters() {
        let s = IoStats::new();
        s.record_read(8, Duration::from_nanos(3));
        let snap = s.snapshot();
        assert_eq!(snap.bytes_read, 8);
        assert_eq!(snap.read_ops, 1);
        assert_eq!(snap.total_bytes(), 8);
        assert_eq!(snap.blocks(4), 2);
    }

    #[test]
    fn scan_formula() {
        assert_eq!(scan_ios(0, 4, 4096), 0);
        assert_eq!(scan_ios(1024, 4, 4096), 1);
        assert_eq!(scan_ios(1025, 4, 4096), 2);
    }

    #[test]
    fn sort_formula_single_pass_when_fits() {
        // n items fit in memory -> one run -> 1 pass over data (2x blocks).
        let ios = sort_ios(1000, 8, 2000, 4096);
        assert_eq!(ios, 2 * (8000u64).div_ceil(4096));
    }

    #[test]
    fn sort_formula_grows_with_passes() {
        let small_mem = sort_ios(1_000_000, 8, 1_000, 4096);
        let big_mem = sort_ios(1_000_000, 8, 1_000_000, 4096);
        assert!(small_mem > big_mem);
    }

    #[test]
    fn zero_block_size_does_not_panic() {
        let s = IoStats::new();
        s.record_read(10, Duration::ZERO);
        assert_eq!(s.blocks(0), 10);
        assert_eq!(scan_ios(10, 1, 0), 10);
    }
}
