//! Wall-clock timers that split elapsed time into CPU and I/O shares.
//!
//! The paper's Figures 6–8 and Tables IV/VII report, per core and per node,
//! how much of the total time was spent computing versus blocked on disk.
//! [`CpuIoTimer`] reproduces that instrumentation: the I/O share comes from
//! the [`IoStats`] counters that every counted stream
//! updates, and the CPU share is the remainder of wall time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::stats::IoStats;

/// Measures a worker's wall time and splits it using the I/O time
/// accumulated in an [`IoStats`].
#[derive(Debug)]
pub struct CpuIoTimer {
    stats: Arc<IoStats>,
    start: Instant,
    io_at_start: Duration,
}

impl CpuIoTimer {
    /// Start timing against `stats` (captures the current I/O time so the
    /// breakdown covers only this timer's window).
    pub fn start(stats: Arc<IoStats>) -> Self {
        let io_at_start = stats.io_time();
        Self {
            stats,
            start: Instant::now(),
            io_at_start,
        }
    }

    /// Stop and produce the breakdown for the timed window.
    pub fn finish(self) -> TimeBreakdown {
        let wall = self.start.elapsed();
        let io = self
            .stats
            .io_time()
            .saturating_sub(self.io_at_start)
            .min(wall);
        TimeBreakdown { wall, io }
    }
}

/// Elapsed wall time split into I/O wait and compute.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Total wall time of the window.
    pub wall: Duration,
    /// Portion spent blocked in I/O calls.
    pub io: Duration,
}

impl TimeBreakdown {
    /// Compute share: wall minus I/O.
    pub fn cpu(&self) -> Duration {
        self.wall.saturating_sub(self.io)
    }

    /// Sum two breakdowns (e.g. across phases).
    pub fn merged(&self, other: &TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            wall: self.wall + other.wall,
            io: self.io + other.io,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_splits_wall_time() {
        let stats = IoStats::new();
        let t = CpuIoTimer::start(stats.clone());
        stats.record_read(100, Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(10));
        let b = t.finish();
        assert!(b.wall >= Duration::from_millis(10));
        assert_eq!(b.io, Duration::from_millis(5));
        assert!(b.cpu() >= Duration::from_millis(5));
    }

    #[test]
    fn io_before_start_is_excluded() {
        let stats = IoStats::new();
        stats.record_read(100, Duration::from_secs(100)); // pre-existing
        let t = CpuIoTimer::start(stats.clone());
        stats.record_read(1, Duration::from_nanos(10));
        let b = t.finish();
        assert!(b.io < Duration::from_secs(1));
    }

    #[test]
    fn io_clamped_to_wall() {
        // Concurrent writers can accumulate more I/O time than one
        // thread's wall clock; the breakdown must stay sane.
        let stats = IoStats::new();
        let t = CpuIoTimer::start(stats.clone());
        stats.record_read(1, Duration::from_secs(3600));
        let b = t.finish();
        assert_eq!(b.io, b.wall);
        assert_eq!(b.cpu(), Duration::ZERO);
    }

    #[test]
    fn merged_sums_components() {
        let a = TimeBreakdown {
            wall: Duration::from_secs(2),
            io: Duration::from_secs(1),
        };
        let b = TimeBreakdown {
            wall: Duration::from_secs(4),
            io: Duration::from_secs(2),
        };
        let m = a.merged(&b);
        assert_eq!(m.wall, Duration::from_secs(6));
        assert_eq!(m.io, Duration::from_secs(3));
        assert_eq!(m.cpu(), Duration::from_secs(3));
    }
}
