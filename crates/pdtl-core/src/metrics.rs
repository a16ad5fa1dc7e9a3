//! Per-phase and per-worker measurement types.
//!
//! Everything the paper's evaluation reports — total time, calculation
//! time, per-core and per-node CPU/I-O breakdowns (Figures 6–8, Tables
//! III/IV/VII), counted scaling curves — is assembled from these records.

use std::time::Duration;

use pdtl_io::stats::IoSnapshot;
use pdtl_io::TimeBreakdown;

use crate::balance::{EdgeRange, PredictedCost};

/// Measurements of one sequential phase (orientation, load balancing,
/// aggregation).
#[derive(Debug, Clone, Default)]
pub struct PhaseReport {
    /// Wall time and CPU/I-O split of the phase.
    pub breakdown: TimeBreakdown,
    /// I/O performed by the phase.
    pub io: IoSnapshot,
    /// Elementary CPU operations counted by the phase.
    pub cpu_ops: u64,
    /// Threads the phase ran on.
    pub threads: usize,
}

/// Measurements of one MGT worker (one logical processor).
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Worker index within its node.
    pub worker: usize,
    /// The contiguous pivot-edge range the worker owned.
    pub range: EdgeRange,
    /// Triangles found in the range.
    pub triangles: u64,
    /// Chunk iterations performed (`R = ceil(S / cM)`).
    pub iterations: u64,
    /// Elementary CPU operations (array scans + the join's marks and
    /// probes).
    pub cpu_ops: u64,
    /// Out-list entries the scan passes read — what the planner
    /// predicts as [`PredictedCost::scanned`].
    pub scanned: u64,
    /// Out-lists the scan passes read.
    pub scan_lists: u64,
    /// The read out-lists the join used: they held a resident vertex
    /// with a later entry to pair it with. `scan_hits / scan_lists` is
    /// the useful share of the pruned scan.
    pub scan_hits: u64,
    /// The worker's I/O counters.
    pub io: IoSnapshot,
    /// The worker's wall time and CPU/I-O split.
    pub breakdown: TimeBreakdown,
}

/// The result of a full single-machine PDTL run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Exact triangle count.
    pub triangles: u64,
    /// Orientation phase measurements.
    pub orientation: PhaseReport,
    /// Load-balancing phase measurements.
    pub balancing: PhaseReport,
    /// The planned ranges with their predicted costs, in worker order.
    pub plan: Vec<(EdgeRange, PredictedCost)>,
    /// One report per worker.
    pub workers: Vec<WorkerReport>,
    /// End-to-end wall time.
    pub wall: Duration,
}

impl RunReport {
    /// Calculation wall time: the struggler worker's wall time (the
    /// paper: "the calculation time of the 'struggler' node determines
    /// entirely the overall calculation time").
    pub fn calc_wall(&self) -> Duration {
        self.workers
            .iter()
            .map(|w| w.breakdown.wall)
            .max()
            .unwrap_or_default()
    }

    /// How far the struggler ran past the average worker: max ÷ mean
    /// of the worker walls ([`imbalance`]).
    pub fn imbalance(&self) -> f64 {
        imbalance(self.workers.iter().map(|w| w.breakdown.wall))
    }

    /// Sum of all workers' I/O.
    pub fn total_worker_io(&self) -> IoSnapshot {
        self.workers
            .iter()
            .fold(IoSnapshot::default(), |acc, w| acc + w.io)
    }

    /// Sum of all workers' CPU operations.
    pub fn total_cpu_ops(&self) -> u64 {
        self.workers.iter().map(|w| w.cpu_ops).sum()
    }

    /// Sum of per-worker iteration counts.
    pub fn total_iterations(&self) -> u64 {
        self.workers.iter().map(|w| w.iterations).sum()
    }
}

/// Max ÷ mean of worker walls: 1 when every worker finishes together,
/// 0 when none did any work.
pub fn imbalance(walls: impl IntoIterator<Item = Duration>) -> f64 {
    let (mut max, mut sum, mut count) = (Duration::ZERO, Duration::ZERO, 0u32);
    for wall in walls {
        max = max.max(wall);
        sum += wall;
        count += 1;
    }
    if sum.is_zero() {
        0.0
    } else {
        max.as_secs_f64() * f64::from(count) / sum.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(wall_ms: u64, cpu_ops: u64, tri: u64) -> WorkerReport {
        WorkerReport {
            worker: 0,
            range: EdgeRange { start: 0, end: 10 },
            triangles: tri,
            iterations: 1,
            cpu_ops,
            scanned: 0,
            scan_lists: 0,
            scan_hits: 0,
            io: IoSnapshot {
                bytes_read: 1000,
                read_ops: 2,
                ..Default::default()
            },
            breakdown: TimeBreakdown {
                wall: Duration::from_millis(wall_ms),
                io: Duration::from_millis(wall_ms / 4),
            },
        }
    }

    fn report() -> RunReport {
        RunReport {
            triangles: 12,
            orientation: PhaseReport {
                cpu_ops: 1_000_000,
                threads: 2,
                ..Default::default()
            },
            balancing: PhaseReport::default(),
            plan: vec![],
            workers: vec![worker(10, 5_000_000, 4), worker(30, 20_000_000, 8)],
            wall: Duration::from_millis(50),
        }
    }

    #[test]
    fn calc_wall_is_struggler() {
        assert_eq!(report().calc_wall(), Duration::from_millis(30));
    }

    #[test]
    fn imbalance_is_max_over_mean_wall() {
        // walls 10 and 30 ms: max 30 over mean 20
        assert!((report().imbalance() - 1.5).abs() < 1e-12);
        assert_eq!(imbalance([]), 0.0);
    }

    #[test]
    fn totals_aggregate_workers() {
        let r = report();
        assert_eq!(r.total_cpu_ops(), 25_000_000);
        assert_eq!(r.total_worker_io().bytes_read, 2000);
        assert_eq!(r.total_iterations(), 2);
    }

    #[test]
    fn empty_workers_degenerate() {
        let r = RunReport {
            triangles: 0,
            orientation: PhaseReport::default(),
            balancing: PhaseReport::default(),
            plan: vec![],
            workers: vec![],
            wall: Duration::ZERO,
        };
        assert_eq!(r.calc_wall(), Duration::ZERO);
        assert_eq!(r.imbalance(), 0.0);
    }
}
