//! Per-phase and per-worker measurement types.
//!
//! Everything the paper's evaluation reports — total time, calculation
//! time, per-core and per-node CPU/I-O breakdowns (Figures 6–8, Tables
//! III/IV/VII), modeled scaling curves — is assembled from these records.

use std::time::Duration;

use pdtl_io::stats::IoSnapshot;
use pdtl_io::{CostModel, ModeledTime, TimeBreakdown};

use crate::balance::EdgeRange;

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

impl PhaseReport {
    /// Deterministic modeled time of the phase under `cm`, with CPU work
    /// divided across the phase's threads.
    pub fn modeled(&self, cm: &CostModel) -> ModeledTime {
        ModeledTime {
            cpu: cm.cpu_seconds(self.cpu_ops) / self.threads.max(1) as f64,
            io: cm.io_seconds(self.io.total_bytes(), self.io.read_ops + self.io.write_ops),
            net: 0.0,
        }
    }
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
    /// The worker's I/O counters.
    pub io: IoSnapshot,
    /// The worker's wall time and CPU/I-O split.
    pub breakdown: TimeBreakdown,
}

impl WorkerReport {
    /// Deterministic modeled time under `cm`.
    pub fn modeled(&self, cm: &CostModel) -> ModeledTime {
        ModeledTime {
            cpu: cm.cpu_seconds(self.cpu_ops),
            io: cm.io_seconds(self.io.total_bytes(), self.io.read_ops + self.io.write_ops),
            net: 0.0,
        }
    }
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

    /// Modeled calculation time: max over workers (they run in
    /// parallel), compute and I/O overlapped within a worker.
    pub fn modeled_calc(&self, cm: &CostModel) -> f64 {
        self.workers
            .iter()
            .map(|w| w.modeled(cm).total_overlapped())
            .fold(0.0, f64::max)
    }

    /// Modeled total: orientation + balancing (sequential phases) + the
    /// parallel calculation.
    pub fn modeled_total(&self, cm: &CostModel) -> f64 {
        self.orientation.modeled(cm).total_overlapped()
            + self.balancing.modeled(cm).total_overlapped()
            + self.modeled_calc(cm)
    }

    /// Sum of all workers' I/O.
    pub fn total_worker_io(&self) -> IoSnapshot {
        let mut acc = IoSnapshot::default();
        for w in &self.workers {
            acc.bytes_read += w.io.bytes_read;
            acc.bytes_written += w.io.bytes_written;
            acc.read_ops += w.io.read_ops;
            acc.write_ops += w.io.write_ops;
            acc.seeks += w.io.seeks;
            acc.io_time += w.io.io_time;
            acc.u32s_decoded += w.io.u32s_decoded;
        }
        acc
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
            workers: vec![worker(10, 5_000_000, 4), worker(30, 20_000_000, 8)],
            wall: Duration::from_millis(50),
        }
    }

    #[test]
    fn calc_wall_is_struggler() {
        assert_eq!(report().calc_wall(), Duration::from_millis(30));
    }

    #[test]
    fn modeled_calc_is_max_over_workers() {
        let r = report();
        let cm = CostModel::default();
        let slow = r.workers[1].modeled(&cm).total_overlapped();
        assert!((r.modeled_calc(&cm) - slow).abs() < 1e-12);
    }

    #[test]
    fn modeled_total_includes_phases() {
        let r = report();
        let cm = CostModel::default();
        assert!(r.modeled_total(&cm) > r.modeled_calc(&cm));
    }

    #[test]
    fn phase_modeled_divides_cpu_by_threads() {
        let p = PhaseReport {
            cpu_ops: 200_000_000, // 1 second at the default rate
            threads: 4,
            ..Default::default()
        };
        let cm = CostModel::default();
        assert!((p.modeled(&cm).cpu - 0.25).abs() < 1e-9);
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
            workers: vec![],
            wall: Duration::ZERO,
        };
        assert_eq!(r.calc_wall(), Duration::ZERO);
        assert_eq!(r.modeled_calc(&CostModel::default()), 0.0);
    }
}
