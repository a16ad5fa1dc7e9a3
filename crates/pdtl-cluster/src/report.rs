//! Cluster-level result records.
//!
//! These aggregate the wire-level [`WorkerSummary`] records into the
//! per-node and cluster-wide quantities the paper's evaluation reports:
//! per-node CPU/I-O totals (Table IV, Figures 7/8), average copy times
//! (Table III), calculation time as the struggler node's wall time
//! (Section V-E3), and total network traffic (Theorem IV.3).

use std::time::Duration;

use pdtl_core::{EdgeRange, PhaseReport, PredictedCost};

use crate::message::WorkerSummary;

/// Per-node outcome.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Node id (0 = master).
    pub node: usize,
    /// Wall time spent copying this node's replica (zero for the
    /// master, which owns the original).
    pub copy: Duration,
    /// Bytes replicated to this node.
    pub copy_bytes: u64,
    /// Per-worker summaries.
    pub workers: Vec<WorkerSummary>,
    /// Node wall time from config receipt to results sent.
    pub wall: Duration,
    /// Ranges this node absorbed from failed peers.
    pub reassigned_ranges: u64,
}

impl NodeReport {
    /// Triangles found on this node.
    pub fn triangles(&self) -> u64 {
        self.workers.iter().map(|w| w.triangles).sum()
    }

    /// Total CPU time proxy: counted operations summed over workers.
    pub fn cpu_ops(&self) -> u64 {
        self.workers.iter().map(|w| w.cpu_ops).sum()
    }

    /// Total bytes of disk I/O over the node's workers.
    pub fn io_bytes(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.bytes_read + w.bytes_written)
            .sum()
    }

    /// Total wall nanoseconds workers spent blocked on I/O.
    pub fn io_nanos(&self) -> u64 {
        self.workers.iter().map(|w| w.io_nanos).sum()
    }

    /// The node's calculation wall time: its slowest worker.
    pub fn calc_wall(&self) -> Duration {
        Duration::from_nanos(self.workers.iter().map(|w| w.wall_nanos).max().unwrap_or(0))
    }
}

/// A snapshot of the five network traffic classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    /// Configuration bytes (`Θ(NP)`).
    pub config: u64,
    /// Graph replication bytes (`Θ(N|E|)`).
    pub graph: u64,
    /// Result bytes.
    pub result: u64,
    /// Triangle-list bytes (`Θ(T)`).
    pub triangles: u64,
    /// Control-plane bytes (heartbeats, shutdowns) — liveness overhead
    /// outside Theorem IV.3's three terms.
    pub control: u64,
}

impl NetSnapshot {
    /// All traffic.
    pub fn total(&self) -> u64 {
        self.config + self.graph + self.result + self.triangles + self.control
    }

    /// The traffic Theorem IV.3 bounds: everything except the
    /// control plane, whose heartbeat volume is a function of wall
    /// time, not of `N`, `P` or `T`.
    pub fn theorem_bytes(&self) -> u64 {
        self.config + self.graph + self.result + self.triangles
    }
}

/// The outcome of a distributed run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Exact triangle count.
    pub triangles: u64,
    /// Master's orientation phase.
    pub orientation: PhaseReport,
    /// Master's load-balancing phase.
    pub balancing: PhaseReport,
    /// The `N·P` planned ranges with their predicted costs, in range
    /// order.
    pub plan: Vec<(EdgeRange, PredictedCost)>,
    /// Per-node reports, index = node id.
    pub nodes: Vec<NodeReport>,
    /// Network traffic by class.
    pub network: NetSnapshot,
    /// End-to-end wall time.
    pub wall: Duration,
    /// Collected triangles (listing mode only).
    pub listed: Option<Vec<(u32, u32, u32)>>,
    /// Node dispatch retries performed (respawns after a failure).
    pub retries: u64,
    /// Worker ranges re-dispatched away from failed nodes.
    pub reassigned_ranges: u64,
    /// Nodes given up on after exhausting their retry budget.
    pub failed_nodes: Vec<usize>,
}

impl ClusterReport {
    /// Cluster calculation time: the struggler node.
    pub fn calc_wall(&self) -> Duration {
        self.nodes
            .iter()
            .map(|n| n.calc_wall())
            .max()
            .unwrap_or_default()
    }

    /// Max ÷ mean of every worker's wall across the cluster, the twin of
    /// [`RunReport::imbalance`](pdtl_core::RunReport::imbalance).
    pub fn imbalance(&self) -> f64 {
        let walls = self.nodes.iter().flat_map(|n| &n.workers);
        pdtl_core::metrics::imbalance(walls.map(|w| Duration::from_nanos(w.wall_nanos)))
    }

    /// Average copy wall time over remote (non-master) nodes — the
    /// "Avg copy time" column of Table III.
    pub fn avg_copy(&self) -> Duration {
        let remote: Vec<_> = self.nodes.iter().filter(|n| n.copy_bytes > 0).collect();
        if remote.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = remote.iter().map(|n| n.copy).sum();
        total / remote.len() as u32
    }

    /// Sum of per-node triangle counts (must equal `triangles`).
    pub fn node_triangle_sum(&self) -> u64 {
        self.nodes.iter().map(|n| n.triangles()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(w: u32, tri: u64, wall_ms: u64) -> WorkerSummary {
        WorkerSummary {
            worker: w,
            start: 0,
            end: 10,
            triangles: tri,
            iterations: 1,
            cpu_ops: 1_000_000 * (w as u64 + 1),
            bytes_read: 5000,
            bytes_written: 0,
            seeks: 1,
            io_ops: 3,
            io_nanos: 1000,
            wall_nanos: wall_ms * 1_000_000,
        }
    }

    fn node(id: usize, copy_ms: u64, walls: &[u64]) -> NodeReport {
        NodeReport {
            node: id,
            copy: Duration::from_millis(copy_ms),
            copy_bytes: if copy_ms == 0 { 0 } else { copy_ms * 1000 },
            workers: walls
                .iter()
                .enumerate()
                .map(|(i, &w)| summary(i as u32, 5, w))
                .collect(),
            wall: Duration::from_millis(*walls.iter().max().unwrap_or(&0)),
            reassigned_ranges: 0,
        }
    }

    fn report() -> ClusterReport {
        ClusterReport {
            triangles: 20,
            orientation: PhaseReport::default(),
            balancing: PhaseReport::default(),
            plan: vec![],
            nodes: vec![node(0, 0, &[10, 20]), node(1, 7, &[30, 5])],
            network: NetSnapshot {
                config: 100,
                graph: 10_000,
                result: 200,
                triangles: 0,
                control: 50,
            },
            wall: Duration::from_millis(60),
            listed: None,
            retries: 0,
            reassigned_ranges: 0,
            failed_nodes: vec![],
        }
    }

    #[test]
    fn calc_wall_is_struggler_node() {
        assert_eq!(report().calc_wall(), Duration::from_millis(30));
    }

    #[test]
    fn imbalance_spans_every_node() {
        // walls 10, 20, 30, 5 ms: max 30 over mean 16.25
        assert!((report().imbalance() - 30.0 / 16.25).abs() < 1e-12);
    }

    #[test]
    fn avg_copy_ignores_master() {
        assert_eq!(report().avg_copy(), Duration::from_millis(7));
    }

    #[test]
    fn node_aggregates() {
        let r = report();
        assert_eq!(r.nodes[0].triangles(), 10);
        assert_eq!(r.node_triangle_sum(), 20);
        assert_eq!(r.nodes[0].io_bytes(), 10_000);
        assert_eq!(r.nodes[0].cpu_ops(), 3_000_000);
    }

    #[test]
    fn net_snapshot_totals() {
        assert_eq!(report().network.total(), 10_350);
        // heartbeat overhead stays out of the theorem-bound classes
        assert_eq!(report().network.theorem_bytes(), 10_300);
    }

    #[test]
    fn empty_cluster_degenerates() {
        let r = ClusterReport {
            triangles: 0,
            orientation: PhaseReport::default(),
            balancing: PhaseReport::default(),
            plan: vec![],
            nodes: vec![],
            network: NetSnapshot::default(),
            wall: Duration::ZERO,
            listed: None,
            retries: 0,
            reassigned_ranges: 0,
            failed_nodes: vec![],
        };
        assert_eq!(r.calc_wall(), Duration::ZERO);
        assert_eq!(r.imbalance(), 0.0);
        assert_eq!(r.avg_copy(), Duration::ZERO);
    }
}
