//! Deterministic cost model: counted work → modeled seconds.
//!
//! The paper evaluates PDTL on specific hardware (32-vCPU EC2 nodes, SSDs
//! capped at 500 MB/s, 10 GbE). This reproduction runs wherever `cargo`
//! does, so in addition to measured wall time every experiment reports a
//! *modeled* time derived from the exact work counted during execution
//! (CPU operations from the engines' own counters, bytes from
//! [`IoStats`](crate::IoStats), network bytes from the cluster transport).
//! Because the counted work follows the paper's cost analysis
//! (Theorem IV.3), the modeled curves reproduce the *shape* of the paper's
//! figures deterministically — independent of the host's core count or
//! disk cache state.

/// Throughput parameters converting counted work into seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Elementary CPU operations per second per core (comparisons,
    /// array writes). Default 2e8 — ~5 ns per counted operation,
    /// calibrated so the I/O share of a counting run matches the
    /// paper's Figure 6 on its 2013-era Opteron/Xeon hardware (each
    /// counted "operation" is a cache-unfriendly array access plus
    /// branch, several cycles in practice).
    pub cpu_ops_per_sec: f64,
    /// Sequential disk bandwidth in bytes/second. Default 500 MB/s, the
    /// Samsung 840 SSD cap the paper reports in Figure 2's discussion.
    pub io_bytes_per_sec: f64,
    /// Per-I/O-operation latency in seconds (seek / request overhead).
    pub io_op_latency: f64,
    /// Network bandwidth in bytes/second. Default 1.25e9 (10 GbE).
    pub net_bytes_per_sec: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            cpu_ops_per_sec: 2.0e8,
            io_bytes_per_sec: 500.0e6,
            io_op_latency: 100.0e-6,
            net_bytes_per_sec: 1.25e9,
        }
    }
}

impl CostModel {
    /// Seconds of compute for `ops` elementary operations.
    pub fn cpu_seconds(&self, ops: u64) -> f64 {
        ops as f64 / self.cpu_ops_per_sec
    }

    /// Seconds of disk time for `bytes` moved in `ops` requests.
    pub fn io_seconds(&self, bytes: u64, ops: u64) -> f64 {
        bytes as f64 / self.io_bytes_per_sec + ops as f64 * self.io_op_latency
    }

    /// Seconds to move `bytes` over the network.
    pub fn net_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.net_bytes_per_sec
    }

    /// Full modeled time for a worker that did `cpu_ops` operations and
    /// moved `io_bytes` in `io_ops` requests plus `net_bytes` over the
    /// network.
    pub fn model(&self, cpu_ops: u64, io_bytes: u64, io_ops: u64, net_bytes: u64) -> ModeledTime {
        ModeledTime {
            cpu: self.cpu_seconds(cpu_ops),
            io: self.io_seconds(io_bytes, io_ops),
            net: self.net_seconds(net_bytes),
        }
    }
}

/// Modeled seconds split by resource.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModeledTime {
    /// Compute seconds.
    pub cpu: f64,
    /// Disk seconds.
    pub io: f64,
    /// Network seconds.
    pub net: f64,
}

impl ModeledTime {
    /// Total under the (pessimistic) assumption that phases serialise.
    pub fn total(&self) -> f64 {
        self.cpu + self.io + self.net
    }

    /// Total assuming compute and I/O overlap perfectly (the paper's
    /// engines overlap them; the truth lies between `total` and this).
    pub fn total_overlapped(&self) -> f64 {
        self.cpu.max(self.io) + self.net
    }

    /// Component-wise sum.
    pub fn merged(&self, other: &ModeledTime) -> ModeledTime {
        ModeledTime {
            cpu: self.cpu + other.cpu,
            io: self.io + other.io,
            net: self.net + other.net,
        }
    }

    /// Component-wise max (parallel composition: the struggler rules).
    pub fn max(&self, other: &ModeledTime) -> ModeledTime {
        ModeledTime {
            cpu: self.cpu.max(other.cpu),
            io: self.io.max(other.io),
            net: self.net.max(other.net),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rates_are_sane() {
        let m = CostModel::default();
        // 2e8 ops ~ 1 second
        assert!((m.cpu_seconds(200_000_000) - 1.0).abs() < 1e-9);
        // 500 MB ~ 1 second
        assert!((m.io_seconds(500_000_000, 0) - 1.0).abs() < 1e-9);
        // 1.25 GB ~ 1 second of 10GbE
        assert!((m.net_seconds(1_250_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_term_counts_ops() {
        let m = CostModel::default();
        let no_ops = m.io_seconds(1000, 0);
        let ten_ops = m.io_seconds(1000, 10);
        assert!((ten_ops - no_ops - 10.0 * m.io_op_latency).abs() < 1e-12);
    }

    #[test]
    fn modeled_time_totals() {
        let t = ModeledTime {
            cpu: 2.0,
            io: 3.0,
            net: 1.0,
        };
        assert!((t.total() - 6.0).abs() < 1e-12);
        assert!((t.total_overlapped() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn merged_and_max_compose() {
        let a = ModeledTime {
            cpu: 1.0,
            io: 4.0,
            net: 0.0,
        };
        let b = ModeledTime {
            cpu: 2.0,
            io: 1.0,
            net: 3.0,
        };
        let s = a.merged(&b);
        assert!((s.cpu - 3.0).abs() < 1e-12 && (s.io - 5.0).abs() < 1e-12);
        let m = a.max(&b);
        assert!(
            (m.cpu - 2.0).abs() < 1e-12
                && (m.io - 4.0).abs() < 1e-12
                && (m.net - 3.0).abs() < 1e-12
        );
    }

    #[test]
    fn model_combines_all_resources() {
        let m = CostModel::default();
        let t = m.model(1_000_000_000, 500_000_000, 0, 1_250_000_000);
        assert!((t.total() - 7.0).abs() < 1e-9);
    }
}
