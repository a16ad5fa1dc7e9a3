//! Network traffic accounting.
//!
//! [`NetTraffic`] counts every byte the protocol moves, split by purpose,
//! so experiments can verify Theorem IV.3's `Θ(NP + N|E| + T)` bound
//! directly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Byte counters for the five traffic classes of the protocol.
#[derive(Debug, Default)]
pub struct NetTraffic {
    config_bytes: AtomicU64,
    graph_bytes: AtomicU64,
    result_bytes: AtomicU64,
    triangle_bytes: AtomicU64,
    control_bytes: AtomicU64,
}

impl NetTraffic {
    /// Fresh counters behind an `Arc`.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Record configuration traffic (the `Θ(NP)` term).
    pub fn add_config(&self, bytes: u64) {
        self.config_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record graph replication traffic (the `Θ(N|E|)` term).
    pub fn add_graph(&self, bytes: u64) {
        self.graph_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record result traffic.
    pub fn add_result(&self, bytes: u64) {
        self.result_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record triangle-list traffic (the `Θ(T)` term).
    pub fn add_triangles(&self, bytes: u64) {
        self.triangle_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record control-plane traffic (heartbeats, shutdowns) — liveness
    /// overhead outside Theorem IV.3's three terms, counted separately
    /// so the bound checks stay exact.
    pub fn add_control(&self, bytes: u64) {
        self.control_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Configuration bytes so far.
    pub fn config_bytes(&self) -> u64 {
        self.config_bytes.load(Ordering::Relaxed)
    }

    /// Graph replication bytes so far.
    pub fn graph_bytes(&self) -> u64 {
        self.graph_bytes.load(Ordering::Relaxed)
    }

    /// Result bytes so far.
    pub fn result_bytes(&self) -> u64 {
        self.result_bytes.load(Ordering::Relaxed)
    }

    /// Triangle-list bytes so far.
    pub fn triangle_bytes(&self) -> u64 {
        self.triangle_bytes.load(Ordering::Relaxed)
    }

    /// Control-plane bytes so far.
    pub fn control_bytes(&self) -> u64 {
        self.control_bytes.load(Ordering::Relaxed)
    }

    /// All traffic.
    pub fn total_bytes(&self) -> u64 {
        self.config_bytes()
            + self.graph_bytes()
            + self.result_bytes()
            + self.triangle_bytes()
            + self.control_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_classes_accumulate_independently() {
        let t = NetTraffic::new();
        t.add_config(10);
        t.add_graph(1000);
        t.add_result(20);
        t.add_triangles(300);
        t.add_control(7);
        assert_eq!(t.config_bytes(), 10);
        assert_eq!(t.graph_bytes(), 1000);
        assert_eq!(t.result_bytes(), 20);
        assert_eq!(t.triangle_bytes(), 300);
        assert_eq!(t.control_bytes(), 7);
        assert_eq!(t.total_bytes(), 1337);
    }
}
