//! Per-processor memory budgets.
//!
//! The paper's analysis parameterises every bound by `M`, the memory
//! available to one processor, measured in edges: the MGT chunk loader
//! brings `Θ(M)` oriented edges into memory per iteration, and a processor
//! responsible for `S` edges performs `ceil(S / M)` iterations. PDTL's
//! evaluation (Figure 5) varies `M` while holding everything else fixed;
//! [`MemoryBudget`] is the knob those experiments turn.

use crate::error::{IoError, Result};

/// Fraction of the budget the chunk loader actually fills (the paper's
/// implementation-specific constant `c < 1`; it leaves room for the `ind`
/// offset array and scratch space).
pub const DEFAULT_LOAD_FACTOR: f64 = 0.5;

/// Memory available to a single logical processor, in edges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryBudget {
    /// Total edges' worth of memory available to the processor.
    pub edges: usize,
    /// Fraction of `edges` the chunk loader may fill per iteration.
    pub load_factor: f64,
}

impl MemoryBudget {
    /// A budget of `edges` edges with the default load factor.
    pub fn edges(edges: usize) -> Self {
        Self {
            edges,
            load_factor: DEFAULT_LOAD_FACTOR,
        }
    }

    /// A budget expressed in bytes, at 4 bytes per stored edge endpoint
    /// (the on-disk and in-memory unit of the PDTL format). This mirrors
    /// the paper's "1GB of memory/core" style configuration.
    pub fn bytes(bytes: u64) -> Self {
        Self::edges((bytes / crate::stream::BYTES_PER_U32) as usize)
    }

    /// Override the load factor (clamped to `(0, 1]`; `NaN` falls back
    /// to [`DEFAULT_LOAD_FACTOR`] — `clamp` propagates NaN, which would
    /// otherwise silently collapse every chunk to a single edge).
    pub fn with_load_factor(mut self, f: f64) -> Self {
        self.load_factor = if f.is_nan() {
            DEFAULT_LOAD_FACTOR
        } else {
            f.clamp(f64::MIN_POSITIVE, 1.0)
        };
        self
    }

    /// Edges loaded per MGT iteration: `c * M`, at least 1.
    pub fn chunk_edges(&self) -> usize {
        ((self.edges as f64 * self.load_factor) as usize).max(1)
    }

    /// Number of chunk iterations needed to cover `range_edges` edges:
    /// `ceil(S / cM)` — the `R` of the paper's Section IV-B2.
    pub fn iterations_for(&self, range_edges: u64) -> u64 {
        range_edges.div_ceil(self.chunk_edges() as u64)
    }

    /// Check the paper's small-degree assumption `d* <= cM` for a given
    /// maximum oriented degree. The MGT engine needs no fallback when it
    /// fails (a list split across chunks still has each position resident
    /// exactly once; only the CPU bound loosens), but callers may want
    /// to warn.
    pub fn satisfies_small_degree(&self, d_star_max: u32) -> bool {
        (d_star_max as usize) <= self.chunk_edges()
    }

    /// Error unless the budget can hold at least `needed` edges per chunk.
    pub fn require_chunk(&self, needed: usize) -> Result<()> {
        let available = self.chunk_edges();
        if needed > available {
            Err(IoError::BudgetTooSmall { needed, available })
        } else {
            Ok(())
        }
    }
}

impl Default for MemoryBudget {
    /// 64 Mi edges (256 MiB), a laptop-friendly default.
    fn default() -> Self {
        Self::edges(64 << 20)
    }
}

/// A concurrency-safe admission ledger over a total [`MemoryBudget`].
///
/// A resident process running many MGT queries at once must never let
/// their *summed* working sets exceed the machine's budget. Each query
/// computes its worst-case resident cost in edges (`cores × M` for an
/// MGT run, plus `|E*|` when it materialises the graph) and calls
/// [`admit`](Self::admit): the call blocks until the cost fits under
/// `total`, and the returned [`BudgetLease`] gives the edges back on
/// drop — on every exit path, including a failed query.
///
/// A cost larger than the whole ledger is a typed
/// [`IoError::BudgetTooSmall`] instead of a block: admitting it could
/// never succeed, and waiting forever is how admission control
/// deadlocks.
#[derive(Debug)]
pub struct BudgetLedger {
    total: u64,
    state: std::sync::Mutex<LedgerState>,
    freed: std::sync::Condvar,
}

#[derive(Debug, Default)]
struct LedgerState {
    used: u64,
    peak: u64,
}

impl BudgetLedger {
    /// A ledger over `budget.edges` total edges.
    pub fn new(budget: MemoryBudget) -> Self {
        Self {
            total: budget.edges as u64,
            state: std::sync::Mutex::new(LedgerState::default()),
            freed: std::sync::Condvar::new(),
        }
    }

    /// Total edges the ledger can have outstanding at once.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Edges currently admitted.
    pub fn used(&self) -> u64 {
        self.state.lock().unwrap().used
    }

    /// High-water mark of admitted edges since creation — the number a
    /// test (or an operator) checks against `total` to prove admission
    /// never oversubscribed.
    pub fn peak(&self) -> u64 {
        self.state.lock().unwrap().peak
    }

    /// Block until `cost` edges fit under the ledger, then reserve
    /// them. Errors immediately when `cost > total`.
    pub fn admit(&self, cost: u64) -> Result<BudgetLease<'_>> {
        if cost > self.total {
            return Err(IoError::BudgetTooSmall {
                needed: cost as usize,
                available: self.total as usize,
            });
        }
        let mut st = self.state.lock().unwrap();
        while st.used + cost > self.total {
            st = self.freed.wait(st).unwrap();
        }
        st.used += cost;
        st.peak = st.peak.max(st.used);
        Ok(BudgetLease { ledger: self, cost })
    }
}

/// An admitted reservation; returns its edges to the ledger on drop.
#[derive(Debug)]
pub struct BudgetLease<'a> {
    ledger: &'a BudgetLedger,
    cost: u64,
}

impl BudgetLease<'_> {
    /// The admitted cost in edges.
    pub fn cost(&self) -> u64 {
        self.cost
    }
}

impl Drop for BudgetLease<'_> {
    fn drop(&mut self) {
        let mut st = self.ledger.state.lock().unwrap();
        st.used = st.used.saturating_sub(self.cost);
        drop(st);
        self.ledger.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_is_load_factor_fraction() {
        let b = MemoryBudget::edges(1000);
        assert_eq!(b.chunk_edges(), 500);
        let b = b.with_load_factor(0.25);
        assert_eq!(b.chunk_edges(), 250);
    }

    #[test]
    fn chunk_is_at_least_one() {
        let b = MemoryBudget::edges(1).with_load_factor(0.1);
        assert_eq!(b.chunk_edges(), 1);
        let b = MemoryBudget::edges(0);
        assert_eq!(b.chunk_edges(), 1);
    }

    #[test]
    fn bytes_constructor_divides_by_endpoint_size() {
        let b = MemoryBudget::bytes(400);
        assert_eq!(b.edges, 100);
    }

    #[test]
    fn iterations_round_up() {
        let b = MemoryBudget::edges(100); // chunk = 50
        assert_eq!(b.iterations_for(0), 0);
        assert_eq!(b.iterations_for(1), 1);
        assert_eq!(b.iterations_for(50), 1);
        assert_eq!(b.iterations_for(51), 2);
        assert_eq!(b.iterations_for(500), 10);
    }

    #[test]
    fn small_degree_assumption() {
        let b = MemoryBudget::edges(100); // chunk = 50
        assert!(b.satisfies_small_degree(50));
        assert!(!b.satisfies_small_degree(51));
    }

    #[test]
    fn require_chunk_errors_when_too_small() {
        let b = MemoryBudget::edges(10); // chunk = 5
        assert!(b.require_chunk(5).is_ok());
        let err = b.require_chunk(6).unwrap_err();
        assert!(matches!(
            err,
            IoError::BudgetTooSmall {
                needed: 6,
                available: 5
            }
        ));
    }

    #[test]
    fn load_factor_clamped() {
        let b = MemoryBudget::edges(100).with_load_factor(2.0);
        assert_eq!(b.chunk_edges(), 100);
        let b = MemoryBudget::edges(100).with_load_factor(-1.0);
        assert_eq!(b.chunk_edges(), 1);
    }

    #[test]
    fn nan_load_factor_falls_back_to_default() {
        // Regression: NaN passed f64::clamp unchanged and silently
        // yielded 1-edge chunks.
        let b = MemoryBudget::edges(1000).with_load_factor(f64::NAN);
        assert_eq!(b.load_factor, DEFAULT_LOAD_FACTOR);
        assert_eq!(b.chunk_edges(), 500);
    }

    #[test]
    fn ledger_admits_releases_and_tracks_peak() {
        let ledger = BudgetLedger::new(MemoryBudget::edges(100));
        let a = ledger.admit(60).unwrap();
        let b = ledger.admit(40).unwrap();
        assert_eq!(ledger.used(), 100);
        assert_eq!(ledger.peak(), 100);
        drop(a);
        assert_eq!(ledger.used(), 40);
        drop(b);
        assert_eq!(ledger.used(), 0);
        assert_eq!(ledger.peak(), 100, "peak is a high-water mark");
    }

    #[test]
    fn ledger_rejects_impossible_costs_instead_of_blocking() {
        let ledger = BudgetLedger::new(MemoryBudget::edges(10));
        let err = ledger.admit(11).unwrap_err();
        assert!(matches!(
            err,
            IoError::BudgetTooSmall {
                needed: 11,
                available: 10
            }
        ));
    }

    #[test]
    fn ledger_blocks_until_space_frees_and_never_oversubscribes() {
        use std::sync::Arc;
        let ledger = Arc::new(BudgetLedger::new(MemoryBudget::edges(100)));
        let first = ledger.admit(80).unwrap();
        let l2 = Arc::clone(&ledger);
        let waiter = std::thread::spawn(move || {
            // Cannot fit beside the 80: must block until it drops.
            let lease = l2.admit(50).unwrap();
            l2.used() <= l2.total() && lease.cost() == 50
        });
        // Give the waiter time to reach the wait loop, then release.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(ledger.used(), 80, "waiter must not have been admitted");
        drop(first);
        assert!(waiter.join().unwrap());
        assert!(ledger.peak() <= ledger.total(), "never oversubscribed");
    }
}
