//! Per-processor memory budgets.
//!
//! The paper's analysis parameterises every bound by `M`, the memory
//! available to one processor, measured in edges: the MGT chunk loader
//! brings `c·M` oriented edges into memory per iteration, and a
//! processor responsible for `S` edges performs `ceil(S / cM)`
//! iterations. The paper leaves the constant `c < 1` to the
//! implementation; here it is `c = 1/2`, a constant and not a setting,
//! and the other half of `M` holds the `ind` offset array and scratch.
//! PDTL's evaluation (Figure 5) varies `M` while holding everything
//! else fixed; [`MemoryBudget`] is the knob those experiments turn.

use crate::error::{IoError, Result};

/// Memory available to a single logical processor, in edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    /// Total edges' worth of memory available to the processor.
    pub edges: usize,
}

impl MemoryBudget {
    /// A budget of `edges` edges.
    pub fn edges(edges: usize) -> Self {
        Self { edges }
    }

    /// A budget expressed in bytes, at 4 bytes per stored edge endpoint
    /// (the on-disk and in-memory unit of the PDTL format). This mirrors
    /// the paper's "1GB of memory/core" style configuration.
    pub fn bytes(bytes: u64) -> Self {
        Self::edges((bytes / crate::stream::BYTES_PER_U32) as usize)
    }

    /// Edges loaded per MGT iteration: `M / 2`, at least 1.
    pub fn chunk_edges(&self) -> usize {
        (self.edges / 2).max(1)
    }

    /// Number of chunk iterations needed to cover `range_edges` edges:
    /// `ceil(S / cM)` — the `R` of the paper's Section IV-B2.
    pub fn iterations_for(&self, range_edges: u64) -> u64 {
        range_edges.div_ceil(self.chunk_edges() as u64)
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
        assert_eq!(MemoryBudget::edges(1000).chunk_edges(), 500);
        assert_eq!(MemoryBudget::edges(1001).chunk_edges(), 500);
    }

    #[test]
    fn chunk_is_at_least_one() {
        assert_eq!(MemoryBudget::edges(1).chunk_edges(), 1);
        assert_eq!(MemoryBudget::edges(0).chunk_edges(), 1);
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
