//! Shared kernel workload shapes.
//!
//! The intersection inputs are defined once here; `benchmark/`'s
//! `intersect.*` probes time these shapes, and the pdtl-core test
//! `tests/intersect_reference.rs` pins the kernels' comparisons on them.

/// The intersection workload: three size pairs over sorted id sets.
pub mod workload {
    /// `(|a|, |b|)` size pairs for the intersection kernels.
    pub const INTERSECT_PAIRS: [(usize, usize); 3] = [(1000, 1000), (100, 10_000), (10, 100_000)];

    /// A sorted id set of `n` values with the given stride/offset.
    pub fn sorted_set(n: usize, stride: u32, offset: u32) -> Vec<u32> {
        (0..n as u32).map(|i| i * stride + offset).collect()
    }

    /// The two sorted inputs for an intersection size pair — both span
    /// the same id range so neither side can early-exit.
    pub fn intersect_inputs(a_len: usize, b_len: usize) -> (Vec<u32>, Vec<u32>) {
        let span = (a_len.max(b_len) * 5) as u32;
        (
            sorted_set(a_len, span / a_len as u32, 3),
            sorted_set(b_len, span / b_len as u32, 0),
        )
    }
}
