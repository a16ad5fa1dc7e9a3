//! SIMD ↔ scalar kernel parity (proptest + adversarial fixtures).
//!
//! The module contract under test: at every [`SimdLevel`], every kernel
//! entry point produces the *identical* `(matches, comparisons)` pair
//! and the identical ascending visit sequence as the scalar kernels
//! (`SimdLevel::Off`). This is what keeps `WorkerReport::cpu_ops` and
//! the arboricity-bound tests meaningful when the vector tier is live —
//! the level may only move wall time.
//!
//! Shapes are chosen to be hostile to the vector kernels: lengths
//! straddling the 8-lane block boundary and its halves, ties at block
//! edges, values straddling the sign bit and hugging `u32::MAX` (the lane
//! compares are signed and must be bias-corrected), empty and singleton
//! slices, and heavy skew in both argument orders.

use pdtl_core::intersect::{
    intersect_adaptive_visit_counted_with, intersect_gallop_visit_counted_with,
    intersect_visit_counted_with, SimdLevel,
};
use proptest::prelude::*;

/// Sorted, strictly increasing (what every adjacency list guarantees).
fn canon(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v.dedup();
    v
}

type KernelWith = fn(SimdLevel, &[u32], &[u32], &mut dyn FnMut(u32)) -> (u64, u64);

const KERNELS: [(&str, KernelWith); 3] = [
    ("merge", |l, a, b, v| {
        intersect_visit_counted_with(l, a, b, v)
    }),
    ("gallop", |l, a, b, v| {
        intersect_gallop_visit_counted_with(l, a, b, v)
    }),
    ("adaptive", |l, a, b, v| {
        intersect_adaptive_visit_counted_with(l, a, b, v)
    }),
];

/// Assert the vector level matches scalar on `(matches, comparisons, visit
/// order)` for every kernel entry point, in both argument orders.
fn assert_parity(a: &[u32], b: &[u32]) -> Result<(), TestCaseError> {
    for (name, kernel) in KERNELS {
        for (x, y) in [(a, b), (b, a)] {
            let mut scalar_order = Vec::new();
            let scalar = kernel(SimdLevel::Off, x, y, &mut |v| scalar_order.push(v));
            prop_assert!(
                scalar_order.windows(2).all(|w| w[0] < w[1]),
                "{name}: scalar visit order not ascending"
            );
            // A bare `Avx2` is safe to name on any host: the entry
            // points cap it at what the CPU runs.
            let mut order = Vec::new();
            let got = kernel(SimdLevel::Avx2, x, y, &mut |v| order.push(v));
            prop_assert!(
                got == scalar,
                "{name} at avx2: (matches, cmps) {got:?} != scalar {scalar:?} on {}x{}",
                x.len(),
                y.len()
            );
            prop_assert!(
                order == scalar_order,
                "{name} at avx2: visit order diverges on {}x{}",
                x.len(),
                y.len()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn parity_on_random_interleaved_sets(
        a in prop::collection::vec(0u32..2000, 0..260),
        b in prop::collection::vec(0u32..2000, 0..260),
    ) {
        assert_parity(&canon(a), &canon(b))?;
    }

    #[test]
    fn parity_on_skewed_sets(
        a in prop::collection::vec(0u32..50_000, 0..24),
        b in prop::collection::vec(0u32..50_000, 0..2000),
    ) {
        assert_parity(&canon(a), &canon(b))?;
    }

    #[test]
    fn parity_near_u32_max(
        a in prop::collection::vec(0u32..600, 0..120),
        b in prop::collection::vec(0u32..600, 0..120),
    ) {
        // The signed-compare trap: all values in the top of the u32
        // range, straddling nothing but the sign bit's shadow.
        let a: Vec<u32> = canon(a).into_iter().map(|v| u32::MAX - v).collect();
        let b: Vec<u32> = canon(b).into_iter().map(|v| u32::MAX - v).collect();
        assert_parity(&canon(a), &canon(b))?;
    }

    #[test]
    fn parity_straddling_the_sign_bit(
        a in prop::collection::vec(0u32..400, 0..120),
        b in prop::collection::vec(0u32..400, 0..120),
    ) {
        // Values on both sides of 0x8000_0000, where signed lane order
        // inverts unsigned order.
        let shift = |v: u32| 0x8000_0000u32.wrapping_sub(200).wrapping_add(v);
        let a: Vec<u32> = canon(a).into_iter().map(shift).collect();
        let b: Vec<u32> = canon(b).into_iter().map(shift).collect();
        assert_parity(&canon(a), &canon(b))?;
    }
}

#[test]
fn parity_on_block_boundary_lengths() {
    // Every length pair straddling the 8-lane block width, its
    // multiples and halves, and the SIMD gates, with three overlap
    // patterns each.
    let lens = [
        0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
    ];
    for &la in &lens {
        for &lb in &lens {
            // dense ties
            let a: Vec<u32> = (0..la as u32).collect();
            let b: Vec<u32> = (0..lb as u32).collect();
            assert_parity(&a, &b).unwrap();
            // strided partial overlap
            let a: Vec<u32> = (0..la as u32).map(|x| x * 3).collect();
            let b: Vec<u32> = (0..lb as u32).map(|x| x * 2).collect();
            assert_parity(&a, &b).unwrap();
            // disjoint runs meeting at a block edge
            let a: Vec<u32> = (0..la as u32).collect();
            let b: Vec<u32> = (0..lb as u32).map(|x| la as u32 + x).collect();
            assert_parity(&a, &b).unwrap();
        }
    }
}

#[test]
fn parity_on_ties_at_block_edges() {
    // Equal values landing exactly on lanes 0, W-1 and W of each block:
    // the rotate-and-compare merge must catch hits in every relative
    // lane position, once each.
    for w in [4u32, 8] {
        for off in [0u32, 1, w - 1, w, w + 1] {
            let a: Vec<u32> = (0..96).collect();
            let b: Vec<u32> = (0..96).map(|x| x * w + off).collect();
            assert_parity(&a, &b).unwrap();
        }
    }
}

#[test]
fn parity_on_empty_and_singleton_slices() {
    let long: Vec<u32> = (0..100).collect();
    for edge in [
        vec![],
        vec![0u32],
        vec![50],
        vec![99],
        vec![100],
        vec![u32::MAX],
    ] {
        assert_parity(&edge, &long).unwrap();
        assert_parity(&edge, &[]).unwrap();
        assert_parity(&edge, &edge.clone()).unwrap();
    }
}

#[test]
fn parity_at_extreme_skew() {
    // One element galloped into a huge set — frontier at the start,
    // middle, end, and past the end.
    let large: Vec<u32> = (0..100_000).map(|x| x * 2).collect();
    for probe in [
        vec![0u32],
        vec![1],
        vec![99_999],
        vec![199_998],
        vec![u32::MAX],
    ] {
        assert_parity(&probe, &large).unwrap();
    }
    let spread: Vec<u32> = (0..20).map(|x| x * 9_999).collect();
    assert_parity(&spread, &large).unwrap();
}
