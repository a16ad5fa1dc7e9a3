//! Every public intersection kernel against a naive sorted-set
//! intersection (proptest + adversarial fixtures).
//!
//! The contract under test: `intersect_visit`, `intersect_gallop_visit`,
//! `intersect_count` and `intersect_visit_counted_with` return
//! `|a ∩ b|`, and the visiting ones visit exactly `a ∩ b` in ascending
//! order, whatever the shape picks as the ratio tier. The merge's counted
//! comparisons stay within `2(|a| + |b|)` and are pinned on the kernel
//! bench shapes.
//!
//! Shapes: random interleaved and skewed sets in both argument orders,
//! every small length pair, values hugging `u32::MAX` and straddling
//! the sign bit, empty and singleton slices, and one element against a
//! 100 000-entry list.

use std::collections::BTreeSet;

use pdtl_core::intersect::{
    intersect_count, intersect_gallop_visit, intersect_visit, intersect_visit_counted_with,
    SimdLevel,
};
use proptest::prelude::*;

/// Sorted, strictly increasing (what every adjacency list guarantees).
fn canon(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v.dedup();
    v
}

/// The naive reference: a set intersection, ascending.
fn reference(a: &[u32], b: &[u32]) -> Vec<u32> {
    let b: BTreeSet<u32> = b.iter().copied().collect();
    a.iter().copied().filter(|x| b.contains(x)).collect()
}

type Visiting = fn(&[u32], &[u32], &mut dyn FnMut(u32)) -> u64;

const VISITING: [(&str, Visiting); 3] = [
    ("merge", |a, b, v| intersect_visit(a, b, v)),
    ("gallop", |a, b, v| intersect_gallop_visit(a, b, v)),
    ("merge counted", |a, b, v| {
        intersect_visit_counted_with(SimdLevel::Off, a, b, v).0
    }),
];

/// Assert every kernel matches the reference on count and visit order,
/// and the merge's comparisons stay linear, in both argument orders.
fn assert_reference(a: &[u32], b: &[u32]) -> Result<(), TestCaseError> {
    for (x, y) in [(a, b), (b, a)] {
        let want = reference(x, y);
        let shape = format!("{}x{}", x.len(), y.len());
        for (name, kernel) in VISITING {
            let mut got = Vec::new();
            let n = kernel(x, y, &mut |v| got.push(v));
            prop_assert!(n == want.len() as u64, "{name}: count {n} on {shape}");
            prop_assert!(got == want, "{name}: visits diverge on {shape}");
        }
        let n = intersect_count(x, y);
        prop_assert!(n == want.len() as u64, "count: {n} on {shape}");
        let (_, cmps) = intersect_visit_counted_with(SimdLevel::Off, x, y, |_| {});
        let bound = 2 * (x.len() + y.len()) as u64;
        prop_assert!(cmps <= bound, "merge: {cmps} comparisons on {shape}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_interleaved_sets_match_reference(
        a in prop::collection::vec(0u32..2000, 0..260),
        b in prop::collection::vec(0u32..2000, 0..260),
    ) {
        assert_reference(&canon(a), &canon(b))?;
    }

    #[test]
    fn skewed_sets_match_reference(
        a in prop::collection::vec(0u32..50_000, 0..24),
        b in prop::collection::vec(0u32..50_000, 0..2000),
    ) {
        assert_reference(&canon(a), &canon(b))?;
    }

    #[test]
    fn sets_near_u32_max_match_reference(
        a in prop::collection::vec(0u32..600, 0..120),
        b in prop::collection::vec(0u32..600, 0..120),
    ) {
        let a: Vec<u32> = canon(a).into_iter().map(|v| u32::MAX - v).collect();
        let b: Vec<u32> = canon(b).into_iter().map(|v| u32::MAX - v).collect();
        assert_reference(&canon(a), &canon(b))?;
    }

    #[test]
    fn sets_straddling_the_sign_bit_match_reference(
        a in prop::collection::vec(0u32..400, 0..120),
        b in prop::collection::vec(0u32..400, 0..120),
    ) {
        let shift = |v: u32| 0x8000_0000u32.wrapping_sub(200).wrapping_add(v);
        let a: Vec<u32> = canon(a).into_iter().map(shift).collect();
        let b: Vec<u32> = canon(b).into_iter().map(shift).collect();
        assert_reference(&canon(a), &canon(b))?;
    }
}

#[test]
fn small_length_pairs_match_reference() {
    // Every pair of short lengths, across both ratio boundaries, with
    // three overlap patterns each.
    let lens = [
        0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
    ];
    for &la in &lens {
        for &lb in &lens {
            // dense ties
            let a: Vec<u32> = (0..la as u32).collect();
            let b: Vec<u32> = (0..lb as u32).collect();
            assert_reference(&a, &b).unwrap();
            // strided partial overlap
            let a: Vec<u32> = (0..la as u32).map(|x| x * 3).collect();
            let b: Vec<u32> = (0..lb as u32).map(|x| x * 2).collect();
            assert_reference(&a, &b).unwrap();
            // disjoint runs meeting end to end
            let a: Vec<u32> = (0..la as u32).collect();
            let b: Vec<u32> = (0..lb as u32).map(|x| la as u32 + x).collect();
            assert_reference(&a, &b).unwrap();
        }
    }
}

#[test]
fn strided_ties_match_reference() {
    // A dense run against every `w`-th value at offsets around `w`.
    for w in [4u32, 8] {
        for off in [0u32, 1, w - 1, w, w + 1] {
            let a: Vec<u32> = (0..96).collect();
            let b: Vec<u32> = (0..96).map(|x| x * w + off).collect();
            assert_reference(&a, &b).unwrap();
        }
    }
}

#[test]
fn empty_and_singleton_slices_match_reference() {
    let long: Vec<u32> = (0..100).collect();
    for edge in [
        vec![],
        vec![0u32],
        vec![50],
        vec![99],
        vec![100],
        vec![u32::MAX],
    ] {
        assert_reference(&edge, &long).unwrap();
        assert_reference(&edge, &[]).unwrap();
        assert_reference(&edge, &edge.clone()).unwrap();
    }
}

#[test]
fn extreme_skew_matches_reference() {
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
        assert_reference(&probe, &large).unwrap();
    }
    let spread: Vec<u32> = (0..20).map(|x| x * 9_999).collect();
    assert_reference(&spread, &large).unwrap();
}

#[test]
fn merge_comparisons_are_pinned_on_the_bench_shapes() {
    // `kernelbench::workload::intersect_inputs` and three shapes with
    // matches: `(matches, comparisons)` in both argument orders.
    let inputs = |a_len: usize, b_len: usize| {
        let span = (a_len.max(b_len) * 5) as u32;
        let set = |n: usize, offset: u32| -> Vec<u32> {
            (0..n as u32)
                .map(|i| i * (span / n as u32) + offset)
                .collect()
        };
        (set(a_len, 3), set(b_len, 0))
    };
    let pinned = [
        ((1000, 1000), [(0, 1999), (0, 1999)]),
        ((100, 10_000), [(0, 10101), (0, 10100)]),
        ((10, 100_000), [(0, 90021), (0, 90020)]),
        ((100, 990), [(20, 1131), (20, 1130)]),
        ((16, 120), [(3, 138), (3, 137)]),
        ((7, 200), [(2, 182), (2, 182)]),
    ];
    for ((la, lb), want) in pinned {
        let (a, b) = inputs(la, lb);
        for ((x, y), want) in [(&a, &b), (&b, &a)].into_iter().zip(want) {
            let got = intersect_visit_counted_with(SimdLevel::Off, x, y, |_| {});
            assert_eq!(got, want, "{la}x{lb}");
        }
    }
}
