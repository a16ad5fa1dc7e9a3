//! Sorted-array intersection kernels.
//!
//! The primitive of the comparison engines: the edge-iterator baseline,
//! the PATRIC / OPT-like / PowerGraph re-implementations
//! (`pdtl-baselines`) and the benchmark's `intersect.*` probes report
//! `N(u) ∩ N(v)` through these kernels. The modified MGT itself does not
//! merge — its join marks `N(u)` in a dense byte array and probes
//! ([`crate::mgt`], step 2) — and neither does the compact-forward
//! baseline, so nothing here is on the engine's hot path. The paper's
//! implementation finding (§IV-A1) is that arrays beat any hash
//! structure by more than 10× in this loop, so these kernels are plain
//! merges over sorted `u32` slices.
//!
//! * [`intersect_visit`] — two-pointer merge, `O(|a| + |b|)`, with two
//!   forms picked by length ratio: near-equal lengths take the classic
//!   three-way branch (one comparison per step — on interleaved inputs
//!   the advance-loop form's extra frontier re-tests cost ~50%), while
//!   skewed lengths take the advance-loop form (each loop catches one
//!   cursor up to the other's frontier with a single comparison per
//!   step — it wins when one side produces long runs, which is what
//!   skewed lengths guarantee). The fully branchless cmov form was also
//!   measured and loses everywhere (serial dependency chain).
//! * [`intersect_gallop_visit`] — galloping (exponential search) from the
//!   smaller side, `O(|a| log(|b|/|a|))`; wins when sizes are lopsided,
//!   which happens constantly on scale-free graphs (a hub's list against
//!   a leaf's).
//! * [`intersect_count`] — picks between the two by size ratio.
//!
//! One scalar kernel per ratio tier, each chosen by length ratio alone.
//! [`intersect_visit_counted_with`] also returns the element comparisons
//! the merge performed, at most `2(|a| + |b|)`, so a caller that reports
//! work reports the work really done.
//!
//! There is no vector tier: no workload would run one. [`SimdLevel`],
//! [`simd_level`] and the level argument of
//! [`intersect_visit_counted_with`] remain only because the benchmark
//! harness compiles against them.
//!
//! The kernels require strictly increasing (duplicate-free) inputs —
//! true for every adjacency list in the pipeline, enforced upstream by
//! the graph builders. `tests/intersect_reference.rs` holds every kernel
//! to a naive sorted-set intersection.

mod scalar;

/// Size ratio beyond which galloping beats the linear merge. Measured
/// on the benchmark's intersection shapes (min/iter): ratio 1
/// (`1000x1000`) linear 1.2 µs vs gallop 3.4 µs — linear wins 3×;
/// ratio 100 (`100x10000`) linear 5.8 µs vs gallop 1.3 µs; ratio 10⁴
/// (`10x100000`) linear 41 µs vs gallop 0.24 µs; 10k into 100k (ratio
/// 10) break-even. The crossover sits just above 10, so gallop whenever
/// the ratio exceeds 12. The benchmark's `intersect.linear_ns.*` and
/// `intersect.gallop_ns.10x100000` rows re-time the linear merge on all
/// three shapes and galloping on the lopsided one;
/// `tests/intersect_reference.rs` holds both kernels to a naive
/// reference on them.
const GALLOP_RATIO: usize = 12;

/// Size ratio beyond which the advance-loop merge beats the three-way
/// interleaved merge (both linear). Below it, inputs interleave tightly
/// and the advance loops' per-frontier re-test adds ~50% comparisons
/// (`1000x1000` 1.33 → 2.01 µs through the advance loops); above it,
/// one side produces multi-element runs and the single-comparison
/// advance steps beat the three-way branch (`100x10000` 10.4 → 6.2 µs;
/// both shapes are `intersect.linear_ns.*` rows, and
/// `tests/intersect_reference.rs` pins the merge's comparison counts on
/// them). Any threshold in (1, 10] separates the bench shapes; 4 leaves
/// margin on both sides.
const ADVANCE_RATIO: usize = 4;

/// The intersection kernels' implementation tier. There is one, scalar.
///
/// Kept, with [`simd_level`] and the level argument of
/// [`intersect_visit_counted_with`], only for the benchmark harness,
/// which compiles against them; they go when it changes.
///
/// ```
/// use pdtl_core::intersect::SimdLevel;
///
/// assert_eq!(SimdLevel::detect(), SimdLevel::Off);
/// assert_eq!(SimdLevel::Off.name(), "off");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Scalar kernels.
    Off,
}

impl SimdLevel {
    /// Stable lowercase name (bench row / log spelling).
    pub fn name(self) -> &'static str {
        "off"
    }

    /// The level the running host runs: always [`Off`](Self::Off).
    pub fn detect() -> Self {
        SimdLevel::Off
    }
}

/// The level every kernel runs at: [`SimdLevel::Off`].
///
/// ```
/// use pdtl_core::intersect::{simd_level, SimdLevel};
/// assert_eq!(simd_level(), SimdLevel::detect());
/// ```
pub fn simd_level() -> SimdLevel {
    SimdLevel::Off
}

/// The linear merge, its form picked by length ratio (`ADVANCE_RATIO`):
/// `(matches, comparisons)`.
#[inline]
fn merge_counted(a: &[u32], b: &[u32], visit: impl FnMut(u32)) -> (u64, u64) {
    let (s, l) = (a.len().min(b.len()), a.len().max(b.len()));
    if s == 0 {
        (0, 0)
    } else if l >= ADVANCE_RATIO * s {
        scalar::advance_counted(a, b, visit)
    } else {
        scalar::interleaved_counted(a, b, visit)
    }
}

/// Galloping past `GALLOP_RATIO`, the linear merge below it.
#[inline]
fn adaptive_counted(a: &[u32], b: &[u32], visit: impl FnMut(u32)) -> (u64, u64) {
    if a.len().min(b.len()) * GALLOP_RATIO < a.len().max(b.len()) {
        scalar::gallop_counted(a, b, visit)
    } else {
        merge_counted(a, b, visit)
    }
}

/// Visit every element of `a ∩ b` in ascending order with a linear
/// merge. Returns the count.
#[inline]
pub fn intersect_visit(a: &[u32], b: &[u32], visit: impl FnMut(u32)) -> u64 {
    merge_counted(a, b, visit).0
}

/// [`intersect_visit`], returning `(matches, comparisons)`; `_level`
/// is ignored (see [`SimdLevel`]).
///
/// Tightly interleaved (near-equal-length) inputs take the
/// branch-predictable three-way merge, skewed inputs take the
/// advance-loop merge (see `ADVANCE_RATIO`). Both are `O(|a| + |b|)`
/// with at most `2(|a| + |b|)` counted comparisons and produce
/// identical output (property-tested):
///
/// ```
/// use pdtl_core::intersect::{intersect_visit_counted_with, SimdLevel};
///
/// let a: Vec<u32> = (0..64).collect();
/// let b: Vec<u32> = (0..64).map(|x| x * 2).collect();
/// let mut out = Vec::new();
/// let (matches, cmps) = intersect_visit_counted_with(SimdLevel::Off, &a, &b, |x| out.push(x));
/// assert_eq!(out, (0..32).map(|x| x * 2).collect::<Vec<_>>());
/// assert_eq!(matches, 32);
/// assert!(cmps <= 2 * (a.len() + b.len()) as u64);
/// ```
#[inline]
pub fn intersect_visit_counted_with(
    _level: SimdLevel,
    a: &[u32],
    b: &[u32],
    visit: impl FnMut(u32),
) -> (u64, u64) {
    merge_counted(a, b, visit)
}

/// Galloping intersection: exponential-probe each element of the
/// smaller slice into the remainder of the larger one. Returns the
/// count.
#[inline]
pub fn intersect_gallop_visit(a: &[u32], b: &[u32], visit: impl FnMut(u32)) -> u64 {
    scalar::gallop_counted(a, b, visit).0
}

/// Count-only adaptive intersection: gallop when sizes are lopsided
/// (`GALLOP_RATIO`), merge otherwise.
#[inline]
pub fn intersect_count(a: &[u32], b: &[u32]) -> u64 {
    adaptive_counted(a, b, |_| {}).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(
        f: impl Fn(&[u32], &[u32], &mut dyn FnMut(u32)) -> u64,
        a: &[u32],
        b: &[u32],
    ) -> (u64, Vec<u32>) {
        let mut out = Vec::new();
        let n = f(a, b, &mut |x| out.push(x));
        (n, out)
    }

    #[test]
    fn basic_intersection() {
        let (n, out) = collect(
            |a, b, v| intersect_visit(a, b, v),
            &[1, 3, 5, 7],
            &[2, 3, 4, 7, 9],
        );
        assert_eq!(n, 2);
        assert_eq!(out, vec![3, 7]);
    }

    #[test]
    fn disjoint_and_empty() {
        assert_eq!(intersect_count(&[1, 2], &[3, 4]), 0);
        assert_eq!(intersect_count(&[], &[1]), 0);
        assert_eq!(intersect_count(&[], &[]), 0);
    }

    #[test]
    fn identical_slices() {
        let a = [2u32, 4, 6, 8];
        assert_eq!(intersect_count(&a, &a), 4);
    }

    #[test]
    fn gallop_matches_linear_lopsided() {
        let small = [5u32, 500, 5000, 49999];
        let large: Vec<u32> = (0..50_000).collect();
        let (n1, o1) = collect(|a, b, v| intersect_visit(a, b, v), &small, &large);
        let (n2, o2) = collect(|a, b, v| intersect_gallop_visit(a, b, v), &small, &large);
        assert_eq!(n1, 4);
        assert_eq!(n1, n2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn gallop_argument_order_irrelevant() {
        let a: Vec<u32> = (0..100).map(|x| x * 3).collect();
        let b: Vec<u32> = (0..1000).collect();
        let (n1, o1) = collect(|a, b, v| intersect_gallop_visit(a, b, v), &a, &b);
        let (n2, o2) = collect(|a, b, v| intersect_gallop_visit(a, b, v), &b, &a);
        assert_eq!(n1, n2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn all_kernels_agree_on_randomish_inputs() {
        // deterministic pseudo-random sorted sets
        let mut x = 1u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u32 % 10_000
        };
        for trial in 0..50 {
            let mut a: Vec<u32> = (0..(trial * 7 % 300)).map(|_| next()).collect();
            let mut b: Vec<u32> = (0..(trial * 13 % 900)).map(|_| next()).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let (n1, o1) = collect(|a, b, v| intersect_visit(a, b, v), &a, &b);
            let (n2, o2) = collect(|a, b, v| intersect_gallop_visit(a, b, v), &a, &b);
            let (n3, o3) = collect(|a, b, v| adaptive_counted(a, b, v).0, &a, &b);
            assert_eq!((n1, &o1), (n2, &o2), "trial {trial}");
            assert_eq!((n1, &o1), (n3, &o3), "trial {trial}");
        }
    }

    #[test]
    fn interleaved_and_advance_forms_agree() {
        // The ratio dispatch is an optimisation, never a semantic
        // change: both linear forms must produce identical output on
        // every shape (interleaved, skewed, ties at both ends).
        let shapes: [(usize, usize); 6] =
            [(8, 8), (100, 100), (50, 190), (10, 41), (3, 1000), (1, 7)];
        for &(la, lb) in &shapes {
            let a: Vec<u32> = (0..la as u32).map(|x| x * 3).collect();
            let b: Vec<u32> = (0..lb as u32).map(|x| x * 2 + 1).collect();
            for (x, y) in [(&a, &b), (&b, &a)] {
                let mut o1 = Vec::new();
                let (n1, _) = scalar::interleaved_counted(x, y, |v| o1.push(v));
                let mut o2 = Vec::new();
                let (n2, _) = scalar::advance_counted(x, y, |v| o2.push(v));
                let mut o3 = Vec::new();
                let (n3, _) = merge_counted(x, y, |v| o3.push(v));
                assert_eq!((n1, &o1), (n2, &o2), "{la}x{lb}");
                assert_eq!((n1, &o1), (n3, &o3), "{la}x{lb}");
            }
        }
    }

    #[test]
    fn visit_order_is_ascending() {
        let a: Vec<u32> = (0..200).step_by(2).collect();
        let b: Vec<u32> = (0..200).step_by(3).collect();
        let (_, out) = collect(|a, b, v| adaptive_counted(a, b, v).0, &a, &b);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn merge_comparisons_are_linear() {
        let a: Vec<u32> = (0..500).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..500).map(|x| x * 2 + 1).collect();
        let (m, cmps) = merge_counted(&a, &b, |_| {});
        assert_eq!(m, 0);
        // advance steps are bounded by |a| + |b|; the per-frontier match
        // re-test adds at most one comparison per advance
        assert!(cmps <= 2 * (a.len() + b.len()) as u64, "cmps {cmps}");
        assert!(cmps >= a.len() as u64);
    }

    #[test]
    fn gallop_comparisons_are_logarithmic() {
        // s elements probed into l: O(s * log(l/s)), far below s + l.
        let small: Vec<u32> = (0..16u32).map(|x| x * 6000).collect();
        let large: Vec<u32> = (0..100_000).collect();
        let (m, cmps) = scalar::gallop_counted(&small, &large, |_| {});
        assert_eq!(m, 16);
        assert!(
            cmps < 16 * 2 * (17 + 2),
            "gallop should be O(s log(l/s)) comparisons, got {cmps}"
        );
        let (_, merge_cmps) = merge_counted(&small, &large, |_| {});
        assert!(cmps < merge_cmps / 10, "{cmps} vs merge {merge_cmps}");
        // The documented bound on spread and clustered small sides alike:
        // at most s·(2·log2(l/s + 1) + 4) probes.
        for s in [1usize, 3, 16, 100, 1000] {
            for stride in [1u32, 7, 6000] {
                let small: Vec<u32> = (0..s as u32).map(|x| x * stride + 1).collect();
                let (_, cmps) = scalar::gallop_counted(&small, &large, |_| {});
                let ratio = large.len() as f64 / s as f64;
                let bound = s as f64 * (2.0 * (ratio + 1.0).log2() + 4.0);
                assert!(
                    cmps as f64 <= bound,
                    "{s} stride {stride}: {cmps} > {bound}"
                );
            }
        }
    }

    #[test]
    fn counted_variants_agree_with_plain() {
        let a: Vec<u32> = (0..300).step_by(3).collect();
        let b: Vec<u32> = (0..300).step_by(7).collect();
        let (plain, _) = collect(|a, b, v| adaptive_counted(a, b, v).0, &a, &b);
        let (counted, cmps) = adaptive_counted(&a, &b, |_| {});
        assert_eq!(plain, counted);
        assert!(cmps > 0);
    }

    #[test]
    fn level_names_round_trip() {
        assert_eq!(SimdLevel::Off.name(), "off");
        assert_eq!(simd_level().name(), SimdLevel::detect().name());
    }

    #[test]
    fn every_tier_shape_keeps_its_comparison_count() {
        // One shape per ratio tier (interleaved / advance / gallop) and
        // a few small ones, `a = 3x`, `b = 2x`: `(matches, comparisons)`
        // of merge, gallop and adaptive, in both argument orders —
        // pinned, so a kernel change that moves the comparison totals
        // the baselines report shows here.
        #[rustfmt::skip]
        let pinned = [
            ((1000, 1000), [[334, 1333, 334, 2664, 334, 1333], [334, 1333, 334, 2666, 334, 1333]]),
            ((100, 100), [[34, 133, 34, 264, 34, 133], [34, 133, 34, 266, 34, 133]]),
            ((9, 9), [[3, 12, 3, 21, 3, 12], [3, 12, 3, 24, 3, 12]]),
            ((100, 990), [[50, 249, 50, 398, 50, 249], [50, 248, 50, 398, 50, 248]]),
            ((16, 120), [[8, 39, 8, 62, 8, 39], [8, 38, 8, 62, 8, 38]]),
            ((10, 10_000), [[5, 24, 5, 38, 5, 38], [5, 23, 5, 38, 5, 38]]),
            ((7, 200), [[4, 16, 4, 26, 4, 26], [4, 16, 4, 26, 4, 26]]),
            ((8, 64), [[4, 19, 4, 30, 4, 19], [4, 18, 4, 30, 4, 18]]),
        ];
        for ((la, lb), want) in pinned {
            let a: Vec<u32> = (0..la as u32).map(|x| x * 3).collect();
            let b: Vec<u32> = (0..lb as u32).map(|x| x * 2).collect();
            for ((x, y), want) in [(&a, &b), (&b, &a)].into_iter().zip(want) {
                let (m, g, ad) = (
                    merge_counted(x, y, |_| {}),
                    scalar::gallop_counted(x, y, |_| {}),
                    adaptive_counted(x, y, |_| {}),
                );
                assert_eq!([m.0, m.1, g.0, g.1, ad.0, ad.1], want, "{la}x{lb}");
            }
        }
    }
}
