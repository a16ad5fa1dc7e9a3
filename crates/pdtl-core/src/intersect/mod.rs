//! Sorted-array intersection kernels.
//!
//! The primitive of the comparison engines: the in-memory baselines
//! (`pdtl-baselines`: compact-forward, edge-iterator and the
//! PATRIC / OPT-like / PowerGraph re-implementations), the
//! benchmark's oracle and its `intersect.*` probes all report
//! `N(u) ∩ N(v)` through these kernels. The modified MGT itself no
//! longer merges — its join marks `N(u)` in a dense bit array and probes
//! ([`crate::mgt`], step 2) — so nothing here is on the engine's hot
//! path. The paper's implementation finding (§IV-A1) is that arrays
//! beat any hash structure by more than 10× in this loop, so these
//! kernels are plain merges over sorted `u32` slices.
//!
//! * [`intersect_visit`] — two-pointer merge, `O(|a| + |b|)`, with two
//!   forms picked by length ratio: near-equal lengths take the classic
//!   three-way branch (one comparison per step — on interleaved inputs
//!   the advance-loop form's extra frontier re-tests cost ~50%, the
//!   PR 2 `1000x1000` regression), while skewed lengths take the
//!   advance-loop form (each loop catches one cursor up to the other's
//!   frontier with a single comparison per step — it wins when one side
//!   produces long runs, which is what skewed lengths guarantee). The
//!   fully branchless cmov form was also measured and loses everywhere
//!   (serial dependency chain).
//! * [`intersect_gallop_visit`] — galloping (exponential search) from the
//!   smaller side, `O(|a| log(|b|/|a|))`; wins when sizes are lopsided,
//!   which happens constantly on scale-free graphs (a hub's list against
//!   a leaf's).
//! * [`intersect_count`] — picks between the two by size ratio, as
//!   [`intersect_adaptive_visit_counted_with`] does.
//!
//! The three `*_counted_with` entry points take an explicit
//! [`SimdLevel`] and return `(matches, comparisons)`, where comparisons
//! are the *actual* element comparisons performed — `O(s log(l/s))` for
//! galloping, not `s + l` — so a caller that reports work reports the
//! work really done. Every entry point, plain or counted, goes through the
//! one private `dispatch`, which owns the ratio-tier × level decision.
//!
//! # The SIMD tier
//!
//! On x86_64 with AVX2 each ratio tier additionally has an 8-lane
//! `std::arch` kernel (the private `x86` submodule): a
//! rotate-and-compare block merge for interleaved shapes, block-skipping
//! advance loops for skewed shapes, and a vector-probed gallop for
//! lopsided shapes. There is one vector level: a host without AVX2 runs
//! the scalar tier, as every non-x86 host does. The level is detected at
//! runtime ([`SimdLevel::detect`], cached by [`simd_level`]) with the
//! [`PDTL_SIMD`](SIMD_ENV) env var as the kill-switch/ablation knob,
//! mirroring `PDTL_IO_BACKEND`. Two contracts make the tier invisible
//! to everything downstream:
//!
//! 1. **Semantics** — every SIMD kernel visits exactly the scalar
//!    kernel's matches, in the same ascending order.
//! 2. **Accounting** — the counted entry points report the comparison
//!    count *the scalar kernel of the same ratio tier would have
//!    performed*, derived from scalar-identical cursor state or probe
//!    replay after the fact (the merges' `i + j - matches`,
//!    `scalar::gallop_probe_cost`) — no
//!    counter runs in any vector loop. Counted work is therefore
//!    bit-identical across `PDTL_SIMD` levels; only wall time moves.
//!    (`WorkerReport::cpu_ops` is level-invariant for a simpler
//!    reason: the engine's join counts marks and probes and calls no
//!    kernel.)
//!
//! Ratio-tier boundaries (`ADVANCE_RATIO`, `GALLOP_RATIO`) are
//! shared by both levels for the same reason: the level selects an
//! implementation *within* a tier, never a different tier.
//!
//! The kernels require strictly increasing (duplicate-free) inputs —
//! true for every adjacency list in the pipeline, enforced upstream by
//! the graph builders and property-tested in `simd_parity.rs`.

mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::OnceLock;

/// Size ratio beyond which galloping beats the linear merge. Justified
/// by the `exp kernels` rows `intersect/{linear,gallop,linear_scalar}/*`,
/// which time both kernels on the three `kernelbench::workload` shapes
/// (this container, min/iter): ratio 1 (`1000x1000`) linear 1.2 µs vs
/// gallop 3.4 µs — linear wins 3×; ratio 100 (`100x10000`) linear
/// 5.8 µs vs gallop 1.3 µs; ratio 10⁴ (`10x100000`) linear 41 µs vs
/// gallop 0.24 µs; 10k into 100k (ratio 10) measured break-even. The
/// crossover sits just above 10, so gallop whenever the ratio
/// exceeds 12. Re-measured under the AVX2 tier (PR 6): the block-skip
/// advance loops move the vector crossover up — at ratio 100 they now
/// edge out gallop (15.0 vs 17.4 µs) and at ratio 10 the two are at
/// parity (84 vs 81 µs) — while the scalar tier still flips hard at
/// ratio 100 (advance 57 µs vs gallop 17 µs). The boundary is shared
/// across levels (that sharing keeps the counted comparisons
/// level-invariant), and
/// 12 stays the right compromise: it trades a ~15% AVX2 loss on
/// ratio-100 shapes for the scalar path's 3.3× win there, and every
/// other (level, ratio) cell agrees with it.
const GALLOP_RATIO: usize = 12;

/// Size ratio beyond which the advance-loop merge beats the three-way
/// interleaved merge (both linear). Below it, inputs interleave tightly
/// and the advance loops' per-frontier re-test adds ~50% comparisons
/// (the PR 2 `1000x1000` regression, 1.33 → 2.01 µs); above it, one
/// side produces multi-element runs and the single-comparison advance
/// steps beat the three-way branch (`100x10000` 10.4 → 6.2 µs in PR 2;
/// both shapes are `exp kernels` rows, `intersect/linear_scalar/*`).
/// Any threshold in (1, 10] separates the bench shapes; 4 leaves margin
/// on both sides. The SIMD tier widens the gap in both directions (the
/// block merge wins interleaved shapes, the vectorized advance loops
/// win skewed ones) without moving the crossover, so the constant is
/// shared by both `PDTL_SIMD` levels — which is also what keeps the
/// counted comparisons level-invariant per shape.
const ADVANCE_RATIO: usize = 4;

/// Minimum `max(|a|, |b|)` before the block-skipping advance loops pay
/// for their setup; tiny lists stay scalar. (The block merge has no
/// floor: below one 8-lane block per side its masked small/stream
/// stages take over, and they beat the scalar merge on every
/// interleaved shape.)
#[cfg(target_arch = "x86_64")]
const SIMD_SKEW_MIN: usize = 16;
/// Minimum `max(|a|, |b|)` for the vector-probed gallop. Much higher
/// than [`SIMD_SKEW_MIN`]: on a large side below a few cache lines the
/// scalar probes are all L1 hits and the per-element window compare is
/// pure overhead (measured 1.2× slower on the gallop-tier shapes the
/// in-memory MGT workload issues, `l` ≈ 16–32).
#[cfg(target_arch = "x86_64")]
const GALLOP_SIMD_MIN: usize = 128;

/// Environment variable overriding the detected SIMD level
/// (`off` | `avx2` | `auto`, case-insensitive). The kill-switch and
/// ablation knob for the vectorized kernels, mirroring
/// `PDTL_IO_BACKEND`: `off` forces the scalar kernels everywhere,
/// `avx2` asks for the vector tier (and gets it only where the host
/// has it), `auto` (or unset, or unrecognised) uses
/// [`SimdLevel::detect`]. Read once, on first kernel use, and cached
/// for the process ([`simd_level`]).
pub const SIMD_ENV: &str = "PDTL_SIMD";

/// Which intersection-kernel implementation tier runs: scalar
/// everywhere, or the x86_64 AVX2 kernels.
///
/// Naming a level is always safe: [`resolve`](Self::resolve) caps it at
/// what the host supports, and every kernel entry point resolves the
/// level it is handed before acting on it.
///
/// ```
/// use pdtl_core::intersect::SimdLevel;
///
/// // Every level's canonical name parses back to itself…
/// for l in SimdLevel::ALL {
///     assert_eq!(SimdLevel::parse(l.name()), Some(l));
/// }
/// // …case-insensitively.
/// assert_eq!(SimdLevel::parse("AVX2"), Some(SimdLevel::Avx2));
///
/// // `resolve` never yields a level this host cannot run:
/// assert!(SimdLevel::Avx2.resolve() <= SimdLevel::detect());
/// assert_eq!(SimdLevel::Off.resolve(), SimdLevel::Off);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Scalar kernels only (the portable fallback and the ablation
    /// baseline; `PDTL_SIMD=off`).
    Off,
    /// 8-lane `std::arch` kernels (requires runtime-detected AVX2).
    Avx2,
}

impl SimdLevel {
    /// Every level, lowest to highest.
    pub const ALL: [SimdLevel; 2] = [SimdLevel::Off, SimdLevel::Avx2];

    /// Stable lowercase name (bench row / log / env spelling).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Off => "off",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Parse a level name, case-insensitively. `scalar` is accepted as
    /// an alias for `off`. `auto` is *not* a level — callers wanting
    /// the `auto` semantics use [`SimdLevel::from_env`].
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "scalar" => Some(SimdLevel::Off),
            "avx2" => Some(SimdLevel::Avx2),
            _ => None,
        }
    }

    /// The best level the running host supports: [`Avx2`](Self::Avx2)
    /// where runtime detection finds it on x86_64, otherwise
    /// [`Off`](Self::Off).
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        SimdLevel::Off
    }

    /// The level requested by [`SIMD_ENV`]: an explicit level capped at
    /// what the host supports, or [`detect`](Self::detect) when the
    /// variable is unset, `auto`, or unrecognised.
    pub fn from_env() -> Self {
        Self::from_request(std::env::var(SIMD_ENV).ok().as_deref())
    }

    /// [`from_env`](Self::from_env) on the variable's value.
    fn from_request(value: Option<&str>) -> Self {
        value
            .and_then(SimdLevel::parse)
            .map_or_else(SimdLevel::detect, SimdLevel::resolve)
    }

    /// Cap this level at what the running host can execute — requesting
    /// `avx2` on a host without it yields `off`, never an illegal
    /// instruction. `Off` resolves without consulting the CPU.
    #[inline]
    pub fn resolve(self) -> Self {
        match self {
            SimdLevel::Off => SimdLevel::Off,
            SimdLevel::Avx2 => Self::detect(),
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The process-wide SIMD level every plain (non-`_with`) kernel entry
/// point dispatches on: [`SimdLevel::from_env`], resolved once on first
/// use and cached.
///
/// ```
/// use pdtl_core::intersect::{simd_level, SimdLevel};
/// assert!(simd_level() <= SimdLevel::detect());
/// ```
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(SimdLevel::from_env)
}

/// What an entry point asks [`dispatch`] for.
#[derive(Clone, Copy)]
enum Kernel {
    /// A linear merge, whatever the length ratio.
    Merge,
    /// Galloping, whatever the length ratio.
    Gallop,
    /// Galloping past `GALLOP_RATIO`, a linear merge below it.
    Adaptive,
}

/// The one ratio-tier × level decision, under every entry point: pick
/// the tier from the request and the length ratio (gallop, advance-loop
/// merge or interleaved merge), then run that tier's AVX2 kernel where
/// the level allows and its length gate says it pays, the scalar kernel
/// otherwise. Always inlined, so the constant `kernel` folds away and
/// a caller's inner loop sees only the branches of its own request.
#[inline(always)]
fn dispatch(
    kernel: Kernel,
    level: SimdLevel,
    a: &[u32],
    b: &[u32],
    mut visit: impl FnMut(u32),
) -> (u64, u64) {
    let (s, l) = (a.len().min(b.len()), a.len().max(b.len()));
    if s == 0 {
        return (0, 0);
    }
    let lopsided = s * GALLOP_RATIO < l;
    let gallop = match kernel {
        Kernel::Merge => false,
        Kernel::Gallop => true,
        Kernel::Adaptive => lopsided,
    };
    let skewed = l >= ADVANCE_RATIO * s;
    #[cfg(target_arch = "x86_64")]
    if level.resolve() == SimdLevel::Avx2 {
        // SAFETY (the three calls below): `resolve` yields `Avx2` only
        // where `is_x86_feature_detected!("avx2")` held on this CPU —
        // whatever level the caller named — and both slices are
        // non-empty (checked above).
        if !gallop && !skewed {
            return unsafe { x86::merge_avx2(a, b, &mut visit) };
        }
        if !gallop && l >= SIMD_SKEW_MIN {
            return unsafe { x86::advance_avx2(a, b, &mut visit) };
        }
        // The vector-probed frontier only pays inside the gallop regime:
        // on interleaved shapes forced through `Kernel::Gallop` the
        // per-element window compare is pure overhead over the 1–3
        // scalar probes it replaces (measured 2× slower on the
        // `intersect/gallop/1000x1000` row), so those run the scalar
        // kernel — as do small large sides (`GALLOP_SIMD_MIN`).
        if gallop && lopsided && l >= GALLOP_SIMD_MIN {
            return unsafe { x86::gallop_avx2(a, b, &mut visit) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = level;
    if gallop {
        scalar::gallop_counted(a, b, visit)
    } else if skewed {
        scalar::advance_counted(a, b, visit)
    } else {
        scalar::interleaved_counted(a, b, visit)
    }
}

/// Visit every element of `a ∩ b` in ascending order with a linear
/// merge at the ambient [`simd_level`]. Returns the count.
#[inline]
pub fn intersect_visit(a: &[u32], b: &[u32], visit: impl FnMut(u32)) -> u64 {
    dispatch(Kernel::Merge, simd_level(), a, b, visit).0
}

/// Merge intersection at an explicit [`SimdLevel`], returning
/// `(matches, comparisons)`.
///
/// Tightly interleaved (near-equal-length) inputs take the
/// branch-predictable three-way merge, skewed inputs take the
/// advance-loop merge (see `ADVANCE_RATIO`). Both are `O(|a| + |b|)`
/// with at most `2(|a| + |b|)` counted comparisons and produce
/// identical output (property-tested). Any level is safe to request on
/// any host; it changes wall time only, never the returned pair or the
/// visit sequence:
///
/// ```
/// use pdtl_core::intersect::{intersect_visit_counted_with, SimdLevel};
///
/// let a: Vec<u32> = (0..64).collect();
/// let b: Vec<u32> = (0..64).map(|x| x * 2).collect();
/// let mut out = Vec::new();
/// let scalar = intersect_visit_counted_with(SimdLevel::Off, &a, &b, |x| out.push(x));
/// assert_eq!(out.len() as u64, scalar.0);
/// for level in SimdLevel::ALL {
///     assert_eq!(intersect_visit_counted_with(level, &a, &b, |_| {}), scalar);
/// }
/// ```
#[inline]
pub fn intersect_visit_counted_with(
    level: SimdLevel,
    a: &[u32],
    b: &[u32],
    visit: impl FnMut(u32),
) -> (u64, u64) {
    dispatch(Kernel::Merge, level, a, b, visit)
}

/// Galloping intersection at the ambient [`simd_level`]:
/// exponential-probe each element of the smaller slice into the
/// remainder of the larger one. Returns the count.
#[inline]
pub fn intersect_gallop_visit(a: &[u32], b: &[u32], visit: impl FnMut(u32)) -> u64 {
    dispatch(Kernel::Gallop, simd_level(), a, b, visit).0
}

/// Galloping intersection at an explicit [`SimdLevel`], returning
/// `(matches, comparisons)`. Every probe of the large slice
/// (exponential step or binary-search midpoint) counts as one
/// comparison — at `Avx2` the probes are located by vector compare, but
/// the *reported* count is the scalar probe sequence's, replayed
/// arithmetically.
///
/// ```
/// use pdtl_core::intersect::{intersect_gallop_visit_counted_with, SimdLevel};
///
/// let small = [5u32, 500, 5000];
/// let large: Vec<u32> = (0..10_000).collect();
/// let scalar = intersect_gallop_visit_counted_with(SimdLevel::Off, &small, &large, |_| {});
/// for level in SimdLevel::ALL {
///     let got = intersect_gallop_visit_counted_with(level, &small, &large, |_| {});
///     assert_eq!(got, scalar, "{level}");
/// }
/// ```
#[inline]
pub fn intersect_gallop_visit_counted_with(
    level: SimdLevel,
    a: &[u32],
    b: &[u32],
    visit: impl FnMut(u32),
) -> (u64, u64) {
    dispatch(Kernel::Gallop, level, a, b, visit)
}

/// Adaptive intersection at an explicit [`SimdLevel`] — gallop when
/// sizes are lopsided, merge otherwise — returning `(matches,
/// comparisons)`; [`intersect_count`] is this at the cached level.
/// Equal output on all
/// inputs (property-tested). The ratio boundaries (`ADVANCE_RATIO`,
/// `GALLOP_RATIO`) are shared by both levels, so the counted
/// comparisons are level-invariant shape by shape.
///
/// ```
/// use pdtl_core::intersect::{intersect_adaptive_visit_counted_with, SimdLevel};
///
/// let a: Vec<u32> = (0..40).map(|x| x * 7).collect();
/// let b: Vec<u32> = (0..4000).collect();
/// let scalar = intersect_adaptive_visit_counted_with(SimdLevel::Off, &a, &b, |_| {});
/// let vector = intersect_adaptive_visit_counted_with(SimdLevel::detect(), &a, &b, |_| {});
/// assert_eq!(scalar, vector);
/// ```
#[inline]
pub fn intersect_adaptive_visit_counted_with(
    level: SimdLevel,
    a: &[u32],
    b: &[u32],
    visit: impl FnMut(u32),
) -> (u64, u64) {
    dispatch(Kernel::Adaptive, level, a, b, visit)
}

/// Count-only adaptive intersection at the ambient [`simd_level`].
#[inline]
pub fn intersect_count(a: &[u32], b: &[u32]) -> u64 {
    dispatch(Kernel::Adaptive, simd_level(), a, b, |_| {}).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adaptive(a: &[u32], b: &[u32], visit: impl FnMut(u32)) -> (u64, u64) {
        intersect_adaptive_visit_counted_with(simd_level(), a, b, visit)
    }

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
            let (n3, o3) = collect(|a, b, v| adaptive(a, b, v).0, &a, &b);
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
                let (n3, _) = intersect_visit_counted_with(simd_level(), x, y, |v| o3.push(v));
                assert_eq!((n1, &o1), (n2, &o2), "{la}x{lb}");
                assert_eq!((n1, &o1), (n3, &o3), "{la}x{lb}");
            }
        }
    }

    #[test]
    fn visit_order_is_ascending() {
        let a: Vec<u32> = (0..200).step_by(2).collect();
        let b: Vec<u32> = (0..200).step_by(3).collect();
        let (_, out) = collect(|a, b, v| adaptive(a, b, v).0, &a, &b);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn merge_comparisons_are_linear() {
        let a: Vec<u32> = (0..500).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..500).map(|x| x * 2 + 1).collect();
        let (m, cmps) = intersect_visit_counted_with(simd_level(), &a, &b, |_| {});
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
        let (m, cmps) = intersect_gallop_visit_counted_with(simd_level(), &small, &large, |_| {});
        assert_eq!(m, 16);
        assert!(
            cmps < 16 * 2 * (17 + 2),
            "gallop should be O(s log(l/s)) comparisons, got {cmps}"
        );
        let (_, merge_cmps) = intersect_visit_counted_with(simd_level(), &small, &large, |_| {});
        assert!(cmps < merge_cmps / 10, "{cmps} vs merge {merge_cmps}");
    }

    #[test]
    fn counted_variants_agree_with_plain() {
        let a: Vec<u32> = (0..300).step_by(3).collect();
        let b: Vec<u32> = (0..300).step_by(7).collect();
        let (plain, _) = collect(|a, b, v| adaptive(a, b, v).0, &a, &b);
        let (counted, cmps) = adaptive(&a, &b, |_| {});
        assert_eq!(plain, counted);
        assert!(cmps > 0);
    }

    #[test]
    fn level_names_round_trip() {
        for l in SimdLevel::ALL {
            assert_eq!(SimdLevel::parse(l.name()), Some(l));
            assert_eq!(SimdLevel::parse(&l.name().to_uppercase()), Some(l));
            assert_eq!(l.to_string(), l.name());
        }
        assert_eq!(SimdLevel::parse("scalar"), Some(SimdLevel::Off));
        assert_eq!(SimdLevel::parse("auto"), None, "auto is not a level");
        assert_eq!(SimdLevel::parse("gibberish"), None);
        assert_eq!(SimdLevel::parse("sse2"), None, "one vector level");
        // PDTL_SIMD=sse2 is unrecognised now, so it means `auto`.
        assert_eq!(SimdLevel::from_request(Some("sse2")), SimdLevel::detect());
        assert_eq!(SimdLevel::from_request(Some("off")), SimdLevel::Off);
        assert_eq!(SimdLevel::from_request(None), SimdLevel::detect());
    }

    #[test]
    fn resolve_caps_at_host_capability() {
        for l in SimdLevel::ALL {
            assert!(l.resolve() <= SimdLevel::detect());
            assert!(l.resolve() <= l, "resolve never raises the level");
        }
        assert_eq!(SimdLevel::Off.resolve(), SimdLevel::Off);
    }

    #[test]
    fn every_level_matches_scalar_on_every_tier_shape() {
        // One shape per dispatch tier (interleaved / advance / gallop),
        // plus block-edge lengths; the exhaustive adversarial sweep
        // lives in tests/simd_parity.rs.
        let shapes: [(usize, usize); 8] = [
            (1000, 1000),
            (100, 100),
            (9, 9),
            (100, 990),
            (16, 120),
            (10, 10_000),
            (7, 200),
            (8, 64),
        ];
        for &(la, lb) in &shapes {
            let a: Vec<u32> = (0..la as u32).map(|x| x * 3).collect();
            let b: Vec<u32> = (0..lb as u32).map(|x| x * 2).collect();
            for (x, y) in [(&a, &b), (&b, &a)] {
                let mut so = Vec::new();
                let scalar = intersect_adaptive_visit_counted_with(SimdLevel::Off, x, y, |v| {
                    so.push(v);
                });
                let mut vo = Vec::new();
                let got =
                    intersect_adaptive_visit_counted_with(SimdLevel::Avx2, x, y, |v| vo.push(v));
                assert_eq!(got, scalar, "{la}x{lb} at avx2");
                assert_eq!(vo, so, "{la}x{lb} at avx2 visit order");
            }
        }
    }
}
