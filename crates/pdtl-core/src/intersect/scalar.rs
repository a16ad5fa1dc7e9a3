//! Portable scalar intersection kernels, plus the count-reconstruction
//! helpers that keep the SIMD tier accounting-identical to them.
//!
//! Three kernels, one per dispatch tier (see the module docs): the
//! three-way-branch merge for tightly interleaved inputs, the
//! advance-loop merge for skewed ones, and galloping for lopsided ones.
//! These are the *reference semantics*: a SIMD kernel may walk the data
//! any way it likes, but must visit the same elements in the same order
//! and report the comparison count its scalar twin would have reported.
//! For the merges that count is a closed form over the final cursor
//! positions (`i + j - matches`, a function of the input rather than
//! the path — unit-tested below); for galloping it is a deterministic
//! replay of the probe sequence ([`gallop_probe_cost`]).

/// The three-way-branch merge: one comparison per step, the fast path
/// on inputs whose elements interleave (near-equal lengths). Callers
/// guarantee both slices are non-empty.
///
/// No comparison counter runs in the loop: every step advances `i`,
/// `j`, or both (on a match), so the step count is recoverable as
/// `i + j - matches` — one comparison per step, none of the counter's
/// loop-carried dependency.
///
/// The stop cursors are a function of the input, not of the path: the
/// loop exits at the first exhaustion, so the side with the smaller
/// maximum `m = min(a.last(), b.last())` is fully consumed and the
/// other side has consumed precisely its elements below `m`, plus `m`
/// itself iff it matched (both sides are exhausted on equal maxima).
/// That closed form is what lets the AVX2 block merge — which discards
/// whole blocks, each bounded by the opposite block's max, and so drops
/// nothing below `m` either — jump its cursors there and report this
/// kernel's count.
#[inline]
pub(super) fn interleaved_counted(a: &[u32], b: &[u32], mut visit: impl FnMut(u32)) -> (u64, u64) {
    let (mut i, mut j) = (0usize, 0usize);
    let mut matches = 0u64;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                visit(a[i]);
                matches += 1;
                i += 1;
                j += 1;
            }
        }
    }
    (matches, (i + j) as u64 - matches)
}

/// The advance-loop merge: each tight loop runs one cursor up to the
/// other's frontier with a single comparison per step, the fast path
/// when one side produces long runs (skewed lengths). Callers guarantee
/// both slices are non-empty.
#[inline]
pub(super) fn advance_counted(a: &[u32], b: &[u32], mut visit: impl FnMut(u32)) -> (u64, u64) {
    let (mut i, mut j) = (0usize, 0usize);
    let mut matches = 0u64;
    let mut cmps = 0u64;
    'outer: loop {
        // Tight single-comparison advance loops: each catches one side
        // up to the other's frontier before re-testing for a match.
        let mut y = b[j];
        while a[i] < y {
            cmps += 1;
            i += 1;
            if i == a.len() {
                break 'outer;
            }
        }
        let x = a[i];
        while b[j] < x {
            cmps += 1;
            j += 1;
            if j == b.len() {
                break 'outer;
            }
        }
        y = b[j];
        cmps += 1;
        if x == y {
            visit(x);
            matches += 1;
            i += 1;
            j += 1;
            if i == a.len() || j == b.len() {
                break;
            }
        }
    }
    (matches, cmps)
}

/// Galloping intersection: exponential-probe each element of the
/// smaller slice into the remainder of the larger one. Every probe of
/// the large slice (exponential step or binary-search midpoint) counts
/// as one comparison.
#[inline]
pub(super) fn gallop_counted(a: &[u32], b: &[u32], mut visit: impl FnMut(u32)) -> (u64, u64) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut matches = 0u64;
    let mut cmps = 0u64;
    let mut lo = 0usize;
    for &x in small {
        // Exponential probe from the current frontier.
        let mut step = 1usize;
        let mut hi = lo;
        while hi < large.len() {
            cmps += 1;
            if large[hi] >= x {
                break;
            }
            lo = hi + 1;
            hi = lo + step;
            step <<= 1;
        }
        // Invariant: if hi < len then large[hi] >= x, so the search
        // window must include index hi itself.
        let mut right = (hi + 1).min(large.len());
        // Binary search for x in large[lo..right], counting probes.
        while lo < right {
            let mid = lo + (right - lo) / 2;
            cmps += 1;
            match large[mid].cmp(&x) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => right = mid,
                std::cmp::Ordering::Equal => {
                    visit(x);
                    matches += 1;
                    lo = mid + 1;
                    break;
                }
            }
        }
        if lo >= large.len() {
            break;
        }
    }
    (matches, cmps)
}

/// The probes [`gallop_counted`] charges for one element of the small
/// side, replayed arithmetically.
///
/// Given the frontier `f` (first index `>= lo0` whose value is `>= x`,
/// or `len`), every comparison outcome of the scalar gallop is
/// determined: an exponential probe at `hi` succeeds iff `hi >= f`, a
/// binary midpoint `mid` orders below/above `x` as `mid < f` / `mid > f`,
/// and hits `x` exactly at `mid == f` when `matched`. Replaying the
/// probe sequence against those outcomes reproduces the scalar count
/// without touching memory — which is what lets the SIMD gallop locate
/// `f` with vector compares and still report scalar-identical
/// `cpu_ops`. After the element, the scalar frontier is
/// `f + usize::from(matched)`.
#[inline]
pub(super) fn gallop_probe_cost(lo0: usize, f: usize, matched: bool, len: usize) -> u64 {
    let mut cost = 0u64;
    let mut lo = lo0;
    let mut hi = lo0;
    let mut step = 1usize;
    while hi < len {
        cost += 1;
        if hi >= f {
            break;
        }
        lo = hi + 1;
        hi = lo + step;
        step <<= 1;
    }
    let mut right = (hi + 1).min(len);
    while lo < right {
        let mid = lo + (right - lo) / 2;
        cost += 1;
        if mid < f {
            lo = mid + 1;
        } else if mid > f || !matched {
            right = mid;
        } else {
            break; // the Equal arm: mid == f and large[f] == x
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dup-free sorted pseudo-random set.
    fn pseudo_set(seed: u64, len: usize, span: u32) -> Vec<u32> {
        let mut x = seed | 1;
        let mut v: Vec<u32> = (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u32 % span.max(1)
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn interleaved_count_is_a_closed_form_over_the_stop_cursors() {
        // The contract the SIMD block merges lean on: the scalar merge's
        // final cursor positions are a function of the input (exhausted
        // side fully consumed, the other side consumed everything below
        // `m = min(maxes)` plus a matched `m`), and the count is
        // `i + j - matches` over them.
        for seed in 0..60u64 {
            let a = pseudo_set(seed * 2 + 1, 1 + (seed as usize * 7) % 200, 400);
            let b = pseudo_set(seed * 2 + 2, 1 + (seed as usize * 13) % 200, 400);
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let mut last = None;
            let (m, cmps) = interleaved_counted(&a, &b, |v| last = Some(v));
            let amax = *a.last().unwrap();
            let bmax = *b.last().unwrap();
            let (i_stop, j_stop) = match amax.cmp(&bmax) {
                std::cmp::Ordering::Equal => (a.len(), b.len()),
                std::cmp::Ordering::Less => (
                    a.len(),
                    b.partition_point(|&y| y < amax) + usize::from(last == Some(amax)),
                ),
                std::cmp::Ordering::Greater => (
                    a.partition_point(|&x| x < bmax) + usize::from(last == Some(bmax)),
                    b.len(),
                ),
            };
            assert_eq!(
                cmps,
                (i_stop + j_stop) as u64 - m,
                "seed {seed}: a={a:?} b={b:?}"
            );
        }
    }

    #[test]
    fn gallop_probe_cost_replays_the_scalar_probes() {
        for seed in 0..40u64 {
            let small = pseudo_set(seed * 2 + 1, 1 + (seed as usize * 3) % 24, 4000);
            let large = pseudo_set(seed * 2 + 2, 200 + (seed as usize * 17) % 800, 4000);
            if small.is_empty() || large.is_empty() || small.len() > large.len() {
                continue;
            }
            let (_, cmps) = gallop_counted(&small, &large, |_| {});
            // Replay: walk the small side maintaining the frontier by hand.
            let mut total = 0u64;
            let mut lo = 0usize;
            for &x in &small {
                let f = lo + large[lo..].partition_point(|&y| y < x);
                let matched = f < large.len() && large[f] == x;
                total += gallop_probe_cost(lo, f, matched, large.len());
                lo = f + usize::from(matched);
                if lo >= large.len() {
                    break;
                }
            }
            assert_eq!(cmps, total, "seed {seed}");
        }
    }
}
