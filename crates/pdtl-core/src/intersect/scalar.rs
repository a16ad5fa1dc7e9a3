//! The scalar intersection kernels, one per dispatch tier (see the
//! module docs): the three-way-branch merge for tightly interleaved
//! inputs, the advance-loop merge for skewed ones, and galloping for
//! lopsided ones. Each returns `(matches, comparisons)`.

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
        // The merge's final cursor positions are a function of the
        // input (exhausted side fully consumed, the other side consumed
        // everything below `m = min(maxes)` plus a matched `m`), and the
        // count is `i + j - matches` over them.
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
}
