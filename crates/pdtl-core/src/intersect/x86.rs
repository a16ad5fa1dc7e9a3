//! x86_64 AVX2 (8-lane) `std::arch` intersection kernels, one per
//! dispatch tier.
//!
//! Every kernel here upholds the two module contracts: the visit
//! sequence is exactly the scalar kernel's (same matches, ascending),
//! and the returned comparison count is the scalar kernel's — either
//! derived from scalar-identical cursor state after the vector work
//! (the merge's `i + j - matches` over the stop cursors
//! `scalar::interleaved_counted` documents,
//! `scalar::gallop_probe_cost`), or charged by scalar loops that are
//! themselves step-for-step the scalar kernel's; no counter ever runs
//! per-lane inside a vector loop. Inputs are strictly increasing `u32`
//! slices (the block merge would double-emit on duplicates); the
//! dispatcher guarantees non-empty slices.
//!
//! # Safety
//!
//! Every function here executes AVX2 instructions — the three entry
//! points and their stages through `#[target_feature(enable = "avx2")]`,
//! the `#[inline(always)]` helpers by inlining into them — and must
//! only run after `is_x86_feature_detected!("avx2")` held, which is what
//! `SimdLevel::resolve` establishes in the dispatcher.

use std::arch::x86_64::*;

use super::scalar;

/// `u32` lanes per 256-bit vector.
const W: usize = 8;

/// Count of leading lanes in the 8-lane window at `p` that are `< y`
/// unsigned. On sorted input the `< y` lanes form a prefix, so this is
/// also the in-window index of the first lane `>= y` (8 = none).
///
/// `u32` order under AVX2's signed compares: bias both sides by
/// `i32::MIN` (flip the sign bit), which is the standard
/// order-preserving unsigned→signed shift (no `cmplt` in AVX2, so the
/// compare is `y > lane`).
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn lt_prefix_avx2(p: *const u32, y: u32) -> usize {
    let bias = _mm256_set1_epi32(i32::MIN);
    let v = _mm256_xor_si256(_mm256_loadu_si256(p as *const __m256i), bias);
    let yy = _mm256_xor_si256(_mm256_set1_epi32(y as i32), bias);
    let lt = _mm256_cmpgt_epi32(yy, v);
    (_mm256_movemask_ps(_mm256_castsi256_ps(lt)) as u32).trailing_ones() as usize
}

/// All-pairs equality of two 8-lane blocks: the identity compare plus
/// the seven rotations of `vb` (`_mm256_cmpeq_epi32` +
/// `_mm256_permutevar8x32_epi32`), OR-ed and movemask-compressed into
/// an a-lane hit mask. One index vector per rotation amount, so all
/// seven permutes are independent of each other (a serial
/// rotate-of-the-rotation chain triples the critical path — measured on
/// the interleaved bench shape).
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn eq_mask_avx2(va: __m256i, vb: __m256i) -> u32 {
    let rots = [
        _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0),
        _mm256_setr_epi32(2, 3, 4, 5, 6, 7, 0, 1),
        _mm256_setr_epi32(3, 4, 5, 6, 7, 0, 1, 2),
        _mm256_setr_epi32(4, 5, 6, 7, 0, 1, 2, 3),
        _mm256_setr_epi32(5, 6, 7, 0, 1, 2, 3, 4),
        _mm256_setr_epi32(6, 7, 0, 1, 2, 3, 4, 5),
        _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6),
    ];
    let mut eq = _mm256_cmpeq_epi32(va, vb);
    for rot in rots {
        let r = _mm256_permutevar8x32_epi32(vb, rot);
        eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(va, r));
    }
    _mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u32
}

/// AVX2 block merge for the interleaved tier: compare an 8-lane block
/// of `a` against all 8 rotations of an 8-lane block of `b`
/// ([`eq_mask_avx2`]), emit hits, then advance whichever block has the
/// smaller maximum (both on a tie). Emitting hits in a-lane order keeps
/// the visit sequence ascending; strict monotonicity of both inputs
/// guarantees each value matches at most one lane, so no double emits.
/// When at most one masked block per side remains — which includes the
/// whole input on the short lists the MGT inner loop issues — the
/// branchless [`merge_small_avx2`] finishes the merge; uneven
/// remainders stream through [`merge_stream_avx2`] first. No stage is
/// scalar. Callers guarantee non-empty slices.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn merge_avx2<V: FnMut(u32)>(a: &[u32], b: &[u32], visit: &mut V) -> (u64, u64) {
    debug_assert!(!a.is_empty() && !b.is_empty());
    let (mut i, mut j) = (0usize, 0usize);
    let mut matches = 0u64;
    // Strict bound: the last element of each side is left for the
    // finishing stage, which therefore always runs to one side's
    // exhaustion — that makes its exit cursors the scalar merge's stop
    // positions (see `scalar::interleaved_counted`).
    while i + 8 < a.len() && j + 8 < b.len() {
        let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
        let vb = _mm256_loadu_si256(b.as_ptr().add(j) as *const __m256i);
        let mut mask = eq_mask_avx2(va, vb);
        while mask != 0 {
            let lane = mask.trailing_zeros() as usize;
            visit(*a.get_unchecked(i + lane));
            matches += 1;
            mask &= mask - 1;
        }
        let amax = *a.get_unchecked(i + 7);
        let bmax = *b.get_unchecked(j + 7);
        // Discarding the block with the smaller max cannot skip a
        // match: any of its values <= that max would sit inside the
        // other block's compared window.
        i += usize::from(amax <= bmax) * 8;
        j += usize::from(bmax <= amax) * 8;
    }
    if a.len() - i > 8 || b.len() - j > 8 {
        merge_stream_avx2(a, b, &mut i, &mut j, &mut matches, visit);
    } else {
        merge_small_avx2(a, b, &mut i, &mut j, &mut matches, visit);
    }
    (matches, (i + j) as u64 - matches)
}

/// Uneven-remainder stage of [`merge_avx2`]: the main loop left one
/// side with at most one (possibly partial) block and the other with
/// more. Hold the short remainder as a padded masked block and stream
/// full 8-lane blocks of the long side against it, discarding each long
/// block whose max is below the short side's max (every such element
/// was just compared against every live short lane). At the first long
/// block whose max reaches the short max, the merge is over — the short
/// side's max is strictly below the long side's overall max (the long
/// side's last element sits beyond this block), so the stop cursors
/// follow from `scalar::interleaved_counted`'s closed form with one
/// biased compare counting the in-block elements below it. If the long
/// side instead runs down to a single block first,
/// [`merge_small_avx2`] finishes.
///
/// Emit order stays ascending across streamed blocks: a short-side lane
/// matched in a later block carries a larger value than any lane
/// matched earlier (earlier blocks' elements are all smaller), and
/// within a block hits are emitted in lane order.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn merge_stream_avx2<V: FnMut(u32)>(
    a: &[u32],
    b: &[u32],
    i: &mut usize,
    j: &mut usize,
    matches: &mut u64,
    visit: &mut V,
) {
    let bias = _mm256_set1_epi32(i32::MIN);
    let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    if a.len() - *i <= 8 {
        // `a` is the short side.
        let la = a.len() - *i;
        let pa = a.as_ptr().add(*i);
        let amax = *a.get_unchecked(a.len() - 1);
        let ka = _mm256_cmpgt_epi32(_mm256_set1_epi32(la as i32), idx);
        let va = _mm256_blendv_epi8(
            _mm256_set1_epi32(amax as i32),
            _mm256_maskload_epi32(pa as *const i32, ka),
            ka,
        );
        let alive = (1u32 << la) - 1;
        while b.len() - *j > 8 {
            let vb = _mm256_loadu_si256(b.as_ptr().add(*j) as *const __m256i);
            let hits = eq_mask_avx2(va, vb) & alive;
            *matches += u64::from(hits.count_ones());
            let mut mask = hits;
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                visit(*pa.add(lane));
                mask &= mask - 1;
            }
            if *b.get_unchecked(*j + 7) >= amax {
                // This block's max reaches amax, and b's last element
                // lies beyond it, so amax < b.last(): `a` exhausts and
                // `b` stops at its elements `< amax` (all discarded
                // blocks, plus this block's sub-amax prefix) plus a
                // matched `amax` — which only this block can hold.
                let y = _mm256_xor_si256(_mm256_set1_epi32(amax as i32), bias);
                let lt = _mm256_cmpgt_epi32(y, _mm256_xor_si256(vb, bias));
                let below = (_mm256_movemask_ps(_mm256_castsi256_ps(lt)) as u32).count_ones();
                *j += below as usize + ((hits >> (la - 1)) & 1) as usize;
                *i = a.len();
                return;
            }
            *j += 8;
        }
    } else {
        // `b` is the short side; hits stay a-lane indexed so emission
        // is unchanged, and `b`'s own-max padding is harmless (an `a`
        // lane equal to it is a genuine match with `b`'s last element).
        let lb = b.len() - *j;
        let pb = b.as_ptr().add(*j);
        let bmax = *b.get_unchecked(b.len() - 1);
        let kb = _mm256_cmpgt_epi32(_mm256_set1_epi32(lb as i32), idx);
        let vb = _mm256_blendv_epi8(
            _mm256_set1_epi32(bmax as i32),
            _mm256_maskload_epi32(pb as *const i32, kb),
            kb,
        );
        while a.len() - *i > 8 {
            let va = _mm256_loadu_si256(a.as_ptr().add(*i) as *const __m256i);
            let hits = eq_mask_avx2(va, vb);
            *matches += u64::from(hits.count_ones());
            let mut mask = hits;
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                visit(*a.get_unchecked(*i + lane));
                mask &= mask - 1;
            }
            if *a.get_unchecked(*i + 7) >= bmax {
                // bmax < a.last(): `b` exhausts, `a` stops at its
                // elements `< bmax` plus a matched `bmax`. "Matched"
                // has no reserved a-lane bit, so one direct compare.
                let x = _mm256_xor_si256(_mm256_set1_epi32(bmax as i32), bias);
                let lt = _mm256_cmpgt_epi32(x, _mm256_xor_si256(va, bias));
                let below = (_mm256_movemask_ps(_mm256_castsi256_ps(lt)) as u32).count_ones();
                let eqb = _mm256_cmpeq_epi32(va, _mm256_set1_epi32(bmax as i32));
                let matched = _mm256_movemask_ps(_mm256_castsi256_ps(eqb)) != 0;
                *i += below as usize + usize::from(matched);
                *j = b.len();
                return;
            }
            *i += 8;
        }
    }
    // The long side ran down to one block before its max caught up:
    // both remainders now fit a masked block each.
    merge_small_avx2(a, b, i, j, matches, visit);
}

/// Branchless finisher for the block merge when each side has at most
/// one (possibly partial) 8-lane block left: masked-load both
/// remainders, pad the dead lanes with the side's own maximum (padding
/// can then only duplicate a value a real lane already carries, so it
/// manufactures no match the scalar merge wouldn't find), take the
/// all-pairs hit mask restricted to `a`'s live lanes, and emit.
///
/// The cursors advance straight to the scalar merge's stop positions,
/// computed from the closed form `scalar::interleaved_counted`
/// documents: the side with the smaller maximum `m` is exhausted, the
/// other consumes its elements `< m` (one biased vector compare +
/// popcount) plus `m` itself iff it matched. Replaces up to 16
/// data-dependent scalar-tail branches with a fixed ~25-instruction
/// sequence — the tail was the dominant cost of the short interleaved
/// intersections the in-memory MGT workload is made of.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn merge_small_avx2<V: FnMut(u32)>(
    a: &[u32],
    b: &[u32],
    i: &mut usize,
    j: &mut usize,
    matches: &mut u64,
    visit: &mut V,
) {
    let (la, lb) = (a.len() - *i, b.len() - *j);
    debug_assert!((1..=8).contains(&la) && (1..=8).contains(&lb));
    let pa = a.as_ptr().add(*i);
    let pb = b.as_ptr().add(*j);
    let amax = *a.get_unchecked(a.len() - 1);
    let bmax = *b.get_unchecked(b.len() - 1);
    let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let ka = _mm256_cmpgt_epi32(_mm256_set1_epi32(la as i32), idx);
    let kb = _mm256_cmpgt_epi32(_mm256_set1_epi32(lb as i32), idx);
    let va = _mm256_blendv_epi8(
        _mm256_set1_epi32(amax as i32),
        _mm256_maskload_epi32(pa as *const i32, ka),
        ka,
    );
    let vb = _mm256_blendv_epi8(
        _mm256_set1_epi32(bmax as i32),
        _mm256_maskload_epi32(pb as *const i32, kb),
        kb,
    );
    let hits = eq_mask_avx2(va, vb) & ((1u32 << la) - 1);
    *matches += u64::from(hits.count_ones());
    let mut mask = hits;
    while mask != 0 {
        let lane = mask.trailing_zeros() as usize;
        visit(*pa.add(lane));
        mask &= mask - 1;
    }
    let bias = _mm256_set1_epi32(i32::MIN);
    match amax.cmp(&bmax) {
        std::cmp::Ordering::Equal => {
            *i = a.len();
            *j = b.len();
        }
        std::cmp::Ordering::Less => {
            // `a` exhausts; `b` consumes its elements `< amax`, plus
            // `amax` iff it matched — and `amax` sits in `a`'s last
            // live lane, so "matched" is that lane's hit bit.
            let y = _mm256_xor_si256(_mm256_set1_epi32(amax as i32), bias);
            let lt = _mm256_cmpgt_epi32(y, _mm256_xor_si256(vb, bias));
            let below = (_mm256_movemask_ps(_mm256_castsi256_ps(lt)) as u32) & ((1u32 << lb) - 1);
            *i = a.len();
            *j += below.count_ones() as usize + ((hits >> (la - 1)) & 1) as usize;
        }
        std::cmp::Ordering::Greater => {
            // Symmetric, except "bmax matched" has no reserved hit bit
            // (hits are a-lane indexed); one direct compare finds
            // whether any live `a` lane equals it.
            let x = _mm256_xor_si256(_mm256_set1_epi32(bmax as i32), bias);
            let lt = _mm256_cmpgt_epi32(x, _mm256_xor_si256(va, bias));
            let below = (_mm256_movemask_ps(_mm256_castsi256_ps(lt)) as u32) & ((1u32 << la) - 1);
            let eqb = _mm256_cmpeq_epi32(va, _mm256_set1_epi32(bmax as i32));
            let matched =
                (_mm256_movemask_ps(_mm256_castsi256_ps(eqb)) as u32) & ((1u32 << la) - 1);
            *i += below.count_ones() as usize + usize::from(matched != 0);
            *j = b.len();
        }
    }
}

/// One side of the advance-loop merge: run the cursor at `*i` up to the
/// first element of `s` that is `>= y`, charging one comparison per
/// element passed (the scalar loop's exact count — it charges per
/// advanced element, and the failing frontier re-test is uncharged).
///
/// A `lt_prefix`-per-window walk loses to the scalar loop here (the
/// bias/compare/movemask chain is ~10 cycles per `W` lanes against the
/// scalar loop's ~1 cycle per element), so the walk is block-max
/// skipping instead: *one* scalar compare of the block's last lane
/// skips `4W`, then `W`, elements at a time, and a single vector
/// compare resolves the final in-block position. Returns `true` when
/// `s` is exhausted.
#[inline(always)]
unsafe fn advance_side(s: &[u32], y: u32, i: &mut usize, cmps: &mut u64) -> bool {
    let i0 = *i;
    // Short advances first, scalar: on mild skews most advances move
    // the cursor 0–2 elements, where the bias/compare/movemask chain
    // below costs ~10 cycles against the scalar compare's one (the
    // 10000x100000 crossover-sweep shape ran 2.2x slower without this).
    while *i < s.len() && *i - i0 < 3 {
        if *s.get_unchecked(*i) >= y {
            *cmps += (*i - i0) as u64;
            return false;
        }
        *i += 1;
    }
    while *i + 4 * W <= s.len() && *s.get_unchecked(*i + 4 * W - 1) < y {
        *i += 4 * W;
    }
    while *i + W <= s.len() && *s.get_unchecked(*i + W - 1) < y {
        *i += W;
    }
    if *i + W <= s.len() {
        // The block's last lane is >= y, so the in-block prefix is < W
        // and the cursor lands strictly inside the slice.
        *i += lt_prefix_avx2(s.as_ptr().add(*i), y);
        *cmps += (*i - i0) as u64;
        false
    } else {
        while *i < s.len() && *s.get_unchecked(*i) < y {
            *i += 1;
        }
        *cmps += (*i - i0) as u64;
        *i == s.len()
    }
}

/// The advance-loop tier with block-skipping advances: structurally the
/// scalar `advance_counted`, but each "run cursor up to the other's
/// frontier" loop skips blocks by their maxima and vector-resolves the
/// final block ([`advance_side`]). The count is exact by construction:
/// comparisons charged = elements advanced, as in the scalar loop.
/// Callers guarantee non-empty slices.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn advance_avx2<V: FnMut(u32)>(
    a: &[u32],
    b: &[u32],
    visit: &mut V,
) -> (u64, u64) {
    let (mut i, mut j) = (0usize, 0usize);
    let mut matches = 0u64;
    let mut cmps = 0u64;
    loop {
        let mut y = *b.get_unchecked(j);
        if advance_side(a, y, &mut i, &mut cmps) {
            break;
        }
        let x = *a.get_unchecked(i);
        if advance_side(b, x, &mut j, &mut cmps) {
            break;
        }
        y = *b.get_unchecked(j);
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

/// One element of the scalar gallop, probe for probe: exponential
/// widening then counted binary search, mutating the cursor exactly as
/// `scalar::gallop_counted` does. Probes at indices below `wend` are
/// known to fail (the caller's vector window showed those lanes `< x`)
/// and are charged without touching memory; pass `wend <= *lo` to make
/// every probe real.
#[inline(always)]
unsafe fn scalar_gallop_step<V: FnMut(u32)>(
    large: &[u32],
    x: u32,
    wend: usize,
    lo: &mut usize,
    cmps: &mut u64,
    matches: &mut u64,
    visit: &mut V,
) {
    let len = large.len();
    let mut step = 1usize;
    let mut hi = *lo;
    while hi < len {
        *cmps += 1;
        if hi >= wend && *large.get_unchecked(hi) >= x {
            break;
        }
        *lo = hi + 1;
        hi = *lo + step;
        step <<= 1;
    }
    let mut right = (hi + 1).min(len);
    while *lo < right {
        let mid = *lo + (right - *lo) / 2;
        *cmps += 1;
        match large.get_unchecked(mid).cmp(&x) {
            std::cmp::Ordering::Less => *lo = mid + 1,
            std::cmp::Ordering::Greater => right = mid,
            std::cmp::Ordering::Equal => {
                visit(x);
                *matches += 1;
                *lo = mid + 1;
                break;
            }
        }
    }
}

/// The gallop tier with a vector-probed frontier: for each element `x`
/// of the small side, one `W`-lane compare at the cursor classifies the
/// element. If the frontier lies inside the window (matches and
/// near-misses cluster on real adjacency lists), it is located with no
/// probe loop at all and the scalar probe sequence — all of it inside
/// the window — is charged arithmetically via
/// `scalar::gallop_probe_cost`. Otherwise every window lane is known
/// `< x`, so the genuine scalar gallop runs with its in-window probes
/// charged load-free ([`scalar_gallop_step`]). Monotone cursor, early
/// exit at the large side's end, identical matches/order/count to
/// `scalar::gallop_counted`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn gallop_avx2<V: FnMut(u32)>(a: &[u32], b: &[u32], visit: &mut V) -> (u64, u64) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let len = large.len();
    let mut matches = 0u64;
    let mut cmps = 0u64;
    let mut lo = 0usize;
    for &x in small {
        if lo + W <= len {
            let k = lt_prefix_avx2(large.as_ptr().add(lo), x);
            if k < W {
                // Frontier inside the window: f < lo + W <= len, and
                // the whole scalar probe sequence for a frontier this
                // close is a handful of arithmetic steps to replay.
                let f = lo + k;
                let matched = *large.get_unchecked(f) == x;
                cmps += scalar::gallop_probe_cost(lo, f, matched, len);
                if matched {
                    visit(x);
                    matches += 1;
                }
                lo = f + usize::from(matched);
            } else {
                scalar_gallop_step(large, x, lo + W, &mut lo, &mut cmps, &mut matches, visit);
            }
        } else {
            // Cursor within W of the end: plain scalar, every probe real.
            scalar_gallop_step(large, x, lo, &mut lo, &mut cmps, &mut matches, visit);
        }
        if lo >= len {
            break;
        }
    }
    (matches, cmps)
}

#[cfg(test)]
mod tests {
    use super::super::scalar;
    use super::*;

    fn avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// Dup-free sorted pseudo-random set over `[base, base + span)`.
    fn pseudo_set(seed: u64, len: usize, base: u32, span: u32) -> Vec<u32> {
        let mut x = seed | 1;
        let mut v: Vec<u32> = (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                base + (x >> 33) as u32 % span.max(1)
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    type Kernel = dyn Fn(&[u32], &[u32], &mut dyn FnMut(u32)) -> (u64, u64);

    fn run(f: &Kernel, a: &[u32], b: &[u32]) -> (u64, u64, Vec<u32>) {
        let mut out = Vec::new();
        let (m, c) = f(a, b, &mut |v| out.push(v));
        (m, c, out)
    }

    #[test]
    fn lane_prefix_helpers_count_unsigned() {
        // Values straddling the sign bit: unsigned order must hold.
        let w = [
            1u32,
            7,
            0x7fff_ffff,
            0x8000_0000,
            0xffff_fffe,
            u32::MAX,
            u32::MAX,
            u32::MAX,
        ];
        unsafe {
            if avx2() {
                assert_eq!(lt_prefix_avx2(w.as_ptr(), 0x8000_0001), 4);
                assert_eq!(lt_prefix_avx2(w.as_ptr(), u32::MAX), 5);
                assert_eq!(lt_prefix_avx2(w.as_ptr(), 7), 1);
            }
        }
    }

    #[test]
    fn block_merges_match_scalar_on_random_sets() {
        for seed in 0..50u64 {
            let a = pseudo_set(seed * 2 + 1, 8 + (seed as usize * 11) % 300, 0, 700);
            let b = pseudo_set(seed * 2 + 2, 8 + (seed as usize * 23) % 300, 0, 700);
            if a.len() < 8 || b.len() < 8 {
                continue;
            }
            let want = run(&|x, y, v| scalar::interleaved_counted(x, y, v), &a, &b);
            if avx2() {
                let avx = run(
                    &|x, y, v| unsafe { merge_avx2(x, y, &mut |e| v(e)) },
                    &a,
                    &b,
                );
                assert_eq!(avx, want, "avx2 seed {seed}");
            }
        }
    }

    #[test]
    fn small_merge_matches_scalar_on_every_length_pair() {
        if !avx2() {
            return;
        }
        // Every (|a|, |b|) in 1..=8 × 1..=8, with values pushed across
        // the sign bit and up to u32::MAX so the own-max padding and
        // biased compares are exercised at the extremes.
        for la in 1..=8usize {
            for lb in 1..=8usize {
                for seed in 0..12u64 {
                    let base = [0u32, 0x7fff_fffd, 0xffff_ffd0][(seed % 3) as usize];
                    let mut a = pseudo_set(seed * 64 + la as u64, la, base, 24);
                    let mut b = pseudo_set(seed * 64 + 32 + lb as u64, lb, base, 24);
                    a.truncate(la.min(a.len()));
                    b.truncate(lb.min(b.len()));
                    let want = run(&|x, y, v| scalar::interleaved_counted(x, y, v), &a, &b);
                    let got = run(
                        &|x, y, v| unsafe { merge_avx2(x, y, &mut |e| v(e)) },
                        &a,
                        &b,
                    );
                    assert_eq!(got, want, "la={la} lb={lb} seed={seed} a={a:?} b={b:?}");
                }
            }
        }
    }

    #[test]
    fn vector_advance_matches_scalar_on_skewed_sets() {
        for seed in 0..50u64 {
            let a = pseudo_set(seed * 2 + 1, 4 + (seed as usize * 7) % 60, 0, 5000);
            let b = pseudo_set(seed * 2 + 2, 100 + (seed as usize * 31) % 900, 0, 5000);
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let want = run(&|x, y, v| scalar::advance_counted(x, y, v), &a, &b);
            if avx2() {
                let avx = run(
                    &|x, y, v| unsafe { advance_avx2(x, y, &mut |e| v(e)) },
                    &a,
                    &b,
                );
                assert_eq!(avx, want, "avx2 seed {seed}");
            }
        }
    }

    #[test]
    fn vector_gallop_matches_scalar_on_lopsided_sets() {
        for seed in 0..50u64 {
            let small = pseudo_set(seed * 2 + 1, 1 + (seed as usize * 5) % 30, 0, 50_000);
            let large = pseudo_set(seed * 2 + 2, 500 + (seed as usize * 37) % 2000, 0, 50_000);
            if small.is_empty() || large.is_empty() {
                continue;
            }
            let want = run(&|x, y, v| scalar::gallop_counted(x, y, v), &small, &large);
            if avx2() {
                let avx = run(
                    &|x, y, v| unsafe { gallop_avx2(x, y, &mut |e| v(e)) },
                    &small,
                    &large,
                );
                assert_eq!(avx, want, "avx2 seed {seed}");
            }
        }
    }
}
