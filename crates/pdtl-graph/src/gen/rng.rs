//! A tiny, fast, stable PRNG for the generators.
//!
//! Generators must be reproducible bit-for-bit across platforms, compiler
//! versions and dependency upgrades (the experiment harness caches
//! generated datasets, its `exp` tables print their triangle counts, and
//! `tests/golden.rs` pins their digests), so they use this
//! self-contained SplitMix64 instead of an external crate.

/// SplitMix64 (Steele, Lea, Flood; used as the seeding PRNG of the
/// xoshiro family). Passes BigCrush when used directly; more than enough
/// statistical quality for graph generation.
///
/// The state is a counter: each draw adds the constant `GAMMA`, and the
/// output is a pure function of the new state. So after `i` draws the
/// state is `seed + i·GAMMA`, and [`jump`](SplitMix64::jump) skips any
/// number of draws in O(1) — what lets the generators split one seeded
/// stream across threads and still produce the serial stream's values.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

/// The increment one draw adds to the state (the golden-ratio constant).
const GAMMA: u64 = 0x9E3779B97F4A7C15;

impl SplitMix64 {
    /// Seed the generator.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Skip `draws` draws: afterwards the generator yields what it would
    /// have yielded after `draws` calls of [`next_u64`](Self::next_u64)
    /// (every `next_*` method is exactly one draw).
    pub fn jump(&mut self, draws: u64) {
        self.state = self.state.wrapping_add(draws.wrapping_mul(GAMMA));
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 top bits -> uniform dyadic rational in [0,1)
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` (Lemire's multiply-shift; slight
    /// modulo bias is irrelevant at graph-generation scale but we avoid
    /// it anyway).
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_first_value() {
        // Reference value from the public-domain SplitMix64 C code with
        // seed 0: first output is 0xE220A8397B1DCDAF.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220A8397B1DCDAF);
    }

    #[test]
    fn jumping_equals_drawing() {
        for n in [0u64, 1, 5 * 17, 1_000_000] {
            let mut drawn = SplitMix64::new(11);
            for _ in 0..n {
                drawn.next_u64();
            }
            let mut jumped = SplitMix64::new(11);
            jumped.jump(n);
            assert_eq!(jumped.next_u64(), drawn.next_u64(), "n = {n}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(SplitMix64::new(1).next_u64(), SplitMix64::new(2).next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_in_range_and_covers() {
        let mut r = SplitMix64::new(9);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.next_bounded(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        SplitMix64::new(0).next_bounded(0);
    }

    #[test]
    fn mean_is_roughly_half() {
        let mut r = SplitMix64::new(3);
        let mean: f64 = (0..10_000).map(|_| r.next_f64()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
