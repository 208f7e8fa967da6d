//! Small deterministic PRNG for the random tester.
//!
//! The workspace builds hermetically (no crates.io), so the generator is
//! in-tree: SplitMix64 — 64 bits of state, full period, passes BigCrush —
//! is plenty for *model-guided* test generation, where reproducibility per
//! seed matters and cryptographic quality does not. The API mirrors the
//! subset of `rand` the tester uses (`gen_range` over half-open and
//! inclusive integer ranges, `gen_bool`, slice `choose`).

use std::ops::{Range, RangeInclusive};

/// SplitMix64 generator (Steele, Lea & Flood; the `java.util.SplittableRandom`
/// mixer). Streams are reproducible per seed.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed; equal seeds give equal streams.
    pub fn seed_from_u64(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn gen_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform sample from `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 mantissa bits of uniformity is ample for test-op weighting.
        (self.gen_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p` (clamped to [0, 1]).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform sample from an integer range; panics if the range is empty.
    pub fn gen_range<T: SampleRange>(&mut self, range: T) -> T::Output {
        T::sample(range, self)
    }

    /// A uniformly random item of `items`. It draws what
    /// [`SliceChoose::choose`] draws over `items` collected:
    /// `gen_range(0..n)` for `n > 0` items, nothing for none. It walks
    /// `items` twice instead of collecting them.
    pub fn choose_from<I: Iterator + Clone>(&mut self, mut items: I) -> Option<I::Item> {
        let n = items.clone().count();
        if n == 0 {
            return None;
        }
        items.nth(self.gen_range(0..n))
    }

    // Debiased via rejection sampling (Lemire-style threshold would be
    // faster; the tester is nowhere near RNG-bound).
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let zone = u64::MAX - (u64::MAX - n + 1) % n;
        loop {
            let v = self.gen_u64();
            if v <= zone {
                return v % n;
            }
        }
    }
}

/// Integer ranges [`Rng::gen_range`] accepts.
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draws one uniform sample.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return lo + rng.gen_u64() as $t;
                }
                lo + rng.below(span + 1) as $t
            }
        }
    )*};
}

impl_sample_range!(u32, u64, usize);

/// Uniform element choice, mirroring `rand::seq::SliceRandom::choose`.
pub trait SliceChoose<T> {
    /// A uniformly random element, or `None` if empty.
    fn choose(&self, rng: &mut Rng) -> Option<&T>;
}

impl<T> SliceChoose<T> for [T] {
    fn choose(&self, rng: &mut Rng) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.gen_range(0..self.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        let mut c = Rng::seed_from_u64(43);
        let xs: Vec<u64> = (0..64).map(|_| a.gen_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.gen_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.gen_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds_and_hit_endpoints() {
        let mut rng = Rng::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let v = rng.gen_range(10u64..15);
            assert!((10..15).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some values never drawn: {seen:?}");
        for _ in 0..100 {
            let v = rng.gen_range(1..=2u64);
            assert!((1..=2).contains(&v));
        }
        assert_eq!(rng.gen_range(3usize..4), 3);
        assert_eq!(rng.gen_range(9u32..=9), 9);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.15)).count();
        assert!((1000..2000).contains(&hits), "p=0.15 gave {hits}/10000");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn choose_from_draws_what_choose_draws_over_the_collected_items() {
        for n in 0..20u64 {
            for seed in 0..20 {
                let items = (0..n * 3).filter(|x| x % 3 == 1);
                let collected: Vec<u64> = items.clone().collect();
                let mut a = Rng::seed_from_u64(seed);
                let mut b = a.clone();
                assert_eq!(a.choose_from(items), collected.choose(&mut b).copied());
                assert_eq!(a.gen_u64(), b.gen_u64(), "n {n} seed {seed}");
            }
        }
    }

    #[test]
    fn choose_is_none_only_on_empty() {
        let mut rng = Rng::seed_from_u64(2);
        let empty: [u64; 0] = [];
        assert_eq!(empty.choose(&mut rng), None);
        let xs = [5u64, 6, 7];
        for _ in 0..50 {
            assert!(xs.contains(xs.choose(&mut rng).unwrap()));
        }
    }
}
