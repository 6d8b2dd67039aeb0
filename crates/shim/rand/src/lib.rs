//! API-compatible shim for the subset of `rand` 0.9 this workspace uses:
//! [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], and the
//! [`RngExt`] sampling methods `random`, `random_range`, `random_bool`.
//!
//! The generator is SplitMix64 — a small, fast, well-mixed 64-bit PRNG.
//! It is **not** cryptographic (neither is the use here: training-data
//! generation, seeded for determinism).

use std::ops::{Range, RangeInclusive};

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable uniformly over their whole domain via
/// [`RngExt::random`].
pub trait Standard: Sized {
    #[doc(hidden)]
    fn sample_standard(rng: &mut dyn RngCore) -> Self;
}

/// Ranges samplable via [`RngExt::random_range`].
pub trait SampleRange<T> {
    #[doc(hidden)]
    fn sample_in(self, rng: &mut dyn RngCore) -> T;
}

/// Object-safe raw 64-bit source.
pub trait RngCore {
    /// Next raw 64 bits.
    fn next_u64(&mut self) -> u64;
}

/// Sampling methods, mirroring the `rand` 0.9 `Rng` surface this
/// workspace imports as `RngExt`.
pub trait RngExt: RngCore + Sized {
    /// A uniform sample over `T`'s whole domain.
    fn random<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// A uniform sample from `range`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_in(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore + Sized> RngExt for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: SplitMix64.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // SplitMix64 (Steele, Lea, Flood 2014).
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

impl Standard for u64 {
    fn sample_standard(rng: &mut dyn RngCore) -> u64 {
        rng.next_u64()
    }
}

impl Standard for f64 {
    fn sample_standard(rng: &mut dyn RngCore) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

fn uniform_u64_below(rng: &mut dyn RngCore, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Rejection sampling to kill modulo bias.
    let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % bound;
        }
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_in(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_u64_below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_in(self, rng: &mut dyn RngCore) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + uniform_u64_below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}

int_ranges!(usize, u64, u32, u8, i64, i32);

impl SampleRange<f64> for Range<f64> {
    fn sample_in(self, rng: &mut dyn RngCore) -> f64 {
        assert!(self.start < self.end, "empty range");
        let u = f64::sample_standard(rng);
        self.start + u * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..10 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.random::<u64>(), c.random::<u64>());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.random_range(3usize..17);
            assert!((3..17).contains(&v));
            let w = rng.random_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let f = rng.random_range(-2.5f64..2.5);
            assert!((-2.5..2.5).contains(&f));
            let u = rng.random::<f64>();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.random_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn random_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(9);
        assert!(!(0..100).any(|_| rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
    }
}
