//! Offline, API-compatible subset of the `rand` crate.
//!
//! The build environment has no network access, so this workspace vendors a
//! from-scratch implementation of exactly the `rand` surface the codebase
//! uses: [`RngCore`], [`SeedableRng`], the extension trait [`Rng`]
//! (`gen`, `gen_range`, `gen_bool`), [`seq::SliceRandom`] (`choose`,
//! `shuffle`) and [`distributions::WeightedIndex`].
//!
//! Algorithms follow the upstream semantics (widening-multiply uniform
//! integers, 53-bit uniform floats, Fisher–Yates shuffling) but make no
//! attempt at bit-for-bit stream compatibility with upstream `rand`; the
//! workspace only relies on determinism under a fixed seed, which this
//! implementation provides.

#![forbid(unsafe_code)]

pub mod distributions;
pub mod seq;

use distributions::uniform::{SampleRange, SampleUniform};
use distributions::{Distribution, Standard};

/// The core of a random number generator: a source of random words.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator that can be instantiated from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// Seed type, e.g. `[u8; 32]`.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Creates a generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates a generator from a `u64`, expanded with SplitMix64 exactly so
    /// that distinct small seeds give unrelated streams.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64 { state };
        for chunk in seed.as_mut().chunks_mut(8) {
            let word = sm.next().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&word[..n]);
        }
        Self::from_seed(seed)
    }
}

/// SplitMix64 — used only to expand `u64` seeds into full seed arrays.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Extension methods available on every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value of any [`Standard`]-distributed type (`bool`, the
    /// integer primitives, `f64`/`f32`).
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    /// Samples uniformly from a half-open (`a..b`) or inclusive (`a..=b`)
    /// range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool requires p in [0, 1]");
        // 53-bit uniform in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Fills a byte slice from a `next_u64` implementation; shared by concrete
/// generators.
pub fn fill_bytes_via_u64<R: RngCore + ?Sized>(rng: &mut R, dest: &mut [u8]) {
    for chunk in dest.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&word[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountRng(u64);
    impl RngCore for CountRng {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
            self.0
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            fill_bytes_via_u64(self, dest)
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = CountRng(7);
        for _ in 0..1000 {
            let v: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let f: f64 = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
            let i: usize = rng.gen_range(0..=4);
            assert!(i <= 4);
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = CountRng(1);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn dyn_rng_core_is_object_safe() {
        let mut rng = CountRng(3);
        let mut dynrng: &mut dyn RngCore = &mut rng;
        let _ = dynrng.next_u64();
        let v: bool = (&mut dynrng).gen();
        let _ = v;
    }
}
