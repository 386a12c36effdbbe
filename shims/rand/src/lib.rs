//! Offline drop-in for the subset of `rand` 0.8 the `ppfts` workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the few rand APIs it needs: the [`RngCore`] / [`SeedableRng`] /
//! [`Rng`] trait split, and a deterministic [`rngs::SmallRng`]
//! (xoshiro256++ seeded through SplitMix64, the same construction rand 0.8
//! uses for its 64-bit `SmallRng`). Streams produced by `seed_from_u64`
//! are stable across runs and platforms, which is all the workspace's
//! seeded experiment harnesses require — they do not need to match
//! upstream rand's exact streams.

#![forbid(unsafe_code)]

/// The core of a random number generator: a source of random words.
///
/// Object-safe; runners hand adversaries and schedulers a
/// `&mut dyn RngCore`.
pub trait RngCore {
    /// Returns the next random `u32`.
    fn next_u32(&mut self) -> u32;
    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
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

/// A generator that can be instantiated from a fixed seed.
pub trait SeedableRng: Sized {
    /// Raw seed type.
    type Seed: AsMut<[u8]> + Default;

    /// Builds the generator from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanding it with SplitMix64 —
    /// two distinct `u64` seeds give unrelated streams.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64 { state };
        let bytes = seed.as_mut();
        let mut chunks = bytes.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&sm.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let w = sm.next().to_le_bytes();
            rem.copy_from_slice(&w[..rem.len()]);
        }
        Self::from_seed(seed)
    }
}

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

/// Types usable as the argument of [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a uniform sample from the range.
    fn sample(self, rng: &mut (impl RngCore + ?Sized)) -> T;
    /// True when the range contains no values.
    fn is_empty_range(&self) -> bool;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample(self, rng: &mut (impl RngCore + ?Sized)) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + (reject_sample(rng, span) as $t)
            }
            fn is_empty_range(&self) -> bool {
                self.start >= self.end
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut (impl RngCore + ?Sized)) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                lo + (reject_sample(rng, span) as $t)
            }
            fn is_empty_range(&self) -> bool {
                self.start() > self.end()
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

/// Uniform sample in `[0, span)` by rejection, avoiding modulo bias.
///
/// The acceptance zone `[0, zone]` always contains `[0, u64::MAX - span]`
/// (`2⁶⁴ mod span < span`), so a draw in that prefix is accepted before
/// the zone's division is paid; a draw passes the prefix with probability
/// `span / 2⁶⁴`. Values and stream are those of the plain rejection loop.
fn reject_sample(rng: &mut (impl RngCore + ?Sized), span: u64) -> u64 {
    debug_assert!(span > 0);
    let mut v = rng.next_u64();
    if v <= u64::MAX - span {
        return v % span;
    }
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    while v > zone {
        v = rng.next_u64();
    }
    v % span
}

/// Convenience extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from `range` (half-open or inclusive).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample(self)
    }

    /// Bernoulli trial: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
        if p == 1.0 {
            return true;
        }
        // 53 random bits → uniform f64 in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, non-cryptographic PRNG: xoshiro256++.
    ///
    /// Deterministic given a seed; not suitable for security purposes —
    /// exactly the contract `rand 0.8`'s `SmallRng` documents.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl RngCore for SmallRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for SmallRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut b = [0u8; 8];
                b.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
                *word = u64::from_le_bytes(b);
            }
            // An all-zero state is a fixed point of xoshiro; nudge it.
            if s == [0; 4] {
                s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
            }
            SmallRng { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{reject_sample, Rng, RngCore, SeedableRng};

    /// The plain rejection loop `reject_sample` must reproduce.
    fn reject_sample_oracle(rng: &mut SmallRng, span: u64) -> u64 {
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = rng.next_u64();
            if v <= zone {
                return v % span;
            }
        }
    }

    #[test]
    fn reject_sample_matches_the_plain_rejection_loop() {
        let spans = [
            1,
            2,
            (1 << 32) - 1,
            (1 << 32) + 1,
            1 << 63,
            (1 << 63) + 1,
            3 << 62,
            u64::MAX,
        ];
        for span in spans {
            let mut fast = SmallRng::seed_from_u64(span);
            let mut oracle = fast.clone();
            for draw in 0..2000 {
                assert_eq!(
                    reject_sample(&mut fast, span),
                    reject_sample_oracle(&mut oracle, span),
                    "span {span}, draw {draw}"
                );
                assert_eq!(fast, oracle, "span {span}, draw {draw}: RNG state");
            }
        }
    }

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 16);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v: usize = rng.gen_range(3..10);
            assert!((3..10).contains(&v));
            let w: u8 = rng.gen_range(0..=255);
            let _ = w;
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SmallRng::seed_from_u64(9);
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
    }

    #[test]
    fn gen_bool_rate_roughly_holds() {
        let mut rng = SmallRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits={hits}");
    }

    #[test]
    fn dyn_rng_core_supports_extension_methods() {
        let mut rng = SmallRng::seed_from_u64(5);
        let dyn_rng: &mut dyn RngCore = &mut rng;
        let v = dyn_rng.gen_range(0..4usize);
        assert!(v < 4);
        let _ = dyn_rng.gen_bool(0.5);
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
