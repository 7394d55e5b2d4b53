//! Offline stand-in for `rand` 0.8: just the surface this workspace uses —
//! [`SeedableRng::seed_from_u64`], [`Rng::gen_range`]/[`Rng::gen_bool`] and
//! [`seq::SliceRandom`]. Deterministic by construction; the only generator
//! in the workspace is the vendored `rand_chacha::ChaCha8Rng`.

#![deny(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Raw generator interface.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// High-level sampling helpers, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from a range (`a..b` or `a..=b`, integer or float).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Bernoulli sample with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability {p} out of range");
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seeding interface; only the `u64` convenience constructor is needed.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A range that can produce uniform samples. Implemented generically for
/// `Range<T>`/`RangeInclusive<T>` so type inference can flow from the
/// requested output type back into the range literals, as in real `rand`.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (start, end) = self.into_inner();
        T::sample_between(rng, start, end, true)
    }
}

/// Types `gen_range` can sample uniformly.
pub trait SampleUniform: Sized {
    /// Uniform sample in `[low, high)` — or `[low, high]` when `inclusive`.
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        inclusive: bool,
    ) -> Self;
}

/// Maps 64 random bits to a uniform `f64` in `[0, 1)`.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Maps 32 random bits to a uniform `f32` in `[0, 1)`.
fn unit_f32(bits: u32) -> f32 {
    (bits >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

macro_rules! impl_int_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
                inclusive: bool,
            ) -> Self {
                let extra = u128::from(inclusive);
                assert!(
                    if inclusive { low <= high } else { low < high },
                    "empty gen_range"
                );
                let span = (high as i128 - low as i128) as u128 + extra;
                let offset = (rng.next_u64() as u128) % span;
                (low as i128 + offset as i128) as $t
            }
        }
    )*};
}

impl_int_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        inclusive: bool,
    ) -> Self {
        assert!(if inclusive { low <= high } else { low < high }, "empty gen_range");
        low + (high - low) * unit_f64(rng.next_u64())
    }
}

impl SampleUniform for f32 {
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        inclusive: bool,
    ) -> Self {
        assert!(if inclusive { low <= high } else { low < high }, "empty gen_range");
        low + (high - low) * unit_f32(rng.next_u32())
    }
}

/// Slice sampling helpers.
pub mod seq {
    use super::RngCore;

    /// Random element selection and in-place shuffling for slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Uniformly random element, `None` for an empty slice.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                let idx = (rng.next_u64() % self.len() as u64) as usize;
                self.get(idx)
            }
        }

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);

    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
            self.0
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Counter(7);
        for _ in 0..1000 {
            let v: usize = rng.gen_range(0..6);
            assert!(v < 6);
            let f: f64 = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
            let i: i64 = rng.gen_range(-3..=3);
            assert!((-3..=3).contains(&i));
            let g: f32 = rng.gen_range(-0.5f32..=0.5);
            assert!((-0.5..=0.5).contains(&g));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Counter(3);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn choose_and_shuffle() {
        use seq::SliceRandom;
        let mut rng = Counter(11);
        let empty: [u32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let items = [1, 2, 3];
        assert!(items.contains(items.choose(&mut rng).unwrap()));
        let mut v: Vec<u32> = (0..50).collect();
        let orig = v.clone();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig);
        assert_ne!(v, orig, "50 elements should not shuffle to identity");
    }
}
