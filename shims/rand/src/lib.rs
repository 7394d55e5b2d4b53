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
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    #[inline]
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
                let draw = rng.next_u64();
                // The remainder `draw as u128 % span`, by a `u64` division
                // for every span but the one past `u64::MAX` (2⁶⁴).
                let offset = match u64::try_from(span) {
                    Ok(span) => u128::from(draw % span),
                    Err(_) => u128::from(draw) % span,
                };
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

    /// Hands out the words it was given, in order.
    struct Scripted(std::vec::IntoIter<u64>);

    impl RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("a scripted word")
        }
    }

    /// Draws that land on every edge of a `u64` remainder.
    const EDGE_DRAWS: [u64; 9] = [
        0,
        1,
        2,
        u64::MAX,
        u64::MAX - 1,
        1 << 63,
        (1 << 63) - 1,
        0x9E37_79B9_7F4A_7C15,
        0xFFFF_FFFF,
    ];

    /// `gen_range(low..high)` (or `..=`) against the remainder of each
    /// draw by the range's span in `u128`, the formula the reduction
    /// replaced.
    fn assert_reduces_like_u128<T>(low: T, high: T, inclusive: bool)
    where
        T: SampleUniform + Copy + Into<i128> + PartialEq + std::fmt::Debug,
    {
        let span = (high.into() - low.into()) as u128 + u128::from(inclusive);
        for draw in EDGE_DRAWS {
            let mut rng = Scripted(vec![draw].into_iter());
            let got = T::sample_between(&mut rng, low, high, inclusive);
            let want = low.into() + (u128::from(draw) % span) as i128;
            assert_eq!(got.into(), want, "{low:?}..{high:?} inclusive {inclusive} draw {draw:#x}");
        }
    }

    #[test]
    fn integer_ranges_reduce_like_the_u128_remainder() {
        // The spans of 2⁶⁴, which no `u64` holds.
        assert_reduces_like_u128(0u64, u64::MAX, true);
        assert_reduces_like_u128(i64::MIN, i64::MAX, true);
        // The widest spans a `u64` holds, and one of one.
        assert_reduces_like_u128(0u64, u64::MAX, false);
        assert_reduces_like_u128(i64::MIN, i64::MAX, false);
        assert_reduces_like_u128(i64::MIN + 1, i64::MAX, true);
        assert_reduces_like_u128(u64::MAX - 1, u64::MAX, false);
        assert_reduces_like_u128(u64::MAX - 1, u64::MAX, true);
        // Small spans, unsigned and signed, in every width.
        assert_reduces_like_u128(0u8, 1, false);
        assert_reduces_like_u128(0u8, u8::MAX, true);
        assert_reduces_like_u128(-3i16, 3, true);
        assert_reduces_like_u128(7u32, 13, false);
        assert_reduces_like_u128(-40i32, -2, false);
        assert_reduces_like_u128(5i64, 5, true);
        for n in [1usize, 2, 3, 23, 24, 300] {
            assert_reduces_like_u128(0u64, n as u64, false);
        }
        let mut rng = Scripted(vec![u64::MAX, 12].into_iter());
        assert_eq!(rng.gen_range(0..24usize), (u64::MAX % 24) as usize);
        assert_eq!(rng.gen_range(-5..=5isize), 12 % 11 - 5);
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
