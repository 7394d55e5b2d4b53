//! Offline stand-in for `rand_chacha`: a genuine ChaCha (8-round) block
//! generator implementing the vendored `rand` traits. The output stream is
//! deterministic per seed, which is all the workspace relies on (it does
//! not depend on matching crates.io `rand_chacha` bit streams).
//!
//! A refill computes eight consecutive blocks at once and the words are
//! read in block order, so the stream is the one a block-at-a-time
//! generator gives. On an x86_64 CPU with AVX2 the blocks come from one
//! 8-lane body, one block a lane; elsewhere the scalar block runs eight
//! times. Both builds write the same words.
//!
//! Two places opt out of `deny(unsafe_code)`: the AVX2 body, for its
//! register-to-array transmutes, and the one call that dispatches to it;
//! each block is under a `// SAFETY:` comment.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

use rand::{RngCore, SeedableRng};

/// Keystream blocks one refill computes: one per lane of an AVX2 register.
const BLOCKS: usize = 8;

/// Words one refill computes.
const WORDS: usize = 16 * BLOCKS;

/// ChaCha with 8 rounds, seeded from a `u64` via SplitMix64 key expansion.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Input block: constants, key, counter, nonce. The counter names the
    /// first block the next refill computes.
    state: [u32; 16],
    /// The last refill's keystream, blocks in counter order.
    buffer: [u32; WORDS],
    /// Next unread word in `buffer`; `WORDS` means exhausted.
    index: usize,
}

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The 64-bit block counter of `state` (words 12 and 13).
fn counter(state: &[u32; 16]) -> u64 {
    u64::from(state[13]) << 32 | u64::from(state[12])
}

/// Moves the block counter of `state` on by `blocks`, carrying into the
/// high word.
fn advance(state: &mut [u32; 16], blocks: u64) {
    let next = counter(state).wrapping_add(blocks);
    state[12] = next as u32;
    state[13] = (next >> 32) as u32;
}

/// Writes into `out` the keystream block `state` names.
fn block(state: &[u32; 16], out: &mut [u32]) {
    let mut working = *state;
    for _ in 0..4 {
        // One double round: columns then diagonals.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    for (out, (w, s)) in out.iter_mut().zip(working.iter().zip(state)) {
        *out = w.wrapping_add(*s);
    }
}

/// Writes into `out` the [`BLOCKS`] keystream blocks from the one `state`
/// names on, one block at a time.
fn blocks(state: &[u32; 16], out: &mut [u32; WORDS]) {
    let mut at = *state;
    for chunk in out.chunks_exact_mut(16) {
        block(&at, chunk);
        advance(&mut at, 1);
    }
}

/// [`blocks`] with AVX2: register `j` holds word `j` of all eight blocks,
/// lane `i` block `i`, so every quarter-round step runs on the eight
/// blocks at once. The same wrapping adds, xors and rotates as [`block`],
/// so the words are the same; rotates by 16 and 8 are byte shuffles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
fn blocks_avx2(state: &[u32; 16], out: &mut [u32; WORDS]) {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_or_si256, _mm256_set1_epi32, _mm256_setr_epi32,
        _mm256_setr_epi8, _mm256_shuffle_epi8, _mm256_slli_epi32, _mm256_srli_epi32,
        _mm256_xor_si256,
    };

    // Byte shuffles that rotate every 32-bit lane left by 16 and by 8.
    let rot16 = _mm256_setr_epi8(
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
    );
    let rot8 = _mm256_setr_epi8(
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
    );
    // A macro, not a helper: a helper would need its own
    // `#[target_feature]`, and with it nothing guarantees inlining.
    macro_rules! quarter {
        ($x:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $x[$a] = _mm256_add_epi32($x[$a], $x[$b]);
            $x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256($x[$d], $x[$a]), rot16);
            $x[$c] = _mm256_add_epi32($x[$c], $x[$d]);
            let t = _mm256_xor_si256($x[$b], $x[$c]);
            $x[$b] = _mm256_or_si256(_mm256_slli_epi32::<12>(t), _mm256_srli_epi32::<20>(t));
            $x[$a] = _mm256_add_epi32($x[$a], $x[$b]);
            $x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256($x[$d], $x[$a]), rot8);
            $x[$c] = _mm256_add_epi32($x[$c], $x[$d]);
            let t = _mm256_xor_si256($x[$b], $x[$c]);
            $x[$b] = _mm256_or_si256(_mm256_slli_epi32::<7>(t), _mm256_srli_epi32::<25>(t));
        };
    }

    let mut input = [_mm256_set1_epi32(0); 16];
    for (v, &word) in input.iter_mut().zip(state) {
        *v = _mm256_set1_epi32(word as i32);
    }
    // Each lane's own block counter, carried into the high word.
    let c: [u64; BLOCKS] = std::array::from_fn(|i| counter(state).wrapping_add(i as u64));
    let (low, high) = (|i: usize| c[i] as i32, |i: usize| (c[i] >> 32) as i32);
    input[12] = _mm256_setr_epi32(low(0), low(1), low(2), low(3), low(4), low(5), low(6), low(7));
    input[13] =
        _mm256_setr_epi32(high(0), high(1), high(2), high(3), high(4), high(5), high(6), high(7));
    let mut x = input;
    for _ in 0..4 {
        quarter!(x, 0, 4, 8, 12);
        quarter!(x, 1, 5, 9, 13);
        quarter!(x, 2, 6, 10, 14);
        quarter!(x, 3, 7, 11, 15);
        quarter!(x, 0, 5, 10, 15);
        quarter!(x, 1, 6, 11, 12);
        quarter!(x, 2, 7, 8, 13);
        quarter!(x, 3, 4, 9, 14);
    }
    for (j, (x, input)) in x.iter().zip(&input).enumerate() {
        // SAFETY: `__m256i` and `[u32; 8]` are both 32 bytes of plain
        // integer data; every bit pattern is a valid value of either.
        let words =
            unsafe { std::mem::transmute::<__m256i, [u32; 8]>(_mm256_add_epi32(*x, *input)) };
        for (i, word) in words.into_iter().enumerate() {
            out[16 * i + j] = word;
        }
    }
}

/// Whether this CPU runs [`blocks_avx2`]; the detection macro caches its
/// answer, so asking on every refill is one load.
#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    is_x86_feature_detected!("avx2")
}

/// [`blocks`] by the AVX2 body where `wide` asks for it and this CPU has
/// AVX2, by the scalar one otherwise.
fn blocks_as(state: &[u32; 16], out: &mut [u32; WORDS], wide: bool) {
    #[cfg(target_arch = "x86_64")]
    if wide && has_avx2() {
        // SAFETY: `has_avx2` found AVX2 on this CPU at run time.
        #[allow(unsafe_code)]
        unsafe {
            blocks_avx2(state, out)
        };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = wide;
    blocks(state, out);
}

impl ChaCha8Rng {
    /// Computes the next [`BLOCKS`] blocks into the buffer, by the widest
    /// build this CPU has. Out of line, so that the word reads, which call
    /// it once every [`WORDS`] words, inline small.
    #[inline(never)]
    fn refill(&mut self) {
        blocks_as(&self.state, &mut self.buffer, true);
        advance(&mut self.state, BLOCKS as u64);
        self.index = 0;
    }
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CHACHA_CONSTANTS);
        for i in 0..4 {
            let word = splitmix64(&mut sm);
            state[4 + 2 * i] = word as u32;
            state[5 + 2 * i] = (word >> 32) as u32;
        }
        // Counter and nonce start at zero.
        Self { state, buffer: [0; WORDS], index: WORDS }
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= WORDS {
            self.refill();
        }
        let word = self.buffer[self.index];
        self.index += 1;
        word
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        hi << 32 | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn clone_preserves_stream_position() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..7 {
            a.next_u32();
        }
        let mut b = a.clone();
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn roughly_uniform_low_bits() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[rng.gen_range(0..8usize)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "bucket count {c} far from uniform");
        }
    }

    /// The first 40 words of two seeds as a one-block-a-refill generator
    /// produced them: two and a half blocks, so a block edge is crossed
    /// twice. A change that moves the stream fails here.
    #[test]
    fn the_stream_starts_with_its_pinned_words() {
        const SEED_0: [u32; 40] = [
            0x2d8ee5e8, 0xbf94d133, 0xa6da5a01, 0x3a738775, 0xc143ee06, 0x3d46ff10, 0xe9f6424f,
            0x17c6ab23, 0x2fb6898b, 0x5ce2479b, 0x86bff662, 0x0ae8099f, 0xc72f90bd, 0x5f2f09fd,
            0x28e5a01f, 0x95d53efa, 0x94efaf48, 0x1131e62b, 0x17d7a4e4, 0x9eec7e55, 0xcd4c18d1,
            0xe553e127, 0x3505e613, 0xb9d551f1, 0xd28d82a2, 0x0a1ffcc2, 0xf64a441d, 0xfc9216ba,
            0x4b017931, 0xb3c61fd5, 0x23eb502b, 0xe857b19d, 0x1bfcd6d6, 0x5a512cb9, 0x44766985,
            0x029e3799, 0x3c8b61fe, 0xca6410bd, 0xbfdc08ce, 0xa2c1439d,
        ];
        const SEED_42: [u32; 40] = [
            0x87c91afc, 0x31159ef9, 0xb4169001, 0x17559844, 0x9ad9a69f, 0xf7d0afbf, 0xfd37495a,
            0xb9207ad5, 0x61329c11, 0x072db0db, 0xeca26593, 0x4051bc3b, 0xcc4703b6, 0xbfaab970,
            0x8f89d223, 0xaff5425d, 0x6b947e05, 0xf6875512, 0x953f9601, 0x26706e48, 0x6a9f2b2f,
            0x54ff14b5, 0x150e06ce, 0x9cf9c5f7, 0x8e1d738c, 0xe3507e34, 0x4c28e1a6, 0xc89c0205,
            0x38520378, 0xb51fdc8f, 0xb1c896b5, 0x6384b6fe, 0x13e28956, 0xa1d6606a, 0xc62320de,
            0x009499f6, 0xeecf5513, 0x66e879a9, 0x49ee5d3a, 0xc96ff513,
        ];
        for (seed, want) in [(0, SEED_0), (42, SEED_42)] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let got: [u32; 40] = std::array::from_fn(|_| rng.next_u32());
            assert_eq!(got, want, "seed {seed}");
        }
    }

    /// An FNV-1a digest of the first 4096 words of seeds 0..8 — 32
    /// refills each — pinned from the one-block-a-refill generator.
    #[test]
    fn many_refills_keep_the_pinned_stream() {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for seed in 0..8 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..4096 {
                for byte in rng.next_u32().to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        assert_eq!(hash, 0x629e_8b01_68e1_c40e);
    }

    #[test]
    fn a_refill_is_its_blocks_one_at_a_time() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        rng.state[12] = u32::MAX - 3;
        let mut single = rng.state;
        let words: Vec<u32> = (0..2 * WORDS).map(|_| rng.next_u32()).collect();
        for want in words.chunks_exact(16) {
            let mut got = [0u32; 16];
            block(&single, &mut got);
            assert_eq!(got, want);
            advance(&mut single, 1);
        }
        assert_eq!(rng.state, single);
        assert_eq!(counter(&single), u64::from(u32::MAX - 3) + 2 * BLOCKS as u64);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn cross_build_keystream_is_identical() {
        if !has_avx2() {
            println!("cross-build keystream AVX2: this CPU has no AVX2; nothing compared");
            return;
        }
        let mut compared = 0;
        for seed in 0..64 {
            let mut state = ChaCha8Rng::seed_from_u64(seed).state;
            // Counters from zero, and ones whose low word wraps inside a
            // refill, or whose whole 64 bits do.
            for start in [0, u64::from(u32::MAX - 3), u64::MAX - 3, seed << 40 | 0xFFFF_FFFA] {
                state[12] = start as u32;
                state[13] = (start >> 32) as u32;
                let (mut scalar, mut wide) = ([0u32; WORDS], [0u32; WORDS]);
                blocks_as(&state, &mut scalar, false);
                blocks_as(&state, &mut wide, true);
                assert_eq!(wide, scalar, "seed {seed} counter {start:#x}");
                compared += BLOCKS;
            }
        }
        println!("cross-build keystream AVX2: {compared} blocks compared");
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn cross_build_keystream_is_identical() {
        println!("cross-build keystream AVX2: this CPU has no AVX2; nothing compared");
    }
}
