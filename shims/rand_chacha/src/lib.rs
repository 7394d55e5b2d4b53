//! Offline stand-in for `rand_chacha`: a genuine ChaCha (8-round) block
//! generator implementing the vendored `rand` traits. The output stream is
//! deterministic per seed, which is all the workspace relies on (it does
//! not depend on matching crates.io `rand_chacha` bit streams).

#![deny(unsafe_code)]

use rand::{RngCore, SeedableRng};

/// ChaCha with 8 rounds, seeded from a `u64` via SplitMix64 key expansion.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Input block: constants, key, counter, nonce.
    state: [u32; 16],
    /// Current keystream block.
    buffer: [u32; 16],
    /// Next unread word in `buffer`; 16 means exhausted.
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

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut working = self.state;
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
        for (out, (w, s)) in self.buffer.iter_mut().zip(working.iter().zip(self.state.iter())) {
            *out = w.wrapping_add(*s);
        }
        // 64-bit block counter in words 12..14.
        let counter = (u64::from(self.state[13]) << 32 | u64::from(self.state[12])).wrapping_add(1);
        self.state[12] = counter as u32;
        self.state[13] = (counter >> 32) as u32;
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
        Self { state, buffer: [0; 16], index: 16 }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let word = self.buffer[self.index];
        self.index += 1;
        word
    }

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
}
