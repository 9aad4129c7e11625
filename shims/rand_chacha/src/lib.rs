//! ChaCha-based deterministic RNG for the offline `rand` shim.
//!
//! Implements the ChaCha block function (Bernstein) with 8 rounds, keyed by a
//! 32-byte seed and a 64-bit block counter. The workspace uses `ChaCha8Rng`
//! exclusively through `SeedableRng::seed_from_u64` / `from_seed` and the
//! `RngCore` word stream; stream/word-position APIs of the real crate are not
//! reproduced.

#![forbid(unsafe_code)]

use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

const ROUNDS: usize = 8;

/// A deterministic ChaCha8 random number generator.
///
/// Serializable so that checkpoint/resume systems can persist the exact
/// stream position: a deserialized RNG continues bit-for-bit where the
/// serialized one stopped.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaCha8Rng {
    /// Key (words 4..12 of the ChaCha state).
    key: [u32; 8],
    /// 64-bit block counter (words 12..14); nonce words (14..16) stay zero.
    counter: u64,
    /// Current block of output words.
    buffer: [u32; 16],
    /// Next unread index into `buffer`; 16 means "refill".
    index: usize,
}

#[inline(always)]
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
        let mut state: [u32; 16] = [
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            self.counter as u32,
            (self.counter >> 32) as u32,
            0,
            0,
        ];
        let initial = state;
        for _ in 0..ROUNDS / 2 {
            // Column round.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, init) in state.iter_mut().zip(&initial) {
            *out = out.wrapping_add(*init);
        }
        self.buffer = state;
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (i, chunk) in seed.chunks_exact(4).enumerate() {
            key[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        ChaCha8Rng {
            key,
            counter: 0,
            buffer: [0; 16],
            index: 16,
        }
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
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        rand::fill_bytes_via_u64(self, dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_give_identical_streams() {
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
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn clone_preserves_position() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..5 {
            a.next_u32();
        }
        let mut b = a.clone();
        for _ in 0..40 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn serde_round_trip_preserves_stream_position() {
        let mut a = ChaCha8Rng::seed_from_u64(99);
        for _ in 0..7 {
            a.next_u32(); // land mid-buffer
        }
        let json = serde_json::to_string(&a).unwrap();
        let mut b: ChaCha8Rng = serde_json::from_str(&json).unwrap();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn stream_has_no_trivial_bias() {
        let mut rng = ChaCha8Rng::seed_from_u64(1234);
        let mut ones = 0u32;
        for _ in 0..1000 {
            ones += rng.next_u64().count_ones();
        }
        let frac = ones as f64 / 64000.0;
        assert!((0.48..0.52).contains(&frac), "bit fraction {frac}");
    }
}
