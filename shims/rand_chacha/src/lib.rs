//! Minimal offline stand-in for `rand_chacha` (see `shims/README.md`).
//!
//! [`ChaCha8Rng`] is a real ChaCha stream cipher core with 8 rounds used as
//! a deterministic PRNG. Streams are high quality but not bit-compatible
//! with the crates.io implementation.

use rand::{RngCore, SeedableRng};

/// A ChaCha random number generator with 8 rounds.
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    /// Cipher input block: constants, 256-bit key, 64-bit counter, 64-bit nonce.
    state: [u32; 16],
    /// Buffered output words from the last block.
    buffer: [u32; 16],
    /// Next unread index into `buffer` (16 = exhausted).
    index: usize,
}

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut working = self.state;
        for _ in 0..4 {
            // A double round: 4 column + 4 diagonal quarter rounds.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (out, (&mixed, &input)) in self
            .buffer
            .iter_mut()
            .zip(working.iter().zip(self.state.iter()))
        {
            *out = mixed.wrapping_add(input);
        }
        // 64-bit block counter in words 12/13.
        let counter = (self.state[12] as u64 | (self.state[13] as u64) << 32).wrapping_add(1);
        self.state[12] = counter as u32;
        self.state[13] = (counter >> 32) as u32;
        self.index = 0;
    }

    fn next_word(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let w = self.buffer[self.index];
        self.index += 1;
        w
    }
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        // Expand the 64-bit seed to a 256-bit key with SplitMix64, like the
        // rand family's default `seed_from_u64`.
        let mut state = seed;
        let mut split = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut s = [0u32; 16];
        s[..4].copy_from_slice(&CHACHA_CONSTANTS);
        for i in 0..4 {
            let k = split();
            s[4 + 2 * i] = k as u32;
            s[5 + 2 * i] = (k >> 32) as u32;
        }
        // counter = 0 (words 12/13), nonce = 0 (words 14/15).
        ChaCha8Rng {
            state: s,
            buffer: [0; 16],
            index: 16,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_word() as u64;
        let hi = self.next_word() as u64;
        lo | hi << 32
    }

    fn next_u32(&mut self) -> u32 {
        self.next_word()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = ChaCha8Rng::seed_from_u64(8);
        assert_ne!(ChaCha8Rng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn range_and_bool_are_plausible() {
        let mut r = ChaCha8Rng::seed_from_u64(42);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[r.gen_range(0..10usize)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 700 && c < 1300), "{counts:?}");
        let heads = (0..10_000).filter(|_| r.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads));
    }
}
