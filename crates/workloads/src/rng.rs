//! Minimal deterministic `ChaCha8` pseudo-random generator.
//!
//! The growth container builds fully offline, so this module replaces the
//! `rand`/`rand_chacha` crates with a self-contained implementation of the
//! `ChaCha` stream cipher (8 rounds) driven as a PRNG. Identical seeds produce
//! identical streams on every platform, which is all the trace generator
//! needs: reproducibility, uniformity and independence — not cryptographic
//! strength.
//!
//! Key derivation is domain-separated: [`substream_key`] hashes
//! `(seed, domain, index)` through [`splitmix64`] so that the arrival-process
//! streams ([`DOMAIN_ARRIVALS`]) and the workload-content streams
//! ([`DOMAIN_WORKLOAD`]) of the *same* user seed are statistically
//! independent of each other.

use memscale_types::rng::{splitmix64, GOLDEN_GAMMA};

/// Substream domain of workload content: miss gaps, addresses, writebacks.
pub const DOMAIN_WORKLOAD: u64 = 0x574B_4C44; // "WKLD"

/// Substream domain of service-traffic arrival processes.
pub const DOMAIN_ARRIVALS: u64 = 0x4152_5256; // "ARRV"

/// Derives the 32-byte [`ChaCha8`] key of one `(domain, index)` substream
/// of `seed`.
///
/// Every consumer of randomness draws from its own substream: workload
/// miss generators use [`DOMAIN_WORKLOAD`] with the app index, arrival
/// processes use [`DOMAIN_ARRIVALS`]. Because domain and index are each
/// absorbed through a full splitmix64 step before the key words are
/// squeezed out, the same user-facing seed yields *independent* streams
/// for traffic timing and workload content — raw `(seed, index)` byte
/// concatenation (the pre-substream scheme) made those trivially related.
pub fn substream_key(seed: u64, domain: u64, index: u64) -> [u8; 32] {
    let mut state = seed;
    let a = splitmix64(&mut state);
    state ^= domain.wrapping_mul(GOLDEN_GAMMA) ^ a;
    let b = splitmix64(&mut state);
    state ^= index.wrapping_mul(GOLDEN_GAMMA) ^ b;
    let mut key = [0u8; 32];
    for chunk in key.chunks_exact_mut(8) {
        chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    key
}

/// A ChaCha8-based pseudo-random number generator.
///
/// Seeded from a 32-byte key; the block counter starts at zero and the
/// nonce words are fixed, so the stream is a pure function of the key.
#[derive(Debug, Clone)]
pub struct ChaCha8 {
    key: [u32; 8],
    counter: u64,
    buf: [u32; 16],
    /// Next unread word in `buf`; 16 means the buffer is exhausted.
    idx: usize,
}

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

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

impl ChaCha8 {
    /// Creates a generator from a 32-byte seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (i, word) in key.iter_mut().enumerate() {
            let mut bytes = [0u8; 4];
            bytes.copy_from_slice(&seed[i * 4..i * 4 + 4]);
            *word = u32::from_le_bytes(bytes);
        }
        ChaCha8 {
            key,
            counter: 0,
            buf: [0; 16],
            idx: 16,
        }
    }

    /// Runs the 8-round `ChaCha` block function, refilling the buffer.
    #[allow(clippy::cast_possible_truncation)] // the 64-bit counter is split into two words
    fn refill(&mut self) {
        let input: [u32; 16] = [
            CHACHA_CONSTANTS[0],
            CHACHA_CONSTANTS[1],
            CHACHA_CONSTANTS[2],
            CHACHA_CONSTANTS[3],
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
        let mut state = input;
        for _ in 0..4 {
            // Column rounds.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, inp) in state.iter_mut().zip(input.iter()) {
            *out = out.wrapping_add(*inp);
        }
        self.buf = state;
        self.counter = self.counter.wrapping_add(1);
        self.idx = 0;
    }

    /// The next 32 uniformly random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        if self.idx >= 16 {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    /// The next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }

    /// A uniform float in the half-open unit interval `[0, 1)`, with 53
    /// bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform float in the *open* unit interval `(0, 1)`, safe to pass
    /// to `ln()`.
    #[inline]
    pub fn next_unit_open(&mut self) -> f64 {
        self.next_f64().max(f64::EPSILON)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A uniform integer in `[0, bound)` via fixed-point multiplication.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below needs a positive bound");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(tag: u8) -> ChaCha8 {
        let mut seed = [0u8; 32];
        seed[0] = tag;
        ChaCha8::from_seed(seed)
    }

    #[test]
    fn identical_seeds_identical_streams() {
        let mut a = rng(7);
        let mut b = rng(7);
        for _ in 0..1_000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = rng(1);
        let mut b = rng(2);
        let same = (0..100).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 3, "streams should diverge, {same} collisions");
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut r = rng(3);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            let o = r.next_unit_open();
            assert!(o > 0.0 && o < 1.0);
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = rng(4);
        for _ in 0..10_000 {
            assert!(r.next_below(37) < 37);
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut r = rng(5);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[usize::try_from(r.next_below(8)).unwrap()] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn bool_probability_tracks() {
        let mut r = rng(6);
        let hits = (0..100_000).filter(|_| r.next_bool(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn substream_keys_are_deterministic_and_distinct() {
        let a = substream_key(42, DOMAIN_WORKLOAD, 0);
        assert_eq!(a, substream_key(42, DOMAIN_WORKLOAD, 0));
        // Varying any one input changes the key.
        assert_ne!(a, substream_key(43, DOMAIN_WORKLOAD, 0));
        assert_ne!(a, substream_key(42, DOMAIN_ARRIVALS, 0));
        assert_ne!(a, substream_key(42, DOMAIN_WORKLOAD, 1));
    }

    #[test]
    fn same_seed_substreams_are_uncorrelated_across_domains() {
        // The whole point of domain separation: the arrival stream and the
        // workload stream of one seed must not be the same bit stream.
        let mut work = ChaCha8::from_seed(substream_key(7, DOMAIN_WORKLOAD, 0));
        let mut arr = ChaCha8::from_seed(substream_key(7, DOMAIN_ARRIVALS, 0));
        let same = (0..1_000)
            .filter(|_| work.next_u32() == arr.next_u32())
            .count();
        assert!(same < 5, "domain streams should diverge, {same} collisions");
    }
}
