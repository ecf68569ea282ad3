//! In-repo ChaCha8 stream generator.
//!
//! The simulator previously drew its random streams from the external
//! `rand_chacha` crate. This is the same ChaCha8 core (djb variant,
//! 64-bit block counter, zero nonce), reimplemented on `std` alone so
//! the workspace builds with no network access. The *keystream* for a
//! given key is bit-identical to any correct ChaCha8 (verified against
//! the djb test vector), and the `f64`/range helpers reproduce the old
//! crate's derivations exactly: regenerating `results/` after the
//! switch left every archived output byte-identical.

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
const ROUNDS: usize = 8;

/// A deterministic ChaCha8 random stream.
#[derive(Debug, Clone)]
pub struct ChaCha8 {
    /// Key words (state positions 4..12).
    key: [u32; 8],
    /// 64-bit block counter (state positions 12, 13).
    counter: u64,
    /// Current output block.
    block: [u32; 16],
    /// Next unread word in `block`; 16 means exhausted.
    idx: usize,
}

impl ChaCha8 {
    /// Build a stream from a 256-bit key.
    pub fn from_seed(seed: [u8; 32]) -> ChaCha8 {
        let mut key = [0u32; 8];
        for (i, chunk) in seed.chunks_exact(4).enumerate() {
            key[i] = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        ChaCha8 { key, counter: 0, block: [0; 16], idx: 16 }
    }

    fn refill(&mut self) {
        let mut x = [0u32; 16];
        x[..4].copy_from_slice(&CONSTANTS);
        x[4..12].copy_from_slice(&self.key);
        x[12] = self.counter as u32;
        x[13] = (self.counter >> 32) as u32;
        x[14] = 0;
        x[15] = 0;
        let input = x;
        for _ in 0..ROUNDS / 2 {
            // Column round.
            quarter(&mut x, 0, 4, 8, 12);
            quarter(&mut x, 1, 5, 9, 13);
            quarter(&mut x, 2, 6, 10, 14);
            quarter(&mut x, 3, 7, 11, 15);
            // Diagonal round.
            quarter(&mut x, 0, 5, 10, 15);
            quarter(&mut x, 1, 6, 11, 12);
            quarter(&mut x, 2, 7, 8, 13);
            quarter(&mut x, 3, 4, 9, 14);
        }
        for i in 0..16 {
            self.block[i] = x[i].wrapping_add(input[i]);
        }
        self.counter = self.counter.wrapping_add(1);
        self.idx = 0;
    }

    /// Next 32 bits of keystream.
    pub fn next_u32(&mut self) -> u32 {
        if self.idx >= 16 {
            self.refill();
        }
        let w = self.block[self.idx];
        self.idx += 1;
        w
    }

    /// Next 64 bits of keystream (low word first).
    pub fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }
}

/// Compute the first keystream block of four independent streams at once.
///
/// Each returned generator is positioned exactly as if it had been built
/// with [`ChaCha8::from_seed`] and had produced its first block: same
/// key, block counter already advanced to 1, sixteen unread words — the
/// keystream continues bit-identically across later refills. On
/// `x86_64` the four blocks come from one SSE2 pass ([`sse2::blocks4`]);
/// elsewhere each stream runs the scalar [`ChaCha8::refill`], which is
/// also the reference the tests compare the SSE2 kernel against.
pub fn warm4(seeds: [[u8; 32]; 4]) -> [ChaCha8; 4] {
    let mut streams = seeds.map(ChaCha8::from_seed);
    #[cfg(target_arch = "x86_64")]
    {
        let blocks = sse2::blocks4(&streams.each_ref().map(|s| s.key));
        for (s, block) in streams.iter_mut().zip(blocks) {
            s.block = block;
            s.counter = 1;
            s.idx = 0;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    for s in &mut streams {
        s.refill();
    }
    streams
}

/// Four-lane ChaCha8 on SSE2, which every `x86_64` CPU has: one
/// `__m128i` holds one state word of all four streams.
///
/// Intrinsics, because the compiler does not reliably vectorise a
/// portable lane loop: written as `[[u32; 4]; 16]` with a run-time
/// indexed quarter round, four blocks cost more than four scalar
/// [`ChaCha8::refill`] calls, while this kernel costs about half of them.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::{CONSTANTS, ROUNDS};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_or_si128, _mm_set1_epi32, _mm_setr_epi32, _mm_setzero_si128,
        _mm_shufflehi_epi16, _mm_shufflelo_epi16, _mm_slli_epi32, _mm_srli_epi32, _mm_storeu_si128,
        _mm_unpackhi_epi32, _mm_unpackhi_epi64, _mm_unpacklo_epi32, _mm_unpacklo_epi64,
        _mm_xor_si128,
    };

    // The helpers enable SSE2 themselves, so the intrinsics they call
    // are safe; they inline into `blocks4`, whose target has SSE2.

    /// `v` rotated left by `L` bits in each 32-bit lane (`R` = 32 − `L`).
    #[target_feature(enable = "sse2")]
    fn rotl<const L: i32, const R: i32>(v: __m128i) -> __m128i {
        _mm_or_si128(_mm_slli_epi32::<L>(v), _mm_srli_epi32::<R>(v))
    }

    /// Rotation by 16 swaps the 16-bit halves of each lane: two shuffles.
    #[target_feature(enable = "sse2")]
    fn rotl16(v: __m128i) -> __m128i {
        _mm_shufflehi_epi16::<0b1011_0001>(_mm_shufflelo_epi16::<0b1011_0001>(v))
    }

    #[target_feature(enable = "sse2")]
    fn quarter(x: &mut [__m128i; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = rotl16(_mm_xor_si128(x[d], x[a]));
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = rotl::<12, 20>(_mm_xor_si128(x[b], x[c]));
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = rotl::<8, 24>(_mm_xor_si128(x[d], x[a]));
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = rotl::<7, 25>(_mm_xor_si128(x[b], x[c]));
    }

    /// Transpose four word vectors (one word of lanes 0..4 each) into
    /// four lane vectors (words `a, b, c, d` of one lane each).
    #[target_feature(enable = "sse2")]
    fn transpose(a: __m128i, b: __m128i, c: __m128i, d: __m128i) -> [__m128i; 4] {
        let ab_lo = _mm_unpacklo_epi32(a, b);
        let cd_lo = _mm_unpacklo_epi32(c, d);
        let ab_hi = _mm_unpackhi_epi32(a, b);
        let cd_hi = _mm_unpackhi_epi32(c, d);
        [
            _mm_unpacklo_epi64(ab_lo, cd_lo),
            _mm_unpackhi_epi64(ab_lo, cd_lo),
            _mm_unpacklo_epi64(ab_hi, cd_hi),
            _mm_unpackhi_epi64(ab_hi, cd_hi),
        ]
    }

    /// The first keystream block (counter 0, zero nonce) of four keys.
    pub(super) fn blocks4(keys: &[[u32; 8]; 4]) -> [[u32; 16]; 4] {
        let mut out = [[0u32; 16]; 4];
        // SAFETY: SSE2 is part of the `x86_64` baseline, so every CPU
        // this module compiles for runs the SSE2 intrinsics and the
        // `target_feature(enable = "sse2")` helpers above. The one memory
        // access, `_mm_storeu_si128`, writes 16 bytes into `dst`, a live,
        // exclusively borrowed `[u32; 4]`, and needs no alignment.
        unsafe {
            let word = |w: usize| {
                _mm_setr_epi32(
                    keys[0][w] as i32,
                    keys[1][w] as i32,
                    keys[2][w] as i32,
                    keys[3][w] as i32,
                )
            };
            let input: [__m128i; 16] = std::array::from_fn(|w| match w {
                0..4 => _mm_set1_epi32(CONSTANTS[w] as i32),
                4..12 => word(w - 4),
                // Counter and nonce words start at zero for the first block.
                _ => _mm_setzero_si128(),
            });
            let mut x = input;
            for _ in 0..ROUNDS / 2 {
                // Column round.
                quarter(&mut x, 0, 4, 8, 12);
                quarter(&mut x, 1, 5, 9, 13);
                quarter(&mut x, 2, 6, 10, 14);
                quarter(&mut x, 3, 7, 11, 15);
                // Diagonal round.
                quarter(&mut x, 0, 5, 10, 15);
                quarter(&mut x, 1, 6, 11, 12);
                quarter(&mut x, 2, 7, 8, 13);
                quarter(&mut x, 3, 4, 9, 14);
            }
            for g in 0..4 {
                let [a, b, c, d] =
                    std::array::from_fn(|i| _mm_add_epi32(x[4 * g + i], input[4 * g + i]));
                for (block, v) in out.iter_mut().zip(transpose(a, b, c, d)) {
                    let dst: &mut [u32; 4] = (&mut block[4 * g..4 * g + 4]).try_into().unwrap();
                    _mm_storeu_si128((dst as *mut [u32; 4]).cast(), v);
                }
            }
        }
        out
    }
}

fn quarter(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_chacha8_reference_keystream() {
        // ChaCha8 test vector: all-zero key, all-zero nonce, first block
        // (TC1 of the classic ChaCha test-vector set).
        let expected: [u8; 32] = [
            0x3e, 0x00, 0xef, 0x2f, 0x89, 0x5f, 0x40, 0xd6, 0x7f, 0x5b, 0xb8, 0xe8, 0x1f, 0x09,
            0xa5, 0xa1, 0x2c, 0x84, 0x0e, 0xc3, 0xce, 0x9a, 0x7f, 0x3b, 0x18, 0x1b, 0xe1, 0x88,
            0xef, 0x71, 0x1a, 0x1e,
        ];
        let mut rng = ChaCha8::from_seed([0; 32]);
        let mut got = [0u8; 32];
        for chunk in got.chunks_exact_mut(4) {
            chunk.copy_from_slice(&rng.next_u32().to_le_bytes());
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn streams_are_deterministic_and_key_sensitive() {
        let mut a = ChaCha8::from_seed([7; 32]);
        let mut b = ChaCha8::from_seed([7; 32]);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = ChaCha8::from_seed([8; 32]);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_stays_in_unit_interval_with_sane_mean() {
        let mut rng = ChaCha8::from_seed([1; 32]);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean} too far from 0.5");
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = ChaCha8::from_seed([2; 32]);
        for _ in 0..10_000 {
            let v = rng.range_f64(f64::EPSILON, 1.0);
            assert!((f64::EPSILON..1.0).contains(&v));
        }
        let v = rng.range_f64(-3.0, 5.0);
        assert!((-3.0..5.0).contains(&v));
    }

    /// Assert every lane of `warm4(seeds)` yields the scalar keystream.
    fn assert_warm4_matches_scalar(seeds: [[u8; 32]; 4]) {
        let mut batch = warm4(seeds);
        for (lane, seed) in seeds.into_iter().enumerate() {
            let mut single = ChaCha8::from_seed(seed);
            // 40 words crosses two refills past the warmed first block.
            for i in 0..40 {
                assert_eq!(
                    batch[lane].next_u32(),
                    single.next_u32(),
                    "lane {lane} word {i} diverged for seed {seed:02x?}"
                );
            }
        }
    }

    #[test]
    fn warm4_matches_individual_streams() {
        assert_warm4_matches_scalar([[11u8; 32], [12; 32], [13; 32], [14; 32]]);
        // Extreme keys: every key bit clear, every key bit set, and both
        // mixed within one batch.
        assert_warm4_matches_scalar([[0u8; 32]; 4]);
        assert_warm4_matches_scalar([[0xFFu8; 32]; 4]);
        assert_warm4_matches_scalar([[0u8; 32], [0xFF; 32], [0; 32], [0xFF; 32]]);
        // 4,096 batches of generated keys (splitmix64 bytes), so every
        // lane of the kernel sees carries and rotations across all words.
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..4096 {
            let seeds: [[u8; 32]; 4] = std::array::from_fn(|_| {
                let mut seed = [0u8; 32];
                for chunk in seed.chunks_exact_mut(8) {
                    chunk.copy_from_slice(&next().to_le_bytes());
                }
                seed
            });
            assert_warm4_matches_scalar(seeds);
        }
    }

    #[test]
    fn warm4_lanes_are_independent_even_when_duplicated() {
        let seeds = [[5u8; 32], [5; 32], [6; 32], [7; 32]];
        let mut batch = warm4(seeds);
        let a: Vec<u32> = (0..16).map(|_| batch[0].next_u32()).collect();
        let b: Vec<u32> = (0..16).map(|_| batch[1].next_u32()).collect();
        let c: Vec<u32> = (0..16).map(|_| batch[2].next_u32()).collect();
        assert_eq!(a, b, "identical seeds must give identical lanes");
        assert_ne!(a, c, "distinct seeds must give distinct lanes");
    }

    #[test]
    fn blocks_continue_across_refills() {
        let mut rng = ChaCha8::from_seed([3; 32]);
        let first: Vec<u32> = (0..40).map(|_| rng.next_u32()).collect();
        let mut again = ChaCha8::from_seed([3; 32]);
        let second: Vec<u32> = (0..40).map(|_| again.next_u32()).collect();
        assert_eq!(first, second);
        // 40 words crosses two block boundaries; values must not repeat
        // block-to-block.
        assert_ne!(&first[..16], &first[16..32]);
    }
}
