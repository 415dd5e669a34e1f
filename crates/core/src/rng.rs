//! Deterministic random-number utilities, implemented from scratch.
//!
//! Every stochastic model in this reproduction (device variability, channel
//! noise, synthetic workloads) must be reproducible run-to-run, so all crates
//! derive their RNGs here: an in-tree ChaCha8 stream seeded from a global
//! seed plus a stable label hash. Re-running any experiment with the same
//! seed yields bit-identical results. No external crates are involved — the
//! workspace builds with no registry access.
//!
//! ```
//! use f2_core::rng::{rng_for, Rng};
//!
//! let mut a = rng_for(42, "crossbar");
//! let mut b = rng_for(42, "crossbar");
//! assert_eq!(a.gen::<u64>(), b.gen::<u64>());
//! ```

/// Default experiment seed used by benches and examples.
pub const DEFAULT_SEED: u64 = 0xF1A6_5817;

/// Derives a deterministic RNG from a global `seed` and a stream `label`.
///
/// Different labels produce statistically independent streams, so concurrent
/// subsystems (e.g. each crossbar tile) can draw without correlation.
pub fn rng_for(seed: u64, label: &str) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ fnv1a(label.as_bytes()))
}

/// 64-bit FNV-1a hash; stable across platforms and Rust versions (unlike
/// `DefaultHasher`), which keeps experiment outputs reproducible.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// SplitMix64 step: expands a 64-bit seed into a well-mixed key schedule.
/// This is the standard seed-expansion function (Vigna); one step per output
/// word decorrelates even adjacent integer seeds.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform sampling of a primitive from a raw 64-bit stream.
///
/// Implemented for the integer widths, `f32`/`f64` (uniform in `[0, 1)`),
/// and `bool`, mirroring the subset of `rand::distributions::Standard` this
/// workspace uses.
pub trait Sample: Sized {
    /// Draws one value from `rng`.
    fn sample(rng: &mut (impl Rng + ?Sized)) -> Self;
}

macro_rules! sample_int {
    ($($t:ty),+) => {$(
        impl Sample for $t {
            fn sample(rng: &mut (impl Rng + ?Sized)) -> Self {
                rng.next_u64() as $t
            }
        }
    )+};
}
sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Sample for u128 {
    fn sample(rng: &mut (impl Rng + ?Sized)) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` with the full 53 bits of mantissa precision.
    fn sample(rng: &mut (impl Rng + ?Sized)) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for f32 {
    /// Uniform in `[0, 1)` with the full 24 bits of mantissa precision.
    fn sample(rng: &mut (impl Rng + ?Sized)) -> Self {
        ((rng.next_u64() >> 40) as f32) * (1.0 / (1u32 << 24) as f32)
    }
}

impl Sample for bool {
    fn sample(rng: &mut (impl Rng + ?Sized)) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// A range that can be sampled uniformly; implemented for `Range` and
/// `RangeInclusive` over the integer types so `rng.gen_range(0..n)` reads
/// exactly as it did under `rand`.
pub trait SampleRange {
    /// The element type produced by the range.
    type Output;
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from(self, rng: &mut (impl Rng + ?Sized)) -> Self::Output;
}

/// Unbiased integer in `[0, span)` by rejection of the biased tail.
fn uniform_u64(span: u64, rng: &mut (impl Rng + ?Sized)) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % span;
        }
    }
}

macro_rules! sample_range_int {
    ($($t:ty => $wide:ty),+ $(,)?) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample_from(self, rng: &mut (impl Rng + ?Sized)) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                self.start.wrapping_add(uniform_u64(span, rng) as $t)
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from(self, rng: &mut (impl Rng + ?Sized)) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample an empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo.wrapping_add(uniform_u64(span + 1, rng) as $t)
            }
        }
    )+};
}
sample_range_int!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize,
);

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    fn sample_from(self, rng: &mut (impl Rng + ?Sized)) -> f64 {
        assert!(self.start < self.end, "cannot sample an empty range");
        self.start + (self.end - self.start) * f64::sample(rng)
    }
}

/// The deterministic random-number interface every stochastic model draws
/// through. Only [`Rng::next_u64`] is required; everything else derives.
pub trait Rng {
    /// Returns the next 64 raw bits of the stream.
    fn next_u64(&mut self) -> u64;

    /// Draws a value of any [`Sample`] type (`rng.gen::<f64>()`, …).
    fn gen<T: Sample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws uniformly from an integer or float range.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        f64::sample(self) < p
    }

    /// Convenience alias for `gen::<u64>()`.
    fn gen_u64(&mut self) -> u64 {
        self.next_u64()
    }

    /// Convenience alias for `gen::<u32>()`.
    fn gen_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    /// Convenience alias for `gen::<f64>()`: uniform in `[0, 1)`.
    fn gen_f64(&mut self) -> f64
    where
        Self: Sized,
    {
        f64::sample(self)
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// The ChaCha stream cipher core with 8 rounds, used as a deterministic PRNG.
///
/// ChaCha8 keeps the statistical quality of the full cipher at a fraction of
/// the cost and is the same generator the workspace used via `rand_chacha`;
/// this implementation is self-contained (RFC 7539 state layout, 64-bit
/// block counter). It computes four blocks per refill (with SSE2 on
/// x86_64) and emits their words in the same order as one block at a time.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// 256-bit key as eight little-endian words.
    key: [u32; 8],
    /// 64-bit block counter (words 12–13 of the state) of the next refill.
    counter: u64,
    /// The current four output blocks, block-major.
    buf: [u32; BUF_WORDS],
    /// Next unread word in `buf`; `BUF_WORDS` means exhausted.
    idx: usize,
}

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574];
const CHACHA_ROUNDS: usize = 8;
/// Keystream blocks computed per refill.
const BLOCKS_PER_REFILL: usize = 4;
const BUF_WORDS: usize = 16 * BLOCKS_PER_REFILL;

#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "sse2"))))]
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

/// The ChaCha8 block function: keystream block `counter` under `key`. The
/// refill path on targets without SSE2, and the SSE2 path's reference in
/// tests.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "sse2"))))]
fn chacha8_block(key: &[u32; 8], counter: u64) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CHACHA_CONSTANTS);
    state[4..12].copy_from_slice(key);
    state[12] = counter as u32;
    state[13] = (counter >> 32) as u32;
    // Words 14-15 are the nonce; a fixed zero nonce is fine for a PRNG
    // (stream separation happens through the key, via `rng_for` labels).
    let initial = state;
    for _ in 0..CHACHA_ROUNDS / 2 {
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
    for (s, i) in state.iter_mut().zip(initial) {
        *s = s.wrapping_add(i);
    }
    state
}

/// Writes keystream blocks `counter..counter + 4` under `key` into `out`,
/// block after block.
#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
fn blocks4(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    for (i, block) in out.chunks_exact_mut(16).enumerate() {
        block.copy_from_slice(&chacha8_block(key, counter.wrapping_add(i as u64)));
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
use sse2::blocks4;

/// The four-block refill on x86_64: each of the 16 state words lives in one
/// SSE2 register whose four lanes are the four blocks.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[allow(unsafe_code)]
mod sse2 {
    use super::{BUF_WORDS, CHACHA_CONSTANTS, CHACHA_ROUNDS};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_or_si128, _mm_set1_epi32, _mm_setr_epi32, _mm_slli_epi32,
        _mm_srli_epi32, _mm_storeu_si128, _mm_unpackhi_epi32, _mm_unpackhi_epi64,
        _mm_unpacklo_epi32, _mm_unpacklo_epi64, _mm_xor_si128,
    };

    /// Writes keystream blocks `counter..counter + 4` under `key` into
    /// `out`, block after block.
    pub(super) fn blocks4(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
        // SAFETY: SSE2 is part of the x86_64 baseline, and this module is
        // only compiled for targets that enable it, so every CPU that runs
        // this code has the one feature `blocks4_sse2` enables.
        unsafe { blocks4_sse2(key, counter, out) }
    }

    macro_rules! rotl {
        ($x:expr, $n:literal) => {
            _mm_or_si128(_mm_slli_epi32::<$n>($x), _mm_srli_epi32::<{ 32 - $n }>($x))
        };
    }

    macro_rules! quarter_round {
        ($s:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $s[$a] = _mm_add_epi32($s[$a], $s[$b]);
            $s[$d] = rotl!(_mm_xor_si128($s[$d], $s[$a]), 16);
            $s[$c] = _mm_add_epi32($s[$c], $s[$d]);
            $s[$b] = rotl!(_mm_xor_si128($s[$b], $s[$c]), 12);
            $s[$a] = _mm_add_epi32($s[$a], $s[$b]);
            $s[$d] = rotl!(_mm_xor_si128($s[$d], $s[$a]), 8);
            $s[$c] = _mm_add_epi32($s[$c], $s[$d]);
            $s[$b] = rotl!(_mm_xor_si128($s[$b], $s[$c]), 7);
        };
    }

    /// # Safety
    ///
    /// The CPU must support SSE2.
    #[target_feature(enable = "sse2")]
    unsafe fn blocks4_sse2(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
        let splat = |w: u32| _mm_set1_epi32(w as i32);
        let c = [0, 1, 2, 3].map(|i| counter.wrapping_add(i));
        let mut initial = [splat(0); 16];
        for (s, &w) in initial.iter_mut().zip(CHACHA_CONSTANTS.iter().chain(key)) {
            *s = splat(w);
        }
        initial[12] = _mm_setr_epi32(c[0] as i32, c[1] as i32, c[2] as i32, c[3] as i32);
        let hi = c.map(|c| (c >> 32) as i32);
        initial[13] = _mm_setr_epi32(hi[0], hi[1], hi[2], hi[3]);
        let mut s = initial;
        for _ in 0..CHACHA_ROUNDS / 2 {
            quarter_round!(s, 0, 4, 8, 12);
            quarter_round!(s, 1, 5, 9, 13);
            quarter_round!(s, 2, 6, 10, 14);
            quarter_round!(s, 3, 7, 11, 15);
            quarter_round!(s, 0, 5, 10, 15);
            quarter_round!(s, 1, 6, 11, 12);
            quarter_round!(s, 2, 7, 8, 13);
            quarter_round!(s, 3, 4, 9, 14);
        }
        // Transpose each group of four words from lane-major to
        // block-major: block b's words w..w+4 land at out[16b + w].
        for w in (0..16).step_by(4) {
            let [a, b, c, d] = [0, 1, 2, 3].map(|i| _mm_add_epi32(s[w + i], initial[w + i]));
            let ab_lo = _mm_unpacklo_epi32(a, b);
            let cd_lo = _mm_unpacklo_epi32(c, d);
            let ab_hi = _mm_unpackhi_epi32(a, b);
            let cd_hi = _mm_unpackhi_epi32(c, d);
            let rows = [
                _mm_unpacklo_epi64(ab_lo, cd_lo),
                _mm_unpackhi_epi64(ab_lo, cd_lo),
                _mm_unpacklo_epi64(ab_hi, cd_hi),
                _mm_unpackhi_epi64(ab_hi, cd_hi),
            ];
            for (block, row) in rows.into_iter().enumerate() {
                let dst = &mut out[16 * block + w..16 * block + w + 4];
                // SAFETY: `dst` is four in-bounds `u32`s (16 bytes), and
                // `_mm_storeu_si128` has no alignment requirement.
                unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast::<__m128i>(), row) };
            }
        }
    }
}

impl ChaCha8Rng {
    /// Builds a generator from a full 256-bit key.
    pub fn from_key(key: [u32; 8]) -> Self {
        Self {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            idx: BUF_WORDS,
        }
    }

    /// Expands a 64-bit seed into a key via SplitMix64 (so nearby integer
    /// seeds yield uncorrelated streams) and builds the generator.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_mut(2) {
            let w = splitmix64(&mut state);
            pair[0] = w as u32;
            pair[1] = (w >> 32) as u32;
        }
        Self::from_key(key)
    }

    /// Computes the next four keystream blocks into `buf`.
    fn refill(&mut self) {
        blocks4(&self.key, self.counter, &mut self.buf);
        self.counter = self.counter.wrapping_add(BLOCKS_PER_REFILL as u64);
        self.idx = 0;
    }

    /// Returns the next 32-bit word of the keystream.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        if self.idx >= BUF_WORDS {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }
}

impl Rng for ChaCha8Rng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if let Some(&[lo, hi]) = self.buf.get(self.idx..self.idx + 2) {
            self.idx += 2;
            return u64::from(lo) | (u64::from(hi) << 32);
        }
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

/// A trivial counting generator for tests that need fully predictable
/// values (`StepRng::new(0, 0)` always returns the initial value).
#[derive(Debug, Clone)]
pub struct StepRng {
    value: u64,
    step: u64,
}

impl StepRng {
    /// Starts at `value`, advancing by `step` per draw.
    pub fn new(value: u64, step: u64) -> Self {
        Self { value, step }
    }
}

impl Rng for StepRng {
    fn next_u64(&mut self) -> u64 {
        let v = self.value;
        self.value = self.value.wrapping_add(self.step);
        v
    }
}

/// Draws a sample from a standard normal distribution using Box-Muller.
///
/// Box-Muller over two uniforms is exact and sufficient for the Monte-Carlo
/// device models; no distribution crate is needed.
pub fn sample_standard_normal(rng: &mut impl Rng) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// Draws a normal sample with the given mean and standard deviation.
pub fn sample_normal(rng: &mut impl Rng, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * sample_standard_normal(rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = rng_for(7, "x");
        let mut b = rng_for(7, "x");
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let mut a = rng_for(7, "x");
        let mut b = rng_for(7, "y");
        let same = (0..16).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn adjacent_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn chacha_known_answer() {
        // ChaCha8 blocks 0 and 1 for the all-zero key and nonce, checked
        // against the independently-published test vector ("3e00ef2f..."
        // as little-endian words).
        const BLOCKS: [[u32; 16]; 2] = [
            [
                0x2fef003e, 0xd6405f89, 0xe8b85b7f, 0xa1a5091f, 0xc30e842c, 0x3b7f9ace, 0x88e11b18,
                0x1e1a71ef, 0x72e14c98, 0x416f21b9, 0x6753449f, 0x19566d45, 0xa3424a31, 0x01b086da,
                0xb8fd7b38, 0x42fe0c0e,
            ],
            [
                0x0dfaaed2, 0x51c1a5ea, 0x6cdb0abf, 0xada5f201, 0x1258fdc0, 0xaaa2f959, 0x8f0ff2dc,
                0x6ba266d5, 0x38ec3250, 0x98dac5bb, 0x566f0cee, 0x652a878b, 0x25bf8aa0, 0xbb21eb1d,
                0xd8e5564b, 0xaa681e82,
            ],
        ];
        for (counter, block) in BLOCKS.iter().enumerate() {
            assert_eq!(&chacha8_block(&[0; 8], counter as u64), block);
        }
        let mut rng = ChaCha8Rng::from_key([0; 8]);
        let stream: Vec<u32> = (0..32).map(|_| rng.next_u32()).collect();
        assert_eq!(stream, BLOCKS.concat());
    }

    /// The keystream the scalar block function gives, one block at a time.
    fn scalar_stream(key: &[u32; 8], words: usize) -> Vec<u32> {
        (0..words.div_ceil(16) as u64)
            .flat_map(|counter| chacha8_block(key, counter))
            .take(words)
            .collect()
    }

    /// Replays `ops` (`true` = `next_u64`, `false` = `next_u32`) and checks
    /// every output against the scalar keystream.
    fn check_against_scalar(key: [u32; 8], ops: &[bool]) {
        let words = ops.iter().map(|&wide| 1 + usize::from(wide)).sum();
        let want = scalar_stream(&key, words);
        let mut rng = ChaCha8Rng::from_key(key);
        let mut pos = 0;
        for (step, &wide) in ops.iter().enumerate() {
            if wide {
                let got = rng.next_u64();
                let expect = u64::from(want[pos]) | (u64::from(want[pos + 1]) << 32);
                assert_eq!(got, expect, "next_u64 at word {pos} (op {step})");
                pos += 2;
            } else {
                assert_eq!(
                    rng.next_u32(),
                    want[pos],
                    "next_u32 at word {pos} (op {step})"
                );
                pos += 1;
            }
        }
    }

    #[test]
    fn next_u64_straddling_the_buffer_edge_matches_the_scalar_stream() {
        // 63 single words leave one buffered word: the next `next_u64`
        // takes its low half from this refill and its high half from the
        // next, and the stream continues at odd offsets after that.
        let mut ops = vec![false; BUF_WORDS - 1];
        ops.extend([true; BUF_WORDS]);
        check_against_scalar([7; 8], &ops);
    }

    crate::ptest! {
        /// The four-block refill equals four scalar blocks, for random keys
        /// at a random counter, across the carry from word 12 into word 13
        /// and at the wrap of the 64-bit counter.
        fn four_block_refill_matches_the_scalar_block_function(g) {
            let key: [u32; 8] = std::array::from_fn(|_| g.u32());
            let edges = [(1u64 << 32) - 1, 1 << 32, (1 << 32) + 1, (1 << 32) + 2, (1 << 32) + 3];
            for counter in [g.u64(), u64::MAX].into_iter().chain(edges) {
                let mut out = [0u32; BUF_WORDS];
                blocks4(&key, counter, &mut out);
                for (i, block) in out.chunks_exact(16).enumerate() {
                    let want = chacha8_block(&key, counter.wrapping_add(i as u64));
                    assert_eq!(block, want, "counter {counter:#x} + {i}");
                }
            }
        }

        /// Any mix of `next_u32` and `next_u64` calls over several refills
        /// reproduces the scalar keystream word for word.
        fn interleaved_draws_match_the_scalar_stream(g) {
            let key: [u32; 8] = std::array::from_fn(|_| g.u32());
            let ops = g.vec(1..200, |g| g.u8() & 1 == 1);
            check_against_scalar(key, &ops);
        }
    }

    #[test]
    fn fnv1a_known_vector() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        // Known vector: "a".
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = rng_for(11, "float-range");
        for _ in 0..10_000 {
            let v: f64 = rng.gen();
            assert!((0.0..1.0).contains(&v));
            let w: f32 = rng.gen();
            assert!((0.0..1.0).contains(&w));
        }
    }

    #[test]
    fn gen_range_covers_bounds_uniformly() {
        let mut rng = rng_for(12, "range");
        let mut counts = [0usize; 5];
        for _ in 0..10_000 {
            counts[rng.gen_range(0usize..5)] += 1;
        }
        for &c in &counts {
            assert!((1600..2400).contains(&c), "counts {counts:?}");
        }
        // Inclusive ranges reach the upper endpoint.
        assert!((0..1000).any(|_| rng.gen_range(0u32..=3) == 3));
        // Single-element ranges are fine.
        assert_eq!(rng.gen_range(7u64..=7), 7);
        assert_eq!(rng.gen_range(-3i32..=-3), -3);
    }

    #[test]
    fn gen_range_signed_spans_zero() {
        let mut rng = rng_for(13, "signed");
        for _ in 0..1000 {
            let v = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = rng_for(14, "empty");
        let _ = rng.gen_range(3u32..3);
    }

    #[test]
    fn step_rng_is_constant_at_zero_step() {
        let mut rng = StepRng::new(42, 0);
        assert_eq!(rng.next_u64(), 42);
        assert_eq!(rng.next_u64(), 42);
        let mut counting = StepRng::new(0, 3);
        assert_eq!(counting.next_u64(), 0);
        assert_eq!(counting.next_u64(), 3);
    }

    #[test]
    fn rng_trait_usable_through_mut_ref() {
        fn draw(rng: &mut impl Rng) -> u64 {
            rng.gen()
        }
        let mut rng = rng_for(15, "reborrow");
        let a = draw(&mut rng);
        let b = draw(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = rng_for(1, "normal-test");
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn monobit_balance() {
        // Crude statistical sanity: ones density of the keystream ≈ 1/2.
        let mut rng = rng_for(2, "monobit");
        let ones: u32 = (0..1000).map(|_| rng.gen::<u64>().count_ones()).sum();
        let total = 1000 * 64;
        let density = ones as f64 / total as f64;
        assert!((density - 0.5).abs() < 0.01, "density {density}");
    }
}
