//! Deterministic PRNG for tests, stimulus generation and benchmarks.
//!
//! xoshiro256** with splitmix64 seed expansion: fast, tiny, and — unlike
//! an external `rand` — guaranteed to produce the same stream on every
//! platform and toolchain, so recorded seeds reproduce forever.

/// A 64-bit deterministic generator (xoshiro256**).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

/// splitmix64 step — used both for seed expansion and for deriving
/// independent per-case seeds in the property runner.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Seeds the full 256-bit state from one `u64` via splitmix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32-bit value (upper half of the 64-bit output).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[lo, hi]` (inclusive). Uses Lemire-style widening
    /// reduction; the tiny modulo bias over a 64-bit space is irrelevant
    /// for test-case generation.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_u64() % (span + 1)
    }

    /// Uniform signed value in `[lo, hi]` (inclusive).
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi as i128 - lo as i128) as u128;
        if span == u64::MAX as u128 {
            return self.next_u64() as i64;
        }
        (lo as i128 + (self.next_u64() as u128 % (span + 1)) as i128) as i64
    }

    /// Uniform `usize` in `[lo, hi)` — handy for indexing.
    pub fn index(&mut self, len: usize) -> usize {
        debug_assert!(len > 0);
        (self.range_u64(0, len as u64 - 1)) as usize
    }

    /// A coin flip with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// `true`/`false` with equal probability.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }

    /// Uniform `i16` over the full range.
    pub fn i16(&mut self) -> i16 {
        self.next_u64() as i16
    }

    /// A vector of `n` full-range `i16` samples — the stock stimulus shape
    /// for the audio models.
    pub fn i16_vec(&mut self, n: usize) -> Vec<i16> {
        (0..n).map(|_| self.i16()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn stream_is_pinned() {
        // Guards cross-version reproducibility of every recorded seed.
        let mut r = Rng::new(0);
        assert_eq!(r.next_u64(), 0x99EC_5F36_CB75_F2B4);
        let mut r = Rng::new(12345);
        let first = r.next_u64();
        let mut r2 = Rng::new(12345);
        assert_eq!(r2.next_u64(), first);
    }

    #[test]
    fn ranges_are_inclusive_and_bounded() {
        let mut r = Rng::new(7);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2000 {
            let v = r.range_u64(3, 10);
            assert!((3..=10).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 10;
            let s = r.range_i64(-5, 5);
            assert!((-5..=5).contains(&s));
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(9);
        for _ in 0..1000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn full_range_i64_does_not_panic() {
        let mut r = Rng::new(11);
        for _ in 0..10 {
            let _ = r.range_i64(i64::MIN, i64::MAX);
            let _ = r.range_u64(0, u64::MAX);
        }
    }
}
