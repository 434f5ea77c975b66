//! Deterministic pseudo-random number generation.
//!
//! The generator is xoshiro256** seeded through splitmix64 — the standard
//! pairing recommended by the xoshiro authors. It is:
//!
//! * **deterministic**: the same seed produces the same sequence on every
//!   platform and every run (see the golden-sequence test below);
//! * **splittable**: [`Rng::fork`] derives an independent stream, so
//!   generators can consume randomness without perturbing their caller;
//! * **dependency-free**: no `rand`, no `getrandom`, no OS entropy.
//!
//! This is a *simulation/testing* RNG. It is not cryptographically secure
//! and must never be used for anything security-sensitive.

/// Advances a splitmix64 state and returns the next output.
///
/// Used for seeding and for hashing seeds into independent streams.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** deterministic random number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from an explicit 64-bit seed.
    ///
    /// The 256-bit internal state is expanded from the seed with
    /// splitmix64, so nearby seeds still yield uncorrelated streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro must not start from the all-zero state; splitmix64 of
        // any seed cannot produce four zero outputs, but keep the guard
        // for clarity.
        debug_assert!(s.iter().any(|w| *w != 0));
        Rng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
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

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[0, bound)`. Returns 0 when `bound == 0`.
    ///
    /// Uses Lemire-style rejection so the distribution is exactly
    /// uniform (no modulo bias).
    #[inline]
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        loop {
            let x = self.next_u64();
            let hi = ((x as u128 * bound as u128) >> 64) as u64;
            let lo = x.wrapping_mul(bound);
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return hi;
            }
        }
    }

    /// Uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.u64_below(hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    #[inline]
    #[allow(clippy::cast_possible_truncation)] // result < hi, a usize
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if the range is empty or not finite.
    #[inline]
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "bad range [{lo}, {hi})"
        );
        let v = lo + self.next_f64() * (hi - lo);
        // Guard against hi itself appearing through rounding.
        if v >= hi {
            lo
        } else {
            v
        }
    }

    /// Derives an independent generator without disturbing this stream's
    /// future beyond a single draw.
    pub fn fork(&mut self) -> Rng {
        let mut sm = self.next_u64() ^ 0x6A09_E667_F3BC_C909;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden sequence: the exact first outputs for seed 42. If this test
    /// ever fails, reproducibility of every recorded seed in CI logs and
    /// EXPERIMENTS.md is broken — do not "fix" it by updating the
    /// constants without a migration note.
    #[test]
    fn golden_sequence_seed_42() {
        // Frozen at testkit introduction: the exact first eight outputs
        // for seed 42 on every platform.
        let mut rng = Rng::new(42);
        let got: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            [
                0x1578_0B2E_0C2E_C716,
                0x6104_D986_6D11_3A7E,
                0xAE17_5332_39E4_99A1,
                0xECB8_AD47_03B3_60A1,
                0xFDE6_DC7F_E2EC_5E64,
                0xC50D_A531_0179_5238,
                0xB821_5485_5A65_DDB2,
                0xD99A_2743_EBE6_0087,
            ],
            "same seed must replay the same golden sequence"
        );
        // Spot-check the splitmix64 expansion against the published
        // reference vector for state 0.
        let mut sm = 0u64;
        assert_eq!(splitmix64(&mut sm), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut sm), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn golden_sequence_is_stable_across_builds() {
        // Frozen constants recorded at testkit introduction. These pin
        // the concrete xoshiro256** + splitmix64 implementation.
        let mut rng = Rng::new(0x00D1_5EA5_E00F_CAFE);
        let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            [
                0xF700_6440_A38D_55E2,
                0xD38A_8DFB_E12A_9CC7,
                0x7E0B_8098_F175_A85B,
                0xEDA7_5A15_791A_FF10,
            ]
        );
        // Different seeds diverge immediately.
        let mut other = Rng::new(0x00D1_5EA5_E00F_CAFF);
        assert_ne!(got[0], other.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            let u = rng.u64_in(10, 20);
            assert!((10..20).contains(&u));
            let f = rng.f64_in(-3.0, 4.5);
            assert!((-3.0..4.5).contains(&f));
            let s = rng.usize_in(0, 6);
            assert!(s < 6);
        }
    }

    #[test]
    fn u64_below_zero_bound_is_zero() {
        let mut rng = Rng::new(1);
        assert_eq!(rng.u64_below(0), 0);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut a = Rng::new(5);
        let mut fork = a.fork();
        let a_next: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let f_next: Vec<u64> = (0..4).map(|_| fork.next_u64()).collect();
        assert_ne!(a_next, f_next);
        // Deterministic: replaying the parent replays the fork.
        let mut b = Rng::new(5);
        let mut fork2 = b.fork();
        assert_eq!(f_next, (0..4).map(|_| fork2.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = Rng::new(99);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }
}
