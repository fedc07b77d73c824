//! k-independent polynomial hash families over `F_p`.
//!
//! A uniformly random polynomial of degree `< k` over `F_p`, evaluated as a
//! function `F_p → F_p`, is exactly **k-independent**: any `k` distinct
//! inputs map to any `k` outputs with probability `1/p^k` (the Vandermonde
//! system has a unique solution).
//!
//! Algorithm 3 of the paper (the randomness-efficient robust colorer) draws
//! its functions `h_{i,j} : V → [ℓ²]` from a **4-independent** family of
//! size `poly(n)` — a degree-3 polynomial needs only `4 log p` random bits,
//! which is what lets the algorithm keep *all* its randomness within
//! semi-streaming space. The range reduction `mod s` costs a small,
//! quantifiable non-uniformity (≤ `s/p` per point), made negligible by
//! choosing `p ≫ s` (we use `p ≥ max(n, s)²`-ish via [`PolynomialFamily::for_domain`]).

use crate::modp::{addmod, is_prime_u64, mulmod, next_prime, Reducer};
use crate::prf::SplitMix64;

/// A degree-`(k−1)` polynomial hash `z ↦ (Σ c_i z^i mod p) mod s`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PolynomialHash {
    /// Coefficients `c_0 … c_{k−1}`, low degree first, each in `[0, p)`.
    pub coefficients: Vec<u64>,
    /// Prime modulus.
    pub p: u64,
    /// Range size (`s ≤ p`).
    pub s: u64,
}

impl PolynomialHash {
    /// Evaluates by Horner's rule, then reduces into `[0, s)`.
    #[inline]
    pub fn eval(&self, z: u64) -> u64 {
        self.horner_mod_p(z) % self.s
    }

    /// `Σ c_t z^t mod p` by Horner's rule: [`PolynomialHash::eval`]
    /// before its `mod s` step.
    #[inline]
    pub(crate) fn horner_mod_p(&self, z: u64) -> u64 {
        let z = z % self.p;
        let mut acc = 0u64;
        for &c in self.coefficients.iter().rev() {
            acc = addmod(mulmod(acc, z, self.p), c, self.p);
        }
        acc
    }

    /// The number of random field elements this hash consumed — the
    /// quantity Lemma 4.10 charges to the space budget (`O(k log p)` bits).
    #[inline]
    pub fn randomness_bits(&self) -> u64 {
        self.coefficients.len() as u64 * (64 - self.p.leading_zeros() as u64)
    }

    /// Whether the single-`u64` dot-product evaluation is exact for this
    /// hash: all `k` terms `c_t · z^t` (each `< p²`) must sum without
    /// overflowing `u64`. True for every modulus
    /// [`PolynomialFamily::for_domain`] picks at realistic parameters
    /// (`p` is a few million; the bound allows `p` up to `≈ 2^31`).
    #[inline]
    pub(crate) fn dot_fits_u64(&self) -> bool {
        let p1 = (self.p - 1) as u128;
        (self.coefficients.len() as u128) * p1 * p1 <= u64::MAX as u128
    }

    /// Unreduced dot product `Σ c_t · (x mod p)^t` with Barrett-reduced
    /// monomial powers. Caller guarantees [`PolynomialHash::dot_fits_u64`]
    /// and `rp = Reducer::new(self.p)`; the result still needs
    /// `% p % s`. Bit-compatible with Horner: both compute the same
    /// residue mod `p`.
    #[inline]
    pub(crate) fn dot_u64(&self, x: u64, rp: &Reducer) -> u64 {
        let z = rp.rem(x);
        let mut sum = 0u64;
        let mut w = 1u64;
        for (t, &c) in self.coefficients.iter().enumerate() {
            if t == 1 {
                w = z;
            } else if t > 1 {
                // w, z < p and p² fits u64 under the dot_fits_u64 gate.
                w = rp.rem(w * z);
            }
            sum += c * w;
        }
        sum
    }

    /// Evaluates at every `xs[i]` into `out[i]` — the batched tier.
    ///
    /// **Bit-identical to [`PolynomialHash::eval`]** on each input (the
    /// `batch ≡ per-edge` law of the robust colorers rests on this):
    /// the inner loop replaces Horner's per-step `u128` remainders with a
    /// dot product over Barrett-reduced monomial powers, which computes
    /// the same residue mod `p`, then the same `mod s`. Falls back to
    /// scalar [`PolynomialHash::eval`] for moduli too large for the
    /// `u64` accumulator (`p ≳ 2^31`).
    pub fn eval_batch(&self, xs: &[u32], out: &mut [u64]) {
        assert_eq!(xs.len(), out.len(), "eval_batch buffers must match");
        if self.s == 1 {
            out.fill(0); // everything reduces to 0 mod 1
            return;
        }
        if self.dot_fits_u64() {
            let rp = Reducer::new(self.p);
            let rs = Reducer::new(self.s);
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = rs.rem(rp.rem(self.dot_u64(x as u64, &rp)));
            }
        } else {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = self.eval(x as u64);
            }
        }
    }
}

/// The family of all degree-`(k−1)` polynomials over `F_p` with range `[s]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolynomialFamily {
    p: u64,
    s: u64,
    k: usize,
}

impl PolynomialFamily {
    /// A `k`-independent family hashing `[domain]` into `[s]`.
    ///
    /// The modulus is the smallest prime `≥ max(domain, s·64)`, keeping the
    /// per-point range-reduction bias below `1/64`.
    pub fn for_domain(domain: u64, s: u64, k: usize) -> Self {
        assert!(k >= 1, "independence parameter must be ≥ 1");
        assert!(s >= 1, "range must be nonempty");
        let p = next_prime(domain.max(s.saturating_mul(64)).max(2));
        Self { p, s, k }
    }

    /// Family over an explicit prime modulus.
    pub fn with_modulus(p: u64, s: u64, k: usize) -> Self {
        assert!(is_prime_u64(p), "modulus must be prime");
        assert!(s >= 1 && s <= p);
        assert!(k >= 1);
        Self { p, s, k }
    }

    /// Independence parameter `k`.
    #[inline]
    pub fn independence(&self) -> usize {
        self.k
    }

    /// The prime modulus.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// The range size.
    #[inline]
    pub fn range(&self) -> u64 {
        self.s
    }

    /// Samples a uniformly random member using the supplied generator.
    ///
    /// Deterministic in the generator state, so a seeded run of Algorithm 3
    /// is exactly reproducible.
    pub fn sample(&self, rng: &mut SplitMix64) -> PolynomialHash {
        let coefficients = (0..self.k).map(|_| rng.below(self.p)).collect();
        PolynomialHash { coefficients, p: self.p, s: self.s }
    }

    /// Number of random bits one sample consumes (`k · ⌈log₂ p⌉`).
    #[inline]
    pub fn bits_per_sample(&self) -> u64 {
        self.k as u64 * (64 - self.p.leading_zeros() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly(coeffs: &[u64], p: u64, s: u64) -> PolynomialHash {
        PolynomialHash { coefficients: coeffs.to_vec(), p, s }
    }

    #[test]
    fn horner_matches_naive() {
        let h = poly(&[3, 1, 4, 1], 97, 97);
        for z in 0..97u64 {
            let naive = (3 + z + 4 * z * z + z * z * z) % 97;
            assert_eq!(h.eval(z), naive, "z = {z}");
        }
    }

    #[test]
    fn constant_polynomial() {
        let h = poly(&[42], 101, 101);
        for z in [0u64, 1, 50, 100, 1000] {
            assert_eq!(h.eval(z), 42);
        }
    }

    #[test]
    fn range_reduction() {
        let h = poly(&[5, 7, 11, 13], 1009, 16);
        for z in 0..500 {
            assert!(h.eval(z) < 16);
        }
    }

    /// Exhaustive 2-independence of degree-1 polynomials (sanity check of
    /// the Vandermonde argument on a small field).
    #[test]
    fn degree1_family_is_pairwise_independent() {
        let p = 11u64;
        let mut counts = std::collections::HashMap::new();
        for c0 in 0..p {
            for c1 in 0..p {
                let h = poly(&[c0, c1], p, p);
                *counts.entry((h.eval(3), h.eval(8))).or_insert(0u64) += 1;
            }
        }
        assert_eq!(counts.len() as u64, p * p);
        assert!(counts.values().all(|&c| c == 1));
    }

    /// Exhaustive 3-independence of degree-2 polynomials on a tiny field:
    /// each output triple for 3 distinct points is hit exactly once.
    #[test]
    fn degree2_family_is_three_independent() {
        let p = 5u64;
        let mut counts = std::collections::HashMap::new();
        for c0 in 0..p {
            for c1 in 0..p {
                for c2 in 0..p {
                    let h = poly(&[c0, c1, c2], p, p);
                    *counts.entry((h.eval(0), h.eval(1), h.eval(4))).or_insert(0u64) += 1;
                }
            }
        }
        assert_eq!(counts.len() as u64, p * p * p);
        assert!(counts.values().all(|&c| c == 1));
    }

    /// Statistical 4-wise collision behaviour of sampled degree-3 members —
    /// the property Lemma 4.8's variance computation uses.
    #[test]
    fn sampled_degree3_pairwise_collision_rate() {
        let fam = PolynomialFamily::for_domain(1 << 16, 64, 4);
        let mut rng = SplitMix64::new(2024);
        let trials = 4000;
        let mut collisions = 0u64;
        for _ in 0..trials {
            let h = fam.sample(&mut rng);
            if h.eval(12345) == h.eval(54321) {
                collisions += 1;
            }
        }
        // Expected rate 1/64 ≈ 62.5 of 4000; allow generous slack.
        let expected = trials / 64;
        assert!(
            collisions > expected / 3 && collisions < expected * 3,
            "collision count {collisions} far from expectation {expected}"
        );
    }

    #[test]
    fn sample_determinism() {
        let fam = PolynomialFamily::for_domain(1000, 32, 4);
        let h1 = fam.sample(&mut SplitMix64::new(7));
        let h2 = fam.sample(&mut SplitMix64::new(7));
        assert_eq!(h1, h2);
        let h3 = fam.sample(&mut SplitMix64::new(8));
        assert_ne!(h1, h3);
    }

    #[test]
    fn randomness_accounting() {
        let fam = PolynomialFamily::with_modulus(1009, 64, 4);
        let h = fam.sample(&mut SplitMix64::new(1));
        assert_eq!(h.coefficients.len(), 4);
        assert_eq!(fam.bits_per_sample(), 4 * 10); // 1009 needs 10 bits
        assert_eq!(h.randomness_bits(), 40);
    }

    #[test]
    fn eval_batch_matches_scalar_small_field() {
        let h = poly(&[3, 1, 4, 1], 97, 16);
        let xs: Vec<u32> = (0..500).collect();
        let mut out = vec![0u64; xs.len()];
        h.eval_batch(&xs, &mut out);
        for (&x, &o) in xs.iter().zip(&out) {
            assert_eq!(o, h.eval(x as u64), "x = {x}");
        }
    }

    #[test]
    fn eval_batch_matches_scalar_huge_modulus_fallback() {
        // p² overflows u64 ⇒ the batch path must take the scalar fallback
        // and still agree bit-for-bit.
        let p = (1u64 << 61) - 1;
        let h = poly(&[12345, 67890, 13579, 24680], p, 1 << 16);
        assert!(!h.dot_fits_u64());
        let xs = [0u32, 1, 2, 65_535, 65_536, u32::MAX - 1, u32::MAX];
        let mut out = vec![0u64; xs.len()];
        h.eval_batch(&xs, &mut out);
        for (&x, &o) in xs.iter().zip(&out) {
            assert_eq!(o, h.eval(x as u64));
        }
    }

    #[test]
    fn eval_batch_range_one() {
        let h = poly(&[5, 7], 101, 1);
        let xs = [0u32, 50, 100, 4321];
        let mut out = vec![9u64; xs.len()];
        h.eval_batch(&xs, &mut out);
        assert!(out.iter().all(|&o| o == 0));
    }

    #[test]
    fn for_domain_picks_large_modulus() {
        let fam = PolynomialFamily::for_domain(100, 50, 4);
        assert!(fam.modulus() >= 50 * 64);
        assert!(is_prime_u64(fam.modulus()));
    }
}
