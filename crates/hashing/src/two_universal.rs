//! The 2-universal family `{z ↦ ((az + b) mod p) mod s : a ∈ F_p∖{0}, b ∈ F_p}`.
//!
//! 2-universality (`Pr[h(z₁) = h(z₂)] ≤ 1/s` for `z₁ ≠ z₂`) is exactly the
//! property Lemma 3.10 of the paper needs to build its family of partitions
//! of the color space `C`: partition cells are the preimages
//! `R_i = {x ∈ C : h(x) = i}`, and the lemma's expectation bound
//! `E Σ_x max_S (|L_x ∩ S| − 1) ≤ (1/√s) Σ_x (|L_x| − 1)` follows from
//! pairwise collision probabilities alone.

use crate::modp::{is_prime_u64, mulmod, next_prime};

/// One member `z ↦ ((az + b) mod p) mod s`, `a ≠ 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TwoUniversalHash {
    /// Multiplier in `[1, p)`.
    pub a: u64,
    /// Offset in `[0, p)`.
    pub b: u64,
    /// Prime modulus, `p ≥` domain size.
    pub p: u64,
    /// Range size `s`.
    pub s: u64,
}

impl TwoUniversalHash {
    /// Evaluates the hash at `z`.
    #[inline]
    pub fn eval(&self, z: u64) -> u64 {
        ((mulmod(self.a, z % self.p, self.p) + self.b) % self.p) % self.s
    }
}

/// The family of all such functions over fixed `(p, s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoUniversalFamily {
    p: u64,
    s: u64,
}

impl TwoUniversalFamily {
    /// Builds a family hashing a domain of size `domain` into `[s]`.
    ///
    /// Picks the smallest prime `p ≥ max(domain, s)`. The family has
    /// `p(p−1)` members — the `O(|C|²)` size quoted in Lemma 3.10.
    pub fn for_domain(domain: u64, s: u64) -> Self {
        assert!(s >= 1, "range must be nonempty");
        let p = next_prime(domain.max(s).max(2));
        Self { p, s }
    }

    /// Builds the family from an explicit prime modulus.
    pub fn with_modulus(p: u64, s: u64) -> Self {
        assert!(is_prime_u64(p), "modulus must be prime");
        assert!(s >= 1 && s <= p, "need 1 ≤ s ≤ p");
        Self { p, s }
    }

    /// The prime modulus.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// The range size `s`.
    #[inline]
    pub fn range(&self) -> u64 {
        self.s
    }

    /// Number of members: `p · (p − 1)`.
    #[inline]
    pub fn len(&self) -> u128 {
        self.p as u128 * (self.p as u128 - 1)
    }

    /// Never empty for a valid family.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The `i`-th member under lexicographic `(a, b)` enumeration with
    /// `a ∈ [1, p)`, `b ∈ [0, p)`.
    ///
    /// Indexing (rather than iteration) is what the 4-pass partition
    /// selection of Theorem 2 needs: it tournament-splits the index space
    /// `[0, len)` into parts and narrows to a single index.
    pub fn member(&self, index: u128) -> TwoUniversalHash {
        debug_assert!(index < self.len());
        let a = 1 + (index / self.p as u128) as u64;
        let b = (index % self.p as u128) as u64;
        TwoUniversalHash { a, b, p: self.p, s: self.s }
    }

    /// A deterministic subsample of `l` members, evenly strided through the
    /// index space. It stands in for the full family when enumerating all
    /// `p(p−1)` members is impractical, as the `l × l` grid of
    /// [`crate::AffineFamily::grid`] does for the affine family.
    pub fn strided_sample(&self, l: usize) -> Vec<TwoUniversalHash> {
        let len = self.len();
        let l = (l.max(1) as u128).min(len);
        let stride = (len / l).max(1);
        (0..l).map(|i| self.member((i * stride) % len)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_range() {
        let fam = TwoUniversalFamily::for_domain(100, 8);
        for idx in [0u128, 5, 99, 1000] {
            let h = fam.member(idx % fam.len());
            for z in 0..100 {
                assert!(h.eval(z) < 8);
            }
        }
    }

    #[test]
    fn modulus_is_prime_and_large_enough() {
        let fam = TwoUniversalFamily::for_domain(100, 16);
        assert!(fam.modulus() >= 100);
        assert!(is_prime_u64(fam.modulus()));
    }

    /// Exhaustive verification of the 2-universal property on a small field:
    /// over the whole family, collisions for any fixed pair occur with
    /// probability ≤ 1/s.
    #[test]
    fn exhaustive_two_universality() {
        let p = 31u64;
        let s = 4u64;
        let fam = TwoUniversalFamily::with_modulus(p, s);
        let pairs = [(0u64, 1u64), (3, 17), (5, 30), (11, 12)];
        let total = fam.len();
        for (z1, z2) in pairs {
            let mut collisions = 0u128;
            for idx in 0..total {
                let h = fam.member(idx);
                if h.eval(z1) == h.eval(z2) {
                    collisions += 1;
                }
            }
            // 2-universality: Pr[collision] ≤ 1/s. Allow exact boundary.
            assert!(
                collisions * s as u128 <= total,
                "pair ({z1},{z2}): {collisions}/{total} collisions > 1/{s}"
            );
        }
    }

    #[test]
    fn member_enumeration_has_no_zero_multiplier() {
        let fam = TwoUniversalFamily::with_modulus(13, 3);
        for idx in 0..fam.len() {
            let h = fam.member(idx);
            assert!(h.a >= 1 && h.a < 13);
            assert!(h.b < 13);
        }
    }

    #[test]
    fn member_enumeration_is_a_bijection() {
        let fam = TwoUniversalFamily::with_modulus(11, 4);
        let mut seen = std::collections::HashSet::new();
        for idx in 0..fam.len() {
            let h = fam.member(idx);
            assert!(seen.insert((h.a, h.b)), "duplicate member ({}, {})", h.a, h.b);
        }
        assert_eq!(seen.len() as u128, fam.len());
    }

    #[test]
    fn strided_sample_is_deterministic_and_distinct() {
        let fam = TwoUniversalFamily::for_domain(1000, 16);
        let s1 = fam.strided_sample(32);
        let s2 = fam.strided_sample(32);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 32);
        let distinct: std::collections::HashSet<_> = s1.iter().map(|h| (h.a, h.b)).collect();
        assert_eq!(distinct.len(), 32);
    }

    #[test]
    fn strided_sample_clamps() {
        let fam = TwoUniversalFamily::with_modulus(5, 2);
        let all = fam.strided_sample(10_000);
        assert_eq!(all.len() as u128, fam.len());
    }

    /// Empirical partition-balance check used by Lemma 3.10: cells of a
    /// random member should each hold roughly |C|/s colors.
    #[test]
    fn partitions_are_roughly_balanced() {
        let c = 1024u64;
        let s = 8u64;
        let fam = TwoUniversalFamily::for_domain(c, s);
        let h = fam.member(fam.len() / 3);
        let mut cells = vec![0u64; s as usize];
        for z in 0..c {
            cells[h.eval(z) as usize] += 1;
        }
        let expected = c / s;
        for (i, &size) in cells.iter().enumerate() {
            assert!(
                size > expected / 4 && size < expected * 4,
                "cell {i} wildly unbalanced: {size} vs {expected}"
            );
        }
    }
}
