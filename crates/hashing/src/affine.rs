//! The Carter–Wegman affine family `H = {z ↦ az + b : a, b ∈ F_p}`.
//!
//! For a prime `p` this family, viewed as functions `F_p → F_p`, is
//! **pairwise independent**: for distinct `z₁ ≠ z₂` and any targets
//! `(t₁, t₂)`, exactly one `(a, b)` pair satisfies both equations, so
//! `Pr[h(z₁) = t₁ ∧ h(z₂) = t₂] = 1/p²`.
//!
//! Algorithm 1 of the paper (line 16) draws from this family with
//! `p ∈ [8 n log n, 16 n log n]` and runs a two-pass tournament over
//! `√|H|` *parts* to deterministically find a below-average function.
//! The natural part decomposition — and the one this module provides —
//! fixes the multiplier `a` and lets the offset `b` range: `|H| = p²`
//! splits into `p` parts of `p` functions each.
//!
//! For practical input sizes the full family is too large to enumerate
//! (`p² ≈ 10¹⁰` already at `n = 10³`), so the family also exposes
//! deterministic *sub-grids* `A × B` used by the default derandomization
//! strategy: the tournament then runs over `l²` functions instead of
//! `p²`, and its winner is below the grid's average potential rather
//! than the family's.

use crate::modp::{is_prime_u64, mulmod};

/// One member `z ↦ (az + b) mod p` of the affine family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AffineHash {
    /// Multiplier in `[0, p)`.
    pub a: u64,
    /// Offset in `[0, p)`.
    pub b: u64,
    /// Prime modulus.
    pub p: u64,
}

impl AffineHash {
    /// Evaluates the hash at `z` (reduced mod `p` first).
    #[inline]
    pub fn eval(&self, z: u64) -> u64 {
        (mulmod(self.a, z % self.p, self.p) + self.b) % self.p
    }
}

/// The full affine family over a fixed prime `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineFamily {
    p: u64,
}

impl AffineFamily {
    /// Creates the family over prime modulus `p`.
    ///
    /// # Panics
    /// Panics if `p` is not prime (the pairwise-independence argument
    /// needs a field).
    pub fn new(p: u64) -> Self {
        assert!(is_prime_u64(p), "AffineFamily modulus must be prime, got {p}");
        Self { p }
    }

    /// The modulus (= range size) of the family.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// Total number of functions in the family (`p²`).
    #[inline]
    pub fn len(&self) -> u128 {
        self.p as u128 * self.p as u128
    }

    /// Always false: the family has `p² ≥ 4` members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns the member with multiplier `a` and offset `b`.
    #[inline]
    pub fn member(&self, a: u64, b: u64) -> AffineHash {
        debug_assert!(a < self.p && b < self.p);
        AffineHash { a, b, p: self.p }
    }

    /// Iterates over the part with fixed multiplier `a` (all `p` offsets).
    pub fn part(&self, a: u64) -> impl Iterator<Item = AffineHash> + '_ {
        let p = self.p;
        (0..p).map(move |b| AffineHash { a, b, p })
    }

    /// Iterates over the entire family in `(a, b)` lexicographic order.
    ///
    /// Only feasible for tiny `p`; used by the `FullFamily` derandomization
    /// mode and by tests validating the tournament against ground truth.
    pub fn iter_all(&self) -> impl Iterator<Item = AffineHash> + '_ {
        let p = self.p;
        (0..p).flat_map(move |a| (0..p).map(move |b| AffineHash { a, b, p }))
    }

    /// A deterministic sub-grid `A × B` with `|A| = |B| = l`.
    ///
    /// The grids are evenly strided across `F_p` (offset by 1 so that the
    /// degenerate constant functions `a = 0` are avoided in the first
    /// slot), giving a spread, reproducible candidate set for the default
    /// derandomization strategy.
    pub fn grid(&self, l: usize) -> GridSubfamily {
        let l = l.max(1).min(self.p as usize);
        let stride = (self.p / l as u64).max(1);
        let multipliers: Vec<u64> = (0..l as u64).map(|i| (1 + i * stride) % self.p).collect();
        let offsets: Vec<u64> = (0..l as u64).map(|i| (i * stride) % self.p).collect();
        GridSubfamily { p: self.p, multipliers, offsets }
    }
}

/// A deterministic `A × B` sub-grid of an [`AffineFamily`].
///
/// Parts are indexed by multiplier (`part(i)` fixes `a = A[i]`), mirroring
/// the paper's `√|H|`-way split, so the derandomization tournament code is
/// identical for the full family and the grid.
#[derive(Debug, Clone)]
pub struct GridSubfamily {
    p: u64,
    multipliers: Vec<u64>,
    offsets: Vec<u64>,
}

impl GridSubfamily {
    /// Number of parts (= number of multipliers).
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.multipliers.len()
    }

    /// Number of functions per part (= number of offsets).
    #[inline]
    pub fn part_size(&self) -> usize {
        self.offsets.len()
    }

    /// Iterates the functions of part `i`.
    pub fn part(&self, i: usize) -> impl Iterator<Item = AffineHash> + '_ {
        let a = self.multipliers[i];
        let p = self.p;
        self.offsets.iter().map(move |&b| AffineHash { a, b, p })
    }

    /// The modulus of the underlying family.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    #[should_panic(expected = "must be prime")]
    fn rejects_composite_modulus() {
        AffineFamily::new(10);
    }

    #[test]
    fn eval_matches_formula() {
        let h = AffineHash { a: 3, b: 4, p: 7 };
        assert_eq!(h.eval(0), 4);
        assert_eq!(h.eval(1), 0); // 3+4 = 7 ≡ 0
        assert_eq!(h.eval(2), 3); // 6+4 = 10 ≡ 3
        assert_eq!(h.eval(9), 3); // 9 ≡ 2 mod 7
    }

    #[test]
    fn family_size() {
        let fam = AffineFamily::new(11);
        assert_eq!(fam.len(), 121);
        assert_eq!(fam.iter_all().count(), 121);
        assert_eq!(fam.part(3).count(), 11);
    }

    /// The defining property: for distinct z1 ≠ z2 every output pair is hit
    /// by exactly one (a, b).
    #[test]
    fn exact_pairwise_independence() {
        let p = 13u64;
        let fam = AffineFamily::new(p);
        let (z1, z2) = (2u64, 9u64);
        let mut counts: HashMap<(u64, u64), u64> = HashMap::new();
        for h in fam.iter_all() {
            *counts.entry((h.eval(z1), h.eval(z2))).or_default() += 1;
        }
        assert_eq!(counts.len() as u64, p * p);
        for (&pair, &c) in &counts {
            assert_eq!(c, 1, "pair {pair:?} hit {c} times, expected exactly 1");
        }
    }

    /// Marginal uniformity: each output value of z is hit exactly p times.
    #[test]
    fn exact_marginal_uniformity() {
        let p = 11u64;
        let fam = AffineFamily::new(p);
        let mut counts = vec![0u64; p as usize];
        for h in fam.iter_all() {
            counts[h.eval(5) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == p));
    }

    #[test]
    fn grid_shape_and_determinism() {
        let fam = AffineFamily::new(101);
        let g1 = fam.grid(8);
        let g2 = fam.grid(8);
        assert_eq!(g1.num_parts(), 8);
        assert_eq!(g1.part_size(), 8);
        let p1: Vec<_> = g1.part(3).collect();
        let p2: Vec<_> = g2.part(3).collect();
        assert_eq!(p1, p2, "grids must be deterministic");
        // Multipliers are all distinct and nonzero in the first slots.
        let all: Vec<_> = (0..8).flat_map(|i| g1.part(i)).collect();
        assert_eq!(all.len(), 64);
        assert!(all.iter().all(|h| h.p == 101));
    }

    #[test]
    fn grid_clamps_to_family_size() {
        let fam = AffineFamily::new(5);
        let g = fam.grid(100);
        assert_eq!(g.num_parts(), 5);
        assert_eq!(g.part_size(), 5);
    }

    #[test]
    fn grid_functions_have_spread_outputs() {
        // Two distinct vertices should collide on only a small fraction of
        // grid functions — the empirical analogue of 2-independence that the
        // derandomization quality rests on.
        let fam = AffineFamily::new(4099);
        let g = fam.grid(32);
        let mut collisions = 0usize;
        let mut total = 0usize;
        for i in 0..g.num_parts() {
            for h in g.part(i) {
                total += 1;
                if h.eval(17) == h.eval(923) {
                    collisions += 1;
                }
            }
        }
        assert_eq!(total, 1024);
        assert!(collisions <= 2, "too many collisions in grid: {collisions}");
    }
}
