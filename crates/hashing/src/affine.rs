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

use crate::modp::{add_reduced, is_prime_u64, mulmod};

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
        GridSubfamily { p: self.p, l, stride }
    }
}

/// A deterministic `A × B` sub-grid of an [`AffineFamily`].
///
/// Parts are indexed by multiplier (`part(i)` fixes `a = A[i]`), mirroring
/// the paper's `√|H|`-way split, so the derandomization tournament code is
/// identical for the full family and the grid.
///
/// **The progression invariant.** With `s = ⌊p/l⌋` (at least 1), the
/// multipliers are `A[i] = (1 + i·s) mod p` and the offsets `B[j] = j·s`,
/// for `i, j < l`, and `(l − 1)·s < p`. So at a point `z`, part `i`'s
/// members send `z` to `(A[i]·z + j·s) mod p` for `j = 0, 1, …, l − 1`:
/// an arithmetic progression from [`GridSubfamily::part_start`] that
/// wraps past `p` at most once ([`GridSubfamily::member_values`]). And
/// `A[i]·z ≡ z + i·(s·z)`, so the parts' starts are a progression too
/// ([`GridSubfamily::part_starts`]). Both walk by adding and
/// conditionally subtracting `p`, with no modulo per function.
#[derive(Debug, Clone)]
pub struct GridSubfamily {
    p: u64,
    l: usize,
    stride: u64,
}

impl GridSubfamily {
    /// Number of parts (= number of multipliers).
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.l
    }

    /// Number of functions per part (= number of offsets).
    #[inline]
    pub fn part_size(&self) -> usize {
        self.l
    }

    /// The multiplier `A[i]` of part `i`.
    #[inline]
    fn multiplier(&self, i: usize) -> u64 {
        // i·s ≤ (l − 1)·s < p, so neither step overflows.
        (1 + i as u64 * self.stride) % self.p
    }

    /// Member `j` of part `i`: `z ↦ (A[i]·z + B[j]) mod p`.
    #[inline]
    pub fn member(&self, i: usize, j: usize) -> AffineHash {
        debug_assert!(i < self.l && j < self.l);
        AffineHash { a: self.multiplier(i), b: j as u64 * self.stride, p: self.p }
    }

    /// Iterates the functions of part `i`.
    pub fn part(&self, i: usize) -> impl Iterator<Item = AffineHash> + '_ {
        (0..self.l).map(move |j| self.member(i, j))
    }

    /// `A[i]·z mod p`: where part `i`'s first member (`b = 0`) sends `z`.
    #[inline]
    pub fn part_start(&self, i: usize, z: u64) -> u64 {
        mulmod(self.multiplier(i), z % self.p, self.p)
    }

    /// [`GridSubfamily::part_start`]`(i, z)` for every part `i` in order,
    /// from one `mulmod`: the starts step by `s·z mod p`.
    pub fn part_starts(&self, z: u64) -> impl Iterator<Item = u64> {
        let p = self.p;
        let z = z % p;
        progression(z, mulmod(self.stride, z, p), p).take(self.l)
    }

    /// Where the members of a part send a point the part's first member
    /// sends to `start`: `(start + j·s) mod p` for `j = 0, …, l − 1`, in
    /// member order. The values rise by `s` and wrap past `p` at most
    /// once.
    pub fn member_values(&self, start: u64) -> impl Iterator<Item = u64> {
        debug_assert!(start < self.p);
        progression(start, self.stride, self.p).take(self.l)
    }

    /// The modulus of the underlying family.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// The grid step `s = ⌊p/l⌋` (at least 1): the offset gap between
    /// consecutive members of a part, so the step of
    /// [`GridSubfamily::member_values`].
    #[inline]
    pub fn stride(&self) -> u64 {
        self.stride
    }
}

/// `x, x + d, x + 2d, …` modulo `p`, for `x < p` and `d ≤ p`.
#[inline]
fn progression(x: u64, d: u64, p: u64) -> impl Iterator<Item = u64> {
    std::iter::successors(Some(x), move |&t| Some(add_reduced(t, d, p)))
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

    /// The walks the progression invariant licenses agree with
    /// evaluating every member, for grids with and without a wrapped
    /// multiplier (`l = p` ends on `a = 0`) and a prime above `2^63`.
    #[test]
    fn grid_progressions_match_member_evaluation() {
        let big = 9_223_372_036_854_775_837u64; // the least prime above 2^63
        for (p, l) in
            [(2u64, 1usize), (2, 2), (13, 13), (101, 8), (101, 100), (4099, 16), (big, 16)]
        {
            let grid = AffineFamily::new(p).grid(l);
            if l > 1 {
                assert_eq!(grid.member(0, 1).b, grid.stride(), "p={p} l={l}");
            }
            for z in [0u64, 1, 5, 12, 123_456_789, u64::MAX] {
                let starts: Vec<u64> = grid.part_starts(z).collect();
                assert_eq!(starts.len(), grid.num_parts());
                for (i, &start) in starts.iter().enumerate() {
                    assert_eq!(start, grid.part_start(i, z), "p={p} l={l} z={z} i={i}");
                    let want: Vec<u64> = grid.part(i).map(|h| h.eval(z)).collect();
                    let got: Vec<u64> = grid.member_values(start).collect();
                    assert_eq!(got, want, "p={p} l={l} z={z} i={i}");
                }
            }
        }
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
