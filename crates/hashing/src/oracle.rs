//! Seeded "oracle" random functions — the stand-in for Algorithm 2's
//! oracle randomness (DESIGN.md substitution S2).
//!
//! Algorithm 2 assumes `∆ + √∆` uniformly random functions
//! `h_i : V → [∆²]`, `g_ℓ : V → [∆^{3/2}]`, accessed as a random oracle
//! (the paper charges their `O(n∆)` bits to an oracle, not to working
//! memory, and remarks that a cryptographic PRG is the practical
//! realization). [`OracleFn`] realizes one such function as a stateless
//! keyed PRF: evaluation is `O(1)`, storage is one 64-bit key, and the
//! adversary in our game framework observes only algorithm outputs — never
//! the key — matching the model.

use crate::prf::{prf2, prf2_derive, prf2_finish, prf3, splitmix64, uniform_below};

/// A seeded random function `u64 → [range]`.
///
/// Two `OracleFn`s with different `(seed, id)` pairs behave as independent
/// random functions; the same pair always yields the same function.
///
/// Evaluation was originally `uniform_below(prf3(key, 0x5EED, x), range)`;
/// since `prf3(key, a, x) = prf2(prf2(key, a), x)` and the inner call
/// depends only on the key, construction now caches the derived key
/// `dk = prf2_derive(prf2(key, 0x5EED))`, leaving exactly two mixer
/// rounds per point: `uniform_below(prf2_finish(dk, x), range)`. Same
/// bits out, about half the work. Hot loops split those two rounds
/// further (see [`OracleFn::presplit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleFn {
    key: u64,
    /// Cached inner PRF state for the fixed tweak `0x5EED` (a pure
    /// function of `key`; kept alongside it so equality stays keyed).
    dk: u64,
    range: u64,
}

impl OracleFn {
    /// Creates the function identified by `id` under master seed `seed`,
    /// mapping into `[0, range)`.
    pub fn new(seed: u64, id: u64, range: u64) -> Self {
        assert!(range >= 1, "oracle range must be nonempty");
        let key = prf3(seed, 0x0B5E_55ED_0C0F_FEE5, id);
        let dk = prf2_derive(prf2(key, 0x5EED));
        Self { key, dk, range }
    }

    /// Evaluates the function at `x`.
    #[inline]
    pub fn eval(&self, x: u64) -> u64 {
        uniform_below(prf2_finish(self.dk, x), self.range)
    }

    /// The key-independent inner mixing round of [`OracleFn::eval`]:
    /// `eval(x) == eval_presplit(presplit(x))` for **every** oracle, so
    /// hot loops that evaluate many functions at the same vertices
    /// (Algorithm 2 runs every chunk endpoint through one sketch per
    /// future epoch plus one per degree level) hoist this round into a
    /// per-chunk column and share it across all of them. Splitting is
    /// what makes the sharing expressible; the per-key outer round in
    /// [`OracleFn::eval_presplit`] is the irreducible per-function cost.
    #[inline]
    pub fn presplit(x: u64) -> u64 {
        splitmix64(x)
    }

    /// Completes an evaluation from a [`OracleFn::presplit`] value — the
    /// per-key outer round alone. Bit-identical to [`OracleFn::eval`]
    /// composed with `presplit` by construction (`prf2_finish(dk, x)` is
    /// `splitmix64(dk + splitmix64(x))`).
    #[inline]
    pub fn eval_presplit(&self, sx: u64) -> u64 {
        uniform_below(splitmix64(self.dk.wrapping_add(sx)), self.range)
    }

    /// The range size of the function.
    #[inline]
    pub fn range(&self) -> u64 {
        self.range
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_identity() {
        let f1 = OracleFn::new(1, 2, 100);
        let f2 = OracleFn::new(1, 2, 100);
        for x in 0..50 {
            assert_eq!(f1.eval(x), f2.eval(x));
        }
    }

    #[test]
    fn distinct_ids_are_distinct_functions() {
        let f1 = OracleFn::new(1, 0, 1 << 20);
        let f2 = OracleFn::new(1, 1, 1 << 20);
        let agreements = (0..256).filter(|&x| f1.eval(x) == f2.eval(x)).count();
        assert!(agreements <= 2, "functions agree too often: {agreements}/256");
    }

    #[test]
    fn distinct_seeds_are_distinct_functions() {
        let f1 = OracleFn::new(10, 0, 1 << 20);
        let f2 = OracleFn::new(11, 0, 1 << 20);
        let agreements = (0..256).filter(|&x| f1.eval(x) == f2.eval(x)).count();
        assert!(agreements <= 2);
    }

    #[test]
    fn output_in_range() {
        let f = OracleFn::new(3, 9, 17);
        for x in 0..10_000 {
            assert!(f.eval(x) < 17);
        }
    }

    #[test]
    fn outputs_roughly_uniform() {
        let range = 32u64;
        let f = OracleFn::new(42, 7, range);
        let n = 64_000u64;
        let mut counts = vec![0u64; range as usize];
        for x in 0..n {
            counts[f.eval(x) as usize] += 1;
        }
        let expected = (n / range) as f64;
        for (cell, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.10, "cell {cell} deviates {dev:.3}");
        }
    }

    #[test]
    fn pairwise_collision_rate_matches_uniform() {
        // Random functions have collision probability exactly 1/range.
        let range = 64u64;
        let trials = 20_000u64;
        let mut collisions = 0u64;
        for id in 0..trials {
            let f = OracleFn::new(5, id, range);
            if f.eval(1) == f.eval(2) {
                collisions += 1;
            }
        }
        let expected = trials / range;
        assert!(
            collisions > expected / 2 && collisions < expected * 2,
            "collisions {collisions} vs expected {expected}"
        );
    }

    #[test]
    fn derived_key_preserves_original_prf_chain() {
        // The cached-dk evaluation must equal the original definition
        // uniform_below(prf3(key, 0x5EED, x), range) bit-for-bit.
        for (seed, id, range) in [(0u64, 0u64, 1u64), (1, 2, 100), (42, 7, 1 << 20), (9, 3, 17)] {
            let f = OracleFn::new(seed, id, range);
            for x in (0..64).chain([u64::MAX - 1, u64::MAX, 1 << 32, 1 << 63]) {
                assert_eq!(f.eval(x), uniform_below(prf3(f.key, 0x5EED, x), range), "x = {x}");
            }
        }
    }

    #[test]
    fn range_one_is_constant_zero() {
        let f = OracleFn::new(0, 0, 1);
        for x in 0..100 {
            assert_eq!(f.eval(x), 0);
        }
    }
}
