//! Parameters of the robust colorer, generalized over the tradeoff
//! exponent `β` of Corollary 4.7.
//!
//! | quantity | paper value | `β = 0` (Theorem 3) |
//! |---|---|---|
//! | buffer capacity | `n·∆^β` | `n` |
//! | epochs / `h` sketches | `∆^{1−β}` | `∆` |
//! | `h` range (slow blocks) | `∆^{2−2β}` | `∆²` |
//! | fast threshold | `∆^{(1+β)/2}` | `√∆` |
//! | levels / `g` sketches | `∆^{(1−β)/2}` | `√∆` |
//! | `g` range (fast blocks) | `∆^{3(1−β)/2}` | `∆^{3/2}` |
//!
//! yielding `O(∆^{(5−3β)/2})` colors in `O(n∆^β)` space. All fractional
//! powers are rounded **up** and clamped to `≥ 1` (the table's
//! exponents are real-valued; integer parameters need some rounding),
//! so tiny `∆` degrades gracefully.

/// Derived integer parameters for Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobustParams {
    /// Number of vertices `n`.
    pub n: usize,
    /// Degree bound `∆` the adversary promises to respect.
    pub delta: usize,
    /// Buffer capacity (`n·∆^β` edges).
    pub buffer_capacity: usize,
    /// Number of epochs = number of `h` sketches (`∆^{1−β}`).
    pub num_epochs: usize,
    /// Range of each `h_i` (`∆^{2−2β}` slow blocks).
    pub h_range: u64,
    /// Buffer-degree threshold beyond which a vertex is *fast*
    /// (`∆^{(1+β)/2}`).
    pub fast_threshold: u64,
    /// Number of degree levels = number of `g` sketches (`∆^{(1−β)/2}`).
    pub num_levels: usize,
    /// Range of each `g_ℓ` (`∆^{3(1−β)/2}` fast blocks).
    pub g_range: u64,
}

/// `⌈∆^e⌉`, clamped to at least 1.
fn pow_ceil(delta: usize, e: f64) -> u64 {
    if delta == 0 {
        return 1;
    }
    ((delta as f64).powf(e).ceil() as u64).max(1)
}

impl RobustParams {
    /// Theorem 3 parameters (`β = 0`): `O(∆^{5/2})` colors, `Õ(n)` space.
    pub fn theorem3(n: usize, delta: usize) -> Self {
        Self::with_beta(n, delta, 0.0)
    }

    /// Corollary 4.7 parameters for tradeoff exponent `β ∈ [0, 1]`.
    pub fn with_beta(n: usize, delta: usize, beta: f64) -> Self {
        assert!((0.0..=1.0).contains(&beta), "β must lie in [0, 1], got {beta}");
        assert!(n >= 1, "need at least one vertex");
        Self {
            n,
            delta,
            buffer_capacity: (n as u64 * pow_ceil(delta, beta)) as usize,
            num_epochs: pow_ceil(delta, 1.0 - beta) as usize,
            h_range: pow_ceil(delta, 2.0 - 2.0 * beta),
            fast_threshold: pow_ceil(delta, (1.0 + beta) / 2.0),
            num_levels: pow_ceil(delta, (1.0 - beta) / 2.0) as usize,
            g_range: pow_ceil(delta, 3.0 * (1.0 - beta) / 2.0),
        }
    }

    /// The degree level of a vertex with overall degree `d`:
    /// `⌈d / ∆^{(1+β)/2}⌉`, clamped to `[1, num_levels]` for `d ≥ 1`
    /// (level 0 means degree 0).
    #[inline]
    pub fn level_of(&self, d: u64) -> usize {
        if d == 0 {
            0
        } else {
            (d.div_ceil(self.fast_threshold) as usize).min(self.num_levels)
        }
    }

    /// The paper's theoretical color bound `∆^{(5−3β)/2}`, for reporting.
    pub fn color_bound(&self, beta: f64) -> f64 {
        (self.delta as f64).powf((5.0 - 3.0 * beta) / 2.0)
    }

    /// Whether `∆` is so small that the store-everything fallback the
    /// paper prescribes (`∆ = O(log² n)` regime) applies.
    pub fn store_all_fallback(&self) -> bool {
        let log_n = (self.n.max(2) as f64).log2();
        (self.delta as f64) < log_n * log_n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem3_values_for_square_delta() {
        let p = RobustParams::theorem3(1000, 64);
        assert_eq!(p.buffer_capacity, 1000);
        assert_eq!(p.num_epochs, 64);
        assert_eq!(p.h_range, 64 * 64);
        assert_eq!(p.fast_threshold, 8);
        assert_eq!(p.num_levels, 8);
        assert_eq!(p.g_range, 512); // 64^{3/2}
    }

    #[test]
    fn beta_half_matches_corollary() {
        // β = 1/2: buffer n√∆, epochs √∆, h range ∆, threshold ∆^{3/4},
        // levels ∆^{1/4}, g range ∆^{3/4}; colors O(∆^{7/4}).
        let p = RobustParams::with_beta(100, 256, 0.5);
        assert_eq!(p.buffer_capacity, 100 * 16);
        assert_eq!(p.num_epochs, 16);
        assert_eq!(p.h_range, 256);
        assert_eq!(p.fast_threshold, 64); // 256^{3/4}
        assert_eq!(p.num_levels, 4); // 256^{1/4}
        assert_eq!(p.g_range, 64);
        let bound = p.color_bound(0.5);
        assert!((bound - (256f64).powf(1.75)).abs() < 1e-6);
    }

    #[test]
    fn beta_third_gives_delta_squared_colors() {
        let p = RobustParams::with_beta(100, 64, 1.0 / 3.0);
        // colors bound ∆^{(5-1)/2} = ∆²
        assert!((p.color_bound(1.0 / 3.0) - 4096.0).abs() < 1e-6);
    }

    #[test]
    fn levels_partition_the_degree_range() {
        let p = RobustParams::theorem3(100, 49); // √∆ = 7
        assert_eq!(p.level_of(0), 0);
        assert_eq!(p.level_of(1), 1);
        assert_eq!(p.level_of(7), 1);
        assert_eq!(p.level_of(8), 2);
        assert_eq!(p.level_of(49), 7);
        // Degrees above ∆ clamp to the top level (adversary violation guard).
        assert_eq!(p.level_of(1000), 7);
    }

    #[test]
    fn tiny_delta_is_safe() {
        for d in 0..4usize {
            let p = RobustParams::theorem3(10, d);
            assert!(p.num_epochs >= 1);
            assert!(p.h_range >= 1);
            assert!(p.fast_threshold >= 1);
            assert!(p.num_levels >= 1);
            assert!(p.g_range >= 1);
        }
    }

    #[test]
    fn store_all_fallback_regime() {
        assert!(RobustParams::theorem3(1 << 20, 10).store_all_fallback());
        assert!(!RobustParams::theorem3(256, 64).store_all_fallback());
    }

    #[test]
    #[should_panic(expected = "β must lie")]
    fn rejects_bad_beta() {
        RobustParams::with_beta(10, 10, 1.5);
    }
}
