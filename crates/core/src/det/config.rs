//! Configuration for the deterministic multi-pass algorithm.

use sc_hash::affine::GridSubfamily;
use sc_hash::AffineFamily;

/// How stage hash selection (Algorithm 1, lines 16–26) enumerates the
/// Carter–Wegman family `H = {z ↦ az + b : a, b ∈ F_p}`.
///
/// The paper tournaments over all `p²` functions, which costs
/// `p = Θ(n log n)` evaluations per edge per pass. The default `Grid`
/// substitutes an `l × l` sub-grid: both passes stay exact, so `h⋆`
/// is at most the grid average of `Φ` rather than the family average
/// (`exp_potential` measures the gap). Theorem 2's tournaments always
/// use the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DerandStrategy {
    /// The paper-verbatim tournament over all `p²` functions, split into
    /// `p` parts by multiplier. Exact, but only feasible for tiny inputs
    /// (`p = Θ(n log n)` evaluations per edge per pass).
    FullFamily,
    /// A deterministic `l × l` sub-grid of `H`: `l` parts of `l` functions.
    /// Pass 2 computes exact part sums; pass 3 scans the winning part.
    Grid {
        /// Side length of the grid (number of parts = functions per part).
        l: usize,
    },
}

impl Default for DerandStrategy {
    fn default() -> Self {
        DerandStrategy::Grid { l: 16 }
    }
}

impl DerandStrategy {
    /// The functions the tournament runs over, within the family mod `p`.
    pub fn grid(self, p: u64) -> GridSubfamily {
        let l = match self {
            DerandStrategy::FullFamily => p as usize,
            DerandStrategy::Grid { l } => l,
        };
        AffineFamily::new(p).grid(l)
    }
}

/// Configuration for [`crate::det::deterministic_coloring`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetConfig {
    /// Hash-selection strategy per stage.
    pub derand: DerandStrategy,
    /// Safety cap on epochs. The theory guarantees `⌈log_{3/2} ∆⌉` epochs;
    /// if the cap is hit (never observed; possible in principle under
    /// `Grid` derandomization), the algorithm falls back to batch-greedy
    /// completion so it always terminates with a proper coloring.
    pub max_epochs: usize,
    /// Record the per-stage potential trace (experiment F7).
    pub track_potential: bool,
}

impl Default for DetConfig {
    fn default() -> Self {
        Self { derand: DerandStrategy::default(), max_epochs: 200, track_potential: false }
    }
}

impl DetConfig {
    /// Paper-verbatim configuration (full family tournament). Only use
    /// with very small `n`.
    pub fn theory() -> Self {
        Self { derand: DerandStrategy::FullFamily, ..Self::default() }
    }

    /// Grid configuration with an explicit side length.
    pub fn with_grid(l: usize) -> Self {
        Self { derand: DerandStrategy::Grid { l }, ..Self::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = DetConfig::default();
        assert_eq!(c.derand, DerandStrategy::Grid { l: 16 });
        assert!(c.max_epochs >= 100);
        assert!(!c.track_potential);
    }

    #[test]
    fn constructors() {
        assert_eq!(DetConfig::theory().derand, DerandStrategy::FullFamily);
        assert_eq!(DetConfig::with_grid(8).derand, DerandStrategy::Grid { l: 8 });
    }
}
