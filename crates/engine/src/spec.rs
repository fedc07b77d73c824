//! Declarative algorithm selection.

use sc_graph::Graph;
use sc_stream::BoxedColorer;
use streamcolor::robust::auto_robust_colorer;
use streamcolor::{
    Bcg20Colorer, Bg18Colorer, Cgs22Colorer, DerandStrategy, DetConfig, DynamicColorer,
    PaletteSparsification, RandEfficientColorer, RobustColorer, RobustParams, StoreAllColorer,
    TrivialColorer,
};

/// The largest `grid_l` a `det` spec may ask for. A grid of side `l`
/// evaluates at most `l² = 2^16` functions per qualifying edge in each
/// stage's pass 2, 16× the largest in-repo grid; the full family
/// (`l = p ≥ 8·n·⌈log₂ n⌉`) exceeds that beyond about five vertices and
/// would hold its host for minutes.
const MAX_GRID_L: usize = 256;

/// Which algorithm a [`Scenario`](crate::Scenario) runs.
///
/// Streaming variants build an owned [`BoxedColorer`] driven by the
/// batched engine; multi-pass and offline variants are executed directly
/// by the [`Runner`](crate::Runner) (they consume a whole
/// [`StreamSource`](sc_stream::StreamSource) / graph rather than an edge
/// feed).
#[derive(Debug, Clone, PartialEq)]
pub enum ColorerSpec {
    /// Algorithm 2 (Theorem 3 / Corollary 4.7). `beta = None` is the
    /// Theorem 3 point `β = 0`.
    Robust {
        /// The Corollary 4.7 space/colors tradeoff parameter.
        beta: Option<f64>,
    },
    /// The paper's complete Theorem 3 recipe: store-all fallback for
    /// small `∆`, Algorithm 2 otherwise.
    Auto,
    /// Algorithm 3 (Theorem 4).
    RandEfficient,
    /// CGS22-style sketch-switching robust baseline.
    Cgs22,
    /// BG18-style bucket coloring; `buckets = None` uses `∆`.
    Bg18 {
        /// Bucket count override.
        buckets: Option<u64>,
    },
    /// BCG20-style degeneracy palettes (needs the materialized graph to
    /// size its palette).
    Bcg20 {
        /// Palette slack `ε`.
        epsilon: f64,
    },
    /// ACK19-style palette sparsification; `lists = None` uses the
    /// `Θ(log n)` theory sizing.
    PaletteSparsification {
        /// Sampled-list size override.
        lists: Option<usize>,
    },
    /// Store every edge, color optimally at query time.
    StoreAll,
    /// The dynamic (turnstile) colorer: an `s`-sparse-recovery sketch
    /// over the edge universe, accepting deletions. `sparsity = None`
    /// budgets `n·∆/2` live edges (every simple `∆`-bounded graph fits).
    DynamicSr {
        /// Live-support budget override.
        sparsity: Option<usize>,
    },
    /// The trivial `n`-coloring.
    Trivial,
    /// Theorem 1: deterministic multi-pass `(∆+1)`-coloring.
    Det(DetConfig),
    /// The `O(∆)`-pass batch-greedy comparator.
    BatchGreedy,
    /// Offline first-fit greedy (not a streaming algorithm).
    OfflineGreedy,
    /// Offline Brooks `∆`-coloring (not a streaming algorithm).
    Brooks,
}

impl ColorerSpec {
    /// Whether this spec runs through the single-pass streaming engine.
    pub fn is_streaming(&self) -> bool {
        !matches!(
            self,
            ColorerSpec::Det(_)
                | ColorerSpec::BatchGreedy
                | ColorerSpec::OfflineGreedy
                | ColorerSpec::Brooks
        )
    }

    /// Whether the spec's parameters lie in their ranges: `beta ∈ [0, 1]`
    /// (Corollary 4.7's tradeoff exponent) and `epsilon ≥ 0`, NaN
    /// refused; and a `det` hash tournament of at most `2^16` functions
    /// per part-pass, i.e. `grid_l ≤ 256` and never the full family. [`ColorerSpec::build`] checks this first, so an
    /// out-of-range client parameter is an error, never a constructor
    /// panic.
    ///
    /// # Errors
    /// Names the wire field and its value.
    pub fn check(&self) -> Result<(), String> {
        match *self {
            ColorerSpec::Robust { beta: Some(b) } if !(0.0..=1.0).contains(&b) => {
                Err(format!("field \"beta\" = {b} must lie in [0, 1]"))
            }
            ColorerSpec::Bcg20 { epsilon } if !(0.0..).contains(&epsilon) => {
                Err(format!("field \"epsilon\" = {epsilon} must be ≥ 0"))
            }
            ColorerSpec::Det(DetConfig { derand: DerandStrategy::Grid { l }, .. })
                if l > MAX_GRID_L =>
            {
                Err(format!(
                    "field \"grid_l\" = {l} gives a tournament of up to {l}² functions \
                     per part-pass; at most {MAX_GRID_L}"
                ))
            }
            ColorerSpec::Det(DetConfig { derand: DerandStrategy::FullFamily, .. }) => Err(format!(
                "field \"derand\" = \"full\" gives a tournament of p² ≥ (8·n·⌈log₂ n⌉)² \
                     functions per part-pass; use \"grid\" with grid_l ≤ {MAX_GRID_L}"
            )),
            _ => Ok(()),
        }
    }

    /// The universal factory: builds the owned, type-erased
    /// [`BoxedColorer`] for this spec — every call site (engine runner,
    /// attack referee, CLI, benches, the `sc-service` session host) goes
    /// through here, so there is exactly one algorithm-dispatch table in
    /// the workspace.
    ///
    /// # Errors
    /// Returns a message (never panics) when the spec cannot become a
    /// single-pass streaming colorer: out-of-range parameters
    /// ([`ColorerSpec::check`]), multi-pass / offline specs
    /// ([`ColorerSpec::is_streaming`] is false), and `Bcg20` without a
    /// materialized graph (its palette is sized from the graph's exact
    /// degeneracy).
    pub fn build(
        &self,
        n: usize,
        delta: usize,
        seed: u64,
        graph: Option<&Graph>,
    ) -> Result<BoxedColorer, String> {
        self.check()?;
        let delta = delta.max(1);
        Ok(match self {
            ColorerSpec::Robust { beta } => match beta {
                Some(b) => Box::new(RobustColorer::with_params(
                    RobustParams::with_beta(n, delta, *b),
                    seed,
                )),
                None => Box::new(RobustColorer::new(n, delta, seed)),
            },
            ColorerSpec::Auto => Box::new(auto_robust_colorer(n, delta, seed)),
            ColorerSpec::RandEfficient => Box::new(RandEfficientColorer::new(n, delta, seed)),
            ColorerSpec::Cgs22 => Box::new(Cgs22Colorer::new(n, delta, seed)),
            ColorerSpec::Bg18 { buckets } => {
                Box::new(Bg18Colorer::new(n, buckets.unwrap_or(delta as u64), seed))
            }
            ColorerSpec::Bcg20 { epsilon } => {
                let g = graph.ok_or(
                    "bcg20 needs a materialized graph (its palette is sized from degeneracy)",
                )?;
                Box::new(Bcg20Colorer::for_graph(g, *epsilon, seed))
            }
            ColorerSpec::PaletteSparsification { lists } => match lists {
                Some(k) => Box::new(PaletteSparsification::new(n, delta, *k, seed)),
                None => Box::new(PaletteSparsification::with_theory_lists(n, delta, seed)),
            },
            ColorerSpec::StoreAll => Box::new(StoreAllColorer::new(n)),
            ColorerSpec::DynamicSr { sparsity } => {
                let budget = sparsity.unwrap_or_else(|| (n * delta).div_ceil(2).max(1));
                Box::new(DynamicColorer::new(n, budget, seed))
            }
            ColorerSpec::Trivial => Box::new(TrivialColorer::new(n)),
            ColorerSpec::Det(_)
            | ColorerSpec::BatchGreedy
            | ColorerSpec::OfflineGreedy
            | ColorerSpec::Brooks => {
                return Err(format!(
                    "{} is not a single-pass streaming algorithm (it owns its pass structure)",
                    self.label()
                ))
            }
        })
    }

    /// A stable display label (streaming specs report the colorer's own
    /// name once built; this one also covers the non-streaming specs).
    pub fn label(&self) -> &'static str {
        match self {
            ColorerSpec::Robust { .. } => "robust-alg2",
            ColorerSpec::Auto => "auto-robust",
            ColorerSpec::RandEfficient => "robust-alg3",
            ColorerSpec::Cgs22 => "cgs22-sketch-switch",
            ColorerSpec::Bg18 { .. } => "bg18-bucket",
            ColorerSpec::Bcg20 { .. } => "bcg20-degeneracy",
            ColorerSpec::PaletteSparsification { .. } => "palette-sparsification",
            ColorerSpec::StoreAll => "store-all",
            ColorerSpec::DynamicSr { .. } => "dynamic-sr",
            ColorerSpec::Trivial => "trivial",
            ColorerSpec::Det(_) => "deterministic (Thm 1)",
            ColorerSpec::BatchGreedy => "batch-greedy (O(∆) passes)",
            ColorerSpec::OfflineGreedy => "offline greedy",
            ColorerSpec::Brooks => "offline Brooks (∆ colors)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_graph::generators;

    #[test]
    fn streaming_specs_build_and_name_themselves() {
        let g = generators::gnp_with_max_degree(40, 5, 0.4, 1);
        for spec in [
            ColorerSpec::Robust { beta: None },
            ColorerSpec::Robust { beta: Some(0.5) },
            ColorerSpec::Auto,
            ColorerSpec::RandEfficient,
            ColorerSpec::Cgs22,
            ColorerSpec::Bg18 { buckets: None },
            ColorerSpec::Bcg20 { epsilon: 0.5 },
            ColorerSpec::PaletteSparsification { lists: Some(6) },
            ColorerSpec::StoreAll,
            ColorerSpec::DynamicSr { sparsity: None },
            ColorerSpec::DynamicSr { sparsity: Some(64) },
            ColorerSpec::Trivial,
        ] {
            assert!(spec.is_streaming());
            let colorer = spec.build(40, 5, 7, Some(&g)).unwrap();
            assert!(!colorer.name().is_empty());
        }
    }

    #[test]
    fn non_streaming_specs_error_instead_of_building() {
        for spec in [
            ColorerSpec::Det(DetConfig::default()),
            ColorerSpec::BatchGreedy,
            ColorerSpec::OfflineGreedy,
            ColorerSpec::Brooks,
        ] {
            assert!(!spec.is_streaming());
            let e = spec.build(10, 3, 1, None).err().expect("must not build");
            assert!(e.contains("not a single-pass"), "{e}");
            assert!(!spec.label().is_empty());
        }
    }

    #[test]
    fn bcg20_without_a_graph_errors_instead_of_panicking() {
        let e = ColorerSpec::Bcg20 { epsilon: 0.5 }
            .build(10, 3, 1, None)
            .err()
            .expect("must not build");
        assert!(e.contains("bcg20"), "{e}");
    }
}
