//! The declarative experiment unit.

use crate::source::SourceSpec;
use crate::spec::ColorerSpec;
use sc_stream::{EngineConfig, QuerySchedule, StreamOrder, StreamingColorer};

/// One experiment: a graph source, an arrival order, an algorithm, an
/// engine configuration and a seed.
///
/// Scenarios are plain data (`Clone + Send + Sync`), so parameter grids
/// are built by mapping over vectors and handed to
/// [`Runner::run_all`](crate::Runner::run_all) for parallel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Display label carried into the outcome (defaults to the spec's).
    pub label: String,
    /// The input graph.
    pub source: SourceSpec,
    /// Edge arrival order.
    pub order: StreamOrder,
    /// The algorithm under test.
    pub colorer: ColorerSpec,
    /// Chunking and checkpoint schedule. Applies to single-pass
    /// streaming specs only; multi-pass and offline specs own their
    /// pass structure and produce no mid-stream checkpoints.
    pub engine: EngineConfig,
    /// Algorithm seed (independent of the source's generator seed).
    pub seed: u64,
}

impl Scenario {
    /// A scenario with defaults: generated order, batched engine, final
    /// query only, seed 7.
    pub fn new(source: SourceSpec, colorer: ColorerSpec) -> Self {
        Self {
            label: colorer.label().to_string(),
            source,
            order: StreamOrder::AsGenerated,
            colorer,
            engine: EngineConfig::default(),
            seed: 7,
        }
    }

    /// Sets the display label.
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Sets the arrival order.
    pub fn with_order(mut self, order: StreamOrder) -> Self {
        self.order = order;
        self
    }

    /// Sets the algorithm seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the engine configuration.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Adds a mid-stream checkpoint schedule.
    pub fn with_schedule(mut self, schedule: QuerySchedule) -> Self {
        self.engine.schedule = schedule;
        self
    }

    /// Whether [`Runner::run`](crate::Runner::run) can run this
    /// scenario: the source can be generated ([`SourceSpec::check`]),
    /// the colorer's parameters lie in range ([`ColorerSpec::check`]),
    /// and a dynamic (turnstile) source gets a streaming colorer that
    /// takes deletions. The last is decided as
    /// [`AttackScenario::check_playable`](crate::AttackScenario::check_playable)
    /// decides it — build the colorer from the source's own `n` and
    /// `delta` (without generating the stream) and ask
    /// [`supports_deletions`](StreamingColorer::supports_deletions).
    /// Insert-only sources pass without a build.
    /// [`ShardJob::check_runnable`](crate::shard::ShardJob::check_runnable)
    /// applies this before every grid run and `streamcolor color` before
    /// its run, so a client-sent scenario is refused instead of
    /// panicking its host.
    ///
    /// # Errors
    /// Names the family, the parameter, or the colorer and why it
    /// cannot run the dynamic source.
    pub fn check_runnable(&self) -> Result<(), String> {
        self.source.check()?;
        self.colorer.check()?;
        let (SourceSpec::Churn { n, delta, .. } | SourceSpec::SlidingWindow { n, delta, .. }) =
            self.source
        else {
            return Ok(());
        };
        let label = self.colorer.label();
        let colorer = self
            .colorer
            .build(n, delta, self.seed, None)
            .map_err(|e| format!("colorer {label:?} cannot run a dynamic source: {e}"))?;
        if !colorer.supports_deletions() {
            return Err(format!(
                "colorer {label:?} is insert-only; the dynamic source deletes edges"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphFamily;
    use streamcolor::DerandStrategy;

    #[test]
    fn builder_chain_sets_fields() {
        let s = Scenario::new(SourceSpec::exact_degree(50, 5, 1), ColorerSpec::Auto)
            .labeled("demo")
            .with_order(StreamOrder::Shuffled(3))
            .with_seed(9)
            .with_engine(EngineConfig::batched(32))
            .with_schedule(QuerySchedule::EveryEdges(10));
        assert_eq!(s.label, "demo");
        assert_eq!(s.order, StreamOrder::Shuffled(3));
        assert_eq!(s.seed, 9);
        assert_eq!(s.engine.chunk_size, 32);
        assert_eq!(s.engine.schedule, QuerySchedule::EveryEdges(10));
    }

    #[test]
    fn only_deletion_supporting_colorers_run_dynamic_sources() {
        let churn = SourceSpec::churn(30, 4, 1, 2);
        let runnable =
            |source: &SourceSpec, colorer| Scenario::new(source.clone(), colorer).check_runnable();
        assert!(runnable(&churn, ColorerSpec::DynamicSr { sparsity: None }).is_ok());
        let e = runnable(&churn, ColorerSpec::StoreAll).unwrap_err();
        assert!(e.contains("insert-only"), "{e}");
        let e = runnable(&churn, ColorerSpec::BatchGreedy).unwrap_err();
        assert!(e.contains("not a single-pass streaming algorithm"), "{e}");
        // Theorem 1's tournament is capped at 2^16 functions per part-pass,
        // whatever the source's vertex count.
        let det =
            |derand| ColorerSpec::Det(streamcolor::DetConfig { derand, ..Default::default() });
        let gnp = SourceSpec::gnp(200, 8, 0.1, 1);
        assert!(runnable(&gnp, det(DerandStrategy::Grid { l: 256 })).is_ok());
        let e = runnable(&gnp, det(DerandStrategy::Grid { l: 257 })).unwrap_err();
        assert!(e.contains(r#"field "grid_l" = 257"#), "{e}");
        let bipartite = SourceSpec::Family {
            family: GraphFamily::Bipartite { a: 1000, b: 1000 },
            n: 2,
            delta: 8,
            p: 0.1,
            seed: 1,
        };
        let e = runnable(&bipartite, det(DerandStrategy::FullFamily)).unwrap_err();
        assert!(e.contains(r#"field "derand" = "full""#), "{e}");
        // An empty graph's run reaches no epoch.
        let empty = SourceSpec::gnp(0, 8, 0.1, 1);
        assert!(runnable(&empty, det(DerandStrategy::Grid { l: 16 })).is_ok());
        // Insert-only sources are never screened.
        let exact = SourceSpec::exact_degree(30, 4, 1);
        assert!(runnable(&exact, ColorerSpec::BatchGreedy).is_ok());
    }
}
