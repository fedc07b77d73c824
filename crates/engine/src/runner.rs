//! Scenario execution.

use crate::parallel::{default_threads, par_map};
use crate::scenario::Scenario;
use crate::source::Generated;
use crate::spec::ColorerSpec;
use sc_graph::Coloring;
use sc_stream::{Checkpoint, StoredStream, StreamEngine};
use std::sync::{Arc, Mutex};
use streamcolor::{batch_greedy_coloring, deterministic_coloring, offline_greedy};

/// What one scenario produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The scenario's label.
    pub label: String,
    /// The algorithm's self-reported name.
    pub algo: String,
    /// Vertices in the materialized graph.
    pub n: usize,
    /// Edges in the materialized graph.
    pub m: usize,
    /// Max degree of the materialized graph.
    pub delta: usize,
    /// The final coloring.
    pub coloring: Coloring,
    /// Whether the final coloring is proper for the whole graph.
    pub proper: bool,
    /// Distinct colors in the final coloring.
    pub colors: usize,
    /// Passes over the input (streaming: 1; offline comparators: none).
    pub passes: Option<u64>,
    /// Self-reported peak space in bits (model accounting; offline
    /// comparators: none).
    pub space_bits: Option<u64>,
    /// Mid-stream checkpoints (streaming runs with a schedule).
    pub checkpoints: Vec<Checkpoint>,
}

/// Executes scenarios — one at a time or grids in parallel.
#[derive(Debug, Clone)]
pub struct Runner {
    /// Worker threads for [`Runner::run_all`] /
    /// [`Runner::run_attack_trials`](crate::attack) sweeps. Each scenario
    /// still runs its colorer single-threaded.
    pub threads: usize,
}

impl Default for Runner {
    fn default() -> Self {
        Self { threads: default_threads() }
    }
}

impl Runner {
    /// A sequential runner (also what `threads ≤ 1` degrades to).
    pub fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// A runner with an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// Runs one scenario to completion.
    ///
    /// Every streaming spec takes the one signed-token route: an
    /// insert-only source streams its graph's edges in the scenario's
    /// `order` as insertions; a dynamic (turnstile) source streams its
    /// token sequence as-is (the `order` is ignored — permuting a
    /// signed stream could move an edge past its own deletion), outputs
    /// are judged against the **live** graph, and the colorer is built
    /// with the union-graph degree bound.
    ///
    /// # Panics
    /// Panics, naming the offender, when a dynamic source meets a
    /// non-streaming spec or an insert-only colorer.
    pub fn run(&self, scenario: &Scenario) -> RunOutcome {
        run_generated(scenario, &scenario.source.generate())
    }

    /// Runs independent scenarios across the worker pool, preserving
    /// input order in the results.
    ///
    /// Scenarios naming the same source (a stored graph: the same
    /// `Arc`) share one generation of it, on every thread count: the
    /// first to need it generates it, and it is dropped once the last
    /// has taken it. Each outcome equals [`Runner::run`] of its
    /// scenario alone.
    pub fn run_all(&self, scenarios: &[Scenario]) -> Vec<RunOutcome> {
        let shared = SharedSources::new(scenarios);
        par_map(self.threads, scenarios, |i, s| run_generated(s, &shared.take(i, s)))
    }
}

/// Runs `scenario` on `generated`, one generation of its source.
fn run_generated(scenario: &Scenario, generated: &Generated) -> RunOutcome {
    let (g, delta) = (&*generated.graph, generated.delta);
    let tokens = generated.tokens(scenario.order);
    let label = scenario.colorer.label().to_string();
    let (algo, coloring, passes, space_bits, checkpoints) = match &scenario.colorer {
        // First, so the offline arms below never color a live graph.
        spec if scenario.source.is_dynamic() && !spec.is_streaming() => panic!(
            "{label} cannot run a dynamic source (it owns its pass structure; turnstile \
             streams are single-pass)"
        ),
        spec if spec.is_streaming() => {
            let mut colorer = spec
                .build(g.n(), delta, scenario.seed, Some(g))
                .expect("streaming spec with a materialized graph always builds");
            let report = StreamEngine::new(scenario.engine.clone())
                .run(&mut colorer, &tokens)
                .unwrap_or_else(|e| panic!("scenario {:?}: {e}", scenario.label));
            (
                colorer.name().to_string(),
                report.final_coloring,
                Some(1),
                Some(report.peak_space_bits),
                report.checkpoints,
            )
        }
        ColorerSpec::Det(config) => {
            let stream = StoredStream::from_edges(tokens.iter().map(|t| t.edge));
            let r = deterministic_coloring(&stream, g.n(), delta, config);
            (label, r.coloring, Some(r.passes), Some(r.peak_space_bits), Vec::new())
        }
        ColorerSpec::BatchGreedy => {
            let stream = StoredStream::from_edges(tokens.iter().map(|t| t.edge));
            let r = batch_greedy_coloring(&stream, g.n(), delta.max(1));
            (label, r.coloring, Some(r.passes), Some(r.peak_space_bits), Vec::new())
        }
        ColorerSpec::OfflineGreedy => (label, offline_greedy(g), None, None, Vec::new()),
        ColorerSpec::Brooks => (label, sc_graph::brooks_coloring(g), None, None, Vec::new()),
        streaming => unreachable!("{streaming:?} is a streaming spec"),
    };

    let proper = coloring.is_proper_total(g);
    let colors = coloring.num_distinct_colors();
    RunOutcome {
        label: scenario.label.clone(),
        algo,
        n: g.n(),
        m: g.m(),
        delta,
        coloring,
        proper,
        colors,
        passes,
        space_bits,
        checkpoints,
    }
}

/// One slot per distinct source of a grid: the first scenario that
/// needs the source generates it into the slot while the others that
/// need it wait on the slot's lock, and the slot is emptied when its
/// last scenario has taken the generation — so at most one generation
/// per source is held beyond the runs using it. A scenario finds its
/// slot by `SourceSpec::same_generation` against the distinct sources
/// before it.
struct SharedSources {
    /// Per scenario: the index of its source's slot.
    slot_of: Vec<usize>,
    slots: Vec<Mutex<Slot>>,
}

struct Slot {
    generated: Option<Arc<Generated>>,
    /// Scenarios yet to take the generation.
    takers: usize,
}

impl SharedSources {
    fn new(scenarios: &[Scenario]) -> Self {
        // Per slot: the first scenario naming its source, and its takers.
        let mut firsts: Vec<(usize, usize)> = Vec::new();
        let slot_of = scenarios
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let k = firsts
                    .iter()
                    .position(|&(f, _)| scenarios[f].source.same_generation(&s.source))
                    .unwrap_or_else(|| {
                        firsts.push((i, 0));
                        firsts.len() - 1
                    });
                firsts[k].1 += 1;
                k
            })
            .collect();
        let slots = firsts
            .into_iter()
            .map(|(_, takers)| Mutex::new(Slot { generated: None, takers }))
            .collect();
        Self { slot_of, slots }
    }

    /// Scenario `i`'s generation of its source `s.source`, generated
    /// here if it is the first to ask.
    fn take(&self, i: usize, s: &Scenario) -> Arc<Generated> {
        let mut slot = self.slots[self.slot_of[i]].lock().expect("a generation panicked");
        let generated = slot.generated.take().unwrap_or_else(|| Arc::new(s.source.generate()));
        slot.takers -= 1;
        if slot.takers > 0 {
            slot.generated = Some(Arc::clone(&generated));
        }
        generated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceSpec;
    use sc_graph::generators;
    use sc_stream::{EngineConfig, QuerySchedule, StreamOrder};
    use streamcolor::DetConfig;

    #[test]
    fn every_spec_runs_properly_through_the_runner() {
        let runner = Runner::sequential();
        let source = SourceSpec::exact_degree(80, 8, 3);
        for colorer in [
            ColorerSpec::Robust { beta: None },
            ColorerSpec::Robust { beta: Some(0.5) },
            ColorerSpec::Auto,
            ColorerSpec::RandEfficient,
            ColorerSpec::Cgs22,
            ColorerSpec::Bg18 { buckets: None },
            ColorerSpec::Bcg20 { epsilon: 0.5 },
            ColorerSpec::PaletteSparsification { lists: None },
            ColorerSpec::StoreAll,
            ColorerSpec::Det(DetConfig::default()),
            ColorerSpec::BatchGreedy,
            ColorerSpec::OfflineGreedy,
            ColorerSpec::Brooks,
        ] {
            let out = runner.run(&Scenario::new(source.clone(), colorer.clone()));
            assert!(out.proper, "{:?} produced an improper coloring", colorer);
            assert!(out.colors > 0);
            assert_eq!(out.n, 80);
            if colorer.is_streaming() {
                assert_eq!(out.passes, Some(1));
                assert!(out.space_bits.is_some());
            }
        }
    }

    #[test]
    fn parallel_grid_matches_sequential_grid() {
        let grid: Vec<Scenario> = (0..12)
            .map(|seed| {
                Scenario::new(SourceSpec::gnp(60, 6, 0.4, seed), ColorerSpec::Robust { beta: None })
                    .with_seed(seed ^ 0xA5)
                    .with_order(StreamOrder::Shuffled(seed))
            })
            .collect();
        let seq: Vec<_> = Runner::sequential().run_all(&grid);
        let par: Vec<_> = Runner::with_threads(4).run_all(&grid);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.coloring, b.coloring, "parallelism changed a result");
            assert_eq!(a.space_bits, b.space_bits);
            assert!(a.proper && b.proper);
        }
    }

    /// Law: sharing one generation per source changes no outcome. Two
    /// family sources (each under several orders), a churn source and a
    /// stored source are interleaved, each named at least three times.
    #[test]
    fn run_all_sharing_matches_each_scenario_alone() {
        let gnp = SourceSpec::gnp(70, 6, 0.3, 11);
        let exact = SourceSpec::exact_degree(50, 5, 12);
        let churn = SourceSpec::churn(40, 5, 13, 10);
        let stored = SourceSpec::stored(generators::random_with_exact_max_degree(60, 7, 5));
        let mut grid = Vec::new();
        for round in 0..3u64 {
            grid.extend([
                Scenario::new(gnp.clone(), ColorerSpec::Robust { beta: None })
                    .with_order(StreamOrder::Shuffled(round)),
                Scenario::new(churn.clone(), ColorerSpec::DynamicSr { sparsity: None })
                    .with_seed(round),
                Scenario::new(exact.clone(), ColorerSpec::Det(DetConfig::default()))
                    .with_order(StreamOrder::Interleaved(round)),
                Scenario::new(stored.clone(), ColorerSpec::StoreAll)
                    .with_order(StreamOrder::VertexContiguous)
                    .with_schedule(QuerySchedule::EveryEdges(25)),
                Scenario::new(gnp.clone(), ColorerSpec::BatchGreedy)
                    .with_order(StreamOrder::HubsFirst),
                Scenario::new(exact.clone(), ColorerSpec::RandEfficient)
                    .with_order(StreamOrder::Shuffled(round + 7))
                    .with_seed(round),
            ]);
        }
        assert_eq!(SharedSources::new(&grid).slots.len(), 4, "one slot per distinct source");
        let alone: Vec<RunOutcome> = grid.iter().map(|s| Runner::sequential().run(s)).collect();
        assert!(alone.iter().any(|o| !o.checkpoints.is_empty()));
        for runner in [Runner::sequential(), Runner::with_threads(4)] {
            let shared = runner.run_all(&grid);
            assert_eq!(shared.len(), grid.len());
            for ((got, want), s) in shared.iter().zip(&alone).zip(&grid) {
                assert_eq!(got, want, "{} threads changed {:?}", runner.threads, s.label);
            }
        }
    }

    #[test]
    fn checkpoints_flow_into_outcomes() {
        let g = generators::gnp_with_max_degree(50, 5, 0.5, 2);
        let m = g.m();
        let s = Scenario::new(SourceSpec::stored(g), ColorerSpec::StoreAll)
            .with_engine(EngineConfig::batched(8))
            .with_schedule(QuerySchedule::EveryEdges(10));
        let out = Runner::sequential().run(&s);
        assert_eq!(out.checkpoints.len(), m / 10);
        assert!(out.proper);
    }

    #[test]
    fn dynamic_sources_run_the_signed_route() {
        let runner = Runner::sequential();
        for source in [SourceSpec::churn(50, 6, 7, 20), SourceSpec::sliding_window(50, 6, 7, 25)] {
            let live = source.materialize();
            let out = runner
                .run(&Scenario::new(source.clone(), ColorerSpec::DynamicSr { sparsity: None }));
            assert!(out.proper, "{source:?} colored the live graph improperly");
            assert_eq!(out.m, live.m(), "outcome is judged against the live graph");
            assert_eq!(out.passes, Some(1));
            assert!(out.space_bits.is_some());
        }
    }

    #[test]
    fn dynamic_chunking_is_outcome_invariant() {
        let source = SourceSpec::churn(40, 5, 3, 12);
        let spec = ColorerSpec::DynamicSr { sparsity: None };
        let per_edge = Runner::sequential().run(
            &Scenario::new(source.clone(), spec.clone()).with_engine(EngineConfig::per_edge()),
        );
        let batched = Runner::sequential()
            .run(&Scenario::new(source, spec).with_engine(EngineConfig::batched(7)));
        assert_eq!(per_edge.coloring, batched.coloring, "chunking changed a dynamic run");
        assert_eq!(per_edge.space_bits, batched.space_bits);
    }

    #[test]
    fn non_streaming_specs_refuse_dynamic_sources() {
        for spec in [
            ColorerSpec::Det(DetConfig::default()),
            ColorerSpec::BatchGreedy,
            ColorerSpec::OfflineGreedy,
            ColorerSpec::Brooks,
        ] {
            let s = Scenario::new(SourceSpec::churn(30, 4, 1, 4), spec.clone());
            let panic = std::panic::catch_unwind(|| Runner::sequential().run(&s))
                .expect_err(&format!("{spec:?} colored a dynamic source"));
            let message = panic.downcast_ref::<String>().map_or("", String::as_str);
            assert!(message.contains("cannot run a dynamic source"), "{spec:?}: {message}");
        }
    }

    #[test]
    #[should_panic(expected = "insert-only colorer cannot delete edge")]
    fn insert_only_colorers_reject_dynamic_sources_loudly() {
        let s = Scenario::new(SourceSpec::churn(30, 4, 1, 4), ColorerSpec::StoreAll);
        let _ = Runner::sequential().run(&s);
    }

    #[test]
    fn stored_sources_share_the_graph_across_a_grid() {
        let g = generators::random_with_exact_max_degree(100, 9, 4);
        let source = SourceSpec::stored(g);
        let grid: Vec<Scenario> = StreamOrder::sweep(11)
            .into_iter()
            .map(|order| {
                Scenario::new(source.clone(), ColorerSpec::RandEfficient).with_order(order)
            })
            .collect();
        let outs = Runner::default().run_all(&grid);
        assert_eq!(outs.len(), 6);
        assert!(outs.iter().all(|o| o.proper));
    }
}
