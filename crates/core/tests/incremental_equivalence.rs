//! Incremental/from-scratch query equivalence law (the query cache's
//! foundational contract): for every [`StreamingColorer`] with an
//! incremental path, [`query_incremental`] must be observationally
//! identical to [`query`] at every prefix, under arbitrary interleavings
//! of batched ingestion and queries of either kind. The epoch-keyed
//! caches in `alg2`/`alg3`/`store_all`/`bg18`/`bcg20` patch censuses,
//! mirror graphs, and per-phase colorings; this test is what makes that
//! reuse safe to trust.
//!
//! [`query`]: sc_stream::StreamingColorer::query
//! [`query_incremental`]: sc_stream::StreamingColorer::query_incremental

use proptest::prelude::*;
use sc_graph::{generators, Edge};
use sc_stream::{
    Checkpoint, EngineConfig, Observation, QuerySchedule, Session, SignedEdge, StreamEngine,
    StreamingColorer,
};
use streamcolor::robust::{auto_robust_colorer, StoreAllColorer};
use streamcolor::{Bcg20Colorer, Bg18Colorer, RandEfficientColorer, RobustColorer, RobustParams};

/// Splits `edges` into chunks whose sizes are drawn from `cuts`.
fn chunkings(edges: &[Edge], cuts: &[usize]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while start < edges.len() {
        let size = cuts[i % cuts.len()].max(1).min(edges.len() - start);
        spans.push((start, start + size));
        start += size;
        i += 1;
    }
    spans
}

/// Feeds `inc` and `scr` identically chunk by chunk; after every chunk,
/// `inc.query_incremental()` must match `scr.query()`. Exercises the pure
/// hit path (back-to-back incremental queries) and mixed usage (scratch
/// queries interleaved on the *same* instance must not corrupt the cache
/// or move its stats).
fn assert_equivalent<C: StreamingColorer>(
    mut inc: C,
    mut scr: C,
    edges: &[Edge],
    cuts: &[usize],
    label: &str,
) -> Result<(), TestCaseError> {
    for (k, &(a, b)) in chunkings(edges, cuts).iter().enumerate() {
        inc.process_batch(&edges[a..b]);
        scr.process_batch(&edges[a..b]);
        let reference = scr.query();
        prop_assert_eq!(
            inc.query_incremental(),
            reference.clone(),
            "{}: incremental diverges from scratch after {} edges",
            label,
            b
        );
        if k % 2 == 0 {
            // No ingestion since the last query: the fresh-artifact path.
            prop_assert_eq!(
                inc.query_incremental(),
                reference.clone(),
                "{}: repeated incremental query diverges (hit path) after {} edges",
                label,
                b
            );
        }
        if k % 3 == 0 {
            // A scratch query on the incremental instance must agree, must
            // not poison later incremental queries, and must leave the
            // cache's stats as they were.
            let stats = inc.query_cache_stats();
            prop_assert_eq!(
                inc.query(),
                reference,
                "{}: scratch query on the cached instance diverges after {} edges",
                label,
                b
            );
            prop_assert_eq!(
                inc.query_cache_stats(),
                stats,
                "{}: scratch query touched the cache stats after {} edges",
                label,
                b
            );
        }
    }
    prop_assert_eq!(
        inc.peak_space_bits(),
        scr.peak_space_bits(),
        "{}: caching leaked into the space report",
        label
    );
    Ok(())
}

/// Ingestion/query interleavings every case sweeps: query-per-edge (the
/// adversarial-game cadence), small ragged chunks, and whole-stream.
fn cut_menu(whole: usize) -> Vec<Vec<usize>> {
    vec![vec![1], vec![2, 3], vec![7, 1, 13], vec![whole.max(1)]]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn alg2_incremental_equivalence((n, delta, seed) in (20usize..70, 3usize..9, any::<u64>())) {
        let g = generators::gnp_with_max_degree(n, delta, 0.5, seed);
        let edges = generators::shuffled_edges(&g, seed ^ 1);
        for cuts in cut_menu(edges.len()) {
            assert_equivalent(
                RobustColorer::new(n, delta, seed ^ 2),
                RobustColorer::new(n, delta, seed ^ 2),
                &edges,
                &cuts,
                "alg2",
            )?;
        }
    }

    #[test]
    fn alg2_incremental_equivalence_across_rotations(seed in any::<u64>()) {
        // Small buffers force mid-stream epoch rotations — every cached
        // phase must be dropped at each one.
        let params = RobustParams {
            buffer_capacity: 7,
            num_epochs: 96,
            ..RobustParams::theorem3(40, 12)
        };
        let g = generators::gnp_with_max_degree(40, 12, 0.6, seed);
        let edges = generators::shuffled_edges(&g, seed);
        for cuts in cut_menu(edges.len()) {
            assert_equivalent(
                RobustColorer::with_params(params, seed ^ 5),
                RobustColorer::with_params(params, seed ^ 5),
                &edges,
                &cuts,
                "alg2-rotating",
            )?;
        }
    }

    #[test]
    fn alg3_incremental_equivalence((n, delta, seed) in (20usize..60, 3usize..9, any::<u64>())) {
        // m can exceed n, so the n-edge alg3 buffer rotates mid-stream.
        let g = generators::gnp_with_max_degree(n, delta, 0.5, seed);
        let edges = generators::shuffled_edges(&g, seed ^ 1);
        for cuts in cut_menu(edges.len()) {
            assert_equivalent(
                RandEfficientColorer::new(n, delta, seed ^ 3),
                RandEfficientColorer::new(n, delta, seed ^ 3),
                &edges,
                &cuts,
                "alg3",
            )?;
        }
    }

    #[test]
    fn store_all_incremental_equivalence((n, seed) in (10usize..60, any::<u64>())) {
        let g = generators::gnp_with_max_degree(n, 6, 0.4, seed);
        let edges = generators::shuffled_edges(&g, seed);
        for cuts in cut_menu(edges.len()) {
            assert_equivalent(
                StoreAllColorer::new(n),
                StoreAllColorer::new(n),
                &edges,
                &cuts,
                "store-all",
            )?;
        }
    }

    #[test]
    fn auto_robust_incremental_equivalence((n, delta, seed) in (30usize..80, 3usize..40, any::<u64>())) {
        let g = generators::gnp_with_max_degree(n, delta, 0.5, seed);
        let edges = generators::shuffled_edges(&g, seed);
        for cuts in cut_menu(edges.len()) {
            assert_equivalent(
                auto_robust_colorer(n, delta, seed ^ 4),
                auto_robust_colorer(n, delta, seed ^ 4),
                &edges,
                &cuts,
                "auto",
            )?;
        }
    }

    #[test]
    fn bg18_incremental_equivalence((n, delta, seed) in (20usize..80, 2usize..12, any::<u64>())) {
        let g = generators::gnp_with_max_degree(n, delta, 0.4, seed);
        let edges = generators::shuffled_edges(&g, seed);
        for cuts in cut_menu(edges.len()) {
            assert_equivalent(
                Bg18Colorer::new(n, delta as u64, seed ^ 6),
                Bg18Colorer::new(n, delta as u64, seed ^ 6),
                &edges,
                &cuts,
                "bg18",
            )?;
        }
    }

    #[test]
    fn bcg20_incremental_equivalence((n, seed) in (20usize..70, any::<u64>())) {
        let g = generators::gnp_with_max_degree(n, 8, 0.4, seed);
        let edges = generators::shuffled_edges(&g, seed);
        for cuts in cut_menu(edges.len()) {
            assert_equivalent(
                Bcg20Colorer::for_graph(&g, 0.5, seed ^ 7),
                Bcg20Colorer::for_graph(&g, 0.5, seed ^ 7),
                &edges,
                &cuts,
                "bcg20",
            )?;
        }
    }

    #[test]
    fn engine_checkpoints_identical_under_both_query_paths(
        (n, delta, seed, every) in (30usize..70, 3usize..10, any::<u64>(), 1usize..9)
    ) {
        // The same schedule driven through the engine must produce
        // bit-identical checkpoints whether queries go incremental
        // (default) or from-scratch.
        let g = generators::gnp_with_max_degree(n, delta, 0.5, seed);
        let tokens: Vec<SignedEdge> =
            generators::shuffled_edges(&g, seed).into_iter().map(SignedEdge::insert).collect();
        let schedule = QuerySchedule::EveryEdges(every);
        let base = EngineConfig::batched(8).with_schedule(schedule);
        let specs: Vec<Box<dyn Fn() -> Box<dyn StreamingColorer>>> = vec![
            Box::new(move || Box::new(RobustColorer::new(n, delta, seed ^ 11))),
            Box::new(move || Box::new(RandEfficientColorer::new(n, delta, seed ^ 12))),
            Box::new(move || Box::new(StoreAllColorer::new(n))),
            Box::new(move || Box::new(Bg18Colorer::new(n, delta as u64, seed ^ 13))),
        ];
        // `checkpoint()` at the scheduled prefixes through a borrowing
        // session: the colorings behind a scheduled run's records.
        let prefixes: Vec<usize> = (every..=tokens.len()).step_by(every).collect();
        let checkpointed = |colorer: &mut dyn StreamingColorer, config: EngineConfig| {
            let mut session = Session::borrowing(colorer, config);
            let observed: Vec<Observation> = prefixes
                .iter()
                .map(|&p| {
                    session.push_signed_slice(&tokens[session.len()..p]).unwrap();
                    session.checkpoint()
                })
                .collect();
            observed
        };
        for build in &specs {
            let mut a = build();
            let ra = StreamEngine::new(base.clone()).run(a.as_mut(), &tokens).unwrap();
            let mut b = build();
            let rb =
                StreamEngine::new(base.clone().scratch_queries()).run(b.as_mut(), &tokens).unwrap();
            prop_assert_eq!(ra.final_coloring, rb.final_coloring, "{} final", a.name());
            prop_assert_eq!(&ra.checkpoints, &rb.checkpoints, "{} records", a.name());
            let oa = checkpointed(build().as_mut(), EngineConfig::batched(8));
            let ob = checkpointed(build().as_mut(), EngineConfig::batched(8).scratch_queries());
            for (ca, cb) in oa.iter().zip(&ob) {
                prop_assert_eq!(ca.prefix_len, cb.prefix_len);
                prop_assert_eq!(&ca.coloring, &cb.coloring, "{} prefix {}", a.name(), ca.prefix_len);
                prop_assert_eq!(ca.space_bits, cb.space_bits, "{} prefix {}", a.name(), ca.prefix_len);
            }
            let records: Vec<Checkpoint> = oa.iter().map(Observation::record).collect();
            prop_assert_eq!(&records, &ra.checkpoints, "{} records of the colorings", a.name());
            // The incremental run must actually have reused its cache.
            if let Some(stats) = a.query_cache_stats() {
                prop_assert!(
                    stats.queries() > 0 && stats.hits + stats.patches > 0,
                    "{}: incremental path never engaged ({:?})",
                    a.name(),
                    stats
                );
            }
        }
    }
}
