//! Chunking invariance (the engine's foundational contract): for every
//! [`StreamingColorer`] this crate exposes, feeding a stream through
//! `process_batch` under an *arbitrary chunking* must produce exactly
//! the per-edge results — identical colorings from every later query
//! and an identical space report.
//!
//! `alg2`/`alg3`/`store_all`/`bg18`/`bcg20` have one ingest routine
//! each, and their `process` is a one-edge batch, so for them this law
//! compares chunk size 1 with chunk size k through that one routine.
//! Whether that routine matches the algorithm as stated — one edge at a
//! time, one sketch or candidate at a time — is checked for
//! `alg2`/`alg3`/`bg18`/`bcg20` against an unbatched reference kept in
//! their unit tests (`ingest_matches_the_scalar_reference`).

use proptest::prelude::*;
use sc_graph::{generators, Edge};
use sc_stream::StreamingColorer;
use streamcolor::robust::{auto_robust_colorer, StoreAllColorer};
use streamcolor::{
    Bcg20Colorer, Bg18Colorer, Cgs22Colorer, PaletteSparsification, RandEfficientColorer,
    RobustColorer, RobustParams, TrivialColorer,
};

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

/// Feeds `edges` per-edge into `seq` and chunked into `bat`, comparing
/// the final coloring, an extra post-hoc query, and the space report.
fn assert_equivalent<C: StreamingColorer>(
    mut seq: C,
    mut bat: C,
    edges: &[Edge],
    cuts: &[usize],
    label: &str,
) -> Result<(), TestCaseError> {
    for &e in edges {
        seq.process(e);
    }
    for &(a, b) in &chunkings(edges, cuts) {
        bat.process_batch(&edges[a..b]);
    }
    let (cs, cb) = (seq.query(), bat.query());
    prop_assert_eq!(cs, cb, "{}: colorings diverge", label);
    prop_assert_eq!(
        seq.peak_space_bits(),
        bat.peak_space_bits(),
        "{}: space reports diverge",
        label
    );
    // Queries must stay equivalent if the stream continues afterwards.
    prop_assert_eq!(seq.query(), bat.query(), "{}: re-query diverges", label);
    Ok(())
}

/// The chunk-size menu every case sweeps: per-edge, tiny, ragged odd
/// sizes, and whole-stream.
fn cut_menu(whole: usize) -> Vec<Vec<usize>> {
    vec![vec![1], vec![2, 3], vec![7, 1, 13], vec![whole.max(1)], vec![5, whole.max(1)]]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn robust_alg2_batch_equivalence((n, delta, seed) in (20usize..70, 3usize..9, any::<u64>())) {
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
    fn robust_alg2_beta_and_epoch_rotation(seed in any::<u64>()) {
        // Small buffers force mid-chunk epoch rotations — the trickiest
        // batched path (runs must split exactly at rotation points).
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
    fn robust_alg3_batch_equivalence((n, delta, seed) in (20usize..60, 3usize..9, any::<u64>())) {
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
    fn robust_alg3_evaluation_tiers_equivalent((n, delta, seed) in (20usize..60, 3usize..9, any::<u64>())) {
        // The table-driven and generic (memoized) hash-evaluation tiers
        // must agree on every interleaving: same incremental answers,
        // same scratch answers, same space report.
        let g = generators::gnp_with_max_degree(n, delta, 0.5, seed);
        let edges = generators::shuffled_edges(&g, seed ^ 1);
        for cuts in cut_menu(edges.len()) {
            let mut tabled = RandEfficientColorer::new(n, delta, seed ^ 3);
            let mut generic = RandEfficientColorer::new(n, delta, seed ^ 3);
            prop_assert!(tabled.has_table_tier(), "small ranges must tabulate");
            generic.force_generic_tier();
            for &(a, b) in &chunkings(&edges, &cuts) {
                tabled.process_batch(&edges[a..b]);
                generic.process_batch(&edges[a..b]);
                prop_assert_eq!(
                    tabled.query_incremental(),
                    generic.query_incremental(),
                    "alg3 tiers diverge (incremental) after {} edges",
                    b
                );
            }
            prop_assert_eq!(tabled.query(), generic.query(), "alg3 tiers diverge (scratch)");
            prop_assert_eq!(
                tabled.peak_space_bits(),
                generic.peak_space_bits(),
                "the table tier leaked into the space report"
            );
        }
    }

    #[test]
    fn store_all_batch_equivalence((n, seed) in (10usize..60, any::<u64>())) {
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
    fn auto_robust_batch_equivalence((n, delta, seed) in (30usize..80, 3usize..40, any::<u64>())) {
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
    fn bg18_batch_equivalence((n, delta, seed) in (20usize..80, 2usize..12, any::<u64>())) {
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
    fn bcg20_batch_equivalence((n, seed) in (20usize..70, any::<u64>())) {
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
    fn default_batch_impls_equivalent((n, delta, seed) in (20usize..60, 3usize..8, any::<u64>())) {
        // These colorers use the trait's default sequential loop; the law
        // must hold for them too (it is the engine's interface contract).
        let g = generators::gnp_with_max_degree(n, delta, 0.4, seed);
        let edges = generators::shuffled_edges(&g, seed);
        for cuts in cut_menu(edges.len()) {
            assert_equivalent(
                Cgs22Colorer::new(n, delta, seed ^ 8),
                Cgs22Colorer::new(n, delta, seed ^ 8),
                &edges,
                &cuts,
                "cgs22",
            )?;
            assert_equivalent(
                PaletteSparsification::with_theory_lists(n, delta, seed ^ 9),
                PaletteSparsification::with_theory_lists(n, delta, seed ^ 9),
                &edges,
                &cuts,
                "palette-sparsification",
            )?;
            assert_equivalent(
                TrivialColorer::new(n),
                TrivialColorer::new(n),
                &edges,
                &cuts,
                "trivial",
            )?;
        }
    }
}
