//! Locked-in `QueryCache` outcome counters.
//!
//! The incremental-equivalence property test proves the incremental
//! query path *answers* correctly; this test pins down *how* it answers:
//! for one fixed ingest/query interleaving, each colorer's
//! hit/patch/miss/invalidation counters must match the committed table
//! exactly. A counter drifting (a hit degrading to a patch, a patch to a
//! from-scratch miss) would keep every equivalence test green while
//! silently giving back the PR 2 query speedups — this is the regression
//! net for that.
//!
//! The interleaving (5 `query_incremental` calls):
//!
//! ```text
//! ingest 10 edges · query · query      (miss: first build; hit: same epoch)
//! ingest 5 edges  · query              (patch: small gap)
//! ingest 150 edges · query · query     (alg2/alg3: the ingest crosses an
//!                                       n-edge buffer rotation → explicit
//!                                       invalidation, so a miss + a hit;
//!                                       mirror-based colorers patch + hit)
//! ```
//!
//! `dynamic-sr` also has a signed interleaving of its own, pinning that
//! a gap containing deletions is patched rather than decoded afresh.

use sc_graph::generators;
use sc_stream::{CacheStats, SignedEdge, StreamOrder, StreamingColorer};
use streamcolor::{
    Bcg20Colorer, Bg18Colorer, Cgs22Colorer, DynamicColorer, PaletteSparsification,
    RandEfficientColorer, RobustColorer, StoreAllColorer, TrivialColorer,
};

const N: usize = 60;
const DELTA: usize = 6;

fn expected(hits: u64, patches: u64, misses: u64, invalidations: u64) -> CacheStats {
    // `patched_vertices` (patch *depth*) is workload- and colorer-shaped,
    // not part of the locked outcome table; the per-case assertions below
    // only require it to be consistent with the patch count.
    CacheStats { hits, patches, misses, invalidations, patched_vertices: 0 }
}

#[test]
fn counters_match_the_committed_table_per_colorer() {
    let g = generators::random_with_exact_max_degree(N, DELTA, 3);
    let edges = StreamOrder::Shuffled(5).arrange(&g);
    assert_eq!(edges.len(), 165, "the interleaving below assumes this stream");

    // (name, colorer, expected hit/patch/miss/invalidation counts)
    let cases: Vec<(&str, Box<dyn StreamingColorer>, CacheStats)> = vec![
        // Epoch-buffer colorers: the 150-edge ingest rotates the n-edge
        // buffer, invalidating the cached artifact → the 4th query is a
        // from-scratch miss instead of a patch.
        ("alg2", Box::new(RobustColorer::new(N, DELTA, 9)), expected(2, 1, 2, 1)),
        ("alg3", Box::new(RandEfficientColorer::new(N, DELTA, 9)), expected(2, 1, 2, 1)),
        // Mirror-based colorers never invalidate on this stream: one
        // build miss, then patches for every stale query, hits for every
        // same-epoch repeat.
        ("store_all", Box::new(StoreAllColorer::new(N)), expected(2, 2, 1, 0)),
        ("bg18", Box::new(Bg18Colorer::new(N, DELTA as u64, 9)), expected(2, 2, 1, 0)),
        ("bcg20", Box::new(Bcg20Colorer::for_graph(&g, 0.5, 9)), expected(2, 2, 1, 0)),
        ("dynamic-sr", Box::new(DynamicColorer::new(N, 200, 9)), expected(2, 2, 1, 0)),
    ];

    for (name, mut colorer, want) in cases {
        colorer.process_batch(&edges[..10]);
        colorer.query_incremental();
        colorer.query_incremental();
        colorer.process_batch(&edges[10..15]);
        colorer.query_incremental();
        colorer.process_batch(&edges[15..]);
        colorer.query_incremental();
        colorer.query_incremental();

        let stats = colorer.query_cache_stats().unwrap_or_else(|| {
            panic!("{name} advertises an incremental path but reports no stats")
        });
        assert_eq!(
            (stats.hits, stats.patches, stats.misses, stats.invalidations),
            (want.hits, want.patches, want.misses, want.invalidations),
            "{name}: counters drifted from the committed table"
        );
        assert!(
            stats.patches > 0 || stats.patched_vertices == 0,
            "{name}: patch depth recorded without any patch"
        );
        assert_eq!(stats.queries(), 5, "{name}: every query_incremental classifies exactly once");
        let reuse = (want.hits + want.patches) as f64 / 5.0;
        assert!((stats.reuse_rate() - reuse).abs() < 1e-12, "{name}: reuse rate");
    }
}

#[test]
fn colorers_without_an_incremental_path_report_no_stats() {
    let g = generators::random_with_exact_max_degree(N, DELTA, 3);
    let edges = StreamOrder::Shuffled(5).arrange(&g);
    let plains: Vec<(&str, Box<dyn StreamingColorer>)> = vec![
        ("cgs22", Box::new(Cgs22Colorer::new(N, DELTA, 9))),
        ("trivial", Box::new(TrivialColorer::new(N))),
        ("ps", Box::new(PaletteSparsification::new(N, DELTA, 6, 9))),
    ];
    for (name, mut colorer) in plains {
        colorer.process_batch(&edges[..20]);
        colorer.query_incremental();
        colorer.query_incremental();
        assert_eq!(colorer.query_cache_stats(), None, "{name} has no cache to report on");
    }
}

#[test]
fn stats_accumulate_monotonically_across_a_query_per_edge_run() {
    // The adversary-game cadence: query after every single edge. Hits
    // can never occur (the epoch advances between queries), so every
    // query is a patch or a miss, and the counters partition the query
    // count — for any colorer with a cache.
    let g = generators::random_with_exact_max_degree(N, DELTA, 3);
    let edges = StreamOrder::Shuffled(7).arrange(&g);
    let mut colorer = StoreAllColorer::new(N);
    let mut last_total = 0u64;
    for &e in edges.iter().take(40) {
        colorer.process(e);
        colorer.query_incremental();
        let s = colorer.query_cache_stats().expect("store-all has a cache");
        assert_eq!(s.hits, 0, "same-epoch hits are impossible at one query per edge");
        assert_eq!(s.queries(), last_total + 1, "each query classified exactly once");
        last_total = s.queries();
    }
    let s = colorer.query_cache_stats().unwrap();
    assert_eq!(s.misses, 1, "only the first query builds from scratch");
    assert_eq!(s.patches, 39, "every later query patches the mirror");
}

#[test]
fn dynamic_sr_patches_across_deletion_gaps() {
    // Signed interleaving: the gap before the 2nd query deletes three
    // edges and inserts two, the 3rd query repeats the epoch (a hit), and
    // the gap before the 4th only deletes. Both deletion gaps are patches
    // — a deletion does not force a from-scratch decode — and the cache
    // never invalidates.
    let g = generators::random_with_exact_max_degree(N, DELTA, 3);
    let edges = StreamOrder::Shuffled(5).arrange(&g);
    let mut inc = DynamicColorer::new(N, 200, 9);
    let mut scr = DynamicColorer::new(N, 200, 9);
    let gaps: Vec<Vec<SignedEdge>> = vec![
        edges[..20].iter().map(|&e| SignedEdge::insert(e)).collect(),
        [2, 7, 11]
            .iter()
            .map(|&i| SignedEdge::delete(edges[i]))
            .chain(edges[20..22].iter().map(|&e| SignedEdge::insert(e)))
            .collect(),
        Vec::new(),
        [0, 21].iter().map(|&i| SignedEdge::delete(edges[i])).collect(),
    ];
    for gap in &gaps {
        for c in [&mut inc, &mut scr] {
            c.process_signed_batch(gap).unwrap();
        }
        assert_eq!(inc.query_incremental(), scr.query(), "patched coloring ≠ scratch");
    }
    let stats = inc.query_cache_stats().unwrap();
    assert_eq!(
        (stats.hits, stats.patches, stats.misses, stats.invalidations),
        (1, 2, 1, 0),
        "dynamic-sr: deletion gaps must take the patch path: {stats:?}"
    );
}
