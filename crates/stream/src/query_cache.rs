//! Epoch-keyed query caching: the substrate of the incremental query path.
//!
//! The adversarially robust setting queries after *every* prefix (the
//! game of §2 observes the coloring each round), so a colorer that
//! rebuilds its whole answer per [`query`] spends the bulk of a
//! checkpointed run inside queries. [`QueryCache`] gives every colorer
//! the same bookkeeping for reusing the previous query's artifacts:
//!
//! * an **ingestion epoch** — a monotone generation counter the colorer
//!   bumps from `process`/`process_batch` (one tick per ingested edge);
//! * an **artifact slot** stamped with the epoch it was computed at, so a
//!   later [`query_incremental`] can tell a *fresh* artifact (same epoch:
//!   return it), a *stale* one (earlier epoch: patch it with the edges
//!   ingested since), and an *empty* cache (build from scratch);
//! * [`CacheStats`] counting those three outcomes plus explicit
//!   invalidations (epoch-buffer rotations, `⊥`-wipes), so experiments
//!   can report how often the incremental path actually engaged.
//!
//! Each colorer has one from-scratch routine: a miss installs its answer,
//! and the from-scratch [`query`] (scratch mode) returns the same answer
//! without reading or writing the cache — its stats, epoch and artifact
//! stay as they were. So scratch mode means every query rebuilds through
//! the routine the cache uses on a miss.
//!
//! The cache is harness bookkeeping, **not** algorithm state: it never
//! touches the [`SpaceMeter`](crate::SpaceMeter), and the incremental
//! path it powers must be observationally identical to the from-scratch
//! [`query`] — a law property-tested per colorer in
//! `crates/core/tests/incremental_equivalence.rs`.
//!
//! [`query`]: crate::StreamingColorer::query
//! [`query_incremental`]: crate::StreamingColorer::query_incremental

/// Outcome counters for a colorer's incremental query path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered entirely from a fresh artifact (same epoch).
    pub hits: u64,
    /// Queries answered by patching a stale artifact with the edges
    /// ingested since it was computed.
    pub patches: u64,
    /// Queries that rebuilt from scratch (empty or unusable cache).
    pub misses: u64,
    /// Artifacts dropped by explicit invalidation (buffer rotations,
    /// sketch wipes) rather than superseded by a newer computation.
    pub invalidations: u64,
    /// Cumulative vertices recolored by patch-path queries — the size of
    /// the dirty frontier the incremental repair actually touched, summed
    /// over all patches. Colorers whose patch path has no per-vertex
    /// repair notion leave this 0; the experiment harness surfaces it so
    /// serving runs can report patch *depth*, not just patch *count*.
    pub patched_vertices: u64,
}

impl CacheStats {
    /// Total queries classified (`hits + patches + misses`).
    pub fn queries(&self) -> u64 {
        self.hits + self.patches + self.misses
    }

    /// Fraction of queries that avoided a from-scratch rebuild, or 0.0
    /// before any query ran.
    pub fn reuse_rate(&self) -> f64 {
        let q = self.queries();
        if q == 0 {
            0.0
        } else {
            (self.hits + self.patches) as f64 / q as f64
        }
    }
}

/// How a [`QueryCache`] lookup classified its artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// Artifact computed at the current epoch: reusable verbatim.
    Fresh,
    /// Artifact from an earlier epoch: reusable after patching.
    Stale,
    /// No artifact (never computed, or invalidated).
    Empty,
}

/// An ingestion-epoch-keyed slot for one query artifact.
///
/// `T` is whatever the owning colorer reuses between queries — a patched
/// degree census and per-phase colorings (alg2), a decoded-sketch mirror
/// graph plus greedy state (alg3), a dirty-repairable coloring
/// (store-all), per-block sub-colorings (bg18), or a conflict-graph
/// mirror (bcg20).
#[derive(Debug, Clone)]
pub struct QueryCache<T> {
    /// Current ingestion epoch: total edges accepted by the colorer.
    epoch: u64,
    /// The artifact and the epoch it was computed at.
    entry: Option<(u64, T)>,
    stats: CacheStats,
}

impl<T> Default for QueryCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> QueryCache<T> {
    /// An empty cache at epoch 0.
    pub fn new() -> Self {
        Self { epoch: 0, entry: None, stats: CacheStats::default() }
    }

    /// The current ingestion epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the ingestion epoch by `edges` ticks. Colorers call this
    /// from `process`/`process_batch`; a query artifact computed before
    /// the bump becomes [`CacheState::Stale`].
    #[inline]
    pub fn advance(&mut self, edges: u64) {
        self.epoch += edges;
    }

    /// Classifies the artifact against the current epoch.
    pub fn state(&self) -> CacheState {
        match &self.entry {
            Some((at, _)) if *at == self.epoch => CacheState::Fresh,
            Some(_) => CacheState::Stale,
            None => CacheState::Empty,
        }
    }

    /// The fresh artifact, recording a cache **hit** — or `None` (and no
    /// stat) if the artifact is stale or missing.
    pub fn fresh(&mut self) -> Option<&T> {
        match self.state() {
            CacheState::Fresh => {
                self.stats.hits += 1;
                self.entry.as_ref().map(|(_, a)| a)
            }
            _ => None,
        }
    }

    /// Takes the artifact out for patching, recording a **patch** and
    /// returning `(epoch_computed_at, artifact)` — or `None` (and a
    /// recorded **miss**) if the cache is empty. Callers re-install the
    /// patched artifact with [`QueryCache::install`].
    pub fn take_for_patch(&mut self) -> Option<(u64, T)> {
        match self.entry.take() {
            Some(e) => {
                self.stats.patches += 1;
                Some(e)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores `artifact` stamped with the current epoch.
    pub fn install(&mut self, artifact: T) {
        self.entry = Some((self.epoch, artifact));
    }

    /// Records that a patch-path query recolored `vertices` vertices
    /// (accumulated into [`CacheStats::patched_vertices`]). Colorers call
    /// this with the dirty-frontier size right after a repair.
    #[inline]
    pub fn note_patched(&mut self, vertices: u64) {
        self.stats.patched_vertices += vertices;
    }

    /// Resets the cache to `epoch` with no artifact and zeroed stats —
    /// the session-restore path. The epoch must be restored exactly
    /// (it counts total ingested edges, and canonical state re-encoding
    /// depends on it); the artifact is deliberately left cold, which is
    /// observationally sound because the incremental path must equal
    /// the from-scratch [`query`](crate::StreamingColorer::query) at
    /// every prefix. Stats are harness bookkeeping outside the
    /// determinism law and start over.
    pub fn restore_at_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.entry = None;
        self.stats = CacheStats::default();
    }

    /// Drops the artifact (recording an invalidation if one existed).
    /// The epoch keeps counting — invalidation only forgets the answer,
    /// not how much stream went by.
    pub fn invalidate(&mut self) {
        if self.entry.take().is_some() {
            self.stats.invalidations += 1;
        }
    }

    /// Mutable access to the artifact regardless of freshness (for
    /// colorers that patch in place instead of taking). Records nothing.
    pub fn artifact_mut(&mut self) -> Option<(u64, &mut T)> {
        self.entry.as_mut().map(|(at, a)| (*at, a))
    }

    /// Outcome counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_fresh_stale_empty() {
        let mut c: QueryCache<String> = QueryCache::new();
        assert_eq!(c.state(), CacheState::Empty);
        assert_eq!(c.epoch(), 0);

        c.install("first".to_string());
        assert_eq!(c.state(), CacheState::Fresh);
        assert_eq!(c.fresh().map(String::as_str), Some("first"));

        c.advance(3);
        assert_eq!(c.epoch(), 3);
        assert_eq!(c.state(), CacheState::Stale);
        assert!(c.fresh().is_none(), "stale artifacts are not hits");

        let (at, art) = c.take_for_patch().expect("stale entry is patchable");
        assert_eq!((at, art.as_str()), (0, "first"));
        assert_eq!(c.state(), CacheState::Empty);

        c.install("patched".to_string());
        assert_eq!(c.state(), CacheState::Fresh);
    }

    #[test]
    fn stats_count_each_outcome_once() {
        let mut c: QueryCache<u32> = QueryCache::new();
        assert!(c.take_for_patch().is_none()); // miss
        c.install(1);
        assert!(c.fresh().is_some()); // hit
        c.advance(1);
        assert!(c.take_for_patch().is_some()); // patch
        c.install(2);
        c.note_patched(5);
        c.note_patched(2);
        c.invalidate(); // invalidation
        c.invalidate(); // no-op: nothing left to drop
        let s = c.stats();
        assert_eq!((s.hits, s.patches, s.misses, s.invalidations), (1, 1, 1, 1), "stats: {s:?}");
        assert_eq!(s.patched_vertices, 7);
        assert_eq!(s.queries(), 3);
        assert!((s.reuse_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn invalidation_keeps_the_epoch() {
        let mut c: QueryCache<u32> = QueryCache::new();
        c.advance(10);
        c.install(7);
        c.invalidate();
        assert_eq!(c.epoch(), 10);
        assert_eq!(c.state(), CacheState::Empty);
    }

    #[test]
    fn empty_stats_are_zero() {
        let c: QueryCache<u32> = QueryCache::new();
        assert_eq!(c.stats().queries(), 0);
        assert_eq!(c.stats().reuse_rate(), 0.0);
    }
}
