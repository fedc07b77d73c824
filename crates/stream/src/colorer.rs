//! The single-pass streaming-colorer interface.
//!
//! The adversarially robust setting (paper §4) is "inherently a single-pass
//! setting": the algorithm consumes edge insertions one at a time and must
//! be able to report a proper coloring of the graph-so-far *after any
//! prefix*. [`StreamingColorer`] captures exactly that contract; the
//! adversarial game driver in `sc-adversary` and the static-stream
//! experiment harness both speak it.

use crate::query_cache::CacheStats;
use crate::token::{Sign, SignedEdge};
use sc_graph::Coloring;
use sc_graph::Edge;

/// A one-pass algorithm that maintains a colorable summary of an edge
/// stream and can produce a proper coloring on demand.
pub trait StreamingColorer {
    /// Processes the next edge insertion.
    fn process(&mut self, e: Edge);

    /// Processes a chunk of consecutive edge insertions.
    ///
    /// Must be observationally identical to calling [`process`] on each
    /// edge in order — same colorings from every later [`query`], same
    /// space report — for every chunking of the stream. Implementors
    /// override this to amortize per-edge work (hashing, candidate
    /// censuses) across the chunk; the default is the sequential loop.
    ///
    /// A colorer with its own batched routine implements [`process`] as
    /// a one-edge batch (`self.process_batch(std::slice::from_ref(&e))`),
    /// so one ingest routine serves every chunk size and the law above
    /// holds by construction at chunk size 1. An unbatched reference, if
    /// the colorer keeps one, lives in its own tests.
    ///
    /// [`process`]: StreamingColorer::process
    /// [`query`]: StreamingColorer::query
    fn process_batch(&mut self, edges: &[Edge]) {
        for &e in edges {
            self.process(e);
        }
    }

    /// Whether this colorer accepts edge **deletions** (the dynamic /
    /// turnstile model). The default is `false`: every insert-only
    /// colorer in the workspace keeps its exact contract, and the engine
    /// rejects deletion tokens aimed at it *before* they reach
    /// [`process_signed`] (the error names the colorer and the edge).
    ///
    /// [`process_signed`]: StreamingColorer::process_signed
    fn supports_deletions(&self) -> bool {
        false
    }

    /// Processes one signed token. For insertions the default delegates
    /// to [`process`]; for deletions it errors, naming this colorer and
    /// the offending edge — dynamic colorers override both this and
    /// [`supports_deletions`].
    ///
    /// # Errors
    /// The default errors on every deletion. Implementations that
    /// support deletions should only error on stream violations the
    /// engine could not pre-validate.
    ///
    /// [`process`]: StreamingColorer::process
    /// [`supports_deletions`]: StreamingColorer::supports_deletions
    fn process_signed(&mut self, t: SignedEdge) -> Result<(), String> {
        match t.sign {
            Sign::Insert => {
                self.process(t.edge);
                Ok(())
            }
            Sign::Delete => {
                Err(format!("{}: insert-only colorer cannot delete edge {}", self.name(), t.edge))
            }
        }
    }

    /// Processes a chunk of signed tokens; must be observationally
    /// identical to calling [`process_signed`] on each token in order,
    /// for every chunking (the signed extension of the
    /// [`process_batch`] law). The default loops; dynamic colorers
    /// override it to amortize per-token work.
    ///
    /// # Errors
    /// Propagates the first failing token's error; tokens before it have
    /// been applied (the *engine* pre-validates whole batches so this is
    /// unreachable on well-formed sessions).
    ///
    /// [`process_signed`]: StreamingColorer::process_signed
    /// [`process_batch`]: StreamingColorer::process_batch
    fn process_signed_batch(&mut self, tokens: &[SignedEdge]) -> Result<(), String> {
        for &t in tokens {
            self.process_signed(t)?;
        }
        Ok(())
    }

    /// Returns a coloring of all edges processed so far.
    ///
    /// For robust algorithms this must be proper with probability `≥ 1 − δ`
    /// against *adaptive* streams; for non-robust baselines only against
    /// oblivious ones.
    fn query(&mut self) -> Coloring;

    /// Like [`query`], but allowed to reuse artifacts of the previous
    /// query (via an epoch-keyed [`QueryCache`](crate::QueryCache)).
    ///
    /// **Law:** must be observationally identical to [`query`] at every
    /// prefix, under arbitrary interleavings of `process`/`process_batch`
    /// calls and queries of either kind — same colorings, same space
    /// report. Implementors fall back to a from-scratch rebuild whenever
    /// invalidation since the last query is too large to patch. The
    /// default *is* the from-scratch path.
    ///
    /// [`query`]: StreamingColorer::query
    fn query_incremental(&mut self) -> Coloring {
        self.query()
    }

    /// Outcome counters of the incremental query path, or `None` for
    /// colorers without one (their [`query_incremental`] just delegates
    /// to [`query`]).
    ///
    /// [`query`]: StreamingColorer::query
    /// [`query_incremental`]: StreamingColorer::query_incremental
    fn query_cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Self-reported peak space in bits (model accounting; see
    /// [`crate::space`]).
    fn peak_space_bits(&self) -> u64;

    /// Serializes the colorer's mutable algorithm state as a canonical
    /// [`crate::state`] string — the persistence half of the snapshot
    /// subsystem. Constructor parameters are *not* included (the
    /// restoring side rebuilds the colorer from its spec first, then
    /// replays this state into it via [`decode_state`]).
    ///
    /// **Law:** `decode_state ∘ encode_state ≡ id` observationally — a
    /// freshly built colorer that decodes this state must produce
    /// byte-identical colorings and space reports to the original at
    /// every subsequent prefix — and the bytes are canonical
    /// (re-encoding a restored colorer reproduces them exactly).
    ///
    /// The default errors: toy/test colorers without persistence
    /// support fail loudly instead of silently dropping state.
    ///
    /// [`decode_state`]: StreamingColorer::decode_state
    fn encode_state(&self) -> Result<String, String> {
        Err(format!("{}: no state codec", self.name()))
    }

    /// Replays an [`encode_state`] blob into this freshly built
    /// colorer. Errors name the offending field; on error the colorer
    /// must not be used (it may hold partial state).
    ///
    /// [`encode_state`]: StreamingColorer::encode_state
    fn decode_state(&mut self, state: &str) -> Result<(), String> {
        let _ = state;
        Err(format!("{}: no state codec", self.name()))
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// An owned, thread-movable, type-erased colorer — the universal currency
/// of the session and service layers.
///
/// [`StreamingColorer`] is object-safe by design (the adversary game, the
/// engine, and `ColorerSpec::build` all traffic in trait objects), and
/// the blanket `impl StreamingColorer for Box<C>` below means a
/// `BoxedColorer` can be handed to any generic consumer of the trait —
/// the batch-equivalence and incremental-equivalence property suites run
/// on boxed colorers unchanged.
pub type BoxedColorer = Box<dyn StreamingColorer + Send>;

/// Boxes and mutable borrows forward the whole contract to their
/// contents, so type erasure and borrowing never change observable
/// behavior (same colorings, same space). Every method forwards, not
/// just the required ones: a defaulted method would bypass the inner
/// colorer's override.
macro_rules! forward_streaming_colorer {
    ($($holder:ty),*) => {$(
        impl<C: StreamingColorer + ?Sized> StreamingColorer for $holder {
            fn process(&mut self, e: Edge) {
                (**self).process(e)
            }
            fn process_batch(&mut self, edges: &[Edge]) {
                (**self).process_batch(edges)
            }
            fn supports_deletions(&self) -> bool {
                (**self).supports_deletions()
            }
            fn process_signed(&mut self, t: SignedEdge) -> Result<(), String> {
                (**self).process_signed(t)
            }
            fn process_signed_batch(&mut self, tokens: &[SignedEdge]) -> Result<(), String> {
                (**self).process_signed_batch(tokens)
            }
            fn query(&mut self) -> Coloring {
                (**self).query()
            }
            fn query_incremental(&mut self) -> Coloring {
                (**self).query_incremental()
            }
            fn query_cache_stats(&self) -> Option<CacheStats> {
                (**self).query_cache_stats()
            }
            fn peak_space_bits(&self) -> u64 {
                (**self).peak_space_bits()
            }
            fn encode_state(&self) -> Result<String, String> {
                (**self).encode_state()
            }
            fn decode_state(&mut self, state: &str) -> Result<(), String> {
                (**self).decode_state(state)
            }
            fn name(&self) -> &'static str {
                (**self).name()
            }
        }
    )*};
}

forward_streaming_colorer!(Box<C>, &mut C);

/// Feeds a whole (oblivious) stream through a colorer, then queries once.
///
/// Returns the final coloring. The common harness path for static-stream
/// experiments.
pub fn run_oblivious<C: StreamingColorer + ?Sized>(
    colorer: &mut C,
    edges: impl IntoIterator<Item = Edge>,
) -> Coloring {
    for e in edges {
        colorer.process(e);
    }
    colorer.query()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_graph::{generators, Graph};

    /// A toy store-everything colorer for exercising the trait machinery.
    struct StoreAll {
        n: usize,
        edges: Vec<Edge>,
    }

    impl StreamingColorer for StoreAll {
        fn process(&mut self, e: Edge) {
            self.edges.push(e);
        }
        fn query(&mut self) -> Coloring {
            let g = Graph::from_edges(self.n, self.edges.iter().copied());
            let mut c = Coloring::empty(self.n);
            sc_graph::greedy_complete(&g, &mut c);
            c
        }
        fn peak_space_bits(&self) -> u64 {
            self.edges.len() as u64 * crate::space::edge_bits(self.n)
        }
        fn name(&self) -> &'static str {
            "store-all"
        }
    }

    /// Compile-time proof that the trait stays object-safe: both the
    /// plain and the `Send`-bounded trait objects must be constructible.
    #[test]
    fn trait_is_object_safe_and_boxes_forward() {
        let mut boxed: BoxedColorer = Box::new(StoreAll { n: 6, edges: vec![] });
        let _plain: &mut dyn StreamingColorer = &mut *boxed;
        let g = generators::cycle(6);
        // The box is itself a StreamingColorer: generic consumers accept it.
        let coloring = run_oblivious(&mut boxed, g.edges());
        assert!(coloring.is_proper_total(&g));
        assert_eq!(boxed.name(), "store-all");
        assert!(boxed.peak_space_bits() > 0);
        assert!(boxed.query_cache_stats().is_none());
    }

    #[test]
    fn default_signed_path_accepts_inserts_and_names_delete_offenders() {
        let mut boxed: BoxedColorer = Box::new(StoreAll { n: 6, edges: vec![] });
        assert!(!boxed.supports_deletions(), "insert-only by default");
        boxed.process_signed(SignedEdge::insert(Edge::new(0, 1))).unwrap();
        boxed
            .process_signed_batch(&[
                SignedEdge::insert(Edge::new(1, 2)),
                SignedEdge::insert(Edge::new(2, 3)),
            ])
            .unwrap();
        let err = boxed.process_signed(SignedEdge::delete(Edge::new(0, 1))).unwrap_err();
        assert!(
            err.contains("store-all") && err.contains("(0, 1)") && err.contains("insert-only"),
            "error must name the colorer and the edge: {err}"
        );
    }

    #[test]
    fn run_oblivious_produces_proper_coloring() {
        let g = generators::gnp_with_max_degree(30, 6, 0.3, 1);
        let mut c = StoreAll { n: 30, edges: vec![] };
        let coloring = run_oblivious(&mut c, g.edges());
        assert!(coloring.is_proper_total(&g));
        assert!(coloring.palette_span() <= g.max_degree() as u64 + 1);
        assert_eq!(c.peak_space_bits(), g.m() as u64 * crate::space::edge_bits(30));
        assert_eq!(c.name(), "store-all");
    }

    #[test]
    fn query_mid_stream_is_allowed() {
        let g = generators::cycle(6);
        let edges: Vec<Edge> = g.edges().collect();
        let mut c = StoreAll { n: 6, edges: vec![] };
        c.process(edges[0]);
        c.process(edges[1]);
        let partial = c.query();
        assert!(partial.is_total());
        // Only the processed prefix must be properly colored.
        let prefix = Graph::from_edges(6, edges[..2].iter().copied());
        assert!(partial.is_proper_total(&prefix));
    }
}
