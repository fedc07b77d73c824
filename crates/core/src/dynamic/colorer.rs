//! The dynamic (turnstile) streaming colorer.
//!
//! The robust-coloring line (Chakrabarti–Ghosh–Stoeckl 2021; paper §4's
//! natural adversarial playground) extends naturally to streams with
//! **deletions**. This colorer stores *only* an [`SparseRecovery`]
//! sketch over the edge universe `{(u,v) : u < v}` — `O(s · log n)`
//! bits, independent of stream length — and answers queries by decoding
//! the live edge multiset and first-fit coloring it. On churn streams
//! whose live support stays within the sparsity budget `s = o(n²/log n)`
//! this is `o(n²)` bits where the insert-only store-all baseline grows
//! linearly with the *stream*, deletions and all.
//!
//! Contract notes:
//!
//! * **Sparsity is a promise.** Queries decode the sketch; if the live
//!   support exceeds `s`, the decode [fails loudly](SparseRecovery::decode)
//!   and the query panics with that message rather than answer wrongly.
//!   Scenario sizing (and the engine's [`DynamicSupport`] referee,
//!   observable via session stats) keeps honest runs within budget.
//! * **Determinism.** All hashing derives from the constructor seed via
//!   `sc-hash`, so equal token streams produce byte-identical sketches,
//!   colorings, and state blobs — the property the three-path
//!   equivalence suite pins down.
//! * **Persistence.** [`encode_state`]/[`decode_state`] carry the cell
//!   array canonically and inherit the PR 9 law: a restored colorer is
//!   observationally identical to the uninterrupted one at every
//!   subsequent prefix.
//!
//! [`DynamicSupport`]: sc_stream::DynamicSupport
//! [`encode_state`]: sc_stream::StreamingColorer::encode_state
//! [`decode_state`]: sc_stream::StreamingColorer::decode_state

use crate::dynamic::sparse_recovery::SparseRecovery;
use sc_graph::{greedy_complete, greedy_repair_ascending, Coloring, Edge, Graph};
use sc_stream::{
    counter_bits, CacheStats, QueryCache, SignedEdge, SpaceMeter, StateReader, StateWriter,
    StreamingColorer,
};

/// The incremental-query artifact: the decoded live graph, its
/// first-fit coloring, and the sorted live edge list it was decoded
/// from. Harness bookkeeping — never charged to the meter (any query
/// can rebuild it from the sketch).
///
/// A stale artifact is patched whatever the gap held — insertions,
/// deletions or both: [`DynamicColorer::patch`] diffs `live` against
/// the new decode and repairs `chi` from the changed edges only.
#[derive(Debug, Clone)]
struct DynamicArtifact {
    mirror: Graph,
    chi: Coloring,
    /// Live edges at install time, ascending (the sketch decode order).
    live: Vec<Edge>,
}

/// Sketch-backed dynamic colorer (`s`-sparse recovery over edges).
#[derive(Debug, Clone)]
pub struct DynamicColorer {
    n: usize,
    sketch: SparseRecovery,
    meter: SpaceMeter,
    cache: QueryCache<DynamicArtifact>,
}

impl DynamicColorer {
    /// A dynamic colorer on `n` vertices with live-support budget
    /// `sparsity`, all hashing derived from `seed`.
    pub fn new(n: usize, sparsity: usize, seed: u64) -> Self {
        let universe = (n as u64) * (n as u64);
        let sketch = SparseRecovery::new(universe.max(1), sparsity, seed);
        let mut meter = SpaceMeter::new();
        // The colorer's entire storage is the sketch: cells plus the
        // handful of hash keys. Charged once — updates never grow it.
        meter.charge(sketch.cell_bits() + 8 * counter_bits(u64::MAX));
        Self { n, sketch, meter, cache: QueryCache::new() }
    }

    /// The sparsity budget `s`.
    pub fn sparsity(&self) -> usize {
        self.sketch.sparsity()
    }

    fn edge_id(&self, e: Edge) -> u64 {
        (e.u() as u64) * (self.n as u64) + e.v() as u64
    }

    fn id_edge(&self, id: u64) -> Edge {
        Edge::new((id / self.n as u64) as u32, (id % self.n as u64) as u32)
    }

    /// Decodes the live edge list (ascending), panicking with the
    /// sketch's loud message if the support exceeds the budget.
    fn decode_live(&self) -> Vec<Edge> {
        let support = self.sketch.decode().unwrap_or_else(|e| panic!("{}: {e}", self.name()));
        support
            .into_iter()
            .map(|(id, count)| {
                assert!(
                    count > 0,
                    "{}: edge {} decoded with net multiplicity {count} \
                     (stream deleted more than it inserted)",
                    self.name(),
                    self.id_edge(id)
                );
                self.id_edge(id)
            })
            .collect()
    }

    /// The from-scratch answer: decode, mirror, first-fit.
    /// [`StreamingColorer::query`] returns its coloring and a cache miss
    /// installs it.
    fn rebuild(&self) -> DynamicArtifact {
        let live = self.decode_live();
        let mirror = Graph::from_edges(self.n, live.iter().copied());
        let mut chi = Coloring::empty(self.n);
        greedy_complete(&mirror, &mut chi);
        DynamicArtifact { mirror, chi, live }
    }

    /// Brings a stale artifact up to date: decodes the current live
    /// list, merge-diffs it against the installed one (both ascending),
    /// removes the deleted edges from the mirror and grafts in the new
    /// ones, then first-fit-repairs from the higher endpoint of every
    /// changed edge — ascending first-fit only reads lower neighbours,
    /// so those are exactly the vertices whose inputs moved. Returns the
    /// number of recolored vertices.
    fn patch(&self, artifact: &mut DynamicArtifact) -> u64 {
        use std::cmp::Ordering;
        let live = self.decode_live();
        let mirror = &mut artifact.mirror;
        let mut seeds = Vec::new();
        let (mut old, mut new) = (artifact.live.iter().peekable(), live.iter().peekable());
        loop {
            let order = match (old.peek(), new.peek()) {
                (None, None) => break,
                (Some(a), Some(b)) => a.cmp(b),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
            };
            let (e, changed) = match order {
                Ordering::Equal => {
                    old.next();
                    new.next();
                    continue;
                }
                Ordering::Less => {
                    let &e = old.next().expect("peeked");
                    (e, mirror.remove_edge(e))
                }
                Ordering::Greater => {
                    let &e = new.next().expect("peeked");
                    (e, mirror.add_edge(e))
                }
            };
            if changed {
                seeds.push(e.v());
            }
        }
        artifact.live = live;
        greedy_repair_ascending(mirror, &mut artifact.chi, seeds).len() as u64
    }
}

impl StreamingColorer for DynamicColorer {
    fn process(&mut self, e: Edge) {
        self.process_batch(std::slice::from_ref(&e));
    }

    fn process_batch(&mut self, edges: &[Edge]) {
        for &e in edges {
            assert!((e.v() as usize) < self.n, "edge {e} out of range");
            self.sketch.update(self.edge_id(e), 1);
        }
        self.cache.advance(edges.len() as u64);
    }

    fn supports_deletions(&self) -> bool {
        true
    }

    fn process_signed(&mut self, t: SignedEdge) -> Result<(), String> {
        self.process_signed_batch(std::slice::from_ref(&t))
    }

    fn process_signed_batch(&mut self, tokens: &[SignedEdge]) -> Result<(), String> {
        for &t in tokens {
            assert!((t.edge.v() as usize) < self.n, "edge {} out of range", t.edge);
            self.sketch.update(self.edge_id(t.edge), t.sign.unit());
        }
        self.cache.advance(tokens.len() as u64);
        Ok(())
    }

    fn query(&mut self) -> Coloring {
        self.rebuild().chi
    }

    fn query_incremental(&mut self) -> Coloring {
        if let Some(a) = self.cache.fresh() {
            return a.chi.clone();
        }
        let artifact = match self.cache.take_for_patch() {
            Some((_, mut a)) => {
                let recolored = self.patch(&mut a);
                self.cache.note_patched(recolored);
                a
            }
            None => self.rebuild(),
        };
        let out = artifact.chi.clone();
        self.cache.install(artifact);
        out
    }

    fn query_cache_stats(&self) -> Option<CacheStats> {
        Some(self.cache.stats())
    }

    fn peak_space_bits(&self) -> u64 {
        self.meter.peak_bits()
    }

    fn encode_state(&self) -> Result<String, String> {
        let mut w = StateWriter::new(self.name());
        w.field("cells", self.sketch.encode_cells());
        w.field("space_cur", self.meter.current_bits());
        w.field("space_peak", self.meter.peak_bits());
        w.field("epoch", self.cache.epoch());
        Ok(w.finish())
    }

    fn decode_state(&mut self, state: &str) -> Result<(), String> {
        let mut r = StateReader::new(state, self.name())?;
        let cells = r.expect("cells")?;
        let space_cur = r.u64_field("space_cur")?;
        let space_peak = r.u64_field("space_peak")?;
        let epoch = r.u64_field("epoch")?;
        r.done()?;
        self.sketch.decode_cells(cells).map_err(|e| format!("state: cells: {e}"))?;
        // The meter is charged once, at construction, with this layout's
        // cells: a blob charged for another layout is not this sketch's.
        let charged = self.meter.peak_bits();
        if (space_cur, space_peak) != (charged, charged) {
            let layout = self.sketch.layout();
            return Err(format!(
                "state: space_cur={space_cur} space_peak={space_peak}, but a {}x{} sketch \
                 charges {charged} bits",
                layout.rows, layout.cols
            ));
        }
        self.cache.restore_at_epoch(epoch);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "dynamic-sr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_graph::generators;
    use sc_stream::run_oblivious;

    /// Inserts a gnp graph's edges and deletes every third one again.
    fn churn(n: usize, seed: u64) -> (Graph, Vec<SignedEdge>) {
        let g = generators::gnp_with_max_degree(n, 6, 0.4, seed);
        let edges = generators::shuffled_edges(&g, seed);
        let mut tokens = Vec::new();
        let mut deleted = Vec::new();
        for (i, &e) in edges.iter().enumerate() {
            tokens.push(SignedEdge::insert(e));
            if i % 3 == 2 {
                tokens.push(SignedEdge::delete(e));
                deleted.push(e);
            }
        }
        let live = Graph::from_edges(n, edges.iter().copied().filter(|e| !deleted.contains(e)));
        (live, tokens)
    }

    #[test]
    fn insert_only_streams_color_properly() {
        let g = generators::gnp_with_max_degree(40, 6, 0.4, 1);
        let mut c = DynamicColorer::new(40, g.m() + 4, 7);
        let out = run_oblivious(&mut c, generators::shuffled_edges(&g, 1));
        assert!(out.is_proper_total(&g));
        assert!(out.palette_span() <= g.max_degree() as u64 + 1);
    }

    #[test]
    fn churny_streams_color_the_live_graph() {
        let (live, tokens) = churn(40, 2);
        let mut c = DynamicColorer::new(40, live.m() + 8, 3);
        for &t in &tokens {
            c.process_signed(t).unwrap();
        }
        let out = c.query();
        assert!(out.is_proper_total(&live));
    }

    #[test]
    fn space_is_stream_length_independent() {
        let mut c = DynamicColorer::new(1000, 16, 5);
        let fixed = c.peak_space_bits();
        let e = Edge::new(1, 2);
        for _ in 0..10_000 {
            c.process_signed(SignedEdge::insert(e)).unwrap();
            c.process_signed(SignedEdge::delete(e)).unwrap();
        }
        assert_eq!(c.peak_space_bits(), fixed, "sketch space never grows with the stream");
    }

    #[test]
    fn incremental_matches_scratch_under_churn() {
        let (_, tokens) = churn(30, 4);
        let budget = tokens.len() + 4;
        let mut inc = DynamicColorer::new(30, budget, 9);
        let mut scr = DynamicColorer::new(30, budget, 9);
        for (i, &t) in tokens.iter().enumerate() {
            inc.process_signed(t).unwrap();
            scr.process_signed(t).unwrap();
            assert_eq!(inc.query_incremental(), scr.query(), "prefix {}", i + 1);
        }
        let stats = inc.query_cache_stats().unwrap();
        assert!(stats.patches > 0, "stale queries must take the patch path: {stats:?}");
        assert_eq!(
            stats.misses, 1,
            "deletion gaps patch too; only the first query builds: {stats:?}"
        );
    }

    #[test]
    fn over_budget_queries_fail_loudly() {
        let g = generators::gnp_with_max_degree(30, 6, 0.5, 6);
        assert!(g.m() > 8, "need enough edges to bust the budget");
        let mut c = DynamicColorer::new(30, 2, 1);
        for e in g.edges() {
            c.process(e);
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.query()))
            .expect_err("over-budget decode must not answer");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("dynamic-sr") && msg.contains("s=2"), "{msg}");
    }

    #[test]
    fn state_round_trips_mid_churn() {
        let (_, tokens) = churn(25, 8);
        let budget = tokens.len() + 4;
        let cut = tokens.len() / 2;
        let mut reference = DynamicColorer::new(25, budget, 4);
        let mut snapped = DynamicColorer::new(25, budget, 4);
        for &t in &tokens[..cut] {
            reference.process_signed(t).unwrap();
            snapped.process_signed(t).unwrap();
        }
        let blob = snapped.encode_state().unwrap();
        let mut restored = DynamicColorer::new(25, budget, 4);
        restored.decode_state(&blob).unwrap();
        assert_eq!(restored.encode_state().unwrap(), blob, "canonical re-encoding");
        for &t in &tokens[cut..] {
            reference.process_signed(t).unwrap();
            restored.process_signed(t).unwrap();
        }
        assert_eq!(restored.query(), reference.query());
        assert_eq!(restored.peak_space_bits(), reference.peak_space_bits());
    }

    #[test]
    fn decode_state_rejects_foreign_blobs() {
        let mut c = DynamicColorer::new(10, 2, 1);
        assert!(c.decode_state("algo=store-all;edges=").is_err());
        assert!(c
            .decode_state("algo=dynamic-sr;cells=x;space_cur=1;space_peak=1;epoch=0")
            .is_err());
    }
}
