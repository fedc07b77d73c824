//! Algorithm 3: randomness-efficient adversarially robust
//! `O(∆³)`-coloring (Theorem 4).
//!
//! Unlike Algorithm 2, whose random functions need `Õ(n∆)` oracle bits,
//! this algorithm's entire randomness is `∆ · P` hash functions drawn from
//! a **4-independent** family (`P = ⌈10 log n⌉`), i.e. `O(∆ log² n)` bits
//! stored in working memory — the space bound *includes* the random bits.
//!
//! Per epoch `i` (buffer of `n` edges) it keeps `P` candidate sketches
//! `D_{i,j}` of `h_{i,j}`-monochromatic edges, each capped at `7n/∆` edges
//! and **invalidated to ⊥ on overflow**. Lemma 4.8 (a Chebyshev argument
//! powered by 4-independence) shows each candidate overflows with
//! probability `≤ 1/2` on any fixed prefix, so some `D_{curr,j}` survives
//! w.h.p. The query greedily `(∆+1)`-colors `D_{curr,k} ∪ B` and outputs
//! the pair `(χ(y), h_{curr,k}(y)) ∈ [∆+1] × [ℓ²]` — any monochromatic
//! edge under the pair coloring would have to be `h_{curr,k}`-mono *and*
//! missing from `D_{curr,k} ∪ B`, which cannot happen for a valid `k`.

use crate::robust::sketch::BlockMemo;
use sc_graph::{greedy_color_in_order, greedy_repair_ascending, Coloring, Edge, Graph};
use sc_hash::{PolynomialFamily, PolynomialHash, SplitMix64, VertexSlotTable};
use sc_stream::{
    counter_bits, edge_bits, CacheStats, QueryCache, SpaceMeter, StateReader, StateWriter,
    StreamingColorer,
};

/// Metadata of the cached incremental decode; the heavyweight artifacts
/// (mirror graph, colorings) live in the colorer's [`DecodeArena`] and
/// are valid exactly while the [`QueryCache`] holds this meta. Harness
/// bookkeeping — never charged to the [`SpaceMeter`].
#[derive(Debug, Clone)]
struct DecodeMeta {
    /// The epoch (`curr`) this decode belongs to; a rotation obsoletes it
    /// (different buffer, different candidate row).
    era: usize,
    /// Global index of the surviving candidate slot, or `None` for the
    /// all-`⊥` failure state (both frozen within an epoch: epoch-`curr`
    /// candidate sets only mutate while *earlier* epochs ingest).
    slot: Option<usize>,
    /// Buffer edges already mirrored into the arena.
    b_synced: usize,
}

/// Reusable decode workspace: the pooled buffers behind the cached
/// [`DecodeMeta`]. Replaces the old per-rebuild fresh allocations
/// (`Graph::empty` + two `Coloring::empty`s + thousands of adjacency-list
/// `Vec` growths per rotation) with buffers that live as long as the
/// colorer — 8 interleaved serving sessions stop thrashing the allocator.
///
/// # Reuse / stamping invariants
///
/// * While the colorer's cache holds a [`DecodeMeta`], `mirror`, `chi`
///   and `out` are exactly the decode of `D_{curr,k} ∪ B` (first
///   `b_synced` buffer edges) for that meta. `mirror` receives edges in
///   the order [`RandEfficientColorer::decode_into`] inserts them, so
///   adjacency order — and hence every first-fit color — matches the
///   from-scratch [`RandEfficientColorer::query`] bit-for-bit. A scratch
///   query decodes into an arena of its own and never touches this one.
/// * When the cache is empty the arena's contents are stale; the next
///   rebuild clears them in `O(|touched|)` (not `O(n)`, and with zero
///   frees) via [`Graph::clear_incident`] / [`Coloring::reset`].
///   `touched` always covers every endpoint inserted since the last
///   clear — the `clear_incident` contract — maintained by
///   [`DecodeArena::add_edge`] through the `is_touched` flags.
/// * Buffers only grow; in the steady state a rebuild or patch allocates
///   nothing. Like the [`QueryCache`] itself this is harness
///   bookkeeping, never charged to the [`SpaceMeter`].
#[derive(Debug, Clone)]
struct DecodeArena {
    /// Pooled mirror of `Graph::from_edges(n, D_{curr,k} ∪ B)`.
    mirror: Graph,
    /// Endpoints inserted since the last clear (clears the mirror in
    /// `O(|touched|)`).
    touched: Vec<u32>,
    /// Membership flags for `touched`.
    is_touched: Vec<bool>,
    /// First-fit-ascending coloring `χ` of `mirror`.
    chi: Coloring,
    /// Pair-encoded output `(χ(y), h(y))`.
    out: Coloring,
    /// The ascending vertex order `0..n`, built once for greedy passes.
    order: Vec<u32>,
    /// Second components `h_{curr,k}(y)` for the decode's surviving slot,
    /// refilled on every rebuild. The slot is frozen within an epoch, so
    /// patches read this dense column (a few KB, cache-resident) instead
    /// of gathering one strided `u16` per changed vertex out of the
    /// multi-megabyte value matrix; rebuilds fill it with one
    /// [`PolynomialHash::eval_batch`] sweep (sequential arithmetic, no
    /// memory stalls) rather than `n` gathers.
    second: Vec<u64>,
}

impl DecodeArena {
    fn new(n: usize) -> Self {
        Self {
            mirror: Graph::empty(n),
            touched: Vec::new(),
            is_touched: vec![false; n],
            chi: Coloring::empty(n),
            out: Coloring::empty(n),
            order: (0..n as u32).collect(),
            second: vec![0; n],
        }
    }

    /// Empties the mirror in `O(|touched|)`, keeping all allocations.
    fn clear_mirror(&mut self) {
        self.mirror.clear_incident(&self.touched);
        for &v in &self.touched {
            self.is_touched[v as usize] = false;
        }
        self.touched.clear();
    }

    /// [`Graph::add_edge`] plus touched-endpoint tracking.
    fn add_edge(&mut self, e: Edge) -> bool {
        for w in [e.u(), e.v()] {
            if !self.is_touched[w as usize] {
                self.is_touched[w as usize] = true;
                self.touched.push(w);
            }
        }
        self.mirror.add_edge(e)
    }
}

/// The randomness-efficient robust colorer of Theorem 4.
#[derive(Debug, Clone)]
pub struct RandEfficientColorer {
    n: usize,
    delta: usize,
    /// `ℓ = 2^⌊log ∆⌋`; hash range is `ℓ²`.
    ell: u64,
    /// Candidates per epoch, `P = ⌈10 log n⌉`.
    p_copies: usize,
    /// Cap `⌈7n/∆⌉` on each `D_{i,j}`.
    cap: usize,
    /// `h_{i,j}`, row-major `[epoch][copy]`.
    hashes: Vec<PolynomialHash>,
    /// `D_{i,j}`; `None` = ⊥ (invalidated).
    d_sets: Vec<Option<Vec<Edge>>>,
    buffer: Vec<Edge>,
    curr: usize,
    num_epochs: usize,
    meter: SpaceMeter,
    /// Per-chunk hash memo for the generic batched ingestion tier.
    memo: BlockMemo,
    /// Table-driven evaluation tier: `tbl[v][slot] = h_slot(v)` as `u16`,
    /// built once at construction when the configuration fits (range
    /// `ℓ² ≤ 2^16` and the matrix under [`sc_hash::MAX_TABLE_BYTES`]);
    /// `None` falls back to the memoized generic tier. A pure cache of
    /// the stored hash coefficients — never charged to the meter.
    table: Option<VertexSlotTable>,
    /// Ingest scratch: `(edge index, slot)` match pairs, edge-major.
    pairs: Vec<(u32, u32)>,
    /// Pooled decode buffers for the incremental query path.
    arena: DecodeArena,
    /// Queries that found every `D_{curr,j} = ⊥` (the `1/poly(n)` failure
    /// event of Lemma 4.8); such queries fall back to coloring `B` alone
    /// and may be improper.
    failures: u64,
    /// Epoch-keyed decode metadata for the incremental query path.
    cache: QueryCache<DecodeMeta>,
}

impl RandEfficientColorer {
    /// Creates the colorer for an `n`-vertex stream with degree bound `∆`.
    pub fn new(n: usize, delta: usize, seed: u64) -> Self {
        assert!(n >= 1);
        let delta = delta.max(1);
        let log_n = (n.max(2) as f64).log2();
        let p_copies = (10.0 * log_n).ceil() as usize;
        let ell = 1u64 << (delta as u64).ilog2(); // greatest power of 2 ≤ ∆
        let range = ell * ell;
        // A max-degree-∆ graph has at most n∆/2 edges (handshake), and
        // the buffer rotates once per n ingested edges, so the epoch
        // counter never passes ⌈∆/2⌉; one spare epoch absorbs the
        // boundary. Provisioning ∆ epochs (one per buffer, read loosely)
        // would double the randomness charge and the value matrix, and —
        // on the ingest hot path — double the live slot suffix every
        // edge is scanned against.
        let num_epochs = delta.div_ceil(2) + 1;
        let cap = (7 * n).div_ceil(delta).max(1);
        let family = PolynomialFamily::for_domain(n as u64, range, 4);
        let mut rng = SplitMix64::new(seed);
        let mut meter = SpaceMeter::new();
        let hashes: Vec<PolynomialHash> = (0..num_epochs * p_copies)
            .map(|_| {
                meter.charge(family.bits_per_sample()); // randomness IS space here
                family.sample(&mut rng)
            })
            .collect();
        let d_sets = vec![Some(Vec::new()); num_epochs * p_copies];
        meter.charge(128); // curr + buffer counters
        let table = VertexSlotTable::build(&hashes, n);
        Self {
            n,
            delta,
            ell,
            p_copies,
            cap,
            hashes,
            d_sets,
            buffer: Vec::new(),
            curr: 1,
            num_epochs,
            meter,
            memo: BlockMemo::new(n),
            table,
            pairs: Vec::new(),
            arena: DecodeArena::new(n),
            failures: 0,
            cache: QueryCache::new(),
        }
    }

    #[inline]
    fn idx(&self, epoch_1based: usize, j: usize) -> usize {
        (epoch_1based - 1) * self.p_copies + j
    }

    /// Whether the table-driven evaluation tier is active (see the
    /// `table` field; small-range configurations always tabulate).
    pub fn has_table_tier(&self) -> bool {
        self.table.is_some()
    }

    /// Drops the table-driven evaluation tier, forcing the generic
    /// memoized tier from here on. The tiers are bit-identical by
    /// construction; this exists so tests and benchmarks can compare
    /// them on one configuration.
    pub fn force_generic_tier(&mut self) {
        self.table = None;
    }

    /// Number of all-⊥ query failures so far.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// `P`, the candidates per epoch.
    pub fn copies(&self) -> usize {
        self.p_copies
    }

    /// The cap `⌈7n/∆⌉` after which a candidate set is invalidated.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Current epoch number (1-based).
    pub fn current_epoch(&self) -> usize {
        self.curr
    }

    /// Number of epochs provisioned, `⌈∆/2⌉ + 1` (see [`Self::new`]).
    pub fn num_epochs(&self) -> usize {
        self.num_epochs
    }

    /// Sizes of the candidate sets `D_{epoch,j}` (`None` = ⊥) — the
    /// concentration Lemma 4.8 argues about. `epoch` is 1-based.
    pub fn candidate_sizes(&self, epoch: usize) -> Vec<Option<usize>> {
        assert!((1..=self.num_epochs).contains(&epoch));
        (0..self.p_copies).map(|j| self.d_sets[self.idx(epoch, j)].as_ref().map(Vec::len)).collect()
    }

    /// Total edges stored across buffers and candidate sets.
    pub fn stored_edges(&self) -> usize {
        self.buffer.len()
            + self.d_sets.iter().map(|d| d.as_ref().map_or(0, Vec::len)).sum::<usize>()
    }

    /// Lines 6–7: clears the full buffer and advances the epoch.
    fn rotate_buffer(&mut self) {
        self.meter.release(self.buffer.len() as u64 * edge_bits(self.n));
        self.buffer.clear();
        self.curr += 1;
        assert!(
            self.curr <= self.num_epochs,
            "epoch overflow: stream exceeded the n·∆/2 edge budget"
        );
        // The decode cache mirrors D_{curr,k} ∪ B; both just changed.
        self.cache.invalidate();
    }

    /// The first surviving candidate of the current epoch (line 15), as a
    /// global slot index.
    fn surviving_slot(&self) -> Option<usize> {
        (0..self.p_copies).map(|j| self.idx(self.curr, j)).find(|&s| self.d_sets[s].is_some())
    }

    /// The from-scratch decode (lines 15–17): greedily colors
    /// `D_{curr,k} ∪ B` for the first surviving candidate `k` — or `B`
    /// alone when every candidate is `⊥`, the failure event — into
    /// `arena` and pair-encodes the answer into `arena.out`.
    /// Allocation-free on a warm arena: it is cleared in `O(|touched|)`
    /// and refilled in place.
    fn decode_into(&self, arena: &mut DecodeArena) -> DecodeMeta {
        let slot = self.surviving_slot();
        arena.clear_mirror();
        if let Some(s) = slot {
            for &e in self.d_sets[s].as_ref().expect("surviving slot is Some") {
                arena.add_edge(e);
            }
        }
        for &e in &self.buffer {
            arena.add_edge(e);
        }
        arena.chi.reset();
        greedy_color_in_order(&arena.mirror, &mut arena.chi, &arena.order, 0);
        // Line 17: the second components h_{curr,k}(y), one batched sweep
        // (bit-identical to scalar `eval` and to the value matrix).
        match slot {
            Some(s) => self.hashes[s].eval_batch(&arena.order, &mut arena.second),
            None => arena.second.fill(0),
        }
        let range = self.ell * self.ell;
        for y in 0..self.n as u32 {
            let chi_y = arena.chi.get(y).expect("greedy colored everything");
            arena.out.set(y, chi_y * range + arena.second[y as usize]);
        }
        DecodeMeta { era: self.curr, slot, b_synced: self.buffer.len() }
    }

    /// [`Self::decode_into`] the pooled arena — the cache-miss path.
    fn rebuild_decode(&mut self) -> DecodeMeta {
        let mut arena = std::mem::replace(&mut self.arena, DecodeArena::new(0));
        let meta = self.decode_into(&mut arena);
        self.arena = arena;
        meta
    }

    /// Brings the pooled arena from `meta`'s buffer prefix to the whole
    /// buffer. Within an epoch only buffer edges join `D_{curr,k} ∪ B`:
    /// they are appended to the mirror and χ is repaired around them.
    fn patch_decode(&mut self, mut meta: DecodeMeta) -> DecodeMeta {
        debug_assert_eq!(meta.era, self.curr, "rotation must invalidate the decode cache");
        // Seed the repair only where an inserted edge actually conflicts.
        // For a new edge {u, v} with u < v, first-fit's choice at v can
        // change only if χ(u) = χ(v): a smaller χ(u) was already
        // forbidden at v (else first-fit would have picked it), and a
        // larger one never lowers the smallest non-forbidden color. If
        // the cascade later recolors u, it re-enqueues v itself.
        let arena = &mut self.arena;
        let mut seeds = Vec::new();
        for &e in &self.buffer[meta.b_synced..] {
            if arena.add_edge(e) && arena.chi.get(e.u()) == arena.chi.get(e.v()) {
                seeds.push(e.u().max(e.v()));
            }
        }
        meta.b_synced = self.buffer.len();
        let changed = greedy_repair_ascending(&arena.mirror, &mut arena.chi, seeds);
        self.cache.note_patched(changed.len() as u64);
        let range = self.ell * self.ell;
        for v in changed {
            let chi_v = arena.chi.get(v).expect("repair keeps χ total");
            // `second` holds this epoch's slot values (the slot is frozen
            // between rebuilds), so patching the pair encoding is two
            // cache-resident reads per vertex.
            arena.out.set(v, chi_v * range + arena.second[v as usize]);
        }
        meta
    }

    /// Batched ingestion of a run of edges within one epoch.
    ///
    /// Candidate membership (`h_{i,j}`-monochromaticity) is a pure
    /// function of the endpoints, so phase 1 computes the edge-major
    /// `(edge, slot)` match pairs up front. In the table tier that is one
    /// [`VertexSlotTable::equal_slots`] row scan per edge — packed `u16`
    /// compares over exactly the live slot suffix `[curr·P, num_epochs·P)`, which
    /// shrinks as epochs advance. The generic tier keeps the sketch-major
    /// [`BlockMemo`] sweep (skipping `⊥` slots, one evaluation per
    /// distinct endpoint) and sorts its pairs into the same edge-major
    /// order. Phase 2 replays insertions edge-major (lines 8–14) so the
    /// cap/invalidate state machine and the space meter evolve exactly as
    /// under one-edge-at-a-time ingestion: unlike Algorithm 2's, this
    /// meter *releases* mid-run (overflow wipes), so charge order matters
    /// for the reported peak. A one-edge run is the adaptive game's
    /// cadence; it takes this same path, a single row scan.
    fn ingest_run(&mut self, run: &[Edge]) {
        let eb = edge_bits(self.n);
        for &e in run {
            assert!((e.v() as usize) < self.n, "edge {e} out of range");
        }

        // Phase 1: (edge, slot) match pairs over live future slots.
        self.pairs.clear();
        let base = self.curr * self.p_copies; // first slot of epoch curr+1
        let total = self.num_epochs * self.p_copies;
        if base < total {
            match &self.table {
                Some(t) => {
                    let pairs = &mut self.pairs;
                    let d_sets = &self.d_sets;
                    for (k, &e) in run.iter().enumerate() {
                        // Overlap the next edge's row-stream startup
                        // latency with the current scan (pure hint).
                        if let Some(ne) = run.get(k + 1) {
                            t.prefetch_rows(ne.u(), ne.v(), base);
                        }
                        t.equal_slots(e.u(), e.v(), base, |slot| {
                            // ⊥ never revives: matches on slots dead
                            // before the run are dropped here, mid-run
                            // deaths by phase 2's state machine.
                            if d_sets[slot].is_some() {
                                pairs.push((k as u32, slot as u32));
                            }
                        });
                    }
                }
                None => {
                    for slot in base..total {
                        if self.d_sets[slot].is_none() {
                            continue; // ⊥ never revives; skip its hashing
                        }
                        self.memo.reset();
                        let h = &self.hashes[slot];
                        for (k, &e) in run.iter().enumerate() {
                            if self.memo.get(e.u(), |x| h.eval(x))
                                == self.memo.get(e.v(), |x| h.eval(x))
                            {
                                self.pairs.push((k as u32, slot as u32));
                            }
                        }
                    }
                    // Sketch-major discovery order → edge-major replay order.
                    self.pairs.sort_unstable();
                }
            }
        }

        // Phase 2: edge-major state replay (lines 6–14 semantics).
        self.buffer.reserve(run.len());
        let mut cursor = 0;
        for (k, &e) in run.iter().enumerate() {
            self.buffer.push(e);
            self.meter.charge(eb);
            while cursor < self.pairs.len() && self.pairs[cursor].0 == k as u32 {
                let slot = self.pairs[cursor].1 as usize;
                cursor += 1;
                match &mut self.d_sets[slot] {
                    Some(d) if d.len() < self.cap => {
                        d.push(e);
                        self.meter.charge(eb);
                    }
                    Some(d) => {
                        // Overflow: wipe to ⊥ (lines 13–14).
                        self.meter.release(d.len() as u64 * eb);
                        self.d_sets[slot] = None;
                    }
                    None => {}
                }
            }
        }
    }
}

impl StreamingColorer for RandEfficientColorer {
    fn process(&mut self, e: Edge) {
        self.process_batch(std::slice::from_ref(&e));
    }

    fn process_batch(&mut self, edges: &[Edge]) {
        self.cache.advance(edges.len() as u64);
        let mut start = 0;
        while start < edges.len() {
            // Lines 6–7: epoch rotation.
            if self.buffer.len() == self.n {
                self.rotate_buffer();
            }
            // Split at epoch boundaries so each run sees a fixed `curr`.
            let room = self.n.saturating_sub(self.buffer.len()).max(1);
            let end = (start + room).min(edges.len());
            self.ingest_run(&edges[start..end]);
            start = end;
        }
    }

    fn query(&mut self) -> Coloring {
        // The pooled arena belongs to the cache, so a scratch query
        // decodes into a fresh one.
        let mut arena = DecodeArena::new(self.n);
        if self.decode_into(&mut arena).slot.is_none() {
            self.failures += 1;
        }
        arena.out
    }

    fn query_incremental(&mut self) -> Coloring {
        let failed = match self.cache.fresh() {
            // Fresh: nothing ingested since the last decode.
            Some(meta) => meta.slot.is_none(),
            None => {
                let meta = match self.cache.take_for_patch() {
                    Some((_, meta)) => self.patch_decode(meta),
                    None => self.rebuild_decode(),
                };
                let failed = meta.slot.is_none();
                self.cache.install(meta);
                failed
            }
        };
        if failed {
            self.failures += 1; // each query observes the failure anew
        }
        self.arena.out.clone()
    }

    fn query_cache_stats(&self) -> Option<CacheStats> {
        Some(self.cache.stats())
    }

    fn peak_space_bits(&self) -> u64 {
        self.meter.peak_bits() + self.n as u64 * counter_bits(self.delta as u64)
        // deg-free: no counters needed, but charge χ scratch
    }

    fn encode_state(&self) -> Result<String, String> {
        let mut w = StateWriter::new(self.name());
        w.field("curr", self.curr);
        w.edges("buffer", &self.buffer);
        // `-` marks an invalidated (⊥) candidate; `⊥` never revives, so
        // the marker is all a restore needs.
        let dsets = self
            .d_sets
            .iter()
            .map(|d| match d {
                Some(edges) => sc_stream::encode_edges(edges),
                None => "-".to_string(),
            })
            .collect::<Vec<_>>()
            .join("|");
        w.field("dsets", dsets);
        w.field("space_cur", self.meter.current_bits());
        w.field("space_peak", self.meter.peak_bits());
        w.field("failures", self.failures);
        w.field("epoch", self.cache.epoch());
        Ok(w.finish())
    }

    fn decode_state(&mut self, state: &str) -> Result<(), String> {
        let mut r = StateReader::new(state, self.name())?;
        let curr = r.usize_field("curr")?;
        if !(1..=self.num_epochs).contains(&curr) {
            return Err(format!("state: curr={curr} outside 1..={}", self.num_epochs));
        }
        let buffer = r.edges_field("buffer", self.n)?;
        if buffer.len() > self.n {
            return Err(format!(
                "state: buffer holds {} edges over capacity {}",
                buffer.len(),
                self.n
            ));
        }
        let dsets_text = r.expect("dsets")?;
        let lists: Vec<&str> = dsets_text.split('|').collect();
        if lists.len() != self.d_sets.len() {
            return Err(format!(
                "state: dsets: {} candidate lists for {} slots",
                lists.len(),
                self.d_sets.len()
            ));
        }
        let mut d_sets: Vec<Option<Vec<Edge>>> = Vec::with_capacity(lists.len());
        for (slot, list) in lists.into_iter().enumerate() {
            if list == "-" {
                d_sets.push(None);
                continue;
            }
            let edges = sc_stream::decode_edges(list, Some(self.n))
                .map_err(|e| format!("state: dsets: {e}"))?;
            if edges.len() > self.cap {
                return Err(format!(
                    "state: dsets: slot {slot} holds {} edges over cap {}",
                    edges.len(),
                    self.cap
                ));
            }
            let h = &self.hashes[slot];
            for &e in &edges {
                if h.eval(e.u() as u64) != h.eval(e.v() as u64) {
                    return Err(format!(
                        "state: dsets: edge {e} is not monochromatic under slot {slot}"
                    ));
                }
            }
            d_sets.push(Some(edges));
        }
        let space_cur = r.u64_field("space_cur")?;
        let space_peak = r.u64_field("space_peak")?;
        let failures = r.u64_field("failures")?;
        let epoch = r.u64_field("epoch")?;
        r.done()?;
        self.curr = curr;
        self.buffer = buffer;
        self.d_sets = d_sets;
        self.meter =
            SpaceMeter::restored(space_cur, space_peak).map_err(|e| format!("state: {e}"))?;
        self.failures = failures;
        self.cache.restore_at_epoch(epoch);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "robust-alg3"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar_reference::assert_matches_scalar;
    use proptest::prelude::*;
    use sc_graph::generators;
    use sc_stream::run_oblivious;

    /// The unbatched reference: lines 6–14 for one edge, evaluating every
    /// future-epoch candidate hash at both endpoints in turn.
    fn scalar_ingest(c: &mut RandEfficientColorer, e: Edge) {
        // Lines 6–7: epoch rotation.
        if c.buffer.len() == c.n {
            c.rotate_buffer();
        }
        c.cache.advance(1);
        assert!((e.v() as usize) < c.n, "edge {e} out of range");
        let eb = edge_bits(c.n);

        c.buffer.push(e);
        c.meter.charge(eb);

        // Lines 9–14: feed the candidate sketches of future epochs.
        let (u, v) = e.endpoints();
        for i in (c.curr + 1)..=c.num_epochs {
            for j in 0..c.p_copies {
                let h = &c.hashes[c.idx(i, j)];
                if h.eval(u as u64) != h.eval(v as u64) {
                    continue;
                }
                let slot = c.idx(i, j);
                match &mut c.d_sets[slot] {
                    Some(d) if d.len() < c.cap => {
                        d.push(e);
                        c.meter.charge(eb);
                    }
                    Some(d) => {
                        // Overflow: wipe to ⊥ (lines 13–14).
                        c.meter.release(d.len() as u64 * eb);
                        c.d_sets[slot] = None;
                    }
                    None => {}
                }
            }
        }
    }

    /// The direct transcription of the query, lines 15–17: take the
    /// first surviving candidate `k`, greedily `(∆+1)`-color
    /// `D_{curr,k} ∪ B`, and output `χ(y)·ℓ² + h_{curr,k}(y)`. With every
    /// candidate `⊥` it colors the buffer alone and the second component
    /// is 0.
    fn direct_query(c: &RandEfficientColorer) -> Coloring {
        // Line 15: first surviving candidate.
        let k = (0..c.p_copies).find(|&j| c.d_sets[c.idx(c.curr, j)].is_some());
        let (edges, h): (Vec<Edge>, Option<&PolynomialHash>) = match k {
            Some(j) => {
                let d = c.d_sets[c.idx(c.curr, j)].as_ref().unwrap();
                (
                    d.iter().chain(c.buffer.iter()).copied().collect(),
                    Some(&c.hashes[c.idx(c.curr, j)]),
                )
            }
            None => (c.buffer.clone(), None),
        };

        // Line 16: greedy (∆+1)-coloring χ of the stored subgraph.
        let g = Graph::from_edges(c.n, edges);
        let mut chi = Coloring::empty(c.n);
        let order: Vec<u32> = (0..c.n as u32).collect();
        greedy_color_in_order(&g, &mut chi, &order, 0);

        // Line 17: output pair (χ(y), h(y)) encoded as χ(y)·ℓ² + h(y).
        let range = c.ell * c.ell;
        let mut out = Coloring::empty(c.n);
        for y in 0..c.n as u32 {
            let chi_y = chi.get(y).expect("greedy colored everything");
            out.set(y, chi_y * range + h.map_or(0, |h| h.eval(y as u64)));
        }
        out
    }

    type Observed = (Coloring, u64, Vec<Vec<Option<usize>>>, usize, u64, usize);

    fn observe(c: &mut RandEfficientColorer) -> Observed {
        let sizes = (1..=c.num_epochs()).map(|i| c.candidate_sizes(i)).collect();
        (c.query(), c.peak_space_bits(), sizes, c.stored_edges(), c.failures(), c.current_epoch())
    }

    /// A stream that overflows one epoch-2 candidate: its first `n`
    /// edges (all of epoch 1) lead with every pair that the epoch-2
    /// candidate hash with the most such pairs maps to one value, then a
    /// random graph's edges follow. Random streams never reach the
    /// `⌈7n/∆⌉` cap at test sizes; this one crosses it within epoch 1.
    fn flooding_stream(c: &RandEfficientColorer, seed: u64) -> Vec<Edge> {
        let n = c.n as u32;
        let mono = |slot: usize| -> Vec<Edge> {
            let h = &c.hashes[slot];
            (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| Edge::new(u, v)))
                .filter(|e| h.eval(e.u() as u64) == h.eval(e.v() as u64))
                .collect()
        };
        let flood = (0..c.p_copies).map(|j| mono(c.idx(2, j))).max_by_key(Vec::len).unwrap();
        let mut edges: Vec<Edge> = flood.into_iter().take(c.n).collect();
        let g = generators::gnp_with_max_degree(c.n, c.delta, 0.5, seed);
        let rest: Vec<Edge> = generators::shuffled_edges(&g, seed)
            .into_iter()
            .filter(|e| !edges.contains(e))
            .take(c.n)
            .collect();
        edges.extend(rest);
        edges
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn ingest_matches_the_scalar_reference(
            (n, delta, seed, chunk) in (20usize..60, 3usize..9, any::<u64>(), 1usize..20),
        ) {
            // m ≈ n∆/2 > n edges, so every case rotates the buffer.
            let g = generators::gnp_with_max_degree(n, delta, 0.5, seed);
            let edges = generators::shuffled_edges(&g, seed ^ 1);
            let colorer = RandEfficientColorer::new(n, delta, seed ^ 3);
            assert_matches_scalar(colorer, &edges, chunk, scalar_ingest, observe)?;
        }

        #[test]
        fn overflowing_ingest_matches_the_scalar_reference(
            (seed, chunk) in (any::<u64>(), 1usize..20),
        ) {
            let colorer = RandEfficientColorer::new(128, 8, seed);
            let edges = flooding_stream(&colorer, seed ^ 1);
            assert_matches_scalar(colorer.clone(), &edges, chunk, scalar_ingest, observe)?;
            let mut fed = colorer;
            fed.process_batch(&edges);
            prop_assert!(fed.current_epoch() > 1, "the buffer must rotate");
            prop_assert!(fed.candidate_sizes(2).contains(&None), "a candidate must overflow");
        }

        #[test]
        fn query_matches_the_direct_transcription(
            (n, delta, seed, chunk) in (20usize..60, 3usize..9, any::<u64>(), 1usize..20),
        ) {
            // m ≈ n∆/2 > n edges, so the buffer rotates mid-stream.
            let g = generators::gnp_with_max_degree(n, delta, 0.5, seed);
            let edges = generators::shuffled_edges(&g, seed ^ 1);
            let tabled = RandEfficientColorer::new(n, delta, seed ^ 3);
            prop_assert!(tabled.has_table_tier(), "this configuration should tabulate");
            let mut generic = tabled.clone();
            generic.force_generic_tier();
            for mut colorer in [tabled, generic] {
                for (k, part) in edges.chunks(chunk).enumerate() {
                    colorer.process_batch(part);
                    if k % 2 == 1 {
                        // A warm cache must not leak into the scratch answer.
                        colorer.query_incremental();
                    }
                    prop_assert_eq!(colorer.query(), direct_query(&colorer), "after chunk {}", k);
                }
            }
        }
    }

    #[test]
    fn proper_coloring_on_random_streams() {
        for seed in 0..3u64 {
            let g = generators::gnp_with_max_degree(50, 8, 0.5, seed);
            let mut colorer = RandEfficientColorer::new(50, 8, seed + 77);
            let c = run_oblivious(&mut colorer, generators::shuffled_edges(&g, seed));
            assert!(c.is_proper_total(&g), "seed {seed}");
            assert_eq!(colorer.failures(), 0);
        }
    }

    #[test]
    fn palette_within_delta_cubed() {
        let g = generators::gnp_with_max_degree(120, 16, 0.5, 2);
        let mut colorer = RandEfficientColorer::new(120, 16, 5);
        let c = run_oblivious(&mut colorer, generators::shuffled_edges(&g, 2));
        assert!(c.is_proper_total(&g));
        // Palette is [∆+1] × [ℓ²] with ℓ ≤ ∆.
        let bound = (16u64 + 1) * 16 * 16;
        assert!(c.palette_span() <= bound, "span {} > (∆+1)∆²", c.palette_span());
    }

    #[test]
    fn pair_encoding_separates_hash_blocks() {
        // Any two vertices with different h values must differ mod ℓ².
        let g = generators::complete(12);
        let mut colorer = RandEfficientColorer::new(12, 11, 3);
        let c = run_oblivious(&mut colorer, g.edges());
        assert!(c.is_proper_total(&g));
        let range = colorer.ell * colorer.ell;
        assert!(range >= 64); // ℓ = 8 for ∆ = 11
        for v in 0..12u32 {
            assert!(c.get(v).unwrap() < (11 + 1) * range + range);
        }
    }

    #[test]
    fn mid_stream_queries_proper() {
        let g = generators::gnp_with_max_degree(40, 6, 0.5, 11);
        let edges = generators::shuffled_edges(&g, 11);
        let mut colorer = RandEfficientColorer::new(40, 6, 13);
        let mut prefix = Graph::empty(40);
        for (i, &e) in edges.iter().enumerate() {
            colorer.process(e);
            prefix.add_edge(e);
            if i % 9 == 0 {
                let c = colorer.query();
                assert!(c.is_proper_total(&prefix), "after {} edges", i + 1);
            }
        }
    }

    #[test]
    fn candidate_caps_are_enforced() {
        let g = generators::gnp_with_max_degree(60, 10, 0.5, 4);
        let mut colorer = RandEfficientColorer::new(60, 10, 21);
        run_oblivious(&mut colorer, generators::shuffled_edges(&g, 4));
        for d in colorer.d_sets.iter().flatten() {
            assert!(d.len() <= colorer.cap);
        }
    }

    #[test]
    fn space_includes_randomness() {
        let colorer = RandEfficientColorer::new(100, 8, 1);
        // ∆·P hash functions at 4 coefficients each must be charged.
        let min_random_bits = (colorer.num_epochs * colorer.p_copies) as u64 * 4;
        assert!(colorer.peak_space_bits() > min_random_bits);
    }

    #[test]
    fn determinism_in_seed() {
        let g = generators::gnp_with_max_degree(30, 5, 0.5, 8);
        let edges = generators::shuffled_edges(&g, 8);
        let mut a = RandEfficientColorer::new(30, 5, 55);
        let mut b = RandEfficientColorer::new(30, 5, 55);
        assert_eq!(
            run_oblivious(&mut a, edges.iter().copied()),
            run_oblivious(&mut b, edges.iter().copied())
        );
    }

    #[test]
    fn generic_tier_matches_table_tier() {
        // Force the BlockMemo fallback on one of two identically seeded
        // colorers: ingestion, incremental queries, and scratch queries
        // must stay bit-identical across evaluation tiers.
        let g = generators::gnp_with_max_degree(60, 8, 0.5, 3);
        let edges = generators::shuffled_edges(&g, 3);
        let mut tabled = RandEfficientColorer::new(60, 8, 99);
        let mut generic = RandEfficientColorer::new(60, 8, 99);
        assert!(tabled.table.is_some(), "this configuration should tabulate");
        generic.table = None;
        for chunk in edges.chunks(7) {
            tabled.process_batch(chunk);
            generic.process_batch(chunk);
            assert_eq!(tabled.query_incremental(), generic.query_incremental());
        }
        assert_eq!(tabled.query(), generic.query());
        assert_eq!(tabled.peak_space_bits(), generic.peak_space_bits());
        assert_eq!(tabled.candidate_sizes(tabled.curr), generic.candidate_sizes(generic.curr));
    }

    #[test]
    fn arena_decode_matches_scratch_queries() {
        // The pooled-arena incremental path against the from-scratch
        // reference, across epoch rotations and back-to-back queries.
        let g = generators::gnp_with_max_degree(45, 7, 0.6, 14);
        let edges = generators::shuffled_edges(&g, 14);
        let mut colorer = RandEfficientColorer::new(45, 7, 31);
        for (i, &e) in edges.iter().enumerate() {
            colorer.process(e);
            if i % 5 == 0 {
                assert_eq!(colorer.query_incremental(), colorer.query(), "prefix {}", i + 1);
                // Immediately again: a pure cache hit must not drift.
                assert_eq!(colorer.query_incremental(), colorer.query());
            }
        }
        let stats = colorer.query_cache_stats().unwrap();
        assert!(stats.hits > 0 && stats.patches > 0);
    }

    #[test]
    fn query_on_empty_stream() {
        let mut colorer = RandEfficientColorer::new(8, 3, 9);
        let c = colorer.query();
        assert!(c.is_total());
    }

    #[test]
    fn delta_one_graphs() {
        // A perfect matching: ∆ = 1 exercises ℓ = 1.
        let mut g = Graph::empty(10);
        for i in 0..5u32 {
            g.add_edge(Edge::new(2 * i, 2 * i + 1));
        }
        let mut colorer = RandEfficientColorer::new(10, 1, 2);
        let c = run_oblivious(&mut colorer, g.edges());
        assert!(c.is_proper_total(&g));
    }
}
