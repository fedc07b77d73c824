//! Algorithm 2: adversarially robust `O(∆^{5/2})`-coloring in
//! semi-streaming space (Theorem 3), generalized to the `β` tradeoff of
//! Corollary 4.7.
//!
//! Structure (paper §4.1–4.2):
//! * a **buffer** `B` of the current epoch's edges (capacity `n·∆^β`);
//! * `∆^{1−β}` **epoch sketches** `h_i : V → [∆^{2−2β}]`; the `h_i`-sketch
//!   receives every edge inserted *before* epoch `i`, so at query time
//!   `A_curr ∪ B` contains all intra-block edges among **slow** vertices;
//! * `∆^{(1−β)/2}` **level sketches** `g_ℓ : V → [∆^{3(1−β)/2}]`; an edge
//!   goes to every `g_ℓ` with `ℓ` strictly above both endpoints' current
//!   levels, so `C_ℓ ∪ B` contains all intra-block edges among **fast**
//!   level-`ℓ` vertices (the pigeonhole argument of Lemma 4.6);
//! * at query: slow vertices are (degree+1)-colored per `h_curr`-block;
//!   fast vertices are (degeneracy+1)-colored per `(ℓ, g_ℓ)`-block
//!   (Lemma 4.5 bounds that degeneracy by `O(∆^{(1+β)/2})`); every block
//!   uses a fresh palette.
//!
//! Robustness comes from the sketches never *consulting* a function that
//! the algorithm's past outputs could have revealed: `h_i` only sees edges
//! from epochs `< i`, and `g_ℓ` only sees edges inserted while both
//! endpoints were below level `ℓ`.

use crate::robust::params::RobustParams;
use crate::robust::sketch::{
    decode_sketch_bank, encode_sketch_bank, group_by_block_with, BlockMemo, EvalScratch, MonoSketch,
};
use sc_graph::{degeneracy_coloring, greedy_color_in_order, Color, Coloring, Edge, Graph};
use sc_hash::{OracleFn, SplitMix64};
use sc_stream::{
    counter_bits, edge_bits, CacheStats, QueryCache, SpaceMeter, StateReader, StateWriter,
    StreamingColorer,
};

/// One hash block of one query phase as a reusable artifact. Every edge a
/// phase colors over is *intra-block* (lines 21 and 25 keep only edges
/// with `block_of(u) == block_of(v)`), so given its member list and the
/// era-frozen edge pools a block's sub-coloring is independent of every
/// other block: it can be recomputed alone, relative to palette base 0,
/// and re-chained into the absolute answer by offset translation.
#[derive(Debug, Clone)]
struct BlockArtifact {
    /// The hash value naming this block (`h_curr` or `g_ℓ` of its members).
    id: u64,
    /// The block's members, ascending — the exact group
    /// [`RobustColorer::rebuild_phase`] forms. Never empty.
    members: Vec<u32>,
    /// `color − block_base`, parallel to `members`.
    rel: Vec<Color>,
    /// Colors this block used; the palette advances by `span.max(1)`.
    span: Color,
}

/// One query *phase* of Algorithm 2 — the slow pass (lines 20–22) or one
/// fast level (lines 23–26) — as a list of per-block artifacts plus the
/// ledgers that keep them honest. Phases chain deterministically (slow,
/// then levels ascending; blocks ascending by id within a phase), so a
/// query recomputes only the *blocks* whose inputs changed and re-chains
/// the rest by offset arithmetic.
#[derive(Debug, Clone, Default)]
struct PhaseState {
    /// Per-block artifacts, ascending by `id`, all nonempty.
    blocks: Vec<BlockArtifact>,
    /// Membership moves recorded by sync, in order: `(block, v, joined)`.
    /// Applied (then drained) by the next repair.
    pending: Vec<(u64, u32, bool)>,
    /// Block ids whose members or induced edges may have changed since
    /// the artifacts were computed (unsorted, may repeat). Empty = clean.
    dirty: Vec<u64>,
}

/// Incremental query state for the current epoch of Algorithm 2: the
/// patched buffer-degree census, the fast/slow partition (monotone within
/// an epoch — `deg_B` only grows), per-fast-vertex levels, and one
/// [`PhaseState`] of block artifacts per phase. A buffer rotation
/// obsoletes everything (new `h_curr`, empty buffer), which
/// [`RobustColorer::rotate_buffer`] signals by invalidating the cache.
/// Harness bookkeeping — never charged to the meter.
#[derive(Debug, Clone)]
struct Alg2QueryState {
    /// The epoch (`curr`) this state describes.
    era: usize,
    /// Incrementally patched census `deg_B(v)` (line 18's split key).
    deg_b: Vec<u64>,
    /// `deg_B(v) > fast_threshold` — the fast/slow partition.
    is_fast: Vec<bool>,
    /// For fast `v`: `level_of(d(v))` as of the last sync.
    fast_level: Vec<u32>,
    /// Buffer edges already censused.
    b_synced: usize,
    /// Per-`g_ℓ`-sketch lengths already reflected in the dirty ledgers.
    g_synced: Vec<usize>,
    /// `phases[0]` = slow phase; `phases[ℓ]` = fast level `ℓ`.
    phases: Vec<PhaseState>,
    /// The assembled absolute coloring (the query answer).
    out: Coloring,
}

/// The robust streaming colorer of Theorem 3 / Corollary 4.7.
#[derive(Debug, Clone)]
pub struct RobustColorer {
    params: RobustParams,
    /// Per-vertex degree counters `d(v)`.
    degrees: Vec<u64>,
    /// `h_i` sketches, index `i−1`.
    h_sketches: Vec<MonoSketch>,
    /// `g_ℓ` sketches, index `ℓ−1`.
    g_sketches: Vec<MonoSketch>,
    /// Current epoch's buffer `B`.
    buffer: Vec<Edge>,
    /// Current epoch (1-based).
    curr: usize,
    meter: SpaceMeter,
    /// Pooled presplit columns for the batched ingestion path and the
    /// incremental sync scan (one inner mixing round per chunk endpoint,
    /// shared by every sketch).
    scratch: EvalScratch,
    /// Ingest scratch: each run edge's insertion-time level.
    levels: Vec<usize>,
    /// Pooled scratch for the incremental recompute passes.
    arena: PhaseArena,
    /// Epoch-keyed phase cache for the incremental query path.
    cache: QueryCache<Alg2QueryState>,
}

/// Pooled scratch for [`RobustColorer`]'s incremental phase recomputes —
/// the alg2 counterpart of alg3's decode arena. A phase rebuild needs a
/// conflict graph, a scratch coloring, a membership filter, and block
/// ids; allocating those per phase (`Graph::empty(n)` is `n` list
/// headers, plus one heap allocation per nonempty adjacency list) costs
/// more than the recoloring itself at query cadence. The pool keeps
/// every buffer warm across phases *and* queries:
///
/// - `graph` holds edges only transiently; `touched` covers both
///   endpoints of every inserted edge since the last clear, so
///   [`Graph::clear_incident`] resets it in `O(touched)` and re-inserts
///   push into already-grown lists.
/// - `coloring` keeps stale assignments between phases; users must
///   clear exactly their member set before coloring (members and their
///   phase-graph neighbors are the only vertices a greedy pass reads).
/// - `memo` is generation-stamped ([`BlockMemo::reset`] is `O(1)`), so
///   each distinct vertex hashes at most once per phase, not once per
///   filtered edge endpoint.
#[derive(Debug, Clone)]
struct PhaseArena {
    memo: BlockMemo,
    graph: Graph,
    touched: Vec<u32>,
    coloring: Coloring,
}

impl PhaseArena {
    fn new(n: usize) -> Self {
        Self {
            memo: BlockMemo::new(n),
            graph: Graph::empty(n),
            touched: Vec::new(),
            coloring: Coloring::empty(n),
        }
    }
}

impl RobustColorer {
    /// Creates the colorer with Theorem 3 parameters (`β = 0`).
    pub fn new(n: usize, delta: usize, seed: u64) -> Self {
        Self::with_params(RobustParams::theorem3(n, delta), seed)
    }

    /// Creates the colorer with explicit (possibly `β`-traded) parameters.
    pub fn with_params(params: RobustParams, seed: u64) -> Self {
        let h_seed = SplitMix64::new(seed).fork(1).next_u64();
        let g_seed = SplitMix64::new(seed).fork(2).next_u64();
        let h_sketches = (0..params.num_epochs)
            .map(|i| MonoSketch::new(OracleFn::new(h_seed, i as u64, params.h_range)))
            .collect();
        let g_sketches = (0..params.num_levels)
            .map(|l| MonoSketch::new(OracleFn::new(g_seed, l as u64, params.g_range)))
            .collect();
        let mut meter = SpaceMeter::new();
        // Persistent: n degree counters + epoch/buffer counters. Oracle
        // randomness is charged to the oracle, per Theorem 3's model.
        meter.charge(params.n as u64 * counter_bits(params.delta as u64) + 128);
        Self {
            params,
            degrees: vec![0; params.n],
            h_sketches,
            g_sketches,
            buffer: Vec::new(),
            curr: 1,
            meter,
            scratch: EvalScratch::new(),
            levels: Vec::new(),
            arena: PhaseArena::new(params.n),
            cache: QueryCache::new(),
        }
    }

    /// The parameter set in force.
    pub fn params(&self) -> &RobustParams {
        &self.params
    }

    /// Current epoch number (diagnostics).
    pub fn current_epoch(&self) -> usize {
        self.curr
    }

    /// Total edges currently stored across all sketches and the buffer —
    /// the `Õ(n)` quantity of Lemma 4.4.
    pub fn stored_edges(&self) -> usize {
        self.buffer.len()
            + self.h_sketches.iter().map(MonoSketch::len).sum::<usize>()
            + self.g_sketches.iter().map(MonoSketch::len).sum::<usize>()
    }

    /// The union of one level sketch's edges with the buffer — the edge
    /// set `C_ℓ ∪ B` whose fast-block degeneracy Lemma 4.5 bounds by
    /// `O(∆^{(1+β)/2})`. Diagnostic for experiment F8.
    pub fn level_edge_set(&self, level: usize) -> Vec<Edge> {
        assert!((1..=self.params.num_levels).contains(&level));
        self.g_sketches[level - 1].edges().iter().chain(self.buffer.iter()).copied().collect()
    }

    /// Per-vertex totals `Σ_i d_{A_i}(v)` over the epoch sketches — the
    /// quantity Lemma 4.3 bounds by `O(log n)` w.h.p.
    pub fn h_sketch_degree_totals(&self) -> Vec<u64> {
        sketch_degree_totals(self.params.n, &self.h_sketches)
    }

    /// Per-vertex totals `Σ_ℓ d_{C_ℓ}(v)` over the level sketches — the
    /// quantity Lemma 4.2 bounds by `O(log n)` w.h.p.
    pub fn g_sketch_degree_totals(&self) -> Vec<u64> {
        sketch_degree_totals(self.params.n, &self.g_sketches)
    }

    /// The current stream degree `d(v)` of a vertex (diagnostics).
    pub fn degree_of(&self, v: u32) -> u64 {
        self.degrees[v as usize]
    }

    /// The `g_ℓ`-block of a vertex (diagnostics; `level` is 1-based).
    pub fn g_block_of(&self, level: usize, v: u32) -> u64 {
        assert!((1..=self.params.num_levels).contains(&level));
        self.g_sketches[level - 1].block_of(v)
    }

    /// Buffer degrees `deg_B(v)` — the fast/slow split key of line 18.
    pub fn buffer_degrees(&self) -> Vec<u64> {
        let mut deg_b = vec![0u64; self.params.n];
        for e in &self.buffer {
            deg_b[e.u() as usize] += 1;
            deg_b[e.v() as usize] += 1;
        }
        deg_b
    }

    /// Lines 10–12: clears the full buffer and advances the epoch.
    fn rotate_buffer(&mut self) {
        self.meter.release(self.buffer.len() as u64 * edge_bits(self.params.n));
        self.buffer.clear();
        self.curr += 1;
        assert!(
            self.curr <= self.params.num_epochs,
            "epoch overflow: the stream exceeded the n·∆/2 edge budget implied by ∆ = {}",
            self.params.delta
        );
        // New h_curr, empty buffer: every cached phase is obsolete.
        self.cache.invalidate();
    }

    /// Batched ingestion of a run of edges that all land in the current
    /// epoch (the caller guarantees the buffer has room, except in the
    /// degenerate capacity-0 configuration where runs are single edges).
    ///
    /// Equivalent to ingesting the run one edge at a time (lines 13–17):
    /// every sketch receives the same edges in the same order, and since
    /// all in-run meter events are charges, the meter's peak and current
    /// values come out identical. A one-edge run is the adaptive game's
    /// cadence; it takes this same path. The work is reorganized sketch-major
    /// over one [`EvalScratch`]: the chunk's key-independent presplit
    /// columns are loaded once, and each sketch pays only its per-key
    /// outer rounds (fused evaluate-and-compare, no hash-value columns).
    fn ingest_run(&mut self, run: &[Edge]) {
        let n = self.params.n;
        let eb = edge_bits(n);

        // Per-edge state first: buffer, degree counters, and each edge's
        // insertion-time level (lines 13 and 16 — levels depend on the
        // running degrees, so this stays edge-major).
        let levels = &mut self.levels;
        levels.clear();
        self.buffer.reserve(run.len());
        for &e in run {
            assert!((e.v() as usize) < n, "edge {e} out of range for n = {n}");
            self.buffer.push(e);
            let (u, v) = e.endpoints();
            self.degrees[u as usize] += 1;
            self.degrees[v as usize] += 1;
            levels
                .push(self.params.level_of(self.degrees[u as usize].max(self.degrees[v as usize])));
        }
        let mut stored = run.len() as u64; // buffered edges

        // One presplit load serves every sketch below: the chunk's inner
        // mixing rounds are key-independent, so each sketch pays only its
        // per-key outer rounds.
        self.scratch.load(run);

        // Lines 14–15: h_i sketches for future epochs, sketch-major.
        for i in self.curr..self.params.num_epochs {
            stored += self.h_sketches[i].offer_preloaded(run, &self.scratch) as u64;
        }

        // Lines 16–17: g_ℓ sketches; an edge goes to every level strictly
        // above its insertion-time level. The level filter runs *before*
        // hashing; lanes are visited in chunk order, so sketches receive
        // edges in exactly their insertion order.
        let levels = &self.levels;
        for (l, sketch) in self.g_sketches.iter_mut().enumerate() {
            stored += sketch.offer_preloaded_where(run, &self.scratch, |k| levels[k] <= l) as u64;
        }
        self.meter.charge(stored * eb);
    }

    /// A query state for the current epoch with a full census (lines
    /// 18–19) and an empty state for every phase.
    fn fresh_query_state(&self) -> Alg2QueryState {
        let n = self.params.n;
        let mut s = Alg2QueryState {
            era: self.curr,
            deg_b: vec![0; n],
            is_fast: vec![false; n],
            fast_level: vec![0; n],
            b_synced: self.buffer.len(),
            g_synced: self.g_sketches.iter().map(MonoSketch::len).collect(),
            phases: (0..=self.params.num_levels).map(|_| PhaseState::default()).collect(),
            out: Coloring::empty(n),
        };
        for e in &self.buffer {
            s.deg_b[e.u() as usize] += 1;
            s.deg_b[e.v() as usize] += 1;
        }
        for v in 0..n {
            if s.deg_b[v] > self.params.fast_threshold {
                s.is_fast[v] = true;
                s.fast_level[v] = self.params.level_of(self.degrees[v]) as u32;
            }
        }
        s
    }

    /// The from-scratch answer (lines 18–26): a full census, every phase
    /// rebuilt, then assembled. [`StreamingColorer::query`] returns it and
    /// a cache miss in [`StreamingColorer::query_incremental`] installs it.
    fn rebuild(&mut self) -> Alg2QueryState {
        let mut s = self.fresh_query_state();
        // The arena moves out of `self` for the rebuild borrows; its
        // pooled buffers come back at the end.
        let mut arena = std::mem::replace(&mut self.arena, PhaseArena::new(0));
        {
            let Alg2QueryState { is_fast, fast_level, phases, .. } = &mut s;
            for (p, ph) in phases.iter_mut().enumerate() {
                ph.blocks = self.rebuild_phase(p, is_fast, fast_level, &mut arena);
            }
        }
        self.arena = arena;
        self.assemble(&mut s);
        s
    }

    /// Brings a cached state of this era up to date: syncs the census and
    /// ledgers, repairs every phase with dirty blocks or pending moves,
    /// and re-assembles if anything was recolored.
    fn patch(&mut self, s: &mut Alg2QueryState) {
        self.sync_query_state(s);
        let mut recolored = 0u64;
        let mut recomputed = false;
        let mut arena = std::mem::replace(&mut self.arena, PhaseArena::new(0));
        {
            let Alg2QueryState { is_fast, fast_level, phases, .. } = &mut *s;
            for (p, ph) in phases.iter_mut().enumerate() {
                if !ph.dirty.is_empty() || !ph.pending.is_empty() {
                    recolored += self.repair_phase(p, is_fast, fast_level, ph, &mut arena);
                    recomputed = true;
                }
            }
        }
        self.arena = arena;
        if recomputed {
            // Any recomputed phase can shift every later phase's base.
            self.assemble(s);
        }
        self.cache.note_patched(recolored);
    }

    /// Patches the census with the buffer edges ingested since the last
    /// query and marks dirty exactly the *blocks* they can affect:
    ///
    /// * a new `g_ℓ`-sketch edge joins its block's pool at level `ℓ` (its
    ///   block id is the stored endpoints' shared hash value);
    /// * an `h`-monochromatic new buffer edge joins its `h_curr`-block's
    ///   slow pool, a `g_ℓ`-monochromatic one its block's level-`ℓ` pool
    ///   (conservative — whether it is *induced* depends on memberships);
    /// * a vertex crossing the fast threshold leaves its slow block and
    ///   joins its level's block; a fast vertex whose level grew moves
    ///   between two fast blocks. Both old and new blocks are dirtied and
    ///   the move is recorded so the repair can update member lists.
    ///
    /// These are the only ways a phase's inputs change within an era
    /// (`h_curr` is frozen — ingestion offers `h_i` only for `i > curr`),
    /// and block independence (every phase edge is intra-block) makes
    /// block-granular dirtying sound: an unmarked block has identical
    /// members and an identical induced edge pool, hence an identical
    /// relative sub-coloring. Marking is conservative the other way — a
    /// marked block is simply recomputed from its true inputs.
    ///
    /// The monochromaticity scans run sketch-major through the batched
    /// tier: one presplit load of the gap serves the `h_curr` scan and
    /// every level sketch, each paying only its per-key outer rounds —
    /// and the equal hash value the scan produces *is* the dirty block id.
    fn sync_query_state(&mut self, s: &mut Alg2QueryState) {
        debug_assert_eq!(s.era, self.curr, "rotation must reset the query state");
        for (l, sk) in self.g_sketches.iter().enumerate() {
            let f = sk.oracle();
            let dirty = &mut s.phases[l + 1].dirty;
            dirty.extend(sk.edges()[s.g_synced[l]..].iter().map(|e| f.eval(e.u() as u64)));
            s.g_synced[l] = sk.len();
        }
        let gap = &self.buffer[s.b_synced..];
        if gap.is_empty() {
            return;
        }
        self.scratch.load(gap);
        let scratch = &self.scratch;
        let mark_mono = |f: &OracleFn, ph: &mut PhaseState| {
            for k in 0..gap.len() {
                let bu = f.eval_presplit(scratch.su(k));
                if bu == f.eval_presplit(scratch.sv(k)) {
                    ph.dirty.push(bu);
                }
            }
        };
        mark_mono(self.h_sketches[self.curr - 1].oracle(), &mut s.phases[0]);
        for (l, sk) in self.g_sketches.iter().enumerate() {
            mark_mono(sk.oracle(), &mut s.phases[l + 1]);
        }
        // Endpoint census bookkeeping (degrees, fast/slow and level
        // migrations), edge-major as before. Migrations are rare (the
        // partition is monotone within an era), so their block ids use
        // plain scalar evaluation.
        for &e in gap {
            let (u, v) = e.endpoints();
            for w in [u, v] {
                let wi = w as usize;
                s.deg_b[wi] += 1;
                let lvl = self.params.level_of(self.degrees[wi]);
                if !s.is_fast[wi] {
                    if s.deg_b[wi] > self.params.fast_threshold {
                        s.is_fast[wi] = true;
                        s.fast_level[wi] = lvl as u32;
                        let hb = self.h_sketches[self.curr - 1].oracle().eval(w as u64);
                        Self::move_member(&mut s.phases[0], hb, w, false);
                        let gb = self.g_sketches[lvl - 1].oracle().eval(w as u64);
                        Self::move_member(&mut s.phases[lvl], gb, w, true);
                    }
                } else if s.fast_level[wi] != lvl as u32 {
                    let old = s.fast_level[wi] as usize;
                    let ob = self.g_sketches[old - 1].oracle().eval(w as u64);
                    Self::move_member(&mut s.phases[old], ob, w, false);
                    let gb = self.g_sketches[lvl - 1].oracle().eval(w as u64);
                    Self::move_member(&mut s.phases[lvl], gb, w, true);
                    s.fast_level[wi] = lvl as u32;
                }
            }
        }
        s.b_synced = self.buffer.len();
    }

    /// Records a membership move in a phase's ledgers: dirties the block
    /// and queues the member edit for the next repair.
    fn move_member(ph: &mut PhaseState, block: u64, v: u32, joined: bool) {
        ph.dirty.push(block);
        ph.pending.push((block, v, joined));
    }

    /// The edge pool of phase `p` (its sketch; the buffer is chained on
    /// by the callers): `A_curr` for the slow phase, `C_ℓ` for level `ℓ`.
    fn phase_sketch(&self, p: usize) -> &MonoSketch {
        if p == 0 {
            &self.h_sketches[self.curr - 1]
        } else {
            &self.g_sketches[p - 1]
        }
    }

    /// Colors one block's members relative to base 0: (degree+1)-greedy
    /// for the slow phase, (degeneracy+1) for fast levels. Sound at any
    /// base because every neighbor a pass reads is a same-block member —
    /// the phases are translation-invariant, so the artifacts store
    /// relative colors and [`RobustColorer::assemble`] adds the bases.
    fn color_block(p: usize, graph: &Graph, coloring: &mut Coloring, members: &[u32]) -> Color {
        if p == 0 {
            greedy_color_in_order(graph, coloring, members, 0)
        } else {
            degeneracy_coloring(graph, coloring, members, 0)
        }
    }

    /// Computes every block of phase `p` from the census — the slow pass
    /// (lines 20–22) for `p = 0`, fast level `p` (lines 23–26) otherwise —
    /// in the pooled [`PhaseArena`], as per-block artifacts relative to
    /// palette base 0. The from-scratch [`RobustColorer::rebuild`] runs it
    /// for every phase; the incremental path never does.
    fn rebuild_phase(
        &self,
        p: usize,
        is_fast: &[bool],
        fast_level: &[u32],
        arena: &mut PhaseArena,
    ) -> Vec<BlockArtifact> {
        let n = self.params.n;
        let in_phase = |w: u32| {
            let wi = w as usize;
            if p == 0 {
                !is_fast[wi]
            } else {
                is_fast[wi] && fast_level[wi] as usize == p
            }
        };
        let members: Vec<u32> = (0..n as u32).filter(|&v| in_phase(v)).collect();
        if members.is_empty() {
            return Vec::new();
        }
        let sketch = self.phase_sketch(p);
        let PhaseArena { memo, graph, touched, coloring } = arena;
        graph.clear_incident(touched);
        touched.clear();
        memo.reset();
        let f = sketch.oracle();
        let mut block = |v: u32| memo.get(v, |x| f.eval(x));
        for e in sketch.edges().iter().chain(self.buffer.iter()) {
            let (u, v) = e.endpoints();
            if in_phase(u) && in_phase(v) && block(u) == block(v) {
                graph.add_edge(*e);
                touched.push(u);
                touched.push(v);
            }
        }
        // Stale assignments from the arena's previous user are invisible
        // to this pass once the members are cleared: a coloring pass reads
        // only member colors and member-neighbor colors, and the phase
        // graph's vertices are all members.
        for &m in &members {
            coloring.unset(m);
        }
        let mut blocks = Vec::new();
        for (id, members) in group_by_block_with(&mut block, &members) {
            let span = Self::color_block(p, graph, coloring, &members);
            let rel = members.iter().map(|&m| coloring.get(m).expect("member colored")).collect();
            blocks.push(BlockArtifact { id, members, rel, span });
        }
        blocks
    }

    /// Recomputes only the dirty blocks of phase `p`, reusing every clean
    /// artifact verbatim. Applies the pending membership moves first, then
    /// scans the phase's edge pool once — in the same order as a rebuild,
    /// so adjacency lists (and hence the degeneracy orderings built from
    /// them) come out identical — keeping only dirty-block edges, and
    /// recolors each dirty block relative to base 0. Returns the number
    /// of recolored vertices.
    fn repair_phase(
        &self,
        p: usize,
        is_fast: &[bool],
        fast_level: &[u32],
        ph: &mut PhaseState,
        arena: &mut PhaseArena,
    ) -> u64 {
        let mut dirty = std::mem::take(&mut ph.dirty);
        dirty.sort_unstable();
        dirty.dedup();
        // Membership moves, in recorded order (a vertex can move twice in
        // one gap: slow → level a → level b). Joins insert a placeholder
        // relative color; the block is dirty, so it is recolored below.
        for (b, v, joined) in ph.pending.drain(..) {
            debug_assert!(dirty.binary_search(&b).is_ok(), "moves always dirty their blocks");
            match ph.blocks.binary_search_by_key(&b, |a| a.id) {
                Ok(i) => {
                    let a = &mut ph.blocks[i];
                    if joined {
                        let pos = a.members.binary_search(&v).unwrap_err();
                        a.members.insert(pos, v);
                        a.rel.insert(pos, 0);
                    } else {
                        let pos = a.members.binary_search(&v).expect("leaver was a member");
                        a.members.remove(pos);
                        a.rel.remove(pos);
                    }
                }
                Err(i) => {
                    debug_assert!(joined, "leaver's block must have an artifact");
                    let art = BlockArtifact { id: b, members: vec![v], rel: vec![0], span: 0 };
                    ph.blocks.insert(i, art);
                }
            }
        }
        if dirty.is_empty() {
            return 0;
        }
        let in_phase = |w: u32| {
            let wi = w as usize;
            if p == 0 {
                !is_fast[wi]
            } else {
                is_fast[wi] && fast_level[wi] as usize == p
            }
        };
        let sketch = self.phase_sketch(p);
        let PhaseArena { memo, graph, touched, coloring } = arena;
        graph.clear_incident(touched);
        touched.clear();
        memo.reset();
        let f = sketch.oracle();
        let mut block = |v: u32| memo.get(v, |x| f.eval(x));
        for e in sketch.edges().iter().chain(self.buffer.iter()) {
            let (u, v) = e.endpoints();
            if in_phase(u) && in_phase(v) {
                let bu = block(u);
                if bu == block(v) && dirty.binary_search(&bu).is_ok() {
                    graph.add_edge(*e);
                    touched.push(u);
                    touched.push(v);
                }
            }
        }
        let mut recolored = 0u64;
        for &b in &dirty {
            let Ok(i) = ph.blocks.binary_search_by_key(&b, |a| a.id) else {
                continue; // dirtied but memberless (e.g. a sketch edge between fast vertices)
            };
            let a = &mut ph.blocks[i];
            if a.members.is_empty() {
                continue; // every member left; dropped below
            }
            for &m in &a.members {
                coloring.unset(m);
            }
            a.span = Self::color_block(p, graph, coloring, &a.members);
            for (j, &m) in a.members.iter().enumerate() {
                a.rel[j] = coloring.get(m).expect("member colored");
            }
            recolored += a.members.len() as u64;
        }
        ph.blocks.retain(|a| !a.members.is_empty());
        recolored
    }

    /// Chains all phases' blocks into the absolute answer — phases in
    /// order, blocks ascending by id, the palette base advancing by
    /// `span.max(1)` per block, as lines 22 and 26 hand each block a
    /// fresh palette.
    fn assemble(&self, s: &mut Alg2QueryState) {
        s.out.reset();
        let mut base: Color = 0;
        for ph in &s.phases {
            for a in &ph.blocks {
                for (j, &v) in a.members.iter().enumerate() {
                    s.out.set(v, base + a.rel[j]);
                }
                base += a.span.max(1);
            }
        }
        debug_assert!(s.out.is_total(), "query must color every vertex");
    }
}

fn sketch_degree_totals(n: usize, sketches: &[MonoSketch]) -> Vec<u64> {
    let mut totals = vec![0u64; n];
    for s in sketches {
        for e in s.edges() {
            totals[e.u() as usize] += 1;
            totals[e.v() as usize] += 1;
        }
    }
    totals
}

impl StreamingColorer for RobustColorer {
    fn process(&mut self, e: Edge) {
        self.process_batch(std::slice::from_ref(&e));
    }

    fn process_batch(&mut self, edges: &[Edge]) {
        self.cache.advance(edges.len() as u64);
        let mut start = 0;
        while start < edges.len() {
            // Lines 10–12: rotate the buffer when full.
            if self.buffer.len() == self.params.buffer_capacity {
                self.rotate_buffer();
            }
            // Split the chunk at epoch boundaries so each run sees a
            // fixed `curr` and rotation falls on the same edge for every
            // chunking (the `max(1)` keeps degenerate capacity-0
            // configurations moving one edge per run).
            let room = self.params.buffer_capacity.saturating_sub(self.buffer.len()).max(1);
            let end = (start + room).min(edges.len());
            self.ingest_run(&edges[start..end]);
            start = end;
        }
    }

    fn query(&mut self) -> Coloring {
        self.rebuild().out
    }

    fn query_incremental(&mut self) -> Coloring {
        if let Some(s) = self.cache.fresh() {
            return s.out.clone();
        }
        // Cost-aware fallback. A patch pays O(gap) sync work (batched
        // monochromaticity scans plus the endpoint census walk) and then
        // recomputes only the *blocks* the gap dirtied — a few per sketch
        // per gap — where a rebuild recolors all n vertices. That keeps
        // the patch ahead of a rebuild at any in-era gap, so the guard
        // below only drops states from another era (rotation already
        // invalidates; this is defense in depth) or ones staler than a
        // full buffer turnover, where the census walk alone matches the
        // rebuild cost.
        let patch_limit = self.params.buffer_capacity.max(8) as u64;
        let epoch = self.cache.epoch();
        let curr = self.curr;
        let too_stale = self
            .cache
            .artifact_mut()
            .is_some_and(|(at, s)| s.era != curr || epoch - at > patch_limit);
        if too_stale {
            self.cache.invalidate();
        }
        let state = match self.cache.take_for_patch() {
            Some((_, mut s)) => {
                self.patch(&mut s);
                s
            }
            None => self.rebuild(),
        };
        let out = state.out.clone();
        self.cache.install(state);
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
        w.field("deg", sc_stream::encode_u64_list(&self.degrees));
        w.field("curr", self.curr);
        w.edges("buffer", &self.buffer);
        w.field("h", encode_sketch_bank(&self.h_sketches));
        w.field("g", encode_sketch_bank(&self.g_sketches));
        w.field("space_cur", self.meter.current_bits());
        w.field("space_peak", self.meter.peak_bits());
        w.field("epoch", self.cache.epoch());
        Ok(w.finish())
    }

    fn decode_state(&mut self, state: &str) -> Result<(), String> {
        let mut r = StateReader::new(state, self.name())?;
        let degrees =
            sc_stream::decode_u64_list(r.expect("deg")?).map_err(|e| format!("state: deg: {e}"))?;
        if degrees.len() != self.params.n {
            return Err(format!("state: deg: {} counters for n={}", degrees.len(), self.params.n));
        }
        let curr = r.usize_field("curr")?;
        if !(1..=self.params.num_epochs).contains(&curr) {
            return Err(format!("state: curr={curr} outside 1..={}", self.params.num_epochs));
        }
        let buffer = r.edges_field("buffer", self.params.n)?;
        if buffer.len() > self.params.buffer_capacity {
            return Err(format!(
                "state: buffer holds {} edges over capacity {}",
                buffer.len(),
                self.params.buffer_capacity
            ));
        }
        decode_sketch_bank(&mut self.h_sketches, r.expect("h")?, self.params.n, "h")?;
        decode_sketch_bank(&mut self.g_sketches, r.expect("g")?, self.params.n, "g")?;
        let space_cur = r.u64_field("space_cur")?;
        let space_peak = r.u64_field("space_peak")?;
        let epoch = r.u64_field("epoch")?;
        r.done()?;
        self.degrees = degrees;
        self.curr = curr;
        self.buffer = buffer;
        self.meter =
            SpaceMeter::restored(space_cur, space_peak).map_err(|e| format!("state: {e}"))?;
        self.cache.restore_at_epoch(epoch);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "robust-alg2"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::robust::sketch::group_by_block;
    use crate::scalar_reference::assert_matches_scalar;
    use proptest::prelude::*;
    use sc_graph::generators;
    use sc_stream::run_oblivious;

    /// The unbatched reference: lines 10–17 for one edge, offering it to
    /// each sketch in turn through the scalar [`OracleFn::eval`].
    fn scalar_ingest(c: &mut RobustColorer, e: Edge) {
        // Lines 10–12: rotate the buffer when full.
        if c.buffer.len() == c.params.buffer_capacity {
            c.rotate_buffer();
        }
        c.cache.advance(1);
        let n = c.params.n;
        assert!((e.v() as usize) < n, "edge {e} out of range for n = {n}");
        let eb = edge_bits(n);

        c.buffer.push(e);
        c.meter.charge(eb);

        // Line 13: degree counters.
        let (u, v) = e.endpoints();
        c.degrees[u as usize] += 1;
        c.degrees[v as usize] += 1;

        // Lines 14–15: h_i sketches for future epochs only.
        for i in c.curr..c.params.num_epochs {
            if c.h_sketches[i].offer(e) {
                c.meter.charge(eb);
            }
        }

        // Lines 16–17: g_ℓ sketches for levels strictly above both
        // endpoints' levels at insertion time.
        let lvl = c.params.level_of(c.degrees[u as usize].max(c.degrees[v as usize]));
        for l in lvl..c.params.num_levels {
            if c.g_sketches[l].offer(e) {
                c.meter.charge(eb);
            }
        }
    }

    /// The direct transcription of the query, lines 18–26: split by
    /// buffer degree, then color the slow vertices per `h_curr`-block on
    /// `A_curr ∪ B` and each fast level per `g_ℓ`-block on `C_ℓ ∪ B`, every
    /// block on a fresh palette.
    fn direct_query(c: &RobustColorer) -> Coloring {
        let n = c.params.n;
        let mut coloring = Coloring::empty(n);
        let mut offset: u64 = 0;

        // Lines 18–19: fast/slow split by buffer degree.
        let deg_b = c.buffer_degrees();
        let fast: Vec<u32> =
            (0..n as u32).filter(|&v| deg_b[v as usize] > c.params.fast_threshold).collect();
        let slow: Vec<u32> =
            (0..n as u32).filter(|&v| deg_b[v as usize] <= c.params.fast_threshold).collect();

        // Lines 20–22: slow vertices, per h_curr-block, on A_curr ∪ B.
        let h_curr = &c.h_sketches[c.curr - 1];
        let mut is_slow = vec![false; n];
        for &v in &slow {
            is_slow[v as usize] = true;
        }
        let mut g_slow = Graph::empty(n);
        for e in h_curr.edges().iter().chain(c.buffer.iter()) {
            if is_slow[e.u() as usize]
                && is_slow[e.v() as usize]
                && h_curr.block_of(e.u()) == h_curr.block_of(e.v())
            {
                g_slow.add_edge(*e);
            }
        }
        for (_, members) in group_by_block(h_curr, &slow) {
            let span = greedy_color_in_order(&g_slow, &mut coloring, &members, offset);
            offset += span.max(1);
        }

        // Lines 23–26: fast vertices, per (level, g_ℓ-block), on C_ℓ ∪ B.
        for l in 1..=c.params.num_levels {
            let level_fast: Vec<u32> = fast
                .iter()
                .copied()
                .filter(|&w| c.params.level_of(c.degrees[w as usize]) == l)
                .collect();
            if level_fast.is_empty() {
                continue;
            }
            let g_l = &c.g_sketches[l - 1];
            let mut in_level = vec![false; n];
            for &v in &level_fast {
                in_level[v as usize] = true;
            }
            let mut g_fast = Graph::empty(n);
            for e in g_l.edges().iter().chain(c.buffer.iter()) {
                if in_level[e.u() as usize]
                    && in_level[e.v() as usize]
                    && g_l.block_of(e.u()) == g_l.block_of(e.v())
                {
                    g_fast.add_edge(*e);
                }
            }
            for (_, members) in group_by_block(g_l, &level_fast) {
                let span = degeneracy_coloring(&g_fast, &mut coloring, &members, offset);
                offset += span.max(1);
            }
        }
        coloring
    }

    /// Queries `colorer` after every chunk of `edges` and checks each
    /// answer against [`direct_query`] on the same prefix; interleaved
    /// incremental queries must leave the scratch answer unchanged.
    fn assert_matches_direct(
        mut colorer: RobustColorer,
        edges: &[Edge],
        chunk: usize,
    ) -> Result<(), TestCaseError> {
        for (k, part) in edges.chunks(chunk).enumerate() {
            colorer.process_batch(part);
            if k % 2 == 1 {
                colorer.query_incremental();
            }
            prop_assert_eq!(colorer.query(), direct_query(&colorer), "after chunk {}", k);
        }
        Ok(())
    }

    type Observed = (Coloring, u64, Vec<u64>, Vec<u64>, usize, usize);

    fn observe(c: &mut RobustColorer) -> Observed {
        (
            c.query(),
            c.peak_space_bits(),
            c.h_sketch_degree_totals(),
            c.g_sketch_degree_totals(),
            c.stored_edges(),
            c.current_epoch(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn ingest_matches_the_scalar_reference(
            (n, delta, seed, chunk) in (20usize..70, 3usize..9, any::<u64>(), 1usize..20),
        ) {
            let g = generators::gnp_with_max_degree(n, delta, 0.5, seed);
            let edges = generators::shuffled_edges(&g, seed ^ 1);
            let colorer = RobustColorer::new(n, delta, seed ^ 2);
            assert_matches_scalar(colorer, &edges, chunk, scalar_ingest, observe)?;
        }

        #[test]
        fn rotating_ingest_matches_the_scalar_reference(
            (seed, chunk) in (any::<u64>(), 1usize..20),
        ) {
            // A 7-edge buffer rotates every few edges, so runs split at
            // rotation points inside most chunks.
            let params =
                RobustParams { buffer_capacity: 7, num_epochs: 96, ..RobustParams::theorem3(40, 12) };
            let g = generators::gnp_with_max_degree(40, 12, 0.6, seed);
            let edges = generators::shuffled_edges(&g, seed);
            let colorer = RobustColorer::with_params(params, seed ^ 5);
            assert_matches_scalar(colorer.clone(), &edges, chunk, scalar_ingest, observe)?;
            let mut fed = colorer;
            fed.process_batch(&edges);
            prop_assert!(fed.current_epoch() > 3, "the buffer must rotate");
        }

        #[test]
        fn query_matches_the_direct_transcription(
            (n, delta, seed, chunk) in (20usize..70, 3usize..9, any::<u64>(), 1usize..20),
        ) {
            let g = generators::gnp_with_max_degree(n, delta, 0.5, seed);
            let edges = generators::shuffled_edges(&g, seed ^ 1);
            assert_matches_direct(RobustColorer::new(n, delta, seed ^ 2), &edges, chunk)?;
            // A 7-edge buffer rotates every few edges, so prefixes end in
            // many epochs and the buffer is rarely empty.
            let params =
                RobustParams { buffer_capacity: 7, num_epochs: 96, ..RobustParams::theorem3(40, 12) };
            let g = generators::gnp_with_max_degree(40, 12, 0.6, seed);
            let edges = generators::shuffled_edges(&g, seed);
            assert_matches_direct(RobustColorer::with_params(params, seed ^ 5), &edges, chunk)?;
        }
    }

    fn check_oblivious(n: usize, delta: usize, seed: u64) -> (Coloring, sc_graph::Graph) {
        let g = generators::gnp_with_max_degree(n, delta, 0.5, seed);
        let mut colorer = RobustColorer::new(n, delta, seed ^ 0xABCD);
        let coloring = run_oblivious(&mut colorer, generators::shuffled_edges(&g, seed));
        (coloring, g)
    }

    #[test]
    fn proper_coloring_on_random_streams() {
        for seed in 0..4u64 {
            let (coloring, g) = check_oblivious(60, 8, seed);
            assert!(coloring.is_proper_total(&g), "seed {seed}");
        }
    }

    #[test]
    fn color_count_within_delta_5_2_bound() {
        let (coloring, g) = check_oblivious(200, 16, 1);
        assert!(coloring.is_proper_total(&g));
        let bound = (16f64).powf(2.5) * 4.0; // generous constant
        assert!(
            (coloring.num_distinct_colors() as f64) < bound,
            "{} colors exceeds 4·∆^2.5 = {bound}",
            coloring.num_distinct_colors()
        );
    }

    #[test]
    fn mid_stream_queries_are_proper_for_prefixes() {
        let g = generators::gnp_with_max_degree(50, 6, 0.5, 7);
        let edges = generators::shuffled_edges(&g, 7);
        let mut colorer = RobustColorer::new(50, 6, 99);
        let mut prefix = Graph::empty(50);
        for (i, &e) in edges.iter().enumerate() {
            colorer.process(e);
            prefix.add_edge(e);
            if i % 7 == 0 {
                let c = colorer.query();
                assert!(c.is_proper_total(&prefix), "query after {} edges is improper", i + 1);
            }
        }
    }

    #[test]
    fn buffer_rotation_across_epochs() {
        // Force several epochs with a small buffer via β parameters.
        // Shrinking the buffer forces rotations; epochs must scale to keep
        // the capacity·epochs ≥ |stream| contract.
        let params =
            RobustParams { buffer_capacity: 10, num_epochs: 64, ..RobustParams::theorem3(40, 12) };
        let g = generators::gnp_with_max_degree(40, 12, 0.6, 3);
        assert!(g.m() > 30, "need enough edges to rotate: {}", g.m());
        let mut colorer = RobustColorer::with_params(params, 5);
        let coloring = run_oblivious(&mut colorer, generators::shuffled_edges(&g, 3));
        assert!(colorer.current_epoch() > 1, "buffer never rotated");
        assert!(coloring.is_proper_total(&g));
    }

    #[test]
    fn beta_variants_all_proper() {
        let g = generators::gnp_with_max_degree(80, 9, 0.4, 2);
        for beta in [0.0, 0.25, 1.0 / 3.0, 0.5] {
            let params = RobustParams::with_beta(80, 9, beta);
            let mut colorer = RobustColorer::with_params(params, 17);
            let coloring = run_oblivious(&mut colorer, generators::shuffled_edges(&g, 2));
            assert!(coloring.is_proper_total(&g), "β = {beta}");
        }
    }

    #[test]
    fn space_stays_near_linear() {
        let (_, g) = check_oblivious(150, 12, 4);
        let mut colorer = RobustColorer::new(150, 12, 4 ^ 0xABCD);
        run_oblivious(&mut colorer, generators::shuffled_edges(&g, 4));
        // Stored edges should be O(n log n)-ish, not Θ(m·∆).
        assert!(colorer.stored_edges() <= 20 * 150, "stored {} edges", colorer.stored_edges());
        assert!(colorer.peak_space_bits() > 0);
    }

    #[test]
    fn empty_graph_query() {
        let mut colorer = RobustColorer::new(10, 4, 1);
        let c = colorer.query();
        assert!(c.is_total());
        assert!(c.is_proper_total(&Graph::empty(10)));
    }

    #[test]
    fn seed_determinism() {
        let g = generators::gnp_with_max_degree(40, 6, 0.5, 9);
        let edges = generators::shuffled_edges(&g, 9);
        let mut c1 = RobustColorer::new(40, 6, 123);
        let mut c2 = RobustColorer::new(40, 6, 123);
        let r1 = run_oblivious(&mut c1, edges.iter().copied());
        let r2 = run_oblivious(&mut c2, edges.iter().copied());
        assert_eq!(r1, r2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        let mut colorer = RobustColorer::new(5, 3, 0);
        colorer.process(Edge::new(0, 9));
    }
}
