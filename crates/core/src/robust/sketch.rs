//! `f`-sketches: the storage primitive of the robust algorithms.
//!
//! §4.1 of the paper: "for a function `f` we call the underlying sketch of
//! the algorithm, which receives edges of the graph and stores it only if
//! it is `f`-monochromatic, as an `f`-sketch." The `f`-blocks (color
//! classes of `f`) partition `V`; intra-block edges are exactly the
//! `f`-monochromatic ones, so a sketch holds every intra-block edge of the
//! substream it processed.

use sc_graph::Edge;
use sc_hash::OracleFn;

/// Stores the `f`-monochromatic edges among those offered to it.
#[derive(Debug, Clone)]
pub struct MonoSketch {
    f: OracleFn,
    edges: Vec<Edge>,
}

impl MonoSketch {
    /// A sketch over the coloring function `f`.
    pub fn new(f: OracleFn) -> Self {
        Self { f, edges: Vec::new() }
    }

    /// The block (color under `f`) of vertex `v`.
    #[inline]
    pub fn block_of(&self, v: u32) -> u64 {
        self.f.eval(v as u64)
    }

    /// Offers an edge; stores it iff it is `f`-monochromatic. Returns
    /// whether it was stored.
    #[inline]
    pub fn offer(&mut self, e: Edge) -> bool {
        if self.f.eval(e.u() as u64) == self.f.eval(e.v() as u64) {
            self.edges.push(e);
            true
        } else {
            false
        }
    }

    /// The stored edges.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The underlying oracle function (batched paths hash through an
    /// [`EvalScratch`] or [`BlockMemo`] instead of calling
    /// [`MonoSketch::offer`]).
    #[inline]
    pub fn oracle(&self) -> &OracleFn {
        &self.f
    }

    /// Number of stored edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The range of `f` (number of blocks).
    #[inline]
    pub fn num_blocks(&self) -> u64 {
        self.f.range()
    }

    /// Offers a whole chunk through the batched evaluation tier: loads
    /// the chunk's presplit columns into `scratch`, then runs the fused
    /// per-lane monochromaticity check. Returns the number of edges
    /// stored. Equivalent to offering the chunk's edges one at a time,
    /// in order (`eval_presplit ∘ presplit` is bit-identical to `eval`).
    pub fn offer_batch(&mut self, edges: &[Edge], scratch: &mut EvalScratch) -> usize {
        scratch.load(edges);
        self.offer_preloaded(edges, scratch)
    }

    /// [`MonoSketch::offer_batch`] over a chunk whose presplit columns
    /// are already loaded — callers with several sketches over the same
    /// chunk (Algorithm 2's per-epoch loop) load once and share.
    ///
    /// The check is fused: each lane's two outer rounds complete in
    /// registers and compare immediately, with no hash-value columns
    /// materialized. (The earlier structure-of-arrays tier stored both
    /// endpoint hashes per lane and re-read them in a second pass; the
    /// memory round trip made it ~3× slower than the scalar loop, which
    /// LLVM already keeps register-resident.)
    pub fn offer_preloaded(&mut self, edges: &[Edge], scratch: &EvalScratch) -> usize {
        self.offer_preloaded_where(edges, scratch, |_| true)
    }

    /// [`MonoSketch::offer_preloaded`] restricted to the chunk lanes
    /// accepted by `keep` (Algorithm 2's level filter) — rejected lanes
    /// are never hashed. Lanes are visited in chunk order, so stored
    /// edges land in exactly the per-edge insertion order.
    pub fn offer_preloaded_where(
        &mut self,
        edges: &[Edge],
        scratch: &EvalScratch,
        mut keep: impl FnMut(usize) -> bool,
    ) -> usize {
        let before = self.edges.len();
        for (k, &e) in edges.iter().enumerate() {
            if keep(k) && self.f.eval_presplit(scratch.su(k)) == self.f.eval_presplit(scratch.sv(k))
            {
                self.edges.push(e);
            }
        }
        self.edges.len() - before
    }
}

/// Encodes a bank of sketches' stored edge lists as `|`-joined
/// [`sc_stream::state::encode_edges`] strings (state-codec
/// vocabulary; the oracle functions are rebuilt from the seed, so only
/// the edges travel).
pub(crate) fn encode_sketch_bank(sketches: &[MonoSketch]) -> String {
    sketches.iter().map(|s| sc_stream::encode_edges(s.edges())).collect::<Vec<_>>().join("|")
}

/// Replays an [`encode_sketch_bank`] string into freshly built sketches,
/// re-offering every edge so monochromaticity is *validated*, not
/// trusted — a tampered blob fails naming the sketch and edge. `key`
/// names the state field in errors.
pub(crate) fn decode_sketch_bank(
    sketches: &mut [MonoSketch],
    text: &str,
    n: usize,
    key: &str,
) -> Result<(), String> {
    let lists: Vec<&str> = text.split('|').collect();
    if lists.len() != sketches.len() {
        return Err(format!(
            "state: {key}: {} sketch lists for {} sketches",
            lists.len(),
            sketches.len()
        ));
    }
    for (i, (sketch, list)) in sketches.iter_mut().zip(lists).enumerate() {
        for e in sc_stream::decode_edges(list, Some(n)).map_err(|e| format!("state: {key}: {e}"))? {
            if !sketch.offer(e) {
                return Err(format!(
                    "state: {key}: edge {e} is not monochromatic under sketch {i}"
                ));
            }
        }
    }
    Ok(())
}

/// Pooled presplit-endpoint columns for batched sketch evaluation.
///
/// [`OracleFn::eval`] factors into a key-independent inner mixing round
/// ([`OracleFn::presplit`]) and a cheap per-key outer round
/// ([`OracleFn::eval_presplit`]). [`EvalScratch::load`] runs the inner
/// round once per chunk endpoint; every sketch offered the same chunk
/// ([`MonoSketch::offer_preloaded`]) then pays only outer rounds, however
/// many sketches there are — Algorithm 2 shares one load across its
/// per-epoch `h` sketches *and* its level `g` sketches. Buffers keep
/// their capacity across chunks, so the steady state allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// Presplit values of the chunk's `u` endpoints.
    su: Vec<u64>,
    /// Presplit values of the chunk's `v` endpoints.
    sv: Vec<u64>,
}

impl EvalScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a chunk: one inner mixing round per endpoint.
    pub fn load(&mut self, edges: &[Edge]) {
        self.su.clear();
        self.sv.clear();
        self.su.extend(edges.iter().map(|e| OracleFn::presplit(e.u() as u64)));
        self.sv.extend(edges.iter().map(|e| OracleFn::presplit(e.v() as u64)));
    }

    /// Presplit value of lane `k`'s `u` endpoint.
    #[inline]
    pub fn su(&self, k: usize) -> u64 {
        self.su[k]
    }

    /// Presplit value of lane `k`'s `v` endpoint.
    #[inline]
    pub fn sv(&self, k: usize) -> u64 {
        self.sv[k]
    }
}

/// Per-chunk memo table for vertex-keyed hash evaluations.
///
/// The batched ingestion paths evaluate each sketch function at every
/// endpoint of every chunk edge; a vertex of multiplicity `r` in the chunk
/// would pay `r` evaluations. The memo caches by vertex id with
/// generation stamping, so [`BlockMemo::reset`] is `O(1)` and a chunk pays
/// one evaluation per *distinct* endpoint per sketch.
#[derive(Debug, Clone)]
pub struct BlockMemo {
    vals: Vec<u64>,
    stamp: Vec<u32>,
    generation: u32,
}

impl BlockMemo {
    /// A memo for vertex ids below `n`.
    pub fn new(n: usize) -> Self {
        Self { vals: vec![0; n], stamp: vec![0; n], generation: 0 }
    }

    /// Invalidates all cached values (constant time).
    #[inline]
    pub fn reset(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamp wrap-around: stale stamps could alias, so clear.
            self.stamp.fill(0);
            self.generation = 1;
        }
    }

    /// The cached value of `f(v)`, computing it on first use.
    #[inline]
    pub fn get(&mut self, v: u32, f: impl Fn(u64) -> u64) -> u64 {
        let i = v as usize;
        if self.stamp[i] != self.generation {
            self.vals[i] = f(v as u64);
            self.stamp[i] = self.generation;
        }
        self.vals[i]
    }
}

/// Groups `vertices` by their sketch block, returning only nonempty
/// groups as `(block, members)` pairs, sorted by block id.
///
/// Query time in Algorithm 2 iterates blocks; grouping nonempty ones keeps
/// that `O(|V| log |V|)` instead of `O(∆²)` when most blocks are empty.
pub fn group_by_block(sketch: &MonoSketch, vertices: &[u32]) -> Vec<(u64, Vec<u32>)> {
    group_by_block_with(|v| sketch.block_of(v), vertices)
}

/// [`group_by_block`] over an arbitrary block function — incremental
/// query paths pass a [`BlockMemo`]-backed closure so each distinct
/// vertex hashes at most once per phase.
pub fn group_by_block_with(
    mut block: impl FnMut(u32) -> u64,
    vertices: &[u32],
) -> Vec<(u64, Vec<u32>)> {
    let mut tagged: Vec<(u64, u32)> = vertices.iter().map(|&v| (block(v), v)).collect();
    tagged.sort_unstable();
    let mut out: Vec<(u64, Vec<u32>)> = Vec::new();
    for (b, v) in tagged {
        match out.last_mut() {
            Some((block, members)) if *block == b => members.push(v),
            _ => out.push((b, vec![v])),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch(range: u64) -> MonoSketch {
        MonoSketch::new(OracleFn::new(42, 7, range))
    }

    #[test]
    fn stores_only_monochromatic_edges() {
        let mut s = sketch(4);
        let mut stored = 0;
        let mut total = 0;
        for u in 0..30u32 {
            for v in (u + 1)..30 {
                total += 1;
                let mono = s.block_of(u) == s.block_of(v);
                assert_eq!(s.offer(Edge::new(u, v)), mono);
                stored += usize::from(mono);
            }
        }
        assert_eq!(s.len(), stored);
        assert!(stored > 0, "range 4 over 30 vertices must have collisions");
        assert!(stored < total);
        // Every stored edge really is monochromatic.
        for e in s.edges() {
            assert_eq!(s.block_of(e.u()), s.block_of(e.v()));
        }
    }

    #[test]
    fn block_of_is_stable() {
        let s = sketch(16);
        for v in 0..100u32 {
            assert_eq!(s.block_of(v), s.block_of(v));
            assert!(s.block_of(v) < 16);
        }
    }

    #[test]
    fn grouping_partitions_the_vertex_set() {
        let s = sketch(4);
        let vertices: Vec<u32> = (0..50).collect();
        let groups = group_by_block(&s, &vertices);
        let total: usize = groups.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(total, 50);
        for (b, members) in &groups {
            assert!(!members.is_empty());
            for &v in members {
                assert_eq!(s.block_of(v), *b);
            }
        }
        // Blocks sorted and distinct.
        let ids: Vec<u64> = groups.iter().map(|(b, _)| *b).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn empty_inputs() {
        let s = sketch(8);
        assert!(s.is_empty());
        assert_eq!(s.num_blocks(), 8);
        assert!(group_by_block(&s, &[]).is_empty());
    }
}
