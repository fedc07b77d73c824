//! CGS22-style sketch-switching robust `O(∆³)`-coloring baseline.
//!
//! Chakrabarti–Ghosh–Stoeckl (ITCS 2022) gave the first robust coloring
//! algorithm: one coloring function `h_i : V → [∆²]` per epoch (buffer of
//! `n` edges), each `h_i`-sketch fed only the pre-epoch-`i` prefix
//! ("sketch switching" à la Ben-Eliezer et al.), and at query time each
//! `h_curr`-block is greedily `(degree+1)`-colored on `A_curr ∪ B` with a
//! fresh palette. Blocks can have internal degree up to `∆`, so the bound
//! is `∆² blocks × (∆+1) = O(∆³)` colors — exactly the baseline Theorem 3
//! improves to `O(∆^{5/2})` by adding the fast/slow split and degeneracy
//! coloring. Implemented here so experiment F3 compares the two shapes on
//! identical streams.

use crate::robust::sketch::{decode_sketch_bank, encode_sketch_bank, group_by_block, MonoSketch};
use sc_graph::{greedy_color_in_order, Coloring, Edge, Graph};
use sc_hash::{OracleFn, SplitMix64};
use sc_stream::{counter_bits, edge_bits, SpaceMeter, StateReader, StateWriter, StreamingColorer};

/// The CGS22-style robust colorer.
#[derive(Debug, Clone)]
pub struct Cgs22Colorer {
    n: usize,
    h_sketches: Vec<MonoSketch>,
    buffer: Vec<Edge>,
    curr: usize,
    num_epochs: usize,
    meter: SpaceMeter,
}

impl Cgs22Colorer {
    /// Creates the colorer for an `n`-vertex stream with degree bound `∆`.
    pub fn new(n: usize, delta: usize, seed: u64) -> Self {
        let delta = delta.max(1);
        let num_epochs = delta; // ≤ n∆/2 edges over buffers of n
        let range = (delta as u64 * delta as u64).max(1);
        let h_seed = SplitMix64::new(seed).fork(9).next_u64();
        let h_sketches = (0..num_epochs)
            .map(|i| MonoSketch::new(OracleFn::new(h_seed, i as u64, range)))
            .collect();
        let mut meter = SpaceMeter::new();
        meter.charge(n as u64 * counter_bits(delta as u64) + 128);
        Self { n, h_sketches, buffer: Vec::new(), curr: 1, num_epochs, meter }
    }

    /// Total stored edges (the `Õ(n)` space claim).
    pub fn stored_edges(&self) -> usize {
        self.buffer.len() + self.h_sketches.iter().map(MonoSketch::len).sum::<usize>()
    }
}

impl StreamingColorer for Cgs22Colorer {
    fn process(&mut self, e: Edge) {
        assert!((e.v() as usize) < self.n, "edge {e} out of range");
        let eb = edge_bits(self.n);
        if self.buffer.len() == self.n {
            self.meter.release(self.buffer.len() as u64 * eb);
            self.buffer.clear();
            self.curr += 1;
            assert!(self.curr <= self.num_epochs, "epoch overflow (degree budget violated)");
        }
        self.buffer.push(e);
        self.meter.charge(eb);
        for i in self.curr..self.num_epochs {
            if self.h_sketches[i].offer(e) {
                self.meter.charge(eb);
            }
        }
    }

    fn query(&mut self) -> Coloring {
        let n = self.n;
        let mut coloring = Coloring::empty(n);
        let mut offset = 0u64;
        let h_curr = &self.h_sketches[self.curr - 1];
        let mut g_blocks = Graph::empty(n);
        for e in h_curr.edges().iter().chain(self.buffer.iter()) {
            if h_curr.block_of(e.u()) == h_curr.block_of(e.v()) {
                g_blocks.add_edge(*e);
            }
        }
        let all: Vec<u32> = (0..n as u32).collect();
        for (_, members) in group_by_block(h_curr, &all) {
            let span = greedy_color_in_order(&g_blocks, &mut coloring, &members, offset);
            offset += span.max(1);
        }
        debug_assert!(coloring.is_total());
        coloring
    }

    fn peak_space_bits(&self) -> u64 {
        self.meter.peak_bits()
    }

    fn encode_state(&self) -> Result<String, String> {
        let mut w = StateWriter::new(self.name());
        w.field("curr", self.curr);
        w.edges("buffer", &self.buffer);
        w.field("h", encode_sketch_bank(&self.h_sketches));
        w.field("space_cur", self.meter.current_bits());
        w.field("space_peak", self.meter.peak_bits());
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
        decode_sketch_bank(&mut self.h_sketches, r.expect("h")?, self.n, "h")?;
        let space_cur = r.u64_field("space_cur")?;
        let space_peak = r.u64_field("space_peak")?;
        r.done()?;
        self.curr = curr;
        self.buffer = buffer;
        self.meter =
            SpaceMeter::restored(space_cur, space_peak).map_err(|e| format!("state: {e}"))?;
        Ok(())
    }

    fn name(&self) -> &'static str {
        "cgs22-robust"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_graph::generators;
    use sc_stream::run_oblivious;

    #[test]
    fn proper_on_random_streams() {
        for seed in 0..3u64 {
            let g = generators::gnp_with_max_degree(60, 9, 0.4, seed);
            let mut c = Cgs22Colorer::new(60, 9, seed + 3);
            let coloring = run_oblivious(&mut c, generators::shuffled_edges(&g, seed));
            assert!(coloring.is_proper_total(&g), "seed {seed}");
        }
    }

    #[test]
    fn mid_stream_queries_proper() {
        let g = generators::gnp_with_max_degree(40, 7, 0.5, 5);
        let edges = generators::shuffled_edges(&g, 5);
        let mut c = Cgs22Colorer::new(40, 7, 8);
        let mut prefix = Graph::empty(40);
        for (i, &e) in edges.iter().enumerate() {
            c.process(e);
            prefix.add_edge(e);
            if i % 11 == 0 {
                assert!(c.query().is_proper_total(&prefix));
            }
        }
    }

    #[test]
    fn uses_more_colors_than_alg2_on_same_stream() {
        // The F3 shape: CGS22's ∆³ structure uses ≥ as many colors as
        // Algorithm 2's ∆^{5/2} on dense streams (checked loosely: both
        // proper; CGS22 within ∆³ bound).
        let g = generators::gnp_with_max_degree(150, 16, 0.5, 2);
        let mut c = Cgs22Colorer::new(150, 16, 4);
        let coloring = run_oblivious(&mut c, generators::shuffled_edges(&g, 2));
        assert!(coloring.is_proper_total(&g));
        let bound = 16f64.powi(3) * 4.0;
        assert!((coloring.num_distinct_colors() as f64) < bound);
    }

    #[test]
    fn space_stays_small() {
        let g = generators::gnp_with_max_degree(100, 10, 0.5, 6);
        let mut c = Cgs22Colorer::new(100, 10, 1);
        run_oblivious(&mut c, generators::shuffled_edges(&g, 6));
        assert!(c.stored_edges() <= 20 * 100, "stored {}", c.stored_edges());
    }
}
