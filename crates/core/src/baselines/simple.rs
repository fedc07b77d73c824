//! Trivial baselines: offline greedy and the `n`-coloring.
//!
//! * [`offline_greedy`] — the classical `(∆+1)` first-fit on the whole
//!   graph; ground truth for "how many colors should this take offline".
//! * [`TrivialColorer`] — `χ(x) = x`: the `n`-color, zero-space,
//!   deterministic (hence trivially robust) single-pass algorithm the
//!   paper's lower-bound discussion keeps as the reference point
//!   (deterministic single-pass algorithms cannot beat `exp(∆^Ω(1))`
//!   colors, so for `∆ ≥ log n`-ish this is essentially optimal among
//!   them).

use sc_graph::{greedy_complete, Coloring, Edge, Graph};
use sc_stream::{StateReader, StateWriter, StreamingColorer};

/// Offline first-fit `(∆+1)`-coloring of a fully materialized graph.
pub fn offline_greedy(g: &Graph) -> Coloring {
    let mut c = Coloring::empty(g.n());
    greedy_complete(g, &mut c);
    c
}

/// The `n`-coloring: every vertex gets its own id as color.
#[derive(Debug, Clone)]
pub struct TrivialColorer {
    n: usize,
}

impl TrivialColorer {
    /// Creates the trivial colorer on `n` vertices.
    pub fn new(n: usize) -> Self {
        Self { n }
    }
}

impl StreamingColorer for TrivialColorer {
    fn process(&mut self, _e: Edge) {}

    fn query(&mut self) -> Coloring {
        let mut c = Coloring::empty(self.n);
        for x in 0..self.n as u32 {
            c.set(x, x as u64);
        }
        c
    }

    fn peak_space_bits(&self) -> u64 {
        0
    }

    // Stateless, but still round-trippable: a tagged empty state keeps
    // the persistence law uniform across every buildable spec.
    fn encode_state(&self) -> Result<String, String> {
        Ok(StateWriter::new(self.name()).finish())
    }

    fn decode_state(&mut self, state: &str) -> Result<(), String> {
        StateReader::new(state, self.name())?.done()
    }

    fn name(&self) -> &'static str {
        "trivial-n-coloring"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_graph::generators;
    use sc_stream::run_oblivious;

    #[test]
    fn offline_greedy_within_delta_plus_one() {
        for seed in 0..3u64 {
            let g = generators::gnp_with_max_degree(60, 9, 0.4, seed);
            let c = offline_greedy(&g);
            assert!(c.is_proper_total(&g));
            assert!(c.palette_span() <= g.max_degree() as u64 + 1);
        }
    }

    #[test]
    fn trivial_is_always_proper_with_n_colors() {
        let g = generators::complete(15);
        let mut t = TrivialColorer::new(15);
        let c = run_oblivious(&mut t, g.edges());
        assert!(c.is_proper_total(&g));
        assert_eq!(c.num_distinct_colors(), 15);
        assert_eq!(t.peak_space_bits(), 0);
    }
}
