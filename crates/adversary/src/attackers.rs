//! Concrete adversaries.
//!
//! * [`ObliviousReplay`] — a fixed stream (the static model embedded in
//!   the game framework).
//! * [`RandomAdversary`] — inserts uniformly random fresh edges within the
//!   degree budget; adaptive in form, oblivious in substance (a control).
//! * [`MonochromaticAttacker`] — the canonical feedback attack: reads the
//!   latest coloring and joins two same-colored vertices with remaining
//!   budget. This is precisely the strategy family behind the `Ω(∆²)`
//!   robust lower bound of CGS22 and it empirically destroys non-robust
//!   algorithms (experiment F5) while the paper's robust algorithms shrug
//!   it off.
//! * [`CliqueBuilder`] — grows disjoint `(∆+1)`-cliques, maximizing
//!   chromatic pressure while staying inside the budget.

use crate::game::Adversary;
use sc_graph::{Coloring, Edge, Graph, VertexId};
use sc_hash::SplitMix64;
use sc_stream::SignedEdge;

/// Replays a fixed edge sequence, ignoring the algorithm's outputs.
#[derive(Debug, Clone)]
pub struct ObliviousReplay {
    edges: std::collections::VecDeque<Edge>,
}

impl ObliviousReplay {
    /// Wraps a fixed stream.
    pub fn new(edges: impl IntoIterator<Item = Edge>) -> Self {
        Self { edges: edges.into_iter().collect() }
    }
}

impl Adversary for ObliviousReplay {
    fn next_edge(&mut self, _last: &Coloring, _g: &Graph) -> Option<Edge> {
        self.edges.pop_front()
    }

    fn name(&self) -> &'static str {
        "oblivious-replay"
    }
}

/// Inserts random fresh edges subject to the degree budget `∆`.
#[derive(Debug, Clone)]
pub struct RandomAdversary {
    n: usize,
    delta: usize,
    rng: SplitMix64,
}

impl RandomAdversary {
    /// Creates the adversary for `n` vertices with degree budget `delta`.
    pub fn new(n: usize, delta: usize, seed: u64) -> Self {
        Self { n, delta, rng: SplitMix64::new(seed) }
    }
}

impl Adversary for RandomAdversary {
    fn next_edge(&mut self, _last: &Coloring, g: &Graph) -> Option<Edge> {
        for _ in 0..4 * self.n {
            let u = self.rng.below(self.n as u64) as VertexId;
            let v = self.rng.below(self.n as u64) as VertexId;
            if u != v && !g.has_edge(u, v) && g.degree(u) < self.delta && g.degree(v) < self.delta {
                return Some(Edge::new(u, v));
            }
        }
        None // budget saturated (or unlucky) — end the game
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// The monochromatic-edge feedback attacker.
///
/// Each round it scans the latest output for the pair of **same-colored**
/// vertices with the most remaining degree budget and joins them. Every
/// such insertion forces the algorithm to separate the pair in all future
/// outputs — a non-robust algorithm with a fixed small per-vertex palette
/// (e.g. palette sparsification's `O(log n)` sampled colors) runs out of
/// escape colors after `O(list²)` rounds per vertex.
#[derive(Debug, Clone)]
pub struct MonochromaticAttacker {
    n: usize,
    delta: usize,
    rng: SplitMix64,
}

impl MonochromaticAttacker {
    /// Creates the attacker for `n` vertices with degree budget `delta`.
    pub fn new(n: usize, delta: usize, seed: u64) -> Self {
        Self { n, delta, rng: SplitMix64::new(seed) }
    }

    fn fallback_random(&mut self, g: &Graph) -> Option<Edge> {
        for _ in 0..4 * self.n {
            let u = self.rng.below(self.n as u64) as VertexId;
            let v = self.rng.below(self.n as u64) as VertexId;
            if u != v && !g.has_edge(u, v) && g.degree(u) < self.delta && g.degree(v) < self.delta {
                return Some(Edge::new(u, v));
            }
        }
        None
    }
}

impl Adversary for MonochromaticAttacker {
    fn next_edge(&mut self, last: &Coloring, g: &Graph) -> Option<Edge> {
        // Bucket vertices by color, keeping only those with budget.
        // BTreeMap: iteration is color-ordered, so the attack is
        // deterministic per seed (HashMap order is seeded per thread).
        let mut by_color: std::collections::BTreeMap<u64, Vec<VertexId>> =
            std::collections::BTreeMap::new();
        for x in 0..self.n as VertexId {
            if g.degree(x) >= self.delta {
                continue;
            }
            if let Some(c) = last.get(x) {
                by_color.entry(c).or_default().push(x);
            }
        }
        // Largest color class first: most pairs to choose from. The
        // stable sort keeps ties in color order (BTreeMap iteration).
        let mut classes: Vec<&Vec<VertexId>> = by_color.values().filter(|v| v.len() >= 2).collect();
        classes.sort_by_key(|v| std::cmp::Reverse(v.len()));
        for class in classes {
            // Prefer the pair with the most remaining budget, breaking
            // ties pseudo-randomly so the attack doesn't fixate.
            let start = self.rng.below(class.len() as u64) as usize;
            for i in 0..class.len() {
                let u = class[(start + i) % class.len()];
                for j in (i + 1)..class.len() {
                    let v = class[(start + j) % class.len()];
                    if !g.has_edge(u, v) {
                        return Some(Edge::new(u, v));
                    }
                }
            }
        }
        // No monochromatic pair available: keep the pressure up randomly.
        self.fallback_random(g)
    }

    fn name(&self) -> &'static str {
        "monochromatic"
    }
}

/// Builds disjoint cliques of size `∆+1`, one edge at a time.
#[derive(Debug, Clone)]
pub struct CliqueBuilder {
    n: usize,
    delta: usize,
    next_pair: (usize, usize),
    clique_base: usize,
}

impl CliqueBuilder {
    /// Creates the builder for `n` vertices with degree budget `delta`.
    pub fn new(n: usize, delta: usize) -> Self {
        Self { n, delta, next_pair: (0, 1), clique_base: 0 }
    }
}

impl Adversary for CliqueBuilder {
    fn next_edge(&mut self, _last: &Coloring, _g: &Graph) -> Option<Edge> {
        let size = self.delta + 1;
        loop {
            if self.clique_base + size > self.n {
                return None;
            }
            let (i, j) = self.next_pair;
            if i + 1 >= size {
                // This clique is complete; start the next one.
                self.clique_base += size;
                self.next_pair = (0, 1);
                continue;
            }
            if j >= size {
                self.next_pair = (i + 1, i + 2);
                continue;
            }
            self.next_pair = (i, j + 1);
            return Some(Edge::new(
                (self.clique_base + i) as VertexId,
                (self.clique_base + j) as VertexId,
            ));
        }
    }

    fn name(&self) -> &'static str {
        "clique-builder"
    }
}

/// Targets epoch boundaries: floods one vertex pair's neighborhoods with
/// edges in bursts sized to straddle the algorithms' buffer capacity.
///
/// Failure-injection adversary: Algorithm 2/3 rotate their buffers every
/// `capacity` insertions, and the correctness argument is most delicate
/// for edges that arrive just before/after a rotation (they must be caught
/// by a sketch rather than the buffer). This adversary concentrates
/// monochromatic pressure exactly there.
#[derive(Debug, Clone)]
pub struct BufferBoundaryAttacker {
    n: usize,
    delta: usize,
    burst: usize,
    inserted: usize,
    inner: MonochromaticAttacker,
    rng: SplitMix64,
}

impl BufferBoundaryAttacker {
    /// `burst` should equal the victim's buffer capacity (e.g. `n`).
    pub fn new(n: usize, delta: usize, burst: usize, seed: u64) -> Self {
        Self {
            n,
            delta,
            burst: burst.max(2),
            inserted: 0,
            inner: MonochromaticAttacker::new(n, delta, seed),
            rng: SplitMix64::new(seed ^ 0xB0B0),
        }
    }
}

impl Adversary for BufferBoundaryAttacker {
    fn next_edge(&mut self, last: &Coloring, g: &Graph) -> Option<Edge> {
        self.inserted += 1;
        let phase = self.inserted % self.burst;
        // Near the boundary (last/first 10% of a burst window): attack
        // monochromatic pairs; elsewhere: low-information random filler.
        let near_boundary = phase * 10 < self.burst || phase * 10 >= 9 * self.burst;
        if near_boundary {
            self.inner.next_edge(last, g)
        } else {
            // Random filler, budget-respecting.
            for _ in 0..4 * self.n {
                let u = self.rng.below(self.n as u64) as VertexId;
                let v = self.rng.below(self.n as u64) as VertexId;
                if u != v
                    && !g.has_edge(u, v)
                    && g.degree(u) < self.delta
                    && g.degree(v) < self.delta
                {
                    return Some(Edge::new(u, v));
                }
            }
            self.inner.next_edge(last, g)
        }
    }

    fn name(&self) -> &'static str {
        "buffer-boundary"
    }
}
/// Targets level boundaries: prefers same-colored pairs whose degrees sit
/// just below a multiple of `√∆`, so the inserted edge crosses a level at
/// insertion time.
///
/// Failure-injection adversary for Algorithm 2's level machinery: the
/// correctness proof (Lemma 4.6) is most delicate for an edge `{x, y}`
/// whose insertion itself lifts an endpoint into a new level — it must be
/// caught by the buffer via the "last `√∆` edges" pigeonhole, not by a
/// `g_ℓ`-sketch. This adversary manufactures exactly those insertions.
#[derive(Debug, Clone)]
pub struct LevelBoundaryAttacker {
    n: usize,
    delta: usize,
    /// `√∆`, the level width of Theorem 3 (`β = 0`).
    level_width: u64,
    inner: MonochromaticAttacker,
}

impl LevelBoundaryAttacker {
    /// Creates the attacker; `level_width` should match the victim's
    /// `∆^{(1+β)/2}` (Theorem 3: `√∆`).
    pub fn new(n: usize, delta: usize, seed: u64) -> Self {
        let level_width = ((delta as f64).sqrt().round() as u64).max(1);
        Self { n, delta, level_width, inner: MonochromaticAttacker::new(n, delta, seed) }
    }

    fn gap_to_boundary(&self, deg: u64) -> u64 {
        let w = self.level_width;
        (w - (deg % w)) % w // 0 = exactly on a boundary, 1 = next edge crosses
    }
}

impl Adversary for LevelBoundaryAttacker {
    fn next_edge(&mut self, last: &Coloring, g: &Graph) -> Option<Edge> {
        // Among same-colored budget-respecting pairs, prefer those where an
        // endpoint is 1 edge from a level boundary. BTreeMap: color-ordered
        // iteration keeps equal-gap winners deterministic per seed.
        let mut by_color: std::collections::BTreeMap<u64, Vec<VertexId>> =
            std::collections::BTreeMap::new();
        for x in 0..self.n as VertexId {
            if g.degree(x) >= self.delta {
                continue;
            }
            if let Some(c) = last.get(x) {
                by_color.entry(c).or_default().push(x);
            }
        }
        // Best = (min gap to a level boundary, edge).
        let mut best: Option<(u64, Edge)> = None;
        for class in by_color.values() {
            for (i, &u) in class.iter().enumerate() {
                for &v in class.iter().skip(i + 1) {
                    if g.has_edge(u, v) {
                        continue;
                    }
                    let gap = self
                        .gap_to_boundary(g.degree(u) as u64 + 1)
                        .min(self.gap_to_boundary(g.degree(v) as u64 + 1));
                    if best.is_none_or(|(b, _)| gap < b) {
                        best = Some((gap, Edge::new(u, v)));
                    }
                }
            }
            if matches!(best, Some((0, _))) {
                break; // cannot do better than crossing a boundary now
            }
        }
        match best {
            Some((_, e)) => Some(e),
            None => self.inner.next_edge(last, g),
        }
    }

    fn name(&self) -> &'static str {
        "level-boundary"
    }
}

/// The deletion-aware feedback attacker: its victim must support
/// deletions.
///
/// Each round it either presses the classic monochromatic attack — join
/// the same-colored pair with the most room — or **retracts** the edge it
/// inserted last round, oscillating the live graph. The deletion is the
/// attack: an algorithm that keeps stale state about departed edges
/// either wastes its space budget on ghosts or, worse, lets them
/// constrain future colorings; a correct turnstile algorithm must shrug
/// the oscillation off exactly like [`MonochromaticAttacker`] pressure.
#[derive(Debug, Clone)]
pub struct OscillationAttacker {
    inner: MonochromaticAttacker,
    rng: SplitMix64,
    last_inserted: Option<Edge>,
}

impl OscillationAttacker {
    /// Creates the attacker for `n` vertices with degree budget `delta`.
    pub fn new(n: usize, delta: usize, seed: u64) -> Self {
        Self {
            inner: MonochromaticAttacker::new(n, delta, seed),
            rng: SplitMix64::new(seed ^ 0x05C1),
            last_inserted: None,
        }
    }
}

impl Adversary for OscillationAttacker {
    /// The insertion half of [`Adversary::next_token`] (the move the
    /// referee asks for): the monochromatic attack's next pair.
    fn next_edge(&mut self, last: &Coloring, g: &Graph) -> Option<Edge> {
        self.inner.next_edge(last, g)
    }

    fn next_token(&mut self, last: &Coloring, g: &Graph) -> Option<SignedEdge> {
        // Half the time, retract last round's insertion: its endpoints
        // were just forced apart, so deleting it tests whether the
        // algorithm can *release* that constraint.
        if let Some(e) = self.last_inserted.take() {
            if g.has_edge(e.u(), e.v()) && self.rng.below(2) == 0 {
                return Some(SignedEdge::delete(e));
            }
        }
        let e = self.next_edge(last, g)?;
        self.last_inserted = Some(e);
        Some(SignedEdge::insert(e))
    }

    fn name(&self) -> &'static str {
        "oscillation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::run_game;
    use streamcolor::{
        Cgs22Colorer, PaletteSparsification, RandEfficientColorer, RobustColorer, TrivialColorer,
    };

    #[test]
    fn random_adversary_respects_budget() {
        let mut adv = RandomAdversary::new(30, 4, 1);
        let mut colorer = TrivialColorer::new(30);
        let report = run_game(&mut colorer, &mut adv, 30, 500);
        assert!(report.survived());
        assert!(report.final_graph.max_degree() <= 4);
        assert!(report.rounds > 0);
    }

    #[test]
    fn clique_builder_builds_cliques() {
        let mut adv = CliqueBuilder::new(12, 3);
        let mut colorer = TrivialColorer::new(12);
        let report = run_game(&mut colorer, &mut adv, 12, 1000);
        // Three disjoint K4s: 3·6 = 18 edges.
        assert_eq!(report.final_graph.m(), 18);
        assert_eq!(report.final_graph.max_degree(), 3);
        assert!(report.final_graph.has_edge(0, 3));
        assert!(!report.final_graph.has_edge(3, 4));
    }

    #[test]
    fn monochromatic_attacker_respects_budget_and_attacks() {
        let mut adv = MonochromaticAttacker::new(40, 6, 9);
        let mut colorer = RobustColorer::new(40, 6, 5);
        let report = run_game(&mut colorer, &mut adv, 40, 100);
        assert!(report.final_graph.max_degree() <= 6);
        assert!(report.rounds >= 50, "attack should find many pairs");
    }

    #[test]
    fn robust_alg2_survives_the_attack() {
        let mut adv = MonochromaticAttacker::new(60, 8, 2);
        let mut colorer = RobustColorer::new(60, 8, 11);
        let report = run_game(&mut colorer, &mut adv, 60, 200);
        assert!(report.survived(), "Algorithm 2 failed at round {:?}", report.first_failure_round);
    }

    #[test]
    fn robust_alg3_survives_the_attack() {
        let mut adv = MonochromaticAttacker::new(60, 8, 3);
        let mut colorer = RandEfficientColorer::new(60, 8, 12);
        let report = run_game(&mut colorer, &mut adv, 60, 200);
        assert!(report.survived(), "Algorithm 3 failed at round {:?}", report.first_failure_round);
    }

    #[test]
    fn cgs22_survives_the_attack() {
        let mut adv = MonochromaticAttacker::new(60, 8, 4);
        let mut colorer = Cgs22Colorer::new(60, 8, 13);
        let report = run_game(&mut colorer, &mut adv, 60, 200);
        assert!(report.survived());
    }

    /// The separation (experiment F5 in miniature): palette
    /// sparsification with small lists breaks under the feedback attack.
    #[test]
    fn palette_sparsification_breaks_under_attack() {
        let n = 60;
        let delta = 16;
        let mut broke = false;
        for seed in 0..5u64 {
            let mut adv = MonochromaticAttacker::new(n, delta, seed);
            let mut colorer = PaletteSparsification::new(n, delta, 4, seed + 50);
            let report = run_game(&mut colorer, &mut adv, n, n * delta);
            if !report.survived() {
                broke = true;
                break;
            }
        }
        assert!(broke, "the attack should break small-list palette sparsification");
    }

    #[test]
    fn oscillation_attacker_actually_deletes_and_respects_budget() {
        let (n, delta) = (40, 6);
        let mut adv = OscillationAttacker::new(n, delta, 9);
        // Budget covers every edge the attack can keep live.
        let mut colorer = streamcolor::DynamicColorer::new(n, n * delta / 2, 5);
        let report = run_game(&mut colorer, &mut adv, n, 150);
        assert!(report.deletions > 10, "oscillation produced {} deletions", report.deletions);
        assert!(report.final_graph.max_degree() <= delta);
        assert!(
            report.survived(),
            "the turnstile colorer failed at round {:?} under oscillation",
            report.first_failure_round
        );
    }

    #[test]
    fn buffer_boundary_attacker_respects_budget() {
        let mut adv = BufferBoundaryAttacker::new(50, 5, 20, 3);
        let mut colorer = TrivialColorer::new(50);
        let report = run_game(&mut colorer, &mut adv, 50, 300);
        assert!(report.final_graph.max_degree() <= 5);
        assert!(report.rounds > 50);
    }

    #[test]
    fn level_boundary_attacker_respects_budget() {
        let mut adv = LevelBoundaryAttacker::new(40, 9, 7);
        let mut colorer = TrivialColorer::new(40);
        let report = run_game(&mut colorer, &mut adv, 40, 300);
        assert!(report.final_graph.max_degree() <= 9);
        assert!(report.rounds > 40, "attack stalled after {} rounds", report.rounds);
    }

    #[test]
    fn robust_alg2_survives_level_boundary_attack() {
        // ∆ = 16 ⇒ level width 4: plenty of boundary crossings.
        let n = 60;
        let delta = 16;
        let mut adv = LevelBoundaryAttacker::new(n, delta, 2);
        let mut colorer = RobustColorer::new(n, delta, 31);
        let report = run_game(&mut colorer, &mut adv, n, n * delta / 2);
        assert!(
            report.survived(),
            "Algorithm 2 failed at round {:?} under level-boundary pressure",
            report.first_failure_round
        );
    }

    #[test]
    fn robust_algorithms_survive_boundary_attack() {
        // Burst size tuned to Algorithm 2/3's buffer capacity (= n).
        let n = 80;
        let delta = 8;
        let mut adv = BufferBoundaryAttacker::new(n, delta, n, 5);
        let mut c2 = RobustColorer::new(n, delta, 21);
        assert!(run_game(&mut c2, &mut adv, n, 3 * n).survived());

        let mut adv = BufferBoundaryAttacker::new(n, delta, n, 5);
        let mut c3 = RandEfficientColorer::new(n, delta, 22);
        assert!(run_game(&mut c3, &mut adv, n, 3 * n).survived());
    }
}
