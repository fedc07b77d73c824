//! Declarative graph sources.

use sc_graph::{generators, Edge, Graph};
use sc_hash::SplitMix64;
use sc_stream::{SignedEdge, StreamOrder};
use std::borrow::Cow;
use std::sync::Arc;

/// Where a scenario's graph comes from.
///
/// The first two variants are **insert-only**: the stream is some
/// arrangement of a fixed graph's edges. The [`SourceSpec::Churn`] and
/// [`SourceSpec::SlidingWindow`] variants are **dynamic (turnstile)**:
/// they emit a signed token stream ([`SourceSpec::signed_tokens`])
/// carrying deletions, and [`SourceSpec::materialize`] returns the
/// *live* graph after the whole stream — the graph every final output
/// is judged against.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceSpec {
    /// An already-materialized graph (e.g. read from a file), shared
    /// cheaply across scenarios.
    Stored(Arc<Graph>),
    /// A reproducible generator family; materialized per run.
    Family {
        /// The family to draw from.
        family: GraphFamily,
        /// Number of vertices.
        n: usize,
        /// Degree bound / target (family-dependent).
        delta: usize,
        /// Density parameter for the random families.
        p: f64,
        /// Generator seed.
        seed: u64,
    },
    /// Turnstile churn over a `G(n, p)` base graph: edges arrive in
    /// generator order, roughly every third insertion is followed by
    /// the deletion of a random live edge, and `rounds` extra
    /// delete/re-insert oscillations hammer the final live set. The
    /// live graph is the base graph minus the churn casualties; edge
    /// multiplicity never exceeds one.
    Churn {
        /// Number of vertices.
        n: usize,
        /// Degree bound of the base graph.
        delta: usize,
        /// Density of the base `G(n, p)`.
        p: f64,
        /// Generator seed (base graph and churn schedule).
        seed: u64,
        /// Extra delete/re-insert oscillations after the base stream.
        rounds: usize,
    },
    /// Sliding-window turnstile over a `G(n, p)` base graph: edges
    /// arrive in generator order and once more than `window` are live,
    /// every insertion is paired with the deletion of the **oldest**
    /// live edge. The live graph is the last `window` edges (or the
    /// whole base graph when it is smaller).
    SlidingWindow {
        /// Number of vertices.
        n: usize,
        /// Degree bound of the base graph.
        delta: usize,
        /// Density of the base `G(n, p)`.
        p: f64,
        /// Generator seed.
        seed: u64,
        /// Maximum number of live edges.
        window: usize,
    },
}

/// The generator families scenarios can name (mirrors
/// `sc_graph::generators`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphFamily {
    /// `G(n, p)` with degrees capped at `delta`.
    Gnp,
    /// Random graph with *exactly* max degree `delta`.
    ExactDegree,
    /// Preferential attachment with degree cap `delta`.
    PreferentialAttachment,
    /// The `n`-cycle (requires `n ≥ 3`).
    Cycle,
    /// The `n`-path.
    Path,
    /// The complete graph `K_n`.
    Complete,
    /// The `n`-vertex star.
    Star,
    /// Disjoint union of `k` cliques of the given size.
    CliqueUnion {
        /// Number of cliques.
        k: usize,
        /// Vertices per clique.
        size: usize,
    },
    /// Random bipartite with side sizes `a`, `b`.
    Bipartite {
        /// Left side size.
        a: usize,
        /// Right side size.
        b: usize,
    },
    /// The Petersen graph.
    Petersen,
    /// Circulant graph with jumps `1..=delta/2`.
    Circulant,
}

impl SourceSpec {
    /// A stored-graph source.
    pub fn stored(g: Graph) -> Self {
        SourceSpec::Stored(Arc::new(g))
    }

    /// Shorthand: `G(n, p)` capped at `delta`.
    pub fn gnp(n: usize, delta: usize, p: f64, seed: u64) -> Self {
        SourceSpec::Family { family: GraphFamily::Gnp, n, delta, p, seed }
    }

    /// Shorthand: exactly max degree `delta`.
    pub fn exact_degree(n: usize, delta: usize, seed: u64) -> Self {
        SourceSpec::Family { family: GraphFamily::ExactDegree, n, delta, p: 0.3, seed }
    }

    /// Shorthand: churn with the default density.
    pub fn churn(n: usize, delta: usize, seed: u64, rounds: usize) -> Self {
        SourceSpec::Churn { n, delta, p: 0.4, seed, rounds }
    }

    /// Shorthand: sliding window with the default density.
    pub fn sliding_window(n: usize, delta: usize, seed: u64, window: usize) -> Self {
        SourceSpec::SlidingWindow { n, delta, p: 0.4, seed, window }
    }

    /// Whether this source's stream carries deletions. Dynamic sources
    /// need a deletion-supporting colorer
    /// ([`StreamingColorer::supports_deletions`](sc_stream::StreamingColorer::supports_deletions))
    /// and ignore the scenario's [`StreamOrder`] — the signed token
    /// sequence *is* the stream, and permuting it would reorder an edge
    /// past its own deletion.
    pub fn is_dynamic(&self) -> bool {
        matches!(self, SourceSpec::Churn { .. } | SourceSpec::SlidingWindow { .. })
    }

    /// Whether this source can be generated: [`GraphFamily::check`] for
    /// a family, and a density `p ∈ [0, 1]` (NaN refused) wherever the
    /// generator draws edges with it — `gnp`, `bipartite`, and the
    /// dynamic sources' base graph.
    ///
    /// # Errors
    /// Names the family and the violated precondition, or `p`.
    pub fn check(&self) -> Result<(), String> {
        let p = match *self {
            SourceSpec::Stored(_) => return Ok(()),
            SourceSpec::Family { family, n, delta, p, .. } => {
                family.check(n, delta)?;
                match family {
                    GraphFamily::Gnp | GraphFamily::Bipartite { .. } => p,
                    _ => return Ok(()),
                }
            }
            SourceSpec::Churn { p, .. } | SourceSpec::SlidingWindow { p, .. } => p,
        };
        if (0.0..=1.0).contains(&p) {
            Ok(())
        } else {
            Err(format!("field \"p\" = {p} must lie in [0, 1]"))
        }
    }

    /// Builds (or shares) the graph: the whole graph for insert-only
    /// sources, the **live** graph (post-stream) for dynamic ones.
    pub fn materialize(&self) -> Arc<Graph> {
        match self {
            SourceSpec::Stored(g) => Arc::clone(g),
            SourceSpec::Family { family, n, delta, p, seed } => {
                Arc::new(family.generate(*n, *delta, *p, *seed))
            }
            SourceSpec::Churn { n, .. } | SourceSpec::SlidingWindow { n, .. } => {
                let (tokens, _) = self.signed_stream();
                Arc::new(live_graph(*n, &tokens))
            }
        }
    }

    /// The signed token stream of a dynamic source.
    ///
    /// Insert-only sources return their [`SourceSpec::materialize`]
    /// edges as bare insertions (generator order), so every source has
    /// a token form; dynamic sources are where the signs get
    /// interesting.
    pub fn signed_tokens(&self) -> Vec<SignedEdge> {
        match self {
            SourceSpec::Stored(_) | SourceSpec::Family { .. } => {
                self.materialize().edges().map(SignedEdge::insert).collect()
            }
            _ => self.signed_stream().0,
        }
    }

    /// The degree bound colorers should be built with: for dynamic
    /// sources the max degree of the graph of **every edge ever
    /// inserted** (an upper bound on the live degree at every prefix),
    /// for insert-only sources the materialized graph's max degree.
    pub fn stream_delta(&self) -> usize {
        match self {
            SourceSpec::Stored(_) | SourceSpec::Family { .. } => self.materialize().max_degree(),
            _ => self.signed_stream().1,
        }
    }

    /// One generation of what a scenario run needs: the graph its output
    /// is judged against, the degree bound its colorer is built with, and
    /// — for dynamic sources — the signed token stream. Insert-only
    /// sources give the [`SourceSpec::materialize`] graph and its max
    /// degree; dynamic sources give the live graph and the
    /// [`SourceSpec::stream_delta`] bound. [`Generated::tokens`] then
    /// arranges it for one scenario.
    pub(crate) fn generate(&self) -> Generated {
        match self {
            SourceSpec::Stored(_) | SourceSpec::Family { .. } => {
                let graph = self.materialize();
                let delta = graph.max_degree();
                Generated { graph, delta, signed: None }
            }
            SourceSpec::Churn { n, .. } | SourceSpec::SlidingWindow { n, .. } => {
                let (tokens, delta) = self.signed_stream();
                Generated { graph: Arc::new(live_graph(*n, &tokens)), delta, signed: Some(tokens) }
            }
        }
    }

    /// Whether two sources generate the same thing, judged without
    /// generating either: [`SourceSpec::Stored`] graphs by pointer
    /// ([`Arc::ptr_eq`]), everything else by value.
    pub(crate) fn same_generation(&self, other: &SourceSpec) -> bool {
        match (self, other) {
            (SourceSpec::Stored(a), SourceSpec::Stored(b)) => Arc::ptr_eq(a, b),
            (SourceSpec::Stored(_), _) | (_, SourceSpec::Stored(_)) => false,
            _ => self == other,
        }
    }

    /// Generates the token stream and the union-graph max degree.
    fn signed_stream(&self) -> (Vec<SignedEdge>, usize) {
        match *self {
            SourceSpec::Churn { n, delta, p, seed, rounds } => {
                let base = generators::gnp_with_max_degree(n, delta, p, seed);
                let mut rng = SplitMix64::new(seed ^ 0xC0_u64);
                let mut live: Vec<Edge> = Vec::new();
                let mut tokens = Vec::new();
                for e in base.edges() {
                    tokens.push(SignedEdge::insert(e));
                    live.push(e);
                    // Roughly every third insertion, delete a random
                    // live edge (possibly the one just inserted).
                    if rng.below(3) == 0 && !live.is_empty() {
                        let i = rng.below(live.len() as u64) as usize;
                        let victim = live.swap_remove(i);
                        tokens.push(SignedEdge::delete(victim));
                    }
                }
                // Oscillation tail: delete + re-insert leaves the live
                // set unchanged but forces the colorer through real
                // turnstile transitions.
                for _ in 0..rounds {
                    if live.is_empty() {
                        break;
                    }
                    let e = live[rng.below(live.len() as u64) as usize];
                    tokens.push(SignedEdge::delete(e));
                    tokens.push(SignedEdge::insert(e));
                }
                (tokens, base.max_degree())
            }
            SourceSpec::SlidingWindow { n, delta, p, seed, window } => {
                let base = generators::gnp_with_max_degree(n, delta, p, seed);
                let window = window.max(1);
                let mut held: std::collections::VecDeque<Edge> = std::collections::VecDeque::new();
                let mut tokens = Vec::new();
                for e in base.edges() {
                    tokens.push(SignedEdge::insert(e));
                    held.push_back(e);
                    if held.len() > window {
                        let oldest = held.pop_front().expect("window overflow implies an edge");
                        tokens.push(SignedEdge::delete(oldest));
                    }
                }
                (tokens, base.max_degree())
            }
            SourceSpec::Stored(_) | SourceSpec::Family { .. } => {
                unreachable!("insert-only sources take the materialize() path")
            }
        }
    }
}

/// Replays `tokens` over a multiplicity map and returns the live graph
/// (canonical sorted-edge construction).
fn live_graph(n: usize, tokens: &[SignedEdge]) -> Graph {
    let mut live: std::collections::BTreeSet<Edge> = std::collections::BTreeSet::new();
    for t in tokens {
        if t.is_insert() {
            assert!(live.insert(t.edge), "dynamic source inserted duplicate edge {}", t.edge);
        } else {
            assert!(live.remove(&t.edge), "dynamic source deleted absent edge {}", t.edge);
        }
    }
    Graph::from_edges(n, live)
}

/// One generation of a [`SourceSpec`] ([`SourceSpec::generate`]),
/// shareable by every scenario that names the source.
pub(crate) struct Generated {
    /// The graph outputs are judged against (the live graph for dynamic
    /// sources).
    pub(crate) graph: Arc<Graph>,
    /// The degree bound colorers are built with.
    pub(crate) delta: usize,
    /// A dynamic source's signed token stream; `None` for insert-only
    /// sources, whose stream is the graph's edges.
    signed: Option<Vec<SignedEdge>>,
}

impl Generated {
    /// One scenario's token stream: an insert-only source's edges in
    /// `order` as insertions, or a dynamic source's signed stream as-is
    /// (`order` is ignored, see [`SourceSpec::is_dynamic`]).
    pub(crate) fn tokens(&self, order: StreamOrder) -> Cow<'_, [SignedEdge]> {
        match &self.signed {
            Some(tokens) => Cow::Borrowed(tokens),
            None => {
                Cow::Owned(order.arrange(&self.graph).into_iter().map(SignedEdge::insert).collect())
            }
        }
    }
}

impl GraphFamily {
    /// Whether [`GraphFamily::generate`] accepts `n` and `delta` — the
    /// one place family preconditions are decided, so every front end
    /// (CLI flags, spec files, `run_job`) refuses the same specs:
    /// `exact` needs `delta < n`, `cycle` needs `n ≥ 3` and `circulant`
    /// needs `n > 2·max(⌊delta/2⌋, 1)`.
    ///
    /// # Errors
    /// Names the family and the violated precondition.
    pub fn check(self, n: usize, delta: usize) -> Result<(), String> {
        let span = 2 * (delta / 2).max(1);
        match self {
            GraphFamily::ExactDegree if delta >= n => {
                Err(format!("family exact needs delta < n ({delta} ≥ {n})"))
            }
            GraphFamily::Cycle if n < 3 => Err(format!("family cycle needs n ≥ 3 (n = {n})")),
            GraphFamily::Circulant if n <= span => {
                Err(format!("family circulant needs n > 2·max(⌊delta/2⌋, 1) ({n} ≤ {span})"))
            }
            _ => Ok(()),
        }
    }

    /// Generates a graph of this family ([`GraphFamily::check`] decides
    /// the parameters; precondition violations panic, as in
    /// `sc_graph::generators`).
    pub fn generate(self, n: usize, delta: usize, p: f64, seed: u64) -> Graph {
        match self {
            GraphFamily::Gnp => generators::gnp_with_max_degree(n, delta, p, seed),
            GraphFamily::ExactDegree => generators::random_with_exact_max_degree(n, delta, seed),
            GraphFamily::PreferentialAttachment => {
                generators::preferential_attachment(n, 2, delta, seed)
            }
            GraphFamily::Cycle => generators::cycle(n),
            GraphFamily::Path => generators::path(n),
            GraphFamily::Complete => generators::complete(n),
            GraphFamily::Star => generators::star(n),
            GraphFamily::CliqueUnion { k, size } => generators::clique_union(k, size),
            GraphFamily::Bipartite { a, b } => generators::random_bipartite(a, b, p, delta, seed),
            GraphFamily::Petersen => generators::petersen(),
            GraphFamily::Circulant => generators::circulant(n, (delta / 2).max(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_source_shares_one_graph() {
        let spec = SourceSpec::stored(generators::complete(5));
        let a = spec.materialize();
        let b = spec.materialize();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.m(), 10);
    }

    #[test]
    fn same_generation_compares_stored_graphs_by_pointer() {
        let g = generators::complete(5);
        let stored = SourceSpec::stored(g.clone());
        assert!(stored.same_generation(&stored.clone()));
        assert!(!stored.same_generation(&SourceSpec::stored(g)), "equal graphs, two Arcs");
        let gnp = SourceSpec::gnp(60, 6, 0.4, 9);
        assert!(gnp.same_generation(&SourceSpec::gnp(60, 6, 0.4, 9)));
        assert!(!gnp.same_generation(&SourceSpec::gnp(60, 6, 0.4, 10)));
        assert!(!gnp.same_generation(&stored) && !stored.same_generation(&gnp));
    }

    #[test]
    fn family_sources_are_reproducible() {
        let spec = SourceSpec::gnp(60, 6, 0.4, 9);
        let a = spec.materialize();
        let b = spec.materialize();
        assert_eq!(*a, *b);
        assert!(a.max_degree() <= 6);
    }

    #[test]
    fn churn_streams_are_reproducible_and_single_multiplicity() {
        let spec = SourceSpec::churn(40, 6, 11, 8);
        assert!(spec.is_dynamic());
        let a = spec.signed_tokens();
        let b = spec.signed_tokens();
        assert_eq!(a, b, "token stream must be seed-deterministic");
        assert!(a.iter().any(|t| !t.is_insert()), "churn must actually delete");
        // Replaying must never go below zero or above one per edge —
        // live_graph asserts exactly that.
        let live = spec.materialize();
        assert_eq!(live.n(), 40);
        assert!(live.max_degree() <= spec.stream_delta());
        let inserts = a.iter().filter(|t| t.is_insert()).count();
        let deletes = a.len() - inserts;
        assert_eq!(live.m(), inserts - deletes);
        let generated = spec.generate();
        assert_eq!((&generated.graph, generated.delta), (&live, spec.stream_delta()));
        assert_eq!(generated.tokens(StreamOrder::HubsLast), a, "a signed stream ignores the order");
    }

    #[test]
    fn sliding_window_caps_live_edges() {
        let spec = SourceSpec::sliding_window(40, 6, 3, 10);
        assert!(spec.is_dynamic());
        let tokens = spec.signed_tokens();
        let mut live = 0usize;
        let mut peak = 0usize;
        for t in &tokens {
            if t.is_insert() {
                live += 1;
            } else {
                live -= 1;
            }
            peak = peak.max(live);
        }
        assert!(peak <= 11, "window of 10 allows one transient overshoot, saw {peak}");
        assert_eq!(spec.materialize().m(), live);
        assert!(spec.materialize().m() <= 10);
    }

    #[test]
    fn insert_only_sources_token_form_is_bare_insertions() {
        let spec = SourceSpec::exact_degree(30, 4, 2);
        assert!(!spec.is_dynamic());
        let tokens = spec.signed_tokens();
        assert!(tokens.iter().all(|t| t.is_insert()));
        assert_eq!(tokens.len(), spec.materialize().m());
        assert_eq!(spec.stream_delta(), spec.materialize().max_degree());
        let generated = spec.generate();
        let g = &generated.graph;
        assert_eq!((&**g, generated.delta), (&*spec.materialize(), spec.stream_delta()));
        let tokens = generated.tokens(StreamOrder::Shuffled(3));
        let edges: Vec<Edge> = tokens.iter().map(|t| t.edge).collect();
        assert_eq!(edges, StreamOrder::Shuffled(3).arrange(g), "tokens follow the order");
    }

    #[test]
    fn every_family_generates() {
        for family in [
            GraphFamily::Gnp,
            GraphFamily::ExactDegree,
            GraphFamily::PreferentialAttachment,
            GraphFamily::Cycle,
            GraphFamily::Path,
            GraphFamily::Complete,
            GraphFamily::Star,
            GraphFamily::CliqueUnion { k: 3, size: 4 },
            GraphFamily::Bipartite { a: 10, b: 12 },
            GraphFamily::Petersen,
            GraphFamily::Circulant,
        ] {
            let g = family.generate(24, 4, 0.3, 1);
            assert!(g.n() > 0, "{family:?} generated an empty graph");
        }
    }
}
