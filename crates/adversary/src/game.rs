//! The adaptive-adversary game (paper §2, "Adversarially Robust
//! Streaming").
//!
//! The adversary produces the stream one edge at a time; after every
//! insertion the algorithm reports an output, and the next edge may depend
//! on the whole transcript. The algorithm errs if *any* intermediate
//! output is improper. [`run_game`] referees exactly that interaction,
//! maintaining the ground-truth graph (which the algorithm never sees) and
//! validating every output against it.

use sc_graph::{Coloring, Edge, Graph};
use sc_stream::{EngineConfig, Session, SignedEdge, StreamingColorer};

/// An adaptive stream-generating adversary.
pub trait Adversary {
    /// Produces the next edge, given the algorithm's latest output and the
    /// current ground-truth graph (the adversary knows its own insertions).
    /// Returning `None` ends the game.
    fn next_edge(&mut self, last_output: &Coloring, graph: &Graph) -> Option<Edge>;

    /// Produces the next **signed** token for turnstile games
    /// ([`run_signed_game`]). The default wraps [`Adversary::next_edge`]
    /// as an insertion, so every insert-only adversary plays the signed
    /// game unchanged; deletion-aware attackers override this.
    fn next_token(&mut self, last_output: &Coloring, graph: &Graph) -> Option<SignedEdge> {
        self.next_edge(last_output, graph).map(SignedEdge::insert)
    }

    /// Display name for reports.
    fn name(&self) -> &'static str;
}

/// Outcome of one adversarial game.
#[derive(Debug, Clone)]
pub struct GameReport {
    /// Tokens the adversary produced (insertions in the classic game).
    pub rounds: usize,
    /// How many of those tokens were deletions (0 in the classic game).
    pub deletions: usize,
    /// Outputs that were improper for the graph-so-far (the paper's error
    /// events; a robust algorithm with error `δ` should have none, w.h.p.).
    pub improper_outputs: usize,
    /// Round index (1-based) of the first improper output, if any.
    pub first_failure_round: Option<usize>,
    /// Maximum distinct colors over all outputs.
    pub max_colors: usize,
    /// The final adversarially built graph.
    pub final_graph: Graph,
}

impl GameReport {
    /// Whether the algorithm survived every query.
    pub fn survived(&self) -> bool {
        self.improper_outputs == 0
    }
}

/// Referees a game between `colorer` and `adversary` on `n` vertices for
/// at most `max_rounds` insertions.
///
/// The adversary sees each output *before* choosing the next edge —
/// exactly the adaptive model. Every output is validated against the
/// ground-truth graph.
///
/// # Example
/// ```
/// use sc_adversary::{run_game, MonochromaticAttacker};
/// use streamcolor::RobustColorer;
///
/// let (n, delta) = (80, 8);
/// let mut attacker = MonochromaticAttacker::new(n, delta, 1);
/// let mut colorer = RobustColorer::new(n, delta, 2);
/// let report = run_game(&mut colorer, &mut attacker, n, 200);
/// assert!(report.survived(), "robust colorers withstand the feedback attack");
/// ```
pub fn run_game<C, A>(colorer: &mut C, adversary: &mut A, n: usize, max_rounds: usize) -> GameReport
where
    C: StreamingColorer + ?Sized,
    A: Adversary + ?Sized,
{
    run_game_with_config(colorer, adversary, n, max_rounds, EngineConfig::per_edge())
}

/// [`run_game`] with an explicit engine configuration.
///
/// The game still forces per-edge observation (the adaptive model), but
/// the config controls the *query path*: the default routes every
/// per-round observation through
/// [`StreamingColorer::query_incremental`], which the colorer contract
/// makes observationally identical to from-scratch queries —
/// [`EngineConfig::scratch_queries`] opts out, which benchmarks use to
/// measure the incremental path's end-to-end effect on game wall-clock.
pub fn run_game_with_config<C, A>(
    colorer: &mut C,
    adversary: &mut A,
    n: usize,
    max_rounds: usize,
    config: EngineConfig,
) -> GameReport
where
    C: StreamingColorer + ?Sized,
    A: Adversary + ?Sized,
{
    let mut graph = Graph::empty(n);
    let mut improper = 0usize;
    let mut first_failure = None;
    let mut max_colors = 0usize;
    let mut rounds = 0usize;

    // The game is the engine's checkpoint loop made interactive: every
    // round pushes one edge and observes the prefix. Per-edge chunking is
    // forced by the model — the adversary sees each output before its
    // next move.
    let mut session = Session::borrowing(colorer, EngineConfig { chunk_size: 1, ..config });

    // Initial output (empty graph — everything is proper, but the
    // adversary gets to see the coloring before its first move).
    let mut output: Coloring = session.observe().coloring;

    for round in 1..=max_rounds {
        let Some(e) = adversary.next_edge(&output, &graph) else { break };
        debug_assert!(
            !graph.has_edge(e.u(), e.v()),
            "adversary repeated edge {e} (streams are edge-insertion-only)"
        );
        graph.add_edge(e);
        session.push(e);
        rounds = round;

        let observed = session.observe();
        max_colors = max_colors.max(observed.colors);
        output = observed.coloring;
        if !output.is_proper_total(&graph) {
            improper += 1;
            if first_failure.is_none() {
                first_failure = Some(round);
            }
        }
    }

    GameReport {
        rounds,
        deletions: 0,
        improper_outputs: improper,
        first_failure_round: first_failure,
        max_colors,
        final_graph: graph,
    }
}

/// Referees a **turnstile** game: the adversary may delete as well as
/// insert, and every output is validated against the *live* graph.
///
/// Same adaptive discipline as [`run_game`] (per-token observation), with
/// the referee enforcing stream sanity: an inserted edge must be absent,
/// a deleted edge present (simple-graph multiplicities — the referee
/// panics on a malformed adversary rather than blaming the colorer). The
/// colorer must support deletions; an insert-only colorer's
/// offender-naming rejection propagates as a panic.
pub fn run_signed_game<C, A>(
    colorer: &mut C,
    adversary: &mut A,
    n: usize,
    max_rounds: usize,
) -> GameReport
where
    C: StreamingColorer + ?Sized,
    A: Adversary + ?Sized,
{
    run_signed_game_with_config(colorer, adversary, n, max_rounds, EngineConfig::per_edge())
}

/// [`run_signed_game`] with an explicit engine configuration (see
/// [`run_game_with_config`] for what the config governs).
pub fn run_signed_game_with_config<C, A>(
    colorer: &mut C,
    adversary: &mut A,
    n: usize,
    max_rounds: usize,
    config: EngineConfig,
) -> GameReport
where
    C: StreamingColorer + ?Sized,
    A: Adversary + ?Sized,
{
    let mut graph = Graph::empty(n);
    let mut improper = 0usize;
    let mut first_failure = None;
    let mut max_colors = 0usize;
    let mut rounds = 0usize;
    let mut deletions = 0usize;

    let mut session = Session::borrowing(colorer, EngineConfig { chunk_size: 1, ..config });
    let mut output: Coloring = session.observe().coloring;

    for round in 1..=max_rounds {
        let Some(t) = adversary.next_token(&output, &graph) else { break };
        let e = t.edge;
        if t.is_insert() {
            assert!(
                !graph.has_edge(e.u(), e.v()),
                "adversary {} re-inserted live edge {e} (simple graphs only)",
                adversary.name()
            );
            graph.add_edge(e);
        } else {
            assert!(
                graph.has_edge(e.u(), e.v()),
                "adversary {} deleted absent edge {e}",
                adversary.name()
            );
            graph.remove_edge(e);
            deletions += 1;
        }
        session
            .push_signed(t)
            .unwrap_or_else(|err| panic!("signed game referee rejected a token: {err}"));
        rounds = round;

        let observed = session.observe();
        max_colors = max_colors.max(observed.colors);
        output = observed.coloring;
        if !output.is_proper_total(&graph) {
            improper += 1;
            if first_failure.is_none() {
                first_failure = Some(round);
            }
        }
    }

    GameReport {
        rounds,
        deletions,
        improper_outputs: improper,
        first_failure_round: first_failure,
        max_colors,
        final_graph: graph,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attackers::ObliviousReplay;
    use sc_graph::generators;
    use streamcolor::RobustColorer;

    #[test]
    fn replay_game_matches_oblivious_run() {
        let g = generators::gnp_with_max_degree(40, 6, 0.4, 1);
        let edges = generators::shuffled_edges(&g, 1);
        let mut adversary = ObliviousReplay::new(edges.clone());
        let mut colorer = RobustColorer::new(40, 6, 77);
        let report = run_game(&mut colorer, &mut adversary, 40, 10_000);
        assert_eq!(report.rounds, edges.len());
        assert!(report.survived(), "robust colorer must survive a replay");
        assert_eq!(report.final_graph.m(), g.m());
    }

    #[test]
    fn scratch_and_incremental_games_are_identical() {
        // The adaptive transcript itself (not just one output) must be
        // unchanged by the query path: the adversary reacts to every
        // coloring, so any divergence would compound.
        let g = generators::gnp_with_max_degree(40, 6, 0.4, 5);
        let edges = generators::shuffled_edges(&g, 5);
        let run = |config: EngineConfig| {
            let mut adversary = ObliviousReplay::new(edges.iter().copied());
            let mut colorer = RobustColorer::new(40, 6, 21);
            run_game_with_config(&mut colorer, &mut adversary, 40, 10_000, config)
        };
        let inc = run(EngineConfig::per_edge());
        let scr = run(EngineConfig::per_edge().scratch_queries());
        assert_eq!(inc.rounds, scr.rounds);
        assert_eq!(inc.improper_outputs, scr.improper_outputs);
        assert_eq!(inc.max_colors, scr.max_colors);
        assert_eq!(inc.final_graph.m(), scr.final_graph.m());
    }

    #[test]
    fn signed_game_with_insert_only_adversary_matches_classic_game() {
        let g = generators::gnp_with_max_degree(40, 6, 0.4, 3);
        let edges = generators::shuffled_edges(&g, 3);
        let classic = {
            let mut adversary = ObliviousReplay::new(edges.clone());
            let mut colorer = RobustColorer::new(40, 6, 8);
            run_game(&mut colorer, &mut adversary, 40, 10_000)
        };
        let signed = {
            let mut adversary = ObliviousReplay::new(edges);
            let mut colorer = RobustColorer::new(40, 6, 8);
            run_signed_game(&mut colorer, &mut adversary, 40, 10_000)
        };
        assert_eq!(signed.rounds, classic.rounds);
        assert_eq!(signed.deletions, 0);
        assert_eq!(signed.improper_outputs, classic.improper_outputs);
        assert_eq!(signed.max_colors, classic.max_colors);
        assert_eq!(signed.final_graph.m(), classic.final_graph.m());
    }

    #[test]
    #[should_panic(expected = "insert-only colorer cannot delete edge")]
    fn signed_game_names_insert_only_colorers_on_deletion() {
        struct InsertDelete(usize);
        impl crate::game::Adversary for InsertDelete {
            fn next_edge(&mut self, _: &Coloring, _: &Graph) -> Option<Edge> {
                unreachable!("signed game uses next_token")
            }
            fn next_token(&mut self, _: &Coloring, _: &Graph) -> Option<sc_stream::SignedEdge> {
                self.0 += 1;
                match self.0 {
                    1 => Some(sc_stream::SignedEdge::insert(Edge::new(0, 1))),
                    2 => Some(sc_stream::SignedEdge::delete(Edge::new(0, 1))),
                    _ => None,
                }
            }
            fn name(&self) -> &'static str {
                "insert-delete"
            }
        }
        let mut colorer = RobustColorer::new(10, 3, 1);
        let _ = run_signed_game(&mut colorer, &mut InsertDelete(0), 10, 10);
    }

    #[test]
    fn game_stops_at_max_rounds() {
        let g = generators::complete(20);
        let mut adversary = ObliviousReplay::new(g.edges());
        let mut colorer = RobustColorer::new(20, 19, 3);
        let report = run_game(&mut colorer, &mut adversary, 20, 5);
        assert_eq!(report.rounds, 5);
        assert_eq!(report.final_graph.m(), 5);
    }
}
