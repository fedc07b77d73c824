//! The adaptive-adversary game (paper §2, "Adversarially Robust
//! Streaming").
//!
//! The adversary produces the stream one token at a time; after every
//! token the algorithm reports an output, and the next token may depend
//! on the whole transcript. The algorithm errs if *any* intermediate
//! output is improper. There is one game: a token is an insertion or a
//! deletion, and an insert-only adversary simply never deletes.
//! [`referee`] is the one loop that judges that interaction,
//! maintaining the ground-truth graph (which the algorithm never sees)
//! and validating every output against it; [`run_game`] runs it
//! against an in-process colorer.

use sc_graph::{Coloring, Edge, Graph};
use sc_stream::{EngineConfig, Session, SignedEdge, StreamingColorer};

/// An adaptive stream-generating adversary.
pub trait Adversary {
    /// Produces the next edge, given the algorithm's latest output and the
    /// current ground-truth graph (the adversary knows its own insertions).
    /// Returning `None` ends the game.
    fn next_edge(&mut self, last_output: &Coloring, graph: &Graph) -> Option<Edge>;

    /// Produces the next **signed** token — the move [`referee`] asks
    /// for. The default wraps [`Adversary::next_edge`] as an insertion,
    /// so an insert-only adversary only implements `next_edge`;
    /// deletion-aware attackers override this.
    fn next_token(&mut self, last_output: &Coloring, graph: &Graph) -> Option<SignedEdge> {
        self.next_edge(last_output, graph).map(SignedEdge::insert)
    }

    /// Display name for reports.
    fn name(&self) -> &'static str;
}

/// Outcome of one adversarial game.
#[derive(Debug, Clone)]
pub struct GameReport {
    /// Tokens the adversary produced.
    pub rounds: usize,
    /// How many of those tokens were deletions (0 for an insert-only
    /// adversary).
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

/// The colorer side of the game, as [`referee`] sees it. A borrowing
/// [`Session`] is the in-process victim; `sc-service` implements this
/// for a protocol-line client. Errors name what the victim rejected.
pub trait Victim {
    /// Feeds one token.
    fn push(&mut self, token: SignedEdge) -> Result<(), String>;
    /// Queries the coloring of the current prefix.
    fn observe(&mut self) -> Result<(Coloring, usize), String>;
}

impl<C: StreamingColorer + ?Sized> Victim for Session<&mut C> {
    fn push(&mut self, token: SignedEdge) -> Result<(), String> {
        self.push_signed(token)
    }

    fn observe(&mut self) -> Result<(Coloring, usize), String> {
        let observed = Session::observe(self);
        Ok((observed.coloring, observed.colors))
    }
}

/// The one adaptive-game loop, for at most `max_rounds` tokens on `n`
/// vertices: the adversary sees the last output and moves
/// ([`Adversary::next_token`]); the referee updates the ground-truth
/// graph, pushes, observes, and judges the coloring.
///
/// # Errors
/// The victim's first rejected push or failed observation.
///
/// # Panics
/// Names the adversary if it re-inserts a live edge or deletes an
/// absent one (a malformed adversary, never the colorer's fault).
pub fn referee<V, A>(
    victim: &mut V,
    adversary: &mut A,
    n: usize,
    max_rounds: usize,
) -> Result<GameReport, String>
where
    V: Victim + ?Sized,
    A: Adversary + ?Sized,
{
    let mut report = GameReport {
        rounds: 0,
        deletions: 0,
        improper_outputs: 0,
        first_failure_round: None,
        max_colors: 0,
        final_graph: Graph::empty(n),
    };
    // The empty-graph output is proper, but the adversary sees it
    // before its first move.
    let (mut output, _) = victim.observe()?;
    for round in 1..=max_rounds {
        let Some(t) = adversary.next_token(&output, &report.final_graph) else { break };
        let (e, graph) = (t.edge, &mut report.final_graph);
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
            report.deletions += 1;
        }
        victim.push(t)?;
        let (coloring, colors) = victim.observe()?;
        report.rounds = round;
        report.max_colors = report.max_colors.max(colors);
        if !coloring.is_proper_total(&report.final_graph) {
            report.improper_outputs += 1;
            report.first_failure_round.get_or_insert(round);
        }
        output = coloring;
    }
    Ok(report)
}

/// Referees a game between `colorer` and `adversary` on `n` vertices for
/// at most `max_rounds` tokens.
///
/// The adversary sees each output *before* choosing the next token —
/// exactly the adaptive model. Every output is validated against the
/// ground-truth (live) graph. The referee enforces stream sanity: an
/// inserted edge must be absent, a deleted edge present (simple-graph
/// multiplicities — it panics on a malformed adversary rather than
/// blaming the colorer). A deleting adversary needs a colorer that
/// supports deletions; an insert-only colorer's offender-naming
/// rejection propagates as a panic.
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
/// The game forces per-token chunking and observation (the adaptive
/// model), but the config controls the *query path*: the default routes every
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
    let mut session = Session::borrowing(colorer, EngineConfig { chunk_size: 1, ..config });
    referee(&mut session, adversary, n, max_rounds)
        .unwrap_or_else(|err| panic!("game referee rejected a token: {err}"))
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
    #[should_panic(expected = "insert-only colorer cannot delete edge")]
    fn signed_game_names_insert_only_colorers_on_deletion() {
        struct InsertDelete(usize);
        impl crate::game::Adversary for InsertDelete {
            fn next_edge(&mut self, _: &Coloring, _: &Graph) -> Option<Edge> {
                unreachable!("the referee asks for next_token")
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
        let _ = run_game(&mut colorer, &mut InsertDelete(0), 10, 10);
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
