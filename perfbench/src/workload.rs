//! Workload inputs, generated from the `--seed` argument.
//!
//! A session workload is a list of connection plans. Each plan holds the
//! sessions one client connection owns and the protocol lines of one
//! *round*: open every session, stream every token, observe at the
//! workload's cadence, finish. The socket run repeats rounds until its
//! time is up; every round sends the same lines, so one in-process
//! replay of a round is the expected transcript of all of them.

use crate::stats::mix;
use sc_engine::SourceSpec;
use sc_graph::generators;
use sc_stream::{encode_signed_list, SignedEdge};
use std::ops::Range;
use std::sync::Arc;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["bulk-ingest", "adaptive-game", "turnstile-churn", "paper-grid"];

/// Most client connections (and the stdio workers of `paper-grid`): the
/// machine this benchmark was sized on has two cores.
pub const CONNECTIONS: usize = 2;

/// What a protocol line does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `open`.
    Open,
    /// `push` or `push_batch`.
    Push,
    /// `observe`.
    Observe,
    /// `finish`.
    Finish,
}

/// One session a connection owns.
pub struct SessionPlan {
    /// Session name on the wire.
    pub name: String,
    /// Colorer wire id (`robust`, `rand-efficient`, …).
    pub colorer: &'static str,
    /// Vertices.
    pub n: usize,
    /// Declared degree bound.
    pub delta: usize,
    /// Colorer seed.
    pub seed: u64,
    /// The session's whole token stream.
    pub stream: Arc<Vec<SignedEdge>>,
}

/// One protocol line of a round.
pub struct Cmd {
    /// The line, without its newline.
    pub line: String,
    /// What it does.
    pub kind: Kind,
    /// Index into [`ConnPlan::sessions`].
    pub session: usize,
    /// For pushes, the tokens it carries as a range of the session's
    /// stream; empty otherwise.
    pub tokens: Range<usize>,
}

/// The sessions and round lines of one connection.
pub struct ConnPlan {
    /// Sessions, in open order.
    pub sessions: Vec<SessionPlan>,
    /// The lines of one round.
    pub cmds: Vec<Cmd>,
}

impl ConnPlan {
    /// The leading `open` lines.
    pub fn opens(&self) -> &[Cmd] {
        let k = self.cmds.iter().take_while(|c| c.kind == Kind::Open).count();
        &self.cmds[..k]
    }

    /// Tokens one round pushes.
    pub fn tokens(&self) -> usize {
        self.cmds.iter().map(|c| c.tokens.len()).sum()
    }
}

/// How a round feeds its sessions.
enum Cadence {
    /// `push_batch` lines of `batch` tokens, round-robin over sessions,
    /// an `observe` of every session after each `observe_every` batches
    /// and at the end.
    Batched { batch: usize, observe_every: usize },
    /// One single-edge `push` then one `observe`, per session, per edge.
    PerEdge,
}

/// The connection plans of a session workload, or `None` for
/// `paper-grid` and unknown names.
pub fn session_plans(workload: &str, seed: u64) -> Option<Vec<ConnPlan>> {
    // `turnstile-churn` runs one connection: its observes are milliseconds
    // of sketch decode each, and a second connection's decodes would put
    // a seed-dependent queueing delay into every one.
    let connections = if workload == "turnstile-churn" { 1 } else { CONNECTIONS };
    let plans = (0..connections as u64)
        .map(|c| {
            let base = mix(seed, 0x100 + c);
            match workload {
                "bulk-ingest" => {
                    let (n, delta) = (3000, 32);
                    let stream = insert_stream(n, delta, 0.03, base);
                    let colorers = ["robust", "rand-efficient", "bg18", "store-all"];
                    let cadence = Cadence::Batched { batch: 256, observe_every: 16 };
                    Some(plan(&colorers, n, delta, base, &stream, &cadence))
                }
                "adaptive-game" => {
                    let (n, delta) = (300, 16);
                    let stream = insert_stream(n, delta, 0.12, base);
                    let colorers = ["robust", "rand-efficient", "store-all"];
                    Some(plan(&colorers, n, delta, base, &stream, &Cadence::PerEdge))
                }
                "turnstile-churn" => {
                    let (n, delta) = (400, 16);
                    let source = SourceSpec::churn(n, delta, base, 1500);
                    let stream = Arc::new(source.signed_tokens());
                    let delta = source.stream_delta();
                    let cadence = Cadence::Batched { batch: 256, observe_every: 1 };
                    Some(plan(&["dynamic-sr"], n, delta, base, &stream, &cadence))
                }
                _ => None,
            }
        })
        .collect::<Option<Vec<_>>>()?;
    Some(plans)
}

/// A Δ-capped `G(n, p)` graph's edges in shuffled arrival order, as
/// insertion tokens.
fn insert_stream(n: usize, delta: usize, p: f64, seed: u64) -> Arc<Vec<SignedEdge>> {
    let g = generators::gnp_with_max_degree(n, delta, p, seed);
    Arc::new(
        generators::shuffled_edges(&g, mix(seed, 1)).into_iter().map(SignedEdge::insert).collect(),
    )
}

fn plan(
    colorers: &[&'static str],
    n: usize,
    delta: usize,
    base: u64,
    stream: &Arc<Vec<SignedEdge>>,
    cadence: &Cadence,
) -> ConnPlan {
    let sessions: Vec<SessionPlan> = colorers
        .iter()
        .enumerate()
        .map(|(i, &colorer)| SessionPlan {
            name: format!("s{i}-{colorer}"),
            colorer,
            n,
            delta,
            seed: mix(base, 0x200 + i as u64) % 1_000_000_007,
            stream: Arc::clone(stream),
        })
        .collect();
    let mut cmds = Vec::new();
    let simple = |kind: Kind, s: usize, cmds: &mut Vec<Cmd>| {
        let name = &sessions[s].name;
        let cmd = match kind {
            Kind::Observe => "observe",
            Kind::Finish => "finish",
            Kind::Open | Kind::Push => unreachable!("built below"),
        };
        cmds.push(Cmd {
            line: format!(r#"{{"cmd":"{cmd}","session":"{name}"}}"#),
            kind,
            session: s,
            tokens: 0..0,
        });
    };
    for (i, s) in sessions.iter().enumerate() {
        cmds.push(Cmd {
            line: format!(
                r#"{{"cmd":"open","session":"{}","n":{},"delta":{},"colorer":"{}","seed":{}}}"#,
                s.name, s.n, s.delta, s.colorer, s.seed
            ),
            kind: Kind::Open,
            session: i,
            tokens: 0..0,
        });
    }
    match *cadence {
        Cadence::Batched { batch, observe_every } => {
            let batches = stream.len().div_ceil(batch);
            for b in 0..batches {
                let range = b * batch..((b + 1) * batch).min(stream.len());
                let edges = encode_signed_list(&stream[range.clone()]);
                for (i, s) in sessions.iter().enumerate() {
                    cmds.push(Cmd {
                        line: format!(
                            r#"{{"cmd":"push_batch","session":"{}","edges":"{edges}"}}"#,
                            s.name
                        ),
                        kind: Kind::Push,
                        session: i,
                        tokens: range.clone(),
                    });
                }
                if (b + 1) % observe_every == 0 || b + 1 == batches {
                    for i in 0..sessions.len() {
                        simple(Kind::Observe, i, &mut cmds);
                    }
                }
            }
        }
        Cadence::PerEdge => {
            for (k, t) in stream.iter().enumerate() {
                for (i, s) in sessions.iter().enumerate() {
                    cmds.push(Cmd {
                        line: format!(
                            r#"{{"cmd":"push","session":"{}","edge":"{}-{}"}}"#,
                            s.name,
                            t.edge.u(),
                            t.edge.v()
                        ),
                        kind: Kind::Push,
                        session: i,
                        tokens: k..k + 1,
                    });
                    simple(Kind::Observe, i, &mut cmds);
                }
            }
        }
    }
    for i in 0..sessions.len() {
        simple(Kind::Finish, i, &mut cmds);
    }
    ConnPlan { sessions, cmds }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seed_deterministic_and_well_formed() {
        for w in ["bulk-ingest", "adaptive-game", "turnstile-churn"] {
            let a = session_plans(w, 3).unwrap();
            let b = session_plans(w, 3).unwrap();
            assert!(!a.is_empty() && a.len() <= CONNECTIONS);
            for (pa, pb) in a.iter().zip(&b) {
                let la: Vec<&str> = pa.cmds.iter().map(|c| c.line.as_str()).collect();
                let lb: Vec<&str> = pb.cmds.iter().map(|c| c.line.as_str()).collect();
                assert_eq!(la, lb, "{w}: same seed, different lines");
                assert_eq!(pa.opens().len(), pa.sessions.len());
                assert_eq!(pa.cmds.last().unwrap().kind, Kind::Finish);
                // Every token is pushed exactly once per session.
                assert_eq!(pa.tokens(), pa.sessions.len() * pa.sessions[0].stream.len());
            }
            let other = session_plans(w, 4).unwrap();
            let first_push = |p: &ConnPlan| p.cmds[p.opens().len()].line.clone();
            assert_ne!(first_push(&a[0]), first_push(&other[0]), "{w}: seed ignored");
        }
        assert!(session_plans("paper-grid", 1).is_none());
        assert!(session_plans("nope", 1).is_none());
    }
}
