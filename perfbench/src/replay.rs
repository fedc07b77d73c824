//! In-process replay of a round through `Service::respond_as`.
//!
//! The replay is the reference the socket transcript must match byte for
//! byte (compared through per-line digests), and the place every
//! coloring is checked for properness against the client-side graph.

use crate::stats::digest;
use crate::workload::{ConnPlan, Kind};
use sc_engine::flatjson::{parse_object, Scalar};
use sc_graph::Edge;
use sc_service::Service;
use std::collections::HashMap;

/// What one replayed round produced.
#[derive(Debug, Default)]
pub struct Replay {
    /// Digest of each reply, in command order.
    pub digests: Vec<u64>,
    /// Largest `colors` of any `finish` reply.
    pub colors: u64,
    /// Sum of the `finish` replies' peak `space_bits`.
    pub space_bits: u64,
    /// Checks that failed, each naming the command.
    pub failures: Vec<String>,
}

/// Replays one round of `plan` on a fresh in-process service: every
/// reply must be `ok` and every coloring proper for its session's live
/// graph.
pub fn replay(plan: &ConnPlan) -> Replay {
    let mut service = Service::new();
    let mut out = Replay::default();
    let mut checker = Checker::new(plan);
    for (i, cmd) in plan.cmds.iter().enumerate() {
        let reply = service.respond_as(1, &cmd.line).unwrap_or_default();
        out.digests.push(digest(reply.as_bytes()));
        checker.check(plan, i, &reply, &mut out);
    }
    out
}

/// The live edges of one session, with O(1) deletion.
#[derive(Default)]
struct Live {
    edges: Vec<Edge>,
    slot: HashMap<Edge, usize>,
}

impl Live {
    fn apply(&mut self, t: sc_stream::SignedEdge) {
        if t.is_insert() {
            self.slot.insert(t.edge, self.edges.len());
            self.edges.push(t.edge);
        } else if let Some(i) = self.slot.remove(&t.edge) {
            self.edges.swap_remove(i);
            if let Some(&moved) = self.edges.get(i) {
                self.slot.insert(moved, i);
            }
        }
    }
}

/// Per-session live graphs, advanced command by command.
struct Checker {
    live: Vec<Live>,
    cells: Vec<Option<u64>>,
}

impl Checker {
    fn new(plan: &ConnPlan) -> Self {
        Self { live: plan.sessions.iter().map(|_| Live::default()).collect(), cells: Vec::new() }
    }

    fn check(&mut self, plan: &ConnPlan, i: usize, reply: &str, out: &mut Replay) {
        let cmd = &plan.cmds[i];
        let session = &plan.sessions[cmd.session];
        let fail = |why: String| format!("command {i} ({}): {why}", session.name);
        if !reply.contains("\"ok\":true") {
            out.failures.push(fail(format!("not ok: {}", truncate(reply))));
            return;
        }
        match cmd.kind {
            Kind::Open => {}
            Kind::Push => {
                for &t in &session.stream[cmd.tokens.clone()] {
                    self.live[cmd.session].apply(t);
                }
            }
            Kind::Observe | Kind::Finish => {
                if let Err(why) = parse_cells(reply, session.n, &mut self.cells) {
                    out.failures.push(fail(why));
                    return;
                }
                let cells = &self.cells;
                if let Some(e) = self.live[cmd.session].edges.iter().find(|e| {
                    let (a, b) = (cells[e.u() as usize], cells[e.v() as usize]);
                    a.is_none() || b.is_none() || a == b
                }) {
                    out.failures.push(fail(format!("improper coloring at edge {e}")));
                }
                if cmd.kind == Kind::Finish {
                    let obj = parse_object(reply).unwrap_or_default();
                    let field = |k: &str| obj.get(k).and_then(Scalar::as_u64).unwrap_or(0);
                    out.colors = out.colors.max(field("colors"));
                    out.space_bits += field("space_bits");
                }
            }
        }
    }
}

/// Parses the reply's `"coloring":"0,1,-,2"` field into `cells`.
fn parse_cells(reply: &str, n: usize, cells: &mut Vec<Option<u64>>) -> Result<(), String> {
    const KEY: &str = "\"coloring\":\"";
    let start = reply.find(KEY).ok_or("reply has no coloring")? + KEY.len();
    let len = reply[start..].find('"').ok_or("unterminated coloring")?;
    cells.clear();
    for cell in reply[start..start + len].split(',') {
        cells.push(if cell == "-" {
            None
        } else {
            Some(cell.parse().map_err(|_| format!("bad coloring cell {cell:?}"))?)
        });
    }
    if cells.len() != n {
        return Err(format!("coloring has {} cells, expected {n}", cells.len()));
    }
    Ok(())
}

fn truncate(s: &str) -> String {
    s.chars().take(200).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::session_plans;

    #[test]
    fn replays_are_deterministic_and_pass_their_checks() {
        let plans = session_plans("turnstile-churn", 1).unwrap();
        let a = replay(&plans[0]);
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert!(a.colors > 0 && a.space_bits > 0);
        assert_eq!(a.digests.len(), plans[0].cmds.len());
        assert_eq!(a.digests, replay(&plans[0]).digests);
    }

    #[test]
    fn coloring_cells_parse_and_malformed_cells_are_rejected() {
        let mut cells = Vec::new();
        parse_cells(r#"{"coloring":"0,0,-","ok":true}"#, 3, &mut cells).unwrap();
        assert_eq!(cells, vec![Some(0), Some(0), None]);
        assert!(parse_cells(r#"{"coloring":"0,x"}"#, 2, &mut cells).is_err());
        assert!(parse_cells(r#"{"coloring":"0"}"#, 2, &mut cells).is_err());
    }
}
