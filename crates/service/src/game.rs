//! The adaptive-adversary game played over the service line protocol.
//!
//! [`sc_adversary::run_game`] referees the game against an in-process
//! colorer; this module plays the *same* game — the same
//! [`sc_adversary::referee`] loop — where the victim lives behind a
//! [`Service`] and every interaction is a literal protocol line:
//! `open`, then `push`/`observe` per round, exactly what a remote
//! client would send. The adversary reacts to the coloring parsed back
//! out of each `observe` response, so the test below is end-to-end
//! evidence that colorings survive the wire: any encode/decode drift
//! would change the adaptive transcript and diverge from the in-process
//! game.

use crate::service::{parse_coloring, Service};
use sc_adversary::{referee, Adversary, GameReport, Victim};
use sc_engine::flatjson::{encode_object, parse_object, FlatObject, Scalar};
use sc_engine::{wire, ColorerSpec};
use sc_graph::Coloring;
use sc_stream::{encode_edges, EngineConfig, SignedEdge};

/// A protocol-line client of one session on a private [`Service`]: the
/// game's victim, seen only through the lines it sends and the
/// responses it parses.
struct ProtocolVictim {
    service: Service,
    n: usize,
}

/// The session name the game opens on its private service.
const SESSION: &str = "game";

impl ProtocolVictim {
    /// Sends `cmd` for the game's session (with the fields already in
    /// `request`) and decodes the response, erroring on `"ok": false`.
    fn call(&mut self, cmd: &str, mut request: FlatObject) -> Result<FlatObject, String> {
        request.insert("cmd".into(), Scalar::Str(cmd.to_string()));
        request.insert("session".into(), Scalar::Str(SESSION.to_string()));
        let line = encode_object(&request);
        let response = self.service.respond(&line).ok_or("command line produced no response")?;
        let obj = parse_object(&response).map_err(|e| format!("unparseable response: {e}"))?;
        match obj.get("ok").and_then(Scalar::as_bool) {
            Some(true) => Ok(obj),
            _ => Err(obj
                .get("error")
                .and_then(Scalar::as_str)
                .unwrap_or("request failed without an error message")
                .to_string()),
        }
    }
}

impl Victim for ProtocolVictim {
    fn push(&mut self, token: SignedEdge) -> Result<(), String> {
        let mut fields = FlatObject::new();
        fields.insert("edge".into(), Scalar::Str(encode_edges([token.edge])));
        if !token.is_insert() {
            fields.insert("sign".into(), Scalar::Str("delete".into()));
        }
        self.call("push", fields).map(drop)
    }

    fn observe(&mut self) -> Result<(Coloring, usize), String> {
        let obj = self.call("observe", FlatObject::new())?;
        let text = obj.get("coloring").and_then(Scalar::as_str).ok_or("observe lacks coloring")?;
        let colors =
            obj.get("colors").and_then(Scalar::as_u64).ok_or("observe lacks colors")? as usize;
        Ok((parse_coloring(text, self.n)?, colors))
    }
}

/// Referees a game between a service-hosted `victim` and `adversary` on
/// `n` vertices for at most `max_rounds` tokens — the protocol twin
/// of [`sc_adversary::run_game_with_config`], producing an identical
/// [`GameReport`] for identical seeds (the `config` controls the query
/// path; per-edge observation is forced by the model, as in-process).
///
/// # Errors
/// Propagates protocol errors (unbuildable victims, malformed
/// responses); the game itself never errors.
pub fn run_game_via_service<A: Adversary + ?Sized>(
    victim: &ColorerSpec,
    adversary: &mut A,
    n: usize,
    delta: usize,
    max_rounds: usize,
    victim_seed: u64,
    config: EngineConfig,
) -> Result<GameReport, String> {
    let mut client = ProtocolVictim { service: Service::new(), n };

    let mut open = FlatObject::new();
    open.insert("n".into(), Scalar::Uint(n as u64));
    open.insert("delta".into(), Scalar::Uint(delta as u64));
    open.insert("seed".into(), Scalar::Uint(victim_seed));
    // The adaptive model forces per-edge observation; the rest of the
    // config (query path) passes through.
    let engine = EngineConfig { chunk_size: 1, ..config };
    open.insert("engine".into(), Scalar::Str(engine.wire_encode()));
    wire::colorer_to_wire(victim, &mut open);
    client.call("open", open)?;

    let report = referee(&mut client, adversary, n, max_rounds)?;
    client.call("finish", FlatObject::new())?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_adversary::{run_game_with_config, MonochromaticAttacker, ObliviousReplay};
    use sc_graph::generators;

    /// The protocol twin must reproduce the in-process referee's
    /// transcript exactly — for a *feedback* adversary, so any coloring
    /// drift across the wire would compound and diverge.
    #[test]
    fn service_game_matches_in_process_game() {
        let (n, delta, rounds, seed) = (60, 6, 150, 11);
        for victim in [
            ColorerSpec::Robust { beta: None },
            ColorerSpec::StoreAll,
            ColorerSpec::PaletteSparsification { lists: Some(4) },
        ] {
            let via_service = {
                let mut attacker = MonochromaticAttacker::new(n, delta, seed);
                run_game_via_service(
                    &victim,
                    &mut attacker,
                    n,
                    delta,
                    rounds,
                    seed,
                    EngineConfig::per_edge(),
                )
                .unwrap()
            };
            let in_process = {
                let mut attacker = MonochromaticAttacker::new(n, delta, seed);
                let mut colorer = victim.build(n, delta, seed, None).unwrap();
                run_game_with_config(
                    &mut colorer,
                    &mut attacker,
                    n,
                    rounds,
                    EngineConfig::per_edge(),
                )
            };
            assert_eq!(via_service.rounds, in_process.rounds, "{victim:?}");
            assert_eq!(via_service.improper_outputs, in_process.improper_outputs, "{victim:?}");
            assert_eq!(
                via_service.first_failure_round, in_process.first_failure_round,
                "{victim:?}"
            );
            assert_eq!(via_service.max_colors, in_process.max_colors, "{victim:?}");
            assert_eq!(via_service.final_graph.m(), in_process.final_graph.m(), "{victim:?}");
        }
    }

    #[test]
    fn replay_game_over_the_service_survives() {
        let g = generators::gnp_with_max_degree(40, 5, 0.4, 2);
        let edges: Vec<_> = generators::shuffled_edges(&g, 2);
        let mut adversary = ObliviousReplay::new(edges.iter().copied());
        let report = run_game_via_service(
            &ColorerSpec::Robust { beta: None },
            &mut adversary,
            40,
            5,
            10_000,
            3,
            EngineConfig::per_edge(),
        )
        .unwrap();
        assert_eq!(report.rounds, edges.len());
        assert!(report.survived());
    }

    #[test]
    fn unbuildable_victims_error_cleanly() {
        let mut adversary = MonochromaticAttacker::new(10, 3, 1);
        let e = run_game_via_service(
            &ColorerSpec::Bcg20 { epsilon: 0.5 },
            &mut adversary,
            10,
            3,
            10,
            1,
            EngineConfig::per_edge(),
        )
        .unwrap_err();
        assert!(e.contains("bcg20"), "{e}");
    }
}
