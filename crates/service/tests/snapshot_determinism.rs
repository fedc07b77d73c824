//! The persistence law: **restored session ≡ uninterrupted session,
//! byte for byte**, at every subsequent push / observe / checkpoint /
//! finish — for every openable colorer spec, every snapshot point, and
//! every engine config.
//!
//! Three layers of evidence:
//!
//! * a proptest that cuts a random session script at a random point,
//!   carries the snapshot blob to a **fresh host**, and byte-diffs the
//!   remainder of the transcript against the uninterrupted run;
//! * the adaptive-adversary game interrupted mid-game: the attacker
//!   reacts to every coloring, so one drifted byte after the restore
//!   would compound into a diverged transcript;
//! * the reactor's evict-to-disk over **real sockets**: a session cap
//!   of 1 forces two tenants to ping-pong through disk on every
//!   command, and the responses still match an uncapped reactor's.
//!
//! `stats` and `host_stats` are deliberately outside the law: the
//! query-cache counters they report are warm in the uninterrupted run
//! and cold after a restore (the *bytes* of every coloring still match
//! — incremental ≡ scratch is the engine's own law).

use proptest::prelude::*;
use sc_engine::flatjson::{encode_object, parse_object, FlatObject, Scalar};
use sc_engine::{wire, ColorerSpec};
use sc_graph::generators;
use sc_service::Service;
use sc_stream::{EngineConfig, QuerySchedule};

/// SplitMix64, for reproducible scripts derived from one seed.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

/// Every colorer the service can open (`bcg20` needs a materialized
/// graph and is a documented open-time error; its state codec is
/// round-trip-tested at the engine layer).
fn openable_colorers() -> Vec<(&'static str, ColorerSpec)> {
    vec![
        ("robust", ColorerSpec::Robust { beta: None }),
        ("robust-beta", ColorerSpec::Robust { beta: Some(0.5) }),
        ("auto", ColorerSpec::Auto),
        ("alg3", ColorerSpec::RandEfficient),
        ("cgs22", ColorerSpec::Cgs22),
        ("bg18", ColorerSpec::Bg18 { buckets: None }),
        ("ps", ColorerSpec::PaletteSparsification { lists: Some(6) }),
        ("store-all", ColorerSpec::StoreAll),
        ("dynamic", ColorerSpec::DynamicSr { sparsity: None }),
        ("trivial", ColorerSpec::Trivial),
    ]
}

/// Engine configs worth distinguishing: chunking on/off, mid-stream
/// checkpoint schedules, incremental vs scratch queries.
fn engine_configs() -> Vec<EngineConfig> {
    vec![
        EngineConfig::default(),
        EngineConfig::per_edge(),
        EngineConfig::batched(7),
        EngineConfig { chunk_size: 16, schedule: QuerySchedule::EveryEdges(5), incremental: false },
        EngineConfig {
            chunk_size: 3,
            schedule: QuerySchedule::AtPrefixes(vec![2, 9, 30]),
            incremental: true,
        },
    ]
}

fn open_line(
    name: &str,
    spec: &ColorerSpec,
    n: usize,
    delta: usize,
    seed: u64,
    engine: &EngineConfig,
) -> String {
    let mut open = FlatObject::new();
    open.insert("cmd".into(), Scalar::Str("open".into()));
    open.insert("session".into(), Scalar::Str(name.into()));
    open.insert("n".into(), Scalar::Uint(n as u64));
    open.insert("delta".into(), Scalar::Uint(delta as u64));
    open.insert("seed".into(), Scalar::Uint(seed));
    open.insert("engine".into(), Scalar::Str(engine.wire_encode()));
    wire::colorer_to_wire(spec, &mut open);
    encode_object(&open)
}

/// Everything after the open: a random mix of the law's commands
/// (push / push_batch / observe / checkpoint), then observe + finish.
/// When `dynamic`, previously inserted edges are also retracted through
/// both signed vocabularies, so snapshots get cut among live deletions.
fn tail_script(name: &str, n: usize, delta: usize, seed: u64, dynamic: bool) -> Vec<String> {
    let g = generators::gnp_with_max_degree(n, delta, 0.5, seed);
    let edges: Vec<_> = generators::shuffled_edges(&g, seed ^ 0xFEED);
    let mut deletable: Vec<sc_graph::Edge> = Vec::new();
    let mut rng = Gen::new(seed ^ 0x5E55);
    let mut lines = Vec::new();
    let mut i = 0;
    while i < edges.len() {
        if dynamic && !deletable.is_empty() && rng.below(4) == 0 {
            let j = rng.below(deletable.len() as u64) as usize;
            let e = deletable.swap_remove(j);
            if rng.below(2) == 0 {
                lines.push(format!(
                    r#"{{"cmd":"push","session":"{name}","edge":"{}-{}","sign":"delete"}}"#,
                    e.u(),
                    e.v()
                ));
            } else {
                lines.push(format!(
                    r#"{{"cmd":"push_batch","session":"{name}","edges":"-{}-{}"}}"#,
                    e.u(),
                    e.v()
                ));
            }
            continue;
        }
        match rng.below(5) {
            0 => {
                lines.push(format!(
                    r#"{{"cmd":"push","session":"{name}","edge":"{}-{}"}}"#,
                    edges[i].u(),
                    edges[i].v()
                ));
                deletable.push(edges[i]);
                i += 1;
            }
            1 | 2 => {
                let k = 1 + rng.below(7) as usize;
                let end = (i + k).min(edges.len());
                let batch = wire::encode_edges(edges[i..end].iter().copied());
                lines.push(format!(
                    r#"{{"cmd":"push_batch","session":"{name}","edges":"{batch}"}}"#
                ));
                deletable.extend(edges[i..end].iter().copied());
                i = end;
            }
            3 => lines.push(format!(r#"{{"cmd":"observe","session":"{name}"}}"#)),
            _ => lines.push(format!(r#"{{"cmd":"checkpoint","session":"{name}"}}"#)),
        }
    }
    lines.push(format!(r#"{{"cmd":"observe","session":"{name}"}}"#));
    lines.push(format!(r#"{{"cmd":"finish","session":"{name}"}}"#));
    lines
}

fn transcript(service: &mut Service, lines: &[String]) -> Vec<String> {
    lines.iter().filter_map(|l| service.respond(l)).collect()
}

/// Snapshots `name` out of `service`, asserting success, and returns
/// the blob.
fn snapshot_blob(service: &mut Service, name: &str) -> String {
    let response = service.respond(&format!(r#"{{"cmd":"snapshot","session":"{name}"}}"#)).unwrap();
    let obj = parse_object(&response).unwrap();
    assert_eq!(obj.get("ok").and_then(Scalar::as_bool), Some(true), "{response}");
    obj.get("snapshot").and_then(Scalar::as_str).expect("snapshot response carries blob").into()
}

/// Restores `blob` as `name` into `service`, asserting success.
fn restore_into(service: &mut Service, name: &str, blob: &str) {
    let mut restore = FlatObject::new();
    restore.insert("cmd".into(), Scalar::Str("restore".into()));
    restore.insert("session".into(), Scalar::Str(name.into()));
    restore.insert("snapshot".into(), Scalar::Str(blob.into()));
    let response = service.respond(&encode_object(&restore)).unwrap();
    assert!(response.contains("\"ok\":true"), "restore failed: {response}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Cut every colorer's session at a random point, move it to a
    /// fresh host through a snapshot blob, and the rest of the
    /// transcript is byte-identical to never having moved at all.
    #[test]
    fn restored_transcripts_match_uninterrupted_ones(seed in any::<u64>()) {
        let mut rng = Gen::new(seed);
        let n = 24 + rng.below(16) as usize;
        let delta = 3 + rng.below(4) as usize;
        let configs = engine_configs();
        for (name, spec) in openable_colorers() {
            let session_seed = rng.next();
            let engine = &configs[rng.below(configs.len() as u64) as usize];
            let mut lines = vec![open_line(name, &spec, n, delta, session_seed, engine)];
            let dynamic = matches!(spec, ColorerSpec::DynamicSr { .. });
            lines.extend(tail_script(name, n, delta, session_seed, dynamic));

            // Uninterrupted reference.
            let mut reference = Service::new();
            let uninterrupted = transcript(&mut reference, &lines);

            // Interrupted run: cut anywhere after the open (a snapshot
            // needs a session), including right before the finish.
            let cut = 1 + rng.below(lines.len() as u64 - 1) as usize;
            let mut before = Service::new();
            let head = transcript(&mut before, &lines[..cut]);
            let blob = snapshot_blob(&mut before, name);
            drop(before); // the source host is gone; only bytes survive
            let mut after = Service::new();
            restore_into(&mut after, name, &blob);
            let tail = transcript(&mut after, &lines[cut..]);

            let stitched: Vec<String> = head.into_iter().chain(tail).collect();
            prop_assert_eq!(
                &stitched,
                &uninterrupted,
                "{} diverged after restore at cut {} (engine {}, seed {})",
                name,
                cut,
                engine.wire_encode(),
                seed
            );
        }
    }
}

/// The adaptive game, interrupted: the attacker chooses each edge from
/// the previous coloring, so the interrupted transcript only matches if
/// every restored response is byte-exact.
mod game {
    use super::*;
    use sc_adversary::{referee, Adversary, MonochromaticAttacker, OscillationAttacker, Victim};
    use sc_graph::Coloring;
    use sc_service::service::parse_coloring;
    use sc_stream::SignedEdge;

    /// The game's victim over protocol lines: records every response
    /// except snapshot/restore (the transport, not the transcript) and,
    /// after the observe ending round `snap_at`, moves to a fresh host.
    struct Client {
        service: Service,
        transcript: Vec<String>,
        rounds: usize,
        snap_at: Option<usize>,
        n: usize,
    }

    impl Client {
        fn drive(&mut self, line: &str) -> &str {
            let response = self.service.respond(line).unwrap();
            assert!(response.contains("\"ok\":true"), "{response}");
            self.transcript.push(response);
            self.transcript.last().unwrap()
        }
    }

    impl Victim for Client {
        fn push(&mut self, t: SignedEdge) -> Result<(), String> {
            let (u, v) = (t.edge.u(), t.edge.v());
            let sign = if t.is_insert() { "" } else { r#","sign":"delete""# };
            self.drive(&format!(r#"{{"cmd":"push","session":"game","edge":"{u}-{v}"{sign}}}"#));
            self.rounds += 1;
            Ok(())
        }

        fn observe(&mut self) -> Result<(Coloring, usize), String> {
            let obj = parse_object(self.drive(r#"{"cmd":"observe","session":"game"}"#)).unwrap();
            let coloring = parse_coloring(obj["coloring"].as_str().unwrap(), self.n).unwrap();
            if self.snap_at == Some(self.rounds) {
                let blob = snapshot_blob(&mut self.service, "game");
                self.service = Service::new();
                restore_into(&mut self.service, "game", &blob);
            }
            Ok((coloring, obj["colors"].as_u64().unwrap() as usize))
        }
    }

    /// Plays `rounds` of the game, snapshotting to a fresh host after
    /// `snap_at` rounds (`None` = never), and returns every raw
    /// response line the client saw. With `oscillating`, the attacker
    /// is the deletion-aware [`OscillationAttacker`] and deletions
    /// travel as `"sign":"delete"` pushes.
    fn game_transcript(
        victim: &ColorerSpec,
        n: usize,
        delta: usize,
        rounds: usize,
        seed: u64,
        snap_at: Option<usize>,
        oscillating: bool,
    ) -> Vec<String> {
        let mut client =
            Client { service: Service::new(), transcript: Vec::new(), rounds: 0, snap_at, n };
        client.drive(&open_line("game", victim, n, delta, seed, &EngineConfig::per_edge()));
        let mut attacker: Box<dyn Adversary> = if oscillating {
            Box::new(OscillationAttacker::new(n, delta, seed))
        } else {
            Box::new(MonochromaticAttacker::new(n, delta, seed))
        };
        referee(&mut client, attacker.as_mut(), n, rounds).unwrap();
        client.drive(r#"{"cmd":"finish","session":"game"}"#);
        client.transcript
    }

    #[test]
    fn snapshot_during_the_adaptive_game_changes_nothing() {
        let (n, delta, rounds, seed) = (40, 5, 60, 11);
        for (victim, oscillating) in [
            (ColorerSpec::Robust { beta: None }, false),
            (ColorerSpec::Cgs22, false),
            (ColorerSpec::PaletteSparsification { lists: Some(4) }, false),
            (ColorerSpec::DynamicSr { sparsity: None }, true),
        ] {
            let uninterrupted = game_transcript(&victim, n, delta, rounds, seed, None, oscillating);
            for snap_at in [1, rounds / 2, rounds] {
                let interrupted =
                    game_transcript(&victim, n, delta, rounds, seed, Some(snap_at), oscillating);
                assert_eq!(
                    interrupted, uninterrupted,
                    "{victim:?} diverged after mid-game snapshot at round {snap_at}"
                );
            }
        }
    }
}

/// Evict-to-disk over real sockets: with a session cap of 1 and a
/// snapshot dir, two tenants on one connection evict each other through
/// disk on nearly every command — and the responses still match an
/// uncapped reactor byte for byte.
mod sockets {
    use sc_cluster::{Reactor, Tcp, Transport as _};
    use std::time::Duration;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sc-snaplaw-{}-{tag}", std::process::id()))
    }

    #[test]
    fn reactor_evict_to_disk_replays_byte_identically_over_sockets() {
        let dir = scratch_dir("reactor");
        let _ = std::fs::remove_dir_all(&dir);

        let mut capped = Reactor::bind("127.0.0.1:0")
            .unwrap()
            .with_max_sessions(1)
            .with_snapshot_dir(dir.clone());
        let capped_addr = capped.local_addr().unwrap().to_string();
        let mut plain = Reactor::bind("127.0.0.1:0").unwrap();
        let plain_addr = plain.local_addr().unwrap().to_string();
        let capped_handle = std::thread::spawn(move || capped.run(Some(1)).unwrap());
        let plain_handle = std::thread::spawn(move || plain.run(Some(1)).unwrap());

        let mut to_capped = Tcp::connect(&capped_addr).unwrap();
        let mut to_plain = Tcp::connect(&plain_addr).unwrap();

        // Two tenants under a cap of one: every switch of session is an
        // LRU eviction to disk plus a transparent restore.
        let lines = [
            r#"{"cmd":"open","session":"a","n":24,"delta":4,"colorer":"robust","seed":5}"#
                .to_string(),
            r#"{"cmd":"open","session":"b","n":24,"delta":4,"colorer":"cgs22","seed":6}"#
                .to_string(),
            r#"{"cmd":"push_batch","session":"a","edges":"0-1 1-2 2-3 3-4"}"#.to_string(),
            r#"{"cmd":"push_batch","session":"b","edges":"5-6 6-7 7-8"}"#.to_string(),
            r#"{"cmd":"observe","session":"a"}"#.to_string(),
            r#"{"cmd":"checkpoint","session":"b"}"#.to_string(),
            r#"{"cmd":"push","session":"a","edge":"4-5"}"#.to_string(),
            r#"{"cmd":"observe","session":"b"}"#.to_string(),
            r#"{"cmd":"finish","session":"a"}"#.to_string(),
            r#"{"cmd":"finish","session":"b"}"#.to_string(),
        ];
        for line in &lines {
            to_capped.send(line).unwrap();
            to_plain.send(line).unwrap();
            let evicted = to_capped.recv(Duration::from_secs(10)).unwrap();
            let reference = to_plain.recv(Duration::from_secs(10)).unwrap();
            assert!(reference.contains("\"ok\":true"), "{reference}");
            assert_eq!(evicted, reference, "evict-to-disk leaked into {line}");
        }

        drop(to_capped);
        drop(to_plain);
        capped_handle.join().unwrap();
        plain_handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
