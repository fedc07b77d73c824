//! Experiment — the serving layer's overhead curve: multi-session
//! interleaved ingest+query throughput vs N separate single-session
//! runs, driven entirely through the `sc-service` line protocol.
//!
//! The service hosts K independent tenants; its value is multiplexing,
//! and its cost must be ~zero — hosting K interleaved sessions should
//! take the same total time as running the K sessions one after another
//! on fresh single-tenant services. This binary measures exactly that
//! ratio per algorithm and emits `BENCH_service.json`, so the serving
//! layer enters the perf trajectory from day one:
//!
//! * `isolated_ms` — sum over sessions of a fresh service executing that
//!   session's whole command script;
//! * `interleaved_ms` — one service, the same scripts interleaved
//!   round-robin (the serving cadence: every tenant advances a chunk,
//!   then observes);
//! * `ratio = isolated_ms / interleaved_ms` — ≈ 1.0 when multiplexing is
//!   free; CI gates it via `ci/bench_baselines.json` (a sustained drop
//!   means per-command dispatch or session lookup got expensive).
//!
//! Before timing, the two modes' response transcripts are asserted
//! byte-identical per session — the determinism law, re-checked where
//! the numbers are produced.
//!
//! A serving section leaves process memory: the same K tenant scripts
//! fanned across K pipelined TCP connections to the [`Reactor`] behind
//! `serve --listen`, transcripts asserted byte-identical to isolated
//! in-process services, then timed (`reactor_ms`, informational; the
//! repo benchmark's `reactor.overhead_us` is the reactor's gated cost).
//!
//! A persistence section snapshots one fully-ingested session and
//! times the snapshot→restore round trip against replaying the same
//! session's stream from scratch. Its `ratio = replay_ms /
//! roundtrip_ms` is gated in `ci/bench_baselines.json`: restore must
//! stay decisively cheaper than replay, or evict-to-disk and live
//! migration stop paying for themselves.
//!
//! An encode section times one `observe` response at the profile's n
//! two ways: the allocate-and-join coloring text plus the per-`char`
//! string escaper that `sc_stream` and `flatjson` used before they
//! gained one writer (frozen in this binary as the reference), against
//! the shipped `coloring_string` + `encode_object`. The bytes are
//! asserted equal; `speedup = reference_ms / writer_ms` is gated in
//! `ci/bench_baselines.json`.
//!
//! `--smoke` shrinks the instances and writes `BENCH_service.smoke.json`
//! (CI-sized; never clobbers the committed full-profile file).

use sc_cluster::transport::{Tcp, Transport as _};
use sc_cluster::Reactor;
use sc_engine::{wire, ColorerSpec};
use sc_graph::generators;
use sc_service::Service;
use std::io::Write as _;
use std::time::{Duration, Instant};

struct Profile {
    smoke: bool,
    /// Concurrent sessions per algorithm.
    sessions: usize,
    /// Vertices / max degree of each session's stream.
    n: usize,
    delta: usize,
    /// Edges per push_batch (an observe follows every batch).
    batch: usize,
    /// Timing repetitions (median goes into the file).
    reps: usize,
}

impl Profile {
    fn full() -> Self {
        Self { smoke: false, sessions: 8, n: 1200, delta: 16, batch: 64, reps: 5 }
    }

    fn smoke() -> Self {
        Self { smoke: true, sessions: 4, n: 400, delta: 8, batch: 32, reps: 3 }
    }

    fn bench_path(&self) -> &'static str {
        if self.smoke {
            "BENCH_service.smoke.json"
        } else {
            "BENCH_service.json"
        }
    }
}

/// One tenant's full command script: open, then per chunk push_batch +
/// observe, then stats + finish — the interactive serving cadence.
fn session_script(name: &str, spec: &ColorerSpec, profile: &Profile, seed: u64) -> Vec<String> {
    let g = generators::gnp_with_max_degree(profile.n, profile.delta, 0.4, seed);
    let edges: Vec<_> = generators::shuffled_edges(&g, seed ^ 0xBEEF);
    let mut open = sc_engine::flatjson::FlatObject::new();
    use sc_engine::flatjson::Scalar;
    open.insert("cmd".into(), Scalar::Str("open".into()));
    open.insert("session".into(), Scalar::Str(name.into()));
    open.insert("n".into(), Scalar::Uint(profile.n as u64));
    open.insert("delta".into(), Scalar::Uint(profile.delta as u64));
    open.insert("seed".into(), Scalar::Uint(seed));
    wire::colorer_to_wire(spec, &mut open);
    let mut lines = vec![sc_engine::flatjson::encode_object(&open)];
    for chunk in edges.chunks(profile.batch) {
        let batch = wire::encode_edges(chunk.iter().copied());
        lines.push(format!(r#"{{"cmd":"push_batch","session":"{name}","edges":"{batch}"}}"#));
        lines.push(format!(r#"{{"cmd":"observe","session":"{name}"}}"#));
    }
    lines.push(format!(r#"{{"cmd":"stats","session":"{name}"}}"#));
    lines.push(format!(r#"{{"cmd":"finish","session":"{name}"}}"#));
    lines
}

/// Round-robin interleaving of the tenants' scripts (per-session order
/// preserved), tagged with the owning session index.
fn interleave(scripts: &[Vec<String>]) -> Vec<(usize, &String)> {
    let mut cursors = vec![0usize; scripts.len()];
    let mut out = Vec::with_capacity(scripts.iter().map(Vec::len).sum());
    loop {
        let mut advanced = false;
        for (s, script) in scripts.iter().enumerate() {
            if cursors[s] < script.len() {
                out.push((s, &script[cursors[s]]));
                cursors[s] += 1;
                advanced = true;
            }
        }
        if !advanced {
            return out;
        }
    }
}

/// Runs the tenants isolated (fresh service each), returning per-session
/// transcripts and the total wall time in ms.
fn run_isolated(scripts: &[Vec<String>]) -> (Vec<Vec<String>>, f64) {
    let start = Instant::now();
    let transcripts = scripts
        .iter()
        .map(|script| {
            let mut service = Service::new();
            script.iter().filter_map(|line| service.respond(line)).collect()
        })
        .collect();
    (transcripts, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs the tenants interleaved on one service, returning per-session
/// transcripts and the wall time in ms.
fn run_interleaved(scripts: &[Vec<String>]) -> (Vec<Vec<String>>, f64) {
    let lines = interleave(scripts);
    let mut transcripts: Vec<Vec<String>> = vec![Vec::new(); scripts.len()];
    let start = Instant::now();
    let mut service = Service::new();
    for (s, line) in lines {
        if let Some(response) = service.respond(line) {
            transcripts[s].push(response);
        }
    }
    (transcripts, start.elapsed().as_secs_f64() * 1e3)
}

/// Drives one connection through its session script with a bounded
/// pipelining window — deep enough to amortize round trips, shallow
/// enough that neither side's socket buffer can fill while the peer is
/// also blocked writing (which would deadlock a full-pipeline client
/// against a lock-step server).
fn drive_connection(addr: &str, lines: &[String]) -> Vec<String> {
    const WINDOW: usize = 16;
    let mut t = Tcp::connect(addr).expect("bench client connects");
    let mut out = Vec::with_capacity(lines.len());
    let mut sent = 0;
    while out.len() < lines.len() {
        while sent < lines.len() && sent - out.len() < WINDOW {
            t.send(&lines[sent]).expect("bench client sends");
            sent += 1;
        }
        out.push(t.recv(Duration::from_secs(60)).expect("bench client receives"));
    }
    out
}

/// Fans the tenant scripts across one connection each (a client thread
/// per connection), returning per-session transcripts and the wall time
/// in ms.
fn run_over_wire(addr: &str, scripts: &[Vec<String>]) -> (Vec<Vec<String>>, f64) {
    let start = Instant::now();
    let workers: Vec<_> = scripts
        .iter()
        .cloned()
        .map(|lines| {
            let addr = addr.to_string();
            std::thread::spawn(move || drive_connection(&addr, &lines))
        })
        .collect();
    let transcripts = workers.into_iter().map(|w| w.join().expect("bench client thread")).collect();
    (transcripts, start.elapsed().as_secs_f64() * 1e3)
}

/// One timed pass of the reactor: bind, serve exactly K connections,
/// join. Setup and teardown ride the measurement.
fn run_reactor(scripts: &[Vec<String>]) -> (Vec<Vec<String>>, f64) {
    let mut reactor = Reactor::bind("127.0.0.1:0").expect("reactor binds");
    let addr = reactor.local_addr().expect("reactor addr").to_string();
    let k = scripts.len();
    let server = std::thread::spawn(move || reactor.run(Some(k)).expect("reactor serves"));
    let result = run_over_wire(&addr, scripts);
    server.join().expect("reactor thread");
    result
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let profile = if smoke { Profile::smoke() } else { Profile::full() };
    let algos: Vec<(&str, ColorerSpec)> = vec![
        ("alg2", ColorerSpec::Robust { beta: None }),
        ("alg3", ColorerSpec::RandEfficient),
        ("bg18", ColorerSpec::Bg18 { buckets: None }),
        ("store_all", ColorerSpec::StoreAll),
    ];
    println!(
        "# service bench: {} sessions x (n = {}, delta = {}, batch = {}){}",
        profile.sessions,
        profile.n,
        profile.delta,
        profile.batch,
        if smoke { ", smoke profile" } else { "" }
    );

    let mut entries = Vec::new();
    for (name, spec) in &algos {
        let scripts: Vec<Vec<String>> = (0..profile.sessions)
            .map(|s| session_script(&format!("{name}-{s}"), spec, &profile, 100 + s as u64))
            .collect();
        let commands: usize = scripts.iter().map(Vec::len).sum();

        // Determinism first: interleaving must not change a byte of any
        // tenant's transcript.
        let (isolated_transcripts, _) = run_isolated(&scripts);
        let (interleaved_transcripts, _) = run_interleaved(&scripts);
        assert_eq!(
            interleaved_transcripts, isolated_transcripts,
            "{name}: interleaving changed a tenant's responses"
        );

        let median = |times: &mut Vec<f64>| -> f64 {
            times.sort_by(f64::total_cmp);
            times[times.len() / 2]
        };
        let mut isolated_times: Vec<f64> =
            (0..profile.reps).map(|_| run_isolated(&scripts).1).collect();
        let mut interleaved_times: Vec<f64> =
            (0..profile.reps).map(|_| run_interleaved(&scripts).1).collect();
        let isolated_ms = median(&mut isolated_times);
        let interleaved_ms = median(&mut interleaved_times);
        let ratio = isolated_ms / interleaved_ms.max(1e-9);
        println!(
            "{name:>9}: {sessions} sessions, {commands} commands — isolated {isolated_ms:.1} ms, \
             interleaved {interleaved_ms:.1} ms, ratio {ratio:.3}",
            sessions = profile.sessions,
        );
        entries.push(format!(
            "  {{\"algo\":\"{}\",\"kind\":\"service\",\"sessions\":{},\"n\":{},\"delta\":{},\"commands\":{},\"isolated_ms\":{:.3},\"interleaved_ms\":{:.3},\"ratio\":{:.3}}}",
            name,
            profile.sessions,
            profile.n,
            profile.delta,
            commands,
            isolated_ms,
            interleaved_ms,
            ratio,
        ));
    }

    // Reactor serving over real sockets. The store-all colorer keeps
    // per-command compute cheap, so the number weighs what this section
    // is about: event-loop dispatch, buffering, and syscall overhead per
    // protocol line.
    {
        let spec = ColorerSpec::StoreAll;
        let scripts: Vec<Vec<String>> = (0..profile.sessions)
            .map(|s| session_script(&format!("wire-{s}"), &spec, &profile, 200 + s as u64))
            .collect();
        let commands: usize = scripts.iter().map(Vec::len).sum();

        // Determinism first: the reactor must answer exactly what
        // isolated in-process services answer.
        let (reference, _) = run_isolated(&scripts);
        let (from_reactor, _) = run_reactor(&scripts);
        assert_eq!(from_reactor, reference, "reactor responses diverged from isolated services");

        let median = |times: &mut Vec<f64>| -> f64 {
            times.sort_by(f64::total_cmp);
            times[times.len() / 2]
        };
        let mut reactor_times: Vec<f64> =
            (0..profile.reps).map(|_| run_reactor(&scripts).1).collect();
        let reactor_ms = median(&mut reactor_times);
        println!(
            "  reactor: {sessions} connections, {commands} commands — {reactor_ms:.1} ms",
            sessions = profile.sessions,
        );
        entries.push(format!(
            "  {{\"algo\":\"reactor\",\"kind\":\"serving\",\"sessions\":{},\"n\":{},\"delta\":{},\"commands\":{},\"reactor_ms\":{:.3}}}",
            profile.sessions, profile.n, profile.delta, commands, reactor_ms,
        ));
    }

    // Snapshot+restore round trip vs replay-from-scratch. A restore
    // rebuilds the colorer from its state blob instead of re-processing
    // the stream, so the round trip must be decisively cheaper than
    // replay — that margin is what makes evict-to-disk and live
    // migration worth having, and the gate keeps it from eroding.
    {
        use sc_engine::flatjson::{encode_object, parse_object, FlatObject, Scalar};
        let spec = ColorerSpec::Robust { beta: None };
        let script = session_script("persist", &spec, &profile, 300);
        // Everything but the trailing stats + finish: the session stays
        // open, mid-stream, exactly where eviction or migration strikes.
        let ingest = &script[..script.len() - 2];
        let build = || {
            let mut service = Service::new();
            for line in ingest {
                service.respond(line);
            }
            service
        };
        let snapshot_blob = |service: &mut Service| -> String {
            let response = service
                .respond(r#"{"cmd":"snapshot","session":"persist"}"#)
                .expect("snapshot answers");
            let obj = parse_object(&response).expect("snapshot response parses");
            assert_eq!(obj["ok"].as_bool(), Some(true), "snapshot failed: {response}");
            obj["snapshot"].as_str().expect("snapshot field").to_string()
        };
        let restore_line = |blob: &str| {
            let mut line = FlatObject::new();
            line.insert("cmd".into(), Scalar::Str("restore".into()));
            line.insert("session".into(), Scalar::Str("persist".into()));
            line.insert("snapshot".into(), Scalar::Str(blob.to_string()));
            encode_object(&line)
        };

        // Determinism first: the restored session's finish must be
        // byte-identical to the uninterrupted source's (the persistence
        // law, re-checked where the numbers are produced).
        let mut source = build();
        let blob = snapshot_blob(&mut source);
        let snapshot_bytes = blob.len();
        let mut restored = Service::new();
        let ack = restored.respond(&restore_line(&blob)).expect("restore answers");
        assert!(ack.contains("\"ok\":true"), "restore failed: {ack}");
        let finish = |service: &mut Service| {
            service.respond(r#"{"cmd":"finish","session":"persist"}"#).expect("finish answers")
        };
        assert_eq!(
            finish(&mut restored),
            finish(&mut source),
            "restored session diverged from the uninterrupted source"
        );

        let median = |times: &mut Vec<f64>| -> f64 {
            times.sort_by(f64::total_cmp);
            times[times.len() / 2]
        };
        // One timed pass is several round trips off a live source
        // (snapshot is non-destructive), reported per trip so the
        // number stays comparable to a single replay.
        const TRIPS: usize = 8;
        let mut source = build();
        let mut roundtrip_times: Vec<f64> = (0..profile.reps)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..TRIPS {
                    let blob = snapshot_blob(&mut source);
                    let mut target = Service::new();
                    let ack = target.respond(&restore_line(&blob)).expect("restore answers");
                    assert!(ack.contains("\"ok\":true"), "restore failed: {ack}");
                }
                start.elapsed().as_secs_f64() * 1e3 / TRIPS as f64
            })
            .collect();
        let mut replay_times: Vec<f64> = (0..profile.reps)
            .map(|_| {
                let start = Instant::now();
                build();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let roundtrip_ms = median(&mut roundtrip_times);
        let replay_ms = median(&mut replay_times);
        let ratio = replay_ms / roundtrip_ms.max(1e-9);
        println!(
            " snapshot: {snapshot_bytes} blob bytes — round trip {roundtrip_ms:.3} ms, \
             replay {replay_ms:.1} ms, ratio {ratio:.1}"
        );
        entries.push(format!(
            "  {{\"algo\":\"snapshot\",\"kind\":\"persistence\",\"n\":{},\"delta\":{},\"snapshot_bytes\":{},\"roundtrip_ms\":{:.3},\"replay_ms\":{:.3},\"ratio\":{:.3}}}",
            profile.n, profile.delta, snapshot_bytes, roundtrip_ms, replay_ms, ratio,
        ));
    }

    // Response encode: the frozen join reference against the writer, on
    // the last `observe` response of a real session.
    {
        use sc_engine::flatjson::{encode_object, parse_object, Scalar};
        let script = session_script("encode", &ColorerSpec::StoreAll, &profile, 400);
        let mut service = Service::new();
        let observed = script[..script.len() - 2]
            .iter()
            .filter_map(|line| service.respond(line))
            .last()
            .expect("the script ends with an observe");
        let mut base = parse_object(&observed).expect("observe response parses");
        let coloring = match base.remove("coloring") {
            Some(Scalar::Str(text)) => {
                sc_service::service::parse_coloring(&text, profile.n).expect("coloring parses")
            }
            other => panic!("observe response has no coloring: {other:?}"),
        };
        let writer = || {
            let mut obj = base.clone();
            obj.insert(
                "coloring".into(),
                Scalar::Str(sc_service::service::coloring_string(&coloring)),
            );
            encode_object(&obj)
        };
        let reference = || {
            let mut obj = base.clone();
            obj.insert("coloring".into(), Scalar::Str(frozen::coloring_string(&coloring)));
            frozen::encode_object(&obj)
        };
        assert_eq!(writer(), observed, "the writer changed the observe response");
        assert_eq!(reference(), observed, "the frozen reference drifted from the response");

        // Enough responses per timed pass to sit well above timer noise.
        const RESPONSES: usize = 2000;
        let time = |encode: &dyn Fn() -> String| -> f64 {
            let start = Instant::now();
            for _ in 0..RESPONSES {
                std::hint::black_box(encode());
            }
            start.elapsed().as_secs_f64() * 1e3
        };
        let median = |times: &mut Vec<f64>| -> f64 {
            times.sort_by(f64::total_cmp);
            times[times.len() / 2]
        };
        // Alternate the two so drift in the machine's speed hits both.
        let (mut reference_times, mut writer_times) = (Vec::new(), Vec::new());
        for _ in 0..profile.reps {
            reference_times.push(time(&reference));
            writer_times.push(time(&writer));
        }
        let reference_ms = median(&mut reference_times);
        let writer_ms = median(&mut writer_times);
        let speedup = reference_ms / writer_ms.max(1e-9);
        println!(
            "   encode: {RESPONSES} observe responses of {} bytes — reference {reference_ms:.2} ms, \
             writer {writer_ms:.2} ms, speedup {speedup:.2}",
            observed.len(),
        );
        entries.push(format!(
            "  {{\"algo\":\"encode\",\"kind\":\"encode\",\"n\":{},\"responses\":{},\"response_bytes\":{},\"reference_ms\":{:.3},\"writer_ms\":{:.3},\"speedup\":{:.3}}}",
            profile.n,
            RESPONSES,
            observed.len(),
            reference_ms,
            writer_ms,
            speedup,
        ));
    }

    let path = profile.bench_path();
    let json = format!("[\n{}\n]\n", entries.join(",\n"));
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("\nwrote {path} (multi-session interleaved vs isolated service runs)"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
    print!("{json}");
}

/// The response encoders `coloring_string` and `encode_object` replaced,
/// frozen as the encode row's reference: one `String` per cell joined,
/// and a string escaper that pushes one `char` at a time.
mod frozen {
    use sc_engine::flatjson::{FlatObject, Scalar};
    use sc_graph::Coloring;
    use std::fmt::Write as _;

    pub fn coloring_string(c: &Coloring) -> String {
        let cells: Vec<String> = (0..c.n() as u32)
            .map(|v| c.get(v).map_or("-".to_string(), |k| k.to_string()))
            .collect();
        cells.join(",")
    }

    pub fn encode_object(obj: &FlatObject) -> String {
        let mut out = String::from("{");
        for (j, (key, value)) in obj.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            encode_string(&mut out, key);
            out.push(':');
            match value {
                Scalar::Str(s) => encode_string(&mut out, s),
                Scalar::Num(x) => {
                    let _ = write!(out, "{x:?}");
                }
                Scalar::Uint(x) => {
                    let _ = write!(out, "{x}");
                }
                Scalar::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out.push('}');
        out
    }

    fn encode_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                _ => out.push(c),
            }
        }
        out.push('"');
    }
}
