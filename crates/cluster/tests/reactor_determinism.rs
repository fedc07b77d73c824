//! The reactor's multi-tenant determinism law, proven over real
//! sockets: K sessions interleaved over **one** reactor (one thread,
//! one shared `Service`) answer byte-for-byte what K isolated runs
//! answer — under any connection interleaving — plus the eviction
//! behaviors (idle timeout with an injected clock, LRU at the session
//! cap, evict-then-reopen replay) and a ≥256-connection soak diffed
//! against one isolated `Service` per connection.

use sc_cluster::transport::{Tcp, Transport as _};
use sc_cluster::Reactor;
use sc_service::Service;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TICK: Duration = Duration::from_secs(30);

/// The per-session scripts the interleaving tests run: distinct
/// algorithms, engine configs, and edge streams so a cross-session state
/// leak cannot cancel out.
fn session_scripts() -> Vec<Vec<String>> {
    let mut scripts = Vec::new();
    for (i, (colorer, extra)) in [
        ("robust", ""),
        ("store-all", r#","engine":"chunk=4;schedule=every:5;incremental=true""#),
        ("bg18", ""),
        ("trivial", ""),
    ]
    .iter()
    .enumerate()
    {
        let name = format!("s{i}");
        let seed = 21 + i as u64;
        let mut lines = vec![format!(
            r#"{{"cmd":"open","session":"{name}","n":16,"delta":4,"colorer":"{colorer}","seed":{seed}{extra}}}"#
        )];
        for (u, v) in [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (3 + i, 7 + i)] {
            lines.push(format!(r#"{{"cmd":"push","session":"{name}","edge":"{u}-{v}"}}"#));
        }
        lines.push(format!(r#"{{"cmd":"observe","session":"{name}"}}"#));
        lines.push(format!(r#"{{"cmd":"push_batch","session":"{name}","edges":"8-9 9-10"}}"#));
        lines.push(format!(r#"{{"cmd":"stats","session":"{name}"}}"#));
        lines.push(format!(r#"{{"cmd":"finish","session":"{name}"}}"#));
        scripts.push(lines);
    }
    // A fifth, turnstile tenant: the dynamic colorer fed through both
    // signed vocabularies (`"sign":"delete"` on push, `±u-v` tokens on
    // push_batch), so cross-session isolation is proven with deletions
    // in the interleaving. Every delete targets a then-live edge.
    scripts.push(
        [
            r#"{"cmd":"open","session":"s4","n":16,"delta":4,"colorer":"dynamic-sr","seed":25}"#,
            r#"{"cmd":"push","session":"s4","edge":"0-1"}"#,
            r#"{"cmd":"push","session":"s4","edge":"1-2"}"#,
            r#"{"cmd":"push_batch","session":"s4","edges":"+2-3 -1-2 +3-4"}"#,
            r#"{"cmd":"push","session":"s4","edge":"0-1","sign":"delete"}"#,
            r#"{"cmd":"observe","session":"s4"}"#,
            r#"{"cmd":"push_batch","session":"s4","edges":"8-9 9-10"}"#,
            r#"{"cmd":"stats","session":"s4"}"#,
            r#"{"cmd":"finish","session":"s4"}"#,
        ]
        .map(String::from)
        .to_vec(),
    );
    scripts
}

/// The isolated reference: each script against its own fresh `Service`.
fn isolated_reference(scripts: &[Vec<String>]) -> Vec<Vec<String>> {
    scripts
        .iter()
        .map(|lines| {
            let mut service = Service::new();
            lines.iter().map(|l| service.respond(l).expect("command lines answer")).collect()
        })
        .collect()
}

/// Interleaves script line indices: round-robin, reversed session order,
/// and a deterministic skewed shuffle (session i advances i+1 lines per
/// visit).
fn interleavings(scripts: &[Vec<String>]) -> Vec<Vec<(usize, usize)>> {
    let k = scripts.len();
    let mut plans = Vec::new();
    // Round-robin.
    let mut plan = Vec::new();
    let mut cursors = vec![0usize; k];
    loop {
        let mut progressed = false;
        for (s, cursor) in cursors.iter_mut().enumerate() {
            if *cursor < scripts[s].len() {
                plan.push((s, *cursor));
                *cursor += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    plans.push(plan);
    // Reverse session order, bursts of 2.
    let mut plan = Vec::new();
    let mut cursors = vec![0usize; k];
    loop {
        let mut progressed = false;
        for s in (0..k).rev() {
            for _ in 0..2 {
                if cursors[s] < scripts[s].len() {
                    plan.push((s, cursors[s]));
                    cursors[s] += 1;
                    progressed = true;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    plans.push(plan);
    // Skewed: session i advances i+1 lines per visit.
    let mut plan = Vec::new();
    let mut cursors = vec![0usize; k];
    loop {
        let mut progressed = false;
        for (s, cursor) in cursors.iter_mut().enumerate() {
            for _ in 0..=s {
                if *cursor < scripts[s].len() {
                    plan.push((s, *cursor));
                    *cursor += 1;
                    progressed = true;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    plans.push(plan);
    plans
}

#[test]
fn interleaved_reactor_sessions_match_isolated_runs_byte_for_byte() {
    let scripts = session_scripts();
    let reference = isolated_reference(&scripts);
    for plan in interleavings(&scripts) {
        let mut reactor = Reactor::bind("127.0.0.1:0").unwrap();
        let addr = reactor.local_addr().unwrap().to_string();
        let k = scripts.len();
        let handle = std::thread::spawn(move || reactor.run(Some(k)).unwrap());

        // One connection per session, lock-step: each command waits for
        // its response before the next command (of any session) is sent
        // — so the service really does see this exact interleaving.
        let mut conns: Vec<Tcp> = (0..k).map(|_| Tcp::connect(&addr).unwrap()).collect();
        let mut got: Vec<Vec<String>> = vec![Vec::new(); k];
        for (s, line_idx) in plan {
            conns[s].send(&scripts[s][line_idx]).unwrap();
            got[s].push(conns[s].recv(TICK).unwrap());
        }
        drop(conns);
        handle.join().unwrap();
        assert_eq!(got, reference, "interleaved run diverged from isolated reference");
    }
}

#[test]
fn soak_256_connections_match_per_connection_reference() {
    // Each of 256 concurrent clients runs a tiny distinct session
    // script, pipelined; the reactor (one thread, shared Service) must
    // answer each exactly as a private Service per connection would.
    const CLIENTS: usize = 256;
    let scripts: Vec<Vec<String>> = (0..CLIENTS)
        .map(|i| {
            let name = format!("c{i}");
            let colorer = ["trivial", "store-all", "robust", "dynamic-sr"][i % 4];
            let mut lines = vec![
                format!(
                    r#"{{"cmd":"open","session":"{name}","n":12,"delta":3,"colorer":"{colorer}","seed":{i}}}"#
                ),
                format!(r#"{{"cmd":"push","session":"{name}","edge":"{}-{}"}}"#, i % 4, 4 + i % 5),
            ];
            if colorer == "dynamic-sr" {
                // Turnstile clients retract and re-insert their edge, so
                // a quarter of the soak carries live deletions.
                lines.push(format!(
                    r#"{{"cmd":"push","session":"{name}","edge":"{}-{}","sign":"delete"}}"#,
                    i % 4,
                    4 + i % 5
                ));
                lines.push(format!(
                    r#"{{"cmd":"push_batch","session":"{name}","edges":"+{}-{}"}}"#,
                    i % 4,
                    4 + i % 5
                ));
            }
            lines.push(format!(r#"{{"cmd":"observe","session":"{name}"}}"#));
            lines.push(format!(r#"{{"cmd":"finish","session":"{name}"}}"#));
            lines
        })
        .collect();

    let mut reactor = Reactor::bind("127.0.0.1:0").unwrap();
    let addr = reactor.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || reactor.run(Some(CLIENTS)).unwrap());
    let clients: Vec<_> = scripts
        .iter()
        .cloned()
        .map(|lines| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut t = Tcp::connect(&addr).unwrap();
                for line in &lines {
                    t.send(line).unwrap();
                }
                lines.iter().map(|_| t.recv(TICK).unwrap()).collect::<Vec<_>>()
            })
        })
        .collect();
    let from_reactor: Vec<Vec<String>> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    handle.join().unwrap();

    assert_eq!(
        from_reactor,
        isolated_reference(&scripts),
        "reactor and per-connection isolated responses diverged"
    );
}

#[test]
fn a_pipelined_burst_in_one_write_matches_the_isolated_transcript() {
    // One client writes 60k lines in a single write and reads the
    // replies on another thread. The reactor answers them from one read
    // buffer, so this is the case where a per-line shift of that buffer
    // turned quadratic. Blank lines, comments and `\r\n` endings ride
    // along: they must be skipped or trimmed exactly as in-process.
    const LINES: usize = 60_000;
    let mut lines =
        vec![r#"{"cmd":"open","session":"p","n":64,"delta":8,"colorer":"store-all","seed":3}"#
            .to_string()];
    for i in 0..LINES {
        lines.push(match i % 6 {
            0 if i < 64 * 4 => {
                format!(r#"{{"cmd":"push","session":"p","edge":"{}-{}"}}"#, i / 4, (i / 4 + 1) % 64)
            }
            1 | 2 => r#"{"cmd":"stats","session":"p"}"#.to_string(),
            3 => r#"{"cmd":"observe","session":"p"}"#.to_string(),
            4 if i % 1000 == 4 => String::new(),
            5 if i % 1000 == 5 => "# a comment".to_string(),
            _ => r#"{"cmd":"stats","session":"p"}"#.to_string() + "\r",
        });
    }
    lines.push(r#"{"cmd":"finish","session":"p"}"#.to_string());
    let mut service = Service::new();
    let reference: Vec<String> =
        lines.iter().filter_map(|l| service.respond(l.trim_end_matches('\r'))).collect();
    assert!(reference.len() > 50_000, "the burst must carry at least 50k answered lines");

    let mut reactor = Reactor::bind("127.0.0.1:0").unwrap();
    let addr = reactor.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || reactor.run(Some(1)).unwrap());
    let stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let burst: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let sender = std::thread::spawn(move || {
        use std::io::Write as _;
        writer.write_all(burst.as_bytes()).unwrap();
        writer.shutdown(std::net::Shutdown::Write).unwrap();
    });
    // The reactor closes the connection once EOF arrives and every
    // reply is flushed, so the replies are the whole read side.
    let replies: Vec<String> =
        std::io::BufRead::lines(std::io::BufReader::new(stream)).map(Result::unwrap).collect();
    sender.join().unwrap();
    handle.join().unwrap();
    assert_eq!(replies.len(), reference.len());
    assert!(replies == reference, "pipelined replies diverged from the isolated transcript");
}

#[test]
fn idle_connections_are_evicted_on_the_injected_clock() {
    // A fake clock: an atomic tick count layered on a fixed origin. The
    // reactor samples it on every loop wake, so advancing it past the
    // timeout evicts the idle connection without any real waiting.
    let origin = Instant::now();
    let offset = Arc::new(AtomicU64::new(0));
    let clock_offset = Arc::clone(&offset);
    let mut reactor = Reactor::bind("127.0.0.1:0")
        .unwrap()
        .with_idle_timeout(Duration::from_secs(3600))
        .with_clock(Arc::new(move || {
            origin + Duration::from_secs(clock_offset.load(Ordering::SeqCst))
        }));
    let addr = reactor.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || reactor.run(Some(1)).unwrap());

    let mut t = Tcp::connect(&addr).unwrap();
    t.send(r#"{"cmd":"open","session":"x","n":10,"colorer":"trivial"}"#).unwrap();
    assert!(t.recv(TICK).unwrap().contains("\"ok\":true"));

    // One hour and one second of fake time, then silence: the reactor's
    // next periodic sweep (a real-time tick, fake-time comparison) must
    // evict the connection — the client sees a close, never a hang.
    offset.store(3601, Ordering::SeqCst);
    let err = t.recv(TICK).unwrap_err();
    assert!(
        matches!(err, sc_cluster::TransportError::Closed(_)),
        "idle eviction must close the connection: got {err:?}"
    );
    handle.join().unwrap();
}

#[test]
fn lru_eviction_over_the_wire_errors_then_replays_on_reopen() {
    let mut reactor = Reactor::bind("127.0.0.1:0").unwrap().with_max_sessions(2);
    let addr = reactor.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || reactor.run(Some(1)).unwrap());

    let mut t = Tcp::connect(&addr).unwrap();
    let open = |name: &str| {
        format!(
            r#"{{"cmd":"open","session":"{name}","n":10,"delta":3,"colorer":"store-all","seed":5}}"#
        )
    };
    let ask = |t: &mut Tcp, line: &str| -> String {
        t.send(line).unwrap();
        t.recv(TICK).unwrap()
    };

    assert!(ask(&mut t, &open("a")).contains("\"ok\":true"));
    assert!(ask(&mut t, &open("b")).contains("\"ok\":true"));
    // Touch "a" so "b" is oldest, then open "c" at the cap: "b" is
    // evicted, the open succeeds (never an error, never an abort).
    assert!(ask(&mut t, r#"{"cmd":"push","session":"a","edge":"0-1"}"#).contains("\"ok\":true"));
    assert!(ask(&mut t, &open("c")).contains("\"ok\":true"));

    let tomb = ask(&mut t, r#"{"cmd":"push","session":"b","edge":"0-1"}"#);
    assert!(tomb.contains("\"ok\":false") && tomb.contains("session evicted (lru)"), "{tomb}");

    // host_stats (reactor-only counters) sees the eviction.
    let stats = ask(&mut t, r#"{"cmd":"host_stats","session":"probe"}"#);
    assert!(stats.contains("\"sessions_evicted\":1"), "{stats}");
    assert!(stats.contains("\"connections_open\":1"), "{stats}");

    // Reopening the evicted name replays byte-identically against a
    // fresh isolated service ("c" is evicted in turn — LRU).
    let replay_lines = [
        open("b"),
        r#"{"cmd":"push","session":"b","edge":"2-3"}"#.to_string(),
        r#"{"cmd":"observe","session":"b"}"#.to_string(),
        r#"{"cmd":"finish","session":"b"}"#.to_string(),
    ];
    let over_wire: Vec<String> = replay_lines.iter().map(|l| ask(&mut t, l)).collect();
    let mut isolated = Service::new();
    let reference: Vec<String> =
        replay_lines.iter().map(|l| isolated.respond(l).unwrap()).collect();
    assert_eq!(over_wire, reference, "evicted-then-reopened session must replay");

    drop(t);
    handle.join().unwrap();
}

#[test]
fn stdin_and_a_half_closed_socket_answer_a_hostile_stream_byte_identically() {
    // CRLF endings, a line of invalid UTF-8, blank and `#` lines, and a
    // final line with no `\n`: the stdio loop and a reactor connection
    // that half-closes after writing it must frame and answer it alike.
    let mut stream: Vec<u8> = Vec::new();
    for line in [
        &br#"{"cmd":"open","session":"h","n":12,"delta":3,"colorer":"store-all","seed":4}"#[..],
        br#"{"cmd":"push","session":"h","edge":"0-1"}"#,
        b"",
        b"# a comment",
        b"{\"cmd\":\"push\",\"session\":\"h\",\"edge\":\"\xff\xfe-2\"}",
        br#"{"cmd":"push_batch","session":"h","edges":"1-2 2-3"}"#,
        b"   ",
        br#"{"cmd":"observe","session":"h"}"#,
    ] {
        stream.extend_from_slice(line);
        stream.extend_from_slice(b"\r\n");
    }
    stream.extend_from_slice(br#"{"cmd":"finish","session":"h"}"#);

    let mut stdio = Vec::new();
    Service::new().serve(&stream[..], &mut stdio).expect("stdin serving never fails on input");

    let mut reactor = Reactor::bind("127.0.0.1:0").unwrap();
    let addr = reactor.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || reactor.run(Some(1)).unwrap());
    let mut socket = std::net::TcpStream::connect(&addr).unwrap();
    socket.set_read_timeout(Some(TICK)).unwrap();
    std::io::Write::write_all(&mut socket, &stream).unwrap();
    socket.shutdown(std::net::Shutdown::Write).unwrap();
    let mut tcp = Vec::new();
    std::io::Read::read_to_end(&mut socket, &mut tcp).unwrap();
    handle.join().unwrap();

    let text = String::from_utf8(stdio.clone()).unwrap();
    let replies: Vec<&str> = text.lines().collect();
    assert_eq!(replies.len(), 6, "six command lines, six answers: {text}");
    assert!(replies[2].contains("\"ok\":false"), "the invalid UTF-8 line is an error: {text}");
    assert!(replies[5].contains("\"cmd\":\"finish\"") && replies[5].contains("\"ok\":true"));
    assert!(tcp == stdio, "reactor:\n{}\nstdin:\n{text}", String::from_utf8_lossy(&tcp));
}
