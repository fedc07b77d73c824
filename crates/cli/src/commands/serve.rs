//! `streamcolor serve` — host many named coloring sessions behind the
//! flat-JSON line protocol.
//!
//! Reads one command object per line, writes one canonical response
//! object per line (see `sc_service::service` for the protocol):
//!
//! ```text
//! $ streamcolor serve <<'EOF'
//! {"cmd":"open","session":"a","n":100,"delta":8,"colorer":"robust","seed":7}
//! {"cmd":"push_batch","session":"a","edges":"0-1 1-2 2-3"}
//! {"cmd":"observe","session":"a"}
//! {"cmd":"finish","session":"a"}
//! EOF
//! ```
//!
//! With no `--script`, commands stream from stdin and each response is
//! written (and flushed) as soon as its command arrives — an
//! interactive client, like the adversary game, can react to every
//! answer. `--script FILE` executes a whole command file instead,
//! fanning independent sessions out across `--threads N` workers;
//! responses come back in input order and are **byte-identical for
//! every thread count** (CI's `service-smoke` job diffs them against a
//! committed golden file).
//!
//! `--listen ADDR` serves over a TCP socket instead of stdio: every
//! connection is multiplexed onto **one** event loop over one shared
//! `Service` (`sc_cluster::Reactor`). Sessions stay owner-scoped per
//! connection, so each client's responses are byte-identical to a
//! private service's, while thousands of idle connections cost one
//! thread. `--reactor` is accepted for compatibility and names this,
//! the only `--listen` mode. `--idle-ms N` evicts connections silent
//! for N milliseconds; with `--max-sessions N` the host-wide cap evicts
//! the least-recently-used session (an error response on its owner's
//! next command) instead of rejecting the `open`. `--snapshot-dir DIR`
//! upgrades that eviction to evict-to-disk: the victim's state is
//! written as a snapshot file and its owner's next command
//! transparently restores it, replaying byte-identically instead of
//! erroring. `--shared-sessions` makes session names host-global (one
//! shared owner for every connection) and lets sessions outlive their
//! opening connection — the mode `streamcolor migrate` needs to address
//! sessions other clients opened. `--accept N` closes the listener
//! after N connections (demos and tests — default is to accept
//! forever).
//!
//! A serve process is what `streamcolor shard --transport stdio|tcp|ssh`
//! talks to — any serve endpoint doubles as a shard worker via the
//! protocol's `run_job` command. The loop answers one command at a
//! time, so the connections of a `--transport tcp` fleet to one
//! `--listen` process run their slices one after another. Outside
//! `--listen`, `--max-sessions N` turns a rogue client's unbounded
//! `open`s into error responses.

use crate::args::{err, Args, CliError};
use sc_cluster::Reactor;
use sc_service::Service;
use std::io::Write;
use std::time::Duration;

/// Runs the subcommand.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let threads_given = args.optional("threads").is_some();
    let threads: usize = args.parse_or("threads", 1)?;
    let script = args.optional("script").map(String::from);
    let listen = args.optional("listen").map(String::from);
    let max_sessions: Option<usize> = args.parse_optional("max-sessions")?;
    let accept: Option<usize> = args.parse_optional("accept")?;
    // The only --listen mode; the switch is still accepted by name.
    let reactor = args.switch("reactor");
    let idle_ms: Option<u64> = args.parse_optional("idle-ms")?;
    let snapshot_dir = args.optional("snapshot-dir").map(String::from);
    let shared_sessions = args.switch("shared-sessions");
    args.reject_unknown()?;
    if threads == 0 {
        return Err(err("--threads must be at least 1"));
    }
    if script.is_some() && listen.is_some() {
        return Err(err("--script and --listen are mutually exclusive"));
    }
    // Stdin and socket modes answer line-at-a-time (the client may react
    // to every response), so there is nothing to fan out — reject the
    // flag rather than silently ignoring it.
    if threads_given && script.is_none() {
        return Err(err("--threads applies to --script mode only (interactive serving answers \
             one command at a time)"));
    }
    if accept.is_some() && listen.is_none() {
        return Err(err("--accept applies to --listen mode only"));
    }
    if accept == Some(0) {
        return Err(err("--accept must be at least 1"));
    }
    // A zero cap could never host a session — same spirit as --accept 0.
    if max_sessions == Some(0) {
        return Err(err("--max-sessions must be at least 1"));
    }
    if idle_ms == Some(0) {
        return Err(err("--idle-ms must be at least 1"));
    }
    // The reactor's knobs would be silent no-ops on stdio or a script.
    if listen.is_none()
        && (reactor || idle_ms.is_some() || snapshot_dir.is_some() || shared_sessions)
    {
        return Err(err(
            "--reactor / --idle-ms / --snapshot-dir / --shared-sessions apply to --listen mode only",
        ));
    }

    if let Some(addr) = listen {
        let mut server =
            Reactor::bind(&addr).map_err(|e| err(format!("cannot listen on {addr}: {e}")))?;
        if let Some(limit) = max_sessions {
            server = server.with_max_sessions(limit);
        }
        if let Some(ms) = idle_ms {
            server = server.with_idle_timeout(Duration::from_millis(ms));
        }
        if let Some(dir) = snapshot_dir {
            server = server.with_snapshot_dir(std::path::PathBuf::from(dir));
        }
        if shared_sessions {
            server = server.with_shared_sessions();
        }
        let local = server.local_addr().map_err(|e| err(e.to_string()))?;
        // Announce the bound address (port 0 resolves here) so scripts
        // can wait for readiness before dialing.
        writeln!(out, "listening on {local}")
            .and_then(|()| out.flush())
            .map_err(|e| err(e.to_string()))?;
        return server.run(accept).map_err(|e| err(e.to_string()));
    }

    let mut service = Service::with_threads(threads);
    if let Some(limit) = max_sessions {
        service = service.with_max_sessions(limit);
    }
    match script {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| err(format!("cannot read script {path:?}: {e}")))?;
            out.write_all(service.run_script(&text).as_bytes()).map_err(|e| err(e.to_string()))?;
        }
        None => {
            let stdin = std::io::stdin();
            service.serve(stdin.lock(), out).map_err(|e| err(e.to_string()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `line` with serve's switches and runs it, collecting output.
    fn serve(line: &str) -> Result<String, CliError> {
        let toks: Vec<String> = line.split_whitespace().map(String::from).collect();
        let args = Args::parse(&toks, &["reactor", "shared-sessions"])?;
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    fn run_script_file(script: &str, extra: &str) -> Result<String, CliError> {
        let dir = std::env::temp_dir().join("streamcolor-serve-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("script-{}.commands", std::process::id()));
        std::fs::write(&path, script).unwrap();
        serve(&format!("serve --script {} {extra}", path.display()))
    }

    const SCRIPT: &str = r#"# two tenants
{"cmd":"open","session":"a","n":12,"delta":3,"colorer":"store-all","seed":1}
{"cmd":"open","session":"b","n":12,"delta":3,"colorer":"trivial","seed":2}
{"cmd":"push_batch","session":"a","edges":"0-1 1-2 2-3"}
{"cmd":"push_batch","session":"b","edges":"0-1 1-2 2-3"}
{"cmd":"observe","session":"a"}
{"cmd":"observe","session":"b"}
{"cmd":"finish","session":"a"}
{"cmd":"finish","session":"b"}
"#;

    #[test]
    fn script_mode_emits_one_response_per_command() {
        let text = run_script_file(SCRIPT, "").unwrap();
        assert_eq!(text.lines().count(), 8, "{text}");
        assert!(text.lines().all(|l| l.contains("\"ok\":true")), "{text}");
    }

    #[test]
    fn script_output_is_thread_count_invariant() {
        let one = run_script_file(SCRIPT, "--threads 1").unwrap();
        let four = run_script_file(SCRIPT, "--threads 4").unwrap();
        assert_eq!(one, four, "thread count leaked into protocol output");
    }

    #[test]
    fn max_sessions_bounds_script_tenants() {
        let text = run_script_file(SCRIPT, "--max-sessions 1").unwrap();
        assert_eq!(text.matches("session limit reached (1 open)").count(), 1, "{text}");
        // Session b's open is the rejected one; its later commands fail
        // with unknown session — all as responses, the run completes.
        assert_eq!(text.lines().count(), 8, "{text}");
    }

    #[test]
    fn flag_grammar_is_validated() {
        assert!(run_script_file(SCRIPT, "--threads 0").is_err());
        assert!(run_script_file(SCRIPT, "--bogus 1").is_err());
        assert!(run_script_file(SCRIPT, "--listen 127.0.0.1:0").is_err(), "script+listen");
        assert!(run_script_file(SCRIPT, "--max-sessions x").is_err());
        assert!(serve("serve --script /nonexistent/x.commands").is_err());
        for (bad, want) in [
            // --threads is script-mode-only: stdin serving is interactive,
            // so the flag would be a silent no-op — reject it instead.
            ("serve --threads 4", "--script mode only"),
            // --accept needs --listen; zero connections make no sense.
            ("serve --accept 2", "--listen mode only"),
            ("serve --listen x --accept 0", "at least 1"),
            // A zero session cap could never host anything.
            ("serve --listen 127.0.0.1:0 --max-sessions 0", "--max-sessions must be at least 1"),
            // The reactor's knobs are listen-only, and the removed
            // thread-per-connection mode is no longer a flag.
            ("serve --reactor", "--listen mode only"),
            ("serve --idle-ms 5", "--listen mode only"),
            ("serve --listen 127.0.0.1:0 --idle-ms 0", "at least 1"),
            ("serve --snapshot-dir /tmp/x", "--listen mode only"),
            ("serve --shared-sessions", "--listen mode only"),
            ("serve --listen 127.0.0.1:0 --per-conn", "--per-conn"),
            // An unbindable listen address is a friendly error.
            ("serve --listen 256.0.0.1:1", "cannot listen"),
        ] {
            let e = serve(bad).unwrap_err();
            assert!(e.to_string().contains(want), "{bad}: {e}");
        }
    }

    /// Runs `serve --listen 127.0.0.1:0 --accept 1 {flags}` through the
    /// CLI on a thread; returns the address it announces and the thread.
    fn listen_via_cli(flags: &str) -> (String, std::thread::JoinHandle<()>) {
        use std::io::BufRead as _;
        let toks: Vec<String> = format!("serve --listen 127.0.0.1:0 --accept 1 {flags}")
            .split_whitespace()
            .map(String::from)
            .collect();
        let args = Args::parse(&toks, &["reactor", "shared-sessions"]).unwrap();
        let (announced, mut writer) = std::io::pipe().unwrap();
        let handle = std::thread::spawn(move || run(&args, &mut writer).unwrap());
        let mut line = String::new();
        std::io::BufReader::new(announced).read_line(&mut line).unwrap();
        (line.trim().strip_prefix("listening on ").unwrap().to_string(), handle)
    }

    /// Opens a session, then reads `host_stats`: only the reactor
    /// records connections, so `connections_accepted` proves which
    /// server answered.
    fn open_and_probe(addr: &str) -> String {
        use sc_cluster::{Tcp, Transport as _};
        let mut t = Tcp::connect(addr).unwrap();
        t.send(r#"{"cmd":"open","session":"a","n":10,"colorer":"trivial"}"#).unwrap();
        let response = t.recv(std::time::Duration::from_secs(10)).unwrap();
        assert!(response.contains("\"ok\":true"), "{response}");
        t.send(r#"{"cmd":"host_stats","session":"probe"}"#).unwrap();
        t.recv(std::time::Duration::from_secs(10)).unwrap()
    }

    #[test]
    fn reactor_mode_serves_protocol_lines_over_tcp() {
        // --reactor is still accepted and names the only --listen mode.
        let (addr, handle) = listen_via_cli("--reactor --max-sessions 2");
        let stats = open_and_probe(&addr);
        assert!(stats.contains("\"connections_accepted\":1"), "{stats}");
        handle.join().unwrap();
    }

    #[test]
    fn listen_mode_serves_protocol_lines_over_tcp() {
        // No mode flag: --listen runs the reactor.
        let (addr, handle) = listen_via_cli("--max-sessions 2");
        let stats = open_and_probe(&addr);
        assert!(stats.contains("\"connections_accepted\":1"), "{stats}");
        handle.join().unwrap();
    }
}
