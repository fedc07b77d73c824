//! `streamcolor migrate` — move one named session between two serve
//! endpoints, live.
//!
//! ```text
//! $ streamcolor migrate --session a --from 127.0.0.1:7001 --to 127.0.0.1:7002
//! migrated session "a": 214 snapshot bytes, source dropped
//! ```
//!
//! The move is copy-then-drop (`sc_cluster::migrate_session`): snapshot
//! on the source (non-destructive), restore on the target, and only once
//! the target holds the session finish the source's copy. Any failure
//! leaves at least one live copy — a dead target leaves the source
//! untouched; a source that dies the instant the snapshot escapes still
//! yields a working target (reported as `source NOT dropped`). From the
//! hand-off point on, the target answers byte-identically to the
//! uninterrupted source (the persistence law), so clients that re-dial
//! the target cannot tell the migration happened.
//!
//! Endpoints are `HOST:PORT` (dialed over TCP) or `ssh:DEST` (a
//! `streamcolor serve` spawned over ssh, as in `shard --transport`).
//! `--timeout-ms N` bounds each protocol exchange (default 10000).

use crate::args::{err, Args, CliError};
use sc_cluster::{ChildStdio, Tcp, Transport};
use std::io::Write;
use std::time::Duration;

/// Dials one endpoint spec: `ssh:DEST` spawns a remote serve process
/// over ssh, anything else is a TCP address.
fn dial(spec: &str, role: &str) -> Result<Box<dyn Transport>, CliError> {
    if let Some(dest) = spec.strip_prefix("ssh:") {
        return Ok(Box::new(
            ChildStdio::ssh(dest).map_err(|e| err(format!("cannot dial {role} {spec:?}: {e}")))?,
        ));
    }
    Ok(Box::new(Tcp::connect(spec).map_err(|e| err(format!("cannot dial {role} {spec:?}: {e}")))?))
}

/// Runs the subcommand.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let session = args.required("session")?.to_string();
    let from = args.required("from")?.to_string();
    let to = args.required("to")?.to_string();
    let timeout_ms: u64 = args.parse_or("timeout-ms", 10_000)?;
    args.reject_unknown()?;
    if timeout_ms == 0 {
        return Err(err("--timeout-ms must be at least 1"));
    }
    if from == to {
        return Err(err("--from and --to name the same endpoint; nothing to migrate"));
    }

    let mut source = dial(&from, "--from")?;
    let mut target = dial(&to, "--to")?;
    let report = sc_cluster::migrate_session(
        source.as_mut(),
        target.as_mut(),
        &session,
        Duration::from_millis(timeout_ms),
    )
    .map_err(err)?;

    writeln!(
        out,
        "migrated session {:?}: {} snapshot bytes, source {}",
        report.name,
        report.snapshot_bytes,
        if report.source_dropped { "dropped" } else { "NOT dropped (endpoint unreachable)" }
    )
    .map_err(|e| err(e.to_string()))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_cluster::Reactor;

    fn run_toks(toks: &[&str]) -> Result<String, CliError> {
        let toks: Vec<String> = toks.iter().map(|s| s.to_string()).collect();
        let args = Args::parse(&toks, &[]).unwrap();
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn flag_grammar_is_validated() {
        for bad in [
            vec!["migrate", "--from", "a:1", "--to", "b:1"], // missing --session
            vec!["migrate", "--session", "s", "--to", "b:1"], // missing --from
            vec!["migrate", "--session", "s", "--from", "a:1"], // missing --to
            vec!["migrate", "--session", "s", "--from", "a:1", "--to", "a:1"], // same endpoint
            vec!["migrate", "--session", "s", "--from", "a:1", "--to", "b:1", "--timeout-ms", "0"],
            vec!["migrate", "--session", "s", "--from", "a:1", "--to", "b:1", "--bogus", "1"],
        ] {
            assert!(run_toks(&bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn unreachable_endpoint_is_a_friendly_error() {
        // 256.0.0.1 is not a valid IPv4 address, so the dial fails fast.
        let e = run_toks(&["migrate", "--session", "s", "--from", "256.0.0.1:1", "--to", "b:1"])
            .unwrap_err();
        assert!(e.to_string().contains("cannot dial --from"), "{e}");
    }

    #[test]
    fn migrates_a_session_between_two_shared_reactors() {
        // The full CLI story: a client opens a session on listener A
        // and disconnects; `streamcolor migrate` dials in fresh, moves
        // it to listener B; another fresh client finds it on B. This
        // needs --shared-sessions (sessions outlive connections and
        // names are host-global) — exactly what the serve flag enables.
        let mut source = Reactor::bind("127.0.0.1:0").unwrap().with_shared_sessions();
        let from_addr = source.local_addr().unwrap().to_string();
        let mut target = Reactor::bind("127.0.0.1:0").unwrap().with_shared_sessions();
        let to_addr = target.local_addr().unwrap().to_string();
        let s_handle = std::thread::spawn(move || source.run(Some(2)).unwrap());
        let t_handle = std::thread::spawn(move || target.run(Some(2)).unwrap());

        // Seeding client: open + push, then hang up.
        let mut seed = Tcp::connect(&from_addr).unwrap();
        for line in [
            r#"{"cmd":"open","session":"m","n":20,"delta":4,"colorer":"robust","seed":3}"#,
            r#"{"cmd":"push_batch","session":"m","edges":"0-1 1-2 2-3"}"#,
        ] {
            seed.send(line).unwrap();
            let response = seed.recv(Duration::from_secs(10)).unwrap();
            assert!(response.contains("\"ok\":true"), "{response}");
        }
        drop(seed);

        let text = run_toks(&["migrate", "--session", "m", "--from", &from_addr, "--to", &to_addr])
            .unwrap();
        assert!(text.contains("migrated session \"m\""), "{text}");
        assert!(text.contains("source dropped"), "{text}");

        // A fresh client finds the session on the target, with all its
        // state, and can finish it.
        let mut check = Tcp::connect(&to_addr).unwrap();
        check.send(r#"{"cmd":"stats","session":"m"}"#).unwrap();
        let stats = check.recv(Duration::from_secs(10)).unwrap();
        assert!(stats.contains("\"edges\":3"), "{stats}");
        check.send(r#"{"cmd":"finish","session":"m"}"#).unwrap();
        let finish = check.recv(Duration::from_secs(10)).unwrap();
        assert!(finish.contains("\"ok\":true") && finish.contains("\"coloring\":"), "{finish}");
        drop(check);

        s_handle.join().unwrap();
        t_handle.join().unwrap();
    }
}
