//! Drives a `streamcolor serve --listen` host (the reactor) with a
//! protocol script fanned across many concurrent
//! TCP connections, and reassembles the responses **in script order** so
//! the output is byte-comparable to `streamcolor serve --script` — the
//! CI `service-smoke` job diffs exactly that.
//!
//! ```text
//! reactor_client ADDR SCRIPT_FILE CONNECTIONS
//! ```
//!
//! Lines are routed to connections by session name (first-appearance
//! round-robin), so every session's commands travel one connection in
//! order — the determinism law then promises the same bytes the
//! single-host script run produces, whichever server mode answers.

use sc_cluster::transport::{Tcp, Transport as _};
use sc_engine::flatjson::parse_object;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [addr, script_path, conn_count] = args.as_slice() else {
        eprintln!("usage: reactor_client ADDR SCRIPT_FILE CONNECTIONS");
        std::process::exit(2);
    };
    let conn_count: usize = match conn_count.parse() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("CONNECTIONS must be a positive integer");
            std::process::exit(2);
        }
    };
    let script = match std::fs::read_to_string(script_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {script_path}: {e}");
            std::process::exit(2);
        }
    };

    // Route: responding lines (everything but blanks and comments) go to
    // the connection owning their session name, assigned round-robin by
    // first appearance. Unparseable lines have no session; they ride
    // connection 0 (any fixed choice works — reassembly is by index).
    let mut route_of: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    let mut per_conn: Vec<Vec<(usize, String)>> = vec![Vec::new(); conn_count];
    for (idx, line) in script.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let session = parse_object(line)
            .ok()
            .and_then(|obj| obj.get("session").and_then(|s| s.as_str().map(String::from)))
            .unwrap_or_default();
        let assigned = route_of.len() % conn_count;
        let conn = *route_of.entry(session).or_insert(assigned);
        per_conn[conn].push((idx, line.to_string()));
    }

    // One thread per connection: send every line, then collect exactly
    // one response per line, tagged with its script index.
    let workers: Vec<_> = per_conn
        .into_iter()
        .filter(|lines| !lines.is_empty())
        .map(|lines| {
            let addr = addr.clone();
            std::thread::spawn(move || -> Result<Vec<(usize, String)>, String> {
                let mut t = Tcp::connect(&addr)?;
                for (_, line) in &lines {
                    t.send(line).map_err(|e| e.to_string())?;
                }
                let mut out = Vec::with_capacity(lines.len());
                for (idx, _) in &lines {
                    let response =
                        t.recv(Duration::from_secs(60)).map_err(|e| format!("line {idx}: {e}"))?;
                    out.push((*idx, response));
                }
                Ok(out)
            })
        })
        .collect();

    let mut responses: Vec<Option<String>> = vec![None; script.lines().count()];
    for worker in workers {
        match worker.join().expect("client thread must not panic") {
            Ok(pairs) => {
                for (idx, response) in pairs {
                    responses[idx] = Some(response);
                }
            }
            Err(e) => {
                eprintln!("reactor_client: {e}");
                std::process::exit(1);
            }
        }
    }
    let mut stdout = String::new();
    for response in responses.into_iter().flatten() {
        stdout.push_str(&response);
        stdout.push('\n');
    }
    print!("{stdout}");
}
