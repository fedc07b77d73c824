//! `streamcolor serve --script FILE` is only an input path: the file's
//! lines go through the same serving loop as lines piped to stdin, so
//! both answer byte-identically — session limits and `host_stats`
//! included. Runs the real binary, since stdin handling is under test:
//! hostile input (an over-long line, invalid UTF-8) gets error
//! responses, never a dead host.

use sc_service::{Service, MAX_LINE_BYTES};
use std::io::Write;
use std::process::{Command, Stdio};

/// Under `--max-sessions 1` the failed `open` must not take the only
/// slot, and `host_stats` must answer counters.
const SCRIPT: &str = r#"{"cmd":"open","session":"a","n":10,"colorer":"quantum"}
{"cmd":"open","session":"b","n":10,"delta":3,"colorer":"trivial"}
{"cmd":"push","session":"b","edge":"0-1"}
{"cmd":"host_stats","session":"probe"}
"#;

fn serve(script: Option<&std::path::Path>, stdin: Stdio) -> String {
    let mut command = Command::new(env!("CARGO_BIN_EXE_streamcolor"));
    command.args(["serve", "--max-sessions", "1"]).stdin(stdin);
    if let Some(path) = script {
        command.arg("--script").arg(path);
    }
    let out = command.output().expect("spawn streamcolor");
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 responses")
}

#[test]
fn script_file_and_stdin_answer_byte_identically() {
    let path = std::env::temp_dir().join(format!("serve-script-{}.commands", std::process::id()));
    std::fs::write(&path, SCRIPT).unwrap();
    let scripted = serve(Some(&path), Stdio::null());
    let piped = serve(None, Stdio::from(std::fs::File::open(&path).unwrap()));
    let _ = std::fs::remove_file(&path);

    assert_eq!(scripted, piped, "--script and stdin diverged");
    let lines: Vec<&str> = scripted.lines().collect();
    assert_eq!(lines.len(), 4, "{scripted}");
    assert!(lines[0].contains("unknown colorer"), "{scripted}");
    assert!(lines[1].contains("\"ok\":true"), "the failed open took the slot: {scripted}");
    assert!(lines[2].contains("\"len\":1"), "{scripted}");
    assert!(lines[3].contains("\"ok\":true") && lines[3].contains("\"sessions_open\":1"));
}

/// Pipes `input` to `streamcolor serve` and returns its stdout, asserting
/// a clean exit.
fn serve_stdin(input: Vec<u8>) -> Vec<u8> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_streamcolor"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn streamcolor");
    let mut stdin = child.stdin.take().unwrap();
    let writer = std::thread::spawn(move || stdin.write_all(&input).expect("serve read it all"));
    let out = child.wait_with_output().expect("wait for streamcolor");
    writer.join().unwrap();
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
    out.stdout
}

#[test]
fn a_newline_free_line_at_the_limit_gets_the_reactor_s_one_error() {
    let out = serve_stdin(vec![b'x'; MAX_LINE_BYTES]);
    let want = format!(
        "{{\"error\":\"line too long: no newline within {MAX_LINE_BYTES} bytes\",\"ok\":false}}\n"
    );
    assert_eq!(String::from_utf8(out).unwrap(), want);
}

#[test]
fn an_invalid_utf8_line_is_answered_and_serving_goes_on() {
    let script = b"{\"cmd\":\"open\",\"session\":\"u\",\"n\":10,\"colorer\":\"trivial\"}\n\
        {\"cmd\":\"push\",\"session\":\"u\",\"edge\":\"0-\xff\"}\n\
        \xc3\x28 not even json\n\
        {\"cmd\":\"finish\",\"session\":\"u\"}\n";
    let out = String::from_utf8(serve_stdin(script.to_vec())).expect("utf-8 responses");
    let mut service = Service::new();
    let want: String = String::from_utf8_lossy(script)
        .lines()
        .filter_map(|line| service.respond(line))
        .map(|response| response + "\n")
        .collect();
    assert_eq!(out, want);
    let answers: Vec<&str> = out.lines().collect();
    assert_eq!(answers.len(), 4, "{out}");
    assert!(answers[1].contains("\"ok\":false") && answers[2].contains("\"ok\":false"), "{out}");
    assert!(answers[3].contains("\"ok\":true"), "the host must keep serving: {out}");
}
