//! `streamcolor serve --script FILE` is only an input path: the file's
//! lines go through the same serving loop as lines piped to stdin, so
//! both answer byte-identically — session limits and `host_stats`
//! included. Runs the real binary, since stdin handling is under test.

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
