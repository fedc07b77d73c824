//! `streamcolor shard` — run a scenario grid sharded across workers and
//! write the merged summary JSON.
//!
//! Every mode merges byte-identically to the single-process reference
//! (CI literally `diff`s them):
//!
//! ```text
//! cargo build --release --bin streamcolor
//! # single-process reference
//! target/release/streamcolor shard --smoke --in-process --out single.json
//! # the default: --transport stdio, N spawned `streamcolor serve` workers
//! target/release/streamcolor shard --smoke --workers 4 --out merged.json
//! # the other transports: run_job dispatch lines over the service protocol
//! target/release/streamcolor shard --smoke --transport process --workers 4
//! target/release/streamcolor serve --listen 127.0.0.1:7841 &
//! target/release/streamcolor shard --smoke --transport tcp --connect 127.0.0.1:7841 --workers 4
//! ```
//!
//! `--transport` selects the fleet's `sc_cluster` transports, and the
//! fleet runs through one `sc_cluster::WorkerPool`: `stdio` (the
//! default) spawns `streamcolor serve` children and speaks over their
//! pipes, `process` hosts loopback services in this process (protocol
//! fidelity, no spawn cost), `tcp` opens `--workers` connections to a
//! `--connect ADDR` listener, and `ssh` starts `--workers` remote serve
//! processes via `ssh USER@HOST[:PATH] serve` (`--connect` names the
//! destination, reached with `ChildStdio::ssh`). One `serve --listen`
//! process answers on a single event loop, so a `tcp` fleet's slices
//! run one at a time; stdio and ssh fleets run them in parallel. Every
//! fleet survives dead workers and stragglers by re-dispatching their
//! slices (`--timeout-ms` sets the straggler deadline); the run report
//! counts any retries. Scheduling
//! knobs: `--speculate-after FRAC` launches a duplicate of a slice held
//! past `FRAC × timeout` on an idle worker (first answer wins —
//! byte-identical either way), and `--skew-ms N` deliberately slows the
//! last worker's answers (the reproducible straggler CI's skewed-fleet
//! smoke run measures scheduling against). `--spec FILE` runs an
//! arbitrary `ShardJob::encode` spec file instead of the built-in
//! `--smoke` grid.

use crate::args::{err, Args, CliError};
use sc_cluster::{ChildStdio, InProcess, Tcp, Transport, Unreliable, WorkerPool};
use sc_engine::shard::{run_in_process, smoke_grid, ShardJob, ShardOutcome};
use std::io::Write;
use std::time::Duration;

/// Runs the subcommand.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let workers: usize = args.parse_or("workers", 2)?;
    let smoke = args.switch("smoke");
    let in_process = args.switch("in-process");
    let spec_path = args.optional("spec").map(String::from);
    let out_path = args.optional("out").map(String::from);
    let transport = args.optional("transport").map(String::from);
    let connect = args.optional("connect").map(String::from);
    let timeout_ms: u64 = args.parse_optional("timeout-ms")?.unwrap_or(600_000);
    let timeout_given = args.optional("timeout-ms").is_some();
    let speculate_after: Option<f64> = args.parse_optional("speculate-after")?;
    let skew_ms: Option<u64> = args.parse_optional("skew-ms")?;
    args.reject_unknown()?;
    if workers == 0 {
        return Err(err("--workers must be at least 1 (0 processes cannot run anything)"));
    }
    if timeout_ms == 0 {
        return Err(err("--timeout-ms must be at least 1"));
    }
    // NaN-safe: `NaN > 0.0` is false, so `--speculate-after nan` lands here too.
    if let Some(fraction) = speculate_after {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(err(format!(
                "--speculate-after must be a fraction of --timeout-ms in (0, 1], got {fraction}"
            )));
        }
    }
    if skew_ms == Some(0) {
        return Err(err("--skew-ms must be at least 1 (omit it for an unskewed fleet)"));
    }
    if in_process
        && (transport.is_some() || timeout_given || speculate_after.is_some() || skew_ms.is_some())
    {
        return Err(err(
            "--in-process runs no workers: --transport / --timeout-ms / --speculate-after / \
             --skew-ms do not apply",
        ));
    }
    let mode = transport.as_deref().unwrap_or("stdio");
    if connect.is_some() && !matches!(mode, "tcp" | "ssh") {
        return Err(err("--connect applies to --transport tcp and ssh only"));
    }

    let job = match (smoke, spec_path) {
        (true, None) => ShardJob::Grid(smoke_grid()),
        (false, Some(path)) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| err(format!("cannot read spec {path:?}: {e}")))?;
            ShardJob::decode(&text).map_err(|e| err(format!("spec {path:?}: {e}")))?
        }
        (true, Some(_)) => return Err(err("--smoke and --spec are mutually exclusive")),
        (false, None) => return Err(err("need --smoke or --spec <file>")),
    };

    // `how` describes what actually ran, for the report line.
    let (outcome, how) = if in_process {
        (run_in_process(&job, workers).map_err(err)?, "1 process".to_string())
    } else {
        let make: Box<dyn Fn() -> Result<Box<dyn Transport>, String>> = match mode {
            "process" => Box::new(|| Ok(Box::new(InProcess::new()))),
            "stdio" => {
                let exe = std::env::current_exe()
                    .map_err(|e| err(format!("cannot locate myself: {e}")))?;
                Box::new(move || Ok(Box::new(ChildStdio::spawn(&exe, &["serve"])?)))
            }
            "tcp" => {
                let addr = connect.ok_or_else(|| err("--transport tcp needs --connect ADDR"))?;
                Box::new(move || Ok(Box::new(Tcp::connect(&addr)?)))
            }
            "ssh" => {
                let dest = connect
                    .ok_or_else(|| err("--transport ssh needs --connect USER@HOST[:PATH]"))?;
                Box::new(move || Ok(Box::new(ChildStdio::ssh(&dest)?)))
            }
            other => {
                return Err(err(format!(
                    "unknown --transport {other:?} (process | stdio | tcp | ssh)"
                )))
            }
        };
        let mut fleet = (0..workers).map(|_| make()).collect::<Result<Vec<_>, _>>().map_err(err)?;
        if let Some(ms) = skew_ms {
            // The reproducible straggler: the last worker answers late.
            let last = fleet.pop().expect("--workers is at least 1");
            fleet.push(Box::new(Unreliable::slowed_by(last, Duration::from_millis(ms))));
        }
        let mut pool = WorkerPool::new(fleet).with_timeout(Duration::from_millis(timeout_ms));
        if let Some(fraction) = speculate_after {
            pool = pool.with_speculation(fraction);
        }
        let report = pool.dispatch(&job).map_err(err)?;
        let retries = match report.retries {
            0 => String::new(),
            n => format!(", {n} slice(s) re-dispatched"),
        };
        let speculated = match report.speculative {
            0 => String::new(),
            n => format!(", {n} speculated ({} wasted)", report.wasted),
        };
        (report.outcome, format!("{} {mode} worker(s){retries}{speculated}", report.shards))
    };

    let json = outcome.encode();
    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).map_err(|e| err(format!("cannot write {path:?}: {e}")))?;
            let what = match &outcome {
                ShardOutcome::Grid(summaries) => format!("{} run summaries", summaries.len()),
                ShardOutcome::Attack(s) => format!("trial summary ({} trials)", s.trials),
            };
            writeln!(out, "{} item(s) across {how} — wrote {what} to {path}", job.len())
                .map_err(|e| err(e.to_string()))?;
        }
        None => out.write_all(json.as_bytes()).map_err(|e| err(e.to_string()))?,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(s: &str) -> Result<String, CliError> {
        let toks: Vec<String> = s.split_whitespace().map(String::from).collect();
        let args = Args::parse(&toks, &["smoke", "in-process"]).unwrap();
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    // The default stdio path spawns `current_exe() serve`, which here is
    // the test harness, so real worker processes are covered by
    // `tests/shard_determinism.rs` (which names the built binary via
    // CARGO_BIN_EXE); here we cover the in-process paths and the flag
    // grammar.

    #[test]
    fn in_process_smoke_grid_emits_summaries() {
        let text = run_str("shard --smoke --in-process --workers 3").unwrap();
        let outcome = ShardOutcome::decode(&text).unwrap();
        match outcome {
            ShardOutcome::Grid(summaries) => {
                assert_eq!(summaries.len(), smoke_grid().len());
                assert!(summaries.iter().all(|s| s.colors > 0));
            }
            other => panic!("expected grid summaries, got {other:?}"),
        }
    }

    #[test]
    fn in_process_runs_are_worker_count_invariant() {
        let a = run_str("shard --smoke --in-process --workers 1").unwrap();
        let b = run_str("shard --smoke --in-process --workers 4").unwrap();
        assert_eq!(a, b, "thread count leaked into the merged JSON");
    }

    #[test]
    fn process_transport_matches_the_in_process_reference() {
        // The cluster loopback fleet must merge byte-identically to the
        // single-process run — the determinism law through the CLI.
        let dir = std::env::temp_dir().join("streamcolor-shard-transport-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.json");
        std::fs::write(&spec, ShardJob::Grid(smoke_grid()[..3].to_vec()).encode()).unwrap();
        let reference = run_str(&format!("shard --spec {} --in-process", spec.display())).unwrap();
        let clustered =
            run_str(&format!("shard --spec {} --transport process --workers 2", spec.display()))
                .unwrap();
        assert_eq!(clustered, reference, "process-transport merge diverged");
    }

    #[test]
    fn spec_files_round_trip_through_the_cli() {
        let dir = std::env::temp_dir().join("streamcolor-shard-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.json");
        let grid = ShardJob::Grid(smoke_grid()[..2].to_vec());
        std::fs::write(&spec, grid.encode()).unwrap();
        let out_file = dir.join("merged.json");
        let text = run_str(&format!(
            "shard --spec {} --in-process --out {}",
            spec.display(),
            out_file.display()
        ))
        .unwrap();
        assert!(text.contains("2 item(s)"), "{text}");
        let written = std::fs::read_to_string(&out_file).unwrap();
        assert!(
            matches!(ShardOutcome::decode(&written).unwrap(), ShardOutcome::Grid(s) if s.len() == 2)
        );
    }

    #[test]
    fn flag_grammar_is_validated() {
        assert!(run_str("shard --in-process").is_err(), "need a job source");
        assert!(run_str("shard --smoke --spec x.json --in-process").is_err(), "exclusive flags");
        assert!(run_str("shard --smoke --bogus 1").is_err());
        // Cluster-flag grammar.
        assert!(run_str("shard --smoke --transport process --in-process").is_err());
        assert!(run_str("shard --smoke --transport warp").is_err(), "unknown transport");
        assert!(run_str("shard --smoke --transport tcp").is_err(), "tcp needs --connect");
        assert!(run_str("shard --smoke --connect 1.2.3.4:5").is_err(), "connect needs tcp/ssh");
        // The file-based coordinator's and static dispatch's flags are gone.
        for flags in ["--worker-bin x", "--worker-threads 2", "--dispatch static"] {
            let e = run_str(&format!("shard --smoke --transport process {flags}")).unwrap_err();
            assert!(e.to_string().contains("unknown flag"), "{flags}: {e}");
        }
        assert!(run_str("shard --smoke --transport process --timeout-ms 0").is_err());
        assert!(run_str("shard --smoke --transport ssh").is_err(), "ssh needs --connect");
        // A malformed ssh destination fails fleet validation, not spawn.
        let e = run_str("shard --smoke --transport ssh --connect host:").unwrap_err();
        assert!(e.to_string().contains("empty remote path"), "{e}");
        // --timeout-ms would be a silent no-op without workers.
        let e = run_str("shard --smoke --in-process --timeout-ms 5000").unwrap_err();
        assert!(e.to_string().contains("do not apply"), "{e}");
        // An unreachable tcp endpoint is a friendly error.
        let e = run_str("shard --smoke --transport tcp --connect 127.0.0.1:1").unwrap_err();
        assert!(e.to_string().contains("cannot connect"), "{e}");
    }

    #[test]
    fn scheduling_flags_are_validated() {
        // The fraction must be a real number in (0, 1].
        for bad in ["0", "-0.25", "1.5", "nan"] {
            let e = run_str(&format!("shard --smoke --transport process --speculate-after {bad}"))
                .unwrap_err();
            assert!(e.to_string().contains("(0, 1]"), "{bad}: {e}");
        }
        let e = run_str("shard --smoke --transport process --skew-ms 0").unwrap_err();
        assert!(e.to_string().contains("--skew-ms must be at least 1"), "{e}");
        // Scheduling knobs without workers would be silent no-ops.
        for flags in ["--speculate-after 0.5", "--skew-ms 50"] {
            let e = run_str(&format!("shard --smoke --in-process {flags}")).unwrap_err();
            assert!(e.to_string().contains("do not apply"), "{flags}: {e}");
        }
    }

    #[test]
    fn scheduling_modes_preserve_the_merged_bytes() {
        // Speculation and a skewed worker are byte-invisible: every
        // variant reproduces the reference.
        let dir = std::env::temp_dir().join("streamcolor-shard-scheduling-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.json");
        std::fs::write(&spec, ShardJob::Grid(smoke_grid()[..3].to_vec()).encode()).unwrap();
        let reference = run_str(&format!("shard --spec {} --in-process", spec.display())).unwrap();
        for flags in ["--speculate-after 1 --timeout-ms 60000", "--skew-ms 1"] {
            let text = run_str(&format!(
                "shard --spec {} --transport process --workers 2 {flags}",
                spec.display()
            ))
            .unwrap();
            assert_eq!(text, reference, "{flags}: scheduling mode leaked into the bytes");
        }
    }

    #[test]
    fn zero_workers_is_a_friendly_error_not_a_silent_clamp() {
        for flags in ["--smoke --workers 0", "--smoke --in-process --workers 0"] {
            let e = run_str(&format!("shard {flags}")).unwrap_err();
            assert!(e.to_string().contains("--workers must be at least 1"), "{e}");
        }
    }

    #[test]
    fn grids_smaller_than_the_worker_count_merge_correctly() {
        // A 2-scenario grid with 7 requested workers: the pool
        // clamps to the job size (degenerate-but-correct merge), and the
        // report names the spawn count that would actually run.
        let dir = std::env::temp_dir().join("streamcolor-shard-degenerate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("tiny-spec.json");
        let grid = ShardJob::Grid(smoke_grid()[..2].to_vec());
        std::fs::write(&spec, grid.encode()).unwrap();
        let out_file = dir.join("tiny-merged.json");
        let text = run_str(&format!(
            "shard --spec {} --in-process --workers 7 --out {}",
            spec.display(),
            out_file.display()
        ))
        .unwrap();
        assert!(text.contains("2 item(s)"), "{text}");
        let written = std::fs::read_to_string(&out_file).unwrap();
        match ShardOutcome::decode(&written).unwrap() {
            ShardOutcome::Grid(summaries) => {
                assert_eq!(summaries.len(), 2);
                assert!(summaries.iter().all(|s| s.proper));
            }
            other => panic!("expected grid summaries, got {other:?}"),
        }
        // The reference single-worker run is byte-identical.
        let ref_file = dir.join("tiny-single.json");
        run_str(&format!(
            "shard --spec {} --in-process --workers 1 --out {}",
            spec.display(),
            ref_file.display()
        ))
        .unwrap();
        assert_eq!(written, std::fs::read_to_string(&ref_file).unwrap());
    }
}
