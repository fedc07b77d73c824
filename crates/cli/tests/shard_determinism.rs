//! The shard determinism law through the CLI's default path, end to end
//! with real worker processes.
//!
//! `streamcolor shard` with no `--transport` spawns `streamcolor serve`
//! children over stdio and merges their `run_job` answers. That merge
//! must be *byte-identical* to `--in-process` for every worker count
//! (1, 2, 7), for scenario grids and attack-trial sweeps alike.
//! `CARGO_BIN_EXE_streamcolor` names the binary cargo built for this
//! test, so the workers are the same executable users run — a unit test
//! cannot cover this, because its `current_exe()` is the test harness.

use sc_engine::shard::{smoke_grid, ShardJob};
use sc_engine::{AdversarySpec, AttackScenario, ColorerSpec};
use std::path::PathBuf;
use std::process::{Command, Output};

const CLI: &str = env!("CARGO_BIN_EXE_streamcolor");

fn cli(args: &[&str]) -> Output {
    Command::new(CLI).args(args).output().expect("spawn streamcolor")
}

/// Runs `streamcolor shard {args}` and returns its stdout (the merged
/// JSON), failing the test on a non-zero exit.
fn shard(args: &[&str]) -> String {
    let out = cli(&[&["shard"], args].concat());
    assert!(out.status.success(), "shard {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 JSON")
}

/// Writes `job` as a spec file unique to this test and returns its path.
fn spec_file(name: &str, job: &ShardJob) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("streamcolor-shard-law-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, job.encode()).unwrap();
    path
}

/// Asserts the default (stdio) path merges `source` byte-identically to
/// the single-process reference for each worker count.
fn assert_default_path_matches(source: &[&str], workers: &[usize]) {
    let reference = shard(&[source, &["--in-process"]].concat());
    for w in workers {
        let merged = shard(&[source, &["--workers", &w.to_string()]].concat());
        assert_eq!(merged, reference, "{w} worker(s) diverged from the single-process run");
    }
}

#[test]
fn grid_shards_merge_byte_identically() {
    assert_default_path_matches(&["--smoke"], &[1, 2, 7]);
}

#[test]
fn grids_smaller_than_the_worker_count_still_merge_byte_identically() {
    // 2 scenarios, 7 requested workers: the pool clamps the shard count
    // to the job size and leaves the surplus workers idle.
    let tiny = spec_file("tiny", &ShardJob::Grid(smoke_grid()[..2].to_vec()));
    assert_default_path_matches(&["--spec", tiny.to_str().unwrap()], &[7]);
}

#[test]
fn attack_trials_merge_byte_identically() {
    let job = ShardJob::Attack {
        scenario: AttackScenario::new(
            ColorerSpec::PaletteSparsification { lists: Some(3) },
            AdversarySpec::Monochromatic,
            50,
            12,
        )
        .with_rounds(300)
        .with_seed(70),
        trials: 9,
    };
    let spec = spec_file("attack", &job);
    assert_default_path_matches(&["--spec", spec.to_str().unwrap()], &[1, 2, 7]);
}

#[test]
fn empty_and_undersized_jobs_shard_cleanly() {
    let empty = spec_file("empty", &ShardJob::Grid(Vec::new()));
    let empty = ["--spec", empty.to_str().unwrap()];
    assert_eq!(shard(&[&empty[..], &["--in-process"]].concat()), "[]\n");
    assert_default_path_matches(&empty, &[3]);
    // One scenario over three workers: two stay idle.
    let single = spec_file("single", &ShardJob::Grid(smoke_grid()[..1].to_vec()));
    assert_default_path_matches(&["--spec", single.to_str().unwrap()], &[3]);
}

#[test]
fn worker_rejects_malformed_invocations() {
    // The file-based coordinator's flags, static dispatch and the
    // thread-per-connection listener are gone: each is an error, never
    // a silent fallback.
    let cases: [(&[&str], &str); 5] = [
        (&["shard", "--smoke", "--worker-bin", "x"], "unknown flag --worker-bin"),
        (&["shard", "--smoke", "--worker-threads", "2"], "unknown flag --worker-threads"),
        (&["shard", "--smoke", "--dispatch", "static"], "unknown flag --dispatch"),
        (&["serve", "--listen", "127.0.0.1:0", "--per-conn"], "--per-conn"),
        (&["shard", "--spec", "/nonexistent.json"], "cannot read spec"),
    ];
    for (args, want) in cases {
        let out = cli(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want), "{args:?}: {stderr}");
    }
}
