//! Experiment — the cluster layer's overhead curve: what dispatching a
//! shard job through `sc-cluster` transports costs relative to the
//! single-process `run_in_process` reference, and what a worker death's
//! re-dispatch costs on top.
//!
//! Three fleet shapes, each first asserted **byte-identical** to the
//! reference (the determinism law re-checked where the numbers are
//! produced), then timed:
//!
//! * `process` — loopback [`InProcess`] workers: full protocol
//!   encode/decode, no extra parallelism, so its `efficiency =
//!   in_process_ms / cluster_ms` is the pure protocol-overhead floor
//!   (≈ 1.0; a sustained drop means the `run_job` line codec or spec
//!   re-encoding got expensive);
//! * `stdio` — real `cluster_worker` child processes: protocol
//!   overhead plus spawn cost, minus process-level parallelism, so
//!   efficiency can exceed 1.0 on multi-core hosts;
//! * `retry` — loopback workers plus one injected mid-job death
//!   ([`Unreliable`]): efficiency measures what re-running one orphaned
//!   slice costs (the straggler/re-dispatch tax);
//! * `skew` — loopback workers plus one [`Unreliable::slowed_by`]
//!   straggler, timed with speculative re-dispatch off and on:
//!   `efficiency = unspeculated_ms / stealing_ms` is the scheduling win
//!   (> 1 means speculation rescued the straggler's slice; without it
//!   the dispatch waits for the straggler).
//!
//! Emits `BENCH_cluster.json`; `--smoke` shrinks the grid and writes
//! `BENCH_cluster.smoke.json` (CI-sized; never clobbers the committed
//! full-profile file). CI's `cluster-smoke` job gates the efficiency
//! fields via `ci/bench_baselines.json`.

use sc_bench::{median, median_time_ms, smoke_run, write_rows, Row};
use sc_cluster::{ChildStdio, InProcess, Transport, Unreliable, WorkerPool};
use sc_engine::shard::{run_in_process, smoke_grid, ShardJob};
use sc_engine::{ColorerSpec, Scenario, SourceSpec};
use sc_stream::{QuerySchedule, StreamOrder};
use std::time::{Duration, Instant};

struct Profile {
    smoke: bool,
    /// Healthy workers per fleet.
    workers: usize,
    /// Timing repetitions (median goes into the file).
    reps: usize,
}

impl Profile {
    fn full() -> Self {
        Self { smoke: false, workers: 4, reps: 5 }
    }

    fn smoke() -> Self {
        // The smoke grid runs in ~15 ms, so single-run noise is a large
        // fraction of the signal; more reps keep the gated medians stable.
        Self { smoke: true, workers: 3, reps: 7 }
    }

    /// The job under test: the CI smoke grid, or a heavier full-profile
    /// grid (same shape, larger instances, more scenarios).
    fn job(&self) -> ShardJob {
        if self.smoke {
            return ShardJob::Grid(smoke_grid());
        }
        let mut scenarios = Vec::new();
        for (i, n) in [(0u64, 900usize), (1, 1400)] {
            let exact = SourceSpec::exact_degree(n, 14, 7 + i);
            let gnp = SourceSpec::gnp(n, 14, 0.3, 11 + i);
            scenarios.extend([
                Scenario::new(exact.clone(), ColorerSpec::Robust { beta: None })
                    .labeled(format!("cluster robust n={n}"))
                    .with_order(StreamOrder::Shuffled(1))
                    .with_seed(21 + i)
                    .with_schedule(QuerySchedule::EveryEdges(997)),
                Scenario::new(gnp.clone(), ColorerSpec::RandEfficient)
                    .labeled(format!("cluster alg3 n={n}"))
                    .with_seed(22 + i),
                Scenario::new(exact.clone(), ColorerSpec::Bg18 { buckets: None })
                    .labeled(format!("cluster bg18 n={n}"))
                    .with_seed(23 + i),
                Scenario::new(gnp, ColorerSpec::StoreAll)
                    .labeled(format!("cluster store-all n={n}"))
                    .with_seed(24 + i)
                    .with_schedule(QuerySchedule::EveryEdges(1499)),
                Scenario::new(exact, ColorerSpec::Bcg20 { epsilon: 0.5 })
                    .labeled(format!("cluster bcg20 n={n}"))
                    .with_order(StreamOrder::VertexContiguous)
                    .with_seed(25 + i),
            ]);
        }
        ShardJob::Grid(scenarios)
    }
}

/// Locates `cluster_worker` (a bare `Service::serve` loop) next to this
/// executable.
fn sibling_worker() -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let dir = exe.parent().ok_or("executable has no parent directory")?;
    let candidate = dir.join(if cfg!(windows) { "cluster_worker.exe" } else { "cluster_worker" });
    if candidate.exists() {
        Ok(candidate)
    } else {
        Err(format!(
            "worker binary not found at {candidate:?}; build it with \
             `cargo build --release --bin cluster_worker`"
        ))
    }
}

enum Fleet {
    Process,
    Stdio,
    Retry,
}

impl Fleet {
    fn name(&self) -> &'static str {
        match self {
            Fleet::Process => "process",
            Fleet::Stdio => "stdio",
            Fleet::Retry => "retry",
        }
    }

    /// Builds a fresh fleet (transports are consumed per dispatch rep:
    /// stdio workers die with their pool, and the retry fleet's injected
    /// death must re-arm).
    fn build(&self, workers: usize) -> Result<Vec<Box<dyn Transport>>, String> {
        let mut fleet: Vec<Box<dyn Transport>> = match self {
            Fleet::Process | Fleet::Retry => {
                (0..workers).map(|_| Box::new(InProcess::new()) as Box<dyn Transport>).collect()
            }
            Fleet::Stdio => {
                let worker = sibling_worker()?;
                (0..workers)
                    .map(|_| -> Result<Box<dyn Transport>, String> {
                        Ok(Box::new(ChildStdio::spawn(&worker, &[] as &[&str])?))
                    })
                    .collect::<Result<_, _>>()?
            }
        };
        if matches!(self, Fleet::Retry) {
            // One extra worker that accepts its slice and dies before
            // answering — every rep pays exactly one re-dispatch.
            fleet.push(Box::new(Unreliable::dying_after(InProcess::new(), 0)));
        }
        Ok(fleet)
    }
}

fn main() {
    let smoke = smoke_run();
    let profile = if smoke { Profile::smoke() } else { Profile::full() };
    let job = profile.job();
    println!(
        "# cluster bench: {} grid item(s), {} worker(s), {} rep(s){}",
        job.len(),
        profile.workers,
        profile.reps,
        if smoke { ", smoke profile" } else { "" }
    );

    let reference = run_in_process(&job, 1).expect("reference run");
    let reference_bytes = reference.encode();
    // Warm caches (and the allocator) before any timed run.
    let _ = run_in_process(&job, 1).expect("warmup run");
    let in_process_ms =
        median_time_ms(profile.reps, || run_in_process(&job, 1).expect("reference run"));
    println!("in-process reference: {in_process_ms:.1} ms");

    let mut entries = Vec::new();
    for fleet in [Fleet::Process, Fleet::Stdio, Fleet::Retry] {
        // Determinism first: the dispatched merge must be byte-identical
        // to the reference (including the retry fleet's re-dispatch).
        let transports = fleet.build(profile.workers).expect("fleet build");
        let mut pool = WorkerPool::new(transports).with_timeout(Duration::from_secs(600));
        let report = pool.dispatch(&job).expect("dispatch");
        assert_eq!(
            report.outcome.encode(),
            reference_bytes,
            "{} fleet diverged from the in-process reference",
            fleet.name()
        );
        let expected_retries = usize::from(matches!(fleet, Fleet::Retry));
        assert_eq!(report.retries, expected_retries, "{} fleet retry count", fleet.name());

        let times: Vec<f64> = (0..profile.reps)
            .map(|_| {
                let transports = fleet.build(profile.workers).expect("fleet build");
                let mut pool = WorkerPool::new(transports).with_timeout(Duration::from_secs(600));
                let start = Instant::now();
                let report = pool.dispatch(&job).expect("dispatch");
                let elapsed = start.elapsed().as_secs_f64() * 1e3;
                assert_eq!(report.outcome.encode(), reference_bytes);
                elapsed
            })
            .collect();
        let cluster_ms = median(times);
        let efficiency = in_process_ms / cluster_ms.max(1e-9);
        println!(
            "{:>8}: {} worker(s) — dispatch {cluster_ms:.1} ms, efficiency {efficiency:.3}{}",
            fleet.name(),
            profile.workers,
            if expected_retries > 0 { " (1 injected death per run)" } else { "" },
        );
        entries.push(
            Row::new(fleet.name())
                .text("kind", "cluster")
                .count("workers", profile.workers)
                .count("items", job.len())
                .num("in_process_ms", in_process_ms)
                .num("cluster_ms", cluster_ms)
                .num("efficiency", efficiency)
                .count("retries", expected_retries),
        );
    }

    // The skewed fleet: healthy workers plus one whose answers straggle
    // by `skew_delay`. Every worker holds one slice, so without
    // speculation the dispatch is bounded by the straggler; speculative
    // re-dispatch routes its slice to an idle fast worker after
    // `SPECULATE_FRACTION × timeout`. `efficiency = unspeculated_ms /
    // stealing_ms` measures that rescue and is gated in
    // ci/bench_baselines.json — both runs are first asserted
    // byte-identical to the reference (speculation is byte-invisible).
    const SPECULATE_FRACTION: f64 = 0.05;
    let skew_delay = Duration::from_millis(800);
    let skew_timeout = Duration::from_secs(4);
    let skew_fleet = || -> Vec<Box<dyn Transport>> {
        let mut fleet: Vec<Box<dyn Transport>> = (0..profile.workers)
            .map(|_| Box::new(InProcess::new()) as Box<dyn Transport>)
            .collect();
        fleet.push(Box::new(Unreliable::slowed_by(InProcess::new(), skew_delay)));
        fleet
    };
    let unspeculated_pool = || WorkerPool::new(skew_fleet()).with_timeout(skew_timeout);
    let stealing_pool = || unspeculated_pool().with_speculation(SPECULATE_FRACTION);
    let report = stealing_pool().dispatch(&job).expect("skewed stealing dispatch");
    assert_eq!(report.outcome.encode(), reference_bytes, "skewed stealing fleet diverged");
    assert!(report.speculative >= 1, "the straggler's slice must be speculated");
    let speculated = report.speculative;
    let report = unspeculated_pool().dispatch(&job).expect("skewed unspeculated dispatch");
    assert_eq!(report.outcome.encode(), reference_bytes, "skewed unspeculated fleet diverged");
    assert_eq!(report.speculative, 0, "speculation is off");
    assert_eq!(report.retries, 0, "the straggler answers inside its deadline");
    let time_mode = |build: &dyn Fn() -> WorkerPool| -> Vec<f64> {
        (0..profile.reps)
            .map(|_| {
                let mut pool = build();
                let start = Instant::now();
                let report = pool.dispatch(&job).expect("skewed dispatch");
                let elapsed = start.elapsed().as_secs_f64() * 1e3;
                assert_eq!(report.outcome.encode(), reference_bytes);
                elapsed
            })
            .collect()
    };
    let stealing_ms = median(time_mode(&stealing_pool));
    let unspeculated_ms = median(time_mode(&unspeculated_pool));
    let efficiency = unspeculated_ms / stealing_ms.max(1e-9);
    println!(
        "    skew: {} worker(s) + 1 slowed {skew_delay:?} — unspeculated {unspeculated_ms:.1} ms, \
         stealing {stealing_ms:.1} ms, efficiency {efficiency:.3} ({speculated} speculated)",
        profile.workers,
    );
    entries.push(
        Row::new("skew")
            .text("kind", "cluster")
            .count("workers", profile.workers + 1)
            .count("items", job.len())
            .num("unspeculated_ms", unspeculated_ms)
            .num("stealing_ms", stealing_ms)
            .num("efficiency", efficiency)
            .count("speculated", speculated),
    );

    write_rows("cluster", smoke, entries, "cluster dispatch overhead + retry cost vs in-process");
}
