//! `paper-grid`: one fixed scenario grid — Theorem 1 `Det`,
//! `batch-greedy`, `robust` and `rand-efficient` on two `G(n, p)` sizes —
//! dispatched through a `WorkerPool` over two `streamcolor serve` stdio
//! workers, repeatedly, until the measured time is up. Each worker's CPU
//! is probed ([`crate::speed`]) before the first job and after every job,
//! and its slices' times are reported at the reference speed.

use crate::affinity;
use crate::server::peak_rss_mb;
use crate::speed::{self, Probe};
use crate::stats::{digest, median, ms};
use crate::workload::CONNECTIONS;
use sc_cluster::{ChildStdio, Transport, TransportError, WorkerPool};
use sc_engine::flatjson::{parse_object, Scalar};
use sc_engine::shard::{decode_worker_output, partition, ShardJob, ShardOutcome};
use sc_engine::{ColorerSpec, Runner, Scenario, SourceSpec};
use sc_graph::Graph;
use sc_service::service::parse_coloring;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use streamcolor::DetConfig;

/// Grid sizes `(n, Δ, p)`.
const SIZES: [(usize, usize, f64); 2] = [(2000, 48, 0.05), (4000, 24, 0.02)];

/// The grid's colorers and their metric suffixes.
pub const GRID_ALGOS: [&str; 4] = ["det", "batch-greedy", "robust", "rand-efficient"];

fn spec(algo: &str) -> ColorerSpec {
    match algo {
        "det" => ColorerSpec::Det(DetConfig::default()),
        "batch-greedy" => ColorerSpec::BatchGreedy,
        "robust" => ColorerSpec::Robust { beta: None },
        _ => ColorerSpec::RandEfficient,
    }
}

/// The generated job and the client-side graphs its outputs are checked
/// against.
pub struct GridPlan {
    /// The job, in grid order (size-major).
    pub job: ShardJob,
    /// Per scenario: its colorer's metric suffix and graph.
    pub items: Vec<(&'static str, Arc<Graph>)>,
    /// Stream edges of the whole grid.
    pub edges: usize,
}

/// Builds the grid from `seed`.
pub fn plan(seed: u64) -> GridPlan {
    let mut scenarios = Vec::new();
    let mut items = Vec::new();
    for (k, &(n, delta, p)) in SIZES.iter().enumerate() {
        let source = SourceSpec::gnp(n, delta, p, crate::stats::mix(seed, 0x300 + k as u64));
        let g = source.materialize();
        for (j, &algo) in GRID_ALGOS.iter().enumerate() {
            let s = Scenario::new(source.clone(), spec(algo))
                .labeled(format!("{algo}-n{n}"))
                .with_seed(crate::stats::mix(seed, 0x400 + (k * 8 + j) as u64) % 1_000_000_007);
            scenarios.push(s);
            items.push((algo, Arc::clone(&g)));
        }
    }
    let edges = items.iter().map(|(_, g)| g.m()).sum();
    GridPlan { job: ShardJob::Grid(scenarios), items, edges }
}

/// Send → answer times of the `run_job` lines the transports carried,
/// with the worker that answered, and the answers themselves.
#[derive(Default)]
struct SliceLog {
    slice_ms: Vec<(usize, f64)>,
    answers: Vec<String>,
}

/// A bench-owned timing wrapper around a worker transport.
struct TimedTransport {
    worker: usize,
    inner: ChildStdio,
    sent: Option<Instant>,
    log: Arc<Mutex<SliceLog>>,
}

impl Transport for TimedTransport {
    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn send(&mut self, line: &str) -> Result<(), TransportError> {
        self.sent = Some(Instant::now());
        self.inner.send(line)
    }

    fn recv(&mut self, timeout: Duration) -> Result<String, TransportError> {
        let line = self.inner.recv(timeout)?;
        if let Some(sent) = self.sent.take() {
            let mut log = self.log.lock().expect("log is never poisoned");
            log.slice_ms.push((self.worker, ms(sent.elapsed())));
            log.answers.push(line.clone());
        }
        Ok(line)
    }
}

/// Everything the grid run measured.
#[derive(Debug, Default)]
pub struct GridRun {
    /// Fleet spawn → every worker answered a probe, per repetition, s at
    /// the reference speed.
    pub setup_s: Vec<f64>,
    /// `dispatch` wall time per job, ms at the speed of the CPU that ran
    /// the slowest slice.
    pub job_ms: Vec<f64>,
    /// `run_job` send → answer per slice, ms at the reference speed, all
    /// jobs.
    pub slice_ms: Vec<f64>,
    /// `dispatch` wall time per job, ms, as timed.
    pub job_wall_ms: Vec<f64>,
    /// `run_job` send → answer per slice, ms, as timed, all jobs.
    pub slice_wall_ms: Vec<f64>,
    /// Per job, as timed: slowest slice / mean slice.
    pub skew: Vec<f64>,
    /// Per job, as timed: job wall − slowest slice, ms.
    pub overhead_ms: Vec<f64>,
    /// Every CPU probe's slowdown.
    pub slowdowns: Vec<f64>,
    /// `ShardJob::canonicalize` + `encode`, ms (median of repeats).
    pub encode_ms: f64,
    /// Answer parse + `decode_worker_output` + `ShardOutcome::merge`, ms.
    pub merge_ms: f64,
    /// Re-dispatched and wasted slices over all jobs.
    pub retries: u64,
    /// Duplicate answers over all jobs.
    pub wasted: u64,
    /// Largest worker `VmHWM`, MiB.
    pub rss_mb: f64,
    /// Largest color count, sum of space, largest pass count.
    pub colors: u64,
    /// Sum of peak space over the grid's scenarios.
    pub space_bits: u64,
    /// Largest pass count.
    pub passes: u64,
    /// Scenario results checked.
    pub checked: u64,
    /// Failed checks, each naming the scenario or job.
    pub failures: Vec<String>,
}

/// Spawns the workers, each pinned to its own CPU of `cpus` when there
/// are enough, and waits until each answers a probe.
fn spawn_fleet(bin: &Path, cpus: &[usize]) -> Result<Vec<ChildStdio>, String> {
    let mut fleet = Vec::new();
    for i in 0..CONNECTIONS {
        let mut worker = ChildStdio::spawn(bin, &["serve"])?;
        if cpus.len() >= CONNECTIONS {
            affinity::pin(worker.pid(), cpus[i]);
        }
        worker.send(r#"{"cmd":"host_stats","session":"probe"}"#).map_err(|e| e.to_string())?;
        let reply = worker.recv(Duration::from_secs(30)).map_err(|e| e.to_string())?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("worker probe failed: {reply}"));
        }
        fleet.push(worker);
    }
    Ok(fleet)
}

/// Probes the CPU of each worker in turn (all of them when workers are
/// not pinned), from a thread pinned there, while the workers are idle.
fn slowdowns(probes: &mut [Probe], cpus: &[usize]) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for (i, probe) in probes.iter_mut().enumerate() {
        let slowdown = std::thread::scope(|s| {
            s.spawn(|| {
                if cpus.len() >= CONNECTIONS {
                    affinity::pin(0, cpus[i]);
                }
                probe.slowdown()
            })
            .join()
            .expect("probe thread panicked")
        })?;
        out.push(slowdown);
    }
    Ok(out)
}

/// Spawns the fleet on `cpus` `repeats` times (timing each), dispatches one
/// untimed warm-up job, then dispatches the job until `seconds` have
/// passed (at least once), checking every merged outcome. Set-ups and
/// jobs are scaled to the reference speed by probes of the workers' CPUs
/// around them.
///
/// # Errors
/// Spawn, dispatch and probe failures.
pub fn run(
    bin: &Path,
    plan: &GridPlan,
    cpus: &[usize],
    repeats: usize,
    seconds: f64,
) -> Result<GridRun, String> {
    let mut out = GridRun::default();
    let mut probes = (0..CONNECTIONS)
        .map(|_| Probe::new(speed::exponents("paper-grid")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut fleet = Vec::new();
    for _ in 0..repeats {
        let before = slowdowns(&mut probes, cpus)?;
        let t = Instant::now();
        fleet = spawn_fleet(bin, cpus)?;
        let took = t.elapsed().as_secs_f64();
        let after = slowdowns(&mut probes, cpus)?;
        let f = before.iter().zip(&after).map(|(b, a)| speed::scale(*b, *a)).sum::<f64>()
            / CONNECTIONS as f64;
        out.setup_s.push(took * f);
    }
    let pids: Vec<u32> = fleet.iter().map(ChildStdio::pid).collect();
    let log = Arc::new(Mutex::new(SliceLog::default()));
    let transports: Vec<Box<dyn Transport>> = fleet
        .into_iter()
        .enumerate()
        .map(|(worker, inner)| {
            Box::new(TimedTransport { worker, inner, sent: None, log: Arc::clone(&log) })
                as Box<dyn Transport>
        })
        .collect();
    let mut pool = WorkerPool::new(transports);
    // One warm-up job, untimed: the workers' heaps grow to size and its
    // merged outcome becomes the reference every timed job must match.
    let warm = pool.dispatch(&plan.job)?;
    let answers = std::mem::take(&mut log.lock().expect("log is never poisoned").answers);
    log.lock().expect("log is never poisoned").slice_ms.clear();
    check_outcome(plan, &warm.outcome, &mut out);
    out.merge_ms = time_merge(&answers)?;
    let reference = digest(warm.outcome.encode().as_bytes());
    let mut before = slowdowns(&mut probes, cpus)?;
    out.slowdowns.extend(&before);
    let started = Instant::now();
    while out.job_ms.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let report = pool.dispatch(&plan.job)?;
        let job_ms = ms(t.elapsed());
        let after = slowdowns(&mut probes, cpus)?;
        out.slowdowns.extend(&after);
        let scale: Vec<f64> =
            before.iter().zip(&after).map(|(b, a)| speed::scale(*b, *a)).collect();
        before = after;
        let slices = {
            let mut job_log = log.lock().expect("log is never poisoned");
            job_log.answers.clear();
            std::mem::take(&mut job_log.slice_ms)
        };
        let (slowest_worker, slowest) =
            slices.iter().copied().fold((0, 0.0), |a, s| if s.1 > a.1 { s } else { a });
        let mean = slices.iter().map(|s| s.1).sum::<f64>() / slices.len().max(1) as f64;
        out.skew.push(if mean > 0.0 { slowest / mean } else { 1.0 });
        out.overhead_ms.push(job_ms - slowest);
        out.slice_ms.extend(slices.iter().map(|&(w, ms)| ms * scale[w]));
        out.slice_wall_ms.extend(slices.iter().map(|s| s.1));
        out.job_ms.push(job_ms * scale[slowest_worker]);
        out.job_wall_ms.push(job_ms);
        out.retries += report.retries as u64;
        out.wasted += report.wasted as u64;
        if digest(report.outcome.encode().as_bytes()) != reference {
            out.failures.push(format!("job {} merged differently", out.job_ms.len()));
        }
    }
    out.rss_mb = pids.iter().map(|&p| peak_rss_mb(p)).fold(0.0, f64::max);
    drop(pool);
    let encodes: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let text = plan.job.canonicalize().map(|j| j.encode());
            std::hint::black_box(text).ok();
            ms(t.elapsed())
        })
        .collect();
    out.encode_ms = median(&encodes);
    Ok(out)
}

/// What the pool does with the answers once they arrive: parse each
/// response line, decode its worker output, merge in shard order.
fn time_merge(answers: &[String]) -> Result<f64, String> {
    let t = Instant::now();
    let mut parts = Vec::new();
    for answer in answers {
        let obj = parse_object(answer)?;
        let output = obj.get("output").and_then(Scalar::as_str).ok_or("answer has no output")?;
        parts.push(decode_worker_output(output)?);
    }
    parts.sort_by_key(|(shard, _, _)| *shard);
    std::hint::black_box(ShardOutcome::merge(parts.into_iter().map(|(_, _, o)| o))?);
    Ok(ms(t.elapsed()))
}

/// Checks every scenario's final coloring against the client-side graph,
/// and `Det` against its Δ+1 palette; records colors, space and passes.
fn check_outcome(plan: &GridPlan, outcome: &ShardOutcome, out: &mut GridRun) {
    let ShardOutcome::Grid(summaries) = outcome else {
        out.failures.push("grid job answered an attack outcome".to_string());
        return;
    };
    if summaries.len() != plan.items.len() {
        out.failures.push(format!(
            "{} summaries for {} scenarios",
            summaries.len(),
            plan.items.len()
        ));
        return;
    }
    for (s, (algo, g)) in summaries.iter().zip(&plan.items) {
        out.checked += 1;
        let proper = parse_coloring(&s.coloring, g.n()).map(|c| c.is_proper_total(g));
        if proper != Ok(true) || !s.proper {
            out.failures.push(format!("{}: improper final coloring", s.label));
        }
        if *algo == "det" && s.colors > g.max_degree() + 1 {
            out.failures.push(format!(
                "{}: {} colors > Δ+1 = {}",
                s.label,
                s.colors,
                g.max_degree() + 1
            ));
        }
        out.colors = out.colors.max(s.colors as u64);
        out.space_bits += s.space_bits.unwrap_or(0);
        out.passes = out.passes.max(s.passes.unwrap_or(0));
    }
}

/// In-process `Runner::run` time per grid colorer (summed over sizes),
/// the `Det` pass count, and the runner time of each pool slice.
pub struct RunnerTimes {
    /// Per [`GRID_ALGOS`] entry, ms.
    pub run_ms: Vec<f64>,
    /// Largest `Det` pass count.
    pub det_passes: u64,
    /// Runner time of each slice the pool cuts the grid into, ms.
    pub slice_ms: Vec<f64>,
    /// Runner time of each scenario, grid order, ms.
    pub each_ms: Vec<f64>,
}

/// Runs the whole grid in-process on a sequential `Runner`, untimed.
pub fn run_untimed(plan: &GridPlan) -> Vec<sc_engine::RunOutcome> {
    let ShardJob::Grid(scenarios) = &plan.job else { unreachable!("the grid is a grid job") };
    Runner::sequential().run_all(scenarios)
}

/// Runs every scenario in-process on a sequential `Runner`.
pub fn runner_times(plan: &GridPlan) -> RunnerTimes {
    let ShardJob::Grid(scenarios) = &plan.job else { unreachable!("the grid is a grid job") };
    let runner = Runner::sequential();
    let mut run_ms = vec![0.0; GRID_ALGOS.len()];
    let mut det_passes = 0;
    let mut each = Vec::new();
    for (s, (algo, _)) in scenarios.iter().zip(&plan.items) {
        let t = Instant::now();
        let outcome = runner.run(s);
        let d = ms(t.elapsed());
        each.push(d);
        let k = GRID_ALGOS.iter().position(|a| a == algo).expect("grid algo");
        run_ms[k] += d;
        if *algo == "det" {
            det_passes = det_passes.max(outcome.passes.unwrap_or(0));
        }
    }
    let slice_ms =
        partition(scenarios.len(), CONNECTIONS).into_iter().map(|r| each[r].iter().sum()).collect();
    RunnerTimes { run_ms, det_passes, slice_ms, each_ms: each }
}
