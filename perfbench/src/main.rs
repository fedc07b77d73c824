//! The benchmark command:
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Needs `PERFBENCH_SERVER`, the path of a release `streamcolor` binary
//! (`perfbench/run.sh` builds both and sets it). Prints a header with the
//! run's seed and machine facts, a table of every metric, and as its last
//! line the JSON result: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exits 1 when any check fails.

use perfbench::layers::{trace_round, LayerTimes};
use perfbench::metrics::{per_layer, result_line, END_TO_END, SESSION_ALGOS, SHARES};
use perfbench::replay::{replay, Replay};
use perfbench::stats::{median, p99, quantile, supports, tail_p};
use perfbench::workload::{session_plans, ConnPlan, CONNECTIONS, WORKLOADS};
use perfbench::{affinity, grid, socket, speed};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// What a workload run produced.
#[derive(Default)]
struct Outcome {
    e2e: BTreeMap<String, f64>,
    layers: BTreeMap<String, f64>,
    attempted: u64,
    failures: Vec<String>,
    /// Human-readable lines printed before the result.
    table: Vec<String>,
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        }
    }
    let mut take = |k: &str| flags.remove(k).ok_or(format!("missing --{k}"));
    let workload = take("workload")?;
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if let Some(k) = flags.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (one of {})", WORKLOADS.join(", ")));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let bin = PathBuf::from(
        std::env::var("PERFBENCH_SERVER")
            .map_err(|_| "PERFBENCH_SERVER is not set (run through perfbench/run.sh)")?,
    );
    if !bin.is_file() {
        return Err(format!("server binary {} does not exist", bin.display()));
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    // Everything this process spawns from here on — client threads, the
    // server — inherits the pin; cluster workers are re-pinned one per
    // CPU. The last CPU: the first one tends to take the machine's
    // interrupts.
    let cpus = affinity::allowed_cpus();
    let pinned = cpus.last().is_some_and(|&cpu| affinity::pin(0, cpu));
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} cpus={cpus:?} \
         pinned={pinned} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit()
    );
    let out = if args.workload == "paper-grid" {
        run_grid(&bin, &args, &cpus)?
    } else {
        run_sessions(&bin, &args)?
    };
    for line in &out.table {
        println!("{line}");
    }
    for f in out.failures.iter().take(10) {
        println!("# FAILED: {f}");
    }
    let (names, values): (Vec<String>, _) = if args.trace {
        (per_layer().into_iter().map(|(n, _, _)| n).collect(), &out.layers)
    } else {
        (END_TO_END.iter().map(|(n, _, _)| n.to_string()).collect(), &out.e2e)
    };
    let failed = out.failures.len() as u64;
    let correct = failed == 0;
    println!("{}", result_line(correct, out.attempted.max(1), failed, &names, values)?);
    Ok(if correct { 0 } else { 1 })
}

/// The commit being measured, when the checkout is a git repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn put(map: &mut BTreeMap<String, f64>, name: &str, value: f64) {
    map.insert(name.to_string(), value);
}

/// `bulk-ingest`, `adaptive-game`, `turnstile-churn`.
fn run_sessions(bin: &Path, args: &Args) -> Result<Outcome, String> {
    let plans = session_plans(&args.workload, args.seed).ok_or("not a session workload")?;
    let expected: Vec<Replay> = std::thread::scope(|s| {
        let hs: Vec<_> = plans.iter().map(|p| s.spawn(move || replay(p))).collect();
        hs.into_iter().map(|h| h.join().expect("replay thread panicked")).collect()
    });
    let mut out = Outcome::default();
    for (c, r) in expected.iter().enumerate() {
        out.failures.extend(r.failures.iter().map(|f| format!("replay conn {c}: {f}")));
        out.attempted += r.digests.len() as u64;
    }

    let speed = speed::exponents(&args.workload);
    let mut ready = socket::set_up(bin, &plans, &expected, SETUP_REPEATS, speed)?;
    let (runs, probes) = socket::measure(&mut ready.conns, &plans, &expected, args.seconds, speed)?;
    let rss = ready.server.peak_rss_mb();
    // The traced run also needs each connection's round trips without a
    // second connection to queue behind.
    let solo = if args.trace {
        Some(socket::solo_rounds(&mut ready.conns, &plans, &expected)?)
    } else {
        None
    };
    drop(ready.conns);
    drop(ready.server);
    for (c, r) in runs.iter().enumerate() {
        out.attempted += r.commands;
        if r.failed > 0 {
            let first = r.first_failure.clone().unwrap_or_default();
            out.failures.push(format!("socket conn {c}: {} failed, first: {first}", r.failed));
        }
    }

    let wall = runs.iter().map(|r| r.wall_s).fold(0.0, f64::max);
    let tokens: u64 = runs.iter().map(|r| r.tokens).sum();
    // Rounds start together on every connection, so a round of the
    // workload takes its slowest connection's round, and round k's
    // latencies pool every connection's round k.
    let rounds_n = runs.iter().map(|r| r.round_s.len()).min().unwrap_or(0);
    let round_ms: Vec<f64> = (0..rounds_n)
        .map(|k| runs.iter().map(|r| r.round_s[k]).fold(0.0, f64::max) * 1e3)
        .collect();
    let pooled = |k: usize, pick: fn(&socket::ConnRun) -> &Vec<Vec<f64>>| -> Vec<f64> {
        runs.iter().flat_map(|r| pick(r)[k].iter().copied()).collect()
    };
    let push: Vec<Vec<f64>> = (0..rounds_n).map(|k| pooled(k, |r| &r.push_ms)).collect();
    let observe: Vec<Vec<f64>> = (0..rounds_n).map(|k| pooled(k, |r| &r.observe_ms)).collect();
    let round_p50 =
        |rounds: &[Vec<f64>]| median(&rounds.iter().map(|s| median(s)).collect::<Vec<_>>());
    let (push_all, observe_all) = (push.concat(), observe.concat());
    let e = &mut out.e2e;
    put(e, "setup_s", median(&ready.setup_s));
    let round_tokens: usize = plans.iter().map(ConnPlan::tokens).sum();
    put(e, "tokens_per_s", round_tokens as f64 / (median(&round_ms) / 1e3));
    put(e, "push_p50_ms", round_p50(&push));
    put(e, "push_p99_ms", p99(&push_all));
    put(e, "observe_p50_ms", round_p50(&observe));
    put(e, "observe_p99_ms", p99(&observe_all));
    put(e, "colors", expected.iter().map(|r| r.colors).max().unwrap_or(0) as f64);
    put(e, "space_bits", expected.iter().map(|r| r.space_bits).sum::<u64>() as f64);
    put(e, "passes", 1.0);
    put(e, "server_rss_mb", rss);
    let rounds: Vec<usize> = runs.iter().map(|r| r.rounds).collect();
    let bytes: (u64, u64) = runs.iter().fold((0, 0), |a, r| (a.0 + r.bytes.0, a.1 + r.bytes.1));
    out.table.push(format!(
        "# closed loop: {} connections, rounds {rounds:?}, {tokens} tokens in {wall:.3} s, \
         {} bytes out / {} bytes in; samples: push {} observe {}",
        runs.len(),
        bytes.0,
        bytes.1,
        push_all.len(),
        observe_all.len()
    ));
    tail_notes(&mut out.table, &[("push", push_all.len()), ("observe", observe_all.len())]);
    let round_wall_ms: Vec<f64> = (0..rounds_n)
        .map(|k| runs.iter().map(|r| r.round_wall_s[k]).fold(0.0, f64::max) * 1e3)
        .collect();
    out.table.push(format!(
        "# round ms (slowest connection): min {:.1} p50 {:.1} max {:.1} over {} rounds (as \
         timed: p50 {:.1}); time figures are at the reference CPU speed, medians over rounds \
         (p99: median over 1000-sample windows)",
        quantile(&round_ms, 1e-9),
        median(&round_ms),
        quantile(&round_ms, 1.0),
        round_ms.len(),
        median(&round_wall_ms)
    ));
    probe_note(&mut out.table, &probes);

    if let Some(solo) = solo {
        trace_sessions(&plans, &runs, &solo, &mut out)?;
    }
    end_to_end_table(&mut out);
    Ok(out)
}

/// Summarizes the run's CPU speed probes.
fn probe_note(table: &mut Vec<String>, slowdowns: &[f64]) {
    table.push(format!(
        "# speed probes: {}, slowdown min {:.3} p50 {:.3} max {:.3}",
        slowdowns.len(),
        quantile(slowdowns, 1e-9),
        median(slowdowns),
        quantile(slowdowns, 1.0)
    ));
}

/// Flags tail percentiles whose sample has fewer than ten values beyond.
fn tail_notes(table: &mut Vec<String>, samples: &[(&str, usize)]) {
    for (what, n) in samples {
        if !supports(*n, 0.99) {
            table.push(format!(
                "# note: {what}_p99_ms rests on {n} samples (< 10 beyond p99): it reports their \
                 p{:.0}, the highest percentile with ten beyond",
                tail_p(*n) * 100.0
            ));
        }
    }
}

fn trace_sessions(
    plans: &[ConnPlan],
    runs: &[socket::ConnRun],
    solo: &[Vec<f64>],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut acc = LayerTimes::default();
    let mut gaps = Vec::new();
    let (mut reactor, mut respond_us) = (0.0, 0.0);
    for (plan, solo) in plans.iter().zip(solo) {
        let respond = trace_round(plan, &mut acc)?;
        // The timed part of a round starts after the opens.
        let k = plan.opens().len();
        for (lat, r) in solo.iter().zip(&respond).skip(k) {
            gaps.push(lat - r);
            reactor += lat - r;
            respond_us += r;
        }
    }
    let overhead_us = acc.respond_us - acc.untimed_us;

    // Per round, summed over connections: connection time, of which the
    // client waited on the server for `wait_us`.
    let mut e2e_us = 0.0;
    let mut wait_us = 0.0;
    for run in runs {
        let rounds = run.rounds.max(1) as f64;
        e2e_us += run.round_wall_s.iter().sum::<f64>() * 1e6 / rounds;
        wait_us += run.wait_us / rounds;
    }
    let service_self = respond_us - (acc.wire_us() + acc.session_us);
    let stream_self = acc.session_us - acc.colorer_in_session_us();
    let colorer_self = acc.colorer_in_session_us() - acc.decode_us - acc.repair_us;
    let queue = wait_us - respond_us - reactor;

    let l = &mut out.layers;
    put(l, "wire.parse_us", acc.parse_us);
    put(l, "wire.encode_us", acc.encode_us);
    put(l, "wire.edges_decode_us", acc.edges_decode_us);
    put(l, "wire.bytes_in", acc.bytes_in as f64);
    put(l, "wire.bytes_out", acc.bytes_out as f64);
    put(l, "service.respond_us", acc.respond_us);
    put(l, "service.self_us", service_self);
    put(l, "stream.push_us", acc.push_us);
    put(l, "stream.self_us", stream_self);
    put(l, "stream.support_us", acc.support_us);
    put(l, "stream.chunks", acc.chunks as f64);
    for algo in SESSION_ALGOS {
        let a = acc.algos.get(algo).cloned().unwrap_or_default();
        put(l, &format!("colorer.build_ms.{algo}"), a.build_ms);
        put(l, &format!("colorer.ingest_us.{algo}"), a.ingest_us);
        put(l, &format!("colorer.query_us.{algo}"), a.query_us);
        let ratio = if a.queries > 0 { a.useful as f64 / a.queries as f64 } else { 0.0 };
        put(l, &format!("colorer.cache_useful_ratio.{algo}"), ratio);
    }
    put(l, "sketch.decode_us", acc.decode_us);
    let per_update = if acc.updates > 0 { acc.update_ns / acc.updates as f64 } else { 0.0 };
    put(l, "sketch.update_ns", per_update);
    put(l, "sketch.support", acc.support as f64);
    put(l, "graph.repair_us", acc.repair_us);
    put(l, "reactor.overhead_us", median(&gaps));
    zero_unmeasured(l, &["cluster.", "runner.", "det."]);

    let self_us = [
        ("reactor", reactor),
        ("queue", queue),
        ("service", service_self.max(0.0)),
        ("wire", acc.wire_us()),
        ("stream", stream_self.max(0.0)),
        ("colorer", colorer_self.max(0.0)),
        ("sketch", acc.decode_us),
        ("graph", acc.repair_us),
        ("cluster", 0.0),
        ("runner", 0.0),
    ];
    shares(l, &mut out.table, e2e_us, &self_us);
    put(l, "trace.overhead_us", overhead_us);
    if acc.decodes > 0 {
        out.table.push(format!(
            "# sketch.decode per query {:.3} ms vs observe_p50_ms {:.3} ms",
            acc.decode_us / acc.decodes as f64 / 1e3,
            out.e2e["observe_p50_ms"]
        ));
    }
    out.table.push(format!(
        "# trace: per round over all connections: e2e {:.3} ms, of which the client waited \
         {:.3} ms; respond_as {:.3} ms in-process; tracing overhead {overhead_us:.1} us \
         (reactor = solo round trip - respond_as; queue = waiting behind the other connection)",
        e2e_us / 1e3,
        wait_us / 1e3,
        respond_us / 1e3
    ));
    Ok(())
}

/// Sets every per-layer metric under `prefixes` to 0: layers the
/// workload does not run. Every other per-layer metric must be measured.
fn zero_unmeasured(l: &mut BTreeMap<String, f64>, prefixes: &[&str]) {
    for (name, _, _) in per_layer() {
        if prefixes.iter().any(|p| name.starts_with(p)) {
            l.insert(name, 0.0);
        }
    }
}

/// Writes `share.<layer>` (self time over the end-to-end time, with the
/// remainder as `unaccounted`) and the breakdown table.
fn shares(
    l: &mut BTreeMap<String, f64>,
    table: &mut Vec<String>,
    e2e_us: f64,
    self_us: &[(&str, f64)],
) {
    assert_eq!(self_us.len() + 1, SHARES.len(), "every share layer is listed");
    put(l, "trace.e2e_ms", e2e_us / 1e3);
    table.push(format!("# {:<12} {:>12} {:>8}", "layer", "self_ms", "share"));
    let mut accounted = 0.0;
    for (layer, t) in self_us {
        let share = if e2e_us > 0.0 { t / e2e_us } else { 0.0 };
        accounted += t;
        put(l, &format!("share.{layer}"), share);
        table.push(format!("# {layer:<12} {:>12.3} {:>7.1}%", t / 1e3, share * 100.0));
    }
    let rest = e2e_us - accounted;
    let share = if e2e_us > 0.0 { rest / e2e_us } else { 0.0 };
    put(l, "share.unaccounted", share);
    table.push(format!("# {:<12} {:>12.3} {:>7.1}%", "unaccounted", rest / 1e3, share * 100.0));
    let measured: Vec<String> = l
        .iter()
        .filter(|(name, v)| !name.starts_with("share.") && **v != 0.0)
        .map(|(name, v)| format!("{name}={v:.3}"))
        .collect();
    for chunk in measured.chunks(4) {
        table.push(format!("# layers: {}", chunk.join(" ")));
    }
}

/// Prints every end-to-end metric with its unit, plus the failure
/// fraction (carried in the result line's `attempted`/`failed`).
fn end_to_end_table(out: &mut Outcome) {
    for (name, unit, _) in END_TO_END {
        let v = out.e2e.get(name).copied().unwrap_or(f64::NAN);
        out.table.push(format!("# {name:<16} {v:>16.4} {unit}"));
    }
    let failed_frac = out.failures.len() as f64 / out.attempted.max(1) as f64;
    out.table.push(format!("# {:<16} {failed_frac:>16.4} ratio", "failed_frac"));
}

fn run_grid(bin: &Path, args: &Args, cpus: &[usize]) -> Result<Outcome, String> {
    let plan = grid::plan(args.seed);
    let run = grid::run(bin, &plan, cpus, SETUP_REPEATS, args.seconds)?;
    let mut out = Outcome {
        attempted: run.checked + run.job_ms.len() as u64,
        failures: run.failures.clone(),
        ..Outcome::default()
    };
    let e = &mut out.e2e;
    put(e, "setup_s", median(&run.setup_s));
    // Per job: its median slice; the median over jobs, as over the session
    // workloads' rounds.
    let job_slice_p50: Vec<f64> = run.slice_ms.chunks(CONNECTIONS).map(median).collect();
    put(e, "tokens_per_s", plan.edges as f64 / (median(&run.job_ms) / 1e3));
    put(e, "push_p50_ms", median(&job_slice_p50));
    put(e, "push_p99_ms", p99(&run.slice_ms));
    put(e, "observe_p50_ms", median(&run.job_ms));
    put(e, "observe_p99_ms", p99(&run.job_ms));
    put(e, "colors", run.colors as f64);
    put(e, "space_bits", run.space_bits as f64);
    put(e, "passes", run.passes as f64);
    put(e, "server_rss_mb", run.rss_mb);
    out.table.push(format!(
        "# cluster: {} jobs of {} scenarios ({} stream edges) over {CONNECTIONS} stdio workers; \
         push = run_job slice round trip ({} samples), observe = job round trip; times are at \
         the reference CPU speed, p50s medians over jobs",
        run.job_ms.len(),
        plan.items.len(),
        plan.edges,
        run.slice_ms.len()
    ));
    tail_notes(&mut out.table, &[("push", run.slice_ms.len()), ("observe", run.job_ms.len())]);
    probe_note(&mut out.table, &run.slowdowns);

    if args.trace {
        trace_grid(&plan, &run, &mut out);
    }
    end_to_end_table(&mut out);
    Ok(out)
}

fn trace_grid(plan: &grid::GridPlan, run: &grid::GridRun, out: &mut Outcome) {
    let times = grid::runner_times(plan);
    // Tracing overhead: the per-scenario timed runs against one untimed
    // run of the whole grid.
    let t = std::time::Instant::now();
    std::hint::black_box(grid::run_untimed(plan));
    let untimed_ms = t.elapsed().as_secs_f64() * 1e3;
    let traced_ms: f64 = times.run_ms.iter().sum();

    let l = &mut out.layers;
    zero_unmeasured(
        l,
        &["wire.", "service.", "stream.", "colorer.", "sketch.", "graph.", "reactor."],
    );
    // As timed, like the in-process runner times they are split into.
    let job_ms = median(&run.job_wall_ms);
    let slices = &run.slice_wall_ms;
    let slice_mean = slices.iter().sum::<f64>() / slices.len().max(1) as f64;
    let overhead_ms = median(&run.overhead_ms);
    put(l, "cluster.spawn_ms", median(&run.setup_s) * 1e3);
    put(l, "cluster.encode_ms", run.encode_ms);
    put(l, "cluster.slice_ms", slice_mean);
    put(l, "cluster.slice_skew", median(&run.skew));
    put(l, "cluster.dispatch_overhead_ms", overhead_ms);
    put(l, "cluster.merge_ms", run.merge_ms);
    put(l, "cluster.retries", run.retries as f64);
    put(l, "cluster.wasted", run.wasted as f64);
    for (algo, ms) in grid::GRID_ALGOS.iter().zip(&times.run_ms) {
        put(l, &format!("runner.run_ms.{algo}"), *ms);
    }
    put(l, "det.passes", times.det_passes as f64);
    let runner_ms = times.slice_ms.iter().copied().fold(0.0, f64::max);
    let each: Vec<String> = plan
        .items
        .iter()
        .zip(&times.each_ms)
        .map(|((algo, g), ms)| format!("{algo}@n{}={ms:.0}", g.n()))
        .collect();
    out.table.push(format!("# runner ms per scenario: {}", each.join(" ")));
    let self_us = [
        ("reactor", 0.0),
        ("queue", 0.0),
        ("service", 0.0),
        ("wire", 0.0),
        ("stream", 0.0),
        ("colorer", 0.0),
        ("sketch", 0.0),
        ("graph", 0.0),
        ("cluster", overhead_ms * 1e3),
        ("runner", runner_ms * 1e3),
    ];
    shares(l, &mut out.table, job_ms * 1e3, &self_us);
    put(l, "trace.overhead_us", (traced_ms - untimed_ms) * 1e3);
    out.table.push(format!(
        "# trace: job {job_ms:.1} ms; slowest slice's scenarios in-process {runner_ms:.1} ms; \
         in-process grid traced {traced_ms:.1} ms vs untraced {untimed_ms:.1} ms"
    ));
}
