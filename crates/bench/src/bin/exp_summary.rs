//! Experiment T1 — the summary table: every algorithm and baseline on the
//! same streams, reporting colors, passes, space, and theory bounds.
//!
//! Regenerates the paper's "contributions" table (§1.1) empirically. All
//! edge-stream algorithms run as a declarative scenario grid through
//! `sc-engine`'s [`Runner`] (in parallel across workers); Theorem 2 runs
//! separately because its input is an interleaved edge/color-list stream,
//! not a pure edge stream.
//!
//! Also emits the perf trajectory, so successive PRs accumulate
//! machine-readable curves:
//!
//! * `BENCH_engine.json` — batched vs per-edge **ingestion**, plus the
//!   turnstile sketch's update-vs-decode balance (`sketch-decode`);
//! * `BENCH_query.json` — incremental vs from-scratch **queries**, both
//!   on checkpointed engine runs and end-to-end adversary games.
//!
//! `--smoke` shrinks every instance to a CI-sized fixed config, writing
//! `BENCH_*.smoke.json` instead (same JSON shape, different filenames,
//! so a local reproduction of CI never clobbers the committed
//! full-profile trajectory); the `bench-smoke` CI job runs it and gates
//! the `speedup` and `ratio` fields against `ci/bench_baselines.json` via
//! `bench_gate`.

use sc_adversary::{run_game_with_config, MonochromaticAttacker};
use sc_bench::{fmt_bits, Table};
use sc_engine::{ColorerSpec, RunOutcome, Runner, Scenario, SourceSpec};
use sc_graph::generators;
use sc_stream::{EngineConfig, QuerySchedule, StreamEngine, StreamOrder};
use std::io::Write as _;
use std::time::Instant;
use streamcolor::{list_coloring, DetConfig, ListConfig, SparseRecovery};

/// Instance sizes for the full run vs the CI smoke run.
struct Profile {
    /// Smoke runs write `BENCH_*.smoke.json` so reproducing the CI gate
    /// locally can never clobber the committed full-profile trajectory.
    smoke: bool,
    /// Summary-table vertices and max-degree sweep.
    summary_n: usize,
    summary_deltas: Vec<usize>,
    /// Ingestion bench (BENCH_engine.json): graph size and repetitions.
    ingest: (usize, usize, usize),
    /// Checkpointed-query bench (BENCH_query.json): graph size,
    /// repetitions, and scheduled query count.
    query: (usize, usize, usize, usize),
    /// Adversary-game bench (BENCH_query.json): vertices, ∆, rounds,
    /// repetitions.
    game: (usize, usize, usize, usize),
}

impl Profile {
    /// `BENCH_<stem>.json`, or `BENCH_<stem>.smoke.json` for smoke runs.
    fn bench_path(&self, stem: &str) -> String {
        format!("BENCH_{stem}{}.json", if self.smoke { ".smoke" } else { "" })
    }

    fn full() -> Self {
        Self {
            smoke: false,
            summary_n: 2000,
            summary_deltas: vec![16, 64],
            ingest: (3000, 32, 5),
            query: (3000, 32, 5, 64),
            game: (400, 16, 1600, 3),
        }
    }

    /// Small fixed config for CI: same shapes, minutes → seconds.
    fn smoke() -> Self {
        Self {
            smoke: true,
            summary_n: 600,
            summary_deltas: vec![16],
            ingest: (800, 16, 3),
            query: (800, 16, 3, 32),
            game: (200, 8, 600, 3),
        }
    }
}

fn scenario_grid(source: &SourceSpec) -> Vec<Scenario> {
    let specs: Vec<(&str, ColorerSpec)> = vec![
        ("det (∆+1) [Thm 1]", ColorerSpec::Det(DetConfig::default())),
        ("robust ∆^2.5 [Thm 3]", ColorerSpec::Robust { beta: None }),
        ("robust ∆^3 [Thm 4]", ColorerSpec::RandEfficient),
        ("robust ∆^3 [CGS22]", ColorerSpec::Cgs22),
        ("palette-spars [ACK19]", ColorerSpec::PaletteSparsification { lists: None }),
        ("bucket Õ(∆) [BG18]", ColorerSpec::Bg18 { buckets: None }),
        ("degeneracy κ(1+ε) [BCG20]", ColorerSpec::Bcg20 { epsilon: 0.5 }),
        ("batch-greedy", ColorerSpec::BatchGreedy),
        ("dynamic-sr (turnstile)", ColorerSpec::DynamicSr { sparsity: None }),
        ("trivial n-coloring", ColorerSpec::Trivial),
    ];
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (label, spec))| {
            Scenario::new(source.clone(), spec)
                .labeled(label)
                .with_order(StreamOrder::Shuffled(1))
                .with_seed(11 + i as u64)
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let profile = if smoke { Profile::smoke() } else { Profile::full() };
    let n = profile.summary_n;
    println!(
        "# T1: algorithm summary (n = {n}, random ∆-bounded graphs{})",
        if smoke { ", smoke profile" } else { "" }
    );
    let runner = Runner::default();
    let mut table =
        Table::new(&["algorithm", "∆", "colors", "∆+1", "∆^2.5", "∆^3", "passes", "space"]);

    for &delta in &profile.summary_deltas {
        let d1 = delta as u64 + 1;
        let d25 = (delta as f64).powf(2.5).round() as u64;
        let d3 = (delta as f64).powi(3) as u64;

        // One materialized graph shared (via Arc) by the whole grid of
        // edge-stream algorithms, which then runs in parallel.
        let g = generators::random_with_exact_max_degree(n, delta, 7);
        let source = SourceSpec::stored(g.clone());
        let outcomes: Vec<RunOutcome> = runner.run_all(&scenario_grid(&source));
        for o in &outcomes {
            assert!(o.proper, "{} produced an improper coloring", o.label);
            table.row(&[
                &o.label,
                &delta,
                &o.colors,
                &d1,
                &d25,
                &d3,
                &o.passes.map_or("—".to_string(), |p| p.to_string()),
                &o.space_bits.map_or("—".to_string(), fmt_bits),
            ]);
        }

        // Theorem 2 (list coloring): interleaved edge/list stream — the
        // one input shape the edge-scenario grid cannot express.
        let lists = generators::random_deg_plus_one_lists(&g, 2 * delta as u64, 3);
        let lstream = sc_stream::StoredStream::from_graph_with_lists(&g, &lists);
        let lr = list_coloring(&lstream, n, delta, 2 * delta as u64, &ListConfig::default());
        assert!(lr.coloring.is_proper_total(&g) && lr.coloring.respects_lists(&lists));
        table.row(&[
            &"list (deg+1) [Thm 2]",
            &delta,
            &lr.coloring.num_distinct_colors(),
            &d1,
            &d25,
            &d3,
            &lr.passes,
            &fmt_bits(lr.peak_space_bits),
        ]);
    }

    table.print("T1: colors / passes / space across all algorithms");
    println!("\nAll outputs validated as proper colorings of their input graphs.");

    emit_engine_bench(&profile);
    emit_query_bench(&profile);
}

/// Times batched vs per-edge ingestion on one `gnp_with_max_degree`
/// stream per algorithm and writes `BENCH_engine.json`. Every colorer
/// here has one ingest routine and runs a per-edge stream through it as
/// one-edge batches, so `speedup` is what chunking buys on that routine.
///
/// Ingest-only: the graph is materialized and arranged once, the
/// colorer is rebuilt per repetition, and only the `StreamEngine::run`
/// call is inside the clock (no generation, no arranging). The median
/// of several repetitions goes into the file so the cross-PR perf
/// trajectory is stable.
fn emit_engine_bench(profile: &Profile) {
    let (n, delta, reps) = profile.ingest;
    let g = generators::gnp_with_max_degree(n, delta, 0.4, 19);
    let edges = StreamOrder::AsGenerated.arrange(&g);
    let algos: Vec<(&str, ColorerSpec)> = vec![
        ("alg2", ColorerSpec::Robust { beta: None }),
        ("alg3", ColorerSpec::RandEfficient),
        ("bg18", ColorerSpec::Bg18 { buckets: None }),
        ("store_all", ColorerSpec::StoreAll),
    ];
    let median_ms = |config: &EngineConfig, spec: &ColorerSpec| -> (f64, sc_graph::Coloring) {
        let engine = StreamEngine::new(config.clone());
        let mut times: Vec<f64> = Vec::with_capacity(reps);
        let mut coloring = None;
        for _ in 0..reps {
            let mut colorer = spec.build(n, delta, 5, Some(&g)).expect("streaming spec");
            let report = engine.run(colorer.as_mut(), &edges);
            times.push(report.elapsed.as_secs_f64() * 1e3);
            coloring = Some(report.final_coloring);
        }
        times.sort_by(f64::total_cmp);
        (times[times.len() / 2], coloring.expect("reps >= 1"))
    };
    let mut entries = vec![hash_tier_entry(profile)];
    for (name, spec) in &algos {
        let (per_edge_ms, c1) = median_ms(&EngineConfig::per_edge(), spec);
        let (batched_ms, c2) = median_ms(&EngineConfig::batched(256), spec);
        assert_eq!(c1, c2, "{name}: batching changed the coloring");
        entries.push(format!(
            "  {{\"algo\":\"{}\",\"n\":{},\"delta\":{},\"m\":{},\"per_edge_ms\":{:.3},\"batched_ms\":{:.3},\"chunk\":256,\"speedup\":{:.3}}}",
            name,
            n,
            delta,
            g.m(),
            per_edge_ms,
            batched_ms,
            per_edge_ms / batched_ms.max(1e-9),
        ));
    }

    // The dynamic section: turnstile (churn) ingest through the signed
    // route — same median protocol, but the stream carries deletions
    // and oscillations, so this times the sparse-recovery sketch's
    // update path rather than an insert-only append.
    let churn = SourceSpec::churn(n, delta, 19, n / 2);
    let tokens = churn.signed_tokens();
    let dyn_delta = churn.stream_delta();
    let deletions = tokens.iter().filter(|t| !t.is_insert()).count();
    let spec = ColorerSpec::DynamicSr { sparsity: None };
    let median_signed = |config: &EngineConfig| -> (f64, sc_graph::Coloring) {
        let engine = StreamEngine::new(config.clone());
        let mut times: Vec<f64> = Vec::with_capacity(reps);
        let mut coloring = None;
        for _ in 0..reps {
            let mut colorer = spec.build(n, dyn_delta, 5, None).expect("dynamic spec");
            let report = engine
                .run_signed(colorer.as_mut(), &tokens)
                .expect("churn sources emit well-formed turnstile streams");
            times.push(report.elapsed.as_secs_f64() * 1e3);
            coloring = Some(report.final_coloring);
        }
        times.sort_by(f64::total_cmp);
        (times[times.len() / 2], coloring.expect("reps >= 1"))
    };
    let (per_edge_ms, c1) = median_signed(&EngineConfig::per_edge());
    let (batched_ms, c2) = median_signed(&EngineConfig::batched(256));
    assert_eq!(c1, c2, "dynamic_sr: batching changed the coloring");
    entries.push(format!(
        "  {{\"algo\":\"dynamic_sr\",\"kind\":\"churn-ingest\",\"n\":{},\"delta\":{},\"tokens\":{},\"deletions\":{},\"per_edge_ms\":{:.3},\"batched_ms\":{:.3},\"chunk\":256,\"speedup\":{:.3}}}",
        n,
        dyn_delta,
        tokens.len(),
        deletions,
        per_edge_ms,
        batched_ms,
        per_edge_ms / batched_ms.max(1e-9),
    ));
    entries.push(sketch_decode_entry(n, dyn_delta, &tokens, reps));

    write_bench_file(
        &profile.bench_path("engine"),
        &entries,
        "batched vs per-edge ingestion timings (insert-only + turnstile churn)",
    );
}

/// Times the turnstile sketch on its own, on the churn stream above:
/// applying every token to a bare [`SparseRecovery`] (`update_ms`) vs
/// one `decode` of the result (`decode_ms`), medians over `reps`.
///
/// `ratio = update_ms / decode_ms` is the gated figure. A decode that
/// peels in `O(cells + support · ROWS)` costs within a small factor of
/// one pass of updates, so the ratio stays near one; a decode that goes
/// quadratic in the support (rescanning the cells per peeled id) drops
/// it by an order of magnitude or more. Both sides are timed in the same run, so
/// the ratio is hardware-portable.
fn sketch_decode_entry(
    n: usize,
    delta: usize,
    tokens: &[sc_stream::SignedEdge],
    reps: usize,
) -> String {
    // The budget and edge ids `ColorerSpec::DynamicSr { sparsity: None }`
    // gives its colorer: `n·∆/2` live edges, id `u·n + v`.
    let sparsity = (n * delta).div_ceil(2).max(1);
    let universe = (n as u64) * (n as u64);
    let load = || {
        let mut sketch = SparseRecovery::new(universe, sparsity, 5);
        let start = Instant::now();
        for t in tokens {
            sketch.update(t.edge.u() as u64 * n as u64 + t.edge.v() as u64, t.sign.unit());
        }
        (start.elapsed().as_secs_f64() * 1e3, sketch)
    };
    let median = |mut times: Vec<f64>| {
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
    let update_ms = median((0..reps).map(|_| load().0).collect());
    let sketch = load().1;
    let mut support = 0;
    let decode_ms = median(
        (0..reps)
            .map(|_| {
                let start = Instant::now();
                support = sketch.decode().expect("churn support fits the default budget").len();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    );
    format!(
        "  {{\"algo\":\"sketch-decode\",\"kind\":\"churn\",\"n\":{},\"sparsity\":{},\"tokens\":{},\"support\":{},\"update_ms\":{:.3},\"decode_ms\":{:.3},\"ratio\":{:.3}}}",
        n,
        sparsity,
        tokens.len(),
        support,
        update_ms,
        decode_ms,
        update_ms / decode_ms.max(1e-9),
    )
}

/// Times the hashing substrate's batched polynomial tier
/// ([`sc_hash::PolynomialHash::eval_batch`], which alg3's decode rebuild
/// runs) against scalar `eval` on identical inputs, emitted into the
/// same `BENCH_engine.json` so the gate can hold the tier advantage
/// directly. Both paths are asserted bit-identical before anything is
/// timed.
fn hash_tier_entry(profile: &Profile) -> String {
    use sc_hash::{PolynomialFamily, SplitMix64};
    let (points, reps) = if profile.smoke { (20_000usize, 5usize) } else { (200_000, 7) };
    let xs: Vec<u32> = (0..points as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    let mut out = vec![0u64; xs.len()];
    let median = |f: &mut dyn FnMut() -> u64| -> f64 {
        let mut times: Vec<f64> = (0..reps)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };

    // Degree-4 polynomial over an alg3-shaped field (range = ℓ²).
    let fam = PolynomialFamily::for_domain(points as u64, 4096, 4);
    let h = fam.sample(&mut SplitMix64::new(41));
    h.eval_batch(&xs, &mut out);
    for (&x, &o) in xs.iter().zip(&out) {
        assert_eq!(o, h.eval(x as u64), "poly4 tiers must be bit-identical");
    }
    let scalar_ms = median(&mut || xs.iter().map(|&x| h.eval(x as u64)).fold(0, u64::wrapping_add));
    let batched_ms = median(&mut || {
        h.eval_batch(&xs, &mut out);
        out[out.len() - 1]
    });
    format!(
        "  {{\"algo\":\"hash-poly4\",\"points\":{},\"scalar_ms\":{:.3},\"batched_ms\":{:.3},\"speedup\":{:.3}}}",
        points,
        scalar_ms,
        batched_ms,
        scalar_ms / batched_ms.max(1e-9),
    )
}

/// Times incremental vs from-scratch queries and writes
/// `BENCH_query.json`: one `kind = "checkpointed"` entry per colorer
/// (an engine run under a periodic [`QuerySchedule`]) plus
/// `kind = "adversary-game"` entries (full adaptive games, where a query
/// follows every insertion). The two modes are asserted observationally
/// identical before anything is timed.
fn emit_query_bench(profile: &Profile) {
    let (n, delta, reps, queries) = profile.query;
    let g = generators::gnp_with_max_degree(n, delta, 0.4, 23);
    let edges = StreamOrder::AsGenerated.arrange(&g);
    let every = (edges.len() / queries).max(1);
    let schedule = QuerySchedule::EveryEdges(every);
    let algos: Vec<(&str, ColorerSpec)> = vec![
        ("alg2", ColorerSpec::Robust { beta: None }),
        ("alg3", ColorerSpec::RandEfficient),
        ("bg18", ColorerSpec::Bg18 { buckets: None }),
        ("store_all", ColorerSpec::StoreAll),
        ("bcg20", ColorerSpec::Bcg20 { epsilon: 0.5 }),
    ];

    let mut entries = Vec::new();
    for (name, spec) in &algos {
        let run_once = |config: EngineConfig| {
            let mut colorer = spec.build(n, delta, 5, Some(&g)).expect("streaming spec");
            let report = StreamEngine::new(config).run(colorer.as_mut(), &edges);
            (report.elapsed.as_secs_f64() * 1e3, report)
        };
        let base = EngineConfig::batched(256).with_schedule(schedule.clone());
        // Equivalence first (the law the property tests prove; cheap to
        // re-assert where the numbers are produced).
        let (_, ri) = run_once(base.clone());
        let (_, rs) = run_once(base.clone().scratch_queries());
        assert_eq!(ri.final_coloring, rs.final_coloring, "{name}: query paths diverge");
        for (a, b) in ri.checkpoints.iter().zip(&rs.checkpoints) {
            assert_eq!(a.coloring, b.coloring, "{name}: checkpoint diverges at {}", a.prefix_len);
        }
        let median = |config: EngineConfig| -> f64 {
            let mut times: Vec<f64> = (0..reps).map(|_| run_once(config.clone()).0).collect();
            times.sort_by(f64::total_cmp);
            times[times.len() / 2]
        };
        let incremental_ms = median(base.clone());
        let scratch_ms = median(base.scratch_queries());
        entries.push(format!(
            "  {{\"algo\":\"{}\",\"kind\":\"checkpointed\",\"n\":{},\"delta\":{},\"m\":{},\"queries\":{},\"scratch_ms\":{:.3},\"incremental_ms\":{:.3},\"speedup\":{:.3}}}",
            name,
            n,
            delta,
            g.m(),
            ri.checkpoints.len() + 1,
            scratch_ms,
            incremental_ms,
            scratch_ms / incremental_ms.max(1e-9),
        ));
    }

    // The dynamic section: checkpointed queries over a turnstile
    // (churn) stream — every scheduled observation lands on a sketch
    // that has absorbed deletions, so this times `query_incremental`'s
    // cache against from-scratch decodes under real churn.
    {
        let churn = SourceSpec::churn(n, delta, 23, n / 2);
        let tokens = churn.signed_tokens();
        let dyn_delta = churn.stream_delta();
        let every = (tokens.len() / queries).max(1);
        let schedule = QuerySchedule::EveryEdges(every);
        let spec = ColorerSpec::DynamicSr { sparsity: None };
        let run_once = |config: EngineConfig| {
            let mut colorer = spec.build(n, dyn_delta, 5, None).expect("dynamic spec");
            let start = Instant::now();
            let report = StreamEngine::new(config)
                .run_signed(colorer.as_mut(), &tokens)
                .expect("churn sources emit well-formed turnstile streams");
            (start.elapsed().as_secs_f64() * 1e3, report)
        };
        let base = EngineConfig::batched(256).with_schedule(schedule);
        let (_, ri) = run_once(base.clone());
        let (_, rs) = run_once(base.clone().scratch_queries());
        assert_eq!(ri.final_coloring, rs.final_coloring, "dynamic_sr: query paths diverge");
        for (a, b) in ri.checkpoints.iter().zip(&rs.checkpoints) {
            assert_eq!(
                a.coloring, b.coloring,
                "dynamic_sr: checkpoint diverges at {}",
                a.prefix_len
            );
        }
        let median = |config: EngineConfig| -> f64 {
            let mut times: Vec<f64> = (0..reps).map(|_| run_once(config.clone()).0).collect();
            times.sort_by(f64::total_cmp);
            times[times.len() / 2]
        };
        let incremental_ms = median(base.clone());
        let scratch_ms = median(base.scratch_queries());
        entries.push(format!(
            "  {{\"algo\":\"dynamic_sr\",\"kind\":\"checkpointed-churn\",\"n\":{},\"delta\":{},\"tokens\":{},\"queries\":{},\"scratch_ms\":{:.3},\"incremental_ms\":{:.3},\"speedup\":{:.3}}}",
            n,
            dyn_delta,
            tokens.len(),
            ri.checkpoints.len() + 1,
            scratch_ms,
            incremental_ms,
            scratch_ms / incremental_ms.max(1e-9),
        ));
    }

    // End-to-end adversary games: the paper's query-per-round cadence.
    let (gn, gdelta, rounds, greps) = profile.game;
    let victims: Vec<(&str, ColorerSpec)> = vec![
        ("game-alg2", ColorerSpec::Robust { beta: None }),
        ("game-alg3", ColorerSpec::RandEfficient),
        ("game-store_all", ColorerSpec::StoreAll),
    ];
    for (name, spec) in &victims {
        let play = |config: EngineConfig| -> (f64, usize) {
            let mut times: Vec<f64> = Vec::with_capacity(greps);
            let mut played = 0;
            for _ in 0..greps {
                let mut attacker = MonochromaticAttacker::new(gn, gdelta, 9);
                let mut victim = spec.build(gn, gdelta, 13, None).expect("streaming victim");
                let start = Instant::now();
                let report = run_game_with_config(
                    victim.as_mut(),
                    &mut attacker,
                    gn,
                    rounds,
                    config.clone(),
                );
                times.push(start.elapsed().as_secs_f64() * 1e3);
                played = report.rounds;
            }
            times.sort_by(f64::total_cmp);
            (times[times.len() / 2], played)
        };
        let (incremental_ms, ri) = play(EngineConfig::per_edge());
        let (scratch_ms, rs) = play(EngineConfig::per_edge().scratch_queries());
        assert_eq!(ri, rs, "{name}: query path changed the game transcript length");
        entries.push(format!(
            "  {{\"algo\":\"{}\",\"kind\":\"adversary-game\",\"n\":{},\"delta\":{},\"rounds\":{},\"scratch_ms\":{:.3},\"incremental_ms\":{:.3},\"speedup\":{:.3}}}",
            name,
            gn,
            gdelta,
            ri,
            scratch_ms,
            incremental_ms,
            scratch_ms / incremental_ms.max(1e-9),
        ));
    }

    write_bench_file(
        &profile.bench_path("query"),
        &entries,
        "incremental vs from-scratch query timings (checkpointed runs + adversary games)",
    );
}

fn write_bench_file(path: &str, entries: &[String], what: &str) {
    let json = format!("[\n{}\n]\n", entries.join(",\n"));
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("\nwrote {path} ({what})"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
    print!("{json}");
}
