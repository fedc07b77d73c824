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
//!   turnstile sketch's update-vs-decode balance (`sketch-decode`), the
//!   at-budget failure counts behind its sizing rule (`sketch-sizing`),
//!   Theorem 1's hash tournament against one evaluation per function
//!   (`det-tournament`) and alg3's slot-table fill against scalar
//!   evaluation (`table-build`);
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
use sc_bench::{fmt_bits, median, median_time_ms, smoke_run, write_rows, Row, Table};
use sc_engine::{ColorerSpec, RunOutcome, Runner, Scenario, SourceSpec};
use sc_graph::generators;
use sc_stream::{EngineConfig, QuerySchedule, SignedEdge, StreamEngine, StreamOrder};
use std::time::Instant;
use streamcolor::dynamic::sparse_recovery::Layout;
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
    /// Det tournament bench (BENCH_engine.json): vertices, ∆,
    /// repetitions.
    tournament: (usize, usize, usize),
    /// Sketch sizing table (BENCH_engine.json): trials per budget.
    sizing_trials: usize,
}

impl Profile {
    fn full() -> Self {
        Self {
            smoke: false,
            summary_n: 2000,
            summary_deltas: vec![16, 64],
            ingest: (3000, 32, 5),
            query: (3000, 32, 5, 64),
            game: (400, 16, 1600, 3),
            tournament: (2000, 48, 5),
            sizing_trials: 20_000,
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
            tournament: (600, 16, 5),
            sizing_trials: 300,
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
    let smoke = smoke_run();
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
    let inserts = insertions(&g);
    let algos: Vec<(&str, ColorerSpec)> = vec![
        ("alg2", ColorerSpec::Robust { beta: None }),
        ("alg3", ColorerSpec::RandEfficient),
        ("bg18", ColorerSpec::Bg18 { buckets: None }),
        ("store_all", ColorerSpec::StoreAll),
    ];
    let median_ms = |config: &EngineConfig,
                     spec: &ColorerSpec,
                     delta: usize,
                     tokens: &[SignedEdge]|
     -> (f64, sc_graph::Coloring) {
        let engine = StreamEngine::new(config.clone());
        let mut times: Vec<f64> = Vec::with_capacity(reps);
        let mut coloring = None;
        for _ in 0..reps {
            let mut colorer = spec.build(n, delta, 5, None).expect("streaming spec");
            let report = engine.run(colorer.as_mut(), tokens).expect("well-formed stream");
            times.push(report.elapsed.as_secs_f64() * 1e3);
            coloring = Some(report.final_coloring);
        }
        (median(times), coloring.expect("reps >= 1"))
    };
    let mut entries = vec![hash_tier_entry(profile), table_build_entry(profile)];
    for (name, spec) in &algos {
        let (per_edge_ms, c1) = median_ms(&EngineConfig::per_edge(), spec, delta, &inserts);
        let (batched_ms, c2) = median_ms(&EngineConfig::batched(256), spec, delta, &inserts);
        assert_eq!(c1, c2, "{name}: batching changed the coloring");
        entries.push(
            Row::new(name)
                .count("n", n)
                .count("delta", delta)
                .count("m", g.m())
                .num("per_edge_ms", per_edge_ms)
                .num("batched_ms", batched_ms)
                .count("chunk", 256)
                .num("speedup", per_edge_ms / batched_ms.max(1e-9)),
        );
    }

    // The dynamic section: turnstile (churn) ingest — same median
    // protocol, but the stream carries deletions and oscillations, so
    // this times the sparse-recovery sketch's update path rather than an
    // insert-only append.
    let churn = SourceSpec::churn(n, delta, 19, n / 2);
    let tokens = churn.signed_tokens();
    let dyn_delta = churn.stream_delta();
    let deletions = tokens.iter().filter(|t| !t.is_insert()).count();
    let spec = ColorerSpec::DynamicSr { sparsity: None };
    let (per_edge_ms, c1) = median_ms(&EngineConfig::per_edge(), &spec, dyn_delta, &tokens);
    let (batched_ms, c2) = median_ms(&EngineConfig::batched(256), &spec, dyn_delta, &tokens);
    assert_eq!(c1, c2, "dynamic_sr: batching changed the coloring");
    entries.push(
        Row::new("dynamic_sr")
            .text("kind", "churn-ingest")
            .count("n", n)
            .count("delta", dyn_delta)
            .count("tokens", tokens.len())
            .count("deletions", deletions)
            .num("per_edge_ms", per_edge_ms)
            .num("batched_ms", batched_ms)
            .count("chunk", 256)
            .num("speedup", per_edge_ms / batched_ms.max(1e-9)),
    );
    entries.push(sketch_decode_entry(n, dyn_delta, &tokens, reps));
    entries.extend(sketch_sizing_entries(profile.sizing_trials));
    entries.push(det_tournament_entry(profile));

    write_rows(
        "engine",
        profile.smoke,
        entries,
        "batched vs per-edge ingestion timings (insert-only + turnstile churn)",
    );
}

/// Times the turnstile sketch on its own, on the churn stream above:
/// applying every token to a bare [`SparseRecovery`] (`update_ms`) vs
/// one `decode` of the result (`decode_ms`), medians over `reps`.
///
/// `ratio = update_ms / decode_ms` is the gated figure. A decode that
/// peels in `O(cells + support · rows)` costs within a small factor of
/// one pass of updates, so the ratio stays near one; a decode that goes
/// quadratic in the support (rescanning the cells per peeled id) drops
/// it by an order of magnitude or more. Both sides are timed in the same run, so
/// the ratio is hardware-portable.
fn sketch_decode_entry(
    n: usize,
    delta: usize,
    tokens: &[sc_stream::SignedEdge],
    reps: usize,
) -> Row {
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
    Row::new("sketch-decode")
        .text("kind", "churn")
        .count("n", n)
        .count("sparsity", sparsity)
        .count("tokens", tokens.len())
        .count("support", support)
        .num("update_ms", update_ms)
        .num("decode_ms", decode_ms)
        .num("ratio", update_ms / decode_ms.max(1e-9))
}

/// The failure table behind [`Layout::for_sparsity`]: at each budget
/// `s`, `trials` sketches of each layout hold `s` distinct random ids
/// from the edge universe of an n = 3000 session, and a decode that
/// refuses counts as a failure. Both layouts see the same ids and seed
/// in a trial. An `Ok` decode must be the exact support, and the rule's
/// layout must fail no more often than the classic one at every size.
fn sketch_sizing_entries(trials: usize) -> Vec<Row> {
    use sc_hash::SplitMix64;
    let universe = 3000u64 * 3000;
    let sizes = (0..12).map(|k| 1usize << k).chain([3200]);
    sizes
        .map(|s| {
            let layouts = [Layout::classic(s), Layout::compact(s)];
            let mut fails = [0usize; 2];
            let mut rng = SplitMix64::new(s as u64);
            let mut ids: Vec<u64> = Vec::with_capacity(s);
            for _ in 0..trials {
                let seed = rng.next_u64();
                ids.clear();
                while ids.len() < s {
                    ids.extend((ids.len()..s).map(|_| rng.below(universe)));
                    ids.sort_unstable();
                    ids.dedup();
                }
                for (layout, failed) in layouts.iter().zip(&mut fails) {
                    let mut sketch = SparseRecovery::with_layout(universe, s, *layout, seed);
                    for &id in &ids {
                        sketch.update(id, 1);
                    }
                    match sketch.decode() {
                        Ok(support) => assert!(
                            support.iter().map(|&(id, _)| id).eq(ids.iter().copied())
                                && support.iter().all(|&(_, count)| count == 1),
                            "{layout:?} decoded a wrong support at s={s}"
                        ),
                        Err(_) => *failed += 1,
                    }
                }
            }
            let rule = Layout::for_sparsity(s);
            let (name, rule_fails) =
                if rule == layouts[0] { ("classic", fails[0]) } else { ("compact", fails[1]) };
            assert!(
                rule_fails <= fails[0],
                "s={s}: the sizing rule failed {rule_fails} times, the classic layout {}",
                fails[0]
            );
            Row::new("sketch-sizing")
                .count("sparsity", s)
                .count("trials", trials)
                .count("classic_fails", fails[0])
                .count("compact_fails", fails[1])
                .text("rule", name)
                .count("rule_fails", rule_fails)
        })
        .collect()
}

/// Times Theorem 1's hash tournament on one synthetic stage shaped like
/// the first stage of a `paper-grid` Det run: every vertex uncolored and
/// in one proposal group, 2 patterns with a first stage's slack (the
/// colors `≤ ∆` under each top bit), `p` from `prime_in_range(8nL,
/// 16nL)` and the default `l = 16` grid.
///
/// `per_function_ms` sums [`phi_of_hash`] over all `l²` grid members:
/// one evaluation per function, the kernel the tournament ran before its
/// row kernel, kept as the calibration side of the ratio.
/// `tournament_ms` is [`select_hash`]'s two passes: pass 2 by the lanes
/// kernel (this stage has 2 patterns and `p < 2^31`), pass 3 by the row
/// kernel. `speedup` is their ratio, so a slower tournament, or a pass 2
/// that has fallen back to rows, reads as a lower speedup on any
/// machine. The winner's `Φ` is asserted bit-identical to its
/// per-function value before anything is timed.
///
/// [`phi_of_hash`]: streamcolor::det::derand::phi_of_hash
/// [`select_hash`]: streamcolor::det::derand::select_hash
fn det_tournament_entry(profile: &Profile) -> Row {
    use sc_hash::modp::{ceil_log2, prime_in_range};
    use streamcolor::det::derand::{phi_of_hash, select_hash};
    use streamcolor::det::tables::StageTables;
    use streamcolor::det::{DerandStrategy, Subcube};

    let (n, delta, reps) = profile.tournament;
    let g = generators::gnp_with_max_degree(n, delta, 0.05, 29);
    let stream = sc_stream::StoredStream::from_graph(&g);
    let b = ceil_log2(delta as u64 + 1);
    let row: Vec<u64> =
        (0..2).map(|j| Subcube::full(b).child(1, j).count_at_most(delta as u64)).collect();
    let u_set: Vec<u32> = (0..n as u32).collect();
    let slack: Vec<u64> = u_set.iter().flat_map(|_| row.iter().copied()).collect();
    let log_n = u64::from(ceil_log2(n as u64)).max(1);
    let p = prime_in_range(8 * n as u64 * log_n, 16 * n as u64 * log_n).expect("Bertrand");
    let tables = StageTables::build(n, &u_set, 2, slack, p, log_n);
    let group = vec![7u64; n];
    let strategy = DerandStrategy::default();
    let grid = strategy.grid(p);

    let sel = select_hash(&stream, &group, &tables, strategy);
    let phi = phi_of_hash(&stream, &group, &tables, sel.hash);
    assert_eq!(sel.phi.to_bits(), phi.to_bits(), "det-tournament: the kernels disagree on Φ(h⋆)");

    let per_function_ms = median_time_ms(reps, || {
        (0..grid.num_parts())
            .flat_map(|i| grid.part(i))
            .map(|h| phi_of_hash(&stream, &group, &tables, h))
            .sum::<f64>()
    });
    let tournament_ms =
        median_time_ms(reps, || select_hash(&stream, &group, &tables, strategy).phi);
    Row::new("det-tournament")
        .count("n", n)
        .count("delta", delta)
        .count("m", g.m())
        .count("p", p as usize)
        .count("l", grid.num_parts())
        .num("per_function_ms", per_function_ms)
        .num("tournament_ms", tournament_ms)
        .num("speedup", per_function_ms / tournament_ms.max(1e-9))
}

/// Times the hashing substrate's batched polynomial tier
/// ([`sc_hash::PolynomialHash::eval_batch`], which alg3's decode rebuild
/// runs) against scalar `eval` on identical inputs, emitted into the
/// same `BENCH_engine.json` so the gate can hold the tier advantage
/// directly. Both paths are asserted bit-identical before anything is
/// timed.
fn hash_tier_entry(profile: &Profile) -> Row {
    use sc_hash::{PolynomialFamily, SplitMix64};
    let (points, reps) = if profile.smoke { (20_000usize, 5usize) } else { (200_000, 7) };
    let xs: Vec<u32> = (0..points as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    let mut out = vec![0u64; xs.len()];

    // Degree-4 polynomial over an alg3-shaped field (range = ℓ²).
    let fam = PolynomialFamily::for_domain(points as u64, 4096, 4);
    let h = fam.sample(&mut SplitMix64::new(41));
    h.eval_batch(&xs, &mut out);
    for (&x, &o) in xs.iter().zip(&out) {
        assert_eq!(o, h.eval(x as u64), "poly4 tiers must be bit-identical");
    }
    let scalar_ms =
        median_time_ms(reps, || xs.iter().map(|&x| h.eval(x as u64)).fold(0, u64::wrapping_add));
    let batched_ms = median_time_ms(reps, || {
        h.eval_batch(&xs, &mut out);
        out[out.len() - 1]
    });
    Row::new("hash-poly4")
        .count("points", points)
        .num("scalar_ms", scalar_ms)
        .num("batched_ms", batched_ms)
        .num("speedup", scalar_ms / batched_ms.max(1e-9))
}

/// Times [`sc_hash::VertexSlotTable::build`], the slot-table fill every
/// `rand-efficient` open, restore and reload pays, against filling the
/// same `n × slots` matrix with one scalar `eval` per entry. The hashes
/// have alg3's shape at the ingest bench's `(n, ∆)`: one per slot of a
/// `RandEfficientColorer` (epochs × copies), degree 3, range `ℓ²`. Every
/// table entry is asserted equal to its scalar value before anything is
/// timed.
fn table_build_entry(profile: &Profile) -> Row {
    use sc_hash::{PolynomialFamily, SplitMix64, VertexSlotTable};
    use streamcolor::RandEfficientColorer;
    let (n, delta, _) = profile.ingest;
    let reps = 5;
    let alg3 = RandEfficientColorer::new(n, delta, 5);
    let slots = alg3.num_epochs() * alg3.copies();
    let ell = 1u64 << (delta as u64).ilog2();
    let family = PolynomialFamily::for_domain(n as u64, ell * ell, 4);
    let mut rng = SplitMix64::new(43);
    let hashes: Vec<_> = (0..slots).map(|_| family.sample(&mut rng)).collect();
    let table = VertexSlotTable::build(&hashes, n).expect("alg3's shape tabulates");
    for v in 0..n as u32 {
        for (slot, h) in hashes.iter().enumerate() {
            assert_eq!(
                table.value(v, slot),
                h.eval(v as u64),
                "table-build: v = {v}, slot = {slot}"
            );
        }
    }
    let scalar_ms = median_time_ms(reps, || {
        let mut vals = vec![0u16; n * slots];
        for (v, row) in vals.chunks_exact_mut(slots).enumerate() {
            for (h, out) in hashes.iter().zip(row.iter_mut()) {
                *out = h.eval(v as u64) as u16;
            }
        }
        vals[vals.len() - 1] as u64
    });
    let build_ms = median_time_ms(reps, || {
        let table = VertexSlotTable::build(&hashes, n).expect("alg3's shape tabulates");
        table.value(n as u32 - 1, slots - 1)
    });
    Row::new("table-build")
        .count("n", n)
        .count("delta", delta)
        .count("slots", slots)
        .num("scalar_ms", scalar_ms)
        .num("build_ms", build_ms)
        .num("speedup", scalar_ms / build_ms.max(1e-9))
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
    let inserts = insertions(&g);
    let algos: Vec<(&str, ColorerSpec)> = vec![
        ("alg2", ColorerSpec::Robust { beta: None }),
        ("alg3", ColorerSpec::RandEfficient),
        ("bg18", ColorerSpec::Bg18 { buckets: None }),
        ("store_all", ColorerSpec::StoreAll),
        ("bcg20", ColorerSpec::Bcg20 { epsilon: 0.5 }),
    ];
    // One checkpointed run per query path over `tokens`, checkpointing
    // about `queries` times; returns (queries, scratch_ms,
    // incremental_ms). `graph` feeds the specs that size themselves
    // from it (bcg20).
    let time_query_paths = |name: &str,
                            spec: &ColorerSpec,
                            graph: Option<&sc_graph::Graph>,
                            delta: usize,
                            tokens: &[SignedEdge]|
     -> (usize, f64, f64) {
        let run_once = |config: EngineConfig| {
            let mut colorer = spec.build(n, delta, 5, graph).expect("streaming spec");
            let report = StreamEngine::new(config)
                .run(colorer.as_mut(), tokens)
                .expect("well-formed stream");
            (report.elapsed.as_secs_f64() * 1e3, report)
        };
        let every = (tokens.len() / queries).max(1);
        let base = EngineConfig::batched(256).with_schedule(QuerySchedule::EveryEdges(every));
        // Equivalence first (the law the property tests prove; cheap to
        // re-assert where the numbers are produced).
        let (_, ri) = run_once(base.clone());
        let (_, rs) = run_once(base.clone().scratch_queries());
        assert_eq!(ri.final_coloring, rs.final_coloring, "{name}: query paths diverge");
        assert_eq!(ri.checkpoints, rs.checkpoints, "{name}: checkpoint records diverge");
        let median_ms =
            |config: EngineConfig| median((0..reps).map(|_| run_once(config.clone()).0).collect());
        let incremental_ms = median_ms(base.clone());
        let scratch_ms = median_ms(base.scratch_queries());
        (ri.checkpoints.len() + 1, scratch_ms, incremental_ms)
    };

    let mut entries = Vec::new();
    for (name, spec) in &algos {
        let (queries, scratch_ms, incremental_ms) =
            time_query_paths(name, spec, Some(&g), delta, &inserts);
        entries.push(
            Row::new(name)
                .text("kind", "checkpointed")
                .count("n", n)
                .count("delta", delta)
                .count("m", g.m())
                .count("queries", queries)
                .num("scratch_ms", scratch_ms)
                .num("incremental_ms", incremental_ms)
                .num("speedup", scratch_ms / incremental_ms.max(1e-9)),
        );
    }

    // The dynamic section: checkpointed queries over a turnstile
    // (churn) stream — every scheduled observation lands on a sketch
    // that has absorbed deletions, so this times `query_incremental`'s
    // cache against from-scratch decodes under real churn.
    let churn = SourceSpec::churn(n, delta, 23, n / 2);
    let tokens = churn.signed_tokens();
    let dyn_delta = churn.stream_delta();
    let spec = ColorerSpec::DynamicSr { sparsity: None };
    let (queries, scratch_ms, incremental_ms) =
        time_query_paths("dynamic_sr", &spec, None, dyn_delta, &tokens);
    entries.push(
        Row::new("dynamic_sr")
            .text("kind", "checkpointed-churn")
            .count("n", n)
            .count("delta", dyn_delta)
            .count("tokens", tokens.len())
            .count("queries", queries)
            .num("scratch_ms", scratch_ms)
            .num("incremental_ms", incremental_ms)
            .num("speedup", scratch_ms / incremental_ms.max(1e-9)),
    );

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
            (median(times), played)
        };
        let (incremental_ms, ri) = play(EngineConfig::per_edge());
        let (scratch_ms, rs) = play(EngineConfig::per_edge().scratch_queries());
        assert_eq!(ri, rs, "{name}: query path changed the game transcript length");
        entries.push(
            Row::new(name)
                .text("kind", "adversary-game")
                .count("n", gn)
                .count("delta", gdelta)
                .count("rounds", ri)
                .num("scratch_ms", scratch_ms)
                .num("incremental_ms", incremental_ms)
                .num("speedup", scratch_ms / incremental_ms.max(1e-9)),
        );
    }

    write_rows(
        "query",
        profile.smoke,
        entries,
        "incremental vs from-scratch query timings (checkpointed runs + adversary games)",
    );
}

/// `g`'s edges in generator order, as an insert-only token stream.
fn insertions(g: &sc_graph::Graph) -> Vec<SignedEdge> {
    StreamOrder::AsGenerated.arrange(g).into_iter().map(SignedEdge::insert).collect()
}
