//! Sharding scenario grids and attack-trial sweeps: the job vocabulary.
//!
//! [`Runner::run_all`] makes a grid parallel across *threads*; this
//! module defines what travels when the same grid fans out across
//! *processes and machines*. The moving parts:
//!
//! * [`ShardJob`] — the unit of distribution: a scenario grid or an
//!   attack-trial sweep, wire-encoded via [`crate::wire`] so a worker
//!   can reconstruct it exactly;
//! * [`partition`] — the deterministic contiguous split of `0..len` into
//!   shard ranges (shard `i` of `N` always gets the same slice);
//! * [`run_job`] — a worker's whole payload: run one slice through the
//!   ordinary [`Runner`] into a mergeable [`ShardOutcome`];
//! * [`RunSummary`] — the observational summary of a [`RunOutcome`]
//!   (everything except wall-clock time, which is not deterministic and
//!   therefore not mergeable-identical).
//!
//! Placement lives one layer up: `sc-cluster`'s `WorkerPool` ships
//! `(spec, shard, of)` slices to `streamcolor serve` workers as `run_job`
//! protocol lines and merges their [`encode_worker_output`] answers
//! (`streamcolor shard` is its CLI).
//!
//! **Determinism law** (tested in `crates/cluster/tests/
//! cluster_determinism.rs` and `crates/cli/tests/shard_determinism.rs`,
//! gated by CI's `cluster-smoke` job): the merged output is
//! *byte-identical* to the single-process [`run_in_process`] result, for
//! every worker count and every `Runner` thread count. Two ingredients
//! make this hold: every scenario run is deterministic given its spec,
//! and jobs are compared only after [`ShardJob::canonicalize`] — stored
//! graphs do not carry adjacency-list order on the wire, so both the
//! workers and the in-process reference run the *decoded* job.

use crate::attack::AttackScenario;
use crate::flatjson::{encode_array, parse_array, FlatObject, Scalar};
use crate::runner::{RunOutcome, Runner};
use crate::scenario::Scenario;
use crate::source::SourceSpec;
use crate::spec::ColorerSpec;
use crate::wire;
use sc_adversary::TrialSummary;
use sc_stream::{EngineConfig, QuerySchedule, StreamOrder};
use std::ops::Range;

// ---------------------------------------------------------------------
// Partitioning.
// ---------------------------------------------------------------------

/// Splits `0..len` into `shards` contiguous ranges (empty ones included),
/// earlier shards taking the remainder. Deterministic: shard `i` of `N`
/// always owns the same items, so a re-run worker recomputes exactly its
/// slice.
pub fn partition(len: usize, shards: usize) -> Vec<Range<usize>> {
    (0..shards.max(1)).map(|i| shard_range(len, i, shards)).collect()
}

/// Shard `shard`'s range of [`partition`]`(len, of)`, computed without
/// building the other `of − 1` ranges (a client picks `of`, so its size
/// must not decide an allocation). `shard` must be below `of.max(1)`.
pub fn shard_range(len: usize, shard: usize, of: usize) -> Range<usize> {
    let of = of.max(1);
    let (base, rem) = (len / of, len % of);
    let start = shard * base + shard.min(rem);
    start..start + base + usize::from(shard < rem)
}

// ---------------------------------------------------------------------
// The unit of distribution.
// ---------------------------------------------------------------------

/// What a shard spec file describes: a scenario grid, or one attack
/// scenario swept over independently seeded trials.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardJob {
    /// Independent scenarios; shard ranges slice the grid.
    Grid(Vec<Scenario>),
    /// One adaptive game re-seeded per trial (exactly
    /// [`Runner::run_attack_trials`]); shard ranges slice the trial seeds.
    Attack {
        /// The game to replay.
        scenario: AttackScenario,
        /// Total trials across all shards.
        trials: usize,
    },
}

impl ShardJob {
    /// Items shard ranges index into (scenarios or trials).
    pub fn len(&self) -> usize {
        match self {
            ShardJob::Grid(scenarios) => scenarios.len(),
            ShardJob::Attack { trials, .. } => *trials,
        }
    }

    /// Whether there is nothing to run.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encodes the job as a spec file: a header object followed by the
    /// scenario (or attack) objects. Canonical, and exactly invertible
    /// by [`ShardJob::decode`].
    pub fn encode(&self) -> String {
        let mut objs = Vec::new();
        let mut header = FlatObject::new();
        header.insert("kind".into(), Scalar::Str("shard-job".into()));
        match self {
            ShardJob::Grid(scenarios) => {
                header.insert("payload".into(), Scalar::Str("grid".into()));
                objs.push(header);
                objs.extend(scenarios.iter().map(wire::scenario_to_wire));
            }
            ShardJob::Attack { scenario, trials } => {
                header.insert("payload".into(), Scalar::Str("attack".into()));
                header.insert("trials".into(), Scalar::Uint(*trials as u64));
                objs.push(header);
                objs.push(wire::attack_to_wire(scenario));
            }
        }
        encode_array(&objs)
    }

    /// Decodes a spec file.
    ///
    /// # Errors
    /// Returns a message locating the malformed object, or naming an
    /// attack victim the referee cannot play
    /// ([`AttackScenario::check_playable`]). Grid scenarios decode
    /// losslessly whatever they pair; [`ShardJob::check_runnable`]
    /// screens them before a run.
    pub fn decode(text: &str) -> Result<Self, String> {
        let objs = parse_array(text)?;
        let (header, rest) = objs.split_first().ok_or("spec file has no header object")?;
        match wire::str_field(header, "kind")? {
            "shard-job" => {}
            other => return Err(format!("expected a shard-job header, got kind {other:?}")),
        }
        // Header keys are checked against the canonical encoder's set, so
        // a typo like "trails" errors instead of silently running with
        // defaults (the body objects do the same check field-by-field).
        let mut canonical = FlatObject::new();
        canonical.insert("kind".into(), Scalar::Str(String::new()));
        canonical.insert("payload".into(), Scalar::Str(String::new()));
        if wire::str_field(header, "payload") == Ok("attack") {
            canonical.insert("trials".into(), Scalar::Uint(0));
        }
        wire::reject_unknown_keys(header, &canonical, "shard-job header")?;
        match wire::str_field(header, "payload")? {
            "grid" => rest
                .iter()
                .enumerate()
                .map(|(i, obj)| {
                    wire::scenario_from_wire(obj).map_err(|e| format!("scenario {i}: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()
                .map(ShardJob::Grid),
            "attack" => {
                let trials = wire::usize_field(header, "trials")?;
                match rest {
                    [obj] => {
                        let scenario = wire::attack_from_wire(obj)?;
                        scenario.check_playable()?;
                        Ok(ShardJob::Attack { scenario, trials })
                    }
                    _ => Err(format!("attack spec needs exactly one scenario, got {}", rest.len())),
                }
            }
            other => Err(format!("unknown payload {other:?}")),
        }
    }

    /// Whether every grid scenario can run
    /// ([`Scenario::check_runnable`]: a dynamic source needs a colorer
    /// that takes deletions). Both run paths — the service's `run_job`
    /// and [`run_in_process`] — call this before running, so a bad grid
    /// is an error instead of a panic. Attack jobs were already screened
    /// by [`ShardJob::decode`].
    ///
    /// # Errors
    /// Names the first unrunnable scenario by index.
    pub fn check_runnable(&self) -> Result<(), String> {
        let ShardJob::Grid(scenarios) = self else { return Ok(()) };
        for (i, scenario) in scenarios.iter().enumerate() {
            scenario.check_runnable().map_err(|e| format!("scenario {i}: {e}"))?;
        }
        Ok(())
    }

    /// The wire-canonical form of this job: what every worker process
    /// actually receives. Stored graphs are rebuilt from their edge
    /// sequence (adjacency-list order is not on the wire), so comparing
    /// sharded against in-process runs is only meaningful after
    /// canonicalization — the cluster pool and [`run_in_process`] both
    /// apply it.
    ///
    /// # Errors
    /// Propagates decode errors (impossible for jobs this crate built).
    pub fn canonicalize(&self) -> Result<Self, String> {
        Self::decode(&self.encode())
    }
}

// ---------------------------------------------------------------------
// Observational run summaries.
// ---------------------------------------------------------------------

/// Everything observable about a [`RunOutcome`] except wall-clock time:
/// the mergeable, wire-encodable unit of a sharded grid's output.
///
/// The final coloring travels verbatim; mid-stream checkpoints travel as
/// their records ([`sc_stream::encode_checkpoints`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// The scenario's label.
    pub label: String,
    /// The algorithm's self-reported name.
    pub algo: String,
    /// Vertices in the materialized graph.
    pub n: usize,
    /// Edges in the materialized graph.
    pub m: usize,
    /// Max degree of the materialized graph.
    pub delta: usize,
    /// Whether the final coloring was proper.
    pub proper: bool,
    /// Distinct colors in the final coloring.
    pub colors: usize,
    /// Passes over the input (`None` for offline comparators).
    pub passes: Option<u64>,
    /// Self-reported peak space in bits (`None` for offline comparators).
    pub space_bits: Option<u64>,
    /// The final coloring as `"0,1,-,2"` ([`sc_stream::coloring_string`]; `-` is uncolored).
    pub coloring: String,
    /// Checkpoint records as [`sc_stream::encode_checkpoints`] writes them.
    pub checkpoints: String,
}

impl RunSummary {
    /// Summarizes one outcome.
    pub fn of(outcome: &RunOutcome) -> Self {
        Self {
            label: outcome.label.clone(),
            algo: outcome.algo.clone(),
            n: outcome.n,
            m: outcome.m,
            delta: outcome.delta,
            proper: outcome.proper,
            colors: outcome.colors,
            passes: outcome.passes,
            space_bits: outcome.space_bits,
            coloring: sc_stream::coloring_string(&outcome.coloring),
            checkpoints: sc_stream::encode_checkpoints(&outcome.checkpoints),
        }
    }

    /// Encodes as a flat wire object (`"kind": "run-summary"`).
    pub fn to_wire(&self) -> FlatObject {
        let mut obj = FlatObject::new();
        obj.insert("kind".into(), Scalar::Str("run-summary".into()));
        obj.insert("label".into(), Scalar::Str(self.label.clone()));
        obj.insert("algo".into(), Scalar::Str(self.algo.clone()));
        obj.insert("n".into(), Scalar::Uint(self.n as u64));
        obj.insert("m".into(), Scalar::Uint(self.m as u64));
        obj.insert("delta".into(), Scalar::Uint(self.delta as u64));
        obj.insert("proper".into(), Scalar::Bool(self.proper));
        obj.insert("colors".into(), Scalar::Uint(self.colors as u64));
        if let Some(p) = self.passes {
            obj.insert("passes".into(), Scalar::Uint(p));
        }
        if let Some(s) = self.space_bits {
            obj.insert("space_bits".into(), Scalar::Uint(s));
        }
        obj.insert("coloring".into(), Scalar::Str(self.coloring.clone()));
        obj.insert("checkpoints".into(), Scalar::Str(self.checkpoints.clone()));
        obj
    }

    /// Decodes a [`RunSummary::to_wire`] object.
    ///
    /// # Errors
    /// Returns a message naming the missing or malformed field.
    pub fn from_wire(obj: &FlatObject) -> Result<Self, String> {
        match wire::str_field(obj, "kind")? {
            "run-summary" => {}
            other => return Err(format!("expected a run-summary object, got kind {other:?}")),
        }
        Ok(Self {
            label: wire::str_field(obj, "label")?.to_string(),
            algo: wire::str_field(obj, "algo")?.to_string(),
            n: wire::usize_field(obj, "n")?,
            m: wire::usize_field(obj, "m")?,
            delta: wire::usize_field(obj, "delta")?,
            proper: wire::bool_field(obj, "proper")?,
            colors: wire::usize_field(obj, "colors")?,
            passes: wire::opt_u64(obj, "passes")?,
            space_bits: wire::opt_u64(obj, "space_bits")?,
            coloring: wire::str_field(obj, "coloring")?.to_string(),
            checkpoints: wire::str_field(obj, "checkpoints")?.to_string(),
        })
    }
}

fn trial_summary_to_wire(s: &TrialSummary) -> FlatObject {
    let mut obj = FlatObject::new();
    obj.insert("kind".into(), Scalar::Str("trial-summary".into()));
    obj.insert("trials".into(), Scalar::Uint(s.trials as u64));
    obj.insert("broken".into(), Scalar::Uint(s.broken as u64));
    let rounds: Vec<String> = s.failure_rounds.iter().map(usize::to_string).collect();
    obj.insert("failure_rounds".into(), Scalar::Str(rounds.join(",")));
    obj.insert("max_colors".into(), Scalar::Uint(s.max_colors as u64));
    obj.insert("min_rounds".into(), Scalar::Uint(s.min_rounds as u64));
    obj.insert("max_rounds".into(), Scalar::Uint(s.max_rounds as u64));
    obj
}

fn trial_summary_from_wire(obj: &FlatObject) -> Result<TrialSummary, String> {
    match wire::str_field(obj, "kind")? {
        "trial-summary" => {}
        other => return Err(format!("expected a trial-summary object, got kind {other:?}")),
    }
    let rounds_text = wire::str_field(obj, "failure_rounds")?;
    let failure_rounds: Vec<usize> = if rounds_text.is_empty() {
        Vec::new()
    } else {
        rounds_text
            .split(',')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("failure_rounds: {e}"))?
    };
    Ok(TrialSummary {
        trials: wire::usize_field(obj, "trials")?,
        broken: wire::usize_field(obj, "broken")?,
        failure_rounds,
        max_colors: wire::usize_field(obj, "max_colors")?,
        min_rounds: wire::usize_field(obj, "min_rounds")?,
        max_rounds: wire::usize_field(obj, "max_rounds")?,
    })
}

// ---------------------------------------------------------------------
// Shard outcomes: what workers emit and the worker pool merges.
// ---------------------------------------------------------------------

/// A (partial or merged) job result.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardOutcome {
    /// Summaries of a [`ShardJob::Grid`] slice, in grid order.
    Grid(Vec<RunSummary>),
    /// The aggregate of a [`ShardJob::Attack`] seed slice.
    Attack(TrialSummary),
}

impl ShardOutcome {
    /// Encodes canonically — the "merged summary JSON" the CLI writes
    /// and CI diffs. Exactly invertible by [`ShardOutcome::decode`].
    pub fn encode(&self) -> String {
        let objs: Vec<FlatObject> = match self {
            ShardOutcome::Grid(summaries) => summaries.iter().map(RunSummary::to_wire).collect(),
            ShardOutcome::Attack(summary) => vec![trial_summary_to_wire(summary)],
        };
        encode_array(&objs)
    }

    /// Decodes an [`ShardOutcome::encode`] payload (an empty array is an
    /// empty grid).
    ///
    /// # Errors
    /// Returns a message locating the malformed object.
    pub fn decode(text: &str) -> Result<Self, String> {
        Self::from_objects(&parse_array(text)?)
    }

    fn from_objects(objs: &[FlatObject]) -> Result<Self, String> {
        match objs {
            [obj] if wire::str_field(obj, "kind") == Ok("trial-summary") => {
                Ok(ShardOutcome::Attack(trial_summary_from_wire(obj)?))
            }
            _ => objs
                .iter()
                .enumerate()
                .map(|(i, obj)| RunSummary::from_wire(obj).map_err(|e| format!("summary {i}: {e}")))
                .collect::<Result<Vec<_>, _>>()
                .map(ShardOutcome::Grid),
        }
    }

    /// Merges per-shard outcomes (in shard order) into the job's total.
    ///
    /// # Errors
    /// Errors if the parts mix grid and attack outcomes.
    pub fn merge(parts: impl IntoIterator<Item = ShardOutcome>) -> Result<ShardOutcome, String> {
        let mut parts = parts.into_iter();
        let Some(mut merged) = parts.next() else {
            return Ok(ShardOutcome::Grid(Vec::new()));
        };
        for part in parts {
            match (&mut merged, part) {
                (ShardOutcome::Grid(all), ShardOutcome::Grid(more)) => all.extend(more),
                (ShardOutcome::Attack(all), ShardOutcome::Attack(more)) => all.merge(&more),
                _ => return Err("cannot merge grid and attack outcomes".to_string()),
            }
        }
        Ok(merged)
    }
}

/// Runs one shard's slice of a job on `runner` — a worker's entire
/// computational payload (the service's `run_job` command), also reused by [`run_in_process`] with
/// the full range.
pub fn run_job(runner: &Runner, job: &ShardJob, range: Range<usize>) -> ShardOutcome {
    match job {
        ShardJob::Grid(scenarios) => {
            let outcomes = runner.run_all(&scenarios[range]);
            ShardOutcome::Grid(outcomes.iter().map(RunSummary::of).collect())
        }
        ShardJob::Attack { scenario, .. } => {
            ShardOutcome::Attack(runner.run_attack_trials(scenario, range))
        }
    }
}

/// The single-process reference: canonicalizes the job (exactly as every
/// worker would receive it) and runs it whole on one [`Runner`]. The
/// sharded path must reproduce this byte-for-byte.
///
/// # Errors
/// Propagates canonicalization errors and [`ShardJob::check_runnable`]
/// refusals.
pub fn run_in_process(job: &ShardJob, threads: usize) -> Result<ShardOutcome, String> {
    let job = job.canonicalize()?;
    job.check_runnable()?;
    Ok(run_job(&Runner::with_threads(threads), &job, 0..job.len()))
}

// ---------------------------------------------------------------------
// Worker outputs.
// ---------------------------------------------------------------------

/// Encodes a worker's output: a `shard-result` header (shard index and
/// count, so the worker pool can detect mixed-up answers) followed by
/// the outcome objects.
pub fn encode_worker_output(shard: usize, of: usize, outcome: &ShardOutcome) -> String {
    let mut header = FlatObject::new();
    header.insert("kind".into(), Scalar::Str("shard-result".into()));
    header.insert("shard".into(), Scalar::Uint(shard as u64));
    header.insert("of".into(), Scalar::Uint(of as u64));
    let mut objs = vec![header];
    match outcome {
        ShardOutcome::Grid(summaries) => objs.extend(summaries.iter().map(RunSummary::to_wire)),
        ShardOutcome::Attack(summary) => objs.push(trial_summary_to_wire(summary)),
    }
    encode_array(&objs)
}

/// Decodes a worker output into `(shard, of, outcome)`.
///
/// # Errors
/// Returns a message locating the malformed object.
pub fn decode_worker_output(text: &str) -> Result<(usize, usize, ShardOutcome), String> {
    let objs = parse_array(text)?;
    let (header, rest) = objs.split_first().ok_or("worker output has no header object")?;
    match wire::str_field(header, "kind")? {
        "shard-result" => {}
        other => return Err(format!("expected a shard-result header, got kind {other:?}")),
    }
    Ok((
        wire::usize_field(header, "shard")?,
        wire::usize_field(header, "of")?,
        ShardOutcome::from_objects(rest)?,
    ))
}

// ---------------------------------------------------------------------
// The CI smoke grid.
// ---------------------------------------------------------------------

/// The fixed small grid behind `streamcolor shard --smoke` and CI's
/// `cluster-smoke` job: every scenario-expressible algorithm class, two
/// insert-only graph sources and one turnstile source, several arrival
/// orders and checkpoint schedules, in a few seconds of total work.
pub fn smoke_grid() -> Vec<Scenario> {
    let exact = SourceSpec::exact_degree(240, 8, 7);
    let gnp = SourceSpec::gnp(240, 8, 0.35, 11);
    let schedule = QuerySchedule::EveryEdges(97);
    vec![
        Scenario::new(exact.clone(), ColorerSpec::Robust { beta: None })
            .labeled("smoke robust")
            .with_order(StreamOrder::Shuffled(1))
            .with_seed(21)
            .with_schedule(schedule.clone()),
        Scenario::new(gnp.clone(), ColorerSpec::Robust { beta: Some(0.5) })
            .labeled("smoke robust β=0.5")
            .with_order(StreamOrder::HubsLast)
            .with_seed(22),
        Scenario::new(exact.clone(), ColorerSpec::RandEfficient)
            .labeled("smoke alg3")
            .with_order(StreamOrder::Interleaved(5))
            .with_seed(23),
        Scenario::new(gnp.clone(), ColorerSpec::Cgs22)
            .labeled("smoke cgs22")
            .with_order(StreamOrder::Shuffled(9))
            .with_seed(24),
        Scenario::new(exact.clone(), ColorerSpec::Bg18 { buckets: None })
            .labeled("smoke bg18")
            .with_seed(25)
            .with_engine(EngineConfig::batched(64)),
        Scenario::new(gnp.clone(), ColorerSpec::Bcg20 { epsilon: 0.5 })
            .labeled("smoke bcg20")
            .with_order(StreamOrder::VertexContiguous)
            .with_seed(26),
        Scenario::new(exact.clone(), ColorerSpec::PaletteSparsification { lists: Some(8) })
            .labeled("smoke ps")
            .with_order(StreamOrder::Shuffled(3))
            .with_seed(27),
        Scenario::new(gnp.clone(), ColorerSpec::StoreAll)
            .labeled("smoke store-all")
            .with_seed(28)
            .with_schedule(QuerySchedule::AtPrefixes(vec![50, 150])),
        Scenario::new(exact.clone(), ColorerSpec::Trivial).labeled("smoke trivial").with_seed(29),
        Scenario::new(gnp, ColorerSpec::Det(streamcolor::DetConfig::default()))
            .labeled("smoke det")
            .with_seed(30),
        Scenario::new(exact.clone(), ColorerSpec::BatchGreedy)
            .labeled("smoke batch-greedy")
            .with_seed(31),
        Scenario::new(exact, ColorerSpec::OfflineGreedy).labeled("smoke greedy").with_seed(32),
        Scenario::new(SourceSpec::churn(240, 8, 13, 60), ColorerSpec::DynamicSr { sparsity: None })
            .labeled("smoke dynamic-sr")
            .with_seed(33)
            .with_engine(EngineConfig::batched(64))
            .with_schedule(schedule),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_contiguous_and_fair() {
        for (len, shards) in [(0usize, 3usize), (1, 1), (5, 2), (7, 7), (10, 3), (3, 8)] {
            let parts = partition(len, shards);
            assert_eq!(parts.len(), shards);
            let mut next = 0;
            for r in &parts {
                assert_eq!(r.start, next, "gap at {r:?} (len {len}, shards {shards})");
                next = r.end;
            }
            assert_eq!(next, len, "ranges must cover 0..{len}");
            let sizes: Vec<usize> = parts.iter().map(ExactSizeIterator::len).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "unfair split {sizes:?}");
        }
        assert_eq!(partition(4, 0), partition(4, 1), "0 shards degrades to 1");
        for (len, of) in [(0usize, 3usize), (5, 2), (10, 3), (3, 8), (7, 0)] {
            for (i, r) in partition(len, of).into_iter().enumerate() {
                assert_eq!(shard_range(len, i, of), r, "shard {i} of {of} over {len}");
            }
        }
        let huge = 1_000_000_000_000;
        assert_eq!(shard_range(12, 0, huge), 0..1);
        assert_eq!(shard_range(12, huge - 1, huge), 12..12);
    }

    #[test]
    fn jobs_round_trip_through_spec_files() {
        let grid = ShardJob::Grid(smoke_grid());
        assert_eq!(ShardJob::decode(&grid.encode()).unwrap(), grid);
        assert_eq!(grid.len(), smoke_grid().len());

        let empty = ShardJob::Grid(Vec::new());
        assert!(empty.is_empty());
        assert_eq!(ShardJob::decode(&empty.encode()).unwrap(), empty);

        let attack = ShardJob::Attack {
            scenario: AttackScenario::new(
                ColorerSpec::Robust { beta: None },
                crate::attack::AdversarySpec::Monochromatic,
                50,
                6,
            ),
            trials: 9,
        };
        assert_eq!(ShardJob::decode(&attack.encode()).unwrap(), attack);
        assert_eq!(attack.len(), 9);

        assert!(ShardJob::decode("[]\n").unwrap_err().contains("header"));
    }

    #[test]
    fn run_summaries_round_trip() {
        let runner = Runner::sequential();
        let scenarios = [
            Scenario::new(SourceSpec::exact_degree(40, 4, 1), ColorerSpec::StoreAll)
                .with_schedule(QuerySchedule::EveryEdges(10)),
            Scenario::new(SourceSpec::exact_degree(40, 4, 1), ColorerSpec::OfflineGreedy),
        ];
        for s in &scenarios {
            let summary = RunSummary::of(&runner.run(s));
            let back = RunSummary::from_wire(&summary.to_wire()).unwrap();
            assert_eq!(back, summary);
        }
        // Offline runs have no passes/space; streaming runs do.
        let streaming = RunSummary::of(&runner.run(&scenarios[0]));
        let offline = RunSummary::of(&runner.run(&scenarios[1]));
        assert!(streaming.passes.is_some() && streaming.space_bits.is_some());
        assert!(offline.passes.is_none() && offline.space_bits.is_none());
        assert!(!streaming.checkpoints.is_empty());
    }

    #[test]
    fn run_summary_checkpoint_text_is_frozen() {
        // Merged shard outputs are compared by this text, so the record
        // layout and the coloring digest must never drift.
        let s = Scenario::new(SourceSpec::gnp(40, 5, 0.3, 3), ColorerSpec::StoreAll)
            .with_schedule(QuerySchedule::EveryEdges(7));
        let summary = RunSummary::of(&Runner::sequential().run(&s));
        assert_eq!(
            summary.checkpoints,
            "7:2:84:7d5bbb030b42fea5;14:2:168:745d77cac23c8164;21:3:252:339cbea4338b66e6;\
             28:3:336:e766919dd99cd2e7;35:3:420:e9a0a9c2bda79725;42:3:504:2b576e58f05dc665;\
             49:3:588:60fc2b5e5b175025;56:3:672:97b42db60a1d69e4;63:3:756:5e8846aaea3d33c7;\
             70:4:840:1c04ae12e3e39da4;77:4:924:569d1d2545000847;84:4:1008:0da37289f0d88f86;\
             91:4:1092:24a47b5f25a82227"
        );
    }

    #[test]
    fn outcomes_encode_decode_and_merge() {
        let runner = Runner::sequential();
        let job = ShardJob::Grid(vec![
            Scenario::new(SourceSpec::exact_degree(30, 3, 1), ColorerSpec::Trivial),
            Scenario::new(SourceSpec::exact_degree(30, 3, 2), ColorerSpec::StoreAll),
            Scenario::new(SourceSpec::exact_degree(30, 3, 3), ColorerSpec::OfflineGreedy),
        ])
        .canonicalize()
        .unwrap();
        let whole = run_job(&runner, &job, 0..3);
        let parts: Vec<ShardOutcome> =
            partition(3, 2).into_iter().map(|r| run_job(&runner, &job, r)).collect();
        let merged = ShardOutcome::merge(parts).unwrap();
        assert_eq!(merged, whole);
        assert_eq!(merged.encode(), whole.encode());
        assert_eq!(ShardOutcome::decode(&whole.encode()).unwrap(), whole);

        // Attack outcomes too.
        let attack = ShardJob::Attack {
            scenario: AttackScenario::new(
                ColorerSpec::PaletteSparsification { lists: Some(3) },
                crate::attack::AdversarySpec::Monochromatic,
                50,
                12,
            )
            .with_rounds(50 * 12)
            .with_seed(70),
            trials: 5,
        };
        let whole = run_job(&runner, &attack, 0..5);
        let parts: Vec<ShardOutcome> =
            partition(5, 3).into_iter().map(|r| run_job(&runner, &attack, r)).collect();
        let merged = ShardOutcome::merge(parts).unwrap();
        assert_eq!(merged, whole);
        assert_eq!(ShardOutcome::decode(&whole.encode()).unwrap(), whole);

        // Mixed merges are rejected; empty merges are empty grids.
        assert!(ShardOutcome::merge([whole, ShardOutcome::Grid(Vec::new())]).is_err());
        assert_eq!(ShardOutcome::merge([]).unwrap(), ShardOutcome::Grid(Vec::new()));
    }

    #[test]
    fn worker_output_files_round_trip() {
        let runner = Runner::sequential();
        let job = ShardJob::Grid(smoke_grid()).canonicalize().unwrap();
        let outcome = run_job(&runner, &job, 2..4);
        let text = encode_worker_output(1, 3, &outcome);
        let (shard, of, back) = decode_worker_output(&text).unwrap();
        assert_eq!((shard, of), (1, 3));
        assert_eq!(back, outcome);
        assert!(decode_worker_output("[]\n").unwrap_err().contains("header"));
    }

    #[test]
    fn in_process_reference_is_thread_count_invariant() {
        let job = ShardJob::Grid(smoke_grid()[..4].to_vec());
        let seq = run_in_process(&job, 1).unwrap();
        let par = run_in_process(&job, 4).unwrap();
        assert_eq!(seq.encode(), par.encode());
    }
}
