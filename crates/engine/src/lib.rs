//! # `sc-engine` — the declarative experiment layer
//!
//! Every harness in this workspace used to hand-roll the same loop:
//! generate a graph, arrange its edges, feed a colorer, query, validate,
//! report. This crate replaces those loops with one vocabulary:
//!
//! * [`SourceSpec`] / [`GraphFamily`] — *what graph* (a stored graph or a
//!   reproducible generator family);
//! * [`ColorerSpec`] — *which algorithm* (every streaming colorer,
//!   multi-pass algorithm and offline comparator the workspace exposes);
//! * [`Scenario`] — *one experiment*: source + arrival order + algorithm
//!   + engine configuration (chunk size, checkpoint schedule) + seed;
//! * [`Runner`] — *execution*: runs a scenario through the batched
//!   [`StreamEngine`](sc_stream::StreamEngine), and runs independent
//!   scenarios (repetition sweeps, parameter grids, adversary trials)
//!   in parallel across threads — each colorer stays single-threaded, so
//!   the streaming model's space accounting is untouched;
//! * [`AttackScenario`] / [`AdversarySpec`] — adaptive-adversary games as
//!   declarative scenarios, with parallel multi-trial sweeps;
//! * [`verify`] — the BBMU21 coloring-verification runner;
//! * [`wire`] / [`flatjson`] — the serde-free wire format that
//!   round-trips scenarios to flat JSON, making grids *distributable*;
//! * [`shard`] — the job vocabulary for grids and trial sweeps fanned
//!   out across processes: spec encoding, slices, and mergeable outcomes
//!   (`sc-cluster` places the slices on workers).
//!
//! **Ownership contract** (see ROADMAP.md, "which layer owns what"):
//! this crate owns the **only** parallelism in the workspace
//! ([`Runner`] fans whole scenarios across scoped threads; colorers
//! stay single-threaded), the **one** algorithm dispatch table
//! ([`ColorerSpec::build`] — runner, referee, CLI, benches, service
//! all call it), and the canonical byte-stable codecs ([`flatjson`],
//! [`wire`]) plus the deterministic [`shard::partition`] that every
//! distribution layer above (`sc-service`, `sc-cluster`) reuses rather than reinvents — which is why their
//! merge laws can all be `diff`.
//!
//! ```
//! use sc_engine::{ColorerSpec, Runner, Scenario, SourceSpec};
//!
//! let scenario = Scenario::new(
//!     SourceSpec::exact_degree(200, 12, 42),
//!     ColorerSpec::Robust { beta: None },
//! );
//! let outcome = Runner::default().run(&scenario);
//! assert!(outcome.proper);
//! ```

pub mod attack;
pub mod flatjson;
pub mod parallel;
pub mod runner;
pub mod scenario;
pub mod shard;
pub mod source;
pub mod spec;
pub mod verify;
pub mod wire;

pub use attack::{AdversarySpec, AttackScenario};
pub use parallel::par_map;
pub use runner::{RunOutcome, Runner};
pub use scenario::Scenario;
pub use shard::{RunSummary, ShardJob, ShardOutcome};
pub use source::{GraphFamily, SourceSpec};
pub use spec::ColorerSpec;
pub use verify::{run_verify, VerifyMode, VerifyReport};
