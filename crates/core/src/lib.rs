//! # `streamcolor` — semi-streaming graph coloring
//!
//! Reproduction of **"Coloring in Graph Streams via Deterministic and
//! Adversarially Robust Algorithms"** (Assadi, Chakrabarti, Ghosh,
//! Stoeckl; PODS 2023, arXiv:2212.10641).
//!
//! Four algorithms, one crate:
//!
//! | API | Paper result | Colors | Passes |
//! |---|---|---|---|
//! | [`deterministic_coloring`] | Theorem 1 | `∆+1` | `O(log ∆ log log ∆)` |
//! | [`list_coloring`] | Theorem 2 | from `(deg+1)`-lists | `O(log ∆ log log ∆)` |
//! | [`RobustColorer`] | Theorem 3 / Cor 4.7 | `O(∆^{(5−3β)/2})` | 1, adversarially robust |
//! | [`RandEfficientColorer`] | Theorem 4 | `O(∆³)` | 1, robust, `Õ(n)` bits incl. randomness |
//!
//! Supporting modules: [`baselines`] (every prior-work comparator the
//! paper cites — ACK19 palette sparsification, BG18 bucketing, BCG20
//! degeneracy palettes, HKNT22 list sparsification, CGS22 sketch
//! switching, batch greedy), [`robust::analysis`] (live measurement of
//! the concentration lemmas behind Theorems 3–4), and [`verify`]
//! (the BBMU21 vertex-arrival coloring-verification problem).
//!
//! **Ownership contract** (see ROADMAP.md, "which layer owns what"):
//! this crate owns the *algorithms* and nothing around them. Each
//! colorer is single-threaded, self-reports its space through
//! `sc_stream::SpaceMeter` (the engine snapshots, never guesses), must
//! be observationally identical under every `process_batch` chunking,
//! and owns its epoch-keyed `QueryCache` with the law *incremental ≡
//! scratch at every prefix*. Chunking, pass counting, and checkpoint
//! schedules belong to `sc-stream`; parallelism, grids, and wire
//! formats belong to `sc-engine` and above.
//!
//! ```
//! use sc_graph::generators;
//! use sc_stream::{run_oblivious, StoredStream, StreamingColorer};
//! use streamcolor::{deterministic_coloring, DetConfig, RobustColorer};
//!
//! let graph = generators::random_with_exact_max_degree(200, 12, 42);
//!
//! // Theorem 1: deterministic (∆+1)-coloring over a multi-pass stream.
//! let stream = StoredStream::from_graph(&graph);
//! let report = deterministic_coloring(&stream, 200, 12, &DetConfig::default());
//! assert!(report.coloring.is_proper_total(&graph));
//! assert!(report.coloring.palette_span() <= 13);
//!
//! // Theorem 3: robust single-pass coloring, queryable anywhere.
//! let mut robust = RobustColorer::new(200, 12, 7);
//! let coloring = run_oblivious(&mut robust, graph.edges());
//! assert!(coloring.is_proper_total(&graph));
//! ```

pub mod baselines;
pub mod det;
pub mod dynamic;
pub mod listcolor;
pub mod robust;
#[cfg(test)]
mod scalar_reference;
pub mod verify;

pub use baselines::{
    batch_greedy_coloring, offline_greedy, Bcg20Colorer, Bg18Colorer, Cgs22Colorer, Hknt22Colorer,
    PaletteSparsification, TrivialColorer,
};
pub use det::{deterministic_coloring, DerandStrategy, DetConfig, DetReport};
pub use dynamic::{DynamicColorer, SparseRecovery};
pub use listcolor::{list_coloring, ListConfig, ListReport};
pub use robust::{AutoRobust, RandEfficientColorer, RobustColorer, RobustParams, StoreAllColorer};
