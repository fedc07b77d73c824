//! # `sc-stream` — streaming-model substrate for `streamcolor`
//!
//! Encodes the computational model of the paper so algorithms can be
//! *measured* against their claimed complexities:
//!
//! * [`StreamSource`] / [`StoredStream`] — sequential multi-pass access to
//!   a token stream (edges, and `(x, L_x)` color lists for Theorem 2).
//! * [`PassCounter`] — counts passes for the `O(log ∆ log log ∆)` bound.
//! * [`SpaceMeter`] — bit-level, self-reported space accounting for the
//!   `O(n log² n)` / `Õ(n)` bounds.
//! * [`StreamingColorer`] — the process/query contract of the single-pass
//!   (robust) setting, shared by the adversarial game driver.
//! * [`StreamEngine`] / [`Session`] — the batched ingestion engine:
//!   chunking, pass counting, space metering and checkpointed mid-stream
//!   queries in one place (see [`engine`]). A session either owns a
//!   [`BoxedColorer`] (stored, sent across threads, and hosted
//!   many-at-a-time by `sc-service`) or borrows one (engine runs and the
//!   adversary game).
//! * [`QueryCache`] — epoch-keyed reuse of query artifacts, powering the
//!   incremental query path
//!   ([`StreamingColorer::query_incremental`]; see [`query_cache`]).
//! * [`SignedEdge`] / [`DynamicSupport`] — the dynamic (turnstile) model:
//!   signed edge tokens and the engine-side multiplicity referee that
//!   rejects deletions of never-inserted edges loudly (see [`support`]).
//!
//! **Ownership contract** (see ROADMAP.md, "which layer owns what"):
//! the engine owns chunking, pass counting, and checkpointed
//! mid-stream queries — colorers only ever see `process_batch` slices
//! and must behave identically for every chunking. Space is
//! self-reported by each colorer through [`SpaceMeter`]; the engine
//! snapshots it at checkpoints and never guesses. Parallelism lives
//! strictly *above* this crate (`sc-engine`'s `Runner` fans out whole
//! scenarios); every session here is single-threaded so the model's
//! space accounting stays honest.

pub mod colorer;
pub mod engine;
pub mod order;
pub mod query_cache;
pub mod source;
pub mod space;
pub mod state;
pub mod support;
pub mod token;
pub mod trace;

pub use colorer::{run_oblivious, BoxedColorer, StreamingColorer};
pub use engine::{
    Checkpoint, EngineConfig, EngineReport, QuerySchedule, Session, SessionSnapshot, StreamEngine,
};
pub use order::StreamOrder;
pub use query_cache::{CacheState, CacheStats, QueryCache};
pub use source::{PassCounter, StoredStream, StreamSource};
pub use space::{color_bits, counter_bits, edge_bits, vertex_bits, SpaceMeter};
pub use state::{
    decode_edge_list, decode_signed_list, decode_u64_list, encode_edge_list, encode_signed_list,
    encode_u64_list, StateReader, StateWriter,
};
pub use support::DynamicSupport;
pub use token::{Sign, SignedEdge, StreamItem};
pub use trace::{TraceReport, TracingSource};
