//! # `sc-cluster` — process and machine distribution, and TCP serving
//!
//! `sc_engine::shard` defines the unit of distribution (a
//! [`ShardJob`](sc_engine::shard::ShardJob) and its deterministic
//! slices); `sc-service` proves the whole session vocabulary survives a
//! byte-stable wire (its flat-JSON line protocol). This crate ships a
//! slice to a **worker** over a transport, fetches its output, survives
//! stragglers and dead workers, and merges **byte-identically** to the
//! single-process reference. It also hosts the one TCP server, the
//! [`Reactor`] behind `streamcolor serve --listen ADDR`.
//!
//! ```text
//!  WorkerPool ───────┬─ Transport: InProcess  (loopback Service)
//!   (one slice per   ├─ Transport: ChildStdio (spawn `streamcolor serve`,
//!    worker, work-   │     or `ssh host streamcolor serve` via
//!    stealing queue, │     ChildStdio::ssh; speak over its pipes)
//!    straggler       └─ Transport: Tcp        (connect to the Reactor
//!    timeout,              behind `serve --listen ADDR`)
//!    speculative
//!    re-dispatch,     a fleet: Vec<Box<dyn Transport>>, any mix
//!    merge)             (`shard --transport {process,stdio,tcp,ssh}`)
//! ```
//!
//! The [`Reactor`] and [`Tcp`] frame their lines with
//! `sc_service`'s [`LineBuf`](sc_service::LineBuf), the reader behind
//! stdin serving too.
//!
//! `streamcolor serve` is the one worker endpoint. The `cluster_worker`
//! bin is the same `Service::serve` loop, kept only so this crate's
//! tests and `exp_cluster` can spawn a worker without the CLI crate.
//!
//! **Ownership contract** (see `ROADMAP.md`, "which layer owns what"):
//! this crate owns *placement and failure handling* — which worker runs
//! which `(spec, shard, of)` slice, when a slice is re-dispatched,
//! stolen, or speculated, and how transports carry protocol lines. It
//! owns **no wire vocabulary** (that is `sc-service`'s line protocol,
//! documented in `docs/PROTOCOL.md`) and **no job semantics** (what a
//! slice computes is fixed by `sc_engine::shard`'s deterministic
//! partition, which is what makes every scheduling decision
//! byte-invisible).
//!
//! ## The transport wire contract
//!
//! A cluster worker is **any `sc_service::Service` endpoint** — there is
//! no cluster-specific wire format. One dispatch is one protocol line in
//! each direction, both canonical [`sc_engine::flatjson`] objects:
//!
//! ```text
//! → {"cmd":"run_job","session":"shard-2","spec":"[\n  {…}\n]\n","shard":2,"of":4}
//! ← {"cmd":"run_job","of":4,"ok":true,"output":"[\n  {…}\n]\n","session":"shard-2","shard":2}
//! ```
//!
//! * `"spec"` is a whole [`ShardJob::encode`](sc_engine::shard::ShardJob::encode)
//!   spec file carried as a JSON string (the line codec escapes its
//!   newlines), so the sharding and serving vocabularies never fork —
//!   the same bytes `ShardJob::encode` produces travel in the line.
//! * `"shard"`/`"of"` select the deterministic
//!   [`partition`](sc_engine::shard::partition) slice. Because shard `i`
//!   of `N` always owns the same items, **re-dispatching a shard to any
//!   other worker reproduces the same bytes** — the retry path needs no
//!   new wire format, only the `excluded`-style rule "never hand a shard
//!   back to a worker that failed it".
//! * `"output"` is the
//!   [`encode_worker_output`](sc_engine::shard::encode_worker_output)
//!   file verbatim (a `shard-result` header + outcome objects), so the
//!   pool validates the embedded `(shard, of)` header before merging.
//! * An `"ok":false` response is a **job error** (malformed spec, bad
//!   slice) and aborts the dispatch — every worker would answer the
//!   same. A transport failure (closed pipe, dead process, timeout) or
//!   a malformed/desynced response is a **worker error** and triggers
//!   re-dispatch to a healthy worker.
//! * Session ids are **tagged per dispatch** (`job3-shard-2`): a
//!   response still in flight when a dispatch aborts is recognized by
//!   its stale tag on the next dispatch and discarded, never merged.
//!
//! ## The determinism law, extended
//!
//! The merged output of a [`WorkerPool`] dispatch — for every transport,
//! every worker count, speculation on or off, a skewed worker or not,
//! and every schedule of worker deaths, stragglers and re-dispatches
//! that leaves at least one worker alive — is byte-identical to
//! [`sc_engine::shard::run_in_process`].
//! Work stealing and speculative duplicates are free determinism-wise
//! because a slice's bytes depend only on `(spec, shard, of)`, never on
//! which worker ran it or how many times. Tested in
//! `tests/cluster_determinism.rs` (including a worker killed mid-job)
//! and gated by CI's `cluster-smoke` job, which diffs `streamcolor
//! shard` over every transport (stdio, the default, at 2, 3 and 7
//! workers) — plus a skewed-fleet stealing run — against the
//! single-process JSON.

pub mod migrate;
pub mod pool;
pub mod reactor;
pub mod transport;

pub use migrate::{migrate_session, MigrationReport};
pub use pool::{DispatchReport, WorkerPool};
pub use reactor::Reactor;
pub use transport::{ChildStdio, InProcess, Tcp, Transport, TransportError, Unreliable};
