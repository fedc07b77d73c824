//! # `sc-service` — the multi-tenant serving surface
//!
//! The paper's model is inherently interactive: a client (or adversary)
//! alternates edge insertions with coloring queries, and the algorithm
//! must answer after *any* prefix. Everything below this crate serves
//! one such interaction at a time; `sc-service` is the layer that hosts
//! **many named concurrent sessions** — the shape a serving deployment
//! needs — behind two equivalent faces:
//!
//! * the typed [`Service`] API (`open` / `push` / `push_batch` /
//!   `observe` / `checkpoint` / `stats` / `finish`, addressed by session
//!   name), each session an owned [`sc_stream::Session`] built from a
//!   [`sc_engine::ColorerSpec`];
//! * the **flat-JSON line protocol** ([`Service::respond`] /
//!   [`Service::serve`]): one request object per line in, one
//!   canonical byte-stable response object per line out, so shell
//!   scripts, tests, the adversary game ([`run_game_via_service`]) and
//!   cluster shard workers all drive the same API (`streamcolor serve`
//!   is this loop over stdin or a `--script` file; the stateless
//!   `run_job` command is what makes any serve endpoint a remote worker
//!   for `sc-cluster`, and `with_max_sessions` bounds what one rogue
//!   client on a shared listener can open).
//!
//! Sessions are fully independent — no shared state, no cross-session
//! ordering — which yields the crate's **determinism law**: interleaving
//! K sessions in any order produces, per session, byte-identical
//! responses to K isolated runs (property-tested in
//! `tests/service_determinism.rs`, golden-file gated by CI's
//! `service-smoke` job). Every surface — stdin, `--script`, and the
//! reactor's connections — frames its input with the one [`LineBuf`]
//! (line limit, lossy UTF-8, the last line at end of input) and
//! answers each line with [`Service::respond_as`], so none of them can
//! drift from the others.
//!
//! **Ownership contract** (see ROADMAP.md, "which layer owns what"):
//! this crate owns *session hosting and protocol dispatch* — naming,
//! isolation, limits (`with_max_sessions`), and the request/response
//! envelope. It owns no vocabulary of its own: commands decode through
//! `sc_engine::wire` and encode through `sc_engine::flatjson`, so the
//! serving, sharding, and cluster layers can never fork the wire
//! format. The full protocol reference lives in `docs/PROTOCOL.md`.

pub mod game;
pub mod lines;
pub mod service;

pub use game::run_game_via_service;
pub use lines::{LineBuf, MAX_LINE_BYTES};
pub use service::{HostCounters, Service};
