//! The session host and its flat-JSON line protocol.
//!
//! One request object per line in, one canonical response object per
//! line out. Requests name a session (`"session"`) and a command
//! (`"cmd"`); responses echo both plus `"ok"`. The full command set:
//!
//! ```text
//! {"cmd":"open","session":"a","n":100,"delta":8,"colorer":"robust","seed":7}
//! {"cmd":"push","session":"a","edge":"0-1"}
//! {"cmd":"push","session":"a","edge":"0-1","sign":"delete"}
//! {"cmd":"push_batch","session":"a","edges":"1-2 2-3 3-4"}
//! {"cmd":"push_batch","session":"a","edges":"+1-2 -1-2 +2-3"}
//! {"cmd":"observe","session":"a"}
//! {"cmd":"checkpoint","session":"a"}
//! {"cmd":"stats","session":"a"}
//! {"cmd":"finish","session":"a"}
//! {"cmd":"snapshot","session":"a"}
//! {"cmd":"restore","session":"a","snapshot":"…"}
//! {"cmd":"run_job","session":"j","spec":"…","shard":0,"of":4}
//! ```
//!
//! `open` reuses the scenario wire vocabulary for its algorithm fields
//! ([`sc_engine::wire::colorer_from_wire`]: `"colorer"` plus per-spec
//! parameters like `"beta"` / `"buckets"`) and an optional `"engine"`
//! string ([`EngineConfig::wire_decode`]); `"delta"` defaults to `n − 1`
//! and `"seed"` to 7. Edges travel as `"u-v"` tokens
//! ([`sc_stream::decode_edges`], the one token codec of every front
//! end), validated against the session's `n`. Unknown keys and unknown commands are errors, never silently
//! ignored.
//!
//! **Turnstile streams**: `push` takes an optional `"sign"` field
//! (`"insert"`, the default, or `"delete"`), and `push_batch` accepts
//! signed tokens (`"+u-v"` / `"-u-v"`; bare `u-v` means insert —
//! [`sc_stream::decode_signed_list`]). A batch is applied
//! **atomically**: if any token is invalid — a deletion of a
//! never-inserted edge, or any deletion through an insert-only colorer
//! — the whole command errors (naming the offending edge) and the
//! session state is unchanged.
//!
//! `snapshot` serializes a session's entire state — colorer state blob,
//! pending tail, checkpoint history, engine config, and the spec
//! vocabulary needed to rebuild the colorer — into one canonical string
//! (itself a flat-JSON object) returned in the `"snapshot"` response
//! field. `restore` opens a session from such a blob; the restored
//! session then answers **byte-identically** to the uninterrupted
//! original at every subsequent command (the persistence law,
//! `crates/service/tests/snapshot_determinism.rs`). The same blob
//! format backs [`Service::with_snapshot_dir`] evict-to-disk and
//! `sc-cluster` session migration.
//!
//! `run_job` is the **worker half of cluster sharding** (`sc-cluster`):
//! a stateless command that carries a whole [`ShardJob`] spec file (the
//! `"spec"` string is the [`ShardJob::encode`] text, newlines escaped by
//! the line codec) plus a `"shard"`/`"of"` slice selector, runs the
//! deterministic [`sc_engine::shard::shard_range`] slice through the
//! ordinary [`Runner`], and answers with an `"output"` string holding
//! the [`sc_engine::shard::encode_worker_output`] file verbatim. It
//! opens no tenant session and touches none — the `"session"` name is
//! just a correlation id — so any `streamcolor serve` process (stdio
//! child or TCP listener) doubles as a remote shard worker with zero new
//! wire vocabulary. The slice runs on one thread
//! ([`Runner::sequential`]): parallelism across slices is the cluster
//! pool's job, not the serving loop's.
//!
//! Responses are canonical ([`sc_engine::flatjson::encode_object`]:
//! sorted keys,
//! shortest-round-trip numbers), carry no wall-clock fields, and each
//! session's state is a deterministic function of its own command
//! sequence — which together give the protocol law the golden-file CI
//! job and the determinism property test pin down: **byte-identical
//! output across runs and interleavings**. Every serving surface — the
//! stdin loop, `serve --script`, and the reactor's connections — frames
//! its input with the one [`LineBuf`] and runs the same
//! [`Service::respond_as`], one line at a time.

use crate::lines::LineBuf;
use sc_engine::flatjson::{encode_object, parse_object, FlatObject, Scalar};
use sc_engine::shard::ShardJob;
use sc_engine::{wire, ColorerSpec, Runner};
use sc_stream::{DynamicSupport, EngineConfig, Session, SessionSnapshot};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// The coloring text of responses is the [`sc_stream::state`] codec,
/// so service observations and shard run summaries diff cleanly.
pub use sc_stream::{coloring_string, parse_coloring};

/// One hosted session: the owned engine session, the open-time
/// parameters needed to rebuild its colorer from a snapshot (`delta`,
/// `seed`, `spec`), the vertex bound its edges are validated against,
/// and the host clock tick of its last command (the LRU eviction
/// order).
struct Tenant {
    n: usize,
    delta: usize,
    seed: u64,
    spec: ColorerSpec,
    session: Session,
    last_used: u64,
}

/// Host-level lifecycle counters, surfaced by the `host_stats` command
/// and by [`Service::counters`]. Connection counts are fed by whatever
/// serving surface owns the sockets (the reactor calls
/// [`Service::record_connections`]; stdio hosts leave them 0) — they
/// describe the *host*, not a session, so they are deliberately outside
/// the per-session determinism law.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HostCounters {
    /// Sessions successfully opened.
    pub sessions_opened: u64,
    /// Sessions closed by `finish`.
    pub sessions_finished: u64,
    /// Sessions evicted by the LRU policy (see
    /// [`Service::with_lru_eviction`]).
    pub sessions_evicted: u64,
    /// Sessions dropped because their owning connection closed
    /// ([`Service::drop_owner`]).
    pub sessions_dropped: u64,
    /// Currently open connections (reactor-fed).
    pub connections_open: u64,
    /// Connections accepted since the host started (reactor-fed).
    pub connections_accepted: u64,
    /// Successful `snapshot` commands.
    pub snapshots: u64,
    /// Successful `restore` commands.
    pub restores: u64,
    /// Evictions that wrote a snapshot to the snapshot directory
    /// instead of leaving a bare tombstone
    /// ([`Service::with_snapshot_dir`]).
    pub disk_evictions: u64,
    /// Disk-evicted sessions transparently restored by a later command.
    pub disk_restores: u64,
}

/// A host for many named, independent, concurrent coloring sessions.
///
/// ```
/// use sc_service::Service;
///
/// let mut service = Service::new();
/// let open = service
///     .respond(r#"{"cmd":"open","session":"a","n":10,"delta":3,"colorer":"store-all"}"#)
///     .unwrap();
/// assert!(open.contains("\"ok\":true"));
/// let push = service.respond(r#"{"cmd":"push","session":"a","edge":"0-1"}"#).unwrap();
/// assert!(push.contains("\"len\":1"));
/// let observe = service.respond(r#"{"cmd":"observe","session":"a"}"#).unwrap();
/// assert!(observe.contains("\"coloring\""));
/// ```
#[derive(Default)]
pub struct Service {
    /// Tenants keyed by `(owner, name)`. The owner is a connection id
    /// in reactor mode ([`Service::respond_as`]) and 0 everywhere else,
    /// so two reactor connections may both own an `"alpha"` without
    /// sharing a byte of state — exactly the isolation a private
    /// `Service` per connection would give.
    sessions: BTreeMap<(u64, String), Tenant>,
    /// Evicted-session tombstones: commands for an evicted name answer
    /// a "session evicted" error (never a bare "unknown session") until
    /// the client reopens it.
    evicted: BTreeMap<(u64, String), String>,
    max_sessions: Option<usize>,
    /// When true, an `open` at the `max_sessions` cap evicts the
    /// least-recently-used session instead of answering an error — the
    /// reactor's policy.
    lru_eviction: bool,
    /// Monotone command tick driving the LRU order.
    clock: u64,
    /// When set, LRU eviction writes the victim's snapshot blob here
    /// (one `.snap` file per session) and the evicted session's next
    /// command transparently restores it — eviction stops losing state.
    snapshot_dir: Option<PathBuf>,
    counters: HostCounters,
}

impl Service {
    /// An empty host.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds the number of concurrently open sessions: an `open` beyond
    /// the limit is an **error response** (never an abort), so one rogue
    /// client on a shared listener cannot exhaust the host by opening
    /// unbounded named sessions. The limit counts actually-open
    /// sessions: a failed `open` takes no slot, and `finish` frees one.
    /// Stateless commands (`run_job`, `host_stats`) are never limited.
    #[must_use]
    pub fn with_max_sessions(mut self, limit: usize) -> Self {
        self.max_sessions = Some(limit);
        self
    }

    /// Switches the session-limit policy from "error response" to
    /// "evict the least-recently-used session" — the reactor's policy:
    /// an `open` at the [`Service::with_max_sessions`] cap silently
    /// closes the session whose last command is oldest (any owner) and
    /// admits the new one. The evicted session leaves a tombstone, so
    /// its owner's next command answers `session evicted (lru)` —
    /// an error response, never an abort — and reopening the name
    /// clears the tombstone and replays byte-identically.
    #[must_use]
    pub fn with_lru_eviction(mut self) -> Self {
        self.lru_eviction = true;
        self
    }

    /// Upgrades eviction from evict-to-tombstone to **evict-to-disk**:
    /// the LRU victim's snapshot blob is written to
    /// `dir/<owner>-<hex(name)>.snap` and its tombstone reads `disk`
    /// instead of `lru`. The evicted session's *next command* then
    /// transparently restores from the file (deleting it) and proceeds
    /// as if the eviction never happened — byte-identical responses,
    /// per the persistence law. If the snapshot cannot be written (full
    /// disk, un-snapshottable colorer) the eviction falls back to the
    /// plain `lru` tombstone, so the host never aborts.
    ///
    /// Reopening a disk-evicted name discards the stale file, and
    /// [`Service::drop_owner`] reaps the owner's files along with its
    /// tombstones.
    #[must_use]
    pub fn with_snapshot_dir(mut self, dir: PathBuf) -> Self {
        self.snapshot_dir = Some(dir);
        self
    }

    /// Open sessions, in `(owner, name)` order.
    pub fn session_names(&self) -> Vec<&str> {
        self.sessions.keys().map(|(_, name)| name.as_str()).collect()
    }

    /// Host-level lifecycle counters (see [`HostCounters`]).
    pub fn counters(&self) -> HostCounters {
        self.counters
    }

    /// Feeds the connection counters a serving surface owns into the
    /// host (the reactor calls this on every accept and close, so
    /// `host_stats` can report them).
    pub fn record_connections(&mut self, open: u64, accepted: u64) {
        self.counters.connections_open = open;
        self.counters.connections_accepted = accepted;
    }

    /// Drops every session (and eviction tombstone) owned by `owner` —
    /// the reactor calls this when a connection closes, so a dropped
    /// connection takes its tenants with it, as if its private
    /// `Service` had died. Returns the number of sessions dropped.
    pub fn drop_owner(&mut self, owner: u64) -> usize {
        let doomed: Vec<(u64, String)> =
            self.sessions.keys().filter(|(o, _)| *o == owner).cloned().collect();
        for key in &doomed {
            self.sessions.remove(key);
        }
        if let Some(dir) = &self.snapshot_dir {
            for (o, name) in self.evicted.keys() {
                if *o == owner {
                    let _ = std::fs::remove_file(snapshot_path(dir, *o, name));
                }
            }
        }
        self.evicted.retain(|(o, _), _| *o != owner);
        self.counters.sessions_dropped += doomed.len() as u64;
        doomed.len()
    }

    /// Handles one protocol line. Returns `None` for blank lines and
    /// `#` comments, otherwise exactly one canonical response line
    /// (errors are responses too — the protocol never panics on input).
    pub fn respond(&mut self, line: &str) -> Option<String> {
        self.respond_as(0, line)
    }

    /// [`Service::respond`] scoped to an owner: session names resolve
    /// to `(owner, name)`, so every connection multiplexed onto this
    /// host sees its own private namespace. The stdio loop is owner 0.
    pub fn respond_as(&mut self, owner: u64, line: &str) -> Option<String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let (session, obj) = match parse_command(line) {
            Ok(command) => command,
            Err(response) => return Some(encode_object(&response)),
        };
        let cmd = obj.get("cmd").and_then(Scalar::as_str);
        if cmd == Some("host_stats") {
            return Some(encode_object(&self.apply_host_stats(&session, &obj)));
        }
        let key = (owner, session);
        let mut slot = self.sessions.remove(&key);
        let mut had_tenant = slot.is_some();
        let opening = slot.is_none() && cmd == Some("open");
        // A command for an evicted session either restores it
        // transparently from disk (reason "disk") or names the
        // eviction instead of pretending the session never
        // existed; reopening clears the tombstone.
        if slot.is_none() && !opening {
            if let Some(reason) = self.evicted.get(&key).cloned() {
                if reason == "disk" {
                    match self.restore_from_disk(&key) {
                        Ok(tenant) => {
                            // The session is back: treat it as if
                            // it had never left. Re-evict someone
                            // else if that pushed us over the cap.
                            slot = Some(tenant);
                            had_tenant = true;
                            if let Some(cap) = self.max_sessions {
                                if self.lru_eviction && self.sessions.len() >= cap {
                                    self.evict_lru();
                                }
                            }
                        }
                        Err(e) => {
                            let message = format!("session evicted (disk) and restore failed: {e}");
                            return Some(encode_object(&error_response(
                                cmd,
                                Some(&key.1),
                                &message,
                            )));
                        }
                    }
                } else {
                    let message = format!("session evicted ({reason}); reopen it to continue");
                    return Some(encode_object(&error_response(cmd, Some(&key.1), &message)));
                }
            }
        }
        let over_limit =
            self.max_sessions.filter(|cap| opening && self.sessions.len() >= *cap).filter(|cap| {
                if self.lru_eviction {
                    self.evict_lru();
                    self.sessions.len() >= *cap // cap 0: nothing to evict
                } else {
                    true
                }
            });
        let response = match over_limit {
            Some(cap) => {
                let message = format!("session limit reached ({cap} open); finish one first");
                error_response(Some("open"), Some(&key.1), &message)
            }
            None => apply(&mut slot, &key.1, &obj),
        };
        if matches!(response.get("ok"), Some(Scalar::Bool(true))) {
            match cmd {
                Some("snapshot") => self.counters.snapshots += 1,
                Some("restore") => self.counters.restores += 1,
                _ => {}
            }
        }
        match slot {
            Some(mut tenant) => {
                if !had_tenant {
                    self.counters.sessions_opened += 1;
                    self.clear_tombstone(&key);
                }
                self.clock += 1;
                tenant.last_used = self.clock;
                self.sessions.insert(key, tenant);
            }
            None => {
                if had_tenant {
                    self.counters.sessions_finished += 1;
                }
            }
        }
        Some(encode_object(&response))
    }

    /// Evicts the least-recently-used session (any owner). With a
    /// snapshot directory configured the victim's state goes to disk
    /// (tombstone `disk`, transparently restorable); otherwise — or if
    /// the write fails — it leaves a plain `lru` tombstone so its owner
    /// learns the fate from the next response.
    fn evict_lru(&mut self) {
        let Some(key) = self
            .sessions
            .iter()
            .min_by_key(|(_, tenant)| tenant.last_used)
            .map(|(key, _)| key.clone())
        else {
            return;
        };
        let tenant = self.sessions.remove(&key).expect("key came from the map");
        let mut reason = "lru";
        if let Some(dir) = &self.snapshot_dir {
            let saved = std::fs::create_dir_all(dir)
                .map_err(|e| e.to_string())
                .and_then(|()| encode_snapshot_blob(&tenant))
                .and_then(|blob| {
                    std::fs::write(snapshot_path(dir, key.0, &key.1), blob)
                        .map_err(|e| e.to_string())
                });
            if saved.is_ok() {
                reason = "disk";
                self.counters.disk_evictions += 1;
            }
        }
        self.evicted.insert(key, reason.to_string());
        self.counters.sessions_evicted += 1;
    }

    /// Loads, decodes, and deletes a disk-evicted session's snapshot
    /// file, clearing its tombstone. The caller reinserts the tenant.
    fn restore_from_disk(&mut self, key: &(u64, String)) -> Result<Tenant, String> {
        let dir = self.snapshot_dir.as_ref().ok_or("no snapshot directory configured")?;
        let path = snapshot_path(dir, key.0, &key.1);
        let blob = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let tenant = decode_snapshot_blob(&blob)?;
        let _ = std::fs::remove_file(&path);
        self.evicted.remove(key);
        self.counters.disk_restores += 1;
        Ok(tenant)
    }

    /// Clears an eviction tombstone and any stale on-disk snapshot (a
    /// reopen supersedes the evicted state).
    fn clear_tombstone(&mut self, key: &(u64, String)) {
        if self.evicted.remove(key).is_some() {
            if let Some(dir) = &self.snapshot_dir {
                let _ = std::fs::remove_file(snapshot_path(dir, key.0, &key.1));
            }
        }
    }

    /// The `host_stats` command: host-scoped lifecycle counters. The
    /// `"session"` field is only a correlation id (like `run_job`), and
    /// the counters describe the whole host — they sit deliberately
    /// outside the per-session determinism law (documented in
    /// `docs/PROTOCOL.md`).
    fn apply_host_stats(&self, session: &str, obj: &FlatObject) -> FlatObject {
        if let Err(message) = check_keys(obj, &["cmd", "session"]) {
            return error_response(Some("host_stats"), Some(session), &message);
        }
        let mut response = ok_response("host_stats", session);
        let c = self.counters;
        response.insert("sessions_open".into(), Scalar::Uint(self.sessions.len() as u64));
        response.insert("sessions_opened".into(), Scalar::Uint(c.sessions_opened));
        response.insert("sessions_finished".into(), Scalar::Uint(c.sessions_finished));
        response.insert("sessions_evicted".into(), Scalar::Uint(c.sessions_evicted));
        response.insert("sessions_dropped".into(), Scalar::Uint(c.sessions_dropped));
        response.insert("connections_open".into(), Scalar::Uint(c.connections_open));
        response.insert("connections_accepted".into(), Scalar::Uint(c.connections_accepted));
        response.insert("snapshots".into(), Scalar::Uint(c.snapshots));
        response.insert("restores".into(), Scalar::Uint(c.restores));
        response.insert("disk_evictions".into(), Scalar::Uint(c.disk_evictions));
        response.insert("disk_restores".into(), Scalar::Uint(c.disk_restores));
        response
    }

    /// The serving loop behind `streamcolor serve` (stdin or
    /// `--script FILE`): reads protocol lines from `input` through a
    /// [`LineBuf`] (the reactor's framing rules), writes one response
    /// line per command to `output` (flushed per line, so interactive
    /// pipes see answers immediately).
    ///
    /// # Errors
    /// Propagates I/O errors; protocol-level problems, invalid UTF-8 and
    /// an over-long line included, are error *responses*, not `Err`s.
    pub fn serve<R: Read, W: Write + ?Sized>(
        &mut self,
        mut input: R,
        output: &mut W,
    ) -> std::io::Result<()> {
        let mut lines = LineBuf::default();
        loop {
            match lines.answer_next(|line| self.respond(line)) {
                Some(Some(response)) => {
                    writeln!(output, "{response}")?;
                    output.flush()?;
                }
                Some(None) => {}
                None if lines.is_eof() => return Ok(()),
                None => _ = lines.fill(&mut input)?,
            }
        }
    }
}

/// Splits a protocol line into its session name and command object; a
/// line that names no session answers an error response.
fn parse_command(line: &str) -> Result<(String, FlatObject), FlatObject> {
    let obj = parse_object(line).map_err(|e| error_response(None, None, &e))?;
    let cmd = obj.get("cmd").and_then(Scalar::as_str);
    match obj.get("session").and_then(Scalar::as_str) {
        Some(name) if !name.is_empty() => Ok((name.to_string(), obj)),
        Some(_) => Err(error_response(cmd, None, "\"session\" must be a non-empty string")),
        None => Err(error_response(cmd, None, "missing string field \"session\"")),
    }
}

// ---------------------------------------------------------------------
// Per-session command application (pure: a function of the session slot
// and the command object — the determinism law in code).
// ---------------------------------------------------------------------

fn error_response(cmd: Option<&str>, session: Option<&str>, message: &str) -> FlatObject {
    let mut obj = FlatObject::new();
    obj.insert("ok".into(), Scalar::Bool(false));
    obj.insert("error".into(), Scalar::Str(message.to_string()));
    if let Some(cmd) = cmd {
        obj.insert("cmd".into(), Scalar::Str(cmd.to_string()));
    }
    if let Some(session) = session {
        obj.insert("session".into(), Scalar::Str(session.to_string()));
    }
    obj
}

fn ok_response(cmd: &str, session: &str) -> FlatObject {
    let mut obj = FlatObject::new();
    obj.insert("ok".into(), Scalar::Bool(true));
    obj.insert("cmd".into(), Scalar::Str(cmd.to_string()));
    obj.insert("session".into(), Scalar::Str(session.to_string()));
    obj
}

// Field accessors come from `sc_engine::wire` — one vocabulary, one set
// of diagnostics for spec files and protocol lines alike. The only
// service-specific reader is the optional-with-default integer.
use wire::{str_field, usize_field};

fn opt_u64(obj: &FlatObject, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v.as_u64().ok_or(format!("field {key:?} must be a non-negative integer")),
    }
}

/// Errors on any key outside `allowed` (sorted reporting, first wins).
fn check_keys(obj: &FlatObject, allowed: &[&str]) -> Result<(), String> {
    for key in obj.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unknown key {key:?}"));
        }
    }
    Ok(())
}

fn apply(slot: &mut Option<Tenant>, session: &str, obj: &FlatObject) -> FlatObject {
    let cmd = match obj.get("cmd").and_then(Scalar::as_str) {
        Some(cmd) => cmd.to_string(),
        None => return error_response(None, Some(session), "missing string field \"cmd\""),
    };
    let result = match cmd.as_str() {
        "open" => apply_open(slot, obj),
        "push" | "push_batch" => apply_push(slot, obj, &cmd),
        "observe" | "checkpoint" => apply_observe(slot, obj, &cmd),
        "stats" => apply_stats(slot, obj),
        "finish" => apply_finish(slot, obj),
        "snapshot" => apply_snapshot(slot, obj),
        "restore" => apply_restore(slot, obj),
        "run_job" => apply_run_job(obj),
        other => Err(format!(
            "unknown cmd {other:?} (open | push | push_batch | observe | checkpoint | stats | \
             finish | snapshot | restore | run_job | host_stats)"
        )),
    };
    match result {
        Ok(mut response) => {
            response.append(&mut ok_response(&cmd, session));
            response
        }
        Err(message) => error_response(Some(&cmd), Some(session), &message),
    }
}

/// Largest vertex count one `open` may request. Colorers allocate
/// `O(n)` (and up to `O(n · ∆)`) state eagerly at construction; without
/// a bound, a single tenant's `{"n": 10^12}` would abort the whole host
/// on allocation failure — the opposite of the "errors are responses,
/// tenants cannot perturb each other" contract. 2²⁴ vertices is far
/// beyond every experiment in this workspace while keeping worst-case
/// per-session construction in the hundreds of MB, not terabytes.
pub const MAX_SESSION_VERTICES: usize = 1 << 24;

fn apply_open(slot: &mut Option<Tenant>, obj: &FlatObject) -> Result<FlatObject, String> {
    if slot.is_some() {
        return Err("session already open".to_string());
    }
    let n = usize_field(obj, "n")?;
    if n > MAX_SESSION_VERTICES {
        return Err(format!("n = {n} exceeds this host's limit ({MAX_SESSION_VERTICES} vertices)"));
    }
    let delta = match obj.get("delta") {
        None => n.saturating_sub(1).max(1),
        Some(_) => usize_field(obj, "delta")?,
    };
    if delta > n {
        return Err(format!("delta = {delta} exceeds n = {n}"));
    }
    let seed = opt_u64(obj, "seed", 7)?;
    let config = match obj.get("engine") {
        None => EngineConfig::default(),
        Some(_) => EngineConfig::wire_decode(str_field(obj, "engine")?)?,
    };
    let spec = wire::colorer_from_wire(obj)?;
    // Allowed keys = the fixed open vocabulary plus exactly the fields
    // this colorer's canonical wire form uses (same trick as the spec
    // decoder: misspelled parameters error instead of running defaults).
    let mut canonical = FlatObject::new();
    for key in ["cmd", "session", "n", "delta", "seed", "engine"] {
        canonical.insert(key.into(), Scalar::Bool(true));
    }
    wire::colorer_to_wire(&spec, &mut canonical);
    check_keys(obj, &canonical.keys().map(String::as_str).collect::<Vec<_>>())?;

    let colorer = spec.build(n, delta, seed, None)?;
    let mut response = FlatObject::new();
    response.insert("algo".into(), Scalar::Str(colorer.name().to_string()));
    response.insert("n".into(), Scalar::Uint(n as u64));
    *slot =
        Some(Tenant { n, delta, seed, spec, session: Session::new(colorer, config), last_used: 0 });
    Ok(response)
}

fn apply_push(
    slot: &mut Option<Tenant>,
    obj: &FlatObject,
    cmd: &str,
) -> Result<FlatObject, String> {
    let tenant = slot.as_mut().ok_or("unknown session (open it first)")?;
    let tokens = if cmd == "push" {
        check_keys(obj, &["cmd", "session", "edge", "sign"])?;
        let edges = sc_stream::decode_edges(str_field(obj, "edge")?, Some(tenant.n))?;
        if edges.len() != 1 {
            return Err(format!("push takes exactly one edge, got {}", edges.len()));
        }
        let sign = match obj.get("sign") {
            None => sc_stream::Sign::Insert,
            Some(v) => match v.as_str() {
                Some("insert") => sc_stream::Sign::Insert,
                Some("delete") => sc_stream::Sign::Delete,
                Some(other) => {
                    return Err(format!(
                        "field \"sign\" must be \"insert\" or \"delete\", got {other:?}"
                    ))
                }
                None => return Err("field \"sign\" must be a string".into()),
            },
        };
        vec![sc_stream::SignedEdge { edge: edges[0], sign }]
    } else {
        check_keys(obj, &["cmd", "session", "edges"])?;
        sc_stream::decode_signed_list(str_field(obj, "edges")?, tenant.n)?
    };
    // Atomic: the session validates the whole batch (support
    // multiplicities, insert-only colorers) before staging anything, so
    // an Err here leaves the tenant byte-identical to before the command.
    tenant.session.push_signed_slice(&tokens)?;
    let mut response = FlatObject::new();
    response.insert("len".into(), Scalar::Uint(tenant.session.len() as u64));
    response.insert("pushed".into(), Scalar::Uint(tokens.len() as u64));
    Ok(response)
}

fn apply_observe(
    slot: &mut Option<Tenant>,
    obj: &FlatObject,
    cmd: &str,
) -> Result<FlatObject, String> {
    check_keys(obj, &["cmd", "session"])?;
    let tenant = slot.as_mut().ok_or("unknown session (open it first)")?;
    let cp =
        if cmd == "checkpoint" { tenant.session.checkpoint() } else { tenant.session.observe() };
    let mut response = FlatObject::new();
    response.insert("prefix".into(), Scalar::Uint(cp.prefix_len as u64));
    response.insert("colors".into(), Scalar::Uint(cp.colors as u64));
    response.insert("space_bits".into(), Scalar::Uint(cp.space_bits));
    response.insert("coloring".into(), Scalar::Str(coloring_string(&cp.coloring)));
    if cmd == "checkpoint" {
        response.insert("recorded".into(), Scalar::Uint(tenant.session.checkpoints().len() as u64));
    }
    Ok(response)
}

fn apply_stats(slot: &mut Option<Tenant>, obj: &FlatObject) -> Result<FlatObject, String> {
    check_keys(obj, &["cmd", "session"])?;
    let tenant = slot.as_ref().ok_or("unknown session (open it first)")?;
    let mut response = FlatObject::new();
    response.insert("algo".into(), Scalar::Str(tenant.session.algo().to_string()));
    response.insert("edges".into(), Scalar::Uint(tenant.session.len() as u64));
    response.insert("pending".into(), Scalar::Uint(tenant.session.pending() as u64));
    response.insert("chunks".into(), Scalar::Uint(tenant.session.chunks() as u64));
    response.insert("checkpoints".into(), Scalar::Uint(tenant.session.checkpoints().len() as u64));
    response.insert("space_bits".into(), Scalar::Uint(tenant.session.peak_space_bits()));
    match tenant.session.query_cache_stats() {
        Some(stats) => {
            response.insert("cache_hits".into(), Scalar::Uint(stats.hits));
            response.insert("cache_patches".into(), Scalar::Uint(stats.patches));
            response.insert("cache_misses".into(), Scalar::Uint(stats.misses));
            response.insert("cache_invalidations".into(), Scalar::Uint(stats.invalidations));
            response.insert("cache_patched_vertices".into(), Scalar::Uint(stats.patched_vertices));
        }
        None => {
            response.insert("cache".into(), Scalar::Str("none".into()));
        }
    }
    Ok(response)
}

// ---------------------------------------------------------------------
// Session snapshots: one canonical flat-JSON blob carrying everything a
// fresh host needs to resume the session byte-identically — the spec
// vocabulary to rebuild the colorer, the colorer's own state string,
// and the engine position (pending tail, counts, checkpoint history).
// ---------------------------------------------------------------------

/// Where a disk-evicted session's blob lives: the owner id plus the
/// hex-encoded session name (names are arbitrary strings; hex keeps the
/// file name filesystem-safe and collision-free).
fn snapshot_path(dir: &Path, owner: u64, name: &str) -> PathBuf {
    let mut hex = String::with_capacity(name.len() * 2);
    for b in name.as_bytes() {
        hex.push_str(&format!("{b:02x}"));
    }
    dir.join(format!("{owner}-{hex}.snap"))
}

/// Serializes a tenant into the snapshot blob (a canonical flat-JSON
/// object). Non-destructive: the tenant continues unchanged.
fn encode_snapshot_blob(tenant: &Tenant) -> Result<String, String> {
    let snap = tenant.session.snapshot()?;
    let mut obj = FlatObject::new();
    obj.insert("kind".into(), Scalar::Str("session-snapshot".into()));
    obj.insert("n".into(), Scalar::Uint(tenant.n as u64));
    obj.insert("delta".into(), Scalar::Uint(tenant.delta as u64));
    obj.insert("seed".into(), Scalar::Uint(tenant.seed));
    wire::colorer_to_wire(&tenant.spec, &mut obj);
    obj.insert("engine".into(), Scalar::Str(snap.config.wire_encode()));
    obj.insert("algo".into(), Scalar::Str(tenant.session.algo().to_string()));
    obj.insert("state".into(), Scalar::Str(snap.colorer_state));
    obj.insert("pending".into(), Scalar::Str(sc_stream::encode_signed_list(&snap.pending)));
    obj.insert("ingested".into(), Scalar::Uint(snap.ingested as u64));
    obj.insert("chunks".into(), Scalar::Uint(snap.chunks as u64));
    obj.insert("checkpoints".into(), Scalar::Str(sc_stream::encode_checkpoints(&snap.checkpoints)));
    // The live-edge multiset travels only for dynamic colorers, so
    // insert-only snapshot blobs keep their settled vocabulary.
    if let Some(support) = &snap.support {
        obj.insert("support".into(), Scalar::Str(support.encode()));
    }
    Ok(encode_object(&obj))
}

/// Rebuilds a tenant from a snapshot blob: the colorer is constructed
/// fresh from the blob's spec vocabulary (same `n`, `∆`, seed — the
/// randomness is re-derived, never serialized) and its state string is
/// replayed into it, validated rather than trusted. Every malformed
/// field answers an error naming the offender.
fn decode_snapshot_blob(blob: &str) -> Result<Tenant, String> {
    let obj = parse_object(blob).map_err(|e| format!("snapshot: {e}"))?;
    match obj.get("kind").and_then(Scalar::as_str) {
        Some("session-snapshot") => {}
        Some(other) => {
            return Err(format!("snapshot: kind {other:?} is not \"session-snapshot\""));
        }
        None => return Err("snapshot: missing string field \"kind\"".to_string()),
    }
    let fail = |e: String| format!("snapshot: {e}");
    let n = usize_field(&obj, "n").map_err(fail)?;
    if n > MAX_SESSION_VERTICES {
        return Err(format!(
            "snapshot: n = {n} exceeds this host's limit ({MAX_SESSION_VERTICES} vertices)"
        ));
    }
    let delta = usize_field(&obj, "delta").map_err(fail)?;
    if delta > n {
        return Err(format!("snapshot: delta = {delta} exceeds n = {n}"));
    }
    let seed = obj
        .get("seed")
        .and_then(Scalar::as_u64)
        .ok_or("snapshot: field \"seed\" must be a non-negative integer")?;
    let config = EngineConfig::wire_decode(str_field(&obj, "engine").map_err(fail)?)
        .map_err(|e| format!("snapshot: engine: {e}"))?;
    let spec = wire::colorer_from_wire(&obj).map_err(fail)?;
    // Same unknown-key discipline as `open`: the allowed keys are the
    // fixed snapshot vocabulary plus exactly this spec's wire fields.
    let mut canonical = FlatObject::new();
    for key in [
        "kind",
        "n",
        "delta",
        "seed",
        "engine",
        "algo",
        "state",
        "pending",
        "ingested",
        "chunks",
        "checkpoints",
        "support",
    ] {
        canonical.insert(key.into(), Scalar::Bool(true));
    }
    wire::colorer_to_wire(&spec, &mut canonical);
    check_keys(&obj, &canonical.keys().map(String::as_str).collect::<Vec<_>>()).map_err(fail)?;

    let colorer = spec.build(n, delta, seed, None).map_err(fail)?;
    let algo = str_field(&obj, "algo").map_err(fail)?;
    if algo != colorer.name() {
        return Err(format!("snapshot: algo {algo:?} is not {:?}", colorer.name()));
    }
    let pending = sc_stream::decode_signed_list(str_field(&obj, "pending").map_err(fail)?, n)
        .map_err(|e| format!("snapshot: pending: {e}"))?;
    let ingested = usize_field(&obj, "ingested").map_err(fail)?;
    let chunks = usize_field(&obj, "chunks").map_err(fail)?;
    let checkpoints =
        sc_stream::decode_checkpoints(str_field(&obj, "checkpoints").map_err(fail)?, n, ingested)
            .map_err(|e| format!("snapshot: checkpoints: {e}"))?;
    // Optional: present exactly for dynamic colorers (Session::restore
    // rejects a mismatch, naming the colorer).
    let support = match obj.get("support") {
        Some(s) => {
            let text = s.as_str().ok_or("snapshot: field \"support\" must be a string")?;
            Some(DynamicSupport::decode(text, n).map_err(|e| format!("snapshot: support: {e}"))?)
        }
        None => None,
    };
    let snapshot = SessionSnapshot {
        config,
        pending,
        ingested,
        chunks,
        checkpoints,
        support,
        colorer_state: str_field(&obj, "state").map_err(fail)?.to_string(),
    };
    let session = Session::restore(colorer, snapshot).map_err(|e| format!("snapshot: {e}"))?;
    Ok(Tenant { n, delta, seed, spec, session, last_used: 0 })
}

/// The `snapshot` command: answers the session's blob in the
/// `"snapshot"` field. Non-destructive — the session keeps running, so
/// migration can copy first and drop later.
fn apply_snapshot(slot: &mut Option<Tenant>, obj: &FlatObject) -> Result<FlatObject, String> {
    check_keys(obj, &["cmd", "session"])?;
    let tenant = slot.as_ref().ok_or("unknown session (open it first)")?;
    let blob = encode_snapshot_blob(tenant)?;
    let mut response = FlatObject::new();
    response.insert("edges".into(), Scalar::Uint(tenant.session.len() as u64));
    response.insert("pending".into(), Scalar::Uint(tenant.session.pending() as u64));
    response.insert("snapshot".into(), Scalar::Str(blob));
    Ok(response)
}

/// The `restore` command: opens the session from a snapshot blob. The
/// restored session answers byte-identically to the uninterrupted
/// original from this point on (the persistence law).
fn apply_restore(slot: &mut Option<Tenant>, obj: &FlatObject) -> Result<FlatObject, String> {
    if slot.is_some() {
        return Err("session already open".to_string());
    }
    check_keys(obj, &["cmd", "session", "snapshot"])?;
    let tenant = decode_snapshot_blob(str_field(obj, "snapshot")?)?;
    let mut response = FlatObject::new();
    response.insert("algo".into(), Scalar::Str(tenant.session.algo().to_string()));
    response.insert("n".into(), Scalar::Uint(tenant.n as u64));
    response.insert("edges".into(), Scalar::Uint(tenant.session.len() as u64));
    *slot = Some(tenant);
    Ok(response)
}

/// The stateless cluster-worker command: runs one deterministic shard
/// slice of a [`ShardJob`] spec and answers with the worker-output file
/// as a string. Ignores (and never perturbs) any tenant session sharing
/// the correlation name.
fn apply_run_job(obj: &FlatObject) -> Result<FlatObject, String> {
    check_keys(obj, &["cmd", "session", "spec", "shard", "of"])?;
    let of = usize_field(obj, "of")?;
    if of == 0 {
        return Err("\"of\" must be at least 1".to_string());
    }
    let shard = usize_field(obj, "shard")?;
    if shard >= of {
        return Err(format!("shard {shard} out of range for of {of}"));
    }
    let job = ShardJob::decode(str_field(obj, "spec")?).map_err(|e| format!("spec: {e}"))?;
    job.check_runnable().map_err(|e| format!("spec: {e}"))?;
    let range = sc_engine::shard::shard_range(job.len(), shard, of);
    let outcome = sc_engine::shard::run_job(&Runner::sequential(), &job, range);
    let mut response = FlatObject::new();
    response.insert("shard".into(), Scalar::Uint(shard as u64));
    response.insert("of".into(), Scalar::Uint(of as u64));
    response.insert("items".into(), Scalar::Uint(job.len() as u64));
    response.insert(
        "output".into(),
        Scalar::Str(sc_engine::shard::encode_worker_output(shard, of, &outcome)),
    );
    Ok(response)
}

fn apply_finish(slot: &mut Option<Tenant>, obj: &FlatObject) -> Result<FlatObject, String> {
    check_keys(obj, &["cmd", "session"])?;
    let tenant = slot.take().ok_or("unknown session (open it first)")?;
    let report = tenant.session.finish();
    let mut response = FlatObject::new();
    response.insert("edges".into(), Scalar::Uint(report.edges as u64));
    response.insert("chunks".into(), Scalar::Uint(report.chunks as u64));
    response
        .insert("colors".into(), Scalar::Uint(report.final_coloring.num_distinct_colors() as u64));
    response.insert("space_bits".into(), Scalar::Uint(report.peak_space_bits));
    response.insert("checkpoints".into(), Scalar::Uint(report.checkpoints.len() as u64));
    response.insert("coloring".into(), Scalar::Str(coloring_string(&report.final_coloring)));
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_graph::{generators, Coloring, Graph};

    fn run_job_line(session: &str, job: &ShardJob, shard: usize, of: usize) -> String {
        let mut line = FlatObject::new();
        line.insert("cmd".into(), Scalar::Str("run_job".into()));
        line.insert("session".into(), Scalar::Str(session.into()));
        line.insert("spec".into(), Scalar::Str(job.encode()));
        line.insert("shard".into(), Scalar::Uint(shard as u64));
        line.insert("of".into(), Scalar::Uint(of as u64));
        encode_object(&line)
    }

    fn open_line(session: &str, n: usize, delta: usize, colorer: &str, seed: u64) -> String {
        format!(
            r#"{{"cmd":"open","session":"{session}","n":{n},"delta":{delta},"colorer":"{colorer}","seed":{seed}}}"#
        )
    }

    #[test]
    fn open_push_observe_finish_lifecycle() {
        let mut service = Service::new();
        let open = service.respond(&open_line("a", 20, 4, "store-all", 1)).unwrap();
        assert!(open.contains("\"ok\":true") && open.contains("\"algo\":\"store-all\""), "{open}");

        let g = generators::gnp_with_max_degree(20, 4, 0.4, 3);
        let edges: Vec<_> = g.edges().collect();
        for (i, e) in edges.iter().enumerate() {
            let push = service
                .respond(&format!(r#"{{"cmd":"push","session":"a","edge":"{}-{}"}}"#, e.u(), e.v()))
                .unwrap();
            assert!(push.contains(&format!("\"len\":{}", i + 1)), "{push}");
        }
        let observe = service.respond(r#"{"cmd":"observe","session":"a"}"#).unwrap();
        let obj = parse_object(&observe).unwrap();
        assert_eq!(obj["prefix"].as_u64(), Some(edges.len() as u64));
        let coloring = parse_coloring(obj["coloring"].as_str().unwrap(), 20).unwrap();
        assert!(coloring.is_proper_total(&g), "service coloring must be proper");

        let finish = service.respond(r#"{"cmd":"finish","session":"a"}"#).unwrap();
        assert!(finish.contains("\"ok\":true"), "{finish}");
        assert!(service.session_names().is_empty(), "finish closes the session");
        let again = service.respond(r#"{"cmd":"observe","session":"a"}"#).unwrap();
        assert!(again.contains("unknown session"), "{again}");
    }

    #[test]
    fn many_sessions_are_independent_tenants() {
        let mut service = Service::new();
        for (name, colorer) in [("alpha", "robust"), ("beta", "store-all"), ("gamma", "trivial")] {
            let open = service.respond(&open_line(name, 30, 5, colorer, 9)).unwrap();
            assert!(open.contains("\"ok\":true"), "{open}");
        }
        assert_eq!(service.session_names(), vec!["alpha", "beta", "gamma"]);
        // Interleaved pushes to different tenants.
        let g = generators::gnp_with_max_degree(30, 5, 0.4, 4);
        for e in g.edges() {
            for name in ["alpha", "beta", "gamma"] {
                let push = service
                    .respond(&format!(
                        r#"{{"cmd":"push","session":"{name}","edge":"{}-{}"}}"#,
                        e.u(),
                        e.v()
                    ))
                    .unwrap();
                assert!(push.contains("\"ok\":true"), "{push}");
            }
        }
        for name in ["alpha", "beta", "gamma"] {
            let observe =
                service.respond(&format!(r#"{{"cmd":"observe","session":"{name}"}}"#)).unwrap();
            let obj = parse_object(&observe).unwrap();
            let coloring = parse_coloring(obj["coloring"].as_str().unwrap(), 30).unwrap();
            assert!(coloring.is_proper_total(&g), "{name}");
        }
    }

    #[test]
    fn stats_surface_space_and_query_cache_counters() {
        let mut service = Service::new();
        service.respond(&open_line("s", 20, 4, "store-all", 1)).unwrap();
        service.respond(r#"{"cmd":"push_batch","session":"s","edges":"0-1 1-2 2-3"}"#).unwrap();
        service.respond(r#"{"cmd":"observe","session":"s"}"#).unwrap();
        service.respond(r#"{"cmd":"observe","session":"s"}"#).unwrap();
        let stats = service.respond(r#"{"cmd":"stats","session":"s"}"#).unwrap();
        let obj = parse_object(&stats).unwrap();
        assert_eq!(obj["edges"].as_u64(), Some(3));
        assert!(obj["space_bits"].as_u64().unwrap() > 0);
        // store-all has an incremental path: two queries, second is a hit.
        assert_eq!(obj["cache_hits"].as_u64(), Some(1), "{stats}");
        assert_eq!(obj["cache_misses"].as_u64(), Some(1), "{stats}");
        // No patch ran, so the patch-depth counter must surface as 0.
        assert_eq!(obj["cache_patched_vertices"].as_u64(), Some(0), "{stats}");

        // A colorer without an incremental path reports cache: none.
        service.respond(&open_line("t", 10, 3, "trivial", 1)).unwrap();
        let stats = service.respond(r#"{"cmd":"stats","session":"t"}"#).unwrap();
        assert!(stats.contains("\"cache\":\"none\""), "{stats}");
    }

    #[test]
    fn scheduled_checkpoints_fire_inside_service_sessions() {
        let mut service = Service::new();
        let open = r#"{"cmd":"open","session":"cp","n":20,"delta":4,"colorer":"store-all","engine":"chunk=2;schedule=every:3;incremental=true"}"#;
        assert!(service.respond(open).unwrap().contains("\"ok\":true"));
        let g = generators::gnp_with_max_degree(20, 4, 0.5, 8);
        let edges = wire::encode_edges(g.edges());
        service
            .respond(&format!(r#"{{"cmd":"push_batch","session":"cp","edges":"{edges}"}}"#))
            .unwrap();
        let stats = service.respond(r#"{"cmd":"stats","session":"cp"}"#).unwrap();
        let obj = parse_object(&stats).unwrap();
        assert_eq!(obj["checkpoints"].as_u64(), Some(g.m() as u64 / 3), "{stats}");
        let finish = service.respond(r#"{"cmd":"finish","session":"cp"}"#).unwrap();
        let obj = parse_object(&finish).unwrap();
        assert_eq!(obj["edges"].as_u64(), Some(g.m() as u64));
    }

    #[test]
    fn protocol_errors_are_responses_never_panics() {
        let mut service = Service::new();
        for (line, needle) in [
            ("{", "expected"), // malformed JSON
            (r#"{"cmd":"open"}"#, "missing string field"),
            (r#"{"cmd":"open","session":""}"#, "non-empty"),
            (r#"{"session":"x"}"#, "missing string field"),
            (r#"{"cmd":"paint","session":"x"}"#, "unknown cmd"),
            (r#"{"cmd":"push","session":"x","edge":"0-1"}"#, "unknown session"),
            (r#"{"cmd":"open","session":"x","n":10,"colorer":"quantum"}"#, "unknown colorer"),
            (
                r#"{"cmd":"open","session":"x","n":10,"colorer":"batch-greedy"}"#,
                "not a single-pass",
            ),
            (r#"{"cmd":"open","session":"x","n":10,"colorer":"bcg20","epsilon":0.5}"#, "bcg20"),
            (
                r#"{"cmd":"open","session":"x","n":10,"colorer":"robust","betaa":0.5}"#,
                "unknown key",
            ),
            (r#"{"cmd":"open","session":"x","colorer":"robust"}"#, "missing integer field"),
            (
                r#"{"cmd":"open","session":"x","n":"ten","colorer":"robust"}"#,
                "must be a non-negative integer",
            ),
            // A rogue tenant cannot abort the host with a giant open:
            // size limits are error responses, not allocation failures.
            (
                r#"{"cmd":"open","session":"x","n":200000000000,"colorer":"store-all"}"#,
                "exceeds this host's limit",
            ),
            (
                r#"{"cmd":"open","session":"x","n":10,"delta":11,"colorer":"store-all"}"#,
                "exceeds n",
            ),
            (
                r#"{"cmd":"open","session":"x","n":10,"colorer":"robust","beta":2.0}"#,
                r#"field \"beta\" = 2 must lie in [0, 1]"#,
            ),
            (
                r#"{"cmd":"open","session":"x","n":10,"colorer":"robust","beta":-0.5}"#,
                r#"field \"beta\" = -0.5 must lie in [0, 1]"#,
            ),
        ] {
            let response = service.respond(line).unwrap();
            assert!(
                response.contains("\"ok\":false") && response.contains(needle),
                "{line} -> {response}"
            );
        }
        // Session-level errors after open.
        service.respond(r#"{"cmd":"open","session":"x","n":10,"colorer":"store-all"}"#).unwrap();
        for (line, needle) in [
            (r#"{"cmd":"open","session":"x","n":10,"colorer":"store-all"}"#, "already open"),
            (r#"{"cmd":"push","session":"x","edge":"3-3"}"#, "self-loop"),
            (r#"{"cmd":"push","session":"x","edge":"5-99"}"#, "out of range"),
            (r#"{"cmd":"push","session":"x","edge":"0-1 2-3"}"#, "exactly one edge"),
            (
                r#"{"cmd":"push_batch","session":"x","edges":"3-3"}"#,
                r#"token \"3-3\": edge \"3-3\" is a self-loop"#,
            ),
            (r#"{"cmd":"push","session":"x","edge":"0-1","extra":1}"#, "unknown key"),
            (r#"{"cmd":"observe","session":"x","extra":1}"#, "unknown key"),
        ] {
            let response = service.respond(line).unwrap();
            assert!(
                response.contains("\"ok\":false") && response.contains(needle),
                "{line} -> {response}"
            );
        }
        // Blank lines and comments produce no response.
        assert!(service.respond("").is_none());
        assert!(service.respond("   ").is_none());
        assert!(service.respond("# comment").is_none());
    }

    #[test]
    fn signed_push_errors_name_the_offender_and_leave_state_intact() {
        let mut service = Service::new();
        service
            .respond(r#"{"cmd":"open","session":"d","n":12,"delta":3,"colorer":"dynamic-sr"}"#)
            .unwrap();
        service
            .respond(r#"{"cmd":"open","session":"s","n":12,"delta":3,"colorer":"robust"}"#)
            .unwrap();
        for session in ["d", "s"] {
            let line = format!(r#"{{"cmd":"push","session":"{session}","edge":"0-1"}}"#);
            assert!(service.respond(&line).unwrap().contains("\"ok\":true"));
        }
        let before_d = service.respond(r#"{"cmd":"observe","session":"d"}"#).unwrap();
        let before_s = service.respond(r#"{"cmd":"observe","session":"s"}"#).unwrap();

        for (line, needle) in [
            // Turnstile misuse through both signed vocabularies: the
            // error names the edge…
            (
                r#"{"cmd":"push","session":"d","edge":"4-5","sign":"delete"}"#,
                "delete of edge (4, 5) which was never inserted",
            ),
            (
                r#"{"cmd":"push_batch","session":"d","edges":"-7-8"}"#,
                "delete of edge (7, 8) which was never inserted",
            ),
            // …a deletion aimed at an insert-only colorer names the
            // colorer…
            (
                r#"{"cmd":"push","session":"s","edge":"0-1","sign":"delete"}"#,
                "insert-only colorer cannot delete edge (0, 1)",
            ),
            // …and a malformed sign field names the field and the value.
            (
                r#"{"cmd":"push","session":"d","edge":"0-1","sign":"sideways"}"#,
                r#"field \"sign\" must be \"insert\" or \"delete\", got \"sideways\""#,
            ),
            (
                r#"{"cmd":"push","session":"d","edge":"0-1","sign":7}"#,
                r#"field \"sign\" must be a string"#,
            ),
            // A valid deletion buried in a bad batch must not apply:
            // signed batches are atomic.
            (
                r#"{"cmd":"push_batch","session":"d","edges":"-0-1 -0-1"}"#,
                "delete of edge (0, 1) which was never inserted",
            ),
        ] {
            let response = service.respond(line).unwrap();
            assert!(
                response.contains("\"ok\":false") && response.contains(needle),
                "{line} -> {response}"
            );
        }

        // Every rejected line left the tenant byte-identical.
        assert_eq!(service.respond(r#"{"cmd":"observe","session":"d"}"#).unwrap(), before_d);
        assert_eq!(service.respond(r#"{"cmd":"observe","session":"s"}"#).unwrap(), before_s);
    }

    #[test]
    fn run_job_answers_with_the_worker_output_file() {
        use sc_engine::shard::{self, ShardOutcome};
        use sc_engine::{ColorerSpec, Scenario, SourceSpec};
        let job = ShardJob::Grid(vec![
            Scenario::new(SourceSpec::exact_degree(30, 3, 1), ColorerSpec::Trivial),
            Scenario::new(SourceSpec::exact_degree(30, 3, 2), ColorerSpec::StoreAll),
            Scenario::new(SourceSpec::exact_degree(30, 3, 3), ColorerSpec::OfflineGreedy),
        ]);
        let mut service = Service::new();
        let mut parts = Vec::new();
        for shard in 0..2usize {
            let response =
                service.respond(&run_job_line(&format!("shard-{shard}"), &job, shard, 2)).unwrap();
            let obj = parse_object(&response).unwrap();
            assert_eq!(obj["ok"].as_bool(), Some(true), "{response}");
            assert_eq!(obj["items"].as_u64(), Some(3));
            let (s, of, outcome) =
                shard::decode_worker_output(obj["output"].as_str().unwrap()).unwrap();
            assert_eq!((s, of), (shard, 2));
            parts.push(outcome);
        }
        // The stateless command opened nothing…
        assert!(service.session_names().is_empty());
        // …and the merged parts reproduce the in-process run exactly.
        let merged = ShardOutcome::merge(parts).unwrap();
        assert_eq!(merged.encode(), shard::run_in_process(&job, 1).unwrap().encode());
    }

    #[test]
    fn run_job_rejects_malformed_requests_as_responses() {
        let mut service = Service::new();
        for (line, needle) in [
            (r#"{"cmd":"run_job","session":"j","spec":"[]\n","shard":0,"of":0}"#, "at least 1"),
            (r#"{"cmd":"run_job","session":"j","spec":"[]\n","shard":3,"of":2}"#, "out of range"),
            (r#"{"cmd":"run_job","session":"j","spec":"{bad","shard":0,"of":1}"#, "spec:"),
            (r#"{"cmd":"run_job","session":"j","shard":0,"of":1}"#, "missing string field"),
            (
                r#"{"cmd":"run_job","session":"j","spec":"[]\n","shard":0,"of":1,"x":1}"#,
                "unknown key",
            ),
            // The slice runs on one thread; there is no thread knob.
            (
                r#"{"cmd":"run_job","session":"j","spec":"[]\n","shard":0,"of":1,"threads":4}"#,
                "unknown key \\\"threads\\\"",
            ),
        ] {
            let response = service.respond(line).unwrap();
            assert!(
                response.contains("\"ok\":false") && response.contains(needle),
                "{line} -> {response}"
            );
        }
        // run_job neither needs nor disturbs a tenant of the same name.
        service.respond(r#"{"cmd":"open","session":"j","n":10,"colorer":"store-all"}"#).unwrap();
        service.respond(r#"{"cmd":"push","session":"j","edge":"0-1"}"#).unwrap();
        let response = service.respond(&run_job_line("j", &ShardJob::Grid(Vec::new()), 0, 1));
        assert!(response.unwrap().contains("\"ok\":true"));
        let stats = service.respond(r#"{"cmd":"stats","session":"j"}"#).unwrap();
        assert!(stats.contains("\"edges\":1"), "tenant perturbed: {stats}");
    }

    #[test]
    fn client_chosen_sizes_are_answered_never_allocated() {
        // `"of"` and the engine chunk size are client input: neither may
        // size an allocation, so both requests are answered and the host
        // answers the next line too.
        let mut service = Service::new();
        for line in [
            r#"{"cmd":"run_job","session":"j","spec":"[{\"kind\":\"shard-job\",\"payload\":\"grid\"}]","shard":0,"of":1000000000000}"#,
            r#"{"cmd":"host_stats","session":"h"}"#,
            r#"{"cmd":"open","session":"a","n":4,"colorer":"store-all","engine":"chunk=1000000000000;schedule=final;incremental=true"}"#,
            r#"{"cmd":"push","session":"a","edge":"0-1"}"#,
            r#"{"cmd":"observe","session":"a"}"#,
        ] {
            let response = service.respond(line).unwrap();
            assert!(response.contains("\"ok\":true"), "{line} -> {response}");
        }
    }

    #[test]
    fn run_job_refuses_unplayable_attacks_and_the_host_keeps_serving() {
        use sc_engine::{AdversarySpec, AttackScenario};
        let replay = |edges: &[(u32, u32)]| {
            AdversarySpec::Replay(std::sync::Arc::new(
                edges.iter().map(|&(u, v)| sc_graph::Edge::new(u, v)).collect(),
            ))
        };
        let mut service = Service::new();
        service.respond(&open_line("t", 10, 3, "store-all", 1)).unwrap();
        service.respond(r#"{"cmd":"push","session":"t","edge":"0-1"}"#).unwrap();
        for (victim, adversary, needle) in [
            (ColorerSpec::Bcg20 { epsilon: 0.5 }, AdversarySpec::Monochromatic, "bcg20"),
            (ColorerSpec::Det(Default::default()), AdversarySpec::Monochromatic, "Thm 1"),
            (ColorerSpec::Brooks, AdversarySpec::Random, "Brooks"),
            (ColorerSpec::Robust { beta: None }, AdversarySpec::Oscillation, "insert-only"),
            (ColorerSpec::Robust { beta: None }, replay(&[(0, 1), (2, 3), (0, 1)]), "repeats"),
            (ColorerSpec::Robust { beta: None }, replay(&[(0, 1), (3, 20)]), "out of range"),
        ] {
            let scenario = AttackScenario::new(victim, adversary, 20, 4).with_rounds(10);
            let job = ShardJob::Attack { scenario, trials: 2 };
            let response = service.respond(&run_job_line("j", &job, 0, 1)).unwrap();
            assert!(
                response.contains("\"ok\":false") && response.contains(needle),
                "{needle}: {response}"
            );
        }
        let stats = service.respond(r#"{"cmd":"stats","session":"t"}"#).unwrap();
        assert!(stats.contains("\"ok\":true") && stats.contains("\"edges\":1"), "{stats}");
    }

    #[test]
    fn run_job_refuses_unrunnable_grids_and_the_host_keeps_serving() {
        use sc_engine::{GraphFamily, Scenario, SourceSpec};
        use streamcolor::{DerandStrategy, DetConfig};
        let family = |family, n, delta| SourceSpec::Family { family, n, delta, p: 0.3, seed: 1 };
        let det = |derand| ColorerSpec::Det(DetConfig { derand, ..DetConfig::default() });
        let mut service = Service::new();
        service.respond(&open_line("t", 10, 3, "store-all", 1)).unwrap();
        service.respond(r#"{"cmd":"push","session":"t","edge":"0-1"}"#).unwrap();
        let runnable = Scenario::new(
            SourceSpec::churn(30, 4, 1, 2),
            ColorerSpec::DynamicSr { sparsity: None },
        );
        for (source, colorer, needle) in [
            (SourceSpec::churn(30, 4, 1, 2), ColorerSpec::StoreAll, "insert-only"),
            (SourceSpec::churn(30, 4, 1, 2), ColorerSpec::BatchGreedy, "single-pass"),
            (SourceSpec::sliding_window(30, 4, 1, 20), ColorerSpec::Cgs22, "insert-only"),
            (SourceSpec::churn(30, 4, 1, 2), ColorerSpec::Det(Default::default()), "Thm 1"),
            (family(GraphFamily::Cycle, 2, 2), ColorerSpec::StoreAll, "family cycle needs n ≥ 3"),
            (SourceSpec::exact_degree(4, 4, 1), ColorerSpec::StoreAll, "family exact needs"),
            (family(GraphFamily::Circulant, 4, 4), ColorerSpec::StoreAll, "family circulant"),
            (SourceSpec::gnp(30, 4, 2.0, 1), ColorerSpec::StoreAll, r#"field \"p\" = 2 must"#),
            (
                SourceSpec::gnp(30, 4, 0.3, 1),
                ColorerSpec::Bcg20 { epsilon: -1.0 },
                r#"field \"epsilon\" = -1 must be"#,
            ),
            // A client-sized Theorem 1 tournament would hold the host for
            // minutes: both knobs are capped at 2^16 functions per pass.
            (SourceSpec::gnp(200, 8, 0.1, 1), det(DerandStrategy::FullFamily), r#"\"derand\""#),
            // The bipartite family's vertex count is a + b, not n.
            (
                family(GraphFamily::Bipartite { a: 1000, b: 1000 }, 2, 8),
                det(DerandStrategy::FullFamily),
                r#"field \"derand\" = \"full\""#,
            ),
            (
                family(GraphFamily::CliqueUnion { k: 100, size: 20 }, 2, 8),
                det(DerandStrategy::Grid { l: 257 }),
                r#"field \"grid_l\" = 257"#,
            ),
            (
                SourceSpec::gnp(200, 8, 0.1, 1),
                det(DerandStrategy::Grid { l: 1_000_000 }),
                r#"field \"grid_l\" = 1000000"#,
            ),
        ] {
            // One bad scenario refuses the whole spec, named by index.
            let job = ShardJob::Grid(vec![runnable.clone(), Scenario::new(source, colorer)]);
            let response = service.respond(&run_job_line("j", &job, 0, 1)).unwrap();
            assert!(
                response.contains("\"ok\":false")
                    && response.contains("scenario 1")
                    && response.contains(needle),
                "{needle}: {response}"
            );
        }
        // A deletion-supporting colorer still runs its dynamic grid, a
        // Theorem 1 grid at the cap runs, and so does one on no vertices.
        let capped =
            Scenario::new(SourceSpec::gnp(12, 3, 0.3, 1), det(DerandStrategy::Grid { l: 256 }));
        let empty =
            Scenario::new(SourceSpec::gnp(0, 3, 0.3, 1), det(DerandStrategy::Grid { l: 16 }));
        let job = ShardJob::Grid(vec![runnable, capped, empty]);
        let response = service.respond(&run_job_line("j", &job, 0, 1)).unwrap();
        assert!(response.contains("\"ok\":true"), "{response}");
        let stats = service.respond(r#"{"cmd":"stats","session":"t"}"#).unwrap();
        assert!(stats.contains("\"ok\":true") && stats.contains("\"edges\":1"), "{stats}");
    }

    #[test]
    fn session_limit_is_an_error_response_and_finish_frees_a_slot() {
        let mut service = Service::new().with_max_sessions(2);
        // A failed open takes no slot.
        let failed = service.respond(&open_line("x", 10, 3, "quantum", 1)).unwrap();
        assert!(failed.contains("unknown colorer"), "{failed}");
        assert!(service.respond(&open_line("a", 10, 3, "trivial", 1)).unwrap().contains("true"));
        assert!(service.respond(&open_line("b", 10, 3, "trivial", 1)).unwrap().contains("true"));
        let third = service.respond(&open_line("c", 10, 3, "trivial", 1)).unwrap();
        assert!(
            third.contains("\"ok\":false") && third.contains("session limit reached (2 open)"),
            "{third}"
        );
        // Re-opening an already-open name is the ordinary error, not the
        // limit (the tenant already holds its slot).
        let again = service.respond(&open_line("a", 10, 3, "trivial", 1)).unwrap();
        assert!(again.contains("already open"), "{again}");
        // Stateless commands are never limited.
        let job = service.respond(&run_job_line("jobs", &ShardJob::Grid(Vec::new()), 0, 1));
        assert!(job.unwrap().contains("\"ok\":true"));
        // finish frees the slot; the next open succeeds.
        service.respond(r#"{"cmd":"finish","session":"a"}"#).unwrap();
        let reopened = service.respond(&open_line("c", 10, 3, "trivial", 1)).unwrap();
        assert!(reopened.contains("\"ok\":true"), "{reopened}");
    }

    /// A limited script (what `serve --script` feeds the loop) answers
    /// the same bytes on every run and matches answering it line by
    /// line: the serve loop has no thread knob that could reorder opens.
    #[test]
    fn session_limit_in_scripts_is_thread_count_invariant() {
        let mut script = String::new();
        for name in ["a", "b", "c", "d"] {
            script.push_str(&open_line(name, 10, 3, "trivial", 1));
            script.push('\n');
        }
        script.push_str(r#"{"cmd":"finish","session":"a"}"#);
        script.push('\n');
        script.push_str(&open_line("e", 10, 3, "trivial", 1));
        script.push('\n');
        for name in ["b", "c", "e"] {
            script.push_str(&format!(r#"{{"cmd":"finish","session":"{name}"}}"#));
            script.push('\n');
        }
        let serve_script = || {
            let mut output = Vec::new();
            Service::new().with_max_sessions(3).serve(script.as_bytes(), &mut output).unwrap();
            String::from_utf8(output).unwrap()
        };
        let reference = serve_script();
        assert_eq!(reference.matches("session limit reached (3 open)").count(), 1, "{reference}");
        assert!(reference.contains(r#""session":"d""#), "d must be the rejected open");
        // e opens fine after a's finish freed a slot.
        assert_eq!(reference.matches("\"ok\":false").count(), 1, "{reference}");
        assert_eq!(serve_script(), reference, "a rerun changed limited-script output");
        let mut service = Service::new().with_max_sessions(3);
        let line_by_line: String =
            script.lines().filter_map(|l| service.respond(l)).map(|r| r + "\n").collect();
        assert_eq!(line_by_line, reference, "serve and respond disagree on a limited script");
    }

    #[test]
    fn serve_loop_round_trips_via_io() {
        let mut service = Service::new();
        let input = format!(
            "{}\n{}\n{}\n",
            open_line("io", 10, 3, "trivial", 1),
            r#"{"cmd":"push_batch","session":"io","edges":"0-1 1-2"}"#,
            r#"{"cmd":"finish","session":"io"}"#
        );
        let mut output = Vec::new();
        service.serve(input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().all(|l| l.contains("\"ok\":true")), "{text}");
    }

    #[test]
    fn coloring_strings_round_trip() {
        let mut c = Coloring::empty(4);
        c.set(0, 2);
        c.set(2, 0);
        let text = coloring_string(&c);
        assert_eq!(text, "2,-,0,-");
        assert_eq!(parse_coloring(&text, 4).unwrap(), c);
        assert!(parse_coloring(&text, 5).is_err());
        assert!(parse_coloring("1,x,2,3", 4).unwrap_err().contains("cell 1"));
        assert_eq!(parse_coloring("", 0).unwrap(), Coloring::empty(0));
        let g = Graph::from_edges(4, [sc_graph::Edge::new(0, 2)]);
        assert!(parse_coloring(&text, 4).unwrap().is_proper_partial(&g));
    }

    #[test]
    fn owners_have_private_namespaces_and_drop_owner_reaps_them() {
        let mut service = Service::new();
        for owner in [1u64, 2] {
            let open =
                service.respond_as(owner, &open_line("a", 10, 3, "store-all", owner)).unwrap();
            assert!(open.contains("\"ok\":true"), "{open}");
        }
        // Same name, different owners: pushes land in different tenants.
        let push = service.respond_as(1, r#"{"cmd":"push","session":"a","edge":"0-1"}"#).unwrap();
        assert!(push.contains("\"len\":1"), "{push}");
        let stats2 = service.respond_as(2, r#"{"cmd":"stats","session":"a"}"#).unwrap();
        assert!(stats2.contains("\"edges\":0"), "owner 2 saw owner 1's push: {stats2}");
        assert_eq!(service.session_names(), vec!["a", "a"]);

        assert_eq!(service.drop_owner(1), 1);
        assert_eq!(service.session_names(), vec!["a"]);
        let gone = service.respond_as(1, r#"{"cmd":"stats","session":"a"}"#).unwrap();
        assert!(gone.contains("unknown session"), "{gone}");
        let kept = service.respond_as(2, r#"{"cmd":"stats","session":"a"}"#).unwrap();
        assert!(kept.contains("\"ok\":true"), "{kept}");
        assert_eq!(service.counters().sessions_dropped, 1);
    }

    #[test]
    fn lru_eviction_evicts_oldest_leaves_tombstone_and_reopen_replays() {
        let mut service = Service::new().with_max_sessions(2).with_lru_eviction();
        for name in ["a", "b"] {
            service.respond(&open_line(name, 10, 3, "store-all", 5)).unwrap();
        }
        // Touch "a" so "b" is the least recently used.
        service.respond(r#"{"cmd":"push","session":"a","edge":"0-1"}"#).unwrap();
        let open_c = service.respond(&open_line("c", 10, 3, "store-all", 5)).unwrap();
        assert!(open_c.contains("\"ok\":true"), "open at cap must evict, not error: {open_c}");
        assert_eq!(service.session_names(), vec!["a", "c"]);
        assert_eq!(service.counters().sessions_evicted, 1);

        // The evicted session answers a tombstone error, never an abort.
        let tomb = service.respond(r#"{"cmd":"push","session":"b","edge":"0-1"}"#).unwrap();
        assert!(tomb.contains("session evicted (lru)"), "{tomb}");
        assert!(tomb.contains("\"ok\":false"), "{tomb}");

        // Reopening clears the tombstone and replays byte-identically
        // against a fresh service.
        let mut replay: Vec<String> = Vec::new();
        for line in [
            open_line("b", 10, 3, "store-all", 5),
            r#"{"cmd":"push","session":"b","edge":"2-3"}"#.to_string(),
            r#"{"cmd":"finish","session":"b"}"#.to_string(),
        ] {
            replay.push(service.respond(&line).unwrap());
        }
        let mut fresh = Service::new();
        for (i, line) in [
            open_line("b", 10, 3, "store-all", 5),
            r#"{"cmd":"push","session":"b","edge":"2-3"}"#.to_string(),
            r#"{"cmd":"finish","session":"b"}"#.to_string(),
        ]
        .iter()
        .enumerate()
        {
            assert_eq!(fresh.respond(line).unwrap(), replay[i], "reopened session must replay");
        }
    }

    #[test]
    fn without_lru_eviction_the_cap_still_errors() {
        let mut service = Service::new().with_max_sessions(1);
        service.respond(&open_line("a", 10, 3, "store-all", 5)).unwrap();
        let denied = service.respond(&open_line("b", 10, 3, "store-all", 5)).unwrap();
        assert!(denied.contains("session limit reached"), "{denied}");
        assert_eq!(service.counters().sessions_evicted, 0);
    }

    #[test]
    fn host_stats_reports_lifecycle_counters_interactively() {
        let mut service = Service::new();
        service.respond(&open_line("a", 10, 3, "store-all", 5)).unwrap();
        service.respond(r#"{"cmd":"finish","session":"a"}"#).unwrap();
        service.respond(&open_line("b", 10, 3, "store-all", 5)).unwrap();
        service.record_connections(3, 17);
        let stats = service.respond(r#"{"cmd":"host_stats","session":"probe"}"#).unwrap();
        let obj = parse_object(&stats).unwrap();
        assert_eq!(obj["ok"].as_bool(), Some(true));
        assert_eq!(obj["session"].as_str(), Some("probe"));
        assert_eq!(obj["sessions_open"].as_u64(), Some(1));
        assert_eq!(obj["sessions_opened"].as_u64(), Some(2));
        assert_eq!(obj["sessions_finished"].as_u64(), Some(1));
        assert_eq!(obj["connections_open"].as_u64(), Some(3));
        assert_eq!(obj["connections_accepted"].as_u64(), Some(17));

        // host_stats never touches the session table: "probe" is only a
        // correlation id.
        assert_eq!(service.session_names(), vec!["b"]);
    }

    /// A fresh per-test scratch directory under the system temp dir
    /// (the workspace vendors no tempfile crate).
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sc-snap-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_restore_round_trips_mid_stream() {
        let mut service = Service::new();
        service.respond(&open_line("a", 20, 4, "robust", 3)).unwrap();
        service.respond(r#"{"cmd":"push_batch","session":"a","edges":"0-1 1-2 2-3"}"#).unwrap();
        let snap = service.respond(r#"{"cmd":"snapshot","session":"a"}"#).unwrap();
        let obj = parse_object(&snap).unwrap();
        assert_eq!(obj["ok"].as_bool(), Some(true), "{snap}");
        assert_eq!(obj["edges"].as_u64(), Some(3));
        let blob = obj["snapshot"].as_str().unwrap().to_string();
        // The blob is itself a canonical flat-JSON object.
        assert!(parse_object(&blob).is_ok(), "{blob}");

        // Snapshot is non-destructive: the source session still answers.
        let live = service.respond(r#"{"cmd":"stats","session":"a"}"#).unwrap();
        assert!(live.contains("\"edges\":3"), "{live}");

        // Restore under a fresh name on a fresh host; from here on the
        // two sessions answer byte-identically.
        let mut other = Service::new();
        let mut line = FlatObject::new();
        line.insert("cmd".into(), Scalar::Str("restore".into()));
        line.insert("session".into(), Scalar::Str("b".into()));
        line.insert("snapshot".into(), Scalar::Str(blob));
        let restored = other.respond(&encode_object(&line)).unwrap();
        assert!(restored.contains("\"ok\":true"), "{restored}");
        assert!(restored.contains("\"edges\":3"), "{restored}");
        for tail in [
            r#"{"cmd":"push_batch","session":"NAME","edges":"3-4 4-5"}"#,
            r#"{"cmd":"observe","session":"NAME"}"#,
            r#"{"cmd":"checkpoint","session":"NAME"}"#,
            r#"{"cmd":"finish","session":"NAME"}"#,
        ] {
            let a = service.respond(&tail.replace("NAME", "a")).unwrap();
            let b = other.respond(&tail.replace("NAME", "b")).unwrap();
            assert_eq!(
                a.replace("\"session\":\"a\"", "\"session\":\"S\""),
                b.replace("\"session\":\"b\"", "\"session\":\"S\""),
                "restored session diverged on {tail}"
            );
        }
    }

    #[test]
    fn restore_rejects_malformed_blobs_naming_the_offender() {
        let mut service = Service::new();
        service.respond(&open_line("a", 10, 3, "store-all", 1)).unwrap();
        service.respond(r#"{"cmd":"push","session":"a","edge":"0-1"}"#).unwrap();
        service.respond(r#"{"cmd":"checkpoint","session":"a"}"#).unwrap();
        let snap = service.respond(r#"{"cmd":"snapshot","session":"a"}"#).unwrap();
        let blob = parse_object(&snap).unwrap()["snapshot"].as_str().unwrap().to_string();
        service.respond(&open_line("d", 10, 3, "dynamic-sr", 1)).unwrap();
        service.respond(r#"{"cmd":"push","session":"d","edge":"0-1"}"#).unwrap();
        let snap = service.respond(r#"{"cmd":"snapshot","session":"d"}"#).unwrap();
        let dynamic = parse_object(&snap).unwrap()["snapshot"].as_str().unwrap().to_string();
        // A dynamic-sr session whose budget gets the compact layout, and
        // the same blobs as the classic layout (the only one before the
        // sizing rule) would have written them.
        use streamcolor::dynamic::sparse_recovery::{Layout, SparseRecovery, COMPACT_FROM};
        let s = COMPACT_FROM;
        let big_open = format!(
            r#"{{"cmd":"open","session":"b","n":100,"delta":3,"colorer":"dynamic-sr","seed":1,"sparsity":{s}}}"#
        );
        service.respond(&big_open).unwrap();
        let snap = service.respond(r#"{"cmd":"snapshot","session":"b"}"#).unwrap();
        let big_empty = parse_object(&snap).unwrap()["snapshot"].as_str().unwrap().to_string();
        service.respond(r#"{"cmd":"push","session":"b","edge":"0-1"}"#).unwrap();
        service.respond(r#"{"cmd":"observe","session":"b"}"#).unwrap(); // feeds the sketch
        let snap = service.respond(r#"{"cmd":"snapshot","session":"b"}"#).unwrap();
        let big = parse_object(&snap).unwrap()["snapshot"].as_str().unwrap().to_string();
        let sketch = |layout: Layout| {
            let mut sketch = SparseRecovery::with_layout(100 * 100, s, layout, 1);
            sketch.update(1, 1); // edge 0-1 is id 0·n + 1
            sketch
        };
        let (compact, classic) = (sketch(Layout::compact(s)), sketch(Layout::classic(s)));
        assert!(big.contains(&format!("cells={};", compact.encode_cells())), "{big}");
        let classic_cells = big.replace(&compact.encode_cells(), &classic.encode_cells());
        let cells = compact.layout().rows * compact.layout().cols;
        let out_of_range = classic
            .encode_cells()
            .split(' ')
            .find(|cell| cell.split(':').next().unwrap().parse::<usize>().unwrap() >= cells)
            .expect("the classic layout's last row lies past the compact array")
            .to_string();
        let cell_needle = format!(r#"sketch cell \"{out_of_range}\": idx out of range"#);
        let bits = |sketch: &SparseRecovery| {
            let keys = 8 * 64; // the colorer's charge beyond its cells
            let b = sketch.cell_bits() + keys;
            format!("space_cur={b};space_peak={b}")
        };
        assert!(big_empty.contains(&bits(&compact)), "{big_empty}");
        let classic_space = big_empty.replace(&bits(&compact), &bits(&classic));
        let space_needle = format!(
            "state: space_cur={0} space_peak={0}, but a 4x768 sketch charges {1} bits",
            classic.cell_bits() + 512,
            compact.cell_bits() + 512
        );
        let with = |blob: &str, key: &str, value: &str| {
            let mut obj = parse_object(blob).unwrap();
            assert!(obj.insert(key.into(), Scalar::Str(value.into())).is_some(), "{key}");
            encode_object(&obj)
        };

        let restore_line = |blob: &str| {
            let mut line = FlatObject::new();
            line.insert("cmd".into(), Scalar::Str("restore".into()));
            line.insert("session".into(), Scalar::Str("r".into()));
            line.insert("snapshot".into(), Scalar::Str(blob.to_string()));
            encode_object(&line)
        };
        for (mangled, needle) in [
            ("{not json".to_string(), "snapshot:"),
            (
                blob.replace("session-snapshot", "session-snapshit"),
                "is not \\\"session-snapshot\\\"",
            ),
            (blob.replace("\"algo\":\"store-all\"", "\"algo\":\"robust-alg2\""), "algo"),
            (blob.replace("\"kind\"", "\"kindd\""), "missing string field \\\"kind\\\""),
            (blob.replace("\"chunks\"", "\"chunkz\""), "unknown key"),
            (blob.replace("\"state\":\"algo=store-all", "\"state\":\"algo=storr-all"), "algo"),
            (
                with(&blob, "pending", "3-3"),
                r#"pending: token \"3-3\": edge \"3-3\" is a self-loop"#,
            ),
            (with(&dynamic, "support", "3-3:1"), r#"support entry \"3-3:1\": edge \"3-3\""#),
            (classic_cells, cell_needle.as_str()),
            (classic_space, space_needle.as_str()),
            // The session has ingested one edge of ten vertices.
            (
                with(&blob, "checkpoints", "1:2:34:00000000000000ff;0:1:34:00000000000000ff"),
                r#"checkpoint 1 \"0:1:34:00000000000000ff\": needs 1 ≤ prefix ≤ 1 and colors ≤ 10"#,
            ),
            (
                with(&blob, "checkpoints", "999:2:80:00000000000000ff"),
                r#"checkpoint 0 \"999:2:80:00000000000000ff\": needs 0 ≤ prefix ≤ 1 and colors ≤ 10"#,
            ),
            (
                with(&blob, "checkpoints", "1:11:34:00000000000000ff"),
                r#"checkpoint 0 \"1:11:34:00000000000000ff\": needs 0 ≤ prefix ≤ 1 and colors ≤ 10"#,
            ),
            (
                with(&blob, "checkpoints", "1:2:34:00000000000000fg"),
                r#"checkpoint 0 \"1:2:34:00000000000000fg\": digest: invalid digit"#,
            ),
            (
                with(&blob, "checkpoints", "1:x:34:00000000000000ff"),
                r#"checkpoint 0 \"1:x:34:00000000000000ff\": colors: invalid digit"#,
            ),
            (
                with(&blob, "checkpoints", "1@34@0,1,-,-,-,-,-,-,-,-"),
                r#"checkpoint 0 \"1@34@0,1,-,-,-,-,-,-,-,-\": is not prefix:colors:space_bits:digest"#,
            ),
        ] {
            let response = service.respond(&restore_line(&mangled)).unwrap();
            assert!(
                response.contains("\"ok\":false") && response.contains(needle),
                "{mangled} -> {response}"
            );
        }
        // Restoring over an open session is refused.
        let clash = service
            .respond(&restore_line(&blob).replace("\"session\":\"r\"", "\"session\":\"a\""))
            .unwrap();
        assert!(clash.contains("already open"), "{clash}");
        // The untouched blob restores fine.
        let good = service.respond(&restore_line(&blob)).unwrap();
        assert!(good.contains("\"ok\":true"), "{good}");
    }

    #[test]
    fn checkpoints_keep_a_record_not_a_coloring() {
        // At n = 100,000 one coloring is about 200 KB of text; a
        // recorded checkpoint must stay a few dozen bytes.
        let mut service = Service::new();
        service.respond(&open_line("m", 100_000, 2, "store-all", 1)).unwrap();
        service.respond(r#"{"cmd":"push_batch","session":"m","edges":"0-1 1-2"}"#).unwrap();
        let mut snapshot_len = |checkpoints: usize| {
            for _ in 0..checkpoints {
                service.respond(r#"{"cmd":"checkpoint","session":"m"}"#).unwrap();
            }
            let snap = service.respond(r#"{"cmd":"snapshot","session":"m"}"#).unwrap();
            parse_object(&snap).unwrap()["snapshot"].as_str().unwrap().len()
        };
        let one = snapshot_len(1);
        let many = snapshot_len(199);
        assert!(many - one <= 64 * 199, "199 more checkpoints grew the blob {one} -> {many}");
        for cmd in ["stats", "finish"] {
            let line = service.respond(&format!(r#"{{"cmd":"{cmd}","session":"m"}}"#)).unwrap();
            assert!(line.contains("\"checkpoints\":200"), "{cmd} miscounts");
        }
    }

    #[test]
    fn evict_to_disk_restores_transparently_and_replays_byte_identically() {
        let dir = scratch_dir("evict");
        let mut evicting =
            Service::new().with_max_sessions(1).with_lru_eviction().with_snapshot_dir(dir.clone());
        let mut uninterrupted = Service::new();

        let drive = |svc: &mut Service, line: &str| svc.respond(line).unwrap();
        let open_a = open_line("a", 20, 4, "robust", 3);
        assert_eq!(drive(&mut evicting, &open_a), drive(&mut uninterrupted, &open_a));
        let push = r#"{"cmd":"push_batch","session":"a","edges":"0-1 1-2 2-3"}"#;
        assert_eq!(drive(&mut evicting, push), drive(&mut uninterrupted, push));

        // Opening "b" at cap 1 evicts "a" — to disk, not to a tombstone.
        let open_b = open_line("b", 10, 3, "trivial", 1);
        assert!(drive(&mut evicting, &open_b).contains("\"ok\":true"));
        assert_eq!(evicting.counters().disk_evictions, 1);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "one .snap file");

        // "a"'s next command transparently restores and matches the
        // uninterrupted host byte-for-byte (which evicts "b" to disk in
        // turn — the cap stays enforced).
        for line in [
            r#"{"cmd":"push","session":"a","edge":"3-4"}"#,
            r#"{"cmd":"observe","session":"a"}"#,
            r#"{"cmd":"checkpoint","session":"a"}"#,
            r#"{"cmd":"finish","session":"a"}"#,
        ] {
            assert_eq!(
                drive(&mut evicting, line),
                drive(&mut uninterrupted, line),
                "disk-restored session diverged on {line}"
            );
        }
        assert_eq!(evicting.counters().disk_restores, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn without_snapshot_dir_eviction_keeps_the_tombstone_path() {
        // (Pinned by lru_eviction_evicts_oldest_…; here: reopen after a
        // disk eviction discards the stale file.)
        let dir = scratch_dir("reopen");
        let mut service =
            Service::new().with_max_sessions(1).with_lru_eviction().with_snapshot_dir(dir.clone());
        service.respond(&open_line("a", 10, 3, "store-all", 5)).unwrap();
        service.respond(&open_line("b", 10, 3, "trivial", 1)).unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        // Reopen "a" fresh: stale snapshot deleted, state starts over.
        service.respond(r#"{"cmd":"finish","session":"b"}"#).unwrap();
        let reopened = service.respond(&open_line("a", 10, 3, "store-all", 5)).unwrap();
        assert!(reopened.contains("\"ok\":true"), "{reopened}");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "stale .snap must be gone");
        let stats = service.respond(r#"{"cmd":"stats","session":"a"}"#).unwrap();
        assert!(stats.contains("\"edges\":0"), "reopen must not resurrect state: {stats}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_owner_reaps_snapshot_files() {
        let dir = scratch_dir("drop");
        let mut service =
            Service::new().with_max_sessions(1).with_lru_eviction().with_snapshot_dir(dir.clone());
        service.respond_as(7, &open_line("a", 10, 3, "store-all", 5)).unwrap();
        service.respond_as(7, &open_line("b", 10, 3, "trivial", 1)).unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        service.drop_owner(7);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "dropped owner's files reaped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn host_stats_reports_snapshot_counters() {
        let mut service = Service::new();
        service.respond(&open_line("a", 10, 3, "store-all", 5)).unwrap();
        let snap = service.respond(r#"{"cmd":"snapshot","session":"a"}"#).unwrap();
        let blob = parse_object(&snap).unwrap()["snapshot"].as_str().unwrap().to_string();
        let mut line = FlatObject::new();
        line.insert("cmd".into(), Scalar::Str("restore".into()));
        line.insert("session".into(), Scalar::Str("b".into()));
        line.insert("snapshot".into(), Scalar::Str(blob));
        service.respond(&encode_object(&line)).unwrap();
        let stats = service.respond(r#"{"cmd":"host_stats","session":"probe"}"#).unwrap();
        let obj = parse_object(&stats).unwrap();
        assert_eq!(obj["snapshots"].as_u64(), Some(1), "{stats}");
        assert_eq!(obj["restores"].as_u64(), Some(1), "{stats}");
        assert_eq!(obj["disk_evictions"].as_u64(), Some(0), "{stats}");
        assert_eq!(obj["disk_restores"].as_u64(), Some(0), "{stats}");
    }
}
