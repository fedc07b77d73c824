//! The traced run: one round replayed through each layer's public calls,
//! with timers held in memory.
//!
//! Nothing inside the program is instrumented. The replay does what
//! `Service::respond_as` does, one public call at a time — line parse
//! (`flatjson::parse_object`), token decode (`decode_signed_list` /
//! `wire::decode_edges`), `ColorerSpec::build`, the owned
//! `sc_stream::Session`, response encode (`coloring_string` +
//! `encode_object`) — and wraps the colorer in a timing
//! `StreamingColorer` so the session's time splits into engine and
//! colorer. For `dynamic-sr` sessions a standalone `SparseRecovery` and
//! `DynamicSupport`, built with the colorer's universe, budget and seed,
//! are fed the same tokens to time the sketch and the engine's referee.

use crate::stats::{ms, us};
use crate::workload::{Cmd, ConnPlan, Kind, SessionPlan};
use sc_engine::flatjson::{encode_object, parse_object, FlatObject, Scalar};
use sc_engine::wire;
use sc_graph::{greedy_complete, Coloring, Edge, Graph};
use sc_service::service::coloring_string;
use sc_service::Service;
use sc_stream::{
    decode_signed_list, BoxedColorer, CacheStats, DynamicSupport, EngineConfig, Session,
    SignedEdge, StreamingColorer,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use streamcolor::SparseRecovery;

/// Time spent inside one colorer, as seen from the session.
#[derive(Debug, Default)]
struct ColorerClock {
    ingest: Duration,
    query: Duration,
    stats: Option<CacheStats>,
}

/// A colorer that times `process*` and `query*` calls into a shared
/// clock and forwards everything else.
struct TimedColorer {
    inner: BoxedColorer,
    clock: Arc<Mutex<ColorerClock>>,
}

impl TimedColorer {
    fn timed_ingest<R>(&mut self, f: impl FnOnce(&mut BoxedColorer) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.clock.lock().expect("clock is never poisoned").ingest += t.elapsed();
        r
    }

    fn timed_query(&mut self, f: impl FnOnce(&mut BoxedColorer) -> Coloring) -> Coloring {
        let t = Instant::now();
        let c = f(&mut self.inner);
        let mut clock = self.clock.lock().expect("clock is never poisoned");
        clock.query += t.elapsed();
        clock.stats = self.inner.query_cache_stats();
        c
    }
}

impl StreamingColorer for TimedColorer {
    fn process(&mut self, e: Edge) {
        self.timed_ingest(|c| c.process(e));
    }
    fn process_batch(&mut self, edges: &[Edge]) {
        self.timed_ingest(|c| c.process_batch(edges));
    }
    fn supports_deletions(&self) -> bool {
        self.inner.supports_deletions()
    }
    fn process_signed(&mut self, t: SignedEdge) -> Result<(), String> {
        self.timed_ingest(|c| c.process_signed(t))
    }
    fn process_signed_batch(&mut self, tokens: &[SignedEdge]) -> Result<(), String> {
        self.timed_ingest(|c| c.process_signed_batch(tokens))
    }
    fn query(&mut self) -> Coloring {
        self.timed_query(|c| c.query())
    }
    fn query_incremental(&mut self) -> Coloring {
        self.timed_query(|c| c.query_incremental())
    }
    fn query_cache_stats(&self) -> Option<CacheStats> {
        self.inner.query_cache_stats()
    }
    fn peak_space_bits(&self) -> u64 {
        self.inner.peak_space_bits()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Per-algorithm colorer times (keyed by wire id).
#[derive(Debug, Default, Clone)]
pub struct AlgoTimes {
    /// `ColorerSpec::build`, ms.
    pub build_ms: f64,
    /// `process_batch` / `process_signed_batch`, µs.
    pub ingest_us: f64,
    /// `query_incremental`, µs.
    pub query_us: f64,
    /// Cache hits plus patches.
    pub useful: u64,
    /// Queries the cache saw.
    pub queries: u64,
}

/// Layer times of replayed rounds (µs unless named otherwise).
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// `parse_object` on every request line.
    pub parse_us: f64,
    /// Response encode: `coloring_string` + `encode_object`.
    pub encode_us: f64,
    /// Token-list decode.
    pub edges_decode_us: f64,
    /// Request bytes, newlines included.
    pub bytes_in: u64,
    /// Response bytes, newlines included.
    pub bytes_out: u64,
    /// `Session::push_signed_slice`.
    pub push_us: f64,
    /// Every `Session` call: push, observe, finish.
    pub session_us: f64,
    /// Standalone `DynamicSupport::apply_all`.
    pub support_us: f64,
    /// Colorer feed calls the sessions made.
    pub chunks: u64,
    /// Per colorer wire id.
    pub algos: BTreeMap<&'static str, AlgoTimes>,
    /// Standalone `SparseRecovery::decode` at every observe and finish.
    pub decode_us: f64,
    /// Standalone `SparseRecovery::update` calls, total ns.
    pub update_ns: f64,
    /// `SparseRecovery::update` calls.
    pub updates: u64,
    /// Standalone decodes run (one per `dynamic-sr` observe or finish).
    pub decodes: u64,
    /// Live support of the last decode, summed over sessions.
    pub support: u64,
    /// `Graph::from_edges` + `greedy_complete` on every decoded support.
    pub repair_us: f64,
    /// `Service::respond_as`, each command timed on its own.
    pub respond_us: f64,
    /// `Service::respond_as` on a second service, timed per chunk of
    /// commands only: the untraced in-process total.
    pub untimed_us: f64,
}

impl LayerTimes {
    /// Colorer ingest plus query, µs (the part inside `Session` calls).
    pub fn colorer_in_session_us(&self) -> f64 {
        self.algos.values().map(|a| a.ingest_us + a.query_us).sum()
    }

    /// Wire time: parse, token decode, encode, µs.
    pub fn wire_us(&self) -> f64 {
        self.parse_us + self.edges_decode_us + self.encode_us
    }
}

/// One open session of the traced replay.
struct Traced {
    session: Session,
    clock: Arc<Mutex<ColorerClock>>,
    sketch: Option<(SparseRecovery, DynamicSupport)>,
}

/// Commands per lockstep chunk: the layered replay, a per-command timed
/// `respond_as` replay and an untimed one take turns a chunk at a time,
/// so slow drift of the machine hits all three alike while each keeps
/// its own working set (a sketch is ~1 MB) in cache within its turn.
const CHUNK: usize = 32;

/// Replays one round of `plan` three ways in lockstep — through each
/// layer's public calls, through `Service::respond_as` with every
/// command timed, and through `Service::respond_as` untimed — adding the
/// layer times to `acc`. Returns each command's `respond_as` time, µs.
///
/// # Errors
/// A line or command the replay cannot apply (the socket run's checks
/// would have failed first).
pub fn trace_round(plan: &ConnPlan, acc: &mut LayerTimes) -> Result<Vec<f64>, String> {
    let mut open: Vec<Option<Traced>> = plan.sessions.iter().map(|_| None).collect();
    let (mut timed, mut untimed) = (Service::new(), Service::new());
    let mut respond = Vec::with_capacity(plan.cmds.len());
    for chunk in plan.cmds.chunks(CHUNK) {
        for cmd in chunk {
            layered(plan, cmd, &mut open, acc)?;
        }
        for cmd in chunk {
            let t = Instant::now();
            std::hint::black_box(timed.respond_as(1, &cmd.line));
            respond.push(us(t.elapsed()));
        }
        let t = Instant::now();
        for cmd in chunk {
            std::hint::black_box(untimed.respond_as(1, &cmd.line));
        }
        acc.untimed_us += us(t.elapsed());
    }
    acc.respond_us += respond.iter().sum::<f64>();
    Ok(respond)
}

/// One command through the layers' public calls.
fn layered(
    plan: &ConnPlan,
    cmd: &Cmd,
    open: &mut [Option<Traced>],
    acc: &mut LayerTimes,
) -> Result<(), String> {
    let sp = &plan.sessions[cmd.session];
    let t = Instant::now();
    let obj = parse_object(&cmd.line)?;
    let parse_us = us(t.elapsed());
    let mut reply = FlatObject::new();
    match cmd.kind {
        Kind::Open => {
            let t = Instant::now();
            let colorer = wire::colorer_from_wire(&obj)?.build(sp.n, sp.delta, sp.seed, None)?;
            acc.algos.entry(sp.colorer).or_default().build_ms += ms(t.elapsed());
            let clock = Arc::new(Mutex::new(ColorerClock::default()));
            let timed = TimedColorer { inner: colorer, clock: Arc::clone(&clock) };
            let session = Session::new(Box::new(timed), EngineConfig::default());
            open[cmd.session] = Some(Traced { session, clock, sketch: standalone_sketch(sp) });
            // Opens are `setup_s`'s to report; only their build is kept.
            return Ok(());
        }
        Kind::Push => {
            let tr = open[cmd.session].as_mut().ok_or("push before open")?;
            let t = Instant::now();
            let tokens = decode_tokens(&obj, sp.n)?;
            acc.edges_decode_us += us(t.elapsed());
            let t = Instant::now();
            tr.session.push_signed_slice(&tokens)?;
            let d = us(t.elapsed());
            acc.push_us += d;
            acc.session_us += d;
            if let Some((sketch, support)) = &mut tr.sketch {
                let t = Instant::now();
                support.apply_all(&tokens)?;
                acc.support_us += us(t.elapsed());
                let t = Instant::now();
                for tok in &tokens {
                    sketch.update(edge_id(tok.edge, sp.n), tok.sign.unit());
                }
                acc.update_ns += t.elapsed().as_secs_f64() * 1e9;
                acc.updates += tokens.len() as u64;
            }
            reply.insert("len".into(), Scalar::Uint(tr.session.len() as u64));
            reply.insert("pushed".into(), Scalar::Uint(tokens.len() as u64));
        }
        Kind::Observe | Kind::Finish => {
            let mut tr = open[cmd.session].take().ok_or("query before open")?;
            tr.decode_sketch(sp.n, acc)?;
            let t = Instant::now();
            if cmd.kind == Kind::Observe {
                let cp = tr.session.observe();
                acc.session_us += us(t.elapsed());
                let t = Instant::now();
                reply.insert("prefix".into(), Scalar::Uint(cp.prefix_len as u64));
                reply.insert("colors".into(), Scalar::Uint(cp.colors as u64));
                reply.insert("space_bits".into(), Scalar::Uint(cp.space_bits));
                reply.insert("coloring".into(), Scalar::Str(coloring_string(&cp.coloring)));
                acc.encode_us += us(t.elapsed());
                open[cmd.session] = Some(tr);
            } else {
                acc.chunks += tr.session.chunks() as u64;
                let report = tr.session.finish();
                acc.session_us += us(t.elapsed());
                let t = Instant::now();
                let colors = report.final_coloring.num_distinct_colors() as u64;
                reply.insert("edges".into(), Scalar::Uint(report.edges as u64));
                reply.insert("chunks".into(), Scalar::Uint(report.chunks as u64));
                reply.insert("colors".into(), Scalar::Uint(colors));
                reply.insert("space_bits".into(), Scalar::Uint(report.peak_space_bits));
                reply.insert(
                    "coloring".into(),
                    Scalar::Str(coloring_string(&report.final_coloring)),
                );
                acc.encode_us += us(t.elapsed());
                let clock = tr.clock.lock().expect("clock is never poisoned");
                let algo = acc.algos.entry(sp.colorer).or_default();
                algo.ingest_us += us(clock.ingest);
                algo.query_us += us(clock.query);
                if let Some(stats) = clock.stats {
                    algo.useful += stats.hits + stats.patches;
                    algo.queries += stats.queries();
                }
            }
        }
    }
    acc.parse_us += parse_us;
    acc.bytes_in += cmd.line.len() as u64 + 1;
    let t = Instant::now();
    reply.insert("ok".into(), Scalar::Bool(true));
    reply.insert("cmd".into(), obj.get("cmd").cloned().unwrap_or(Scalar::Bool(false)));
    reply.insert("session".into(), Scalar::Str(sp.name.clone()));
    let line = encode_object(&reply);
    acc.encode_us += us(t.elapsed());
    acc.bytes_out += line.len() as u64 + 1;
    Ok(())
}

impl Traced {
    /// What a `dynamic-sr` query does besides bookkeeping: decode the
    /// sketch, then first-fit color the decoded live graph.
    fn decode_sketch(&mut self, n: usize, acc: &mut LayerTimes) -> Result<(), String> {
        let Some((sketch, _)) = &self.sketch else { return Ok(()) };
        let t = Instant::now();
        let live = sketch.decode()?;
        acc.decode_us += us(t.elapsed());
        acc.decodes += 1;
        acc.support += live.len() as u64;
        let t = Instant::now();
        let g = Graph::from_edges(
            n,
            live.iter().map(|&(id, _)| Edge::new((id / n as u64) as u32, (id % n as u64) as u32)),
        );
        let mut chi = Coloring::empty(n);
        greedy_complete(&g, &mut chi);
        acc.repair_us += us(t.elapsed());
        Ok(())
    }
}

/// A `dynamic-sr` session's standalone sketch and referee: universe
/// `n²`, the colorer's default budget `⌈n·Δ/2⌉`, the session seed.
fn standalone_sketch(sp: &SessionPlan) -> Option<(SparseRecovery, DynamicSupport)> {
    (sp.colorer == "dynamic-sr").then(|| {
        let budget = (sp.n * sp.delta).div_ceil(2).max(1);
        let universe = (sp.n as u64) * (sp.n as u64);
        (SparseRecovery::new(universe.max(1), budget, sp.seed), DynamicSupport::new())
    })
}

fn edge_id(e: Edge, n: usize) -> u64 {
    u64::from(e.u()) * n as u64 + u64::from(e.v())
}

/// The tokens of a `push` (`"edge"`) or `push_batch` (`"edges"`) line.
fn decode_tokens(obj: &FlatObject, n: usize) -> Result<Vec<SignedEdge>, String> {
    match obj.get("edges") {
        Some(_) => decode_signed_list(wire::str_field(obj, "edges")?, n),
        None => Ok(wire::decode_edges(wire::str_field(obj, "edge")?, Some(n))?
            .into_iter()
            .map(SignedEdge::insert)
            .collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::session_plans;

    #[test]
    fn traced_round_sees_every_layer_it_should() {
        let plans = session_plans("turnstile-churn", 2).unwrap();
        let mut acc = LayerTimes::default();
        let respond = trace_round(&plans[0], &mut acc).unwrap();
        assert_eq!(respond.len(), plans[0].cmds.len());
        assert!(acc.respond_us > 0.0 && acc.untimed_us > 0.0);
        assert!(acc.parse_us > 0.0 && acc.encode_us > 0.0 && acc.push_us > 0.0);
        assert!(acc.decode_us > 0.0 && acc.updates as usize == plans[0].sessions[0].stream.len());
        assert!(acc.support > 0 && acc.chunks > 0);
        let algo = &acc.algos["dynamic-sr"];
        assert!(algo.query_us > 0.0 && algo.queries > 0);
        // The session's time contains the colorer's.
        assert!(acc.session_us >= acc.colorer_in_session_us());

        let plans = session_plans("bulk-ingest", 2).unwrap();
        let mut acc = LayerTimes::default();
        trace_round(&plans[0], &mut acc).unwrap();
        assert_eq!(acc.decode_us, 0.0, "no sketch runs on insert-only workloads");
        assert_eq!(acc.algos.len(), 4);
    }
}
