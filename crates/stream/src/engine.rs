//! The batched streaming engine.
//!
//! The adversarially robust setting (paper §4, and
//! Chakrabarti–Ghosh–Stoeckl 2021) is a game over *stream prefixes*: an
//! algorithm must be able to answer [`StreamingColorer::query`] after any
//! prefix, and experiments measure it at many prefixes. [`StreamEngine`]
//! makes the prefix the unit of ingestion: it owns
//!
//! * **chunking** — signed tokens are fed through
//!   [`StreamingColorer::process_batch`] (insertion runs) and
//!   [`StreamingColorer::process_signed_batch`] (deletion runs) in
//!   [`EngineConfig::chunk_size`] slices, letting colorers amortize
//!   hashing and candidate-census work (chunking never changes results:
//!   batched and per-edge ingestion are observationally identical, a law
//!   the workspace property-tests). An insert-only stream is a signed
//!   stream without deletions, so it takes the same route;
//! * **space metering** — reports carry the colorer's self-reported peak
//!   ([`StreamingColorer::peak_space_bits`]) at every observation point;
//! * **checkpointed mid-stream queries** — a [`QuerySchedule`] names the
//!   prefixes at which the engine snapshots [`Checkpoint`]s; chunk
//!   boundaries are split as needed so a checkpoint lands exactly on its
//!   prefix.
//!
//! Interactive consumers (the adversarial game, where the next token
//! depends on the last output) drive a [`Session`] instead, which
//! exposes the same chunk-and-checkpoint machinery one token at a time.

use crate::colorer::{BoxedColorer, StreamingColorer};
use crate::support::DynamicSupport;
use crate::token::{Sign, SignedEdge};
use sc_graph::{Coloring, Edge};
use std::time::{Duration, Instant};

/// How an engine run ingests and observes a stream.
///
/// Only single-pass [`StreamingColorer`] runs are driven by this config;
/// multi-pass and offline algorithms own their pass structure, so
/// scenario layers ignore it for those (and produce no checkpoints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Edges per [`StreamingColorer::process_batch`] call. `1` degrades
    /// to per-edge ingestion; the default (256) amortizes per-chunk work
    /// without distorting checkpoint granularity.
    pub chunk_size: usize,
    /// Which stream prefixes to snapshot mid-stream.
    pub schedule: QuerySchedule,
    /// Whether queries go through the epoch-keyed incremental path
    /// ([`StreamingColorer::query_incremental`], the default) or run in
    /// scratch mode ([`StreamingColorer::query`]): every query rebuilds
    /// through the routine the cache uses on a miss, and the cache is
    /// never consulted. The two are observationally identical by the
    /// colorer contract; the switch exists so benchmarks and CI can
    /// measure one against the other.
    pub incremental: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { chunk_size: 256, schedule: QuerySchedule::FinalOnly, incremental: true }
    }
}

impl EngineConfig {
    /// Per-edge ingestion, final query only (the classic harness loop).
    pub fn per_edge() -> Self {
        Self { chunk_size: 1, ..Self::default() }
    }

    /// Batched ingestion with the given chunk size, final query only.
    pub fn batched(chunk_size: usize) -> Self {
        Self { chunk_size: chunk_size.max(1), ..Self::default() }
    }

    /// Sets the checkpoint schedule.
    pub fn with_schedule(mut self, schedule: QuerySchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Forces every query through the from-scratch path (the incremental
    /// path's comparison baseline).
    pub fn scratch_queries(mut self) -> Self {
        self.incremental = false;
        self
    }

    /// Encodes the configuration as a compact, self-delimiting string
    /// (`"chunk=256;schedule=every:10;incremental=true"`) for embedding
    /// in flat-JSON wire objects (`sc_engine::shard` spec files). The
    /// exact inverse of [`EngineConfig::wire_decode`].
    pub fn wire_encode(&self) -> String {
        format!(
            "chunk={};schedule={};incremental={}",
            self.chunk_size,
            self.schedule.wire_encode(),
            self.incremental
        )
    }

    /// Decodes a [`EngineConfig::wire_encode`] string.
    ///
    /// # Errors
    /// Returns a human-readable message naming the malformed part.
    pub fn wire_decode(text: &str) -> Result<Self, String> {
        let mut chunk_size = None;
        let mut schedule = None;
        let mut incremental = None;
        for part in text.split(';') {
            let (key, value) =
                part.split_once('=').ok_or(format!("engine config: {part:?} is not key=value"))?;
            match key {
                "chunk" => {
                    chunk_size = Some(
                        value.parse().map_err(|e| format!("engine config chunk {value:?}: {e}"))?,
                    )
                }
                "schedule" => schedule = Some(QuerySchedule::wire_decode(value)?),
                "incremental" => {
                    incremental = Some(
                        value
                            .parse()
                            .map_err(|e| format!("engine config incremental {value:?}: {e}"))?,
                    )
                }
                other => return Err(format!("engine config: unknown key {other:?}")),
            }
        }
        Ok(Self {
            chunk_size: chunk_size.ok_or("engine config: missing chunk")?,
            schedule: schedule.ok_or("engine config: missing schedule")?,
            incremental: incremental.ok_or("engine config: missing incremental")?,
        })
    }
}

/// Which prefixes of the stream get a mid-stream [`Checkpoint`].
///
/// Deterministic behavior for irregular requests (tested in this
/// module):
///
/// * **Out-of-order prefixes** — `AtPrefixes` lists may come in any
///   order; checkpoints always fire in ascending prefix order.
/// * **Duplicated prefixes** — each requested prefix checkpoints at most
///   once; duplicates collapse.
/// * **Past end-of-stream** — prefixes longer than the stream (and an
///   `EveryEdges` period with a partial final window) are silently
///   ignored; the final query in [`EngineReport::final_coloring`] covers
///   the true stream end.
/// * **Prefix 0 / period 0** — a requested prefix of `0` never fires (the
///   empty prefix is observable via [`Session::observe`] before any
///   push); `EveryEdges(0)` is treated as `EveryEdges(1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuerySchedule {
    /// No mid-stream queries; only the final coloring is produced.
    FinalOnly,
    /// Checkpoint after every `k` edges (`k ≥ 1`).
    EveryEdges(usize),
    /// Checkpoint after exactly these prefix lengths (any order;
    /// duplicate and out-of-range entries are ignored).
    AtPrefixes(Vec<usize>),
}

impl QuerySchedule {
    /// Encodes the schedule as a compact string: `"final"`, `"every:K"`,
    /// or `"at:5,17,25"` (`"at:"` for an empty list). The exact inverse
    /// of [`QuerySchedule::wire_decode`].
    pub fn wire_encode(&self) -> String {
        match self {
            QuerySchedule::FinalOnly => "final".to_string(),
            QuerySchedule::EveryEdges(k) => format!("every:{k}"),
            QuerySchedule::AtPrefixes(ps) => {
                let list: Vec<String> = ps.iter().map(usize::to_string).collect();
                format!("at:{}", list.join(","))
            }
        }
    }

    /// Decodes a [`QuerySchedule::wire_encode`] string.
    ///
    /// # Errors
    /// Returns a human-readable message naming the malformed part.
    pub fn wire_decode(text: &str) -> Result<Self, String> {
        if text == "final" {
            return Ok(QuerySchedule::FinalOnly);
        }
        if let Some(k) = text.strip_prefix("every:") {
            return k
                .parse()
                .map(QuerySchedule::EveryEdges)
                .map_err(|e| format!("schedule period {k:?}: {e}"));
        }
        if let Some(list) = text.strip_prefix("at:") {
            if list.is_empty() {
                return Ok(QuerySchedule::AtPrefixes(Vec::new()));
            }
            let ps: Result<Vec<usize>, _> = list.split(',').map(str::parse).collect();
            return ps
                .map(QuerySchedule::AtPrefixes)
                .map_err(|e| format!("schedule prefixes {list:?}: {e}"));
        }
        Err(format!("unknown schedule {text:?} (want final | every:K | at:p1,p2,…)"))
    }

    /// The next scheduled prefix strictly greater than `done`, if any.
    fn next_after(&self, done: usize) -> Option<usize> {
        match self {
            QuerySchedule::FinalOnly => None,
            QuerySchedule::EveryEdges(k) => {
                let k = (*k).max(1);
                Some((done / k + 1) * k)
            }
            QuerySchedule::AtPrefixes(ps) => {
                // Min over all remaining prefixes, so unsorted lists
                // still checkpoint at every requested point.
                ps.iter().copied().filter(|&p| p > done).min()
            }
        }
    }
}

/// A mid-stream observation: the coloring and accounting after a prefix.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Number of tokens ingested when the query ran (for turnstile
    /// streams, deletions count as tokens too).
    pub prefix_len: usize,
    /// The colorer's answer for the graph-so-far.
    pub coloring: Coloring,
    /// Self-reported peak space at this point, in bits.
    pub space_bits: u64,
    /// Distinct colors in this answer.
    pub colors: usize,
}

/// The outcome of one engine run.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Total tokens ingested (insertions and deletions alike).
    pub edges: usize,
    /// Colorer feed calls made (chunks, after checkpoint and sign-run
    /// splitting).
    pub chunks: usize,
    /// The final coloring.
    pub final_coloring: Coloring,
    /// Final self-reported peak space in bits.
    pub peak_space_bits: u64,
    /// Mid-stream checkpoints, in prefix order (excludes the final query).
    pub checkpoints: Vec<Checkpoint>,
    /// Wall-clock ingest + query time.
    pub elapsed: Duration,
}

/// Drives a [`StreamingColorer`] over a stream per an [`EngineConfig`].
#[derive(Debug, Clone, Default)]
pub struct StreamEngine {
    config: EngineConfig,
}

impl StreamEngine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Self { config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Feeds a signed token stream through `colorer` in chunks,
    /// checkpointing per the schedule, and finishes with a final query.
    /// Checkpoint `prefix_len`s count *tokens* (insertions and deletions
    /// alike); an insert-only stream is one without deletions.
    ///
    /// # Errors
    /// Rejects the stream at the first malformed token, naming the
    /// offender: a deletion aimed at an insert-only colorer names the
    /// colorer and the edge; a deletion of a never-inserted edge names
    /// the edge (see [`DynamicSupport`]).
    pub fn run<C: StreamingColorer + ?Sized>(
        &self,
        colorer: &mut C,
        tokens: &[SignedEdge],
    ) -> Result<EngineReport, String> {
        let mut session = Session::borrowing(colorer, self.config.clone());
        session.push_signed_slice(tokens)?;
        Ok(session.finish())
    }
}

/// The chunk/schedule/checkpoint machinery behind [`Session`]. It never
/// owns the colorer — every method that touches one takes it as an
/// argument — so a session may hold its colorer owned or borrowed, and
/// a snapshot captures this state apart from the colorer's own blob.
#[derive(Debug, Clone)]
struct SessionState {
    config: EngineConfig,
    /// Tokens accepted but not yet fed to the colorer.
    pending: Vec<SignedEdge>,
    /// Tokens fed to the colorer so far.
    ingested: usize,
    chunks: usize,
    checkpoints: Vec<Checkpoint>,
    /// The live-edge multiset referee, maintained only for colorers
    /// that [`StreamingColorer::supports_deletions`]. Validates every
    /// signed batch *before* staging (deleting a never-inserted edge is
    /// rejected atomically, naming the edge) and travels with
    /// snapshots. Harness bookkeeping: never charged to the colorer's
    /// space meter.
    support: Option<DynamicSupport>,
}

impl SessionState {
    fn new(config: EngineConfig, track_support: bool) -> Self {
        // `pending` grows with what is pushed, never with the requested
        // chunk size: the chunk size is client input.
        Self {
            config,
            pending: Vec::new(),
            ingested: 0,
            chunks: 0,
            checkpoints: Vec::new(),
            support: track_support.then(DynamicSupport::new),
        }
    }

    fn len(&self) -> usize {
        self.ingested + self.pending.len()
    }

    /// Accepts a slice of signed tokens, validating it **atomically**
    /// before staging anything: on error the session is unchanged.
    ///
    /// # Errors
    /// A deletion aimed at an insert-only colorer names the colorer and
    /// the edge; a deletion of a never-inserted edge names the edge
    /// (via [`DynamicSupport::apply_all`]).
    fn push_signed_slice<C: StreamingColorer + ?Sized>(
        &mut self,
        colorer: &mut C,
        tokens: &[SignedEdge],
    ) -> Result<(), String> {
        match &mut self.support {
            Some(support) => support.apply_all(tokens)?,
            None => {
                if let Some(t) = tokens.iter().find(|t| !t.is_insert()) {
                    return Err(format!(
                        "{}: insert-only colorer cannot delete edge {} \
                         (turnstile streams need a dynamic colorer)",
                        colorer.name(),
                        t.edge
                    ));
                }
            }
        }
        self.pending.extend_from_slice(tokens);
        self.settle(colorer);
        Ok(())
    }

    /// Post-staging bookkeeping: run covered checkpoints, then feed
    /// complete chunks through.
    fn settle<C: StreamingColorer + ?Sized>(&mut self, colorer: &mut C) {
        self.drain_schedule(colorer);
        let chunk = self.config.chunk_size.max(1);
        let complete = (self.pending.len() / chunk) * chunk;
        self.flush_first(colorer, complete);
    }

    /// Runs every checkpoint whose prefix is covered by accepted tokens.
    fn drain_schedule<C: StreamingColorer + ?Sized>(&mut self, colorer: &mut C) {
        while let Some(next) = self.config.schedule.next_after(self.ingested) {
            if next > self.len() {
                break;
            }
            let take = next - self.ingested;
            self.flush_first(colorer, take);
            self.record_checkpoint(colorer);
        }
    }

    /// Feeds the first `take` pending tokens to the colorer, in
    /// chunk-size batches. Within each chunk, maximal same-sign runs are
    /// fed together: insertion runs go through
    /// [`StreamingColorer::process_batch`] (so an insert-only stream
    /// reaches every colorer as plain edge batches), deletion runs
    /// through [`StreamingColorer::process_signed_batch`].
    fn flush_first<C: StreamingColorer + ?Sized>(&mut self, colorer: &mut C, take: usize) {
        if take == 0 {
            return;
        }
        let chunk = self.config.chunk_size.max(1);
        let mut scratch: Vec<Edge> = Vec::new();
        let mut fed = 0;
        while fed < take {
            let k = chunk.min(take - fed);
            let slice = &self.pending[fed..fed + k];
            let mut i = 0;
            while i < k {
                let sign = slice[i].sign;
                let mut j = i + 1;
                while j < k && slice[j].sign == sign {
                    j += 1;
                }
                match sign {
                    Sign::Insert => {
                        scratch.clear();
                        scratch.extend(slice[i..j].iter().map(|t| t.edge));
                        colorer.process_batch(&scratch);
                    }
                    Sign::Delete => {
                        // Every staged deletion was pre-validated against
                        // the support, so a rejection here is a colorer
                        // contract violation, not a stream error.
                        if let Err(e) = colorer.process_signed_batch(&slice[i..j]) {
                            panic!("engine: pre-validated deletion batch rejected: {e}");
                        }
                    }
                }
                self.chunks += 1;
                i = j;
            }
            fed += k;
        }
        self.pending.drain(..take);
        self.ingested += take;
    }

    fn flush<C: StreamingColorer + ?Sized>(&mut self, colorer: &mut C) {
        self.flush_first(colorer, self.pending.len());
    }

    /// Queries the ingested prefix as-is (no flush: scheduled
    /// checkpoints run mid-slice, with later edges still staged).
    /// Routed through the incremental path unless the config opts out.
    fn snapshot<C: StreamingColorer + ?Sized>(&mut self, colorer: &mut C) -> Checkpoint {
        let coloring =
            if self.config.incremental { colorer.query_incremental() } else { colorer.query() };
        let colors = coloring.num_distinct_colors();
        Checkpoint {
            prefix_len: self.ingested,
            coloring,
            space_bits: colorer.peak_space_bits(),
            colors,
        }
    }

    fn record_checkpoint<C: StreamingColorer + ?Sized>(&mut self, colorer: &mut C) {
        let cp = self.snapshot(colorer);
        self.checkpoints.push(cp);
    }

    fn finish<C: StreamingColorer + ?Sized>(
        mut self,
        colorer: &mut C,
        started_at: Instant,
    ) -> EngineReport {
        self.flush(colorer);
        let final_coloring =
            if self.config.incremental { colorer.query_incremental() } else { colorer.query() };
        EngineReport {
            edges: self.ingested,
            chunks: self.chunks,
            peak_space_bits: colorer.peak_space_bits(),
            final_coloring,
            checkpoints: self.checkpoints,
            elapsed: started_at.elapsed(),
        }
    }
}

/// A point-in-time capture of an owned [`Session`], taken **without**
/// flushing: the pending sub-chunk tail is carried verbatim, so a
/// restored session is mid-stream-exact — the next push sees the same
/// chunk boundaries, the same schedule position, and a colorer in the
/// same state as the uninterrupted original.
///
/// The colorer itself travels as its [`StreamingColorer::encode_state`]
/// blob; the restoring side rebuilds the colorer from its spec (which
/// is *not* captured here — the service layer owns that vocabulary)
/// and replays the blob into it.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// The engine configuration in force.
    pub config: EngineConfig,
    /// Tokens accepted but not yet fed to the colorer.
    pub pending: Vec<SignedEdge>,
    /// Tokens fed to the colorer so far.
    pub ingested: usize,
    /// Colorer feed calls (`process_batch` / signed batch) made so far.
    pub chunks: usize,
    /// Checkpoints recorded so far, prefix order.
    pub checkpoints: Vec<Checkpoint>,
    /// The live-edge multiset referee, present exactly when the colorer
    /// [`StreamingColorer::supports_deletions`].
    pub support: Option<DynamicSupport>,
    /// The colorer's [`StreamingColorer::encode_state`] blob.
    pub colorer_state: String,
}

/// An interactive session: push tokens, observe or checkpoint any
/// prefix, finish into an [`EngineReport`].
///
/// `C` is how the session holds its colorer. The default, an owned
/// [`BoxedColorer`] ([`Session::new`]), moves in at open and the report
/// moves out at finish, so sessions can be stored, passed across
/// threads, and multiplexed — a service hosts thousands of them. A
/// borrowed `&mut C` ([`Session::borrowing`]) serves callers that keep
/// the colorer on their own stack: [`StreamEngine`] runs and the
/// adversary game. Both are the same type, so they cannot drift.
///
/// Timing is folded in: the construction instant anchors
/// [`EngineReport::elapsed`], so there is no `finish(started_at)`
/// argument to thread through (or to get wrong).
///
/// ```
/// use sc_stream::{EngineConfig, Session, SignedEdge};
/// # use sc_graph::{Coloring, Edge, Graph};
/// # struct Toy(Vec<Edge>);
/// # impl sc_stream::StreamingColorer for Toy {
/// #     fn process(&mut self, e: Edge) { self.0.push(e); }
/// #     fn query(&mut self) -> Coloring {
/// #         let g = Graph::from_edges(4, self.0.iter().copied());
/// #         let mut c = Coloring::empty(4);
/// #         sc_graph::greedy_complete(&g, &mut c);
/// #         c
/// #     }
/// #     fn peak_space_bits(&self) -> u64 { 1 }
/// #     fn name(&self) -> &'static str { "toy" }
/// # }
/// let mut session = Session::new(Box::new(Toy(vec![])), EngineConfig::per_edge());
/// session.push_signed(SignedEdge::insert(Edge::new(0, 1)))?;
/// let observed = session.observe();
/// assert_eq!(observed.prefix_len, 1);
/// let report = session.finish();
/// assert_eq!(report.edges, 1);
/// # Ok::<(), String>(())
/// ```
pub struct Session<C = BoxedColorer> {
    colorer: C,
    state: SessionState,
    started: Instant,
}

impl<'a, C: StreamingColorer + ?Sized> Session<&'a mut C> {
    /// Opens a session over a borrowed colorer (see [`Session::new`]).
    pub fn borrowing(colorer: &'a mut C, config: EngineConfig) -> Self {
        Self::open(colorer, config)
    }
}

impl<C: StreamingColorer> Session<C> {
    /// The one constructor behind [`Session::new`] and
    /// [`Session::borrowing`].
    fn open(colorer: C, config: EngineConfig) -> Self {
        let track = colorer.supports_deletions();
        Self { colorer, state: SessionState::new(config, track), started: Instant::now() }
    }

    /// The configuration in force.
    pub fn config(&self) -> &EngineConfig {
        &self.state.config
    }

    /// The colorer's self-reported name.
    pub fn algo(&self) -> &'static str {
        self.colorer.name()
    }

    /// Tokens accepted so far (including any still pending).
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether no tokens have been accepted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tokens accepted but not yet fed to the colorer (a sub-chunk tail).
    pub fn pending(&self) -> usize {
        self.state.pending.len()
    }

    /// The live-edge multiset, for deletion-supporting colorers.
    pub fn support(&self) -> Option<&DynamicSupport> {
        self.state.support.as_ref()
    }

    /// Colorer feed calls (`process_batch` / signed batch) made so far.
    pub fn chunks(&self) -> usize {
        self.state.chunks
    }

    /// Checkpoints recorded so far (scheduled or explicit), prefix order.
    pub fn checkpoints(&self) -> &[Checkpoint] {
        &self.state.checkpoints
    }

    /// The colorer's self-reported peak space in bits, as of now.
    pub fn peak_space_bits(&self) -> u64 {
        self.colorer.peak_space_bits()
    }

    /// Outcome counters of the colorer's incremental query path, if any.
    pub fn query_cache_stats(&self) -> Option<crate::CacheStats> {
        self.colorer.query_cache_stats()
    }

    /// Wall-clock time since the session opened.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Accepts one signed token (see [`Session::push_signed_slice`]).
    ///
    /// # Errors
    /// As [`Session::push_signed_slice`]; the session is unchanged on
    /// error.
    pub fn push_signed(&mut self, t: SignedEdge) -> Result<(), String> {
        self.push_signed_slice(std::slice::from_ref(&t))
    }

    /// Accepts a slice of signed tokens, validated **atomically** before
    /// staging: either every token is accepted or none is.
    ///
    /// # Errors
    /// A deletion aimed at an insert-only colorer names the colorer and
    /// the edge; a deletion of a never-inserted edge names the edge.
    pub fn push_signed_slice(&mut self, tokens: &[SignedEdge]) -> Result<(), String> {
        self.state.push_signed_slice(&mut self.colorer, tokens)
    }

    /// Feeds all pending tokens to the colorer.
    pub fn flush(&mut self) {
        self.state.flush(&mut self.colorer);
    }

    /// Flushes, queries, and records + returns a checkpoint for the
    /// current prefix.
    pub fn checkpoint(&mut self) -> &Checkpoint {
        self.flush();
        self.state.record_checkpoint(&mut self.colorer);
        self.state.checkpoints.last().expect("checkpoint just recorded")
    }

    /// Flushes and queries the current prefix *without* recording — the
    /// adversarial game observes after every round and keeping each
    /// round's coloring would cost `O(rounds · n)` memory.
    pub fn observe(&mut self) -> Checkpoint {
        self.flush();
        self.state.snapshot(&mut self.colorer)
    }

    /// Flushes, runs the final query, and assembles the report; elapsed
    /// time is measured from construction (no instant to pass, none to
    /// get wrong).
    pub fn finish(mut self) -> EngineReport {
        self.state.finish(&mut self.colorer, self.started)
    }
}

impl Session {
    /// Opens a session owning `colorer`, anchoring the elapsed clock now.
    /// Sessions over colorers that
    /// [`StreamingColorer::supports_deletions`] additionally maintain a
    /// [`DynamicSupport`] referee for the signed push vocabulary.
    pub fn new(colorer: BoxedColorer, config: EngineConfig) -> Self {
        Self::open(colorer, config)
    }

    /// Captures the session mid-stream, **without** flushing the
    /// pending tail (see [`SessionSnapshot`]). Non-destructive: the
    /// session continues unchanged.
    ///
    /// # Errors
    /// Propagates the colorer's [`StreamingColorer::encode_state`]
    /// failure (e.g. a toy colorer without a codec).
    pub fn snapshot(&self) -> Result<SessionSnapshot, String> {
        Ok(SessionSnapshot {
            config: self.state.config.clone(),
            pending: self.state.pending.clone(),
            ingested: self.state.ingested,
            chunks: self.state.chunks,
            checkpoints: self.state.checkpoints.clone(),
            support: self.state.support.clone(),
            colorer_state: self.colorer.encode_state()?,
        })
    }

    /// Reopens a session from a snapshot: `colorer` must be freshly
    /// built from the same spec (same `n`, `∆`, seed) as the captured
    /// one; its state blob is replayed into it and the engine machinery
    /// resumes at the exact captured position. The elapsed clock
    /// restarts (wall time is outside the determinism law).
    ///
    /// # Errors
    /// Propagates [`StreamingColorer::decode_state`] failures naming
    /// the offending field.
    pub fn restore(mut colorer: BoxedColorer, snapshot: SessionSnapshot) -> Result<Self, String> {
        let support = match (colorer.supports_deletions(), snapshot.support) {
            (true, Some(s)) => Some(s),
            (true, None) => {
                return Err(format!(
                    "{}: snapshot is missing the dynamic support a \
                     deletion-supporting colorer requires",
                    colorer.name()
                ))
            }
            (false, Some(_)) => {
                return Err(format!(
                    "{}: snapshot carries a dynamic support but the colorer is insert-only",
                    colorer.name()
                ))
            }
            (false, None) => None,
        };
        colorer.decode_state(&snapshot.colorer_state)?;
        Ok(Self {
            colorer,
            state: SessionState {
                config: snapshot.config,
                pending: snapshot.pending,
                ingested: snapshot.ingested,
                chunks: snapshot.chunks,
                checkpoints: snapshot.checkpoints,
                support,
            },
            started: Instant::now(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colorer::run_oblivious;
    use crate::space;
    use sc_graph::{generators, Graph};

    /// Store-everything colorer for exercising engine plumbing.
    struct StoreAll {
        n: usize,
        edges: Vec<Edge>,
        batches: Vec<usize>,
    }

    impl StoreAll {
        fn new(n: usize) -> Self {
            Self { n, edges: vec![], batches: vec![] }
        }
    }

    impl StreamingColorer for StoreAll {
        fn process(&mut self, e: Edge) {
            self.edges.push(e);
            self.batches.push(1);
        }
        fn process_batch(&mut self, edges: &[Edge]) {
            self.edges.extend_from_slice(edges);
            self.batches.push(edges.len());
        }
        fn query(&mut self) -> Coloring {
            let g = Graph::from_edges(self.n, self.edges.iter().copied());
            let mut c = Coloring::empty(self.n);
            sc_graph::greedy_complete(&g, &mut c);
            c
        }
        fn peak_space_bits(&self) -> u64 {
            self.edges.len() as u64 * space::edge_bits(self.n)
        }
        fn name(&self) -> &'static str {
            "store-all"
        }
    }

    fn edges_of(n: usize, seed: u64) -> (Graph, Vec<Edge>) {
        let g = generators::gnp_with_max_degree(n, 6, 0.4, seed);
        let e = generators::shuffled_edges(&g, seed);
        (g, e)
    }

    fn inserts(edges: &[Edge]) -> Vec<SignedEdge> {
        edges.iter().copied().map(SignedEdge::insert).collect()
    }

    #[test]
    fn engine_run_matches_run_oblivious() {
        let (g, edges) = edges_of(40, 1);
        let mut a = StoreAll::new(40);
        let expect = run_oblivious(&mut a, edges.iter().copied());
        let mut b = StoreAll::new(40);
        let report =
            StreamEngine::new(EngineConfig::batched(16)).run(&mut b, &inserts(&edges)).unwrap();
        assert_eq!(report.final_coloring, expect);
        assert_eq!(report.edges, g.m());
        assert!(report.final_coloring.is_proper_total(&g));
        assert_eq!(report.peak_space_bits, a.peak_space_bits());
    }

    #[test]
    fn chunk_sizes_partition_the_stream() {
        let (_, edges) = edges_of(50, 2);
        for chunk in [1usize, 3, 7, 64, 1000] {
            let mut c = StoreAll::new(50);
            let report = StreamEngine::new(EngineConfig::batched(chunk))
                .run(&mut c, &inserts(&edges))
                .unwrap();
            assert_eq!(report.edges, edges.len());
            assert!(c.batches.iter().all(|&b| b <= chunk));
            assert_eq!(c.batches.iter().sum::<usize>(), edges.len());
            assert_eq!(report.chunks, c.batches.len());
        }
    }

    #[test]
    fn checkpoints_land_on_exact_prefixes() {
        let (_, edges) = edges_of(60, 3);
        assert!(edges.len() > 25, "need a long enough stream");
        let cfg = EngineConfig::batched(8)
            .with_schedule(QuerySchedule::AtPrefixes(vec![5, 17, 25, 10_000]));
        let mut c = StoreAll::new(60);
        let report = StreamEngine::new(cfg).run(&mut c, &inserts(&edges)).unwrap();
        let prefixes: Vec<usize> = report.checkpoints.iter().map(|c| c.prefix_len).collect();
        assert_eq!(prefixes, vec![5, 17, 25]);
        // Each checkpoint is proper for its prefix.
        for cp in &report.checkpoints {
            let prefix = Graph::from_edges(60, edges[..cp.prefix_len].iter().copied());
            assert!(cp.coloring.is_proper_total(&prefix), "prefix {}", cp.prefix_len);
            assert!(cp.space_bits > 0);
        }
    }

    #[test]
    fn unsorted_prefix_schedules_hit_every_point() {
        let (_, edges) = edges_of(60, 6);
        assert!(edges.len() > 25, "need a long enough stream");
        let cfg =
            EngineConfig::batched(8).with_schedule(QuerySchedule::AtPrefixes(vec![25, 5, 17]));
        let mut c = StoreAll::new(60);
        let report = StreamEngine::new(cfg).run(&mut c, &inserts(&edges)).unwrap();
        let prefixes: Vec<usize> = report.checkpoints.iter().map(|c| c.prefix_len).collect();
        assert_eq!(prefixes, vec![5, 17, 25]);
    }

    #[test]
    fn duplicated_prefixes_checkpoint_once() {
        let (_, edges) = edges_of(60, 7);
        assert!(edges.len() > 17, "need a long enough stream");
        let cfg = EngineConfig::batched(8)
            .with_schedule(QuerySchedule::AtPrefixes(vec![5, 5, 17, 5, 17]));
        let mut c = StoreAll::new(60);
        let report = StreamEngine::new(cfg).run(&mut c, &inserts(&edges)).unwrap();
        let prefixes: Vec<usize> = report.checkpoints.iter().map(|c| c.prefix_len).collect();
        assert_eq!(prefixes, vec![5, 17], "duplicates must collapse");
    }

    #[test]
    fn past_end_and_zero_prefixes_are_ignored() {
        let (_, edges) = edges_of(40, 8);
        let m = edges.len();
        let cfg = EngineConfig::batched(8).with_schedule(QuerySchedule::AtPrefixes(vec![
            0,
            m + 1,
            10 * m,
            3,
        ]));
        let mut c = StoreAll::new(40);
        let report = StreamEngine::new(cfg).run(&mut c, &inserts(&edges)).unwrap();
        let prefixes: Vec<usize> = report.checkpoints.iter().map(|c| c.prefix_len).collect();
        assert_eq!(prefixes, vec![3], "prefix 0 and past-end prefixes never fire");
        assert_eq!(report.edges, m, "the final query still covers the whole stream");
    }

    #[test]
    fn every_edges_zero_behaves_as_one() {
        let (_, edges) = edges_of(30, 9);
        let cfg = EngineConfig::batched(4).with_schedule(QuerySchedule::EveryEdges(0));
        let mut c = StoreAll::new(30);
        let report = StreamEngine::new(cfg).run(&mut c, &inserts(&edges)).unwrap();
        let prefixes: Vec<usize> = report.checkpoints.iter().map(|c| c.prefix_len).collect();
        assert_eq!(prefixes, (1..=edges.len()).collect::<Vec<_>>());
    }

    #[test]
    fn interactive_pushes_replay_a_schedule_identically() {
        // The same schedule must fire at the same prefixes whether edges
        // arrive as one slice or one at a time.
        let (_, edges) = edges_of(50, 10);
        let cfg =
            EngineConfig::batched(8).with_schedule(QuerySchedule::AtPrefixes(vec![25, 4, 4, 9]));
        let mut a = StoreAll::new(50);
        let slice_report = StreamEngine::new(cfg.clone()).run(&mut a, &inserts(&edges)).unwrap();
        let mut b = StoreAll::new(50);
        let mut session = Session::borrowing(&mut b, cfg);
        for &e in &edges {
            session.push_signed(SignedEdge::insert(e)).unwrap();
        }
        let push_report = session.finish();
        let slice_prefixes: Vec<usize> =
            slice_report.checkpoints.iter().map(|c| c.prefix_len).collect();
        let push_prefixes: Vec<usize> =
            push_report.checkpoints.iter().map(|c| c.prefix_len).collect();
        assert_eq!(slice_prefixes, push_prefixes);
        assert_eq!(slice_prefixes, vec![4, 9, 25]);
        for (x, y) in slice_report.checkpoints.iter().zip(&push_report.checkpoints) {
            assert_eq!(x.coloring, y.coloring);
        }
    }

    #[test]
    fn every_edges_schedule_is_periodic() {
        let (_, edges) = edges_of(40, 4);
        let cfg = EngineConfig::batched(10).with_schedule(QuerySchedule::EveryEdges(6));
        let mut c = StoreAll::new(40);
        let report = StreamEngine::new(cfg).run(&mut c, &inserts(&edges)).unwrap();
        for (i, cp) in report.checkpoints.iter().enumerate() {
            assert_eq!(cp.prefix_len, 6 * (i + 1));
        }
        assert_eq!(report.checkpoints.len(), edges.len() / 6);
    }

    #[test]
    fn session_interactive_checkpoints() {
        let (_, edges) = edges_of(30, 5);
        let mut c = StoreAll::new(30);
        let mut session = Session::borrowing(&mut c, EngineConfig::per_edge());
        for (i, &e) in edges.iter().enumerate().take(10) {
            session.push_signed(SignedEdge::insert(e)).unwrap();
            let cp = session.checkpoint();
            assert_eq!(cp.prefix_len, i + 1);
        }
        assert_eq!(session.len(), 10);
        let report = session.finish();
        assert_eq!(report.edges, 10);
        assert_eq!(report.checkpoints.len(), 10);
    }

    #[test]
    fn owned_session_replays_borrowed_session_identically() {
        // An owned boxed colorer and a borrowed one drive the same
        // Session code through two forwarding impls; every observable —
        // checkpoint prefixes, colorings, chunk counts, space — must
        // agree for any push pattern.
        let (_, edges) = edges_of(50, 11);
        let cfg = EngineConfig::batched(8).with_schedule(QuerySchedule::AtPrefixes(vec![25, 4, 9]));
        let mut borrowed = StoreAll::new(50);
        let mut session = Session::borrowing(&mut borrowed, cfg.clone());
        let mut owned = Session::new(Box::new(StoreAll::new(50)), cfg);
        assert!(owned.is_empty());
        assert_eq!(owned.algo(), "store-all");
        for chunk in edges.chunks(5) {
            session.push_signed_slice(&inserts(chunk)).unwrap();
            owned.push_signed_slice(&inserts(chunk)).unwrap();
            assert_eq!(session.len(), owned.len());
        }
        let mid_borrowed = session.observe();
        let mid_owned = owned.observe();
        assert_eq!(mid_borrowed.coloring, mid_owned.coloring);
        assert_eq!(mid_borrowed.space_bits, owned.peak_space_bits());
        assert_eq!(owned.pending(), 0, "observe flushes");
        let a = session.finish();
        let b = owned.finish();
        assert_eq!(a.final_coloring, b.final_coloring);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.chunks, b.chunks);
        assert_eq!(a.peak_space_bits, b.peak_space_bits);
        assert_eq!(a.checkpoints.len(), b.checkpoints.len());
        for (x, y) in a.checkpoints.iter().zip(&b.checkpoints) {
            assert_eq!((x.prefix_len, &x.coloring), (y.prefix_len, &y.coloring));
        }
    }

    #[test]
    fn owned_session_checkpoints_and_times_itself() {
        let (_, edges) = edges_of(30, 12);
        let mut owned = Session::new(Box::new(StoreAll::new(30)), EngineConfig::per_edge());
        for (i, &e) in edges.iter().enumerate().take(6) {
            owned.push_signed(SignedEdge::insert(e)).unwrap();
            let cp = owned.checkpoint();
            assert_eq!(cp.prefix_len, i + 1);
        }
        assert_eq!(owned.checkpoints().len(), 6);
        assert!(owned.elapsed() <= owned.elapsed().max(owned.elapsed()));
        let report = owned.finish();
        assert_eq!(report.edges, 6);
        assert_eq!(report.checkpoints.len(), 6);
        // Timing is folded in: the report's clock started at `new`.
        assert!(report.elapsed.as_nanos() > 0);
    }

    #[test]
    fn engine_config_wire_round_trips() {
        let configs = [
            EngineConfig::default(),
            EngineConfig::per_edge(),
            EngineConfig::batched(7).scratch_queries(),
            EngineConfig::batched(1000).with_schedule(QuerySchedule::EveryEdges(10)),
            EngineConfig::default().with_schedule(QuerySchedule::AtPrefixes(vec![5, 17, 25])),
            EngineConfig::default().with_schedule(QuerySchedule::AtPrefixes(Vec::new())),
        ];
        for cfg in configs {
            let text = cfg.wire_encode();
            let back = EngineConfig::wire_decode(&text).unwrap();
            assert_eq!(back, cfg, "wire text {text:?}");
            assert_eq!(back.wire_encode(), text, "re-encoding must be stable");
        }
    }

    #[test]
    fn engine_config_wire_rejects_malformed_text() {
        for bad in [
            "",
            "chunk=4",
            "chunk=4;schedule=final",
            "chunk=x;schedule=final;incremental=true",
            "chunk=4;schedule=sometimes;incremental=true",
            "chunk=4;schedule=final;incremental=maybe",
            "chunk=4;schedule=final;incremental=true;bogus=1",
        ] {
            assert!(EngineConfig::wire_decode(bad).is_err(), "{bad:?} must not decode");
        }
        assert!(QuerySchedule::wire_decode("every:").is_err());
        assert!(QuerySchedule::wire_decode("at:1,x").is_err());
    }

    #[test]
    fn empty_stream_report() {
        let mut c = StoreAll::new(5);
        let report = StreamEngine::default().run(&mut c, &[]).unwrap();
        assert_eq!(report.edges, 0);
        assert_eq!(report.chunks, 0);
        assert!(report.checkpoints.is_empty());
        assert!(report.final_coloring.is_total());
    }

    /// A toy deletion-supporting colorer: stores the live multiset
    /// verbatim (the dynamic analogue of [`StoreAll`]).
    struct DynStore {
        n: usize,
        live: DynamicSupport,
    }

    impl DynStore {
        fn new(n: usize) -> Self {
            Self { n, live: DynamicSupport::new() }
        }
    }

    impl StreamingColorer for DynStore {
        fn process(&mut self, e: Edge) {
            self.live.apply(SignedEdge::insert(e)).expect("insertions never underflow");
        }
        fn supports_deletions(&self) -> bool {
            true
        }
        fn process_signed(&mut self, t: SignedEdge) -> Result<(), String> {
            self.live.apply(t)
        }
        fn query(&mut self) -> Coloring {
            let g = Graph::from_edges(self.n, self.live.live_edges());
            let mut c = Coloring::empty(self.n);
            sc_graph::greedy_complete(&g, &mut c);
            c
        }
        fn peak_space_bits(&self) -> u64 {
            1
        }
        fn encode_state(&self) -> Result<String, String> {
            let mut w = crate::state::StateWriter::new(self.name());
            w.field("live", self.live.encode());
            Ok(w.finish())
        }
        fn decode_state(&mut self, state: &str) -> Result<(), String> {
            let mut r = crate::state::StateReader::new(state, self.name())?;
            self.live = DynamicSupport::decode(r.expect("live")?, self.n)?;
            r.done()
        }
        fn name(&self) -> &'static str {
            "dyn-toy"
        }
    }

    /// A small churny token stream over `n` vertices: inserts a gnp
    /// graph's edges and deletes every third one again mid-stream.
    fn churn_tokens(n: usize, seed: u64) -> (Graph, Vec<SignedEdge>) {
        let g = generators::gnp_with_max_degree(n, 6, 0.4, seed);
        let edges = generators::shuffled_edges(&g, seed);
        let mut tokens = Vec::new();
        let mut deleted = Vec::new();
        for (i, &e) in edges.iter().enumerate() {
            tokens.push(SignedEdge::insert(e));
            if i % 3 == 2 {
                tokens.push(SignedEdge::delete(e));
                deleted.push(e);
            }
        }
        let live = Graph::from_edges(n, edges.iter().copied().filter(|e| !deleted.contains(e)));
        (live, tokens)
    }

    #[test]
    fn signed_runs_are_chunking_invariant_and_color_the_live_graph() {
        let (live, tokens) = churn_tokens(40, 21);
        let mut baseline = DynStore::new(40);
        for &t in &tokens {
            baseline.process_signed(t).unwrap();
        }
        let expect = baseline.query();
        assert!(expect.is_proper_total(&live));
        for chunk in [1usize, 3, 8, 64, 1000] {
            let mut c = DynStore::new(40);
            let report =
                StreamEngine::new(EngineConfig::batched(chunk)).run(&mut c, &tokens).unwrap();
            assert_eq!(report.final_coloring, expect, "chunk={chunk}");
            assert_eq!(report.edges, tokens.len(), "prefixes count tokens");
            assert!(report.final_coloring.is_proper_total(&live));
        }
    }

    #[test]
    fn signed_push_rejects_underflow_atomically() {
        let mut c = DynStore::new(10);
        let mut session = Session::borrowing(&mut c, EngineConfig::batched(4));
        session.push_signed(SignedEdge::insert(Edge::new(0, 1))).unwrap();
        let before_len = session.len();
        let err = session
            .push_signed_slice(&[
                SignedEdge::insert(Edge::new(1, 2)),
                SignedEdge::delete(Edge::new(5, 6)),
            ])
            .unwrap_err();
        assert!(err.contains("(5, 6)") && err.contains("never inserted"), "{err}");
        assert_eq!(session.len(), before_len, "failed batch must not stage anything");
        assert_eq!(session.support().unwrap().distinct(), 1);
        // A legal delete (after its insert) goes through.
        session
            .push_signed_slice(&[
                SignedEdge::insert(Edge::new(1, 2)),
                SignedEdge::delete(Edge::new(0, 1)),
            ])
            .unwrap();
        assert_eq!(
            session.support().unwrap().live_edges().collect::<Vec<_>>(),
            vec![Edge::new(1, 2)]
        );
    }

    #[test]
    fn signed_push_names_insert_only_offenders() {
        let mut c = StoreAll::new(10);
        let mut session = Session::borrowing(&mut c, EngineConfig::per_edge());
        assert!(session.support().is_none(), "insert-only sessions carry no support");
        session.push_signed(SignedEdge::insert(Edge::new(0, 1))).unwrap();
        let err = session.push_signed(SignedEdge::delete(Edge::new(0, 1))).unwrap_err();
        assert!(
            err.contains("store-all") && err.contains("(0, 1)") && err.contains("insert-only"),
            "error must name the colorer and the edge: {err}"
        );
        assert_eq!(session.len(), 1, "rejected delete must not be staged");
    }

    #[test]
    fn signed_snapshot_restores_mid_stream_exactly() {
        let (_, tokens) = churn_tokens(30, 22);
        let cfg = EngineConfig::batched(7).with_schedule(QuerySchedule::EveryEdges(5));
        // Uninterrupted reference.
        let mut reference = Session::new(Box::new(DynStore::new(30)), cfg.clone());
        reference.push_signed_slice(&tokens).unwrap();
        let expect = reference.finish();

        // Snapshot at an awkward cut (mid-chunk), restore, resume.
        let cut = tokens.len() / 2 + 1;
        let mut first = Session::new(Box::new(DynStore::new(30)), cfg);
        first.push_signed_slice(&tokens[..cut]).unwrap();
        let snap = first.snapshot().unwrap();
        assert!(snap.support.is_some(), "dynamic sessions snapshot their support");
        let mut resumed = Session::restore(Box::new(DynStore::new(30)), snap).unwrap();
        resumed.push_signed_slice(&tokens[cut..]).unwrap();
        let got = resumed.finish();

        assert_eq!(got.final_coloring, expect.final_coloring);
        assert_eq!(got.edges, expect.edges);
        assert_eq!(got.chunks, expect.chunks);
        let a: Vec<usize> = expect.checkpoints.iter().map(|c| c.prefix_len).collect();
        let b: Vec<usize> = got.checkpoints[..].iter().map(|c| c.prefix_len).collect();
        assert_eq!(a[a.len() - b.len()..], b[..], "resumed session replays the schedule tail");
    }

    #[test]
    fn restore_rejects_support_mismatches() {
        let mut dynamic = Session::new(Box::new(DynStore::new(8)), EngineConfig::default());
        dynamic.push_signed(SignedEdge::insert(Edge::new(0, 1))).unwrap();
        let mut snap = dynamic.snapshot().unwrap();
        snap.support = None;
        let err = match Session::restore(Box::new(DynStore::new(8)), snap) {
            Ok(_) => panic!("support-less snapshot must not restore a dynamic colorer"),
            Err(e) => e,
        };
        assert!(err.contains("missing the dynamic support"), "{err}");
    }
}
