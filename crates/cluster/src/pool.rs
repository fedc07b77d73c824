//! The work-stealing worker pool: dispatch shard slices to whichever
//! worker is idle, absorb dead workers and stragglers, speculate on the
//! slow ones, merge byte-identically.
//!
//! The pool owns N [`Transport`]s and one invariant: **scheduling never
//! changes the merged bytes**. That holds because the unit of dispatch
//! is a deterministic [`partition`](sc_engine::shard::partition) slice —
//! `(spec, shard, of)` names the same work on every worker — so steals,
//! retries, and speculative duplicates are all just "send the same line
//! to another worker". Shard count is fixed before the first send (it
//! determines the partition), which is why re-dispatch re-uses slices
//! instead of re-partitioning around a dead worker.
//!
//! Two scheduling modes:
//!
//! * **stealing** (default) — each live worker holds at most one
//!   outstanding slice; idle workers pull the next slice from a shared
//!   queue, so a slow or loaded worker bounds only its own slice, not
//!   the dispatch. With [`WorkerPool::with_speculation`], a slice held
//!   past a *soft* deadline (a fraction of the straggler timeout) is
//!   additionally launched on an idle healthy worker and the first
//!   answer wins — free, because both answers carry identical bytes.
//! * **static** ([`WorkerPool::with_static_dispatch`]) — the
//!   fixed-partition shape: every slice is assigned up front to the
//!   shortest queue. Used only as the baseline `exp_cluster`'s
//!   skewed-fleet comparison measures stealing against; no CLI flag
//!   selects it.

use crate::transport::{Transport, TransportError};
use sc_engine::flatjson::{encode_object, parse_object, FlatObject, Scalar};
use sc_engine::shard::{decode_worker_output, ShardJob, ShardOutcome};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// What a dispatch produced, beyond the merged outcome: the observability
/// the stealing/straggler/retry machinery owes its caller.
#[derive(Debug)]
pub struct DispatchReport {
    /// The merged job result — byte-identical to
    /// [`run_in_process`](sc_engine::shard::run_in_process).
    pub outcome: ShardOutcome,
    /// Shards the job was split into (`min(live workers, job items)`,
    /// at least 1).
    pub shards: usize,
    /// Shard slices re-dispatched after a worker failure.
    pub retries: usize,
    /// Speculative duplicate launches (a slice held past the soft
    /// deadline sent to a second worker; zero unless
    /// [`WorkerPool::with_speculation`] enabled them).
    pub speculative: usize,
    /// Duplicate answers observed for slices already merged — the cost
    /// side of speculation. Undercounts duplicates still in flight when
    /// the dispatch completes (they are discarded by tag next dispatch).
    pub wasted: usize,
    /// Human-readable worker-failure log, in detection order.
    pub failures: Vec<String>,
}

struct Worker {
    transport: Box<dyn Transport>,
    alive: bool,
    /// Shard ids awaiting responses from this worker, FIFO.
    queue: VecDeque<usize>,
    /// When the current queue head became this worker's oldest
    /// outstanding slice — the anchor for both the hard straggler
    /// deadline and the soft speculation deadline.
    head_since: Instant,
}

/// Everything one `dispatch` call tracks, threaded through the helpers.
struct DispatchState {
    spec: String,
    tag: String,
    shards: usize,
    parts: Vec<Option<ShardOutcome>>,
    /// Slices not yet handed to any worker, FIFO.
    pending: VecDeque<usize>,
    /// Slices that already got their one speculative duplicate.
    speculated: Vec<bool>,
    retries: usize,
    speculative: usize,
    wasted: usize,
    failures: Vec<String>,
}

/// N transports + a straggler deadline.
///
/// ```no_run
/// use sc_cluster::{InProcess, WorkerPool};
/// use sc_engine::shard::{smoke_grid, ShardJob};
///
/// let transports: Vec<_> = (0..4)
///     .map(|_| Box::new(InProcess::new()) as Box<dyn sc_cluster::Transport>)
///     .collect();
/// let report = WorkerPool::new(transports).dispatch(&ShardJob::Grid(smoke_grid())).unwrap();
/// println!("{}", report.outcome.encode());
/// ```
pub struct WorkerPool {
    workers: Vec<Worker>,
    timeout: Duration,
    /// Soft deadline as a fraction of `timeout`; `None` disables
    /// speculative re-dispatch.
    speculate_after: Option<f64>,
    /// Eager fixed-partition assignment instead of work stealing.
    static_dispatch: bool,
    /// Dispatches run so far — the per-dispatch session tag (`jobN-…`)
    /// that lets the collector recognize and discard stale responses
    /// left in-flight by an aborted earlier dispatch.
    dispatches: usize,
}

/// Default straggler deadline: generous, because a false positive costs
/// a duplicate slice run while a false negative only delays the merge.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(600);

/// How long one poll of a busy worker waits before moving to the next.
/// Bounds steal/deadline-detection latency at `busy workers × tick`
/// without hot-spinning (transports sleep inside `recv`).
const POLL_TICK: Duration = Duration::from_millis(5);

impl WorkerPool {
    /// A pool over `transports`.
    pub fn new(transports: Vec<Box<dyn Transport>>) -> Self {
        let workers = transports
            .into_iter()
            .map(|transport| Worker {
                transport,
                alive: true,
                queue: VecDeque::new(),
                head_since: Instant::now(),
            })
            .collect();
        Self {
            workers,
            timeout: DEFAULT_TIMEOUT,
            speculate_after: None,
            static_dispatch: false,
            dispatches: 0,
        }
    }

    /// Sets the per-slice straggler deadline.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Enables speculative re-dispatch: a slice held past
    /// `fraction × timeout` is also launched on an idle healthy worker,
    /// first answer wins. At most one duplicate per slice; pending
    /// (never-launched) slices always take priority over duplicates.
    ///
    /// # Panics
    /// `fraction` must be in `(0, 1]` — a duplicate before the work is
    /// even expected to finish, or after the hard deadline already
    /// fired, is a configuration bug.
    #[must_use]
    pub fn with_speculation(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "speculation fraction must be in (0, 1], got {fraction}"
        );
        self.speculate_after = Some(fraction);
        self
    }

    /// Switches to eager fixed-partition assignment (every slice placed
    /// on the shortest queue before collection starts). Used only as
    /// the `exp_cluster` skew baseline that stealing is measured
    /// against.
    #[must_use]
    pub fn with_static_dispatch(mut self) -> Self {
        self.static_dispatch = true;
        self
    }

    /// Workers still considered healthy.
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Runs the whole job across the pool and merges the shard outputs.
    ///
    /// Dead workers and stragglers are survivable: their slices are
    /// re-dispatched to healthy workers (never back to a failed one).
    /// The pool stays usable afterwards — dead workers stay excluded
    /// from later dispatches.
    ///
    /// # Errors
    /// Errors when no workers remain for an outstanding shard or on an
    /// `"ok":false` job response (every worker would answer the same) —
    /// both with messages embedding the failure log. Malformed or
    /// desynced responses are *worker* failures and re-dispatch instead.
    pub fn dispatch(&mut self, job: &ShardJob) -> Result<DispatchReport, String> {
        let job = job.canonicalize()?;
        let spec = job.encode();
        // The dispatch tag namespaces this round's session ids, so a
        // response left in-flight by an aborted earlier dispatch can be
        // recognized and discarded instead of merged into this job.
        self.dispatches += 1;
        let tag = format!("job{}", self.dispatches);
        for w in &mut self.workers {
            w.queue.clear();
        }
        let live = self.live_workers();
        if live == 0 {
            return Err("worker pool has no live workers".to_string());
        }
        let shards = live.min(job.len()).max(1);

        let mut st = DispatchState {
            spec,
            tag,
            shards,
            parts: (0..shards).map(|_| None).collect(),
            pending: (0..shards).collect(),
            speculated: vec![false; shards],
            retries: 0,
            speculative: 0,
            wasted: 0,
            failures: Vec::new(),
        };

        while st.parts.iter().any(Option::is_none) {
            self.fill(&mut st)?;
            let busy: Vec<usize> = (0..self.workers.len())
                .filter(|&i| self.workers[i].alive && !self.workers[i].queue.is_empty())
                .collect();
            if busy.is_empty() {
                let shard = match st.pending.front() {
                    Some(&s) => s,
                    None => st.parts.iter().position(Option::is_none).expect("loop guard"),
                };
                return Err(format!(
                    "no live worker left for shard {shard} ({})",
                    st.failures.join("; ")
                ));
            }
            let tick = POLL_TICK.min(self.timeout);
            for w in busy {
                // Earlier polls this round may have killed or drained
                // this worker (a desync report, a speculative send).
                if !self.workers[w].alive || self.workers[w].queue.is_empty() {
                    continue;
                }
                match self.workers[w].transport.recv(tick) {
                    Ok(line) => self.accept(w, &line, &mut st)?,
                    Err(TransportError::Timeout(_)) => {
                        let waited = self.workers[w].head_since.elapsed();
                        if waited >= self.timeout {
                            let msg = TransportError::Timeout(self.timeout).to_string();
                            self.fail_worker(w, &msg, &mut st);
                        } else if let Some(fraction) = self.speculate_after {
                            let head = *self.workers[w].queue.front().expect("busy worker");
                            if !st.speculated[head]
                                && st.parts[head].is_none()
                                && waited >= self.timeout.mul_f64(fraction)
                            {
                                self.speculate(head, w, &mut st);
                            }
                        }
                    }
                    Err(e) => {
                        let msg = e.to_string();
                        self.fail_worker(w, &msg, &mut st);
                    }
                }
            }
        }

        let outcome =
            ShardOutcome::merge(st.parts.into_iter().map(|p| p.expect("loop filled every part")))?;
        Ok(DispatchReport {
            outcome,
            shards,
            retries: st.retries,
            speculative: st.speculative,
            wasted: st.wasted,
            failures: st.failures,
        })
    }

    /// Hands pending slices to workers: stealing mode gives one slice to
    /// each idle live worker; static mode eagerly drains the queue onto
    /// the shortest queues (the fixed-partition baseline).
    fn fill(&mut self, st: &mut DispatchState) -> Result<(), String> {
        if self.static_dispatch {
            while let Some(shard) = st.pending.pop_front() {
                self.assign(shard, st)?;
            }
            return Ok(());
        }
        while !st.pending.is_empty() {
            let Some(w) = (0..self.workers.len())
                .find(|&i| self.workers[i].alive && self.workers[i].queue.is_empty())
            else {
                return Ok(());
            };
            let shard = st.pending.pop_front().expect("checked non-empty");
            match self.workers[w].transport.send(&job_line(&st.spec, shard, st.shards, &st.tag)) {
                Ok(()) => {
                    self.workers[w].queue.push_back(shard);
                    self.workers[w].head_since = Instant::now();
                }
                Err(e) => {
                    // The slice never reached a worker — hand it to the
                    // next idle one without counting a retry.
                    let msg = e.to_string();
                    self.fail_worker(w, &msg, st);
                    st.pending.push_front(shard);
                }
            }
        }
        Ok(())
    }

    /// Static-mode placement: sends `shard` to the healthiest worker
    /// (shortest queue, lowest index — deterministic), excluding dead
    /// ones. A failed send marks that worker dead, re-queues any shards
    /// it was already holding (they were dispatched once, so they count
    /// as retries), and moves on.
    fn assign(&mut self, shard: usize, st: &mut DispatchState) -> Result<(), String> {
        let mut pending = vec![shard];
        while let Some(shard) = pending.pop() {
            loop {
                let target = (0..self.workers.len())
                    .filter(|&i| self.workers[i].alive)
                    .min_by_key(|&i| (self.workers[i].queue.len(), i));
                let Some(w) = target else {
                    return Err(format!(
                        "no live worker left for shard {shard} ({})",
                        st.failures.join("; ")
                    ));
                };
                match self.workers[w].transport.send(&job_line(&st.spec, shard, st.shards, &st.tag))
                {
                    Ok(()) => {
                        if self.workers[w].queue.is_empty() {
                            self.workers[w].head_since = Instant::now();
                        }
                        self.workers[w].queue.push_back(shard);
                        break;
                    }
                    Err(e) => {
                        st.failures.push(format!("{}: {e}", self.workers[w].transport.describe()));
                        self.workers[w].alive = false;
                        // Shards this worker already held would be
                        // silently lost otherwise — orphan them too.
                        let orphaned = self.workers[w].queue.drain(..);
                        st.retries += orphaned.len();
                        pending.extend(orphaned);
                    }
                }
            }
        }
        Ok(())
    }

    /// Launches a speculative duplicate of `shard` (held by `holder`) on
    /// an idle healthy worker, if one exists. At most one duplicate per
    /// slice; a failed duplicate send kills only the idle worker and
    /// leaves the slice eligible for the next tick.
    fn speculate(&mut self, shard: usize, holder: usize, st: &mut DispatchState) {
        let Some(v) = (0..self.workers.len())
            .find(|&i| i != holder && self.workers[i].alive && self.workers[i].queue.is_empty())
        else {
            return;
        };
        match self.workers[v].transport.send(&job_line(&st.spec, shard, st.shards, &st.tag)) {
            Ok(()) => {
                self.workers[v].queue.push_back(shard);
                self.workers[v].head_since = Instant::now();
                st.speculated[shard] = true;
                st.speculative += 1;
            }
            Err(e) => {
                let msg = e.to_string();
                self.fail_worker(v, &msg, st);
            }
        }
    }

    /// Validates one response line from worker `w`: discard stale lines
    /// from aborted dispatches, fail the worker on malformed/desynced
    /// responses, merge (or count as wasted) a valid slice output.
    ///
    /// # Errors
    /// Only for the fatal `"ok":false` job rejection — every other
    /// malformation is a *worker* failure handled internally.
    fn accept(&mut self, w: usize, line: &str, st: &mut DispatchState) -> Result<(), String> {
        let head = *self.workers[w].queue.front().expect("busy worker has a head");
        let want = format!("{}-shard-{head}", st.tag);
        let obj = match parse_object(line) {
            Ok(obj) => obj,
            Err(e) => {
                self.fail_worker(w, &format!("unparseable response: {e}"), st);
                return Ok(());
            }
        };
        // Correlate before anything else: a response tagged by an
        // earlier dispatch is stale in-flight data (that dispatch
        // aborted before collecting it) — drop it and poll on. Only a
        // mistag *within* this dispatch means the worker stream is
        // desynced beyond use.
        let session = obj.get("session").and_then(Scalar::as_str).unwrap_or_default().to_string();
        if !session.starts_with(&format!("{}-", st.tag)) {
            return Ok(());
        }
        if session != want {
            self.fail_worker(
                w,
                &format!(
                    "response for {session:?} arrived while {want:?} was expected (worker stream \
                     desynced)"
                ),
                st,
            );
            return Ok(());
        }
        match obj.get("ok").and_then(Scalar::as_bool) {
            Some(true) => {}
            // An explicit rejection is a *job* error: the worker
            // followed the protocol, and every healthy worker would
            // answer the same — abort instead of retrying.
            Some(false) => {
                let why = obj.get("error").and_then(Scalar::as_str).unwrap_or("unspecified");
                return Err(format!("worker rejected shard {head}: {why}"));
            }
            None => {
                self.fail_worker(w, &format!("response without \"ok\": {line}"), st);
                return Ok(());
            }
        }
        // From here every malformation is a corrupt worker (an honest
        // endpoint built this output with `encode_worker_output`) —
        // retry the slice elsewhere.
        let Some(output) = obj.get("output").and_then(Scalar::as_str) else {
            self.fail_worker(w, &format!("ok response without an \"output\" field: {line}"), st);
            return Ok(());
        };
        let (shard, of, outcome) = match decode_worker_output(output) {
            Ok(decoded) => decoded,
            Err(e) => {
                self.fail_worker(w, &format!("shard {head} output: {e}"), st);
                return Ok(());
            }
        };
        if (shard, of) != (head, st.shards) {
            self.fail_worker(
                w,
                &format!(
                    "worker output claims shard {shard} of {of} (expected {head} of {})",
                    st.shards
                ),
                st,
            );
            return Ok(());
        }
        self.workers[w].queue.pop_front();
        self.workers[w].head_since = Instant::now();
        if st.parts[head].is_none() {
            st.parts[head] = Some(outcome);
        } else {
            // A speculative twin already merged this slice; identical
            // bytes, so the only loss is the duplicate compute.
            st.wasted += 1;
        }
        Ok(())
    }

    /// Records `w`'s failure, marks it dead, and re-queues its orphaned
    /// slices — except ones already merged or still held by a live
    /// speculative twin (re-running those would only add waste).
    fn fail_worker(&mut self, w: usize, message: &str, st: &mut DispatchState) {
        st.failures.push(format!("{}: {message}", self.workers[w].transport.describe()));
        self.workers[w].alive = false;
        let orphaned: Vec<usize> = self.workers[w].queue.drain(..).collect();
        for shard in orphaned {
            if st.parts[shard].is_some() {
                continue;
            }
            let held_by_twin = self.workers.iter().any(|v| v.alive && v.queue.contains(&shard));
            if held_by_twin {
                continue;
            }
            st.retries += 1;
            st.pending.push_back(shard);
        }
    }
}

/// The dispatch line for one shard: the `run_job` command with the whole
/// spec file as a string field, session-tagged per dispatch (see the
/// crate docs for the contract).
fn job_line(spec: &str, shard: usize, of: usize, tag: &str) -> String {
    let mut obj = FlatObject::new();
    obj.insert("cmd".into(), Scalar::Str("run_job".into()));
    obj.insert("session".into(), Scalar::Str(format!("{tag}-shard-{shard}")));
    obj.insert("spec".into(), Scalar::Str(spec.to_string()));
    obj.insert("shard".into(), Scalar::Uint(shard as u64));
    obj.insert("of".into(), Scalar::Uint(of as u64));
    encode_object(&obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{InProcess, Unreliable};
    use sc_engine::shard::run_in_process;
    use sc_engine::{ColorerSpec, Scenario, SourceSpec};

    fn small_grid() -> ShardJob {
        ShardJob::Grid(
            (0..5)
                .map(|i| {
                    Scenario::new(SourceSpec::exact_degree(40, 4, i), ColorerSpec::StoreAll)
                        .with_seed(i)
                })
                .collect(),
        )
    }

    fn loopback_pool(workers: usize) -> WorkerPool {
        WorkerPool::new(
            (0..workers).map(|_| Box::new(InProcess::new()) as Box<dyn Transport>).collect(),
        )
    }

    #[test]
    fn loopback_dispatch_matches_in_process_bytes() {
        let job = small_grid();
        let reference = run_in_process(&job, 1).unwrap().encode();
        for workers in [1usize, 2, 3, 7] {
            let report = loopback_pool(workers).dispatch(&job).unwrap();
            assert_eq!(report.outcome.encode(), reference, "{workers} loopback workers diverged");
            assert_eq!(report.shards, workers.min(5));
            assert_eq!(report.retries, 0);
            assert_eq!(report.speculative, 0, "speculation must be off by default");
            assert!(report.failures.is_empty());
        }
    }

    #[test]
    fn static_dispatch_matches_in_process_bytes() {
        let job = small_grid();
        let reference = run_in_process(&job, 1).unwrap().encode();
        for workers in [1usize, 3, 7] {
            let report = loopback_pool(workers).with_static_dispatch().dispatch(&job).unwrap();
            assert_eq!(report.outcome.encode(), reference, "{workers} static workers diverged");
            assert_eq!(report.shards, workers.min(5));
            assert_eq!(report.retries, 0);
        }
    }

    #[test]
    fn empty_jobs_dispatch_to_one_empty_shard() {
        let job = ShardJob::Grid(Vec::new());
        let report = loopback_pool(3).dispatch(&job).unwrap();
        assert_eq!(report.outcome.encode(), "[]\n");
        assert_eq!(report.shards, 1);
    }

    #[test]
    fn single_item_jobs_dispatch_to_one_shard_with_idle_workers() {
        // A 1-item job across 4 workers: one shard, three workers never
        // touched, merge still byte-identical (the stealing queue must
        // not invent work for idle workers).
        let job = ShardJob::Grid(vec![Scenario::new(
            SourceSpec::exact_degree(40, 4, 9),
            ColorerSpec::StoreAll,
        )]);
        let reference = run_in_process(&job, 1).unwrap().encode();
        let report = loopback_pool(4).dispatch(&job).unwrap();
        assert_eq!(report.outcome.encode(), reference);
        assert_eq!(report.shards, 1);
        assert_eq!(report.retries, 0);
        assert!(report.failures.is_empty());
    }

    #[test]
    fn injected_worker_death_triggers_retry_with_identical_bytes() {
        let job = small_grid();
        let reference = run_in_process(&job, 1).unwrap().encode();
        // Worker 1 dies before answering its first shard.
        let transports: Vec<Box<dyn Transport>> = vec![
            Box::new(InProcess::new()),
            Box::new(Unreliable::dying_after(InProcess::new(), 0)),
            Box::new(InProcess::new()),
        ];
        let mut pool = WorkerPool::new(transports);
        let report = pool.dispatch(&job).unwrap();
        assert_eq!(report.outcome.encode(), reference, "retried merge diverged");
        assert_eq!(report.retries, 1);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("injected worker death"));
        assert_eq!(pool.live_workers(), 2);
        // The pool survives: a second dispatch excludes the dead worker.
        let again = pool.dispatch(&job).unwrap();
        assert_eq!(again.outcome.encode(), reference);
        assert_eq!(again.shards, 2, "dead worker must stay excluded");
        assert_eq!(again.retries, 0);
    }

    #[test]
    fn all_but_one_worker_dead_mid_steal_still_merges_identically() {
        // Four workers, three die on their first answer: every orphaned
        // slice must funnel to the one survivor through the steal queue.
        let job = small_grid();
        let reference = run_in_process(&job, 1).unwrap().encode();
        let transports: Vec<Box<dyn Transport>> = vec![
            Box::new(InProcess::new()),
            Box::new(Unreliable::dying_after(InProcess::new(), 0)),
            Box::new(Unreliable::dying_after(InProcess::new(), 0)),
            Box::new(Unreliable::dying_after(InProcess::new(), 0)),
        ];
        let mut pool = WorkerPool::new(transports);
        let report = pool.dispatch(&job).unwrap();
        assert_eq!(report.outcome.encode(), reference, "survivor merge diverged");
        assert_eq!(report.shards, 4);
        assert_eq!(report.retries, 3, "{:?}", report.failures);
        assert_eq!(report.failures.len(), 3, "{:?}", report.failures);
        assert_eq!(pool.live_workers(), 1);
    }

    /// Computes answers eagerly (an [`InProcess`] loopback) but reports
    /// a straggle on its first `polls_left` receives, without consuming
    /// wall-clock time — so speculation races play out deterministically
    /// in poll-round order instead of depending on sleep timing.
    struct CountedDelay {
        inner: InProcess,
        polls_left: usize,
    }

    impl Transport for CountedDelay {
        fn describe(&self) -> String {
            "counted-delay".to_string()
        }

        fn send(&mut self, line: &str) -> Result<(), crate::transport::TransportError> {
            self.inner.send(line)
        }

        fn recv(
            &mut self,
            timeout: std::time::Duration,
        ) -> Result<String, crate::transport::TransportError> {
            if self.polls_left > 0 {
                self.polls_left -= 1;
                return Err(crate::transport::TransportError::Timeout(timeout));
            }
            self.inner.recv(timeout)
        }
    }

    #[test]
    fn speculation_races_the_original_and_first_answer_wins() {
        // A near-zero soft deadline makes every straggling slice
        // speculation-eligible on its first timed-out poll, so the race
        // unfolds deterministically in poll-round order:
        //   round 1 — w1 answers its slice; w2's slice (6 polls of
        //             delay) speculates onto the now-idle w1;
        //   round 2 — w1's duplicate answers first: the *duplicate*
        //             wins, w2's eventual answer is left in flight;
        //   round 3 — w0's slice (3 polls) speculates onto w1;
        //   round 4 — w0's own answer lands first, then w1's duplicate:
        //             the *original* wins and the duplicate is wasted.
        // Both race directions resolve to byte-identical merges.
        let job = small_grid();
        let reference = run_in_process(&job, 1).unwrap().encode();
        let transports: Vec<Box<dyn Transport>> = vec![
            Box::new(CountedDelay { inner: InProcess::new(), polls_left: 3 }),
            Box::new(InProcess::new()),
            Box::new(CountedDelay { inner: InProcess::new(), polls_left: 6 }),
        ];
        let mut pool = WorkerPool::new(transports)
            .with_timeout(Duration::from_secs(600))
            .with_speculation(1e-9);
        let report = pool.dispatch(&job).unwrap();
        assert_eq!(report.outcome.encode(), reference, "speculative merge diverged");
        assert_eq!(report.shards, 3);
        assert_eq!(report.retries, 0, "{:?}", report.failures);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.speculative, 2, "both stragglers must speculate");
        assert_eq!(report.wasted, 1, "w1's late duplicate must be counted, not merged");
        assert_eq!(pool.live_workers(), 3, "slow is not dead");
        // The pool stays clean: w2's answer was still in flight when the
        // dispatch completed; the next dispatch must discard it by its
        // stale tag, not merge it.
        let again = pool.dispatch(&job).unwrap();
        assert_eq!(again.outcome.encode(), reference, "post-speculation merge diverged");
    }

    #[test]
    #[should_panic(expected = "speculation fraction")]
    fn out_of_range_speculation_fractions_are_rejected() {
        let _ = loopback_pool(1).with_speculation(1.5);
    }

    /// Send succeeds `sends_left` times, then the pipe is dead — the
    /// deterministic stand-in for a worker lost *between* dispatches to
    /// it (its already-queued shards must not be orphaned).
    struct FlakySend {
        inner: InProcess,
        sends_left: usize,
    }

    impl Transport for FlakySend {
        fn describe(&self) -> String {
            "flaky-send".to_string()
        }

        fn send(&mut self, line: &str) -> Result<(), crate::transport::TransportError> {
            if self.sends_left == 0 {
                return Err(crate::transport::TransportError::Closed("flaky pipe".to_string()));
            }
            self.sends_left -= 1;
            self.inner.send(line)
        }

        fn recv(
            &mut self,
            timeout: std::time::Duration,
        ) -> Result<String, crate::transport::TransportError> {
            self.inner.recv(timeout)
        }
    }

    #[test]
    fn send_failure_requeues_the_dead_workers_held_shards() {
        // Static (eager) mode, where a worker holds several shards at
        // once: w0 accepts one send then dies; w1 is dead from the
        // start; w2 is healthy. Assignment: shard 0 → w0, shard 1 →
        // (w1 fails) → w2, shard 2 → w0 whose send now fails *while it
        // still holds shard 0* — both must land on w2, not be orphaned.
        let job = small_grid();
        let reference = run_in_process(&job, 1).unwrap().encode();
        let fleet: Vec<Box<dyn Transport>> = vec![
            Box::new(FlakySend { inner: InProcess::new(), sends_left: 1 }),
            Box::new(FlakySend { inner: InProcess::new(), sends_left: 0 }),
            Box::new(InProcess::new()),
        ];
        let mut pool = WorkerPool::new(fleet).with_static_dispatch();
        let report = pool.dispatch(&job).unwrap();
        assert_eq!(report.outcome.encode(), reference, "requeued merge diverged");
        assert_eq!(report.shards, 3);
        // Shard 0 had been dispatched once, so its re-send is a retry;
        // shard 2 was being assigned for the first time and is not.
        assert_eq!(report.retries, 1, "{:?}", report.failures);
        assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
        assert_eq!(pool.live_workers(), 1);
    }

    #[test]
    fn stealing_send_failure_hands_the_undispatched_slice_onward() {
        // The stealing analogue: a send failure before the slice ever
        // ran is a failure but *not* a retry — the slice just moves to
        // the next idle worker.
        let job = small_grid();
        let reference = run_in_process(&job, 1).unwrap().encode();
        let fleet: Vec<Box<dyn Transport>> = vec![
            Box::new(FlakySend { inner: InProcess::new(), sends_left: 0 }),
            Box::new(InProcess::new()),
        ];
        let mut pool = WorkerPool::new(fleet);
        let report = pool.dispatch(&job).unwrap();
        assert_eq!(report.outcome.encode(), reference, "handed-on merge diverged");
        assert_eq!(report.shards, 2);
        assert_eq!(report.retries, 0, "{:?}", report.failures);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert_eq!(pool.live_workers(), 1);
    }

    #[test]
    fn stale_inflight_lines_are_discarded_not_merged() {
        // A response already sitting in the transport when a dispatch
        // starts (the residue of an aborted earlier dispatch) must be
        // recognized by its missing dispatch tag and skipped — merging
        // it would silently corrupt this job's bytes.
        let job = small_grid();
        let reference = run_in_process(&job, 1).unwrap().encode();
        let mut polluted = InProcess::new();
        polluted.send(r#"{"cmd":"stats","session":"stale"}"#).unwrap();
        let mut pool = WorkerPool::new(vec![Box::new(polluted) as Box<dyn Transport>]);
        let report = pool.dispatch(&job).unwrap();
        assert_eq!(report.outcome.encode(), reference, "stale line leaked into the merge");
        assert!(report.failures.is_empty(), "{:?}", report.failures);
    }

    /// Refuses its first dispatch with a protocol-correct `ok:false`
    /// (echoing the session tag), then behaves like a loopback worker.
    struct RefuseOnce {
        inner: InProcess,
        refusal: Option<String>,
        refused: bool,
    }

    impl Transport for RefuseOnce {
        fn describe(&self) -> String {
            "refuse-once".to_string()
        }

        fn send(&mut self, line: &str) -> Result<(), crate::transport::TransportError> {
            if self.refused {
                return self.inner.send(line);
            }
            let session = parse_object(line).unwrap()["session"].as_str().unwrap().to_string();
            self.refusal =
                Some(format!(r#"{{"error":"refused","ok":false,"session":"{session}"}}"#));
            Ok(())
        }

        fn recv(
            &mut self,
            timeout: std::time::Duration,
        ) -> Result<String, crate::transport::TransportError> {
            match self.refusal.take() {
                Some(line) => {
                    self.refused = true;
                    Ok(line)
                }
                None => self.inner.recv(timeout),
            }
        }
    }

    #[test]
    fn explicit_rejection_is_fatal_and_the_pool_recovers_afterwards() {
        let job = small_grid();
        let reference = run_in_process(&job, 1).unwrap().encode();
        let fleet: Vec<Box<dyn Transport>> = vec![
            Box::new(RefuseOnce { inner: InProcess::new(), refusal: None, refused: false }),
            Box::new(InProcess::new()),
        ];
        let mut pool = WorkerPool::new(fleet);
        // An ok:false is a job error: aborted, not retried.
        let e = pool.dispatch(&job).unwrap_err();
        assert!(e.contains("worker rejected shard 0: refused"), "{e}");
        assert_eq!(pool.live_workers(), 2, "a rejection is not a worker death");
        // The abort left w1's un-collected response in flight; the next
        // dispatch must discard it by its stale tag and merge cleanly.
        let report = pool.dispatch(&job).unwrap();
        assert_eq!(report.outcome.encode(), reference, "post-abort merge diverged");
    }

    #[test]
    fn all_workers_dead_is_an_error_naming_the_failures() {
        let job = small_grid();
        let transports: Vec<Box<dyn Transport>> =
            vec![Box::new(Unreliable::dying_after(InProcess::new(), 0))];
        let e = WorkerPool::new(transports).dispatch(&job).unwrap_err();
        assert!(e.contains("no live worker"), "{e}");
        assert!(e.contains("injected worker death"), "{e}");
    }

    #[test]
    fn empty_pool_is_an_error() {
        let e = WorkerPool::new(Vec::new()).dispatch(&small_grid()).unwrap_err();
        assert!(e.contains("no live workers"), "{e}");
    }
}
