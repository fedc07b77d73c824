//! The cluster coordinator: declarative transport fleets, one-call runs.
//!
//! [`TransportSpec`] names a fleet the way [`sc_engine::ColorerSpec`]
//! names an algorithm — plain data a CLI flag can select — and
//! [`ClusterCoordinator::run`] builds it, dispatches through a
//! [`WorkerPool`], and returns the merged [`DispatchReport`]. This is
//! the `streamcolor shard --transport {process,stdio,tcp,ssh}` back
//! end; the scheduling knobs ([`ClusterCoordinator::with_speculation`],
//! [`ClusterCoordinator::with_skewed_worker`]) are the
//! `--speculate-after` / `--skew-ms` flags.

use crate::pool::{DispatchReport, WorkerPool};
use crate::transport::{ChildStdio, InProcess, Ssh, Tcp, Transport, Unreliable};
use sc_engine::shard::ShardJob;
use std::time::Duration;

/// Which worker fleet to build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportSpec {
    /// `workers` loopback services in this process — full protocol
    /// fidelity, no spawn cost, no parallelism. The overhead floor.
    InProcess {
        /// Loopback workers to host.
        workers: usize,
    },
    /// `workers` child processes of `command` (program + args), each
    /// speaking the protocol over its stdin/stdout — e.g.
    /// `["streamcolor", "serve"]`.
    ChildStdio {
        /// Program and arguments to spawn per worker.
        command: Vec<String>,
        /// Worker processes to spawn.
        workers: usize,
    },
    /// `connections` sockets to a `streamcolor serve --listen` endpoint.
    /// Each connection is an independent worker, but one reactor
    /// answers them on a single loop, so their slices run one at a
    /// time.
    Tcp {
        /// The listener address, e.g. `127.0.0.1:7841`.
        addr: String,
        /// Concurrent connections (= workers) to open.
        connections: usize,
    },
    /// `connections` remote workers on one host, each an
    /// `ssh host streamcolor serve` process spoken to over the ssh
    /// client's pipes ([`Ssh`]).
    Ssh {
        /// The destination, `user@host[:path]` (`path` defaults to
        /// `streamcolor` on the remote `PATH`).
        dest: String,
        /// Remote worker processes (= ssh connections) to start.
        connections: usize,
    },
}

impl TransportSpec {
    /// Builds the fleet.
    ///
    /// # Errors
    /// Errors on a zero-sized fleet, an empty command, a malformed ssh
    /// destination, a failed spawn, or a failed connection — with a
    /// message naming the endpoint.
    pub fn build(&self) -> Result<Vec<Box<dyn Transport>>, String> {
        let count = match self {
            TransportSpec::InProcess { workers } | TransportSpec::ChildStdio { workers, .. } => {
                *workers
            }
            TransportSpec::Tcp { connections, .. } | TransportSpec::Ssh { connections, .. } => {
                *connections
            }
        };
        if count == 0 {
            return Err("transport fleet needs at least 1 worker".to_string());
        }
        (0..count)
            .map(|_| -> Result<Box<dyn Transport>, String> {
                match self {
                    TransportSpec::InProcess { .. } => Ok(Box::new(InProcess::new())),
                    TransportSpec::ChildStdio { command, .. } => {
                        let (program, args) =
                            command.split_first().ok_or("child command is empty")?;
                        Ok(Box::new(ChildStdio::spawn(program, args)?))
                    }
                    TransportSpec::Tcp { addr, .. } => Ok(Box::new(Tcp::connect(addr)?)),
                    TransportSpec::Ssh { dest, .. } => Ok(Box::new(Ssh::connect(dest)?)),
                }
            })
            .collect()
    }
}

/// Builds a fleet per run and dispatches a job through it.
///
/// The determinism law this layer adds (tested in
/// `tests/cluster_determinism.rs`, gated by CI's `cluster-smoke` job):
/// for every [`TransportSpec`], worker count, and scheduling mode —
/// speculation on or off, a skewed worker injected or not — and under any worker deaths the pool
/// survives, [`ClusterCoordinator::run`] merges to bytes identical to
/// [`sc_engine::shard::run_in_process`].
#[derive(Debug, Clone)]
pub struct ClusterCoordinator {
    /// The fleet to build.
    pub spec: TransportSpec,
    /// Straggler deadline per slice (see [`WorkerPool::with_timeout`]).
    pub timeout: Duration,
    /// Soft speculation deadline as a fraction of `timeout`; `None`
    /// disables speculative re-dispatch.
    pub speculate_after: Option<f64>,
    /// When set, the last fleet member is wrapped in
    /// [`Unreliable::slowed_by`] with this delay — the reproducible
    /// skewed fleet CI and `exp_cluster` measure scheduling against.
    pub skew: Option<Duration>,
}

impl ClusterCoordinator {
    /// A coordinator over `spec` with the pool's default deadline.
    pub fn new(spec: TransportSpec) -> Self {
        Self { spec, timeout: Duration::from_secs(600), speculate_after: None, skew: None }
    }

    /// Sets the straggler deadline.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Enables speculative re-dispatch past `fraction × timeout` (see
    /// [`WorkerPool::with_speculation`]; `fraction` must be in `(0, 1]`).
    #[must_use]
    pub fn with_speculation(mut self, fraction: f64) -> Self {
        self.speculate_after = Some(fraction);
        self
    }

    /// Slows the last fleet member's answers by `delay` — deterministic
    /// heterogeneity for benchmarks and smoke gates.
    #[must_use]
    pub fn with_skewed_worker(mut self, delay: Duration) -> Self {
        self.skew = Some(delay);
        self
    }

    /// Builds the fleet, dispatches, merges.
    ///
    /// # Errors
    /// Propagates fleet-build and dispatch errors.
    pub fn run(&self, job: &ShardJob) -> Result<DispatchReport, String> {
        let mut transports = self.spec.build()?;
        if let Some(delay) = self.skew {
            let last = transports.pop().expect("build rejects empty fleets");
            transports.push(Box::new(Unreliable::slowed_by(last, delay)));
        }
        let mut pool = WorkerPool::new(transports).with_timeout(self.timeout);
        if let Some(fraction) = self.speculate_after {
            pool = pool.with_speculation(fraction);
        }
        pool.dispatch(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_engine::shard::run_in_process;
    use sc_engine::{ColorerSpec, Scenario, SourceSpec};

    fn two_scenario_job() -> ShardJob {
        ShardJob::Grid(vec![
            Scenario::new(SourceSpec::exact_degree(40, 4, 1), ColorerSpec::Trivial),
            Scenario::new(SourceSpec::exact_degree(40, 4, 2), ColorerSpec::StoreAll),
        ])
    }

    #[test]
    fn in_process_fleet_reproduces_the_reference() {
        let job = two_scenario_job();
        let coordinator = ClusterCoordinator::new(TransportSpec::InProcess { workers: 2 });
        let report = coordinator.run(&job).unwrap();
        assert_eq!(report.outcome.encode(), run_in_process(&job, 1).unwrap().encode());
    }

    #[test]
    fn skewed_fleets_reproduce_the_reference_in_both_scheduling_modes() {
        // The skewed-worker wrapper must change timing only: stealing
        // with and without speculation both merge byte-identically.
        let job = two_scenario_job();
        let reference = run_in_process(&job, 1).unwrap().encode();
        let base = ClusterCoordinator::new(TransportSpec::InProcess { workers: 2 })
            .with_timeout(Duration::from_secs(4))
            .with_skewed_worker(Duration::from_millis(500));
        let speculating = base.clone().with_speculation(0.01).run(&job).unwrap();
        assert_eq!(speculating.outcome.encode(), reference, "skewed speculating merge diverged");
        assert_eq!(speculating.speculative, 1, "the slowed slice must be speculated");
        let plain = base.run(&job).unwrap();
        assert_eq!(plain.outcome.encode(), reference, "skewed stealing merge diverged");
        assert_eq!(plain.speculative, 0);
    }

    #[test]
    fn degenerate_fleets_are_errors() {
        let build_err = |spec: TransportSpec| spec.build().err().expect("fleet must fail");
        assert!(build_err(TransportSpec::InProcess { workers: 0 }).contains("at least 1"));
        assert!(build_err(TransportSpec::ChildStdio { command: Vec::new(), workers: 1 })
            .contains("empty"));
        assert!(build_err(TransportSpec::ChildStdio {
            command: vec!["/nonexistent/worker-binary".into()],
            workers: 1
        })
        .contains("cannot spawn"));
        assert!(build_err(TransportSpec::Tcp { addr: "127.0.0.1:1".into(), connections: 1 })
            .contains("cannot connect"));
        assert!(build_err(TransportSpec::Ssh { dest: String::new(), connections: 1 })
            .contains("no host"));
        assert!(build_err(TransportSpec::Ssh { dest: "host:".into(), connections: 0 })
            .contains("at least 1"));
    }
}
