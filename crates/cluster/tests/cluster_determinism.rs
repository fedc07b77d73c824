//! The cluster determinism law, end to end with real worker processes
//! and sockets.
//!
//! A [`WorkerPool`] dispatching over stdio children and TCP
//! connections to a reactor — including runs where a worker dies
//! mid-job, straggles past the deadline, or is killed outright — must
//! merge to bytes identical to [`run_in_process`].
//! `CARGO_BIN_EXE_cluster_worker` names the worker binary cargo built
//! for this test, so the stdio cases cross the same process boundary
//! CI's `cluster-smoke` job does.

use sc_cluster::{ChildStdio, InProcess, Reactor, Tcp, Transport, Unreliable, WorkerPool};
use sc_engine::shard::{run_in_process, ShardJob};
use sc_engine::{AdversarySpec, AttackScenario, ColorerSpec, Scenario, SourceSpec};
use sc_graph::generators;
use sc_stream::{QuerySchedule, StreamOrder};
use std::time::Duration;

const WORKER: &str = env!("CARGO_BIN_EXE_cluster_worker");

/// Healthy-worker deadline: far above any slice's runtime, so the only
/// timeouts these tests see are the deliberately injected ones.
const PATIENT: Duration = Duration::from_secs(120);

/// A small mixed grid: streaming + offline specs, a stored source
/// (exercising wire canonicalization of adjacency order), dynamic
/// (turnstile) sources under the sparse-recovery colorer, varied
/// arrival orders and checkpoint schedules.
fn grid_job() -> ShardJob {
    let family = SourceSpec::exact_degree(60, 6, 3);
    let stored = SourceSpec::stored(generators::gnp_with_max_degree(50, 5, 0.4, 2));
    ShardJob::Grid(vec![
        Scenario::new(family.clone(), ColorerSpec::Robust { beta: None })
            .with_order(StreamOrder::Shuffled(1))
            .with_seed(11)
            .with_schedule(QuerySchedule::EveryEdges(13)),
        Scenario::new(stored.clone(), ColorerSpec::RandEfficient)
            .with_order(StreamOrder::Interleaved(4))
            .with_seed(12),
        Scenario::new(family.clone(), ColorerSpec::Bg18 { buckets: None }).with_seed(13),
        Scenario::new(stored.clone(), ColorerSpec::StoreAll)
            .with_seed(14)
            .with_schedule(QuerySchedule::AtPrefixes(vec![9, 30, 9])),
        Scenario::new(family.clone(), ColorerSpec::PaletteSparsification { lists: Some(6) })
            .with_order(StreamOrder::HubsLast)
            .with_seed(15),
        Scenario::new(stored, ColorerSpec::OfflineGreedy).with_seed(16),
        Scenario::new(SourceSpec::churn(48, 5, 17, 4), ColorerSpec::DynamicSr { sparsity: None })
            .with_seed(17)
            .with_schedule(QuerySchedule::EveryEdges(19)),
        Scenario::new(
            SourceSpec::sliding_window(40, 5, 18, 24),
            ColorerSpec::DynamicSr { sparsity: None },
        )
        .with_seed(18),
    ])
}

fn attack_job() -> ShardJob {
    ShardJob::Attack {
        scenario: AttackScenario::new(
            ColorerSpec::PaletteSparsification { lists: Some(3) },
            AdversarySpec::Monochromatic,
            50,
            12,
        )
        .with_rounds(300)
        .with_seed(70),
        trials: 7,
    }
}

fn stdio_fleet(workers: usize) -> Vec<Box<dyn Transport>> {
    (0..workers)
        .map(|_| {
            Box::new(ChildStdio::spawn(WORKER, &[] as &[&str]).expect("spawn cluster_worker"))
                as Box<dyn Transport>
        })
        .collect()
}

#[test]
fn stdio_fleets_merge_byte_identically() {
    for job in [grid_job(), attack_job()] {
        let reference = run_in_process(&job, 1).unwrap().encode();
        for workers in [1usize, 2, 7] {
            let report =
                WorkerPool::new(stdio_fleet(workers)).with_timeout(PATIENT).dispatch(&job).unwrap();
            assert_eq!(
                report.outcome.encode(),
                reference,
                "{workers} stdio worker(s) diverged from the single-process run"
            );
            assert_eq!(report.retries, 0, "healthy fleet must not retry");
        }
    }
}

/// A reactor on an ephemeral port serving `connections` clients, and
/// the thread running it (joins once they all hang up).
fn spawn_reactor(connections: usize) -> (String, std::thread::JoinHandle<()>) {
    let mut reactor = Reactor::bind("127.0.0.1:0").unwrap();
    let addr = reactor.local_addr().unwrap().to_string();
    (addr, std::thread::spawn(move || reactor.run(Some(connections)).unwrap()))
}

#[test]
fn tcp_fleets_merge_byte_identically() {
    let job = grid_job();
    let reference = run_in_process(&job, 1).unwrap().encode();
    let connections = 3usize;
    let (addr, listener) = spawn_reactor(connections);

    let fleet = (0..connections)
        .map(|_| Box::new(Tcp::connect(&addr).unwrap()) as Box<dyn Transport>)
        .collect();
    let report = WorkerPool::new(fleet).with_timeout(PATIENT).dispatch(&job).unwrap();
    assert_eq!(report.outcome.encode(), reference, "tcp fleet diverged");
    assert_eq!(report.shards, connections);
    listener.join().unwrap();
}

#[test]
#[cfg(unix)]
fn worker_dying_mid_job_is_retried_byte_identically() {
    // The satellite case: a ChildStdio worker that *accepts* its
    // dispatch line and then dies before answering — `read` consumes the
    // job, `exit 3` is the crash. The pool must detect the closed pipe
    // and re-dispatch the orphaned slice to a healthy worker with
    // byte-identical merged output.
    for job in [grid_job(), attack_job()] {
        let reference = run_in_process(&job, 1).unwrap().encode();
        let mut fleet = stdio_fleet(2);
        fleet.insert(
            1,
            Box::new(
                ChildStdio::spawn("sh", &["-c", "read line; exit 3"]).expect("spawn sh worker"),
            ),
        );
        let mut pool = WorkerPool::new(fleet).with_timeout(PATIENT);
        let report = pool.dispatch(&job).unwrap();
        assert_eq!(report.outcome.encode(), reference, "retried merge diverged");
        assert_eq!(report.retries, 1, "{:?}", report.failures);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("closed"), "{:?}", report.failures);
        assert_eq!(pool.live_workers(), 2);
        // The pool stays serviceable after the death.
        let again = pool.dispatch(&job).unwrap();
        assert_eq!(again.outcome.encode(), reference);
        assert_eq!(again.retries, 0);
    }
}

#[test]
fn killed_worker_is_detected_and_its_shard_re_dispatched() {
    let job = grid_job();
    let reference = run_in_process(&job, 1).unwrap().encode();
    // Kill one worker outright (machine loss) before dispatch: its pipe
    // may still accept the job bytes, but no response ever comes.
    let mut doomed = ChildStdio::spawn(WORKER, &[] as &[&str]).expect("spawn cluster_worker");
    doomed.kill();
    let fleet: Vec<Box<dyn Transport>> = vec![
        Box::new(ChildStdio::spawn(WORKER, &[] as &[&str]).expect("spawn cluster_worker")),
        Box::new(doomed),
        Box::new(ChildStdio::spawn(WORKER, &[] as &[&str]).expect("spawn cluster_worker")),
    ];
    let mut pool = WorkerPool::new(fleet).with_timeout(PATIENT);
    let report = pool.dispatch(&job).unwrap();
    assert_eq!(report.outcome.encode(), reference, "merge after kill diverged");
    // The death surfaced at *send* time (closed pipe), so the slice was
    // reassigned before it ever ran — a failure, not a retry…
    assert_eq!(report.retries, 0, "{:?}", report.failures);
    assert!(!report.failures.is_empty(), "the kill must be recorded");
    // …and the shard count was fixed from the live-worker count before
    // the death was discovered (the partition never re-shrinks).
    assert_eq!(report.shards, 3);
    assert_eq!(pool.live_workers(), 2);
}

#[test]
#[cfg(unix)]
fn straggler_times_out_and_its_shard_is_re_dispatched() {
    let job = grid_job();
    let reference = run_in_process(&job, 1).unwrap().encode();
    // One worker that never answers: the pool's deadline must fire and
    // move its slice, not hang the merge.
    let fleet: Vec<Box<dyn Transport>> = vec![
        Box::new(ChildStdio::spawn(WORKER, &[] as &[&str]).expect("spawn cluster_worker")),
        // `exec` so the kill on drop reaches the sleeper itself — a
        // forked grandchild would outlive the test holding its pipes.
        Box::new(
            ChildStdio::spawn("sh", &["-c", "exec sleep 600"]).expect("spawn sleeping worker"),
        ),
    ];
    let mut pool = WorkerPool::new(fleet).with_timeout(Duration::from_millis(400));
    let report = pool.dispatch(&job).unwrap();
    assert_eq!(report.outcome.encode(), reference, "post-straggler merge diverged");
    assert_eq!(report.retries, 1, "{:?}", report.failures);
    assert!(report.failures[0].contains("no response within"), "{:?}", report.failures);
}

#[test]
fn heterogeneous_fleets_mix_transports_freely() {
    // One pool, three transport kinds — the pool only sees lines.
    let job = grid_job();
    let reference = run_in_process(&job, 1).unwrap().encode();
    let (addr, listener) = spawn_reactor(1);
    let fleet: Vec<Box<dyn Transport>> = vec![
        Box::new(InProcess::new()),
        Box::new(ChildStdio::spawn(WORKER, &[] as &[&str]).expect("spawn cluster_worker")),
        Box::new(Tcp::connect(&addr).expect("connect")),
        Box::new(Unreliable::dying_after(InProcess::new(), 0)),
    ];
    let mut pool = WorkerPool::new(fleet).with_timeout(PATIENT);
    let report = pool.dispatch(&job).unwrap();
    assert_eq!(report.outcome.encode(), reference, "mixed fleet diverged");
    assert_eq!(report.retries, 1, "the unreliable member must have died");
    drop(pool);
    listener.join().unwrap();
}

#[test]
fn attack_sweeps_survive_tcp_with_a_dying_connection() {
    // The adversarial-trial shape over TCP, with one connection served
    // then dropped by the remote end mid-fleet: merge still exact.
    let job = attack_job();
    let reference = run_in_process(&job, 1).unwrap().encode();
    let (addr, listener) = spawn_reactor(2);
    let fleet: Vec<Box<dyn Transport>> = vec![
        Box::new(Tcp::connect(&addr).expect("connect")),
        Box::new(Unreliable::dying_after(Tcp::connect(&addr).expect("connect"), 0)),
    ];
    let mut pool = WorkerPool::new(fleet).with_timeout(PATIENT);
    let report = pool.dispatch(&job).unwrap();
    assert_eq!(report.outcome.encode(), reference, "tcp merge with death diverged");
    assert_eq!(report.retries, 1);
    drop(pool);
    listener.join().unwrap();
}

#[test]
fn oversized_fleets_clamp_shards_and_leave_extras_idle() {
    // More workers than items: the shard count clamps to the job size,
    // the surplus workers never receive a line, and the merge is exact.
    let job = ShardJob::Grid(vec![
        Scenario::new(SourceSpec::exact_degree(40, 4, 1), ColorerSpec::Trivial),
        Scenario::new(SourceSpec::exact_degree(40, 4, 2), ColorerSpec::StoreAll),
    ]);
    let reference = run_in_process(&job, 1).unwrap().encode();
    let fleet: Vec<Box<dyn Transport>> =
        (0..5).map(|_| Box::new(InProcess::new()) as Box<dyn Transport>).collect();
    let mut pool = WorkerPool::new(fleet).with_timeout(PATIENT);
    let report = pool.dispatch(&job).unwrap();
    assert_eq!(report.outcome.encode(), reference, "oversized fleet diverged");
    assert_eq!(report.shards, 2, "shards must clamp to the job size");
    assert_eq!(report.retries, 0);
    assert_eq!(pool.live_workers(), 5, "idle workers must stay healthy");
}

#[test]
fn single_shard_jobs_ride_one_worker_of_many() {
    let job = ShardJob::Grid(vec![Scenario::new(
        SourceSpec::exact_degree(40, 4, 9),
        ColorerSpec::Robust { beta: None },
    )]);
    let reference = run_in_process(&job, 1).unwrap().encode();
    let report = WorkerPool::new(stdio_fleet(3)).with_timeout(PATIENT).dispatch(&job).unwrap();
    assert_eq!(report.outcome.encode(), reference, "single-shard merge diverged");
    assert_eq!(report.shards, 1);
    assert_eq!(report.retries, 0);
}

#[test]
#[cfg(unix)]
fn all_but_one_worker_dying_mid_steal_still_merges() {
    // Three of four real processes accept their first line and crash;
    // the lone survivor steals every orphaned slice.
    let job = grid_job();
    let reference = run_in_process(&job, 1).unwrap().encode();
    let mut fleet = stdio_fleet(1);
    for _ in 0..3 {
        fleet.push(Box::new(
            ChildStdio::spawn("sh", &["-c", "read line; exit 3"]).expect("spawn sh worker"),
        ));
    }
    let mut pool = WorkerPool::new(fleet).with_timeout(PATIENT);
    let report = pool.dispatch(&job).unwrap();
    assert_eq!(report.outcome.encode(), reference, "survivor's merge diverged");
    assert_eq!(report.shards, 4, "shards are fixed before the deaths surface");
    assert_eq!(report.retries, 3, "{:?}", report.failures);
    assert_eq!(report.failures.len(), 3, "{:?}", report.failures);
    assert_eq!(pool.live_workers(), 1);
}

#[test]
#[cfg(unix)]
fn ssh_transport_reaches_a_worker_through_a_stand_in_client() {
    // End-to-end over `ChildStdio::ssh` with a stand-in `ssh` client: a
    // shell script that accepts the client arguments (-o BatchMode=yes
    // -T host path serve) and execs the real worker binary, exactly as a
    // remote `ssh host streamcolor serve` would land on a serve loop.
    use std::io::Write;
    use std::os::unix::fs::PermissionsExt;
    let script = std::env::temp_dir().join(format!("fake-ssh-{}.sh", std::process::id()));
    {
        let mut f = std::fs::File::create(&script).expect("write fake ssh");
        writeln!(f, "#!/bin/sh\nexec \"{WORKER}\"").unwrap();
        f.set_permissions(std::fs::Permissions::from_mode(0o755)).unwrap();
    }
    let job = grid_job();
    let reference = run_in_process(&job, 1).unwrap().encode();
    let fleet: Vec<Box<dyn Transport>> = (0..2)
        .map(|_| {
            Box::new(
                ChildStdio::ssh_via(script.to_str().unwrap(), "builder@localhost")
                    .expect("fake ssh spawn"),
            ) as Box<dyn Transport>
        })
        .collect();
    let describe = fleet[0].describe();
    assert!(describe.contains("ssh://builder@localhost"), "{describe}");
    let report = WorkerPool::new(fleet).with_timeout(PATIENT).dispatch(&job).unwrap();
    std::fs::remove_file(&script).ok();
    assert_eq!(report.outcome.encode(), reference, "ssh fleet diverged");
    assert_eq!(report.retries, 0, "{:?}", report.failures);
}
