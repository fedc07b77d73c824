//! The closed-loop socket run: set-up, then rounds over two connections
//! until the measured time is up.

use crate::replay::Replay;
use crate::server::{Conn, Server};
use crate::speed::{self, Probe};
use crate::stats::{digest, ms, us};
use crate::workload::{Cmd, ConnPlan, Kind};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// A server with every connection's sessions open, and the set-up times
/// of each repetition.
pub struct Ready {
    /// The server the measured phase runs against.
    pub server: Server,
    /// One connection per plan, with its sessions already closed again.
    pub conns: Vec<Conn>,
    /// Spawn → every session open, per repetition, in seconds at the
    /// reference CPU speed.
    pub setup_s: Vec<f64>,
}

/// Spawns the server and opens every plan's sessions, `repeats` times
/// (each on a fresh server); keeps the last server for the measured
/// phase. The set-up sessions are finished again before returning, so
/// every measured round starts from the same state. Each repetition's
/// time is scaled to the reference speed by probes (exponents `speed`)
/// taken just before and after it.
///
/// # Errors
/// Spawn or socket failures, an `open` reply that differs from the
/// in-process replay, and a failed probe.
pub fn set_up(
    bin: &Path,
    plans: &[ConnPlan],
    expected: &[Replay],
    repeats: usize,
    speed: [f64; 3],
) -> Result<Ready, String> {
    let mut setup_s = Vec::new();
    let mut probe = Probe::new(speed)?;
    loop {
        let before = probe.slowdown()?;
        let started = Instant::now();
        let server = Server::spawn(bin)?;
        let mut conns = Vec::new();
        for (plan, want) in plans.iter().zip(expected) {
            let mut conn = server.connect()?;
            for (cmd, &d) in plan.opens().iter().zip(&want.digests) {
                let reply = conn.call(&cmd.line)?;
                if digest(reply.as_bytes()) != d {
                    return Err(format!("open differs from the in-process replay: {reply}"));
                }
            }
            conns.push(conn);
        }
        let took = started.elapsed().as_secs_f64();
        setup_s.push(took * speed::scale(before, probe.slowdown()?));
        if setup_s.len() == repeats {
            for (plan, conn) in plans.iter().zip(&mut conns) {
                for cmd in plan.cmds.iter().filter(|c| c.kind == Kind::Finish) {
                    conn.call(&cmd.line)?;
                }
            }
            return Ok(Ready { server, conns, setup_s });
        }
    }
}

/// Speed probes per round: one after the `open`s, then one after each of
/// this many segments of the timed commands.
pub const SEGMENTS: usize = 8;

/// What one connection measured. Latencies and round times are scaled to
/// the reference CPU speed ([`crate::speed`]) by the probes around the
/// segment they fell in; `round_wall_s` and `wait_us` are as timed.
#[derive(Debug, Default)]
pub struct ConnRun {
    /// `push`/`push_batch` round trips, ms, per timed round.
    pub push_ms: Vec<Vec<f64>>,
    /// `observe` round trips, ms, per timed round.
    pub observe_ms: Vec<Vec<f64>>,
    /// Sum of the round trips of every command but `open`, µs: the time
    /// this connection waited on the server in the timed part of rounds.
    pub wait_us: f64,
    /// Tokens in acknowledged pushes.
    pub tokens: u64,
    /// Complete rounds.
    pub rounds: usize,
    /// Duration of each complete round after its `open`s, seconds.
    pub round_s: Vec<f64>,
    /// The same, as timed.
    pub round_wall_s: Vec<f64>,
    /// Commands sent.
    pub commands: u64,
    /// Replies that failed or differed from the in-process replay.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
    /// Phase start → this connection's last reply, seconds.
    pub wall_s: f64,
    /// Bytes sent and received, newlines included.
    pub bytes: (u64, u64),
}

/// The probes of the measured phase, in order; the barrier leader takes
/// each one while every connection waits, so the server is idle.
struct Probes {
    probe: Probe,
    slowdowns: Vec<f64>,
    error: Option<String>,
}

/// Waits for every connection; the leader probes the CPU meanwhile.
/// Returns the scale factor of the segment that ended here.
fn sync(barrier: &Barrier, probes: &Mutex<Probes>) -> f64 {
    if barrier.wait().is_leader() {
        let mut p = probes.lock().expect("probe lock is never poisoned");
        let slowdown = p.probe.slowdown().unwrap_or_else(|e| {
            p.error.get_or_insert(e);
            1.0
        });
        p.slowdowns.push(slowdown);
    }
    barrier.wait();
    let p = probes.lock().expect("probe lock is never poisoned");
    match p.slowdowns[..] {
        [.., before, after] => speed::scale(before, after),
        _ => 1.0,
    }
}

/// Runs rounds on every connection concurrently, each a closed loop.
/// All connections start each round together (a barrier), so every
/// round sees the same interleaving of the connections on the server
/// instead of whatever phase the connections drifted into; they meet
/// again after each of [`SEGMENTS`] segments for a speed probe. A new
/// round starts while the phase is younger than `seconds`. The probes
/// raise their parts' slowdowns to the exponents `speed`. Returns the
/// connections' runs and every probe's slowdown.
///
/// # Errors
/// A probe failed.
pub fn measure(
    conns: &mut [Conn],
    plans: &[ConnPlan],
    expected: &[Replay],
    seconds: f64,
    speed: [f64; 3],
) -> Result<(Vec<ConnRun>, Vec<f64>), String> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let barrier = Barrier::new(conns.len());
    let probes =
        Mutex::new(Probes { probe: Probe::new(speed)?, slowdowns: Vec::new(), error: None });
    let (go, failed, rounds) =
        (AtomicBool::new(false), AtomicBool::new(false), AtomicUsize::new(0));
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(plans)
            .zip(expected)
            .map(|((conn, plan), want)| {
                let (barrier, probes, go, failed, rounds) =
                    (&barrier, &probes, &go, &failed, &rounds);
                scope.spawn(move || {
                    let mut run = ConnRun::default();
                    loop {
                        if barrier.wait().is_leader() {
                            let first = rounds.fetch_add(1, Ordering::SeqCst) == 0;
                            let more = first || Instant::now() < deadline;
                            go.store(more && !failed.load(Ordering::SeqCst), Ordering::SeqCst);
                        }
                        barrier.wait();
                        if !go.load(Ordering::SeqCst) {
                            break;
                        }
                        // Every session is open on every connection before
                        // the timed part of the round starts, on all of them
                        // together: `open` cost is `setup_s`'s to report.
                        let k = plan.opens().len();
                        let mut streamed =
                            commands(conn, &plan.cmds[..k], &want.digests[..k], &mut run, None);
                        sync(barrier, probes);
                        let (mut push, mut observe) = (Vec::new(), Vec::new());
                        let (mut round_s, mut round_wall_s) = (0.0, 0.0);
                        let timed = plan.cmds.len() - k;
                        for j in 0..SEGMENTS {
                            let seg = k + j * timed / SEGMENTS..k + (j + 1) * timed / SEGMENTS;
                            let mut lat = Vec::new();
                            let t = Instant::now();
                            streamed = streamed.and_then(|()| {
                                let (cmds, digests) = (&plan.cmds[seg.clone()], &want.digests[seg]);
                                commands(conn, cmds, digests, &mut run, Some(&mut lat))
                            });
                            let wall = t.elapsed().as_secs_f64();
                            let f = sync(barrier, probes);
                            for (kind, ms) in lat {
                                match kind {
                                    Kind::Push => push.push(ms * f),
                                    _ => observe.push(ms * f),
                                }
                            }
                            round_s += wall * f;
                            round_wall_s += wall;
                        }
                        match streamed {
                            Ok(()) => {
                                run.rounds += 1;
                                run.push_ms.push(push);
                                run.observe_ms.push(observe);
                                run.round_s.push(round_s);
                                run.round_wall_s.push(round_wall_s);
                            }
                            Err(e) => {
                                run.failed += 1;
                                run.first_failure.get_or_insert(e);
                                failed.store(true, Ordering::SeqCst);
                            }
                        }
                    }
                    run.wall_s = started.elapsed().as_secs_f64();
                    run
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let probes = probes.into_inner().expect("probe lock is never poisoned");
    probes.error.map_or(Ok((runs, probes.slowdowns)), Err)
}

/// Sends `cmds` in a closed loop, adding the round trip of each push and
/// observe to `lat` (ms, as timed). A socket error ends the run of
/// commands; a reply that differs from the in-process replay is counted
/// and the run goes on.
fn commands(
    conn: &mut Conn,
    cmds: &[Cmd],
    digests: &[u64],
    run: &mut ConnRun,
    mut lat: Option<&mut Vec<(Kind, f64)>>,
) -> Result<(), String> {
    for (cmd, &d) in cmds.iter().zip(digests) {
        let t = Instant::now();
        let reply = conn.call(&cmd.line);
        let dt = t.elapsed();
        run.commands += 1;
        let reply = reply?;
        run.bytes.0 += cmd.line.len() as u64 + 1;
        run.bytes.1 += reply.len() as u64 + 1;
        if cmd.kind != Kind::Open {
            run.wait_us += us(dt);
        }
        if cmd.kind == Kind::Push {
            run.tokens += cmd.tokens.len() as u64;
        }
        if let (Some(lat), Kind::Push | Kind::Observe) = (lat.as_deref_mut(), cmd.kind) {
            lat.push((cmd.kind, ms(dt)));
        }
        if digest(reply.as_bytes()) != d {
            run.failed += 1;
            run.first_failure
                .get_or_insert_with(|| format!("transcript differs at `{}`", cmd.line));
        }
    }
    Ok(())
}

/// One round on each connection alone, one connection after the other:
/// per-command round trips (µs) with no other connection to queue
/// behind — the reactor and socket cost of each command.
///
/// # Errors
/// Socket failures and replies that differ from the in-process replay.
pub fn solo_rounds(
    conns: &mut [Conn],
    plans: &[ConnPlan],
    expected: &[Replay],
) -> Result<Vec<Vec<f64>>, String> {
    let mut out = Vec::new();
    for ((conn, plan), want) in conns.iter_mut().zip(plans).zip(expected) {
        let mut lat = Vec::with_capacity(plan.cmds.len());
        for (cmd, &d) in plan.cmds.iter().zip(&want.digests) {
            let t = Instant::now();
            let reply = conn.call(&cmd.line)?;
            lat.push(us(t.elapsed()));
            if digest(reply.as_bytes()) != d {
                return Err(format!("solo round: transcript differs at `{}`", cmd.line));
            }
        }
        out.push(lat);
    }
    Ok(out)
}
