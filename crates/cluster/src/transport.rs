//! Transports: how one protocol line reaches a worker and its response
//! comes back.
//!
//! A transport is deliberately tiny — [`Transport::send`] one line,
//! [`Transport::recv`] one line with a deadline — because the whole
//! cluster vocabulary lives in the `sc-service` line protocol, not here.
//! Three real implementations cover the deployment spectrum
//! ([`InProcess`] loopback, [`ChildStdio`] pipes — local children, or
//! remote ones through the ssh client via [`ChildStdio::ssh`] — and
//! [`Tcp`] sockets), and [`Unreliable`] injects deterministic worker
//! death ([`Unreliable::dying_after`]) or slowness
//! ([`Unreliable::slowed_by`]) for tests and the `exp_cluster`
//! retry-cost and skewed-fleet measurements. A fleet is a
//! `Vec<Box<dyn Transport>>` of any mix of them.

use sc_service::{LineBuf, Service};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Why a transport operation failed — the pool's retry logic branches on
/// this (every variant is a *worker* failure; job-level errors travel as
/// `"ok":false` protocol responses instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The other end is gone: closed pipe, dead process, dropped socket.
    Closed(String),
    /// No response line arrived within the deadline (a straggler).
    Timeout(Duration),
    /// The channel works but carried something unusable (a response to
    /// a line we never sent).
    Protocol(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed(why) => write!(f, "closed: {why}"),
            TransportError::Timeout(t) => write!(f, "no response within {t:?}"),
            TransportError::Protocol(why) => write!(f, "protocol: {why}"),
        }
    }
}

/// A bidirectional line channel to one worker endpoint.
///
/// Implementations must preserve line order (the pool correlates FIFO)
/// and must never block forever in [`Transport::recv`] — a straggling
/// worker surfaces as [`TransportError::Timeout`] so the pool can
/// re-dispatch its shard.
pub trait Transport: Send {
    /// A human-readable endpoint name for failure reports.
    fn describe(&self) -> String;

    /// Sends one protocol line (no trailing newline; the transport adds
    /// its own framing).
    ///
    /// # Errors
    /// [`TransportError::Closed`] when the worker is gone.
    fn send(&mut self, line: &str) -> Result<(), TransportError>;

    /// Receives the next response line, waiting at most `timeout`.
    ///
    /// # Errors
    /// [`TransportError::Timeout`] for stragglers, [`TransportError::Closed`]
    /// when the worker died, [`TransportError::Protocol`] for garbage.
    fn recv(&mut self, timeout: Duration) -> Result<String, TransportError>;
}

// A boxed transport is a transport, so wrappers like `Unreliable` can
// decorate an already-built `Box<dyn Transport>` fleet member (the
// `shard --skew-ms` path relies on this).
impl<T: Transport + ?Sized> Transport for Box<T> {
    fn describe(&self) -> String {
        (**self).describe()
    }

    fn send(&mut self, line: &str) -> Result<(), TransportError> {
        (**self).send(line)
    }

    fn recv(&mut self, timeout: Duration) -> Result<String, TransportError> {
        (**self).recv(timeout)
    }
}

// ---------------------------------------------------------------------
// InProcess: a loopback Service.
// ---------------------------------------------------------------------

/// The loopback transport: a private [`Service`] answering in the
/// calling thread. `send` computes the response synchronously and queues
/// it; `recv` pops. Zero concurrency, full protocol fidelity — the
/// reference endpoint for tests and the overhead floor `exp_cluster`
/// measures against.
pub struct InProcess {
    service: Service,
    queue: VecDeque<String>,
}

impl Default for InProcess {
    fn default() -> Self {
        Self::new()
    }
}

impl InProcess {
    /// A fresh loopback worker.
    pub fn new() -> Self {
        Self { service: Service::new(), queue: VecDeque::new() }
    }
}

impl Transport for InProcess {
    fn describe(&self) -> String {
        "in-process".to_string()
    }

    fn send(&mut self, line: &str) -> Result<(), TransportError> {
        if let Some(response) = self.service.respond(line) {
            self.queue.push_back(response);
        }
        Ok(())
    }

    fn recv(&mut self, _timeout: Duration) -> Result<String, TransportError> {
        self.queue
            .pop_front()
            .ok_or_else(|| TransportError::Protocol("no pending response".to_string()))
    }
}

// ---------------------------------------------------------------------
// ChildStdio: a spawned worker process.
// ---------------------------------------------------------------------

/// A worker process speaking the protocol over its stdin/stdout — spawn
/// `streamcolor serve` (or the `cluster_worker` test fixture), or reach
/// a remote one through the ssh client ([`ChildStdio::ssh`]). A
/// background thread drains stdout into a channel so `recv` can time
/// out; stderr is inherited so worker diagnostics stay visible. The
/// child is killed and reaped on drop.
pub struct ChildStdio {
    child: Child,
    stdin: Option<ChildStdin>,
    rx: mpsc::Receiver<String>,
    label: String,
}

impl ChildStdio {
    /// Spawns `program args…` with piped stdin/stdout.
    ///
    /// # Errors
    /// Returns a message naming the program when the spawn fails.
    pub fn spawn(
        program: impl AsRef<std::ffi::OsStr>,
        args: &[impl AsRef<std::ffi::OsStr>],
    ) -> Result<Self, String> {
        let program = program.as_ref();
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {program:?}: {e}"))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        // The reader thread ends at EOF (worker exit or kill); if the
        // transport was dropped first, the failed send ends it too.
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let label = format!("{} (pid {})", program.to_string_lossy(), child.id());
        Ok(Self { child, stdin: Some(stdin), rx, label })
    }

    /// A worker on a remote machine: spawns the `ssh` client as
    /// `ssh -o BatchMode=yes -T host <path> serve` for `dest` =
    /// `user@host[:path]` (`path` defaults to `streamcolor` on the
    /// remote `PATH`) and speaks over the client's pipes — the fleet
    /// reaches real machines with zero new wire vocabulary.
    /// `BatchMode=yes` makes an auth problem a fast clean
    /// [`TransportError::Closed`] instead of a password prompt wedging
    /// the dispatch. [`Transport::describe`] reports `ssh://dest`.
    ///
    /// # Errors
    /// Returns a message naming the destination when it is malformed or
    /// the ssh client cannot be spawned.
    pub fn ssh(dest: &str) -> Result<Self, String> {
        Self::ssh_via("ssh", dest)
    }

    /// [`ChildStdio::ssh`] through an explicit client `program` — tests
    /// substitute a local stand-in script so the transport machinery is
    /// exercised without a real remote host.
    ///
    /// # Errors
    /// As [`ChildStdio::ssh`].
    pub fn ssh_via(program: &str, dest: &str) -> Result<Self, String> {
        let (host, path) = split_dest(dest)?;
        let args = ["-o", "BatchMode=yes", "-T", host.as_str(), path.as_str(), "serve"];
        let mut child = Self::spawn(program, &args)?;
        child.label = format!("ssh://{dest}");
        Ok(child)
    }

    /// The worker's process id (the local ssh client's, for
    /// [`ChildStdio::ssh`]).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills the worker outright (tests use this to simulate machine
    /// loss; the pool then sees [`TransportError::Closed`]).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ChildStdio {
    fn drop(&mut self) {
        // Closing stdin first lets a serve loop exit cleanly; the kill
        // catches wedged workers, and wait reaps the zombie either way.
        self.stdin.take();
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Transport for ChildStdio {
    fn describe(&self) -> String {
        self.label.clone()
    }

    fn send(&mut self, line: &str) -> Result<(), TransportError> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| TransportError::Closed("stdin already closed".to_string()))?;
        stdin
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| TransportError::Closed(format!("worker stdin: {e}")))
    }

    fn recv(&mut self, timeout: Duration) -> Result<String, TransportError> {
        match self.rx.recv_timeout(timeout) {
            Ok(line) => Ok(line),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(TransportError::Timeout(timeout)),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(TransportError::Closed("worker stdout closed (process exited?)".to_string()))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Tcp: a socket to a listener.
// ---------------------------------------------------------------------

/// A connection to a `streamcolor serve --listen` endpoint (or any
/// socket speaking the line protocol). Reads keep a persistent
/// [`LineBuf`], so a deadline that fires mid-line loses nothing — though
/// the pool abandons a timed-out worker anyway.
pub struct Tcp {
    stream: TcpStream,
    lines: LineBuf,
    label: String,
}

impl Tcp {
    /// Connects to `addr` (e.g. `127.0.0.1:7841`).
    ///
    /// # Errors
    /// Returns a message naming the address when the connection fails.
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("set_nodelay({addr}): {e}"))?;
        Ok(Self { stream, lines: LineBuf::default(), label: format!("tcp://{addr}") })
    }
}

impl Transport for Tcp {
    fn describe(&self) -> String {
        self.label.clone()
    }

    fn send(&mut self, line: &str) -> Result<(), TransportError> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| TransportError::Closed(format!("socket write: {e}")))
    }

    fn recv(&mut self, timeout: Duration) -> Result<String, TransportError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(line) = self.lines.next_line() {
                return Ok(line.into_owned());
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(TransportError::Timeout(timeout));
            }
            self.stream
                .set_read_timeout(Some(remaining))
                .map_err(|e| TransportError::Closed(format!("set_read_timeout: {e}")))?;
            match self.lines.fill(&mut self.stream) {
                // A close with bytes still buffered means the peer died
                // mid-line: surface how much was lost instead of
                // answering the partial response as a line.
                Ok(0) => {
                    let closed = match std::mem::take(&mut self.lines).pending() {
                        0 => "connection closed".to_string(),
                        lost => format!("connection closed with {lost} unterminated bytes"),
                    };
                    return Err(TransportError::Closed(closed));
                }
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(TransportError::Timeout(timeout));
                }
                Err(e) => return Err(TransportError::Closed(format!("socket read: {e}"))),
            }
        }
    }
}

/// Splits `user@host[:path]` into the ssh host argument and the remote
/// binary path (validated before any process is spawned).
///
/// IPv6 hosts contain colons (`user@::1`, `fe80::1`), so a lone
/// `split_once(':')` would shear the address apart. The rules:
///
/// * `[addr]:path` / `user@[addr]:path` — brackets delimit the host
///   (ssh's own literal-IPv6 syntax); the path follows the `]:`.
///   Brackets are stripped before handing the host to the ssh client.
/// * exactly one `:` and no brackets — `host:path`, as before.
/// * two or more `:` and no brackets — the whole destination is a bare
///   IPv6 host; the path defaults. (A path would need brackets.)
fn split_dest(dest: &str) -> Result<(String, String), String> {
    let after_user = dest.rsplit_once('@').map_or(dest, |(_, host)| host);
    if let Some(rest) = after_user.strip_prefix('[') {
        let Some((addr, tail)) = rest.split_once(']') else {
            return Err(format!("ssh destination {dest:?} has an unclosed '[' (want [addr]:path)"));
        };
        if addr.is_empty() {
            return Err(format!("ssh destination {dest:?} has no host (want user@host[:path])"));
        }
        let user = dest.rsplit_once('@').map_or("", |(user, _)| user);
        let host = if user.is_empty() { addr.to_string() } else { format!("{user}@{addr}") };
        return match tail {
            "" => Ok((host, "streamcolor".to_string())),
            ":" => Err(format!("ssh destination {dest:?} has an empty remote path after ':'")),
            tail => match tail.strip_prefix(':') {
                Some(path) => Ok((host, path.to_string())),
                None => Err(format!(
                    "ssh destination {dest:?} has trailing garbage after ']' (want [addr]:path)"
                )),
            },
        };
    }
    let (host, path) = match after_user.matches(':').count() {
        0 => (dest, "streamcolor"),
        1 => match dest.split_once(':') {
            Some((_, "")) => {
                return Err(format!("ssh destination {dest:?} has an empty remote path after ':'"));
            }
            Some((h, p)) => (h, p),
            None => unreachable!("count said one colon"),
        },
        // Multiple colons, no brackets: a bare IPv6 address.
        _ => (dest, "streamcolor"),
    };
    if host.is_empty() {
        return Err(format!("ssh destination {dest:?} has no host (want user@host[:path])"));
    }
    Ok((host.to_string(), path.to_string()))
}

// ---------------------------------------------------------------------
// Unreliable: deterministic failure and slowness injection.
// ---------------------------------------------------------------------

/// Wraps a transport and injects deterministic misbehavior:
/// [`Unreliable::dying_after`] kills it after a fixed number of answered
/// receives (the stand-in for "the worker accepted the job, then the
/// machine died" — `dying_after(t, 0)` dies on its first answer, exactly
/// the mid-job death the pool's re-dispatch path must absorb), and
/// [`Unreliable::slowed_by`] delays every answer by a fixed wall-clock
/// duration (the stand-in for a loaded or underpowered machine — the
/// straggler the pool's stealing and speculation paths must route
/// around).
pub struct Unreliable<T: Transport> {
    inner: T,
    answers_left: usize,
    delay: Duration,
    /// Send times of requests whose answers are still delayed (FIFO,
    /// only tracked when `delay` is non-zero).
    sent: VecDeque<Instant>,
    /// Die immediately after delivering one successful `snapshot`
    /// response (the migration-failure stand-in).
    die_after_snapshot: bool,
}

impl<T: Transport> Unreliable<T> {
    /// Answers `answers` receives, then reports [`TransportError::Closed`]
    /// forever.
    pub fn dying_after(inner: T, answers: usize) -> Self {
        Self {
            inner,
            answers_left: answers,
            delay: Duration::ZERO,
            sent: VecDeque::new(),
            die_after_snapshot: false,
        }
    }

    /// Answers normally until one **successful `snapshot` response**
    /// passes through, then reports [`TransportError::Closed`] forever —
    /// the worst-case migration timing: the snapshot blob escapes the
    /// machine, then the machine dies before the source session can be
    /// finished. Migration must treat this as copy-then-drop: the target
    /// restores, the source (if it ever comes back) still holds its
    /// session.
    pub fn dying_after_snapshot(inner: T) -> Self {
        Self {
            inner,
            answers_left: usize::MAX,
            delay: Duration::ZERO,
            sent: VecDeque::new(),
            die_after_snapshot: true,
        }
    }

    /// Never dies, but holds every answer until `delay` after its
    /// request was sent — `recv` sleeps (never past its deadline) and
    /// reports [`TransportError::Timeout`] while an answer is pending,
    /// so to the pool the worker is indistinguishable from a genuinely
    /// slow machine.
    pub fn slowed_by(inner: T, delay: Duration) -> Self {
        Self {
            inner,
            answers_left: usize::MAX,
            delay,
            sent: VecDeque::new(),
            die_after_snapshot: false,
        }
    }

    /// Unwraps the inner transport — tests pry open a "dead" endpoint
    /// to prove the injected failure never destroyed its real state.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Transport> Transport for Unreliable<T> {
    fn describe(&self) -> String {
        if self.die_after_snapshot {
            format!("{} [dies after snapshot]", self.inner.describe())
        } else if self.delay.is_zero() {
            format!("{} [unreliable]", self.inner.describe())
        } else {
            format!("{} [slowed {:?}]", self.inner.describe(), self.delay)
        }
    }

    fn send(&mut self, line: &str) -> Result<(), TransportError> {
        // A dying worker's pipe still buffers the request — the failure
        // surfaces where it does in production, on the missing response.
        if !self.delay.is_zero() {
            self.sent.push_back(Instant::now());
        }
        self.inner.send(line)
    }

    fn recv(&mut self, timeout: Duration) -> Result<String, TransportError> {
        if self.answers_left == 0 {
            return Err(TransportError::Closed("injected worker death".to_string()));
        }
        if !self.delay.is_zero() {
            if let Some(&first) = self.sent.front() {
                let ready = first + self.delay;
                let now = Instant::now();
                if ready > now {
                    let wait = ready - now;
                    if wait >= timeout {
                        // Consume the caller's budget like a real slow
                        // worker would, then report the straggle.
                        std::thread::sleep(timeout);
                        return Err(TransportError::Timeout(timeout));
                    }
                    std::thread::sleep(wait);
                }
                self.sent.pop_front();
            }
        }
        let response = self.inner.recv(timeout)?;
        if self.die_after_snapshot
            && response.contains("\"cmd\":\"snapshot\"")
            && response.contains("\"ok\":true")
        {
            // The snapshot escapes; everything after is dead air.
            self.answers_left = 0;
        } else {
            self.answers_left = self.answers_left.saturating_sub(1);
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_answers_protocol_lines() {
        let mut t = InProcess::new();
        t.send(r#"{"cmd":"open","session":"a","n":10,"colorer":"trivial"}"#).unwrap();
        let response = t.recv(Duration::from_secs(1)).unwrap();
        assert!(response.contains("\"ok\":true"), "{response}");
        // Comments produce no response; recv reports that as protocol
        // misuse rather than blocking.
        t.send("# comment").unwrap();
        assert_eq!(
            t.recv(Duration::from_secs(1)),
            Err(TransportError::Protocol("no pending response".to_string()))
        );
    }

    #[test]
    fn unreliable_dies_after_its_answer_budget() {
        let mut t = Unreliable::dying_after(InProcess::new(), 1);
        t.send(r#"{"cmd":"open","session":"a","n":10,"colorer":"trivial"}"#).unwrap();
        assert!(t.recv(Duration::from_secs(1)).is_ok());
        t.send(r#"{"cmd":"stats","session":"a"}"#).unwrap();
        assert!(matches!(t.recv(Duration::from_secs(1)), Err(TransportError::Closed(_))));
        assert!(t.describe().contains("unreliable"));
    }

    #[test]
    fn slowed_transports_straggle_then_answer() {
        let mut t = Unreliable::slowed_by(InProcess::new(), Duration::from_millis(80));
        let started = Instant::now();
        t.send(r#"{"cmd":"open","session":"a","n":10,"colorer":"trivial"}"#).unwrap();
        // Short deadlines burn their whole budget and report a straggle…
        assert_eq!(
            t.recv(Duration::from_millis(10)),
            Err(TransportError::Timeout(Duration::from_millis(10)))
        );
        // …until the delay elapses and the answer comes through intact.
        let response = t.recv(Duration::from_secs(5)).unwrap();
        assert!(response.contains("\"ok\":true"), "{response}");
        assert!(started.elapsed() >= Duration::from_millis(80), "answer arrived early");
        assert!(t.describe().contains("slowed"), "{}", t.describe());
    }

    #[test]
    fn ssh_destinations_are_validated_before_any_spawn() {
        assert_eq!(
            split_dest("user@host:opt/streamcolor").unwrap(),
            ("user@host".to_string(), "opt/streamcolor".to_string())
        );
        assert_eq!(
            split_dest("worker7").unwrap(),
            ("worker7".to_string(), "streamcolor".to_string())
        );
        assert!(split_dest("").unwrap_err().contains("no host"));
        assert!(split_dest(":bin/streamcolor").unwrap_err().contains("no host"));
        assert!(split_dest("host:").unwrap_err().contains("empty remote path"));
        // A malformed destination must fail before the client spawns.
        assert!(ChildStdio::ssh("host:").is_err());

        // IPv6: multiple colons without brackets are all host, never a
        // path split at the first colon.
        assert_eq!(
            split_dest("user@::1").unwrap(),
            ("user@::1".to_string(), "streamcolor".to_string())
        );
        assert_eq!(
            split_dest("fe80::1").unwrap(),
            ("fe80::1".to_string(), "streamcolor".to_string())
        );
        // Brackets (ssh's literal-IPv6 syntax) delimit the host and
        // reopen the `:path` suffix; they are stripped for the client.
        assert_eq!(
            split_dest("user@[::1]:opt/streamcolor").unwrap(),
            ("user@::1".to_string(), "opt/streamcolor".to_string())
        );
        assert_eq!(
            split_dest("[fe80::1]").unwrap(),
            ("fe80::1".to_string(), "streamcolor".to_string())
        );
        assert!(split_dest("user@[::1").unwrap_err().contains("unclosed"));
        assert!(split_dest("user@[::1]:").unwrap_err().contains("empty remote path"));
        assert!(split_dest("[::1]junk").unwrap_err().contains("trailing garbage"));
        assert!(split_dest("user@[]").unwrap_err().contains("no host"));
    }

    #[test]
    fn tcp_recv_names_unterminated_bytes_on_close() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // A partial line — no terminating newline — then close.
            stream.write_all(b"{\"truncated\":tr").unwrap();
        });
        let mut t = Tcp::connect(&addr).unwrap();
        server.join().unwrap();
        let err = t.recv(Duration::from_secs(10)).unwrap_err();
        match err {
            TransportError::Closed(msg) => {
                assert_eq!(msg, "connection closed with 15 unterminated bytes");
            }
            other => panic!("want Closed, got {other:?}"),
        }
        // A clean close (no buffered bytes) keeps the plain message.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(stream);
        });
        let mut t = Tcp::connect(&addr).unwrap();
        server.join().unwrap();
        match t.recv(Duration::from_secs(10)).unwrap_err() {
            TransportError::Closed(msg) => assert_eq!(msg, "connection closed"),
            other => panic!("want Closed, got {other:?}"),
        }
    }

    #[test]
    fn boxed_transports_forward() {
        let mut t: Box<dyn Transport> = Box::new(InProcess::new());
        t.send(r#"{"cmd":"open","session":"a","n":10,"colorer":"trivial"}"#).unwrap();
        assert!(t.recv(Duration::from_secs(1)).unwrap().contains("\"ok\":true"));
        let mut wrapped = Unreliable::dying_after(t, 0);
        assert!(matches!(wrapped.recv(Duration::from_secs(1)), Err(TransportError::Closed(_))));
        assert!(wrapped.describe().contains("unreliable"));
    }

    #[test]
    fn errors_render_for_failure_reports() {
        assert_eq!(TransportError::Closed("pipe".into()).to_string(), "closed: pipe");
        assert!(TransportError::Timeout(Duration::from_millis(250)).to_string().contains("250ms"));
        assert!(TransportError::Protocol("junk".into()).to_string().starts_with("protocol"));
    }

    #[test]
    fn degenerate_fleets_are_errors() {
        let no_args: [&str; 0] = [];
        let spawn = ChildStdio::spawn("/nonexistent/worker-binary", &no_args);
        assert!(spawn.err().expect("spawn must fail").contains("cannot spawn"));
        let connect = Tcp::connect("127.0.0.1:1");
        assert!(connect.err().expect("connect must fail").contains("cannot connect"));
        assert!(ChildStdio::ssh("").err().expect("ssh must fail").contains("no host"));
    }
}
