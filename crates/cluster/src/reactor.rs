//! The TCP serving surface: one event loop, one shared [`Service`],
//! thousands of connections — the back end of `streamcolor serve
//! --listen ADDR`, and the endpoint [`Tcp`](crate::transport::Tcp)
//! transports dial.
//!
//! The [`Reactor`] multiplexes every accepted connection onto **one**
//! thread with the `polling` readiness API (see
//! `crates/compat/README.md`): nonblocking accept, nonblocking reads
//! into per-connection line buffers, nonblocking writes out of
//! per-connection response queues. A thousand idle dashboards cost one
//! stack, not a thousand.
//!
//! One consequence of the single loop: commands are answered one at a
//! time, so a `run_job` slice occupies the loop until it finishes. A
//! `--transport tcp` fleet of N connections to one reactor therefore
//! runs its slices one after another; stdio and ssh fleets (one serve
//! process per worker) run them in parallel.
//!
//! ## How isolation survives the sharing
//!
//! The multi-tenant determinism law — K sessions interleaved over one
//! host answer byte-for-byte what K isolated runs answer — holds
//! because session keys are **owner-scoped**: the
//! shared [`Service`] keys tenants by `(connection id, name)`
//! ([`Service::respond_as`]), so two connections both opening `"alpha"`
//! own disjoint tenants, exactly as if each had a private host. A
//! connection's lines are applied in arrival order by a single thread,
//! so each session's state is a function of its own command sequence
//! alone. Proven in `tests/reactor_determinism.rs` (including a
//! 256-connection soak diffed against one isolated `Service` per
//! connection).
//!
//! ## Backpressure and eviction
//!
//! * A connection's pending responses live in its own write buffer;
//!   when the buffer passes a high watermark the reactor **stops
//!   answering and reading on that connection** (its interest drops to
//!   write-only) until the peer drains it below the low watermark; then
//!   it answers the lines it already holds before it reads more. A peer
//!   that pipelines requests without reading replies therefore queues at
//!   most the high watermark plus one response, and a slow reader stalls
//!   only its own pipeline, never the loop.
//! * Reading stops while a connection holds `MAX_LINE_BYTES` (16 MiB)
//!   of received bytes it has not answered. If none of them is a `\n`,
//!   the line can never fit: the connection gets one `"ok":false` error
//!   naming the limit and closes once that error is written, so a peer
//!   that never ends its line holds at most the limit (plus one read
//!   chunk) of server memory.
//! * [`Reactor::with_idle_timeout`] evicts connections whose last
//!   activity is older than the timeout (their sessions drop with
//!   them, like a disconnect). The clock is injected
//!   ([`Reactor::with_clock`]) so tests fire the timeout
//!   deterministically.
//! * [`Reactor::with_max_sessions`] bounds *total* open sessions
//!   across all connections; at the cap an `open` evicts the
//!   least-recently-used session ([`Service::with_lru_eviction`]) and
//!   the evicted owner gets an error response — never an abort — on
//!   its next command for that session.
//! * [`Reactor::with_shared_sessions`] drops the owner-scoping: every
//!   connection acts as one host-wide owner, session names become
//!   global, and sessions **outlive their connections**. This is the
//!   mode `streamcolor migrate` and reconnect-after-snapshot flows
//!   need — a fresh connection can address a session an earlier one
//!   opened.

use polling::{Event, Events, Poller};
use sc_engine::flatjson::{encode_object, FlatObject, Scalar};
use sc_service::Service;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pause answering and reading on a connection once this many response
/// bytes are queued for it…
const WRITE_HIGH_WATERMARK: usize = 1 << 20;
/// …and resume once the queue drains below this.
const WRITE_LOW_WATERMARK: usize = 1 << 18;
/// Nonblocking read chunk size.
const READ_CHUNK: usize = 16 * 1024;
/// Reading pauses while a connection holds this many unanswered bytes,
/// so a line must be shorter; a longer one is refused. Far above the longest line
/// any shipped client sends (documented in `docs/PROTOCOL.md`).
const MAX_LINE_BYTES: usize = 1 << 24;
/// The poller key reserved for the listener (connection ids start at 1).
const LISTENER_KEY: usize = 0;

/// A clock the reactor samples for idle-connection eviction — injected
/// so tests control time instead of sleeping through it.
pub type Clock = Arc<dyn Fn() -> Instant + Send + Sync>;

/// One multiplexed connection: its socket, its partial-line read buffer,
/// its pending-response write buffer, and its idle clock.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet terminated by `\n`.
    rbuf: Vec<u8>,
    /// How many leading `rbuf` bytes are known to hold no `\n`, so each
    /// byte is scanned once however many reads a line spans.
    scanned: usize,
    /// Response bytes not yet accepted by the socket; `wpos` marks how
    /// far the front has been written (drained wholesale once the
    /// buffer empties, so no per-write memmove).
    wbuf: Vec<u8>,
    wpos: usize,
    last_activity: Instant,
    /// No more input will be read: the peer half-closed its sending
    /// side, or sent a line of [`MAX_LINE_BYTES`] or more. The
    /// connection closes once every buffered line is answered and the
    /// write buffer drains.
    eof: bool,
    /// Answering and reading are suspended (write buffer passed the high
    /// watermark) until the peer drains it below the low watermark.
    paused: bool,
}

impl Conn {
    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

/// The event-loop server behind `streamcolor serve --listen ADDR`.
///
/// ```no_run
/// let mut reactor = sc_cluster::Reactor::bind("127.0.0.1:0").unwrap();
/// println!("listening on {}", reactor.local_addr().unwrap());
/// reactor.run(None).unwrap(); // serve forever
/// ```
pub struct Reactor {
    listener: TcpListener,
    max_sessions: Option<usize>,
    idle_timeout: Option<Duration>,
    clock: Clock,
    snapshot_dir: Option<std::path::PathBuf>,
    shared_sessions: bool,
}

impl Reactor {
    /// Binds `addr` (port 0 lets the OS pick; read it back with
    /// [`Reactor::local_addr`]).
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            max_sessions: None,
            idle_timeout: None,
            clock: Arc::new(Instant::now),
            snapshot_dir: None,
            shared_sessions: false,
        })
    }

    /// Bounds open sessions across **all** connections; at the cap an
    /// `open` evicts the least-recently-used session (any connection)
    /// rather than erroring — the shared-host policy. See
    /// [`Service::with_lru_eviction`].
    #[must_use]
    pub fn with_max_sessions(mut self, limit: usize) -> Self {
        self.max_sessions = Some(limit);
        self
    }

    /// Evicts connections idle (no bytes received) for longer than
    /// `timeout`; their sessions drop exactly as on disconnect.
    #[must_use]
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = Some(timeout);
        self
    }

    /// Substitutes the idle-eviction clock (tests advance a fake clock
    /// instead of sleeping).
    #[must_use]
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Upgrades LRU eviction from evict-to-tombstone to evict-to-disk
    /// ([`Service::with_snapshot_dir`]): the victim's snapshot blob
    /// lands in `dir` and its next command transparently restores it —
    /// `serve --reactor --snapshot-dir DIR`.
    #[must_use]
    pub fn with_snapshot_dir(mut self, dir: std::path::PathBuf) -> Self {
        self.snapshot_dir = Some(dir);
        self
    }

    /// Makes session names host-global instead of per-connection: every
    /// connection speaks as one shared owner, and sessions survive
    /// their opener's disconnect (they end only on `finish`, eviction,
    /// or process exit). Two clients opening the same name now collide
    /// — that is the point: `streamcolor migrate` can dial in fresh and
    /// address a session another client opened —
    /// `serve --reactor --shared-sessions`.
    #[must_use]
    pub fn with_shared_sessions(mut self) -> Self {
        self.shared_sessions = true;
        self
    }

    /// The bound address.
    ///
    /// # Errors
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the event loop. With `accept_limit: Some(n)` it stops
    /// accepting after `n` connections and returns once the last of
    /// them closes (tests and demos); with `None` it serves forever.
    ///
    /// Transient accept failures (a client resetting mid-handshake, a
    /// signal, a momentary fd or buffer shortage — see
    /// `should_retry_accept`) skip that attempt instead of killing the
    /// listener: one flaky client must never take the serving surface
    /// down for everyone else. Per-connection I/O errors close only that
    /// connection.
    ///
    /// # Errors
    /// Propagates fatal listener errors and poller failures.
    pub fn run(&mut self, accept_limit: Option<usize>) -> std::io::Result<()> {
        let mut service = Service::new();
        if let Some(limit) = self.max_sessions {
            service = service.with_max_sessions(limit).with_lru_eviction();
        }
        if let Some(dir) = &self.snapshot_dir {
            service = service.with_snapshot_dir(dir.clone());
        }

        self.listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(&self.listener, Event::readable(LISTENER_KEY))?;

        let mut conns: BTreeMap<usize, Conn> = BTreeMap::new();
        let mut events = Events::with_capacity(256);
        let mut accepted = 0usize;
        let mut next_id = 1usize;

        loop {
            if let Some(limit) = accept_limit {
                if accepted >= limit && conns.is_empty() {
                    poller.delete(&self.listener)?;
                    return Ok(());
                }
            }

            // Sleep at most a tick when idle eviction is on, so the
            // sweep below runs even with no socket activity.
            let timeout = self.idle_timeout.map(|t| (t / 4).min(Duration::from_millis(25)));
            events.clear();
            poller.wait(&mut events, timeout)?;

            let mut touched: Vec<usize> = Vec::new();
            for event in events.iter() {
                if event.key == LISTENER_KEY {
                    self.accept_ready(
                        &poller,
                        &mut conns,
                        &mut next_id,
                        &mut accepted,
                        accept_limit,
                        &mut service,
                    )?;
                } else {
                    touched.push(event.key);
                }
            }

            let now = (self.clock)();
            for id in touched {
                let Some(conn) = conns.get_mut(&id) else { continue };
                let owner = if self.shared_sessions { 0 } else { id as u64 };
                let gone = step_conn(conn, owner, &mut service, now);
                if gone {
                    self.close_conn(&poller, &mut conns, id, &mut service, accepted);
                } else {
                    rearm(&poller, &mut conns, id)?;
                }
            }

            if let Some(idle) = self.idle_timeout {
                let now = (self.clock)();
                let doomed: Vec<usize> = conns
                    .iter()
                    .filter(|(_, c)| now.duration_since(c.last_activity) >= idle)
                    .map(|(id, _)| *id)
                    .collect();
                for id in doomed {
                    self.close_conn(&poller, &mut conns, id, &mut service, accepted);
                }
            }
        }
    }

    /// Drains the accept queue (the listener is armed oneshot, so it is
    /// re-armed afterwards — unless the accept limit is reached, which
    /// leaves it disarmed for good).
    fn accept_ready(
        &self,
        poller: &Poller,
        conns: &mut BTreeMap<usize, Conn>,
        next_id: &mut usize,
        accepted: &mut usize,
        accept_limit: Option<usize>,
        service: &mut Service,
    ) -> std::io::Result<()> {
        loop {
            if accept_limit.is_some_and(|limit| *accepted >= limit) {
                return Ok(());
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(true)?;
                    let _ = stream.set_nodelay(true);
                    let id = *next_id;
                    *next_id += 1;
                    *accepted += 1;
                    let conn = Conn {
                        stream,
                        rbuf: Vec::new(),
                        scanned: 0,
                        wbuf: Vec::new(),
                        wpos: 0,
                        last_activity: (self.clock)(),
                        eof: false,
                        paused: false,
                    };
                    poller.add(&conn.stream, Event::readable(id))?;
                    conns.insert(id, conn);
                    service.record_connections(conns.len() as u64, *accepted as u64);
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                // Transient per-attempt failures: skip this attempt; the
                // loop's poller wait is the backoff.
                Err(err) if is_transient_accept_error(&err) => break,
                Err(err) => return Err(err),
            }
        }
        if accept_limit.is_none_or(|limit| *accepted < limit) {
            poller.modify(&self.listener, Event::readable(LISTENER_KEY))?;
        }
        Ok(())
    }

    /// Closes a connection: deregisters the socket, drops its sessions
    /// ([`Service::drop_owner`] — a disconnect ends its tenants; skipped
    /// under
    /// [`Reactor::with_shared_sessions`], where sessions outlive
    /// connections), updates the host's connection gauge.
    fn close_conn(
        &self,
        poller: &Poller,
        conns: &mut BTreeMap<usize, Conn>,
        id: usize,
        service: &mut Service,
        accepted: usize,
    ) {
        if let Some(conn) = conns.remove(&id) {
            let _ = poller.delete(&conn.stream);
            if !self.shared_sessions {
                service.drop_owner(id as u64);
            }
            service.record_connections(conns.len() as u64, accepted as u64);
        }
    }
}

/// Services one readiness event on `conn`: answer buffered lines through
/// the shared service (owner = connection id, or 0 for every connection
/// under shared sessions), flush, and read until the socket runs dry —
/// once per step, so a peer that keeps its pipe full cannot hold the
/// loop. Answering stops while the queued responses sit at or above the
/// high watermark, so the queue never holds more than the watermark plus
/// one response; once the peer drains it below the low watermark the
/// buffered lines are answered before anything more is read. Returns
/// `true` when the connection is finished (peer gone, I/O error, or
/// clean EOF with every line answered and the write buffer empty).
fn step_conn(conn: &mut Conn, owner: u64, service: &mut Service, now: Instant) -> bool {
    let mut read = false;
    loop {
        // A paused connection may still hold complete lines; it answers
        // them on the first pass after it resumes.
        let lines_left = conn.paused || answer_lines(conn, owner, service);
        if !flush(conn) {
            return true;
        }
        // Watermark hysteresis: pause above HIGH, resume below LOW.
        if conn.pending_write() >= WRITE_HIGH_WATERMARK {
            conn.paused = true;
        } else if conn.pending_write() < WRITE_LOW_WATERMARK {
            conn.paused = false;
        }
        if conn.paused {
            break;
        }
        if lines_left {
            continue;
        }
        if conn.rbuf.len() >= MAX_LINE_BYTES {
            refuse_long_line(conn);
            continue;
        }
        if conn.eof || read {
            break;
        }
        read = true;
        if !read_dry(conn, now) {
            return true;
        }
    }
    // A paused connection still has responses queued; an unpaused one
    // only stops with every complete line answered.
    conn.eof && conn.pending_write() == 0
}

/// Reads until the socket runs dry, reports EOF, or [`MAX_LINE_BYTES`]
/// unanswered bytes are buffered. Returns `false` when the connection is
/// broken.
fn read_dry(conn: &mut Conn, now: Instant) -> bool {
    let mut chunk = [0u8; READ_CHUNK];
    while conn.rbuf.len() < MAX_LINE_BYTES {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                return true;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                conn.last_activity = now;
            }
            Err(err) if err.kind() == ErrorKind::WouldBlock => return true,
            Err(err) if err.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Answers a line that reached [`MAX_LINE_BYTES`] without a `\n` with
/// one error, drops it, and reads nothing more: the connection closes
/// once the error is written.
fn refuse_long_line(conn: &mut Conn) {
    let mut error = FlatObject::new();
    error.insert("ok".into(), Scalar::Bool(false));
    let message = format!("line too long: no newline within {MAX_LINE_BYTES} bytes");
    error.insert("error".into(), Scalar::Str(message));
    conn.wbuf.extend_from_slice(encode_object(&error).as_bytes());
    conn.wbuf.push(b'\n');
    conn.rbuf = Vec::new();
    conn.scanned = 0;
    conn.eof = true;
}

/// Answers complete lines in arrival order from a cursor into `rbuf`
/// while the queued responses stay under the high watermark, then drops
/// the answered prefix with one shift: a burst of pipelined lines costs
/// linear time, not a shift of the whole buffer per line. Returns whether
/// a complete line is left unanswered.
fn answer_lines(conn: &mut Conn, owner: u64, service: &mut Service) -> bool {
    let mut start = 0;
    let mut left = false;
    while let Some(len) = conn.rbuf[conn.scanned..].iter().position(|&b| b == b'\n') {
        if conn.pending_write() >= WRITE_HIGH_WATERMARK {
            left = true;
            break;
        }
        if conn.wpos > 0 {
            // Drop the already-written front before queueing more, so a
            // peer that drains slowly cannot grow the buffer unboundedly.
            conn.wbuf.drain(..conn.wpos);
            conn.wpos = 0;
        }
        let end = conn.scanned + len;
        let line = String::from_utf8_lossy(&conn.rbuf[start..end]);
        if let Some(response) = service.respond_as(owner, line.trim_end_matches('\r')) {
            conn.wbuf.extend_from_slice(response.as_bytes());
            conn.wbuf.push(b'\n');
        }
        start = end + 1;
        conn.scanned = start;
    }
    conn.rbuf.drain(..start);
    conn.scanned = if left { 0 } else { conn.rbuf.len() };
    left
}

/// Writes what the socket will take right now; leftovers arm write
/// interest in `rearm`. Returns `false` when the connection is broken.
fn flush(conn: &mut Conn) -> bool {
    while conn.pending_write() > 0 {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return false,
            Ok(n) => conn.wpos += n,
            Err(err) if err.kind() == ErrorKind::WouldBlock => break,
            Err(err) if err.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if conn.pending_write() == 0 {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    true
}

/// Re-arms oneshot interest to match the connection's state: readable
/// unless backpressured, writable while responses are queued.
fn rearm(poller: &Poller, conns: &mut BTreeMap<usize, Conn>, id: usize) -> std::io::Result<()> {
    let Some(conn) = conns.get(&id) else { return Ok(()) };
    let read = !conn.eof && !conn.paused;
    let write = conn.pending_write() > 0;
    let interest = Event { key: id, readable: read, writable: write };
    poller.modify(&conn.stream, interest)
}

/// Is this `accept(2)` failure about *one connection attempt* (retry)
/// rather than the listening socket itself (fatal)?
///
/// Retryable: the peer aborted mid-handshake (`ECONNABORTED`,
/// `ECONNRESET`), a signal interrupted the call (`EINTR`), the process
/// or system momentarily ran out of descriptors or buffers (`EMFILE`,
/// `ENFILE`, `ENOBUFS`, `ENOMEM` — these clear as other connections
/// close), or a spurious wakeup (`EAGAIN`). Anything else — `EBADF`,
/// `EINVAL`, a closed listener — means the listening socket is broken
/// and looping would spin forever.
fn should_retry_accept(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::ConnectionAborted
            | ErrorKind::ConnectionReset
            | ErrorKind::Interrupted
            | ErrorKind::WouldBlock
            | ErrorKind::TimedOut
            | ErrorKind::OutOfMemory
    )
}

/// [`should_retry_accept`] plus the descriptor/buffer-exhaustion errnos
/// that map to `ErrorKind::Uncategorized` on stable (`EMFILE`, `ENFILE`,
/// `ENOBUFS`).
fn is_transient_accept_error(err: &std::io::Error) -> bool {
    const EMFILE: i32 = 24;
    const ENFILE: i32 = 23;
    const ENOBUFS: i32 = 105;
    should_retry_accept(err.kind()) || matches!(err.raw_os_error(), Some(EMFILE | ENFILE | ENOBUFS))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{Tcp, Transport as _};

    const TICK: Duration = Duration::from_secs(10);

    #[test]
    fn transient_accept_errors_are_retryable_fatal_ones_are_not() {
        for kind in [
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionReset,
            ErrorKind::Interrupted,
            ErrorKind::WouldBlock,
            ErrorKind::TimedOut,
            ErrorKind::OutOfMemory,
        ] {
            assert!(should_retry_accept(kind), "{kind:?} must be retried");
        }
        for kind in [
            ErrorKind::InvalidInput,
            ErrorKind::PermissionDenied,
            ErrorKind::NotFound,
            ErrorKind::BrokenPipe,
            ErrorKind::AddrInUse,
            ErrorKind::Unsupported,
        ] {
            assert!(!should_retry_accept(kind), "{kind:?} must stay fatal");
        }
    }

    #[test]
    fn fd_exhaustion_errnos_are_transient_via_raw_os_codes() {
        for errno in [23, 24, 105] {
            let err = std::io::Error::from_raw_os_error(errno);
            assert!(is_transient_accept_error(&err), "errno {errno} ({err}) must be retried");
        }
        // EBADF / EINVAL: the listener itself is broken — fatal.
        for errno in [9, 22] {
            let err = std::io::Error::from_raw_os_error(errno);
            assert!(!is_transient_accept_error(&err), "errno {errno} ({err}) must stay fatal");
        }
    }

    #[test]
    fn listener_survives_a_client_aborting_mid_handshake() {
        // A client that connects and vanishes immediately must not take
        // the listener down: the next well-behaved client still gets
        // served. On most kernels the aborted attempt surfaces as a
        // short-lived connection rather than an accept error — either
        // way the loop must reach the second client.
        let mut reactor = Reactor::bind("127.0.0.1:0").unwrap();
        let addr = reactor.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || reactor.run(Some(2)).unwrap());

        let aborter = std::net::TcpStream::connect(&addr).unwrap();
        drop(aborter);

        let mut t = Tcp::connect(&addr).unwrap();
        t.send(r#"{"cmd":"open","session":"ok","n":10,"colorer":"trivial"}"#).unwrap();
        assert!(t.recv(TICK).unwrap().contains("\"ok\":true"));
        drop(t);
        handle.join().unwrap();
    }

    #[test]
    fn an_over_long_line_gets_one_error_then_eof_and_spares_other_connections() {
        let mut reactor = Reactor::bind("127.0.0.1:0").unwrap();
        let addr = reactor.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || reactor.run(Some(2)).unwrap());

        let script = [
            r#"{"cmd":"open","session":"s","n":40,"delta":6,"colorer":"robust"}"#,
            r#"{"cmd":"push_batch","session":"s","edges":"0-1 1-2 2-3"}"#,
            r#"{"cmd":"observe","session":"s"}"#,
            r#"{"cmd":"finish","session":"s"}"#,
        ];
        let mut isolated = Service::new();
        let expected: Vec<String> = script.iter().map(|l| isolated.respond(l).unwrap()).collect();
        let mut bystander = Tcp::connect(&addr).unwrap();
        let mut transcript = Vec::new();
        for line in &script[..2] {
            bystander.send(line).unwrap();
            transcript.push(bystander.recv(TICK).unwrap());
        }

        // Exactly the limit, no newline: the server reads all of it, so
        // it closes with nothing unread and the peer sees a clean EOF.
        let mut hog = TcpStream::connect(&addr).unwrap();
        hog.set_read_timeout(Some(TICK)).unwrap();
        hog.write_all(&vec![b'x'; MAX_LINE_BYTES]).unwrap();
        let mut got = String::new();
        hog.read_to_string(&mut got).unwrap();
        let expected_error =
            format!("{{\"error\":\"line too long: no newline within {MAX_LINE_BYTES} bytes\",\"ok\":false}}\n");
        assert_eq!(got, expected_error);

        for line in &script[2..] {
            bystander.send(line).unwrap();
            transcript.push(bystander.recv(TICK).unwrap());
        }
        drop(bystander);
        server.join().unwrap();
        assert_eq!(transcript, expected);
    }

    #[test]
    fn a_peer_that_never_reads_queues_at_most_the_watermark_plus_one_response() {
        // Several megabytes of observe replies — more than the loopback
        // socket buffers hold — asked for by a peer that reads nothing
        // until its whole burst is in and its sending side is closed.
        let mut lines =
            vec![r#"{"cmd":"open","session":"s","n":2000,"colorer":"trivial"}"#.to_string()];
        lines.push(r#"{"cmd":"push_batch","session":"s","edges":"0-1 1-2 5-9"}"#.to_string());
        lines.extend((0..2500).map(|_| r#"{"cmd":"observe","session":"s"}"#.to_string()));
        let mut isolated = Service::new();
        let replies: Vec<String> = lines.iter().map(|l| isolated.respond(l).unwrap()).collect();
        let bound = WRITE_HIGH_WATERMARK + replies.iter().map(|r| r.len() + 1).max().unwrap();
        let expected: String = replies.iter().map(|r| format!("{r}\n")).collect();
        assert!(expected.len() > 16 * WRITE_HIGH_WATERMARK, "the burst must overrun the watermark");

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let mut conn = Conn {
            stream,
            rbuf: Vec::new(),
            scanned: 0,
            wbuf: Vec::new(),
            wpos: 0,
            last_activity: Instant::now(),
            eof: false,
            paused: false,
        };
        let mut writer = client.try_clone().unwrap();
        let burst: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let writer = std::thread::spawn(move || {
            writer.write_all(burst.as_bytes()).unwrap();
            writer.shutdown(std::net::Shutdown::Write).unwrap();
        });
        let mut service = Service::new();
        let step = |conn: &mut Conn, service: &mut Service| {
            let gone = step_conn(conn, 1, service, Instant::now());
            assert!(conn.pending_write() <= bound, "{} bytes queued", conn.pending_write());
            std::thread::sleep(Duration::from_millis(1));
            gone
        };

        // Until the peer reads, the connection fills to the watermark and
        // stops answering and reading.
        let deadline = Instant::now() + TICK;
        while !conn.paused {
            assert!(!step(&mut conn, &mut service), "closed with lines unanswered");
            assert!(Instant::now() < deadline, "the connection never paused");
        }
        writer.join().unwrap();
        for _ in 0..20 {
            assert!(!step(&mut conn, &mut service), "closed with lines unanswered");
        }

        // Once the peer drains, every line is answered in order and the
        // connection closes; the transcript is the isolated one.
        let mut reader = client;
        let reader = std::thread::spawn(move || {
            let mut got = Vec::new();
            reader.read_to_end(&mut got).unwrap();
            got
        });
        let deadline = Instant::now() + TICK;
        while !step(&mut conn, &mut service) {
            assert!(Instant::now() < deadline, "the drained connection never closed");
        }
        drop(conn);
        assert!(reader.join().unwrap() == expected.as_bytes(), "transcript differs");
    }
}
