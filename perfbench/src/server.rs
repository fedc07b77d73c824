//! The server under test as a child process, and client connections.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// A `streamcolor serve --listen 127.0.0.1:0 --reactor` child process.
/// Killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address from the server's `listening on ADDR` line.
    pub addr: String,
}

impl Server {
    /// Spawns the server and waits for its `listening on` line.
    ///
    /// # Errors
    /// A failed spawn, or a first line that does not name an address.
    pub fn spawn(bin: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--listen", "127.0.0.1:0", "--reactor"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not announce an address (got {line:?})"));
            }
        };
        Ok(Self { child, _stdout: stdout, addr })
    }

    /// Opens a client connection.
    ///
    /// # Errors
    /// A failed connect.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(&self.addr)
    }

    /// The server's peak resident memory in MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(self.child.id())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a live process in MiB, read from `/proc/<pid>/status`
/// (0 when unreadable).
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A closed-loop protocol connection: one line out, one line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    reply: String,
}

impl Conn {
    fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // A wedged server fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Self { reader: BufReader::new(stream), writer, out: Vec::new(), reply: String::new() })
    }

    /// Sends `line` and returns the reply line (without its newline).
    ///
    /// # Errors
    /// Socket errors, and a connection closed before a full reply.
    pub fn call(&mut self, line: &str) -> Result<&str, String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out).map_err(|e| format!("send: {e}"))?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) if self.reply.ends_with('\n') => {
                self.reply.pop();
                Ok(&self.reply)
            }
            Ok(_) => Err("reply ended without a newline".to_string()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}
