//! Transport configuration, plus the stdio transport.
//!
//! TCP connections are served by the [`crate::reactor`]; this module
//! holds the knobs it runs with and the newline-JSON loop over
//! stdin/stdout, which decodes through the same line helper.

use std::io::{self, BufRead, Write};
use std::thread;
use std::time::Duration;

use crate::reactor::{respond_line, Handler};
use crate::service::Service;

/// Transport-level tuning for the TCP server.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Event loops, one per thread, each with its own listener
    /// (clamped to ≥ 1).
    pub workers: usize,
    /// How long a connection may hold a partial request or unsent reply
    /// bytes without any read or write progress before it is closed. An
    /// idle connection with nothing buffered is never closed. `None`
    /// waits forever.
    pub stall_timeout: Option<Duration>,
    /// Longest accepted request line, bytes. Longer lines are answered
    /// with a JSON `error` (and discarded), not a disconnect.
    pub max_line_bytes: usize,
    /// Longest accepted binary frame body, bytes. Larger frames are
    /// answered with an `error` frame and skipped — the length prefix
    /// tells the server exactly how much to discard, so the stream
    /// stays in sync, mirroring the `max_line_bytes` behavior.
    pub max_frame_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: default_workers(),
            stall_timeout: Some(Duration::from_secs(30)),
            max_line_bytes: 1 << 20,
            max_frame_bytes: 1 << 20,
        }
    }
}

/// Default worker count: the machine's available parallelism, clamped
/// to [1, 8] — request handlers are microseconds, so a few event loops
/// cover a lot of connections.
fn default_workers() -> usize {
    thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1).clamp(1, 8)
}

/// Serves requests from stdin to stdout until `shutdown` or EOF.
pub fn serve_stdio(service: &Service) -> io::Result<()> {
    let stdin = io::stdin();
    let mut stdout = io::stdout().lock();
    let mut affinity = service.worker();
    let mut out = String::new();
    for line in stdin.lock().lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let shutdown = respond_line(service, line, &mut out, &mut affinity);
        stdout.write_all(out.as_bytes())?;
        stdout.flush()?;
        out.clear();
        if shutdown {
            break;
        }
    }
    Ok(())
}
