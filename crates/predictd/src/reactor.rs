//! The one connection engine behind predictd and predictgw: a
//! readiness-based reactor with nonblocking accept/read/write over
//! epoll, one event loop per worker thread, each with its own
//! `SO_REUSEPORT` listener, and a per-connection state machine with
//! reused buffers.
//!
//! **Why thread-per-core?** Each worker owns an epoll instance and its
//! own listener, so the kernel spreads connections across cores and a
//! core's connections never migrate. That pinning is what makes
//! per-worker state sound: predictd keeps a core-local [`Affinity`]
//! replica of the machines reported on that core, and predictgw keeps
//! private backend lanes per worker.
//!
//! **The reactor owns the wire format.** The first byte of a connection
//! picks the codec: the binary [`binproto::MAGIC`] byte (which can never
//! start a JSON line) routes it to the length-prefixed frame loop,
//! anything else to newline-delimited JSON, which serde parses and
//! writes. Over-long lines and frames are answered with an `error` and
//! skipped, and the connection stays up. A daemon plugs in through
//! [`Handler`]: per-worker state and one call from a decoded request to
//! its response.
//!
//! **Backpressure and stalls.** A connection whose unsent replies pass
//! a high-water mark stops being read until the peer drains them. A
//! connection that holds a partial request or unsent reply bytes and
//! makes no read or write progress for [`ServerConfig::stall_timeout`]
//! is closed; an idle connection with nothing buffered is never closed,
//! since the gateway's backend lanes stay open between requests. The
//! clock is read only while such a deadline is armed.
//!
//! Partial reads, partial writes, `EINTR`, oversized inputs, and slow
//! readers are all states of the per-connection machine, not error
//! paths. A `shutdown` request stops every loop once its reply is
//! flushed.
//!
//! [`Affinity`]: crate::service::Affinity

use std::io::{self, Read, Write};
use std::net::{SocketAddr, SocketAddrV4, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::binproto;
use crate::poll::{
    bind_reuseport, Epoll, EpollEvent, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::proto::{Request, Response};
use crate::server::ServerConfig;

/// Reads per readiness wakeup go through this per-loop scratch buffer.
const SCRATCH_BYTES: usize = 64 * 1024;

/// Stop reading from a connection whose unsent response backlog grows
/// past this; reading resumes once the peer drains below it. One
/// stalled client caps its own memory and never blocks the loop.
const HIGH_WATER_BYTES: usize = 1 << 20;

/// Readiness records fetched per `epoll_wait`.
const MAX_EVENTS: usize = 256;

/// What a daemon plugs into the reactor.
pub trait Handler: Sync {
    /// Per-worker state, built once on each event-loop thread and never
    /// shared with another.
    type Worker;

    /// Builds one event-loop thread's private state.
    fn worker(&self) -> Self::Worker;

    /// Answers one decoded request; the flag is true when the daemon
    /// should stop once the response is sent.
    fn serve_request(&self, req: &Request, worker: &mut Self::Worker) -> (Response, bool);
}

/// Answers one JSON request line (without its newline) and appends the
/// response line, newline included, to `out`. Malformed input yields an
/// `error` response, never a dropped connection. Returns the shutdown
/// flag. Serde parses the line and writes the reply; it owns
/// acceptance and error wording.
pub fn respond_line<H: Handler>(h: &H, line: &str, out: &mut String, w: &mut H::Worker) -> bool {
    let (resp, shutdown) = match serde_json::from_str::<Request>(line) {
        Ok(req) => h.serve_request(&req, w),
        Err(e) => (Response::error(format!("bad request: {e}")), false),
    };
    serde_json::to_string_into(&resp, out);
    out.push('\n');
    shutdown
}

/// Answers one binary frame body (tag and payload, length prefix
/// already stripped) and appends the complete response frame to `out`.
/// Malformed frames yield an `error` frame. Returns the shutdown flag.
pub fn respond_frame<H: Handler>(h: &H, body: &[u8], out: &mut Vec<u8>, w: &mut H::Worker) -> bool {
    let (resp, shutdown) = match binproto::decode_request(body) {
        Ok(req) => h.serve_request(&req, w),
        Err(e) => (Response::error(format!("bad frame: {e}")), false),
    };
    if !binproto::encode_response(&resp, out) {
        // Unreachable for the responses the daemons build (a length
        // field would have to exceed u32); keep the stream framed with
        // a tiny error rather than dropping the reply.
        let _ = binproto::encode_response(
            &Response::error("response exceeds binary frame limits"),
            out,
        );
    }
    shutdown
}

/// How a connection's bytes are interpreted.
enum Mode {
    /// First byte not seen yet.
    Sniff,
    /// Newline-delimited JSON.
    Json,
    /// Length-prefixed binary frames (preamble already validated).
    Binary,
}

/// One connection's state machine. Buffers persist across readiness
/// wakeups, so partial reads and writes simply pause the machine.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet parsed (partial line or frame).
    rbuf: Vec<u8>,
    /// Encoded responses not yet accepted by the kernel.
    wbuf: Vec<u8>,
    /// How much of `wbuf` has been written (partial-write cursor).
    wpos: usize,
    mode: Mode,
    /// JSON: an over-long line is being discarded through its newline.
    json_discard: bool,
    /// Binary: bytes of an oversized frame still to skip.
    bin_discard: usize,
    /// Close once `wbuf` drains (EOF seen, bad preamble, or shutdown).
    closing: bool,
    /// Interest bits currently registered with epoll.
    interest: u32,
    /// Bytes moved in either direction since the stall deadline was
    /// last checked.
    progressed: bool,
    /// When this connection is closed unless it makes progress; set
    /// only while it holds bytes.
    deadline: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            rbuf: Vec::with_capacity(4096),
            wbuf: Vec::with_capacity(4096),
            wpos: 0,
            mode: Mode::Sniff,
            json_discard: false,
            bin_discard: 0,
            closing: false,
            interest: EPOLLIN | EPOLLRDHUP,
            progressed: false,
            deadline: None,
        }
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// True while a partial request or unsent reply is held — the only
    /// state the stall timeout applies to.
    fn holds_bytes(&self) -> bool {
        !self.rbuf.is_empty()
            || self.pending_write() > 0
            || self.json_discard
            || self.bin_discard > 0
    }
}

/// A bound-but-not-yet-running reactor: bind first (so the caller
/// learns the port), then [`Reactor::run`] until a `shutdown` request.
pub struct Reactor {
    listeners: Vec<TcpListener>,
    addr: SocketAddr,
    cfg: ServerConfig,
}

impl Reactor {
    /// Binds `cfg.workers` `SO_REUSEPORT` listeners (at least one) on
    /// the first IPv4 address `addr` resolves to; the reactor listens
    /// on IPv4 only. With port 0 the first bind picks the port and the
    /// rest join it.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServerConfig) -> io::Result<Self> {
        let v4 = addr
            .to_socket_addrs()?
            .find_map(|a| match a {
                SocketAddr::V4(v4) => Some(v4),
                SocketAddr::V6(_) => None,
            })
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::Unsupported,
                    "no IPv4 address: the daemons listen on IPv4 only",
                )
            })?;
        let first = bind_reuseport(v4)?;
        let addr = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..cfg.workers.max(1) {
            listeners.push(bind_reuseport(SocketAddrV4::new(*v4.ip(), addr.port()))?);
        }
        Ok(Reactor { listeners, addr, cfg })
    }

    /// The address the listeners are bound to (port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs one event loop per listener, the first on the calling
    /// thread, until a `shutdown` request is handled on any of them or
    /// `stop` is set (and woken by a connection). A handled `shutdown`
    /// sets `stop` too, so the caller can wind down its own threads
    /// with the same flag.
    pub fn run<H: Handler>(self, handler: &H, stop: &AtomicBool) -> io::Result<()> {
        let Reactor { listeners, cfg, .. } = self;
        let wakers = listeners.iter().map(|_| Waker::new()).collect::<io::Result<Vec<_>>>()?;
        let (cfg, wakers) = (&cfg, &wakers[..]);
        std::thread::scope(|scope| {
            let mut loops = listeners.into_iter().enumerate();
            let first = loops.next();
            let handles: Vec<_> = loops
                .map(|(i, l)| scope.spawn(move || event_loop(l, i, handler, cfg, stop, wakers)))
                .collect();
            let first = match first {
                Some((i, l)) => event_loop(l, i, handler, cfg, stop, wakers),
                None => Ok(()),
            };
            for h in handles {
                match h.join() {
                    Ok(r) => r?,
                    Err(_) => return Err(io::Error::other("event loop panicked")),
                }
            }
            first
        })
    }
}

/// Slab token of the listener.
const TOKEN_LISTENER: u64 = 0;
/// Slab token of the wakeup eventfd.
const TOKEN_WAKER: u64 = 1;
/// First token available for connections.
const TOKEN_CONNS: u64 = 2;

/// One worker's request path: the handler, its per-worker state, and
/// the loop's reusable buffers.
struct Io<'a, H: Handler> {
    handler: &'a H,
    cfg: &'a ServerConfig,
    worker: H::Worker,
    /// Socket reads land here first.
    scratch: Vec<u8>,
    /// JSON replies are encoded here, then moved to the write buffer.
    text: String,
}

/// One worker's loop: accept, sniff, parse, handle, write — all
/// nonblocking, all level-triggered.
// modelcheck: event-loop
fn event_loop<H: Handler>(
    listener: TcpListener,
    me: usize,
    handler: &H,
    cfg: &ServerConfig,
    stop: &AtomicBool,
    wakers: &[Waker],
) -> io::Result<()> {
    let epoll = Epoll::new()?;
    epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)?;
    let waker = &wakers[me];
    epoll.add(waker.as_raw_fd(), TOKEN_WAKER, EPOLLIN)?;
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
    let mut io = Io {
        handler,
        cfg,
        worker: handler.worker(),
        scratch: vec![0u8; SCRATCH_BYTES],
        text: String::new(),
    };
    // After `stop`, linger briefly to flush pending responses (most
    // importantly the `ok` reply to the shutdown request itself).
    let mut drain_deadline: Option<Instant> = None;
    // No stall deadline of any connection is earlier than this.
    let mut sweep_at: Option<Instant> = None;
    loop {
        if stop.load(Ordering::Acquire) {
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + Duration::from_secs(1));
            let pending = conns.iter().flatten().any(|c| c.pending_write() > 0);
            if !pending || Instant::now() >= deadline {
                return Ok(());
            }
        }
        let timeout = match (drain_deadline, sweep_at) {
            (Some(_), _) => 20,
            (None, Some(at)) => {
                let left = at.saturating_duration_since(Instant::now()).as_millis();
                i32::try_from(left).map_or(i32::MAX, |ms| ms.saturating_add(1))
            }
            (None, None) => -1,
        };
        let n = epoll.wait(&mut events, timeout)?;
        for ev in events.iter().take(n) {
            let token = ev.data;
            let bits = ev.events;
            match token {
                TOKEN_LISTENER => accept_ready(&listener, &epoll, &mut conns, &mut free),
                TOKEN_WAKER => waker.drain(),
                t => {
                    let idx = usize::try_from(t.saturating_sub(TOKEN_CONNS)).unwrap_or(usize::MAX);
                    let Some(slot) = conns.get_mut(idx) else { continue };
                    let Some(conn) = slot.as_mut() else { continue };
                    let mut dead = bits & (EPOLLERR | EPOLLHUP) != 0;
                    if !dead && bits & (EPOLLIN | EPOLLRDHUP) != 0 {
                        dead = !on_readable(conn, &mut io, stop, wakers);
                    }
                    if !dead {
                        dead = !on_writable(conn);
                    }
                    if dead || (conn.closing && conn.pending_write() == 0) {
                        close(&epoll, slot, idx, &mut free);
                        continue;
                    }
                    if let Some(limit) = cfg.stall_timeout {
                        arm_stall(conn, limit, &mut sweep_at);
                    }
                    refresh_interest(&epoll, conn, t);
                }
            }
        }
        if let Some(at) = sweep_at {
            let now = Instant::now();
            if now >= at {
                sweep_at = close_stalled(&epoll, &mut conns, &mut free, now);
            }
        }
    }
}

/// Removes a connection from epoll and frees its slot.
fn close(epoll: &Epoll, slot: &mut Option<Conn>, idx: usize, free: &mut Vec<usize>) {
    if let Some(conn) = slot.take() {
        let _ = epoll.delete(conn.stream.as_raw_fd());
        free.push(idx);
    }
}

/// Arms, pushes back, or clears a connection's stall deadline after an
/// event: armed while it holds bytes, pushed back whenever bytes moved.
fn arm_stall(conn: &mut Conn, limit: Duration, sweep_at: &mut Option<Instant>) {
    if !conn.holds_bytes() {
        conn.deadline = None;
    } else if conn.progressed || conn.deadline.is_none() {
        // A limit too far out to represent never fires.
        conn.deadline = Instant::now().checked_add(limit);
        if let Some(at) = conn.deadline {
            *sweep_at = Some(sweep_at.map_or(at, |s| s.min(at)));
        }
    }
    conn.progressed = false;
}

/// Closes every connection whose stall deadline has passed; returns
/// the earliest deadline still armed.
fn close_stalled(
    epoll: &Epoll,
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    now: Instant,
) -> Option<Instant> {
    let mut next: Option<Instant> = None;
    for (idx, slot) in conns.iter_mut().enumerate() {
        let Some(at) = slot.as_ref().and_then(|c| c.deadline) else { continue };
        if at <= now {
            close(epoll, slot, idx, free);
        } else {
            next = Some(next.map_or(at, |n| n.min(at)));
        }
    }
    next
}

/// Accepts every pending connection (level-triggered listener).
fn accept_ready(
    listener: &TcpListener,
    epoll: &Epoll,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let fd = stream.as_raw_fd();
                let conn = Conn::new(stream);
                let idx = match free.pop() {
                    Some(i) => {
                        conns[i] = Some(conn);
                        i
                    }
                    None => {
                        conns.push(Some(conn));
                        conns.len() - 1
                    }
                };
                let token = TOKEN_CONNS + u64::try_from(idx).unwrap_or(0);
                if epoll.add(fd, token, EPOLLIN | EPOLLRDHUP).is_err() {
                    conns[idx] = None;
                    free.push(idx);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Transient accept failures (e.g. fd exhaustion): give up
            // this round; the listener stays registered.
            Err(_) => return,
        }
    }
}

/// Drains the socket into the connection's read buffer and processes
/// every complete request. Returns false when the connection is dead.
fn on_readable<H: Handler>(
    conn: &mut Conn,
    io: &mut Io<'_, H>,
    stop: &AtomicBool,
    wakers: &[Waker],
) -> bool {
    if conn.closing {
        return true;
    }
    loop {
        // Backpressure: stop pulling input while the peer is not
        // draining our responses.
        if conn.pending_write() > HIGH_WATER_BYTES {
            break;
        }
        match conn.stream.read(&mut io.scratch) {
            Ok(0) => {
                // Peer closed its writing half; serve what is buffered,
                // flush, then close.
                conn.closing = true;
                break;
            }
            Ok(n) => {
                conn.progressed = true;
                conn.rbuf.extend_from_slice(&io.scratch[..n]);
                if n < io.scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    process_rbuf(conn, io, stop, wakers);
    true
}

/// Sniffs the codec if needed, then parses and handles everything
/// complete in `rbuf`, appending encoded responses to `wbuf`.
// modelcheck: event-loop
fn process_rbuf<H: Handler>(
    conn: &mut Conn,
    io: &mut Io<'_, H>,
    stop: &AtomicBool,
    wakers: &[Waker],
) {
    if matches!(conn.mode, Mode::Sniff) && !conn.rbuf.is_empty() {
        if conn.rbuf[0] == binproto::MAGIC {
            if conn.rbuf.len() < binproto::PREAMBLE.len() {
                return; // partial preamble: wait for more bytes
            }
            if conn.rbuf[..4] == binproto::PREAMBLE {
                conn.rbuf.drain(..4);
                conn.mode = Mode::Binary;
            } else {
                let _ = binproto::encode_response(
                    &Response::error("bad preamble: expected BD 50 44 01"),
                    &mut conn.wbuf,
                );
                conn.closing = true;
                return;
            }
        } else {
            conn.mode = Mode::Json;
        }
    }
    let shutdown = match conn.mode {
        Mode::Sniff => false,
        Mode::Json => process_json(conn, io),
        Mode::Binary => process_binary(conn, io),
    };
    if shutdown {
        conn.closing = true;
        stop.store(true, Ordering::Release);
        for w in wakers {
            w.wake();
        }
    }
}

/// JSON mode: handle every complete line in `rbuf`. Returns the
/// shutdown flag.
fn process_json<H: Handler>(conn: &mut Conn, io: &mut Io<'_, H>) -> bool {
    let max = io.cfg.max_line_bytes;
    let mut shutdown = false;
    let mut consumed = 0;
    io.text.clear();
    while let Some(nl) = conn.rbuf[consumed..].iter().position(|&b| b == b'\n') {
        let line_end = consumed + nl;
        if conn.json_discard {
            // Tail of an over-long line: drop it; the error response
            // was already queued when the cap tripped.
            conn.json_discard = false;
            consumed = line_end + 1;
            continue;
        }
        let line = &conn.rbuf[consumed..line_end];
        consumed = line_end + 1;
        if line.len() > max {
            append_json_error(&mut io.text, &format!("request line exceeds {max} bytes"));
            continue;
        }
        match std::str::from_utf8(line) {
            Ok(text) => {
                let text = text.trim();
                if !text.is_empty() && respond_line(io.handler, text, &mut io.text, &mut io.worker)
                {
                    shutdown = true;
                    break;
                }
            }
            Err(_) => append_json_error(&mut io.text, "request line is not valid UTF-8"),
        }
    }
    conn.rbuf.drain(..consumed);
    if conn.json_discard {
        // Still inside an over-long line: keep dropping its bytes.
        conn.rbuf.clear();
    } else if conn.rbuf.len() > max {
        // A partial line already past the cap: reject now, discard the
        // rest as it streams in.
        append_json_error(&mut io.text, &format!("request line exceeds {max} bytes"));
        conn.rbuf.clear();
        conn.json_discard = true;
    }
    conn.wbuf.extend_from_slice(io.text.as_bytes());
    shutdown
}

/// Binary mode: handle every complete frame in `rbuf`. Returns the
/// shutdown flag.
fn process_binary<H: Handler>(conn: &mut Conn, io: &mut Io<'_, H>) -> bool {
    let max = io.cfg.max_frame_bytes;
    let mut shutdown = false;
    let mut consumed = 0;
    loop {
        // Finish skipping an oversized frame first.
        if conn.bin_discard > 0 {
            let available = conn.rbuf.len() - consumed;
            let skip = conn.bin_discard.min(available);
            consumed += skip;
            conn.bin_discard -= skip;
            if conn.bin_discard > 0 {
                break;
            }
        }
        let rest = &conn.rbuf[consumed..];
        if rest.len() < 4 {
            break;
        }
        let mut len4 = [0u8; 4];
        len4.copy_from_slice(&rest[..4]);
        let len = usize::try_from(u32::from_le_bytes(len4)).unwrap_or(usize::MAX);
        if len == 0 {
            consumed += 4;
            let _ = binproto::encode_response(
                &Response::error("bad frame: empty frame"),
                &mut conn.wbuf,
            );
            continue;
        }
        if len > max {
            consumed += 4;
            conn.bin_discard = len;
            let _ = binproto::encode_response(
                &Response::error(format!("frame exceeds {max} bytes")),
                &mut conn.wbuf,
            );
            continue;
        }
        if rest.len() < 4 + len {
            break; // partial frame: wait for more bytes
        }
        let done = respond_frame(io.handler, &rest[4..4 + len], &mut conn.wbuf, &mut io.worker);
        consumed += 4 + len;
        if done {
            shutdown = true;
            break;
        }
    }
    conn.rbuf.drain(..consumed);
    shutdown
}

/// Appends a JSON `error` response line.
fn append_json_error(out: &mut String, message: &str) {
    serde_json::to_string_into(&Response::error(message), out);
    out.push('\n');
}

/// Pushes pending response bytes into the socket, advancing the
/// partial-write cursor. Returns false when the connection is dead.
fn on_writable(conn: &mut Conn) -> bool {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return false,
            Ok(n) => {
                conn.wpos += n;
                conn.progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > HIGH_WATER_BYTES {
        // Reclaim the already-written prefix so a slow reader does not
        // hold the high-water mark's worth of dead bytes.
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
    true
}

/// Re-registers the connection's epoll interest to match its state:
/// write-interest only while output is pending, read-interest only
/// while below the backpressure high-water mark and not closing.
fn refresh_interest(epoll: &Epoll, conn: &mut Conn, token: u64) {
    let mut want = 0;
    if !conn.closing && conn.pending_write() <= HIGH_WATER_BYTES {
        want |= EPOLLIN | EPOLLRDHUP;
    }
    if conn.pending_write() > 0 {
        want |= EPOLLOUT;
    }
    if want != conn.interest && epoll.modify(conn.stream.as_raw_fd(), token, want).is_ok() {
        conn.interest = want;
    }
}
