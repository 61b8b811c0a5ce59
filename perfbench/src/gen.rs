//! The open-loop load generator: one thread, two nonblocking
//! connections, one epoll set.
//!
//! Request `i` of a phase is due at `start + i / rate`. The thread sends
//! everything due, then sleeps in `epoll_pwait2` until a reply arrives
//! or the next send is due — it never spins. Latency is
//! measured from the due time, not the send time, so a stall (in the
//! daemon or in the generator) is charged to every request queued
//! behind it. How late the generator itself ran is recorded per request
//! so a phase where it fell behind is reported as over capacity instead
//! of being scored as a latency.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;

use predictd::poll::{EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use proto::binproto;

use crate::stream::{Codec, Frames};
use crate::sys::{now_ns, thread_cpu_us, Poller};

/// Largest reply frame accepted before the stream is declared corrupt.
const MAX_REPLY: usize = 16 << 20;
/// How long a phase may take to drain its replies after the last send.
const DRAIN_NS: u64 = 10_000_000_000;
/// Lead time between preparing a phase and its first due time.
const LEAD_NS: u64 = 2_000_000;

struct Conn {
    sock: TcpStream,
    codec: Codec,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    in_pos: usize,
    /// Due times and schedule slots of sent requests still waiting for
    /// their reply.
    due: VecDeque<(u64, usize)>,
    want_out: bool,
}

impl Conn {
    fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.sock.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "peer closed")),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Reads whatever is available and hands each complete reply body
    /// (frame prefix or newline stripped) to `on_reply` with its due time
    /// and schedule slot.
    fn read_replies(&mut self, mut on_reply: impl FnMut((u64, usize), &[u8])) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.sock.read(&mut chunk) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed")),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    // A short read drained the socket; skip the extra
                    // syscall that would only say so.
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        loop {
            let avail = &self.inbuf[self.in_pos..];
            let (body, used) = match self.codec {
                Codec::Binary => {
                    if avail.len() < 4 {
                        break;
                    }
                    let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
                    if len > MAX_REPLY {
                        return Err(io::Error::other(format!("reply frame of {len} bytes")));
                    }
                    if avail.len() < 4 + len {
                        break;
                    }
                    (&avail[4..4 + len], 4 + len)
                }
                Codec::Json => match avail.iter().position(|&b| b == b'\n') {
                    Some(nl) => (&avail[..nl], nl + 1),
                    None => {
                        if avail.len() > MAX_REPLY {
                            return Err(io::Error::other("unterminated reply line"));
                        }
                        break;
                    }
                },
            };
            let due = self.due.pop_front().ok_or_else(|| io::Error::other("unsolicited reply"))?;
            on_reply(due, body);
            self.in_pos += used;
        }
        if self.in_pos == self.inbuf.len() {
            self.inbuf.clear();
            self.in_pos = 0;
        } else if self.in_pos > 1 << 20 {
            self.inbuf.drain(..self.in_pos);
            self.in_pos = 0;
        }
        Ok(())
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Requests sent.
    pub sent: usize,
    /// Latency of each request from its due time, ns, by schedule slot
    /// (`u64::MAX`: no reply).
    pub lat_by_slot: Vec<u64>,
    /// Per request, how late the generator sent it, ns.
    pub late_ns: Vec<u64>,
    /// Reply bodies per connection, in send order.
    pub replies: Vec<Frames>,
    /// Requests still unanswered when the drain deadline passed.
    pub timeouts: usize,
    /// Requests in flight at the moment the last one was sent.
    pub backlog_at_end: usize,
    /// Wall time from the first due time to the last reply, seconds.
    pub wall_s: f64,
    /// Generator-thread CPU time over the phase, seconds.
    pub gen_cpu_s: f64,
}

impl PhaseOut {
    /// Latencies of the answered requests, sorted.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut lat: Vec<u64> =
            self.lat_by_slot.iter().copied().filter(|&l| l != u64::MAX).collect();
        lat.sort_unstable();
        lat
    }

    /// Requests answered.
    pub fn answered(&self) -> usize {
        self.lat_by_slot.iter().filter(|&&l| l != u64::MAX).count()
    }
}

/// The generator: its connections and epoll set.
pub struct Generator {
    epoll: Poller,
    conns: Vec<Conn>,
}

impl Generator {
    /// Connects `conns` nonblocking connections to `addr`, negotiating
    /// `codec` on each.
    pub fn connect(addr: SocketAddr, conns: usize, codec: Codec) -> io::Result<Self> {
        crate::sys::tight_timer_slack();
        let epoll = Poller::new()?;
        let mut out = Vec::with_capacity(conns);
        for i in 0..conns {
            let mut sock = TcpStream::connect(addr)?;
            sock.set_nodelay(true)?;
            if codec == Codec::Binary {
                sock.write_all(&binproto::PREAMBLE)?;
            }
            sock.set_nonblocking(true)?;
            epoll.add(sock.as_raw_fd(), i as u64, EPOLLIN)?;
            out.push(Conn {
                sock,
                codec,
                out: Vec::with_capacity(1 << 16),
                out_pos: 0,
                inbuf: Vec::with_capacity(1 << 16),
                in_pos: 0,
                due: VecDeque::new(),
                want_out: false,
            });
        }
        Ok(Generator { epoll, conns: out })
    }

    /// Runs one phase: `wire[c]` holds connection `c`'s requests, dealt
    /// round-robin over the connections (global request `i` is
    /// connection `i % conns`'s next one while every list lasts), each
    /// due at `i / rate` seconds after the start (`rate = None`: all at
    /// once). Returns after every reply arrived or the drain deadline
    /// passed.
    pub fn run(&mut self, wire: &[Frames], rate: Option<f64>) -> io::Result<PhaseOut> {
        let interval_ns = rate.map_or(0.0, |r| 1e9 / r);
        let longest = wire.iter().map(Frames::len).max().unwrap_or(0);
        let mut schedule = Vec::with_capacity(wire.iter().map(Frames::len).sum());
        for k in 0..longest {
            for (c, frames) in wire.iter().enumerate() {
                if k < frames.len() {
                    // Rounded to whole nanoseconds; far below 2^53 ns.
                    let due = (schedule.len() as f64 * interval_ns) as u64;
                    schedule.push(Slot { conn: c, k, due });
                }
            }
        }
        let lead = if rate.is_some() { LEAD_NS } else { 0 };
        self.run_schedule(wire, &schedule, lead)
    }

    /// Runs `schedule` (sorted by due offset) over `wire`, starting
    /// `lead` ns from now.
    pub fn run_schedule(
        &mut self,
        wire: &[Frames],
        schedule: &[Slot],
        lead: u64,
    ) -> io::Result<PhaseOut> {
        let nconns = self.conns.len();
        assert_eq!(wire.len(), nconns, "one request list per connection");
        let total = schedule.len();
        let mut out = PhaseOut {
            lat_by_slot: vec![u64::MAX; total],
            late_ns: Vec::with_capacity(total),
            replies: vec![Frames::default(); nconns],
            ..PhaseOut::default()
        };
        let start = now_ns() + lead;
        let cpu0 = thread_cpu_us();
        let mut next = 0usize;
        let mut deadline = u64::MAX;
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 8];
        loop {
            let now = now_ns();
            while next < total && start + schedule[next].due <= now {
                let slot = schedule[next];
                let due = start + slot.due;
                let conn = &mut self.conns[slot.conn];
                conn.out.extend_from_slice(wire[slot.conn].get(slot.k));
                conn.due.push_back((due, next));
                out.late_ns.push(now - due);
                next += 1;
            }
            for (i, conn) in self.conns.iter_mut().enumerate() {
                if conn.out.len() > conn.out_pos {
                    conn.flush()?;
                }
                let want = conn.out.len() > conn.out_pos;
                if want != conn.want_out {
                    let ev = if want { EPOLLIN | EPOLLOUT } else { EPOLLIN };
                    self.epoll.modify(conn.sock.as_raw_fd(), i as u64, ev)?;
                    conn.want_out = want;
                }
            }
            let in_flight: usize = self.conns.iter().map(|c| c.due.len()).sum();
            if next == total && deadline == u64::MAX {
                out.backlog_at_end = in_flight;
                deadline = now + DRAIN_NS;
            }
            if next == total && in_flight == 0 {
                break;
            }
            let wake = if next < total {
                start + schedule[next].due
            } else {
                if now >= deadline {
                    out.timeouts = in_flight;
                    break;
                }
                deadline
            };
            let n = self.epoll.wait_until(&mut events, Some(wake))?;
            for ev in &events[..n] {
                let (token, flags) = (ev.data, ev.events);
                let c = token as usize;
                if flags & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0 {
                    let recv = now_ns();
                    let (by_slot, replies) = (&mut out.lat_by_slot, &mut out.replies[c]);
                    self.conns[c].read_replies(|(due, slot), body| {
                        by_slot[slot] = recv.saturating_sub(due);
                        replies.push(body);
                    })?;
                }
                if flags & EPOLLOUT != 0 {
                    self.conns[c].flush()?;
                }
            }
        }
        out.sent = total;
        out.wall_s = now_ns().saturating_sub(start) as f64 / 1e9;
        out.gen_cpu_s = thread_cpu_us().saturating_sub(cpu0) as f64 / 1e6;
        Ok(out)
    }
}

/// One scheduled send: request `k` of connection `conn`, due `due` ns
/// after the phase starts.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// Connection index.
    pub conn: usize,
    /// Index into that connection's request list.
    pub k: usize,
    /// Due offset from the phase start, ns.
    pub due: u64,
}

/// Exact order statistics of raw samples.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // Nearest-rank: the smallest sample with at least q of all at or
    // below it.
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A percentile with the sample count it rests on and how many samples
/// lie beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    /// The value, in the samples' unit.
    pub value: u64,
    /// Samples the quantile was taken from.
    pub samples: usize,
    /// Samples strictly greater than the value.
    pub beyond: usize,
}

/// [`percentile`] plus its support, from sorted samples.
pub fn quantile(sorted: &[u64], q: f64) -> Quantile {
    let value = percentile(sorted, q);
    let beyond = sorted.len() - sorted.partition_point(|&x| x <= value);
    Quantile { value, samples: sorted.len(), beyond }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;
    use std::time::Duration;

    /// A binary-framed echo server that sleeps `stall` before answering
    /// the first request, then answers everything immediately.
    fn stalling_server(stall: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            s.set_nodelay(true).expect("nodelay");
            let mut pre = [0u8; 4];
            s.read_exact(&mut pre).expect("preamble");
            let mut first = true;
            loop {
                let mut len = [0u8; 4];
                if s.read_exact(&mut len).is_err() {
                    return;
                }
                let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
                s.read_exact(&mut body).expect("body");
                if first {
                    thread::sleep(stall);
                    first = false;
                }
                s.write_all(&len).expect("reply len");
                s.write_all(&body).expect("reply body");
            }
        });
        addr
    }

    fn frames(n: usize) -> Frames {
        let mut f = Frames::default();
        for i in 0..n {
            let body = [0x02u8, i as u8];
            let mut msg = 2u32.to_le_bytes().to_vec();
            msg.extend_from_slice(&body);
            f.push(&msg);
        }
        f
    }

    #[test]
    fn a_stall_is_charged_to_every_request_queued_behind_it() {
        let stall = Duration::from_millis(60);
        let addr = stalling_server(stall);
        let mut gen = Generator::connect(addr, 1, Codec::Binary).expect("connect");
        // 1000 req/s for 100 ms: requests 0..60 fall inside the stall.
        let out = gen.run(&[frames(100)], Some(1000.0)).expect("phase");
        assert_eq!(out.answered(), 100);
        assert_eq!(out.timeouts, 0);
        // Replies come back in order; request i was due at i ms, and
        // nothing queued behind the stall can finish before it ends.
        let stall_ns = stall.as_nanos() as u64;
        for (i, &lat) in out.lat_by_slot.iter().enumerate().take(55) {
            let due_offset = i as u64 * 1_000_000;
            assert!(
                lat + due_offset >= stall_ns,
                "request {i} (due at {i} ms) reported {lat} ns, below the stall it waited out"
            );
        }
        // Once the backlog drains, latency falls back well below the stall.
        let tail = out.lat_by_slot[90..].iter().max().copied().unwrap_or(0);
        assert!(tail < stall_ns / 2, "post-stall latency {tail} ns should be small");
        // The generator itself was never the one running late.
        assert!(out.late_ns.iter().all(|&l| l < stall_ns / 2));
    }

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let samples: Vec<u64> = (1..=1000).collect();
        let p50 = quantile(&samples, 0.5);
        assert_eq!((p50.value, p50.samples, p50.beyond), (500, 1000, 500));
        let p99 = quantile(&samples, 0.99);
        assert_eq!((p99.value, p99.beyond), (990, 10));
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
