//! The few Linux calls the benchmark needs beyond `std`: a nanosecond
//! monotonic clock, an epoll wait with a nanosecond deadline for the
//! generator to sleep on, per-thread and per-child resource usage, and
//! `/proc` readers for the daemons' CPU time and peak memory.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

use predictd::poll::EpollEvent;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn clock_gettime(clk: i32, ts: *mut Timespec) -> i32;
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_pwait2(
        epfd: i32,
        events: *mut EpollEvent,
        maxevents: i32,
        timeout: *const Timespec,
        sigmask: *const u8,
    ) -> i32;
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RawRusage) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const CLOCK_MONOTONIC: i32 = 1;
const EPOLL_CLOEXEC: i32 = 0x80000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_MOD: i32 = 3;
const RUSAGE_THREAD: i32 = 1;
const PR_SET_TIMERSLACK: i32 = 29;

/// Sets the calling thread's timer slack to 1 ns, so a sleep until the
/// next due send ends on time instead of up to the default 50 µs late.
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only
    // changes this thread's timer behaviour.
    unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
}

/// Nanoseconds on `CLOCK_MONOTONIC`.
pub fn now_ns() -> u64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a valid, writable timespec for the call.
    unsafe { clock_gettime(CLOCK_MONOTONIC, &mut ts) };
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// An epoll set whose waits take a nanosecond deadline (`epoll_pwait2`),
/// so the generator can sleep until the next send is due instead of
/// rounding to epoll's milliseconds or spinning.
pub struct Poller {
    fd: OwnedFd,
}

impl Poller {
    /// A fresh epoll set.
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall; the returned fd is immediately owned.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by the kernel and is unowned.
        Ok(Poller { fd: unsafe { OwnedFd::from_raw_fd(fd) } })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        if unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Watches `fd` for `events`, reporting readiness with `token`.
    pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    /// Changes the events watched on `fd`.
    pub fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    /// Waits for readiness until `deadline_ns` (a [`now_ns`] value;
    /// `None` waits indefinitely), filling `events` from the front.
    /// Returns how many records are valid; 0 on timeout or signal.
    pub fn wait_until(
        &self,
        events: &mut [EpollEvent],
        deadline_ns: Option<u64>,
    ) -> io::Result<usize> {
        let timeout = deadline_ns.map(|d| {
            let left = d.saturating_sub(now_ns());
            Timespec {
                tv_sec: i64::try_from(left / 1_000_000_000).unwrap_or(i64::MAX),
                // Below 1e9, so it fits.
                tv_nsec: (left % 1_000_000_000) as i64,
            }
        });
        let ts = timeout.as_ref().map_or(std::ptr::null(), |t| t as *const Timespec);
        let cap = i32::try_from(events.len()).unwrap_or(i32::MAX);
        // SAFETY: `events` is valid for `cap` records and `ts` is null or
        // points at a timespec that outlives the call.
        let n = unsafe {
            epoll_pwait2(self.fd.as_raw_fd(), events.as_mut_ptr(), cap, ts, std::ptr::null())
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(usize::try_from(n).unwrap_or(0))
    }
}

fn tv_us(tv: Timeval) -> u64 {
    u64::try_from(tv.tv_sec).unwrap_or(0) * 1_000_000 + u64::try_from(tv.tv_usec).unwrap_or(0)
}

/// User+system CPU time of the calling thread, in microseconds.
pub fn thread_cpu_us() -> u64 {
    let mut ru = RawRusage::default();
    // SAFETY: `ru` is a valid, writable rusage for the call.
    unsafe { getrusage(RUSAGE_THREAD, &mut ru) };
    tv_us(ru.utime) + tv_us(ru.stime)
}

/// What [`wait_child`] learned about a reaped child.
pub struct ChildUsage {
    /// Exit code, or `None` when the child died from a signal.
    pub code: Option<i32>,
    /// User+system CPU time of the child, microseconds.
    pub cpu_us: u64,
    /// Peak resident set of the child, KiB.
    pub maxrss_kb: u64,
}

/// Reaps child `pid` with `wait4`, returning its exit status and its own
/// resource usage. The child must not be waited on through `std` too.
pub fn wait_child(pid: u32) -> io::Result<ChildUsage> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut ru = RawRusage::default();
    loop {
        // SAFETY: `status` and `ru` are valid, writable for the call.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if rc >= 0 {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = if status & 0x7f == 0 { Some((status >> 8) & 0xff) } else { None };
    Ok(ChildUsage {
        code,
        cpu_us: tv_us(ru.utime) + tv_us(ru.stime),
        maxrss_kb: u64::try_from(ru.maxrss_kb).unwrap_or(0),
    })
}

/// CPU time of every thread of process `pid`, microseconds: the sum of
/// the nanosecond run times in `/proc/<pid>/task/*/schedstat`.
pub fn proc_cpu_us(pid: u32) -> io::Result<u64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = task?.path().join("schedstat");
        // A thread may exit between listing and reading.
        let Ok(text) = std::fs::read_to_string(path) else { continue };
        ns += text.split_whitespace().next().and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    }
    Ok(ns / 1000)
}

/// Peak resident set (`VmHWM`) of process `pid`, KiB.
pub fn proc_hwm_kb(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| io::Error::other("no VmHWM line"))?;
    line.split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::other("unparsable VmHWM line"))
}
