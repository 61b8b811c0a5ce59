//! The daemons under test, run as child processes from their release
//! binaries with deployment flags only, and observed only through their
//! wire protocol and `/proc`.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use predictd::Client;
use proto::{Request, Response};

use crate::stream::Topology;
use crate::sys;

/// Where the benchmark finds its binaries and keeps its scratch files.
#[derive(Debug, Clone)]
pub struct Env {
    /// Directory holding the `predictd`, `predictgw` and `modelcheck`
    /// release binaries.
    pub bin_dir: PathBuf,
    /// Scratch directory for logs, journals and extracted trees.
    pub tmp: PathBuf,
}

impl Env {
    /// The release binary called `name`.
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }
}

/// One running daemon.
pub struct Daemon {
    child: Child,
    /// The address it announced.
    pub addr: SocketAddr,
    /// Kept open so a late line on stdout never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts `bin` with `args` and waits for its `listening on ADDR`
    /// announcement; stderr goes to `log`.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(std::fs::File::create(log)?))
            .spawn()
            .map_err(|e| {
                io::Error::new(e.kind(), format!("cannot start {}: {e}", bin.display()))
            })?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        match addr {
            Some(addr) => Ok(Daemon { child, addr, _stdout: stdout }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                let logged = std::fs::read_to_string(log).unwrap_or_default();
                Err(io::Error::other(format!(
                    "{} did not announce an address (stdout {line:?}, stderr {logged:?})",
                    bin.display()
                )))
            }
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to shut down over the wire, then waits for it to
    /// exit; kills it if it has not within five seconds.
    pub fn stop(mut self) -> io::Result<()> {
        let asked = Client::connect(self.addr).and_then(|mut c| c.request(&Request::Shutdown));
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return match asked {
                    Ok(Response::Ok) => Ok(()),
                    Ok(other) => {
                        Err(io::Error::other(format!("shutdown answered {}", other.kind())))
                    }
                    Err(e) => Err(io::Error::other(format!("shutdown failed: {e}"))),
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.child.kill()?;
        self.child.wait()?;
        Err(io::Error::other("daemon ignored shutdown; killed"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached on error paths: a stopped daemon was already reaped.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A running topology: the daemon the generator talks to, and every
/// process whose CPU and memory count against the service.
pub struct Deployment {
    /// Address the generator connects to (predictd or predictgw).
    pub front: SocketAddr,
    /// Front daemon last; backends first (stopped after the front).
    daemons: Vec<Daemon>,
    /// The gateway journal, removed on stop.
    journal: Option<PathBuf>,
}

fn listen_args(extra: &[&str]) -> Vec<String> {
    let mut args = vec!["--listen".to_string(), "127.0.0.1:0".to_string()];
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

impl Deployment {
    /// Starts `topo`; `tag` keeps the log and journal names of repeated
    /// set-ups apart.
    pub fn start(topo: Topology, env: &Env, tag: &str) -> io::Result<Deployment> {
        let log = |name: &str| env.tmp.join(format!("{tag}-{name}.log"));
        let predictd = env.bin("predictd");
        match topo {
            Topology::Single => {
                let d = Daemon::spawn(
                    &predictd,
                    &listen_args(&["--engine", "evented"]),
                    &log("predictd"),
                )?;
                Ok(Deployment { front: d.addr, daemons: vec![d], journal: None })
            }
            Topology::Gateway => {
                let mut daemons = Vec::new();
                let mut args = listen_args(&[]);
                for b in 0..2 {
                    let d = Daemon::spawn(
                        &predictd,
                        &listen_args(&["--engine", "evented", "--workers", "1"]),
                        &log(&format!("backend{b}")),
                    )?;
                    args.push("--backend".to_string());
                    args.push(d.addr.to_string());
                    daemons.push(d);
                }
                let journal = env.tmp.join(format!("{tag}-journal.bin"));
                let _ = std::fs::remove_file(&journal);
                args.push("--journal".to_string());
                args.push(journal.display().to_string());
                let gw = Daemon::spawn(&env.bin("predictgw"), &args, &log("predictgw"))?;
                let front = gw.addr;
                daemons.push(gw);
                let dep = Deployment { front, daemons, journal: Some(journal) };
                dep.await_backends_up()?;
                Ok(dep)
            }
        }
    }

    /// Polls `gw_stats` until the gateway reports every backend healthy.
    fn await_backends_up(&self) -> io::Result<()> {
        let mut client = Client::connect_binary(self.front).map_err(io::Error::other)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match client.request(&Request::Stats).map_err(io::Error::other)? {
                Response::GwStats(s) if s.backends.iter().all(|b| b.healthy) => return Ok(()),
                Response::GwStats(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                other => {
                    return Err(io::Error::other(format!(
                        "gateway backends not up: {}",
                        crate::check::json(&other)
                    )))
                }
            }
        }
    }

    /// Total user+system CPU of every daemon process, microseconds.
    pub fn cpu_us(&self) -> io::Result<u64> {
        self.daemons.iter().map(|d| sys::proc_cpu_us(d.pid())).sum()
    }

    /// Sum of the daemons' peak resident sets, KiB.
    pub fn hwm_kb(&self) -> io::Result<u64> {
        self.daemons.iter().map(|d| sys::proc_hwm_kb(d.pid())).sum()
    }

    /// Stops the front daemon first, then the backends; removes the
    /// journal.
    pub fn stop(mut self) -> io::Result<()> {
        let mut first_err = None;
        while let Some(d) = self.daemons.pop() {
            if let Err(e) = d.stop() {
                first_err.get_or_insert(e);
            }
        }
        if let Some(j) = &self.journal {
            let _ = std::fs::remove_file(j);
        }
        first_err.map_or(Ok(()), Err)
    }
}
