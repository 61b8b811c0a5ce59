//! Request routing, fan-out, failover, and recovery — the gateway's
//! brain, shared by every event-loop worker and the health checker.
//!
//! ## Replication by broadcast
//!
//! Every accepted `load_report` is (1) appended to the journal and
//! (2) broadcast to every *healthy* backend, both under one sequencing
//! lock, so the journal order **is** the broadcast order. Because the
//! forecaster state is a pure function of the per-machine report
//! sequence, all caught-up backends hold bit-identical state and any of
//! them can answer any placement question exactly as a monolithic
//! predictd would — that equivalence is pinned by a property test and
//! is what makes failover and fan-out semantically free.
//!
//! ## Routing
//!
//! Queries are routed by the consistent-hash [`Ring`]: straight to the
//! machine's owner when it is healthy (a **hit**), to the first healthy
//! ring successor when it is not (a **miss**), re-sent down the
//! preference list on a mid-flight transport failure (a **failover** —
//! safe because `predict`/`rank`/`decide_batch` are read-only and thus
//! idempotent). `decide_batch` additionally fans out: its tasks are
//! chunked across the healthy backends in preference order and the
//! chunk answers are concatenated back into task order, bit-identical
//! to a single backend's answer because every chunk is judged against
//! the same replicated state.
//!
//! ## Recovery
//!
//! The health checker probes every backend with `stats` on an interval;
//! after `health_threshold` consecutive failures a backend is marked
//! down and its traffic drains to successors. On a successful probe the
//! checker compares the backend's own `load_report` counter with the
//! gateway's per-backend replication cursor: a lower counter means the
//! backend restarted empty, so the cursor is rewound; any gap up to the
//! journal's report count is then replayed before the backend is marked
//! up again — so a backend only ever takes traffic against caught-up
//! state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use predictd::{ClientError, Handler};
use proto::proto::{DecideBatch, Decisions, GwStatsReply, LoadReport};
use proto::{Request, Response};

use crate::backend::{BackendConn, BackendState};
use crate::journal::{self, Journal};
use crate::metrics::GwMetrics;
use crate::ring::Ring;

/// Everything the gateway needs to know at construction.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Backend addresses (`host:port`), in ring order. Must be
    /// non-empty.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the hash ring.
    pub vnodes: usize,
    /// Health-probe interval.
    pub health_interval: Duration,
    /// Consecutive failed probes before a backend is marked down.
    pub health_threshold: u32,
    /// Load-report journal path; `None` disables journaling (failover
    /// still works, but recovered backends come back empty and answer
    /// stale until fresh reports arrive — the checker prints a marker).
    pub journal_path: Option<std::path::PathBuf>,
    /// Appends per fsync batch.
    pub fsync_every: usize,
    /// Journal horizon: reports older than `newest - horizon` seconds
    /// are compacted away after appends. `None` keeps everything.
    pub journal_horizon_secs: Option<f64>,
    /// Backend connect timeout.
    pub connect_timeout: Duration,
    /// Backend read/write timeout (`None` = block forever).
    pub io_timeout: Option<Duration>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            backends: Vec::new(),
            vnodes: 64,
            health_interval: Duration::from_millis(1000),
            health_threshold: 3,
            journal_path: None,
            fsync_every: journal::DEFAULT_FSYNC_EVERY,
            journal_horizon_secs: None,
            connect_timeout: Duration::from_secs(1),
            io_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// One worker's set of backend connections. Every event loop (and the
/// health checker) owns its own lanes, so backend I/O never contends
/// between threads.
#[derive(Debug)]
pub struct Lanes {
    conns: Vec<BackendConn>,
}

impl Lanes {
    /// The lane to backend `i` (which must exist; the gateway only
    /// hands out indices from its own backend list).
    fn conn(&mut self, i: usize) -> Option<&mut BackendConn> {
        self.conns.get_mut(i)
    }

    /// Drops the cached connection to backend `i` so the next request
    /// reconnects from scratch.
    pub fn disconnect(&mut self, i: usize) {
        if let Some(c) = self.conns.get_mut(i) {
            c.disconnect();
        }
    }
}

/// The shared gateway: ring, backend states, metrics, journal.
#[derive(Debug)]
pub struct Gateway {
    cfg: GatewayConfig,
    ring: Ring,
    backends: Vec<BackendState>,
    metrics: GwMetrics,
    /// The sequencing lock: journal append + broadcast happen under it,
    /// making the journal order the broadcast order (see module docs).
    /// `None` inside means journaling is disabled; the lock itself is
    /// still taken to serialize broadcasts.
    seq: Mutex<Option<Journal>>,
    started: Instant,
}

impl Gateway {
    /// Builds the gateway, opening (and validating) the journal if one
    /// is configured.
    pub fn new(cfg: GatewayConfig) -> std::io::Result<Gateway> {
        if cfg.backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "gateway needs at least one backend",
            ));
        }
        let journal = match &cfg.journal_path {
            Some(p) => Some(Journal::open(p, cfg.fsync_every)?),
            None => None,
        };
        let ring = Ring::new(cfg.backends.len(), cfg.vnodes);
        let backends = cfg.backends.iter().map(|a| BackendState::new(a.clone())).collect();
        let metrics = GwMetrics::new(cfg.backends.len());
        Ok(Gateway {
            cfg,
            ring,
            backends,
            metrics,
            seq: Mutex::new(journal),
            started: Instant::now(),
        })
    }

    /// The gateway's configuration (as validated at construction).
    pub fn config(&self) -> &GatewayConfig {
        &self.cfg
    }

    /// The routing ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The gateway metrics (for tests and the stats path).
    pub fn metrics(&self) -> &GwMetrics {
        &self.metrics
    }

    /// Shared state of backend `i`.
    pub fn backend(&self, i: usize) -> Option<&BackendState> {
        self.backends.get(i)
    }

    /// A fresh set of per-thread backend connections.
    pub fn lanes(&self) -> Lanes {
        Lanes {
            conns: self
                .cfg
                .backends
                .iter()
                .map(|a| BackendConn::new(a.clone(), self.cfg.connect_timeout, self.cfg.io_timeout))
                .collect(),
        }
    }

    /// The sequencing lock, poison-proof: a worker that panicked while
    /// holding it (which the no-panic discipline already forbids) must
    /// not take the whole gateway down with it.
    fn seq_lock(&self) -> MutexGuard<'_, Option<Journal>> {
        // modelcheck-allow: event-loop — the sequencing mutex is the
        // designed serialization point for journal writes; critical
        // sections are bounded (one append + broadcast).
        self.seq.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Handles one request; the flag is true when the gateway should
    /// stop (after sending the response). `shutdown` stops only the
    /// gateway — the backends it fronts keep running.
    pub fn handle(&self, req: &Request, lanes: &mut Lanes) -> (Response, bool) {
        match req {
            Request::LoadReport(r) => (self.on_load_report(r, lanes), false),
            Request::Predict(q) => (self.route_query(&q.machine, req, lanes), false),
            Request::Rank(q) => (self.route_query(&q.machine, req, lanes), false),
            Request::DecideBatch(q) => (self.on_decide_batch(q, req, lanes), false),
            Request::Stats => (Response::GwStats(self.gw_stats()), false),
            Request::Shutdown => (Response::Ok, true),
        }
    }

    /// Journal, then broadcast to every healthy backend, all under the
    /// sequencing lock. The reply is the first healthy backend's `ack`
    /// (they are bit-identical across caught-up backends); a backend
    /// that fails the broadcast simply does not get its cursor
    /// advanced — the health checker replays the gap from the journal.
    fn on_load_report(&self, report: &LoadReport, lanes: &mut Lanes) -> Response {
        let mut guard = self.seq_lock();
        if let Some(j) = guard.as_mut() {
            // modelcheck-allow: lock-order — journal-then-broadcast under
            // the sequencing lock IS the gateway's ordering contract: the
            // journal and the fleet must observe reports in one order.
            if let Err(e) = j.append_report(report) {
                // Refuse what we cannot journal: accepting it would let
                // the fleet and the journal disagree.
                return Response::error(format!("journal append failed: {e}"));
            }
            if let Some(horizon) = self.cfg.journal_horizon_secs {
                // modelcheck-allow: lock-order — truncation must see a
                // quiescent journal; it runs at the size horizon, not
                // per report.
                maybe_truncate(j, report.at, horizon, &self.backends);
            }
        }
        let req = Request::LoadReport(report.clone());
        let mut reply: Option<Response> = None;
        for (i, b) in self.backends.iter().enumerate() {
            if !b.is_healthy() {
                continue;
            }
            let Some(conn) = lanes.conn(i) else { continue };
            // modelcheck-allow: lock-order — the broadcast must stay
            // inside the sequencing critical section (see above); I/O is
            // bounded by the per-connection timeouts.
            match conn.request(&req) {
                Ok(resp) => {
                    b.advance_cursor(1);
                    self.metrics.backend_request(i);
                    reply.get_or_insert(resp);
                }
                Err(e) => {
                    // Not a failover (nothing is re-sent — the journal
                    // replay owns catch-up), but worth a marker.
                    // modelcheck-allow: event-loop — backend-failure marker on the
                    // error path only; the journal replay owns recovery.
                    eprintln!(
                        "predictgw: broadcast to backend {} failed ({e}); journal will catch it up",
                        b.addr()
                    );
                }
            }
        }
        reply.unwrap_or_else(|| Response::error("no healthy backend accepted the report"))
    }

    /// Routes an idempotent single-answer query (`predict`, `rank`)
    /// down the machine's preference list: owner first, ring successors
    /// on unhealth or mid-flight failure.
    fn route_query(&self, machine: &str, req: &Request, lanes: &mut Lanes) -> Response {
        let pref = self.ring.preference(machine);
        self.count_dispatch(&pref);
        let mut last_err: Option<ClientError> = None;
        for &i in &pref {
            let Some(b) = self.backends.get(i) else { continue };
            if !b.is_healthy() {
                continue;
            }
            let Some(conn) = lanes.conn(i) else { continue };
            match conn.request(req) {
                Ok(resp) => {
                    self.metrics.backend_request(i);
                    return resp;
                }
                Err(e) => {
                    self.metrics.failover(i);
                    // modelcheck-allow: event-loop — failover marker on the error
                    // path only, rate-bounded by backend failures.
                    eprintln!(
                        "predictgw: failover: {} for {machine} re-sent past backend {} ({e})",
                        req.kind(),
                        b.addr()
                    );
                    last_err = Some(e);
                }
            }
        }
        match last_err {
            Some(e) => Response::error(format!("every backend failed for {machine}: {e}")),
            None => Response::error(format!("no healthy backend for {machine}")),
        }
    }

    /// `decide_batch` fan-out: tasks are chunked across the healthy
    /// backends in preference order and the answers concatenated back
    /// into task order. Any chunk failure falls back to routing the
    /// whole batch as a single idempotent query — simpler than partial
    /// retry and just as correct.
    fn on_decide_batch(&self, q: &DecideBatch, req: &Request, lanes: &mut Lanes) -> Response {
        let pref = self.ring.preference(&q.machine);
        let healthy: Vec<usize> = pref
            .iter()
            .copied()
            .filter(|&i| self.backends.get(i).is_some_and(BackendState::is_healthy))
            .collect();
        if healthy.len() < 2 || q.tasks.len() < 2 {
            return self.route_query(&q.machine, req, lanes);
        }
        self.count_dispatch(&pref);
        let lanes_count = healthy.len().min(q.tasks.len());
        let chunk_len = q.tasks.len().div_ceil(lanes_count);
        let mut merged: Option<Decisions> = None;
        for (chunk_idx, tasks) in q.tasks.chunks(chunk_len).enumerate() {
            let backend = healthy.get(chunk_idx % lanes_count).copied().unwrap_or(healthy[0]);
            let sub = Request::DecideBatch(DecideBatch {
                machine: q.machine.clone(),
                now: q.now,
                tasks: tasks.to_vec(),
                j_words: q.j_words,
            });
            let resp = self
                .backends
                .get(backend)
                .and_then(|_| lanes.conn(backend))
                .map(|c| c.request(&sub));
            match resp {
                Some(Ok(Response::Decisions(d))) => {
                    self.metrics.backend_request(backend);
                    match merged.as_mut() {
                        None => merged = Some(d),
                        Some(m) => {
                            // Headers (machine, p, stale, forecaster)
                            // are bit-identical across caught-up
                            // backends; keep the first, concatenate the
                            // decisions, AND the cache flags (a merged
                            // answer was only "all cached" if every
                            // chunk was).
                            m.cache_hit = m.cache_hit && d.cache_hit;
                            m.decisions.extend(d.decisions);
                        }
                    }
                }
                Some(Ok(other)) => {
                    // An error (or surprise) response from one chunk:
                    // the batch answer must stay whole, so fall back.
                    // modelcheck-allow: event-loop — fallback marker on the error
                    // path only; the re-route below is the real handling.
                    eprintln!(
                        "predictgw: decide_batch chunk on backend {backend} answered {}; falling back to single-backend routing",
                        other.kind()
                    );
                    self.metrics.failover(backend);
                    return self.route_query(&q.machine, req, lanes);
                }
                Some(Err(e)) => {
                    // modelcheck-allow: event-loop — failover marker on the error
                    // path only, rate-bounded by backend failures.
                    eprintln!(
                        "predictgw: failover: decide_batch chunk failed on backend {backend} ({e}); re-routing whole batch"
                    );
                    self.metrics.failover(backend);
                    return self.route_query(&q.machine, req, lanes);
                }
                None => return self.route_query(&q.machine, req, lanes),
            }
        }
        match merged {
            Some(d) => Response::Decisions(d),
            None => self.route_query(&q.machine, req, lanes),
        }
    }

    /// Tallies the hit/miss of one dispatch against the owner's health.
    fn count_dispatch(&self, pref: &[usize]) {
        let owner_healthy =
            pref.first().and_then(|&i| self.backends.get(i)).is_some_and(BackendState::is_healthy);
        if owner_healthy {
            self.metrics.hit();
        } else {
            self.metrics.miss();
        }
    }

    /// Forces the journal to stable storage (no-op without a journal) —
    /// called at shutdown so the fsync batch is not left in flight.
    pub fn sync_journal(&self) -> std::io::Result<()> {
        match self.seq_lock().as_mut() {
            Some(j) => j.sync(),
            None => Ok(()),
        }
    }

    /// The `gw_stats` snapshot.
    pub fn gw_stats(&self) -> GwStatsReply {
        let (frames, bytes) = {
            let guard = self.seq_lock();
            guard.as_ref().map_or((0, 0), |j| (j.frames(), j.bytes()))
        };
        let healthy: Vec<bool> = self.backends.iter().map(BackendState::is_healthy).collect();
        self.metrics.snapshot(
            &self.cfg.backends,
            &healthy,
            frames,
            bytes,
            self.started.elapsed().as_secs_f64(),
        )
    }

    /// Runs the health checker until `stop` is set: probe every backend
    /// with `stats` each interval, mark down after the configured
    /// threshold of consecutive failures, and on recovery replay the
    /// journal gap before marking up. Run this on its own thread.
    pub fn run_health_checker(&self, stop: &AtomicBool) {
        let mut lanes = self.lanes();
        while !stop.load(Ordering::Acquire) {
            for (i, b) in self.backends.iter().enumerate() {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                self.probe_backend(i, b, &mut lanes);
            }
            // Sleep in small slices so shutdown is prompt even with a
            // long probe interval.
            let mut left = self.cfg.health_interval;
            while !left.is_zero() {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                let nap = left.min(Duration::from_millis(50));
                std::thread::sleep(nap);
                left = left.saturating_sub(nap);
            }
        }
    }

    /// One probe of one backend, with the recovery protocol on success.
    fn probe_backend(&self, i: usize, b: &BackendState, lanes: &mut Lanes) {
        let Some(conn) = lanes.conn(i) else { return };
        match conn.request(&Request::Stats) {
            Ok(Response::Stats(stats)) => {
                // Restart detection: the backend reports fewer
                // load_reports than we know we delivered — its state is
                // gone, so rewind the cursor and replay from there.
                let reported = stats.requests.load_report;
                if reported < b.cursor() {
                    eprintln!(
                        "predictgw: backend {} restarted (holds {reported} of {} reports); rewinding for replay",
                        b.addr(),
                        b.cursor()
                    );
                    b.set_cursor(reported);
                } else if reported > b.cursor() {
                    // An ack was lost in flight: the backend processed
                    // more than we counted. Trust its count so replay
                    // does not duplicate.
                    b.set_cursor(reported);
                }
                match self.catch_up(i, b, lanes) {
                    Ok(()) => {
                        if b.mark_up() {
                            eprintln!("predictgw: backend {} marked up", b.addr());
                        }
                    }
                    Err(e) => {
                        eprintln!(
                            "predictgw: backend {} answered probes but replay failed ({e}); keeping it out",
                            b.addr()
                        );
                        if b.mark_probe_failure(self.cfg.health_threshold) {
                            eprintln!("predictgw: backend {} marked down", b.addr());
                        }
                    }
                }
            }
            Ok(other) => {
                eprintln!(
                    "predictgw: probe of backend {} answered {} instead of stats",
                    b.addr(),
                    other.kind()
                );
                if b.mark_probe_failure(self.cfg.health_threshold) {
                    eprintln!("predictgw: backend {} marked down", b.addr());
                }
            }
            Err(e) => {
                if b.mark_probe_failure(self.cfg.health_threshold) {
                    eprintln!(
                        "predictgw: backend {} marked down after {} failed probes ({e})",
                        b.addr(),
                        self.cfg.health_threshold
                    );
                }
            }
        }
    }

    /// Replays the backend's journal gap (`cursor .. journal.reports`)
    /// through the checker's own lane, looping until the cursor is
    /// caught up *at sequencing-lock time* — the final confirmation
    /// holds the lock so no append can slip between "caught up" and the
    /// caller's `mark_up`, and broadcasts resume in journal order.
    fn catch_up(&self, i: usize, b: &BackendState, lanes: &mut Lanes) -> Result<(), ClientError> {
        loop {
            let (target, path) = {
                let guard = self.seq_lock();
                match guard.as_ref() {
                    Some(j) => (j.reports(), j.path().to_path_buf()),
                    None => {
                        // No journal: the backend comes back with
                        // whatever state it has. Mark it loudly — its
                        // answers may be stale until reports refresh.
                        if !b.is_healthy() {
                            eprintln!(
                                "predictgw: backend {} recovering stale (no journal to replay)",
                                b.addr()
                            );
                        }
                        return Ok(());
                    }
                }
            };
            let from = b.cursor();
            if from >= target {
                // Confirm under the lock: if still caught up, we are
                // done and the caller may mark up before any new append
                // broadcasts (appends take the same lock).
                let guard = self.seq_lock();
                let now = guard.as_ref().map_or(0, Journal::reports);
                if b.cursor() >= now {
                    return Ok(());
                }
                continue;
            }
            // Bulk replay outside the lock (reads see whole records;
            // a torn in-flight tail parses as a clean prefix).
            let all = journal::read_reports(&path).map_err(ClientError::Io)?;
            let skip = usize::try_from(from).unwrap_or(usize::MAX);
            let mut replayed = 0u64;
            for r in all.iter().skip(skip) {
                let Some(conn) = lanes.conn(i) else {
                    return Err(ClientError::Protocol("backend lane missing".to_string()));
                };
                match conn.request(&Request::LoadReport(r.clone()))? {
                    Response::Ack(_) => {
                        b.advance_cursor(1);
                        replayed += 1;
                    }
                    other => {
                        return Err(ClientError::Protocol(format!(
                            "replayed report answered {} instead of ack",
                            other.kind()
                        )))
                    }
                }
            }
            if replayed > 0 {
                self.metrics.replayed(i, replayed);
                eprintln!("predictgw: replayed {replayed} reports into backend {}", b.addr());
            }
        }
    }
}

/// The reactor's view of the gateway: each event loop forwards through
/// its own backend [`Lanes`].
impl Handler for Gateway {
    type Worker = Lanes;

    fn worker(&self) -> Lanes {
        self.lanes()
    }

    // modelcheck: event-loop
    fn serve_request(&self, req: &Request, lanes: &mut Lanes) -> (Response, bool) {
        self.handle(req, lanes)
    }
}

/// Horizon-keyed truncation: once the newest report is `horizon`
/// seconds past the oldest retained report, compact the journal and
/// clamp every backend cursor to the new report count. Cheap to call
/// per append (the scan only runs when the journal actually shrinks).
fn maybe_truncate(j: &mut Journal, newest_at: f64, horizon: f64, backends: &[BackendState]) {
    if !horizon.is_finite() || horizon < 0.0 {
        return;
    }
    let cutoff = newest_at - horizon;
    match j.truncate_before(cutoff) {
        Ok(0) => {}
        Ok(dropped) => {
            // Cursors count journal positions; compaction renumbered
            // them. Every healthy backend was already past the dropped
            // prefix (they received those reports live), so clamping to
            // the new count keeps replay exact for the survivors.
            for b in backends {
                let adjusted = b.cursor().saturating_sub(dropped).min(j.reports());
                b.set_cursor(adjusted);
            }
            // modelcheck-allow: event-loop — compaction notice; truncation
            // runs at the journal size horizon, not per request.
            eprintln!("predictgw: journal compacted, {dropped} reports past the horizon dropped");
        }
        // modelcheck-allow: event-loop — truncation-failure marker on
        // the error path only.
        Err(e) => eprintln!("predictgw: journal truncation failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gateway_refuses_an_empty_backend_list() {
        assert!(Gateway::new(GatewayConfig::default()).is_err());
    }

    #[test]
    fn gw_stats_reflects_configuration_before_any_traffic() {
        let cfg = GatewayConfig {
            backends: vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()],
            ..GatewayConfig::default()
        };
        let gw = Gateway::new(cfg).expect("gateway");
        let s = gw.gw_stats();
        assert_eq!(s.backends.len(), 2);
        assert_eq!(s.backends[0].addr, "127.0.0.1:1");
        assert!(s.backends.iter().all(|b| b.healthy), "presumed healthy at boot");
        assert_eq!(s.hits + s.misses + s.failovers, 0);
        assert_eq!(s.journal_frames, 0, "no journal configured");
    }

    #[test]
    fn shutdown_is_local_to_the_gateway() {
        let cfg =
            GatewayConfig { backends: vec!["127.0.0.1:1".to_string()], ..GatewayConfig::default() };
        let gw = Gateway::new(cfg).expect("gateway");
        let mut lanes = gw.lanes();
        let (resp, stop) = gw.handle(&Request::Shutdown, &mut lanes);
        assert_eq!(resp.kind(), "ok");
        assert!(stop);
    }

    #[test]
    fn queries_with_no_reachable_backend_yield_an_error_response() {
        // Nothing listens on these ports; the gateway must answer an
        // `error` (and count the failovers), never hang or panic.
        let cfg = GatewayConfig {
            backends: vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()],
            connect_timeout: Duration::from_millis(100),
            io_timeout: Some(Duration::from_millis(100)),
            ..GatewayConfig::default()
        };
        let gw = Gateway::new(cfg).expect("gateway");
        let mut lanes = gw.lanes();
        let req = Request::Predict(proto::proto::Predict {
            machine: "m0".to_string(),
            now: 1.0,
            task: contention_model::predict::ParagonTask {
                dcomp_sun: contention_model::units::secs(1.0),
                t_paragon: contention_model::units::secs(2.0),
                to_backend: Vec::new(),
                from_backend: Vec::new(),
            },
            j_words: 0,
        });
        let (resp, stop) = gw.handle(&req, &mut lanes);
        assert!(!stop);
        assert_eq!(resp.kind(), "error");
        let s = gw.gw_stats();
        assert_eq!(s.hits, 1, "owner was (optimistically) healthy at dispatch");
        assert_eq!(s.failovers, 2, "both backends failed mid-flight");
    }

    #[test]
    fn journal_append_survives_roundtrip_through_gateway() {
        let mut path = std::env::temp_dir();
        path.push(format!("predictgw-gwtest-{}.j", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = GatewayConfig {
            backends: vec!["127.0.0.1:1".to_string()],
            journal_path: Some(path.clone()),
            connect_timeout: Duration::from_millis(100),
            ..GatewayConfig::default()
        };
        let gw = Gateway::new(cfg).expect("gateway");
        let mut lanes = gw.lanes();
        let report = LoadReport { machine: "m1".to_string(), at: 1.0, load: 2.0, comm_frac: 0.5 };
        // No backend is reachable, so the broadcast fails — but the
        // report must already be journaled (journal-then-broadcast).
        let (resp, _) = gw.handle(&Request::LoadReport(report.clone()), &mut lanes);
        assert_eq!(resp.kind(), "error");
        let replayed = journal::read_reports(&path).expect("read journal");
        assert_eq!(replayed, vec![report]);
        let s = gw.gw_stats();
        assert_eq!(s.journal_frames, 2, "meta + one report");
        let _ = std::fs::remove_file(&path);
    }
}
