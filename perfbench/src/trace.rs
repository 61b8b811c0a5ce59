//! The traced run: per-layer costs, measured from the benchmark's own
//! files around the public call of each layer.
//!
//! The workload's seeded stream (for `modelcheck_pinned`, the
//! `steady_predict` stream) is replayed in process through each layer
//! in turn, followed by a short probe of every request kind on machines
//! of its own, so every layer row is measured on every workload. Each
//! call is one span (name, start, end, parent; spans of one request
//! share its index as id). A layer's self time is its span minus its
//! children, or the difference between adjacent rows:
//!
//! - `service.*`: `Service::handle_local` with an `Affinity`, as the
//!   evented engine calls it; its `self_ns` is handle time minus the
//!   model-layer spans (`loadcast.*`, `core.*`, `hetsched.*`) the same
//!   request costs when its model calls are replayed one by one, folding
//!   a profile exactly where the service missed its cache.
//! - `proto.*`: both codecs' decode and encode of every message.
//! - `gateway.*`, `journal.*`, `ring.*`: an in-process `Gateway` with its
//!   own `Lanes` against two live predictd backends; `hop_ns` is the
//!   gateway's `predict` time minus a direct backend round trip.
//! - `reactor.overhead_ns`: median loopback latency at the workload's
//!   fixed rate minus median in-process decode+handle+encode.
//! - `modelcheck.*`: the analyzer library on the pinned tree.
//!
//! Spans stay in memory and are written out (CSV) when the run ends.
//! `trace.overhead_frac` is the cost of recording them: the same
//! decode+handle+encode replay with spans on versus off.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use contention_model::mix::WorkloadMix;
use contention_model::predict::ParagonPredictor;
use contention_model::profile::SlowdownProfile;
use contention_model::units::{Prob, Seconds};
use loadcast::{LoadMonitor, MonitorConfig};
use predictd::{Affinity, Client, Service, ServiceConfig};
use predictgw::journal::DEFAULT_FSYNC_EVERY;
use predictgw::{Gateway, GatewayConfig, Journal, Ring};
use proto::{binproto, codec, Request, Response};

use crate::daemons::{Daemon, Env};
use crate::gen::{percentile, Generator};
use crate::report::{median, Metric, Outcome};
use crate::stream::{self, Clock, Codec, ConnStream, PhaseInput, Workload, CONNS};
use crate::sys::now_ns;

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("core.profile_fold_ns", "ns"),
    ("core.folds_per_kop", "count"),
    ("core.decide_ns", "ns"),
    ("core.decide_batch_ns_per_task", "ns"),
    ("hetsched.rank_ns", "ns"),
    ("hetsched.schedules_per_rank", "count"),
    ("loadcast.report_ns", "ns"),
    ("loadcast.forecast_ns", "ns"),
    ("loadcast.mix_forecast_ns", "ns"),
    ("proto.bin_decode_ns", "ns"),
    ("proto.bin_encode_ns", "ns"),
    ("proto.bytes_per_op", "bytes"),
    ("proto.json_parse_ns", "ns"),
    ("proto.json_write_ns", "ns"),
    ("proto.json_fallback_frac", "fraction"),
    ("service.handle_ns.load_report", "ns"),
    ("service.handle_ns.predict", "ns"),
    ("service.handle_ns.decide_batch", "ns"),
    ("service.handle_ns.rank", "ns"),
    ("service.self_ns", "ns"),
    ("service.cache_hit_ratio", "fraction"),
    ("service.replicas", "count"),
    ("reactor.overhead_ns", "ns"),
    ("gateway.handle_ns.load_report", "ns"),
    ("gateway.handle_ns.predict", "ns"),
    ("gateway.handle_ns.decide_batch", "ns"),
    ("gateway.handle_ns.rank", "ns"),
    ("gateway.hop_ns", "ns"),
    ("gateway.backend_requests_per_op", "count"),
    ("gateway.hit_ratio", "fraction"),
    ("gateway.failovers", "count"),
    ("journal.append_ns", "ns"),
    ("journal.bytes_per_report", "bytes"),
    ("ring.preference_ns", "ns"),
    ("modelcheck.lex_ms", "ms"),
    ("modelcheck.parse_ms", "ms"),
    ("modelcheck.file_passes_ms", "ms"),
    ("modelcheck.workspace_self_ms", "ms"),
    ("modelcheck.files", "count"),
    ("modelcheck.graph_nodes", "count"),
    ("modelcheck.graph_edges", "count"),
    ("generator.max_late_ms", "ms"),
    ("generator.cpu_frac", "fraction"),
    ("generator.tail_p99_us", "us"),
    ("generator.tail_p999_us", "us"),
    ("trace.overhead_frac", "fraction"),
];

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// The request (or scan file) the span belongs to.
    id: u32,
    name: &'static str,
    start: u64,
    end: u64,
    /// Index of the parent span in the recorder.
    parent: Option<u32>,
}

/// In-memory span recorder. When off, it runs the same calls without
/// reading the clock or recording anything.
struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer { on, spans: Vec::new() }
    }

    /// Times `f` as span `name` of request `id` under `parent`, returning
    /// its result and the new span's index.
    fn span<R>(
        &mut self,
        id: u32,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        if !self.on {
            return (std::hint::black_box(f()), u32::MAX);
        }
        let start = now_ns();
        let r = std::hint::black_box(f());
        let end = now_ns();
        self.spans.push(Span { id, name, start, end, parent });
        (r, (self.spans.len() - 1) as u32)
    }

    /// Opens a span whose end is set later by [`Tracer::close`].
    fn open(&mut self, id: u32, name: &'static str, parent: Option<u32>) -> u32 {
        if !self.on {
            return u32::MAX;
        }
        let now = now_ns();
        self.spans.push(Span { id, name, start: now, end: now, parent });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, idx: u32) {
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end = now_ns();
        }
    }

    /// Mean duration of spans called `name`, ns (0 when none).
    fn mean_ns(&self, name: &str) -> f64 {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(sum, n), s| (sum + (s.end - s.start), n + 1));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Total duration of spans called `name`, ns.
    fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).sum()
    }

    fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::from("id,name,start_ns,end_ns,parent\n");
        for sp in &self.spans {
            let parent = sp.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(s, "{},{},{},{},{}", sp.id, sp.name, sp.start, sp.end, parent);
        }
        std::fs::write(path, s)
    }
}

/// The replayed stream: the workload's warm-up and seeded requests, then
/// the probe of every request kind.
fn replay_stream(w: Workload, seed: u64, n: usize) -> Vec<Request> {
    let mut streams: Vec<_> = (0..CONNS).map(|c| ConnStream::new(w, seed, c)).collect();
    let mut clock = Clock::default();
    let warm = PhaseInput::warm(&mut streams, &mut clock, w.codec);
    let main = PhaseInput::generate(&mut streams, &mut clock, w.codec, n);
    let probe_w = stream::service_workload("churn_schedule").expect("churn workload exists");
    let mut probe: Vec<_> =
        (0..CONNS).map(|c| ConnStream::new(probe_w, seed ^ 0x5eed, c)).collect();
    let probe_warm = PhaseInput::warm(&mut probe, &mut clock, w.codec);
    let probe_main = PhaseInput::generate(&mut probe, &mut clock, w.codec, (n / 20).max(64));
    let mut out = Vec::new();
    for input in [warm, main, probe_warm, probe_main] {
        // Interleave the connections back into global send order.
        let longest = input.reqs.iter().map(Vec::len).max().unwrap_or(0);
        for k in 0..longest {
            for conn in &input.reqs {
                if let Some(r) = conn.get(k) {
                    out.push(r.clone());
                }
            }
        }
    }
    out
}

fn kind_index(req: &Request) -> usize {
    match req {
        Request::LoadReport(_) => 0,
        Request::Predict(_) => 1,
        Request::DecideBatch(_) => 2,
        _ => 3,
    }
}

const HANDLE_SPANS: [&str; 4] = [
    "service.handle_ns.load_report",
    "service.handle_ns.predict",
    "service.handle_ns.decide_batch",
    "service.handle_ns.rank",
];
const GATEWAY_SPANS: [&str; 4] = [
    "gateway.handle_ns.load_report",
    "gateway.handle_ns.predict",
    "gateway.handle_ns.decide_batch",
    "gateway.handle_ns.rank",
];

/// Per-machine mirror of the service's model state, so the model
/// layers can be called one at a time.
struct Mirror {
    monitor: LoadMonitor,
    /// The last profile folded for the machine.
    profile: Option<SlowdownProfile>,
}

/// Calls the model layers a request costs the service, one span each.
///
/// It keeps no cache policy of its own: whether a query folds a profile
/// is read from the service itself ([`fold_outcomes`]). Queries follow
/// the service's two resolve paths: `predict` and `decide_batch` are
/// answered from the core-local replica (`mix_forecast`, then a fold on
/// a miss), `rank` from the shard (`forecast`, then `mix_forecast` and a
/// fold on a miss). A report is ingested once (`report` and
/// `mix_forecast`, as on the shard); the replica's copy of that ingest
/// stays in `service.self_ns`.
struct ModelReplay {
    pred: ParagonPredictor,
    dedicated: SlowdownProfile,
    machines: HashMap<String, Mirror>,
    schedules: Vec<u64>,
    batch_tasks: u64,
}

impl ModelReplay {
    fn new() -> Self {
        let pred = predictd::default_predictor();
        let dedicated = pred.profile(&WorkloadMix::new());
        ModelReplay {
            pred,
            dedicated,
            machines: HashMap::new(),
            schedules: Vec::new(),
            batch_tasks: 0,
        }
    }

    /// The profile a query at `now` uses; `missed` says whether the
    /// service folded one for it, and `local` which path it took.
    #[allow(clippy::too_many_arguments)]
    fn resolve(
        &mut self,
        t: &mut Tracer,
        id: u32,
        parent: u32,
        machine: &str,
        now: f64,
        missed: bool,
        local: bool,
    ) -> SlowdownProfile {
        let Some(m) = self.machines.get_mut(machine) else { return self.dedicated.clone() };
        let now = Seconds::new(now);
        let mix = if local {
            let (mf, _) = t
                .span(id, "loadcast.mix_forecast_ns", Some(parent), || m.monitor.mix_forecast(now));
            if mf.forecast.stale {
                return self.dedicated.clone();
            }
            mf.mix
        } else {
            let (fc, _) =
                t.span(id, "loadcast.forecast_ns", Some(parent), || m.monitor.forecast(now));
            if fc.stale {
                return self.dedicated.clone();
            }
            if !missed {
                if let Some(p) = &m.profile {
                    return p.clone();
                }
            }
            t.span(id, "loadcast.mix_forecast_ns", Some(parent), || m.monitor.mix_forecast(now))
                .0
                .mix
        };
        let pred = &self.pred;
        if missed {
            let (p, _) = t.span(id, "core.profile_fold_ns", Some(parent), || pred.profile(&mix));
            m.profile = Some(p);
        }
        m.profile.get_or_insert_with(|| pred.profile(&mix)).clone()
    }

    fn replay(&mut self, t: &mut Tracer, id: u32, req: &Request, missed: bool) {
        let root = t.open(id, "model", None);
        match req {
            Request::LoadReport(r) => {
                let m = self.machines.entry(r.machine.clone()).or_insert_with(|| Mirror {
                    monitor: LoadMonitor::new(MonitorConfig::default()),
                    profile: None,
                });
                let at = Seconds::new(r.at);
                let frac = if r.comm_frac < 0.0 { None } else { Prob::try_new(r.comm_frac) };
                t.span(id, "loadcast.report_ns", Some(root), || m.monitor.report(at, r.load, frac));
                t.span(id, "loadcast.mix_forecast_ns", Some(root), || m.monitor.mix_forecast(at));
            }
            Request::Predict(q) => {
                let profile = self.resolve(t, id, root, &q.machine, q.now, missed, true);
                let pred = &self.pred;
                t.span(id, "core.decide_ns", Some(root), || {
                    pred.decide_with(&q.task, &profile, q.j_words)
                });
            }
            Request::DecideBatch(q) => {
                let profile = self.resolve(t, id, root, &q.machine, q.now, missed, true);
                let pred = &self.pred;
                t.span(id, "core.decide_batch", Some(root), || {
                    pred.decide_batch(&q.tasks, &profile, q.j_words)
                });
                self.batch_tasks += q.tasks.len() as u64;
            }
            Request::Rank(q) => {
                let profile = self.resolve(t, id, root, &q.machine, q.now, missed, false);
                let (ranked, _) = t.span(id, "hetsched.rank_ns", Some(root), || {
                    hetsched::forecast::rank_all_forecast(
                        &q.workflow,
                        q.front_end,
                        &profile,
                        q.j_words,
                    )
                });
                self.schedules.push(ranked.len() as u64);
            }
            Request::Stats | Request::Shutdown => {}
        }
        t.close(root);
    }
}

/// Which requests made the service fold a profile: the same stream
/// through a fresh service, untimed, with its cache-miss count read
/// after every request. The service is deterministic in its input, so
/// the traced pass takes the same misses.
fn fold_outcomes(reqs: &[Request]) -> Result<Vec<bool>, String> {
    let svc = Service::with_default_predictor(ServiceConfig::default());
    let mut aff = Affinity::new();
    let mut misses = 0;
    let mut out = Vec::with_capacity(reqs.len());
    for req in reqs {
        svc.handle_local(req, &mut aff);
        let Response::Stats(stats) = svc.handle(&Request::Stats).0 else {
            return Err("in-process service did not answer stats".to_string());
        };
        out.push(stats.cache.misses > misses);
        misses = stats.cache.misses;
    }
    Ok(out)
}

/// Encoded forms of one request and its response in both codecs.
struct Wire {
    bin_req: Vec<u8>,
    json_req: String,
}

fn wire_of(req: &Request) -> Wire {
    let mut bin_req = Vec::new();
    binproto::encode_request(req, &mut bin_req);
    let json_req = serde_json::to_string(req).expect("generated requests serialize");
    Wire { bin_req, json_req }
}

/// Decode, handle, encode — the in-process service path — for every
/// request, decoding and encoding with both codecs so each has its
/// rows. Returns the per-request time of the path in the workload's
/// codec (ns), the service and affinity it used, bytes on the wire in
/// that codec, and how many JSON requests took the serde fallback.
fn service_path(
    reqs: &[Request],
    wires: &[Wire],
    codec: Codec,
    t: &mut Tracer,
) -> (Vec<u64>, Service, Affinity, u64, u64) {
    let svc = Service::with_default_predictor(ServiceConfig::default());
    let mut aff = Affinity::new();
    let mut path_ns = Vec::with_capacity(reqs.len());
    let mut bytes = 0u64;
    let mut fallbacks = 0u64;
    let mut out_bin = Vec::with_capacity(512);
    let mut out_json = String::with_capacity(512);
    for (i, (req, wire)) in reqs.iter().zip(wires).enumerate() {
        let id = i as u32;
        let root = t.open(id, "request", None);
        let (bin, _) = t.span(id, "proto.bin_decode_ns", Some(root), || {
            binproto::decode_request(&wire.bin_req[4..])
        });
        let (json, _) = t.span(id, "proto.json_parse_ns", Some(root), || {
            codec::parse_request(&wire.json_req)
                .map(|r| (r, false))
                .or_else(|| serde_json::from_str::<Request>(&wire.json_req).ok().map(|r| (r, true)))
        });
        fallbacks += u64::from(json.as_ref().is_some_and(|(_, fell_back)| *fell_back));
        let decoded = match codec {
            Codec::Binary => bin.ok(),
            Codec::Json => json.map(|(r, _)| r),
        }
        .expect("generated requests decode");
        let name = HANDLE_SPANS[kind_index(req)];
        let ((resp, _), _) = t.span(id, name, Some(root), || svc.handle_local(&decoded, &mut aff));
        out_bin.clear();
        out_json.clear();
        t.span(id, "proto.bin_encode_ns", Some(root), || {
            binproto::encode_response(&resp, &mut out_bin)
        });
        t.span(id, "proto.json_write_ns", Some(root), || {
            if !codec::write_response(&resp, &mut out_json) {
                serde_json::to_string_into(&resp, &mut out_json);
            }
        });
        t.close(root);
        if let Some(s) = t.spans.get(root as usize) {
            path_ns.push(s.end - s.start);
        }
        bytes += match codec {
            Codec::Binary => (wire.bin_req.len() + out_bin.len()) as u64,
            Codec::Json => (wire.json_req.len() + 1 + out_json.len() + 1) as u64,
        };
    }
    (path_ns, svc, aff, bytes, fallbacks)
}

/// The gateway rows: an in-process gateway with its own lanes against
/// two live backends, plus the journal and ring calls it makes.
fn gateway_rows(
    reqs: &[Request],
    env: &Env,
    t: &mut Tracer,
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    let mut backends = Vec::new();
    for b in 0..2 {
        let args: Vec<String> =
            ["--listen", "127.0.0.1:0", "--engine", "evented", "--workers", "1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        backends.push(
            Daemon::spawn(
                &env.bin("predictd"),
                &args,
                &env.tmp.join(format!("trace-backend{b}.log")),
            )
            .map_err(|e| format!("trace backend: {e}"))?,
        );
    }
    let addrs: Vec<String> = backends.iter().map(|d| d.addr.to_string()).collect();
    let journal_path = env.tmp.join("trace-gateway-journal.bin");
    let _ = std::fs::remove_file(&journal_path);
    let gw = Gateway::new(GatewayConfig {
        backends: addrs.clone(),
        journal_path: Some(journal_path.clone()),
        ..GatewayConfig::default()
    })
    .map_err(|e| format!("gateway: {e}"))?;
    let mut lanes = gw.lanes();
    let mut direct: Vec<Client> = addrs
        .iter()
        .map(|a| Client::connect_binary(a.as_str()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("direct backend client: {e}"))?;
    let ring = Ring::new(addrs.len(), GatewayConfig::default().vnodes);
    let scratch_path = env.tmp.join("trace-journal-scratch.bin");
    let _ = std::fs::remove_file(&scratch_path);
    let mut journal =
        Journal::open(&scratch_path, DEFAULT_FSYNC_EVERY).map_err(|e| format!("journal: {e}"))?;
    let base = 1u32 << 24;
    for (i, req) in reqs.iter().enumerate() {
        let id = base + i as u32;
        let root = t.open(id, "gateway.request", None);
        let machine = match req {
            Request::LoadReport(r) => r.machine.as_str(),
            Request::Predict(q) => q.machine.as_str(),
            Request::DecideBatch(q) => q.machine.as_str(),
            Request::Rank(q) => q.machine.as_str(),
            Request::Stats | Request::Shutdown => "",
        };
        t.span(id, "ring.preference_ns", Some(root), || ring.preference(machine));
        let ((resp, _), _) =
            t.span(id, GATEWAY_SPANS[kind_index(req)], Some(root), || gw.handle(req, &mut lanes));
        if let Response::Error(e) = &resp {
            return Err(format!("gateway answered {} with an error: {}", req.kind(), e.message));
        }
        match req {
            Request::LoadReport(r) => {
                let (res, _) =
                    t.span(id, "journal.append_ns", Some(root), || journal.append_report(r));
                res.map_err(|e| format!("journal append: {e}"))?;
            }
            Request::Predict(_) => {
                let owner = ring.owner(machine);
                let (res, _) =
                    t.span(id, "backend.direct_predict", Some(root), || direct[owner].request(req));
                res.map_err(|e| format!("direct backend predict: {e}"))?;
            }
            _ => {}
        }
        t.close(root);
    }
    let stats = gw.gw_stats();
    let ops = reqs.len().max(1) as f64;
    let backend_requests: u64 = stats.backends.iter().map(|b| b.requests).sum();
    m.push(Metric::new(
        "gateway.hop_ns",
        t.mean_ns("gateway.handle_ns.predict") - t.mean_ns("backend.direct_predict"),
        "ns",
    ));
    m.push(Metric::new("gateway.backend_requests_per_op", backend_requests as f64 / ops, "count"));
    m.push(Metric::new(
        "gateway.hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        "fraction",
    ));
    m.push(Metric::new("gateway.failovers", stats.failovers as f64, "count"));
    m.push(Metric::new(
        "journal.bytes_per_report",
        journal.bytes() as f64 / journal.reports().max(1) as f64,
        "bytes",
    ));
    drop(lanes);
    drop(direct);
    drop(gw);
    for d in backends {
        d.stop().map_err(|e| format!("stopping trace backend: {e}"))?;
    }
    let _ = std::fs::remove_file(&journal_path);
    let _ = std::fs::remove_file(&scratch_path);
    Ok(())
}

/// The reactor row and the generator's health: the workload's stream
/// over loopback at its fixed rate against one evented predictd.
fn reactor_rows(
    w: Workload,
    seed: u64,
    secs: f64,
    env: &Env,
    in_process_p50_ns: f64,
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    let args: Vec<String> =
        ["--listen", "127.0.0.1:0", "--engine", "evented"].iter().map(|s| s.to_string()).collect();
    let d = Daemon::spawn(&env.bin("predictd"), &args, &env.tmp.join("trace-reactor.log"))
        .map_err(|e| format!("reactor daemon: {e}"))?;
    let mut streams: Vec<_> = (0..CONNS).map(|c| ConnStream::new(w, seed, c)).collect();
    let mut clock = Clock::default();
    let mut gen =
        Generator::connect(d.addr, CONNS, w.codec).map_err(|e| format!("reactor connect: {e}"))?;
    let warm = PhaseInput::warm(&mut streams, &mut clock, w.codec);
    gen.run(&warm.wire, None).map_err(|e| format!("reactor warm-up: {e}"))?;
    let n = (w.fixed_rate * secs) as usize;
    let input = PhaseInput::generate(&mut streams, &mut clock, w.codec, n);
    let out =
        gen.run(&input.wire, Some(w.fixed_rate)).map_err(|e| format!("reactor phase: {e}"))?;
    d.stop().map_err(|e| format!("stopping reactor daemon: {e}"))?;
    let lat = out.sorted_latencies();
    let mut late = out.late_ns.clone();
    late.sort_unstable();
    m.push(Metric::new(
        "reactor.overhead_ns",
        percentile(&lat, 0.5) as f64 - in_process_p50_ns,
        "ns",
    ));
    m.push(Metric::new(
        "generator.max_late_ms",
        late.last().copied().unwrap_or(0) as f64 / 1e6,
        "ms",
    ));
    m.push(Metric::new("generator.cpu_frac", out.gen_cpu_s / out.wall_s.max(1e-9), "fraction"));
    m.push(Metric::new("generator.tail_p99_us", percentile(&lat, 0.99) as f64 / 1e3, "us"));
    m.push(Metric::new("generator.tail_p999_us", percentile(&lat, 0.999) as f64 / 1e3, "us"));
    Ok(())
}

/// The analyzer rows, from the library on the pinned tree.
fn modelcheck_rows(
    env: &Env,
    bench_dir: &Path,
    t: &mut Tracer,
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    let tree = env.tmp.join("trace-pinned");
    crate::scan::extract(&crate::scan::pinned_archive(bench_dir), &tree)?;
    let (crates, _) = modelcheck::discover_crates(&tree);
    let mut files = Vec::new();
    modelcheck::walk_by(&tree, &mut |p| {
        if p.extension().is_some_and(|e| e == "rs") {
            files.push(p.to_path_buf());
        }
    });
    let base = 2u32 << 24;
    for (i, path) in files.iter().enumerate() {
        let id = base + i as u32;
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel = path.strip_prefix(&tree).unwrap_or(path).to_string_lossy().replace('\\', "/");
        let scope = crates
            .iter()
            .filter(|c| {
                rel.starts_with(&format!("{}/src/", c.dir))
                    || (c.dir.is_empty() && rel.starts_with("src/"))
            })
            .max_by_key(|c| c.dir.len())
            .map_or(modelcheck::FileScope::NONE, |c| c.scope);
        let root = t.open(id, "modelcheck.file", None);
        let _ = t.span(id, "modelcheck.lex", Some(root), || {
            modelcheck::lexer::lex(&text).map(|v| v.len())
        });
        let (input, _) = modelcheck::passes::FileInput::build(&rel, &text, scope.for_file(&rel));
        let toks = input.code_tokens();
        t.span(id, "modelcheck.parse", Some(root), || modelcheck::ast::parse(&toks).is_ok());
        t.span(id, "modelcheck.scan_file", Some(root), || {
            modelcheck::scan_file(&rel, &text, scope)
        });
        t.close(root);
    }
    let ((_, stats), _) = t.span(base - 1, "modelcheck.workspace", None, || {
        modelcheck::scan_workspace_with_stats(&tree)
    });
    let _ = std::fs::remove_dir_all(&tree);
    let ms = |ns: u64| ns as f64 / 1e6;
    let lex = t.total_ns("modelcheck.lex");
    let parse = t.total_ns("modelcheck.parse");
    let per_file = t.total_ns("modelcheck.scan_file");
    m.push(Metric::new("modelcheck.lex_ms", ms(lex), "ms"));
    m.push(Metric::new("modelcheck.parse_ms", ms(parse), "ms"));
    m.push(Metric::new("modelcheck.file_passes_ms", ms(per_file) - ms(lex) - ms(parse), "ms"));
    m.push(Metric::new(
        "modelcheck.workspace_self_ms",
        ms(t.total_ns("modelcheck.workspace")) - ms(per_file),
        "ms",
    ));
    m.push(Metric::new("modelcheck.files", stats.files as f64, "count"));
    m.push(Metric::new("modelcheck.graph_nodes", stats.graph_nodes as f64, "count"));
    m.push(Metric::new("modelcheck.graph_edges", stats.graph_edges as f64, "count"));
    Ok(())
}

/// Runs the traced pass for `workload`.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    env: &Env,
    bench_dir: &Path,
) -> Result<Outcome, String> {
    let w = stream::service_workload(workload).unwrap_or_else(|| {
        stream::service_workload("steady_predict").expect("steady workload exists")
    });
    // About a millisecond of replayed traffic per measured millisecond
    // keeps the in-process replays to a fraction of the run.
    let n = ((seconds * 1000.0) as usize).max(500);
    let reqs = replay_stream(w, seed, n);
    let wires: Vec<Wire> = reqs.iter().map(wire_of).collect();
    let mut m = Vec::new();

    // Untraced and traced service paths, alternated three times: the
    // median ratio is what recording spans costs. The last traced pass
    // supplies the rows.
    let mut ratios = Vec::new();
    let mut traced = None;
    for _ in 0..3 {
        let t_off = now_ns();
        service_path(&reqs, &wires, w.codec, &mut Tracer::new(false));
        let off_ns = now_ns() - t_off;
        let mut t = Tracer::new(true);
        let t_on = now_ns();
        let path = service_path(&reqs, &wires, w.codec, &mut t);
        let on_ns = now_ns() - t_on;
        ratios.push(on_ns as f64 / off_ns as f64 - 1.0);
        traced = Some((t, path, off_ns, on_ns));
    }
    let (mut t, (path_ns, svc, aff, bytes, fallbacks), off_ns, on_ns) =
        traced.expect("three passes ran");

    let Response::Stats(stats) = svc.handle(&Request::Stats).0 else {
        return Err("in-process service did not answer stats".to_string());
    };
    let missed = fold_outcomes(&reqs)?;
    let folds = missed.iter().filter(|&&m| m).count() as u64;
    if folds != stats.cache.misses {
        return Err(format!(
            "the untimed pass missed the cache {folds} times, the traced pass {}",
            stats.cache.misses
        ));
    }
    let mut model = ModelReplay::new();
    let model_base = 3u32 << 24;
    for (i, (req, missed)) in reqs.iter().zip(missed).enumerate() {
        model.replay(&mut t, model_base + i as u32, req, missed);
    }
    let ops = reqs.len() as f64;
    let batch_total = t.total_ns("core.decide_batch") as f64;
    m.push(Metric::new("core.profile_fold_ns", t.mean_ns("core.profile_fold_ns"), "ns"));
    m.push(Metric::new("core.folds_per_kop", stats.cache.misses as f64 * 1000.0 / ops, "count"));
    m.push(Metric::new("core.decide_ns", t.mean_ns("core.decide_ns"), "ns"));
    m.push(Metric::new(
        "core.decide_batch_ns_per_task",
        batch_total / model.batch_tasks.max(1) as f64,
        "ns",
    ));
    m.push(Metric::new("hetsched.rank_ns", t.mean_ns("hetsched.rank_ns"), "ns"));
    m.push(Metric::new(
        "hetsched.schedules_per_rank",
        median(model.schedules.iter().map(|&s| s as f64).collect()),
        "count",
    ));
    for name in [
        "loadcast.report_ns",
        "loadcast.forecast_ns",
        "loadcast.mix_forecast_ns",
        "proto.bin_decode_ns",
        "proto.bin_encode_ns",
    ] {
        m.push(Metric::new(name, t.mean_ns(name), "ns"));
    }
    m.push(Metric::new("proto.bytes_per_op", bytes as f64 / ops, "bytes"));
    for name in ["proto.json_parse_ns", "proto.json_write_ns"] {
        m.push(Metric::new(name, t.mean_ns(name), "ns"));
    }
    m.push(Metric::new("proto.json_fallback_frac", fallbacks as f64 / ops, "fraction"));
    for name in HANDLE_SPANS {
        m.push(Metric::new(name, t.mean_ns(name), "ns"));
    }
    let handle_total: u64 = HANDLE_SPANS.iter().map(|n| t.total_ns(n)).sum();
    let model_total = t.total_ns("model");
    m.push(Metric::new("service.self_ns", (handle_total as f64 - model_total as f64) / ops, "ns"));
    m.push(Metric::new("service.cache_hit_ratio", stats.cache.hit_rate, "fraction"));
    m.push(Metric::new("service.replicas", aff.replicas() as f64, "count"));

    let mut sorted = path_ns;
    sorted.sort_unstable();
    let in_process_p50 = percentile(&sorted, 0.5) as f64;
    reactor_rows(w, seed, (seconds / 4.0).clamp(0.5, 5.0), env, in_process_p50, &mut m)?;
    gateway_rows(&reqs, env, &mut t, &mut m)?;
    for name in GATEWAY_SPANS.iter().chain(&["journal.append_ns", "ring.preference_ns"]) {
        m.push(Metric::new(*name, t.mean_ns(name), "ns"));
    }
    modelcheck_rows(env, bench_dir, &mut t, &mut m)?;
    m.push(Metric::new("trace.overhead_frac", median(ratios), "fraction"));

    let dir = env.tmp.parent().unwrap_or(&env.tmp).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    // One file per workload: the latest traced run replaces the last.
    let csv = dir.join(format!("{workload}.csv"));
    t.write_csv(&csv).map_err(|e| format!("writing {}: {e}", csv.display()))?;

    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        let row = m
            .iter()
            .find(|x| x.name == name)
            .ok_or(format!("per-layer row {name} was not measured"))?;
        ordered.push(Metric::new(name, row.value, unit));
    }
    let mut o = Outcome { attempted: reqs.len() as u64, metrics: ordered, ..Outcome::default() };
    o.log.push(format!(
        "replayed {} requests ({} of the workload, the rest warm-up and the every-kind probe); {} spans written to {}",
        reqs.len(),
        n,
        t.spans.len(),
        csv.display()
    ));
    o.log.push(format!(
        "in-process service path: untraced {:.1} ms, traced {:.1} ms; in-process p50 {:.0} ns",
        off_ns as f64 / 1e6,
        on_ns as f64 / 1e6,
        in_process_p50
    ));
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_valid() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert!(names
            .iter()
            .all(|n| n.len() <= 64
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }

    #[test]
    fn replay_stream_exercises_every_kind() {
        let w = stream::service_workload("steady_predict").expect("workload");
        let reqs = replay_stream(w, 1, 400);
        for k in 0..4 {
            assert!(reqs.iter().any(|r| kind_index(r) == k), "kind {k} missing");
        }
    }
}
