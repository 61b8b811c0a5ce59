//! Headline performance numbers as machine-readable JSON.
//!
//! A tiny, self-timed (no criterion) summary of the prediction engine's
//! before/after comparisons, written to `BENCH_model_eval.json` at the
//! repository root so CI can archive the numbers per commit:
//!
//! * per-call `decide` vs `decide_batch` over a cached profile,
//! * brute-force exhaustive search vs the Gray-code delta-evaluated walk,
//! * refolding the mix vs an epoch-keyed `ProfileCache` hit.
//!
//! A second file, `BENCH_service.json`, covers the online service path:
//! loadcast ingest+forecast and `predictd` request throughput
//! (`load_report` and warm-cache `predict`) through the reactor's line
//! helper, plus a concurrency sweep over real TCP — the reactor in both
//! the JSON and binary codecs at 1/4/16 pipelined connections,
//! client-observed latency quantiles included.

use bench::paragon_predictor;
use contention_model::dataset::DataSet;
use contention_model::mix::WorkloadMix;
use contention_model::paragon::comm_slowdown;
use contention_model::predict::ParagonTask;
use contention_model::profile::ProfileCache;
use contention_model::units::{f64_from_u64, f64_from_usize, secs};
use hetsched::eval::{best_exhaustive_oracle, best_exhaustive_with, SearchScratch};
use hetsched::task::{Environment, Matrix, Task, Workflow};
use serde::Value;
use std::hint::black_box;
use std::time::Instant;

/// Median-of-5 wall time of `iters` runs of `f`, in nanoseconds per run.
fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters.div_ceil(5) {
        f(); // warm-up
    }
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[2]
}

fn tasks(n: usize) -> Vec<ParagonTask> {
    (0..n)
        .map(|i| ParagonTask {
            dcomp_sun: secs(5.0 + f64_from_usize(i % 17)),
            t_paragon: secs(0.8 + f64_from_usize(i % 5) * 0.3),
            to_backend: vec![DataSet::burst(1000, 128 + (i as u64 % 8) * 128)],
            from_backend: vec![DataSet::burst(1000, 128 + (i as u64 % 8) * 128)],
        })
        .collect()
}

fn chain_instance(machines: usize, n_tasks: usize) -> (Workflow, Environment) {
    let mut s = 7u64;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (f64_from_u64(s >> 33) / f64_from_u64(1u64 << 31)) * 10.0
    };
    let mut v = Vec::new();
    for i in 0..n_tasks {
        let exec: Vec<f64> = (0..machines).map(|_| next() + 0.1).collect();
        if i + 1 < n_tasks {
            let mut comm = Matrix::filled(machines, 0.0);
            for a in 0..machines {
                for b in 0..machines {
                    if a != b {
                        comm.set(a, b, next());
                    }
                }
            }
            v.push(Task::with_edge(format!("t{i}"), exec, comm));
        } else {
            v.push(Task::terminal(format!("t{i}"), exec));
        }
    }
    let mut env = Environment::dedicated(machines);
    for f in env.comp_slowdown.iter_mut() {
        *f = 1.0 + next() / 5.0;
    }
    (Workflow::new(v), env)
}

fn comparison(baseline_ns: f64, engine_ns: f64) -> Value {
    Value::Map(vec![
        ("baseline_ns".to_string(), Value::Float(baseline_ns)),
        ("engine_ns".to_string(), Value::Float(engine_ns)),
        ("speedup".to_string(), Value::Float(baseline_ns / engine_ns)),
    ])
}

fn main() {
    let pred = paragon_predictor();

    // Batched predictions: 256 tasks, one profile fold per batch.
    let mix = WorkloadMix::from_fracs(
        &(0..24).map(|i| (f64_from_u64(i) * 0.37 + 0.11).fract()).collect::<Vec<_>>(),
    );
    let batch = tasks(256);
    let per_call = time_ns(200, || {
        black_box(
            batch
                .iter()
                .map(|t| pred.decide(black_box(t), black_box(&mix), 512))
                .collect::<Vec<_>>(),
        );
    });
    let batched = time_ns(200, || {
        let profile = pred.profile(black_box(&mix));
        black_box(pred.decide_batch(black_box(&batch), &profile, 512));
    });

    // Exhaustive search: 4 machines x 8 tasks = 65536 schedules.
    let (wf, env) = chain_instance(4, 8);
    let oracle = time_ns(20, || {
        black_box(best_exhaustive_oracle(black_box(&wf), black_box(&env)));
    });
    let mut scratch = SearchScratch::new();
    let gray = time_ns(20, || {
        black_box(best_exhaustive_with(black_box(&wf), black_box(&env), &mut scratch));
    });

    // Slowdown factors at p = 64: direct fold vs cached hit.
    let big = WorkloadMix::from_fracs(
        &(0..64).map(|i| (f64_from_u64(i) * 0.37 + 0.11).fract()).collect::<Vec<_>>(),
    );
    let direct = time_ns(20_000, || {
        black_box(comm_slowdown(black_box(&big), black_box(&pred.comm_delays)));
    });
    let mut cache = ProfileCache::new();
    let cached = time_ns(20_000, || {
        black_box(
            cache
                .profile_for(black_box(&big), &pred.comm_delays, &pred.comp_delays)
                .comm_slowdown(),
        );
    });

    let report = Value::Map(vec![
        ("batch_predict_256".to_string(), comparison(per_call, batched)),
        ("best_exhaustive_4m8t".to_string(), comparison(oracle, gray)),
        ("slowdown_factors_p64".to_string(), comparison(direct, cached)),
        ("modelcheck_workspace".to_string(), modelcheck_report()),
    ]);
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_model_eval.json");
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_model_eval.json");
    println!("{json}");

    let service = service_report();
    let json = serde_json::to_string_pretty(&service).expect("serializable");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_service.json");
    println!("{json}");
}

/// Wall time, finding counts, and call-graph size of a full
/// `modelcheck` workspace scan (lex + AST + graph passes + the
/// cross-file drift check), so the analyzer's own cost — and how much
/// structure the interprocedural passes see — is tracked per commit
/// alongside the model numbers. `scan_ms` is the median of five scans
/// after one warm-up, with the fastest and slowest beside it.
/// `ambiguous_calls` (call sites lost to names defined more than once)
/// and `allow_sites` (lines carrying a `modelcheck-allow:` grant) are
/// the two counts type-aware call resolution is meant to drive down.
fn modelcheck_report() -> Value {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let (mut diags, stats) = modelcheck::scan_workspace_with_stats(root);
    let mut scan_ms: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(modelcheck::scan_workspace_with_stats(root));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    scan_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let text =
        std::fs::read_to_string(modelcheck::baseline::default_path(root)).unwrap_or_default();
    let (entries, _bad) = modelcheck::baseline::parse(&text);
    modelcheck::baseline::mark(&mut diags, &entries);
    let baselined = diags.iter().filter(|d| d.baselined).count();
    Value::Map(vec![
        ("scan_ms".to_string(), Value::Float(scan_ms[2])),
        ("scan_ms_min".to_string(), Value::Float(scan_ms[0])),
        ("scan_ms_max".to_string(), Value::Float(scan_ms[4])),
        ("files".to_string(), Value::UInt(stats.files as u64)),
        ("graph_nodes".to_string(), Value::UInt(stats.graph_nodes as u64)),
        ("graph_edges".to_string(), Value::UInt(stats.graph_edges as u64)),
        ("ambiguous_calls".to_string(), Value::UInt(stats.ambiguous_calls as u64)),
        ("allow_sites".to_string(), Value::UInt(stats.allow_sites as u64)),
        ("diagnostics".to_string(), Value::UInt(diags.len() as u64)),
        ("baselined".to_string(), Value::UInt(baselined as u64)),
        ("new".to_string(), Value::UInt((diags.len() - baselined) as u64)),
    ])
}

/// `ns_per_op` / `ops_per_sec` for one measured operation.
fn throughput(ns_per_op: f64) -> Value {
    Value::Map(vec![
        ("ns_per_op".to_string(), Value::Float(ns_per_op)),
        ("ops_per_sec".to_string(), Value::Float(1e9 / ns_per_op)),
    ])
}

/// The online service path: loadcast ingest+forecast over a 64-sample
/// sawtooth, and predictd `load_report` / warm-cache `predict` requests
/// through the same line helper the transports use.
fn service_report() -> Value {
    use contention_model::units::{f64_from_usize, secs};
    use loadcast::{LoadMonitor, MonitorConfig};
    use predictd::reactor::respond_line;
    use predictd::{Affinity, Service, ServiceConfig};

    let ingest = time_ns(2_000, || {
        let mut m = LoadMonitor::new(MonitorConfig::default());
        for k in 0..64usize {
            m.report(secs(f64_from_usize(k)), black_box(f64_from_usize(k % 7) * 0.75), None);
        }
        black_box(m.forecast(secs(64.0)));
    });

    let svc = Service::with_default_predictor(ServiceConfig::default());
    let report_line = "{\"kind\":\"load_report\",\"machine\":\"m0\",\"at\":1.0,\
                       \"load\":2.0,\"comm_frac\":0.4}";
    let predict_line = "{\"kind\":\"predict\",\"machine\":\"m0\",\"now\":1.5,\
                        \"task\":{\"dcomp_sun\":30.0,\"t_paragon\":6.0,\
                        \"to_backend\":[{\"messages\":10,\"words\":2000}],\
                        \"from_backend\":[{\"messages\":1,\"words\":1000}]},\"j_words\":500}";
    let (mut out, mut aff) = (String::new(), Affinity::new());
    let mut handle = |line: &str| {
        out.clear();
        black_box(respond_line(&svc, black_box(line), &mut out, &mut aff));
    };
    let load_report = time_ns(20_000, || handle(report_line));
    let predict = time_ns(20_000, || handle(predict_line));

    Value::Map(vec![
        ("loadcast_ingest_forecast_64".to_string(), throughput(ingest)),
        ("predictd_load_report".to_string(), throughput(load_report)),
        ("predictd_predict".to_string(), throughput(predict)),
        ("concurrency_sweep".to_string(), concurrency_sweep()),
        ("gateway_sweep".to_string(), gateway_sweep()),
    ])
}

/// One measured loadgen run as a JSON record, client-observed latency
/// quantiles included.
fn sweep_point(conns: usize, pipeline: usize, s: &bench::loadgen::Summary) -> Value {
    Value::Map(vec![
        ("conns".to_string(), Value::UInt(conns as u64)),
        ("pipeline".to_string(), Value::UInt(pipeline as u64)),
        ("requests".to_string(), Value::UInt(s.requests)),
        ("errors".to_string(), Value::UInt(s.errors)),
        ("elapsed_secs".to_string(), Value::Float(s.elapsed_secs)),
        ("requests_per_sec".to_string(), Value::Float(s.requests_per_sec)),
        ("p50_us".to_string(), Value::UInt(s.p50_us)),
        ("p95_us".to_string(), Value::UInt(s.p95_us)),
        ("p99_us".to_string(), Value::UInt(s.p99_us)),
        ("max_us".to_string(), Value::UInt(s.max_us)),
    ])
}

/// The service headline numbers: mixed predict/load_report traffic
/// against the reactor (per-core epoll loops, `SO_REUSEPORT`,
/// shard-affine replicas) in both codecs with pipelined clients at 1, 4,
/// and 16 connections, all over real TCP on loopback.
fn concurrency_sweep() -> Value {
    use bench::loadgen::{drive, Codec, GenConfig, Mix};
    use predictd::proto::Request;
    use predictd::{Client, Reactor, ServerConfig, Service, ServiceConfig};
    use std::sync::atomic::AtomicBool;
    use std::thread;

    const REQUESTS_PER_CONN: usize = 2000;
    const PIPELINE: usize = 64;
    /// Trials per measured point; the fastest is recorded, the usual
    /// guard against scheduler noise on a shared box.
    const TRIALS: usize = 3;

    let best_run = |addr, cfg: &GenConfig| {
        let mut best: Option<bench::loadgen::Summary> = None;
        for _ in 0..TRIALS {
            let s = drive(addr, cfg).expect("loadgen run");
            if best.as_ref().is_none_or(|b| s.requests_per_sec > b.requests_per_sec) {
                best = Some(s);
            }
        }
        best.expect("at least one trial")
    };

    let cfg = ServerConfig { workers: 4, ..ServerConfig::default() };
    let reactor = Reactor::bind("127.0.0.1:0", cfg).expect("bind reactor");
    let addr = reactor.local_addr();
    let handle = thread::spawn(move || {
        let service = Service::with_default_predictor(ServiceConfig::default());
        reactor.run(&service, &AtomicBool::new(false)).expect("reactor run");
    });
    let mut evented_json = Vec::new();
    let mut evented_binary = Vec::new();
    for codec in [Codec::Json, Codec::Binary] {
        for conns in [1usize, 4, 16] {
            let cfg = GenConfig {
                conns,
                requests_per_conn: REQUESTS_PER_CONN,
                pipeline: PIPELINE,
                mix: Mix::default(),
                codec,
            };
            let point = sweep_point(conns, PIPELINE, &best_run(addr, &cfg));
            match codec {
                Codec::Json => evented_json.push(point),
                Codec::Binary => evented_binary.push(point),
            }
        }
    }
    let mut client = Client::connect_binary(addr).expect("shutdown connection");
    client.request(&Request::Shutdown).expect("shutdown");
    drop(client);
    handle.join().expect("reactor exits");

    Value::Map(vec![
        ("evented_workers4_json".to_string(), Value::Seq(evented_json)),
        ("evented_workers4_binary".to_string(), Value::Seq(evented_binary)),
    ])
}

/// Federation overhead per hop: the same mixed binary traffic against
/// one monolithic predictd, then against one `predictgw`
/// fronting 1, 2, and 4 backends. Every gateway request pays at least
/// one extra loopback hop (and `load_report` pays one per backend, by
/// broadcast), so `gateway_1backend_vs_monolithic` is the per-hop cost
/// tracked across PRs; the 2- and 4-backend points show how fan-out
/// amortizes it. Fixtures are leaked per point — this is a short-lived
/// dump process, the same trade the e2e tests make.
fn gateway_sweep() -> Value {
    use bench::loadgen::{drive, Codec, GenConfig, Mix};
    use predictd::proto::Request;
    use predictd::{Client, Reactor, ServerConfig, Service, ServiceConfig};
    use predictgw::{Gateway, GatewayConfig};
    use std::sync::atomic::AtomicBool;
    use std::thread;

    const REQUESTS_PER_CONN: usize = 1000;
    const PIPELINE: usize = 32;
    const CONNS: usize = 4;
    const TRIALS: usize = 2;

    let cfg = GenConfig {
        conns: CONNS,
        requests_per_conn: REQUESTS_PER_CONN,
        pipeline: PIPELINE,
        mix: Mix::default(),
        codec: Codec::Binary,
    };
    let scfg = ServerConfig { workers: 2, ..ServerConfig::default() };
    let best_run = |addr| {
        let mut best: Option<bench::loadgen::Summary> = None;
        for _ in 0..TRIALS {
            let s = drive(addr, &cfg).expect("loadgen run");
            if best.as_ref().is_none_or(|b| s.requests_per_sec > b.requests_per_sec) {
                best = Some(s);
            }
        }
        best.expect("at least one trial")
    };
    let spawn_backend = || {
        let service: &'static Service =
            Box::leak(Box::new(Service::with_default_predictor(ServiceConfig::default())));
        let reactor = Reactor::bind("127.0.0.1:0", scfg).expect("bind");
        let addr = reactor.local_addr();
        let handle = thread::spawn(move || {
            reactor.run(service, &AtomicBool::new(false)).expect("backend run")
        });
        (addr, handle)
    };
    let shutdown = |addr| {
        let mut client = Client::connect_binary(addr).expect("shutdown connection");
        client.request(&Request::Shutdown).expect("shutdown");
    };

    // Monolithic baseline: the same engine the gateway's backends run.
    let (mono_addr, mono_handle) = spawn_backend();
    let mono = best_run(mono_addr);
    shutdown(mono_addr);
    mono_handle.join().expect("monolithic server exits");

    let mut points = Vec::new();
    let mut one_backend_rps = 0.0;
    for n in [1usize, 2, 4] {
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..n {
            let (addr, handle) = spawn_backend();
            addrs.push(addr);
            handles.push(handle);
        }
        let gateway: &'static Gateway = Box::leak(Box::new(
            Gateway::new(GatewayConfig {
                backends: addrs.iter().map(|a| a.to_string()).collect(),
                ..GatewayConfig::default()
            })
            .expect("gateway"),
        ));
        let reactor = Reactor::bind("127.0.0.1:0", scfg).expect("bind gateway");
        let gw_addr = reactor.local_addr();
        let gw_handle = thread::spawn(move || {
            reactor.run(gateway, &AtomicBool::new(false)).expect("gateway run")
        });

        let summary = best_run(gw_addr);
        if n == 1 {
            one_backend_rps = summary.requests_per_sec;
        }
        let point = match sweep_point(CONNS, PIPELINE, &summary) {
            Value::Map(mut entries) => {
                entries.insert(0, ("backends".to_string(), Value::UInt(n as u64)));
                Value::Map(entries)
            }
            other => other,
        };
        points.push(point);

        shutdown(gw_addr);
        gw_handle.join().expect("gateway exits");
        for (addr, handle) in addrs.iter().zip(handles) {
            shutdown(*addr);
            handle.join().expect("backend exits");
        }
    }

    Value::Map(vec![
        ("monolithic_baseline".to_string(), sweep_point(CONNS, PIPELINE, &mono)),
        ("gateway".to_string(), Value::Seq(points)),
        (
            "gateway_1backend_vs_monolithic".to_string(),
            Value::Float(one_backend_rps / mono.requests_per_sec.max(1e-9)),
        ),
    ])
}
