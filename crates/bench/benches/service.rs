//! Service-path throughput: loadcast ingest + forecast, and predictd
//! request handling end to end (encode → dispatch → model → encode),
//! measured through the same [`respond_line`] entry the TCP and stdio
//! transports call.

use contention_model::units::{f64_from_usize, secs};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use loadcast::{LoadMonitor, MonitorConfig};
use predictd::reactor::respond_line;
use predictd::{Affinity, Service, ServiceConfig};

/// A deterministic sawtooth load trace: exercises every forecaster
/// without ever being constant (no fast paths).
fn trace(n: usize) -> Vec<(f64, f64)> {
    (0..n).map(|k| (f64_from_usize(k), f64_from_usize(k % 7) * 0.75)).collect()
}

fn loadcast_ingest_forecast(c: &mut Criterion) {
    let mut g = c.benchmark_group("loadcast");
    for n in [64usize, 1024] {
        let t = trace(n);
        g.bench_with_input(BenchmarkId::new("ingest_forecast", n), &t, |b, t| {
            b.iter(|| {
                let mut m = LoadMonitor::new(MonitorConfig::default());
                for &(at, load) in t {
                    m.report(secs(at), black_box(load), None);
                }
                black_box(m.forecast(secs(f64_from_usize(t.len()))))
            })
        });
    }
    g.finish();
}

/// One warmed service with a reporting machine, plus the request lines a
/// client would send.
fn warmed_service() -> (Service, String, String) {
    let svc = Service::with_default_predictor(ServiceConfig::default());
    let mut out = String::new();
    for k in 0..8 {
        let line = format!(
            "{{\"kind\":\"load_report\",\"machine\":\"m0\",\"at\":{k}.0,\
             \"load\":2.0,\"comm_frac\":0.4}}"
        );
        assert!(!respond_line(&svc, &line, &mut out, &mut Affinity::new()));
    }
    let report = "{\"kind\":\"load_report\",\"machine\":\"m0\",\"at\":9.0,\
                  \"load\":2.0,\"comm_frac\":0.4}"
        .to_string();
    let predict = "{\"kind\":\"predict\",\"machine\":\"m0\",\"now\":9.5,\
                   \"task\":{\"dcomp_sun\":30.0,\"t_paragon\":6.0,\
                   \"to_backend\":[{\"messages\":10,\"words\":2000}],\
                   \"from_backend\":[{\"messages\":1,\"words\":1000}]},\"j_words\":500}"
        .to_string();
    (svc, report, predict)
}

fn predictd_requests(c: &mut Criterion) {
    let mut g = c.benchmark_group("predictd");
    // One affinity per service: replicas mirror one service's shards.
    let handle = |svc: &Service, line: &str, out: &mut String, aff: &mut Affinity| {
        out.clear();
        respond_line(svc, line, out, aff)
    };
    let (svc, report, _) = warmed_service();
    let (mut out, mut aff) = (String::new(), Affinity::new());
    g.bench_function("load_report", |b| {
        b.iter(|| black_box(handle(&svc, black_box(&report), &mut out, &mut aff)))
    });
    let (svc, _, predict) = warmed_service();
    let mut aff = Affinity::new();
    g.bench_function("predict_warm_cache", |b| {
        b.iter(|| black_box(handle(&svc, black_box(&predict), &mut out, &mut aff)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = bench::quick_config();
    targets = loadcast_ingest_forecast, predictd_requests
}
criterion_main!(benches);
