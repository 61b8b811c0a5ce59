//! The federation's crash story, end to end: kill 1 of 3 backends under
//! a live gateway and demand (a) zero failed idempotent requests — the
//! ring successor takes over, first via mid-flight failover, then via
//! health-checked routing; (b) reports filed during the outage reach the
//! journal and the surviving backends; (c) a backend restarted *empty*
//! on the same port is detected by the health checker (its `load_report`
//! counter trails the gateway's replication cursor), caught up by
//! journal replay, and converges bit-identically to a peer that never
//! died.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use contention_model::dataset::DataSet;
use contention_model::predict::ParagonTask;
use contention_model::units::secs;
use predictd::proto::{LoadReport, Predict, Rank, Request, Response};
use predictd::{Client, Reactor, ServerConfig, Service, ServiceConfig};
use predictgw::{Gateway, GatewayConfig};

fn task() -> ParagonTask {
    ParagonTask {
        dcomp_sun: secs(30.0),
        t_paragon: secs(6.0),
        to_backend: vec![DataSet::burst(10, 2000)],
        from_backend: vec![DataSet::single(1000)],
    }
}

fn report(machine: &str, at: f64) -> Request {
    Request::LoadReport(LoadReport { machine: machine.to_string(), at, load: 2.0, comm_frac: 0.4 })
}

fn predict(machine: &str, now: f64) -> Request {
    Request::Predict(Predict { machine: machine.to_string(), now, task: task(), j_words: 500 })
}

fn rank(machine: &str, now: f64) -> Request {
    Request::Rank(Rank {
        machine: machine.to_string(),
        now,
        workflow: hetsched::example::workflow(),
        front_end: 0,
        j_words: 500,
        limit: 2,
    })
}

/// Boots one evented predictd backend — on `127.0.0.1:0` for a fresh
/// port, or on a previous address to model a restart. The service is
/// fresh (empty) either way; leaked, like every fixture here.
fn spawn_backend(addr: SocketAddr) -> (SocketAddr, thread::JoinHandle<()>) {
    let service: &'static Service =
        Box::leak(Box::new(Service::with_default_predictor(ServiceConfig::default())));
    let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
    let reactor = Reactor::bind(addr, cfg).expect("bind backend");
    let addr = reactor.local_addr();
    let handle =
        thread::spawn(move || reactor.run(service, &AtomicBool::new(false)).expect("backend run"));
    (addr, handle)
}

fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(20));
    }
}

fn stats_of(addr: &str) -> predictd::proto::StatsReply {
    let mut c = Client::connect_binary(addr).expect("stats connect");
    match c.request(&Request::Stats).expect("stats") {
        Response::Stats(s) => s,
        other => panic!("want stats, got {other:?}"),
    }
}

#[test]
fn killed_backend_fails_over_and_replays_to_convergence() {
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for _ in 0..3 {
        let (addr, handle) = spawn_backend("127.0.0.1:0".parse().expect("loopback"));
        addrs.push(addr.to_string());
        handles.push(Some(handle));
    }

    let mut journal = std::env::temp_dir();
    journal.push(format!("predictgw-failover-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&journal);

    let gateway: &'static Gateway = Box::leak(Box::new(
        Gateway::new(GatewayConfig {
            backends: addrs.clone(),
            journal_path: Some(journal.clone()),
            health_interval: Duration::from_millis(50),
            health_threshold: 2,
            connect_timeout: Duration::from_millis(500),
            io_timeout: Some(Duration::from_secs(2)),
            ..GatewayConfig::default()
        })
        .expect("gateway"),
    ));
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
    let reactor = Reactor::bind("127.0.0.1:0", cfg).expect("bind gateway");
    let gw_addr = reactor.local_addr();
    let checker = thread::spawn(|| gateway.run_health_checker(stop));
    let gw_handle = thread::spawn(move || reactor.run(gateway, stop).expect("gateway run"));

    let mut client = Client::connect_binary(gw_addr).expect("gateway connect");
    let machines: Vec<String> = (0..6).map(|i| format!("fo-m{i}")).collect();
    let mut at = 0.0f64;
    let mut reports_filed = 0u64;
    let file = |client: &mut Client, machine: &str, at: f64| match client
        .request(&report(machine, at))
        .expect("report")
    {
        Response::Ack(a) => assert!(a.accepted, "fresh report for {machine} must be accepted"),
        other => panic!("want ack, got {other:?}"),
    };

    // Phase 1: warm the whole fleet through the gateway.
    for _ in 0..4 {
        for m in &machines {
            at += 0.25;
            file(&mut client, m, at);
            reports_filed += 1;
        }
    }

    // Phase 2: kill the ring owner of machines[0] without telling the
    // gateway — the next requests walk into a dead socket.
    let victim = gateway.ring().owner(&machines[0]);
    let peer = (victim + 1) % addrs.len();
    {
        let mut direct = Client::connect_binary(addrs[victim].as_str()).expect("victim connect");
        let resp = direct.request(&Request::Shutdown).expect("shutdown");
        assert!(matches!(resp, Response::Ok), "{resp:?}");
    }
    handles[victim].take().expect("victim handle").join().expect("victim exits");

    // Zero failed idempotent requests: every machine still answers —
    // the victim's machines via mid-flight failover to the successor.
    for m in &machines {
        let resp = client.request(&predict(m, at + 0.1)).expect("predict during outage");
        assert!(
            matches!(resp, Response::Prediction(_)),
            "predict for {m} must survive the outage: {resp:?}"
        );
        let resp = client.request(&rank(m, at + 0.1)).expect("rank during outage");
        assert!(
            matches!(resp, Response::Ranked(_)),
            "rank for {m} must survive the outage: {resp:?}"
        );
    }

    // Reports during the window before the checker reacts still ack
    // (a surviving backend answers) and still reach the journal; the
    // victim's replication cursor simply stops advancing.
    for m in machines.iter().take(3) {
        at += 0.25;
        file(&mut client, m, at);
        reports_filed += 1;
    }

    wait_until("victim marked down", Duration::from_secs(10), || {
        !gateway.backend(victim).expect("victim state").is_healthy()
    });

    // Phase 3: routed-around outage. More reports (journal keeps
    // growing past the victim's cursor) and more queries (now misses,
    // not failovers — the owner is known-down).
    for m in &machines {
        at += 0.25;
        file(&mut client, m, at);
        reports_filed += 1;
        let resp = client.request(&predict(m, at)).expect("predict while down");
        assert!(matches!(resp, Response::Prediction(_)), "{resp:?}");
    }

    // Phase 4: restart the victim *empty* on the same port. The health
    // checker must spot the rollback (its load_report counter trails
    // the cursor), replay the journal, and only then mark it up.
    let (restarted, handle) = spawn_backend(addrs[victim].parse().expect("victim addr"));
    assert_eq!(restarted.to_string(), addrs[victim], "restart must reuse the port");
    handles[victim] = Some(handle);
    wait_until("victim replayed and marked up", Duration::from_secs(10), || {
        gateway.backend(victim).expect("victim state").is_healthy()
    });

    // Phase 5: convergence. The restarted backend must hold exactly the
    // journal's report stream — the same count the never-dead peer
    // absorbed via broadcast — and answer every machine identically.
    let sa = stats_of(&addrs[victim]);
    let sb = stats_of(&addrs[peer]);
    assert_eq!(
        sa.requests.load_report, reports_filed,
        "replay must restore every journaled report"
    );
    assert_eq!(sa.requests.load_report, sb.requests.load_report);
    assert_eq!(sa.machines, sb.machines, "same machine population after replay");

    let mut a = Client::connect_binary(addrs[victim].as_str()).expect("victim reconnect");
    let mut b = Client::connect_binary(addrs[peer].as_str()).expect("peer connect");
    for m in &machines {
        let qa = a.request(&predict(m, at + 0.5)).expect("victim predict");
        let qb = b.request(&predict(m, at + 0.5)).expect("peer predict");
        let (Response::Prediction(mut pa), Response::Prediction(mut pb)) = (qa, qb) else {
            panic!("both backends must answer predictions for {m}")
        };
        // cache_hit is replica metadata (caches warm differently);
        // everything else must be bit-identical.
        pa.cache_hit = false;
        pb.cache_hit = false;
        assert_eq!(pa, pb, "machine {m} diverged between restarted backend and peer");
    }

    let gs = gateway.gw_stats();
    assert!(gs.failovers >= 1, "the outage window must have recorded a failover: {gs:?}");
    assert!(
        gs.backends[victim].replayed >= reports_filed,
        "replay counter must cover the journal: {gs:?}"
    );
    assert!(gs.journal_frames > reports_filed, "journal holds meta + every report: {gs:?}");

    // Teardown: gateway first (its Shutdown stops only the gateway),
    // then the checker, then the backends directly.
    let resp = client.request(&Request::Shutdown).expect("gateway shutdown");
    assert!(matches!(resp, Response::Ok), "{resp:?}");
    gw_handle.join().expect("gateway exits");
    stop.store(true, Ordering::Release);
    checker.join().expect("checker exits");
    for (i, h) in handles.iter_mut().enumerate() {
        let mut direct = Client::connect_binary(addrs[i].as_str()).expect("teardown connect");
        direct.request(&Request::Shutdown).expect("backend shutdown");
        h.take().expect("handle").join().expect("backend exits");
    }
    let _ = std::fs::remove_file(&journal);
}
