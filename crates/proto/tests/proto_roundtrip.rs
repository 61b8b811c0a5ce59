//! Wire-protocol round-trips: every request and response kind survives
//! encode → decode bit-exactly, and malformed input is rejected with an
//! error, never a panic.

use contention_model::dataset::DataSet;
use contention_model::predict::{ParagonTask, Placement, PlacementDecision};
use contention_model::units::secs;
use hetsched::eval::Schedule;
use proto::proto::{
    Ack, BackendStats, CacheStats, DecideBatch, Decisions, ErrorReply, GwStatsReply,
    LatencySummary, LoadReport, Predict, Prediction, Rank, Ranked, Request, RequestCounts,
    Response, ShardStats, StatsReply,
};

fn task() -> ParagonTask {
    ParagonTask {
        dcomp_sun: secs(30.0),
        t_paragon: secs(6.0),
        to_backend: vec![DataSet::burst(10, 2000), DataSet::single(4)],
        from_backend: vec![DataSet::single(1000)],
    }
}

fn decision() -> PlacementDecision {
    PlacementDecision {
        t_front: secs(41.5),
        t_back: secs(6.0),
        c_to: secs(1.25),
        c_from: secs(0.75),
        placement: Placement::BackEnd,
    }
}

fn roundtrip_request(req: Request) {
    let line = serde_json::to_string(&req).expect("encode");
    let back: Request = serde_json::from_str(&line).expect(&line);
    assert_eq!(back, req, "{line}");
}

fn roundtrip_response(resp: Response) {
    let line = serde_json::to_string(&resp).expect("encode");
    let back: Response = serde_json::from_str(&line).expect(&line);
    assert_eq!(back, resp, "{line}");
}

#[test]
fn every_request_kind_roundtrips() {
    roundtrip_request(Request::LoadReport(LoadReport {
        machine: "m0".to_string(),
        at: 12.5,
        load: 3.0,
        comm_frac: -1.0,
    }));
    roundtrip_request(Request::Predict(Predict {
        machine: "m0".to_string(),
        now: 13.0,
        task: task(),
        j_words: 500,
    }));
    roundtrip_request(Request::DecideBatch(DecideBatch {
        machine: "m0".to_string(),
        now: 13.0,
        tasks: vec![task(), task()],
        j_words: 0,
    }));
    roundtrip_request(Request::Rank(Rank {
        machine: "m0".to_string(),
        now: 1.0,
        workflow: hetsched::example::workflow(),
        front_end: 0,
        j_words: 500,
        limit: 10,
    }));
    roundtrip_request(Request::Stats);
    roundtrip_request(Request::Shutdown);
}

#[test]
fn every_response_kind_roundtrips() {
    roundtrip_response(Response::Ack(Ack { machine: "m0".to_string(), accepted: true, p: 3 }));
    roundtrip_response(Response::Prediction(Prediction {
        machine: "m0".to_string(),
        p: 3,
        stale: false,
        forecaster: "ewma0.30".to_string(),
        cache_hit: true,
        decision: decision(),
    }));
    roundtrip_response(Response::Decisions(Decisions {
        machine: "m0".to_string(),
        p: 3,
        stale: true,
        forecaster: "dedicated".to_string(),
        cache_hit: false,
        decisions: vec![decision(), decision()],
    }));
    roundtrip_response(Response::Ranked(Ranked {
        machine: "m0".to_string(),
        p: 1,
        stale: false,
        total: 4,
        schedules: vec![Schedule { assignment: vec![0, 1], makespan: 23.5 }],
    }));
    roundtrip_response(Response::Stats(StatsReply {
        requests: RequestCounts {
            load_report: 5,
            predict: 4,
            decide_batch: 3,
            rank: 2,
            stats: 1,
            shutdown: 0,
        },
        cache: CacheStats { hits: 6, misses: 2, hit_rate: 0.75 },
        latency_us: LatencySummary { count: 15, p50_us: 8, p99_us: 128, max_us: 97 },
        machines: 2,
        uptime_secs: 12.5,
        shards: vec![
            ShardStats { shard: 0, machines: 1, load_reports: 3 },
            ShardStats { shard: 1, machines: 1, load_reports: 2 },
        ],
    }));
    roundtrip_response(Response::GwStats(GwStatsReply {
        backends: vec![
            BackendStats {
                addr: "127.0.0.1:7171".to_string(),
                healthy: true,
                requests: 41,
                failovers: 0,
                replayed: 0,
            },
            BackendStats {
                addr: "127.0.0.1:7172".to_string(),
                healthy: false,
                requests: 17,
                failovers: 3,
                replayed: 24,
            },
        ],
        hits: 50,
        misses: 5,
        failovers: 3,
        journal_frames: 25,
        journal_bytes: 1912,
        uptime_secs: 99.5,
    }));
    roundtrip_response(Response::Ok);
    roundtrip_response(Response::Error(ErrorReply { message: "nope \"quoted\"".to_string() }));
}

#[test]
fn kind_tag_leads_the_line() {
    let line = serde_json::to_string(&Request::Stats).expect("encode");
    assert_eq!(line, "{\"kind\":\"stats\"}");
    let line = serde_json::to_string(&Response::Ok).expect("encode");
    assert_eq!(line, "{\"kind\":\"ok\"}");
    let line = serde_json::to_string(&Request::LoadReport(LoadReport {
        machine: "m".to_string(),
        at: 1.0,
        load: 2.0,
        comm_frac: -1.0,
    }))
    .expect("encode");
    assert!(line.starts_with("{\"kind\":\"load_report\","), "{line}");
}

#[test]
fn malformed_requests_are_rejected() {
    for bad in [
        "",                                                                     // not JSON
        "null",                                                                 // wrong shape
        "42",                                                                   // wrong shape
        "[]",                                                                   // wrong shape
        "{}",                                                                   // missing kind
        "{\"kind\":12}",           // kind must be a string
        "{\"kind\":\"teleport\"}", // unknown kind
        "{\"kind\":\"predict\"}",  // missing payload fields
        "{\"kind\":\"load_report\",\"machine\":\"m\",\"at\":1.0,\"load\":2.0}", // missing field
        "{\"kind\":\"load_report\",\"machine\":3,\"at\":1.0,\"load\":2.0,\"comm_frac\":0.0}",
        "{\"kind\":\"predict\",\"machine\":\"m\",\"now\":1.0,\"task\":7,\"j_words\":1}",
        // negative dcomp rejected by the units layer during decode
        "{\"kind\":\"predict\",\"machine\":\"m\",\"now\":1.0,\"task\":{\"dcomp_sun\":-1.0,\
         \"t_paragon\":1.0,\"to_backend\":[],\"from_backend\":[]},\"j_words\":1}",
    ] {
        assert!(serde_json::from_str::<Request>(bad).is_err(), "accepted: {bad}");
    }
}

#[test]
fn malformed_responses_are_rejected() {
    for bad in [
        "{}",
        "{\"kind\":\"prediction\"}",
        "{\"kind\":\"mystery\"}",
        "{\"kind\":\"stats\",\"requests\":{}}",
        "{\"kind\":\"gw_stats\",\"backends\":[{\"addr\":\"x\"}]}",
    ] {
        assert!(serde_json::from_str::<Response>(bad).is_err(), "accepted: {bad}");
    }
}

#[test]
fn fields_parse_in_any_order_with_whitespace_around_tokens() {
    let line = " { \"at\" : 2.5 , \"machine\" : \"m9\" , \"comm_frac\" : -1.0 ,\
                \"load\" : 3.0 , \"kind\" : \"load_report\" } ";
    let req: Request = serde_json::from_str(line).expect(line);
    let want = LoadReport { machine: "m9".to_string(), at: 2.5, load: 3.0, comm_frac: -1.0 };
    assert_eq!(req, Request::LoadReport(want));
}

#[test]
fn escaped_machine_name_roundtrips() {
    let line = "{\"kind\":\"load_report\",\"machine\":\"we\\\"ird\\\\name\",\
                \"at\":1.0,\"load\":1.0,\"comm_frac\":0.0}";
    let req: Request = serde_json::from_str(line).expect(line);
    let Request::LoadReport(r) = &req else { panic!("want load_report, got {req:?}") };
    assert_eq!(r.machine, "we\"ird\\name");
    assert_eq!(serde_json::to_string(&req).expect("encode"), line);
}

#[test]
fn bytes_trailing_the_object_are_rejected() {
    for bad in ["{\"kind\":\"stats\"} x", "{\"kind\":\"stats\"}{}", "{\"kind\":\"shutdown\"},"] {
        assert!(serde_json::from_str::<Request>(bad).is_err(), "accepted: {bad}");
    }
    // Trailing whitespace is not garbage.
    assert_eq!(
        serde_json::from_str::<Request>("{\"kind\":\"stats\"} \t").ok(),
        Some(Request::Stats)
    );
}
