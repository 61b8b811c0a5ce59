//! Golden JSON replies: a fixed session of request lines, answered by
//! the reactor's line path on a fresh service, must reproduce the
//! committed reply bytes exactly. Any change to how JSON is parsed or
//! written — accepted lines, error wording, number and string
//! formatting, field order — shows up here as a diff.
//!
//! `stats` is left out: its uptime and latency fields vary per run.

use predictd::reactor::respond_line;
use predictd::{Affinity, Service, ServiceConfig};

const FIXTURE: &str = include_str!("fixtures/json_replies.txt");

/// One task's fields, shared by the `predict` and `decide_batch` lines.
macro_rules! task {
    () => {
        r#"{"dcomp_sun":30.0,"t_paragon":6.0,"to_backend":[{"messages":10,"words":2000},{"messages":1,"words":4}],"from_backend":[{"messages":1,"words":1000}]}"#
    };
}

const LINES: &[&str] = &[
    // Two machines; m1's report carries a real communication fraction.
    r#"{"kind":"load_report","machine":"m0","at":0.0,"load":2.0,"comm_frac":-1.0}"#,
    r#"{"kind":"load_report","machine":"m0","at":1.0,"load":3.0,"comm_frac":-1.0}"#,
    r#"{"kind":"load_report","machine":"m1","at":0.5,"load":1.0,"comm_frac":0.25}"#,
    // Cold, then warm: `cache_hit` flips.
    concat!(r#"{"kind":"predict","machine":"m0","now":1.5,"task":"#, task!(), r#","j_words":500}"#),
    concat!(
        r#"{"kind":"predict","machine":"m0","now":1.75,"task":"#,
        task!(),
        r#","j_words":500}"#
    ),
    concat!(
        r#"{"kind":"decide_batch","machine":"m1","now":1.0,"tasks":["#,
        task!(),
        ",",
        task!(),
        r#"],"j_words":1000}"#
    ),
    r#"{"kind":"rank","machine":"m0","now":3.5,"workflow":{"tasks":[{"name":"A","exec":[12.0,18.0],"comm_to_next":{"n":2,"v":[0.0,7.0,8.0,0.0]}},{"name":"B","exec":[4.0,30.0],"comm_to_next":null}]},"front_end":0,"j_words":500,"limit":2}"#,
    // A machine nobody reported: a stale dedicated answer.
    concat!(
        r#"{"kind":"predict","machine":"ghost","now":2.0,"task":"#,
        task!(),
        r#","j_words":500}"#
    ),
    // Escapes in the machine name survive into the reply.
    r#"{"kind":"load_report","machine":"we\"ird\\name","at":0.0,"load":1.0,"comm_frac":-1.0}"#,
    // Fields in any order, whitespace around every token.
    r#" { "at" : 2.5 , "machine" : "m1" , "comm_frac" : -1.0 , "load" : 3.0 , "kind" : "load_report" } "#,
    // Malformed or invalid requests: error replies.
    r#"{"kind":"load_report","machine":"m0","at":3.0,"load":1.0,"comm_frac":-1.0} x"#,
    "{}",
    r#"{"kind":"teleport"}"#,
    r#"{"kind":"load_report","machine":"m0","at":-3.0,"load":1.0,"comm_frac":-1.0}"#,
    r#"{"kind":"shutdown"}"#,
];

#[test]
fn json_replies_match_the_golden_fixture() {
    let service = Service::with_default_predictor(ServiceConfig::default());
    let mut affinity = Affinity::new();
    let mut out = String::new();
    let mut stops = Vec::new();
    for line in LINES {
        stops.push(respond_line(&service, line, &mut out, &mut affinity));
    }
    assert_eq!(out.lines().count(), LINES.len(), "one reply line per request");
    assert_eq!(stops.iter().filter(|&&s| s).count(), 1, "only shutdown stops");
    assert_eq!(stops.last(), Some(&true));
    for (i, (got, want)) in out.lines().zip(FIXTURE.lines()).enumerate() {
        assert_eq!(got, want, "reply {i} to {}", LINES[i]);
    }
    assert_eq!(out, FIXTURE, "reply bytes must match the fixture exactly");
}
