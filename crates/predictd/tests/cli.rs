//! The daemon binary's command line: `--engine evented` is still
//! accepted (and changes nothing), `--engine pool` is refused because
//! the pooled engine is gone, and a non-IPv4 listen address is refused
//! by name.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use predictd::proto::{Request, Response};
use predictd::Client;

fn predictd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_predictd"))
}

#[test]
fn engine_evented_is_accepted_as_a_no_op() {
    let mut child = predictd()
        .args(["--listen", "127.0.0.1:0", "--engine", "evented", "--workers", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn predictd");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("announcement");
    let addr = line
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected announcement {line:?}"));
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.request(&Request::Shutdown).expect("shutdown"), Response::Ok);
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "{status:?}");
}

#[test]
fn engine_pool_is_refused_with_exit_2() {
    let out = predictd()
        .args(["--listen", "127.0.0.1:0", "--engine", "pool"])
        .output()
        .expect("run predictd");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("pooled engine was removed"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may be announced: {:?}", out.stdout);
}

#[test]
fn ipv6_listen_address_is_refused_by_name() {
    let out = predictd().args(["--listen", "[::1]:0"]).output().expect("run predictd");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("IPv4"), "{stderr}");
}
