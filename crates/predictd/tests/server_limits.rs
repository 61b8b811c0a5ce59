//! Connection-hygiene coverage: the oversized-line cap answers with a
//! clean JSON error (connection survives), the stall timeout drops a
//! client stuck mid-request, and an idle connection with nothing
//! buffered outlives the stall timeout.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::thread;
use std::time::{Duration, Instant};

use predictd::proto::{Request, Response};
use predictd::{Client, Reactor, ServerConfig, Service, ServiceConfig};

fn spawn_daemon(cfg: ServerConfig) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
    let reactor = Reactor::bind("127.0.0.1:0", cfg).expect("bind loopback");
    let addr = reactor.local_addr();
    let handle = thread::spawn(move || {
        let service = Service::with_default_predictor(ServiceConfig::default());
        reactor.run(&service, &AtomicBool::new(false)).expect("reactor run");
    });
    (addr, handle)
}

#[test]
fn oversized_line_gets_a_json_error_and_the_connection_survives() {
    let (addr, handle) =
        spawn_daemon(ServerConfig { workers: 2, max_line_bytes: 1024, ..ServerConfig::default() });
    let mut conn = TcpStream::connect(addr).expect("connect");
    // 64 KiB of garbage on one line: far past the cap, streamed in
    // chunks so the server must discard as it reads.
    let big = vec![b'x'; 64 * 1024];
    conn.write_all(&big).expect("write oversized line");
    conn.write_all(b"\n").expect("terminate line");
    conn.flush().expect("flush");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("error reply");
    assert!(reply.contains("\"kind\":\"error\""), "want clean JSON error, got {reply:?}");
    assert!(reply.contains("1024"), "error should name the cap: {reply:?}");

    // The same connection keeps working afterwards.
    conn.write_all(b"{\"kind\":\"stats\"}\n").expect("follow-up request");
    reply.clear();
    reader.read_line(&mut reply).expect("stats reply");
    assert!(reply.contains("\"kind\":\"stats\""), "connection must survive the cap: {reply:?}");

    // Non-UTF-8 bytes also get an error, not a disconnect.
    conn.write_all(&[0xff, 0xfe, b'\n']).expect("binary junk");
    reply.clear();
    reader.read_line(&mut reply).expect("utf-8 error reply");
    assert!(reply.contains("\"kind\":\"error\""), "{reply:?}");

    let mut client = Client::connect(addr).expect("second client");
    client.request(&Request::Shutdown).expect("ok");
    drop(conn);
    handle.join().expect("daemon exits");
}

#[test]
fn stuck_client_is_dropped_by_the_read_timeout_and_frees_its_worker() {
    // One worker: a stuck client would starve everyone without the
    // timeout.
    let (addr, handle) = spawn_daemon(ServerConfig {
        workers: 1,
        stall_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    });
    let mut stuck = TcpStream::connect(addr).expect("stuck client connects");
    // Send half a line and then go silent: the server must not wait on
    // the rest forever.
    stuck.write_all(b"{\"kind\":\"sta").expect("partial line");
    stuck.flush().expect("flush partial");

    let started = Instant::now();
    let mut client = Client::connect(addr).expect("well-behaved client");
    let resp = client.request(&Request::Stats).expect("stats despite the stuck peer");
    let Response::Stats(_) = resp else { panic!("want stats, got {resp:?}") };
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the single worker must be freed by the read timeout, not pinned"
    );

    // The stuck connection was closed by the server.
    let mut probe = [0u8; 1];
    stuck.set_read_timeout(Some(Duration::from_secs(5))).expect("probe timeout");
    let n = stuck.read(&mut probe).expect("stuck connection sees EOF");
    assert_eq!(n, 0, "server must have dropped the stuck connection");

    client.request(&Request::Shutdown).expect("ok");
    handle.join().expect("daemon exits");
}

#[test]
fn idle_connection_with_nothing_buffered_outlives_the_stall_timeout() {
    let (addr, handle) = spawn_daemon(ServerConfig {
        workers: 1,
        stall_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let resp = client.request(&Request::Stats).expect("first stats");
    let Response::Stats(_) = resp else { panic!("want stats, got {resp:?}") };

    // Idle well past the stall timeout with nothing in flight: an idle
    // connection is not a stalled one, so it must still be served.
    thread::sleep(Duration::from_millis(600));
    let resp = client.request(&Request::Stats).expect("stats after idling");
    let Response::Stats(s) = resp else { panic!("want stats, got {resp:?}") };
    assert_eq!(s.requests.stats, 2, "the idle connection was served again");

    client.request(&Request::Shutdown).expect("ok");
    handle.join().expect("daemon exits");
}
