//! The client's reply caps: a peer that streams bytes without ever
//! sending a newline is cut off at `MAX_REPLY_FRAME_BYTES`, with a
//! protocol error, instead of growing the reply buffer until it stops.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::thread;

use predictd::client::MAX_REPLY_FRAME_BYTES;
use predictd::{Client, ClientError};

#[test]
fn reply_line_without_a_newline_is_capped() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let peer = thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut request = String::new();
        BufReader::new(stream.try_clone().expect("clone")).read_line(&mut request).expect("read");
        let flood = vec![b'a'; MAX_REPLY_FRAME_BYTES + 1024];
        // The client hangs up once the cap is hit; a failed write is
        // the expected end of the flood.
        let _ = (&stream).write_all(&flood);
    });
    let mut client = Client::connect(addr).expect("connect");
    let err = client.request_raw("{\"kind\":\"stats\"}").expect_err("over-long reply line");
    drop(client);
    peer.join().expect("peer thread");
    let ClientError::Protocol(message) = &err else { panic!("want a protocol error, got {err:?}") };
    assert!(message.contains(&MAX_REPLY_FRAME_BYTES.to_string()), "{message}");
}
