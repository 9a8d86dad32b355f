//! Broken framing and refused handshakes, on raw sockets: the server and
//! the router must both answer each case with a decodable typed `Error`
//! and then close the connection — never a silent close, never a hang.
//!
//! The cases are an over-cap length prefix, a frame shorter than its
//! request-id header, a first frame that is not a `Hello`, and a `Hello`
//! offering only protocol version 1.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use eclipse_core::exec::ExecutionContext;
use eclipse_router::router::{Router, RouterConfig};
use eclipse_serve::protocol::{
    read_frame, write_frame, FrameHeader, Request, Response, MAX_FRAME_LEN, MAX_PROTOCOL_VERSION,
};
use eclipse_serve::server::Server;

/// Sends a valid `Hello` and checks the bare `HelloAck`.
fn greet(stream: &mut TcpStream) {
    let hello = Request::Hello {
        max_version: MAX_PROTOCOL_VERSION,
        pipe_size: 4,
    };
    write_frame(stream, &hello.encode()).unwrap();
    let ack = read_frame(stream).unwrap().expect("HelloAck frame");
    assert!(matches!(
        Response::decode(&ack).unwrap(),
        Response::HelloAck { version: 2, .. }
    ));
}

/// Runs one case against `addr`: `send` writes the offending bytes and
/// says whether the handshake completed first (so the error carries a
/// request-id header).  Asserts a typed `Error` reply followed by EOF.
fn expect_error_then_eof(addr: SocketAddr, case: &str, send: impl FnOnce(&mut TcpStream) -> bool) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let greeted = send(&mut stream);
    stream.flush().unwrap();
    let payload = read_frame(&mut stream)
        .unwrap_or_else(|e| panic!("{case}: reading the reply failed: {e}"))
        .unwrap_or_else(|| panic!("{case}: connection closed without a reply"));
    let body = if greeted {
        let (header, body) = FrameHeader::split(&payload).unwrap();
        assert_eq!(header.request_id, 0, "{case}");
        body
    } else {
        &payload[..]
    };
    match Response::decode(body) {
        Ok(Response::Error(message)) => assert!(!message.is_empty(), "{case}"),
        other => panic!("{case}: expected a typed Error, got {other:?}"),
    }
    assert!(
        matches!(read_frame(&mut stream), Ok(None)),
        "{case}: the connection must close after the error"
    );
}

fn check_all_cases(addr: SocketAddr) {
    expect_error_then_eof(addr, "over-cap length prefix", |s| {
        s.write_all(&(MAX_FRAME_LEN + 1).to_le_bytes()).unwrap();
        false
    });
    expect_error_then_eof(addr, "frame shorter than its header", |s| {
        greet(s);
        write_frame(s, &[0u8; 5]).unwrap();
        true
    });
    expect_error_then_eof(addr, "non-Hello first frame", |s| {
        write_frame(s, &Request::Ping.encode()).unwrap();
        false
    });
    expect_error_then_eof(addr, "Hello offering version 1", |s| {
        let hello = Request::Hello {
            max_version: 1,
            pipe_size: 4,
        };
        write_frame(s, &hello.encode()).unwrap();
        false
    });
}

#[test]
fn server_answers_broken_framing_with_a_typed_error_then_eof() {
    let server = Server::bind("127.0.0.1:0", ExecutionContext::serial())
        .unwrap()
        .spawn()
        .unwrap();
    check_all_cases(server.addr());
    server.shutdown();
}

#[test]
fn router_answers_broken_framing_with_a_typed_error_then_eof() {
    let backend = Server::bind("127.0.0.1:0", ExecutionContext::serial())
        .unwrap()
        .spawn()
        .unwrap();
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig::new([backend.addr().to_string()]),
    )
    .unwrap()
    .spawn()
    .unwrap();
    check_all_cases(router.addr());
    router.shutdown();
    backend.shutdown();
}
