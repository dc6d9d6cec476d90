//! End-to-end flight recorder: one daemon serving both transports under
//! fault injection, verifying that a stalled (slow) request is captured
//! with its pipeline stage spans, that the Chrome trace-event export is
//! well-formed, and that accept-time overload rejections carry a trace id
//! in both transport dialects.

#![cfg(unix)]

use pcservice::{Daemon, DaemonConfig, FaultSpec, Json, QueryKind, QueryRequest};
use pcservice::{GraphSpec, ProtoError};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn temp_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pcservice-flightrec-{tag}-{}.sock",
        std::process::id()
    ))
}

/// One raw HTTP/1.1 round trip: returns (status line, headers, body).
fn raw_http(addr: &str, request: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("tcp connect");
    stream.write_all(request.as_bytes()).expect("send");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read reply");
    let reply = String::from_utf8(reply).expect("utf-8 reply");
    let (head, body) = reply.split_once("\r\n\r\n").expect("header terminator");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_string(), headers.to_string(), body.to_string())
}

/// Connects until the daemon has a free slot again (used after dropping a
/// held connection, whose handler needs a moment to deregister).
fn connect_retrying(socket: &Path) -> pcservice::client::Client {
    for _ in 0..100 {
        if let Ok(client) = pcservice::daemon::connect(socket) {
            return client;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("daemon never freed a connection slot");
}

/// The spans of a trace object, as (name, json) pairs.
fn span_names(trace: &Json) -> Vec<String> {
    match trace.get("spans") {
        Some(Json::Arr(spans)) => spans
            .iter()
            .filter_map(|span| span.get("name").and_then(Json::as_str))
            .map(str::to_string)
            .collect(),
        _ => Vec::new(),
    }
}

#[test]
fn stalled_requests_are_captured_with_stage_spans_on_both_transports() {
    let socket = temp_socket("spans");
    let mut config = DaemonConfig::new(&socket);
    config.http_addr = Some("127.0.0.1:0".to_string());
    config.idle_timeout = Duration::from_secs(10);
    config.engine.threads = 1;
    // Every frame stalls 20 ms before dispatch — the PC_FAULTS harness's
    // frame_stall hook — so each request is unambiguously "slow" relative
    // to the sub-millisecond solve itself.
    config.faults = FaultSpec::parse("frame_stall_ms=20,seed=7").unwrap();
    let daemon = Daemon::bind(config).expect("bind");
    let http_addr = daemon.http_addr().expect("http bound").to_string();
    let handle = std::thread::spawn(move || daemon.run());

    // Framed transport: solve, then fetch the trace the solve left behind
    // with the `trace` verb.
    let mut unix_client = pcservice::daemon::connect(&socket).expect("unix connect");
    let request = QueryRequest::new(
        QueryKind::FullCover,
        GraphSpec::CotreeTerm("(j (u a b) (u c d))".to_string()),
    );
    let response = unix_client.solve(&request).expect("framed solve");
    let framed_trace_id = response
        .get("meta")
        .and_then(|m| m.get("trace_id"))
        .and_then(Json::as_str)
        .expect("framed solve carries a trace id")
        .to_string();
    let trace = unix_client
        .trace(Some(&framed_trace_id), false)
        .expect("framed trace fetch");
    assert_eq!(
        trace.get("trace_id").and_then(Json::as_str),
        Some(framed_trace_id.as_str())
    );
    let names = span_names(&trace);
    assert!(
        names.iter().any(|name| name == "stage:solve"),
        "stage spans recorded: {names:?}"
    );
    assert!(
        names.iter().any(|name| name == "cache:lookup"),
        "cache span recorded: {names:?}"
    );

    // HTTP transport: the client-supplied X-Request-Id names the trace.
    let body = r#"{"kind":"full_cover","cotree":"(j (u a b) (u c d))"}"#;
    let (status, _, _) = raw_http(
        &http_addr,
        &format!(
            "POST /v1/solve HTTP/1.1\r\nHost: t\r\nX-Request-Id: rec-http\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(status.contains("200"), "{status}");
    let (status, _, reply) = raw_http(
        &http_addr,
        "GET /v1/trace/rec-http HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert!(status.contains("200"), "{status}");
    let reply = Json::parse(reply.trim_end()).expect("json reply");
    let trace = reply.get("trace").expect("trace payload");
    let names = span_names(trace);
    assert!(
        names.iter().any(|name| name.starts_with("stage:")),
        "stage spans over http: {names:?}"
    );

    // The Chrome export is a bare trace-event object with the keys the
    // viewers require on every event.
    let (status, _, chrome) = raw_http(
        &http_addr,
        "GET /v1/trace/rec-http?format=chrome HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert!(status.contains("200"), "{status}");
    let chrome = Json::parse(chrome.trim_end()).expect("chrome export is json");
    let Some(Json::Arr(events)) = chrome.get("traceEvents") else {
        panic!("missing traceEvents: {chrome}");
    };
    assert!(!events.is_empty());
    for event in events {
        for key in ["ph", "ts", "dur", "name"] {
            assert!(event.get(key).is_some(), "event missing {key}: {event}");
        }
    }

    // Both requests are retained in the index (default sampling keeps
    // everything at this rate).
    let index = unix_client.trace(None, false).expect("trace index");
    assert!(
        index.get("retained").and_then(Json::as_u64) >= Some(2),
        "{index}"
    );

    // A miss answers 404 over HTTP and a typed error over the frame.
    let (status, _, _) = raw_http(
        &http_addr,
        "GET /v1/trace/absent HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert!(status.contains("404"), "{status}");
    match unix_client.trace(Some("absent"), false) {
        Err(ProtoError::Remote { code, .. }) => assert_eq!(code, "trace_not_found"),
        other => panic!("expected trace_not_found, got {other:?}"),
    }

    unix_client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("clean exit");
}

#[test]
fn accept_time_rejections_carry_trace_ids_on_both_transports() {
    let socket = temp_socket("reject");
    let mut config = DaemonConfig::new(&socket);
    config.http_addr = Some("127.0.0.1:0".to_string());
    config.idle_timeout = Duration::from_secs(10);
    config.engine.threads = 1;
    config.max_connections = 1;
    let daemon = Daemon::bind(config).expect("bind");
    let http_addr = daemon.http_addr().expect("http bound").to_string();
    let handle = std::thread::spawn(move || daemon.run());

    // Framed: a held connection fills the only slot; the next connect is
    // answered with one overloaded goodbye frame that must carry a
    // synthesized trace id (no request was ever read, so the server had
    // to mint one).
    let held = pcservice::daemon::connect(&socket).expect("first connection admitted");
    let raw = std::os::unix::net::UnixStream::connect(&socket).expect("raw connect");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(raw);
    let goodbye = pcservice::proto::read_frame(&mut reader).expect("goodbye frame");
    assert_eq!(
        goodbye.get("code").and_then(Json::as_str),
        Some("overloaded"),
        "{goodbye}"
    );
    assert!(
        goodbye
            .get("trace_id")
            .and_then(Json::as_str)
            .is_some_and(|id| id.starts_with("pc-")),
        "framed rejection names a trace: {goodbye}"
    );
    drop(reader);

    // HTTP: same cap breach, 503 dialect — trace id in the error body and
    // echoed as the X-Request-Id header. The goodbye is written at accept
    // time, before any request: just connect and read (writing a request
    // the server will never read risks an RST racing the response).
    let parked = TcpStream::connect(&http_addr).expect("parked http connection");
    let mut rejected = TcpStream::connect(&http_addr).expect("rejected http connection");
    rejected
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reply = Vec::new();
    rejected.read_to_end(&mut reply).expect("read goodbye");
    let reply = String::from_utf8(reply).expect("utf-8 goodbye");
    let (head, body) = reply.split_once("\r\n\r\n").expect("header terminator");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    assert!(status.contains("503"), "{status}");
    let body = Json::parse(body.trim_end()).expect("json body");
    let trace_id = body
        .get("trace_id")
        .and_then(Json::as_str)
        .expect("http rejection names a trace")
        .to_string();
    assert!(trace_id.starts_with("pc-"), "{body}");
    assert!(
        headers.contains(&format!("X-Request-Id: {trace_id}")),
        "header echo: {headers}"
    );
    drop(parked);
    drop(held);

    let mut last = connect_retrying(&socket);
    last.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("clean exit");
}
