//! The request edge every transport shares (`proto::serve`): a request's
//! trace id and deadline come from its header fields or, without them, from
//! the `trace_id` / `deadline_ms` fields of its JSON payload, and a client
//! trace id longer than `proto::MAX_TRACE_ID_LEN` bytes is refused in the
//! request's own dialect without costing the connection.
#![cfg(unix)]

use pcservice::daemon::{connect, Daemon, DaemonConfig};
use pcservice::{proto, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

/// A daemon on a unix socket and an ephemeral HTTP port.
fn start(
    tag: &str,
) -> (
    PathBuf,
    String,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let socket =
        std::env::temp_dir().join(format!("pcservice-edge-{tag}-{}.sock", std::process::id()));
    let mut config = DaemonConfig::new(&socket);
    config.http_addr = Some("127.0.0.1:0".to_string());
    config.idle_timeout = Duration::from_secs(10);
    let daemon = Daemon::bind(config).expect("bind");
    let addr = daemon.http_addr().expect("http bound").to_string();
    (socket, addr, std::thread::spawn(move || daemon.run()))
}

/// Raw frames over one unix connection.
struct Frames {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Frames {
    fn open(socket: &PathBuf) -> Frames {
        let writer = UnixStream::connect(socket).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Frames { reader, writer }
    }

    /// Sends one frame in dialect `version` and reads its reply.
    fn send(&mut self, version: u64, payload: &str) -> Json {
        write!(self.writer, "pcp{version} {}\n{payload}\n", payload.len()).expect("send");
        let (tag, body) = proto::read_frame_raw(&mut self.reader).expect("reply frame");
        assert_eq!(tag, version, "replies keep the request's dialect");
        Json::parse(&body).expect("json reply")
    }
}

/// Raw HTTP/1.1 requests over one keep-alive connection.
struct Http {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Http {
    fn open(addr: &str) -> Http {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Http { reader, writer }
    }

    /// One request with the given extra headers; returns status and body.
    fn send(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> (u16, Json) {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        write!(self.writer, "{head}\r\n{body}").expect("send");
        let mut status = String::new();
        self.reader.read_line(&mut status).expect("status line");
        let status: u16 = status
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status");
        let mut len = 0;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("header");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(value) = line.strip_prefix("Content-Length: ") {
                len = value.parse().expect("length");
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body).expect("body");
        let body = String::from_utf8(body).expect("utf-8");
        (status, Json::parse(body.trim_end()).expect("json body"))
    }
}

fn text<'a>(value: &'a Json, path: &[&str]) -> Option<&'a str> {
    path.iter()
        .try_fold(value, |node, key| node.get(key))
        .and_then(Json::as_str)
}

const PROBE: &str = r#"{"op":"solve","target":{"cotree":"(j a b c)"},"params":{"kind":"full_cover"},"trace_id":"env-trace-1","deadline_ms":0}"#;

#[test]
fn body_fields_carry_the_trace_id_and_deadline_on_every_transport() {
    let (socket, addr, server) = start("fields");
    let mut frames = Frames::open(&socket);
    let mut http = Http::open(&addr);

    // The same envelope bytes as a `pcp2` frame and as a `/v2/query` body.
    let framed = frames.send(2, PROBE);
    let (status, posted) = http.send("POST", "/v2/query", &[], PROBE);
    assert_eq!(status, 200);
    for reply in [&framed, &posted] {
        assert_eq!(text(reply, &["trace_id"]), Some("env-trace-1"), "{reply}");
        assert_eq!(
            text(reply, &["result", "error", "code"]),
            Some("deadline_exceeded"),
            "{reply}"
        );
    }

    // A `/v1/solve` body is a `solve` frame's payload: its fields count too.
    let solve =
        r#"{"kind":"full_cover","cotree":"(j a b c)","trace_id":"env-trace-2","deadline_ms":0}"#;
    let (status, reply) = http.send("POST", "/v1/solve", &[], solve);
    assert_eq!(status, 200);
    assert_eq!(text(&reply, &["trace_id"]), Some("env-trace-2"), "{reply}");
    assert_eq!(
        text(&reply, &["response", "error", "code"]),
        Some("deadline_exceeded"),
        "{reply}"
    );

    // The headers win over the body: the header's id is echoed and its
    // generous deadline lets the job run.
    let headers = [("X-Request-Id", "hdr-1"), ("X-Deadline-Ms", "60000")];
    let (status, reply) = http.send("POST", "/v2/query", &headers, PROBE);
    assert_eq!(status, 200);
    assert_eq!(text(&reply, &["trace_id"]), Some("hdr-1"), "{reply}");
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{reply}"
    );
    assert_eq!(
        reply
            .get("result")
            .and_then(|r| r.get("ok"))
            .and_then(Json::as_bool),
        Some(true),
        "{reply}"
    );

    drop((frames, http));
    connect(&socket)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    server.join().expect("daemon thread").expect("clean exit");
}

#[test]
fn trace_ids_are_capped_at_the_edge_on_every_transport() {
    assert_eq!(proto::MAX_TRACE_ID_LEN, 256);
    let fits = "f".repeat(256);
    let long = "L".repeat(257);
    let (socket, addr, server) = start("cap");
    let mut frames = Frames::open(&socket);
    let mut http = Http::open(&addr);
    let synthesized =
        |reply: &Json| text(reply, &["trace_id"]).is_some_and(|id| id.starts_with("pc-"));
    let solve_frame = |id: &str| {
        format!(r#"{{"type":"solve","kind":"full_cover","cotree":"(j a b)","trace_id":"{id}"}}"#)
    };
    let envelope = |id: &str| {
        format!(
            r#"{{"op":"solve","target":{{"cotree":"(j a b)"}},"params":{{"kind":"full_cover"}},"trace_id":"{id}"}}"#
        )
    };

    // pcp1: a 256-byte id is echoed; a 257-byte one is a bad message under
    // a synthesized id; the connection keeps serving.
    let reply = frames.send(1, &solve_frame(&fits));
    assert_eq!(text(&reply, &["trace_id"]), Some(fits.as_str()));
    let reply = frames.send(1, &solve_frame(&long));
    assert_eq!(text(&reply, &["type"]), Some("error"), "{reply}");
    assert_eq!(text(&reply, &["code"]), Some("bad_message"), "{reply}");
    assert!(synthesized(&reply), "{reply}");
    let reply = frames.send(1, r#"{"type":"stats"}"#);
    assert_eq!(text(&reply, &["type"]), Some("stats"));

    // pcp2: an in-band `bad_request` envelope.
    let reply = frames.send(2, &envelope(&fits));
    assert_eq!(text(&reply, &["trace_id"]), Some(fits.as_str()));
    let reply = frames.send(2, &envelope(&long));
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(false),
        "{reply}"
    );
    assert_eq!(
        text(&reply, &["error", "code"]),
        Some("bad_request"),
        "{reply}"
    );
    assert!(synthesized(&reply), "{reply}");
    let reply = frames.send(2, r#"{"op":"stats"}"#);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));

    // HTTP `/v1`: a 400 `bad_request`, from the header or from the body.
    let solve = r#"{"kind":"full_cover","cotree":"(j a b)"}"#;
    let (status, reply) = http.send("POST", "/v1/solve", &[("X-Request-Id", &fits)], solve);
    assert_eq!(status, 200);
    assert_eq!(text(&reply, &["trace_id"]), Some(fits.as_str()));
    let (status, reply) = http.send("POST", "/v1/solve", &[("X-Request-Id", &long)], solve);
    assert_eq!(status, 400);
    assert_eq!(text(&reply, &["code"]), Some("bad_request"), "{reply}");
    assert!(synthesized(&reply), "{reply}");
    let body = solve_frame(&long);
    let (status, reply) = http.send("POST", "/v1/solve", &[], &body);
    assert_eq!(status, 400);
    assert!(synthesized(&reply), "{reply}");
    let (status, _) = http.send("GET", "/v1/stats", &[("X-Request-Id", &long)], "");
    assert_eq!(status, 400);

    // HTTP `/v2/query`: the in-band envelope, status 200.
    let (status, reply) = http.send(
        "POST",
        "/v2/query",
        &[("X-Request-Id", &long)],
        &envelope("x"),
    );
    assert_eq!(status, 200);
    assert_eq!(
        text(&reply, &["error", "code"]),
        Some("bad_request"),
        "{reply}"
    );
    assert!(synthesized(&reply), "{reply}");
    let (status, reply) = http.send("GET", "/v1/stats", &[], "");
    assert_eq!(status, 200, "the connection keeps serving: {reply}");

    // No refused id reached the flight recorder; the accepted one did.
    let mut client = connect(&socket).expect("connect");
    let index = client.trace(None, false).expect("trace index");
    let Some(Json::Arr(summaries)) = index.get("traces") else {
        panic!("no summaries: {index}");
    };
    let ids: Vec<&str> = summaries
        .iter()
        .filter_map(|s| text(s, &["trace_id"]))
        .collect();
    assert!(ids.contains(&fits.as_str()), "{ids:?}");
    assert!(!ids.contains(&long.as_str()), "{ids:?}");

    drop((frames, http));
    client.shutdown().expect("shutdown");
    server.join().expect("daemon thread").expect("clean exit");
}
