//! The reply cap on every transport and dialect: a reply whose body would
//! exceed `MAX_FRAME_LEN` is refused before any byte of it is written, with
//! a `frame_too_large` error in the request's own dialect (HTTP status
//! 500), booked once under its transport in `pc_oversize_rejects_total`,
//! and the connection keeps serving.
#![cfg(unix)]

use pcservice::daemon::{Daemon, DaemonConfig};
use pcservice::{proto, Json, Metric, Transport, MAX_FRAME_LEN};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Leaves of the shared term, and recognize jobs on it: each job's answer
/// carries the whole term (~0.9 MB), so the batch reply passes the cap.
const LEAVES: usize = 1 << 17;
const JOBS: usize = 20;

/// The batch fields: one shared union of two-leaf joins, `JOBS` recognize
/// jobs against it.
fn batch_fields() -> String {
    let joins: Vec<String> = (0..LEAVES / 2)
        .map(|i| format!("(j {} {})", 2 * i, 2 * i + 1))
        .collect();
    let term = format!("(u {})", joins.join(" "));
    let jobs = vec![r#"{"kind":"recognize"}"#; JOBS].join(",");
    format!(r#""shared":{{"cotree":"{term}"}},"requests":[{jobs}]"#)
}

/// Sends one frame in dialect `version` on `stream` and reads its reply.
fn frame(stream: &mut BufReader<UnixStream>, version: u64, payload: &str) -> Json {
    let writer = stream.get_mut();
    write!(writer, "pcp{version} {}\n{payload}\n", payload.len()).expect("send");
    let (tag, body) = proto::read_frame_raw(stream).expect("reply frame");
    assert_eq!(tag, version, "replies keep the request's dialect");
    Json::parse(&body).expect("json reply")
}

/// One HTTP/1.1 request on a keep-alive `stream`; returns status and body.
fn http(stream: &mut BufReader<TcpStream>, method: &str, path: &str, body: &str) -> (u16, Json) {
    let writer = stream.get_mut();
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut line = String::new();
    stream.read_line(&mut line).expect("status line");
    let status = line.split(' ').nth(1).and_then(|s| s.parse().ok());
    let mut len = 0;
    loop {
        line.clear();
        stream.read_line(&mut line).expect("header");
        match line.trim_end() {
            "" => break,
            header => {
                if let Some(value) = header.strip_prefix("Content-Length: ") {
                    len = value.parse().expect("length");
                }
            }
        }
    }
    let mut bytes = vec![0u8; len];
    stream.read_exact(&mut bytes).expect("body");
    let text = String::from_utf8(bytes).expect("utf-8");
    let body = Json::parse(text.trim_end()).expect("json body");
    (status.expect("status"), body)
}

fn text<'a>(value: &'a Json, path: &[&str]) -> Option<&'a str> {
    path.iter()
        .try_fold(value, |node, key| node.get(key))
        .and_then(Json::as_str)
}

/// Checks a refusal: `frame_too_large` under `path`, with the one message.
fn assert_refused(reply: &Json, path: &[&str], what: &str) {
    let code = [path, &["code"]].concat();
    let message = [path, &["message"]].concat();
    assert_eq!(
        text(reply, &code),
        Some("frame_too_large"),
        "{what}: {reply}"
    );
    let message = text(reply, &message).unwrap_or_default();
    let cap = format!("exceeds the {MAX_FRAME_LEN} byte cap (split the batch)");
    assert!(
        message.starts_with("reply of ") && message.ends_with(&cap),
        "{what}: {message}"
    );
}

#[test]
fn oversized_replies_are_refused_in_dialect_and_booked_once_per_transport() {
    let socket = std::env::temp_dir().join(format!("pcservice-cap-{}.sock", std::process::id()));
    let mut config = DaemonConfig::new(&socket);
    config.http_addr = Some("127.0.0.1:0".to_string());
    config.idle_timeout = Duration::from_secs(30);
    let daemon = Daemon::bind(config).expect("bind");
    let addr = daemon.http_addr().expect("http bound").to_string();
    let engine = daemon.engine();
    let server = std::thread::spawn(move || daemon.run());
    let rejects = || {
        engine
            .metrics_report()
            .values(Metric::OversizeRejects)
            .to_vec()
    };
    let fields = batch_fields();
    assert!(fields.len() < MAX_FRAME_LEN, "the request itself fits");
    let batch = format!("{{{fields}}}");
    let envelope = format!(r#"{{"op":"batch","params":{{{fields}}}}}"#);

    let mut frames = BufReader::new(UnixStream::connect(&socket).expect("connect"));
    let mut posts = BufReader::new(TcpStream::connect(&addr).expect("connect"));
    let mut booked = rejects();
    let mut refused_once = |transport: Transport, what: &str| {
        let now = rejects();
        booked[transport as usize] += 1;
        assert_eq!(now, booked, "{what}: one reject booked under its transport");
    };

    let reply = frame(&mut frames, 1, &format!(r#"{{"type":"batch",{fields}}}"#));
    assert_eq!(text(&reply, &["type"]), Some("error"), "pcp1: {reply}");
    assert_refused(&reply, &[], "pcp1 batch");
    refused_once(Transport::Framed, "pcp1 batch");
    let reply = frame(&mut frames, 2, &envelope);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_refused(&reply, &["error"], "pcp2 batch");
    refused_once(Transport::Framed, "pcp2 batch");
    let stats = frame(&mut frames, 1, r#"{"type":"stats"}"#);
    assert_eq!(text(&stats, &["type"]), Some("stats"), "{stats}");

    let (status, reply) = http(&mut posts, "POST", "/v1/batch", &batch);
    assert_eq!(status, 500);
    assert_eq!(text(&reply, &["type"]), Some("error"), "/v1/batch: {reply}");
    assert_refused(&reply, &[], "POST /v1/batch");
    refused_once(Transport::Http, "POST /v1/batch");
    let (status, reply) = http(&mut posts, "POST", "/v2/query", &envelope);
    assert_eq!(status, 500);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_refused(&reply, &["error"], "POST /v2/query");
    refused_once(Transport::Http, "POST /v2/query");
    let (status, stats) = http(&mut posts, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    assert_eq!(text(&stats, &["type"]), Some("stats"), "{stats}");

    let (status, _) = http(&mut posts, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    drop((frames, posts));
    server.join().expect("daemon thread").expect("clean exit");
}
