//! Pins the outer bytes of every v1 reply, on both transports, against the
//! golden transcript `golden/v1_wire.txt`.
//!
//! `cross_version_equivalence` compares only the payload *inside* each
//! reply and `cli_remote` compares CLI output, so neither notices a reply
//! whose tag moved, whose `trace_id` no longer follows the payload, or
//! whose HTTP `meta.api_version` marker slipped before the `trace_id`. This
//! test talks raw bytes to a daemon bound to a unix socket and an ephemeral
//! HTTP port and records every reply:
//!
//! * framed: the frame tag and the payload;
//! * HTTP: the status line, the `Content-Type`, `Allow`, `Deprecation` and
//!   `Retry-After` headers, and the body.
//!
//! Every request carries a fixed trace id (the frame's `trace_id` field or
//! `X-Request-Id`). Payloads are parsed and re-serialized by the crate's
//! own JSON codec, which keeps key order, after three normalizations:
//! `solve_us`, `total_us` and `uptime_secs` become 0, a synthesized
//! `pc-<16 hex>` id becomes `pc-<synthesized>`, and the `stats`, `metrics`,
//! `traces`, `trace` and `traceEvents` payloads are reduced to their
//! structure (key order kept, scalars blanked, arrays cut to their first
//! element). A Prometheus text body is pinned by its first line; the
//! telemetry golden files pin the rest.
//!
//! On a mismatch the actual transcript is written next to the test
//! binaries (`v1_wire.actual.txt` under cargo's target tmp dir).
#![cfg(unix)]

use pcservice::daemon::{Daemon, DaemonConfig};
use pcservice::{EngineConfig, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

const GOLDEN: &str = include_str!("golden/v1_wire.txt");

/// Top-level reply keys whose values are pinned by structure only.
const STRUCTURAL: [&str; 5] = ["stats", "metrics", "traces", "trace", "traceEvents"];

/// Response timing fields, zeroed wherever they appear.
const TIMING: [&str; 3] = ["solve_us", "total_us", "uptime_secs"];

/// `value` with every scalar blanked and every array cut to its first
/// element: what is left is the key order and the nesting.
fn shape(value: &Json) -> Json {
    match value {
        Json::Obj(fields) => Json::Obj(fields.iter().map(|(k, v)| (k.clone(), shape(v))).collect()),
        Json::Arr(items) => Json::Arr(items.iter().take(1).map(shape).collect()),
        Json::Num(_) => Json::num(0u64),
        Json::Str(_) => Json::str(""),
        Json::Bool(_) => Json::Bool(false),
        Json::Null => Json::Null,
    }
}

fn zero_timings(value: &Json) -> Json {
    match value {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(k, v)| match v {
                    Json::Num(_) if TIMING.contains(&k.as_str()) => (k.clone(), Json::num(0u64)),
                    _ => (k.clone(), zero_timings(v)),
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(zero_timings).collect()),
        other => other.clone(),
    }
}

/// Replaces each synthesized trace id (`pc-` and 16 hex digits).
fn mask_synthesized_ids(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find("pc-") {
        out.push_str(&rest[..at]);
        let tail = &rest[at + 3..];
        let hex = tail.bytes().take_while(u8::is_ascii_hexdigit).count();
        if hex == 16 {
            out.push_str("pc-<synthesized>");
            rest = &tail[16..];
        } else {
            out.push_str("pc-");
            rest = tail;
        }
    }
    out.push_str(rest);
    out
}

/// The normalized rendering of one JSON payload (see the module docs).
fn normalize(payload: &str) -> String {
    let Ok(value) = Json::parse(payload.trim_end()) else {
        return format!("(not JSON) {payload:?}");
    };
    let value = match zero_timings(&value) {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| {
                    let v = if STRUCTURAL.contains(&k.as_str()) {
                        shape(&v)
                    } else {
                        v
                    };
                    (k, v)
                })
                .collect(),
        ),
        other => other,
    };
    mask_synthesized_ids(&value.to_string())
}

/// One raw frame from `reader`: `Some((tag, payload))`, or `None` at EOF.
fn read_raw_frame<R: BufRead>(reader: &mut R) -> Option<(String, String)> {
    let mut header = String::new();
    if reader.read_line(&mut header).expect("frame header") == 0 {
        return None;
    }
    let header = header.strip_suffix('\n').expect("header newline");
    let (tag, len) = header.split_once(' ').expect("tag and length");
    let len: usize = len.parse().expect("numeric length");
    let mut body = vec![0u8; len + 1];
    reader.read_exact(&mut body).expect("frame payload");
    assert_eq!(body.pop(), Some(b'\n'), "frame terminator");
    Some((tag.to_string(), String::from_utf8(body).expect("UTF-8")))
}

/// Writes each frame as raw bytes on one fresh connection and records
/// every reply frame until the daemon has answered them all (or closed).
fn framed(out: &mut String, socket: &Path, title: &str, frames: &[(u64, &str)]) {
    out.push_str(&format!("### framed {title}\n"));
    let stream = UnixStream::connect(socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    for &(version, payload) in frames {
        out.push_str(&format!("> pcp{version} {payload}\n"));
        write!(writer, "pcp{version} {}\n{payload}\n", payload.len()).expect("send");
        writer.flush().expect("flush");
        match read_raw_frame(&mut reader) {
            Some((tag, reply)) => out.push_str(&format!("< {tag} {}\n", normalize(&reply))),
            None => {
                out.push_str("< EOF\n");
                return;
            }
        }
    }
    // A connection the daemon closes after its last reply (spent budget,
    // shutdown) reads EOF next; an open one would block, so only probe
    // the cases that expect it.
    if title.contains("budget") || title.contains("shutdown") {
        let mut rest = Vec::new();
        let closed = reader.read_to_end(&mut rest).is_ok() && rest.is_empty();
        out.push_str(if closed {
            "< EOF\n"
        } else {
            "< (still open)\n"
        });
    }
}

/// One HTTP request: method, target, optional body.
struct Req<'a> {
    method: &'a str,
    target: &'a str,
    body: Option<&'a str>,
}

const fn req<'a>(method: &'a str, target: &'a str) -> Req<'a> {
    Req {
        method,
        target,
        body: None,
    }
}

const fn post<'a>(target: &'a str, body: &'a str) -> Req<'a> {
    Req {
        method: "POST",
        target,
        body: Some(body),
    }
}

/// Sends each request as raw bytes on one fresh keep-alive connection
/// (the last one asks to close) and records each response.
fn http(out: &mut String, addr: &str, title: &str, trace: &str, requests: &[Req]) {
    out.push_str(&format!("### http {title}\n"));
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    for (i, request) in requests.iter().enumerate() {
        let connection = if i + 1 == requests.len() {
            "close"
        } else {
            "keep-alive"
        };
        let body = request.body.unwrap_or("");
        out.push_str(&format!("> {} {}", request.method, request.target));
        if request.body.is_some() {
            out.push_str(&format!(" {body}"));
        }
        out.push('\n');
        let mut head = format!(
            "{} {} HTTP/1.1\r\nHost: wire\r\nX-Request-Id: {trace}\r\nConnection: {connection}\r\n",
            request.method, request.target
        );
        if request.body.is_some() {
            head.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        write!(writer, "{head}\r\n{body}").expect("send");
        writer.flush().expect("flush");

        let mut status = String::new();
        if reader.read_line(&mut status).expect("status line") == 0 {
            out.push_str("< EOF\n");
            return;
        }
        out.push_str(&format!("< {}\n", status.trim_end()));
        let mut len = 0usize;
        let mut text = false;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("header");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            let (name, value) = line.split_once(':').expect("header field");
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => len = value.parse().expect("length"),
                "content-type" => text = value.starts_with("text/"),
                _ => {}
            }
            if ["content-type", "allow", "deprecation", "retry-after"]
                .contains(&name.to_ascii_lowercase().as_str())
            {
                out.push_str(&format!("< {line}\n"));
            }
        }
        if request.method == "HEAD" {
            out.push_str("< (no body)\n");
            continue;
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).expect("body");
        let body = String::from_utf8(body).expect("UTF-8 body");
        if text {
            let first = body.lines().next().unwrap_or("");
            out.push_str(&format!("< {first}\n< (text continues)\n"));
        } else {
            out.push_str(&format!("< {}\n", normalize(&body)));
        }
    }
}

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pcservice-v1wire-{tag}-{}.sock",
        std::process::id()
    ))
}

fn start(socket: &Path) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let mut config = DaemonConfig::new(socket);
    config.http_addr = Some("127.0.0.1:0".to_string());
    config.idle_timeout = Duration::from_secs(20);
    // Every case opens its own connection; the budget cases send a second
    // request on theirs.
    config.max_requests_per_conn = 1;
    config.engine = EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    };
    let daemon = Daemon::bind(config).expect("bind");
    let addr = daemon.http_addr().expect("http bound").to_string();
    (addr, std::thread::spawn(move || daemon.run()))
}

/// The whole transcript, in a fixed order (cache dispositions and the
/// retained traces depend on it).
fn transcript() -> String {
    let mut out = String::new();
    let socket = socket_path("a");
    let (addr, server) = start(&socket);
    let s = socket.as_path();
    let o = &mut out;

    framed(
        o,
        s,
        "hello proto 1",
        &[(1, r#"{"type":"hello","proto":1,"trace_id":"wf-hello"}"#)],
    );
    framed(
        o,
        s,
        "hello proto 99",
        &[(1, r#"{"type":"hello","proto":99,"trace_id":"wf-hello-99"}"#)],
    );
    framed(
        o,
        s,
        "solve answered",
        &[(
            1,
            r#"{"type":"solve","id":"s1","kind":"full_cover","cotree":"(u (j a b) c)","trace_id":"wf-solve"}"#,
        )],
    );
    framed(
        o,
        s,
        "solve P4 job failure",
        &[(
            1,
            r#"{"type":"solve","kind":"recognize","edge_list":"0 1\n1 2\n2 3\n","trace_id":"wf-p4"}"#,
        )],
    );
    framed(
        o,
        s,
        "solve without kind",
        &[(
            1,
            r#"{"type":"solve","cotree":"(j a b)","trace_id":"wf-nokind"}"#,
        )],
    );
    framed(
        o,
        s,
        "batch",
        &[(
            1,
            r#"{"type":"batch","shared":{"cotree":"(j a b c)"},"requests":[{"kind":"min_cover_size"},{"id":7,"kind":"hamiltonian_cycle"},{"kind":"full_cover","edge_list":"0 1\n1 2\n2 3\n"}],"trace_id":"wf-batch"}"#,
        )],
    );
    framed(
        o,
        s,
        "batch without requests",
        &[(1, r#"{"type":"batch","trace_id":"wf-batch-bad"}"#)],
    );
    framed(
        o,
        s,
        "stats",
        &[(1, r#"{"type":"stats","trace_id":"wf-stats"}"#)],
    );
    framed(
        o,
        s,
        "metrics",
        &[(1, r#"{"type":"metrics","trace_id":"wf-metrics"}"#)],
    );
    framed(
        o,
        s,
        "trace list",
        &[(1, r#"{"type":"trace","trace_id":"wf-trace-list"}"#)],
    );
    framed(
        o,
        s,
        "trace get",
        &[(
            1,
            r#"{"type":"trace","id":"wf-solve","trace_id":"wf-trace-get"}"#,
        )],
    );
    framed(
        o,
        s,
        "trace get chrome",
        &[(
            1,
            r#"{"type":"trace","id":"wf-solve","format":"chrome","trace_id":"wf-trace-chrome"}"#,
        )],
    );
    framed(
        o,
        s,
        "trace miss",
        &[(
            1,
            r#"{"type":"trace","id":"absent","trace_id":"wf-trace-miss"}"#,
        )],
    );
    framed(
        o,
        s,
        "snapshot unconfigured",
        &[(1, r#"{"type":"snapshot","trace_id":"wf-snapshot"}"#)],
    );
    framed(
        o,
        s,
        "unknown type",
        &[(1, r#"{"type":"launch","trace_id":"wf-unknown"}"#)],
    );
    framed(o, s, "non-JSON payload", &[(1, "not json!")]);
    framed(
        o,
        s,
        "pcp2 solve",
        &[(
            2,
            r#"{"op":"solve","target":{"cotree":"(u (j a b) c)"},"params":{"kind":"min_cover_size"},"trace_id":"wf-v2"}"#,
        )],
    );
    framed(o, s, "pcp2 non-JSON payload", &[(2, "not json!")]);
    framed(
        o,
        s,
        "budget shed",
        &[
            (1, r#"{"type":"stats","trace_id":"wf-budget-1"}"#),
            (
                1,
                r#"{"type":"solve","kind":"min_cover_size","cotree":"(j a b)","trace_id":"wf-budget-2"}"#,
            ),
        ],
    );

    let a = addr.as_str();
    let solve = r#"{"id":"h1","kind":"full_cover","cotree":"(u (j a b) c)"}"#;
    http(
        o,
        a,
        "solve answered",
        "wh-solve",
        &[post("/v1/solve", solve)],
    );
    http(
        o,
        a,
        "solve P4 job failure",
        "wh-p4",
        &[post(
            "/v1/solve",
            r#"{"kind":"recognize","edge_list":"0 1\n1 2\n2 3\n"}"#,
        )],
    );
    http(
        o,
        a,
        "solve bad JSON",
        "wh-bad-json",
        &[post("/v1/solve", "not json")],
    );
    http(
        o,
        a,
        "solve without kind",
        "wh-nokind",
        &[post("/v1/solve", r#"{"cotree":"(j a b)"}"#)],
    );
    http(
        o,
        a,
        "batch",
        "wh-batch",
        &[post(
            "/v1/batch",
            r#"{"shared":{"cotree":"(j a b c)"},"requests":[{"kind":"min_cover_size"},{"id":7,"kind":"hamiltonian_cycle"}]}"#,
        )],
    );
    http(
        o,
        a,
        "batch without requests",
        "wh-batch-bad",
        &[post("/v1/batch", "{}")],
    );
    http(
        o,
        a,
        "snapshot unconfigured",
        "wh-snapshot",
        &[req("POST", "/v1/snapshot")],
    );
    for (method, target) in [
        ("GET", "/healthz"),
        ("HEAD", "/healthz"),
        ("GET", "/v1/stats"),
        ("HEAD", "/v1/stats"),
        ("GET", "/v1/metrics"),
        ("HEAD", "/v1/metrics"),
        ("GET", "/v1/metrics?format=json"),
        ("GET", "/v1/trace"),
        ("HEAD", "/v1/trace"),
        ("GET", "/v1/trace/wh-solve"),
        ("HEAD", "/v1/trace/wh-solve"),
        ("GET", "/v1/trace/wh-solve?format=json"),
        ("GET", "/v1/trace/wh-solve?format=chrome"),
        ("GET", "/v1/trace/absent"),
        ("GET", "/v1/trace/absent?format=chrome"),
        ("GET", "/v1/trace/"),
        ("GET", "/v1/trace/a%zz"),
        ("PUT", "/healthz"),
        ("POST", "/v1/stats"),
        ("POST", "/v1/metrics"),
        ("DELETE", "/v1/trace"),
        ("POST", "/v1/trace/wh-solve"),
        ("GET", "/v1/solve"),
        ("HEAD", "/v1/solve"),
        ("GET", "/v1/batch"),
        ("GET", "/v1/snapshot"),
        ("GET", "/v1/shutdown"),
        ("GET", "/v2/query"),
        ("GET", "/nope"),
        ("GET", "/v1/nope"),
    ] {
        let title = format!("{method} {target}");
        http(o, a, &title, "wh-route", &[req(method, target)]);
    }
    http(
        o,
        a,
        "v2 query",
        "wh-v2",
        &[post(
            "/v2/query",
            r#"{"op":"solve","target":{"cotree":"(u (j a b) c)"},"params":{"kind":"min_cover_size"}}"#,
        )],
    );
    http(
        o,
        a,
        "v2 query bad JSON",
        "wh-v2-bad",
        &[post("/v2/query", "not json")],
    );
    http(
        o,
        a,
        "budget shed",
        "wh-budget",
        &[
            req("GET", "/v1/stats"),
            post(
                "/v1/solve",
                r#"{"kind":"min_cover_size","cotree":"(j a b)"}"#,
            ),
        ],
    );

    framed(
        o,
        s,
        "shutdown",
        &[(1, r#"{"type":"shutdown","trace_id":"wf-shutdown"}"#)],
    );
    server.join().expect("daemon thread").expect("clean exit");

    // A second life for the HTTP shutdown.
    let socket = socket_path("b");
    let (addr, server) = start(&socket);
    http(
        o,
        &addr,
        "POST /v1/shutdown",
        "wh-shutdown",
        &[req("POST", "/v1/shutdown")],
    );
    server.join().expect("daemon thread").expect("clean exit");
    out
}

#[test]
fn v1_replies_match_the_golden_transcript() {
    let actual = transcript();
    if actual == GOLDEN {
        return;
    }
    let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join("v1_wire.actual.txt");
    let _ = std::fs::write(&dump, &actual);
    let (line, (got, want)) = actual
        .lines()
        .zip(GOLDEN.lines())
        .enumerate()
        .find(|(_, (a, g))| a != g)
        .unwrap_or((
            actual.lines().count().min(GOLDEN.lines().count()),
            ("<end>", "<end>"),
        ));
    panic!(
        "v1 wire bytes differ from golden/v1_wire.txt at line {}:\n got: {got}\nwant: {want}\n(full transcript: {})",
        line + 1,
        dump.display()
    );
}
