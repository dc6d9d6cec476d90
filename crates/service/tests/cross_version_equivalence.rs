//! Cross-*version* equivalence: every v1 verb and route is a shim over the
//! v2 dispatcher, so a v1 call and its v2-envelope spelling must produce
//! byte-identical payloads once the volatile fields (timings, trace ids,
//! uptime) are stripped — over the framed protocol and over HTTP, answers,
//! errors, stats and metrics alike. Also pins the v1 deprecation surface:
//! `hello` advertises both versions, `/v1/*` responses carry a
//! `Deprecation: true` header and a `meta.api_version` marker.
#![cfg(unix)]

use cograph::{random_cotree, CotreeShape};
use pcservice::daemon::{connect, Daemon, DaemonConfig};
use pcservice::{proto, EngineConfig, GraphSpec, Json, QueryKind, QueryRequest};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io::{BufRead, BufReader, Write};
use std::time::Duration;

/// The workload: a few cotrees across the query kinds, graphs shipped as
/// edge-list text, plus one deliberate P4 failure so error payloads are
/// compared too.
fn workload() -> Vec<QueryRequest> {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut requests: Vec<QueryRequest> = (0..6)
        .map(|i| {
            let tree = random_cotree(
                3 + i * 4,
                CotreeShape::ALL[i % CotreeShape::ALL.len()],
                &mut rng,
            );
            QueryRequest::new(
                QueryKind::ALL[i % QueryKind::ALL.len()],
                GraphSpec::Graph(tree.to_graph()),
            )
            .with_id(format!("job-{i}"))
        })
        .collect();
    requests.push(
        QueryRequest::new(
            QueryKind::FullCover,
            GraphSpec::EdgeList("0 1\n1 2\n2 3\n".to_string()),
        )
        .with_id("p4-error"),
    );
    requests
}

/// Strips the fields that legitimately differ between two calls: per-call
/// timings and trace ids, and the daemon's uptime counter.
fn strip_volatile(value: &Json) -> Json {
    match value {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| {
                    k != "solve_us" && k != "total_us" && k != "trace_id" && k != "uptime_secs"
                })
                .map(|(k, v)| (k.clone(), strip_volatile(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_volatile).collect()),
        other => other.clone(),
    }
}

/// The v2 envelope for one v1-style solve: the request's graph fields
/// become the target, kind and id the params.
fn solve_envelope(request: &QueryRequest) -> Json {
    let mut params = vec![("kind", Json::str(request.kind.as_str()))];
    if let Some(id) = &request.id {
        params.push(("id", Json::str(id.clone())));
    }
    Json::obj(vec![
        ("api_version", Json::num(2)),
        ("op", Json::str("solve")),
        (
            "target",
            request.graph.to_json().expect("inline specs serialise"),
        ),
        ("params", Json::obj(params)),
    ])
}

/// Unwraps an acknowledged v2 envelope to its result payload.
fn ok_result(reply: Json) -> Json {
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "envelope rejected: {reply}"
    );
    reply
        .get("result")
        .cloned()
        .expect("ok reply carries a result")
}

#[test]
fn v1_and_v2_spellings_answer_byte_identically() {
    let requests = workload();
    let socket =
        std::env::temp_dir().join(format!("pcservice-xversion-{}.sock", std::process::id()));
    let mut config = DaemonConfig::new(&socket);
    config.http_addr = Some("127.0.0.1:0".to_string());
    config.idle_timeout = Duration::from_secs(10);
    config.engine = EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    };
    let daemon = Daemon::bind(config).expect("bind");
    let addr = daemon.http_addr().expect("http bound").to_string();
    let server = std::thread::spawn(move || daemon.run());

    let mut unix = connect(&socket).expect("unix connect");
    let mut http = pcservice::http::Client::connect(&addr).expect("http connect");

    // Warm the shared cache once so every comparison below sees the same
    // cache disposition regardless of which spelling runs first.
    unix.batch(None, requests.clone()).expect("warm-up batch");

    // solve: v1 verb/route vs v2 envelope, on both transports.
    for request in &requests {
        let v1_unix = unix.solve(request).expect("v1 unix solve");
        let v2_unix = ok_result(
            unix.query_v2(&solve_envelope(request))
                .expect("v2 unix solve"),
        );
        let v1_http = http.solve(request).expect("v1 http solve");
        let v2_http = ok_result(
            http.query_v2(&solve_envelope(request))
                .expect("v2 http solve"),
        );
        let baseline = strip_volatile(&v1_unix).to_string();
        for (label, other) in [
            ("v2 over unix", &v2_unix),
            ("v1 over http", &v1_http),
            ("v2 over http", &v2_http),
        ] {
            assert_eq!(
                strip_volatile(other).to_string(),
                baseline,
                "{:?}: {label} diverges from the v1 unix answer",
                request.id
            );
        }
    }

    // batch: the whole response array must agree elementwise.
    let v1_batch = unix.batch(None, requests.clone()).expect("v1 batch");
    let batch_envelope = Json::obj(vec![
        ("api_version", Json::num(2)),
        ("op", Json::str("batch")),
        (
            "params",
            Json::obj(vec![(
                "requests",
                Json::Arr(requests.iter().map(QueryRequest::to_json).collect()),
            )]),
        ),
    ]);
    let v2_batch = ok_result(unix.query_v2(&batch_envelope).expect("v2 batch"));
    let Some(Json::Arr(v2_responses)) = v2_batch.get("responses") else {
        panic!("v2 batch result missing responses: {v2_batch}");
    };
    assert_eq!(v1_batch.len(), v2_responses.len());
    for (i, (v1, v2)) in v1_batch.iter().zip(v2_responses).enumerate() {
        assert_eq!(
            strip_volatile(v2).to_string(),
            strip_volatile(v1).to_string(),
            "batch response {i} diverges between versions"
        );
    }

    // stats and metrics: same payload builder behind both spellings, so
    // back-to-back calls agree once uptime is stripped (no queries run in
    // between to move any counter).
    let op_envelope =
        |op: &str| Json::obj(vec![("api_version", Json::num(2)), ("op", Json::str(op))]);
    let v1_stats = unix.stats().expect("v1 stats");
    let v2_stats = ok_result(unix.query_v2(&op_envelope("stats")).expect("v2 stats"));
    assert_eq!(
        strip_volatile(&v2_stats).to_string(),
        strip_volatile(&v1_stats).to_string(),
        "stats payloads diverge between versions"
    );
    let v1_metrics = unix.metrics().expect("v1 metrics");
    let v2_metrics = ok_result(unix.query_v2(&op_envelope("metrics")).expect("v2 metrics"));
    assert_eq!(
        strip_volatile(&v2_metrics).to_string(),
        strip_volatile(&v1_metrics).to_string(),
        "metrics payloads diverge between versions"
    );

    // snapshot without --snapshot: both spellings refuse with the same
    // typed code; v1 surfaces it as a client error, v2 in-band.
    let v1_snapshot = unix.save_snapshot().expect_err("snapshot unconfigured");
    let v2_snapshot = unix
        .query_v2(&op_envelope("snapshot"))
        .expect("v2 snapshot");
    assert!(
        v1_snapshot.to_string().contains("snapshot_unconfigured"),
        "unexpected v1 error: {v1_snapshot}"
    );
    assert_eq!(v2_snapshot.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        v2_snapshot
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("snapshot_unconfigured")
    );

    unix.shutdown().expect("shutdown");
    server.join().expect("thread").expect("clean exit");
}

#[test]
fn hello_advertises_both_supported_versions() {
    let socket = std::env::temp_dir().join(format!(
        "pcservice-xversion-hello-{}.sock",
        std::process::id()
    ));
    let daemon = Daemon::bind(DaemonConfig::new(&socket)).expect("bind");
    let server = std::thread::spawn(move || daemon.run());

    // Raw handshake: `client::Client::framed` checks only the hello
    // reply's legacy `proto` field and does not hand the reply on.
    let stream = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    proto::write_frame(&mut stream, &proto::Request::Hello { proto: 1 }.to_json())
        .expect("send hello");
    let hello = proto::read_frame(&mut reader).expect("hello frame");
    assert_eq!(hello.get("type").and_then(Json::as_str), Some("hello"));
    assert_eq!(hello.get("proto").and_then(Json::as_u64), Some(1));
    let Some(Json::Arr(versions)) = hello.get("supported_versions") else {
        panic!("hello missing supported_versions: {hello}");
    };
    let versions: Vec<u64> = versions.iter().filter_map(Json::as_u64).collect();
    assert_eq!(versions, [1, 2]);
    drop(reader);
    drop(stream);

    let mut client = connect(&socket).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("thread").expect("clean exit");
}

#[test]
fn v1_routes_carry_the_deprecation_surface_and_v2_does_not() {
    let mut config = DaemonConfig::http("127.0.0.1:0");
    config.idle_timeout = Duration::from_secs(10);
    let daemon = Daemon::bind(config).expect("bind");
    let addr = daemon.http_addr().expect("http bound").to_string();
    let server = std::thread::spawn(move || daemon.run());

    // Raw HTTP, because the typed client hides headers.
    let fetch = |method: &str, path: &str, body: Option<&str>| -> (Vec<String>, Json) {
        let stream = std::net::TcpStream::connect(&addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        let body = body.unwrap_or("");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("write request");
        stream.flush().expect("flush");
        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read header");
            let line = line.trim_end().to_string();
            if line.is_empty() {
                break;
            }
            headers.push(line);
        }
        let mut body = String::new();
        std::io::Read::read_to_string(&mut reader, &mut body).expect("read body");
        (headers, Json::parse(body.trim_end()).expect("json body"))
    };
    let has_deprecation = |headers: &[String]| {
        headers
            .iter()
            .any(|h| h.eq_ignore_ascii_case("deprecation: true"))
    };

    // Every /v1 route answers with the deprecation header and a
    // `meta.api_version` marker at the body's top level.
    let (headers, body) = fetch("GET", "/v1/stats", None);
    assert!(has_deprecation(&headers), "missing header: {headers:?}");
    assert_eq!(
        body.get("meta")
            .and_then(|m| m.get("api_version"))
            .and_then(Json::as_u64),
        Some(1)
    );
    let (headers, body) = fetch(
        "POST",
        "/v1/solve",
        Some(r#"{"kind":"min_cover_size","cotree":"(j a b)"}"#),
    );
    assert!(has_deprecation(&headers), "missing header: {headers:?}");
    assert_eq!(
        body.get("meta")
            .and_then(|m| m.get("api_version"))
            .and_then(Json::as_u64),
        Some(1)
    );
    // ...but the marker stays *outside* the response payload, which is the
    // byte-identical v2 result.
    assert_eq!(
        body.get("response")
            .and_then(|r| r.get("meta"))
            .and_then(|m| m.get("api_version")),
        None
    );

    // The v2 endpoint and the version-neutral health probe carry neither.
    let (headers, body) = fetch(
        "POST",
        "/v2/query",
        Some(r#"{"op":"solve","target":{"cotree":"(j a b)"},"params":{"kind":"min_cover_size"}}"#),
    );
    assert!(
        !has_deprecation(&headers),
        "v2 marked deprecated: {headers:?}"
    );
    assert_eq!(body.get("api_version").and_then(Json::as_u64), Some(2));
    assert_eq!(body.get("ok").and_then(Json::as_bool), Some(true));
    let (headers, body) = fetch("GET", "/healthz", None);
    assert!(!has_deprecation(&headers), "healthz marked deprecated");
    assert_eq!(body.get("meta"), None);

    let mut client = pcservice::http::Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("thread").expect("clean exit");
}
