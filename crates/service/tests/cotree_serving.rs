//! The cotree serving path at size and depth: large cotree terms are
//! covered and verified without materialising their graph, a term nested
//! 2^17 levels deep is answered on a thread with the default 2 MiB stack,
//! and a request body of deeply nested brackets gets a typed error instead
//! of overflowing the stack of the connection thread parsing it.

use pcservice::{Answer, GraphSpec, Json, JsonErrorKind, QueryEngine, QueryKind, QueryRequest};
use rand::SeedableRng;

/// The stack size std gives spawned threads, the daemon's connection
/// threads included.
const DEFAULT_STACK: usize = 2 << 20;

/// Runs `f` on a fresh thread with the default 2 MiB stack.
fn on_default_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(DEFAULT_STACK)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic")
}

fn full_cover(engine: &QueryEngine, term: &str) -> (pcgraph::PathCover, bool) {
    let request = QueryRequest::new(QueryKind::FullCover, GraphSpec::CotreeTerm(term.into()));
    match engine.execute(&request).outcome {
        Ok(Answer::FullCover { cover, verified }) => (cover, verified),
        other => panic!("expected a full cover, got {other:?}"),
    }
}

fn min_cover_size(engine: &QueryEngine, term: &str) -> usize {
    let request = QueryRequest::new(QueryKind::MinCoverSize, GraphSpec::CotreeTerm(term.into()));
    match engine.execute(&request).outcome {
        Ok(Answer::MinCoverSize { size }) => size,
        other => panic!("expected a size, got {other:?}"),
    }
}

#[test]
fn a_2_pow_16_vertex_cotree_term_is_covered_and_verified() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(16);
    let tree = cograph::random_cotree(1 << 16, cograph::CotreeShape::Mixed, &mut rng);
    let term = tree.to_term();
    let engine = QueryEngine::default();
    let (cover, verified) = full_cover(&engine, &term);
    assert!(verified);
    assert_eq!(cover.total_vertices(), 1 << 16);
    assert_eq!(cover.len(), min_cover_size(&engine, &term));
}

/// `(j v0 (u v1 (j v2 ... vL)))`: labels alternate, so nothing flattens and
/// the cotree is `levels` internal nodes deep.
fn caterpillar(levels: usize) -> String {
    let mut term = String::new();
    for i in 0..levels {
        term.push_str(if i % 2 == 0 { "(j v" } else { "(u v" });
        term.push_str(&i.to_string());
        term.push(' ');
    }
    term.push_str(&format!("v{levels}"));
    term.push_str(&")".repeat(levels));
    term
}

#[test]
fn a_2_pow_17_level_caterpillar_answers_every_kind_on_a_default_stack() {
    let levels = 1 << 17;
    on_default_stack(move || {
        let term = caterpillar(levels);
        let engine = QueryEngine::default();
        for kind in QueryKind::ALL {
            let request = QueryRequest::new(kind, GraphSpec::CotreeTerm(term.clone()));
            let response = engine.execute(&request);
            match response.outcome {
                Ok(Answer::FullCover { cover, verified }) => {
                    assert!(verified);
                    assert_eq!(cover.total_vertices(), levels + 1);
                }
                Ok(Answer::Recognized {
                    vertices, height, ..
                }) => {
                    assert_eq!(vertices, levels + 1);
                    assert_eq!(height, levels);
                }
                Ok(_) => {}
                Err(error) => panic!("{kind:?} failed: {error}"),
            }
            assert_eq!(response.meta.vertices, levels + 1);
        }
        // Every kind after the first was served from the cached entry.
        assert_eq!(engine.cache_stats().hits, QueryKind::ALL.len() as u64 - 1);
    });
}

#[test]
fn deeply_nested_json_gets_a_typed_error_on_a_default_stack() {
    let error = on_default_stack(|| {
        let document = "[".repeat(100_000) + &"]".repeat(100_000);
        Json::parse(&document).expect_err("nested past the cap")
    });
    assert_eq!(error.kind, JsonErrorKind::TooDeep);
    assert_eq!(error.code(), "bad_request");
}

/// One raw HTTP/1.1 exchange on a fresh connection; returns the status line
/// and the body.
#[cfg(unix)]
fn raw_http(addr: &str, request: &[u8]) -> (String, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("tcp connect");
    stream.write_all(request).expect("send");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read reply");
    let reply = String::from_utf8(reply).expect("utf-8 reply");
    let (head, body) = reply.split_once("\r\n\r\n").expect("header terminator");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

#[cfg(unix)]
#[test]
fn the_daemon_refuses_a_deeply_nested_body_and_keeps_serving() {
    let mut config = pcservice::DaemonConfig::http("127.0.0.1:0");
    config.idle_timeout = std::time::Duration::from_secs(5);
    let daemon = pcservice::Daemon::bind(config).expect("bind");
    let addr = daemon.http_addr().expect("http bound").to_string();
    let handle = std::thread::spawn(move || daemon.run());

    let body = "[".repeat(100_000);
    let mut request = format!(
        "POST /v1/solve HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body.as_bytes());
    let (status, reply) = raw_http(&addr, &request);
    assert!(status.contains(" 400 "), "{status}");
    let reply = Json::parse(reply.trim_end()).expect("json reply");
    assert_eq!(
        reply.get("code").and_then(Json::as_str),
        Some("bad_request"),
        "{reply}"
    );

    let (status, _) = raw_http(
        &addr,
        b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert!(status.contains(" 200 "), "the daemon survived: {status}");

    // A cotree request over the same daemon is answered, verified, and
    // cached like any other.
    let mut client = pcservice::http::Client::connect(&addr).expect("http connect");
    let request = QueryRequest::new(
        QueryKind::FullCover,
        GraphSpec::CotreeTerm("(j (u a b c) (u d e))".to_string()),
    );
    let response = client.solve(&request).expect("solve");
    let answer = response.get("answer").expect("answer");
    assert_eq!(answer.get("verified").and_then(Json::as_bool), Some(true));
    let response = client.solve(&request).expect("solve again");
    assert_eq!(
        response
            .get("meta")
            .and_then(|m| m.get("cache"))
            .and_then(Json::as_str),
        Some("hit")
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("clean exit");
}
