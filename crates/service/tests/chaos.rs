//! Chaos suite: the daemon under injected faults and induced overload.
//!
//! Each test drives a real daemon (unix socket and/or HTTP) with a
//! [`pcservice::FaultSpec`] and asserts the resilience contract: every
//! reply a client sees is either byte-identical to the fault-free run
//! (after stripping timing fields) or a *typed*, retryable `overloaded` /
//! `deadline_exceeded` error; handler panics stay contained to their
//! connection; shutdown always drains to a clean exit with the socket
//! file removed.
#![cfg(unix)]

use pcservice::client::RetryPolicy;
use pcservice::daemon::{connect, Daemon, DaemonConfig};
use pcservice::{EngineConfig, FaultSpec, GraphSpec, Json, ProtoError, QueryKind, QueryRequest};
use std::path::PathBuf;
use std::time::Duration;

/// A deterministic mixed workload: distinct cotrees (so the hit/miss
/// sequence is non-trivial), one repeat (a guaranteed hit) and one
/// deliberate per-job failure (an induced `P_4`), to prove error payloads
/// survive chaos byte-for-byte too.
fn workload() -> Vec<QueryRequest> {
    let mut requests: Vec<QueryRequest> = (0..8)
        .map(|i| {
            let leaves: Vec<String> = (0..3 + i).map(|v| format!("v{v}")).collect();
            let term = format!("(j {} (u a b))", leaves.join(" "));
            QueryRequest::new(QueryKind::FullCover, GraphSpec::CotreeTerm(term))
                .with_id(format!("cover-{i}"))
        })
        .collect();
    requests.push(
        QueryRequest::new(
            QueryKind::MinCoverSize,
            GraphSpec::CotreeTerm("(j v0 v1 v2 (u a b))".to_string()),
        )
        .with_id("repeat-hit"),
    );
    requests.push(
        QueryRequest::new(
            QueryKind::Recognize,
            GraphSpec::EdgeList("0 1\n1 2\n2 3\n".to_string()),
        )
        .with_id("p4-error"),
    );
    requests
}

/// Strips per-run volatility (timing, trace IDs); everything else must
/// match the fault-free run exactly.
fn strip_volatile(value: &Json) -> Json {
    match value {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "solve_us" && k != "total_us" && k != "trace_id")
                .map(|(k, v)| (k.clone(), strip_volatile(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_volatile).collect()),
        other => other.clone(),
    }
}

/// Single-threaded engine so the cache hit/miss sequence (part of every
/// response) is deterministic across the faulted and fault-free runs.
fn engine_config() -> EngineConfig {
    EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    }
}

fn temp_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pcservice-chaos-{tag}-{}.sock", std::process::id()))
}

/// A fast retry policy for tests: enough attempts that a 30% shed rate
/// failing every one of them is out of the question, tiny backoffs so the
/// suite stays quick.
fn test_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 20,
        base_backoff_ms: 1,
        max_backoff_ms: 5,
    }
}

/// Connects to a faulted daemon, absorbing handshake sheds and
/// connections killed by injected panics (both are connection-scoped by
/// contract, so a fresh connect must eventually succeed).
fn connect_retrying(socket: &PathBuf) -> pcservice::client::Client {
    for _ in 0..200 {
        match connect(socket) {
            Ok(client) => return client.with_retry(test_retry()),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    panic!("daemon never accepted a clean connection");
}

/// Shuts a faulted daemon down, absorbing sheds and injected panics on
/// the shutdown frame itself.
fn shutdown_retrying(socket: &PathBuf) {
    for _ in 0..200 {
        let Ok(mut client) = connect(socket) else {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        loop {
            match client.shutdown() {
                Ok(()) => return,
                // Shed: the connection survives, try again on it.
                Err(ProtoError::Remote { code, .. }) if code == "overloaded" => continue,
                // Injected panic killed the connection: reconnect.
                Err(_) => break,
            }
        }
    }
    panic!("daemon never acknowledged shutdown");
}

#[test]
fn retrying_clients_ride_out_random_sheds_byte_identically() {
    let requests = workload();

    // Fault-free baseline over the framed transport.
    let socket = temp_socket("baseline");
    let mut config = DaemonConfig::new(&socket);
    config.idle_timeout = Duration::from_secs(10);
    config.engine = engine_config();
    let daemon = Daemon::bind(config).expect("bind baseline daemon");
    let server = std::thread::spawn(move || daemon.run());
    let mut client = connect(&socket).expect("baseline connect");
    // Two passes: the faulted daemon below serves the workload twice (once
    // per transport), so its cache warms between passes — the baseline
    // must replay the same progression for the hit/miss metadata to match.
    let baseline_cold: Vec<String> = requests
        .iter()
        .map(|r| strip_volatile(&client.solve(r).expect("baseline solve")).to_string())
        .collect();
    let baseline_warm: Vec<String> = requests
        .iter()
        .map(|r| strip_volatile(&client.solve(r).expect("baseline solve")).to_string())
        .collect();
    client.shutdown().expect("baseline shutdown");
    server
        .join()
        .unwrap()
        .expect("baseline daemon exits cleanly");

    // The same workload against a daemon shedding ~30% of frames and
    // stalling 1ms before each one, on both transports at once. Retrying
    // clients must converge on byte-identical answers.
    let socket = temp_socket("faulted");
    let mut config = DaemonConfig::new(&socket);
    config.http_addr = Some("127.0.0.1:0".to_string());
    config.idle_timeout = Duration::from_secs(10);
    config.engine = engine_config();
    config.faults = FaultSpec::parse("frame_stall_ms=1,overload_rate=0.3,seed=11").unwrap();
    let daemon = Daemon::bind(config).expect("bind faulted daemon");
    let addr = daemon.http_addr().expect("http bound").to_string();
    let server = std::thread::spawn(move || daemon.run());

    let mut framed = connect_retrying(&socket);
    for (i, request) in requests.iter().enumerate() {
        let reply = framed.solve(request).expect("retries exhaust the sheds");
        assert_eq!(
            strip_volatile(&reply).to_string(),
            baseline_cold[i],
            "framed reply {i} ({:?}) diverges from the fault-free run",
            request.id
        );
    }
    let mut http = pcservice::http::Client::connect(&addr)
        .expect("http connect")
        .with_retry(test_retry());
    for (i, request) in requests.iter().enumerate() {
        let reply = http.solve(request).expect("retries exhaust the sheds");
        assert_eq!(
            strip_volatile(&reply).to_string(),
            baseline_warm[i],
            "http reply {i} ({:?}) diverges from the fault-free run",
            request.id
        );
    }

    // The sheds actually happened and were counted.
    let metrics = framed.metrics().expect("metrics");
    let resilience = metrics.get("resilience").expect("resilience block");
    let shed = resilience
        .get("rejected_overload")
        .and_then(Json::as_u64)
        .expect("rejected_overload counter");
    assert!(shed > 0, "a 30% shed rate must reject something");

    shutdown_retrying(&socket);
    server
        .join()
        .unwrap()
        .expect("faulted daemon exits cleanly");
    assert!(!socket.exists(), "drain shutdown must remove the socket");
}

#[test]
fn per_connection_budgets_shed_deterministically() {
    let socket = temp_socket("budget");
    let mut config = DaemonConfig::new(&socket);
    config.idle_timeout = Duration::from_secs(10);
    config.engine = engine_config();
    // Two frames per connection: the hello handshake plus one request.
    config.max_requests_per_conn = 2;
    let daemon = Daemon::bind(config).expect("bind daemon");
    let server = std::thread::spawn(move || daemon.run());

    // The first request fits the budget; the next frame is shed with a
    // typed, retryable error and the connection closes.
    let mut client = connect(&socket).expect("hello fits the budget");
    let request = QueryRequest::new(
        QueryKind::MinCoverSize,
        GraphSpec::CotreeTerm("(j a b)".to_string()),
    );
    let reply = client.solve(&request).expect("first request fits");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    match client.metrics() {
        Err(ProtoError::Remote {
            code,
            retry_after_ms,
            ..
        }) => {
            assert_eq!(code, "overloaded");
            assert!(retry_after_ms.is_some(), "shed must carry a backoff hint");
        }
        other => panic!("expected a typed overloaded shed, got {other:?}"),
    }

    // A fresh connection gets a fresh budget — the shed was recoverable.
    let mut fresh = connect(&socket).expect("fresh connection");
    let reply = fresh.solve(&request).expect("fresh budget");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    drop(fresh);

    // Shutdown fits a fresh connection's budget (hello + shutdown).
    let mut last = connect(&socket).expect("shutdown connection");
    last.shutdown().expect("shutdown");
    server.join().unwrap().expect("daemon exits cleanly");
    assert!(!socket.exists());
}

#[test]
fn connection_cap_rejects_excess_connects_with_overloaded() {
    let socket = temp_socket("conncap");
    let mut config = DaemonConfig::new(&socket);
    config.idle_timeout = Duration::from_secs(10);
    config.engine = engine_config();
    config.max_connections = 1;
    let daemon = Daemon::bind(config).expect("bind daemon");
    let server = std::thread::spawn(move || daemon.run());

    let mut first = connect(&socket).expect("first connection admitted");
    // The second connect is rejected at accept time: the daemon answers
    // the cap breach with one overloaded frame instead of a handshake.
    match connect(&socket) {
        Err(ProtoError::Remote {
            code,
            retry_after_ms,
            ..
        }) => {
            assert_eq!(code, "overloaded");
            assert!(retry_after_ms.is_some());
        }
        Err(other) => panic!("expected an overloaded rejection, got {other:?}"),
        Ok(_) => panic!("the connection cap admitted a second connection"),
    }
    // The admitted connection is unaffected by the rejection next door.
    let request = QueryRequest::new(
        QueryKind::HamiltonianPath,
        GraphSpec::CotreeTerm("(j a b c)".to_string()),
    );
    let reply = first.solve(&request).expect("admitted connection works");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));

    // Once it hangs up, the slot frees and a new connect is admitted.
    drop(first);
    let mut readmitted = connect_retrying(&socket);
    readmitted.shutdown().expect("shutdown");
    server.join().unwrap().expect("daemon exits cleanly");
    assert!(!socket.exists());
}

#[test]
fn expired_deadlines_fail_typed_on_the_v2_envelope() {
    let socket = temp_socket("deadline");
    let mut config = DaemonConfig::new(&socket);
    config.idle_timeout = Duration::from_secs(10);
    config.engine = engine_config();
    let daemon = Daemon::bind(config).expect("bind daemon");
    let server = std::thread::spawn(move || daemon.run());
    let mut client = connect(&socket).expect("connect");

    let envelope = Json::parse(
        r#"{"api_version":2,"op":"solve","target":{"cotree":"(j a b c)"},
            "params":{"kind":"min_cover_size"},"deadline_ms":0}"#,
    )
    .unwrap();
    let reply = client.query_v2(&envelope).expect("v2 round trip");
    // The envelope succeeds (the op ran); the job inside it failed typed —
    // deadline errors are per-job, like every other solve failure.
    let result = reply.get("result").expect("result payload");
    assert_eq!(result.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        result
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("deadline_exceeded")
    );

    // The same envelope with room to breathe succeeds on the very same
    // connection: deadline failures are per-request, not per-connection.
    let envelope = Json::parse(
        r#"{"api_version":2,"op":"solve","target":{"cotree":"(j a b c)"},
            "params":{"kind":"min_cover_size"},"deadline_ms":60000}"#,
    )
    .unwrap();
    let reply = client.query_v2(&envelope).expect("v2 round trip");
    let result = reply.get("result").expect("result payload");
    assert_eq!(result.get("ok").and_then(Json::as_bool), Some(true));

    let metrics = client.metrics().expect("metrics");
    let cut_short = metrics
        .get("resilience")
        .and_then(|r| r.get("deadline_exceeded"))
        .and_then(Json::as_u64);
    assert_eq!(cut_short, Some(1));

    client.shutdown().expect("shutdown");
    server.join().unwrap().expect("daemon exits cleanly");
}

#[test]
fn handler_panics_stay_contained_to_their_connection() {
    let socket = temp_socket("panic");
    let mut config = DaemonConfig::new(&socket);
    config.idle_timeout = Duration::from_secs(10);
    config.engine = engine_config();
    // Every other frame panics its handler (deterministic in the seed).
    config.faults = FaultSpec::parse("panic_rate=0.5,seed=1").unwrap();
    let daemon = Daemon::bind(config).expect("bind daemon");
    let server = std::thread::spawn(move || daemon.run());

    // Connections die mid-frame whenever the injected panic fires, but the
    // daemon itself must keep accepting and answering: across repeated
    // fresh connections we must see both real answers and killed
    // connections, and the accept loop must never wedge.
    let request = QueryRequest::new(
        QueryKind::MinCoverSize,
        GraphSpec::CotreeTerm("(u (j a b) c)".to_string()),
    );
    let mut answered = 0u32;
    let mut killed = 0u32;
    for _ in 0..60 {
        match connect(&socket) {
            Ok(mut client) => match client.solve(&request) {
                Ok(reply) => {
                    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
                    answered += 1;
                }
                Err(_) => killed += 1,
            },
            Err(_) => killed += 1,
        }
        if answered >= 3 && killed >= 3 {
            break;
        }
    }
    assert!(answered >= 3, "daemon stopped answering under panics");
    assert!(killed >= 3, "panic_rate=0.5 must kill some connections");

    shutdown_retrying(&socket);
    server
        .join()
        .unwrap()
        .expect("daemon exits cleanly after panics");
    assert!(!socket.exists(), "socket must be cleaned up despite panics");
}

#[test]
fn in_flight_requests_drain_before_shutdown_completes() {
    let socket = temp_socket("drain");
    let mut config = DaemonConfig::new(&socket);
    config.idle_timeout = Duration::from_secs(10);
    config.engine = engine_config();
    // Every frame stalls 80ms: a request sent just before shutdown is
    // still in flight when the trigger lands, and must complete anyway.
    config.faults = FaultSpec::parse("frame_stall_ms=80").unwrap();
    config.drain_timeout = Duration::from_secs(5);
    let daemon = Daemon::bind(config).expect("bind daemon");
    let server = std::thread::spawn(move || daemon.run());

    // Both connections are admitted before shutdown stops the accept
    // loop. The trigger's shutdown frame stalls 80ms before dispatch; the
    // worker's solve, sent 20ms later, stalls until after the shutdown has
    // fired — so when the daemon starts draining, the solve is genuinely
    // in flight and must still complete with a real answer.
    let mut worker = connect(&socket).expect("worker connect");
    let mut trigger = connect(&socket).expect("trigger connect");
    let trigger_thread = std::thread::spawn(move || trigger.shutdown());
    std::thread::sleep(Duration::from_millis(20));
    let request = QueryRequest::new(
        QueryKind::FullCover,
        GraphSpec::CotreeTerm("(j a b c d)".to_string()),
    );
    let reply = worker
        .solve(&request)
        .expect("in-flight request completes during drain");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    drop(worker);
    trigger_thread
        .join()
        .unwrap()
        .expect("shutdown acknowledged");
    server.join().unwrap().expect("daemon exits cleanly");
    assert!(!socket.exists());
}
