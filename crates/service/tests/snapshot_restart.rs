//! Warm-start equivalence across a daemon restart.
//!
//! The contract of `pcservice::snapshot`: a daemon restarted with
//! `--snapshot` must answer a previously-seen query as a cache hit on its
//! *first* request, with answers byte-identical to the first daemon's
//! (modulo timing and cache-disposition metadata), and a save-now request
//! must checkpoint without stopping the daemon.

#![cfg(unix)]

use pcservice::daemon::connect;
use pcservice::{Daemon, DaemonConfig, GraphSpec, Json, QueryKind, QueryRequest};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

fn temp_file(tag: &str, suffix: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "pcsnap-restart-{}-{tag}-{n}{suffix}",
        std::process::id()
    ))
}

fn spawn_daemon(
    socket: &std::path::Path,
    snapshot: &std::path::Path,
    checkpoint: Option<Duration>,
) -> std::thread::JoinHandle<io::Result<()>> {
    let mut config = DaemonConfig::new(socket);
    config.idle_timeout = Duration::from_secs(10);
    config.snapshot_path = Some(snapshot.to_path_buf());
    config.checkpoint_interval = checkpoint;
    // One batch thread runs the jobs in batch order, so the first life's
    // q2 is looked up before q4, which carries the same triangle.
    config.engine.threads = 1;
    let daemon = Daemon::bind(config).expect("bind");
    std::thread::spawn(move || daemon.run())
}

/// The workload: every query kind, mixed ingestion formats, including a
/// graph-keyed request (exercising the fingerprint link) and a non-cograph
/// (errors are not cached and must re-fail identically).
fn workload() -> Vec<QueryRequest> {
    vec![
        QueryRequest::new(
            QueryKind::MinCoverSize,
            GraphSpec::CotreeTerm("(u (j a b) c)".to_string()),
        )
        .with_id("q1"),
        QueryRequest::new(
            QueryKind::HamiltonianPath,
            GraphSpec::EdgeList("0 1\n1 2\n0 2".to_string()),
        )
        .with_id("q2"),
        QueryRequest::new(
            QueryKind::FullCover,
            GraphSpec::CotreeTerm("(j (u a b) (u c d))".to_string()),
        )
        .with_id("q3"),
        QueryRequest::new(
            QueryKind::HamiltonianCycle,
            GraphSpec::EdgeList("0 1\n1 2\n0 2".to_string()),
        )
        .with_id("q4"),
        QueryRequest::new(
            QueryKind::Recognize,
            GraphSpec::EdgeList("0 1\n1 2\n2 3".to_string()),
        )
        .with_id("p4"),
    ]
}

/// Zeroes the timing fields and the cache disposition, the only legitimate
/// differences between a cold and a warm answer.
fn strip_volatile(response: &Json) -> Json {
    match response {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(key, value)| {
                    let value = match key.as_str() {
                        "meta" => strip_volatile(value),
                        "solve_us" | "total_us" => Json::num(0),
                        "cache" => Json::str("x"),
                        "trace_id" => Json::str("x"),
                        _ => value.clone(),
                    };
                    (key.clone(), value)
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

fn cache_status(response: &Json) -> Option<&str> {
    response
        .get("meta")
        .and_then(|m| m.get("cache"))
        .and_then(Json::as_str)
}

#[test]
fn restart_serves_previous_queries_warm_and_byte_identical() {
    let socket = temp_file("warm", ".sock");
    let snapshot = temp_file("warm", ".pcsnap");

    // First life: cold daemon, run the workload, shut down.
    let handle = spawn_daemon(&socket, &snapshot, None);
    let mut client = connect(&socket).expect("connect");
    let first_run = client.batch(None, workload()).expect("first-life batch");
    for response in &first_run {
        let id = response.get("id").and_then(Json::as_str).unwrap_or("?");
        // q4 repeats q2's graph and may hit within the batch; the first
        // occurrence of every graph must be cold on a fresh engine.
        if id != "q4" {
            assert_ne!(
                cache_status(response),
                Some("hit"),
                "first occurrence cannot be warm on a fresh engine: {response}"
            );
        }
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("clean exit");
    assert!(snapshot.exists(), "shutdown must have saved the snapshot");

    // Second life: same snapshot. The very first request of the new
    // process must hit the cache — that is the whole point.
    let handle = spawn_daemon(&socket, &snapshot, None);
    let mut client = connect(&socket).expect("reconnect");
    let stats = client.stats().expect("stats");
    let loaded = stats
        .get("snapshot")
        .and_then(|s| s.get("loaded_entries"))
        .and_then(Json::as_u64)
        .expect("snapshot metadata in stats");
    // q1, q3 and the q2/q4 triangle: three distinct canonical cotrees.
    assert_eq!(loaded, 3, "all cacheable entries reloaded, got {stats}");

    let second_run = client.batch(None, workload()).expect("second-life batch");
    assert_eq!(second_run.len(), first_run.len());
    for (first, second) in first_run.iter().zip(&second_run) {
        assert_eq!(
            strip_volatile(first).to_string(),
            strip_volatile(second).to_string(),
            "answers must be byte-identical across the restart"
        );
    }
    // Every cacheable query is a hit on its first post-restart execution;
    // the P4 rejection is not cached and must simply re-fail identically.
    for response in &second_run {
        let id = response.get("id").and_then(Json::as_str).unwrap_or("?");
        if id == "p4" {
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        } else {
            assert_eq!(
                cache_status(response),
                Some("hit"),
                "first post-restart execution of {id} must be warm: {response}"
            );
        }
    }
    client.shutdown().expect("second shutdown");
    handle.join().expect("daemon thread").expect("clean exit");
    let _ = std::fs::remove_file(&snapshot);
}

#[test]
fn save_now_checkpoints_without_stopping_and_checkpointer_persists() {
    let socket = temp_file("checkpoint", ".sock");
    let snapshot = temp_file("checkpoint", ".pcsnap");

    // Background checkpointing at a tight interval, so the test observes a
    // save that no shutdown triggered.
    let handle = spawn_daemon(&socket, &snapshot, Some(Duration::from_millis(100)));
    let mut client = connect(&socket).expect("connect");
    client
        .solve(&QueryRequest::new(
            QueryKind::MinCoverSize,
            GraphSpec::CotreeTerm("(j a b c)".to_string()),
        ))
        .expect("warm one entry");

    // Save-now over the wire: acknowledged with what was written, daemon
    // keeps serving.
    let reply = client.save_snapshot().expect("save-now");
    assert_eq!(reply.get("entries").and_then(Json::as_u64), Some(1));
    assert!(snapshot.exists(), "save-now must have written the file");
    let after_save = client.stats().expect("still serving");
    assert!(
        after_save
            .get("snapshot")
            .and_then(|s| s.get("last_checkpoint_unix"))
            .and_then(Json::as_u64)
            .is_some(),
        "checkpoint time recorded: {after_save}"
    );

    // The background thread checkpoints on its own: remove the file and
    // wait for the checkpointer to re-create it.
    std::fs::remove_file(&snapshot).expect("remove between checkpoints");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !snapshot.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "checkpoint thread never saved"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("clean exit");
    let _ = std::fs::remove_file(&snapshot);
}
