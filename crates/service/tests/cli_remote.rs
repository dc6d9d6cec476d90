//! Pins the CLI's remote subcommands across both transports.
//!
//! The same script of `pathcover-cli` invocations runs once with
//! `--remote SOCK` (framed protocol) and once with `--remote-http ADDR`,
//! each against a fresh in-process daemon bound to a unix socket and an
//! ephemeral HTTP port. Exit codes must be equal, stdout must be equal once
//! timings, trace ids and session handles are stripped, `stats` and
//! `metrics` must expose the same JSON keys, and failures must name the
//! same error code on stderr.
#![cfg(unix)]

use pcservice::{Daemon, DaemonConfig, EngineConfig, Json};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

const CLI: &str = env!("CARGO_BIN_EXE_pathcover-cli");

/// The outcome of one CLI invocation.
#[derive(Debug)]
struct Run {
    label: String,
    code: i32,
    stdout: String,
    stderr: String,
}

/// Runs the CLI with `args` followed by the transport flags; `env` adds
/// environment variables.
fn cli(label: &str, args: &[&str], remote: &[String], env: &[(&str, &str)]) -> Run {
    let mut command = Command::new(CLI);
    command.args(args).args(remote).env_remove("PC_RETRIES");
    for (key, value) in env {
        command.env(key, value);
    }
    let output = command.output().expect("run pathcover-cli");
    Run {
        label: label.to_string(),
        code: output.status.code().expect("exit code"),
        stdout: String::from_utf8(output.stdout).expect("utf-8 stdout"),
        stderr: String::from_utf8(output.stderr).expect("utf-8 stderr"),
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pcservice-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn write(dir: &Path, name: &str, text: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write input");
    path.display().to_string()
}

/// The first JSON line of a run's stdout.
fn json_of(run: &Run) -> Json {
    let line = run.stdout.lines().next().unwrap_or_default();
    Json::parse(line).unwrap_or_else(|e| panic!("{}: stdout is not JSON ({e}): {run:?}", run.label))
}

/// The script, run over one transport against a fresh daemon (so cache
/// dispositions and the flight recorder evolve identically on both).
fn script(transport: &str, dir: &Path) -> Vec<Run> {
    let socket = dir.join(format!("{transport}.sock"));
    let mut config = DaemonConfig::new(&socket);
    config.http_addr = Some("127.0.0.1:0".to_string());
    config.idle_timeout = Duration::from_secs(10);
    config.engine = EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    };
    let daemon = Daemon::bind(config).expect("bind daemon");
    let addr = daemon.http_addr().expect("http bound").to_string();
    let server = std::thread::spawn(move || daemon.run());
    let remote = match transport {
        "framed" => vec!["--remote".to_string(), socket.display().to_string()],
        _ => vec!["--remote-http".to_string(), addr],
    };

    let graph = write(dir, "graph.el", "0 1\n1 2\n0 2\n2 3\n0 3\n1 3\n4\n");
    let queries = write(
        dir,
        "queries.jsonl",
        "{\"id\":\"ok\",\"kind\":\"min_cover_size\",\"cotree\":\"(u (j a b) c)\"}\n\
         {\"id\":\"p4\",\"kind\":\"recognize\",\"edge_list\":\"0 1\\n1 2\\n2 3\"}\n",
    );

    let mut runs = Vec::new();
    let solve = cli("solve --json", &["solve", &graph, "--json"], &remote, &[]);
    let trace_id = json_of(&solve)
        .get("meta")
        .and_then(|m| m.get("trace_id"))
        .and_then(Json::as_str)
        .expect("solve carries a trace id")
        .to_string();
    runs.push(solve);
    runs.push(cli("recognize", &["recognize", &graph], &remote, &[]));
    runs.push(cli("batch", &["batch", "none", &queries], &remote, &[]));
    runs.push(cli("stats --json", &["stats", "--json"], &remote, &[]));
    runs.push(cli("metrics --json", &["metrics", "--json"], &remote, &[]));
    runs.push(cli(
        "trace list --json",
        &["trace", "list", "--json"],
        &remote,
        &[],
    ));
    runs.push(cli(
        "trace get --json",
        &["trace", "get", &trace_id, "--json"],
        &remote,
        &[],
    ));
    runs.push(cli(
        "trace get --chrome",
        &["trace", "get", &trace_id, "--chrome"],
        &remote,
        &[],
    ));
    runs.push(cli(
        "trace get nope",
        &["trace", "get", "nope"],
        &remote,
        &[],
    ));
    runs.push(cli("snapshot save", &["snapshot", "save"], &remote, &[]));
    let create = cli(
        "session create --json",
        &["session", "create", &graph, "--json"],
        &remote,
        &[],
    );
    let handle = json_of(&create)
        .get("result")
        .and_then(|r| r.get("handle"))
        .and_then(Json::as_str)
        .expect("session create answers a handle")
        .to_string();
    runs.push(create);
    runs.push(cli(
        "session query --json",
        &["session", "query", &handle, "--json"],
        &remote,
        &[],
    ));
    runs.push(cli(
        "session drop --json",
        &["session", "drop", &handle, "--json"],
        &remote,
        &[],
    ));
    runs.push(cli(
        "PC_RETRIES=abc stats",
        &["stats"],
        &remote,
        &[("PC_RETRIES", "abc")],
    ));
    let shutdown = cli("shutdown", &["shutdown"], &remote, &[]);
    assert_eq!(shutdown.code, 0, "{shutdown:?}");
    server
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
    runs
}

/// Keys whose values differ from run to run: timings, trace ids, session
/// handles.
fn volatile(key: &str) -> bool {
    key.ends_with("_us")
        || matches!(
            key,
            "trace_id" | "handle" | "ts" | "dur" | "unix_ms" | "uptime_secs" | "idle_secs"
        )
}

fn strip(value: &Json) -> Json {
    match value {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(k, v)| {
                    let v = if volatile(k) {
                        Json::str("~")
                    } else {
                        strip(v)
                    };
                    (k.clone(), v)
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip).collect()),
        other => other.clone(),
    }
}

/// Stdout with volatile fields stripped: JSON lines field by field, human
/// lines by blanking every `<number> us` timing.
fn normalize(stdout: &str) -> String {
    stdout
        .lines()
        .map(|line| match Json::parse(line) {
            Ok(value) => strip(&value).to_string(),
            Err(_) => {
                let mut out = String::new();
                let mut rest = line;
                while let Some(start) = rest.find(|c: char| c.is_ascii_digit()) {
                    out.push_str(&rest[..start]);
                    let digits = rest[start..]
                        .find(|c: char| !c.is_ascii_digit())
                        .map_or(rest.len(), |end| start + end);
                    let after = &rest[digits..];
                    if after.starts_with(" us") {
                        out.push('#');
                    } else {
                        out.push_str(&rest[start..digits]);
                    }
                    rest = after;
                }
                out.push_str(rest);
                out
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every key path of a JSON value (`a.b`, array elements as `a[]`).
fn key_paths(value: &Json, prefix: &str, out: &mut BTreeSet<String>) {
    match value {
        Json::Obj(fields) => {
            for (key, child) in fields {
                let path = format!("{prefix}.{key}");
                out.insert(path.clone());
                key_paths(child, &path, out);
            }
        }
        Json::Arr(items) => {
            for item in items {
                key_paths(item, &format!("{prefix}[]"), out);
            }
        }
        _ => {}
    }
}

#[test]
fn remote_subcommands_agree_across_transports() {
    let dir = scratch_dir("remote");
    let framed = script("framed", &dir);
    let http = script("http", &dir);
    assert_eq!(framed.len(), http.len());

    for (a, b) in framed.iter().zip(&http) {
        assert_eq!(a.label, b.label);
        assert_eq!(
            a.code, b.code,
            "{}: exit codes differ\nframed: {a:?}\nhttp: {b:?}",
            a.label
        );
        if matches!(a.label.as_str(), "stats --json" | "metrics --json") {
            let keys = |run: &Run| {
                let mut keys = BTreeSet::new();
                key_paths(&json_of(run), "", &mut keys);
                keys
            };
            assert_eq!(keys(a), keys(b), "{}: key sets differ", a.label);
            continue;
        }
        // Over HTTP the Chrome export is the raw route body, which also
        // carries the route's reply `trace_id` and `/v1` deprecation marker
        // (`meta.api_version`); the framed reply carries the bare export.
        let http_stdout = if a.label == "trace get --chrome" {
            let Json::Obj(fields) = json_of(b) else {
                panic!("chrome export is not an object: {b:?}");
            };
            let mut markers: Vec<&str> = Vec::new();
            let export: Vec<(String, Json)> = fields
                .into_iter()
                .filter(|(key, value)| match key.as_str() {
                    "trace_id" => {
                        markers.push("trace_id");
                        false
                    }
                    "meta" => {
                        assert_eq!(value.get("api_version").and_then(Json::as_u64), Some(1));
                        markers.push("meta");
                        false
                    }
                    _ => true,
                })
                .collect();
            assert_eq!(markers, ["meta", "trace_id"], "{b:?}");
            format!("{}\n", Json::Obj(export))
        } else {
            b.stdout.clone()
        };
        assert_eq!(
            normalize(&a.stdout),
            normalize(&http_stdout),
            "{}: stdout differs\nframed: {}\nhttp: {}",
            a.label,
            a.stdout,
            b.stdout
        );
    }

    let by_label = |label: &str| {
        let framed = framed.iter().find(|run| run.label == label).unwrap();
        let http = http.iter().find(|run| run.label == label).unwrap();
        [framed, http]
    };
    for run in by_label("solve --json") {
        assert_eq!(run.code, 0, "{run:?}");
        let answer = json_of(run);
        assert_eq!(answer.get("ok").and_then(Json::as_bool), Some(true));
    }
    for run in by_label("batch") {
        assert_eq!(run.code, 1, "a failed job exits 1: {run:?}");
        assert_eq!(run.stdout.lines().count(), 2, "{run:?}");
    }
    for run in by_label("trace get --json") {
        assert_eq!(run.code, 0, "{run:?}");
        assert!(json_of(run).get("spans").is_some(), "{run:?}");
    }
    for run in by_label("trace get --chrome") {
        assert_eq!(run.code, 0, "{run:?}");
        assert!(json_of(run).get("traceEvents").is_some(), "{run:?}");
    }
    for run in by_label("trace get nope") {
        assert_eq!(run.code, 2, "{run:?}");
        assert!(run.stderr.contains("trace_not_found"), "{run:?}");
    }
    for run in by_label("snapshot save") {
        assert_eq!(run.code, 2, "{run:?}");
        assert!(run.stderr.contains("snapshot_unconfigured"), "{run:?}");
    }
    for label in [
        "session create --json",
        "session query --json",
        "session drop --json",
    ] {
        for run in by_label(label) {
            assert_eq!(run.code, 0, "{run:?}");
            assert_eq!(json_of(run).get("ok").and_then(Json::as_bool), Some(true));
        }
    }
    for run in by_label("PC_RETRIES=abc stats") {
        assert_eq!(run.code, 2, "{run:?}");
        assert!(run.stderr.contains("PC_RETRIES"), "{run:?}");
        assert!(run.stdout.is_empty(), "{run:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
