//! `pathcover-cli` — command-line front-end of the `pcservice` query engine.
//!
//! ```text
//! pathcover-cli solve <graph|-> [--format F] [--query KIND] [--json] [--remote SOCK | --remote-http ADDR]
//! pathcover-cli recognize <graph|-> [--format F] [--json] [--remote SOCK | --remote-http ADDR]
//! pathcover-cli batch <graph|-|none> <queries.jsonl|-> [--threads N] [--format F] [--human] [--remote SOCK | --remote-http ADDR]
//! pathcover-cli serve [--socket SOCK] [--http ADDR] [--snapshot PATH [--checkpoint-secs N]] [--threads N] [--cache-capacity N] [--cache-shards N] [--idle-timeout-ms MS] [--slow-ms MS]
//! pathcover-cli stats (--remote SOCK | --remote-http ADDR) [--json]
//! pathcover-cli metrics (--remote SOCK | --remote-http ADDR) [--json]
//! pathcover-cli snapshot save (--remote SOCK | --remote-http ADDR)
//! pathcover-cli snapshot inspect FILE [--json]
//! pathcover-cli session <create|add-vertex|add-edges|remove-edge|query|drop> ... (--remote SOCK | --remote-http ADDR)
//! pathcover-cli shutdown (--remote SOCK | --remote-http ADDR)
//! ```
//!
//! `<graph|->` is a file path or `-` for stdin. Formats are sniffed from
//! content (edge list / DIMACS / cotree term) unless `--format` pins one.
//! `batch` reads one JSON query object per line (see
//! `QueryRequest::from_json_line`) and emits one JSON response line per
//! query; per-job failures are reported in their own line and never abort
//! the batch.
//!
//! `serve` runs the engine as a long-lived daemon on a unix socket
//! (`--socket`, framed `pcp1` protocol), a TCP socket (`--http`, HTTP/1.1
//! routes), or both at once over one shared cache; `--remote SOCK` /
//! `--remote-http ADDR` turn `solve`/`recognize`/`batch` into thin clients
//! of one, so repeated invocations share the daemon's warm cotree cache
//! instead of paying recognition each time. Without a remote flag the
//! subcommands run in-process exactly as before.

use pcservice::client::{Client, RetryPolicy};
use pcservice::{
    CacheStatus, EngineConfig, GraphFormat, GraphSpec, Json, QueryEngine, QueryKind, QueryRequest,
    QueryResponse,
};
use std::io::{Read, Write};
use std::process::ExitCode;
use std::time::Instant;

/// `println!` for the CLI's output, through [`stdout_written`]: a reader
/// that closes stdout ends the process quietly instead of in a panic.
macro_rules! out {
    ($($arg:tt)*) => {
        stdout_written(writeln!(std::io::stdout(), $($arg)*))
    };
}

/// Ends the process when a write to stdout failed: quietly with exit code
/// 141 when its reader has gone (a broken pipe, as in `| head`), which is
/// what a shell reports for a process killed by `SIGPIPE`; with a message
/// and exit code 2 on any other failure.
fn stdout_written(written: std::io::Result<()>) {
    if let Err(error) = written {
        if error.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: writing stdout: {error}");
            std::process::exit(2);
        }
        std::process::exit(141);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "solve" => cmd_solve(rest, false),
        "recognize" => cmd_solve(rest, true),
        "batch" => cmd_batch(rest),
        "serve" => cmd_serve(rest),
        "stats" => cmd_stats(rest),
        "metrics" => cmd_metrics(rest),
        "snapshot" => cmd_snapshot(rest),
        "session" => cmd_session(rest),
        "trace" => cmd_trace(rest),
        "shutdown" => cmd_shutdown(rest),
        "--help" | "-h" | "help" => {
            out!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "pathcover-cli — batched minimum path cover queries on cographs

USAGE:
    pathcover-cli solve <graph|-> [--format F] [--query KIND] [--json]
                        [--remote SOCK | --remote-http ADDR]
    pathcover-cli recognize <graph|-> [--format F] [--json] [--remote SOCK | --remote-http ADDR]
    pathcover-cli batch <graph|-|none> <queries.jsonl|-> [--threads N] [--format F] [--human]
                        [--remote SOCK | --remote-http ADDR]
    pathcover-cli serve [--socket SOCK] [--http ADDR] [--snapshot PATH [--checkpoint-secs N]]
                        [--threads N] [--cache-capacity N] [--cache-shards N]
                        [--idle-timeout-ms MS] [--slow-ms MS]
                        [--max-inflight N] [--max-connections N] [--max-requests-per-conn N]
                        [--drain-timeout-ms MS] [--fault-spec SPEC] [--log-level LEVEL]
    pathcover-cli stats (--remote SOCK | --remote-http ADDR) [--json]
    pathcover-cli metrics (--remote SOCK | --remote-http ADDR) [--json]
    pathcover-cli trace list (--remote SOCK | --remote-http ADDR) [--json]
    pathcover-cli trace get ID (--remote SOCK | --remote-http ADDR) [--chrome | --json]
    pathcover-cli trace watch (--remote SOCK | --remote-http ADDR) [--interval-ms MS]
    pathcover-cli snapshot save (--remote SOCK | --remote-http ADDR)
    pathcover-cli snapshot inspect FILE [--json]
    pathcover-cli session create [<graph|->] [--format F] (--remote SOCK | --remote-http ADDR) [--json]
    pathcover-cli session add-vertex HANDLE [--neighbors 0,2,5] (--remote ... | --remote-http ...) [--json]
    pathcover-cli session add-edges HANDLE U V [U V ...] (--remote ... | --remote-http ...) [--json]
    pathcover-cli session remove-edge HANDLE U V (--remote ... | --remote-http ...) [--json]
    pathcover-cli session query HANDLE [--query KIND] (--remote ... | --remote-http ...) [--json]
    pathcover-cli session drop HANDLE (--remote ... | --remote-http ...) [--json]
    pathcover-cli shutdown (--remote SOCK | --remote-http ADDR)

FORMATS (sniffed from content when --format is omitted):
    edge-list   '<u> <v>' per line, 0-based; a lone id declares a vertex; # comments
    dimacs      'p edge <n> <m>' header, 'e <u> <v>' lines, 1-based
    cotree      term notation: (u ...) union, (j ...) join, names as leaves

QUERY KINDS:
    min_cover_size | full_cover | hamiltonian_path | hamiltonian_cycle | recognize

SERVING:
    'serve' owns a shared cotree cache behind a unix socket (--socket, framed
    pcp1 protocol), an HTTP/1.1 listener (--http ADDR; --http 127.0.0.1:0
    picks a free port), or both at once. '--remote SOCK' / '--remote-http ADDR'
    make solve/recognize/batch thin clients of it. 'stats' snapshots the
    daemon's cache counters; 'metrics' dumps the full telemetry registry
    (request/stage latency histograms, connection gauges — also scrapeable
    as Prometheus text from GET /v1/metrics); '--slow-ms MS' logs requests
    slower than MS milliseconds with their trace IDs; 'shutdown' stops it
    gracefully. Covers and Hamiltonian witnesses come from the sequential
    Lemma 2.3 solver and are verified before they are returned: against the
    request's graph when it arrived as one, otherwise on the cotree (every
    consecutive pair's lowest common ancestor must be a join), and against
    the minimum path count.

RESILIENCE:
    '--max-inflight N' caps concurrently executing work requests (excess is
    rejected with a typed, retryable 'overloaded' error carrying
    retry_after_ms; HTTP clients see 503 + Retry-After). '--max-connections
    N' caps accepted connections per listener; '--max-requests-per-conn N'
    closes a connection after N requests (the last reply is an 'overloaded'
    shed). Requests may carry a deadline ('deadline_ms' on the v2 envelope,
    'X-Deadline-Ms' over HTTP); expired work fails with 'deadline_exceeded'.
    Shutdown drains: in-flight requests get '--drain-timeout-ms MS'
    (default 5000) to finish before connections are forced closed. Setting
    PC_RETRIES=N makes the thin clients retry 'overloaded' rejections up to
    N times with jittered exponential backoff honoring the server's
    retry_after_ms hint. '--fault-spec SPEC' (or PC_FAULTS) enables the
    built-in fault-injection harness for chaos testing, e.g.
    'frame_stall_ms=20,panic_rate=0.05,overload_rate=0.2,seed=42'.

OBSERVABILITY:
    The daemon keeps a bounded in-memory flight recorder of per-request
    traces (root span, pipeline stages, cache lookups, lock waits) with
    tail sampling: errored/overloaded/deadline-exceeded requests and the
    slowest ones are always retained. 'trace list' shows the retained
    index, 'trace get ID' prints one trace ('--chrome' emits Chrome
    trace-event JSON — redirect to a file and load it in chrome://tracing
    or Perfetto), 'trace watch' tails new retained traces. The daemon logs
    JSON lines to stderr (one object per line, every line carrying a
    trace_id where one exists); '--log-level error|warn|info|debug|off'
    (or PC_LOG) sets the threshold.

PARALLEL EXECUTION:
    '--threads N' on 'batch' and 'serve' sets how many worker threads a
    batch fans out across; 0 or unset means one per available CPU. Each
    solve runs on one thread with the sequential solver. The paper's
    parallel pipeline runs only on the library's PRAM simulator, which
    measures its steps and work; it is not a serving route.

PERSISTENCE:
    '--snapshot PATH' makes restarts warm: the cache's cotrees, graph links
    and LRU order are saved to PATH on shutdown (and every
    --checkpoint-secs N while serving) and reloaded on the next serve, which
    recomputes every key and answer from the cotrees; a file that fails its
    checks is quarantined to PATH.corrupt. 'snapshot save' checkpoints a
    running daemon now; 'snapshot inspect FILE' checks a snapshot offline.

SESSIONS (v2 API):
    'session' verbs talk the versioned v2 envelope (POST /v2/query over
    --remote-http, pcp2 frames over --remote) to a daemon-resident graph
    handle whose cotree is maintained incrementally across mutations.
    'create' opens a handle (empty, or seeded from a graph file); 'add-vertex'
    inserts one vertex wired to --neighbors (incremental recognition, no full
    re-run); 'add-edges'/'remove-edge' mutate existing vertices; 'query' runs
    any QUERY KIND against the resident cotree; 'drop' releases the handle.
    A mutation that would leave a non-cograph is rejected with its induced-P4
    witness and the session stays at the last good state.

EXIT CODES:
    0 success; 1 a failed solve or any failed batch job; 2 a usage or other
    error; 141 when the reader closes stdout early (as in '| head'): the
    command ends quietly, with the code a shell reports for SIGPIPE.";

/// Pull the value of `--flag VALUE` out of `args`, if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Pull the numeric value of `--flag N` out of `args`, defaulting when the
/// flag is absent.
fn take_num_flag(args: &mut Vec<String>, flag: &str, default: usize) -> Result<usize, String> {
    match take_flag(args, flag)? {
        Some(t) => t
            .parse()
            .map_err(|_| format!("{flag}: '{t}' is not a number")),
        None => Ok(default),
    }
}

/// Pull a boolean `--flag` out of `args`.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(text)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

fn graph_spec(text: String, format: Option<&str>) -> Result<GraphSpec, String> {
    let format = match format {
        Some(name) => {
            GraphFormat::parse_name(name).ok_or_else(|| format!("unknown format '{name}'"))?
        }
        None => GraphFormat::sniff(&text),
    };
    Ok(match format {
        GraphFormat::EdgeList => GraphSpec::EdgeList(text),
        GraphFormat::Dimacs => GraphSpec::Dimacs(text),
        GraphFormat::CotreeTerm => GraphSpec::CotreeTerm(text),
    })
}

fn cmd_solve(args: &[String], recognize_mode: bool) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let format = take_flag(&mut args, "--format")?;
    let query = take_flag(&mut args, "--query")?;
    let remote = take_remote(&mut args)?;
    let json = take_switch(&mut args, "--json");
    let [graph_path] = args.as_slice() else {
        return Err(format!("expected exactly one <graph> argument\n{USAGE}"));
    };
    let kind = if recognize_mode {
        if query.is_some() {
            return Err("'recognize' does not take --query".to_string());
        }
        QueryKind::Recognize
    } else {
        match query.as_deref() {
            None => QueryKind::FullCover,
            Some(name) => {
                QueryKind::parse(name).ok_or_else(|| format!("unknown query kind '{name}'"))?
            }
        }
    };
    let spec = graph_spec(read_input(graph_path)?, format.as_deref())?;
    let request = QueryRequest::new(kind, spec);
    let response_json = match remote {
        Some(target) => {
            let mut client = target.connect()?;
            client
                .solve(&request)
                .map_err(|e| format!("remote solve: {e}"))?
        }
        None => QueryEngine::new(EngineConfig::default())
            .execute(&request)
            .to_json(),
    };
    let failed = response_json.get("ok").and_then(Json::as_bool) != Some(true);
    if json {
        out!("{response_json}");
    } else {
        print_human_json(&response_json);
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Renders a path (a JSON array of vertex ids) as `0 -> 1 -> 2`.
fn render_path(path: &Json) -> String {
    let Json::Arr(vs) = path else {
        return path.to_string();
    };
    vs.iter()
        .map(|v| v.as_u64().map_or_else(|| v.to_string(), |v| v.to_string()))
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Human-readable rendering of one response object (the
/// [`QueryResponse::to_json`] shape). Working on the JSON form keeps the
/// printer identical for in-process responses and frames relayed from a
/// remote daemon.
fn print_human_json(response: &Json) {
    let kind = response.get("kind").and_then(Json::as_str).unwrap_or("?");
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        let code = response
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("unknown");
        let message = response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("(no message)");
        out!("error [{code}]: {message}");
        // A not_a_cograph rejection carries its induced-P4 certificate; show
        // it on its own line so scripts scraping human output can grab it.
        if let Some(Json::Arr(p4)) = response.get("error").and_then(|e| e.get("p4")) {
            let path = p4
                .iter()
                .map(Json::to_string)
                .collect::<Vec<_>>()
                .join(" - ");
            out!("  induced P4: {path}");
        }
    } else if let Some(answer) = response.get("answer") {
        let flag = |field: &str| answer.get(field).and_then(Json::as_bool) == Some(true);
        match kind {
            "min_cover_size" => {
                let size = answer.get("size").and_then(Json::as_u64).unwrap_or(0);
                out!("minimum path cover size: {size}");
            }
            "full_cover" => {
                let size = answer.get("size").and_then(Json::as_u64).unwrap_or(0);
                let verified = if flag("verified") { " (verified)" } else { "" };
                out!("minimum path cover: {size} path(s){verified}");
                if let Some(Json::Arr(paths)) = answer.get("paths") {
                    for (i, path) in paths.iter().enumerate() {
                        out!("  path {}: {}", i + 1, render_path(path));
                    }
                }
            }
            "hamiltonian_path" => {
                out!(
                    "hamiltonian path: {}",
                    if flag("exists") { "yes" } else { "no" }
                );
                if let Some(Json::Arr(paths)) = answer.get("path") {
                    for path in paths {
                        out!("  witness: {}", render_path(path));
                    }
                }
            }
            "hamiltonian_cycle" => {
                out!(
                    "hamiltonian cycle: {}",
                    if flag("exists") { "yes" } else { "no" }
                );
            }
            "recognize" => {
                let num = |field: &str| answer.get(field).and_then(Json::as_u64).unwrap_or(0);
                out!("cograph: yes ({} vertices, {} edges)", num("n"), num("m"));
                out!(
                    "  cotree: {} nodes, height {}",
                    num("cotree_nodes"),
                    num("height")
                );
                out!(
                    "  term: {}",
                    answer.get("term").and_then(Json::as_str).unwrap_or("?")
                );
            }
            other => out!("{other}: {answer}"),
        }
    }
    if let Some(meta) = response.get("meta") {
        let num = |field: &str| meta.get(field).and_then(Json::as_u64).unwrap_or(0);
        out!(
            "  [{} us solve, {} us total, cache {}{}]",
            num("solve_us"),
            num("total_us"),
            meta.get("cache").and_then(Json::as_str).unwrap_or("?"),
            meta.get("key")
                .and_then(Json::as_str)
                .map(|k| format!(", key {k}"))
                .unwrap_or_default()
        );
    }
}

fn cmd_batch(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let format = take_flag(&mut args, "--format")?;
    let remote = take_remote(&mut args)?;
    let threads_flag = take_flag(&mut args, "--threads")?;
    if remote.is_some() && threads_flag.is_some() {
        return Err(
            "--threads is a server-side setting when a remote is used; configure it on 'serve'"
                .to_string(),
        );
    }
    let threads: usize = match threads_flag {
        Some(t) => t
            .parse()
            .map_err(|_| format!("--threads: '{t}' is not a number"))?,
        None => 0,
    };
    let human = take_switch(&mut args, "--human");
    let [graph_path, query_path] = args.as_slice() else {
        return Err(format!(
            "expected <graph|none> and <queries.jsonl> arguments\n{USAGE}"
        ));
    };
    if graph_path == "-" && query_path == "-" {
        return Err("only one of <graph> and <queries> can come from stdin".to_string());
    }
    let shared = if graph_path == "none" {
        None
    } else {
        Some(graph_spec(read_input(graph_path)?, format.as_deref())?)
    };
    let query_text = read_input(query_path)?;
    let mut requests: Vec<(usize, QueryRequest)> = Vec::new();
    let mut line_errors: Vec<(usize, Json)> = Vec::new();
    for (idx, line) in query_text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match QueryRequest::from_json_line(line) {
            Ok(request) => requests.push((idx + 1, request)),
            Err(error) => {
                // A malformed line fails alone, mirroring per-job isolation.
                let response = QueryResponse {
                    id: None,
                    kind: QueryKind::Recognize,
                    outcome: Err(error),
                    meta: pcservice::ResponseMeta {
                        solve_micros: 0,
                        total_micros: 0,
                        cache: CacheStatus::Bypass,
                        canonical_key: None,
                        vertices: 0,
                        trace_id: None,
                    },
                };
                line_errors.push((idx + 1, response.to_json()));
            }
        }
    }
    let request_objs: Vec<QueryRequest> = requests.iter().map(|(_, r)| r.clone()).collect();
    let started = Instant::now();
    let (responses, stats_line) = match &remote {
        Some(target) => {
            let mut client = target.connect()?;
            let responses = client
                .batch(shared, request_objs)
                .map_err(|e| format!("remote batch: {e}"))?;
            let stats = client.stats().map_err(|e| format!("remote stats: {e}"))?;
            (responses, render_stats_summary(&stats))
        }
        None => {
            let engine = QueryEngine::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            });
            let responses: Vec<Json> = engine
                .execute_batch(shared.as_ref(), &request_objs)
                .iter()
                .map(QueryResponse::to_json)
                .collect();
            let stats = engine.cache_stats();
            (
                responses,
                format!(
                    "{} hits, {} misses, {} evictions, {} resident",
                    stats.hits, stats.misses, stats.evictions, stats.entries
                ),
            )
        }
    };
    let elapsed = started.elapsed();

    // Merge solved responses and line errors back into input order.
    let mut all: Vec<(usize, Json)> = requests
        .iter()
        .map(|(line, _)| *line)
        .zip(responses)
        .collect();
    all.extend(line_errors);
    all.sort_by_key(|(line, _)| *line);

    let failures = all
        .iter()
        .filter(|(_, r)| r.get("ok").and_then(Json::as_bool) != Some(true))
        .count();
    for (line, response) in &all {
        if human {
            let id = response
                .get("id")
                .and_then(Json::as_str)
                .map(str::to_string)
                .unwrap_or_else(|| format!("line {line}"));
            stdout_written(write!(std::io::stdout(), "[{id}] "));
            print_human_json(response);
        } else {
            out!("{response}");
        }
    }
    eprintln!(
        "batch{}: {} queries in {:.1} ms ({} failed) — cache: {}",
        if remote.is_some() { " (remote)" } else { "" },
        all.len(),
        elapsed.as_secs_f64() * 1e3,
        failures,
        stats_line
    );
    // The batch itself always completes (per-job isolation), but scripts
    // chaining the CLI still need a signal when any job failed.
    Ok(if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// One-line summary of a daemon `stats` payload, for batch footers.
fn render_stats_summary(stats: &Json) -> String {
    let num = |field: &str| stats.get(field).and_then(Json::as_u64).unwrap_or(0);
    format!(
        "{} hits, {} misses, {} evictions, {} resident (daemon totals)",
        num("hits"),
        num("misses"),
        num("evictions"),
        num("entries")
    )
}

/// Which remote daemon transport a subcommand targets.
enum RemoteTarget {
    /// `--remote SOCK`: the framed protocol over a unix socket.
    Socket(String),
    /// `--remote-http ADDR`: the HTTP/1.1 front-end.
    Http(String),
}

/// Pulls `--remote SOCK` / `--remote-http ADDR` out of `args` (at most one).
fn take_remote(args: &mut Vec<String>) -> Result<Option<RemoteTarget>, String> {
    let socket = take_flag(args, "--remote")?;
    let http = take_flag(args, "--remote-http")?;
    match (socket, http) {
        (Some(_), Some(_)) => Err("--remote and --remote-http are mutually exclusive".to_string()),
        (Some(socket), None) => Ok(Some(RemoteTarget::Socket(socket))),
        (None, Some(addr)) => Ok(Some(RemoteTarget::Http(addr))),
        (None, None) => Ok(None),
    }
}

/// The client retry policy requested via `PC_RETRIES=N` (None when unset
/// or zero: fail fast on `overloaded`).
fn env_retry_policy() -> Result<Option<RetryPolicy>, String> {
    match std::env::var("PC_RETRIES") {
        Ok(text) if !text.is_empty() => {
            let max_retries: u32 = text
                .parse()
                .map_err(|_| format!("PC_RETRIES: '{text}' is not a number"))?;
            Ok((max_retries != 0).then(|| RetryPolicy {
                max_retries,
                ..RetryPolicy::default()
            }))
        }
        _ => Ok(None),
    }
}

impl RemoteTarget {
    /// Connects to the daemon over this target's transport. Both answer
    /// with identical reply payloads (the HTTP front-end reuses the framed
    /// protocol's dispatch — see `pcservice::http`), so every subcommand is
    /// transport-agnostic.
    fn connect(&self) -> Result<Client, String> {
        let retry = env_retry_policy()?;
        let client = match self {
            #[cfg(unix)]
            RemoteTarget::Socket(socket) => pcservice::daemon::connect(socket)
                .map_err(|e| format!("connecting to {socket}: {e}"))?,
            #[cfg(not(unix))]
            RemoteTarget::Socket(_) => {
                return Err(
                    "--remote requires unix domain sockets, unavailable on this \
                     platform; use --remote-http"
                        .to_string(),
                )
            }
            RemoteTarget::Http(addr) => {
                Client::connect(addr).map_err(|e| format!("connecting to http://{addr}: {e}"))?
            }
        };
        Ok(match retry {
            Some(policy) => client.with_retry(policy),
            None => client,
        })
    }
}

fn cmd_snapshot(args: &[String]) -> Result<ExitCode, String> {
    let Some((action, rest)) = args.split_first() else {
        return Err(format!(
            "'snapshot' needs an action: save or inspect\n{USAGE}"
        ));
    };
    match action.as_str() {
        "save" => {
            let mut rest = rest.to_vec();
            let remote = take_remote(&mut rest)?.ok_or_else(|| {
                format!("'snapshot save' needs --remote SOCK or --remote-http ADDR\n{USAGE}")
            })?;
            if !rest.is_empty() {
                return Err(format!("unexpected arguments: {rest:?}"));
            }
            let mut client = remote.connect()?;
            let reply = client
                .save_snapshot()
                .map_err(|e| format!("remote snapshot: {e}"))?;
            let num = |field: &str| reply.get(field).and_then(Json::as_u64).unwrap_or(0);
            eprintln!(
                "snapshot saved: {} entries ({} graph links), {} bytes to {}",
                num("entries"),
                num("links"),
                num("bytes"),
                reply.get("path").and_then(Json::as_str).unwrap_or("?"),
            );
            Ok(ExitCode::SUCCESS)
        }
        "inspect" => {
            let mut rest = rest.to_vec();
            let json = take_switch(&mut rest, "--json");
            let [path] = rest.as_slice() else {
                return Err(format!(
                    "'snapshot inspect' needs exactly one FILE\n{USAGE}"
                ));
            };
            // Inspection runs the loader's checks (checksum, header, terms,
            // link labels) against the file without touching any cache.
            let report = pcservice::snapshot::inspect(std::path::Path::new(path))
                .map_err(|e| format!("{path}: {e}"))?;
            if json {
                out!(
                    "{}",
                    Json::obj(vec![
                        ("version", Json::num(report.version)),
                        ("entries", Json::num(report.entries as u64)),
                        ("links", Json::num(report.links as u64)),
                        ("total_vertices", Json::num(report.total_vertices as u64)),
                        ("bytes", Json::num(report.bytes)),
                    ])
                );
            } else {
                out!(
                    "{path}: pcsnap{} — {} entries ({} graph links), \
                     {} vertices total, {} bytes",
                    report.version,
                    report.entries,
                    report.links,
                    report.total_vertices,
                    report.bytes
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown snapshot action '{other}'\n{USAGE}")),
    }
}

/// Builds one v2 request envelope (`{"api_version":2,"op":...,"target":...,
/// "params":...}`).
fn v2_envelope(op: &str, target: Option<Json>, params: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![
        ("api_version", Json::num(pcservice::API_VERSION)),
        ("op", Json::str(op)),
    ];
    if let Some(target) = target {
        fields.push(("target", target));
    }
    if !params.is_empty() {
        fields.push(("params", Json::obj(params)));
    }
    Json::obj(fields)
}

/// The `{"session": HANDLE}` target object.
fn session_target(handle: &str) -> Json {
    Json::obj(vec![("session", Json::str(handle))])
}

fn parse_vertex(text: &str, what: &str) -> Result<Json, String> {
    text.trim()
        .parse::<u32>()
        .map(|v| Json::num(v as u64))
        .map_err(|_| format!("{what}: '{text}' is not a vertex id"))
}

/// One human-readable line for a session-state reply (`create` and every
/// mutation answer this shape).
fn print_session_state(result: &Json) {
    let num = |field: &str| result.get(field).and_then(Json::as_u64).unwrap_or(0);
    let new_vertex = result
        .get("new_vertex")
        .and_then(Json::as_u64)
        .map(|v| format!(", new vertex {v}"))
        .unwrap_or_default();
    out!(
        "session {}: {} vertices, {} edges (mutation #{}, cotree {}{new_vertex})",
        result.get("handle").and_then(Json::as_str).unwrap_or("?"),
        num("vertices"),
        num("edges"),
        num("mutations"),
        result
            .get("maintenance")
            .and_then(Json::as_str)
            .unwrap_or("?"),
    );
}

fn cmd_session(args: &[String]) -> Result<ExitCode, String> {
    let Some((action, rest)) = args.split_first() else {
        return Err(format!(
            "'session' needs an action: create, add-vertex, add-edges, remove-edge, query or drop\n{USAGE}"
        ));
    };
    let mut rest = rest.to_vec();
    let remote = take_remote(&mut rest)?.ok_or_else(|| {
        format!("'session {action}' needs --remote SOCK or --remote-http ADDR\n{USAGE}")
    })?;
    let json = take_switch(&mut rest, "--json");
    let envelope = match action.as_str() {
        "create" => {
            let format = take_flag(&mut rest, "--format")?;
            let target = match rest.as_slice() {
                [] => None,
                [graph_path] => {
                    let spec = graph_spec(read_input(graph_path)?, format.as_deref())?;
                    Some(spec.to_json().expect("inline specs always serialise"))
                }
                _ => {
                    return Err(format!(
                        "'session create' takes at most one <graph>\n{USAGE}"
                    ))
                }
            };
            v2_envelope("session_create", target, vec![])
        }
        "add-vertex" => {
            let neighbors = take_flag(&mut rest, "--neighbors")?;
            let [handle] = rest.as_slice() else {
                return Err(format!(
                    "'session add-vertex' needs exactly one HANDLE\n{USAGE}"
                ));
            };
            let neighbors: Vec<Json> = match neighbors {
                None => vec![],
                Some(list) => list
                    .split(',')
                    .filter(|t| !t.trim().is_empty())
                    .map(|t| parse_vertex(t, "--neighbors"))
                    .collect::<Result<_, _>>()?,
            };
            v2_envelope(
                "session_add_vertex",
                Some(session_target(handle)),
                vec![("neighbors", Json::Arr(neighbors))],
            )
        }
        "add-edges" => {
            let Some((handle, vertices)) = rest.split_first() else {
                return Err(format!(
                    "'session add-edges' needs HANDLE U V [U V ...]\n{USAGE}"
                ));
            };
            if vertices.is_empty() || vertices.len() % 2 != 0 {
                return Err(
                    "'session add-edges' needs an even, non-zero number of vertex ids \
                     (each U V pair is one edge)"
                        .to_string(),
                );
            }
            let edges: Vec<Json> = vertices
                .chunks(2)
                .map(|pair| {
                    Ok(Json::Arr(vec![
                        parse_vertex(&pair[0], "add-edges")?,
                        parse_vertex(&pair[1], "add-edges")?,
                    ]))
                })
                .collect::<Result<_, String>>()?;
            v2_envelope(
                "session_add_edges",
                Some(session_target(handle)),
                vec![("edges", Json::Arr(edges))],
            )
        }
        "remove-edge" => {
            let [handle, u, v] = rest.as_slice() else {
                return Err(format!("'session remove-edge' needs HANDLE U V\n{USAGE}"));
            };
            v2_envelope(
                "session_remove_edge",
                Some(session_target(handle)),
                vec![(
                    "edge",
                    Json::Arr(vec![
                        parse_vertex(u, "remove-edge")?,
                        parse_vertex(v, "remove-edge")?,
                    ]),
                )],
            )
        }
        "query" => {
            let query = take_flag(&mut rest, "--query")?;
            let [handle] = rest.as_slice() else {
                return Err(format!("'session query' needs exactly one HANDLE\n{USAGE}"));
            };
            let kind = match query.as_deref() {
                None => QueryKind::FullCover,
                Some(name) => {
                    QueryKind::parse(name).ok_or_else(|| format!("unknown query kind '{name}'"))?
                }
            };
            v2_envelope(
                "session_query",
                Some(session_target(handle)),
                vec![("kind", Json::str(kind.as_str()))],
            )
        }
        "drop" => {
            let [handle] = rest.as_slice() else {
                return Err(format!("'session drop' needs exactly one HANDLE\n{USAGE}"));
            };
            v2_envelope("session_drop", Some(session_target(handle)), vec![])
        }
        other => return Err(format!("unknown session action '{other}'\n{USAGE}")),
    };
    let mut client = remote.connect()?;
    let reply = client
        .query_v2(&envelope)
        .map_err(|e| format!("remote session {action}: {e}"))?;
    if json {
        out!("{reply}");
    } else if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        // Operation-level failure: print the typed error (and, for a
        // rejected insertion, its induced-P4 certificate) like solve does.
        let error = reply.get("error").cloned().unwrap_or(Json::Null);
        out!(
            "error [{}]: {}",
            error
                .get("code")
                .and_then(Json::as_str)
                .unwrap_or("unknown"),
            error
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("(no message)")
        );
        if let Some(Json::Arr(p4)) = error.get("p4") {
            let path = p4
                .iter()
                .map(Json::to_string)
                .collect::<Vec<_>>()
                .join(" - ");
            out!("  induced P4: {path}");
        }
    } else {
        let result = reply.get("result").cloned().unwrap_or(Json::Null);
        match action.as_str() {
            "query" => print_human_json(&result),
            "drop" => out!(
                "session {} dropped",
                result.get("handle").and_then(Json::as_str).unwrap_or("?")
            ),
            _ => print_session_state(&result),
        }
    }
    let failed = reply.get("ok").and_then(Json::as_bool) != Some(true)
        || (action == "query"
            && reply
                .get("result")
                .and_then(|r| r.get("ok"))
                .and_then(Json::as_bool)
                != Some(true));
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    #[cfg(not(unix))]
    {
        let _ = args;
        Err("'serve' requires unix domain sockets, unavailable on this platform".to_string())
    }
    #[cfg(unix)]
    {
        let mut args = args.to_vec();
        let socket = take_flag(&mut args, "--socket")?;
        let http = take_flag(&mut args, "--http")?;
        if socket.is_none() && http.is_none() {
            return Err(format!(
                "'serve' needs --socket PATH and/or --http ADDR\n{USAGE}"
            ));
        }
        let threads = take_num_flag(&mut args, "--threads", 0)?;
        let cache_capacity = take_num_flag(
            &mut args,
            "--cache-capacity",
            EngineConfig::default().cache_capacity,
        )?;
        let cache_shards = take_num_flag(&mut args, "--cache-shards", 0)?;
        let idle_timeout_ms = take_num_flag(&mut args, "--idle-timeout-ms", 30_000)?;
        let snapshot = take_flag(&mut args, "--snapshot")?;
        let checkpoint_secs = match take_flag(&mut args, "--checkpoint-secs")? {
            Some(t) => Some(
                t.parse::<usize>()
                    .map_err(|_| format!("--checkpoint-secs: '{t}' is not a number"))?,
            ),
            None => None,
        };
        if checkpoint_secs.is_some() && snapshot.is_none() {
            return Err("--checkpoint-secs needs --snapshot PATH".to_string());
        }
        let slow_ms = match take_flag(&mut args, "--slow-ms")? {
            Some(t) => Some(
                t.parse::<u64>()
                    .map_err(|_| format!("--slow-ms: '{t}' is not a number"))?,
            ),
            None => None,
        };
        let max_inflight = take_num_flag(&mut args, "--max-inflight", 0)?;
        let max_connections = take_num_flag(&mut args, "--max-connections", 0)?;
        let max_requests_per_conn = take_num_flag(&mut args, "--max-requests-per-conn", 0)?;
        let drain_timeout_ms = take_num_flag(&mut args, "--drain-timeout-ms", 5_000)?;
        let fault_spec = match take_flag(&mut args, "--fault-spec")? {
            Some(text) => Some(text),
            None => std::env::var("PC_FAULTS").ok().filter(|v| !v.is_empty()),
        };
        let faults = match fault_spec {
            Some(text) => pcservice::FaultSpec::parse(&text)
                .map_err(|e| format!("--fault-spec/PC_FAULTS: {e}"))?,
            None => pcservice::FaultSpec::default(),
        };
        // Structured-log threshold: the flag wins, PC_LOG is the fallback,
        // the compiled-in default (info) applies when neither is set.
        match take_flag(&mut args, "--log-level")? {
            Some(text) => pcservice::log::set_level(
                pcservice::log::Level::parse(&text).map_err(|e| format!("--log-level: {e}"))?,
            ),
            None => pcservice::log::init_from_env().map_err(|e| format!("PC_LOG: {e}"))?,
        }
        if !args.is_empty() {
            return Err(format!("unexpected arguments: {args:?}"));
        }
        let config = pcservice::DaemonConfig {
            socket_path: socket.map(std::path::PathBuf::from),
            http_addr: http,
            idle_timeout: std::time::Duration::from_millis(idle_timeout_ms.max(1) as u64),
            snapshot_path: snapshot.map(std::path::PathBuf::from),
            checkpoint_interval: checkpoint_secs
                .map(|secs| std::time::Duration::from_secs(secs.max(1) as u64)),
            max_connections,
            max_requests_per_conn: max_requests_per_conn as u64,
            drain_timeout: std::time::Duration::from_millis(drain_timeout_ms.max(1) as u64),
            faults,
            engine: EngineConfig {
                threads,
                cache_capacity,
                cache_shards,
                slow_log_micros: slow_ms.map(|ms| ms.saturating_mul(1000)),
                max_inflight,
                ..EngineConfig::default()
            },
        };
        eprintln!(
            "threads: {} batch workers resolved from --threads {threads} \
             (0 = available parallelism)",
            config.engine.resolved_threads()
        );
        let daemon = pcservice::Daemon::bind(config).map_err(|e| format!("binding: {e}"))?;
        if let Some(outcome) = daemon.snapshot_load() {
            use pcservice::LoadOutcome;
            match outcome {
                LoadOutcome::ColdStart => eprintln!("snapshot: no file yet, starting cold"),
                LoadOutcome::Warm(report) => eprintln!(
                    "snapshot: warm start — {} entries ({} graph links) loaded",
                    report.entries, report.links
                ),
                LoadOutcome::Unreadable(error) => {
                    eprintln!("snapshot: unreadable ({error}); file left in place — starting cold")
                }
                LoadOutcome::Quarantined { error, moved_to } => eprintln!(
                    "snapshot: REJECTED ({error}); {} — starting cold",
                    match moved_to {
                        Some(path) => format!("file quarantined to {}", path.display()),
                        None => "file could not be quarantined".to_string(),
                    }
                ),
            }
        }
        if let Some(path) = daemon.socket_path() {
            eprintln!(
                "pathcover daemon serving on {} (proto pcp{}; run 'pathcover-cli shutdown \
                 --remote {}' to stop)",
                path.display(),
                pcservice::PROTO_VERSION,
                path.display()
            );
        }
        if let Some(addr) = daemon.http_addr() {
            // The resolved address matters when --http asked for port 0.
            eprintln!(
                "pathcover daemon serving http on {addr} (POST /v1/solve, POST /v1/batch, \
                 GET /v1/stats, GET /healthz, POST /v2/query; POST /v1/shutdown to stop)"
            );
        }
        daemon.run().map_err(|e| format!("serving: {e}"))?;
        eprintln!("pathcover daemon stopped");
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_stats(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let remote = take_remote(&mut args)?
        .ok_or_else(|| format!("'stats' needs --remote SOCK or --remote-http ADDR\n{USAGE}"))?;
    let json = take_switch(&mut args, "--json");
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    let mut client = remote.connect()?;
    let stats = client.stats().map_err(|e| format!("remote stats: {e}"))?;
    if json {
        out!("{stats}");
        return Ok(ExitCode::SUCCESS);
    }
    let num = |field: &str| stats.get(field).and_then(Json::as_u64).unwrap_or(0);
    out!(
        "cache: {} hits, {} misses, {} evictions, {} resident across {} shards",
        num("hits"),
        num("misses"),
        num("evictions"),
        num("entries"),
        num("shards"),
    );
    if let Some(Json::Num(rate)) = stats.get("hit_rate") {
        out!("hit rate: {:.1}%", rate * 100.0);
    }
    out!("uptime: {} s", num("uptime_secs"));
    match stats.get("snapshot") {
        None | Some(Json::Null) => out!("snapshot: not configured"),
        Some(snapshot) => {
            let snum = |field: &str| snapshot.get(field).and_then(Json::as_u64);
            out!(
                "snapshot: {} — {} entries loaded at start, last checkpoint {}",
                snapshot.get("path").and_then(Json::as_str).unwrap_or("?"),
                snum("loaded_entries").unwrap_or(0),
                match snum("last_checkpoint_unix") {
                    Some(unix) => format!("at unix {unix}"),
                    None => "never".to_string(),
                }
            );
        }
    }
    if let Some(Json::Arr(shards)) = stats.get("per_shard") {
        for (i, shard) in shards.iter().enumerate() {
            let num = |field: &str| shard.get(field).and_then(Json::as_u64).unwrap_or(0);
            // Older daemons omit the per-shard rate: derive it so the
            // column renders against any server version.
            let rate = match shard.get("hit_rate") {
                Some(Json::Num(rate)) => *rate,
                _ => {
                    let looked_up = num("hits") + num("misses");
                    if looked_up == 0 {
                        0.0
                    } else {
                        num("hits") as f64 / looked_up as f64
                    }
                }
            };
            out!(
                "  shard {i}: {} hits, {} misses, {} evictions, {} resident, {:.1}% hit rate",
                num("hits"),
                num("misses"),
                num("evictions"),
                num("entries"),
                rate * 100.0,
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders one latency summary object (`count`/`mean_us`/`p50_us`/...) on
/// a single line, used for both pipeline stages and request histograms.
fn render_latency_summary(label: &str, summary: &Json) {
    let num = |field: &str| summary.get(field).and_then(Json::as_u64).unwrap_or(0);
    if num("count") == 0 {
        out!("  {label}: no samples");
        return;
    }
    out!(
        "  {label}: {} samples, mean {} us, p50 {} us, p90 {} us, p99 {} us",
        num("count"),
        num("mean_us"),
        num("p50_us"),
        num("p90_us"),
        num("p99_us"),
    );
}

fn cmd_metrics(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let remote = take_remote(&mut args)?
        .ok_or_else(|| format!("'metrics' needs --remote SOCK or --remote-http ADDR\n{USAGE}"))?;
    let json = take_switch(&mut args, "--json");
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    let mut client = remote.connect()?;
    let metrics = client
        .metrics()
        .map_err(|e| format!("remote metrics: {e}"))?;
    if json {
        out!("{metrics}");
        return Ok(ExitCode::SUCCESS);
    }
    let num = |field: &str| metrics.get(field).and_then(Json::as_u64).unwrap_or(0);
    out!(
        "requests: {} total, uptime {} s",
        num("requests_total"),
        num("uptime_secs")
    );
    if let Some(Json::Obj(kinds)) = metrics.get("requests") {
        for (kind, outcomes) in kinds {
            let Json::Obj(outcomes) = outcomes else {
                continue;
            };
            let rendered: Vec<String> = outcomes
                .iter()
                .filter_map(|(outcome, count)| {
                    count
                        .as_u64()
                        .filter(|&c| c > 0)
                        .map(|c| format!("{outcome} {c}"))
                })
                .collect();
            if !rendered.is_empty() {
                out!("  {kind}: {}", rendered.join(", "));
            }
        }
    }
    out!("pipeline stages:");
    if let Some(Json::Obj(stages)) = metrics.get("stages") {
        for (stage, summary) in stages {
            render_latency_summary(stage, summary);
        }
    }
    out!("request latency by kind:");
    if let Some(Json::Obj(kinds)) = metrics.get("request_latency_by_kind") {
        for (kind, summary) in kinds {
            render_latency_summary(kind, summary);
        }
    }
    out!("request latency by outcome:");
    if let Some(Json::Obj(outcomes)) = metrics.get("request_latency_by_outcome") {
        for (outcome, summary) in outcomes {
            render_latency_summary(outcome, summary);
        }
    }
    out!("connections:");
    if let Some(Json::Obj(transports)) = metrics.get("connections") {
        for (transport, gauges) in transports {
            let num = |field: &str| gauges.get(field).and_then(Json::as_u64).unwrap_or(0);
            out!(
                "  {transport}: {} accepted, {} active, {} idle timeouts, {} oversize rejects",
                num("accepted"),
                num("active"),
                num("idle_timeouts"),
                num("oversize_rejects"),
            );
        }
    }
    if let Some(snapshot) = metrics.get("snapshot") {
        let num = |field: &str| snapshot.get(field).and_then(Json::as_u64).unwrap_or(0);
        let checkpoints = snapshot
            .get("checkpoints")
            .and_then(|c| c.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        out!(
            "snapshot: {} checkpoints, {} failures, last success {}",
            checkpoints,
            num("failures"),
            match num("last_success_unix") {
                0 => "never".to_string(),
                unix => format!("at unix {unix}"),
            }
        );
    }
    if let Some(cache) = metrics.get("cache") {
        let num = |field: &str| cache.get(field).and_then(Json::as_u64).unwrap_or(0);
        out!(
            "cache: {} hits, {} misses, {} evictions, {} resident",
            num("hits"),
            num("misses"),
            num("evictions"),
            num("entries"),
        );
    }
    if let Some(version) = metrics.get("version") {
        let field = |name: &str| version.get(name).and_then(Json::as_str).unwrap_or("?");
        out!(
            "server: {} (proto {}, snapshot {})",
            field("server"),
            field("proto"),
            field("snapshot_format"),
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// One human-readable index line for a trace summary object.
fn print_trace_summary(summary: &Json) {
    let text = |field: &str| summary.get(field).and_then(Json::as_str).unwrap_or("?");
    let num = |field: &str| summary.get(field).and_then(Json::as_u64).unwrap_or(0);
    out!(
        "{}  {}  {}  {} us  {} spans{}",
        text("trace_id"),
        text("kind"),
        text("outcome"),
        num("total_us"),
        num("spans"),
        if summary.get("protected").and_then(Json::as_bool) == Some(true) {
            "  [protected]"
        } else {
            ""
        },
    );
}

fn cmd_trace(args: &[String]) -> Result<ExitCode, String> {
    let Some((action, rest)) = args.split_first() else {
        return Err(format!(
            "'trace' needs an action: list, get or watch\n{USAGE}"
        ));
    };
    let mut rest = rest.to_vec();
    let remote = take_remote(&mut rest)?.ok_or_else(|| {
        format!("'trace {action}' needs --remote SOCK or --remote-http ADDR\n{USAGE}")
    })?;
    match action.as_str() {
        "list" => {
            let json = take_switch(&mut rest, "--json");
            if !rest.is_empty() {
                return Err(format!("unexpected arguments: {rest:?}"));
            }
            let mut client = remote.connect()?;
            let index = client
                .trace(None, false)
                .map_err(|e| format!("remote trace: {e}"))?;
            if json {
                out!("{index}");
                return Ok(ExitCode::SUCCESS);
            }
            let num = |field: &str| index.get(field).and_then(Json::as_u64).unwrap_or(0);
            out!(
                "flight recorder: {} retained (capacity {}), {} evicted",
                num("retained"),
                num("capacity"),
                num("evicted"),
            );
            if let Some(Json::Arr(traces)) = index.get("traces") {
                for summary in traces {
                    print_trace_summary(summary);
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "get" => {
            let chrome = take_switch(&mut rest, "--chrome");
            let json = take_switch(&mut rest, "--json");
            let [id] = rest.as_slice() else {
                return Err(format!("'trace get' needs exactly one trace ID\n{USAGE}"));
            };
            let mut client = remote.connect()?;
            let trace = client
                .trace(Some(id), chrome)
                .map_err(|e| format!("remote trace: {e}"))?;
            if chrome || json {
                // --chrome prints the Chrome trace-event export verbatim
                // (redirect to a file and load it in chrome://tracing or
                // Perfetto); --json prints the native trace object.
                out!("{trace}");
                return Ok(ExitCode::SUCCESS);
            }
            let text = |field: &str| trace.get(field).and_then(Json::as_str).unwrap_or("?");
            let num = |field: &str| trace.get(field).and_then(Json::as_u64).unwrap_or(0);
            out!(
                "trace {} — {} {} in {} us{}",
                text("trace_id"),
                text("kind"),
                text("outcome"),
                num("total_us"),
                if trace.get("protected").and_then(Json::as_bool) == Some(true) {
                    " [protected]"
                } else {
                    ""
                },
            );
            if let Some(Json::Arr(spans)) = trace.get("spans") {
                for span in spans {
                    let at = |field: &str| span.get(field).and_then(Json::as_u64).unwrap_or(0);
                    let detail = match span.get("detail") {
                        Some(Json::Obj(pairs)) => pairs
                            .iter()
                            .map(|(key, value)| match value.as_str() {
                                Some(text) => format!(" {key}={text}"),
                                None => format!(" {key}={value}"),
                            })
                            .collect::<String>(),
                        _ => String::new(),
                    };
                    out!(
                        "  {:>9} us  +{:<9} {}{detail}",
                        at("start_us"),
                        at("dur_us"),
                        span.get("name").and_then(Json::as_str).unwrap_or("?"),
                    );
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "watch" => {
            let interval_ms = take_num_flag(&mut rest, "--interval-ms", 2_000)?;
            if !rest.is_empty() {
                return Err(format!("unexpected arguments: {rest:?}"));
            }
            let mut client = remote.connect()?;
            eprintln!("watching flight recorder (poll every {interval_ms} ms, Ctrl-C to stop)");
            // The first poll prints the current backlog, later polls only
            // traces with an unseen sequence number.
            let mut last_seq: Option<u64> = None;
            loop {
                let index = client
                    .trace(None, false)
                    .map_err(|e| format!("remote trace: {e}"))?;
                if let Some(Json::Arr(traces)) = index.get("traces") {
                    let mut fresh: Vec<&Json> = traces
                        .iter()
                        .filter(|summary| summary.get("seq").and_then(Json::as_u64) > last_seq)
                        .collect();
                    // The index is newest-first; emit in arrival order.
                    fresh.reverse();
                    for summary in fresh {
                        print_trace_summary(summary);
                    }
                    if let Some(max) = traces
                        .iter()
                        .filter_map(|summary| summary.get("seq").and_then(Json::as_u64))
                        .max()
                    {
                        last_seq = Some(last_seq.map_or(max, |seen| seen.max(max)));
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100) as u64));
            }
        }
        other => Err(format!("unknown trace action '{other}'\n{USAGE}")),
    }
}

fn cmd_shutdown(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let remote = take_remote(&mut args)?
        .ok_or_else(|| format!("'shutdown' needs --remote SOCK or --remote-http ADDR\n{USAGE}"))?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    let mut client = remote.connect()?;
    client
        .shutdown()
        .map_err(|e| format!("remote shutdown: {e}"))?;
    let endpoint = match &remote {
        RemoteTarget::Socket(socket) => socket.clone(),
        RemoteTarget::Http(addr) => format!("http://{addr}"),
    };
    eprintln!("daemon on {endpoint} acknowledged shutdown");
    Ok(ExitCode::SUCCESS)
}
