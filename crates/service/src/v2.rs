//! The version-2 request envelope: one typed shape for every operation.
//!
//! Version 1 grew one wire shape per verb — `{"type":"solve",...}` frames,
//! `POST /v1/solve` bodies, `{"type":"batch",...}` — and the session verbs
//! of [`crate::session`] would have added six more. Version 2 replaces the
//! zoo with a single envelope:
//!
//! ```json
//! {"api_version": 2, "op": "solve",
//!  "target": {"edge_list": "0 1\n"},
//!  "params": {"kind": "min_cover_size"},
//!  "trace_id": "client-chosen"}
//! ```
//!
//! * **`op`** names the operation: `solve`, `batch`, `stats`, `metrics`,
//!   `snapshot`, `shutdown`, the session verbs `session_create`,
//!   `session_add_vertex`, `session_add_edges`, `session_remove_edge`,
//!   `session_query`, `session_drop`, or the flight-recorder verbs
//!   `trace_list` and `trace_get` (see [`crate::trace`]).
//! * **`target`** names the graph the op acts on — either an inline graph
//!   (`edge_list` / `dimacs` / `cotree`, exactly the v1 spellings) or a
//!   daemon-resident session handle `{"session": "sess-..."}`. `solve`
//!   accepts both: solving against a session handle is identical to
//!   `session_query`.
//! * **`params`** carries op-specific arguments (`kind`, `neighbors`,
//!   `edges`, ...).
//! * **`trace_id`** is the usual request correlation id.
//!
//! Every reply is `{"api_version": 2, "op": ..., "ok": true, "result":
//! ...}` or `{"api_version": 2, "op": ..., "ok": false, "error": {"code",
//! "message", "p4"?}}`, always with a top-level `trace_id`. Per-job
//! failures of `solve` / `batch` / `session_query` stay *inside* the
//! result's response objects (exactly as in v1); the envelope's `ok`
//! reports whether the operation itself ran.
//!
//! The envelope is served on both transports: `POST /v2/query` over HTTP
//! and `pcp2`-tagged frames on the framed socket (the frame header's
//! version selects the dialect per frame, so one connection can mix both).
//! The v1 surfaces are thin shims: the request edge, [`crate::proto::serve`],
//! decodes each v1 request into an [`Op`], runs it through [`execute_op`] —
//! the one dispatcher — and the verb's row of [`crate::proto::VERBS`]
//! re-wraps the identical result payload in the legacy reply shape.

use crate::engine::{trace_end, QueryEngine};
use crate::error::ServiceError;
use crate::json::Json;
use crate::model::{GraphSpec, QueryKind, QueryRequest};
use crate::proto::{self, Action};
use crate::telemetry::{RequestCtx, Timeline};
use crate::trace::TraceEnd;
use pcgraph::VertexId;

/// The envelope's `api_version` (and the frame tag `pcp2`).
pub const API_VERSION: u64 = 2;

/// The envelope's HTTP route (`POST` only).
pub const ROUTE: &str = "/v2/query";

/// What an operation acts on.
#[derive(Debug, Clone)]
pub enum Target {
    /// An inline graph, in any of the v1 spellings.
    Inline(GraphSpec),
    /// A daemon-resident session handle.
    Session(String),
}

/// One decoded v2 operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// Answer one query against an inline graph or a session handle.
    Solve {
        /// The graph (inline) or session to solve against.
        target: Target,
        /// What to compute.
        kind: QueryKind,
        /// Caller-chosen id echoed in the response object.
        id: Option<String>,
    },
    /// Answer a batch of queries (inline graphs and/or a shared graph).
    Batch {
        /// Graph shared by requests using [`GraphSpec::Shared`].
        shared: Option<GraphSpec>,
        /// The queries, answered in order.
        requests: Vec<QueryRequest>,
    },
    /// The cache/uptime/stage statistics object.
    Stats,
    /// The full metrics report.
    Metrics,
    /// Persist the warm cache now.
    Snapshot,
    /// Stop the daemon.
    Shutdown,
    /// Create a session, empty or seeded from an inline graph target.
    SessionCreate {
        /// Optional seed graph.
        graph: Option<GraphSpec>,
    },
    /// Insert one vertex (with its neighborhood) into a session.
    SessionAddVertex {
        /// The session handle.
        handle: String,
        /// Neighbors of the new vertex among the existing vertices.
        neighbors: Vec<VertexId>,
    },
    /// Add edges between existing session vertices.
    SessionAddEdges {
        /// The session handle.
        handle: String,
        /// The edges to add (duplicates of existing edges are ignored).
        edges: Vec<(VertexId, VertexId)>,
    },
    /// Remove one edge from a session.
    SessionRemoveEdge {
        /// The session handle.
        handle: String,
        /// The edge to remove.
        edge: (VertexId, VertexId),
    },
    /// Answer one query against the session's resident cotree.
    SessionQuery {
        /// The session handle.
        handle: String,
        /// What to compute.
        kind: QueryKind,
    },
    /// Drop a session, releasing its handle.
    SessionDrop {
        /// The session handle.
        handle: String,
    },
    /// List the flight recorder's retained trace summaries.
    TraceList,
    /// Fetch one retained trace in full.
    TraceGet {
        /// The trace id to fetch.
        id: String,
        /// Emit Chrome trace-event JSON instead of the native shape
        /// (`params.format: "chrome"`).
        chrome: bool,
    },
}

impl Op {
    /// The wire name, echoed as the reply's `op` field.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Solve { .. } => "solve",
            Op::Batch { .. } => "batch",
            Op::Stats => "stats",
            Op::Metrics => "metrics",
            Op::Snapshot => "snapshot",
            Op::Shutdown => "shutdown",
            Op::SessionCreate { .. } => "session_create",
            Op::SessionAddVertex { .. } => "session_add_vertex",
            Op::SessionAddEdges { .. } => "session_add_edges",
            Op::SessionRemoveEdge { .. } => "session_remove_edge",
            Op::SessionQuery { .. } => "session_query",
            Op::SessionDrop { .. } => "session_drop",
            Op::TraceList => "trace_list",
            Op::TraceGet { .. } => "trace_get",
        }
    }
}

/// An operation-level failure: either a typed engine error (carrying its
/// structured wire body, `p4` witness included) or a snapshot-persistence
/// failure (which has protocol-level codes but no [`ServiceError`] variant).
#[derive(Debug)]
pub enum OpError {
    /// A typed engine/session error.
    Service(ServiceError),
    /// A snapshot save failure (`snapshot_unconfigured` / `snapshot_failed`).
    Snapshot {
        /// The stable error code.
        code: &'static str,
        /// The human-readable message.
        message: String,
    },
    /// A `trace_get` miss: the id was never retained, was sampled out, or
    /// has been evicted from the ring.
    TraceNotFound {
        /// The requested trace id.
        id: String,
    },
}

impl OpError {
    /// The stable error code.
    pub fn code(&self) -> &'static str {
        match self {
            OpError::Service(e) => e.code(),
            OpError::Snapshot { code, .. } => code,
            OpError::TraceNotFound { .. } => "trace_not_found",
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> String {
        match self {
            OpError::Service(e) => e.to_string(),
            OpError::Snapshot { message, .. } => message.clone(),
            OpError::TraceNotFound { id } => {
                format!(
                    "no retained trace with id '{id}' (evicted, sampled out, or never recorded)"
                )
            }
        }
    }

    /// The structured wire body (`code` / `message` / `p4`?), via the
    /// shared [`ServiceError::wire_body`] builder.
    pub fn wire_body(&self) -> Json {
        match self {
            OpError::Service(e) => e.wire_body(),
            OpError::Snapshot { .. } | OpError::TraceNotFound { .. } => {
                proto::error_body(self.code(), &self.message())
            }
        }
    }
}

fn bad(message: impl Into<String>) -> ServiceError {
    ServiceError::BadRequest(message.into())
}

/// Whether an op does engine work and must pass the admission gate.
/// Observability (`stats` / `metrics` / `trace_list` / `trace_get`),
/// `shutdown`, `snapshot`, and `session_drop` stay ungated: under overload
/// an operator must still be able to look and drain, and clients must
/// still be able to *release* resources.
fn needs_admission(op: &Op) -> bool {
    matches!(
        op,
        Op::Solve { .. }
            | Op::Batch { .. }
            | Op::SessionCreate { .. }
            | Op::SessionAddVertex { .. }
            | Op::SessionAddEdges { .. }
            | Op::SessionRemoveEdge { .. }
            | Op::SessionQuery { .. }
    )
}

/// Decodes a v2 envelope into a typed [`Op`].
///
/// `api_version`, when present, must be `2` (the transports already
/// selected the dialect — this catches a v1 body posted to a v2 surface).
pub fn parse_envelope(value: &Json) -> Result<Op, ServiceError> {
    if !matches!(value, Json::Obj(_)) {
        return Err(bad("envelope must be a JSON object"));
    }
    if let Some(version) = value.get("api_version") {
        if version.as_u64() != Some(API_VERSION) {
            return Err(bad(format!(
                "envelope api_version must be {API_VERSION}, got {version}"
            )));
        }
    }
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field 'op'"))?;
    let params = match value.get("params") {
        None | Some(Json::Null) => &Json::Null,
        Some(params @ Json::Obj(_)) => params,
        Some(other) => return Err(bad(format!("'params' must be an object, got {other}"))),
    };
    let target = parse_target(value.get("target"))?;
    match op {
        "solve" => Ok(Op::Solve {
            target: target.ok_or_else(|| {
                bad("'solve' needs a target: an inline graph or {\"session\": handle}")
            })?,
            kind: param_kind(params)?,
            id: param_id(params)?,
        }),
        "batch" => {
            let (shared, requests) =
                proto::batch_fields(params).map_err(|e| bad(format!("batch params: {e}")))?;
            Ok(Op::Batch { shared, requests })
        }
        "stats" => Ok(Op::Stats),
        "metrics" => Ok(Op::Metrics),
        "snapshot" => Ok(Op::Snapshot),
        "shutdown" => Ok(Op::Shutdown),
        "session_create" => {
            let graph = match target {
                None => None,
                Some(Target::Inline(spec)) => Some(spec),
                Some(Target::Session(_)) => {
                    return Err(bad("session_create seeds from an inline graph target, \
                                    not a session handle"))
                }
            };
            Ok(Op::SessionCreate { graph })
        }
        "session_add_vertex" => Ok(Op::SessionAddVertex {
            handle: session_target(target, op)?,
            neighbors: param_vertex_array(params, "neighbors")?,
        }),
        "session_add_edges" => Ok(Op::SessionAddEdges {
            handle: session_target(target, op)?,
            edges: param_edge_array(params, "edges")?,
        }),
        "session_remove_edge" => {
            let mut edges = param_edge_array(params, "edge")?;
            if edges.len() != 1 {
                return Err(bad("'edge' must be a single [u, v] pair"));
            }
            Ok(Op::SessionRemoveEdge {
                handle: session_target(target, op)?,
                edge: edges.pop().expect("length checked"),
            })
        }
        "session_query" => Ok(Op::SessionQuery {
            handle: session_target(target, op)?,
            kind: param_kind(params)?,
        }),
        "session_drop" => Ok(Op::SessionDrop {
            handle: session_target(target, op)?,
        }),
        "trace_list" => Ok(Op::TraceList),
        "trace_get" => Ok(Op::TraceGet {
            id: params
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("trace_get params need a string field 'id'"))?
                .to_string(),
            chrome: param_trace_format(params).map_err(bad)?,
        }),
        other => Err(bad(format!("unknown op '{other}'"))),
    }
}

/// Decodes the `target` field: absent, a session handle, or an inline
/// graph in the v1 spellings.
fn parse_target(value: Option<&Json>) -> Result<Option<Target>, ServiceError> {
    let value = match value {
        None | Some(Json::Null) => return Ok(None),
        Some(value) => value,
    };
    if !matches!(value, Json::Obj(_)) {
        return Err(bad("'target' must be an object"));
    }
    if let Some(handle) = value.get("session") {
        let handle = handle
            .as_str()
            .ok_or_else(|| bad("target field 'session' must be a string"))?;
        if GraphSpec::from_json_fields(value)?.is_some() {
            return Err(bad(
                "target names both a session and an inline graph; pick one",
            ));
        }
        return Ok(Some(Target::Session(handle.to_string())));
    }
    match GraphSpec::from_json_fields(value)? {
        Some(spec) => Ok(Some(Target::Inline(spec))),
        None => Err(bad(
            "target needs 'session' or one of 'edge_list'/'dimacs'/'cotree'",
        )),
    }
}

fn session_target(target: Option<Target>, op: &str) -> Result<String, ServiceError> {
    match target {
        Some(Target::Session(handle)) => Ok(handle),
        _ => Err(bad(format!(
            "'{op}' needs a session target: {{\"session\": handle}}"
        ))),
    }
}

/// Decodes the `format` field of a `trace_get` (v1: a `trace` frame):
/// absent or `"json"` keeps the native shape, `"chrome"` selects Chrome
/// trace-event JSON. Each dialect wraps the refusal in its own error.
pub(crate) fn param_trace_format(params: &Json) -> Result<bool, String> {
    match params.get("format") {
        None | Some(Json::Null) => Ok(false),
        Some(Json::Str(s)) if s == "json" => Ok(false),
        Some(Json::Str(s)) if s == "chrome" => Ok(true),
        Some(other) => Err(format!(
            "unknown trace format {other} (use \"json\" or \"chrome\")"
        )),
    }
}

fn param_kind(params: &Json) -> Result<QueryKind, ServiceError> {
    let name = params
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("params need a string field 'kind'"))?;
    QueryKind::parse(name).ok_or_else(|| {
        bad(format!(
            "unknown kind '{name}' (expected one of {})",
            QueryKind::ALL.map(|k| k.as_str()).join(", ")
        ))
    })
}

fn param_id(params: &Json) -> Result<Option<String>, ServiceError> {
    match params.get("id") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(id @ Json::Num(_)) => Ok(Some(id.to_string())),
        Some(other) => Err(bad(format!(
            "field 'id' must be a string or number, got {other}"
        ))),
    }
}

fn vertex_id(value: &Json, field: &str) -> Result<VertexId, ServiceError> {
    let id = value
        .as_u64()
        .ok_or_else(|| bad(format!("'{field}' entries must be non-negative integers")))?;
    VertexId::try_from(id).map_err(|_| bad(format!("vertex id {id} in '{field}' is out of range")))
}

fn param_vertex_array(params: &Json, field: &str) -> Result<Vec<VertexId>, ServiceError> {
    match params.get(field) {
        // An isolated vertex has no neighbors: the field may be omitted.
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(Json::Arr(items)) => items.iter().map(|v| vertex_id(v, field)).collect(),
        Some(other) => Err(bad(format!("'{field}' must be an array, got {other}"))),
    }
}

fn param_edge_array(params: &Json, field: &str) -> Result<Vec<(VertexId, VertexId)>, ServiceError> {
    let Some(Json::Arr(items)) = params.get(field) else {
        return Err(bad(format!("params need an array field '{field}'")));
    };
    let items: &[Json] = items;
    // `edge` is a single pair; `edges` is an array of pairs. Accept a bare
    // pair for `edge` so clients need not double-nest.
    if field == "edge" && items.len() == 2 && items.iter().all(|v| v.as_u64().is_some()) {
        return Ok(vec![(
            vertex_id(&items[0], field)?,
            vertex_id(&items[1], field)?,
        )]);
    }
    items
        .iter()
        .map(|pair| match pair {
            Json::Arr(uv) if uv.len() == 2 => {
                Ok((vertex_id(&uv[0], field)?, vertex_id(&uv[1], field)?))
            }
            other => Err(bad(format!(
                "'{field}' entries must be [u, v] pairs, got {other}"
            ))),
        })
        .collect()
}

/// Runs one operation against the engine, producing the v2 `result`
/// payload (or an [`OpError`]) and the follow-up connection action.
///
/// This is the single dispatcher both API versions share: the request
/// edge, [`crate::proto::serve`], wraps the outcome in the v2 envelope or
/// wraps the *identical* payload in the verb's legacy reply shape.
///
/// Work ops pass the engine's admission gate first; past the
/// `max_inflight` cap they fail with a recoverable `overloaded` error
/// (carrying `retry_after_ms`) without touching the pipeline.
///
/// A transport request's trace is opened and committed here. Work ops and
/// snapshots open one before admission, so it holds the admission wait and
/// a shed request leaves one too; solves, batches, session queries,
/// snapshots and sheds commit it, and no other op leaves a trace.
pub fn execute_op(
    engine: &QueryEngine,
    op: Op,
    ctx: &RequestCtx,
) -> (Result<Json, OpError>, Action) {
    let action = if matches!(op, Op::Shutdown) {
        Action::Shutdown
    } else {
        Action::Continue
    };
    let result = if needs_admission(&op) || matches!(op, Op::Snapshot) {
        engine.traced(ctx, |ctx| run_op(engine, op, ctx))
    } else {
        run_op(engine, op, ctx).0
    };
    (result, action)
}

/// [`execute_op`] under `ctx`'s trace, reporting how that trace ends
/// (`None`: the op leaves no trace).
fn run_op(
    engine: &QueryEngine,
    op: Op,
    ctx: &RequestCtx,
) -> (Result<Json, OpError>, Option<TraceEnd>) {
    let mut timeline = Timeline::new(engine.telemetry(), ctx);
    let _permit = if needs_admission(&op) {
        let admitted = engine.try_admit();
        timeline.span("admission:wait");
        match admitted {
            Ok(permit) => Some(permit),
            Err(error) => {
                let end = TraceEnd::new(op.name(), error.code(), true);
                return (Err(OpError::Service(error)), Some(end));
            }
        }
    } else {
        None
    };
    let mut end = None;
    let result = match op {
        Op::Solve {
            target: Target::Inline(graph),
            kind,
            id,
        } => {
            let response = engine.execute_ctx(&QueryRequest { id, kind, graph }, ctx);
            end = Some(trace_end(&response));
            Ok(response.to_json())
        }
        Op::Solve {
            target: Target::Session(handle),
            kind,
            ..
        }
        | Op::SessionQuery { handle, kind } => {
            let response = engine.session_query_ctx(&handle, kind, ctx);
            end = Some(trace_end(&response));
            // A missing handle fails the operation, not the job: there is
            // no graph the response could be about.
            match &response.outcome {
                Err(error @ ServiceError::SessionNotFound(_)) => {
                    Err(OpError::Service(error.clone()))
                }
                _ => Ok(response.to_json()),
            }
        }
        Op::Batch { shared, requests } => {
            let (responses, batch) = engine.run_batch(shared.as_ref(), &requests, ctx);
            end = Some(batch);
            Ok(Json::obj(vec![(
                "responses",
                Json::Arr(responses.iter().map(|r| r.to_json()).collect()),
            )]))
        }
        Op::Stats => Ok(proto::stats_payload(engine)),
        Op::Metrics => Ok(proto::metrics_payload(engine)),
        Op::Snapshot => {
            let result = match engine.save_snapshot() {
                Ok(report) => Ok(proto::snapshot_payload(engine, &report)),
                Err(error @ crate::snapshot::SnapshotError::NotConfigured) => {
                    Err(OpError::Snapshot {
                        code: "snapshot_unconfigured",
                        message: error.to_string(),
                    })
                }
                Err(error) => Err(OpError::Snapshot {
                    code: "snapshot_failed",
                    message: error.to_string(),
                }),
            };
            timeline.span("snapshot:checkpoint");
            let outcome = result.as_ref().err().map_or("ok", OpError::code);
            end = Some(TraceEnd::new("snapshot", outcome, result.is_err()));
            result
        }
        Op::Shutdown => Ok(Json::obj(vec![])),
        Op::SessionCreate { graph } => engine
            .session_create(graph.as_ref())
            .map(|state| session_state_json(&state))
            .map_err(OpError::Service),
        Op::SessionAddVertex { handle, neighbors } => engine
            .session_add_vertex(&handle, &neighbors)
            .map(|state| session_state_json(&state))
            .map_err(OpError::Service),
        Op::SessionAddEdges { handle, edges } => engine
            .session_add_edges(&handle, &edges)
            .map(|state| session_state_json(&state))
            .map_err(OpError::Service),
        Op::SessionRemoveEdge { handle, edge } => engine
            .session_remove_edge(&handle, edge.0, edge.1)
            .map(|state| session_state_json(&state))
            .map_err(OpError::Service),
        Op::SessionDrop { handle } => engine
            .session_drop(&handle)
            .map(|()| {
                Json::obj(vec![
                    ("handle", Json::str(handle)),
                    ("dropped", Json::Bool(true)),
                ])
            })
            .map_err(OpError::Service),
        Op::TraceList => Ok(engine.recorder().list_json()),
        Op::TraceGet { id, chrome } => match engine.recorder().get(&id) {
            Some(trace) => Ok(if chrome {
                trace.to_chrome_json()
            } else {
                trace.to_json()
            }),
            None => Err(OpError::TraceNotFound { id }),
        },
    };
    (result, end)
}

/// The `result` payload of every session mutation / creation: the handle
/// and the post-op graph shape, how the cotree was maintained
/// (`incremental` / `rebuild` / `noop`), and — for insertions — the id
/// assigned to the new vertex.
fn session_state_json(state: &crate::session::SessionState) -> Json {
    let mut fields = vec![
        ("handle", Json::str(state.handle.clone())),
        ("vertices", Json::num(state.vertices as u64)),
        ("edges", Json::num(state.edges as u64)),
        ("mutations", Json::num(state.mutations)),
        ("maintenance", Json::str(state.maintenance.as_str())),
    ];
    if let Some(v) = state.new_vertex {
        fields.push(("new_vertex", Json::num(v as u64)));
    }
    Json::obj(fields)
}

/// Serves one decoded v2 envelope end to end under `ctx`: the request
/// edge's [`crate::proto::run`] for the envelope dialect.
pub fn dispatch_envelope(engine: &QueryEngine, value: &Json, ctx: &RequestCtx) -> (Json, Action) {
    let reply = proto::run(engine, proto::Dialect::Envelope, value, ctx.clone());
    (reply.body, reply.action)
}

/// The reply envelope for an outcome: a result, or the wire body of an
/// operation failure or protocol defect. `op` is `None` for an envelope
/// that never parsed.
pub(crate) fn envelope(op: Option<&str>, outcome: Result<Json, Json>, ctx: &RequestCtx) -> Json {
    let (ok, key, value) = match outcome {
        Ok(result) => (true, "result", result),
        Err(error) => (false, "error", error),
    };
    proto::attach_trace(
        Json::obj(vec![
            ("api_version", Json::num(API_VERSION)),
            ("op", op.map_or(Json::Null, Json::str)),
            ("ok", Json::Bool(ok)),
            (key, value),
        ]),
        ctx,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Metric, Stage};

    fn engine() -> QueryEngine {
        QueryEngine::default()
    }

    fn dispatch(engine: &QueryEngine, envelope: &str) -> Json {
        let value = Json::parse(envelope).expect("test envelope is valid JSON");
        let (reply, _) = dispatch_envelope(engine, &value, &RequestCtx::with_trace("t-v2"));
        reply
    }

    #[test]
    fn solve_by_inline_graph_and_by_session_handle_agree() {
        let engine = engine();
        let reply = dispatch(
            &engine,
            r#"{"api_version":2,"op":"solve","target":{"cotree":"(j a b c)"},
                "params":{"kind":"min_cover_size","id":7}}"#,
        );
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(reply.get("op").and_then(Json::as_str), Some("solve"));
        assert_eq!(reply.get("api_version").and_then(Json::as_u64), Some(2));
        let result = reply.get("result").expect("result");
        assert_eq!(result.get("id").and_then(Json::as_str), Some("7"));
        assert_eq!(
            result
                .get("answer")
                .and_then(|a| a.get("size"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(reply.get("trace_id").and_then(Json::as_str), Some("t-v2"));

        // The same K3 grown in a session: solving against the handle gives
        // the same answer, and `solve` ≡ `session_query` for that target.
        let created = dispatch(
            &engine,
            r#"{"api_version":2,"op":"session_create","target":{"edge_list":"0 1\n0 2\n1 2\n"}}"#,
        );
        assert_eq!(created.get("ok").and_then(Json::as_bool), Some(true));
        let handle = created
            .get("result")
            .and_then(|r| r.get("handle"))
            .and_then(Json::as_str)
            .expect("handle")
            .to_string();
        for op in ["solve", "session_query"] {
            let reply = dispatch(
                &engine,
                &format!(
                    r#"{{"op":"{op}","target":{{"session":"{handle}"}},
                        "params":{{"kind":"min_cover_size"}}}}"#
                ),
            );
            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{op}");
            assert_eq!(
                reply
                    .get("result")
                    .and_then(|r| r.get("answer"))
                    .and_then(|a| a.get("size"))
                    .and_then(Json::as_u64),
                Some(1),
                "{op}"
            );
        }
    }

    #[test]
    fn session_lifecycle_over_the_envelope() {
        let engine = engine();
        let created = dispatch(&engine, r#"{"op":"session_create"}"#);
        let handle = created
            .get("result")
            .and_then(|r| r.get("handle"))
            .and_then(Json::as_str)
            .expect("handle")
            .to_string();

        // Grow P3: 0, then 1-0, then 2-1.
        for neighbors in ["[]", "[0]", "[1]"] {
            let reply = dispatch(
                &engine,
                &format!(
                    r#"{{"op":"session_add_vertex","target":{{"session":"{handle}"}},
                        "params":{{"neighbors":{neighbors}}}}}"#
                ),
            );
            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
            assert_eq!(
                reply
                    .get("result")
                    .and_then(|r| r.get("maintenance"))
                    .and_then(Json::as_str),
                Some("incremental")
            );
        }

        // Completing the P4 is refused with the certificate, envelope-level.
        let reply = dispatch(
            &engine,
            &format!(
                r#"{{"op":"session_add_vertex","target":{{"session":"{handle}"}},
                    "params":{{"neighbors":[2]}}}}"#
            ),
        );
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        let error = reply.get("error").expect("error body");
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some("not_a_cograph")
        );
        assert!(
            matches!(error.get("p4"), Some(Json::Arr(p4)) if p4.len() == 4),
            "p4 witness missing: {reply}"
        );

        // Edge mutations route through too; the handle still answers.
        let reply = dispatch(
            &engine,
            &format!(
                r#"{{"op":"session_add_edges","target":{{"session":"{handle}"}},
                    "params":{{"edges":[[0,2]]}}}}"#
            ),
        );
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{reply}"
        );
        let reply = dispatch(
            &engine,
            &format!(
                r#"{{"op":"session_remove_edge","target":{{"session":"{handle}"}},
                    "params":{{"edge":[0,2]}}}}"#
            ),
        );
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{reply}"
        );

        let reply = dispatch(
            &engine,
            &format!(r#"{{"op":"session_drop","target":{{"session":"{handle}"}}}}"#),
        );
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            reply
                .get("result")
                .and_then(|r| r.get("dropped"))
                .and_then(Json::as_bool),
            Some(true)
        );
        // Dropped means gone.
        let reply = dispatch(
            &engine,
            &format!(
                r#"{{"op":"session_query","target":{{"session":"{handle}"}},
                    "params":{{"kind":"recognize"}}}}"#
            ),
        );
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            reply
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("session_not_found")
        );
    }

    #[test]
    fn envelope_defects_are_typed_bad_requests() {
        let engine = engine();
        for (envelope, fragment) in [
            (r#"{"op":"solve"}"#, "needs a target"),
            (r#"{"op":"warp"}"#, "unknown op"),
            (r#"{"no_op":1}"#, "missing string field 'op'"),
            (
                r#"{"op":"solve","api_version":1,"target":{"edge_list":"0 1"}}"#,
                "api_version",
            ),
            (
                r#"{"op":"solve","target":{"edge_list":"0 1"},"params":{"kind":"sideways"}}"#,
                "unknown kind",
            ),
            (
                r#"{"op":"session_query","target":{"edge_list":"0 1"},"params":{"kind":"recognize"}}"#,
                "needs a session target",
            ),
            (
                r#"{"op":"session_add_vertex","target":{"session":"s"},"params":{"neighbors":[-1]}}"#,
                "non-negative",
            ),
            (
                r#"{"op":"solve","target":{"session":"s","edge_list":"0 1"},"params":{"kind":"recognize"}}"#,
                "pick one",
            ),
        ] {
            let reply = dispatch(&engine, envelope);
            assert_eq!(
                reply.get("ok").and_then(Json::as_bool),
                Some(false),
                "{envelope}"
            );
            let message = reply
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap_or("");
            assert!(
                message.contains(fragment),
                "for {envelope}: expected '{fragment}' in '{message}'"
            );
        }
    }

    #[test]
    fn v1_verbs_are_shims_over_the_same_dispatcher() {
        // The v1 reply's inner payload must be byte-identical to the v2
        // result for every shared verb (same engine state on both sides:
        // solve twice so both observe a cache hit, then compare).
        let engine = engine();
        let query = QueryRequest::new(
            QueryKind::FullCover,
            GraphSpec::CotreeTerm("(u (j a b) c)".to_string()),
        );
        engine.execute(&query); // warm: both reads below are cache hits
        let ctx = RequestCtx::with_trace("t-eq");

        let v1_frame = |request: proto::Request| {
            proto::run(
                &engine,
                proto::Dialect::Frame,
                &request.to_json(),
                ctx.clone(),
            )
            .body
        };
        let v1 = v1_frame(proto::Request::Solve(query.clone()));
        let v2 = dispatch(
            &engine,
            r#"{"op":"solve","target":{"cotree":"(u (j a b) c)"},
                "params":{"kind":"full_cover"}}"#,
        );
        let strip = |value: &Json| strip_volatile(value).to_string();
        assert_eq!(
            strip(v1.get("response").expect("v1 payload")),
            strip(v2.get("result").expect("v2 payload")),
            "v1 solve and v2 solve must carry identical payloads"
        );

        // Stats: same payload builder, compared end to end.
        let v1 = v1_frame(proto::Request::Stats);
        let v2 = dispatch(&engine, r#"{"op":"stats"}"#);
        assert_eq!(
            strip(v1.get("stats").expect("v1 stats")),
            strip(v2.get("result").expect("v2 stats")),
        );
    }

    #[test]
    fn session_query_over_envelope_never_marks_the_recognize_stage() {
        let engine = engine();
        let created = dispatch(&engine, r#"{"op":"session_create"}"#);
        let handle = created
            .get("result")
            .and_then(|r| r.get("handle"))
            .and_then(Json::as_str)
            .expect("handle")
            .to_string();
        for neighbors in ["[]", "[0]", "[0,1]"] {
            let reply = dispatch(
                &engine,
                &format!(
                    r#"{{"op":"session_add_vertex","target":{{"session":"{handle}"}},
                        "params":{{"neighbors":{neighbors}}}}}"#
                ),
            );
            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        }
        let reply = dispatch(
            &engine,
            &format!(
                r#"{{"op":"session_query","target":{{"session":"{handle}"}},
                    "params":{{"kind":"hamiltonian_path"}}}}"#
            ),
        );
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        let report = engine.metrics_report();
        assert_eq!(
            report.histograms(Metric::StageLatency)[Stage::Recognize as usize].count,
            0,
            "session traffic must never hit the batch recognize stage"
        );
        assert_eq!(report.values(Metric::SessionRecognizeIncremental), [3]);
    }

    #[test]
    fn admission_gate_sheds_work_ops_but_not_observability() {
        let engine = QueryEngine::new(crate::engine::EngineConfig {
            max_inflight: 1,
            ..crate::engine::EngineConfig::default()
        });
        let _held = engine.try_admit().expect("take the only slot");
        let reply = dispatch(
            &engine,
            r#"{"op":"solve","target":{"cotree":"(j a b)"},"params":{"kind":"min_cover_size"}}"#,
        );
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        let error = reply.get("error").expect("error body");
        assert_eq!(error.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(
            error.get("retry_after_ms").and_then(Json::as_u64),
            Some(crate::engine::DEFAULT_RETRY_AFTER_MS),
            "overload rejections must carry the backoff hint: {reply}"
        );
        // session_create is work too.
        let reply = dispatch(&engine, r#"{"op":"session_create"}"#);
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        // stats and metrics stay live under full overload.
        for op in ["stats", "metrics"] {
            let reply = dispatch(&engine, &format!(r#"{{"op":"{op}"}}"#));
            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{op}");
        }
        drop(_held);
        let reply = dispatch(
            &engine,
            r#"{"op":"solve","target":{"cotree":"(j a b)"},"params":{"kind":"min_cover_size"}}"#,
        );
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        let report = engine.metrics_report();
        assert_eq!(report.values(Metric::RejectedOverload), [2]);
    }

    #[test]
    fn trace_ops_list_and_fetch_retained_traces() {
        let engine = engine();
        let solved = dispatch(
            &engine,
            r#"{"op":"solve","target":{"cotree":"(j a b c)"},"params":{"kind":"full_cover"}}"#,
        );
        assert_eq!(solved.get("ok").and_then(Json::as_bool), Some(true));

        let list = dispatch(&engine, r#"{"op":"trace_list"}"#);
        assert_eq!(list.get("ok").and_then(Json::as_bool), Some(true));
        let result = list.get("result").expect("result");
        assert!(result.get("retained").and_then(Json::as_u64).unwrap_or(0) >= 1);
        let Some(Json::Arr(traces)) = result.get("traces") else {
            panic!("missing traces array: {list}");
        };
        let id = traces[0]
            .get("trace_id")
            .and_then(Json::as_str)
            .expect("summary has trace_id")
            .to_string();
        assert_eq!(id, "t-v2", "the dispatched solve's trace id is retained");

        let fetched = dispatch(
            &engine,
            &format!(r#"{{"op":"trace_get","params":{{"id":"{id}"}}}}"#),
        );
        assert_eq!(fetched.get("ok").and_then(Json::as_bool), Some(true));
        let spans = fetched.get("result").and_then(|r| r.get("spans"));
        assert!(
            matches!(spans, Some(Json::Arr(s)) if !s.is_empty()),
            "full trace carries spans: {fetched}"
        );

        let chrome = dispatch(
            &engine,
            &format!(r#"{{"op":"trace_get","params":{{"id":"{id}","format":"chrome"}}}}"#),
        );
        assert!(
            chrome
                .get("result")
                .and_then(|r| r.get("traceEvents"))
                .is_some(),
            "chrome format carries traceEvents: {chrome}"
        );

        let missing = dispatch(&engine, r#"{"op":"trace_get","params":{"id":"absent"}}"#);
        assert_eq!(missing.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            missing
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("trace_not_found")
        );
    }

    #[test]
    fn shed_requests_leave_protected_traces_with_the_admission_span() {
        let engine = QueryEngine::new(crate::engine::EngineConfig {
            max_inflight: 1,
            ..crate::engine::EngineConfig::default()
        });
        let held = engine.try_admit().expect("take the only slot");
        let reply = dispatch(
            &engine,
            r#"{"op":"solve","target":{"cotree":"(j a b)"},"params":{"kind":"min_cover_size"}}"#,
        );
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        drop(held);
        let trace = engine.recorder().get("t-v2").expect("shed trace retained");
        assert!(trace.protected, "overload sheds must be protected");
        assert_eq!(trace.outcome, "overloaded");
        assert!(
            trace.spans.iter().any(|s| s.name == "admission:wait"),
            "shed trace records the admission attempt: {:?}",
            trace.spans
        );
    }

    /// Drops the timing fields and the trace id, the only fields allowed
    /// to differ between two runs of the same request.
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
}
