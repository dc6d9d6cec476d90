//! The wire protocol of the `pcservice` daemon.
//!
//! A versioned, length-framed JSON protocol over any byte stream. Every
//! frame is
//!
//! ```text
//! pcp1 <len>\n
//! <len bytes of JSON>\n
//! ```
//!
//! — a header line carrying the protocol magic (`pcp` + version) and the
//! payload length in decimal bytes, then exactly that many bytes of JSON,
//! then one newline. The trailing newline keeps a captured session readable
//! as JSON lines (`socat` transcripts paste straight into docs) while the
//! explicit length lets payloads contain newlines and lets the reader
//! allocate exactly once.
//!
//! The version tag selects the payload dialect per frame: `pcp1` frames
//! carry the per-verb messages below, `pcp2` frames carry the
//! [`crate::v2`] request envelope (one `{op, target, params, trace_id}`
//! shape for every operation, sessions included). Replies use the tag of
//! the request they answer, so one connection can interleave both; the
//! `hello` reply advertises `supported_versions` so clients can probe.
//!
//! ## Messages
//!
//! Client → server frames are objects tagged by a `"type"` field —
//! [`Request::Hello`], [`Request::Solve`], [`Request::Batch`],
//! [`Request::Stats`], [`Request::Metrics`], [`Request::Snapshot`],
//! [`Request::Shutdown`] — and every one is answered by exactly one reply
//! frame (`hello`, `response`, `batch`, `stats`, `metrics`, `snapshot_ok`,
//! `shutdown_ok` or `error`). Query and response payloads reuse the
//! JSON-lines shapes of [`QueryRequest::from_json`] and
//! [`QueryResponse::to_json`], so a daemon session speaks the same dialect
//! as `pathcover-cli batch` files. Requests may carry a `trace_id` field;
//! the server echoes it (or a synthesized ID) as a top-level `trace_id` on
//! every reply — see [`crate::telemetry`].
//!
//! ## Error taxonomy
//!
//! [`ProtoError`] separates *recoverable* defects — a frame whose payload is
//! malformed JSON or a bad message, where the length framing kept the stream
//! in sync — from *fatal* ones (I/O failure, bad magic, oversized frame)
//! after which the byte stream cannot be trusted. Servers answer recoverable
//! errors with an `error` reply and keep the connection; fatal errors close
//! the connection — never the server (see [`crate::daemon`]).

use crate::cache::ShardStats;
use crate::engine::QueryEngine;
use crate::json::{Json, JsonError, JsonErrorKind};
use crate::model::{GraphSpec, QueryRequest, QueryResponse};
use crate::snapshot::{SaveReport, SNAPSHOT_VERSION};
use crate::telemetry::RequestCtx;
use crate::v2;
use std::fmt;
use std::io::{self, BufRead, Write};

/// Protocol version spoken by this build's legacy (per-verb) dialect.
pub const PROTO_VERSION: u64 = 1;

/// Every frame dialect this build serves: `pcp1` (the legacy per-verb
/// messages below) and `pcp2` (the [`crate::v2`] request envelope). The
/// dialect is chosen per *frame*, not per connection, and the server
/// replies with the tag the request used.
pub const SUPPORTED_VERSIONS: [u64; 2] = [PROTO_VERSION, crate::v2::API_VERSION];

/// Hard cap on a message payload's size (16 MiB). A peer announcing more is
/// fatally rejected before any allocation happens.
///
/// This is the single home of the cap: the framed protocol enforces it on
/// both `read_frame` and `write_frame`, and [`crate::http`] reuses it as the
/// `Content-Length` bound, so every transport refuses the same payloads.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Maximum header line length (`pcp<version> <len>\n` is ~30 bytes; anything
/// longer is garbage, not a header).
const MAX_HEADER_BYTES: usize = 64;

/// Server identification string sent in the `hello` reply.
pub const SERVER_NAME: &str = concat!("pcservice/", env!("CARGO_PKG_VERSION"));

/// Everything that can go wrong at the protocol layer.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying stream failed (includes read timeouts).
    Io(io::Error),
    /// The peer closed the stream at a frame boundary (clean EOF).
    Closed,
    /// The frame header was not `pcp<version> <len>`.
    BadHeader(String),
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion(u64),
    /// The announced payload length exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// Announced payload length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// The payload was not valid JSON, or nested past
    /// [`crate::json::MAX_DEPTH`] (stream still in sync).
    BadJson(JsonError),
    /// The payload was valid JSON but not a valid message (stream still in
    /// sync).
    BadMessage(String),
    /// The server answered with an `error` reply (client side only).
    Remote {
        /// Machine-readable error code.
        code: String,
        /// Human-readable message.
        message: String,
        /// Server-suggested backoff before retrying, in milliseconds
        /// (carried by `overloaded` rejections).
        retry_after_ms: Option<u64>,
    },
}

impl ProtoError {
    /// `true` when the byte stream is still framed correctly and the
    /// connection can keep serving after an `error` reply.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            ProtoError::BadJson(_) | ProtoError::BadMessage(_) | ProtoError::Remote { .. }
        )
    }

    /// Stable machine-readable tag used in `error` replies.
    pub fn code(&self) -> &'static str {
        match self {
            ProtoError::Io(_) => "io",
            ProtoError::Closed => "closed",
            ProtoError::BadHeader(_) => "bad_header",
            ProtoError::UnsupportedVersion(_) => "unsupported_version",
            ProtoError::FrameTooLarge { .. } => "frame_too_large",
            ProtoError::BadJson(e) => e.code(),
            ProtoError::BadMessage(_) => "bad_message",
            ProtoError::Remote { .. } => "remote",
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::BadHeader(line) => write!(f, "bad frame header: {line:?}"),
            ProtoError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {PROTO_VERSION})"
                )
            }
            ProtoError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max} byte cap")
            }
            ProtoError::BadJson(e) if e.kind == JsonErrorKind::TooDeep => {
                write!(f, "frame payload refused: {e}")
            }
            ProtoError::BadJson(e) => write!(f, "frame payload is not JSON: {e}"),
            ProtoError::BadMessage(msg) => write!(f, "bad message: {msg}"),
            ProtoError::Remote { code, message, .. } => {
                write!(f, "server error [{code}]: {message}")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Writes one frame (header, payload, terminator) and flushes.
///
/// The [`MAX_FRAME_LEN`] cap is enforced on this side too: a payload the
/// peer would fatally reject is refused with [`io::ErrorKind::InvalidData`]
/// *before* any bytes hit the stream, so the connection stays in sync and
/// the caller can substitute a small `error` reply instead.
pub fn write_frame<W: Write>(w: &mut W, payload: &Json) -> io::Result<()> {
    write_frame_v(w, payload, PROTO_VERSION)
}

/// [`write_frame`] with an explicit dialect tag: `version` 1 writes a
/// `pcp1` frame (the legacy per-verb messages), 2 a `pcp2` frame (the
/// [`crate::v2`] envelope). The dialect is chosen per frame, not per
/// connection — the server replies in whichever dialect each request used.
pub fn write_frame_v<W: Write>(w: &mut W, payload: &Json, version: u64) -> io::Result<()> {
    let body = payload.to_string();
    if body.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_LEN} byte cap (split the batch)",
                body.len()
            ),
        ));
    }
    write!(w, "pcp{version} {}\n{body}\n", body.len())?;
    w.flush()
}

/// Reads one `pcp1` frame, returning its decoded JSON payload.
///
/// Framing defects (bad magic, oversized length, truncated payload) are
/// fatal; a payload that is not valid JSON is recoverable because exactly
/// `len + 1` bytes were consumed either way. A well-formed frame in a
/// different supported dialect (`pcp2`) is refused with
/// [`ProtoError::UnsupportedVersion`] — version-1 clients use this reader;
/// the version-agnostic server loop uses [`read_frame_raw`].
pub fn read_frame<R: BufRead>(r: &mut R) -> Result<Json, ProtoError> {
    let (version, body) = read_frame_raw(r)?;
    if version != PROTO_VERSION {
        return Err(ProtoError::UnsupportedVersion(version));
    }
    Json::parse(&body).map_err(ProtoError::BadJson)
}

/// Reads one frame in any supported dialect (`pcp1` / `pcp2`), returning
/// the header's version tag and the raw payload text, not yet parsed.
///
/// The caller picks the dialect off the version: the daemon decodes
/// version-1 payloads as [`Request`] messages and version-2 payloads as
/// [`crate::v2`] envelopes, and replies with the same tag. Versions outside
/// the supported set are refused *before* the payload is read — their
/// framing cannot be trusted, so the connection must die in sync.
pub fn read_frame_raw<R: BufRead>(r: &mut R) -> Result<(u64, String), ProtoError> {
    let mut header: Vec<u8> = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        let n = r.read(&mut byte)?;
        if n == 0 {
            if header.is_empty() {
                return Err(ProtoError::Closed);
            }
            return Err(ProtoError::BadHeader(
                String::from_utf8_lossy(&header).into_owned(),
            ));
        }
        if byte[0] == b'\n' {
            break;
        }
        header.push(byte[0]);
        if header.len() > MAX_HEADER_BYTES {
            return Err(ProtoError::BadHeader(
                String::from_utf8_lossy(&header).into_owned(),
            ));
        }
    }
    let text = std::str::from_utf8(&header)
        .map_err(|_| ProtoError::BadHeader(String::from_utf8_lossy(&header).into_owned()))?;
    let bad = || ProtoError::BadHeader(text.to_string());
    let rest = text.strip_prefix("pcp").ok_or_else(bad)?;
    let (version, len) = rest.split_once(' ').ok_or_else(bad)?;
    let version: u64 = version.parse().map_err(|_| bad())?;
    if !SUPPORTED_VERSIONS.contains(&version) {
        return Err(ProtoError::UnsupportedVersion(version));
    }
    let len: usize = len.parse().map_err(|_| bad())?;
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let mut body = vec![0u8; len + 1];
    r.read_exact(&mut body)?;
    if body.pop() != Some(b'\n') {
        return Err(ProtoError::BadHeader(
            "frame missing terminator".to_string(),
        ));
    }
    let text = String::from_utf8(body)
        .map_err(|_| ProtoError::BadMessage("frame payload is not UTF-8".to_string()))?;
    Ok((version, text))
}

/// A decoded client → server message.
#[derive(Debug, Clone)]
pub enum Request {
    /// Version handshake; must be the first frame of a connection.
    Hello {
        /// The client's protocol version.
        proto: u64,
    },
    /// Execute one query.
    Solve(QueryRequest),
    /// Execute a batch of queries, optionally against a shared graph.
    Batch {
        /// Graph shared by requests using [`GraphSpec::Shared`].
        shared: Option<GraphSpec>,
        /// The queries, answered in order.
        requests: Vec<QueryRequest>,
    },
    /// Snapshot the engine's cache counters.
    Stats,
    /// Fetch the full metrics report (see [`crate::telemetry`]).
    Metrics,
    /// Persist the warm cache to the configured snapshot file right now
    /// (see [`crate::snapshot`]).
    Snapshot,
    /// List the flight recorder's retained trace summaries
    /// (`{"type":"trace"}`) or fetch one trace in full
    /// (`{"type":"trace","id":"pc-..."}`, optionally with
    /// `"format":"chrome"` — see [`crate::trace`]).
    Trace {
        /// The trace to fetch; `None` lists summaries.
        id: Option<String>,
        /// Emit Chrome trace-event JSON for a single-trace fetch.
        chrome: bool,
    },
    /// Stop the daemon (it finishes this reply, then exits its accept loop).
    Shutdown,
}

impl Request {
    /// Decodes a request frame payload.
    pub fn from_json(value: &Json) -> Result<Request, ProtoError> {
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError::BadMessage("missing string field 'type'".to_string()))?;
        match kind {
            "hello" => {
                let proto = value.get("proto").and_then(Json::as_u64).ok_or_else(|| {
                    ProtoError::BadMessage("hello needs a numeric 'proto' field".to_string())
                })?;
                Ok(Request::Hello { proto })
            }
            "solve" => {
                let request = QueryRequest::from_json(value)
                    .map_err(|e| ProtoError::BadMessage(e.to_string()))?;
                Ok(Request::Solve(request))
            }
            "batch" => {
                let (shared, requests) = batch_fields(value)?;
                Ok(Request::Batch { shared, requests })
            }
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "snapshot" => Ok(Request::Snapshot),
            "trace" => {
                let id = match value.get("id") {
                    None | Some(Json::Null) => None,
                    Some(Json::Str(s)) => Some(s.clone()),
                    Some(other) => {
                        return Err(ProtoError::BadMessage(format!(
                            "'id' must be a string, got {other}"
                        )))
                    }
                };
                let chrome = match value.get("format") {
                    None | Some(Json::Null) => false,
                    Some(Json::Str(s)) if s == "json" => false,
                    Some(Json::Str(s)) if s == "chrome" => true,
                    Some(other) => {
                        return Err(ProtoError::BadMessage(format!(
                            "unknown trace format {other} (use \"json\" or \"chrome\")"
                        )))
                    }
                };
                Ok(Request::Trace { id, chrome })
            }
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtoError::BadMessage(format!(
                "unknown message type '{other}'"
            ))),
        }
    }

    /// Encodes the request as a frame payload (client side).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Hello { proto } => Json::obj(vec![
                ("type", Json::str("hello")),
                ("proto", Json::num(*proto)),
            ]),
            Request::Solve(request) => {
                let mut fields = vec![("type".to_string(), Json::str("solve"))];
                if let Json::Obj(query_fields) = request.to_json() {
                    fields.extend(query_fields);
                }
                Json::Obj(fields)
            }
            Request::Batch { shared, requests } => {
                let mut fields = vec![("type", Json::str("batch"))];
                let shared_json = shared.as_ref().and_then(GraphSpec::to_json);
                if let Some(spec) = shared_json {
                    fields.push(("shared", spec));
                }
                fields.push((
                    "requests",
                    Json::Arr(requests.iter().map(QueryRequest::to_json).collect()),
                ));
                Json::obj(fields)
            }
            Request::Stats => Json::obj(vec![("type", Json::str("stats"))]),
            Request::Metrics => Json::obj(vec![("type", Json::str("metrics"))]),
            Request::Snapshot => Json::obj(vec![("type", Json::str("snapshot"))]),
            Request::Trace { id, chrome } => {
                let mut fields = vec![("type", Json::str("trace"))];
                if let Some(id) = id {
                    fields.push(("id", Json::str(id.clone())));
                }
                if *chrome {
                    fields.push(("format", Json::str("chrome")));
                }
                Json::obj(fields)
            }
            Request::Shutdown => Json::obj(vec![("type", Json::str("shutdown"))]),
        }
    }
}

/// Decodes the batch fields (`shared` + `requests`) of a message object.
///
/// Shared by the framed [`Request::from_json`] decoder and the
/// [`crate::http`] `POST /v1/batch` route, so both transports accept exactly
/// the same batch payloads.
pub fn batch_fields(value: &Json) -> Result<(Option<GraphSpec>, Vec<QueryRequest>), ProtoError> {
    let shared = match value.get("shared") {
        None | Some(Json::Null) => None,
        Some(spec) => {
            Some(GraphSpec::from_json(spec).map_err(|e| ProtoError::BadMessage(e.to_string()))?)
        }
    };
    let Some(Json::Arr(items)) = value.get("requests") else {
        return Err(ProtoError::BadMessage(
            "batch needs an array field 'requests'".to_string(),
        ));
    };
    let requests = items
        .iter()
        .map(|item| {
            QueryRequest::from_json(item).map_err(|e| ProtoError::BadMessage(e.to_string()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((shared, requests))
}

/// After dispatching a request: keep serving this connection or begin
/// daemon shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep reading frames.
    Continue,
    /// The peer asked the daemon to stop.
    Shutdown,
}

/// Serves one decoded request against an engine, producing the reply frame
/// payload and the follow-up action, under a synthesized [`RequestCtx`].
/// This is the whole server semantics; [`crate::daemon`] only adds the
/// transport around it. Transports that carry a client trace ID use
/// [`dispatch_ctx`] instead.
pub fn dispatch(engine: &QueryEngine, request: &Request) -> (Json, Action) {
    dispatch_ctx(engine, request, &RequestCtx::generate())
}

/// [`dispatch`] under a caller-supplied [`RequestCtx`]: the context's trace
/// ID is threaded through the engine (so response metadata and slow-log
/// lines carry it) and echoed as a top-level `trace_id` field of every
/// reply, `error` replies included.
///
/// Since the v2 envelope landed, this is a *shim*: every verb (except the
/// `hello` handshake, which has no v2 counterpart) is mapped onto a
/// [`crate::v2::Op`], executed by [`crate::v2::execute_op`] — the one
/// dispatcher both API versions share — and the identical result payload
/// is re-wrapped in the legacy per-verb reply shape.
pub fn dispatch_ctx(engine: &QueryEngine, request: &Request, ctx: &RequestCtx) -> (Json, Action) {
    let op = match request {
        Request::Hello { proto } => {
            let reply = if *proto == PROTO_VERSION {
                hello_reply()
            } else {
                error_reply(
                    "unsupported_version",
                    &format!("server speaks pcp{PROTO_VERSION}, client sent pcp{proto}"),
                )
            };
            return (attach_trace(reply, ctx), Action::Continue);
        }
        Request::Solve(query) => v2::Op::Solve {
            target: v2::Target::Inline(query.graph.clone()),
            kind: query.kind,
            id: query.id.clone(),
        },
        Request::Batch { shared, requests } => v2::Op::Batch {
            shared: shared.clone(),
            requests: requests.clone(),
        },
        Request::Stats => v2::Op::Stats,
        Request::Metrics => v2::Op::Metrics,
        Request::Snapshot => v2::Op::Snapshot,
        Request::Trace { id: None, .. } => v2::Op::TraceList,
        Request::Trace {
            id: Some(id),
            chrome,
        } => v2::Op::TraceGet {
            id: id.clone(),
            chrome: *chrome,
        },
        Request::Shutdown => v2::Op::Shutdown,
    };
    let (result, action) = v2::execute_op(engine, &op, ctx);
    (attach_trace(legacy_reply(&op, result), ctx), action)
}

/// Re-wraps a shared-dispatcher outcome in the legacy v1 reply shape for
/// its verb. The payloads inside are the [`crate::v2::execute_op`] results,
/// untouched — byte-identity between the API versions is by construction.
fn legacy_reply(op: &v2::Op, result: Result<Json, v2::OpError>) -> Json {
    let result = match result {
        // v1 has no envelope to flag `ok` on: operation-level failures are
        // `error` replies (engine-level failures ride inside the response
        // objects, exactly as in v2 results). The reply is built from the
        // shared wire body, so structured fields — `retry_after_ms` on
        // `overloaded` rejections — reach v1 clients too.
        Err(error) => {
            let mut fields = vec![("type".to_string(), Json::str("error"))];
            if let Json::Obj(body) = error.wire_body() {
                fields.extend(body);
            }
            return Json::Obj(fields);
        }
        Ok(result) => result,
    };
    match op {
        v2::Op::Solve { .. } => {
            Json::obj(vec![("type", Json::str("response")), ("response", result)])
        }
        v2::Op::Batch { .. } => Json::obj(vec![
            ("type", Json::str("batch")),
            (
                "responses",
                result
                    .get("responses")
                    .cloned()
                    .unwrap_or(Json::Arr(vec![])),
            ),
        ]),
        v2::Op::Stats => Json::obj(vec![("type", Json::str("stats")), ("stats", result)]),
        v2::Op::Metrics => Json::obj(vec![("type", Json::str("metrics")), ("metrics", result)]),
        v2::Op::Snapshot => {
            let mut fields = vec![("type".to_string(), Json::str("snapshot_ok"))];
            if let Json::Obj(result_fields) = result {
                fields.extend(result_fields);
            }
            Json::Obj(fields)
        }
        v2::Op::Shutdown => shutdown_reply(),
        v2::Op::TraceList => Json::obj(vec![("type", Json::str("trace")), ("traces", result)]),
        v2::Op::TraceGet { .. } => Json::obj(vec![("type", Json::str("trace")), ("trace", result)]),
        // Session verbs exist only in the v2 envelope; no v1 request maps
        // onto them.
        _ => error_reply("bad_message", "operation has no v1 reply shape"),
    }
}

/// Appends the context's trace ID as a top-level `trace_id` reply field.
pub fn attach_trace(reply: Json, ctx: &RequestCtx) -> Json {
    match reply {
        Json::Obj(mut fields) => {
            if !fields.iter().any(|(key, _)| key == "trace_id") {
                fields.push(("trace_id".to_string(), Json::str(ctx.trace_id.clone())));
            }
            Json::Obj(fields)
        }
        other => other,
    }
}

/// The client-supplied `trace_id` field of a raw request frame, if any —
/// read by the transport *before* [`Request::from_json`] so even a frame
/// that fails to decode gets its error reply correlated.
pub fn request_trace(value: &Json) -> Option<&str> {
    value.get("trace_id").and_then(Json::as_str)
}

/// The client-supplied `deadline_ms` field of a raw request frame, if any
/// — read by the transport at the same edge as [`request_trace`] and
/// turned into the [`RequestCtx`] deadline before dispatch.
pub fn request_deadline_ms(value: &Json) -> Option<u64> {
    value.get("deadline_ms").and_then(Json::as_u64)
}

/// The fields of a completed save, shared verbatim between the v1
/// `snapshot_ok` reply and the v2 `snapshot` result.
pub fn snapshot_payload(engine: &QueryEngine, report: &SaveReport) -> Json {
    let path = engine
        .snapshot_meta()
        .map(|meta| Json::str(meta.path.display().to_string()))
        .unwrap_or(Json::Null);
    Json::obj(vec![
        ("entries", Json::num(report.entries as u64)),
        ("links", Json::num(report.links as u64)),
        ("bytes", Json::num(report.bytes)),
        ("path", path),
    ])
}

/// The `snapshot_ok` reply describing a completed save.
pub fn snapshot_reply(engine: &QueryEngine, report: &SaveReport) -> Json {
    let mut fields = vec![("type".to_string(), Json::str("snapshot_ok"))];
    if let Json::Obj(payload) = snapshot_payload(engine, report) {
        fields.extend(payload);
    }
    Json::Obj(fields)
}

/// The server's `hello` reply. `proto` names the legacy dialect (what a
/// version-1 client expects to match on); `supported_versions` advertises
/// every frame dialect this build serves, so newer clients can discover
/// `pcp2` without a second handshake.
pub fn hello_reply() -> Json {
    Json::obj(vec![
        ("type", Json::str("hello")),
        ("proto", Json::num(PROTO_VERSION)),
        (
            "supported_versions",
            Json::Arr(SUPPORTED_VERSIONS.iter().map(|&v| Json::num(v)).collect()),
        ),
        ("server", Json::str(SERVER_NAME)),
    ])
}

/// Wraps one query response in a `response` reply.
pub fn response_reply(response: &QueryResponse) -> Json {
    Json::obj(vec![
        ("type", Json::str("response")),
        ("response", response.to_json()),
    ])
}

/// Wraps a batch's responses in a `batch` reply.
pub fn batch_reply(responses: &[QueryResponse]) -> Json {
    Json::obj(vec![
        ("type", Json::str("batch")),
        (
            "responses",
            Json::Arr(responses.iter().map(QueryResponse::to_json).collect()),
        ),
    ])
}

fn shard_stats_json(shard: &ShardStats) -> Json {
    Json::obj(vec![
        ("hits", Json::num(shard.hits)),
        ("misses", Json::num(shard.misses)),
        ("evictions", Json::num(shard.evictions)),
        ("entries", Json::num(shard.entries as u64)),
        ("hit_rate", Json::Num(shard.hit_rate())),
    ])
}

/// Build/version identification of this daemon, carried in the stats
/// payload so fleet operators can tell heterogeneous daemons apart: the
/// crate version, the framed protocol dialect (`pcp<N>`) and the snapshot
/// file format (`pcsnap<N>`).
pub fn version_payload() -> Json {
    Json::obj(vec![
        ("crate", Json::str(env!("CARGO_PKG_VERSION"))),
        ("server", Json::str(SERVER_NAME)),
        ("proto", Json::str(format!("pcp{PROTO_VERSION}"))),
        (
            "snapshot_format",
            Json::str(format!("pcsnap{SNAPSHOT_VERSION}")),
        ),
    ])
}

/// The bare stats object carried inside a `stats` reply: the aggregated and
/// per-shard cache counters, the daemon's uptime, build/version info,
/// per-stage latency summaries (count/mean/p50/p90/p99, see
/// [`crate::telemetry`]), and — when persistence is attached — the snapshot
/// metadata (`path`, `loaded_entries`, `last_checkpoint_unix`);
/// `"snapshot"` is `null` otherwise.
pub fn stats_payload(engine: &QueryEngine) -> Json {
    let stats = engine.cache_stats();
    let shards = engine.cache_shard_stats();
    let metrics = engine.metrics_report().to_json();
    let metric = |path: &[&str]| {
        let found = path.iter().try_fold(&metrics, |node, key| node.get(key));
        found.cloned().unwrap_or(Json::Null)
    };
    let snapshot = match engine.snapshot_meta() {
        Some(meta) => Json::obj(vec![
            ("path", Json::str(meta.path.display().to_string())),
            ("loaded_entries", Json::num(meta.loaded_entries as u64)),
            (
                "last_checkpoint_unix",
                meta.last_checkpoint_unix.map_or(Json::Null, Json::num),
            ),
            (
                "consecutive_failures",
                metric(&["snapshot", "consecutive_failures"]),
            ),
        ]),
        None => Json::Null,
    };
    Json::obj(vec![
        ("hits", Json::num(stats.hits)),
        ("misses", Json::num(stats.misses)),
        ("evictions", Json::num(stats.evictions)),
        ("entries", Json::num(stats.entries as u64)),
        ("shards", Json::num(stats.shards as u64)),
        ("hit_rate", Json::Num(stats.hit_rate())),
        (
            "per_shard",
            Json::Arr(shards.iter().map(shard_stats_json).collect()),
        ),
        ("uptime_secs", Json::num(engine.uptime_secs())),
        ("requests_total", metric(&["requests_total"])),
        ("stages", metric(&["stages"])),
        ("sessions", sessions_payload(engine)),
        ("version", version_payload()),
        ("snapshot", snapshot),
    ])
}

/// The live-session block of the stats payload: the handle count plus one
/// object per resident handle (`handle` / `vertices` / `edges` /
/// `mutations` / `idle_secs`). Collecting it sweeps the idle-TTL reaper
/// first, so stats never report already-expired handles. Sessions are
/// daemon-resident state, deliberately *excluded* from `pcsnap1` cache
/// snapshots — this block is where operators see them instead.
pub fn sessions_payload(engine: &QueryEngine) -> Json {
    let infos = engine.session_stats();
    Json::obj(vec![
        ("live", Json::num(infos.len() as u64)),
        (
            "handles",
            Json::Arr(
                infos
                    .iter()
                    .map(|info| {
                        Json::obj(vec![
                            ("handle", Json::str(info.handle.clone())),
                            ("vertices", Json::num(info.vertices as u64)),
                            ("edges", Json::num(info.edges as u64)),
                            ("mutations", Json::num(info.mutations)),
                            ("idle_secs", Json::num(info.idle_secs)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Wraps the engine's stats in a `stats` reply.
pub fn stats_reply(engine: &QueryEngine) -> Json {
    Json::obj(vec![
        ("type", Json::str("stats")),
        ("stats", stats_payload(engine)),
    ])
}

/// The full metrics report payload (the
/// [`crate::telemetry::MetricsReport::to_json`] shape plus version info),
/// shared verbatim between the v1 `metrics` reply and the v2 result.
pub fn metrics_payload(engine: &QueryEngine) -> Json {
    let mut metrics = engine.metrics_report().to_json();
    if let Json::Obj(fields) = &mut metrics {
        fields.push(("version".to_string(), version_payload()));
    }
    metrics
}

/// Wraps the engine's full metrics report in a `metrics` reply.
pub fn metrics_reply(engine: &QueryEngine) -> Json {
    Json::obj(vec![
        ("type", Json::str("metrics")),
        ("metrics", metrics_payload(engine)),
    ])
}

/// The `shutdown_ok` reply.
pub fn shutdown_reply() -> Json {
    Json::obj(vec![("type", Json::str("shutdown_ok"))])
}

/// An `error` reply. Used both for [`ProtoError`]s and for version refusals.
pub fn error_reply(code: &str, message: &str) -> Json {
    Json::obj(vec![
        ("type", Json::str("error")),
        ("code", Json::str(code)),
        ("message", Json::str(message)),
    ])
}

/// Checks a reply frame's `"type"` tag, converting `error` replies into
/// [`ProtoError::Remote`].
fn expect_reply(value: Json, expected: &str) -> Result<Json, ProtoError> {
    let kind = value
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::BadMessage("reply missing 'type'".to_string()))?;
    if kind == "error" {
        return Err(ProtoError::Remote {
            code: value
                .get("code")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            message: value
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            retry_after_ms: value.get("retry_after_ms").and_then(Json::as_u64),
        });
    }
    if kind != expected {
        return Err(ProtoError::BadMessage(format!(
            "expected '{expected}' reply, got '{kind}'"
        )));
    }
    Ok(value)
}

/// Bounded retry with jittered exponential backoff for *idempotent*
/// client calls that were shed with an `overloaded` rejection.
///
/// Shared by [`Client`] (framed) and [`crate::http::Client`]; both retry
/// only reads and pure computations (`solve` / `batch` / `stats` /
/// `metrics`), never `shutdown` or `snapshot`. The server's
/// `retry_after_ms` hint, when present, is honored as the *minimum* wait
/// for that attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries after the first attempt (0 disables retrying).
    pub max_retries: u32,
    /// First-attempt backoff in milliseconds; doubles per retry.
    pub base_backoff_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 50,
            max_backoff_ms: 2_000,
        }
    }
}

impl RetryPolicy {
    /// The wait before retry number `attempt` (0-based): the larger of the
    /// exponential backoff and the server's `retry_after_ms` hint, capped,
    /// plus up to 50% deterministic-free jitter so a shed fleet does not
    /// retry in lockstep.
    pub fn backoff(&self, attempt: u32, server_hint_ms: Option<u64>) -> std::time::Duration {
        let expo = self
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(16).min(63));
        let base = expo
            .max(server_hint_ms.unwrap_or(0))
            .min(self.max_backoff_ms)
            .max(1);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0);
        let mut z = nanos ^ (u64::from(attempt) << 32) ^ 0x9e37_79b9_7f4a_7c15;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 31;
        let jitter = z % (base / 2 + 1);
        std::time::Duration::from_millis(base + jitter)
    }
}

/// Whether a failed call should be retried under a policy: only
/// `overloaded` rejections qualify — the server explicitly promised the
/// request is safe to repeat.
fn retryable_overload(error: &ProtoError) -> Option<Option<u64>> {
    match error {
        ProtoError::Remote {
            code,
            retry_after_ms,
            ..
        } if code == "overloaded" => Some(*retry_after_ms),
        _ => None,
    }
}

/// A protocol client over any bidirectional byte stream.
///
/// The transport is generic: [`crate::daemon`] instantiates it over a unix
/// socket, tests can run it over an in-memory pipe. Construction performs
/// the `hello` handshake. With a [`RetryPolicy`] attached
/// ([`Client::with_retry`]), idempotent calls shed with `overloaded` are
/// retried with backoff; the default is no retrying.
pub struct Client<S: io::Read + io::Write> {
    stream: io::BufReader<S>,
    retry: Option<RetryPolicy>,
}

impl<S: io::Read + io::Write> Client<S> {
    /// Performs the `hello` handshake and returns the connected client.
    pub fn connect(stream: S) -> Result<Self, ProtoError> {
        let mut client = Client {
            stream: io::BufReader::new(stream),
            retry: None,
        };
        let hello = Request::Hello {
            proto: PROTO_VERSION,
        };
        let reply = client.round_trip(&hello.to_json(), "hello")?;
        let proto = reply.get("proto").and_then(Json::as_u64).unwrap_or(0);
        if proto != PROTO_VERSION {
            return Err(ProtoError::UnsupportedVersion(proto));
        }
        Ok(client)
    }

    /// Attaches a retry policy for idempotent calls (`solve` / `batch` /
    /// `stats` / `metrics`) shed with `overloaded`.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    fn round_trip(&mut self, payload: &Json, expected: &str) -> Result<Json, ProtoError> {
        if let Err(error) = write_frame(self.stream.get_mut(), payload) {
            // The daemon may have rejected this connection at accept time
            // (connection cap) and closed it after writing one typed
            // rejection frame. Our write raced that close — prefer the
            // buffered rejection (a recoverable `overloaded` the caller
            // can retry against) over a bare broken pipe.
            return match read_frame(&mut self.stream) {
                Ok(reply) => expect_reply(reply, expected),
                Err(_) => Err(error.into()),
            };
        }
        let reply = read_frame(&mut self.stream)?;
        expect_reply(reply, expected)
    }

    /// [`Client::round_trip`] with overload retries, used only by the
    /// idempotent calls. The connection stays live across attempts — an
    /// `overloaded` reply is recoverable by construction.
    fn round_trip_retry(&mut self, payload: &Json, expected: &str) -> Result<Json, ProtoError> {
        let mut attempt = 0u32;
        loop {
            let result = self.round_trip(payload, expected);
            let delay = match (&self.retry, &result) {
                (Some(policy), Err(error)) if attempt < policy.max_retries => {
                    retryable_overload(error).map(|hint| policy.backoff(attempt, hint))
                }
                _ => None,
            };
            match delay {
                Some(delay) => {
                    std::thread::sleep(delay);
                    attempt += 1;
                }
                None => return result,
            }
        }
    }

    /// Executes one query remotely; returns the response object (the
    /// [`QueryResponse::to_json`] shape).
    pub fn solve(&mut self, request: &QueryRequest) -> Result<Json, ProtoError> {
        let reply =
            self.round_trip_retry(&Request::Solve(request.clone()).to_json(), "response")?;
        reply
            .get("response")
            .cloned()
            .ok_or_else(|| ProtoError::BadMessage("response reply missing payload".to_string()))
    }

    /// Executes a batch remotely; returns the response objects in request
    /// order.
    pub fn batch(
        &mut self,
        shared: Option<GraphSpec>,
        requests: Vec<QueryRequest>,
    ) -> Result<Vec<Json>, ProtoError> {
        let reply =
            self.round_trip_retry(&Request::Batch { shared, requests }.to_json(), "batch")?;
        match reply.get("responses") {
            Some(Json::Arr(items)) => Ok(items.clone()),
            _ => Err(ProtoError::BadMessage(
                "batch reply missing 'responses' array".to_string(),
            )),
        }
    }

    /// Fetches the daemon's cache statistics object.
    pub fn stats(&mut self) -> Result<Json, ProtoError> {
        let reply = self.round_trip_retry(&Request::Stats.to_json(), "stats")?;
        reply
            .get("stats")
            .cloned()
            .ok_or_else(|| ProtoError::BadMessage("stats reply missing payload".to_string()))
    }

    /// Fetches the daemon's full metrics report object (the
    /// [`crate::telemetry::MetricsReport::to_json`] shape).
    pub fn metrics(&mut self) -> Result<Json, ProtoError> {
        let reply = self.round_trip_retry(&Request::Metrics.to_json(), "metrics")?;
        reply
            .get("metrics")
            .cloned()
            .ok_or_else(|| ProtoError::BadMessage("metrics reply missing payload".to_string()))
    }

    /// Fetches trace summaries from the daemon's flight recorder
    /// (`id: None`), or one retained trace in full; `chrome` selects
    /// Chrome trace-event JSON for a single-trace fetch (see
    /// [`crate::trace`]).
    pub fn trace(&mut self, id: Option<&str>, chrome: bool) -> Result<Json, ProtoError> {
        let request = Request::Trace {
            id: id.map(str::to_string),
            chrome,
        };
        let reply = self.round_trip_retry(&request.to_json(), "trace")?;
        let field = if id.is_some() { "trace" } else { "traces" };
        reply
            .get(field)
            .cloned()
            .ok_or_else(|| ProtoError::BadMessage(format!("trace reply missing '{field}' payload")))
    }

    /// Asks the daemon to persist its warm cache right now; returns the
    /// `snapshot_ok` object (`entries` / `links` / `bytes` / `path`). A
    /// daemon serving without `--snapshot` answers with a
    /// `snapshot_unconfigured` error reply ([`ProtoError::Remote`]).
    pub fn save_snapshot(&mut self) -> Result<Json, ProtoError> {
        self.round_trip(&Request::Snapshot.to_json(), "snapshot_ok")
    }

    /// Asks the daemon to shut down; returns after the acknowledgement.
    pub fn shutdown(&mut self) -> Result<(), ProtoError> {
        self.round_trip(&Request::Shutdown.to_json(), "shutdown_ok")?;
        Ok(())
    }

    /// Sends one [`crate::v2`] envelope as a `pcp2` frame and returns the
    /// v2 reply envelope verbatim (`ok` / `result` / `error` are the
    /// caller's to inspect — v2 failures are in-band, not [`ProtoError`]s).
    ///
    /// The dialect is per frame, so v1 calls and v2 envelopes can be mixed
    /// freely on one connected client.
    pub fn query_v2(&mut self, envelope: &Json) -> Result<Json, ProtoError> {
        write_frame_v(self.stream.get_mut(), envelope, v2::API_VERSION)?;
        let (version, body) = read_frame_raw(&mut self.stream)?;
        if version != v2::API_VERSION {
            return Err(ProtoError::BadMessage(format!(
                "expected a pcp{} reply, got pcp{version}",
                v2::API_VERSION
            )));
        }
        Json::parse(&body).map_err(ProtoError::BadJson)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QueryKind;

    fn frame_bytes(payload: &Json) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn frames_round_trip() {
        let payload = Json::obj(vec![
            ("type", Json::str("solve")),
            ("cotree", Json::str("(j a b)\nwith a newline")),
        ]);
        let bytes = frame_bytes(&payload);
        let text = String::from_utf8(bytes.clone()).unwrap();
        assert!(
            text.starts_with("pcp1 "),
            "header carries the version: {text}"
        );
        let mut reader = io::BufReader::new(&bytes[..]);
        assert_eq!(read_frame(&mut reader).unwrap(), payload);
        // The stream is exactly consumed: the next read is a clean EOF.
        assert!(matches!(read_frame(&mut reader), Err(ProtoError::Closed)));
    }

    #[test]
    fn back_to_back_frames_stay_in_sync() {
        let a = Json::obj(vec![("type", Json::str("stats"))]);
        let b = Json::obj(vec![("type", Json::str("shutdown"))]);
        let mut bytes = frame_bytes(&a);
        bytes.extend(frame_bytes(&b));
        let mut reader = io::BufReader::new(&bytes[..]);
        assert_eq!(read_frame(&mut reader).unwrap(), a);
        assert_eq!(read_frame(&mut reader).unwrap(), b);
    }

    #[test]
    fn bad_json_payload_is_recoverable_and_keeps_sync() {
        let mut bytes = b"pcp1 9\nnot json!\n".to_vec();
        bytes.extend(frame_bytes(&Json::obj(vec![("type", Json::str("stats"))])));
        let mut reader = io::BufReader::new(&bytes[..]);
        let err = read_frame(&mut reader).unwrap_err();
        assert!(matches!(err, ProtoError::BadJson(_)));
        assert!(err.is_recoverable());
        // The malformed payload was fully consumed; the next frame parses.
        assert!(read_frame(&mut reader).is_ok());
    }

    #[test]
    fn framing_defects_are_fatal() {
        for (bytes, name) in [
            (b"GET / HTTP/1.1\r\n".to_vec(), "http"),
            (b"pcp1 notanumber\n".to_vec(), "bad length"),
            (b"xyz1 5\nabcde\n".to_vec(), "bad magic"),
            (vec![b'p'; 200], "unterminated header"),
        ] {
            let mut reader = io::BufReader::new(&bytes[..]);
            let err = read_frame(&mut reader).unwrap_err();
            assert!(!err.is_recoverable(), "{name} must be fatal, got {err:?}");
        }
        // A `pcp2` frame is a supported dialect: the raw reader accepts it
        // (and stays in sync), but the v1-only reader still refuses it.
        let mut reader = io::BufReader::new(&b"pcp2 2\n{}\n"[..]);
        assert_eq!(read_frame_raw(&mut reader).unwrap(), (2, "{}".to_string()));
        let mut reader = io::BufReader::new(&b"pcp2 2\n{}\n"[..]);
        assert!(matches!(
            read_frame(&mut reader),
            Err(ProtoError::UnsupportedVersion(2))
        ));
        // Unknown versions stay fatal, rejected before the payload.
        let mut reader = io::BufReader::new(&b"pcp3 2\n{}\n"[..]);
        assert!(matches!(
            read_frame_raw(&mut reader),
            Err(ProtoError::UnsupportedVersion(3))
        ));
    }

    #[test]
    fn oversized_writes_are_refused_before_any_bytes() {
        let payload = Json::str("x".repeat(MAX_FRAME_LEN + 1));
        let mut out = Vec::new();
        let err = write_frame(&mut out, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(out.is_empty(), "stream must stay untouched and in sync");
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let header = format!("pcp1 {}\n", MAX_FRAME_LEN + 1);
        let mut reader = io::BufReader::new(header.as_bytes());
        assert!(matches!(
            read_frame(&mut reader),
            Err(ProtoError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn requests_round_trip_through_json() {
        let solve = Request::Solve(
            QueryRequest::new(
                QueryKind::MinCoverSize,
                GraphSpec::CotreeTerm("(j a b)".to_string()),
            )
            .with_id("q1"),
        );
        match Request::from_json(&solve.to_json()).unwrap() {
            Request::Solve(req) => {
                assert_eq!(req.id.as_deref(), Some("q1"));
                assert_eq!(req.kind, QueryKind::MinCoverSize);
                assert!(matches!(req.graph, GraphSpec::CotreeTerm(ref t) if t == "(j a b)"));
            }
            other => panic!("wrong request: {other:?}"),
        }

        let batch = Request::Batch {
            shared: Some(GraphSpec::EdgeList("0 1\n".to_string())),
            requests: vec![QueryRequest::new(QueryKind::Recognize, GraphSpec::Shared)],
        };
        match Request::from_json(&batch.to_json()).unwrap() {
            Request::Batch { shared, requests } => {
                assert!(matches!(shared, Some(GraphSpec::EdgeList(_))));
                assert_eq!(requests.len(), 1);
                assert!(matches!(requests[0].graph, GraphSpec::Shared));
            }
            other => panic!("wrong request: {other:?}"),
        }

        for simple in [
            Request::Stats,
            Request::Metrics,
            Request::Snapshot,
            Request::Shutdown,
            Request::Hello { proto: 1 },
        ] {
            assert!(Request::from_json(&simple.to_json()).is_ok());
        }
    }

    #[test]
    fn malformed_messages_are_typed() {
        for bad in [
            r#"{"no_type":1}"#,
            r#"{"type":"launch_missiles"}"#,
            r#"{"type":"hello"}"#,
            r#"{"type":"batch"}"#,
            r#"{"type":"solve"}"#, // missing 'kind'
        ] {
            let value = Json::parse(bad).unwrap();
            let err = Request::from_json(&value).unwrap_err();
            assert!(matches!(err, ProtoError::BadMessage(_)), "for {bad}");
            assert!(err.is_recoverable());
        }
        // A solve without a graph field targets the (absent) shared graph:
        // structurally valid, fails later in the engine, not the protocol.
        let value = Json::parse(r#"{"type":"solve","kind":"recognize"}"#).unwrap();
        assert!(Request::from_json(&value).is_ok());
    }

    #[test]
    fn dispatch_answers_each_request_kind() {
        let engine = QueryEngine::default();
        let (reply, action) = dispatch(
            &engine,
            &Request::Hello {
                proto: PROTO_VERSION,
            },
        );
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("hello"));
        assert_eq!(action, Action::Continue);

        let (reply, _) = dispatch(&engine, &Request::Hello { proto: 99 });
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("error"));

        let query = QueryRequest::new(
            QueryKind::MinCoverSize,
            GraphSpec::CotreeTerm("(j a b c)".to_string()),
        );
        let (reply, _) = dispatch(&engine, &Request::Solve(query.clone()));
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("response"));
        assert_eq!(
            reply
                .get("response")
                .and_then(|r| r.get("answer"))
                .and_then(|a| a.get("size"))
                .and_then(Json::as_u64),
            Some(1)
        );

        let (reply, _) = dispatch(
            &engine,
            &Request::Batch {
                shared: None,
                requests: vec![query.clone(), query],
            },
        );
        let Some(Json::Arr(responses)) = reply.get("responses") else {
            panic!("batch reply missing responses: {reply}");
        };
        assert_eq!(responses.len(), 2);

        let (reply, _) = dispatch(&engine, &Request::Stats);
        let stats = reply.get("stats").expect("stats payload");
        assert!(stats.get("hits").and_then(Json::as_u64).is_some());
        assert_eq!(
            stats.get("per_shard").map(|s| matches!(s, Json::Arr(_))),
            Some(true)
        );
        assert!(stats.get("uptime_secs").and_then(Json::as_u64).is_some());
        assert_eq!(
            stats.get("snapshot"),
            Some(&Json::Null),
            "no snapshot attached: metadata must be null, not absent"
        );

        let (reply, action) = dispatch(&engine, &Request::Metrics);
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("metrics"));
        assert_eq!(action, Action::Continue);
        let metrics = reply.get("metrics").expect("metrics payload");
        // The solve + batch above were booked: 3 requests, all ok.
        assert_eq!(
            metrics.get("requests_total").and_then(Json::as_u64),
            Some(3)
        );
        assert!(metrics.get("stages").is_some());
        assert_eq!(
            metrics
                .get("version")
                .and_then(|v| v.get("proto"))
                .and_then(Json::as_str),
            Some("pcp1")
        );

        // Save-now without persistence configured: a typed, recoverable
        // error reply, not a dead connection.
        let (reply, action) = dispatch(&engine, &Request::Snapshot);
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("error"));
        assert_eq!(
            reply.get("code").and_then(Json::as_str),
            Some("snapshot_unconfigured")
        );
        assert_eq!(action, Action::Continue);

        let (reply, action) = dispatch(&engine, &Request::Shutdown);
        assert_eq!(
            reply.get("type").and_then(Json::as_str),
            Some("shutdown_ok")
        );
        assert_eq!(action, Action::Shutdown);
    }

    #[test]
    fn every_reply_echoes_the_trace_id() {
        let engine = QueryEngine::default();
        let ctx = RequestCtx::with_trace("trace-42");
        let query = QueryRequest::new(
            QueryKind::MinCoverSize,
            GraphSpec::CotreeTerm("(j a b)".to_string()),
        );
        for request in [
            Request::Hello {
                proto: PROTO_VERSION,
            },
            Request::Hello { proto: 99 }, // error reply
            Request::Solve(query.clone()),
            Request::Batch {
                shared: None,
                requests: vec![query],
            },
            Request::Stats,
            Request::Metrics,
            Request::Snapshot, // snapshot_unconfigured error reply
        ] {
            let (reply, _) = dispatch_ctx(&engine, &request, &ctx);
            assert_eq!(
                reply.get("trace_id").and_then(Json::as_str),
                Some("trace-42"),
                "reply missing trace: {reply}"
            );
        }
        // The engine threads the same trace into response metadata.
        let (reply, _) = dispatch_ctx(
            &engine,
            &Request::Solve(QueryRequest::new(
                QueryKind::Recognize,
                GraphSpec::CotreeTerm("(u a b)".to_string()),
            )),
            &ctx,
        );
        assert_eq!(
            reply
                .get("response")
                .and_then(|r| r.get("meta"))
                .and_then(|m| m.get("trace_id"))
                .and_then(Json::as_str),
            Some("trace-42")
        );
        // And a client-supplied frame field is where transports read it from.
        let frame = Json::parse(r#"{"type":"stats","trace_id":"abc"}"#).unwrap();
        assert_eq!(request_trace(&frame), Some("abc"));
        assert_eq!(
            request_trace(&Json::parse(r#"{"type":"stats"}"#).unwrap()),
            None
        );
    }

    /// A fake duplex stream: reads drain a pre-baked reply script, writes
    /// count the frames the client sent (each frame ends in exactly two
    /// newlines: the header's and the body terminator).
    struct Scripted {
        replies: io::Cursor<Vec<u8>>,
        newlines_written: usize,
    }

    impl Scripted {
        fn new(replies: &[Json]) -> Self {
            let mut bytes = Vec::new();
            for reply in replies {
                write_frame(&mut bytes, reply).unwrap();
            }
            Scripted {
                replies: io::Cursor::new(bytes),
                newlines_written: 0,
            }
        }

        fn frames_written(&self) -> usize {
            self.newlines_written / 2
        }
    }

    impl io::Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.replies.read(buf)
        }
    }

    impl io::Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.newlines_written += buf.iter().filter(|&&b| b == b'\n').count();
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn overloaded_reply() -> Json {
        Json::obj(vec![
            ("type", Json::str("error")),
            ("code", Json::str("overloaded")),
            ("message", Json::str("server overloaded; retry after 1 ms")),
            ("retry_after_ms", Json::num(1)),
        ])
    }

    #[test]
    fn client_retries_overload_until_the_reply_lands() {
        let hello = Json::obj(vec![
            ("type", Json::str("hello")),
            ("proto", Json::num(PROTO_VERSION)),
        ]);
        let stats = Json::obj(vec![
            ("type", Json::str("stats")),
            ("stats", Json::obj(vec![("entries", Json::num(0))])),
        ]);
        // Script: handshake, then two sheds, then the real answer.
        let script = Scripted::new(&[
            hello.clone(),
            overloaded_reply(),
            overloaded_reply(),
            stats.clone(),
        ]);
        let mut client = Client::connect(script)
            .expect("handshake")
            .with_retry(RetryPolicy {
                max_retries: 3,
                base_backoff_ms: 1,
                max_backoff_ms: 2,
            });
        let payload = client.stats().expect("retries absorb the sheds");
        assert_eq!(payload.get("entries").and_then(Json::as_u64), Some(0));
        // hello + three stats frames (initial attempt + two retries).
        assert_eq!(client.stream.get_ref().frames_written(), 4);
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_the_overload_error() {
        let hello = Json::obj(vec![
            ("type", Json::str("hello")),
            ("proto", Json::num(PROTO_VERSION)),
        ]);
        let script = Scripted::new(&[hello, overloaded_reply(), overloaded_reply()]);
        let mut client = Client::connect(script)
            .expect("handshake")
            .with_retry(RetryPolicy {
                max_retries: 1,
                base_backoff_ms: 1,
                max_backoff_ms: 1,
            });
        let error = client.stats().expect_err("budget of one retry");
        match error {
            ProtoError::Remote {
                code,
                retry_after_ms,
                ..
            } => {
                assert_eq!(code, "overloaded");
                assert_eq!(retry_after_ms, Some(1));
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn non_overload_errors_are_never_retried() {
        let hello = Json::obj(vec![
            ("type", Json::str("hello")),
            ("proto", Json::num(PROTO_VERSION)),
        ]);
        let bad = Json::obj(vec![
            ("type", Json::str("error")),
            ("code", Json::str("bad_request")),
            ("message", Json::str("nope")),
        ]);
        let script = Scripted::new(&[hello, bad]);
        let mut client = Client::connect(script)
            .expect("handshake")
            .with_retry(RetryPolicy::default());
        assert!(client.stats().is_err());
        // hello + exactly one stats frame: no retry was attempted.
        assert_eq!(client.stream.get_ref().frames_written(), 2);
    }

    #[test]
    fn backoff_honors_the_server_hint_and_the_cap() {
        let policy = RetryPolicy {
            max_retries: 5,
            base_backoff_ms: 10,
            max_backoff_ms: 100,
        };
        // Hint above the exponential floor wins; jitter adds at most 50%.
        let waited = policy.backoff(0, Some(80)).as_millis() as u64;
        assert!((80..=120).contains(&waited), "hint floor: {waited}");
        // Deep attempts cap at max_backoff_ms (+ jitter).
        let waited = policy.backoff(10, None).as_millis() as u64;
        assert!((100..=150).contains(&waited), "cap: {waited}");
    }
}
