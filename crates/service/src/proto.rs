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
//! Client → server frames are objects tagged by a `"type"` field, and every
//! one is answered by exactly one reply frame. The verb table, [`VERBS`],
//! has one row per verb: its frame tag, its HTTP method and `/v1` route,
//! its reply tag and where its answer sits in the reply ([`Placement`]).
//! Every verb but the `hello` handshake runs as a [`crate::v2::Op`]; its
//! row wraps the v2 result in the v1 reply, and a failed operation is an
//! `error` reply. [`Request`] is a frame as a value; the client side is
//! [`crate::client::Client::framed`]. Query and response payloads reuse the
//! JSON-lines shapes of [`QueryRequest::from_json`] and
//! [`QueryResponse::to_json`], so a daemon session speaks the same dialect
//! as `pathcover-cli batch` files. Requests may carry a `trace_id` field;
//! the server echoes it (or a synthesized ID) as a top-level `trace_id` on
//! every reply — see [`crate::telemetry`].
//!
//! Every transport hands each request — a `pcp1` or `pcp2` frame, an HTTP
//! `/v1` route or a `POST /v2/query` body — to one request edge, [`serve`].
//!
//! ## Error taxonomy
//!
//! [`ProtoError`] separates *recoverable* defects — a frame whose payload is
//! malformed JSON or a bad message, where the length framing kept the stream
//! in sync — from *fatal* ones (I/O failure, bad magic, oversized frame)
//! after which the byte stream cannot be trusted. Servers answer recoverable
//! errors with an `error` reply and keep the connection; fatal errors close
//! the connection — never the server (see [`crate::daemon`]). Every
//! [`crate::client`] failure, on either transport, is a [`ProtoError`]; a
//! daemon's `error` reply is [`ProtoError::Remote`].

use crate::cache::ShardStats;
use crate::engine::{QueryEngine, DEFAULT_RETRY_AFTER_MS};
use crate::error::ServiceError;
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
    /// The server answered with an `error` reply (client side only, see
    /// [`crate::client`]).
    Remote {
        /// Machine-readable error code.
        code: String,
        /// Human-readable message.
        message: String,
        /// Server-suggested backoff before retrying, in milliseconds
        /// (carried by `overloaded` rejections).
        retry_after_ms: Option<u64>,
        /// The HTTP status of the reply; `None` over the framed protocol.
        status: Option<u16>,
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
    let mut body = String::new();
    payload.write(&mut body);
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

/// A `pcp1` request as a value: what [`crate::client::Client`] sends and
/// what a frame payload decodes to. [`Request::verb`] names its row of
/// the verb table.
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
        decode(value).map(|(_, request)| request)
    }

    /// Encodes the request as a frame payload (client side).
    pub fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        match self {
            Request::Hello { proto } => fields.push(("proto", Json::num(*proto))),
            Request::Solve(request) => return tagged(SOLVE.tag, request.to_json()),
            Request::Batch { shared, requests } => {
                if let Some(spec) = shared.as_ref().and_then(GraphSpec::to_json) {
                    fields.push(("shared", spec));
                }
                let requests = requests.iter().map(QueryRequest::to_json).collect();
                fields.push(("requests", Json::Arr(requests)));
            }
            Request::Trace { id, chrome } => {
                fields.extend(id.as_ref().map(|id| ("id", Json::str(id.clone()))));
                fields.extend(chrome.then(|| ("format", Json::str("chrome"))));
            }
            Request::Stats | Request::Metrics | Request::Snapshot | Request::Shutdown => {}
        }
        tagged(self.verb().tag, Json::obj(fields))
    }

    /// The request's row of the verb table.
    pub fn verb(&self) -> &'static Verb {
        match self {
            Request::Hello { .. } => &HELLO,
            Request::Solve(_) => &SOLVE,
            Request::Batch { .. } => &BATCH,
            Request::Stats => &STATS,
            Request::Metrics => &METRICS,
            Request::Snapshot => &SNAPSHOT,
            Request::Trace { id: None, .. } => &TRACE_LIST,
            Request::Trace { id: Some(_), .. } => &TRACE_GET,
            Request::Shutdown => &SHUTDOWN,
        }
    }
}

/// Where a verb's v2 result sits in its v1 reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Under one field: `{"type": <reply>, <field>: <result>}`.
    Field(&'static str),
    /// Spliced after the tag: `{"type": <reply>, <the result's fields>}`.
    Splice,
}

/// One row of the v1 verb table, [`VERBS`]: how the verb is spelled on
/// each transport and where its answer sits in the reply.
#[derive(Debug)]
pub struct Verb {
    /// The request frame's `"type"` tag.
    pub tag: &'static str,
    /// The method of its HTTP route (`HEAD` is answered wherever `GET` is).
    pub method: &'static str,
    /// Its HTTP route; one ending in `/` names a resource by id (the next
    /// path segment, or the frame's `id` field).
    pub route: &'static str,
    /// Whether the route takes the frame's payload as its JSON body.
    pub body: bool,
    /// The reply's `"type"` tag.
    pub reply: &'static str,
    /// Where the v2 result sits in the reply.
    pub placement: Placement,
    /// Decodes a frame payload or an HTTP body.
    decode: fn(&Json) -> Result<Request, ProtoError>,
}

/// The version handshake; over HTTP, the `GET /healthz` probe.
pub static HELLO: Verb = Verb {
    tag: "hello",
    method: "GET",
    route: "/healthz",
    body: false,
    reply: "hello",
    placement: Placement::Splice,
    decode: |payload| match payload.get("proto").and_then(Json::as_u64) {
        Some(proto) => Ok(Request::Hello { proto }),
        None => Err(bad_message("hello needs a numeric 'proto' field")),
    },
};

/// One query.
pub static SOLVE: Verb = Verb {
    tag: "solve",
    method: "POST",
    route: "/v1/solve",
    body: true,
    reply: "response",
    placement: Placement::Field("response"),
    decode: |payload| {
        QueryRequest::from_json(payload)
            .map(Request::Solve)
            .map_err(|e| bad_message(e.to_string()))
    },
};

/// A batch of queries; its result is `{"responses": [...]}`.
pub static BATCH: Verb = Verb {
    tag: "batch",
    method: "POST",
    route: "/v1/batch",
    body: true,
    reply: "batch",
    placement: Placement::Splice,
    decode: |payload| {
        let (shared, requests) = batch_fields(payload)?;
        Ok(Request::Batch { shared, requests })
    },
};

/// The cache, uptime and stage statistics.
pub static STATS: Verb = Verb {
    tag: "stats",
    method: "GET",
    route: "/v1/stats",
    body: false,
    reply: "stats",
    placement: Placement::Field("stats"),
    decode: |_| Ok(Request::Stats),
};

/// The full metrics report; its HTTP route serves Prometheus text unless
/// asked for `?format=json`.
pub static METRICS: Verb = Verb {
    tag: "metrics",
    method: "GET",
    route: "/v1/metrics",
    body: false,
    reply: "metrics",
    placement: Placement::Field("metrics"),
    decode: |_| Ok(Request::Metrics),
};

/// One retained trace; its HTTP route serves the Chrome export raw.
pub static TRACE_GET: Verb = Verb {
    tag: "trace",
    method: "GET",
    route: "/v1/trace/",
    body: false,
    reply: "trace",
    placement: Placement::Field("trace"),
    decode: decode_trace,
};

/// The flight recorder's trace summaries.
pub static TRACE_LIST: Verb = Verb {
    tag: "trace",
    method: "GET",
    route: "/v1/trace",
    body: false,
    reply: "trace",
    placement: Placement::Field("traces"),
    decode: decode_trace,
};

/// Save the warm cache now.
pub static SNAPSHOT: Verb = Verb {
    tag: "snapshot",
    method: "POST",
    route: "/v1/snapshot",
    body: false,
    reply: "snapshot_ok",
    placement: Placement::Splice,
    decode: |_| Ok(Request::Snapshot),
};

/// Stop the daemon; its result is `{}`.
pub static SHUTDOWN: Verb = Verb {
    tag: "shutdown",
    method: "POST",
    route: "/v1/shutdown",
    body: false,
    reply: "shutdown_ok",
    placement: Placement::Splice,
    decode: |_| Ok(Request::Shutdown),
};

/// The v1 verb table. A `trace` frame with an `id` fetches one trace and
/// one without lists them, so the get row comes first.
pub static VERBS: [&Verb; 9] = [
    &HELLO,
    &SOLVE,
    &BATCH,
    &STATS,
    &METRICS,
    &TRACE_GET,
    &TRACE_LIST,
    &SNAPSHOT,
    &SHUTDOWN,
];

impl Verb {
    /// Whether the verb names one resource by id.
    pub fn by_id(&self) -> bool {
        self.route.ends_with('/')
    }

    /// Whether `path` is this verb's HTTP route.
    pub fn serves(&self, path: &str) -> bool {
        if self.by_id() {
            path.starts_with(self.route)
        } else {
            path == self.route
        }
    }

    /// The v1 reply carrying `result`.
    pub fn wrap(&self, result: Json) -> Json {
        match self.placement {
            Placement::Field(field) => tagged(self.reply, Json::obj(vec![(field, result)])),
            Placement::Splice => tagged(self.reply, result),
        }
    }
}

/// `fields` behind a leading `"type": tag`.
fn tagged(tag: &str, fields: Json) -> Json {
    let mut tagged = vec![("type".to_string(), Json::str(tag))];
    if let Json::Obj(fields) = fields {
        tagged.extend(fields);
    }
    Json::Obj(tagged)
}

fn bad_message(message: impl Into<String>) -> ProtoError {
    ProtoError::BadMessage(message.into())
}

/// Decodes a `trace` payload, list or get.
fn decode_trace(payload: &Json) -> Result<Request, ProtoError> {
    let id = match payload.get("id") {
        None | Some(Json::Null) => None,
        Some(Json::Str(id)) => Some(id.clone()),
        Some(other) => return Err(bad_message(format!("'id' must be a string, got {other}"))),
    };
    let chrome = v2::param_trace_format(payload).map_err(ProtoError::BadMessage)?;
    Ok(Request::Trace { id, chrome })
}

/// Decodes a `pcp1` payload into its row and request.
fn decode(payload: &Json) -> Result<(&'static Verb, Request), ProtoError> {
    let tag = payload
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| bad_message("missing string field 'type'"))?;
    let named = !matches!(payload.get("id"), None | Some(Json::Null));
    let verb = VERBS
        .iter()
        .find(|verb| verb.tag == tag && (named || !verb.by_id()))
        .ok_or_else(|| bad_message(format!("unknown message type '{tag}'")))?;
    Ok((verb, (verb.decode)(payload)?))
}

/// Decodes the batch fields (`shared` + `requests`) of a message object:
/// a `batch` frame, a `POST /v1/batch` body or a v2 `batch` envelope's
/// `params`.
pub fn batch_fields(value: &Json) -> Result<(Option<GraphSpec>, Vec<QueryRequest>), ProtoError> {
    let shared = match value.get("shared") {
        None | Some(Json::Null) => None,
        Some(spec) => Some(GraphSpec::from_json(spec).map_err(|e| bad_message(e.to_string()))?),
    };
    let Some(Json::Arr(items)) = value.get("requests") else {
        return Err(bad_message("batch needs an array field 'requests'"));
    };
    let requests = items
        .iter()
        .map(|item| QueryRequest::from_json(item).map_err(|e| bad_message(e.to_string())))
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

/// The longest client trace id the request edge accepts, in bytes. The ids
/// this crate synthesizes are 19 bytes; a W3C `traceparent` is 55.
pub const MAX_TRACE_ID_LEN: usize = 256;

/// How a request reached the edge: which dialect its payload speaks.
#[derive(Debug, Clone, Copy)]
pub enum Dialect {
    /// A `pcp1` frame; its `type` tag names the verb.
    Frame,
    /// An HTTP `/v1` route, which names the verb.
    Route(&'static Verb),
    /// A [`crate::v2`] envelope: a `pcp2` frame or a `POST /v2/query` body.
    Envelope,
}

/// What a transport read beside the payload: HTTP's `X-Request-Id` and
/// `X-Deadline-Ms` headers. A frame has none.
#[derive(Debug, Clone, Copy, Default)]
pub struct Headers<'a> {
    /// The client's trace id.
    pub trace: Option<&'a str>,
    /// The client's deadline, in milliseconds from now.
    pub deadline_ms: Option<u64>,
}

/// The answer to one request, in its dialect.
#[derive(Debug)]
pub struct Reply {
    /// The reply payload. Once the request ran it carries the trace id; a
    /// refusal gets it from the transport, after HTTP's `meta.api_version`.
    pub body: Json,
    /// The HTTP status: 400 for a refused v1 request, 404 for a v1 trace
    /// miss, 503 for an `overloaded` shed, else 200.
    pub status: u16,
    /// The shed's retry hint, for HTTP's `Retry-After`.
    pub retry_after_ms: Option<u64>,
    /// Whether the daemon stops after this reply.
    pub action: Action,
    /// The request's context.
    pub ctx: RequestCtx,
}

impl Reply {
    fn new(body: Json, status: u16, ctx: RequestCtx) -> Reply {
        Reply {
            body,
            status,
            retry_after_ms: None,
            action: Action::Continue,
            ctx,
        }
    }
}

/// A request's context. A header's trace id and deadline win over the
/// payload's `trace_id` and `deadline_ms` fields; without a client id one
/// is synthesized. An id longer than [`MAX_TRACE_ID_LEN`] is refused.
pub fn request_ctx(payload: &Json, headers: Headers) -> Result<RequestCtx, String> {
    let trace = headers
        .trace
        .or_else(|| payload.get("trace_id").and_then(Json::as_str));
    let ctx = match trace {
        Some(id) if id.len() > MAX_TRACE_ID_LEN => {
            return Err(format!(
                "trace id of {} bytes exceeds the {MAX_TRACE_ID_LEN}-byte cap",
                id.len()
            ))
        }
        Some(id) => RequestCtx::with_trace(id),
        None => RequestCtx::generate(),
    };
    let deadline_ms = headers
        .deadline_ms
        .or_else(|| payload.get("deadline_ms").and_then(Json::as_u64));
    Ok(ctx.with_deadline_ms(deadline_ms))
}

/// The one request edge. Every transport hands each request here: its
/// dialect, its payload (a frame, an HTTP body, or the fields a route
/// implies) and its header fields. The edge builds the [`RequestCtx`],
/// decodes the request into the operation it runs as, runs it once through
/// [`v2::execute_op`] and answers in the request's dialect.
pub fn serve(engine: &QueryEngine, dialect: Dialect, payload: &Json, headers: Headers) -> Reply {
    let ctx = match request_ctx(payload, headers) {
        Ok(ctx) => ctx,
        // Refused the way each dialect refuses a malformed field.
        Err(reason) => {
            let ctx = RequestCtx::generate();
            let (body, status) = match dialect {
                Dialect::Frame => (malformed_reply(bad_message(reason), dialect), 400),
                Dialect::Route(_) => {
                    let error = ServiceError::BadRequest(reason);
                    (error_reply(error.code(), &error.to_string()), 400)
                }
                Dialect::Envelope => {
                    let error = ServiceError::BadRequest(reason).wire_body();
                    (v2::envelope(None, Err(error), &ctx), 200)
                }
            };
            return Reply::new(body, status, ctx);
        }
    };
    run(engine, dialect, payload, ctx)
}

/// [`serve`] under a context the caller built.
pub fn run(engine: &QueryEngine, dialect: Dialect, payload: &Json, ctx: RequestCtx) -> Reply {
    let (verb, op) = match dialect {
        Dialect::Envelope => match v2::parse_envelope(payload) {
            Ok(op) => (None, op),
            Err(error) => {
                let body = v2::envelope(None, Err(error.wire_body()), &ctx);
                return Reply::new(body, 200, ctx);
            }
        },
        Dialect::Frame | Dialect::Route(_) => {
            let decoded = match dialect {
                Dialect::Route(verb) => (verb.decode)(payload).map(|request| (verb, request)),
                _ => decode(payload),
            };
            let (verb, request) = match decoded {
                Ok(decoded) => decoded,
                Err(error) => return Reply::new(malformed_reply(error, dialect), 400, ctx),
            };
            let op = match request {
                Request::Hello { proto } => {
                    return Reply::new(attach_trace(hello_reply(proto), &ctx), 200, ctx)
                }
                Request::Solve(query) => v2::Op::Solve {
                    target: v2::Target::Inline(query.graph),
                    kind: query.kind,
                    id: query.id,
                },
                Request::Batch { shared, requests } => v2::Op::Batch { shared, requests },
                Request::Stats => v2::Op::Stats,
                Request::Metrics => v2::Op::Metrics,
                Request::Snapshot => v2::Op::Snapshot,
                Request::Trace { id: None, .. } => v2::Op::TraceList,
                Request::Trace {
                    id: Some(id),
                    chrome,
                } => v2::Op::TraceGet { id, chrome },
                Request::Shutdown => v2::Op::Shutdown,
            };
            (Some(verb), op)
        }
    };
    let name = op.name();
    let (result, action) = v2::execute_op(engine, op, &ctx);
    let (status, retry_after_ms) = match &result {
        Err(v2::OpError::Service(ServiceError::Overloaded { retry_after_ms })) => {
            (503, Some(*retry_after_ms))
        }
        Err(v2::OpError::TraceNotFound { .. }) if verb.is_some() => (404, None),
        _ => (200, None),
    };
    let body = match (verb, result) {
        (None, result) => v2::envelope(Some(name), result.map_err(|e| e.wire_body()), &ctx),
        (Some(verb), Ok(result)) => attach_trace(verb.wrap(result), &ctx),
        // v1 has no envelope to flag `ok` on: an operation failure is an
        // `error` reply carrying its wire body (`retry_after_ms` included).
        (Some(_), Err(error)) => attach_trace(failure_reply(&error), &ctx),
    };
    Reply {
        body,
        status,
        retry_after_ms,
        action,
        ctx,
    }
}

/// The `error` reply to a v1 request that did not decode. `POST /v1/solve`
/// has always answered a body that is not a query with the query's own
/// error, without the `bad message:` prefix a frame carries.
fn malformed_reply(error: ProtoError, dialect: Dialect) -> Json {
    let message = match (dialect, &error) {
        (Dialect::Route(verb), ProtoError::BadMessage(message)) if std::ptr::eq(verb, &SOLVE) => {
            message.clone()
        }
        _ => error.to_string(),
    };
    error_reply(error.code(), &message)
}

/// The v1 `error` reply for an operation failure: its wire body (`code`,
/// `message` and structured fields such as `retry_after_ms`) under
/// `"type":"error"`.
pub fn failure_reply(error: &v2::OpError) -> Json {
    tagged("error", error.wire_body())
}

/// The reply to a request shed before dispatch (connection cap,
/// per-connection budget, injected fault) in the request's dialect: a
/// [`crate::v2`] error envelope for version 2, else the v1 `overloaded`
/// error reply. Both carry the default retry hint and `ctx`'s trace id.
pub fn shed_reply(version: u64, ctx: &RequestCtx) -> Json {
    let retry_after_ms = DEFAULT_RETRY_AFTER_MS;
    let error = ServiceError::Overloaded { retry_after_ms };
    error_in_dialect(version, error.wire_body(), ctx)
}

/// An error wire body (`code`, `message`, ...) in a frame's dialect, under
/// `ctx`'s trace id: a v1 `error` reply or a v2 error envelope. Used for
/// sheds and for protocol defects (a payload that never parsed, an
/// oversized reply).
pub fn error_in_dialect(version: u64, body: Json, ctx: &RequestCtx) -> Json {
    if version == v2::API_VERSION {
        return v2::envelope(None, Err(body), ctx);
    }
    attach_trace(tagged("error", body), ctx)
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

/// The server's answer to a `hello` for `proto`: the `hello` reply, or an
/// `unsupported_version` error. `proto` names the legacy dialect (what a
/// version-1 client matches on); `supported_versions` advertises every
/// frame dialect this build serves, so newer clients can discover `pcp2`
/// without a second handshake.
fn hello_reply(proto: u64) -> Json {
    if proto != PROTO_VERSION {
        return error_reply(
            "unsupported_version",
            &format!("server speaks pcp{PROTO_VERSION}, client sent pcp{proto}"),
        );
    }
    HELLO.wrap(Json::obj(vec![
        ("proto", Json::num(PROTO_VERSION)),
        (
            "supported_versions",
            Json::Arr(SUPPORTED_VERSIONS.iter().map(|&v| Json::num(v)).collect()),
        ),
        ("server", Json::str(SERVER_NAME)),
    ]))
}

/// Wraps one query response in a `response` reply.
pub fn response_reply(response: &QueryResponse) -> Json {
    SOLVE.wrap(response.to_json())
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

/// An `error` reply. Used both for [`ProtoError`]s and for version refusals.
pub fn error_reply(code: &str, message: &str) -> Json {
    tagged("error", error_body(code, message))
}

/// An error's wire body: `{"code", "message"}`.
pub fn error_body(code: &str, message: &str) -> Json {
    Json::obj(vec![
        ("code", Json::str(code)),
        ("message", Json::str(message)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QueryKind;

    /// Serves `request` through the request edge as a `pcp1` frame whose
    /// trace id is `ctx`'s.
    fn dispatch_ctx(engine: &QueryEngine, request: &Request, ctx: &RequestCtx) -> (Json, Action) {
        let headers = Headers {
            trace: Some(&ctx.trace_id),
            deadline_ms: None,
        };
        let reply = serve(engine, Dialect::Frame, &request.to_json(), headers);
        (attach_trace(reply.body, &reply.ctx), reply.action)
    }

    fn dispatch(engine: &QueryEngine, request: &Request) -> (Json, Action) {
        dispatch_ctx(engine, request, &RequestCtx::generate())
    }

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
        let trace = |frame: &str| {
            let frame = Json::parse(frame).unwrap();
            request_ctx(&frame, Headers::default()).unwrap().trace_id
        };
        assert_eq!(trace(r#"{"type":"stats","trace_id":"abc"}"#), "abc");
        assert!(trace(r#"{"type":"stats"}"#).starts_with("pc-"));
    }
}
