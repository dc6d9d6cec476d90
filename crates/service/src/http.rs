//! HTTP/1.1 front-end for the `pcservice` daemon.
//!
//! A dependency-free adapter that exposes the [`crate::proto`] message
//! semantics over HTTP, so load balancers, `curl` and non-unix-socket
//! clients can reach the engine. It is deliberately a *transport* only: a
//! `/v1` route is a row of the verb table ([`proto::VERBS`]), the handler
//! hands the request to [`proto::serve`] — the same request edge the framed
//! protocol uses — and the reply payload becomes the response body
//! verbatim. Both transports therefore answer every request identically by
//! construction.
//!
//! ## Routes
//!
//! | Route | Body | Reply body |
//! |---|---|---|
//! | `GET /healthz` | — | `{"ok":true,"server":...,"proto":...}` |
//! | `GET /v1/stats` | — | `{"type":"stats","stats":{...}}` |
//! | `GET /v1/metrics` | — | Prometheus text (`?format=json` for JSON) |
//! | `GET /v1/trace` | — | `{"type":"trace","traces":{...}}` (flight-recorder index) |
//! | `GET /v1/trace/<id>` | — | one retained trace (`?format=chrome` for raw Chrome trace-event JSON); `<id>` is percent-decoded |
//! | `POST /v1/solve` | one query object | `{"type":"response","response":{...}}` |
//! | `POST /v1/batch` | `{"shared":...,"requests":[...]}` | `{"type":"batch","responses":[...]}` |
//! | `POST /v1/snapshot` | — | `{"type":"snapshot_ok","entries":...,"bytes":...}` |
//! | `POST /v1/shutdown` | — | `{"type":"shutdown_ok"}` |
//! | `POST /v2/query` | one [`crate::v2`] envelope | the reply envelope |
//!
//! Query and batch bodies are exactly the payloads of the corresponding
//! `solve` / `batch` frames (the `"type"` tag is implied by the route and
//! ignored if present). `HEAD` is answered wherever `GET` is — identical
//! headers, body suppressed — so load-balancer health probes of either
//! flavour work.
//!
//! ## Deployment note
//!
//! `POST /v1/shutdown` is part of the API (it mirrors the framed
//! protocol's `shutdown` verb) and carries **no authentication**. The unix
//! socket was implicitly guarded by filesystem permissions; a TCP listener
//! is guarded only by where you bind it. Bind loopback (`127.0.0.1:…`)
//! and let a fronting proxy do auth, or filter `/v1/shutdown` at the load
//! balancer before exposing the port beyond localhost.
//!
//! ## Status codes
//!
//! The recoverable-vs-fatal taxonomy of [`crate::proto`] maps onto HTTP:
//!
//! * **200** — the request was dispatched; per-job failures still answer
//!   200 with `"ok":false` inside the response object, exactly like a
//!   batch line.
//! * **400** — malformed request line, header, JSON body or message
//!   (body-level defects keep the connection; framing defects close it).
//! * **404 / 405** — unknown route / known route with the wrong method
//!   (`Allow` header carried on the 405).
//! * **413** — a body exceeding [`proto::MAX_FRAME_LEN`], the exact cap
//!   the framed protocol enforces on its frames. The announced
//!   `Content-Length` is checked *before* any body byte is read or
//!   buffered, so an oversized declaration costs no allocation.
//! * **501** — `Transfer-Encoding` (chunked bodies are not supported).
//! * **503** — the request was shed (error body `code: "overloaded"`; on
//!   `POST /v2/query` a v2 error envelope, so the shed stays in-band);
//!   `retry_after_ms` in the body and the `Retry-After` header (seconds,
//!   rounded up) carry the retry hint.
//!
//! Connections are keep-alive by default (HTTP/1.1 semantics, honouring
//! `Connection: close` and HTTP/1.0 defaults) and bounded by the daemon's
//! idle timeout. `Expect: 100-continue` is answered so large `curl` bodies
//! do not stall.
//!
//! ## Tracing
//!
//! An `X-Request-Id` header becomes the request's trace ID; without one, a
//! JSON body's `trace_id` field does (the bodies of `POST /v1/solve`,
//! `/v1/batch` and `/v2/query` are frame payloads), and one is synthesized
//! otherwise. An id over [`proto::MAX_TRACE_ID_LEN`] bytes is refused (400
//! on a `/v1` route, an in-band `bad_request` envelope on `/v2/query`).
//! Every JSON reply — error bodies included — echoes the id as a top-level
//! `"trace_id"` field, and response objects carry it again under
//! `meta.trace_id`, so a log line on either side of the connection
//! correlates with the server's slow-request log.
//! An `X-Deadline-Ms` header (or a body's `deadline_ms` field) gives the
//! request a deadline: the pipeline
//! checks it cooperatively and an expired request answers with a
//! `deadline_exceeded` per-job error (status 200 — the request *was*
//! dispatched; expiry is a property of the job, exactly like a batch
//! line's failure).
//! `GET /v1/metrics` serves the telemetry registry as Prometheus text
//! exposition 0.0.4 (`text/plain`) by default, or as the framed protocol's
//! `metrics` payload with `?format=json`.
//!
//! [`Client`] re-exports [`crate::client::Client`], whose
//! [`Client::connect`] opens this transport to a TCP address: the one
//! client of both transports, used by `pathcover-cli --remote-http`.

use crate::engine::QueryEngine;
use crate::error::ServiceError;
use crate::json::{Json, JsonErrorKind};
use crate::proto::{self, MAX_FRAME_LEN, PROTO_VERSION, SERVER_NAME};
use crate::telemetry::{Metric, RequestCtx, Transport};
use crate::v2;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};

pub use crate::client::Client;

/// Longest accepted request/status/header line, in bytes.
const MAX_LINE_LEN: usize = 8 << 10;

/// Most headers accepted on one request.
const MAX_HEADERS: usize = 64;

/// Everything that can go wrong at the HTTP layer.
#[derive(Debug)]
pub enum HttpError {
    /// The underlying stream failed (includes idle-timeout reads).
    Io(io::Error),
    /// The peer closed the stream at a message boundary (clean EOF).
    Closed,
    /// Malformed request line, header or body (→ 400).
    BadRequest(String),
    /// The announced body length exceeds [`MAX_FRAME_LEN`] (→ 413).
    BodyTooLarge {
        /// Announced body length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// A protocol feature this server does not speak (→ 501).
    Unsupported(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            HttpError::BodyTooLarge { len, max } => {
                write!(f, "body of {len} bytes exceeds the {max} byte cap")
            }
            HttpError::Unsupported(msg) => write!(f, "not implemented: {msg}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// The server-side rendering of a request-level error: status and
/// machine-readable code. `None` for errors that close the connection
/// silently (clean EOF, idle timeout, raw I/O failure).
fn error_status(error: &HttpError) -> Option<(u16, &'static str)> {
    match error {
        HttpError::BadRequest(_) => Some((400, "bad_request")),
        HttpError::BodyTooLarge { .. } => Some((413, "body_too_large")),
        HttpError::Unsupported(_) => Some((501, "not_implemented")),
        HttpError::Io(_) | HttpError::Closed => None,
    }
}

/// The reason phrase of a status this server sends.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// One parsed HTTP request.
#[derive(Debug)]
pub struct HttpRequest {
    /// The request method, verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// The request path with any query string stripped.
    pub path: String,
    /// The query string (the part after `?`), when one was sent.
    pub query: Option<String>,
    /// The `X-Request-Id` header value, when one was sent — becomes the
    /// request's trace ID.
    pub trace: Option<String>,
    /// The `X-Deadline-Ms` header value, when one was sent — becomes the
    /// request's deadline, measured from when the header was parsed.
    pub deadline_ms: Option<u64>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default, overridden by `Connection` headers).
    pub keep_alive: bool,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The `X-Request-Id` and `X-Deadline-Ms` headers, for the request
    /// edge.
    fn headers(&self) -> proto::Headers<'_> {
        proto::Headers {
            trace: self.trace.as_deref(),
            deadline_ms: self.deadline_ms,
        }
    }

    /// The context of a reply built before the request ran: its
    /// `X-Request-Id` as the trace id, or a synthesized one when it is
    /// absent or too long to echo.
    fn ctx(&self) -> RequestCtx {
        proto::request_ctx(&Json::Null, self.headers()).unwrap_or_else(|_| RequestCtx::generate())
    }
}

/// Reads one line terminated by `\n` (an optional preceding `\r` is
/// stripped), bounded by [`MAX_LINE_LEN`]. `Ok(None)` on a clean EOF
/// before any byte. The client reads response heads with it too.
pub(crate) fn read_line<R: BufRead>(r: &mut R) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        let n = r.read(&mut byte)?;
        if n == 0 {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::BadRequest("truncated line".to_string()));
        }
        if byte[0] == b'\n' {
            break;
        }
        line.push(byte[0]);
        if line.len() > MAX_LINE_LEN {
            return Err(HttpError::BadRequest("line too long".to_string()));
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| HttpError::BadRequest("line is not UTF-8".to_string()))
}

/// Reads one request: request line, headers, `Content-Length`-bounded body.
///
/// `Ok(None)` when the peer closed the connection cleanly between
/// requests. `writer` is only touched to acknowledge `Expect:
/// 100-continue` before the body is read (without it `curl` stalls a
/// second on every sizeable body).
pub fn read_request<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
) -> Result<Option<HttpRequest>, HttpError> {
    let Some(request_line) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest(format!(
            "malformed request line {request_line:?}"
        )));
    };
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(format!(
            "request target must be a path, got {target:?}"
        )));
    }
    let mut keep_alive = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(HttpError::BadRequest(format!(
                "unsupported protocol version {other:?}"
            )))
        }
    };
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_string(), Some(query.to_string())),
        None => (target.to_string(), None),
    };

    let mut content_length: Option<usize> = None;
    let mut expect_continue = false;
    let mut trace: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    for count in 0.. {
        if count > MAX_HEADERS {
            return Err(HttpError::BadRequest("too many headers".to_string()));
        }
        let line = read_line(reader)?
            .ok_or_else(|| HttpError::BadRequest("truncated headers".to_string()))?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let len: usize = value
                    .parse()
                    .map_err(|_| HttpError::BadRequest(format!("bad Content-Length {value:?}")))?;
                if content_length.is_some_and(|prior| prior != len) {
                    return Err(HttpError::BadRequest(
                        "conflicting Content-Length headers".to_string(),
                    ));
                }
                if len > MAX_FRAME_LEN {
                    return Err(HttpError::BodyTooLarge {
                        len,
                        max: MAX_FRAME_LEN,
                    });
                }
                content_length = Some(len);
            }
            "connection" => {
                let value = value.to_ascii_lowercase();
                if value.contains("close") {
                    keep_alive = false;
                } else if value.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            "expect" if value.eq_ignore_ascii_case("100-continue") => {
                expect_continue = true;
            }
            "x-request-id" if !value.is_empty() => {
                trace = Some(value.to_string());
            }
            "x-deadline-ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| HttpError::BadRequest(format!("bad X-Deadline-Ms {value:?}")))?;
                deadline_ms = Some(ms);
            }
            "transfer-encoding" => {
                return Err(HttpError::Unsupported(format!(
                    "Transfer-Encoding {value:?} (send a Content-Length body)"
                )));
            }
            _ => {}
        }
    }
    // No Content-Length (and no Transfer-Encoding) means no body, per RFC
    // 7230 §3.3 — a bodyless `curl -X POST .../v1/shutdown` is valid.
    let mut body = vec![0u8; content_length.unwrap_or(0)];
    if !body.is_empty() {
        if expect_continue {
            writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
            writer.flush()?;
        }
        reader.read_exact(&mut body)?;
    }
    Ok(Some(HttpRequest {
        method: method.to_string(),
        path,
        query,
        trace,
        deadline_ms,
        keep_alive,
        body,
    }))
}

/// A response body: JSON (every API route) or plain text (the Prometheus
/// exposition of `/v1/metrics`). The variant decides the `Content-Type`.
#[derive(Debug)]
pub enum HttpBody {
    /// A JSON body, served as `application/json`.
    Json(Json),
    /// A plain-text body, served as Prometheus text exposition 0.0.4.
    Text(String),
}

impl HttpBody {
    /// The `Content-Type` header value for this body.
    pub fn content_type(&self) -> &'static str {
        match self {
            HttpBody::Json(_) => "application/json",
            HttpBody::Text(_) => "text/plain; version=0.0.4; charset=utf-8",
        }
    }

    /// The JSON payload, when this is a JSON body.
    pub fn as_json(&self) -> Option<&Json> {
        match self {
            HttpBody::Json(json) => Some(json),
            HttpBody::Text(_) => None,
        }
    }

    /// Renders the wire body, newline-terminated (so `curl` output is
    /// terminal-friendly and the Prometheus exposition is well-formed).
    pub fn render(&self) -> String {
        match self {
            HttpBody::Json(json) => {
                let mut text = String::new();
                json.write(&mut text);
                text.push('\n');
                text
            }
            HttpBody::Text(text) => {
                let mut text = text.clone();
                if !text.ends_with('\n') {
                    text.push('\n');
                }
                text
            }
        }
    }
}

/// One response, before serialization.
#[derive(Debug)]
pub struct HttpResponse {
    /// The status code.
    pub status: u16,
    /// The reason phrase.
    pub reason: &'static str,
    /// The `Allow` header value (405 responses).
    pub allow: Option<&'static str>,
    /// Emit a `Deprecation: true` header (every `/v1/*` response carries
    /// it since the v2 envelope landed; `POST /v2/query` is the successor).
    pub deprecated: bool,
    /// The `Retry-After` hint in milliseconds (503 overload rejections);
    /// serialized as whole seconds, rounded up.
    pub retry_after_ms: Option<u64>,
    /// The body.
    pub body: HttpBody,
}

impl HttpResponse {
    fn json(status: u16, body: Json) -> HttpResponse {
        HttpResponse {
            status,
            reason: reason(status),
            allow: None,
            deprecated: false,
            retry_after_ms: None,
            body: HttpBody::Json(body),
        }
    }

    fn text(body: String) -> HttpResponse {
        HttpResponse {
            body: HttpBody::Text(body),
            ..HttpResponse::json(200, Json::Null)
        }
    }

    fn error(status: u16, code: &str, message: &str) -> HttpResponse {
        HttpResponse::json(status, proto::error_reply(code, message))
    }

    /// Attaches the trace id to the JSON body (idempotent; the Prometheus
    /// text body is the one surface left untouched). Every reply path —
    /// routed, oversize-reject and transport-error — funnels through here,
    /// so no reply can leave without correlation.
    fn attach_trace(&mut self, ctx: &RequestCtx) {
        let body = std::mem::replace(&mut self.body, HttpBody::Text(String::new()));
        self.body = match body {
            HttpBody::Json(json) => HttpBody::Json(proto::attach_trace(json, ctx)),
            text => text,
        };
    }
}

/// Serializes one response: status line, `Content-Type` /
/// `Content-Length` / `Connection` (and optional `Allow`) headers, then
/// the JSON body with a trailing newline (so `curl` output is
/// terminal-friendly).
pub fn write_response<W: Write>(
    w: &mut W,
    response: &HttpResponse,
    keep_alive: bool,
) -> io::Result<()> {
    let body = response.body.render();
    write_response_parts(w, response, &body, keep_alive, true)
}

/// The serialization behind [`write_response`], taking the body
/// pre-rendered (so callers that need its length first serialize exactly
/// once). `include_body: false` answers `HEAD`: the headers —
/// `Content-Length` included — describe the body without sending it.
fn write_response_parts<W: Write>(
    w: &mut W,
    response: &HttpResponse,
    body: &str,
    keep_alive: bool,
    include_body: bool,
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        response.reason,
        response.body.content_type(),
        body.len()
    )?;
    if let Some(allow) = response.allow {
        write!(w, "Allow: {allow}\r\n")?;
    }
    if response.deprecated {
        write!(w, "Deprecation: true\r\n")?;
    }
    if let Some(ms) = response.retry_after_ms {
        // Retry-After is whole seconds on the wire; round up so the header
        // never understates the JSON body's millisecond hint.
        write!(w, "Retry-After: {}\r\n", ms.div_ceil(1000).max(1))?;
    }
    write!(
        w,
        "Connection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    )?;
    if include_body {
        w.write_all(body.as_bytes())?;
    }
    w.flush()
}

/// Parses a request body as JSON, mapping defects onto 400 responses with
/// the framed protocol's `bad_json` / `bad_request` / `bad_message` error
/// codes.
fn parse_body(body: &[u8]) -> Result<Json, HttpResponse> {
    let text = std::str::from_utf8(body)
        .map_err(|_| HttpResponse::error(400, "bad_message", "body is not UTF-8"))?;
    Json::parse(text).map_err(|e| {
        let message = match e.kind {
            JsonErrorKind::Syntax => format!("body is not JSON: {e}"),
            JsonErrorKind::TooDeep => format!("body refused: {e}"),
        };
        HttpResponse::error(400, e.code(), &message)
    })
}

/// Routes one request onto the engine, pure and socket-free (directly
/// testable). A `/v1` route's row of [`proto::VERBS`] gives its method and
/// verb, and every routed request is served by the request edge,
/// [`proto::serve`]; the status is the edge's.
///
/// The trace ID comes from the request's `X-Request-Id` header, else from a
/// JSON body's `trace_id` field (synthesized when absent), and is echoed as
/// a top-level `"trace_id"` on every JSON body, error replies included.
pub fn respond(engine: &QueryEngine, request: &HttpRequest) -> (HttpResponse, proto::Action) {
    let (response, _, action) = answer(engine, request);
    (response, action)
}

/// [`respond`], also returning the context whose trace id the response
/// carries.
fn answer(
    engine: &QueryEngine,
    request: &HttpRequest,
) -> (HttpResponse, RequestCtx, proto::Action) {
    let (mut response, ctx, action) = route(engine, request);
    if request.path.starts_with("/v1/") {
        // Deprecation surface: every /v1 route answers with a
        // `Deprecation: true` header and a top-level `meta.api_version`
        // marker in JSON bodies (Prometheus text can only carry the
        // header). The markers sit *outside* the inner payload objects, so
        // v1 bodies stay byte-identical to their v2-envelope equivalents.
        response.deprecated = true;
        if let HttpBody::Json(body) = response.body {
            response.body = HttpBody::Json(attach_api_version(body, 1));
        }
    }
    // Replies built before the request ran get the trace here, after the
    // marker; served replies already carry it (the attachment is
    // idempotent).
    response.attach_trace(&ctx);
    (response, ctx, action)
}

/// Appends a top-level `meta.api_version` marker to a v1 reply body
/// (merging into an existing top-level `meta` object if one ever appears).
fn attach_api_version(body: Json, version: u64) -> Json {
    let Json::Obj(mut fields) = body else {
        return body;
    };
    match fields.iter_mut().find(|(key, _)| key == "meta") {
        Some((_, Json::Obj(meta))) => {
            if !meta.iter().any(|(key, _)| key == "api_version") {
                meta.push(("api_version".to_string(), Json::num(version)));
            }
        }
        Some(_) => {}
        None => fields.push((
            "meta".to_string(),
            Json::obj(vec![("api_version", Json::num(version))]),
        )),
    }
    Json::Obj(fields)
}

/// Decodes the `%XX` escapes of a path segment; `None` when an escape is
/// malformed or the decoded bytes are not UTF-8.
fn percent_decode(text: &str) -> Option<String> {
    let mut bytes = Vec::with_capacity(text.len());
    let mut rest = text.as_bytes();
    while let Some((&byte, tail)) = rest.split_first() {
        rest = tail;
        if byte != b'%' {
            bytes.push(byte);
            continue;
        }
        let hex = rest
            .get(..2)
            .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))?;
        bytes.push(u8::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?);
        rest = &rest[2..];
    }
    String::from_utf8(bytes).ok()
}

/// Whether the query string holds `pair` (`format=json`, ...).
fn query_has(request: &HttpRequest, pair: &str) -> bool {
    let query = request.query.as_deref().unwrap_or("");
    query.split('&').any(|item| item == pair)
}

/// The route match behind [`respond`], before the deprecation markers.
fn route(engine: &QueryEngine, request: &HttpRequest) -> (HttpResponse, RequestCtx, proto::Action) {
    let (method, path) = (request.method.as_str(), request.path.as_str());
    let local = |response| (response, request.ctx(), proto::Action::Continue);
    let verb = proto::VERBS.iter().copied().find(|verb| verb.serves(path));
    let allowed = match verb {
        Some(verb) => verb.method,
        None if path == v2::ROUTE => "POST",
        None => {
            let message = format!("no route {method} {path}");
            return local(HttpResponse::error(404, "not_found", &message));
        }
    };
    // HEAD is answered wherever GET is (load-balancer health probes
    // commonly use it); the body is suppressed at write time.
    if method != allowed && !(method == "HEAD" && allowed == "GET") {
        let message = format!("{path} only answers {allowed}");
        return local(HttpResponse {
            allow: Some(if allowed == "GET" {
                "GET, HEAD"
            } else {
                allowed
            }),
            ..HttpResponse::error(405, "method_not_allowed", &message)
        });
    }
    let (dialect, payload) = match verb {
        // The v2 envelope: one route for every operation, body-dispatched.
        // Operation failures are in-band (`ok: false` envelopes); only a
        // body that is not JSON at all earns a 400.
        None => (proto::Dialect::Envelope, parse_body(&request.body)),
        Some(verb) if std::ptr::eq(verb, &proto::HELLO) => {
            return local(HttpResponse::json(
                200,
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("server", Json::str(SERVER_NAME)),
                    ("proto", Json::num(PROTO_VERSION)),
                ]),
            ))
        }
        Some(verb) if std::ptr::eq(verb, &proto::METRICS) && !query_has(request, "format=json") => {
            return local(HttpResponse::text(engine.metrics_report().to_prometheus()))
        }
        Some(verb) if verb.by_id() => {
            let Some(id) = percent_decode(&path[verb.route.len()..]) else {
                let message = "malformed percent-escape in trace id";
                return local(HttpResponse::error(400, "bad_request", message));
            };
            if id.is_empty() {
                return local(HttpResponse::error(404, "not_found", "empty trace id"));
            }
            if query_has(request, "format=chrome") {
                // Chrome trace-event export is served raw (not wrapped in
                // the v1 reply) so the body loads directly into
                // chrome://tracing or Perfetto.
                return local(match engine.recorder().get(&id) {
                    Some(trace) => HttpResponse::json(200, trace.to_chrome_json()),
                    None => HttpResponse::error(
                        404,
                        "trace_not_found",
                        &format!("no retained trace with id '{id}'"),
                    ),
                });
            }
            let payload = Json::obj(vec![("id", Json::str(id))]);
            (proto::Dialect::Route(verb), Ok(payload))
        }
        Some(verb) if verb.body => (proto::Dialect::Route(verb), parse_body(&request.body)),
        Some(verb) => (proto::Dialect::Route(verb), Ok(Json::Null)),
    };
    let payload = match payload {
        Ok(payload) => payload,
        Err(response) => return local(response),
    };
    let reply = proto::serve(engine, dialect, &payload, request.headers());
    let response = HttpResponse {
        retry_after_ms: reply.retry_after_ms,
        ..HttpResponse::json(reply.status, reply.body)
    };
    (response, reply.ctx, reply.action)
}

/// A `503 Service Unavailable` rejection carrying the standard overload
/// error body and retry hint — used for faults-forced sheds and exhausted
/// per-connection budgets (engine-side sheds arrive through [`respond`]).
fn overloaded_response(retry_after_ms: u64) -> HttpResponse {
    let error = v2::OpError::Service(ServiceError::Overloaded { retry_after_ms });
    HttpResponse {
        retry_after_ms: Some(retry_after_ms),
        ..HttpResponse::json(503, proto::failure_reply(&error))
    }
}

/// Serves one HTTP connection to completion: the keep-alive request loop
/// with the status-code error mapping. The [`crate::daemon`] accept loop
/// plugs this in exactly where the framed transport plugs in
/// `serve_proto_conn`.
#[cfg(unix)]
pub fn serve_conn<C: crate::daemon::Connection>(
    conn: C,
    engine: &QueryEngine,
    shutdown: &crate::daemon::ShutdownSignal,
) {
    serve_conn_opts(conn, engine, shutdown, &crate::faults::Faults::default(), 0)
}

/// [`serve_conn`] with the daemon's resilience knobs: a fault-injection
/// runtime and a per-connection request budget (`0` = unlimited; a
/// request beyond the budget is answered `503 overloaded` and the
/// connection closes).
#[cfg(unix)]
pub fn serve_conn_opts<C: crate::daemon::Connection>(
    conn: C,
    engine: &QueryEngine,
    shutdown: &crate::daemon::ShutdownSignal,
    faults: &crate::faults::Faults,
    request_budget: u64,
) {
    let Ok(write_half) = conn.try_clone_conn() else {
        return;
    };
    // The guard leaves the active gauge on *every* exit, injected handler
    // panics included, so chaos runs cannot leak open-connection counts.
    let telemetry = engine.telemetry();
    let _connection = telemetry.connection(Transport::Http);
    let mut reader = BufReader::new(conn);
    let mut writer = io::BufWriter::new(write_half);
    let mut served: u64 = 0;
    while !shutdown.is_triggered() {
        match read_request(&mut reader, &mut writer) {
            Ok(None) => break,
            Ok(Some(request)) => {
                if let Some(stall) = faults.frame_stall() {
                    std::thread::sleep(stall);
                }
                if faults.should_panic() {
                    panic!("injected fault: http handler panic");
                }
                let budget_spent = request_budget != 0 && served >= request_budget;
                let (mut response, ctx, action) = if budget_spent || faults.should_overload() {
                    telemetry.add(Metric::RejectedOverload, 0, 1);
                    let mut response = overloaded_response(crate::engine::DEFAULT_RETRY_AFTER_MS);
                    let ctx = request.ctx();
                    if request.path == v2::ROUTE {
                        // A v2 shed stays in-band: an error envelope, still
                        // a 503 with Retry-After.
                        response.body = HttpBody::Json(proto::shed_reply(v2::API_VERSION, &ctx));
                    }
                    response.attach_trace(&ctx);
                    (response, ctx, proto::Action::Continue)
                } else {
                    served += 1;
                    answer(engine, &request)
                };
                // One serialization serves both the cap check and the
                // write. Mirror the framed transport's reply cap: an
                // oversized reply becomes a small error instead of an
                // unbounded write.
                let mut body = response.body.render();
                if body.len() > MAX_FRAME_LEN {
                    telemetry.add(Metric::OversizeRejects, Transport::Http as usize, 1);
                    response = HttpResponse::error(
                        500,
                        "frame_too_large",
                        &format!("reply exceeds the {MAX_FRAME_LEN} byte cap (split the batch)"),
                    );
                    response.attach_trace(&ctx);
                    body = response.body.render();
                }
                let keep_alive =
                    request.keep_alive && action == proto::Action::Continue && !budget_spent;
                let written = write_response_parts(
                    &mut writer,
                    &response,
                    &body,
                    keep_alive,
                    request.method != "HEAD",
                );
                if action == proto::Action::Shutdown {
                    // The acknowledgement is already flushed (or the
                    // client is gone); either way the daemon stops.
                    shutdown.trigger();
                    break;
                }
                if written.is_err() || !keep_alive {
                    break;
                }
            }
            Err(error) => {
                // Idle timeouts and clean EOFs close silently; framing
                // defects get a best-effort error response. Either way
                // this connection is done — and only this connection.
                match &error {
                    HttpError::Io(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        telemetry.add(Metric::IdleTimeouts, Transport::Http as usize, 1);
                    }
                    HttpError::BodyTooLarge { .. } => {
                        telemetry.add(Metric::OversizeRejects, Transport::Http as usize, 1);
                    }
                    _ => {}
                }
                if let Some((status, code)) = error_status(&error) {
                    let mut response = HttpResponse::error(status, code, &error.to_string());
                    // No request made it through parsing, so there is no
                    // client-supplied ID — correlate with a fresh one.
                    response.attach_trace(&RequestCtx::generate());
                    let _ = write_response(&mut writer, &response, false);
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GraphSpec, QueryKind, QueryRequest};

    /// Parses request bytes, discarding interim writes (100-continue).
    fn parse(bytes: &[u8]) -> Result<Option<HttpRequest>, HttpError> {
        let mut reader = BufReader::new(bytes);
        let mut sink = Vec::new();
        read_request(&mut reader, &mut sink)
    }

    #[test]
    fn request_parsing_happy_path_and_keep_alive_defaults() {
        let request = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/healthz");
        assert!(request.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(request.body.is_empty());

        let request = parse(b"GET /healthz?probe=1 HTTP/1.0\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(request.path, "/healthz", "query string stripped");
        assert!(!request.keep_alive, "HTTP/1.0 defaults to close");

        let request = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!request.keep_alive, "Connection: close honoured");

        let request = parse(b"POST /v1/solve HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody")
            .unwrap()
            .unwrap();
        assert_eq!(request.body, b"body");
    }

    #[test]
    fn request_id_header_and_query_string_are_captured() {
        let request =
            parse(b"GET /v1/metrics?format=json HTTP/1.1\r\nX-Request-Id: abc-123\r\n\r\n")
                .unwrap()
                .unwrap();
        assert_eq!(request.path, "/v1/metrics");
        assert_eq!(request.query.as_deref(), Some("format=json"));
        assert_eq!(request.trace.as_deref(), Some("abc-123"));

        let request = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert!(request.query.is_none());
        assert!(request.trace.is_none(), "no header, no trace");
    }

    #[test]
    fn clean_eof_is_none_and_defects_are_typed() {
        assert!(parse(b"").unwrap().is_none(), "clean EOF between requests");
        assert!(matches!(
            parse(b"GET /x\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/2\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        let bodyless_post = parse(b"POST /v1/shutdown HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(
            bodyless_post.body.is_empty(),
            "no Content-Length means an empty body, not an error"
        );
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Unsupported(_))
        ));
        let oversized = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_FRAME_LEN + 1
        );
        assert!(matches!(
            parse(oversized.as_bytes()),
            Err(HttpError::BodyTooLarge { .. })
        ));
    }

    #[test]
    fn expect_continue_is_acknowledged_before_the_body() {
        let mut reader = BufReader::new(
            &b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\nok"[..],
        );
        let mut interim = Vec::new();
        let request = read_request(&mut reader, &mut interim).unwrap().unwrap();
        assert_eq!(request.body, b"ok");
        assert_eq!(interim, b"HTTP/1.1 100 Continue\r\n\r\n");
    }

    fn get(
        engine: &QueryEngine,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> (HttpResponse, proto::Action) {
        respond(
            engine,
            &HttpRequest {
                method: method.to_string(),
                path: path.to_string(),
                query: None,
                trace: None,
                deadline_ms: None,
                keep_alive: true,
                body: body.to_vec(),
            },
        )
    }

    #[test]
    fn routing_answers_each_route_and_status() {
        let engine = QueryEngine::default();

        let (health, action) = get(&engine, "GET", "/healthz", b"");
        assert_eq!(health.status, 200);
        assert_eq!(
            health
                .body
                .as_json()
                .unwrap()
                .get("ok")
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(action, proto::Action::Continue);

        // HEAD probes (common load-balancer default) route like GET; the
        // body is suppressed at write time, not here.
        let (head, _) = get(&engine, "HEAD", "/healthz", b"");
        assert_eq!(head.status, 200);
        let (head, _) = get(&engine, "HEAD", "/v1/stats", b"");
        assert_eq!(head.status, 200);

        let (solve, _) = get(
            &engine,
            "POST",
            "/v1/solve",
            br#"{"kind":"min_cover_size","cotree":"(j a b c)"}"#,
        );
        assert_eq!(solve.status, 200);
        assert_eq!(
            solve
                .body
                .as_json()
                .unwrap()
                .get("response")
                .and_then(|r| r.get("answer"))
                .and_then(|a| a.get("size"))
                .and_then(Json::as_u64),
            Some(1)
        );

        let (batch, _) = get(
            &engine,
            "POST",
            "/v1/batch",
            br#"{"requests":[{"kind":"recognize","cotree":"(j a b)"}]}"#,
        );
        assert_eq!(batch.status, 200);
        assert!(
            matches!(batch.body.as_json().unwrap().get("responses"), Some(Json::Arr(r)) if r.len() == 1)
        );

        let (stats, _) = get(&engine, "GET", "/v1/stats", b"");
        assert_eq!(stats.status, 200);
        assert!(stats
            .body
            .as_json()
            .unwrap()
            .get("stats")
            .and_then(|s| s.get("hits"))
            .is_some());

        // Save-now routes into the same dispatch; without persistence
        // configured it is a 200 carrying a typed error body.
        let (snapshot, action) = get(&engine, "POST", "/v1/snapshot", b"");
        assert_eq!(snapshot.status, 200);
        assert_eq!(
            snapshot
                .body
                .as_json()
                .unwrap()
                .get("code")
                .and_then(Json::as_str),
            Some("snapshot_unconfigured")
        );
        assert_eq!(action, proto::Action::Continue);
        let (snapshot, _) = get(&engine, "GET", "/v1/snapshot", b"");
        assert_eq!(snapshot.status, 405);
        assert_eq!(snapshot.allow, Some("POST"));

        let (shutdown, action) = get(&engine, "POST", "/v1/shutdown", b"");
        assert_eq!(shutdown.status, 200);
        assert_eq!(action, proto::Action::Shutdown);
        assert_eq!(
            shutdown
                .body
                .as_json()
                .unwrap()
                .get("type")
                .and_then(Json::as_str),
            Some("shutdown_ok")
        );
    }

    #[test]
    fn metrics_route_serves_prometheus_text_and_json() {
        let engine = QueryEngine::default();
        let (solve, _) = get(
            &engine,
            "POST",
            "/v1/solve",
            br#"{"kind":"min_cover_size","cotree":"(j a b c)"}"#,
        );
        assert_eq!(solve.status, 200);

        // Default flavour: Prometheus text exposition, not JSON.
        let (metrics, action) = get(&engine, "GET", "/v1/metrics", b"");
        assert_eq!(metrics.status, 200);
        assert_eq!(action, proto::Action::Continue);
        assert!(metrics.body.as_json().is_none(), "prometheus body is text");
        assert_eq!(
            metrics.body.content_type(),
            "text/plain; version=0.0.4; charset=utf-8"
        );
        let text = metrics.body.render();
        assert!(text.contains("pc_requests_total{"), "{text}");
        assert!(text.ends_with('\n'), "exposition must end with a newline");

        // `?format=json` answers the framed protocol's metrics payload.
        let request = HttpRequest {
            method: "GET".to_string(),
            path: "/v1/metrics".to_string(),
            query: Some("format=json".to_string()),
            trace: None,
            deadline_ms: None,
            keep_alive: true,
            body: Vec::new(),
        };
        let (metrics, _) = respond(&engine, &request);
        let payload = metrics.body.as_json().expect("json body");
        assert_eq!(payload.get("type").and_then(Json::as_str), Some("metrics"));
        assert_eq!(
            payload
                .get("metrics")
                .and_then(|m| m.get("requests_total"))
                .and_then(Json::as_u64),
            Some(1),
            "the solve above must be booked: {payload}"
        );

        let (metrics, _) = get(&engine, "POST", "/v1/metrics", b"");
        assert_eq!(metrics.status, 405);
        assert_eq!(metrics.allow, Some("GET, HEAD"));
    }

    #[test]
    fn trace_routes_list_fetch_export_and_reject_methods() {
        let engine = QueryEngine::default();
        let request = HttpRequest {
            method: "POST".to_string(),
            path: "/v1/solve".to_string(),
            query: None,
            trace: Some("t-http".to_string()),
            deadline_ms: None,
            keep_alive: true,
            body: br#"{"kind":"full_cover","cotree":"(u a b c)"}"#.to_vec(),
        };
        let (solve, _) = respond(&engine, &request);
        assert_eq!(solve.status, 200);

        // The flight-recorder index lists the solve's trace.
        let (list, _) = get(&engine, "GET", "/v1/trace", b"");
        assert_eq!(list.status, 200);
        let body = list.body.as_json().expect("json body");
        assert_eq!(body.get("type").and_then(Json::as_str), Some("trace"));
        let traces = body.get("traces").expect("traces payload");
        assert!(
            traces.get("retained").and_then(Json::as_u64) >= Some(1),
            "{traces}"
        );

        // Fetching by id answers the full trace with its stage spans.
        let (one, _) = get(&engine, "GET", "/v1/trace/t-http", b"");
        assert_eq!(one.status, 200);
        let trace = one
            .body
            .as_json()
            .and_then(|b| b.get("trace"))
            .cloned()
            .expect("trace payload");
        assert_eq!(trace.get("trace_id").and_then(Json::as_str), Some("t-http"));
        assert!(
            matches!(trace.get("spans"), Some(Json::Arr(spans)) if !spans.is_empty()),
            "{trace}"
        );

        // `?format=chrome` serves raw Chrome trace-event JSON.
        let chrome_request = HttpRequest {
            method: "GET".to_string(),
            path: "/v1/trace/t-http".to_string(),
            query: Some("format=chrome".to_string()),
            trace: None,
            deadline_ms: None,
            keep_alive: true,
            body: Vec::new(),
        };
        let (chrome, _) = respond(&engine, &chrome_request);
        assert_eq!(chrome.status, 200);
        let export = chrome.body.as_json().expect("chrome body is json");
        let Some(Json::Arr(events)) = export.get("traceEvents") else {
            panic!("missing traceEvents: {export}");
        };
        assert!(!events.is_empty());
        for key in ["ph", "ts", "dur", "name"] {
            assert!(events[0].get(key).is_some(), "missing {key}: {export}");
        }

        // Unknown ids are a 404 with the typed error body.
        let (missing, _) = get(&engine, "GET", "/v1/trace/absent", b"");
        assert_eq!(missing.status, 404);
        assert_eq!(
            missing
                .body
                .as_json()
                .unwrap()
                .get("code")
                .and_then(Json::as_str),
            Some("trace_not_found")
        );

        // Both trace routes are GET-only.
        let (rejected, _) = get(&engine, "POST", "/v1/trace", b"");
        assert_eq!(rejected.status, 405);
        assert_eq!(rejected.allow, Some("GET, HEAD"));
        let (rejected, _) = get(&engine, "DELETE", "/v1/trace/t-http", b"");
        assert_eq!(rejected.status, 405);
        assert_eq!(rejected.allow, Some("GET, HEAD"));
    }

    /// Trace ids are percent-decoded; an escape that is truncated, not hex
    /// or not UTF-8 is refused rather than guessed at.
    #[test]
    fn malformed_trace_id_escapes_are_bad_requests() {
        let engine = QueryEngine::default();
        for bad in ["a%2", "a%zz", "%+1", "%ff"] {
            let (response, _) = get(&engine, "GET", &format!("/v1/trace/{bad}"), b"");
            let code = response.body.as_json().and_then(|b| b.get("code").cloned());
            assert_eq!(response.status, 400, "{bad}");
            assert_eq!(code, Some(Json::str("bad_request")), "{bad}");
        }
    }

    #[test]
    fn replies_echo_the_request_id_header() {
        let engine = QueryEngine::default();
        let request = HttpRequest {
            method: "POST".to_string(),
            path: "/v1/solve".to_string(),
            query: None,
            trace: Some("req-7".to_string()),
            deadline_ms: None,
            keep_alive: true,
            body: br#"{"kind":"min_cover_size","cotree":"(j a b)"}"#.to_vec(),
        };
        let (response, _) = respond(&engine, &request);
        let body = response.body.as_json().expect("json body");
        assert_eq!(
            body.get("trace_id").and_then(Json::as_str),
            Some("req-7"),
            "top-level echo: {body}"
        );
        assert_eq!(
            body.get("response")
                .and_then(|r| r.get("meta"))
                .and_then(|m| m.get("trace_id"))
                .and_then(Json::as_str),
            Some("req-7"),
            "response metadata echo: {body}"
        );

        // Error bodies carry a trace too — synthesized without the header.
        let (response, _) = get(&engine, "GET", "/nope", b"");
        let trace = response
            .body
            .as_json()
            .and_then(|b| b.get("trace_id"))
            .and_then(Json::as_str)
            .map(str::to_string);
        assert!(
            trace.is_some_and(|t| t.starts_with("pc-")),
            "404 body must carry a synthesized trace"
        );
    }

    #[test]
    fn error_statuses_follow_the_taxonomy() {
        let engine = QueryEngine::default();
        let code = |r: &HttpResponse| {
            r.body
                .as_json()
                .unwrap()
                .get("code")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };

        let (response, _) = get(&engine, "GET", "/nope", b"");
        assert_eq!(
            (response.status, code(&response)),
            (404, "not_found".into())
        );

        let (response, _) = get(&engine, "POST", "/healthz", b"");
        assert_eq!(response.status, 405);
        assert_eq!(response.allow, Some("GET, HEAD"));
        let (response, _) = get(&engine, "GET", "/v1/solve", b"");
        assert_eq!(response.status, 405);
        assert_eq!(response.allow, Some("POST"));

        let (response, _) = get(&engine, "POST", "/v1/solve", b"not json");
        assert_eq!((response.status, code(&response)), (400, "bad_json".into()));
        let (response, _) = get(&engine, "POST", "/v1/solve", br#"{"kind":"launch"}"#);
        assert_eq!(
            (response.status, code(&response)),
            (400, "bad_message".into())
        );
        let (response, _) = get(&engine, "POST", "/v1/batch", br#"{"no_requests":true}"#);
        assert_eq!(
            (response.status, code(&response)),
            (400, "bad_message".into())
        );

        // A per-job failure (P4 is not a cograph) is still HTTP 200 — the
        // error lives inside the response object, exactly like a batch line.
        let (response, _) = get(
            &engine,
            "POST",
            "/v1/solve",
            br#"{"kind":"recognize","edge_list":"0 1\n1 2\n2 3"}"#,
        );
        assert_eq!(response.status, 200);
        assert_eq!(
            response
                .body
                .as_json()
                .unwrap()
                .get("response")
                .and_then(|r| r.get("ok"))
                .and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn responses_serialize_with_framing_headers() {
        let response = HttpResponse::json(200, Json::obj(vec![("ok", Json::Bool(true))]));
        let mut bytes = Vec::new();
        write_response(&mut bytes, &response, true).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 12\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}\n"), "{text}");

        let mut bytes = Vec::new();
        write_response(&mut bytes, &response, false).unwrap();
        assert!(String::from_utf8(bytes)
            .unwrap()
            .contains("Connection: close\r\n"));

        // HEAD: identical headers (Content-Length included), no body.
        let mut bytes = Vec::new();
        write_response_parts(&mut bytes, &response, "{\"ok\":true}\n", true, false).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Content-Length: 12\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n"), "headers only: {text}");
    }

    #[test]
    fn deadline_header_is_parsed_and_expired_requests_fail_typed() {
        let request = parse(b"POST /v1/solve HTTP/1.1\r\nX-Deadline-Ms: 250\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(request.deadline_ms, Some(250));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nX-Deadline-Ms: soon\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));

        // An already-expired deadline short-circuits the pipeline: the
        // request dispatches (200) but the job fails `deadline_exceeded`.
        let engine = QueryEngine::default();
        let request = HttpRequest {
            method: "POST".to_string(),
            path: "/v1/solve".to_string(),
            query: None,
            trace: None,
            deadline_ms: Some(0),
            keep_alive: true,
            body: br#"{"kind":"min_cover_size","cotree":"(j a b)"}"#.to_vec(),
        };
        let (response, _) = respond(&engine, &request);
        assert_eq!(response.status, 200);
        let body = response.body.as_json().expect("json body");
        assert_eq!(
            body.get("response")
                .and_then(|r| r.get("error"))
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("deadline_exceeded"),
            "{body}"
        );
        assert_eq!(
            engine.metrics_report().values(Metric::DeadlineExceeded),
            [1]
        );
    }

    #[test]
    fn overload_sheds_map_to_503_with_a_retry_after_header() {
        let engine = QueryEngine::new(crate::engine::EngineConfig {
            max_inflight: 1,
            ..crate::engine::EngineConfig::default()
        });
        // A v1 route's `error` reply, and a v2 envelope that keeps the shed
        // in-band: both answer 503 with the hint.
        for (path, request) in [
            (
                "/v1/solve",
                &br#"{"kind":"min_cover_size","cotree":"(j a b)"}"#[..],
            ),
            (
                "/v2/query",
                br#"{"op":"solve","target":{"cotree":"(j a b)"},"params":{"kind":"min_cover_size"}}"#,
            ),
        ] {
            let permit = engine.try_admit().expect("fill the gate");
            let (response, _) = get(&engine, "POST", path, request);
            assert_eq!(response.status, 503, "{path}");
            assert_eq!(
                response.retry_after_ms,
                Some(crate::engine::DEFAULT_RETRY_AFTER_MS)
            );
            let body = response.body.as_json().expect("json body");
            let error = body.get("error").unwrap_or(body);
            assert_eq!(
                error.get("code").and_then(Json::as_str),
                Some("overloaded"),
                "{body}"
            );
            assert_eq!(
                error.get("retry_after_ms").and_then(Json::as_u64),
                Some(crate::engine::DEFAULT_RETRY_AFTER_MS)
            );
            drop(permit);
            let (response, _) = get(&engine, "POST", path, request);
            assert_eq!(response.status, 200, "released permit admits again");
        }

        // The Retry-After header is serialized in whole seconds, rounded
        // up, and never understates the millisecond hint.
        let mut bytes = Vec::new();
        write_response(&mut bytes, &overloaded_response(100), false).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
    }

    /// Satellite: an oversized *declared* Content-Length is refused at
    /// header-parse time — before any body byte is read and before the
    /// body buffer is allocated.
    #[test]
    fn oversized_declared_length_is_rejected_before_the_body() {
        /// A reader that panics if the parser ever tries to read past the
        /// headers — proof no body byte is consumed (and therefore no
        /// body-sized buffer could have been filled).
        struct HeadersOnly {
            headers: io::Cursor<Vec<u8>>,
        }
        impl io::Read for HeadersOnly {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = self.headers.read(buf)?;
                if n == 0 {
                    panic!("parser read past the headers of an oversized request");
                }
                Ok(n)
            }
        }
        let text = format!(
            "POST /v1/solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_FRAME_LEN + 1
        );
        let mut reader = BufReader::new(HeadersOnly {
            headers: io::Cursor::new(text.into_bytes()),
        });
        let mut sink = Vec::new();
        let error = read_request(&mut reader, &mut sink).unwrap_err();
        match error {
            HttpError::BodyTooLarge { len, max } => {
                assert_eq!(len, MAX_FRAME_LEN + 1);
                assert_eq!(max, MAX_FRAME_LEN);
            }
            other => panic!("wrong error: {other:?}"),
        }
        let (status, code) = error_status(&error).expect("server-rendered");
        assert_eq!((status, code), (413, "body_too_large"));
    }

    /// An exhausted per-connection request budget answers 503 and closes.
    #[cfg(unix)]
    #[test]
    fn request_budget_exhaustion_sheds_and_closes() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let shutdown = crate::daemon::ShutdownSignal::new();
        let server_shutdown = shutdown.clone();
        let server = std::thread::spawn(move || {
            let engine = QueryEngine::default();
            let (conn, _) = listener.accept().expect("accept");
            // Budget of one: the connect-time healthz probe spends it.
            serve_conn_opts(
                conn,
                &engine,
                &server_shutdown,
                &crate::faults::Faults::default(),
                1,
            );
            engine.metrics_report().values(Metric::RejectedOverload)[0]
        });
        let mut client = Client::connect(&addr.to_string()).expect("connect");
        let request = QueryRequest::new(
            QueryKind::MinCoverSize,
            GraphSpec::CotreeTerm("(j a b)".to_string()),
        );
        match client.solve(&request) {
            Err(proto::ProtoError::Remote {
                status,
                code,
                retry_after_ms,
                ..
            }) => {
                assert_eq!(status, Some(503));
                assert_eq!(code, "overloaded");
                assert!(retry_after_ms.is_some());
            }
            other => panic!("expected a 503 shed, got {other:?}"),
        }
        let rejected = server.join().expect("server thread");
        assert_eq!(rejected, 1, "the shed is booked in telemetry");
    }

    /// End-to-end over a real TCP loopback: client and serve_conn speak to
    /// each other, keep-alive across requests, shutdown propagates.
    #[cfg(unix)]
    #[test]
    fn client_and_server_round_trip_over_tcp() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let shutdown = crate::daemon::ShutdownSignal::new();
        let server_shutdown = shutdown.clone();
        let server = std::thread::spawn(move || {
            let engine = QueryEngine::default();
            let (conn, _) = listener.accept().expect("accept");
            serve_conn(conn, &engine, &server_shutdown);
        });

        let mut client = Client::connect(&addr.to_string()).expect("connect");
        let request = QueryRequest::new(
            QueryKind::MinCoverSize,
            GraphSpec::CotreeTerm("(j a b c)".to_string()),
        );
        let first = client.solve(&request).expect("solve");
        assert_eq!(
            first
                .get("answer")
                .and_then(|a| a.get("size"))
                .and_then(Json::as_u64),
            Some(1)
        );
        // Same keep-alive connection: the repeat is a cache hit.
        let second = client.solve(&request).expect("warm solve");
        assert_eq!(
            second
                .get("meta")
                .and_then(|m| m.get("cache"))
                .and_then(Json::as_str),
            Some("hit")
        );
        let stats = client.stats().expect("stats");
        assert!(stats.get("hits").and_then(Json::as_u64).unwrap_or(0) >= 1);
        client.shutdown().expect("shutdown");
        // The acknowledgement is flushed *before* the server thread
        // triggers the signal — join first so the assertion can't race it.
        server.join().expect("server thread");
        assert!(shutdown.is_triggered(), "shutdown signal propagated");
    }
}
