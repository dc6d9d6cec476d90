//! The one client of the `pcservice` daemon, over either transport.
//!
//! [`Client`] writes each typed v1 call ([`Client::solve`], `batch`,
//! `stats`, `metrics`, `trace`, `save_snapshot`, `shutdown`), its reply
//! check, its payload unwrapping and the [`RetryPolicy`] loop once, and
//! passes [`crate::v2`] envelopes through [`Client::query_v2`]. Beneath it
//! sits a private wire with two implementations over any `Read + Write`
//! stream:
//!
//! * **framed** ([`Client::framed`], [`crate::daemon::connect`]): `pcp1` and
//!   `pcp2` frames (see [`crate::proto`]) after the `hello` handshake;
//! * **HTTP/1.1 keep-alive** ([`Client::connect`]): each call takes its
//!   method and `/v1` route from its row of [`proto::VERBS`] (see
//!   [`crate::http`]), envelopes go to `POST /v2/query`, and the handshake
//!   is `GET /healthz`.

use crate::http;
use crate::json::Json;
use crate::model::{GraphSpec, QueryRequest};
use crate::proto::{self, Placement, ProtoError, Request, MAX_FRAME_LEN, PROTO_VERSION};
use crate::v2;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Bounded retry with jittered exponential backoff for *idempotent*
/// client calls that were shed with an `overloaded` rejection.
///
/// Attached with [`Client::with_retry`], it covers the reads and pure
/// computations (`solve` / `batch` / `stats` / `metrics` / `trace`), never
/// `shutdown`, `snapshot` or v2 envelopes. The server's `retry_after_ms`
/// hint, when present, is honored as the *minimum* wait for that attempt.
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
    pub fn backoff(&self, attempt: u32, server_hint_ms: Option<u64>) -> Duration {
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
        Duration::from_millis(base + jitter)
    }
}

/// One transport under [`Client`].
trait Wire: Send {
    /// Sends one v1 request and returns its reply object, with the HTTP
    /// status when the wire has one.
    fn call(&mut self, request: &Request) -> Result<(Option<u16>, Json), ProtoError>;
    /// Sends one v2 envelope and returns the reply envelope.
    fn call_v2(&mut self, envelope: &Json) -> Result<Json, ProtoError>;
}

/// Finishes a round trip whose request write returned `written`. When the
/// write failed, the daemon may have refused this connection at accept time
/// (connection cap) and closed it after writing one typed rejection: the
/// buffered rejection, which the caller can retry against, is preferred
/// over a bare broken pipe.
fn exchange<T>(
    written: io::Result<()>,
    read: impl FnOnce() -> Result<T, ProtoError>,
) -> Result<T, ProtoError> {
    match written {
        Ok(()) => read(),
        Err(error) => read().map_err(|_| error.into()),
    }
}

/// The framed protocol: `pcp1` frames for v1 requests, `pcp2` frames for
/// envelopes, on one connection.
struct Framed<S> {
    stream: BufReader<S>,
}

impl<S: Read + Write + Send> Wire for Framed<S> {
    fn call(&mut self, request: &Request) -> Result<(Option<u16>, Json), ProtoError> {
        let written = proto::write_frame(self.stream.get_mut(), &request.to_json());
        exchange(written, || Ok((None, proto::read_frame(&mut self.stream)?)))
    }

    fn call_v2(&mut self, envelope: &Json) -> Result<Json, ProtoError> {
        let written = proto::write_frame_v(self.stream.get_mut(), envelope, v2::API_VERSION);
        exchange(written, || {
            let (version, body) = proto::read_frame_raw(&mut self.stream)?;
            if version != v2::API_VERSION {
                return Err(ProtoError::BadMessage(format!(
                    "expected a pcp{} reply, got pcp{version}",
                    v2::API_VERSION
                )));
            }
            Json::parse(&body).map_err(ProtoError::BadJson)
        })
    }
}

/// HTTP/1.1 over one keep-alive connection.
struct Http<S> {
    stream: BufReader<S>,
}

impl<S: Read + Write> Http<S> {
    /// One request/response round trip: the status and the JSON body.
    fn round_trip(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<(u16, Json), ProtoError> {
        let mut head =
            format!("{method} {path} HTTP/1.1\r\nHost: pcservice\r\nConnection: keep-alive\r\n");
        let body = body.map(|body| format!("{body}\n")).unwrap_or_default();
        if !body.is_empty() {
            head.push_str("Content-Type: application/json\r\n");
        }
        // An explicit length, zero included, keeps bodyless POSTs
        // unambiguous for any intermediary.
        if method == "POST" {
            head.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        head.push_str(&body);
        let stream = self.stream.get_mut();
        let written = stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.flush());
        exchange(written, || read_response(&mut self.stream))
    }
}

impl<S: Read + Write + Send> Wire for Http<S> {
    fn call(&mut self, request: &Request) -> Result<(Option<u16>, Json), ProtoError> {
        let (verb, frame) = (request.verb(), request.to_json());
        let mut path = verb.route.to_string();
        if verb.by_id() {
            // The id is one path segment; a Chrome export is asked for in
            // the query string.
            let id = frame.get("id").and_then(Json::as_str).unwrap_or("");
            path.push_str(&percent_encode(id));
            if let Some(format) = frame.get("format").and_then(Json::as_str) {
                path.push_str(&format!("?format={format}"));
            }
        } else if std::ptr::eq(verb, &proto::METRICS) {
            // The route serves Prometheus text unless asked for JSON.
            path.push_str("?format=json");
        }
        // The route implies the `type` tag, and ignores it in a body.
        let body = verb.body.then_some(&frame);
        let (status, reply) = self.round_trip(verb.method, &path, body)?;
        // The health probe (standing in for `hello`) and the raw Chrome
        // export answer a bare object: tag it as the framed protocol would.
        let reply = match reply.get("type") {
            None => verb.wrap(reply),
            Some(_) => reply,
        };
        Ok((Some(status), reply))
    }

    /// v2 failures are in-band, so the envelope is the answer whatever
    /// the status (503 on a shed).
    fn call_v2(&mut self, envelope: &Json) -> Result<Json, ProtoError> {
        Ok(self.round_trip("POST", v2::ROUTE, Some(envelope))?.1)
    }
}

/// Percent-encodes every byte outside RFC 3986's unreserved set, so any
/// trace id travels as one path segment.
fn percent_encode(text: &str) -> String {
    text.bytes()
        .map(|byte| match byte {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                char::from(byte).to_string()
            }
            _ => format!("%{byte:02X}"),
        })
        .collect()
}

/// Reads one response: status line, headers, `Content-Length` JSON body.
fn read_response<R: BufRead>(reader: &mut R) -> Result<(u16, Json), ProtoError> {
    let mut line = || match http::read_line(reader) {
        Ok(Some(line)) => Ok(line),
        Ok(None) => Err(ProtoError::Closed),
        Err(http::HttpError::Io(e)) => Err(ProtoError::Io(e)),
        Err(e) => Err(ProtoError::BadHeader(e.to_string())),
    };
    let status_line = line()?;
    let status = match status_line.split(' ').collect::<Vec<_>>()[..] {
        [version, status, ..] if version.starts_with("HTTP/1.") => status.parse().ok(),
        _ => None,
    }
    .ok_or_else(|| ProtoError::BadHeader(status_line.clone()))?;
    let mut len = None;
    loop {
        let header = line()?;
        if header.is_empty() {
            break;
        }
        let (name, value) = header.split_once(':').unwrap_or_default();
        if name.trim().eq_ignore_ascii_case("content-length") {
            len = value.trim().parse().ok();
        }
    }
    let len: usize = len.ok_or_else(|| ProtoError::BadHeader("no Content-Length".to_string()))?;
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    let text = String::from_utf8(body)
        .map_err(|_| ProtoError::BadMessage("response body is not UTF-8".to_string()))?;
    Ok((
        status,
        Json::parse(text.trim_end()).map_err(ProtoError::BadJson)?,
    ))
}

/// A client of one daemon connection, over either wire.
///
/// Construction performs the handshake. With a [`RetryPolicy`] attached
/// ([`Client::with_retry`]), idempotent calls shed with `overloaded` are
/// retried with backoff on the same connection; the default is no
/// retrying. Every failure is a [`ProtoError`]; a daemon's error reply is
/// [`ProtoError::Remote`], carrying the HTTP status over HTTP.
pub struct Client {
    wire: Box<dyn Wire>,
    retry: Option<RetryPolicy>,
}

/// Opens a TCP connection with Nagle's algorithm off, so a request's
/// segments never wait for the daemon's delayed ACK.
fn connect_tcp(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

impl Client {
    /// Connects over HTTP/1.1 to a daemon's TCP address and probes
    /// `GET /healthz`, so a listener that is not a pcservice daemon is
    /// refused up front.
    pub fn connect(addr: &str) -> Result<Client, ProtoError> {
        let stream = BufReader::new(connect_tcp(addr)?);
        Client::open(Box::new(Http { stream }))
    }

    /// Speaks the framed protocol over `stream` (a unix socket, or an
    /// in-memory pipe in tests) after the `hello` handshake.
    pub fn framed<S: Read + Write + Send + 'static>(stream: S) -> Result<Client, ProtoError> {
        let stream = BufReader::new(stream);
        Client::open(Box::new(Framed { stream }))
    }

    fn open(wire: Box<dyn Wire>) -> Result<Client, ProtoError> {
        let mut client = Client { wire, retry: None };
        let hello = Request::Hello {
            proto: PROTO_VERSION,
        };
        let reply = client.request(&hello)?;
        let proto = reply.get("proto").and_then(Json::as_u64).unwrap_or(0);
        if proto != PROTO_VERSION {
            return Err(ProtoError::UnsupportedVersion(proto));
        }
        Ok(client)
    }

    /// Attaches a retry policy for the idempotent calls (`solve` /
    /// `batch` / `stats` / `metrics` / `trace`) shed with `overloaded`.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// One round trip with the reply check: an `error` reply becomes
    /// [`ProtoError::Remote`], any tag but the verb's reply tag a
    /// [`ProtoError::BadMessage`].
    fn request(&mut self, request: &Request) -> Result<Json, ProtoError> {
        let expected = request.verb().reply;
        let (status, reply) = self.wire.call(request)?;
        let text = |field: &str| reply.get(field).and_then(Json::as_str).map(str::to_string);
        match text("type").as_deref() {
            Some(kind) if kind == expected => Ok(reply),
            Some("error") => Err(ProtoError::Remote {
                code: text("code").unwrap_or_else(|| "unknown".to_string()),
                message: text("message").unwrap_or_default(),
                retry_after_ms: reply.get("retry_after_ms").and_then(Json::as_u64),
                status,
            }),
            Some(kind) => Err(ProtoError::BadMessage(format!(
                "expected '{expected}' reply, got '{kind}'"
            ))),
            None => Err(ProtoError::BadMessage("reply missing 'type'".to_string())),
        }
    }

    /// [`Client::request`] for the idempotent calls: an `overloaded` shed is
    /// retried under the attached policy on the same connection (the
    /// rejection is recoverable by construction), and the answer is where
    /// the verb's [`Placement`] puts it.
    fn fetch(&mut self, request: &Request) -> Result<Json, ProtoError> {
        let mut attempt = 0u32;
        let reply = loop {
            let result = self.request(request);
            match (&self.retry, &result) {
                (
                    Some(policy),
                    Err(ProtoError::Remote {
                        code,
                        retry_after_ms,
                        ..
                    }),
                ) if code == "overloaded" && attempt < policy.max_retries => {
                    std::thread::sleep(policy.backoff(attempt, *retry_after_ms));
                    attempt += 1;
                }
                _ => break result?,
            }
        };
        let verb = request.verb();
        match verb.placement {
            Placement::Field(field) => reply.get(field).cloned().ok_or_else(|| {
                ProtoError::BadMessage(format!("{} reply missing '{field}'", verb.reply))
            }),
            Placement::Splice => Ok(reply),
        }
    }

    /// Executes one query; returns the response object (the
    /// [`crate::QueryResponse::to_json`] shape).
    pub fn solve(&mut self, request: &QueryRequest) -> Result<Json, ProtoError> {
        self.fetch(&Request::Solve(request.clone()))
    }

    /// Executes a batch; returns the response objects in request order.
    pub fn batch(
        &mut self,
        shared: Option<GraphSpec>,
        requests: Vec<QueryRequest>,
    ) -> Result<Vec<Json>, ProtoError> {
        let Json::Obj(fields) = self.fetch(&Request::Batch { shared, requests })? else {
            unreachable!("a tagged reply is an object");
        };
        match fields.into_iter().find(|(key, _)| key == "responses") {
            Some((_, Json::Arr(items))) => Ok(items),
            _ => Err(ProtoError::BadMessage(
                "batch reply 'responses' is not an array".to_string(),
            )),
        }
    }

    /// Fetches the daemon's cache statistics object.
    pub fn stats(&mut self) -> Result<Json, ProtoError> {
        self.fetch(&Request::Stats)
    }

    /// Fetches the daemon's full metrics report object (the
    /// [`crate::telemetry::MetricsReport::to_json`] shape).
    pub fn metrics(&mut self) -> Result<Json, ProtoError> {
        self.fetch(&Request::Metrics)
    }

    /// Fetches trace summaries from the daemon's flight recorder
    /// (`id: None`), or one retained trace in full; `chrome` selects
    /// Chrome trace-event JSON for a single-trace fetch (see
    /// [`crate::trace`]).
    pub fn trace(&mut self, id: Option<&str>, chrome: bool) -> Result<Json, ProtoError> {
        self.fetch(&Request::Trace {
            id: id.map(str::to_string),
            chrome,
        })
    }

    /// Asks the daemon to persist its warm cache right now; returns the
    /// `snapshot_ok` reply (`entries` / `links` / `bytes` / `path`). A
    /// daemon serving without `--snapshot` answers with a
    /// `snapshot_unconfigured` error ([`ProtoError::Remote`]).
    pub fn save_snapshot(&mut self) -> Result<Json, ProtoError> {
        self.request(&Request::Snapshot)
    }

    /// Asks the daemon to shut down; returns after the acknowledgement.
    pub fn shutdown(&mut self) -> Result<(), ProtoError> {
        self.request(&Request::Shutdown).map(drop)
    }

    /// Sends one [`crate::v2`] envelope (a `pcp2` frame, or
    /// `POST /v2/query`) and returns the reply envelope verbatim: `ok` /
    /// `result` / `error` are the caller's to inspect, because v2 failures,
    /// overload sheds included, are in-band rather than [`ProtoError`]s.
    /// v1 calls and envelopes mix freely on one client.
    pub fn query_v2(&mut self, envelope: &Json) -> Result<Json, ProtoError> {
        self.wire.call_v2(envelope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, QueryEngine};
    use crate::model::QueryKind;
    use std::sync::{Arc, Mutex};

    /// A scripted duplex stream: reads drain pre-baked replies, writes land
    /// in a log the test keeps a handle on.
    struct Script {
        replies: io::Cursor<Vec<u8>>,
        sent: Arc<Mutex<Vec<u8>>>,
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.replies.read(buf)
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.sent.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Dialect {
        Framed,
        Http,
    }

    const DIALECTS: [Dialect; 2] = [Dialect::Framed, Dialect::Http];

    impl Dialect {
        /// A client whose handshake succeeds and whose next round trips
        /// read `replies` (HTTP status, body; the framed wire ignores the
        /// status), plus the log of the bytes it sends.
        fn scripted(self, replies: &[(u16, Json)]) -> (Client, Arc<Mutex<Vec<u8>>>) {
            let handshake = match self {
                Dialect::Framed => r#"{"type":"hello","proto":1}"#,
                Dialect::Http => r#"{"ok":true,"proto":1}"#,
            };
            let handshake = (200, Json::parse(handshake).unwrap());
            let mut bytes = Vec::new();
            for (status, body) in std::iter::once(&handshake).chain(replies) {
                match self {
                    Dialect::Framed => proto::write_frame(&mut bytes, body).unwrap(),
                    Dialect::Http => {
                        let body = format!("{body}\n");
                        let head = format!(
                            "HTTP/1.1 {status} X\r\nContent-Length: {}\r\n\r\n",
                            body.len()
                        );
                        bytes.extend(head.bytes().chain(body.bytes()));
                    }
                }
            }
            let sent = Arc::new(Mutex::new(Vec::new()));
            let script = Script {
                replies: io::Cursor::new(bytes),
                sent: Arc::clone(&sent),
            };
            let client = match self {
                Dialect::Framed => Client::framed(script),
                Dialect::Http => Client::open(Box::new(Http {
                    stream: BufReader::new(script),
                })),
            };
            (client.expect("handshake"), sent)
        }

        /// How many requests, handshake included, a send log holds.
        fn requests(self, sent: &Mutex<Vec<u8>>) -> usize {
            let marker: &[u8] = match self {
                Dialect::Framed => b"pcp1 ",
                Dialect::Http => b" HTTP/1.1\r\n",
            };
            let sent = sent.lock().unwrap();
            sent.windows(marker.len()).filter(|w| *w == marker).count()
        }
    }

    fn overloaded_reply() -> (u16, Json) {
        let body = r#"{"type":"error","code":"overloaded","message":"server overloaded; retry after 1 ms","retry_after_ms":1}"#;
        (503, Json::parse(body).unwrap())
    }

    #[test]
    fn client_retries_overload_until_the_reply_lands() {
        let stats = Json::parse(r#"{"type":"stats","stats":{"entries":0}}"#).unwrap();
        for dialect in DIALECTS {
            // Script: handshake, then two sheds, then the real answer.
            let (client, sent) =
                dialect.scripted(&[overloaded_reply(), overloaded_reply(), (200, stats.clone())]);
            let mut client = client.with_retry(RetryPolicy {
                max_retries: 3,
                base_backoff_ms: 1,
                max_backoff_ms: 2,
            });
            let payload = client.stats().expect("retries absorb the sheds");
            assert_eq!(payload.get("entries").and_then(Json::as_u64), Some(0));
            // Handshake + three stats requests (initial attempt + two retries).
            assert_eq!(dialect.requests(&sent), 4, "{dialect:?}");
        }
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_the_overload_error() {
        for dialect in DIALECTS {
            let (client, sent) = dialect.scripted(&[overloaded_reply(), overloaded_reply()]);
            let mut client = client.with_retry(RetryPolicy {
                max_retries: 1,
                base_backoff_ms: 1,
                max_backoff_ms: 1,
            });
            let error = client.stats().expect_err("budget of one retry");
            match error {
                ProtoError::Remote {
                    code,
                    retry_after_ms,
                    status,
                    ..
                } => {
                    assert_eq!(code, "overloaded");
                    assert_eq!(retry_after_ms, Some(1));
                    let http = matches!(dialect, Dialect::Http);
                    assert_eq!(status, http.then_some(503));
                }
                other => panic!("wrong error over {dialect:?}: {other:?}"),
            }
            assert_eq!(dialect.requests(&sent), 3, "{dialect:?}");
        }
    }

    #[test]
    fn non_overload_errors_are_never_retried() {
        let bad = r#"{"type":"error","code":"bad_request","message":"nope"}"#;
        for dialect in DIALECTS {
            let (client, sent) = dialect.scripted(&[(400, Json::parse(bad).unwrap())]);
            let mut client = client.with_retry(RetryPolicy::default());
            assert!(client.stats().is_err());
            // Handshake + exactly one stats request: no retry was attempted.
            assert_eq!(dialect.requests(&sent), 2, "{dialect:?}");
        }
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

    /// A request larger than one segment leaves a partial last segment,
    /// which with Nagle's algorithm on waits for the daemon's delayed ACK.
    #[cfg(unix)]
    #[test]
    fn client_connects_with_nagle_off() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let engine = QueryEngine::default();
            let (conn, _) = listener.accept().expect("accept");
            http::serve_conn(conn, &engine, &crate::daemon::ShutdownSignal::new());
        });
        let stream = connect_tcp(&addr.to_string()).expect("connect");
        assert!(stream.nodelay().expect("socket option"));
        drop(stream);
        server.join().expect("server thread");
    }

    /// A client of one in-process connection served over `dialect` against
    /// `engine`, with a per-connection request budget (`0` = unlimited).
    #[cfg(unix)]
    fn served(
        dialect: Dialect,
        engine: &Arc<QueryEngine>,
        budget: u64,
    ) -> (Client, std::thread::JoinHandle<()>) {
        let engine = Arc::clone(engine);
        let shutdown = crate::daemon::ShutdownSignal::new();
        let faults = crate::faults::Faults::default();
        match dialect {
            Dialect::Framed => {
                let (ours, theirs) = std::os::unix::net::UnixStream::pair().expect("pair");
                let server = std::thread::spawn(move || {
                    crate::daemon::serve_proto_conn_opts(
                        theirs, &engine, &shutdown, &faults, budget,
                    )
                });
                (Client::framed(ours).expect("handshake"), server)
            }
            Dialect::Http => {
                let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
                let addr = listener.local_addr().unwrap().to_string();
                let server = std::thread::spawn(move || {
                    let (conn, _) = listener.accept().expect("accept");
                    http::serve_conn_opts(conn, &engine, &shutdown, &faults, budget)
                });
                (Client::connect(&addr).expect("handshake"), server)
            }
        }
    }

    fn envelope(kind: &str, trace_id: Option<&str>) -> Json {
        let mut fields = vec![
            ("api_version", Json::num(v2::API_VERSION)),
            ("op", Json::str("solve")),
            ("target", Json::obj(vec![("cotree", Json::str("(j a b)"))])),
            ("params", Json::obj(vec![("kind", Json::str(kind))])),
        ];
        if let Some(id) = trace_id {
            fields.push(("trace_id", Json::str(id)));
        }
        Json::obj(fields)
    }

    #[cfg(unix)]
    #[test]
    fn v2_overload_sheds_stay_in_band_on_both_wires() {
        let assert_shed = |reply: Json, what: &str| {
            assert_eq!(
                reply.get("ok").and_then(Json::as_bool),
                Some(false),
                "{what}: {reply}"
            );
            let error = reply.get("error").expect("error object");
            assert_eq!(
                error.get("code").and_then(Json::as_str),
                Some("overloaded"),
                "{what}"
            );
            assert!(
                error.get("retry_after_ms").and_then(Json::as_u64).is_some(),
                "{what}"
            );
        };
        for dialect in DIALECTS {
            // Admission shed: the only in-flight slot is held.
            let engine = Arc::new(QueryEngine::new(EngineConfig {
                max_inflight: 1,
                ..EngineConfig::default()
            }));
            let (mut client, server) = served(dialect, &engine, 0);
            let permit = engine.try_admit().expect("fill the gate");
            let reply = client.query_v2(&envelope("min_cover_size", None));
            assert_shed(
                reply.expect("in-band shed"),
                &format!("admission, {dialect:?}"),
            );
            drop(permit);
            drop(client);
            server.join().expect("server thread");

            // Budget shed: the handshake spends a budget of one.
            let engine = Arc::new(QueryEngine::default());
            let (mut client, server) = served(dialect, &engine, 1);
            let reply = client.query_v2(&envelope("min_cover_size", None));
            assert_shed(
                reply.expect("in-band shed"),
                &format!("budget, {dialect:?}"),
            );
            drop(client);
            server.join().expect("server thread");
        }
    }

    #[cfg(unix)]
    #[test]
    fn any_retained_trace_is_fetched_over_both_wires() {
        use crate::daemon::{Daemon, DaemonConfig};
        let socket = std::env::temp_dir().join(format!(
            "pcservice-client-trace-{}.sock",
            std::process::id()
        ));
        let mut config = DaemonConfig::new(&socket);
        config.http_addr = Some("127.0.0.1:0".to_string());
        let daemon = Daemon::bind(config).expect("bind");
        let addr = daemon.http_addr().expect("http bound").to_string();
        let handle = std::thread::spawn(move || daemon.run());
        let mut framed = crate::daemon::connect(&socket).expect("framed connect");
        let mut http = Client::connect(&addr).expect("http connect");

        let query = QueryRequest::new(
            QueryKind::FullCover,
            GraphSpec::CotreeTerm("(u a b)".to_string()),
        );
        let response = framed.solve(&query).expect("solve");
        let plain = response
            .get("meta")
            .and_then(|m| m.get("trace_id"))
            .and_then(Json::as_str)
            .expect("synthesized trace id")
            .to_string();
        assert!(plain.starts_with("pc-"), "{plain}");
        // Reserved characters, a bare `%`, and unreserved plus non-ASCII.
        let custom = ["job 7?x/y", "a%b", "né-x.y_z~"];
        for id in custom {
            let reply = framed
                .query_v2(&envelope("full_cover", Some(id)))
                .expect("v2");
            assert_eq!(
                reply.get("ok").and_then(Json::as_bool),
                Some(true),
                "{reply}"
            );
        }
        for id in std::iter::once(plain.as_str()).chain(custom) {
            let over_framed = framed.trace(Some(id), false).expect("framed fetch");
            let over_http = http.trace(Some(id), false).expect("http fetch");
            assert_eq!(over_framed.get("trace_id").and_then(Json::as_str), Some(id));
            assert_eq!(over_framed, over_http, "{id}");
            let chrome = |client: &mut Client| {
                let export = client.trace(Some(id), true).expect("chrome export");
                export.get("traceEvents").cloned().expect("traceEvents")
            };
            assert_eq!(chrome(&mut framed), chrome(&mut http), "{id}");
        }

        // A hand-written escaped path reaches the same trace.
        let mut raw = TcpStream::connect(&addr).expect("raw connect");
        raw.write_all(b"GET /v1/trace/job%207%3Fx%2Fy HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("raw request");
        let mut reply = String::new();
        raw.read_to_string(&mut reply).expect("raw reply");
        let (head, body) = reply.split_once("\r\n\r\n").expect("head and body");
        assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        let trace = Json::parse(body.trim_end()).expect("json body");
        assert_eq!(
            trace
                .get("trace")
                .and_then(|t| t.get("trace_id"))
                .and_then(Json::as_str),
            Some("job 7?x/y")
        );

        drop(framed);
        http.shutdown().expect("shutdown");
        handle.join().expect("daemon thread").expect("clean exit");
    }
}
