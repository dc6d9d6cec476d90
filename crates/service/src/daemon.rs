//! The serving daemon: a long-lived [`QueryEngine`] behind one or more
//! accept loops.
//!
//! The engine's cotree cache only pays off when it outlives a single
//! process invocation — this module is the transport layer that makes that
//! true. A [`Daemon`] binds a unix domain socket (speaking the
//! length-framed [`crate::proto`] format), a TCP socket (speaking the
//! [`crate::http`] adaptation of the same messages), or both at once; every
//! connection is served on its own thread against one shared
//! `Arc<QueryEngine>`, so every client of every transport warms the same
//! sharded cache and batches fan out through the engine's existing thread
//! pool.
//!
//! Protocol semantics live in [`crate::proto`] (its request edge,
//! [`proto::serve`], maps every request to its reply, for both transports
//! and both dialects); this module only adds:
//!
//! * **a transport abstraction** — [`Listener`] (blocking accept + a waker
//!   that unblocks it) and [`Connection`] (clone/timeout/shutdown on a byte
//!   stream), implemented for unix and TCP sockets, so the accept-loop,
//!   thread-registry and graceful-shutdown machinery below is written once
//!   and every future transport (TLS, h2) is a bolt-on;
//! * **one connection loop** for both transports, over a private
//!   per-transport wire (the framed one here, the HTTP one in
//!   [`crate::http`]) that only reads requests and writes answers in each
//!   request's dialect. The loop owns the policy once: the connection
//!   gauge, the per-connection request budget, the fault hooks, `overloaded`
//!   sheds, the refusal of a reply over [`proto::MAX_FRAME_LEN`], idle
//!   timeouts, keep-alive and shutdown. Every listener serves under one
//!   set of limits taken from the [`DaemonConfig`];
//! * **fault isolation** — a malformed request earns an `error` reply; the
//!   connection keeps serving when its framing survived (a bad frame
//!   payload), and closes when it did not; neither ever stops the daemon;
//! * **graceful shutdown** — a `shutdown` request on *any* transport is
//!   acknowledged, then a shared [`ShutdownSignal`] stops every accept
//!   loop, open connections are shut down, handler threads are joined and
//!   the socket file is removed.

use crate::client::Client;
use crate::engine::{EngineConfig, QueryEngine, DEFAULT_RETRY_AFTER_MS};
use crate::error::ServiceError;
use crate::faults::{FaultSpec, Faults};
use crate::http;
use crate::json::Json;
use crate::proto::{self, Action, Dialect, Headers, ProtoError, MAX_FRAME_LEN, PROTO_VERSION};
use crate::snapshot;
use crate::telemetry::{Metric, RequestCtx, Transport};
use crate::v2;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown as SocketShutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A served byte stream: what the accept loop and the connection loop need
/// from a socket, beyond `Read + Write`.
pub trait Connection: io::Read + io::Write + Send + Sized + 'static {
    /// A second handle on the same stream (read half / write half / the
    /// registry's shutdown handle).
    fn try_clone_conn(&self) -> io::Result<Self>;
    /// Bounds blocking reads; an expired timeout surfaces as
    /// [`io::ErrorKind::WouldBlock`] or [`io::ErrorKind::TimedOut`].
    fn set_conn_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
    /// Best-effort shutdown of both halves, unblocking any reader.
    fn shutdown_conn(&self);
}

impl Connection for UnixStream {
    fn try_clone_conn(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn set_conn_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }
    fn shutdown_conn(&self) {
        let _ = self.shutdown(SocketShutdown::Both);
    }
}

impl Connection for TcpStream {
    fn try_clone_conn(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn set_conn_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }
    fn shutdown_conn(&self) {
        let _ = self.shutdown(SocketShutdown::Both);
    }
}

/// A bound listener the generic accept loop can serve.
pub trait Listener: Send + 'static {
    /// The connection type this listener accepts.
    type Conn: Connection;
    /// Blocks until the next connection (or an accept error).
    fn accept_conn(&self) -> io::Result<Self::Conn>;
    /// A closure that unblocks a blocked [`Listener::accept_conn`] — the
    /// implementations connect to themselves. Registered with the
    /// [`ShutdownSignal`] so triggering shutdown wakes every accept loop.
    fn waker(&self) -> Box<dyn Fn() + Send + Sync>;
    /// Post-run cleanup (the unix transport removes its socket file).
    fn cleanup(&self) {}
}

/// A bound unix-socket listener (plus the path needed to wake and clean it).
struct UnixTransport {
    listener: UnixListener,
    path: PathBuf,
}

impl Listener for UnixTransport {
    type Conn = UnixStream;
    fn accept_conn(&self) -> io::Result<UnixStream> {
        self.listener.accept().map(|(stream, _)| stream)
    }
    fn waker(&self) -> Box<dyn Fn() + Send + Sync> {
        let path = self.path.clone();
        Box::new(move || {
            let _ = UnixStream::connect(&path);
        })
    }
    fn cleanup(&self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A bound TCP listener (plus the resolved address needed to wake it).
struct TcpTransport {
    listener: TcpListener,
    addr: SocketAddr,
}

impl Listener for TcpTransport {
    type Conn = TcpStream;
    /// Accepts with Nagle's algorithm off: a reply larger than the writer's
    /// buffer goes out in several segments, and with Nagle on the last one
    /// waits for the client's delayed ACK (tens of milliseconds).
    fn accept_conn(&self) -> io::Result<TcpStream> {
        let (stream, _) = self.listener.accept()?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }
    fn waker(&self) -> Box<dyn Fn() + Send + Sync> {
        let addr = self.addr;
        Box::new(move || {
            let _ = TcpStream::connect(addr);
        })
    }
}

/// A daemon-wide shutdown flag shared by every accept loop and connection
/// handler, across all transports.
///
/// Triggering it (once) sets the flag and runs every registered waker, so
/// accept loops blocked in `accept(2)` observe the flag without waiting for
/// organic traffic.
pub struct ShutdownSignal {
    flag: AtomicBool,
    wakers: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
}

impl ShutdownSignal {
    /// A fresh, untriggered signal.
    pub fn new() -> Arc<ShutdownSignal> {
        Arc::new(ShutdownSignal {
            flag: AtomicBool::new(false),
            wakers: Mutex::new(Vec::new()),
        })
    }

    /// Has shutdown been requested?
    pub fn is_triggered(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Requests shutdown; the first call runs all registered wakers.
    pub fn trigger(&self) {
        if !self.flag.swap(true, Ordering::AcqRel) {
            for waker in self.wakers.lock().expect("shutdown wakers").iter() {
                waker();
            }
        }
    }

    fn register_waker(&self, waker: Box<dyn Fn() + Send + Sync>) {
        self.wakers.lock().expect("shutdown wakers").push(waker);
    }
}

/// The limits every listener of one daemon serves under, taken once from
/// its [`DaemonConfig`] and shared by both transports' loops.
#[derive(Debug, Default)]
pub(crate) struct Limits {
    /// A connection idle (no complete request read) for this long is closed.
    pub(crate) idle_timeout: Duration,
    /// Most concurrently-served connections per listener (`0` = unlimited).
    pub(crate) max_connections: usize,
    /// Requests one connection may issue before it is shed and closed
    /// (`0` = unlimited).
    pub(crate) request_budget: u64,
    /// How long the teardown waits for in-flight handlers before
    /// force-closing their connections.
    pub(crate) drain_timeout: Duration,
    /// The fault-injection runtime ([`Faults::default`] injects nothing).
    pub(crate) faults: Faults,
}

/// Why a [`Wire::read`] gave no request.
pub(crate) enum Unread<R> {
    /// The peer closed the connection, or the stream failed; nothing is said.
    Closed,
    /// No request arrived within the idle timeout.
    Idle,
    /// The bytes were not a request: `reply` says why, under a synthesized
    /// trace id. A `fatal` defect leaves the stream out of sync, so the
    /// connection closes after the reply; `oversize` marks a request
    /// announced over [`proto::MAX_FRAME_LEN`].
    Defect {
        reply: R,
        fatal: bool,
        oversize: bool,
    },
}

/// Whether a failed read is the idle timeout expiring.
pub(crate) fn timed_out(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// One transport's format under the connection loop, [`serve_conn`], as
/// [`crate::client`]'s wire is under the client: it reads one request and
/// writes each answer — a reply, a shed, a protocol defect or the
/// connection-cap goodbye — in that request's dialect. Every policy is the
/// loop's. The wires are [`Framed`] here and [`http::HttpWire`].
pub(crate) trait Wire {
    /// The transport, for telemetry labels.
    const TRANSPORT: Transport;
    /// A request as read off the wire.
    type Request;
    /// An answer, ready to encode.
    type Reply;
    /// Reads the next request; `writer` is only for interim bytes (HTTP's
    /// `100 Continue`).
    fn read<R: BufRead, O: Write>(
        reader: &mut R,
        writer: &mut O,
    ) -> Result<Self::Request, Unread<Self::Reply>>;
    /// Whether the client asked to keep the connection open.
    fn keep_alive(_request: &Self::Request) -> bool {
        true
    }
    /// The context a reply built before the request ran carries: the one
    /// the request edge would build ([`proto::request_ctx`]).
    fn ctx(request: &Self::Request) -> RequestCtx;
    /// Serves the request through the request edge.
    fn serve(engine: &QueryEngine, request: &Self::Request) -> (Self::Reply, RequestCtx, Action);
    /// An error wire body (`code`, `message`, ...) as the reply to
    /// `request`, in its dialect, under `ctx`'s trace id; `status` is for
    /// HTTP.
    fn error(request: &Self::Request, status: u16, body: Json, ctx: &RequestCtx) -> Self::Reply;
    /// The reply's encoded body, whose length [`proto::MAX_FRAME_LEN`] caps.
    fn render(reply: &Self::Reply) -> String;
    /// Writes a reply around its rendered body and flushes.
    fn write<O: Write>(
        writer: &mut O,
        reply: &Self::Reply,
        body: &str,
        keep_alive: bool,
    ) -> io::Result<()>;
    /// Writes the connection-cap goodbye, `reply`, to a connection that is
    /// not served.
    fn goodbye<C: Connection>(conn: C, reply: &Json);
}

/// The framed protocol's wire: `pcp1` and `pcp2` frames. The header's
/// version tag picks each frame's dialect — `pcp1` frames carry the legacy
/// per-verb messages, `pcp2` frames the [`crate::v2`] envelope — and the
/// reply is framed with the same tag, so one connection can interleave both.
pub(crate) struct Framed;

impl Wire for Framed {
    const TRANSPORT: Transport = Transport::Framed;
    /// The frame's version tag and its payload, which may not parse.
    type Request = (u64, Result<Json, ProtoError>);
    /// A version tag and the payload framed with it.
    type Reply = (u64, Json);

    fn read<R: BufRead, O: Write>(
        reader: &mut R,
        _: &mut O,
    ) -> Result<Self::Request, Unread<Self::Reply>> {
        match proto::read_frame_raw(reader) {
            Ok((version, body)) => Ok((version, Json::parse(&body).map_err(ProtoError::BadJson))),
            Err(ProtoError::Closed) => Err(Unread::Closed),
            Err(ProtoError::Io(e)) if timed_out(&e) => Err(Unread::Idle),
            // A recoverable defect consumed its frame cleanly and the
            // connection keeps serving; a framing violation closes it.
            Err(error) => {
                let reply = proto::error_reply(error.code(), &error.to_string());
                Err(Unread::Defect {
                    reply: (
                        PROTO_VERSION,
                        proto::attach_trace(reply, &RequestCtx::generate()),
                    ),
                    fatal: !error.is_recoverable(),
                    oversize: matches!(error, ProtoError::FrameTooLarge { .. }),
                })
            }
        }
    }

    fn ctx((_, payload): &Self::Request) -> RequestCtx {
        let fields = payload.as_ref().unwrap_or(&Json::Null);
        proto::request_ctx(fields, Headers::default()).unwrap_or_else(|_| RequestCtx::generate())
    }

    fn serve(engine: &QueryEngine, request: &Self::Request) -> (Self::Reply, RequestCtx, Action) {
        let (version, payload) = request;
        let dialect = if *version == v2::API_VERSION {
            Dialect::Envelope
        } else {
            Dialect::Frame
        };
        match payload {
            Ok(payload) => {
                let reply = proto::serve(engine, dialect, payload, Headers::default());
                let body = proto::attach_trace(reply.body, &reply.ctx);
                ((*version, body), reply.ctx, reply.action)
            }
            // The frame was consumed cleanly but its payload never parsed:
            // report in-dialect, under a synthesized trace, and keep serving.
            Err(error) => {
                let ctx = RequestCtx::generate();
                let body = proto::error_body(error.code(), &error.to_string());
                (Self::error(request, 400, body, &ctx), ctx, Action::Continue)
            }
        }
    }

    fn error(request: &Self::Request, _: u16, body: Json, ctx: &RequestCtx) -> Self::Reply {
        (request.0, proto::error_in_dialect(request.0, body, ctx))
    }

    fn render((_, payload): &Self::Reply) -> String {
        let mut body = String::new();
        payload.write(&mut body);
        body
    }

    fn write<O: Write>(writer: &mut O, reply: &Self::Reply, body: &str, _: bool) -> io::Result<()> {
        proto::write_frame_body(writer, body, reply.0)
    }

    fn goodbye<C: Connection>(conn: C, reply: &Json) {
        let _ = proto::write_frame(&mut BufWriter::new(conn), reply);
    }
}

/// Synthesizes a trace id for an accept-time rejection (no request was
/// read, so no `X-Request-Id` header or frame field exists yet), emits the
/// structured rejection log line and returns the goodbye body carrying the
/// id, so a shed client can quote something the operator can grep for.
fn rejection_reply(transport: Transport) -> Json {
    let ctx = RequestCtx::generate();
    crate::log::log(
        crate::log::Level::Warn,
        "conn_rejected",
        Some(&ctx.trace_id),
        &[
            ("transport", Json::str(transport.as_str())),
            ("retry_after_ms", Json::num(DEFAULT_RETRY_AFTER_MS)),
        ],
    );
    proto::shed_reply(PROTO_VERSION, &ctx)
}

/// Serves one connection to completion over wire `W`: the one request loop
/// of both transports. It owns the policy — the connection gauge, the
/// request budget, the fault hooks, sheds, the refusal of an oversized
/// reply, idle timeouts, keep-alive and shutdown — and `W` the format.
pub(crate) fn serve_conn<W: Wire, C: Connection>(
    conn: C,
    engine: &QueryEngine,
    shutdown: &ShutdownSignal,
    limits: &Limits,
) {
    let Ok(write_half) = conn.try_clone_conn() else {
        return;
    };
    // The guard leaves the active gauge on *every* exit, injected handler
    // panics included, so chaos runs cannot leak open-connection counts.
    let telemetry = engine.telemetry();
    let _connection = telemetry.connection(W::TRANSPORT);
    let transport = W::TRANSPORT as usize;
    let mut reader = BufReader::new(conn);
    let mut writer = BufWriter::new(write_half);
    let mut served: u64 = 0;
    while !shutdown.is_triggered() {
        let request = match W::read(&mut reader, &mut writer) {
            Ok(request) => request,
            Err(Unread::Closed) => break,
            Err(Unread::Idle) => {
                telemetry.add(Metric::IdleTimeouts, transport, 1);
                break;
            }
            // A defect closes this connection at worst — never the daemon.
            Err(Unread::Defect {
                reply,
                fatal,
                oversize,
            }) => {
                if oversize {
                    telemetry.add(Metric::OversizeRejects, transport, 1);
                }
                let written = W::write(&mut writer, &reply, &W::render(&reply), !fatal);
                if written.is_err() || fatal {
                    break;
                }
                continue;
            }
        };
        if let Some(stall) = limits.faults.frame_stall() {
            std::thread::sleep(stall);
        }
        if limits.faults.should_panic() {
            panic!("injected fault: {} handler panic", W::TRANSPORT.as_str());
        }
        // Per-connection budget and fault-forced sheds: a typed, recoverable
        // `overloaded` reply in the request's dialect, before dispatch. A
        // spent budget also closes the connection after the reply (the
        // client saw a recoverable error and can reconnect).
        let budget_spent = limits.request_budget != 0 && served >= limits.request_budget;
        let (mut reply, ctx, action) = if budget_spent || limits.faults.should_overload() {
            telemetry.add(Metric::RejectedOverload, 0, 1);
            let ctx = W::ctx(&request);
            let retry_after_ms = DEFAULT_RETRY_AFTER_MS;
            let body = ServiceError::Overloaded { retry_after_ms }.wire_body();
            (W::error(&request, 503, body, &ctx), ctx, Action::Continue)
        } else {
            served += 1;
            W::serve(engine, &request)
        };
        let mut body = W::render(&reply);
        if body.len() > MAX_FRAME_LEN {
            // Refused before any byte is written, so the stream stays in
            // sync: tell the client what happened instead of dying.
            telemetry.add(Metric::OversizeRejects, transport, 1);
            let message = format!(
                "reply of {} bytes exceeds the {MAX_FRAME_LEN} byte cap (split the batch)",
                body.len()
            );
            let refusal = proto::error_body("frame_too_large", &message);
            reply = W::error(&request, 500, refusal, &ctx);
            body = W::render(&reply);
        }
        let keep_alive = W::keep_alive(&request) && action == Action::Continue && !budget_spent;
        let written = W::write(&mut writer, &reply, &body, keep_alive);
        if action == Action::Shutdown {
            // The acknowledgement is flushed, or the client is gone; either
            // way the daemon stops: the signal wakes every accept loop.
            shutdown.trigger();
            break;
        }
        if written.is_err() || !keep_alive {
            break;
        }
    }
}

/// Serves one listener until the shared signal triggers: the accept loop,
/// per-connection threads running [`serve_conn`] over wire `W`, the
/// live-connection registry and the drain-then-join teardown, shared by
/// every transport. A handler panic — injected or organic — is contained to
/// its connection, and a connection over `limits.max_connections` gets
/// `W`'s goodbye instead of a thread.
pub(crate) fn serve_listener<W: Wire, L: Listener>(
    listener: L,
    engine: Arc<QueryEngine>,
    shutdown: Arc<ShutdownSignal>,
    limits: Arc<Limits>,
) -> io::Result<()> {
    shutdown.register_waker(listener.waker());
    if shutdown.is_triggered() {
        // Triggered between bind and serve: nothing to wake, nothing to do.
        listener.cleanup();
        return Ok(());
    }
    // Registry of live connections, keyed by a connection id so a handler
    // can deregister itself on exit — otherwise a long-lived daemon would
    // hold one cloned fd per *historical* connection and eventually exhaust
    // the fd limit.
    let connections: Arc<Mutex<HashMap<u64, L::Conn>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut next_id: u64 = 0;
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    // Bounded exponential backoff for persistently failing accepts (EMFILE
    // until connections drain): starts small so a one-off failure barely
    // delays the next accept, doubles to a cap so a persistent one cannot
    // busy-spin a core, resets on the first successful accept.
    const ACCEPT_BACKOFF_FLOOR: Duration = Duration::from_millis(5);
    const ACCEPT_BACKOFF_CAP: Duration = Duration::from_millis(500);
    let mut accept_backoff = ACCEPT_BACKOFF_FLOOR;
    loop {
        if shutdown.is_triggered() {
            break;
        }
        let conn = match listener.accept_conn() {
            Ok(conn) => {
                accept_backoff = ACCEPT_BACKOFF_FLOOR;
                conn
            }
            // A failed accept (peer vanished mid-handshake, or fd
            // exhaustion under connection pressure) affects nobody else.
            Err(_) => {
                engine
                    .telemetry()
                    .add(Metric::AcceptErrors, W::TRANSPORT as usize, 1);
                if shutdown.is_triggered() {
                    break;
                }
                std::thread::sleep(accept_backoff);
                accept_backoff = (accept_backoff * 2).min(ACCEPT_BACKOFF_CAP);
                continue;
            }
        };
        if shutdown.is_triggered() {
            // The accepted connection was (or raced with) a waker poke.
            break;
        }
        if let Some(delay) = limits.faults.accept_delay() {
            std::thread::sleep(delay);
        }
        if limits.max_connections != 0
            && connections.lock().expect("connection registry").len() >= limits.max_connections
        {
            // Over the cap: a typed goodbye, not a silent close, so clients
            // back off instead of retrying instantly.
            engine.telemetry().add(Metric::RejectedOverload, 0, 1);
            W::goodbye(conn, &rejection_reply(W::TRANSPORT));
            continue;
        }
        let _ = conn.set_conn_read_timeout(Some(limits.idle_timeout));
        let conn_id = next_id;
        next_id += 1;
        if let Ok(clone) = conn.try_clone_conn() {
            connections
                .lock()
                .expect("connection registry")
                .insert(conn_id, clone);
        }
        let engine = engine.clone();
        let shutdown = shutdown.clone();
        let registry = connections.clone();
        let limits = limits.clone();
        handlers.push(std::thread::spawn(move || {
            // Contain handler panics (fault-injected or organic) to this
            // connection: the registry entry is still removed, the daemon
            // keeps serving, and the telemetry gauges stay balanced (the
            // loop decrements them in a Drop guard).
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                serve_conn::<W, _>(conn, &engine, &shutdown, &limits)
            }));
            if outcome.is_err() {
                crate::log::log(
                    crate::log::Level::Error,
                    "handler_panic",
                    None,
                    &[("contained", Json::Bool(true))],
                );
            }
            registry
                .lock()
                .expect("connection registry")
                .remove(&conn_id);
        }));
        // Reap finished handlers so a long-lived daemon's handle list
        // tracks live connections, not its connection history.
        handlers.retain(|h| !h.is_finished());
    }
    // Graceful drain: stop accepting (the loop above has exited), give
    // in-flight handlers up to the drain timeout to finish their current
    // requests, then force-close whatever remains so a stuck or idle
    // connection cannot hold shutdown hostage.
    let deadline = Instant::now() + limits.drain_timeout;
    while handlers.iter().any(|h| !h.is_finished()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    for (_, conn) in connections.lock().expect("connection registry").drain() {
        conn.shutdown_conn();
    }
    for handler in handlers {
        let _ = handler.join();
    }
    listener.cleanup();
    Ok(())
}

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Path of the unix socket to listen on (framed `pcp1` protocol), if
    /// any. At least one of `socket_path` / `http_addr` must be set.
    pub socket_path: Option<PathBuf>,
    /// TCP address to serve HTTP/1.1 on (e.g. `127.0.0.1:8387`), if any.
    pub http_addr: Option<String>,
    /// A connection idle (no complete request read) for this long is
    /// closed.
    pub idle_timeout: Duration,
    /// Warm-cache snapshot file (see [`crate::snapshot`]): loaded (and
    /// verified) at bind time, saved on shutdown and on every checkpoint.
    pub snapshot_path: Option<PathBuf>,
    /// How often the background checkpoint thread persists the cache while
    /// serving; `None` means save-on-shutdown only. Ignored without
    /// `snapshot_path`.
    pub checkpoint_interval: Option<Duration>,
    /// Most concurrently-served connections per listener (`0` = unlimited).
    /// An excess connection is answered with a typed `overloaded` goodbye
    /// in its transport's dialect and closed without taking a handler
    /// thread; the OS accept backlog stays the only queue.
    pub max_connections: usize,
    /// Requests one connection may issue before being shed with
    /// `overloaded` and closed (`0` = unlimited) — a rogue keep-alive
    /// client cannot monopolise a handler thread forever.
    pub max_requests_per_conn: u64,
    /// How long shutdown waits for in-flight connections to finish before
    /// force-closing them.
    pub drain_timeout: Duration,
    /// Fault-injection spec (see [`crate::faults`]); the all-zero default
    /// disables every hook.
    pub faults: FaultSpec,
    /// Configuration of the shared query engine.
    pub engine: EngineConfig,
}

impl DaemonConfig {
    /// Unix-socket-only daemon with defaults: 30 s idle timeout, default
    /// engine configuration, no snapshot persistence.
    pub fn new(socket_path: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            socket_path: Some(socket_path.into()),
            http_addr: None,
            idle_timeout: Duration::from_secs(30),
            snapshot_path: None,
            checkpoint_interval: None,
            max_connections: 0,
            max_requests_per_conn: 0,
            drain_timeout: Duration::from_secs(5),
            faults: FaultSpec::default(),
            engine: EngineConfig::default(),
        }
    }

    /// HTTP-only daemon with the same defaults.
    pub fn http(addr: impl Into<String>) -> Self {
        DaemonConfig {
            socket_path: None,
            http_addr: Some(addr.into()),
            ..DaemonConfig::new(PathBuf::new())
        }
    }
}

/// A bound, not-yet-running daemon.
pub struct Daemon {
    engine: Arc<QueryEngine>,
    shutdown: Arc<ShutdownSignal>,
    unix: Option<UnixTransport>,
    http: Option<TcpTransport>,
    snapshot_load: Option<snapshot::LoadOutcome>,
    checkpoint_interval: Option<Duration>,
    limits: Arc<Limits>,
}

impl Daemon {
    /// Binds the configured listeners and builds the shared engine.
    ///
    /// A leftover socket file from a crashed daemon is removed if nothing
    /// answers on it; a *live* socket (another daemon is serving) is
    /// refused with [`io::ErrorKind::AddrInUse`]. Binding requires at least
    /// one listener; `http_addr` port 0 binds an ephemeral port readable
    /// from [`Daemon::http_addr`].
    pub fn bind(config: DaemonConfig) -> io::Result<Daemon> {
        if config.socket_path.is_none() && config.http_addr.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "daemon needs a socket path and/or an http address",
            ));
        }
        let unix = match config.socket_path {
            Some(path) => Some(bind_unix(path)?),
            None => None,
        };
        let http = match config.http_addr {
            Some(addr) => {
                let listener = TcpListener::bind(&addr)?;
                let addr = listener.local_addr()?;
                Some(TcpTransport { listener, addr })
            }
            None => None,
        };
        let engine = Arc::new(QueryEngine::new(config.engine));
        // Warm start: load (and verify) the previous process's cache before
        // the first connection is accepted. A corrupt file is quarantined
        // by attach_snapshot and the daemon starts cold instead.
        let snapshot_load = config
            .snapshot_path
            .map(|path| engine.attach_snapshot(path));
        Ok(Daemon {
            engine,
            shutdown: ShutdownSignal::new(),
            unix,
            http,
            snapshot_load,
            checkpoint_interval: config.checkpoint_interval,
            limits: Arc::new(Limits {
                idle_timeout: config.idle_timeout,
                max_connections: config.max_connections,
                request_budget: config.max_requests_per_conn,
                drain_timeout: config.drain_timeout,
                faults: Faults::new(config.faults),
            }),
        })
    }

    /// The shared engine (e.g. for in-process inspection in tests).
    pub fn engine(&self) -> Arc<QueryEngine> {
        self.engine.clone()
    }

    /// How the snapshot load at bind time went, when persistence is
    /// configured (`None` without `snapshot_path`). The CLI reports this
    /// next to the listening addresses.
    pub fn snapshot_load(&self) -> Option<&snapshot::LoadOutcome> {
        self.snapshot_load.as_ref()
    }

    /// The unix socket path the daemon is bound to, if any.
    pub fn socket_path(&self) -> Option<&Path> {
        self.unix.as_ref().map(|t| t.path.as_path())
    }

    /// The resolved TCP address the HTTP listener is bound to, if any
    /// (reports the real port when the config asked for port 0).
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http.as_ref().map(|t| t.addr)
    }

    /// Serves until a client sends a `shutdown` request on any transport.
    /// Joins every handler thread, persists the cache when a snapshot is
    /// attached, and removes the socket file before returning.
    pub fn run(self) -> io::Result<()> {
        let Daemon {
            engine,
            shutdown,
            unix,
            http,
            snapshot_load: _,
            checkpoint_interval,
            limits,
        } = self;
        // Background checkpointing: persist the warm cache periodically so
        // even a crash (no graceful shutdown) loses at most one interval of
        // cache warmth. The thread polls the shutdown flag between short
        // sleeps rather than blocking the accept loops in any way. A save
        // failure is retried with capped exponential backoff — a full disk
        // is probed at 2×, 4×, ... the interval instead of hammered on
        // every tick — and the consecutive-failure count is surfaced in
        // `/v1/stats` (the engine books it in telemetry).
        let checkpoint_thread = match (checkpoint_interval, engine.snapshot_meta()) {
            (Some(every), Some(_)) => {
                let engine = engine.clone();
                let shutdown = shutdown.clone();
                Some(std::thread::spawn(move || {
                    const POLL: Duration = Duration::from_millis(50);
                    const BACKOFF_CAP: Duration = Duration::from_secs(300);
                    let mut since_last = Duration::ZERO;
                    let mut target = every;
                    let mut consecutive_failures: u32 = 0;
                    while !shutdown.is_triggered() {
                        std::thread::sleep(POLL);
                        since_last += POLL;
                        if since_last >= target {
                            since_last = Duration::ZERO;
                            match engine.save_snapshot() {
                                Ok(_) => {
                                    consecutive_failures = 0;
                                    target = every;
                                }
                                Err(error) => {
                                    consecutive_failures += 1;
                                    target = every
                                        .saturating_mul(1u32 << consecutive_failures.min(16))
                                        .min(BACKOFF_CAP)
                                        .max(every);
                                    crate::log::log(
                                        crate::log::Level::Error,
                                        "checkpoint_failed",
                                        None,
                                        &[
                                            (
                                                "consecutive",
                                                Json::num(u64::from(consecutive_failures)),
                                            ),
                                            ("next_retry_ms", Json::num(target.as_millis() as u64)),
                                            ("error", Json::str(error.to_string())),
                                        ],
                                    );
                                }
                            }
                        }
                    }
                }))
            }
            _ => None,
        };
        // With both transports bound the HTTP loop runs on its own thread;
        // either loop's shutdown trigger wakes and stops the other.
        let http_thread = http.map(|listener| {
            let (engine, shutdown, limits) = (engine.clone(), shutdown.clone(), limits.clone());
            std::thread::spawn(move || {
                serve_listener::<http::HttpWire, _>(listener, engine, shutdown, limits)
            })
        });
        let unix_result = match unix {
            Some(listener) => {
                serve_listener::<Framed, _>(listener, engine.clone(), shutdown.clone(), limits)
            }
            None => Ok(()),
        };
        let http_result = match http_thread {
            Some(handle) => handle
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("http accept loop panicked"))),
            None => Ok(()),
        };
        // The accept loops only return once the signal is triggered, but
        // trigger defensively so the checkpoint thread can never outlive
        // them on an error path.
        shutdown.trigger();
        if let Some(handle) = checkpoint_thread {
            let _ = handle.join();
        }
        // Save-on-shutdown: every entry the process warmed survives the
        // restart. Best-effort — a full disk must not turn a clean shutdown
        // into a crash loop, and the pre-existing snapshot is still intact
        // (saves are atomic).
        if engine.snapshot_meta().is_some() {
            if let Err(error) = engine.save_snapshot() {
                crate::log::log(
                    crate::log::Level::Error,
                    "shutdown_snapshot_failed",
                    None,
                    &[("error", Json::str(error.to_string()))],
                );
            }
        }
        unix_result.and(http_result)
    }
}

/// Binds the unix listener, reclaiming stale socket files and refusing
/// live sockets and non-socket paths.
fn bind_unix(path: PathBuf) -> io::Result<UnixTransport> {
    if let Ok(meta) = std::fs::symlink_metadata(&path) {
        use std::os::unix::fs::FileTypeExt as _;
        if !meta.file_type().is_socket() {
            // Refuse to clobber a regular file / directory / symlink the
            // user pointed at by mistake.
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} exists and is not a socket", path.display()),
            ));
        }
        match UnixStream::connect(&path) {
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already serving on {}", path.display()),
                ))
            }
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                // Definitely a dead listener (unclean exit): reclaim.
                // Known limitation: probe-then-remove is not atomic, so
                // two daemons racing to reclaim the same stale path can
                // unlink each other's fresh socket — supervisors must
                // serialise restarts per socket path (a kernel-held
                // flock would close this, but needs unsafe/libc).
                let _ = std::fs::remove_file(&path);
            }
            Err(e) => {
                return Err(io::Error::new(
                    e.kind(),
                    format!("probing existing socket {}: {e}", path.display()),
                ))
            }
        }
    }
    let listener = UnixListener::bind(&path)?;
    Ok(UnixTransport { listener, path })
}

/// Connects to a daemon's unix socket and performs the `hello` handshake:
/// the framed [`Client`].
pub fn connect(socket_path: impl AsRef<Path>) -> Result<Client, ProtoError> {
    Client::framed(UnixStream::connect(socket_path.as_ref())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::model::{GraphSpec, QueryKind, QueryRequest};
    use std::sync::atomic::AtomicU32;

    fn temp_socket(tag: &str) -> PathBuf {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "pcservice-test-{}-{tag}-{n}.sock",
            std::process::id()
        ))
    }

    fn spawn_daemon(tag: &str) -> (PathBuf, std::thread::JoinHandle<io::Result<()>>) {
        let path = temp_socket(tag);
        let mut config = DaemonConfig::new(&path);
        config.idle_timeout = Duration::from_secs(5);
        let daemon = Daemon::bind(config).expect("bind");
        let handle = std::thread::spawn(move || daemon.run());
        (path, handle)
    }

    #[test]
    fn solve_shutdown_round_trip() {
        let (path, handle) = spawn_daemon("roundtrip");
        let mut client = connect(&path).expect("connect");
        let request = QueryRequest::new(
            QueryKind::MinCoverSize,
            GraphSpec::CotreeTerm("(j a b c)".to_string()),
        );
        let response = client.solve(&request).expect("solve");
        assert_eq!(
            response
                .get("answer")
                .and_then(|a| a.get("size"))
                .and_then(Json::as_u64),
            Some(1)
        );
        client.shutdown().expect("shutdown");
        handle.join().expect("daemon thread").expect("clean exit");
        assert!(!path.exists(), "socket file removed on shutdown");
    }

    #[test]
    fn malformed_frames_do_not_kill_the_connection_or_daemon() {
        let (path, handle) = spawn_daemon("malformed");
        // Raw stream: send a syntactically framed but non-JSON payload...
        let raw = UnixStream::connect(&path).expect("connect raw");
        let mut reader = BufReader::new(raw.try_clone().expect("clone"));
        let mut writer = raw;
        use std::io::Write as _;
        writer.write_all(b"pcp1 9\nnot json!\n").expect("send junk");
        writer.flush().unwrap();
        let reply = proto::read_frame(&mut reader).expect("error reply");
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("error"));
        assert_eq!(reply.get("code").and_then(Json::as_str), Some("bad_json"));
        // ...the same connection still serves properly-formed frames...
        proto::write_frame(&mut writer, &proto::Request::Stats.to_json()).expect("send stats");
        let reply = proto::read_frame(&mut reader).expect("stats reply");
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("stats"));
        drop((reader, writer));
        // ...and the daemon is still alive for fresh connections.
        let mut client = connect(&path).expect("daemon survived");
        client.shutdown().expect("shutdown");
        handle.join().expect("daemon thread").expect("clean exit");
    }

    #[test]
    fn stale_socket_file_is_reclaimed_live_socket_and_foreign_files_refused() {
        // A dropped listener leaves its socket file behind — the classic
        // crashed-daemon leftover. Binding over it must succeed.
        let path = temp_socket("stale");
        drop(UnixListener::bind(&path).expect("plant stale socket"));
        assert!(path.exists(), "stale socket file left behind");
        let daemon = Daemon::bind(DaemonConfig::new(&path)).expect("stale socket reclaimed");
        // While it is bound (alive), a second bind must be refused.
        let err = match Daemon::bind(DaemonConfig::new(&path)) {
            Err(err) => err,
            Ok(_) => panic!("live socket must be refused"),
        };
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        drop(daemon);
        let _ = std::fs::remove_file(&path);

        // A path holding a non-socket must never be deleted.
        let file_path = temp_socket("notasocket");
        std::fs::write(&file_path, b"precious").expect("plant regular file");
        let err = match Daemon::bind(DaemonConfig::new(&file_path)) {
            Err(err) => err,
            Ok(_) => panic!("regular file must be refused"),
        };
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(std::fs::read(&file_path).expect("file intact"), b"precious");
        let _ = std::fs::remove_file(&file_path);
    }

    #[test]
    fn accepted_tcp_connections_have_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let transport = TcpTransport { listener, addr };
        let client = TcpStream::connect(addr).expect("connect");
        let accepted = transport.accept_conn().expect("accept");
        assert!(accepted.nodelay().expect("read TCP_NODELAY"));
        drop(client);
    }

    #[test]
    fn listenerless_config_is_refused() {
        let mut config = DaemonConfig::new("/tmp/never-bound.sock");
        config.socket_path = None;
        let err = match Daemon::bind(config) {
            Err(err) => err,
            Ok(_) => panic!("a listenerless config must be refused"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn shutdown_on_one_transport_stops_the_other() {
        // Dual-transport daemon: unix + ephemeral-port HTTP.
        let path = temp_socket("dual");
        let mut config = DaemonConfig::new(&path);
        config.http_addr = Some("127.0.0.1:0".to_string());
        config.idle_timeout = Duration::from_secs(5);
        let daemon = Daemon::bind(config).expect("bind both");
        let http_addr = daemon.http_addr().expect("http bound");
        let handle = std::thread::spawn(move || daemon.run());

        // Both transports answer against the same engine...
        let mut unix_client = connect(&path).expect("unix connect");
        let request = QueryRequest::new(
            QueryKind::MinCoverSize,
            GraphSpec::CotreeTerm("(j a b c)".to_string()),
        );
        unix_client.solve(&request).expect("unix solve");
        let mut http_client = http::Client::connect(&http_addr.to_string()).expect("http connect");
        let response = http_client.solve(&request).expect("http solve");
        // ...and the HTTP request observes the cache the unix request
        // warmed: one shared engine, not one per transport.
        assert_eq!(
            response
                .get("meta")
                .and_then(|m| m.get("cache"))
                .and_then(Json::as_str),
            Some("hit"),
            "transports must share one engine: {response}"
        );

        // Shutdown over HTTP stops the unix accept loop too. Drop the
        // idle unix client first so the drain finds nothing in flight
        // (its handler exits on the EOF immediately).
        drop(unix_client);
        http_client.shutdown().expect("http shutdown");
        handle.join().expect("daemon thread").expect("clean exit");
        assert!(!path.exists(), "socket file removed on shutdown");
    }
}
