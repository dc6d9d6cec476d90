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
//! Protocol semantics live in [`crate::proto`] ([`proto::dispatch`] is the
//! entire request → reply mapping, for both transports); this module only
//! adds:
//!
//! * **a transport abstraction** — [`Listener`] (blocking accept + a waker
//!   that unblocks it) and [`Connection`] (clone/timeout/shutdown on a byte
//!   stream), implemented for unix and TCP sockets, so the accept-loop,
//!   thread-registry and graceful-shutdown machinery below is written once
//!   and every future transport (TLS, h2) is a bolt-on;
//! * **connection lifecycle** — one handler thread per connection, reads
//!   bounded by an idle timeout after which the connection is dropped;
//! * **fault isolation** — a malformed frame earns an `error` reply and the
//!   connection keeps serving; a framing violation closes that connection;
//!   neither ever stops the daemon;
//! * **graceful shutdown** — a `shutdown` request on *any* transport is
//!   acknowledged, then a shared [`ShutdownSignal`] stops every accept
//!   loop, open connections are shut down, handler threads are joined and
//!   the socket file is removed.

use crate::client::Client;
use crate::engine::{EngineConfig, QueryEngine, DEFAULT_RETRY_AFTER_MS};
use crate::faults::{FaultSpec, Faults};
use crate::http;
use crate::json::Json;
use crate::proto::{self, ProtoError, Request};
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

/// A served byte stream: what the generic accept loop and the per-protocol
/// connection handlers need from a socket, beyond `Read + Write`.
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

/// Per-listener resilience knobs for [`serve_listener`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Which transport this listener serves (telemetry labels).
    pub transport: Transport,
    /// Most concurrently-served connections (`0` = unlimited); an excess
    /// connection gets the `reject` goodbye instead of a handler thread.
    pub max_connections: usize,
    /// How long the teardown waits for in-flight handlers to finish before
    /// force-closing their connections.
    pub drain_timeout: Duration,
    /// The daemon's fault-injection runtime ([`Faults::default`] injects
    /// nothing); the accept loop consults it for post-accept delays.
    pub faults: Arc<Faults>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            transport: Transport::Framed,
            max_connections: 0,
            drain_timeout: Duration::from_secs(5),
            faults: Arc::default(),
        }
    }
}

/// Synthesizes a trace id for an accept-time rejection (no request was
/// read, so no `X-Request-Id` header or frame field exists yet), attaches
/// it to the goodbye body and emits the structured rejection log line. The
/// id lets a shed client quote something the operator can grep for.
fn rejection_reply(transport: &str) -> Json {
    let ctx = RequestCtx::generate();
    crate::log::log(
        crate::log::Level::Warn,
        "conn_rejected",
        Some(&ctx.trace_id),
        &[
            ("transport", Json::str(transport)),
            ("retry_after_ms", Json::num(DEFAULT_RETRY_AFTER_MS)),
        ],
    );
    proto::shed_reply(proto::PROTO_VERSION, &ctx)
}

/// Connection-cap goodbye for the framed transport: one `overloaded`
/// error frame (carrying a synthesized `trace_id`), then close.
pub fn reject_proto_conn<C: Connection>(conn: C) {
    let mut writer = BufWriter::new(conn);
    let _ = proto::write_frame(&mut writer, &rejection_reply("framed"));
}

/// Connection-cap goodbye for the HTTP transport: one `503` with a
/// `Retry-After` header and a synthesized `trace_id` in the error body,
/// then close.
pub fn reject_http_conn<C: Connection>(mut conn: C) {
    let reply = rejection_reply("http");
    let trace = reply
        .get("trace_id")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let mut body = reply.to_string();
    body.push('\n');
    let secs = DEFAULT_RETRY_AFTER_MS.div_ceil(1000).max(1);
    let _ = write!(
        conn,
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nRetry-After: {secs}\r\nX-Request-Id: {trace}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = conn.flush();
}

/// Serves one listener until the shared signal triggers: the accept loop,
/// per-connection threads, the live-connection registry and the
/// drain-then-join teardown, shared by every transport.
///
/// `handler` serves one already-accepted connection to completion
/// ([`serve_proto_conn`] for [`crate::proto`], [`http::serve_conn`] for
/// [`crate::http`]); a handler panic — injected or organic — is contained
/// to its connection. `reject` writes the overload goodbye to connections
/// shed by `options.max_connections` ([`reject_proto_conn`] /
/// [`reject_http_conn`]).
pub fn serve_listener<L, H, R>(
    listener: L,
    engine: Arc<QueryEngine>,
    shutdown: Arc<ShutdownSignal>,
    idle_timeout: Duration,
    options: ServeOptions,
    handler: H,
    reject: R,
) -> io::Result<()>
where
    L: Listener,
    H: Fn(L::Conn, &QueryEngine, &ShutdownSignal) + Send + Sync + 'static,
    R: Fn(L::Conn) + Send + 'static,
{
    shutdown.register_waker(listener.waker());
    if shutdown.is_triggered() {
        // Triggered between bind and serve: nothing to wake, nothing to do.
        listener.cleanup();
        return Ok(());
    }
    let handler = Arc::new(handler);
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
                    .add(Metric::AcceptErrors, options.transport as usize, 1);
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
        if let Some(delay) = options.faults.accept_delay() {
            std::thread::sleep(delay);
        }
        if options.max_connections != 0
            && connections.lock().expect("connection registry").len() >= options.max_connections
        {
            // Over the cap: a typed goodbye, not a silent close, so clients
            // back off instead of retrying instantly.
            engine.telemetry().add(Metric::RejectedOverload, 0, 1);
            reject(conn);
            continue;
        }
        let _ = conn.set_conn_read_timeout(Some(idle_timeout));
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
        let handler = handler.clone();
        handlers.push(std::thread::spawn(move || {
            // Contain handler panics (fault-injected or organic) to this
            // connection: the registry entry is still removed, the daemon
            // keeps serving, and the telemetry gauges stay balanced (the
            // handlers decrement them in Drop guards).
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handler(conn, &engine, &shutdown)
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
    let deadline = Instant::now() + options.drain_timeout;
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
}

/// A bound, not-yet-running daemon.
pub struct Daemon {
    engine: Arc<QueryEngine>,
    shutdown: Arc<ShutdownSignal>,
    idle_timeout: Duration,
    unix: Option<UnixTransport>,
    http: Option<TcpTransport>,
    snapshot_load: Option<snapshot::LoadOutcome>,
    checkpoint_interval: Option<Duration>,
    max_connections: usize,
    max_requests_per_conn: u64,
    drain_timeout: Duration,
    faults: Arc<Faults>,
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
            idle_timeout: config.idle_timeout,
            unix,
            http,
            snapshot_load,
            checkpoint_interval: config.checkpoint_interval,
            max_connections: config.max_connections,
            max_requests_per_conn: config.max_requests_per_conn,
            drain_timeout: config.drain_timeout,
            faults: Arc::new(Faults::new(config.faults)),
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
            idle_timeout,
            unix,
            http,
            snapshot_load: _,
            checkpoint_interval,
            max_connections,
            max_requests_per_conn,
            drain_timeout,
            faults,
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
            let engine = engine.clone();
            let shutdown = shutdown.clone();
            let faults = faults.clone();
            let handler_faults = faults.clone();
            std::thread::spawn(move || {
                serve_listener(
                    listener,
                    engine,
                    shutdown,
                    idle_timeout,
                    ServeOptions {
                        transport: Transport::Http,
                        max_connections,
                        drain_timeout,
                        faults,
                    },
                    move |conn, engine: &QueryEngine, shutdown: &ShutdownSignal| {
                        http::serve_conn_opts(
                            conn,
                            engine,
                            shutdown,
                            &handler_faults,
                            max_requests_per_conn,
                        )
                    },
                    reject_http_conn,
                )
            })
        });
        let unix_result = match unix {
            Some(listener) => {
                let handler_faults = faults.clone();
                serve_listener(
                    listener,
                    engine.clone(),
                    shutdown.clone(),
                    idle_timeout,
                    ServeOptions {
                        transport: Transport::Framed,
                        max_connections,
                        drain_timeout,
                        faults: faults.clone(),
                    },
                    move |conn, engine: &QueryEngine, shutdown: &ShutdownSignal| {
                        serve_proto_conn_opts(
                            conn,
                            engine,
                            shutdown,
                            &handler_faults,
                            max_requests_per_conn,
                        )
                    },
                    reject_proto_conn,
                )
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

/// `true` for the read-timeout errors produced by an idle connection.
fn is_idle_timeout(error: &ProtoError) -> bool {
    matches!(
        error,
        ProtoError::Io(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
    )
}

/// Serves one framed-protocol connection to completion: the per-frame loop
/// with the recoverable-vs-fatal error handling of [`crate::proto`].
pub fn serve_proto_conn<C: Connection>(conn: C, engine: &QueryEngine, shutdown: &ShutdownSignal) {
    serve_proto_conn_opts(conn, engine, shutdown, &Faults::default(), 0)
}

/// [`serve_proto_conn`] with the daemon's resilience knobs: a
/// fault-injection runtime and a per-connection request budget (`0` =
/// unlimited; a frame beyond the budget is answered with a recoverable
/// `overloaded` error and the connection closes).
pub fn serve_proto_conn_opts<C: Connection>(
    conn: C,
    engine: &QueryEngine,
    shutdown: &ShutdownSignal,
    faults: &Faults,
    request_budget: u64,
) {
    let Ok(write_half) = conn.try_clone_conn() else {
        return;
    };
    // The guard leaves the active gauge on *every* exit, injected handler
    // panics included, so chaos runs cannot leak open-connection counts.
    let telemetry = engine.telemetry();
    let _connection = telemetry.connection(Transport::Framed);
    let mut reader = BufReader::new(conn);
    let mut writer = BufWriter::new(write_half);
    let mut served: u64 = 0;
    while !shutdown.is_triggered() {
        match serve_frame(
            &mut reader,
            &mut writer,
            engine,
            faults,
            request_budget,
            &mut served,
        ) {
            Ok(proto::Action::Continue) => {}
            Ok(proto::Action::Shutdown) => {
                // Wakes every accept loop (all transports) via the signal's
                // registered wakers.
                shutdown.trigger();
                break;
            }
            Err(ProtoError::Closed) => break,
            Err(error) if error.is_recoverable() => {
                // The frame was consumed cleanly: report and keep serving.
                // The payload never parsed, so there is no client-supplied
                // trace — correlate the reply with a synthesized one.
                let reply = proto::attach_trace(
                    proto::error_reply(error.code(), &error.to_string()),
                    &RequestCtx::generate(),
                );
                if proto::write_frame(&mut writer, &reply).is_err() {
                    break;
                }
            }
            Err(error) => {
                // Idle connections are dropped silently; framing violations
                // get a best-effort error frame. Either way this connection
                // is done — and only this connection.
                if is_idle_timeout(&error) {
                    telemetry.add(Metric::IdleTimeouts, Transport::Framed as usize, 1);
                } else {
                    if matches!(error, ProtoError::FrameTooLarge { .. }) {
                        telemetry.add(Metric::OversizeRejects, Transport::Framed as usize, 1);
                    }
                    let reply = proto::attach_trace(
                        proto::error_reply(error.code(), &error.to_string()),
                        &RequestCtx::generate(),
                    );
                    let _ = proto::write_frame(&mut writer, &reply);
                }
                break;
            }
        }
    }
}

/// Serves one frame: read, decode, dispatch, reply. The returned action is
/// authoritative even when the reply could not be written — a `shutdown`
/// whose acknowledgement hits a dead client must still stop the daemon.
///
/// The frame header's version tag picks the dialect — `pcp1` frames carry
/// the legacy per-verb messages, `pcp2` frames the [`crate::v2`] envelope —
/// and the reply is framed with the same tag, so one connection can
/// interleave both dialects.
fn serve_frame<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    engine: &QueryEngine,
    faults: &Faults,
    request_budget: u64,
    served: &mut u64,
) -> Result<proto::Action, ProtoError> {
    let (version, body) = proto::read_frame_raw(reader)?;
    if let Some(stall) = faults.frame_stall() {
        std::thread::sleep(stall);
    }
    if faults.should_panic() {
        panic!("injected fault: framed handler panic");
    }
    let decoded = Json::parse(&body).map_err(ProtoError::BadJson);
    // Per-connection budget and fault-forced sheds: a typed, recoverable
    // `overloaded` reply in the frame's own dialect, before dispatch. A
    // spent budget additionally closes the connection (silently, after the
    // reply — the client saw a recoverable error and can reconnect).
    let budget_spent = request_budget != 0 && *served >= request_budget;
    if budget_spent || faults.should_overload() {
        engine.telemetry().add(Metric::RejectedOverload, 0, 1);
        let ctx = match decoded.as_ref().ok().and_then(proto::request_trace) {
            Some(trace) => RequestCtx::with_trace(trace),
            None => RequestCtx::generate(),
        };
        proto::write_frame_v(writer, &proto::shed_reply(version, &ctx), version)?;
        if budget_spent {
            return Err(ProtoError::Closed);
        }
        return Ok(proto::Action::Continue);
    }
    *served += 1;
    if version == v2::API_VERSION {
        return serve_v2_frame(writer, engine, decoded);
    }
    let payload = decoded?;
    // The raw frame's trace_id is read *before* decoding, so even a frame
    // that fails to decode gets its error reply correlated; the optional
    // deadline_ms field bounds the job from this point on.
    let ctx = match proto::request_trace(&payload) {
        Some(trace) => RequestCtx::with_trace(trace),
        None => RequestCtx::generate(),
    }
    .with_deadline_ms(proto::request_deadline_ms(&payload));
    let request = match Request::from_json(&payload) {
        Ok(request) => request,
        Err(error) if error.is_recoverable() => {
            let reply =
                proto::attach_trace(proto::error_reply(error.code(), &error.to_string()), &ctx);
            proto::write_frame(writer, &reply)?;
            return Ok(proto::Action::Continue);
        }
        Err(error) => return Err(error),
    };
    let (reply, action) = proto::dispatch_ctx(engine, &request, &ctx);
    let written = match proto::write_frame(writer, &reply) {
        // An oversized reply was refused before any bytes were written:
        // the stream is still in sync, so tell the client what happened
        // instead of dying.
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            let reply =
                proto::attach_trace(proto::error_reply("frame_too_large", &e.to_string()), &ctx);
            proto::write_frame(writer, &reply)
        }
        other => other,
    };
    if action == proto::Action::Shutdown {
        return Ok(action);
    }
    written?;
    Ok(action)
}

/// The `pcp2` half of [`serve_frame`]: same recoverable-vs-fatal contract,
/// but replies — protocol errors included — are v2 envelopes in `pcp2`
/// frames.
fn serve_v2_frame<W: Write>(
    writer: &mut W,
    engine: &QueryEngine,
    decoded: Result<Json, ProtoError>,
) -> Result<proto::Action, ProtoError> {
    let payload = match decoded {
        Ok(payload) => payload,
        Err(error) if error.is_recoverable() => {
            // The frame was consumed cleanly but its payload never parsed:
            // report in-dialect and keep serving.
            let reply = v2::protocol_error_envelope(
                error.code(),
                &error.to_string(),
                &RequestCtx::generate(),
            );
            proto::write_frame_v(writer, &reply, v2::API_VERSION)?;
            return Ok(proto::Action::Continue);
        }
        Err(error) => return Err(error),
    };
    let ctx = match proto::request_trace(&payload) {
        Some(trace) => RequestCtx::with_trace(trace),
        None => RequestCtx::generate(),
    }
    .with_deadline_ms(proto::request_deadline_ms(&payload));
    let (reply, action) = v2::dispatch_envelope(engine, &payload, &ctx);
    let written = match proto::write_frame_v(writer, &reply, v2::API_VERSION) {
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            let reply = v2::protocol_error_envelope("frame_too_large", &e.to_string(), &ctx);
            proto::write_frame_v(writer, &reply, v2::API_VERSION)
        }
        other => other,
    };
    if action == proto::Action::Shutdown {
        return Ok(action);
    }
    written?;
    Ok(action)
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
        proto::write_frame(&mut writer, &Request::Stats.to_json()).expect("send stats");
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
