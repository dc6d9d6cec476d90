//! # pcservice — the batched path-cover query engine
//!
//! The algorithm crates of this workspace answer one question about one
//! cotree at a time. This crate is the serving layer above them: it takes
//! jobs from raw input all the way to verified answers, in batches, with
//! caching — the shape a production deployment of the Nakano–Olariu–Zomaya
//! pipeline needs.
//!
//! The flow is **ingest → recognize → cache → solve → verify**:
//!
//! 1. [`ingest`] parses edge-list text, DIMACS text or cotree term notation
//!    (`(u (j a b) c)`) into a graph or cotree, with typed errors
//!    ([`IngestError`]) locating the defect.
//! 2. Graphs are run through the linear-time incremental recogniser
//!    ([`cograph::try_recognize`]); non-cographs fail their job with
//!    [`ServiceError::NotACograph`], which carries the induced-`P_4`
//!    certificate into the wire error body of both transports.
//! 3. The sharded [`cache`] keys cotrees by a canonical-form hash
//!    (child-order invariant) and remembers graph fingerprints with
//!    per-shard LRU eviction, so a repeated graph skips recognition
//!    entirely and equal cotrees share memoised answers.
//! 4. [`engine::QueryEngine`] answers the five [`QueryKind`]s —
//!    `MinCoverSize`, `FullCover`, `HamiltonianPath`, `HamiltonianCycle`,
//!    `Recognize` — one request at a time or fanned across a std-thread pool
//!    with per-job isolation (typed errors *and* panic containment).
//! 5. Covers and Hamiltonian witnesses come from the sequential solver
//!    ([`pathcover::sequential_path_cover`]), and every one is re-checked
//!    before the response leaves the engine: with
//!    [`pcgraph::verify_path_cover`] against an ingested graph, or with
//!    [`cograph::Cotree::verify_cover`] on the cotree, never materialising
//!    its edges; its path count must equal the memoised minimum.
//!
//! Above the engine sits the serving stack: [`v2`] defines the versioned
//! request envelope (`{op, target, params, trace_id}`) and the single
//! dispatcher every operation runs through; [`proto`] defines a
//! length-framed JSON wire format over any byte stream, carrying raw
//! `pcp2` envelope frames and the legacy v1 verbs (one row each of the
//! verb table [`proto::VERBS`]: frame tag, `/v1` route and reply shape,
//! each a thin shim over the v2 dispatcher), plus the one request edge,
//! [`proto::serve`], that every transport hands its requests to; [`http`]
//! serves them on HTTP/1.1 routes (each verb's `/v1` route, `GET /healthz`,
//! and `POST /v2/query` for the envelope); [`client`] is the one client of
//! both; and [`daemon`] runs a long-lived shared engine behind a unix
//! domain socket, a TCP socket, or both at once, so the cotree cache
//! amortises across client processes and transports. One connection loop
//! in [`daemon`] serves both transports, over a per-transport wire that
//! only reads requests and writes answers; the budgets, sheds, reply cap,
//! timeouts and shutdown are the loop's, written once. [`session`] adds
//! daemon-resident graph handles on top: mutate a resident graph
//! edge-by-edge and query its incrementally-maintained cotree (insertions
//! never re-run full recognition; an illegal one is refused with its
//! induced-`P_4` witness and the session keeps its last good state).
//! [`snapshot`] makes the cache survive the process itself: a checksummed
//! on-disk format (`pcsnap2`) holding each resident cotree, its graph-link
//! flags and the LRU order, saved on shutdown and on a background
//! checkpoint interval and reloaded when the daemon starts, so restarts
//! begin warm. Keys, fingerprints and answers are recomputed from the
//! cotrees, never read from disk; a file that fails its checks is
//! quarantined.
//!
//! The `pathcover-cli` binary in this crate exposes the engine on the
//! command line (`solve`, `batch`, `recognize`, plus a `session`
//! noun that drives the v2 envelope) reading files or stdin and emitting
//! human-readable text or JSON lines; `serve` starts the daemon
//! (`--socket` and/or `--http`) and `--remote <socket>` /
//! `--remote-http <addr>` turn the query subcommands into thin clients of
//! one.
//!
//! ```
//! use pcservice::{EngineConfig, GraphSpec, QueryEngine, QueryKind, QueryRequest};
//!
//! let engine = QueryEngine::new(EngineConfig::default());
//! let request = QueryRequest::new(
//!     QueryKind::MinCoverSize,
//!     GraphSpec::CotreeTerm("(u (j a b) c)".to_string()),
//! );
//! let response = engine.execute(&request);
//! assert!(response.outcome.is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
#[cfg(unix)]
pub mod daemon;
pub mod engine;
pub mod error;
pub mod faults;
pub mod http;
pub mod ingest;
pub mod json;
pub mod log;
pub mod model;
pub mod proto;
pub mod session;
pub mod snapshot;
pub mod telemetry;
pub mod trace;
pub mod v2;

pub use cache::{
    canonical_eq, canonical_key, graph_fingerprint, CacheStats, CotreeCache, ShardStats,
    SolveEntry, DEFAULT_SHARDS,
};
#[cfg(unix)]
pub use daemon::{Daemon, DaemonConfig, ShutdownSignal};
pub use engine::{EngineConfig, InflightGuard, QueryEngine, SnapshotMeta, DEFAULT_RETRY_AFTER_MS};
pub use error::ServiceError;
pub use faults::{FaultSpec, Faults};
pub use http::HttpError;
pub use ingest::{cotree_to_term, GraphFormat, IngestError, Ingested};
pub use json::{Json, JsonError, JsonErrorKind};
pub use model::{
    Answer, CacheStatus, GraphSpec, QueryKind, QueryRequest, QueryResponse, ResponseMeta,
};
pub use proto::{ProtoError, MAX_FRAME_LEN, PROTO_VERSION};
pub use session::{Maintenance, SessionInfo, SessionRegistry, SessionState};
pub use snapshot::{LoadOutcome, SnapshotError, SNAPSHOT_VERSION};
pub use telemetry::{
    Histogram, HistogramSnapshot, Metric, MetricsReport, Outcome, RequestCtx, Stage, Telemetry,
    Timeline, Transport,
};
pub use trace::{FinishedTrace, FlightRecorder, Span, SpanCollector, TraceConfig};
pub use v2::API_VERSION;
