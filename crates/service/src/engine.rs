//! The query engine: ingest → recognize → cache → solve → verify.
//!
//! [`QueryEngine::execute`] serves one request; [`QueryEngine::execute_batch`]
//! fans a slice of requests across a configurable pool of std threads. Jobs
//! are isolated two ways:
//!
//! * every error is typed ([`ServiceError`]) and confined to the job's
//!   response — a malformed input fails that job, never the batch;
//! * the solver runs under `catch_unwind`, so even a panic inside the
//!   algorithm stack is converted into [`ServiceError::JobPanicked`] for
//!   that job alone.
//!
//! Covers and Hamiltonian witnesses come from the sequential Lemma 2.3
//! solver ([`pathcover::sequential_path_cover`]); the paper's parallel
//! pipeline stays in `pathcover` as the reproduction and the test oracle.
//! Every `FullCover` answer (and every Hamiltonian witness path) is checked
//! before it is returned: against the request's graph when it arrived as a
//! graph, otherwise on the cotree itself ([`cograph::Cotree::verify_cover`],
//! which never materialises the edge set), and its path count against the
//! memoised minimum. A failure is reported as
//! [`ServiceError::CoverVerificationFailed`] rather than silently passed on.

use crate::cache::{graph_fingerprint, CacheStats, CotreeCache, SolveEntry};
use crate::error::ServiceError;
use crate::ingest::{self, GraphFormat, Ingested};
use crate::json::Json;
use crate::model::{
    Answer, CacheStatus, GraphSpec, QueryKind, QueryRequest, QueryResponse, ResponseMeta,
};
use crate::snapshot::{self, LoadOutcome, SaveReport, SnapshotError};
use crate::telemetry::{MetricsReport, Outcome, PipelineClock, RequestCtx, Stage, Telemetry};
use crate::trace::{FlightRecorder, Span, TraceConfig};
use cograph::{try_recognize, Cotree};
use pathcover::sequential_path_cover;
use pcgraph::{verify_path_cover, Graph, PathCover};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads for [`QueryEngine::execute_batch`]; `0` means one per
    /// available CPU.
    pub threads: usize,
    /// Verify every returned cover / witness path against the graph.
    pub verify_covers: bool,
    /// Consult and fill the cotree cache.
    pub use_cache: bool,
    /// Maximum number of cotrees kept resident (split across the shards).
    pub cache_capacity: usize,
    /// Cotree cache shard count (rounded up to a power of two); `0` means
    /// [`crate::cache::DEFAULT_SHARDS`].
    pub cache_shards: usize,
    /// Record per-stage/request telemetry (see [`crate::telemetry`]);
    /// `false` installs a no-op recorder with zero timing calls.
    pub telemetry: bool,
    /// Emit a structured log line for requests slower than this many
    /// microseconds (`serve --slow-ms`); `None` logs only internal
    /// failures.
    pub slow_log_micros: Option<u64>,
    /// Ignored: every cover comes from the sequential solver. Kept, at `0`,
    /// because the benchmark's traced replay (`perfbench`) still reads it.
    pub parallel_min_vertices: usize,
    /// Admission cap on live daemon-resident session handles; creating a
    /// session past the cap fails with [`ServiceError::TooManySessions`].
    pub max_sessions: usize,
    /// Idle time after which an untouched session handle becomes eligible
    /// for the garbage sweep (run opportunistically on registry traffic).
    pub session_idle_ttl: std::time::Duration,
    /// Admission cap on concurrently executing work requests (solves,
    /// batches, session ops); `0` means unlimited. Past the cap,
    /// [`QueryEngine::try_admit`] fails with [`ServiceError::Overloaded`]
    /// instead of queueing, so overload turns into fast typed rejections
    /// rather than pile-up.
    pub max_inflight: usize,
    /// Flight-recorder configuration: per-request span capture and the
    /// tail-sampled trace ring served by `GET /v1/trace` and the `trace`
    /// verb (see [`crate::trace`]). [`TraceConfig::off`] removes every
    /// trace timestamp from the request hot path.
    pub trace: TraceConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            verify_covers: true,
            use_cache: true,
            cache_capacity: 1024,
            cache_shards: 0,
            telemetry: true,
            slow_log_micros: None,
            parallel_min_vertices: 0,
            max_sessions: 256,
            session_idle_ttl: std::time::Duration::from_secs(600),
            max_inflight: 0,
            trace: TraceConfig::default(),
        }
    }
}

impl EngineConfig {
    /// The batch worker count [`EngineConfig::threads`] resolves to: one
    /// per available CPU when it is `0`.
    pub fn resolved_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            t => t,
        }
    }
}

/// Backoff hint carried in [`ServiceError::Overloaded`] rejections issued
/// by the admission gate and per-connection budgets.
pub const DEFAULT_RETRY_AFTER_MS: u64 = 100;

/// A graph resolved to its cotree, ready to solve. Built by the resolve
/// path here and by [`crate::session`] from a resident session cotree.
pub(crate) struct Resolved {
    pub(crate) entry: Arc<SolveEntry>,
    /// The graph as ingested, which covers are verified against; absent
    /// when the request arrived as a cotree (covers are then verified on
    /// the cotree).
    pub(crate) graph: Option<Arc<Graph>>,
    pub(crate) cache: CacheStatus,
}

/// The batch's shared graph, parsed once; every job using it still performs
/// its own cache lookup so cache hits stay observable per response.
enum SharedPrep {
    Graph(Arc<Graph>),
    Cotree(Arc<cograph::Cotree>),
}

/// Snapshot persistence state of an engine, surfaced through the `stats`
/// frame and `GET /v1/stats` (see [`crate::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// The snapshot file the engine saves to and was loaded from.
    pub path: PathBuf,
    /// Entries imported at startup (0 after a cold start).
    pub loaded_entries: usize,
    /// Unix time of the most recent successful save, `None` before the
    /// first checkpoint of this process.
    pub last_checkpoint_unix: Option<u64>,
}

/// The batched query engine.
pub struct QueryEngine {
    config: EngineConfig,
    cache: CotreeCache,
    started: Instant,
    snapshot: Mutex<Option<SnapshotMeta>>,
    telemetry: Telemetry,
    /// Daemon-resident session handles (see [`crate::session`]).
    pub(crate) sessions: crate::session::SessionRegistry,
    /// Work requests currently admitted (the admission-gate counter; the
    /// telemetry gauge mirrors it for export).
    inflight: AtomicUsize,
    /// The bounded, tail-sampled ring of finished request traces (see
    /// [`crate::trace`]); shared with the transports for export.
    recorder: FlightRecorder,
}

/// RAII permit for one admitted work request, handed out by
/// [`QueryEngine::try_admit`]. Dropping it releases the admission slot and
/// decrements the in-flight gauge, so a permit can never leak across a
/// panic or early return.
pub struct InflightGuard<'e> {
    engine: &'e QueryEngine,
}

impl std::fmt::Debug for InflightGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("InflightGuard")
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.engine.inflight.fetch_sub(1, Ordering::Release);
        self.engine.telemetry.inflight_finished();
    }
}

impl Default for QueryEngine {
    fn default() -> Self {
        QueryEngine::new(EngineConfig::default())
    }
}

impl QueryEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        let shards = if config.cache_shards == 0 {
            crate::cache::DEFAULT_SHARDS
        } else {
            config.cache_shards
        };
        let cache = CotreeCache::with_shards(config.cache_capacity, shards);
        let telemetry = Telemetry::new(config.telemetry, config.slow_log_micros);
        let recorder = FlightRecorder::new(config.trace.clone());
        QueryEngine {
            config,
            cache,
            started: Instant::now(),
            snapshot: Mutex::new(None),
            telemetry,
            sessions: crate::session::SessionRegistry::new(),
            inflight: AtomicUsize::new(0),
            recorder,
        }
    }

    /// Tries to admit one work request under the `max_inflight` cap. On
    /// success the returned guard holds the slot until dropped; past the
    /// cap the request is shed with [`ServiceError::Overloaded`] carrying
    /// the [`DEFAULT_RETRY_AFTER_MS`] backoff hint. A cap of `0` admits
    /// everything (but still maintains the in-flight gauge).
    pub fn try_admit(&self) -> Result<InflightGuard<'_>, ServiceError> {
        let max = self.config.max_inflight;
        let mut current = self.inflight.load(Ordering::Relaxed);
        loop {
            if max != 0 && current >= max {
                self.telemetry.overload_rejected();
                return Err(ServiceError::Overloaded {
                    retry_after_ms: DEFAULT_RETRY_AFTER_MS,
                });
            }
            match self.inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.telemetry.inflight_started();
                    return Ok(InflightGuard { engine: self });
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// The engine's telemetry registry (shared with the daemon's accept
    /// loops and transports).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The engine's flight recorder (the trace store served by
    /// `GET /v1/trace`, the `trace` verb and the v2 `trace_*` ops).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Returns `ctx` with a span collector attached when the flight
    /// recorder is on and the context has none yet; otherwise a plain
    /// clone. Transports call this once at dispatch so pre-engine work
    /// (admission, session-lock waits) lands in the same trace as the
    /// pipeline stages.
    pub fn traced_ctx(&self, ctx: &RequestCtx) -> RequestCtx {
        if ctx.collector.is_some() || !self.recorder.enabled() {
            ctx.clone()
        } else {
            ctx.clone().with_collector(self.recorder.begin())
        }
    }

    /// A point-in-time copy of every metric: the telemetry registry plus
    /// the cache counters and uptime the engine owns.
    pub fn metrics_report(&self) -> MetricsReport {
        self.telemetry.report(
            self.cache_stats(),
            self.cache_shard_stats(),
            self.uptime_secs(),
        )
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Seconds since this engine was constructed (the daemon's uptime).
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Attaches snapshot persistence: loads `path` into the cache if it
    /// exists (quarantining it to `<path>.corrupt` on any verification
    /// failure — see [`crate::snapshot::load_or_quarantine`]) and remembers
    /// the path for [`QueryEngine::save_snapshot`].
    pub fn attach_snapshot(&self, path: impl Into<PathBuf>) -> LoadOutcome {
        let path = path.into();
        let outcome = snapshot::load_or_quarantine(&self.cache, &path);
        let loaded_entries = match &outcome {
            LoadOutcome::Warm(report) => report.entries,
            LoadOutcome::ColdStart
            | LoadOutcome::Unreadable(_)
            | LoadOutcome::Quarantined { .. } => 0,
        };
        *self.snapshot.lock().expect("snapshot state") = Some(SnapshotMeta {
            path,
            loaded_entries,
            last_checkpoint_unix: None,
        });
        outcome
    }

    /// Saves the cache to the attached snapshot path (atomic tmp + rename)
    /// and records the checkpoint time. Fails with
    /// [`SnapshotError::NotConfigured`] when no snapshot is attached.
    pub fn save_snapshot(&self) -> Result<SaveReport, SnapshotError> {
        let path = self
            .snapshot
            .lock()
            .expect("snapshot state")
            .as_ref()
            .map(|meta| meta.path.clone())
            .ok_or(SnapshotError::NotConfigured)?;
        let report = match snapshot::save(&self.cache, &path) {
            Ok(report) => {
                self.telemetry.checkpoint_saved(report.elapsed_micros);
                report
            }
            Err(error) => {
                self.telemetry.checkpoint_failed();
                return Err(error);
            }
        };
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_secs();
        if let Some(meta) = self.snapshot.lock().expect("snapshot state").as_mut() {
            meta.last_checkpoint_unix = Some(now);
        }
        Ok(report)
    }

    /// The snapshot persistence state, when attached.
    pub fn snapshot_meta(&self) -> Option<SnapshotMeta> {
        self.snapshot.lock().expect("snapshot state").clone()
    }

    /// Aggregated snapshot of the cotree cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Per-shard snapshot of the cotree cache counters.
    pub fn cache_shard_stats(&self) -> Vec<crate::cache::ShardStats> {
        self.cache.shard_stats()
    }

    /// Serves one request (requests using [`GraphSpec::Shared`] fail with
    /// [`ServiceError::SharedGraphMissing`]; use a batch for those). A
    /// trace ID is synthesized; transports supply their own via
    /// [`QueryEngine::execute_ctx`].
    pub fn execute(&self, request: &QueryRequest) -> QueryResponse {
        self.execute_ctx(request, &RequestCtx::generate())
    }

    /// Serves one request under a caller-supplied [`RequestCtx`]; the
    /// context's trace ID is echoed in the response metadata and any slow
    /// log line.
    pub fn execute_ctx(&self, request: &QueryRequest, ctx: &RequestCtx) -> QueryResponse {
        self.guarded_execute(request, None, ctx)
    }

    /// Serves a batch: resolves the optional shared graph once, then fans
    /// the requests across the configured thread pool. The response order
    /// matches the request order.
    pub fn execute_batch(
        &self,
        shared: Option<&GraphSpec>,
        requests: &[QueryRequest],
    ) -> Vec<QueryResponse> {
        self.execute_batch_ctx(shared, requests, &RequestCtx::generate())
    }

    /// [`QueryEngine::execute_batch`] under a caller-supplied
    /// [`RequestCtx`]: every job in the batch shares the one trace ID.
    pub fn execute_batch_ctx(
        &self,
        shared: Option<&GraphSpec>,
        requests: &[QueryRequest],
        ctx: &RequestCtx,
    ) -> Vec<QueryResponse> {
        let shared_resolved = shared.map(|spec| self.prepare_shared(spec));
        let threads = self.effective_threads(requests.len());
        if threads <= 1 {
            return requests
                .iter()
                .map(|r| self.guarded_execute(r, shared_resolved.as_ref(), ctx))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<QueryResponse>> =
            requests.iter().map(|_| OnceLock::new()).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= requests.len() {
                        break;
                    }
                    let response =
                        self.guarded_execute(&requests[i], shared_resolved.as_ref(), ctx);
                    slots[i].set(response).expect("each slot is written once");
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("slot filled"))
            .collect()
    }

    fn effective_threads(&self, jobs: usize) -> usize {
        self.config.resolved_threads().min(jobs.max(1))
    }

    /// Runs one job with panic containment.
    fn guarded_execute(
        &self,
        request: &QueryRequest,
        shared: Option<&Result<SharedPrep, ServiceError>>,
        ctx: &RequestCtx,
    ) -> QueryResponse {
        // Attach a span collector here (not in the transports) so direct
        // library callers and every batch job get traced too. A context
        // that already carries one — dispatched by a transport, so the
        // trace includes admission and lock waits — is kept as-is.
        let traced;
        let ctx = if ctx.collector.is_none() && self.recorder.enabled() {
            traced = self.traced_ctx(ctx);
            &traced
        } else {
            ctx
        };
        let started = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| {
            self.execute_inner(request, shared, ctx)
        })) {
            Ok(response) => response,
            Err(payload) => {
                let total_micros = started.elapsed().as_micros() as u64;
                let response = QueryResponse {
                    id: request.id.clone(),
                    kind: request.kind,
                    outcome: Err(ServiceError::JobPanicked(panic_message(payload))),
                    meta: ResponseMeta {
                        solve_micros: 0,
                        total_micros,
                        cache: CacheStatus::Bypass,
                        canonical_key: None,
                        vertices: 0,
                        trace_id: Some(ctx.trace_id.clone()),
                    },
                };
                self.finish_request(&response, ctx);
                response
            }
        }
    }

    fn execute_inner(
        &self,
        request: &QueryRequest,
        shared: Option<&Result<SharedPrep, ServiceError>>,
        ctx: &RequestCtx,
    ) -> QueryResponse {
        let started = Instant::now();
        let mut clock = self.telemetry.pipeline_clock_ctx(ctx);
        // Deadlines are checked cooperatively at stage boundaries: before
        // ingest/recognition and again before the solve, so an
        // already-expired request never starts the expensive work.
        let resolved = if ctx.deadline_expired() {
            Err(ServiceError::DeadlineExceeded)
        } else {
            self.resolve_request(&request.graph, shared, &mut clock)
        };
        let (outcome, meta) = match resolved {
            Err(error) => (
                Err(error),
                ResponseMeta {
                    solve_micros: 0,
                    total_micros: 0,
                    cache: CacheStatus::Bypass,
                    canonical_key: None,
                    vertices: 0,
                    trace_id: Some(ctx.trace_id.clone()),
                },
            ),
            Ok(resolved) => {
                let (outcome, solve_micros) = if ctx.deadline_expired() {
                    (Err(ServiceError::DeadlineExceeded), 0)
                } else {
                    self.solve(request.kind, &resolved, &mut clock)
                };
                (
                    outcome,
                    ResponseMeta {
                        solve_micros,
                        total_micros: 0,
                        cache: resolved.cache,
                        canonical_key: Some(resolved.entry.key),
                        vertices: resolved.entry.cotree.num_vertices(),
                        trace_id: Some(ctx.trace_id.clone()),
                    },
                )
            }
        };
        let mut meta = meta;
        meta.total_micros = started.elapsed().as_micros() as u64;
        let response = QueryResponse {
            id: request.id.clone(),
            kind: request.kind,
            outcome,
            meta,
        };
        self.finish_request(&response, ctx);
        response
    }

    /// Books a completed request into the registry and emits the
    /// structured slow-request/error log line when warranted.
    pub(crate) fn finish_request(&self, response: &QueryResponse, ctx: &RequestCtx) {
        let outcome = match &response.outcome {
            Ok(_) => Outcome::Ok,
            Err(error) => Outcome::from_error_code(error.code()),
        };
        if matches!(response.outcome, Err(ServiceError::DeadlineExceeded)) {
            self.telemetry.deadline_exceeded();
        }
        let total = response.meta.total_micros;
        self.telemetry.record_request(response.kind, outcome, total);
        if self.telemetry.should_log(outcome, total) {
            crate::log::log(
                crate::log::Level::Warn,
                "slow_request",
                Some(&ctx.trace_id),
                &[
                    ("kind", Json::str(response.kind.as_str())),
                    ("outcome", Json::str(outcome.as_str())),
                    ("total_us", Json::num(total)),
                    ("cache", Json::str(response.meta.cache.as_str())),
                    ("vertices", Json::num(response.meta.vertices as u64)),
                ],
            );
        }
        if let Some(collector) = &ctx.collector {
            let outcome_code = match &response.outcome {
                Ok(_) => "ok",
                Err(error) => error.code(),
            };
            // Errored, shed and deadline-exceeded requests are exactly the
            // traces an operator goes looking for — tail sampling must
            // never drop them.
            let protected = matches!(
                response.outcome,
                Err(ServiceError::DeadlineExceeded) | Err(ServiceError::Overloaded { .. })
            ) || matches!(outcome, Outcome::Internal);
            self.recorder.commit(
                &ctx.trace_id,
                response.kind.as_str(),
                outcome_code,
                total,
                protected,
                collector.take(),
            );
        }
    }

    fn resolve_request(
        &self,
        spec: &GraphSpec,
        shared: Option<&Result<SharedPrep, ServiceError>>,
        clock: &mut PipelineClock<'_>,
    ) -> Result<Resolved, ServiceError> {
        match spec {
            GraphSpec::Shared => match shared {
                Some(Ok(prep)) => self.resolve_prepared(prep, clock),
                Some(Err(error)) => Err(error.clone()),
                None => Err(ServiceError::SharedGraphMissing),
            },
            other => self.resolve_spec(other, clock),
        }
    }

    /// Parses the batch's shared graph once; jobs resolve it per query via
    /// [`QueryEngine::resolve_prepared`] so their cache metadata is real.
    /// The one-off parse is booked as an ingest segment of its own.
    fn prepare_shared(&self, spec: &GraphSpec) -> Result<SharedPrep, ServiceError> {
        let mut clock = self.telemetry.pipeline_clock();
        let prep = match spec {
            GraphSpec::Shared => return Err(ServiceError::SharedGraphMissing),
            GraphSpec::EdgeList(text) => ingested_prep(ingest::parse(text, GraphFormat::EdgeList)?),
            GraphSpec::Dimacs(text) => ingested_prep(ingest::parse(text, GraphFormat::Dimacs)?),
            GraphSpec::CotreeTerm(text) => {
                ingested_prep(ingest::parse(text, GraphFormat::CotreeTerm)?)
            }
            GraphSpec::Graph(g) => SharedPrep::Graph(Arc::new(g.clone())),
            GraphSpec::Cotree(t) => SharedPrep::Cotree(Arc::new(t.clone())),
        };
        clock.mark(Stage::Ingest);
        Ok(prep)
    }

    fn resolve_prepared(
        &self,
        prep: &SharedPrep,
        clock: &mut PipelineClock<'_>,
    ) -> Result<Resolved, ServiceError> {
        match prep {
            SharedPrep::Graph(g) => self.resolve_graph(g.clone(), clock),
            SharedPrep::Cotree(t) => self.resolve_cotree(t, clock),
        }
    }

    fn resolve_spec(
        &self,
        spec: &GraphSpec,
        clock: &mut PipelineClock<'_>,
    ) -> Result<Resolved, ServiceError> {
        let ingested = match spec {
            GraphSpec::Shared => return Err(ServiceError::SharedGraphMissing),
            GraphSpec::EdgeList(text) => ingest::parse(text, GraphFormat::EdgeList)?,
            GraphSpec::Dimacs(text) => ingest::parse(text, GraphFormat::Dimacs)?,
            GraphSpec::CotreeTerm(text) => ingest::parse(text, GraphFormat::CotreeTerm)?,
            GraphSpec::Graph(g) => return self.resolve_graph(Arc::new(g.clone()), clock),
            GraphSpec::Cotree(t) => return self.resolve_cotree(t, clock),
        };
        clock.mark(Stage::Ingest);
        match ingested {
            Ingested::Graph(g) => self.resolve_graph(Arc::new(g), clock),
            Ingested::Cotree(t) => self.resolve_cotree(&t, clock),
        }
    }

    fn resolve_graph(
        &self,
        graph: Arc<Graph>,
        clock: &mut PipelineClock<'_>,
    ) -> Result<Resolved, ServiceError> {
        if graph.num_vertices() == 0 {
            return Err(ServiceError::EmptyGraph);
        }
        if !self.config.use_cache {
            let cotree = recognize_certified(&graph);
            clock.mark(Stage::Recognize);
            let cotree = cotree?;
            return Ok(Resolved {
                entry: Arc::new(SolveEntry::new(cotree)),
                graph: Some(graph),
                cache: CacheStatus::Bypass,
            });
        }
        let fingerprint = graph_fingerprint(&graph);
        let lookup_started = clock.collector().map(|c| c.elapsed_us());
        if let Some(entry) = self.cache.lookup_graph(fingerprint, &graph) {
            self.cache_lookup_span(clock, lookup_started, fingerprint, "hit");
            clock.mark(Stage::CacheLookup);
            return Ok(Resolved {
                entry,
                graph: Some(graph),
                cache: CacheStatus::Hit,
            });
        }
        self.cache_lookup_span(clock, lookup_started, fingerprint, "miss");
        clock.mark(Stage::CacheLookup);
        let cotree = recognize_certified(&graph);
        clock.mark(Stage::Recognize);
        let cotree = cotree?;
        let entry = self
            .cache
            .insert(Some((fingerprint, graph.clone())), cotree);
        clock.mark(Stage::CacheLookup);
        Ok(Resolved {
            entry,
            graph: Some(graph),
            cache: CacheStatus::Miss,
        })
    }

    fn resolve_cotree(
        &self,
        cotree: &cograph::Cotree,
        clock: &mut PipelineClock<'_>,
    ) -> Result<Resolved, ServiceError> {
        if !self.config.use_cache {
            return Ok(Resolved {
                entry: Arc::new(SolveEntry::new(cotree.clone())),
                graph: None,
                cache: CacheStatus::Bypass,
            });
        }
        let key = crate::cache::canonical_key(cotree);
        let lookup_started = clock.collector().map(|c| c.elapsed_us());
        if let Some(entry) = self.cache.lookup_key(key, cotree) {
            self.cache_lookup_span(clock, lookup_started, key, "hit");
            clock.mark(Stage::CacheLookup);
            return Ok(Resolved {
                entry,
                graph: None,
                cache: CacheStatus::Hit,
            });
        }
        self.cache_lookup_span(clock, lookup_started, key, "miss");
        let entry = self.cache.insert(None, cotree.clone());
        clock.mark(Stage::CacheLookup);
        Ok(Resolved {
            entry,
            graph: None,
            cache: CacheStatus::Miss,
        })
    }

    /// Answers `kind` on a resolved graph, verifying any cover or witness
    /// before it is returned. Also returns the microseconds spent solving,
    /// verification excluded (the response's `solve_micros`).
    pub(crate) fn solve(
        &self,
        kind: QueryKind,
        resolved: &Resolved,
        clock: &mut PipelineClock<'_>,
    ) -> (Result<Answer, ServiceError>, u64) {
        let started = Instant::now();
        let entry = &resolved.entry;
        let answer = match kind {
            QueryKind::MinCoverSize => Answer::MinCoverSize {
                size: entry.min_cover_size(),
            },
            QueryKind::HamiltonianCycle => Answer::HamiltonianCycle {
                exists: entry.has_hamiltonian_cycle(),
            },
            QueryKind::Recognize => Answer::Recognized {
                is_cograph: true,
                vertices: entry.cotree.num_vertices(),
                edges: match &resolved.graph {
                    Some(graph) => graph.num_edges(),
                    None => entry.cotree.num_edges(),
                },
                cotree_nodes: entry.cotree.num_nodes(),
                height: entry.cotree.height(),
                term: ingest::cotree_to_term(&entry.cotree),
            },
            QueryKind::FullCover => {
                let cover = sequential_path_cover(&entry.cotree);
                let solve_micros = end_solve(started, clock);
                let outcome = self
                    .verify(resolved, &cover)
                    .map(|verified| Answer::FullCover { cover, verified });
                clock.mark(Stage::Verify);
                return (outcome, solve_micros);
            }
            QueryKind::HamiltonianPath if entry.has_hamiltonian_path() => {
                let witness = sequential_path_cover(&entry.cotree);
                let solve_micros = end_solve(started, clock);
                let outcome = self
                    .verify(resolved, &witness)
                    .map(|_| Answer::HamiltonianPath {
                        exists: true,
                        path: witness.into_paths().into_iter().next(),
                    });
                clock.mark(Stage::Verify);
                return (outcome, solve_micros);
            }
            QueryKind::HamiltonianPath => Answer::HamiltonianPath {
                exists: false,
                path: None,
            },
        };
        (Ok(answer), end_solve(started, clock))
    }

    /// Annotates the request trace with one `cache:lookup` span naming the
    /// shard the key hashed into and whether it hit. No-op when the
    /// request is untraced.
    fn cache_lookup_span(
        &self,
        clock: &PipelineClock<'_>,
        start_us: Option<u64>,
        hash: u64,
        result: &str,
    ) {
        if let (Some(collector), Some(start_us)) = (clock.collector(), start_us) {
            let end = collector.elapsed_us();
            collector.push(
                Span::new("cache:lookup", start_us, end.saturating_sub(start_us))
                    .with_detail("shard", self.cache.shard_index(hash).to_string())
                    .with_detail("result", result),
            );
        }
    }

    /// Checks a cover before it is returned: every vertex once, every
    /// consecutive pair an edge — of the ingested graph when there is one,
    /// else decided on the cotree — and as few paths as the memoised
    /// minimum. `Ok(false)` when verification is configured off.
    fn verify(&self, resolved: &Resolved, cover: &PathCover) -> Result<bool, ServiceError> {
        if !self.config.verify_covers {
            return Ok(false);
        }
        let report = match &resolved.graph {
            Some(graph) => verify_path_cover(graph, cover),
            None => resolved.entry.cotree.verify_cover(cover),
        };
        let minimum = resolved.entry.min_cover_size();
        if !report.is_valid() {
            Err(ServiceError::CoverVerificationFailed(format!(
                "missing={:?} duplicated={:?} non_edges={:?} out_of_range={:?}",
                report.missing, report.duplicated, report.non_edges, report.out_of_range
            )))
        } else if cover.len() != minimum {
            Err(ServiceError::CoverVerificationFailed(format!(
                "{} paths where the minimum is {minimum}",
                cover.len()
            )))
        } else {
            Ok(true)
        }
    }
}

/// Ends the solve segment: books it on the clock and returns its length in
/// microseconds.
fn end_solve(started: Instant, clock: &mut PipelineClock<'_>) -> u64 {
    let micros = started.elapsed().as_micros() as u64;
    clock.mark(Stage::Solve);
    micros
}

/// Runs the linear-time recogniser, lifting its typed rejection — including
/// the induced-`P_4` certificate — into the service taxonomy.
fn recognize_certified(graph: &Graph) -> Result<Cotree, ServiceError> {
    try_recognize(graph).map_err(|e| ServiceError::from_recognition(e, graph.num_vertices()))
}

fn ingested_prep(ingested: Ingested) -> SharedPrep {
    match ingested {
        Ingested::Graph(g) => SharedPrep::Graph(Arc::new(g)),
        Ingested::Cotree(t) => SharedPrep::Cotree(Arc::new(t)),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> QueryEngine {
        QueryEngine::default()
    }

    #[test]
    fn full_cover_on_edge_list_is_verified() {
        let e = engine();
        let req = QueryRequest::new(
            QueryKind::FullCover,
            GraphSpec::EdgeList("0 1\n1 2\n0 2\n3\n".to_string()),
        );
        let resp = e.execute(&req);
        match resp.outcome.expect("triangle plus isolate is a cograph") {
            Answer::FullCover { cover, verified } => {
                assert!(verified);
                assert_eq!(cover.len(), 2); // triangle path + isolated vertex
            }
            other => panic!("wrong answer variant: {other:?}"),
        }
        assert_eq!(resp.meta.cache, CacheStatus::Miss);
        assert_eq!(resp.meta.vertices, 4);
        assert!(resp.meta.canonical_key.is_some());
    }

    #[test]
    fn repeated_graph_hits_the_cache() {
        let e = engine();
        let spec = GraphSpec::EdgeList("0 1\n1 2\n0 2\n".to_string());
        let first = e.execute(&QueryRequest::new(QueryKind::MinCoverSize, spec.clone()));
        let second = e.execute(&QueryRequest::new(QueryKind::HamiltonianPath, spec));
        assert_eq!(first.meta.cache, CacheStatus::Miss);
        assert_eq!(second.meta.cache, CacheStatus::Hit);
        assert_eq!(first.meta.canonical_key, second.meta.canonical_key);
        let stats = e.cache_stats();
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn p4_is_reported_not_a_cograph_with_witness() {
        let e = engine();
        let req = QueryRequest::new(
            QueryKind::MinCoverSize,
            GraphSpec::EdgeList("0 1\n1 2\n2 3\n".to_string()),
        );
        let resp = e.execute(&req);
        let Err(ServiceError::NotACograph { vertices, witness }) = resp.outcome else {
            panic!("expected a certified rejection, got {:?}", resp.outcome);
        };
        assert_eq!(vertices, 4);
        // The witness is an induced P4 of the input path 0-1-2-3: it must
        // be that path, in one of the two directions.
        assert!(
            witness == [0, 1, 2, 3] || witness == [3, 2, 1, 0],
            "unexpected witness {witness:?}"
        );
    }

    #[test]
    fn bad_input_fails_only_its_own_job() {
        let e = engine();
        let requests = vec![
            QueryRequest::new(
                QueryKind::MinCoverSize,
                GraphSpec::EdgeList("0 x".to_string()),
            )
            .with_id("bad"),
            QueryRequest::new(
                QueryKind::MinCoverSize,
                GraphSpec::CotreeTerm("(j a b)".to_string()),
            )
            .with_id("good"),
        ];
        let responses = e.execute_batch(None, &requests);
        assert_eq!(responses.len(), 2);
        assert!(responses[0].outcome.is_err());
        assert_eq!(
            responses[1].outcome,
            Ok(Answer::MinCoverSize { size: 1 }),
            "the malformed job must not poison its neighbour"
        );
        assert_eq!(responses[0].id.as_deref(), Some("bad"));
        assert_eq!(responses[1].id.as_deref(), Some("good"));
    }

    #[test]
    fn shared_graph_requests_need_a_shared_graph() {
        let e = engine();
        let req = QueryRequest::new(QueryKind::Recognize, GraphSpec::Shared);
        assert_eq!(
            e.execute(&req).outcome,
            Err(ServiceError::SharedGraphMissing)
        );
        let shared = GraphSpec::EdgeList("0 1\n".to_string());
        let responses = e.execute_batch(Some(&shared), std::slice::from_ref(&req));
        match responses[0].outcome.as_ref().expect("edge is a cograph") {
            Answer::Recognized {
                is_cograph,
                vertices,
                edges,
                ..
            } => {
                assert!(is_cograph);
                assert_eq!(*vertices, 2);
                assert_eq!(*edges, 1);
            }
            other => panic!("wrong answer variant: {other:?}"),
        }
    }

    #[test]
    fn hamiltonian_answers_are_consistent() {
        let e = engine();
        // K4: Hamiltonian path and cycle both exist.
        let k4 = GraphSpec::CotreeTerm("(j a b c d)".to_string());
        let path = e.execute(&QueryRequest::new(QueryKind::HamiltonianPath, k4.clone()));
        match path.outcome.expect("K4 solves") {
            Answer::HamiltonianPath { exists, path } => {
                assert!(exists);
                assert_eq!(path.expect("witness").len(), 4);
            }
            other => panic!("wrong answer variant: {other:?}"),
        }
        let cycle = e.execute(&QueryRequest::new(QueryKind::HamiltonianCycle, k4));
        assert_eq!(cycle.outcome, Ok(Answer::HamiltonianCycle { exists: true }));
        // Two disjoint vertices: neither exists.
        let e2 = e.execute(&QueryRequest::new(
            QueryKind::HamiltonianPath,
            GraphSpec::CotreeTerm("(u a b)".to_string()),
        ));
        assert_eq!(
            e2.outcome,
            Ok(Answer::HamiltonianPath {
                exists: false,
                path: None
            })
        );
    }

    #[test]
    fn cache_bypass_is_reported() {
        let config = EngineConfig {
            use_cache: false,
            ..EngineConfig::default()
        };
        let e = QueryEngine::new(config);
        let spec = GraphSpec::EdgeList("0 1\n".to_string());
        let r1 = e.execute(&QueryRequest::new(QueryKind::MinCoverSize, spec.clone()));
        let r2 = e.execute(&QueryRequest::new(QueryKind::MinCoverSize, spec));
        assert_eq!(r1.meta.cache, CacheStatus::Bypass);
        assert_eq!(r2.meta.cache, CacheStatus::Bypass);
    }

    #[test]
    fn admission_gate_sheds_over_cap_and_releases_on_drop() {
        let e = QueryEngine::new(EngineConfig {
            max_inflight: 2,
            ..EngineConfig::default()
        });
        let g1 = e.try_admit().expect("first slot");
        let _g2 = e.try_admit().expect("second slot");
        let rejected = e.try_admit().expect_err("cap reached");
        assert_eq!(rejected.code(), "overloaded");
        assert_eq!(
            rejected,
            ServiceError::Overloaded {
                retry_after_ms: DEFAULT_RETRY_AFTER_MS
            }
        );
        drop(g1);
        let _g3 = e.try_admit().expect("slot freed by drop");
        let report = e.metrics_report();
        assert_eq!(report.rejected_overload, 1);
        assert_eq!(report.inflight, 2);
    }

    #[test]
    fn unlimited_gate_admits_everything_but_tracks_inflight() {
        let e = engine();
        let guards: Vec<_> = (0..64).map(|_| e.try_admit().expect("no cap")).collect();
        assert_eq!(e.metrics_report().inflight, 64);
        drop(guards);
        assert_eq!(e.metrics_report().inflight, 0);
        assert_eq!(e.metrics_report().rejected_overload, 0);
    }

    #[test]
    fn expired_deadline_short_circuits_the_pipeline() {
        let e = engine();
        let req = QueryRequest::new(
            QueryKind::FullCover,
            GraphSpec::EdgeList("0 1\n1 2\n0 2\n".to_string()),
        );
        let ctx = RequestCtx::generate().with_deadline_ms(Some(0));
        let resp = e.execute_ctx(&req, &ctx);
        assert_eq!(resp.outcome, Err(ServiceError::DeadlineExceeded));
        // The expired request never reached ingest: no cache traffic.
        assert_eq!(e.cache_stats().misses, 0);
        assert_eq!(e.metrics_report().deadline_exceeded, 1);
        // A generous deadline solves normally.
        let ctx = RequestCtx::generate().with_deadline_ms(Some(60_000));
        let resp = e.execute_ctx(&req, &ctx);
        assert!(resp.outcome.is_ok());
    }

    #[test]
    fn requests_leave_traces_with_stage_and_cache_spans() {
        let e = engine();
        let resp = e.execute(&QueryRequest::new(
            QueryKind::FullCover,
            GraphSpec::EdgeList("0 1\n1 2\n0 2\n".to_string()),
        ));
        assert!(resp.outcome.is_ok());
        let trace_id = resp.meta.trace_id.clone().expect("trace id echoed");
        let trace = e.recorder().get(&trace_id).expect("trace retained");
        assert_eq!(trace.outcome, "ok");
        assert_eq!(trace.kind, "full_cover");
        for name in [
            "stage:ingest",
            "stage:solve",
            "stage:verify",
            "cache:lookup",
        ] {
            assert!(
                trace.spans.iter().any(|s| s.name == name),
                "missing {name} span in {:?}",
                trace.spans
            );
        }
        let lookup = trace
            .spans
            .iter()
            .find(|s| s.name == "cache:lookup")
            .unwrap();
        assert!(lookup.detail.iter().any(|(k, _)| k == "shard"));
        assert!(lookup
            .detail
            .iter()
            .any(|(k, v)| k == "result" && v == "miss"));
    }

    #[test]
    fn failed_requests_commit_protected_traces() {
        let e = engine();
        let ctx = RequestCtx::generate().with_deadline_ms(Some(0));
        let resp = e.execute_ctx(
            &QueryRequest::new(
                QueryKind::MinCoverSize,
                GraphSpec::CotreeTerm("(j a b)".to_string()),
            ),
            &ctx,
        );
        assert_eq!(resp.outcome, Err(ServiceError::DeadlineExceeded));
        let trace = e.recorder().get(&ctx.trace_id).expect("trace retained");
        assert!(
            trace.protected,
            "deadline-exceeded traces must be protected"
        );
        assert_eq!(trace.outcome, "deadline_exceeded");
    }

    #[test]
    fn disabled_tracing_attaches_no_collector_and_retains_nothing() {
        let e = QueryEngine::new(EngineConfig {
            trace: TraceConfig::off(),
            ..EngineConfig::default()
        });
        let resp = e.execute(&QueryRequest::new(
            QueryKind::MinCoverSize,
            GraphSpec::CotreeTerm("(j a b)".to_string()),
        ));
        assert!(resp.outcome.is_ok());
        assert!(e.recorder().is_empty());
        assert!(!e.recorder().enabled());
    }

    #[test]
    fn verification_rejects_a_valid_cover_that_is_not_minimum() {
        let e = engine();
        let k3 = ingest::parse_cotree_term("(j a b c)").expect("K3");
        let edges = Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]).expect("K3 edges");
        for graph in [None, Some(Arc::new(edges))] {
            let resolved = Resolved {
                entry: Arc::new(SolveEntry::new(k3.clone())),
                graph,
                cache: CacheStatus::Bypass,
            };
            let hamiltonian = PathCover::from_paths(vec![pcgraph::Path::new(vec![0, 1, 2])]);
            assert_eq!(e.verify(&resolved, &hamiltonian), Ok(true));
            // Three singletons cover K3 validly, but one path suffices.
            let singletons: PathCover = (0..3).map(pcgraph::Path::singleton).collect();
            assert!(matches!(
                e.verify(&resolved, &singletons),
                Err(ServiceError::CoverVerificationFailed(_))
            ));
            let non_edge = PathCover::from_paths(vec![pcgraph::Path::new(vec![0, 0, 2])]);
            assert!(e.verify(&resolved, &non_edge).is_err());
        }
    }

    #[test]
    fn solve_micros_leaves_out_verification() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let tree = cograph::random_cotree(3000, cograph::CotreeShape::Mixed, &mut rng);
        let e = engine();
        let resp = e.execute(&QueryRequest::new(
            QueryKind::FullCover,
            GraphSpec::CotreeTerm(tree.to_term()),
        ));
        assert!(resp.outcome.is_ok());
        let trace_id = resp.meta.trace_id.clone().expect("trace id echoed");
        let trace = e.recorder().get(&trace_id).expect("trace retained");
        let solve = trace
            .spans
            .iter()
            .find(|s| s.name == "stage:solve")
            .unwrap();
        let verify = trace
            .spans
            .iter()
            .find(|s| s.name == "stage:verify")
            .unwrap();
        assert!(resp.meta.solve_micros <= solve.dur_us + 1);
        assert!(solve.start_us + solve.dur_us <= verify.start_us + 1);
    }

    #[test]
    fn batch_order_is_preserved_across_threads() {
        let e = QueryEngine::new(EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        });
        let requests: Vec<QueryRequest> = (2..40u32)
            .map(|k| {
                // Complete graph K_k as a join of k leaves: min cover 1.
                let leaves = (0..k)
                    .map(|i| format!("v{i}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                QueryRequest::new(
                    QueryKind::MinCoverSize,
                    GraphSpec::CotreeTerm(format!("(j {leaves})")),
                )
                .with_id(format!("job-{k}"))
            })
            .collect();
        let responses = e.execute_batch(None, &requests);
        assert_eq!(responses.len(), requests.len());
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(resp.id, requests[i].id, "response {i} out of order");
            assert_eq!(resp.outcome, Ok(Answer::MinCoverSize { size: 1 }));
        }
    }
}
