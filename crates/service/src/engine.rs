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

use crate::cache::{graph_fingerprint, CacheStats, CotreeCache, ShardStats, SolveEntry};
use crate::error::ServiceError;
use crate::ingest::{self, GraphFormat, Ingested};
use crate::json::Json;
use crate::model::{
    Answer, CacheStatus, GraphSpec, QueryKind, QueryRequest, QueryResponse, ResponseMeta,
};
use crate::snapshot::{self, LoadOutcome, SaveReport, SnapshotError};
use crate::telemetry::{Metric, MetricsReport, Outcome, RequestCtx, Stage, Telemetry, Timeline};
use crate::trace::{FlightRecorder, TraceConfig, TraceEnd};
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
    /// Maximum number of cotrees kept resident (split across the shards).
    pub cache_capacity: usize,
    /// Cotree cache shard count (rounded up to a power of two); `0` means
    /// [`crate::cache::DEFAULT_SHARDS`].
    pub cache_shards: usize,
    /// Record per-stage/request telemetry (see [`crate::telemetry`]);
    /// `false` makes every recording call a no-op. Requests still read the
    /// clock once per stage boundary, since each response reports its
    /// `solve_us` and `total_us`.
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
    /// verb (see [`crate::trace`]). [`TraceConfig::off`] opens no trace,
    /// so no span is ever built.
    pub trace: TraceConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
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

/// A job that reached the solver: its answer and what its response
/// reports about it.
pub(crate) struct Solved {
    pub(crate) resolved: Resolved,
    /// The graph's vertex count.
    pub(crate) vertices: usize,
    pub(crate) outcome: Result<Answer, ServiceError>,
    /// The `solve` stage segment, in microseconds.
    pub(crate) solve_us: u64,
}

/// The batch's shared graph, parsed once; every job using it still performs
/// its own cache lookup so cache hits stay observable per response. A
/// shared cotree is hashed once too: it is kept as the entry every job
/// probes the cache with (see [`QueryEngine::cotree_entry`]).
enum SharedPrep {
    Graph(Arc<Graph>),
    Cotree(Arc<SolveEntry>),
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
    /// Work requests currently admitted (the admission-gate counter,
    /// exported as `pc_inflight_requests`).
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
                self.telemetry.add(Metric::RejectedOverload, 0, 1);
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
                Ok(_) => return Ok(InflightGuard { engine: self }),
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

    /// Runs `work` under `ctx`'s trace. A context without one, when the
    /// recorder is on, gets one opened here and committed here with the end
    /// `work` reports (`None`: no trace). The one commit site: a request,
    /// a batch included, leaves at most one trace.
    pub(crate) fn traced<T>(
        &self,
        ctx: &RequestCtx,
        work: impl FnOnce(&RequestCtx) -> (T, Option<TraceEnd>),
    ) -> T {
        if ctx.collector.is_some() || !self.recorder.enabled() {
            return work(ctx).0;
        }
        let ctx = RequestCtx {
            collector: self.recorder.begin(),
            ..ctx.clone()
        };
        let (out, end) = work(&ctx);
        if let (Some(end), Some(trace)) = (end, &ctx.collector) {
            // The root span ends now, on the clock its spans are offsets
            // from, so it ends after every one of them.
            let total_us = trace.offset_us(Instant::now());
            let (id, kind, outcome) = (&ctx.trace_id, end.kind, end.outcome);
            (self.recorder).commit(id, kind, outcome, total_us, end.protected, trace.take());
        }
        out
    }

    /// A point-in-time copy of every metric: the telemetry registry plus
    /// the values the engine owns (admitted requests, live sessions, cache
    /// counters, uptime).
    pub fn metrics_report(&self) -> MetricsReport {
        let cache = self.cache_stats();
        let shards = self.cache_shard_stats();
        let per_shard = |field: fn(&ShardStats) -> u64| shards.iter().map(field).collect();
        let inflight = self.inflight.load(Ordering::Relaxed) as u64;
        self.telemetry.report(vec![
            (Metric::InflightRequests, vec![inflight]),
            (Metric::SessionsLive, vec![self.sessions.len() as u64]),
            (Metric::CacheHits, vec![cache.hits]),
            (Metric::CacheMisses, vec![cache.misses]),
            (Metric::CacheEvictions, vec![cache.evictions]),
            (Metric::CacheEntries, vec![cache.entries as u64]),
            (Metric::CacheShardHits, per_shard(|s| s.hits)),
            (Metric::CacheShardMisses, per_shard(|s| s.misses)),
            (Metric::CacheShardEvictions, per_shard(|s| s.evictions)),
            (Metric::CacheShardEntries, per_shard(|s| s.entries as u64)),
            (Metric::Uptime, vec![self.uptime_secs()]),
        ])
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
        let saved = snapshot::save(&self.cache, &path);
        let elapsed = saved.as_ref().ok().map(|report| report.elapsed_micros);
        self.telemetry.record_checkpoint(elapsed);
        let report = saved?;
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
        self.traced(ctx, |ctx| {
            let response = self.guarded_execute(request, None, ctx);
            let end = trace_end(&response);
            (response, Some(end))
        })
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
    /// [`RequestCtx`]: every job in the batch shares the one trace ID, and
    /// the batch leaves one trace.
    pub fn execute_batch_ctx(
        &self,
        shared: Option<&GraphSpec>,
        requests: &[QueryRequest],
        ctx: &RequestCtx,
    ) -> Vec<QueryResponse> {
        self.traced(ctx, |ctx| {
            let (responses, end) = self.run_batch(shared, requests, ctx);
            (responses, Some(end))
        })
    }

    /// Runs a batch under `ctx` and reports how its trace ends: kind
    /// `batch`, the first failed job's code (in batch order) or `ok`, and
    /// protected when any job's trace would be.
    pub(crate) fn run_batch(
        &self,
        shared: Option<&GraphSpec>,
        requests: &[QueryRequest],
        ctx: &RequestCtx,
    ) -> (Vec<QueryResponse>, TraceEnd) {
        let mut timeline = Timeline::new(&self.telemetry, ctx);
        let shared = shared.map(|spec| self.prepare_shared(spec, &mut timeline));
        let threads = self.effective_threads(requests.len());
        let responses: Vec<QueryResponse> = if threads <= 1 {
            (requests.iter())
                .map(|r| self.guarded_execute(r, shared.as_ref(), ctx))
                .collect()
        } else {
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
                        let response = self.guarded_execute(&requests[i], shared.as_ref(), ctx);
                        slots[i].set(response).expect("each slot is written once");
                    });
                }
            });
            (slots.into_iter())
                .map(|slot| slot.into_inner().expect("slot filled"))
                .collect()
        };
        let mut end = TraceEnd::new("batch", "ok", false);
        for job in responses.iter().map(trace_end) {
            if end.outcome == "ok" {
                end.outcome = job.outcome;
            }
            end.protected |= job.protected;
        }
        (responses, end)
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
        let mut timeline = Timeline::new(&self.telemetry, ctx);
        let job = catch_unwind(AssertUnwindSafe(|| {
            // Deadlines are checked cooperatively at stage boundaries:
            // before ingest/recognition and again before the solve, so an
            // already-expired request never starts the expensive work.
            if ctx.deadline_expired() {
                return Err(ServiceError::DeadlineExceeded);
            }
            let resolved = self.resolve_request(&request.graph, shared, &mut timeline)?;
            let (outcome, solve_us) = if ctx.deadline_expired() {
                (Err(ServiceError::DeadlineExceeded), 0)
            } else {
                self.solve(request.kind, &resolved, &mut timeline)
            };
            Ok(Solved {
                vertices: resolved.entry.cotree.num_vertices(),
                resolved,
                outcome,
                solve_us,
            })
        }))
        .unwrap_or_else(|payload| Err(ServiceError::JobPanicked(panic_message(payload))));
        self.respond(request.id.clone(), request.kind, job, &timeline, ctx)
    }

    /// Ends one request (a batch job is one): builds its response, with
    /// `timeline`'s total, books it into the registry and emits the
    /// structured slow-request/error log line when warranted.
    pub(crate) fn respond(
        &self,
        id: Option<String>,
        kind: QueryKind,
        job: Result<Solved, ServiceError>,
        timeline: &Timeline<'_>,
        ctx: &RequestCtx,
    ) -> QueryResponse {
        let mut meta = ResponseMeta {
            solve_micros: 0,
            total_micros: timeline.total_us(),
            cache: CacheStatus::Bypass,
            canonical_key: None,
            vertices: 0,
            trace_id: Some(ctx.trace_id.clone()),
        };
        let outcome = job.and_then(|solved| {
            meta.solve_micros = solved.solve_us;
            meta.cache = solved.resolved.cache;
            meta.canonical_key = Some(solved.resolved.entry.key);
            meta.vertices = solved.vertices;
            solved.outcome
        });
        let class = match &outcome {
            Ok(_) => Outcome::Ok,
            Err(error) => Outcome::from_error_code(error.code()),
        };
        if matches!(outcome, Err(ServiceError::DeadlineExceeded)) {
            self.telemetry.add(Metric::DeadlineExceeded, 0, 1);
        }
        let total = meta.total_micros;
        self.telemetry.record_request(kind, class, total);
        if self.telemetry.should_log(class, total) {
            crate::log::rate_limited(
                crate::log::Level::Warn,
                "slow_request",
                Some(&ctx.trace_id),
                &[
                    ("kind", Json::str(kind.as_str())),
                    ("outcome", Json::str(class.as_str())),
                    ("total_us", Json::num(total)),
                    ("cache", Json::str(meta.cache.as_str())),
                    ("vertices", Json::num(meta.vertices as u64)),
                ],
            );
        }
        QueryResponse {
            id,
            kind,
            outcome,
            meta,
        }
    }

    fn resolve_request(
        &self,
        spec: &GraphSpec,
        shared: Option<&Result<SharedPrep, ServiceError>>,
        timeline: &mut Timeline<'_>,
    ) -> Result<Resolved, ServiceError> {
        match (spec, shared) {
            (GraphSpec::Shared, Some(Ok(prep))) => self.resolve_prepared(prep, timeline),
            (GraphSpec::Shared, Some(Err(error))) => Err(error.clone()),
            _ => {
                let ingested = ingest_spec(spec)?;
                timeline.stage(Stage::Ingest);
                match ingested {
                    Ingested::Graph(g) => self.resolve_graph(Arc::new(g), timeline),
                    Ingested::Cotree(t) => self.resolve_cotree(self.cotree_entry(t), timeline),
                }
            }
        }
    }

    /// Parses the batch's shared graph once; jobs resolve it per query via
    /// [`QueryEngine::resolve_prepared`] so their cache metadata is real.
    /// The one-off parse (and a cotree's canonical pass) is booked as an
    /// ingest segment of the batch's own timeline.
    fn prepare_shared(
        &self,
        spec: &GraphSpec,
        timeline: &mut Timeline<'_>,
    ) -> Result<SharedPrep, ServiceError> {
        let prep = match ingest_spec(spec)? {
            Ingested::Graph(g) => SharedPrep::Graph(Arc::new(g)),
            Ingested::Cotree(t) => SharedPrep::Cotree(self.cotree_entry(t)),
        };
        timeline.stage(Stage::Ingest);
        Ok(prep)
    }

    fn resolve_prepared(
        &self,
        prep: &SharedPrep,
        timeline: &mut Timeline<'_>,
    ) -> Result<Resolved, ServiceError> {
        match prep {
            SharedPrep::Graph(g) => self.resolve_graph(g.clone(), timeline),
            SharedPrep::Cotree(entry) => self.resolve_cotree(entry.clone(), timeline),
        }
    }

    fn resolve_graph(
        &self,
        graph: Arc<Graph>,
        timeline: &mut Timeline<'_>,
    ) -> Result<Resolved, ServiceError> {
        if graph.num_vertices() == 0 {
            return Err(ServiceError::EmptyGraph);
        }
        let fingerprint = graph_fingerprint(&graph);
        if let Some(entry) = self.cache.lookup_graph(fingerprint, &graph) {
            self.lookup_stage(timeline, fingerprint, CacheStatus::Hit);
            return Ok(Resolved {
                entry,
                graph: Some(graph),
                cache: CacheStatus::Hit,
            });
        }
        self.lookup_stage(timeline, fingerprint, CacheStatus::Miss);
        let cotree = recognize_certified(&graph);
        timeline.stage(Stage::Recognize);
        let cotree = cotree?;
        let entry = self
            .cache
            .insert(Some((fingerprint, graph.clone())), cotree);
        timeline.stage(Stage::CacheLookup);
        Ok(Resolved {
            entry,
            graph: Some(graph),
            cache: CacheStatus::Miss,
        })
    }

    /// Wraps a request's cotree for [`Self::resolve_cotree`] in full
    /// canonical form, so the lookup and, on a miss, the new resident entry
    /// share one canonical pass.
    fn cotree_entry(&self, cotree: Cotree) -> Arc<SolveEntry> {
        Arc::new(SolveEntry::with_order(cotree))
    }

    /// Resolves a cotree request wrapped by [`Self::cotree_entry`]: a hit
    /// is confirmed by one walk against `fresh`'s canonical preorder and
    /// hands back the resident entry; a miss makes `fresh` itself resident,
    /// so the cotree is neither cloned nor hashed again. Either way the
    /// segment since ingest (the canonical pass included) closes as
    /// `cache_lookup`.
    fn resolve_cotree(
        &self,
        fresh: Arc<SolveEntry>,
        timeline: &mut Timeline<'_>,
    ) -> Result<Resolved, ServiceError> {
        let key = fresh.key;
        let (entry, cache) = match self.cache.lookup_entry(&fresh) {
            Some(entry) => (entry, CacheStatus::Hit),
            None => (self.cache.insert_entry(None, fresh), CacheStatus::Miss),
        };
        self.lookup_stage(timeline, key, cache);
        Ok(Resolved {
            entry,
            graph: None,
            cache,
        })
    }

    /// Closes the running `cache_lookup` segment. A traced request also
    /// gets a `cache:lookup` span over the same interval — so it covers the
    /// fingerprint or canonical pass, as the stage histogram does — naming
    /// the shard `hash` falls in and whether it hit.
    fn lookup_stage(&self, timeline: &mut Timeline<'_>, hash: u64, cache: CacheStatus) {
        timeline.stage_with(Stage::CacheLookup, "cache:lookup", || {
            vec![
                (
                    "shard".to_string(),
                    self.cache.shard_index(hash).to_string(),
                ),
                ("result".to_string(), cache.as_str().to_string()),
            ]
        });
    }

    /// Answers `kind` on a resolved graph, verifying any cover or witness
    /// before it is returned. Also returns the `solve` stage segment in
    /// microseconds, verification excluded (the response's `solve_us`).
    pub(crate) fn solve(
        &self,
        kind: QueryKind,
        resolved: &Resolved,
        timeline: &mut Timeline<'_>,
    ) -> (Result<Answer, ServiceError>, u64) {
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
                let solve_us = timeline.stage(Stage::Solve);
                let outcome = self
                    .verify(resolved, &cover)
                    .map(|verified| Answer::FullCover { cover, verified });
                timeline.stage(Stage::Verify);
                return (outcome, solve_us);
            }
            QueryKind::HamiltonianPath if entry.has_hamiltonian_path() => {
                let witness = sequential_path_cover(&entry.cotree);
                let solve_us = timeline.stage(Stage::Solve);
                let outcome = self
                    .verify(resolved, &witness)
                    .map(|_| Answer::HamiltonianPath {
                        exists: true,
                        path: witness.into_paths().into_iter().next(),
                    });
                timeline.stage(Stage::Verify);
                return (outcome, solve_us);
            }
            QueryKind::HamiltonianPath => Answer::HamiltonianPath {
                exists: false,
                path: None,
            },
        };
        (Ok(answer), timeline.stage(Stage::Solve))
    }

    /// Checks a cover before it is returned: every vertex once, every
    /// consecutive pair an edge — of the ingested graph when there is one,
    /// else decided on the cotree — and as few paths as the memoised
    /// minimum. A cover that passes is `Ok(true)`, its `verified` flag.
    fn verify(&self, resolved: &Resolved, cover: &PathCover) -> Result<bool, ServiceError> {
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

/// How a request answered by `response` ends its trace. Errored, shed and
/// deadline-exceeded requests are exactly the traces an operator goes
/// looking for, so tail sampling must keep them.
pub(crate) fn trace_end(response: &QueryResponse) -> TraceEnd {
    let error = response.outcome.as_ref().err();
    let protected = error.is_some_and(|error| {
        matches!(
            error,
            ServiceError::DeadlineExceeded | ServiceError::Overloaded { .. }
        ) || Outcome::from_error_code(error.code()) == Outcome::Internal
    });
    let outcome = error.map_or("ok", ServiceError::code);
    TraceEnd::new(response.kind.as_str(), outcome, protected)
}

/// Reads a request's graph: parses its text, or clones the graph or cotree
/// an in-process caller passed.
pub(crate) fn ingest_spec(spec: &GraphSpec) -> Result<Ingested, ServiceError> {
    Ok(match spec {
        GraphSpec::Shared => return Err(ServiceError::SharedGraphMissing),
        GraphSpec::EdgeList(text) => ingest::parse(text, GraphFormat::EdgeList)?,
        GraphSpec::Dimacs(text) => ingest::parse(text, GraphFormat::Dimacs)?,
        GraphSpec::CotreeTerm(text) => ingest::parse(text, GraphFormat::CotreeTerm)?,
        GraphSpec::Graph(g) => Ingested::Graph(g.clone()),
        GraphSpec::Cotree(t) => Ingested::Cotree(t.clone()),
    })
}

/// Runs the linear-time recogniser, lifting its typed rejection — including
/// the induced-`P_4` certificate — into the service taxonomy.
fn recognize_certified(graph: &Graph) -> Result<Cotree, ServiceError> {
    try_recognize(graph).map_err(|e| ServiceError::from_recognition(e, graph.num_vertices()))
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
        assert_eq!(report.values(Metric::RejectedOverload), [1]);
        assert_eq!(report.values(Metric::InflightRequests), [2]);
    }

    #[test]
    fn unlimited_gate_admits_everything_but_tracks_inflight() {
        let e = engine();
        let guards: Vec<_> = (0..64).map(|_| e.try_admit().expect("no cap")).collect();
        let inflight = |e: &QueryEngine| e.metrics_report().values(Metric::InflightRequests)[0];
        assert_eq!(inflight(&e), 64);
        drop(guards);
        assert_eq!(inflight(&e), 0);
        assert_eq!(e.metrics_report().values(Metric::RejectedOverload), [0]);
    }

    #[test]
    fn engine_owned_gauges_report_with_telemetry_off() {
        // The in-flight and live-session gauges read the engine's own
        // counters, so they stay true with the recorder disabled.
        let e = QueryEngine::new(EngineConfig {
            telemetry: false,
            ..EngineConfig::default()
        });
        let _admitted = e.try_admit().expect("no cap");
        e.session_create(None).expect("session");
        let report = e.metrics_report();
        assert_eq!(report.values(Metric::InflightRequests), [1]);
        assert_eq!(report.values(Metric::SessionsLive), [1]);
        assert_eq!(report.values(Metric::SessionsCreated), [0]);
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
        assert_eq!(e.metrics_report().values(Metric::DeadlineExceeded), [1]);
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

        // The lookup span starts where its stage segment does, so a trace
        // shows the fingerprint or canonical pass the stage histogram
        // times. Inputs big enough that either takes well over 2 µs.
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let tree = cograph::random_cotree(400, cograph::CotreeShape::Mixed, &mut rng);
        let edges: String = tree
            .to_graph()
            .edges()
            .map(|(u, v)| format!("{u} {v}\n"))
            .collect();
        let term = GraphSpec::CotreeTerm(tree.to_term());
        e.execute(&QueryRequest::new(QueryKind::MinCoverSize, term.clone()));
        for (spec, result) in [(GraphSpec::EdgeList(edges), "miss"), (term, "hit")] {
            let resp = e.execute(&QueryRequest::new(QueryKind::MinCoverSize, spec));
            let trace_id = resp.meta.trace_id.expect("trace id echoed");
            let spans = e.recorder().get(&trace_id).expect("trace retained").spans;
            let first = |name: &str| spans.iter().find(|s| s.name == name).expect(name);
            let lookup = first("cache:lookup");
            assert!(lookup
                .detail
                .iter()
                .any(|(k, v)| k == "result" && v == result));
            let stage = first("stage:cache_lookup");
            assert!(
                lookup.start_us.abs_diff(stage.start_us) <= 2,
                "{result}: cache:lookup at {} µs, its stage at {} µs",
                lookup.start_us,
                stage.start_us
            );
        }
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
    fn one_clock_reading_feeds_the_histogram_the_span_and_solve_us() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let tree = cograph::random_cotree(2000, cograph::CotreeShape::Mixed, &mut rng);
        let e = engine();
        let resp = e.execute(&QueryRequest::new(
            QueryKind::FullCover,
            GraphSpec::CotreeTerm(tree.to_term()),
        ));
        assert!(resp.outcome.is_ok());
        let trace_id = resp.meta.trace_id.as_deref().expect("trace id echoed");
        let spans = e.recorder().get(trace_id).expect("trace retained").spans;
        let report = e.metrics_report();
        let stages = report.histograms(Metric::StageLatency);
        for stage in Stage::ALL {
            let timed = spans.iter().filter(|s| s.name == stage.span_name());
            let (count, sum) = timed.fold((0, 0), |(n, sum), s| (n + 1, sum + s.dur_us));
            assert_eq!(stages[stage as usize].count, count, "{stage:?}");
            assert_eq!(stages[stage as usize].sum, sum, "{stage:?}");
        }
        let span = |name: &str| spans.iter().find(|s| s.name == name).expect(name);
        assert_eq!(resp.meta.solve_micros, span("stage:solve").dur_us);
        let (lookup, stage) = (span("cache:lookup"), span("stage:cache_lookup"));
        assert_eq!(
            (lookup.start_us, lookup.dur_us),
            (stage.start_us, stage.dur_us)
        );
    }

    #[test]
    fn every_graph_spec_records_one_ingest_segment() {
        let tree = ingest::parse_cotree_term("(j (u a b) c)").expect("term");
        for spec in [
            GraphSpec::EdgeList("0 1\n1 2\n".to_string()),
            GraphSpec::Dimacs("p edge 2 1\ne 1 2\n".to_string()),
            GraphSpec::CotreeTerm("(j a b)".to_string()),
            GraphSpec::Graph(tree.to_graph()),
            GraphSpec::Cotree(tree.clone()),
        ] {
            let e = engine();
            let resp = e.execute(&QueryRequest::new(QueryKind::MinCoverSize, spec.clone()));
            assert!(resp.outcome.is_ok(), "{spec:?}");
            let stages = e.metrics_report().histograms(Metric::StageLatency).to_vec();
            assert_eq!(stages[Stage::Ingest as usize].count, 1, "{spec:?}");
        }
    }

    /// The ids of the recorder's retained traces, newest first.
    fn retained_ids(e: &QueryEngine) -> Vec<String> {
        let list = e.recorder().list_json();
        let Some(Json::Arr(traces)) = list.get("traces") else {
            panic!("no trace index: {list}");
        };
        let id = |t: &Json| t.get("trace_id").and_then(Json::as_str).map(str::to_string);
        traces.iter().filter_map(id).collect()
    }

    #[test]
    fn a_batch_leaves_one_trace_holding_every_jobs_spans() {
        let e = QueryEngine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let spec = |text: &str| GraphSpec::CotreeTerm(text.to_string());
        let requests = vec![
            QueryRequest::new(QueryKind::MinCoverSize, spec("(u (j a b) c)")),
            QueryRequest::new(QueryKind::FullCover, spec("(j (u a b) (u c d))")),
            QueryRequest::new(
                QueryKind::Recognize,
                GraphSpec::EdgeList("0 1\n1 2\n2 3\n".to_string()),
            ),
            QueryRequest::new(QueryKind::MinCoverSize, GraphSpec::EdgeList("0 x".into())),
            QueryRequest::new(QueryKind::HamiltonianCycle, GraphSpec::Shared),
        ];
        let shared = GraphSpec::EdgeList("0 1\n1 2\n0 2\n".to_string());
        let responses = e.execute_batch(Some(&shared), &requests);
        let answered = responses.iter().filter(|r| r.outcome.is_ok()).count();
        assert_eq!(answered, 3);
        let ids = retained_ids(&e);
        assert_eq!(ids.len(), 1, "one batch, one trace: {ids:?}");
        assert_eq!(responses[0].meta.trace_id.as_ref(), Some(&ids[0]));
        let trace = e.recorder().get(&ids[0]).expect("batch trace");
        assert_eq!(trace.kind, "batch");
        // The first failed job in batch order names the outcome.
        assert_eq!(trace.outcome, "not_a_cograph");
        assert!(!trace.protected);
        let count = |name: &str| trace.spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("stage:solve"), answered);
        // Three jobs ingested their own graph, and the batch its shared one.
        assert_eq!(count("stage:ingest"), 4);

        // A batch any of whose jobs would leave a protected trace is one.
        let late = RequestCtx::with_trace("late").with_deadline_ms(Some(0));
        e.execute_batch_ctx(None, &requests[..2], &late);
        let trace = e.recorder().get("late").expect("late batch trace");
        assert_eq!(
            (trace.outcome.as_str(), trace.protected),
            ("deadline_exceeded", true)
        );
        assert_eq!(retained_ids(&e).len(), 2);
    }

    #[test]
    fn a_large_batch_caps_its_spans_and_spares_earlier_traces() {
        let e = QueryEngine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let solo = e.execute(&QueryRequest::new(
            QueryKind::MinCoverSize,
            GraphSpec::CotreeTerm("(j a b)".to_string()),
        ));
        let solo = solo.meta.trace_id.expect("trace id echoed");
        let job = QueryRequest::new(
            QueryKind::MinCoverSize,
            GraphSpec::CotreeTerm("(j a (u b c))".to_string()),
        );
        let ctx = RequestCtx::with_trace("big-batch");
        e.execute_batch_ctx(None, &vec![job; 2000], &ctx);
        assert_eq!(retained_ids(&e), ["big-batch".to_string(), solo.clone()]);
        let trace = e.recorder().get("big-batch").expect("batch trace");
        assert!(trace.spans.len() <= crate::trace::MAX_TRACE_SPANS);
        assert!(trace.spans_dropped > 0);
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
