//! Lock-free pipeline telemetry: counters, latency histograms, trace IDs.
//!
//! Every request the engine answers crosses five pipeline stages — ingest,
//! recognize, cache lookup, solve, verify — and this module records each
//! one without locks: plain relaxed atomics behind a [`Telemetry`] registry
//! owned by the [`QueryEngine`](crate::engine::QueryEngine). Latencies land
//! in fixed-bucket log-scale [`Histogram`]s (powers of two, microseconds)
//! whose counts are exact even under concurrent recording, so p50/p90/p99
//! extraction never needs a mutex on the hot path.
//!
//! The registry also tracks whole-request latency split by query kind and
//! by outcome (`ok` / `not_a_cograph` / `invalid` / `internal`), daemon
//! connection gauges per transport, and snapshot checkpoint health. A
//! [`MetricsReport`] snapshots everything at once and renders either
//! structured JSON (the `metrics` proto frame, `pathcover-cli metrics`) or
//! Prometheus text exposition format (`GET /v1/metrics`).
//!
//! Requests are correlated across log lines and transports by a trace ID
//! carried in a [`RequestCtx`]: accepted from an `X-Request-Id` header or a
//! `trace_id` proto field at the transport edge, synthesized otherwise, and
//! echoed in every response and error body.

use crate::cache::{CacheStats, ShardStats};
use crate::json::Json;
use crate::model::QueryKind;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Number of buckets in every latency histogram: bucket `i < 31` holds
/// values `v` with `2^(i-1) < v <= 2^i` microseconds (bucket 0 holds
/// `v <= 1`), bucket 31 is the overflow (`+Inf`) bucket.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Minimum gap between structured slow-request/error log lines; anything
/// arriving faster is dropped so a pathological workload cannot turn the
/// log into its own denial of service.
const LOG_RATE_LIMIT_NANOS: u64 = 100_000_000; // 100ms

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// A fixed-bucket log-scale latency histogram over `u64` microsecond
/// values, recordable concurrently from any number of threads.
///
/// Recording is three relaxed `fetch_add`s (bucket, count, sum) — no CAS
/// loops, no locks — so total counts are exact under contention even
/// though a snapshot taken mid-record may transiently see `count` ahead
/// of the bucket sums by a few in-flight increments.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: 0 for `v <= 1`, otherwise the smallest
    /// `i` with `v <= 2^i`, saturating at the overflow bucket.
    fn bucket_index(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            ((64 - (value - 1).leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound of a bucket (`u64::MAX` for the overflow
    /// bucket).
    fn bucket_upper(index: usize) -> u64 {
        if index >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << index
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`], with quantile extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (microseconds).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0 ..= 1.0`) as the inclusive upper bound of
    /// the bucket containing the rank-`ceil(q·count)` smallest
    /// observation; `0` when empty, `u64::MAX` when the rank falls in the
    /// overflow bucket. Because bucketisation preserves order, this is
    /// exactly the bucket bound the true quantile value lives under.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                return Histogram::bucket_upper(i);
            }
        }
        u64::MAX
    }

    /// Mean observed value in microseconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Structured summary (`count` / `sum_us` / `mean_us` / `p50_us` /
    /// `p90_us` / `p99_us`) used by the stats payload and the CLI.
    pub fn summary_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::num(self.count)),
            ("sum_us", Json::num(self.sum)),
            ("mean_us", Json::num(self.mean().round() as u64)),
            ("p50_us", Json::num(self.quantile(0.50))),
            ("p90_us", Json::num(self.quantile(0.90))),
            ("p99_us", Json::num(self.quantile(0.99))),
        ])
    }
}

// ---------------------------------------------------------------------------
// Labels
// ---------------------------------------------------------------------------

/// The five pipeline stages whose latency is recorded per segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Parsing edge-list / DIMACS / cotree-term input into a graph.
    Ingest,
    /// Cograph recognition (cotree construction or P4 rejection).
    Recognize,
    /// Cache fingerprint/canonical-key lookups and inserts.
    CacheLookup,
    /// The actual path-cover / Hamiltonian computation.
    Solve,
    /// Independent re-verification of the returned cover.
    Verify,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Ingest,
        Stage::Recognize,
        Stage::CacheLookup,
        Stage::Solve,
        Stage::Verify,
    ];

    /// Stable label used in metric names and JSON keys.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Recognize => "recognize",
            Stage::CacheLookup => "cache_lookup",
            Stage::Solve => "solve",
            Stage::Verify => "verify",
        }
    }

    /// Position of this stage in [`Stage::ALL`] (and in
    /// [`MetricsReport::stages`]).
    pub fn index(self) -> usize {
        match self {
            Stage::Ingest => 0,
            Stage::Recognize => 1,
            Stage::CacheLookup => 2,
            Stage::Solve => 3,
            Stage::Verify => 4,
        }
    }
}

/// Request outcome classes used to split whole-request latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The job produced a verified answer.
    Ok,
    /// The input graph was rejected with an induced-P4 certificate.
    NotACograph,
    /// The request itself was defective (ingest error, empty graph,
    /// missing shared graph, bad request).
    Invalid,
    /// The engine failed the job (verification mismatch, job panic).
    Internal,
}

impl Outcome {
    /// All outcomes, in severity order.
    pub const ALL: [Outcome; 4] = [
        Outcome::Ok,
        Outcome::NotACograph,
        Outcome::Invalid,
        Outcome::Internal,
    ];

    /// Stable label used in metric names and JSON keys.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::NotACograph => "not_a_cograph",
            Outcome::Invalid => "invalid",
            Outcome::Internal => "internal",
        }
    }

    /// Classifies a wire error code (the `code` field of error bodies).
    pub fn from_error_code(code: &str) -> Outcome {
        match code {
            "not_a_cograph" => Outcome::NotACograph,
            "cover_verification_failed" | "job_panicked" => Outcome::Internal,
            _ => Outcome::Invalid,
        }
    }

    fn index(self) -> usize {
        match self {
            Outcome::Ok => 0,
            Outcome::NotACograph => 1,
            Outcome::Invalid => 2,
            Outcome::Internal => 3,
        }
    }
}

/// The two wire transports, used to label connection gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// The length-framed `pcp1`/`pcp2` protocol (unix socket).
    Framed,
    /// The HTTP/1.1 front-end (TCP).
    Http,
}

impl Transport {
    /// Both transports.
    pub const ALL: [Transport; 2] = [Transport::Framed, Transport::Http];

    /// Stable label used in metric names and JSON keys.
    pub fn as_str(self) -> &'static str {
        match self {
            Transport::Framed => "framed",
            Transport::Http => "http",
        }
    }

    fn index(self) -> usize {
        match self {
            Transport::Framed => 0,
            Transport::Http => 1,
        }
    }
}

fn kind_index(kind: QueryKind) -> usize {
    match kind {
        QueryKind::MinCoverSize => 0,
        QueryKind::FullCover => 1,
        QueryKind::HamiltonianPath => 2,
        QueryKind::HamiltonianCycle => 3,
        QueryKind::Recognize => 4,
    }
}

// ---------------------------------------------------------------------------
// Request context / trace IDs
// ---------------------------------------------------------------------------

/// Per-request context carried from the transport edge through the engine:
/// the trace ID echoed in every response and log line, plus an optional
/// deadline after which the engine stops working on the request.
#[derive(Debug, Clone)]
pub struct RequestCtx {
    /// The trace ID — client-supplied (`X-Request-Id` header, `trace_id`
    /// proto field) or synthesized at the edge.
    pub trace_id: String,
    /// Absolute deadline for the request, set at the transport edge from a
    /// `deadline_ms` envelope field or `X-Deadline-Ms` header; `None` means
    /// the request may run to completion.
    pub deadline: Option<Instant>,
    /// The request's span sink when the flight recorder is on
    /// (see [`crate::trace`]); `None` means spans are not being collected
    /// and instrumented sites skip their clock reads entirely.
    pub collector: Option<std::sync::Arc<crate::trace::SpanCollector>>,
}

// Identity of a request context is its trace ID and deadline; the span
// collector is per-request plumbing, not identity (and `Arc<SpanCollector>`
// has no meaningful equality).
impl PartialEq for RequestCtx {
    fn eq(&self, other: &Self) -> bool {
        self.trace_id == other.trace_id && self.deadline == other.deadline
    }
}

impl Eq for RequestCtx {}

impl RequestCtx {
    /// Wraps a client-supplied trace ID.
    pub fn with_trace(trace_id: impl Into<String>) -> Self {
        RequestCtx {
            trace_id: trace_id.into(),
            deadline: None,
            collector: None,
        }
    }

    /// Attaches (or clears) a span collector; used by the engine at request
    /// entry when the flight recorder is enabled.
    pub fn with_collector(
        mut self,
        collector: Option<std::sync::Arc<crate::trace::SpanCollector>>,
    ) -> Self {
        self.collector = collector;
        self
    }

    /// The trace clock's current offset in microseconds, when spans are
    /// being collected. Instrumented sites pair this with
    /// [`RequestCtx::finish_span`].
    pub fn span_start(&self) -> Option<u64> {
        self.collector
            .as_ref()
            .map(|collector| collector.elapsed_us())
    }

    /// Closes a span opened at `start` (a [`RequestCtx::span_start`]
    /// reading). A `None` start — tracing off — is a no-op.
    pub fn finish_span(&self, name: &str, start: Option<u64>) {
        if let (Some(collector), Some(start_us)) = (self.collector.as_ref(), start) {
            collector.finish(name, start_us);
        }
    }

    /// Attaches a relative deadline (`None` clears it): the request must
    /// finish within `deadline_ms` milliseconds of now or the engine cuts
    /// it short with a `deadline_exceeded` error.
    pub fn with_deadline_ms(mut self, deadline_ms: Option<u64>) -> Self {
        self.deadline = deadline_ms.map(|ms| Instant::now() + std::time::Duration::from_millis(ms));
        self
    }

    /// Whether the request's deadline (if any) has already passed. Checked
    /// cooperatively at pipeline stage boundaries and in the session lock
    /// wait — a cheap monotonic-clock read, never a lock.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Synthesizes a fresh trace ID (`pc-<16 hex digits>`): wall-clock
    /// nanoseconds mixed with the process ID and a global sequence
    /// counter, so IDs are unique within a process and collide across
    /// daemons only if clocks and PIDs both coincide.
    pub fn generate() -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let mixed =
            nanos ^ (u64::from(std::process::id()) << 32) ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        RequestCtx {
            trace_id: format!("pc-{mixed:016x}"),
            deadline: None,
            collector: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Pipeline clock
// ---------------------------------------------------------------------------

/// A per-request stage stopwatch: each [`mark`](PipelineClock::mark)
/// attributes the time since the previous mark to one stage. With
/// telemetry disabled it is a true no-op — no `Instant::now()` calls at
/// all — which is what the `service_telemetry_overhead` bench compares
/// against.
#[derive(Debug)]
pub struct PipelineClock<'t> {
    inner: Option<(&'t Telemetry, Instant)>,
    collector: Option<Arc<crate::trace::SpanCollector>>,
}

impl PipelineClock<'_> {
    /// Records the segment since the previous mark under `stage` and
    /// restarts the stopwatch. When a span collector rides the clock the
    /// same segment is also recorded as a `stage:*` span in the request
    /// trace.
    pub fn mark(&mut self, stage: Stage) {
        if let Some((telemetry, last)) = &mut self.inner {
            let now = Instant::now();
            let micros = (now - *last).as_micros() as u64;
            telemetry.record_stage(stage, micros);
            if let Some(collector) = &self.collector {
                let end = collector.elapsed_us();
                collector.push(crate::trace::Span::new(
                    format!("stage:{}", stage.as_str()),
                    end.saturating_sub(micros),
                    micros,
                ));
            }
            *last = now;
        }
    }

    /// The span collector riding this clock, if the request is traced and
    /// the clock is live. Pipeline internals use it to attach extra child
    /// spans (cache lookups) without threading the request context
    /// everywhere.
    pub fn collector(&self) -> Option<&Arc<crate::trace::SpanCollector>> {
        self.collector.as_ref()
    }

    /// Restarts the stopwatch without attributing the elapsed segment to
    /// any stage (used to skip untimed bookkeeping between stages).
    pub fn reset(&mut self) {
        if let Some((_, last)) = &mut self.inner {
            *last = Instant::now();
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Per-transport connection counters.
#[derive(Debug, Default)]
struct TransportCounters {
    accepted: AtomicU64,
    active: AtomicI64,
    idle_timeouts: AtomicU64,
    oversize_rejects: AtomicU64,
    accept_errors: AtomicU64,
}

/// The metrics registry: one per [`QueryEngine`](crate::engine::QueryEngine),
/// shared by the engine pipeline, the daemon accept loops and both
/// transports. All recording is relaxed-atomic; reading takes a
/// point-in-time [`MetricsReport`] via the engine.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    slow_log_micros: Option<u64>,
    stages: [Histogram; 5],
    request_kind: [Histogram; 5],
    request_outcome: [Histogram; 4],
    requests: [[AtomicU64; 4]; 5],
    transports: [TransportCounters; 2],
    snapshot_save: Histogram,
    snapshot_failures: AtomicU64,
    snapshot_consecutive_failures: AtomicU64,
    snapshot_last_unix: AtomicU64,
    rejected_overload: AtomicU64,
    deadline_exceeded: AtomicU64,
    inflight: AtomicI64,
    sessions_created: AtomicU64,
    sessions_dropped: AtomicU64,
    sessions_expired: AtomicU64,
    sessions_live: AtomicI64,
    session_mutations: AtomicU64,
    session_recognize_incremental: AtomicU64,
    session_recognize_rebuild: AtomicU64,
    last_log_nanos: AtomicU64,
}

impl Telemetry {
    /// Creates a registry. With `enabled` false every recording call is a
    /// no-op (the "no-op recorder" the overhead bench compares against);
    /// `slow_log_micros` is the `serve --slow-ms` threshold.
    pub fn new(enabled: bool, slow_log_micros: Option<u64>) -> Self {
        Telemetry {
            enabled,
            slow_log_micros,
            stages: std::array::from_fn(|_| Histogram::new()),
            request_kind: std::array::from_fn(|_| Histogram::new()),
            request_outcome: std::array::from_fn(|_| Histogram::new()),
            requests: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            transports: std::array::from_fn(|_| TransportCounters::default()),
            snapshot_save: Histogram::new(),
            snapshot_failures: AtomicU64::new(0),
            snapshot_consecutive_failures: AtomicU64::new(0),
            snapshot_last_unix: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            inflight: AtomicI64::new(0),
            sessions_created: AtomicU64::new(0),
            sessions_dropped: AtomicU64::new(0),
            sessions_expired: AtomicU64::new(0),
            sessions_live: AtomicI64::new(0),
            session_mutations: AtomicU64::new(0),
            session_recognize_incremental: AtomicU64::new(0),
            session_recognize_rebuild: AtomicU64::new(0),
            last_log_nanos: AtomicU64::new(0),
        }
    }

    /// Whether recording is live (false for the no-op recorder).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a per-request stage stopwatch (no-op when disabled).
    pub fn pipeline_clock(&self) -> PipelineClock<'_> {
        PipelineClock {
            inner: self.enabled.then(|| (self, Instant::now())),
            collector: None,
        }
    }

    /// Like [`pipeline_clock`](Self::pipeline_clock), but also carrying
    /// the request's span collector (if any) so each stage mark doubles
    /// as a trace span. Stage spans require telemetry to be live — the
    /// disabled registry keeps the clock a true no-op.
    pub fn pipeline_clock_ctx(&self, ctx: &RequestCtx) -> PipelineClock<'_> {
        PipelineClock {
            inner: self.enabled.then(|| (self, Instant::now())),
            collector: if self.enabled {
                ctx.collector.clone()
            } else {
                None
            },
        }
    }

    /// Records one stage segment in microseconds.
    pub fn record_stage(&self, stage: Stage, micros: u64) {
        if self.enabled {
            self.stages[stage.index()].record(micros);
        }
    }

    /// Records one completed request: bumps the kind × outcome counter
    /// and both whole-request latency histograms.
    pub fn record_request(&self, kind: QueryKind, outcome: Outcome, total_micros: u64) {
        if self.enabled {
            self.requests[kind_index(kind)][outcome.index()].fetch_add(1, Ordering::Relaxed);
            self.request_kind[kind_index(kind)].record(total_micros);
            self.request_outcome[outcome.index()].record(total_micros);
        }
    }

    /// Whether a completed request deserves a structured log line: over
    /// the `--slow-ms` threshold, or an internal failure — and inside the
    /// rate limit (at most one line per 100ms process-wide).
    pub fn should_log(&self, outcome: Outcome, total_micros: u64) -> bool {
        if !self.enabled {
            return false;
        }
        let eligible = matches!(outcome, Outcome::Internal)
            || self
                .slow_log_micros
                .is_some_and(|threshold| total_micros >= threshold);
        eligible && self.log_rate_ok()
    }

    fn log_rate_ok(&self) -> bool {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let last = self.last_log_nanos.load(Ordering::Relaxed);
        now.saturating_sub(last) >= LOG_RATE_LIMIT_NANOS
            && self
                .last_log_nanos
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
    }

    /// Records an accepted connection (bumps the accepted counter and the
    /// active gauge).
    pub fn conn_opened(&self, transport: Transport) {
        if self.enabled {
            let t = &self.transports[transport.index()];
            t.accepted.fetch_add(1, Ordering::Relaxed);
            t.active.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a closed connection (decrements the active gauge).
    pub fn conn_closed(&self, transport: Transport) {
        if self.enabled {
            self.transports[transport.index()]
                .active
                .fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Records a connection closed by idle timeout.
    pub fn idle_timeout(&self, transport: Transport) {
        if self.enabled {
            self.transports[transport.index()]
                .idle_timeouts
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a frame/body rejected for exceeding the shared size cap.
    pub fn oversize_reject(&self, transport: Transport) {
        if self.enabled {
            self.transports[transport.index()]
                .oversize_rejects
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records an `accept()` failure on a listener (EMFILE and friends);
    /// drives the accept loop's bounded backoff telemetry.
    pub fn accept_error(&self, transport: Transport) {
        if self.enabled {
            self.transports[transport.index()]
                .accept_errors
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a request shed under load (admission cap, per-connection
    /// budget, connection cap, or an injected overload fault).
    pub fn overload_rejected(&self) {
        if self.enabled {
            self.rejected_overload.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a request cut short because its deadline expired.
    pub fn deadline_exceeded(&self) {
        if self.enabled {
            self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Bumps the in-flight work gauge (a request was admitted).
    pub fn inflight_started(&self) {
        if self.enabled {
            self.inflight.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Decrements the in-flight work gauge (an admitted request finished).
    pub fn inflight_finished(&self) {
        if self.enabled {
            self.inflight.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Records a successful snapshot checkpoint: its duration and the
    /// wall-clock second it completed. Resets the consecutive-failure
    /// streak.
    pub fn checkpoint_saved(&self, micros: u64) {
        if self.enabled {
            self.snapshot_save.record(micros);
            let unix = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            self.snapshot_last_unix.store(unix, Ordering::Relaxed);
            self.snapshot_consecutive_failures
                .store(0, Ordering::Relaxed);
        }
    }

    /// Records a failed snapshot checkpoint and extends the
    /// consecutive-failure streak that drives the checkpointer's backoff.
    pub fn checkpoint_failed(&self) {
        if self.enabled {
            self.snapshot_failures.fetch_add(1, Ordering::Relaxed);
            self.snapshot_consecutive_failures
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a session handle being created.
    pub fn session_created(&self) {
        if self.enabled {
            self.sessions_created.fetch_add(1, Ordering::Relaxed);
            self.sessions_live.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a session handle dropped by an explicit `session_drop`.
    pub fn session_dropped(&self) {
        if self.enabled {
            self.sessions_dropped.fetch_add(1, Ordering::Relaxed);
            self.sessions_live.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Records a session handle reclaimed by the idle-TTL sweep.
    pub fn session_expired(&self) {
        if self.enabled {
            self.sessions_expired.fetch_add(1, Ordering::Relaxed);
            self.sessions_live.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Records a successful session mutation (vertex or edge change).
    pub fn session_mutation(&self) {
        if self.enabled {
            self.session_mutations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records how a session recognition ran: absorbed by the incremental
    /// insertion pass, or fallen back to rebuild-from-scratch.
    pub fn session_recognized(&self, incremental: bool) {
        if self.enabled {
            if incremental {
                self.session_recognize_incremental
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                self.session_recognize_rebuild
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Snapshots the registry (cache/uptime/version context is supplied
    /// by the engine, which owns those).
    pub fn report(
        &self,
        cache: CacheStats,
        shards: Vec<ShardStats>,
        uptime_secs: u64,
    ) -> MetricsReport {
        MetricsReport {
            requests: std::array::from_fn(|k| {
                std::array::from_fn(|o| self.requests[k][o].load(Ordering::Relaxed))
            }),
            stages: std::array::from_fn(|i| self.stages[i].snapshot()),
            request_kind: std::array::from_fn(|i| self.request_kind[i].snapshot()),
            request_outcome: std::array::from_fn(|i| self.request_outcome[i].snapshot()),
            transports: std::array::from_fn(|i| TransportReport {
                accepted: self.transports[i].accepted.load(Ordering::Relaxed),
                active: self.transports[i].active.load(Ordering::Relaxed),
                idle_timeouts: self.transports[i].idle_timeouts.load(Ordering::Relaxed),
                oversize_rejects: self.transports[i].oversize_rejects.load(Ordering::Relaxed),
                accept_errors: self.transports[i].accept_errors.load(Ordering::Relaxed),
            }),
            snapshot_save: self.snapshot_save.snapshot(),
            snapshot_failures: self.snapshot_failures.load(Ordering::Relaxed),
            snapshot_consecutive_failures: self
                .snapshot_consecutive_failures
                .load(Ordering::Relaxed),
            snapshot_last_unix: self.snapshot_last_unix.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
            sessions: SessionReport {
                live: self.sessions_live.load(Ordering::Relaxed),
                created: self.sessions_created.load(Ordering::Relaxed),
                dropped: self.sessions_dropped.load(Ordering::Relaxed),
                expired: self.sessions_expired.load(Ordering::Relaxed),
                mutations: self.session_mutations.load(Ordering::Relaxed),
                recognize_incremental: self.session_recognize_incremental.load(Ordering::Relaxed),
                recognize_rebuild: self.session_recognize_rebuild.load(Ordering::Relaxed),
            },
            cache,
            shards,
            uptime_secs,
        }
    }
}

// ---------------------------------------------------------------------------
// Report + rendering
// ---------------------------------------------------------------------------

/// Point-in-time per-transport connection counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportReport {
    /// Total connections accepted since start.
    pub accepted: u64,
    /// Currently open connections (gauge).
    pub active: i64,
    /// Connections closed by idle timeout.
    pub idle_timeouts: u64,
    /// Frames/bodies rejected for exceeding the shared size cap.
    pub oversize_rejects: u64,
    /// `accept()` failures on this transport's listener.
    pub accept_errors: u64,
}

/// Point-in-time counters of the daemon-resident session registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionReport {
    /// Live daemon-resident handles (gauge).
    pub live: i64,
    /// Sessions created since start.
    pub created: u64,
    /// Sessions released by an explicit `session_drop`.
    pub dropped: u64,
    /// Sessions reclaimed by the idle-TTL sweep.
    pub expired: u64,
    /// Successful mutations (vertex insertions, edge adds/removals).
    pub mutations: u64,
    /// Recognitions absorbed by the incremental insertion pass.
    pub recognize_incremental: u64,
    /// Recognitions that fell back to rebuild-from-scratch.
    pub recognize_rebuild: u64,
}

/// A point-in-time copy of every metric the daemon exposes, renderable as
/// structured JSON (`metrics` proto frame) or Prometheus text
/// (`GET /v1/metrics`).
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Request counts, kind × outcome (registry order of [`QueryKind::ALL`] /
    /// [`Outcome::ALL`]).
    pub requests: [[u64; 4]; 5],
    /// Per-stage latency histograms, [`Stage::ALL`] order.
    pub stages: [HistogramSnapshot; 5],
    /// Whole-request latency by query kind, [`QueryKind::ALL`] order.
    pub request_kind: [HistogramSnapshot; 5],
    /// Whole-request latency by outcome, [`Outcome::ALL`] order.
    pub request_outcome: [HistogramSnapshot; 4],
    /// Connection counters, [`Transport::ALL`] order.
    pub transports: [TransportReport; 2],
    /// Snapshot checkpoint durations.
    pub snapshot_save: HistogramSnapshot,
    /// Failed snapshot checkpoints.
    pub snapshot_failures: u64,
    /// Checkpoint failures since the last success (0 = healthy).
    pub snapshot_consecutive_failures: u64,
    /// Unix second of the last successful checkpoint (0 = never).
    pub snapshot_last_unix: u64,
    /// Requests shed under load (admission cap, budgets, injected faults).
    pub rejected_overload: u64,
    /// Requests cut short because their deadline expired.
    pub deadline_exceeded: u64,
    /// Requests currently admitted and executing (gauge).
    pub inflight: i64,
    /// Session registry counters.
    pub sessions: SessionReport,
    /// Aggregate cache counters.
    pub cache: CacheStats,
    /// Per-shard cache counters.
    pub shards: Vec<ShardStats>,
    /// Engine uptime in whole seconds.
    pub uptime_secs: u64,
}

impl MetricsReport {
    /// Total requests across all kinds and outcomes.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().flatten().sum()
    }

    /// Whole-request latency aggregated across every query kind: the
    /// bucket-wise union of the per-kind histograms (bounds are shared, so
    /// the merge is exact). Backs the `pc_request_duration` Prometheus
    /// series an external scraper uses to compute its own quantiles.
    pub fn request_duration(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        };
        for snap in &self.request_kind {
            for (i, &bucket) in snap.buckets.iter().enumerate() {
                merged.buckets[i] += bucket;
            }
            merged.count += snap.count;
            merged.sum += snap.sum;
        }
        merged
    }

    /// Structured JSON rendering, used by the `metrics` proto frame,
    /// `GET /v1/metrics?format=json` and `pathcover-cli metrics`.
    pub fn to_json(&self) -> Json {
        let requests = Json::Obj(
            QueryKind::ALL
                .iter()
                .enumerate()
                .map(|(k, kind)| {
                    (
                        kind.as_str().to_string(),
                        Json::Obj(
                            Outcome::ALL
                                .iter()
                                .enumerate()
                                .map(|(o, outcome)| {
                                    (outcome.as_str().to_string(), Json::num(self.requests[k][o]))
                                })
                                .collect(),
                        ),
                    )
                })
                .collect(),
        );
        let stages = Json::Obj(
            Stage::ALL
                .iter()
                .enumerate()
                .map(|(i, stage)| (stage.as_str().to_string(), self.stages[i].summary_json()))
                .collect(),
        );
        let by_kind = Json::Obj(
            QueryKind::ALL
                .iter()
                .enumerate()
                .map(|(i, kind)| {
                    (
                        kind.as_str().to_string(),
                        self.request_kind[i].summary_json(),
                    )
                })
                .collect(),
        );
        let by_outcome = Json::Obj(
            Outcome::ALL
                .iter()
                .enumerate()
                .map(|(i, outcome)| {
                    (
                        outcome.as_str().to_string(),
                        self.request_outcome[i].summary_json(),
                    )
                })
                .collect(),
        );
        let connections = Json::Obj(
            Transport::ALL
                .iter()
                .enumerate()
                .map(|(i, transport)| {
                    let t = &self.transports[i];
                    (
                        transport.as_str().to_string(),
                        Json::obj(vec![
                            ("accepted", Json::num(t.accepted)),
                            ("active", Json::num(t.active.max(0) as u64)),
                            ("idle_timeouts", Json::num(t.idle_timeouts)),
                            ("oversize_rejects", Json::num(t.oversize_rejects)),
                            ("accept_errors", Json::num(t.accept_errors)),
                        ]),
                    )
                })
                .collect(),
        );
        let per_shard = Json::Arr(
            self.shards
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("hits", Json::num(s.hits)),
                        ("misses", Json::num(s.misses)),
                        ("evictions", Json::num(s.evictions)),
                        ("entries", Json::num(s.entries as u64)),
                    ])
                })
                .collect(),
        );
        Json::obj(vec![
            ("requests_total", Json::num(self.total_requests())),
            ("requests", requests),
            ("stages", stages),
            ("request_latency_by_kind", by_kind),
            ("request_latency_by_outcome", by_outcome),
            ("connections", connections),
            (
                "resilience",
                Json::obj(vec![
                    ("rejected_overload", Json::num(self.rejected_overload)),
                    ("deadline_exceeded", Json::num(self.deadline_exceeded)),
                    ("inflight", Json::num(self.inflight.max(0) as u64)),
                ]),
            ),
            (
                "snapshot",
                Json::obj(vec![
                    ("checkpoints", self.snapshot_save.summary_json()),
                    ("failures", Json::num(self.snapshot_failures)),
                    (
                        "consecutive_failures",
                        Json::num(self.snapshot_consecutive_failures),
                    ),
                    ("last_success_unix", Json::num(self.snapshot_last_unix)),
                ]),
            ),
            (
                "sessions",
                Json::obj(vec![
                    ("live", Json::num(self.sessions.live.max(0) as u64)),
                    ("created", Json::num(self.sessions.created)),
                    ("dropped", Json::num(self.sessions.dropped)),
                    ("expired", Json::num(self.sessions.expired)),
                    ("mutations", Json::num(self.sessions.mutations)),
                    (
                        "recognize_incremental",
                        Json::num(self.sessions.recognize_incremental),
                    ),
                    (
                        "recognize_rebuild",
                        Json::num(self.sessions.recognize_rebuild),
                    ),
                ]),
            ),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::num(self.cache.hits)),
                    ("misses", Json::num(self.cache.misses)),
                    ("evictions", Json::num(self.cache.evictions)),
                    ("entries", Json::num(self.cache.entries as u64)),
                    ("per_shard", per_shard),
                ]),
            ),
            ("uptime_secs", Json::num(self.uptime_secs)),
        ])
    }

    /// Prometheus text exposition (format 0.0.4) rendering, served by
    /// `GET /v1/metrics`. Histograms use cumulative `le` buckets over the
    /// power-of-two bounds plus `+Inf`; all latency units are
    /// microseconds (suffix `_us`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(16 * 1024);

        out.push_str(&format!(
            "# HELP pc_build_info Build identification of this daemon; always 1.\n\
             # TYPE pc_build_info gauge\n\
             pc_build_info{{version=\"{}\",rust_version=\"{}\",profile=\"{}\"}} 1\n",
            env!("CARGO_PKG_VERSION"),
            option_env!("CARGO_PKG_RUST_VERSION").unwrap_or("unknown"),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
        ));

        out.push_str("# HELP pc_requests_total Requests completed, by query kind and outcome.\n");
        out.push_str("# TYPE pc_requests_total counter\n");
        for (k, kind) in QueryKind::ALL.iter().enumerate() {
            for (o, outcome) in Outcome::ALL.iter().enumerate() {
                out.push_str(&format!(
                    "pc_requests_total{{kind=\"{}\",outcome=\"{}\"}} {}\n",
                    kind.as_str(),
                    outcome.as_str(),
                    self.requests[k][o]
                ));
            }
        }

        out.push_str(
            "# HELP pc_stage_latency_us Per-stage pipeline latency in microseconds.\n\
             # TYPE pc_stage_latency_us histogram\n",
        );
        for (i, stage) in Stage::ALL.iter().enumerate() {
            render_histogram(
                &mut out,
                "pc_stage_latency_us",
                &format!("stage=\"{}\"", stage.as_str()),
                &self.stages[i],
            );
        }

        out.push_str(
            "# HELP pc_request_latency_us Whole-request latency in microseconds, by query kind.\n\
             # TYPE pc_request_latency_us histogram\n",
        );
        for (i, kind) in QueryKind::ALL.iter().enumerate() {
            render_histogram(
                &mut out,
                "pc_request_latency_us",
                &format!("kind=\"{}\"", kind.as_str()),
                &self.request_kind[i],
            );
        }

        out.push_str(
            "# HELP pc_request_outcome_latency_us Whole-request latency in microseconds, by outcome.\n\
             # TYPE pc_request_outcome_latency_us histogram\n",
        );
        for (i, outcome) in Outcome::ALL.iter().enumerate() {
            render_histogram(
                &mut out,
                "pc_request_outcome_latency_us",
                &format!("outcome=\"{}\"", outcome.as_str()),
                &self.request_outcome[i],
            );
        }

        // Aggregate request duration: one unlabelled cumulative histogram
        // (same power-of-two microsecond bounds as every other series) so
        // an external Prometheus can run its own histogram_quantile, plus
        // the precomputed quantile gauges for dashboards that want the
        // daemon's view.
        let duration = self.request_duration();
        out.push_str(
            "# HELP pc_request_duration Whole-request latency in microseconds, all query kinds.\n\
             # TYPE pc_request_duration histogram\n",
        );
        render_histogram(&mut out, "pc_request_duration", "", &duration);
        out.push_str(&format!(
            "# HELP pc_request_duration_p50_us Precomputed median whole-request latency in microseconds.\n\
             # TYPE pc_request_duration_p50_us gauge\n\
             pc_request_duration_p50_us {}\n\
             # HELP pc_request_duration_p90_us Precomputed p90 whole-request latency in microseconds.\n\
             # TYPE pc_request_duration_p90_us gauge\n\
             pc_request_duration_p90_us {}\n\
             # HELP pc_request_duration_p99_us Precomputed p99 whole-request latency in microseconds.\n\
             # TYPE pc_request_duration_p99_us gauge\n\
             pc_request_duration_p99_us {}\n",
            duration.quantile(0.50),
            duration.quantile(0.90),
            duration.quantile(0.99)
        ));

        out.push_str(
            "# HELP pc_connections_accepted_total Connections accepted, by transport.\n\
             # TYPE pc_connections_accepted_total counter\n",
        );
        for (i, transport) in Transport::ALL.iter().enumerate() {
            out.push_str(&format!(
                "pc_connections_accepted_total{{transport=\"{}\"}} {}\n",
                transport.as_str(),
                self.transports[i].accepted
            ));
        }
        out.push_str(
            "# HELP pc_connections_active Currently open connections, by transport.\n\
             # TYPE pc_connections_active gauge\n",
        );
        for (i, transport) in Transport::ALL.iter().enumerate() {
            out.push_str(&format!(
                "pc_connections_active{{transport=\"{}\"}} {}\n",
                transport.as_str(),
                self.transports[i].active.max(0)
            ));
        }
        out.push_str(
            "# HELP pc_idle_timeouts_total Connections closed by idle timeout, by transport.\n\
             # TYPE pc_idle_timeouts_total counter\n",
        );
        for (i, transport) in Transport::ALL.iter().enumerate() {
            out.push_str(&format!(
                "pc_idle_timeouts_total{{transport=\"{}\"}} {}\n",
                transport.as_str(),
                self.transports[i].idle_timeouts
            ));
        }
        out.push_str(
            "# HELP pc_oversize_rejects_total Frames or bodies rejected over the size cap, by transport.\n\
             # TYPE pc_oversize_rejects_total counter\n",
        );
        for (i, transport) in Transport::ALL.iter().enumerate() {
            out.push_str(&format!(
                "pc_oversize_rejects_total{{transport=\"{}\"}} {}\n",
                transport.as_str(),
                self.transports[i].oversize_rejects
            ));
        }

        out.push_str(
            "# HELP pc_accept_errors_total Listener accept() failures, by transport.\n\
             # TYPE pc_accept_errors_total counter\n",
        );
        for (i, transport) in Transport::ALL.iter().enumerate() {
            out.push_str(&format!(
                "pc_accept_errors_total{{transport=\"{}\"}} {}\n",
                transport.as_str(),
                self.transports[i].accept_errors
            ));
        }
        out.push_str(&format!(
            "# HELP pc_rejected_overload_total Requests shed under load (admission cap, budgets, injected faults).\n\
             # TYPE pc_rejected_overload_total counter\n\
             pc_rejected_overload_total {}\n\
             # HELP pc_deadline_exceeded_total Requests cut short because their deadline expired.\n\
             # TYPE pc_deadline_exceeded_total counter\n\
             pc_deadline_exceeded_total {}\n\
             # HELP pc_inflight_requests Requests currently admitted and executing.\n\
             # TYPE pc_inflight_requests gauge\n\
             pc_inflight_requests {}\n",
            self.rejected_overload,
            self.deadline_exceeded,
            self.inflight.max(0)
        ));

        out.push_str(
            "# HELP pc_snapshot_checkpoint_duration_us Snapshot checkpoint duration in microseconds.\n\
             # TYPE pc_snapshot_checkpoint_duration_us histogram\n",
        );
        render_histogram(
            &mut out,
            "pc_snapshot_checkpoint_duration_us",
            "",
            &self.snapshot_save,
        );
        out.push_str(&format!(
            "# HELP pc_snapshot_failures_total Failed snapshot checkpoints.\n\
             # TYPE pc_snapshot_failures_total counter\n\
             pc_snapshot_failures_total {}\n\
             # HELP pc_snapshot_consecutive_failures Checkpoint failures since the last success.\n\
             # TYPE pc_snapshot_consecutive_failures gauge\n\
             pc_snapshot_consecutive_failures {}\n\
             # HELP pc_snapshot_last_success_unixtime Unix time of the last successful checkpoint (0 = never).\n\
             # TYPE pc_snapshot_last_success_unixtime gauge\n\
             pc_snapshot_last_success_unixtime {}\n",
            self.snapshot_failures, self.snapshot_consecutive_failures, self.snapshot_last_unix
        ));

        out.push_str(&format!(
            "# HELP pc_sessions_live Live daemon-resident session handles.\n\
             # TYPE pc_sessions_live gauge\n\
             pc_sessions_live {}\n\
             # HELP pc_sessions_created_total Session handles created.\n\
             # TYPE pc_sessions_created_total counter\n\
             pc_sessions_created_total {}\n\
             # HELP pc_sessions_dropped_total Session handles released by session_drop.\n\
             # TYPE pc_sessions_dropped_total counter\n\
             pc_sessions_dropped_total {}\n\
             # HELP pc_sessions_expired_total Session handles reclaimed by the idle-TTL sweep.\n\
             # TYPE pc_sessions_expired_total counter\n\
             pc_sessions_expired_total {}\n\
             # HELP pc_session_mutations_total Successful session mutations.\n\
             # TYPE pc_session_mutations_total counter\n\
             pc_session_mutations_total {}\n\
             # HELP pc_session_recognize_incremental_total Session recognitions absorbed incrementally.\n\
             # TYPE pc_session_recognize_incremental_total counter\n\
             pc_session_recognize_incremental_total {}\n\
             # HELP pc_session_recognize_rebuild_total Session recognitions that rebuilt from scratch.\n\
             # TYPE pc_session_recognize_rebuild_total counter\n\
             pc_session_recognize_rebuild_total {}\n",
            self.sessions.live.max(0),
            self.sessions.created,
            self.sessions.dropped,
            self.sessions.expired,
            self.sessions.mutations,
            self.sessions.recognize_incremental,
            self.sessions.recognize_rebuild
        ));

        out.push_str(&format!(
            "# HELP pc_cache_hits_total Cache hits across all shards.\n\
             # TYPE pc_cache_hits_total counter\n\
             pc_cache_hits_total {}\n\
             # HELP pc_cache_misses_total Cache misses across all shards.\n\
             # TYPE pc_cache_misses_total counter\n\
             pc_cache_misses_total {}\n\
             # HELP pc_cache_evictions_total Cache evictions across all shards.\n\
             # TYPE pc_cache_evictions_total counter\n\
             pc_cache_evictions_total {}\n\
             # HELP pc_cache_entries Live cache entries across all shards.\n\
             # TYPE pc_cache_entries gauge\n\
             pc_cache_entries {}\n",
            self.cache.hits, self.cache.misses, self.cache.evictions, self.cache.entries
        ));
        out.push_str(
            "# HELP pc_cache_shard_hits_total Cache hits per shard.\n\
             # TYPE pc_cache_shard_hits_total counter\n",
        );
        for (i, shard) in self.shards.iter().enumerate() {
            out.push_str(&format!(
                "pc_cache_shard_hits_total{{shard=\"{i}\"}} {}\n",
                shard.hits
            ));
        }
        out.push_str(
            "# HELP pc_cache_shard_misses_total Cache misses per shard.\n\
             # TYPE pc_cache_shard_misses_total counter\n",
        );
        for (i, shard) in self.shards.iter().enumerate() {
            out.push_str(&format!(
                "pc_cache_shard_misses_total{{shard=\"{i}\"}} {}\n",
                shard.misses
            ));
        }

        out.push_str(&format!(
            "# HELP pc_uptime_seconds Engine uptime in seconds.\n\
             # TYPE pc_uptime_seconds gauge\n\
             pc_uptime_seconds {}\n",
            self.uptime_secs
        ));
        out
    }
}

/// Renders one labelled histogram series in Prometheus exposition shape:
/// cumulative `_bucket{le=...}` lines over the power-of-two bounds, the
/// `+Inf` bucket, then `_sum` and `_count`.
fn render_histogram(out: &mut String, name: &str, labels: &str, snap: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    for (i, &bucket) in snap.buckets.iter().enumerate() {
        cumulative += bucket;
        let le = if i == HISTOGRAM_BUCKETS - 1 {
            "+Inf".to_string()
        } else {
            Histogram::bucket_upper(i).to_string()
        };
        if labels.is_empty() {
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        } else {
            out.push_str(&format!(
                "{name}_bucket{{{labels},le=\"{le}\"}} {cumulative}\n"
            ));
        }
    }
    let suffix = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(&format!("{name}_sum{suffix} {}\n", snap.sum));
    out.push_str(&format!("{name}_count{suffix} {}\n", snap.count));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn bucket_boundaries_are_exact() {
        // Every power of two lands in its own bucket; one past it spills
        // into the next.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        for i in 1..31usize {
            let bound = 1u64 << i;
            assert_eq!(Histogram::bucket_index(bound), i, "value {bound}");
            assert_eq!(
                Histogram::bucket_index(bound + 1),
                i + 1,
                "value {}",
                bound + 1
            );
            assert_eq!(Histogram::bucket_upper(i), bound);
        }
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
    }

    #[test]
    fn top_bucket_saturates() {
        let h = Histogram::new();
        h.record(1u64 << 30); // last finite bucket
        h.record((1u64 << 30) + 1); // first overflow value
        h.record(u64::MAX); // way past everything
        let snap = h.snapshot();
        assert_eq!(snap.buckets[30], 1);
        assert_eq!(snap.buckets[31], 2);
        assert_eq!(snap.count, 3);
        // The overflow quantile reports the open bound.
        assert_eq!(snap.quantile(0.99), u64::MAX);
    }

    #[test]
    fn quantiles_agree_with_a_sorted_vector_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for round in 0..8 {
            let h = Histogram::new();
            let size = 100 + round * 173;
            let mut values: Vec<u64> = (0..size)
                .map(|_| {
                    // Log-uniform spread so every bucket range gets traffic.
                    let exp = rng.gen_range(0..24u32);
                    rng.gen_range(0..(2u64 << exp))
                })
                .collect();
            for &v in &values {
                h.record(v);
            }
            values.sort_unstable();
            let snap = h.snapshot();
            assert_eq!(snap.count, values.len() as u64);
            assert_eq!(snap.sum, values.iter().sum::<u64>());
            for q in [0.5, 0.9, 0.99] {
                let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
                let oracle = values[rank - 1];
                // Bucketisation preserves order, so the histogram quantile
                // is exactly the upper bound of the oracle value's bucket.
                let expected = Histogram::bucket_upper(Histogram::bucket_index(oracle));
                assert_eq!(
                    snap.quantile(q),
                    expected,
                    "q={q} round={round} oracle={oracle}"
                );
            }
        }
    }

    #[test]
    fn concurrent_recording_keeps_exact_counts() {
        let h = std::sync::Arc::new(Histogram::new());
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 20_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * PER_THREAD + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, THREADS * PER_THREAD);
        assert_eq!(snap.buckets.iter().sum::<u64>(), THREADS * PER_THREAD);
        let n = THREADS * PER_THREAD;
        assert_eq!(snap.sum, n * (n - 1) / 2);
    }

    #[test]
    fn empty_histogram_is_benign() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(
            snap.summary_json().get("p99_us").and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let tel = Telemetry::new(false, Some(0));
        tel.record_stage(Stage::Solve, 10);
        tel.record_request(QueryKind::Recognize, Outcome::Ok, 10);
        tel.conn_opened(Transport::Http);
        tel.checkpoint_saved(5);
        assert!(!tel.should_log(Outcome::Internal, u64::MAX));
        let report = tel.report(CacheStats::default(), Vec::new(), 0);
        assert_eq!(report.total_requests(), 0);
        assert_eq!(report.stages[Stage::Solve.index()].count, 0);
        assert_eq!(report.transports[Transport::Http.index()].accepted, 0);
    }

    #[test]
    fn slow_log_gate_honours_threshold_and_rate_limit() {
        let tel = Telemetry::new(true, Some(1_000));
        assert!(!tel.should_log(Outcome::Ok, 999));
        assert!(tel.should_log(Outcome::Ok, 1_000));
        // Immediately after a line the limiter suppresses the next one.
        assert!(!tel.should_log(Outcome::Ok, 50_000));
        // No threshold configured: only internal failures qualify.
        let quiet = Telemetry::new(true, None);
        assert!(!quiet.should_log(Outcome::Ok, u64::MAX));
        assert!(quiet.should_log(Outcome::Internal, 1));
    }

    #[test]
    fn trace_ids_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let ctx = RequestCtx::generate();
            assert!(ctx.trace_id.starts_with("pc-"), "{}", ctx.trace_id);
            assert_eq!(ctx.trace_id.len(), 19, "{}", ctx.trace_id);
            assert!(seen.insert(ctx.trace_id));
        }
        assert_eq!(RequestCtx::with_trace("abc").trace_id, "abc");
    }

    #[test]
    fn prometheus_rendering_is_line_parseable() {
        let tel = Telemetry::new(true, None);
        tel.record_request(QueryKind::FullCover, Outcome::Ok, 300);
        tel.record_stage(Stage::Solve, 120);
        tel.conn_opened(Transport::Framed);
        tel.oversize_reject(Transport::Http);
        tel.checkpoint_saved(2_000);
        let report = tel.report(CacheStats::default(), Vec::new(), 7);
        let text = report.to_prometheus();
        let mut samples = 0usize;
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            // `name{labels} value` or `name value`.
            let (series, value) = line.rsplit_once(' ').expect(line);
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in: {line}"
            );
            if let Some(rest) = series.strip_prefix(name) {
                if !rest.is_empty() {
                    assert!(rest.starts_with('{') && rest.ends_with('}'), "{line}");
                }
            }
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "bad value in: {line}"
            );
            samples += 1;
        }
        assert!(samples > 100, "suspiciously few samples: {samples}");
        assert!(text.contains("pc_requests_total{kind=\"full_cover\",outcome=\"ok\"} 1\n"));
        assert!(text.contains("pc_stage_latency_us_count{stage=\"solve\"} 1\n"));
        assert!(text.contains("pc_connections_accepted_total{transport=\"framed\"} 1\n"));
        assert!(text.contains("pc_oversize_rejects_total{transport=\"http\"} 1\n"));
        assert!(text.contains("pc_accept_errors_total{transport=\"framed\"} 0\n"));
        assert!(text.contains("pc_rejected_overload_total 0\n"));
        assert!(text.contains("pc_deadline_exceeded_total 0\n"));
        assert!(text.contains("pc_inflight_requests 0\n"));
        assert!(text.contains("pc_uptime_seconds 7\n"));
        // Histogram buckets are cumulative and end at +Inf == count.
        assert!(text.contains("pc_stage_latency_us_bucket{stage=\"solve\",le=\"+Inf\"} 1\n"));
        assert_eq!(report.total_requests(), 1);
    }

    #[test]
    fn metrics_json_mirrors_the_registry() {
        let tel = Telemetry::new(true, None);
        tel.record_request(QueryKind::MinCoverSize, Outcome::Ok, 40);
        tel.record_request(QueryKind::MinCoverSize, Outcome::Invalid, 10);
        tel.record_stage(Stage::Ingest, 5);
        let report = tel.report(CacheStats::default(), Vec::new(), 3);
        let json = report.to_json();
        assert_eq!(json.get("requests_total").and_then(Json::as_u64), Some(2));
        let kind = json
            .get("requests")
            .and_then(|r| r.get("min_cover_size"))
            .expect("kind row");
        assert_eq!(kind.get("ok").and_then(Json::as_u64), Some(1));
        assert_eq!(kind.get("invalid").and_then(Json::as_u64), Some(1));
        let ingest = json
            .get("stages")
            .and_then(|s| s.get("ingest"))
            .expect("stage row");
        assert_eq!(ingest.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(json.get("uptime_secs").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn resilience_counters_round_trip() {
        let tel = Telemetry::new(true, None);
        tel.overload_rejected();
        tel.overload_rejected();
        tel.deadline_exceeded();
        tel.inflight_started();
        tel.accept_error(Transport::Framed);
        tel.checkpoint_failed();
        tel.checkpoint_failed();
        let report = tel.report(CacheStats::default(), Vec::new(), 0);
        assert_eq!(report.rejected_overload, 2);
        assert_eq!(report.deadline_exceeded, 1);
        assert_eq!(report.inflight, 1);
        assert_eq!(
            report.transports[Transport::Framed.index()].accept_errors,
            1
        );
        assert_eq!(report.snapshot_consecutive_failures, 2);
        assert_eq!(report.snapshot_failures, 2);
        // A success resets the streak but not the lifetime total.
        tel.checkpoint_saved(10);
        tel.inflight_finished();
        let report = tel.report(CacheStats::default(), Vec::new(), 0);
        assert_eq!(report.snapshot_consecutive_failures, 0);
        assert_eq!(report.snapshot_failures, 2);
        assert_eq!(report.inflight, 0);
        let json = report.to_json();
        let resilience = json.get("resilience").expect("resilience block");
        assert_eq!(
            resilience.get("rejected_overload").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            resilience.get("deadline_exceeded").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(resilience.get("inflight").and_then(Json::as_u64), Some(0));
        let framed = json
            .get("connections")
            .and_then(|c| c.get("framed"))
            .expect("framed row");
        assert_eq!(framed.get("accept_errors").and_then(Json::as_u64), Some(1));
        let snapshot = json.get("snapshot").expect("snapshot block");
        assert_eq!(
            snapshot.get("consecutive_failures").and_then(Json::as_u64),
            Some(0)
        );
        let text = report.to_prometheus();
        assert!(text.contains("pc_rejected_overload_total 2\n"));
        assert!(text.contains("pc_deadline_exceeded_total 1\n"));
        assert!(text.contains("pc_accept_errors_total{transport=\"framed\"} 1\n"));
        assert!(text.contains("pc_snapshot_consecutive_failures 0\n"));
    }

    #[test]
    fn deadline_expiry_is_observable_from_ctx() {
        let ctx = RequestCtx::generate();
        assert!(!ctx.deadline_expired());
        let ctx = ctx.with_deadline_ms(Some(0));
        assert!(ctx.deadline_expired());
        let ctx = RequestCtx::with_trace("t").with_deadline_ms(Some(60_000));
        assert!(!ctx.deadline_expired());
        assert!(ctx.with_deadline_ms(None).deadline.is_none());
    }
}
