//! Lock-free pipeline telemetry: one metric table, latency histograms,
//! trace IDs.
//!
//! Every request crosses five pipeline stages — ingest, recognize, cache
//! lookup, solve, verify — and the engine's [`Telemetry`] registry records
//! each one without locks: relaxed atomics, and fixed-bucket log-scale
//! [`Histogram`]s (powers of two, microseconds) whose counts stay exact
//! under concurrent recording.
//!
//! Each exported family is one row of the metric table below: Prometheus
//! name, HELP text, type, label dimension, JSON path and value source (an
//! empty name or path keeps the row off that surface). Recording is keyed
//! by the row ([`Telemetry::add`], [`Telemetry::set`],
//! [`Telemetry::observe`]). A [`MetricsReport`] resolves every row —
//! recorded, passed in by the engine that owns it, or derived — and one walk of
//! the table renders it as JSON (the `metrics` frame, `pathcover-cli
//! metrics`) or as Prometheus text (`GET /v1/metrics`). To add a metric,
//! add its row where its JSON key belongs and record it, as in
//! `telemetry.add(Metric::NewRow, label, 1)`; the README's metrics table
//! must list it (a unit test checks).
//!
//! A [`RequestCtx`] carries each request's trace ID — an `X-Request-Id`
//! header or a `trace_id` proto field, else synthesized at the transport
//! edge — which is echoed in every response, error body and log line, and
//! its span collector when it is traced. Every timing site goes through the
//! request's [`Timeline`]: one clock reading per segment feeds the stage
//! histogram, the trace span and the response's `solve_us`.

use crate::json::Json;
use crate::model::QueryKind;
use crate::trace::{Span, SpanCollector};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Number of buckets in every latency histogram: bucket `i < 31` holds
/// values `v` with `2^(i-1) < v <= 2^i` microseconds (bucket 0 holds
/// `v <= 1`), bucket 31 is the overflow (`+Inf`) bucket.
pub const HISTOGRAM_BUCKETS: usize = 32;

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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

/// The five pipeline stages whose latency is recorded per segment. A
/// stage's `as usize` is its position in [`Stage::ALL`] and its label
/// index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Parsing edge-list / DIMACS / cotree-term input, or cloning an
    /// in-process graph or cotree.
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

    /// The name of the stage's trace span.
    pub fn span_name(self) -> &'static str {
        match self {
            Stage::Ingest => "stage:ingest",
            Stage::Recognize => "stage:recognize",
            Stage::CacheLookup => "stage:cache_lookup",
            Stage::Solve => "stage:solve",
            Stage::Verify => "stage:verify",
        }
    }
}

/// Request outcome classes used to split whole-request latency, in
/// [`Outcome::ALL`] (label index) order.
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
}

/// The two wire transports, used to label connection gauges, in
/// [`Transport::ALL`] (label index) order.
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
    /// The request's trace when the flight recorder is on (see
    /// [`crate::trace`]): opened by whoever owns the request, which also
    /// commits it. `None` means no span is built.
    pub collector: Option<Arc<SpanCollector>>,
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
// Request timeline
// ---------------------------------------------------------------------------

/// One request's clock (one batch job's, in a batch). Its time is cut into
/// consecutive segments, each closed by one clock reading: a pipeline stage
/// ([`Timeline::stage`]), whose reading feeds the stage histogram and, when
/// the request is traced, its `stage:*` span; a trace-only interval
/// ([`Timeline::span`]: admission and session-lock waits, snapshot
/// checkpoints); or work that belongs to neither ([`Timeline::skip`]). The
/// request's total ([`Timeline::total_us`]) comes from the same clock.
#[derive(Debug)]
pub struct Timeline<'r> {
    telemetry: &'r Telemetry,
    trace: Option<&'r SpanCollector>,
    started: Instant,
    segment: Instant,
}

impl<'r> Timeline<'r> {
    /// Starts a request's clock. Its spans go to `ctx`'s trace, if any;
    /// its stage segments to `telemetry`'s histograms, when enabled.
    pub fn new(telemetry: &'r Telemetry, ctx: &'r RequestCtx) -> Self {
        let now = Instant::now();
        Timeline {
            telemetry,
            trace: ctx.collector.as_deref(),
            started: now,
            segment: now,
        }
    }

    /// Closes the running segment as `stage` and returns its length in
    /// microseconds: the value its histogram and its span record.
    pub fn stage(&mut self, stage: Stage) -> u64 {
        let (start, micros) = self.close();
        self.telemetry
            .observe(Metric::StageLatency, stage as usize, micros);
        self.record(stage.span_name(), start, micros, Vec::new);
        micros
    }

    /// [`Timeline::stage`], first laying a span `name` over the same
    /// interval, annotated with `detail` (built only when traced).
    pub fn stage_with(
        &mut self,
        stage: Stage,
        name: &'static str,
        detail: impl FnOnce() -> Vec<(String, String)>,
    ) -> u64 {
        let (start, micros) = self.close();
        self.record(name, start, micros, detail);
        self.telemetry
            .observe(Metric::StageLatency, stage as usize, micros);
        self.record(stage.span_name(), start, micros, Vec::new);
        micros
    }

    /// Closes the running segment as a trace-only span `name`.
    pub fn span(&mut self, name: &'static str) {
        let (start, micros) = self.close();
        self.record(name, start, micros, Vec::new);
    }

    /// Starts a new segment without recording the one that ends: work
    /// between stages that belongs to none of them.
    pub fn skip(&mut self) {
        self.segment = Instant::now();
    }

    /// Microseconds since the timeline started: the request's total, for
    /// its response and its request histograms. (A trace's root span is
    /// timed on the trace's own clock, which starts before this one.)
    pub fn total_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Reads the clock once: ends the running segment, starts the next, and
    /// returns the ended segment's start and length.
    fn close(&mut self) -> (Instant, u64) {
        let now = Instant::now();
        let start = std::mem::replace(&mut self.segment, now);
        (start, now.duration_since(start).as_micros() as u64)
    }

    /// Pushes a span to the request's trace, if it has one.
    fn record(
        &self,
        name: &'static str,
        start: Instant,
        micros: u64,
        detail: impl FnOnce() -> Vec<(String, String)>,
    ) {
        if let Some(trace) = self.trace {
            trace.push(Span {
                name,
                start_us: trace.offset_us(start),
                dur_us: micros,
                detail: detail(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// The metric table
// ---------------------------------------------------------------------------

/// The Prometheus type of a family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Type {
    Counter,
    /// Rendered clamped at 0, so an up/down gauge never shows a transient
    /// negative.
    Gauge,
    Histogram,
}

impl Type {
    fn as_str(self) -> &'static str {
        match self {
            Type::Counter => "counter",
            Type::Gauge => "gauge",
            Type::Histogram => "histogram",
        }
    }
}

/// The label dimension a family is split by. A sample's label index counts
/// through the dimension's values in their `ALL` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dim {
    None,
    Kind,
    Outcome,
    /// Kind-major: index `kind * Outcome::ALL.len() + outcome`.
    KindOutcome,
    Stage,
    Transport,
    /// One sample per cache shard, rendered as a JSON array.
    Shard,
    /// The build identity labels of `pc_build_info`.
    Build,
}

impl Dim {
    /// Samples a recorded row of this dimension stores (shard rows are
    /// engine-owned, so none).
    fn width(self) -> usize {
        match self {
            Dim::None | Dim::Build => 1,
            Dim::Kind => QueryKind::ALL.len(),
            Dim::Outcome => Outcome::ALL.len(),
            Dim::KindOutcome => QueryKind::ALL.len() * Outcome::ALL.len(),
            Dim::Stage => Stage::ALL.len(),
            Dim::Transport => Transport::ALL.len(),
            Dim::Shard => 0,
        }
    }

    /// The `(label, value)` pairs of the sample at `index`.
    fn labels(self, index: usize) -> Vec<(&'static str, String)> {
        let one = |label, value: &str| vec![(label, value.to_string())];
        match self {
            Dim::None => Vec::new(),
            Dim::Kind => one("kind", QueryKind::ALL[index].as_str()),
            Dim::Outcome => one("outcome", Outcome::ALL[index].as_str()),
            Dim::KindOutcome => {
                let mut labels = Dim::Kind.labels(index / Outcome::ALL.len());
                labels.extend(Dim::Outcome.labels(index % Outcome::ALL.len()));
                labels
            }
            Dim::Stage => one("stage", Stage::ALL[index].as_str()),
            Dim::Transport => one("transport", Transport::ALL[index].as_str()),
            Dim::Shard => one("shard", &index.to_string()),
            Dim::Build => vec![
                ("version", env!("CARGO_PKG_VERSION").to_string()),
                ("rust_version", RUST_VERSION.to_string()),
                ("profile", PROFILE.to_string()),
            ],
        }
    }
}

/// The `rust_version` label of `pc_build_info`.
const RUST_VERSION: &str = match option_env!("CARGO_PKG_RUST_VERSION") {
    Some(version) => version,
    None => "unknown",
};

/// The `profile` label of `pc_build_info`.
const PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

/// Where a family's values come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Recorded into the [`Telemetry`] registry.
    Recorded,
    /// Owned by the engine and passed to [`Telemetry::report`].
    Engine,
    /// Computed at report time from the rows it summarises.
    Derived,
}

/// One row of the metric table.
#[derive(Debug, Clone, Copy)]
struct Family {
    /// Prometheus family name; empty keeps the row out of the exposition.
    name: &'static str,
    help: &'static str,
    ty: Type,
    dim: Dim,
    /// Dotted path of the value in the JSON rendering, one `*` segment per
    /// label; empty keeps the row out of the JSON.
    json: &'static str,
    source: Source,
}

macro_rules! metric_table {
    ($($key:ident: $source:ident $ty:ident $dim:ident $name:literal $json:literal $help:literal;)*) => {
        /// The key of one metric-table row: what every recording call and
        /// report accessor takes.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Metric {
            $(#[doc = $help] $key,)*
        }

        /// The metric table, in exposition order; `Metric as usize`
        /// indexes it.
        const FAMILIES: &[Family] = &[$(Family {
            name: $name,
            help: $help,
            ty: Type::$ty,
            dim: Dim::$dim,
            json: $json,
            source: Source::$source,
        },)*];
    };
}

// Both renderers walk the rows in this order, so it fixes the Prometheus
// family order and, by first appearance of each JSON key, the JSON key
// order.
metric_table! {
    BuildInfo: Derived Gauge Build "pc_build_info" ""
        "Build identification of this daemon; always 1.";
    RequestsTotal: Derived Counter None "" "requests_total"
        "Requests completed, all kinds and outcomes.";
    Requests: Recorded Counter KindOutcome "pc_requests_total" "requests.*.*"
        "Requests completed, by query kind and outcome.";
    StageLatency: Recorded Histogram Stage "pc_stage_latency_us" "stages.*"
        "Per-stage pipeline latency in microseconds.";
    RequestLatency: Recorded Histogram Kind "pc_request_latency_us" "request_latency_by_kind.*"
        "Whole-request latency in microseconds, by query kind.";
    OutcomeLatency: Recorded Histogram Outcome "pc_request_outcome_latency_us" "request_latency_by_outcome.*"
        "Whole-request latency in microseconds, by outcome.";
    RequestDuration: Derived Histogram None "pc_request_duration" ""
        "Whole-request latency in microseconds, all query kinds.";
    RequestDurationP50: Derived Gauge None "pc_request_duration_p50_us" ""
        "Precomputed median whole-request latency in microseconds.";
    RequestDurationP90: Derived Gauge None "pc_request_duration_p90_us" ""
        "Precomputed p90 whole-request latency in microseconds.";
    RequestDurationP99: Derived Gauge None "pc_request_duration_p99_us" ""
        "Precomputed p99 whole-request latency in microseconds.";
    ConnectionsAccepted: Recorded Counter Transport "pc_connections_accepted_total" "connections.*.accepted"
        "Connections accepted, by transport.";
    ConnectionsActive: Recorded Gauge Transport "pc_connections_active" "connections.*.active"
        "Currently open connections, by transport.";
    IdleTimeouts: Recorded Counter Transport "pc_idle_timeouts_total" "connections.*.idle_timeouts"
        "Connections closed by idle timeout, by transport.";
    OversizeRejects: Recorded Counter Transport "pc_oversize_rejects_total" "connections.*.oversize_rejects"
        "Frames or bodies rejected over the size cap, by transport.";
    AcceptErrors: Recorded Counter Transport "pc_accept_errors_total" "connections.*.accept_errors"
        "Listener accept() failures, by transport.";
    RejectedOverload: Recorded Counter None "pc_rejected_overload_total" "resilience.rejected_overload"
        "Requests shed under load (admission cap, budgets, injected faults).";
    DeadlineExceeded: Recorded Counter None "pc_deadline_exceeded_total" "resilience.deadline_exceeded"
        "Requests cut short because their deadline expired.";
    InflightRequests: Engine Gauge None "pc_inflight_requests" "resilience.inflight"
        "Requests currently admitted and executing.";
    CheckpointDuration: Recorded Histogram None "pc_snapshot_checkpoint_duration_us" "snapshot.checkpoints"
        "Snapshot checkpoint duration in microseconds.";
    SnapshotFailures: Recorded Counter None "pc_snapshot_failures_total" "snapshot.failures"
        "Failed snapshot checkpoints.";
    SnapshotConsecutiveFailures: Recorded Gauge None "pc_snapshot_consecutive_failures" "snapshot.consecutive_failures"
        "Checkpoint failures since the last success.";
    SnapshotLastSuccess: Recorded Gauge None "pc_snapshot_last_success_unixtime" "snapshot.last_success_unix"
        "Unix time of the last successful checkpoint (0 = never).";
    SessionsLive: Engine Gauge None "pc_sessions_live" "sessions.live"
        "Live daemon-resident session handles.";
    SessionsCreated: Recorded Counter None "pc_sessions_created_total" "sessions.created"
        "Session handles created.";
    SessionsDropped: Recorded Counter None "pc_sessions_dropped_total" "sessions.dropped"
        "Session handles released by session_drop.";
    SessionsExpired: Recorded Counter None "pc_sessions_expired_total" "sessions.expired"
        "Session handles reclaimed by the idle-TTL sweep.";
    SessionMutations: Recorded Counter None "pc_session_mutations_total" "sessions.mutations"
        "Successful session mutations.";
    SessionRecognizeIncremental: Recorded Counter None "pc_session_recognize_incremental_total" "sessions.recognize_incremental"
        "Session recognitions absorbed incrementally.";
    SessionRecognizeRebuild: Recorded Counter None "pc_session_recognize_rebuild_total" "sessions.recognize_rebuild"
        "Session recognitions that rebuilt from scratch.";
    CacheHits: Engine Counter None "pc_cache_hits_total" "cache.hits"
        "Cache hits across all shards.";
    CacheMisses: Engine Counter None "pc_cache_misses_total" "cache.misses"
        "Cache misses across all shards.";
    CacheEvictions: Engine Counter None "pc_cache_evictions_total" "cache.evictions"
        "Cache evictions across all shards.";
    CacheEntries: Engine Gauge None "pc_cache_entries" "cache.entries"
        "Live cache entries across all shards.";
    CacheShardHits: Engine Counter Shard "pc_cache_shard_hits_total" "cache.per_shard.*.hits"
        "Cache hits per shard.";
    CacheShardMisses: Engine Counter Shard "pc_cache_shard_misses_total" "cache.per_shard.*.misses"
        "Cache misses per shard.";
    CacheShardEvictions: Engine Counter Shard "" "cache.per_shard.*.evictions"
        "Cache evictions per shard.";
    CacheShardEntries: Engine Gauge Shard "" "cache.per_shard.*.entries"
        "Live cache entries per shard.";
    Uptime: Engine Gauge None "pc_uptime_seconds" "uptime_secs"
        "Engine uptime in seconds.";
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The metrics registry: one per [`QueryEngine`](crate::engine::QueryEngine),
/// shared by the engine pipeline, the daemon accept loops and both
/// transports. All recording is relaxed-atomic; reading takes a
/// point-in-time [`MetricsReport`] via the engine.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    slow_log_micros: Option<u64>,
    /// Each recorded row's first slot in `scalars` (counters and gauges)
    /// or `histograms`, indexed by `Metric as usize`.
    offsets: Vec<usize>,
    scalars: Box<[AtomicU64]>,
    histograms: Box<[Histogram]>,
}

impl Telemetry {
    /// Creates a registry. With `enabled` false every recording call is a
    /// no-op (the "no-op recorder" the overhead bench compares against);
    /// `slow_log_micros` is the `serve --slow-ms` threshold.
    pub fn new(enabled: bool, slow_log_micros: Option<u64>) -> Self {
        let mut offsets = vec![0; FAMILIES.len()];
        let (mut scalars, mut histograms) = (0, 0);
        for (row, family) in FAMILIES.iter().enumerate() {
            let next = match family.ty {
                Type::Histogram => &mut histograms,
                _ => &mut scalars,
            };
            if family.source == Source::Recorded {
                offsets[row] = *next;
                *next += family.dim.width();
            }
        }
        Telemetry {
            enabled,
            slow_log_micros,
            offsets,
            scalars: (0..scalars).map(|_| AtomicU64::new(0)).collect(),
            histograms: (0..histograms).map(|_| Histogram::new()).collect(),
        }
    }

    /// The storage slot of sample `label` of a recorded row.
    fn slot(&self, metric: Metric, label: usize, histogram: bool) -> usize {
        let family = &FAMILIES[metric as usize];
        debug_assert!(
            family.source == Source::Recorded
                && (family.ty == Type::Histogram) == histogram
                && label < family.dim.width(),
            "{metric:?}[{label}] is not a recorded sample of that type"
        );
        self.offsets[metric as usize] + label
    }

    /// Adds `delta` to sample `label` of a recorded counter or gauge row
    /// (`0` for an unlabelled row; see [`Stage`], [`Outcome`],
    /// [`Transport`] for label indices).
    pub fn add(&self, metric: Metric, label: usize, delta: i64) {
        if self.enabled {
            // Two's-complement wrapping makes a negative delta a decrement.
            self.scalars[self.slot(metric, label, false)]
                .fetch_add(delta as u64, Ordering::Relaxed);
        }
    }

    /// Stores `value` in sample `label` of a recorded gauge row.
    pub fn set(&self, metric: Metric, label: usize, value: u64) {
        if self.enabled {
            self.scalars[self.slot(metric, label, false)].store(value, Ordering::Relaxed);
        }
    }

    /// Records one observation (microseconds) in sample `label` of a
    /// recorded histogram row.
    pub fn observe(&self, metric: Metric, label: usize, value: u64) {
        if self.enabled {
            self.histograms[self.slot(metric, label, true)].record(value);
        }
    }

    /// Books one completed request: the kind × outcome counter and both
    /// whole-request latency histograms.
    pub fn record_request(&self, kind: QueryKind, outcome: Outcome, total_micros: u64) {
        let requests = kind as usize * Outcome::ALL.len() + outcome as usize;
        self.add(Metric::Requests, requests, 1);
        self.observe(Metric::RequestLatency, kind as usize, total_micros);
        self.observe(Metric::OutcomeLatency, outcome as usize, total_micros);
    }

    /// Books an accepted connection on `transport`. The returned guard
    /// holds its place in the active-connection gauge until dropped, so
    /// every exit path — injected handler panics included — releases it.
    pub fn connection(&self, transport: Transport) -> ConnectionGuard<'_> {
        self.add(Metric::ConnectionsAccepted, transport as usize, 1);
        self.add(Metric::ConnectionsActive, transport as usize, 1);
        ConnectionGuard {
            telemetry: self,
            transport,
        }
    }

    /// Books a snapshot checkpoint. A success (`Some(micros)`) records its
    /// duration and wall-clock second and ends the consecutive-failure
    /// streak; a failure (`None`) counts and extends the streak.
    pub fn record_checkpoint(&self, elapsed_micros: Option<u64>) {
        match elapsed_micros {
            Some(micros) => {
                self.observe(Metric::CheckpointDuration, 0, micros);
                let unix = SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map_or(0, |d| d.as_secs());
                self.set(Metric::SnapshotLastSuccess, 0, unix);
                self.set(Metric::SnapshotConsecutiveFailures, 0, 0);
            }
            None => {
                self.add(Metric::SnapshotFailures, 0, 1);
                self.add(Metric::SnapshotConsecutiveFailures, 0, 1);
            }
        }
    }

    /// Whether a completed request deserves a structured log line: an
    /// internal failure, or over the `--slow-ms` threshold. The caller
    /// emits it through [`crate::log::rate_limited`].
    pub fn should_log(&self, outcome: Outcome, total_micros: u64) -> bool {
        self.enabled
            && (matches!(outcome, Outcome::Internal)
                || self
                    .slow_log_micros
                    .is_some_and(|threshold| total_micros >= threshold))
    }

    /// Snapshots every row: recorded rows from this registry, engine-owned
    /// rows from `engine` (each row's samples, in label-index order), then
    /// the derived rows.
    pub fn report(&self, engine: Vec<(Metric, Vec<u64>)>) -> MetricsReport {
        let mut report = MetricsReport {
            values: vec![Vec::new(); FAMILIES.len()],
            histograms: vec![Vec::new(); FAMILIES.len()],
        };
        for (row, family) in FAMILIES.iter().enumerate() {
            let slots = self.offsets[row]..self.offsets[row] + family.dim.width();
            match (family.source, family.ty) {
                (Source::Recorded, Type::Histogram) => {
                    report.histograms[row] = self.histograms[slots]
                        .iter()
                        .map(|h| h.snapshot())
                        .collect();
                }
                (Source::Recorded, ty) => {
                    let load = |slot: &AtomicU64| match (ty, slot.load(Ordering::Relaxed)) {
                        (Type::Gauge, value) => (value as i64).max(0) as u64,
                        (_, value) => value,
                    };
                    report.values[row] = self.scalars[slots].iter().map(load).collect();
                }
                (Source::Engine | Source::Derived, _) => {}
            }
        }
        for (metric, values) in engine {
            debug_assert_eq!(FAMILIES[metric as usize].source, Source::Engine);
            report.values[metric as usize] = values;
        }
        // All-kinds request duration: the bucket-wise union of the per-kind
        // histograms (bounds are shared, so the merge is exact), for an
        // external scraper's own histogram_quantile.
        let mut duration = HistogramSnapshot::default();
        for snapshot in report.histograms(Metric::RequestLatency) {
            for (total, bucket) in duration.buckets.iter_mut().zip(snapshot.buckets) {
                *total += bucket;
            }
            duration.count += snapshot.count;
            duration.sum += snapshot.sum;
        }
        let requests_total = report.values(Metric::Requests).iter().sum();
        for (metric, value) in [
            (Metric::BuildInfo, 1),
            (Metric::RequestsTotal, requests_total),
            (Metric::RequestDurationP50, duration.quantile(0.50)),
            (Metric::RequestDurationP90, duration.quantile(0.90)),
            (Metric::RequestDurationP99, duration.quantile(0.99)),
        ] {
            report.values[metric as usize] = vec![value];
        }
        report.histograms[Metric::RequestDuration as usize] = vec![duration];
        report
    }
}

/// An open connection's place in the active-connection gauge; see
/// [`Telemetry::connection`].
#[derive(Debug)]
pub struct ConnectionGuard<'t> {
    telemetry: &'t Telemetry,
    transport: Transport,
}

impl Drop for ConnectionGuard<'_> {
    fn drop(&mut self) {
        self.telemetry
            .add(Metric::ConnectionsActive, self.transport as usize, -1);
    }
}

// ---------------------------------------------------------------------------
// Report + rendering
// ---------------------------------------------------------------------------

/// A point-in-time copy of every metric the daemon exposes, renderable as
/// structured JSON (`metrics` proto frame) or Prometheus text
/// (`GET /v1/metrics`).
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Per table row, the samples of a counter or gauge row in label-index
    /// order (empty for a histogram row)...
    values: Vec<Vec<u64>>,
    /// ...and of a histogram row (empty for any other row).
    histograms: Vec<Vec<HistogramSnapshot>>,
}

impl MetricsReport {
    /// The samples of a counter or gauge row, in label-index order (empty
    /// for a histogram row).
    pub fn values(&self, metric: Metric) -> &[u64] {
        &self.values[metric as usize]
    }

    /// The samples of a histogram row, in label-index order (empty for a
    /// counter or gauge row).
    pub fn histograms(&self, metric: Metric) -> &[HistogramSnapshot] {
        &self.histograms[metric as usize]
    }

    /// Structured JSON rendering, used by the `metrics` proto frame,
    /// `GET /v1/metrics?format=json` and `pathcover-cli metrics`: each
    /// sample lands at its row's JSON path, a counter or gauge as a number
    /// and a histogram as its [`HistogramSnapshot::summary_json`].
    pub fn to_json(&self) -> Json {
        let mut root = Json::Obj(Vec::new());
        for (row, family) in FAMILIES.iter().enumerate() {
            if family.json.is_empty() {
                continue;
            }
            let values: Vec<Json> = (self.values[row].iter().map(|&v| Json::num(v)))
                .chain(self.histograms[row].iter().map(|s| s.summary_json()))
                .collect();
            if values.is_empty() && family.dim == Dim::Shard {
                // An engine without shards still reports its (empty) array.
                let prefix = family.json.split(".*").next().unwrap_or_default();
                let node = json_slot(&mut root, prefix.split('.'));
                if *node == Json::Null {
                    *node = Json::Arr(Vec::new());
                }
            }
            for (index, value) in values.into_iter().enumerate() {
                let labels = family.dim.labels(index);
                let mut labels = labels.iter().map(|(_, value)| value.as_str());
                let path = family.json.split('.').map(|segment| match segment {
                    "*" => labels.next().expect("one label per `*`"),
                    key => key,
                });
                *json_slot(&mut root, path) = value;
            }
        }
        root
    }

    /// Prometheus text exposition (format 0.0.4) rendering, served by
    /// `GET /v1/metrics`. Histograms use cumulative `le` buckets over the
    /// power-of-two bounds plus `+Inf`; all latency units are
    /// microseconds (suffix `_us`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(16 * 1024);
        for (row, family) in FAMILIES.iter().enumerate() {
            let name = family.name;
            if name.is_empty() {
                continue;
            }
            out.push_str(&format!(
                "# HELP {name} {}\n# TYPE {name} {}\n",
                family.help,
                family.ty.as_str()
            ));
            let labels = |index| -> Vec<String> {
                let pairs = family.dim.labels(index).into_iter();
                pairs
                    .map(|(label, value)| format!("{label}=\"{value}\""))
                    .collect()
            };
            for (index, value) in self.values[row].iter().enumerate() {
                out.push_str(&format!("{} {value}\n", series(name, &labels(index))));
            }
            for (index, snapshot) in self.histograms[row].iter().enumerate() {
                render_histogram(&mut out, name, &labels(index), snapshot);
            }
        }
        out
    }
}

/// Walks `path` down from `node` and returns the slot at its end, creating
/// each missing field and container on the way. A numeric segment (a
/// shard label) indexes an array; any other segment keys an object.
fn json_slot<'a>(mut node: &mut Json, path: impl IntoIterator<Item = &'a str>) -> &mut Json {
    for segment in path {
        let index = segment.parse::<usize>().ok();
        if *node == Json::Null {
            *node = match index {
                Some(_) => Json::Arr(Vec::new()),
                None => Json::Obj(Vec::new()),
            };
        }
        node = match (node, index) {
            (Json::Arr(items), Some(index)) => {
                if index == items.len() {
                    items.push(Json::Null);
                }
                &mut items[index]
            }
            (Json::Obj(fields), None) => {
                let at = fields.iter().position(|(k, _)| k == segment);
                let at = at.unwrap_or_else(|| {
                    fields.push((segment.to_string(), Json::Null));
                    fields.len() - 1
                });
                &mut fields[at].1
            }
            _ => unreachable!("metric-table JSON paths never clash"),
        };
    }
    node
}

/// Renders one labelled histogram series in Prometheus exposition shape:
/// cumulative `_bucket{le=...}` lines over the power-of-two bounds, the
/// `+Inf` bucket, then `_sum` and `_count`.
fn render_histogram(out: &mut String, name: &str, labels: &[String], snap: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    for (i, &bucket) in snap.buckets.iter().enumerate() {
        cumulative += bucket;
        let le = match Histogram::bucket_upper(i) {
            u64::MAX => "+Inf".to_string(),
            bound => bound.to_string(),
        };
        let labels = [labels, &[format!("le=\"{le}\"")]].concat();
        let bucket = series(&format!("{name}_bucket"), &labels);
        out.push_str(&format!("{bucket} {cumulative}\n"));
    }
    for (suffix, value) in [("sum", snap.sum), ("count", snap.count)] {
        let series = series(&format!("{name}_{suffix}"), labels);
        out.push_str(&format!("{series} {value}\n"));
    }
}

/// `name{label="value",...}`, or the bare name without labels.
fn series(name: &str, labels: &[String]) -> String {
    if labels.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{}}}", labels.join(","))
    }
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
        tel.observe(Metric::StageLatency, Stage::Solve as usize, 10);
        tel.record_request(QueryKind::Recognize, Outcome::Ok, 10);
        let _connection = tel.connection(Transport::Http);
        tel.record_checkpoint(Some(5));
        assert!(!tel.should_log(Outcome::Internal, u64::MAX));
        let report = tel.report(Vec::new());
        assert_eq!(report.values(Metric::RequestsTotal), [0]);
        let stages = report.histograms(Metric::StageLatency);
        assert_eq!(stages[Stage::Solve as usize].count, 0);
        let accepted = report.values(Metric::ConnectionsAccepted);
        assert_eq!(accepted[Transport::Http as usize], 0);
    }

    #[test]
    fn slow_log_gate_honours_threshold_and_rate_limit() {
        // The gate decides eligibility only; the line itself goes through
        // `log::rate_limited`, whose monotonic window `log`'s own tests pin.
        let tel = Telemetry::new(true, Some(1_000));
        assert!(!tel.should_log(Outcome::Ok, 999));
        assert!(tel.should_log(Outcome::Ok, 1_000));
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
        tel.observe(Metric::StageLatency, Stage::Solve as usize, 120);
        let _connection = tel.connection(Transport::Framed);
        tel.add(Metric::OversizeRejects, Transport::Http as usize, 1);
        tel.record_checkpoint(Some(2_000));
        let report = tel.report(vec![
            (Metric::InflightRequests, vec![0]),
            (Metric::Uptime, vec![7]),
        ]);
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
        assert_eq!(report.values(Metric::RequestsTotal), [1]);
    }

    #[test]
    fn metrics_json_mirrors_the_registry() {
        let tel = Telemetry::new(true, None);
        tel.record_request(QueryKind::MinCoverSize, Outcome::Ok, 40);
        tel.record_request(QueryKind::MinCoverSize, Outcome::Invalid, 10);
        tel.observe(Metric::StageLatency, Stage::Ingest as usize, 5);
        let report = tel.report(vec![(Metric::Uptime, vec![3])]);
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
        // A shard row with no samples still renders its (empty) array.
        let per_shard = json.get("cache").and_then(|c| c.get("per_shard"));
        assert_eq!(per_shard, Some(&Json::Arr(Vec::new())));
    }

    #[test]
    fn resilience_counters_round_trip() {
        let tel = Telemetry::new(true, None);
        tel.add(Metric::RejectedOverload, 0, 1);
        tel.add(Metric::RejectedOverload, 0, 1);
        tel.add(Metric::DeadlineExceeded, 0, 1);
        tel.add(Metric::AcceptErrors, Transport::Framed as usize, 1);
        tel.record_checkpoint(None);
        tel.record_checkpoint(None);
        let report = tel.report(vec![(Metric::InflightRequests, vec![1])]);
        assert_eq!(report.values(Metric::RejectedOverload), [2]);
        assert_eq!(report.values(Metric::DeadlineExceeded), [1]);
        assert_eq!(report.values(Metric::InflightRequests), [1]);
        let accept_errors = report.values(Metric::AcceptErrors);
        assert_eq!(accept_errors[Transport::Framed as usize], 1);
        assert_eq!(report.values(Metric::SnapshotConsecutiveFailures), [2]);
        assert_eq!(report.values(Metric::SnapshotFailures), [2]);
        // A success resets the streak but not the lifetime total.
        tel.record_checkpoint(Some(10));
        let report = tel.report(vec![(Metric::InflightRequests, vec![0])]);
        assert_eq!(report.values(Metric::SnapshotConsecutiveFailures), [0]);
        assert_eq!(report.values(Metric::SnapshotFailures), [2]);
        assert_eq!(report.values(Metric::InflightRequests), [0]);
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

    /// Replaces the text between each `start` marker and the next `end`
    /// character with `<masked>`.
    fn mask(text: &str, start: &str, end: char) -> String {
        let mut out = String::new();
        let mut rest = text;
        while let Some(at) = rest.find(start) {
            let value = at + start.len();
            out.push_str(&rest[..value]);
            out.push_str("<masked>");
            rest = &rest[value..];
            rest = &rest[rest.find(end).unwrap_or(rest.len())..];
        }
        out.push_str(rest);
        out
    }

    /// Records a distinct non-zero value into every family, so a row
    /// rendered under the wrong name, label or JSON path changes the text.
    fn populated_report() -> MetricsReport {
        let tel = Telemetry::new(true, None);
        for (k, &kind) in QueryKind::ALL.iter().enumerate() {
            for (o, &outcome) in Outcome::ALL.iter().enumerate() {
                for rep in 0..(k * 4 + o + 1) as u64 {
                    tel.record_request(kind, outcome, 3 + 7 * k as u64 + 50 * o as u64 + rep);
                }
            }
        }
        for s in 0..Stage::ALL.len() {
            for rep in 0..(s + 1) as u64 {
                tel.observe(Metric::StageLatency, s, 100 * (s as u64 + 1) + 3 * rep);
            }
        }
        let mut open = Vec::new();
        for (t, &transport) in Transport::ALL.iter().enumerate() {
            open.extend((0..9 + 4 * t).map(|_| tel.connection(transport)));
            open.truncate(open.len() - 2);
            tel.add(Metric::IdleTimeouts, t, 3 + 3 * t as i64);
            tel.add(Metric::OversizeRejects, t, 4 + 4 * t as i64);
            tel.add(Metric::AcceptErrors, t, 5 + 5 * t as i64);
        }
        for checkpoint in [
            None,
            Some(2_000),
            None,
            None,
            Some(5_000),
            Some(70_000),
            None,
            None,
        ] {
            tel.record_checkpoint(checkpoint);
        }
        for (metric, count) in [
            (Metric::RejectedOverload, 14),
            (Metric::DeadlineExceeded, 15),
            (Metric::SessionsCreated, 21),
            (Metric::SessionsDropped, 2),
            (Metric::SessionsExpired, 3),
            (Metric::SessionMutations, 19),
            (Metric::SessionRecognizeIncremental, 22),
            (Metric::SessionRecognizeRebuild, 23),
        ] {
            tel.add(metric, 0, count);
        }
        let shards = |base: u64| (0..8).map(|i| base + i).collect();
        tel.report(vec![
            (Metric::InflightRequests, vec![17]),
            (Metric::SessionsLive, vec![16]),
            (Metric::CacheHits, vec![101]),
            (Metric::CacheMisses, vec![102]),
            (Metric::CacheEvictions, vec![103]),
            (Metric::CacheEntries, vec![104]),
            (Metric::CacheShardHits, shards(200)),
            (Metric::CacheShardMisses, shards(300)),
            (Metric::CacheShardEvictions, shards(400)),
            (Metric::CacheShardEntries, shards(500)),
            (Metric::Uptime, vec![4242]),
        ])
    }

    #[test]
    fn both_exports_match_the_golden_files() {
        let report = populated_report();
        let prom = mask(&report.to_prometheus(), "pc_build_info{", '}');
        let prom = mask(&prom, "\npc_snapshot_last_success_unixtime ", '\n');
        let json = mask(
            &format!("{}\n", report.to_json()),
            "\"last_success_unix\":",
            '}',
        );
        for (name, actual, golden) in [
            (
                "metrics.prom",
                prom,
                include_str!("../tests/golden/metrics.prom"),
            ),
            (
                "metrics.json",
                json,
                include_str!("../tests/golden/metrics.json"),
            ),
        ] {
            if let Some((line, (a, g))) = actual
                .lines()
                .zip(golden.lines())
                .enumerate()
                .find(|(_, (a, g))| a != g)
            {
                panic!("{name} line {}: got `{a}`, golden `{g}`", line + 1);
            }
            assert_eq!(actual, golden, "{name} differs in length");
        }
    }

    #[test]
    fn the_readme_lists_every_exported_family() {
        let readme = include_str!("../../../README.md");
        for family in FAMILIES.iter().filter(|f| !f.name.is_empty()) {
            assert!(
                readme.contains(&format!("`{}`", family.name)),
                "README.md's metrics table lacks `{}`",
                family.name
            );
        }
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
