//! Hierarchical request spans and the bounded in-memory flight recorder.
//!
//! The telemetry registry ([`crate::telemetry`]) answers *how the service is
//! doing* in aggregate; this module answers *what one specific request did*.
//! A request whose context ([`crate::telemetry::RequestCtx`]) carries a
//! [`SpanCollector`] has a trace: its [`crate::telemetry::Timeline`] appends
//! one child span per segment it closes (pipeline stages, annotated cache
//! lookups, admission and session-lock waits, snapshot checkpoints) as
//! offsets from the trace's start, and the jobs of a batch share their
//! batch's collector. A span is one push under an uncontended lock; a trace
//! keeps at most [`MAX_TRACE_SPANS`] and counts the rest. Nothing is
//! retained until the request finishes, when whoever opened its trace — the
//! request edge, or the engine for a library call — commits it to the
//! [`FlightRecorder`] in one call, so a request leaves at most one trace.
//! The root span ends at that commit, on the collector's clock, so it ends
//! after every child span.
//!
//! The recorder is a bounded ring (default [`DEFAULT_TRACE_CAPACITY`]
//! traces) with **tail sampling**: traces that errored, were shed as
//! overloaded, or exceeded their deadline are always kept ("protected"),
//! the rolling slowest-N are kept, and the remaining traffic is sampled one
//! in [`TraceConfig::sample_every`]. Eviction prefers the oldest
//! unprotected, not-currently-slowest entry, so a burst of healthy traffic
//! cannot flush the evidence of an incident out of the buffer.
//!
//! Traces export three ways: JSON summaries ([`FlightRecorder::list_json`]),
//! one full trace ([`FinishedTrace::to_json`]), and Chrome trace-event JSON
//! ([`FinishedTrace::to_chrome_json`]) loadable in `chrome://tracing` or
//! Perfetto. All three are served over both transports — see
//! [`crate::http`] (`GET /v1/trace`), [`crate::proto`] (the `trace` verb)
//! and [`crate::v2`] (the `trace_*` op family).

use crate::json::Json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Default capacity of the flight-recorder ring buffer, in traces.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// Default size of the rolling slowest-N set that tail sampling always
/// retains alongside protected (errored / overloaded / deadline-exceeded)
/// traces.
pub const DEFAULT_SLOWEST_KEPT: usize = 16;

/// The most spans one trace keeps: a single request records at most about
/// eight, a batch about five per job, so this keeps some 50 jobs and a full
/// ring within a few MB. The rest are counted in
/// [`FinishedTrace::spans_dropped`].
pub const MAX_TRACE_SPANS: usize = 256;

/// One completed child span of a request: a named interval measured as
/// microsecond offsets from the request's root span start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What the interval covers (`stage:solve`, `cache:lookup`,
    /// `admission:wait`, ...). Namespaced by a `prefix:` so consumers can
    /// group without parsing free text.
    pub name: &'static str,
    /// Start offset from the root span, in microseconds.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Optional key/value annotations (shard index, hit or miss, ...), kept
    /// as strings so the span stays schema-free.
    pub detail: Vec<(String, String)>,
}

impl Span {
    /// Builds a span with no annotations.
    pub fn new(name: &'static str, start_us: u64, dur_us: u64) -> Span {
        Span {
            name,
            start_us,
            dur_us,
            detail: Vec::new(),
        }
    }

    /// Adds one key/value annotation (builder style).
    pub fn with_detail(mut self, key: impl Into<String>, value: impl Into<String>) -> Span {
        self.detail.push((key.into(), value.into()));
        self
    }

    /// The span as a JSON object (`name` / `start_us` / `dur_us` /
    /// `detail`).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::str(self.name)),
            ("start_us", Json::num(self.start_us)),
            ("dur_us", Json::num(self.dur_us)),
        ];
        if !self.detail.is_empty() {
            fields.push(("detail", detail_json(&self.detail)));
        }
        Json::obj(fields)
    }
}

/// Annotations as a JSON object of strings.
fn detail_json(detail: &[(String, String)]) -> Json {
    let fields = detail
        .iter()
        .map(|(k, v)| (k.clone(), Json::str(v.clone())));
    Json::Obj(fields.collect())
}

/// One Chrome trace-event object (`ph:"X"` complete event) on the request's
/// one track. Perfetto's JSON importer wants `args` present, even empty.
fn chrome_event(name: &str, start_us: u64, dur_us: u64, detail: &[(String, String)]) -> Json {
    Json::obj(vec![
        ("ph", Json::str("X")),
        ("ts", Json::num(start_us)),
        ("dur", Json::num(dur_us)),
        ("name", Json::str(name)),
        ("pid", Json::num(1u64)),
        ("tid", Json::num(1u64)),
        ("args", detail_json(detail)),
    ])
}

/// Per-request span sink, carried on
/// [`crate::telemetry::RequestCtx::collector`].
///
/// Opened by whoever owns the request ([`FlightRecorder::begin`]) and
/// shared by `Arc` with every job and subsystem the request touches.
#[derive(Debug)]
pub struct SpanCollector {
    started: Instant,
    /// The kept spans and how many were dropped past [`MAX_TRACE_SPANS`].
    spans: Mutex<(Vec<Span>, u64)>,
}

impl SpanCollector {
    /// Opens a collector whose clock starts now.
    pub fn start() -> Arc<SpanCollector> {
        Arc::new(SpanCollector {
            started: Instant::now(),
            spans: Mutex::new((Vec::with_capacity(16), 0)),
        })
    }

    /// Microseconds from the root span's opening to `at` (0 if earlier).
    pub fn offset_us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.started).as_micros() as u64
    }

    /// Records a span; past [`MAX_TRACE_SPANS`] it is only counted.
    pub fn push(&self, span: Span) {
        if let Ok(mut spans) = self.spans.lock() {
            if spans.0.len() < MAX_TRACE_SPANS {
                spans.0.push(span);
            } else {
                spans.1 += 1;
            }
        }
    }

    /// Drains the kept spans, ordered by start offset, with the count of
    /// those dropped past the cap.
    pub fn take(&self) -> (Vec<Span>, u64) {
        let (mut spans, dropped) = self
            .spans
            .lock()
            .map(|mut guard| std::mem::take(&mut *guard))
            .unwrap_or_default();
        spans.sort_by_key(|span| span.start_us);
        (spans, dropped)
    }
}

/// How a request ended, as its trace records it: what the owner of the
/// trace commits.
#[derive(Debug)]
pub(crate) struct TraceEnd {
    /// The query kind, or the operation (`batch`, `snapshot`, ...).
    pub(crate) kind: &'static str,
    /// `ok`, or the error code (a batch's is its first failed job's).
    pub(crate) outcome: &'static str,
    /// Whether tail sampling must keep the trace.
    pub(crate) protected: bool,
}

impl TraceEnd {
    pub(crate) fn new(kind: &'static str, outcome: &'static str, protected: bool) -> Self {
        TraceEnd {
            kind,
            outcome,
            protected,
        }
    }
}

/// A completed, committed request trace as retained by the
/// [`FlightRecorder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedTrace {
    /// The request's trace ID (the join key across logs, metrics and
    /// traces).
    pub trace_id: String,
    /// Query kind (or pseudo-kind for non-query verbs), for display.
    pub kind: String,
    /// Outcome string (`ok` / `invalid` / `internal` / ... or
    /// `deadline_exceeded` / `overloaded`).
    pub outcome: String,
    /// Wall-clock total of the root span, microseconds.
    pub total_us: u64,
    /// Commit time as Unix milliseconds, for display ordering.
    pub unix_ms: u64,
    /// Monotonic commit sequence number (recorder-local).
    pub seq: u64,
    /// Whether tail sampling protects this trace from preferential
    /// eviction (errored / overloaded / deadline-exceeded requests).
    pub protected: bool,
    /// The child spans, ordered by start offset.
    pub spans: Vec<Span>,
    /// Spans recorded past [`MAX_TRACE_SPANS`] and not kept; exported as
    /// `spans_dropped` only when nonzero.
    pub spans_dropped: u64,
}

impl FinishedTrace {
    /// One-line summary object for trace listings.
    pub fn summary_json(&self) -> Json {
        self.json(Json::num(self.spans.len() as u64))
    }

    /// The full trace as a JSON object, spans included.
    pub fn to_json(&self) -> Json {
        self.json(Json::Arr(self.spans.iter().map(Span::to_json).collect()))
    }

    /// The trace's fields with `spans` (a count or the spans themselves).
    fn json(&self, spans: Json) -> Json {
        let mut fields = vec![
            ("trace_id", Json::str(self.trace_id.clone())),
            ("kind", Json::str(self.kind.clone())),
            ("outcome", Json::str(self.outcome.clone())),
            ("total_us", Json::num(self.total_us)),
            ("unix_ms", Json::num(self.unix_ms)),
            ("seq", Json::num(self.seq)),
            ("protected", Json::Bool(self.protected)),
            ("spans", spans),
        ];
        if self.spans_dropped > 0 {
            fields.push(("spans_dropped", Json::num(self.spans_dropped)));
        }
        Json::obj(fields)
    }

    /// The trace in Chrome trace-event JSON (the `{"traceEvents": [...]}`
    /// shape), loadable in `chrome://tracing` or Perfetto. The root span is
    /// the first event; every event carries `ph` / `ts` / `dur` / `name`.
    pub fn to_chrome_json(&self) -> Json {
        let root = [
            ("trace_id".to_string(), self.trace_id.clone()),
            ("outcome".to_string(), self.outcome.clone()),
        ];
        let name = format!("request:{}", self.kind);
        let mut events = vec![chrome_event(&name, 0, self.total_us, &root)];
        events.extend(
            (self.spans.iter()).map(|s| chrome_event(s.name, s.start_us, s.dur_us, &s.detail)),
        );
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

/// Flight-recorder configuration, embedded in
/// [`crate::engine::EngineConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. Off means no collectors are allocated and no span
    /// is ever built.
    pub enabled: bool,
    /// Ring capacity in traces.
    pub capacity: usize,
    /// Keep one in this many unprotected, not-slowest traces (1 keeps
    /// every trace the ring has room for; 10 keeps every tenth).
    pub sample_every: u64,
    /// Size of the rolling slowest-N set retained regardless of sampling.
    pub slowest_kept: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: true,
            capacity: DEFAULT_TRACE_CAPACITY,
            sample_every: 1,
            slowest_kept: DEFAULT_SLOWEST_KEPT,
        }
    }
}

impl TraceConfig {
    /// A disabled configuration (no collectors, no retention).
    pub fn off() -> TraceConfig {
        TraceConfig {
            enabled: false,
            ..TraceConfig::default()
        }
    }
}

/// The bounded, tail-sampled ring of finished traces.
///
/// All mutation happens in [`FlightRecorder::commit`] — one lock
/// acquisition per finished request (a batch is one), nothing on the hot
/// path.
#[derive(Debug)]
pub struct FlightRecorder {
    config: TraceConfig,
    seq: AtomicU64,
    sample_counter: AtomicU64,
    sampled_out: AtomicU64,
    evicted: AtomicU64,
    inner: Mutex<VecDeque<FinishedTrace>>,
}

impl FlightRecorder {
    /// Builds a recorder for a configuration. A zero capacity is clamped
    /// to 1 so `commit` never divides the ring away.
    pub fn new(mut config: TraceConfig) -> FlightRecorder {
        config.capacity = config.capacity.max(1);
        config.sample_every = config.sample_every.max(1);
        FlightRecorder {
            config,
            seq: AtomicU64::new(0),
            sample_counter: AtomicU64::new(0),
            sampled_out: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Whether tracing is on at all.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// The active configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Opens a span collector for a new request, or `None` when tracing is
    /// disabled (the hot path then never touches the trace clock).
    pub fn begin(&self) -> Option<Arc<SpanCollector>> {
        if self.config.enabled {
            Some(SpanCollector::start())
        } else {
            None
        }
    }

    /// Commits one finished trace, applying tail sampling and ring
    /// eviction. `protected` marks errored / overloaded /
    /// deadline-exceeded requests that must always be retained; `spans`
    /// is a [`SpanCollector::take`]: the kept spans and the dropped count.
    pub fn commit(
        &self,
        trace_id: &str,
        kind: &str,
        outcome: &str,
        total_us: u64,
        protected: bool,
        (spans, spans_dropped): (Vec<Span>, u64),
    ) {
        if !self.config.enabled {
            return;
        }
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let Ok(mut ring) = self.inner.lock() else {
            return;
        };
        if !protected && !self.qualifies_as_slow(&ring, total_us) {
            let tick = self.sample_counter.fetch_add(1, Ordering::Relaxed);
            if tick % self.config.sample_every != 0 {
                self.sampled_out.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let trace = FinishedTrace {
            trace_id: trace_id.to_string(),
            kind: kind.to_string(),
            outcome: outcome.to_string(),
            total_us,
            unix_ms,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            protected,
            spans,
            spans_dropped,
        };
        ring.push_back(trace);
        while ring.len() > self.config.capacity {
            self.evict_one(&mut ring);
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether a duration lands in the current slowest-N set (always true
    /// while the set is not yet full).
    fn qualifies_as_slow(&self, ring: &VecDeque<FinishedTrace>, total_us: u64) -> bool {
        let n = self.config.slowest_kept;
        if n == 0 {
            return false;
        }
        if ring.len() < n {
            return true;
        }
        total_us >= self.slowest_threshold(ring)
    }

    /// The N-th largest total among retained traces (the floor a new trace
    /// must meet to displace the slowest-N set).
    fn slowest_threshold(&self, ring: &VecDeque<FinishedTrace>) -> u64 {
        let n = self.config.slowest_kept.min(ring.len());
        if n == 0 {
            return u64::MAX;
        }
        let mut totals: Vec<u64> = ring.iter().map(|t| t.total_us).collect();
        totals.sort_unstable_by(|a, b| b.cmp(a));
        totals[n - 1]
    }

    /// Evicts one trace: the oldest entry that is neither protected nor in
    /// the current slowest-N set, falling back to the oldest overall so
    /// memory stays bounded even when everything is protected.
    fn evict_one(&self, ring: &mut VecDeque<FinishedTrace>) {
        let threshold = self.slowest_threshold(ring);
        let victim = ring
            .iter()
            .position(|t| !t.protected && t.total_us < threshold)
            .unwrap_or(0);
        ring.remove(victim);
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.inner.lock().map(|ring| ring.len()).unwrap_or(0)
    }

    /// Whether the recorder holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One retained trace by ID (the most recent commit wins if a client
    /// reused an ID).
    pub fn get(&self, trace_id: &str) -> Option<FinishedTrace> {
        let ring = self.inner.lock().ok()?;
        ring.iter().rev().find(|t| t.trace_id == trace_id).cloned()
    }

    /// Summaries of every retained trace, newest first, wrapped with
    /// recorder counters:
    /// `{"traces": [...], "retained": N, "capacity": C, "sampled_out": S,
    /// "evicted": E, "enabled": bool}`.
    pub fn list_json(&self) -> Json {
        let summaries = self
            .inner
            .lock()
            .map(|ring| {
                ring.iter()
                    .rev()
                    .map(FinishedTrace::summary_json)
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default();
        Json::obj(vec![
            ("retained", Json::num(summaries.len() as u64)),
            ("capacity", Json::num(self.config.capacity as u64)),
            (
                "sampled_out",
                Json::num(self.sampled_out.load(Ordering::Relaxed)),
            ),
            ("evicted", Json::num(self.evicted.load(Ordering::Relaxed))),
            ("enabled", Json::Bool(self.config.enabled)),
            ("traces", Json::Arr(summaries)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_recorder(capacity: usize, slowest: usize) -> FlightRecorder {
        FlightRecorder::new(TraceConfig {
            enabled: true,
            capacity,
            sample_every: 1,
            slowest_kept: slowest,
        })
    }

    #[test]
    fn collector_records_ordered_spans() {
        let ctx = crate::telemetry::RequestCtx {
            collector: Some(SpanCollector::start()),
            ..crate::telemetry::RequestCtx::with_trace("t")
        };
        let collector = ctx.collector.as_ref().unwrap();
        let telemetry = crate::telemetry::Telemetry::new(true, None);
        crate::telemetry::Timeline::new(&telemetry, &ctx).span("stage:ingest");
        collector.push(Span::new("stage:solve", 50, 10).with_detail("n", "8"));
        collector.push(Span::new("stage:recognize", 5, 3));
        let (spans, _) = collector.take();
        assert_eq!(spans.len(), 3);
        assert!(spans.windows(2).all(|w| w[0].start_us <= w[1].start_us));
        assert_eq!(spans[2].detail, vec![("n".to_string(), "8".to_string())]);
        // A second take is empty: commit consumes the collector's spans.
        assert!(collector.take().0.is_empty());
    }

    #[test]
    fn a_trace_keeps_at_most_the_cap_and_counts_the_rest() {
        let collector = SpanCollector::start();
        for i in 0..MAX_TRACE_SPANS as u64 + 5 {
            collector.push(Span::new("stage:solve", i, 1));
        }
        let recorder = small_recorder(4, 0);
        recorder.commit("big", "batch", "ok", 9, false, collector.take());
        let trace = recorder.get("big").expect("retained");
        assert_eq!(trace.spans.len(), MAX_TRACE_SPANS);
        assert_eq!(trace.spans_dropped, 5);
        for json in [trace.summary_json(), trace.to_json()] {
            assert_eq!(json.get("spans_dropped").and_then(Json::as_u64), Some(5));
        }
        // A trace that dropped nothing has no such field at all.
        recorder.commit("small", "q", "ok", 1, false, (vec![], 0));
        let small = recorder.get("small").expect("retained");
        assert!(small.to_json().get("spans_dropped").is_none());
        assert!(small.summary_json().get("spans_dropped").is_none());
    }

    #[test]
    fn ring_evicts_oldest_unprotected_first() {
        let recorder = small_recorder(3, 0);
        recorder.commit("t-old", "recognize", "ok", 10, false, (vec![], 0));
        recorder.commit("t-err", "recognize", "internal", 10, true, (vec![], 0));
        recorder.commit("t-new1", "recognize", "ok", 10, false, (vec![], 0));
        recorder.commit("t-new2", "recognize", "ok", 10, false, (vec![], 0));
        // Capacity 3: t-old (oldest unprotected) is evicted, the protected
        // error trace survives.
        assert_eq!(recorder.len(), 3);
        assert!(recorder.get("t-old").is_none());
        assert!(recorder.get("t-err").is_some());
        assert!(recorder.get("t-new1").is_some());
        assert!(recorder.get("t-new2").is_some());
    }

    #[test]
    fn all_error_traces_survive_a_healthy_flood() {
        let recorder = small_recorder(8, 2);
        for i in 0..4 {
            recorder.commit(&format!("err-{i}"), "q", "internal", 5, true, (vec![], 0));
        }
        for i in 0..100 {
            recorder.commit(&format!("ok-{i}"), "q", "ok", 1, false, (vec![], 0));
        }
        for i in 0..4 {
            assert!(
                recorder.get(&format!("err-{i}")).is_some(),
                "error trace err-{i} must never be evicted by healthy traffic"
            );
        }
        assert_eq!(recorder.len(), 8);
    }

    #[test]
    fn slowest_n_set_is_retained() {
        let recorder = small_recorder(6, 3);
        // Three slow outliers early, then a flood of fast traces.
        recorder.commit("slow-1", "q", "ok", 900, false, (vec![], 0));
        recorder.commit("slow-2", "q", "ok", 800, false, (vec![], 0));
        recorder.commit("slow-3", "q", "ok", 700, false, (vec![], 0));
        for i in 0..50 {
            recorder.commit(&format!("fast-{i}"), "q", "ok", 1 + i, false, (vec![], 0));
        }
        for id in ["slow-1", "slow-2", "slow-3"] {
            assert!(
                recorder.get(id).is_some(),
                "slowest-N member {id} must survive the flood"
            );
        }
    }

    #[test]
    fn sampling_drops_the_configured_fraction_but_never_errors() {
        let recorder = FlightRecorder::new(TraceConfig {
            enabled: true,
            capacity: 1000,
            sample_every: 10,
            slowest_kept: 0,
        });
        for i in 0..100 {
            recorder.commit(&format!("ok-{i}"), "q", "ok", 1, false, (vec![], 0));
        }
        for i in 0..7 {
            recorder.commit(&format!("err-{i}"), "q", "internal", 1, true, (vec![], 0));
        }
        // 1-in-10 of the healthy hundred, plus every error.
        assert_eq!(recorder.len(), 10 + 7);
        for i in 0..7 {
            assert!(recorder.get(&format!("err-{i}")).is_some());
        }
    }

    #[test]
    fn disabled_recorder_retains_nothing_and_hands_out_no_collectors() {
        let recorder = FlightRecorder::new(TraceConfig::off());
        assert!(recorder.begin().is_none());
        recorder.commit("t", "q", "internal", 1, true, (vec![], 0));
        assert!(recorder.is_empty());
    }

    #[test]
    fn chrome_export_has_required_keys_and_a_root_event() {
        let trace = FinishedTrace {
            trace_id: "pc-abc".to_string(),
            kind: "min_cover_size".to_string(),
            outcome: "ok".to_string(),
            total_us: 120,
            unix_ms: 0,
            seq: 0,
            protected: false,
            spans: vec![
                Span::new("stage:solve", 10, 100),
                Span::new("cache:lookup", 20, 30).with_detail("shard", "0"),
            ],
            spans_dropped: 0,
        };
        let chrome = trace.to_chrome_json();
        let Some(Json::Arr(events)) = chrome.get("traceEvents") else {
            panic!("missing traceEvents: {chrome}");
        };
        assert_eq!(events.len(), 3, "root + two child spans");
        for event in events {
            for key in ["ph", "ts", "dur", "name"] {
                assert!(event.get(key).is_some(), "event missing {key}: {event}");
            }
        }
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("trace_id"))
                .and_then(Json::as_str),
            Some("pc-abc")
        );
        assert_eq!(events[2].get("tid").and_then(Json::as_u64), Some(1));
        // The export round-trips through the parser (valid JSON).
        assert!(Json::parse(&chrome.to_string()).is_ok());
    }

    #[test]
    fn list_is_newest_first_and_carries_counters() {
        let recorder = small_recorder(4, 0);
        recorder.commit("a", "q", "ok", 1, false, (vec![], 0));
        recorder.commit("b", "q", "ok", 2, false, (vec![], 0));
        let list = recorder.list_json();
        let Some(Json::Arr(traces)) = list.get("traces") else {
            panic!("missing traces: {list}");
        };
        assert_eq!(
            traces[0].get("trace_id").and_then(Json::as_str),
            Some("b"),
            "newest first"
        );
        assert_eq!(list.get("retained").and_then(Json::as_u64), Some(2));
        assert_eq!(list.get("capacity").and_then(Json::as_u64), Some(4));
    }
}
