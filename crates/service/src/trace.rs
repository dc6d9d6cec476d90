//! Hierarchical request spans and the bounded in-memory flight recorder.
//!
//! The telemetry registry ([`crate::telemetry`]) answers *how the service is
//! doing* in aggregate; this module answers *what one specific request did*.
//! Every request may carry a [`SpanCollector`] on its
//! [`crate::telemetry::RequestCtx`]: the engine and its subsystems append
//! child spans (pipeline stages, cache shard lookups, admission and
//! session-lock waits, snapshot checkpoints) as offsets from the request's
//! start. Recording is off the hot path — a span is one `Vec` push under an
//! uncontended lock — and nothing is retained until the request
//! finishes, when [`crate::engine::QueryEngine`] commits the whole trace to
//! the [`FlightRecorder`] in one call.
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

/// One completed child span of a request: a named interval measured as
/// microsecond offsets from the request's root span start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What the interval covers (`stage:solve`, `cache:lookup`,
    /// `admission:wait`, ...). Namespaced by a `prefix:` so consumers can
    /// group without parsing free text.
    pub name: String,
    /// Start offset from the root span, in microseconds.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Optional key/value annotations (round index, steal count, shard
    /// index, ...), kept as strings so the span stays allocation-cheap and
    /// schema-free.
    pub detail: Vec<(String, String)>,
}

impl Span {
    /// Builds a span with no annotations.
    pub fn new(name: impl Into<String>, start_us: u64, dur_us: u64) -> Span {
        Span {
            name: name.into(),
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
            ("name".to_string(), Json::str(self.name.clone())),
            ("start_us".to_string(), Json::num(self.start_us)),
            ("dur_us".to_string(), Json::num(self.dur_us)),
        ];
        if !self.detail.is_empty() {
            fields.push((
                "detail".to_string(),
                Json::Obj(
                    self.detail
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }

    /// The span as one Chrome trace-event object (`ph:"X"` complete event)
    /// on the request's one track.
    fn chrome_event(&self) -> Json {
        let mut args: Vec<(String, Json)> = self
            .detail
            .iter()
            .map(|(k, v)| (k.clone(), Json::str(v.clone())))
            .collect();
        if args.is_empty() {
            // chrome://tracing tolerates a missing `args`, but Perfetto's
            // JSON importer is happier with an (empty) object present.
            args = Vec::new();
        }
        Json::obj(vec![
            ("ph", Json::str("X")),
            ("ts", Json::num(self.start_us)),
            ("dur", Json::num(self.dur_us)),
            ("name", Json::str(self.name.clone())),
            ("pid", Json::num(1u64)),
            ("tid", Json::num(1u64)),
            ("args", Json::Obj(args)),
        ])
    }
}

/// Per-request span sink, carried on
/// [`crate::telemetry::RequestCtx::collector`].
///
/// Created at request entry ([`FlightRecorder::begin`]) and shared by
/// `Arc` with every subsystem the request touches.
#[derive(Debug)]
pub struct SpanCollector {
    started: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanCollector {
    /// Opens a collector whose clock starts now.
    pub fn start() -> Arc<SpanCollector> {
        Arc::new(SpanCollector {
            started: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(16)),
        })
    }

    /// Microseconds elapsed since the root span opened. Use as the
    /// `start_us` of a child span about to begin.
    pub fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Records a span that started at `start_us` (a prior
    /// [`SpanCollector::elapsed_us`] reading) and ends now.
    pub fn finish(&self, name: &str, start_us: u64) {
        let end = self.elapsed_us();
        self.push(Span::new(name, start_us, end.saturating_sub(start_us)));
    }

    /// Records a fully-formed span (used for annotated spans).
    pub fn push(&self, span: Span) {
        if let Ok(mut spans) = self.spans.lock() {
            spans.push(span);
        }
    }

    /// Drains the collected spans, ordered by start offset.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .map(|mut guard| std::mem::take(&mut *guard))
            .unwrap_or_default();
        spans.sort_by_key(|span| span.start_us);
        spans
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
}

impl FinishedTrace {
    /// One-line summary object for trace listings.
    pub fn summary_json(&self) -> Json {
        Json::obj(vec![
            ("trace_id", Json::str(self.trace_id.clone())),
            ("kind", Json::str(self.kind.clone())),
            ("outcome", Json::str(self.outcome.clone())),
            ("total_us", Json::num(self.total_us)),
            ("unix_ms", Json::num(self.unix_ms)),
            ("seq", Json::num(self.seq)),
            ("protected", Json::Bool(self.protected)),
            ("spans", Json::num(self.spans.len() as u64)),
        ])
    }

    /// The full trace as a JSON object, spans included.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("trace_id", Json::str(self.trace_id.clone())),
            ("kind", Json::str(self.kind.clone())),
            ("outcome", Json::str(self.outcome.clone())),
            ("total_us", Json::num(self.total_us)),
            ("unix_ms", Json::num(self.unix_ms)),
            ("seq", Json::num(self.seq)),
            ("protected", Json::Bool(self.protected)),
            (
                "spans",
                Json::Arr(self.spans.iter().map(Span::to_json).collect()),
            ),
        ])
    }

    /// The trace in Chrome trace-event JSON (the `{"traceEvents": [...]}`
    /// shape), loadable in `chrome://tracing` or Perfetto. The root span is
    /// the first event; every event carries `ph` / `ts` / `dur` / `name`.
    pub fn to_chrome_json(&self) -> Json {
        let root = Span::new(format!("request:{}", self.kind), 0, self.total_us)
            .with_detail("trace_id", self.trace_id.clone())
            .with_detail("outcome", self.outcome.clone());
        let mut events = vec![root.chrome_event()];
        events.extend(self.spans.iter().map(Span::chrome_event));
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
    /// Master switch. Off means no collectors are allocated and the
    /// request hot path never takes a span timestamp.
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
/// acquisition per finished request, nothing on the hot path.
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
    /// deadline-exceeded requests that must always be retained.
    pub fn commit(
        &self,
        trace_id: &str,
        kind: &str,
        outcome: &str,
        total_us: u64,
        protected: bool,
        spans: Vec<Span>,
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
        let collector = SpanCollector::start();
        let t0 = collector.elapsed_us();
        collector.finish("stage:ingest", t0);
        collector.push(Span::new("stage:solve", 50, 10).with_detail("n", "8"));
        collector.push(Span::new("stage:recognize", 5, 3));
        let spans = collector.take();
        assert_eq!(spans.len(), 3);
        assert!(spans.windows(2).all(|w| w[0].start_us <= w[1].start_us));
        assert_eq!(spans[2].detail, vec![("n".to_string(), "8".to_string())]);
        // A second take is empty: commit consumes the collector's spans.
        assert!(collector.take().is_empty());
    }

    #[test]
    fn ring_evicts_oldest_unprotected_first() {
        let recorder = small_recorder(3, 0);
        recorder.commit("t-old", "recognize", "ok", 10, false, vec![]);
        recorder.commit("t-err", "recognize", "internal", 10, true, vec![]);
        recorder.commit("t-new1", "recognize", "ok", 10, false, vec![]);
        recorder.commit("t-new2", "recognize", "ok", 10, false, vec![]);
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
            recorder.commit(&format!("err-{i}"), "q", "internal", 5, true, vec![]);
        }
        for i in 0..100 {
            recorder.commit(&format!("ok-{i}"), "q", "ok", 1, false, vec![]);
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
        recorder.commit("slow-1", "q", "ok", 900, false, vec![]);
        recorder.commit("slow-2", "q", "ok", 800, false, vec![]);
        recorder.commit("slow-3", "q", "ok", 700, false, vec![]);
        for i in 0..50 {
            recorder.commit(&format!("fast-{i}"), "q", "ok", 1 + i, false, vec![]);
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
            recorder.commit(&format!("ok-{i}"), "q", "ok", 1, false, vec![]);
        }
        for i in 0..7 {
            recorder.commit(&format!("err-{i}"), "q", "internal", 1, true, vec![]);
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
        recorder.commit("t", "q", "internal", 1, true, vec![]);
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
        recorder.commit("a", "q", "ok", 1, false, vec![]);
        recorder.commit("b", "q", "ok", 2, false, vec![]);
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
