//! Leveled, rate-limited, JSON-lines structured logging.
//!
//! Replaces the daemon's ad-hoc `eprintln!` diagnostics with one emitter
//! whose every line is a single JSON object on stderr, so log collectors
//! need no parsing heuristics and every line carries the request's
//! `trace_id` — the join key shared with `/v1/metrics` aggregates and the
//! [`crate::trace`] flight recorder.
//!
//! ```text
//! {"ts_unix_ms":1754550000000,"level":"warn","event":"slow_request","trace_id":"pc-1f...","total_us":52000}
//! ```
//!
//! The level is a process-global atomic, set from `serve --log-level` or
//! the `PC_LOG` environment variable (`error` / `warn` / `info` / `debug` /
//! `off`); the default is `info`. Noisy repeat events go through
//! [`rate_limited`], which suppresses re-emission of the same event name
//! within a 100 ms window on a monotonic clock (the engine's
//! `slow_request` line included) so a failure loop cannot flood stderr.

use crate::cache::Fnv;
use crate::json::Json;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Severity of a log line, in increasing verbosity order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The daemon cannot do what it was asked to (data loss risk,
    /// persistent failure).
    Error = 1,
    /// Something is degraded but the daemon compensates (slow requests,
    /// sheds, checkpoint retries).
    Warn = 2,
    /// Lifecycle milestones (startup, shutdown, snapshot saves).
    Info = 3,
    /// Per-request chatter for debugging sessions.
    Debug = 4,
}

impl Level {
    /// Stable lowercase name used on the wire and in CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses a level name (`off` yields `None`, meaning log nothing).
    pub fn parse(name: &str) -> Result<Option<Level>, String> {
        match name.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => Ok(None),
            "error" => Ok(Some(Level::Error)),
            "warn" | "warning" => Ok(Some(Level::Warn)),
            "info" => Ok(Some(Level::Info)),
            "debug" => Ok(Some(Level::Debug)),
            other => Err(format!(
                "unknown log level '{other}' (use off|error|warn|info|debug)"
            )),
        }
    }
}

/// The process-global threshold: lines above this verbosity are dropped.
/// 0 encodes `off`.
static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Per-event-slot last-emission clock for [`rate_limited`], in
/// milliseconds since process start (slot 0 of the array is the epoch
/// holder's `OnceLock`).
static RATE_SLOTS: [AtomicU64; 16] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    [ZERO; 16]
};

/// Suppression window for [`rate_limited`].
pub const RATE_LIMIT_MS: u64 = 100;

fn process_clock_ms() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    // +1 so "never emitted" (slot value 0) is distinguishable from an
    // emission in the first millisecond.
    epoch.elapsed().as_millis() as u64 + 1
}

/// Sets the global level (`None` silences everything).
pub fn set_level(level: Option<Level>) {
    LEVEL.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
}

/// The current global level (`None` when logging is off).
pub fn level() -> Option<Level> {
    match LEVEL.load(Ordering::Relaxed) {
        1 => Some(Level::Error),
        2 => Some(Level::Warn),
        3 => Some(Level::Info),
        4 => Some(Level::Debug),
        _ => None,
    }
}

/// Applies the `PC_LOG` environment variable, if set and valid. Returns
/// the error string for an invalid value (the caller decides whether that
/// is fatal; the daemon treats it as a startup error).
pub fn init_from_env() -> Result<(), String> {
    match std::env::var("PC_LOG") {
        Ok(value) => Level::parse(&value).map(set_level),
        Err(_) => Ok(()),
    }
}

/// Whether a line at `level` would currently be emitted.
pub fn enabled(level: Level) -> bool {
    let threshold = LEVEL.load(Ordering::Relaxed);
    threshold != 0 && (level as u8) <= threshold
}

/// Renders one log line (without the trailing newline). Pure — exists so
/// tests can assert on the exact bytes that would hit stderr.
pub fn render_line(
    level: Level,
    event: &str,
    trace_id: Option<&str>,
    fields: &[(&str, Json)],
) -> String {
    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut obj = vec![
        ("ts_unix_ms".to_string(), Json::num(ts)),
        ("level".to_string(), Json::str(level.as_str())),
        ("event".to_string(), Json::str(event)),
    ];
    if let Some(trace) = trace_id {
        obj.push(("trace_id".to_string(), Json::str(trace)));
    }
    for (key, value) in fields {
        obj.push((key.to_string(), value.clone()));
    }
    Json::Obj(obj).to_string()
}

/// Emits one structured line to stderr if the level allows it.
pub fn log(level: Level, event: &str, trace_id: Option<&str>, fields: &[(&str, Json)]) {
    if !enabled(level) {
        return;
    }
    eprintln!("{}", render_line(level, event, trace_id, fields));
}

/// [`log`], but suppressing repeats of the same `event` within
/// [`RATE_LIMIT_MS`]. Returns whether the line was emitted, so callers can
/// keep a suppressed-count if they care.
pub fn rate_limited(
    level: Level,
    event: &str,
    trace_id: Option<&str>,
    fields: &[(&str, Json)],
) -> bool {
    if !enabled(level) {
        return false;
    }
    let slot = &RATE_SLOTS[hash_event(event) % RATE_SLOTS.len()];
    let now = process_clock_ms();
    let last = slot.load(Ordering::Relaxed);
    if last != 0 && now.saturating_sub(last) < RATE_LIMIT_MS {
        return false;
    }
    if slot
        .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
        .is_err()
    {
        // Another thread just emitted this event; treat that as our
        // emission within the window.
        return false;
    }
    eprintln!("{}", render_line(level, event, trace_id, fields));
    true
}

fn hash_event(event: &str) -> usize {
    // Deterministic; collisions just share a rate slot.
    Fnv::new().write(event.as_bytes()).finish() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(Level::parse("warn").unwrap(), Some(Level::Warn));
        assert_eq!(Level::parse("WARNING").unwrap(), Some(Level::Warn));
        assert_eq!(Level::parse("off").unwrap(), None);
        assert!(Level::parse("verbose").is_err());
        assert!(Level::Error < Level::Debug);
    }

    #[test]
    fn lines_are_single_json_objects_carrying_the_trace_id() {
        let line = render_line(
            Level::Warn,
            "slow_request",
            Some("pc-0123456789abcdef"),
            &[
                ("total_us", Json::num(52_000u64)),
                ("kind", Json::str("recognize")),
            ],
        );
        let parsed = Json::parse(&line).expect("log line must be valid JSON");
        assert_eq!(parsed.get("level").and_then(Json::as_str), Some("warn"));
        assert_eq!(
            parsed.get("event").and_then(Json::as_str),
            Some("slow_request")
        );
        assert_eq!(
            parsed.get("trace_id").and_then(Json::as_str),
            Some("pc-0123456789abcdef")
        );
        assert_eq!(parsed.get("total_us").and_then(Json::as_u64), Some(52_000));
        assert!(parsed.get("ts_unix_ms").and_then(Json::as_u64).is_some());
        assert!(!line.contains('\n'), "one line per record");
    }

    #[test]
    fn gating_respects_the_global_level() {
        let prior = level();
        set_level(Some(Level::Warn));
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        set_level(None);
        assert!(!enabled(Level::Error));
        set_level(prior);
    }

    #[test]
    fn repeats_inside_the_window_are_suppressed() {
        let prior = level();
        set_level(Some(Level::Debug));
        // A unique event name so parallel tests sharing the slot array
        // are unlikely to collide.
        let event = "rate_limit_unit_test_event_xyzzy";
        assert!(rate_limited(Level::Debug, event, None, &[]));
        assert!(!rate_limited(Level::Debug, event, None, &[]));
        set_level(prior);
    }
}
