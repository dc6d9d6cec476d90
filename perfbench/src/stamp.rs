//! The run stamp printed with every result, so noisy or foreign runs can
//! be told apart: machine, build, inputs and host interference.

use crate::gen::Workload;
use std::fmt::Write;

/// Host CPU time counters from `/proc/stat` (the aggregate `cpu` line).
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    pub steal: u64,
    pub total: u64,
}

impl CpuTimes {
    pub fn now() -> CpuTimes {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTimes {
            // user nice system idle iowait irq softirq steal ...
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`, in
    /// percent.
    pub fn steal_pct_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Closed-loop callers: one, so that one request is in flight and the
/// daemon's CPU time between two replies belongs to the second. With one
/// caller per CPU on a 2-vCPU guest the throughput barely rose while
/// hypervisor steal made per-window goodput swing 2.5x (see the README).
pub const CALLERS: usize = 1;

/// Renders the stamp as one JSON object. `extra` carries run-specific
/// `(key, already-encoded JSON value)` pairs.
pub fn render(
    workload: Workload,
    seed: u64,
    seconds: f64,
    callers: usize,
    extra: &[(&str, String)],
) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let mut out = String::from("{\"stamp\":{");
    let mut field = |k: &str, v: String| {
        if !out.ends_with('{') {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":{v}");
    };
    field("nproc", nproc().to_string());
    field("commit", quoted(&env("PERFBENCH_COMMIT")));
    field("rustc", quoted(&env("PERFBENCH_RUSTC")));
    field(
        "profile",
        quoted(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    );
    field("workload", quoted(workload.name()));
    field("seed", seed.to_string());
    field("seconds", seconds.to_string());
    field("callers", callers.to_string());
    field("params", quoted(workload.params()));
    field("daemon_flags", quoted(crate::daemon::FLAGS));
    let (key, value) = crate::daemon::ENV;
    field("daemon_env", quoted(&format!("{key}={value}")));
    for (k, v) in extra {
        field(k, v.clone());
    }
    out.push_str("}}");
    out
}

pub fn quoted(text: &str) -> String {
    let mut out = vec![b'"'];
    crate::json::escape_into(text, &mut out);
    out.push(b'"');
    String::from_utf8(out).expect("escaping keeps UTF-8")
}
