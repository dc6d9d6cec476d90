//! The end-to-end run: set-up, the measured closed loop, the oracle and
//! the end-to-end metrics.

use crate::daemon::Daemon;
use crate::gen::{Plan, Transport, Workload};
use crate::load::{self, Caller, CallerLog, Outcome, ReplyStore};
use crate::oracle;
use crate::stamp::{self, CpuTimes};
use crate::stats;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Settings shared by the end-to-end and traced runs.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub callers: usize,
    pub cli: PathBuf,
    /// Sockets and daemon logs.
    pub run_dir: PathBuf,
    /// Result files.
    pub out_dir: PathBuf,
}

/// One named metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result line every run ends with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// Daemons per run. Each is set up (spawned and warmed, which `setup_s`
/// measures) and then measured for an equal slice of the phase. A daemon's
/// own state (how its allocator laid out the heap) moved the latency and
/// `rss_mb` of whole `big-cover` runs by a third; over several daemons it
/// evens out.
fn daemons(workload: Workload) -> usize {
    match workload {
        Workload::BigCover => 3,
        Workload::HotSmall | Workload::SessionChurn => 9,
    }
}

/// One daemon's set-up and slice of the measured phase.
struct Slice {
    /// Set-up in wall-clock seconds and in the daemon's CPU seconds.
    setup_wall_s: f64,
    setup_cpu_s: f64,
    logs: Vec<CallerLog>,
    wall: Duration,
    rss_mb: f64,
}

/// Checks every distinct stored reply; returns the verdict per stored
/// reply and prints the first defects.
pub fn verdicts(plan: &Plan, store: &ReplyStore, shown: &mut usize) -> Vec<bool> {
    store
        .iter()
        .map(|(req, body)| match oracle::check(plan, req, body) {
            Ok(()) => true,
            Err(defect) => {
                if *shown < 5 {
                    *shown += 1;
                    eprintln!("perfbench: wrong reply to {req:?}: {defect}");
                }
                false
            }
        })
        .collect()
}

/// Runs one end-to-end measurement and prints its report; returns
/// whether every reply was correct.
pub fn run(cfg: &Config) -> Result<bool, String> {
    let generated = Instant::now();
    let plan = Plan::new(cfg.workload, cfg.seed, cfg.callers);
    let generate_s = generated.elapsed().as_secs_f64();
    let warm = plan.warmup();
    let count = daemons(cfg.workload);
    let slice_len = Duration::from_secs_f64(cfg.seconds / count as f64);
    let mut warm_store = ReplyStore::default();
    let mut slices = Vec::with_capacity(count);
    let (mut stolen, mut ticks) = (0u64, 0u64);
    for k in 0..count {
        let started = Instant::now();
        let daemon = Daemon::spawn(&cfg.cli, &cfg.run_dir, &k.to_string())
            .map_err(|e| format!("starting {}: {e}", cfg.cli.display()))?;
        // The warm-up goes over caller 0's framed connection, which the
        // measured phase keeps, so no handler thread of the daemon ends or
        // starts between the two.
        let mut callers: Vec<Caller> = (0..plan.callers)
            .map(|_| Caller::new(&plan, &daemon.endpoints))
            .collect();
        load::sequence(&mut callers[0], &warm, &mut warm_store)?;
        let setup_wall_s = started.elapsed().as_secs_f64();
        let cpu = daemon.cpu_clock();
        let setup_cpu_s = cpu.read().ok_or("cannot read the daemon's CPU clock")? as f64 / 1e9;
        let before = CpuTimes::now();
        let (logs, wall) = load::closed_loop(&plan, callers, cpu, slice_len);
        let after = CpuTimes::now();
        stolen += after.steal.saturating_sub(before.steal);
        ticks += after.total.saturating_sub(before.total);
        let rss_mb = daemon.peak_rss_mib().unwrap_or(0.0);
        daemon.stop().map_err(|e| format!("stopping daemon: {e}"))?;
        slices.push(Slice {
            setup_wall_s,
            setup_cpu_s,
            logs,
            wall,
            rss_mb,
        });
    }
    let steal_pct = 100.0 * stolen as f64 / ticks.max(1) as f64;

    let mut shown = 0;
    let warm_ok = verdicts(&plan, &warm_store, &mut shown)
        .iter()
        .all(|&ok| ok);
    let limit = Duration::from_secs_f64(cfg.workload.limit_ms() / 1000.0);
    let ms = |ns: Option<u64>| ns.unwrap_or(0) as f64 / 1e6;
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    // Wall-clock latency and daemon CPU time per request, over all
    // daemons, and the same per transport.
    let (mut latencies, mut cpu): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
    let mut per_transport: [(Vec<u64>, Vec<u64>); 2] = Default::default();
    // Daemon CPU time per slot of the repeated block (caller, position in
    // the block), over every block of every daemon.
    let mut slots: Vec<Vec<Vec<u64>>> = (0..plan.callers)
        .map(|c| vec![Vec::new(); plan.block_len(c)])
        .collect();
    // All the daemon's CPU time over each whole block, per request. Only
    // work still running at the two readings that bound a block can land
    // in the wrong block: at most one request's worth.
    let mut block_means: Vec<u64> = Vec::new();
    let mut good = 0usize;
    let mut lines: Vec<String> = Vec::new();
    let mut stored = warm_store.len();
    for (k, slice) in slices.iter().enumerate() {
        let (mut lat, mut used) = (Vec::new(), Vec::new());
        for (caller, log) in slice.logs.iter().enumerate() {
            stored += log.store.len();
            let ok = verdicts(&plan, &log.store, &mut shown);
            let block = plan.block_len(caller);
            block_means.extend(
                log.records
                    .chunks_exact(block)
                    .map(|b| b.iter().map(|r| r.cpu_ns).sum::<u64>() / block as u64),
            );
            for (j, record) in log.records.iter().enumerate() {
                slots[caller][j % block].push(record.cpu_ns);
                attempted += 1;
                let correct = match &record.outcome {
                    Outcome::Reply(i) => ok[*i as usize],
                    Outcome::Failed(why) => {
                        if shown < 5 {
                            shown += 1;
                            eprintln!("perfbench: request {:?} failed: {why}", record.req);
                        }
                        false
                    }
                };
                if !correct {
                    failed += 1;
                    wrong += u64::from(matches!(record.outcome, Outcome::Reply(_)));
                }
                good += usize::from(correct && record.latency <= limit);
                let ns = record.latency.as_nanos() as u64;
                lat.push(ns);
                used.push(record.cpu_ns);
                let t = &mut per_transport[record.transport.index()];
                t.0.push(ns);
                t.1.push(record.cpu_ns);
            }
        }
        lines.push(format!(
            "  daemon {k}: set-up {:.4} s wall, {:.4} s CPU; {} requests, latency p50 {:.4} ms, \
             CPU p50 {:.4} ms, p99 {:.4} ms; rss {:.2} MiB",
            slice.setup_wall_s,
            slice.setup_cpu_s,
            lat.len(),
            ms(stats::percentile(&lat, 50.0)),
            ms(stats::percentile(&used, 50.0)),
            ms(stats::percentile(&used, 99.0)),
            slice.rss_mb,
        ));
        latencies.extend(lat);
        cpu.extend(used);
    }
    let median_of = |values: Vec<f64>| stats::median_f64(&values);
    // A slot's cost: the median over its repetitions. Every block carries
    // the same requests, so a repetition the host slowed down (hypervisor
    // steal is not in the CPU clock, but a vCPU that was away comes back to
    // cold caches) is an outlier among its slot's. The percentiles are
    // taken over the block's slots: a reading that put part of one
    // request's CPU time on the next moves a little cost between two slots
    // of the block, which they hardly notice.
    let typical: Vec<u64> = slots
        .iter()
        .flatten()
        .filter_map(|reps| stats::percentile(reps, 50.0))
        .collect();
    let metrics = vec![
        Metric::new(
            "setup_s",
            median_of(slices.iter().map(|s| s.setup_cpu_s).collect()),
            "s",
        ),
        Metric::new("cpu_p50_ms", ms(stats::percentile(&typical, 50.0)), "ms"),
        Metric::new("cpu_p99_ms", ms(stats::percentile(&typical, 99.0)), "ms"),
        Metric::new(
            "cpu_mean_ms",
            ms(stats::percentile(&block_means, 50.0)),
            "ms",
        ),
        Metric::new(
            "rss_mb",
            median_of(slices.iter().map(|s| s.rss_mb).collect()),
            "MiB",
        ),
    ];
    let wall: f64 = slices.iter().map(|s| s.wall.as_secs_f64()).sum();
    let error_ratio = if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    };
    let gaps: Vec<u64> = slices
        .iter()
        .flat_map(|s| &s.logs)
        .flat_map(|l: &CallerLog| l.gaps.iter().map(|g| g.as_nanos() as u64))
        .collect();

    println!(
        "perfbench {} seed={} callers={} measured {:.2} s over {} daemons, {} requests; {} \
         distinct replies checked",
        cfg.workload.name(),
        cfg.seed,
        plan.callers,
        wall,
        count,
        attempted,
        stored,
    );
    for m in &metrics {
        println!("  {:<12} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<12} {:>14.6} (failed {failed} / attempted {attempted}; {wrong} wrong answers)",
        "error_ratio", error_ratio
    );
    println!(
        "  not in the result line: latency p50_ms {:.4}, p99_ms {:.4} ({} beyond), goodput_rps \
         {:.2} (limit {} ms), set-up {:.4} s wall; CPU per request p50 {:.4} ms, p99 {:.4} ms \
         (each request on its own, not per slot); {} slots; host steal {steal_pct:.2}%",
        ms(stats::percentile(&latencies, 50.0)),
        ms(stats::percentile(&latencies, 99.0)),
        stats::beyond(latencies.len(), 99.0),
        good as f64 / wall,
        cfg.workload.limit_ms(),
        median_of(slices.iter().map(|s| s.setup_wall_s).collect()),
        ms(stats::percentile(&cpu, 50.0)),
        ms(stats::percentile(&cpu, 99.0)),
        typical.len(),
    );
    for line in &lines {
        println!("{line}");
    }
    for (transport, (lat, used)) in [Transport::Framed, Transport::Http]
        .iter()
        .zip(&per_transport)
    {
        println!(
            "  {} transport: {} requests, latency p50 {:.4} ms, p99 {:.4} ms; CPU p50 {:.4} ms, \
             p99 {:.4} ms",
            transport.name(),
            lat.len(),
            ms(stats::percentile(lat, 50.0)),
            ms(stats::percentile(lat, 99.0)),
            ms(stats::percentile(used, 50.0)),
            ms(stats::percentile(used, 99.0)),
        );
    }
    let stamp = stamp::render(
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        plan.callers,
        &[
            ("mode", stamp::quoted("e2e closed loop")),
            ("latency_limit_ms", cfg.workload.limit_ms().to_string()),
            ("steal_pct", format!("{steal_pct:.3}")),
            ("daemons", count.to_string()),
            (
                "generator_lateness_p99_us",
                format!(
                    "{:.3}",
                    stats::percentile(&gaps, 99.0).unwrap_or(0) as f64 / 1e3
                ),
            ),
            ("generate_s", format!("{generate_s:.3}")),
        ],
    );
    println!("{stamp}");
    let correct = failed == 0 && warm_ok;
    let line = result_line(correct, attempted, failed, &metrics);
    if std::fs::create_dir_all(&cfg.out_dir).is_ok() {
        let path = cfg
            .out_dir
            .join(format!("e2e-{}-seed{}.json", cfg.workload.name(), cfg.seed));
        let _ = std::fs::write(path, format!("{stamp}\n{line}\n"));
    }
    println!("{line}");
    Ok(correct)
}
