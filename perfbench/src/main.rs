//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Spawns the daemon, drives one workload over both transports and prints
//! the metrics; the last stdout line is the JSON result. `--trace 1` runs
//! the per-layer traced replay instead (needs the `trace` feature).

use perfbench::bench::Config;
use perfbench::gen::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <hot-small|big-cover|session-churn> --seed <n> \
                     --seconds <s> --trace <0|1> [--cli PATH] [--out DIR]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let parsed = (|| {
        let workload = Workload::parse(flag("--workload")?)?;
        let seed: u64 = flag("--seed")?.parse().ok()?;
        let seconds: f64 = flag("--seconds")?.parse().ok().filter(|s: &f64| *s > 0.0)?;
        let trace = match flag("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        Some((workload, seed, seconds, trace))
    })();
    let Some((workload, seed, seconds, trace)) = parsed else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let out_dir = PathBuf::from(flag("--out").unwrap_or("perfbench/out"));
    let cfg = Config {
        workload,
        seed,
        seconds,
        callers: perfbench::stamp::CALLERS,
        cli: perfbench::daemon::locate_cli(flag("--cli")),
        run_dir: out_dir.join(format!("run-{}", std::process::id())),
        out_dir,
    };
    if !cfg.cli.is_file() {
        eprintln!("perfbench: daemon binary {} not found", cfg.cli.display());
        return ExitCode::FAILURE;
    }
    let result = if trace {
        traced(&cfg)
    } else {
        perfbench::bench::run(&cfg)
    };
    let _ = std::fs::remove_dir_all(&cfg.run_dir);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: some replies were wrong or missing");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(feature = "trace")]
fn traced(cfg: &Config) -> Result<bool, String> {
    perfbench::traced::run(cfg)
}

#[cfg(not(feature = "trace"))]
fn traced(_: &Config) -> Result<bool, String> {
    Err("the traced run needs a build with --features trace".to_string())
}
