//! The daemon under test: `pathcover-cli serve` as a child process with
//! its default flags plus one unix socket and one HTTP listener.

use crate::wire::{self, Endpoints};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The flags every run passes, besides the socket path (printed in the
/// run stamp).
pub const FLAGS: &str = "serve --socket <run-dir>/daemon-<k>.sock --http 127.0.0.1:0";

/// The daemon's environment: glibc's malloc keeps freed memory (blocks up
/// to 32 MiB come from its heaps, and heaps are trimmed only past 1 GiB
/// free). By default glibc raises its mmap threshold the first time a
/// large block is freed, so which of the daemon's threads freed first
/// decided whether `big-cover`'s n = 65536 request kept its memory or
/// faulted it back in every time: `rss_mb` of single daemons landed
/// anywhere from 245 to 400 MiB, and the request's CPU time moved with it.
/// Pinned at glibc's initial 128 KiB instead, every request faulted its
/// memory in again, and the CPU time of `big-cover` requests followed the
/// host's page-fault cost.
pub const ENV: (&str, &str) = (
    "GLIBC_TUNABLES",
    "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=1073741824",
);

const READY_TIMEOUT: Duration = Duration::from_secs(30);
const EXIT_TIMEOUT: Duration = Duration::from_secs(15);

/// A running daemon; dropping it kills the process.
pub struct Daemon {
    child: Option<Child>,
    pub endpoints: Endpoints,
    log: PathBuf,
}

impl Daemon {
    /// Spawns the daemon and returns once both listeners answer a request.
    /// `run_dir` holds its socket and log; `tag` names them.
    pub fn spawn(cli: &Path, run_dir: &Path, tag: &str) -> io::Result<Daemon> {
        fs::create_dir_all(run_dir)?;
        let socket = run_dir.join(format!("daemon-{tag}.sock"));
        let log = run_dir.join(format!("daemon-{tag}.log"));
        let _ = fs::remove_file(&socket);
        let child = Command::new(cli)
            .args(["serve", "--socket"])
            .arg(&socket)
            .args(["--http", "127.0.0.1:0"])
            .env(ENV.0, ENV.1)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(fs::File::create(&log)?)
            .spawn()?;
        let mut daemon = Daemon {
            child: Some(child),
            endpoints: Endpoints {
                socket,
                http: "127.0.0.1:0".parse().expect("literal address"),
            },
            log,
        };
        daemon.wait_ready()?;
        Ok(daemon)
    }

    fn wait_ready(&mut self) -> io::Result<()> {
        let started = Instant::now();
        loop {
            if let Some(status) = self.child.as_mut().expect("running").try_wait()? {
                return Err(io::Error::other(format!(
                    "daemon exited during start-up ({status}); see {}",
                    self.log.display()
                )));
            }
            let text = fs::read_to_string(&self.log).unwrap_or_default();
            let addr = text
                .split("serving http on ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|a| a.parse().ok());
            if let Some(addr) = addr {
                self.endpoints.http = addr;
                if wire::probe(&self.endpoints).is_ok() {
                    return Ok(());
                }
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err(io::Error::other("daemon did not start listening in time"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("running").id()
    }

    /// The daemon's CPU clock.
    pub fn cpu_clock(&self) -> CpuClock {
        CpuClock::of_process(self.pid())
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kib / 1024.0)
    }

    /// Graceful stop: a `shutdown` frame, then wait for the exit; kills
    /// the process if it does not exit in time.
    pub fn stop(mut self) -> io::Result<()> {
        let _ = wire::shutdown(&self.endpoints);
        let mut child = self.child.take().expect("running");
        let started = Instant::now();
        while child.try_wait()?.is_none() {
            if started.elapsed() > EXIT_TIMEOUT {
                child.kill()?;
                child.wait()?;
                return Err(io::Error::other("daemon ignored shutdown; killed"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = fs::remove_file(&self.endpoints.socket);
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            let _ = fs::remove_file(&self.endpoints.socket);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU clock below uses the 64-bit Linux clock ids and timespec layout");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// The CPU clock of a whole process, read from outside it: the time all
/// its threads, live and exited, have run. Where the kernel accounts
/// hypervisor steal (`CONFIG_PARAVIRT_TIME_ACCOUNTING`), stolen time is not
/// in it, nor is time spent waiting for a CPU.
#[derive(Clone, Copy, Debug)]
pub struct CpuClock(i32);

impl CpuClock {
    pub fn of_process(pid: u32) -> CpuClock {
        // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) of <linux/posix-timers.h>.
        CpuClock((!(pid as i32) << 3) | 2)
    }

    /// Nanoseconds of CPU time so far; `None` once the process is gone.
    pub fn read(self) -> Option<u64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the call.
        let rc = unsafe { clock_gettime(self.0, &mut ts) };
        (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }
}

/// The `pathcover-cli` binary: `--cli`, else `PERFBENCH_CLI`, else
/// `release/pathcover-cli` under `CARGO_TARGET_DIR` or `.bench_build`.
pub fn locate_cli(flag: Option<&str>) -> PathBuf {
    if let Some(path) = flag
        .map(str::to_string)
        .or_else(|| std::env::var("PERFBENCH_CLI").ok())
    {
        return PathBuf::from(path);
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
    Path::new(&target).join("release").join("pathcover-cli")
}
