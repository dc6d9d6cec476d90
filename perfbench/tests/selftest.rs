//! Self-tests of the benchmark: determinism of the request streams, the
//! percentile helper, latency accounting against a synthetic slow server,
//! and a short smoke run of every workload against the real daemon.
//!
//! The smoke runs need a release `pathcover-cli`: they use `PERFBENCH_CLI`
//! when set, else `target/release/pathcover-cli` of the repository
//! (`cargo build --release -p pcservice` at the repository root).

use perfbench::bench::{self, Config};
use perfbench::daemon::CpuClock;
use perfbench::gen::{self, Plan, Req, Transport, Workload};
use perfbench::load;
use perfbench::stats;
use perfbench::wire::Endpoints;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::time::Duration;

fn stream_bytes(workload: Workload, seed: u64) -> Vec<u8> {
    let plan = Plan::new(workload, seed, 2);
    let mut all = Vec::new();
    let mut buf = Vec::new();
    for caller in 0..2 {
        for (req, fresh, transport) in plan.stream(caller).take(200) {
            plan.encode(req, transport, "sess-fixed", &mut buf);
            all.push(u8::from(fresh));
            all.extend_from_slice(&buf);
        }
    }
    for req in plan.warmup() {
        plan.encode(req, Transport::Framed, "sess-fixed", &mut buf);
        all.extend_from_slice(&buf);
    }
    all
}

#[test]
fn same_seed_gives_a_byte_identical_request_stream() {
    for workload in Workload::ALL {
        let a = stream_bytes(workload, 7);
        assert_eq!(
            a,
            stream_bytes(workload, 7),
            "{} is not deterministic",
            workload.name()
        );
        assert_ne!(
            a,
            stream_bytes(workload, 8),
            "{} ignores its seed",
            workload.name()
        );
    }
}

#[test]
fn paper_pipeline_completes_on_every_pool_component() {
    // `big-cover` graphs are unions of these components; the generator
    // relies on the pipeline completing on each of them.
    for tree in gen::component_pool().iter().flatten() {
        let cover = pathcover::path_cover(tree);
        assert_eq!(cover.len(), pathcover::sequential_path_cover(tree).len());
    }
}

#[test]
fn every_block_of_a_caller_carries_the_same_requests() {
    for workload in Workload::ALL {
        let plan = Plan::new(workload, 5, 2);
        for caller in 0..2 {
            let len = plan.block_len(caller);
            let stream: Vec<(Req, bool, Transport)> = plan.stream(caller).take(3 * len).collect();
            // A block's requests, in order; hot-small's cold graphs (which
            // move each block so that they miss the cache) count as one.
            let block = |k: usize| -> Vec<String> {
                stream[k * len..(k + 1) * len]
                    .iter()
                    .map(|&(req, fresh, transport)| {
                        let req = match req {
                            Req::Solve { graph, kind }
                                if workload == Workload::HotSmall && graph >= 1024 =>
                            {
                                format!("{kind:?} cold")
                            }
                            other => format!("{other:?}"),
                        };
                        format!("{req} {transport:?} {fresh}")
                    })
                    .collect()
            };
            assert_eq!(block(0), block(1), "{}", workload.name());
            assert_eq!(block(0), block(2), "{}", workload.name());
        }
    }
}

#[test]
fn percentile_matches_a_brute_force_sort() {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 4097] {
        let samples: Vec<u64> = (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 1000
            })
            .collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            // Nearest rank: the smallest value with at least p% of the
            // sample at or below it.
            let brute = *sorted
                .iter()
                .find(|&&v| {
                    sorted.iter().filter(|&&w| w <= v).count() as f64 >= p / 100.0 * n as f64
                })
                .expect("some value qualifies");
            assert_eq!(stats::percentile(&samples, p), Some(brute), "n={n} p={p}");
        }
        assert_eq!(
            stats::beyond(n, 99.0),
            n - (0.99 * n as f64).ceil() as usize
        );
    }
    assert_eq!(stats::percentile(&[], 50.0), None);
}

/// A server that answers every framed or HTTP request after `delay`.
fn slow_server(dir: &std::path::Path, delay: Duration) -> Endpoints {
    std::fs::create_dir_all(dir).expect("test dir");
    let socket = dir.join("slow.sock");
    let _ = std::fs::remove_file(&socket);
    let unix = UnixListener::bind(&socket).expect("bind unix");
    let tcp = TcpListener::bind("127.0.0.1:0").expect("bind tcp");
    let http = tcp.local_addr().expect("tcp addr");
    std::thread::spawn(move || {
        for conn in unix.incoming().flatten() {
            std::thread::spawn(move || {
                let mut reader = BufReader::new(conn.try_clone().expect("clone"));
                let mut conn = conn;
                let mut head = String::new();
                while reader.read_line(&mut head).map(|n| n > 0).unwrap_or(false) {
                    let len: usize = head
                        .trim()
                        .split(' ')
                        .nth(1)
                        .and_then(|l| l.parse().ok())
                        .expect("frame header");
                    let mut body = vec![0u8; len + 1];
                    reader.read_exact(&mut body).expect("frame body");
                    std::thread::sleep(delay);
                    conn.write_all(b"pcp1 2\n{}\n").expect("reply");
                    head.clear();
                }
            });
        }
    });
    std::thread::spawn(move || {
        for conn in tcp.incoming().flatten() {
            std::thread::spawn(move || {
                let mut reader = BufReader::new(conn.try_clone().expect("clone"));
                let mut conn = conn;
                loop {
                    let mut len = 0usize;
                    let mut line = String::new();
                    loop {
                        line.clear();
                        if reader.read_line(&mut line).unwrap_or(0) == 0 {
                            return;
                        }
                        if line.trim().is_empty() {
                            break;
                        }
                        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                            len = v.trim().parse().expect("length");
                        }
                    }
                    let mut body = vec![0u8; len];
                    reader.read_exact(&mut body).expect("body");
                    std::thread::sleep(delay);
                    conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                        .expect("reply");
                }
            });
        }
    });
    Endpoints { socket, http }
}

#[test]
fn latency_accounting_against_a_synthetic_slow_server() {
    let delay = Duration::from_millis(20);
    let dir = PathBuf::from(format!("out/selftest-{}-slow", std::process::id()));
    let ep = slow_server(&dir, delay);
    // Blocks of 50 requests: 1 s at 20 ms per reply.
    let plan = Plan::new(Workload::BigCover, 3, 2);
    let block = plan.block_len(0);
    // The server runs in this process, so its CPU clock is this process's.
    let cpu = CpuClock::of_process(std::process::id());
    let callers = (0..plan.callers)
        .map(|_| load::Caller::new(&plan, &ep))
        .collect();
    let (logs, wall) = load::closed_loop(&plan, callers, cpu, Duration::from_millis(600));
    assert_eq!(logs.len(), 2, "one log per caller");
    assert!(
        wall >= delay * block as u32,
        "callers finish the block they are in at the deadline"
    );
    assert!(
        wall < delay * block as u32 + Duration::from_millis(500),
        "callers stop at the first block end after the deadline"
    );
    for log in &logs {
        assert_eq!(log.records.len(), block, "one whole block");
        let ns: Vec<u64> = log
            .records
            .iter()
            .map(|r| r.latency.as_nanos() as u64)
            .collect();
        for record in &log.records {
            assert!(
                record.latency >= delay,
                "latency {:?} below the server delay",
                record.latency
            );
            assert!(matches!(record.outcome, load::Outcome::Reply(_)));
        }
        let median = Duration::from_nanos(stats::percentile(&ns, 50.0).expect("samples"));
        assert!(
            median < delay + Duration::from_millis(5),
            "median latency {median:?}"
        );
        // The latencies fill the phase.
        let busy = Duration::from_nanos(ns.iter().sum());
        assert!(
            busy > wall.mul_f64(0.8) && busy <= wall,
            "latencies sum to {busy:?} of {wall:?}"
        );
    }
    for log in &logs {
        let framed = log
            .records
            .iter()
            .filter(|r| r.transport == Transport::Framed)
            .count();
        assert!(
            framed.abs_diff(log.records.len() - framed) <= 1,
            "callers alternate transports"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn cli() -> PathBuf {
    let path = std::env::var("PERFBENCH_CLI")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../target/release/pathcover-cli")
        });
    assert!(
        path.is_file(),
        "{} missing: run `cargo build --release -p pcservice` at the repository root or set PERFBENCH_CLI",
        path.display()
    );
    path
}

#[test]
fn smoke_run_of_every_workload_has_no_errors() {
    let out = PathBuf::from(format!("out/selftest-{}-smoke", std::process::id()));
    for workload in Workload::ALL {
        let cfg = Config {
            workload,
            seed: 11,
            seconds: 1.0,
            callers: 1,
            cli: cli(),
            run_dir: out.join("run"),
            out_dir: out.clone(),
        };
        assert_eq!(
            bench::run(&cfg),
            Ok(true),
            "{} had failed or wrong replies",
            workload.name()
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}
