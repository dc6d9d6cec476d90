//! Service-layer throughput: queries/sec through `pcservice`'s batch
//! executor at batch sizes {1, 64, 4096} and 1–8 worker threads.
//!
//! The workload models steady-state serving: a pool of 32 distinct cographs
//! (n = 64, mixed shape), queries cycling through all five kinds, and a
//! warmed cotree cache — so the numbers measure the engine (dispatch, cache,
//! solve, verify), not recognition of brand-new graphs.
//!
//! A second group, `service_cache_contention`, models the worst case for
//! the sharded cotree cache: many worker threads hammering a *tiny* pool of
//! distinct graphs, so nearly every query is a cache hit and the lock
//! traffic itself is what is measured. Each configuration runs with a
//! single-shard cache (the old design: one global mutex) and the default
//! shard count, and reports the cache hit rate observed per configuration
//! on stderr.
//!
//! Recording a baseline: `CRITERION_JSON=BENCH_service.json cargo bench
//! -p pc-bench --bench batch_throughput` appends one JSON line per
//! measurement. Single-core containers cannot show contention relief
//! (threads time-slice one core); label such runs in the baseline notes.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pcservice::{EngineConfig, GraphSpec, QueryEngine, QueryKind, QueryRequest};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const POOL: usize = 32;
const GRAPH_N: usize = 64;

fn request_pool() -> Vec<GraphSpec> {
    (0..POOL)
        .map(|i| {
            let mut rng = ChaCha8Rng::seed_from_u64(i as u64);
            let tree = cograph::random_cotree(GRAPH_N, cograph::CotreeShape::Mixed, &mut rng);
            GraphSpec::Graph(tree.to_graph())
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_batch_throughput");
    group.sample_size(10);
    let pool = request_pool();
    for batch in [1usize, 64, 4096] {
        let requests: Vec<QueryRequest> = (0..batch)
            .map(|i| {
                let kind = QueryKind::ALL[i % QueryKind::ALL.len()];
                QueryRequest::new(kind, pool[i % POOL].clone())
            })
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let engine = QueryEngine::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            });
            engine.execute_batch(None, &requests); // warm the cotree cache
            group.bench_with_input(
                BenchmarkId::new(format!("batch{batch}"), format!("t{threads}")),
                &requests,
                |b, reqs| {
                    b.iter(|| {
                        let responses = engine.execute_batch(None, reqs);
                        assert!(responses.iter().all(|r| r.outcome.is_ok()));
                        responses.len()
                    })
                },
            );
        }
    }
    group.finish();
}

/// Cache-contention workload: few distinct graphs, every thread fighting
/// for the same cache entries.
fn bench_contention(c: &mut Criterion) {
    const HOT_POOL: usize = 4;
    const BATCH: usize = 4096;
    let mut group = c.benchmark_group("service_cache_contention");
    group.sample_size(10);
    let pool: Vec<GraphSpec> = request_pool().into_iter().take(HOT_POOL).collect();
    let requests: Vec<QueryRequest> = (0..BATCH)
        .map(|i| {
            // Scalar kinds only: the point is cache/lock traffic, not the
            // O(n) cover reconstruction.
            let kinds = [
                QueryKind::MinCoverSize,
                QueryKind::HamiltonianPath,
                QueryKind::HamiltonianCycle,
            ];
            QueryRequest::new(kinds[i % kinds.len()], pool[i % HOT_POOL].clone())
        })
        .collect();
    for threads in [1usize, 2, 4, 8] {
        for shards in [1usize, 0] {
            let engine = QueryEngine::new(EngineConfig {
                threads,
                cache_shards: shards,
                ..EngineConfig::default()
            });
            engine.execute_batch(None, &requests); // warm the cotree cache
            let shard_label = if shards == 0 {
                "shards-default"
            } else {
                "shards1"
            };
            group.bench_with_input(
                BenchmarkId::new(format!("hot{HOT_POOL}_t{threads}"), shard_label),
                &requests,
                |b, reqs| {
                    b.iter(|| {
                        let responses = engine.execute_batch(None, reqs);
                        assert!(responses.iter().all(|r| r.outcome.is_ok()));
                        responses.len()
                    })
                },
            );
            let stats = engine.cache_stats();
            let per_shard: Vec<String> = engine
                .cache_shard_stats()
                .iter()
                .map(|s| format!("{}/{}", s.hits, s.hits + s.misses))
                .collect();
            eprintln!(
                "contention t{threads} {shard_label}: hit rate {:.3} ({} shards; per-shard hits/lookups: {})",
                stats.hit_rate(),
                stats.shards,
                per_shard.join(" ")
            );
        }
    }
    group.finish();
}

/// Telemetry overhead: the same warmed batch workload with the telemetry
/// registry and the flight recorder on and off, so the cost of histogram
/// recording and span capture is measured directly. The `on/trace-off`
/// configuration is the contract point: it must sit within noise of the
/// pre-flight-recorder telemetry-on baseline (tracing disabled opens no
/// trace, so requests never touch the recorder). With tracing on, each
/// batch is one trace, capped at `MAX_TRACE_SPANS` spans and committed
/// once. The fully-disabled configuration records nothing but still reads
/// the clock at every stage boundary, as every response reports its
/// `solve_us` and `total_us`; the delta against it is the whole recording
/// bill.
fn bench_telemetry_overhead(c: &mut Criterion) {
    const BATCH: usize = 4096;
    let mut group = c.benchmark_group("service_telemetry_overhead");
    group.sample_size(10);
    let pool = request_pool();
    let requests: Vec<QueryRequest> = (0..BATCH)
        .map(|i| {
            let kind = QueryKind::ALL[i % QueryKind::ALL.len()];
            QueryRequest::new(kind, pool[i % POOL].clone())
        })
        .collect();
    for (label, telemetry, trace) in [
        ("on", true, pcservice::TraceConfig::default()),
        ("on-trace-off", true, pcservice::TraceConfig::off()),
        ("off", false, pcservice::TraceConfig::off()),
    ] {
        let engine = QueryEngine::new(EngineConfig {
            threads: 1,
            telemetry,
            trace,
            ..EngineConfig::default()
        });
        engine.execute_batch(None, &requests); // warm the cotree cache
        group.bench_with_input(
            BenchmarkId::new(format!("batch{BATCH}_t1"), label),
            &requests,
            |b, reqs| {
                b.iter(|| {
                    let responses = engine.execute_batch(None, reqs);
                    assert!(responses.iter().all(|r| r.outcome.is_ok()));
                    responses.len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench, bench_contention, bench_telemetry_overhead);
criterion_main!(benches);
