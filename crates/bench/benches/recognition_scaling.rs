//! Recognition scaling: the linear-time incremental recogniser
//! (`cograph::recognition::fast`) against the textbook decomposition
//! (`cograph::recognition::reference`) at n ∈ {64, 256, 1024, 4096}.
//!
//! Workloads per size, drawn from the workspace's standard cotree shape
//! families:
//!
//! * `*/mixed_n{n}` — a random mixed-shape cotree materialised to a graph
//!   (the same family `batch_throughput` serves); both recognisers accept,
//!   measuring the full build-the-cotree path. Mixed cographs are dense
//!   (`m = Θ(n²)`), so both sides do `Ω(n²)` work and the gap is a constant
//!   factor.
//! * `*/skewed_n{n}` — the deep caterpillar family, the decomposition's
//!   worst case: it peels `O(1)` vertices per level, paying `Θ(k)`-to-
//!   `Θ(k²)` per level over `Θ(n)` levels, while the incremental recogniser
//!   stays `O(n + m)`. This is where removing the ingestion bottleneck
//!   actually shows up at scale.
//! * `*_near/n{n}` — a mixed cograph on n−4 vertices with a disjoint `P_4`
//!   appended as the last four vertices, so the incremental recogniser pays
//!   for almost the whole graph before rejecting on the tail and extracting
//!   a certificate.
//! * `fast_reject/mixed_n1500_seed1` — a dense near-cograph (`m ≈ 877k`,
//!   7.4 MB as an edge list): the seed-1 mixed cograph on 1500 vertices
//!   with random vertex pairs toggled until it stops being one. The
//!   refusal's witness is read off the failing prefix's cotree in `O(n)`,
//!   so rejecting costs about what deciding (`is_cograph`) does.
//!
//! The `reference/skewed` series stops at n = 1024 inside the main group;
//! the n = 4096 point takes minutes per execution, so it lives in the
//! single-sample `recognition_scaling_worstcase` group and is skipped in
//! `--test` smoke mode (loudly, not silently).
//!
//! Recording a baseline: `CRITERION_JSON=BENCH_recognition.json cargo bench
//! -p pc-bench --bench recognition_scaling` appends one JSON line per
//! measurement. Note single-core containers in the baseline file, matching
//! the `BENCH_service.json` convention.

use cograph::recognition::{fast, reference};
use cograph::CotreeShape;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pcgraph::Graph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

const SIZES: [usize; 4] = [64, 256, 1024, 4096];

/// The decomposition's per-level cost makes skewed trees at n = 4096 a
/// minutes-long single execution; keep it out of the sampled group and out
/// of CI smoke runs.
const REFERENCE_SKEWED_CAP: usize = 1024;

fn random_cograph(n: usize, shape: CotreeShape, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    cograph::random_cotree(n, shape, &mut rng).to_graph()
}

/// A cograph on `n - 4` vertices with a disjoint `P_4` tail occupying the
/// last four ids, so rejection strikes at the very end of the insertion
/// order.
fn near_cograph(n: usize, seed: u64) -> Graph {
    assert!(n > 4);
    let base = random_cograph(n - 4, CotreeShape::Mixed, seed);
    let mut edges: Vec<(u32, u32)> = base.edges().collect();
    let t = (n - 4) as u32;
    edges.extend([(t, t + 1), (t + 1, t + 2), (t + 2, t + 3)]);
    Graph::from_edges(n, &edges).expect("tail edges are fresh")
}

/// The mixed cograph of `seed` with vertex pairs drawn from the same
/// generator toggled (`u = v` skipped) until it is no longer a cograph.
fn toggled_near_cograph(n: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let tree = cograph::random_cotree(n, CotreeShape::Mixed, &mut rng);
    let mut edges: BTreeSet<(u32, u32)> = tree.to_graph().edges().collect();
    loop {
        let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        if u == v {
            continue;
        }
        let pair = (u.min(v), u.max(v));
        if !edges.remove(&pair) {
            edges.insert(pair);
        }
        let list: Vec<(u32, u32)> = edges.iter().copied().collect();
        let g = Graph::from_edges(n, &list).expect("toggled pairs are simple");
        if !cograph::is_cograph(&g) {
            return g;
        }
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("recognition_scaling");
    group.sample_size(10);
    for n in SIZES {
        for shape in [CotreeShape::Mixed, CotreeShape::Skewed] {
            let g = random_cograph(n, shape, n as u64);
            let label = format!("{}_n{n}", shape.name());
            group.bench_with_input(BenchmarkId::new("fast", &label), &g, |b, g| {
                b.iter(|| fast::recognize(g).expect("cograph").num_vertices())
            });
            if shape == CotreeShape::Skewed && n > REFERENCE_SKEWED_CAP {
                continue; // measured once in recognition_scaling_worstcase
            }
            group.bench_with_input(BenchmarkId::new("reference", &label), &g, |b, g| {
                b.iter(|| reference::recognize(g).expect("cograph").num_vertices())
            });
        }
        let bad = near_cograph(n, n as u64 + 1);
        group.bench_with_input(
            BenchmarkId::new("fast_near", format!("n{n}")),
            &bad,
            |b, g| {
                b.iter(|| {
                    let err = fast::recognize(g).expect_err("P4 tail");
                    matches!(err, cograph::RecognitionError::InducedP4(_))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("reference_near", format!("n{n}")),
            &bad,
            |b, g| b.iter(|| reference::recognize(g).is_none()),
        );
    }
    let toggled = toggled_near_cograph(1500, 1);
    group.bench_with_input(
        BenchmarkId::new("fast_reject", "mixed_n1500_seed1"),
        &toggled,
        |b, g| b.iter(|| fast::recognize(g).expect_err("toggled pairs")),
    );
    group.finish();
}

/// The headline asymptotic gap, measured rather than extrapolated: one
/// sample of the reference decomposition on the skewed family at n = 4096
/// (minutes per execution). Skipped in `--test` smoke mode.
fn bench_worstcase(c: &mut Criterion) {
    if std::env::args().any(|arg| arg == "--test") {
        println!(
            "recognition_scaling_worstcase: skipped under --test \
             (reference/skewed_n4096 takes minutes per execution)"
        );
        return;
    }
    let mut group = c.benchmark_group("recognition_scaling_worstcase");
    group.sample_size(1);
    let n = 4096usize;
    let g = random_cograph(n, CotreeShape::Skewed, n as u64);
    group.bench_with_input(
        BenchmarkId::new("reference", format!("skewed_n{n}")),
        &g,
        |b, g| b.iter(|| reference::recognize(g).expect("cograph").num_vertices()),
    );
    group.finish();
}

criterion_group!(benches, bench, bench_worstcase);
criterion_main!(benches);
