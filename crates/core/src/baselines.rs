//! Prior-work baselines used by the comparison experiment (E5).
//!
//! The paper positions its result against three alternatives:
//!
//! 1. the **naive parallelisation** of the sequential bottom-up algorithm,
//!    which needs `O(height(T_bl) * log n)` time because every 1-node merge
//!    costs a prefix-sum-style `O(log n)` and the levels are processed one
//!    after another (Section 2);
//! 2. **Lin, Olariu, Schwing and Zhang \[18\]** — path *counts* in `O(log n)`
//!    time and `O(n)` work, but path *reporting* in `O(log^2 n)` time with
//!    `n / log n` EREW processors;
//! 3. **Adhar and Peng \[2\]** — `O(log^2 n)` time with `O(n^2)` CRCW
//!    processors.
//!
//! The original sources for \[18\] and \[2\] predate the paper and are not
//! available to this reproduction, so these baselines are *complexity-
//! faithful emulations*: every round executes genuine
//! primitive calls (scans, parallel loops) of the sizes the respective
//! algorithm would use on the same input, on the same instrumented PRAM, so
//! the measured step/work counts land in the complexity class attributed to
//! the algorithm; the cover itself is produced by the verified sequential
//! algorithm so that all baselines return correct output. The comparison of
//! experiment E5 is therefore about the *shape* of the curves — exactly the
//! claim the paper makes — not about constant factors of reconstructed code.

use crate::pipeline::PramOutcome;
use crate::sequential::sequential_path_cover;
use cograph::{BinKind, BinaryCotree, Cotree};
use parprims::scan::{exclusive_scan_pram, ScanOp};
use pram::{Mode, Pram, WritePolicy};

/// Naive parallelisation of the bottom-up algorithm: one synchronous round
/// per level of the leftist binarised cotree, each round paying a prefix-sum
/// over the paths being merged. Expected complexity `O(height * log n)` time,
/// `O(n log n)` work on an EREW PRAM with `n / log n` processors.
pub fn naive_parallel_cover(cotree: &Cotree) -> PramOutcome {
    let n = cotree.num_vertices();
    let processors = pram::optimal_processors(n);
    let mut machine = Pram::new(Mode::Erew, processors);
    let (tree, leaf_counts) = BinaryCotree::leftist_from_cotree(cotree);

    // Group internal nodes by height (leaves are height 0).
    let mut height = vec![0usize; tree.num_nodes()];
    for u in tree.postorder() {
        if !tree.is_leaf(u) {
            height[u] = 1 + height[tree.left(u)].max(height[tree.right(u)]);
        }
    }
    let max_height = height.iter().copied().max().unwrap_or(0);
    let mut by_level: Vec<Vec<usize>> = vec![Vec::new(); max_height + 1];
    for u in 0..tree.num_nodes() {
        if !tree.is_leaf(u) {
            by_level[height[u]].push(u);
        }
    }

    for level in by_level.iter().skip(1) {
        if level.is_empty() {
            continue;
        }
        machine.phase("level");
        // The merges of one level are independent, but each 1-node merge
        // needs to enumerate the paths of its left side: a prefix sum over
        // an array proportional to the vertices involved at this level.
        let involved: usize = level
            .iter()
            .map(|&u| match tree.kind(u) {
                BinKind::One => leaf_counts[u],
                _ => 1,
            })
            .sum();
        let xs = machine.alloc(involved.max(1));
        machine.parallel_for(involved.max(1), |ctx, i| ctx.write(xs, i, 1));
        let _ = exclusive_scan_pram(&mut machine, xs, ScanOp::Sum, 0);
        // O(1) splice work per merged vertex.
        machine.charge_round(level.len(), 4);
    }

    PramOutcome {
        cover: sequential_path_cover(cotree),
        metrics: machine.into_metrics(),
        processors,
    }
}

/// Emulation of Lin, Olariu, Schwing and Zhang \[18\]: optimal path counting
/// followed by `O(log n)` reporting rounds, each paying an `O(log n)`-step
/// global prefix sum — `O(log^2 n)` time, `O(n log n)` work, `n / log n`
/// EREW processors.
pub fn lin_etal_cover(cotree: &Cotree) -> PramOutcome {
    let n = cotree.num_vertices();
    let processors = pram::optimal_processors(n);
    let mut machine = Pram::new(Mode::Erew, processors);
    let (tree, leaf_counts) = BinaryCotree::leftist_from_cotree(cotree);

    // Phase 1: the optimal path-count computation (genuinely executed).
    machine.phase("path counts");
    let _p = cograph::path_counts_pram(&mut machine, &tree, &leaf_counts);

    // Phase 2: O(log n) reporting rounds, each a global scan plus a
    // per-vertex O(1) step.
    machine.phase("reporting rounds");
    let rounds = (usize::BITS - n.max(2).leading_zeros()) as usize;
    for _ in 0..rounds {
        let xs = machine.alloc(n.max(1));
        machine.parallel_for(n.max(1), |ctx, i| ctx.write(xs, i, 1));
        let _ = exclusive_scan_pram(&mut machine, xs, ScanOp::Sum, 0);
    }

    PramOutcome {
        cover: sequential_path_cover(cotree),
        metrics: machine.into_metrics(),
        processors,
    }
}

/// Emulation of Adhar and Peng \[2\]: a CRCW algorithm with `O(n^2)`
/// processors and `O(log^2 n)` time. Each of the `O(log n)` rounds touches
/// the full adjacency-matrix-sized processor array once and performs an
/// `O(log n)`-step reduction.
///
/// Because the emulation genuinely iterates over `n^2` virtual processors it
/// is only intended for moderate `n` (the experiment driver caps it).
pub fn adhar_peng_like_cover(cotree: &Cotree) -> PramOutcome {
    let n = cotree.num_vertices();
    let processors = n * n;
    let mut machine = Pram::new(Mode::Crcw(WritePolicy::Arbitrary), processors.max(1));

    let rounds = (usize::BITS - n.max(2).leading_zeros()) as usize;
    for _ in 0..rounds {
        machine.phase("matrix round");
        // One instruction for every vertex pair.
        machine.parallel_for(n * n, |ctx, _| ctx.charge(0));
        // A logarithmic-depth reduction over each row.
        let xs = machine.alloc(n.max(1));
        machine.parallel_for(n.max(1), |ctx, i| ctx.write(xs, i, 1));
        let _ = exclusive_scan_pram(&mut machine, xs, ScanOp::Sum, 0);
    }

    PramOutcome {
        cover: sequential_path_cover(cotree),
        metrics: machine.into_metrics(),
        processors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{pram_path_cover, PramConfig, PramOutcome};
    use cograph::{random_cotree, CotreeShape};
    use pcgraph::verify_path_cover;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn baselines_return_valid_minimum_covers() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let t = random_cotree(60, CotreeShape::Mixed, &mut rng);
        let g = t.to_graph();
        let expected = crate::pipeline::min_path_cover_size(&t);
        for outcome in [
            naive_parallel_cover(&t),
            lin_etal_cover(&t),
            adhar_peng_like_cover(&t),
        ] {
            assert!(verify_path_cover(&g, &outcome.cover).is_valid());
            assert_eq!(outcome.cover.len(), expected);
            assert!(outcome.metrics.steps > 0);
        }
    }

    #[test]
    fn naive_grows_with_height_but_ours_does_not() {
        // On skewed cotrees the naive parallelisation pays one round per
        // level, so doubling n roughly doubles its step count, while the
        // optimal algorithm's step count stays essentially flat.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let small = random_cotree(512, CotreeShape::Skewed, &mut rng);
        let large = random_cotree(2048, CotreeShape::Skewed, &mut rng);
        let naive_steps = |t: &Cotree| naive_parallel_cover(t).metrics.steps as f64;
        let naive_growth = naive_steps(&large) / naive_steps(&small);
        let sim_steps = |t: &Cotree| pram_path_cover(t, PramConfig::default()).metrics.steps as f64;
        let ours_growth = sim_steps(&large) / sim_steps(&small);
        assert!(naive_growth > 2.5, "naive growth {naive_growth}");
        assert!(ours_growth < 1.5, "ours growth {ours_growth}");
    }

    #[test]
    fn lin_etal_pays_an_extra_log_factor() {
        // The reporting phase of the [18] emulation costs Theta(log^2 n)
        // steps: normalised by log n it must grow markedly between sizes,
        // while our full pipeline's normalised step count stays flat.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let small = random_cotree(1 << 8, CotreeShape::Balanced, &mut rng);
        let large = random_cotree(1 << 12, CotreeShape::Balanced, &mut rng);
        let reporting = |o: &PramOutcome, n: usize| {
            let steps: u64 = o
                .metrics
                .phase_report()
                .iter()
                .filter(|p| p.name != "path counts")
                .map(|p| p.steps)
                .sum();
            steps as f64 / (n as f64).log2()
        };
        let lin_growth = reporting(&lin_etal_cover(&large), 1 << 12)
            / reporting(&lin_etal_cover(&small), 1 << 8);
        let ours = |t: &Cotree, n: usize| {
            pram_path_cover(t, PramConfig::default())
                .metrics
                .steps_per_log(n)
        };
        let ours_growth = ours(&large, 1 << 12) / ours(&small, 1 << 8);
        assert!(lin_growth > 1.3, "lin growth {lin_growth}");
        assert!(ours_growth < 1.3, "ours growth {ours_growth}");
    }

    #[test]
    fn adhar_peng_burns_quadratic_work() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let n = 512;
        let t = random_cotree(n, CotreeShape::Balanced, &mut rng);
        let theirs = adhar_peng_like_cover(&t);
        let ours = pram_path_cover(&t, PramConfig::default());
        let ours_work = ours.metrics.work;
        let theirs_work = theirs.metrics.work;
        assert!(theirs_work > (n * n) as u64);
        assert!(
            theirs_work > 2 * ours_work,
            "theirs={theirs_work} ours={ours_work}"
        );
        assert_eq!(theirs.processors, n * n);
    }
}
