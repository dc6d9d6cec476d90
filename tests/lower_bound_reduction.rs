//! Integration tests for the Theorem 2.2 reduction: OR solved through the
//! path-cover oracle, including through the full PRAM pipeline.

use pathcover::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn or_via_the_full_pram_pipeline() {
    let mut rng = ChaCha8Rng::seed_from_u64(30);
    for n in [8usize, 32, 128] {
        for density in [0.0, 0.1, 0.9] {
            let bits: Vec<bool> = (0..n).map(|_| rng.gen_bool(density)).collect();
            let expected = bits.iter().any(|&b| b);
            let via_pipeline = or_via_path_cover(&bits, |cotree| {
                pram_path_cover(cotree, PramConfig::default()).cover.len()
            });
            assert_eq!(via_pipeline, expected, "n={n} density={density}");
        }
    }
}

#[test]
fn reduction_cover_sizes_follow_the_formula() {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    for n in [4usize, 20, 100] {
        let bits: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
        let ones = bits.iter().filter(|&&b| b).count();
        let cotree = or_instance_cotree(&bits);
        assert_eq!(min_path_cover_size(&cotree), n - ones + 2);
        let cover = path_cover(&cotree);
        assert_eq!(cover.len(), n - ones + 2);
        assert!(verify_path_cover(&cotree.to_graph(), &cover).is_valid());
    }
}

#[test]
fn upper_bound_step_counts_sit_on_a_logarithmic_curve() {
    // The measured steps of the algorithm on OR instances of growing size
    // must grow sub-linearly (logarithmically up to constants), matching the
    // lower bound's Theta(log n) prediction rather than exceeding it
    // polynomially.
    let mut rng = ChaCha8Rng::seed_from_u64(32);
    let mut steps = Vec::new();
    for exp in [6usize, 10] {
        let n = 1usize << exp;
        let bits: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.2)).collect();
        let cotree = or_instance_cotree(&bits);
        let outcome = pram_path_cover(&cotree, PramConfig::default());
        steps.push(outcome.metrics.steps as f64);
    }
    // 16x more input must cost far less than 16x more steps.
    assert!(steps[1] / steps[0] < 4.0, "{steps:?}");
}
