//! The optimal algorithm, the sequential algorithm and every baseline find
//! covers of the same (minimum) size, and all of them verify against the
//! graph.

use cograph::{random_cotree, CotreeShape};
use pathcover::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn all_algorithms_agree_on_cover_size() {
    let mut rng = ChaCha8Rng::seed_from_u64(10);
    for shape in CotreeShape::ALL {
        let cotree = random_cotree(90, shape, &mut rng);
        let graph = cotree.to_graph();
        let expected = min_path_cover_size(&cotree);

        let outcomes = vec![
            ("sequential", sequential_path_cover(&cotree)),
            ("parallel", path_cover(&cotree)),
            (
                "pram",
                pram_path_cover(&cotree, PramConfig::default()).cover,
            ),
            ("naive", naive_parallel_cover(&cotree).cover),
            ("lin et al.", lin_etal_cover(&cotree).cover),
            ("adhar-peng", adhar_peng_like_cover(&cotree).cover),
        ];
        for (name, cover) in outcomes {
            assert_eq!(cover.len(), expected, "{name} on {shape:?}");
            assert!(
                verify_path_cover(&graph, &cover).is_valid(),
                "{name} produced an invalid cover on {shape:?}"
            );
        }
    }
}

#[test]
fn comparison_metrics_have_the_expected_ordering() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let n = 1 << 10;
    let skewed = random_cotree(n, CotreeShape::Skewed, &mut rng);
    let ours = pram_path_cover(&skewed, PramConfig::default());
    let naive = naive_parallel_cover(&skewed);
    // The naive parallelisation pays one round per level: on a skewed cotree
    // of this size it must already be slower than the optimal algorithm.
    assert!(
        naive.metrics.steps > ours.metrics.steps,
        "naive {} vs ours {}",
        naive.metrics.steps,
        ours.metrics.steps
    );
    // Work optimality: our work per vertex stays within a constant band.
    assert!(ours.metrics.work_per_item(n) < 5000.0);
}
