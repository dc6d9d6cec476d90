//! End-to-end integration: graph -> recognition -> cotree -> cover ->
//! verification, across all workload families and several sizes.

use cograph::{random_cotree, recognize, CotreeShape};
use pathcover::prelude::*;
use pcgraph::generators;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn from_raw_graph_to_verified_cover() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    // Cluster graphs are cographs; start from the raw graph as a user would.
    let graph = generators::random_cluster_graph(6, 5, &mut rng);
    let cotree = recognize(&graph).expect("cluster graphs are cographs");
    let cover = path_cover(&cotree);
    let report = verify_path_cover(&graph, &cover);
    assert!(report.is_valid(), "{report:?}");
    assert_eq!(cover.len(), sequential_path_cover(&cotree).len());
}

#[test]
fn non_cographs_are_rejected_by_recognition() {
    assert!(recognize(&generators::path_graph(5)).is_none());
    assert!(recognize(&generators::cycle_graph(5)).is_none());
}

#[test]
fn all_families_and_sizes_round_trip() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    for shape in CotreeShape::ALL {
        for n in [2usize, 17, 64, 250] {
            let cotree = random_cotree(n, shape, &mut rng);
            let graph = cotree.to_graph();
            let parallel = path_cover(&cotree);
            let sequential = sequential_path_cover(&cotree);
            assert!(
                verify_path_cover(&graph, &parallel).is_valid(),
                "{shape:?} n={n}"
            );
            assert!(
                verify_path_cover(&graph, &sequential).is_valid(),
                "{shape:?} n={n}"
            );
            assert_eq!(parallel.len(), sequential.len(), "{shape:?} n={n}");
            assert_eq!(
                parallel.len(),
                min_path_cover_size(&cotree),
                "{shape:?} n={n}"
            );
        }
    }
}

#[test]
fn hamiltonian_decisions_are_consistent_with_covers() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for n in [2usize, 9, 40, 120] {
        let cotree = cograph::generators::random_connected_cotree(n, CotreeShape::Mixed, &mut rng);
        let cover = path_cover(&cotree);
        assert_eq!(has_hamiltonian_path(&cotree), cover.len() == 1);
        if has_hamiltonian_cycle(&cotree) {
            assert!(has_hamiltonian_path(&cotree));
        }
    }
}

#[test]
fn pram_and_native_agree_across_modes() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let cotree = random_cotree(120, CotreeShape::Mixed, &mut rng);
    let graph = cotree.to_graph();
    let native = path_cover(&cotree);
    for mode in [pram::Mode::Erew, pram::Mode::Crew] {
        let outcome = pram_path_cover(
            &cotree,
            PramConfig {
                mode,
                processors: None,
                strict: false,
            },
        );
        assert_eq!(outcome.cover.len(), native.len(), "{mode}");
        assert!(
            verify_path_cover(&graph, &outcome.cover).is_valid(),
            "{mode}"
        );
    }
}
