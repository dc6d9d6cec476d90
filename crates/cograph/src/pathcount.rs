//! Path counts `p(u)` — the paper's Lemma 2.4.
//!
//! For the leftist binarised cotree the number of paths in a minimum path
//! cover of the subgraph `G(u)` obeys
//!
//! ```text
//! p(leaf)   = 1
//! p(0-node) = p(left) + p(right)
//! p(1-node) = max(p(left) - L(right), 1)
//! ```
//!
//! [`path_counts_seq`] evaluates the recurrence bottom-up; it is the oracle.
//! [`path_counts_pram`] evaluates it with rake-based tree contraction on the
//! PRAM simulator in `O(log n)` steps and `O(n)` work — this is exactly the
//! computation whose complexity Lemma 2.4 claims, and experiment E3 measures.

use crate::binary::{BinKind, BinaryCotree};
use parprims::{evaluate_tree_pram, NodeOp};
use pram::Pram;

/// Sequential evaluation of the `p(u)` recurrence for every node.
///
/// `leaf_counts` must be [`BinaryCotree::leaf_counts`] of the same (leftist)
/// tree.
pub fn path_counts_seq(t: &BinaryCotree, leaf_counts: &[usize]) -> Vec<i64> {
    let mut p = vec![0i64; t.num_nodes()];
    for u in t.postorder() {
        p[u] = match t.kind(u) {
            BinKind::Leaf(_) => 1,
            BinKind::Zero => p[t.left(u)] + p[t.right(u)],
            BinKind::One => (p[t.left(u)] - leaf_counts[t.right(u)] as i64).max(1),
        };
    }
    p
}

/// PRAM evaluation of the `p(u)` recurrence via tree contraction.
///
/// The 1-node operation depends only on the left child once `L(right)` is
/// known, so every node operation is a max-plus affine function and the
/// contraction of `parprims::contraction` applies directly.
pub fn path_counts_pram(pram: &mut Pram, t: &BinaryCotree, leaf_counts: &[usize]) -> Vec<i64> {
    let n = t.num_nodes();
    let tree = t.to_rooted_tree();
    let mut ops = vec![NodeOp::Add; n];
    let mut leaf_values = vec![0i64; n];
    for u in 0..n {
        match t.kind(u) {
            BinKind::Leaf(_) => leaf_values[u] = 1,
            BinKind::Zero => ops[u] = NodeOp::Add,
            BinKind::One => {
                ops[u] = NodeOp::LeftAffine {
                    add: -(leaf_counts[t.right(u)] as i64),
                    floor: 1,
                }
            }
        }
    }
    evaluate_tree_pram(pram, &tree, &ops, &leaf_values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cotree::Cotree;
    use crate::generators::{random_cotree, CotreeShape};
    use pcgraph::path::brute_force_min_path_cover;
    use pram::{Mode, Pram};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn counts_of(t: &Cotree) -> (BinaryCotree, Vec<usize>, Vec<i64>) {
        let (b, l) = BinaryCotree::leftist_from_cotree(t);
        let p = path_counts_seq(&b, &l);
        (b, l, p)
    }

    #[test]
    fn single_vertex_has_one_path() {
        let (b, _, p) = counts_of(&Cotree::single(0));
        assert_eq!(p[b.root()], 1);
    }

    #[test]
    fn edgeless_graph_needs_n_paths() {
        let t = Cotree::union_of((0..5).map(|_| Cotree::single(0)).collect());
        let (b, _, p) = counts_of(&t);
        assert_eq!(p[b.root()], 5);
    }

    #[test]
    fn complete_graph_is_hamiltonian() {
        let t = Cotree::join_of((0..6).map(|_| Cotree::single(0)).collect());
        let (b, _, p) = counts_of(&t);
        assert_eq!(p[b.root()], 1);
    }

    #[test]
    fn star_graph_count_matches_brute_force() {
        // K_{1,4}: join(single, union of 4 singles): minimum cover has 3 paths.
        let t = Cotree::join_of(vec![
            Cotree::union_of((0..4).map(|_| Cotree::single(0)).collect()),
            Cotree::single(0),
        ]);
        let (b, _, p) = counts_of(&t);
        assert_eq!(p[b.root()], 3);
        assert_eq!(brute_force_min_path_cover(&t.to_graph()), 3);
    }

    #[test]
    fn seq_counts_match_brute_force_on_random_small_cographs() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for shape in CotreeShape::ALL {
            for n in [2usize, 3, 4, 5, 6, 7, 8, 9] {
                for _ in 0..4 {
                    let t = random_cotree(n, shape, &mut rng);
                    let (b, _, p) = counts_of(&t);
                    let expected = brute_force_min_path_cover(&t.to_graph()) as i64;
                    assert_eq!(p[b.root()], expected, "{shape:?} n={n} tree={t:?}");
                }
            }
        }
    }

    #[test]
    fn pram_counts_match_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        for shape in CotreeShape::ALL {
            for n in [2usize, 5, 17, 60, 150] {
                let t = random_cotree(n, shape, &mut rng);
                let (b, l) = BinaryCotree::leftist_from_cotree(&t);
                let want = path_counts_seq(&b, &l);
                let mut pram = Pram::strict(Mode::Erew, pram::optimal_processors(n));
                let got = path_counts_pram(&mut pram, &b, &l);
                assert_eq!(got, want, "{shape:?} n={n}");
                assert!(pram.metrics().is_clean());
            }
        }
    }

    #[test]
    fn pram_counts_are_logarithmic_time_linear_work() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut stats = Vec::new();
        for exp in [9usize, 11, 13] {
            let n = 1usize << exp;
            let t = random_cotree(n, CotreeShape::Balanced, &mut rng);
            let (b, l) = BinaryCotree::leftist_from_cotree(&t);
            let mut pram = Pram::new(Mode::Erew, pram::optimal_processors(n));
            path_counts_pram(&mut pram, &b, &l);
            stats.push((
                pram.metrics().steps_per_log(n),
                pram.metrics().work_per_item(n),
            ));
        }
        let (s0, w0) = stats[0];
        let (s2, w2) = *stats.last().expect("nonempty");
        assert!(s2 / s0 < 2.5, "steps not O(log n): {stats:?}");
        assert!(w2 / w0 < 1.3, "work not O(n): {stats:?}");
    }
}
