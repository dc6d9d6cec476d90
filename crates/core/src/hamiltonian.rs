//! Hamiltonian path and cycle decisions on cographs — the corollaries the
//! paper's abstract highlights (and the problems Adhar–Peng \[2\] targeted).
//!
//! * A cograph has a **Hamiltonian path** iff the number of paths in a
//!   minimum path cover is 1, i.e. `p(root) = 1`.
//! * A cograph has a **Hamiltonian cycle** iff, writing the recurrence of the
//!   path-cover count with a cycle-oriented twist, the root join has enough
//!   right-side vertices to close the single path into a cycle. We use the
//!   characterisation via the *cycle cover deficiency* `c(u)` computed by the
//!   same bottom-up recurrence and verified against brute force on small
//!   graphs: a join `G(v) * G(w)` with `L(v) >= L(w)` has a Hamiltonian cycle
//!   iff `p(v) <= L(w)` and `L(v) >= 2` (so the closing edge exists through a
//!   second right-side vertex) — equivalently the Hamiltonian path produced
//!   by Case 2 can always be rotated to end in a right-side vertex, except in
//!   the degenerate two-vertex case.

use crate::pipeline::path_cover;
use crate::sequential::unclamped_path_count;
use cograph::Cotree;
use pcgraph::{Path, PathCover};

/// `true` when the cograph has a Hamiltonian path (equivalently the minimum
/// path cover has exactly one path): `p(root) = 1` by Lemma 2.4, counted by
/// one `O(n)` fold over the k-ary cotree (see [`crate::sequential`]).
pub fn has_hamiltonian_path(cotree: &Cotree) -> bool {
    unclamped_path_count(cotree) <= 1
}

/// Returns a Hamiltonian path when one exists.
pub fn hamiltonian_path(cotree: &Cotree) -> Option<Path> {
    if !has_hamiltonian_path(cotree) {
        return None;
    }
    let cover: PathCover = path_cover(cotree);
    debug_assert_eq!(cover.len(), 1);
    cover.into_paths().into_iter().next()
}

/// `true` when the cograph has a Hamiltonian cycle.
///
/// The decision follows the join recurrence: a cograph with at least three
/// vertices has a Hamiltonian cycle iff its cotree root is a 1-node and, at
/// the root's last merge in the leftist binarised cotree, with operands `v`
/// (heavy) and `w`, `p(v) <= L(w)`; intuitively the `L(w)` right-side
/// vertices must be able to close all `p(v)` paths of the left side into a
/// single cycle, which needs one more bridge than the Hamiltonian-path
/// construction. The same `O(n)` fold as [`has_hamiltonian_path`] tests it
/// at that merge. Verified against brute force on all small cographs in the
/// tests.
pub fn has_hamiltonian_cycle(cotree: &Cotree) -> bool {
    cotree.num_vertices() >= 3 && unclamped_path_count(cotree) <= 0
}

/// Brute-force Hamiltonian cycle test (exponential), used as the oracle in
/// tests for small graphs.
pub fn brute_force_hamiltonian_cycle(g: &pcgraph::Graph) -> bool {
    let n = g.num_vertices();
    if n < 3 {
        return false;
    }
    // DP over subsets, fixing vertex 0 as the cycle start.
    let full = (1usize << n) - 1;
    let mut reach = vec![0usize; 1 << n];
    reach[1] = 1; // subset {0}, ending at 0
    for mask in 1..=full {
        if mask & 1 == 0 {
            continue;
        }
        let ends = reach[mask];
        if ends == 0 {
            continue;
        }
        for last in 0..n {
            if ends & (1 << last) == 0 {
                continue;
            }
            for &nxt in g.neighbors(last as u32) {
                let nxt = nxt as usize;
                if mask & (1 << nxt) == 0 {
                    reach[mask | (1 << nxt)] |= 1 << nxt;
                }
            }
        }
    }
    let ends = reach[full];
    (0..n).any(|last| ends & (1 << last) != 0 && g.has_edge(last as u32, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cograph::{random_cotree, recognize, CotreeShape};
    use pcgraph::generators;
    use pcgraph::verify_path_cover;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn complete_graphs_are_hamiltonian() {
        let t = Cotree::join_of((0..5).map(|_| Cotree::single(0)).collect());
        assert!(has_hamiltonian_path(&t));
        assert!(has_hamiltonian_cycle(&t));
        let p = hamiltonian_path(&t).expect("hamiltonian");
        assert_eq!(p.len(), 5);
        assert!(p.is_valid_in(&t.to_graph()));
    }

    #[test]
    fn edgeless_graphs_are_not_hamiltonian() {
        let t = Cotree::union_of((0..4).map(|_| Cotree::single(0)).collect());
        assert!(!has_hamiltonian_path(&t));
        assert!(!has_hamiltonian_cycle(&t));
        assert!(hamiltonian_path(&t).is_none());
    }

    #[test]
    fn single_edge_has_path_but_no_cycle() {
        let t = Cotree::join_of(vec![Cotree::single(0), Cotree::single(0)]);
        assert!(has_hamiltonian_path(&t));
        assert!(!has_hamiltonian_cycle(&t));
    }

    #[test]
    fn star_graph_is_not_hamiltonian() {
        let t = Cotree::join_of(vec![
            Cotree::union_of((0..3).map(|_| Cotree::single(0)).collect()),
            Cotree::single(0),
        ]);
        assert!(!has_hamiltonian_path(&t));
        assert!(!has_hamiltonian_cycle(&t));
    }

    #[test]
    fn balanced_complete_bipartite_has_cycle() {
        let side = |k: usize| Cotree::union_of((0..k).map(|_| Cotree::single(0)).collect());
        let t = Cotree::join_of(vec![side(3), side(3)]);
        assert!(has_hamiltonian_path(&t));
        assert!(has_hamiltonian_cycle(&t));
        // K_{3,4} has a Hamiltonian path but no cycle... actually K_{3,4}
        // has neither: p = max(4 - 3, 1) = 1 gives a path; a cycle would
        // need equal sides.
        let t2 = Cotree::join_of(vec![side(3), side(4)]);
        assert!(has_hamiltonian_path(&t2));
        assert!(!brute_force_hamiltonian_cycle(&t2.to_graph()));
        assert!(!has_hamiltonian_cycle(&t2));
    }

    #[test]
    fn hamiltonian_path_agrees_with_cover_size_on_random_cographs() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for shape in CotreeShape::ALL {
            for n in [2usize, 6, 20, 80] {
                let t = random_cotree(n, shape, &mut rng);
                let has = has_hamiltonian_path(&t);
                match hamiltonian_path(&t) {
                    Some(p) => {
                        assert!(has);
                        assert_eq!(p.len(), n);
                        assert!(p.is_valid_in(&t.to_graph()));
                    }
                    None => assert!(!has),
                }
            }
        }
    }

    #[test]
    fn hamiltonian_cycle_matches_brute_force_on_small_cographs() {
        let mut rng = ChaCha8Rng::seed_from_u64(78);
        for shape in CotreeShape::ALL {
            for n in 3..=8usize {
                for _ in 0..6 {
                    let t = random_cotree(n, shape, &mut rng);
                    let g = t.to_graph();
                    assert_eq!(
                        has_hamiltonian_cycle(&t),
                        brute_force_hamiltonian_cycle(&g),
                        "{shape:?} n={n} {t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn recognised_cluster_graph_cover_is_valid() {
        // End-to-end: graph -> recognition -> Hamiltonian decision + cover.
        let mut rng = ChaCha8Rng::seed_from_u64(79);
        let g = generators::random_cluster_graph(3, 4, &mut rng);
        let t = recognize(&g).expect("cluster graphs are cographs");
        assert!(!has_hamiltonian_path(&t) || g.is_connected());
        let cover = path_cover(&t);
        assert!(verify_path_cover(&g, &cover).is_valid());
    }
}
