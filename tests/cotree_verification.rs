//! `Cotree::verify_cover` against the graph verifier it replaces on the
//! serving path: on random cotrees of every shape, for valid covers and for
//! covers corrupted five ways, it must return exactly the report
//! `verify_path_cover` gives on the materialised graph. The edge count the
//! `recognize` answer takes from the cotree is checked the same way.

use cograph::{random_cotree, Cotree, CotreeShape};
use pathcover::sequential_path_cover;
use pcgraph::{verify_path_cover, Graph, Path, PathCover, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn paths_of(cover: &PathCover) -> Vec<Vec<VertexId>> {
    cover
        .paths()
        .iter()
        .map(|p| p.vertices().to_vec())
        .collect()
}

fn cover_of(paths: Vec<Vec<VertexId>>) -> PathCover {
    paths
        .into_iter()
        .filter(|p| !p.is_empty())
        .map(Path::new)
        .collect()
}

/// Picks a path index and a position on it.
fn pick(paths: &[Vec<VertexId>], rng: &mut ChaCha8Rng) -> (usize, usize) {
    let i = rng.gen_range(0..paths.len());
    (i, rng.gen_range(0..paths[i].len()))
}

/// The five corruptions, each applied to a valid cover.
fn corruptions(
    valid: &PathCover,
    g: &Graph,
    rng: &mut ChaCha8Rng,
) -> Vec<(&'static str, PathCover)> {
    let n = g.num_vertices() as VertexId;
    let base = paths_of(valid);
    let mut out = Vec::new();

    // Two vertices swapped across paths (within one path if there is one).
    let mut swapped = base.clone();
    let (i, a) = pick(&swapped, rng);
    let (j, b) = pick(&swapped, rng);
    let (x, y) = (swapped[i][a], swapped[j][b]);
    swapped[i][a] = y;
    swapped[j][b] = x;
    out.push(("swap", cover_of(swapped)));

    // One vertex dropped.
    let mut dropped = base.clone();
    let (i, a) = pick(&dropped, rng);
    dropped[i].remove(a);
    out.push(("drop", cover_of(dropped)));

    // One vertex duplicated onto the end of a path.
    let mut duplicated = base.clone();
    let (i, a) = pick(&duplicated, rng);
    let v = duplicated[i][a];
    let (j, _) = pick(&duplicated, rng);
    duplicated[j].push(v);
    out.push(("duplicate", cover_of(duplicated)));

    // One vertex out of range.
    let mut out_of_range = base.clone();
    let (i, a) = pick(&out_of_range, rng);
    out_of_range[i].insert(a, n + rng.gen_range(0..3));
    out.push(("out_of_range", cover_of(out_of_range)));

    // A non-adjacent pair spliced in: two paths joined end to end across a
    // non-edge, or, when every junction is an edge, a new two-vertex path
    // over a non-edge.
    let mut spliced = base.clone();
    let junction = (0..spliced.len())
        .flat_map(|i| (0..spliced.len()).map(move |j| (i, j)))
        .find(|&(i, j)| i != j && !g.has_edge(*spliced[i].last().unwrap(), spliced[j][0]));
    match junction {
        Some((i, j)) => {
            let tail = std::mem::take(&mut spliced[j]);
            spliced[i].extend(tail);
        }
        None => {
            let pair = (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .find(|&(u, v)| !g.has_edge(u, v));
            if let Some((u, v)) = pair {
                spliced.push(vec![u, v]);
            }
        }
    }
    out.push(("splice", cover_of(spliced)));
    out
}

#[test]
fn cotree_verification_matches_the_graph_verifier() {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let mut defects = [0usize; 4];
    for shape in CotreeShape::ALL {
        for n in [1usize, 2, 3, 5, 8, 13, 30, 64, 150] {
            for _ in 0..6 {
                let tree = random_cotree(n, shape, &mut rng);
                let g = tree.to_graph();
                let valid = sequential_path_cover(&tree);
                let report = tree.verify_cover(&valid);
                assert!(report.is_valid(), "{report:?}");
                assert_eq!(report, verify_path_cover(&g, &valid));
                for (name, cover) in corruptions(&valid, &g, &mut rng) {
                    let report = tree.verify_cover(&cover);
                    assert_eq!(
                        report,
                        verify_path_cover(&g, &cover),
                        "{name} on {shape:?} n={n}: {:?}",
                        tree.to_term()
                    );
                    for (count, found) in defects.iter_mut().zip([
                        report.missing.len(),
                        report.duplicated.len(),
                        report.non_edges.len(),
                        report.out_of_range.len(),
                    ]) {
                        *count += found;
                    }
                }
            }
        }
    }
    assert!(
        defects.iter().all(|&d| d > 0),
        "every defect class must occur: {defects:?}"
    );
}

#[test]
fn cotree_edge_count_matches_the_materialised_graph() {
    let mut rng = ChaCha8Rng::seed_from_u64(2025);
    for shape in CotreeShape::ALL {
        for n in [1usize, 2, 7, 40, 200] {
            let tree = random_cotree(n, shape, &mut rng);
            assert_eq!(
                tree.num_edges(),
                tree.to_graph().num_edges(),
                "{shape:?} n={n}"
            );
        }
    }
    let complete = Cotree::join_of((0..9).map(|_| Cotree::single(0)).collect());
    assert_eq!(complete.num_edges(), 36);
}
