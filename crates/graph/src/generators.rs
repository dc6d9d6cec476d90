//! Deterministic workload generators.
//!
//! All random generators take an explicit RNG so experiments are reproducible
//! from a seed; the benchmark harness uses `rand_chacha::ChaCha8Rng` seeds
//! recorded in `EXPERIMENTS.md`.

use crate::graph::{Graph, VertexId};
use rand::Rng;

/// The path graph `P_n`: vertices `0..n`, edges `{i, i+1}`.
pub fn path_graph(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge((i - 1) as VertexId, i as VertexId)
            .expect("path edges are simple");
    }
    g.finalize();
    g
}

/// The cycle graph `C_n` (requires `n >= 3` to be simple; smaller `n` yields
/// the path graph instead).
pub fn cycle_graph(n: usize) -> Graph {
    let mut g = path_graph(n);
    if n >= 3 {
        g.add_edge(0, (n - 1) as VertexId)
            .expect("closing edge is fresh");
        g.finalize();
    }
    g
}

/// The complete graph `K_n`.
pub fn complete_graph(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u as VertexId, v as VertexId)
                .expect("complete edges are simple");
        }
    }
    g.finalize();
    g
}

/// The star `K_{1,k}`: vertex `0` is the centre, vertices `1..=k` are leaves.
pub fn star_graph(k: usize) -> Graph {
    let mut g = Graph::new(k + 1);
    for leaf in 1..=k {
        g.add_edge(0, leaf as VertexId)
            .expect("star edges are simple");
    }
    g.finalize();
    g
}

/// A disjoint union of `k` cliques whose sizes are drawn uniformly from
/// `1..=max_size`. Cluster graphs are cographs, which makes this a convenient
/// positive workload for the recognition tests.
pub fn random_cluster_graph<R: Rng>(k: usize, max_size: usize, rng: &mut R) -> Graph {
    let sizes: Vec<usize> = (0..k).map(|_| rng.gen_range(1..=max_size.max(1))).collect();
    let mut g = Graph::new(sizes.iter().sum());
    let mut offset = 0usize;
    for s in sizes {
        for u in 0..s {
            for v in (u + 1)..s {
                g.add_edge((offset + u) as VertexId, (offset + v) as VertexId)
                    .expect("cluster edges are simple");
            }
        }
        offset += s;
    }
    g.finalize();
    g
}

/// The path graph `P_4` — the canonical *non*-cograph (cographs are exactly
/// the `P_4`-free graphs), used as a negative workload by recognition tests.
pub fn p4() -> Graph {
    path_graph(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn path_graph_shape() {
        let g = path_graph(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert!(g.is_connected());
    }

    #[test]
    fn path_graph_degenerate_cases() {
        assert_eq!(path_graph(0).num_vertices(), 0);
        assert_eq!(path_graph(1).num_edges(), 0);
        assert_eq!(path_graph(2).num_edges(), 1);
    }

    #[test]
    fn cycle_graph_shape() {
        let g = cycle_graph(5);
        assert_eq!(g.num_edges(), 5);
        assert!(g.vertices().all(|v| g.degree(v) == 2));
        // degenerate sizes fall back to paths
        assert_eq!(cycle_graph(2).num_edges(), 1);
    }

    #[test]
    fn complete_graph_shape() {
        let g = complete_graph(6);
        assert_eq!(g.num_edges(), 15);
        assert!(g.vertices().all(|v| g.degree(v) == 5));
    }

    #[test]
    fn star_graph_shape() {
        let g = star_graph(5);
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.degree(0), 5);
        assert!((1..=5).all(|v| g.degree(v as u32) == 1));
    }

    #[test]
    fn cluster_graph_is_disjoint_cliques() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = random_cluster_graph(4, 5, &mut rng);
        // Every connected component must be a clique.
        let (comp, count) = g.connected_components();
        assert!(count <= 4 + 1);
        for c in 0..count {
            let members: Vec<u32> = g.vertices().filter(|&v| comp[v as usize] == c).collect();
            for &u in &members {
                for &v in &members {
                    if u != v {
                        assert!(g.has_edge(u, v), "component {c} is not a clique");
                    }
                }
            }
        }
    }

    #[test]
    fn p4_is_the_four_vertex_path() {
        let g = p4();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
    }
}
